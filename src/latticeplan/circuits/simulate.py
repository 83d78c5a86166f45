"""Exhaustive enumeration of adaptive-circuit measurement branches.

Measured qubits are removed from the simulated register, so the state
dimension halves at every measurement; a 16-qubit circuit with 14
measurements stays cheap. Branches are explored depth first with the 0
outcome first, so the emitted order is lexicographic in the outcome bits.

The walk carries a trailing column axis: with every basis input as a
column, each leaf is the Kraus operator of its outcome string, and the
channel check compares it, after its Pauli frame, against the target
unitary up to one scalar per outcome.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import CapacityError, ContractError
from .circuit import (CGate, Circuit, FrameUpdate, Gate, Measure,
                      evaluate_condition)
from .frame import PauliFrame
from .gates import (MAX_QUBITS, StateVector, apply_gate, basis_state,
                    kron_with_ancillas)

PROB_FLOOR = 1e-12
ATOL = 1e-9


@dataclasses.dataclass(frozen=True, eq=False)
class Branch:
    """One measurement history.

    ``truncated`` marks a zero-probability prefix: the subtree below it was
    not explored and ``final_state``/``final_frame`` are None.
    """

    outcome_bits: str
    outcomes: dict[str, int]
    probability: float
    surviving_qubits: tuple[int, ...]
    final_state: StateVector | None
    final_frame: PauliFrame | None
    truncated: bool = False

    def unnormalized(self) -> np.ndarray:
        if self.final_state is None:
            raise ValueError("truncated branch has no state")
        return math.sqrt(self.probability) * self.final_state.amplitudes


def input_qubits_of(circuit: Circuit) -> tuple[int, ...]:
    if not circuit.initial_states:
        return ()
    return tuple(q for q, s in enumerate(circuit.initial_states) if s == "?")


def initial_vector(circuit: Circuit,
                   input_state: np.ndarray | None) -> np.ndarray:
    """The register at the start of the circuit. A ``(2^k, C)`` input
    gives C registers side by side, one per column."""
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    inits = circuit.initial_states or ("0",) * n
    data_qubits = tuple(q for q, s in enumerate(inits) if s == "?")
    if data_qubits:
        if input_state is None:
            raise ValueError("circuit has input qubits but no input given")
        if input_state.shape[:1] != (1 << len(data_qubits),):
            raise ValueError("input state has wrong dimension")
        ancillas = {q: s for q, s in enumerate(inits) if s != "?"}
        return kron_with_ancillas(input_state, data_qubits, ancillas, n)
    if input_state is not None:
        raise ValueError("circuit has no input qubits")
    return kron_with_ancillas(basis_state(""), (), dict(enumerate(inits)), n)


class _Leaf(NamedTuple):
    """End of one measurement history of the batched walk: the outcome
    string, the (2^s, C) block of unnormalized outputs on the s surviving
    qubits (one column per input; None for a zero-norm prefix whose
    subtree was not explored) and the recorded frame updates in order."""

    bits: str
    block: np.ndarray | None
    flips: tuple[tuple[int, str], ...]


def _walk(circuit: Circuit, block: np.ndarray,
          prob_floor: float) -> list[_Leaf]:
    """Run every measurement branch of the circuit on all columns of
    ``block`` at once, depth first with the 0 outcome first.

    Every basis flip, conditional gate and frame update depends on the
    outcome prefix alone, so one branch serves every column. A prefix
    whose squared norm, summed over the columns, is at most
    ``prob_floor`` ends as a stub.
    """
    leaves: list[_Leaf] = []

    def walk(block: np.ndarray, alive: tuple[int, ...], op_index: int,
             outcomes: dict[str, int], bits: str,
             flips: tuple[tuple[int, str], ...]) -> None:
        k = len(alive)
        while op_index < len(circuit.operations):
            op = circuit.operations[op_index]
            op_index += 1
            if isinstance(op, Gate):
                pos = [alive.index(q) for q in op.qubits]
                block = apply_gate(block, op.name, pos, k)
            elif isinstance(op, CGate):
                if evaluate_condition(op.condition, outcomes):
                    pos = [alive.index(q) for q in op.qubits]
                    block = apply_gate(block, op.name, pos, k)
            elif isinstance(op, FrameUpdate):
                if evaluate_condition(op.condition, outcomes):
                    flips = flips + ((op.qubit, op.pauli),)
            else:
                pos = alive.index(op.qubit)
                basis = op.basis
                if evaluate_condition(op.flip_basis_if, outcomes):
                    basis = "x" if basis == "z" else "z"
                if basis == "x":
                    block = apply_gate(block, "H", [pos], k)
                t = block.reshape((2,) * k + (-1,))
                rest = alive[:pos] + alive[pos + 1:]
                for m in (0, 1):
                    child = t.take(m, axis=pos).reshape(-1, t.shape[-1])
                    new_outcomes = {**outcomes, op.key: m}
                    if float(np.vdot(child, child).real) <= prob_floor:
                        leaves.append(_Leaf(bits + str(m), None, flips))
                    else:
                        walk(child, rest, op_index, new_outcomes,
                             bits + str(m), flips)
                return
        for qubit, _ in flips:
            if qubit not in alive:
                raise ValueError(f"frame update on measured qubit {qubit}")
        leaves.append(_Leaf(bits, block, flips))

    walk(block, tuple(range(circuit.num_qubits)), 0, {}, "", ())
    return leaves


def enumerate_branches(circuit: Circuit,
                       input_state: np.ndarray | None = None,
                       prob_floor: float = PROB_FLOOR) -> list[Branch]:
    """Run every measurement branch of the circuit on one input.

    The input covers the circuit's "?" qubits in ascending order and must
    be normalized; branch probabilities then sum to 1 (truncated stubs
    report probability 0.0).
    """
    if input_state is not None and input_state.ndim != 1:
        raise ValueError("input state must be one vector")
    vec = initial_vector(circuit, input_state)
    survivors = circuit.surviving_qubits
    keys = circuit.measurement_keys
    branches: list[Branch] = []
    for leaf in _walk(circuit, vec[:, None], prob_floor):
        # outcome bits follow the measurement order, a stub's a prefix
        outcomes = dict(zip(keys, map(int, leaf.bits)))
        if leaf.block is None:
            branches.append(Branch(leaf.bits, outcomes, 0.0, survivors,
                                   None, None, truncated=True))
            continue
        amps = leaf.block[:, 0]
        p = float(np.vdot(amps, amps).real)
        frame = PauliFrame.identity(survivors)
        for qubit, pauli in leaf.flips:
            frame = frame.flipped(qubit, pauli)
        branches.append(Branch(leaf.bits, outcomes, p, survivors,
                               StateVector(survivors, amps / math.sqrt(p)),
                               frame))
    return branches


def basis_inputs(k: int) -> list[tuple[str, np.ndarray]]:
    return [(format(i, f"0{k}b"), basis_state(format(i, f"0{k}b")))
            for i in range(1 << k)]


def random_inputs(k: int, count: int,
                  seed: int = 7) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        vec = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        out.append((f"random{i}", vec / np.linalg.norm(vec)))
    return out


@dataclasses.dataclass(frozen=True)
class ChannelReport:
    ok: bool
    inputs_checked: int
    branches_checked: int
    truncated_branches: int
    max_amplitude_error: float
    failures: tuple[str, ...]


def kraus_operators(circuit: Circuit, output_qubits: tuple[int, ...]
                    ) -> tuple[list[str], np.ndarray, int]:
    """Kraus operator of every outcome string, from one walk that carries
    all 2^k basis inputs as columns.

    Returns the live outcome strings in lexicographic order, their
    operators as an (R, 2^s, 2^k) array, each after its recorded frame
    and with its rows reordered onto ``output_qubits``, and the number of
    zero-norm prefixes left unexplored. Raises ContractError if the
    surviving qubits are not exactly ``output_qubits``.
    """
    survivors = circuit.surviving_qubits
    if set(survivors) != set(output_qubits):
        raise ContractError(
            f"circuit leaves qubits {survivors}, expected {output_qubits}")
    k = len(input_qubits_of(circuit))
    leaves = _walk(circuit, initial_vector(
        circuit, np.eye(1 << k, dtype=np.complex128)), PROB_FLOOR)
    live = [leaf for leaf in leaves if leaf.block is not None]
    n = len(survivors)
    x_mask = np.zeros(len(live), dtype=np.int64)
    z_mask = np.zeros(len(live), dtype=np.int64)
    for r, leaf in enumerate(live):
        for qubit, pauli in leaf.flips:
            bit = 1 << (n - 1 - survivors.index(qubit))
            if pauli == "X":
                x_mask[r] ^= bit
            else:
                z_mask[r] ^= bit
    # Z then X per qubit, as PauliFrame.apply:
    # (X^x Z^z v)[i] = (-1)^popcount((i ^ x) & z) v[i ^ x]
    src = np.arange(1 << n)[None, :] ^ x_mask[:, None]
    odd = src & z_mask[:, None]
    parity = np.zeros_like(odd)
    for b in range(n):
        parity ^= (odd >> b) & 1
    kraus = np.stack([leaf.block for leaf in live])
    kraus = (1 - 2 * parity)[:, :, None] \
        * np.take_along_axis(kraus, src[:, :, None], axis=1)
    perm = [survivors.index(q) for q in output_qubits]
    kraus = kraus.reshape((len(live),) + (2,) * n + (1 << k,))
    kraus = kraus.transpose([0] + [1 + p for p in perm] + [n + 1])
    kraus = np.ascontiguousarray(kraus.reshape(len(live), 1 << n, 1 << k))
    return [leaf.bits for leaf in live], kraus, len(leaves) - len(live)


def check_channel(circuit: Circuit, unitary: np.ndarray, *,
                  inputs: Sequence[tuple[str, np.ndarray]] | None = None,
                  output_qubits: tuple[int, ...] | None = None,
                  atol: float = ATOL) -> ChannelReport:
    """Verify that every measurement outcome implements ``unitary`` on the
    data, after its recorded Pauli frame, up to one scalar per outcome.

    The check is exact on the Kraus operators: K_r = c_r U for every
    outcome string r, and the sum of K_r^dagger K_r is the identity.
    ``inputs`` (default: the basis states) are evaluated as K_r psi; they
    set the counts of the report and add their per-branch amplitude
    errors.

    Raises ContractError if the surviving qubits are not exactly the
    expected outputs. Mismatches are reported, not raised; each failing
    outcome string is named once.
    """
    in_qubits = input_qubits_of(circuit)
    outs = tuple(output_qubits) if output_qubits is not None \
        else in_qubits
    k = len(in_qubits)
    if unitary.shape != (1 << len(outs), 1 << k):
        raise ValueError("unitary shape does not match data qubits")
    bits, kraus, truncated = kraus_operators(circuit, outs)
    if inputs is None:
        inputs = basis_inputs(k)

    # Scale each K_r to the weight of one unit input, so its distance
    # from c_r U reads as an amplitude error of a normalized branch.
    weight = np.einsum("rdc,rdc->r", kraus.conj(), kraus).real
    scaled = kraus * np.sqrt((1 << k) / weight)[:, None, None]
    coeff = np.einsum("dc,rdc->r", unitary.conj(), scaled) \
        / np.vdot(unitary, unitary).real
    errs = np.abs(scaled - coeff[:, None, None] * unitary).max(axis=(1, 2))

    checked = 0
    for _, state in inputs:
        expected = unitary @ state
        actual = kraus @ state
        probs = np.einsum("rd,rd->r", actual.conj(), actual).real
        seen = probs > PROB_FLOOR
        actual = actual[seen] / np.sqrt(probs[seen])[:, None]
        phase = np.exp(1j * np.angle(actual @ expected.conj()))
        errs[seen] = np.maximum(
            errs[seen], np.abs(actual - phase[:, None] * expected).max(axis=1))
        checked += int(seen.sum())

    failures = [f"branch {bits[r]}: max amplitude error {errs[r]:.3e}"
                for r in np.nonzero(errs > atol)[0]]
    gram = np.einsum("rdi,rdj->ij", kraus.conj(), kraus)
    incomplete = float(np.abs(gram - np.eye(1 << k)).max())
    if incomplete > atol:
        failures.append("sum of K_r^dagger K_r differs from the identity "
                        f"by {incomplete:.3e}")
    return ChannelReport(
        ok=not failures,
        inputs_checked=len(inputs),
        branches_checked=checked,
        truncated_branches=truncated,
        max_amplitude_error=float(errs.max()),
        failures=tuple(failures),
    )
