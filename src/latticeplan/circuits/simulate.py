"""Exhaustive enumeration of adaptive-circuit measurement branches.

Measured qubits are removed from the simulated register, so the state
dimension halves at every measurement; a 16-qubit circuit with 14
measurements stays cheap. Branches are explored breadth first, and a
measurement splits every outcome prefix at once with the 0 outcome
first.

The walk holds one row per distinct prefix state, not one per prefix.
Every live outcome prefix is a member: the member table holds its
outcome bits, in lexicographic order, the row (group) its state is in,
and its own X and Z frame masks. A measurement splits each row into its
two children, drops the members of a zero-norm child as stubs, and then
merges the children whose bytes are equal (``_distinct_rows``), so the
block holds as many rows as there are distinct states. A condition (a
basis flip, a ``CGate`` or a ``FrameUpdate``) is evaluated per member; a
row whose members disagree on a gate is split first, its selected
members moving to a copy of it. Every kernel computes each amplitude by
the same rounded operations whatever else the block holds (see
``gates``), so a row evolves exactly as each of its members would alone:
taken by the members' groups, the rows are byte-identical to the
per-prefix block.

The block, of shape (G, rows, C), is worked on in place. Its rows hold
the measured qubits first, in measurement order with the first one
measured as the most significant bit, then the survivors in ascending
order; a circuit never touches a qubit after measuring it, so this order
is fixed before the walk starts, and the walk's copy of the start block
is gathered in it. Each measurement then splits off the most significant
row bit by a reshape that copies nothing: (G, 2, rows/2, C) becomes
(2G, rows/2, C). A gate of ``gates.SIGNED_AFFINE`` (X, Z, CX, CZ, SWAP,
CCZ) on every prefix joins a pending relabelling of the rows and a sign,
applied by one gather and negation, which keep every byte, before any
other operation; the first builds the block from the input. Any other
gate runs in place (``gates.apply_in_place``), writing only the
sub-blocks it changes, on the rows it selects.

The walk carries a trailing column axis: with every basis input as a
column, each live outcome string ends with the Kraus operator of that
string. ``grouped_kraus_operators`` applies each distinct (row, frame)
pair once, and the channel check compares each distinct operator with
the target unitary up to one scalar, sharing the result with every
outcome string that holds it. With one input column,
``enumerate_branches`` hands each outcome string back as a plain
``Branch`` record of the walk's own values: the normalized amplitudes of
its state (its group's row of one read-only array, normalized once per
distinct state) and its frame as the walk's X and Z masks.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import CapacityError, ContractError
from .circuit import (CGate, Circuit, FrameUpdate, Gate, TRUE,
                      evaluate_condition)
from .gates import (GATES, MAX_QUBITS, SIGNED_AFFINE, apply_in_place,
                    apply_pauli, basis_state, kron_with_ancillas,
                    random_state, reshape_view)

PROB_FLOOR = 1e-12
ATOL = 1e-9
# The Kraus walk of n qubits and k inputs never holds more than 2^(n+k)
# values: a measurement halves the rows and at most doubles the prefix
# states, and the walk holds no more states than prefixes. The
# constructions need at most 2^18 values, and 2^22 take 64 MiB. The walk
# works on that one block in place; the channel check of mux-skip (2^18
# values, 4 MiB) peaks at 6.3 MiB of numpy memory.
MAX_KRAUS_VALUES = 1 << 22
# Random inputs per channel check: `verify all --random-count 10000`
# takes 2.6 s and 49 MB, against 0.24 s and 46 MB at the default of 3.
MAX_RANDOM_INPUTS = 10_000


@dataclasses.dataclass(frozen=True, eq=False)
class Branch:
    """One measurement history, as the walk left it.

    ``amplitudes`` is the normalized, read-only final state on
    ``surviving_qubits``, and ``frame_x``/``frame_z`` are the X and Z
    masks of the recorded Pauli frame over them (qubit 0 the most
    significant bit), as ``apply_pauli`` takes them. ``truncated`` marks
    a zero-probability prefix: the subtree below it was not explored,
    ``amplitudes`` is None and the masks are 0.
    """

    outcome_bits: str
    outcomes: dict[str, int]
    probability: float
    surviving_qubits: tuple[int, ...]
    amplitudes: np.ndarray | None
    frame_x: int = 0
    frame_z: int = 0
    truncated: bool = False


def input_qubits_of(circuit: Circuit) -> tuple[int, ...]:
    """The wires the circuit starts in state ``"?"``, its inputs."""
    return tuple(q for q, s in enumerate(circuit.initial_states) if s == "?")


def initial_vector(circuit: Circuit, input_state: np.ndarray | None,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """The register at the start of the circuit, or its ``rows`` if
    given. A ``(2^k, C)`` input gives C registers side by side."""
    n = circuit.num_qubits
    inits = circuit.initial_states or ("0",) * n
    data_qubits = input_qubits_of(circuit)
    if data_qubits:
        if input_state is None:
            raise ValueError("circuit has input qubits but no input given")
        if input_state.shape[:1] != (1 << len(data_qubits),):
            raise ValueError("input state has wrong dimension")
    elif input_state is not None:
        raise ValueError("circuit has no input qubits")
    ancillas = {q: s for q, s in enumerate(inits) if s != "?"}
    return kron_with_ancillas(basis_state("") if input_state is None
                              else input_state, data_qubits, ancillas, n, rows)


class _Groups(NamedTuple):
    """Every live outcome string of a circuit at its end, grouped by the
    bytes of its state.

    ``block`` is the C-contiguous (G, 2^s, C) array of the G distinct
    states on the s surviving qubits. The B live strings are members, in
    lexicographic order: ``bits`` is their (B, m) outcome matrix,
    ``group`` the (B,) row of ``block`` that holds each one's state, and
    ``x`` and ``z`` the (B,) X and Z masks of their recorded frames over
    the surviving qubits (qubit 0 the most significant bit). ``stubs``
    holds the outcome strings of the zero-norm prefixes whose subtrees
    were not explored.
    """

    block: np.ndarray
    group: np.ndarray
    bits: np.ndarray
    x: np.ndarray
    z: np.ndarray
    stubs: list[str]


def _bit_strings(bits: np.ndarray) -> list[str]:
    """The rows of a (B, m) bit matrix as strings of "0" and "1"."""
    if bits.shape[1] == 0:
        return [""] * len(bits)
    chars = bits.astype(np.uint8) + ord("0")
    return chars.view(f"S{bits.shape[1]}")[:, 0].astype(str).tolist()


def _parities(forms: Sequence[tuple[int, int]], m: int) -> np.ndarray:
    """For every i below 2^m, the bits parity(i & mask) ^ c of the (mask,
    c) ``forms``, the first the most significant, built bit by bit of i."""
    t = len(forms)
    out = np.array([sum(c << (t - 1 - f) for f, (_, c) in enumerate(forms))])
    for q in reversed(range(m)):
        col = sum((mask >> (m - 1 - q) & 1) << (t - 1 - f)
                  for f, (mask, _) in enumerate(forms))
        out = np.concatenate((out, out ^ col))
    return out


def _grouped_walk(circuit: Circuit, input_state: np.ndarray | None
                  ) -> _Groups:
    """Run every measurement branch of the circuit on all columns of the
    (2^k, C) or (2^k,) ``input_state`` at once (None without input
    qubits), breadth first, one block row per distinct prefix state.

    Every basis flip, conditional gate and frame update depends on the
    outcome prefix alone, so one prefix serves every column. A condition
    is a boolean vector over the members, and a conditional operation
    acts on the rows of the members it selects. A measurement splits
    member b into children 2b and 2b + 1, which keeps the members in
    lexicographic order; a child whose squared norm, summed over the
    columns, is at most ``PROB_FLOOR`` ends as a stub.

    Between gathers row j of the state is (-1)^sign(i) times row i of
    ``block`` (of the start, rows in qubit order, before the first): bit
    p of j is form forms[p] of i, sign(i) the xor over ``terms`` of the
    and of their forms, and form (mask, c) of i is parity(i & mask) ^ c.
    """
    n = circuit.num_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    survivors = circuit.surviving_qubits
    alive = list(circuit.measured_qubits + survivors)  # row bits, MSB first
    block = None
    forms = [(1 << (n - 1 - q), 0) for q in alive]
    terms: list[list[tuple[int, int]]] = []
    bits = np.zeros((1, 0), dtype=bool)
    group = np.zeros(1, dtype=np.intp)
    x, z = np.zeros((2, 1), dtype=np.int64)
    # per member, the first frame update on a qubit that is measured later
    bad = np.full(1, -1)
    keys: list[str] = []
    stubs: list[str] = []

    def selected(cond) -> np.ndarray:
        val = evaluate_condition(cond, dict(zip(keys, bits.T)))
        return np.broadcast_to(np.asarray(val, dtype=bool), (len(bits),))

    def fold(pos: list[int], images, shift: int, monomials) -> None:
        # the gate is its own inverse: j's bits at pos become its map of them
        k, old = len(pos), [forms[p] for p in pos]
        for i, p in enumerate(pos):
            mask, c = 0, shift >> (k - 1 - i) & 1
            for image, (mask_l, c_l) in zip(images, old):
                if image >> (k - 1 - i) & 1:
                    mask, c = mask ^ mask_l, c ^ c_l
            forms[p] = (mask, c)
        terms.extend([forms[p] for i, p in enumerate(pos)
                      if mono >> (k - 1 - i) & 1] for mono in monomials)

    def settle() -> None:
        nonlocal block, forms, terms
        m = len(alive)
        identity = [(1 << (m - 1 - p), 0) for p in range(m)]
        if block is not None and forms == identity and not terms:
            return
        src = np.empty(1 << m, dtype=np.intp)  # row i of each row j
        src[_parities(forms, m)] = np.arange(1 << m)
        if block is None:
            block = reshape_view(initial_vector(circuit, input_state, src),
                                 (1, 1 << m, -1))
        else:  # half the rows, or of one row's columns, at a time
            for view in np.array_split(block, 2, 0 if len(block) > 1 else 2):
                view[...] = view.take(src, axis=1)
        if terms:
            odd = np.bitwise_xor.reduce([_parities(t, m) == (1 << len(t)) - 1
                                         for t in terms])
            np.negative(block, out=block, where=odd[src, None])
        forms, terms = identity, []

    def rows_of(where: np.ndarray) -> np.ndarray:
        # the rows whose members are all selected, once each row whose
        # members disagree has moved its selected ones to a copy of it
        nonlocal block, group
        count = len(block)
        whole = np.ones(count, dtype=bool)
        whole[group[~where]] = False
        mixed = np.zeros(count, dtype=bool)
        mixed[group[where]] = True
        mixed &= ~whole
        if mixed.any():
            rows = np.flatnonzero(mixed)
            copy = np.zeros(count, dtype=np.intp)
            copy[rows] = np.arange(count, count + len(rows))
            group = np.where(where & mixed[group], copy[group], group)
            block = np.concatenate((block, block[rows]))
            whole = np.concatenate((whole, np.ones(len(rows), dtype=bool)))
        return whole

    def apply(name: str, qubits, where: np.ndarray) -> None:
        pos = [alive.index(q) for q in qubits]
        if name in SIGNED_AFFINE and where.all():
            return fold(pos, *SIGNED_AFFINE[name])
        if not where.any():
            return
        settle()
        rows = None if where.all() else rows_of(where)
        if rows is None or rows.all():
            apply_in_place(block, GATES[name], pos, len(alive))
        else:
            chosen = np.flatnonzero(rows)
            part = block[chosen]
            apply_in_place(part, GATES[name], pos, len(alive))
            block[chosen] = part

    for index, op in enumerate(circuit.operations):
        if isinstance(op, Gate):
            apply(op.name, op.qubits, selected(TRUE))
        elif isinstance(op, CGate):
            apply(op.name, op.qubits, selected(op.condition))
        elif isinstance(op, FrameUpdate):
            where = selected(op.condition)
            if op.qubit in survivors:
                bit = 1 << (len(survivors) - 1 - survivors.index(op.qubit))
                mask = x if op.pauli == "X" else z
                mask ^= np.where(where, bit, 0)
            else:
                bad = np.where(where & (bad < 0), index, bad)
        else:
            settle()
            apply("H", (op.qubit,),
                  selected(op.flip_basis_if) ^ (op.basis == "x"))
            # the measured qubit is the most significant row bit
            count, rows, width = block.shape
            block = reshape_view(block, (2 * count, rows // 2, width))
            bits = np.column_stack((np.repeat(bits, 2, axis=0),
                                    np.tile((False, True), len(bits))))
            group = (2 * group[:, None] + (0, 1)).ravel()
            x, z, bad = (np.repeat(v, 2) for v in (x, z, bad))
            parts = block.view(np.float64)  # real and imaginary parts
            live = np.einsum("brc,brc->b", parts, parts) > PROB_FLOOR
            dead = ~live[group]
            if dead.any():
                stubs += _bit_strings(bits[dead])
                bits, group, x, z, bad = (v[~dead] for v in
                                          (bits, group, x, z, bad))
            block, group = _regroup(block, group)
            alive.pop(0)
            forms = forms[1:]
            keys.append(op.key)
    settle()
    if (bad >= 0).any():
        qubit = circuit.operations[bad[bad >= 0][0]].qubit
        raise ValueError(f"frame update on measured qubit {qubit}")
    if block.base is not None and block.base.nbytes > block.nbytes:
        block = block.copy()  # let go of the rows merged away
    return _Groups(block, group, bits, x, z, stubs)


# The walk moves the rows it keeps this many bytes at a time, so merging
# allocates no second block.
_CHUNK_BYTES = 1 << 19


def _regroup(block: np.ndarray, group: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``block`` that hold a member, byte-equal ones merged,
    moved to its front in order, and the members' ``group`` renumbered
    onto them. A row moves only towards the front, a few at a time, so
    no second block is allocated."""
    first, label = _distinct_rows(block)
    used = np.zeros(len(first), dtype=bool)
    used[label[group]] = True
    keep = first[used]
    if len(keep) == len(block):
        return block, group
    chunk = max(1, _CHUNK_BYTES // max(1, block[:1].nbytes))
    for i in range(0, len(keep), chunk):
        rows = keep[i:i + chunk]
        block[i:i + len(rows)] = block[rows]
    return block[:len(keep)], (np.cumsum(used) - 1)[label[group]]


def enumerate_branches(circuit: Circuit,
                       input_state: np.ndarray | None = None
                       ) -> list[Branch]:
    """Run every measurement branch of the circuit on one input.

    The input covers the circuit's "?" qubits in ascending order and must
    be normalized; branch probabilities then sum to 1 (truncated stubs
    report probability 0.0). Branches come in lexicographic order of
    their outcome bits, each stub where its subtree would have been.
    """
    if input_state is not None and input_state.ndim != 1:
        raise ValueError("input state must be one vector")
    walk = _grouped_walk(circuit, input_state)
    survivors = circuit.surviving_qubits
    keys = circuit.measurement_keys
    # one normalization per distinct state, shared by its members
    amps = np.ascontiguousarray(walk.block[:, :, 0])
    parts = amps.view(np.float64)  # real and imaginary parts
    probs = np.einsum("gr,gr->g", parts, parts)
    amps /= np.sqrt(probs)[:, None]
    amps.setflags(write=False)
    p, group = probs.tolist(), walk.group.tolist()
    frame_x, frame_z = walk.x.tolist(), walk.z.tolist()
    outcomes = walk.bits.astype(np.int64).tolist()
    # a stub has no descendants, so sorting on the bits interleaves the
    # stubs as a depth-first walk would
    rows = sorted([(b, r) for r, b in enumerate(_bit_strings(walk.bits))]
                  + [(b, -1) for b in walk.stubs])
    branches: list[Branch] = []
    for bits, r in rows:
        if r < 0:
            # a stub's bits are a prefix of the measurement order
            branches.append(Branch(bits, dict(zip(keys, map(int, bits))),
                                   0.0, survivors, None, truncated=True))
        else:
            g = group[r]
            branches.append(Branch(bits, dict(zip(keys, outcomes[r])), p[g],
                                   survivors, amps[g], frame_x[r],
                                   frame_z[r]))
    return branches


def basis_inputs(k: int) -> list[tuple[str, np.ndarray]]:
    return [(format(i, f"0{k}b"), basis_state(format(i, f"0{k}b")))
            for i in range(1 << k)]


def random_inputs(k: int, count: int,
                  seed: int = 7) -> list[tuple[str, np.ndarray]]:
    if count > MAX_RANDOM_INPUTS:
        raise CapacityError(f"{count} random inputs exceed the cap of "
                            f"{MAX_RANDOM_INPUTS}")
    rng = np.random.default_rng(seed)
    return [(f"random{i}", random_state(k, rng)) for i in range(count)]


@dataclasses.dataclass(frozen=True)
class ChannelReport:
    ok: bool
    inputs_checked: int
    branches_checked: int
    truncated_branches: int
    max_amplitude_error: float
    failures: tuple[str, ...]


def grouped_kraus_operators(circuit: Circuit, output_qubits: tuple[int, ...]
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       int]:
    """Kraus operator of every outcome string, from one grouped walk that
    carries all 2^k basis inputs as columns, each distinct operator once.

    Returns the (R, m) bits of the live outcome strings in lexicographic
    order; the (T, 2^s, 2^k) operators of the T distinct (state, frame)
    pairs among them, each after its frame and with its rows reordered
    onto ``output_qubits``; the (R,) index of each string's operator;
    and the number of zero-norm prefixes left unexplored. Raises
    ContractError if the surviving qubits are not exactly
    ``output_qubits``.
    """
    survivors = circuit.surviving_qubits
    if set(survivors) != set(output_qubits):
        raise ContractError(
            f"circuit leaves qubits {survivors}, expected {output_qubits}")
    k = len(input_qubits_of(circuit))
    if 1 << (circuit.num_qubits + k) > MAX_KRAUS_VALUES:
        raise CapacityError(
            f"{circuit.num_qubits} qubits with {k} inputs exceed the cap "
            f"of {MAX_KRAUS_VALUES} values for the Kraus walk")
    walk = _grouped_walk(circuit, np.eye(1 << k, dtype=np.complex128))
    n = len(survivors)
    pairs = (walk.group << 2 * n) | (walk.x << n) | walk.z
    _, first, member = np.unique(pairs, return_index=True,
                                 return_inverse=True)
    kraus = apply_pauli(walk.block[walk.group[first]], walk.x[first],
                        walk.z[first])
    perm = [survivors.index(q) for q in output_qubits]
    kraus = kraus.reshape((len(first),) + (2,) * n + (1 << k,))
    kraus = kraus.transpose([0] + [1 + p for p in perm] + [n + 1])
    kraus = np.ascontiguousarray(kraus.reshape(len(first), 1 << n, 1 << k))
    return walk.bits, kraus, member, len(walk.stubs)


def kraus_operators(circuit: Circuit, output_qubits: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """``grouped_kraus_operators`` expanded: the (R, m) bits, the
    (R, 2^s, 2^k) operator of every live outcome string, and the number
    of stubs."""
    bits, kraus, member, stubs = grouped_kraus_operators(circuit,
                                                         output_qubits)
    return bits, kraus[member], stubs


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a C-contiguous (R, ...) array by their bytes.
    Returns the index of the first row of each group, ascending, and the
    (R,) group number of every row.

    Each row is viewed as one opaque (void) element, which numpy orders
    by its bytes as ``memcmp`` does: a stable argsort moves only indices,
    and a binary search finds for every row the first of its equals. A
    comparison of two rows stops at the first byte that differs."""
    count = len(rows)
    if not count:
        return np.zeros((2, 0), dtype=np.intp)
    flat = rows.reshape(count, -1)
    cells = flat.view(np.dtype((np.void, flat[0].nbytes)))[:, 0]
    order = np.argsort(cells, kind="stable")
    first_of = order[np.searchsorted(cells, cells, sorter=order)]
    is_first = first_of == np.arange(count)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[first_of]


def scalar_deviations(ops: np.ndarray, target: np.ndarray) -> np.ndarray:
    """For each (d, c) operator of the (R, d, c) ``ops``, scaled to the
    weight of c unit columns, its largest entrywise distance from its
    least-squares multiple of ``target``: an amplitude error of a
    normalized column, whatever the scale of either. Neither may be 0."""
    weight = np.einsum("rdc,rdc->r", ops.conj(), ops).real
    scaled = ops * np.sqrt(ops.shape[2] / weight)[:, None, None]
    coeff = np.einsum("dc,rdc->r", target.conj(), scaled) \
        / np.vdot(target, target).real
    return np.abs(scaled - coeff[:, None, None] * target).max(axis=(1, 2))


def check_channel(circuit: Circuit, unitary: np.ndarray, *,
                  inputs: Sequence[tuple[str, np.ndarray]] | None = None,
                  output_qubits: tuple[int, ...] | None = None
                  ) -> ChannelReport:
    """Verify that every measurement outcome implements ``unitary`` on the
    data, after its recorded Pauli frame, up to one scalar per outcome.

    The check is exact on the Kraus operators: K_r = c_r U for every
    outcome string r, and the sum of K_r^dagger K_r is the identity.
    ``inputs`` (default: the basis states) are evaluated as K_r psi; they
    set the counts of the report and add their per-branch amplitude
    errors. ``output_qubits`` (default: the input qubits) name the wires
    that carry the result. A branch fails when its error exceeds ATOL.

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
    bits, kraus, member, truncated = grouped_kraus_operators(circuit, outs)
    if inputs is None:
        inputs = basis_inputs(k)

    # Every error depends on the bytes of K_r alone, so each distinct
    # operator is checked once and its errors shared by its group.
    reps, label = _distinct_rows(kraus)
    group = label[member]
    size = np.bincount(group, minlength=len(reps))
    distinct = kraus[reps]

    errs = scalar_deviations(distinct, unitary)

    checked = 0
    for _, state in inputs:
        expected = unitary @ state
        actual = distinct @ state
        probs = np.einsum("rd,rd->r", actual.conj(), actual).real
        seen = probs > PROB_FLOOR
        actual = actual[seen] / np.sqrt(probs[seen])[:, None]
        phase = np.exp(1j * np.angle(actual @ expected.conj()))
        errs[seen] = np.maximum(
            errs[seen],
            np.abs(actual - phase[:, None] * expected).max(axis=1))
        checked += int(size[seen].sum())
    errs = errs[group]

    bad = np.flatnonzero(errs > ATOL)
    failures = [f"branch {b}: max amplitude error {errs[r]:.3e}"
                for r, b in zip(bad, _bit_strings(bits[bad]))]
    # the sum over all R operators, as size_g K_g^dagger K_g per group
    gram = np.einsum("r,rdi,rdj->ij", size, distinct.conj(), distinct)
    incomplete = float(np.abs(gram - np.eye(1 << k)).max())
    if incomplete > ATOL:
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
