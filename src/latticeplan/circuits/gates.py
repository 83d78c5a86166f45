"""Dense statevector primitives.

Convention: qubit 0 is the most significant bit of the basis index, so
``basis_state("110")`` has amplitude 1 at index 6. All gates are stored as
unitary matrices over their arity and applied by tensor reshaping.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from ..exceptions import CapacityError

MAX_QUBITS = 16
# Widest reversible circuit run over every basis input. Bit-sliced, 22
# qubits (adder-11) hold 22 wires of 2^16 words (11.5 MB): `verify
# adder-11` takes 0.3 s and 45 MB in a fresh process on a 2-core VM, and
# `run_reversible_table` of that circuit, which also returns the int64
# table, peaks at 79 MB of numpy memory in 0.45 s.
MAX_TABLE_QUBITS = 22

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Z = np.diag([1, -1]).astype(np.complex128)
_S = np.diag([1, 1j]).astype(np.complex128)
_T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(np.complex128)


def _controlled(u: np.ndarray, controls: int) -> np.ndarray:
    dim = u.shape[0] << controls
    out = np.eye(dim, dtype=np.complex128)
    out[dim - u.shape[0]:, dim - u.shape[0]:] = u
    return out


_SWAP = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]

GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=np.complex128),
    "X": _X,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": _Z,
    "H": _H,
    "S": _S,
    "T": _T,
    "CX": _controlled(_X, 1),
    "CZ": _controlled(_Z, 1),
    "SWAP": _SWAP,
    "CCX": _controlled(_X, 2),
    "CCZ": _controlled(_Z, 2),
}

GATE_ARITY: dict[str, int] = {
    name: int(round(math.log2(mat.shape[0]))) for name, mat in GATES.items()
}


def apply_unitary(vec: np.ndarray, u: np.ndarray, qubits: Sequence[int],
                  n: int) -> np.ndarray:
    """Apply ``u`` to ``qubits`` of an n-qubit statevector.

    ``qubits`` are tensor positions under the MSB-first convention; the
    matrix's own qubit 0 acts on ``qubits[0]``. A ``(2^n, C)`` array is
    C statevectors side by side; each column is transformed.
    """
    k = len(qubits)
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {u.shape} does not match {k} qubits")
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubit in {qubits!r}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    t = vec.reshape((2,) * n + (-1,))
    t = np.moveaxis(t, qubits, range(k))
    t = u @ t.reshape(1 << k, -1)
    t = np.moveaxis(t.reshape((2,) * n + (-1,)), range(k), qubits)
    return np.ascontiguousarray(t.reshape(vec.shape))


def apply_gate(vec: np.ndarray, name: str, qubits: Sequence[int],
               n: int) -> np.ndarray:
    try:
        u = GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None
    return apply_unitary(vec, u, qubits, n)


@dataclasses.dataclass(frozen=True)
class StateVector:
    """Immutable n-qubit state. ``qubits`` names the tensor positions in
    MSB-first order; amplitudes index basis states accordingly."""

    qubits: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.qubits)
        if n > MAX_QUBITS:
            raise CapacityError(
                f"{n} qubits exceeds the cap of {MAX_QUBITS}")
        if self.amplitudes.shape != (1 << n,):
            raise ValueError("amplitude length does not match qubit count")
        self.amplitudes.setflags(write=False)

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"bad basis label {bits!r}")
        return complex(self.amplitudes[int(bits, 2)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_state(bits: str) -> np.ndarray:
    n = len(bits)
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bad basis label {bits!r}")
    vec = np.zeros(1 << n, dtype=np.complex128)
    vec[int(bits, 2) if bits else 0] = 1.0
    return vec


def plus_state(n: int) -> np.ndarray:
    return np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


def kron_with_ancillas(data: np.ndarray, data_qubits: Sequence[int],
                       ancilla_bits: dict[int, str], n: int) -> np.ndarray:
    """Embed ``data`` on ``data_qubits`` into an n-qubit register whose
    remaining qubits start in the given computational/plus basis states.

    ``ancilla_bits`` maps qubit index to "0", "1", or "+". A trailing
    column axis of ``data`` is kept: each column is embedded.
    """
    if sorted(list(data_qubits) + list(ancilla_bits)) != list(range(n)):
        raise ValueError("data and ancilla qubits must partition the register")
    vec = np.ones(1, dtype=np.complex128)
    order: list[int] = []
    for q in range(n):
        if q in ancilla_bits:
            spec = ancilla_bits[q]
            if spec == "+":
                single = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
            elif spec in ("0", "1"):
                single = basis_state(spec)
            else:
                raise ValueError(f"bad ancilla spec {spec!r}")
            vec = np.kron(vec, single)
            order.append(q)
    cols = data.shape[1:]
    full = np.multiply.outer(vec, data)
    order.extend(data_qubits)
    # order[i] is the qubit at tensor position i; transpose sends each home.
    perm = [order.index(q) for q in range(n)] + list(range(n, n + len(cols)))
    t = full.reshape((2,) * n + cols).transpose(perm)
    return np.ascontiguousarray(t.reshape((1 << n,) + cols))
