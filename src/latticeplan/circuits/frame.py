"""Pauli frame bookkeeping.

A frame records, per qubit, whether a deferred X and/or Z correction is
pending. Frames can be applied to a statevector to produce the
corrected state (global phase from Y = iXZ is ignored; all
comparisons downstream are mod global phase).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .gates import apply_gate


@dataclasses.dataclass(frozen=True)
class PauliFrame:
    qubits: tuple[int, ...]
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.qubits)
        if len(self.x_bits) != n or len(self.z_bits) != n:
            raise ValueError("frame bit lengths must match qubit count")
        if any(b not in (0, 1) for b in self.x_bits + self.z_bits):
            raise ValueError("frame bits must be 0 or 1")

    @classmethod
    def identity(cls, qubits: tuple[int, ...]) -> "PauliFrame":
        n = len(qubits)
        return cls(qubits, (0,) * n, (0,) * n)

    def flipped(self, qubit: int, pauli: str) -> "PauliFrame":
        i = self.qubits.index(qubit)
        x = list(self.x_bits)
        z = list(self.z_bits)
        if pauli == "X":
            x[i] ^= 1
        elif pauli == "Z":
            z[i] ^= 1
        elif pauli == "Y":
            x[i] ^= 1
            z[i] ^= 1
        else:
            raise ValueError(f"bad pauli {pauli!r}")
        return PauliFrame(self.qubits, tuple(x), tuple(z))

    def is_identity(self) -> bool:
        return not any(self.x_bits) and not any(self.z_bits)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Return the vector with pending corrections applied (Z then X per
        qubit; order only affects global phase)."""
        n = len(self.qubits)
        out = vec
        for i in range(n):
            if self.z_bits[i]:
                out = apply_gate(out, "Z", [i], n)
            if self.x_bits[i]:
                out = apply_gate(out, "X", [i], n)
        return out
