"""Pauli strings and Pauli frame bookkeeping.

``apply_pauli`` is the one place a Pauli string X^x Z^z is applied to
an array, given as bit masks over the row index; the Kraus-operator
check, ``PauliFrame.apply`` and the ZX comparison all call it. A frame
records, per qubit, whether a deferred X and/or Z correction is pending
(global phase from Y = iXZ is ignored; all comparisons downstream are
mod global phase).
"""

from __future__ import annotations

import dataclasses

import numpy as np


def apply_pauli(v: np.ndarray, x, z) -> np.ndarray:
    """X^x Z^z applied to the rows of ``v``:
    (X^x Z^z v)[i] = (-1)^popcount((i ^ x) & z) v[i ^ x].

    ``x`` and ``z`` are bit masks over the row index (qubit 0 is the most
    significant bit). Scalar masks act on the first axis of ``v``; masks
    of shape (B,) apply B strings to a (B, rows, ...) batch, string b to
    ``v[b]``. Trailing axes are columns and are carried along.
    """
    x = np.asarray(x)[..., None]
    z = np.asarray(z)[..., None]
    axis = x.ndim - 1
    src = np.arange(v.shape[axis]) ^ x
    odd = src & z
    for shift in (32, 16, 8, 4, 2, 1):
        odd ^= odd >> shift
    tail = (1,) * (v.ndim - axis - 1)
    sign = (1 - 2 * (odd & 1)).reshape(src.shape + tail)
    return sign * np.take_along_axis(v, src.reshape(src.shape + tail), axis)


def _mask(bits: tuple[int, ...]) -> int:
    return int("".join(map(str, bits)) or "0", 2)


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

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Return the vector with pending corrections applied (Z then X per
        qubit; order only affects global phase)."""
        return apply_pauli(vec, _mask(self.x_bits), _mask(self.z_bits))
