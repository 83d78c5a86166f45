"""Dense statevector primitives.

Convention: qubit 0 is the most significant bit of the basis index, so
``basis_state("110")`` has amplitude 1 at index 6. All gates are stored as
unitary matrices over their arity. A gate is applied in place
(``apply_in_place``) on sub-block views of a batch of registers: each
output sub-block is written from the nonzero entries of its matrix row by
copies, negations, sums and scalings, with no transposed copy and no BLAS
call, so every amplitude is the same rounded operations however many
registers and columns are carried along. Every matrix takes the one
row-by-row path; a row that is its own basis vector is left alone, so a
monomial gate touches only the sub-blocks it changes. The branch walk
applies none of ``SIGNED_AFFINE`` (CX, CZ, ...) here: it gathers a run of
them at once.

``apply_pauli`` is the one place a Pauli string X^x Z^z is applied, given
as bit masks over the row index: each outcome's recorded frame in the
channel check, a branch's ``frame_x``/``frame_z`` and the boundary Paulis
of the ZX comparison all go through it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

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


# Each gate that sends basis state j to plus or minus basis state
# shift ^ images[l] ^ ... over the set bits l of j (bit 0 the most
# significant), with -1 when j holds all bits of an odd number of the
# monomials, as (images, shift, monomials). Each is its own inverse.
SIGNED_AFFINE = {"I": ((1,), 0, ()), "X": ((1,), 1, ()), "Z": ((1,), 0, (1,)),
                 "CX": ((3, 1), 0, ()), "CZ": ((2, 1), 0, (3,)),
                 "SWAP": ((1, 2), 0, ()), "CCZ": ((4, 2, 1), 0, (7,))}


def apply_unitary(vec: np.ndarray, u: np.ndarray, qubits: Sequence[int],
                  n: int) -> np.ndarray:
    """Apply ``u`` to ``qubits`` of an n-qubit statevector.

    ``qubits`` are tensor positions under the MSB-first convention; the
    matrix's own qubit 0 acts on ``qubits[0]``. A ``(2^n, ...)`` array
    is that many statevectors side by side; each is transformed, and the
    result is a new C-contiguous array of the same shape: a copy of
    ``vec`` that ``apply_in_place`` then transforms.
    """
    out = np.array(vec, dtype=np.result_type(vec, u), order="C")
    apply_in_place(out.reshape(1, 1 << n, -1), u, qubits, n)
    return out


def apply_in_place(block: np.ndarray, u: np.ndarray, qubits: Sequence[int],
                   n: int) -> None:
    """Apply ``u`` to ``qubits`` of every n-qubit register in ``block``,
    a (B, 2^n, ...) array: B batches of rows, trailing axes carried
    along. The rows must reshape without a copy, as they do in a
    C-contiguous array.

    Output sub-block j is written from row j of ``u``, one row after
    another. A row that is its own unit basis vector (a single 1, on the
    diagonal) is skipped, so its sub-block is neither read nor written,
    and a sub-block is saved before its row overwrites it only if a
    later row reads it. So H saves one half, a gate that swaps a pair of
    sub-blocks (X, Y, CX, SWAP, CCX) one sub-block, and a diagonal gate
    none: Z, CZ and CCZ negate their last sub-block in place.
    """
    k = len(qubits)
    if u.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {u.shape} does not match {k} qubits")
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubit in {qubits!r}")
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    if block.shape[1:2] != (1 << n,):
        raise ValueError(f"block of shape {block.shape} does not hold "
                         f"{n}-qubit rows")
    # Rows as (2^a, 2, 2^b, 2, ..., rest): one size-2 axis per gate qubit
    # in ascending order, each run of untouched qubits merged.
    order = sorted(qubits)
    shape = [len(block)]
    prev = -1
    for q in order:
        shape += [1 << (q - prev - 1), 2]
        prev = q
    shape += [1 << (n - 1 - prev), -1]
    view = reshape_view(block, shape)
    axes = [2 * order.index(q) + 2 for q in qubits]

    def sub(t: np.ndarray, j: int) -> np.ndarray:
        index: list = [slice(None)] * len(shape)
        for i, axis in enumerate(axes):
            index[axis] = (j >> (k - 1 - i)) & 1
        return t[tuple(index)]

    # Row j overwrites sub-block j, so the sub-block is saved first if a
    # later row reads it; its own row passes it as ``target``.
    saved: dict[int, np.ndarray] = {}
    for j, row in enumerate(u):
        cols = np.flatnonzero(row)
        if cols.tolist() == [j] and row[j] == 1:
            continue
        target = sub(view, j)
        if u[j + 1:, j].any():
            saved[j] = target.copy()
        terms = [(row[i], saved.get(i, target if i == j else sub(view, i)))
                 for i in cols]
        _write_row(target, terms)


def reshape_view(a: np.ndarray, shape) -> np.ndarray:
    """``a`` reshaped to ``shape`` without a copy, as
    ``np.reshape(a, shape, copy=False)`` does from NumPy 2.1 on. The
    in-place kernels write through the view, so a silent copy would drop
    their writes; an array that cannot be reshaped so is refused."""
    view = a.reshape(shape)
    if a.size and not np.may_share_memory(view, a):
        raise ValueError(f"array of shape {a.shape} does not reshape to "
                         f"{tuple(shape)} without a copy")
    return view


def _write_row(target: np.ndarray, terms: list) -> None:
    """Set ``target`` to the sum of coefficient x sub-block over
    ``terms``, elementwise, so that every amplitude is the same rounded
    operations whatever the block's shape. A term's sub-block may be
    ``target`` itself (the same object, not another view of it): the
    first two terms are read before ``target`` is written, and a later
    one that is ``target`` is copied first.

    Coefficients of one real magnitude are a chain of sums and
    differences, the first of them writing ``target``, followed by one
    real scale. Any others are multiplied into a temporary that is then
    copied: numpy rounds a complex product without a fused multiply-add
    when it runs in place over one element, and with one otherwise."""
    if not terms:
        target[...] = 0
        return
    coeffs = np.array([c for c, _ in terms])
    scale = abs(coeffs[0].real)
    if (coeffs.imag == 0).all() and (np.abs(coeffs.real) == scale).all():
        signs = coeffs.real > 0
        blocks = [b.copy() if i >= 2 and b is target else b
                  for i, (_, b) in enumerate(terms)]
        if len(blocks) == 1:
            if signs[0]:
                np.copyto(target, blocks[0])
            else:
                np.negative(blocks[0], out=target)
        elif signs[0]:
            (np.add if signs[1] else np.subtract)(blocks[0], blocks[1],
                                                  out=target)
        elif signs[1]:
            np.subtract(blocks[1], blocks[0], out=target)
        else:
            np.subtract(np.negative(blocks[0]), blocks[1], out=target)
        for positive, block in zip(signs[2:], blocks[2:]):
            (np.add if positive else np.subtract)(target, block, out=target)
        if scale != 1:
            np.multiply(target, scale, out=target)
        return
    total = np.multiply(terms[0][1], terms[0][0])
    for c, block in terms[1:]:
        total += c * block
    np.copyto(target, total)


def apply_gate(vec: np.ndarray, name: str, qubits: Sequence[int],
               n: int) -> np.ndarray:
    try:
        u = GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None
    return apply_unitary(vec, u, qubits, n)


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
    out = np.take_along_axis(v, src.reshape(src.shape + tail), axis)
    out *= sign
    return out


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
                       ancilla_bits: dict[int, str], n: int,
                       rows: np.ndarray | None = None) -> np.ndarray:
    """Embed ``data`` on ``data_qubits`` into an n-qubit register whose
    remaining qubits start in the given computational/plus basis states.

    ``ancilla_bits`` maps qubit index to "0", "1", or "+". A trailing
    column axis of ``data`` is kept: each column is embedded. ``rows``,
    if given, lists the register rows to return, in their order.

    Each row is the product of its ancilla amplitudes, in qubit order,
    times the data row that its data bits index. A "0" or "1" ancilla
    gives 1 where the row's bit matches it and 0 elsewhere, and each of
    the p "+" ancillas 1/sqrt(2), so the weight is 0 or (1/sqrt(2))^p,
    raised by the same sequential products as the Kronecker product of
    the ancillas; both are read from the rows' bits, and one gather and
    one product build the register.
    """
    if sorted(list(data_qubits) + list(ancilla_bits)) != list(range(n)):
        raise ValueError("data and ancilla qubits must partition the register")
    scale = 1.0
    for spec in ancilla_bits.values():
        if spec not in ("0", "1", "+"):
            raise ValueError(f"bad ancilla spec {spec!r}")
        if spec == "+":
            scale *= 1 / math.sqrt(2)
    if rows is None:
        rows = np.arange(1 << n)
    index = np.zeros(len(rows), dtype=np.intp)
    for j, q in enumerate(data_qubits):
        index |= (rows >> (n - 1 - q) & 1) << (len(data_qubits) - 1 - j)
    fixed = sum(1 << (n - 1 - q) for q, s in ancilla_bits.items() if s != "+")
    ones = sum(1 << (n - 1 - q) for q, s in ancilla_bits.items() if s == "1")
    weight = np.where(rows & fixed == ones, scale, 0).astype(np.complex128)
    out = data.take(index, axis=0).astype(np.result_type(data, weight),
                                         copy=False)
    out *= weight.reshape((-1,) + (1,) * (data.ndim - 1))
    return out
