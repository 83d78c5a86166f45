"""Text rows built as byte matrices, for the bulk writers.

`byte_rows` lays out one row of text per array index from constant byte
pieces and columns: an int64 column becomes its decimal digits, four per
divide, an ASCII string column its characters, and a 2-D uint8 array is
taken as bytes already. The result is an (n, w) uint8 matrix in which
every field has the width of its widest value and shorter values are
padded with 0 bytes; `squeeze` drops the padding, so each row comes out
at its own length with no Python work per row. Constant pieces must not
hold a 0 byte. Writers format `CHUNK_ROWS` rows at a time (`chunks`),
so their temporaries stay near a megabyte whatever the size of the
output.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

Part = Union[bytes, np.ndarray]

CHUNK_ROWS = 8192


def chunks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most CHUNK_ROWS rows covering 0..n-1."""
    for lo in range(0, n, CHUNK_ROWS):
        yield slice(lo, lo + CHUNK_ROWS)


def _digit_quads() -> np.ndarray:
    """"0000" to "9999" as 4-byte words: word v holds the digits of v in
    the order they sit in memory."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        quads[..., k] = digit.reshape((10,) + (1,) * (3 - k))
    return quads.reshape(10000, 4).view(np.uint32).ravel()


_QUADS = _digit_quads()


def _digits(col: np.ndarray) -> np.ndarray:
    """Decimal digits of a non-negative integer column as ASCII bytes,
    right-aligned in a field as wide as its largest value."""
    col = np.asarray(col, dtype=np.int64)
    if not len(col):
        return np.empty((0, 1), dtype=np.uint8)
    low = col.min()
    if low < 0:
        raise ValueError(f"cannot format negative value {low}")
    width = len(str(col.max()))
    groups = -(-width // 4)
    # four digits per divide, a scalar divisor being fast in numpy
    quads = np.empty((len(col), groups), dtype=np.uint32)
    q = col
    for k in range(groups - 1, -1, -1):
        q, r = np.divmod(q, 10000)
        quads[:, k] = _QUADS[r]
    out = quads.view(np.uint8)[:, 4 * groups - width:]
    if len(str(low)) < width:
        # positions left of a value's leading digit are padding; 0 is "0"
        pad = col[:, None] < 10 ** np.arange(width - 1, 0, -1,
                                             dtype=np.int64)
        out[:, :-1][pad] = 0
    return out


def _field(part: Part) -> np.ndarray:
    """One part as a (1 or n, width) uint8 block."""
    if isinstance(part, bytes):
        return np.frombuffer(part, dtype=np.uint8)[None, :]
    if part.ndim == 2 and part.dtype == np.uint8:
        return part
    if part.dtype.kind == "U":
        codes = np.ascontiguousarray(part).view(np.uint32).reshape(
            len(part), part.dtype.itemsize // 4)
        if codes.size and codes.max() > 127:
            raise ValueError("cannot format a non-ASCII string")
        return codes.astype(np.uint8)
    return _digits(part)


def byte_rows(parts: Sequence[Part]) -> np.ndarray:
    """The (n, w) uint8 matrix of the rows that `parts` lay out, left to
    right; n is the length of the columns, at least one of which is
    required."""
    merged: list[Part] = []
    for p in parts:
        if isinstance(p, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += p
        else:
            merged.append(p)
    n = next(len(p) for p in merged if not isinstance(p, bytes))
    fields = [_field(p) for p in merged]
    out = np.empty((n, sum(f.shape[1] for f in fields)), dtype=np.uint8)
    x = 0
    for f in fields:
        out[:, x:x + f.shape[1]] = f
        x += f.shape[1]
    return out


def squeeze(rows: np.ndarray) -> bytes:
    """The rows of a `byte_rows` matrix, padding dropped, one after
    another."""
    return rows[rows != 0].tobytes()
