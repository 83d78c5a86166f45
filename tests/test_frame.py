"""The one Pauli-string application against dense Pauli products."""

from functools import reduce

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan.circuits import GATES, apply_pauli


def _dense(x, z, n):
    """X^x Z^z as a kron of one-qubit GATES, qubit 0 the leftmost."""
    ops = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        op = GATES["I"]
        if x & bit:
            op = op @ GATES["X"]
        if z & bit:
            op = op @ GATES["Z"]
        ops.append(op)
    return reduce(np.kron, ops)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_apply_pauli_matches_dense_product(n, batch, cols, seed):
    """``batch`` 0 means scalar masks, ``cols`` 0 a vector without a
    trailing column axis."""
    rng = np.random.default_rng(seed)
    shape = (1 << n,) + ((cols,) if cols else ())
    masks = rng.integers(0, 1 << n, size=(2, max(batch, 1)))
    if batch:
        v = rng.normal(size=(batch,) + shape) \
            + 1j * rng.normal(size=(batch,) + shape)
        got = apply_pauli(v, masks[0], masks[1])
        want = np.stack([_dense(x, z, n) @ v[b]
                         for b, (x, z) in enumerate(zip(*masks))])
    else:
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x, z = int(masks[0, 0]), int(masks[1, 0])
        got = apply_pauli(v, x, z)
        want = _dense(x, z, n) @ v
    assert got.shape == want.shape
    assert np.allclose(got, want, atol=1e-12)


def test_frame_apply_is_z_then_x_per_qubit():
    # X on the first of two qubits, Z on both: masks 0b10 and 0b11
    v = np.arange(4, dtype=np.complex128)
    want = np.kron(GATES["X"] @ GATES["Z"], GATES["Z"]) @ v
    assert np.allclose(apply_pauli(v, 0b10, 0b11), want)
