"""Statevector primitive checks against bit-level oracles.

Convention under test: qubit 0 is the most significant bit of the basis
index.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan.circuits import (GATES, MAX_QUBITS, Circuit, Measure,
                                  apply_gate, apply_unitary, basis_state,
                                  check_channel, enumerate_branches,
                                  kron_with_ancillas, plus_state,
                                  random_state)
from latticeplan.circuits import gates
from latticeplan.circuits.gates import (GATE_ARITY, SIGNED_AFFINE,
                                        _write_row, apply_in_place)
from latticeplan.exceptions import CapacityError


@pytest.mark.parametrize("name", sorted(GATES))
def test_gates_are_unitary(name):
    u = GATES[name]
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]))


def _is_signed_affine(u):
    """Whether every row of ``u`` holds one real +-1 and the columns they
    sit in are an affine map of the row index over GF(2)."""
    if not ((np.count_nonzero(u, axis=1) == 1).all()
            and np.isin(u[u != 0], (1, -1)).all()):
        return False
    src = np.argmax(u != 0, axis=1)
    return all(src[a ^ b] ^ src[0] == src[a] ^ src[b]
               for a in range(len(u)) for b in range(len(u)))


@pytest.mark.parametrize("name", sorted(GATES))
def test_signed_affine_table_matches_the_matrices(name):
    """The walk folds exactly the signed affine gates, each from its
    table entry; every one of them is its own inverse."""
    u = GATES[name]
    assert (name in SIGNED_AFFINE) == _is_signed_affine(u)
    if name not in SIGNED_AFFINE:
        return
    images, shift, monomials = SIGNED_AFFINE[name]
    k = len(images)
    want = np.zeros_like(u)
    for j in range(1 << k):
        col = shift
        for l in range(k):
            if j >> (k - 1 - l) & 1:
                col ^= images[l]
        want[j, col] = (-1) ** sum(j & mono == mono for mono in monomials)
    assert np.array_equal(want, u)
    assert np.array_equal(u @ u, np.eye(1 << k))


def _bit(i, q, n):
    return (i >> (n - 1 - q)) & 1


def _flip(i, q, n):
    return i ^ (1 << (n - 1 - q))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("i", range(8))
def test_x_flips_each_qubit(n, i):
    if i >= 1 << n:
        pytest.skip("index out of range")
    for q in range(n):
        out = apply_gate(basis_state(format(i, f"0{n}b")), "X", (q,), n)
        assert out[_flip(i, q, n)] == 1


@pytest.mark.parametrize("i", range(8))
def test_cx_oracle(i):
    n = 3
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            out = apply_gate(basis_state(format(i, f"0{n}b")), "CX",
                             (c, t), n)
            want = _flip(i, t, n) if _bit(i, c, n) else i
            assert out[want] == 1


@pytest.mark.parametrize("i", range(8))
def test_ccx_oracle(i):
    n = 3
    out = apply_gate(basis_state(format(i, f"0{n}b")), "CCX", (0, 1, 2), n)
    want = _flip(i, 2, n) if _bit(i, 0, n) and _bit(i, 1, n) else i
    assert out[want] == 1


@pytest.mark.parametrize("i", range(4))
def test_cz_sign_oracle(i):
    out = apply_gate(basis_state(format(i, "02b")), "CZ", (0, 1), 2)
    sign = -1 if i == 3 else 1
    assert out[i] == sign


@pytest.mark.parametrize("i", range(8))
def test_ccz_sign_oracle(i):
    out = apply_gate(basis_state(format(i, "03b")), "CCZ", (0, 1, 2), 3)
    sign = -1 if i == 7 else 1
    assert out[i] == sign


@pytest.mark.parametrize("i", range(4))
def test_swap_oracle(i):
    out = apply_gate(basis_state(format(i, "02b")), "SWAP", (0, 1), 2)
    want = (_bit(i, 1, 2) << 1) | _bit(i, 0, 2)
    assert out[want] == 1


@pytest.mark.parametrize("name,phase", [("Z", -1), ("S", 1j),
                                        ("T", np.exp(1j * np.pi / 4))])
def test_diagonal_phases(name, phase):
    assert apply_gate(basis_state("0"), name, (0,), 1)[0] == 1
    assert np.isclose(apply_gate(basis_state("1"), name, (0,), 1)[1], phase)


def test_h_creates_plus():
    out = apply_gate(basis_state("0"), "H", (0,), 1)
    assert np.allclose(out, plus_state(1))


def test_gate_order_matters_on_msb_convention():
    # CX with control on qubit 0 (MSB): |10> -> |11>, i.e. index 2 -> 3
    out = apply_gate(basis_state("10"), "CX", (0, 1), 2)
    assert out[3] == 1
    out = apply_gate(basis_state("01"), "CX", (1, 0), 2)
    assert out[3] == 1


def test_apply_unitary_matches_full_kron():
    rng = np.random.default_rng(3)
    n = 4
    vec = random_state(n, rng)
    # H on qubit 2 of 4, MSB-first: I (x) I (x) H (x) I
    h = GATES["H"]
    full = np.kron(np.kron(np.eye(4), h), np.eye(2))
    got = apply_unitary(vec, h, (2,), n)
    assert np.allclose(got, full @ vec)


def test_apply_unitary_two_qubit_adjacent():
    rng = np.random.default_rng(4)
    vec = random_state(3, rng)
    cz = GATES["CZ"]
    full = np.kron(cz, np.eye(2))
    assert np.allclose(apply_unitary(vec, cz, (0, 1), 3), full @ vec)


def _dense(u, qubits, n):
    """The 2^n x 2^n matrix of ``u`` on ``qubits``: u (x) I on the gate
    qubits followed by the others, conjugated by the qubit permutation."""
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    dim = 1 << n
    perm = np.eye(dim).reshape((2,) * n + (dim,)).transpose(order + [n])
    perm = perm.reshape(dim, dim)
    return perm.T @ np.kron(u, np.eye(dim >> len(qubits))) @ perm


def _random_unitary(k, rng):
    z = rng.normal(size=(1 << k,) * 2) + 1j * rng.normal(size=(1 << k,) * 2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _walsh(k, rng):
    """A k-qubit Walsh-Hadamard matrix with random row signs: every row
    dense and of one real magnitude."""
    u = np.ones((1, 1), dtype=np.complex128)
    for _ in range(k):
        u = np.kron(u, GATES["H"])
    return u * rng.choice((-1, 1), size=(1 << k, 1))


@st.composite
def _gate_cases(draw):
    n = draw(st.integers(1, 6))
    name = draw(st.sampled_from(
        [g for g, a in sorted(GATE_ARITY.items()) if a <= n]
        + ["dense", "walsh"]))
    k = draw(st.integers(1, min(3, n))) if name in ("dense", "walsh") \
        else GATE_ARITY[name]
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    return n, name, qubits, draw(st.integers(1, 3)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(_gate_cases(), st.integers(0, 2 ** 32 - 1))
def test_apply_unitary_matches_dense_kron(case, seed):
    n, name, qubits, ndim, strided = case
    rng = np.random.default_rng(seed)
    made = {"dense": _random_unitary, "walsh": _walsh}
    u = made[name](len(qubits), rng) if name in made else GATES[name]
    shape = (1 << n, 5, 2)[:ndim]
    vec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if ndim > 1:
        # three of five columns; boolean selection, as the walk's
        # block[:, where], makes a non-contiguous copy
        where = np.array([True, False, True, False, True])
        vec = vec[:, where]
        if not strided:
            vec = np.ascontiguousarray(vec)
    got = apply_unitary(vec, u, qubits, n)
    want = (_dense(u, qubits, n) @ vec.reshape(1 << n, -1)).reshape(
        vec.shape)
    assert got.shape == vec.shape and got.flags.c_contiguous
    if set(np.unique(u)) <= {-1, 0, 1}:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, atol=1e-12)
    for c in range(vec[0].size):  # each column alone rounds the same
        column = vec.reshape(1 << n, -1)[:, c]
        assert np.array_equal(apply_unitary(column, u, qubits, n),
                              got.reshape(1 << n, -1)[:, c])

    # The in-place kernel on a (B, 2^n, C) batch, as the walk holds its
    # block, and on a gathered sub-batch scattered back, as the walk runs
    # a conditional gate: every register and column rounds as
    # apply_unitary rounds it alone.
    shape = (4, 1 << n, 3)
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    whole = batch.copy()
    apply_in_place(whole, u, qubits, n)
    some = batch.copy()
    chosen = np.array([0, 3])
    part = some[chosen]
    apply_in_place(part, u, qubits, n)
    some[chosen] = part
    for b in range(shape[0]):
        if set(np.unique(u)) <= {-1, 0, 1}:
            assert np.array_equal(whole[b], _dense(u, qubits, n) @ batch[b])
        for c in range(shape[2]):
            want = apply_unitary(batch[b, :, c], u, qubits, n)
            assert np.array_equal(whole[b, :, c], want)
            assert np.array_equal(some[b, :, c],
                                  want if b in chosen else batch[b, :, c])


def _is_own_basis_row(u, j):
    return np.flatnonzero(u[j]).tolist() == [j] and u[j, j] == 1


@pytest.mark.parametrize("name", sorted(GATES))
def test_apply_in_place_writes_each_changed_row_once(name, monkeypatch):
    """One `_write_row` per row of u that is not its own unit basis
    vector, on a whole block and on a gathered sub-batch."""
    u = GATES[name]
    k = GATE_ARITY[name]
    want = sum(not _is_own_basis_row(u, j) for j in range(len(u)))
    calls = []

    def count(target, terms):
        calls.append(len(terms))
        _write_row(target, terms)

    monkeypatch.setattr(gates, "_write_row", count)
    n = k + 2
    block = np.ones((4, 1 << n, 3), dtype=np.complex128)
    for qubits in itertools.permutations(range(n), k):
        for part in (block, block[np.array([0, 2])]):
            calls.clear()
            apply_in_place(part, u, qubits, n)
            assert len(calls) == want, (name, qubits)


@pytest.mark.parametrize("name, saved", [
    ("X", 1 / 2), ("CX", 1 / 4), ("SWAP", 1 / 4), ("CCX", 1 / 8),
    ("Z", 0), ("CZ", 0), ("CCZ", 0)])
def test_apply_in_place_peak_memory(name, saved):
    """At n = 14, a gate with a 2-cycle saves one sub-block (the fraction
    ``saved`` of the block) and a real diagonal gate saves none, within a
    slack of 16 KiB, a sixteenth of the 256 KiB block."""
    n = 14
    block = np.zeros((1, 1 << n), dtype=np.complex128)
    tracemalloc.start()
    try:
        apply_in_place(block, GATES[name], tuple(range(GATE_ARITY[name])), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= saved * block.nbytes + (16 << 10), peak / block.nbytes


def test_apply_in_place_refuses_rows_that_need_a_copy():
    # columns every other one of four along one axis do not merge with
    # the next axis without a copy, and the gate would be written to it
    block = np.zeros((1, 2, 4, 2), dtype=np.complex128)[:, :, ::2]
    with pytest.raises(ValueError, match="without a copy"):
        apply_in_place(block, GATES["X"], (0,), 1)


@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, -1), (-1, -1, 1)])
def test_write_row_reads_target_in_any_term(signs):
    rng = np.random.default_rng(7)
    a, b, t = (rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
               for _ in range(3))
    for at in range(3):
        blocks = [a, b]
        blocks.insert(at, t)
        want = sum(s * blk for s, blk in zip(signs, blocks))
        target = t.copy()
        blocks[at] = target
        _write_row(target, list(zip(signs, blocks)))
        assert np.allclose(target, want, atol=1e-15)


def test_apply_gate_validation():
    vec = basis_state("00")
    with pytest.raises(ValueError):
        apply_gate(vec, "NOPE", (0,), 2)
    with pytest.raises(ValueError):
        apply_gate(vec, "CX", (0, 0), 2)
    with pytest.raises(ValueError):
        apply_gate(vec, "X", (5,), 2)


def test_basis_state_indexing():
    assert basis_state("110")[6] == 1
    assert basis_state("110").sum() == 1
    with pytest.raises(ValueError):
        basis_state("10a")


def test_plus_state_uniform():
    v = plus_state(3)
    assert np.allclose(v, np.full(8, 1 / np.sqrt(8)))


def test_random_state_normalized_and_seeded():
    a = random_state(5, np.random.default_rng(9))
    b = random_state(5, np.random.default_rng(9))
    assert np.isclose(np.linalg.norm(a), 1.0)
    assert np.array_equal(a, b)


def test_statevector_capacity_guardrail():
    # both walk entries refuse a register over MAX_QUBITS before its
    # 2^17-amplitude (2 MiB) vector is allocated
    n = MAX_QUBITS + 1
    c = Circuit(n, tuple(Measure(q, f"m{q}") for q in range(1, n)),
                ("?",) + ("0",) * (n - 1))
    tracemalloc.start()
    try:
        for run in (lambda: enumerate_branches(c, basis_state("0")),
                    lambda: check_channel(c, np.eye(2))):
            with pytest.raises(CapacityError,
                               match=f"{n} qubits exceeds the cap of "
                                     f"{MAX_QUBITS}"):
                run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kron_with_ancillas_places_data():
    # data qubit 1 holds |1>, ancillas 0 -> "0", 2 -> "+"
    out = kron_with_ancillas(basis_state("1"), (1,), {0: "0", 2: "+"}, 3)
    expect = np.zeros(8, dtype=complex)
    expect[0b010] = 1 / np.sqrt(2)
    expect[0b011] = 1 / np.sqrt(2)
    assert np.allclose(out, expect)


def test_kron_with_ancillas_two_data_qubits_split():
    # data on (0, 2) around an ancilla |1> on qubit 1
    data = (basis_state("00") + basis_state("11")) / np.sqrt(2)
    out = kron_with_ancillas(data, (0, 2), {1: "1"}, 3)
    expect = np.zeros(8, dtype=complex)
    expect[0b010] = 1 / np.sqrt(2)
    expect[0b111] = 1 / np.sqrt(2)
    assert np.allclose(out, expect)


def test_kron_with_ancillas_validation():
    with pytest.raises(ValueError):
        kron_with_ancillas(basis_state("0"), (0,), {0: "0"}, 2)
    with pytest.raises(ValueError):
        kron_with_ancillas(basis_state("0"), (0,), {1: "w"}, 2)


def _kron_reference(data, data_qubits, ancilla_bits, n, rows=None):
    """The embedding that the bitwise one replaced: one ``np.kron`` per
    ancilla for the weights and ``np.add.outer`` for the data index, then
    the requested rows of both."""
    weight = np.ones(1, dtype=np.complex128)
    index = np.zeros(1, dtype=np.intp)
    for q in range(n):
        if q in ancilla_bits:
            spec = ancilla_bits[q]
            if spec == "+":
                single = np.array([1, 1], dtype=np.complex128) / math.sqrt(2)
            else:
                single = basis_state(spec)
            weight = np.kron(weight, single)
            index = np.repeat(index, 2)
        else:
            bit = 1 << (len(data_qubits) - 1 - list(data_qubits).index(q))
            weight = np.repeat(weight, 2)
            index = np.add.outer(index, (0, bit)).ravel()
    if rows is not None:
        index, weight = index[rows], weight[rows]
    out = data[index].astype(np.result_type(data, weight), copy=False)
    out *= weight.reshape((-1,) + (1,) * (data.ndim - 1))
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kron_with_ancillas_matches_kron_reference(draw):
    """Byte for byte, signed zeros included: the data holds -0.0 and
    negative entries, so a zero weight's sign shows in the product."""
    n = draw.draw(st.integers(0, 6))
    specs = draw.draw(st.lists(st.sampled_from("01+?"), min_size=n,
                               max_size=n))
    data_qubits = draw.draw(st.permutations(
        [q for q, s in enumerate(specs) if s == "?"]))
    ancillas = {q: s for q, s in enumerate(specs) if s != "?"}
    shape = (1 << len(data_qubits), draw.draw(st.integers(1, 3)), 2)
    size = math.prod(shape)
    picks = draw.draw(st.lists(st.integers(0, 4), min_size=size,
                               max_size=size))
    parts = np.array([0.0, -0.0, 0.5, -0.75, 1.0])[picks].reshape(shape)
    data = parts.view(np.complex128)[..., 0]
    rows = None
    if draw.draw(st.booleans()):
        rows = np.array(draw.draw(st.permutations(range(1 << n))),
                        dtype=np.intp)
    got = kron_with_ancillas(data, data_qubits, ancillas, n, rows)
    want = _kron_reference(data, data_qubits, ancillas, n, rows)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
