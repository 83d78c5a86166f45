"""Classical fast path vs the dense simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan.circuits import (MAX_TABLE_QUBITS, Circuit, Gate,
                                  basis_state, enumerate_branches,
                                  run_reversible_table)
from latticeplan.circuits.reversible import _classical_ops
from latticeplan.exceptions import CapacityError


def _classical(num_qubits, *ops):
    return Circuit(num_qubits=num_qubits, operations=tuple(ops),
                   initial_states=("?",) * num_qubits)


def _ref_table(circuit):
    """The int64-column simulator the bit-sliced one replaced: one int64
    per basis input per wire."""
    n = circuit.num_qubits
    idx = np.arange(1 << n, dtype=np.int64)
    cols = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    for op in _classical_ops(circuit):
        if op[0] == "X":
            cols[op[1]] = cols[op[1]] ^ 1
        elif op[0] == "CX":
            cols[op[2]] = cols[op[2]] ^ cols[op[1]]
        else:
            cols[op[3]] = cols[op[3]] ^ (cols[op[1]] & cols[op[2]])
    out = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        out |= cols[q] << (n - 1 - q)
    return out


@st.composite
def reversible_circuits(draw):
    """1-10 wires, so tables of one partly filled word up to 16 words, and
    wires holding index bits on both sides of bit 6; gates X, CX, CCX and
    H.CCZ.H."""
    n = draw(st.integers(1, 10))
    kinds = ["X"] + (["CX"] if n >= 2 else []) + \
        (["CCX", "CCZ"] if n >= 3 else [])
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        arity = {"X": 1, "CX": 2, "CCX": 3, "CCZ": 3}[kind]
        qs = tuple(draw(st.permutations(range(n)))[:arity])
        if kind == "CCZ":
            ops += [Gate("H", qs[-1:]), Gate("CCZ", qs), Gate("H", qs[-1:])]
        else:
            ops.append(Gate(kind, qs))
    return _classical(n, *ops)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(reversible_circuits())
def test_matches_int64_reference(circuit):
    table = run_reversible_table(circuit)
    assert table.dtype == np.int64
    assert np.array_equal(table, _ref_table(circuit))


def test_cx_table():
    c = _classical(2, Gate("CX", (0, 1)))
    assert run_reversible_table(c).tolist() == [0b00, 0b01, 0b11, 0b10]


def test_toffoli_via_h_conjugated_ccz():
    c = _classical(3, Gate("H", (2,)), Gate("CCZ", (0, 1, 2)),
                   Gate("H", (2,)))
    table = run_reversible_table(c)
    for i in range(8):
        want = i ^ 1 if (i >> 2) & 1 and (i >> 1) & 1 else i
        assert table[i] == want


def test_ccx_direct():
    c = _classical(3, Gate("CCX", (0, 1, 2)))
    table = run_reversible_table(c)
    assert table[0b110] == 0b111
    assert table[0b100] == 0b100


def test_table_is_permutation():
    c = _classical(4, Gate("CX", (0, 2)), Gate("CCX", (1, 2, 3)),
                   Gate("X", (0,)))
    table = run_reversible_table(c)
    assert sorted(table.tolist()) == list(range(16))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_agrees_with_statevector(seed):
    rng = np.random.default_rng(seed)
    n = 6
    ops = []
    for _ in range(25):
        kind = rng.integers(3)
        qs = rng.choice(n, size=kind + 1, replace=False)
        ops.append(Gate(("X", "CX", "CCX")[kind], tuple(int(q) for q in qs)))
    c = _classical(n, *ops)
    table = run_reversible_table(c)
    for i in map(int, rng.integers(1 << n, size=8)):
        bits = format(i, f"0{n}b")
        branches = enumerate_branches(c, basis_state(bits))
        assert len(branches) == 1
        assert np.isclose(abs(branches[0].amplitudes[table[i]]), 1.0)


def test_non_classical_rejected():
    with pytest.raises(ValueError):
        run_reversible_table(_classical(1, Gate("H", (0,))))
    with pytest.raises(ValueError):
        run_reversible_table(_classical(1, Gate("S", (0,))))
    # CCZ with no H-flagged leg cannot be interpreted classically
    with pytest.raises(ValueError):
        run_reversible_table(_classical(3, Gate("CCZ", (0, 1, 2))))


def test_unbalanced_h_rejected():
    with pytest.raises(ValueError):
        run_reversible_table(_classical(3, Gate("H", (2,)),
                                        Gate("CCZ", (0, 1, 2))))


def test_table_width_cap():
    # raised before any of the 2^23 rows is allocated
    with pytest.raises(CapacityError):
        run_reversible_table(Circuit(MAX_TABLE_QUBITS + 1, ()))
