"""Classical fast path vs the dense simulator."""

import numpy as np
import pytest

from latticeplan.circuits import (MAX_TABLE_QUBITS, Circuit, Gate,
                                  basis_state, enumerate_branches,
                                  run_reversible, run_reversible_table)
from latticeplan.exceptions import CapacityError


def _classical(num_qubits, *ops):
    return Circuit(num_qubits=num_qubits, operations=tuple(ops),
                   initial_states=("?",) * num_qubits)


def test_cx_table():
    c = _classical(2, Gate("CX", (0, 1)))
    assert run_reversible(c, "10") == "11"
    assert run_reversible(c, "11") == "10"
    assert run_reversible(c, "01") == "01"


def test_toffoli_via_h_conjugated_ccz():
    c = _classical(3, Gate("H", (2,)), Gate("CCZ", (0, 1, 2)),
                   Gate("H", (2,)))
    table = run_reversible_table(c)
    for i in range(8):
        want = i ^ 1 if (i >> 2) & 1 and (i >> 1) & 1 else i
        assert table[i] == want


def test_ccx_direct():
    c = _classical(3, Gate("CCX", (0, 1, 2)))
    assert run_reversible(c, "110") == "111"
    assert run_reversible(c, "100") == "100"


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
        out = format(table[i], f"0{n}b")
        assert np.isclose(abs(branches[0].final_state.amplitude(out)), 1.0)


def test_non_classical_rejected():
    with pytest.raises(ValueError):
        run_reversible(_classical(1, Gate("H", (0,))), "0")
    with pytest.raises(ValueError):
        run_reversible(_classical(1, Gate("S", (0,))), "0")
    # CCZ with no H-flagged leg cannot be interpreted classically
    with pytest.raises(ValueError):
        run_reversible(_classical(3, Gate("CCZ", (0, 1, 2))), "000")


def test_unbalanced_h_rejected():
    with pytest.raises(ValueError):
        run_reversible(_classical(3, Gate("H", (2,)),
                                  Gate("CCZ", (0, 1, 2))), "000")


def test_bad_input_length():
    with pytest.raises(ValueError):
        run_reversible(_classical(2, Gate("X", (0,))), "101")


def test_table_width_cap():
    # raised before any of the 2^23 rows is allocated
    with pytest.raises(CapacityError):
        run_reversible_table(Circuit(MAX_TABLE_QUBITS + 1, ()))
