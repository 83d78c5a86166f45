"""Text-format parsing, printing, and error reporting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_branches import adaptive_circuits

from latticeplan.circuits import (CGate, Circuit, FrameUpdate, Gate, Measure,
                                  enumerate_branches, format_circuit,
                                  format_condition, parse_circuit,
                                  parse_condition, plus_state)

SAMPLE = """qubits 3
init 0 ?
init 1 +
CX 0 2
measure 1 m1 x
measure 2 m2 z flip_if m1
X 0 if m1 ^ m1&m2
frame z 0 if m1&m2
frame x 0
"""


def test_round_trip_is_stable():
    printed = format_circuit(parse_circuit(SAMPLE))
    assert printed == SAMPLE
    assert format_circuit(parse_circuit(printed)) == printed


def test_parsed_circuit_matches_hand_built():
    text = "qubits 2\ninit 0 +\ninit 1 +\nCZ 0 1\nmeasure 1 k z\n"
    parsed = parse_circuit(text)
    built = Circuit(2, (Gate("CZ", (0, 1)), Measure(1, "k")),
                    ("+", "+"))
    got = enumerate_branches(parsed, None)
    want = enumerate_branches(built, None)
    assert [b.outcomes for b in got] == [b.outcomes for b in want]
    for g, w in zip(got, want):
        assert g.probability == pytest.approx(w.probability)
        assert np.allclose(g.amplitudes, w.amplitudes)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nqubits 1\nH 0   # rotate\n\n"
    circuit = parse_circuit(text)
    assert [op.name for op in circuit.operations] == ["H"]


def test_measure_defaults_to_z_basis():
    circuit = parse_circuit("qubits 1\nmeasure 0 k\n")
    op = circuit.operations[0]
    assert op.basis == "z"


def test_init_defaults_to_zero():
    circuit = parse_circuit("qubits 2\ninit 1 +\nH 0\n")
    assert circuit.initial_states == ("0", "+")


@pytest.mark.parametrize("text,fragment", [
    ("H 0\n", "line 1"),                              # qubits not declared
    ("qubits 1\nqubits 2\n", "duplicate qubits"),
    ("qubits 1\nH 0\ninit 0 +\n", "init after operations"),
    ("qubits 1\nSPIN 0\n", "unknown directive"),
    ("qubits 2\nCX 0 1 unless k\n", "unexpected token"),
    ("qubits 1\nmeasure 0 k y\n", "unexpected token"),
    ("", "empty circuit"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_circuit(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_circuit("qubits 2\nH 0\nBAD 1\n")


def test_condition_spacing_is_canonicalized():
    loose = parse_circuit("qubits 2\nmeasure 1 a\nframe z 0 if  a\n")
    tight = parse_circuit("qubits 2\nmeasure 1 a\nframe z 0 if a\n")
    assert format_circuit(loose) == format_circuit(tight)


@st.composite
def keyed_circuits(draw):
    """Random adaptive circuits with their measurement keys renamed to
    drawn keys: runs of letters, digits and underscores, "0" and "1"
    excepted."""
    circuit = draw(adaptive_circuits())
    old = circuit.measurement_keys
    new = draw(st.lists(
        st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True).filter(
            lambda k: k not in ("0", "1")),
        min_size=len(old), max_size=len(old), unique=True))
    name = dict(zip(old, new))

    def rename(cond):
        return tuple(tuple(name[k] for k in term) for term in cond)
    ops = []
    for op in circuit.operations:
        if isinstance(op, Measure):
            op = dataclasses.replace(op, key=name[op.key],
                                     flip_basis_if=rename(op.flip_basis_if))
        elif isinstance(op, (CGate, FrameUpdate)):
            op = dataclasses.replace(op, condition=rename(op.condition))
        ops.append(op)
    return dataclasses.replace(circuit, operations=tuple(ops))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keyed_circuits())
def test_round_trip_property(circuit):
    assert parse_circuit(format_circuit(circuit)) == circuit


@pytest.mark.parametrize("key", ["0", "1", "a&b", "a^b", "", "m 1", "m-1",
                                 "\u00e9"])
def test_bad_measurement_key_rejected(key):
    # a key "1" used to print as "if 1" and read back as the constant
    with pytest.raises(ValueError, match="bad measurement key"):
        Measure(1, key)


@pytest.mark.parametrize("key", ["0", "1", "a&b", "m-1", "\u00e9"])
def test_bad_key_in_circuit_text_is_one_line(key):
    with pytest.raises(ValueError, match="bad measurement key") as exc:
        parse_circuit(f"qubits 2\nmeasure 1 {key} z\n")
    assert str(exc.value).startswith("line 2: ")
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("text", ["1&m0", "0 ^ m0", "m0&", "a&b&1", "m\u00e9"])
def test_bad_condition_key_rejected(text):
    with pytest.raises(ValueError, match="bad condition"):
        parse_condition(text)


def test_constant_term_round_trips():
    # "1" is how format_condition writes the empty (constant-1) term
    for cond in (((), ()), ((), ("m0",)), (("m0",), ())):
        assert parse_condition(format_condition(cond)) == cond
