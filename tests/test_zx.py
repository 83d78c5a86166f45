"""Diagram evaluation against matrix targets."""

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan import constructions, zx
from latticeplan.exceptions import CapacityError
from latticeplan.circuits import (GATES, Circuit, FrameUpdate, Gate,
                                  enumerate_branches, plus_state)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _wire(kind="z", phase=0):
    g = zx.ZxGraph()
    a = g.add_node("b")
    b = g.add_node("b")
    s = g.add_node(kind, phase)
    g.add_edge(a, s)
    g.add_edge(s, b)
    g.inputs = [a]
    g.outputs = [b]
    g.validate()
    return g


def test_degree2_spider_is_identity():
    for kind in ("z", "x"):
        m = zx.evaluate(_wire(kind))
        assert zx.equiv_mod_pauli_scalar(m, np.eye(2))


def test_phase_pi_spider_is_pauli():
    z = zx.evaluate(_wire("z", 4))
    assert zx.equiv_mod_pauli_scalar(z, np.diag([1, -1]))
    x = zx.evaluate(_wire("x", 4))
    assert zx.equiv_mod_pauli_scalar(x, np.array([[0, 1], [1, 0]]))


def test_x_spider_is_h_conjugated_z():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for phase in range(8):
        zm = zx.evaluate(_wire("z", phase))
        xm = zx.evaluate(_wire("x", phase))
        assert zx.equiv_mod_pauli_scalar(xm, h @ zm @ h)


def test_degree1_z_spider_is_plus_state():
    g = zx.ZxGraph()
    out = g.add_node("b")
    s = g.add_node("z")
    g.add_edge(s, out)
    g.outputs = [out]
    m = zx.evaluate(g)
    assert zx.equiv_mod_pauli_scalar(m, np.array([[1.0], [1.0]]))


def test_z_h_z_is_cz():
    g = zx.ZxGraph()
    ins = [g.add_node("b") for _ in range(2)]
    outs = [g.add_node("b") for _ in range(2)]
    s = [g.add_node("z") for _ in range(2)]
    h = g.add_node("h")
    for i in range(2):
        g.add_edge(ins[i], s[i])
        g.add_edge(s[i], outs[i])
    g.add_edge(s[0], h)
    g.add_edge(h, s[1])
    g.inputs = ins
    g.outputs = outs
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(g), zx.TARGETS["CZ"])


def test_detached_component_changes_only_scalar():
    g = _wire("z")
    lone = g.add_node("z")
    iso = g.add_node("z")
    g.add_edge(lone, iso)
    m = zx.evaluate(g)
    assert zx.equiv_mod_pauli_scalar(m, np.eye(2))


@pytest.mark.parametrize("name", ["H", "S", "T", "X", "Z", "CX", "CZ",
                                  "SWAP", "CCZ"])
def test_translated_gate_matches_matrix(name):
    from latticeplan.circuits.gates import GATES
    u = GATES[name]
    k = int(np.log2(u.shape[0]))
    c = Circuit(num_qubits=k,
                operations=(Gate(name, tuple(range(k))),),
                initial_states=("?",) * k)
    g = zx.zx_from_circuit(c, {})
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(g), u)


def test_choice_resolution_activates_or_removes():
    g = zx.delayed_choice_cz_graph()
    ch = g.choices()
    assert len(ch) == 2
    both_x = g.resolve_choices({c: "x" for c in ch})
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(both_x), zx.TARGETS["CZ"])
    both_z = g.resolve_choices({c: "z" for c in ch})
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(both_z), zx.TARGETS["I2"])


def test_resolve_twice_rejected():
    g = zx.delayed_choice_cz_graph()
    ch = g.choices()[0]
    once = g.resolve_choice(ch, "x")
    with pytest.raises(ValueError):
        once.resolve_choice(ch, "z")


def test_evaluate_rejects_unresolved_choices():
    g = zx.delayed_choice_cz_graph()
    with pytest.raises(ValueError):
        zx.evaluate(g)


def _chain(spiders):
    """A wire through ``spiders`` z spiders: spiders + 2 nodes."""
    g = zx.ZxGraph()
    ends = [g.add_node("b")] + [g.add_node("z") for _ in range(spiders)]
    ends.append(g.add_node("b"))
    for a, b in zip(ends, ends[1:]):
        g.add_edge(a, b)
    g.inputs, g.outputs = [ends[0]], [ends[-1]]
    return g


def test_evaluate_node_budget():
    m = zx.evaluate(_chain(78))  # 80 nodes, at the cap
    assert zx.equiv_mod_pauli_scalar(m, np.eye(2))
    with pytest.raises(ValueError, match="81 nodes exceeds the cap of 80"):
        zx.evaluate(_chain(79))


def test_equiv_mod_pauli_scalar_cases():
    eye = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert zx.equiv_mod_pauli_scalar(eye, eye)
    assert zx.equiv_mod_pauli_scalar(2j * eye, eye)
    assert zx.equiv_mod_pauli_scalar(x, eye)  # left Pauli
    assert zx.equiv_mod_pauli_scalar(eye @ x, eye)  # right Pauli
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert not zx.equiv_mod_pauli_scalar(h, eye)
    assert not zx.equiv_mod_pauli_scalar(np.zeros((2, 2)), eye)


def test_json_round_trip():
    g = zx.ring_resource_graph()
    other = zx.graph_from_json(zx.graph_to_json(g))
    assert other.nodes.keys() == g.nodes.keys()
    assert all(other.nodes[k] == g.nodes[k] for k in g.nodes)
    assert sorted(tuple(sorted(e)) for e in other.edges) == \
        sorted(tuple(sorted(e)) for e in g.edges)
    assert other.inputs == g.inputs
    assert other.outputs == g.outputs


def test_figure_graph_equals_translated_circuit():
    for apply_mode in (True, False):
        cons = constructions.build_delayed_choice_cz(apply_mode)
        target = zx.TARGETS["CZ"] if apply_mode else zx.TARGETS["I2"]
        for bits in itertools.product((0, 1), repeat=2):
            outcomes = dict(zip(("m1", "m2"), bits))
            g = zx.zx_from_circuit(cons.circuit, outcomes)
            m = zx.evaluate(g)
            assert zx.equiv_mod_pauli_scalar(m, target), (apply_mode, bits)


def test_ring_resource_graph_matches_statevector():
    m = zx.evaluate(zx.ring_resource_graph())
    ops = [Gate(g.name, tuple(q - 3 for q in g.qubits))
           for g in constructions.ring_resource_ops()]
    c = Circuit(num_qubits=9, operations=tuple(ops),
                initial_states=("+",) * 9)
    (branch,) = enumerate_branches(c)
    state = branch.final_state.amplitudes
    assert zx.equiv_mod_pauli_scalar(m, state.reshape(-1, 1))


def test_full_autoccz_translation_is_ccz():
    cons = constructions.build_autoccz()
    keys = ("m1", "m2", "m3", "u1", "u2", "u3", "u4", "u5", "u6")
    rng = np.random.default_rng(2)
    for _ in range(4):
        outcomes = {k: int(v) for k, v in zip(keys, rng.integers(2, size=9))}
        g = zx.zx_from_circuit(cons.circuit, outcomes)
        m = zx.evaluate(g)
        assert zx.equiv_mod_pauli_scalar(m, zx.TARGETS["CCZ"]), outcomes


def test_frameless_translation_only_pauli_off():
    cons = constructions.build_delayed_choice_cz(True)
    outcomes = {"m1": 1, "m2": 0}
    frameless = dataclasses.replace(cons.circuit, operations=tuple(
        op for op in cons.circuit.operations
        if not isinstance(op, FrameUpdate)))
    g = zx.zx_from_circuit(frameless, outcomes)
    m = zx.evaluate(g)
    assert zx.equiv_mod_pauli_scalar(m, zx.TARGETS["CZ"])


def test_fixture_file_passes():
    text = (FIXTURES / "delayed_choice_cz.json").read_text()
    results = zx.run_fixture(text)
    assert len(results) == 2
    assert all(ok for _, ok in results)


def test_fixture_reports_failure_for_wrong_target():
    text = (FIXTURES / "delayed_choice_cz.json").read_text()
    doc = json.loads(text)
    doc["cases"][0]["target"] = "I2"
    results = zx.run_fixture(json.dumps(doc))
    assert not results[0][1]
    assert results[1][1]


def test_graph_validation_rejects_malformed():
    g = zx.ZxGraph()
    h = g.add_node("h")
    b = g.add_node("b")
    g.add_edge(h, b)
    g.outputs = [b]
    with pytest.raises(ValueError):
        g.validate()  # h marker must have degree 2
    with pytest.raises(ValueError):
        g.add_edge(h, h)


def test_ccz_gadget_phases_sum_per_wire():
    g = zx.ZxGraph()
    outs = [g.add_node("b") for _ in range(3)]
    wires = [g.add_node("z") for _ in range(3)]
    for o, w in zip(outs, wires):
        g.add_edge(o, w)
    zx._attach_ccz_gadgets(g, wires)
    g.outputs = outs
    state = zx.evaluate(g)
    expect = (zx.TARGETS["CCZ"] @ plus_state(3)).reshape(-1, 1)
    assert zx.equiv_mod_pauli_scalar(state, expect)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2), st.integers(1, 2),
       st.lists(st.sampled_from("IXYZ"), min_size=4, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_equiv_mod_pauli_scalar_accepts_every_pauli_sandwich(
        n_out, n_in, paulis, seed):
    """c * P_out @ E @ P_in matches E for random E, Paulis (Y included)
    and nonzero c."""
    rng = np.random.default_rng(seed)
    shape = (1 << n_out, 1 << n_in)
    e = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    p_out = functools.reduce(np.kron, [GATES[p] for p in paulis[:n_out]])
    p_in = functools.reduce(np.kron, [GATES[p] for p in paulis[2:2 + n_in]])
    c = rng.uniform(0.1, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    assert zx.equiv_mod_pauli_scalar(c * p_out @ e @ p_in, e)


def test_evaluate_refuses_a_wide_contraction():
    # two 13-leg spiders joined by one edge: each fits the cap, but their
    # product has 24 legs, 2^24 values
    g = zx.ZxGraph()
    hubs = [g.add_node("z"), g.add_node("z")]
    g.add_edge(*hubs)
    for hub in hubs:
        for _ in range(12):
            out = g.add_node("b")
            g.add_edge(hub, out)
            g.outputs.append(out)
    with pytest.raises(CapacityError, match="24 legs exceeds the cap"):
        zx.evaluate(g)
