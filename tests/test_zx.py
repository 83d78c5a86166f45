"""Diagram evaluation against matrix targets, and the constructions
against diagrams translated from their circuits."""

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
from latticeplan.circuits import (GATES, CGate, Circuit, FrameUpdate, Gate,
                                  Measure, enumerate_branches,
                                  evaluate_condition, plus_state)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ------------------------------------------------- diagrams and translator
#
# Hand-drawn diagrams and a circuit-to-diagram translator: the second,
# independent semantics the constructions are checked against here. No
# command runs them; `verify --zx` evaluates fixture files only.


def graph_to_json(graph: zx.ZxGraph) -> str:
    doc = {
        "nodes": [{"id": nid, "kind": node.kind, "phase": node.phase}
                  for nid, node in sorted(graph.nodes.items())],
        "edges": sorted(tuple(sorted(e)) for e in graph.edges),
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def delayed_choice_cz_graph() -> zx.ZxGraph:
    """Hand-drawn diagram of the delayed-choice CZ: each data wire carries
    a z spider hooked through an x spider to one branch pair half; the two
    halves share a Hadamard edge. The two stubs pick the bases."""
    g = zx.ZxGraph()
    in0 = g.add_node("b")
    in1 = g.add_node("b")
    out0 = g.add_node("b")
    out1 = g.add_node("b")
    z0 = g.add_node("z")
    z1 = g.add_node("z")
    x2 = g.add_node("x")
    x3 = g.add_node("x")
    s2 = g.add_node("z")
    s3 = g.add_node("z")
    h = g.add_node("h")
    ch2 = g.add_node("choice")
    ch3 = g.add_node("choice")
    g.add_edge(in0, z0)
    g.add_edge(z0, out0)
    g.add_edge(in1, z1)
    g.add_edge(z1, out1)
    g.add_edge(z0, x2)
    g.add_edge(z1, x3)
    g.add_edge(x2, s2)
    g.add_edge(x3, s3)
    g.add_edge(s2, h)
    g.add_edge(h, s3)
    g.add_edge(x2, ch2)
    g.add_edge(x3, ch3)
    g.inputs = [in0, in1]
    g.outputs = [out0, out1]
    g.validate()
    return g


def ring_resource_graph() -> zx.ZxGraph:
    """The nine-node ring resource as a state diagram: a cycle of spiders
    joined by Hadamard edges, with the three anchor nodes also carrying
    the phase-gadget encoding of a CCZ."""
    g = zx.ZxGraph()
    outs = [g.add_node("b") for _ in range(9)]
    ring = [g.add_node("z") for _ in range(9)]
    for i in range(9):
        g.add_edge(ring[i], outs[i])
        h = g.add_node("h")
        g.add_edge(ring[i], h)
        g.add_edge(h, ring[(i + 1) % 9])
    anchors = [ring[0], ring[3], ring[6]]
    _attach_ccz_gadgets(g, anchors)
    g.outputs = list(outs)
    g.validate()
    return g


def _attach_ccz_gadgets(g: zx.ZxGraph, wires: list[int]) -> None:
    """Phase-gadget CCZ across three z spiders: pi/4 on each wire, -pi/4
    on each pairwise parity, pi/4 on the triple parity."""
    a, b, c = wires
    for w in wires:
        g.nodes[w].phase = (g.nodes[w].phase + 1) % 8
    for group, phase in (((a, b), 7), ((a, c), 7), ((b, c), 7),
                         ((a, b, c), 1)):
        hub = g.add_node("x")
        tip = g.add_node("z", phase)
        g.add_edge(hub, tip)
        for w in group:
            g.add_edge(hub, w)


def zx_from_circuit(circuit: Circuit, outcomes: dict[str, int]) -> zx.ZxGraph:
    """Translate an adaptive circuit, with all measurement outcomes fixed,
    into a ZX diagram. With its frame updates the diagram denotes the
    construction's target exactly (mod scalar); a circuit stripped of them
    denotes it mod Pauli.
    """
    g = zx.ZxGraph()
    end: dict[int, int] = {}
    inits = circuit.initial_states or ("0",) * circuit.num_qubits
    for q, s in enumerate(inits):
        if s == "?":
            nid = g.add_node("b")
            g.inputs.append(nid)
        elif s == "+":
            nid = g.add_node("z")
        elif s == "0":
            nid = g.add_node("x")
        else:
            nid = g.add_node("x", 4)
        end[q] = nid

    def extend(q: int, kind: str, phase: int = 0) -> int:
        nid = g.add_node(kind, phase)
        g.add_edge(end[q], nid)
        end[q] = nid
        return nid

    def apply_gate_nodes(name: str, qs: tuple[int, ...]) -> None:
        if name == "H":
            extend(qs[0], "h")
        elif name == "X":
            extend(qs[0], "x", 4)
        elif name == "Z":
            extend(qs[0], "z", 4)
        elif name == "S":
            extend(qs[0], "z", 2)
        elif name == "T":
            extend(qs[0], "z", 1)
        elif name == "CX":
            c = extend(qs[0], "z")
            t = extend(qs[1], "x")
            g.add_edge(c, t)
        elif name == "CZ":
            a = extend(qs[0], "z")
            b = extend(qs[1], "z")
            h = g.add_node("h")
            g.add_edge(a, h)
            g.add_edge(h, b)
        elif name == "CCZ":
            spiders = [extend(q, "z") for q in qs]
            _attach_ccz_gadgets(g, spiders)
        elif name == "SWAP":
            end[qs[0]], end[qs[1]] = end[qs[1]], end[qs[0]]
        else:
            raise ValueError(f"gate {name} has no translation")

    for op in circuit.operations:
        if isinstance(op, Gate):
            apply_gate_nodes(op.name, op.qubits)
        elif isinstance(op, CGate):
            if evaluate_condition(op.condition, outcomes):
                apply_gate_nodes(op.name, op.qubits)
        elif isinstance(op, Measure):
            m = outcomes[op.key]
            basis = op.basis
            if evaluate_condition(op.flip_basis_if, outcomes):
                basis = "x" if basis == "z" else "z"
            # A z-basis plug is an x spider <m| (phase m*pi); an x-basis
            # plug is a z spider <+|/<-|.
            extend(op.qubit, "x" if basis == "z" else "z", 4 * m)
            del end[op.qubit]
        else:
            if evaluate_condition(op.condition, outcomes):
                extend(op.qubit, "x" if op.pauli == "X" else "z", 4)

    for q in sorted(end):
        nid = g.add_node("b")
        g.add_edge(end[q], nid)
        g.outputs.append(nid)
    g.validate()
    return g


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
    g = zx_from_circuit(c, {})
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(g), u)


def test_choice_resolution_activates_or_removes():
    g = delayed_choice_cz_graph()
    ch = g.choices()
    assert len(ch) == 2
    both_x = g.resolve_choices({c: "x" for c in ch})
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(both_x), zx.TARGETS["CZ"])
    both_z = g.resolve_choices({c: "z" for c in ch})
    assert zx.equiv_mod_pauli_scalar(zx.evaluate(both_z), zx.TARGETS["I2"])


def test_resolve_twice_rejected():
    g = delayed_choice_cz_graph()
    ch = g.choices()[0]
    once = g.resolve_choices({ch: "x"})
    with pytest.raises(ValueError):
        once.resolve_choices({ch: "z"})


def test_evaluate_rejects_unresolved_choices():
    g = delayed_choice_cz_graph()
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
    g = ring_resource_graph()
    other = zx.graph_from_json(json.loads(graph_to_json(g)))
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
            g = zx_from_circuit(cons.circuit, outcomes)
            m = zx.evaluate(g)
            assert zx.equiv_mod_pauli_scalar(m, target), (apply_mode, bits)


def test_ring_resource_graph_matches_statevector():
    m = zx.evaluate(ring_resource_graph())
    ops = [Gate(g.name, tuple(q - 3 for q in g.qubits))
           for g in constructions.ring_resource_ops()]
    c = Circuit(num_qubits=9, operations=tuple(ops),
                initial_states=("+",) * 9)
    (branch,) = enumerate_branches(c)
    state = branch.amplitudes
    assert zx.equiv_mod_pauli_scalar(m, state.reshape(-1, 1))


def test_full_autoccz_translation_is_ccz():
    cons = constructions.build_autoccz()
    keys = ("m1", "m2", "m3", "u1", "u2", "u3", "u4", "u5", "u6")
    rng = np.random.default_rng(2)
    for _ in range(4):
        outcomes = {k: int(v) for k, v in zip(keys, rng.integers(2, size=9))}
        g = zx_from_circuit(cons.circuit, outcomes)
        m = zx.evaluate(g)
        assert zx.equiv_mod_pauli_scalar(m, zx.TARGETS["CCZ"]), outcomes


def test_frameless_translation_only_pauli_off():
    cons = constructions.build_delayed_choice_cz(True)
    outcomes = {"m1": 1, "m2": 0}
    frameless = dataclasses.replace(cons.circuit, operations=tuple(
        op for op in cons.circuit.operations
        if not isinstance(op, FrameUpdate)))
    g = zx_from_circuit(frameless, outcomes)
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
    _attach_ccz_gadgets(g, wires)
    g.outputs = outs
    state = zx.evaluate(g)
    expect = (zx.TARGETS["CCZ"] @ plus_state(3)).reshape(-1, 1)
    assert zx.equiv_mod_pauli_scalar(state, expect)


def _pauli_sandwich(n_out, n_in, paulis, seed, log_c):
    """Random E and c * P_out @ E @ P_in, |c| = 10^log_c."""
    rng = np.random.default_rng(seed)
    shape = (1 << n_out, 1 << n_in)
    e = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    p_out = functools.reduce(np.kron, [GATES[p] for p in paulis[:n_out]])
    p_in = functools.reduce(np.kron, [GATES[p] for p in paulis[2:2 + n_in]])
    c = 10.0 ** log_c * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return e, c * p_out @ e @ p_in


_SANDWICHES = (st.integers(1, 2), st.integers(1, 2),
               st.lists(st.sampled_from("IXYZ"), min_size=4, max_size=4),
               st.integers(0, 2 ** 32 - 1), st.floats(-12, 12))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(*_SANDWICHES)
def test_equiv_mod_pauli_scalar_accepts_every_pauli_sandwich(
        n_out, n_in, paulis, seed, log_c):
    """c * P_out @ E @ P_in matches E for random E, Paulis (Y included)
    and nonzero c of any scale in [1e-12, 1e12]."""
    e, sandwich = _pauli_sandwich(n_out, n_in, paulis, seed, log_c)
    assert zx.equiv_mod_pauli_scalar(sandwich, e)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(*_SANDWICHES, st.integers(0, 15), st.floats(-6, 0),
       st.floats(0, 2 * np.pi))
def test_equiv_mod_pauli_scalar_rejects_a_perturbed_entry(
        n_out, n_in, paulis, seed, log_c, entry, log_size, angle):
    """One entry of c * P_out @ E @ P_in moved by 10^log_size >= 1e-6
    of its largest entry fails to match E, at every scale of c."""
    e, sandwich = _pauli_sandwich(n_out, n_in, paulis, seed, log_c)
    sandwich.flat[entry % sandwich.size] += 10.0 ** log_size \
        * np.abs(sandwich).max() * np.exp(1j * angle)
    assert not zx.equiv_mod_pauli_scalar(sandwich, e)


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
