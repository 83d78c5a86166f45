"""Reaction-limited schedule and lookup timing checks.

Frozen makespans come with their closed forms so a regression is
readable: for a serial chain the steady state is one reaction per node
once the first batch of states has landed.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeplan import bytefmt
from latticeplan import scheduler as S
from latticeplan.constructions import build_cuccaro_adder
from latticeplan.exceptions import CapacityError
from latticeplan.factory import FactorySpec, PhysicalAssumptions, ccz_rate

BASE = PhysicalAssumptions()
SPEC = FactorySpec()


def _chain_oracle(nodes, depth_ns, reaction_ns, n):
    """Replay of the dependency recurrence with plain loops."""
    decision = 0
    for j in range(1, nodes + 1):
        ready = depth_ns * -(-j // n)
        decision = max(decision, ready) + reaction_ns
    return decision


def _events(trace):
    """The trace's events in order, each the dict of its JSONL line."""
    return [json.loads(line) for line in S.export_jsonl(trace).splitlines()]


# ---------------------------------------------------------------- dag


def test_adder_dag_shape():
    dag = S.build_adder_dag(1000)
    assert dag.num_nodes == 1997
    assert dag.measurement_depth == 1997
    assert S.build_adder_dag(2).num_nodes == 1
    assert S.build_adder_dag(2).measurement_depth == 1


def test_adder_dag_rejects_one_bit():
    with pytest.raises(ValueError):
        S.build_adder_dag(1)


def test_dag_validation():
    with pytest.raises(ValueError, match="at least one node"):
        S.ToffoliDag(0)


def _ccz_dependencies(circuit):
    """The CCZs of ``circuit``, numbered in circuit order, and the pairs
    (a, b) in which CCZ b touches a wire that CCZ a wrote, directly or
    through the Clifford gates between them. A CCZ writes all three of
    its wires: the fixup its reaction decision selects lands on each of
    them. (Were only a Toffoli's target written, the apex, whose target
    is the top sum bit, would hang off the chain beside the first
    down-ripple node.) A CX carries what its control holds into its
    target; H acts on one wire and carries nothing."""
    written = [set() for _ in range(circuit.num_qubits)]
    edges = set()
    node = 0
    for op in circuit.operations:
        if op.name == "CCZ":
            for wire in op.qubits:
                edges |= {(a, node) for a in written[wire]}
            for wire in op.qubits:
                written[wire].add(node)
            node += 1
        elif op.name == "CX":
            control, target = op.qubits
            written[target] |= written[control]
    return node, edges


def _transitive_reduction(n, edges):
    """The edges (a, b) with no longer path from a to b."""
    succ = {a: {b for x, b in edges if x == a} for a in range(n)}
    reach = {}
    for a in reversed(range(n)):  # every edge runs forward in node order
        reach[a] = set().union(*({b} | reach[b] for b in succ[a]))
    return {(a, b) for a, b in edges
            if not any(b in reach[c] for c in succ[a] - {b})}


@pytest.mark.parametrize("bits", range(2, 13))
def test_adder_dag_is_the_circuits_chain(bits):
    circuit, _ = build_cuccaro_adder(bits)
    n, edges = _ccz_dependencies(circuit)
    dag = S.build_adder_dag(bits)
    assert n == dag.num_nodes
    reduced = _transitive_reduction(n, edges)
    assert reduced == {(k, k + 1) for k in range(n - 1)}
    assert reduced == {(a, b) for b in range(n) for a in dag.predecessors(b)}


# ---------------------------------------------- reaction-limited chain


def test_chain_makespan_14_factories():
    trace = S.simulate_reaction_limited(S.build_adder_dag(1000), SPEC,
                                        BASE, 14)
    # first decision at depth + reaction, then one reaction per node
    assert trace.makespan_ns == 145000 + 1996 * 10000 == 20105000
    assert trace.makespan_ns == _chain_oracle(1997, 135000, 10000, 14)


def test_chain_makespan_single_factory():
    trace = S.simulate_reaction_limited(S.build_adder_dag(1000), SPEC,
                                        BASE, 1)
    # supply-limited: one factory depth per node, one trailing reaction
    assert trace.makespan_ns == 1997 * 135000 + 10000 == 269605000
    assert trace.makespan_ns == _chain_oracle(1997, 135000, 10000, 1)


def test_single_node_makespan():
    trace = S.simulate_reaction_limited(S.build_adder_dag(2), SPEC, BASE, 14)
    assert trace.makespan_ns == 145000


@pytest.mark.parametrize("n", [1, 2, 14, 135])
def test_chain_causality(n):
    events = _events(S.simulate_reaction_limited(S.build_adder_dag(40), SPEC,
                                                 BASE, n))
    ready = {e["state"]: e["t_ns"] for e in events
             if e["kind"] == "state_ready"}
    consume = {e["state"]: e["t_ns"] for e in events
               if e["kind"] == "consume"}
    for state, t in consume.items():
        assert t >= ready[state]
    decisions = sorted(e["t_ns"] for e in events
                       if e["kind"] == "reaction_decision")
    gaps = [b - a for a, b in zip(decisions, decisions[1:])]
    assert all(g >= 10000 for g in gaps)


def test_chain_supply_conservation():
    trace = S.simulate_reaction_limited(S.build_adder_dag(40), SPEC, BASE, 3)
    produced = consumed = 0
    for e in _events(trace):
        if e["kind"] == "state_ready":
            produced += 1
        elif e["kind"] == "consume":
            consumed += 1
            assert consumed <= produced


def test_chain_steady_state_gaps():
    fed = S.simulate_reaction_limited(S.build_adder_dag(100), SPEC, BASE, 14)
    decisions = sorted(e["t_ns"] for e in _events(fed)
                       if e["kind"] == "reaction_decision")
    assert {b - a for a, b in zip(decisions, decisions[1:])} == {10000}

    starved = S.simulate_reaction_limited(S.build_adder_dag(100), SPEC,
                                          BASE, 1)
    decisions = sorted(e["t_ns"] for e in _events(starved)
                       if e["kind"] == "reaction_decision")
    assert {b - a for a, b in zip(decisions, decisions[1:])} == {135000}


@pytest.mark.parametrize("n", [1, 14])
def test_chain_utilization_bounded(n):
    trace = S.simulate_reaction_limited(S.build_adder_dag(200), SPEC, BASE, n)
    assert 0 < trace.summary["utilization"] <= 1


def test_events_sorted():
    trace = S.simulate_reaction_limited(S.build_adder_dag(30), SPEC, BASE, 4)
    times = [e["t_ns"] for e in _events(trace)]
    assert times == sorted(times)


def test_non_integer_nanoseconds_rejected():
    odd = PhysicalAssumptions(reaction_time_us=Fraction(1, 3))
    with pytest.raises(ValueError, match="whole nanosecond"):
        S.simulate_reaction_limited(S.build_adder_dag(4), SPEC, odd, 1)


def test_chain_rejects_zero_factories():
    with pytest.raises(ValueError):
        S.simulate_reaction_limited(S.build_adder_dag(4), SPEC, BASE, 0)


# ------------------------------------------------------- access rates


@pytest.mark.parametrize("d,cycle,sides,rate", [
    (27, 1, 1, Fraction(1000, 27)),
    (27, 1, 2, Fraction(2000, 27)),
    (27, 10, 2, Fraction(200, 27)),
])
def test_cnot_access_rate(d, cycle, sides, rate):
    a = PhysicalAssumptions(cycle_time_us=cycle)
    assert S.cnot_access_rate(d, a, sides) == rate


def test_cnot_access_rate_display():
    assert round(float(S.cnot_access_rate(27, BASE, 1)), 1) == 37.0
    assert round(float(S.cnot_access_rate(27, BASE, 2)), 1) == 74.1


@pytest.mark.parametrize("d,sides", [(27, 3), (26, 2), (1, 1)])
def test_cnot_access_rate_validation(d, sides):
    with pytest.raises(ValueError):
        S.cnot_access_rate(d, BASE, sides)


# ------------------------------------------------------------- lookup


def test_lookup_binding_access():
    trace = S.simulate_lookup(S.LookupSpec(1024), SPEC, BASE, 14)
    assert trace.summary["binding"] == "access"
    assert trace.summary["period_ns"] == 13500
    assert trace.summary["access_window_ns"] == 13500
    assert trace.summary["supply_interval_ns"] == 9643


def test_lookup_binding_reaction():
    slow = PhysicalAssumptions(reaction_time_us=100)
    trace = S.simulate_lookup(S.LookupSpec(1024), SPEC, slow, 14)
    assert trace.summary["binding"] == "reaction"
    assert trace.summary["period_ns"] == 100000


def test_lookup_binding_supply():
    trace = S.simulate_lookup(S.LookupSpec(1024), SPEC, BASE, 1)
    assert trace.summary["binding"] == "supply"
    assert trace.summary["period_ns"] == 135000


def test_lookup_single_sided_window():
    trace = S.simulate_lookup(S.LookupSpec(16, access_sides=1), SPEC,
                              BASE, 14)
    assert trace.summary["access_window_ns"] == 27000
    assert trace.summary["period_ns"] == 27000


def test_lookup_makespan_closed_form():
    trace = S.simulate_lookup(S.LookupSpec(8), SPEC, BASE, 14)
    # 7 steps: first at the factory depth, then one period each, plus the
    # final reaction
    assert trace.makespan_ns == 135000 + 6 * 13500 + 10000 == 226000


def test_lookup_corridor_alternation():
    trace = S.simulate_lookup(S.LookupSpec(8), SPEC, BASE, 14)
    corridors = [e["corridor"] for e in _events(trace)
                 if e["kind"] == "cnot_window"]
    assert corridors == ["left", "right"] * 3 + ["left"]

    one_side = S.simulate_lookup(S.LookupSpec(8, access_sides=1), SPEC,
                                 BASE, 14)
    corridors = [e["corridor"] for e in _events(one_side)
                 if e["kind"] == "cnot_window"]
    assert corridors == ["left"] * 7


def test_lookup_toffoli_count_default_and_override():
    assert S.LookupSpec(1024).toffoli_count == 1023
    assert S.LookupSpec(1024, toffoli_count=40).toffoli_count == 40
    trace = S.simulate_lookup(S.LookupSpec(8, toffoli_count=3), SPEC,
                              BASE, 14)
    assert trace.summary["toffoli_count"] == 3
    assert len([e for e in _events(trace) if e["kind"] == "consume"]) == 3


@pytest.mark.parametrize("kwargs", [
    {"entries": 1},
    {"entries": 8, "access_sides": 3},
    {"entries": 8, "toffoli_count": 0},
])
def test_lookup_spec_validation(kwargs):
    with pytest.raises(ValueError):
        S.LookupSpec(**kwargs)


# ----------------------------------------------------- phase timeline


def test_phase_timeline_accounting():
    trace = S.phase_timeline(S.LookupSpec(1024), 1000, SPEC, BASE, 14)
    phases = [e["phase"] for e in _events(trace)]
    assert phases == list(S.PHASES)
    durations = trace.summary["durations_ns"]
    assert sum(durations.values()) == trace.makespan_ns
    # boundaries are cumulative sums of the durations
    t = 0
    for e in _events(trace):
        t += durations[e["phase"]]
        assert e["t_ns"] == t


def test_phase_timeline_toffoli_budget():
    trace = S.phase_timeline(S.LookupSpec(1024), 1000, SPEC, BASE, 14)
    toffolis = trace.summary["toffolis"]
    assert toffolis == {"spread": 0, "lookup": 1023, "add_up": 999,
                        "add_down": 998, "uncompute": 0}
    assert trace.summary["total_toffolis"] == 3020


def test_phase_timeline_window_phases():
    trace = S.phase_timeline(S.LookupSpec(16), 4, SPEC, BASE, 14)
    durations = trace.summary["durations_ns"]
    # spread and uncompute are one d2 window each, no states consumed
    assert durations["spread"] == durations["uncompute"] == 27000


# ------------------------------------------------------------- export


def test_export_jsonl_deterministic_and_parseable():
    def run():
        return S.export_jsonl(S.simulate_lookup(S.LookupSpec(8), SPEC,
                                                BASE, 14))
    first, second = run(), run()
    assert first == second
    assert first.endswith("\n")
    lines = first.splitlines()
    trace = S.simulate_lookup(S.LookupSpec(8), SPEC, BASE, 14)
    assert len(lines) == len(trace.events)
    for line in lines:
        record = json.loads(line)
        assert record["kind"] in S.EVENT_KINDS
        assert isinstance(record["t_ns"], int)


# ------------------------------------------------- dag against a reference


def _reference_order(n, edges):
    """Kahn's algorithm re-sorting the ready list on every pop."""
    indeg = [sum(b == m for _, b in edges) for m in range(n)]
    ready = sorted(m for m in range(n) if indeg[m] == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for a, b in edges:
            if a == node:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
        ready.sort()
    return order


def test_dag_matches_reference():
    for n in range(1, 26):
        dag = S.ToffoliDag(n)
        edges = [(k, k + 1) for k in range(n - 1)]
        order = _reference_order(n, edges)
        assert dag.topological_order() == order
        for node in range(n):
            assert dag.predecessors(node) == [a for a, b in edges
                                              if b == node]
        # longest chain, counted in nodes, over the reference order
        depth = {}
        for node in order:
            depth[node] = 1 + max((depth[a] for a, b in edges if b == node),
                                  default=0)
        assert dag.measurement_depth == max(depth.values())


# ------------------------------------ event traces against a reference
#
# The reference is the per-event implementation the columnar one
# replaced: one dict per event, a sort on (time, kind index, sorted
# payload items), and one json.dumps per line.


def _ref_trace(events, makespan, summary):
    events.sort(key=lambda e: (e[0], S.EVENT_KINDS.index(e[1]),
                               sorted(e[2].items())))
    return events, makespan, summary


def _ref_reaction_limited(dag, depth_ns, reaction, n_factories):
    decision = {}
    events = []
    for j, node in enumerate(dag.topological_order(), start=1):
        ready = depth_ns * math.ceil(j / n_factories)
        preds = max((decision[p] for p in dag.predecessors(node)),
                    default=0)
        consume = max(preds, ready)
        decision[node] = consume + reaction
        events.append((ready, "state_ready",
                       {"state": j, "factory": (j - 1) % n_factories}))
        events.append((consume, "consume", {"node": node, "state": j}))
        events.append((consume + reaction, "reaction_decision",
                       {"node": node}))
    makespan = max(decision.values())
    busy = dag.num_nodes * depth_ns
    return _ref_trace(events, makespan, {
        "nodes": dag.num_nodes, "n_factories": n_factories,
        "factory_depth_ns": depth_ns, "reaction_ns": reaction,
        "utilization": min(1.0, busy / (n_factories * makespan))})


def _ref_lookup(entries, sides, d2, depth_ns, reaction, n_factories):
    access = math.ceil(d2 * 1000 / sides)
    supply = math.ceil(depth_ns / n_factories)
    period = max(access, reaction, supply)
    binding = "access" if period == access else \
        "reaction" if period == reaction else "supply"
    steps = entries - 1
    events = []
    t = depth_ns
    for k in range(1, steps + 1):
        ready = depth_ns * math.ceil(k / n_factories)
        events.append((ready, "state_ready", {"state": k}))
        events.append((t, "consume", {"step": k, "state": k}))
        events.append((t + reaction, "reaction_decision", {"step": k}))
        corridor = "left" if sides == 1 or k % 2 == 1 else "right"
        events.append((t, "cnot_window", {"step": k, "corridor": corridor}))
        if k < steps:
            t += period
    return _ref_trace(events, t + reaction, {
        "entries": entries, "toffoli_count": steps, "binding": binding,
        "period_ns": period, "access_window_ns": access,
        "reaction_ns": reaction, "supply_interval_ns": supply})


def _ref_export(events):
    return "".join(json.dumps({"t_ns": t, "kind": kind, **payload},
                              sort_keys=True) + "\n"
                   for t, kind, payload in events)


@st.composite
def lookups(draw):
    """Small lookups on a 1 us cycle whose paces cross: the access window
    (d2 / sides us), the reaction time and the supply interval (5 d2 / F
    us) each bind somewhere in the range."""
    return dict(entries=draw(st.integers(2, 40)),
                sides=draw(st.sampled_from([1, 2])),
                d2=draw(st.sampled_from([3, 5, 7, 15, 27, 31])),
                reaction=draw(st.integers(1, 60_000)),
                factories=draw(st.integers(1, 30)))


def _lookup_run(case):
    spec = FactorySpec(d2=case["d2"])
    assumptions = PhysicalAssumptions(
        reaction_time_us=Fraction(case["reaction"], 1000))
    lookup = S.LookupSpec(case["entries"], access_sides=case["sides"])
    trace = S.simulate_lookup(lookup, spec, assumptions, case["factories"])
    ref = _ref_lookup(case["entries"], case["sides"], case["d2"],
                      5000 * case["d2"], case["reaction"], case["factories"])
    return trace, ref


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lookups())
@example(dict(entries=9, sides=2, d2=27, reaction=10_000, factories=14))
@example(dict(entries=9, sides=1, d2=15, reaction=20_000, factories=14))
@example(dict(entries=9, sides=2, d2=27, reaction=10_000, factories=1))
def test_lookup_matches_reference(case):
    trace, (events, makespan, summary) = _lookup_run(case)
    assert S.export_jsonl(trace) == _ref_export(events)
    assert (trace.makespan_ns, trace.summary) == (makespan, summary)
    assert len(trace.events) == len(events)
    rows = _events(trace)
    ready = {e["state"]: e["t_ns"] for e in rows
             if e["kind"] == "state_ready"}
    for e in rows:
        if e["kind"] == "consume":
            assert e["t_ns"] >= ready[e["state"]]


def test_lookup_reference_cases_bind_on_each_pace():
    """The explicit examples above cover all three binding paces."""
    cases = [dict(entries=9, sides=2, d2=27, reaction=10_000, factories=14),
             dict(entries=9, sides=1, d2=15, reaction=20_000, factories=14),
             dict(entries=9, sides=2, d2=27, reaction=10_000, factories=1)]
    bindings = [_lookup_run(c)[0].summary["binding"] for c in cases]
    assert bindings == ["access", "reaction", "supply"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lookups())
def test_lookup_makespan_falls_with_factories(case):
    slow = _lookup_run(case)[0].makespan_ns
    faster = _lookup_run({**case, "factories": case["factories"] + 1})[0]
    assert faster.makespan_ns <= slow


@st.composite
def chain_cases(draw):
    """An adder chain of 1 to 299 nodes, 1 to n + 2 factories, and a
    factory depth (5 d2 cycles of a drawn cycle time) and a reaction time
    that put either supply or reaction in charge."""
    bits = draw(st.integers(2, 151))
    return dict(bits=bits,
                factories=draw(st.integers(1, 2 * bits - 1)),
                d2=draw(st.sampled_from([3, 5, 15, 27, 51])),
                cycle_ns=draw(st.integers(1, 2000)),
                reaction=draw(st.integers(1, 200_000)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(chain_cases())
@example(dict(bits=2, factories=3, d2=27, cycle_ns=1000, reaction=10_000))
def test_chain_matches_reference(case):
    """The closed-form chain writes the per-event reference's JSONL. Each
    node consumes its state once it is ready and its predecessor has
    decided, decides one reaction later, and one more factory never
    lengthens the schedule."""
    spec = FactorySpec(d2=case["d2"])
    assumptions = PhysicalAssumptions(
        cycle_time_us=Fraction(case["cycle_ns"], 1000),
        reaction_time_us=Fraction(case["reaction"], 1000))
    dag = S.build_adder_dag(case["bits"])
    f = case["factories"]
    trace = S.simulate_reaction_limited(dag, spec, assumptions, f)
    events, makespan, summary = _ref_reaction_limited(
        dag, 5 * case["d2"] * case["cycle_ns"], case["reaction"], f)
    assert S.export_jsonl(trace) == _ref_export(events)
    assert (trace.makespan_ns, trace.summary) == (makespan, summary)

    ready, consume, decision = {}, {}, {}
    for e in _events(trace):
        if e["kind"] == "state_ready":
            ready[e["state"]] = e["t_ns"]
        elif e["kind"] == "consume":
            consume[e["node"]] = (e["t_ns"], e["state"])
        else:
            decision[e["node"]] = e["t_ns"]
    for node, (t, state) in consume.items():
        assert t >= ready[state]
        assert all(t >= decision[p] for p in dag.predecessors(node))
        assert decision[node] == t + case["reaction"]

    more = S.simulate_reaction_limited(dag, spec, assumptions, f + 1)
    assert more.makespan_ns <= trace.makespan_ns


def test_chain_decision_takes_an_array():
    j = np.arange(1, 301, dtype=np.int64)
    for depth_ns, reaction, factories in [(135000, 10000, 14),
                                          (135000, 10000, 1),
                                          (7, 3, 400)]:
        got = S.chain_decision(j, depth_ns, reaction, factories)
        assert got.dtype == np.int64
        assert got.tolist() == [S.chain_decision(k, depth_ns, reaction,
                                                 factories)
                                for k in j.tolist()]
    assert type(S.chain_decision(5, 135000, 10000, 14)) is int


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300), st.integers(1, 200_000), st.integers(1, 200_000),
       st.integers(1, 40))
def test_chain_decision_closed_form(j, depth_ns, reaction, factories):
    assert S.chain_decision(j, depth_ns, reaction, factories) == \
        _chain_oracle(j, depth_ns, reaction, factories)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 60), st.integers(1, 30), st.integers(1, 200_000))
def test_adder_makespan_matches_reference(bits, factories, reaction):
    assumptions = PhysicalAssumptions(
        reaction_time_us=Fraction(reaction, 1000))
    dag = S.build_adder_dag(bits)
    _, makespan, _ = _ref_reaction_limited(dag, 135000, reaction, factories)
    assert S.adder_makespan(bits, SPEC, assumptions, factories) == makespan
    assert S.adder_toffolis(bits) == dag.num_nodes == dag.measurement_depth


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lookups(), st.integers(2, 40))
def test_phase_timeline_matches_reference(case, bits):
    spec = FactorySpec(d2=case["d2"])
    assumptions = PhysicalAssumptions(
        reaction_time_us=Fraction(case["reaction"], 1000))
    lookup = S.LookupSpec(case["entries"], access_sides=case["sides"])
    trace = S.phase_timeline(lookup, bits, spec, assumptions,
                             case["factories"])
    durations = trace.summary["durations_ns"]
    assert sum(durations.values()) == trace.makespan_ns
    assert len(trace.events) == len(S.PHASES)

    depth_ns = 5000 * case["d2"]
    _, look, _ = _ref_lookup(case["entries"], case["sides"], case["d2"],
                             depth_ns, case["reaction"], case["factories"])
    add, last, _ = _ref_reaction_limited(
        S.build_adder_dag(bits), depth_ns, case["reaction"],
        case["factories"])
    apex = max(t for t, kind, payload in add
               if kind == "reaction_decision" and payload["node"] == bits - 2)
    assert durations["spread"] == durations["uncompute"] == 1000 * case["d2"]
    assert durations["lookup"] == look
    assert durations["add_up"] == apex
    assert durations["add_down"] == last - apex
    t = 0
    lines = []
    for phase in S.PHASES:
        t += durations[phase]
        lines.append((t, "phase_boundary",
                      {"phase": phase,
                       "toffolis": trace.summary["toffolis"][phase]}))
    assert S.export_jsonl(trace) == _ref_export(lines)


@pytest.mark.parametrize("entries", [10 ** 9, S.MAX_TRACE_EVENTS // 4 + 2])
def test_trace_cap_raises_before_allocating(entries):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the cap"):
            S.simulate_lookup(S.LookupSpec(entries), SPEC, BASE, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_adder_trace_cap(monkeypatch):
    dag = S.build_adder_dag(4)  # 5 nodes, 15 events
    monkeypatch.setattr(S, "MAX_TRACE_EVENTS", 14)
    with pytest.raises(CapacityError, match="15 events"):
        S.simulate_reaction_limited(dag, SPEC, BASE, 1)
    monkeypatch.setattr(S, "MAX_TRACE_EVENTS", 15)
    assert len(S.simulate_reaction_limited(dag, SPEC, BASE, 1).events) == 15


def test_event_times_past_int64_rejected():
    slow = PhysicalAssumptions(cycle_time_us=10 ** 15)
    with pytest.raises(CapacityError, match="int64"):
        S.simulate_lookup(S.LookupSpec(8), SPEC, slow, 1)
    with pytest.raises(CapacityError, match="int64"):
        S.simulate_reaction_limited(S.build_adder_dag(4), SPEC, slow, 1)
    with pytest.raises(CapacityError, match="int64"):
        S.phase_timeline(S.LookupSpec(8), 4, SPEC, slow, 1)


def test_lookup_pace_matches_simulation_summary():
    lookup = S.LookupSpec(1024)
    pace = S.lookup_pace(lookup, SPEC, BASE, 14)
    trace = S.simulate_lookup(lookup, SPEC, BASE, 14)
    assert pace.makespan_ns == trace.makespan_ns
    assert (pace.binding, pace.period_ns, pace.steps) == (
        trace.summary["binding"], trace.summary["period_ns"],
        trace.summary["toffoli_count"])
    big = S.lookup_pace(S.LookupSpec(10 ** 9), SPEC, BASE, 14)
    assert big.makespan_ns == 135000 + (10 ** 9 - 2) * 13500 + 10000


# ------------------------------------------------------ streamed export

# Integers at the digit-count edges, including the largest int64.
EDGE_INTS = [0, 9, 10, 99, 100, 2 ** 63 - 1]


@st.composite
def event_tables(draw):
    """Random EventTables: blocks of distinct kinds whose times come from
    a few values, so events tie within and across kinds and across chunk
    boundaries; payload columns of non-negative int64s (often at the
    digit-count edges) or identifier strings, empty ones included."""
    ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(0, 2 ** 63 - 1))
    names = st.sampled_from(["a", "corridor", "node", "state", "z_9"])
    words = st.text(alphabet="abxyz_019", max_size=6)
    times = draw(st.lists(ints, min_size=1, max_size=4))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(S.EVENT_KINDS), min_size=1,
                              max_size=5, unique=True)):
        n = draw(st.integers(0, 12))

        def column(values, dtype):
            return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                            dtype=dtype)
        t_ns, tie = np.array(sorted(zip(
            column(st.sampled_from(times), np.int64).tolist(),
            column(st.integers(0, 3), np.int64).tolist())),
            dtype=np.int64).reshape(n, 2).T
        columns = {name: column(words, str) if draw(st.booleans())
                   else column(ints, np.int64)
                   for name in draw(st.lists(names, max_size=2,
                                             unique=True))}
        blocks.append(S.EventBlock(kind, t_ns, tie, columns))
    return S.EventTable(blocks)


def _ref_table_events(table):
    """The table's events, one tuple each, sorted by (time, kind index,
    tie-break) with concatenation order breaking full ties."""
    rows = []
    for b in table.blocks:
        names = list(b.columns)
        for i, (t, tie, *payload) in enumerate(zip(
                b.t_ns.tolist(), b.tie.tolist(),
                *(b.columns[n].tolist() for n in names))):
            rows.append(((t, S.EVENT_KINDS.index(b.kind), tie, len(rows)),
                         (t, b.kind, dict(zip(names, payload)))))
    return [event for _, event in sorted(rows)]


def _block(kind, t_ns, tie, **columns):
    return S.EventBlock(kind, np.array(t_ns, dtype=np.int64),
                        np.array(tie, dtype=np.int64),
                        {k: np.array(v) for k, v in columns.items()})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(event_tables(), st.integers(1, 7))
# blocks given out of kind order, tying across kinds
@example(S.EventTable([
    _block("cnot_window", [5, 9, 9], [0, 1, 2], corridor=["a", "b", "z"]),
    _block("consume", [5, 5, 9], [0, 1, 2], node=[3, 4, 5]),
    _block("state_ready", [1, 5, 9], [0, 1, 2], state=[1, 2, 3]),
]), 2)
# chunk boundaries inside the time-2 and time-7 tie runs of one block
@example(S.EventTable([
    _block("consume", [0, 2, 2, 7, 7], [2, 0, 3, 0, 1],
           node=[3, 1, 4, 2, 0]),
    _block("reaction_decision", [1, 3, 8], [1, 2, 0], node=[2, 0, 1]),
]), 3)
# equal (t_ns, tie) pairs within a block keep their block order
@example(S.EventTable([
    _block("reaction_decision", [1, 4, 4, 4, 4], [0, 1, 2, 2, 2],
           node=[13, 14, 10, 11, 12]),
    _block("state_ready", [4, 4], [2, 2], state=[7, 8]),
]), 1)
def test_streamed_export_matches_reference(table, chunk):
    trace = S.ScheduleTrace(table, 0, {})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bytefmt, "CHUNK_ROWS", chunk)
        text = S.export_jsonl(trace)
    assert text == _ref_export(_ref_table_events(table))


def _lexsort_order(table):
    """The trace order as one lexsort over (time, kind, tie-break), with
    the concatenation order breaking full ties."""
    sizes = [len(b.t_ns) for b in table.blocks]
    kinds = np.repeat([S.EVENT_KINDS.index(b.kind) for b in table.blocks],
                      sizes)
    return np.lexsort((np.concatenate([b.tie for b in table.blocks]), kinds,
                       np.concatenate([b.t_ns for b in table.blocks])))


@pytest.mark.parametrize("entries, sides, factories, d2", [
    (65536, 2, None, 27), (16384, 1, None, 27), (16384, 2, 1, 27),
    (16384, 2, None, 15)])
def test_run_merge_matches_lexsort_on_lookup_traces(entries, sides,
                                                    factories, d2):
    spec = FactorySpec(d2=d2)
    n = factories or ccz_rate(spec, BASE).factories_needed
    table = S.simulate_lookup(S.LookupSpec(entries, access_sides=sides),
                              spec, BASE, n).events
    np.testing.assert_array_equal(table.order, _lexsort_order(table))


def test_event_table_refuses_a_repeated_kind():
    block = _block("consume", [1], [0])
    with pytest.raises(ValueError, match="one block per kind"):
        S.EventTable([block, block])


@pytest.mark.parametrize("t_ns, tie", [([2, 1], [0, 1]), ([1, 1], [1, 0])])
def test_event_table_refuses_an_unsorted_block(t_ns, tie):
    with pytest.raises(ValueError, match="consume events are not in"):
        S.EventTable([_block("state_ready", [0], [0]),
                      _block("consume", t_ns, tie)])


def test_export_refuses_negative_values():
    block = S.EventBlock("consume", np.array([5]), np.array([0]),
                         {"node": np.array([-1])})
    trace = S.ScheduleTrace(S.EventTable([block]), 5, {})
    with pytest.raises(ValueError, match="negative value -1"):
        S.export_jsonl(trace)


# digit-count edges, and the edges of the four-digit groups
_DIGIT_EDGES = (0, 9, 10, 9999, 10000, 10 ** 8 - 1, 10 ** 8, 10 ** 12 - 1,
                10 ** 12, 10 ** 16 - 1, 10 ** 16, 10 ** 18, 2 ** 63 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 19).flatmap(lambda width: st.lists(
    st.one_of(st.sampled_from([v for v in _DIGIT_EDGES
                               if len(str(v)) <= width]),
              st.integers(0, min(10 ** width, 2 ** 63) - 1)),
    min_size=1, max_size=40)))
def test_digits_match_str(values):
    digits = bytefmt._digits(np.array(values, dtype=np.int64))
    assert digits.shape == (len(values), len(str(max(values))))
    # right-aligned: the padding is 0 bytes on the left only
    assert [bytes(row).lstrip(b"\0").decode() for row in digits] == \
        [str(v) for v in values]


def test_digits_refuse_negative_values():
    with pytest.raises(ValueError, match="negative value -3"):
        bytefmt._digits(np.array([2, -3, 10 ** 17]))


def test_streamed_export_memory_is_bounded():
    """A 65536-entry lookup (262140 events, 17.7 MB of JSONL) is written
    one chunk at a time, in a few megabytes beyond the trace itself."""
    trace = S.simulate_lookup(S.LookupSpec(65536), SPEC, BASE, 14)
    written = []

    class Sink:
        def write(self, data):
            written.append(len(data))

    tracemalloc.start()
    try:
        S.write_jsonl(trace, Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) == 17701149
    assert len(written) == -(-len(trace.events) // bytefmt.CHUNK_ROWS)
    assert peak < 8 << 20
