"""Reaction-limited schedule and lookup timing checks.

Frozen makespans come with their closed forms so a regression is
readable: for a serial chain the steady state is one reaction per node
once the first batch of states has landed.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan import scheduler as S
from latticeplan.factory import FactorySpec, PhysicalAssumptions

BASE = PhysicalAssumptions()
SPEC = FactorySpec()


def _chain_oracle(nodes, depth_ns, reaction_ns, n):
    """Replay of the dependency recurrence with plain loops."""
    decision = 0
    for j in range(1, nodes + 1):
        ready = depth_ns * -(-j // n)
        decision = max(decision, ready) + reaction_ns
    return decision


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
    with pytest.raises(ValueError, match="cycle"):
        S.ToffoliDag(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="out of range"):
        S.ToffoliDag(2, ((0, 2),))
    with pytest.raises(ValueError, match="self edge"):
        S.ToffoliDag(2, ((1, 1),))
    with pytest.raises(ValueError):
        S.ToffoliDag(0, ())


def test_dag_diamond_order_and_depth():
    dag = S.ToffoliDag(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    assert dag.topological_order() == [0, 1, 2, 3]
    assert dag.measurement_depth == 3
    assert sorted(dag.predecessors(3)) == [1, 2]


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
    trace = S.simulate_reaction_limited(S.build_adder_dag(40), SPEC, BASE, n)
    ready = {e.payload["state"]: e.t_ns for e in trace.events
             if e.kind == "state_ready"}
    consume = {e.payload["state"]: e.t_ns for e in trace.events
               if e.kind == "consume"}
    for state, t in consume.items():
        assert t >= ready[state]
    decisions = sorted(e.t_ns for e in trace.events
                       if e.kind == "reaction_decision")
    gaps = [b - a for a, b in zip(decisions, decisions[1:])]
    assert all(g >= 10000 for g in gaps)


def test_chain_supply_conservation():
    trace = S.simulate_reaction_limited(S.build_adder_dag(40), SPEC, BASE, 3)
    produced = consumed = 0
    for e in trace.events:
        if e.kind == "state_ready":
            produced += 1
        elif e.kind == "consume":
            consumed += 1
            assert consumed <= produced


def test_chain_steady_state_gaps():
    fed = S.simulate_reaction_limited(S.build_adder_dag(100), SPEC, BASE, 14)
    decisions = sorted(e.t_ns for e in fed.events
                       if e.kind == "reaction_decision")
    assert {b - a for a, b in zip(decisions, decisions[1:])} == {10000}

    starved = S.simulate_reaction_limited(S.build_adder_dag(100), SPEC,
                                          BASE, 1)
    decisions = sorted(e.t_ns for e in starved.events
                       if e.kind == "reaction_decision")
    assert {b - a for a, b in zip(decisions, decisions[1:])} == {135000}


@pytest.mark.parametrize("n", [1, 14])
def test_chain_utilization_bounded(n):
    trace = S.simulate_reaction_limited(S.build_adder_dag(200), SPEC, BASE, n)
    assert 0 < trace.summary["utilization"] <= 1


def test_events_sorted():
    trace = S.simulate_reaction_limited(S.build_adder_dag(30), SPEC, BASE, 4)
    times = [e.t_ns for e in trace.events]
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
    trace = S.simulate_lookup(S.LookupSpec(1024, 32), SPEC, BASE, 14)
    assert trace.summary["binding"] == "access"
    assert trace.summary["period_ns"] == 13500
    assert trace.summary["access_window_ns"] == 13500
    assert trace.summary["supply_interval_ns"] == 9643


def test_lookup_binding_reaction():
    slow = PhysicalAssumptions(reaction_time_us=100)
    trace = S.simulate_lookup(S.LookupSpec(1024, 32), SPEC, slow, 14)
    assert trace.summary["binding"] == "reaction"
    assert trace.summary["period_ns"] == 100000


def test_lookup_binding_supply():
    trace = S.simulate_lookup(S.LookupSpec(1024, 32), SPEC, BASE, 1)
    assert trace.summary["binding"] == "supply"
    assert trace.summary["period_ns"] == 135000


def test_lookup_single_sided_window():
    trace = S.simulate_lookup(S.LookupSpec(16, 8, access_sides=1), SPEC,
                              BASE, 14)
    assert trace.summary["access_window_ns"] == 27000
    assert trace.summary["period_ns"] == 27000


def test_lookup_makespan_closed_form():
    trace = S.simulate_lookup(S.LookupSpec(8, 8), SPEC, BASE, 14)
    # 7 steps: first at the factory depth, then one period each, plus the
    # final reaction
    assert trace.makespan_ns == 135000 + 6 * 13500 + 10000 == 226000


def test_lookup_corridor_alternation():
    trace = S.simulate_lookup(S.LookupSpec(8, 8), SPEC, BASE, 14)
    corridors = [e.payload["corridor"] for e in trace.events
                 if e.kind == "cnot_window"]
    assert corridors == ["left", "right"] * 3 + ["left"]

    one_side = S.simulate_lookup(S.LookupSpec(8, 8, access_sides=1), SPEC,
                                 BASE, 14)
    corridors = [e.payload["corridor"] for e in one_side.events
                 if e.kind == "cnot_window"]
    assert corridors == ["left"] * 7


def test_lookup_toffoli_count_default_and_override():
    assert S.LookupSpec(1024, 32).toffoli_count == 1023
    assert S.LookupSpec(1024, 32, toffoli_count=40).toffoli_count == 40
    trace = S.simulate_lookup(S.LookupSpec(8, 8, toffoli_count=3), SPEC,
                              BASE, 14)
    assert trace.summary["toffoli_count"] == 3
    assert len([e for e in trace.events if e.kind == "consume"]) == 3


@pytest.mark.parametrize("kwargs", [
    {"entries": 1, "output_bits": 8},
    {"entries": 8, "output_bits": 0},
    {"entries": 8, "output_bits": 8, "access_sides": 3},
])
def test_lookup_spec_validation(kwargs):
    with pytest.raises(ValueError):
        S.LookupSpec(**kwargs)


# ----------------------------------------------------- phase timeline


def test_phase_timeline_accounting():
    trace = S.phase_timeline(S.LookupSpec(1024, 32), 1000, SPEC, BASE, 14)
    phases = [e.payload["phase"] for e in trace.events]
    assert phases == list(S.PHASES)
    durations = trace.summary["durations_ns"]
    assert sum(durations.values()) == trace.makespan_ns
    # boundaries are cumulative sums of the durations
    t = 0
    for e in trace.events:
        t += durations[e.payload["phase"]]
        assert e.t_ns == t


def test_phase_timeline_toffoli_budget():
    trace = S.phase_timeline(S.LookupSpec(1024, 32), 1000, SPEC, BASE, 14)
    toffolis = trace.summary["toffolis"]
    assert toffolis == {"spread": 0, "lookup": 1023, "add_up": 999,
                        "add_down": 998, "uncompute": 0}
    assert trace.summary["total_toffolis"] == 3020


def test_phase_timeline_window_phases():
    trace = S.phase_timeline(S.LookupSpec(16, 8), 4, SPEC, BASE, 14)
    durations = trace.summary["durations_ns"]
    # spread and uncompute are one d2 window each, no states consumed
    assert durations["spread"] == durations["uncompute"] == 27000


# ------------------------------------------------------------- export


def test_export_jsonl_deterministic_and_parseable():
    def run():
        return S.export_jsonl(S.simulate_lookup(S.LookupSpec(8, 8), SPEC,
                                                BASE, 14))
    first, second = run(), run()
    assert first == second
    assert first.endswith("\n")
    lines = first.splitlines()
    trace = S.simulate_lookup(S.LookupSpec(8, 8), SPEC, BASE, 14)
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


@st.composite
def random_dags(draw):
    """Edges (a, b) with a before b in a random relabelling, so the
    smallest-ready-first order is not just 0..n-1."""
    n = draw(st.integers(1, 25))
    label = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=40)) \
        if pairs else []
    return n, tuple((label[i], label[j]) for i, j in chosen)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(random_dags())
def test_dag_matches_reference(case):
    n, edges = case
    dag = S.ToffoliDag(n, edges)
    order = _reference_order(n, edges)
    assert dag.topological_order() == order
    for node in range(n):
        assert dag.predecessors(node) == [a for a, b in edges if b == node]
    # longest chain, counted in nodes, over the reference order
    depth = {}
    for node in order:
        depth[node] = 1 + max((depth[a] for a, b in edges if b == node),
                              default=0)
    assert dag.measurement_depth == max(depth.values())
