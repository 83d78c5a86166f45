"""Reaction-limited schedules and table-lookup timing.

Event times are exact integers in nanoseconds; durations derived from the
assumptions must convert to whole nanoseconds.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
from fractions import Fraction

from .factory import FactorySpec, PhysicalAssumptions

EVENT_KINDS = ("state_ready", "consume", "reaction_decision",
               "cnot_window", "phase_boundary")


@dataclasses.dataclass(frozen=True)
class Event:
    t_ns: int
    kind: str
    payload: dict

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class ScheduleTrace:
    events: tuple[Event, ...]
    makespan_ns: int
    summary: dict


@dataclasses.dataclass(frozen=True)
class ToffoliDag:
    """Toffoli-level dependency graph. Nodes are indices 0..n-1; an edge
    (a, b) means b waits for a's reaction-time decision.

    Construction builds, in one pass over the edges and one Kahn sweep,
    the predecessor lists, the topological order (smallest ready node
    first) and the measurement depth.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("dag needs at least one node")
        preds: list[list[int]] = [[] for _ in range(self.num_nodes)]
        succ: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for a, b in self.edges:
            if not (0 <= a < self.num_nodes and 0 <= b < self.num_nodes):
                raise ValueError(f"edge ({a}, {b}) out of range")
            if a == b:
                raise ValueError("self edge")
            preds[b].append(a)
            succ[a].append(b)
        indeg = [len(p) for p in preds]
        depth = [1] * self.num_nodes
        ready = [i for i in range(self.num_nodes) if indeg[i] == 0]
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for m in succ[n]:
                depth[m] = max(depth[m], depth[n] + 1)
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, m)
        if len(order) != self.num_nodes:
            raise ValueError("dependency cycle")
        object.__setattr__(self, "_preds", tuple(map(tuple, preds)))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_depth", max(depth))

    def predecessors(self, node: int) -> list[int]:
        return list(self._preds[node])

    def topological_order(self) -> list[int]:
        return list(self._order)

    @property
    def measurement_depth(self) -> int:
        """Longest chain of nodes (nodes counted, not edges)."""
        return self._depth


def build_adder_dag(bits: int) -> ToffoliDag:
    """Ripple-carry adder Toffoli chain: 2*bits - 3 serial nodes."""
    if bits < 2:
        raise ValueError("adder needs at least 2 bits")
    n = 2 * bits - 3
    return ToffoliDag(num_nodes=n,
                      edges=tuple((k, k + 1) for k in range(n - 1)))


def _ns(us: Fraction) -> int:
    ns = us * 1000
    if ns.denominator != 1:
        raise ValueError(f"duration {us} us is not a whole nanosecond")
    return int(ns)


def simulate_reaction_limited(dag: ToffoliDag, spec: FactorySpec,
                              assumptions: PhysicalAssumptions,
                              n_factories: int) -> ScheduleTrace:
    """Consume one CCZ state per node; each node's Pauli-frame decision
    lands one reaction time after its state and all predecessor decisions
    are available. Factories run flat out with unbounded buffering."""
    if n_factories < 1:
        raise ValueError("need at least one factory")
    reaction = _ns(assumptions.reaction_time_us)
    depth_ns = _ns(spec.ccz_depth_cycles * assumptions.cycle_time_us)
    decision: dict[int, int] = {}
    events: list[Event] = []
    for j, node in enumerate(dag.topological_order(), start=1):
        ready = depth_ns * math.ceil(j / n_factories)
        preds = max((decision[p] for p in dag.predecessors(node)), default=0)
        consume = max(preds, ready)
        decide = consume + reaction
        decision[node] = decide
        factory = (j - 1) % n_factories
        events.append(Event(ready, "state_ready",
                            {"state": j, "factory": factory}))
        events.append(Event(consume, "consume",
                            {"node": node, "state": j}))
        events.append(Event(decide, "reaction_decision", {"node": node}))
    makespan = max(decision.values())
    busy = dag.num_nodes * depth_ns
    events.sort(key=lambda e: (e.t_ns, EVENT_KINDS.index(e.kind),
                               sorted(e.payload.items())))
    return ScheduleTrace(
        events=tuple(events),
        makespan_ns=makespan,
        summary={
            "nodes": dag.num_nodes,
            "n_factories": n_factories,
            "factory_depth_ns": depth_ns,
            "reaction_ns": reaction,
            "utilization": min(1.0, busy / (n_factories * makespan)),
        },
    )


def cnot_access_rate(d: int, assumptions: PhysicalAssumptions,
                     sides: int) -> Fraction:
    """Rate (kHz) at which one register row can absorb lattice-surgery
    CNOTs: each takes d cycles of access-hallway time, halved with
    hallways on both sides."""
    if sides not in (1, 2):
        raise ValueError("sides must be 1 or 2")
    if d < 3 or d % 2 == 0:
        raise ValueError(f"code distance must be odd and >= 3: {d}")
    return Fraction(sides * 1000) / (d * assumptions.cycle_time_us)


@dataclasses.dataclass(frozen=True)
class LookupSpec:
    entries: int
    output_bits: int
    access_sides: int = 2
    toffoli_count: int | None = None

    def __post_init__(self) -> None:
        if self.entries < 2:
            raise ValueError("lookup needs at least 2 entries")
        if self.output_bits < 1:
            raise ValueError("output_bits must be positive")
        if self.access_sides not in (1, 2):
            raise ValueError("access_sides must be 1 or 2")
        if self.toffoli_count is None:
            # unary-iteration cost model: one Toffoli per entry after the
            # first
            object.__setattr__(self, "toffoli_count", self.entries - 1)


def simulate_lookup(lookup: LookupSpec, spec: FactorySpec,
                    assumptions: PhysicalAssumptions,
                    n_factories: int) -> ScheduleTrace:
    """Serial unary iteration: each step needs one CCZ state, one
    reaction decision, and one multi-target CNOT window over the output
    register. The slowest of the three paces the whole lookup; hallway
    windows alternate sides when both are available."""
    if n_factories < 1:
        raise ValueError("need at least one factory")
    reaction = _ns(assumptions.reaction_time_us)
    depth_ns = _ns(spec.ccz_depth_cycles * assumptions.cycle_time_us)
    access = math.ceil(_ns(Fraction(spec.d2) * assumptions.cycle_time_us)
                       / lookup.access_sides)
    supply = math.ceil(depth_ns / n_factories)
    period = max(access, reaction, supply)
    if period == access:
        binding = "access"
    elif period == reaction:
        binding = "reaction"
    else:
        binding = "supply"
    events: list[Event] = []
    t = depth_ns  # first state out of the factories
    for k in range(1, lookup.toffoli_count + 1):
        ready = depth_ns * math.ceil(k / n_factories)
        events.append(Event(ready, "state_ready", {"state": k}))
        events.append(Event(t, "consume", {"step": k, "state": k}))
        events.append(Event(t + reaction, "reaction_decision", {"step": k}))
        corridor = "left" if (lookup.access_sides == 1 or k % 2 == 1) \
            else "right"
        events.append(Event(t, "cnot_window",
                            {"step": k, "corridor": corridor}))
        if k < lookup.toffoli_count:
            t += period
    makespan = t + reaction
    events.sort(key=lambda e: (e.t_ns, EVENT_KINDS.index(e.kind),
                               sorted(e.payload.items())))
    return ScheduleTrace(
        events=tuple(events),
        makespan_ns=makespan,
        summary={
            "entries": lookup.entries,
            "toffoli_count": lookup.toffoli_count,
            "binding": binding,
            "period_ns": period,
            "access_window_ns": access,
            "reaction_ns": reaction,
            "supply_interval_ns": supply,
        },
    )


PHASES = ("spread", "lookup", "add_up", "add_down", "uncompute")


def phase_timeline(lookup: LookupSpec, adder_bits: int, spec: FactorySpec,
                   assumptions: PhysicalAssumptions,
                   n_factories: int) -> ScheduleTrace:
    """Lookup-then-add pipeline: spread the address register, run the
    lookup, ripple carries up to the apex and back down, then a
    measurement-based uncompute that consumes no Toffolis. Durations sum
    exactly to the makespan."""
    window = _ns(Fraction(spec.d2) * assumptions.cycle_time_us)
    look = simulate_lookup(lookup, spec, assumptions, n_factories)
    add = simulate_reaction_limited(build_adder_dag(adder_bits), spec,
                                    assumptions, n_factories)
    # split the adder chain at the apex node's decision
    apex = adder_bits - 2
    apex_decision = max(e.t_ns for e in add.events
                        if e.kind == "reaction_decision"
                        and e.payload["node"] == apex)
    durations = {
        "spread": window,
        "lookup": look.makespan_ns,
        "add_up": apex_decision,
        "add_down": add.makespan_ns - apex_decision,
        "uncompute": window,
    }
    toffolis = {
        "spread": 0,
        "lookup": look.summary["toffoli_count"],
        "add_up": adder_bits - 1,
        "add_down": adder_bits - 2,
        "uncompute": 0,
    }
    events = []
    t = 0
    for phase in PHASES:
        t += durations[phase]
        events.append(Event(t, "phase_boundary",
                            {"phase": phase, "toffolis": toffolis[phase]}))
    return ScheduleTrace(
        events=tuple(events),
        makespan_ns=t,
        summary={
            "durations_ns": durations,
            "toffolis": toffolis,
            "total_toffolis": sum(toffolis.values()),
        },
    )


def export_jsonl(trace: ScheduleTrace) -> str:
    """One event per line, keys sorted, so identical traces serialize to
    identical bytes."""
    lines = [json.dumps({"t_ns": e.t_ns, "kind": e.kind, **e.payload},
                        sort_keys=True)
             for e in trace.events]
    return "\n".join(lines) + "\n"
