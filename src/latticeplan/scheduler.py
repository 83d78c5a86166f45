"""Reaction-limited schedules and table-lookup timing.

Event times are exact integers in nanoseconds; durations derived from the
assumptions must convert to whole nanoseconds.

A trace is columnar. Each `EventBlock` holds the events of one kind as
int64 arrays: times, a tie-break and the payload columns. An `EventTable`
keeps one block per kind, each built in (time, tie-break) order, and one
stable argsort of their concatenated times merges the blocks into trace
order. `write_jsonl` streams the trace to a file in chunks of 8192
events: a chunk takes the next run of each block's events, a slice of
its columns, and lays out their key-sorted lines as one byte matrix
(`bytefmt`), so no text of the whole trace is ever held. The adder's
Toffolis form one serial chain, and the chain and the lookup have
closed forms: the lookup and adder summaries and the phase timeline
need no events at all, and a trace is its closed form evaluated over
every node or step at once.
"""

from __future__ import annotations

import dataclasses
import io
from fractions import Fraction

import numpy as np

from .bytefmt import byte_rows, chunks, squeeze
from .exceptions import CapacityError
from .factory import FactorySpec, PhysicalAssumptions

EVENT_KINDS = ("state_ready", "consume", "reaction_decision",
               "cnot_window", "phase_boundary")

# Largest trace the simulators build; a 2^20-entry lookup has 4 * 2^20 - 4
# events. Its columns and merge permutation take about 40 bytes per event
# and the streamed export a few megabytes more: `schedule --lookup 1048576
# --out` peaks at 170 MB, and the largest adder trace under the cap, 4.19M
# events, at 168 MB (`schedule --m 699052 --out`).
MAX_TRACE_EVENTS = 1 << 22


@dataclasses.dataclass(frozen=True)
class EventBlock:
    """Events of one kind. `tie` orders the events of this kind that share
    a time; `columns` are the payload, int64 arrays or arrays of plain
    identifier strings (written without JSON escaping)."""

    kind: str
    t_ns: np.ndarray
    tie: np.ndarray
    columns: dict[str, np.ndarray]

    def line_parts(self, rows: slice) -> list:
        """The `byte_rows` parts of the events in the slice ``rows``: each
        the line ``json.dumps(event, sort_keys=True)`` writes, with its
        newline."""
        cols = {"t_ns": self.t_ns, **self.columns}
        parts = []
        sep = b"{"
        for key in sorted([*cols, "kind"]):
            parts.append(sep + b'"' + key.encode() + b'": ')
            sep = b", "
            if key == "kind":
                parts.append(b'"' + self.kind.encode() + b'"')
            elif cols[key].dtype.kind == "U":
                parts += [b'"', cols[key][rows], b'"']
            else:
                parts.append(cols[key][rows])
        parts.append(b"}\n")
        return parts


class EventTable:
    """The events of a trace: one block per kind, held in EVENT_KINDS
    order, and the permutation `order` that sorts their concatenation by
    (time, kind, tie-break).

    Each block must come in (time, tie-break) order, as every chain,
    lookup and timeline block is built; any other is refused. One stable
    argsort of the concatenated times then merges the blocks: equal
    times keep the kind order and, within a kind, the tie-break order."""

    def __init__(self, blocks: list[EventBlock]) -> None:
        self.blocks = tuple(sorted(blocks,
                                   key=lambda b: EVENT_KINDS.index(b.kind)))
        kinds = [b.kind for b in self.blocks]
        if len(set(kinds)) != len(kinds):
            raise ValueError("a trace holds one block per kind")
        for b in self.blocks:
            if not _is_sorted(b.t_ns, b.tie):
                raise ValueError(f"{b.kind} events are not in "
                                 "(time, tie-break) order")
        self.order = np.argsort(np.concatenate([b.t_ns for b in self.blocks]),
                                kind="stable")

    def __len__(self) -> int:
        return len(self.order)


def _is_sorted(t: np.ndarray, tie: np.ndarray) -> bool:
    """Whether the events are in (time, tie-break) order."""
    same = t[1:] == t[:-1]
    return bool((t[1:] >= t[:-1]).all() and (tie[1:][same]
                                               >= tie[:-1][same]).all())


@dataclasses.dataclass(frozen=True)
class ScheduleTrace:
    events: EventTable
    makespan_ns: int
    summary: dict


def check_trace_size(n_events: int, t_max: int) -> None:
    """Refuse, before allocating, a trace over the event cap or with a
    time past int64."""
    if n_events > MAX_TRACE_EVENTS:
        raise CapacityError(f"trace of {n_events} events exceeds the cap of "
                            f"{MAX_TRACE_EVENTS}")
    if t_max >= 1 << 63:
        raise CapacityError(f"event time {t_max} ns does not fit in int64")


class ToffoliDag:
    """Toffoli-level dependency graph of the ripple-carry adder: the
    serial chain 0..n-1, in which node b waits for the reaction-time
    decision of node b - 1. Its topological order is 0..n-1 and its
    measurement depth n."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("dag needs at least one node")
        self.num_nodes = num_nodes

    def predecessors(self, node: int) -> list[int]:
        return [node - 1] if node else []

    def topological_order(self) -> list[int]:
        return list(range(self.num_nodes))

    @property
    def measurement_depth(self) -> int:
        """Longest chain of nodes (nodes counted, not edges)."""
        return self.num_nodes


def adder_toffolis(bits: int) -> int:
    """Toffoli count of the ripple-carry adder, 2*bits - 3, which is also
    its depth: the Toffolis form one serial chain."""
    if bits < 2:
        raise ValueError("adder needs at least 2 bits")
    return 2 * bits - 3


def build_adder_dag(bits: int) -> ToffoliDag:
    """Ripple-carry adder Toffoli chain: 2*bits - 3 serial nodes."""
    return ToffoliDag(adder_toffolis(bits))


def _ns(us: Fraction) -> int:
    ns = us * 1000
    if ns.denominator != 1:
        raise ValueError(f"duration {us} us is not a whole nanosecond")
    return int(ns)


def _ceil_div(a, b):
    return -(-a // b)


def _timing(spec: FactorySpec, assumptions: PhysicalAssumptions,
            n_factories: int) -> tuple[int, int]:
    """The factory depth and the reaction time in nanoseconds."""
    if n_factories < 1:
        raise ValueError("need at least one factory")
    reaction = _ns(assumptions.reaction_time_us)
    return _ns(spec.ccz_depth_cycles * assumptions.cycle_time_us), reaction


def chain_decision(j: int | np.ndarray, depth_ns: int, reaction_ns: int,
                   n_factories: int) -> int | np.ndarray:
    """Decision time of the j-th node (from 1) of a serial chain fed by
    `n_factories` factories, the closed form of the recurrence
    dec_j = max(dec_{j-1}, D * ceil(j / F)) + R with dec_0 = 0. ``j`` is
    an int or an int64 array of node numbers, and the result is of the
    same kind.

    Unrolled, dec_j is the largest D * ceil(i / F) + (j - i + 1) * R over
    i <= j. Within one batch b = ceil(i / F) its first node i = (b-1)F + 1
    is the largest, and D * b + (j - (b - 1) * F) * R is linear in b, so
    the largest term is at b = 1, D + j * R, or at b = ceil(j / F), which
    exceeds it by (b - 1) * (D - F * R): supply binds only while one
    batch takes longer to make than its F reactions."""
    stall = max(0, depth_ns - n_factories * reaction_ns)
    return (depth_ns + j * reaction_ns
            + (_ceil_div(j, n_factories) - 1) * stall)


def adder_makespan(bits: int, spec: FactorySpec,
                   assumptions: PhysicalAssumptions, n_factories: int) -> int:
    """Makespan of the ripple-carry adder from the chain's closed form, the
    one `simulate_reaction_limited` finds on `build_adder_dag(bits)`."""
    depth_ns, reaction = _timing(spec, assumptions, n_factories)
    return chain_decision(adder_toffolis(bits), depth_ns, reaction,
                          n_factories)


def simulate_reaction_limited(dag: ToffoliDag, spec: FactorySpec,
                              assumptions: PhysicalAssumptions,
                              n_factories: int) -> ScheduleTrace:
    """Consume one CCZ state per node; each node's Pauli-frame decision
    lands one reaction time after its state and all predecessor decisions
    are available. Factories run flat out with unbounded buffering.

    Node j - 1 of the chain takes state j, and its decision is the closed
    form `chain_decision`, evaluated over every node at once. The last
    decision, the makespan, is the latest event, so the trace is checked
    against the cap before any column is allocated."""
    depth_ns, reaction = _timing(spec, assumptions, n_factories)
    n = dag.num_nodes
    makespan = chain_decision(n, depth_ns, reaction, n_factories)
    check_trace_size(3 * n, makespan)
    # with F >= n every state is in the first batch and factory j - 1
    # makes state j, so min(F, n) gives the same columns in int64
    f = min(n_factories, n)
    state = np.arange(1, n + 1, dtype=np.int64)
    nodes = state - 1
    decision = chain_decision(state, depth_ns, reaction, f)
    # a state_ready tie shares a batch, where factory order is state order
    events = EventTable([
        EventBlock("state_ready", depth_ns * _ceil_div(state, f), state,
                   {"state": state, "factory": nodes % f}),
        EventBlock("consume", decision - reaction, nodes,
                   {"node": nodes, "state": state}),
        EventBlock("reaction_decision", decision, nodes, {"node": nodes}),
    ])
    busy = n * depth_ns
    return ScheduleTrace(
        events=events,
        makespan_ns=makespan,
        summary={
            "nodes": n,
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
    access_sides: int = 2
    toffoli_count: int | None = None

    def __post_init__(self) -> None:
        if self.entries < 2:
            raise ValueError("lookup needs at least 2 entries")
        if self.access_sides not in (1, 2):
            raise ValueError("access_sides must be 1 or 2")
        if self.toffoli_count is None:
            # unary-iteration cost model: one Toffoli per entry after the
            # first
            object.__setattr__(self, "toffoli_count", self.entries - 1)
        if self.toffoli_count < 1:
            raise ValueError("toffoli_count must be positive")


@dataclasses.dataclass(frozen=True)
class LookupPace:
    """Pace of a serial unary iteration. Step k (from 1) starts at
    depth_ns + (k - 1) * period_ns, the period being the slowest of the
    access window, the reaction time and the supply interval; the lookup
    ends one reaction after its last step starts."""

    steps: int
    depth_ns: int
    access_window_ns: int
    reaction_ns: int
    supply_interval_ns: int

    @property
    def period_ns(self) -> int:
        return max(self.access_window_ns, self.reaction_ns,
                   self.supply_interval_ns)

    @property
    def binding(self) -> str:
        if self.period_ns == self.access_window_ns:
            return "access"
        if self.period_ns == self.reaction_ns:
            return "reaction"
        return "supply"

    @property
    def makespan_ns(self) -> int:
        return (self.depth_ns + (self.steps - 1) * self.period_ns
                + self.reaction_ns)


def lookup_pace(lookup: LookupSpec, spec: FactorySpec,
                assumptions: PhysicalAssumptions,
                n_factories: int) -> LookupPace:
    """The lookup's step pace: hallway windows take d2 cycles, shared
    between the hallways when both sides are available; factories hand
    out one state per depth / F on average."""
    depth_ns, reaction = _timing(spec, assumptions, n_factories)
    window = _ns(Fraction(spec.d2) * assumptions.cycle_time_us)
    return LookupPace(
        steps=lookup.toffoli_count,
        depth_ns=depth_ns,
        access_window_ns=_ceil_div(window, lookup.access_sides),
        reaction_ns=reaction,
        supply_interval_ns=_ceil_div(depth_ns, n_factories))


def simulate_lookup(lookup: LookupSpec, spec: FactorySpec,
                    assumptions: PhysicalAssumptions,
                    n_factories: int) -> ScheduleTrace:
    """Serial unary iteration: each step needs one CCZ state, one
    reaction decision, and one multi-target CNOT window over the output
    register. The slowest of the three paces the whole lookup; hallway
    windows alternate sides when both are available."""
    pace = lookup_pace(lookup, spec, assumptions, n_factories)
    steps = pace.steps
    check_trace_size(4 * steps, pace.makespan_ns)
    k = np.arange(1, steps + 1, dtype=np.int64)
    start = pace.depth_ns + (k - 1) * pace.period_ns
    ready = pace.depth_ns * _ceil_div(k, min(n_factories, steps))
    if lookup.access_sides == 1:
        corridor = np.full(steps, "left")
    else:
        corridor = np.where(k % 2 == 1, "left", "right")
    events = EventTable([
        EventBlock("state_ready", ready, k, {"state": k}),
        EventBlock("consume", start, k, {"step": k, "state": k}),
        EventBlock("reaction_decision", start + pace.reaction_ns, k,
                   {"step": k}),
        EventBlock("cnot_window", start, k,
                   {"step": k, "corridor": corridor}),
    ])
    return ScheduleTrace(
        events=events,
        makespan_ns=pace.makespan_ns,
        summary={
            "entries": lookup.entries,
            "toffoli_count": steps,
            "binding": pace.binding,
            "period_ns": pace.period_ns,
            "access_window_ns": pace.access_window_ns,
            "reaction_ns": pace.reaction_ns,
            "supply_interval_ns": pace.supply_interval_ns,
        },
    )


PHASES = ("spread", "lookup", "add_up", "add_down", "uncompute")


def phase_timeline(lookup: LookupSpec, adder_bits: int, spec: FactorySpec,
                   assumptions: PhysicalAssumptions,
                   n_factories: int) -> ScheduleTrace:
    """Lookup-then-add pipeline: spread the address register, run the
    lookup, ripple carries up to the apex and back down, then a
    measurement-based uncompute that consumes no Toffolis. Durations sum
    exactly to the makespan. The lookup and the adder chain come from
    their closed forms; the chain is split at the apex node's decision."""
    nodes = adder_toffolis(adder_bits)
    window = _ns(Fraction(spec.d2) * assumptions.cycle_time_us)
    pace = lookup_pace(lookup, spec, assumptions, n_factories)
    apex = chain_decision(adder_bits - 1, pace.depth_ns, pace.reaction_ns,
                          n_factories)
    last = chain_decision(nodes, pace.depth_ns, pace.reaction_ns,
                          n_factories)
    durations = {
        "spread": window,
        "lookup": pace.makespan_ns,
        "add_up": apex,
        "add_down": last - apex,
        "uncompute": window,
    }
    toffolis = {
        "spread": 0,
        "lookup": pace.steps,
        "add_up": adder_bits - 1,
        "add_down": adder_bits - 2,
        "uncompute": 0,
    }
    makespan = sum(durations.values())
    check_trace_size(len(PHASES), makespan)
    ends = np.cumsum([durations[p] for p in PHASES])
    events = EventTable([EventBlock(
        "phase_boundary", ends, np.arange(len(PHASES)),
        {"phase": np.array(PHASES),
         "toffolis": np.array([toffolis[p] for p in PHASES]),
         })])
    return ScheduleTrace(
        events=events,
        makespan_ns=makespan,
        summary={
            "durations_ns": durations,
            "toffolis": toffolis,
            "total_toffolis": sum(toffolis.values()),
        },
    )


def write_jsonl(trace: ScheduleTrace, fh) -> None:
    """Write the trace to the binary file ``fh``, one event per line with
    its keys sorted, so identical traces serialize to identical bytes.
    Events go out one `bytefmt.chunks` slice at a time, in trace order;
    negative values are refused.

    In trace order each block's events come in block order, so the
    events a chunk takes from one block are its next run: one cursor per
    block turns them into a slice."""
    table = trace.events
    sizes = [len(b.t_ns) for b in table.blocks]
    block_ids = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    cursor = [0] * len(sizes)
    for part in chunks(len(table)):
        block_of = block_ids[table.order[part]]
        lines = []
        for i, block in enumerate(table.blocks):
            at = np.flatnonzero(block_of == i)
            if len(at):
                mine = slice(cursor[i], cursor[i] + len(at))
                cursor[i] = mine.stop
                lines.append((at, byte_rows(block.line_parts(mine))))
        chunk = np.zeros((len(block_of), max(m.shape[1] for _, m in lines)),
                         dtype=np.uint8)
        for at, m in lines:
            chunk[at, :m.shape[1]] = m
        fh.write(squeeze(chunk))


def export_jsonl(trace: ScheduleTrace) -> str:
    """The text `write_jsonl` writes."""
    buf = io.BytesIO()
    write_jsonl(trace, buf)
    return buf.getvalue().decode()
