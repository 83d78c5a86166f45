"""Spans around the calls that cross latticeplan's module boundaries.

The traced run replaces public functions in the namespaces where callers
look them up (``latticeplan.cli.ccz_rate``, ``latticeplan.scheduler
.simulate_lookup``, ``ToffoliDag.topological_order`` ...) with wrappers
that record a span: name, start, end, parent span and pass id. Counters
ride on the same wrappers. ``ToffoliDag.predecessors``, called once per
DAG node, is only counted: its time stays in its caller's self time. The
program's source is untouched, and the end-to-end run installs nothing.

Spans are recorded only while ``Tracer.active`` is set, which the pass
loop does for the duration of each ``cli.main`` call, so the benchmark's
own output checks (which call some of the same functions) stay out of
the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Per-layer metrics, in the order BENCHMARK.json lists them. A name ending
# in "_s" is the summed span time per pass: inclusive, except the ones in
# SELF_TIME, which subtract the time of their child spans.
TIME_METRICS = (
    "circuits.check_channel",
    "circuits.check_channel_by_linearity",
    "circuits.enumerate_branches",
    "circuits.run_reversible_table",
    "constructions.verify_construction",
    "constructions.verify_adder",
    "zx.run_fixture",
    "factory.select_code_distances",
    "factory.ccz_rate",
    "scheduler.build_adder_dag",
    "scheduler.topological_order",
    "scheduler.measurement_depth",
    "scheduler.simulate_reaction_limited",
    "scheduler.simulate_lookup",
    "scheduler.phase_timeline",
    "scheduler.export_jsonl",
    "layout.plan_adder_layout",
    "layout.plan_lookup_layout",
    "layout.validate_floorplan",
    "layout.export_floorplan",
)
SELF_TIME = {
    "circuits.enumerate_branches",
    "constructions.verify_construction",
    "constructions.verify_adder",
    "scheduler.simulate_reaction_limited",
    "scheduler.phase_timeline",
}
COUNT_METRICS = (
    "circuits.enumerate_branches_calls",
    "circuits.branches_checked",
    "circuits.truncated_branches",
    "constructions.adder_inputs",
    "scheduler.topological_order_calls",
    "scheduler.predecessors_calls",
    "scheduler.events",
    "scheduler.jsonl_bytes",
    "layout.export_bytes",
    "layout.tiles",
)
ROOT = "cli.main"


def per_layer_names() -> list[str]:
    return ([f"{n}_s" for n in TIME_METRICS] + list(COUNT_METRICS)
            + ["cli.self_s"])


def _report_counts(_, report) -> dict[str, int]:
    return {"circuits.branches_checked": report.branches_checked,
            "circuits.truncated_branches": report.truncated_branches}


def _trace_events(_, trace) -> dict[str, int]:
    return {"scheduler.events": len(trace.events)}


def _plan_tiles(_, plan) -> dict[str, int]:
    return {"layout.tiles": plan.width * plan.height}


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start_ns, end_ns, parent index or -1, pass id]
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.active = False
        self.pass_id = -1
        self._stack: list[int] = []

    def span(self, name: str, fn, counts=None):
        """Wrap ``fn``; ``counts(args, result)`` may return counters to
        add to the current pass."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter_ns(), 0, parent, self.pass_id]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                self._stack.pop()
            if counts is not None:
                for key, value in counts(args, result).items():
                    self.counts[(self.pass_id, key)] += value
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count its calls without a span, for a method
        called once per DAG node whose time belongs to its caller."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[(self.pass_id, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every boundary the CLI and the constructions call."""
        from latticeplan import (cli, constructions, layout, scheduler,
                                 zx)
        from latticeplan.circuits import simulate

        def patch(owner, attr, name, counts=None):
            setattr(owner, attr,
                    self.span(name, getattr(owner, attr), counts))

        patch(constructions, "check_channel", "circuits.check_channel",
              _report_counts)
        patch(constructions, "check_channel_by_linearity",
              "circuits.check_channel_by_linearity", _report_counts)
        patch(simulate, "enumerate_branches", "circuits.enumerate_branches")
        patch(constructions, "run_reversible_table",
              "circuits.run_reversible_table")
        patch(constructions, "verify_construction",
              "constructions.verify_construction")
        # the exhaustive adder check walks every (carry, a, b) triple
        patch(constructions, "verify_adder", "constructions.verify_adder",
              lambda args, _: {"constructions.adder_inputs":
                               1 << (2 * args[0])})
        patch(zx, "run_fixture", "zx.run_fixture")
        patch(cli, "select_code_distances", "factory.select_code_distances")
        patch(cli, "ccz_rate", "factory.ccz_rate")
        patch(scheduler, "build_adder_dag", "scheduler.build_adder_dag")
        patch(scheduler.ToffoliDag, "topological_order",
              "scheduler.topological_order")
        scheduler.ToffoliDag.predecessors = self.counter(
            "scheduler.predecessors_calls",
            scheduler.ToffoliDag.predecessors)
        depth = scheduler.ToffoliDag.measurement_depth.fget
        scheduler.ToffoliDag.measurement_depth = property(
            self.span("scheduler.measurement_depth", depth))
        for attr in ("simulate_reaction_limited", "simulate_lookup",
                     "phase_timeline"):
            patch(scheduler, attr, f"scheduler.{attr}", _trace_events)
        patch(scheduler, "export_jsonl", "scheduler.export_jsonl",
              lambda _, text: {"scheduler.jsonl_bytes": len(text.encode())})
        patch(layout, "plan_adder_layout", "layout.plan_adder_layout",
              _plan_tiles)
        patch(layout, "plan_lookup_layout", "layout.plan_lookup_layout",
              _plan_tiles)
        patch(layout, "validate_floorplan", "layout.validate_floorplan")
        patch(layout, "export_floorplan", "layout.export_floorplan",
              lambda _, data: {"layout.export_bytes": len(data)})

    def root(self, fn):
        """Wrap one ``cli.main`` call as the root span of its pass."""
        self.active = True
        try:
            return self.span(ROOT, fn)()
        finally:
            self.active = False

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass: seconds per span name and the
        counters. ``cli.self_s`` is the root's time outside every layer
        span."""
        total: dict[str, int] = defaultdict(int)
        child: dict[int, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        for _, (name, start, end, parent, _) in mine:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in mine:
            self_ns = end - start - child[i]
            total[name] += self_ns if name in SELF_TIME or name == ROOT \
                else end - start
            calls[name] += 1
        out = {f"{n}_s": total[n] / 1e9 for n in TIME_METRICS}
        out["cli.self_s"] = total[ROOT] / 1e9
        counts = {k: v for (p, k), v in self.counts.items() if p == pass_id}
        counts["circuits.enumerate_branches_calls"] = \
            calls["circuits.enumerate_branches"]
        counts["scheduler.topological_order_calls"] = \
            calls["scheduler.topological_order"]
        for name in COUNT_METRICS:
            out[name] = counts.get(name, 0)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "pass": pass_id}) + "\n")
