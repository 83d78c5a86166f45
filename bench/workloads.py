"""The three workloads: what one pass runs and how its outputs are checked.

A pass is a fixed list of ``latticeplan`` command lines. Its inputs shift
with the pass index and the workload seed, so no pass in a process reuses
an input an earlier pass used, while the amount of work stays the same:
``verify`` draws its random states from ``LATTICEPLAN_SEED``, the
planning workloads read a reaction time between 10.001 and 10.997 us from
an assumptions file and ``estimate`` a volume from 1e8 up. None of the
shifts changes an event, branch or tile count; only the byte count of the
traces moves with the digits of the event times.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from checks import (ADDER_BITS, CONSTRUCTION_SHAPE, RANDOM_COUNT, Tally,
                    check_adder_plan, check_adder_schedule, check_adder_table,
                    check_estimate, check_lookup_plan, check_lookup_schedule,
                    check_phase_timeline, check_probabilities,
                    check_verify_doc, factories_needed)


@dataclasses.dataclass
class Op:
    """One command line of a pass and, once run, its exit code and
    standard output."""

    argv: list[str]
    env: dict[str, str] = dataclasses.field(default_factory=dict)
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""

    def json(self):
        return json.loads(self.stdout)


def _lines(path: Path):
    with open(path, encoding="utf-8") as fh:
        yield from fh


def _mutated(path: Path, index: int, edit):
    """The lines of a trace file with line ``index`` replaced by
    ``edit(event)``, or dropped when ``edit`` returns None."""
    for i, line in enumerate(_lines(path)):
        if i != index:
            yield line
            continue
        changed = edit(json.loads(line))
        if changed is not None:
            yield json.dumps(changed, sort_keys=True) + "\n"


def _with(doc: dict, **changes) -> dict:
    return {**doc, **changes}


class Workload:
    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.work = root / ".bench_out" / self.name
        self.work.mkdir(parents=True, exist_ok=True)

    def shift(self, k: int) -> int:
        """0 for the first pass of every run, so that its counts (the
        trace bytes depend on the digits of every event time) repeat from
        run to run; then values in 1..996, distinct for every pass index
        below 997, in an order the seed sets."""
        return k * (1 + (self.seed * 7919 + 13) % 996) % 997

    def reaction_ns(self, k: int) -> int:
        return 10_001 + self.shift(k)

    def config(self, k: int) -> str:
        """Assumptions file of pass k: the baseline with its reaction time
        shifted by a few nanoseconds."""
        path = self.work / "assumptions.cfg"
        path.write_text(f"reaction_time_us = {self.reaction_ns(k)}/1000\n",
                        encoding="utf-8")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.work / name)


class Verify(Workload):
    """The criterion-01/02 proof set in one ``verify`` command."""

    name = "verify"
    NAMES = list(CONSTRUCTION_SHAPE) + [f"adder-{b}" for b in ADDER_BITS]

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.fixture = root / "fixtures" / "delayed_choice_cz.json"
        doc = json.loads(self.fixture.read_text(encoding="utf-8"))
        self.zx_cases = len(doc["cases"])

    def state_seed(self, k: int) -> int:
        return self.seed * 1000 + k

    def ops(self, k: int) -> list[Op]:
        return [Op(["verify", "--json", "--random-count", str(RANDOM_COUNT),
                    "--zx", str(self.fixture), *self.NAMES],
                   env={"LATTICEPLAN_SEED": str(self.state_seed(k))})]

    def check(self, k: int, ops: list[Op], tally: Tally) -> None:
        from latticeplan import constructions
        from latticeplan.circuits import (enumerate_branches,
                                          run_reversible_table)
        doc = ops[0].json()
        tally.check("verify results", check_verify_doc, doc, self.NAMES,
                    self.zx_cases)
        bad = [dict(row) for row in doc]
        bad[2]["detail"] = bad[2]["detail"].replace(" branches", "0 branches")
        tally.rejects("verify results", check_verify_doc, bad, self.NAMES,
                      self.zx_cases)

        for bits in ADDER_BITS:
            circuit, spec = constructions.build_cuccaro_adder(bits)
            table = run_reversible_table(circuit)
            tally.check(f"adder-{bits} table", check_adder_table, table, spec)
        swapped = table.copy()
        swapped[[5, 6]] = swapped[[6, 5]]
        tally.rejects("adder table", check_adder_table, swapped, spec)

        rng = np.random.default_rng(self.state_seed(k))
        built = {name: constructions.CONSTRUCTIONS[name]()
                 for name in CONSTRUCTION_SHAPE}
        for name in ("cz-apply", "cz-skip", "autoccz", "toffoli"):
            c = built[name]
            dim = 1 << len(c.input_qubits)
            state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            branches = enumerate_branches(c.circuit,
                                          state / np.linalg.norm(state))
            tally.check(f"{name} probabilities", check_probabilities,
                        branches)
        tally.rejects("probabilities", check_probabilities,
                      [dataclasses.replace(b, probability=b.probability * 0.9)
                       for b in branches])

        # Negative controls of the verifier itself: a construction checked
        # against a wrong target must FAIL. Basis inputs alone cannot tell
        # CZ from the identity (each input is compared up to its own
        # phase), so one random input rides along. mux-skip is left out:
        # the linearity checker's failure report is quadratic in the
        # failing branches, and its 16384 of them take about 28 s.
        wrong = {"cz-apply": np.eye(4), "cz-skip": constructions.CZ_MATRIX,
                 "autoccz": np.eye(8), "toffoli": constructions.CCZ_MATRIX,
                 "mux-apply": np.eye(4)}
        for name, target in wrong.items():
            report = constructions.verify_construction(
                dataclasses.replace(built[name],
                                    target=target.astype(np.complex128)),
                random_count=1, seed=self.state_seed(k))
            tally.record(f"{name} against a wrong target",
                         ["verifier passed a wrong target"]
                         if report.ok else [])


class AdderPlan(Workload):
    """The depth-limited case: ripple-carry adder estimate, schedules and
    floorplans."""

    name = "adder-plan"
    SCHEDULES = ((1000, 14), (1000, 1), (4000, 28))
    PLANS = ((1000, 14), (4000, 28))

    def volume(self, k: int) -> float:
        return 1e8 * (1 + self.shift(k) / 10_000)

    def ops(self, k: int) -> list[Op]:
        cfg = self.config(k)
        ops = [Op(["estimate", "--json", "--volume", repr(self.volume(k))])]
        for m, f in self.SCHEDULES:
            ops.append(Op(["schedule", "--json", "--config", cfg, "--m",
                           str(m), "--factories", str(f), "--out",
                           self.out(f"adder-{m}-{f}.jsonl")]))
        for m, f in self.PLANS:
            for ext in ("svg", "json"):
                ops.append(Op(["layout", "--json", "--config", cfg, "--m",
                               str(m), "--factories", str(f), "--out",
                               self.out(f"plan-{m}-{f}.{ext}")]))
        return ops

    def check(self, k: int, ops: list[Op], tally: Tally) -> None:
        r = self.reaction_ns(k)
        est = ops[0].json()
        tally.check("estimate", check_estimate, est, self.volume(k))
        tally.rejects("estimate", check_estimate,
                      _with(est, level2_rate_khz="200/26"), self.volume(k))

        for op, (m, f) in zip(ops[1:], self.SCHEDULES):
            path = Path(op.argv[-1])
            tally.check(f"schedule m={m} F={f}", check_adder_schedule,
                        op.json(), _lines(path), m, f, r)
        doc = ops[2].json()
        path = Path(ops[2].argv[-1])
        tally.rejects("adder makespan", check_adder_schedule,
                      _with(doc, makespan_ns=doc["makespan_ns"] + 1),
                      _lines(path), 1000, 1, r)
        tally.rejects("adder trace", check_adder_schedule, doc,
                      _mutated(path, 3000, lambda e: _with(
                          e, t_ns=e["t_ns"] + 1)), 1000, 1, r)
        tally.rejects("adder trace", check_adder_schedule, doc,
                      _mutated(path, 10, lambda e: None), 1000, 1, r)

        for i, (m, f) in enumerate(self.PLANS):
            svg_op, json_op = ops[4 + 2 * i], ops[5 + 2 * i]
            svg = Path(svg_op.argv[-1]).read_bytes()
            plan = Path(json_op.argv[-1]).read_bytes()
            tally.check(f"layout m={m} F={f}", check_adder_plan,
                        json_op.json(), plan, svg, m, f)
            if i == 0:
                doc = json_op.json()
                short = json.loads(plan)
                short["grid"][0] = ["unused"] * short["width"]
                tally.rejects("layout", check_adder_plan, doc,
                              json.dumps(short).encode(), svg, m, f)
                tally.rejects("layout", check_adder_plan,
                              _with(doc, width=doc["width"] + 1), plan, svg,
                              m, f)


class LookupPlan(Workload):
    """The Clifford-limited case: QROM lookup schedules, one per binding
    pace, the five-phase timeline, and a register floorplan."""

    name = "lookup-plan"
    # entries, flags, hallway sides, factory count (None: the default for
    # the reaction time), d2, the pace that binds
    CASES = (
        (65536, [], 2, None, 27, "access"),
        (16384, ["--sides", "1"], 1, None, 27, "access"),
        (16384, ["--factories", "1"], 2, 1, 27, "supply"),
        (16384, ["--d2", "15"], 2, None, 15, "reaction"),
    )
    TIMELINE = (65536, 1000)
    ROWS = 1000

    def ops(self, k: int) -> list[Op]:
        cfg = self.config(k)
        ops = []
        for i, (entries, flags, *_) in enumerate(self.CASES):
            ops.append(Op(["schedule", "--json", "--config", cfg, "--lookup",
                           str(entries), *flags, "--out",
                           self.out(f"lookup-{i}.jsonl")]))
        entries, m = self.TIMELINE
        ops.append(Op(["schedule", "--json", "--config", cfg, "--lookup",
                       str(entries), "--m", str(m), "--out",
                       self.out("timeline.jsonl")]))
        ops.append(Op(["layout", "--json", "--config", cfg, "--rows",
                       str(self.ROWS), "--out", self.out("register.svg")]))
        return ops

    def check(self, k: int, ops: list[Op], tally: Tally) -> None:
        r = self.reaction_ns(k)
        for op, (entries, _, sides, f, d2, binding) in zip(ops, self.CASES):
            f = f or factories_needed(17, d2, r)
            tally.check(f"lookup E={entries} {binding}",
                        check_lookup_schedule, op.json(),
                        _lines(Path(op.argv[-1])), entries, sides, f, d2, r,
                        binding)
        op = ops[2]
        doc, path = op.json(), Path(op.argv[-1])
        args = (16384, 2, 1, 27, r, "supply")
        tally.rejects("lookup binding", check_lookup_schedule,
                      _with(doc, binding="access"), _lines(path), *args)
        tally.rejects("lookup makespan", check_lookup_schedule,
                      _with(doc, makespan_ns=doc["makespan_ns"] - 1),
                      _lines(path), *args)
        tally.rejects("lookup hallways", check_lookup_schedule, doc,
                      _mutated(path, 6, lambda e: _with(e, corridor="left")
                               if e["kind"] == "cnot_window" else
                               _with(e, t_ns=e["t_ns"] + 1)), *args)
        tally.rejects("lookup trace", check_lookup_schedule, doc,
                      _mutated(path, 4000, lambda e: None), *args)

        entries, m = self.TIMELINE
        f = factories_needed(17, 27, r)
        op = ops[4]
        doc, path = op.json(), Path(op.argv[-1])
        tally.check("phase timeline", check_phase_timeline, doc,
                    _lines(path), entries, m, f, r)
        tally.rejects("phase timeline", check_phase_timeline,
                      _with(doc, total_toffolis=doc["total_toffolis"] + 1),
                      _lines(path), entries, m, f, r)
        tally.rejects("phase timeline", check_phase_timeline, doc,
                      _mutated(path, 1, lambda e: _with(
                          e, t_ns=e["t_ns"] - 1)), entries, m, f, r)

        op = ops[5]
        svg = Path(op.argv[-1]).read_bytes()
        doc = op.json()
        tally.check("register plan", check_lookup_plan, doc, svg, self.ROWS)
        tally.rejects("register plan", check_lookup_plan, doc,
                      svg.replace(b"<rect ", b"<path ", 1), self.ROWS)


WORKLOADS = {w.name: w for w in (Verify, AdderPlan, LookupPlan)}
