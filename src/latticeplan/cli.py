"""Command line front end.

Exit codes: 0 all checks passed, 1 a check or validation failed, 2 usage
or configuration error. Each command imports the modules it runs in its
handler, so `schedule`, `layout` and `estimate` load no circuit code, and
`verify` loads the ZX checker only for `--zx`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from fractions import Fraction

from .exceptions import CapacityError
from .factory import (FactorySpec, PhysicalAssumptions, ccz_rate,
                      format_khz, format_ms, parse_assumptions_file,
                      select_code_distances)

DEFAULT_SEED = 11


def _positive_int(minimum: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}")
        return value
    return parse


def _finite_float(what: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be a number")
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{what} must be finite")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as its one error line; ``-h`` prints the
    usage. Subcommand parsers are of the same class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser = _Parser(
        prog="latticeplan",
        description="Verify adaptive lattice-surgery constructions and "
                    "plan factory throughput, schedules, and floorplans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="simulate constructions against their targets")
    p_verify.add_argument(
        "names", nargs="*", default=[],
        help="construction names or 'all' (default); set LATTICEPLAN_SEED "
             "to vary the random-state seed")
    p_verify.add_argument("--zx", metavar="FILE",
                          help="run cases from a graph fixture file")
    p_verify.add_argument("--random-count",
                          type=_positive_int(0, "random-count"), default=3,
                          help="random input states per construction")

    p_est = sub.add_parser(
        "estimate", parents=[common], help="factory rates, counts, and qubit totals")
    p_est.add_argument("--volume", type=_finite_float("volume"), default=1e8,
                       help="target Toffoli count for distance selection")
    p_est.add_argument("--d1", type=_positive_int(3, "d1"))
    p_est.add_argument("--d2", type=_positive_int(3, "d2"))

    p_sched = sub.add_parser(
        "schedule", parents=[common], help="reaction-limited makespans and traces")
    p_sched.add_argument("--m", type=_positive_int(2, "m"),
                         help="adder register size in bits")
    p_sched.add_argument("--lookup", type=_positive_int(2, "lookup"),
                         help="table size for a lookup schedule")
    p_sched.add_argument("--sides", type=int, choices=(1, 2),
                         help="lookup access hallways (default 2)")
    p_sched.add_argument("--factories",
                         type=_positive_int(1, "factories"))
    p_sched.add_argument("--d1", type=_positive_int(3, "d1"))
    p_sched.add_argument("--d2", type=_positive_int(3, "d2"))

    p_lay = sub.add_parser(
        "layout", parents=[common], help="floorplans with validation and export")
    p_lay.add_argument("--m", type=_positive_int(2, "m"),
                       help="adder register size in bits")
    p_lay.add_argument("--rows", type=_positive_int(1, "rows"),
                       help="lookup register rows")
    p_lay.add_argument("--factories", type=_positive_int(2, "factories"),
                       help="adder factory count (default 14)")
    p_lay.add_argument("--d1", type=_positive_int(3, "d1"))
    p_lay.add_argument("--d2", type=_positive_int(3, "d2"))
    for p in (p_est, p_sched, p_lay):
        p.add_argument("--config", metavar="FILE",
                       help="assumptions file (key = value lines)")
    for p in (p_sched, p_lay):
        p.add_argument("--out", metavar="FILE",
                       help="write trace or floorplan to FILE")
    return parser


def _load_setup(args) -> tuple[PhysicalAssumptions, FactorySpec, bool]:
    """Returns assumptions, the factory spec, and whether the distances
    came from the user (config file or flags) rather than the defaults."""
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            assumptions, overrides = parse_assumptions_file(fh.read())
    else:
        assumptions = PhysicalAssumptions()
    # a flag overrides the file's d1/d2, its only override keys
    spec_kwargs = {**overrides, **{key: getattr(args, key) for key in
                                   ("d1", "d2") if getattr(args, key)}}
    return assumptions, FactorySpec(**spec_kwargs), bool(spec_kwargs)


def _adder_bits(name: str) -> int | None:
    """N of a canonical "adder-N" name (ASCII digits, no leading zero),
    else None; ``int`` alone would also take signs, spaces, underscores
    and non-ASCII digits."""
    suffix = name[len("adder-"):] if name.startswith("adder-") else ""
    if suffix.isascii() and suffix.isdigit() and str(int(suffix)) == suffix:
        return int(suffix)
    return None


def _cmd_verify(args) -> int:
    from . import constructions
    seed = int(os.environ.get("LATTICEPLAN_SEED", DEFAULT_SEED))
    names = list(args.names)
    if not names or names == ["all"]:
        names = list(constructions.CONSTRUCTIONS) + ["adder-2", "adder-3",
                                                     "adder-4"]
    results = []
    for name in names:
        if name in constructions.CONSTRUCTIONS:
            report = constructions.verify_construction(
                constructions.CONSTRUCTIONS[name](),
                random_count=args.random_count, seed=seed)
            results.append((name, report.ok, "; ".join(
                [f"{report.branches_checked} branches, "
                 f"max err {report.max_amplitude_error:.1e}",
                 *report.failures[:1]])))
        elif (bits := _adder_bits(name)) is not None:
            ok, msg = constructions.verify_adder(bits)
            results.append((name, ok, msg))
        else:
            print(f"error: unknown construction {name!r}", file=sys.stderr)
            return 2
    if args.zx:
        from . import zx
        with open(args.zx, encoding="utf-8") as fh:
            for label, ok in zx.run_fixture(fh.read()):
                results.append((f"zx {label}", ok, "graph case"))
    if args.json:
        doc = [{"name": n, "ok": ok, "detail": d} for n, ok, d in results]
        print(json.dumps(doc, sort_keys=True))
    else:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cmd_estimate(args) -> int:
    assumptions, spec, user_distances = _load_setup(args)
    flagged = None
    if not user_distances:
        selection = select_code_distances(assumptions, args.volume)
        spec = FactorySpec(d1=selection.d1, d2=selection.d2)
        flagged = selection.t_factory_fallback
    report = ccz_rate(spec, assumptions)
    if args.json:
        doc = {
            "d1": spec.d1,
            "d2": spec.d2,
            "level2_rate_khz": _fraction_str(report.level2_rate_khz),
            "level1_bound_khz": _fraction_str(report.level1_bound_khz),
            "effective_rate_khz": _fraction_str(report.effective_rate_khz),
            "limiting_factor": report.limiting_factor,
            "factories_needed": report.factories_needed,
            "physical_qubits_total": report.physical_qubits_total,
            "output_state_infidelity": "not modeled",
            "t_factory_fallback": bool(flagged),
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    print(f"code distances:        d1={spec.d1} d2={spec.d2}")
    print(f"level-2 CCZ rate:      "
          f"{format_khz(report.level2_rate_khz)} kHz")
    print(f"level-1 T bound:       "
          f"{format_khz(report.level1_bound_khz)} kHz")
    print(f"effective rate:        "
          f"{format_khz(report.effective_rate_khz)} kHz "
          f"({report.limiting_factor} limited)")
    print(f"factories needed:      {report.factories_needed}")
    print(f"physical qubits:       {report.physical_qubits_total}")
    print("output state infidelity: not modeled")
    if flagged:
        print("advisory: volume large enough that T factories with "
              "catalyzed CCZ production may be cheaper")
    return 0


def _cmd_schedule(args) -> int:
    from . import scheduler
    assumptions, spec, _ = _load_setup(args)
    n = args.factories
    if n is None:
        n = ccz_rate(spec, assumptions).factories_needed
    if args.m is None and args.lookup is None:
        print("error: schedule needs --m and/or --lookup", file=sys.stderr)
        return 2
    if args.lookup is None and args.sides is not None:
        print("error: --sides needs --lookup", file=sys.stderr)
        return 2
    if args.lookup is not None:
        lookup = scheduler.LookupSpec(entries=args.lookup,
                                      access_sides=args.sides or 2)
    if args.m is not None and args.lookup is not None:
        trace = scheduler.phase_timeline(lookup, args.m, spec, assumptions, n)
        makespan = trace.makespan_ns
        summary = {
            "kind": "phase_timeline",
            "factories": n,
            "total_toffolis": trace.summary["total_toffolis"],
        }
        lines = [f"factories:      {n}"]
        for phase in scheduler.PHASES:
            dur = trace.summary["durations_ns"][phase]
            lines.append(f"{phase + ':':<15} {format_ms(dur)}")
    elif args.lookup is not None:
        # the summary comes from the closed form; events only for --out
        pace = scheduler.lookup_pace(lookup, spec, assumptions, n)
        trace = scheduler.simulate_lookup(lookup, spec, assumptions, n) \
            if args.out else None
        makespan = pace.makespan_ns
        summary = {
            "kind": "lookup",
            "factories": n,
            "binding": pace.binding,
            "toffoli_count": pace.steps,
        }
        lines = [
            f"toffoli count:  {pace.steps}",
            f"factories:      {n}",
            f"binding:        {pace.binding}",
        ]
    else:
        # the summary comes from the closed form; events only for --out
        depth = scheduler.adder_toffolis(args.m)
        makespan = scheduler.adder_makespan(args.m, spec, assumptions, n)
        trace = scheduler.simulate_reaction_limited(
            scheduler.build_adder_dag(args.m), spec, assumptions, n) \
            if args.out else None
        summary = {
            "kind": "adder",
            "factories": n,
            "toffoli_depth": depth,
        }
        lines = [
            f"toffoli depth:  {depth}",
            f"factories:      {n}",
        ]
    summary["makespan_ns"] = makespan
    lines.append(f"makespan:       {format_ms(makespan)}")
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print("\n".join(lines))
    if args.out:
        with open(args.out, "wb") as fh:
            scheduler.write_jsonl(trace, fh)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_layout(args) -> int:
    from . import layout
    _, spec, _ = _load_setup(args)
    if (args.m is None) == (args.rows is None):
        print("error: layout needs exactly one of --m or --rows",
              file=sys.stderr)
        return 2
    if args.m is None and args.factories is not None:
        print("error: --factories needs --m", file=sys.stderr)
        return 2
    if args.m is not None:
        plan = layout.plan_adder_layout(args.m, spec, args.factories or 14)
    else:
        plan = layout.plan_lookup_layout(args.rows, spec)
    try:
        layout.validate_floorplan(plan)
    except ValueError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"width": plan.width, "height": plan.height,
                          "meta": plan.meta}, sort_keys=True))
    else:
        print(f"plan:           {plan.meta['kind']}")
        print(f"grid:           {plan.width} x {plan.height}")
        print(f"factories:      {len(plan.factories)}")
    if args.out:
        fmt = "svg" if args.out.endswith(".svg") else "json"
        with open(args.out, "wb") as fh:
            layout.write_floorplan(plan, fmt, fh)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _release_freed_memory() -> None:
    """Hand the free pages of the C heap back to the OS (glibc's
    `malloc_trim`; a no-op where the C library has none).

    Once glibc frees a block it had mapped on its own, it serves requests
    up to that size from the heap, so the megabyte-sized arrays of a trace
    or floorplan end up there, and the pages they free stay resident. How
    much stays depends on where each block landed, that is on every
    allocation the process made before: running `lookup-plan`'s six
    commands again and again in one process peaked at 47.4 or at 53.1 MB
    depending only on that history. Trimming before and after each
    command keeps memory that the caller or an earlier command freed from
    being counted against it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"verify": _cmd_verify, "estimate": _cmd_estimate,
               "schedule": _cmd_schedule, "layout": _cmd_layout}
    _release_freed_memory()
    try:
        return command[args.command](args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # ConfigError and json.JSONDecodeError are ValueErrors
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _release_freed_memory()


if __name__ == "__main__":
    sys.exit(main())
