"""Benchmark of latticeplan's three jobs: verify, adder-plan, lookup-plan.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

The process drives ``latticeplan.cli.main(argv)`` the way a user's command
line does, pass after pass, until ``--seconds`` have gone by, and checks
every pass's outputs (see checks.py). The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` operations
(CLI commands plus checks), and the metrics.

``--trace 0`` reports the end-to-end metrics: ``pass_s``, the median wall
time of a pass's CLI calls; ``setup_s``, the median time a fresh process
takes from its start to being ready for the first pass (imports and input
generation), over several processes; ``peak_rss_mb`` of this process.
``--trace 1`` runs the same passes with spans at the module boundaries
(tracing.py) and reports the per-layer metrics: times as the median over
passes, counts of the first pass. It also writes the spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
# One BLAS thread, set before numpy is imported anywhere: two-thread
# OpenBLAS costs about 1.6x the CPU on the wide checks for no wall-time
# gain on two cores, and its scheduling adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROCESSES = 7


def _import_program():
    """Import latticeplan from this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "latticeplan" / "cli.py").is_file():
        raise SystemExit(f"error: no latticeplan sources under {src}")
    sys.path.insert(0, str(src))
    from latticeplan import cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: latticeplan imported from {cli.__file__}")
    return cli


def _measure_setup(argv: list[str]) -> float:
    """Seconds from starting a fresh benchmark process to its report that
    imports and the first pass's inputs are done."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, *argv, "--setup-only"],
                          stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit("error: set-up process failed")
    return elapsed


def _run_op(cli, op) -> float:
    """Run one command line in-process; returns its wall time."""
    os.environ.update(op.env)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            op.rc = cli.main(op.argv)
        except SystemExit as exc:
            op.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            op.rc = -1
    elapsed = time.perf_counter() - start
    op.stdout, op.stderr = out.getvalue(), err.getvalue()
    for key in op.env:
        del os.environ[key]
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "adder-plan", "lookup-plan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = _import_program()
    from checks import Tally
    from tracing import Tracer, per_layer_names
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    workload.ops(0)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    own = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    setup = [_measure_setup(own) for _ in range(SETUP_PROCESSES)]

    tracer = Tracer()
    if args.trace:
        tracer.install()
    tally = Tally()
    pass_times: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    k = 0
    while not pass_times or time.perf_counter() - start < args.seconds:
        ops = workload.ops(k)
        gc.collect()
        tracer.pass_id = k
        elapsed = 0.0
        for op in ops:
            if args.trace:
                elapsed += tracer.root(lambda: _run_op(cli, op))
            else:
                elapsed += _run_op(cli, op)
        pass_times.append(elapsed)
        for op in ops:
            tally.record(" ".join(op.argv[:2]),
                         [] if op.rc == 0 else
                         [f"exit {op.rc}: {op.stderr.strip()[-300:]}"])
        try:
            workload.check(k, ops, tally)
        except Exception as exc:  # an output the checks cannot even read
            tally.record(f"checks of pass {k}",
                         [f"{type(exc).__name__}: {exc}"])
        if args.trace:
            layers.append(tracer.pass_metrics(k))
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        # times: the median pass; counts: the first pass, whose inputs
        # are the same in every run
        metrics = {
            name: {"value": statistics.median(p[name] for p in layers),
                   "unit": "s"} if name.endswith("_s") else
                  {"value": layers[0][name], "unit": "count"}
            for name in per_layer_names()}
        tracer.dump(ROOT / ".bench_out"
                    / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "pass_s": pass_times, "setup_s": setup,
              "peak_rss_mb": peak_rss_mb, "layers": layers,
              "errors": tally.errors}
    (ROOT / ".bench_out"
     / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
