"""The benchmark in bench/ imports and patches program names by string;
deleting one of them must fail here, not only in a benchmark run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Imports the benchmark's modules and patches every boundary it traces.
# No workload is built: that would write under the repo's .bench_out/;
# and no bytecode is written into bench/.
SCRIPT = """
import sys
sys.dont_write_bytecode = True
sys.path[:0] = [{src!r}, {bench!r}]
import checks, tracing, workloads
from latticeplan.circuits import enumerate_branches, run_reversible_table
tracing.Tracer().install()
"""


def test_benchmark_imports_and_patches_its_names():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "bench"))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
