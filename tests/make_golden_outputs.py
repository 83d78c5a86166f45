"""Regenerate tests/golden_outputs.json from the current program.

    PYTHONPATH=src python tests/make_golden_outputs.py

Run it only for a deliberate output change, and name each hash that
changed in the change log; test_golden_outputs.py compares against the
committed file and never runs this script.
"""

import json
import os
import pathlib
import tempfile

from test_golden_outputs import ARGVS, MANIFEST, outputs


def main() -> None:
    os.environ.pop("LATTICEPLAN_SEED", None)
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in ARGVS:
            entries.append({"argv": list(argv),
                            **outputs(argv, pathlib.Path(tmp))})
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
