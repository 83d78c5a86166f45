"""Byte-stability of the pinned command outputs.

``golden_outputs.json`` maps each argv below to the sha256 and byte
length of its stdout and of its ``--out`` file. Updating it is a
deliberate output change: run ``python tests/make_golden_outputs.py``
and name each changed hash in the change log.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re

from latticeplan import cli

MANIFEST = pathlib.Path(__file__).with_name("golden_outputs.json")
ROOT = pathlib.Path(__file__).resolve().parents[1]

# "{out}" stands for a file in a scratch directory, its suffix kept, and
# "{root}" for the root of the repository.
ARGVS = (
    ("verify", "all"),
    ("verify", "all", "--json"),
    ("schedule", "--m", "1000", "--factories", "14", "--out", "{out}.jsonl"),
    ("schedule", "--m", "1000", "--factories", "1", "--out", "{out}.jsonl"),
    ("schedule", "--m", "4000", "--factories", "28", "--out", "{out}.jsonl"),
    ("schedule", "--lookup", "65536", "--out", "{out}.jsonl"),
    ("schedule", "--lookup", "16384", "--sides", "1", "--out",
     "{out}.jsonl"),
    ("schedule", "--lookup", "16384", "--factories", "1", "--out",
     "{out}.jsonl"),
    ("schedule", "--lookup", "16384", "--d2", "15", "--out", "{out}.jsonl"),
    ("schedule", "--m", "1000", "--lookup", "65536", "--out", "{out}.jsonl"),
    ("layout", "--m", "1000", "--out", "{out}.svg"),
    ("layout", "--m", "1000", "--out", "{out}.json"),
    ("layout", "--m", "4000", "--factories", "28", "--out", "{out}.svg"),
    ("layout", "--m", "4000", "--factories", "28", "--out", "{out}.json"),
    ("layout", "--rows", "1000", "--out", "{out}.svg"),
    ("layout", "--rows", "1000", "--out", "{out}.json"),
    ("layout", "--m", "10", "--factories", "1000", "--out", "{out}.json"),
    ("estimate",),
    ("estimate", "--json"),
    ("schedule", "--m", "1000"),
    ("schedule", "--m", "1000", "--json"),
    ("schedule", "--m", "1000", "--factories", "1"),
    ("schedule", "--m", "1000", "--factories", "1", "--json"),
    ("schedule", "--lookup", "1024"),
    ("schedule", "--lookup", "1024", "--json"),
    ("schedule", "--m", "1000", "--lookup", "65536"),
    ("schedule", "--m", "1000", "--lookup", "65536", "--json"),
    ("layout", "--m", "1000", "--json"),
    ("schedule", "--m", "2", "--out", "{out}.jsonl"),
    ("schedule", "--m", "8", "--factories", "20", "--out", "{out}.jsonl"),
    ("verify", "cz-apply", "--zx", "{root}/fixtures/delayed_choice_cz.json"),
    ("verify", "cz-apply", "--zx", "{root}/fixtures/delayed_choice_cz.json",
     "--json"),
    ("estimate", "--config", "{root}/fixtures/fast.cfg", "--d1", "17",
     "--d2", "27"),
    ("estimate", "--config", "{root}/fixtures/slow.cfg", "--d1", "17",
     "--d2", "27"),
    ("estimate", "--config", "{root}/fixtures/low.cfg"),
    ("schedule", "--config", "{root}/fixtures/low.cfg", "--m", "1000"),
    ("layout", "--config", "{root}/fixtures/d2_15.cfg", "--m", "1000",
     "--out", "{out}.json"),
)

# The "max err" figures come from floating-point reductions that may
# round differently on another CPU; their bound is acceptance criterion
# 01, so the hash sees them masked.
_MAX_ERR = re.compile(rb"max err [-+.0-9e]+")


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def outputs(argv: tuple[str, ...], tmp: pathlib.Path) -> dict:
    """Run one argv in process; the digests of its stdout and --out file."""
    out = tmp / "out"
    args = [a.replace("{out}", str(out)).replace("{root}", str(ROOT))
            for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    assert code == 0, argv
    written = [p for p in tmp.iterdir() if p.name.startswith("out")]
    result = {"stdout": _digest(_MAX_ERR.sub(b"max err #",
                                             buf.getvalue().encode()))}
    if written:
        (path,) = written
        result["out"] = _digest(path.read_bytes())
        path.unlink()
    return result


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv("LATTICEPLAN_SEED", raising=False)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [tuple(e["argv"]) for e in manifest] == list(ARGVS)
    # every argv runs, each in a directory of its own, and one failure
    # names all whose digests differ or whose command exits nonzero
    differ = []
    for n, entry in enumerate(manifest):
        tmp = tmp_path / str(n)
        tmp.mkdir()
        try:
            got = outputs(tuple(entry["argv"]), tmp)
        except AssertionError:  # the exit code was not 0
            got = None
        if got != {k: v for k, v in entry.items() if k != "argv"}:
            differ.append(" ".join(entry["argv"]))
    assert not differ, "outputs differ for:\n" + "\n".join(differ)
