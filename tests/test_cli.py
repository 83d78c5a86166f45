"""End-to-end command line checks, run in process via cli.main."""

import contextlib
import dataclasses
import io
import json
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeplan import cli, layout, scheduler, zx

FIXTURE = str(pathlib.Path(__file__).parent.parent / "fixtures"
              / "delayed_choice_cz.json")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------- estimate


def test_estimate_headline_numbers(capsys):
    code, out, _ = run(capsys, "estimate")
    assert code == 0
    assert "7.4" in out
    assert "7.7" in out
    assert "level2 limited" in out
    assert "factories needed:      14" in out
    assert "2634240" in out
    assert "output state infidelity: not modeled" in out


def test_estimate_json_stable(capsys):
    code, first, _ = run(capsys, "estimate", "--json")
    assert code == 0
    code, second, _ = run(capsys, "estimate", "--json")
    assert first == second
    doc = json.loads(first)
    assert doc["d1"] == 17 and doc["d2"] == 27
    assert doc["level2_rate_khz"] == "200/27"
    assert doc["factories_needed"] == 14
    assert doc["physical_qubits_total"] == 2634240
    assert doc["t_factory_fallback"] is False


def test_estimate_low_error_distances(capsys):
    code, out, _ = run(capsys, "estimate", "--json", "--volume", "1e8")
    assert json.loads(out)["d2"] == 27
    capsys.readouterr()


def test_estimate_fallback_advisory(capsys):
    code, out, _ = run(capsys, "estimate", "--volume", "1e14")
    assert code == 0
    assert "advisory" in out


def test_estimate_with_config_and_flags(tmp_path, capsys):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("cycle_time_us = 10\n")
    code, out, _ = run(capsys, "estimate", "--config", str(cfg),
                       "--d1", "17", "--d2", "27")
    assert code == 0
    assert "factories needed:      135" in out


def test_estimate_config_gate_error_too_high(tmp_path, capsys):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("gate_error = 0.011\n")
    code, _, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "threshold" in err


@pytest.mark.parametrize("volume", ["nan", "inf", "-inf"])
def test_estimate_rejects_non_finite_volume(capsys, volume):
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", f"--volume={volume}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error" in line] == [
        "latticeplan estimate: error: argument --volume: "
        "volume must be finite"]


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "estimate", "--config", "no/such/file.cfg")
    assert code == 2
    assert "error" in err


def test_config_error_carries_line_number(tmp_path, capsys):
    cfg = tmp_path / "hw.cfg"
    cfg.write_text("# profile\nspeed = 3\n")
    code, _, err = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("value", ["1e400", "1e-400"])
@pytest.mark.parametrize("argv", [("estimate",), ("schedule", "--m", "10"),
                                  ("schedule", "--lookup", "16"),
                                  ("layout", "--m", "10")])
def test_config_time_beyond_a_float_is_refused(tmp_path, capsys, argv,
                                               value):
    # an exact Fraction, but no finite, positive float: the rates and
    # durations derived from it would overflow or divide by zero
    cfg = tmp_path / "hw.cfg"
    cfg.write_text(f"# profile\ncycle_time_us = {value}\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == (f"error: line 2: bad value '{value}' "
                   "for cycle_time_us\n")


@pytest.mark.parametrize("argv", [
    ("verify", "cz-apply", "--config", "/nonexistent"),
    ("verify", "cz-apply", "--out", "{out}"),
    ("estimate", "--out", "{out}"),
])
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv):
    out_file = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main([a.replace("{out}", str(out_file)) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error: unrecognized arguments: --" in captured.err
    assert captured.err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("argv, message", [
    (("schedule", "--m", "1000", "--sides", "1"), "--sides needs --lookup"),
    (("layout", "--rows", "10", "--factories", "3"),
     "--factories needs --m"),
])
def test_flags_a_mode_does_not_read_are_refused(tmp_path, capsys, argv,
                                                message):
    """A flag that only the command's other mode reads is a usage error,
    not a value silently dropped, and nothing is written."""
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_file.exists()


# ------------------------------------------------------------- verify


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "cz-apply", "cz-skip", "adder-3",
                       "--random-count", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


# int() reads adder-1_0 as 10 and the next four as 3; only a canonical
# adder-N names an adder
@pytest.mark.parametrize("name", ["teleport", "adder-1_0", "adder-+3",
                                  "adder- 3", "adder-03", "adder-\u0663",
                                  "adder-"])
def test_verify_unknown_name(capsys, name):
    code, out, err = run(capsys, "verify", name)
    assert code == 2
    assert out == ""
    assert err == f"error: unknown construction {name!r}\n"


@pytest.mark.parametrize("name,qubits", [("adder-13", 26), ("adder-20", 40)])
def test_verify_adder_too_wide_for_a_table(capsys, name, qubits):
    # the cap is checked before the 2^qubits table is allocated
    code, out, err = run(capsys, "verify", name)
    assert code == 1
    assert out == ""
    assert err == (f"error: truth table of {qubits} qubits exceeds the cap "
                   "of 22\n")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "cz-apply", "--random-count", "1",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["name"] == "cz-apply" and doc[0]["ok"] is True


def test_verify_zx_fixture(capsys):
    code, out, _ = run(capsys, "verify", "cz-apply", "--random-count", "1",
                       "--zx", FIXTURE)
    assert code == 0
    assert "PASS zx CZ [11=x,12=x]" in out
    assert "PASS zx I2 [11=z,12=z]" in out


def test_verify_fail_line_names_the_first_failing_outcome(monkeypatch,
                                                          capsys):
    """A construction checked against the wrong target fails, and its
    line names the first failing outcome string after the counts."""
    from latticeplan import constructions
    good = constructions.CONSTRUCTIONS["cz-apply"]()
    broken = dataclasses.replace(good, target=constructions.TARGETS["I2"])
    monkeypatch.setitem(constructions.CONSTRUCTIONS, "cz-apply",
                        lambda: broken)
    monkeypatch.delenv("LATTICEPLAN_SEED", raising=False)
    report, passed = (
        constructions.verify_construction(c, random_count=1)
        for c in (broken, constructions.CONSTRUCTIONS["cz-skip"]()))
    assert report.failures[0].startswith("branch ")
    code, out, _ = run(capsys, "verify", "cz-apply", "cz-skip",
                       "--random-count", "1")
    assert code == 1
    assert out.splitlines() == [
        f"FAIL cz-apply: {report.branches_checked} branches, max err "
        f"{report.max_amplitude_error:.1e}; {report.failures[0]}",
        f"PASS cz-skip: {passed.branches_checked} branches, max err "
        f"{passed.max_amplitude_error:.1e}"]


def test_verify_random_count_over_the_cap(capsys):
    # refused before any random state is built
    from latticeplan.circuits import simulate
    cap = simulate.MAX_RANDOM_INPUTS
    assert len(simulate.random_inputs(2, cap)) == cap
    for count in (cap + 1, 10 ** 18):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "cz-apply",
                                 "--random-count", str(count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err == (f"error: {count} random inputs exceed the cap of "
                       f"{cap}\n")
        assert peak < 1 << 20


def test_verify_seed_override(monkeypatch, capsys):
    monkeypatch.setenv("LATTICEPLAN_SEED", "99")
    code, out, _ = run(capsys, "verify", "autoccz", "--random-count", "2")
    assert code == 0
    assert out.startswith("PASS autoccz")


# ----------------------------------------------------------- schedule


def test_schedule_adder_headline(capsys):
    code, out, _ = run(capsys, "schedule", "--m", "1000")
    assert code == 0
    assert "toffoli depth:  1997" in out
    assert "factories:      14" in out
    assert "makespan:       20 ms" in out


def test_schedule_adder_json(capsys):
    code, out, _ = run(capsys, "schedule", "--m", "1000", "--json")
    doc = json.loads(out)
    assert doc["makespan_ns"] == 20105000
    assert doc["factories"] == 14


def test_schedule_single_factory(capsys):
    code, out, _ = run(capsys, "schedule", "--m", "1000", "--factories", "1",
                       "--json")
    assert json.loads(out)["makespan_ns"] == 269605000


def test_schedule_lookup_binding(capsys):
    code, out, _ = run(capsys, "schedule", "--lookup", "1024")
    assert code == 0
    assert "toffoli count:  1023" in out
    assert "binding:        access" in out


def test_schedule_phase_timeline(capsys):
    code, out, _ = run(capsys, "schedule", "--m", "1000", "--lookup", "1024",
                       "--json")
    doc = json.loads(out)
    assert doc["kind"] == "phase_timeline"
    assert doc["total_toffolis"] == 3020


def test_schedule_phase_lines(capsys):
    code, out, _ = run(capsys, "schedule", "--m", "4", "--lookup", "16")
    assert code == 0
    for phase in ("spread:", "lookup:", "add_up:", "add_down:",
                  "uncompute:"):
        assert phase in out


def test_schedule_needs_a_target(capsys):
    code, _, err = run(capsys, "schedule")
    assert code == 2
    assert "--m and/or --lookup" in err


def test_schedule_rejects_one_bit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["schedule", "--m", "1"])
    assert exc.value.code == 2


def test_schedule_writes_trace(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    code, _, err = run(capsys, "schedule", "--m", "4", "--out",
                       str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in err
    lines = out_file.read_text().splitlines()
    assert len(lines) == 3 * 5  # three events per node, five nodes
    for line in lines:
        assert "t_ns" in json.loads(line)


def test_schedule_lookup_summary_builds_no_events(monkeypatch, capsys):
    def no_events(*_):
        raise AssertionError("a summary needs no events")
    monkeypatch.setattr(scheduler, "simulate_lookup", no_events)
    code, out, _ = run(capsys, "schedule", "--lookup", "1000000000",
                       "--json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "lookup", "factories": 14, "binding": "access",
        "toffoli_count": 999999999,
        "makespan_ns": 135000 + (999999999 - 1) * 13500 + 10000}


def test_schedule_adder_summary_builds_no_dag(monkeypatch, capsys):
    def no_events(*_):
        raise AssertionError("a summary needs no events")
    monkeypatch.setattr(scheduler, "build_adder_dag", no_events)
    monkeypatch.setattr(scheduler, "simulate_reaction_limited", no_events)
    code, out, _ = run(capsys, "schedule", "--m", "100000000", "--json")
    assert code == 0
    # 14 factories keep up: first decision at depth + reaction, then one
    # reaction per node
    assert json.loads(out) == {
        "kind": "adder", "factories": 14, "toffoli_depth": 199999997,
        "makespan_ns": 145000 + (199999997 - 1) * 10000}


def test_schedule_lookup_over_the_event_cap(tmp_path, capsys):
    out_file = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "schedule", "--lookup", "1000000000",
                           "--out", str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == (f"error: trace of {4 * 999999999} events exceeds the cap "
                   f"of {scheduler.MAX_TRACE_EVENTS}\n")
    assert not out_file.exists()
    assert peak < 1 << 20


def test_schedule_adder_over_the_event_cap(tmp_path, capsys):
    # 2 * 699053 - 3 Toffolis: the smallest adder whose 3 events per
    # Toffoli pass the cap, refused before its events are allocated
    out_file = tmp_path / "trace.jsonl"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "schedule", "--m", "699053",
                           "--out", str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == (f"error: trace of {3 * 1398103} events exceeds the cap "
                   f"of {scheduler.MAX_TRACE_EVENTS}\n")
    assert not out_file.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("command", [
    ["schedule", "--m", "4"],
    ["schedule", "--lookup", "16"],
    ["layout", "--m", "2", "--factories", "2"],
])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, command, where):
    out = tmp_path if where == "directory" else tmp_path / "no" / "t.jsonl"
    code, _, err = run(capsys, *command, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err


# The boundary values every schedule flag is drawn from; 2^63 is one
# past the int64 range. The caps: --m and --lookup take at least 2,
# --factories at least 1 and --d2 an odd distance of at least 3; --sides
# is 1 or 2; with --out an adder of 699052 bits and a lookup of 1048577
# entries are the largest traces under MAX_TRACE_EVENTS.
_EDGES = ["0", "1", "2", str(10 ** 18), str(2 ** 63), "-1", "nan", ""]
_CAPS = {"--m": [2, 699052], "--lookup": [2, 1048577], "--factories": [1],
         "--sides": [1, 2], "--d2": [3]}
# sizes that are neither small nor past a cap: traces of millions of
# events, left out where --out would build them
_LARGE = {"699051", "1048576"}


@st.composite
def schedule_argvs(draw):
    out = draw(st.booleans())
    argv = ["schedule"]
    for flag, caps in _CAPS.items():
        values = _EDGES + [str(c + e) for c in caps for e in (-1, 1)]
        if out:
            values = [v for v in values if v not in _LARGE]
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv, out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(schedule_argvs())
# a factory count past int64 once raised OverflowError in the adder trace
@example((["schedule", "--m", "3", "--factories", str(2 ** 63)], True))
@example((["schedule", "--m", "699053"], True))
@example((["schedule", "--lookup", "1048578"], True))
@example((["schedule", "--m", str(10 ** 18), "--lookup", str(10 ** 18)],
          True))
def test_schedule_boundary_values_end_in_an_exit_code(case):
    """Every boundary argv ends in exit 0, 1 or 2, through a return or
    argparse's SystemExit, as ``python -m latticeplan`` does; a nonzero
    exit writes one stderr line, and no example allocates 64 MiB."""
    argv, out = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if out:
            argv = argv + ["--out", str(pathlib.Path(tmp) / "trace.jsonl")]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code in (0, 1, 2), argv
    if code:
        err = stderr.getvalue()
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert peak < 64 << 20, argv


# ------------------------------------------------------------- layout


def test_layout_minimal_adder(capsys):
    code, out, _ = run(capsys, "layout", "--m", "2", "--factories", "2")
    assert code == 0
    assert "grid:           16 x 27" in out


def test_layout_lookup_rows(capsys):
    code, out, _ = run(capsys, "layout", "--rows", "1")
    assert code == 0
    assert "plan:           lookup" in out


def test_layout_json(capsys):
    code, out, _ = run(capsys, "layout", "--m", "1000", "--json")
    doc = json.loads(out)
    assert (doc["width"], doc["height"]) == (111, 63)
    assert doc["meta"]["row_capacity"] == 53


@pytest.mark.parametrize("suffix,sniff", [
    (".svg", b"<svg"),
    (".json", b"{"),
])
def test_layout_export_files(tmp_path, capsys, suffix, sniff):
    out_file = tmp_path / f"plan{suffix}"
    code, _, _ = run(capsys, "layout", "--m", "2", "--factories", "2",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes().startswith(sniff)


def test_layout_needs_exactly_one_target(capsys):
    code, _, err = run(capsys, "layout")
    assert code == 2
    code, _, err = run(capsys, "layout", "--m", "4", "--rows", "2")
    assert code == 2
    assert "exactly one" in err


def test_layout_capacity_exit_code(capsys):
    code, _, err = run(capsys, "layout", "--m", "3000")
    assert code == 1
    assert "data rows" in err


def test_layout_lookup_over_the_tile_cap(capsys):
    # refused before the 300-million-row register pattern is built
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "layout", "--rows", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == (f"error: 40 x 300000004 plan exceeds the cap of "
                   f"{layout.MAX_TILES} tiles\n")
    assert peak < 1 << 20


def test_layout_adder_over_the_tile_cap(capsys):
    code, _, err = run(capsys, "layout", "--m", "10", "--factories", "20000")
    assert code == 1
    assert err == (f"error: 159999 x 27 plan exceeds the cap of "
                   f"{layout.MAX_TILES} tiles\n")


def test_layout_huge_factory_count_refused_before_lanes(capsys):
    # refused before the half-billion-entry lane list is built
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "layout", "--m", "2", "--factories",
                           "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == (f"error: 7999999999 x 27 plan exceeds the cap of "
                   f"{layout.MAX_TILES} tiles\n")
    assert peak < 1 << 20


# --------------------------------------------------------- zx fixtures


def _verify_fixture(tmp_path, capsys, doc):
    """Run a fixture document, or a JSON text written as it is."""
    path = tmp_path / "fixture.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return run(capsys, "verify", "cz-apply", "--zx", str(path))


def _fixture_doc():
    return json.loads(pathlib.Path(FIXTURE).read_text())


def _choices(doc, choices, target="CZ"):
    return {**doc, "cases": [{"choices": choices, "target": target}]}


def _graph(doc, **fields):
    return {**doc, "graph": {**doc["graph"], **fields}}


def _node(doc, nid, **fields):
    return _graph(doc, nodes=[{**rec, **fields} if rec["id"] == nid else rec
                              for rec in doc["graph"]["nodes"]])


@pytest.mark.parametrize("edit,message", [
    (lambda doc: {}, "malformed fixture: KeyError 'graph'"),
    (lambda doc: [], "malformed fixture: TypeError"),
    (lambda doc: {**doc, "cases": [{**doc["cases"][0], "target": "CCX"}]},
     "unknown target 'CCX'"),
    (lambda doc: {**doc, "cases": [{"choices": {"999": "x"},
                                    "target": "CZ"}]},
     "node 999 is not a choice"),
    (lambda doc: {**doc, "graph": {**doc["graph"], "nodes": [
        *doc["graph"]["nodes"], {"id": 4, "kind": "x", "phase": 0}]}},
     "duplicate node id 4"),
    # int() would read each of these keys as 11, the last one winning
    (lambda doc: _choices(doc, {"11": "x", "12": "x", "011": "z",
                                "012": "z"}, "I2"),
     "node 011 is not a choice"),
    (lambda doc: _choices(doc, {" 11": "x", "12": "x"}),
     "node  11 is not a choice"),
    (lambda doc: _choices(doc, {"1_1": "x", "12": "x"}),
     "node 1_1 is not a choice"),
    # json.loads alone would keep the last "11"
    (lambda doc: json.dumps(_choices(doc, {"11": "z", "12": "z"})).replace(
        '"12": "z"', '"12": "z", "11": "x"'), "repeated key '11'"),
    # int() would truncate these numbers, or read true as 1
    (lambda doc: _node(doc, 4, phase=1.5), "phase 1.5 is not an integer"),
    (lambda doc: _node(doc, 4, phase=True), "phase true is not an integer"),
    (lambda doc: _node(doc, 12, id=12.9), "node id 12.9 is not an integer"),
    (lambda doc: _graph(doc, edges=[[False, 4], *doc["graph"]["edges"][1:]]),
     "edge end false is not an integer"),
    (lambda doc: _graph(doc, inputs=[0.0, 1]), "input 0.0 is not an integer"),
    (lambda doc: _graph(doc, outputs=[2, 3.0]),
     "output 3.0 is not an integer"),
], ids=["empty object", "list", "unknown target", "unknown choice",
        "duplicate node id", "choice key with a leading zero",
        "choice key with a space", "choice key with an underscore",
        "repeated key", "fractional phase", "boolean phase",
        "fractional node id", "boolean edge end", "float input",
        "float output"])
def test_malformed_zx_fixture_is_one_error_line(tmp_path, capsys, edit,
                                                message):
    code, out, err = _verify_fixture(tmp_path, capsys, edit(_fixture_doc()))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_wide_zx_spider_is_refused_before_allocating(tmp_path, capsys):
    # spider 1 has 36 legs: 2^36 amplitudes, 1 TiB
    graph = {"nodes": [{"id": 0, "kind": "b"}, {"id": 1, "kind": "z"},
                       {"id": 2, "kind": "z"}],
             "edges": [[0, 1]] + [[1, 2]] * 35,
             "inputs": [], "outputs": [0]}
    doc = {"graph": graph, "cases": [{"choices": {}, "target": "I2"}]}
    tracemalloc.start()
    try:
        code, _, err = _verify_fixture(tmp_path, capsys, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == (f"error: a tensor with 36 legs exceeds the cap of "
                   f"{zx.MAX_TENSOR_VALUES} values\n")
    assert peak < 1 << 20


# ------------------------------------------------------------- memory


@pytest.mark.parametrize("argv, want", [
    (["layout", "--rows", "2"], 0),
    (["layout", "--rows", "2", "--m", "4"], 2),
    (["estimate", "--config", "/nonexistent/assumptions.cfg"], 2),
])
def test_every_command_returns_its_freed_memory(monkeypatch, capsys, argv,
                                                want):
    calls = []
    monkeypatch.setattr(cli, "_release_freed_memory",
                        lambda: calls.append(1))
    assert run(capsys, *argv)[0] == want
    assert calls == [1, 1]  # before and after the command


# ------------------------------------------------------------ imports


def test_cli_import_loads_no_numpy():
    """`import latticeplan.cli` is the whole start-up cost of every
    command before its handler runs: it loads the command line, the
    exceptions and the factory model, and no numpy."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import latticeplan.cli\n"
        "print(' '.join(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert [m for m in loaded if m.startswith("latticeplan")] == [
        "latticeplan", "latticeplan.cli", "latticeplan.exceptions",
        "latticeplan.factory"]
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]


def test_schedule_and_layout_load_no_circuit_code():
    """Each command imports its own modules: `schedule` and `layout`
    never load the circuit simulator, the constructions or the ZX
    checker."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from latticeplan import cli\n"
        "assert cli.main(['schedule', '--m', '10']) == 0\n"
        "assert cli.main(['layout', '--m', '10']) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "latticeplan.scheduler" in loaded
    assert "latticeplan.layout" in loaded
    for name in ("latticeplan.circuits", "latticeplan.constructions",
                 "latticeplan.zx"):
        assert name not in loaded


def test_verify_without_zx_loads_no_zx_checker():
    """`verify` imports the ZX checker only for `--zx`."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from latticeplan import cli\n"
        "assert cli.main(['verify', 'cz-apply', '--random-count', '1']) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "latticeplan.constructions" in loaded
    assert "latticeplan.zx" not in loaded
