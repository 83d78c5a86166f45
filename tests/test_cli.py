"""End-to-end command line checks, run in process via cli.main."""

import json
import pathlib

import pytest

from latticeplan import cli

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


# ------------------------------------------------------------- verify


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "cz-apply", "cz-skip", "adder-3",
                       "--random-count", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "teleport")
    assert code == 2
    assert "unknown construction" in err


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
