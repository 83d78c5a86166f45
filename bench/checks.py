"""Output checks made apart from the program.

Every checker returns a list of error strings; an empty list means the
output is right. Reference values come from the benchmark's own
arithmetic: integer addition for the adders, the serial-chain recurrence
for adder schedules, the paced closed form for lookups, and the distance
rule and rates written out again from the model's definition. Each
checker is also fed a deliberately wrong output every pass and must
reject it (``Tally.rejects``), so a checker that accepts anything shows
up as a failed operation.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

MAX_AMPLITUDE_ERROR = 1e-9
RANDOM_COUNT = 20

# Input qubits and live outcome strings per input of each construction:
# every outcome of its 2, 9 or 14 measurements, except mux-apply, where
# the dead branch pairs make three quarters of the outcome strings
# zero-probability stubs. branches_checked = (2^k + random inputs) * live.
CONSTRUCTION_SHAPE = {
    "cz-apply": (2, 4),
    "cz-skip": (2, 4),
    "autoccz": (3, 512),
    "toffoli": (3, 512),
    "mux-apply": (2, 4096),
    "mux-skip": (2, 16384),
}
ADDER_BITS = tuple(range(2, 10))

# Baseline physics of the README table: 1 us cycle, gate error 1e-3,
# factory depth 5*d2 cycles, level-1 stage six T factories of depth
# 5.75*d1 feeding 8 T states per CCZ.
CYCLE_NS = 1000
GATE_ERROR = 1e-3


class Tally:
    """Attempted and failed operations (CLI commands and checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _errors(self, checker, args) -> list[str]:
        try:
            return checker(*args)
        except Exception as exc:  # a malformed output fails its check
            return [f"{type(exc).__name__}: {exc}"]

    def record(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{name}: {'; '.join(map(str, errors[:3]))}")

    def check(self, name: str, checker, *args) -> None:
        self.record(name, self._errors(checker, args))

    def rejects(self, name: str, checker, *args) -> None:
        """A negative control: the checker must find the planted fault."""
        found = self._errors(checker, args)
        self.record(f"{name} (wrong output)",
                    [] if found else ["checker accepted a wrong output"])


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _mismatches(doc: dict, want: dict) -> list[str]:
    return [f"{k} = {doc.get(k)!r}, want {v!r}" for k, v in want.items()
            if doc.get(k) != v]


# ----------------------------------------------------------------- verify

def check_verify_doc(doc: list, names: list[str], zx_cases: int) -> list[str]:
    """``verify --json`` over the constructions and adders plus a ZX
    fixture: every line PASS, branch counts of 2^k + 20 inputs, amplitude
    error below 1e-9, adders exhaustive."""
    errors = []
    got = [row["name"] for row in doc]
    if got[:len(names)] != names or len(got) != len(names) + zx_cases:
        return [f"result names {got}"]
    for row in doc:
        name, detail = row["name"], row["detail"]
        if row["ok"] is not True:
            errors.append(f"{name} reported FAIL: {detail}")
        if name in CONSTRUCTION_SHAPE:
            k, live = CONSTRUCTION_SHAPE[name]
            found = re.fullmatch(r"(\d+) branches, max err (\S+)", detail)
            if not found:
                errors.append(f"{name}: detail {detail!r}")
                continue
            want = ((1 << k) + RANDOM_COUNT) * live
            if int(found[1]) != want:
                errors.append(f"{name}: {found[1]} branches, want {want}")
            if not float(found[2]) < MAX_AMPLITUDE_ERROR:
                errors.append(f"{name}: max err {found[2]}")
        elif name.startswith("adder-"):
            bits = int(name[len("adder-"):])
            want = f"{name}: {1 << (2 * bits)} inputs exact"
            if detail != want:
                errors.append(f"{name}: detail {detail!r}, want {want!r}")
        elif not name.startswith("zx ") or detail != "graph case":
            errors.append(f"unexpected row {name!r}")
    return errors


def check_adder_table(table: np.ndarray, spec) -> list[str]:
    """A reversible-table run of the adder against integer addition:
    (c, a, b) -> (c, a, a + b + c mod 2^m) on every input."""
    m = spec.bits
    n = spec.num_qubits
    c, a, b = np.meshgrid(np.arange(2, dtype=np.int64),
                          np.arange(1 << (m - 1), dtype=np.int64),
                          np.arange(1 << m, dtype=np.int64), indexing="ij")
    total = (a + b + c) & ((1 << m) - 1)

    def index(c_bits, a_bits, b_bits):
        # qubit 0 is the most significant bit of a table index
        idx = c_bits << (n - 1 - spec.c_wire)
        for k, wire in enumerate(spec.i_wires):
            idx |= ((a_bits >> k) & 1) << (n - 1 - wire)
        for k, wire in enumerate(spec.t_wires):
            idx |= ((b_bits >> k) & 1) << (n - 1 - wire)
        return idx

    if table.shape != (1 << n,):
        return [f"table shape {table.shape}"]
    bad = np.nonzero(table[index(c, a, b)] != index(c, a, total))
    if len(bad[0]):
        i = tuple(axis[0] for axis in bad)
        return [f"adder-{m}: {len(bad[0])} wrong outputs, first "
                f"c,a,b={int(c[i])},{int(a[i])},{int(b[i])}"]
    return []


def check_probabilities(branches) -> list[str]:
    total = sum(b.probability for b in branches if not b.truncated)
    if abs(total - 1.0) > 1e-9:
        return [f"branch probabilities sum to {total!r}"]
    return []


# ------------------------------------------------------------------ model

def code_distances(volume: float) -> tuple[int, int]:
    """Smallest odd distances with volume * weight * 0.1 * (p/0.01)^((d+1)/2)
    at most half the 1% budget, for level weights 0.1 and 2e4."""
    def pick(weight: float) -> int:
        d = 3
        while volume * weight * 0.1 * (GATE_ERROR / 0.01) ** ((d + 1) // 2) \
                > 0.005:
            d += 2
        return d
    return pick(0.1), pick(2e4)


def factory_depth_ns(d2: int) -> int:
    return 5 * d2 * CYCLE_NS


def level_rates_khz(d1: int, d2: int) -> tuple[Fraction, Fraction]:
    level2 = Fraction(1000, 5 * d2)
    level1 = Fraction(1000) / (Fraction(23, 4) * d1 * Fraction(8, 6))
    return level2, level1


def factories_needed(d1: int, d2: int, reaction_ns: int) -> int:
    rate = min(level_rates_khz(d1, d2))
    return math.ceil(Fraction(10 ** 6, reaction_ns) / rate)


def _fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def check_estimate(doc: dict, volume: float) -> list[str]:
    d1, d2 = code_distances(volume)
    level2, level1 = level_rates_khz(d1, d2)
    n = factories_needed(d1, d2, 10_000)
    want = {
        "d1": d1, "d2": d2,
        "level2_rate_khz": _fraction(level2),
        "level1_bound_khz": _fraction(level1),
        "effective_rate_khz": _fraction(min(level2, level1)),
        "limiting_factor": "level2" if level2 <= level1 else "level1",
        "factories_needed": n,
        "physical_qubits_total": n * 15 * 8 * 2 * (d2 + 1) ** 2,
        "t_factory_fallback": False,
    }
    errors = _mismatches(doc, want)
    # the paper's rate, 1 / (5 * d2 * cycle) at d2 = 27
    if doc.get("level2_rate_khz") != "200/27":
        errors.append("level-2 rate is not 200/27 kHz")
    return errors


# ------------------------------------------------------- adder schedules

def adder_decisions(m: int, depth_ns: int, factories: int,
                    reaction_ns: int) -> list[int]:
    """dec_j = max(dec_{j-1}, D * ceil(j / F)) + R over the 2m - 3 serial
    nodes of the ripple-carry chain, dec_0 = 0."""
    out = []
    dec = 0
    for j in range(1, 2 * m - 2):
        dec = max(dec, depth_ns * _ceil_div(j, factories)) + reaction_ns
        out.append(dec)
    return out


def check_adder_schedule(doc: dict, lines, m: int, factories: int,
                         reaction_ns: int, d2: int = 27) -> list[str]:
    """``schedule --m`` summary and its JSONL trace: makespan from the
    recurrence, Toffoli depth 2m - 3, 3N events in time order, every
    consume at or after its state and its predecessor's decision, every
    decision one reaction time after its consume."""
    depth = factory_depth_ns(d2)
    dec = adder_decisions(m, depth, factories, reaction_ns)
    n = len(dec)
    errors = _mismatches(doc, {"kind": "adder", "factories": factories,
                               "toffoli_depth": 2 * m - 3,
                               "makespan_ns": dec[-1]})
    if errors:
        return errors  # a wrong summary fails without reading the trace
    ready = [None] * (n + 1)
    consume = [None] * n
    decided = [None] * n
    count = 0
    last = -1
    for line in lines:
        count += 1
        ev = json.loads(line)
        t, kind = ev["t_ns"], ev["kind"]
        if t < last:
            errors.append(f"line {count}: time decreases to {t}")
        last = t
        if kind == "state_ready":
            j = ev["state"]
            if not 1 <= j <= n or ready[j] is not None \
                    or ev["factory"] != (j - 1) % factories \
                    or t != depth * _ceil_div(j, factories):
                errors.append(f"line {count}: bad state_ready {ev}")
                continue
            ready[j] = t
        elif kind == "consume":
            node = ev["node"]
            if not 0 <= node < n or ev["state"] != node + 1 \
                    or consume[node] is not None:
                errors.append(f"line {count}: bad consume {ev}")
                continue
            consume[node] = t
        elif kind == "reaction_decision":
            node = ev["node"]
            if not 0 <= node < n or decided[node] is not None:
                errors.append(f"line {count}: bad decision {ev}")
                continue
            decided[node] = t
        else:
            errors.append(f"line {count}: unexpected kind {kind!r}")
        if len(errors) > 3:
            return errors
    if count != 3 * n:
        return errors + [f"{count} trace lines, want {3 * n}"]
    for node in range(n):
        pred = decided[node - 1] if node else 0
        if None in (ready[node + 1], consume[node], decided[node]):
            return errors + [f"node {node} missing events"]
        if consume[node] < ready[node + 1] or consume[node] < pred:
            errors.append(f"node {node} consumed at {consume[node]} before "
                          f"its state or predecessor")
        if decided[node] != consume[node] + reaction_ns:
            errors.append(f"node {node} decided at {decided[node]}, not "
                          f"consume + R")
        if decided[node] != dec[node]:
            errors.append(f"node {node} decided at {decided[node]}, "
                          f"recurrence gives {dec[node]}")
        if len(errors) > 3:
            break
    return errors


# --------------------------------------------------------------- layouts

def check_adder_plan(doc: dict, plan_json: bytes, svg: bytes, m: int,
                     factories: int) -> list[str]:
    """``layout --m`` summary, JSON and SVG: the JSON re-imports and
    re-exports to the same bytes and still validates, target rows hold m
    bits and offset rows m - 1, and the SVG draws one rect per tile plus
    one outline per factory."""
    from latticeplan import layout
    errors = []
    plan = json.loads(plan_json)
    w, h = plan["width"], plan["height"]
    if (doc["width"], doc["height"]) != (w, h) or len(plan["grid"]) != h:
        errors.append(f"summary {doc['width']}x{doc['height']} against "
                      f"file {w}x{h}")
    if (m, factories) == (1000, 14) and (w, h) != (111, 63):
        errors.append(f"1000-bit plan is {w}x{h}, the paper has 111x63")
    if len(plan["factories"]) != factories:
        errors.append(f"{len(plan['factories'])} factories")
    again = layout.import_floorplan(plan_json)
    if layout.export_floorplan(again, "json") != plan_json:
        errors.append("JSON does not re-export to the same bytes")
    try:
        layout.validate_floorplan(again)
    except ValueError as exc:
        errors.append(f"re-imported plan fails validation: {exc}")
    held = {"data_row_target": 0, "data_row_offset": 0}
    for row in plan["grid"]:
        if row[0] in held:
            # a patch on every second free column of the row
            held[row[0]] += _ceil_div(row.count(row[0]), 2)
    if held["data_row_target"] < m or held["data_row_offset"] < m - 1:
        errors.append(f"data rows hold {held}, need {m} and {m - 1} bits")
    rects = svg.count(b"<rect ")
    if not svg.startswith(b"<svg ") or rects != w * h + factories:
        errors.append(f"SVG has {rects} rects, want {w * h + factories}")
    return errors


def check_lookup_plan(doc: dict, svg: bytes, rows: int) -> list[str]:
    """``layout --rows``: pattern R_L_L_R repeated, three iteration rows,
    one SVG rect per tile."""
    pattern = "R" + "_L_L_R" * (rows // 2) + ("_L_R" if rows % 2 else "")
    w, h = doc["width"], doc["height"]
    errors = []
    if doc["meta"]["pattern"] != pattern:
        errors.append("register pattern is not R_L_L_R repeated")
    if h != len(pattern) + 3 or w != 40:
        errors.append(f"grid {w}x{h}, want 40x{len(pattern) + 3}")
    if svg.count(b"<rect ") != w * h:
        errors.append(f"SVG has {svg.count(b'<rect ')} rects, want {w * h}")
    return errors


# --------------------------------------------------------------- lookups

def lookup_paces(entries: int, sides: int, factories: int, d2: int,
                 reaction_ns: int) -> dict:
    depth = factory_depth_ns(d2)
    access = _ceil_div(d2 * CYCLE_NS, sides)
    supply = _ceil_div(depth, factories)
    period = max(access, reaction_ns, supply)
    binding = "access" if period == access else \
        "reaction" if period == reaction_ns else "supply"
    steps = entries - 1
    return {"depth": depth, "access": access, "supply": supply,
            "period": period, "binding": binding, "steps": steps,
            "makespan": depth + (steps - 1) * period + reaction_ns}


def check_lookup_schedule(doc: dict, lines, entries: int, sides: int,
                          factories: int, d2: int, reaction_ns: int,
                          binding: str) -> list[str]:
    """``schedule --lookup``: makespan D + (T - 1) * max(access, R, supply)
    + R, the named pace binds, 4T events in time order, windows alternate
    between hallways when there are two."""
    p = lookup_paces(entries, sides, factories, d2, reaction_ns)
    steps = p["steps"]
    errors = []
    if p["binding"] != binding:
        errors.append(f"case meant to bind on {binding} binds on "
                      f"{p['binding']}")
    errors += _mismatches(doc, {"kind": "lookup", "factories": factories,
                                "binding": binding, "toffoli_count": steps,
                                "makespan_ns": p["makespan"]})
    if errors:
        return errors  # a wrong summary fails without reading the trace
    seen = {kind: bytearray(steps + 1) for kind in
            ("state_ready", "consume", "reaction_decision", "cnot_window")}
    count = 0
    last = -1
    for line in lines:
        count += 1
        ev = json.loads(line)
        t, kind = ev["t_ns"], ev["kind"]
        k = ev.get("state") if kind == "state_ready" else ev.get("step")
        if kind not in seen or not isinstance(k, int) \
                or not 1 <= k <= steps or seen[kind][k]:
            errors.append(f"line {count}: unexpected event {ev}")
            return errors
        seen[kind][k] = 1
        start = p["depth"] + (k - 1) * p["period"]
        if kind == "state_ready":
            want_t = p["depth"] * _ceil_div(k, factories)
            if want_t > start:
                errors.append(f"state {k} ready after its step starts")
        elif kind == "reaction_decision":
            want_t = start + reaction_ns
        else:
            want_t = start
        if kind == "consume" and ev["state"] != k:
            errors.append(f"step {k} consumes state {ev['state']}")
        if kind == "cnot_window":
            side = "left" if sides == 1 or k % 2 == 1 else "right"
            if ev["corridor"] != side:
                errors.append(f"step {k} window on {ev['corridor']}")
        if t != want_t:
            errors.append(f"line {count}: {kind} {k} at {t}, want {want_t}")
        if t < last:
            errors.append(f"line {count}: time decreases to {t}")
        last = t
        if len(errors) > 3:
            return errors
    if count != 4 * steps:
        errors.append(f"{count} trace lines, want {4 * steps}")
    return errors


PHASES = ("spread", "lookup", "add_up", "add_down", "uncompute")


def check_phase_timeline(doc: dict, lines, entries: int, m: int,
                         factories: int, reaction_ns: int,
                         d2: int = 27) -> list[str]:
    """``schedule --lookup E --m M``: five phases whose durations sum to
    the makespan and a Toffoli total of (E - 1) + (2M - 3)."""
    window = d2 * CYCLE_NS
    look = lookup_paces(entries, 2, factories, d2, reaction_ns)["makespan"]
    dec = adder_decisions(m, factory_depth_ns(d2), factories, reaction_ns)
    apex = dec[m - 2]
    durations = (window, look, apex, dec[-1] - apex, window)
    toffolis = (0, entries - 1, m - 1, m - 2, 0)
    errors = _mismatches(doc, {
        "kind": "phase_timeline", "factories": factories,
        "total_toffolis": (entries - 1) + (2 * m - 3),
        "makespan_ns": sum(durations)})
    events = [json.loads(line) for line in lines]
    t = 0
    if len(events) != len(PHASES):
        return errors + [f"{len(events)} phase boundaries"]
    for ev, phase, dur, tof in zip(events, PHASES, durations, toffolis):
        t += dur
        if ev != {"t_ns": t, "kind": "phase_boundary", "phase": phase,
                  "toffolis": tof}:
            errors.append(f"boundary {ev}, want {phase} at {t} with {tof}")
    if t != doc.get("makespan_ns"):
        errors.append(f"phases sum to {t}, makespan {doc.get('makespan_ns')}")
    return errors
