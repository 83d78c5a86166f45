"""Channel checks and structural invariants of the adaptive constructions."""

import dataclasses
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan import constructions as C
from latticeplan.circuits import (GATES, CGate, Circuit, FrameUpdate, Gate,
                                  Measure, basis_inputs, check_channel,
                                  enumerate_branches, parse_condition,
                                  run_reversible_table)


def run_bits(circuit: Circuit, bits: str) -> str:
    """The output bit string of one input, read off the truth table."""
    out = run_reversible_table(circuit)[int(bits, 2)]
    return format(int(out), f"0{circuit.num_qubits}b")


def pack_adder_input(spec, c_in: int, a: int, b: int) -> str:
    """Encode (carry-in, a, b) as an input bit string; a is little-endian
    over i_wires, b over t_wires."""
    if not 0 <= a < (1 << (spec.bits - 1)):
        raise ValueError(f"a out of range: {a}")
    if not 0 <= b < (1 << spec.bits):
        raise ValueError(f"b out of range: {b}")
    bits = ["0"] * spec.num_qubits
    bits[spec.c_wire] = str(c_in & 1)
    for k, w in enumerate(spec.i_wires):
        bits[w] = str((a >> k) & 1)
    for k, w in enumerate(spec.t_wires):
        bits[w] = str((b >> k) & 1)
    return "".join(bits)


def unpack_adder_output(spec, bits: str) -> tuple[int, int, int]:
    c = int(bits[spec.c_wire])
    a = sum(int(bits[w]) << k for k, w in enumerate(spec.i_wires))
    s = sum(int(bits[w]) << k for k, w in enumerate(spec.t_wires))
    return c, a, s


def majority(a: int, b: int, c: int) -> int:
    return (a & b) ^ (a & c) ^ (b & c)


def test_registry_names():
    assert set(C.CONSTRUCTIONS) == {"cz-apply", "cz-skip", "autoccz",
                                    "toffoli", "mux-apply", "mux-skip"}


@pytest.mark.parametrize("name,count", [
    ("cz-apply", 2), ("cz-skip", 2),
    ("autoccz", 6), ("toffoli", 6),
    ("mux-apply", 8), ("mux-skip", 8),
])
def test_routing_qubit_counts(name, count):
    assert len(C.CONSTRUCTIONS[name]().routing_qubits) == count


# Live outcome strings and zero-norm prefixes of each construction's one
# batched walk: mux-apply's dead branch pairs cut a quarter of its
# outcome strings.
WALK_SHAPE = {
    "cz-apply": (4, 0), "cz-skip": (4, 0),
    "autoccz": (512, 0), "toffoli": (512, 0),
    "mux-apply": (4096, 4608), "mux-skip": (16384, 0),
}


@pytest.mark.parametrize("name", sorted(C.CONSTRUCTIONS))
def test_channel_equals_target(name):
    cons = C.CONSTRUCTIONS[name]()
    report = C.verify_construction(cons, random_count=5, seed=23)
    assert report.ok, report.failures[:3]
    assert report.max_amplitude_error < 1e-9
    live, truncated = WALK_SHAPE[name]
    inputs = 2 ** len(cons.input_qubits) + 5
    assert report.inputs_checked == inputs
    assert report.branches_checked == inputs * live
    assert report.truncated_branches == truncated


@pytest.mark.parametrize("name,wrong", [
    ("cz-apply", np.eye(4)), ("cz-skip", C.CZ_MATRIX),
    ("autoccz", np.eye(8)),
])
def test_basis_inputs_alone_see_a_wrong_phase(name, wrong):
    """Each outcome's Kraus operator is compared as a whole, so a target
    that differs only by a diagonal phase fails without random inputs."""
    cons = dataclasses.replace(C.CONSTRUCTIONS[name](),
                               target=wrong.astype(np.complex128))
    report = C.verify_construction(cons, random_count=0)
    assert not report.ok
    assert report.max_amplitude_error > 0.1


def test_wrong_target_failure_names_each_outcome_once():
    cons = dataclasses.replace(C.CONSTRUCTIONS["mux-skip"](),
                               target=C.CZ_MATRIX)
    t0 = time.monotonic()
    report = C.verify_construction(cons, random_count=1)
    elapsed = time.monotonic() - t0
    assert not report.ok
    assert len(report.failures) == 16384
    assert report.failures[0].startswith("branch 00000000000000: ")
    named = [f.split(":")[0] for f in report.failures]
    assert len(set(named)) == len(named)
    assert elapsed < 5


@pytest.mark.parametrize("name", ["autoccz", "toffoli"])
def test_consumption_needs_no_conditional_gates(name):
    """Consuming the state takes only measurements and frame updates; all
    adaptivity rides on measurement-basis choices."""
    circuit = C.CONSTRUCTIONS[name]().circuit
    assert not any(isinstance(op, CGate) for op in circuit.operations)


@pytest.mark.parametrize("apply_mode", [True, False])
def test_delayed_choice_cz_branch_count(apply_mode):
    # two routing measurements -> four branches per input state
    cons = C.build_delayed_choice_cz(apply_mode)
    for _, state in basis_inputs(2):
        branches = enumerate_branches(cons.circuit, state)
        assert len(branches) == 4


def test_toffoli_branch_count():
    # three CCZ-half measurements plus three embedded two-measurement CZ
    # fixups -> 2^9 outcome patterns per input state
    cons = C.CONSTRUCTIONS["toffoli"]()
    assert len(cons.circuit.measured_qubits) == 9
    _, state = basis_inputs(3)[0]
    assert len(enumerate_branches(cons.circuit, state)) == 512


def test_boolean_channel_check():
    cons = C.CONSTRUCTIONS["toffoli"]()
    assert check_channel(cons.circuit, cons.target,
                         output_qubits=cons.output_qubits).ok
    assert not check_channel(cons.circuit, np.eye(8),
                             output_qubits=cons.output_qubits).ok


def test_ring_resource_op_shape():
    ops = C.ring_resource_ops()
    names = [g.name for g in ops]
    assert names.count("CCZ") == 1
    assert names.count("CZ") == 9


@pytest.mark.parametrize("bits", range(8))
def test_maj_computes_majority(bits):
    c, b, a = (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
    out = run_bits(C.build_maj(), f"{c}{b}{a}")
    assert int(out[2]) == majority(a, b, c)
    assert int(out[0]) == c ^ a
    assert int(out[1]) == b ^ a


@pytest.mark.parametrize("bits", range(8))
def test_maj_then_uma_restores_carry_and_a(bits):
    c, b, a = (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
    circuit = Circuit(3, C.build_maj().operations + C.build_uma().operations)
    out = run_bits(circuit, f"{c}{b}{a}")
    assert out == f"{c}{a ^ b ^ c}{a}"


def test_majority_truth_table():
    assert majority(0, 0, 0) == 0
    assert majority(0, 1, 1) == 1
    assert majority(1, 0, 1) == 1
    assert majority(1, 1, 1) == 1
    assert majority(1, 0, 0) == 0


@pytest.mark.parametrize("m", range(2, 11))
def test_adder_toffoli_count(m):
    circuit, spec = C.build_cuccaro_adder(m)
    assert spec.toffoli_count == 2 * m - 3
    assert circuit.gate_count("CCZ") == 2 * m - 3


def test_adder_wire_assignment():
    _, spec = C.build_cuccaro_adder(3)
    assert spec.c_wire == 0
    assert spec.t_wires == (1, 3, 5)
    assert spec.i_wires == (2, 4)
    assert spec.num_qubits == 6


@pytest.mark.parametrize("m", [2, 3, 4])
def test_adder_exhaustive(m):
    ok, msg = C.verify_adder(m)
    assert ok, msg


def test_adder_vectorized_oracle():
    """Whole-table comparison against integer addition done in numpy."""
    m = 5
    circuit, spec = C.build_cuccaro_adder(m)
    table = run_reversible_table(circuit)
    n = spec.num_qubits
    idx = np.arange(1 << n)

    def field(wires):
        out = np.zeros_like(idx)
        for k, w in enumerate(wires):
            out |= ((idx >> (n - 1 - w)) & 1) << k
        return out

    c_in = field([spec.c_wire])
    a = field(spec.i_wires)
    b = field(spec.t_wires)
    s = (a + b + c_in) % (1 << m)
    expect = np.zeros_like(idx)
    for k, w in enumerate([spec.c_wire]):
        expect |= ((c_in >> k) & 1) << (n - 1 - w)
    for k, w in enumerate(spec.i_wires):
        expect |= ((a >> k) & 1) << (n - 1 - w)
    for k, w in enumerate(spec.t_wires):
        expect |= ((s >> k) & 1) << (n - 1 - w)
    assert np.array_equal(table, expect)


def _loop_adder_check(spec, table):
    """The per-triple loop the vectorised check replaced."""
    n, m = spec.num_qubits, spec.bits
    for c_in in (0, 1):
        for a in range(1 << (m - 1)):
            for b in range(1 << m):
                src = pack_adder_input(spec, c_in, a, b)
                got = unpack_adder_output(
                    spec, format(table[int(src, 2)], f"0{n}b"))
                want = (c_in, a, (a + b + c_in) % (1 << m))
                if got != want:
                    return False, (f"adder-{m}: {c_in},{a},{b} -> {got}, "
                                   f"want {want}")
    return True, f"adder-{m}: {1 << (2 * m)} inputs exact"


def adder_table_words(spec, table):
    """The output words of a truth table over every (carry-in, a, b)
    triple, triple i in lane i, as `verify_adder` lays them out."""
    m, n = spec.bits, spec.num_qubits
    triple = np.arange(1 << (2 * m), dtype=np.int64)
    values = (triple >> (2 * m - 1), (triple >> m) & ((1 << (m - 1)) - 1),
              triple & ((1 << m) - 1))
    index = np.zeros_like(triple)
    for value, wires in zip(values, ((spec.c_wire,), spec.i_wires,
                                     spec.t_wires)):
        for k, w in enumerate(wires):
            index |= ((value >> k) & 1) << (n - 1 - w)
    out = table[index]
    words = []
    for q in range(n):
        lanes = ((out >> (n - 1 - q)) & 1).astype(np.uint8)
        lanes = np.pad(lanes, (0, -len(lanes) % 64))
        words.append(np.packbits(lanes, bitorder="little").view("<u8")
                     .astype(np.uint64))
    return words


def test_adder_table_check_names_first_bad_triple():
    circuit, spec = C.build_cuccaro_adder(4)
    table = run_reversible_table(circuit)
    assert C.compare_adder_words(spec, adder_table_words(spec, table)) == \
        (True, "adder-4: 256 inputs exact")
    table[[5, 6]] = table[[6, 5]]
    result = C.compare_adder_words(spec, adder_table_words(spec, table))
    assert result == (False, "adder-4: 0,0,12 -> (0, 4, 8), want (0, 0, 12)")
    assert result == _loop_adder_check(spec, table)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.data())
def test_adder_table_check_matches_loop(m, data):
    circuit, spec = C.build_cuccaro_adder(m)
    table = run_reversible_table(circuit)
    size = len(table)
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, size - 1))
        table[i] = data.draw(st.integers(0, size - 1))
    assert C.compare_adder_words(spec, adder_table_words(spec, table)) == \
        _loop_adder_check(spec, table)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.booleans(), st.data())
def test_verify_adder_matches_loop_on_broken_circuits(m, drop, data):
    """One CX of the adder dropped or retargeted: the bit-sliced check
    names the same first bad triple as the loop over the circuit's
    table."""
    circuit, spec = C.build_cuccaro_adder(m)
    ops = list(circuit.operations)
    cxs = [k for k, op in enumerate(ops) if op.name == "CX"]
    k = data.draw(st.sampled_from(cxs))
    if drop:
        del ops[k]
    else:
        control, target = ops[k].qubits
        others = [q for q in range(spec.num_qubits)
                  if q not in (control, target)]
        ops[k] = Gate("CX", (control, data.draw(st.sampled_from(others))))
    broken = Circuit(circuit.num_qubits, tuple(ops))
    with mock.patch.object(C, "build_cuccaro_adder",
                           return_value=(broken, spec)):
        result = C.verify_adder(m)
    assert result == _loop_adder_check(spec, run_reversible_table(broken))


def test_verify_adder_11_stays_small():
    # one bit per input: 22 wires of 2^16 words, not 22 int64 columns of
    # 2^22 rows (about 0.8 GB)
    tracemalloc.start()
    try:
        ok, msg = C.verify_adder(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ok, msg) == (True, "adder-11: 4194304 inputs exact")
    assert peak < 64 << 20


def test_adder_pack_unpack_round_trip():
    _, spec = C.build_cuccaro_adder(4)
    bits = pack_adder_input(spec, 1, 5, 9)
    assert unpack_adder_output(spec, bits) == (1, 5, 9)


def test_adder_worked_example():
    circuit, spec = C.build_cuccaro_adder(3)
    out = run_bits(circuit, pack_adder_input(spec, 1, 2, 5))
    c, a, s = unpack_adder_output(spec, out)
    assert (c, a, s) == (1, 2, (2 + 5 + 1) % 8)


def test_adder_rejects_tiny_register():
    with pytest.raises(ValueError):
        C.build_cuccaro_adder(1)


@pytest.mark.parametrize("name", sorted(C.CONSTRUCTIONS))
def test_io_declared_consistently(name):
    cons = C.CONSTRUCTIONS[name]()
    circuit = cons.circuit
    inits = circuit.initial_states
    assert all(inits[q] == "?" for q in cons.input_qubits)
    assert set(cons.output_qubits) == set(circuit.surviving_qubits)
    for q in cons.routing_qubits:
        assert q in circuit.measured_qubits


# ------------------------------------------------- hand-written references
#
# Each construction written out op by op, with no block shared between
# them or with the builders, which must match them op for op.

def _ref_delayed_choice_cz(apply):
    ops = [Gate("CZ", (2, 3)), Gate("CX", (0, 2)), Gate("CX", (1, 3))]
    if apply:
        ops += [Measure(2, "m1", "z"), Measure(3, "m2", "z"),
                FrameUpdate(0, "Z", parse_condition("m2")),
                FrameUpdate(1, "Z", parse_condition("m1"))]
    else:
        ops += [Measure(2, "m1", "x"), Measure(3, "m2", "x"),
                FrameUpdate(0, "Z", parse_condition("m1")),
                FrameUpdate(1, "Z", parse_condition("m2"))]
    return (Circuit(4, tuple(ops), ("?", "?", "+", "+")),
            GATES["CZ"] if apply else np.eye(4, dtype=np.complex128),
            (0, 1), (0, 1), (2, 3))


_REF_FRAMES = {
    0: "u1 ^ m3&u1 ^ m3&u2 ^ u6 ^ m2&u6 ^ m2&u5 ^ m3&m2",
    1: "u2 ^ m3&u2 ^ m3&u1 ^ u3 ^ m1&u3 ^ m1&u4 ^ m3&m1",
    2: "u4 ^ m1&u4 ^ m1&u3 ^ u5 ^ m2&u5 ^ m2&u6 ^ m1&m2",
}


def _ref_ring_ops():
    ops = [Gate("CCZ", (3, 6, 9))]
    ops += [Gate("CZ", (w, w + 1)) for w in range(3, 11)]
    ops += [Gate("CZ", (11, 3)),
            Gate("CX", (0, 3)), Gate("CX", (1, 6)), Gate("CX", (2, 9)),
            Measure(3, "m1", "z"), Measure(6, "m2", "z"),
            Measure(9, "m3", "z")]
    for pair, key, ukeys in (((4, 5), "m3", ("u1", "u2")),
                             ((7, 8), "m1", ("u3", "u4")),
                             ((10, 11), "m2", ("u5", "u6"))):
        flip = parse_condition(key)
        ops += [Measure(pair[0], ukeys[0], "z", flip),
                Measure(pair[1], ukeys[1], "z", flip)]
    return ops


def _ref_autoccz():
    ops = _ref_ring_ops() + [FrameUpdate(w, "Z", parse_condition(c))
                             for w, c in _REF_FRAMES.items()]
    return (Circuit(12, tuple(ops), ("?",) * 3 + ("+",) * 9), GATES["CCZ"],
            (0, 1, 2), (0, 1, 2), (4, 5, 7, 8, 10, 11))


def _ref_toffoli():
    ops = [Gate("H", (2,)), *_ref_ring_ops(), Gate("H", (2,))]
    ops += [FrameUpdate(w, "X" if w == 2 else "Z", parse_condition(c))
            for w, c in _REF_FRAMES.items()]
    return (Circuit(12, tuple(ops), ("?",) * 3 + ("+",) * 9), GATES["CCX"],
            (0, 1, 2), (0, 1, 2), (4, 5, 7, 8, 10, 11))


_REF_MUX_FRAMES = {
    True: ((7, "X", "gla ^ ela ^ yla"), (7, "Z", "fl ^ era"),
           (15, "X", "gra ^ era ^ yra"), (15, "Z", "fr ^ ela")),
    False: ((7, "X", "glb ^ elb ^ ylb"), (7, "Z", "fl ^ ela ^ yla"),
            (15, "X", "grb ^ erb ^ yrb"), (15, "Z", "fr ^ era ^ yra")),
}


def _ref_mux(apply):
    # per side: a, eA, xA, eB, xB, yA, yB, o on wires 0..7 (left), 8..15
    sides = [dict(zip(("a", "eA", "xA", "eB", "xB", "yA", "yB", "o"),
                      range(base, base + 8))) for base in (0, 8)]
    L, R = sides
    ops = []
    for s in sides:
        ops += [Gate("CX", (s["xA"], s["eA"])), Gate("CX", (s["xB"], s["eB"]))]
    ops.append(Gate("CZ", (L["xA"], R["xA"])))
    for s in sides:
        ops += [Gate("CX", (s["a"], s["eA"])), Gate("CX", (s["a"], s["eB"]))]
    ops += [Measure(L["a"], "fl", "x"), Measure(R["a"], "fr", "x")]
    for s in sides:
        ops += [Gate("CX", (s["yA"], s["xA"])), Gate("CX", (s["yB"], s["xB"]))]
    for s in sides:
        ops += [Gate("CX", (s["o"], s["xA"])), Gate("CX", (s["o"], s["xB"]))]
    ops += [Measure(L["xA"], "gla", "z"), Measure(L["xB"], "glb", "z"),
            Measure(R["xA"], "gra", "z"), Measure(R["xB"], "grb", "z")]
    live, dead = ("z", "x") if apply else ("x", "z")
    ops += [Measure(L["eA"], "ela", live), Measure(L["eB"], "elb", dead),
            Measure(L["yA"], "yla", live), Measure(L["yB"], "ylb", dead),
            Measure(R["eA"], "era", live), Measure(R["eB"], "erb", dead),
            Measure(R["yA"], "yra", live), Measure(R["yB"], "yrb", dead)]
    ops += [FrameUpdate(q, p, parse_condition(c))
            for q, p, c in _REF_MUX_FRAMES[apply]]
    inits = ("?", "0", "+", "0", "+", "+", "+", "+") * 2
    return (Circuit(16, tuple(ops), inits),
            GATES["CZ"] if apply else np.eye(4, dtype=np.complex128),
            (0, 8), (7, 15), (1, 3, 5, 6, 9, 11, 13, 14))


REFERENCES = {
    "cz-apply": lambda: _ref_delayed_choice_cz(True),
    "cz-skip": lambda: _ref_delayed_choice_cz(False),
    "autoccz": _ref_autoccz,
    "toffoli": _ref_toffoli,
    "mux-apply": lambda: _ref_mux(True),
    "mux-skip": lambda: _ref_mux(False),
}


def _ref_cuccaro_adder(m):
    def ccx(a, b, t):
        return [Gate("H", (t,)), Gate("CCZ", (a, b, t)), Gate("H", (t,))]
    t = [1 + 2 * k for k in range(m - 1)] + [2 * m - 1]
    i = [2 + 2 * k for k in range(m - 1)]
    carry = [0] + i[:-1]
    ops = []
    for k in range(m - 1):
        ops += [Gate("CX", (i[k], t[k])), Gate("CX", (i[k], carry[k]))]
        if k < m - 2:
            ops += ccx(carry[k], t[k], i[k])
    ops += ccx(carry[m - 2], t[m - 2], t[m - 1])
    ops += [Gate("CX", (i[m - 2], t[m - 1])),
            Gate("CX", (i[m - 2], carry[m - 2])),
            Gate("CX", (carry[m - 2], t[m - 2]))]
    for k in range(m - 3, -1, -1):
        ops += ccx(carry[k], t[k], i[k])
        ops += [Gate("CX", (i[k], carry[k])), Gate("CX", (carry[k], t[k]))]
    spec = C.AdderSpec(bits=m, num_qubits=2 * m, c_wire=0, t_wires=tuple(t),
                       i_wires=tuple(i), toffoli_count=2 * m - 3)
    return Circuit(2 * m, tuple(ops)), spec


@pytest.mark.parametrize("name", sorted(C.CONSTRUCTIONS))
def test_construction_matches_its_reference_op_for_op(name):
    cons = C.CONSTRUCTIONS[name]()
    circuit, target, inputs, outputs, routing = REFERENCES[name]()
    assert cons.name == name
    assert cons.circuit.num_qubits == circuit.num_qubits
    assert cons.circuit.operations == circuit.operations
    assert cons.circuit.initial_states == circuit.initial_states
    assert cons.target.dtype == target.dtype
    assert cons.target.shape == target.shape
    assert cons.target.tobytes() == target.tobytes()
    assert (cons.input_qubits, cons.output_qubits, cons.routing_qubits) \
        == (inputs, outputs, routing)


def test_adder_matches_its_reference_op_for_op():
    for m in range(2, 201):
        assert C.build_cuccaro_adder(m) == _ref_cuccaro_adder(m), m


def test_targets_are_one_table():
    """The constructions' target names and the ZX fixture's are one
    table."""
    from latticeplan import zx
    assert zx.TARGETS is C.TARGETS
    assert C.CZ_MATRIX is C.TARGETS["CZ"]
    assert C.CCZ_MATRIX is C.TARGETS["CCZ"]
