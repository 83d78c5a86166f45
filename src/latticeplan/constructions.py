"""Adaptive circuit constructions and their verification targets.

Everything here reduces a logically nontrivial operation to Clifford
operations, single-qubit measurements, and Pauli frame updates around a
fixed resource: a delayed-choice CZ pair, its multiplexed two-branch
variant, a nine-qubit ring resource that delivers a CCZ, the Toffoli built
from that ring, and ripple-carry adders whose only non-Clifford gates are
CCZs.

Each fact is stated once. A construction's input wires are the ``"?"``
initial states of its circuit; the delayed-choice CZ is one op list
whose bases and frame keys follow the choice; the AutoCCZ and the
Toffoli are one ring builder, the Toffoli conjugating its target wire by
H; the adder is the MAJ and UMA blocks of ``build_maj`` and
``build_uma``, relabelled onto each stage's wires, around a fused apex;
and ``TARGETS`` is the one table of named targets, which ``zx`` reads.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .circuits import (Circuit, Condition, FrameUpdate, Gate, GATES, Measure,
                       basis_inputs, check_channel, parse_condition,
                       random_inputs)
# nothing here calls run_reversible_table (verify_adder runs the bit-sliced
# core itself), but bench/tracing.py patches this name
from .circuits import run_reversible_table  # noqa: F401
from .circuits.reversible import (LANES, check_table_width, index_word,
                                  run_words, word_count)
from .circuits.simulate import ChannelReport, input_qubits_of
from .scheduler import adder_toffolis

# The named targets of the constructions and of the ZX fixture cases.
TARGETS: dict[str, np.ndarray] = {
    "I2": np.eye(4, dtype=np.complex128),
    "CZ": GATES["CZ"],
    "CCZ": GATES["CCZ"],
}
CZ_MATRIX = TARGETS["CZ"]
CCZ_MATRIX = TARGETS["CCZ"]


@dataclasses.dataclass(frozen=True)
class Construction:
    """A circuit together with the unitary it must implement on its data
    qubits, modulo per-branch Pauli frame."""

    name: str
    circuit: Circuit
    target: np.ndarray
    output_qubits: tuple[int, ...]
    routing_qubits: tuple[int, ...]

    @property
    def input_qubits(self) -> tuple[int, ...]:
        """The circuit's ``"?"`` wires, as ``input_qubits_of`` reads them."""
        return input_qubits_of(self.circuit)


def build_delayed_choice_cz(apply: bool) -> Construction:
    """CZ between qubits 0 and 1, decided after the resource pair (2, 3)
    has been prepared and coupled.

    Z-measuring the pair applies the CZ with crossed frame keys; X-basis
    removes it with uncrossed keys.
    """
    basis, keys = ("z", ("m2", "m1")) if apply else ("x", ("m1", "m2"))
    ops = (
        Gate("CZ", (2, 3)),
        Gate("CX", (0, 2)),
        Gate("CX", (1, 3)),
        Measure(2, "m1", basis),
        Measure(3, "m2", basis),
        FrameUpdate(0, "Z", parse_condition(keys[0])),
        FrameUpdate(1, "Z", parse_condition(keys[1])),
    )
    return Construction(
        name="cz-apply" if apply else "cz-skip",
        circuit=Circuit(4, ops, ("?", "?", "+", "+")),
        target=TARGETS["CZ" if apply else "I2"],
        output_qubits=(0, 1),
        routing_qubits=(2, 3),
    )


RING_EDGES = ((3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
              (10, 11), (11, 3))

# Routing pairs of the ring: wires, basis key, and the data pair whose CZ
# correction they carry.
_RING_PAIRS = (
    ((4, 5), "m3", ("u1", "u2"), (0, 1)),
    ((7, 8), "m1", ("u3", "u4"), (1, 2)),
    ((10, 11), "m2", ("u5", "u6"), (2, 0)),
)

# End-time Z frame on each data wire, xor-of-ands over the nine outcomes.
# Each routing pair contributes crossed keys when its CZ fires (basis
# flipped to X) and uncrossed keys when it does not; the three pairwise
# products are the residue of consuming the CCZ itself.
_AUTOCCZ_Z_FRAMES: dict[int, Condition] = {
    0: parse_condition("u1 ^ m3&u1 ^ m3&u2 ^ u6 ^ m2&u6 ^ m2&u5 ^ m3&m2"),
    1: parse_condition("u2 ^ m3&u2 ^ m3&u1 ^ u3 ^ m1&u3 ^ m1&u4 ^ m3&m1"),
    2: parse_condition("u4 ^ m1&u4 ^ m1&u3 ^ u5 ^ m2&u5 ^ m2&u6 ^ m1&m2"),
}


def ring_resource_ops() -> tuple:
    """Preparation of the nine-qubit resource on wires 3..11: a CCZ across
    the three anchor wires plus a cycle of CZ edges."""
    ops = [Gate("CCZ", (3, 6, 9))]
    ops += [Gate("CZ", e) for e in RING_EDGES]
    return tuple(ops)


def _ring_construction(toffoli: bool) -> Construction:
    """CCZ on qubits 0, 1, 2 consumed from the ring resource using only
    measurements whose bases depend on earlier outcomes. With
    ``toffoli``, H on wire 2 before and after the ring makes it a Toffoli
    onto wire 2, whose Z frame commutes through the trailing H as an X
    frame."""
    h = (Gate("H", (2,)),) if toffoli else ()
    ops = [
        *h,
        *ring_resource_ops(),
        Gate("CX", (0, 3)),
        Gate("CX", (1, 6)),
        Gate("CX", (2, 9)),
        Measure(3, "m1", "z"),
        Measure(6, "m2", "z"),
        Measure(9, "m3", "z"),
    ]
    for (pair, key, ukeys, _) in _RING_PAIRS:
        flip = parse_condition(key)
        ops.append(Measure(pair[0], ukeys[0], "z", flip))
        ops.append(Measure(pair[1], ukeys[1], "z", flip))
    ops += h
    ops += [FrameUpdate(wire, "X" if toffoli and wire == 2 else "Z", cond)
            for wire, cond in _AUTOCCZ_Z_FRAMES.items()]
    return Construction(
        name="toffoli" if toffoli else "autoccz",
        circuit=Circuit(12, tuple(ops), ("?", "?", "?") + ("+",) * 9),
        target=GATES["CCX"] if toffoli else TARGETS["CCZ"],
        output_qubits=(0, 1, 2),
        routing_qubits=tuple(w for pair, *_ in _RING_PAIRS for w in pair),
    )


def build_autoccz() -> Construction:
    """CCZ on qubits 0, 1, 2 from the ring resource."""
    return _ring_construction(toffoli=False)


def build_toffoli_from_ccz() -> Construction:
    """Toffoli with target qubit 2, from the ring CCZ conjugated by H."""
    return _ring_construction(toffoli=True)


# Wires of the two-branch multiplexed delayed-choice CZ, per side:
# a = data in, (eA, xA) and (eB, xB) = entry/exit halves of the two branch
# pairs, yA/yB = demultiplexer poles, o = merged output.
_MUX_SIDE = {"a": 0, "eA": 1, "xA": 2, "eB": 3, "xB": 4,
             "yA": 5, "yB": 6, "o": 7}
_MUX_L = _MUX_SIDE
_MUX_R = {k: v + 8 for k, v in _MUX_SIDE.items()}

# Frozen frame tables, solved from the branch enumeration during
# development and re-verified by the channel checks in the test suite.
# In apply mode each output's Z frame carries the opposite side's entry
# outcome (the teleported CZ phase); in skip mode it carries the same
# side's cut-branch outcomes.
_MUX_FRAMES: dict[str, tuple[tuple[int, str, str], ...]] = {
    "apply": (
        (7, "X", "gla ^ ela ^ yla"),
        (7, "Z", "fl ^ era"),
        (15, "X", "gra ^ era ^ yra"),
        (15, "Z", "fr ^ ela"),
    ),
    "skip": (
        (7, "X", "glb ^ elb ^ ylb"),
        (7, "Z", "fl ^ ela ^ yla"),
        (15, "X", "grb ^ erb ^ yrb"),
        (15, "Z", "fr ^ era ^ yra"),
    ),
}


def _mux_ops(apply: bool) -> tuple:
    L, R = _MUX_L, _MUX_R
    ops: list = []
    for s in (L, R):
        ops += [Gate("CX", (s["xA"], s["eA"])), Gate("CX", (s["xB"], s["eB"]))]
    ops.append(Gate("CZ", (L["xA"], R["xA"])))
    for s in (L, R):
        ops += [Gate("CX", (s["a"], s["eA"])), Gate("CX", (s["a"], s["eB"]))]
    ops += [Measure(L["a"], "fl", "x"), Measure(R["a"], "fr", "x")]
    for s in (L, R):
        ops += [Gate("CX", (s["yA"], s["xA"])), Gate("CX", (s["yB"], s["xB"]))]
    for s in (L, R):
        ops += [Gate("CX", (s["o"], s["xA"])), Gate("CX", (s["o"], s["xB"]))]
    ops += [
        Measure(L["xA"], "gla", "z"), Measure(L["xB"], "glb", "z"),
        Measure(R["xA"], "gra", "z"), Measure(R["xB"], "grb", "z"),
    ]
    live, dead = ("z", "x") if apply else ("x", "z")
    ops += [
        Measure(L["eA"], "ela", live), Measure(L["eB"], "elb", dead),
        Measure(L["yA"], "yla", live), Measure(L["yB"], "ylb", dead),
        Measure(R["eA"], "era", live), Measure(R["eB"], "erb", dead),
        Measure(R["yA"], "yra", live), Measure(R["yB"], "yrb", dead),
    ]
    for qubit, pauli, cond in _MUX_FRAMES["apply" if apply else "skip"]:
        ops.append(FrameUpdate(qubit, pauli, parse_condition(cond)))
    return tuple(ops)


def build_multiplexed_cz(apply: bool) -> Construction:
    """Two-branch multiplexed delayed-choice CZ: sixteen qubits, eight of
    them routing qubits whose measurement basis encodes the choice. The
    data teleports through branch A (which carries a precomputed CZ) or
    branch B (which does not) and lands on the merge qubits."""
    inits = ["0"] * 16
    for s in (_MUX_L, _MUX_R):
        inits[s["a"]] = "?"
        for w in ("xA", "xB", "yA", "yB", "o"):
            inits[s[w]] = "+"
    routing = tuple(sorted(
        s[w] for s in (_MUX_L, _MUX_R) for w in ("eA", "eB", "yA", "yB")))
    return Construction(
        name="mux-apply" if apply else "mux-skip",
        circuit=Circuit(16, _mux_ops(apply), tuple(inits)),
        target=TARGETS["CZ" if apply else "I2"],
        output_qubits=(_MUX_L["o"], _MUX_R["o"]),
        routing_qubits=routing,
    )


def build_maj() -> Circuit:
    """Majority step on wires (carry, b, a): a picks up MAJ(carry, b, a),
    the others hold xor differences for the matching uma step."""
    return Circuit(3, (
        Gate("CX", (2, 1)),
        Gate("CX", (2, 0)),
        Gate("H", (2,)),
        Gate("CCZ", (0, 1, 2)),
        Gate("H", (2,)),
    ))


def build_uma() -> Circuit:
    """Unmajority-and-add step on wires (carry, b, a)."""
    return Circuit(3, (
        Gate("H", (2,)),
        Gate("CCZ", (0, 1, 2)),
        Gate("H", (2,)),
        Gate("CX", (2, 0)),
        Gate("CX", (0, 1)),
    ))


@dataclasses.dataclass(frozen=True)
class AdderSpec:
    """Wire map of the ripple-carry adder.

    ``t_wires`` hold the m-bit addend b and finish holding the sum;
    ``i_wires`` hold the (m-1)-bit addend a, restored at the end; wire 0 is
    the carry-in, also restored. Interleaving t and i wires keeps every
    CCZ acting on adjacent rows of a stride-2 data layout.
    """

    bits: int
    num_qubits: int
    c_wire: int
    t_wires: tuple[int, ...]
    i_wires: tuple[int, ...]
    toffoli_count: int


def _on(block: tuple, wires: tuple[int, ...]) -> list:
    """The gates of a three-wire block, wire j relabelled onto
    ``wires[j]``."""
    return [Gate(g.name, tuple(wires[q] for q in g.qubits)) for g in block]


def build_cuccaro_adder(bits: int) -> tuple[Circuit, AdderSpec]:
    """In-place ripple-carry adder: stage k is the MAJ block, and later
    the UMA block, on wires (carry[k], t[k], i[k]). The last stage is
    fused into the apex, whose Toffoli computes the top sum bit: one CCZ
    per Toffoli of ``scheduler.adder_toffolis`` for an m-bit target
    register, which is also its serial measurement depth."""
    m = bits
    if m < 2:
        raise ValueError("adder needs at least 2 bits")
    t = [1 + 2 * k for k in range(m - 1)] + [2 * m - 1]
    i = [2 + 2 * k for k in range(m - 1)]
    carry = [0] + i[:-1]
    stage = [(carry[k], t[k], i[k]) for k in range(m - 1)]
    maj, uma = build_maj().operations, build_uma().operations
    ops: list = []
    for k in range(m - 2):
        ops += _on(maj, stage[k])
    apex = stage[m - 2]
    ops += _on(maj[:2], apex)
    ops += _on(maj[2:], apex[:2] + (t[m - 1],))  # its Toffoli onto t[m-1]
    ops.append(Gate("CX", (i[m - 2], t[m - 1])))
    ops += _on(uma[-2:], apex)
    for k in range(m - 3, -1, -1):
        ops += _on(uma, stage[k])
    circuit = Circuit(2 * m, tuple(ops))
    spec = AdderSpec(
        bits=m,
        num_qubits=2 * m,
        c_wire=0,
        t_wires=tuple(t),
        i_wires=tuple(i),
        toffoli_count=adder_toffolis(m),
    )
    return circuit, spec


CONSTRUCTIONS = {
    "cz-apply": lambda: build_delayed_choice_cz(True),
    "cz-skip": lambda: build_delayed_choice_cz(False),
    "autoccz": build_autoccz,
    "toffoli": build_toffoli_from_ccz,
    "mux-apply": lambda: build_multiplexed_cz(True),
    "mux-skip": lambda: build_multiplexed_cz(False),
}

# Kept only so that bench/tracing.py can patch this name; nothing here
# calls it.
check_channel_by_linearity = check_channel


def verify_construction(construction: Construction, *, random_count: int = 3,
                        seed: int = 11) -> ChannelReport:
    """Exact channel check of a construction: one Kraus operator per
    outcome string, each compared with the target, plus all basis inputs
    and seeded random inputs evaluated through them."""
    c = construction
    k = len(c.input_qubits)
    return check_channel(
        c.circuit, c.target,
        inputs=basis_inputs(k) + random_inputs(k, random_count, seed=seed),
        output_qubits=c.output_qubits)


def compare_adder_words(spec: AdderSpec,
                        out: list) -> tuple[bool, str]:
    """Check the adder's output words over every (carry-in, a, b) triple
    against a bit-sliced ripple-carry sum; a failure names the first bad
    triple in the order carry-in, then a, then b.

    Triple i is lane i of `out`, with carry-in on bit 2m-1 of i, a on the
    m-1 bits below it and b on the low m bits."""
    m = spec.bits
    count = 1 << (2 * m)
    words = word_count(count)
    c_in = index_word(2 * m - 1, words)
    bad = out[spec.c_wire] ^ c_in
    carry = c_in
    for k, wire in enumerate(spec.t_wires):
        b = index_word(k, words)
        if k < m - 1:
            a = index_word(m + k, words)
            bad |= out[spec.i_wires[k]] ^ a
            bad |= out[wire] ^ a ^ b ^ carry
            carry = (a & b) | (carry & (a ^ b))
        else:
            bad |= out[wire] ^ b ^ carry
    if count < LANES:  # a lone word: drop its spare lanes
        bad &= np.uint64((1 << count) - 1)
    hits = np.flatnonzero(bad)
    if not len(hits):
        return True, f"adder-{m}: {count} inputs exact"
    w = int(hits[0])
    word = int(bad[w])
    lane = (word & -word).bit_length() - 1
    i = w * LANES + lane
    c, a, b = i >> (2 * m - 1), (i >> m) & ((1 << (m - 1)) - 1), \
        i & ((1 << m) - 1)
    got = tuple(sum((int(out[x][w]) >> lane & 1) << k
                    for k, x in enumerate(field))
                for field in ((spec.c_wire,), spec.i_wires, spec.t_wires))
    return False, (f"adder-{m}: {c},{a},{b} -> {got}, "
                   f"want {(c, a, (a + b + c) & ((1 << m) - 1))}")


def verify_adder(bits: int) -> tuple[bool, str]:
    """Exhaustive classical check of the adder against integer addition:
    the circuit runs bit-sliced over every (carry-in, a, b) triple."""
    circuit, spec = build_cuccaro_adder(bits)
    if circuit.gate_count("CCZ") != spec.toffoli_count:
        return False, f"adder-{bits}: wrong CCZ count"
    check_table_width(spec.num_qubits)
    # each wire starts as the triple-index bit it holds (see above)
    bit_of = {spec.c_wire: 2 * bits - 1}
    bit_of.update((w, k) for k, w in enumerate(spec.t_wires))
    bit_of.update((w, bits + k) for k, w in enumerate(spec.i_wires))
    words = word_count(1 << (2 * bits))
    wires = [index_word(bit_of[w], words) for w in range(spec.num_qubits)]
    run_words(circuit, wires)
    return compare_adder_words(spec, wires)
