"""Branch enumeration semantics: ordering, probabilities, stubs, frames,
and the Kraus operators of the same walk."""

import dataclasses
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeplan.circuits import (CGate, Circuit, FrameUpdate, Gate, Measure,
                                  TRUE, apply_gate, basis_state,
                                  check_channel, enumerate_branches,
                                  evaluate_condition, parse_condition,
                                  random_state)
from latticeplan.circuits import simulate
from latticeplan.circuits.gates import (GATE_ARITY, GATES, apply_in_place,
                                        apply_pauli)
from latticeplan.circuits.simulate import (ATOL, PROB_FLOOR, ChannelReport,
                                           _bit_strings, basis_inputs,
                                           initial_vector, input_qubits_of,
                                           kraus_operators, random_inputs)
from latticeplan.constructions import (CCZ_MATRIX, CONSTRUCTIONS, CZ_MATRIX,
                                      verify_construction)
from latticeplan.exceptions import CapacityError, ContractError


def _walk(circuit, input_state):
    """The grouped walk expanded to one block row per live outcome string:
    its ``block`` is the (2^s, B, C) per-prefix block, the B strings in
    lexicographic order."""
    g = simulate._grouped_walk(circuit, input_state)
    return g._replace(block=g.block[g.group].transpose(1, 0, 2))


def _plus_measure():
    return Circuit(num_qubits=1,
                   operations=(Gate("H", (0,)), Measure(0, "m")),
                   initial_states=("0",))


def test_plus_measurement_splits_evenly():
    branches = enumerate_branches(_plus_measure())
    assert [b.outcome_bits for b in branches] == ["0", "1"]
    assert all(np.isclose(b.probability, 0.5) for b in branches)
    assert all(b.outcomes == {"m": int(b.outcome_bits)} for b in branches)


def test_no_measurement_single_branch():
    c = Circuit(num_qubits=2, operations=(Gate("H", (0,)),),
                initial_states=("0", "0"))
    branches = enumerate_branches(c)
    assert len(branches) == 1
    assert branches[0].outcome_bits == ""
    assert np.isclose(branches[0].probability, 1.0)
    assert branches[0].surviving_qubits == (0, 1)


def test_zero_probability_branch_is_truncated_stub():
    c = Circuit(num_qubits=1, operations=(Measure(0, "m"),),
                initial_states=("0",))
    branches = enumerate_branches(c)
    assert [b.outcome_bits for b in branches] == ["0", "1"]
    live, stub = branches
    assert np.isclose(live.probability, 1.0)
    assert stub.truncated
    assert stub.probability == 0.0
    assert stub.amplitudes is None
    assert (stub.frame_x, stub.frame_z) == (0, 0)


def test_lexicographic_depth_first_order():
    c = Circuit(num_qubits=2,
                operations=(Gate("H", (0,)), Gate("H", (1,)),
                            Measure(0, "a"), Measure(1, "b")),
                initial_states=("0", "0"))
    branches = enumerate_branches(c)
    assert [b.outcome_bits for b in branches] == ["00", "01", "10", "11"]


def test_measured_qubits_removed_from_state():
    c = Circuit(num_qubits=3,
                operations=(Gate("H", (1,)), Measure(1, "m")),
                initial_states=("0", "0", "0"))
    for b in enumerate_branches(c):
        assert b.surviving_qubits == (0, 2)
        assert b.amplitudes.shape == (4,)
        assert not b.amplitudes.flags.writeable


def test_probabilities_sum_to_one():
    ops = (Gate("H", (0,)), Gate("CX", (0, 1)), Gate("T", (1,)),
           Gate("H", (2,)), Gate("CZ", (1, 2)), Measure(0, "a"),
           Measure(1, "b", basis="x"), Measure(2, "c"))
    c = Circuit(num_qubits=3, operations=ops, initial_states=("0",) * 3)
    branches = enumerate_branches(c)
    total = sum(b.probability for b in branches)
    assert abs(total - 1.0) < 1e-9


def test_determinism_bit_for_bit():
    ops = (Gate("H", (0,)), Gate("CX", (0, 1)), Measure(0, "a"),
           Measure(1, "b", basis="x"))
    c = Circuit(num_qubits=2, operations=ops, initial_states=("0", "0"))
    first = enumerate_branches(c)
    second = enumerate_branches(c)
    assert [b.outcome_bits for b in first] == [b.outcome_bits
                                               for b in second]
    for x, y in zip(first, second):
        assert x.probability == y.probability
        if not x.truncated:
            assert np.array_equal(x.amplitudes, y.amplitudes)


def test_x_basis_measurement():
    # |+> measured in x is deterministic 0; |0> measured in x is 50/50
    plus = Circuit(num_qubits=1,
                   operations=(Gate("H", (0,)), Measure(0, "m", basis="x")),
                   initial_states=("0",))
    live = [b for b in enumerate_branches(plus) if not b.truncated]
    assert len(live) == 1 and live[0].outcomes["m"] == 0
    zero = Circuit(num_qubits=1,
                   operations=(Measure(0, "m", basis="x"),),
                   initial_states=("0",))
    probs = [b.probability for b in enumerate_branches(zero)]
    assert np.allclose(probs, [0.5, 0.5])


def test_outcome_keyed_basis_flip():
    # the second measurement flips z -> x when the first read 1
    ops = (Gate("H", (0,)),
           Measure(0, "a"),
           Measure(1, "b", flip_basis_if=parse_condition("a")))
    c = Circuit(num_qubits=2, operations=ops, initial_states=("0", "0"))
    by_bits = {b.outcome_bits: b for b in enumerate_branches(c)}
    assert np.isclose(by_bits["00"].probability, 0.5)
    assert by_bits["01"].truncated
    assert np.isclose(by_bits["10"].probability, 0.25)
    assert np.isclose(by_bits["11"].probability, 0.25)


def test_conditional_gate_on_outcome():
    ops = (Gate("H", (0,)), Measure(0, "m"),
           CGate("X", (1,), parse_condition("m")))
    c = Circuit(num_qubits=2, operations=ops, initial_states=("0", "0"))
    for b in enumerate_branches(c):
        want = "1" if b.outcomes["m"] else "0"
        assert np.isclose(abs(b.amplitudes[int(want, 2)]), 1.0)


def test_anf_condition_with_and_terms():
    # X on qubit 2 iff a&b ^ c
    ops = (Gate("H", (0,)), Gate("H", (1,)), Gate("H", (2,)),
           Measure(0, "a"), Measure(1, "b"), Measure(2, "c"),
           CGate("X", (3,), parse_condition("a&b ^ c")))
    c = Circuit(num_qubits=4, operations=ops, initial_states=("0",) * 4)
    for b in enumerate_branches(c):
        o = b.outcomes
        want = (o["a"] & o["b"]) ^ o["c"]
        assert np.isclose(abs(b.amplitudes[want]), 1.0)


def test_frame_updates_accumulate_on_final_frame():
    ops = (Gate("H", (0,)), Measure(0, "m"),
           FrameUpdate(1, "X", parse_condition("m")),
           FrameUpdate(1, "Z", TRUE))
    c = Circuit(num_qubits=2, operations=ops, initial_states=("0", "0"))
    by_m = {b.outcomes["m"]: b for b in enumerate_branches(c)}
    # one surviving qubit: each mask is that qubit's bit
    assert (by_m[0].frame_x, by_m[0].frame_z) == (0, 1)
    assert (by_m[1].frame_x, by_m[1].frame_z) == (1, 1)


def test_frame_update_on_measured_qubit_rejected():
    ops = (Measure(0, "m"), FrameUpdate(0, "X", TRUE))
    with pytest.raises(ValueError):
        Circuit(num_qubits=1, operations=ops, initial_states=("0",))


def test_frame_update_on_qubit_measured_later():
    # input qubit 0 records an X when a reads 1, and is measured afterwards
    ops = (Measure(1, "a"), FrameUpdate(0, "X", parse_condition("a")),
           Measure(0, "b"))
    flipped = Circuit(2, (Gate("H", (1,)),) + ops, ("?", "0"))
    for walk in (lambda c: enumerate_branches(c, basis_state("0")),
                 lambda c: kraus_operators(c, ())):
        with pytest.raises(ValueError,
                           match="^frame update on measured qubit 0$"):
            walk(flipped)
    # with qubit 1 in |0> the a = 1 prefix is a stub: no live branch
    # records the update, so nothing is raised
    quiet = Circuit(2, ops, ("?", "0"))
    assert [(b.outcome_bits, b.truncated)
            for b in enumerate_branches(quiet, basis_state("0"))] == \
        [("00", False), ("01", True), ("1", True)]
    bits, _, stubs = kraus_operators(quiet, ())
    assert (_bit_strings(bits), stubs) == (["00", "01"], 1)


def test_unnormalized_is_sqrt_p_times_state():
    # the walk's unnormalized output of each branch is sqrt(p) times the
    # branch's normalized amplitudes
    c = _plus_measure()
    walk = _walk(c, None)
    for r, b in enumerate(enumerate_branches(c)):
        assert np.allclose(walk.block[:, r, 0],
                           np.sqrt(b.probability) * b.amplitudes)
        assert np.isclose(np.linalg.norm(b.amplitudes), 1.0)


def test_input_qubits_require_input_state():
    c = Circuit(num_qubits=1, operations=(Gate("X", (0,)),),
                initial_states=("?",))
    with pytest.raises(ValueError):
        enumerate_branches(c)
    out = enumerate_branches(c, basis_state("0"))
    assert np.isclose(abs(out[0].amplitudes[1]), 1.0)


def test_capacity_guardrail():
    n = 17
    c = Circuit(num_qubits=n, operations=(Measure(0, "m"),),
                initial_states=("0",) * n)
    with pytest.raises(CapacityError):
        enumerate_branches(c)


def test_kraus_width_cap_raises_before_allocating():
    # 16 qubits, 12 of them inputs: a 2^28-value (4 GiB) block
    c = Circuit(num_qubits=16, operations=(Measure(15, "m"),),
                initial_states=("?",) * 12 + ("0",) * 4)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="Kraus"):
            kraus_operators(c, tuple(range(15)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_walk_runs_in_place():
    """The mux-skip walk works in place on the one 4 MiB block (2^18
    values) it builds from the inputs: past that block it adds at most
    about half a block (the half that an H saves, or a gather of half the
    prefixes), where a fresh block per gate would add a whole one. Its
    channel check peaks under three blocks; with the copying walk and the
    ungrouped check it took 17.6 MiB."""
    c = CONSTRUCTIONS["mux-skip"]()
    start = initial_vector(c.circuit, np.eye(4, dtype=np.complex128))
    tracemalloc.start()
    try:
        _walk(c.circuit, np.eye(4, dtype=np.complex128))
        walk_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        check_channel(c.circuit, c.target, output_qubits=c.output_qubits)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walk_peak < 1.75 * start.nbytes
    assert check_peak < 3 * start.nbytes


def test_check_channel_detects_wrong_unitary():
    c = Circuit(num_qubits=1, operations=(Gate("X", (0,)),),
                initial_states=("?",))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    assert check_channel(c, x).ok
    report = check_channel(c, z)
    assert not report.ok
    assert report.failures


def test_check_channel_rejects_surviving_mismatch():
    c = Circuit(num_qubits=2, operations=(Gate("H", (1,)),),
                initial_states=("?", "0"))
    with pytest.raises(ContractError):
        check_channel(c, np.eye(2))


# ------------------------------------------------- Kraus operators


@st.composite
def adaptive_circuits(draw):
    """Random adaptive circuits on up to four qubits: gates, conditional
    gates, measurements in random (and outcome-flipped) bases and frame
    updates, with at least one input qubit."""
    n = draw(st.integers(1, 4))
    inits = draw(st.lists(st.sampled_from("01+?"), min_size=n, max_size=n))
    inits[draw(st.integers(0, n - 1))] = "?"
    alive = list(range(n))
    keys: list[str] = []
    ops: list = []

    def condition():
        if not keys:
            return TRUE
        return tuple(tuple(draw(st.lists(st.sampled_from(keys), max_size=2,
                                         unique=True)))
                     for _ in range(draw(st.integers(0, 2))))

    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("gate", "cgate", "measure", "frame")))
        if kind in ("gate", "cgate") and alive:
            name = draw(st.sampled_from(
                [g for g, a in GATE_ARITY.items() if a <= len(alive)]))
            qubits = tuple(draw(st.permutations(alive))[:GATE_ARITY[name]])
            ops.append(Gate(name, qubits) if kind == "gate"
                       else CGate(name, qubits, condition()))
        elif kind == "measure" and alive:
            qubit = draw(st.sampled_from(alive))
            ops.append(Measure(qubit, f"m{len(keys)}",
                               draw(st.sampled_from("zx")), condition()))
            keys.append(f"m{len(keys)}")
            alive.remove(qubit)
        elif kind == "frame" and alive:
            ops.append(FrameUpdate(draw(st.sampled_from(alive)),
                                   draw(st.sampled_from("XZ")), condition()))
    # a frame update must name a qubit that survives to the end
    ops = [op for op in ops
           if not isinstance(op, FrameUpdate) or op.qubit in alive]
    return Circuit(num_qubits=n, operations=tuple(ops),
                   initial_states=tuple(inits))


@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
@given(adaptive_circuits(), st.integers(0, 2 ** 32 - 1))
def test_kraus_operators_match_branches(circuit, seed):
    survivors = circuit.surviving_qubits
    bits, kraus, _ = kraus_operators(circuit, survivors)
    bits = _bit_strings(bits)
    k = kraus.shape[2]
    gram = np.einsum("rdi,rdj->ij", kraus.conj(), kraus)
    assert np.allclose(gram, np.eye(k), atol=1e-9)

    psi = random_state(k.bit_length() - 1, np.random.default_rng(seed))
    out = {b: kraus[r] @ psi for r, b in enumerate(bits)}
    for branch in enumerate_branches(circuit, psi):
        if branch.truncated:
            stub = [v for b, v in out.items()
                    if b.startswith(branch.outcome_bits)]
            assert sum(np.vdot(v, v).real for v in stub) < 1e-9
            continue
        v = out.pop(branch.outcome_bits)
        p = np.vdot(v, v).real
        assert np.isclose(p, branch.probability, atol=1e-9)
        if p > 1e-6:
            want = apply_pauli(branch.amplitudes, branch.frame_x,
                               branch.frame_z)
            assert np.allclose(v / np.sqrt(p), want, atol=1e-7)
    # outcome strings live only in the batch weigh nothing for psi
    assert all(np.vdot(v, v).real < 1e-9 for v in out.values())


# ------------------------------------------------- reference walk


def _eager_walk(circuit, block):
    """The breadth-first walk that applies every gate as it comes, in
    place: the byte reference for the walk that folds runs of signed
    affine gates into one gather. ``block`` is the (2^n, C) start."""
    survivors = circuit.surviving_qubits
    alive = list(circuit.measured_qubits + survivors)  # row bits, MSB first
    n, cols = circuit.num_qubits, block.shape[1]
    source = np.zeros(1, dtype=np.intp)  # the start row of each row
    for q in alive:
        source = np.add.outer(source, (0, 1 << (n - 1 - q))).ravel()
    block = block.take(source, axis=0)[None]  # (B, 2^k, C), B = 1
    bits = np.zeros((1, 0), dtype=bool)
    x, z = np.zeros((2, 1), dtype=np.int64)
    bad = np.full(1, -1)
    keys: list[str] = []
    stubs: list[str] = []

    def selected(cond):
        val = evaluate_condition(cond, dict(zip(keys, bits.T)))
        return np.broadcast_to(np.asarray(val, dtype=bool), (len(bits),))

    def apply(name, qubits, where):
        pos = [alive.index(q) for q in qubits]
        if where.all():
            apply_in_place(block, GATES[name], pos, len(alive))
        elif where.any():
            chosen = np.flatnonzero(where)
            part = block[chosen]
            apply_in_place(part, GATES[name], pos, len(alive))
            block[chosen] = part

    for index, op in enumerate(circuit.operations):
        if isinstance(op, Gate):
            apply(op.name, op.qubits, selected(TRUE))
        elif isinstance(op, CGate):
            apply(op.name, op.qubits, selected(op.condition))
        elif isinstance(op, FrameUpdate):
            where = selected(op.condition)
            if op.qubit in survivors:
                bit = 1 << (len(survivors) - 1 - survivors.index(op.qubit))
                mask = x if op.pauli == "X" else z
                mask ^= np.where(where, bit, 0)
            else:
                bad = np.where(where & (bad < 0), index, bad)
        else:
            apply("H", (op.qubit,),
                  selected(op.flip_basis_if) ^ (op.basis == "x"))
            count, rows, _ = block.shape
            block = block.reshape(2 * count, rows // 2, cols)
            bits = np.column_stack((np.repeat(bits, 2, axis=0),
                                    np.tile((False, True), count)))
            x, z, bad = (np.repeat(v, 2) for v in (x, z, bad))
            parts = block.view(np.float64)
            live = np.einsum("brc,brc->b", parts, parts) > PROB_FLOOR
            if not live.all():
                stubs += _bit_strings(bits[~live])
                block, bits = block[live], bits[live]
                x, z, bad = x[live], z[live], bad[live]
            alive.pop(0)
            keys.append(op.key)
    if (bad >= 0).any():
        qubit = circuit.operations[bad[bad >= 0][0]].qubit
        raise ValueError(f"frame update on measured qubit {qubit}")
    return bits, block.transpose(1, 0, 2), x, z, stubs


class _Leaf(NamedTuple):
    """End of one measurement history of the reference walk: the outcome
    string, the (2^s, C) block of unnormalized outputs on the s surviving
    qubits (None for a zero-norm prefix whose subtree was not explored)
    and the recorded frame updates in order."""

    bits: str
    block: np.ndarray | None
    flips: tuple[tuple[int, str], ...]


def _reference_walk(circuit, block):
    """The recursive depth-first walk that the breadth-first one
    replaced: one call per outcome prefix, the 0 outcome first."""
    leaves: list[_Leaf] = []

    def walk(block, alive, op_index, outcomes, bits, flips):
        k = len(alive)
        while op_index < len(circuit.operations):
            op = circuit.operations[op_index]
            op_index += 1
            if isinstance(op, Gate):
                pos = [alive.index(q) for q in op.qubits]
                block = apply_gate(block, op.name, pos, k)
            elif isinstance(op, CGate):
                if evaluate_condition(op.condition, outcomes):
                    pos = [alive.index(q) for q in op.qubits]
                    block = apply_gate(block, op.name, pos, k)
            elif isinstance(op, FrameUpdate):
                if evaluate_condition(op.condition, outcomes):
                    flips = flips + ((op.qubit, op.pauli),)
            else:
                pos = alive.index(op.qubit)
                basis = op.basis
                if evaluate_condition(op.flip_basis_if, outcomes):
                    basis = "x" if basis == "z" else "z"
                if basis == "x":
                    block = apply_gate(block, "H", [pos], k)
                t = block.reshape((2,) * k + (-1,))
                rest = alive[:pos] + alive[pos + 1:]
                for m in (0, 1):
                    child = t.take(m, axis=pos).reshape(-1, t.shape[-1])
                    new_outcomes = {**outcomes, op.key: m}
                    if float(np.vdot(child, child).real) <= PROB_FLOOR:
                        leaves.append(_Leaf(bits + str(m), None, flips))
                    else:
                        walk(child, rest, op_index, new_outcomes,
                             bits + str(m), flips)
                return
        for qubit, _ in flips:
            if qubit not in alive:
                raise ValueError(f"frame update on measured qubit {qubit}")
        leaves.append(_Leaf(bits, block, flips))

    walk(block, tuple(range(circuit.num_qubits)), 0, {}, "", ())
    return leaves


def _reference_live(circuit, leaves):
    """The live leaves as the breadth-first walk holds them: outcome
    strings, one (2^s, B, C) block and the (2, B) X and Z frame masks."""
    survivors = circuit.surviving_qubits
    live = [leaf for leaf in leaves if leaf.block is not None]
    masks = np.zeros((2, len(live)), dtype=np.int64)
    for r, leaf in enumerate(live):
        for qubit, pauli in leaf.flips:
            bit = 1 << (len(survivors) - 1 - survivors.index(qubit))
            masks["XZ".index(pauli), r] ^= bit
    return ([leaf.bits for leaf in live],
            np.stack([leaf.block for leaf in live], axis=1), masks)


@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
@given(adaptive_circuits(), st.integers(0, 2 ** 32 - 1))
# a matmul gate kernel rounded this circuit's random column differently
# in a (2, 4) block than in two (2, 2) blocks
@example(Circuit(3, (Measure(1, "m0", "z", TRUE), Gate("I", (0,)),
                     Gate("T", (0,))), ("?", "0", "0")), 1)
# q2 is measured before q0, so the walk's rows are not in qubit order
@example(Circuit(3, (Gate("CX", (0, 2)), Gate("H", (1,)), Measure(2, "m0"),
                     Gate("T", (1,)), Measure(0, "m1", "x")),
                 ("?", "?", "+")), 2)
# conditional gates that select one and two of the four prefixes
@example(Circuit(4, (Measure(1, "m0"), Measure(2, "m1"),
                     CGate("S", (0,), (("m0", "m1"),)),
                     CGate("CX", (3, 0), (("m0",), ("m1",)))),
                 ("?", "+", "+", "?")), 3)
# an x-basis measurement that the first outcome flips to z
@example(Circuit(3, (Gate("H", (1,)), Measure(1, "m0"), Gate("CX", (0, 2)),
                     Measure(0, "m1", "x", (("m0",),))),
                 ("?", "0", "0")), 4)
# zero-norm stubs "01" and "10", one under each first outcome
@example(Circuit(3, (Measure(2, "m0"), CGate("X", (1,), (("m0",),)),
                     Measure(1, "m1")), ("?", "0", "+")), 5)
# a CX/CZ run on two prefixes, cut by a Z on one of them
@example(Circuit(3, (Measure(0, "m0", "x"), Gate("CX", (1, 2)),
                     Gate("CZ", (2, 1)), CGate("Z", (1,), (("m0",),)),
                     Gate("CX", (2, 1)), Gate("X", (1,))),
                 ("0", "?", "?")), 6)
# a run that ends at an x-basis measurement which the first outcome flips
@example(Circuit(3, (Gate("H", (0,)), Measure(0, "m0"), Gate("CX", (1, 2)),
                     Gate("CZ", (1, 2)), Gate("X", (2,)),
                     Measure(2, "m1", "x", (("m0",),))),
                 ("0", "?", "?")), 7)
# S, T and Y between CXs are applied, not folded
@example(Circuit(2, (Gate("CX", (0, 1)), Gate("S", (1,)), Gate("CX", (1, 0)),
                     Gate("T", (0,)), Gate("CX", (0, 1)), Gate("Y", (1,)),
                     Gate("CZ", (0, 1))), ("?", "?")), 8)
# a run with a sign and a later relabelling, on four prefixes
@example(Circuit(5, (Measure(0, "m0", "x"), Measure(1, "m1", "x"),
                     Gate("CX", (2, 3)), Gate("SWAP", (3, 4)),
                     Gate("CCZ", (2, 3, 4)), Gate("X", (4,)),
                     Gate("CX", (4, 2)), Measure(3, "m2")),
                 ("0", "0", "?", "?", "+")), 9)
def test_walk_matches_reference(circuit, seed):
    k = len(input_qubits_of(circuit))
    psi = random_state(k, np.random.default_rng(seed))
    for columns in (np.eye(1 << k, dtype=np.complex128), psi[:, None]):
        start = initial_vector(circuit, columns)
        leaves = _reference_walk(circuit, start)
        walk = _walk(circuit, columns)
        live, block, masks = _reference_live(circuit, leaves)
        assert _bit_strings(walk.bits) == live
        # stubs interleave by their bits as the depth-first walk emits them
        assert sorted(live + walk.stubs) == [leaf.bits for leaf in leaves]
        assert len(walk.stubs) == len(leaves) - len(live)
        # bytes, not values: the channel check groups operators by bytes,
        # so a flipped signed zero would change its groups
        assert walk.block.tobytes() == block.tobytes()
        eager = _eager_walk(circuit, start)
        assert walk.block.tobytes() == eager[1].tobytes()
        assert walk.stubs == eager[4]
        assert np.array_equal(walk.x, masks[0])
        assert np.array_equal(walk.z, masks[1])
    assert [(b.outcome_bits, b.truncated)
            for b in enumerate_branches(circuit, psi)] == \
        [(leaf.bits, leaf.block is None) for leaf in leaves]


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_kraus_operators_match_reference_walk(name):
    c = CONSTRUCTIONS[name]()
    bits, kraus, stubs = kraus_operators(c.circuit, c.output_qubits)
    k = len(c.input_qubits)
    leaves = _reference_walk(c.circuit, initial_vector(
        c.circuit, np.eye(1 << k, dtype=np.complex128)))
    live, block, masks = _reference_live(c.circuit, leaves)
    want = apply_pauli(block.transpose(1, 0, 2), *masks)
    survivors = c.circuit.surviving_qubits
    n = len(survivors)
    perm = [survivors.index(q) for q in c.output_qubits]
    want = want.reshape((len(live),) + (2,) * n + (1 << k,))
    want = want.transpose([0] + [1 + p for p in perm] + [n + 1])
    assert _bit_strings(bits) == live
    assert stubs == len(leaves) - len(live)
    assert kraus.tobytes() == want.reshape(kraus.shape).tobytes()


# ------------------------------------------------- reference channel check


def _reference_check_channel(circuit, unitary, inputs, output_qubits):
    """The channel check that runs every input through all R Kraus
    operators, before equal operators were grouped."""
    bits, kraus, truncated = kraus_operators(circuit, output_qubits)
    bits = _bit_strings(bits)
    k = kraus.shape[2].bit_length() - 1
    weight = np.einsum("rdc,rdc->r", kraus.conj(), kraus).real
    scaled = kraus * np.sqrt((1 << k) / weight)[:, None, None]
    coeff = np.einsum("dc,rdc->r", unitary.conj(), scaled) \
        / np.vdot(unitary, unitary).real
    errs = np.abs(scaled - coeff[:, None, None] * unitary).max(axis=(1, 2))
    checked = 0
    for _, state in inputs:
        expected = unitary @ state
        actual = kraus @ state
        probs = np.einsum("rd,rd->r", actual.conj(), actual).real
        seen = probs > PROB_FLOOR
        actual = actual[seen] / np.sqrt(probs[seen])[:, None]
        phase = np.exp(1j * np.angle(actual @ expected.conj()))
        errs[seen] = np.maximum(
            errs[seen], np.abs(actual - phase[:, None] * expected).max(axis=1))
        checked += int(seen.sum())
    failures = [f"branch {bits[r]}: max amplitude error {errs[r]:.3e}"
                for r in np.nonzero(errs > ATOL)[0]]
    gram = np.einsum("rdi,rdj->ij", kraus.conj(), kraus)
    incomplete = float(np.abs(gram - np.eye(1 << k)).max())
    if incomplete > ATOL:
        failures.append("sum of K_r^dagger K_r differs from the identity "
                        f"by {incomplete:.3e}")
    return ChannelReport(not failures, len(inputs), checked, truncated,
                         float(errs.max()), tuple(failures))


@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
@given(adaptive_circuits(), st.integers(0, 2 ** 32 - 1))
def test_check_channel_matches_reference(circuit, seed):
    outs = circuit.surviving_qubits
    k = len(input_qubits_of(circuit))
    rng = np.random.default_rng(seed)
    shape = (1 << len(outs), 1 << k)
    # a rectangular identity passes on some circuits, a random target fails
    unitary = np.eye(*shape, dtype=np.complex128) if seed % 2 else \
        rng.normal(size=shape) + 1j * rng.normal(size=shape)
    inputs = basis_inputs(k) + random_inputs(k, 3, seed=seed)
    assert check_channel(circuit, unitary, inputs=inputs,
                         output_qubits=outs) == \
        _reference_check_channel(circuit, unitary, inputs, outs)


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_verify_construction_matches_reference(name):
    c = CONSTRUCTIONS[name]()
    k = len(c.input_qubits)
    report = verify_construction(c, random_count=20, seed=11)
    want = _reference_check_channel(
        c.circuit, c.target, basis_inputs(k) + random_inputs(k, 20, seed=11),
        c.output_qubits)
    assert report == want
    assert report.ok


def _lexsort_rows(kraus):
    """The grouping that the hash replaced: a lexsort over every 64-bit
    word of each operator, then adjacent operators compared."""
    words = kraus.reshape(len(kraus), -1).view(np.uint64)
    order = np.lexsort(words.T)
    ordered = words[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def _groups(kraus, reps, group):
    """The partition as sets of operator indices, checked exact: every
    member holds its representative's bytes."""
    members: dict[int, set[int]] = {}
    for r, g in enumerate(group.tolist()):
        assert kraus[r].tobytes() == kraus[reps[g]].tobytes()
        members.setdefault(g, set()).add(r)
    return {frozenset(m) for m in members.values()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
def test_distinct_rows_match_lexsort(count, seed):
    """Operators drawn with repeats from a small pool that holds +0.0 and
    -0.0 variants of the same values: the byte grouping is the lexsort
    grouping, each group's first operator its representative."""
    rng = np.random.default_rng(seed)
    pool = rng.choice([0.0, 0.5, -0.5], size=(4, 2, 2, 2))
    pool = np.concatenate((pool, np.where(pool == 0, -0.0, pool)))
    kraus = np.ascontiguousarray(
        pool[rng.integers(0, len(pool), count)]).view(np.complex128)[..., 0]
    want = _groups(kraus, *_lexsort_rows(kraus))
    first, group = simulate._distinct_rows(kraus)
    assert _groups(kraus, first, group) == want
    assert list(first) == sorted(min(part) for part in want)
    assert list(group[first]) == list(range(len(first)))


def test_distinct_rows_look_past_an_equal_sample():
    """Rows of 16384 words that differ in one word, or by the sign of a
    zero alone, are told apart, and equal rows still merge."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=8192) + 1j * rng.normal(size=8192)
    base[1] = complex(0.0, base[1].imag)
    rows = np.stack([base] * 4)
    rows[1, 0] = complex(base[0].real, 5.0)  # word 1
    rows[3, 1] = complex(-0.0, base[1].imag)  # word 2
    first, group = simulate._distinct_rows(rows)
    assert list(first) == [0, 1, 3]
    assert list(group) == [0, 1, 0, 2]


def test_split_groups_keep_the_report(monkeypatch):
    """Every row its own group, in the walk and in the check: the walk
    then carries every prefix, and the report does not change."""
    c = CONSTRUCTIONS["autoccz"]()
    want = verify_construction(c)
    monkeypatch.setattr(simulate, "_distinct_rows",
                        lambda rows: (np.arange(len(rows)),) * 2)
    assert verify_construction(c) == want


def test_corrupted_operator_is_named(monkeypatch):
    """One operator of mux-skip, byte-equal to others, is given a sign
    error on one input column: that outcome string alone must fail."""
    c = CONSTRUCTIONS["mux-skip"]()
    bits, kraus, member, truncated = simulate.grouped_kraus_operators(
        c.circuit, c.output_qubits)
    words = kraus[member].reshape(len(member), -1).view(np.uint64)
    twins = (words == words[-1]).all(axis=1)
    assert twins.sum() > 1
    # the last outcome string alone gets a corrupted copy of its operator
    bad = np.concatenate((kraus, kraus[member[-1:]]))
    bad[-1, :, 0] *= -1
    moved = member.copy()
    moved[-1] = len(kraus)
    monkeypatch.setattr(simulate, "grouped_kraus_operators",
                        lambda *args: (bits, bad, moved, truncated))
    report = verify_construction(c)
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0].startswith(
        f"branch {_bit_strings(bits[-1:])[0]}: ")


# The benchmark's negative controls, and mux-skip against CZ: each
# construction checked against a target it does not implement.
WRONG_TARGETS = {"cz-apply": np.eye(4), "cz-skip": CZ_MATRIX,
                 "autoccz": np.eye(8), "toffoli": CCZ_MATRIX,
                 "mux-apply": np.eye(4), "mux-skip": CZ_MATRIX}


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_wrong_target_fails(name):
    """Basis inputs alone cannot tell CZ from the identity, so one random
    input rides along. Every failure line names its outcome string as
    the per-outcome reference check does, so the grouped walk maps each
    failing operator back to every string that holds it."""
    c = dataclasses.replace(CONSTRUCTIONS[name](),
                            target=WRONG_TARGETS[name].astype(np.complex128))
    report = verify_construction(c, random_count=1, seed=5)
    assert not report.ok
    k = len(c.input_qubits)
    assert report == _reference_check_channel(
        c.circuit, c.target, basis_inputs(k) + random_inputs(k, 1, seed=5),
        c.output_qubits)


def test_grouped_walk_holds_distinct_states(monkeypatch):
    """mux-skip splits into 16384 live outcome strings, but the walk's
    block never holds more than their 192 distinct prefix states, neither
    under a gate nor after a measurement; mux-apply ends with 4096
    strings on at most 49 rows."""
    held: list[int] = []

    def watch(fn, rows_of):
        def wrapped(*args):
            out = fn(*args)
            held.append(len(rows_of(args, out)))
            return out
        return wrapped

    monkeypatch.setattr(simulate, "apply_in_place",
                        watch(apply_in_place, lambda args, _: args[0]))
    monkeypatch.setattr(simulate, "_regroup",
                        watch(simulate._regroup, lambda _, out: out[0]))
    eye = np.eye(4, dtype=np.complex128)
    skip = simulate._grouped_walk(CONSTRUCTIONS["mux-skip"]().circuit, eye)
    assert len(skip.group) == 16384
    assert held and max(held) <= 192
    assert len(skip.block) <= 192
    apply = simulate._grouped_walk(CONSTRUCTIONS["mux-apply"]().circuit, eye)
    assert len(apply.group) == 4096
    assert len(apply.block) <= 49
