"""Branch enumeration semantics: ordering, probabilities, stubs, frames,
and the Kraus operators of the same walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan.circuits import (CGate, Circuit, FrameUpdate, Gate, Measure,
                                  TRUE, basis_state, check_channel,
                                  enumerate_branches, parse_condition,
                                  random_state)
from latticeplan.circuits.gates import GATE_ARITY
from latticeplan.circuits.simulate import kraus_operators
from latticeplan.exceptions import CapacityError, ContractError


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
    assert stub.final_state is None
    assert stub.final_frame is None
    with pytest.raises(ValueError):
        stub.unnormalized()


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
        assert b.final_state.qubits == (0, 2)
        assert b.final_state.amplitudes.shape == (4,)


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
            assert np.array_equal(x.final_state.amplitudes,
                                  y.final_state.amplitudes)


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
        assert np.isclose(abs(b.final_state.amplitude(want)), 1.0)


def test_anf_condition_with_and_terms():
    # X on qubit 2 iff a&b ^ c
    ops = (Gate("H", (0,)), Gate("H", (1,)), Gate("H", (2,)),
           Measure(0, "a"), Measure(1, "b"), Measure(2, "c"),
           CGate("X", (3,), parse_condition("a&b ^ c")))
    c = Circuit(num_qubits=4, operations=ops, initial_states=("0",) * 4)
    for b in enumerate_branches(c):
        o = b.outcomes
        want = (o["a"] & o["b"]) ^ o["c"]
        assert np.isclose(abs(b.final_state.amplitude(str(want))), 1.0)


def test_frame_updates_accumulate_on_final_frame():
    ops = (Gate("H", (0,)), Measure(0, "m"),
           FrameUpdate(1, "X", parse_condition("m")),
           FrameUpdate(1, "Z", TRUE))
    c = Circuit(num_qubits=2, operations=ops, initial_states=("0", "0"))
    by_m = {b.outcomes["m"]: b for b in enumerate_branches(c)}
    f0, f1 = by_m[0].final_frame, by_m[1].final_frame
    assert f0.x_bits == (0,) and f0.z_bits == (1,)
    assert f1.x_bits == (1,) and f1.z_bits == (1,)


def test_frame_update_on_measured_qubit_rejected():
    ops = (Measure(0, "m"), FrameUpdate(0, "X", TRUE))
    with pytest.raises(ValueError):
        Circuit(num_qubits=1, operations=ops, initial_states=("0",))


def test_unnormalized_is_sqrt_p_times_state():
    branches = enumerate_branches(_plus_measure())
    for b in branches:
        assert np.allclose(b.unnormalized(),
                           np.sqrt(b.probability) * b.final_state.amplitudes)


def test_input_qubits_require_input_state():
    c = Circuit(num_qubits=1, operations=(Gate("X", (0,)),),
                initial_states=("?",))
    with pytest.raises(ValueError):
        enumerate_branches(c)
    out = enumerate_branches(c, basis_state("0"))
    assert np.isclose(abs(out[0].final_state.amplitude("1")), 1.0)


def test_capacity_guardrail():
    n = 17
    c = Circuit(num_qubits=n, operations=(Measure(0, "m"),),
                initial_states=("0",) * n)
    with pytest.raises(CapacityError):
        enumerate_branches(c)


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
            want = branch.final_frame.apply(branch.final_state.amplitudes)
            assert np.allclose(v / np.sqrt(p), want, atol=1e-7)
    # outcome strings live only in the batch weigh nothing for psi
    assert all(np.vdot(v, v).real < 1e-9 for v in out.values())
