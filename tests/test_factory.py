"""Factory throughput, distance selection, and qubit totals.

The sweep test at the top is the independent oracle for the distance
selector: it derives by hand which odd d2 makes seven factories enough,
before anything trusts select_code_distances.
"""

import math
from fractions import Fraction

import pytest

from latticeplan import factory as F
from latticeplan.exceptions import ConfigError

BASE = F.PhysicalAssumptions()


def test_sweep_odd_d2_for_seven_factories():
    """Hand oracle: a level-2-limited factory emits 200/d2 kHz (depth
    5*d2 cycles of 1 us), the computation demands 100 kHz, so the count
    is ceil(d2/2). Exactly one odd d2 needs seven factories."""
    attain_seven = []
    for d2 in range(3, 51, 2):
        by_hand = math.ceil(Fraction(100) / (Fraction(200, d2)))
        assert by_hand == math.ceil(Fraction(d2, 2))
        if by_hand == 7:
            attain_seven.append(d2)
    assert attain_seven == [13]

    # full model at the distances the 1e-4 error budget will pick
    low_error = F.PhysicalAssumptions(gate_error=1e-4)
    spec = F.FactorySpec(d1=9, d2=13)
    assert F.factories_for_reaction_limit(spec, low_error) == 7


def test_selector_reproduces_the_sweep():
    low_error = F.PhysicalAssumptions(gate_error=1e-4)
    sel = F.select_code_distances(low_error, 1e8)
    assert (sel.d1, sel.d2, sel.t_factory_fallback) == (9, 13, False)
    spec = F.FactorySpec(d1=sel.d1, d2=sel.d2)
    assert F.ccz_rate(spec, low_error).factories_needed == 7


def test_baseline_rates_exact():
    report = F.ccz_rate(F.FactorySpec(), BASE)
    assert report.level2_rate_khz == Fraction(200, 27)
    assert report.level1_bound_khz == Fraction(3000, 391)
    assert report.effective_rate_khz == Fraction(200, 27)
    assert report.limiting_factor == "level2"
    assert report.factories_needed == 14
    assert report.physical_qubits_total == 2634240


def test_baseline_rate_displays():
    assert F.format_khz(Fraction(200, 27)) == "7.4"
    assert F.format_khz(Fraction(3000, 391)) == "7.7"


@pytest.mark.parametrize("cycle,reaction,count", [
    (Fraction(1), Fraction(10), 14),
    (Fraction(1, 10), Fraction(10), 2),
    (Fraction(10), Fraction(10), 135),
    (Fraction(1), Fraction(1), 135),
    (Fraction(1), Fraction(100), 2),
])
def test_factory_count_scaling(cycle, reaction, count):
    a = F.PhysicalAssumptions(cycle_time_us=cycle, reaction_time_us=reaction)
    assert F.factories_for_reaction_limit(F.FactorySpec(), a) == count


def test_factory_count_ceiling_semantics():
    # demand/output exactly 10 -> no rounding; a hair over -> 11
    a = F.PhysicalAssumptions(reaction_time_us=Fraction(27, 2))
    assert F.factories_for_reaction_limit(F.FactorySpec(), a) == 10
    a = F.PhysicalAssumptions(reaction_time_us=Fraction(13))
    assert F.factories_for_reaction_limit(F.FactorySpec(), a) == 11


@pytest.mark.parametrize("spec_kwargs,slower", [
    ({"d2": 29}, True),
    ({"d1": 19}, True),
])
def test_effective_rate_monotone_in_distances(spec_kwargs, slower):
    base = F.ccz_rate(F.FactorySpec(), BASE).effective_rate_khz
    bumped = F.ccz_rate(F.FactorySpec(**spec_kwargs), BASE).effective_rate_khz
    assert (bumped < base) == slower


def test_effective_rate_halves_with_cycle_time():
    fast = F.ccz_rate(F.FactorySpec(), BASE).effective_rate_khz
    slow = F.ccz_rate(F.FactorySpec(),
                      F.PhysicalAssumptions(cycle_time_us=2))
    assert slow.effective_rate_khz == fast / 2


def test_limiting_factor_crossover():
    # at d2=25 the level-2 stage outruns its T supply; at 27 it does not
    low = F.ccz_rate(F.FactorySpec(d2=25), BASE)
    assert low.limiting_factor == "level1"
    assert low.effective_rate_khz == Fraction(3000, 391)
    high = F.ccz_rate(F.FactorySpec(d2=27), BASE)
    assert high.limiting_factor == "level2"


def test_limiting_factor_tie_reports_level2():
    report = F.ccz_rate(F.FactorySpec(d1=15, d2=23), BASE)
    assert report.level2_rate_khz == report.level1_bound_khz == \
        Fraction(200, 23)
    assert report.limiting_factor == "level2"


def test_depth_cycles():
    spec = F.FactorySpec()
    assert spec.ccz_depth_cycles == 135
    assert spec.t1_depth_cycles == Fraction(391, 4)
    # the 5.5 * d2 baseline of arXiv:1812.01238, without the overlapped
    # final injection layer
    baseline = Fraction(11, 2) * spec.d2
    assert baseline == Fraction(297, 2)
    # the overlapped injection saves exactly half a d2 of depth
    assert baseline - spec.ccz_depth_cycles == Fraction(27, 2)


def test_qubit_totals():
    assert F.qubits_per_patch(27) == 1568
    spec = F.FactorySpec()
    assert F.physical_qubits(spec, 1) == 188160
    assert F.physical_qubits(spec, 14) == 2634240
    with pytest.raises(ValueError):
        F.physical_qubits(spec, 0)


def test_select_baseline_distances():
    sel = F.select_code_distances(BASE, 1e8)
    assert (sel.d1, sel.d2, sel.t_factory_fallback) == (17, 27, False)


def test_select_flags_t_factory_fallback():
    sel = F.select_code_distances(BASE, 1e14)
    assert sel.t_factory_fallback
    assert (sel.d1, sel.d2) == (29, 39)


def test_select_rejects_tiny_volume():
    with pytest.raises(ValueError):
        F.select_code_distances(BASE, 0.5)


def test_logical_error_rate_spot_value():
    assert F.logical_error_rate(17, 1e-3) == pytest.approx(1e-10, rel=1e-9)
    # each +2 of distance buys one more factor of p/p_th
    assert F.logical_error_rate(19, 1e-3) == \
        pytest.approx(F.logical_error_rate(17, 1e-3) / 10, rel=1e-9)


@pytest.mark.parametrize("kwargs", [
    {"d1": 4}, {"d2": 1}, {"d1": -3},
])
def test_factory_spec_validation(kwargs):
    with pytest.raises(ValueError):
        F.FactorySpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"cycle_time_us": 0}, {"reaction_time_us": -1},
    {"gate_error": 0.0}, {"gate_error": 0.011},
])
def test_assumption_validation(kwargs):
    with pytest.raises(ValueError):
        F.PhysicalAssumptions(**kwargs)


def test_near_threshold_message():
    with pytest.raises(ValueError, match="too close to threshold"):
        F.PhysicalAssumptions(gate_error=0.01)


def test_parse_assumptions_file():
    text = """
    # hardware profile
    cycle_time_us = 1/2
    reaction_time_us = 5   # optimistic decoder
    gate_error = 1e-4
    d2 = 13
    """
    assumptions, overrides = F.parse_assumptions_file(text)
    assert assumptions.cycle_time_us == Fraction(1, 2)
    assert assumptions.reaction_time_us == Fraction(5)
    assert assumptions.gate_error == 1e-4
    assert overrides == {"d2": 13}


def test_parse_assumptions_defaults_when_empty():
    assumptions, overrides = F.parse_assumptions_file("# nothing\n\n")
    assert assumptions == BASE
    assert overrides == {}


@pytest.mark.parametrize("text,fragment", [
    ("speed = 3", "line 1: unknown key"),
    ("cycle_time_us = fast", "line 1: bad value"),
    ("d1 = 17\nd1 = 19", "line 2: duplicate key"),
    ("cycle_time_us 2", "line 1: expected key = value"),
    ("gate_error = 0.02", "too close to threshold"),
    ("reaction_time_us = 1/0", "line 1: bad value '1/0'"),
    ("cycle_time_us = 1e400", "line 1: bad value '1e400'"),
    ("reaction_time_us = 1e-400", "line 1: bad value '1e-400'"),
    ("cycle_time_us = 0", "line 1: bad value '0'"),
])
def test_parse_assumptions_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        F.parse_assumptions_file(text)


@pytest.mark.parametrize("rate,shown", [
    (Fraction(200, 27), "7.4"),
    (Fraction(3000, 391), "7.7"),
    (Fraction(20, 27), "0.74"),
    (Fraction(2000, 27), "74"),
    (Fraction(1000), "1000"),
])
def test_format_khz(rate, shown):
    assert F.format_khz(rate) == shown


def test_format_ms():
    assert F.format_ms(20105000) == "20 ms"
    assert F.format_ms(269605000) == "270 ms"
