"""Analytic factory model: depths, rates, distance selection, qubit totals.

All rates are exact rationals in kHz; rounding happens only in the display
helpers (two significant digits). Times are microseconds as Fractions.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .exceptions import ConfigError

THRESHOLD_ERROR = 0.01
SUPPRESSION_CONSTANT = 0.1

# Six level-1 T factories feed the 8 T states of each CCZ state, and a
# whole factory is a 15 x 8 block of logical patches.
T1_FACTORY_COUNT = 6
T_STATES_PER_CCZ = 8
FACTORY_W, FACTORY_H = 15, 8


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclasses.dataclass(frozen=True)
class PhysicalAssumptions:
    cycle_time_us: Fraction = Fraction(1)
    reaction_time_us: Fraction = Fraction(10)
    gate_error: float = 1e-3

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycle_time_us", _frac(self.cycle_time_us))
        object.__setattr__(self, "reaction_time_us",
                           _frac(self.reaction_time_us))
        if self.cycle_time_us <= 0 or self.reaction_time_us <= 0:
            raise ValueError("times must be positive")
        if not 0 < self.gate_error:
            raise ValueError("gate_error must be positive")
        if self.gate_error >= THRESHOLD_ERROR:
            raise ValueError(
                "gate_error too close to threshold for tractable computation")


@dataclasses.dataclass(frozen=True)
class FactorySpec:
    """Two-level CCZ factory with level-1 distance d1 and level-2
    distance d2. The T-factory count, T states per CCZ and the 15 x 8
    footprint are the module constants."""

    d1: int = 17
    d2: int = 27

    def __post_init__(self) -> None:
        for d in (self.d1, self.d2):
            if d < 3 or d % 2 == 0:
                raise ValueError(f"code distance must be odd and >= 3: {d}")

    @property
    def ccz_depth_cycles(self) -> Fraction:
        # overlapping the final injection layer saves 0.5*d2 cycles on
        # the 5.5*d2 of Gidney & Fowler (arXiv:1812.01238)
        return Fraction(5) * self.d2

    @property
    def t1_depth_cycles(self) -> Fraction:
        return Fraction(23, 4) * self.d1


@dataclasses.dataclass(frozen=True)
class ThroughputReport:
    level2_rate_khz: Fraction
    level1_bound_khz: Fraction
    effective_rate_khz: Fraction
    limiting_factor: str
    factories_needed: int
    physical_qubits_total: int


def qubits_per_patch(d: int) -> int:
    """Physical qubits of one distance-d logical patch (data + measure,
    with boundary allowance): 2*(d+1)^2. A model choice, calibrated so 14
    factories at d2=27 land within 2% of 2.6 million."""
    return 2 * (d + 1) ** 2


def physical_qubits(spec: FactorySpec, n_factories: int) -> int:
    if n_factories < 1:
        raise ValueError("need at least one factory")
    return n_factories * FACTORY_W * FACTORY_H * qubits_per_patch(spec.d2)


def ccz_rate(spec: FactorySpec,
             assumptions: PhysicalAssumptions) -> ThroughputReport:
    """Output rate of one factory and the factory count needed to keep a
    reaction-limited computation fed."""
    cycle = assumptions.cycle_time_us
    level2 = 1000 / (spec.ccz_depth_cycles * cycle)
    level1 = 1000 / (spec.t1_depth_cycles * cycle
                     * T_STATES_PER_CCZ / T1_FACTORY_COUNT)
    effective = min(level2, level1)
    limiting = "level2" if level2 <= level1 else "level1"
    # one CCZ state per reaction time
    n = math.ceil(1000 / assumptions.reaction_time_us / effective)
    return ThroughputReport(
        level2_rate_khz=level2,
        level1_bound_khz=level1,
        effective_rate_khz=effective,
        limiting_factor=limiting,
        factories_needed=n,
        physical_qubits_total=physical_qubits(spec, n),
    )


def factories_for_reaction_limit(spec: FactorySpec,
                                 assumptions: PhysicalAssumptions) -> int:
    """One CCZ state per reaction time: ceil(reaction rate / factory
    rate)."""
    return ccz_rate(spec, assumptions).factories_needed


def logical_error_rate(d: int, gate_error: float) -> float:
    """Per-patch, per-d-cycles logical error: the standard exponential
    suppression fit SUPPRESSION_CONSTANT * (p/p_th)^((d+1)/2)."""
    return SUPPRESSION_CONSTANT \
        * (gate_error / THRESHOLD_ERROR) ** ((d + 1) // 2)


@dataclasses.dataclass(frozen=True)
class DistanceSelection:
    d1: int
    d2: int
    t_factory_fallback: bool


# Spacetime-volume weights of the two code levels, in patch*d-cycle units
# per delivered CCZ state. Calibrated so that gate error 1e-3 with volumes
# around 1e8 selects (17, 27) and 1e-4 selects (9, 13); see the module
# tests for the brute-force confirmation sweep.
LEVEL1_VOLUME_WEIGHT = 0.1
LEVEL2_VOLUME_WEIGHT = 2e4

ERROR_BUDGET = 0.01
T_FACTORY_FALLBACK_VOLUME = 1e13

_MAX_DISTANCE = 199


def select_code_distances(assumptions: PhysicalAssumptions,
                          target_volume: float) -> DistanceSelection:
    """Smallest odd distances keeping the modeled total logical error of
    target_volume CCZ states under ERROR_BUDGET, split evenly between the
    two levels. Above T_FACTORY_FALLBACK_VOLUME the report advises
    switching the level-2 stage to T factories."""
    if target_volume < 1:
        raise ValueError("target volume must be at least 1")
    half = ERROR_BUDGET / 2

    def pick(weight: float) -> int:
        for d in range(3, _MAX_DISTANCE + 2, 2):
            err = target_volume * weight \
                * logical_error_rate(d, assumptions.gate_error)
            if err <= half:
                return d
        raise ValueError("no code distance meets the error budget")

    return DistanceSelection(
        d1=pick(LEVEL1_VOLUME_WEIGHT),
        d2=pick(LEVEL2_VOLUME_WEIGHT),
        t_factory_fallback=target_volume > T_FACTORY_FALLBACK_VOLUME,
    )


def _two_digits(v: float) -> str:
    """Two significant digits as %g writes them, or the rounded whole
    number where %g would switch to an exponent."""
    s = f"{v:.2g}"
    return str(int(round(v))) if "e" in s else s


def format_khz(rate: Fraction) -> str:
    """A rate as it is quoted: two significant digits."""
    return _two_digits(float(rate))


def format_ms(ns: int) -> str:
    return _two_digits(ns / 1e6) + " ms"


_KEY_TYPES = {"cycle_time_us": Fraction, "reaction_time_us": Fraction,
              "gate_error": float, "d1": int, "d2": int}
_OVERRIDE_KEYS = ("d1", "d2")
_TIME_KEYS = ("cycle_time_us", "reaction_time_us")


def parse_assumptions_file(text: str) -> tuple[PhysicalAssumptions, dict]:
    """Key/value config: `key = value`, '#' comments. Returns assumptions
    plus optional d1/d2 overrides. Unknown keys are rejected with their
    line number."""
    kwargs: dict = {}
    overrides: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values = overrides if key in _OVERRIDE_KEYS else kwargs
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_TYPES[key](val)
            # a time must also be a finite, positive float (not 1e400 or
            # 1e-400): the rates and durations derived from it are shown
            # as floats, and float() raises OverflowError past the largest
            if key in _TIME_KEYS and not 0 < float(values[key]) < math.inf:
                raise ValueError(val)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ConfigError(
                f"line {lineno}: bad value {val!r} for {key}") from None
    try:
        return PhysicalAssumptions(**kwargs), overrides
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
