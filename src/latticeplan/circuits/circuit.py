"""Adaptive circuit IR.

A circuit is a fixed list of operations over qubits 0..n-1. Measurements
produce named classical bits; later operations may be conditioned on those
bits through xor-of-ands expressions (algebraic normal form). Measured
qubits leave the register; no gate may touch them afterwards.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterable, Union

from .gates import GATE_ARITY

# An ANF condition is a tuple of AND terms; each term is a tuple of
# outcome-key names. The empty term () is the constant 1. Value is the xor
# of the terms' products. The empty condition () is the constant 0.
Condition = tuple[tuple[str, ...], ...]

TRUE: Condition = ((),)
FALSE: Condition = ()


def _is_key(key: str) -> bool:
    """A measurement key is a run of ASCII letters, digits and
    underscores, other than "0" and "1", which a condition reads as its
    constants."""
    return bool(re.fullmatch(r"[A-Za-z0-9_]+", key)) and key not in ("0", "1")


def evaluate_condition(cond: Condition, outcomes: dict[str, int]) -> int:
    """Value of ``cond``; outcome arrays give it elementwise."""
    val = 0
    for term in cond:
        prod = 1
        for key in term:
            prod &= outcomes[key]
        val ^= prod
    return val


def condition_keys(cond: Condition) -> set[str]:
    return {key for term in cond for key in term}


def parse_condition(text: str) -> Condition:
    """Parse "a&b ^ c" style xor-of-ands. "0" is the constant 0, and a
    term "1" the constant 1, as format_condition writes them."""
    text = text.strip()
    if text == "0":
        return FALSE
    terms: list[tuple[str, ...]] = []
    for chunk in text.split("^"):
        keys = tuple(k.strip() for k in chunk.split("&"))
        if keys == ("1",):
            keys = ()
        elif not all(map(_is_key, keys)):
            raise ValueError(f"bad condition {text!r}")
        terms.append(keys)
    return tuple(terms)


def format_condition(cond: Condition) -> str:
    if cond == FALSE:
        return "0"
    return " ^ ".join("&".join(term) if term else "1" for term in cond)


@dataclasses.dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(
                f"{self.name} takes {GATE_ARITY[self.name]} qubits, "
                f"got {self.qubits!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.qubits!r}")


@dataclasses.dataclass(frozen=True)
class CGate:
    """Gate applied only when the condition evaluates to 1."""

    name: str
    qubits: tuple[int, ...]
    condition: Condition

    def __post_init__(self) -> None:
        Gate(self.name, self.qubits)  # reuse validation


@dataclasses.dataclass(frozen=True)
class Measure:
    """Single-qubit destructive measurement.

    ``basis`` is "z" or "x". When ``flip_basis_if`` evaluates to 1 on the
    earlier outcomes the basis toggles to the other one; this is how the
    adaptive routing measurements choose between connect and disconnect.
    """

    qubit: int
    key: str
    basis: str = "z"
    flip_basis_if: Condition = FALSE

    def __post_init__(self) -> None:
        if self.basis not in ("z", "x"):
            raise ValueError(f"bad basis {self.basis!r}")
        if not _is_key(self.key):
            raise ValueError(f"bad measurement key {self.key!r}")


@dataclasses.dataclass(frozen=True)
class FrameUpdate:
    """Record an X or Z correction on a surviving qubit, conditioned on
    measurement outcomes. Corrections are tracked, never applied as gates."""

    qubit: int
    pauli: str
    condition: Condition = TRUE

    def __post_init__(self) -> None:
        if self.pauli not in ("X", "Z"):
            raise ValueError(f"bad pauli {self.pauli!r}")


Operation = Union[Gate, CGate, Measure, FrameUpdate]


@dataclasses.dataclass(frozen=True)
class Circuit:
    num_qubits: int
    operations: tuple[Operation, ...]
    initial_states: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.initial_states and len(self.initial_states) != self.num_qubits:
            raise ValueError("initial_states length must match num_qubits")
        for s in self.initial_states:
            if s not in ("0", "1", "+", "?"):
                raise ValueError(f"bad initial state {s!r}")
        self._validate_flow()

    def _validate_flow(self) -> None:
        alive = set(range(self.num_qubits))
        keys: set[str] = set()
        for op in self.operations:
            if isinstance(op, (Gate, CGate)):
                touched: Iterable[int] = op.qubits
            else:
                touched = (op.qubit,)
            for q in touched:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range")
                if q not in alive:
                    raise ValueError(f"qubit {q} used after measurement")
            conds: list[Condition] = []
            if isinstance(op, CGate):
                conds.append(op.condition)
            elif isinstance(op, Measure):
                conds.append(op.flip_basis_if)
            elif isinstance(op, FrameUpdate):
                conds.append(op.condition)
            for cond in conds:
                missing = condition_keys(cond) - keys
                if missing:
                    raise ValueError(
                        f"condition references unknown keys {sorted(missing)}")
            if isinstance(op, Measure):
                if op.key in keys:
                    raise ValueError(f"duplicate measurement key {op.key!r}")
                keys.add(op.key)
                alive.remove(op.qubit)

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(op.qubit for op in self.operations
                     if isinstance(op, Measure))

    @property
    def surviving_qubits(self) -> tuple[int, ...]:
        gone = set(self.measured_qubits)
        return tuple(q for q in range(self.num_qubits) if q not in gone)

    @property
    def measurement_keys(self) -> tuple[str, ...]:
        return tuple(op.key for op in self.operations
                     if isinstance(op, Measure))

    def gate_count(self, name: str) -> int:
        return sum(1 for op in self.operations
                   if isinstance(op, (Gate, CGate)) and op.name == name)
