"""Adaptive circuit IR, dense simulation, and channel verification."""

from .circuit import (CGate, Circuit, Condition, FALSE, FrameUpdate, Gate,
                      Measure, TRUE, evaluate_condition, format_condition,
                      parse_condition)
from .frame import PauliFrame
from .gates import (GATES, MAX_QUBITS, MAX_TABLE_QUBITS, StateVector,
                    apply_gate,
                    apply_unitary, basis_state, kron_with_ancillas,
                    plus_state, random_state)
from .reversible import run_reversible, run_reversible_table
from .simulate import (Branch, ChannelReport, basis_inputs, check_channel,
                       enumerate_branches, random_inputs)
from .textfmt import format_circuit, parse_circuit

__all__ = [
    "Branch", "CGate", "ChannelReport", "Circuit", "Condition", "FALSE",
    "FrameUpdate", "GATES", "Gate", "MAX_QUBITS", "MAX_TABLE_QUBITS",
    "Measure", "PauliFrame", "StateVector", "TRUE", "apply_gate",
    "apply_unitary", "basis_inputs", "basis_state", "check_channel",
    "enumerate_branches", "evaluate_condition",
    "format_circuit", "format_condition", "kron_with_ancillas",
    "parse_circuit", "plus_state", "random_inputs", "random_state",
    "run_reversible", "run_reversible_table",
]
