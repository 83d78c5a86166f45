"""Fast classical simulation of reversible circuits.

Handles X, CX, CCX, and CCX written as H-conjugated CCZ. An H toggles a
per-qubit flag; a CCZ must then see exactly one flagged leg, which is the
CCX target. All flags must be cleared by matching Hs before the circuit
ends. Anything non-classical is rejected.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CapacityError
from .circuit import Circuit, Gate
from .gates import MAX_TABLE_QUBITS


def _classical_ops(circuit: Circuit):
    """Yield ("X", q) / ("CX", c, t) / ("CCX", a, b, t) after resolving
    H-conjugation."""
    flags = [False] * circuit.num_qubits
    for op in circuit.operations:
        if not isinstance(op, Gate):
            raise ValueError(f"not a reversible circuit: {op!r}")
        if op.name == "H":
            flags[op.qubits[0]] ^= True
        elif op.name == "X":
            if flags[op.qubits[0]]:
                raise ValueError("X on an H-conjugated qubit is not classical")
            yield ("X", op.qubits[0])
        elif op.name == "CX":
            if any(flags[q] for q in op.qubits):
                raise ValueError("CX touching an H-conjugated qubit")
            yield ("CX", *op.qubits)
        elif op.name == "CCX":
            if any(flags[q] for q in op.qubits):
                raise ValueError("CCX touching an H-conjugated qubit")
            yield ("CCX", *op.qubits)
        elif op.name == "CCZ":
            marked = [q for q in op.qubits if flags[q]]
            if len(marked) != 1:
                raise ValueError(
                    "CCZ needs exactly one H-conjugated leg to act as CCX")
            target = marked[0]
            a, b = (q for q in op.qubits if q != target)
            yield ("CCX", a, b, target)
        else:
            raise ValueError(f"gate {op.name} is not classical")
    if any(flags):
        raise ValueError("unmatched H at end of circuit")


def run_reversible(circuit: Circuit, bits: str) -> str:
    if len(bits) != circuit.num_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bad input bits {bits!r}")
    state = [int(b) for b in bits]
    for op in _classical_ops(circuit):
        if op[0] == "X":
            state[op[1]] ^= 1
        elif op[0] == "CX":
            state[op[2]] ^= state[op[1]]
        else:
            state[op[3]] ^= state[op[1]] & state[op[2]]
    return "".join(str(b) for b in state)


def run_reversible_table(circuit: Circuit) -> np.ndarray:
    """Map every basis input to its output index, vectorized over all 2^n
    inputs. Index bit order matches the statevector convention (qubit 0 is
    the most significant bit)."""
    n = circuit.num_qubits
    if n > MAX_TABLE_QUBITS:
        raise CapacityError(f"truth table of {n} qubits exceeds the cap of "
                            f"{MAX_TABLE_QUBITS}")
    idx = np.arange(1 << n, dtype=np.int64)
    cols = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    for op in _classical_ops(circuit):
        if op[0] == "X":
            cols[op[1]] = cols[op[1]] ^ 1
        elif op[0] == "CX":
            cols[op[2]] = cols[op[2]] ^ cols[op[1]]
        else:
            cols[op[3]] = cols[op[3]] ^ (cols[op[1]] & cols[op[2]])
    out = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        out |= cols[q] << (n - 1 - q)
    return out
