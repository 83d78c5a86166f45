"""Fast classical simulation of reversible circuits, bit-sliced.

Handles X, CX, CCX, and CCX written as H-conjugated CCZ. An H toggles a
per-qubit flag; a CCZ must then see exactly one flagged leg, which is the
CCX target. All flags must be cleared by matching Hs before the circuit
ends. Anything non-classical is rejected.

Each wire is a ``uint64`` word array holding one bit per input: lane l of
word w is input 64·w + l. X is ``~``, CX is ``^=`` and CCX is ``^=`` of
an ``&``, so one numpy operation moves 64 inputs. Measured on a 2-core
VM against the int64-column simulator this replaced: the 2^18-row table
of adder-9 peaks at 4.9 MB of numpy memory, not 42 MB, in 12 ms, not
55 ms; ``verify adder-11`` runs in 0.3 s and 45 MB in a fresh process,
not 4.1-4.8 s and 831 MB.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CapacityError
from .circuit import Circuit, Gate
from .gates import MAX_TABLE_QUBITS

LANES = 64
# word of index bit j < 6: lane l is set where bit j of l is
_LOW_BITS = np.array([0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC,
                      0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00,
                      0xFFFF0000FFFF0000, 0xFFFFFFFF00000000],
                     dtype=np.uint64)
_ZEROS_ONES = np.array([0, (1 << LANES) - 1], dtype=np.uint64)


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


def check_table_width(num_qubits: int) -> None:
    """Refuse an exhaustive run over more than MAX_TABLE_QUBITS qubits."""
    if num_qubits > MAX_TABLE_QUBITS:
        raise CapacityError(f"truth table of {num_qubits} qubits exceeds "
                            f"the cap of {MAX_TABLE_QUBITS}")


def word_count(inputs: int) -> int:
    """Words that hold one bit per input; a lone word may have spare
    lanes."""
    return max(1, inputs // LANES)


def index_word(bit: int, words: int) -> np.ndarray:
    """A fresh word array holding bit `bit` of every input index."""
    if bit < 6:
        return np.full(words, _LOW_BITS[bit])
    # whole words alternate: 2^(bit-6) of zeros, then as many of ones
    return _ZEROS_ONES[(np.arange(words) >> (bit - 6)) & 1]


def run_words(circuit: Circuit, wires: list) -> None:
    """Run `circuit` on its wires' word arrays, in place."""
    scratch = np.empty_like(wires[0]) if wires else None
    for op in _classical_ops(circuit):
        if op[0] == "X":
            np.invert(wires[op[1]], out=wires[op[1]])
        elif op[0] == "CX":
            wires[op[2]] ^= wires[op[1]]
        else:
            np.bitwise_and(wires[op[1]], wires[op[2]], out=scratch)
            wires[op[3]] ^= scratch


def run_reversible_table(circuit: Circuit) -> np.ndarray:
    """Map every basis input to its output index. Index bit order matches
    the statevector convention (qubit 0 is the most significant bit)."""
    n = circuit.num_qubits
    check_table_width(n)
    size = 1 << n
    words = word_count(size)
    wires = [index_word(n - 1 - q, words) for q in range(n)]
    run_words(circuit, wires)
    out = np.zeros(size, dtype=np.int64)
    bit = np.empty_like(out)  # one wire at a time, never n int64 columns
    for q in range(n):
        lanes = np.unpackbits(wires[q].astype("<u8", copy=False)
                              .view(np.uint8), bitorder="little")[:size]
        np.left_shift(lanes, n - 1 - q, out=bit, dtype=np.int64)
        out |= bit
    return out
