"""Small ZX-diagram evaluator with delayed-choice nodes.

Nodes are z/x spiders (phase in multiples of pi/4), Hadamard markers,
boundary terminals, and unresolved choice stubs. A choice stub models a
measurement whose basis has not been picked yet: plugging it x-colored
(an unnormalized |0>) activates the branch it guards, z-colored (<+|)
removes it. Evaluation contracts the diagram to the matrix it denotes,
inputs to outputs; comparisons are up to boundary Paulis and a scalar,
matching what Pauli-frame corrections can absorb.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np

from .circuits.circuit import (CGate, Circuit, FrameUpdate, Gate, Measure,
                               evaluate_condition)

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)

KINDS = ("z", "x", "h", "b", "choice")

DEFAULT_MAX_NODES = 20


@dataclasses.dataclass
class Node:
    kind: str
    phase: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"bad node kind {self.kind!r}")
        if not 0 <= self.phase <= 7:
            raise ValueError("phase must be 0..7 (units of pi/4)")
        if self.kind in ("h", "b", "choice") and self.phase != 0:
            raise ValueError(f"{self.kind} node cannot carry a phase")


class ZxGraph:
    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self.edges: list[tuple[int, int]] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self._next_id = 0

    def add_node(self, kind: str, phase: int = 0) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = Node(kind, phase)
        return nid

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("self-loops are not supported")
        if a not in self.nodes or b not in self.nodes:
            raise ValueError("edge endpoint does not exist")
        self.edges.append((a, b))

    def degree(self, nid: int) -> int:
        return sum((a == nid) + (b == nid) for a, b in self.edges)

    def choices(self) -> tuple[int, ...]:
        return tuple(sorted(n for n, node in self.nodes.items()
                            if node.kind == "choice"))

    def validate(self) -> None:
        for nid in self.inputs + self.outputs:
            if self.nodes[nid].kind != "b":
                raise ValueError(f"boundary list names non-boundary {nid}")
        boundary = {n for n, node in self.nodes.items() if node.kind == "b"}
        if set(self.inputs) | set(self.outputs) != boundary \
                or len(self.inputs) + len(self.outputs) != len(boundary):
            raise ValueError("every boundary node must appear exactly once "
                             "in inputs or outputs")
        for nid, node in self.nodes.items():
            d = self.degree(nid)
            if node.kind == "h" and d != 2:
                raise ValueError(f"h node {nid} must have degree 2, has {d}")
            if node.kind in ("b", "choice") and d != 1:
                raise ValueError(
                    f"{node.kind} node {nid} must have degree 1, has {d}")

    def copy(self) -> "ZxGraph":
        g = ZxGraph()
        g.nodes = {n: Node(v.kind, v.phase) for n, v in self.nodes.items()}
        g.edges = list(self.edges)
        g.inputs = list(self.inputs)
        g.outputs = list(self.outputs)
        g._next_id = self._next_id
        return g

    def resolve_choice(self, nid: int, color: str) -> "ZxGraph":
        """Plug one choice stub: color "x" activates the guarded branch,
        "z" deactivates it."""
        if color not in ("z", "x"):
            raise ValueError(f"bad choice color {color!r}")
        if self.nodes[nid].kind != "choice":
            raise ValueError(f"node {nid} is not a choice")
        g = self.copy()
        g.nodes[nid] = Node(color, 0)
        return g

    def resolve_choices(self, colors: dict[int, str]) -> "ZxGraph":
        g = self
        for nid, color in colors.items():
            g = g.resolve_choice(nid, color)
        return g


def _spider_tensor(kind: str, phase: int, degree: int) -> np.ndarray:
    t = np.zeros((2,) * degree, dtype=np.complex128)
    if degree == 0:
        raise ValueError("isolated spider")
    t[(0,) * degree] = 1.0
    t[(1,) * degree] = np.exp(1j * math.pi * phase / 4)
    if kind == "x":
        for axis in range(degree):
            t = np.moveaxis(np.tensordot(_H, t, axes=([1], [axis])), 0, axis)
    return t


def evaluate(graph: ZxGraph, *,
             max_nodes: int = DEFAULT_MAX_NODES) -> np.ndarray:
    """Contract the diagram to a 2^outputs x 2^inputs matrix.

    Greedy pairwise contraction; fine for the chain- and ring-shaped
    diagrams here. Refuses diagrams above ``max_nodes`` nodes so an
    accidentally huge diagram fails fast instead of thrashing.
    """
    graph.validate()
    if graph.choices():
        raise ValueError("diagram still has unresolved choice nodes")
    if len(graph.nodes) > max_nodes:
        raise ValueError(
            f"{len(graph.nodes)} nodes exceeds max_nodes={max_nodes}")

    next_edge = 0
    incident: dict[int, list[int]] = {n: [] for n in graph.nodes}
    for a, b in graph.edges:
        incident[a].append(next_edge)
        incident[b].append(next_edge)
        next_edge += 1
    ext_legs: dict[int, int] = {}
    for nid in graph.outputs + graph.inputs:
        ext_legs[nid] = next_edge
        next_edge += 1

    tensors: list[tuple[np.ndarray, list[int]]] = []
    for nid, node in graph.nodes.items():
        legs = list(incident[nid])
        if node.kind in ("z", "x"):
            tensors.append((_spider_tensor(node.kind, node.phase, len(legs)),
                            legs))
        elif node.kind == "h":
            tensors.append((_H.copy(), legs))
        else:
            tensors.append((np.eye(2, dtype=np.complex128),
                            [legs[0], ext_legs[nid]]))

    external = {ext_legs[n] for n in ext_legs}

    def contract(i: int, j: int) -> None:
        t1, l1 = tensors[i]
        t2, l2 = tensors[j]
        shared = [e for e in l1 if e in l2]
        ax1 = [l1.index(e) for e in shared]
        ax2 = [l2.index(e) for e in shared]
        out = np.tensordot(t1, t2, axes=(ax1, ax2))
        legs = [e for e in l1 if e not in shared] \
            + [e for e in l2 if e not in shared]
        tensors[i] = (out, legs)
        del tensors[j]

    while len(tensors) > 1:
        best = None
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                shared = set(tensors[i][1]) & set(tensors[j][1])
                if not shared:
                    continue
                size = tensors[i][0].ndim + tensors[j][0].ndim \
                    - 2 * len(shared)
                if best is None or size < best[0]:
                    best = (size, i, j)
        if best is None:
            # disconnected components: outer product
            contract_i, contract_j = 0, 1
            t1, l1 = tensors[contract_i]
            t2, l2 = tensors[contract_j]
            tensors[contract_i] = (np.tensordot(t1, t2, axes=0)
                                   .reshape(t1.shape + t2.shape), l1 + l2)
            del tensors[contract_j]
        else:
            contract(best[1], best[2])

    t, legs = tensors[0]
    assert set(legs) == external, "leftover internal legs"
    order = [legs.index(ext_legs[n]) for n in graph.outputs] \
        + [legs.index(ext_legs[n]) for n in graph.inputs]
    t = t.transpose(order) if legs else t
    return np.ascontiguousarray(
        t.reshape(1 << len(graph.outputs), 1 << len(graph.inputs)))


_PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
)


def _apply_pauli_rows(mat: np.ndarray, string: tuple[int, ...]) -> np.ndarray:
    n = len(string)
    t = mat.reshape((2,) * n + (mat.shape[1],))
    for q, p in enumerate(string):
        if p:
            t = np.moveaxis(
                np.tensordot(_PAULIS[p], t, axes=([1], [q])), 0, q)
    return t.reshape(mat.shape)


def equiv_mod_pauli_scalar(actual: np.ndarray, expected: np.ndarray,
                           atol: float = 1e-8) -> bool:
    """True when actual = scalar * P_out @ expected @ P_in for some Pauli
    strings. Identity is tried first, so exact-mod-scalar matches return
    immediately."""
    if actual.shape != expected.shape:
        return False
    n_out = int(round(math.log2(actual.shape[0])))
    n_in = int(round(math.log2(actual.shape[1])))
    for p_out in itertools.product(range(4), repeat=n_out):
        cand_rows = _apply_pauli_rows(expected, p_out)
        for p_in in itertools.product(range(4), repeat=n_in):
            # right-multiplication; Pauli transposes differ by a sign,
            # which the fitted scalar absorbs
            cand = _apply_pauli_rows(cand_rows.T, p_in).T \
                if p_in != (0,) * n_in else cand_rows
            denom = float(np.vdot(cand, cand).real)
            if denom < atol:
                continue
            scale = np.vdot(cand, actual) / denom
            if abs(scale) < atol:
                continue
            if np.allclose(actual, scale * cand, atol=atol):
                return True
    return False


def graph_to_json(graph: ZxGraph) -> str:
    doc = {
        "nodes": [{"id": nid, "kind": node.kind, "phase": node.phase}
                  for nid, node in sorted(graph.nodes.items())],
        "edges": sorted(tuple(sorted(e)) for e in graph.edges),
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def graph_from_json(text: str) -> ZxGraph:
    doc = json.loads(text)
    g = ZxGraph()
    for rec in doc["nodes"]:
        g.nodes[int(rec["id"])] = Node(rec["kind"], int(rec.get("phase", 0)))
    g._next_id = max(g.nodes, default=-1) + 1
    for a, b in doc["edges"]:
        g.add_edge(int(a), int(b))
    g.inputs = [int(x) for x in doc["inputs"]]
    g.outputs = [int(x) for x in doc["outputs"]]
    g.validate()
    return g


def delayed_choice_cz_graph() -> ZxGraph:
    """Hand-drawn diagram of the delayed-choice CZ: each data wire carries
    a z spider hooked through an x spider to one branch pair half; the two
    halves share a Hadamard edge. The two stubs pick the bases."""
    g = ZxGraph()
    in0 = g.add_node("b")
    in1 = g.add_node("b")
    out0 = g.add_node("b")
    out1 = g.add_node("b")
    z0 = g.add_node("z")
    z1 = g.add_node("z")
    x2 = g.add_node("x")
    x3 = g.add_node("x")
    s2 = g.add_node("z")
    s3 = g.add_node("z")
    h = g.add_node("h")
    ch2 = g.add_node("choice")
    ch3 = g.add_node("choice")
    g.add_edge(in0, z0)
    g.add_edge(z0, out0)
    g.add_edge(in1, z1)
    g.add_edge(z1, out1)
    g.add_edge(z0, x2)
    g.add_edge(z1, x3)
    g.add_edge(x2, s2)
    g.add_edge(x3, s3)
    g.add_edge(s2, h)
    g.add_edge(h, s3)
    g.add_edge(x2, ch2)
    g.add_edge(x3, ch3)
    g.inputs = [in0, in1]
    g.outputs = [out0, out1]
    g.validate()
    return g


def ring_resource_graph() -> ZxGraph:
    """The nine-node ring resource as a state diagram: a cycle of spiders
    joined by Hadamard edges, with the three anchor nodes also carrying
    the phase-gadget encoding of a CCZ."""
    g = ZxGraph()
    outs = [g.add_node("b") for _ in range(9)]
    ring = [g.add_node("z") for _ in range(9)]
    for i in range(9):
        g.add_edge(ring[i], outs[i])
        h = g.add_node("h")
        g.add_edge(ring[i], h)
        g.add_edge(h, ring[(i + 1) % 9])
    anchors = [ring[0], ring[3], ring[6]]
    _attach_ccz_gadgets(g, anchors)
    g.outputs = list(outs)
    g.validate()
    return g


def _attach_ccz_gadgets(g: ZxGraph, wires: list[int]) -> None:
    """Phase-gadget CCZ across three z spiders: pi/4 on each wire, -pi/4
    on each pairwise parity, pi/4 on the triple parity."""
    a, b, c = wires
    for w in wires:
        g.nodes[w].phase = (g.nodes[w].phase + 1) % 8
    for group, phase in (((a, b), 7), ((a, c), 7), ((b, c), 7),
                         ((a, b, c), 1)):
        hub = g.add_node("x")
        tip = g.add_node("z", phase)
        g.add_edge(hub, tip)
        for w in group:
            g.add_edge(hub, w)


def zx_from_circuit(circuit: Circuit, outcomes: dict[str, int],
                    include_frames: bool = True) -> ZxGraph:
    """Translate an adaptive circuit, with all measurement outcomes fixed,
    into a ZX diagram. With frames included the diagram denotes the
    construction's target exactly (mod scalar); without them, mod Pauli.
    """
    g = ZxGraph()
    end: dict[int, int] = {}
    inits = circuit.initial_states or ("0",) * circuit.num_qubits
    for q, s in enumerate(inits):
        if s == "?":
            nid = g.add_node("b")
            g.inputs.append(nid)
        elif s == "+":
            nid = g.add_node("z")
        elif s == "0":
            nid = g.add_node("x")
        else:
            nid = g.add_node("x", 4)
        end[q] = nid

    def extend(q: int, kind: str, phase: int = 0) -> int:
        nid = g.add_node(kind, phase)
        g.add_edge(end[q], nid)
        end[q] = nid
        return nid

    def apply_gate_nodes(name: str, qs: tuple[int, ...]) -> None:
        if name == "H":
            extend(qs[0], "h")
        elif name == "X":
            extend(qs[0], "x", 4)
        elif name == "Z":
            extend(qs[0], "z", 4)
        elif name == "S":
            extend(qs[0], "z", 2)
        elif name == "T":
            extend(qs[0], "z", 1)
        elif name == "CX":
            c = extend(qs[0], "z")
            t = extend(qs[1], "x")
            g.add_edge(c, t)
        elif name == "CZ":
            a = extend(qs[0], "z")
            b = extend(qs[1], "z")
            h = g.add_node("h")
            g.add_edge(a, h)
            g.add_edge(h, b)
        elif name == "CCZ":
            spiders = [extend(q, "z") for q in qs]
            _attach_ccz_gadgets(g, spiders)
        elif name == "SWAP":
            end[qs[0]], end[qs[1]] = end[qs[1]], end[qs[0]]
        else:
            raise ValueError(f"gate {name} has no translation")

    for op in circuit.operations:
        if isinstance(op, Gate):
            apply_gate_nodes(op.name, op.qubits)
        elif isinstance(op, CGate):
            if evaluate_condition(op.condition, outcomes):
                apply_gate_nodes(op.name, op.qubits)
        elif isinstance(op, Measure):
            m = outcomes[op.key]
            basis = op.basis
            if evaluate_condition(op.flip_basis_if, outcomes):
                basis = "x" if basis == "z" else "z"
            # A z-basis plug is an x spider <m| (phase m*pi); an x-basis
            # plug is a z spider <+|/<-|.
            extend(op.qubit, "x" if basis == "z" else "z", 4 * m)
            del end[op.qubit]
        else:
            if include_frames and evaluate_condition(op.condition, outcomes):
                extend(op.qubit, "x" if op.pauli == "X" else "z", 4)

    for q in sorted(end):
        nid = g.add_node("b")
        g.add_edge(end[q], nid)
        g.outputs.append(nid)
    g.validate()
    return g


TARGETS: dict[str, np.ndarray] = {
    "I2": np.eye(4, dtype=np.complex128),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "CCZ": np.diag([1] * 7 + [-1]).astype(np.complex128),
}


def run_fixture(text: str, *,
                max_nodes: int = 80) -> list[tuple[str, bool]]:
    """Check a fixture document: a diagram with choice stubs plus cases
    mapping choice resolutions to named targets."""
    doc = json.loads(text)
    graph = graph_from_json(json.dumps(doc["graph"]))
    results = []
    for case in doc["cases"]:
        colors = {int(k): v for k, v in case["choices"].items()}
        target = TARGETS[case["target"]]
        resolved = graph.resolve_choices(colors)
        got = evaluate(resolved, max_nodes=max_nodes)
        ok = equiv_mod_pauli_scalar(got, target)
        label = ",".join(f"{k}={v}" for k, v in sorted(colors.items()))
        results.append((f"{case['target']} [{label}]", ok))
    return results
