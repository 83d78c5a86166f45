"""Small ZX-diagram evaluator with delayed-choice nodes.

Nodes are z/x spiders (phase in multiples of pi/4), Hadamard markers,
boundary terminals, and unresolved choice stubs. A choice stub models a
measurement whose basis has not been picked yet: plugging it x-colored
(|0> up to a scalar) activates the branch it guards, z-colored (<+|)
removes it. Evaluation contracts the diagram to the matrix it denotes,
inputs to outputs; comparisons are up to boundary Paulis and a scalar,
matching what Pauli-frame corrections can absorb: a diagram passes when
its ``simulate.scalar_deviations`` from a Pauli sandwich of its target
is at most the channel check's ATOL, whatever its overall scalar.

This module holds what ``verify --zx`` runs: reading a fixture document,
evaluating it and comparing with its targets. The hand-drawn diagrams of
the constructions and the circuit-to-diagram translator live in the
tests (tests/test_zx.py), their only user.

The Hadamard is the matrix of ``circuits.gates.GATES``, the named
targets are the constructions' own table (``constructions.TARGETS``),
and the boundary Paulis are applied by ``circuits.gates.apply_pauli``,
the same code the statevector checks use.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import itertools
import json
import math

import numpy as np

from .circuits.gates import GATES, apply_pauli
from .circuits.simulate import ATOL, MAX_KRAUS_VALUES, scalar_deviations
from .constructions import TARGETS
from .exceptions import CapacityError

KINDS = ("z", "x", "h", "b", "choice")

# Caps of evaluate: nodes (the autoccz translation has 70) and values of
# one tensor (the Kraus walk's 64 MiB; the diagrams here need 512).
MAX_NODES = 80
MAX_TENSOR_VALUES = MAX_KRAUS_VALUES


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

    def choices(self) -> tuple[int, ...]:
        return tuple(sorted(n for n, node in self.nodes.items()
                            if node.kind == "choice"))

    def validate(self) -> None:
        for nid in self.inputs + self.outputs:
            if nid not in self.nodes or self.nodes[nid].kind != "b":
                raise ValueError(f"boundary list names non-boundary {nid}")
        boundary = {n for n, node in self.nodes.items() if node.kind == "b"}
        if set(self.inputs) | set(self.outputs) != boundary \
                or len(self.inputs) + len(self.outputs) != len(boundary):
            raise ValueError("every boundary node must appear exactly once "
                             "in inputs or outputs")
        degree = collections.Counter(itertools.chain(*self.edges))
        for nid, node in self.nodes.items():
            d = degree[nid]
            if node.kind == "h" and d != 2:
                raise ValueError(f"h node {nid} must have degree 2, has {d}")
            if node.kind in ("b", "choice") and d != 1:
                raise ValueError(
                    f"{node.kind} node {nid} must have degree 1, has {d}")

    def resolve_choices(self, colors: dict[int, str]) -> "ZxGraph":
        """A copy of the graph with choice stubs plugged: color "x"
        activates the branch a stub guards, "z" deactivates it."""
        g = copy.deepcopy(self)
        for nid, color in colors.items():
            if color not in ("z", "x"):
                raise ValueError(f"bad choice color {color!r}")
            if nid not in g.nodes or g.nodes[nid].kind != "choice":
                raise ValueError(f"node {nid} is not a choice")
            g.nodes[nid] = Node(color, 0)
        return g


def _check_size(legs: int) -> None:
    """Refuse a tensor with ``legs`` legs over MAX_TENSOR_VALUES before it
    is allocated."""
    if 1 << legs > MAX_TENSOR_VALUES:
        raise CapacityError(f"a tensor with {legs} legs exceeds the cap "
                            f"of {MAX_TENSOR_VALUES} values")


def _spider_tensor(kind: str, phase: int, degree: int) -> np.ndarray:
    if degree == 0:
        raise ValueError("isolated spider")
    _check_size(degree)
    t = np.zeros((2,) * degree, dtype=np.complex128)
    t[(0,) * degree] = 1.0
    t[(1,) * degree] = np.exp(1j * math.pi * phase / 4)
    if kind == "x":
        for axis in range(degree):
            t = np.moveaxis(
                np.tensordot(GATES["H"], t, axes=([1], [axis])), 0, axis)
    return t


def evaluate(graph: ZxGraph) -> np.ndarray:
    """Contract the diagram to a 2^outputs x 2^inputs matrix.

    Greedy pairwise contraction; fine for the chain- and ring-shaped
    diagrams here. Refuses diagrams above MAX_NODES nodes (ValueError),
    and any spider or contraction result over MAX_TENSOR_VALUES values
    (CapacityError) before allocating it, so an accidentally huge or
    densely wired diagram fails fast instead of thrashing.
    """
    graph.validate()
    if graph.choices():
        raise ValueError("diagram still has unresolved choice nodes")
    if len(graph.nodes) > MAX_NODES:
        raise ValueError(
            f"{len(graph.nodes)} nodes exceeds the cap of {MAX_NODES}")

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
            tensors.append((GATES["H"].copy(), legs))
        else:
            tensors.append((np.eye(2, dtype=np.complex128),
                            [legs[0], ext_legs[nid]]))

    external = {ext_legs[n] for n in ext_legs}

    def contract(i: int, j: int) -> None:
        """Replace tensors i and j by their product over shared legs, an
        outer product when they share none."""
        t1, l1 = tensors[i]
        t2, l2 = tensors[j]
        shared = [e for e in l1 if e in l2]
        ax1 = [l1.index(e) for e in shared]
        ax2 = [l2.index(e) for e in shared]
        _check_size(t1.ndim + t2.ndim - 2 * len(shared))
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
        # with no shared legs left, the components join by outer product
        _, i, j = best or (0, 0, 1)
        contract(i, j)

    t, legs = tensors[0]
    assert set(legs) == external, "leftover internal legs"
    order = [legs.index(ext_legs[n]) for n in graph.outputs] \
        + [legs.index(ext_legs[n]) for n in graph.inputs]
    t = t.transpose(order) if legs else t
    return np.ascontiguousarray(
        t.reshape(1 << len(graph.outputs), 1 << len(graph.inputs)))


def equiv_mod_pauli_scalar(actual: np.ndarray, expected: np.ndarray
                           ) -> bool:
    """True when actual = scalar * P_out @ expected @ P_in for some Pauli
    strings and a nonzero scalar, to ATOL in ``scalar_deviations``
    whatever the scale of either; an all-zero matrix matches nothing.

    Up to a sign, P_out @ expected @ P_in is the string P_out (x) P_in
    applied to the flattened matrix, so the candidates are all (x, z)
    masks over its index, identity first: exact-mod-scalar matches
    return at once. X.Z stands in for Y; the fitted scalar absorbs the
    difference.
    """
    if actual.shape != expected.shape or not (actual.any() and expected.any()):
        return False
    flat = expected.reshape(-1)
    size = flat.size
    z = np.arange(size)
    for x in range(size):
        cand = apply_pauli(np.broadcast_to(flat, (size, size)),
                           np.full(size, x), z)
        cand = cand.reshape((size,) + actual.shape)
        if scalar_deviations(cand, actual).min() <= ATOL:
            return True
    return False


def _json_int(value, what: str) -> int:
    """``value`` if a JSON integer; ``int()`` would read 1.5 or true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {json.dumps(value)} is not an integer")
    return value


def _object(pairs: list) -> dict:
    """A JSON object; a repeated key, which ``json.loads`` lets replace
    the first, raises ValueError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def graph_from_json(doc: dict) -> ZxGraph:
    """The graph of a parsed JSON document; a node id given twice, or an
    id, phase, edge end or boundary that is not a JSON integer, raises
    ValueError."""
    g = ZxGraph()
    for rec in doc["nodes"]:
        nid = _json_int(rec["id"], "node id")
        if nid in g.nodes:
            raise ValueError(f"duplicate node id {nid}")
        g.nodes[nid] = Node(rec["kind"],
                            _json_int(rec.get("phase", 0), "phase"))
    g._next_id = max(g.nodes, default=-1) + 1
    for a, b in doc["edges"]:
        g.add_edge(_json_int(a, "edge end"), _json_int(b, "edge end"))
    g.inputs = [_json_int(x, "input") for x in doc["inputs"]]
    g.outputs = [_json_int(x, "output") for x in doc["outputs"]]
    g.validate()
    return g


def run_fixture(text: str) -> list[tuple[str, bool]]:
    """Check a fixture document: a diagram with choice stubs plus cases
    mapping choice resolutions to named targets.

    A malformed document (a repeated key included), a target not in
    TARGETS or a choice that names no stub raises ValueError; a diagram
    too large to evaluate raises as ``evaluate`` does.
    """
    doc = json.loads(text, object_pairs_hook=_object)
    try:
        graph = graph_from_json(doc["graph"])
        # a key names a stub only as str() writes its id (int() reads "011",
        # " 11" and "1_1" as 11); resolve_choices refuses any other key
        stubs = {str(n): n for n in graph.choices()}
        cases = [({stubs.get(k, k): v for k, v in case["choices"].items()},
                  case["target"]) for case in doc["cases"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed fixture: {type(exc).__name__} {exc}") \
            from None
    results = []
    for colors, name in cases:
        if not isinstance(name, str) or name not in TARGETS:
            raise ValueError(f"unknown target {name!r}")
        got = evaluate(graph.resolve_choices(colors))
        ok = equiv_mod_pauli_scalar(got, TARGETS[name])
        label = ",".join(f"{k}={v}" for k, v in sorted(colors.items()))
        results.append((f"{name} [{label}]", ok))
    return results
