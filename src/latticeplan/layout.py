"""Tile-level floorplans for adder and lookup computations.

Grid cells are logical patches. Factories keep their 15x8 footprint, each
with two 4x3 fixup boxes facing the central MAJ strip, and one-wide gap
lanes run between factory columns so every data row can route to the
strip. The geometry is fixed: the sizes below are constants, and a plan
depends only on its register size and factory count.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .bytefmt import byte_rows, chunks, squeeze
from .exceptions import CapacityError
from .factory import FACTORY_H, FACTORY_W, FactorySpec

ROLES = (
    "ccz_factory",
    "fixup_box",
    "data_row_target",
    "data_row_offset",
    "data_row_idle",
    "access_row",
    "access_corridor",
    "maj_area",
    "gap",
    "unused",
)

ROLE_COLORS = {
    "ccz_factory": "#c9a227",
    "fixup_box": "#e4d08a",
    "data_row_target": "#3a6ea5",
    "data_row_offset": "#7fa8d0",
    "data_row_idle": "#c5d5e8",
    "access_row": "#9fd49f",
    "access_corridor": "#4c9a4c",
    "maj_area": "#b85450",
    "gap": "#f2f2f2",
    "unused": "#ffffff",
}

MAJ_STRIP_H = 3
FACTORY_PITCH = FACTORY_W + 1  # a factory and the gap lane to its right
FIXUP_W, FIXUP_H = 4, 3
DATA_STRIDE = 2  # columns per data patch, leaving surgery access space
MAX_DATA_ROWS = 40  # per side of the MAJ strip
LOOKUP_WIDTH, ITERATION_ROWS = 40, 3
BLOCK_CYCLES = 5  # duration of each reference volume block
# Largest grid a plan builds: exporting a plan as SVG holds its text
# twice, about 150 bytes per tile, so 2^21 tiles peak near 330 MB.
MAX_TILES = 1 << 21


@dataclasses.dataclass(frozen=True)
class Floorplan:
    width: int
    height: int
    patch_distance: int
    grid: tuple[tuple[str, ...], ...]
    factories: tuple[tuple[int, int], ...]
    fixup_boxes: tuple[tuple[int, int, int, int], ...]
    lanes: tuple[int, ...]
    meta: dict

    def __post_init__(self) -> None:
        if len(self.grid) != self.height:
            raise ValueError("grid height mismatch")
        for row in self.grid:
            if len(row) != self.width:
                raise ValueError("grid width mismatch")
            for role in row:
                if role not in ROLES:
                    raise ValueError(f"unknown role {role!r}")

    def role_at(self, x: int, y: int) -> str:
        return self.grid[y][x]

    def count(self, role: str) -> int:
        return sum(row.count(role) for row in self.grid)


def data_row_capacity(width: int, n_lanes: int) -> int:
    """Patches per data row: lanes are excluded and patches sit every
    DATA_STRIDE columns."""
    return math.ceil((width - n_lanes) / DATA_STRIDE)


def _check_tiles(width: int, height: int) -> None:
    """Refuse a grid over MAX_TILES before any of it is built."""
    if width * height > MAX_TILES:
        raise CapacityError(f"{width} x {height} plan exceeds the cap of "
                            f"{MAX_TILES} tiles")


def _paint(grid: list[list[str]], x: int, y: int, w: int, h: int,
           role: str) -> None:
    """Set the w x h rectangle with top-left tile (x, y) to ``role``."""
    for row in grid[y:y + h]:
        row[x:x + w] = [role] * w


def _neighbours(plan: Floorplan, x: int, y: int
                ) -> Iterator[tuple[int, int]]:
    """The up-to-four edge neighbours of (x, y) inside the grid."""
    for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
        if 0 <= nx < plan.width and 0 <= ny < plan.height:
            yield nx, ny


def _flood(plan: Floorplan, seeds: list[tuple[int, int]],
           roles: set[str]) -> set[tuple[int, int]]:
    """The seeds and every tile reachable from them through neighbours
    whose role is in ``roles``."""
    reached = set(seeds)
    stack = list(seeds)
    while stack:
        for nx, ny in _neighbours(plan, *stack.pop()):
            if plan.grid[ny][nx] in roles and (nx, ny) not in reached:
                reached.add((nx, ny))
                stack.append((nx, ny))
    return reached


def plan_adder_layout(bits: int, spec: FactorySpec,
                      n_factories: int) -> Floorplan:
    """Factories split front/back of the MAJ strip, FACTORY_PITCH apart;
    target and offset register rows alternate in the data regions above
    and below, DATA_STRIDE columns per patch and at most MAX_DATA_ROWS
    rows a side. Raises CapacityError when the rows or the grid do not
    fit."""
    if bits < 2:
        raise ValueError("adder needs at least 2 bits")
    if n_factories < 2:
        raise ValueError("need at least 2 factories (one per side)")
    front = math.ceil(n_factories / 2)
    back = n_factories - front
    if front >= 2:
        width = FACTORY_PITCH * front - 1
        lanes = tuple(FACTORY_PITCH * i + FACTORY_W
                      for i in range(front - 1))
    else:
        width = FACTORY_PITCH
        lanes = (FACTORY_W,)

    cap = data_row_capacity(width, len(lanes))
    target_rows = math.ceil(bits / cap)
    offset_rows = math.ceil((bits - 1) / cap)
    total_rows = target_rows + offset_rows
    if total_rows > 2 * MAX_DATA_ROWS:
        need_cap = math.ceil((2 * bits - 1) / (2 * MAX_DATA_ROWS))
        need_w = (need_cap * DATA_STRIDE - 1) + len(lanes)
        raise CapacityError(
            f"{bits}-bit adder needs {total_rows} data rows but only "
            f"{2 * MAX_DATA_ROWS} fit; need width >= {need_w} "
            f"(have {width})")
    sequence = ["data_row_target" if i % 2 == 0 else "data_row_offset"
                for i in range(total_rows)]
    top_rows = sequence[:math.ceil(total_rows / 2)]
    bottom_rows = sequence[math.ceil(total_rows / 2):]

    front_band = len(top_rows)
    front_fixups = front_band + FACTORY_H
    maj_top = front_fixups + FIXUP_H
    back_fixups = maj_top + MAJ_STRIP_H
    back_band = back_fixups + FIXUP_H
    height = back_band + FACTORY_H + len(bottom_rows)
    _check_tiles(width, height)
    grid = [["unused"] * width for _ in range(height)]
    for y, role in enumerate(top_rows):
        _paint(grid, 0, y, width, 1, role)
    _paint(grid, 0, front_fixups, width, FIXUP_H, "gap")
    _paint(grid, 0, maj_top, width, MAJ_STRIP_H, "maj_area")
    _paint(grid, 0, back_fixups, width, FIXUP_H, "gap")
    for y, role in enumerate(bottom_rows, start=back_band + FACTORY_H):
        _paint(grid, 0, y, width, 1, role)

    factories: list[tuple[int, int]] = []
    fixup_boxes: list[tuple[int, int, int, int]] = []
    for count, band_y, fix_y in ((front, front_band, front_fixups),
                                 (back, back_band, back_fixups)):
        for i in range(count):
            fx = FACTORY_PITCH * i
            factories.append((fx, band_y))
            _paint(grid, fx, band_y, FACTORY_W, FACTORY_H, "ccz_factory")
            # fixup boxes sit on the factory's MAJ-facing side
            for off in (2, 8):
                fixup_boxes.append((fx + off, fix_y, FIXUP_W, FIXUP_H))
                _paint(grid, fx + off, fix_y, FIXUP_W, FIXUP_H,
                       "fixup_box")

    # lanes cut every band but the MAJ strip
    below = maj_top + MAJ_STRIP_H
    for x in lanes:
        _paint(grid, x, 0, 1, maj_top, "gap")
        _paint(grid, x, below, 1, height - below, "gap")

    return Floorplan(
        width=width,
        height=height,
        patch_distance=spec.d2,
        grid=tuple(tuple(row) for row in grid),
        factories=tuple(factories),
        fixup_boxes=tuple(fixup_boxes),
        lanes=lanes,
        meta={
            "kind": "adder",
            "bits": bits,
            "n_factories": n_factories,
            "stride": DATA_STRIDE,
            "row_capacity": cap,
            "target_rows": target_rows,
            "offset_rows": offset_rows,
        },
    )


def plan_lookup_layout(register_rows: int, spec: FactorySpec) -> Floorplan:
    """Lookup register stack, LOOKUP_WIDTH wide: target rows (L) share
    access rows (_) with parked rows (R) in the repeating pattern R_L_L_R,
    with full-height access corridors on both sides and ITERATION_ROWS
    rows of iteration region below. Raises CapacityError when the grid
    does not fit."""
    if register_rows < 1:
        raise ValueError("need at least one register row")
    pairs, odd = divmod(register_rows, 2)
    stack = 4 if register_rows == 1 else 1 + 6 * pairs + 4 * odd
    width, height = LOOKUP_WIDTH, stack + ITERATION_ROWS
    _check_tiles(width, height)
    pattern = "R_L_" if register_rows == 1 \
        else "R" + "_L_L_R" * pairs + "_L_R" * odd
    role_of = {"R": "data_row_idle", "L": "data_row_target",
               "_": "access_row"}
    grid = [["unused"] * width for _ in range(height)]
    for y, sym in enumerate(pattern):
        _paint(grid, 1, y, width - 2, 1, role_of[sym])
    _paint(grid, 1, stack, width - 2, ITERATION_ROWS, "maj_area")
    _paint(grid, 0, 0, 1, height, "access_corridor")
    _paint(grid, width - 1, 0, 1, height, "access_corridor")
    return Floorplan(
        width=width,
        height=height,
        patch_distance=spec.d2,
        grid=tuple(tuple(row) for row in grid),
        factories=(),
        fixup_boxes=(),
        lanes=(),
        meta={
            "kind": "lookup",
            "register_rows": register_rows,
            "pattern": pattern,
            "iteration_rows": ITERATION_ROWS,
        },
    )


def _rectangles(plan: Floorplan, role: str) -> list[tuple[int, int, int, int]]:
    """Connected components of a role, each required to fill its bounding
    box; returns (x, y, w, h) sorted."""
    seen: set[tuple[int, int]] = set()
    rects = []
    for y in range(plan.height):
        for x in range(plan.width):
            if plan.grid[y][x] != role or (x, y) in seen:
                continue
            tiles = _flood(plan, [(x, y)], {role})
            seen |= tiles
            xs = [t[0] for t in tiles]
            ys = [t[1] for t in tiles]
            w = max(xs) - min(xs) + 1
            h = max(ys) - min(ys) + 1
            if len(tiles) != w * h:
                raise ValueError(f"{role} component at "
                                 f"({min(xs)}, {min(ys)}) is not a "
                                 f"filled rectangle")
            rects.append((min(xs), min(ys), w, h))
    return sorted(rects)


def validate_factories(plan: Floorplan) -> None:
    """Every factory is a filled rectangle matching its 15x8 annotation
    (which fixes its size and the total factory area), and each factory
    touches a gap tile."""
    rects = _rectangles(plan, "ccz_factory")
    expected = sorted((x, y, FACTORY_W, FACTORY_H)
                      for x, y in plan.factories)
    if rects != expected:
        raise ValueError("factory rectangles disagree with annotations")
    for x, y, w, h in rects:
        if not _touches(plan, x, y, w, h, ("gap",)):
            raise ValueError(f"factory at ({x}, {y}) has no adjacent gap")


def _touches(plan: Floorplan, x: int, y: int, w: int, h: int,
             roles: tuple[str, ...]) -> bool:
    for xx in range(x, x + w):
        for yy in (y - 1, y + h):
            if 0 <= yy < plan.height and plan.grid[yy][xx] in roles:
                return True
    for yy in range(y, y + h):
        for xx in (x - 1, x + w):
            if 0 <= xx < plan.width and plan.grid[yy][xx] in roles:
                return True
    return False


def validate_fixups(plan: Floorplan) -> None:
    """Two fixup boxes per factory, matching the annotated rectangles,
    each horizontally inside its factory's span."""
    rects = _rectangles(plan, "fixup_box")
    expected = sorted(plan.fixup_boxes)
    if rects != expected:
        raise ValueError("fixup boxes disagree with annotations")
    if len(rects) != 2 * len(plan.factories):
        raise ValueError(f"expected {2 * len(plan.factories)} fixup "
                         f"boxes, found {len(rects)}")
    factories = Counter(plan.factories)
    for bx, by, bw, bh in rects:
        # an owner sits right above or below the box and spans it
        owners = sum(factories[fx, fy]
                     for fx in range(bx + bw - FACTORY_W, bx + 1)
                     for fy in (by + bh, by - FACTORY_H))
        if owners != 1:
            raise ValueError(f"fixup box at ({bx}, {by}) is not attached "
                             f"to exactly one factory")


def validate_gaps(plan: Floorplan) -> None:
    """At least one full gap column between horizontally adjacent
    factories in the same band."""
    by_band: dict[int, list[int]] = {}
    for fx, fy in plan.factories:
        by_band.setdefault(fy, []).append(fx)
    for fy, xs in by_band.items():
        xs.sort()
        for left, right in zip(xs, xs[1:]):
            cols = range(left + FACTORY_W, right)
            ok = any(
                all(plan.grid[yy][cx] == "gap"
                    for yy in range(fy, fy + FACTORY_H))
                for cx in cols)
            if not ok:
                raise ValueError(f"no gap column between factories at "
                                 f"x={left} and x={right}")


def validate_overlap(plan: Floorplan) -> None:
    """Annotated factory and fixup rectangles stay inside the grid and
    never overlap each other: no tile is covered twice."""
    boxes = [(x, y, FACTORY_W, FACTORY_H) for x, y in plan.factories]
    boxes += list(plan.fixup_boxes)
    for x, y, w, h in boxes:
        if x < 0 or y < 0 or x + w > plan.width or y + h > plan.height:
            raise ValueError(f"box ({x}, {y}, {w}, {h}) leaves the grid")
    covered: set[tuple[int, int]] = set()
    for x, y, w, h in boxes:
        tiles = {(xx, yy) for xx in range(x, x + w)
                 for yy in range(y, y + h)}
        if not covered.isdisjoint(tiles):
            raise ValueError("overlapping boxes")
        covered |= tiles


def validate_reachability(plan: Floorplan) -> None:
    """Flood fill from the MAJ strip across gap tiles: every data row
    must border a reached tile."""
    seeds = [(x, y) for y in range(plan.height) for x in range(plan.width)
             if plan.grid[y][x] == "maj_area"]
    if not seeds:
        raise ValueError("no MAJ strip to route to")
    reached = _flood(plan, seeds, {"gap", "maj_area"})
    data_roles = {"data_row_target", "data_row_offset"}
    for y in range(plan.height):
        row = [x for x in range(plan.width) if plan.grid[y][x] in data_roles]
        if row and not any(tile in reached for x in row
                           for tile in _neighbours(plan, x, y)):
            raise ValueError(f"data row {y} cannot reach the MAJ strip")


def validate_lookup_pattern(plan: Floorplan) -> None:
    """Corridors span both full edges, every target row borders an
    access row, paired target rows share the inner access row, and an
    iteration region exists."""
    for yy in range(plan.height):
        if plan.grid[yy][0] != "access_corridor" \
                or plan.grid[yy][plan.width - 1] != "access_corridor":
            raise ValueError(f"row {yy} lacks corridor tiles at its ends")
    row_role = []
    for yy in range(plan.height):
        inner = set(plan.grid[yy][1:plan.width - 1])
        if len(inner) != 1:
            raise ValueError(f"row {yy} mixes roles")
        row_role.append(inner.pop())
    if "maj_area" not in row_role:
        raise ValueError("no iteration region")
    l_rows = [i for i, r in enumerate(row_role) if r == "data_row_target"]
    if not l_rows:
        raise ValueError("no target rows")
    for i in l_rows:
        neighbors = [row_role[j] for j in (i - 1, i + 1)
                     if 0 <= j < len(row_role)]
        if "access_row" not in neighbors:
            raise ValueError(f"target row {i} has no adjacent access row")
    for a, b in zip(l_rows, l_rows[1:]):
        if b - a == 2 and row_role[a + 1] != "access_row":
            raise ValueError(f"rows {a} and {b} do not share an access "
                             f"row")


def validate_floorplan(plan: Floorplan) -> None:
    """All structural checks appropriate to the plan kind."""
    validate_overlap(plan)
    if plan.meta.get("kind") == "lookup":
        validate_lookup_pattern(plan)
        return
    validate_factories(plan)
    validate_fixups(plan)
    validate_gaps(plan)
    validate_reachability(plan)


@dataclasses.dataclass(frozen=True)
class VolumeComponent:
    name: str
    width: int
    height: int
    cycles: int

    @property
    def volume(self) -> int:
        return self.width * self.height * self.cycles


@dataclasses.dataclass(frozen=True)
class VolumeReport:
    volumes: dict
    total: int

    def ratio(self, a: str, b: str) -> Fraction:
        return Fraction(self.volumes[a], self.volumes[b])


def volume_report(components: Iterable[VolumeComponent]) -> VolumeReport:
    volumes = {}
    for c in components:
        if c.name in volumes:
            raise ValueError(f"duplicate component {c.name!r}")
        volumes[c.name] = c.volume
    return VolumeReport(volumes=volumes, total=sum(volumes.values()))


def default_volume_components() -> tuple[VolumeComponent, ...]:
    """Reference blocks of BLOCK_CYCLES cycles each: the 3x3 MAJ
    workspace, and the two-column delayed-choice CZ routing footprint
    against the eight-column multiplexed baseline (equal heights, so
    only widths matter)."""
    return (
        VolumeComponent("maj_block", 3, 3, BLOCK_CYCLES),
        VolumeComponent("cz_routing_optimized", 2, 1, BLOCK_CYCLES),
        VolumeComponent("cz_routing_mux", 8, 1, BLOCK_CYCLES),
    )


_CELL = 8


def export_floorplan(plan: Floorplan, fmt: str) -> bytes:
    """Deterministic serialization: `json` round-trips losslessly, `svg`
    draws one rect per tile plus one outline rect per factory."""
    if fmt == "json":
        doc = {
            "width": plan.width,
            "height": plan.height,
            "patch_distance": plan.patch_distance,
            "grid": [list(row) for row in plan.grid],
            "factories": [list(f) for f in plan.factories],
            "fixup_boxes": [list(b) for b in plan.fixup_boxes],
            "lanes": list(plan.lanes),
            "meta": plan.meta,
        }
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    if fmt == "svg":
        w, h = plan.width * _CELL, plan.height * _CELL
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
                f'height="{h}" viewBox="0 0 {w} {h}">\n')
        index = {role: i for i, role in enumerate(ROLES)}
        roles = np.fromiter(map(index.__getitem__,
                                chain.from_iterable(plan.grid)),
                            dtype=np.uint8, count=plan.width * plan.height)
        colors = np.frombuffer("".join(ROLE_COLORS[r] for r in ROLES)
                               .encode(), dtype=np.uint8).reshape(-1, 7)
        ys, xs = np.indices((plan.height, plan.width)).reshape(2, -1) * _CELL
        out = [head.encode()]
        for part in chunks(len(roles)):
            out.append(squeeze(byte_rows([
                b'<rect x="', xs[part], b'" y="', ys[part],
                f'" width="{_CELL}" height="{_CELL}" fill="'.encode(),
                colors[roles[part]], b'"/>\n'])))
        fx, fy = np.array(plan.factories, dtype=np.int64).reshape(-1, 2).T
        out.append(squeeze(byte_rows([
            b'<rect class="factory" x="', fx * _CELL, b'" y="', fy * _CELL,
            f'" width="{FACTORY_W * _CELL}" height="{FACTORY_H * _CELL}" '
            f'fill="none" stroke="#000000" stroke-width="2"/>\n'.encode()])))
        out.append(b"</svg>")
        return b"".join(out)
    raise ValueError(f"unknown export format {fmt!r}")


def import_floorplan(data: bytes | str) -> Floorplan:
    if isinstance(data, bytes):
        data = data.decode()
    doc = json.loads(data)
    return Floorplan(
        width=doc["width"],
        height=doc["height"],
        patch_distance=doc["patch_distance"],
        grid=tuple(tuple(row) for row in doc["grid"]),
        factories=tuple((x, y) for x, y in doc["factories"]),
        fixup_boxes=tuple(tuple(b) for b in doc["fixup_boxes"]),
        lanes=tuple(doc["lanes"]),
        meta=doc["meta"],
    )
