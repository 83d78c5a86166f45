"""Tile-level floorplans for adder and lookup computations.

Grid cells are logical patches. Factories keep their 15x8 footprint, each
with two 4x3 fixup boxes facing the central MAJ strip, and one-wide gap
lanes run between factory columns so every data row can route to the
strip. The geometry is fixed: the sizes below are constants, and a plan
depends only on its register size and factory count. A plan's grid is
one byte per tile, and the planners, validators and writers treat it as
one numpy array, with no Python loop over tiles.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .bytefmt import _digits, byte_rows, chunks, squeeze
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
# the byte that stands for each role in a grid
CODE = {role: i for i, role in enumerate(ROLES)}

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
FIXUP_OFFSETS = (2, 8)  # fixup box columns within their factory
DATA_STRIDE = 2  # columns per data patch, leaving surgery access space
MAX_DATA_ROWS = 40  # per side of the MAJ strip
LOOKUP_WIDTH, ITERATION_ROWS = 40, 3
BLOCK_CYCLES = 5  # duration of each reference volume block
# Largest grid a plan builds. At 2^21 tiles, `layout --out plan.svg`
# takes about 1 s and peaks near 70 MB: the text is streamed to the file.
MAX_TILES = 1 << 21


@dataclasses.dataclass(frozen=True)
class Floorplan:
    """A plan's tiles and its annotations. ``grid`` holds one byte per
    tile, row by row from the top, each the index of the tile's role in
    ROLES; ``roles`` is the same grid as a read-only height x width
    array. The annotations list each factory's top-left tile, each
    fixup box as (x, y, w, h) and each gap lane's column."""

    width: int
    height: int
    patch_distance: int
    grid: bytes
    factories: tuple[tuple[int, int], ...]
    fixup_boxes: tuple[tuple[int, int, int, int], ...]
    lanes: tuple[int, ...]
    meta: dict

    def __post_init__(self) -> None:
        if not isinstance(self.grid, bytes) or self.width < 0 \
                or len(self.grid) != self.width * self.height:
            raise ValueError(f"grid shape mismatch: want {self.width} x "
                             f"{self.height} tiles")
        if self.roles.max(initial=0) >= len(ROLES):
            raise ValueError(f"unknown role {self.roles.max()}")

    @property
    def roles(self) -> np.ndarray:
        return np.frombuffer(self.grid, dtype=np.uint8).reshape(
            self.height, self.width)


def data_row_capacity(width: int, n_lanes: int) -> int:
    """Patches per data row: lanes are excluded and patches sit every
    DATA_STRIDE columns."""
    return math.ceil((width - n_lanes) / DATA_STRIDE)


def _blank(width: int, height: int) -> np.ndarray:
    """An all-unused grid; one over MAX_TILES is refused before any of it
    is allocated."""
    if width * height > MAX_TILES:
        raise CapacityError(f"{width} x {height} plan exceeds the cap of "
                            f"{MAX_TILES} tiles")
    return np.full((height, width), CODE["unused"], dtype=np.uint8)


def plan_adder_layout(bits: int, spec: FactorySpec,
                      n_factories: int) -> Floorplan:
    """Factories split front/back of the MAJ strip, FACTORY_PITCH apart;
    target and offset register rows alternate in the data regions above
    and below, DATA_STRIDE columns per patch and at most MAX_DATA_ROWS
    rows a side. Raises CapacityError when the rows or the grid do not
    fit, before anything the size of the grid is built."""
    if bits < 2:
        raise ValueError("adder needs at least 2 bits")
    if n_factories < 2:
        raise ValueError("need at least 2 factories (one per side)")
    front = (n_factories + 1) // 2
    back = n_factories - front
    # a gap lane right of every front factory but the last; a single
    # front factory keeps one on its right edge
    width = max(FACTORY_PITCH * front - 1, FACTORY_PITCH)
    lanes = range(FACTORY_W, width, FACTORY_PITCH)

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

    front_band = math.ceil(total_rows / 2)  # data rows above the strip
    front_fixups = front_band + FACTORY_H
    maj_top = front_fixups + FIXUP_H
    back_fixups = maj_top + MAJ_STRIP_H
    back_band = back_fixups + FIXUP_H
    bottom = back_band + FACTORY_H
    height = bottom + total_rows - front_band
    g = _blank(width, height)
    # target and offset rows alternate, the top rows first
    data = np.where(np.arange(total_rows) % 2, CODE["data_row_offset"],
                    CODE["data_row_target"])
    g[:front_band] = data[:front_band, None]
    g[bottom:] = data[front_band:, None]
    g[front_fixups:maj_top] = CODE["gap"]
    g[maj_top:back_fixups] = CODE["maj_area"]
    g[back_fixups:back_band] = CODE["gap"]

    factories: list[tuple[int, int]] = []
    fixup_boxes: list[tuple[int, int, int, int]] = []
    for count, band_y, fix_y in ((front, front_band, front_fixups),
                                 (back, back_band, back_fixups)):
        for fx in range(0, FACTORY_PITCH * count, FACTORY_PITCH):
            factories.append((fx, band_y))
            g[band_y:band_y + FACTORY_H, fx:fx + FACTORY_W] = \
                CODE["ccz_factory"]
            # fixup boxes sit on the factory's MAJ-facing side
            for off in FIXUP_OFFSETS:
                fixup_boxes.append((fx + off, fix_y, FIXUP_W, FIXUP_H))
                g[fix_y:fix_y + FIXUP_H, fx + off:fx + off + FIXUP_W] = \
                    CODE["fixup_box"]
    # lanes cut every band but the MAJ strip
    g[:maj_top, FACTORY_W::FACTORY_PITCH] = CODE["gap"]
    g[back_fixups:, FACTORY_W::FACTORY_PITCH] = CODE["gap"]

    return Floorplan(
        width=width,
        height=height,
        patch_distance=spec.d2,
        grid=g.tobytes(),
        factories=tuple(factories),
        fixup_boxes=tuple(fixup_boxes),
        lanes=tuple(lanes),
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
    g = _blank(LOOKUP_WIDTH, stack + ITERATION_ROWS)
    pattern = "R_L_" if register_rows == 1 \
        else "R" + "_L_L_R" * pairs + "_L_R" * odd
    codes = pattern.encode().translate(bytes.maketrans(b"RL_", bytes(
        CODE[r] for r in ("data_row_idle", "data_row_target",
                          "access_row"))))
    g[:stack, 1:-1] = np.frombuffer(codes, dtype=np.uint8)[:, None]
    g[stack:, 1:-1] = CODE["maj_area"]
    g[:, [0, -1]] = CODE["access_corridor"]
    return Floorplan(
        width=LOOKUP_WIDTH,
        height=len(g),
        patch_distance=spec.d2,
        grid=g.tobytes(),
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


def _grow(mask: np.ndarray) -> np.ndarray:
    """The mask and every tile edge-adjacent to it."""
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _cover(plan: Floorplan, boxes: Iterable[tuple[int, ...]]
           ) -> np.ndarray:
    """For each tile, how many of the (x, y, w, h) boxes cover it, and
    the sum of their 1-based indices, which names the box wherever the
    count is 1. A box with no tiles or one that leaves the grid is
    refused. Returns both as one 2 x height x width array. Each box adds
    +1/-1 at its four corners, and two running sums spread that over its
    tiles."""
    b = np.array(list(boxes), dtype=np.int64).reshape(-1, 4)
    x, y, w, h = b.T
    bad = (w < 1) | (h < 1) | (x < 0) | (y < 0) \
        | (x + w > plan.width) | (y + h > plan.height)
    if bad.any():
        raise ValueError(f"box {tuple(b[bad.argmax()].tolist())} leaves "
                         f"the grid")
    # index sums may wrap where boxes overlap, not where the count is 1
    corners = np.zeros((2, plan.height + 1, plan.width + 1), dtype=np.int32)
    for cy, cx, sign in ((y, x, 1), (y, x + w, -1), (y + h, x, -1),
                         (y + h, x + w, 1)):
        np.add.at(corners, (0, cy, cx), sign)
        np.add.at(corners, (1, cy, cx), sign * np.arange(1, len(b) + 1))
    np.cumsum(corners, axis=1, out=corners)
    np.cumsum(corners, axis=2, out=corners)
    return corners[:, :-1, :-1]


def _match_boxes(plan: Floorplan, role: str, boxes, what: str
                 ) -> np.ndarray:
    """Require the role's tiles to be exactly the annotated boxes: no
    tile covered twice, the role where a box covers a tile and nowhere
    else, and no box touching another box's tile. Together these say the
    role's connected components are the boxes. Returns the tile labels of
    `_cover`."""
    count, label = _cover(plan, boxes)
    if (count > 1).any() \
            or not np.array_equal(count == 1, plan.roles == CODE[role]) \
            or any(((a != b) & (a > 0) & (b > 0)).any()
                   for a, b in ((label[1:], label[:-1]),
                                (label[:, 1:], label[:, :-1]))):
        raise ValueError(f"{what} disagree with annotations")
    return label


def _factory_boxes(plan: Floorplan) -> list[tuple[int, int, int, int]]:
    return [(x, y, FACTORY_W, FACTORY_H) for x, y in plan.factories]


def validate_factories(plan: Floorplan) -> None:
    """Every factory is a filled rectangle matching its 15x8 annotation
    (which fixes its size and the total factory area), and each factory
    touches a gap tile."""
    label = _match_boxes(plan, "ccz_factory", _factory_boxes(plan),
                         "factory rectangles")
    near_gap = _grow(plan.roles == CODE["gap"])
    lonely = np.bincount(label[near_gap],
                         minlength=len(plan.factories) + 1)[1:] == 0
    if lonely.any():
        x, y = plan.factories[lonely.argmax()]
        raise ValueError(f"factory at ({x}, {y}) has no adjacent gap")


def validate_fixups(plan: Floorplan) -> None:
    """Two fixup boxes per factory, matching the annotated rectangles,
    each horizontally inside its factory's span."""
    _match_boxes(plan, "fixup_box", plan.fixup_boxes, "fixup boxes")
    if len(plan.fixup_boxes) != 2 * len(plan.factories):
        raise ValueError(f"expected {2 * len(plan.factories)} fixup "
                         f"boxes, found {len(plan.fixup_boxes)}")
    # an owner sits right above or below the box and spans it: its top
    # left tile is in row by + bh or by - FACTORY_H, at x from lo to bx.
    # numpy sorts complex numbers by real part, then imaginary, so with
    # keys y + ix the factories of one row and x range are one run.
    bx, by, bw, bh = np.array(plan.fixup_boxes).reshape(-1, 4).T
    lo = bx + bw - FACTORY_W
    fx, fy = np.array(plan.factories).reshape(-1, 2).T
    keys = np.sort(fy + 1j * fx)
    owners = sum(np.searchsorted(keys, row + 1j * bx, "right")
                 - np.searchsorted(keys, row + 1j * lo, "left")
                 for row in (by + bh, by - FACTORY_H))
    stray = owners != 1
    if stray.any():
        i = stray.argmax()
        raise ValueError(f"fixup box at ({bx[i]}, {by[i]}) is not attached "
                         f"to exactly one factory")


def validate_gaps(plan: Floorplan) -> None:
    """At least one full gap column between horizontally adjacent
    factories in the same band."""
    f = np.array(plan.factories, dtype=np.int64).reshape(-1, 2)
    for fy in np.unique(f[:, 1]):
        xs = np.sort(f[f[:, 1] == fy, 0])
        band = plan.roles[max(fy, 0):fy + FACTORY_H]
        # full gap columns left of each x, 0..width
        seen = np.concatenate(([0], np.cumsum((band == CODE["gap"])
                                              .all(axis=0))))
        left = np.clip(xs[:-1] + FACTORY_W, 0, plan.width)
        shut = seen[np.clip(xs[1:], left, plan.width)] == seen[left]
        if shut.any():
            i = shut.argmax()
            raise ValueError(f"no gap column between factories at "
                             f"x={xs[i]} and x={xs[i + 1]}")


def validate_overlap(plan: Floorplan) -> None:
    """Annotated factory and fixup rectangles each hold a tile, stay
    inside the grid and never overlap each other: no tile is covered
    twice."""
    boxes = _factory_boxes(plan) + list(plan.fixup_boxes)
    if (_cover(plan, boxes)[0] > 1).any():
        raise ValueError("overlapping boxes")


def validate_reachability(plan: Floorplan) -> None:
    """Flood from the MAJ strip across gap tiles: every data row must
    border a reached tile. Each round of the flood reaches one tile
    further, so it takes as many rounds as the longest route from the
    strip; in a planned adder that is a lane out to the farthest data
    row, under 60 rows."""
    roles = plan.roles
    reached = roles == CODE["maj_area"]
    if not reached.any():
        raise ValueError("no MAJ strip to route to")
    passable = reached | (roles == CODE["gap"])
    while True:
        grown = _grow(reached) & passable
        if np.array_equal(grown, reached):
            break
        reached = grown
    data = (roles == CODE["data_row_target"]) \
        | (roles == CODE["data_row_offset"])
    stuck = data.any(axis=1) & ~(data & _grow(reached)).any(axis=1)
    if stuck.any():
        raise ValueError(f"data row {stuck.argmax()} cannot reach the MAJ "
                         f"strip")


def validate_lookup_pattern(plan: Floorplan) -> None:
    """Corridors span both full edges, every target row borders an
    access row, paired target rows share the inner access row, and an
    iteration region exists."""
    roles = plan.roles
    corridor = roles == CODE["access_corridor"]
    broken = ~(corridor[:, :1].all(axis=1) & corridor[:, -1:].all(axis=1))
    if broken.any():
        raise ValueError(f"row {broken.argmax()} lacks corridor tiles at "
                         f"its ends")
    inner = roles[:, 1:-1]
    # a row with no inner tiles mixes roles too
    mixed = (inner != inner[:, :1]).any(axis=1) | (inner.shape[1] == 0)
    if mixed.any():
        raise ValueError(f"row {mixed.argmax()} mixes roles")
    row_role = inner[:, :1].ravel()
    if not (row_role == CODE["maj_area"]).any():
        raise ValueError("no iteration region")
    l_rows = np.flatnonzero(row_role == CODE["data_row_target"])
    if not len(l_rows):
        raise ValueError("no target rows")
    # access[i + 1] says row i is an access row; the ends pad with False
    access = np.pad(row_role == CODE["access_row"], 1)
    alone = ~(access[l_rows] | access[l_rows + 2])
    if alone.any():
        raise ValueError(f"target row {l_rows[alone.argmax()]} has no "
                         f"adjacent access row")
    a, b = l_rows[:-1], l_rows[1:]
    unshared = (b - a == 2) & ~access[a + 2]
    if unshared.any():
        i = unshared.argmax()
        raise ValueError(f"rows {a[i]} and {b[i]} do not share an access "
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


def write_floorplan(plan: Floorplan, fmt: str, fh) -> None:
    """Deterministic serialization to the binary file ``fh``: `json`
    round-trips losslessly, `svg` draws one rect per tile plus one
    outline rect per factory. Tiles go out one `bytefmt.chunks` slice at
    a time, so no text of the whole plan is ever held."""
    if fmt == "json":
        # a plan without tiles has only empty rows; otherwise "grid" holds
        # a placeholder that the tile lines replace
        doc = {
            "width": plan.width,
            "height": plan.height,
            "patch_distance": plan.patch_distance,
            "grid": [] if plan.grid else [[]] * plan.height,
            "factories": [list(f) for f in plan.factories],
            "fixup_boxes": [list(b) for b in plan.fixup_boxes],
            "lanes": list(plan.lanes),
            "meta": plan.meta,
        }
        text = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
        if not plan.grid:
            fh.write(text)
            return
        # "factories" and "fixup_boxes", the keys before it, hold only
        # numbers, so the first match is the placeholder
        head, tail = text.split(b'"grid": []', 1)
        fh.write(head + b'"grid": ')
        _write_json_grid(plan, fh)
        fh.write(tail)
    elif fmt == "svg":
        w, h = plan.width * _CELL, plan.height * _CELL
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
                 f'height="{h}" viewBox="0 0 {w} {h}">\n'.encode())
        roles = plan.roles.ravel()
        colors = np.frombuffer("".join(ROLE_COLORS[r] for r in ROLES)
                               .encode(), dtype=np.uint8).reshape(-1, 7)
        # each coordinate's digits, formatted once per axis
        x_text = _digits(np.arange(plan.width) * _CELL)
        y_text = _digits(np.arange(plan.height) * _CELL)
        for part in chunks(len(roles)):
            ys, xs = np.divmod(np.arange(part.start,
                                         min(part.stop, len(roles))),
                               plan.width)
            fh.write(squeeze(byte_rows([
                b'<rect x="', x_text.take(xs, axis=0), b'" y="',
                y_text.take(ys, axis=0),
                f'" width="{_CELL}" height="{_CELL}" fill="'.encode(),
                colors.take(roles[part], axis=0), b'"/>\n'])))
        f = np.array(plan.factories, dtype=np.int64).reshape(-1, 2) * _CELL
        for part in chunks(len(f)):
            fh.write(squeeze(byte_rows([
                b'<rect class="factory" x="', f[part, 0], b'" y="',
                f[part, 1], f'" width="{FACTORY_W * _CELL}" height='
                f'"{FACTORY_H * _CELL}" fill="none" stroke="#000000" '
                f'stroke-width="2"/>\n'.encode()])))
        fh.write(b"</svg>")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def export_floorplan(plan: Floorplan, fmt: str) -> bytes:
    """The bytes `write_floorplan` writes."""
    buf = io.BytesIO()
    write_floorplan(plan, fmt, buf)
    return buf.getvalue()


def _write_json_grid(plan: Floorplan, fh) -> None:
    """Write the non-empty grid as `json.dumps(indent=1)` lays it out
    under a top-level key: one line per tile, each row in brackets."""
    # row 3 * role + end of `lines` is a tile's line: its role name and
    # what follows it, a comma (end 0), the end of its row (1) or the end
    # of the grid (2)
    ends = np.array([',\n', '\n  ],\n  [\n', '\n  ]\n ]'])
    lines = byte_rows([b'   "', np.repeat(np.array(ROLES), 3), b'"',
                       np.tile(ends, len(ROLES))])
    line = plan.roles.ravel() * np.uint8(3)
    line[plan.width - 1::plan.width] += 1
    line[-1] += 1
    fh.write(b"[\n  [\n")
    for part in chunks(len(line)):
        fh.write(squeeze(lines.take(line[part], axis=0)))


_FIELDS = ("width", "height", "patch_distance", "grid", "factories",
           "fixup_boxes", "lanes", "meta")


def import_floorplan(data: bytes | str) -> Floorplan:
    """Read what `export_floorplan(plan, "json")` writes; a malformed
    document raises `ValueError`."""
    if isinstance(data, bytes):
        data = data.decode()
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise ValueError("floorplan document is not a JSON object")
    missing = [key for key in _FIELDS if key not in doc]
    if missing:
        raise ValueError(f"floorplan document lacks {', '.join(missing)}")
    rows = doc["grid"]
    if not isinstance(rows, list) \
            or not all(isinstance(row, list) for row in rows):
        raise ValueError("grid is not a list of rows")
    if len(rows) != doc["height"] \
            or any(len(row) != doc["width"] for row in rows):
        raise ValueError(f"grid shape mismatch: want {doc['width']} x "
                         f"{doc['height']} tiles")
    try:
        grid = bytes(map(CODE.__getitem__, chain.from_iterable(rows)))
    except KeyError as exc:
        raise ValueError(f"unknown role {exc.args[0]!r}") from None
    if not _is_int(doc["patch_distance"]):
        raise ValueError("patch_distance is not an integer")
    if not _is_int_list(doc["lanes"]):
        raise ValueError("lanes is not a list of integers")
    for key, size in (("factories", 2), ("fixup_boxes", 4)):
        if not isinstance(doc[key], list) \
                or not all(_is_int_list(item, size) for item in doc[key]):
            raise ValueError(f"{key} is not a list of lists of {size} "
                             "integers")
    return Floorplan(
        width=doc["width"],
        height=doc["height"],
        patch_distance=doc["patch_distance"],
        grid=grid,
        factories=tuple(map(tuple, doc["factories"])),
        fixup_boxes=tuple(map(tuple, doc["fixup_boxes"])),
        lanes=tuple(doc["lanes"]),
        meta=doc["meta"],
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value, size: int | None = None) -> bool:
    """Whether `value` is a list of integers, `size` of them if given."""
    return isinstance(value, list) and size in (None, len(value)) \
        and all(map(_is_int, value))
