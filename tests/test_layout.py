"""Floorplan geometry, validators, volumes, and serialization."""

import dataclasses
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan import layout as L
from latticeplan.exceptions import CapacityError
from latticeplan.factory import FactorySpec

SPEC = FactorySpec()


def _count(plan, role):
    return np.count_nonzero(plan.roles == L.CODE[role])


def _mutate(plan, changes):
    """Grid surgery: {(x, y): role} applied to a copy."""
    grid = bytearray(plan.grid)
    for (x, y), role in changes.items():
        grid[y * plan.width + x] = L.CODE[role]
    return dataclasses.replace(plan, grid=bytes(grid))


@pytest.fixture(scope="module")
def big_plan():
    return L.plan_adder_layout(1000, SPEC, 14)


@pytest.fixture(scope="module")
def small_plan():
    return L.plan_adder_layout(2, SPEC, 2)


@pytest.fixture(scope="module")
def lookup_plan():
    return L.plan_lookup_layout(2, SPEC)


# ----------------------------------------------------------- geometry


def test_big_plan_dimensions(big_plan):
    assert big_plan.width == 111
    assert big_plan.height == 63
    assert big_plan.lanes == (15, 31, 47, 63, 79, 95)
    assert len(big_plan.factories) == 14
    assert len(big_plan.fixup_boxes) == 28
    assert _count(big_plan, "ccz_factory") == 14 * 120
    assert big_plan.patch_distance == 27


def test_big_plan_meta(big_plan):
    assert big_plan.meta["row_capacity"] == 53
    assert big_plan.meta["target_rows"] == 19
    assert big_plan.meta["offset_rows"] == 19
    assert big_plan.meta["kind"] == "adder"


def test_small_plan_dimensions(small_plan):
    # single front factory keeps one lane on its right edge
    assert small_plan.width == 16
    assert small_plan.lanes == (15,)
    assert small_plan.height == 1 + 8 + 3 + 3 + 3 + 8 + 1
    assert len(small_plan.factories) == 2


def test_odd_factory_count_splits_front_heavy():
    plan = L.plan_adder_layout(100, SPEC, 3)
    bands = sorted({fy for _, fy in plan.factories})
    assert len([f for f in plan.factories if f[1] == bands[0]]) == 2
    assert len([f for f in plan.factories if f[1] == bands[1]]) == 1
    L.validate_floorplan(plan)


@pytest.mark.parametrize("width,lanes,cap", [
    (111, 6, 53),
    (16, 1, 8),
    (31, 1, 15),
])
def test_data_row_capacity(width, lanes, cap):
    assert L.data_row_capacity(width, lanes) == cap


def test_capacity_error_names_required_width():
    with pytest.raises(CapacityError, match="width"):
        L.plan_adder_layout(2121, SPEC, 14)
    try:
        L.plan_adder_layout(2121, SPEC, 14)
    except CapacityError as exc:
        assert "2121-bit" in str(exc)
        assert "81 data rows" in str(exc)


@pytest.mark.parametrize("bits,n", [(1, 2), (4, 1)])
def test_plan_adder_argument_validation(bits, n):
    with pytest.raises(ValueError):
        L.plan_adder_layout(bits, SPEC, n)


# --------------------------------------------------------- validators


def test_planned_layouts_validate(big_plan, small_plan, lookup_plan):
    L.validate_floorplan(big_plan)
    L.validate_floorplan(small_plan)
    L.validate_floorplan(lookup_plan)


def test_flipped_factory_tile_is_caught(big_plan):
    fx, fy = big_plan.factories[0]
    bad = _mutate(big_plan, {(fx + 3, fy + 3): "unused"})
    with pytest.raises(ValueError, match="filled rectangle|disagree"):
        L.validate_factories(bad)


def test_dropped_factory_annotation_is_caught(big_plan):
    bad = dataclasses.replace(big_plan, factories=big_plan.factories[:-1])
    with pytest.raises(ValueError, match="disagree"):
        L.validate_factories(bad)


def test_damaged_fixup_box_is_caught(big_plan):
    bx, by, _, _ = big_plan.fixup_boxes[0]
    bad = _mutate(big_plan, {(bx, by): "gap"})
    with pytest.raises(ValueError, match="fixup|filled rectangle"):
        L.validate_fixups(bad)


def test_detached_fixup_box_is_caught():
    plan = L.plan_adder_layout(20, SPEC, 4)
    bx, by, bw, bh = plan.fixup_boxes[0]
    changes = {(bx + dx, by + dy): "gap"
               for dx in range(bw) for dy in range(bh)}
    # straddles the lane between the two front factories
    changes.update({(13 + dx, by + dy): "fixup_box"
                    for dx in range(bw) for dy in range(bh)})
    boxes = ((13, by, bw, bh),) + plan.fixup_boxes[1:]
    bad = dataclasses.replace(_mutate(plan, changes), fixup_boxes=boxes)
    with pytest.raises(ValueError, match="not attached"):
        L.validate_fixups(bad)


def test_filled_gap_column_is_caught(big_plan):
    fy = big_plan.factories[0][1]
    bad = _mutate(big_plan,
                  {(15, fy + dy): "unused" for dy in range(L.FACTORY_H)})
    with pytest.raises(ValueError, match="no gap column"):
        L.validate_gaps(bad)


def test_blocked_lanes_break_reachability(big_plan):
    top_rows = big_plan.meta["target_rows"]
    bad = _mutate(big_plan, {(x, y): "unused"
                             for x in big_plan.lanes
                             for y in range(top_rows)})
    with pytest.raises(ValueError, match="cannot reach"):
        L.validate_reachability(bad)


def test_overlapping_annotations_are_caught(big_plan):
    fx, fy = big_plan.factories[0]
    bad = dataclasses.replace(
        big_plan, factories=big_plan.factories + ((fx + 1, fy),))
    with pytest.raises(ValueError, match="overlap"):
        L.validate_overlap(bad)


def test_broken_corridor_is_caught(lookup_plan):
    bad = _mutate(lookup_plan, {(0, 0): "unused"})
    with pytest.raises(ValueError, match="corridor"):
        L.validate_lookup_pattern(bad)


def test_mixed_lookup_row_is_caught(lookup_plan):
    bad = _mutate(lookup_plan, {(3, 0): "data_row_target"})
    with pytest.raises(ValueError, match="mixes roles"):
        L.validate_lookup_pattern(bad)


def test_row_without_inner_tiles_mixes_roles():
    # two corridor columns and nothing between them
    plan = L.Floorplan(width=2, height=1, patch_distance=27,
                       grid=bytes([L.CODE["access_corridor"]] * 2),
                       factories=(), fixup_boxes=(), lanes=(),
                       meta={"kind": "lookup"})
    with pytest.raises(ValueError, match="row 0 mixes roles"):
        L.validate_lookup_pattern(plan)


def test_unshared_access_row_is_caught():
    # two target rows two apart must sandwich an access row, not an idle
    # one
    role_rows = ["data_row_idle", "access_row", "data_row_target",
                 "data_row_idle", "data_row_target", "access_row",
                 "data_row_idle", "maj_area"]
    width = 8
    grid = b"".join(bytes([L.CODE["access_corridor"]]
                          + [L.CODE[role]] * (width - 2)
                          + [L.CODE["access_corridor"]])
                    for role in role_rows)
    plan = L.Floorplan(width=width, height=len(role_rows),
                       patch_distance=27, grid=grid, factories=(),
                       fixup_boxes=(), lanes=(),
                       meta={"kind": "lookup"})
    with pytest.raises(ValueError, match="share an access row"):
        L.validate_lookup_pattern(plan)


def test_floorplan_rejects_unknown_role():
    with pytest.raises(ValueError, match="unknown role"):
        L.Floorplan(width=1, height=1, patch_distance=27,
                    grid=bytes([len(L.ROLES)]), factories=(),
                    fixup_boxes=(), lanes=(), meta={})


def test_floorplan_rejects_ragged_grid():
    with pytest.raises(ValueError, match="shape mismatch"):
        L.Floorplan(width=2, height=1, patch_distance=27,
                    grid=bytes([L.CODE["gap"]]), factories=(),
                    fixup_boxes=(), lanes=(), meta={})


# ------------------------------------------------------------- lookup


@pytest.mark.parametrize("rows,pattern", [
    (1, "R_L_"),
    (2, "R_L_L_R"),
    (3, "R_L_L_R_L_R"),
    (4, "R_L_L_R_L_L_R"),
    (5, "R_L_L_R_L_L_R_L_R"),
])
def test_lookup_patterns(rows, pattern):
    plan = L.plan_lookup_layout(rows, SPEC)
    assert plan.meta["pattern"] == pattern
    L.validate_floorplan(plan)


def test_lookup_corridors_full_height(lookup_plan):
    assert _count(lookup_plan, "access_corridor") == 2 * lookup_plan.height
    assert (lookup_plan.roles[:, [0, -1]] == L.CODE["access_corridor"]).all()


def test_lookup_iteration_region(lookup_plan):
    assert _count(lookup_plan, "maj_area") == \
        3 * (lookup_plan.width - 2)


def test_lookup_argument_validation():
    with pytest.raises(ValueError):
        L.plan_lookup_layout(0, SPEC)


# ------------------------------------------------------------ volumes


def test_default_volumes():
    report = L.volume_report(L.default_volume_components())
    assert report.volumes == {"maj_block": 45, "cz_routing_optimized": 10,
                              "cz_routing_mux": 40}
    assert report.total == 95
    assert report.ratio("cz_routing_mux", "cz_routing_optimized") == \
        Fraction(4)


def test_volume_component_product():
    assert L.VolumeComponent("x", 2, 3, 7).volume == 42


def test_volume_report_rejects_duplicates():
    c = L.VolumeComponent("x", 1, 1, 1)
    with pytest.raises(ValueError, match="duplicate"):
        L.volume_report([c, c])


def test_empty_volume_report():
    assert L.volume_report([]).total == 0


# ------------------------------------------------------ serialization


@pytest.mark.parametrize("fixture", ["big_plan", "small_plan",
                                     "lookup_plan"])
def test_json_round_trip(fixture, request):
    plan = request.getfixturevalue(fixture)
    data = L.export_floorplan(plan, "json")
    assert L.import_floorplan(data) == plan


def test_json_export_stable(big_plan):
    assert L.export_floorplan(big_plan, "json") == \
        L.export_floorplan(big_plan, "json")


def test_import_rejects_corrupt_roles(small_plan):
    data = L.export_floorplan(small_plan, "json").decode()
    data = data.replace('"maj_area"', '"lava"')
    with pytest.raises(ValueError, match="unknown role 'lava'"):
        L.import_floorplan(data)


def test_import_rejects_ragged_grid():
    # four tiles in all, as a 2 x 2 plan needs, but in rows of 3 and 1
    doc = {"width": 2, "height": 2, "patch_distance": 27,
           "grid": [["gap"] * 3, ["gap"]], "factories": [],
           "fixup_boxes": [], "lanes": [], "meta": {}}
    with pytest.raises(ValueError, match="shape mismatch"):
        L.import_floorplan(json.dumps(doc))


_TINY_DOC = {"width": 1, "height": 1, "patch_distance": 27,
             "grid": [["gap"]], "factories": [], "fixup_boxes": [],
             "lanes": [], "meta": {}}


@pytest.mark.parametrize("doc,message", [
    ([], "not a JSON object"),
    ({"width": 1}, "lacks height, patch_distance, grid, factories, "
                   "fixup_boxes, lanes, meta"),
    ({"width": 1, "height": 1, "patch_distance": 27, "grid": [5],
      "factories": [], "fixup_boxes": [], "lanes": [], "meta": {}},
     "grid is not a list of rows"),
    ({**_TINY_DOC, "patch_distance": "a"}, "patch_distance is not an integer"),
    ({**_TINY_DOC, "factories": [0]},
     "factories is not a list of lists of 2 integers"),
    ({**_TINY_DOC, "fixup_boxes": [1]},
     "fixup_boxes is not a list of lists of 4 integers"),
    ({**_TINY_DOC, "fixup_boxes": [[0, 0, 1]]},
     "fixup_boxes is not a list of lists of 4 integers"),
    ({**_TINY_DOC, "lanes": 5}, "lanes is not a list of integers"),
])
def test_import_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError, match=message):
        L.import_floorplan(json.dumps(doc))


def _ref_json(plan):
    """The json.dumps writer the array one replaced."""
    doc = {"width": plan.width, "height": plan.height,
           "patch_distance": plan.patch_distance,
           "grid": [[L.ROLES[code] for code in row]
                    for row in plan.roles.tolist()],
           "factories": [list(f) for f in plan.factories],
           "fixup_boxes": [list(b) for b in plan.fixup_boxes],
           "lanes": list(plan.lanes), "meta": plan.meta}
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


@pytest.mark.parametrize("width,height", [(0, 0), (0, 3), (3, 0), (1, 1),
                                          (1, 4), (4, 1)])
def test_json_matches_reference_on_thin_grids(width, height):
    # a meta key named "grid" must not be taken for the grid
    plan = L.Floorplan(width, height, 27, bytes(width * height), (), (), (),
                       {"grid": [], "rows": {"grid": 0}})
    data = L.export_floorplan(plan, "json")
    assert data == _ref_json(plan)
    assert L.import_floorplan(data) == plan


def test_json_matches_reference(big_plan, small_plan, lookup_plan):
    for plan in (big_plan, small_plan, lookup_plan):
        assert L.export_floorplan(plan, "json") == _ref_json(plan)


def _ref_svg(plan):
    """The one-f-string-per-tile SVG writer the array one replaced."""
    cell = 8
    w, h = plan.width * cell, plan.height * cell
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    for y in range(plan.height):
        for x in range(plan.width):
            color = L.ROLE_COLORS[L.ROLES[plan.grid[y * plan.width + x]]]
            out.append(f'<rect x="{x * cell}" y="{y * cell}" '
                       f'width="{cell}" height="{cell}" fill="{color}"/>')
    for fx, fy in plan.factories:
        out.append(f'<rect class="factory" x="{fx * cell}" '
                   f'y="{fy * cell}" width="{15 * cell}" '
                   f'height="{8 * cell}" fill="none" '
                   f'stroke="#000000" stroke-width="2"/>')
    out.append('</svg>')
    return "\n".join(out).encode()


def test_svg_matches_reference(big_plan, small_plan, lookup_plan):
    for plan in (big_plan, small_plan, lookup_plan):
        assert L.export_floorplan(plan, "svg") == _ref_svg(plan)


def test_svg_deterministic_with_expected_rects(big_plan):
    first = L.export_floorplan(big_plan, "svg")
    assert first == L.export_floorplan(big_plan, "svg")
    text = first.decode()
    assert text.count("<rect") == 111 * 63 + 14
    assert text.count('class="factory"') == 14
    assert text.startswith("<svg ")
    assert text.endswith("</svg>")


def test_unknown_export_format(small_plan):
    with pytest.raises(ValueError, match="unknown export format"):
        L.export_floorplan(small_plan, "pdf")


# --------------------------------------------------------- properties


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 500), st.integers(2, 30))
def test_adder_plans_validate_and_round_trip(bits, n):
    try:
        plan = L.plan_adder_layout(bits, SPEC, n)
    except CapacityError as exc:
        # only a register too long for 80 data rows is refused
        front = -(-n // 2)
        width = 16 * front - 1 if front >= 2 else 16
        cap = L.data_row_capacity(width, max(front - 1, 1))
        assert -(-bits // cap) + -(-(bits - 1) // cap) > 80
        assert "data rows" in str(exc)
        return
    L.validate_floorplan(plan)
    data = L.export_floorplan(plan, "json")
    assert data == _ref_json(plan)
    assert L.export_floorplan(L.import_floorplan(data), "json") == data
    assert L.export_floorplan(plan, "svg") == _ref_svg(plan)
    assert plan.meta["stride"] == 2
    assert _count(plan, "ccz_factory") == 120 * n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 400))
def test_lookup_plans_validate(rows):
    plan = L.plan_lookup_layout(rows, SPEC)
    L.validate_floorplan(plan)
    assert L.export_floorplan(plan, "svg") == _ref_svg(plan)
    assert plan.width == 40
    assert plan.height == len(plan.meta["pattern"]) + 3
    assert plan.meta["pattern"].count("L") == rows
    assert plan.meta["iteration_rows"] == 3


# ------------------------------------------- reference validators
#
# The tile-by-tile validators the array ones replaced, reading the grid
# as rows of role names. Each array validator must raise exactly when
# its reference does.


def _names(plan):
    return [[L.ROLES[c] for c in plan.grid[y * plan.width:
                                           (y + 1) * plan.width]]
            for y in range(plan.height)]


def _ref_neighbours(plan, x, y):
    for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
        if 0 <= nx < plan.width and 0 <= ny < plan.height:
            yield nx, ny


def _ref_flood(plan, grid, seeds, roles):
    reached = set(seeds)
    stack = list(seeds)
    while stack:
        for nx, ny in _ref_neighbours(plan, *stack.pop()):
            if grid[ny][nx] in roles and (nx, ny) not in reached:
                reached.add((nx, ny))
                stack.append((nx, ny))
    return reached


def _ref_rectangles(plan, grid, role):
    seen = set()
    rects = []
    for y in range(plan.height):
        for x in range(plan.width):
            if grid[y][x] != role or (x, y) in seen:
                continue
            tiles = _ref_flood(plan, grid, [(x, y)], {role})
            seen |= tiles
            xs = [t[0] for t in tiles]
            ys = [t[1] for t in tiles]
            w = max(xs) - min(xs) + 1
            h = max(ys) - min(ys) + 1
            if len(tiles) != w * h:
                raise ValueError("not a filled rectangle")
            rects.append((min(xs), min(ys), w, h))
    return sorted(rects)


def _ref_touches(plan, grid, x, y, w, h, roles):
    for xx in range(x, x + w):
        for yy in (y - 1, y + h):
            if 0 <= yy < plan.height and grid[yy][xx] in roles:
                return True
    for yy in range(y, y + h):
        for xx in (x - 1, x + w):
            if 0 <= xx < plan.width and grid[yy][xx] in roles:
                return True
    return False


def _ref_factories(plan):
    grid = _names(plan)
    rects = _ref_rectangles(plan, grid, "ccz_factory")
    if rects != sorted((x, y, 15, 8) for x, y in plan.factories):
        raise ValueError("disagree")
    for rect in rects:
        if not _ref_touches(plan, grid, *rect, ("gap",)):
            raise ValueError("no adjacent gap")


def _ref_fixups(plan):
    rects = _ref_rectangles(plan, _names(plan), "fixup_box")
    if rects != sorted(plan.fixup_boxes):
        raise ValueError("disagree")
    if len(rects) != 2 * len(plan.factories):
        raise ValueError("count")
    factories = Counter(plan.factories)
    for bx, by, bw, bh in rects:
        owners = sum(factories[fx, fy] for fx in range(bx + bw - 15, bx + 1)
                     for fy in (by + bh, by - 8))
        if owners != 1:
            raise ValueError("not attached")


def _ref_gaps(plan):
    grid = _names(plan)
    by_band = {}
    for fx, fy in plan.factories:
        by_band.setdefault(fy, []).append(fx)
    for fy, xs in by_band.items():
        xs.sort()
        for left, right in zip(xs, xs[1:]):
            if not any(all(grid[yy][cx] == "gap" for yy in range(fy, fy + 8))
                       for cx in range(left + 15, right)):
                raise ValueError("no gap column")


def _ref_overlap(plan):
    boxes = [(x, y, 15, 8) for x, y in plan.factories]
    boxes += list(plan.fixup_boxes)
    for x, y, w, h in boxes:
        if x < 0 or y < 0 or x + w > plan.width or y + h > plan.height:
            raise ValueError("leaves the grid")
    covered = set()
    for x, y, w, h in boxes:
        tiles = {(xx, yy) for xx in range(x, x + w)
                 for yy in range(y, y + h)}
        if not covered.isdisjoint(tiles):
            raise ValueError("overlapping boxes")
        covered |= tiles


def _ref_reachability(plan):
    grid = _names(plan)
    seeds = [(x, y) for y in range(plan.height) for x in range(plan.width)
             if grid[y][x] == "maj_area"]
    if not seeds:
        raise ValueError("no MAJ strip")
    reached = _ref_flood(plan, grid, seeds, {"gap", "maj_area"})
    for y in range(plan.height):
        row = [x for x in range(plan.width)
               if grid[y][x] in ("data_row_target", "data_row_offset")]
        if row and not any(tile in reached for x in row
                           for tile in _ref_neighbours(plan, x, y)):
            raise ValueError("cannot reach")


def _ref_lookup_pattern(plan):
    grid = _names(plan)
    for row in grid:
        if row[0] != "access_corridor" or row[-1] != "access_corridor":
            raise ValueError("corridor")
    row_role = []
    for row in grid:
        inner = set(row[1:-1])
        if len(inner) != 1:
            raise ValueError("mixes roles")
        row_role.append(inner.pop())
    if "maj_area" not in row_role:
        raise ValueError("no iteration region")
    l_rows = [i for i, r in enumerate(row_role) if r == "data_row_target"]
    if not l_rows:
        raise ValueError("no target rows")
    for i in l_rows:
        if "access_row" not in [row_role[j] for j in (i - 1, i + 1)
                                if 0 <= j < len(row_role)]:
            raise ValueError("no adjacent access row")
    for a, b in zip(l_rows, l_rows[1:]):
        if b - a == 2 and row_role[a + 1] != "access_row":
            raise ValueError("do not share")


VALIDATORS = (
    (L.validate_factories, _ref_factories),
    (L.validate_fixups, _ref_fixups),
    (L.validate_gaps, _ref_gaps),
    (L.validate_overlap, _ref_overlap),
    (L.validate_reachability, _ref_reachability),
    (L.validate_lookup_pattern, _ref_lookup_pattern),
)


def _raises(check, plan):
    try:
        check(plan)
    except ValueError:
        return True
    return False


@st.composite
def damaged_plans(draw):
    """A planned adder or lookup, with 1-3 tiles set to random roles or
    one factory or fixup box annotation moved by one tile."""
    if draw(st.booleans()):
        plan = L.plan_adder_layout(draw(st.integers(2, 300)), SPEC,
                                   draw(st.integers(2, 8)))
    else:
        plan = L.plan_lookup_layout(draw(st.integers(1, 12)), SPEC)
    if plan.factories and draw(st.booleans()):
        field = draw(st.sampled_from(["factories", "fixup_boxes"]))
        boxes = list(getattr(plan, field))
        i = draw(st.integers(0, len(boxes) - 1))
        axis = draw(st.integers(0, 1))
        box = list(boxes[i])
        box[axis] += draw(st.sampled_from([-1, 1]))
        boxes[i] = tuple(box)
        return dataclasses.replace(plan, **{field: tuple(boxes)})
    changes = draw(st.dictionaries(
        st.tuples(st.integers(0, plan.width - 1),
                  st.integers(0, plan.height - 1)),
        st.sampled_from(L.ROLES), min_size=1, max_size=3))
    return _mutate(plan, changes)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(damaged_plans())
def test_validators_match_reference(plan):
    for check, ref in VALIDATORS:
        assert _raises(check, plan) == _raises(ref, plan), check.__name__
