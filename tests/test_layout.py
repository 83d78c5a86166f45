"""Floorplan geometry, validators, volumes, and serialization."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan import layout as L
from latticeplan.exceptions import CapacityError
from latticeplan.factory import FactorySpec

SPEC = FactorySpec()


def _mutate(plan, changes):
    """Grid surgery: {(x, y): role} applied to a copy."""
    grid = [list(row) for row in plan.grid]
    for (x, y), role in changes.items():
        grid[y][x] = role
    return dataclasses.replace(plan, grid=tuple(tuple(r) for r in grid))


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
    assert big_plan.count("ccz_factory") == 14 * 120
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


def test_unshared_access_row_is_caught():
    # two target rows two apart must sandwich an access row, not an idle
    # one
    role_rows = ["data_row_idle", "access_row", "data_row_target",
                 "data_row_idle", "data_row_target", "access_row",
                 "data_row_idle", "maj_area"]
    width = 8
    grid = []
    for role in role_rows:
        row = ["access_corridor"] + [role] * (width - 2) + \
            ["access_corridor"]
        grid.append(tuple(row))
    plan = L.Floorplan(width=width, height=len(role_rows),
                       patch_distance=27, grid=tuple(grid), factories=(),
                       fixup_boxes=(), lanes=(),
                       meta={"kind": "lookup"})
    with pytest.raises(ValueError, match="share an access row"):
        L.validate_lookup_pattern(plan)


def test_floorplan_rejects_unknown_role():
    with pytest.raises(ValueError, match="unknown role"):
        L.Floorplan(width=1, height=1, patch_distance=27,
                    grid=(("lava",),), factories=(), fixup_boxes=(),
                    lanes=(), meta={})


def test_floorplan_rejects_ragged_grid():
    with pytest.raises(ValueError, match="width mismatch"):
        L.Floorplan(width=2, height=1, patch_distance=27,
                    grid=(("gap",),), factories=(), fixup_boxes=(),
                    lanes=(), meta={})


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
    assert lookup_plan.count("access_corridor") == 2 * lookup_plan.height
    for y in range(lookup_plan.height):
        assert lookup_plan.role_at(0, y) == "access_corridor"
        assert lookup_plan.role_at(lookup_plan.width - 1, y) == \
            "access_corridor"


def test_lookup_iteration_region(lookup_plan):
    assert lookup_plan.count("maj_area") == \
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
    with pytest.raises(ValueError, match="unknown role"):
        L.import_floorplan(data)


def _ref_svg(plan):
    """The one-f-string-per-tile SVG writer the array one replaced."""
    cell = 8
    w, h = plan.width * cell, plan.height * cell
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">']
    for y in range(plan.height):
        for x in range(plan.width):
            color = L.ROLE_COLORS[plan.grid[y][x]]
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
    assert L.export_floorplan(L.import_floorplan(data), "json") == data
    assert L.export_floorplan(plan, "svg") == _ref_svg(plan)
    assert plan.meta["stride"] == 2
    assert plan.count("ccz_factory") == 120 * n


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
