"""Projection, nested-cell encoding/decoding, and the round-trip law."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoseq.cli import dispatch
from geoseq.grid import (
    EARTH_RADIUS_M,
    GridError,
    GridSpec,
    decode_keys,
    encode_point,
    encode_points,
    finest_cells,
    project,
    unproject,
)

from grid_oracle import oracle_finest_cell, oracle_keys

SPEC3 = GridSpec((100_000.0, 1_000.0, 100.0))


def test_project_origin():
    assert project(0.0, 0.0, 0.0) == (0.0, 0.0)


def test_project_antimeridian():
    x, y = project(0.0, 180.0, 0.0)
    assert x == pytest.approx(math.pi * EARTH_RADIUS_M)  # ~20,015,086.8 m
    assert y == 0.0


def test_project_pole():
    x, y = project(90.0, 0.0, 0.0)
    assert x == 0.0
    assert y == pytest.approx(math.pi / 2 * EARTH_RADIUS_M)  # ~10,007,543.4 m


def test_project_rejects_out_of_range():
    with pytest.raises(GridError):
        project(91.0, 0.0, 0.0)
    with pytest.raises(GridError):
        project(0.0, -181.0, 0.0)
    with pytest.raises(GridError):
        project(math.nan, 0.0, 0.0)
    with pytest.raises(GridError, match="longitude out of range: 181.0"):
        project([0.0, 1.0, 2.0], [0.0, 181.0, -182.0], 0.0)


def test_unproject_inverts_project():
    for lat, lon in [(39.9, 116.4), (-33.9, 151.2), (0.01, -0.01)]:
        x, y = project(lat, lon, ref_lat=40.0)
        back = unproject(x, y, ref_lat=40.0)
        assert back == pytest.approx((lat, lon), abs=1e-9)


def test_grid_spec_validation():
    with pytest.raises(GridError):
        GridSpec(())
    with pytest.raises(GridError):
        GridSpec((100.0, -10.0))
    with pytest.raises(GridError):
        GridSpec((1000.0, 300.0))  # not an integer ratio
    with pytest.raises(GridError):
        GridSpec((100.0, 100.0))  # ratio 1 < 2
    with pytest.raises(GridError, match="'origin'"):
        GridSpec((100.0,), origin=(0.0,))
    # ints past the largest float (a JSON document can hold them) are named too
    with pytest.raises(GridError, match="'scales'"):
        GridSpec((10**400, 100.0))
    with pytest.raises(GridError, match="'origin'"):
        GridSpec((100.0,), origin=(0.0, -(10**400)))
    assert GridSpec((100.0,)).levels == 1
    assert SPEC3.ratios == (100, 10)


def test_encode_origin():
    assert encode_point(0.0, 0.0, SPEC3) == [(0, 0), 0, 0]


def test_encode_worked_example():
    # level 2: (123 mod 100, 7 mod 100) -> 23*100+7; level 3: (1234 mod 10,
    # 78 mod 10) -> 4*10+8
    assert encode_point(123456.0, 7890.0, SPEC3) == [(1, 0), 2307, 48]


def test_encode_negative_coordinates_euclidean():
    spec = GridSpec((1000.0, 100.0))
    assert encode_point(-1.0, -1.0, spec) == [(-1, -1), 99]


def test_decode_first_cell_center():
    assert decode_keys([(0, 0), 0, 0], SPEC3) == (50.0, 50.0, 100.0)


def test_decode_inverts_worked_example():
    cx, cy, extent = decode_keys([(1, 0), 2307, 48], SPEC3)
    assert (cx, cy) == (123450.0, 7850.0)
    assert extent == 100.0


def test_decode_rejects_out_of_range_offset():
    with pytest.raises(GridError, match="level-2"):
        decode_keys([(0, 0), 10_000, 0], SPEC3)
    with pytest.raises(GridError):
        decode_keys([(0, 0), 0], SPEC3)  # wrong key count


def test_round_trip_centers_within_half_cell():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x, y = rng.uniform(-500_000, 500_000, size=2)
        cx, cy, _ = decode_keys(encode_point(x, y, SPEC3), SPEC3)
        assert abs(cx - x) <= 50.0 + 1e-6
        assert abs(cy - y) <= 50.0 + 1e-6


_ROUND_TRIP_SPECS = (
    SPEC3,
    GridSpec((1000.0, 100.0)),
    GridSpec((90_000.0, 3_000.0, 1_500.0, 300.0), origin=(-12_345.5, 678.25)),
)


@st.composite
def _coordinate(draw, origin, finest):
    """Projected meters anywhere on Earth, half of them on a finest-cell edge."""
    bound = int(2e7 / finest)
    cell = draw(st.integers(-bound, bound))
    inside = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
    return origin + (cell + inside) * finest


@settings(max_examples=400, deadline=None)
@given(data=st.data(), spec=st.sampled_from(_ROUND_TRIP_SPECS))
def test_encode_decode_round_trip_property(data, spec):
    # negative coordinates included: floor division and Euclidean mod keep
    # every offset in range, and a point on a cell edge belongs to the cell
    # above it
    x = data.draw(_coordinate(spec.origin[0], spec.scales[-1]))
    y = data.draw(_coordinate(spec.origin[1], spec.scales[-1]))
    keys = encode_point(x, y, spec)
    cx, cy, size = decode_keys(keys, spec)
    assert size == spec.scales[-1]
    assert abs(cx - x) <= size / 2 + 1e-6
    assert abs(cy - y) <= size / 2 + 1e-6
    assert encode_point(cx, cy, spec) == keys
    assert finest_cells([x], [y], spec).tolist() == finest_cells([cx], [cy], spec).tolist()


def test_offsets_shared_across_parents():
    # the same relative position inside two different coarse cells encodes to
    # identical offsets at every finer level
    a = encode_point(12_345.0, 67_890.0, SPEC3)
    b = encode_point(12_345.0 + 300_000.0, 67_890.0 + 200_000.0, SPEC3)
    assert a[0] != b[0]
    assert a[1:] == b[1:]


def test_offsets_cover_full_shared_range():
    spec = GridSpec((1000.0, 100.0))
    seen = {encode_point(x + 0.5, y + 0.5, spec)[1]
            for x in range(0, 1000, 100) for y in range(0, 1000, 100)}
    assert seen == set(range(100))


def test_encode_respects_origin():
    spec = GridSpec((1000.0, 100.0), origin=(500.0, 500.0))
    assert encode_point(500.0, 500.0, spec) == [(0, 0), 0]


def test_finest_cell_matches_full_decomposition():
    x, y = 123456.0, 7890.0
    assert finest_cells([x], [y], SPEC3).tolist() == [[1234, 78]]


# -- the key columns equal the scalar oracle ------------------------------------

_ORACLE_SPECS = _ROUND_TRIP_SPECS + (
    GridSpec((5.0, 2.5), origin=(-1e6, 3e6)),
    GridSpec((1e-4, 5e-5)),  # finest indices near 2^38 anywhere on Earth
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), spec=st.sampled_from(_ORACLE_SPECS), n=st.integers(0, 12))
def test_encode_points_rows_equal_the_scalar_oracle(data, spec, n):
    # on cell edges, inside cells, negative and positive, around a non-zero origin
    x = [data.draw(_coordinate(spec.origin[0], spec.scales[-1])) for _ in range(n)]
    y = [data.draw(_coordinate(spec.origin[1], spec.scales[-1])) for _ in range(n)]
    keys = encode_points(np.array(x), np.array(y), spec)
    assert keys.dtype == np.int64 and keys.shape == (n, spec.levels + 1)
    cells = finest_cells(np.array(x), np.array(y), spec)
    assert cells.dtype == np.int64 and cells.shape == (n, 2)
    for row, cell, a, b in zip(keys.tolist(), cells.tolist(), x, y):
        want = oracle_keys(a, b, spec.scales, spec.origin)
        assert row == [*want[0], *want[1:]]
        assert encode_point(a, b, spec) == want  # the one-row call
        assert tuple(cell) == oracle_finest_cell(a, b, spec.scales, spec.origin)
        assert finest_cells([a], [b], spec).tolist() == [cell]


def test_encode_points_rejects_a_coordinate_without_an_int64_index():
    spec = GridSpec((1000.0, 100.0))
    for bad in (1e30, -1e30, math.inf, math.nan):
        with pytest.raises(GridError, match="int64"):
            encode_points(np.array([0.0, bad]), np.array([0.0, 0.0]), spec)
        with pytest.raises(GridError, match="int64"):
            finest_cells(np.array([0.0]), np.array([bad]), spec)


def _oracle_int64_fault(scales, origin):
    """The key the int64 rule names for a spec, or None: an offset range q**2 or a
    finest cell index of `project`'s extreme points, by math.floor, past 2^63."""
    ends = (EARTH_RADIUS_M * math.radians(180.0), EARTH_RADIUS_M * math.radians(90.0))

    def fits(org):
        for end, o in zip(ends, org):
            for v in (-end, end):
                f = (v - o) / scales[-1]
                if not (math.isfinite(f) and abs(math.floor(f)) < 2**63):
                    return False
        return True

    if any(round(a / b) ** 2 >= 2**63 for a, b in zip(scales, scales[1:])):
        return "scales"
    if not fits((0.0, 0.0)):
        return "scales"
    return None if fits(origin) else "origin"


@settings(max_examples=120, deadline=None)
@given(finest=st.floats(1e-12, 1e-10) | st.sampled_from([2.0 * 10**-12, 2.2e-12, 1.0]),
       ratio=st.sampled_from([2, 10, 3_037_000_499, 3_037_000_500]),
       origin=st.tuples(*[st.sampled_from([0.0, 1e6, -1e7, 1e8, -1e9, 1e300])] * 2))
def test_grid_spec_int64_rule_exits_2_naming_its_key(tmp_path_factory, finest, ratio, origin):
    # the config exits 2 naming the oracle's key, or resolves (and the run goes
    # on to the missing --input, exit 3)
    scales = [finest * ratio, finest]
    fault = _oracle_int64_fault(scales, origin)
    d = tmp_path_factory.mktemp("int64")
    cfg = d / "cfg.json"
    doc = {"scales": scales, "origin": list(origin), "synth": {"extent_m": 2 * scales[0]}}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(["vocab", "--config", str(cfg), "--input", str(d / "none.csv"),
                         "--out", str(d / "v")])
    if fault is None:
        assert code == 3, err.getvalue()
    else:
        assert code == 2 and err.getvalue().startswith(f"error: config: '{fault}'"), err.getvalue()
