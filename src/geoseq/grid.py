"""Nested grid geometry: projection, hierarchical cell encoding, decoding.

A point is described by one absolute cell at the coarsest scale plus, at each
finer scale, a relative offset within its parent cell. Offsets are level-local
(every parent at a given level shares the same offset range), which is what
keeps the per-level vocabularies small.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
# `project`'s largest x and y: every projected coordinate lies within +-these
PROJECTED_END_M = (EARTH_RADIUS_M * math.radians(180.0), EARTH_RADIUS_M * math.radians(90.0))
INT64_END = 2**63  # cell indices and offsets are int64 columns: |value| < INT64_END


class GridError(ValueError):
    """Invalid grid specification or malformed cell key."""


def project(lat, lon, ref_lat: float):
    """Equirectangular projection of degrees to meters, for scalars or arrays.

    x = R * lon_rad * cos(ref_lat), y = R * lat_rad. Monotone and invertible,
    adequate at city scale; `ref_lat` should sit near the data's latitude band.
    It has no default: a grid's projection is its `GridSpec.ref_lat`.
    Scalars give float64 scalars; `np.radians` rounds as `math.radians` does.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    for name, deg, bound in (("latitude", lat, 90.0), ("longitude", lon, 180.0)):
        bad = ~(np.abs(deg) <= bound)  # NaN included
        if bad.any():
            raise GridError(f"{name} out of range: {deg[bad][0]}")
    x = EARTH_RADIUS_M * np.radians(lon) * math.cos(math.radians(ref_lat))
    y = EARTH_RADIUS_M * np.radians(lat)
    return x, y


def unproject(x, y, ref_lat: float):
    """Inverse of `project`, returning (lat, lon) degrees, for scalars or arrays.

    Scalars give float64 scalars; `np.degrees` rounds as `math.degrees` does.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lat = np.degrees(y / EARTH_RADIUS_M)
    lon = np.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(ref_lat))))
    return lat, lon


@dataclass(frozen=True)
class GridSpec:
    """Strictly nested grid scales, coarse to fine, a common origin, and the
    reference latitude of the projection that maps degrees onto the grid.

    `scales[0] > scales[1] > ... > scales[-1]` in meters, each an exact
    integer multiple (>= 2) of the next, so cells nest without overlap.
    Keys are int64: every offset range `ratios[h]**2`, and the absolute value of
    every finest-scale cell index of a projected point, must lie below 2^63.
    """

    scales: tuple[float, ...] = (100_000.0, 1_000.0, 100.0)
    origin: tuple[float, float] = (0.0, 0.0)
    ref_lat: float = 0.0  # `project`'s reference latitude, in (-90, 90)
    ratios: tuple[int, ...] = field(init=False)  # ratios[h] = scales[h-1] / scales[h]

    def __post_init__(self):
        # bounded by the largest float, not inf: an int of any size compares
        # below inf, and one past the largest float cannot become a float
        if len(self.scales) < 1:
            raise GridError("'scales' needs at least one scale")
        if not all(0 < s <= sys.float_info.max for s in self.scales):
            raise GridError(f"'scales' must be finite and positive, got {self.scales}")
        if len(self.origin) != 2 or not all(abs(c) <= sys.float_info.max for c in self.origin):
            raise GridError(f"'origin' must be two finite numbers, got {self.origin!r}")
        if not -90 < self.ref_lat < 90:
            raise GridError(f"'ref_lat' must lie in (-90, 90), got {self.ref_lat}")
        scales = tuple(float(s) for s in self.scales)
        ratios = []
        for h in range(1, len(scales)):
            q = scales[h - 1] / scales[h]
            q_int = round(q) if q < math.inf else 0  # the ratio can overflow to inf
            if q_int < 2 or abs(q - q_int) > 1e-9 * q:
                raise GridError(
                    f"'scales': {scales[h - 1]} is not an integer multiple (>=2) of {scales[h]}"
                )
            if q_int**2 >= INT64_END:
                raise GridError(
                    f"'scales': the level-{h + 1} offset range {q_int}**2 does not fit in int64"
                )
            ratios.append(q_int)

        def indices_fit(origin) -> bool:  # rounding is monotone: the extremes bound every index
            return all(abs((v - o) / scales[-1]) < INT64_END
                       for end, o in zip(PROJECTED_END_M, origin) for v in (-end, end))

        if not indices_fit((0.0, 0.0)):
            raise GridError(f"'scales': cell indices at {scales[-1]} m do not fit in int64")
        if not indices_fit(self.origin):
            raise GridError(
                f"'origin' {self.origin!r} puts cell indices at the finest of 'scales', "
                f"{scales[-1]} m, past int64"
            )
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "ratios", tuple(ratios))

    @property
    def levels(self) -> int:
        return len(self.scales)


def _cell_index(v: np.ndarray, v0: float, scale: float) -> np.ndarray:
    """floor((v - v0) / scale) as int64; a value past int64 (or NaN) raises GridError."""
    cell = np.floor((v - v0) / scale)
    if not (np.abs(cell) < INT64_END).all():
        bad = v[~(np.abs(cell) < INT64_END)][0]
        raise GridError(f"coordinate {bad} has no int64 cell index at {scale} m")
    return cell.astype(np.int64)


def encode_points(x, y, spec: GridSpec) -> np.ndarray:
    """Map columns of projected meters to hierarchical key columns.

    Returns an int64 array [N, levels + 1]: columns 0 and 1 are the absolute
    coarse cell `(i, j)`; column h for h > 1 is the level-h offset
    `o_x * q_h + o_y` inside its parent, with floor division and Euclidean
    mod so negative coordinates stay well-defined.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x0, y0 = spec.origin
    keys = np.empty((len(x), spec.levels + 1), dtype=np.int64)
    keys[:, 0] = _cell_index(x, x0, spec.scales[0])
    keys[:, 1] = _cell_index(y, y0, spec.scales[0])
    for h in range(2, spec.levels + 1):
        rh = spec.scales[h - 1]
        q = spec.ratios[h - 2]
        keys[:, h] = _cell_index(x, x0, rh) % q * q + _cell_index(y, y0, rh) % q
    return keys


def encode_point(x: float, y: float, spec: GridSpec):
    """One point's keys: a list of length `spec.levels`, the absolute coarse cell
    `(i, j)` and then each finer level's offset (see `encode_points`)."""
    i, j, *offsets = encode_points([x], [y], spec)[0].tolist()
    return [(i, j), *offsets]


def decode_keys(keys, spec: GridSpec) -> tuple[float, float, float]:
    """Invert `encode_point`: return the finest cell's center and its size.

    The absolute cell fixes the coarse corner; each offset then narrows to a
    sub-cell. The returned center is within scales[-1] / 2 of any point that
    encodes to `keys` (the round-trip law).
    """
    if len(keys) != spec.levels:
        raise GridError(f"expected {spec.levels} keys, got {len(keys)}")
    x0, y0 = spec.origin
    i, j = keys[0]
    cx = x0 + i * spec.scales[0]
    cy = y0 + j * spec.scales[0]
    for h in range(2, spec.levels + 1):
        q = spec.ratios[h - 2]
        off = int(keys[h - 1])
        if not (0 <= off < q * q):
            raise GridError(f"level-{h} offset {off} outside [0, {q * q})")
        ox, oy = divmod(off, q)
        cx += ox * spec.scales[h - 1]
        cy += oy * spec.scales[h - 1]
    half = spec.scales[-1] / 2.0
    return cx + half, cy + half, spec.scales[-1]


def finest_cells(x, y, spec: GridSpec) -> np.ndarray:
    """Absolute cell indices [N, 2] at the finest scale (each a flat location)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = spec.scales[-1]
    return np.stack([_cell_index(x, spec.origin[0], r), _cell_index(y, spec.origin[1], r)], axis=1)
