"""Synthetic GPS corpus: anchored random walks with dwells and travel bursts.

Each user gets `ANCHORS_PER_USER` anchor points inside the region and makes
`BURSTS_PER_USER` trips between them. A dwell emits one record per minute
with at most `JITTER_M / 2` of jitter per axis, so a dwell step is at most
25·√2 ≈ 35 m a minute (2.1 km/h), under the 4 km/h stop-speed threshold. A
burst walks toward the next anchor, labeled with a movement mode, at least
90 m a minute; even its first step, from a jittered dwell record, is at
least 90 − 17.7 m (4.3 km/h), above the threshold. Only the user count, the
region's extent, the seed and the grid vary: its coarsest scale bounds the
extent from below, and its `ref_lat` unprojects the walks to degrees;
`SynthConfig.check_walk_range` bounds the extent from above by `project`'s
range there.
`generate_records` returns the records as `RecordColumns`, in user and time
order, the columns `preprocess` takes; `records_to_csv` formats the columns.
Output is byte-stable for a fixed config.

Stream rule: each segment takes its random numbers in one draw, a dwell's
jitter as `[n, 2]` and a burst's step and wobble as `[n, 2]` rows, which
reads the generator's stream in the same order as one draw per record would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import PROJECTED_END_M, GridSpec, unproject
from .pipeline import CSV_COLUMNS, RecordColumns, _at_least

# per-minute step ranges (meters) per movement mode; all > 4 km/h at 60 s spacing
MODES = (("walk", 90.0, 150.0), ("bike", 200.0, 380.0), ("car", 450.0, 900.0))

BASE_EPOCH = 1_600_000_000

ANCHORS_PER_USER = 3
BURSTS_PER_USER = 3
BURST_LEN = (15, 25)  # movement records per burst
DWELL_MINUTES = (6, 12)
JITTER_M = 25.0  # dwell wobble; keeps dwell speeds < 4 km/h
HEADING_NOISE = 0.15  # lateral fraction of the step length
# How far a walk can pass its anchor box, per axis. A step aimed at an anchor
# inside the box moves the walk further out only by overshooting the anchor,
# which leaves it less than one step out, or by its lateral wobble. So the walk
# stays within one step plus one wobble per burst step of the box, and a dwell
# record adds its jitter.
MAX_STEP_M = max(hi for _, _, hi in MODES)
WALK_MARGIN_M = MAX_STEP_M * (1 + HEADING_NOISE * BURSTS_PER_USER * BURST_LEN[1]) + JITTER_M / 2


@dataclass
class SynthConfig:
    users: int = 20
    extent_m: float = 300_000.0
    seed: int = 0
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        if not self.grid.scales[0] < self.extent_m < math.inf:
            raise ValueError(
                f"'extent_m' must be finite and above one coarse cell, 'scales'[0] = "
                f"{self.grid.scales[0]} m, got {self.extent_m}"
            )
        _at_least(self, 1, "users")

    def check_walk_range(self):
        """Raise naming 'extent_m' if a walk could leave `project`'s range at the
        grid's `ref_lat`, where `vocab` and `preprocess` would reject its CSV.

        Not a rule of the constructor: every command builds the config, and an
        extent must exceed one coarse cell, so a grid whose coarsest scale is
        wider than the projection would leave no command able to run.
        """
        # anchors lie in [0.05, 0.95] * extent_m on both axes, so no coordinate
        # is further from 0 than `reach`
        reach = 0.95 * self.extent_m + WALK_MARGIN_M
        end = min(PROJECTED_END_M[1],
                  PROJECTED_END_M[0] * math.cos(math.radians(self.grid.ref_lat)))
        if not reach < end:
            raise ValueError(
                f"'extent_m' lets the walk reach {reach} m, past `project`'s range of "
                f"{end} m at 'ref_lat' {self.grid.ref_lat}, got {self.extent_m}"
            )


def generate_records(cfg: SynthConfig) -> RecordColumns:
    rng = np.random.default_rng(cfg.seed)
    segments: list[np.ndarray] = []  # [n, 2] projected meters, in record order
    users: list[str] = []
    stamps: list[int] = []
    labels: list[str | None] = []

    def dwell(x, y):
        n = int(rng.integers(DWELL_MINUTES[0], DWELL_MINUTES[1] + 1))
        jitter = rng.uniform(-JITTER_M / 2, JITTER_M / 2, size=(n, 2))
        segments.append(np.array([x, y]) + jitter)
        labels.extend([None] * n)

    for u in range(cfg.users):
        first = len(labels)
        anchors = rng.uniform(
            0.05 * cfg.extent_m, 0.95 * cfg.extent_m, size=(ANCHORS_PER_USER, 2)
        )
        x, y = anchors[0].tolist()
        dwell(x, y)
        for b in range(BURSTS_PER_USER):
            tx, ty = anchors[(b + 1) % ANCHORS_PER_USER].tolist()
            mode, lo, hi = MODES[int(rng.integers(len(MODES)))]
            n_steps = int(rng.integers(BURST_LEN[0], BURST_LEN[1] + 1))
            draws = rng.uniform([lo, -HEADING_NOISE], [hi, HEADING_NOISE], size=(n_steps, 2))
            path = []
            # a scalar loop: each step's heading depends on the last position
            for step, wobble in draws.tolist():
                dx, dy = tx - x, ty - y
                dist = float(np.hypot(dx, dy))
                ux, uy = (dx / dist, dy / dist) if dist > 1e-9 else (1.0, 0.0)
                lx, ly = -uy, ux
                # overshoot rather than stall at the target so every burst
                # step stays above the stop-speed threshold
                x = x + ux * step + lx * wobble * step
                y = y + uy * step + ly * wobble * step
                path.append((x, y))
            segments.append(np.array(path, dtype=np.float64).reshape(n_steps, 2))
            labels.extend([mode] * n_steps)
            dwell(x, y)
        n = len(labels) - first
        t0 = BASE_EPOCH + u * 100_000
        users.extend([f"u{u:04d}"] * n)
        stamps.extend(range(t0, t0 + 60 * n, 60))
    xy = np.concatenate(segments)
    lat, lon = unproject(xy[:, 0], xy[:, 1], cfg.grid.ref_lat)
    return RecordColumns.from_lists(users, stamps, lat, lon, labels)


def records_to_csv(records: RecordColumns) -> str:
    users = np.array(records.users, dtype=object)[records.user].tolist()
    labels = np.array(["", *records.labels], dtype=object)[records.label].tolist()
    rows = map("{},{},{:.7f},{:.7f},{}\n".format, users, records.ts.tolist(),
               records.lat.tolist(), records.lon.tolist(), labels)
    return ",".join((*CSV_COLUMNS, "label")) + "\n" + "".join(rows)


def write_csv(records: RecordColumns, path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(records_to_csv(records))
