"""Synthetic GPS corpus: anchored random walks with dwells and travel bursts.

Each user gets `ANCHORS_PER_USER` anchor points inside the region and makes
`BURSTS_PER_USER` trips between them. A dwell emits one record per minute
with at most `JITTER_M / 2` of jitter per axis, so a dwell step is at most
25·√2 ≈ 35 m a minute (2.1 km/h), under the 4 km/h stop-speed threshold. A
burst walks toward the next anchor, labeled with a movement mode, at least
90 m a minute; even its first step, from a jittered dwell record, is at
least 90 − 17.7 m (4.3 km/h), above the threshold. Only the user count, the
region's extent, the seed and the grid vary: its coarsest scale bounds the
extent from below, and its `ref_lat` unprojects the walks to degrees.
Output is byte-stable for a fixed config.

Stream rule: each segment takes its random numbers in one draw, a dwell's
jitter as `[n, 2]` and a burst's step and wobble as `[n, 2]` rows, which
reads the generator's stream in the same order as one draw per record would.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, unproject
from .pipeline import CSV_COLUMNS, RawRecord, _at_least

# per-minute step ranges (meters) per movement mode; all > 4 km/h at 60 s spacing
MODES = (("walk", 90.0, 150.0), ("bike", 200.0, 380.0), ("car", 450.0, 900.0))

BASE_EPOCH = 1_600_000_000

ANCHORS_PER_USER = 3
BURSTS_PER_USER = 3
BURST_LEN = (15, 25)  # movement records per burst
DWELL_MINUTES = (6, 12)
JITTER_M = 25.0  # dwell wobble; keeps dwell speeds < 4 km/h
HEADING_NOISE = 0.15  # lateral fraction of the step length


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


def generate_records(cfg: SynthConfig) -> list[RawRecord]:
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
    return list(map(RawRecord, users, stamps, lat.tolist(), lon.tolist(), labels))


def records_to_csv(records: list[RawRecord]) -> str:
    buf = io.StringIO()
    buf.write(",".join((*CSV_COLUMNS, "label")) + "\n")
    for r in records:
        buf.write(f"{r.user_id},{r.timestamp},{r.lat:.7f},{r.lon:.7f},{r.label or ''}\n")
    return buf.getvalue()


def write_csv(records: list[RawRecord], path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(records_to_csv(records))
