"""Synthetic GPS corpus: anchored random walks with dwells and travel bursts.

Each user gets a few anchor points inside the region. A dwell emits one
record per minute with jitter small enough to stay under the stop-speed
threshold; a burst walks toward the next anchor fast enough to stay above
it, labeled with a movement mode. Output is byte-stable for a fixed config.

Stream rule: each segment takes its random numbers in one draw, a dwell's
jitter as `[n, 2]` and a burst's step and wobble as `[n, 2]` rows, which
reads the generator's stream in the same order as one draw per record would.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, unproject
from .pipeline import CSV_COLUMNS, PipelineConfig, RawRecord, _at_least

# per-minute step ranges (meters) per movement mode; all > 4 km/h at 60 s spacing
MODES = (("walk", 90.0, 150.0), ("bike", 200.0, 380.0), ("car", 450.0, 900.0))

BASE_EPOCH = 1_600_000_000


@dataclass
class SynthConfig:
    users: int = 20
    anchors_per_user: int = 3
    extent_m: float = 300_000.0
    bursts_per_user: int = 3
    burst_len: tuple[int, int] = (15, 25)  # movement records per burst
    dwell_minutes: tuple[int, int] = (6, 12)
    jitter_m: float = 25.0  # dwell wobble; keeps dwell speeds < 4 km/h
    heading_noise: float = 0.15  # lateral fraction of the step length
    seed: int = 0
    scales: tuple[float, ...] = GridSpec.scales
    ref_lat: float = PipelineConfig.ref_lat

    def __post_init__(self):
        if not self.scales[0] < self.extent_m < math.inf:
            raise ValueError(
                f"'extent_m' must be finite and above one coarse cell, 'scales'[0] = "
                f"{self.scales[0]} m, got {self.extent_m}"
            )
        _at_least(self, 1, "users")
        _at_least(self, 2, "anchors_per_user")
        _at_least(self, 0, "bursts_per_user")
        for name in ("burst_len", "dwell_minutes"):
            span = getattr(self, name)
            if len(span) != 2 or not 0 <= span[0] <= span[1]:
                raise ValueError(f"'{name}' must be two values 0 <= lo <= hi, got {span!r}")
        for name in ("jitter_m", "heading_noise"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"'{name}' must be a finite number >= 0, got {value!r}")


def generate_records(cfg: SynthConfig) -> list[RawRecord]:
    rng = np.random.default_rng(cfg.seed)
    segments: list[np.ndarray] = []  # [n, 2] projected meters, in record order
    users: list[str] = []
    stamps: list[int] = []
    labels: list[str | None] = []

    def dwell(x, y):
        n = int(rng.integers(cfg.dwell_minutes[0], cfg.dwell_minutes[1] + 1))
        jitter = rng.uniform(-cfg.jitter_m / 2, cfg.jitter_m / 2, size=(n, 2))
        segments.append(np.array([x, y]) + jitter)
        labels.extend([None] * n)

    for u in range(cfg.users):
        first = len(labels)
        anchors = rng.uniform(
            0.05 * cfg.extent_m, 0.95 * cfg.extent_m, size=(cfg.anchors_per_user, 2)
        )
        x, y = anchors[0].tolist()
        dwell(x, y)
        for b in range(cfg.bursts_per_user):
            tx, ty = anchors[(b + 1) % cfg.anchors_per_user].tolist()
            mode, lo, hi = MODES[int(rng.integers(len(MODES)))]
            n_steps = int(rng.integers(cfg.burst_len[0], cfg.burst_len[1] + 1))
            noise = cfg.heading_noise
            draws = rng.uniform([lo, -noise], [hi, noise], size=(n_steps, 2))
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
    lat, lon = unproject(xy[:, 0], xy[:, 1], cfg.ref_lat)
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
