"""Synthetic GPS corpus: anchored random walks with dwells and travel bursts.

Each user gets a few anchor points inside the region. A dwell emits one
record per minute with jitter small enough to stay under the stop-speed
threshold; a burst walks toward the next anchor fast enough to stay above
it, labeled with a movement mode. Output is byte-stable for a fixed config.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, unproject
from .pipeline import PipelineConfig, RawRecord

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
        if self.extent_m <= self.scales[0]:
            raise ValueError(
                f"'extent_m' {self.extent_m} cannot span two coarse cells of {self.scales[0]} m"
            )
        if self.users < 1:
            raise ValueError(f"'users' must be at least 1, got {self.users}")
        if self.anchors_per_user < 2:
            raise ValueError(f"'anchors_per_user' must be at least 2, got {self.anchors_per_user}")
        for name in ("burst_len", "dwell_minutes"):
            span = getattr(self, name)
            if len(span) != 2 or span[0] > span[1]:
                raise ValueError(f"'{name}' must be two values lo <= hi, got {span!r}")


def generate_records(cfg: SynthConfig) -> list[RawRecord]:
    rng = np.random.default_rng(cfg.seed)
    records: list[RawRecord] = []
    for u in range(cfg.users):
        user = f"u{u:04d}"
        anchors = rng.uniform(0.05 * cfg.extent_m, 0.95 * cfg.extent_m, size=(cfg.anchors_per_user, 2))
        t = BASE_EPOCH + u * 100_000
        pos = anchors[0].copy()

        def dwell(center):
            nonlocal t
            n = int(rng.integers(cfg.dwell_minutes[0], cfg.dwell_minutes[1] + 1))
            for _ in range(n):
                jitter = rng.uniform(-cfg.jitter_m / 2, cfg.jitter_m / 2, size=2)
                p = center + jitter
                lat, lon = unproject(p[0], p[1], cfg.ref_lat)
                records.append(RawRecord(user, t, lat, lon, None))
                t += 60

        dwell(pos)
        for b in range(cfg.bursts_per_user):
            target = anchors[(b + 1) % cfg.anchors_per_user]
            mode, lo, hi = MODES[int(rng.integers(len(MODES)))]
            n_steps = int(rng.integers(cfg.burst_len[0], cfg.burst_len[1] + 1))
            for _ in range(n_steps):
                direction = target - pos
                dist = float(np.hypot(*direction))
                unit = direction / dist if dist > 1e-9 else np.array([1.0, 0.0])
                step = float(rng.uniform(lo, hi))
                lateral = np.array([-unit[1], unit[0]])
                wobble = float(rng.uniform(-cfg.heading_noise, cfg.heading_noise))
                # overshoot rather than stall at the target so every burst
                # step stays above the stop-speed threshold
                pos = pos + unit * step + lateral * wobble * step
                lat, lon = unproject(pos[0], pos[1], cfg.ref_lat)
                records.append(RawRecord(user, t, lat, lon, mode))
                t += 60
            dwell(pos)
    return records


def records_to_csv(records: list[RawRecord]) -> str:
    buf = io.StringIO()
    buf.write("user_id,timestamp,lat,lon,label\n")
    for r in records:
        buf.write(f"{r.user_id},{r.timestamp},{r.lat:.7f},{r.lon:.7f},{r.label or ''}\n")
    return buf.getvalue()


def write_csv(records: list[RawRecord], path):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(records_to_csv(records))
