"""Raw GPS/signal records to fixed-length tokenized training sequences.

Per-user stages: sort by time, optionally resample to one record per
interval, project to meters, optionally collapse same-cell runs into stays
and drop short ones, compute speeds, flag stops (< 4 km/h), cut the record
stream at stop records, tokenize, and window to the model's max sequence
length. Two profiles mirror the two data styles:

  "gps"    — dense GPS logs: resample on, stay filtering off
  "signal" — cell-signal logs: resample off, stay filtering on

Everything is deterministic given (input bytes, config, seed).
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grid import GridSpec, finest_cell, project
from .vocab import Vocabulary, tokenize

STOP_SPEED_KMH = 4.0
MIN_STAY_SECONDS = 300
MIN_TRAJECTORY_RECORDS = 10
RESAMPLE_INTERVAL_S = 60
MAX_SEQ_LEN = 32  # the model's cap and the window length, SOS included


@dataclass
class RawRecord:
    user_id: str
    timestamp: int  # Unix seconds, > 0
    lat: float
    lon: float
    label: str | None = None
    # filled in by the pipeline
    x: float = 0.0
    y: float = 0.0
    speed_kmh: float = 0.0
    is_stop: bool = False


@dataclass
class Trajectory:
    """Tokenized sequence with a leading SOS tuple at index 0.

    `ids[0]` is the per-level SOS tuple and `timestamps[0]` repeats the first
    real timestamp; `length` counts real locations only.
    """

    user: str
    ids: list[tuple[int, ...]]
    timestamps: list[int]
    label: str | None = None

    @property
    def length(self) -> int:
        return len(self.ids) - 1


@dataclass
class DatasetSplit:
    pretrain: list[int]
    finetune_train: list[int]
    finetune_val: list[int]
    finetune_test: list[int]
    seed: int = 0


@dataclass
class PipelineConfig:
    profile: str = "gps"  # "gps" | "signal"
    ref_lat: float = 0.0
    resample_interval: int = RESAMPLE_INTERVAL_S
    stop_speed_kmh: float = STOP_SPEED_KMH
    min_stay_seconds: int = MIN_STAY_SECONDS
    min_trajectory_records: int = MIN_TRAJECTORY_RECORDS
    max_seq_len: int = MAX_SEQ_LEN
    # pretrain share of all trajectories; then train and val shares of the rest
    split_fractions: tuple[float, float, float] = (0.8, 0.8, 0.1)

    def __post_init__(self):
        if self.profile not in ("gps", "signal"):
            raise ValueError(f"'profile' must be one of ('gps', 'signal'), got {self.profile!r}")
        if self.resample_interval < 1:
            raise ValueError(
                f"'resample_interval' must be at least 1, got {self.resample_interval}"
            )
        if not self.stop_speed_kmh > 0:
            raise ValueError(f"'stop_speed_kmh' must be above 0, got {self.stop_speed_kmh}")
        if self.min_trajectory_records < 1:
            raise ValueError(
                f"'min_trajectory_records' must be at least 1, got {self.min_trajectory_records}"
            )
        if self.max_seq_len < 2:
            raise ValueError(
                f"'max_seq_len' must be at least 2 (SOS plus one location), got {self.max_seq_len}"
            )
        shares = self.split_fractions
        if len(shares) != 3 or not all(0 <= f <= 1 for f in shares) or sum(shares[1:]) > 1:
            raise ValueError(
                f"'split_fractions' needs three shares in [0, 1] with train + val <= 1, "
                f"got {shares!r}"
            )


# ---------------------------------------------------------------------------
# per-user preprocessing stages
# ---------------------------------------------------------------------------

def resample(records: list[RawRecord], interval: int = RESAMPLE_INTERVAL_S) -> list[RawRecord]:
    """Keep the first record in each interval-length bucket (per user, sorted).

    Buckets are anchored at the user's first timestamp, so records already
    spaced >= interval apart pass through unchanged.
    """
    if not records:
        return []
    t0 = records[0].timestamp
    kept = []
    last_bucket = None
    for r in records:
        bucket = (r.timestamp - t0) // interval
        if bucket != last_bucket:
            kept.append(r)
            last_bucket = bucket
    return kept


def compute_velocity(records: list[RawRecord]) -> list[RawRecord]:
    """Instantaneous speed in km/h between consecutive projected points.

    The first record copies the second's speed; a zero time delta repeats
    the previous record's speed.
    """
    if len(records) < 2:
        raise ValueError("velocity needs at least two records per user")
    for i in range(1, len(records)):
        prev, cur = records[i - 1], records[i]
        dt = cur.timestamp - prev.timestamp
        if dt <= 0:
            cur.speed_kmh = prev.speed_kmh
            continue
        dist_m = math.hypot(cur.x - prev.x, cur.y - prev.y)
        cur.speed_kmh = (dist_m / dt) * 3.6
    records[0].speed_kmh = records[1].speed_kmh
    return records


def mark_stops(records: list[RawRecord], threshold_kmh: float = STOP_SPEED_KMH) -> list[RawRecord]:
    """Flag stop records: speed strictly below the threshold."""
    for r in records:
        r.is_stop = r.speed_kmh < threshold_kmh
    return records


def filter_short_stays(
    records: list[RawRecord], spec: GridSpec, min_duration: int = MIN_STAY_SECONDS
) -> list[RawRecord]:
    """Collapse same-finest-cell runs into single stay records; drop short ones.

    A stay's duration is last minus first timestamp of the run; the collapsed
    record keeps the arrival (first) record's fields. Lone records have
    duration zero and are dropped.
    """
    def cell(r: RawRecord):
        return finest_cell(r.x, r.y, spec)

    kept = []
    i = 0
    while i < len(records):
        j = i
        while j + 1 < len(records) and cell(records[j + 1]) == cell(records[i]):
            j += 1
        duration = records[j].timestamp - records[i].timestamp
        if duration >= min_duration:
            kept.append(records[i])
        i = j + 1
    return kept


def segment_trajectories(
    records: list[RawRecord], min_len: int = MIN_TRAJECTORY_RECORDS
) -> list[list[RawRecord]]:
    """Cut the stream at stop records; a segment spans stop..stop inclusive.

    Consecutive segments share their boundary stop record. Only segments with
    strictly more than `min_len` records survive; records before the first
    stop or after the last are discarded.
    """
    stop_idx = [i for i, r in enumerate(records) if r.is_stop]
    segments = []
    for a, b in zip(stop_idx, stop_idx[1:]):
        seg = records[a : b + 1]
        if len(seg) > min_len:
            segments.append(seg)
    return segments


def window(traj: Trajectory, max_seq_len: int) -> list[Trajectory]:
    """Split into non-overlapping chunks of <= max_seq_len - 1 real locations.

    Each chunk is re-prefixed with SOS; a trailing chunk of a single location
    is dropped (nothing to predict from it).
    """
    sos = traj.ids[0]
    reals = traj.ids[1:]
    times = traj.timestamps[1:]
    chunk = max_seq_len - 1
    out = []
    for start in range(0, len(reals), chunk):
        ids = reals[start : start + chunk]
        ts = times[start : start + chunk]
        if len(ids) <= 1:
            continue
        out.append(
            Trajectory(
                user=traj.user,
                ids=[sos] + ids,
                timestamps=[ts[0]] + ts,
                label=traj.label,
            )
        )
    return out


def split(n_trajectories: int, seed: int, fractions=PipelineConfig.split_fractions) -> DatasetSplit:
    """Deterministic shuffled split: pretrain vs finetune, then train/val/test.

    `fractions` = (pretrain share of total, train share of the finetune pool,
    val share of the finetune pool); the remainder of the pool is test.
    """
    if n_trajectories < 10:
        raise ValueError(f"need at least 10 trajectories to split, got {n_trajectories}")
    idx = list(range(n_trajectories))
    random.Random(seed).shuffle(idx)
    n_pre = int(n_trajectories * fractions[0])
    pool = idx[n_pre:]
    n_tr = int(len(pool) * fractions[1])
    n_val = int(len(pool) * fractions[2])
    return DatasetSplit(
        pretrain=idx[:n_pre],
        finetune_train=pool[:n_tr],
        finetune_val=pool[n_tr : n_tr + n_val],
        finetune_test=pool[n_tr + n_val :],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# end-to-end assembly
# ---------------------------------------------------------------------------

def _majority_label(records: list[RawRecord]) -> str | None:
    counts: dict[str, int] = {}
    for r in records:
        if r.label:
            counts[r.label] = counts.get(r.label, 0) + 1
    if not counts:
        return None
    best = max(counts.values())
    return sorted(k for k, v in counts.items() if v == best)[0]


def _tokenize_segment(seg: list[RawRecord], vocab: Vocabulary) -> Trajectory:
    ids = [vocab.sos_tuple()]
    ts = [seg[0].timestamp]
    for r in seg:
        ids.append(tokenize(r.x, r.y, vocab).ids)
        ts.append(r.timestamp)
    return Trajectory(user=seg[0].user_id, ids=ids, timestamps=ts, label=_majority_label(seg))


def preprocess(
    records: list[RawRecord], vocab: Vocabulary, cfg: PipelineConfig
) -> list[Trajectory]:
    """Run the full per-user pipeline and return windowed tokenized trajectories.

    Users are processed independently; output order is sorted by
    (user_id, first timestamp) so parallel ingestion stays deterministic.
    """
    by_user: dict[str, list[RawRecord]] = {}
    for r in records:
        if r.timestamp <= 0:
            raise ValueError(f"non-positive timestamp {r.timestamp} for user {r.user_id}")
        by_user.setdefault(r.user_id, []).append(r)

    trajs: list[Trajectory] = []
    for user in sorted(by_user):
        rs = sorted(by_user[user], key=lambda r: r.timestamp)
        if cfg.profile == "gps":
            rs = resample(rs, cfg.resample_interval)
        for r in rs:
            r.x, r.y = project(r.lat, r.lon, cfg.ref_lat)
        if cfg.profile == "signal":
            rs = filter_short_stays(rs, vocab.spec, cfg.min_stay_seconds)
        if len(rs) < 2:
            continue
        compute_velocity(rs)
        mark_stops(rs, cfg.stop_speed_kmh)
        for seg in segment_trajectories(rs, cfg.min_trajectory_records):
            trajs.extend(window(_tokenize_segment(seg, vocab), cfg.max_seq_len))
    return trajs


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_csv(path) -> list[RawRecord]:
    """Read `user_id,timestamp,lat,lon[,label]` rows (UTF-8, with header)."""
    records = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        required = {"user_id", "timestamp", "lat", "lon"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"CSV must have columns {sorted(required)}, got {reader.fieldnames}")
        for row in reader:
            records.append(
                RawRecord(
                    user_id=row["user_id"],
                    timestamp=int(row["timestamp"]),
                    lat=float(row["lat"]),
                    lon=float(row["lon"]),
                    label=row.get("label") or None,
                )
            )
    return records


def iter_csv_points(path, ref_lat: float = 0.0):
    """Yield projected (x, y) for every CSV record (vocabulary building)."""
    for r in read_csv(path):
        yield project(r.lat, r.lon, ref_lat)


def write_trajectories(trajs: list[Trajectory], path):
    """Newline-delimited JSON, one trajectory per line, SOS tuple included."""
    with open(path, "w", encoding="utf-8") as f:
        for t in trajs:
            f.write(
                json.dumps(
                    {
                        "user": t.user,
                        "ids": [list(tup) for tup in t.ids],
                        "ts": t.timestamps,
                        "label": t.label,
                    }
                )
            )
            f.write("\n")


def read_trajectories(path, level_sizes=None) -> list[Trajectory]:
    """Read `write_trajectories`'s NDJSON as untrusted input.

    A line that is not an object with `user`, `ids` and `ts`, whose `ids` and
    `ts` differ in length, whose id tuples are not non-negative ints (not
    bools) of the file's one width, whose `ts` holds anything but finite
    numbers > 0, or whose `label` is neither a string nor null raises
    ValueError naming the file and the line. Given `level_sizes`,
    every id must also lie below its level's size. The id and timestamp
    checks run once, vectorised, over the whole file; a line-by-line scan
    runs only to name the line of a fault.
    """
    trajs, line_of = [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}, line {lineno}: not JSON ({e})") from None
            if not (isinstance(doc, dict) and "user" in doc and "ids" in doc and "ts" in doc):
                raise ValueError(
                    f"{path}, line {lineno}: needs an object with 'user', 'ids' and 'ts'"
                )
            ids, ts = doc["ids"], doc["ts"]
            if not (isinstance(ids, list) and isinstance(ts, list) and len(ids) == len(ts)
                    and all(isinstance(tup, list) for tup in ids)):
                raise ValueError(
                    f"{path}, line {lineno}: 'ids' (a list of id lists) and 'ts' must be "
                    f"lists of one length"
                )
            label = doc.get("label")
            if label is not None and not isinstance(label, str):
                raise ValueError(
                    f"{path}, line {lineno}: 'label' {label!r} is not a string or null"
                )
            trajs.append(Trajectory(
                user=doc["user"],
                ids=[tuple(tup) for tup in ids],
                timestamps=ts,
                label=label,
            ))
            line_of.append(lineno)
    _check_ids(path, trajs, line_of, level_sizes)
    _check_timestamps(path, trajs, line_of)
    return trajs


def _check_ids(path, trajs: list[Trajectory], line_of: list[int], level_sizes):
    """Every id tuple holds non-negative ints, one width across the file (the
    level count when `level_sizes` is given), each below its level's size when
    `level_sizes` is given."""
    rows = [tup for t in trajs for tup in t.ids]
    if not rows:
        return
    width = len(rows[0]) if level_sizes is None else len(level_sizes)
    ids = None
    if {int}.issuperset(map(type, chain.from_iterable(rows))):  # no bool, float or str
        try:
            ids = np.array(rows)
        except ValueError:  # ragged rows
            pass
    if ids is None or ids.shape != (len(rows), width) or ids.dtype.kind != "i":
        for t, lineno in zip(trajs, line_of):
            if any(len(tup) != width or not all(type(i) is int for i in tup) for tup in t.ids):
                raise ValueError(
                    f"{path}, line {lineno}: each id tuple must hold {width} ints"
                )
        raise ValueError(f"{path}: ids must be 64-bit ints")
    bad = ids < 0
    if level_sizes is not None:
        bad |= ids >= np.asarray(level_sizes)
    if bad.any():
        row, level = np.argwhere(bad)[0]
        ends = np.cumsum([len(t.ids) for t in trajs])
        lineno = line_of[int(np.searchsorted(ends, row, side="right"))]
        upper = "inf" if level_sizes is None else level_sizes[level]
        raise ValueError(
            f"{path}, line {lineno}: id {ids[row, level]} at level {level + 1} "
            f"is outside [0, {upper})"
        )


def _check_timestamps(path, trajs: list[Trajectory], line_of: list[int]):
    """Every `ts` entry is an int or float (not a bool), finite and > 0."""
    stamps = [x for t in trajs for x in t.timestamps]
    if {int, float}.issuperset(map(type, stamps)):
        try:
            ts = np.array(stamps, dtype=np.float64)
        except OverflowError:  # an int beyond float range, which the scan names
            pass
        else:
            if np.all(ts > 0) and np.all(np.isfinite(ts)):
                return
    for t, lineno in zip(trajs, line_of):
        for x in t.timestamps:
            if type(x) not in (int, float) or not 0 < x <= sys.float_info.max:
                raise ValueError(
                    f"{path}, line {lineno}: 'ts' entry {x!r} is not a finite number > 0"
                )


def split_to_json(s: DatasetSplit) -> dict:
    return {
        "seed": s.seed,
        "pretrain": s.pretrain,
        "finetune_train": s.finetune_train,
        "finetune_val": s.finetune_val,
        "finetune_test": s.finetune_test,
    }
