"""Raw GPS/signal records to fixed-length tokenized training sequences.

`read_csv` reads the input CSV into numpy columns (`RecordColumns`), with no
object per row: one vectorised pass (numpy's `loadtxt` for the numbers, byte
offsets for the user and label strings) reads every file that it can read
exactly as `csv.reader`, `int` and `float` would, and a row scan with
`csv.reader` reads the rest (quoted fields, CRLF line ends, rows without
their trailing label) and names the file, line and field of every fault.
`preprocess` takes only columns (from `read_csv`, `synth.generate_records` or
`RecordColumns.from_lists`); `RawRecord` is the row view `RecordColumns[i]`.

The records are held as numpy columns, sorted by user and then time, and
projected to meters at the vocabulary's `ref_lat`: `vocab.json` records the
grid its cells were built on, projection included. Each stage is one pure
function over all users' columns, with user boundaries as masks, that
returns kept indices, speeds or segment bounds: optionally resample to one
record per interval, optionally collapse same-cell runs into stays and drop
short ones, compute speeds, flag stops (< 4 km/h) and cut each user's
stream at stop records. Every kept point is then tokenized in one column
lookup, and each segment is windowed to the model's max sequence length. Two profiles mirror the two data styles:

  "gps"    — dense GPS logs: resample on, stay filtering off
  "signal" — cell-signal logs: resample off, stay filtering on

Everything is deterministic given (input bytes, config, seed).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .grid import GridSpec, encode_points, finest_cells, project
from .vocab import NUM_SPECIALS, SOS_ID, Vocabulary

MAX_SEQ_LEN = 32  # the model's cap and the window length, SOS included
TIMESTAMP_END = 2**63  # timestamps lie in (0, TIMESTAMP_END): they are int64 columns


@dataclass(slots=True)
class RawRecord:
    """One CSV row, as `RecordColumns[i]` gives it."""

    user_id: str
    timestamp: int  # Unix seconds, in (0, TIMESTAMP_END)
    lat: float
    lon: float
    label: str | None = None


def _codes(values, names: list[str], first: int) -> np.ndarray:
    """Each value's index in `names` plus `first`, or 0 for a value not in it."""
    code = dict(zip(names, range(first, first + len(names))))
    return np.fromiter(map(code.get, values, repeat(0)), dtype=np.int64, count=len(values))


@dataclass(eq=False)
class RecordColumns:
    """Records as columns, in input order.

    `user` codes index `users`, the distinct user ids in sorted (code-point)
    order; `label` codes index `labels`, the distinct non-empty labels in that
    order, from 1, and 0 is no label. `ts` is int64 Unix seconds, `lat` and
    `lon` float64 degrees. `len()` and `[i]` give a view of the rows as
    `RawRecord`s, for callers that want single rows (the benchmark's decode
    check); the pipeline reads the columns.
    """

    user: np.ndarray
    ts: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    label: np.ndarray
    users: list[str]
    labels: list[str]

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i) -> RawRecord:
        code = int(self.label[i])
        return RawRecord(self.users[self.user[i]], int(self.ts[i]), float(self.lat[i]),
                         float(self.lon[i]), self.labels[code - 1] if code else None)

    @classmethod
    def from_lists(cls, user_ids, timestamps, lat, lon, labels) -> RecordColumns:
        """Columns of five equal-length field lists; an empty or None label is
        no label, and a timestamp outside (0, 2^63) raises ValueError."""
        n = len(timestamps)
        try:
            ts = np.array(timestamps, dtype=np.int64)
        except OverflowError:  # past int64, named below
            ts = np.zeros(n, dtype=np.int64)
        if not (ts > 0).all():  # int() as the int64 column truncates
            i = next(i for i, t in enumerate(timestamps) if not 0 < int(t) < TIMESTAMP_END)
            raise ValueError(
                f"timestamp {timestamps[i]} for user {user_ids[i]} is not in (0, 2^63)")
        users = sorted(set(user_ids))
        names = sorted(set(filter(None, labels)))
        return cls(_codes(user_ids, users, 0), ts, np.fromiter(lat, np.float64, n),
                   np.fromiter(lon, np.float64, n), _codes(labels, names, 1), users, names)


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


def _at_least(config, low, *names: str, strict: bool = False):
    """Raise naming the first of `names` below `low` (or equal to it, when `strict`)
    or not finite."""
    for name in names:
        value = getattr(config, name)
        # NaN fails every comparison; an int of any size compares below inf
        if not ((value > low if strict else value >= low) and value < math.inf):
            bound = f"above {low}" if strict else f"at least {low}"
            raise ValueError(f"'{name}' must be finite and {bound}, got {value}")


@dataclass
class PipelineConfig:
    profile: str = "gps"  # "gps" | "signal"
    resample_interval: int = 60
    stop_speed_kmh: float = 4.0
    min_stay_seconds: int = 300
    min_trajectory_records: int = 10
    max_seq_len: int = MAX_SEQ_LEN
    # pretrain share of all trajectories; then train and val shares of the rest
    split_fractions: tuple[float, float, float] = (0.8, 0.8, 0.1)

    def __post_init__(self):
        if self.profile not in ("gps", "signal"):
            raise ValueError(f"'profile' must be one of ('gps', 'signal'), got {self.profile!r}")
        _at_least(self, 1, "resample_interval", "min_trajectory_records")
        if not self.resample_interval < TIMESTAMP_END:  # buckets are int64 arithmetic
            raise ValueError(
                f"'resample_interval' must be below 2^63, got {self.resample_interval}"
            )
        _at_least(self, 0, "stop_speed_kmh", strict=True)
        _at_least(self, 0, "min_stay_seconds")
        _at_least(self, 2, "max_seq_len")
        shares = self.split_fractions
        if (len(shares) != 3 or not all(0 <= f <= 1 for f in shares) or sum(shares[1:]) > 1
                or shares[0] == 1 or shares[1] == 0):
            raise ValueError(
                f"'split_fractions' needs three shares in [0, 1] with pretrain < 1, "
                f"train > 0 and train + val <= 1, got {shares!r}"
            )


# ---------------------------------------------------------------------------
# preprocessing stages, each over all users (the sorted user code column first)
# ---------------------------------------------------------------------------

def resample(user: np.ndarray, ts: np.ndarray, interval: int) -> np.ndarray:
    """Indices of the first timestamp in each of a user's interval-length buckets.

    Buckets are anchored at each user's first timestamp, so timestamps already
    spaced >= interval apart are all kept.
    """
    bucket = (ts - ts[np.searchsorted(user, user)]) // interval
    return np.flatnonzero(np.diff(user, prepend=-1) | np.diff(bucket, prepend=-1))  # either moved


def compute_velocity(
    user: np.ndarray, ts: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Instantaneous speed in km/h at each projected point.

    A point's speed is the step from the point before it, and no step crosses
    users. A user's first point copies its second's speed; a zero time step
    repeats the previous speed. Each step's length is `math.hypot`, so a speed
    at the stop threshold rounds the same way on every platform.
    """
    if (np.bincount(user) == 1).any():
        raise ValueError("velocity needs at least two records per user")
    dt = np.diff(ts)
    dist_m = np.array(list(map(math.hypot, np.diff(x).tolist(), np.diff(y).tolist())))
    speeds = np.zeros(len(ts))
    within = np.diff(user) == 0
    later = (dt > 0) & within
    speeds[1:][later] = (dist_m[later] / dt[later]) * 3.6
    for i in np.flatnonzero(within & ~later).tolist():  # rare: duplicate timestamps
        speeds[i + 1] = speeds[i]
    first = np.flatnonzero(np.diff(user, prepend=-1))
    speeds[first] = speeds[first + 1]
    return speeds


def filter_short_stays(
    user: np.ndarray, ts: np.ndarray, x: np.ndarray, y: np.ndarray, spec: GridSpec,
    min_duration: int,
) -> np.ndarray:
    """Indices of the stays kept: the first point of each same-finest-cell run
    of one user that lasts at least `min_duration` seconds.

    A run lasts from its first to its last timestamp, so a lone point lasts
    zero seconds and is dropped.
    """
    cells = finest_cells(x, y, spec)
    # a run starts at a row whose user or cell differs from the row before
    run = (np.diff(user, prepend=-1) != 0) | np.diff(cells, axis=0, prepend=0).any(axis=1)
    first = np.flatnonzero(run)
    last = np.flatnonzero(np.roll(run, -1))  # row 0 starts a run, so the last row ends one
    return first[ts[last] - ts[first] >= min_duration]


def segment_trajectories(
    user: np.ndarray, stops: np.ndarray, min_len: int
) -> list[tuple[int, int]]:
    """(first, last) indices of the segments cut at stops, both ends inclusive.

    Consecutive segments of a user share their boundary stop. Only segments of
    strictly more than `min_len` points survive; points before a user's first
    stop or after its last are discarded.
    """
    at = np.flatnonzero(stops)
    first, last = at[:-1], at[1:]
    keep = (last - first + 1 > min_len) & (user[first] == user[last])
    return list(zip(first[keep].tolist(), last[keep].tolist()))


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

def _majority_label(codes: np.ndarray, names: list[str]) -> str | None:
    """The most frequent label of a segment, the first in sorted order on a tie.

    `codes` index `names` (the labels in sorted order) from 1; code 0 is no label.
    """
    counts = np.bincount(codes)
    counts[0] = 0
    return names[int(counts.argmax()) - 1] if counts.any() else None


def _sorted_columns(records: RecordColumns):
    """The columns sorted by user and then time, stably, so equal timestamps
    keep their input order: (user code, timestamp, lat, lon, label code), plus
    the sorted distinct users and labels that the codes index."""
    order = np.lexsort((records.ts, records.user))
    return (*(c[order] for c in (records.user, records.ts, records.lat, records.lon,
                                 records.label)), records.users, records.labels)


def preprocess(
    records: RecordColumns, vocab: Vocabulary, cfg: PipelineConfig
) -> list[Trajectory]:
    """Run the full pipeline and return windowed tokenized trajectories.

    `records` are columns, from `read_csv`, `synth.generate_records` or
    `RecordColumns.from_lists`. Points are projected with `vocab.spec.ref_lat`,
    the projection the vocabulary's cells were built with. Each stage runs once
    over all users' rows, sorted by user and stably by time. A user left with
    fewer than two rows has no speed and is dropped.
    The points of every segment are tokenized together at the end; an unseen
    key raises OutOfVocabularyError for the first such point in user and time order.
    """
    user, ts, lat, lon, label, users, names = _sorted_columns(records)
    x, y = project(lat, lon, vocab.spec.ref_lat)
    rows = (resample(user, ts, cfg.resample_interval) if cfg.profile == "gps"
            else filter_short_stays(user, ts, x, y, vocab.spec, cfg.min_stay_seconds))
    rows = rows[np.bincount(user[rows])[user[rows]] > 1]  # users with two rows or more
    u = user[rows]
    stops = compute_velocity(u, ts[rows], x[rows], y[rows]) < cfg.stop_speed_kmh
    cuts = segment_trajectories(u, stops, cfg.min_trajectory_records)
    segments = [rows[a : b + 1] for a, b in cuts]
    kept = np.concatenate(segments) if segments else np.zeros(0, int)
    ids = vocab.ids_for(encode_points(x[kept], y[kept], vocab.spec))
    trajs: list[Trajectory] = []
    start = 0
    for seg in segments:
        stamps = ts[seg].tolist()
        traj = Trajectory(
            user=users[user[seg[0]]],
            ids=[vocab.sos_tuple()] + list(map(tuple, ids[start : start + len(seg)].tolist())),
            timestamps=stamps[:1] + stamps,
            label=_majority_label(label[seg], names),
        )
        trajs.extend(window(traj, cfg.max_seq_len))
        start += len(seg)
    return trajs


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("user_id", "timestamp", "lat", "lon")


@contextmanager
def _decode_errors_named(path):
    """Re-raise a UnicodeDecodeError from reading `path` in the block as a
    ValueError naming the file and the line of its first byte that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = data.count(b"\n", 0, e.start) + 1
            raise ValueError(f"{path}, line {line}: not UTF-8 ({e.reason})") from None
        raise


def read_csv(path) -> RecordColumns:
    """Read `user_id,timestamp,lat,lon[,label]` rows (UTF-8, with header) as columns.

    The header names the columns, in any order and among any others. A row
    that lacks one of the four columns, whose timestamp is not an integer in
    (0, 2^63), or whose lat or lon is not a number in [-90, 90] or
    [-180, 180] raises ValueError naming the file, the line and the field.
    Blank lines are skipped, and an empty or missing label is no label.

    The file is read as `csv.reader` splits it and `int` and `float` parse
    its fields. One vectorised pass (`_parse_columns`: numpy's `loadtxt` for
    the numbers, byte offsets for the strings) reads every file it can read
    exactly so; the rest, and every file with a fault, go to the row scan
    (`_scan_rows`), which reads them or names the fault.
    """
    with open(path, "rb") as f:
        data = f.read()
    columns = _parse_columns(data)
    return _scan_rows(path) if columns is None else columns


def _scan_rows(path) -> RecordColumns:
    """`read_csv` row by row, with `csv.reader`: the reader of every file the
    vectorised pass leaves, and of every fault's line and field."""
    lists = ([], [], [], [], [])
    with _decode_errors_named(path), open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or any(header.count(c) != 1 for c in CSV_COLUMNS):
            raise ValueError(
                f"{path}: CSV must have each of the columns {list(CSV_COLUMNS)} once, got {header}"
            )
        cols = [header.index(c) for c in CSV_COLUMNS]
        iu, it, ilat, ilon = cols
        il = header.index("label") if "label" in header else None
        for row in reader:
            if not row:  # a blank line
                continue
            try:
                user, ts, lat, lon = row[iu], int(row[it]), float(row[ilat]), float(row[ilon])
                ok = 0 < ts < TIMESTAMP_END and -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0
            except (IndexError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"{path}, line {reader.line_num}: {_row_fault(row, cols)}")
            label = row[il] if il is not None and il < len(row) else None
            for values, value in zip(lists, (user, ts, lat, lon, label)):
                values.append(value)
    return RecordColumns.from_lists(*lists)


def _row_fault(row: list[str], cols: list[int]) -> str:
    """Name the first missing or malformed field of a rejected CSV row."""
    for name, i in zip(CSV_COLUMNS, cols):
        if i >= len(row):
            return f"no '{name}' field (the row has {len(row)} fields)"
    for name, i, parse, in_range, want in (
        ("timestamp", cols[1], int, lambda v: 0 < v < TIMESTAMP_END, "an integer in (0, 2^63)"),
        ("lat", cols[2], float, lambda v: -90.0 <= v <= 90.0, "a number in [-90, 90]"),
        ("lon", cols[3], float, lambda v: -180.0 <= v <= 180.0, "a number in [-180, 180]"),
    ):
        try:
            ok = in_range(parse(row[i]))
        except ValueError:
            ok = False
        if not ok:
            return f"'{name}' {row[i]!r} is not {want}"
    return f"malformed row {row!r}"


_NUMBERS = np.dtype([("ts", np.int64), ("lat", np.float64), ("lon", np.float64)])
# _LOW_BYTES[n] keeps the first n bytes of a little-endian uint64, n <= 8
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _parse_columns(data: bytes) -> RecordColumns | None:
    """`read_csv`'s columns of the file's bytes in one vectorised pass, or None
    where only the row scan reads the file as `csv.reader`, `int` and `float` do.

    It returns None for a file that holds a quote character or a control
    byte other than the newline (so a CR line end, a NUL, or a whitespace
    byte that numpy strips from a number and `int` does not), is not UTF-8,
    has a header without each of the four columns once, has no row, has a
    line longer than `csv.field_size_limit()`, or has a row whose field
    count differs from the header's (a row without its trailing label among
    them); and for one with a timestamp, lat or lon that is not ASCII, that
    numpy does not parse, or that is out of range. On what is left a field
    is the text between two commas, as `csv.reader` reads it, and numpy's
    parsers accept a number only where `int` and `float` do, with the same
    value: both strip spaces, numpy takes no underscore, and its float parser
    is the one `float` calls.

    The string columns are read first, from byte offsets, so that the
    offsets are freed before numpy parses the numbers: at its peak the pass
    holds the file's bytes and about fifteen int64s a row (≈160 bytes a row
    on the synth corpus, where a list of `RawRecord`s holds ≈250).
    """
    if b'"' in data:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    if np.count_nonzero(buf < 0x20) != len(newlines):  # another control byte
        return None
    try:
        header = data.partition(b"\n")[0].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if any(header.count(c) != 1 for c in CSV_COLUMNS):
        return None
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, len(buf))
    if (ends - starts).max() > csv.field_size_limit():
        return None
    rows = np.flatnonzero(ends[1:] > starts[1:]) + 1  # after the header, blank lines out
    starts, ends, n = starts[rows], ends[rows], len(rows)
    # the header holds the first k commas, and each row must hold the next k
    k = len(header) - 1
    commas = np.flatnonzero(buf == ord(","))
    if not n or len(commas) != k * (n + 1):
        return None
    inner = commas[k:].reshape(n, k)
    if not ((inner[:, 0] >= starts).all() and (inner[:, -1] < ends).all()):
        return None
    numeric = [header.index(c) for c in CSV_COLUMNS[1:]]
    if not data.isascii():  # non-ASCII bytes may stand in string fields only
        at = np.flatnonzero(buf[starts[0]:] >= 0x80) + starts[0]
        row = np.searchsorted(starts, at, side="right") - 1
        if np.isin(np.searchsorted(commas, at) - k * (row + 1), numeric).any():
            return None

    def strings(name, first):  # the codes of column `name` and its values
        if name not in header:
            return np.zeros(n, dtype=np.int64), []
        j = header.index(name)
        left = starts if j == 0 else inner[:, j - 1] + 1
        return _coded_runs(data, left, inner[:, j] if j < k else ends, first)

    try:
        (user, users), (label, labels) = strings("user_id", 0), strings("label", 1)
    except UnicodeDecodeError:
        return None
    del starts, ends, commas, inner, newlines, rows
    # the file again as lines of text, of which the header is skipped
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n") as lines:
            numbers = np.loadtxt(lines, dtype=_NUMBERS, delimiter=",", comments=None,
                                 skiprows=1, usecols=numeric, ndmin=1)
    except ValueError:  # a number numpy does not parse, or bytes that are not UTF-8
        return None
    ts, lat, lon = (np.ascontiguousarray(numbers[name]) for name in _NUMBERS.names)
    if not (len(ts) == n and (ts > 0).all() and ((-90.0 <= lat) & (lat <= 90.0)).all()
            and ((-180.0 <= lon) & (lon <= 180.0)).all()):
        return None
    return RecordColumns(user, ts, lat, lon, label, users, labels)


def _coded_runs(data: bytes, left: np.ndarray, right: np.ndarray, first: int):
    """Codes of the UTF-8 fields `data[left[i]:right[i]]` into their sorted
    distinct values, from `first`, and those values; with `first` 1 an empty
    field is code 0 and no value. `data` is at least 8 bytes long.

    A field starts a run where its bytes differ from the field before's, and
    only the runs' first fields are decoded, so a column that repeats its
    values in runs, as a user's rows do, costs one string per run. Fields
    compare by length and first 8 bytes at once, and byte by byte past them.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    size = right - left
    words = np.ndarray(len(buf) - 7, dtype="<u8", buffer=data, strides=(1,))  # 8 bytes from each
    at = np.minimum(left, len(buf) - 8)  # a field in the last 8 bytes: shift its word down
    key = (words[at] >> (8 * (left - at)).astype(np.uint64)) & _LOW_BYTES[np.minimum(size, 8)]
    same = np.zeros(len(left), dtype=bool)
    same[1:] = (size[1:] == size[:-1]) & (key[1:] == key[:-1])
    longer = np.flatnonzero(same & (size > 8))
    if len(longer):  # compare bytes 8 onwards of the fields longer than 8 bytes
        rest = size[longer] - 8
        owner = np.repeat(np.arange(len(longer)), rest)
        at = np.arange(rest.sum()) - np.repeat(np.cumsum(rest) - rest - left[longer] - 8, rest)
        back = at - np.repeat(left[longer] - left[longer - 1], rest)
        same[longer[owner[buf[at] != buf[back]]]] = False
    heads = np.flatnonzero(~same)
    values = [data[a:b].decode("utf-8") for a, b in zip(left[heads].tolist(),
                                                       right[heads].tolist())]
    names = sorted(set(filter(None, values) if first else values))
    return np.repeat(_codes(values, names, first), np.diff(heads, append=len(left))), names


def iter_csv_points(path, ref_lat: float) -> np.ndarray:
    """Projected (x, y) of every CSV record in file order, as an array [N, 2]
    (vocabulary building)."""
    records = read_csv(path)
    x, y = project(records.lat, records.lon, ref_lat)
    return np.stack([x, y], axis=1)


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


def read_trajectories(path, level_sizes=None, max_seq_len=None) -> list[Trajectory]:
    """Read `write_trajectories`'s NDJSON as untrusted input.

    A line that is not an object with `user`, `ids` and `ts`, whose `user` is
    not a string, whose `ids` and `ts` differ in length, that holds no
    location after the SOS tuple, whose id tuples are not non-negative ints
    (not bools) of the file's one width, whose first tuple is not all SOS or
    whose later tuples hold a special id (SOS or PAD), whose `ts` holds
    anything but finite numbers > 0, or whose `label` is neither a string nor
    null raises ValueError naming the file and the line; so do bytes that are
    not UTF-8. Given `level_sizes`, every id must also lie below its
    level's size, and given `max_seq_len`, no line may hold more positions.
    The id and timestamp checks run once, vectorised, over the whole file; a
    line-by-line scan runs only to name the line of a fault.
    """
    trajs, line_of = [], []
    with _decode_errors_named(path), open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError as e:  # not JSON, or an int past Python's digit limit
                raise ValueError(f"{path}, line {lineno}: not JSON ({e})") from None
            if not (isinstance(doc, dict) and "user" in doc and "ids" in doc and "ts" in doc):
                raise ValueError(
                    f"{path}, line {lineno}: needs an object with 'user', 'ids' and 'ts'"
                )
            if not isinstance(doc["user"], str):
                raise ValueError(f"{path}, line {lineno}: 'user' {doc['user']!r} is not a string")
            ids, ts = doc["ids"], doc["ts"]
            if not (isinstance(ids, list) and isinstance(ts, list) and len(ids) == len(ts)
                    and all(isinstance(tup, list) for tup in ids)):
                raise ValueError(
                    f"{path}, line {lineno}: 'ids' (a list of id lists) and 'ts' must be "
                    f"lists of one length"
                )
            if len(ids) < 2:
                raise ValueError(f"{path}, line {lineno}: no location after the SOS tuple")
            if max_seq_len is not None and len(ids) > max_seq_len:
                raise ValueError(
                    f"{path}, line {lineno}: {len(ids)} positions exceed max_seq_len {max_seq_len}"
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
    `level_sizes` is given; each line's first tuple is all SOS and no later
    tuple holds a special id."""
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
            if any(not tup or len(tup) != width or not all(type(i) is int for i in tup)
                   for tup in t.ids):
                raise ValueError(f"{path}, line {lineno}: each id tuple must hold "
                                 f"{width or 'one or more'} ints")
            for tup in t.ids:  # an int numpy cannot hold as int64
                for level, value in enumerate(tup):
                    if not -(2**63) <= value < 2**63:
                        upper = "inf" if level_sizes is None else level_sizes[level]
                        raise ValueError(f"{path}, line {lineno}: id {value} at level "
                                         f"{level + 1} is outside [0, {upper})")
        raise AssertionError("every row that numpy cannot hold as int64 fails a check above")
    starts = np.cumsum([0] + [len(t.ids) for t in trajs[:-1]])  # each line's SOS row
    bad = ids < NUM_SPECIALS  # a negative or special id after the SOS row
    bad[starts] = ids[starts] != SOS_ID
    if level_sizes is not None:
        bad |= ids >= np.asarray(level_sizes)
    if bad.any():
        row, level = np.argwhere(bad)[0]
        at = int(np.searchsorted(starts, row, side="right")) - 1
        lineno, value = line_of[at], ids[row, level]
        if value < 0 or (level_sizes is not None and value >= level_sizes[level]):
            upper = "inf" if level_sizes is None else level_sizes[level]
            raise ValueError(
                f"{path}, line {lineno}: id {value} at level {level + 1} is outside [0, {upper})"
            )
        if row == starts[at]:
            raise ValueError(
                f"{path}, line {lineno}: first tuple {ids[row].tolist()} is not all SOS"
            )
        raise ValueError(
            f"{path}, line {lineno}: tuple {ids[row].tolist()} after the first holds a special "
            f"id (SOS or PAD)"
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
