"""Preprocessing rules: resampling, speeds, stops, stays, segments, windows."""

import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoseq import pipeline
from geoseq.grid import EARTH_RADIUS_M, GridError, GridSpec, project
from geoseq.pipeline import (
    PipelineConfig,
    RawRecord,
    RecordColumns,
    Trajectory,
    compute_velocity,
    filter_short_stays,
    preprocess,
    read_csv,
    read_trajectories,
    resample,
    segment_trajectories,
    split,
    window,
    write_trajectories,
)
from geoseq.vocab import SOS_ID, OutOfVocabularyError, build_vocab

from grid_oracle import OracleUnseenKey, doc_maps, oracle_finest_cell, oracle_ids

SPEC = GridSpec((1_000.0, 100.0))


def one_user(n):
    """The user code column of n rows of one user."""
    return np.zeros(n, dtype=np.int64)


def cols(*points):
    """(user, ts, x, y) columns of one user's (ts, x, y) points."""
    ts, x, y = zip(*points)
    return (one_user(len(ts)), np.array(ts, dtype=np.int64), np.array(x, dtype=float),
            np.array(y, dtype=float))


def columns(rows: list[RawRecord]) -> RecordColumns:
    """`preprocess`'s columns of hand-built rows."""
    return RecordColumns.from_lists(
        *zip(*((r.user_id, r.timestamp, r.lat, r.lon, r.label) for r in rows)))


def stops_at(n, *at):
    return np.isin(np.arange(n), at)


# -- resampling ---------------------------------------------------------------

def test_resample_keeps_first_per_bucket():
    ts = np.array([1000, 1010, 1020, 1070])
    assert ts[resample(one_user(4), ts, 60)].tolist() == [1000, 1070]


def test_resample_empty():
    assert resample(one_user(0), np.array([], dtype=np.int64), 60).tolist() == []


def test_resample_sparse_input_unchanged():
    ts = np.array([1, 61, 181, 241])  # all >= 60 s apart
    assert resample(one_user(4), ts, 60).tolist() == [0, 1, 2, 3]


# -- velocity and stops -------------------------------------------------------

def test_velocity_50m_per_minute():
    speeds = compute_velocity(*cols((60, 0, 0), (120, 50, 0)))
    assert speeds[1] == pytest.approx(3.0)
    assert speeds[0] == pytest.approx(3.0)  # first copies second


def test_velocity_200m_per_minute():
    speeds = compute_velocity(*cols((60, 0, 0), (120, 0, 200)))
    assert speeds[1] == pytest.approx(12.0)


def test_velocity_identical_points():
    speeds = compute_velocity(*cols((60, 5, 5), (120, 5, 5)))
    assert speeds[1] == 0.0


def test_velocity_duplicate_timestamp_flagged():
    speeds = compute_velocity(*cols((60, 0, 0), (120, 50, 0), (120, 999, 0)))
    assert speeds[2] == speeds[1]


def test_velocity_needs_two_records():
    with pytest.raises(ValueError):
        compute_velocity(*cols((60, 0, 0)))


def test_stop_threshold_is_strict():
    # one user moving east, slow, fast, then at the threshold, which is set to
    # the speed of the point at index 3, so that point is no stop: stops at 0,
    # 1, 4 and 5 give segments [0, 1], [1, 4] and [4, 5] (a threshold that
    # counted it would cut [1, 4] in two)
    lons = [0.0, 0.0004, 0.0044, 0.0054, 0.0058, 0.0062]
    records = [RawRecord("u", 60 * (i + 1), 0.0, lon, None) for i, lon in enumerate(lons)]
    ts = np.array([r.timestamp for r in records])
    x, y = project([r.lat for r in records], [r.lon for r in records], 0.0)
    speeds = compute_velocity(one_user(len(ts)), ts, x, y)
    threshold = float(speeds[3])
    assert (speeds < threshold).tolist() == [True, True, False, False, True, True]
    vocab = build_vocab(zip(x.tolist(), y.tolist()), SPEC)
    cfg = PipelineConfig(stop_speed_kmh=threshold, min_trajectory_records=1)
    assert [t.length for t in preprocess(columns(records), vocab, cfg)] == [2, 4, 2]


# -- stay filtering -----------------------------------------------------------

def test_stay_spanning_600s_kept_as_one():
    user, ts, x, y = cols(*[(t, 10, 10) for t in (100, 400, 700)])  # same 100 m cell
    kept = filter_short_stays(user, ts, x, y, SPEC, 300)
    assert len(kept) == 1
    assert ts[kept[0]] == 100


def test_short_stay_dropped():
    user, ts, x, y = cols((100, 10, 10), (220, 10, 10))  # 120 s in one cell
    assert filter_short_stays(user, ts, x, y, SPEC, 300).tolist() == []


def test_single_record_stay_dropped():
    assert filter_short_stays(*cols((100, 10, 10)), SPEC, 300).tolist() == []


def test_stays_split_by_cell_change():
    user, ts, x, y = cols((100, 10, 10), (500, 10, 10), (600, 250, 10), (1000, 250, 10))
    kept = filter_short_stays(user, ts, x, y, SPEC, 300)
    assert ts[kept].tolist() == [100, 600]


# -- segmentation -------------------------------------------------------------

def test_segment_between_boundary_stops():
    segments = segment_trajectories(one_user(25), stops_at(25, 0, 24), 10)
    assert len(segments) == 1
    first, last = segments[0]
    assert last - first + 1 == 25


def test_segment_shorter_than_threshold_discarded():
    # 8 records between and including two stops: 8 <= 10 so it goes
    assert segment_trajectories(one_user(8), stops_at(8, 0, 7), 10) == []


def test_no_stops_no_segments():
    assert segment_trajectories(one_user(50), np.zeros(50, dtype=bool), 10) == []


def test_segments_partition_between_first_and_last_stop():
    rng = np.random.default_rng(0)
    stops = rng.random(200) < 0.2
    segments = segment_trajectories(one_user(200), stops, min_len=0)
    at = np.flatnonzero(stops).tolist()
    if len(at) >= 2:
        inner = []
        for first, last in segments:
            assert stops[first] and stops[last]
            inner.extend(range(first, last))  # drop the shared right boundary
        assert inner + [at[-1]] == list(range(at[0], at[-1] + 1))


# -- windowing ----------------------------------------------------------------

def _traj(n_real, sos=(0, 0)):
    ids = [sos] + [(2 + i, 2) for i in range(n_real)]
    ts = [1000] + [1000 + 60 * i for i in range(n_real)]
    return Trajectory(user="u", ids=ids, timestamps=ts, label="L")


def test_window_62_real_locations():
    chunks = window(_traj(62), 32)
    assert [c.length for c in chunks] == [31, 31]
    for c in chunks:
        assert c.ids[0] == (0, 0)
        assert c.timestamps[0] == c.timestamps[1]
        assert c.label == "L"


def test_window_short_trajectory_single_chunk():
    chunks = window(_traj(5), 32)
    assert [c.length for c in chunks] == [5]


def test_window_exact_boundary():
    assert [c.length for c in window(_traj(31), 32)] == [31]


def test_window_drops_trailing_singleton():
    assert [c.length for c in window(_traj(32), 32)] == [31]


# -- splitting ----------------------------------------------------------------

def test_split_proportions_100():
    s = split(100, seed=0)
    assert len(s.pretrain) == 80
    assert len(s.finetune_train) == 16
    assert len(s.finetune_val) == 2
    assert len(s.finetune_test) == 2
    all_ids = s.pretrain + s.finetune_train + s.finetune_val + s.finetune_test
    assert sorted(all_ids) == list(range(100))


def test_split_deterministic_by_seed():
    assert split(100, seed=5) == split(100, seed=5)


def test_split_differs_across_seeds():
    assert split(100, seed=1).pretrain != split(100, seed=2).pretrain


@pytest.mark.parametrize("shares", [(1.5, 0.8, 0.1), (0.8, 0.8)], ids=["over_1", "two"])
def test_pipeline_config_rejects_bad_split_fractions(shares):
    with pytest.raises(ValueError, match="'split_fractions'"):
        PipelineConfig(split_fractions=shares)


def test_split_rejects_tiny_datasets():
    with pytest.raises(ValueError):
        split(9, seed=0)


# -- file formats and end-to-end ----------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(
        "user_id,timestamp,lat,lon,label\n"
        "a,1000,1.5,2.5,walk\n"
        "a,1060,1.6,2.6,\n",
        encoding="utf-8",
    )
    records = read_csv(path)
    assert len(records) == 2
    assert records[0].label == "walk"
    assert records[1].label is None


def test_csv_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,when\nx,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csv(path)


def test_csv_header_naming_a_column_twice(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,timestamp,lat,lon,lat\nx,1,2,3,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="CSV must have each of the columns"):
        read_csv(path)


def test_csv_reads_columns_by_header_position(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("lon,lat,timestamp,user_id\n2.5,1.5,1000,a\n\n2.6,1.6,1060,b\n", encoding="utf-8")
    assert list(read_csv(path)) == [RawRecord("a", 1000, 1.5, 2.5, None),
                              RawRecord("b", 1060, 1.6, 2.6, None)]
    path.write_text("lon,lat,timestamp,user_id\n2.5,1.5,1000\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: no 'user_id' field"):
        read_csv(path)


# Fields that `int`/`float` and numpy both read, to the same value, and that
# `csv.reader` reads as the text between two commas
_PLAIN_FIELDS = {
    "user_id": ["u1", "u2", "ü", "用户", "a b", "", "#x", "u\u2028v", "x\x85y",
                "a-user-id-of-20-byte", "a-user-id", "a-user-i"],
    "timestamp": ["1000", "1600000000", "+5", " 12", "12 ", "0012", "9223372036854775807"],
    "lat": ["1.5", "-90", "90.0", " 2.25 ", "+.5e-3", "5.", "-0.0", "1e-400"],
    "lon": ["2.5", "-180", "180.0", "0", "1E2", "-179.9999999"],
    "label": ["walk", "bus", "", "ü"],
    "note": ["", "x", "#"],
}
# Fields that one of them rejects or reads otherwise, or that the vectorised
# pass leaves to the row scan
_ROUGH_FIELDS = {
    "user_id": ['"a,b"', '"q"', 'a"b', "\t", "x\x00y", "\x1c"],
    "timestamp": ["1_000", "١٢", "1e400", "nan", "-0", "0x10", "0", "12.0", "", "\t12", "\x1c12",
                  "Ǿ12", "9223372036854775808", "１２", "-5"],
    "lat": ["1_0.5", "١.٥", "1e400", "nan", "0x10", "inf", "90.0000001", "1e", "\xa01.5",
            "\x1c1.5", "", "north", "-0"],
    "lon": ["-180.5", "0x10", "NaN", "1_000", "+inf", "1.5\x1f"],
    "label": ['"w,x"'],
    "note": ['"1,2"', "\x0b"],
}


@st.composite
def csv_files(draw):
    """(A CSV file's bytes, whether it is rough.) The file has a header naming
    the four columns, maybe `label` and `note`, in any order; then rows, blank
    lines among them. A rough file has one kind of roughness, or now and then
    each of them: one field of `_ROUGH_FIELDS`, a row without its trailing
    label or with an extra field, CRLF line ends, a BOM, or a byte that is
    not UTF-8."""
    extra = draw(st.lists(st.sampled_from(["label", "note"]), unique=True))
    header = draw(st.permutations(list(pipeline.CSV_COLUMNS) + extra))
    kind = draw(st.sampled_from([None] * 3 + ["field"] * 2
                                + ["short", "long", "crlf", "bom", "utf8", "mixed"]))
    rough = lambda name, odds=8: kind == name or (kind == "mixed"
                                                  and draw(st.integers(0, odds - 1)) == 0)
    rows = [[draw(st.sampled_from(_ROUGH_FIELDS[c] if rough("fields", 12) else _PLAIN_FIELDS[c]))
             for c in header] if draw(st.integers(0, 5)) else []  # a blank line
            for _ in range(draw(st.integers(0, 6)))]
    full = [row for row in rows if row]
    if full and kind == "field":
        row, j = draw(st.sampled_from(full)), draw(st.integers(0, len(header) - 1))
        row[j] = draw(st.sampled_from(_ROUGH_FIELDS[header[j]]))
    for row in full:
        if rough("short") and header[-1] == "label":
            row.pop()
        elif rough("long"):
            row.append("extra")
    end = "\r\n" if rough("crlf", 4) else "\n"
    text = end.join(map(",".join, [header] + rows)) + draw(st.sampled_from(["", end]))
    data = (("\ufeff" if rough("bom", 4) else "") + text).encode("utf-8")
    if rough("utf8", 4):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, kind is not None


def _assert_same_columns(got, want):
    for name in ("user", "ts", "lat", "lon", "label"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.users == want.users and got.labels == want.labels


@settings(max_examples=400, deadline=None)
@given(file=csv_files())
def test_read_csv_reads_every_file_as_the_row_scan_does(tmp_path_factory, file):
    data, rough = file
    path = tmp_path_factory.getbasetemp() / "in.csv"  # rewritten by each example
    path.write_bytes(data)
    fast = pipeline._parse_columns(data)
    try:
        want = pipeline._scan_rows(path)
    except ValueError as e:
        assert fast is None  # the vectorised pass accepts no file with a fault
        assert str(e).startswith(f"{path}")
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value) == str(e)
        return
    _assert_same_columns(read_csv(path), want)
    assert fast is not None or rough or not len(want)  # it reads every plain file with a row
    if fast is not None:
        _assert_same_columns(fast, want)


def test_the_vectorised_pass_reads_plain_files_without_the_row_scan(tmp_path, monkeypatch):
    def scan(path):
        raise AssertionError(f"the row scan read {path}")

    monkeypatch.setattr(pipeline, "_scan_rows", scan)
    path = tmp_path / "in.csv"
    path.write_text("note,lon,user_id,lat,timestamp,label\n"
                    "#,2.5,用户,1.5, 12,walk\n\n"
                    ",+2.6,a-user-id-of-20-byte,-0.0,0012,\n"
                    "x,1E2,a-user-id-of-20-bytf,90, 12 ,walk\n", encoding="utf-8")
    assert list(read_csv(path)) == [RawRecord("用户", 12, 1.5, 2.5, "walk"),
                                    RawRecord("a-user-id-of-20-byte", 12, -0.0, 2.6, None),
                                    RawRecord("a-user-id-of-20-bytf", 12, 90.0, 100.0, "walk")]
    path.write_text("user_id,timestamp,lat,lon\nb,7,1,2\na,8,3,4\nb,9,5,6", encoding="utf-8")
    got = read_csv(path)
    assert got.users == ["a", "b"] and got.user.tolist() == [1, 0, 1] and got.labels == []
    assert got.label.tolist() == [0, 0, 0]
    # runs of user ids: equal in their first 8 bytes but not in length, equal
    # in length and first 8 bytes but not after, empty, and in the file's
    # last 8 bytes, after the digits "12" of a lon and a user id "12"
    users = ["abcdefghi", "abcdefgh", "abcdefgh", "abcdefghij", "abcdefghik", "ab", "ab", "",
             "", "abcdefghik", "12"]
    path.write_text("timestamp,lat,lon,user_id\n" + "".join(f"5,1,2,{u}\n" for u in users)
                    + "5,1,123.5,ab", encoding="utf-8")
    got = read_csv(path)
    assert [got.users[code] for code in got.user] == users + ["ab"]
    assert got.users == sorted(set(users))


@pytest.mark.parametrize("body", [
    '"u1",1000,1.5,2.5,walk\n',       # a quoted field
    "u1,1000,1.5,2.5,walk\r\n",       # a CR line end
    "u1,1000,1.5,2.5\n",              # a row without its trailing label
    "u1,1000,1.5,2.5,walk,extra\n",   # a row with a field past the header's
    "u1,1_000,1.5,2.5,walk\n",        # a number only `int` reads
])
def test_the_row_scan_reads_what_the_vectorised_pass_leaves(tmp_path, body):
    path = tmp_path / "in.csv"
    path.write_bytes(b"user_id,timestamp,lat,lon,label\n" + body.encode("utf-8"))
    assert pipeline._parse_columns(path.read_bytes()) is None
    assert list(read_csv(path)) == [RawRecord("u1", 1000, 1.5, 2.5, "walk" if "walk" in body
                                              else None)]


@pytest.mark.parametrize("body, fault", [
    ("u1,Ǿ12,1.5,2.5,walk\n", "'timestamp' 'Ǿ12'"),  # numpy's int parser reads 46212
    ("u1,-5,1.5,2.5,walk\n", "'timestamp' '-5'"),
    ("u1,1000,90.5,2.5,walk\n", "'lat' '90.5'"),
    ("u1,1000,1.5,1e400,walk\n", "'lon' '1e400'"),
])
def test_a_field_the_vectorised_pass_cannot_take_goes_to_the_row_scan(tmp_path, body, fault):
    path = tmp_path / "in.csv"
    path.write_bytes(b"user_id,timestamp,lat,lon,label\n" + body.encode("utf-8"))
    assert pipeline._parse_columns(path.read_bytes()) is None
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value).startswith(f"{path}, line 2: {fault} is not ")


def test_a_line_past_the_csv_field_size_limit_goes_to_the_row_scan(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("user_id,timestamp,lat,lon\nu1,1000,1.5,2.5\n", encoding="utf-8")
    limit = csv.field_size_limit(6)  # below the header's "user_id"
    try:
        assert pipeline._parse_columns(path.read_bytes()) is None
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_csv(path)
    finally:
        csv.field_size_limit(limit)


def test_trajectory_ndjson_round_trip(tmp_path):
    trajs = [_traj(4), _traj(7)]
    path = tmp_path / "t.ndjson"
    write_trajectories(trajs, path)
    back = read_trajectories(path)
    assert back == trajs


@pytest.mark.parametrize("line, message", [
    ('{"user": "u", "ids": [[0], [' + "9" * 4301 + '], "ts": [1, 1]}', "not JSON"),
    ('{"user": "u", "ids": [[], []], "ts": [1, 1]}', "each id tuple must hold one or more ints"),
], ids=["int_past_the_digit_limit", "empty_tuples"])
def test_trajectory_line_past_json_or_numpy_names_file_and_line(tmp_path, line, message):
    # json.loads raises a plain ValueError for an int of more than 4300 digits,
    # and numpy reads a file of empty id tuples as a float array of width 0
    path = tmp_path / "t.ndjson"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_trajectories(path)
    assert str(err.value).startswith(f"{path}, line 2: {message}")


def test_preprocess_gps_profile_end_to_end():
    # one user: dwell (stops), move burst of 12, dwell again
    records = []
    t = 1_000
    for i in range(5):
        records.append(RawRecord("u1", t, 0.0001 * 0, 0.0, None))
        t += 60
    for i in range(12):
        records.append(RawRecord("u1", t, 0.003 * (i + 1), 0.0, None))
        t += 60
    for i in range(5):
        records.append(RawRecord("u1", t, 0.003 * 12, 0.0001, None))
        t += 60
    from geoseq.grid import project

    pts = [project(r.lat, r.lon, 0.0) for r in records]
    vocab = build_vocab(pts, GridSpec((100_000.0, 1_000.0, 100.0)))
    trajs = preprocess(columns(records), vocab, PipelineConfig(profile="gps"))
    assert len(trajs) == 1
    # stop + 12 moves + stop = 14 records > 10
    assert trajs[0].length == 14
    assert trajs[0].ids[0] == vocab.sos_tuple()
    assert trajs[0].timestamps[0] == trajs[0].timestamps[1]
    # emitted trajectories carry no padding and the start tuple only at 0
    for t in trajs:
        assert all(1 not in tup for tup in t.ids[1:])
        assert all(tup != vocab.sos_tuple() for tup in t.ids[1:])
        assert t.timestamps == sorted(t.timestamps)


def test_preprocess_rejects_nonpositive_timestamps():
    records = [RawRecord("u", 0, 0.0, 0.0, None)]
    vocab = build_vocab([(0.0, 0.0)], GridSpec((100_000.0, 1_000.0, 100.0)))
    with pytest.raises(ValueError):
        preprocess(columns(records), vocab, PipelineConfig())


# -- the column stages equal the record loops they replaced ---------------------
#
# The oracle is the per-record pipeline as it stood before the stages became
# functions over columns: each record carried x, y, speed_kmh and is_stop,
# and each stage wrote them.

@dataclass
class OracleRecord:
    user_id: str
    timestamp: int
    lat: float
    lon: float
    label: str | None = None
    x: float = 0.0
    y: float = 0.0
    speed_kmh: float = 0.0
    is_stop: bool = False


def oracle_project(lat, lon, ref_lat):
    if not (-90.0 <= lat <= 90.0):
        raise GridError(f"latitude out of range: {lat}")
    if not (-180.0 <= lon <= 180.0):
        raise GridError(f"longitude out of range: {lon}")
    x = EARTH_RADIUS_M * math.radians(lon) * math.cos(math.radians(ref_lat))
    y = EARTH_RADIUS_M * math.radians(lat)
    return x, y


def oracle_resample(records, interval):
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


def oracle_compute_velocity(records):
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


def oracle_mark_stops(records, threshold_kmh):
    for r in records:
        r.is_stop = r.speed_kmh < threshold_kmh
    return records


def oracle_filter_short_stays(records, spec, min_duration):
    def cell(r):
        return oracle_finest_cell(r.x, r.y, spec.scales, spec.origin)

    kept = []
    i = 0
    while i < len(records):
        j = i
        while j + 1 < len(records) and cell(records[j + 1]) == cell(records[i]):
            j += 1
        if records[j].timestamp - records[i].timestamp >= min_duration:
            kept.append(records[i])
        i = j + 1
    return kept


def oracle_segment_trajectories(records, min_len):
    stop_idx = [i for i, r in enumerate(records) if r.is_stop]
    return [records[a : b + 1] for a, b in zip(stop_idx, stop_idx[1:]) if b - a + 1 > min_len]


def oracle_majority_label(records):
    counts = {}
    for r in records:
        if r.label:
            counts[r.label] = counts.get(r.label, 0) + 1
    if not counts:
        return None
    best = max(counts.values())
    return sorted(k for k, v in counts.items() if v == best)[0]


def oracle_marked_users(records, vocab, cfg):
    """Each user's records as they reach segmentation, with stops marked, in
    sorted user order."""
    by_user = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(OracleRecord(r.user_id, r.timestamp, r.lat, r.lon, r.label))
    marked = {}
    for user in sorted(by_user):
        rs = sorted(by_user[user], key=lambda r: r.timestamp)
        if cfg.profile == "gps":
            rs = oracle_resample(rs, cfg.resample_interval)
        for r in rs:
            r.x, r.y = oracle_project(r.lat, r.lon, vocab.spec.ref_lat)
        if cfg.profile == "signal":
            rs = oracle_filter_short_stays(rs, vocab.spec, cfg.min_stay_seconds)
        if len(rs) < 2:
            continue
        oracle_compute_velocity(rs)
        marked[user] = oracle_mark_stops(rs, cfg.stop_speed_kmh)
    return marked


def oracle_preprocess(records, vocab, cfg):
    """The record loop's windows; an unseen key raises OracleUnseenKey(level, key)
    for the first point tokenized, in user and time order."""
    doc = vocab.to_json()
    maps = doc_maps(doc)
    sos = (SOS_ID,) * len(maps)
    chunk = cfg.max_seq_len - 1
    trajs = []
    for rs in oracle_marked_users(records, vocab, cfg).values():
        for seg in oracle_segment_trajectories(rs, cfg.min_trajectory_records):
            ids = [oracle_ids(r.x, r.y, doc, maps) for r in seg]  # a dropped point's too
            for a in range(0, len(seg), chunk):
                part = seg[a : a + chunk]
                if len(part) > 1:  # a lone trailing point has nothing to predict
                    ts = [r.timestamp for r in part]
                    trajs.append(Trajectory(seg[0].user_id, [sos] + ids[a : a + chunk],
                                            ts[:1] + ts, oracle_majority_label(seg)))
    return trajs


def oracle_records(ts, x, y, user="u"):
    records = []
    for t, a, b in zip(ts.tolist(), x.tolist(), y.tolist()):
        r = OracleRecord(user, t, 0.0, 0.0)
        r.x, r.y = a, b
        records.append(r)
    return records


# sorted timestamps with repeats, steps on both sides of 60 s and 300 s
_steps = st.sampled_from([0, 0, 1, 30, 59, 60, 61, 119, 120, 299, 300, 301, 3600])
# a few fixed starts, so that users' times overlap
_first_times = st.one_of(st.integers(1, 2**40), st.sampled_from([1, 300, 600]))
_times = st.builds(
    lambda start, steps: np.cumsum([start] + steps).astype(np.int64),
    _first_times, st.lists(_steps, max_size=40),
)
# negative and positive meters, many exactly on 100 m (SPEC's finest) cell edges
_meters = st.one_of(
    st.integers(-30, 30).map(lambda k: k * 100.0),
    st.integers(-30, 30).map(lambda k: k * 100.0 + 10.0),
    st.floats(-3000.0, 3000.0, allow_nan=False),
)


@st.composite
def user_columns(draw):
    """One user's (ts, x, y); x and y come from a few values each, so points
    repeat, share cells and dwell."""
    ts = draw(_times)

    def column():
        values = draw(st.lists(_meters, min_size=1, max_size=5))
        return np.array(draw(st.lists(st.sampled_from(values), min_size=len(ts), max_size=len(ts))))

    return ts, column(), column()


@settings(max_examples=150, deadline=None)
@given(lat=st.lists(st.one_of(st.sampled_from([-90.0, 90.0]), st.floats(-90.0, 90.0))),
       lon=st.lists(st.one_of(st.sampled_from([-180.0, 180.0]), st.floats(-180.0, 180.0))),
       ref_lat=st.floats(-89.0, 89.0))
def test_project_equals_the_scalar_formula_bit_for_bit(lat, lon, ref_lat):
    n = min(len(lat), len(lon))
    x, y = project(lat[:n], lon[:n], ref_lat)
    want = [oracle_project(a, b, ref_lat) for a, b in zip(lat[:n], lon[:n])]
    assert x.tobytes() == np.array([p[0] for p in want], dtype=float).tobytes()
    assert y.tobytes() == np.array([p[1] for p in want], dtype=float).tobytes()
    for a, b in zip(lat[:n], lon[:n]):
        assert project(a, b, ref_lat) == oracle_project(a, b, ref_lat)


@settings(max_examples=150, deadline=None)
@given(columns=user_columns(), interval=st.sampled_from([1, 60, 300]))
def test_resample_keeps_the_oracles_records(columns, interval):
    ts, x, y = columns
    records = oracle_records(ts, x, y)
    kept = [records[i] for i in resample(one_user(len(ts)), ts, interval).tolist()]
    assert kept == oracle_resample(records, interval)


@settings(max_examples=150, deadline=None)
@given(columns=user_columns(), min_duration=st.sampled_from([0, 60, 300]))
def test_filter_short_stays_keeps_the_oracles_records(columns, min_duration):
    ts, x, y = columns
    records = oracle_records(ts, x, y)
    kept = [records[i] for i in filter_short_stays(one_user(len(ts)), ts, x, y, SPEC,
                                                   min_duration).tolist()]
    assert kept == oracle_filter_short_stays(records, SPEC, min_duration)


@settings(max_examples=150, deadline=None)
@given(columns=user_columns(), min_len=st.integers(0, 4))
def test_speeds_stops_and_segments_equal_the_oracles(columns, min_len):
    ts, x, y = columns
    if len(ts) < 2:
        return
    records = oracle_compute_velocity(oracle_records(ts, x, y))
    speeds = compute_velocity(one_user(len(ts)), ts, x, y)
    assert speeds.tobytes() == np.array([r.speed_kmh for r in records]).tobytes()
    oracle_mark_stops(records, 4.0)
    segments = segment_trajectories(one_user(len(ts)), speeds < 4.0, min_len)
    assert [records[a : b + 1] for a, b in segments] == oracle_segment_trajectories(records, min_len)


def test_speeds_round_as_the_record_loop_on_random_steps():
    # np.hypot, or sqrt(dx**2 + dy**2), differs from math.hypot in the last bit
    # on some of these steps, and one bit can move a stop at the threshold
    rng = np.random.default_rng(0)
    ts = np.cumsum(rng.integers(0, 120, 10_000)) + 1
    x, y = rng.normal(0.0, 500.0, (2, 10_000))
    records = oracle_compute_velocity(oracle_records(ts, x, y))
    want = np.array([r.speed_kmh for r in records])
    assert compute_velocity(one_user(len(ts)), ts, x, y).tobytes() == want.tobytes()


@st.composite
def users_columns(draw):
    """1-4 users' (ts, x, y) columns; a user's first rows may share a timestamp,
    and users' times overlap."""
    users = []
    for _ in range(draw(st.integers(1, 4))):
        ts, x, y = draw(user_columns())
        ts[1 : 1 + draw(st.integers(0, 2))] = ts[0]
        users.append((ts, x, y))
    return users


def _index_of(records):
    at = {id(r): i for i, r in enumerate(records)}
    return lambda kept: [at[id(r)] for r in kept]


@settings(max_examples=200, deadline=None)
@given(users=users_columns(), interval=st.sampled_from([1, 60, 300]),
       min_duration=st.sampled_from([0, 60, 300]), min_len=st.integers(0, 4))
def test_each_stage_over_users_equals_its_oracle_user_by_user(users, interval, min_duration,
                                                              min_len):
    # the stages see every user's rows at once; each user's part of the output
    # is the oracle's on that user alone, at that user's row offset
    user = np.concatenate([np.full(len(c[0]), k) for k, c in enumerate(users)])
    ts, x, y = map(np.concatenate, zip(*users))
    per_user = [oracle_records(*c, user=str(k)) for k, c in enumerate(users)]
    index = _index_of([r for rs in per_user for r in rs])
    assert resample(user, ts, interval).tolist() == index(
        [r for rs in per_user for r in oracle_resample(rs, interval)])
    assert filter_short_stays(user, ts, x, y, SPEC, min_duration).tolist() == index(
        [r for rs in per_user for r in oracle_filter_short_stays(rs, SPEC, min_duration)])

    if any(len(rs) == 1 for rs in per_user):
        with pytest.raises(ValueError, match="two records per user"):
            compute_velocity(user, ts, x, y)
    # speeds and segments over the users with two rows or more
    moving = np.isin(user, [k for k, rs in enumerate(per_user) if len(rs) > 1])
    per_user = [oracle_mark_stops(oracle_compute_velocity(rs), 4.0)
                for rs in per_user if len(rs) > 1]
    records = [r for rs in per_user for r in rs]
    speeds = compute_velocity(user[moving], ts[moving], x[moving], y[moving])
    assert speeds.tobytes() == np.array([r.speed_kmh for r in records], dtype=float).tobytes()
    index = _index_of(records)
    want = [(index(seg)[0], index(seg)[-1])
            for rs in per_user for seg in oracle_segment_trajectories(rs, min_len)]
    assert segment_trajectories(user[moving], speeds < 4.0, min_len) == want


def test_a_users_first_speed_takes_no_step_from_the_user_before():
    # user 1's first two rows share a timestamp, so their speed is the 0 that
    # user 1 alone gives, not the 1000 m step from user 0's last row
    user = np.array([0, 0, 0, 1, 1, 1])
    ts = np.array([100, 160, 220, 500, 500, 560])
    x, y = np.array([0.0, 0.0, 0.0, 1000.0, 1000.0, 1500.0]), np.zeros(6)
    speeds = compute_velocity(user, ts, x, y)
    alone = [compute_velocity(one_user(3), ts[k : k + 3], x[k : k + 3], y[k : k + 3])
             for k in (0, 3)]
    assert speeds.tobytes() == np.concatenate(alone).tobytes()
    assert speeds[3:5].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("profile", ["gps", "signal"])
def test_preprocess_calls_each_stage_once(monkeypatch, profile):
    # three users, each a record every 10 minutes, 500 m apart: 3 km/h, all stops
    records = [RawRecord(u, 1_000 + 600 * i, 0.0, 0.0045 * i) for u in "abc" for i in range(6)]
    vocab = build_vocab([oracle_project(r.lat, r.lon, 0.0) for r in records], SPEC)
    calls = []
    for name in ("resample", "filter_short_stays", "compute_velocity", "segment_trajectories"):
        stage = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name,
                            lambda *a, _n=name, _f=stage: calls.append(_n) or _f(*a))
    cfg = PipelineConfig(profile=profile, min_stay_seconds=0, min_trajectory_records=1)
    trajs = preprocess(columns(records), vocab, cfg)
    first = "resample" if profile == "gps" else "filter_short_stays"
    assert calls == [first, "compute_velocity", "segment_trajectories"]
    assert trajs == oracle_preprocess(records, vocab, cfg)
    assert {t.user for t in trajs} == set("abc")


_degrees = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 1.0]), st.floats(-1.0, 1.0))


@st.composite
def corpora(draw):
    """Unsorted records of up to three users around one spot, with labels."""
    n = draw(st.integers(1, 60))
    users = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    times = draw(st.lists(st.integers(1, 4000), min_size=n, max_size=n))
    lats = draw(st.lists(_degrees.map(lambda d: d / 500.0), min_size=n, max_size=n))
    lons = draw(st.lists(_degrees.map(lambda d: d / 500.0), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([None, "walk", "bus"]), min_size=n, max_size=n))
    return [RawRecord(u, t * 30, a, b, lab)
            for u, t, a, b, lab in zip(users, times, lats, lons, labels)]


@settings(max_examples=100, deadline=None)
@given(records=corpora(), profile=st.sampled_from(["gps", "signal"]),
       min_stay=st.sampled_from([0, 60, 300]), min_len=st.integers(1, 3),
       max_seq_len=st.sampled_from([2, 4, 32]), ref_lat=st.sampled_from([0.0, -33.9]))
def test_preprocess_equals_the_record_loop_oracle(records, profile, min_stay, min_len,
                                                  max_seq_len, ref_lat):
    spec = GridSpec((1_000.0, 100.0), origin=(-150.0, 70.0), ref_lat=ref_lat)
    points = [oracle_project(r.lat, r.lon, ref_lat) for r in records]
    vocab = build_vocab(points, spec)
    cfg = PipelineConfig(profile=profile, min_stay_seconds=min_stay,
                         min_trajectory_records=min_len, max_seq_len=max_seq_len)
    got = preprocess(columns(records), vocab, cfg)
    assert got == oracle_preprocess(records, vocab, cfg)
    assert all(type(t) is int for traj in got for t in traj.timestamps)


@settings(max_examples=150, deadline=None)
@given(records=corpora(), profile=st.sampled_from(["gps", "signal"]),
       min_len=st.integers(1, 3), data=st.data())
def test_preprocess_raises_the_oracles_first_unseen_key(records, profile, min_len, data):
    # a vocabulary built from some of the records misses cells of others: the
    # error names the first unseen point in user and time order, at its lowest
    # unseen level, or (nothing unseen among the tokenized points) the windows
    # equal the oracle's
    spec = GridSpec((1_000.0, 100.0), origin=(-150.0, 70.0))
    points = [oracle_project(r.lat, r.lon, 0.0) for r in records]
    vocab = build_vocab(data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=6)), spec)
    cfg = PipelineConfig(profile=profile, min_stay_seconds=0, min_trajectory_records=min_len)
    try:
        want = oracle_preprocess(records, vocab, cfg)
    except OracleUnseenKey as e:
        with pytest.raises(OutOfVocabularyError) as err:
            preprocess(columns(records), vocab, cfg)
        assert (err.value.level, err.value.key) == e.args
    else:
        assert preprocess(columns(records), vocab, cfg) == want


@st.composite
def walks(draw):
    """Records of up to three users, each a walk of dwells and moves of about
    250 m a minute, one record per user and timestamp."""
    records = []
    for user in "abc"[: draw(st.integers(1, 3))]:
        t, lat = 1_000, 0.0
        for moving, n in draw(st.lists(st.tuples(st.booleans(), st.integers(1, 12)),
                                       min_size=2, max_size=6)):
            for dt in draw(st.lists(st.sampled_from([1, 60, 60, 61, 300]), min_size=n, max_size=n)):
                t, lat = t + dt, lat + 0.002 * moving
                records.append(RawRecord(user, t, lat, lat / 2))
    return draw(st.permutations(records))


@settings(max_examples=100, deadline=None)
@given(records=walks(), profile=st.sampled_from(["gps", "signal"]),
       min_stay=st.sampled_from([0, 60]), min_len=st.integers(1, 4),
       max_seq_len=st.sampled_from([3, 5, 32]))
def test_preprocess_windows_obey_the_pipeline_laws(records, profile, min_stay, min_len,
                                                   max_seq_len):
    spec = GridSpec((1_000.0, 100.0), origin=(-150.0, 70.0))
    vocab = build_vocab([oracle_project(r.lat, r.lon, 0.0) for r in records], spec)
    cfg = PipelineConfig(profile=profile, min_stay_seconds=min_stay,
                         min_trajectory_records=min_len, max_seq_len=max_seq_len)
    marked = oracle_marked_users(records, vocab, cfg)
    for traj in preprocess(columns(records), vocab, cfg):
        # windows no longer than max_seq_len, each with something to predict
        assert 3 <= len(traj.ids) <= max_seq_len
        # SOS at row 0 only
        assert traj.ids[0] == vocab.sos_tuple()
        assert all(SOS_ID not in row for row in traj.ids[1:])
        # a window is a run of its user's records inside one segment: stops
        # bound the segment, none lies strictly inside it, and it is long enough
        times = [r.timestamp for r in marked[traj.user]]
        i = times.index(traj.timestamps[1])
        j = i + traj.length - 1
        assert times[i : j + 1] == traj.timestamps[1:]
        stops = [k for k, r in enumerate(marked[traj.user]) if r.is_stop]
        assert {k for k in stops if i <= k <= j} <= {i, j}
        first = max(k for k in stops if k <= i)
        last = min(k for k in stops if k >= j)
        assert last - first + 1 > min_len
