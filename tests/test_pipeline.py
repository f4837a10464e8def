"""Preprocessing rules: resampling, speeds, stops, stays, segments, windows."""

import numpy as np
import pytest

from geoseq.grid import GridSpec
from geoseq.pipeline import (
    PipelineConfig,
    RawRecord,
    Trajectory,
    compute_velocity,
    filter_short_stays,
    mark_stops,
    preprocess,
    read_csv,
    read_trajectories,
    resample,
    segment_trajectories,
    split,
    window,
    write_trajectories,
)
from geoseq.vocab import build_vocab

SPEC = GridSpec((1_000.0, 100.0))


def rec(ts, x=0.0, y=0.0, user="u", label=None, speed=None, stop=None):
    r = RawRecord(user_id=user, timestamp=ts, lat=0.0, lon=0.0, label=label)
    r.x, r.y = x, y
    if speed is not None:
        r.speed_kmh = speed
    if stop is not None:
        r.is_stop = stop
    return r


# -- resampling ---------------------------------------------------------------

def test_resample_keeps_first_per_bucket():
    records = [rec(t) for t in (1000, 1010, 1020, 1070)]
    assert [r.timestamp for r in resample(records, 60)] == [1000, 1070]


def test_resample_empty():
    assert resample([], 60) == []


def test_resample_sparse_input_unchanged():
    records = [rec(t) for t in (1, 61, 181, 241)]  # all >= 60 s apart
    assert resample(records, 60) == records


# -- velocity and stops -------------------------------------------------------

def test_velocity_50m_per_minute():
    records = compute_velocity([rec(60, 0, 0), rec(120, 50, 0)])
    assert records[1].speed_kmh == pytest.approx(3.0)
    assert records[0].speed_kmh == pytest.approx(3.0)  # first copies second


def test_velocity_200m_per_minute():
    records = compute_velocity([rec(60, 0, 0), rec(120, 0, 200)])
    assert records[1].speed_kmh == pytest.approx(12.0)


def test_velocity_identical_points():
    records = compute_velocity([rec(60, 5, 5), rec(120, 5, 5)])
    assert records[1].speed_kmh == 0.0


def test_velocity_duplicate_timestamp_flagged():
    records = compute_velocity([rec(60, 0, 0), rec(120, 50, 0), rec(120, 999, 0)])
    assert records[2].speed_kmh == records[1].speed_kmh


def test_velocity_needs_two_records():
    with pytest.raises(ValueError):
        compute_velocity([rec(60)])


def test_stop_threshold_is_strict():
    records = [rec(1, speed=3.0), rec(2, speed=12.0), rec(3, speed=4.0)]
    mark_stops(records, 4.0)
    assert [r.is_stop for r in records] == [True, False, False]


# -- stay filtering -----------------------------------------------------------

def test_stay_spanning_600s_kept_as_one():
    records = [rec(t, 10, 10) for t in (100, 400, 700)]  # same 100 m cell
    kept = filter_short_stays(records, SPEC, 300)
    assert len(kept) == 1
    assert kept[0].timestamp == 100


def test_short_stay_dropped():
    records = [rec(100, 10, 10), rec(220, 10, 10)]  # 120 s in one cell
    assert filter_short_stays(records, SPEC, 300) == []


def test_single_record_stay_dropped():
    assert filter_short_stays([rec(100, 10, 10)], SPEC, 300) == []


def test_stays_split_by_cell_change():
    records = [rec(100, 10, 10), rec(500, 10, 10), rec(600, 250, 10), rec(1000, 250, 10)]
    kept = filter_short_stays(records, SPEC, 300)
    assert [r.timestamp for r in kept] == [100, 600]


# -- segmentation -------------------------------------------------------------

def test_segment_between_boundary_stops():
    records = [rec(i, stop=(i in (0, 24))) for i in range(25)]
    segments = segment_trajectories(records, 10)
    assert len(segments) == 1
    assert len(segments[0]) == 25


def test_segment_shorter_than_threshold_discarded():
    # 8 records between and including two stops: 8 <= 10 so it goes
    records = [rec(i, stop=(i in (0, 7))) for i in range(8)]
    assert segment_trajectories(records, 10) == []


def test_no_stops_no_segments():
    records = [rec(i, stop=False) for i in range(50)]
    assert segment_trajectories(records, 10) == []


def test_segments_partition_between_first_and_last_stop():
    rng = np.random.default_rng(0)
    records = [rec(i, stop=bool(rng.random() < 0.2)) for i in range(200)]
    segments = segment_trajectories(records, min_len=0)
    stops = [i for i, r in enumerate(records) if r.is_stop]
    if len(stops) >= 2:
        inner = []
        for seg in segments:
            assert seg[0].is_stop and seg[-1].is_stop
            inner.extend(seg[:-1])  # drop the shared right boundary
        covered = [r.timestamp for r in inner] + [records[stops[-1]].timestamp]
        assert covered == [r.timestamp for r in records[stops[0] : stops[-1] + 1]]


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


def test_trajectory_ndjson_round_trip(tmp_path):
    trajs = [_traj(4), _traj(7)]
    path = tmp_path / "t.ndjson"
    write_trajectories(trajs, path)
    back = read_trajectories(path)
    assert back == trajs


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

    pts = [project(r.lat, r.lon) for r in records]
    vocab = build_vocab(pts, GridSpec((100_000.0, 1_000.0, 100.0)))
    trajs = preprocess(records, vocab, PipelineConfig(profile="gps"))
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
        preprocess(records, vocab, PipelineConfig())
