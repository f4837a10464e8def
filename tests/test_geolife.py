"""The Geo-Life converter on a fabricated archive in the public layout."""

import pytest

from geoseq.geolife import convert_geolife
from geoseq.pipeline import RawRecord, read_csv

PLT_HEADER = """Geolife trajectory
WGS 84
Altitude is in Feet
Reserved 3
0,2,255,My Track,0,0,2,8421376
0
"""


def test_converter_writes_rows_with_slash_dated_labels(tmp_path):
    traj = tmp_path / "Data" / "000" / "Trajectory"
    traj.mkdir(parents=True)
    (traj / "20081023025304.plt").write_text(PLT_HEADER + (
        "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n"
        "39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10\n"
        "39.984686,116.318417,0,492,39744.1203125,2008-10-23,02:53:15\n"
    ), encoding="utf-8")
    # labels.txt writes its times with '/' where the PLT dates use '-'
    (tmp_path / "Data" / "000" / "labels.txt").write_text(
        "Start Time\tEnd Time\tTransportation Mode\n"
        "2008/10/23 02:53:05\t2008/10/23 02:53:15\tbus\n", encoding="utf-8")
    out = tmp_path / "geolife.csv"
    assert convert_geolife(tmp_path, out) == 3
    assert out.read_text(encoding="utf-8").splitlines() == [
        "user_id,timestamp,lat,lon,label",
        "000,1224730384,39.984702,116.318417,",
        "000,1224730390,39.984683,116.318450,bus",
        "000,1224730395,39.984686,116.318417,bus",
    ]
    assert list(read_csv(out)) == [
        RawRecord("000", 1224730384, 39.984702, 116.318417, None),
        RawRecord("000", 1224730390, 39.984683, 116.31845, "bus"),
        RawRecord("000", 1224730395, 39.984686, 116.318417, "bus"),
    ]


def test_empty_labels_file_converts_as_no_labels(tmp_path):
    csvs = []
    for labels in (None, ""):
        root = tmp_path / ("none" if labels is None else "empty")
        traj = root / "Data" / "000" / "Trajectory"
        traj.mkdir(parents=True)
        (traj / "20081023025304.plt").write_text(PLT_HEADER + (
            "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n"
            "39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10\n"
        ), encoding="utf-8")
        if labels is not None:
            (root / "Data" / "000" / "labels.txt").write_text(labels, encoding="utf-8")
        assert convert_geolife(root, root / "geolife.csv") == 2
        csvs.append((root / "geolife.csv").read_bytes())
    assert csvs[0] == csvs[1]


GOOD_ROW = "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n"


def _archive(root, plt_rows: str, labels: str | None = None):
    """A one-user archive: one PLT file of `plt_rows` after the header, and a
    `labels.txt` of `labels` after its header line, if given; returns both paths."""
    traj = root / "Data" / "000" / "Trajectory"
    traj.mkdir(parents=True)
    plt = traj / "20081023025304.plt"
    plt.write_text(PLT_HEADER + plt_rows, encoding="utf-8")
    path = root / "Data" / "000" / "labels.txt"
    if labels is not None:
        path.write_text("Start Time\tEnd Time\tTransportation Mode\n" + labels,
                        encoding="utf-8")
    return plt, path


@pytest.mark.parametrize("row, fault", [
    ("2008/10/23\t2008/10/23 02:53:15\twalk\n",
     "time '2008/10/23' is not a date and a time such as '2008-04-02 11:24:21'"),
    ("2008/10/23 02:53:05\t2008/10/23 xx:53:15\twalk\n",
     "time '2008/10/23 xx:53:15' is not a date and a time such as '2008-04-02 11:24:21'"),
], ids=["start_without_clock", "end_clock_word"])
def test_bad_label_time_names_file_and_line(tmp_path, row, fault):
    good = "2008/10/23 02:53:05\t2008/10/23 02:53:06\tbus\n"
    _, labels = _archive(tmp_path, GOOD_ROW, good + row)
    with pytest.raises(ValueError) as e:
        convert_geolife(tmp_path, tmp_path / "geolife.csv")
    assert str(e.value) == f"{labels}, line 3: {fault}"


def test_bad_plt_number_names_file_and_line(tmp_path):
    # short and blank lines are still skipped; line numbers count the header
    plt, _ = _archive(tmp_path, GOOD_ROW + "\n39.9,116.3\n"
                      + "abc,116.3,0,492,39744.1,2008-10-23,02:53:10\n")
    with pytest.raises(ValueError) as e:
        convert_geolife(tmp_path, tmp_path / "geolife.csv")
    assert str(e.value) == f"{plt}, line 10: could not convert string to float: 'abc'"


def test_bad_plt_time_names_file_and_line(tmp_path):
    plt, _ = _archive(tmp_path, GOOD_ROW + "39.9,116.3,0,492,39744.1,2008-13-23,02:53:10\n")
    with pytest.raises(ValueError) as e:
        convert_geolife(tmp_path, tmp_path / "geolife.csv")
    assert str(e.value) == (f"{plt}, line 8: time '2008-13-23 02:53:10' is not a date and a "
                            "time such as '2008-04-02 11:24:21'")


@pytest.mark.parametrize("before", [None, b"user_id,timestamp,lat,lon,label\nkept,1,0.0,0.0,\n"],
                         ids=["no_csv", "existing_csv"])
def test_failed_conversion_leaves_out_csv_as_it_was(tmp_path, before):
    # the good row before the bad one reaches no file, and no temporary file stays
    _archive(tmp_path / "archive", GOOD_ROW + "abc,116.3,0,492,39744.1,2008-10-23,02:53:10\n")
    out = tmp_path / "out" / "geolife.csv"
    out.parent.mkdir()
    if before is not None:
        out.write_bytes(before)
    with pytest.raises(ValueError, match="line 8: could not convert"):
        convert_geolife(tmp_path / "archive", out)
    if before is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ([] if before is None else ["geolife.csv"])
