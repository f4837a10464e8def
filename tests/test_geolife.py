"""The Geo-Life converter on a fabricated archive in the public layout."""

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
