"""Thin converter from the public Geo-Life GPS archive to the input CSV.

Expects the standard layout `<root>/Data/<user>/Trajectory/*.plt` with the
optional per-user `labels.txt` carrying transportation-mode intervals. Each
PLT data line is `lat,lon,0,altitude,days,date,time`; the first six lines
are header. A `labels.txt` row is `start<TAB>end<TAB>mode`, with times
such as `2008/04/02 11:24:21`. Records falling inside a labeled interval get
its mode. A row whose numbers or times do not parse raises ValueError naming
the file and the line (a PLT file's header lines counted); a PLT line with
fewer than seven fields, or a `labels.txt` row without three, is skipped.
"""

from __future__ import annotations

import bisect
import os
from datetime import datetime, timezone

from .pipeline import CSV_COLUMNS

_TIME_FMT = "%Y-%m-%d %H:%M:%S"


def _parse_time(stamp: str) -> int:
    """Unix seconds of a UTC `date time`; labels.txt writes 2008/04/02, PLT files 2008-04-02."""
    try:
        dt = datetime.strptime(stamp.replace("/", "-"), _TIME_FMT)
    except ValueError:
        raise ValueError(f"time {stamp!r} is not a date and a time such as "
                         f"'2008-04-02 11:24:21'") from None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def _load_labels(path) -> tuple[list[int], list[tuple[int, int, str]]]:
    intervals = []
    with open(path, encoding="utf-8") as f:
        next(f, None)  # header line; an empty file holds no labels
        for line_no, line in enumerate(f, start=2):
            parts = line.strip().split("\t")
            if len(parts) != 3:
                continue
            try:
                intervals.append((_parse_time(parts[0]), _parse_time(parts[1]), parts[2]))
            except ValueError as e:
                raise ValueError(f"{path}, line {line_no}: {e}") from None
    intervals.sort()
    return [iv[0] for iv in intervals], intervals


def _label_for(ts: int, starts, intervals) -> str | None:
    i = bisect.bisect_right(starts, ts) - 1
    if i >= 0 and intervals[i][0] <= ts <= intervals[i][1]:
        return intervals[i][2]
    return None


def convert_geolife(root, out_csv, users: list[str] | None = None) -> int:
    """Write `user_id,timestamp,lat,lon,label` rows; returns the record count.

    The rows go to a temporary file beside `out_csv` that replaces it only once
    every row converted, so a failed conversion leaves `out_csv` as it was.
    """
    data_dir = os.path.join(root, "Data")
    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"no Data/ directory under {root}")
    user_dirs = users if users is not None else sorted(os.listdir(data_dir))
    head, name = os.path.split(out_csv)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    out = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with out:
            n = _write_rows(out, data_dir, user_dirs)
        os.replace(tmp, out_csv)
    finally:  # gone after a replace; an error leaves it to remove
        if os.path.exists(tmp):
            os.remove(tmp)
    return n


def _write_rows(out, data_dir, user_dirs) -> int:
    """The CSV header and every record of `user_dirs`; returns the record count."""
    out.write(",".join((*CSV_COLUMNS, "label")) + "\n")
    n = 0
    for user in user_dirs:
        traj_dir = os.path.join(data_dir, user, "Trajectory")
        if not os.path.isdir(traj_dir):
            continue
        starts, intervals = [], []
        labels_path = os.path.join(data_dir, user, "labels.txt")
        if os.path.isfile(labels_path):
            starts, intervals = _load_labels(labels_path)
        for plt in sorted(os.listdir(traj_dir)):
            if not plt.endswith(".plt"):
                continue
            plt_path = os.path.join(traj_dir, plt)
            with open(plt_path, encoding="utf-8") as f:
                lines = f.readlines()[6:]
            for line_no, line in enumerate(lines, start=7):  # after the six header lines
                parts = line.strip().split(",")
                if len(parts) < 7:
                    continue
                try:
                    lat, lon = float(parts[0]), float(parts[1])
                    ts = _parse_time(f"{parts[5]} {parts[6]}")
                except ValueError as e:
                    raise ValueError(f"{plt_path}, line {line_no}: {e}") from None
                label = _label_for(ts, starts, intervals) if intervals else None
                out.write(f"{user},{ts},{lat:.6f},{lon:.6f},{label or ''}\n")
                n += 1
    return n
