import csv
import hashlib
import io
import json
import os
import re
import struct
import tempfile
import threading
import tracemalloc
import zlib
from contextlib import contextmanager, suppress
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from lightweather import data
from lightweather.checkpoint import checkpoint_save
from lightweather.data import (
    Normalizer,
    ObservationSet,
    TimeAxis,
    WindowSet,
    chronological_split,
    load_observations_csv,
    load_stations_csv,
    normalize_apply,
    normalize_fit,
    normalize_invert,
    series_rows,
    split_windows,
    write_observations_csv,
    write_stations_csv,
)
from lightweather.errors import ConfigError, IngestionError, ShapeError, ValidationError
from lightweather.model import ModelConfig, StationCoord, init_params
from oracles import (
    container_bytes,
    container_corruptions,
    container_parts,
    edit_container,
    flip,
    leaf_sha256,
    lwckpt1_save,
    observations_at,
    time_axis_of,
    timestamp_key,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# --- stations --------------------------------------------------------------


def test_single_station_at_origin(tmp_path):
    p = write(tmp_path / "s.csv", "station_id,lat,lon,elev\ns1,0,0,0\n")
    ids, coords = load_stations_csv(p)
    assert ids == ["s1"]
    assert coords[0] == StationCoord(0.0, 0.0, 0.0)


def test_out_of_range_latitude_names_line(tmp_path):
    p = write(tmp_path / "s.csv", "station_id,lat,lon,elev\ns1,91,0,0\n")
    with pytest.raises(IngestionError, match="line 2"):
        load_stations_csv(p)


def test_missing_column_rejected(tmp_path):
    p = write(tmp_path / "s.csv", "station_id,lat,lon\ns1,0,0\n")
    with pytest.raises(IngestionError, match="header"):
        load_stations_csv(p)


def test_unparsable_number_names_line(tmp_path):
    p = write(tmp_path / "s.csv", "station_id,lat,lon,elev\ns1,0,0,0\ns2,abc,0,0\n")
    with pytest.raises(IngestionError, match="line 3"):
        load_stations_csv(p)


def test_a_late_duplicate_station_names_its_line(tmp_path):
    # 3000 stations, then s7 again on line 3002 (the header is line 1)
    rows = "".join(f"s{i},0,0,0\n" for i in range(3000))
    p = write(tmp_path / "s.csv", f"station_id,lat,lon,elev\n{rows}s7,1,1,1\n")
    with pytest.raises(IngestionError) as raised:
        load_stations_csv(p)
    assert str(raised.value) == f"{p}: line 3002: duplicate station s7"


def test_stations_roundtrip(tmp_path):
    ids = ["a", "b"]
    coords = [StationCoord(12.5, -33.25, 478.0), StationCoord(-5.0, 170.0, 0.0)]
    p = tmp_path / "s.csv"
    write_stations_csv(p, ids, coords)
    back_ids, back_coords = load_stations_csv(p)
    assert back_ids == ids and back_coords == coords


# --- observations ----------------------------------------------------------


def obs_csv_text(rows):
    return "timestamp,station_id,var_0\n" + "".join(
        f"{ts},{sid},{val}\n" for ts, sid, val in rows
    )


def two_station_rows():
    out = []
    for k in range(3):
        ts = f"2020-01-01T{k:02d}:00:00"
        out.append((ts, "s1", 1.0 + k))
        out.append((ts, "s2", 10.0 + k))
    return out


STATIONS = (["s1", "s2"], [StationCoord(0.0, 0.0, 0.0), StationCoord(1.0, 1.0, 1.0)])


def test_complete_grid(tmp_path):
    p = write(tmp_path / "o.csv", obs_csv_text(two_station_rows()))
    obs = load_observations_csv(p, *STATIONS)
    assert obs.values.shape == (3, 2, 1)
    assert obs.interval == timedelta(hours=1)
    assert_array_equal(obs.values[:, 0, 0], [1.0, 2.0, 3.0])
    assert_array_equal(obs.values[:, 1, 0], [10.0, 11.0, 12.0])


def test_missing_cell_forward_filled(tmp_path):
    # 20 steps so a single gap stays under the 10% ceiling
    rows = []
    for k in range(20):
        ts = f"2020-01-01T{k:02d}:00:00"
        rows.append((ts, "s1", float(k)))
        if k != 7:
            rows.append((ts, "s2", 10.0 + k))
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    obs = load_observations_csv(p, *STATIONS)
    expected = [10.0 + k for k in range(20)]
    expected[7] = expected[6]
    assert_array_equal(obs.values[:, 1, 0], expected)


def test_out_of_order_rows_same_tensor(tmp_path):
    rows = two_station_rows()
    p1 = write(tmp_path / "a.csv", obs_csv_text(rows))
    p2 = write(tmp_path / "b.csv", obs_csv_text(rows[::-1]))
    a = load_observations_csv(p1, *STATIONS)
    b = load_observations_csv(p2, *STATIONS)
    assert_array_equal(a.values, b.values)
    assert a.timestamps == b.timestamps


def test_unknown_station_rejected(tmp_path):
    rows = two_station_rows() + [("2020-01-01T00:00:00", "zz", 5.0)]
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    with pytest.raises(IngestionError, match="unknown station"):
        load_observations_csv(p, *STATIONS)


def test_non_uniform_grid_rejected(tmp_path):
    rows = two_station_rows() + [
        ("2020-01-01T05:00:00", "s1", 9.0),
        ("2020-01-01T05:00:00", "s2", 9.0),
    ]
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    with pytest.raises(IngestionError, match="non-uniform"):
        load_observations_csv(p, *STATIONS)


def test_duplicate_cell_rejected(tmp_path):
    rows = two_station_rows() + [("2020-01-01T00:00:00", "s1", 1.0)]
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    with pytest.raises(IngestionError, match="duplicate"):
        load_observations_csv(p, *STATIONS)


def test_too_many_missing_rejected(tmp_path):
    # 20 steps, s2 missing 3 of them (15% > 10%)
    rows = []
    for k in range(20):
        ts = f"2020-01-01T{k:02d}:00:00"
        rows.append((ts, "s1", float(k)))
        if k not in (5, 6, 7):
            rows.append((ts, "s2", float(k)))
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    with pytest.raises(IngestionError, match="s2.*missing"):
        load_observations_csv(p, *STATIONS)


def test_leading_gap_rejected(tmp_path):
    rows = []
    for k in range(20):
        ts = f"2020-01-01T{k:02d}:00:00"
        rows.append((ts, "s1", float(k)))
        if k != 0:
            rows.append((ts, "s2", 10.0 + k))
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    with pytest.raises(IngestionError, match="first timestamp"):
        load_observations_csv(p, *STATIONS)


def test_mixed_timezones_rejected(tmp_path):
    rows = two_station_rows()
    rows[2] = ("2020-01-01T01:00:00+00:00", "s1", 2.0)
    p = write(tmp_path / "o.csv", obs_csv_text(rows))
    with pytest.raises(IngestionError, match="timezone-aware .* naive"):
        load_observations_csv(p, *STATIONS)


@pytest.mark.parametrize("block", [data._CSV_BLOCK, 64])
def test_mixed_timezones_name_the_first_used_of_each_kind(tmp_path, block):
    # neither the first aware nor the first naive timestamp is the earliest
    # of its kind, and with 64-byte blocks each line is a block of its own
    p = write(tmp_path / "o.csv", obs_csv_text([
        ("2020-01-01T03:00:00", "s1", 1.0),
        ("2020-01-01T01:00:00+00:00", "s1", 1.0),
        ("2020-01-01T00:00:00+00:00", "s1", 1.0),
        ("2020-01-01T02:00:00", "s1", 1.0),
        ("2020-01-01T06:00:00+05:00", "s2", 1.0),
    ]))
    expected = load_outcome(reference_load_observations_csv, p, STATIONS[0])
    assert expected[1].endswith(
        "mix timezone-aware (2020-01-01T01:00:00+00:00) and naive (2020-01-01T03:00:00) values"
    )
    with patch.object(data, "_CSV_BLOCK", block):
        assert load_outcome(load_observations_csv, p, STATIONS[0]) == expected


@pytest.mark.parametrize("ids", [["a", "station8"], ["a", "station8", "station12abc"]])
def test_clean_fields_of_unequal_width_take_no_per_line_path(tmp_path, monkeypatch, ids):
    # station ids of 1 and 8 bytes (each field one lookup word), or of 1, 8
    # and 12 bytes; values of unequal length; CRLF. The columnar pass reads
    # every line: parse_record reads only the lines it cannot, and would
    # give the same tensor, so only this test sees a field cut wrongly.
    def must_not_run(*args):
        raise AssertionError("a clean line took the per-line path")

    monkeypatch.setattr(data._ObservationGrid, "parse_record", must_not_run)
    rng = np.random.default_rng(0)
    digits = rng.integers(0, 17, size=(300, len(ids))).tolist()
    normal = rng.normal(size=(300, len(ids))).tolist()
    values = np.array([[round(v, k) for v, k in zip(*row)] for row in zip(normal, digits)])
    lines = ["timestamp,station_id,v"]
    for ts, row in zip(hourly_timestamps(300), values.tolist()):
        lines += [f"{ts.isoformat()},{sid},{v!r}" for sid, v in zip(ids, row)]
    path = tmp_path / "o.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    with patch.object(data, "_CSV_BLOCK", 2000):
        obs = load_observations_csv(path, ids, [StationCoord(0.0, 0.0, 0.0)] * len(ids))
    assert obs.values[:, :, 0].tobytes() == values.tobytes()


def gap_rows(s2_value_at_7):
    """20 steps; s2's cell at step 7 holds the given raw text."""
    rows = []
    for k in range(20):
        ts = f"2020-01-01T{k:02d}:00:00"
        rows.append((ts, "s1", float(k)))
        rows.append((ts, "s2", s2_value_at_7 if k == 7 else 10.0 + k))
    return rows


@pytest.mark.parametrize("raw", ["inf", "-inf", "Infinity"])
def test_infinite_value_rejected(tmp_path, raw):
    p = write(tmp_path / "o.csv", obs_csv_text(gap_rows(raw)))
    with pytest.raises(IngestionError, match="s2: variable var_0: .*inf at 2020-01-01T07:00"):
        load_observations_csv(p, *STATIONS)


@pytest.mark.parametrize("raw", ["nan", ""])
def test_nan_and_empty_are_missing(tmp_path, raw):
    p = write(tmp_path / "o.csv", obs_csv_text(gap_rows(raw)))
    obs = load_observations_csv(p, *STATIONS)
    assert obs.values[7, 1, 0] == obs.values[6, 1, 0] == 16.0


def fill_by_cells(values):
    """Reference forward fill: each NaN cell, in time order, takes the value
    one step before it in its station and variable."""
    out = values.copy()
    n_steps, n_stations, n_vars = out.shape
    for si in range(n_stations):
        for vi in range(n_vars):
            for t in range(1, n_steps):
                if np.isnan(out[t, si, vi]):
                    out[t, si, vi] = out[t - 1, si, vi]
    return out


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(10, 40),
    n_stations=st.integers(1, 3),
    n_vars=st.integers(1, 2),
    data=st.data(),
)
def test_forward_fill_equals_a_per_cell_loop(
    tmp_path_factory, n_steps, n_stations, n_vars, data
):
    values = data.draw(
        arrays(np.float64, (n_steps, n_stations, n_vars), elements=st.floats(-1e6, 1e6))
    )
    # gaps anywhere after the first step, at most 10% of each station's cells
    cells = [(t, vi) for t in range(1, n_steps) for vi in range(n_vars)]
    limit = int(0.10 * n_steps * n_vars)
    for si in range(n_stations):
        for t, vi in data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=limit)):
            values[t, si, vi] = np.nan
    ids = [f"s{i}" for i in range(n_stations)]
    names = [f"v{i}" for i in range(n_vars)]
    obs = observations_at(
        timestamps=hourly_timestamps(n_steps),
        station_ids=ids,
        coords=[StationCoord(0.0, 0.0, 0.0)] * n_stations,
        values=values,
        var_names=names,
        interval=timedelta(hours=1),
    )
    path = tmp_path_factory.mktemp("fill") / "o.csv"
    write_observations_csv(path, obs)  # a NaN cell is written as "nan"
    loaded = load_observations_csv(path, ids, obs.coords)
    assert loaded.values.tobytes() == fill_by_cells(values).tobytes()


def gappy_csv(path, gaps, n_steps=10, n_vars=1):
    """Three stations s0..s2 over n_steps hours; `gaps` holds the missing
    (station, step, variable) cells."""
    lines = ["timestamp,station_id," + ",".join(f"v{i}" for i in range(n_vars))]
    for k in range(n_steps):
        for si in range(3):
            cells = ["" if (si, k, vi) in gaps else f"{k}.5" for vi in range(n_vars)]
            lines.append(f"2020-01-01T{k:02d}:00:00,s{si}," + ",".join(cells))
    return write(path, "\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "gaps, n_vars, message",
    [
        # s1 misses its first value, s2 too many cells: s1 comes first
        ({(1, 0, 0), (2, 3, 0), (2, 4, 0)}, 1, "station s1: variable v0 missing at the first"),
        # s1 too many cells, s2 its first value
        ({(1, 3, 0), (1, 4, 0), (2, 0, 0)}, 1, "station s1: 2 missing cells exceed 10%"),
        # s1 both: the 10% rule is checked first
        ({(1, 0, 0), (1, 4, 0)}, 1, "station s1: 2 missing cells exceed 10%"),
        # the first variable, in column order, that misses its first value
        ({(0, 0, 1), (2, 0, 0)}, 2, "station s0: variable v1 missing at the first"),
    ],
    ids=["first-step-before-ten-percent", "ten-percent-before-first-step", "both", "variable"],
)
def test_first_offending_station_is_reported(tmp_path, gaps, n_vars, message):
    stations = (["s0", "s1", "s2"], [StationCoord(0.0, 0.0, 0.0)] * 3)
    path = gappy_csv(tmp_path / "o.csv", gaps, n_vars=n_vars)
    with pytest.raises(IngestionError) as err:
        load_observations_csv(path, *stations)
    assert message in str(err.value)


def test_docs_samples_load_with_their_gap_filled():
    docs = Path(__file__).resolve().parents[1] / "docs"
    ids, coords = load_stations_csv(docs / "sample_stations.csv")
    obs = load_observations_csv(docs / "sample_observations.csv", ids, coords)
    assert ids == ["s0001", "s0002", "s0003"] and obs.n_steps >= 10
    assert not np.isnan(obs.values).any()
    # s0002 has no value at 02:00: it keeps 01:00's
    assert obs.values[2, 1, 0] == obs.values[1, 1, 0] == 4.9


def test_ingestion_idempotent(tmp_path):
    p = write(tmp_path / "o.csv", obs_csv_text(two_station_rows()))
    a = load_observations_csv(p, *STATIONS)
    b = load_observations_csv(p, *STATIONS)
    assert_array_equal(a.values, b.values)


def test_observations_roundtrip(tmp_path):
    p = write(tmp_path / "o.csv", obs_csv_text(two_station_rows()))
    obs = load_observations_csv(p, *STATIONS)
    out = tmp_path / "copy.csv"
    write_observations_csv(out, obs)
    again = load_observations_csv(out, *STATIONS)
    assert_array_equal(again.values, obs.values)
    assert again.timestamps == obs.timestamps


# --- the columnar parser against the per-row reference ---------------------


def _reference_records(fh, path):
    """(line number, fields) of each csv record of text `fh`, read as
    UTF-8 with each undecodable byte kept as a surrogate; a record whose
    bytes, line end included, do not decode is an IngestionError when the
    loop reaches it."""
    record = []

    def lines():
        for line in fh:
            record.append(line)
            yield line

    for lineno, row in enumerate(csv.reader(lines()), start=1):
        try:
            "".join(record).encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from exc
        record.clear()
        yield lineno, row


def _reference_parse_timestamp(raw: str, path, lineno: int) -> datetime:
    try:
        return datetime.fromisoformat(raw.strip())
    except ValueError as exc:
        raise IngestionError(f"{path}: line {lineno}: bad timestamp {raw!r}") from exc


def reference_load_observations_csv(
    path, station_ids: list[str], coords: list[StationCoord]
) -> ObservationSet:
    """The per-row loader that load_observations_csv replaced, kept verbatim
    (csv.reader, one row at a time) as the reference its results and its
    errors must equal, but for its records (_reference_records): a line
    that does not decode is reported when the loop reaches it."""
    sid_index = {sid: i for i, sid in enumerate(station_ids)}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        records = _reference_records(fh, path)
        header = next(records, (1, None))[1]
        if (
            header is None
            or len(header) < 3
            or header[0].strip() != "timestamp"
            or header[1].strip() != "station_id"
        ):
            raise IngestionError(
                f"{path}: expected header timestamp,station_id,<var columns>, got {header}"
            )
        var_names = [h.strip() for h in header[2:]]
        n_vars = len(var_names)

        cells: dict[datetime, dict[int, list[float]]] = {}
        for lineno, row in records:
            if not row:
                continue
            if len(row) != 2 + n_vars:
                raise IngestionError(
                    f"{path}: line {lineno}: expected {2 + n_vars} columns"
                )
            ts = _reference_parse_timestamp(row[0], path, lineno)
            sid = row[1].strip()
            if sid not in sid_index:
                raise IngestionError(f"{path}: line {lineno}: unknown station {sid!r}")
            vals = []
            for raw in row[2:]:
                raw = raw.strip()
                if raw == "":
                    vals.append(np.nan)  # explicit missing cell
                    continue
                try:
                    vals.append(float(raw))
                except ValueError as exc:
                    raise IngestionError(f"{path}: line {lineno}: {exc}") from exc
            per_ts = cells.setdefault(ts, {})
            si = sid_index[sid]
            if si in per_ts:
                raise IngestionError(
                    f"{path}: line {lineno}: duplicate ({ts.isoformat()}, {sid})"
                )
            per_ts[si] = vals

    if not cells:
        raise IngestionError(f"{path}: no observations")
    try:
        timestamps = sorted(cells)
    except TypeError as exc:  # aware and naive datetimes do not compare
        aware = next(ts for ts in cells if ts.tzinfo is not None)
        naive = next(ts for ts in cells if ts.tzinfo is None)
        raise IngestionError(
            f"{path}: timestamps mix timezone-aware ({aware.isoformat()}) and "
            f"naive ({naive.isoformat()}) values"
        ) from exc
    if len(timestamps) < 2:
        raise IngestionError(f"{path}: need at least 2 timestamps to fix the interval")
    interval = timestamps[1] - timestamps[0]
    if interval <= timedelta(0):
        raise IngestionError(f"{path}: non-increasing timestamps")
    for a, b in zip(timestamps, timestamps[1:]):
        if b - a != interval:
            raise IngestionError(
                f"{path}: non-uniform timestamp grid at {b.isoformat()} "
                f"(step {b - a}, expected {interval})"
            )

    n_steps, n_stations = len(timestamps), len(station_ids)
    values = np.full((n_steps, n_stations, n_vars), np.nan)
    for t, ts in enumerate(timestamps):
        for si, vals in cells[ts].items():
            values[t, si, :] = vals
    infinite = np.argwhere(np.isinf(values))
    if len(infinite):
        t, si, vi = infinite[0]
        raise IngestionError(
            f"{path}: station {station_ids[si]}: variable {var_names[vi]}: "
            f"non-finite value {values[t, si, vi]} at {timestamps[t].isoformat()}"
        )

    # forward fill, bounded by the 10% rule (min propagates NaN: no full-size
    # temporary for a file without gaps)
    if np.isnan(values.min()):
        missing = np.isnan(values)
        counts = missing.sum(axis=(0, 2))
        too_many = counts > 0.10 * n_steps * n_vars
        for si in np.flatnonzero(too_many | missing[0].any(axis=1)):  # the first raises
            if too_many[si]:
                raise IngestionError(
                    f"{path}: station {station_ids[si]}: {counts[si]} missing cells exceed 10%"
                )
            vi = np.flatnonzero(missing[0, si])[0]
            raise IngestionError(
                f"{path}: station {station_ids[si]}: variable {var_names[vi]} missing at the "
                f"first timestamp; cannot forward fill"
            )
        last = np.where(missing, 0, np.arange(n_steps)[:, None, None])  # observed steps
        np.maximum.accumulate(last, axis=0, out=last)  # the last at or before each cell
        values = np.take_along_axis(values, last, axis=0)

    return observations_at(
        timestamps=timestamps,
        station_ids=list(station_ids),
        coords=list(coords),
        values=values,
        var_names=var_names,
        interval=interval,
    )


# (name, edit of a 20-step file whose s2 cell at 07:00, line 17, reads VAL,
# then s2's value at 07:00 or the error message's end)
PITFALLS = [
    ("quoted-station", lambda t: t.replace(",s2,VAL", ',"s2",1.5'), 1.5),
    ("unbalanced-quote", lambda t: t.replace(",s2,VAL", ',"s2,1.5'), "line 17: expected 3 columns"),
    ("nul-in-station", lambda t: t.replace(",s2,VAL", ",s\x002,1.5"), "line 17: unknown station 's\\x002'"),
    ("nul-after-value", lambda t: t.replace("VAL", "1.5\x00"), "line 17: could not convert string to float: '1.5\\x00'"),
    ("non-ascii-digits", lambda t: t.replace("VAL", "١٢"), 12.0),
    ("overflow", lambda t: t.replace("VAL", "1e400"), "non-finite value inf at 2020-01-01T07:00:00"),
    ("crlf", lambda t: t.replace("VAL", "1.5").replace("\n", "\r\n"), 1.5),
    ("bare-cr", lambda t: t.replace("VAL", "1.5").replace("\n", "\r"), 1.5),
    ("blank-lines-counted", lambda t: t.replace("2020-01-01T07:00:00,s2,VAL", "\r\n\n07:00,s2,1"), "line 19: bad timestamp '07:00'"),
    ("spaces", lambda t: t.replace(",s2,VAL", ", s2 , 1.5 "), 1.5),
    ("unicode-spaces", lambda t: t.replace(",s2,VAL", ",\xa0s2\u3000,\x1c1.5"), 1.5),
    ("blank-cell", lambda t: t.replace("VAL", "  "), 16.0),
    ("long-cell", lambda t: t.replace("VAL", "1.5" + " " * 100), 1.5),
    ("no-final-newline", lambda t: t.replace("VAL", "1.5").rstrip("\n"), 1.5),
]


@pytest.mark.parametrize("edit, expected", [p[1:] for p in PITFALLS], ids=[p[0] for p in PITFALLS])
def test_what_bytes_cannot_tell_loads_as_csv_would(tmp_path, edit, expected):
    path = tmp_path / "o.csv"
    path.write_bytes(edit(obs_csv_text(gap_rows("VAL"))).encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(IngestionError) as err:
            load_observations_csv(path, *STATIONS)
        assert str(err.value).endswith(expected)
    else:
        assert load_observations_csv(path, *STATIONS).values[7, 1, 0] == expected


def faulty_observations(n_rows: int, header: bytes = b"timestamp,station_id,var_0") -> bytes:
    """`header` and n_rows rows of s1 and s2, the last but one (line
    n_rows) holding a bad value and the last (line n_rows + 1) a byte
    0xFF."""
    lines = [header]
    for k in range(n_rows):
        ts = (datetime(2020, 1, 1) + timedelta(hours=k // 2)).isoformat()
        lines.append(f"{ts},s{k % 2 + 1},{k}.5".encode())
    lines[-2] = lines[-2] + b"x"
    lines[-1] = lines[-1].replace(b",s", b",\xffs")
    return b"\n".join(lines) + b"\n"


# (file bytes, stations file or not, the error's end): a bad value or
# coordinate, then an undecodable byte on a later line; and a file of bare
# CR line ends, each of which ends a record
FIRST_OFFENDING_LINE = {
    "short-file": (faulty_observations(4), False, "line 4: could not convert string to float: '2.5x'"),
    "long-file": (faulty_observations(601), False, "line 601: could not convert string to float: '599.5x'"),
    "quoted-header": (
        faulty_observations(601, b'"timestamp",station_id,var_0'),
        False,
        "line 601: could not convert string to float: '599.5x'",
    ),
    "stations": (
        b"station_id,lat,lon,elev\ns1,0,0,0\ns2,north,0,0\ns3,1,1,1\ns\xff4,2,2,2\n",
        True,
        "line 3: could not convert string to float: 'north'",
    ),
    "bare-cr-record-3": (
        b"timestamp,station_id,var_0\r2020-01-01T00:00:00,s1,1\r2020-01-01T00:00:00,s\xff2,2\r",
        False,
        "line 3: not UTF-8 (invalid start byte)",
    ),
}


@pytest.mark.parametrize("name", FIRST_OFFENDING_LINE)
def test_the_first_offending_line_is_reported_before_an_undecodable_one(tmp_path, name):
    """Text decodes as csv reads it, a record at a time: a line that does
    not decode is reported when the loop reaches it, so an earlier bad line
    wins, whether the header reads ahead, the file spans many lines, csv
    reads it (a quote, a bare CR) or it is the station table."""
    raw, stations, message = FIRST_OFFENDING_LINE[name]
    path = tmp_path / "f.csv"
    path.write_bytes(raw)
    with pytest.raises(IngestionError) as err:
        if stations:
            load_stations_csv(path)
        else:
            load_observations_csv(path, *STATIONS)
    assert str(err.value) == f"{path}: {message}"


def load_outcome(load, path, station_ids):
    """What `load` makes of `path`: ("error", message) for an
    IngestionError, ("csv.Error",) when csv raises past it, or the loaded
    set's bits."""
    try:
        obs = load(path, station_ids, [StationCoord(0.0, 0.0, 0.0)] * len(station_ids))
    except IngestionError as exc:
        return "error", str(exc)
    except csv.Error:
        return ("csv.Error",)
    return (
        "ok",
        obs.values.tobytes(),
        obs.values.shape,
        [ts.isoformat() for ts in obs.timestamps],
        obs.station_ids,
        obs.var_names,
        obs.interval,
    )


# what the splices insert: bytes that change how a line is tokenized, cells
# that parse differently per parser, lines that break the table, and bytes
# that do not decode as UTF-8 (surrogates, which the file's writer encodes
# with surrogateescape: 0xFF, a lone 0xE9 and a cut 3-byte sequence)
SPLICE_TOKENS = [
    "\x00", '"', "\r", "\r\n", "\n", "\n\n", " ", "  ", "\t", "\xa0", ",",
    "١٢", "٣", "nan", "inf", "e", "-", "1_0", "+", "zz", "s1", "+00:00", "+01:00",
    "\udcff", "\udce9", "\udce2\udc82",
]


# the stations of a spliced file: ids of one width, and of three widths
# (one longer than the 8 bytes that a field's lookup word holds)
SPLICE_STATIONS = [["s0", "s1", "s2"], ["s0", "s10", "station-2-long"]]


def timestamp_forms(ts: datetime) -> list[str]:
    """Renderings of `ts` that fromisoformat reads as an equal datetime,
    `YYYY-MM-DDTHH:MM:SS` (with its offset, when aware) first."""
    forms = [ts.isoformat(), ts.isoformat(sep=" "), ts.isoformat(timespec="minutes")]
    forms.append(ts.isoformat(timespec="microseconds"))
    if ts.tzinfo is not None:  # the same instant at another offset
        forms.append(ts.astimezone(timezone(timedelta(hours=-3))).isoformat())
    return forms


@st.composite
def spliced_csv(draw):
    """A small observations CSV (3 stations x 12 steps, 1-2 variables, LF or
    CRLF) and its station ids, with 0-3 splices. A splice inserts a token, a
    line of the table again (its timestamp in any form of timestamp_forms)
    or an unknown station's line over 0-2 characters,
    at any character or where a field starts or ends, or puts one field in
    quotes.

    Before the splices the table may differ from an hourly, time-ordered,
    naive one: its ids of unequal width; its timestamps aware, or each
    written in one of several equal forms (timestamp_forms); one step left
    out or moved by half an hour (a non-uniform grid); and its lines
    shuffled, or the first step's lines moved to the end (a timestamp first
    seen in a later block)."""
    n_vars = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = draw(st.sampled_from(SPLICE_STATIONS))
    tz = draw(st.sampled_from([None, timezone.utc, timezone(timedelta(hours=5, minutes=30))]))
    steps = [datetime(2020, 1, 1, tzinfo=tz) + timedelta(hours=k) for k in range(12)]
    grid = draw(st.sampled_from(["uniform", "gap", "uneven"]))
    if grid == "gap":
        del steps[5]
    elif grid == "uneven":
        steps[7] += timedelta(minutes=30)
    mixed_forms = draw(st.booleans())
    table = []  # (timestamp, station, cells) of each line
    lines = []
    for ts in steps:
        for sid in ids:
            forms = timestamp_forms(ts)
            when = str(rng.choice(forms)) if mixed_forms else forms[0]
            cells = ",".join(repr(float(v)) for v in rng.normal(size=n_vars).round(rng.integers(0, 17)))
            table.append((ts, sid, cells))
            lines.append(f"{when},{sid},{cells}")
    order = draw(st.sampled_from(["time", "shuffled", "first step last"]))
    if order == "shuffled":
        lines = [lines[i] for i in rng.permutation(len(lines))]
    elif order == "first step last":
        lines = lines[len(ids) :] + lines[: len(ids)]
    lines.insert(0, "timestamp,station_id," + ",".join(f"v{i}" for i in range(n_vars)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + eol
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["token", "duplicate", "unknown", "quote"]))
        ends = [i for i, ch in enumerate(text) if ch in ",\r\n"]  # where fields end
        bounds = [0] + [i + 1 for i, ch in enumerate(text) if ch in ",\n"]  # and start
        if kind == "quote":  # a field (or a run of them, csv permitting) in quotes
            lo = int(rng.choice(bounds))
            hi = min((b - 1 for b in bounds if b > lo), default=len(text))
            text = text[:lo] + '"' + text[lo:hi] + '"' + text[hi:]
            continue
        if kind == "token":
            token = draw(st.sampled_from(SPLICE_TOKENS))
        else:  # a table line again, its timestamp in any form
            ts, sid, cells = table[rng.integers(len(table))]
            sid = sid if kind == "duplicate" else "x" + sid[1:]
            token = f"{rng.choice(timestamp_forms(ts))},{sid},{cells}{eol}"
        at = draw(st.sampled_from(["anywhere", "field start", "field end"]))
        if at == "anywhere":
            pos = int(rng.integers(0, len(text) + 1))
        else:
            pos = int(rng.choice(bounds if at == "field start" else ends))
        text = text[:pos] + token + text[pos + draw(st.integers(0, 2)) :]
    return text, ids


@settings(max_examples=300, deadline=None)
@given(
    spliced=spliced_csv(),
    block=st.sampled_from([data._CSV_BLOCK, 97, 400]),
    field_width=st.sampled_from([data._FIELD_WIDTH, 12]),
)
def test_columnar_parser_equals_the_per_row_reference(tmp_path_factory, spliced, block, field_width):
    text, ids = spliced
    path = tmp_path_factory.mktemp("splice") / "o.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    expected = load_outcome(reference_load_observations_csv, path, ids)
    # small blocks put boundaries (and the switch to csv) mid-file; narrow
    # fields send every timestamp line through the per-line path
    with patch.object(data, "_CSV_BLOCK", block), patch.object(data, "_FIELD_WIDTH", field_width):
        got = load_outcome(load_observations_csv, path, ids)
    if expected == ("csv.Error",):  # Python 3.10's csv rejects a NUL byte
        assert got[0] == "error"
    else:
        assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    parts=st.tuples(
        # leap years and their exceptions, the epoch, and the range's ends
        st.sampled_from([1, 4, 100, 1600, 1900, 1969, 1970, 2000, 2024, 2100, 9999]) | st.integers(0, 10000),
        st.just(2) | st.integers(0, 13),
        st.sampled_from([28, 29, 30, 31]) | st.integers(0, 32),
        st.integers(0, 25),
        st.integers(0, 61),
        st.integers(0, 61),
    ),
    edit=st.one_of(
        st.none(), st.tuples(st.integers(0, 18), st.sampled_from(list(b" /:T-+.0129az\x00\xff")))
    ),
)
@example(parts=(1900, 2, 29, 0, 0, 0), edit=None)
@example(parts=(2000, 2, 29, 0, 0, 0), edit=None)
@example(parts=(2023, 2, 29, 0, 0, 0), edit=None)
@example(parts=(2024, 2, 29, 23, 59, 59), edit=None)
@example(parts=(1, 1, 1, 0, 0, 0), edit=None)
@example(parts=(9999, 12, 31, 23, 59, 59), edit=None)
def test_iso_keys_equal_fromisoformat(parts, edit):
    """The arithmetic read of `YYYY-MM-DDTHH:MM:SS` fields gives the key of
    fromisoformat's datetime. It gives no key (_BAD, left to fromisoformat)
    exactly where fromisoformat raises or the field has another form."""
    raw = bytearray(b"%04d-%02d-%02dT%02d:%02d:%02d" % parts)
    if edit is not None:
        raw[edit[0]] = edit[1]
    if len(raw) != 19:  # a year past 9999 takes a fifth digit
        return
    got = data._iso_keys(np.frombuffer(bytes(raw), np.uint8).reshape(1, 19))[0]
    try:
        expected = data._timestamp_key(datetime.fromisoformat(raw.decode("latin-1")))[0]
    except ValueError:
        expected = data._BAD
    if re.fullmatch(rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", raw):
        assert got == expected
    else:
        assert got == data._BAD


MAX_OFFSET = timedelta(hours=23, minutes=59)


@settings(max_examples=300, deadline=None)
@given(
    ts=st.datetimes(
        min_value=datetime(1, 1, 1),
        max_value=datetime(9999, 12, 31, 23, 59, 59, 999999),
        timezones=st.none() | st.builds(timezone, st.timedeltas(-MAX_OFFSET, MAX_OFFSET)),
    )
)
@example(ts=datetime(1, 1, 1))
@example(ts=datetime(1, 1, 1, tzinfo=timezone(MAX_OFFSET)))
@example(ts=datetime(9999, 12, 31, 23, 59, 59, 999999))
@example(ts=datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(-MAX_OFFSET)))
@example(ts=datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=timezone(timedelta(microseconds=-1))))
def test_timestamp_key_equals_datetime_arithmetic(ts):
    """The grid key and UTC offset of any naive datetime in years 1-9999,
    or of any aware one at an offset within +-23:59, are what datetime
    arithmetic gives (oracles.timestamp_key), also where the UTC instant
    lies outside datetime's range: year 1 at a positive offset, year 9999
    at a negative one."""
    assert data._timestamp_key(ts) == timestamp_key(ts)


aware_or_naive = st.sampled_from(
    [None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8))]
)


@settings(max_examples=60, deadline=None)
@given(
    n_steps=st.integers(10, 30),
    n_stations=st.integers(1, 3),
    n_vars=st.integers(1, 3),
    interval=st.sampled_from([timedelta(hours=1), timedelta(days=1)]),
    tz=aware_or_naive,
    data_=st.data(),
)
def test_write_then_load_gives_the_same_bits(
    tmp_path_factory, n_steps, n_stations, n_vars, interval, tz, data_
):
    finite = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
    )
    values = data_.draw(arrays(np.float64, (n_steps, n_stations, n_vars), elements=finite))
    cells = [(t, vi) for t in range(1, n_steps) for vi in range(n_vars)]
    for si in range(n_stations):
        limit = int(0.10 * n_steps * n_vars)
        for t, vi in data_.draw(st.lists(st.sampled_from(cells), unique=True, max_size=limit)):
            values[t, si, vi] = np.nan
    start = datetime(2020, 2, 28, tzinfo=tz)
    obs = observations_at(
        timestamps=[start + k * interval for k in range(n_steps)],
        station_ids=[f"s{i}" for i in range(n_stations)],
        coords=[StationCoord(0.0, 0.0, 0.0)] * n_stations,
        values=values,
        var_names=[f"v{i}" for i in range(n_vars)],
        interval=interval,
    )
    path = tmp_path_factory.mktemp("roundtrip") / "o.csv"
    write_observations_csv(path, obs)
    loaded = load_observations_csv(path, obs.station_ids, obs.coords)
    assert loaded.values.tobytes() == fill_by_cells(values).tobytes()
    assert loaded.timestamps == obs.timestamps
    assert [ts.isoformat() for ts in loaded.timestamps] == [ts.isoformat() for ts in obs.timestamps]
    assert loaded.station_ids == obs.station_ids and loaded.var_names == obs.var_names
    assert loaded.interval == interval


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loader_peak_memory_is_at_most_half_the_per_row_reference(tmp_path):
    n_steps, n_stations = 10_000, 10  # 100,000 rows
    rng = np.random.default_rng(0)
    obs = observations_at(
        timestamps=hourly_timestamps(n_steps),
        station_ids=[f"s{i:04d}" for i in range(n_stations)],
        coords=[StationCoord(0.0, 0.0, 0.0)] * n_stations,
        values=rng.normal(size=(n_steps, n_stations, 1)),
        var_names=["v"],
        interval=timedelta(hours=1),
    )
    path = tmp_path / "o.csv"
    write_observations_csv(path, obs)
    ids, coords = obs.station_ids, obs.coords
    new = traced_peak(lambda: load_observations_csv(path, ids, coords))
    ref = traced_peak(lambda: reference_load_observations_csv(path, ids, coords))
    assert new <= ref / 2, (new, ref)


def check_load_peaks(tmp_path, layout):
    """Load a file of 500 stations x 1200 steps in `layout` twice: a miss
    whose tracemalloc peak is at most 2x the loaded values, then a hit (the
    sidecar) at most 1.2x; both give the expected values."""
    n_steps, n_stations = 1200, 500  # 600,000 rows, 27 MB
    ids = [f"st{i:05d}" for i in range(n_stations)]
    rng = np.random.default_rng(0)
    values = rng.normal(size=(n_steps, n_stations))
    cells = [[repr(v) for v in row] for row in values.tolist()]
    expected = values.copy()
    if layout == "2% gaps":  # none at the first step; within the 10% rule
        for t, si in zip(*np.nonzero(rng.random((n_steps, n_stations)) < 0.02)):
            if t:
                cells[t][si] = ""
                expected[t, si] = expected[t - 1, si]
    order = range(n_steps - 1, -1, -1) if layout == "reversed" else range(n_steps)
    timestamps = hourly_timestamps(n_steps)
    with open(tmp_path / "o.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,station_id,v\r\n")
        for t in order:
            stamp = timestamps[t].isoformat()
            fh.write("".join(f"{stamp},{sid},{v}\r\n" for sid, v in zip(ids, cells[t])))
    coords = [StationCoord(0.0, 0.0, 0.0)] * n_stations
    assert (tmp_path / "o.csv").stat().st_size > 80 * data._CSV_BLOCK
    for bound in (2.0, 1.2):  # a miss, then a hit
        loaded = []
        peak = traced_peak(lambda: loaded.append(load_observations_csv(tmp_path / "o.csv", ids, coords)))
        assert sidecar(tmp_path / "o.csv").exists()
        assert loaded[0].values.tobytes() == expected.tobytes()
        assert peak <= bound * loaded[0].values.nbytes, (bound, peak / loaded[0].values.nbytes)


def test_loader_peak_memory_is_at_most_twice_the_values(tmp_path):
    """Each block of rows is scattered into the growing grid as it is read,
    so over ~100 blocks the tracemalloc peak of a load is the grid, its
    [T, N] mask and one block's columns: at most 2x the loaded values. A
    second load reads the sidecar: the values and little else."""
    check_load_peaks(tmp_path, "time order")


@pytest.mark.parametrize("layout", ["2% gaps", "reversed"])
def test_loader_peak_memory_with_gaps_or_out_of_order_is_at_most_twice_the_values(
    tmp_path, layout
):
    """Gaps are forward-filled in place, a step at a time, and a file out
    of time order is put in order in place: neither needs a second grid."""
    check_load_peaks(tmp_path, layout)


def test_an_aware_file_parses_in_the_memory_of_its_naive_twin(tmp_path):
    """10 stations x 12,000 hourly steps, written naive and at +05:30. The
    parse grid holds each step's key and UTC offset as integers, so with
    no sidecar the aware file's tracemalloc peak is at most 1.1x the naive
    one's, though each of its fields is read by fromisoformat."""
    n_steps, n_stations = 12_000, 10
    values = np.random.default_rng(0).normal(size=(n_steps, n_stations, 1))
    peaks = []
    for start in (datetime(2019, 1, 1), datetime(2019, 1, 1, tzinfo=timezone(timedelta(hours=5, minutes=30)))):
        obs = observations_at(
            timestamps=hourly_timestamps(n_steps, start),
            station_ids=[f"s{i:04d}" for i in range(n_stations)],
            coords=[StationCoord(0.0, 0.0, 0.0)] * n_stations,
            values=values,
            var_names=["v"],
            interval=timedelta(hours=1),
        )
        path = tmp_path / f"{len(peaks)}.csv"
        write_observations_csv(path, obs)
        loaded = []
        peaks.append(traced_peak(lambda: loaded.append(load_observations_csv(path, obs.station_ids, obs.coords))))
        assert loaded[0].values.tobytes() == values.tobytes()
        assert (loaded[0].time_axis.offsets is None) == (start.tzinfo is None)
    naive, aware = peaks
    assert aware <= 1.1 * naive, (aware / values.nbytes, naive / values.nbytes)


# --- the sidecar cache -----------------------------------------------------


def sidecar(path) -> Path:
    return Path(f"{path}.lwcache")


def loaded_fields(path, station_ids, load=None):
    """What a load of `path` gives, to the bit: ("error", message) for an
    IngestionError, ("csv.Error",) when csv raises past it, or the values'
    bits, dtype and shape, each timestamp's isoformat and UTC offset, the
    ids, the variables and the interval."""
    try:
        obs = (load or load_observations_csv)(
            path, station_ids, [StationCoord(0.0, 0.0, 0.0)] * len(station_ids)
        )
    except IngestionError as exc:
        return "error", str(exc)
    except csv.Error:
        return ("csv.Error",)
    return (
        "ok",
        obs.values.tobytes(),
        obs.values.dtype,
        obs.values.shape,
        [(ts.isoformat(), ts.utcoffset()) for ts in obs.timestamps],
        obs.station_ids,
        obs.var_names,
        obs.interval,
    )


@contextmanager
def parses_counted():
    """Counts, in the yielded list, the blocks and csv record runs the
    loads inside it parse."""
    calls = []
    block, records = data._ObservationGrid.parse_block, data._ObservationGrid.parse_records

    def counted(real):
        def run(*args):
            calls.append(real.__name__)
            return real(*args)

        return run

    with patch.object(data._ObservationGrid, "parse_block", counted(block)), patch.object(
        data._ObservationGrid, "parse_records", counted(records)
    ):
        yield calls


@contextmanager
def no_parse():
    """Loads inside it fail if they parse."""

    def refuse(*args):
        raise AssertionError("parsed although the sidecar fits")

    with patch.object(data._ObservationGrid, "parse_block", refuse), patch.object(
        data._ObservationGrid, "parse_records", refuse
    ):
        yield


@settings(max_examples=200, deadline=None)
@given(spliced=spliced_csv())
def test_a_cache_hit_equals_a_miss_and_the_per_row_reference(tmp_path_factory, spliced):
    """Over aware and naive files in every timestamp form, a first load (a
    miss), a second (a hit, which parses nothing) and the per-row loader
    give the same result; a file that fails to load gives the same error
    every time and leaves no sidecar."""
    text, ids = spliced
    path = tmp_path_factory.mktemp("cache") / "o.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    expected = loaded_fields(path, ids, reference_load_observations_csv)
    miss = loaded_fields(path, ids)
    if miss[0] != "ok":
        assert miss == expected or expected == ("csv.Error",)  # Python 3.10 and a NUL
        assert loaded_fields(path, ids) == miss
        assert not sidecar(path).exists()
        return
    assert miss == expected
    assert sidecar(path).exists()
    with no_parse():
        assert loaded_fields(path, ids) == miss


def aware_gap_csv(path):
    """20 hourly steps of s1 and s2 at +05:30, s2 missing at 07:00 (line 17),
    and its ids."""
    rows = [(f"{ts}+05:30", sid, val) for ts, sid, val in gap_rows("")]
    return write(path, obs_csv_text(rows)), ["s1", "s2"]


def set_key(raw: bytes, **fields) -> bytes:
    """The sidecar `raw` with `fields` set in its meta, its manifest's
    CRC32 recomputed and its data as they were."""
    return edit_container(raw, lambda manifest: manifest["meta"].update(fields))


def checkpoint_bytes(save) -> bytes:
    """The bytes of a small checkpoint that `save` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        save(Path(tmp) / "ck.bin", init_params(ModelConfig(d=4, n_layers=1, t_h=6, t_f=3, n_vars=1), 0))
        return (Path(tmp) / "ck.bin").read_bytes()


def not_json(raw: bytes) -> bytes:
    """The sidecar `raw` with a manifest that is not JSON but holds its CRC32."""
    magic, version, manifest, body = container_parts(raw)
    return container_bytes(magic, version, b'{"meta": [' + json.dumps(manifest).encode(), body)


def huge_shape(manifest: dict) -> None:
    for section in manifest["sections"]:
        section["shape"][0] = HUGE


HUGE = 10**9  # steps a manifest may claim: 16 GB of data for 2 stations x 1 variable
SIDECAR_EDITS = {
    "truncated": lambda raw: raw[:-5],
    "flipped data byte": lambda raw: flip(raw, len(raw) - 3),
    "flipped manifest byte": lambda raw: flip(raw, raw.index(b'"var_0"') + 4),
    "wrong magic": lambda raw: checkpoint_bytes(lwckpt1_save),
    "a checkpoint": lambda raw: checkpoint_bytes(checkpoint_save),
    "huge shape": lambda raw: edit_container(raw, huge_shape),
    "empty": lambda raw: b"",
    "not json": not_json,
    "another version": lambda raw: set_key(raw, version=data._SIDECAR_VERSION + 1),
}


@pytest.mark.parametrize("edit", list(SIDECAR_EDITS))
def test_a_sidecar_that_does_not_fit_is_a_miss(tmp_path, fail_allocation, edit):
    """A truncated, corrupt or foreign sidecar (a checkpoint of the earlier
    or the current format in its place), or one that claims a huge shape,
    never raises: the load parses the file again, gives the same result
    and rewrites the sidecar, which the next load reads. No array of a
    claimed huge shape is asked for."""
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    expected = loaded_fields(path, ids)
    assert expected[0] == "ok" and expected[4][0] == ("2020-01-01T00:00:00+05:30", timedelta(hours=5, minutes=30))
    written = sidecar(path).read_bytes()
    sidecar(path).write_bytes(SIDECAR_EDITS[edit](written))
    assert sidecar(path).read_bytes() != written
    fail_allocation(HUGE * 2, lambda k: True)
    with parses_counted() as parsed:
        assert loaded_fields(path, ids) == expected
    assert parsed and sidecar(path).read_bytes() == written
    with no_parse():
        assert loaded_fields(path, ids) == expected


def test_a_sidecar_broken_any_way_is_a_miss_and_is_rewritten(tmp_path, fail_allocation):
    """Every container corruption of an aware sidecar (keys, offsets and
    values): a flipped byte in each leaf and in the manifest, a manifest
    that lies about a dtype, a shape, an offset or a size, a section
    unaligned or overlapping another, the file cut short. Each load parses
    the file, equals the parse bit for bit and writes the sidecar's bytes
    again."""
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    expected = loaded_fields(path, ids)
    written = sidecar(path).read_bytes()
    assert [s["name"] for s in container_parts(written)[2]["sections"]] == ["keys", "offsets", "values"]
    fail_allocation(10**12, lambda k: True)
    for name, raw in container_corruptions(written).items():
        sidecar(path).write_bytes(raw)
        with parses_counted() as parsed:
            assert loaded_fields(path, ids) == expected, name
        assert parsed, f"{name}: read from the broken sidecar"
        assert sidecar(path).read_bytes() == written, f"{name}: not rewritten"
    with no_parse():
        assert loaded_fields(path, ids) == expected


def test_a_flipped_byte_in_any_leaf_of_a_sidecar_is_a_miss(tmp_path):
    """2 stations x 131,073 aware hourly steps: the keys and the offsets
    span two 1 MiB leaves each and the values three. A byte flipped in any
    of the seven leaves fails that leaf's CRC32, so the load parses the
    file and rewrites the sidecar."""
    steps = 131_073
    keys = (np.datetime64("2020-01-01T00:00", "us").astype(np.int64) + np.arange(steps) * 3_600_000_000)
    axis = TimeAxis(keys, np.full(steps, 19_800_000_000))  # +05:30
    values = np.random.default_rng(0).integers(0, 100, (steps, 2, 1)) / 4
    coords = [StationCoord(0.0, 0.0, 0.0)] * 2
    obs = ObservationSet(axis, ["s1", "s2"], coords, values, ["v"], timedelta(hours=1))
    path = tmp_path / "o.csv"
    write_observations_csv(path, obs)

    def fields():
        got = load_observations_csv(path, ["s1", "s2"], coords)
        axis = got.time_axis
        return got.values.tobytes(), axis.keys.tobytes(), axis.offsets.tobytes(), got.interval

    expected = fields()
    assert expected == (values.tobytes(), keys.tobytes(), axis.offsets.tobytes(), timedelta(hours=1))
    written = sidecar(path).read_bytes()
    cases = {name: raw for name, raw in container_corruptions(written).items() if "leaf" in name}
    assert sorted(cases) == sorted(
        f"{name}: leaf {leaf} byte flipped" for name, n in [("keys", 2), ("offsets", 2), ("values", 3)] for leaf in range(n)
    )
    for name, raw in cases.items():
        sidecar(path).write_bytes(raw)
        with parses_counted() as parsed:
            assert fields() == expected, name
        assert parsed and sidecar(path).read_bytes() == written, name


def test_an_edit_that_keeps_the_size_and_mtime_is_a_miss(tmp_path):
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    loaded_fields(path, ids)
    before = path.stat()
    path.write_bytes(path.read_bytes().replace(b",s1,3.0", b",s1,4.0"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size and path.stat().st_mtime_ns == before.st_mtime_ns
    expected = loaded_fields(path, ids, reference_load_observations_csv)
    with parses_counted() as parsed:
        assert loaded_fields(path, ids) == expected
    assert parsed
    with no_parse():
        assert loaded_fields(path, ids) == expected


def parses_then_hits(path, ids, expected):
    """The next load of `path` parses it and gives `expected`; the one
    after that reads the sidecar and gives the same."""
    with parses_counted() as parsed:
        assert loaded_fields(path, ids) == expected
    assert parsed
    with no_parse():
        assert loaded_fields(path, ids) == expected


LEAF = data._HASH_CHUNK
LEAF_SIZES = [0, 1, LEAF, LEAF + 1, 3 * LEAF + 17]


@pytest.mark.parametrize("size", LEAF_SIZES)
def test_the_leaf_digest_equals_the_serial_reference(tmp_path, size):
    raw = np.random.default_rng(size).integers(0, 256, size, np.uint8).tobytes()
    path = tmp_path / "f.bin"
    path.write_bytes(raw)
    assert data._leaf_sha256(path) == leaf_sha256(raw, LEAF)


def test_the_leaf_digest_is_the_same_at_any_worker_count(tmp_path, monkeypatch, switch_often):
    """One worker, two, and more workers than leaves or cores, with threads
    switching every microsecond: the leaves' digests are added in leaf
    order, so the key has the same bytes."""
    raw = np.random.default_rng(0).integers(0, 256, 3 * LEAF + 17, np.uint8).tobytes()
    path = tmp_path / "f.bin"
    path.write_bytes(raw)
    digests = []
    with switch_often():
        for count in (1, 2, 8):
            monkeypatch.setattr(data, "worker_count", lambda: count)
            digests.append(data._leaf_sha256(path))
    assert digests == [leaf_sha256(raw, LEAF)] * 3


def several_leaves_csv(path):
    """An observations file of two stations that spans more than two
    leaves, and its ids."""
    steps = (5 * LEAF) // 2 // 56
    start = datetime(2020, 1, 1)
    rows = [
        ((start + timedelta(hours=k)).isoformat(), sid, f"{k % 1000}.{si}")
        for k in range(steps)
        for si, sid in enumerate(["s1", "s2"])
    ]
    write(path, obs_csv_text(rows))
    assert path.stat().st_size > 2 * LEAF
    return path, ["s1", "s2"]


def test_an_edit_in_the_last_leaf_that_keeps_the_size_and_mtime_is_a_miss(tmp_path):
    path, ids = several_leaves_csv(tmp_path / "o.csv")
    loaded_fields(path, ids)
    before = path.stat()
    raw = path.read_bytes()
    at = raw.rindex(b",s2,") + 4  # the last row's value, in the last leaf
    assert at // LEAF == (len(raw) - 1) // LEAF
    path.write_bytes(raw[:at] + (b"8" if raw[at] == ord("9") else b"9") + raw[at + 1 :])
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size and path.stat().st_mtime_ns == before.st_mtime_ns
    parses_then_hits(path, ids, loaded_fields(path, ids, reference_load_observations_csv))


def lwcache_bytes(manifest: dict, steps: np.ndarray, values: np.ndarray) -> bytes:
    """A sidecar in the layout of versions 1 and 2: the magic LWCACHE, a
    little-endian uint32 manifest size and uint32 CRC32 of the manifest and
    the data, the JSON manifest, then the int64 steps and float64 values."""
    blob = json.dumps(manifest).encode("utf-8")
    steps, values = steps.astype("<i8").tobytes(), values.astype("<f8").tobytes()
    crc = zlib.crc32(values, zlib.crc32(steps, zlib.crc32(blob)))
    return struct.pack("<7sII", b"LWCACHE", len(blob), crc) + blob + steps + values


def test_a_version_1_sidecar_is_a_miss_and_is_rewritten(tmp_path):
    """A sidecar as version 1 wrote it, keyed by the plain SHA-256 of the
    file's bytes, and one as version 2 wrote it, keyed by the leaf digest,
    each in their layout and with a CRC32 that holds, is a miss: the load
    parses the file and writes a version-3 container, which the next load
    reads."""
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    expected = loaded_fields(path, ids)
    axis, values, var_names = data._parse_observations(path, ids)
    shared = {"station_ids": ids, "field_size_limit": csv.field_size_limit()}
    body = {"n_steps": len(axis.keys), "aware": True, "var_names": var_names}
    keys = [
        {"version": 1, "sha256": hashlib.sha256(path.read_bytes()).hexdigest(), **shared},
        {"version": 2, "sha256_leaves": data._leaf_sha256(path), **shared},
    ]
    for key in keys:
        steps = np.concatenate([axis.keys, axis.offsets])
        sidecar(path).write_bytes(lwcache_bytes({**key, **body}, steps, values))
        parses_then_hits(path, ids, expected)
        meta = container_parts(sidecar(path).read_bytes())[2]["meta"]
        assert meta["version"] == data._SIDECAR_VERSION == 3


def test_another_station_list_is_a_miss(tmp_path):
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    loaded_fields(path, ids)
    expected = loaded_fields(path, ids[::-1], reference_load_observations_csv)
    with parses_counted() as parsed:
        assert loaded_fields(path, ids[::-1]) == expected
    assert parsed
    with no_parse():
        assert loaded_fields(path, ids[::-1]) == expected


def test_another_csv_field_limit_is_a_miss(tmp_path):
    """csv.field_size_limit() decides whether a file loads, so a sidecar
    written under one limit does not answer a load under another."""
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    write(path, path.read_text(encoding="utf-8").replace(",s1,3.0", ",s1,3.0" + " " * 100))
    assert loaded_fields(path, ids)[0] == "ok"
    limit = csv.field_size_limit(100)  # s1's field at 03:00, line 8, is longer
    try:
        got = loaded_fields(path, ids)
        expected = loaded_fields(path, ids, reference_load_observations_csv)
    finally:
        csv.field_size_limit(limit)
    assert got == ("error", f"{path}: line 8: field larger than field limit (100)")
    assert expected == ("csv.Error",)  # the per-row loader lets csv's error through
    with no_parse():
        assert loaded_fields(path, ids)[0] == "ok"


def test_a_field_limit_below_the_columnar_width_fails_the_line_csv_fails(tmp_path):
    """A field over csv.field_size_limit() fails its line also when it is
    narrow enough for the columnar pass: the parser and a load whose
    sidecar was written under the default limit (a miss) report the line
    on which csv.reader, as the per-row reference reads the file, fails."""
    path, ids = aware_gap_csv(tmp_path / "o.csv")  # 25-byte timestamps
    assert loaded_fields(path, ids)[0] == "ok"
    limit = csv.field_size_limit(10)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            with pytest.raises(csv.Error, match="field larger than field limit"):
                for _ in reader:
                    pass
            line = reader.line_num
        with pytest.raises(IngestionError) as parsed:
            data._parse_observations(path, ids)
        with parses_counted() as calls:
            got = loaded_fields(path, ids)
    finally:
        csv.field_size_limit(limit)
    message = f"{path}: line {line}: field larger than field limit (10)"
    assert line == 2 and str(parsed.value) == message
    assert got == ("error", message) and calls


def test_a_file_changed_during_its_load_writes_no_sidecar(tmp_path, monkeypatch):
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    real = data._parse_observations

    def parse_then_touch(*args):
        out = real(*args)
        os.utime(path, ns=(0, path.stat().st_mtime_ns + 1))
        return out

    monkeypatch.setattr(data, "_parse_observations", parse_then_touch)
    assert loaded_fields(path, ids)[0] == "ok"
    assert not sidecar(path).exists()


@pytest.mark.parametrize("after", [None, 0, 2, 3])
def test_a_sidecar_that_cannot_be_written_is_skipped(tmp_path, fail_write, after):
    """Whether the temp file cannot be made (None) or write call number
    `after` fails, the load succeeds and leaves no file behind."""
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    expected = loaded_fields(path, ids, reference_load_observations_csv)
    fail_write(after)
    assert loaded_fields(path, ids) == expected
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: t.replace("station_id", "station"), "expected header"),
        (lambda t: t.replace(",s2,", ",s9,", 1), "line 3: unknown station 's9'"),
        (lambda t: t.replace(",s2,\n", ",s1,1.0\n"), "line 17: duplicate (2020-01-01T07:00:00+05:30, s1)"),
        (lambda t: t.replace(",s1,3.0", ",s1,inf"), "non-finite value inf at 2020-01-01T03:00:00+05:30"),
        (lambda t: t.replace(",s2,10.0", ",s2,").replace(",s2,11.0", ",s2,").replace(",s2,12.0", ",s2,"), "4 missing cells exceed 10%"),
        (lambda t: t.replace("T05:00:00", "T05:30:00"), "non-uniform timestamp grid"),
    ],
    ids=["header", "unknown-station", "duplicate", "infinite", "too-many-missing", "grid"],
)
def test_a_file_that_fails_to_load_leaves_no_sidecar(tmp_path, edit, message):
    path, ids = aware_gap_csv(tmp_path / "o.csv")
    write(path, edit(path.read_text(encoding="utf-8")))
    errors = [loaded_fields(path, ids) for _ in range(2)]
    assert errors[0] == errors[1] == loaded_fields(path, ids, reference_load_observations_csv)
    assert errors[0][0] == "error" and message in errors[0][1]
    assert [p.name for p in tmp_path.iterdir()] == ["o.csv"]


def test_a_pipe_is_not_hashed(tmp_path):
    """A pipe's bytes can be read once: the load leaves them to the parser,
    which cannot read a pipe (it seeks), and writes no sidecar."""
    path, _ = aware_gap_csv(tmp_path / "o.csv")
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh, suppress(BrokenPipeError):
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(io.UnsupportedOperation):
        load_observations_csv(fifo, ["s1", "s2"], STATIONS[1])
    writer.join(timeout=10)
    assert not writer.is_alive() and not sidecar(fifo).exists()


# --- the writer against the per-row reference ------------------------------


def reference_write_observations_csv(path, obs: ObservationSet) -> None:
    """The per-row writer that write_observations_csv replaced, kept
    verbatim (csv.writer, one row at a time) as the reference its bytes
    must equal."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "station_id"] + list(obs.var_names))
        for t, ts in enumerate(obs.timestamps):
            for si, sid in enumerate(obs.station_ids):
                writer.writerow(
                    [ts.isoformat(), sid]
                    + [repr(float(v)) for v in obs.values[t, si, :]]
                )


@settings(max_examples=150, deadline=None)
@given(
    n_steps=st.integers(0, 12),
    n_vars=st.integers(1, 3),
    ids=st.lists(
        st.sampled_from(["s0", "s 1", "a,b", 'q"t', "line\nbreak", "cr\r", "", "x" * 20, "é"]),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    tz=aware_or_naive,
    interval=st.sampled_from([timedelta(hours=1), timedelta(days=1), timedelta(microseconds=1500)]),
    fortran=st.booleans(),
    block=st.sampled_from([data._WRITE_ROWS, 1, 5]),
    data_=st.data(),
)
def test_writer_equals_the_per_row_reference(
    tmp_path_factory, n_steps, n_vars, ids, tz, interval, fortran, block, data_
):
    special = st.sampled_from([np.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, np.inf])
    values = data_.draw(
        arrays(np.float64, (n_steps, len(ids), n_vars), elements=st.floats() | special)
    )
    obs = observations_at(
        timestamps=[datetime(2020, 2, 28, 23, tzinfo=tz) + k * interval for k in range(n_steps)],
        station_ids=ids,
        coords=[StationCoord(0.0, 0.0, 0.0)] * len(ids),
        values=np.asfortranarray(values) if fortran else values,
        var_names=[f"v{i}" for i in range(n_vars)],
        interval=interval,
    )
    root = tmp_path_factory.mktemp("writer")
    reference_write_observations_csv(root / "ref.csv", obs)
    with patch.object(data, "_WRITE_ROWS", block):
        write_observations_csv(root / "new.csv", obs)
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()


# --- splits ----------------------------------------------------------------


def test_split_globalwind_length():
    train, val, test = chronological_split(17_544)
    assert (len(train), len(val), len(test)) == (12_280, 1_754, 3_510)


def test_split_ten_steps():
    train, val, test = chronological_split(10)
    assert (len(train), len(val), len(test)) == (7, 1, 2)


@given(st.integers(10, 100_000))
def test_split_partitions(n):
    train, val, test = chronological_split(n)
    assert train.stop == val.start and val.stop == test.start
    assert train.start == 0 and test.stop == n
    assert len(train) + len(val) + len(test) == n


def test_split_too_short_for_windows():
    # n=100 gives a 10-step val split, too short for T_h + T_f = 12
    with pytest.raises(ConfigError, match="val"):
        chronological_split(100, t_h=8, t_f=4)


# --- windows ---------------------------------------------------------------


def hourly_timestamps(n, start=datetime(2020, 1, 1)):
    return [start + timedelta(hours=k) for k in range(n)]


def window_set(values, timestamps, span, t_h, t_f):
    """The windows inside `span` over `values` [T, N, C] taken as they are
    as the model series."""
    wall = time_axis_of(timestamps).wall
    return WindowSet(values, Normalizer.identity(values.shape[-1]), wall, span, t_h, t_f)


def test_single_window_when_exact_fit():
    values = np.arange(9.0).reshape(9, 1, 1)
    ws = window_set(values, hourly_timestamps(9), range(0, 9), t_h=6, t_f=3)
    assert len(ws) == 1
    b = ws.batch([0])
    assert_array_equal(b["history"], [np.arange(6.0)])
    assert_array_equal(b["future"], [[6.0, 7.0, 8.0]])
    assert ws.calendar[0, 0] == 6


def test_window_count_100_48_24():
    values = np.zeros((100, 1, 1))
    ws = window_set(values, hourly_timestamps(100), range(0, 100), 48, 24)
    assert len(ws) == 29


def test_consecutive_windows_overlap():
    values = np.arange(12.0).reshape(12, 1, 1)
    ws = window_set(values, hourly_timestamps(12), range(0, 12), t_h=6, t_f=3)
    history = ws.batch(np.arange(len(ws)))["history"]
    assert_array_equal(history[0, 1:], history[1, :-1])


@settings(max_examples=50, deadline=None)
@given(
    length=st.integers(2, 300),
    t_h=st.integers(1, 60),
    t_f=st.integers(1, 60),
)
def test_window_count_formula(length, t_h, t_f):
    values = np.zeros((length, 1, 1))
    ws = window_set(values, hourly_timestamps(length), range(0, length), t_h, t_f)
    assert len(ws) == max(length - t_h - t_f + 1, 0)


def test_no_window_crosses_split_boundary():
    n = 200
    values = np.zeros((n, 1, 1))
    timestamps = hourly_timestamps(n)
    t_h, t_f = 12, 6
    train, val, test = chronological_split(n, t_h, t_f)
    for span in (train, val, test):
        ws = window_set(values, timestamps, span, t_h, t_f)
        last_future_end = int(ws.starts.max()) + t_h + t_f
        assert ws.starts.min() >= span.start
        assert last_future_end <= span.stop


# --- normalization ---------------------------------------------------------


def test_normalizer_roundtrip():
    rng = np.random.default_rng(0)
    values = 5.0 + rng.normal(size=(40, 3, 2)) * 7.0
    norm = normalize_fit(values)
    back = normalize_invert(normalize_apply(values, norm), norm)
    assert_allclose(back, values, rtol=1e-6)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (12, 2, 3), elements=st.floats(-1e300, 1e300)))
def test_identity_normalizer_round_trips_exactly(values):
    norm = split_windows(observation_set(np.zeros((40, 2, 3))), 2, 1, normalize=False).normalizer
    assert norm.mean.tolist() == [0.0] * 3 and norm.std.tolist() == [1.0] * 3
    assert normalize_apply(values, norm).tobytes() == values.tobytes()
    back = normalize_invert(normalize_apply(values, norm), norm)
    assert_array_equal(back, values)  # -0.0 comes back as +0.0, which compares equal
    assert back.tobytes() == (values + 0.0).tobytes()


def test_normalizer_hand_case():
    values = np.array([0.0, 2.0]).reshape(2, 1, 1)
    norm = normalize_fit(values)
    assert norm.mean[0] == 1.0 and norm.std[0] == 1.0
    assert normalize_apply(np.array([[[2.0]]]), norm)[0, 0, 0] == 1.0


def test_normalizer_zero_variance_rejected():
    values = np.ones((10, 2, 1))
    with pytest.raises(IngestionError, match="degenerate"):
        normalize_fit(values)


BLOCK_VALUES = data._BLOCK_BYTES // 8  # float64 values in one block: 2**17


@pytest.mark.parametrize(
    "steps,stations,n_vars",
    [
        # C = 1: numpy sums the span pairwise, in blocks of 8 up to 128
        # values and by halves rounded down to a multiple of 8 above
        (1, 5, 1),
        (7, 3, 1),
        (13, 11, 1),
        (1, BLOCK_VALUES - 1, 1),
        (1, BLOCK_VALUES, 1),
        (1, BLOCK_VALUES + 1, 1),
        (3, BLOCK_VALUES // 3 + 5, 1),
        (2, BLOCK_VALUES + 9, 1),
        (9, 3 * BLOCK_VALUES // 9 + 7, 1),
        # C > 1: numpy adds one (step, station) row of C values after another
        (40, 3, 3),
        (13, 7, 2),
        (BLOCK_VALUES // 3, 1, 3),
        (BLOCK_VALUES // 3 + 1, 1, 3),
        (3, BLOCK_VALUES // 3 // 3 * 2 + 1, 3),
    ],
)
@pytest.mark.parametrize("start", [0, 5])
def test_normalize_fit_has_the_bits_of_numpys_mean_and_std(steps, stations, n_vars, start):
    # normalize_fit reproduces numpy's summation order block by block, an
    # order numpy does not promise: a numpy that sums otherwise fails here
    # rather than moving every normalizer, checkpoint and metric
    rng = np.random.default_rng([steps, stations, n_vars, start])
    values = 40.0 + 7.0 * rng.standard_normal((start + steps + 3, stations, n_vars))
    norm = normalize_fit(values, range(start, start + steps))
    span = values[start : start + steps]
    assert norm.mean.tobytes() == span.mean(axis=(0, 1)).tobytes()
    assert norm.std.tobytes() == span.std(axis=(0, 1)).tobytes()


@pytest.mark.parametrize("n_vars", [1, 3])
def test_normalize_fit_of_a_series_not_c_contiguous_has_numpys_bits(n_vars):
    # numpy sums such a series in its memory order, not the blocked one
    values = np.asfortranarray(40.0 + 7.0 * np.random.default_rng(6).standard_normal((300, 500, n_vars)))
    norm = normalize_fit(values, range(10, 290))
    assert norm.std.tobytes() == values[10:290].std(axis=(0, 1)).tobytes()
    strided = values[::2]
    assert normalize_fit(strided).std.tobytes() == strided.std(axis=(0, 1)).tobytes()


@pytest.mark.parametrize("n_vars", [1, 3])
def test_normalize_fit_makes_no_temporary_of_the_span(n_vars):
    values = np.random.default_rng(4).standard_normal((300, 2000, n_vars))
    tracemalloc.start()
    try:
        normalize_fit(values, range(10, 290))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * data._BLOCK_BYTES, peak  # numpy's std: 0.93x the values


def test_normalizer_zero_variance_of_one_variable_is_named():
    values = np.random.default_rng(5).standard_normal((10, 2, 3))
    values[:, :, 1] = 4.0
    with pytest.raises(IngestionError, match="^degenerate variable 1: zero variance$"):
        normalize_fit(values)


def test_mse_scales_by_std_squared():
    rng = np.random.default_rng(1)
    truth = rng.normal(size=(30, 2, 1)) * 4.0 + 3.0
    pred = truth + rng.normal(size=truth.shape)
    norm = normalize_fit(truth)
    mse_orig = float(((pred - truth) ** 2).mean())
    mse_norm = float(
        ((normalize_apply(pred, norm) - normalize_apply(truth, norm)) ** 2).mean()
    )
    assert_allclose(mse_orig, mse_norm * float(norm.std[0]) ** 2, rtol=1e-9)


def test_split_windows_pipeline():
    n = 120
    rng = np.random.default_rng(2)
    obs = observations_at(
        timestamps=hourly_timestamps(n),
        station_ids=["s1"],
        coords=[StationCoord(0.0, 0.0, 0.0)],
        values=rng.normal(size=(n, 1, 1)),
        var_names=["var_0"],
        interval=timedelta(hours=1),
    )
    prepared = split_windows(obs, t_h=6, t_f=3, normalize=True)
    assert len(prepared.train) == 84 - 9 + 1
    assert prepared.normalizer is not None
    # model-space values are normalized, metric-space values are original
    future_raw = prepared.test.batch(
        slice(0, 1), out={"history": np.empty((1, 6), np.float32), "future_raw": np.empty((1, 3))}
    )["future_raw"]
    start = prepared.test.starts[0]
    assert_allclose(future_raw[0], obs.values[start + 6 : start + 9, 0, 0], rtol=0, atol=0)


def observation_set(values, start=datetime(2020, 1, 1)):
    n_steps, n_stations, n_vars = values.shape
    return observations_at(
        timestamps=hourly_timestamps(n_steps, start),
        station_ids=[f"s{i}" for i in range(n_stations)],
        coords=[StationCoord(0.0, 0.0, 0.0)] * n_stations,
        values=values,
        var_names=[f"var_{i}" for i in range(n_vars)],
        interval=timedelta(hours=1),
    )


@settings(max_examples=40, deadline=None)
@given(
    n_stations=st.integers(1, 4),
    n_vars=st.integers(1, 3),
    t_h=st.integers(1, 5),
    t_f=st.integers(1, 4),
    extra=st.integers(0, 40),
    normalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batch_rows_equal_the_series_slices(
    n_stations, n_vars, t_h, t_f, extra, normalize, seed, data
):
    # every split's history and future rows are the model series' [T, N, C]
    # slices as (window, station, variable) rows in float32, to the bit
    n_steps = 10 * (t_h + t_f) + extra
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_steps, n_stations, n_vars)) * 5.0 + rng.normal(size=n_vars)
    obs = observation_set(raw)
    prepared = split_windows(obs, t_h, t_f, normalize=normalize)
    model_values = normalize_apply(raw, prepared.normalizer) if normalize else raw
    for ws in (prepared.train, prepared.val, prepared.test):
        drawn = data.draw(st.lists(st.integers(0, len(ws) - 1), max_size=4))
        idx = np.array([0, len(ws) - 1] + drawn)
        b = ws.batch(idx)
        s = ws.starts[idx][:, None]
        hist = model_values[s + np.arange(t_h)]  # [B, T_h, N, C]
        fut = model_values[s + t_h + np.arange(t_f)]
        for got, want, steps in ((b["history"], hist, t_h), (b["future"], fut, t_f)):
            rows = want.transpose(0, 2, 3, 1).reshape(-1, steps).astype(np.float32)
            assert got.dtype == np.float32 and got.shape == rows.shape
            assert got.tobytes() == rows.tobytes()
        assert b.keys() == {"history", "future"}
        # consecutive windows lo..hi-1 gathered into buffers: the same
        # history rows, and the float64 targets in the same row order
        lo = data.draw(st.integers(0, len(ws) - 1))
        hi = data.draw(st.integers(lo + 1, len(ws)))
        rows = (hi - lo) * n_stations * n_vars
        out = {"history": np.empty((rows + 3, t_h), np.float32), "future_raw": np.empty((rows + 3, t_f))}
        b_out = ws.batch(slice(lo, hi), out=out)
        assert b_out.keys() == {"history", "future_raw"}
        for key, buf in out.items():
            assert b_out[key].shape[0] == rows and np.shares_memory(b_out[key], buf)
        assert b_out["history"].tobytes() == ws.batch(np.arange(lo, hi))["history"].tobytes()
        s = ws.starts[lo:hi, None]
        raw_rows = raw[s + t_h + np.arange(t_f)].transpose(0, 2, 3, 1).reshape(-1, t_f)
        assert b_out["future_raw"].tobytes() == raw_rows.tobytes()
        # a stepped slice gathers the windows it selects, as their index
        # array, and so does an empty one, whatever its bounds
        bound = st.none() | st.integers(-len(ws) - 1, len(ws) + 1)
        stepped = slice(
            data.draw(bound), data.draw(bound), data.draw(st.sampled_from([-3, -2, -1, 2, 3]))
        )
        empty_lo = data.draw(st.integers(0, len(ws) + 1))
        empty = slice(empty_lo, data.draw(st.integers(0, empty_lo)))
        empties = (empty, slice(len(ws), len(ws)), slice(5, 2), slice(len(ws), None), slice(-1, -2))
        for drawn in (stepped, *empties):
            b_step, b_ids = ws.batch(drawn), ws.batch(np.arange(len(ws))[drawn])
            assert b_step.keys() == b_ids.keys()
            assert drawn is stepped or len(b_step["history"]) == 0
            for key in b_ids:
                assert b_step[key].shape == b_ids[key].shape, (drawn, key)
                assert b_step[key].tobytes() == b_ids[key].tobytes(), (drawn, key)


def test_batch_gathers_an_index_array_into_out():
    # shuffled window ids in chunks of 4, the last one ragged, as the
    # training step's chunks gather them: each chunk's rows are written into
    # the same buffers window by window, and are the stored series' slices
    t_h, t_f, n_stations, n_vars = 6, 3, 3, 2
    raw = np.random.default_rng(5).normal(size=(122, n_stations, n_vars)) * 4.0
    prepared = split_windows(observation_set(raw), t_h, t_f)
    train = prepared.train
    store = series_rows(raw, prepared.normalizer)  # the whole series' model rows
    rows_per_window = n_stations * n_vars
    ids = np.random.default_rng(6).permutation(len(train))
    assert len(ids) % 4
    out = {
        "history": np.empty((4 * rows_per_window, t_h), np.float32),
        "future": np.empty((4 * rows_per_window, t_f), np.float32),
        "future_raw": np.empty((4 * rows_per_window, t_f)),
    }
    for lo in range(0, len(ids), 4):
        chunk = ids[lo : lo + 4]
        rows = len(chunk) * rows_per_window
        got = train.batch(chunk, out=out)
        starts = train.starts[chunk]
        want = {
            "history": [store[:, s : s + t_h] for s in starts],
            "future": [store[:, s + t_h : s + t_h + t_f] for s in starts],
            "future_raw": [raw[s + t_h : s + t_h + t_f].reshape(t_f, -1).T for s in starts],
        }
        for key, slices in want.items():
            assert np.shares_memory(got[key], out[key]) and got[key].shape[0] == rows
            assert got[key].tobytes() == np.concatenate(slices).tobytes()
        assert got.keys() == out.keys()
    for key, buf in (("history", out["history"][:-1]), ("future", out["history"])):
        with pytest.raises(ShapeError, match=key):
            train.batch(ids[:4], out={key: buf})


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("n_vars", [1, 3])
def test_each_split_makes_the_whole_series_rows_of_its_span(n_vars, normalize):
    # a split's rows are series_rows of its own span, made on its first
    # gather: the bits of the whole series' rows over that span, the one
    # copy that every split once shared. Every batch, of a slice, an index
    # array or nothing, is that whole copy's slices to the bit
    t_h, t_f, n_stations = 6, 3, 3
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(1500, n_stations, n_vars)) * 5.0 + rng.normal(size=n_vars) * 100.0
    prepared = split_windows(observation_set(raw), t_h, t_f, normalize=normalize)
    whole = series_rows(raw, prepared.normalizer)
    for ws in (prepared.train, prepared.val, prepared.test):
        n = len(ws)
        selections = (
            slice(0, n), slice(5, 17), slice(n - 1, None), slice(None, None, 3), slice(4, 4),
            np.array([3, 0, n - 1, 3]), np.array([], np.intp),
        )
        for sel in selections:
            b = ws.batch(sel)
            starts = ws.starts[np.arange(n)[sel]]
            for key, lo, width in (("history", 0, t_h), ("future", t_h, t_f)):
                slices = [whole[:, s + lo : s + lo + width] for s in starts]
                want = np.concatenate(slices) if slices else np.empty((0, width), np.float32)
                assert b[key].dtype == want.dtype and b[key].shape == want.shape, (sel, key)
                assert b[key].tobytes() == want.tobytes(), (sel, key)
        rows = ws.rows()
        assert rows.dtype == whole.dtype and rows.shape == (n_stations * n_vars, len(ws.span))
        assert rows.tobytes() == whole[:, ws.span.start : ws.span.stop].tobytes()
        assert ws.rows() is rows  # kept


def test_split_windows_keeps_no_copy_of_the_series():
    # the splits hold their windows' starts and calendars, a few bytes a
    # step, and no rows until one is read: a float32 copy would be half
    # the float64 values
    values = np.random.default_rng(12).normal(size=(2000, 200, 1))
    obs = observation_set(values)
    tracemalloc.start()
    try:
        prepared = split_windows(obs, 48, 24)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(prepared.train) > 0
    assert retained < 0.05 * values.nbytes


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "bad, named",
    [
        ({(650, 1, 0): 1e39}, (650, 1, 0)),  # a late step, in the eleventh block
        ({(530, 0, 1): np.nan}, (530, 0, 1)),
        ({(680, 0, 0): 1e39, (600, 1, 1): -1e39}, (600, 1, 1)),  # the earliest step
        ({(640, 1, 1): 1e39, (640, 1, 0): np.nan}, (640, 1, 0)),  # then the lowest row
    ],
    ids=["late-step", "nan", "earliest-step", "lowest-row"],
)
def test_the_first_value_not_finite_in_float32_is_named(bad, named, normalize, monkeypatch):
    # every bad cell lies after the 490-step train split, whose normalizer
    # stays finite; the series is scanned in blocks of 64 steps, and the
    # message names the earliest step's lowest (station, variable) row
    monkeypatch.setattr(data, "_BLOCK_BYTES", 64 * 2 * 2 * 8)
    raw = np.random.default_rng(13).normal(size=(700, 2, 2))
    for cell, value in bad.items():
        raw[cell] = value
    obs = observation_set(raw)
    with pytest.raises(ValidationError) as err:
        split_windows(obs, 6, 3, normalize=normalize)
    t, si, vi = named
    assert (
        f"station s{si}: variable var_{vi}: value {float(raw[named])!r} at "
        f"{obs.timestamps[t].isoformat()} is not finite in float32"
    ) in str(err.value)


@pytest.mark.parametrize("normalize", [False, True])
def test_value_overflowing_float32_is_validation_error(normalize):
    # raw: 1e39 is finite in float64 only; normalized: a train split of
    # spread ~1e-100 scales a later 1.0 to ~1e100
    raw = np.zeros((120, 2, 2))
    if normalize:
        raw[:84:2] = 1e-100
        raw[100, 1, 1] = 1.0
    else:
        raw[100, 1, 1] = 1e39
    obs = observation_set(raw)
    with pytest.raises(ValidationError) as err:
        split_windows(obs, 6, 3, normalize=normalize)
    msg = str(err.value)
    assert "station s1" in msg and "variable var_1" in msg
    assert obs.timestamps[100].isoformat() in msg and "float32" in msg
