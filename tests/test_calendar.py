"""The integer time axis and the calendar read from it.

model.calendar computes hour, day of month - 1 and month - 1 from int64
wall-clock microseconds by integer arithmetic alone. Every test here holds
it against what datetime's own fields say, on naive and aware series, at
the Gregorian rule's edges and at both ends of datetime's range. CI runs
this file again under TZ=Pacific/Chatham (UTC+12:45/+13:45), so a
conversion that reads the machine's local time fails here.
"""

from dataclasses import astuple, replace
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from lightweather import data
from lightweather.data import (
    load_observations_csv,
    split_windows,
    write_observations_csv,
    write_stations_csv,
)
from lightweather.model import (
    StationCoord,
    TimeFeature,
    calendar,
    civil_from_days,
    days_from_civil,
)
from oracles import observations_at, time_axis_of

PLUS_0545 = timezone(timedelta(hours=5, minutes=45))
MINUS_0330 = timezone(timedelta(hours=-3, minutes=-30))


def reference(timestamps) -> np.ndarray:
    """The calendar by datetime's fields: each step on its own wall clock."""
    return np.array([[ts.hour, ts.day - 1, ts.month - 1] for ts in timestamps], np.intp).reshape(-1, 3)


def steps(start: datetime, n: int, every=timedelta(hours=1)) -> list[datetime]:
    return [start + k * every for k in range(n)]


def shifting(n: int) -> list[datetime]:
    """Aware hourly steps at one instant apart whose UTC offset changes
    from +05:45 to -03:30 halfway."""
    utc = steps(datetime(2016, 2, 28, 20, tzinfo=timezone.utc), n)
    return [ts.astimezone(PLUS_0545 if k < n // 2 else MINUS_0330) for k, ts in enumerate(utc)]


SERIES = {
    "naive-leap-2000": steps(datetime(2000, 2, 27, 18), 80),
    "naive-2100-is-not-leap": steps(datetime(2100, 2, 27, 18), 80),
    "naive-leap-2400": steps(datetime(2400, 2, 27, 18), 80),
    "naive-before-1970": steps(datetime(1969, 12, 30, 5), 80),
    "naive-year-1": steps(datetime(1, 1, 1), 80),
    "naive-year-9999": steps(datetime(9999, 12, 28), 80),
    "naive-daily-across-centuries": steps(datetime(1899, 12, 1), 800, timedelta(days=61, minutes=7)),
    "aware-plus-0545": steps(datetime(2000, 2, 28, 16, tzinfo=PLUS_0545), 80),
    "aware-minus-0330": steps(datetime(2100, 2, 28, 18, tzinfo=MINUS_0330), 80),
    "aware-plus-0545-year-1": steps(datetime(1, 1, 1, tzinfo=PLUS_0545), 80),
    "aware-minus-0330-year-9999": steps(datetime(9999, 12, 28, tzinfo=MINUS_0330), 80),
    "aware-before-1970": steps(datetime(1969, 12, 31, 20, tzinfo=MINUS_0330), 80),
    "aware-offset-changes-mid-series": shifting(80),
}


@pytest.mark.parametrize("name", list(SERIES))
def test_calendar_of_the_axis_equals_datetime_fields(name):
    timestamps = SERIES[name]
    axis = time_axis_of(timestamps)
    assert (axis.offsets is None) == (timestamps[0].tzinfo is None)
    assert [ts.isoformat() for ts in axis.datetimes()] == [ts.isoformat() for ts in timestamps]
    assert_array_equal(calendar(axis.wall), reference(timestamps))
    features = [list(astuple(TimeFeature.from_timestamp(ts))) for ts in timestamps]
    assert features == reference(timestamps).tolist()


@settings(max_examples=200, deadline=None)
@given(
    ts=st.datetimes(
        min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30, 23, 59, 59, 999999)
    ),
    offset_minutes=st.one_of(st.none(), st.integers(-23 * 60 - 59, 23 * 60 + 59)),
)
def test_calendar_of_any_instant_equals_datetime_fields(ts, offset_minutes):
    if offset_minutes is not None:
        ts = ts.replace(tzinfo=timezone(timedelta(minutes=offset_minutes)))
    axis = time_axis_of([ts])
    assert_array_equal(calendar(axis.wall), reference([ts]))
    if ts.tzinfo is not None:  # the key is the instant
        assert axis.keys[0] == (ts - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(
            microseconds=1
        )


@pytest.mark.parametrize(
    "years", [(1, 4), (1896, 1905), (1968, 1973), (1999, 2002), (2099, 2102), (2399, 2402), (9996, 9999)]
)
def test_days_and_civil_dates_agree_with_date_every_day(years):
    first, last = date(years[0], 1, 1), date(years[1], 12, 31)
    ordinals = np.arange(first.toordinal(), last.toordinal() + 1)
    days = ordinals - date(1970, 1, 1).toordinal()
    dates = [date.fromordinal(o) for o in ordinals.tolist()]
    year, month, day = civil_from_days(days)
    assert year.tolist() == [d.year for d in dates]
    assert month.tolist() == [d.month for d in dates]
    assert day.tolist() == [d.day for d in dates]
    assert_array_equal(days_from_civil(year, month, day), days)


def test_replace_with_another_axis_is_spelled_with_its_steps(tmp_path):
    """forecast writes forecast_obs.csv from replace(obs, time_axis=...):
    TimeAxis.datetimes and write_observations_csv spell the copy's steps,
    here aware ones whose offset changes, and the original keeps its own."""
    stamps = steps(datetime(2020, 2, 28, 22), 30)
    obs = observations_at(
        stamps, ["a"], [StationCoord(0.0, 0.0, 0.0)], np.zeros((30, 1, 1)), ["v"],
        timedelta(hours=1),
    )
    later = shifting(4)
    moved = replace(obs, time_axis=time_axis_of(later), values=np.arange(4.0).reshape(4, 1, 1))
    spelled = [ts.isoformat() for ts in later]
    assert moved.timestamps == later
    assert [ts.isoformat() for ts in moved.time_axis.datetimes()] == spelled
    assert [ts.isoformat() for ts in moved.time_axis.datetimes(1, 3)] == spelled[1:3]
    assert_array_equal(calendar(moved.time_axis.wall), reference(later))
    write_observations_csv(tmp_path / "moved.csv", moved)
    lines = (tmp_path / "moved.csv").read_bytes().decode("utf-8").split("\r\n")
    rows = [f"{ts},a,{k}.0" for k, ts in enumerate(spelled)]
    assert lines == ["timestamp,station_id,v", *rows, ""]
    assert obs.timestamps == stamps and obs.time_axis.offsets is None


@pytest.mark.parametrize("aware", [False, True], ids=["naive", "aware"])
def test_windows_calendar_is_the_same_parsed_or_read_from_the_sidecar(tmp_path, monkeypatch, aware):
    """One file's three splits have the same calendars on a load that parses
    it and on one that reads its sidecar, and both are datetime's."""
    n = 200
    stamps = shifting(n) if aware else steps(datetime(2000, 2, 25, 3), n)
    ids, coords = ["s1", "s2"], [StationCoord(10.0, 20.0, 5.0), StationCoord(-3.0, 40.0, 50.0)]
    values = np.random.default_rng(0).standard_normal((n, 2, 1))
    obs = observations_at(stamps, ids, coords, values, ["v"], timedelta(hours=1))
    write_stations_csv(tmp_path / "stations.csv", ids, coords)
    write_observations_csv(tmp_path / "obs.csv", obs)
    parsed = load_observations_csv(tmp_path / "obs.csv", ids, coords)
    assert (tmp_path / "obs.csv.lwcache").exists()
    monkeypatch.setattr(data, "_parse_observations", None)  # a miss would fail
    cached = load_observations_csv(tmp_path / "obs.csv", ids, coords)
    assert parsed.timestamps == cached.timestamps == stamps
    for loaded in (parsed, cached):
        assert_array_equal(loaded.time_axis.keys, time_axis_of(stamps).keys)
        assert_array_equal(loaded.time_axis.offsets, time_axis_of(stamps).offsets)
    t_h, t_f = 6, 4
    a, b = split_windows(parsed, t_h, t_f), split_windows(cached, t_h, t_f)
    for name in ("train", "val", "test"):
        got, again = getattr(a, name), getattr(b, name)
        first = got.span.start + t_h
        assert_array_equal(got.calendar, again.calendar)
        assert_array_equal(got.calendar, reference(stamps[first : first + len(got)]))
