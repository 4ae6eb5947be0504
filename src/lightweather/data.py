"""Station/observation CSV ingestion, chronological splits, sliding-window
samples, and per-variable z-score normalization (or the identity).

File formats (UTF-8, comma-separated, header required):

  stations CSV:      station_id,lat,lon,elev
  observations CSV:  timestamp,station_id,var_0[,var_1,...]

Observation timestamps are ISO-8601 on a uniform hourly or daily grid, in
long format (one row per timestamp and station); they are either all
timezone-aware or all naive. Missing cells (empty or `nan`) take the last
observed value of their station and variable; a station missing more than
10% of its cells, or its very first value, is an ingestion error, and so
is an infinite value.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, IngestionError, ValidationError
from .model import COMPUTE_DTYPE, StationCoord, TimeFeature

STATIONS_HEADER = ["station_id", "lat", "lon", "elev"]
_STORE_BLOCK = 256  # steps series_rows normalizes at a time


@contextmanager
def _utf8_text(path):
    """`path` opened as UTF-8 text for csv; bytes that do not decode are
    an IngestionError naming the first line that holds them."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise IngestionError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from exc


def load_stations_csv(path) -> tuple[list[str], list[StationCoord]]:
    """Read the station table; order is preserved."""
    ids: list[str] = []
    coords: list[StationCoord] = []
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != STATIONS_HEADER:
            raise IngestionError(
                f"{path}: expected header {','.join(STATIONS_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise IngestionError(f"{path}: line {lineno}: expected 4 columns")
            sid = row[0].strip()
            try:
                lat, lon, elev = (float(v) for v in row[1:])
            except ValueError as exc:
                raise IngestionError(f"{path}: line {lineno}: {exc}") from exc
            coord = StationCoord(latitude=lat, longitude=lon, elevation=elev)
            try:
                coord.validate()
            except Exception as exc:
                raise IngestionError(f"{path}: line {lineno}: {exc}") from exc
            if sid in ids:
                raise IngestionError(f"{path}: line {lineno}: duplicate station {sid}")
            ids.append(sid)
            coords.append(coord)
    if not ids:
        raise IngestionError(f"{path}: no stations")
    return ids, coords


def write_stations_csv(path, ids: list[str], coords: list[StationCoord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATIONS_HEADER)
        for sid, c in zip(ids, coords):
            writer.writerow([sid, repr(c.latitude), repr(c.longitude), repr(c.elevation)])


@dataclass
class ObservationSet:
    """Aligned station metadata, timestamps, and a [T, N, C] value tensor."""

    timestamps: list[datetime]
    station_ids: list[str]
    coords: list[StationCoord]
    values: np.ndarray
    var_names: list[str]
    interval: timedelta

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_stations(self) -> int:
        return self.values.shape[1]

    @property
    def n_vars(self) -> int:
        return self.values.shape[2]


def _parse_timestamp(raw: str, path, lineno: int) -> datetime:
    try:
        return datetime.fromisoformat(raw.strip())
    except ValueError as exc:
        raise IngestionError(f"{path}: line {lineno}: bad timestamp {raw!r}") from exc


def load_observations_csv(
    path, station_ids: list[str], coords: list[StationCoord]
) -> ObservationSet:
    """Read long-format observations into a dense [T, N, C] tensor.

    Stations are ordered per the station table; rows may arrive in any
    order but each (timestamp, station) pair at most once.
    """
    sid_index = {sid: i for i, sid in enumerate(station_ids)}
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + n_vars:
                raise IngestionError(
                    f"{path}: line {lineno}: expected {2 + n_vars} columns"
                )
            ts = _parse_timestamp(row[0], path, lineno)
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

    return ObservationSet(
        timestamps=timestamps,
        station_ids=list(station_ids),
        coords=list(coords),
        values=values,
        var_names=var_names,
        interval=interval,
    )


def write_observations_csv(path, obs: ObservationSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "station_id"] + list(obs.var_names))
        for t, ts in enumerate(obs.timestamps):
            for si, sid in enumerate(obs.station_ids):
                writer.writerow(
                    [ts.isoformat(), sid]
                    + [repr(float(v)) for v in obs.values[t, si, :]]
                )


def chronological_split(
    n_total: int, t_h: int | None = None, t_f: int | None = None
) -> tuple[range, range, range]:
    """Time-ordered 7:1:2 partition into train/val/test index ranges."""
    n_train = int(np.floor(0.7 * n_total))
    n_val = int(np.floor(0.1 * n_total))
    train = range(0, n_train)
    val = range(n_train, n_train + n_val)
    test = range(n_train + n_val, n_total)
    if t_h is not None and t_f is not None:
        need = t_h + t_f
        for name, span in (("train", train), ("val", val), ("test", test)):
            if len(span) < need:
                raise ConfigError(
                    f"{name} split has {len(span)} steps; needs >= {need} "
                    f"for T_h={t_h}, T_f={t_f}"
                )
    return train, val, test


def _windows(rows: np.ndarray, width: int) -> np.ndarray:
    """[R, T] rows -> a read-only [T - width + 1, R, width] view of every
    stride-1 window (no windows when width > T)."""
    if width > rows.shape[1]:
        return np.empty((0, rows.shape[0], width), rows.dtype)
    return sliding_window_view(rows, width, axis=1).transpose(1, 0, 2)


class WindowSet:
    """Every stride-1 window fully inside one split's `span` of steps
    (len - T_h - T_f + 1 of them), served as index-gathered batches.

    `store` is the series the model reads (series_rows): COMPUTE_DTYPE rows
    [N*C, T], one per (station, variable), shared by the splits of one
    dataset. `raw_values` keeps the original float64 [T, N, C] series for
    metrics and the HI baseline. Windows are strided views of the store; a
    batch copies each window's rows once, already in the (window, station,
    variable) row order of model.forward_rows.
    """

    def __init__(self, store, raw_values, timestamps, span: range, t_h: int, t_f: int):
        self.store = store
        self.raw_values = raw_values
        n_windows = max(len(span) - t_h - t_f + 1, 0)
        self.starts = np.arange(span.start, span.start + n_windows, dtype=np.intp)
        self.t_h = t_h
        self.t_f = t_f
        self._history = _windows(store, t_h)  # [s] -> rows of steps s .. s+T_h-1
        self._future = _windows(store[:, t_h:], t_f)  # [s] -> s+T_h .. s+T_h+T_f-1
        feats = [TimeFeature.from_timestamp(timestamps[s + t_h]) for s in self.starts]
        self.hours = np.array([f.hour for f in feats], dtype=np.intp)
        self.days = np.array([f.day_index for f in feats], dtype=np.intp)
        self.months = np.array([f.month_index for f in feats], dtype=np.intp)

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_stations(self) -> int:
        return self.raw_values.shape[1]

    @property
    def n_vars(self) -> int:
        return self.raw_values.shape[2]

    def batch(self, idx, raw_future: bool = False) -> dict:
        """Gather windows idx: "history", the model's rows [B*N*C, T_h]
        ordered (window, station, variable); the calendar indices "hours",
        "days" and "months" [B]; and either "future", the target rows
        [B*N*C, T_f] that fit's loss reads, or with raw_future
        "future_raw", the original-unit float64 target rows [B*N*C, T_f],
        in the same row order, that evaluate scores."""
        idx = np.asarray(idx, dtype=np.intp)
        s = self.starts[idx]
        out = {"history": self._history[s].reshape(-1, self.t_h)}
        if raw_future:
            raw = self.raw_values[s[:, None] + self.t_h + np.arange(self.t_f)]
            out["future_raw"] = np.ascontiguousarray(raw.transpose(0, 2, 3, 1)).reshape(-1, self.t_f)
        else:
            out["future"] = self._future[s].reshape(-1, self.t_f)
        out.update(hours=self.hours[idx], days=self.days[idx], months=self.months[idx])
        return out


def series_rows(values: np.ndarray, norm: Normalizer) -> np.ndarray:
    """The model's copy of a [T, N, C] series: COMPUTE_DTYPE rows [N*C, T],
    one per (station, variable), z-scored with `norm`. Built a block of
    steps at a time through one reused float64 buffer, so no float64 copy
    of the whole series is made; each value is normalized in float64 and
    then rounded, as normalize_apply followed by a cast would. A value that
    overflows COMPUTE_DTYPE becomes inf (split_windows rejects it)."""
    n_steps = values.shape[0]
    rows = np.empty((values[0].size, n_steps), dtype=COMPUTE_DTYPE)
    buf = np.empty((min(_STORE_BLOCK, n_steps), *values.shape[1:]))
    with np.errstate(over="ignore"):
        for lo in range(0, n_steps, _STORE_BLOCK):
            block = values[lo : lo + _STORE_BLOCK]
            block = normalize_apply(block, norm, out=buf[: len(block)])
            rows[:, lo : lo + len(block)] = block.reshape(len(block), -1).T
    return rows


@dataclass
class Normalizer:
    """Per-variable z-score fitted on the training split only."""

    mean: np.ndarray  # [C]
    std: np.ndarray  # [C]

    @classmethod
    def identity(cls, n_vars: int) -> Normalizer:  # applies and inverts exactly
        return cls(mean=np.zeros(n_vars), std=np.ones(n_vars))


def normalize_fit(values: np.ndarray, span: range | None = None) -> Normalizer:
    data = values[span.start : span.stop] if span is not None else values
    mean = data.mean(axis=(0, 1))
    std = data.std(axis=(0, 1))
    for vi, s in enumerate(std):
        if s <= 0.0:
            raise IngestionError(f"degenerate variable {vi}: zero variance")
    return Normalizer(mean=mean, std=std)


def normalize_apply(values: np.ndarray, norm: Normalizer, out=None) -> np.ndarray:
    """(values - mean) / std, written into `out` when given."""
    out = np.subtract(values, norm.mean, out=out)
    out /= norm.std
    return out


def normalize_invert(values: np.ndarray, norm: Normalizer) -> np.ndarray:
    return values * norm.std + norm.mean


@dataclass
class PreparedData:
    train: WindowSet
    val: WindowSet
    test: WindowSet
    normalizer: Normalizer


def split_windows(
    obs: ObservationSet, t_h: int, t_f: int, normalize: bool = True
) -> PreparedData:
    """Split 7:1:2, fit the normalizer on train (the identity when
    `normalize` is off), store the model's series once (series_rows) and
    window every split over it.

    A value that is finite in float64 but not in COMPUTE_DTYPE once
    normalized (above about 3.4e38 for float32) is a ValidationError that
    names its station, variable and timestamp.
    """
    train_span, val_span, test_span = chronological_split(obs.n_steps, t_h, t_f)
    norm = normalize_fit(obs.values, train_span) if normalize else Normalizer.identity(obs.n_vars)
    store = series_rows(obs.values, norm)
    if not np.isfinite(store).all():
        t, row = np.argwhere(~np.isfinite(store.T))[0]  # the earliest step first
        si, vi = divmod(int(row), obs.n_vars)
        raise ValidationError(
            f"station {obs.station_ids[si]}: variable {obs.var_names[vi]}: value "
            f"{float(obs.values[t, si, vi])!r} at {obs.timestamps[t].isoformat()} is not "
            f"finite in {np.dtype(COMPUTE_DTYPE)}"
            + (" after normalization" if normalize else "")
        )
    sets = [
        WindowSet(store, obs.values, obs.timestamps, span, t_h, t_f)
        for span in (train_span, val_span, test_span)
    ]
    return PreparedData(train=sets[0], val=sets[1], test=sets[2], normalizer=norm)
