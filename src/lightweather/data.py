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

Both files are tokenized as csv.reader tokenizes them with the default
dialect: a field may be quoted (`"s0001"` is `s0001`), lines may end in
LF, CRLF or a bare CR, and blank lines are skipped but counted in line
numbers. Station ids and observation fields are stripped (str.strip)
before they are parsed. A field longer than csv.field_size_limit() is an
ingestion error naming its line.

load_observations_csv reads the observation rows column-wise from the
file's bytes, _CSV_BLOCK bytes of whole lines at a time (a longer line
makes a longer block); a file whose bytes hold a quote or a bare CR is
tokenized by csv.reader instead, from the block that holds one. Its memory
is one block and its columns, 8 bytes per row plus 8 per value for the
rows read so far, one byte per (timestamp, station) cell for the duplicate
check, and the [T, N, C] float64 result: on 473,040 rows of one variable
(27 stations x 17,520 hours), a tracemalloc peak of 18 MB against 79 MB
for the per-row csv loop it replaced.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, IngestionError, ValidationError
from .model import COMPUTE_DTYPE, StationCoord, TimeFeature

STATIONS_HEADER = ["station_id", "lat", "lon", "elev"]
_STORE_BLOCK = 256  # steps series_rows normalizes at a time
_CSV_BLOCK = 1 << 18  # bytes of whole lines load_observations_csv parses at a time
_FIELD_WIDTH = 64  # longer fields are parsed line by line, not column-wise


def _not_utf8(path, exc: UnicodeDecodeError) -> IngestionError:
    """The error for a file whose bytes do not decode, naming the first line
    that holds such bytes."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return IngestionError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})")


@contextmanager
def _utf8_text(path):
    """`path` opened as UTF-8 text for csv; bytes that do not decode are
    an IngestionError naming the first line that holds them."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _csv_records(fh, path, lineno: int = 1):
    """(line number, fields) of each csv record of `fh`, numbered from
    `lineno`; a blank line is an empty record. What csv cannot tokenize (a
    field over csv.field_size_limit(), say) is an IngestionError naming its
    line."""
    reader = csv.reader(fh)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {lineno}: {exc}") from exc
        yield lineno, row
        lineno += 1


def load_stations_csv(path) -> tuple[list[str], list[StationCoord]]:
    """Read the station table; order is preserved."""
    ids: list[str] = []
    coords: list[StationCoord] = []
    with _utf8_text(path) as fh:
        records = _csv_records(fh, path)
        header = next(records, (1, None))[1]
        if header is None or [h.strip() for h in header] != STATIONS_HEADER:
            raise IngestionError(
                f"{path}: expected header {','.join(STATIONS_HEADER)}, got {header}"
            )
        for lineno, row in records:
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


def _needs_csv(raw: bytes) -> bool:
    """True when `raw` holds a quote or a CR that does not end a CRLF:
    bytes that only csv.reader tokenizes as csv does."""
    return b'"' in raw or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"))


def _line_blocks(fh, offset: int):
    """(byte offset, bytes) of the whole lines of binary `fh` from `offset`
    on, about _CSV_BLOCK bytes at a time. A line longer than that makes a
    longer block; the file's last line may lack its newline."""
    fh.seek(offset)
    tail = b""
    while chunk := fh.read(_CSV_BLOCK):
        buf = tail + chunk
        cut = buf.rfind(b"\n") + 1
        if cut:
            yield offset, buf[:cut]
            offset += cut
        tail = buf[cut:]
    if tail:
        yield offset, tail


def _grown(a: np.ndarray, size: int, fill) -> np.ndarray:
    """`a`, or a copy at least twice as long, padded with `fill`, when it is
    shorter than `size`."""
    if len(a) >= size:
        return a
    out = np.full(max(size, 2 * len(a)), fill, a.dtype)
    out[: len(a)] = a
    return out


def _fixed_width(pad: np.ndarray, start: np.ndarray, width: np.ndarray, min_width: int = 1):
    """The fields pad[start : start + width] as one NUL-padded bytes array;
    `pad` runs at least _FIELD_WIDTH bytes past every field's start."""
    w = max(int(width.max(initial=0)), min_width)
    out = sliding_window_view(pad, w)[start]
    out[np.arange(w) >= width[:, None]] = 0
    return out.view(f"S{w}").ravel()


def _parse_floats(col: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the numbers in bytes array `col` to `out`, by numpy's cast, or
    cell by cell with float() when the cast rejects one; returns the mask
    of the cells that parsed."""
    ok = np.ones(len(col), bool)
    try:
        out[:] = col.astype(np.float64)
    except ValueError:
        for i, raw in enumerate(col.tolist()):
            try:
                out[i] = float(raw)
            except ValueError:
                ok[i] = False
    return ok


class _ObservationRows:
    """The rows of one observations file, checked line by line in file
    order and kept as compact per-row arrays (timestamp id, station index,
    values), a block of lines at a time."""

    def __init__(self, path, station_ids: list[str], n_vars: int):
        self.path = path
        self.station_ids = station_ids
        self.sid_index = {sid: i for i, sid in enumerate(station_ids)}
        self.n_vars = n_vars
        # the ids a field can equal byte for byte, sorted (a fixed-width
        # array drops trailing NULs, so an id with a NUL never matches so)
        exact = sorted(
            (sid.encode("utf-8"), i)
            for sid, i in self.sid_index.items()
            if sid == sid.strip() and "\0" not in sid
        )
        self.known = np.array([raw for raw, _ in exact], dtype=bytes)
        self.known_index = np.array([i for _, i in exact], dtype=np.intp)
        self.string_ids: dict[bytes, int] = {}  # raw timestamp field -> string id
        self.string_ts: list[datetime | None] = []  # string id -> datetime, None if bad
        self.string_step = np.empty(0, np.intp)  # string id -> timestamp id, -1 if unused
        # timestamp -> id, in the order of the first row that holds it
        self.timestamp_ids: dict[datetime, int] = {}
        self.seen = np.zeros(0, bool)  # [timestamp id * N + station index]
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def _string_id(self, raw: bytes, ts: datetime | None = None) -> int:
        """The id of timestamp field `raw`, parsed once; -1 if it is not one."""
        sid = self.string_ids.get(raw)
        if sid is None:
            if ts is None:
                try:
                    ts = datetime.fromisoformat(raw.decode("utf-8").strip())
                except ValueError:
                    pass
            sid = self.string_ids[raw] = len(self.string_ts)
            self.string_ts.append(ts)
        return sid if self.string_ts[sid] is not None else -1

    def _timestamp_column(self, col: np.ndarray) -> np.ndarray:
        """String ids of a column of timestamp fields, each distinct field
        looked up once (a run of equal fields counts once)."""
        change = np.ones(len(col), bool)
        change[1:] = col[1:] != col[:-1]
        uniq, inv = np.unique(col[change], return_inverse=True)
        ids = np.array([self._string_id(raw) for raw in uniq.tolist()], dtype=np.intp)
        return ids[inv][np.cumsum(change) - 1]

    def _station_column(self, col: np.ndarray) -> np.ndarray:
        """Station indices of a column of station fields, -1 if unknown; a
        field that is not an id byte for byte is stripped and looked up
        once per distinct value."""
        out = np.full(len(col), -1, np.intp)
        hit = np.zeros(len(col), bool)
        if len(self.known):
            pos = np.searchsorted(self.known, col).clip(max=len(self.known) - 1)
            hit = self.known[pos] == col
            out[hit] = self.known_index[pos[hit]]
        if not hit.all():
            uniq, inv = np.unique(col[~hit], return_inverse=True)
            found = [self.sid_index.get(raw.decode("utf-8").strip(), -1) for raw in uniq.tolist()]
            out[~hit] = np.array(found, dtype=np.intp)[inv]
        return out

    def parse_record(self, row: list[str], lineno: int) -> tuple:
        """One line's fields, checked as the per-row loop always did:
        columns, timestamp, station, then values left to right."""
        path, n_cols = self.path, 2 + self.n_vars
        if len(row) != n_cols:
            raise IngestionError(f"{path}: line {lineno}: expected {n_cols} columns")
        ts = _parse_timestamp(row[0], path, lineno)
        sid = row[1].strip()
        if sid not in self.sid_index:
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
        return lineno, self._string_id(row[0].encode("utf-8"), ts), self.sid_index[sid], vals

    def parse_records(self, records) -> None:
        """Take csv records (line number, fields) one at a time."""
        rows, error = [], None
        try:
            for lineno, row in records:
                if row:
                    rows.append(self.parse_record(row, lineno))
                if len(rows) == _CSV_BLOCK // 32:
                    self._commit_records(rows)
                    rows = []
        except IngestionError as exc:
            error = exc
        except UnicodeDecodeError as exc:
            error = _not_utf8(self.path, exc)
        self._commit_records(rows)  # a duplicate before the error comes first
        if error is not None:
            raise error

    def parse_block(self, block: bytes, lineno: int) -> None:
        """Take `block`, whole lines with no quote and no bare CR, the first
        of them line `lineno`. The columnar pass takes the lines with the
        right field count whose fields all parse; every other non-blank
        line is read again by parse_record, in line order, so the first
        offending line raises its error."""
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                cut = block.rfind(b"\n", 0, exc.start) + 1
                if cut:
                    self.parse_block(block[:cut], lineno)  # an earlier error first
                raise _not_utf8(self.path, exc) from exc
        a = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero(a == ord("\n"))
        if not block.endswith(b"\n"):
            ends = np.append(ends, len(a))
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        commas = np.flatnonzero(a == ord(","))
        upto = np.searchsorted(commas, ends)  # commas before each line's end
        n_cols = 2 + self.n_vars
        regular = np.diff(upto, prepend=0) == n_cols - 1
        if b"\0" in block:
            regular[np.searchsorted(ends, np.flatnonzero(a == 0))] = False
        if b"\r" in block:  # each CR ends a CRLF: drop it
            ends = ends - ((ends > starts) & (a[ends - 1] == ord("\r")))
        filled = ends > starts  # a blank line is skipped, but counted

        idx = np.flatnonzero(regular & filled)
        cut = commas[(upto[idx] - (n_cols - 1))[:, None] + np.arange(n_cols - 1)]
        lo = np.concatenate([starts[idx, None], cut + 1], axis=1)
        width = np.concatenate([cut, ends[idx, None]], axis=1) - lo
        narrow = (width <= _FIELD_WIDTH).all(axis=1)
        idx, lo, width = idx[narrow], lo[narrow], width[narrow]
        pad = np.zeros(len(a) + _FIELD_WIDTH, np.uint8)
        pad[: len(a)] = a
        string_id = self._timestamp_column(_fixed_width(pad, lo[:, 0], width[:, 0]))
        station = self._station_column(_fixed_width(pad, lo[:, 1], width[:, 1]))
        ok = (string_id >= 0) & (station >= 0)
        values = np.empty((len(idx), self.n_vars))
        for j in range(2, n_cols):
            col = _fixed_width(pad, lo[:, j], width[:, j], min_width=3)
            col[width[:, j] == 0] = b"nan"  # an empty cell is missing
            ok &= _parse_floats(col, values[:, j - 2])

        taken = np.zeros(len(ends), bool)
        taken[idx[ok]] = True
        lines = lineno + idx[ok]
        rows, error_line = [], None
        limit = csv.field_size_limit()
        for i in np.flatnonzero(filled & ~taken).tolist():
            row = block[starts[i] : ends[i]].decode("utf-8").split(",")
            try:
                if max(map(len, row)) > limit:  # as csv.reader would say
                    raise IngestionError(
                        f"{self.path}: line {lineno + i}: field larger than field limit ({limit})"
                    )
                rows.append(self.parse_record(row, lineno + i))
            except IngestionError as exc:
                error, error_line = exc, lineno + i
                break
        keep = slice(None) if error_line is None else lines < error_line
        self._commit(lines[keep], string_id[ok][keep], station[ok][keep], values[ok][keep], rows)
        if error_line is not None:
            raise error

    def _commit_records(self, rows: list[tuple]) -> None:
        empty = np.empty(0, np.intp)
        self._commit(empty, empty, empty, np.empty((0, self.n_vars)), rows)

    def _commit(self, lines, string_id, station, values, rows: list[tuple]) -> None:
        """Keep valid rows, given as arrays plus parse_record tuples; a row
        whose (timestamp, station) an earlier line holds is an error."""
        if rows:
            more = [np.array(c) for c in zip(*rows)]
            lines, string_id, station = (
                np.concatenate([x, y]) for x, y in zip((lines, string_id, station), more)
            )
            values = np.concatenate([values, more[3].reshape(-1, self.n_vars)])
            order = np.argsort(lines, kind="stable")
            lines, string_id, station, values = (
                x[order] for x in (lines, string_id, station, values)
            )
        if not len(lines):
            return
        # timestamp ids in order of first use, as the reference's dict keys
        self.string_step = _grown(self.string_step, len(self.string_ts), -1)
        step = self.string_step[string_id]
        new = string_id[step < 0]
        if len(new):
            for s in new[np.sort(np.unique(new, return_index=True)[1])].tolist():
                ts = self.string_ts[s]
                self.string_step[s] = self.timestamp_ids.setdefault(ts, len(self.timestamp_ids))
            step = self.string_step[string_id]
        n_stations = len(self.station_ids)
        self.seen = _grown(self.seen, len(self.timestamp_ids) * n_stations, False)
        key = step * n_stations + station
        dup = self.seen[key]
        if (np.diff(key) <= 0).any():  # a key may repeat inside this chunk
            later = np.ones(len(key), bool)
            later[np.unique(key, return_index=True)[1]] = False
            dup |= later
        if dup.any():
            r = int(np.argmax(dup))
            raise IngestionError(
                f"{self.path}: line {lines[r]}: duplicate "
                f"({self.string_ts[string_id[r]].isoformat()}, {self.station_ids[station[r]]})"
            )
        self.seen[key] = True
        self.chunks.append((step.astype(np.int32), station.astype(np.int32), values))


def load_observations_csv(
    path, station_ids: list[str], coords: list[StationCoord]
) -> ObservationSet:
    """Read long-format observations into a dense [T, N, C] tensor.

    Stations are ordered per the station table; rows may arrive in any
    order but each (timestamp, station) pair at most once.

    The header is read by csv. The rows are read from the file's bytes in
    blocks of whole lines, column-wise, unless the bytes hold a quote or a
    CR that does not end a CRLF: from the block that holds one (or from the
    header, when it does), csv.reader tokenizes the rest of the file. Either
    way each line is checked in the same order, with the same messages, and
    the first offending line is the one reported.
    """
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            records = _csv_records(text, path)
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
            rows = _ObservationRows(path, station_ids, n_vars)
            if _needs_csv(first):
                rows.parse_records(records)
            else:
                text.detach()
                lineno = 2
                for offset, block in _line_blocks(fh, len(first)):
                    if _needs_csv(block):
                        fh.seek(offset)
                        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
                        rows.parse_records(_csv_records(text, path, lineno))
                        break
                    rows.parse_block(block, lineno)
                    lineno += block.count(b"\n")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc

    if not rows.timestamp_ids:
        raise IngestionError(f"{path}: no observations")
    try:
        timestamps = sorted(rows.timestamp_ids)
    except TypeError as exc:  # aware and naive datetimes do not compare
        aware = next(ts for ts in rows.timestamp_ids if ts.tzinfo is not None)
        naive = next(ts for ts in rows.timestamp_ids if ts.tzinfo is None)
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
    grid = {ts: t for t, ts in enumerate(timestamps)}
    to_grid = np.array([grid[ts] for ts in rows.timestamp_ids], dtype=np.intp)
    values = np.full((n_steps, n_stations, n_vars), np.nan)
    while rows.chunks:  # one scatter per chunk of rows, each freed once placed
        steps, stations, vals = rows.chunks.pop()
        values[to_grid[steps], stations] = vals
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
