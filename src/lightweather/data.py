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
tokenized by csv.reader instead, from the block that holds one. Each
block's rows are scattered straight into the float64 [T, N, C] result
(_ObservationGrid), which grows in place as new timestamps appear and is
put in time order once at the end, when the file's first uses were not.
So its memory is that grid (with up to an eighth to spare), one byte per
(timestamp, station) cell for the duplicate check, 16 bytes per distinct
timestamp and one block with its columns: on 473,040 rows of one variable
(27 stations x 17,520 hours) a tracemalloc peak of 1.6 times the 3.8 MB
result, against 21 times for the per-row csv loop it replaced. A file
with gaps is forward-filled in place, a step at a time, and one whose
first uses are out of time order is put in order in place, one row of
scratch per cycle of the permutation.

Each loaded result is cached beside its file, in `<file>.lwcache`, keyed
by a format version (_SIDECAR_VERSION), the SHA-256 of the file's bytes,
the station ids and csv.field_size_limit(). A load hashes the file
(about 25 ms on narrow-train's 21.7 MB); when the sidecar's key matches
and its CRC32 holds it reads the result from there and parses nothing,
else it parses the file and writes the sidecar through a temp file and
os.replace, if the file's size and mtime did not change during the load.
A missing, short, corrupt, foreign or stale sidecar is a miss and a
sidecar that cannot be written is skipped: neither is an error. A file
that fails to load writes none, so its error is raised on every load.
Layout: the magic `LWCACHE`, a little-endian uint32 manifest size and
uint32 CRC32 of the manifest and the data, a JSON manifest (the key, the
step count, whether the timestamps are timezone-aware, the variable
names), then the timestamps as int64 microseconds since 1970 (in UTC when
aware), each step's UTC offset in microseconds when aware, and the
float64 [T, N, C] values, all little-endian: 8 bytes per cell and 8 (16
when aware) per step. A hit reads the values with np.fromfile into the
one array it returns. Deleting the sidecar clears the cache; changing
what the loader accepts or returns must bump _SIDECAR_VERSION.

write_observations_csv writes the bytes csv.writer writes a row at a
time, formatting a block of _WRITE_ROWS rows with one join and one write.

split_windows makes no copy of the series. Each split (WindowSet) makes
the float32 rows of its own span with series_rows the first time a batch
gathers history or future rows from it, under its lock, so that of the
workers that gather together only one makes them, and keeps them. A
prepared dataset holds the float64 series alone until a split is read:
forecast makes no rows, and evaluate only the test split's.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import stat
import struct
import threading
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, IngestionError, ShapeError, ValidationError
from .files import write_atomically
from .model import COMPUTE_DTYPE, StationCoord, calendar

STATIONS_HEADER = ["station_id", "lat", "lon", "elev"]
_BLOCK_BYTES = 1 << 20  # float64 bytes in one block of steps (_block_steps)
_CSV_BLOCK = 1 << 18  # bytes of whole lines load_observations_csv parses at a time
_FIELD_WIDTH = 64  # longer fields are parsed line by line, not column-wise
_WRITE_ROWS = 1 << 14  # rows write_observations_csv formats at a time
_HASH_CHUNK = 1 << 20  # bytes _sha256 reads at a time
_SIDECAR = ".lwcache"  # load_observations_csv's cache: the file's path + this
_SIDECAR_VERSION = 1  # bump when what the loader accepts or returns changes
_SIDECAR_MAGIC = b"LWCACHE"
_SIDECAR_HEAD = struct.Struct("<7sII")  # magic, manifest size, CRC32 of manifest and data


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
    ids: dict[str, None] = {}  # in file order, with a constant-time duplicate check
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
            ids[sid] = None
            coords.append(coord)
    if not ids:
        raise IngestionError(f"{path}: no stations")
    return list(ids), coords


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


_US = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _EPOCH.replace(tzinfo=timezone.utc)
_BAD = np.iinfo(np.int64).min  # the key of a field that is no timestamp
# `YYYY-MM-DDTHH:MM:SS` byte by byte: the least and the greatest byte each
# place takes, and each digit's weight in year, month, day, hour, minute
# and second
_ISO_LO = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_ISO_HI = np.frombuffer(b"9999-99-99T99:99:99", np.uint8)
_ISO_PARTS = ((0, 4), (5, 2), (8, 2), (11, 2), (14, 2), (17, 2))  # (first byte, digits)
_ISO_WEIGHTS = np.array(
    [[10.0 ** (at + n - 1 - i) if at <= i < at + n else 0.0 for at, n in _ISO_PARTS] for i in range(19)]
)
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _timestamp_key(ts: datetime) -> int:
    """The grid key of `ts`: microseconds since 1970 (on its wall clock when
    naive, in UTC when aware) times two, plus one when aware. Keys are equal
    when the datetimes are: aware ones at the same instant, and a naive one
    never equals an aware one."""
    if ts.tzinfo is None:
        return (ts - _EPOCH) // _US * 2
    return (ts - _UTC_EPOCH) // _US * 2 + 1


def _key_datetime(key: int, aware: datetime | None) -> datetime:
    """The datetime of `key`: `aware` when given, else the naive one."""
    return aware if aware is not None else _EPOCH + int(key) // 2 * _US


def _iso_keys(m: np.ndarray) -> np.ndarray:
    """Keys of the rows of [n, 19] uint8 matrix `m` that read
    `YYYY-MM-DDTHH:MM:SS` with every part in the range fromisoformat
    allows; _BAD for every other row."""
    ok = ((m >= _ISO_LO) & (m <= _ISO_HI)).all(axis=1)
    parts = ((m - _ISO_LO) @ _ISO_WEIGHTS).astype(np.int64)
    year, month, day, hour, minute, second = parts.T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= day <= _DAYS_IN_MONTH[np.where(ok, month, 0)] + ((month == 2) & leap)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    # days since 1970-01-01 in the proleptic Gregorian calendar, counted in
    # 400-year eras of years that start in March
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    seconds = ((days * 24 + hour) * 60 + minute) * 60 + second
    return np.where(ok, seconds * 2_000_000, _BAD)


def _needs_csv(raw: bytes) -> bool:
    """True when `raw` holds a quote or a CR that does not end a CRLF:
    bytes that only csv.reader tokenizes as csv does."""
    return b'"' in raw or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"))


def _line_blocks(fh, offset: int):
    """(byte offset, bytes) of the whole lines of binary `fh` from `offset`
    on, about _CSV_BLOCK bytes at a time: a block that ends inside a line
    takes the rest of it, so a longer line makes a longer block. The file's
    last line may lack its newline."""
    fh.seek(offset)
    while block := fh.read(_CSV_BLOCK):
        if not block.endswith(b"\n"):
            block += fh.readline()
        yield offset, block
        offset += len(block)


def _fixed_width(pad: np.ndarray, start: np.ndarray, width: np.ndarray, min_width: int = 1):
    """The fields pad[start : start + width] as one bytes array, NUL-padded
    to a whole number of 8-byte words, so that its items also read as
    little-endian uint64 words; `pad` runs at least _FIELD_WIDTH + 8 bytes
    past every field's start."""
    w = -(-max(int(width.max(initial=0)), min_width) // 8) * 8
    # the w bytes from each byte of pad, as items: a gather copies each field
    # in one piece
    out = np.ndarray((len(pad) - w + 1,), f"S{w}", pad, 0, (1,))[start]
    if not len(out):
        return out
    if (width == width[0]).all():
        mask = _byte_masks(w)[width[0]]
    else:
        mask = _byte_masks(w).view(f"S{w}").ravel()[width].view(np.uint8).reshape(-1, w)
    np.bitwise_and(out.view(np.uint8).reshape(-1, w), mask, out=out.view(np.uint8).reshape(-1, w))
    return out


@functools.cache
def _byte_masks(w: int) -> np.ndarray:
    """[w + 1, w] uint8: row k keeps the first k bytes of a w-byte item."""
    return np.tril(np.full((w + 1, w), 0xFF, np.uint8), -1)


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


class _ObservationGrid:
    """The rows of one observations file, checked line by line in file order
    and scattered, a block of lines at a time, into a float64 grid
    [timestamp id, station, variable].

    A timestamp id counts distinct timestamps in the order of the first row
    that holds each; rows find theirs through an integer key per timestamp
    (_timestamp_key). The grid and its [id, station] `seen` mask grow in
    place (ndarray.resize) by an eighth or more as new timestamps appear,
    and `finish` puts the ids in time order.
    """

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
        # and those of at most 8 bytes as the uint64 word of an 8-byte field
        short = sorted(
            (int.from_bytes(raw, "little"), i) for raw, i in exact if len(raw) <= 8
        )
        self.known8 = np.array([word for word, _ in short], dtype=np.uint64)
        self.known8_index = np.array([i for _, i in short], dtype=np.intp)
        self.n_ids = 0
        self.sorted_keys = np.empty(0, np.int64)  # every key seen, ascending
        self.sorted_ids = np.empty(0, np.intp)  # and the id of each
        self.aware: dict[int, datetime] = {}  # id -> first datetime, aware ids only
        self.values = np.empty((0, len(station_ids), n_vars))
        self.seen = np.zeros((0, len(station_ids)), bool)

    def _timestamp_column(self, col: np.ndarray, width: np.ndarray):
        """Keys of a column of timestamp fields (_BAD for a field that is no
        timestamp) and, per field, its datetime when aware, else None. A run
        of equal fields is parsed once: `YYYY-MM-DDTHH:MM:SS` by arithmetic
        (_iso_keys), any other form with fromisoformat once per distinct
        field."""
        change = np.ones(len(col), bool)
        change[1:] = False
        words = col.view("<u8").reshape(len(col), col.itemsize // 8)
        for k in range(words.shape[1]):
            change[1:] |= words[1:, k] != words[:-1, k]
        heads = np.flatnonzero(change)
        col, width = col[heads], width[heads]
        keys = np.full(len(col), _BAD)
        iso = np.flatnonzero(width == 19)
        if len(iso):
            keys[iso] = _iso_keys(col[iso].view(np.uint8).reshape(len(iso), -1)[:, :19])
        aware = np.full(len(col), None, object)
        slow = np.flatnonzero(keys == _BAD)
        if len(slow):
            uniq, inv = np.unique(col[slow], return_inverse=True)
            parsed = []
            for raw in uniq.tolist():
                try:
                    ts = datetime.fromisoformat(raw.decode("utf-8").strip())
                    parsed.append((_timestamp_key(ts), ts if ts.tzinfo is not None else None))
                except ValueError:
                    parsed.append((_BAD, None))
            keys[slow] = np.array([k for k, _ in parsed], np.int64)[inv]
            aware[slow] = np.array([ts for _, ts in parsed], object)[inv]
        run = np.cumsum(change) - 1
        return keys[run], aware[run]

    def _station_column(self, col: np.ndarray) -> np.ndarray:
        """Station indices of a column of station fields, -1 if unknown; a
        field that is not an id byte for byte is stripped and looked up
        once per distinct value."""
        out = np.full(len(col), -1, np.intp)
        hit = np.zeros(len(col), bool)
        known, index, fields = self.known, self.known_index, col
        if col.itemsize == 8:  # one word per field: look the words up
            known, index, fields = self.known8, self.known8_index, col.view("<u8")
        if len(known):
            pos = np.searchsorted(known, fields).clip(max=len(known) - 1)
            hit = known[pos] == fields
            out[hit] = index[pos[hit]]
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
        aware = ts if ts.tzinfo is not None else None
        return lineno, _timestamp_key(ts), aware, self.sid_index[sid], vals

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

    def parse_block(self, block: bytes, lineno: int) -> int | None:
        """Take `block`, whole lines, the first of them line `lineno`, and
        return the number of newlines in it; or take nothing and return None
        when it holds a quote or a CR that does not end a CRLF, bytes that
        only csv.reader tokenizes as csv does. The columnar pass takes the
        lines with the right field count whose fields all parse; every other
        non-blank line is read again by parse_record, in line order, so the
        first offending line raises its error."""
        if b'"' in block:
            return None
        a = np.frombuffer(block, np.uint8)
        delim = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
        newline = a[delim] == ord("\n")
        ends = delim[newline]
        n_newlines = len(ends)
        crlf = None
        if b"\r" in block:
            crlf = (ends > 0) & (a[ends - 1] == ord("\r"))
            if np.count_nonzero(a == ord("\r")) != np.count_nonzero(crlf):
                return None
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError as exc:
                cut = block.rfind(b"\n", 0, exc.start) + 1
                if cut:
                    self.parse_block(block[:cut], lineno)  # an earlier error first
                raise _not_utf8(self.path, exc) from exc
        if not block.endswith(b"\n"):
            ends = np.append(ends, len(a))
            delim = np.append(delim, len(a))
            newline = np.append(newline, True)
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        # the delimiter that ends each field of each line: when there are
        # n_cols per line and every n_cols-th is a newline, every line holds
        # n_cols - 1 commas
        n_cols = 2 + self.n_vars
        regular = np.ones(len(ends), bool)
        if len(delim) == n_cols * len(ends) and newline[n_cols - 1 :: n_cols].all():
            field_end = delim.reshape(-1, n_cols)
        else:
            commas = delim[~newline]
            upto = np.searchsorted(commas, ends)  # commas before each line's end
            regular = np.diff(upto, prepend=0) == n_cols - 1
            field_end = np.zeros((len(ends), n_cols), np.intp)
            first = upto[regular] - (n_cols - 1)
            field_end[regular, :-1] = commas[first[:, None] + np.arange(n_cols - 1)]
        if b"\0" in block:
            regular[np.searchsorted(ends, np.flatnonzero(a == 0))] = False
        if crlf is not None:  # each CR ends a CRLF: drop it
            ends[:n_newlines] -= crlf
        filled = ends > starts  # a blank line is skipped, but counted

        idx = np.flatnonzero(regular & filled)
        sel = slice(None) if len(idx) == len(ends) else idx  # no copy when all are
        field_end = field_end[sel]
        lo = [starts[sel]] + [field_end[:, j] + 1 for j in range(n_cols - 1)]
        width = [field_end[:, j] - lo[j] for j in range(n_cols - 1)] + [ends[sel] - lo[-1]]
        # a field over the csv limit is not narrow, so parse_record reads its
        # line and raises the limit's error
        limit = csv.field_size_limit()
        widest = min(_FIELD_WIDTH, limit)
        if max(int(w.max(initial=0)) for w in width) > widest:
            narrow = np.logical_and.reduce([w <= widest for w in width])
            idx, lo, width = idx[narrow], [x[narrow] for x in lo], [w[narrow] for w in width]
        pad = np.zeros(len(a) + _FIELD_WIDTH + 8, np.uint8)
        pad[: len(a)] = a
        keys, aware = self._timestamp_column(_fixed_width(pad, lo[0], width[0]), width[0])
        station = self._station_column(_fixed_width(pad, lo[1], width[1]))
        ok = (keys != _BAD) & (station >= 0)
        values = np.empty((len(idx), self.n_vars))
        for j in range(2, n_cols):
            col = _fixed_width(pad, lo[j], width[j], min_width=3)
            col[width[j] == 0] = b"nan"  # an empty cell is missing
            ok &= _parse_floats(col, values[:, j - 2])
        del pad, col, lo, width  # freed before the grid grows

        taken = np.zeros(len(ends), bool)
        taken[idx[ok]] = True
        lines = lineno + idx[ok]
        rows, error_line = [], None
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
        keep = np.flatnonzero(ok)
        if error_line is not None:
            keep = keep[lines < error_line]
            lines = lines[lines < error_line]
        self._commit(lines, keys[keep], aware[keep], station[keep], values[keep], rows)
        if error_line is not None:
            raise error
        return n_newlines

    def _commit_records(self, rows: list[tuple]) -> None:
        empty = np.empty(0, np.intp)
        none = np.empty(0, object)
        self._commit(empty, empty, none, empty, np.empty((0, self.n_vars)), rows)

    def _ids(self, keys: np.ndarray, aware: np.ndarray) -> np.ndarray:
        """The timestamp id of each key, given in line order: a key not seen
        before takes the next id, in the order of its first row, and keeps
        that row's datetime when aware. A run of equal keys is looked up
        once."""
        change = np.ones(len(keys), bool)
        change[1:] = keys[1:] != keys[:-1]
        heads = np.flatnonzero(change)
        uniq, first, inv = np.unique(keys[heads], return_index=True, return_inverse=True)
        first = heads[first]
        pos = np.searchsorted(self.sorted_keys, uniq)
        found = pos < len(self.sorted_keys)
        found[found] = self.sorted_keys[pos[found]] == uniq[found]
        ids = np.empty(len(uniq), np.intp)
        ids[found] = self.sorted_ids[pos[found]]
        new = np.flatnonzero(~found)
        if len(new):
            by_use = new[np.argsort(first[new])]
            ids[by_use] = np.arange(self.n_ids, self.n_ids + len(new))
            self.n_ids += len(new)
            for u in by_use[uniq[by_use] & 1 == 1].tolist():
                self.aware[int(ids[u])] = aware[first[u]]
            self.sorted_keys = np.insert(self.sorted_keys, pos[new], uniq[new])
            self.sorted_ids = np.insert(self.sorted_ids, pos[new], ids[new])
        return ids[inv][np.cumsum(change) - 1]

    def _commit(self, lines, keys, aware, station, values, rows: list[tuple]) -> None:
        """Scatter valid rows, given as arrays plus parse_record tuples, into
        the grid; a row whose (timestamp, station) an earlier line holds is
        an error."""
        if rows:
            more_lines, more_keys, more_aware, more_station, more_values = zip(*rows)
            lines = np.concatenate([lines, more_lines])
            keys = np.concatenate([keys, more_keys])
            aware = np.concatenate([aware, np.array(more_aware, object)])
            station = np.concatenate([station, more_station])
            values = np.concatenate([values, np.array(more_values).reshape(-1, self.n_vars)])
            order = np.argsort(lines, kind="stable")
            lines, keys, aware, station, values = (
                x[order] for x in (lines, keys, aware, station, values)
            )
        if not len(lines):
            return
        ids = self._ids(keys, aware)
        n_stations = len(self.station_ids)
        if self.n_ids > len(self.seen):
            cap = max(self.n_ids, len(self.seen) * 9 // 8)
            self.values.resize((cap, n_stations, self.n_vars), refcheck=False)
            self.seen.resize((cap, n_stations), refcheck=False)
        cell = ids * n_stations + station
        seen = self.seen.reshape(-1)
        dup = seen[cell]
        if (np.diff(cell) <= 0).any():  # a cell may repeat inside this chunk
            later = np.ones(len(cell), bool)
            later[np.unique(cell, return_index=True)[1]] = False
            dup |= later
        if dup.any():
            r = int(np.argmax(dup))
            raise IngestionError(
                f"{self.path}: line {lines[r]}: duplicate "
                f"({_key_datetime(keys[r], aware[r]).isoformat()}, {self.station_ids[station[r]]})"
            )
        seen[cell] = True
        self.values.reshape(-1, self.n_vars)[cell] = values

    def finish(self) -> tuple[np.ndarray, list[datetime], timedelta, np.ndarray]:
        """The sorted timestamps, as int64 microseconds since 1970 (in UTC
        when aware) and as datetimes, their interval and the [T, N, C]
        values, put in time order in place, NaN where no row gave a cell;
        the grid's checks (at least two timestamps, one kind, one interval)
        in the per-row loop's order and words."""
        path = self.path
        if not self.n_ids:
            raise IngestionError(f"{path}: no observations")
        is_aware = self.sorted_keys & 1 == 1
        if self.aware and not is_aware.all():  # aware and naive datetimes do not compare
            naive = np.flatnonzero(~is_aware)
            first = naive[np.argmin(self.sorted_ids[naive])]
            raise IngestionError(
                f"{path}: timestamps mix timezone-aware "
                f"({self.aware[min(self.aware)].isoformat()}) and "
                f"naive ({_key_datetime(self.sorted_keys[first], None).isoformat()}) values"
            )
        if self.n_ids < 2:
            raise IngestionError(f"{path}: need at least 2 timestamps to fix the interval")
        if self.aware:
            timestamps = [self.aware[i] for i in self.sorted_ids.tolist()]
        else:
            timestamps = (self.sorted_keys // 2).astype("datetime64[us]").tolist()
        steps = np.diff(self.sorted_keys // 2)
        interval = timedelta(microseconds=int(steps[0]))
        uneven = np.flatnonzero(steps != steps[0])
        if len(uneven):
            t = int(uneven[0])
            raise IngestionError(
                f"{path}: non-uniform timestamp grid at {timestamps[t + 1].isoformat()} "
                f"(step {timedelta(microseconds=int(steps[t]))}, expected {interval})"
            )

        n_stations = len(self.station_ids)
        values, seen = self.values, self.seen
        values.resize((self.n_ids, n_stations, self.n_vars), refcheck=False)
        seen.resize((self.n_ids, n_stations), refcheck=False)
        if not seen.all():
            values[~seen] = np.nan
        _take_rows_in_place(values, self.sorted_ids)
        return self.sorted_keys // 2, timestamps, interval, values


def _take_rows_in_place(a: np.ndarray, order: np.ndarray) -> None:
    """a[:] = a[order] for a permutation `order` of a's rows, in place:
    each cycle of the permutation is followed with one row of scratch."""
    moved = np.flatnonzero(order != np.arange(len(order)))
    if not len(moved):
        return
    order, done, row = order.tolist(), set(), np.empty_like(a[0])
    for start in moved.tolist():
        if start in done:
            continue
        row[...] = a[start]
        i = start
        while order[i] != start:
            a[i] = a[order[i]]
            done.add(i)
            i = order[i]
        a[i] = row
        done.add(i)


def load_observations_csv(
    path, station_ids: list[str], coords: list[StationCoord]
) -> ObservationSet:
    """Read long-format observations into a dense [T, N, C] tensor.

    Stations are ordered per the station table; rows may arrive in any
    order but each (timestamp, station) pair at most once.

    The result is cached beside the file, in `<path>.lwcache`: a load of a
    file whose bytes have the SHA-256 that the sidecar was written for, with
    the same station ids, reads the tensor from the sidecar and parses
    nothing (_read_sidecar). Every other load parses the file
    (_parse_observations) and then writes the sidecar, unless the file's
    size or mtime changed meanwhile. A sidecar that cannot be read or
    written is a miss, never an error, and a file that fails to load
    writes none.
    """
    state = _regular_file_state(path)
    key = None
    if state is not None:  # not a pipe or a device, whose bytes read once
        key = {
            "version": _SIDECAR_VERSION,
            "sha256": _sha256(path),
            "station_ids": list(station_ids),
            "field_size_limit": csv.field_size_limit(),
        }
    loaded = _read_sidecar(path, key) if key is not None else None
    if loaded is None:
        loaded = _parse_observations(path, station_ids)
        if key is not None and _regular_file_state(path) == state:
            _write_sidecar(path, key, *loaded)
    _, timestamps, interval, values, var_names = loaded
    return ObservationSet(
        timestamps=timestamps,
        station_ids=list(station_ids),
        coords=list(coords),
        values=values,
        var_names=var_names,
        interval=interval,
    )


def _parse_observations(path, station_ids: list[str]):
    """Parse the observations file: (the sorted timestamps as int64
    microseconds since 1970, in UTC when aware; the timestamps; their
    interval; the forward-filled [T, N, C] values; the variable names).

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
            grid = _ObservationGrid(path, station_ids, n_vars)
            if _needs_csv(first):
                grid.parse_records(records)
            else:
                text.detach()
                lineno = 2
                for offset, block in _line_blocks(fh, len(first)):
                    taken = grid.parse_block(block, lineno)
                    if taken is None:  # csv.reader tokenizes the rest
                        fh.seek(offset)
                        text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
                        grid.parse_records(_csv_records(text, path, lineno))
                        break
                    lineno += taken
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc

    keys, timestamps, interval, values = grid.finish()
    n_steps = len(timestamps)
    infinite = np.argwhere(np.isinf(values))
    if len(infinite):
        t, si, vi = infinite[0]
        raise IngestionError(
            f"{path}: station {station_ids[si]}: variable {var_names[vi]}: "
            f"non-finite value {values[t, si, vi]} at {timestamps[t].isoformat()}"
        )

    # forward fill in place, bounded by the 10% rule: each step with a gap
    # takes the step before it where it has one, and its gaps are counted
    # (min propagates NaN: a file without gaps skips this)
    if np.isnan(values.min()):
        first = np.isnan(values[0])  # [N, C]: no earlier step to take from
        counts = np.zeros(len(station_ids), np.intp)
        block = _block_steps(values)
        for lo in range(0, n_steps, block):
            gappy = np.isnan(values[lo : lo + block]).any(axis=(1, 2))
            for t in (lo + np.flatnonzero(gappy)).tolist():
                gap = np.isnan(values[t])
                counts += gap.sum(axis=1)
                if t:
                    np.copyto(values[t], values[t - 1], where=gap)
        too_many = counts > 0.10 * n_steps * n_vars
        for si in np.flatnonzero(too_many | first.any(axis=1)):  # the first raises
            if too_many[si]:
                raise IngestionError(
                    f"{path}: station {station_ids[si]}: {counts[si]} missing cells exceed 10%"
                )
            vi = np.flatnonzero(first[si])[0]
            raise IngestionError(
                f"{path}: station {station_ids[si]}: variable {var_names[vi]} missing at the "
                f"first timestamp; cannot forward fill"
            )
    return keys, timestamps, interval, values, var_names


def _regular_file_state(path) -> tuple[int, int] | None:
    """(size, mtime_ns) of `path` when it is a regular file, else None."""
    try:
        st = os.stat(path)
    except OSError:  # the parse reports it
        return None
    return (st.st_size, st.st_mtime_ns) if stat.S_ISREG(st.st_mode) else None


def _sha256(path) -> str:
    """The SHA-256 of the file's bytes, read _HASH_CHUNK bytes at a time
    (hashlib.file_digest needs Python 3.11)."""
    digest = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _sidecar_path(path) -> str:
    return os.fspath(path) + _SIDECAR


def _read_sidecar(path, key: dict):
    """What _parse_observations returned for the file, read from its
    sidecar when the sidecar's manifest holds `key` and its CRC32 holds;
    None for a missing, short, corrupt, foreign or stale sidecar. The
    sidecar's size is checked against its manifest's shape before any
    array is read, so a manifest that claims a huge shape allocates
    nothing. (The CRC32 catches corruption, not a forged sidecar: that
    takes write access to the file's directory, as editing the file does.)
    """
    try:
        with open(_sidecar_path(path), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_SIDECAR_HEAD.size)
            if len(head) != _SIDECAR_HEAD.size:
                return None
            magic, manifest_size, crc = _SIDECAR_HEAD.unpack(head)
            if magic != _SIDECAR_MAGIC or _SIDECAR_HEAD.size + manifest_size > size:
                return None
            blob = fh.read(manifest_size)
            manifest = json.loads(blob)
            if not isinstance(manifest, dict) or any(manifest.get(k) != v for k, v in key.items()):
                return None
            n_steps, var_names = manifest["n_steps"], manifest["var_names"]
            if type(n_steps) is not int or n_steps < 2:
                return None
            aware = manifest["aware"] is True
            shape = (n_steps, len(key["station_ids"]), len(var_names))
            per_step = 2 if aware else 1  # the key, and the UTC offset when aware
            data = 8 * n_steps * (per_step + shape[1] * shape[2])
            if size != _SIDECAR_HEAD.size + manifest_size + data:
                return None
            steps = np.fromfile(fh, "<i8", per_step * n_steps)
            values = np.fromfile(fh, "<f8", math.prod(shape))
        if zlib.crc32(values, zlib.crc32(steps, zlib.crc32(blob))) != crc:
            return None
        keys = steps[:n_steps]
        if aware:
            offsets = steps[n_steps:].tolist()
            zones = {off: timezone(off * _US) for off in set(offsets)}
            walls = (keys + steps[n_steps:]).astype("datetime64[us]").tolist()
            timestamps = [wall.replace(tzinfo=zones[off]) for wall, off in zip(walls, offsets)]
        else:
            timestamps = keys.astype("datetime64[us]").tolist()
        interval = timedelta(microseconds=int(keys[1] - keys[0]))
        values = values.astype(np.float64, copy=False).reshape(shape)
        return keys, timestamps, interval, values, var_names
    except (OSError, ValueError, TypeError, KeyError, AttributeError, OverflowError):
        return None


def _write_sidecar(path, key: dict, keys, timestamps, interval, values, var_names) -> None:
    """Write what _parse_observations returned to the file's sidecar,
    under `key`: a magic, the manifest's size and the CRC32 of the
    manifest and the data (_SIDECAR_HEAD), a JSON manifest (the key, the
    step count, whether the timestamps are aware and the variable names),
    then little-endian int64 keys, each step's UTC offset in microseconds
    when aware, and the float64 values. It replaces the sidecar whole
    (files.write_atomically); a write that fails leaves none and raises
    nothing."""
    aware = timestamps[0].tzinfo is not None
    if aware:
        keys = np.concatenate([keys, [ts.utcoffset() // _US for ts in timestamps]])
    manifest = {**key, "n_steps": len(timestamps), "aware": aware, "var_names": var_names}
    blob = json.dumps(manifest).encode("utf-8")
    steps = np.ascontiguousarray(keys, "<i8")
    values = np.ascontiguousarray(values, "<f8")
    crc = zlib.crc32(values, zlib.crc32(steps, zlib.crc32(blob)))
    with suppress(OSError), write_atomically(_sidecar_path(path)) as fh:
        fh.write(_SIDECAR_HEAD.pack(_SIDECAR_MAGIC, len(blob), crc))
        fh.write(blob)
        fh.write(steps)
        fh.write(values)


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it after another field of its row."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["t", text])
    return buf.getvalue()[2:-2]


def write_observations_csv(path, obs: ObservationSet) -> None:
    """Write `obs` as csv.writer writes it a row at a time, byte for byte
    (the repr of each value, csv's quoting of station ids, CRLF line ends),
    but formatted _WRITE_ROWS rows at a time: one isoformat per timestamp,
    one repr per value and one write per block."""
    n_steps, n_stations, n_vars = obs.values.shape
    sep = "," if n_vars else ""
    sids = [_csv_field(sid) + sep for sid in obs.station_ids]
    per_block = max(1, _WRITE_ROWS // max(1, n_stations))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["timestamp", "station_id"] + list(obs.var_names))
        for lo in range(0, n_steps, per_block):
            cells = map(repr, obs.values[lo : lo + per_block].ravel().tolist())
            rows = map(",".join, zip(*[cells] * n_vars)) if n_vars else itertools.repeat("")
            lines = []
            for ts in obs.timestamps[lo : lo + per_block]:
                stamp = ts.isoformat() + ","
                lines += [stamp + sid + row for sid, row in zip(sids, rows)]
            if lines:
                fh.write("\r\n".join(lines) + "\r\n")


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

    `raw_values` is the original float64 [T, N, C] series, which metrics,
    the HI baseline and forecast read. The model reads the split's rows
    (rows): its span of the series normalized with `norm` into
    COMPUTE_DTYPE, made by series_rows the first time a batch gathers
    history or future rows and kept, so a split that is never trained on
    or scored holds no copy. Windows are strided views of those rows, and
    of the raw series for future_raw, indexed at start - span.start; a
    batch copies each window's rows once, already in the (window, station,
    variable) row order of model.forward_rows. `calendar` is the
    model.calendar of each window's first forecast step."""

    def __init__(self, raw_values, norm, timestamps, span: range, t_h: int, t_f: int):
        self.raw_values = raw_values
        self.norm = norm
        self.span = span
        n_windows = max(len(span) - t_h - t_f + 1, 0)
        self.starts = np.arange(span.start, span.start + n_windows, dtype=np.intp)
        self.t_h = t_h
        self.t_f = t_f
        raw = raw_values[span.start : span.stop]
        # [k] -> original-unit rows of steps start+T_h .. start+T_h+T_f-1, from a [N*C, T] view
        self._raw = _windows(raw.reshape(len(raw), self.n_stations * self.n_vars).T[:, t_h:], t_f)
        self._views = None  # (rows, history windows, future windows), made by rows
        self._lock = threading.Lock()  # the first of the workers to gather makes them
        self.calendar = calendar(timestamps[span.start + t_h : span.start + t_h + n_windows])

    def rows(self) -> np.ndarray:
        """The split's model rows [N*C, len(span)], one per (station,
        variable): series_rows of its span of raw_values, made on the first
        call (once, whichever thread calls first) and kept."""
        with self._lock:
            if self._views is None:
                rows = series_rows(self.raw_values[self.span.start : self.span.stop], self.norm)
                history = _windows(rows, self.t_h)  # [k] -> rows of steps start .. start+T_h-1
                future = _windows(rows[:, self.t_h :], self.t_f)  # [k] -> the T_f steps after
                self._views = rows, history, future
            return self._views[0]

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_stations(self) -> int:
        return self.raw_values.shape[1]

    @property
    def n_vars(self) -> int:
        return self.raw_values.shape[2]

    def batch(self, idx, out: dict | None = None) -> dict:
        """Gather windows idx, an index array or a slice of consecutive
        windows, into the first rows of the buffers in `out`, a dict of
        arrays of at least B*N*C rows each, under the keys to gather:
        "history", the model's rows [B*N*C, T_h] ordered (window, station,
        variable); "future", the target rows [B*N*C, T_f] that fit's loss
        reads; "future_raw", the original-unit float64 target rows in the
        same row order. Without `out`, history and future are gathered into
        fresh arrays. The first gather of history or future makes the
        split's rows (rows). A slice is copied in one pass from strided
        views, an index array window by window, so no temporary is made
        (numpy's take would materialize the windows' view); a slice whose
        step is not 1, or that selects nothing, is gathered as the index
        array it selects. Returns those rows under the same keys. A buffer
        too short or of another width is a ShapeError.
        """
        if isinstance(idx, slice):
            r = range(len(self))[idx]  # the windows it selects
            if r.step != 1 or not r:
                idx = np.arange(r.start, r.stop, r.step)
        if isinstance(idx, slice):
            n = len(r)
            pieces = [(slice(None), slice(r.start, r.start + n))]  # (batch windows, view windows)
        else:
            starts = (self.starts[np.asarray(idx, dtype=np.intp)] - self.span.start).tolist()
            n, pieces = len(starts), list(enumerate(starts))
        if out is None:
            out = {
                key: np.empty((n * self.n_stations * self.n_vars, width), COMPUTE_DTYPE)
                for key, width in (("history", self.t_h), ("future", self.t_f))
            }
        sources = {"future_raw": self._raw}
        if out.keys() & {"history", "future"}:
            self.rows()
            sources.update(history=self._views[1], future=self._views[2])
        got = {}
        for key, buf in out.items():
            view = sources[key]
            _, n_rows, width = view.shape
            if buf.ndim != 2 or buf.shape[0] < n * n_rows or buf.shape[1] != width:
                raise ShapeError(
                    f"out[{key!r}] {buf.shape} cannot hold {n} windows of {n_rows} rows x {width}"
                )
            rows = buf[: n * n_rows]
            windows = rows.reshape(n, n_rows, width)
            for to, at in pieces:
                windows[to] = view[at]
            got[key] = rows
        return got


def _block_steps(values: np.ndarray) -> int:
    """Steps of a [T, N, C] series in one block of _BLOCK_BYTES float64
    bytes, at least one: a block's buffer stays small at any station count."""
    return max(1, _BLOCK_BYTES // (8 * max(1, math.prod(values.shape[1:]))))


def series_rows(values: np.ndarray, norm: Normalizer) -> np.ndarray:
    """The model's copy of a [T, N, C] series, or of a split's span of it
    (WindowSet.rows): COMPUTE_DTYPE rows [N*C, T], one per (station,
    variable), z-scored with `norm`. Built a block of steps at a time
    (_block_steps) through one reused float64 buffer, so no float64 copy
    of the series is made; each value is normalized in float64 and then
    rounded, as normalize_apply followed by a cast would, so a span's rows
    are the bits of the whole series' rows over that span. A value that
    overflows COMPUTE_DTYPE becomes inf (split_windows rejects it)."""
    n_steps = values.shape[0]
    rows = np.empty((math.prod(values.shape[1:]), n_steps), dtype=COMPUTE_DTYPE)
    step = _block_steps(values)
    buf = np.empty((min(step, n_steps), *values.shape[1:]))
    with np.errstate(over="ignore"):
        for lo in range(0, n_steps, step):
            block = values[lo : lo + step]
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


def _pairwise_squares(flat: np.ndarray, mean: np.ndarray) -> np.float64:
    """sum((flat - mean)**2) over a 1-D span as numpy sums it, pairwise:
    n values split at n/2 rounded down to a multiple of 8, and each
    subtree of at most one block summed by np.add.reduce on its own
    squares."""
    n = len(flat)
    if n <= _BLOCK_BYTES // 8:
        sq = np.subtract(flat, mean)
        return np.add.reduce(np.multiply(sq, sq, out=sq))
    half = n // 2 - n // 2 % 8
    return _pairwise_squares(flat[:half], mean) + _pairwise_squares(flat[half:], mean)


def _squared_deviations(data: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """sum((data - mean)**2) over axes (0, 1) of a C-contiguous [T, N, C]
    array, the sum numpy's std takes, a block of at most _BLOCK_BYTES at a
    time instead of over one temporary of the whole array, with numpy's
    summation order and so its bits. With C = 1 the reduction runs over
    one contiguous span, which numpy sums pairwise (_pairwise_squares).
    With C > 1 numpy adds each (step, station) row of C values into the
    [C] sums in turn, so each block's rows are added after the sums so
    far, which sit in the row before them."""
    n_vars = data.shape[-1]
    if n_vars == 1:
        return np.array([_pairwise_squares(data.reshape(-1), mean)])
    rows = data.reshape(-1, n_vars)
    step = max(1, _BLOCK_BYTES // 8 // n_vars)
    buf = np.zeros((1 + min(step, len(rows)), n_vars))  # row 0: the sums so far
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        sq = np.subtract(block, mean, out=buf[1 : 1 + len(block)])
        np.multiply(sq, sq, out=sq)
        buf[0] = np.add.reduce(buf[: 1 + len(block)], axis=0)
    return buf[0].copy()


def normalize_fit(values: np.ndarray, span: range | None = None) -> Normalizer:
    """Mean and std per variable over `span`'s steps of a [T, N, C] series
    (all of them when None), with the bits of numpy's
    values[span].mean/std(axis=(0, 1)) but no temporary of the span:
    _squared_deviations takes the variance's sum block by block in
    numpy's summation order. numpy does not promise that order, so
    tests/test_data.py checks the bits against numpy's own std, and a
    numpy that sums otherwise fails there. numpy sums a series that is not
    C-contiguous in its memory order, so such a series takes numpy's std.
    Zero variance is an IngestionError."""
    data = values[span.start : span.stop] if span is not None else values
    mean = data.mean(axis=(0, 1))
    if data.flags.c_contiguous:
        std = np.sqrt(_squared_deviations(data, mean) / (data.shape[0] * data.shape[1]))
    else:
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


def normalize_invert(values: np.ndarray, norm: Normalizer, out=None) -> np.ndarray:
    """values * std + mean, written into `out` when given. values is cast
    into `out` first and scaled there, with the same bits: a multiply that
    casts as it goes allocates a 64 KiB buffer per call."""
    if out is None:
        out = np.multiply(values, norm.std)
    else:
        np.copyto(out, values)
        out *= norm.std
    out += norm.mean
    return out


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
    `normalize` is off) and window every split over the series. No copy
    of the series is made here: each split makes its model rows on first
    use (WindowSet.rows).

    A value that is finite in float64 but not in COMPUTE_DTYPE once
    normalized (above about 3.4e38 for float32), or a NaN, is a
    ValidationError that names its station, variable and timestamp, the
    earliest step's lowest (station, variable) row when there are several.
    Normalization is monotone in each variable, so only each variable's
    normalized min and max are checked, and the series is scanned a block
    of steps at a time only when one of them is not finite.
    """
    train_span, val_span, test_span = chronological_split(obs.n_steps, t_h, t_f)
    norm = normalize_fit(obs.values, train_span) if normalize else Normalizer.identity(obs.n_vars)
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = normalize_apply(
            np.stack([obs.values.min(axis=(0, 1)), obs.values.max(axis=(0, 1))]), norm
        )
        finite = np.isfinite(bounds.astype(COMPUTE_DTYPE)).all()
    if not finite:
        step = _block_steps(obs.values)
        for lo in range(0, obs.n_steps, step):
            bad = np.argwhere(~np.isfinite(series_rows(obs.values[lo : lo + step], norm).T))
            if len(bad):
                t, row = bad[0] + (lo, 0)  # the earliest step first, then the lowest row
                si, vi = divmod(int(row), obs.n_vars)
                raise ValidationError(
                    f"station {obs.station_ids[si]}: variable {obs.var_names[vi]}: value "
                    f"{float(obs.values[t, si, vi])!r} at {obs.timestamps[t].isoformat()} is "
                    f"not finite in {np.dtype(COMPUTE_DTYPE)}"
                    + (" after normalization" if normalize else "")
                )
    sets = [
        WindowSet(obs.values, norm, obs.timestamps, span, t_h, t_f)
        for span in (train_span, val_span, test_span)
    ]
    return PreparedData(train=sets[0], val=sets[1], test=sets[2], normalizer=norm)
