"""Reference implementations that the tests check the package against.

No command runs these; each is the plainest form of something the package
computes another way:
- g_function, the forcing G at one station and time in scalar math, and
  g_matrix, G on the full [T, N] grid as synthetic.generate builds it;
- finite_diff_check, central differences against a hand-derived gradient;
- RowBatch, a training batch already laid out as rows in memory, which
  model.loss_and_grads takes as it takes the WindowBatch that fit gives it;
- leaf_sha256, the sidecar key's leaf-tree digest of a file's bytes,
  hashed serially from the bytes in memory;
- time_axis_of, the data.TimeAxis of a list of datetimes a step at a
  time, and observations_at, which builds an ObservationSet from one;
- timestamp_key, a timestamp's parse-grid key and UTC offset by datetime
  arithmetic;
- lwckpt1_save, the writer of the earlier checkpoint format, LWCKPT1, kept
  as it was, whose files checkpoint_load must still read;
- container_parts and container_bytes, the container layout of
  container.py taken apart and put together by hand, with which the tests
  write a manifest that lies but holds its CRC32, and
  container_corruptions, every way the tests break a container file.

The module has no test_ prefix, so pytest does not collect it; test
modules import it by name (pytest puts tests/ on the path).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import zlib
from dataclasses import asdict
from datetime import datetime, timedelta, timezone
from typing import Callable

import numpy as np

from lightweather.checkpoint import LWCKPT1
from lightweather.data import ObservationSet, TimeAxis
from lightweather.errors import ShapeError
from lightweather.files import write_atomically
from lightweather.model import ModelConfig, ModelParams, StationCoord, Workspace, _stations_of_rows
from lightweather.synthetic import SynthConfig, _Forcing


_US = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _EPOCH.replace(tzinfo=timezone.utc)


def time_axis_of(timestamps: list[datetime]) -> TimeAxis:
    """The TimeAxis of datetimes (aware when the first one is), a step at a
    time: microseconds since 1970 on the wall clock when naive, in UTC
    and with each step's UTC offset when aware."""
    if not timestamps or timestamps[0].tzinfo is None:
        return TimeAxis(np.array([(ts - _EPOCH) // _US for ts in timestamps], np.int64))
    keys = np.array([(ts - _UTC_EPOCH) // _US for ts in timestamps], np.int64)
    return TimeAxis(keys, np.array([ts.utcoffset() // _US for ts in timestamps], np.int64))


def timestamp_key(ts: datetime) -> tuple[int, int]:
    """data._timestamp_key's (grid key, UTC offset in microseconds) as
    datetime arithmetic gives them: microseconds since the epoch times two
    when naive, since the UTC epoch times two plus one when aware, and the
    offset (0 when naive)."""
    if ts.tzinfo is None:
        return (ts - _EPOCH) // _US * 2, 0
    return (ts - _UTC_EPOCH) // _US * 2 + 1, ts.utcoffset() // _US


def observations_at(timestamps: list[datetime], *args, **fields) -> ObservationSet:
    """An ObservationSet whose steps are `timestamps`; the other fields as
    ObservationSet takes them, after its time axis."""
    return ObservationSet(time_axis_of(timestamps), *args, **fields)


def g_function(coord: StationCoord, ts: datetime, config: SynthConfig) -> float:
    """Deterministic spatial-temporal forcing at one station and time."""
    hour = ts.hour + ts.minute / 60.0
    doy = ts.timetuple().tm_yday
    diurnal = (
        config.amp_diurnal
        * math.sin(2.0 * math.pi * hour / 24.0 + coord.longitude * math.pi / 180.0)
        * math.cos(coord.latitude * math.pi / 180.0)
    )
    annual = config.amp_annual * math.sin(2.0 * math.pi * doy / 365.25)
    return diurnal + annual + config.amp_elev * (coord.elevation / 1000.0)


def g_matrix(
    coords: list[StationCoord], timestamps: list[datetime], config: SynthConfig
) -> np.ndarray:
    """g_function evaluated on the full [T, N] grid."""
    grid = np.empty((len(timestamps), len(coords)))
    return _Forcing(coords, time_axis_of(timestamps).wall, config).rows(0, len(timestamps), grid)


LossAndGrad = Callable[[dict], tuple[float, dict]]


def finite_diff_check(
    loss_and_grad: LossAndGrad,
    params: dict[str, np.ndarray],
    perturbation: float = 1e-6,
) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_and_grad(params) must return (loss, grads) with grads mirroring the
    params dict. Parameters are perturbed in place and restored. The relative
    error per entry is |analytic - fd| / max(|analytic|, |fd|, 1e-8).
    """
    _, analytic = loss_and_grad(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        g = np.asarray(analytic[name]).reshape(-1)
        if g.shape != flat.shape:
            raise ShapeError(
                f"gradient for '{name}' has {g.size} entries, "
                f"parameter has {flat.size}"
            )
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + perturbation
            loss_plus, _ = loss_and_grad(params)
            flat[k] = orig - perturbation
            loss_minus, _ = loss_and_grad(params)
            flat[k] = orig
            fd = (loss_plus - loss_minus) / (2.0 * perturbation)
            denom = max(abs(g[k]), abs(fd), 1e-8)
            err = abs(g[k] - fd) / denom
            if err > worst:
                worst = err
    return worst


class RowBatch:
    """A training batch of B windows already laid out as rows, as
    forward_rows reads them: history rows [B*N*C, T_h], target rows
    [B*N*C, T_f] and the windows' calendar [B, 3]. Each chunk of the step
    reads its windows' rows in place."""

    def __init__(self, x_rows, future_rows, calendar):
        self.x_rows, self.future_rows = np.asarray(x_rows), np.asarray(future_rows)
        self.calendar = np.asarray(calendar)

    def rows_per_window(self, cfg: ModelConfig) -> int:
        """N*C, checked against the rows' shapes."""
        rows = self.x_rows.shape[0]
        per_window = _stations_of_rows(self.x_rows, len(self.calendar), cfg) * cfg.n_vars
        if self.future_rows.shape != (rows, cfg.t_f):
            raise ShapeError(
                f"future shape {self.future_rows.shape} != pred shape {(rows, cfg.t_f)}"
            )
        return per_window

    def gather(self, windows: slice, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
        """The history and target rows of the batch's windows `windows`."""
        per_window = self.x_rows.shape[0] // len(self.calendar)
        r = slice(windows.start * per_window, windows.stop * per_window)
        return self.x_rows[r], self.future_rows[r]


def leaf_sha256(raw: bytes, leaf: int) -> str:
    """The SHA-256 of the leaf size and the byte count (two little-endian
    uint64) followed by the SHA-256 of each `leaf`-byte piece of `raw`, in
    order."""
    outer = hashlib.sha256(struct.pack("<QQ", leaf, len(raw)))
    for at in range(0, len(raw), leaf):
        outer.update(hashlib.sha256(raw[at : at + leaf]).digest())
    return outer.hexdigest()


def lwckpt1_save(path, params: ModelParams) -> None:
    """checkpoint_save as it wrote LWCKPT1 files: the magic, a little-endian
    uint32 manifest length, the JSON manifest (the config and each tensor's
    name, shape and "float64", in tensor_spec order), then the vector as
    little-endian float64."""
    manifest = {
        "config": asdict(params.config),
        "tensors": [
            {"name": name, "shape": list(arr.shape), "dtype": "float64"}
            for name, arr in params.tensors.items()
        ],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with write_atomically(path) as fh:
        fh.write(LWCKPT1)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(params.vector, dtype="<f8").tobytes())


_HEAD = struct.Struct("<8sIII")  # magic, version, manifest size, manifest CRC32


def container_parts(raw: bytes) -> tuple[bytes, int, dict, bytes]:
    """A container file's magic, version, manifest and data (the bytes from
    the data start, the first multiple of 64 after the manifest)."""
    magic, version, size, _ = _HEAD.unpack_from(raw)
    manifest = json.loads(raw[_HEAD.size : _HEAD.size + size])
    return magic, version, manifest, raw[-(-(_HEAD.size + size) // 64) * 64 :]


def container_bytes(magic: bytes, version: int, manifest, data: bytes) -> bytes:
    """A container file of these parts, with the manifest's CRC32: the
    manifest as JSON (or as given, when bytes), zeros to the next multiple
    of 64, then the data."""
    blob = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode("utf-8")
    pad = bytes(-(_HEAD.size + len(blob)) % 64)
    return _HEAD.pack(magic, version, len(blob), zlib.crc32(blob)) + blob + pad + data


def edit_container(raw: bytes, edit: Callable) -> bytes:
    """The container file `raw` with edit(manifest) as its manifest, or the
    manifest as edited in place when edit returns None; its data as they
    were, moved to the new data start, and its CRC32 recomputed."""
    magic, version, manifest, data = container_parts(raw)
    edited = edit(manifest)
    return container_bytes(magic, version, manifest if edited is None else edited, data)


def flip(raw: bytes, at: int) -> bytes:
    """`raw` with one bit of byte `at` flipped."""
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1 :]


LEAF = 1 << 20  # bytes of a section under one CRC32, as container.py says


def container_corruptions(raw: bytes) -> dict[str, bytes]:
    """Named copies of the container file `raw`, each broken one way that
    its reader must reject (container.read itself, or its caller for the
    two lies that keep every size: a dtype of the same width and a shape of
    the same size): a flipped byte in each leaf of each section and
    in the manifest; a manifest, its CRC32 recomputed, that lies about a
    section's dtype, shape, offset or size, or makes it unaligned or
    overlap another; and the file cut short inside its head, its manifest,
    its first section and its last byte."""
    magic, version, manifest, data = container_parts(raw)
    start = len(raw) - len(data)
    cases = {"manifest byte flipped": flip(raw, _HEAD.size + 3)}
    sections = manifest["sections"]

    def lie(i: int, **fields) -> bytes:
        return edit_container(raw, lambda m: m["sections"][i].update(fields))

    for i, section in enumerate(sections):
        name, shape, offset = section["name"], section["shape"], section["offset"]
        nbytes = math.prod(shape) * 8
        for leaf in range(-(-nbytes // LEAF)):
            at = start + offset + leaf * LEAF + min(5, nbytes - leaf * LEAF - 1)
            cases[f"{name}: leaf {leaf} byte flipped"] = flip(raw, at)
        other = "<i8" if section["dtype"] == "<f8" else "<f8"
        cases[f"{name}: dtype {other}"] = lie(i, dtype=other)
        cases[f"{name}: same size, another shape"] = lie(i, shape=[1, *shape])
        cases[f"{name}: a step more"] = lie(i, shape=[shape[0] + 1, *shape[1:]])
        cases[f"{name}: a step less"] = lie(i, shape=[shape[0] - 1, *shape[1:]])
        cases[f"{name}: a huge size"] = lie(i, shape=[10**12, *shape[1:]])
        cases[f"{name}: empty, huge axes"] = lie(i, shape=[0, 10**12, 10**12])
        cases[f"{name}: shape of floats"] = lie(i, shape=[float(n) for n in shape])
        cases[f"{name}: 64 bytes later"] = lie(i, offset=offset + 64)
        cases[f"{name}: unaligned"] = lie(i, offset=offset + 8)
        if i and math.prod(sections[i - 1]["shape"]):  # an empty section has no bytes to share
            cases[f"{name}: overlaps {sections[i - 1]['name']}"] = lie(i, offset=sections[i - 1]["offset"])
    cases["a section listed twice"] = edit_container(raw, lambda m: m["sections"].append(sections[-1]))
    extra = {**sections[0], "name": "extra", "shape": [1]}
    cases["a section overlapping the first"] = edit_container(raw, lambda m: m["sections"].append(extra))
    twin = {**sections[-1], "name": "twin"}  # the last one's bytes and CRC32s: only the overlap is wrong
    cases["a section sharing the last one's bytes"] = edit_container(raw, lambda m: m["sections"].append(twin))
    cases["another container version"] = container_bytes(magic, version + 1, manifest, data)
    for where, end in [("head", 10), ("manifest", _HEAD.size + 5), ("first section", start + 9)]:
        cases[f"cut short in its {where}"] = raw[:end]
    cases["cut short by a byte"] = raw[:-1]
    cases["empty"] = b""
    return cases
