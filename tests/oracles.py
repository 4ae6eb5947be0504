"""Reference implementations that the tests check the package against.

No command runs these; each is the plainest form of something the package
computes another way:
- g_function, the forcing G at one station and time in scalar math, and
  g_matrix, G on the full [T, N] grid as synthetic.generate builds it;
- finite_diff_check, central differences against a hand-derived gradient;
- RowBatch, a training batch already laid out as rows in memory, which
  model.loss_and_grads takes as it takes the WindowBatch that fit gives it;
- leaf_sha256, the sidecar key's leaf-tree digest of a file's bytes,
  hashed serially from the bytes in memory.

The module has no test_ prefix, so pytest does not collect it; test
modules import it by name (pytest puts tests/ on the path).
"""

from __future__ import annotations

import hashlib
import math
import struct
from datetime import datetime
from typing import Callable

import numpy as np

from lightweather.data import TimeAxis
from lightweather.errors import ShapeError
from lightweather.model import ModelConfig, StationCoord, Workspace, _stations_of_rows
from lightweather.synthetic import SynthConfig, _Forcing


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
    return _Forcing(coords, TimeAxis.of(timestamps).wall, config).rows(0, len(timestamps), grid)


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
