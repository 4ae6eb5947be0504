"""Synthetic station datasets with known ground-truth dynamics.

Each station's series follows an autoregressive recurrence driven by a
deterministic forcing term G(lat, lon, elev, t) plus optional Gaussian
noise:

    v[t] = sum_i alpha[i] * v[t-1-i] + G(coord, t) + noise_std * eps[t]

G combines a longitude-phased, latitude-damped diurnal harmonic, an annual
harmonic, and an elevation offset, so that learning it exercises the hour
and month tables and all three coordinates of the spatial encoder. The
first len(alpha) warm-up steps are standard-normal draws so the AR part is
observable from step one. Per-station noise streams are seeded by
(seed, station index), making generation order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .data import ObservationSet
from .errors import ConfigError
from .model import StationCoord

DEFAULT_START = datetime(2019, 1, 1, 0, 0, 0)


@dataclass
class SynthConfig:
    n_stations: int = 50
    n_steps: int = 20000
    interval_hours: int = 1
    alpha: tuple[float, ...] = ()
    amp_diurnal: float = 3.0
    amp_annual: float = 2.0
    amp_elev: float = 1.0
    noise_std: float = 0.0
    seed: int = 0
    start: datetime = field(default_factory=lambda: DEFAULT_START)

    def validate(self, t_h: int | None = None, t_f: int | None = None) -> None:
        if self.n_stations < 1 or self.n_steps < 1 or self.interval_hours < 1:
            raise ConfigError("n_stations, n_steps, interval_hours must be >= 1")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        gain = sum(abs(a) for a in self.alpha)
        if gain >= 1.0:
            raise ConfigError(
                f"unstable alpha: sum of |coefficients| is {gain}, must be < 1"
            )
        # window sizes are only known downstream; enforce the 10x margin when given
        window = (t_h + t_f) if (t_h and t_f) else max(len(self.alpha), 1)
        if self.n_steps < 10 * window:
            raise ConfigError(
                f"n_steps {self.n_steps} < 10 * window ({10 * window}); "
                f"series too short to train on"
            )


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
    hour = np.array([ts.hour + ts.minute / 60.0 for ts in timestamps])
    doy = np.array([ts.timetuple().tm_yday for ts in timestamps], dtype=np.float64)
    lat = np.array([c.latitude for c in coords])
    lon = np.array([c.longitude for c in coords])
    elev = np.array([c.elevation for c in coords])
    diurnal = config.amp_diurnal * np.sin(
        2.0 * np.pi * hour[:, None] / 24.0 + lon[None, :] * np.pi / 180.0
    ) * np.cos(lat[None, :] * np.pi / 180.0)
    annual = config.amp_annual * np.sin(2.0 * np.pi * doy / 365.25)
    return diurnal + annual[:, None] + config.amp_elev * (elev[None, :] / 1000.0)


def random_station_coords(n: int, seed: int) -> tuple[list[str], list[StationCoord]]:
    """Deterministic station layout spread over latitudes, longitudes, and
    elevations so the forcing term differs visibly across stations."""
    rng = np.random.default_rng([seed, 7919])
    ids = [f"s{i:04d}" for i in range(n)]
    coords = [
        StationCoord(
            latitude=float(rng.uniform(-75.0, 75.0)),
            longitude=float(rng.uniform(-180.0, 180.0)),
            elevation=float(rng.uniform(0.0, 3000.0)),
        )
        for _ in range(n)
    ]
    return ids, coords


def generate(config: SynthConfig, coords: list[StationCoord]) -> ObservationSet:
    """Emit the recurrence as an ObservationSet (single variable "v")."""
    config.validate()
    if len(coords) != config.n_stations:
        raise ConfigError(
            f"got {len(coords)} coords for n_stations={config.n_stations}"
        )
    n_steps, n_stations = config.n_steps, config.n_stations
    step = timedelta(hours=config.interval_hours)
    timestamps = [config.start + i * step for i in range(n_steps)]
    forcing = g_matrix(coords, timestamps, config)  # [T, N]

    draws = np.empty((n_steps, n_stations))
    for si in range(n_stations):
        draws[:, si] = np.random.default_rng([config.seed, si]).standard_normal(n_steps)

    p = len(config.alpha)
    alpha = np.asarray(config.alpha, dtype=np.float64)
    values = np.empty((n_steps, n_stations))
    values[:p] = draws[:p]  # warm-up, unit-variance
    if p == 0:
        values[:] = forcing + config.noise_std * draws
    else:
        for t in range(p, n_steps):
            ar = alpha @ values[t - p : t][::-1]  # v[t-1], v[t-2], ..., v[t-p]
            values[t] = ar + forcing[t] + config.noise_std * draws[t]

    ids = [f"s{i:04d}" for i in range(n_stations)]
    return ObservationSet(
        timestamps=timestamps,
        station_ids=ids,
        coords=list(coords),
        values=values[:, :, None],
        var_names=["v"],
        interval=step,
    )
