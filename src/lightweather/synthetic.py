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

Layout: `generate` writes into its one [T, N] float64 `values` array and
builds no other full-size grid. Station si's stream is
np.random.default_rng([seed, si])'s, bit for bit: the SeedSequence words
that seed its PCG64 are computed for all stations at once (_seed_words,
numpy's published hash-mix in uint32 arithmetic) and handed to PCG64,
so no SeedSequence is built per station. Blocks of stations' streams are
drawn into station-major buffers and copied, transposed, down their
columns of `values`, scaled by noise_std after the warm-up rows.
G is held as its parts (`_Forcing`): a diurnal table over the distinct
hour-of-day values (at most 24 x N), the annual term per step and the
elevation term per station. Blocks of rows of G are gathered from those
parts and added, or, with AR terms, run through the recurrence row by row
in place.
The noise blocks, and the forcing blocks without AR terms, run on every
CPU through model.Workers.run, the scheduler of training's and
evaluation's chunks (_in_blocks). Of w workers, each holds one
[STATION_BLOCK // w, T] noise buffer and then one [ROW_BLOCK // w, N]
forcing buffer, all made on the calling thread before the run, and
writes only its own block's columns or rows of `values`. The recurrence
runs on the caller, in one [ROW_BLOCK, N] buffer. So generation holds
`values`, at most one [STATION_BLOCK, T] of noise buffers and then at
most one [ROW_BLOCK, N] of forcing buffers however many CPUs there are,
the T timestamps and a few arrays of length T or N. Every value is the
same floating-point operation on the same inputs as on the full grid, so
the data depend on neither the block sizes nor the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .data import ObservationSet, TimeAxis
from .errors import ConfigError, allocating
from .model import (
    US_PER_DAY,
    US_PER_HOUR,
    StationCoord,
    Workers,
    civil_from_days,
    days_from_civil,
    wall_microseconds,
    worker_count,
)

DEFAULT_START = datetime(2019, 1, 1, 0, 0, 0)
HOUR = timedelta(hours=1)
_US_PER_MINUTE = 60_000_000
# stations and forcing rows that the workers' buffers hold together (see the
# layout above)
STATION_BLOCK = 64
ROW_BLOCK = 256


@dataclass(frozen=True)
class SynthConfig:
    """The generator's settings, checked when made."""

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

    def __post_init__(self):
        if self.n_stations < 1 or self.n_steps < 1 or self.interval_hours < 1:
            raise ConfigError("n_stations, n_steps, interval_hours must be >= 1")
        # in hours: a timedelta of the whole span could itself overflow
        hours_left = (datetime.max.replace(tzinfo=self.start.tzinfo) - self.start) // HOUR
        if (self.n_steps - 1) * self.interval_hours > hours_left:
            raise ConfigError(
                f"{self.n_steps} steps of {self.interval_hours} h from "
                f"{self.start.isoformat()} run past the year {datetime.max.year}"
            )
        for name in ("noise_std", "amp_diurnal", "amp_annual", "amp_elev"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(a) for a in self.alpha):
            raise ConfigError(f"alpha must be finite, got {','.join(map(str, self.alpha))}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        gain = sum(abs(a) for a in self.alpha)
        if gain >= 1.0:
            raise ConfigError(
                f"unstable alpha: sum of |coefficients| is {gain}, must be < 1"
            )
        self.validate()

    def validate(self, t_h: int | None = None, t_f: int | None = None) -> None:
        """n_steps must hold ten windows: of the model's T_h + T_f when both
        are given (they are known only downstream), else of the AR order."""
        window = (t_h + t_f) if (t_h and t_f) else max(len(self.alpha), 1)
        if self.n_steps < 10 * window:
            raise ConfigError(
                f"n_steps {self.n_steps} < 10 * window ({10 * window}); "
                f"series too short to train on"
            )


class _Forcing:
    """G on the [T, N] grid, held as its parts. The diurnal term depends on
    t only through the hour of day, so it is a table over the distinct hour
    values (at most 24 in `generate`, whose steps are whole hours); the
    annual term is one value per step and the elevation term one per
    station. Hour (hour + minute / 60.0) and day of year come from the steps'
    int64 wall-clock microseconds (data.TimeAxis.wall) by integer arithmetic,
    the same floats that datetime's fields gave."""

    def __init__(self, coords: list[StationCoord], wall_us: np.ndarray, config: SynthConfig):
        days, us = np.divmod(wall_us, US_PER_DAY)
        hour = us // US_PER_HOUR + us % US_PER_HOUR // _US_PER_MINUTE / 60.0
        year, _, _ = civil_from_days(days)
        doy = (days - days_from_civil(year, 1, 1) + 1).astype(np.float64)
        lat = np.array([c.latitude for c in coords])
        lon = np.array([c.longitude for c in coords])
        elev = np.array([c.elevation for c in coords])
        # np.unique's inverse indexes the table, so `rows` may take with
        # mode="clip": mode="raise" copies every block through a buffer
        hours, self.hour_index = np.unique(hour, return_inverse=True)
        self.diurnal = config.amp_diurnal * np.sin(
            2.0 * np.pi * hours[:, None] / 24.0 + lon[None, :] * np.pi / 180.0
        ) * np.cos(lat[None, :] * np.pi / 180.0)
        self.annual = config.amp_annual * np.sin(2.0 * np.pi * doy / 365.25)
        self.elev = config.amp_elev * (elev / 1000.0)

    def rows(self, t0: int, t1: int, out: np.ndarray) -> np.ndarray:
        """G at steps t0..t1-1, written into out[: t1 - t0] as
        (diurnal + annual) + elevation; returns that view."""
        out = out[: t1 - t0]
        np.take(self.diurnal, self.hour_index[t0:t1], axis=0, out=out, mode="clip")
        out += self.annual[t0:t1, None]
        out += self.elev
        return out


def random_station_coords(n: int, seed: int) -> tuple[list[str], list[StationCoord]]:
    """Deterministic station layout spread over latitudes, longitudes, and
    elevations so the forcing term differs visibly across stations. Each
    station draws its latitude, longitude and elevation in turn. The draw
    comes before the ids, so that a count too large to allocate is a
    ConfigError before any id is made."""
    rng = np.random.default_rng([seed, 7919])
    with allocating(f"the coordinates of {n} stations"):
        drawn = rng.uniform([-75.0, -180.0, 0.0], [75.0, 180.0, 3000.0], size=(n, 3))
    ids = [f"s{i:04d}" for i in range(n)]
    coords = [StationCoord(lat, lon, elev) for lat, lon, elev in drawn.tolist()]
    return ids, coords


# numpy's SeedSequence hash-mix constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int, stations: np.ndarray) -> np.ndarray:
    """[len(stations), 4] uint64: row i is
    SeedSequence([seed, stations[i]]).generate_state(4, np.uint64), the
    words PCG64 seeds itself from, computed for every station at once in
    uint32 arithmetic. SeedSequence coerces each entropy integer to its
    32-bit words, low first, hashes them into a pool of 4 words and
    hashes the pool out again. A station index fits one word: a grid of
    2**32 stations would not fit in memory."""
    entropy = []
    while True:  # the seed's words, as SeedSequence coerces an integer
        entropy.append(np.full(len(stations), seed & _M32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(stations.astype(np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _M32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> 16)

    zero = np.zeros(len(stations), dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((len(stations), 8), dtype="<u4")
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _M32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 words made by _seed_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64
        return self.words


def _in_blocks(n: int, per_block: int, width: int, task) -> None:
    """task(i0, i1, buffer) for blocks [i0, i1) that cover range(n), run by
    model.Workers: each of w workers holds one [per_block // w, width]
    buffer, made here before the run, so that the buffers together hold at
    most one [per_block, width] block whatever the worker count. A task
    writes only its own block's part of the output."""
    size = min(per_block, n)
    count = min(worker_count(), size)
    b = size // count
    workers = Workers([np.empty((b, width)) for _ in range(count)])
    workers.run(
        -(-n // b), lambda i, buf: task(i * b, min(i * b + b, n), buf), lambda i, _: None
    )


def _draw_noise(config: SynthConfig, values: np.ndarray, p: int) -> None:
    """Each station's stream down its column of `values`: the first p steps
    as drawn (the warm-up), the rest times noise_std. Station si draws
    default_rng([seed, si])'s stream, from a PCG64 seeded with _seed_words.
    Blocks of stations are drawn into station-major buffers (_in_blocks)."""
    n_steps, n_stations = values.shape
    words = _seed_words(config.seed, np.arange(n_stations))

    def draw(s0, s1, draws):
        for si in range(s0, s1):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(words[si])))
            rng.standard_normal(n_steps, out=draws[si - s0])
        block = draws[: s1 - s0].T
        values[:p, s0:s1] = block[:p]  # warm-up, unit-variance
        np.multiply(block[p:], config.noise_std, out=values[p:, s0:s1])

    _in_blocks(n_stations, STATION_BLOCK, n_steps, draw)


def generate(config: SynthConfig, coords: list[StationCoord]) -> ObservationSet:
    """Emit the recurrence as an ObservationSet (single variable "v").

    Its steps are start + i * interval on start's wall clock, made once as
    int64 microseconds: the timestamps list, the forcing's hour and day of
    year and the set's TimeAxis all come from them (an aware start's UTC
    offsets too, when its zone is a fixed offset)."""
    if len(coords) != config.n_stations:
        raise ConfigError(
            f"got {len(coords)} coords for n_stations={config.n_stations}"
        )
    n_steps, n_stations = config.n_steps, config.n_stations
    with allocating(f"a grid of {n_steps} x {n_stations} values"):
        values = np.empty((n_steps, n_stations))
    step = config.interval_hours * HOUR
    # start + i * step on the wall clock, as datetime adds (the UTC offset
    # is left as it is)
    wall = wall_microseconds(config.start) + np.arange(n_steps, dtype=np.int64) * (
        config.interval_hours * US_PER_HOUR
    )
    timestamps = wall.astype("datetime64[us]").tolist()
    axis = TimeAxis(wall)
    if config.start.tzinfo is not None:
        timestamps = [ts.replace(tzinfo=config.start.tzinfo) for ts in timestamps]
        # a fixed offset is every step's; any other zone's offsets are read
        # from the datetimes when the axis is first used
        axis = None
        if isinstance(config.start.tzinfo, timezone):
            offset = config.start.utcoffset() // timedelta(microseconds=1)
            axis = TimeAxis(wall - offset, np.full(n_steps, offset))
    forcing = _Forcing(coords, wall, config)

    p = len(config.alpha)
    _draw_noise(config, values, p)
    if p == 0:
        def add(t0, t1, rows):
            values[t0:t1] += forcing.rows(t0, t1, rows)

        _in_blocks(n_steps, ROW_BLOCK, n_stations, add)
    else:  # the recurrence, row by row
        alpha = np.asarray(config.alpha, dtype=np.float64)
        rows = np.empty((min(ROW_BLOCK, n_steps), n_stations))
        for t0 in range(p, n_steps, ROW_BLOCK):
            t1 = min(t0 + ROW_BLOCK, n_steps)
            f = forcing.rows(t0, t1, rows)
            for t in range(t0, t1):
                ar = alpha @ values[t - p : t][::-1]  # v[t-1], v[t-2], ..., v[t-p]
                ar += f[t - t0]
                values[t] += ar

    ids = [f"s{i:04d}" for i in range(n_stations)]
    return ObservationSet(
        timestamps=timestamps,
        station_ids=ids,
        coords=list(coords),
        values=values[:, :, None],
        var_names=["v"],
        interval=step,
        axis=axis,
    )
