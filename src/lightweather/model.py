"""The forecasting network: per-series data embedding, absolute spatial and
temporal encodings fused by addition, a residual MLP encoder, and a linear
regression head.

Every (station, variable) series is processed independently by shared
weights; spatial information enters only through the coordinate encoding,
so the parameter count does not depend on the station count. The math is
written once, over rows: one row is one (window, station, variable) series,
and a batch of B windows is [B*N*C, T] rows in that order; its calendar
is one [B, 3] array of CALENDAR table rows (calendar). positions checks a
call's calendar, the one place one is checked, and makes its [N, d]
spatial_rows, once per batch, split or forecast. forward_rows embeds (fc_embed), adds those and
temporal_rows, runs encoder_forward and regresses (fc_regress);
backward_batch is its gradient from the prediction rows and the Workspace
the forward ran in, and loss_and_grads the training step over a batch: a
WindowBatch of a WindowSet's windows, as fit gives it, or anything else
with its calendar, rows_per_window and gather. In fit and evaluate each
chunk gathers its own rows into its workspace (WindowSet.batch), from the
split's float32 rows, which the first chunk to gather makes. forward_batch is the one entry
that takes a [B, T, N, C] history: it checks and casts it, lays it out as
rows for forward_rows in a Workspace of its own and lays the prediction
back out; forward is forward_batch on one window. The three stage kernels
are public so that each stage can be checked on its own.

Variants used by the ablation harness are expressed through ModelConfig:
spatial_encoding may be "absolute" (a 3 -> d layer over normalized
lat/lon/elevation), "relative" (a learnable station-index table), or
"none"; temporal_encoding may be "absolute" (the CALENDAR tables) or
"none".

tensor_spec(config) is the only place the parameter layout is written:
names, shapes and init bounds, in the order that init_params draws them,
that the checkpoint's params section holds them and that an LWCKPT1
checkpoint manifest lists them. ModelParams holds the
tensors back to back in one flat vector in that order, with a dict of
named views into it, so a copy, a cast or an optimizer step is one array
operation.

The batch path computes in the dtype of the params' tensors, float64 as
initialized and loaded or a COMPUTE_DTYPE copy from ModelParams.astype; its
inputs are cast to that dtype and the loss is summed in float64 either way.

Rows are independent until the parameter-gradient sums, so a training step
need not hold a whole batch's activations: loss_and_grads runs
forward_rows and backward_batch on consecutive chunks of whole windows, at
most CHUNK_ROWS rows each (chunk_slices), and adds up the chunks' float64
loss sums and their gradients. Activation memory is then bounded by a
chunk, not by the batch. The chunk's arrays live in a Workspace, which is
also the only record of its forward pass: forward_rows leaves its inputs
and activations there, and backward_batch reads them back. Every chunk,
batch and validation pass writes into the first rows of the same buffers
through the numerics kernels' `out=` forms, so a warm step allocates
almost nothing and its speed does not rest on malloc reusing freed
blocks. The batch path is given its buffers: a Workers to loss_and_grads,
a Workspace to forward_rows and encoder_forward. Sums over rows (bias
gradients, a window's or a station's rows) are row_sum GEMVs against the
workspace's ones vector. The loss's sign is back-propagated unscaled, and
the batch's gradient is divided by the element count once.

Workers is the one chunk scheduler, for the chunks of a training batch
and for every chunk of an evaluated split; its docstring and
Workers.run's give the whole account. It adds each chunk's result in
chunk order, so a multi-chunk batch's gradient is a sum of per-chunk
sums, rounded once per chunk, whose last bits differ from a one-pass
sum's. CHUNK_ROWS is a fixed constant, so with the same BLAS build every
bit of a batch is the same on every run, at any BLAS thread or worker
count where OpenBLAS can be pinned; Workers says what runs where not.

ModelConfig and StationCoord, like TimeFeature, check their values once,
when they are made, so nothing that receives one checks it again.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import astuple, dataclass, field
from datetime import datetime, timedelta
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError, allocating
from .numerics import (
    LinearLayer,
    blas_threads,
    linear_backward,
    linear_forward,
    linear_param_grads,
    linear_weight_grad,
    relu,
    relu_backward,
    row_sum,
    single_threaded_blas,
)

SPATIAL_MODES = ("absolute", "relative", "none")
TEMPORAL_MODES = ("absolute", "none")

# The temporal encoding's tables as (name, rows), one per column of a
# calendar: hour of day, day of month - 1 and month - 1.
CALENDAR = (("table_hour", 24), ("table_day", 31), ("table_month", 12))
# Each table's first row, and then their total, in the rows of the three
# tables, which tensor_spec lays out back to back.
_CALENDAR_ROWS = np.cumsum([0] + [rows for _, rows in CALENDAR])

# The dtype fit and evaluate run the batch path in, on float64 master
# weights, and so the dtype of each split's rows of the series (data.WindowSet).
COMPUTE_DTYPE = np.float32

# The most rows one pass of the batch path holds (loss_and_grads,
# training.evaluate, baselines.evaluate_hi). Fixed, never derived from free
# memory or threads, so every run splits each sum alike. Two workers'
# workspaces at this size hold what one held at 16384.
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and encoding variant of one model instance, checked when
    made: a ConfigError names the first value that is not valid."""

    d: int = 64
    n_layers: int = 2
    t_h: int = 48
    t_f: int = 24
    n_vars: int = 1
    spatial_encoding: str = "absolute"
    temporal_encoding: str = "absolute"
    n_stations: int | None = None  # required only for relative spatial encoding

    def __post_init__(self):
        optional = () if self.n_stations is None else ("n_stations",)
        for name in ("d", "n_layers", "t_h", "t_f", "n_vars", *optional):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            if value > np.iinfo(np.intp).max:
                raise ConfigError(f"{name} {value} is too large to size an array")
        if self.spatial_encoding not in SPATIAL_MODES:
            raise ConfigError(f"unknown spatial_encoding {self.spatial_encoding!r}")
        if self.temporal_encoding not in TEMPORAL_MODES:
            raise ConfigError(f"unknown temporal_encoding {self.temporal_encoding!r}")
        if self.spatial_encoding == "relative" and self.n_stations is None:
            raise ConfigError("relative spatial encoding requires n_stations")


@dataclass(frozen=True)
class TimeFeature:
    """Calendar features of one forecast start step."""

    hour: int
    day_index: int  # day of month - 1
    month_index: int  # month - 1

    def __post_init__(self):
        for (name, rows), value in zip(CALENDAR, astuple(self)):
            if not 0 <= value < rows:
                raise ValidationError(f"{name} index {value} outside [0, {rows})")

    @classmethod
    def from_timestamp(cls, ts: datetime) -> "TimeFeature":
        return cls(*calendar([wall_microseconds(ts)])[0].tolist())


US_PER_HOUR = 3_600_000_000
US_PER_DAY = 24 * US_PER_HOUR
_EPOCH = datetime(1970, 1, 1)


def wall_microseconds(ts: datetime) -> int:
    """`ts` read on its own wall clock (its UTC offset, if any, dropped), as
    microseconds since 1970-01-01T00:00: the axis calendar reads."""
    return (ts.replace(tzinfo=None) - _EPOCH) // timedelta(microseconds=1)


def days_from_civil(year, month, day):
    """Days since 1970-01-01 of proleptic Gregorian dates (integers or
    integer arrays), counted in 400-year eras of years that start in March:
    exact integer arithmetic, for any year."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def civil_from_days(days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(year, month, day) of an int64 array of days since 1970-01-01, the
    inverse of days_from_civil, by the same eras."""
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097  # day of the era, 0 .. 146096
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # from March 1
    mp = (5 * doy + 2) // 153  # month from March, 0 .. 11
    month = np.where(mp < 10, mp + 3, mp - 9)
    return yoe + era * 400 + (month <= 2), month, doy - (153 * mp + 2) // 5 + 1


def calendar(wall_us) -> np.ndarray:
    """The [n, 3] intp calendar of n steps given as int64 microseconds since
    1970 on their wall clock (wall_microseconds; data.TimeAxis.wall): for
    each, its row of every CALENDAR table (hour, day of month - 1, month -
    1), by integer arithmetic alone (civil_from_days). When the steps span
    fewer days than there are steps (sub-daily data), each day's date is
    computed once and gathered."""
    days, us = np.divmod(np.asarray(wall_us, np.int64), US_PER_DAY)
    lo, hi = (int(days.min()), int(days.max())) if len(days) else (0, -1)
    if hi - lo < len(days):
        _, month, day = civil_from_days(np.arange(lo, hi + 1, dtype=np.int64))
        month, day = month[days - lo], day[days - lo]
    else:
        _, month, day = civil_from_days(days)
    out = np.empty((len(days), len(CALENDAR)), np.intp)
    out[:, 0] = us // US_PER_HOUR
    out[:, 1] = day - 1
    out[:, 2] = month - 1
    return out


@dataclass(frozen=True)
class StationCoord:
    """Geographic position of one station (degrees, degrees, meters),
    checked when made."""

    latitude: float
    longitude: float
    elevation: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValidationError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValidationError(f"longitude {self.longitude} outside [-180, 180]")
        if not math.isfinite(self.elevation):
            raise ValidationError(f"elevation {self.elevation} is not finite")


def normalize_coords(coords: list[StationCoord]) -> np.ndarray:
    """The stations' [N, 3] (lat, lon, elev) mapped to O(1) inputs: lat/90,
    lon/180, elev/10000."""
    raw = np.array([[c.latitude, c.longitude, c.elevation] for c in coords], np.float64)
    return raw.reshape(len(coords), 3) / np.array([90.0, 180.0, 10000.0])


def tensor_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Every tensor of the configured variant as (name, shape, init_bound).

    The one description of the parameter layout. Its order is the order of
    the checkpoint's params section and of an LWCKPT1 manifest, and the
    order init_params draws from its generator.
    Linear layers are `<name>.weight` [d_out, d_in] and `<name>.bias`
    [d_out], both bounded by 1/sqrt(d_in); embedding tables by 1/sqrt(d).
    A model whose float64 vector cannot be sized is a ConfigError, raised
    before any entry is built.
    """
    size = parameter_count(config)
    if size > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"a model of {size} parameters is too large to size an array")
    d = config.d
    table_bound = 1.0 / np.sqrt(d)

    def linear(name: str, d_out: int, d_in: int):
        bound = 1.0 / np.sqrt(d_in)
        return [(f"{name}.weight", (d_out, d_in), bound), (f"{name}.bias", (d_out,), bound)]

    spec = linear("fc_embed", d, config.t_h)
    if config.spatial_encoding == "absolute":
        spec += linear("fc_spatial", d, 3)
    elif config.spatial_encoding == "relative":
        spec.append(("station_table", (config.n_stations, d), table_bound))
    if config.temporal_encoding == "absolute":
        spec += [(name, (rows, d), table_bound) for name, rows in CALENDAR]
    for i in range(config.n_layers):
        spec += linear(f"encoder.{i}.fc1", d, d) + linear(f"encoder.{i}.fc2", d, d)
    spec += linear("fc_regress", config.t_f, d)
    return spec


@dataclass
class ModelParams:
    """Every learnable tensor of the network in one flat vector.

    `vector` holds the tensors back to back in tensor_spec order, and
    `tensors` maps each name, in that order, to a view of its slice in its
    spec shape, and `offsets` to that slice's start. A tensor is changed in
    place (`tensors[name][...] = x`): rebinding a dict entry would detach it
    from the vector.
    """

    config: ModelConfig
    vector: np.ndarray
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)
    offsets: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        size = parameter_count(self.config)
        if self.vector.shape != (size,):
            raise ShapeError(f"parameter vector {self.vector.shape} is not ({size},)")
        self.tensors, self.offsets = {}, {}
        lo = 0
        for name, shape, _ in tensor_spec(self.config):
            hi = lo + math.prod(shape)
            self.tensors[name] = self.vector[lo:hi].reshape(shape)
            self.offsets[name] = lo
            lo = hi

    @classmethod
    def zeros(cls, config: ModelConfig, dtype=np.float64) -> "ModelParams":
        """Zeros in `dtype`, to be filled in place; a ConfigError when numpy
        cannot allocate that many. Every parameter-sized vector is made
        here or in numerics.AdamState."""
        size = parameter_count(config)
        with allocating(f"a model of {size} parameters"):
            vector = np.zeros(size, dtype)
        return cls(config, vector)

    def layer(self, prefix: str) -> LinearLayer:
        """The linear layer `<prefix>.weight`/`.bias`; shares their arrays."""
        return LinearLayer(self.tensors[f"{prefix}.weight"], self.tensors[f"{prefix}.bias"])

    @property
    def dtype(self) -> np.dtype:
        """The dtype the batch path computes in; every tensor has it."""
        return self.vector.dtype

    def copy(self) -> "ModelParams":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "ModelParams":
        """A copy with the vector cast to `dtype`."""
        out = ModelParams.zeros(self.config, dtype)
        np.copyto(out.vector, self.vector)
        return out


def parameter_count(config: ModelConfig) -> int:
    """Exact enumerated parameter count for the configured variant: the
    sizes of tensor_spec's entries summed, counted without building it.

    For the base (absolute/absolute) variant this is
    d(T_h+1) + 4d + 67d + 2*L*d*(d+1) + T_f(d+1).
    """
    # Python ints: numpy integers would wrap on a huge count
    d, n_layers, t_h, t_f = (int(v) for v in (config.d, config.n_layers, config.t_h, config.t_f))
    spatial = {"absolute": 4 * d, "relative": int(config.n_stations or 0) * d, "none": 0}
    temporal = {"absolute": int(_CALENDAR_ROWS[-1]) * d, "none": 0}
    return (
        d * (t_h + 1)
        + spatial[config.spatial_encoding]
        + temporal[config.temporal_encoding]
        + 2 * n_layers * d * (d + 1)
        + t_f * (d + 1)
    )


def closed_form_count(config: ModelConfig) -> int:
    """Analytic count (2Ld + T_h + T_f + 70)(d+1).

    Differs from parameter_count by |2d - T_h - 70| on the base variant
    because it books the embedding/spatial/temporal bias terms differently;
    both are reported side by side by the CLI, reconciled nowhere.
    """
    return (2 * config.n_layers * config.d + config.t_h + config.t_f + 70) * (
        config.d + 1
    )


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization: each tensor_spec entry uniform in
    +-init_bound, drawn in spec order from one generator seeded by `seed`."""
    rng = np.random.default_rng(seed)
    params = ModelParams.zeros(config)
    for name, shape, bound in tensor_spec(config):
        params.tensors[name][...] = rng.uniform(-bound, bound, size=shape)
    return params


class Workspace:
    """The buffers of the batch path for one chunk of up to `rows` rows, in
    `dtype`, reused by every chunk and batch that is given it.

    Each chunk gathers its history rows into x, which overlaps no other
    buffer: backward_batch reads them after it has overwritten g.
    forward_rows writes its activations into z (the embedding, then each
    residual block's output) and r (each block's ReLU output), its
    prediction into y, and what it ran on into `inputs` (None until then):
    x_rows, the chunk's Positions and dims (B, N, C), the record
    backward_batch reads. The training step gathers the chunk's target rows
    into abs_err, subtracts them from the prediction and then takes
    |pred - truth| there; backward_batch writes the activation gradients
    into g (three buffers it rotates through, also borrowed for the
    per-window and per-station sums) and the ReLU masks into mask. `ones`
    is the ones vector that row_sum reduces against. training.evaluate
    gathers a chunk's float64 target rows into truth and scores it in err.
    Those two lie in the same block of memory as g[1:], which a forward
    leaves alone, so an evaluate after training steps writes to pages they
    have touched already instead of growing the resident set.

    A chunk uses the first rows of each buffer, so a ragged last chunk or a
    smaller batch needs nothing new; a chunk of more rows is a ShapeError.
    A workspace belongs to one config and dtype and holds one chunk's state
    at a time: results returned from a call with a workspace are views of
    it that the next call overwrites.
    """

    def __init__(self, config: ModelConfig, rows: int, dtype=COMPUTE_DTYPE):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.rows = rows
        self.x = np.empty((rows, config.t_h), dtype)
        self.z = [np.empty((rows, config.d), dtype) for _ in range(config.n_layers + 1)]
        self.r = [np.empty((rows, config.d), dtype) for _ in range(config.n_layers)]
        self.y = np.empty((rows, config.t_f), dtype)
        self.abs_err = np.empty((rows, config.t_f), dtype)
        self.mask = np.empty((rows, config.d), bool)
        self.ones = np.ones(rows, dtype)
        self.inputs: dict | None = None

        def size(width, itemsize):  # bytes of [rows, width], rounded up to 64
            return -(-rows * width * itemsize // 64) * 64

        g_size, f_size = size(config.d, self.dtype.itemsize), size(config.t_f, 8)
        block = np.empty(g_size + 2 * max(g_size, f_size), np.uint8)

        def carve(offset, width, dtype):
            n = rows * width * np.dtype(dtype).itemsize
            return block[offset : offset + n].view(dtype).reshape(rows, width)

        self.g = [carve(i * g_size, config.d, dtype) for i in range(3)]
        self.truth = carve(g_size, config.t_f, np.float64)
        self.err = carve(g_size + f_size, config.t_f, np.float64)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """The workers Workers.run keeps busy: one per usable CPU, or one where
    OpenBLAS's thread count cannot be pinned, as run then runs every chunk
    on the caller."""
    return usable_cpus() if blas_threads() is not None else 1


class Workers:
    """Where chunks run: `workspaces`, one per worker, the first the
    caller's and the others those of the threads run starts. A workspace
    may be any per-worker buffer: the batch path's are Workspaces,
    synthetic.generate schedules its noise and forcing blocks through run
    with one array per worker, and data's leaf hash its file's leaves with
    one bytearray per worker.
    loss_and_grads keeps its gradients here too: `grad`, the one batch
    gradient, made by its first call, and `spare_grads`, the chunk gradient
    vectors no chunk holds.

    run is the one chunk scheduler, for the chunks of a training batch and
    for every chunk of an evaluated split. Every chunk runs with OpenBLAS
    pinned to one thread (numerics.single_threaded_blas), one chunk per
    workspace at a time: each worker takes the next chunk as soon as its
    last one returns, and the results are added in chunk order. A result
    therefore must not stay in a workspace: a training chunk returns a
    gradient vector of its own. So the bits depend on neither the BLAS
    thread count nor the worker count. Where the pin cannot be made, the
    chunks run one after another on the caller, unpinned.

    The caller is worker 0 and threads that run starts run the others, so
    that numpy's elementwise passes use every core, not only the GEMMs, and
    one-thread GEMMs side by side do not oversubscribe the cores. No
    batch-path call is multithreaded, so OpenBLAS's own server threads,
    which busy-wait for about 0.1 s after a multithreaded call, are never
    woken to hold a core a worker needs. The chunk gradient vectors number
    at most the chunks in flight or held at once.

    A Workers holds no thread: run starts its helper threads and joins them
    before it returns, so one is a plain value, made once per fit or
    evaluate call and dropped with it.
    """

    def __init__(self, workspaces: list[Workspace]):
        self.workspaces = workspaces
        self.grad: ModelParams | None = None
        self.spare_grads: list[ModelParams] = []

    @classmethod
    def for_batches(cls, config: ModelConfig, rows_per_window: int, batch_windows: int) -> "Workers":
        """Workers for batches of up to `batch_windows` windows of
        `rows_per_window` rows: one COMPUTE_DTYPE workspace per usable CPU,
        each sized for a chunk (at most CHUNK_ROWS rows, or one window), or
        one where OpenBLAS's thread count cannot be pinned. Every worker is
        used: evaluate runs a whole split's chunks at once, however few
        chunks a training batch has."""
        per_chunk = min(batch_windows, chunk_windows(rows_per_window))
        return cls([Workspace(config, per_chunk * rows_per_window) for _ in range(worker_count())])

    def check(self, params: ModelParams, rows: int) -> None:
        """Check every workspace against params and for room for `rows` rows."""
        for ws in self.workspaces:
            _workspace(ws, params, rows)

    def run(self, n_chunks: int, task, add) -> None:
        """task(i, workspace) for each chunk i in range(n_chunks), each
        chunk's BLAS calls on one thread, and add(i, result) for each chunk
        in chunk order, as soon as every earlier chunk's result is added; a
        result that is done early is held until then. The caller is worker
        0, in the first workspace: it takes the first chunk, then starts
        threads that run the other min(len(workspaces), n_chunks) - 1 (none
        where the pin cannot be made, or for one chunk), all in one loop:
        take the next chunk as soon as free, run it, add every held result
        that is next. A workspace takes its next chunk as soon as its task
        returns, so a result must not refer to it. Each task and add runs
        under the caller's np.geterr(), one add at a time. After a failure
        in a task or add no worker takes another chunk; every earlier chunk
        was taken already, so the first failing chunk always runs, and its
        exception is raised here unchanged, once every thread started here
        has ended and the BLAS thread count is restored."""
        held, failed = {}, []
        chunks, lock = iter(range(n_chunks)), threading.Lock()
        added = 0  # the chunks added so far
        errstate = np.geterr()

        def drain(ws, helpers=()):
            nonlocal added
            with np.errstate(**errstate):
                while not failed:
                    with lock:
                        i = next(chunks, None)
                    for thread in helpers:  # the caller's, started once it holds a chunk
                        thread.start()
                    helpers = ()
                    if i is None:
                        return
                    try:
                        result = task(i, ws)
                        with lock:
                            held[i] = result
                            while added in held:
                                i = added  # an add's error is its chunk's
                                add(i, held.pop(i))
                                added += 1
                    except BaseException as error:  # raised on the caller below
                        failed.append((i, error))

        with single_threaded_blas() as pinned:
            w = min(len(self.workspaces), n_chunks) if pinned else 1
            helpers = [threading.Thread(target=drain, args=(ws,)) for ws in self.workspaces[1:w]]
            try:
                drain(self.workspaces[0], helpers)
            finally:  # join every helper that started, even if a later start failed
                for thread in helpers:
                    if thread.is_alive():
                        thread.join()
        if failed:
            raise min(failed, key=lambda f: f[0])[1]


def _workspace(workspace: Workspace, params: ModelParams, rows: int) -> Workspace:
    """`workspace`, checked against params and for room for `rows` rows."""
    if workspace.config != params.config or workspace.dtype != params.dtype:
        raise ShapeError(
            f"workspace for {workspace.config} in {workspace.dtype} cannot run "
            f"params of {params.config} in {params.dtype}"
        )
    if rows > workspace.rows:
        raise ShapeError(f"a chunk of {rows} rows exceeds the workspace's {workspace.rows}")
    return workspace


# ---------------------------------------------------------------------------
# Stage kernels and the batched forward / backward
# ---------------------------------------------------------------------------


class Positions(NamedTuple):
    """A call's positional inputs, as positions makes them: coords_norm
    [N, 3] in params.dtype (None unless absolute), the spatial_rows [N, d]
    and the windows' calendar [B, 3] as intp."""

    coords_norm: np.ndarray | None
    spatial: np.ndarray | None
    calendar: np.ndarray

    def windows(self, w: slice) -> "Positions":
        """A chunk's view: the calendar of windows `w`, the same rows."""
        return self._replace(calendar=self.calendar[w])


def positions(coords_norm, calendar, params: ModelParams) -> Positions:
    """The Positions of one batch, split or forecast for params, which all
    its chunks read: the calendar checked in one pass (integer indices of
    shape [B, 3], each column in its CALENDAR table's rows) and the spatial
    rows made on one BLAS thread, like every chunk's GEMMs."""
    calendar = np.asarray(calendar)
    if calendar.size and not np.issubdtype(calendar.dtype, np.integer):
        raise ValidationError(f"a calendar must be integer indices, got {calendar.dtype}")
    calendar = calendar.astype(np.intp, copy=False)
    if calendar.ndim != 2 or calendar.shape[1] != len(CALENDAR):
        raise ShapeError(f"calendar has shape {calendar.shape}, expected (B, {len(CALENDAR)})")
    if calendar.size:
        for (name, rows), lo, hi in zip(CALENDAR, calendar.min(axis=0), calendar.max(axis=0)):
            if lo < 0 or hi >= rows:
                raise ValidationError(f"{name} index outside [0, {rows})")
    absolute = params.config.spatial_encoding == "absolute"
    coords_norm = np.asarray(coords_norm, dtype=params.dtype) if absolute else None
    with single_threaded_blas():
        spatial = spatial_rows(coords_norm, params)
    return Positions(coords_norm, spatial, calendar)


def spatial_rows(coords_norm: np.ndarray, params: ModelParams) -> np.ndarray | None:
    """The spatial encoding's [N, d] rows, in params.dtype: fc_spatial over
    normalized [N, 3] coordinates (absolute), the station table itself
    (relative), or None (none)."""
    cfg = params.config
    if cfg.spatial_encoding == "absolute":
        coords_norm = np.asarray(coords_norm)
        if coords_norm.ndim != 2 or coords_norm.shape[1] != 3:
            raise ShapeError(f"coords shape {coords_norm.shape}, expected [N, 3]")
        return linear_forward(coords_norm, params.layer("fc_spatial"))
    if cfg.spatial_encoding == "relative":
        return params.tensors["station_table"]
    return None


def temporal_rows(calendar: np.ndarray, params: ModelParams) -> np.ndarray | None:
    """The temporal encoding's [B, d] rows, the sum of each CALENDAR table's
    rows at a [B, 3] calendar's indices (in range: the caller checks them,
    as positions does), or None when the model has none."""
    if params.config.temporal_encoding != "absolute":
        return None
    rows = [params.tensors[name][column] for (name, _), column in zip(CALENDAR, calendar.T)]
    return sum(rows[1:], rows[0])  # hour + day + month


def encoder_forward(z: np.ndarray, params: ModelParams, workspace: Workspace):
    """The L residual blocks z <- fc2(relu(fc1(z))) + z over rows [..., d],
    in params.dtype, written into the workspace's r (each block's ReLU
    output, fc2's input) and z[1:] (each block's output) buffers."""
    cfg = params.config
    z = np.asarray(z, dtype=params.dtype)
    if z.shape[-1] != cfg.d:
        raise ShapeError(f"encoder input width {z.shape[-1]} != d {cfg.d}")
    rows = z.size // cfg.d
    ws = _workspace(workspace, params, rows)
    for i in range(cfg.n_layers):
        r = linear_forward(
            z, params.layer(f"encoder.{i}.fc1"), out=ws.r[i][:rows].reshape(z.shape)
        )
        relu(r, out=r)
        y = linear_forward(
            r, params.layer(f"encoder.{i}.fc2"), out=ws.z[i + 1][:rows].reshape(z.shape)
        )
        y += z  # residual path
        z = y
    return z


def chunk_windows(rows_per_window: int) -> int:
    """Whole windows of `rows_per_window` rows (N*C) that fit in
    CHUNK_ROWS rows; at least one."""
    return max(1, CHUNK_ROWS // max(1, rows_per_window))


def check_batch_size(batch_size: int) -> None:
    """batch_size < 1 is a ConfigError: the one rule, for TrainConfig,
    chunk_slices and the commands that read batch_size."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


def chunk_slices(n_windows: int, batch_size: int, rows_per_window: int) -> list[slice]:
    """The chunks of n_windows windows taken batch_size at a time, as fit
    takes them: slices of at most chunk_windows(rows_per_window) windows
    that never cross a batch boundary, the first of them the largest: the
    one chunk rule, for loss_and_grads, training.evaluate and the HI
    baseline. batch_size is checked (check_batch_size)."""
    check_batch_size(batch_size)
    step = chunk_windows(rows_per_window)
    return [
        slice(lo, min(lo + step, start + batch_size, n_windows))
        for start in range(0, n_windows, batch_size)
        for lo in range(start, min(start + batch_size, n_windows), step)
    ]


def _stations_of_rows(x_rows: np.ndarray, n_batch: int, cfg: ModelConfig) -> int:
    """N of history rows [B*N*C, T_h] that hold `n_batch` whole windows."""
    if x_rows.ndim != 2 or x_rows.shape[1] != cfg.t_h or n_batch == 0:
        raise ShapeError(f"history rows {x_rows.shape} for {n_batch} windows, T_h={cfg.t_h}")
    n_stations, odd = divmod(x_rows.shape[0], n_batch * cfg.n_vars)
    if odd:
        raise ShapeError(
            f"{x_rows.shape[0]} history rows are not {n_batch} windows x C={cfg.n_vars}"
        )
    return n_stations


def forward_rows(x_rows: np.ndarray, pos: Positions, params: ModelParams, workspace: Workspace):
    """The forward pass over rows: embed, add the spatial rows and
    temporal_rows, encoder_forward, then the regression head.

    x_rows: [B*N*C, T_h] history rows ordered (window, station, variable),
    where C = config.n_vars; pos: positions of these params for the B
    windows (a chunk's is a view, Positions.windows), of N stations. Returns
    prediction rows [B*N*C, T_f] in params.dtype, a view of the
    workspace's y, and leaves the record of the pass that backward_batch
    reads in the workspace. x_rows is cast to params.dtype (no copy when it
    has it) and must be finite in it, which split_windows checks once for
    the whole series and forward_batch for each batch. The workspace keeps
    x_rows as a reference, so the caller must not change it before
    backward_batch.
    """
    cfg = params.config
    x_rows = np.asarray(x_rows, dtype=params.dtype)
    n_batch, n_vars = len(pos.calendar), cfg.n_vars
    n_stations = _stations_of_rows(x_rows, n_batch, cfg)
    rows = x_rows.shape[0]
    ws = _workspace(workspace, params, rows)

    e = linear_forward(x_rows, params.layer("fc_embed"), out=ws.z[0][:rows])
    h4 = e.reshape(n_batch, n_stations, n_vars, cfg.d)
    if pos.spatial is not None:
        if pos.spatial.shape[0] != n_stations:
            raise ShapeError(f"{n_stations} stations but {pos.spatial.shape[0]} spatial rows")
        h4 += pos.spatial[None, :, None, :]
    time_rows = temporal_rows(pos.calendar, params)
    if time_rows is not None:
        h4 += time_rows[:, None, None, :]

    y_rows = linear_forward(
        encoder_forward(e, params, ws), params.layer("fc_regress"), out=ws.y[:rows]
    )
    ws.inputs = dict(x_rows=x_rows, positions=pos, dims=(n_batch, n_stations, n_vars))
    return y_rows


def backward_batch(
    g_rows: np.ndarray, workspace: Workspace, params: ModelParams, out: ModelParams
) -> dict:
    """The reverse-mode pass of the forward_rows call that `workspace`
    records, from the gradient of its prediction rows [B*N*C, T_f]; writes
    every parameter gradient into `out`, a ModelParams of params' config
    and dtype, and returns them keyed like ModelParams.tensors, as views
    of out's vector.

    The activations are read from the workspace's z and r, and the inputs
    (x_rows and the Positions) from its `inputs`; a workspace no forward has
    run in, or gradient rows of another shape than that forward's
    prediction, is a ShapeError.
    Activation gradients go to the workspace's g buffers. Each bias
    gradient, and each sum over the rows of a window or of a station, is
    one row_sum GEMV. fc_embed's bias gradient, the sum of every row's, is
    taken from the [N, d] station gradient when a spatial encoding forms
    one. Temporal-table gradients are nonzero only at rows indexed by the
    batch.
    """
    inputs = workspace.inputs
    if inputs is None:
        raise ShapeError("backward_batch needs a workspace that forward_rows has run in")
    cfg, pos = params.config, inputs["positions"]
    n_batch, n_stations, n_vars = inputs["dims"]
    rows = n_batch * n_stations * n_vars
    g_rows = np.asarray(g_rows, dtype=params.dtype)
    if g_rows.shape != (rows, cfg.t_f):
        raise ShapeError(f"gradient rows {g_rows.shape} != the forward's {(rows, cfg.t_f)}")
    ws = _workspace(workspace, params, rows)
    grads = out.tensors
    ones = ws.ones

    def param_out(prefix):
        return grads[f"{prefix}.weight"], grads[f"{prefix}.bias"]

    gz, g_free, g_next = (g[:rows] for g in ws.g)
    linear_backward(
        ws.z[-1][:rows],
        params.layer("fc_regress"),
        g_rows,
        out=(gz, *param_out("fc_regress")),
        ones=ones,
    )
    for i in reversed(range(cfg.n_layers)):
        r = ws.r[i][:rows]
        gs, _, _ = linear_backward(
            r,
            params.layer(f"encoder.{i}.fc2"),
            gz,
            out=(g_free, *param_out(f"encoder.{i}.fc2")),
            ones=ones,
        )
        ga = relu_backward(r, gs, out=gs, mask=ws.mask[:rows])
        gz_in, _, _ = linear_backward(
            ws.z[i][:rows],
            params.layer(f"encoder.{i}.fc1"),
            ga,
            out=(g_next, *param_out(f"encoder.{i}.fc1")),
            ones=ones,
        )
        gz_in += gz  # residual path
        gz, g_free, g_next = gz_in, gz, g_free

    rows_per_window = n_stations * n_vars
    if cfg.temporal_encoding == "absolute":
        g_window = row_sum(  # [B, d]
            gz.reshape(n_batch, rows_per_window, cfg.d), ones, out=g_free[:n_batch]
        )
        _calendar_grads(out, pos.calendar, g_window)

    g_station = None
    if cfg.spatial_encoding != "none":
        per_var = row_sum(  # [N*C*d]
            gz.reshape(n_batch, rows_per_window * cfg.d),
            ones,
            out=g_free.reshape(-1)[: rows_per_window * cfg.d],
        ).reshape(n_stations, n_vars, cfg.d)
        g_station = np.sum(per_var, axis=1, out=g_next[:n_stations])  # [N, d]
        if cfg.spatial_encoding == "absolute":
            linear_param_grads(
                pos.coords_norm, g_station, out=param_out("fc_spatial"), ones=ones
            )
        else:
            grads["station_table"][...] = g_station

    gw_e, gb_e = param_out("fc_embed")
    linear_weight_grad(inputs["x_rows"], gz, out=gw_e)
    row_sum(gz if g_station is None else g_station, ones, out=gb_e)
    return dict(grads)


def _calendar_grads(out: ModelParams, calendar: np.ndarray, g_window: np.ndarray) -> None:
    """Set out's CALENDAR table gradients to the sums of the window
    gradients g_window [B, d] at each window's rows, `calendar` [B, 3]. One
    np.add.at over the three tables' flat elements, which lie back to back
    in out's vector: each element adds its windows' gradients in window
    order, as a 2-D np.add.at per table does, so the bits are the same, but
    numpy's 1-D path takes about a third of the time."""
    d = out.config.d
    lo = out.offsets[CALENDAR[0][0]]
    tables = out.vector[lo : lo + _CALENDAR_ROWS[-1] * d]
    tables[...] = 0.0
    first = (calendar + _CALENDAR_ROWS[:-1]) * d  # [B, 3]: each row's first element
    np.add.at(
        tables,
        (first[:, :, None] + np.arange(d)).reshape(-1),
        np.repeat(g_window, len(CALENDAR), axis=0).reshape(-1),
    )


class WindowBatch:
    """The windows `ids` of a data.WindowSet as a training batch, as fit
    takes it, with their rows of the set's calendar: each chunk of the step
    gathers its windows' rows into its workspace (WindowSet.batch with
    `out`), the history into x and the targets into abs_err, which the step
    reads before it overwrites it with |pred - truth|."""

    def __init__(self, windows, ids):
        self.windows, self.ids = windows, np.asarray(ids, dtype=np.intp)
        if self.ids.ndim != 1:
            raise ShapeError(f"window ids of shape {self.ids.shape}, not [B]")
        self.calendar = windows.calendar[self.ids]

    def rows_per_window(self, cfg: ModelConfig) -> int:
        """N*C, with C checked against the config."""
        if self.windows.n_vars != cfg.n_vars:
            raise ShapeError(f"windows of {self.windows.n_vars} variables, config C={cfg.n_vars}")
        return self.windows.n_stations * cfg.n_vars

    def gather(self, windows: slice, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
        """The history and target rows of the batch's windows `windows`,
        gathered into ws."""
        b = self.windows.batch(self.ids[windows], out={"history": ws.x, "future": ws.abs_err})
        return b["history"], b["future"]


def loss_and_grads(
    params: ModelParams,
    batch: WindowBatch,
    coords_norm: np.ndarray,
    workers: Workers,
) -> tuple[float, dict]:
    """Mean absolute error of a batch of windows and its gradients for
    every tensor. `batch` is a WindowBatch, windows of a WindowSet, as fit
    gives it. The step asks it for three things only: its windows'
    calendar, rows_per_window(config), which checks its shapes and gives
    N*C, and gather, each chunk's history and target rows. So any batch
    with those three, such as rows already in memory, runs the same.

    The loss is the plain mean of |pred - truth| over all batch elements,
    i.e. the per-window 1/(N*C*T_f) normalization averaged over windows, so
    batch gradients are averages of per-window gradients; a batch of no
    windows is a ShapeError. positions runs once per batch, and
    forward_rows and backward_batch on the chunks chunk_slices(B, B, N*C)
    gives, each on its windows' view, scheduled by workers.run once
    Workers.check has found each workspace made for params, with room for
    the first chunk, the largest. Each chunk
    takes pred - truth in place and |pred - truth| into its workspace's
    abs_err buffer, sums that in float64, overwrites it with the sign,
    which it back-propagates unscaled into a gradient vector of its own
    (one of workers.spare_grads, or a new one), and returns both. The
    chunks' loss sums and gradients are added in chunk order, a copy of
    chunk 0's gradient and then each later one added into workers.grad,
    and each vector goes back to the spares. The gradient is divided by
    the element count once per batch. The gradients, in params.dtype, are
    returned as views of workers.grad (in tensor_spec layout: training
    hands its vector to adam_step).
    """
    cfg = params.config
    pos = positions(coords_norm, batch.calendar, params)
    n_batch = len(pos.calendar)
    if n_batch == 0:
        raise ShapeError("a training batch needs at least one window")
    rows = batch.rows_per_window(cfg)
    chunks = chunk_slices(n_batch, n_batch, rows)
    workers.check(params, chunks[0].stop * rows)  # the first chunk is the largest
    if workers.grad is None:
        workers.grad = ModelParams.zeros(cfg, params.dtype)
    total, spare = workers.grad.vector, workers.spare_grads
    abs_sum = 0.0

    def chunk(i, ws):
        w = chunks[i]
        x, future = batch.gather(w, ws)
        pred = forward_rows(x, pos.windows(w), params, ws)
        diff = pred  # the workspace's prediction buffer, which backward_batch does not read
        diff -= np.asarray(future, dtype=pred.dtype)
        abs_diff = np.abs(diff, out=ws.abs_err[: len(diff)])
        chunk_sum = abs_diff.sum(dtype=np.float64)
        try:  # list.pop is atomic, so no two chunks take one vector
            grad = spare.pop()
        except IndexError:
            grad = ModelParams.zeros(cfg, params.dtype)
        # the sign overwrites the spent |diff|: np.sign in place runs several
        # times slower than into another buffer
        backward_batch(np.sign(diff, out=abs_diff), ws, params, grad)
        return chunk_sum, grad

    def add(i, result):
        nonlocal abs_sum
        chunk_sum, grad = result
        abs_sum += chunk_sum
        if i == 0:
            np.copyto(total, grad.vector)
        else:
            np.add(total, grad.vector, out=total)
        spare.append(grad)

    workers.run(len(chunks), chunk, add)
    n_elements = n_batch * rows * cfg.t_f
    total /= n_elements  # one rounding per entry: the exact mean, rounded
    return float(abs_sum / n_elements), dict(workers.grad.tensors)


def forward_batch(
    history: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
    params: ModelParams,
):
    """forward_rows on a batch of windows in [B, T, N, C] layout, the only
    entry that takes that layout.

    history: [B, T_h, N, C]; coords_norm: normalized [N, 3]; hours/days/
    months: the windows' calendar columns, each [B], which it stacks into
    the [B, 3] calendar positions checks. Returns predictions
    [B, T_f, N, C] in params.dtype and the fresh workspace that records the
    pass (see forward_rows). history is laid out as rows and cast to
    params.dtype; a value that is not finite after the cast (one that
    overflows float32) is a ValidationError.
    """
    cfg = params.config
    history = np.asarray(history)
    if history.ndim != 4 or history.shape[1] != cfg.t_h or history.shape[3] != cfg.n_vars:
        raise ShapeError(f"history {history.shape} is not [B, T_h={cfg.t_h}, N, C={cfg.n_vars}]")
    n_batch, _, n_stations, n_vars = history.shape
    columns = [np.asarray(c) for c in (hours, days, months)]
    for (name, _), column in zip(CALENDAR, columns):
        if column.shape != (n_batch,):
            raise ShapeError(f"{name} indices of shape {column.shape}, expected ({n_batch},)")
    pos = positions(coords_norm, np.stack(columns, axis=1), params)
    with np.errstate(over="ignore"):  # an overflow is reported below
        x_rows = np.ascontiguousarray(
            history.transpose(0, 2, 3, 1).reshape(-1, cfg.t_h), dtype=params.dtype
        )
    if not np.isfinite(x_rows).all():
        raise ValidationError(f"history contains values that are not finite in {params.dtype}")
    ws = Workspace(cfg, x_rows.shape[0], params.dtype)
    y_rows = forward_rows(x_rows, pos, params, ws)
    pred = y_rows.reshape(n_batch, n_stations, n_vars, cfg.t_f).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(pred), ws


def forward(
    history: np.ndarray,
    coords: list[StationCoord],
    tf: TimeFeature,
    params: ModelParams,
) -> np.ndarray:
    """Single-window forward: [T_h, N, C] -> [T_f, N, C]."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 3:
        raise ShapeError(f"history must be [T_h, N, C], got {history.shape}")
    coords_norm = normalize_coords(coords) if coords is not None else None
    pred, _ = forward_batch(history[None], coords_norm, *([i] for i in astuple(tf)), params)
    return pred[0]
