"""The forecasting network: per-series data embedding, absolute spatial and
temporal encodings fused by addition, a residual MLP encoder, and a linear
regression head.

Every (station, variable) series is processed independently by shared
weights; spatial information enters only through the coordinate encoding,
so the parameter count does not depend on the station count. The math is
written once, over rows: one row is one (window, station, variable) series,
and a batch of B windows is [B*N*C, T] rows in that order. forward_rows
embeds (fc_embed), adds spatial_rows and temporal_rows, runs
encoder_forward and regresses (fc_regress); backward_batch is its
gradient from the prediction rows and the Workspace the forward ran in,
and loss_and_grads the training step over history and target rows. fit
and evaluate feed them the rows WindowSet.batch gathers. forward_batch is
the one entry that takes a [B, T, N, C] history: it checks and casts it,
lays it out as rows for forward_rows and lays the prediction back out;
forward is forward_batch on one window. The three stage kernels are public
so that each stage can be checked on its own.

Variants used by the ablation harness are expressed through ModelConfig:
spatial_encoding may be "absolute" (a 3 -> d layer over normalized
lat/lon/elevation), "relative" (a learnable station-index table), or
"none"; temporal_encoding may be "absolute" (hour/day/month tables) or
"none".

tensor_spec(config) is the only place the parameter layout is written:
names, shapes and init bounds, in the order that init_params draws them and
that the LWCKPT1 checkpoint manifest lists them. ModelParams holds the
tensors back to back in one flat vector in that order, with a dict of
named views into it, so a copy, a cast or an optimizer step is one array
operation.

The batch path computes in the dtype of the params' tensors, float64 as
initialized and loaded or a COMPUTE_DTYPE copy from ModelParams.astype; its
inputs are cast to that dtype and the loss is summed in float64 either way.

Rows are independent until the parameter-gradient sums, so a training step
need not hold a whole batch's activations: loss_and_grads runs
forward_rows and backward_batch on consecutive chunks of whole windows, at
most CHUNK_ROWS rows each (chunk_windows), and adds up the chunks' float64
loss sums and their gradients. Activation memory is then bounded by a
chunk, not by the batch. The chunk's arrays live in a Workspace, which is
also the only record of its forward pass: forward_rows leaves its inputs
and activations there, and backward_batch reads them back. Every chunk,
batch and validation pass writes into the first rows of the same buffers
through the numerics kernels' `out=` forms, so a warm step allocates
almost nothing and its speed does not rest on malloc reusing freed
blocks. A forward without a workspace makes its own, so its results share
memory with nothing the caller holds. Sums over rows (bias gradients, a
window's or a station's rows) are row_sum GEMVs against the workspace's
ones vector. The loss's sign is back-propagated unscaled, and the batch's
gradient is divided by the element count once.

Workers is the one chunk dispatcher, for loss_and_grads and
training.evaluate; training makes one per fit, with one workspace per
worker. A batch of one chunk runs on the caller at the caller's BLAS
thread count, exactly one pass. The chunks of a larger batch run side by
side on min(usable CPUs, chunks) worker threads, each in its own
workspace, with OpenBLAS pinned to one thread for the whole batch
(numerics.single_threaded_blas): numpy's elementwise passes then use
every core too, and one-thread GEMMs do not oversubscribe them. The
caller adds the chunks' results in chunk order, whichever worker
finishes first, so each gradient is a sum of per-chunk sums, rounded once
per chunk, and differs from the one-pass sum in its last bits. CHUNK_ROWS
is a fixed constant, so the split, and every bit of a multi-chunk batch,
is the same on every run with the same BLAS build, at any BLAS thread or
worker count. A one-chunk batch's weight gradients still depend on the
BLAS thread count, which splits their GEMM sums by thread. Where OpenBLAS's
thread count cannot be pinned (numpy on another BLAS), the chunks run one
after another on the caller at the BLAS's own thread count.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime

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

HOURS_PER_DAY = 24
DAYS_PER_MONTH = 31
MONTHS_PER_YEAR = 12

# The dtype fit and evaluate run the batch path in, on float64 master
# weights, and so the dtype of the model's stored copy of the series.
COMPUTE_DTYPE = np.float32

# The most rows one pass of the batch path holds (loss_and_grads,
# training.evaluate, baselines.evaluate_hi). Fixed, never derived from free
# memory or threads, so every run splits each sum alike. Two workers'
# workspaces at this size hold what one held at 16384.
CHUNK_ROWS = 8192


@dataclass
class ModelConfig:
    """Dimensions and encoding variant of one model instance."""

    d: int = 64
    n_layers: int = 2
    t_h: int = 48
    t_f: int = 24
    n_vars: int = 1
    spatial_encoding: str = "absolute"
    temporal_encoding: str = "absolute"
    n_stations: int | None = None  # required only for relative spatial encoding

    def validate(self) -> None:
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
        if not 0 <= self.hour < HOURS_PER_DAY:
            raise ValidationError(f"hour {self.hour} outside [0, 24)")
        if not 0 <= self.day_index < DAYS_PER_MONTH:
            raise ValidationError(f"day_index {self.day_index} outside [0, 31)")
        if not 0 <= self.month_index < MONTHS_PER_YEAR:
            raise ValidationError(f"month_index {self.month_index} outside [0, 12)")

    @classmethod
    def from_timestamp(cls, ts: datetime) -> "TimeFeature":
        return cls(hour=ts.hour, day_index=ts.day - 1, month_index=ts.month - 1)


@dataclass(frozen=True)
class StationCoord:
    """Geographic position of one station (degrees, degrees, meters)."""

    latitude: float
    longitude: float
    elevation: float

    def validate(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValidationError(f"latitude {self.latitude} outside [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValidationError(f"longitude {self.longitude} outside [-180, 180]")
        if not np.isfinite(self.elevation):
            raise ValidationError(f"elevation {self.elevation} is not finite")


def coord_matrix(coords: list[StationCoord]) -> np.ndarray:
    """Stack coordinates into a raw [N, 3] (lat, lon, elev) array."""
    return np.array(
        [[c.latitude, c.longitude, c.elevation] for c in coords], dtype=np.float64
    ).reshape(len(coords), 3)


def normalize_coords(coords) -> np.ndarray:
    """Map (lat, lon, elev) to O(1) inputs: lat/90, lon/180, elev/10000.

    Accepts a list of StationCoord (validated) or a raw [N, 3] array.
    """
    if len(coords) and isinstance(coords[0], StationCoord):
        for c in coords:
            c.validate()
        raw = coord_matrix(coords)
    else:
        raw = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    return raw / np.array([90.0, 180.0, 10000.0])


def tensor_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Every tensor of the configured variant as (name, shape, init_bound).

    The one description of the parameter layout. Its order is the LWCKPT1
    manifest order and the order init_params draws from its generator.
    Linear layers are `<name>.weight` [d_out, d_in] and `<name>.bias`
    [d_out], both bounded by 1/sqrt(d_in); embedding tables by 1/sqrt(d).
    A model whose float64 vector cannot be sized is a ConfigError, raised
    before any entry is built.
    """
    size = parameter_count(config)  # validates the config
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
        spec += [
            ("table_hour", (HOURS_PER_DAY, d), table_bound),
            ("table_day", (DAYS_PER_MONTH, d), table_bound),
            ("table_month", (MONTHS_PER_YEAR, d), table_bound),
        ]
    for i in range(config.n_layers):
        spec += linear(f"encoder.{i}.fc1", d, d) + linear(f"encoder.{i}.fc2", d, d)
    spec += linear("fc_regress", config.t_f, d)
    return spec


@dataclass
class ModelParams:
    """Every learnable tensor of the network in one flat vector.

    `vector` holds the tensors back to back in tensor_spec order, and
    `tensors` maps each name, in that order, to a view of its slice in its
    spec shape. A tensor is changed in place (`tensors[name][...] = x`):
    rebinding a dict entry would detach it from the vector.
    """

    config: ModelConfig
    vector: np.ndarray
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        size = parameter_count(self.config)
        if self.vector.shape != (size,):
            raise ShapeError(f"parameter vector {self.vector.shape} is not ({size},)")
        self.tensors = {}
        lo = 0
        for name, shape, _ in tensor_spec(self.config):
            hi = lo + math.prod(shape)
            self.tensors[name] = self.vector[lo:hi].reshape(shape)
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
    config.validate()
    # Python ints: numpy integers would wrap on a huge count
    d, n_layers, t_h, t_f = (int(v) for v in (config.d, config.n_layers, config.t_h, config.t_f))
    spatial = {"absolute": 4 * d, "relative": int(config.n_stations or 0) * d, "none": 0}
    temporal = {"absolute": (HOURS_PER_DAY + DAYS_PER_MONTH + MONTHS_PER_YEAR) * d, "none": 0}
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

    forward_rows writes its activations into z (the embedding, then each
    residual block's output) and r (each block's ReLU output), its
    prediction into y, and what it ran on into `inputs` (None until then):
    x_rows, coords_norm, hours, days, months and dims (B, N, C), the record
    backward_batch reads. The training loss takes |pred - truth| into
    abs_err; backward_batch writes the activation gradients into g (three
    buffers it rotates through, also borrowed for forward_rows's spatial
    rows and for the per-window and per-station sums), the ReLU masks into
    mask, and each chunk's parameter gradients into chunk_grad, from which
    loss_and_grads accumulates the batch's into grad. Both gradients are
    ModelParams in this dtype: one flat vector in tensor_spec layout with
    named views. `ones` is the ones vector that row_sum reduces against.
    training.evaluate gathers a chunk's history rows into x and its float64
    target rows into truth, and scores it in err. Those three lie in the
    same block of memory as g[1:], which a forward leaves alone, so an
    evaluate after training steps writes to pages they have touched
    already instead of growing the resident set.

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
        self.grad = ModelParams.zeros(config, self.dtype)
        self.chunk_grad = ModelParams.zeros(config, self.dtype)
        self.z = [np.empty((rows, config.d), dtype) for _ in range(config.n_layers + 1)]
        self.r = [np.empty((rows, config.d), dtype) for _ in range(config.n_layers)]
        self.y = np.empty((rows, config.t_f), dtype)
        self.abs_err = np.empty((rows, config.t_f), dtype)
        self.mask = np.empty((rows, config.d), bool)
        self.ones = np.ones(rows, dtype)
        self.inputs: dict | None = None

        def size(width, itemsize):  # bytes of [rows, width], rounded up to 64
            return -(-rows * width * itemsize // 64) * 64

        g_size, x_size = size(config.d, self.dtype.itemsize), size(config.t_h, self.dtype.itemsize)
        f_size = size(config.t_f, 8)
        block = np.empty(g_size + max(2 * g_size, x_size + 2 * f_size), np.uint8)

        def carve(offset, width, dtype):
            n = rows * width * np.dtype(dtype).itemsize
            return block[offset : offset + n].view(dtype).reshape(rows, width)

        self.g = [carve(i * g_size, config.d, dtype) for i in range(3)]
        self.x = carve(g_size, config.t_h, dtype)
        self.truth = carve(g_size + x_size, config.t_f, np.float64)
        self.err = carve(g_size + x_size + f_size, config.t_f, np.float64)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Workers:
    """Where the chunks of a batch run: `workspaces`, one Workspace per
    worker, and with more than one, a pool of as many threads.

    run is the one chunk dispatcher. A batch of one chunk runs on the
    caller, in the first workspace, at the caller's BLAS thread count.
    A batch of several runs with OpenBLAS pinned to one thread
    (numerics.single_threaded_blas), its chunks spread over the workers,
    at most one chunk per workspace at a time; the caller takes each
    chunk's result in chunk order, whichever worker finishes first. A
    chunk whose result lives in its workspace (a gradient) holds it until
    the caller has added that result; one whose result is a few numbers
    (evaluate's sums) frees it at once. So a multi-chunk batch's bits
    depend on neither the BLAS thread count nor the worker count. Where
    the pin cannot be made, its chunks run one after another on the
    caller, unpinned.

    Make one per fit or evaluate call and close it (it is a context
    manager): closing waits for the pool's threads to end.
    """

    def __init__(self, workspaces: list[Workspace]):
        self.workspaces = workspaces
        self._pool = ThreadPoolExecutor(len(workspaces)) if len(workspaces) > 1 else None

    @classmethod
    def for_batches(
        cls, config: ModelConfig, rows_per_window: int, batch_windows: int, dtype=COMPUTE_DTYPE
    ) -> "Workers":
        """Workers for batches of up to `batch_windows` windows of
        `rows_per_window` rows: W = min(usable CPUs, chunks per batch)
        workspaces, each sized for a chunk, or one where OpenBLAS's thread
        count cannot be pinned."""
        per_chunk = min(batch_windows, chunk_windows(rows_per_window))
        count = 1
        if blas_threads() is not None:
            count = min(usable_cpus(), -(-batch_windows // per_chunk))
        return cls([Workspace(config, per_chunk * rows_per_window, dtype) for _ in range(count)])

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, n_chunks: int, task, add=None) -> list | None:
        """task(i, workspace) for each chunk i in range(n_chunks). With
        `add`, add(i, result, workspace) runs on the caller in chunk order,
        before that workspace takes another chunk, and run returns None.
        Without, a workspace takes the next chunk as soon as its task
        returns, so a result must not refer to its workspace, and run
        returns the results in chunk order. Each task runs under the
        caller's np.geterr(). An exception from a chunk is raised here
        unchanged, the first in chunk order, once the chunks already
        running have finished and the BLAS thread count is restored."""
        keep = add is None
        results = [None] * n_chunks
        if keep:

            def add(i, result, ws):
                results[i] = result

        first, w = self.workspaces[0], min(len(self.workspaces), n_chunks)
        errstate = np.geterr()

        def run_chunk(i, ws):
            with np.errstate(**errstate):
                return task(i, ws)

        with single_threaded_blas() if n_chunks > 1 else nullcontext(False) as pinned:
            if not pinned or w == 1:
                for i in range(n_chunks):
                    add(i, task(i, first), first)
            elif keep:
                results = self._drain(n_chunks, run_chunk, w)
            else:
                self._in_order(n_chunks, run_chunk, add, w)
        return results if keep else None

    def _in_order(self, n_chunks, run_chunk, add, w) -> None:
        """Chunk i on workspace i % w, each added on the caller in chunk
        order before its workspace takes chunk i + w."""
        running = {i: self._pool.submit(run_chunk, i, self.workspaces[i]) for i in range(w)}
        try:
            for i in range(n_chunks):
                ws = self.workspaces[i % w]
                add(i, running.pop(i).result(), ws)
                if i + w < n_chunks:
                    running[i + w] = self._pool.submit(run_chunk, i + w, ws)
        finally:
            wait(running.values())

    def _drain(self, n_chunks, run_chunk, w) -> list:
        """The results of all chunks, in chunk order: each of w workers
        takes the next chunk as soon as it is free. After a failure no
        worker takes another chunk; every chunk before the failed one was
        taken already, so the first failing chunk always runs, and its
        error is the one raised."""
        results, failed = [None] * n_chunks, []
        chunks, lock = iter(range(n_chunks)), threading.Lock()

        def drain(ws):
            while not failed:
                with lock:
                    i = next(chunks, None)
                if i is None:
                    return
                try:
                    results[i] = run_chunk(i, ws)
                except BaseException as error:  # raised on the caller below
                    failed.append((i, error))

        wait([self._pool.submit(drain, ws) for ws in self.workspaces[:w]])
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        return results


def as_workers(workspace, params: ModelParams, rows_per_window: int, batch_windows: int) -> Workers:
    """The Workers a batch of `batch_windows` windows runs on: `workspace`
    itself when it is Workers, a Workers of that one Workspace, or of one
    fresh Workspace, sized for a chunk, when it is None. Each workspace is
    checked against params and for room for a chunk."""
    chunk_rows = min(batch_windows, chunk_windows(rows_per_window)) * rows_per_window
    if isinstance(workspace, Workers):
        for ws in workspace.workspaces:
            _workspace(ws, params, chunk_rows)
        return workspace
    return Workers([_workspace(workspace, params, chunk_rows)])


def _workspace(workspace: Workspace | None, params: ModelParams, rows: int) -> Workspace:
    """`workspace`, checked against params and for room for `rows` rows, or
    a fresh one of `rows` rows when it is None."""
    if workspace is None:
        return Workspace(params.config, rows, params.dtype)
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


def _check_time_indices(hours, days, months, batch: int):
    arrs = []
    for name, a, hi in (
        ("hours", hours, HOURS_PER_DAY),
        ("days", days, DAYS_PER_MONTH),
        ("months", months, MONTHS_PER_YEAR),
    ):
        a = np.asarray(a, dtype=np.intp).reshape(-1)
        if a.shape != (batch,):
            raise ShapeError(f"{name} has shape {a.shape}, expected ({batch},)")
        if a.size and (a.min() < 0 or a.max() >= hi):
            raise ValidationError(f"{name} index outside [0, {hi})")
        arrs.append(a)
    return arrs


def spatial_rows(
    coords_norm: np.ndarray, params: ModelParams, out: np.ndarray | None = None
) -> np.ndarray | None:
    """The spatial encoding's [N, d] rows, in params.dtype: fc_spatial over
    normalized [N, 3] coordinates (absolute), written to `out` when given,
    the station table itself (relative), or None (none)."""
    cfg = params.config
    if cfg.spatial_encoding == "absolute":
        coords_norm = np.asarray(coords_norm)
        if coords_norm.ndim != 2 or coords_norm.shape[1] != 3:
            raise ShapeError(f"coords shape {coords_norm.shape}, expected [N, 3]")
        return linear_forward(coords_norm, params.layer("fc_spatial"), out=out)
    if cfg.spatial_encoding == "relative":
        return params.tensors["station_table"]
    return None


def temporal_rows(hours, days, months, params: ModelParams) -> np.ndarray | None:
    """The temporal encoding's [B, d] rows, hour + day + month table rows
    for each window's calendar indices (in range: the caller checks them,
    as forward_rows does), or None when the model has none."""
    if params.config.temporal_encoding != "absolute":
        return None
    t = params.tensors
    return t["table_hour"][hours] + t["table_day"][days] + t["table_month"][months]


def encoder_forward(z: np.ndarray, params: ModelParams, workspace: Workspace | None = None):
    """The L residual blocks z <- fc2(relu(fc1(z))) + z over rows [..., d],
    in params.dtype, written into the workspace's r (each block's ReLU
    output, fc2's input) and z[1:] (each block's output) buffers, those of
    a fresh workspace when none is given."""
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


def forward_rows(
    x_rows: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
    params: ModelParams,
    workspace: Workspace | None = None,
):
    """The forward pass over rows: embed, add spatial_rows and
    temporal_rows, encoder_forward, then the regression head.

    x_rows: [B*N*C, T_h] history rows ordered (window, station, variable),
    where B = len(hours) and C = config.n_vars; coords_norm: normalized
    [N, 3]; hours/days/months: per-window calendar indices [B]. Returns
    prediction rows [B*N*C, T_f] in params.dtype and the workspace that
    records the pass for backward_batch: `workspace`, or a fresh one when
    it is None, so that without one the results share no memory with
    anything the caller holds. x_rows and coords_norm are cast to
    params.dtype (no copy when they have it); x_rows must be finite in it,
    which split_windows checks once for the whole series and forward_batch
    for each batch. The workspace keeps x_rows as a reference, so the
    caller must not change it before backward_batch.
    """
    cfg = params.config
    dtype = params.dtype
    x_rows = np.asarray(x_rows, dtype=dtype)
    hours, days, months = _check_time_indices(hours, days, months, np.size(hours))
    n_batch, n_vars = len(hours), cfg.n_vars
    n_stations = _stations_of_rows(x_rows, n_batch, cfg)
    rows = x_rows.shape[0]
    ws = _workspace(workspace, params, rows)
    coords_norm = (
        np.asarray(coords_norm, dtype=dtype) if cfg.spatial_encoding == "absolute" else None
    )

    e = linear_forward(x_rows, params.layer("fc_embed"), out=ws.z[0][:rows])
    h4 = e.reshape(n_batch, n_stations, n_vars, cfg.d)
    # the gradient buffers are free until backward_batch
    s_rows = spatial_rows(coords_norm, params, out=ws.g[0][:n_stations])
    if s_rows is not None:
        if s_rows.shape[0] != n_stations:
            raise ShapeError(f"{n_stations} stations but {s_rows.shape[0]} spatial rows")
        h4 += s_rows[None, :, None, :]
    time_rows = temporal_rows(hours, days, months, params)
    if time_rows is not None:
        h4 += time_rows[:, None, None, :]

    y_rows = linear_forward(
        encoder_forward(e, params, ws), params.layer("fc_regress"), out=ws.y[:rows]
    )
    ws.inputs = dict(
        x_rows=x_rows,
        coords_norm=coords_norm,
        hours=hours,
        days=days,
        months=months,
        dims=(n_batch, n_stations, n_vars),
    )
    return y_rows, ws


def backward_batch(g_rows: np.ndarray, workspace: Workspace, params: ModelParams) -> dict:
    """The reverse-mode pass of the forward_rows call that `workspace`
    records, from the gradient of its prediction rows [B*N*C, T_f]; returns
    gradients keyed like ModelParams.tensors, as views of the workspace's
    chunk_grad vector.

    The activations are read from the workspace's z and r, and the inputs
    from its `inputs`; a workspace no forward has run in, or gradient rows
    of another shape than that forward's prediction, is a ShapeError.
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
    cfg = params.config
    n_batch, n_stations, n_vars = inputs["dims"]
    rows = n_batch * n_stations * n_vars
    g_rows = np.asarray(g_rows, dtype=params.dtype)
    if g_rows.shape != (rows, cfg.t_f):
        raise ShapeError(f"gradient rows {g_rows.shape} != the forward's {(rows, cfg.t_f)}")
    ws = _workspace(workspace, params, rows)
    grads = ws.chunk_grad.tensors
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
        for name, idx in (
            ("table_hour", inputs["hours"]),
            ("table_day", inputs["days"]),
            ("table_month", inputs["months"]),
        ):
            g_table = grads[name]
            g_table[...] = 0.0
            np.add.at(g_table, idx, g_window)

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
                inputs["coords_norm"], g_station, out=param_out("fc_spatial"), ones=ones
            )
        else:
            grads["station_table"][...] = g_station

    gw_e, gb_e = param_out("fc_embed")
    linear_weight_grad(inputs["x_rows"], gz, out=gw_e)
    row_sum(gz if g_station is None else g_station, ones, out=gb_e)
    return dict(grads)


def loss_and_grads(
    params: ModelParams,
    x_rows: np.ndarray,
    future_rows: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
    workspace: Workspace | Workers | None = None,
) -> tuple[float, dict]:
    """Mean absolute error of a batch of rows and its gradients for every
    tensor: history rows [B*N*C, T_h] and target rows [B*N*C, T_f], laid
    out as forward_rows reads them.

    The loss is the plain mean of |pred - truth| over all batch elements,
    i.e. the per-window 1/(N*C*T_f) normalization averaged over windows, so
    batch gradients are averages of per-window gradients. forward_rows and
    backward_batch run on consecutive chunks of chunk_windows(N*C) whole
    windows, dispatched by Workers.run: on `workspace` when it is Workers,
    on that one Workspace, or on a fresh one when it is None. Each chunk
    takes pred - truth in place and |pred - truth| into its workspace's
    abs_err buffer, sums that in float64, and overwrites it with the sign,
    which it back-propagates unscaled. The caller adds the chunks' loss
    sums and gradients in chunk order, the gradients into the first
    workspace's grad vector, which is divided by the element count once
    per batch. The gradients, in params.dtype, are returned as views of
    that vector (in tensor_spec layout: training hands it to adam_step).
    """
    cfg = params.config
    hours, days, months = _check_time_indices(hours, days, months, np.size(hours))
    x_rows = np.asarray(x_rows)
    rows = _stations_of_rows(x_rows, len(hours), cfg) * cfg.n_vars
    future_rows = np.asarray(future_rows)
    if future_rows.shape != (x_rows.shape[0], cfg.t_f):
        raise ShapeError(
            f"future shape {future_rows.shape} != pred shape {(x_rows.shape[0], cfg.t_f)}"
        )
    step = chunk_windows(rows)
    abs_sum = 0.0

    def chunk(i, ws):
        lo = i * step
        w, r = slice(lo, lo + step), slice(lo * rows, (lo + step) * rows)
        pred, _ = forward_rows(x_rows[r], coords_norm, hours[w], days[w], months[w], params, ws)
        diff = pred  # the workspace's prediction buffer, which backward_batch does not read
        diff -= np.asarray(future_rows[r], dtype=pred.dtype)
        abs_diff = np.abs(diff, out=ws.abs_err[: len(diff)])
        chunk_sum = abs_diff.sum(dtype=np.float64)
        # the sign overwrites the spent |diff|: np.sign in place runs several
        # times slower than into another buffer
        backward_batch(np.sign(diff, out=abs_diff), ws, params)
        return chunk_sum

    workers = as_workers(workspace, params, rows, len(hours))
    total = workers.workspaces[0].grad.vector

    def add(i, chunk_sum, ws):
        nonlocal abs_sum
        abs_sum += chunk_sum
        if i == 0:
            np.copyto(total, ws.chunk_grad.vector)
        else:
            np.add(total, ws.chunk_grad.vector, out=total)

    workers.run(-(-len(hours) // step), chunk, add)
    total /= future_rows.size  # one rounding per entry: the exact mean, rounded
    return float(abs_sum / future_rows.size), dict(workers.workspaces[0].grad.tensors)


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
    months: per-window calendar indices [B]. Returns predictions
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
    hours, days, months = _check_time_indices(hours, days, months, n_batch)
    with np.errstate(over="ignore"):  # an overflow is reported below
        x_rows = np.ascontiguousarray(
            history.transpose(0, 2, 3, 1).reshape(-1, cfg.t_h), dtype=params.dtype
        )
    if not np.isfinite(x_rows).all():
        raise ValidationError(f"history contains values that are not finite in {params.dtype}")
    y_rows, ws = forward_rows(x_rows, coords_norm, hours, days, months, params)
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
    pred, _ = forward_batch(
        history[None],
        coords_norm,
        np.array([tf.hour]),
        np.array([tf.day_index]),
        np.array([tf.month_index]),
        params,
    )
    return pred[0]
