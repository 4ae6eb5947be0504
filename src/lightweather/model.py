"""The forecasting network: per-series data embedding, absolute spatial and
temporal encodings fused by addition, a residual MLP encoder, and a linear
regression head.

Every (station, variable) series is processed independently by shared
weights; spatial information enters only through the coordinate encoding,
so the parameter count does not depend on the station count. The math is
written once, over rows: one row is one (window, station, variable) series,
and a batch of B windows is [B*N*C, T] rows in that order. forward_rows
embeds (fc_embed), adds spatial_rows and temporal_rows, runs
encoder_forward and regresses (fc_regress); backward_rows and
loss_and_grads_rows are its gradient and its training step. fit and
evaluate feed them the rows WindowSet.batch gathers. forward_batch,
backward_batch and loss_and_grads take [B, T, N, C] tensors instead and
only convert layout (batch_to_rows, rows_to_batch) around the row code.
The three stage kernels are public so that each stage can be checked on
its own; forward is forward_batch on one window.

Variants used by the ablation harness are expressed through ModelConfig:
spatial_encoding may be "absolute" (a 3 -> d layer over normalized
lat/lon/elevation), "relative" (a learnable station-index table), or
"none"; temporal_encoding may be "absolute" (hour/day/month tables) or
"none".

tensor_spec(config) is the only place the parameter layout is written:
names, shapes and init bounds, in the order that init_params draws them and
that the LWCKPT1 checkpoint manifest lists them. ModelParams holds the
tensors in a dict in that order.

The batch path computes in the dtype of the params' tensors, float64 as
initialized and loaded or a COMPUTE_DTYPE copy from ModelParams.astype; its
inputs are cast to that dtype and the loss is summed in float64 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError, ShapeError, ValidationError
from .numerics import (
    LinearLayer,
    linear_backward,
    linear_forward,
    linear_param_grads,
    relu,
    relu_backward,
)

SPATIAL_MODES = ("absolute", "relative", "none")
TEMPORAL_MODES = ("absolute", "none")

HOURS_PER_DAY = 24
DAYS_PER_MONTH = 31
MONTHS_PER_YEAR = 12

# The dtype fit and evaluate run the batch path in, on float64 master
# weights, and so the dtype of the model's stored copy of the series.
COMPUTE_DTYPE = np.float32


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
        for name in ("d", "n_layers", "t_h", "t_f", "n_vars"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.spatial_encoding not in SPATIAL_MODES:
            raise ConfigError(f"unknown spatial_encoding {self.spatial_encoding!r}")
        if self.temporal_encoding not in TEMPORAL_MODES:
            raise ConfigError(f"unknown temporal_encoding {self.temporal_encoding!r}")
        if self.spatial_encoding == "relative" and not self.n_stations:
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
    """
    config.validate()
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
    """Every learnable tensor of the network, keyed by name in tensor_spec
    order."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def layer(self, prefix: str) -> LinearLayer:
        """The linear layer `<prefix>.weight`/`.bias`; shares their arrays."""
        return LinearLayer(self.tensors[f"{prefix}.weight"], self.tensors[f"{prefix}.bias"])

    @property
    def dtype(self) -> np.dtype:
        """The dtype the batch path computes in; every tensor has it."""
        return self.tensors["fc_embed.weight"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {n: a.copy() for n, a in self.tensors.items()})

    def astype(self, dtype) -> "ModelParams":
        """A copy with every tensor cast to `dtype`."""
        return ModelParams(self.config, {n: a.astype(dtype) for n, a in self.tensors.items()})


def parameter_count(config: ModelConfig) -> int:
    """Exact enumerated parameter count for the configured variant.

    For the base (absolute/absolute) variant this is
    d(T_h+1) + 4d + 67d + 2*L*d*(d+1) + T_f(d+1).
    """
    return sum(math.prod(shape) for _, shape, _ in tensor_spec(config))


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
    tensors = {
        name: rng.uniform(-bound, bound, size=shape)
        for name, shape, bound in tensor_spec(config)
    }
    return ModelParams(config, tensors)


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


def temporal_rows(hours, days, months, params: ModelParams) -> np.ndarray | None:
    """The temporal encoding's [B, d] rows, hour + day + month table rows
    for each window's calendar indices (in range: forward_batch checks
    them), or None when the model has none."""
    if params.config.temporal_encoding != "absolute":
        return None
    t = params.tensors
    return t["table_hour"][hours] + t["table_day"][days] + t["table_month"][months]


def encoder_forward(z: np.ndarray, params: ModelParams, cache: dict | None = None):
    """The L residual blocks z <- fc2(relu(fc1(z))) + z over rows [..., d],
    in params.dtype. With a cache, appends each block's ReLU output (fc2's
    input) to cache["r_list"] and its output to cache["z_list"]; without
    one, keeps none of them."""
    cfg = params.config
    z = np.asarray(z, dtype=params.dtype)
    if z.shape[-1] != cfg.d:
        raise ShapeError(f"encoder input width {z.shape[-1]} != d {cfg.d}")
    for i in range(cfg.n_layers):
        r = linear_forward(z, params.layer(f"encoder.{i}.fc1"))
        relu(r, out=r)
        y = linear_forward(r, params.layer(f"encoder.{i}.fc2"))
        y += z  # residual path
        z = y
        if cache is not None:
            cache["r_list"].append(r)
            cache["z_list"].append(z)
    return z


def batch_to_rows(a: np.ndarray) -> np.ndarray:
    """[B, T, N, C] -> rows [B*N*C, T], ordered (window, station, variable);
    a copy unless `a` is already laid out so."""
    a = np.asarray(a)
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def rows_to_batch(rows: np.ndarray, n_batch: int, n_stations: int, n_vars: int) -> np.ndarray:
    """Rows [B*N*C, T] -> a contiguous [B, T, N, C]; inverse of batch_to_rows."""
    return np.ascontiguousarray(
        rows.reshape(n_batch, n_stations, n_vars, -1).transpose(0, 3, 1, 2)
    )


def forward_rows(
    x_rows: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
    params: ModelParams,
    want_cache: bool = False,
):
    """The forward pass over rows: embed, add spatial_rows and
    temporal_rows, encoder_forward, then the regression head.

    x_rows: [B*N*C, T_h] history rows ordered (window, station, variable),
    where B = len(hours) and C = config.n_vars; coords_norm: normalized
    [N, 3]; hours/days/months: per-window calendar indices [B]. Returns
    prediction rows [B*N*C, T_f] in params.dtype and, when want_cache is
    set, the cache backward_rows needs (else None). x_rows and coords_norm
    are cast to params.dtype (no copy when they have it); x_rows must be
    finite in it, which split_windows checks once for the whole series and
    forward_batch for each batch. The cache holds
    x_rows, the calendar indices, the normalized coordinates, z_list (each
    residual block's input [B*N*C, d], then the head's input) and r_list
    (each block's ReLU output, which is also fc2's input). Its arrays are
    read, never written, by backward_rows.
    """
    cfg = params.config
    dtype = params.dtype
    x_rows = np.asarray(x_rows, dtype=dtype)
    hours, days, months = _check_time_indices(hours, days, months, np.size(hours))
    n_batch, n_vars = len(hours), cfg.n_vars
    if x_rows.ndim != 2 or x_rows.shape[1] != cfg.t_h or n_batch == 0:
        raise ShapeError(f"history rows {x_rows.shape} for {n_batch} windows, T_h={cfg.t_h}")
    n_stations, odd = divmod(x_rows.shape[0], n_batch * n_vars)
    if odd:
        raise ShapeError(
            f"{x_rows.shape[0]} history rows are not {n_batch} windows x C={n_vars}"
        )
    coords_norm = (
        np.asarray(coords_norm, dtype=dtype) if cfg.spatial_encoding == "absolute" else None
    )

    e = linear_forward(x_rows, params.layer("fc_embed"))
    h4 = e.reshape(n_batch, n_stations, n_vars, cfg.d)
    s_rows = spatial_rows(coords_norm, params)
    if s_rows is not None:
        if s_rows.shape[0] != n_stations:
            raise ShapeError(f"{n_stations} stations but {s_rows.shape[0]} spatial rows")
        h4 += s_rows[None, :, None, :]
    time_rows = temporal_rows(hours, days, months, params)
    if time_rows is not None:
        h4 += time_rows[:, None, None, :]

    z = h4.reshape(-1, cfg.d)
    cache = {"z_list": [z], "r_list": []} if want_cache else None
    y_rows = linear_forward(encoder_forward(z, params, cache), params.layer("fc_regress"))
    if cache is not None:
        cache.update(
            x_rows=x_rows,
            coords_norm=coords_norm,
            hours=hours,
            days=days,
            months=months,
            dims=(n_batch, n_stations, n_vars),
        )
    return y_rows, cache


def backward_rows(g_rows: np.ndarray, cache: dict, params: ModelParams) -> dict:
    """Reverse-mode pass from the gradient of the prediction rows
    [B*N*C, T_f]; returns gradients keyed like ModelParams.tensors.

    Temporal-table gradients are nonzero only at rows indexed by the batch.
    """
    cfg = params.config
    n_batch, n_stations, n_vars = cache["dims"]
    g_rows = np.asarray(g_rows, dtype=params.dtype)
    grads: dict[str, np.ndarray] = {}

    gz, gw, gb = linear_backward(cache["z_list"][-1], params.layer("fc_regress"), g_rows)
    grads["fc_regress.weight"] = gw
    grads["fc_regress.bias"] = gb

    for i in reversed(range(cfg.n_layers)):
        r = cache["r_list"][i]
        gs, gw2, gb2 = linear_backward(r, params.layer(f"encoder.{i}.fc2"), gz)
        ga = relu_backward(r, gs, out=gs)
        gz_in, gw1, gb1 = linear_backward(
            cache["z_list"][i], params.layer(f"encoder.{i}.fc1"), ga
        )
        grads[f"encoder.{i}.fc1.weight"] = gw1
        grads[f"encoder.{i}.fc1.bias"] = gb1
        grads[f"encoder.{i}.fc2.weight"] = gw2
        grads[f"encoder.{i}.fc2.bias"] = gb2
        gz_in += gz  # residual path
        gz = gz_in

    gh4 = gz.reshape(n_batch, n_stations, n_vars, cfg.d)

    if cfg.temporal_encoding == "absolute":
        g_window = gh4.sum(axis=(1, 2))  # [B, d]
        for name, idx, rows in (
            ("table_hour", cache["hours"], HOURS_PER_DAY),
            ("table_day", cache["days"], DAYS_PER_MONTH),
            ("table_month", cache["months"], MONTHS_PER_YEAR),
        ):
            g_table = np.zeros((rows, cfg.d), dtype=params.dtype)
            np.add.at(g_table, idx, g_window)
            grads[name] = g_table

    if cfg.spatial_encoding == "absolute":
        g_station = gh4.sum(axis=(0, 2))  # [N, d]
        gw_s, gb_s = linear_param_grads(cache["coords_norm"], g_station)
        grads["fc_spatial.weight"] = gw_s
        grads["fc_spatial.bias"] = gb_s
    elif cfg.spatial_encoding == "relative":
        grads["station_table"] = gh4.sum(axis=(0, 2))

    gw_e, gb_e = linear_param_grads(cache["x_rows"], gz)
    grads["fc_embed.weight"] = gw_e
    grads["fc_embed.bias"] = gb_e
    return grads


def loss_and_grads_rows(
    params: ModelParams,
    x_rows: np.ndarray,
    future_rows: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
) -> tuple[float, dict]:
    """Mean absolute error of a batch of rows and its gradients for every
    tensor: history rows [B*N*C, T_h] and target rows [B*N*C, T_f], laid
    out as forward_rows reads them.

    The loss is the plain mean of |pred - truth| over all batch elements,
    i.e. the per-window 1/(N*C*T_f) normalization averaged over windows, so
    batch gradients are averages of per-window gradients. The sum is taken
    in float64; the gradients are in params.dtype.
    """
    pred, cache = forward_rows(x_rows, coords_norm, hours, days, months, params, want_cache=True)
    future_rows = np.asarray(future_rows, dtype=pred.dtype)
    if future_rows.shape != pred.shape:
        raise ShapeError(f"future shape {future_rows.shape} != pred shape {pred.shape}")
    diff = pred  # pred is fresh and not in the cache
    diff -= future_rows
    loss = float(np.abs(diff).sum(dtype=np.float64) / diff.size)
    grad_pred = np.sign(diff, out=diff)
    grad_pred /= diff.size
    return loss, backward_rows(grad_pred, cache, params)


def _history_rows(history: np.ndarray, params: ModelParams) -> np.ndarray:
    """Check a [B, T_h, N, C] history and lay it out as rows in
    params.dtype; a value that is not finite after the cast (one that
    overflows float32) is a ValidationError."""
    cfg = params.config
    history = np.asarray(history)
    if history.ndim != 4:
        raise ShapeError(f"history must be [B, T_h, N, C], got {history.shape}")
    if history.shape[1] != cfg.t_h or history.shape[3] != cfg.n_vars:
        raise ShapeError(
            f"history {history.shape} inconsistent with T_h={cfg.t_h}, C={cfg.n_vars}"
        )
    with np.errstate(over="ignore"):  # an overflow is reported below
        x_rows = np.ascontiguousarray(batch_to_rows(history), dtype=params.dtype)
    if not np.isfinite(x_rows).all():
        raise ValidationError(f"history contains values that are not finite in {params.dtype}")
    return x_rows


def forward_batch(
    history: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
    params: ModelParams,
    want_cache: bool = False,
):
    """forward_rows on a batch of windows in [B, T, N, C] layout.

    history: [B, T_h, N, C]; coords_norm: normalized [N, 3]; hours/days/
    months: per-window calendar indices [B]. Returns predictions
    [B, T_f, N, C] in params.dtype and, when want_cache is set, the cache
    backward_batch needs (else None). history is cast to params.dtype and
    must be finite after the cast: a value that overflows float32 is a
    ValidationError.
    """
    x_rows = _history_rows(history, params)
    n_batch, _, n_stations, n_vars = np.shape(history)
    hours, days, months = _check_time_indices(hours, days, months, n_batch)
    y_rows, cache = forward_rows(x_rows, coords_norm, hours, days, months, params, want_cache)
    return rows_to_batch(y_rows, n_batch, n_stations, n_vars), cache


def backward_batch(grad_pred: np.ndarray, cache: dict, params: ModelParams) -> dict:
    """backward_rows from the gradient of [B, T_f, N, C] predictions."""
    grad_pred = np.asarray(grad_pred, dtype=params.dtype)
    return backward_rows(np.ascontiguousarray(batch_to_rows(grad_pred)), cache, params)


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


def loss_and_grads(
    params: ModelParams,
    history: np.ndarray,
    future: np.ndarray,
    coords_norm: np.ndarray,
    hours,
    days,
    months,
) -> tuple[float, dict]:
    """loss_and_grads_rows on [B, T_h, N, C] history and [B, T_f, N, C]
    future; history is checked as forward_batch checks it."""
    x_rows = _history_rows(history, params)
    n_batch, _, n_stations, n_vars = np.shape(history)
    future = np.asarray(future)
    if future.shape != (n_batch, params.config.t_f, n_stations, n_vars):
        raise ShapeError(
            f"future shape {future.shape} != pred shape "
            f"{(n_batch, params.config.t_f, n_stations, n_vars)}"
        )
    hours, days, months = _check_time_indices(hours, days, months, n_batch)
    return loss_and_grads_rows(
        params, x_rows, batch_to_rows(future), coords_norm, hours, days, months
    )
