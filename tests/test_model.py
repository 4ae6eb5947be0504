import copy
import math
import re
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import lightweather as lw
from lightweather import model as lw_model
from lightweather import numerics as lw_numerics
from lightweather.baselines import evaluate_hi
from lightweather.data import split_windows
from lightweather.errors import ConfigError, ShapeError, ValidationError
from lightweather.checkpoint import LWCKPT1, checkpoint_load, checkpoint_save
from lightweather.model import (
    CALENDAR,
    SPATIAL_MODES,
    TEMPORAL_MODES,
    ModelConfig,
    ModelParams,
    StationCoord,
    TimeFeature,
    backward_batch,
    closed_form_count,
    encoder_forward,
    forward,
    forward_batch,
    forward_rows,
    init_params,
    loss_and_grads,
    normalize_coords,
    parameter_count,
    positions,
    spatial_rows,
    temporal_rows,
    tensor_spec,
    WindowBatch,
    Workspace,
)
from lightweather.numerics import (
    blas_threads,
    linear_forward,
    relu,
    single_threaded_blas,
)
from lightweather.synthetic import SynthConfig, generate, random_station_coords
from lightweather.training import evaluate
from oracles import RowBatch, container_parts, finite_diff_check, lwckpt1_save


def small_config(**kw):
    base = dict(d=8, n_layers=2, t_h=6, t_f=3, n_vars=1)
    base.update(kw)
    return ModelConfig(**base)


def random_coords(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        StationCoord(
            latitude=float(rng.uniform(-80, 80)),
            longitude=float(rng.uniform(-179, 179)),
            elevation=float(rng.uniform(0, 2500)),
        )
        for _ in range(n)
    ]


def to_rows(a):
    """A [B, T, N, C] draw as rows [B*N*C, T], ordered (window, station,
    variable) as the model's row code takes them."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1]))


def stack(hours, days, months):
    """Calendar columns, each [B], as the [B, 3] calendar the model takes."""
    return np.stack([hours, days, months], axis=1)


def row_batch(hist, fut, cn, hours, days, months):
    """A [B, T, N, C] batch as loss_and_grads's arguments after the params:
    a RowBatch and the coordinates."""
    return RowBatch(to_rows(hist), to_rows(fut), stack(hours, days, months)), cn


def one_worker(p, batch):
    """Workers of one fresh Workspace in p's dtype, sized for a chunk of
    `batch` (a RowBatch or WindowBatch): its chunks run on the caller."""
    per_window = batch.rows_per_window(p.config)
    rows = min(len(batch.calendar), lw_model.chunk_windows(per_window)) * per_window
    return lw_model.Workers([Workspace(p.config, rows, p.dtype)])


# --- embedding: fc_embed, as forward_rows applies it ------------------------


def embed(x, p):
    return linear_forward(x, p.layer("fc_embed"))


def test_embed_zero_history_zero_bias():
    p = init_params(small_config(), seed=0)
    p.tensors["fc_embed.bias"][:] = 0.0
    assert_array_equal(embed(np.zeros(6), p), np.zeros(8))


def test_embed_selects_inputs_with_identity_rows():
    p = init_params(small_config(d=2, t_h=2), seed=0)
    p.tensors["fc_embed.weight"][:] = np.eye(2)
    p.tensors["fc_embed.bias"][:] = 0.0
    assert_array_equal(embed(np.array([4.0, -7.0]), p), [4.0, -7.0])


def test_embed_output_length_is_d():
    p = init_params(small_config(), seed=1)
    assert embed(np.arange(6.0), p).shape == (8,)
    with pytest.raises(ShapeError):
        embed(np.arange(5.0), p)


# --- spatial encoding: spatial_rows ----------------------------------------


def encode_spatial(coord, p):
    return spatial_rows(normalize_coords([coord]), p)[0]


def test_spatial_same_coords_same_encoding():
    p = init_params(small_config(), seed=2)
    a = encode_spatial(StationCoord(12.0, 34.0, 560.0), p)
    b = encode_spatial(StationCoord(12.0, 34.0, 560.0), p)
    assert_array_equal(a, b)


def test_spatial_zero_weight_gives_bias_everywhere():
    p = init_params(small_config(), seed=3)
    p.tensors["fc_spatial.weight"][:] = 0.0
    for c in random_coords(5):
        assert_array_equal(encode_spatial(c, p), p.tensors["fc_spatial.bias"])


def test_spatial_origin_maps_to_bias():
    p = init_params(small_config(), seed=4)
    assert_array_equal(
        normalize_coords([StationCoord(0.0, 0.0, 0.0)])[0], np.zeros(3)
    )
    assert_array_equal(
        encode_spatial(StationCoord(0.0, 0.0, 0.0), p), p.tensors["fc_spatial.bias"]
    )


def test_spatial_out_of_range_coordinate():
    p = init_params(small_config(), seed=5)
    with pytest.raises(ValidationError):
        encode_spatial(StationCoord(91.0, 0.0, 0.0), p)
    with pytest.raises(ValidationError):
        encode_spatial(StationCoord(0.0, -200.0, 0.0), p)


def test_spatial_rows_per_variant():
    coords = normalize_coords(random_coords(3))
    rel = init_params(small_config(spatial_encoding="relative", n_stations=3), seed=6)
    assert spatial_rows(coords, rel) is rel.tensors["station_table"]
    assert spatial_rows(coords, init_params(small_config(spatial_encoding="none"), 6)) is None
    with pytest.raises(ShapeError):
        spatial_rows(coords[:, :2], init_params(small_config(), seed=6))


# --- temporal encoding: temporal_rows --------------------------------------

def lookup(tf, p):
    """temporal_rows for one window at `tf`: hour + day + month rows."""
    return temporal_rows(stack([tf.hour], [tf.day_index], [tf.month_index]), p)[0]


def only(p, table):
    """A copy of p whose temporal tables other than `table` are zero, so
    that lookup returns that table's row."""
    q = p.copy()
    for name, _ in CALENDAR:
        if name != table:
            q.tensors[name][:] = 0.0
    return q


def test_lookup_hour_zero_is_row_zero():
    p = init_params(small_config(), seed=6)
    tf = TimeFeature(hour=0, day_index=3, month_index=7)
    assert_array_equal(lookup(tf, only(p, "table_hour")), p.tensors["table_hour"][0])
    assert_array_equal(lookup(tf, only(p, "table_day")), p.tensors["table_day"][3])
    assert_array_equal(lookup(tf, only(p, "table_month")), p.tensors["table_month"][7])
    t = p.tensors
    assert_array_equal(lookup(tf, p), t["table_hour"][0] + t["table_day"][3] + t["table_month"][7])


def test_lookup_is_pure():
    p = init_params(small_config(), seed=7)
    tables = copy.deepcopy(p.tensors)
    tf = TimeFeature(hour=13, day_index=30, month_index=11)
    for q in (p, *(only(p, name) for name, _ in CALENDAR)):
        assert_array_equal(lookup(tf, q), lookup(tf, q))
    _assert_unchanged(tables, p.tensors)


def test_daily_resolution_has_constant_hour_row():
    from datetime import datetime, timedelta

    p = only(init_params(small_config(), seed=8), "table_hour")
    day0 = datetime(2020, 3, 1)
    rows = [lookup(TimeFeature.from_timestamp(day0 + timedelta(days=k)), p) for k in range(5)]
    for row in rows[1:]:
        assert_array_equal(row, rows[0])


def test_temporal_rows_none_without_tables():
    p = init_params(small_config(temporal_encoding="none"), seed=8)
    assert temporal_rows(stack([1], [2], [3]), p) is None


def test_time_feature_ranges():
    with pytest.raises(ValidationError):
        TimeFeature(hour=24, day_index=0, month_index=0)
    with pytest.raises(ValidationError):
        TimeFeature(hour=0, day_index=31, month_index=0)
    with pytest.raises(ValidationError):
        TimeFeature(hour=0, day_index=0, month_index=12)


# --- fusion: the encoder input forward_batch leaves in its workspace's z[0] -


def fusion(p, seed, n_batch=2, n_st=3):
    """forward_batch's fused rows, its workspace's z[0] [B*N*C, d], and
    their five addends, each written out from the tensors and broadcast to
    the same rows: the embedding, the spatial row and the hour, day and
    month rows."""
    cfg = p.config
    hist, _, cn, hours, days, months = _random_batch(cfg, n_batch, n_st, seed)
    _, workspace = forward_batch(hist, cn, hours, days, months, p)
    shape = (n_batch, n_st, cfg.n_vars, cfg.d)
    x_rows = hist.transpose(0, 2, 3, 1).reshape(-1, cfg.t_h)
    e = (x_rows @ p.tensors["fc_embed.weight"].T + p.tensors["fc_embed.bias"]).reshape(shape)
    s = cn @ p.tensors["fc_spatial.weight"].T + p.tensors["fc_spatial.bias"]
    terms = [e, np.broadcast_to(s[None, :, None, :], shape)]
    for (name, _), idx in zip(CALENDAR, (hours, days, months)):
        terms.append(np.broadcast_to(p.tensors[name][idx][:, None, None, :], shape))
    return workspace.z[0], [a.reshape(-1, cfg.d) for a in terms]


def test_fuse_zeros_give_back_embedding():
    p = init_params(small_config(), seed=9)
    for name in ("fc_spatial.weight", "fc_spatial.bias", *(name for name, _ in CALENDAR)):
        p.tensors[name][:] = 0.0
    z, (e, *_) = fusion(p, seed=9)
    assert_array_equal(z, e)


def test_fuse_permutation_invariant():
    z, terms = fusion(init_params(small_config(), seed=9), seed=10)
    assert_array_equal(z, (terms[0] + terms[1]) + (terms[2] + terms[3] + terms[4]))
    perm = [terms[i] for i in (3, 0, 4, 2, 1)]
    assert_allclose(perm[0] + perm[1] + perm[2] + perm[3] + perm[4], z, rtol=0, atol=1e-12)


def test_fuse_readd_and_subtract():
    z, terms = fusion(init_params(small_config(), seed=10), seed=11)
    residue = z - terms[0] - terms[1] - terms[2] - terms[3] - terms[4]
    assert_allclose(residue, np.zeros_like(z), rtol=0, atol=1e-12)


def test_fuse_shape_mismatch():
    cfg = small_config(spatial_encoding="relative", n_stations=4)
    hist, _, cn, hours, days, months = _random_batch(cfg, 2, 3, seed=12)
    for p in (init_params(small_config(), 12), init_params(cfg, 12)):
        with pytest.raises(ShapeError):  # 4 coordinate or table rows, 3 stations
            forward_batch(hist, normalize_coords(random_coords(4)), hours, days, months, p)


# --- encoder: encoder_forward on one row -----------------------------------


def test_encoder_residual_identity_when_fc2_zeroed():
    p = init_params(small_config(n_layers=3), seed=11)
    for i in range(p.config.n_layers):
        p.layer(f"encoder.{i}.fc2").weight[:] = 0.0
        p.layer(f"encoder.{i}.fc2").bias[:] = 0.0
    h = np.random.default_rng(12).normal(size=8)
    assert_array_equal(encoder_forward(h, p, Workspace(p.config, 1, p.dtype)), h)


def test_encoder_scalar_case():
    p = init_params(small_config(d=1, n_layers=1, t_h=1, t_f=1), seed=13)
    p.layer("encoder.0.fc1").weight[:] = 1.0
    p.layer("encoder.0.fc1").bias[:] = 0.0
    p.layer("encoder.0.fc2").weight[:] = 1.0
    p.layer("encoder.0.fc2").bias[:] = 0.0
    assert_array_equal(encoder_forward(np.array([2.0]), p, Workspace(p.config, 1, p.dtype)), [4.0])


def test_encoder_finite_over_random_draws():
    cfg = small_config(d=4, n_layers=2)
    h = np.linspace(-2, 2, 4)
    ws = Workspace(cfg, 1, np.float64)
    for seed in range(10_000):
        p = init_params(cfg, seed=seed)
        out = encoder_forward(h, p, ws)
        assert np.isfinite(out).all()


def test_encoder_row_equals_its_row_in_a_stack():
    p = init_params(small_config(), seed=14)
    rows = np.random.default_rng(15).normal(size=(5, 8))
    stacked = encoder_forward(rows, p, Workspace(p.config, 5, p.dtype))
    row = Workspace(p.config, 1, p.dtype)
    for k in range(5):  # a vector product and a matrix product may round differently
        assert_allclose(encoder_forward(rows[k], p, row), stacked[k], rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        encoder_forward(np.zeros(7), p, row)


# --- full forward ----------------------------------------------------------


def test_forward_output_shape():
    cfg = small_config()
    p = init_params(cfg, seed=14)
    coords = random_coords(4)
    hist = np.random.default_rng(15).normal(size=(cfg.t_h, 4, cfg.n_vars))
    out = forward(hist, coords, TimeFeature(5, 10, 3), p)
    assert out.shape == (cfg.t_f, 4, cfg.n_vars)


def test_forward_rejects_nonfinite():
    cfg = small_config()
    p = init_params(cfg, seed=16)
    hist = np.zeros((cfg.t_h, 2, 1))
    hist[0, 0, 0] = np.inf
    with pytest.raises(ValidationError):
        forward(hist, random_coords(2), TimeFeature(0, 0, 0), p)


def test_forward_perturbing_one_station_leaves_others():
    cfg = small_config(n_vars=2)
    p = init_params(cfg, seed=17)
    rng = np.random.default_rng(18)
    n = 5
    coords = random_coords(n)
    cn = normalize_coords(coords)
    hist = rng.normal(size=(3, cfg.t_h, n, cfg.n_vars))
    hours, days, months = np.array([1, 2, 3]), np.array([0, 1, 2]), np.array([4, 5, 6])
    base, _ = forward_batch(hist, cn, hours, days, months, p)
    for trial in range(100):
        k = int(rng.integers(0, n))
        bumped = hist.copy()
        bumped[:, :, k, :] += rng.normal(size=(3, cfg.t_h, cfg.n_vars))
        out, _ = forward_batch(bumped, cn, hours, days, months, p)
        others = [i for i in range(n) if i != k]
        assert_array_equal(out[:, :, others, :], base[:, :, others, :])
        assert not np.array_equal(out[:, :, k, :], base[:, :, k, :])


def test_forward_station_permutation_equivariance():
    cfg = small_config()
    p = init_params(cfg, seed=19)
    rng = np.random.default_rng(20)
    n = 6
    cn = normalize_coords(random_coords(n))
    hist = rng.normal(size=(2, cfg.t_h, n, cfg.n_vars))
    hours, days, months = np.array([7, 8]), np.array([9, 10]), np.array([0, 1])
    base, _ = forward_batch(hist, cn, hours, days, months, p)
    for trial in range(100):
        perm = rng.permutation(n)
        out, _ = forward_batch(hist[:, :, perm, :], cn[perm], hours, days, months, p)
        assert_array_equal(out, base[:, :, perm, :])


# --- backward --------------------------------------------------------------


# Frozen gradient-check fixture. With tiny batches the MAE sign vectors of
# two rows can be exact opposites, making some analytic gradient entries an
# exact 0 that central differences report as eps-level noise against the
# 1e-8 denominator floor. The seed below was verified free of that
# measurement artifact for all three encoding topologies.
GRAD_SEED = 22


def _batch_for(cfg, n_stations=2, batch=2):
    rng = np.random.default_rng(GRAD_SEED + 100)
    hist = rng.normal(size=(batch, cfg.t_h, n_stations, cfg.n_vars))
    fut = rng.normal(size=(batch, cfg.t_f, n_stations, cfg.n_vars))
    cn = normalize_coords(
        [StationCoord(42.0, 15.0, 100.0), StationCoord(-30.0, 50.0, 5.0)]
    )
    hours = rng.integers(0, 24, size=batch)
    days = rng.integers(0, 31, size=batch)
    months = rng.integers(0, 12, size=batch)
    return hist, fut, cn, hours, days, months


def test_full_model_gradient_check():
    cfg = small_config()
    p = init_params(cfg, seed=GRAD_SEED)
    batch = row_batch(*_batch_for(cfg))

    def lg(_):
        return loss_and_grads(p, *batch, one_worker(p, batch[0]))

    err = finite_diff_check(lg, p.tensors, 1e-6)
    assert err < 1e-4


@pytest.mark.parametrize("spatial,temporal", [("relative", "absolute"), ("none", "none")])
def test_variant_gradient_check(spatial, temporal):
    cfg = small_config(spatial_encoding=spatial, temporal_encoding=temporal, n_stations=2)
    p = init_params(cfg, seed=GRAD_SEED)
    batch = row_batch(*_batch_for(cfg))

    def lg(_):
        return loss_and_grads(p, *batch, one_worker(p, batch[0]))

    err = finite_diff_check(lg, p.tensors, 1e-6)
    assert err < 1e-4


def test_hour_table_gradient_sparsity():
    cfg = small_config()
    p = init_params(cfg, seed=24)
    hist, fut, cn, _, days, months = _batch_for(cfg)
    hours = np.array([5, 5])
    rows, cn = row_batch(hist, fut, cn, hours, days, months)
    _, grads = loss_and_grads(p, rows, cn, one_worker(p, rows))
    nonzero_rows = np.nonzero(np.abs(grads["table_hour"]).sum(axis=1))[0]
    assert_array_equal(nonzero_rows, [5])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_calendar_grads_equal_a_2d_add_at_per_table(dtype):
    """The one flat np.add.at over the three tables gives the bits of a
    2-D np.add.at per table, over windows that share rows (the hour 23
    and the day and month 0 repeat) and gradients that hold -0.0 and NaN.
    The tensors around the tables keep their values."""
    cfg = small_config(d=4)
    rng = np.random.default_rng(7)
    calendar = np.array([[23, 0, 0], [5, 30, 11], [23, 0, 0], [23, 14, 0], [0, 0, 6]], np.intp)
    g_window = rng.standard_normal((len(calendar), cfg.d)).astype(dtype)
    g_window[0, 0] = g_window[2, 1] = -0.0
    g_window[1, 2] = g_window[3, 3] = np.nan
    out = ModelParams(cfg, rng.standard_normal(parameter_count(cfg)).astype(dtype))
    before = out.vector.copy()
    lw_model._calendar_grads(out, calendar, g_window)
    for (name, rows), idx in zip(CALENDAR, calendar.T):
        expected = np.zeros((rows, cfg.d), dtype)
        np.add.at(expected, idx, g_window)
        assert_array_equal(out.tensors[name].view(np.uint8), expected.view(np.uint8))
    lo = out.offsets[CALENDAR[0][0]]
    hi = out.offsets[CALENDAR[-1][0]] + CALENDAR[-1][1] * cfg.d
    assert_array_equal(out.vector[:lo], before[:lo])
    assert_array_equal(out.vector[hi:], before[hi:])


def test_doubling_loss_scale_doubles_gradients():
    cfg = small_config()
    p = init_params(cfg, seed=25)
    hist, fut, cn, hours, days, months = _batch_for(cfg)
    workspace = Workspace(cfg, 4, p.dtype)  # 2 windows x 2 stations
    pred = forward_rows(to_rows(hist), positions(cn, stack(hours, days, months), p), p, workspace)
    g = np.sign(pred - to_rows(fut)) / pred.size
    # results are views of `out`, which the second call overwrites
    out = ModelParams.zeros(cfg)
    grads1 = {name: grad.copy() for name, grad in backward_batch(g, workspace, p, out).items()}
    grads2 = backward_batch(2.0 * g, workspace, p, out)
    for name in grads1:
        assert_array_equal(grads2[name], 2.0 * grads1[name])


# --- same bits as the definitional math ------------------------------------
# An unfused reference written from the primitives' definitions: every step
# allocates its result, ReLU is recomputed in backward and its gradient is
# np.where, and every linear backward computes grad_x. Each sum over rows
# (a bias, a window's or a station's rows) is a product with a ones vector,
# the loss's sign is back-propagated unscaled and every gradient is then
# divided by the element count. The batch path reuses a workspace's buffers and skips
# unused work, but must perform the same floating-point operations in the
# same order, so its results must match bit for bit.

ENCODINGS = [
    ("absolute", "absolute"),
    ("relative", "absolute"),
    ("none", "absolute"),
    ("absolute", "none"),
    ("none", "none"),
]


def _ref_linear(x, layer):
    return x @ layer.weight.T + layer.bias


def _ref_rows_sum(a):
    return np.ones(a.shape[-2]) @ a


def _ref_linear_backward(x, layer, g):
    return g @ layer.weight, g.T @ x, _ref_rows_sum(g)


def _ref_pred_loss_grads(p, hist, fut, cn, hours, days, months):
    cfg = p.config
    n_batch, t_h, n_st, n_vars = hist.shape
    x_rows = np.ascontiguousarray(hist.transpose(0, 2, 3, 1).reshape(-1, t_h))
    t = p.tensors
    h4 = _ref_linear(x_rows, p.layer("fc_embed")).reshape(n_batch, n_st, n_vars, cfg.d)
    if cfg.spatial_encoding == "absolute":
        h4 += _ref_linear(cn, p.layer("fc_spatial"))[None, :, None, :]
    elif cfg.spatial_encoding == "relative":
        h4 += t["station_table"][None, :, None, :]
    if cfg.temporal_encoding == "absolute":
        time_rows = t["table_hour"][hours] + t["table_day"][days] + t["table_month"][months]
        h4 += time_rows[:, None, None, :]
    zs, pre = [h4.reshape(-1, cfg.d)], []
    for i in range(cfg.n_layers):
        pre.append(_ref_linear(zs[-1], p.layer(f"encoder.{i}.fc1")))
        zs.append(_ref_linear(np.maximum(pre[-1], 0.0), p.layer(f"encoder.{i}.fc2")) + zs[-1])
    y_rows = _ref_linear(zs[-1], p.layer("fc_regress"))
    pred = np.ascontiguousarray(
        y_rows.reshape(n_batch, n_st, n_vars, cfg.t_f).transpose(0, 3, 1, 2)
    )
    # the loss is summed over rows, in (window, station, variable) order
    fut_rows = np.ascontiguousarray(fut.transpose(0, 2, 3, 1).reshape(-1, cfg.t_f))
    diff = y_rows - fut_rows
    loss = float(np.abs(diff).sum() / diff.size)
    g_rows = np.sign(diff)

    g = {}
    gz, g["fc_regress.weight"], g["fc_regress.bias"] = _ref_linear_backward(
        zs[-1], p.layer("fc_regress"), g_rows
    )
    for i in reversed(range(cfg.n_layers)):
        a = pre[i]
        gs, g[f"encoder.{i}.fc2.weight"], g[f"encoder.{i}.fc2.bias"] = (
            _ref_linear_backward(np.maximum(a, 0.0), p.layer(f"encoder.{i}.fc2"), gz)
        )
        ga = np.where(a > 0.0, gs, 0.0)
        gz_in, g[f"encoder.{i}.fc1.weight"], g[f"encoder.{i}.fc1.bias"] = (
            _ref_linear_backward(zs[i], p.layer(f"encoder.{i}.fc1"), ga)
        )
        gz = gz_in + gz
    if cfg.temporal_encoding == "absolute":
        g_window = _ref_rows_sum(gz.reshape(n_batch, n_st * n_vars, cfg.d))
        for name, idx in (("table_hour", hours), ("table_day", days), ("table_month", months)):
            g[name] = np.zeros_like(t[name])
            np.add.at(g[name], idx, g_window)
    _, g["fc_embed.weight"], g["fc_embed.bias"] = _ref_linear_backward(
        x_rows, p.layer("fc_embed"), gz
    )
    if cfg.spatial_encoding != "none":
        g_station = _ref_rows_sum(gz.reshape(n_batch, -1)).reshape(n_st, n_vars, cfg.d).sum(1)
        g["fc_embed.bias"] = _ref_rows_sum(g_station)  # every row's gradient, summed
    if cfg.spatial_encoding == "absolute":
        _, g["fc_spatial.weight"], g["fc_spatial.bias"] = _ref_linear_backward(
            cn, p.layer("fc_spatial"), g_station
        )
    elif cfg.spatial_encoding == "relative":
        g["station_table"] = g_station
    g = {name: grad / diff.size for name, grad in g.items()}
    return pred, loss, g


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def _random_batch(cfg, n_batch, n_st, seed):
    rng = np.random.default_rng(seed)
    hist = rng.normal(size=(n_batch, cfg.t_h, n_st, cfg.n_vars))
    fut = rng.normal(size=(n_batch, cfg.t_f, n_st, cfg.n_vars))
    cn = normalize_coords(random_coords(n_st, seed))
    columns = [rng.integers(0, rows, size=n_batch) for _, rows in CALENDAR]
    return hist, fut, cn, *columns


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
@pytest.mark.parametrize("n_batch,n_st,n_vars", [(3, 5, 2), (1, 1, 1)])
def test_batch_path_same_bits_as_reference(spatial, temporal, n_batch, n_st, n_vars):
    cfg = small_config(
        d=16, n_vars=n_vars, spatial_encoding=spatial, temporal_encoding=temporal,
        n_stations=n_st,
    )
    p = init_params(cfg, seed=31)
    batch = _random_batch(cfg, n_batch, n_st, seed=32)
    hist, fut, cn, hours, days, months = batch
    ref_pred, ref_loss, ref_grads = _ref_pred_loss_grads(p, *batch)

    pred, _ = forward_batch(hist, cn, hours, days, months, p)
    assert_same_bits(pred, ref_pred)
    rows, cn = row_batch(*batch)
    loss, grads = loss_and_grads(p, rows, cn, one_worker(p, rows))
    assert loss.hex() == ref_loss.hex()
    assert grads.keys() == ref_grads.keys() == p.tensors.keys()
    for name, g in grads.items():
        assert_same_bits(g, ref_grads[name])


# --- the batch path writes only to buffers it allocated --------------------


def _assert_unchanged(before, after):
    """`after` holds the same bits as `before`, a deep copy of it."""
    if isinstance(before, np.ndarray):
        assert after.dtype == before.dtype and after.shape == before.shape
        assert after.tobytes() == before.tobytes()
    elif isinstance(before, dict):
        assert before.keys() == after.keys()
        for k in before:
            _assert_unchanged(before[k], after[k])
    elif isinstance(before, (list, tuple)):
        assert len(before) == len(after)
        for b, a in zip(before, after):
            _assert_unchanged(b, a)
    elif isinstance(before, RowBatch):
        _assert_unchanged(vars(before), vars(after))
    else:
        assert before == after


BATCH_CASES = dict(
    n_batch=st.integers(1, 3),
    n_st=st.integers(1, 3),
    n_vars=st.integers(1, 2),
    encoding=st.sampled_from(ENCODINGS),
    seed=st.integers(0, 2**16),
)
ALIASING_CASE = dict(n_batch=1, n_st=1, n_vars=1, encoding=("absolute", "absolute"), seed=0)


@settings(max_examples=25, deadline=None)
@given(**BATCH_CASES)
@example(**ALIASING_CASE)
def test_batch_path_mutates_nothing(n_batch, n_st, n_vars, encoding, seed):
    _check_batch_path_mutates_nothing(n_batch, n_st, n_vars, encoding, seed, np.float64)


@settings(max_examples=25, deadline=None)
@given(**BATCH_CASES)
@example(**ALIASING_CASE)
def test_float32_batch_path_mutates_nothing(n_batch, n_st, n_vars, encoding, seed):
    _check_batch_path_mutates_nothing(n_batch, n_st, n_vars, encoding, seed, np.float32)


def _check_batch_path_mutates_nothing(n_batch, n_st, n_vars, encoding, seed, dtype):
    cfg = small_config(
        n_vars=n_vars, spatial_encoding=encoding[0], temporal_encoding=encoding[1],
        n_stations=n_st,
    )
    p = init_params(cfg, seed=seed).astype(dtype)
    batch = _random_batch(cfg, n_batch, n_st, seed)
    hist, fut, cn, hours, days, months = batch
    step_inputs = row_batch(*batch)
    inputs_before = copy.deepcopy((batch, step_inputs))
    params_before = copy.deepcopy(p.tensors)

    pred, workspace = forward_batch(hist, cn, hours, days, months, p)
    assert pred.dtype == dtype
    x_rows = workspace.inputs["x_rows"]
    if dtype == np.float64 and n_batch == n_st == n_vars == 1:
        assert np.shares_memory(x_rows, hist)  # the aliasing case
    record = (workspace.inputs, workspace.z, workspace.r)  # what backward_batch reads
    record_before = copy.deepcopy(record)
    loss_and_grads(p, *step_inputs, one_worker(p, step_inputs[0]))
    g_rows = to_rows(np.sign(pred - fut) / pred.size)
    backward_batch(g_rows, workspace, p, ModelParams.zeros(cfg, dtype))

    _assert_unchanged(inputs_before, (batch, step_inputs))
    _assert_unchanged(params_before, p.tensors)
    _assert_unchanged(record_before, record)

    y = linear_forward(x_rows, p.layer("fc_embed"))
    for arg in (x_rows, hist, p.tensors["fc_embed.weight"], p.tensors["fc_embed.bias"]):
        assert not np.shares_memory(y, arg)
    out = np.empty_like(y)
    assert relu(y, out=out) is out and not np.shares_memory(out, y)


# --- float32 compute on a float32 copy of the params ----------------------
# Float32 rounding through these few d=16 layers measured at most 2.3
# float32 epsilons of each array's largest entry; float16 would be ~8000.
F32_TOL = 50 * np.finfo(np.float32).eps


def _assert_close_f32(actual, expected):
    assert actual.dtype == np.float32 and expected.dtype == np.float64
    scale = max(float(np.abs(expected).max()), 1e-30)
    assert_allclose(actual, expected, rtol=0, atol=F32_TOL * scale)


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_float32_batch_path_agrees_with_float64(spatial, temporal):
    cfg = small_config(
        d=16, n_vars=2, spatial_encoding=spatial, temporal_encoding=temporal, n_stations=5
    )
    p64 = init_params(cfg, seed=41)
    p32 = p64.astype(np.float32)
    assert p32.dtype == np.float32 and p64.dtype == np.float64
    assert list(p32.tensors) == list(p64.tensors)
    assert not any(np.shares_memory(p32.tensors[n], p64.tensors[n]) for n in p64.tensors)
    batch = _random_batch(cfg, 3, 5, seed=42)
    hist, fut, cn, hours, days, months = batch

    pred64, _ = forward_batch(hist, cn, hours, days, months, p64)
    pred32, _ = forward_batch(hist, cn, hours, days, months, p32)
    _assert_close_f32(pred32, pred64)
    rows, cn = row_batch(*batch)
    loss64, grads64 = loss_and_grads(p64, rows, cn, one_worker(p64, rows))
    loss32, grads32 = loss_and_grads(p32, rows, cn, one_worker(p32, rows))
    assert isinstance(loss32, float)
    assert loss32 == pytest.approx(loss64, rel=F32_TOL, abs=0)
    assert grads32.keys() == grads64.keys()
    for name, g in grads32.items():
        _assert_close_f32(g, grads64[name])


def test_float32_history_overflow_is_validation_error():
    cfg = small_config()
    p = init_params(cfg, seed=43)
    hist, _, cn, hours, days, months = _random_batch(cfg, 2, 2, seed=44)
    hist[1, 0, 1, 0] = 1e39  # finite in float64, inf in float32
    forward_batch(hist, cn, hours, days, months, p)
    with pytest.raises(ValidationError, match="float32"):
        forward_batch(hist, cn, hours, days, months, p.astype(np.float32))


def test_forward_rows_takes_whole_windows_of_rows():
    cfg = small_config(n_vars=2)
    p = init_params(cfg, seed=45)
    hist, _, cn, hours, days, months = _random_batch(cfg, 2, 3, seed=46)
    x_rows = to_rows(hist)
    ws = Workspace(cfg, len(x_rows), p.dtype)
    calendar = stack(hours, days, months)
    pos = positions(cn, calendar, p)
    y_rows = forward_rows(x_rows, pos, p, ws)
    pred, _ = forward_batch(hist, cn, hours, days, months, p)
    assert_same_bits(y_rows, to_rows(pred))
    with pytest.raises(ShapeError, match="not 2 windows"):
        forward_rows(x_rows[:-1], pos, p, ws)
    with pytest.raises(ShapeError, match="T_h=6"):
        forward_rows(x_rows[:, 1:], pos, p, ws)
    with pytest.raises(ValidationError, match="calendar must be integer indices, got float64"):
        positions(cn, calendar + 0.7, p)  # was run as its integer parts


@pytest.mark.parametrize("spatial", SPATIAL_MODES)
def test_positions_reject_what_forward_rows_rejected(spatial):
    # the calendar and the coordinates are checked where a call's positions
    # are made, once; the station count where each chunk's rows meet them
    cfg = small_config(n_vars=2, spatial_encoding=spatial, n_stations=3)
    p = init_params(cfg, seed=47)
    hist, fut, cn, hours, days, months = _random_batch(cfg, 2, 3, seed=48)
    calendar = stack(hours, days, months)
    rows = RowBatch(to_rows(hist), to_rows(fut), calendar + 0.7)
    with pytest.raises(ValidationError, match="calendar must be integer indices, got float64"):
        loss_and_grads(p, rows, cn, one_worker(p, rows))
    for bad, match in (
        ((hours + 0.7, days, months), "calendar must be integer indices, got float64"),
        ((hours, days.astype(float), months), "calendar must be integer indices, got float64"),
        ((np.array([0, 24]), days, months), r"^table_hour index outside \[0, 24\)$"),
        ((hours, np.array([-1, 0]), months), r"^table_day index outside \[0, 31\)$"),
        ((hours, days, np.array([12, 0])), r"^table_month index outside \[0, 12\)$"),
    ):
        with pytest.raises(ValidationError, match=match):
            positions(cn, stack(*bad), p)
        with pytest.raises(ValidationError, match=match):
            forward_batch(hist, cn, *bad, p)
    for bad in (calendar[:, :2], calendar.reshape(-1), calendar[None]):
        with pytest.raises(ShapeError, match=re.escape(f"calendar has shape {bad.shape}, expected (B, 3)")):
            positions(cn, bad, p)
    for bad, match in (
        ((hours, days[:1], months), r"table_day indices of shape \(1,\), expected \(2,\)"),
        ((hours, days, np.append(months, 0)), r"table_month indices of shape \(3,\), expected \(2,\)"),
    ):
        with pytest.raises(ShapeError, match=match):
            forward_batch(hist, cn, *bad, p)
    with pytest.raises(ShapeError, match=r"table_hour indices of shape \(3,\), expected \(2,\)"):
        forward_batch(hist, cn, *(np.append(c, 0) for c in (hours, days, months)), p)
    x_rows = to_rows(hist)
    ws = Workspace(cfg, len(x_rows), p.dtype)
    if spatial == "absolute":
        for coords in (cn[:, :2], cn[0], cn.reshape(1, 3, 3)):
            with pytest.raises(ShapeError, match=r"expected \[N, 3\]"):
                positions(coords, calendar, p)
        pos = positions(cn[:2], calendar, p)  # 2 stations' rows for 3
    elif spatial == "relative":
        p = init_params(small_config(n_vars=2, spatial_encoding=spatial, n_stations=4), 47)
        pos = positions(cn, calendar, p)
        ws = Workspace(p.config, len(x_rows), p.dtype)
    else:
        forward_rows(x_rows, positions(cn[:2], calendar, p), p, ws)  # no rows to match
        return
    with pytest.raises(ShapeError, match="3 stations but . spatial rows"):
        forward_rows(x_rows, pos, p, ws)


# --- chunks of whole windows ----------------------------------------------
# A batch of more than model.CHUNK_ROWS rows runs in chunks of
# chunk_windows(N*C) whole windows. The tests lower CHUNK_ROWS so that tiny
# batches span several chunks, the last one ragged. Those chunks run on
# the workers (the caller and helper threads), which take them in chunk
# order but may call forward_rows in any order, so the tests compare
# chunk_calls's {first window: windows} records, not the order of arrival.


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_chunked_step_agrees_with_one_chunk(spatial, temporal, monkeypatch, chunk_calls):
    cfg = small_config(
        d=16, n_vars=2, spatial_encoding=spatial, temporal_encoding=temporal, n_stations=5
    )
    p = init_params(cfg, seed=51).astype(np.float32)
    batch = row_batch(*_random_batch(cfg, 7, 5, seed=52))  # 7 windows x 10 rows
    loss1, grads1 = loss_and_grads(p, *batch, one_worker(p, batch[0]))
    assert chunk_calls == {0: 7}
    chunk_calls.clear()
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 30)
    loss3, grads3 = loss_and_grads(p, *batch, one_worker(p, batch[0]))
    assert chunk_calls == {0: 3, 3: 3, 6: 1}
    assert loss3 == pytest.approx(loss1, rel=F32_TOL, abs=0)
    assert grads3.keys() == grads1.keys() == p.tensors.keys()
    for name, g in grads3.items():
        assert g.dtype == np.float32
        scale = max(float(np.abs(grads1[name]).max()), 1e-30)
        assert_allclose(g, grads1[name], rtol=0, atol=F32_TOL * scale, err_msg=name)


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_positions_are_made_once_per_call(spatial, temporal, monkeypatch, chunk_calls):
    # a batch of 4 chunks and a split of many: each entry checks the
    # calendar and makes the spatial rows once, and every chunk reads them
    cfg = small_config(spatial_encoding=spatial, temporal_encoding=temporal, n_stations=5)
    p = init_params(cfg, seed=81)
    p32 = p.astype(np.float32)
    hist, fut, cn, hours, days, months = _random_batch(cfg, 7, 5, seed=82)
    rows = RowBatch(to_rows(hist), to_rows(fut), stack(hours, days, months))
    obs = generate(SynthConfig(n_stations=5, n_steps=300, seed=83), random_station_coords(5, 83)[1])
    prepared = split_windows(obs, cfg.t_h, cfg.t_f)
    obs_cn, test = normalize_coords(obs.coords), prepared.test
    windows = WindowBatch(prepared.train, np.arange(7))
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 10)  # chunks of 2, 2, 2 and 1 windows
    made = {"spatial_rows": 0, "positions": 0}

    def counted(name):
        fn = getattr(lw_model, name)

        def counting(*args):
            made[name] += 1
            return fn(*args)

        return counting

    for name in made:
        monkeypatch.setattr(lw_model, name, counted(name))
    batch_chunks = {0: 2, 2: 2, 4: 2, 6: 1}
    split_chunks = {w.start: w.stop - w.start for w in lw_model.chunk_slices(len(test), 7, 5)}
    assert len(split_chunks) > 10
    workers = lw_model.Workers.for_batches(cfg, 5, 7)
    for call, chunks in (
        (lambda: loss_and_grads(p32, rows, cn, workers), batch_chunks),
        (lambda: loss_and_grads(p32, windows, obs_cn, workers), batch_chunks),
        (lambda: evaluate(p, test, obs_cn, prepared.normalizer, 7, workers), split_chunks),
        (lambda: evaluate(p, test, obs_cn, prepared.normalizer, 7), split_chunks),
        (lambda: forward_batch(hist, cn, hours, days, months, p32), {0: 7}),
    ):
        made.update(spatial_rows=0, positions=0)
        chunk_calls.clear()
        call()
        assert chunk_calls == chunks
        assert made == {"spatial_rows": 1, "positions": 1}


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_chunked_step_passes_the_gradient_check(spatial, temporal, monkeypatch, chunk_calls):
    cfg = small_config(spatial_encoding=spatial, temporal_encoding=temporal, n_stations=2)
    p = init_params(cfg, seed=GRAD_SEED)
    # 5 windows x 2 rows; the data seed, like GRAD_SEED, was verified free of
    # exact-zero analytic entries for every encoding at this chunking
    batch = row_batch(*_random_batch(cfg, 5, 2, seed=131))
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 4)

    def lg(_):
        chunk_calls.clear()  # each call's chunks
        return loss_and_grads(p, *batch, one_worker(p, batch[0]))

    err = finite_diff_check(lg, p.tensors, 1e-6)
    assert chunk_calls == {0: 2, 2: 2, 4: 1}
    assert err < 1e-4


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_chunked_evaluate_matches_one_chunk(spatial, temporal, monkeypatch, chunk_calls):
    cfg = SynthConfig(n_stations=4, n_steps=300, noise_std=0.3, seed=53)
    obs = generate(cfg, random_station_coords(4, 53)[1])
    prepared = split_windows(obs, 6, 3)
    model_cfg = small_config(
        t_h=6, t_f=3, spatial_encoding=spatial, temporal_encoding=temporal, n_stations=4
    )
    p = init_params(model_cfg, seed=54)
    cn = normalize_coords(obs.coords)

    def metrics():
        return [
            evaluate(p, prepared.test, cn, prepared.normalizer, batch_size=16),
            evaluate_hi(prepared.test, batch_size=16),
        ]

    one = metrics()
    n_test = len(prepared.test)
    batches = {lo: min(16, n_test - lo) for lo in range(0, n_test, 16)}
    # workers may reach forward_rows in any order; one worker, in chunk order
    assert chunk_calls == batches
    chunk_calls.clear()
    serial = lw_model.Workers([Workspace(model_cfg, 16 * 4)])
    evaluate(p, prepared.test, cn, prepared.normalizer, 16, serial)
    assert list(chunk_calls.items()) == list(batches.items())
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 20)  # 5 windows of 4 rows
    chunk_calls.clear()
    chunked = metrics()
    # each batch of 16 windows (the last one ragged) runs in chunks of 5
    assert chunk_calls == {
        lo: min(5, start + n - lo) for start, n in batches.items() for lo in range(start, start + n, 5)
    }
    for a, b in zip(chunked, one):
        assert a.n_points == b.n_points
        assert a.mse == pytest.approx(b.mse, rel=1e-12, abs=0)
        assert a.mae == pytest.approx(b.mae, rel=1e-12, abs=0)


def test_chunk_slices_never_cross_a_batch_boundary():
    # 300 stations: chunks of 27 windows, so each 32-window batch is 27 + 5
    assert lw_model.chunk_slices(70, 32, 300) == [
        slice(0, 27), slice(27, 32), slice(32, 59), slice(59, 64), slice(64, 70)
    ]
    assert lw_model.chunk_slices(5, 32, 3) == [slice(0, 5)]
    assert lw_model.chunk_slices(0, 32, 3) == []
    for batch_size in (0, -3):
        with pytest.raises(ConfigError, match=f"^batch_size must be >= 1, got {batch_size}$"):
            lw_model.chunk_slices(5, batch_size, 3)


def test_chunked_step_memory_is_bounded_by_a_chunk(monkeypatch):
    # tracemalloc sees numpy's buffers; the inputs are allocated before it
    # starts, so each peak is what one loss_and_grads call allocates
    cfg = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    p = init_params(cfg, seed=55).astype(np.float32)
    n_st = 500
    cn = normalize_coords(random_coords(n_st, 56))
    rng = np.random.default_rng(57)
    x_rows = rng.normal(size=(32 * n_st, cfg.t_h)).astype(np.float32)
    future_rows = rng.normal(size=(32 * n_st, cfg.t_f)).astype(np.float32)
    calendar = stack(*(rng.integers(0, rows, size=32) for _, rows in CALENDAR))

    def peak(n_batch):
        kept = slice(0, n_batch * n_st)
        tracemalloc.start()
        try:
            rows = RowBatch(x_rows[kept], future_rows[kept], calendar[:n_batch])
            loss_and_grads(p, rows, cn, one_worker(p, rows))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 1000)  # 2 windows of 500 rows
    one_chunk, sixteen_chunks = peak(2), peak(32)
    assert sixteen_chunks < 2 * one_chunk
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 32 * n_st)  # one chunk again
    assert peak(32) > 2 * one_chunk  # the bound is not met without chunks


def test_warm_step_allocates_less_than_one_chunk_activation(monkeypatch):
    # the set-up of test_chunked_step_memory_is_bounded_by_a_chunk: 32 windows
    # of 500 rows in chunks of 2 windows; a second call on the same Workers of
    # one workspace reuses its buffers instead of allocating chunk-sized arrays
    cfg = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    p = init_params(cfg, seed=55).astype(np.float32)
    n_st = 500
    cn = normalize_coords(random_coords(n_st, 56))
    rng = np.random.default_rng(57)
    x_rows = rng.normal(size=(32 * n_st, cfg.t_h)).astype(np.float32)
    future_rows = rng.normal(size=(32 * n_st, cfg.t_f)).astype(np.float32)
    calendar = stack(*(rng.integers(0, rows, size=32) for _, rows in CALENDAR))
    batch = RowBatch(x_rows, future_rows, calendar)
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 1000)
    workers = lw_model.Workers([Workspace(cfg, 1000, np.float32)])
    loss_and_grads(p, batch, cn, workers)
    tracemalloc.start()
    try:
        loss_and_grads(p, batch, cn, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * cfg.d * 4  # one chunk activation in float32


def test_warm_step_on_workers_allocates_less_than_one_chunk_activation(monkeypatch):
    # the set-up of test_warm_step_allocates_less_than_one_chunk_activation
    # in chunks of 4 windows, on one worker per CPU; tracemalloc traces every
    # thread. The step runs on a RowBatch, and as fit runs it, on a
    # WindowBatch of shuffled window ids, each chunk gathering its own windows
    # window by window into its workspace. Each worker's numpy calls allocate a few
    # small transients (a broadcast bias add takes a 32 KiB buffer), so the
    # bound, one chunk's activation, holds up to 8 workers at this chunk size
    cfg = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    p = init_params(cfg, seed=55).astype(np.float32)
    n_st = 500
    cn = normalize_coords(random_coords(n_st, 56))
    rng = np.random.default_rng(57)
    x_rows = rng.normal(size=(32 * n_st, cfg.t_h)).astype(np.float32)
    future_rows = rng.normal(size=(32 * n_st, cfg.t_f)).astype(np.float32)
    calendar = stack(*(rng.integers(0, rows, size=32) for _, rows in CALENDAR))
    obs = generate(
        SynthConfig(n_stations=n_st, n_steps=760, noise_std=0.3, seed=58),
        random_station_coords(n_st, 58)[1],
    )
    train = split_windows(obs, cfg.t_h, cfg.t_f).train
    ids = rng.permutation(len(train))[:32]
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 2000)
    for batch in (RowBatch(x_rows, future_rows, calendar), WindowBatch(train, ids)):
        workers = lw_model.Workers.for_batches(cfg, n_st, 32)
        loss, _ = loss_and_grads(p, batch, cn, workers)
        tracemalloc.start()
        try:
            again, _ = loss_and_grads(p, batch, cn, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == loss
        assert peak < 2000 * cfg.d * 4  # one chunk activation in float32


def test_warm_evaluate_chunks_allocate_less_than_one_chunk_activation(monkeypatch):
    # 32-window batches of 500 stations in chunks of 4 windows, on one worker
    # per CPU: each chunk gathers its rows into its workspace and scores them
    # there. The bound holds up to 8 workers, as in the training step's test
    cfg = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    n_st = 500
    obs = generate(
        SynthConfig(n_stations=n_st, n_steps=760, noise_std=0.3, seed=58),
        random_station_coords(n_st, 58)[1],
    )
    prepared = split_windows(obs, cfg.t_h, cfg.t_f)
    test = prepared.test
    assert len(test) > 64
    cn = normalize_coords(obs.coords)
    p = init_params(cfg, seed=59)
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 2000)
    workers = lw_model.Workers.for_batches(cfg, n_st, 32)
    cold = evaluate(p, test, cn, prepared.normalizer, 32, workers)
    tracemalloc.start()
    try:
        warm = evaluate(p, test, cn, prepared.normalizer, 32, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert warm == cold == evaluate(p, test, cn, prepared.normalizer, 32)
    assert peak < 2000 * cfg.d * 4  # one chunk activation in float32


def test_the_blas_pin_is_found_and_restored():
    # the workers run only where numpy's OpenBLAS thread count can be
    # pinned, so Tier-1 must not be testing the fallback
    before = blas_threads()
    assert before is not None and before >= 1
    with single_threaded_blas() as pinned:
        assert pinned and blas_threads() == 1
    assert blas_threads() == before
    with pytest.raises(KeyError):
        with single_threaded_blas():
            raise KeyError("inside")
    assert blas_threads() == before


def test_no_openblas_server_thread_busy_waits_after_a_step_or_a_pin():
    # after a multithreaded call OpenBLAS's server threads busy-wait for
    # about 0.1 s (2**28 cycles, its default thread timeout) on the cores
    # the next chunks want. Every chunk runs on one BLAS thread, so even at
    # 2 OpenBLAS threads a one-chunk training step (narrow-train's shape,
    # 864 rows) wakes none of them, and neither does a pin whose count is
    # restored: a sleep right after either uses almost no CPU time
    found = lw_numerics._openblas_thread_count()
    if found is None:
        pytest.skip("no OpenBLAS thread count setter found")
    set_threads, get_threads = found
    cfg = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    p32 = init_params(cfg, seed=81).astype(np.float32)
    batch = row_batch(*_random_batch(cfg, 32, 27, seed=82))
    workers = one_worker(p32, batch[0])

    def sleep_cpu():
        cpu = time.process_time()
        time.sleep(0.05)
        return time.process_time() - cpu

    before = get_threads()
    set_threads(2)
    try:
        time.sleep(0.3)  # server threads woken by earlier tests time out
        loss_and_grads(p32, *batch, workers)
        after_step = sleep_cpu()
        with single_threaded_blas():
            pass
        after_pin = sleep_cpu()
    finally:
        set_threads(before)
    assert after_step < 0.02 and after_pin < 0.02, (after_step, after_pin)


def test_an_error_in_one_chunk_reaches_the_caller_unchanged(monkeypatch, chunk_calls):
    cfg = small_config()
    p32 = init_params(cfg, seed=71).astype(np.float32)
    batch = row_batch(*_random_batch(cfg, 7, 5, seed=72))  # 7 windows x 5 rows
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 10)  # chunks of 2, 2, 2 and 1 windows
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 2)
    error = ShapeError("the third chunk fails")

    def failing(first):
        if first == 4:  # the third chunk's first window
            raise error

    chunk_calls.before = failing
    before, threads = blas_threads(), threading.active_count()
    workers = lw_model.Workers.for_batches(cfg, 5, 7)
    assert len(workers.workspaces) == 2
    with pytest.raises(ShapeError) as raised:
        loss_and_grads(p32, *batch, workers)
    assert raised.value is error
    assert blas_threads() == before
    assert threading.active_count() == threads  # the failed run's thread has ended
    chunk_calls.clear()
    chunk_calls.before = None
    loss_and_grads(p32, *batch, workers)  # the workers run on
    assert chunk_calls == {0: 2, 2: 2, 4: 2, 6: 1}
    assert threading.active_count() == threads


def test_a_thread_that_cannot_start_fails_the_run_after_the_others_end(monkeypatch):
    # 3 chunks of 0.05 s on 3 workers, and the second helper thread cannot
    # start (as when the process is out of threads): the start's error
    # reaches the caller once the first helper, still running its chunks,
    # has ended and the BLAS thread count is restored. The caller's chunk
    # never ran, so nothing was added
    cfg = small_config()
    workers = lw_model.Workers([Workspace(cfg, 10, np.float32) for _ in range(3)])
    start, starts = threading.Thread.start, []

    def failing_start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    before, threads, added = blas_threads(), threading.active_count(), []
    with pytest.raises(RuntimeError, match="can't start new thread"):
        workers.run(3, lambda i, ws: time.sleep(0.05) or i, lambda i, result: added.append(result))
    assert len(starts) == 2 and not starts[0].is_alive()
    assert threading.active_count() == threads
    assert blas_threads() == before
    assert added == []


def test_without_a_blas_pin_chunks_run_on_the_caller(monkeypatch):
    # numpy on a BLAS whose thread count cannot be set: one workspace, the
    # chunks in order on the calling thread, and the pinned path's bits
    # wherever one-thread and default GEMMs agree (as at these sizes)
    cfg = small_config(n_vars=2)
    p32 = init_params(cfg, seed=73).astype(np.float32)
    batch = row_batch(*_random_batch(cfg, 7, 5, seed=74))
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 30)
    pinned = loss_and_grads(p32, *batch, one_worker(p32, batch[0]))
    pinned = (pinned[0], {n: g.copy() for n, g in pinned[1].items()})
    monkeypatch.setattr(lw_numerics, "_openblas_thread_count", lambda: None)
    threads = []
    forward_rows = lw_model.forward_rows

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return forward_rows(*args, **kwargs)

    monkeypatch.setattr(lw_model, "forward_rows", recording)
    workers = lw_model.Workers.for_batches(cfg, 10, 7)
    assert len(workers.workspaces) == 1
    loss, grads = loss_and_grads(p32, *batch, workers)
    assert threads == [threading.get_ident()] * 3
    assert loss == pinned[0]
    for name, g in grads.items():
        assert g.tobytes() == pinned[1][name].tobytes(), name


def test_more_workers_than_cores_give_the_bits_of_one(monkeypatch, switch_often):
    # 9 chunks on 4 workers that switch threads every microsecond: a chunk
    # run in a workspace another chunk still holds, or results added out of
    # chunk order, would change the bits of the one-worker run. The caller
    # is one of the 4 workers and takes a chunk before it starts the other
    # 3, so each run adds at most 3 threads, and it ends them before it
    # returns
    cfg = small_config(n_vars=2)
    p32 = init_params(cfg, seed=75).astype(np.float32)
    batch = row_batch(*_random_batch(cfg, 9, 5, seed=76))  # 9 windows x 10 rows
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 10)
    one = lw_model.Workers([Workspace(cfg, 10, np.float32)])
    loss1, grads1 = loss_and_grads(p32, *batch, one)
    grads1 = {n: g.copy() for n, g in grads1.items()}
    threads = threading.active_count()
    ran_on, running = set(), []
    forward_rows = lw_model.forward_rows

    def recording(*args, **kwargs):
        ran_on.add(threading.get_ident())
        running.append(threading.active_count())
        return forward_rows(*args, **kwargs)

    monkeypatch.setattr(lw_model, "forward_rows", recording)
    with switch_often():
        many = lw_model.Workers([Workspace(cfg, 10, np.float32) for _ in range(4)])
        for _ in range(20):
            ran_on.clear()
            running.clear()
            loss, grads = loss_and_grads(p32, *batch, many)
            assert loss == loss1
            for name, g in grads.items():
                assert g.tobytes() == grads1[name].tobytes(), name
            assert threading.get_ident() in ran_on and len(ran_on) <= 4
            assert max(running) - threads <= 3
            assert threading.active_count() == threads  # the run's threads have ended


def _slow_first_chunk(first):
    """chunk_calls.before that makes chunk 0 sleep 0.1 s before its forward
    pass, and before chunk_calls records it."""
    if first == 0:
        time.sleep(0.1)


def test_chunks_that_finish_out_of_order_keep_the_bits(monkeypatch, chunk_calls):
    # two free-running workers, and chunk 0 of each batch sleeps in its
    # forward pass: the other worker finishes later chunks first and parks
    # their gradients, so it never waits, and the sums in chunk order give
    # the one-worker bits. The step runs on a RowBatch and on a WindowBatch
    cfg = small_config(n_vars=2)
    p32 = init_params(cfg, seed=77).astype(np.float32)
    rows, cn = row_batch(*_random_batch(cfg, 7, 5, seed=78))  # 7 windows x 10 rows
    obs = generate(SynthConfig(n_stations=5, n_steps=300, seed=79), random_station_coords(5, 79)[1])
    obs.values = np.concatenate([obs.values, 2.0 - obs.values], axis=2)
    train = split_windows(obs, cfg.t_h, cfg.t_f).train
    windows = WindowBatch(train, np.random.default_rng(80).permutation(len(train))[:7])
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 20)  # chunks of 2, 2, 2 and 1 windows
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 2)
    for batch in (rows, windows):
        one = lw_model.Workers([Workspace(cfg, 20, np.float32)])
        loss1, grads1 = loss_and_grads(p32, batch, cn, one)
        grads1 = {n: g.copy() for n, g in grads1.items()}
        assert len(one.spare_grads) == 1  # one worker's chunks, added in turn, share one vector
        threads = threading.active_count()
        chunk_calls.clear()
        chunk_calls.before = _slow_first_chunk
        two = lw_model.Workers.for_batches(cfg, 10, 7)
        assert len(two.workspaces) == 2
        loss, grads = loss_and_grads(p32, batch, cn, two)
        assert len(two.spare_grads) > 1  # held chunks' vectors, given back once added
        chunk_calls.before = None
        assert len(chunk_calls) == 4 and list(chunk_calls).index(0) > 0  # chunk 0 ran late
        chunk_calls.clear()
        assert loss == loss1
        for name, g in grads.items():
            assert g.tobytes() == grads1[name].tobytes(), name
        assert threading.active_count() == threads


def test_a_gradient_parked_without_memory_is_a_config_error(monkeypatch, fail_allocation, chunk_calls):
    # chunk 0 sleeps, so chunk 1 finishes first and is held, its gradient
    # parked in its own vector, and chunk 2 needs a new one: where numpy
    # cannot allocate it, the step fails with ModelParams.zeros's one-line
    # ConfigError. The batch gradient and chunk 1's vector are made first
    cfg = small_config(n_vars=2)
    p32 = init_params(cfg, seed=77).astype(np.float32)
    rows, cn = row_batch(*_random_batch(cfg, 7, 5, seed=78))
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 20)
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 2)
    chunk_calls.before = _slow_first_chunk
    size = parameter_count(cfg)
    two = lw_model.Workers.for_batches(cfg, 10, 7)
    calls = fail_allocation(size, lambda k: k > 1)
    with pytest.raises(ConfigError, match=f"a model of {size} parameters is too large"):
        loss_and_grads(p32, rows, cn, two)
    # the batch gradient, chunk 1's vector, chunk 2's (the failure), and
    # chunk 0's, which it asks for once its forward pass is done
    assert calls == ["zeros"] * 4


def _workers_arrays(workers):
    arrays = [workers.grad.vector, *(g.vector for g in workers.spare_grads)]
    for ws in workers.workspaces:
        singles = [ws.x, ws.y, ws.abs_err, ws.mask, ws.ones]
        arrays += [*ws.z, *ws.r, *ws.g, *singles]
    return arrays


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_reused_workspace_leaves_no_state_behind(spatial, temporal, monkeypatch):
    cfg = small_config(spatial_encoding=spatial, temporal_encoding=temporal, n_stations=5)
    p = init_params(cfg, seed=61)
    p32 = p.astype(np.float32)
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 20)
    raw_a = _random_batch(cfg, 7, 5, seed=62)
    batch_a = row_batch(*raw_a)  # chunks of 4 + 3 windows
    # B: 3 stations (chunks of 6 + 1 windows), or 5 (4 + 3) where the
    # station table fixes the station count
    batch_b = row_batch(*_random_batch(cfg, 7, 5 if spatial == "relative" else 3, seed=63))
    synth = SynthConfig(n_stations=5, n_steps=300, noise_std=0.3, seed=64)
    obs = generate(synth, random_station_coords(5, 64)[1])
    prepared = split_windows(obs, cfg.t_h, cfg.t_f)
    cn = normalize_coords(obs.coords)

    def run(batch, workers):
        loss, grads = loss_and_grads(p32, *batch, workers)
        return loss, {name: g.copy() for name, g in grads.items()}

    workers = lw_model.Workers([Workspace(cfg, 20, np.float32)])
    first = run(batch_a, workers)
    run(batch_b, workers)
    reused_metrics = evaluate(p, prepared.test, cn, prepared.normalizer, 16, workers)
    again = run(batch_a, workers)
    fresh = lw_model.Workers([Workspace(cfg, 20, np.float32)])
    for other in (run(batch_a, fresh), run(batch_a, one_worker(p32, batch_a[0]))):
        for got in (first, again):
            assert got[0].hex() == other[0].hex()
            assert got[1].keys() == other[1].keys() == p.tensors.keys()
            for name in other[1]:
                assert got[1][name].tobytes() == other[1][name].tobytes(), name
    assert reused_metrics == evaluate(p, prepared.test, cn, prepared.normalizer, 16)

    # results of a call with the workers are views of their gradient;
    # forward_batch makes its own workspace, so its results share none of theirs
    _, grads = loss_and_grads(p32, *batch_a, workers)
    assert all(np.shares_memory(g, workers.grad.vector) for g in grads.values())
    hist, fut, coords, hours, days, months = raw_a
    pred, own = forward_batch(hist, coords, hours, days, months, p32)
    grads = backward_batch(to_rows(np.sign(pred - fut)), own, p32, ModelParams.zeros(cfg, p32.dtype))
    plain = [pred, *grads.values()]
    for result in plain:
        assert not any(np.shares_memory(result, buf) for buf in _workers_arrays(workers))


def test_backward_batch_rejects_what_its_workspace_did_not_run():
    cfg = small_config()
    p = init_params(cfg, seed=67)
    rows, cn = row_batch(*_random_batch(cfg, 3, 2, seed=68))  # 6 rows
    x_rows, calendar = rows.x_rows, rows.calendar
    ws, out = Workspace(cfg, 6, p.dtype), ModelParams.zeros(cfg)
    g = np.ones((6, cfg.t_f))
    with pytest.raises(ShapeError, match="forward_rows has run"):
        backward_batch(g, ws, p, out)
    forward_rows(x_rows[:4], positions(cn, calendar[:2], p), p, ws)  # 2 windows
    for wrong in (g, g[:4, 1:], g[:4].reshape(-1)):
        with pytest.raises(ShapeError, match=r"the forward's \(4, 3\)"):
            backward_batch(wrong, ws, p, out)
    backward_batch(g[:4], ws, p, out)


def test_workspace_rejects_what_it_was_not_made_for():
    # every workspace of the Workers is checked, not only the one a chunk
    # would run in, by the training step and by evaluate alike
    cfg = small_config()
    p = init_params(cfg, seed=65)
    p32 = p.astype(np.float32)
    batch = row_batch(*_random_batch(cfg, 3, 2, seed=66))  # one chunk of 6 rows
    obs = generate(SynthConfig(n_stations=2, n_steps=300, seed=66), random_station_coords(2, 66)[1])
    prepared = split_windows(obs, cfg.t_h, cfg.t_f)
    cn = normalize_coords(obs.coords)
    assert len(prepared.test) > 3  # 3-window batches of 2 stations: chunks of 6 rows
    good = Workspace(cfg, 6, np.float32)
    rows, _ = batch
    for empty in (
        WindowBatch(prepared.test, []),
        RowBatch(rows.x_rows[:0], rows.future_rows[:0], rows.calendar[:0]),
    ):
        workers = lw_model.Workers([good])
        with pytest.raises(ShapeError, match="at least one window"):
            loss_and_grads(p32, empty, cn, workers)
        assert workers.grad is None
    loss_and_grads(p32, *batch, lw_model.Workers([good]))
    evaluate(p, prepared.test, cn, prepared.normalizer, 3, lw_model.Workers([good]))
    for bad, match in (
        (Workspace(cfg, 5, np.float32), "6 rows"),
        (Workspace(cfg, 6, np.float64), "float64"),
        (Workspace(small_config(d=4), 6, np.float32), "workspace for"),
    ):
        for workspaces in ([bad], [good, bad]):
            workers = lw_model.Workers(workspaces)
            with pytest.raises(ShapeError, match=match) as step:
                loss_and_grads(p32, *batch, workers)
            with pytest.raises(ShapeError) as scored:
                evaluate(p, prepared.test, cn, prepared.normalizer, 3, workers)
            assert str(scored.value) == str(step.value)


# --- parameter counting ----------------------------------------------------


def test_parameter_count_default_config():
    cfg = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    assert parameter_count(cfg) == 25_880
    assert closed_form_count(cfg) == 25_870
    assert abs(parameter_count(cfg) - closed_form_count(cfg)) == 10


def test_parameter_count_minimal_config():
    cfg = ModelConfig(d=1, n_layers=1, t_h=1, t_f=1)
    assert parameter_count(cfg) == 1 * 2 + 4 + 67 + 2 * 1 * 2 + 1 * 2 == 79


def test_parameter_count_d32_under_10k():
    cfg = ModelConfig(d=32, n_layers=2, t_h=48, t_f=24)
    assert parameter_count(cfg) == 1568 + 128 + 2144 + 4224 + 792 == 8_856
    assert parameter_count(cfg) < 10_000
    assert closed_form_count(cfg) == 270 * 33 == 8_910


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(1, 128),
    n_layers=st.integers(1, 4),
    t_h=st.integers(1, 96),
    t_f=st.integers(1, 48),
)
def test_parameter_count_matches_actual_tensors(d, n_layers, t_h, t_f):
    cfg = ModelConfig(d=d, n_layers=n_layers, t_h=t_h, t_f=t_f)
    enumerated = parameter_count(cfg)
    assert enumerated == d * (t_h + 1) + 4 * d + 67 * d + 2 * n_layers * d * (d + 1) + t_f * (d + 1)
    p = init_params(cfg, seed=0)
    assert sum(a.size for a in p.tensors.values()) == enumerated
    # documented bookkeeping gap between the enumeration and the closed form
    assert enumerated - closed_form_count(cfg) == 2 * d - t_h - 70


@settings(max_examples=60, deadline=None)
@given(
    spatial=st.sampled_from(SPATIAL_MODES),
    temporal=st.sampled_from(TEMPORAL_MODES),
    d=st.integers(1, 64),
    n_layers=st.integers(1, 5),
    t_h=st.integers(1, 96),
    t_f=st.integers(1, 48),
    n_stations=st.integers(1, 500),
)
def test_parameter_count_is_the_sum_of_the_spec_sizes(
    spatial, temporal, d, n_layers, t_h, t_f, n_stations
):
    cfg = ModelConfig(
        d=d,
        n_layers=n_layers,
        t_h=t_h,
        t_f=t_f,
        spatial_encoding=spatial,
        temporal_encoding=temporal,
        n_stations=n_stations if spatial == "relative" else None,
    )
    assert parameter_count(cfg) == sum(math.prod(shape) for _, shape, _ in tensor_spec(cfg))


def test_a_model_too_large_to_size_is_rejected_by_its_spec():
    # a huge d rather than a huge layer count: should the check go missing,
    # the spec is a few entries and the test fails at once
    cfg = ModelConfig(d=2**40, n_layers=1)
    size = parameter_count(cfg)
    assert size * 8 > np.iinfo(np.intp).max
    with pytest.raises(ConfigError, match=f"a model of {size} parameters is too large"):
        tensor_spec(cfg)
    with pytest.raises(ConfigError, match="too large"):
        ModelParams.zeros(cfg)


def test_relative_variant_count_difference():
    n = 17
    base = small_config()
    rel = small_config(spatial_encoding="relative", n_stations=n)
    assert parameter_count(rel) - parameter_count(base) == n * base.d - 4 * base.d


# --- init ------------------------------------------------------------------


def test_init_deterministic_in_seed():
    cfg = small_config()
    a = init_params(cfg, seed=77)
    b = init_params(cfg, seed=77)
    for (na, ta), (nb, tb) in zip(a.tensors.items(), b.tensors.items()):
        assert na == nb
        assert_array_equal(ta, tb)


def test_init_different_seeds_differ():
    cfg = small_config()
    a = init_params(cfg, seed=1)
    b = init_params(cfg, seed=2)
    assert any(
        not np.array_equal(ta, tb)
        for ta, tb in zip(a.tensors.values(), b.tensors.values())
    )


def test_init_respects_bounds():
    cfg = small_config(d=16, t_h=9)
    p = init_params(cfg, seed=33)
    t = p.tensors
    assert np.abs(t["fc_embed.weight"]).max() <= 1 / np.sqrt(cfg.t_h)
    assert np.abs(t["fc_spatial.weight"]).max() <= 1 / np.sqrt(3)
    assert np.abs(t["table_hour"]).max() <= 1 / np.sqrt(cfg.d)
    for i in range(cfg.n_layers):
        assert np.abs(t[f"encoder.{i}.fc1.weight"]).max() <= 1 / np.sqrt(cfg.d)
    assert np.abs(t["fc_regress.weight"]).max() <= 1 / np.sqrt(cfg.d)


def test_tensor_spec_pins_the_checkpoint_manifest_order():
    # checkpoints hold tensors in this order (the params section, and LWCKPT1
    # manifests); existing checkpoints rely on it
    assert [(name, shape) for name, shape, _ in tensor_spec(small_config())] == [
        ("fc_embed.weight", (8, 6)),
        ("fc_embed.bias", (8,)),
        ("fc_spatial.weight", (8, 3)),
        ("fc_spatial.bias", (8,)),
        ("table_hour", (24, 8)),
        ("table_day", (31, 8)),
        ("table_month", (12, 8)),
        ("encoder.0.fc1.weight", (8, 8)),
        ("encoder.0.fc1.bias", (8,)),
        ("encoder.0.fc2.weight", (8, 8)),
        ("encoder.0.fc2.bias", (8,)),
        ("encoder.1.fc1.weight", (8, 8)),
        ("encoder.1.fc1.bias", (8,)),
        ("encoder.1.fc2.weight", (8, 8)),
        ("encoder.1.fc2.bias", (8,)),
        ("fc_regress.weight", (3, 8)),
        ("fc_regress.bias", (3,)),
    ]


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_params_are_views_of_one_vector_in_spec_order(spatial, temporal, tmp_path):
    cfg = small_config(spatial_encoding=spatial, temporal_encoding=temporal, n_stations=5)
    p = init_params(cfg, seed=41)
    vec = p.vector
    assert vec.shape == (parameter_count(cfg),) and vec.dtype == np.float64
    assert list(p.tensors) == [name for name, _, _ in tensor_spec(cfg)]
    start = vec.__array_interface__["data"][0]
    offset = 0
    for name, shape, _ in tensor_spec(cfg):
        view = p.tensors[name]
        assert view.shape == shape and view.flags.c_contiguous, name
        assert view.base is vec and np.shares_memory(view, vec), name
        # no gap and no overlap: each view starts where the previous one ends
        assert view.__array_interface__["data"][0] - start == offset * vec.itemsize, name
        offset += view.size
    assert offset == vec.size

    before = vec.copy()
    for twin in (p.copy(), p.astype(np.float32)):
        assert not np.shares_memory(twin.vector, vec)
        assert all(np.shares_memory(twin.tensors[n], twin.vector) for n in twin.tensors)
        twin.vector[:] = 7.0
        assert vec.tobytes() == before.tobytes()
    assert p.astype(np.float32).vector.tobytes() == before.astype(np.float32).tobytes()

    # an LWCKPT1 file (the reference writer's) holds the vector after its
    # manifest, and the container's one section holds it too
    path = tmp_path / "ckpt.bin"
    lwckpt1_save(path, p)
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack("<I", raw[len(LWCKPT1) : len(LWCKPT1) + 4])
    data = raw[len(LWCKPT1) + 4 + manifest_len :]
    assert data == vec.astype("<f8").tobytes()
    checkpoint_save(tmp_path / "new.bin", p)
    _, _, manifest, new_data = container_parts((tmp_path / "new.bin").read_bytes())
    assert [(s["name"], s["shape"], s["offset"]) for s in manifest["sections"]] == [("params", [vec.size], 0)]
    assert new_data == data
    for file in (path, tmp_path / "new.bin"):
        loaded = checkpoint_load(file, cfg)
        assert loaded.vector.tobytes() == data
        assert all(np.shares_memory(loaded.tensors[n], loaded.vector) for n in loaded.tensors)

    # a loss read from the vector sees each perturbation made through a view
    def loss_and_grad(_):
        return 0.5 * float(vec @ vec), {n: t.copy() for n, t in p.tensors.items()}

    assert finite_diff_check(loss_and_grad, p.tensors, 1e-5) < 1e-6
    assert vec.tobytes() == before.tobytes()


@pytest.mark.parametrize("after", [None, 0, 1, 2, 3])
def test_a_checkpoint_save_that_fails_leaves_the_old_checkpoint(tmp_path, fail_write, after):
    """A save that cannot create its temp file (None), or whose write call
    number `after` fails (the container's head, its manifest and padding,
    the padding before the params section, the section), raises the
    one-line ConfigError and leaves the old file whole and no temp file."""
    cfg = small_config()
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_params(cfg, 0))
    before = path.read_bytes()
    made = fail_write(after)
    with pytest.raises(ConfigError, match="cannot write"):
        checkpoint_save(path, init_params(cfg, 1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]
    assert len(made) == (after is not None)  # the temp file was made, then removed
    assert checkpoint_load(path, cfg).vector.tobytes() == init_params(cfg, 0).vector.tobytes()


def test_params_reject_a_vector_of_the_wrong_size():
    cfg = small_config()
    with pytest.raises(ShapeError, match=str(parameter_count(cfg))):
        ModelParams(cfg, np.zeros(parameter_count(cfg) + 1))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=0)
    with pytest.raises(ConfigError):
        ModelConfig(spatial_encoding="relative")
    with pytest.raises(ConfigError):
        ModelConfig(spatial_encoding="sideways")
    biggest = int(np.iinfo(np.intp).max)  # the largest size an array axis can have
    ModelConfig(d=biggest, n_stations=biggest)
    for name in ("d", "n_layers", "t_h", "t_f", "n_vars", "n_stations"):
        with pytest.raises(ConfigError, match=f"{name} {biggest + 1} is too large"):
            ModelConfig(**{name: biggest + 1})
