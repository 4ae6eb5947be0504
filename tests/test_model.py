import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import lightweather as lw
from lightweather.errors import ConfigError, ShapeError, ValidationError
from lightweather.model import (
    ModelConfig,
    StationCoord,
    TimeFeature,
    backward_batch,
    batch_to_rows,
    closed_form_count,
    encoder_forward,
    forward,
    forward_batch,
    forward_rows,
    init_params,
    loss_and_grads,
    normalize_coords,
    parameter_count,
    spatial_rows,
    temporal_rows,
    tensor_spec,
)
from lightweather.numerics import finite_diff_check, linear_forward, relu


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


# --- embedding: fc_embed, as forward_batch applies it ----------------------


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

TABLES = ("table_hour", "table_day", "table_month")


def lookup(tf, p):
    """temporal_rows for one window at `tf`: hour + day + month rows."""
    return temporal_rows([tf.hour], [tf.day_index], [tf.month_index], p)[0]


def only(p, table):
    """A copy of p whose temporal tables other than `table` are zero, so
    that lookup returns that table's row."""
    q = p.copy()
    for name in TABLES:
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
    for q in (p, *(only(p, name) for name in TABLES)):
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
    assert temporal_rows([1], [2], [3], p) is None


def test_time_feature_ranges():
    with pytest.raises(ValidationError):
        TimeFeature(hour=24, day_index=0, month_index=0)
    with pytest.raises(ValidationError):
        TimeFeature(hour=0, day_index=31, month_index=0)
    with pytest.raises(ValidationError):
        TimeFeature(hour=0, day_index=0, month_index=12)


# --- fusion: the encoder input forward_batch caches as z_list[0] ------------


def fusion(p, seed, n_batch=2, n_st=3):
    """forward_batch's fused rows z_list[0] [B*N*C, d] and its five addends,
    each written out from the tensors and broadcast to the same rows: the
    embedding, the spatial row and the hour, day and month rows."""
    cfg = p.config
    hist, _, cn, hours, days, months = _random_batch(cfg, n_batch, n_st, seed)
    _, cache = forward_batch(hist, cn, hours, days, months, p, want_cache=True)
    shape = (n_batch, n_st, cfg.n_vars, cfg.d)
    x_rows = hist.transpose(0, 2, 3, 1).reshape(-1, cfg.t_h)
    e = (x_rows @ p.tensors["fc_embed.weight"].T + p.tensors["fc_embed.bias"]).reshape(shape)
    s = cn @ p.tensors["fc_spatial.weight"].T + p.tensors["fc_spatial.bias"]
    terms = [e, np.broadcast_to(s[None, :, None, :], shape)]
    for name, idx in zip(TABLES, (hours, days, months)):
        terms.append(np.broadcast_to(p.tensors[name][idx][:, None, None, :], shape))
    return cache["z_list"][0], [a.reshape(-1, cfg.d) for a in terms]


def test_fuse_zeros_give_back_embedding():
    p = init_params(small_config(), seed=9)
    for name in ("fc_spatial.weight", "fc_spatial.bias", *TABLES):
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
    assert_array_equal(encoder_forward(h, p), h)


def test_encoder_scalar_case():
    p = init_params(small_config(d=1, n_layers=1, t_h=1, t_f=1), seed=13)
    p.layer("encoder.0.fc1").weight[:] = 1.0
    p.layer("encoder.0.fc1").bias[:] = 0.0
    p.layer("encoder.0.fc2").weight[:] = 1.0
    p.layer("encoder.0.fc2").bias[:] = 0.0
    assert_array_equal(encoder_forward(np.array([2.0]), p), [4.0])


def test_encoder_finite_over_random_draws():
    cfg = small_config(d=4, n_layers=2)
    h = np.linspace(-2, 2, 4)
    for seed in range(10_000):
        p = init_params(cfg, seed=seed)
        out = encoder_forward(h, p)
        assert np.isfinite(out).all()


def test_encoder_row_equals_its_row_in_a_stack():
    p = init_params(small_config(), seed=14)
    rows = np.random.default_rng(15).normal(size=(5, 8))
    stacked = encoder_forward(rows, p)
    for k in range(5):  # a vector product and a matrix product may round differently
        assert_allclose(encoder_forward(rows[k], p), stacked[k], rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        encoder_forward(np.zeros(7), p)


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
    hist, fut, cn, hours, days, months = _batch_for(cfg)

    def lg(_):
        return loss_and_grads(p, hist, fut, cn, hours, days, months)

    err = finite_diff_check(lg, p.tensors, 1e-6)
    assert err < 1e-4


@pytest.mark.parametrize("spatial,temporal", [("relative", "absolute"), ("none", "none")])
def test_variant_gradient_check(spatial, temporal):
    cfg = small_config(spatial_encoding=spatial, temporal_encoding=temporal, n_stations=2)
    p = init_params(cfg, seed=GRAD_SEED)
    hist, fut, cn, hours, days, months = _batch_for(cfg)

    def lg(_):
        return loss_and_grads(p, hist, fut, cn, hours, days, months)

    err = finite_diff_check(lg, p.tensors, 1e-6)
    assert err < 1e-4


def test_hour_table_gradient_sparsity():
    cfg = small_config()
    p = init_params(cfg, seed=24)
    hist, fut, cn, _, days, months = _batch_for(cfg)
    hours = np.array([5, 5])
    _, grads = loss_and_grads(p, hist, fut, cn, hours, days, months)
    nonzero_rows = np.nonzero(np.abs(grads["table_hour"]).sum(axis=1))[0]
    assert_array_equal(nonzero_rows, [5])


def test_doubling_loss_scale_doubles_gradients():
    cfg = small_config()
    p = init_params(cfg, seed=25)
    hist, fut, cn, hours, days, months = _batch_for(cfg)
    pred, cache = forward_batch(hist, cn, hours, days, months, p, want_cache=True)
    g = np.sign(pred - fut) / pred.size
    grads1 = backward_batch(g, cache, p)
    grads2 = backward_batch(2.0 * g, cache, p)
    for name in grads1:
        assert_array_equal(grads2[name], 2.0 * grads1[name])


# --- same bits as the definitional math ------------------------------------
# An unfused reference written from the primitives' definitions: every step
# allocates its result, ReLU is recomputed in backward and its gradient is
# np.where, and every linear backward computes grad_x. The batch path reuses
# buffers and skips unused work, but must perform the same floating-point
# operations in the same order, so its results must match bit for bit.

ENCODINGS = [
    ("absolute", "absolute"),
    ("relative", "absolute"),
    ("none", "absolute"),
    ("absolute", "none"),
    ("none", "none"),
]


def _ref_linear(x, layer):
    return x @ layer.weight.T + layer.bias


def _ref_linear_backward(x, layer, g):
    return g @ layer.weight, g.T @ x, g.sum(axis=0)


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
    g_rows = np.sign(diff) / diff.size

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
    gh4 = gz.reshape(n_batch, n_st, n_vars, cfg.d)
    if cfg.temporal_encoding == "absolute":
        g_window = gh4.sum(axis=(1, 2))
        for name, idx in (("table_hour", hours), ("table_day", days), ("table_month", months)):
            g[name] = np.zeros_like(t[name])
            np.add.at(g[name], idx, g_window)
    if cfg.spatial_encoding == "absolute":
        _, g["fc_spatial.weight"], g["fc_spatial.bias"] = _ref_linear_backward(
            cn, p.layer("fc_spatial"), gh4.sum(axis=(0, 2))
        )
    elif cfg.spatial_encoding == "relative":
        g["station_table"] = gh4.sum(axis=(0, 2))
    _, g["fc_embed.weight"], g["fc_embed.bias"] = _ref_linear_backward(
        x_rows, p.layer("fc_embed"), gz
    )
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
    calendar = [rng.integers(0, hi, size=n_batch) for hi in (24, 31, 12)]
    return hist, fut, cn, *calendar


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
    loss, grads = loss_and_grads(p, *batch)
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
    inputs_before = copy.deepcopy(batch)
    params_before = copy.deepcopy(p.tensors)

    plain, no_cache = forward_batch(hist, cn, hours, days, months, p)
    pred, cache = forward_batch(hist, cn, hours, days, months, p, want_cache=True)
    assert no_cache is None
    assert plain.dtype == pred.dtype == dtype
    assert plain.tobytes() == pred.tobytes()
    if dtype == np.float64 and n_batch == n_st == n_vars == 1:
        assert np.shares_memory(cache["x_rows"], hist)  # the aliasing case
    cache_before = copy.deepcopy(cache)
    loss_and_grads(p, *batch)
    backward_batch(np.sign(pred - fut) / pred.size, cache, p)

    _assert_unchanged(inputs_before, batch)
    _assert_unchanged(params_before, p.tensors)
    _assert_unchanged(cache_before, cache)

    rows = cache["x_rows"]
    y = linear_forward(rows, p.layer("fc_embed"))
    for arg in (rows, hist, p.tensors["fc_embed.weight"], p.tensors["fc_embed.bias"]):
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
    loss64, grads64 = loss_and_grads(p64, *batch)
    loss32, grads32 = loss_and_grads(p32, *batch)
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
    x_rows = batch_to_rows(hist)
    y_rows, _ = forward_rows(x_rows, cn, hours, days, months, p)
    pred, _ = forward_batch(hist, cn, hours, days, months, p)
    assert_same_bits(y_rows, batch_to_rows(pred))
    with pytest.raises(ShapeError, match="not 2 windows"):
        forward_rows(x_rows[:-1], cn, hours, days, months, p)
    with pytest.raises(ShapeError, match="T_h=6"):
        forward_rows(x_rows[:, 1:], cn, hours, days, months, p)


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
    # LWCKPT1 manifests list tensors in this order; existing checkpoints rely on it
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


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(spatial_encoding="relative").validate()
    with pytest.raises(ConfigError):
        ModelConfig(spatial_encoding="sideways").validate()
