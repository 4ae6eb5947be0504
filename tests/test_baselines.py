from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from lightweather import baselines
from lightweather.baselines import (
    evaluate_hi,
    hi_forecast,
    run_ablation_suite,
    summarize_ablation,
)
from lightweather import model
from lightweather.data import Normalizer, series_rows, split_windows
from lightweather.errors import ConfigError, TrainingError
from lightweather.model import (
    ModelConfig,
    forward_batch,
    init_params,
    normalize_coords,
    parameter_count,
)
from lightweather.synthetic import SynthConfig, generate, random_station_coords
from lightweather.training import MetricAccumulator, TrainConfig

SMALL = ModelConfig(d=8, n_layers=1, t_h=6, t_f=3, n_vars=1)


def dataset(n_stations=3, n_steps=260, noise=0.4, seed=0):
    cfg = SynthConfig(
        n_stations=n_stations, n_steps=n_steps, noise_std=noise, seed=seed
    )
    _, coords = random_station_coords(n_stations, seed)
    return generate(cfg, coords)


# --- historical inertia ----------------------------------------------------


def test_hi_constant_series_zero_error():
    history = np.full((8, 2, 1), 3.5)
    out = hi_forecast(history, 4)
    assert_array_equal(out, np.full((4, 2, 1), 3.5))


def test_hi_copies_most_recent_slice():
    history = np.arange(6.0).reshape(6, 1, 1)  # ... 3, 4, 5
    out = hi_forecast(history, 3)
    assert_array_equal(out[:, 0, 0], [3.0, 4.0, 5.0])


def test_hi_rejects_horizon_longer_than_history():
    with pytest.raises(ConfigError):
        hi_forecast(np.zeros((4, 1, 1)), 5)


def test_hi_idempotent_on_appended_output():
    history = np.random.default_rng(0).normal(size=(9, 2, 1))
    first = hi_forecast(history, 3)
    extended = np.concatenate([history, first], axis=0)
    again = hi_forecast(extended[-9:], 3)
    assert_array_equal(again, first)


def test_hi_batched_matches_single():
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(5, 7, 2, 1))
    out = hi_forecast(batch, 3)
    for b in range(5):
        assert_array_equal(out[b], hi_forecast(batch[b], 3))


def test_evaluate_hi_on_constant_series_is_exact():
    obs = dataset()
    obs.values[:] = 2.25
    prepared = split_windows(obs, 6, 3, normalize=False)
    metrics = evaluate_hi(prepared.test)
    assert metrics.mse == 0.0 and metrics.mae == 0.0


def test_evaluate_hi_equals_numpy_on_raw_values():
    prepared = split_windows(dataset(), 6, 3, normalize=True)
    ws = prepared.test
    raw_rows = series_rows(ws.raw_values, Normalizer.identity(ws.n_vars))
    assert not np.array_equal(ws.rows(), raw_rows[:, ws.span.start : ws.span.stop])  # normalized
    starts = ws.starts[:, None]
    diff = ws.raw_values[starts + np.arange(3, 6)] - ws.raw_values[starts + np.arange(6, 9)]
    metrics = evaluate_hi(ws, batch_size=len(ws))
    assert metrics.n_points == diff.size
    assert metrics.mse.hex() == (float((diff * diff).sum()) / diff.size).hex()
    assert metrics.mae.hex() == (float(np.abs(diff).sum()) / diff.size).hex()
    batched = evaluate_hi(ws, batch_size=5)
    assert batched.mse == pytest.approx(metrics.mse, rel=1e-12)
    assert batched.mae == pytest.approx(metrics.mae, rel=1e-12)


def test_evaluate_hi_pools_chunks_that_never_cross_a_batch(monkeypatch):
    # 7-window batches of 3 stations in chunks of at most 3 windows: each
    # batch is chunks of 3, 3 and 1, as evaluate takes it, and the chunks'
    # sums are pooled in order. Chunks of 3 that ran across the batches
    # would pool these windows to other bits
    monkeypatch.setattr(model, "CHUNK_ROWS", 9)
    ws = split_windows(dataset(), 6, 3).test
    n = len(ws)
    acc = MetricAccumulator()
    for lo in range(0, n, 7):
        for c in range(lo, min(lo + 7, n), 3):
            s = ws.starts[c : min(c + 3, lo + 7, n), None]
            acc.add(ws.raw_values[s + np.arange(3, 6)], ws.raw_values[s + np.arange(6, 9)])
    want, got = acc.result(), evaluate_hi(ws, batch_size=7)
    assert (got.mse.hex(), got.mae.hex(), got.n_points) == (
        want.mse.hex(), want.mae.hex(), want.n_points
    )


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_hi_batch_size_below_one_is_a_config_error(batch_size):
    ws = split_windows(dataset(), 6, 3).test
    with pytest.raises(ConfigError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        evaluate_hi(ws, batch_size)


def test_hi_zero_horizon_is_empty():
    assert hi_forecast(np.ones((4, 2, 1)), 0).shape == (0, 2, 1)
    assert hi_forecast(np.ones((3, 4, 2, 1)), 0).shape == (3, 0, 2, 1)


# --- variants ---------------------------------------------------------------


def test_variant_none_none_is_embedding_only():
    cfg = SMALL
    params = init_params(replace(cfg, spatial_encoding="none", temporal_encoding="none"), seed=0)
    base = init_params(cfg, seed=0)
    # zeroing the base model's encoding tensors reproduces the variant's H = E
    base.tensors["fc_spatial.weight"][:] = 0.0
    base.tensors["fc_spatial.bias"][:] = 0.0
    base.tensors["table_hour"][:] = 0.0
    base.tensors["table_day"][:] = 0.0
    base.tensors["table_month"][:] = 0.0
    # align shared tensors drawn later in the init stream
    for name in (
        "fc_embed.weight",
        "fc_embed.bias",
        "encoder.0.fc1.weight",
        "encoder.0.fc1.bias",
        "encoder.0.fc2.weight",
        "encoder.0.fc2.bias",
        "fc_regress.weight",
        "fc_regress.bias",
    ):
        base.tensors[name][...] = params.tensors[name]
    rng = np.random.default_rng(2)
    hist = rng.normal(size=(2, cfg.t_h, 3, cfg.n_vars))
    cn = normalize_coords(dataset().coords)
    hours, days, months = np.array([1, 2]), np.array([3, 4]), np.array([5, 6])
    out_variant, _ = forward_batch(hist, cn, hours, days, months, params)
    out_base, _ = forward_batch(hist, cn, hours, days, months, base)
    assert_array_equal(out_variant, out_base)


def test_variant_absolute_absolute_equals_base_model():
    params = init_params(
        replace(SMALL, spatial_encoding="absolute", temporal_encoding="absolute"), seed=9
    )
    base = init_params(SMALL, seed=9)
    for (na, a), (nb, b) in zip(params.tensors.items(), base.tensors.items()):
        assert na == nb
        assert_array_equal(a, b)


def test_relative_variant_parameter_excess():
    n = 11
    cfg = ModelConfig(d=8, n_layers=1, t_h=6, t_f=3, n_vars=1, n_stations=n)
    rel = init_params(replace(cfg, spatial_encoding="relative"), seed=0)
    base = init_params(replace(cfg, spatial_encoding="absolute"), seed=0)
    sizes = [sum(a.size for a in p.tensors.values()) for p in (rel, base)]
    assert sizes[0] - sizes[1] == n * cfg.d - 4 * cfg.d
    assert parameter_count(rel.config) - parameter_count(base.config) == n * cfg.d - 4 * cfg.d


def test_relative_variant_needs_station_count():
    with pytest.raises(ConfigError):
        init_params(replace(SMALL, spatial_encoding="relative"), seed=0)


# --- suite -----------------------------------------------------------------


def test_ablation_suite_needs_three_seeds():
    with pytest.raises(ConfigError, match="3 seeds"):
        run_ablation_suite(dataset(), SMALL, TrainConfig(max_epochs=1, patience=1), seeds=[0, 1])


def test_ablation_suite_all_variants_finite():
    obs = dataset(n_stations=2, n_steps=220)
    rows = run_ablation_suite(
        obs,
        ModelConfig(d=4, n_layers=1, t_h=6, t_f=3, n_vars=1),
        TrainConfig(lr=5e-4, batch_size=16, max_epochs=2, patience=2),
        seeds=[0, 1, 2],
    )
    assert len(rows) == 12  # 4 variants x 3 seeds
    assert all(np.isfinite(r["mse"]) and np.isfinite(r["mae"]) for r in rows)
    summary = summarize_ablation(rows)
    assert [(s["spatial"], s["temporal"]) for s in summary] == [
        ("none", "absolute"),
        ("absolute", "none"),
        ("relative", "absolute"),
        ("absolute", "absolute"),
    ]
    assert all(s["n_seeds"] == 3 for s in summary)


def test_ablation_suite_annotates_its_own_errors_and_passes_others_on(monkeypatch):
    # the package's errors take one message and come back as their own type
    # naming the variant; any other exception is raised as it was, however
    # its constructor is called
    own = TrainingError("loss is not finite")
    other = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    obs, train = dataset(n_stations=2, n_steps=220), TrainConfig(max_epochs=1, patience=1)
    for error in (own, other):

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(baselines, "fit", failing)
        with pytest.raises(type(error)) as raised:
            run_ablation_suite(obs, SMALL, train, seeds=[0, 1, 2])
        if error is own:
            assert str(raised.value) == "[spatial=none, temporal=absolute, seed=0] loss is not finite"
            assert type(raised.value) is TrainingError and raised.value.__cause__ is own
        else:
            assert raised.value is other
