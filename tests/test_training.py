import hashlib
import json
import os
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from lightweather.checkpoint import LWCKPT1, checkpoint_load, checkpoint_save
from lightweather.data import normalize_apply, split_windows
from lightweather.errors import (
    CheckpointError,
    ConfigError,
    EvaluationError,
    OptimizerError,
    TrainingError,
)
import lightweather
from lightweather import cli, numerics, training
from lightweather import data as lw_data
from lightweather import model as lw_model
from lightweather.data import normalize_invert
from lightweather.model import (
    COMPUTE_DTYPE,
    ModelConfig,
    forward_rows,
    init_params,
    loss_and_grads,
    normalize_coords,
    parameter_count,
    positions,
    tensor_spec,
)
from lightweather.numerics import AdamState, adam_step
from lightweather.synthetic import SynthConfig, generate, random_station_coords
from lightweather.training import (
    MetricAccumulator,
    TrainConfig,
    evaluate,
    fit,
    write_history_csv,
)
from oracles import RowBatch, edit_container, lwckpt1_save

SMALL = ModelConfig(d=8, n_layers=2, t_h=6, t_f=3, n_vars=1)
ENCODINGS = [
    ("absolute", "absolute"),
    ("relative", "absolute"),
    ("none", "absolute"),
    ("absolute", "none"),
    ("none", "none"),
]


def tiny_dataset(n_stations=2, n_steps=300, noise=0.2, seed=0, alpha=()):
    cfg = SynthConfig(
        n_stations=n_stations, n_steps=n_steps, alpha=alpha, noise_std=noise, seed=seed
    )
    ids, coords = random_station_coords(n_stations, seed)
    return generate(cfg, coords)


# --- loss and metrics ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, (4, 3, 2), elements=st.floats(-1e4, 1e4)),
    arrays(np.float64, (4, 3, 2), elements=st.floats(-1e4, 1e4)),
)
def test_mae_squared_never_exceeds_mse(pred, truth):
    acc = MetricAccumulator()
    acc.add(pred, truth)
    m = acc.result()
    # equality holds when all |residuals| agree; allow rounding at that edge
    assert m.mae**2 <= m.mse * (1.0 + 1e-9) + 1e-12


def test_streaming_matches_one_pass():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(50, 4, 2))
    truth = rng.normal(size=(50, 4, 2))
    acc = MetricAccumulator()
    for k in range(50):
        acc.add(pred[k], truth[k])
    m = acc.result()
    one_mse = float(((pred - truth) ** 2).mean())
    one_mae = float(np.abs(pred - truth).mean())
    assert m.mse == pytest.approx(one_mse, rel=1e-9)
    assert m.mae == pytest.approx(one_mae, rel=1e-9)


def test_evaluate_perfect_predictor_zero_error():
    # zero-variance-free dataset, model replaced by an oracle via HI on a
    # constant series is covered in baselines; here: evaluate raises on empty
    obs = tiny_dataset()
    prepared = split_windows(obs, 6, 3)
    params = init_params(
        ModelConfig(d=4, n_layers=1, t_h=6, t_f=3, n_vars=1), seed=0
    )
    empty = prepared.test
    empty.starts = empty.starts[:0]
    with pytest.raises(EvaluationError):
        evaluate(params, empty, normalize_coords(obs.coords), prepared.normalizer)


@pytest.mark.parametrize("batch_size", [0, -3])
def test_evaluate_batch_size_below_one_is_a_config_error_before_any_allocation(
    batch_size, monkeypatch
):
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    params = init_params(SMALL, seed=0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("allocated before the batch_size check")

    monkeypatch.setattr(lw_model, "Workspace", must_not_run)
    monkeypatch.setattr(lw_model.ModelParams, "zeros", must_not_run)
    cn = normalize_coords(obs.coords)
    with pytest.raises(ConfigError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        evaluate(params, prepared.test, cn, prepared.normalizer, batch_size)


@pytest.mark.parametrize("chunk_rows", [None, 12])
def test_evaluate_pools_each_chunk_as_the_metric_accumulator_does(chunk_rows, monkeypatch):
    # 3 stations x 2 variables, normalized; with chunk_rows, each 5-window
    # batch runs in chunks of 2, 2 and 1 windows. The sums of each chunk,
    # scored in the workspace's scratch rows, have the bits of
    # MetricAccumulator.add on the inverted prediction and a gather of the
    # raw targets, pooled in chunk order
    if chunk_rows is not None:
        monkeypatch.setattr(lw_model, "CHUNK_ROWS", chunk_rows)
    obs = tiny_dataset(n_stations=3, seed=9)
    obs.values[..., 0] *= 3.0
    obs.values = np.concatenate([obs.values, 5.0 - 2.0 * obs.values], axis=2)
    obs.var_names = ["a", "b"]
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    cfg = replace(SMALL, n_vars=2)
    params = init_params(cfg, seed=10)
    cn = normalize_coords(obs.coords)
    test = prepared.test
    step = lw_model.chunk_windows(6)
    acc = MetricAccumulator()
    p32 = params.astype(COMPUTE_DTYPE)
    for lo in range(0, len(test), 5):
        for c in range(lo, min(lo + 5, len(test)), step):
            idx = np.arange(c, min(c + step, lo + 5, len(test)))
            b = test.batch(idx)
            ws = lw_model.Workspace(cfg, len(b["history"]), p32.dtype)
            pos = positions(cn, test.calendar[idx], p32)
            y_rows = forward_rows(b["history"], pos, p32, ws)
            pred = normalize_invert(y_rows.reshape(-1, 2, SMALL.t_f).swapaxes(1, 2), prepared.normalizer)
            raw = obs.values[test.starts[idx][:, None] + SMALL.t_h + np.arange(SMALL.t_f)]
            truth = np.ascontiguousarray(raw.transpose(0, 2, 3, 1)).reshape(-1, SMALL.t_f)
            acc.add(pred, truth.reshape(-1, 2, SMALL.t_f).swapaxes(1, 2))
    threads = threading.active_count()
    got = evaluate(params, test, cn, prepared.normalizer, batch_size=5)
    assert got == acc.result()
    assert threading.active_count() == threads  # evaluate's workers have ended


def test_the_first_failing_evaluate_chunk_raises_its_error_unchanged(monkeypatch, chunk_calls):
    # 5-window batches in chunks of 2, 2 and 1 windows on two workers that
    # take the next chunk as soon as they are free. The second chunk fails
    # after the third, which the first chunk's worker takes meanwhile, and
    # the second one's error is raised
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 6)
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 2)
    obs = tiny_dataset(n_stations=3, seed=9)
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    params = init_params(SMALL, seed=10)
    cn = normalize_coords(obs.coords)
    test = prepared.test
    errors = {2: EvaluationError("second chunk"), 4: EvaluationError("third chunk")}

    def failing(first):
        if first in errors:
            time.sleep(0.05 if first == 2 else 0)
            raise errors[first]

    chunk_calls.before = failing
    before, threads = numerics.blas_threads(), threading.active_count()
    for _ in range(5):
        chunk_calls.clear()
        with pytest.raises(EvaluationError) as raised:
            evaluate(params, test, cn, prepared.normalizer, batch_size=5)
        assert raised.value is errors[2]
        assert numerics.blas_threads() == before
        assert threading.active_count() == threads  # the failed run's thread has ended


def test_evaluate_streams_one_chunk_batches_over_the_workers(monkeypatch, chunk_calls):
    # 5-window batches of 3 stations are one chunk each, as narrow-train's
    # are: evaluate runs the whole split's chunks in one Workers.run, so the
    # two workers share them (each chunk sleeps, so that neither takes them
    # all), and the sums pooled in chunk order give the one-worker bits
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 2)
    obs = tiny_dataset(n_stations=3, seed=9)
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    params = init_params(SMALL, seed=10)
    cn = normalize_coords(obs.coords)
    test = prepared.test
    assert len(test) > 4 * 5 and lw_model.chunk_windows(3) > 5
    one = lw_model.Workers([lw_model.Workspace(SMALL, 15)])
    alone = evaluate(params, test, cn, prepared.normalizer, 5, one)
    threads = []

    def recording(first):
        threads.append(threading.get_ident())
        time.sleep(0.002)

    chunk_calls.clear()
    chunk_calls.before = recording
    running = threading.active_count()
    streamed = evaluate(params, test, cn, prepared.normalizer, batch_size=5)
    assert len(threads) == -(-len(test) // 5) and len(set(threads)) == 2
    assert chunk_calls == {lo: min(5, len(test) - lo) for lo in range(0, len(test), 5)}
    assert threading.get_ident() in threads  # the caller is one of the two workers
    assert streamed == alone
    assert threading.active_count() == running  # evaluate's workers have ended
    # Workers given to evaluate hold no thread once it returns
    chunk_calls.clear()
    chunk_calls.before = None
    two = lw_model.Workers.for_batches(SMALL, 3, 5)
    assert evaluate(params, test, cn, prepared.normalizer, 5, two) == alone
    assert threading.active_count() == running


def counting_series_rows(monkeypatch, delay=0.0):
    """Patch data.series_rows to record the step count of each series it
    makes rows of, sleeping `delay` seconds first; returns the record."""
    made, series_rows = [], lw_data.series_rows

    def counting(values, norm):
        made.append(len(values))
        time.sleep(delay)
        return series_rows(values, norm)

    monkeypatch.setattr(lw_data, "series_rows", counting)
    return made


def test_a_split_makes_its_rows_on_first_use_and_keeps_them(monkeypatch):
    # split_windows makes no rows; evaluate on fresh splits makes the test
    # split's alone, a second evaluate none, and fit the train and val
    # splits' once each, however many epochs and validation passes it runs
    made = counting_series_rows(monkeypatch)
    obs = tiny_dataset(n_stations=3, seed=9)
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    assert made == []
    params = init_params(SMALL, seed=10)
    cn = normalize_coords(obs.coords)
    first = evaluate(params, prepared.test, cn, prepared.normalizer, 5)
    assert evaluate(params, prepared.test, cn, prepared.normalizer, 5) == first
    assert made == [len(prepared.test.span)]
    cfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=3, patience=3, seed=0)
    result = fit(params, prepared.train, prepared.val, cn, cfg, prepared.normalizer)
    assert len(result.history) == 3
    assert made == [len(prepared.test.span), len(prepared.train.span), len(prepared.val.span)]


def test_workers_that_gather_first_together_make_each_split_rows_once(monkeypatch, switch_often):
    # two-window chunks on more workers than CPUs, the interpreter switching
    # threads every microsecond and every build slowed, so that the workers'
    # first chunks ask for a split's rows together: the first to ask makes
    # them while the others wait, and the results are a fresh unpatched
    # run's bits
    monkeypatch.setattr(lw_model, "CHUNK_ROWS", 2 * 3)
    monkeypatch.setattr(lw_model, "usable_cpus", lambda: 4)
    obs = tiny_dataset(n_stations=3, seed=9)
    cn = normalize_coords(obs.coords)
    cfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)

    def run(prepared):  # fit steps the params it is given in place
        params = init_params(SMALL, seed=10)
        metrics = evaluate(params, prepared.test, cn, prepared.normalizer, 8)
        fit(params, prepared.train, prepared.val, cn, cfg, prepared.normalizer)
        return metrics, params.vector.tobytes()

    want = run(split_windows(obs, SMALL.t_h, SMALL.t_f))
    made = counting_series_rows(monkeypatch, delay=0.05)
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    with switch_often():
        got = run(prepared)
    assert got == want
    spans = [len(ws.span) for ws in (prepared.test, prepared.train, prepared.val)]
    assert made == spans


# --- fit -------------------------------------------------------------------


def test_fit_lr_zero_keeps_params():
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    cn = normalize_coords(obs.coords)
    params = init_params(SMALL, seed=1)
    before = {n: a.copy() for n, a in params.tensors.items()}
    result = fit(
        params,
        prepared.train,
        prepared.val,
        cn,
        TrainConfig(lr=0.0, max_epochs=2, patience=2, seed=0),
        prepared.normalizer,
    )
    for name, arr in result.params.tensors.items():
        assert_array_equal(arr, before[name])


def test_each_parameter_sized_allocation_of_fit_is_a_config_error(fail_allocation, monkeypatch):
    # Adam's moments and scratch, the float32 copy, the Workers' batch
    # gradient, the chunks' gradient vector, the best params and evaluate's
    # float32 copy: whichever numpy cannot allocate is the one-line error of
    # ModelParams.zeros. The batches here are one chunk each, so each chunk's
    # vector is added and given back before the next chunk takes one, and no
    # gradient is parked (test_model checks that allocation). Workers that
    # only evaluate, and forward_batch, make no gradient at all
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    size = parameter_count(SMALL)
    params = init_params(SMALL, seed=1)

    def run():
        fit(
            params.copy(),
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=1, patience=1, seed=0),
            prepared.normalizer,
        )

    for cpus in (1, 2):
        monkeypatch.setattr(lw_model, "usable_cpus", lambda: cpus)
        calls = fail_allocation(size, lambda k: False)
        run()
        assert calls.count("zeros_like") == 2 and calls.count("empty_like") == 2  # Adam
        # params.copy(), the float32 copy, the batch gradient, the one chunk
        # gradient, the best params at the start and after the first epoch,
        # evaluate's float32 copy
        assert calls.count("zeros") == 7
        for nth in range(len(calls)):
            fail_allocation(size, lambda k: k == nth)
            with pytest.raises(ConfigError, match=f"a model of {size} parameters is too large to allocate"):
                run()
        calls = fail_allocation(size, lambda k: False)
        evaluate(params, prepared.test, normalize_coords(obs.coords), prepared.normalizer)
        assert calls == ["zeros"]  # the float32 copy, on Workers made for this call
        n_st = obs.n_stations
        lw_model.forward_batch(np.zeros((2, SMALL.t_h, n_st, 1)), np.zeros((n_st, 3)), *[[0, 1]] * 3, params)
        assert calls == ["zeros"]


def test_fit_deterministic_given_seed(tmp_path):
    obs = tiny_dataset()
    checkpoints = []
    for run in range(2):
        prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
        params = init_params(SMALL, seed=7)
        result = fit(
            params,
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=3, patience=3, seed=7),
            prepared.normalizer,
        )
        path = tmp_path / f"run{run}.bin"
        checkpoint_save(path, result.params)
        checkpoints.append(path.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_fit_best_checkpoint_never_worse_than_history():
    obs = tiny_dataset(noise=0.5)
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    params = init_params(SMALL, seed=3)
    result = fit(
        params,
        prepared.train,
        prepared.val,
        normalize_coords(obs.coords),
        TrainConfig(lr=5e-4, max_epochs=6, patience=6, seed=3),
        prepared.normalizer,
    )
    assert result.best_val_mae == min(h["val_mae"] for h in result.history)
    assert result.history[result.best_epoch]["val_mae"] == result.best_val_mae


def test_fit_loss_nonincreasing_early_on_noise_free_data():
    # statistical claim: holds in >= 4 of 5 seeds over the first 10 epochs
    wins = 0
    for seed in range(5):
        obs = tiny_dataset(n_stations=1, n_steps=250, noise=0.0, seed=seed)
        prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
        params = init_params(SMALL, seed=seed)
        result = fit(
            params,
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=10, patience=10, seed=seed),
            prepared.normalizer,
        )
        maes = [h["train_mae"] for h in result.history]
        if all(b <= a + 1e-9 for a, b in zip(maes, maes[1:])):
            wins += 1
    assert wins >= 4


def test_fit_aborts_on_nonfinite_loss():
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f, normalize=False)
    params = init_params(SMALL, seed=2)
    params.tensors["fc_regress.bias"][0] = np.inf  # finite inputs, poisoned parameter
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0"):
        fit(
            params,
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=1, patience=1, seed=0),
            None,
        )


@pytest.mark.parametrize("poison", [np.inf, 1e39])  # 1e39 is inf only in float32
def test_fit_nonfinite_loss_names_the_tensor(poison):
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f, normalize=False)
    params = init_params(SMALL, seed=2)
    params.tensors["fc_regress.bias"][0] = poison
    with pytest.raises(TrainingError, match=r"epoch 0, batch 0; first non-finite value: fc_regress\.bias"):
        fit(
            params,
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=1, patience=1, seed=0),
            None,
        )


def test_fit_nonfinite_loss_names_the_first_nonfinite_gradient(monkeypatch):
    def nan_tail(params, *batch):
        _, grads = loss_and_grads(params, *batch)
        for name in ("fc_regress.bias", "encoder.1.fc2.bias", "fc_regress.weight"):
            grads[name] = np.full_like(grads[name], np.nan)
        return np.nan, grads

    monkeypatch.setattr(training, "loss_and_grads", nan_tail)
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    with pytest.raises(TrainingError, match=r"first non-finite gradient: encoder\.1\.fc2\.bias"):
        fit(
            init_params(SMALL, seed=2),
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=1, patience=1, seed=0),
            prepared.normalizer,
        )


def test_fit_computes_in_float32_and_returns_float64(tmp_path, monkeypatch):
    seen = set()
    forward_rows = training.model_ops.forward_rows

    def recording_forward(*args, **kwargs):
        pred = forward_rows(*args, **kwargs)
        seen.add(pred.dtype)
        return pred

    monkeypatch.setattr(training.model_ops, "forward_rows", recording_forward)
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    checkpoints = []
    for run in range(2):
        result = fit(
            init_params(SMALL, seed=5),
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=2, patience=2, seed=5),
            prepared.normalizer,
        )
        assert all(a.dtype == np.float64 for a in result.params.tensors.values())
        path = tmp_path / f"run{run}.bin"
        checkpoint_save(path, result.params)
        checkpoints.append(path.read_bytes())
    assert checkpoints[0] == checkpoints[1]
    assert seen == {np.dtype(np.float32)}  # training batches and validation


@pytest.mark.parametrize("spatial,temporal", ENCODINGS)
def test_fit_epoch_equals_a_hand_loop_on_the_float64_gather(spatial, temporal):
    # one epoch of fit, on the float32 row store, changes no bit against
    # loss_and_grads on the normalized float64 [B, T, N, C] windows, laid out
    # as rows, with float32 params, followed by one adam_step per tensor
    cfg = replace(SMALL, spatial_encoding=spatial, temporal_encoding=temporal, n_stations=3)
    obs = tiny_dataset(n_stations=3)
    prepared = split_windows(obs, cfg.t_h, cfg.t_f)
    train = prepared.train
    coords_norm = normalize_coords(obs.coords)
    config = TrainConfig(lr=5e-4, batch_size=16, max_epochs=1, patience=1, seed=3)
    result = fit(
        init_params(cfg, seed=4), train, prepared.val, coords_norm, config, prepared.normalizer
    )

    values = normalize_apply(obs.values, prepared.normalizer)
    params = init_params(cfg, seed=4)
    states = {name: AdamState.zeros_like(arr) for name, arr in params.tensors.items()}
    perm = np.random.default_rng([config.seed, 0]).permutation(len(train))
    abs_err_sum = 0.0
    for lo in range(0, len(train), config.batch_size):
        idx = perm[lo : lo + config.batch_size]
        s = train.starts[idx][:, None]
        hist = values[s + np.arange(cfg.t_h)]  # [B, T_h, N, C]
        fut = values[s + cfg.t_h + np.arange(cfg.t_f)]
        rows = RowBatch(
            hist.transpose(0, 2, 3, 1).reshape(-1, cfg.t_h),
            fut.transpose(0, 2, 3, 1).reshape(-1, cfg.t_f),
            train.calendar[idx],
        )
        one = lw_model.Workers([lw_model.Workspace(cfg, rows.x_rows.shape[0])])
        loss, grads = loss_and_grads(params.astype(np.float32), rows, coords_norm, one)
        abs_err_sum += loss * len(idx)
        for name, tensor in params.tensors.items():
            adam_step(tensor, grads[name], states[name], config.lr, out=tensor)
    for name, arr in params.tensors.items():
        assert arr.tobytes() == result.params.tensors[name].tobytes(), name
    assert result.history[0]["train_mae"] == abs_err_sum / len(train)


def _nan_gradient_in_encoder_1_fc2_bias(params, *batch):
    loss, grads = loss_and_grads(params, *batch)
    grads["encoder.1.fc2.bias"][1] = np.nan
    return loss, grads


def test_fit_finite_loss_with_nonfinite_gradient_names_the_tensor(monkeypatch):
    monkeypatch.setattr(training, "loss_and_grads", _nan_gradient_in_encoder_1_fc2_bias)
    obs = tiny_dataset()
    prepared = split_windows(obs, SMALL.t_h, SMALL.t_f)
    with pytest.raises(
        OptimizerError, match=r"^non-finite gradient for parameter 'encoder\.1\.fc2\.bias'$"
    ):
        fit(
            init_params(SMALL, seed=2),
            prepared.train,
            prepared.val,
            normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, max_epochs=1, patience=1, seed=0),
            prepared.normalizer,
        )


def test_train_with_a_nonfinite_gradient_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(training, "loss_and_grads", _nan_gradient_in_encoder_1_fc2_bias)
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "d = 8\nlayers = 2\nt_h = 6\nt_f = 3\nsynth_stations = 2\nsynth_steps = 220\n"
        f"out_dir = {tmp_path / 'data'}\n",
        encoding="utf-8",
    )
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(
            f"stations_csv = {tmp_path / 'data' / 'stations.csv'}\n"
            f"observations_csv = {tmp_path / 'data' / 'observations.csv'}\n"
        )
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "training error: non-finite gradient for parameter 'encoder.1.fc2.bias'\n"
    )
    assert not out.exists()


# Each child process trains 1000 stations, whose chunks hold 8 windows of
# 1000 rows: at batch_size 32 every batch spans 4 chunks of 8000 rows, and
# at batch_size 8 every batch is one such chunk. Chunks that large, summed
# in one GEMM, take other bits under 2 OpenBLAS threads than under 1 (a
# checkpoint made before every chunk ran on one BLAS thread differed, at
# both batch sizes). The first argument is the set of CPUs the child may
# run on, or "" for its parent's.
_TRAIN_IN_CHILD = """
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(",")})
from lightweather import cli
sys.exit(cli.main(["train", "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("batch_size", [32, 8])
def test_checkpoints_do_not_depend_on_blas_or_worker_threads(tmp_path, batch_size):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        textwrap.dedent(
            f"""\
            d = 64
            layers = 2
            t_h = 12
            t_f = 6
            batch_size = {batch_size}
            max_epochs = 1
            patience = 1
            seed = 0
            synth_stations = 1000
            synth_steps = 200
            synth_noise_std = 0.5
            stations_csv = {tmp_path}/stations.csv
            observations_csv = {tmp_path}/observations.csv
            """
        )
    )
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    src = str(Path(lightweather.__file__).resolve().parent.parent)
    cpus = sorted(os.sched_getaffinity(0))
    runs = [("1", ""), ("2", "")]  # (OpenBLAS threads, CPUs)
    if len(cpus) >= 2:  # one worker against two
        runs += [(None, f"{cpus[0]}"), (None, f"{cpus[0]},{cpus[1]}")]
    digests = []
    for i, (threads, affinity) in enumerate(runs):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
            if threads is not None:
                env[var] = threads
        out = tmp_path / f"out{i}"
        subprocess.run(
            [sys.executable, "-c", _TRAIN_IN_CHILD, affinity, str(cfg), str(out)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest())
    assert len(set(digests)) == 1, list(zip(runs, digests))


def test_train_config_validation():
    for lr in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=lr)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=10, max_epochs=5)


def test_history_csv_format(tmp_path):
    rows = [
        {"epoch": 0, "train_mae": 0.5, "val_mae": 0.4, "val_mse": 0.3, "seconds": 1.0}
    ]
    path = tmp_path / "history.csv"
    write_history_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mae,val_mae,val_mse,seconds"
    assert lines[1].startswith("0,0.5,0.4,0.3,")


# --- checkpoints -----------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = init_params(SMALL, seed=11)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, params)
    loaded = checkpoint_load(path, SMALL)
    for (na, a), (nb, b) in zip(params.tensors.items(), loaded.tensors.items()):
        assert na == nb
        assert_array_equal(a, b)
    # saving the loaded params byte-identical to the first file
    path2 = tmp_path / "ck2.bin"
    checkpoint_save(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "spatial, temporal", [("absolute", "absolute"), ("relative", "none"), ("none", "absolute")]
)
def test_an_lwckpt1_checkpoint_loads_to_the_bits_of_a_round_trip(tmp_path, spatial, temporal):
    """A file of the earlier format, as its writer wrote it (the reference
    writer in oracles), loads to the params a container round trip gives:
    the same config and vector bits, under the file's config and the
    caller's."""
    config = replace(RELATIVE, spatial_encoding=spatial, temporal_encoding=temporal)
    params = init_params(config, seed=21)
    lwckpt1_save(tmp_path / "old.bin", params)
    checkpoint_save(tmp_path / "new.bin", params)
    assert (tmp_path / "old.bin").read_bytes().startswith(LWCKPT1)
    for expected in (None, config):
        old = checkpoint_load(tmp_path / "old.bin", expected)
        new = checkpoint_load(tmp_path / "new.bin", expected)
        assert old.config == new.config == config
        assert old.vector.dtype == new.vector.dtype == np.float64
        assert old.vector.tobytes() == new.vector.tobytes() == params.vector.tobytes()


def write_by_hand(path, tensors: dict, dtype: str, extra=()):
    """An LWCKPT1 file of SMALL's `tensors` in their dict order, then the
    (name, array) pairs of `extra`, as `dtype`."""
    pairs = [*tensors.items(), *extra]
    manifest = {
        "config": asdict(SMALL),
        "tensors": [{"name": n, "shape": list(a.shape), "dtype": dtype} for n, a in pairs],
    }
    blob = json.dumps(manifest).encode("utf-8")
    little = {"float64": "<f8", "float32": "<f4"}[dtype]
    path.write_bytes(
        LWCKPT1
        + struct.pack("<I", len(blob))
        + blob
        + b"".join(a.astype(little).tobytes() for _, a in pairs)
    )


def test_checkpoint_with_permuted_manifest_loads_in_spec_order(tmp_path):
    params = init_params(SMALL, seed=15)
    canonical = tmp_path / "ck.bin"
    checkpoint_save(canonical, params)
    names = list(params.tensors)[::-1]
    permuted = tmp_path / "permuted.bin"
    write_by_hand(permuted, {n: params.tensors[n] for n in names}, "float64")
    loaded = checkpoint_load(permuted, SMALL)
    assert list(loaded.tensors) == [name for name, _, _ in tensor_spec(SMALL)]
    for name, arr in params.tensors.items():
        assert_array_equal(loaded.tensors[name], arr)
    resaved = tmp_path / "resaved.bin"
    checkpoint_save(resaved, loaded)
    assert resaved.read_bytes() == canonical.read_bytes()


SAVERS = (checkpoint_save, lwckpt1_save)  # the container, and the earlier LWCKPT1


def test_checkpoint_wrong_d_names_offending_tensor(tmp_path):
    params = init_params(SMALL, seed=12)
    path = tmp_path / "ck.bin"
    other = ModelConfig(d=16, n_layers=2, t_h=6, t_f=3, n_vars=1)
    for save in SAVERS:
        save(path, params)
        with pytest.raises(CheckpointError, match="fc_embed.weight"):
            checkpoint_load(path, other)


def test_checkpoint_truncated_rejected(tmp_path):
    params = init_params(SMALL, seed=13)
    path = tmp_path / "ck.bin"
    for save in SAVERS:
        save(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(CheckpointError, match="size|truncated"):
            checkpoint_load(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_load(path)


def write_edited(path, params, edit):
    """params saved as LWCKPT1 by the reference writer, then `edit` applied
    to the manifest."""
    lwckpt1_save(path, params)
    raw = path.read_bytes()
    body = len(LWCKPT1) + 4
    (mlen,) = struct.unpack("<I", raw[len(LWCKPT1) : body])
    manifest = json.loads(raw[body : body + mlen])
    edit(manifest)
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(LWCKPT1 + struct.pack("<I", len(blob)) + blob + raw[body + mlen :])


def write_with_config(path, params, **config):
    """params saved as LWCKPT1 with these keys of the manifest's config
    replaced."""
    write_edited(path, params, lambda manifest: manifest["config"].update(config))


def write_container_with_config(path, params, **config):
    """params saved by checkpoint_save with these keys of the config in its
    meta replaced, the manifest's CRC32 recomputed."""
    checkpoint_save(path, params)
    edit = lambda manifest: manifest["meta"]["config"].update(config)  # noqa: E731
    path.write_bytes(edit_container(path.read_bytes(), edit))


CONFIG_WRITERS = (write_with_config, write_container_with_config)


RELATIVE = ModelConfig(
    d=8, n_layers=2, t_h=6, t_f=3, n_vars=1, spatial_encoding="relative", n_stations=3
)


@pytest.mark.parametrize(
    "base, config",
    [
        (SMALL, dict(d="8")),
        (SMALL, dict(d=8.0)),
        (SMALL, dict(d=0)),
        (SMALL, dict(spatial_encoding="polar")),
        *((RELATIVE, dict(n_stations=n)) for n in ("3", 3.0, True, -3, [3])),
    ],
    ids=[
        "d-string",
        "d-float",
        "d-zero",
        "unknown-encoding",
        *(f"n_stations-{kind}" for kind in ("string", "float", "bool", "negative", "list")),
    ],
)
def test_checkpoint_with_malformed_config_is_checkpoint_error(tmp_path, base, config):
    path = tmp_path / "ck.bin"
    for write in CONFIG_WRITERS:
        write(path, init_params(base, seed=16), **config)
        with pytest.raises(CheckpointError, match="bad manifest"):
            checkpoint_load(path)
        with pytest.raises(CheckpointError, match="bad manifest"):
            checkpoint_load(path, base)


def test_checkpoint_loads_under_the_callers_config(tmp_path):
    # n_vars sizes no tensor, so a file whose config differs only there fits
    # the caller's model and runs under the caller's config
    path = tmp_path / "ck.bin"
    params = init_params(SMALL, seed=20)
    for write in CONFIG_WRITERS:
        write(path, params, n_vars=4)
        assert checkpoint_load(path).config.n_vars == 4
        loaded = checkpoint_load(path, SMALL)
        assert loaded.config == SMALL
        for name, arr in params.tensors.items():
            assert_array_equal(loaded.tensors[name], arr)


@pytest.mark.parametrize(
    "dtype, value",
    [
        *(("float64", v) for v in (np.nan, np.inf, -np.inf, 1e300, -3.5e38)),
        *(("float32", v) for v in (np.nan, np.inf, -np.inf)),
    ],
)
def test_checkpoint_value_outside_float32_range_is_checkpoint_error(tmp_path, dtype, value):
    """In LWCKPT1 files of either element type and, for float64, in the
    container checkpoint_save writes."""
    params = init_params(SMALL, seed=17)
    path = tmp_path / "ck.bin"
    writers = [lambda: write_by_hand(path, params.tensors, dtype)]
    if dtype == "float64":
        writers.append(lambda: checkpoint_save(path, params))
    for write in writers:
        params.tensors["fc_regress.bias"][1] = value
        write()
        with pytest.raises(CheckpointError, match="tensor fc_regress.bias is not finite in float32"):
            checkpoint_load(path, SMALL)
        # the largest float32 still loads
        params.tensors["fc_regress.bias"][1] = np.finfo(np.float32).max
        write()
        assert checkpoint_load(path, SMALL).tensors["fc_regress.bias"][1] == np.finfo(np.float32).max


def test_checkpoint_shape_written_as_floats_loads_with_the_spec_shape(tmp_path):
    # [8.0, 6.0] equals (8, 6), so the entry is consistent; the spec's
    # integer shape sizes the array
    params = init_params(SMALL, seed=19)
    path = tmp_path / "ck.bin"

    def float_shape(manifest):
        entry = manifest["tensors"][0]
        entry["shape"] = [float(n) for n in entry["shape"]]

    write_edited(path, params, float_shape)
    loaded = checkpoint_load(path, SMALL)
    for name, arr in params.tensors.items():
        assert_array_equal(loaded.tensors[name], arr)


def test_checkpoint_float32_storage(tmp_path):
    # checkpoint_save writes float64 only; a float32 file is built by hand
    params = init_params(SMALL, seed=14)
    path = tmp_path / "ck32.bin"
    write_by_hand(path, params.tensors, "float32")
    loaded = checkpoint_load(path, SMALL)
    for a, b in zip(params.tensors.values(), loaded.tensors.values()):
        assert b.dtype == np.float64
        assert_array_equal(b, a.astype(np.float32).astype(np.float64))
    path2 = tmp_path / "ck32b.bin"
    write_by_hand(path2, loaded.tensors, "float32")
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_checkpoint_listing_a_tensor_twice_is_checkpoint_error(tmp_path, dtype):
    """A second fc_embed.weight entry with its own bytes appended. In
    float32 the data section then still fits the parameter count and the
    manifest's total, so only the repeat rejects the file; in float64 the
    data bound would, but the message names the repeat in both."""
    params = init_params(SMALL, seed=14)
    path = tmp_path / "twice.bin"
    second = ("fc_embed.weight", params.tensors["fc_embed.weight"] + 1.0)
    write_by_hand(path, params.tensors, dtype, extra=[second])
    with pytest.raises(CheckpointError, match="bad manifest: tensor fc_embed.weight is listed twice"):
        checkpoint_load(path, SMALL)
