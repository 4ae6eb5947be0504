"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6 and 10 (and the
Table-style magnitude stretch goal of criterion 5) depend on real datasets;
point LIGHTWEATHER_GLOBALWIND_DIR / LIGHTWEATHER_WINDUS_DIR at directories
containing stations.csv and observations.csv to enable them, otherwise the
documented stand-ins run instead.
"""

import csv
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from lightweather import cli, model
from lightweather.baselines import (
    evaluate_hi,
    hi_forecast,
    run_ablation_suite,
    summarize_ablation,
)
from lightweather.data import (
    load_observations_csv,
    load_stations_csv,
    split_windows,
)
from lightweather.model import (
    ModelConfig,
    StationCoord,
    closed_form_count,
    forward_batch,
    init_params,
    loss_and_grads,
    normalize_coords,
    parameter_count,
    Workers,
    Workspace,
)
from lightweather.synthetic import SynthConfig, generate, random_station_coords
from lightweather.training import TrainConfig, evaluate, fit
from oracles import RowBatch, finite_diff_check


def check(num, name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance {num}] {name}: {status}  {detail}")
    assert condition, f"criterion {num} ({name}): {detail}"


def env_dataset(var):
    root = os.environ.get(var)
    if not root:
        return None
    ids, coords = load_stations_csv(Path(root) / "stations.csv")
    return load_observations_csv(Path(root) / "observations.csv", ids, coords)


# --- 1. gradient fidelity ----------------------------------------------------


def test_criterion_1_gradient_fidelity():
    cfg = ModelConfig(d=8, n_layers=2, t_h=6, t_f=3, n_vars=1)
    # frozen fixture: batch seed verified free of exact-cancellation zeros in
    # the analytic gradient, which central differences misreport as error
    params = init_params(cfg, seed=22)
    rng = np.random.default_rng(122)
    hist = rng.normal(size=(2, cfg.t_h, 2, cfg.n_vars))
    fut = rng.normal(size=(2, cfg.t_f, 2, cfg.n_vars))
    cn = normalize_coords([StationCoord(42.0, 15.0, 100.0), StationCoord(-30.0, 50.0, 5.0)])
    hours = rng.integers(0, 24, size=2)
    days = rng.integers(0, 31, size=2)
    months = rng.integers(0, 12, size=2)

    # the same draws laid out as (window, station, variable) rows
    x_rows = hist.transpose(0, 2, 3, 1).reshape(-1, cfg.t_h)
    fut_rows = fut.transpose(0, 2, 3, 1).reshape(-1, cfg.t_f)

    def lg(_):
        one = Workers([Workspace(cfg, len(x_rows), params.dtype)])
        calendar = np.stack([hours, days, months], axis=1)
        return loss_and_grads(params, RowBatch(x_rows, fut_rows, calendar), cn, one)

    t0 = time.perf_counter()
    err = finite_diff_check(lg, params.tensors, 1e-6)
    elapsed = time.perf_counter() - t0
    check(
        1,
        "gradient fidelity",
        err < 1e-4 and elapsed < 10.0,
        f"max rel err {err:.3e} (< 1e-4), {elapsed:.1f}s (< 10s)",
    )


# --- 2. parameter count ------------------------------------------------------


def test_criterion_2_parameter_count():
    base = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24)
    enumerated = parameter_count(base)
    formula = closed_form_count(base)
    d32 = parameter_count(ModelConfig(d=32, n_layers=2, t_h=48, t_f=24))
    ok = (
        enumerated == 25_880
        and formula == 25_870
        and abs(enumerated - formula) == 10
        and d32 == 8_856  # the criterion's own addends sum here, not to 9,756
        and d32 < 10_000
    )
    check(
        2,
        "parameter count",
        ok,
        f"enumerated {enumerated}, closed-form {formula}, d=32 {d32} < 10k",
    )


# --- 3. channel independence -------------------------------------------------


def test_criterion_3_channel_independence():
    cfg = ModelConfig(d=16, n_layers=2, t_h=8, t_f=4, n_vars=2)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    n = 7
    coords = [
        StationCoord(
            float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)), float(rng.uniform(0, 2000))
        )
        for _ in range(n)
    ]
    cn = normalize_coords(coords)
    hist = rng.normal(size=(3, cfg.t_h, n, cfg.n_vars))
    hours, days, months = np.array([1, 2, 3]), np.array([4, 5, 6]), np.array([7, 8, 9])
    base, _ = forward_batch(hist, cn, hours, days, months, params)

    perturb_ok = perm_ok = 0
    for _ in range(100):
        k = int(rng.integers(0, n))
        bumped = hist.copy()
        bumped[:, :, k, :] += rng.normal(size=(3, cfg.t_h, cfg.n_vars))
        out, _ = forward_batch(bumped, cn, hours, days, months, params)
        others = [i for i in range(n) if i != k]
        if np.array_equal(out[:, :, others, :], base[:, :, others, :]) and not np.array_equal(
            out[:, :, k, :], base[:, :, k, :]
        ):
            perturb_ok += 1
        perm = rng.permutation(n)
        out, _ = forward_batch(hist[:, :, perm, :], cn[perm], hours, days, months, params)
        if np.array_equal(out, base[:, :, perm, :]):
            perm_ok += 1
    check(
        3,
        "channel independence",
        perturb_ok == 100 and perm_ok == 100,
        f"perturbation {perturb_ok}/100 exact, permutation {perm_ok}/100 exact",
    )


# --- 4. synthetic recovery ---------------------------------------------------


def test_criterion_4_synthetic_recovery():
    t0 = time.perf_counter()
    sc = SynthConfig(n_stations=50, n_steps=20_000, alpha=(), noise_std=0.0, seed=0)
    _, coords = random_station_coords(50, 0)
    obs = generate(sc, coords)
    mc = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24, n_vars=1)
    prepared = split_windows(obs, mc.t_h, mc.t_f)
    cn = normalize_coords(obs.coords)
    result = fit(
        init_params(mc, seed=0),
        prepared.train,
        prepared.val,
        cn,
        TrainConfig(lr=5e-4, batch_size=32, max_epochs=3, patience=3, seed=0),
        prepared.normalizer,
    )
    metrics = evaluate(result.params, prepared.test, cn, prepared.normalizer)
    test_span = range(12_280 + 1_754, 20_000)
    variance = float(np.var(obs.values[test_span.start : test_span.stop]))
    elapsed = time.perf_counter() - t0
    check(
        4,
        "synthetic recovery",
        metrics.mse < 0.01 * variance and elapsed < 300.0,
        f"test MSE {metrics.mse:.2e} vs 1% of variance {0.01 * variance:.2e}, "
        f"{elapsed:.0f}s (< 300s)",
    )


# --- 5. ablation ordering ----------------------------------------------------

# Daily-interval data where both encodings are load-bearing: the calendar
# carries the annual phase across the 24-step horizon, which a 4-step
# history window cannot reveal, and coordinates carry the per-station
# level. At a daily interval the diurnal and elevation terms are constant
# per station, so a per-station table can fit that level too; the full
# model beats the relative one only for the paper's reason. Coordinates
# share knowledge across stations: stations sit on a regional patch, so
# the level is near-affine in normalized coordinates, and the shared 3->d
# layer learns it from every station's windows at once. A relative table
# row learns only from its own station's noisy windows. So the spatial
# term is large (amp_elev 3: up to 9 units over the 3000 m range) and so
# is the noise (std 8), where one station's windows estimate its level
# measurably worse than all stations' do; the ordering holds on held-out
# seeds (3, 4, 5) as well as the asserted ones. At noise std 4 and
# amp_elev 0.5, full and relative differ by 0.001 in the seed mean, inside
# the ~0.003 that one rounding change moves a seed's MSE.
ABLATION_SETUP = dict(
    n_stations=300,
    n_steps=800,
    noise_std=8.0,
    amps=(6.0, 7.0, 3.0),
    lat=(30.0, 50.0),
    lon=(10.0, 40.0),
    elev=(0.0, 3000.0),
    t_h=4,
    t_f=24,
    d=16,
    lr=1e-2,
    epochs=12,
)


def _ablation_dataset(setup):
    rng = np.random.default_rng([7, 13])
    coords = [
        StationCoord(
            float(rng.uniform(*setup["lat"])),
            float(rng.uniform(*setup["lon"])),
            float(rng.uniform(*setup["elev"])),
        )
        for _ in range(setup["n_stations"])
    ]
    sc = SynthConfig(
        n_stations=setup["n_stations"],
        n_steps=setup["n_steps"],
        interval_hours=24,
        alpha=(),
        amp_diurnal=setup["amps"][0],
        amp_annual=setup["amps"][1],
        amp_elev=setup["amps"][2],
        noise_std=setup["noise_std"],
        seed=42,
    )
    return generate(sc, coords)


def test_criterion_5_ablation_ordering():
    setup = ABLATION_SETUP
    obs = _ablation_dataset(setup)
    mc = ModelConfig(d=setup["d"], n_layers=2, t_h=setup["t_h"], t_f=setup["t_f"], n_vars=1)
    tc = TrainConfig(
        lr=setup["lr"], batch_size=32, max_epochs=setup["epochs"], patience=setup["epochs"]
    )
    rows = run_ablation_suite(obs, mc, tc, seeds=[0, 1, 2])
    mse = {
        (s["spatial"], s["temporal"]): s["mse"] for s in summarize_ablation(rows)
    }
    full = mse[("absolute", "absolute")]
    no_spatial = mse[("none", "absolute")]
    no_temporal = mse[("absolute", "none")]
    relative = mse[("relative", "absolute")]
    by_seed = {(r["spatial"], r["temporal"], r["seed"]): r["mse"] for r in rows}
    # each seed's variant-minus-full MSE margin: the ordering holds on the
    # mean; these show whether it holds seed by seed
    margins = "; ".join(
        f"seed {seed}: "
        + ", ".join(
            f"{name} {by_seed[(*variant, seed)] - by_seed[('absolute', 'absolute', seed)]:+.3f}"
            for name, variant in (
                ("relative", ("relative", "absolute")),
                ("no-spatial", ("none", "absolute")),
                ("no-temporal", ("absolute", "none")),
            )
        )
        for seed in (0, 1, 2)
    )
    check(
        5,
        "ablation ordering",
        full < no_spatial and full < no_temporal and full < relative,
        f"full {full:.3f} vs no-spatial {no_spatial:.3f}, "
        f"no-temporal {no_temporal:.3f}, relative {relative:.3f}; "
        f"per-seed margins (variant - full) {margins}",
    )


@pytest.mark.skipif(
    not (os.environ.get("LIGHTWEATHER_GLOBALWIND_DIR") and os.environ.get("LIGHTWEATHER_RUN_TABLE3_STRETCH")),
    reason="stretch goal: needs GlobalWind data and LIGHTWEATHER_RUN_TABLE3_STRETCH=1 (multi-day CPU run)",
)
def test_criterion_5_stretch_table_magnitudes():
    obs = env_dataset("LIGHTWEATHER_GLOBALWIND_DIR")
    mc = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24, n_vars=obs.n_vars)
    tc = TrainConfig(lr=5e-4, batch_size=32, max_epochs=100, patience=5)
    rows = run_ablation_suite(obs, mc, tc, seeds=[0, 1, 2])
    mse = {(s["spatial"], s["temporal"]): s["mse"] for s in summarize_ablation(rows)}
    targets = {
        ("absolute", "absolute"): 3.734,
        ("none", "absolute"): 3.849,
        ("absolute", "none"): 3.852,
        ("relative", "absolute"): 3.844,
    }
    ok = all(abs(mse[k] - v) <= 0.03 * v for k, v in targets.items())
    check(5, "ablation magnitudes (stretch)", ok, f"{mse}")


# --- 6. HI baseline ----------------------------------------------------------


def test_criterion_6_hi_baseline():
    obs = env_dataset("LIGHTWEATHER_GLOBALWIND_DIR")
    if obs is not None:
        prepared = split_windows(obs, 48, 24, normalize=False)
        metrics = evaluate_hi(prepared.test)
        ok = abs(metrics.mse - 7.285) <= 0.01 * 7.285 and abs(metrics.mae - 1.831) <= 0.01 * 1.831
        check(6, "HI reproduction", ok, f"MSE {metrics.mse:.3f} (7.285 +-1%), MAE {metrics.mae:.3f} (1.831 +-1%)")
        return
    # stand-ins without the dataset: inertia is exact on a constant series,
    # and the forecast is the most recent T_f-slice copied forward
    sc = SynthConfig(n_stations=3, n_steps=800, alpha=(), noise_std=0.5, seed=1)
    _, coords = random_station_coords(3, 1)
    obs = generate(sc, coords)
    const = generate(sc, coords)
    const.values[:] = 4.25
    prepared = split_windows(const, 48, 24, normalize=False)
    const_metrics = evaluate_hi(prepared.test)
    history = obs.values[100 : 100 + 48]
    slice_ok = np.array_equal(hi_forecast(history, 24), history[24:])
    check(
        6,
        "HI baseline stand-ins (no dataset)",
        const_metrics.mse == 0.0 and const_metrics.mae == 0.0 and slice_ok,
        f"constant-series MSE {const_metrics.mse}, slice-copy {'exact' if slice_ok else 'broken'}",
    )


# --- 7. determinism ----------------------------------------------------------


def _strip_seconds(history_path):
    with open(history_path, newline="") as fh:
        return ["\t".join(row[:-1]) for row in csv.reader(fh)]


def test_criterion_7_determinism(tmp_path):
    _check_determinism(tmp_path)


def test_criterion_7_determinism_across_chunks(tmp_path, monkeypatch):
    # 3 stations x 1 variable: chunks of 2 windows, so each 16-window batch,
    # in training and in evaluate, runs in 8 chunks on the workers
    monkeypatch.setattr(model, "CHUNK_ROWS", 6)
    assert model.chunk_windows(3) == 2
    _check_determinism(tmp_path)


def _check_determinism(tmp_path):
    data_dir = tmp_path / "data"
    cfg_text = textwrap.dedent(
        f"""\
        d = 8
        layers = 2
        t_h = 6
        t_f = 3
        batch_size = 16
        max_epochs = 3
        patience = 3
        seed = 0
        synth_stations = 3
        synth_steps = 400
        synth_noise_std = 0.5
        stations_csv = {data_dir}/stations.csv
        observations_csv = {data_dir}/observations.csv
        """
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data_dir)]) == 0

    blobs, histories = [], []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "checkpoint.bin").read_bytes())
        histories.append(_strip_seconds(out / "history.csv"))
    same_ckpt = blobs[0] == blobs[1]
    same_hist = histories[0] == histories[1]
    check(
        7,
        "determinism",
        same_ckpt and same_hist,
        f"checkpoints byte-identical: {same_ckpt}; histories identical "
        f"(wall-clock seconds column excluded): {same_hist}",
    )


# --- 8. overfit sanity -------------------------------------------------------


def test_criterion_8_overfit_sanity():
    t0 = time.perf_counter()
    sc = SynthConfig(n_stations=1, n_steps=200, alpha=(), noise_std=0.0, seed=0)
    _, coords = random_station_coords(1, 0)
    obs = generate(sc, coords)
    mc = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24, n_vars=1)
    # overfit oracle: the 200-step series is too short to carve out a
    # validation split, so train windows double as the validation set
    from lightweather.data import WindowSet, normalize_fit

    norm = normalize_fit(obs.values)
    windows = WindowSet(obs.values, norm, obs.time_axis.wall, range(0, 200), 48, 24)
    cn = normalize_coords(obs.coords)
    # batch 8: the 129-window series needs more optimizer steps per epoch
    # than batch 32 provides to cross the 1e-2 line inside 200 epochs
    result = fit(
        init_params(mc, seed=0),
        windows,
        windows,
        cn,
        TrainConfig(lr=5e-4, batch_size=8, max_epochs=200, patience=200, seed=0),
        norm,
    )
    final_train_mae = result.history[-1]["train_mae"]
    best_train_mae = min(h["train_mae"] for h in result.history)
    elapsed = time.perf_counter() - t0
    check(
        8,
        "overfit sanity",
        best_train_mae < 1e-2 and elapsed < 60.0,
        f"train MAE reached {best_train_mae:.2e} (< 1e-2), final {final_train_mae:.2e}, "
        f"{elapsed:.0f}s (< 60s)",
    )


# --- 9. efficiency envelope --------------------------------------------------


def test_criterion_9_efficiency_envelope():
    child = textwrap.dedent(
        """
        import resource, time
        import numpy as np
        from lightweather.data import split_windows
        from lightweather.model import ModelConfig, init_params, normalize_coords
        from lightweather.synthetic import SynthConfig, generate, random_station_coords
        from lightweather.training import TrainConfig, fit

        sc = SynthConfig(n_stations=3850, n_steps=1000, alpha=(), noise_std=0.5, seed=0)
        _, coords = random_station_coords(3850, 0)
        obs = generate(sc, coords)
        mc = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24, n_vars=1)
        prepared = split_windows(obs, mc.t_h, mc.t_f)
        params = init_params(mc, seed=0)
        t0 = time.perf_counter()
        fit(params, prepared.train, prepared.val, normalize_coords(obs.coords),
            TrainConfig(lr=5e-4, batch_size=32, max_epochs=1, patience=1, seed=0),
            prepared.normalizer)
        print(f"EPOCH_SECONDS {time.perf_counter() - t0:.2f}")
        print(f"PEAK_MB {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=540
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    fields = dict(line.split() for line in proc.stdout.strip().splitlines())
    seconds = float(fields["EPOCH_SECONDS"])
    peak_mb = float(fields["PEAK_MB"])
    check(
        9,
        "efficiency envelope",
        seconds < 300.0 and peak_mb < 2048.0,
        f"epoch {seconds:.0f}s (< 300s), peak memory {peak_mb:.0f} MB (< 2048 MB)",
    )


# --- 10. desk-scale reproduction (optional) -----------------------------------


@pytest.mark.skipif(
    not os.environ.get("LIGHTWEATHER_WINDUS_DIR"),
    reason="optional: set LIGHTWEATHER_WINDUS_DIR to run the Wind_US reproduction",
)
def test_criterion_10_wind_us_reproduction():
    obs = env_dataset("LIGHTWEATHER_WINDUS_DIR")
    mc = ModelConfig(d=64, n_layers=2, t_h=48, t_f=24, n_vars=obs.n_vars)
    prepared = split_windows(obs, mc.t_h, mc.t_f)
    cn = normalize_coords(obs.coords)
    result = fit(
        init_params(mc, seed=0),
        prepared.train,
        prepared.val,
        cn,
        TrainConfig(lr=5e-4, batch_size=32, max_epochs=100, patience=5, seed=0),
        prepared.normalizer,
    )
    metrics = evaluate(result.params, prepared.test, cn, prepared.normalizer)
    check(10, "Wind_US reproduction", metrics.mse <= 3.35, f"test MSE {metrics.mse:.3f} (<= 3.35)")
