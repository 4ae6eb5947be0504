"""The historical-inertia baseline and the positional-encoding ablation
harness: spatial encoding absolute / relative (station-index table) / none,
temporal encoding absolute / none.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import ObservationSet, split_windows
from .errors import ConfigError, LightWeatherError
from .model import ModelConfig, chunk_slices, init_params, normalize_coords
from .training import Metrics, MetricAccumulator, TrainConfig, evaluate, fit

# Ablation rows in reporting order: each tuple is (spatial, temporal).
ABLATION_GRID = [
    ("none", "absolute"),
    ("absolute", "none"),
    ("relative", "absolute"),
    ("absolute", "absolute"),
]


def hi_forecast(history: np.ndarray, t_f: int) -> np.ndarray:
    """Copy the most recent t_f steps forward as the forecast.

    Accepts [T_h, N, C] or a batch [B, T_h, N, C]; time is axis -3.
    """
    history = np.asarray(history, dtype=np.float64)
    t_h = history.shape[-3]
    if t_f > t_h:
        raise ConfigError(f"hi_forecast needs T_f <= T_h, got {t_f} > {t_h}")
    return history[..., t_h - t_f :, :, :].copy()


def evaluate_hi(windows, batch_size: int = 32) -> Metrics:
    """Pooled HI metrics over a window set, in original data units.

    Each chunk (chunk_slices, as evaluate takes them; batch_size < 1 is a
    ConfigError) gathers from raw_values only the steps HI reads: the last
    T_f history steps, then the T_f future steps. Its sums are pooled in
    chunk order, as evaluate pools them.
    """
    if len(windows) == 0:
        raise ConfigError("empty split: no windows for the HI baseline")
    chunks = chunk_slices(len(windows), batch_size, windows.n_stations * windows.n_vars)
    n_hist = min(windows.t_f, windows.t_h)  # fewer than T_f: hi_forecast raises
    steps = np.arange(windows.t_h - n_hist, windows.t_h + windows.t_f)
    acc = MetricAccumulator()
    for ids in chunks:
        raw = windows.raw_values[windows.starts[ids][:, None] + steps]
        acc.add(hi_forecast(raw[:, :n_hist], windows.t_f), raw[:, n_hist:])
    return acc.result()


def run_ablation_suite(
    obs: ObservationSet,
    config: ModelConfig,
    train_config: TrainConfig,
    seeds: list[int],
    normalize: bool = True,
) -> list[dict]:
    """Train every encoding variant for every seed; report test metrics.

    Returns one row per (spatial, temporal, seed) with test MSE/MAE in
    original units. This package's errors are re-raised naming the variant;
    any other exception propagates unchanged.
    """
    if len(seeds) < 3:
        raise ConfigError(f"ablation needs >= 3 seeds, got {len(seeds)}")
    if min(seeds) < 0:
        raise ConfigError(f"ablation seeds must be >= 0, got {min(seeds)}")
    base = replace(config, n_stations=obs.n_stations, n_vars=obs.n_vars)
    prepared = split_windows(obs, base.t_h, base.t_f, normalize=normalize)
    coords_norm = normalize_coords(obs.coords)
    rows = []
    for spatial, temporal in ABLATION_GRID:
        variant = replace(base, spatial_encoding=spatial, temporal_encoding=temporal)
        for seed in seeds:
            try:
                result = fit(
                    init_params(variant, seed),
                    prepared.train,
                    prepared.val,
                    coords_norm,
                    replace(train_config, seed=seed),
                    prepared.normalizer,
                )
                metrics = evaluate(
                    result.params,
                    prepared.test,
                    coords_norm,
                    prepared.normalizer,
                    train_config.batch_size,
                )
            except LightWeatherError as exc:  # each takes one message
                raise type(exc)(
                    f"[spatial={spatial}, temporal={temporal}, seed={seed}] {exc}"
                ) from exc
            rows.append(
                {
                    "spatial": spatial,
                    "temporal": temporal,
                    "seed": seed,
                    "mse": metrics.mse,
                    "mae": metrics.mae,
                }
            )
    return rows


def summarize_ablation(rows: list[dict]) -> list[dict]:
    """Mean MSE/MAE per variant, in ABLATION_GRID order."""
    out = []
    for spatial, temporal in ABLATION_GRID:
        sub = [r for r in rows if r["spatial"] == spatial and r["temporal"] == temporal]
        if not sub:
            continue
        out.append(
            {
                "spatial": spatial,
                "temporal": temporal,
                "mse": float(np.mean([r["mse"] for r in sub])),
                "mae": float(np.mean([r["mae"] for r in sub])),
                "n_seeds": len(sub),
            }
        )
    return out
