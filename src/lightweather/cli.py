"""Command-line pipeline.

Commands are listed in COMMANDS. Configuration is a flat key=value text
file (# comments and blank lines allowed; unknown keys rejected); --seed and
--out override the file. Exit codes: 0 success, 1 usage/config, 2 ingestion,
3 training, 4 evaluation. Errors print one line to stderr: "<category>:
<detail>"; each error class in errors.py carries its own code and category.
Every output is written through files.write_atomically, so one that cannot
be written is the config error "cannot write <path>: <reason>"; a command
with several outputs writes them together (files.written_together), so
such an error leaves each with its earlier bytes. Each
command checks the config values it reads before it reads the dataset.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from .baselines import (
    check_ablation_seeds,
    evaluate_hi,
    run_ablation_suite,
    summarize_ablation,
)
from .checkpoint import checkpoint_load, checkpoint_save
from .data import (
    TimeAxis,
    load_observations_csv,
    load_stations_csv,
    normalize_apply,
    normalize_invert,
    split_windows,
    write_observations_csv,
    write_stations_csv,
)
from .errors import (
    CheckpointError,
    ConfigError,
    EvaluationError,
    IngestionError,
    LightWeatherError,
    ValidationError,
)
from .files import write_atomically, write_csv, written_together
from .model import (
    COMPUTE_DTYPE,
    ModelConfig,
    TimeFeature,
    check_batch_size,
    closed_form_count,
    forward,
    init_params,
    normalize_coords,
    parameter_count,
)
from .synthetic import SynthConfig, generate, random_station_coords
from .training import TrainConfig, evaluate, fit, write_history_csv


@dataclass
class RunConfig:
    """Flat key=value run configuration; single source of truth for a run."""

    # model dimensions and encoding variant
    d: int = 64
    layers: int = 2
    t_h: int = 48
    t_f: int = 24
    spatial: str = "absolute"
    temporal: str = "absolute"
    # training
    lr: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0
    normalize: bool = True
    # paths
    stations_csv: str = ""
    observations_csv: str = ""
    out_dir: str = "out"
    checkpoint: str = ""
    # synthetic generation
    synth_stations: int = 50
    synth_steps: int = 20000
    synth_interval_hours: int = 1
    synth_start: str = "2019-01-01T00:00:00"
    synth_alpha: str = ""
    synth_amp_diurnal: float = 3.0
    synth_amp_annual: float = 2.0
    synth_amp_elev: float = 1.0
    synth_noise_std: float = 0.0
    # ablation / sweep
    ablate_seeds: str = "0,1,2"
    sweep_d: str = "64"
    sweep_layers: str = "1,2,3,4"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_run_config(path) -> RunConfig:
    """Read a key=value file; every key must be a RunConfig field."""
    spec = {f.name: f.type for f in fields(RunConfig)}
    casters = {"int": int, "float": float, "str": str, "bool": _parse_bool}
    cfg = RunConfig()
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in spec:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, casters[spec[key]](value))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    return cfg


def _list(raw: str, what: str, kind: type) -> list:
    """Comma-separated values of type `kind`; blank items are skipped."""
    try:
        return [kind(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _model_config(cfg: RunConfig, n_vars: int, n_stations: int | None) -> ModelConfig:
    return ModelConfig(
        d=cfg.d,
        n_layers=cfg.layers,
        t_h=cfg.t_h,
        t_f=cfg.t_f,
        n_vars=n_vars,
        spatial_encoding=cfg.spatial,
        temporal_encoding=cfg.temporal,
        n_stations=n_stations,
    )


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        lr=cfg.lr,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        seed=cfg.seed,
    )


def _input_file(label: str, path: str) -> str:
    if not path:
        raise ConfigError(f"{label} not set in config")
    if not os.path.isfile(path):  # False, not OSError, for a name too long
        raise IngestionError(f"{label} file not found: {path}")
    return path


def _load_dataset(cfg: RunConfig):
    stations = _input_file("stations_csv", cfg.stations_csv)
    observations = _input_file("observations_csv", cfg.observations_csv)
    ids, coords = load_stations_csv(stations)
    return load_observations_csv(observations, ids, coords)


def _load_for_model(cfg: RunConfig):
    """The dataset and its model config. The config's own model values (d,
    layers, t_h, t_f and the encodings) are checked before the dataset is
    read, so that a bad one is reported without reading the files; n_vars
    and n_stations come from the data."""
    checked = _model_config(cfg, 1, 1)
    obs = _load_dataset(cfg)
    return obs, replace(checked, n_vars=obs.n_vars, n_stations=obs.n_stations)


def prepare(cfg: RunConfig):
    """Load the dataset and derive what every model command starts from:
    (observations, model config, chronological splits, normalized coords)."""
    obs, model_cfg = _load_for_model(cfg)
    prepared = split_windows(obs, model_cfg.t_h, model_cfg.t_f, cfg.normalize)
    return obs, model_cfg, prepared, normalize_coords(obs.coords)


def _checkpoint_path(cfg: RunConfig, flag: str | None) -> Path:
    """The checkpoint that evaluate and forecast read, found after the
    config's own model values are checked and before the dataset is read,
    so that a missing one costs no ingestion."""
    _model_config(cfg, 1, 1)
    path = Path(flag or cfg.checkpoint or Path(cfg.out_dir) / "checkpoint.bin")
    if not os.path.isfile(path):
        raise CheckpointError(f"checkpoint not found: {path}")
    return path


def _out_dir(cfg: RunConfig) -> Path:
    """out_dir, checked before any data is read, generated or fitted: its
    nearest existing ancestor, or itself, must be a directory. The writer
    of a command's first output (files.write_atomically) creates it, so a
    command that fails before then leaves no directory behind."""
    out = Path(cfg.out_dir)
    try:
        existing = next(p for p in (out, *out.parents) if p.exists())
    except OSError as exc:  # e.g. a name too long for the file system
        raise ConfigError(f"cannot create out_dir {out}: {exc.strerror}") from exc
    if not existing.is_dir():
        raise ConfigError(f"cannot create out_dir {out}: {existing} is not a directory")
    return out


def cmd_ingest_check(cfg: RunConfig) -> int:
    obs = _load_dataset(cfg)
    print(f"stations: {obs.n_stations}")
    print(f"steps: {obs.n_steps}")
    print(f"variables: {','.join(obs.var_names)}")
    print(f"interval: {obs.interval}")
    print(f"span: {obs.timestamps[0].isoformat()} .. {obs.timestamps[-1].isoformat()}")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    try:
        start = datetime.fromisoformat(cfg.synth_start)
    except ValueError as exc:
        raise ConfigError(f"bad synth_start: {exc}") from exc
    sc = SynthConfig(
        n_stations=cfg.synth_stations,
        n_steps=cfg.synth_steps,
        interval_hours=cfg.synth_interval_hours,
        alpha=tuple(_list(cfg.synth_alpha, "synth_alpha", float)),
        amp_diurnal=cfg.synth_amp_diurnal,
        amp_annual=cfg.synth_amp_annual,
        amp_elev=cfg.synth_amp_elev,
        noise_std=cfg.synth_noise_std,
        seed=cfg.seed,
        start=start,
    )
    windows = ModelConfig(t_h=cfg.t_h, t_f=cfg.t_f)  # checked as a model checks them
    sc.validate(windows.t_h, windows.t_f)
    ids, coords = random_station_coords(sc.n_stations, sc.seed)
    obs = generate(sc, coords)
    with written_together():
        write_stations_csv(out / "stations.csv", ids, coords)
        write_observations_csv(out / "observations.csv", obs)
        with write_atomically(out / "synth_meta.txt", text=True) as fh:
            fh.write(f"seed = {sc.seed}\n")
            fh.write(f"n_stations = {sc.n_stations}\n")
            fh.write(f"n_steps = {sc.n_steps}\n")
            fh.write(f"interval_hours = {sc.interval_hours}\n")
            fh.write(f"start = {sc.start.isoformat()}\n")
            fh.write(f"alpha = {','.join(repr(a) for a in sc.alpha)}\n")
            fh.write(f"amp_diurnal = {sc.amp_diurnal!r}\n")
            fh.write(f"amp_annual = {sc.amp_annual!r}\n")
            fh.write(f"amp_elev = {sc.amp_elev!r}\n")
            fh.write(f"noise_std = {sc.noise_std!r}\n")
    print(f"wrote {out / 'stations.csv'}")
    print(f"wrote {out / 'observations.csv'}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    train_cfg = _train_config(cfg)
    _, model_cfg, prepared, coords_norm = prepare(cfg)
    params = init_params(model_cfg, cfg.seed)
    result = fit(
        params, prepared.train, prepared.val, coords_norm, train_cfg, prepared.normalizer
    )
    with written_together():
        write_history_csv(out / "history.csv", result.history)
        checkpoint_save(out / "checkpoint.bin", result.params)
    print(f"best_epoch: {result.best_epoch}")
    print(f"best_val_mae: {result.best_val_mae:.6f}")
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    print(f"history: {out / 'history.csv'}")
    return 0


def cmd_evaluate(cfg: RunConfig, checkpoint_flag: str | None) -> int:
    out = _out_dir(cfg)
    check_batch_size(cfg.batch_size)
    checkpoint = _checkpoint_path(cfg, checkpoint_flag)
    _, model_cfg, prepared, coords_norm = prepare(cfg)
    params = checkpoint_load(checkpoint, model_cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        model_metrics = evaluate(
            params, prepared.test, coords_norm, prepared.normalizer, cfg.batch_size
        )
    if not np.isfinite([model_metrics.mse, model_metrics.mae]).all():
        raise EvaluationError(f"non-finite metrics from the checkpoint: {model_metrics}")
    hi_metrics = evaluate_hi(prepared.test, cfg.batch_size)
    both = (("lightweather", model_metrics), ("hi", hi_metrics))
    rows = [[name, repr(m.mse), repr(m.mae), m.n_points] for name, m in both]
    write_csv(out / "metrics.csv", [["model", "mse", "mae", "n_points"], *rows])
    print(f"lightweather: mse={model_metrics.mse:.6f} mae={model_metrics.mae:.6f}")
    print(f"hi: mse={hi_metrics.mse:.6f} mae={hi_metrics.mae:.6f}")
    print(f"metrics: {out / 'metrics.csv'}")
    return 0


def cmd_forecast(cfg: RunConfig, checkpoint_flag: str | None, timestamp: str) -> int:
    out = _out_dir(cfg)
    try:
        when = datetime.fromisoformat(timestamp)
    except ValueError as exc:
        raise ConfigError(f"bad timestamp: {exc}") from exc
    checkpoint = _checkpoint_path(cfg, checkpoint_flag)
    obs, model_cfg, prepared, _ = prepare(cfg)
    params = checkpoint_load(checkpoint, model_cfg)
    aware = obs.time_axis.offsets is not None  # all of them or none (data.py)
    if (when.tzinfo is not None) != aware:  # a naive and an aware one never compare equal
        raise ValidationError(
            f"timestamp {timestamp} {'has no' if aware else 'has a'} UTC offset, but the "
            f"observations' timestamps {'carry one' if aware else 'carry none'}"
        )
    # the step at `when`'s instant (aware) or wall-clock time (naive), as
    # datetimes compare, found on the sorted integer axis
    keys, key = obs.time_axis.keys, TimeAxis.of([when]).keys[0]
    idx = int(np.searchsorted(keys, key))
    if idx == len(keys) or keys[idx] != key or idx < model_cfg.t_h:
        raise ValidationError(
            f"timestamp {timestamp} not resolvable: needs {model_cfg.t_h} prior "
            f"steps inside the observation range"
        )
    start = obs.timestamps[idx]  # the data's spelling of `when`, as evaluate reads it
    history = normalize_apply(obs.values[idx - model_cfg.t_h : idx], prepared.normalizer)
    # Written in float64, but it must be finite in COMPUTE_DTYPE, the dtype
    # evaluate runs the checkpoint in, so both commands reject the same ones.
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        pred = forward(history, obs.coords, TimeFeature.from_timestamp(start), params)
        pred = normalize_invert(pred, prepared.normalizer)
        finite = np.isfinite(pred.astype(COMPUTE_DTYPE)).all()
    if not finite:
        raise EvaluationError(
            f"non-finite forecast from the checkpoint in {np.dtype(COMPUTE_DTYPE)}"
        )

    rows = (
        [sid, k, var, repr(float(pred[k, si, vi]))]
        for si, sid in enumerate(obs.station_ids)
        for k in range(model_cfg.t_f)
        for vi, var in enumerate(obs.var_names)
    )
    # same forecast in observations format, so it can be re-ingested
    future = replace(
        obs,
        timestamps=[start + k * obs.interval for k in range(model_cfg.t_f)],
        values=pred,
    )
    with written_together():
        write_csv(out / "forecasts.csv", [["station_id", "step", "var", "value"], *rows])
        write_observations_csv(out / "forecast_obs.csv", future)
    print(f"forecasts: {out / 'forecasts.csv'}")
    print(f"forecast_obs: {out / 'forecast_obs.csv'}")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    seeds = _list(cfg.ablate_seeds, "ablate_seeds", int)
    train_cfg = _train_config(cfg)
    check_ablation_seeds(seeds)
    obs, model_cfg = _load_for_model(cfg)
    rows = run_ablation_suite(obs, model_cfg, train_cfg, seeds, cfg.normalize)
    report = (
        [r["spatial"], r["temporal"], r["seed"], repr(r["mse"]), repr(r["mae"])] for r in rows
    )
    write_csv(out / "ablation.csv", [["spatial", "temporal", "seed", "mse", "mae"], *report])
    print("spatial temporal mean_mse mean_mae n_seeds")
    for s in summarize_ablation(rows):
        print(
            f"{s['spatial']} {s['temporal']} {s['mse']:.6f} {s['mae']:.6f} {s['n_seeds']}"
        )
    print(f"report: {out / 'ablation.csv'}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    d_list = _list(cfg.sweep_d, "sweep_d", int)
    layers_list = _list(cfg.sweep_layers, "sweep_layers", int)
    if not d_list or not layers_list:
        raise ConfigError("sweep_d and sweep_layers must be non-empty comma-separated lists")
    train_cfg = _train_config(cfg)
    checked = _model_config(cfg, 1, 1)  # each grid point, before the data is read
    grid = [replace(checked, d=d, n_layers=n) for d in d_list for n in layers_list]
    _, base_cfg, prepared, coords_norm = prepare(cfg)
    rows = [["d", "layers", "val_mse", "val_mae", "params", "epoch_seconds"]]
    for point in grid:
        d, n_layers = point.d, point.n_layers
        model_cfg = replace(base_cfg, d=d, n_layers=n_layers)
        n_params = parameter_count(model_cfg)
        try:
            result = fit(
                init_params(model_cfg, cfg.seed),
                prepared.train,
                prepared.val,
                coords_norm,
                train_cfg,
                prepared.normalizer,
            )
            best = result.history[result.best_epoch]
            row = [
                d,
                n_layers,
                repr(best["val_mse"]),
                repr(best["val_mae"]),
                n_params,
                f"{np.mean([h['seconds'] for h in result.history]):.3f}",
            ]
        except LightWeatherError as exc:
            print(f"sweep point d={d} layers={n_layers} failed: {exc}", file=sys.stderr)
            row = [d, n_layers, "nan", "nan", n_params, "nan"]
        rows.append(row)
        print(f"d={d} layers={n_layers} params={n_params} done")
    write_csv(out / "sweep.csv", rows)  # whole, when every point is done
    print(f"sweep: {out / 'sweep.csv'}")
    return 0


def cmd_param_count(cfg: RunConfig) -> int:
    checked = _model_config(cfg, 1, 1)  # before the station table is read
    n_stations = None
    if checked.spatial_encoding == "relative":  # the station table's size needs N
        ids, _ = load_stations_csv(_input_file("stations_csv", cfg.stations_csv))
        n_stations = len(ids)
    model_cfg = replace(checked, n_stations=n_stations)
    print(f"enumerated: {parameter_count(model_cfg)}")
    print(f"closed_form: {closed_form_count(model_cfg)}")
    return 0


# Every command with the flags it takes beyond --config, --seed and --out.
# main runs cmd_<name> (dashes as underscores) with the run config, then each
# flag's value in this order; it looks the handler up by name when the command
# runs, so a wrapper bound to that name in this module is the one called.
_CHECKPOINT_FLAG = ("--checkpoint", dict(help="checkpoint path override"))
COMMANDS = {
    "ingest-check": (),
    "synth": (),
    "train": (),
    "evaluate": (_CHECKPOINT_FLAG,),
    "forecast": (
        _CHECKPOINT_FLAG,
        ("--timestamp", dict(required=True, help="ISO-8601 first forecast step")),
    ),
    "ablate": (),
    "sweep": (),
    "param-count": (),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightweather",
        description="Station-based weather forecasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config out_dir")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    try:
        if args.config:
            cfg = parse_run_config(args.config)
        else:
            cfg = RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out:
            cfg.out_dir = args.out
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(cfg, *(getattr(args, f[2:]) for f, _ in COMMANDS[args.command]))
    except LightWeatherError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
