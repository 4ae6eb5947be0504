"""The benchmark's workloads, run in process by run.py.

This module imports lightweather from the checkout's `src/`; run.py
pins the BLAS thread count before numpy loads. `run` prepares the inputs
from the seed, then sets the workload up `N_SETUPS` times and repeats its
operations for about the given seconds, the two in turn, checking every
output. With tracing on it then installs the tracer and runs the whole
phase once more (inputs, one set-up, one repetition), traced, and writes
the spans to OUT_DIR/spans.json. The CSV and checkpoint files, under
OUT_DIR/inputs, are removed at the end.

An operation that raises or returns a wrong output is counted as failed
and the run goes on; its time is not used.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import lightweather  # noqa: E402
import tracing  # noqa: E402
from lightweather import baselines, checkpoint, cli, data, model, synthetic, training  # noqa: E402

if Path(lightweather.__file__).resolve().parent != ROOT / "src" / "lightweather":
    raise SystemExit(f"lightweather imported from {lightweather.__file__}, not from {ROOT / 'src'}")

# The ROADMAP's criterion-9 model and optimiser, shared by every workload.
MODEL = model.ModelConfig(d=64, n_layers=2, t_h=48, t_f=24, n_vars=1)
LR, BATCH = 5e-4, 32
NOISE_STD = 0.5  # the criterion-9 generator: forcing plus noise, no AR terms
# The seed argument makes the data. Model initialisation and batch order
# are part of the workload, so that `val_mae` compares like with like
# across data seeds (with seeded initialisation it spread ~5x wider).
MODEL_SEED = 0
# Set-up is mostly per-row CSV parsing on narrow-train, which swings with
# the machine; 11 samples steady its median and give a tail percentile.
N_SETUPS = 11
EVAL_REPEATS = 3  # evaluate is ~10% of an epoch: time it more than once


@dataclass(frozen=True)
class Workload:
    n_stations: int
    n_steps: int
    # Seconds one repetition takes on a 2-core machine with OpenBLAS. A run
    # makes round(SECONDS / repeat_s) repetitions, at least one: a fixed
    # count, so that a slow spell of the machine does not also cut the
    # number of samples.
    repeat_s: float
    # True: the data reach the model through CSV files, as with the CLI's
    # `synth`, `train` and `forecast`; False: generated in memory.
    csv: bool


# Why each workload is here, and which layer it loads or bypasses:
WORKLOADS = {
    # The criterion-9 shape. A batch is 32 x 3850 = 123,200 rows and each
    # activation array ~63 MB, so numerics matmuls and memory-bound
    # elementwise ops take ~80% of an epoch and the model's own transposes,
    # adds and checks most of the rest; Adam and per-batch Python overhead
    # are <1%. Loads numerics and the model's batch path; per-call overhead
    # is bypassed (20 batches per epoch), and so are CSV files.
    "wide-train": Workload(3850, 1000, repeat_s=30.0, csv=False),
    # Wind_US size: 27 stations x 2 years hourly. A batch is 864 rows
    # (0.44 MB per array, inside L2) and an epoch ~380 batches, so per-call
    # overhead (adam_step ~10%, np.add.at, input checks, window gather) is
    # a large share. Loads per-batch overhead; bypasses big-matmul cost.
    # Its 473k observation rows also take the CLI's file path: written as
    # CSV once per run, read back by every set-up (so set-up is per-row CSV
    # parsing), and one `lightweather forecast` from the trained checkpoint.
    "narrow-train": Workload(27, 17_520, repeat_s=2.9, csv=True),
}


FAILED = object()  # what Ledger.run returns for a failed operation


class Ledger:
    """Times operations and counts the attempted and the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, list[float]] = defaultdict(list)

    def run(self, op: str, fn, check=None):
        """Time `fn()`; then `check(result)` returns a problem or None.

        Returns the result, or FAILED when the call raised or the check
        found a problem; either counts as one failed operation.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - t0
            problem = check(result) if check is not None else None
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{op}: {problem}")
            print(f"FAILED {op}: {problem}", file=sys.stderr)
            return FAILED
        self.seconds[op].append(elapsed)
        return result


def same_bits(first: dict, key: str, value: float) -> str | None:
    """Problem text unless `value` repeats the first value seen for `key`
    bit for bit (the determinism contract)."""
    if not math.isfinite(value):
        return f"{key} is not finite: {value!r}"
    ref = first.setdefault(key, value)
    if value.hex() != ref.hex():
        return f"{key} {value!r} differs from the first repeat's {ref!r}"
    return None


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# inputs, set-up, repetition and the forecast
# ---------------------------------------------------------------------------


def synthesize(w: Workload, seed: int) -> data.ObservationSet:
    _, coords = synthetic.random_station_coords(w.n_stations, seed)
    cfg = synthetic.SynthConfig(
        n_stations=w.n_stations, n_steps=w.n_steps, noise_std=NOISE_STD, seed=seed
    )
    return synthetic.generate(cfg, coords)


def write_inputs(ledger: Ledger, w: Workload, seed: int, work: Path):
    """The generated data, written as CSV as `lightweather synth` does.
    Returns the generated ObservationSet, or FAILED."""
    obs = synthesize(w, seed)
    data.write_stations_csv(work / "stations.csv", obs.station_ids, obs.coords)
    (work / "run.cfg").write_text(
        f"stations_csv = {work / 'stations.csv'}\n"
        f"observations_csv = {work / 'observations.csv'}\n"
        f"checkpoint = {work / 'checkpoint.bin'}\n"
        f"out_dir = {work / 'out'}\n",
        encoding="utf-8",
    )
    written = ledger.run(
        "write", lambda: data.write_observations_csv(work / "observations.csv", obs)
    )
    return FAILED if written is FAILED else obs


def setup(w: Workload, seed: int, work: Path) -> dict:
    """The data, split 7:1:2 and windowed: read from the CSV files (the
    ingest that `lightweather train` starts with), or generated."""
    t0 = time.perf_counter()
    if w.csv:
        ids, coords = data.load_stations_csv(work / "stations.csv")
        obs = data.load_observations_csv(work / "observations.csv", ids, coords)
    else:
        obs = synthesize(w, seed)
    load_s = time.perf_counter() - t0
    return {
        "obs": obs,
        "prepared": data.split_windows(obs, MODEL.t_h, MODEL.t_f),
        "coords_norm": model.normalize_coords(obs.coords),
        "load_s": load_s,
    }


def check_data(obs, expected, first: dict) -> str | None:
    """Problem text unless `obs` repeats the generated data bit for bit:
    `expected` after a CSV round trip, or else the first set-up's data."""
    if expected is not None:
        if obs.station_ids != expected.station_ids or obs.coords != expected.coords:
            return "stations differ after the CSV round trip"
        if obs.timestamps != expected.timestamps or obs.var_names != expected.var_names:
            return "timestamps or variables differ after the CSV round trip"
        if obs.values.shape != expected.values.shape:
            return f"values have shape {obs.values.shape}, expected {expected.values.shape}"
        first.setdefault("data_digest", digest(expected.values))
    if first.setdefault("data_digest", digest(obs.values)) != digest(obs.values):
        return "values differ from the generated [T, N, C] tensor"
    return None


def repeat(ledger: Ledger, s: dict, first: dict) -> None:
    """One epoch with validation, then the test split through evaluate
    (EVAL_REPEATS times) and the HI baseline. Keeps the fitted params."""
    prep, coords_norm = s["prepared"], s["coords_norm"]
    params = model.init_params(MODEL, MODEL_SEED)
    tc = training.TrainConfig(
        lr=LR, batch_size=BATCH, max_epochs=1, patience=1, seed=MODEL_SEED
    )

    def check_fit(r):
        train_mae = r.history[0]["train_mae"]
        if not math.isfinite(train_mae):
            return f"training loss is not finite: {train_mae!r}"
        return same_bits(first, "val_mae", r.best_val_mae)

    fitted = ledger.run(
        "epoch",
        lambda: training.fit(params, prep.train, prep.val, coords_norm, tc, prep.normalizer),
        check_fit,
    )
    if fitted is FAILED:
        return
    s["fitted"] = fitted.params
    n_points = len(prep.test) * prep.test.n_stations * prep.test.n_vars * MODEL.t_f

    def check_metrics(key):
        def check(m):
            if m.n_points != n_points:
                return f"{key} pooled {m.n_points} points, expected {n_points}"
            return same_bits(first, f"{key}.mse", m.mse) or same_bits(first, f"{key}.mae", m.mae)

        return check

    for _ in range(EVAL_REPEATS):
        ledger.run(
            "evaluate",
            lambda: training.evaluate(
                fitted.params, prep.test, coords_norm, prep.normalizer, BATCH
            ),
            check_metrics("test"),
        )
    ledger.run(
        "evaluate_hi", lambda: baselines.evaluate_hi(prep.test, BATCH), check_metrics("hi")
    )


def read_forecasts(path: Path, station_ids: list[str], var_names: list[str]) -> np.ndarray:
    """forecasts.csv rows (station_id, step, var, value) -> [T_f, N, C];
    raises ValueError unless every cell appears exactly once."""
    s_index = {sid: i for i, sid in enumerate(station_ids)}
    v_index = {v: i for i, v in enumerate(var_names)}
    out = np.full((MODEL.t_f, len(station_ids), len(var_names)), np.nan)
    seen = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["station_id", "step", "var", "value"]:
            raise ValueError("unexpected forecasts.csv header")
        for sid, step, var, value in reader:
            cell = (int(step), s_index[sid], v_index[var])
            if not np.isnan(out[cell]):
                raise ValueError(f"duplicate forecast row {sid},{step},{var}")
            out[cell] = float(value)
            seen += 1
    if seen != out.size:
        raise ValueError(f"{seen} forecast rows, expected {out.size}")
    return out


def forecast(ledger: Ledger, s: dict, first: dict, work: Path) -> None:
    """Save the fitted params as `lightweather train` does, run
    `lightweather forecast` for the last full window in process, and check
    it against model.forward_batch on the same window."""
    obs, prep = s["obs"], s["prepared"]
    checkpoint.checkpoint_save(work / "checkpoint.bin", s["fitted"])
    start = obs.n_steps - MODEL.t_f
    when = obs.timestamps[start].isoformat()
    argv = ["forecast", "--config", str(work / "run.cfg"), "--timestamp", when]

    def check(code):
        if code != 0:
            return f"lightweather forecast exited {code}"
        got = read_forecasts(work / "out" / "forecasts.csv", obs.station_ids, obs.var_names)
        if not np.isfinite(got).all():
            return "forecast has non-finite values"
        values = data.normalize_apply(obs.values, prep.normalizer)
        tf = model.TimeFeature.from_timestamp(obs.timestamps[start])
        pred, _ = model.forward_batch(
            values[start - MODEL.t_h : start][None],
            s["coords_norm"],
            np.array([tf.hour]),
            np.array([tf.day_index]),
            np.array([tf.month_index]),
            s["fitted"],
        )
        expected = data.normalize_invert(pred[0], prep.normalizer)
        if not np.allclose(got, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max()):
            return "forecast differs from the in-process model.forward_batch"
        truth = obs.values[start : start + MODEL.t_f]
        return same_bits(first, "forecast_mae", float(np.abs(got - truth).mean()))

    def run_cli():
        # The command's own prints go to stderr: stdout holds the report.
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv)

    ledger.run("forecast", run_cli, check)


def run_phase(
    w: Workload, seed: int, work: Path, ledger: Ledger, first: dict, n_setups: int, n_repeats: int
):
    """Inputs, then `n_setups` set-ups and `n_repeats` repetitions taken
    in turn, then on CSV workloads the forecast. Set-ups are spread over
    the run, not bunched at its start, so that their median and the
    epochs' see the same spells of a shared machine. Every repetition
    uses the first good set-up's state, which is returned."""
    expected = None
    if w.csv:
        expected = write_inputs(ledger, w, seed, work)
        if expected is FAILED:
            return None
    state = None
    for i in range(max(n_setups, n_repeats)):
        if i < n_setups:
            built = ledger.run(
                "setup",
                lambda: setup(w, seed, work),
                lambda st: check_data(st["obs"], expected, first),
            )
            if built is not FAILED:
                ledger.seconds["load"].append(built["load_s"])
                if state is None:
                    state = built
        if state is not None and i < n_repeats:
            repeat(ledger, state, first)
    if state is None:
        return None
    if w.csv and "fitted" in state:
        forecast(ledger, state, first, work)
    return state


# ---------------------------------------------------------------------------
# statistics, environment and the run itself
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least 10 samples above it, and
    its value by nearest rank; None for fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def timing(samples: list[float], unit: str) -> dict:
    out = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out["p"], out["p_value"] = tail
    return out


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


END_TO_END = ("setup_s", "epoch_s", "eval_windows_per_s", "peak_rss_mb", "val_mae")


def report(w: Workload, ledger: Ledger, s: dict, first: dict) -> dict:
    """Every named metric this workload measures, for the report lines."""
    sec = ledger.seconds
    n_test = len(s["prepared"].test)
    named = {
        "setup_s": timing(sec["setup"], "s"),
        "epoch_s": timing(sec["epoch"], "s"),
        "eval_windows_per_s": timing([n_test / t for t in sec["evaluate"]], "windows/s"),
        "val_mae": {"value": first["val_mae"], "unit": "data_units"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    if w.csv:
        rows = w.n_stations * w.n_steps
        named.update(
            write_rows_per_s=timing([rows / t for t in sec["write"]], "rows/s"),
            ingest_rows_per_s=timing([rows / t for t in sec["load"]], "rows/s"),
            forecast_s=timing(sec["forecast"], "s"),
            forecast_mae={"value": first["forecast_mae"], "unit": "data_units"},
        )
    return named


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One run of workload `name`: its environment record, named metrics,
    BENCHMARK.json's metrics (`end_to_end`, and with `trace` `per_layer`),
    and the attempted and failed operations."""
    w = WORKLOADS[name]
    work = out_dir / "inputs"  # files the workload writes and reads
    work.mkdir(parents=True, exist_ok=True)
    ops = ("setup", "epoch", "evaluate", "evaluate_hi") + (("write", "forecast") if w.csv else ())
    ledger, first = Ledger(), {}
    n_repeats = max(1, round(seconds / w.repeat_s))
    state = run_phase(w, seed, work, ledger, first, N_SETUPS, n_repeats)
    result = {"env": environment(seed), "workload": name}
    if state is not None and all(ledger.seconds[op] for op in ops):
        result["named"] = report(w, ledger, state, first)
        result["end_to_end"] = {k: result["named"][k] for k in END_TO_END}
    if trace:
        traced = Ledger()
        tracer = tracing.Tracer()
        with tracer:
            run_phase(w, seed, work, traced, first, 1, 1)
        tracing.write_spans(out_dir / "spans.json", tracer.spans)
        ledger.attempted += traced.attempted
        ledger.failures += traced.failures
        if traced.seconds["epoch"] and ledger.seconds["epoch"]:
            ratio = traced.seconds["epoch"][0] / statistics.median(ledger.seconds["epoch"])
            result["per_layer"] = layer_metrics(tracer, ratio)
            result["shares"] = layer_shares(tracer)
    shutil.rmtree(work, ignore_errors=True)
    result.update(attempted=ledger.attempted, failed=len(ledger.failures), failures=ledger.failures)
    return result


def layer_metrics(tracer: tracing.Tracer, overhead_ratio: float) -> dict[str, dict]:
    """Per-layer metrics of the traced phase (inputs, one set-up, one
    repetition and, on CSV workloads, the forecast). `overhead_ratio` is
    the traced epoch over the untraced median epoch."""
    summary = tracing.summarize(tracer.spans, tracer.names)
    metrics: dict[str, dict] = {}
    for name, row in summary.items():
        metrics[f"{name}.s"] = {"value": row["s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
        metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
    flop = tracer.counters["numerics.linear.flop"]
    linear_s = summary["numerics.linear_forward"]["s"] + summary["numerics.linear_backward"]["s"]
    metrics["numerics.linear.gflop"] = {"value": flop / 1e9, "unit": "GFLOP"}
    metrics["numerics.linear.bytes"] = {
        "value": tracer.counters["numerics.linear.bytes"],
        "unit": "bytes",
    }
    metrics["numerics.linear.gflop_per_s"] = {
        "value": flop / 1e9 / linear_s if linear_s > 0 else 0.0,
        "unit": "GFLOP/s",
    }
    metrics["data.gather_bytes"] = {"value": tracer.counters["data.gather_bytes"], "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics


# The shares worth checking: how much of an epoch numerics
# take, and how much of `lightweather forecast` CSV parsing takes.
SHARES = [("numerics.", "training.fit"), ("data.load_observations_csv", "cli.cmd_forecast")]


def layer_shares(tracer: tracing.Tracer) -> dict[str, float]:
    """The SHARES whose operation ran, as fractions of it."""
    summary = tracing.summarize(tracer.spans)
    return {
        f"{part.rstrip('.')} share of {whole}": tracing.time_within(tracer.spans, part, whole)
        / summary[whole]["s"]
        for part, whole in SHARES
        if whole in summary
    }
