"""Mini-batch training with mean-absolute-error loss and Adam, validation
early stopping, streaming MSE/MAE evaluation in original data units, and
the training-history CSV.

Precision: fit and evaluate compute in COMPUTE_DTYPE (float32), which
halves the bytes every activation moves, on float64 master weights. Each
batch runs the model on a float32 copy of the params, cast into one
buffer that fit allocates once and refills for every batch, over float32
rows that each chunk gathers from the split's rows of the series into
its workspace (WindowSet.batch with `out`); the first chunk to gather
makes those rows, under the split's lock, and the split keeps them. fit
also makes one model.Workers, one Workspace per usable CPU sized for a
full chunk, that every batch and every validation pass runs in:
loss_and_grads leaves the batch's gradient in the Workers' one flat
float32 grad vector, in the params' tensor_spec layout (each chunk's
gradient goes to a vector of its own first), and one adam_step applies
that vector to the float64 parameter vector and Adam moments in place,
in float64 math. Metrics are accumulated in float64 and in original
data units (predictions inverted through the split's Normalizer, the
identity when normalization is off), against the float64 raw series.
The params fit returns, and so every checkpoint, stay float64.

Chunks: fit and evaluate take batch_size windows per batch, and a batch
of more than model.CHUNK_ROWS rows (N*C rows per window) runs in chunks
of whole windows, scheduled by model.Workers.run with OpenBLAS pinned to
one thread: the caller and the threads that the run starts and joins run
one drain loop, each worker taking the next chunk as soon as it is free,
and each chunk's result added in chunk order, a result that is done early
held until the chunks before it are added. No thread outlives a run: fit's
Workers is a plain value, its workspaces and the batch gradient. fit runs
one batch's chunks at a time (a model.WindowBatch), and loss_and_grads
adds their loss sums and gradients. evaluate runs the whole split's
chunks at once, so the workers share even a split of one-chunk batches,
and pools their float64 error sums. Every chunk, of fit, evaluate or the
HI baseline, comes from model.chunk_slices, so none crosses a batch
boundary. So a multi-chunk batch's gradient is rounded once per chunk
and differs in its last bits from a one-pass sum, and evaluate's sums
are split likewise.

Determinism contract: with the same config, seed and BLAS build, batch
order, every update, and the resulting best checkpoint are all
reproducible exactly; the chunk size is a constant, so chunking keeps
this. Where OpenBLAS's thread count can be pinned, every batch gives the
same bits at any BLAS thread count and any worker count: each chunk's
GEMMs and row_sum GEMVs run on one BLAS thread, so no reduction over rows
is split by thread, and the chunks are summed in chunk order. The only
non-reproducible history column is the per-epoch wall time.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Normalizer, WindowSet, normalize_invert
from .errors import ConfigError, EvaluationError, OptimizerError, TrainingError
from .model import COMPUTE_DTYPE, ModelParams, loss_and_grads
from .numerics import AdamState, adam_step
from . import model as model_ops

HISTORY_HEADER = ["epoch", "train_mae", "val_mae", "val_mse", "seconds"]


@dataclass
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def validate(self) -> None:
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigError(
                f"patience {self.patience} must be in [1, max_epochs={self.max_epochs}]"
            )


@dataclass
class Metrics:
    mse: float
    mae: float
    n_points: int


class MetricAccumulator:
    """Streaming pooled MSE/MAE; agrees with a one-pass computation."""

    def __init__(self):
        self.sum_sq = 0.0
        self.sum_abs = 0.0
        self.n = 0

    def add(self, pred: np.ndarray, truth: np.ndarray) -> None:
        diff = np.asarray(pred, dtype=np.float64) - np.asarray(truth, dtype=np.float64)
        self.add_sums(*error_sums(diff, np.empty_like(diff)), diff.size)

    def add_sums(self, sum_sq: float, sum_abs: float, n: int) -> None:
        """Pool the error_sums of n more points."""
        self.sum_sq += sum_sq
        self.sum_abs += sum_abs
        self.n += n

    def result(self) -> Metrics:
        if self.n == 0:
            raise EvaluationError("no points accumulated")
        return Metrics(mse=self.sum_sq / self.n, mae=self.sum_abs / self.n, n_points=self.n)


def error_sums(diff: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """The squared and the absolute sums of the float64 errors `diff`, each
    taken in `scratch`, an array of diff's shape."""
    sum_sq = float(np.multiply(diff, diff, out=scratch).sum())
    return sum_sq, float(np.abs(diff, out=scratch).sum())


def _first_nonfinite(tensors: dict, grads: dict) -> str:
    """Where a non-finite loss comes from: the first tensor, in tensor_spec
    order, whose value is non-finite, else the first whose gradient is. A
    non-finite value is checked first because it can leave every gradient
    finite (the loss's sign of +inf is 1)."""
    for what, arrays in (("value", tensors), ("gradient", grads)):
        for name in tensors:
            if not np.isfinite(arrays[name]).all():
                return f"first non-finite {what}: {name}"
    return "every value and gradient is finite"


def evaluate(
    params: ModelParams,
    windows: WindowSet,
    coords_norm: np.ndarray,
    normalizer: Normalizer,
    batch_size: int = 32,
    workers: model_ops.Workers | None = None,
) -> Metrics:
    """Pooled test metrics in original data units, from a COMPUTE_DTYPE copy
    of the params. Windows are taken batch_size at a time, as fit takes
    them, and each batch in chunks (model.chunk_slices: a batch_size below
    1 is a ConfigError, before anything is allocated); the whole split's
    chunks run in one Workers.run: on `workers`, or on Workers made for
    this call when it is None. model.positions runs once, for the split.

    A chunk gathers its history rows and float64 target rows into its
    workspace's x and truth buffers (WindowSet.batch with `out`), inverts
    its prediction rows into the err buffer, subtracts the targets there
    and takes error_sums in truth, so it allocates nothing; Workers.run
    hands the chunks' sums to the accumulator in chunk order."""
    if len(windows) == 0:
        raise EvaluationError("empty split: no windows to evaluate")
    n_vars, t_f = windows.n_vars, windows.t_f
    rows_per_window = windows.n_stations * n_vars
    chunks = model_ops.chunk_slices(len(windows), batch_size, rows_per_window)
    if workers is None:
        workers = model_ops.Workers.for_batches(params.config, rows_per_window, batch_size)
    params = params.astype(COMPUTE_DTYPE)
    workers.check(params, chunks[0].stop * rows_per_window)  # the first chunk is the largest
    pos = model_ops.positions(coords_norm, windows.calendar, params)

    def chunk(i, ws):
        b = windows.batch(chunks[i], out={"history": ws.x, "future_raw": ws.truth})
        y_rows = model_ops.forward_rows(b["history"], pos.windows(chunks[i]), params, ws)
        err, truth = ws.err[: len(y_rows)], b["future_raw"]
        # rows viewed with the variable axis last, as normalize_invert takes them
        normalize_invert(
            y_rows.reshape(-1, n_vars, t_f).swapaxes(1, 2),
            normalizer,
            out=err.reshape(-1, n_vars, t_f).swapaxes(1, 2),
        )
        err -= truth
        return (*error_sums(err, truth), err.size)

    acc = MetricAccumulator()
    workers.run(len(chunks), chunk, lambda i, sums: acc.add_sums(*sums))
    return acc.result()


@dataclass
class FitResult:
    params: ModelParams  # best-validation checkpoint
    history: list[dict]
    best_epoch: int
    best_val_mae: float


def fit(
    params: ModelParams,
    train_windows: WindowSet,
    val_windows: WindowSet,
    coords_norm: np.ndarray,
    config: TrainConfig,
    normalizer: Normalizer,
) -> FitResult:
    """Epochs of seeded shuffled mini-batches; returns the best-val params.

    Per-batch gradients are averages over the batch's windows, computed in
    COMPUTE_DTYPE and applied to the float64 params in place, by one
    adam_step on the flat parameter vector. Validation MAE
    (original units) drives early stopping: training stops after
    `patience` epochs without strict improvement or at max_epochs.
    """
    config.validate()
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ConfigError("train and val splits must both contain windows")

    state = AdamState.zeros_like(params.vector)
    compute = ModelParams.zeros(params.config, COMPUTE_DTYPE)
    rows_per_window = train_windows.n_stations * train_windows.n_vars
    best_params = params.copy()
    best_val = np.inf
    best_epoch = -1
    epochs_since_best = 0
    history: list[dict] = []

    workers = model_ops.Workers.for_batches(params.config, rows_per_window, config.batch_size)
    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        perm = np.random.default_rng([config.seed, epoch]).permutation(len(train_windows))
        abs_err_sum = 0.0
        n_samples = 0
        for bi, lo in enumerate(range(0, len(perm), config.batch_size)):
            idx = perm[lo : lo + config.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is named below
                np.copyto(compute.vector, params.vector)
                loss, grads = loss_and_grads(  # each chunk gathers its own windows
                    compute, model_ops.WindowBatch(train_windows, idx), coords_norm, workers
                )
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {bi}; "
                    f"{_first_nonfinite(compute.tensors, grads)}"
                )
            try:  # one vector in spec layout, where loss_and_grads leaves it
                adam_step(params.vector, workers.grad.vector, state, config.lr, out=params.vector)
            except OptimizerError:
                name = next(n for n in compute.tensors if not np.isfinite(grads[n]).all())
                raise OptimizerError(f"non-finite gradient for parameter '{name}'") from None
            abs_err_sum += loss * len(idx)
            n_samples += len(idx)

        val_metrics = evaluate(params, val_windows, coords_norm, normalizer, config.batch_size, workers)
        seconds = time.perf_counter() - t0
        history.append(
            {
                "epoch": epoch,
                "train_mae": abs_err_sum / n_samples,
                "val_mae": val_metrics.mae,
                "val_mse": val_metrics.mse,
                "seconds": seconds,
            }
        )
        if val_metrics.mae < best_val:
            best_val = val_metrics.mae
            best_epoch = epoch
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    return FitResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        best_val_mae=float(best_val),
    )


def write_history_csv(path, history: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for row in history:
            writer.writerow(
                [
                    row["epoch"],
                    repr(float(row["train_mae"])),
                    repr(float(row["val_mae"])),
                    repr(float(row["val_mse"])),
                    f"{row['seconds']:.3f}",
                ]
            )
