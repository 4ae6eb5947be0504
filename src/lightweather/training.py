"""Mini-batch training with mean-absolute-error loss and Adam, validation
early stopping, streaming MSE/MAE evaluation in original data units, and
the training-history CSV.

Precision: fit and evaluate compute in COMPUTE_DTYPE (float32), which
halves the bytes every activation moves, on float64 master weights. Each
batch runs the model on a float32 copy of the params, cast into one
buffer that fit allocates once and refills for every batch, over float32
rows that WindowSet.batch gathers from the split's stored series. fit
also makes one model.Workspace, sized for a full chunk, that every batch
and every validation pass runs in: loss_and_grads leaves the batch's
gradient in its flat float32 vector, in the params' tensor_spec layout,
and one adam_step applies that vector to the float64 parameter vector
and Adam moments in place, in float64 math. Metrics are
accumulated in float64 and in original data units (predictions inverted
through the split's Normalizer, the identity when normalization is off),
against the float64 raw series. The params fit returns, and so every
checkpoint, stay float64.

Chunks: a batch of more than model.CHUNK_ROWS rows (N*C rows per window)
runs in chunks of whole windows. loss_and_grads sums the chunks'
gradients, so a multi-chunk batch's gradient is rounded once per chunk and
differs in its last bits from a one-pass sum; evaluate takes at most a
chunk of windows per batch, so its float64 sums are split likewise.

Determinism contract: with the same config, seed, BLAS build and thread
count, batch order, every update, and the resulting best checkpoint are
all reproducible exactly; the chunk size is a constant, so chunking keeps
this. The thread count matters because BLAS splits the weight gradients'
GEMM sums (g.T @ x) by thread: one wide batch's gradient bits differ
between one and two OpenBLAS threads. The row sums (numerics.row_sum) do
not. The only non-reproducible history column is the per-epoch wall time.
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
        self.sum_sq += float((diff * diff).sum())
        self.sum_abs += float(np.abs(diff).sum())
        self.n += diff.size

    def result(self) -> Metrics:
        if self.n == 0:
            raise EvaluationError("no points accumulated")
        return Metrics(mse=self.sum_sq / self.n, mae=self.sum_abs / self.n, n_points=self.n)


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


def _batches(order: np.ndarray, batch_size: int):
    for lo in range(0, len(order), batch_size):
        yield order[lo : lo + batch_size]


def evaluate(
    params: ModelParams,
    windows: WindowSet,
    coords_norm: np.ndarray,
    normalizer: Normalizer,
    batch_size: int = 32,
    workspace: model_ops.Workspace | None = None,
) -> Metrics:
    """Pooled test metrics in original data units, from a COMPUTE_DTYPE copy
    of the params. Windows are taken batch_size at a time, or fewer when a
    chunk of CHUNK_ROWS rows holds fewer (model.chunk_windows), and every
    batch runs in `workspace`, or in one made for this call."""
    if len(windows) == 0:
        raise EvaluationError("empty split: no windows to evaluate")
    params = params.astype(COMPUTE_DTYPE)
    acc = MetricAccumulator()
    n_vars, t_f = windows.n_vars, windows.t_f
    rows_per_window = windows.n_stations * n_vars
    step = min(batch_size, model_ops.chunk_windows(rows_per_window))
    if workspace is None:
        workspace = model_ops.Workspace(params.config, step * rows_per_window)
    for idx in _batches(np.arange(len(windows)), step):
        b = windows.batch(idx, raw_future=True)
        y_rows, _ = model_ops.forward_rows(
            b["history"],
            coords_norm,
            b["hours"],
            b["days"],
            b["months"],
            params,
            workspace=workspace,
        )
        # rows viewed with the variable axis last, as normalize_invert takes them
        pred = normalize_invert(y_rows.reshape(-1, n_vars, t_f).swapaxes(1, 2), normalizer)
        acc.add(pred, b["future_raw"].reshape(-1, n_vars, t_f).swapaxes(1, 2))
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
    chunk = min(config.batch_size, model_ops.chunk_windows(rows_per_window))
    workspace = model_ops.Workspace(params.config, chunk * rows_per_window)
    best_params = params.copy()
    best_val = np.inf
    best_epoch = -1
    epochs_since_best = 0
    history: list[dict] = []

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        perm = np.random.default_rng([config.seed, epoch]).permutation(
            len(train_windows)
        )
        abs_err_sum = 0.0
        n_samples = 0
        for bi, idx in enumerate(_batches(perm, config.batch_size)):
            b = train_windows.batch(idx)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is named below
                np.copyto(compute.vector, params.vector)
                loss, grads = loss_and_grads(
                    compute,
                    b["history"],
                    b["future"],
                    coords_norm,
                    b["hours"],
                    b["days"],
                    b["months"],
                    workspace,
                )
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {bi}; "
                    f"{_first_nonfinite(compute.tensors, grads)}"
                )
            try:  # grads are views of workspace.grad, one vector in spec layout
                adam_step(params.vector, workspace.grad.vector, state, config.lr, out=params.vector)
            except OptimizerError:
                name = next(n for n in compute.tensors if not np.isfinite(grads[n]).all())
                raise OptimizerError(f"non-finite gradient for parameter '{name}'") from None
            abs_err_sum += loss * len(idx)
            n_samples += len(idx)

        val_metrics = evaluate(
            params, val_windows, coords_norm, normalizer, config.batch_size, workspace
        )
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
