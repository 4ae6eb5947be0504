"""Dense real-matrix primitives: the fully connected layer with explicit
forward/backward rules, the ReLU activation, the Adam optimizer, and a
central finite-difference gradient checker.

All raw math lives here. Matrices are C-contiguous numpy arrays
(row-major); vectors are 1-D arrays. Every function is deterministic.

Arrays are float32 or float64, and each function computes in its inputs'
dtype: linear_forward in the layer weight's (x is cast to it), the others
in their arguments' own. Any other input (integers, lists) is taken as
float64. Training computes in float32 on a float32 copy of float64 master
weights; adam_step then applies the float32 gradient in the master
weights' float64 (see training.py). finite_diff_check runs in float64; the
model's stage kernels compute in their params' dtype.

Results are freshly allocated and never share memory with an argument:
linear_forward, linear_backward and linear_param_grads always, relu and
relu_backward unless given `out`. As in numpy, `out` is the array that
receives the result and is returned; passing an input there (relu(a,
out=a), relu_backward(r, g, out=g)) overwrites that input in place, which
the batch path does on buffers it owns to avoid a second full-size array.
Nothing else writes to its arguments except adam_step, which updates its
AdamState in place (single writer: one training loop owns one state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OptimizerError, ShapeError

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def as_float(a) -> np.ndarray:
    """`a` as an array of float32 or float64, whichever it already is;
    anything else becomes float64. Never copies a float array."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


@dataclass
class LinearLayer:
    """Fully connected layer y = W x + b with W of shape [d_out, d_in]."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.ascontiguousarray(as_float(self.weight))
        self.bias = np.ascontiguousarray(as_float(self.bias))
        if self.weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weight rows "
                f"{self.weight.shape[0]}"
            )

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]


def linear_forward(x: np.ndarray, layer: LinearLayer) -> np.ndarray:
    """W x + b for a single vector [d_in] or a stack of rows [n, d_in], in
    the weight's dtype."""
    x = np.asarray(x, dtype=layer.weight.dtype)
    if x.shape[-1] != layer.d_in:
        raise ShapeError(
            f"input has {x.shape[-1]} features, layer expects {layer.d_in}"
        )
    out = x @ layer.weight.T
    out += layer.bias  # same bits as `x @ W.T + b`, without a second array
    return out


def linear_param_grads(
    x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of linear_forward, without grad_x.

    grad_weight = grad_out outer x, grad_bias = grad_out; for stacked rows
    [n, d] both sum over the stack. For a layer whose input needs no
    gradient (the model's input embeddings).
    """
    x = as_float(x)
    grad_out = as_float(grad_out)
    if x.ndim != grad_out.ndim or x.shape[:-1] != grad_out.shape[:-1]:
        raise ShapeError(
            f"x shape {x.shape} and grad_out shape {grad_out.shape} disagree"
        )
    if x.ndim == 1:
        return np.outer(grad_out, x), grad_out.copy()
    return grad_out.T @ x, grad_out.sum(axis=0)


def linear_backward(
    x: np.ndarray, layer: LinearLayer, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode rule for linear_forward: (grad_x, grad_weight, grad_bias).

    grad_x = W^T grad_out; the weight/bias gradients are linear_param_grads.
    """
    x = as_float(x)
    grad_out = as_float(grad_out)
    if x.shape[-1] != layer.d_in:
        raise ShapeError(f"x has {x.shape[-1]} features, expected {layer.d_in}")
    if grad_out.shape[-1] != layer.d_out:
        raise ShapeError(
            f"grad_out has {grad_out.shape[-1]} features, expected {layer.d_out}"
        )
    grad_weight, grad_bias = linear_param_grads(x, grad_out)
    grad_x = grad_out @ layer.weight
    return grad_x, grad_weight, grad_bias


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), written to `out` when given."""
    return np.maximum(as_float(x), 0.0, out=out)


def relu_backward(
    x: np.ndarray, grad_out: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0.

    x may be the ReLU input or its output: both are > 0 at the same places.
    The result, in grad_out's dtype, is written to `out` when given, which
    may be x or grad_out. Same bits as np.where(x > 0, grad_out, 0.0), NaN
    included: the gradient's bit pattern, as a signed integer of its item
    size (int64 for float64, int32 for float32), is multiplied by the mask
    (1 keeps it, 0 gives +0.0), which is faster than np.where or a masked
    copy and needs no full-size temporary beyond the bool mask.
    """
    x = as_float(x)
    grad_out = as_float(grad_out)
    if x.shape != grad_out.shape:
        raise ShapeError(f"x shape {x.shape} != grad_out shape {grad_out.shape}")
    keep = np.asarray(x > 0.0)
    if out is None:
        out = np.empty_like(grad_out)
    elif out.dtype != grad_out.dtype:
        raise ShapeError(f"out dtype {out.dtype} != grad_out dtype {grad_out.dtype}")
    bits = np.dtype(f"i{grad_out.itemsize}")
    np.multiply(grad_out.view(bits), keep, out=out.view(bits))
    return out


@dataclass
class AdamState:
    """Per-tensor Adam moments. v entries stay >= 0 by construction."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    name: str = "param",
) -> np.ndarray:
    """One Adam update with bias-corrected moments; returns the new param.

    The state is advanced in place (step incremented before bias correction).
    The update is computed in the param's dtype, whatever the grad's.
    """
    grad = np.asarray(grad, dtype=param.dtype)
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(
            f"{name}: param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape} disagree"
        )
    if not np.all(np.isfinite(grad)):
        raise OptimizerError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


LossAndGrad = Callable[[dict], tuple[float, dict]]


def finite_diff_check(
    loss_and_grad: LossAndGrad,
    params: dict[str, np.ndarray],
    perturbation: float = 1e-6,
) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_and_grad(params) must return (loss, grads) with grads mirroring the
    params dict. Parameters are perturbed in place and restored. The relative
    error per entry is |analytic - fd| / max(|analytic|, |fd|, 1e-8).
    """
    _, analytic = loss_and_grad(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        g = np.asarray(analytic[name]).reshape(-1)
        if g.shape != flat.shape:
            raise ShapeError(
                f"gradient for '{name}' has {g.size} entries, "
                f"parameter has {flat.size}"
            )
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + perturbation
            loss_plus, _ = loss_and_grad(params)
            flat[k] = orig - perturbation
            loss_minus, _ = loss_and_grad(params)
            flat[k] = orig
            fd = (loss_plus - loss_minus) / (2.0 * perturbation)
            denom = max(abs(g[k]), abs(fd), 1e-8)
            err = abs(g[k] - fd) / denom
            if err > worst:
                worst = err
    return worst
