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

Without `out`, results are freshly allocated and never share memory with
an argument. Every kernel of the batch path (linear_forward,
linear_backward, linear_weight_grad, row_sum, linear_param_grads, relu,
relu_backward) also takes `out`: as in numpy, the array or arrays that
receive the result and are returned, with the same bits as the
allocating form. model.Workspace holds such buffers for one chunk of
rows, so a training step reuses its memory instead of allocating it.
Passing an input there (relu(a, out=a), relu_backward(r, g, out=g))
overwrites that input in place. Bias gradients are row sums taken as one
GEMV against a vector of ones (row_sum); callers that sum many rows pass
a ones vector they keep, the others get one allocated. Nothing else
writes to its arguments except adam_step, which updates its AdamState's
moments and scratch vectors in place (single writer: one training loop
owns one state) and, given `out`, writes the new param there: training
passes the flat parameter vector as both param and out, so one call
updates the whole model in place and allocates nothing.

single_threaded_blas pins OpenBLAS to one thread for a block of work, so
that threads of our own can run BLAS calls side by side (model.Workers)
and every GEMM's bits are those of one thread.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import OptimizerError, ShapeError, allocating

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# OpenBLAS's process-wide thread-count setter and getter, under the names
# the scipy-openblas wheels (64-bit and 32-bit integer builds) and a plain
# OpenBLAS export them
_OPENBLAS_THREADS = [
    (f"{prefix}openblas_set_num_threads{suffix}", f"{prefix}openblas_get_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
]


@functools.cache
def _openblas_thread_count():
    """(set, get) for the thread count of the OpenBLAS that numpy loaded,
    found by ctypes in the libraries this process has mapped, or None: no
    /proc/self/maps, numpy built on another BLAS, or no setter exported."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREADS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def single_threaded_blas() -> Iterator[bool]:
    """Pin OpenBLAS to one thread for the block, then restore its old count,
    also when the block raises. Yields whether the pin was made: False
    where numpy's BLAS offers no setter (MKL, Accelerate), and the block
    then runs at the BLAS's own thread count.

    The count is process-wide, so the block pins every thread's BLAS calls:
    threads that run GEMMs side by side then each run them on one thread
    instead of oversubscribing the cores, and each GEMM's sums are those of
    one thread, whatever the thread count outside."""
    found = _openblas_thread_count()
    if found is None:
        yield False
        return
    set_threads, get_threads = found
    old = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(old)


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None where no getter is found."""
    found = _openblas_thread_count()
    return None if found is None else found[1]()


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


def linear_forward(
    x: np.ndarray, layer: LinearLayer, out: np.ndarray | None = None
) -> np.ndarray:
    """W x + b for a single vector [d_in] or a stack of rows [n, d_in], in
    the weight's dtype, written to `out` when given."""
    x = np.asarray(x, dtype=layer.weight.dtype)
    if x.shape[-1] != layer.d_in:
        raise ShapeError(
            f"input has {x.shape[-1]} features, layer expects {layer.d_in}"
        )
    shape = x.shape[:-1] + (layer.d_out,)
    if out is not None and out.shape != shape:
        raise ShapeError(f"out has shape {out.shape}, expected {shape}")
    out = np.matmul(x, layer.weight.T, out=out)
    out += layer.bias  # same bits as `x @ W.T + b`, without a second array
    return out


def row_sum(
    a: np.ndarray, ones: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """The sum of the rows of `a`, [..., n, k] -> [..., k], as `ones @ a`:
    one GEMV per [n, k] matrix, about three times faster than
    a.sum(axis=-2) on the batch path's float32 rows. `ones` holds at least
    n ones in a's dtype (model.Workspace keeps one); one is allocated when
    it is not given. The bits do not depend on the BLAS thread count
    (tests/test_numerics.py runs it under 1 and 2 threads)."""
    a = as_float(a)
    n = a.shape[-2]
    ones = np.ones(n, a.dtype) if ones is None else ones[:n]
    if ones.shape != (n,) or ones.dtype != a.dtype:
        raise ShapeError(f"ones {ones.shape} {ones.dtype} cannot sum {n} rows of {a.dtype}")
    return np.matmul(ones, a, out=out)


def linear_weight_grad(
    x: np.ndarray, grad_out: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The weight gradient of linear_forward over stacked rows [n, d]:
    grad_out^T x, summed over the rows, written to `out` when given."""
    x = as_float(x)
    grad_out = as_float(grad_out)
    if x.ndim != 2 or grad_out.ndim != 2 or x.shape[0] != grad_out.shape[0]:
        raise ShapeError(
            f"x shape {x.shape} and grad_out shape {grad_out.shape} disagree"
        )
    return np.matmul(grad_out.T, x, out=out)


def linear_param_grads(
    x: np.ndarray,
    grad_out: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    ones: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of linear_forward over stacked rows x
    [n, d_in] and grad_out [n, d_out], without grad_x: linear_weight_grad
    and row_sum (which takes `ones`), each summed over the rows. `out` is
    (grad_weight, grad_bias) when given. For a layer whose input needs no
    gradient (the spatial encoding's).
    """
    out_w, out_b = (None, None) if out is None else out
    return linear_weight_grad(x, grad_out, out_w), row_sum(grad_out, ones, out_b)


def linear_backward(
    x: np.ndarray,
    layer: LinearLayer,
    grad_out: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ones: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse-mode rule for linear_forward over stacked rows x [n, d_in]
    and grad_out [n, d_out]: (grad_x, grad_weight, grad_bias), written to
    `out`, the same triple, when given. Any other rank is a ShapeError.

    grad_x = grad_out W; the weight/bias gradients are linear_param_grads
    (which takes `ones`).
    """
    x = as_float(x)
    grad_out = as_float(grad_out)
    if x.shape[-1] != layer.d_in:
        raise ShapeError(f"x has {x.shape[-1]} features, expected {layer.d_in}")
    if grad_out.shape[-1] != layer.d_out:
        raise ShapeError(
            f"grad_out has {grad_out.shape[-1]} features, expected {layer.d_out}"
        )
    out_x, out_w, out_b = (None, None, None) if out is None else out
    grad_weight, grad_bias = linear_param_grads(x, grad_out, (out_w, out_b), ones)
    grad_x = np.matmul(grad_out, layer.weight, out=out_x)
    return grad_x, grad_weight, grad_bias


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), written to `out` when given."""
    return np.maximum(as_float(x), 0.0, out=out)


def relu_backward(
    x: np.ndarray,
    grad_out: np.ndarray,
    out: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Pass gradient where x > 0; the subgradient at exactly 0 is 0.

    x may be the ReLU input or its output: both are > 0 at the same places.
    The result, in grad_out's dtype, is written to `out` when given, which
    may be x or grad_out. Same bits as np.where(x > 0, grad_out, 0.0), NaN
    included: the gradient's bit pattern, as a signed integer of its item
    size (int64 for float64, int32 for float32), is multiplied by the mask
    (1 keeps it, 0 gives +0.0), which is faster than np.where or a masked
    copy and needs no full-size temporary beyond the bool mask x > 0. That
    mask is written to `mask`, a bool array of x's shape, when given.
    """
    x = as_float(x)
    grad_out = as_float(grad_out)
    if x.shape != grad_out.shape:
        raise ShapeError(f"x shape {x.shape} != grad_out shape {grad_out.shape}")
    keep = np.greater(x, 0.0, out=mask)
    if out is None:
        out = np.empty_like(grad_out)
    elif out.dtype != grad_out.dtype:
        raise ShapeError(f"out dtype {out.dtype} != grad_out dtype {grad_out.dtype}")
    bits = np.dtype(f"i{grad_out.itemsize}")
    np.multiply(grad_out.view(bits), keep, out=out.view(bits))
    return out


@dataclass
class AdamState:
    """Adam moments shaped like the param they track (in training, the
    whole flat parameter vector). v entries stay >= 0 by construction.
    `scratch` holds two more vectors of that shape, allocated once, that
    adam_step works in, so that a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        with allocating(f"a model of {self.m.size} parameters"):
            self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        """Zero moments; a ConfigError when numpy cannot allocate them."""
        with allocating(f"a model of {param.size} parameters"):
            m, v = np.zeros_like(param), np.zeros_like(param)
        return cls(m=m, v=v)


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One Adam update with bias-corrected moments; returns the new param,
    written to `out` when given (param itself for an update in place).

    The state's m and v are updated in place, and its step incremented
    before bias correction. The update is computed in the param's dtype,
    whatever the grad's, with the operations of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    param - lr*m_hat / (sqrt(v_hat) + eps) in that order, so `out` changes
    no bit. The cast gradient and every intermediate live in the state's
    scratch vectors. A non-finite gradient is an OptimizerError, raised
    before param, out, m, v or step is written; training.fit names the
    tensor that holds it.
    """
    grad = np.asarray(grad)
    target = param if out is None else out
    if not param.shape == grad.shape == state.m.shape == target.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape}, out {target.shape} disagree"
        )
    g, tmp = state.scratch
    np.copyto(g, grad)  # the gradient in the param's dtype
    # max |g| is inf or NaN exactly when some entry is (without a bool array)
    if not np.isfinite(np.abs(g, out=tmp).max(initial=0.0)):
        raise OptimizerError("non-finite gradient")
    state.step += 1
    m, v = state.m, state.v
    np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.divide(v, 1.0 - ADAM_BETA2**state.step, out=tmp)  # v_hat
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    delta = np.divide(m, 1.0 - ADAM_BETA1**state.step, out=g)  # m_hat; g is spent
    delta *= lr
    delta /= tmp
    return np.subtract(param, delta, out=out)


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
