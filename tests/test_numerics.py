import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from lightweather.errors import OptimizerError, ShapeError
from lightweather.numerics import (
    AdamState,
    LinearLayer,
    adam_step,
    linear_backward,
    linear_forward,
    linear_param_grads,
    relu,
    relu_backward,
    row_sum,
)
import lightweather
from oracles import finite_diff_check


def test_linear_forward_identity():
    layer = LinearLayer(weight=np.eye(2), bias=np.zeros(2))
    assert_array_equal(linear_forward(np.array([3.0, -1.0]), layer), [3.0, -1.0])


def test_linear_forward_hand_multiply():
    layer = LinearLayer(weight=np.array([[1.0, 2.0], [0.0, 1.0]]), bias=np.array([1.0, 1.0]))
    assert_array_equal(linear_forward(np.array([1.0, 1.0]), layer), [4.0, 2.0])


def test_linear_forward_zero_weight_gives_bias():
    layer = LinearLayer(weight=np.zeros((1, 3)), bias=np.array([5.0]))
    assert_array_equal(linear_forward(np.array([9.0, -2.0, 7.0]), layer), [5.0])


def test_linear_forward_shape_error():
    layer = LinearLayer(weight=np.eye(2), bias=np.zeros(2))
    with pytest.raises(ShapeError):
        linear_forward(np.zeros(3), layer)


def test_linear_backward_zero_grad():
    layer = LinearLayer(weight=np.full((2, 3), 1.5), bias=np.zeros(2))
    gx, gw, gb = linear_backward(np.ones((1, 3)), layer, np.zeros((1, 2)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_linear_backward_scalar_chain_rule():
    layer = LinearLayer(weight=np.array([[2.0]]), bias=np.array([0.0]))
    gx, gw, gb = linear_backward(np.array([[3.0]]), layer, np.array([[1.0]]))
    assert gx == 2.0 and gw == 3.0 and gb == 1.0


def _signed_unit(rng, shape):
    # magnitudes in [0.5, 1.5] with random sign: keeps every true gradient
    # entry O(1) so finite-difference rounding noise stays far below it
    return rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


@settings(max_examples=40, deadline=None)
@given(
    d_in=st.integers(1, 64),
    d_out=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_backward_matches_finite_differences(d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    layer = LinearLayer(weight=_signed_unit(rng, (d_out, d_in)), bias=_signed_unit(rng, d_out))
    x = _signed_unit(rng, (1, d_in))  # one row
    # scalar probe loss: dot(probe, Wx + b)
    probe = _signed_unit(rng, (1, d_out))

    def loss_and_grad(params):
        probed = LinearLayer(weight=params["w"], bias=params["b"])
        y = linear_forward(x, probed)
        _, gw, gb = linear_backward(x, probed, probe)
        return float(probe[0] @ y[0]), {"w": gw, "b": gb}

    # the probe loss is exactly linear in the parameters, so a large step has
    # no truncation error and keeps rounding noise well below the tolerance
    err = finite_diff_check(loss_and_grad, {"w": layer.weight, "b": layer.bias}, 1e-4)
    assert err < 1e-6


def test_relu_basic():
    assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_all_negative():
    x = np.array([-3.0, -0.5])
    assert_array_equal(relu(x), [0.0, 0.0])
    assert_array_equal(relu_backward(x, np.ones(2)), [0.0, 0.0])


def test_relu_subgradient_at_zero_is_zero():
    assert_array_equal(relu_backward(np.array([1.0, -1.0]), np.array([1.0, 1.0])), [1.0, 0.0])
    assert_array_equal(relu_backward(np.array([0.0]), np.array([1.0])), [0.0])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_relu_idempotent(xs):
    x = np.array(xs)
    assert_array_equal(relu(relu(x)), relu(x))


SPECIAL = st.sampled_from([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan])


@given(st.lists(st.tuples(SPECIAL, SPECIAL), min_size=1, max_size=20))
def test_relu_backward_same_bits_as_where(pairs):
    a, g = (np.array(v) for v in zip(*pairs))
    expected = np.where(a > 0.0, g, 0.0).view(np.uint64)
    for x in (a, relu(a)):  # masking on the input or the output agrees
        assert_array_equal(relu_backward(x, g).view(np.uint64), expected)
        buf = g.copy()
        assert relu_backward(x, buf, out=buf) is buf
        assert_array_equal(buf.view(np.uint64), expected)


F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
SPECIAL_F32 = st.sampled_from(
    [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, F32_TINY, -F32_TINY, 3 * F32_TINY]
)


@given(st.lists(st.tuples(SPECIAL_F32, SPECIAL_F32), min_size=1, max_size=20))
def test_relu_backward_float32_same_bits_as_where(pairs):
    # float32 masks its int32 bit pattern; subnormals must keep their bits too
    a, g = (np.array(v, dtype=np.float32) for v in zip(*pairs))
    expected = np.where(a > 0, g, np.float32(0)).view(np.uint32)
    for x in (a, relu(a)):
        result = relu_backward(x, g)
        assert result.dtype == np.float32
        assert_array_equal(result.view(np.uint32), expected)
        buf = g.copy()
        assert relu_backward(x, buf, out=buf) is buf
        assert_array_equal(buf.view(np.uint32), expected)
    with pytest.raises(ShapeError, match="dtype"):
        relu_backward(a, g, out=np.empty(a.shape))


def test_primitives_keep_float32():
    rng = np.random.default_rng(4)
    layer = LinearLayer(
        weight=rng.normal(size=(4, 3)).astype(np.float32),
        bias=rng.normal(size=4).astype(np.float32),
    )
    x = rng.normal(size=(5, 3))  # float64 rows are cast to the weight's dtype
    y = linear_forward(x, layer)
    assert y.dtype == np.float32
    assert relu(y).dtype == np.float32
    g = rng.normal(size=(5, 4)).astype(np.float32)
    assert all(a.dtype == np.float32 for a in linear_backward(y[:, :3], layer, g))
    assert all(a.dtype == np.float32 for a in linear_param_grads(y[:, :3], g))
    assert linear_forward([1, 2, 3], layer).dtype == np.float32
    assert relu([1, -2]).dtype == np.float64  # non-float input is taken as float64


def test_adam_applies_float32_grad_in_param_dtype():
    param = np.array([1.0, -2.0])
    grad32 = np.array([0.1, 0.3], dtype=np.float32)
    s32, s64 = AdamState.zeros_like(param), AdamState.zeros_like(param)
    new32 = adam_step(param, grad32, s32, lr=0.01)
    new64 = adam_step(param, grad32.astype(np.float64), s64, lr=0.01)
    assert new32.dtype == s32.m.dtype == s32.v.dtype == np.float64
    assert new32.tobytes() == new64.tobytes()
    assert s32.v.tobytes() == s64.v.tobytes()


def test_out_argument_writes_only_out():
    a = np.array([-2.0, 0.5, 3.0])
    g = np.array([1.0, 2.0, 3.0])
    buf = np.empty(3)
    assert relu(a, out=buf) is buf and not np.shares_memory(buf, a)
    assert relu_backward(a, g, out=buf) is buf
    assert_array_equal(buf, [0.0, 2.0, 3.0])
    x = a.copy()
    assert relu_backward(x, g, out=x) is x  # the mask is taken before writing
    assert_array_equal(x, [0.0, 2.0, 3.0])
    assert_array_equal(a, [-2.0, 0.5, 3.0])
    assert_array_equal(g, [1.0, 2.0, 3.0])
    assert not np.shares_memory(relu(a), a)
    assert not np.shares_memory(relu_backward(a, g), g)


def test_linear_param_grads_match_linear_backward():
    rng = np.random.default_rng(3)
    layer = LinearLayer(weight=rng.normal(size=(4, 3)), bias=rng.normal(size=4))
    for shape in ((1, 3), (5, 3)):
        x = rng.normal(size=shape)
        g = rng.normal(size=shape[:-1] + (4,))
        _, gw, gb = linear_backward(x, layer, g)
        pw, pb = linear_param_grads(x, g)
        assert_array_equal(pw, gw)
        assert_array_equal(pb, gb)
    with pytest.raises(ShapeError):
        linear_param_grads(np.zeros((5, 3)), np.zeros((6, 4)))
    for grads in (linear_param_grads, lambda x, g: linear_backward(x, layer, g)):
        with pytest.raises(ShapeError):  # a single vector is not rows
            grads(np.zeros(3), np.zeros(4))


def test_adam_zero_grad_keeps_param():
    p = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros_like(p)
    out = adam_step(p, np.zeros(3), state, lr=5e-4)
    assert_array_equal(out, p)


def test_adam_scalar_first_step():
    # m_hat = 0.5, v_hat = 0.25 -> delta = lr * 0.5 / (0.5 + eps) ~= lr
    p = np.array([1.0])
    state = AdamState.zeros_like(p)
    out = adam_step(p, np.array([0.5]), state, lr=5e-4)
    assert out[0] == pytest.approx(0.9995, abs=1e-7)
    assert state.step == 1


def test_adam_second_identical_step_same_magnitude():
    p = np.array([1.0])
    g = np.array([0.5])
    state = AdamState.zeros_like(p)
    p1 = adam_step(p, g, state, lr=5e-4)
    d1 = p[0] - p1[0]
    p2 = adam_step(p1, g, state, lr=5e-4)
    d2 = p1[0] - p2[0]
    assert abs(d2 - d1) <= 0.01 * abs(d1)


@given(st.integers(0, 2**32 - 1))
def test_adam_lr_zero_is_identity(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=7)
    state = AdamState.zeros_like(p)
    out = adam_step(p, rng.normal(size=7), state, lr=0.0)
    assert_array_equal(out, p)


def test_adam_nonfinite_grad_is_optimizer_error():
    # adam_step sees one flat vector; training.fit names the tensor
    p = np.zeros(2)
    state = AdamState.zeros_like(p)
    with pytest.raises(OptimizerError, match="^non-finite gradient$"):
        adam_step(p, np.array([np.nan, 0.0]), state, lr=1e-3)


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
def test_adam_out_in_place_same_bits_as_returning_form(grad_dtype):
    rng = np.random.default_rng(12)
    p_fresh = rng.normal(size=(3, 5))
    p_inplace = p_fresh.copy()
    s_fresh, s_inplace = AdamState.zeros_like(p_fresh), AdamState.zeros_like(p_fresh)
    for _ in range(3):
        g = rng.normal(size=(3, 5)).astype(grad_dtype)
        g_before = g.copy()
        m, v = s_inplace.m, s_inplace.v
        p_fresh_before = p_fresh.copy()
        new = adam_step(p_fresh, g, s_fresh, lr=1e-2)
        assert not np.shares_memory(new, p_fresh)
        assert_array_equal(p_fresh, p_fresh_before)  # the returning form leaves param
        p_fresh = new
        assert adam_step(p_inplace, g, s_inplace, lr=1e-2, out=p_inplace) is p_inplace
        assert s_inplace.m is m and s_inplace.v is v  # moments updated in place
        assert g.tobytes() == g_before.tobytes()
        assert p_inplace.tobytes() == p_fresh.tobytes()
        assert s_inplace.m.tobytes() == s_fresh.m.tobytes()
        assert s_inplace.v.tobytes() == s_fresh.v.tobytes()
    assert s_inplace.step == s_fresh.step == 3


def test_adam_nonfinite_grad_writes_nothing():
    p = np.ones(3)
    state = AdamState.zeros_like(p)
    with pytest.raises(OptimizerError):
        adam_step(p, np.array([0.5, np.inf, 0.0]), state, lr=1e-3, out=p)
    assert_array_equal(p, np.ones(3))
    assert state.step == 0 and not state.m.any() and not state.v.any()


def test_adam_v_stays_nonnegative():
    p = np.zeros(4)
    state = AdamState.zeros_like(p)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = adam_step(p, rng.normal(size=4), state, lr=1e-2)
    assert (state.v >= 0).all()


def test_finite_diff_quadratic_loss():
    rng = np.random.default_rng(5)
    p = rng.normal(size=10)

    def loss_and_grad(params):
        q = params["p"]
        return 0.5 * float(q @ q), {"p": q.copy()}

    assert finite_diff_check(loss_and_grad, {"p": p}, 1e-5) < 1e-7


def test_finite_diff_unused_param_grad_zero():
    rng = np.random.default_rng(6)
    used = rng.normal(size=3)
    unused = rng.normal(size=3)

    def loss_and_grad(params):
        q = params["used"]
        return 0.5 * float(q @ q), {"used": q.copy(), "unused": np.zeros(3)}

    err = finite_diff_check(loss_and_grad, {"used": used, "unused": unused}, 1e-5)
    assert err < 1e-7


def test_operations_are_deterministic():
    rng = np.random.default_rng(9)
    layer = LinearLayer(weight=rng.normal(size=(16, 16)), bias=rng.normal(size=16))
    x = rng.normal(size=(8, 16))
    g = rng.normal(size=(8, 16))
    assert_array_equal(linear_forward(x, layer), linear_forward(x, layer))
    for a, b in zip(linear_backward(x, layer, g), linear_backward(x, layer, g)):
        assert_array_equal(a, b)


def test_layer_shape_validation():
    with pytest.raises(ShapeError):
        LinearLayer(weight=np.zeros((2, 2)), bias=np.zeros(3))
    layer = LinearLayer(weight=np.zeros((2, 2)), bias=np.zeros(2))
    with pytest.raises(ShapeError):
        linear_backward(np.zeros(2), layer, np.zeros(3))


def test_adam_step_in_place_allocates_nothing_when_warm():
    rng = np.random.default_rng(13)
    param = rng.normal(size=25_880)  # the default model's parameter vector
    grad = rng.normal(size=param.size).astype(np.float32)
    state = AdamState.zeros_like(param)
    adam_step(param, grad, state, lr=1e-3, out=param)
    tracemalloc.start()
    try:
        adam_step(param, grad, state, lr=1e-3, out=param)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_out_forms_same_bits_as_allocating_forms(dtype):
    rng = np.random.default_rng(14)
    layer = LinearLayer(
        weight=rng.normal(size=(5, 3)).astype(dtype), bias=rng.normal(size=5).astype(dtype)
    )
    x = rng.normal(size=(70, 3)).astype(dtype)
    g = rng.normal(size=(70, 5)).astype(dtype)
    ones = np.ones(100, dtype)

    def same(got, want, out):
        assert got is out and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    out = np.empty((70, 5), dtype)
    same(linear_forward(x, layer, out=out), linear_forward(x, layer), out)
    outs = (np.empty((70, 3), dtype), np.empty((5, 3), dtype), np.empty(5, dtype))
    for got, want, o in zip(
        linear_backward(x, layer, g, out=outs, ones=ones), linear_backward(x, layer, g), outs
    ):
        same(got, want, o)
    out = np.empty(5, dtype)
    same(row_sum(g, ones, out=out), row_sum(g), out)
    assert_allclose(row_sum(g), g.sum(axis=0), rtol=10 * np.finfo(dtype).eps * len(g))
    stacked = g.reshape(7, 10, 5)
    assert row_sum(stacked, ones).tobytes() == np.stack([row_sum(b) for b in stacked]).tobytes()
    with pytest.raises(ShapeError):
        row_sum(g, ones[:69])
    with pytest.raises(ShapeError):
        linear_forward(x, layer, out=np.empty((70, 4), dtype))


# The reduction runs in a fresh interpreter for each BLAS thread count,
# which OpenBLAS reads when numpy loads: bias gradients (one [n, d] block),
# per-window sums ([B, rows, d]) and per-station sums ([B, rows * d]) at the
# wide benchmark's chunk of 2 windows of 3850 rows (CHUNK_ROWS = 8192), and
# at the chunk of 4 windows it had at CHUNK_ROWS = 16384. Only these shapes
# are checked: others can split by thread (ones[16] @ a[16, 32000] does).
_ROW_SUM_DIGEST = """
import hashlib
import numpy as np
from lightweather.numerics import row_sum
g = np.random.default_rng(15).normal(size=(15_400, 64)).astype(np.float32)
ones = np.ones(len(g), np.float32)
sums = []
for b in (2, 4):
    gb = g[: b * 3850]
    sums += [row_sum(gb, ones), row_sum(gb.reshape(b, 3850, 64), ones), row_sum(gb.reshape(b, -1), ones)]
print(hashlib.sha256(b"".join(s.tobytes() for s in sums)).hexdigest())
"""


def test_row_sum_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(lightweather.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run(
            [sys.executable, "-c", _ROW_SUM_DIGEST],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
