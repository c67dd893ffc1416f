"""The numeric range contract over magnitudes: no silently wrong number.

Values from 1e-30 to 3e38, of both signs and mixed within a row, go through
the float32 kernels. A kernel may give a non-finite result (the commands
exit 2 on a non-finite logit, score or gradient), but a finite result must
lie within tolerance of a float64 oracle. ``AdamW.step`` either updates
every parameter to finite values that agree with the float64 update, or
raises ``InputError``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcgen.errors import InputError
from vcgen.optim import AdamW
from vcgen.tensor import LAYER_NORM_EPS, Tensor, gelu_kernel, layer_norm_kernel, log_softmax_kernel

from oracles import adamw_step_reference

LOG10_MAX = math.log10(3e38)


@st.composite
def magnitudes(draw, size: int) -> np.ndarray:
    """``size`` float32 values, each ``±10**e`` for e in [-30, log10(3e38)]."""
    exponents = draw(st.lists(st.floats(-30.0, LOG10_MAX), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
    return (np.asarray(signs) * 10.0 ** np.asarray(exponents)).astype(np.float32)


@st.composite
def rows(draw) -> np.ndarray:
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 16))
    return draw(magnitudes(n * d)).reshape(n, d)


EPS32 = float(np.finfo(np.float32).eps)


def _inv_std64(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=-1, keepdims=True)
    return 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)


def _layer_norm64(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=-1, keepdims=True)) * _inv_std64(x)


def _layer_norm_tolerance(x: np.ndarray, want: np.ndarray) -> np.ndarray:
    # The float32 mean is off by up to d rounding steps of the row's largest
    # |x|; every centred value inherits that, and the norm scales it by
    # 1 / std. Rows of nearly equal values are ill-conditioned so.
    inherited = x.shape[-1] * EPS32 * np.abs(x).max(axis=-1, keepdims=True) * _inv_std64(x)
    return 16 * EPS32 * (1.0 + np.abs(want)) + inherited


def _gelu64(x: np.ndarray) -> np.ndarray:
    return x * 0.5 * np.vectorize(math.erfc)(-x / math.sqrt(2.0))


def _log_softmax64(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# kernel on float32 rows, its float64 oracle, and the absolute error allowed
# at each entry: a few float32 rounding steps of the result; for GELU also of
# x (its cdf, within a rounding step of 0 or 1, scales x); for log-softmax d
# steps (its sum of d exponentials).
KERNELS = {
    "layer_norm": (lambda x: layer_norm_kernel(x, np.float32(1.0), np.float32(0.0))[0], _layer_norm64,
                   _layer_norm_tolerance),
    "gelu": (lambda x: gelu_kernel(x)[0], _gelu64, lambda x, want: 8 * EPS32 * (np.abs(want) + np.abs(x))),
    "log_softmax": (log_softmax_kernel, _log_softmax64,
                    lambda x, want: x.shape[-1] * EPS32 * (1.0 + np.abs(want))),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(max_examples=200, deadline=None)
@given(x=rows())
@example(x=np.array([[1e21, 1.0, -1.0]], dtype=np.float32))
@example(x=np.array([[3e38, -3e38]], dtype=np.float32))
@example(x=np.array([[-3e38, 1e-30]], dtype=np.float32))
@example(x=np.array([[-1.0, -1.0001405]], dtype=np.float32))
def test_a_finite_float32_kernel_result_is_within_tolerance_of_float64(kernel, x):
    run, oracle, tolerance = KERNELS[kernel]
    # Overflow to a non-finite result is allowed here, and so is its warning.
    with np.errstate(all="ignore"):
        got = run(x)
    wide = x.astype(np.float64)
    want = oracle(wide)
    finite = np.isfinite(got)
    error = np.abs(got[finite] - want[finite])
    assert np.all(error <= tolerance(wide, want)[finite]), (x, got, want)


@st.composite
def adamw_cases(draw) -> tuple[np.ndarray, list[np.ndarray]]:
    """Weights of one parameter (a matrix, which decays, or a vector) and
    the gradients of 1 to 3 steps."""
    size, steps = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    shape = (1, size) if draw(st.booleans()) else (size,)
    return draw(magnitudes(size)).reshape(shape), [draw(magnitudes(size)).reshape(shape) for _ in range(steps)]


@settings(max_examples=200, deadline=None)
@given(case=adamw_cases())
@example(case=(np.ones((1, 3), dtype=np.float32), [np.array([[0.5, 1e21, -0.5]], dtype=np.float32)]))
@example(case=(np.full((1, 2), 3e38, dtype=np.float32), [np.array([[1e-30, -1.8e19]], dtype=np.float32)] * 3))
def test_adamw_step_updates_finitely_within_tolerance_of_float64_or_refuses(case):
    weights, grads = case
    lr, weight_decay = 1e-3, 0.01
    param = Tensor(weights.copy(), requires_grad=True)
    wide = Tensor(weights.astype(np.float64), requires_grad=True)
    opt = AdamW({"w": param}, lr=lr, weight_decay=weight_decay)
    m, v = {"w": np.zeros(wide.shape)}, {"w": np.zeros(wide.shape)}
    for t, grad in enumerate(grads, start=1):
        param.grad, wide.grad = grad, grad.astype(np.float64)
        try:
            opt.step()
        except InputError:
            return
        adamw_step_reference({"w": wide}, m, v, t, lr, 0.9, 0.999, 1e-8, weight_decay)
        assert np.isfinite(param.data).all(), case
        assert np.all(np.abs(param.data - wide.data) <= 1e-5 * (np.abs(wide.data) + lr)), case
