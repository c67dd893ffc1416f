"""AdamW behavior against a hand-scripted trace."""

from __future__ import annotations

import numpy as np
import pytest

from vcgen.errors import InputError
from vcgen.optim import AdamW
from vcgen.tensor import Tensor

from oracles import adamw_step_reference, adamw_trace_reference


def scalar_param(value: float) -> Tensor:
    return Tensor(np.array([value], dtype=np.float64), requires_grad=True)


def test_zero_gradient_zero_decay_leaves_parameter_unchanged():
    p = scalar_param(1.5)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.zeros(1)
    opt.step()
    assert p.data[0] == pytest.approx(1.5, abs=0.0)


def test_none_gradient_is_skipped():
    p = scalar_param(2.0)
    opt = AdamW({"w": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    assert p.data[0] == 2.0
    assert np.all(opt._m["w"] == 0.0)


def test_constant_gradient_decreases_monotonically():
    p = scalar_param(0.0)
    opt = AdamW({"w": p}, lr=1e-2, weight_decay=0.0)
    values = []
    for _ in range(25):
        p.grad = np.array([0.7])
        opt.step()
        values.append(p.data[0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ten_steps_match_scripted_trace():
    # quadratic 0.5*(x - 3)^2, gradient x - 3
    lr, betas, eps, wd = 0.05, (0.9, 0.999), 1e-8, 0.0
    p = Tensor(np.array([[10.0]], dtype=np.float64), requires_grad=True)
    opt = AdamW({"w": p}, lr=lr, betas=betas, eps=eps, weight_decay=wd)
    grads = []
    mine = []
    x_ref = 10.0
    ref_grads = []
    for _ in range(10):
        g = p.data[0, 0] - 3.0
        grads.append(g)
        p.grad = np.array([[g]])
        opt.step()
        mine.append(p.data[0, 0])
    # the oracle replays the same gradient sequence
    trace = adamw_trace_reference(10.0, grads, lr, betas[0], betas[1], eps, wd, decay_applies=True)
    assert mine == pytest.approx(trace, abs=1e-6)


def test_decay_applies_to_matrices_and_trace_matches():
    lr, wd = 0.1, 0.04
    p = Tensor(np.array([[2.0]], dtype=np.float64), requires_grad=True)
    opt = AdamW({"w": p}, lr=lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=wd)
    grads = [0.3, -0.2, 0.1, 0.5]
    for g in grads:
        p.grad = np.array([[g]])
        opt.step()
    trace = adamw_trace_reference(2.0, grads, lr, 0.9, 0.999, 1e-8, wd, decay_applies=True)
    assert p.data[0, 0] == pytest.approx(trace[-1], abs=1e-9)


def test_decay_skips_one_dimensional_params():
    lr, wd = 0.1, 0.04
    p = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)  # 1-D: bias-like
    opt = AdamW({"b": p}, lr=lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=wd)
    grads = [0.3, -0.2]
    for g in grads:
        p.grad = np.array([g])
        opt.step()
    trace = adamw_trace_reference(2.0, grads, lr, 0.9, 0.999, 1e-8, wd, decay_applies=False)
    assert p.data[0] == pytest.approx(trace[-1], abs=1e-9)


def test_nonfinite_gradient_names_parameter():
    p = scalar_param(1.0)
    opt = AdamW({"enc.0.attn.q.weight": p})
    p.grad = np.array([np.nan])
    with pytest.raises(ValueError, match="enc.0.attn.q.weight"):
        opt.step()


def test_gradient_whose_square_overflows_float32_is_refused_before_any_state_changes():
    """A float32 gradient of 1e21 is finite, but its square is not: AdamW
    names the parameter instead of setting the second moment to inf for
    good, and leaves the parameter and its first moment as they were."""
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = AdamW({"dec.0.ffn.fc1.bias": p}, lr=0.1)
    p.grad = np.array([0.5, 1e21, -0.5], dtype=np.float32)
    with pytest.raises(InputError, match=r"^gradient whose square overflows for parameter 'dec.0.ffn.fc1.bias'$"):
        opt.step()
    assert np.array_equal(p.data, np.ones(3, dtype=np.float32))
    assert not opt._m["dec.0.ffn.fc1.bias"].any()


def test_state_round_trip():
    p = scalar_param(1.0)
    opt = AdamW({"w": p}, lr=0.1)
    p.grad = np.array([0.5])
    opt.step()
    state = opt.state_arrays()
    opt2 = AdamW({"w": p}, lr=0.1)
    opt2.load_state_arrays(state, opt.step_count)
    assert np.array_equal(opt2._m["w"], opt._m["w"])
    assert np.array_equal(opt2._v["w"], opt._v["w"])
    assert opt2.step_count == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_twenty_steps_match_whole_array_update_bitwise(dtype):
    """Scratch-buffer updates give the bits of the plain whole-array
    expressions, for decayed matrices and undecayed vectors alike."""
    rng = np.random.default_rng(11)
    shapes = {"w": (6, 5), "emb": (7, 4), "b": (5,), "gain": (4,)}
    start = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    mine = {name: Tensor(data.copy(), requires_grad=True) for name, data in start.items()}
    ref = {name: Tensor(data.copy(), requires_grad=True) for name, data in start.items()}
    opt = AdamW(mine, lr=3e-2, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
    m = {name: np.zeros_like(data) for name, data in start.items()}
    v = {name: np.zeros_like(data) for name, data in start.items()}
    for t in range(1, 21):
        for name, shape in shapes.items():
            g = rng.normal(size=shape).astype(dtype)
            mine[name].grad = g
            ref[name].grad = g.copy()
        opt.step()
        adamw_step_reference(ref, m, v, t, 3e-2, 0.9, 0.999, 1e-8, 0.01)
    for name in shapes:
        assert mine[name].data.dtype == dtype
        assert np.array_equal(mine[name].data, ref[name].data), name
        assert np.array_equal(opt._m[name], m[name]), name
        assert np.array_equal(opt._v[name], v[name]), name
