"""Tensor engine: op values, backward rules, and graph invariants."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcgen
from vcgen import synthetic, train
from vcgen.config import preset
from vcgen.data import pad_batch
from vcgen.losses import combine_losses, compute_losses
from vcgen.model import Model, assemble_input
from vcgen.optim import AdamW
from vcgen.tensor import (
    ARRAYS,
    TAPE,
    Tape,
    Tensor,
    _ERF_CHUNK,
    _erf,
    add,
    cross_entropy,
    dropout,
    gather_rows,
    gelu,
    kl_divergence,
    layer_norm,
    linear,
    linear_kernel,
    log_softmax,
    reshape,
    scale,
    scatter_rows,
    transpose,
)
from vcgen.vocab import build_vocab

from helpers import WatchTape, denoise_seed_with_both_masks
from oracles import ReferenceTape, assert_grads_close, central_difference_grads
from ops import concat, matmul, mean_all, mul, permute, slice_axis, softmax, sum_all


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    eye = t64(np.eye(2))
    m = t64([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    out = matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))


def test_matmul_2d_right_operand_matches_per_slice_loop():
    rng = np.random.default_rng(3)
    a = t64(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = t64(rng.normal(size=(5, 6)), requires_grad=True)
    upstream = rng.normal(size=(2, 3, 4, 6))
    with Tape() as tape:
        out = matmul(a, b)
        loss = sum_all(mul(out, t64(upstream)))
    tape.backward(loss)
    grad_b = np.zeros_like(b.data)
    for idx in np.ndindex(2, 3):
        assert np.allclose(out.data[idx], a.data[idx] @ b.data, rtol=0, atol=1e-12)
        assert np.allclose(a.grad[idx], upstream[idx] @ b.data.T, rtol=0, atol=1e-12)
        grad_b += a.data[idx].T @ upstream[idx]
    assert b.grad.shape == b.shape
    assert np.allclose(b.grad, grad_b, rtol=0, atol=1e-12)


def test_matmul_stacked_rows_are_bitwise_single_row_products():
    """Each [1, d] slice of a stacked [S, 1, d] @ [d, d] product of the
    reference matmul equals the 1-row product alone."""
    rng = np.random.default_rng(4)
    d = 128
    w = Tensor(rng.normal(size=(d, d)).astype(np.float32))
    for rows in (2, 3, 5, 8):
        x = Tensor(rng.normal(size=(rows, 1, d)).astype(np.float32))
        stacked = matmul(x, w).data
        for r in range(rows):
            assert np.array_equal(stacked[r], matmul(Tensor(x.data[r]), w).data)


def test_matmul_rejects_stacked_right_operand_with_other_leading_dims():
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        matmul(t64(np.zeros((3, 4))), t64(np.zeros((2, 4, 5))))
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        matmul(t64(np.zeros((3, 2, 4))), t64(np.zeros((2, 4, 5))))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 64), k=st.integers(1, 48), n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_linear_kernel_one_row_slices_are_each_row_alone(rows, k, n, seed):
    """Decoding's [S, 1, k] rows, which linear_kernel runs as 8-row tiles:
    each row has the bits of that row alone as [1, 1, k], the tape's linear
    has the bits of ARRAYS.linear, and the result is the float64 product
    within float32 rounding."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 1, k)).astype(np.float32)
    w = (rng.normal(size=(k, n)) / np.sqrt(k)).astype(np.float32)
    b = rng.normal(size=n).astype(np.float32)
    out = linear_kernel(x, w, b)
    assert out.shape == (rows, 1, n) and out.dtype == np.float32
    for r in range(rows):
        assert np.array_equal(out[r], linear_kernel(x[r : r + 1], w, b)[0]), f"row {r} of {rows}"
    assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, ARRAYS.linear(x, w, b))
    exact = x.astype(np.float64) @ w.astype(np.float64) + b
    bound = (k + 1) * np.finfo(np.float32).eps * (np.abs(x) @ np.abs(w).astype(np.float64) + np.abs(b))
    assert (np.abs(out - exact) <= bound).all()


def test_softmax_uniform_logits():
    out = softmax(t64([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 0.25)


def test_softmax_extreme_logits_stable():
    out = softmax(Tensor(np.array([1000.0, 0.0], dtype=np.float32)))
    assert abs(out.data[0] - 1.0) < 1e-30
    assert abs(out.data[1]) < 1e-30
    assert np.all(np.isfinite(out.data))


def test_softmax_closed_form():
    out = softmax(t64([np.log(2.0), 0.0]))
    assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax(t64(rng.normal(size=(5, 7)) * 3.0))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-5)


def test_cross_entropy_uniform_is_log_v():
    logits = t64(np.zeros((3, 4)))
    assert float(cross_entropy(logits, [0, 1, 3]).data) == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_confident_is_zero():
    logits = np.full((2, 5), -1e4)
    logits[0, 2] = 1e4
    logits[1, 0] = 1e4
    assert float(cross_entropy(t64(logits), [2, 0]).data) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_scalar_recomputation():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(3, 5))
    targets = [4, 0, 2]
    expected = 0.0
    for row, target in zip(logits, targets):
        probs = np.exp(row) / np.exp(row).sum()
        expected += -np.log(probs[target])
    expected /= 3.0
    assert float(cross_entropy(t64(logits), targets).data) == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        logits = rng.normal(size=(4, 6)) * 3.0
        targets = rng.integers(0, 6, size=4)
        assert float(cross_entropy(t64(logits), targets).data) >= 0.0


def test_kl_divergence_identical_is_zero():
    p = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    out = kl_divergence(t64(p), t64(np.log(p)))
    assert float(out.data) == pytest.approx(0.0, abs=1e-12)


def test_kl_divergence_closed_form():
    out = kl_divergence(t64([[1.0, 0.0]]), t64(np.log([[0.5, 0.5]])))
    assert float(out.data) == pytest.approx(np.log(2.0), rel=1e-12)


def test_kl_divergence_matches_scalar_recomputation():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(6), size=4)
    q = rng.dirichlet(np.ones(6), size=4)
    expected = 0.0
    for pr, qr in zip(p, q):
        expected += sum(pi * (np.log(pi) - np.log(qi)) for pi, qi in zip(pr, qr) if pi > 0)
    expected /= 4.0
    out = kl_divergence(t64(p), t64(np.log(q)))
    assert float(out.data) == pytest.approx(expected, abs=1e-6)


def test_kl_divergence_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = rng.dirichlet(np.ones(5), size=3)
        q = rng.dirichlet(np.ones(5), size=3)
        val = float(kl_divergence(t64(p), t64(np.log(q))).data)
        assert val >= 0.0
        if not np.allclose(p, q, atol=1e-6):
            assert val > 0.0


def test_layer_norm_constant_vector_is_zero_before_affine():
    x = t64(np.full((2, 8), 3.7))
    gain = t64(np.ones(8))
    bias = t64(np.zeros(8))
    out = layer_norm(x, gain, bias)
    assert np.allclose(out.data, 0.0, atol=1e-6)


@pytest.mark.parametrize("scale", [1e20, 1e25, 1e30, 1e35, 3e38])
def test_layer_norm_of_float32_rows_past_the_square_range_matches_float64(scale):
    """Rows whose float32 sum of squares, or sum, overflows: one huge value
    among ordinary ones, all huge of one sign, huge of both signs. Forward
    and backward agree with a float64 oracle, with no warning, and the
    ordinary rows interleaved with them keep the bits they get alone."""
    rng = np.random.default_rng(0)
    d = 16
    ordinary = rng.normal(size=(3, d))
    one = rng.normal(size=d)
    one[5] = scale
    huge = [one, scale * rng.uniform(0.5, 1.0, d), scale * rng.uniform(-1.0, 1.0, d)]
    x = np.stack([row for pair in zip(ordinary, huge) for row in pair]).reshape(3, 2, d).astype(np.float32)
    gain, bias, upstream = (rng.normal(size=d).astype(np.float32) for _ in range(3))
    xt = Tensor(x, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            out = layer_norm(xt, Tensor(gain), Tensor(bias))
            loss = sum_all(mul(out, Tensor(upstream)))
        tape.backward(loss)

    wide = x.astype(np.float64)
    centered = wide - wide.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv_std
    dxhat = upstream * gain.astype(np.float64)
    grad = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert np.all(np.abs(out.data - (xhat * gain + bias)) <= 1e-5)
    assert np.all(np.abs(xt.grad - grad) <= 1e-4 * inv_std)

    alone = layer_norm(Tensor(x[:, 0]), Tensor(gain), Tensor(bias)).data
    assert np.array_equal(out.data[:, 0], alone)


def test_gelu_zero():
    assert gelu(t64([0.0])).data[0] == 0.0


def test_scipy_never_loads():
    """The package's only dependency is numpy: not even gelu loads scipy."""
    src = str(Path(vcgen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, vcgen.cli, vcgen.data, vcgen.metrics\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
        "import numpy as np\n"
        "from vcgen.tensor import Tensor, gelu\n"
        "gelu(Tensor(np.zeros(1, np.float32)))\n"
        "gelu(Tensor(np.zeros(1, np.float64)))\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def _float32_blocks(lo: float, hi: float, block: int = 1 << 20):
    """Every float32 in [lo, hi), for 0 < lo < hi, in blocks of at most
    ``block`` values, so that memory stays bounded."""
    first, end = (int(np.float32(v).view(np.uint32)) for v in (lo, hi))
    for start in range(first, end, block):
        yield np.arange(start, min(start + block, end), dtype=np.uint32).view(np.float32)


def _assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    same = actual.view(np.uint32) == expected.view(np.uint32)
    same |= np.isnan(actual) & np.isnan(expected)
    bad = np.flatnonzero(~same)
    assert bad.size == 0, f"{bad.size} mismatches, first at {actual.reshape(-1)[bad[:3]]} vs {expected.reshape(-1)[bad[:3]]}"


def test_erf_matches_scipy_bitwise_float32():
    """scipy serves only as the oracle: every float32 in ±[0.5, 4), where
    both of erf's branches and their seam at 1 live, the special values, and
    a seeded sample of raw bit patterns (NaNs, infinities and subnormals
    included)."""
    from scipy.special import erf as scipy_erf

    for x in _float32_blocks(0.5, 4.0):
        for signed in (x, -x):
            _assert_bitwise_equal(_erf(signed), scipy_erf(signed))
    f32 = np.finfo(np.float32)
    one = np.float32(1.0)
    special = np.array(
        [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal, 2.0**-12, -(2.0**-12),
         np.nextafter(one, np.float32(0)), one, np.nextafter(one, np.float32(2)), -one,
         8.0, -8.0, f32.max, -f32.max, np.inf, -np.inf, np.nan],
        dtype=np.float32,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _erf(special)
    _assert_bitwise_equal(ours, scipy_erf(special))
    assert ours[0] == 0.0 and not np.signbit(ours[0]) and np.signbit(ours[1])
    # A signaling NaN sharing a chunk with |x| > 1 elements: they are still
    # recomputed. Its cast to float64 flags invalid, as any numpy cast does;
    # gelu never passes one, since x/√2 quiets it.
    shared = np.array([2.0, 0.0, -3.0, 0.5], dtype=np.float32)
    shared.view(np.uint32)[1] = 0x7F800001
    with np.errstate(invalid="ignore"):
        ours = _erf(shared)
    _assert_bitwise_equal(ours, scipy_erf(shared))
    bits = np.random.default_rng(20210101).integers(0, 2**32, size=10**6, dtype=np.uint64).astype(np.uint32)
    sample = bits.view(np.float32).reshape(1000, 1000)
    with np.errstate(invalid="ignore"):  # the sample holds signaling NaNs too
        ours = _erf(sample)
    _assert_bitwise_equal(ours, scipy_erf(sample))


def test_erf_recomputes_each_chunks_own_tail():
    """|x| > 1 elements are recomputed in whichever chunk holds them: the
    first, the partial last, or none, with tail-free chunks in between."""
    from scipy.special import erf as scipy_erf

    n = 2 * _ERF_CHUNK + 100
    base = np.random.default_rng(5).uniform(-0.9, 0.9, n).astype(np.float32)
    for where in ([3], [n - 1], [5, n - 50], []):
        x = base.copy()
        x[where] = -2.5
        _assert_bitwise_equal(_erf(x), scipy_erf(x))


def test_erf_float64_within_one_ulp_of_scipy():
    from scipy.special import erf as scipy_erf

    rng = np.random.default_rng(907)
    special = [0.0, -0.0, 5e-324, 1.0, -1.0, 8.0, 1e300, -1e300, np.inf, -np.inf, np.nan, 0.0]
    x = np.concatenate([rng.normal(0.0, 2.0, 10**5), rng.uniform(-8.0, 8.0, 10**5), special])
    x.view(np.uint64)[-1] = 0x7FF0000000000001  # a signaling NaN in a chunk with |x| > 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = _erf(x)
    theirs = scipy_erf(x)
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan) and nan.sum() == 2
    assert np.array_equal(np.signbit(ours[~nan]), np.signbit(theirs[~nan]))
    assert np.abs(ours[~nan].view(np.int64) - theirs[~nan].view(np.int64)).max() <= 1


def test_dropout_rate_zero_is_identity():
    x = t64([1.0, 2.0, 3.0], requires_grad=True)
    assert dropout(x, 0.0, np.random.default_rng(0)) is x
    assert TAPE.dropout(x) is x
    assert ARRAYS.dropout(x.data) is x.data


def test_dropout_inverted_scaling_and_constant_mask():
    x = Tensor(np.ones(10_000, dtype=np.float64), requires_grad=True)
    out = dropout(x, 0.25, np.random.default_rng(0))
    kept = out.data != 0.0
    assert np.allclose(out.data[kept], 1.0 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.02


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones():
    x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_elementwise_square():
    x = t64([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    tape.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data)


def test_backward_requires_scalar():
    x = t64(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_backward_loss_must_be_on_tape():
    x = t64(np.ones(3), requires_grad=True)
    with Tape() as tape:
        sum_all(x)
    stray = sum_all(x)  # recorded on no tape
    with pytest.raises(ValueError, match="tape"):
        tape.backward(stray)


def test_second_backward_on_a_walked_tape_raises():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    tape.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ValueError, match="walked by an earlier backward"):
        tape.backward(loss)
    assert np.array_equal(x.grad, first)
    assert len(tape) == 2


def test_backward_over_two_tapes_adds_both_grads_into_a_shared_leaf():
    """x feeds two losses recorded on two tapes: walking both adds into
    x.grad, bit for bit the sum of what each tape gives alone."""
    rng = np.random.default_rng(4)
    x = t64(rng.normal(size=(3, 4)), requires_grad=True)
    w = t64(rng.normal(size=(4, 4)), requires_grad=True)

    def walk(*losses):
        x.grad = None
        for build in losses:
            with Tape() as tape:
                loss = build()
            tape.backward(loss)
        return x.grad

    def first():
        return sum_all(gelu(matmul(x, w)))

    def second():
        return sum_all(mul(x, x))

    g1, g2 = walk(first), walk(second)
    assert np.array_equal(walk(first, second), g1 + g2)


def test_backward_deterministic_after_reset():
    rng = np.random.default_rng(2)
    x = t64(rng.normal(size=(3, 3)), requires_grad=True)
    w = t64(rng.normal(size=(3, 3)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        with Tape() as tape:
            loss = sum_all(gelu(matmul(x, w)))
        tape.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# what a tape keeps


def _desk_step(n: int = 4):
    """A desk-preset model and one training batch of n examples per dataset
    stream, with the terms each stream carries in pretraining."""
    vocab = build_vocab(synthetic.full_corpus_lines(), min_freq=1)
    config = preset("desk").model
    config.vocab_size = len(vocab)
    config.d_visual, config.n_classes, config.n_attr, config.n_rel = 16, 10, 8, 6
    model = Model.init_random(config, 3)
    streams = (
        (synthetic.make_vcg_dataset(n, seed=[3, 0], prefix="kcg"), "kcg", {"kcg"}),
        (synthetic.make_region_dataset(n, seed=[3, 1]), "ap", {"ap", "rp"}),
        (synthetic.make_caption_dataset(n, seed=[3, 2]), "mlm", {"mlm", "mrm"}),
    )
    batches = []
    for examples, task, wanted in streams:
        seeds = [denoise_seed_with_both_masks(ex, vocab) if task == "mlm" else i for i, ex in enumerate(examples)]
        items = [(assemble_input(ex, vocab, task, seed=seed), ex) for seed, ex in zip(seeds, examples)]
        batches.append((pad_batch(items), wanted))
    return model, batches


def test_a_desk_training_forward_records_a_pinned_number_of_tape_nodes():
    """Time goes to op dispatch, so the node count of a forward is pinned:
    a desk model on a batch of 16 per stream, with dropout drawn."""
    model, batches = _desk_step(16)
    counts = {}
    for batch, wanted in batches:
        with Tape() as tape:
            compute_losses(model, batch, wanted, np.random.default_rng(0))
        counts[min(wanted)] = len(tape)
    assert counts == {"kcg": 107, "ap": 114, "mlm": 113}


def test_backward_gives_grad_to_leaves_only_with_the_reference_bits():
    """After a desk-model step's backward, no intermediate tensor holds a
    grad, and every parameter's grad is bitwise the one the tape that kept
    every gradient gives."""
    model, batches = _desk_step()
    grads = {}
    for tape_type in (ReferenceTape, WatchTape):
        model.zero_grad()
        rng = np.random.default_rng(9)
        with tape_type() as tape:
            terms = {}
            for batch, wanted in batches:
                terms.update(compute_losses(model, batch, wanted, rng))
            total, _ = combine_losses(terms)
        tape.backward(total)
        grads[tape_type] = {name: p.grad for name, p in model.params.items()}
    assert len(terms) == 5
    assert tape.outputs and all(t.grad is None for t in tape.outputs)
    for name, ref in grads[ReferenceTape].items():
        mine = grads[WatchTape][name]
        assert (mine is None) == (ref is None), name
        assert ref is None or np.array_equal(mine, ref), name
    assert sum(g is not None for g in grads[WatchTape].values()) > len(model.params) // 2


def _residual_backward(n_blocks: int, rows: int = 4096, d: int = 64) -> tuple[int, int, int, Tape]:
    """Backward of n residual ``x + linear(x)`` blocks over a [rows, d]
    float32 activation. Returns the traced bytes it allocates at its peak
    above what the forward left held, and the traced bytes still held when
    it returns above what was held before recording, both less the leaves'
    grads; the bytes of one activation; and the walked tape."""
    rng = np.random.default_rng(n_blocks)
    x = Tensor(rng.normal(size=(rows, d)).astype(np.float32))
    params = [
        (Tensor(rng.normal(scale=0.1, size=(d, d)).astype(np.float32), requires_grad=True),
         Tensor(np.zeros(d, np.float32), requires_grad=True))
        for _ in range(n_blocks)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            h = x
            for w, b in params:
                h = add(h, linear(h, w, b))
            loss = sum_all(h)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    leaf_grads = sum(w.grad.nbytes + b.grad.nbytes for w, b in params)
    return peak - held - leaf_grads, after - before - leaf_grads, x.data.nbytes, tape


def test_backward_peak_is_a_few_buffers_whatever_the_depth():
    """Consumed gradients are freed, so the backward of a deep residual
    stack needs a few activation-sized buffers above the forward's, not
    one or two per block."""
    for n_blocks in (2, 16):
        excess, _, activation, _ = _residual_backward(n_blocks)
        assert excess <= 4 * activation, (n_blocks, excess / activation)


class _MeteredTape(Tape):
    """A tape that notes the traced bytes held as recording starts and as
    its backward returns, and keeps itself in ``made``."""

    made: list["_MeteredTape"] = []

    def __enter__(self):
        self.before = tracemalloc.get_traced_memory()[0]
        _MeteredTape.made.append(self)
        return super().__enter__()

    def backward(self, loss):
        super().backward(loss)
        self.after = tracemalloc.get_traced_memory()[0]


def test_walked_tape_holds_no_rule_and_frees_the_activations(monkeypatch):
    """Backward clears each op's rule as it runs, so once it returns the
    tape pins no activation: above what was held before recording, only
    the leaves' grads and at most two activation buffers are still held.
    Both a 16-block residual stack and a desk training step."""
    _, retained, activation, tape = _residual_backward(16)
    assert len(tape) == 33 and not any(tape._ops)
    assert retained <= 2 * activation, retained / activation

    model, batches = _desk_step(16)
    cfg = preset("desk")
    optimizer = AdamW(model.params)
    monkeypatch.setattr(_MeteredTape, "made", [])
    monkeypatch.setattr(train, "Tape", _MeteredTape)
    tracemalloc.start()
    try:
        assert train._train_step(model, optimizer, batches, cfg.loss_weights, cfg, 0, 0) is not None
    finally:
        tracemalloc.stop()
    [tape] = _MeteredTape.made
    assert len(tape) > 100 and not any(tape._ops)
    leaf_grads = sum(p.grad.nbytes for p in model.params.values() if p.grad is not None)
    # the step's widest activation: one stream's float32 [batch, positions, d_model] state
    activation = 4 * cfg.model.d_model * max(max(b.enc_ids.size, b.dec_ids.size) for b, _ in batches)
    retained = tape.after - tape.before - leaf_grads
    assert retained <= 2 * activation, retained / activation


# ---------------------------------------------------------------------------
# finite-difference checks per op


def _fd_check(build_loss, params, label, rtol=1e-3):
    def eval_fn():
        return {"loss": float(build_loss().data)}

    numeric = central_difference_grads(eval_fn, params)["loss"]
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    analytic = {name: p.grad if p.grad is not None else np.zeros_like(p.data) for name, p in params.items()}
    assert_grads_close(analytic, numeric, rtol=rtol, label=label)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = t64(rng.normal(size=(4, 4)), requires_grad=True)
    b = t64(rng.normal(size=(4, 4)), requires_grad=True)
    _fd_check(lambda: sum_all(matmul(a, b)), {"a": a, "b": b}, "matmul")


@pytest.mark.parametrize(
    "name",
    ["softmax", "log_softmax", "gelu", "layer_norm", "add_broadcast", "mul", "concat_slice",
     "gather_scatter", "permute_reshape", "cross_entropy", "kl", "mean", "scale", "transpose"],
)
def test_op_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = t64(rng.normal(size=(3, 6)), requires_grad=True)
    params = {"x": x}
    # fixed projection constants so repeated evaluations see the same graph
    c36 = t64(rng.normal(size=(3, 6)))
    c66 = t64(rng.normal(size=(6, 6)))
    c63 = t64(rng.normal(size=(6, 3)))

    if name == "softmax":
        build = lambda: sum_all(mul(softmax(x), c36))
    elif name == "log_softmax":
        build = lambda: sum_all(mul(log_softmax(x), c36))
    elif name == "gelu":
        build = lambda: sum_all(gelu(x))
    elif name == "layer_norm":
        gain = t64(rng.normal(size=6), requires_grad=True)
        bias = t64(rng.normal(size=6), requires_grad=True)
        params.update(gain=gain, bias=bias)
        build = lambda: sum_all(mul(layer_norm(x, gain, bias), c36))
    elif name == "add_broadcast":
        b = t64(rng.normal(size=6), requires_grad=True)
        params["b"] = b
        build = lambda: sum_all(mul(add(x, b), c36))
    elif name == "mul":
        y = t64(rng.normal(size=(3, 6)), requires_grad=True)
        params["y"] = y
        build = lambda: sum_all(mul(x, y))
    elif name == "concat_slice":
        y = t64(rng.normal(size=(2, 6)), requires_grad=True)
        params["y"] = y
        build = lambda: sum_all(mul(slice_axis(concat([x, y], axis=0), 0, 1, 4), c36))
    elif name == "gather_scatter":
        base = t64(rng.normal(size=(2, 3, 6)), requires_grad=True)
        params["base"] = base
        build = lambda: sum_all(mul(reshape(scatter_rows(base, gather_rows(x, [2, 0, 2]), [0, 2, 4]), (6, 6)), c66))
    elif name == "permute_reshape":
        build = lambda: sum_all(mul(reshape(permute(reshape(x, (3, 2, 3)), (1, 0, 2)), (6, 3)), c63))
    elif name == "cross_entropy":
        build = lambda: cross_entropy(x, [1, 5, 0])
    elif name == "kl":
        p = t64(rng.dirichlet(np.ones(6), size=3))
        build = lambda: kl_divergence(p, log_softmax(x))
    elif name == "mean":
        build = lambda: mean_all(mul(x, x))
    elif name == "scale":
        build = lambda: scale(sum_all(mul(x, x)), 0.37)
    elif name == "transpose":
        build = lambda: sum_all(mul(transpose(x), c63))

    _fd_check(build, params, name)


def test_forward_ops_stay_finite():
    rng = np.random.default_rng(42)
    x = t64(rng.normal(size=(4, 8)) * 50.0)
    for out in (
        softmax(x),
        log_softmax(x),
        gelu(x),
        layer_norm(x, t64(np.ones(8)), t64(np.zeros(8))),
        matmul(x, t64(rng.normal(size=(8, 4)))),
    ):
        assert np.all(np.isfinite(out.data))
