"""Fused tape nodes against their unfused chains, and the copy-free
gradient-flow contract of ``Tape.backward``."""

from __future__ import annotations

import inspect
import itertools

import numpy as np
import pytest

import vcgen.tensor as tensor_mod
from vcgen.tensor import (
    NEG_MASK_VALUE,
    Tape,
    Tensor,
    add,
    attention,
    cross_entropy,
    dropout,
    gather_rows,
    gelu,
    kl_divergence,
    layer_norm,
    linear,
    log_softmax,
    reshape,
    scale,
    scatter_rows,
    split_heads,
    transpose,
)

from helpers import WatchTape
from oracles import assert_grads_close, central_difference_grads
from ops import mul, sum_all, unfused_attention, unfused_linear, unfused_split_heads

D, HEADS = 128, 4  # the model's width and head count
DTYPES = (np.float32, np.float64)


def _leaves(rng, dtype, **shapes):
    return {name: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for name, shape in shapes.items()}


def _run(build, leaves, weights):
    """Value of ``build(fresh)`` and the grads of a weighted sum of it, on
    fresh leaves over the same data buffers."""
    fresh = {name: Tensor(t.data, requires_grad=True) for name, t in leaves.items()}
    with Tape() as tape:
        out = build(fresh)
        loss = sum_all(mul(out, Tensor(weights)))
    tape.backward(loss)
    return out.data, {name: t.grad for name, t in fresh.items()}


def _assert_same_as_chain(fused, chain, leaves, out_shape, rng):
    weights = rng.normal(size=out_shape).astype(next(iter(leaves.values())).dtype)
    value, grads = _run(fused, leaves, weights)
    ref_value, ref_grads = _run(chain, leaves, weights)
    assert value.dtype == ref_value.dtype and np.array_equal(value, ref_value)
    for name in leaves:
        assert grads[name].dtype == ref_grads[name].dtype, name
        assert np.array_equal(grads[name], ref_grads[name]), f"gradient of {name} differs from the chain's"


# ---------------------------------------------------------------------------
# fused nodes == unfused chains, bit for bit


@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_on_3d_input_is_the_unfused_chain(dtype):
    rng = np.random.default_rng(1)
    leaves = _leaves(rng, dtype, x=(4, 7, D), w=(D, 2 * D), b=(2 * D,))
    _assert_same_as_chain(
        lambda t: linear(t["x"], t["w"], t["b"]),
        lambda t: unfused_linear(t["x"], t["w"], t["b"]),
        leaves, (4, 7, 2 * D), rng,
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_linear_with_tied_embedding_weight_is_the_unfused_chain(dtype):
    """The LM head: the weight is the transposed [V, d] embedding, a view."""
    rng = np.random.default_rng(2)
    leaves = _leaves(rng, dtype, hidden=(3, 6, D), emb=(54, D), bias=(54,))
    _assert_same_as_chain(
        lambda t: linear(t["hidden"], transpose(t["emb"]), t["bias"]),
        lambda t: unfused_linear(t["hidden"], transpose(t["emb"]), t["bias"]),
        leaves, (3, 6, 54), rng,
    )


def _key_bias(rng, dtype, rows, length):
    mask = np.ones((rows, length), dtype=bool)
    for r in range(rows):
        mask[r, rng.integers(1, length + 1):] = False
    return np.where(mask, 0.0, NEG_MASK_VALUE).astype(dtype)[:, None, None, :]


def _causal_bias(dtype, length):
    bias = np.triu(np.full((length, length), NEG_MASK_VALUE, dtype=dtype), k=1)
    return bias.reshape(1, length, length)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", ["key_bias", "causal", "no_bias"])
def test_attention_over_split_heads_is_the_unfused_chain(dtype, case):
    """Projected [B, T, d] inputs split into heads, attended and merged:
    cross-attention shaped (T_q != T_k) with a [B, 1, 1, T_k] key bias,
    self-attention with the [1, T, T] causal bias, and no bias."""
    rng = np.random.default_rng(3)
    rows, t_q = 3, 6
    t_k = 9 if case == "key_bias" else t_q
    leaves = _leaves(rng, dtype, xq=(rows, t_q, D), xk=(rows, t_k, D), xv=(rows, t_k, D))
    bias = {"key_bias": _key_bias(rng, dtype, rows, t_k), "causal": _causal_bias(dtype, t_q), "no_bias": None}[case]

    def build(split, attend):
        return lambda t: attend(*(split(t[name], HEADS) for name in ("xq", "xk", "xv")), bias)

    _assert_same_as_chain(
        build(split_heads, attention), build(unfused_split_heads, unfused_attention), leaves, (rows, t_q, D), rng
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_attention_over_a_cache_view_is_the_unfused_chain(dtype):
    """Decoding: [S, H, 1, dk] queries over the first t + 1 positions of a
    [S, H, max_len, dk] key/value cache, read through a slice view."""
    rng = np.random.default_rng(4)
    rows, max_len, t, dk = 5, 32, 6, D // HEADS
    k_cache = rng.normal(size=(rows, HEADS, max_len, dk)).astype(dtype)
    v_cache = rng.normal(size=(rows, HEADS, max_len, dk)).astype(dtype)
    leaves = {
        "q": Tensor(rng.normal(size=(rows, HEADS, 1, dk)).astype(dtype), requires_grad=True),
        "k": Tensor(k_cache[:, :, : t + 1], requires_grad=True),
        "v": Tensor(v_cache[:, :, : t + 1], requires_grad=True),
    }
    assert not leaves["k"].data.flags.c_contiguous

    def build(attend):
        return lambda t: attend(t["q"], t["k"], t["v"], None)

    _assert_same_as_chain(build(attention), build(unfused_attention), leaves, (rows, 1, D), rng)


def test_attention_values_are_a_convex_mix_of_values():
    """Each context row is a probability-weighted mix of the value rows, so
    a constant value tensor comes back unchanged, whatever the bias."""
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(2, HEADS, 3, 8)))
    k = Tensor(rng.normal(size=(2, HEADS, 4, 8)))
    v = Tensor(np.full((2, HEADS, 4, 8), 0.25))
    out = attention(q, k, v, _key_bias(rng, np.float64, 2, 4))
    assert out.shape == (2, 3, HEADS * 8)
    assert np.allclose(out.data, 0.25, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# copy-free gradient flow


def test_shared_gradient_buffers_give_exact_gradients_and_private_leaf_grads():
    """``x`` reaches the loss through ``add(x, x)`` (one buffer handed to
    both inputs), the head split and two reshapes, all of whose rules return
    views; ``y`` and ``z`` meet in an ``add`` that hands both the same
    buffer. The float64 gradients match central differences, and no leaf's
    grad shares memory with another's."""
    rng = np.random.default_rng(6)
    leaves = _leaves(rng, np.float64, x=(2, 3, 8), y=(2, 3, 8), z=(2, 3, 8), w=(8, 8), b=(8,))
    c1, c2 = (Tensor(rng.normal(size=(2, 24))) for _ in range(2))

    def build():
        t = leaves
        heads = split_heads(add(t["x"], t["x"]), 2)
        merged = reshape(add(heads, split_heads(linear(t["x"], t["w"], t["b"]), 2)), (2, 24))
        first = sum_all(mul(add(merged, reshape(t["x"], (2, 24))), c1))
        return add(first, sum_all(mul(reshape(add(t["y"], t["z"]), (2, 24)), c2)))

    numeric = central_difference_grads(lambda: {"loss": float(build().data)}, leaves)["loss"]
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    assert_grads_close({name: t.grad for name, t in leaves.items()}, numeric, rtol=1e-6, label="copy-free")
    for (a, ta), (b, tb) in itertools.combinations(leaves.items(), 2):
        assert not np.shares_memory(ta.grad, tb.grad), f"grads of {a} and {b} share memory"


def _public_ops():
    """The module's public tape ops; an op's ``*_kernel`` is its array
    forward and records nothing."""
    return {
        name
        for name, fn in inspect.getmembers(tensor_mod, inspect.isfunction)
        if fn.__module__ == tensor_mod.__name__ and not name.startswith("_") and not name.endswith("_kernel")
    }


def _op_cases(rng):
    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    probs = Tensor(rng.dirichlet(np.ones(5), size=3))
    heads = leaf(2, 3, 8)
    return {
        "add": lambda: add(leaf(3, 4), leaf(4)),
        "scale": lambda: scale(leaf(3, 4), 0.5),
        "linear": lambda: linear(leaf(2, 3, 4), leaf(4, 5), leaf(5)),
        "transpose": lambda: transpose(leaf(3, 4)),
        "reshape": lambda: reshape(leaf(3, 4), (2, 6)),
        "split_heads": lambda: split_heads(heads, 2),
        "gather_rows": lambda: gather_rows(leaf(5, 3), [[0, 2], [2, 4]]),
        "scatter_rows": lambda: scatter_rows(leaf(2, 5, 3), leaf(2, 3), [1, 8]),
        "gelu": lambda: gelu(leaf(3, 4)),
        "log_softmax": lambda: log_softmax(leaf(3, 5)),
        "layer_norm": lambda: layer_norm(leaf(3, 4), leaf(4), leaf(4)),
        "dropout": lambda: dropout(leaf(3, 4), 0.5, np.random.default_rng(0)),
        "cross_entropy": lambda: cross_entropy(leaf(3, 5), [1, 0, 4]),
        "kl_divergence": lambda: kl_divergence(probs, leaf(3, 5)),
        "attention": lambda: attention(
            split_heads(leaf(2, 3, 8), 2), split_heads(leaf(2, 4, 8), 2), split_heads(leaf(2, 4, 8), 2),
            _key_bias(rng, np.float64, 2, 4),
        ),
    }


def test_no_backward_rule_writes_into_its_incoming_gradient():
    """Every op of ``vcgen.tensor`` runs its backward rule on a read-only
    ``g``: an in-place write into it would raise. Each input that takes a
    gradient gets one, and no other input does."""
    rng = np.random.default_rng(7)
    cases = _op_cases(rng)
    assert set(cases) == _public_ops(), "every op needs a case here"
    for name, build in cases.items():
        with WatchTape() as tape:
            build()
        assert len(tape), name
        for node, output in zip(tape._ops, tape.outputs, strict=True):
            g = rng.normal(size=output.shape)
            g.setflags(write=False)
            before = g.copy()
            grads = node.backward(g)
            assert np.array_equal(g, before), name
            assert all((grad is not None) == (key is not None) for grad, key in zip(grads, node.ins)), name


def test_no_backward_rule_holds_a_tensor():
    """A rule captures arrays, shapes, dtypes and flags, never a tensor, so
    a recorded op pins only the arrays its backward reads."""
    cases = _op_cases(np.random.default_rng(8))
    for name, build in cases.items():
        with Tape() as tape:
            build()
        for node in tape._ops:
            held = [cell.cell_contents for cell in node.backward.__closure__ or ()]
            assert not any(isinstance(value, Tensor) for value in held), name
