"""Platform facts that the exactness contracts stand on.

These tests exercise numpy and its BLAS, not vcgen: each pins a property
of the installed libraries, at the model's real shapes, that a contract
relies on. A failure here means the platform changed, and its message
names the contract and the code that would break.
"""

from __future__ import annotations

import numpy as np
import pytest

D, D_FFN = 128, 256  # d_model and d_ffn of the desk model

STACKED_SLICES = (
    "a slice of a stacked product must be bitwise the product of that slice "
    "alone. tensor.linear runs stacked per-slice products and relies on it, so "
    "that a decoding row's states do not depend on the other rows of its "
    "chunk; data.exact_batches relies on it, so that an example scores as it "
    "would alone in its batch"
)


def _assert_slices_are_lone_products(x: np.ndarray, w: np.ndarray) -> None:
    stacked = x @ w
    for i in range(len(x)):
        assert np.array_equal(stacked[i], x[i] @ w), (
            f"[{', '.join(map(str, x.shape))}] @ [{', '.join(map(str, w.shape))}], slice {i}: {STACKED_SLICES}"
        )


@pytest.mark.parametrize("rows", [2, 5, 64])
@pytest.mark.parametrize("k, n", [(D, D), (D, D_FFN), (D_FFN, D)])
def test_decode_row_slices_are_lone_products(rows, k, n):
    """Decoding's [S, 1, k] rows through a projection or feed-forward weight."""
    rng = np.random.default_rng([rows, k, n])
    x = rng.normal(size=(rows, 1, k)).astype(np.float32)
    w = (rng.normal(size=(k, n)) * 0.02).astype(np.float32)
    _assert_slices_are_lone_products(x, w)


@pytest.mark.parametrize("length", [1, 9, 40])
def test_batch_slices_are_lone_products(length):
    """A [16, T, d] batch of equal-length examples through a d x d weight."""
    rng = np.random.default_rng(length)
    x = rng.normal(size=(16, length, D)).astype(np.float32)
    w = (rng.normal(size=(D, D)) * 0.02).astype(np.float32)
    _assert_slices_are_lone_products(x, w)


@pytest.mark.parametrize("vocab", [54, 1000])
@pytest.mark.parametrize("rows", [2, 8, 64])
def test_lm_head_row_slices_are_lone_products(vocab, rows):
    """Decoding rows through the LM head, whose weight is the transposed
    view of the [V, d] token embedding."""
    rng = np.random.default_rng([vocab, rows])
    emb = (rng.normal(size=(vocab, D)) * 0.02).astype(np.float32)
    x = rng.normal(size=(rows, 1, D)).astype(np.float32)
    assert not emb.T.flags.c_contiguous
    _assert_slices_are_lone_products(x, emb.T)


MASKED_KEYS = (
    "attention over keys padded with masked positions must differ in bits from "
    "attention over the unpadded keys: the masked keys add exact zeros, but the "
    "longer softmax sum and probs @ v product pair their terms differently. "
    "Model.decode_step's per-length-group cross-attention and data.exact_batches "
    "rely on it: they group rows and examples by exact encoder length so that no "
    "key is ever padded"
)


def _attention_parts(q, k, v, bias):
    """The softmax sums and the context of the numpy expressions
    tensor.attention runs."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    if bias is not None:
        scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    sums = probs.sum(axis=-1, keepdims=True)
    return sums, (probs / sums) @ v


@pytest.mark.parametrize("rows", [2, 8])
@pytest.mark.parametrize("length", [14, 15])
def test_masked_extra_keys_change_the_attention_sums(rows, length):
    """Decoding's cross-attention: [rows, 4, 1, 32] queries over the keys of
    one encoding of ``length`` positions, alone and padded to 16 with masked
    keys."""
    rng = np.random.default_rng([rows, length])
    q = rng.normal(size=(rows, 4, 1, 32)).astype(np.float32)
    k, v = rng.normal(size=(2, rows, 4, 16, 32)).astype(np.float32)
    mask = np.where(np.arange(16) < length, 0.0, -1e9).astype(np.float32)
    sums, context = _attention_parts(q, k[:, :, :length], v[:, :, :length], None)
    padded_sums, padded_context = _attention_parts(q, k, v, mask)
    shape = f"[{rows}, 4, 1, 32] queries over {length} keys padded to 16"
    assert not np.array_equal(sums, padded_sums), f"{shape}, softmax sums: {MASKED_KEYS}"
    assert not np.array_equal(context, padded_context), f"{shape}, probs @ v: {MASKED_KEYS}"
