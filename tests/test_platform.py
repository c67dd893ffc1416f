"""Platform facts that the exactness contracts stand on.

These tests exercise numpy and its BLAS, not vcgen: each pins a property
of the installed libraries, at the model's real shapes, that a contract
relies on. A failure here means the platform changed, and its message
names the contract and the code that would break.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

D, D_FFN = 128, 256  # d_model and d_ffn of the desk model

STACKED_SLICES = (
    "a slice of a stacked product must be bitwise the product of that slice "
    "alone. tensor.linear_kernel runs every slice of two or more rows as one "
    "stacked product and relies on it in the T >= 2 training and scoring "
    "forwards; data.exact_batches relies on it, so that an example scores as "
    "it would alone in its batch; and decoding's attention relies on it for "
    "its one-query slices. Decoding's one-row projections do not: "
    "tensor.linear_kernel runs them as 8-row tiles"
)

TILE_ROWS_INDEPENDENT = (
    "a row's bits in a stacked product of 8-row tiles must not depend on its "
    "position in its tile or on its tile-mates, whether zeros or other rows. "
    "tensor.linear_kernel runs decoding's one-row slices as zero-padded "
    "8-row tiles and relies on it for the decoding row-independence "
    "contract: a decoding row's states and logits do not depend on the "
    "other rows that step with it"
)
TILE_TRIALS = 40


def _assert_slices_are_lone_products(x: np.ndarray, w: np.ndarray) -> None:
    stacked = x @ w
    for i in range(len(x)):
        assert np.array_equal(stacked[i], x[i] @ w), (
            f"[{', '.join(map(str, x.shape))}] @ [{', '.join(map(str, w.shape))}], slice {i}: {STACKED_SLICES}"
        )


@pytest.mark.parametrize("rows", [2, 5, 64])
@pytest.mark.parametrize("k, n", [(D, D), (D, D_FFN), (D_FFN, D)])
def test_decode_row_slices_are_lone_products(rows, k, n):
    """[S, 1, k] one-row slices through a projection or feed-forward weight.
    Decoding's projections run such rows as 8-row tiles (the tile tests
    below); this pins the one-row case of the stacked-slice fact that
    exact_batches and decoding's one-query attention products stand on."""
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


def _assert_tile_rows_are_independent(w: np.ndarray, dtype) -> None:
    """Each trial puts one row in three [8, k] tiles of one stacked product,
    at three positions: among zeros, among random rows, and among random
    rows again; every copy must have the bits of the row alone at the top
    of a zero tile."""
    k = w.shape[0]
    rng = np.random.default_rng([k, w.shape[1], np.dtype(dtype).itemsize])
    for trial in range(TILE_TRIALS):
        row = rng.normal(size=k).astype(dtype)
        alone = np.zeros((1, 8, k), dtype=dtype)
        alone[0, 0] = row
        tiles = np.concatenate([np.zeros((1, 8, k), dtype=dtype), rng.normal(size=(2, 8, k)).astype(dtype)])
        positions = rng.integers(0, 8, size=3)
        tiles[np.arange(3), positions] = row
        expected = (alone @ w)[0, 0]
        got = (tiles @ w)[np.arange(3), positions]
        for mates, result in zip(("zeros", "random rows", "random rows"), got):
            assert np.array_equal(result, expected), (
                f"{np.dtype(dtype).name} [8, {k}] @ [{', '.join(map(str, w.shape))}] tiles, trial {trial}, "
                f"row among {mates}: {TILE_ROWS_INDEPENDENT}"
            )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, n", [(D, D), (D, D_FFN), (D_FFN, D), (16, 16), (16, 32), (32, 16)])
def test_tile_rows_do_not_depend_on_their_tile_mates(dtype, k, n):
    """Decoding's rows as 8-row tiles through a projection or feed-forward
    weight, at the desk model's shapes and at 16-wide ones."""
    rng = np.random.default_rng([k, n])
    _assert_tile_rows_are_independent((rng.normal(size=(k, n)) * 0.02).astype(dtype), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("vocab", [54, 1000])
def test_lm_head_tile_rows_do_not_depend_on_their_tile_mates(dtype, vocab):
    """Decoding's rows as 8-row tiles through the LM head, the transposed
    view of the [V, d] token embedding."""
    emb = (np.random.default_rng(vocab).normal(size=(vocab, D)) * 0.02).astype(dtype)
    assert not emb.T.flags.c_contiguous
    _assert_tile_rows_are_independent(emb.T, dtype)


OFFSET_FREE = (
    "a product's bits must not depend on where its operands start in memory, "
    "their offsets mod 64 bytes: the kernels run faster over a 64-byte-aligned "
    "weight but must not round differently. model.aligned_copy puts every "
    "parameter on a 64-byte boundary, while activations land wherever the "
    "heap puts them; the contract that logs, checkpoints and generations do "
    "not depend on where arrays land relies on it"
)
OFFSETS = (0, 16, 32, 48)


def _at_offset(array: np.ndarray, offset: int) -> np.ndarray:
    """A C-contiguous copy of ``array`` whose data starts ``offset`` bytes
    past a 64-byte boundary."""
    raw = np.empty(array.nbytes + 64 + offset, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    out = raw[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
    out[...] = array
    assert out.ctypes.data % 64 == offset
    return out


def _assert_offset_free(x: np.ndarray, w: np.ndarray, transposed: bool = False) -> None:
    """``x @ w`` (``x @ w.T`` if ``transposed``) with each operand at every
    offset has the bits of the product with both at offset 0."""
    def product(x_offset, w_offset):
        stored = _at_offset(w, w_offset)
        return _at_offset(x, x_offset) @ (stored.T if transposed else stored)

    expected = product(0, 0)
    shape = f"{x.dtype.name} [{', '.join(map(str, x.shape))}] @ [{', '.join(map(str, w.shape))}]{'.T' if transposed else ''}"
    for x_offset, w_offset in itertools.product(OFFSETS, OFFSETS):
        assert np.array_equal(product(x_offset, w_offset), expected), (
            f"{shape}, x at offset {x_offset}, w at offset {w_offset}: {OFFSET_FREE}"
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, n", [(D, D), (D, D_FFN), (D_FFN, D)])
@pytest.mark.parametrize("rows, length", [(5, 8), (33, 14), (16, 30)])
def test_products_do_not_depend_on_their_operands_offsets(rows, length, k, n, dtype):
    """Projection and feed-forward weights under decoding's [S, 8, k] one-row
    tiles, a scoring chunk's [33, 14, k] and a training batch's [16, 30, k]
    stacked products."""
    rng = np.random.default_rng([rows, length, k, n])
    x = rng.normal(size=(rows, length, k)).astype(dtype)
    _assert_offset_free(x, (rng.normal(size=(k, n)) * 0.02).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("vocab", [54, 1000])
@pytest.mark.parametrize("rows, length", [(5, 8), (33, 14)])
def test_lm_head_products_do_not_depend_on_their_operands_offsets(rows, length, vocab, dtype):
    """Decoding tiles and a scoring chunk through the LM head, the transposed
    view of the [V, d] token embedding."""
    rng = np.random.default_rng([rows, length, vocab])
    x = rng.normal(size=(rows, length, D)).astype(dtype)
    _assert_offset_free(x, (rng.normal(size=(vocab, D)) * 0.02).astype(dtype), transposed=True)


MASKED_KEYS = (
    "attention over keys padded with masked positions must differ in bits from "
    "attention over the unpadded keys: the masked keys add exact zeros, but the "
    "longer softmax sum and probs @ v product pair their terms differently. "
    "Model.decode_step and data.exact_batches rely on it: decode_step runs "
    "cross-attention once per run of rows of one encoder length, over keys cut "
    "at that length, and exact_batches batches only examples of one encoder "
    "length, so that no key is ever padded"
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
