"""Tape ops that only the tests use: building losses for gradient checks,
the per-example oracle's concatenation and region mask (``mul``), and the
unfused matmul, permute and softmax whose chains the fused ``linear``,
``split_heads`` and ``attention`` nodes of ``vcgen.tensor`` are checked
against."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from vcgen.tensor import Tensor, _make, _unbroadcast, add, reshape, scale, transpose


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; backward splits the gradient."""
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(data, tensors, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    data = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bw(g):
        ga = _unbroadcast(g * b_data, a_shape) if b_data is not None else None
        gb = _unbroadcast(g * a_data, b_shape) if a_data is not None else None
        return ga, gb

    return _make(data, (a, b), bw)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along ``axis``."""
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = x.data[index]

    def bw(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _make(data, (x,), bw)


def sum_all(x: Tensor) -> Tensor:
    data = x.data.sum()

    def bw(g):
        return (np.full_like(x.data, g),)

    return _make(np.asarray(data), (x,), bw)


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    data = x.data.mean()

    def bw(g):
        return (np.full_like(x.data, g / n),)

    return _make(np.asarray(data), (x,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    Either both operands are stacked with identical leading dims, or ``b``
    is 2-D and is applied to every [m, k] slice of ``a``. Each slice of the
    stacked product is the same numpy product as that slice alone, so a
    row's result does not depend on how many rows share the stack.
    """
    a_shape, b_shape = a.data.shape, b.data.shape
    if (
        len(a_shape) < 2
        or len(b_shape) < 2
        or a_shape[-1] != b_shape[-2]
        or (len(b_shape) > 2 and a_shape[:-2] != b_shape[:-2])
    ):
        raise ValueError(f"matmul shape mismatch: {a_shape} x {b_shape}")
    data = a.data @ b.data

    if len(b_shape) == 2:
        # Backward treats the stacked rows of ``a`` as one [rows, k] matrix,
        # so each gradient is a single 2-D GEMM with no per-slice reduction.
        def bw(g):
            rows = g.reshape(-1, g.shape[-1])
            ga = (rows @ b.data.T).reshape(a_shape) if a.requires_grad else None
            gb = a.data.reshape(-1, a_shape[-1]).T @ rows if b.requires_grad else None
            return ga, gb

    else:

        def bw(g):
            ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
            gb = np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None
            return ga, gb

    return _make(data, (a, b), bw)


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = x.data.transpose(axes)

    def bw(g):
        return (g.transpose(np.argsort(axes)),)

    return _make(data, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along ``axis``; rows sum to 1."""
    if x.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, (x,), bw)


# ---------------------------------------------------------------------------
# the unfused chains of the fused nodes


def _swap_heads_axis(ndim: int) -> tuple[int, ...]:
    """Axis order that swaps the heads axis with the positions axis:
    [..., T, H, dk] <-> [..., H, T, dk]."""
    axes = list(range(ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return tuple(axes)


def unfused_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def unfused_split_heads(x: Tensor, heads: int) -> Tensor:
    split = reshape(x, x.shape[:-1] + (heads, x.shape[-1] // heads))
    return permute(split, _swap_heads_axis(split.ndim))


def unfused_attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None) -> Tensor:
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        scores = add(scores, Tensor(bias))
    ctx = permute(matmul(softmax(scores, axis=-1), v), _swap_heads_axis(q.ndim))
    return reshape(ctx, ctx.shape[:-2] + (ctx.shape[-2] * ctx.shape[-1],))
