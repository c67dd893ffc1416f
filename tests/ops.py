"""Tape ops that only the tests use: building losses for gradient checks
and the per-example oracle's concatenation."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from vcgen.tensor import Tensor, _make


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
