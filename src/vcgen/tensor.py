"""Dense float tensors with reverse-mode automatic differentiation.

Operations run eagerly on numpy buffers. While a :class:`Tape` is active
(entered as a context manager), every op whose output needs gradients
records a backward rule onto it; ``Tape.backward(loss)`` then walks the
recording in reverse and accumulates gradients into the ``grad`` buffer of
every leaf (a ``requires_grad`` tensor no recorded op produced) reachable
from the loss. The fused ops (``linear``, ``split_heads``, ``layer_norm``,
``attention``, ``gelu``, ``scatter_rows``, ``log_softmax``) keep their
forward in a plain array kernel (``linear_kernel`` and so on). The op
tables ``TAPE`` and ``ARRAYS`` pair each op with its kernel, so the model
writes a layer once and runs it with or without the tape.

float32 is the working precision of the package. Ops inherit the dtype of
their inputs, so verification code (finite-difference checks) can run the
same graphs in float64 where float32 resolution would drown the signal.

All losses are in natural-log units (nats).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from collections import namedtuple
from typing import Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Row count of the tiles that one-row slices run as in ``linear_kernel``.
TILE_ROWS = 8

# Finite stand-in for -inf in attention masks; exp(x - max) underflows to
# exactly 0.0 for both float32 and float64, keeping outputs finite.
NEG_MASK_VALUE = -1e9


class Tensor:
    """A dense float array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._key: int | None = None  # set when a tape first records the tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(data: np.ndarray, requires_grad: bool) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = requires_grad
    out.grad = None
    out._key = None
    return out


class _Node:
    """One recorded op: the key of its output, the key of each input (None
    for an input that takes no gradient) and its backward rule. It holds no
    tensor; the rule holds only the arrays it reads."""

    __slots__ = ("out", "ins", "backward")

    def __init__(self, out: int, ins: tuple[int | None, ...], backward):
        self.out = out
        self.ins = ins
        self.backward = backward


_ACTIVE_TAPES: list["Tape"] = []
_KEYS = itertools.count()


class Tape:
    """Ordered recording of ops; replayed in reverse by :meth:`backward`.

    What a tape keeps: per op, a :class:`_Node` whose backward rule captures
    only the arrays that rule reads (plus shapes, dtypes and requires_grad
    flags), never the op's input or output tensors; and the leaves, the
    requires_grad tensors that no op recorded here produced. A tensor gets
    a key the first time it is recorded, and gradients are routed by key.

    Only leaves get ``grad``. :meth:`backward` walks the tape once, from
    the last op: it clears each op's slot as its rule runs, so the arrays
    that rule held are freed while the walk goes on, and it drops an op's
    output gradient as soon as that rule has consumed it, so a gradient
    lives only while some op still has to read it. A walked tape holds no
    rule and cannot be walked again; ``len`` still counts its ops.

    Gradients flow without copies: a backward rule may return its incoming
    gradient, or a view of it, for one or more inputs, and the same buffer
    may then reach several tensors. That is safe because no backward rule
    writes into its incoming ``g``, and :meth:`backward` accumulates out of
    place, so no buffer is written once a rule has seen it.
    """

    def __init__(self):
        self._ops: list[_Node | None] = []  # backward clears each slot as it walks
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_TAPES.pop()

    def __len__(self) -> int:
        return len(self._ops)

    def _record(self, output: Tensor, inputs: tuple[Tensor, ...], bw) -> None:
        ins = []
        for t in inputs:
            if not t.requires_grad:
                ins.append(None)
                continue
            if t._key is None:
                t._key = next(_KEYS)
            if t._key not in self._produced:
                self._leaves[t._key] = t
            ins.append(t._key)
        output._key = next(_KEYS)
        self._produced.add(output._key)
        self._ops.append(_Node(output._key, tuple(ins), bw))

    def backward(self, loss: Tensor) -> None:
        """Add d loss / d leaf into ``grad`` of every leaf reachable from loss.

        A tape is walked once; a second call raises. Gradients from several
        tapes still add into ``grad``: gradient flow uses a per-call scratch
        map, so grads already held are never re-propagated. No two leaves
        are handed grads that share a buffer.
        """
        if loss.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._key not in self._produced:
            raise ValueError("loss is not an output recorded on this tape")
        if self._ops[-1] is None:
            raise ValueError("this tape was walked by an earlier backward and holds no rules; record a new one")
        flows: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
        for i in reversed(range(len(self._ops))):
            op, self._ops[i] = self._ops[i], None
            out_grad = flows.pop(op.out, None)
            if out_grad is None:
                continue
            for key, grad in zip(op.ins, op.backward(out_grad)):
                if key is None or grad is None:
                    continue
                held = flows.get(key)
                flows[key] = grad if held is None else held + grad
        # Every produced key has been consumed; what is left are the leaves.
        leaf_buffers: set[int] = set()
        for key, grad in flows.items():
            # ``add`` hands one buffer to both of its inputs; a leaf's grad
            # is the caller's to modify, so each leaf owns its own.
            buffer = id(grad if grad.base is None else grad.base)
            if buffer in leaf_buffers:
                grad = grad.copy()
            leaf_buffers.add(buffer)
            tensor = self._leaves[key]
            tensor.grad = grad if tensor.grad is None else tensor.grad + grad


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], bw) -> Tensor:
    requires = False
    for t in inputs:
        if t.requires_grad:
            requires = True
            break
    out = _wrap(data, requires)
    if requires and _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1]._record(out, inputs, bw)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition with numpy broadcasting."""
    data = a.data + b.data
    a_shape = a.shape if a.requires_grad else None
    b_shape = b.shape if b.requires_grad else None

    def bw(g):
        ga = _unbroadcast(g, a_shape) if a_shape is not None else None
        gb = _unbroadcast(g, b_shape) if b_shape is not None else None
        return ga, gb

    return _make(data, (a, b), bw)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (kept out of the graph)."""
    factor = x.data.dtype.type(factor)
    data = x.data * factor

    def bw(g):
        return (g * factor,)

    return _make(data, (x,), bw)


def linear_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` on arrays: the forward of :func:`linear`.

    When every slice of ``x`` is one row (decoding's [S, 1, k] states), the
    S rows run as one stacked product over zero-padded [TILE_ROWS, k] tiles:
    at a fixed row count OpenBLAS keeps one kernel, so a row's bits do not
    depend on its tile-mates or its position. Every other shape runs
    ``x @ w``, whose slices each have the bits of that slice alone.
    """
    if x.ndim < 3 or x.shape[-2] != 1:
        out = x @ w
    else:
        k, n = w.shape
        rows = x.reshape(-1, k)
        count = len(rows)
        if count % TILE_ROWS:
            rows = np.concatenate([rows, np.zeros((-count % TILE_ROWS, k), dtype=rows.dtype)])
        out = (rows.reshape(-1, TILE_ROWS, k) @ w).reshape(-1, n)[:count].reshape(x.shape[:-1] + (n,))
    out += b
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of the last axis, as one tape node.

    ``w`` is a [k, n] matrix applied to every [m, k] slice of ``x``, and
    ``b`` a length-n bias. The forward is :func:`linear_kernel`: a slice of
    m >= 2 rows has the bits of that slice's product alone, and one-row
    slices run as fixed 8-row tiles, so in either case a row's result does
    not depend on how many rows share the stack. Backward treats the
    stacked rows of ``x`` as one [rows, k] matrix, so each gradient is a
    single 2-D GEMM with no per-slice reduction.
    """
    x_shape = x.data.shape
    if w.ndim != 2 or len(x_shape) < 2 or x_shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"linear shape mismatch: {x_shape} x {w.shape} + {b.shape}")
    k, n = w.shape
    data = linear_kernel(x.data, w.data, b.data)
    w_data = w.data if x.requires_grad else None
    x_data = x.data if w.requires_grad else None
    b_shape = b.shape if b.requires_grad else None

    def bw(g):
        rows = g.reshape(-1, n)
        gx = (rows @ w_data.T).reshape(x_shape) if w_data is not None else None
        gw = x_data.reshape(-1, k).T @ rows if x_data is not None else None
        gb = _unbroadcast(g, b_shape) if b_shape is not None else None
        return gx, gw, gb

    return _make(data, (x, w, b), bw)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    data = x.data.swapaxes(-1, -2)

    def bw(g):
        return (g.swapaxes(-1, -2),)

    return _make(data, (x,), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = x.shape
    data = x.data.reshape(shape)

    def bw(g):
        return (g.reshape(orig),)

    return _make(data, (x,), bw)


def split_heads_kernel(x: np.ndarray, heads: int) -> np.ndarray:
    """The [..., H, T, d / H] view of a [..., T, d] array: the forward of
    :func:`split_heads`."""
    shape = x.shape
    return x.reshape(shape[:-1] + (heads, shape[-1] // heads)).swapaxes(-3, -2)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """Split the last axis of [..., T, d] into heads and move them before
    the positions: a [..., H, T, d / H] view."""
    shape = x.shape
    if shape[-1] % heads != 0:
        raise ValueError(f"width {shape[-1]} does not split into {heads} heads")
    data = split_heads_kernel(x.data, heads)

    def bw(g):
        return (g.swapaxes(-3, -2).reshape(shape),)

    return _make(data, (x,), bw)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by an integer index array of any shape
    (the result has shape ``indices.shape + (d,)``); duplicate indices
    accumulate in backward."""
    idx = np.asarray(indices, dtype=np.int64)
    data = x.data[idx]
    shape, dtype = x.shape, x.dtype

    def bw(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, (x,), bw)


def scatter_rows_kernel(base: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A copy of ``base`` [..., d] with ``rows`` [n, d] written over its
    (distinct) flat rows ``idx``: the forward of :func:`scatter_rows`."""
    data = base.copy()
    data.reshape(-1, data.shape[-1])[idx] = rows
    return data


def scatter_rows(base: Tensor, rows: Tensor, indices) -> Tensor:
    """``base`` [..., d] with ``rows`` [n, d] written over its (distinct)
    flat rows ``indices``. Backward zeroes those rows of the base's
    gradient and gives the rows the gradient's rows there."""
    idx = np.asarray(indices, dtype=np.int64)
    data = scatter_rows_kernel(base.data, rows.data, idx)
    want_base, want_rows = base.requires_grad, rows.requires_grad

    def bw(g):
        gbase = scatter_rows_kernel(g, 0, idx) if want_base else None
        grows = g.reshape(-1, g.shape[-1])[idx] if want_rows else None
        return gbase, grows

    return _make(data, (base, rows), bw)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


# erf as Cephes ndtr.c computes it, the algorithm behind scipy.special.erf:
# x T(x²) / U(x²) for |x| <= 1, else 1 - exp(-x²) P(|x|) / Q(|x|) with the
# sign of x. U and Q have an implied leading 1. The coefficients are 0-d
# float64 arrays: a ufunc takes one of those faster than a python float.
def _coefficients(*values: float) -> tuple[np.ndarray, ...]:
    return tuple(np.array(v) for v in values)


_ERF_T = _coefficients(9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
                       7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = _coefficients(3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
                       2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = _coefficients(2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
                        4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
                        9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = _coefficients(1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
                        9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
                        1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_CHUNK = 32768  # float64 elements per evaluation pass: its four buffers take 1 MB


def _polevl(x: np.ndarray, coef: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, one multiply and one add per step."""
    np.multiply(x, coef[0], out)
    for c in coef[1:-1]:
        np.add(out, c, out)
        np.multiply(out, x, out)
    return np.add(out, coef[-1], out)


def _p1evl(x: np.ndarray, coef: tuple[np.ndarray, ...], out: np.ndarray) -> np.ndarray:
    """Cephes ``p1evl``: :func:`_polevl` with an implied leading coefficient 1."""
    np.add(x, coef[0], out)
    for c in coef[1:]:
        np.multiply(out, x, out)
        np.add(out, c, out)
    return out


def _erf_tail(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """erf of float64 ``x`` with |x| > 1, given ``z`` = x² (overwritten):
    1 - erfc(|x|), signed. From |x| = 8 on erfc is below half an ulp of 1,
    so erf is exactly ±1; |x| is clipped there, which also keeps inf out of
    the polynomials."""
    a = np.minimum(np.abs(x), 8.0)
    erfc = np.exp(np.negative(z, z), z)
    np.multiply(erfc, _polevl(a, _ERFC_P, np.empty_like(a)), erfc)
    np.divide(erfc, _p1evl(a, _ERFC_Q, np.empty_like(a)), erfc)
    return np.copysign(np.subtract(1.0, erfc, erfc), x, erfc)


def _erf_inner(x: np.ndarray, z: np.ndarray, num: np.ndarray, den: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x T(z) / U(z) into ``out``, given ``z`` = x²: erf where |x| <= 1."""
    np.multiply(x, _polevl(z, _ERF_T, num), num)
    return np.divide(num, _p1evl(z, _ERF_U, den), out)


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise erf of a float32 or float64 array, in x's dtype.

    Chunks are evaluated in float64 and rounded once into the output, as
    scipy's float32 loop does, so float32 results equal scipy.special.erf's
    bit for bit. float64 results are within 1 ulp of it: np.exp and libm's
    exp may differ by an ulp where |x| > 1.

    Each chunk runs the |x| <= 1 formula on every element. Only a chunk
    whose largest x² exceeds 1 runs it with overflow and invalid warnings
    off, and then recomputes just its |x| > 1 elements. In a model
    trained on the synthetic data, 1.5-3.4% of GELU's erf inputs lie past 1,
    spread over most chunks: splitting each chunk by |x| first would gather
    nearly all of it to spare a few elements. float64 input runs with the
    warnings off throughout, since its x² can overflow and a signaling NaN
    flags invalid there. Casting a signaling NaN from float32 flags invalid
    too, as any numpy cast does.
    """
    out = np.empty(x.shape, x.dtype)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat.size, _ERF_CHUNK)
    xd, z, num, den = np.empty((4, size))
    with np.errstate(over="ignore", invalid="ignore") if x.dtype == np.float64 else contextlib.nullcontext():
        for start in range(0, flat.size, _ERF_CHUNK):
            chunk, res = flat[start:start + _ERF_CHUNK], flat_out[start:start + _ERF_CHUNK]
            if chunk.size < size:
                xd, z, num, den = xd[:chunk.size], z[:chunk.size], num[:chunk.size], den[:chunk.size]
            xd[...] = chunk
            np.multiply(xd, xd, z)
            if np.maximum.reduce(z) <= 1.0:
                _erf_inner(xd, z, num, den, res)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                _erf_inner(xd, z, num, den, res)
            tail = np.flatnonzero(z > 1.0)
            res[tail] = _erf_tail(xd[tail], z[tail])
    return out


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact erf-based GELU of an array, and the normal cdf it scaled ``x``
    by (backward reads it): the forward of :func:`gelu`."""
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def gelu(x: Tensor) -> Tensor:
    """Exact erf-based GELU."""
    xd = x.data
    data, cdf = gelu_kernel(xd)

    def bw(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
        return (g * (cdf + xd * pdf),)

    return _make(data, (x,), bw)


def log_softmax_kernel(x: np.ndarray) -> np.ndarray:
    """Log-softmax of an array over its last axis: the forward of
    :func:`log_softmax` and of :func:`cross_entropy`."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    if x.shape[-1] == 0:
        raise ValueError("log_softmax over an empty axis")
    data = log_softmax_kernel(x.data)

    def bw(g):
        probs = np.exp(data)
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _make(data, (x,), bw)


# Added to the variance before the square root in every layer norm.
LAYER_NORM_EPS = 1e-5


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bit for bit, without the python
    wrapper numpy puts around ``mean``."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.dtype.type(a.shape[-1])


def layer_norm_kernel(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of an array over its last axis, with the normalized
    ``xhat`` and the ``1 / std`` that backward reads: the forward of
    :func:`layer_norm`. A float32 row whose sum or sum of squares overflows
    is normalized again in float64; every other row keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _mean_last(x)
        centered = x - mu
        var = _mean_last(centered * centered)
        inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
        xhat = centered * inv_std
    if x.dtype == np.float32 and not np.isfinite(var).all():
        rows = ~np.isfinite(var[..., 0])
        xhat[rows], inv_std[rows] = layer_norm_kernel(x[rows].astype(np.float64), 1.0, 0.0)[1:]
    return xhat * gain + bias, xhat, inv_std


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ValueError(
            f"layer_norm affine shape mismatch: x {x.shape}, gain {gain.shape}, bias {bias.shape}"
        )
    data, xhat, inv_std = layer_norm_kernel(x.data, gain.data, bias.data)
    gain_data = gain.data if x.requires_grad else None
    want_gain, want_bias = gain.requires_grad, bias.requires_grad

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=lead) if want_gain else None
        gbias = g.sum(axis=lead) if want_bias else None
        if gain_data is not None:
            dxhat = g * gain_data
            gx = inv_std * (
                dxhat
                - _mean_last(dxhat)
                - xhat * _mean_last(dxhat * xhat)
            )
        else:
            gx = None
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout; identity when rate == 0.

    The keep mask comes from the supplied generator and is treated as a
    constant in backward.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    dtype = x.dtype
    data = x.data * (keep.astype(dtype) / dtype.type(1.0 - rate))

    def bw(g):
        return (g * (keep.astype(dtype) / dtype.type(1.0 - rate)),)

    return _make(data, (x,), bw)


# ---------------------------------------------------------------------------
# attention


def attention_kernel(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, bias: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention on arrays, and the softmax
    probabilities backward reads: the forward of :func:`attention`."""
    factor = q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    scores = q @ k.swapaxes(-1, -2)
    scores *= factor
    if bias is not None:
        scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = (probs @ v).swapaxes(-3, -2)
    return ctx.reshape(ctx.shape[:-2] + (ctx.shape[-2] * ctx.shape[-1],)), probs


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None) -> Tensor:
    """Scaled dot-product attention of split heads, merged back.

    ``q`` is [..., H, T_q, dk], ``k`` and ``v`` are [..., H, T_k, dk], and
    ``bias`` is a constant array added to the [..., H, T_q, T_k] scores, or
    None. Returns the context [..., T_q, H * dk], as one tape node. The
    forward runs the numpy expressions of the unfused chain
    ``softmax(q @ kᵀ * dk**-0.5 + bias) @ v``, heads merged, in its order;
    the backward is the closed form of that chain's rules, also in its
    order, so value and gradients have the chain's bits.
    """
    data, probs = attention_kernel(q.data, k.data, v.data, bias)
    factor = q.dtype.type(1.0 / math.sqrt(q.shape[-1]))
    ctx_shape = data.shape[:-1] + (probs.shape[-3], v.shape[-1])
    want_q, want_k, want_v = q.requires_grad, k.requires_grad, v.requires_grad
    v_data = v.data if want_q or want_k else None
    k_data = k.data if want_q else None
    q_data = q.data if want_k else None

    def bw(g):
        g_ctx = g.reshape(ctx_shape).swapaxes(-3, -2)
        gq = gk = None
        if v_data is not None:
            gp = g_ctx @ v_data.swapaxes(-1, -2)
            gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
            gs *= factor
            gq = gs @ k_data if want_q else None
            gk = (q_data.swapaxes(-1, -2) @ gs).swapaxes(-1, -2) if want_k else None
        gv = probs.swapaxes(-1, -2) @ g_ctx if want_v else None
        return gq, gk, gv

    return _make(data, (q, k, v), bw)


# ---------------------------------------------------------------------------
# losses


def mean_nll_kernel(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of -log softmax(logits)[label] over each [T, V] slice of
    [..., T, V] logits, with [..., T] integer labels, and the log
    probabilities: the forward of :func:`cross_entropy`. One reduction over
    the contiguous last axis of the [..., T] losses sums each slice alone,
    so its mean, in the logits' dtype, is the one it gets as a batch of its
    own."""
    logp = log_softmax_kernel(logits)
    nll = -np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
    return np.asarray(nll.sum(axis=-1) / labels.shape[-1], dtype=logits.dtype), logp


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean token cross-entropy in nats.

    ``logits`` is [T, V] with T >= 1; ``targets`` a length-T integer sequence.
    """
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != (logits.shape[0],):
        raise ValueError(f"targets length {tgt.shape} does not match logits rows {logits.shape[0]}")
    n = len(tgt)
    if n == 0:
        raise ValueError("cross_entropy needs at least one target")
    if tgt.min() < 0 or tgt.max() >= logits.shape[1]:
        raise ValueError(f"target id out of range [0, {logits.shape[1]})")

    data, logp = mean_nll_kernel(logits.data, tgt)
    rows = np.arange(n)

    def bw(g):
        grad = np.exp(logp)
        grad[rows, tgt] -= 1.0
        return (grad * (g / n),)

    return _make(data, (logits,), bw)


def kl_divergence(p: Tensor, log_q: Tensor) -> Tensor:
    """Mean over rows of KL(p || q) with q given in log space.

    Each row of ``p`` must be a probability vector (entries >= 0, sum within
    1e-4 of 1). ``p`` is treated as a constant; gradients flow to ``log_q``
    only. 0 * ln 0 is taken as 0.
    """
    if p.shape != log_q.shape or p.ndim != 2:
        raise ValueError(f"kl_divergence expects matching 2-D shapes, got {p.shape} and {log_q.shape}")
    n_rows = p.shape[0]
    if n_rows == 0:
        raise ValueError("kl_divergence needs at least one row")
    pd = p.data
    if np.any(pd < 0):
        raise ValueError("p has negative entries; rows must be probability vectors")
    sums = pd.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-4):
        raise ValueError(f"p rows must sum to 1 within 1e-4, got sums {sums}")
    plogp = np.where(pd > 0, pd * np.log(np.where(pd > 0, pd, 1.0)), 0.0)
    per_row = plogp.sum(axis=-1) - (pd * log_q.data).sum(axis=-1)
    data = per_row.mean()
    want_q = log_q.requires_grad

    def bw(g):
        gq = (-pd / n_rows) * g if want_q else None
        return None, gq

    return _make(np.asarray(data, dtype=log_q.dtype), (p, log_q), bw)


# ---------------------------------------------------------------------------
# op tables

# The ops a forward definition runs on, passed as one argument so that the
# definition is written once; its operands are tensors on ``TAPE`` and arrays
# on ``ARRAYS``. ``param`` makes an operand of a tensor (a parameter, or a
# constant wrapped in one). Each other field of ``ARRAYS`` is the forward of
# the ``TAPE`` op of its name, so both tables give the same bits. ``dropout``
# is the identity on both; the training objective runs a copy of ``TAPE``
# whose ``dropout`` draws masks.
Operand = Tensor | np.ndarray
Ops = namedtuple("Ops", "param add reshape transpose gather_rows scatter_rows linear split_heads layer_norm "
                        "gelu attention dropout")


# Tape ops on parameter tensors: anything that takes gradients.
TAPE = Ops(lambda p: p, add, reshape, transpose, gather_rows, scatter_rows, linear, split_heads, layer_norm,
           gelu, attention, lambda x: x)

# Kernels on the parameters' arrays: inference, which records nothing, even
# inside an active tape.
ARRAYS = Ops(
    param=operator.attrgetter("data"), add=np.add, reshape=np.reshape,
    transpose=lambda x: x.swapaxes(-1, -2), gather_rows=operator.getitem, scatter_rows=scatter_rows_kernel,
    linear=linear_kernel, split_heads=split_heads_kernel,
    layer_norm=lambda x, gain, bias: layer_norm_kernel(x, gain, bias)[0],
    gelu=lambda x: gelu_kernel(x)[0],
    attention=lambda q, k, v, bias: attention_kernel(q, k, v, bias)[0],
    dropout=lambda x: x,
)
