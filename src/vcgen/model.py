"""Cross-modal encoder-decoder transformer with task-token prompting.

The encoder sees the assembled multimodal sequence (task token, visual
block, optional text block); region features enter through a learned linear
projection and share learned absolute positional embeddings with token
positions. The decoder is causal, mirrors the encoder sequence for the
denoising and region-prediction passes (with ``<img_feat>``/``<cls>``
substitutions), and feeds four heads: a token head tied to the input
embeddings plus three two-layer MLP classifiers.

Blocks are pre-norm for stability at random initialization.

The parameter layout is written once, as the tables of ``_param_tables``:
``param_shapes`` lists every tensor from them, and ``ModelConfig.param_count``
sums them at any layer count (README "Parameter count" gives the closed
form, and ``count_params`` in ``tests/oracles.py`` is its oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import InputError
from .masking import plan_mlm_mask, plan_mrm_mask
from .tensor import ARRAYS, NEG_MASK_VALUE, TAPE, Operand, Ops, Tensor
from .vocab import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    EVENT_END_ID,
    EVENT_ID,
    IMG_END_ID,
    IMG_FEAT_ID,
    IMG_ID,
    MASK_ID,
    MLM_END_ID,
    MLM_ID,
    TaskType,
    Vocabulary,
    task_token_id,
)

if TYPE_CHECKING:  # pragma: no cover
    from .data import MultimodalExample, PaddedBatch

ASSEMBLY_MODES = ("kcg", "ap", "rp", "mlm", "mrm", "gen")

# The most float32 values (8 GiB) a model may hold.
MAX_PARAMS = 2**31


@dataclass
class ModelConfig:
    d_model: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    n_heads: int = 4
    d_ffn: int = 256
    vocab_size: int = 0  # 0 = resolve from the vocabulary at run setup
    d_visual: int = 64
    n_classes: int = 32
    n_attr: int = 16
    n_rel: int = 8
    max_positions: int = 128
    dropout_rate: float = 0.1

    def validate(self) -> None:
        for name in (
            "d_model",
            "n_enc_layers",
            "n_dec_layers",
            "n_heads",
            "d_ffn",
            "vocab_size",
            "d_visual",
            "n_classes",
            "n_attr",
            "n_rel",
            "max_positions",
        ):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is an int, a whole float is not
                raise InputError(f"{name} must be an integer, got {value!r}")
            minimum = 0 if name == "vocab_size" else 1  # vocab_size 0: resolved from the vocabulary
            if value < minimum:
                raise InputError(f"{name} must be at least {minimum}, got {value}")
        if self.d_model % self.n_heads != 0:
            raise InputError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        count = self.param_count()
        if count > MAX_PARAMS:
            raise InputError(f"the model would hold {count} parameters, more than the limit of {MAX_PARAMS}")
        if type(self.dropout_rate) not in (int, float) or not 0.0 <= self.dropout_rate < 1.0:
            raise InputError(f"dropout_rate must be a number in [0, 1), got {self.dropout_rate!r}")

    def param_count(self) -> int:
        """The summed sizes of the parameter tables, a layer's once per
        layer: no shape map is built, so any sizes cost the same."""
        before, enc_layer, dec_layer, stack_end, heads = (
            sum(math.prod(shape) for shape in table.values()) for table in _param_tables(self)
        )
        return before + self.n_enc_layers * enc_layer + self.n_dec_layers * dec_layer + 2 * stack_end + heads


@dataclass
class RoIFeature:
    """Precomputed region feature plus the detector's class distribution,
    1-D float64 arrays; the JSONL reader checks them, and hands them out as
    rows of one array per field and width."""

    feat: np.ndarray
    class_probs: np.ndarray


@dataclass
class AssembledInput:
    """One example laid out as encoder/decoder id sequences.

    Encoder layout: task token, <img>, N visual slots, </img>, then an
    optional text block (<event>...</event> for generation-style passes,
    <mlm>...</mlm> for denoising passes). Visual slots carry <img_feat> as a
    placeholder id; ``visual_slots`` records their positions. For mirrored
    passes the decoder holds <img_feat> at visual slots and <cls> at masked
    positions.
    """

    enc_ids: np.ndarray
    visual_slots: np.ndarray
    dec_ids: np.ndarray
    dec_labels: np.ndarray | None = None
    mlm_positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    mlm_targets: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    mrm_positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    mrm_roi_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def enc_len(self) -> int:
        return len(self.enc_ids)

    @property
    def dec_len(self) -> int:
        return len(self.dec_ids)


def assemble_input(
    example: "MultimodalExample",
    vocab: Vocabulary,
    mode: str,
    use_event: bool = True,
    seed: int = 0,
    max_positions: int | None = None,
) -> AssembledInput:
    """Lay out one example for the given pass.

    ``mode`` is one of kcg/ap/rp/mlm/mrm (plus "gen" for decoding, which
    assembles the encoder side like kcg but leaves the decoder at <s>).
    ``use_event`` only controls the <event> block of generation-style
    passes; denoising passes always carry their <mlm> text block. For mlm and
    mrm the assembly is shared: both corruptions are planned and applied in
    the same pass, and the seed fixes both plans.
    """
    if mode not in ASSEMBLY_MODES:
        raise ValueError(f"unknown assembly mode {mode!r}")
    n_rois = len(example.rois)

    enc_ids = [task_token_id(TaskType(example.task)), IMG_ID] + [IMG_FEAT_ID] * n_rois + [IMG_END_ID]
    visual_slots = list(range(2, 2 + n_rois))

    assembled = AssembledInput(
        enc_ids=np.zeros(0, dtype=np.int64),
        visual_slots=np.asarray(visual_slots, dtype=np.int64),
        dec_ids=np.zeros(0, dtype=np.int64),
    )

    if mode in ("kcg", "gen"):
        if use_event and example.event_text:
            ev = vocab.encode(example.event_text)
            enc_ids += [EVENT_ID] + ev + [EVENT_END_ID]
        if mode == "kcg":
            target = vocab.encode(example.target_text)
            if not target:
                raise InputError(f"example {example.source_id!r}: empty target text for a generation-style pass")
            assembled.dec_ids = np.asarray([BOS_ID] + target, dtype=np.int64)
            assembled.dec_labels = np.asarray(target + [EOS_ID], dtype=np.int64)
        else:
            assembled.dec_ids = np.asarray([BOS_ID], dtype=np.int64)
    elif mode in ("ap", "rp"):
        # Mirror of the encoder; visual slots already hold <img_feat>.
        assembled.dec_ids = np.asarray(enc_ids, dtype=np.int64)
    else:  # mlm / mrm: shared denoising assembly
        words = vocab.encode(example.target_text)
        text_start = len(enc_ids) + 1
        enc_ids += [MLM_ID] + words + [MLM_END_ID]
        eligible = range(text_start, text_start + len(words))
        mlm_plan = plan_mlm_mask(eligible, vocab, np.random.default_rng([seed, 1]))
        mrm_plan = plan_mrm_mask(n_rois, np.random.default_rng([seed, 2]))

        dec_ids = list(enc_ids)
        mlm_positions, mlm_targets = [], []
        for tm in mlm_plan.text_masks:
            mlm_positions.append(tm.position)
            mlm_targets.append(enc_ids[tm.position])
            if tm.action == "mask":
                enc_ids[tm.position] = MASK_ID
            elif tm.action == "random":
                enc_ids[tm.position] = tm.replacement
            dec_ids[tm.position] = CLS_ID
        mrm_positions = [visual_slots[r] for r in mrm_plan.region_indices]
        for pos in mrm_positions:
            dec_ids[pos] = CLS_ID

        assembled.dec_ids = np.asarray(dec_ids, dtype=np.int64)
        assembled.mlm_positions = np.asarray(mlm_positions, dtype=np.int64)
        assembled.mlm_targets = np.asarray(mlm_targets, dtype=np.int64)
        assembled.mrm_positions = np.asarray(mrm_positions, dtype=np.int64)
        assembled.mrm_roi_indices = np.asarray(mrm_plan.region_indices, dtype=np.int64)

    assembled.enc_ids = np.asarray(enc_ids, dtype=np.int64)

    if max_positions is not None:
        longest = max(assembled.enc_len, assembled.dec_len)
        if longest > max_positions:
            raise InputError(
                f"example {example.source_id!r}: assembled sequence length {longest} "
                f"exceeds max_positions {max_positions}"
            )
    return assembled


# ---------------------------------------------------------------------------
# parameters


def _param_tables(config: ModelConfig) -> tuple[dict[str, tuple[int, ...]], ...]:
    """The parameter layout as five name -> shape tables: the tensors before
    the encoder, one encoder layer's and one decoder layer's (names below
    ``enc.<i>.``/``dec.<i>.``), the norm that ends each stack (below
    ``enc.``/``dec.``), and the heads."""
    d = config.d_model

    def norm(prefix: str) -> dict:
        return {f"{prefix}.gain": (d,), f"{prefix}.bias": (d,)}

    def attn(prefix: str) -> dict:
        return {f"{prefix}.{part}.{kind}": shape
                for part in "qkvo" for kind, shape in (("weight", (d, d)), ("bias", (d,)))}

    def mlp(prefix: str, n_in: int, hidden: int, n_out: int) -> dict:
        return {f"{prefix}.fc1.weight": (n_in, hidden), f"{prefix}.fc1.bias": (hidden,),
                f"{prefix}.fc2.weight": (hidden, n_out), f"{prefix}.fc2.bias": (n_out,)}

    before = {
        "tok_emb.weight": (config.vocab_size, d),
        "pos_emb.weight": (config.max_positions, d),
        "lm_head.bias": (config.vocab_size,),
        "vis_proj.weight": (config.d_visual, d),
        "vis_proj.bias": (d,),
    }
    ffn = mlp("ffn", d, config.d_ffn, d)
    enc_layer = {**norm("ln1"), **attn("attn"), **norm("ln2"), **ffn}
    dec_layer = {**norm("ln1"), **attn("self_attn"), **norm("ln2"), **attn("cross_attn"), **norm("ln3"), **ffn}
    heads = {**mlp("ap_head", d, d, config.n_attr), **mlp("rp_head", 2 * d, d, config.n_rel),
             **mlp("mrm_head", d, d, config.n_classes)}
    return before, enc_layer, dec_layer, norm("ln"), heads


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Complete parameter name -> shape map, in canonical order."""
    before, enc_layer, dec_layer, stack_end, heads = _param_tables(config)
    shapes = dict(before)
    for stack, n_layers, layer in (("enc", config.n_enc_layers, enc_layer), ("dec", config.n_dec_layers, dec_layer)):
        for i in range(n_layers):
            shapes.update({f"{stack}.{i}.{name}": shape for name, shape in layer.items()})
        shapes.update({f"{stack}.{name}": shape for name, shape in stack_end.items()})
    return shapes | heads


def check_param_shapes(config: ModelConfig, shapes: Mapping[str, tuple[int, ...]]) -> None:
    """Raise ValueError unless ``shapes`` holds exactly the parameters of
    ``config`` (already validated) with their shapes.

    Layer counts whose tensors alone outnumber ``shapes`` fail before the
    expected name map is built, so the work stays bounded by what was
    given; a message names at most 8 missing and 8 extra parameters.
    """
    _, enc_layer, dec_layer, _, _ = _param_tables(config)
    layer_tensors = len(enc_layer) * config.n_enc_layers + len(dec_layer) * config.n_dec_layers
    if layer_tensors > len(shapes):
        raise ValueError(
            f"{config.n_enc_layers} encoder and {config.n_dec_layers} decoder layers need "
            f"{layer_tensors} parameter tensors, more than the {len(shapes)} given"
        )
    expected = param_shapes(config)
    if shapes.keys() != expected.keys():
        missing = sorted(expected.keys() - shapes.keys())
        extra = sorted(shapes.keys() - expected.keys())
        raise ValueError(
            f"parameter names disagree with config: {len(missing)} missing {missing[:8]}, "
            f"{len(extra)} extra {extra[:8]}"
        )
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise ValueError(f"parameter {name!r} has shape {shapes[name]}, config implies {shape}")


INIT_STD = 0.02

# Every parameter starts on a boundary of this many bytes: OpenBLAS's small
# sgemm reads the weight unpacked, and ran up to 1.8x slower (same bits) off it.
PARAM_ALIGNMENT = 64


def aligned_copy(array: np.ndarray, dtype) -> np.ndarray:
    """A C-contiguous copy of ``array`` cast to ``dtype``, whose data starts
    on a ``PARAM_ALIGNMENT``-byte boundary."""
    nbytes = array.size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + PARAM_ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % PARAM_ALIGNMENT
    out = raw[start : start + nbytes].view(dtype).reshape(array.shape)
    out[...] = array
    return out


def init_params(config: ModelConfig, seed_or_rng, dtype=np.float32) -> dict[str, Tensor]:
    """Random initialization: N(0, 0.02) matrices, unit norm gains, zero
    biases, each in an ``aligned_copy``."""
    config.validate()
    rng = np.random.default_rng(seed_or_rng)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, INIT_STD, shape)
        params[name] = Tensor(aligned_copy(data, dtype), requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# model


@dataclass
class DecoderCache:
    """Incremental decoding state of a set of rows, each decoding over one
    unpadded encoding.

    Every buffer is stacked over decoder layers and row-aligned on axis 1:
    ``cross_k``/``cross_v`` hold the cross-attention keys and values,
    [layers, rows, H, T_max, dk], row j's in its first ``lengths[j]``
    (encoder length) positions; ``self_k``/``self_v`` the self-attention
    ones, [layers, rows, H, max_len, dk], filled for the first ``length``
    positions. ``runs`` are the maximal runs of consecutive rows of one
    encoder length, as (rows, length).
    """

    cross_k: np.ndarray
    cross_v: np.ndarray
    self_k: np.ndarray
    self_v: np.ndarray
    lengths: np.ndarray
    runs: list[tuple[slice, int]]
    length: int = 0

    def keep(self, rows: Sequence[int]) -> None:
        """Retain only the given distinct rows, in the given order, at the
        front of every buffer, in place. The self-attention caches move only
        their filled positions: a step writes its position before it reads it."""
        idx = np.asarray(rows, dtype=np.int64)
        self.cross_k = _keep_rows(self.cross_k, idx, None)
        self.cross_v = _keep_rows(self.cross_v, idx, None)
        self.self_k = _keep_rows(self.self_k, idx, self.length)
        self.self_v = _keep_rows(self.self_v, idx, self.length)
        self.lengths = self.lengths[idx]
        self.runs = _runs(self.lengths)


def _keep_rows(buffer: np.ndarray, idx: np.ndarray, positions: int | None) -> np.ndarray:
    """Move rows ``idx`` (distinct) of a [layers, rows, H, T, dk] buffer to
    its front, in place, with their first ``positions`` positions (all for
    None), and return the front. Rows already in place are not copied."""
    moved = np.flatnonzero(idx != np.arange(len(idx)))
    if len(moved):
        first = moved[0]
        buffer[:, first : len(idx), :, :positions] = buffer[:, idx[first:], :, :positions]
    return buffer[:, : len(idx)]


def _runs(lengths: np.ndarray) -> list[tuple[slice, int]]:
    """The maximal runs of consecutive equal ``lengths`` (all positive), as
    (basic slice, length): selecting a run takes a view, not a copy."""
    starts = np.flatnonzero(np.diff(lengths, prepend=0)).tolist()
    return [(slice(a, b), int(lengths[a])) for a, b in zip(starts, starts[1:] + [len(lengths)])]


class Model:
    """Bundles a config with named parameters and the forward passes."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        config.validate()
        check_param_shapes(config, {name: p.shape for name, p in params.items()})
        self.config = config
        self.params = params

    @classmethod
    def init_random(cls, config: ModelConfig, seed_or_rng, dtype=np.float32) -> "Model":
        return cls(config, init_params(config, seed_or_rng, dtype))

    @property
    def dtype(self):
        return self.params["tok_emb.weight"].dtype

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- embedding ----------------------------------------------------------
    # Each layer is written once over an op table: training runs it on a
    # ``TAPE`` (tensors) whose ``dropout`` draws masks, inference on
    # ``ARRAYS`` (arrays).

    def _positions(self, length: int, ops: Ops, start: int = 0) -> Operand:
        if start + length > self.config.max_positions:
            raise ValueError(f"sequence length {start + length} exceeds max_positions {self.config.max_positions}")
        return ops.gather_rows(ops.param(self.params["pos_emb.weight"]), np.arange(start, start + length))

    def embed(self, batch: "PaddedBatch", ops: Ops = TAPE) -> Operand:
        """Encoder-side embedding [B, T, d]: tokens + projected regions + positions.

        Each item's regions are projected as one [R, d_visual] product of
        the stacked features, then moved to their visual slots, where they
        replace the <img_feat> token embedding.
        """
        tok = ops.gather_rows(ops.param(self.params["tok_emb.weight"]), batch.enc_ids)
        pos = self._positions(batch.enc_ids.shape[1], ops)
        if len(batch.slot_index):
            projected = self._linear(ops.param(Tensor(batch.roi_feats.astype(self.dtype))), "vis_proj", ops)
            regions = ops.gather_rows(ops.reshape(projected, (-1, self.config.d_model)), batch.roi_index)
            tok = ops.scatter_rows(tok, regions, batch.slot_index)
        return ops.add(tok, pos)

    def embed_decoder(self, dec_ids: np.ndarray, ops: Ops = TAPE, start: int = 0) -> Operand:
        """Decoder-side embedding [B, T, d] of [B, T] token ids from position ``start``."""
        tok = ops.gather_rows(ops.param(self.params["tok_emb.weight"]), dec_ids)
        return ops.add(tok, self._positions(dec_ids.shape[-1], ops, start))

    # -- transformer stacks -------------------------------------------------

    def _linear(self, x: Operand, name: str, ops: Ops = TAPE) -> Operand:
        return ops.linear(x, ops.param(self.params[f"{name}.weight"]), ops.param(self.params[f"{name}.bias"]))

    def _heads(self, x: Operand, prefix: str, part: str, ops: Ops = TAPE) -> Operand:
        """Project ``x`` [..., T, d] with ``{prefix}.{part}`` and split it
        into heads: [..., H, T, dk]."""
        return ops.split_heads(self._linear(x, f"{prefix}.{part}", ops), self.config.n_heads)

    def _attention(self, x: Operand, kv: Operand, prefix: str, bias: np.ndarray | None, ops: Ops) -> Operand:
        q = self._heads(x, prefix, "q", ops)
        k, v = self._heads(kv, prefix, "k", ops), self._heads(kv, prefix, "v", ops)
        return self._linear(ops.attention(q, k, v, bias), f"{prefix}.o", ops)

    def _key_bias(self, pad_mask: np.ndarray) -> np.ndarray | None:
        """[B, 1, 1, T] additive bias hiding the padded key positions of a
        [B, T] mask; None when nothing is padded."""
        if pad_mask.all():
            return None
        return np.where(pad_mask, 0.0, NEG_MASK_VALUE).astype(self.dtype)[:, None, None, :]

    def _causal_bias(self, length: int) -> np.ndarray:
        bias = np.triu(np.full((length, length), NEG_MASK_VALUE, dtype=self.dtype), k=1)
        return bias.reshape(1, length, length)

    def _norm(self, x: Operand, prefix: str, ops: Ops = TAPE) -> Operand:
        return ops.layer_norm(x, ops.param(self.params[f"{prefix}.gain"]), ops.param(self.params[f"{prefix}.bias"]))

    def mlp(self, x: Operand, prefix: str, ops: Ops = TAPE) -> Operand:
        """``{prefix}.fc2(gelu({prefix}.fc1(x)))``: the FFN blocks and the
        ap/rp/mrm classifier heads."""
        return self._linear(ops.gelu(self._linear(x, f"{prefix}.fc1", ops)), f"{prefix}.fc2", ops)

    def encode(self, embedded: Operand, pad_mask: np.ndarray, ops: Ops = TAPE) -> Operand:
        """Bidirectional pre-norm encoder stack over [B, T, d]; pad positions
        are hidden from keys. Each sublayer's output passes ``ops.dropout``
        before its residual add."""
        key_bias = self._key_bias(pad_mask)
        x = embedded
        for i in range(self.config.n_enc_layers):
            normed = self._norm(x, f"enc.{i}.ln1", ops)
            x = ops.add(x, ops.dropout(self._attention(normed, normed, f"enc.{i}.attn", key_bias, ops)))
            x = ops.add(x, ops.dropout(self.mlp(self._norm(x, f"enc.{i}.ln2", ops), f"enc.{i}.ffn", ops)))
        return self._norm(x, "enc.ln", ops)

    def _decoder_layers(self, x: Operand, self_attend, cross_attend, ops: Ops) -> Operand:
        """The decoder stack over embedded ``x``: per layer, pre-norm
        self-attention, cross-attention and FFN sublayers, each output passed
        through ``ops.dropout`` and added to ``x``; then the final norm.
        ``self_attend`` and ``cross_attend`` map (normed ``x``, parameter
        prefix, layer index) to a layer's attention output."""
        for i in range(self.config.n_dec_layers):
            x = ops.add(x, ops.dropout(self_attend(self._norm(x, f"dec.{i}.ln1", ops), f"dec.{i}.self_attn", i)))
            x = ops.add(x, ops.dropout(cross_attend(self._norm(x, f"dec.{i}.ln2", ops), f"dec.{i}.cross_attn", i)))
            x = ops.add(x, ops.dropout(self.mlp(self._norm(x, f"dec.{i}.ln3", ops), f"dec.{i}.ffn", ops)))
        return self._norm(x, "dec.ln", ops)

    def decode(self, dec_embedded: Operand, enc_out: Operand, enc_pad_mask: np.ndarray, ops: Ops = TAPE) -> Operand:
        """Causal self-attention plus cross-attention over encoder states.

        Padding sits after each row's real positions, which the causal mask
        already hides from them.
        """
        causal, key_bias = self._causal_bias(dec_embedded.shape[-2]), self._key_bias(enc_pad_mask)
        return self._decoder_layers(
            dec_embedded,
            lambda normed, prefix, i: self._attention(normed, normed, prefix, causal, ops),
            lambda normed, prefix, i: self._attention(normed, enc_out, prefix, key_bias, ops),
            ops,
        )

    def start_decoding(
        self, encodings: Sequence[np.ndarray], row_example: Sequence[int], max_len: int
    ) -> DecoderCache:
        """Incremental decoding state for one row per entry of
        ``row_example``; row j decodes over ``encodings[row_example[j]]``,
        unpadded encoder states [T_e, d]. Each layer's cross-attention keys
        and values are projected once per encoding, stacked with the others
        of its length, and copied into the first T_e positions of its rows.
        """
        row_example = np.asarray(row_example, dtype=np.int64)
        lengths = np.asarray([len(encoding) for encoding in encodings], dtype=np.int64)[row_example]
        layers, heads = self.config.n_dec_layers, self.config.n_heads
        cross_k, cross_v, self_k, self_v = (
            np.zeros((layers, len(row_example), heads, positions, self.config.d_model // heads), dtype=self.dtype)
            for positions in (lengths.max(), lengths.max(), max_len, max_len)
        )
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            members, row_member = np.unique(row_example[rows], return_inverse=True)
            stacked = np.stack([encodings[e] for e in members])
            for i in range(layers):
                cross_k[i, rows, :, :length] = self._heads(stacked, f"dec.{i}.cross_attn", "k", ARRAYS)[row_member]
                cross_v[i, rows, :, :length] = self._heads(stacked, f"dec.{i}.cross_attn", "v", ARRAYS)[row_member]
        return DecoderCache(cross_k, cross_v, self_k, self_v, lengths, _runs(lengths))

    def decode_step(self, ids: np.ndarray, cache: DecoderCache) -> np.ndarray:
        """``decode``'s layers at position ``cache.length`` on ``ARRAYS``, for
        every cached row (``ids`` holds each one's token there): the final
        states [rows, 1, d], with the uncached decoder's bits. Self-attention
        writes the position's keys and values into the cache and reads the
        row's positions so far; cross-attention runs once per run of rows,
        over keys cut at their encoder length. Rows are [1, d] slices, which
        ``linear`` runs as fixed 8-row tiles, so a row's states do not
        depend on the others.
        """
        t = cache.length
        if t >= cache.self_k.shape[3]:
            raise ValueError(f"decoder cache holds {t} positions and is full")
        ops = ARRAYS

        def self_attend(normed, prefix, i):
            keys, values = cache.self_k[i][:, :, : t + 1], cache.self_v[i][:, :, : t + 1]
            keys[:, :, t:] = self._heads(normed, prefix, "k", ops)
            values[:, :, t:] = self._heads(normed, prefix, "v", ops)
            context = ops.attention(self._heads(normed, prefix, "q", ops), keys, values, None)
            return self._linear(context, f"{prefix}.o", ops)

        def cross_attend(normed, prefix, i):
            q, keys, values = self._heads(normed, prefix, "q", ops), cache.cross_k[i], cache.cross_v[i]
            context = np.empty(normed.shape, dtype=normed.dtype)
            for rows, length in cache.runs:
                context[rows] = ops.attention(q[rows], keys[rows, :, :length], values[rows, :, :length], None)
            return self._linear(context, f"{prefix}.o", ops)

        states = self._decoder_layers(self.embed_decoder(ids[:, None], ops, t), self_attend, cross_attend, ops)
        cache.length += 1
        return states

    # -- heads ---------------------------------------------------------------

    def lm_head(self, hidden: Operand, ops: Ops = TAPE) -> Operand:
        """Token logits via the transposed input embedding (weight tying)."""
        p = self.params
        return ops.linear(hidden, ops.transpose(ops.param(p["tok_emb.weight"])), ops.param(p["lm_head.bias"]))

    # -- full passes ----------------------------------------------------------

    def encoder_states(self, batch: "PaddedBatch", ops: Ops = TAPE) -> Operand:
        """Encoder states [B, T_enc, d]."""
        return self.encode(self.embed(batch, ops), batch.enc_mask, ops)

    def decode_ids(self, dec_ids: np.ndarray, enc_out: Operand, enc_pad_mask: np.ndarray, ops: Ops = TAPE) -> Operand:
        """Decoder states [B, T_dec, d] for [B, T_dec] ids over ``enc_out``."""
        return self.decode(self.embed_decoder(dec_ids, ops), enc_out, enc_pad_mask, ops)

    def forward(self, batch: "PaddedBatch", ops: Ops = TAPE) -> Operand:
        """Run encoder and decoder; returns decoder hidden states [B, T_dec, d].
        ``ops`` is the only mode: ``TAPE`` and ``ARRAYS`` run without dropout,
        with the same bits; training passes ``losses.training_ops``."""
        enc_out = self.encoder_states(batch, ops)
        return self.decode_ids(batch.dec_ids, enc_out, batch.enc_mask, ops)
