"""Cross-modal encoder-decoder transformer with task-token prompting.

The encoder sees the assembled multimodal sequence (task token, visual
block, optional text block); region features enter through a learned linear
projection and share learned absolute positional embeddings with token
positions. The decoder is causal, mirrors the encoder sequence for the
denoising and region-prediction passes (with ``<img_feat>``/``<cls>``
substitutions), and feeds four heads: a token head tied to the input
embeddings plus three two-layer MLP classifiers.

Blocks are pre-norm for stability at random initialization.

Parameter count is a pure function of the config: ``param_shapes`` lists
every tensor, and ``ModelConfig.param_count`` is the closed form below
(``count_params`` in ``tests/oracles.py`` is its oracle):

    V*d + P*d + V                               embeddings + token-head bias
    + d_visual*d + d                            visual projection
    + n_enc*(4(d^2+d) + 2*2d + ffn) + 2d        encoder (ffn = 2*d*f + f + d)
    + n_dec*(8(d^2+d) + 3*2d + ffn) + 2d        decoder
    + (d^2+d + d*A+A) + (2d*d+d + d*R+R) + (d^2+d + d*C+C)   heads
"""

from __future__ import annotations

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
        """The closed form of the module docstring, line for line; it builds
        no shape map, so any sizes cost the same."""
        d, f = self.d_model, self.d_ffn
        ffn = 2 * d * f + f + d
        return (
            self.vocab_size * d + self.max_positions * d + self.vocab_size
            + self.d_visual * d + d
            + self.n_enc_layers * (4 * (d * d + d) + 2 * 2 * d + ffn) + 2 * d
            + self.n_dec_layers * (8 * (d * d + d) + 3 * 2 * d + ffn) + 2 * d
            + (d * d + d + d * self.n_attr + self.n_attr)
            + (2 * d * d + d + d * self.n_rel + self.n_rel)
            + (d * d + d + d * self.n_classes + self.n_classes)
        )


@dataclass
class RoIFeature:
    """Precomputed region feature plus the detector's class distribution."""

    feat: np.ndarray
    class_probs: np.ndarray

    def __post_init__(self):
        self.feat = np.asarray(self.feat, dtype=np.float64)
        self.class_probs = np.asarray(self.class_probs, dtype=np.float64)
        if self.class_probs.ndim != 1 or self.feat.ndim != 1:
            raise ValueError("RoI feat and class_probs must be 1-D")
        if np.any(self.class_probs < 0):
            raise ValueError("class_probs entries must be >= 0")
        if abs(float(self.class_probs.sum()) - 1.0) > 1e-4:
            raise ValueError(f"class_probs must sum to 1 within 1e-4, got {self.class_probs.sum():.6f}")


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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Complete parameter name -> shape map, in canonical order."""
    d, f = config.d_model, config.d_ffn
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb.weight": (config.vocab_size, d),
        "pos_emb.weight": (config.max_positions, d),
        "lm_head.bias": (config.vocab_size,),
        "vis_proj.weight": (config.d_visual, d),
        "vis_proj.bias": (d,),
    }

    def attn(prefix: str) -> None:
        for part in ("q", "k", "v", "o"):
            shapes[f"{prefix}.{part}.weight"] = (d, d)
            shapes[f"{prefix}.{part}.bias"] = (d,)

    def norm(prefix: str) -> None:
        shapes[f"{prefix}.gain"] = (d,)
        shapes[f"{prefix}.bias"] = (d,)

    def ffn(prefix: str) -> None:
        shapes[f"{prefix}.fc1.weight"] = (d, f)
        shapes[f"{prefix}.fc1.bias"] = (f,)
        shapes[f"{prefix}.fc2.weight"] = (f, d)
        shapes[f"{prefix}.fc2.bias"] = (d,)

    for i in range(config.n_enc_layers):
        norm(f"enc.{i}.ln1")
        attn(f"enc.{i}.attn")
        norm(f"enc.{i}.ln2")
        ffn(f"enc.{i}.ffn")
    norm("enc.ln")
    for i in range(config.n_dec_layers):
        norm(f"dec.{i}.ln1")
        attn(f"dec.{i}.self_attn")
        norm(f"dec.{i}.ln2")
        attn(f"dec.{i}.cross_attn")
        norm(f"dec.{i}.ln3")
        ffn(f"dec.{i}.ffn")
    norm("dec.ln")

    for name, width, labels in (
        ("ap_head", d, config.n_attr),
        ("rp_head", 2 * d, config.n_rel),
        ("mrm_head", d, config.n_classes),
    ):
        shapes[f"{name}.fc1.weight"] = (width, d)
        shapes[f"{name}.fc1.bias"] = (d,)
        shapes[f"{name}.fc2.weight"] = (d, labels)
        shapes[f"{name}.fc2.bias"] = (labels,)
    return shapes


def check_param_shapes(config: ModelConfig, shapes: Mapping[str, tuple[int, ...]]) -> None:
    """Raise ValueError unless ``shapes`` holds exactly the parameters of
    ``config`` (already validated) with their shapes.

    Layer counts whose tensors alone outnumber ``shapes`` fail before the
    expected name map is built, so the work stays bounded by what was
    given; a message names at most 8 missing and 8 extra parameters.
    """
    # param_shapes gives each encoder layer 16 tensors, each decoder layer 26
    layer_tensors = 16 * config.n_enc_layers + 26 * config.n_dec_layers
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


def init_params(config: ModelConfig, seed_or_rng, dtype=np.float32) -> dict[str, Tensor]:
    """Random initialization: N(0, 0.02) matrices, unit norm gains, zero biases."""
    config.validate()
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape)
        params[name] = Tensor(data.astype(dtype), requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# model


@dataclass
class DecoderCache:
    """Incremental decoding state of a set of rows, each decoding over one
    unpadded encoding.

    Every buffer is row-aligned: ``cross_k``/``cross_v`` hold each layer's
    cross-attention keys and values, [rows, H, T_max, dk], row j's in its
    first ``lengths[j]`` (encoder length) positions; ``self_k``/``self_v``
    its self-attention ones, [rows, H, max_len, dk], filled for the first
    ``length`` positions. ``runs`` are the maximal runs of consecutive rows
    of one encoder length, as (rows, length).
    """

    cross_k: list[np.ndarray]
    cross_v: list[np.ndarray]
    self_k: list[np.ndarray]
    self_v: list[np.ndarray]
    lengths: np.ndarray
    runs: list[tuple[slice, int]]
    length: int = 0

    def keep(self, rows: Sequence[int]) -> None:
        """Retain only the given distinct rows, in the given order, at the
        front of every buffer, in place. The self-attention caches move only
        their filled positions: a step writes its position before it reads it."""
        idx = np.asarray(rows, dtype=np.int64)
        self.cross_k = [_keep_rows(k, idx, None) for k in self.cross_k]
        self.cross_v = [_keep_rows(v, idx, None) for v in self.cross_v]
        self.self_k = [_keep_rows(k, idx, self.length) for k in self.self_k]
        self.self_v = [_keep_rows(v, idx, self.length) for v in self.self_v]
        self.lengths = self.lengths[idx]
        self.runs = _runs(self.lengths)


def _keep_rows(buffer: np.ndarray, idx: np.ndarray, positions: int | None) -> np.ndarray:
    """Move rows ``idx`` (distinct) of a [rows, H, T, dk] buffer to its
    front, in place, with their first ``positions`` positions (all for
    None), and return the front. Rows already in place are not copied."""
    moved = np.flatnonzero(idx != np.arange(len(idx)))
    if len(moved):
        first = moved[0]
        buffer[first : len(idx), :, :positions] = buffer[idx[first:], :, :positions]
    return buffer[: len(idx)]


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
    # Each layer is written once over an op table: training runs it on
    # ``TAPE`` (tensors), inference on ``ARRAYS`` (arrays).

    def _positions(self, length: int, ops: Ops) -> Operand:
        if length > self.config.max_positions:
            raise ValueError(f"sequence length {length} exceeds max_positions {self.config.max_positions}")
        return ops.gather_rows(ops.param(self.params["pos_emb.weight"]), np.arange(length))

    def embed(self, batch: "PaddedBatch", ops: Ops = TAPE) -> Operand:
        """Encoder-side embedding [B, T, d]: tokens + projected regions + positions.

        Each item's regions are projected as one [R, d_visual] product of
        the stacked features, then moved to their visual slots, where they
        replace the <img_feat> token embedding.
        """
        ids = batch.enc_ids
        rows, length = ids.shape
        tok = ops.gather_rows(ops.param(self.params["tok_emb.weight"]), ids)
        pos = self._positions(length, ops)
        if len(batch.slot_index) == 0:
            return ops.add(tok, pos)
        keep = np.ones((rows * length, 1), dtype=self.dtype)
        keep[batch.slot_index] = 0.0
        projected = self._linear(ops.param(Tensor(batch.roi_feats.astype(self.dtype))), "vis_proj", ops)
        regions = ops.gather_rows(ops.reshape(projected, (-1, self.config.d_model)), batch.roi_index)
        visual = ops.reshape(ops.scatter_rows(regions, batch.slot_index, rows * length), tok.shape)
        return ops.add(ops.add(ops.mul(tok, ops.param(Tensor(keep.reshape(rows, length, 1)))), visual), pos)

    def embed_decoder(self, dec_ids: np.ndarray, ops: Ops = TAPE) -> Operand:
        """Decoder-side embedding [B, T, d] of [B, T] token ids."""
        tok = ops.gather_rows(ops.param(self.params["tok_emb.weight"]), dec_ids)
        return ops.add(tok, self._positions(dec_ids.shape[-1], ops))

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

    def encode(
        self,
        embedded: Operand,
        pad_mask: np.ndarray,
        rng: np.random.Generator | None = None,
        ops: Ops = TAPE,
    ) -> Operand:
        """Bidirectional pre-norm encoder stack over [B, T, d]; pad positions
        are hidden from keys. Dropout draws from ``rng`` when one is given."""
        key_bias = self._key_bias(pad_mask)
        rate = self.config.dropout_rate
        x = embedded
        for i in range(self.config.n_enc_layers):
            normed = self._norm(x, f"enc.{i}.ln1", ops)
            a = self._attention(normed, normed, f"enc.{i}.attn", key_bias, ops)
            x = ops.add(x, ops.dropout(a, rate, rng))
            f = self.mlp(self._norm(x, f"enc.{i}.ln2", ops), f"enc.{i}.ffn", ops)
            x = ops.add(x, ops.dropout(f, rate, rng))
        return self._norm(x, "enc.ln", ops)

    def decode(
        self,
        dec_embedded: Operand,
        enc_out: Operand,
        enc_pad_mask: np.ndarray,
        rng: np.random.Generator | None = None,
        ops: Ops = TAPE,
    ) -> Operand:
        """Causal self-attention plus cross-attention over encoder states.

        Padding sits after each row's real positions, which the causal mask
        already hides from them.
        """
        causal = self._causal_bias(dec_embedded.shape[-2])
        key_bias = self._key_bias(enc_pad_mask)
        rate = self.config.dropout_rate
        x = dec_embedded
        for i in range(self.config.n_dec_layers):
            normed = self._norm(x, f"dec.{i}.ln1", ops)
            a = self._attention(normed, normed, f"dec.{i}.self_attn", causal, ops)
            x = ops.add(x, ops.dropout(a, rate, rng))
            normed = self._norm(x, f"dec.{i}.ln2", ops)
            c = self._attention(normed, enc_out, f"dec.{i}.cross_attn", key_bias, ops)
            x = ops.add(x, ops.dropout(c, rate, rng))
            f = self.mlp(self._norm(x, f"dec.{i}.ln3", ops), f"dec.{i}.ffn", ops)
            x = ops.add(x, ops.dropout(f, rate, rng))
        return self._norm(x, "dec.ln", ops)

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
        layers, heads = range(self.config.n_dec_layers), self.config.n_heads
        dk = self.config.d_model // heads
        cross_k, cross_v, self_k, self_v = (
            [np.zeros((len(row_example), heads, positions, dk), dtype=self.dtype) for _ in layers]
            for positions in (lengths.max(), lengths.max(), max_len, max_len)
        )
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            members, row_member = np.unique(row_example[rows], return_inverse=True)
            stacked = np.stack([encodings[e] for e in members])
            for i in layers:
                cross_k[i][rows, :, :length] = self._heads(stacked, f"dec.{i}.cross_attn", "k", ARRAYS)[row_member]
                cross_v[i][rows, :, :length] = self._heads(stacked, f"dec.{i}.cross_attn", "v", ARRAYS)[row_member]
        return DecoderCache(cross_k, cross_v, self_k, self_v, lengths, _runs(lengths))

    def decode_step(self, ids: np.ndarray, cache: DecoderCache) -> np.ndarray:
        """Run the decoder at position ``cache.length`` for every cached row,
        on ``ARRAYS``: no dropout, and no tape even inside an active one.

        ``ids`` holds each row's token at that position. Rows are stacked
        [rows, 1, d] slices, never one [rows, d] matrix, so each product acts
        per slice and a row's states do not depend on the other rows. The
        layer body is ``decode``'s, except that self-attention reads its keys
        and values from the cache, and the cross-attention context runs once
        per run of the cache, over views of its rows' keys and values cut at
        its encoder length, so no key is padded. Writes the position's
        self-attention keys and values into the cache and returns the final
        decoder states [rows, 1, d], with the uncached decoder's bits.
        """
        t = cache.length
        if t >= cache.self_k[0].shape[2]:
            raise ValueError(f"decoder cache holds {t} positions and is full")
        p, ops = self.params, ARRAYS
        x = p["tok_emb.weight"].data[np.asarray(ids, dtype=np.int64)[:, None]]
        x += p["pos_emb.weight"].data[t : t + 1]
        for i in range(self.config.n_dec_layers):
            prefix = f"dec.{i}.self_attn"
            normed = self._norm(x, f"dec.{i}.ln1", ops)
            cache.self_k[i][:, :, t : t + 1] = self._heads(normed, prefix, "k", ops)
            cache.self_v[i][:, :, t : t + 1] = self._heads(normed, prefix, "v", ops)
            q = self._heads(normed, prefix, "q", ops)
            context = ops.attention(q, cache.self_k[i][:, :, : t + 1], cache.self_v[i][:, :, : t + 1], None)
            x += self._linear(context, f"{prefix}.o", ops)

            prefix = f"dec.{i}.cross_attn"
            q = self._heads(self._norm(x, f"dec.{i}.ln2", ops), prefix, "q", ops)
            keys, values = cache.cross_k[i], cache.cross_v[i]
            context = np.empty(x.shape, dtype=x.dtype)
            for rows, length in cache.runs:
                context[rows] = ops.attention(q[rows], keys[rows, :, :length], values[rows, :, :length], None)
            x += self._linear(context, f"{prefix}.o", ops)
            x += self.mlp(self._norm(x, f"dec.{i}.ln3", ops), f"dec.{i}.ffn", ops)
        cache.length += 1
        return self._norm(x, "dec.ln", ops)

    # -- heads ---------------------------------------------------------------

    def lm_head(self, hidden: Operand, ops: Ops = TAPE) -> Operand:
        """Token logits via the transposed input embedding (weight tying)."""
        p = self.params
        return ops.linear(hidden, ops.transpose(ops.param(p["tok_emb.weight"])), ops.param(p["lm_head.bias"]))

    # -- full passes ----------------------------------------------------------

    def encoder_states(
        self, batch: "PaddedBatch", rng: np.random.Generator | None = None, ops: Ops = TAPE
    ) -> Operand:
        """Encoder states [B, T_enc, d]."""
        return self.encode(self.embed(batch, ops), batch.enc_mask, rng, ops)

    def decode_ids(
        self,
        dec_ids: np.ndarray,
        enc_out: Operand,
        enc_pad_mask: np.ndarray,
        rng: np.random.Generator | None = None,
        ops: Ops = TAPE,
    ) -> Operand:
        """Decoder states [B, T_dec, d] for [B, T_dec] ids over ``enc_out``."""
        return self.decode(self.embed_decoder(dec_ids, ops), enc_out, enc_pad_mask, rng, ops)

    def forward(self, batch: "PaddedBatch", rng: np.random.Generator | None = None, ops: Ops = TAPE) -> Operand:
        """Run encoder and decoder; returns decoder hidden states [B, T_dec, d].
        Training passes the dropout generator ``rng``; without one the
        forward is deterministic."""
        enc_out = self.encoder_states(batch, rng, ops)
        return self.decode_ids(batch.dec_ids, enc_out, batch.enc_mask, rng, ops)
