"""Cross-modal encoder-decoder transformer with task-token prompting.

The encoder sees the assembled multimodal sequence (task token, visual
block, optional text block); region features enter through a learned linear
projection and share learned absolute positional embeddings with token
positions. The decoder is causal, mirrors the encoder sequence for the
denoising and region-prediction passes (with ``<img_feat>``/``<cls>``
substitutions), and feeds four heads: a token head tied to the input
embeddings plus three two-layer MLP classifiers.

Blocks are pre-norm for stability at random initialization.

Parameter count is a pure function of the config (see ``count_params``):

    V*d + P*d + V                               embeddings + token-head bias
    + d_visual*d + d                            visual projection
    + n_enc*(4(d^2+d) + 2*2d + ffn) + 2d        encoder (ffn = 2*d*f + f + d)
    + n_dec*(8(d^2+d) + 3*2d + ffn) + 2d        decoder
    + (d^2+d + d*A+A) + (2d*d+d + d*R+R) + (d^2+d + d*C+C)   heads
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .masking import plan_mlm_mask, plan_mrm_mask
from .tensor import (
    NEG_MASK_VALUE,
    Tensor,
    add,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    permute,
    reshape,
    scale,
    scatter_rows,
    softmax,
    transpose,
)
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
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in (
            "d_model",
            "n_enc_layers",
            "n_dec_layers",
            "n_heads",
            "d_ffn",
            "d_visual",
            "n_classes",
            "n_attr",
            "n_rel",
            "max_positions",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


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

    task: TaskType
    mode: str
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
    task = TaskType(example.task)
    n_rois = len(example.rois)

    enc_ids = [task_token_id(task), IMG_ID] + [IMG_FEAT_ID] * n_rois + [IMG_END_ID]
    visual_slots = list(range(2, 2 + n_rois))

    assembled = AssembledInput(
        task=task,
        mode=mode,
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
                raise ValueError("empty target text for a generation-style pass")
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
            raise ValueError(
                f"assembled sequence length {longest} exceeds max_positions {max_positions}"
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


def count_params(config: ModelConfig) -> int:
    """Closed-form parameter count (matches ``param_shapes`` exactly)."""
    d, f = config.d_model, config.d_ffn
    v, p = config.vocab_size, config.max_positions
    attn = 4 * (d * d + d)
    ln = 2 * d
    ffn = d * f + f + f * d + d
    total = v * d + p * d + v + config.d_visual * d + d
    total += config.n_enc_layers * (attn + 2 * ln + ffn) + ln
    total += config.n_dec_layers * (2 * attn + 3 * ln + ffn) + ln
    total += d * d + d + d * config.n_attr + config.n_attr
    total += 2 * d * d + d + d * config.n_rel + config.n_rel
    total += d * d + d + d * config.n_classes + config.n_classes
    return total


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


def zero_params(config: ModelConfig, dtype=np.float32) -> dict[str, Tensor]:
    """All-zero parameters; every head then predicts a uniform distribution."""
    config.validate()
    return {
        name: Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        for name, shape in param_shapes(config).items()
    }


# ---------------------------------------------------------------------------
# model


@dataclass
class DecoderCache:
    """Incremental decoding state of a set of rows, each decoding over one
    unpadded encoding.

    ``cross`` holds each decoder layer's cross-attention keys and values
    over the row's encoder states, [rows, H, T_enc, dk]. ``self_k``/``self_v``
    hold each layer's self-attention keys and values, [rows, H, max_len, dk],
    filled for the first ``length`` positions. Every array is indexed by
    row, so ``keep`` drops rows from all of them at once.
    """

    cross: list[tuple[np.ndarray, np.ndarray]]
    self_k: list[np.ndarray]
    self_v: list[np.ndarray]
    length: int = 0

    def keep(self, rows: Sequence[int]) -> None:
        """Retain only the given rows, in the given order."""
        idx = np.asarray(rows, dtype=np.int64)
        self.cross = [(k[idx], v[idx]) for k, v in self.cross]
        self.self_k = [k[idx] for k in self.self_k]
        self.self_v = [v[idx] for v in self.self_v]


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def _swap_heads_axis(ndim: int) -> tuple[int, ...]:
    """Axis order that swaps the heads axis with the positions axis:
    [..., T, H, dk] <-> [..., H, T, dk]."""
    axes = list(range(ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return tuple(axes)


class Model:
    """Bundles a config with named parameters and the forward passes."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        config.validate()
        expected = param_shapes(config)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ValueError(f"parameter set mismatch: missing {missing}, extra {extra}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ValueError(
                    f"parameter {name} has shape {params[name].shape}, expected {shape}"
                )
        self.config = config
        self.params = params

    @classmethod
    def init_random(cls, config: ModelConfig, seed_or_rng, dtype=np.float32) -> "Model":
        return cls(config, init_params(config, seed_or_rng, dtype))

    @classmethod
    def init_zeros(cls, config: ModelConfig, dtype=np.float32) -> "Model":
        return cls(config, zero_params(config, dtype))

    @property
    def dtype(self):
        return self.params["tok_emb.weight"].dtype

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    # -- embedding ----------------------------------------------------------

    def _positions(self, length: int) -> Tensor:
        if length > self.config.max_positions:
            raise ValueError(f"sequence length {length} exceeds max_positions {self.config.max_positions}")
        return gather_rows(self.params["pos_emb.weight"], np.arange(length))

    def embed(self, batch: "PaddedBatch") -> Tensor:
        """Encoder-side embedding [B, T, d]: tokens + projected regions + positions.

        Each item's regions are projected as one [R, d_visual] product of
        the stacked features, then moved to their visual slots, where they
        replace the <img_feat> token embedding.
        """
        ids = batch.enc_ids
        rows, length = ids.shape
        tok = gather_rows(self.params["tok_emb.weight"], ids)
        pos = self._positions(length)
        if len(batch.slot_index) == 0:
            return add(tok, pos)
        keep = np.ones((rows * length, 1), dtype=self.dtype)
        keep[batch.slot_index] = 0.0
        projected = _linear(
            Tensor(batch.roi_feats.astype(self.dtype)),
            self.params["vis_proj.weight"],
            self.params["vis_proj.bias"],
        )
        regions = gather_rows(reshape(projected, (-1, self.config.d_model)), batch.roi_index)
        visual = reshape(scatter_rows(regions, batch.slot_index, rows * length), tok.shape)
        return add(add(mul(tok, Tensor(keep.reshape(rows, length, 1))), visual), pos)

    def embed_decoder(self, dec_ids: np.ndarray) -> Tensor:
        """Decoder-side embedding [B, T, d] of [B, T] token ids."""
        tok = gather_rows(self.params["tok_emb.weight"], dec_ids)
        return add(tok, self._positions(dec_ids.shape[-1]))

    # -- transformer stacks -------------------------------------------------

    def _heads(self, x: Tensor, prefix: str, part: str) -> Tensor:
        """Project ``x`` [..., T, d] with ``{prefix}.{part}`` and split it
        into heads: [..., H, T, dk]."""
        p = self.params
        heads = self.config.n_heads
        projected = _linear(x, p[f"{prefix}.{part}.weight"], p[f"{prefix}.{part}.bias"])
        split = reshape(projected, x.shape[:-1] + (heads, self.config.d_model // heads))
        return permute(split, _swap_heads_axis(split.ndim))

    def _attend(self, q: Tensor, k: Tensor, v: Tensor, prefix: str, bias: Tensor | None) -> Tensor:
        """Scaled dot-product attention of split heads, merged back to
        [..., T_q, d] and passed through the output projection."""
        p = self.params
        scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
        if bias is not None:
            scores = add(scores, bias)
        ctx = permute(matmul(softmax(scores, axis=-1), v), _swap_heads_axis(q.ndim))
        merged = reshape(ctx, ctx.shape[:-2] + (self.config.d_model,))
        return _linear(merged, p[f"{prefix}.o.weight"], p[f"{prefix}.o.bias"])

    def _attention(
        self,
        x: Tensor,
        kv: Tensor,
        prefix: str,
        bias: Tensor | None,
    ) -> Tensor:
        q = self._heads(x, prefix, "q")
        return self._attend(q, self._heads(kv, prefix, "k"), self._heads(kv, prefix, "v"), prefix, bias)

    def _key_bias(self, pad_mask: np.ndarray) -> Tensor | None:
        """[B, 1, 1, T] additive bias hiding the padded key positions of a
        [B, T] mask; None when nothing is padded."""
        if pad_mask.all():
            return None
        bias = np.where(pad_mask, 0.0, NEG_MASK_VALUE).astype(self.dtype)
        return Tensor(bias[:, None, None, :])

    def _causal_bias(self, length: int) -> Tensor:
        bias = np.triu(np.full((length, length), NEG_MASK_VALUE, dtype=self.dtype), k=1)
        return Tensor(bias.reshape(1, length, length))

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        return layer_norm(x, self.params[f"{prefix}.gain"], self.params[f"{prefix}.bias"])

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        p = self.params
        hidden = gelu(_linear(x, p[f"{prefix}.fc1.weight"], p[f"{prefix}.fc1.bias"]))
        return _linear(hidden, p[f"{prefix}.fc2.weight"], p[f"{prefix}.fc2.bias"])

    def _drop(self, x: Tensor, train: bool, rng) -> Tensor:
        return dropout(x, self.config.dropout_rate, rng, train)

    def encode(
        self,
        embedded: Tensor,
        pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Bidirectional pre-norm encoder stack over [B, T, d]; pad positions
        are hidden from keys."""
        key_bias = self._key_bias(pad_mask)
        x = embedded
        for i in range(self.config.n_enc_layers):
            normed = self._norm(x, f"enc.{i}.ln1")
            a = self._attention(normed, normed, f"enc.{i}.attn", key_bias)
            x = add(x, self._drop(a, train, rng))
            f = self._ffn(self._norm(x, f"enc.{i}.ln2"), f"enc.{i}.ffn")
            x = add(x, self._drop(f, train, rng))
        return self._norm(x, "enc.ln")

    def decode(
        self,
        dec_embedded: Tensor,
        enc_out: Tensor,
        enc_pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Causal self-attention plus cross-attention over encoder states.

        Padding sits after each row's real positions, which the causal mask
        already hides from them.
        """
        length = dec_embedded.shape[-2]
        causal = self._causal_bias(length)
        key_bias = self._key_bias(enc_pad_mask)
        x = dec_embedded
        for i in range(self.config.n_dec_layers):
            normed = self._norm(x, f"dec.{i}.ln1")
            a = self._attention(normed, normed, f"dec.{i}.self_attn", causal)
            x = add(x, self._drop(a, train, rng))
            c = self._attention(self._norm(x, f"dec.{i}.ln2"), enc_out, f"dec.{i}.cross_attn", key_bias)
            x = add(x, self._drop(c, train, rng))
            f = self._ffn(self._norm(x, f"dec.{i}.ln3"), f"dec.{i}.ffn")
            x = add(x, self._drop(f, train, rng))
        return self._norm(x, "dec.ln")

    def start_decoding(self, enc_out: Tensor, row_example: Sequence[int], max_len: int) -> DecoderCache:
        """Incremental decoding state for one row per entry of
        ``row_example``; row j decodes over encoding ``row_example[j]`` of
        ``enc_out`` [E, T_enc, d], which holds no padding.

        Each decoder layer's cross-attention keys and values are projected
        here once per encoding and gathered once per row; the self-attention
        caches hold ``max_len`` positions.
        """
        idx = np.asarray(row_example, dtype=np.int64)
        heads = self.config.n_heads
        shape = (len(idx), heads, max_len, self.config.d_model // heads)
        layers = range(self.config.n_dec_layers)
        return DecoderCache(
            cross=[
                tuple(self._heads(enc_out, f"dec.{i}.cross_attn", part).data[idx] for part in ("k", "v"))
                for i in layers
            ],
            self_k=[np.zeros(shape, dtype=self.dtype) for _ in layers],
            self_v=[np.zeros(shape, dtype=self.dtype) for _ in layers],
        )

    def decode_step(self, ids: np.ndarray, cache: DecoderCache) -> Tensor:
        """Run the decoder at position ``cache.length`` for every cached row.

        ``ids`` holds each row's token at that position. Rows are stacked
        [rows, 1, d] slices, never one [rows, d] matrix, so each matmul acts
        per slice and a row's states do not depend on the other rows. Writes
        the position's self-attention keys and values into the cache and
        returns the final decoder states [rows, 1, d]. Inference only: no
        dropout.
        """
        t = cache.length
        if t >= cache.self_k[0].shape[2]:
            raise ValueError(f"decoder cache holds {t} positions and is full")
        p = self.params
        x = add(
            gather_rows(p["tok_emb.weight"], np.asarray(ids, dtype=np.int64)[:, None]),
            gather_rows(p["pos_emb.weight"], [t]),
        )
        for i in range(self.config.n_dec_layers):
            prefix = f"dec.{i}.self_attn"
            normed = self._norm(x, f"dec.{i}.ln1")
            cache.self_k[i][:, :, t : t + 1] = self._heads(normed, prefix, "k").data
            cache.self_v[i][:, :, t : t + 1] = self._heads(normed, prefix, "v").data
            keys = Tensor(cache.self_k[i][:, :, : t + 1])
            values = Tensor(cache.self_v[i][:, :, : t + 1])
            x = add(x, self._attend(self._heads(normed, prefix, "q"), keys, values, prefix, None))

            prefix = f"dec.{i}.cross_attn"
            q = self._heads(self._norm(x, f"dec.{i}.ln2"), prefix, "q")
            keys, values = (Tensor(kv) for kv in cache.cross[i])
            x = add(x, self._attend(q, keys, values, prefix, None))
            x = add(x, self._ffn(self._norm(x, f"dec.{i}.ln3"), f"dec.{i}.ffn"))
        cache.length += 1
        return self._norm(x, "dec.ln")

    # -- heads ---------------------------------------------------------------

    def lm_head(self, hidden: Tensor) -> Tensor:
        """Token logits via the transposed input embedding (weight tying)."""
        return add(matmul(hidden, transpose(self.params["tok_emb.weight"])), self.params["lm_head.bias"])

    def _mlp_head(self, hidden: Tensor, name: str) -> Tensor:
        p = self.params
        mid = gelu(_linear(hidden, p[f"{name}.fc1.weight"], p[f"{name}.fc1.bias"]))
        return _linear(mid, p[f"{name}.fc2.weight"], p[f"{name}.fc2.bias"])

    def ap_head(self, hidden: Tensor) -> Tensor:
        return self._mlp_head(hidden, "ap_head")

    def rp_head(self, pair_hidden: Tensor) -> Tensor:
        if pair_hidden.shape[-1] != 2 * self.config.d_model:
            raise ValueError(
                f"rp_head expects width {2 * self.config.d_model}, got {pair_hidden.shape[-1]}"
            )
        return self._mlp_head(pair_hidden, "rp_head")

    def mrm_head(self, hidden: Tensor) -> Tensor:
        return self._mlp_head(hidden, "mrm_head")

    # -- full passes ----------------------------------------------------------

    def encoder_states(
        self,
        batch: "PaddedBatch",
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Encoder states [B, T_enc, d]."""
        return self.encode(self.embed(batch), batch.enc_mask, train, rng)

    def decode_ids(
        self,
        dec_ids: np.ndarray,
        enc_out: Tensor,
        enc_pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Decoder states [B, T_dec, d] for [B, T_dec] ids over ``enc_out``."""
        return self.decode(self.embed_decoder(dec_ids), enc_out, enc_pad_mask, train, rng)

    def forward(
        self,
        batch: "PaddedBatch",
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Run encoder and decoder; returns decoder hidden states [B, T_dec, d]."""
        enc_out = self.encoder_states(batch, train, rng)
        return self.decode_ids(batch.dec_ids, enc_out, batch.enc_mask, train, rng)
