"""Autoregressive decoding: greedy argmax and nucleus (top-p) sampling."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .data import exact_batches
from .model import assemble_input
from .vocab import BOS_ID, EOS_ID, N_RESERVED, GENERATION_TASKS, Vocabulary

if TYPE_CHECKING:  # pragma: no cover
    from .data import MultimodalExample, PaddedBatch
    from .model import Model

MODES = ("greedy", "nucleus")


@dataclass
class GenerationConfig:
    mode: str = "greedy"
    top_p: float = 0.9
    max_len: int = 32
    num_samples: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be positive, got {self.max_len}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be positive, got {self.num_samples}")


def nucleus_candidates(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimal prefix of the distribution (descending prob, ties by lowest id)
    whose cumulative mass reaches top_p, renormalized.

    Zero-probability tokens are never candidates.
    """
    probs = np.asarray(probs, dtype=np.float64)
    order = np.lexsort((np.arange(len(probs)), -probs))
    cum = np.cumsum(probs[order])
    k = int(np.searchsorted(cum, top_p, side="left")) + 1
    k = min(k, len(probs))
    ids = order[:k]
    ids = ids[probs[ids] > 0.0]
    chosen = probs[ids]
    return ids, chosen / chosen.sum()


@functools.cache
def _allowed_token_ids(vocab_size: int) -> np.ndarray:
    """Everything a decoder may emit: regular tokens plus </s>. Built once
    per vocabulary size and shared read-only."""
    ids = np.concatenate(([EOS_ID], np.arange(N_RESERVED, vocab_size)))
    ids.setflags(write=False)
    return ids


def sample_next_token(
    logits: np.ndarray,
    config: GenerationConfig,
    rngs: Sequence[np.random.Generator] | None,
) -> np.ndarray:
    """Pick the next token id of every row of [S, V] full-vocabulary logits.

    Reserved tokens other than </s> are excluded before the argmax or the
    top-p renormalization; greedy breaks ties by lowest token id. Nucleus
    row j draws from ``rngs[j]``. Every step is row-wise, so a row gets the
    token it gets alone.
    """
    allowed = _allowed_token_ids(logits.shape[-1])
    masked = np.full(logits.shape, -np.inf)
    masked[:, allowed] = logits[:, allowed]
    if config.mode == "greedy":
        return masked.argmax(axis=-1)
    exp = np.exp(masked - masked.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)
    tokens = np.empty(len(probs), dtype=np.int64)
    for j, (row, rng) in enumerate(zip(probs, rngs)):
        ids, renormed = nucleus_candidates(row, config.top_p)
        tokens[j] = rng.choice(ids, p=renormed)
    return tokens


def _mix_seed(seed: int, index: int) -> int:
    # Stable per-example stream; examples can be decoded in any order.
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def generate(
    model: "Model",
    vocab: Vocabulary,
    example: "MultimodalExample",
    config: GenerationConfig,
    use_event: bool = True,
) -> list[list[int]]:
    """Decode one example as a file of its own; see ``generate_dataset``.
    Its nucleus streams are those of a file's first example."""
    return generate_dataset(model, vocab, [example], config, use_event)[0]


def generate_dataset(
    model: "Model",
    vocab: Vocabulary,
    examples: Sequence["MultimodalExample"],
    config: GenerationConfig,
    use_event: bool = True,
) -> list[list[list[int]]]:
    """Decode ``num_samples`` token-id sequences for every example.

    Decoding starts the decoder at <s> and stops at </s> or max_len; the
    returned sequences carry neither. Greedy ignores top_p, decodes one row
    per example and repeats it for every sample; nucleus sample k of example
    i draws from a generator seeded by (``_mix_seed(config.seed, i)``, k).
    Every example must be a generation task; the first that is not raises
    ValueError before anything is decoded.

    Rows decode over ``exact_batches``: each batch is encoded at once, and
    its rows advance together through one KV cache; a row that emits </s>
    leaves the batch. Every stacked product runs per row as it would alone,
    so a row's tokens do not depend on ``num_samples``, on the other
    examples in the file or on when the other rows stop. Results keep the
    input order.
    """
    config.validate()
    items = []
    for example in examples:
        if example.task not in GENERATION_TASKS:
            raise ValueError(
                f"example {example.source_id!r} has non-generation task {example.task.value!r}"
            )
        assembled = assemble_input(
            example, vocab, "gen", use_event=use_event, max_positions=model.config.max_positions
        )
        items.append((assembled, example))
    rows_per_example = config.num_samples if config.mode == "nucleus" else 1
    sequences: list[list[list[int]]] = [[] for _ in items]
    for rows, batch in exact_batches(items, rows_per_example):
        for (i, _), tokens in zip(rows, _decode_rows(model, rows, batch, config)):
            sequences[i].append(tokens)
    if config.mode == "greedy":
        return [[list(samples[0]) for _ in range(config.num_samples)] for samples in sequences]
    return sequences


def _decode_rows(
    model: "Model",
    rows: Sequence[tuple[int, int]],
    batch: "PaddedBatch",
    config: GenerationConfig,
) -> list[list[int]]:
    """Decode the (example index, sample) rows of one ``exact_batches``
    batch; returns each row's tokens."""
    _, row_example = np.unique([i for i, _ in rows], return_inverse=True)
    enc_out = model.encoder_states(batch)
    max_len = min(config.max_len, model.config.max_positions - 1)
    cache = model.start_decoding(enc_out, row_example, max_len)
    rngs = None
    if config.mode == "nucleus":
        rngs = [np.random.default_rng([_mix_seed(config.seed, i), k]) for i, k in rows]
    tokens: list[list[int]] = [[] for _ in rows]
    live = np.arange(len(rows))  # the row behind each cache row
    ids = np.full(len(rows), BOS_ID, dtype=np.int64)
    for _ in range(max_len):
        logits = model.lm_head(model.decode_step(ids, cache)).data[:, 0]
        nxt = sample_next_token(logits, config, rngs)
        kept = np.flatnonzero(nxt != EOS_ID)
        if len(kept) == 0:
            break
        if len(kept) < len(live):
            cache.keep(kept)
            live = live[kept]
            if rngs is not None:
                rngs = [rngs[j] for j in kept]
        ids = nxt[kept]
        for row, token in zip(live.tolist(), ids.tolist()):
            tokens[row].append(token)
    return tokens
