"""Autoregressive decoding: greedy argmax and nucleus (top-p) sampling."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import pad_batch
from .model import assemble_input
from .vocab import BOS_ID, EOS_ID, N_RESERVED, GENERATION_TASKS, Vocabulary

if TYPE_CHECKING:  # pragma: no cover
    from .data import MultimodalExample
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
    rng: np.random.Generator | None,
) -> int:
    """Pick the next token id from a full-vocabulary logit row.

    Reserved tokens other than </s> are excluded before the argmax or the
    top-p renormalization; greedy breaks ties by lowest token id.
    """
    allowed = _allowed_token_ids(len(logits))
    masked = np.full(len(logits), -np.inf)
    masked[allowed] = logits[allowed]
    if config.mode == "greedy":
        return int(np.argmax(masked))
    shifted = masked - masked.max()
    exp = np.exp(shifted)
    probs = exp / exp.sum()
    ids, renormed = nucleus_candidates(probs, config.top_p)
    return int(rng.choice(ids, p=renormed))


def generate(
    model: "Model",
    vocab: Vocabulary,
    example: "MultimodalExample",
    config: GenerationConfig,
    use_event: bool = True,
) -> list[list[int]]:
    """Decode ``num_samples`` token-id sequences for one example.

    Decoding starts the decoder at <s> and stops at </s> or max_len; the
    returned sequences carry neither. Greedy ignores top_p, decodes one row
    and repeats it for every sample; nucleus sample k draws from a generator
    seeded by (config.seed, k), so different examples can share a config.

    The example is encoded once and its rows advance together through a KV
    cache; a row that emits </s> leaves the batch. Rows are computed
    independently, so sample k does not depend on ``num_samples`` or on when
    the other rows stop.
    """
    config.validate()
    if example.task not in GENERATION_TASKS:
        raise ValueError(
            f"example {example.source_id!r} has non-generation task {example.task.value!r}"
        )
    assembled = assemble_input(
        example, vocab, "gen", use_event=use_event, max_positions=model.config.max_positions
    )
    enc_out, enc_mask = model.encoder_states(pad_batch([(assembled, example)]))
    max_len = min(config.max_len, model.config.max_positions - 1)

    if config.mode == "nucleus":
        rngs = [np.random.default_rng([config.seed, k]) for k in range(config.num_samples)]
    else:
        rngs = [None]
    cache = model.start_decoding(enc_out, enc_mask, len(rngs), max_len)
    sequences: list[list[int]] = [[] for _ in rngs]
    live = list(range(len(rngs)))  # sample index of each cache row
    ids = np.full(len(rngs), BOS_ID, dtype=np.int64)
    for _ in range(max_len):
        logits = model.lm_head(model.decode_step(ids, cache)).data[:, 0]
        nxt = [sample_next_token(row, config, rngs[k]) for k, row in zip(live, logits)]
        kept = [j for j, token in enumerate(nxt) if token != EOS_ID]
        if not kept:
            break
        if len(kept) < len(live):
            cache.keep(kept)
            live = [live[j] for j in kept]
        ids = np.asarray([nxt[j] for j in kept], dtype=np.int64)
        for k, token in zip(live, ids):
            sequences[k].append(int(token))
    if config.mode == "greedy":
        return [list(sequences[0]) for _ in range(config.num_samples)]
    return sequences
