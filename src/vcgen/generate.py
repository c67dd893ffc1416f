"""Autoregressive decoding: greedy argmax and nucleus (top-p) sampling."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .data import SCORE_CHUNK_ROWS, exact_batches
from .errors import InputError
from .model import assemble_input
from .tensor import ARRAYS
from .vocab import BOS_ID, EOS_ID, N_RESERVED, GENERATION_TASKS, Vocabulary

if TYPE_CHECKING:  # pragma: no cover
    from .data import MultimodalExample
    from .model import AssembledInput, Model

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
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.top_p <= 1.0:
            raise InputError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_len < 1:
            raise InputError(f"max_len must be positive, got {self.max_len}")
        if self.num_samples < 1:
            raise InputError(f"num_samples must be positive, got {self.num_samples}")


def _top_p_prefix(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank every row of [S, V] float64 probs (descending, ties by lowest
    id) and cut it at the minimal prefix whose mass reaches top_p, zero
    probs excluded. Returns the ranking, the ranked probs over their
    prefix's sum, and each row's prefix width."""
    order = np.argsort(-probs, axis=-1, kind="stable")
    ranked = np.take_along_axis(probs, order, axis=-1)
    reach = (np.cumsum(ranked, axis=-1) < top_p).sum(axis=-1) + 1
    width = np.minimum(reach, (ranked > 0.0).sum(axis=-1))
    # Each prefix is summed alone, over exactly its width: a masked
    # full-width sum pairs the terms differently and changes bits.
    mass = np.empty(len(probs))
    for w in np.unique(width).tolist():
        rows = width == w
        mass[rows] = ranked[rows, :w].sum(axis=-1)
    return order, ranked / mass[:, None], width


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
    ranks and cuts all rows as one array (``_top_p_prefix``); row j then
    draws one double from ``rngs[j]``, in row order, and picks by
    ``Generator.choice``'s rule (the prefix's cumsum over its last entry,
    searched on the right). So a row gets the token, and leaves its
    generator in the state, that ``rngs[j].choice(ids, p=renormed)`` would.
    """
    allowed = _allowed_token_ids(logits.shape[-1])
    masked = np.full(logits.shape, -np.inf)
    masked[:, allowed] = logits[:, allowed]
    if config.mode == "greedy":
        return masked.argmax(axis=-1)
    exp = np.exp(masked - masked.max(axis=-1, keepdims=True))
    probs = exp / exp.sum(axis=-1, keepdims=True)
    order, renormed, width = _top_p_prefix(probs, config.top_p)
    # Past its width a row's cdf is >= 1 > u, so no entry there is counted.
    cdf = np.cumsum(renormed, axis=-1)
    cdf /= np.take_along_axis(cdf, width[:, None] - 1, axis=-1)
    u = np.array([rng.random() for rng in rngs])
    picked = (cdf <= u[:, None]).sum(axis=-1)
    return np.take_along_axis(order, picked[:, None], axis=-1)[:, 0]


def _mix_seed(seed: int, index: int) -> int:
    # Stable per-example stream; examples can be decoded in any order.
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def decode_length(model: "Model", config: GenerationConfig) -> int:
    """The most tokens a row decodes: ``max_len``, capped so that <s> and
    every token fit the model's positions."""
    return min(config.max_len, model.config.max_positions - 1)


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
    InputError before anything is decoded.

    Rows, ordered by encoder length (file order among equal lengths), are
    cut into chunks of at most ``SCORE_CHUNK_ROWS``. A chunk's examples are
    encoded over ``exact_batches`` and its rows, whatever their encoder
    length, advance together through one KV cache; a row that emits </s>
    leaves the cache. Every stacked product runs per row as it would alone,
    so a row's tokens do not depend on ``num_samples``, on the other
    examples in the file or on when the other rows stop. Results keep the
    input order.
    """
    config.validate()
    items = []
    for example in examples:
        if example.task not in GENERATION_TASKS:
            raise InputError(
                f"example {example.source_id!r} has non-generation task {example.task.value!r}"
            )
        assembled = assemble_input(
            example, vocab, "gen", use_event=use_event, max_positions=model.config.max_positions
        )
        items.append((assembled, example))
    rows_per_example = config.num_samples if config.mode == "nucleus" else 1
    rows = sorted(
        ((i, k) for i in range(len(items)) for k in range(rows_per_example)),
        key=lambda row: items[row[0]][0].enc_len,
    )
    sequences: list[list[list[int]]] = [[] for _ in items]
    for start in range(0, len(rows), SCORE_CHUNK_ROWS):
        chunk = rows[start : start + SCORE_CHUNK_ROWS]
        for (i, _), tokens in zip(chunk, _decode_rows(model, items, chunk, config)):
            sequences[i].append(tokens)
    if config.mode == "greedy":
        return [[list(samples[0]) for _ in range(config.num_samples)] for samples in sequences]
    return sequences


def _decode_rows(
    model: "Model",
    items: Sequence[tuple["AssembledInput", "MultimodalExample"]],
    rows: Sequence[tuple[int, int]],
    config: GenerationConfig,
) -> list[list[int]]:
    """Decode (item index, sample) rows through one KV cache; returns each
    row's tokens. The rows' distinct items are encoded over
    ``exact_batches``. A non-finite logit raises InputError naming its example."""
    distinct, row_example = np.unique([i for i, _ in rows], return_inverse=True)
    encodings: list[np.ndarray] = [None] * len(distinct)
    for members, batch in exact_batches([items[i] for i in distinct]):
        for m, encoding in zip(members, model.encoder_states(batch, ops=ARRAYS)):
            encodings[m] = encoding
    max_len = decode_length(model, config)
    cache = model.start_decoding(encodings, row_example, max_len)
    rngs = None
    if config.mode == "nucleus":
        rngs = [np.random.default_rng([_mix_seed(config.seed, i), k]) for i, k in rows]
    tokens: list[list[int]] = [[] for _ in rows]
    live = np.arange(len(rows))  # the row behind each cache row
    ids = np.full(len(rows), BOS_ID, dtype=np.int64)
    for step in range(1, max_len + 1):
        logits = model.lm_head(model.decode_step(ids, cache), ARRAYS)[:, 0]
        finite = np.isfinite(logits).all(axis=-1)
        if not finite.all():
            example = items[rows[live[np.argmin(finite)]][0]][1]
            raise InputError(f"example {example.source_id!r} gets a non-finite logit at decoding step {step}")
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
