"""Decoding contracts: greedy determinism and nucleus prefix semantics."""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from vcgen.data import SCORE_CHUNK_ROWS, pad_batch
from vcgen.generate import (
    GenerationConfig,
    _allowed_token_ids,
    generate,
    generate_dataset,
    nucleus_candidates,
    sample_next_token,
)
from vcgen.model import Model, assemble_input
from vcgen.synthetic import make_rois
from vcgen.tensor import Tensor
from vcgen.vocab import BOS_ID, EOS_ID, N_RESERVED

from helpers import tiny_config, tiny_examples, tiny_vocab
from oracles import per_example_generate, per_row_sample_next_token

FIXTURE_PROBS = np.array([0.5, 0.3, 0.15, 0.05])


def fixture_logits(probs, vocab_size):
    """Logits whose allowed-token softmax equals ``probs`` on the first
    regular ids; reserved logits are large on purpose to prove exclusion."""
    logits = np.full(vocab_size, 50.0)
    logits[EOS_ID] = -1e9
    logits[N_RESERVED : N_RESERVED + len(probs)] = np.log(probs)
    logits[N_RESERVED + len(probs) :] = -1e9
    return logits


def test_nucleus_candidates_fixture_prefix():
    ids, renormed = nucleus_candidates(FIXTURE_PROBS, top_p=0.9)
    assert ids.tolist() == [0, 1, 2]
    assert np.allclose(renormed, [10 / 19, 6 / 19, 3 / 19])


def test_nucleus_candidates_top_p_one_keeps_all_nonzero():
    ids, renormed = nucleus_candidates(np.array([0.4, 0.0, 0.6]), top_p=1.0)
    assert sorted(ids.tolist()) == [0, 2]
    assert renormed.sum() == pytest.approx(1.0)


def test_nucleus_candidates_tie_breaks_by_lowest_id():
    ids, _ = nucleus_candidates(np.array([0.25, 0.25, 0.25, 0.25]), top_p=0.5)
    assert ids.tolist() == [0, 1]


def test_nucleus_never_emits_outside_top_p_set():
    vocab_size = N_RESERVED + 4
    logits = fixture_logits(FIXTURE_PROBS, vocab_size)
    config = GenerationConfig(mode="nucleus", top_p=0.9)
    rng = np.random.default_rng(1234)
    counts = Counter(sample_next_token(np.tile(logits, (10_000, 1)), config, [rng] * 10_000).tolist())
    assert set(counts) <= {N_RESERVED, N_RESERVED + 1, N_RESERVED + 2}
    total = sum(counts.values())
    expected = {N_RESERVED: 10 / 19, N_RESERVED + 1: 6 / 19, N_RESERVED + 2: 3 / 19}
    tv = 0.5 * sum(abs(counts[t] / total - p) for t, p in expected.items())
    assert tv < 0.01


def test_nucleus_top_p_one_matches_distribution_and_support():
    probs5 = np.array([0.35, 0.25, 0.2, 0.15, 0.05])
    vocab_size = N_RESERVED + 5
    logits = fixture_logits(probs5, vocab_size)
    config = GenerationConfig(mode="nucleus", top_p=1.0)
    rng = np.random.default_rng(99)
    n = 100_000
    counts = Counter(sample_next_token(np.tile(logits, (n, 1)), config, [rng] * n).tolist())
    assert set(counts) == {N_RESERVED + i for i in range(5)}
    tv = 0.5 * sum(abs(counts[N_RESERVED + i] / n - p) for i, p in enumerate(probs5))
    assert tv < 0.01


def test_greedy_argmax_with_tie_break():
    vocab_size = N_RESERVED + 4
    logits = fixture_logits(np.array([0.3, 0.3, 0.3, 0.1]), vocab_size)
    config = GenerationConfig(mode="greedy")
    assert sample_next_token(logits[None], config, None).tolist() == [N_RESERVED]  # lowest id among ties


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        GenerationConfig(mode="beam").validate()
    with pytest.raises(ValueError, match="top_p"):
        GenerationConfig(mode="nucleus", top_p=0.0).validate()
    with pytest.raises(ValueError, match="max_len"):
        GenerationConfig(max_len=0).validate()
    with pytest.raises(ValueError, match="num_samples"):
        GenerationConfig(num_samples=0).validate()


@pytest.fixture(scope="module")
def gen_setup():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 0)
    kcg, region, _ = tiny_examples()
    return vocab, model, kcg, region


def test_greedy_generate_is_deterministic(gen_setup):
    vocab, model, kcg, _ = gen_setup
    config = GenerationConfig(mode="greedy", max_len=8)
    a = generate(model, vocab, kcg, config)
    b = generate(model, vocab, kcg, config)
    assert a == b


def test_greedy_num_samples_are_identical_repeats(gen_setup):
    vocab, model, kcg, _ = gen_setup
    config = GenerationConfig(mode="greedy", max_len=8, num_samples=3)
    seqs = generate(model, vocab, kcg, config)
    assert len(seqs) == 3
    assert seqs[0] == seqs[1] == seqs[2]


def test_nucleus_generate_seeded_and_counted(gen_setup):
    vocab, model, kcg, _ = gen_setup
    config = GenerationConfig(mode="nucleus", top_p=0.9, max_len=8, num_samples=5, seed=7)
    seqs = generate(model, vocab, kcg, config)
    assert len(seqs) == 5
    again = generate(model, vocab, kcg, config)
    assert seqs == again


def test_generated_ids_exclude_reserved_tokens(gen_setup):
    vocab, model, kcg, _ = gen_setup
    config = GenerationConfig(mode="nucleus", top_p=1.0, max_len=10, num_samples=4, seed=3)
    for seq in generate(model, vocab, kcg, config):
        for token in seq:
            assert token >= N_RESERVED


def test_generate_respects_max_len(gen_setup):
    vocab, model, kcg, _ = gen_setup
    config = GenerationConfig(mode="greedy", max_len=3)
    [seq] = generate(model, vocab, kcg, config)
    assert len(seq) <= 3


def test_generate_rejects_non_generation_task(gen_setup, monkeypatch):
    vocab, model, kcg, region = gen_setup
    with pytest.raises(ValueError, match="reg-0"):
        generate(model, vocab, region, GenerationConfig())
    # a file fails on its first non-generation example before decoding any
    monkeypatch.setattr(Model, "start_decoding", None)
    with pytest.raises(ValueError, match="reg-0"):
        generate_dataset(model, vocab, [kcg, kcg, region], GenerationConfig())


@pytest.mark.parametrize("use_event", [True, False])
def test_cached_decoding_matches_full_prefix_recompute(use_event):
    """In float64, every cached step agrees with re-running the decoder over
    the whole prefix and the row's own encoding, also for rows over two
    encodings of one batch and after rows have left the cache."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 0, dtype=np.float64)
    kcg, _, _ = tiny_examples()
    batch = pad_batch([(assemble_input(example, vocab, "gen", use_event=use_event), example)
                       for example in _variants(kcg, 2, config)])
    enc_out = model.encoder_states(batch)
    encodings = [(Tensor(enc_out.data[e : e + 1]), batch.enc_mask[e : e + 1]) for e in range(2)]
    max_len = 8
    row_example = [0, 1, 1]
    cache = model.start_decoding(enc_out, row_example, max_len)
    prefixes = [[BOS_ID] for _ in row_example]
    rng = np.random.default_rng(11)
    for step in range(max_len):
        ids = np.asarray([prefix[-1] for prefix in prefixes])
        logits = model.lm_head(model.decode_step(ids, cache)).data[:, 0]
        assert logits.shape == (len(prefixes), len(vocab))
        for row, prefix, e in zip(logits, prefixes, row_example):
            oracle = model.lm_head(model.decode_ids(np.asarray([prefix]), *encodings[e])).data[0, -1]
            assert np.max(np.abs(row - oracle)) < 1e-9
        if step == 3:
            cache.keep([2, 0])
            prefixes = [prefixes[2], prefixes[0]]
            row_example = [row_example[2], row_example[0]]
        for prefix in prefixes:
            prefix.append(int(rng.integers(N_RESERVED, len(vocab))))
    assert cache.length == max_len
    with pytest.raises(ValueError, match="full"):
        model.decode_step(ids[:2], cache)


def test_decode_step_rows_are_bitwise_independent():
    """In float32 at d=128, stepping rows together gives each row exactly
    the states it gets when stepped alone."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    config.d_model, config.n_heads, config.d_ffn = 128, 4, 256
    model = Model.init_random(config, 0)
    kcg, _, _ = tiny_examples()
    enc_out = model.encoder_states(pad_batch([(assemble_input(kcg, vocab, "gen"), kcg)]))
    tokens = np.random.default_rng(5).integers(N_RESERVED, len(vocab), size=(6, 3))
    together = model.start_decoding(enc_out, [0, 0, 0], 6)
    alone = [model.start_decoding(enc_out, [0], 6) for _ in range(3)]
    for step_ids in tokens:
        states = model.decode_step(step_ids, together).data
        for row, cache in enumerate(alone):
            assert np.array_equal(states[row], model.decode_step(step_ids[row : row + 1], cache).data[0])


def test_decode_step_rows_over_several_encodings_match_uncached_decoder_bitwise():
    """In float32 at d=128, rows mapped to different encodings of one
    batch get at the first position exactly the states of the uncached
    decoder run over their own encoding alone."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    config.d_model, config.n_heads, config.d_ffn = 128, 4, 256
    model = Model.init_random(config, 0)
    kcg, _, _ = tiny_examples()
    items = [(assemble_input(example, vocab, "gen"), example) for example in _variants(kcg, 3, config)]
    batch = pad_batch(items)
    enc_out = model.encoder_states(batch)
    row_example = [2, 0, 0, 1, 2]
    cache = model.start_decoding(enc_out, row_example, 4)
    states = model.decode_step(np.full(len(row_example), BOS_ID), cache).data
    for row, e in enumerate(row_example):
        alone = model.decode_ids(np.asarray([[BOS_ID]]), Tensor(enc_out.data[e : e + 1]), batch.enc_mask[e : e + 1])
        assert np.array_equal(states[row], alone.data[0])


def test_nucleus_rows_do_not_depend_on_other_rows(gen_setup):
    vocab, model, kcg, _ = gen_setup
    five = generate(model, vocab, kcg, GenerationConfig(mode="nucleus", max_len=8, num_samples=5, seed=7))
    three = generate(model, vocab, kcg, GenerationConfig(mode="nucleus", max_len=8, num_samples=3, seed=7))
    assert sorted({len(seq) for seq in five}) != [8]  # some row stopped at </s> and left the batch
    assert five[:3] == three


def test_allowed_token_ids_are_built_once_and_read_only():
    ids = _allowed_token_ids(40)
    assert ids is _allowed_token_ids(40)
    assert not ids.flags.writeable
    assert ids.tolist() == [EOS_ID, *range(N_RESERVED, 40)]


def _variants(example, n, config, seed=0):
    """``n`` copies of ``example`` with fresh region features: same encoder
    length and region count, different encodings."""
    rng = np.random.default_rng(seed)
    return [
        dataclasses.replace(
            example,
            rois=make_rois(rng, len(example.rois), config.d_visual, config.n_classes),
            source_id=f"{example.source_id}-{i}",
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("mode", ["greedy", "nucleus"])
def test_generate_dataset_rows_equal_one_example_decode_bitwise(mode, monkeypatch):
    """In float32 at d=128, every example gets from ``generate_dataset``
    the token rows, and at every step the logit rows, that it gets decoded
    alone, one row sampled at a time: in a shared bucket, in a bucket of
    its own and in a bucket split into chunks."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    config.d_model, config.n_heads, config.d_ffn, config.d_visual = 128, 4, 256, 64
    model = Model.init_random(config, 5)
    # Larger weights make rows differ by example; the </s> bias makes rows
    # stop at different steps, greedy ones included.
    for param in model.params.values():
        if param.ndim == 2:
            param.data *= 5
    model.params["lm_head.bias"].data[EOS_ID] = 1.0
    kcg, _, _ = tiny_examples()
    [kcg] = _variants(kcg, 1, config, seed=2)
    # one_roi has kcg's encoder length but not its region count; the pair
    # has kcg's region count but a shorter encoder
    one_roi = dataclasses.replace(kcg, rois=kcg.rois[:1], event_text="w1 w2 w3 w4 w5 w6 w1", source_id="one")
    pair = _variants(dataclasses.replace(kcg, event_text="w3 w4", source_id="short"), 2, config, seed=1)
    big = _variants(kcg, SCORE_CHUNK_ROWS + 3, config)
    examples = [one_roi, *big[:3], *pair, *big[3:]]
    gen_cfg = GenerationConfig(mode=mode, top_p=0.9, max_len=8, num_samples=5, seed=3)

    rows_per_cache, logit_rows = [], []
    start, lm_head = Model.start_decoding, Model.lm_head

    def counted(self, enc_out, row_example, max_len):
        rows_per_cache.append(len(row_example))
        return start(self, enc_out, row_example, max_len)

    def recorded(self, hidden):
        logits = lm_head(self, hidden)
        logit_rows.extend(row.tobytes() for row in logits.data[:, 0])
        return logits

    monkeypatch.setattr(Model, "lm_head", recorded)
    monkeypatch.setattr(Model, "start_decoding", counted)
    generated = generate_dataset(model, vocab, examples, gen_cfg)
    monkeypatch.setattr(Model, "start_decoding", start)
    batched_logits, logit_rows[:] = Counter(logit_rows), []
    for index, (example, rows) in enumerate(zip(examples, generated)):
        assert rows == per_example_generate(model, vocab, example, gen_cfg, index), example.source_id
    alone_logits = Counter(logit_rows)
    assert sum((batched_logits - alone_logits).values()) == sum((alone_logits - batched_logits).values()) == 0
    assert len({len(row) for rows in generated for row in rows}) > 2
    assert len({tuple(rows[0]) for rows in generated}) > 2
    if mode == "greedy":
        assert sorted(rows_per_cache) == [1, 2, 3, SCORE_CHUNK_ROWS]
    else:
        assert sorted(rows_per_cache) == [5, 10, 15] + [SCORE_CHUNK_ROWS] * 5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode,top_p", [("greedy", 0.9), ("nucleus", 0.5), ("nucleus", 0.9), ("nucleus", 1.0)])
def test_batched_sampling_equals_per_row_oracle(dtype, mode, top_p):
    """Each row of the [S, V] sampler picks the token the per-row oracle
    picks from the same generator, with tied logits and with every reserved
    id holding the largest logit of some row."""
    vocab_size = N_RESERVED + 12
    rng = np.random.default_rng(17)
    logits = rng.normal(0.0, 2.0, size=(3 * N_RESERVED, vocab_size))
    for reserved in range(N_RESERVED):
        logits[reserved, reserved] = 100.0  # masked out unless it is </s>
    ties = logits[N_RESERVED:]
    ties[:, N_RESERVED + 1] = ties[:, N_RESERVED + 4] = ties[:, N_RESERVED + 7] = 9.0  # three-way top tie
    logits[2 * N_RESERVED :, N_RESERVED:] = 0.0  # uniform over the regular ids
    logits = logits.astype(dtype)
    config = GenerationConfig(mode=mode, top_p=top_p)

    def streams():
        return [np.random.default_rng([5, j]) for j in range(len(logits))] if mode == "nucleus" else None

    batched, oracle = streams(), streams()
    for _ in range(20):
        tokens = sample_next_token(logits, config, batched)
        expected = [
            per_row_sample_next_token(row, config, None if oracle is None else oracle[j])
            for j, row in enumerate(logits)
        ]
        assert tokens.tolist() == expected
    assert tokens[EOS_ID] == EOS_ID  # </s> stays allowed
    if mode == "greedy":
        assert tokens[N_RESERVED + 1] == N_RESERVED + 1  # lowest id among the tied
