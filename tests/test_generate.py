"""Decoding contracts: greedy determinism and nucleus prefix semantics."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from vcgen.data import pad_batch
from vcgen.generate import (
    GenerationConfig,
    _allowed_token_ids,
    generate,
    nucleus_candidates,
    sample_next_token,
)
from vcgen.model import Model, assemble_input
from vcgen.vocab import BOS_ID, EOS_ID, N_RESERVED

from helpers import tiny_config, tiny_examples, tiny_vocab

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
    counts = Counter()
    for _ in range(10_000):
        counts[sample_next_token(logits, config, rng)] += 1
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
    counts = Counter()
    n = 100_000
    for _ in range(n):
        counts[sample_next_token(logits, config, rng)] += 1
    assert set(counts) == {N_RESERVED + i for i in range(5)}
    tv = 0.5 * sum(abs(counts[N_RESERVED + i] / n - p) for i, p in enumerate(probs5))
    assert tv < 0.01


def test_greedy_argmax_with_tie_break():
    vocab_size = N_RESERVED + 4
    logits = fixture_logits(np.array([0.3, 0.3, 0.3, 0.1]), vocab_size)
    config = GenerationConfig(mode="greedy")
    assert sample_next_token(logits, config, None) == N_RESERVED  # lowest id among ties


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


def test_generate_rejects_non_generation_task(gen_setup):
    vocab, model, _, region = gen_setup
    with pytest.raises(ValueError, match="reg-0"):
        generate(model, vocab, region, GenerationConfig())


@pytest.mark.parametrize("use_event", [True, False])
def test_cached_decoding_matches_full_prefix_recompute(use_event):
    """In float64, every cached step agrees with re-running the decoder over
    the whole prefix, also after rows have left the cache."""
    vocab = tiny_vocab()
    model = Model.init_random(tiny_config(len(vocab)), 0, dtype=np.float64)
    kcg, _, _ = tiny_examples()
    assembled = assemble_input(kcg, vocab, "gen", use_event=use_event)
    enc_out, enc_mask = model.encoder_states(pad_batch([(assembled, kcg)]))
    max_len = 8
    cache = model.start_decoding(enc_out, enc_mask, 3, max_len)
    prefixes = [[BOS_ID] for _ in range(3)]
    rng = np.random.default_rng(11)
    for step in range(max_len):
        ids = np.asarray([prefix[-1] for prefix in prefixes])
        logits = model.lm_head(model.decode_step(ids, cache)).data[:, 0]
        assert logits.shape == (len(prefixes), len(vocab))
        for row, prefix in zip(logits, prefixes):
            oracle = model.lm_head(model.decode_ids(np.asarray([prefix]), enc_out, enc_mask)).data[0, -1]
            assert np.max(np.abs(row - oracle)) < 1e-9
        if step == 3:
            cache.keep([2, 0])
            prefixes = [prefixes[2], prefixes[0]]
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
    enc_out, enc_mask = model.encoder_states(pad_batch([(assemble_input(kcg, vocab, "gen"), kcg)]))
    tokens = np.random.default_rng(5).integers(N_RESERVED, len(vocab), size=(6, 3))
    together = model.start_decoding(enc_out, enc_mask, 3, 6)
    alone = [model.start_decoding(enc_out, enc_mask, 1, 6) for _ in range(3)]
    for step_ids in tokens:
        states = model.decode_step(step_ids, together).data
        for row, cache in enumerate(alone):
            assert np.array_equal(states[row], model.decode_step(step_ids[row : row + 1], cache).data[0])


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
