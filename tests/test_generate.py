"""Decoding contracts: greedy determinism and nucleus prefix semantics."""

from __future__ import annotations

import dataclasses
from collections import Counter

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgen.data import SCORE_CHUNK_ROWS, pad_batch
from vcgen.generate import (
    GenerationConfig,
    _allowed_token_ids,
    _top_p_prefix,
    generate,
    generate_dataset,
    sample_next_token,
)
from vcgen.model import Model, assemble_input
from vcgen.synthetic import make_rois
from vcgen.tensor import ARRAYS, TAPE, Tape, Tensor
from vcgen.vocab import BOS_ID, EOS_ID, N_RESERVED

from helpers import tiny_config, tiny_examples, tiny_vocab
from oracles import nucleus_candidates, per_example_generate, per_row_nucleus_prefix, per_row_sample_next_token

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


# Each decoding contract holds with one decoder layer and with two: every
# layer writes its self-attention keys and values at the cache position.
DEC_LAYERS = (1, 2)


def _decoder_config(vocab, n_dec_layers, wide=False):
    """``tiny_config`` with ``n_dec_layers`` decoder layers, at d=128 when
    ``wide``."""
    config = tiny_config(len(vocab))
    config.n_dec_layers = n_dec_layers
    if wide:
        config.d_model, config.n_heads, config.d_ffn = 128, 4, 256
    return config


@pytest.mark.parametrize("use_event", [True, False])
def test_cached_decoding_matches_full_prefix_recompute(use_event):
    """In float64, every cached step agrees with re-running the decoder over
    the whole prefix and the row's own encoding, also for rows over two
    encodings of different length and after rows have left the cache."""
    vocab = tiny_vocab()
    kcg, _, _ = tiny_examples()
    short = dataclasses.replace(kcg, rois=kcg.rois[:1], event_text="w1 w2", source_id="short")
    for n_dec_layers in DEC_LAYERS:
        model = Model.init_random(_decoder_config(vocab, n_dec_layers), 0, dtype=np.float64)
        encodings = []
        for example in (kcg, short):
            batch = pad_batch([(assemble_input(example, vocab, "gen", use_event=use_event), example)])
            encodings.append((model.encoder_states(batch), batch.enc_mask))
        assert encodings[0][0].shape != encodings[1][0].shape
        max_len = 8
        row_example = [0, 1, 1]
        cache = model.start_decoding([enc_out.data[0] for enc_out, _ in encodings], row_example, max_len)
        prefixes = [[BOS_ID] for _ in row_example]
        rng = np.random.default_rng(11)
        for step in range(max_len):
            ids = np.asarray([prefix[-1] for prefix in prefixes])
            logits = model.lm_head(model.decode_step(ids, cache), ARRAYS)[:, 0]
            assert logits.shape == (len(prefixes), len(vocab))
            for row, prefix, e in zip(logits, prefixes, row_example):
                oracle = model.lm_head(model.decode_ids(np.asarray([prefix]), *encodings[e])).data[0, -1]
                assert np.max(np.abs(row - oracle)) < 1e-9, f"{n_dec_layers} decoder layers, step {step}"
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
    kcg, _, _ = tiny_examples()
    tokens = np.random.default_rng(5).integers(N_RESERVED, len(vocab), size=(6, 3))
    for n_dec_layers in DEC_LAYERS:
        model = Model.init_random(_decoder_config(vocab, n_dec_layers, wide=True), 0)
        enc_out = model.encoder_states(pad_batch([(assemble_input(kcg, vocab, "gen"), kcg)]))
        together = model.start_decoding(enc_out.data, [0, 0, 0], 6)
        alone = [model.start_decoding(enc_out.data, [0], 6) for _ in range(3)]
        for step_ids in tokens:
            states = model.decode_step(step_ids, together)
            for row, cache in enumerate(alone):
                one = model.decode_step(step_ids[row : row + 1], cache)[0]
                assert np.array_equal(states[row], one), f"{n_dec_layers} decoder layers"


def test_decode_step_rows_over_several_encodings_match_uncached_decoder_bitwise():
    """In float32 at d=128, rows mapped to different encodings of one
    batch get at the first position exactly the states of the uncached
    decoder run over their own encoding alone."""
    vocab = tiny_vocab()
    kcg, _, _ = tiny_examples()
    row_example = [2, 0, 0, 1, 2]
    for n_dec_layers in DEC_LAYERS:
        config = _decoder_config(vocab, n_dec_layers, wide=True)
        model = Model.init_random(config, 0)
        items = [(assemble_input(example, vocab, "gen"), example) for example in _variants(kcg, 3, config)]
        batch = pad_batch(items)
        enc_out = model.encoder_states(batch)
        cache = model.start_decoding(enc_out.data, row_example, 4)
        states = model.decode_step(np.full(len(row_example), BOS_ID), cache)
        for row, e in enumerate(row_example):
            enc_e = Tensor(enc_out.data[e : e + 1])
            alone = model.decode_ids(np.asarray([[BOS_ID]]), enc_e, batch.enc_mask[e : e + 1])
            assert np.array_equal(states[row], alone.data[0]), f"{n_dec_layers} decoder layers"


def test_decode_step_rows_over_encodings_of_three_lengths_match_one_encoding_decoding_bitwise():
    """In float32 at d=128, interleaved rows over encodings of three
    different lengths get at the first position exactly the states of the
    uncached decoder run over their own encoding alone, and at every step
    those of a one-row cache, also after a reordering ``keep`` has dropped
    every row over one encoding. The cache's runs are its maximal runs of
    rows of one encoder length. After the ``keep`` the cache positions not
    yet written hold NaN: a step must write its position before it reads
    it."""
    vocab = tiny_vocab()
    kcg, _, _ = tiny_examples()
    # encoding 3 has encoding 2's length
    no_event = dataclasses.replace(kcg, event_text=None)
    row_example = [2, 0, 3, 0, 1, 2]
    max_len = 6
    tokens = np.random.default_rng(5).integers(N_RESERVED, len(vocab), size=(max_len, len(row_example)))
    for n_dec_layers in DEC_LAYERS:
        config = _decoder_config(vocab, n_dec_layers, wide=True)
        model = Model.init_random(config, 0)
        examples = [kcg, dataclasses.replace(kcg, event_text="w1 w2"), *_variants(no_event, 2, config)]
        batches = [pad_batch([(assemble_input(example, vocab, "gen"), example)]) for example in examples]
        enc_outs = [model.encoder_states(batch) for batch in batches]
        assert len({enc_out.shape[1] for enc_out in enc_outs}) == 3
        encodings = [enc_out.data[0] for enc_out in enc_outs]
        cache = model.start_decoding(encodings, row_example, max_len)
        alone = [model.start_decoding([encodings[e]], [0], max_len) for e in row_example]
        assert len(cache.runs) == 6
        ids = np.full(len(row_example), BOS_ID)
        for step in range(max_len):
            states = model.decode_step(ids, cache)
            for row, one in enumerate(alone):
                one_state = model.decode_step(ids[row : row + 1], one)[0]
                assert np.array_equal(states[row], one_state), f"{n_dec_layers} decoder layers"
            if step == 0:
                for row, e in enumerate(row_example):
                    uncached = model.decode_ids(np.asarray([[BOS_ID]]), enc_outs[e], batches[e].enc_mask)
                    assert np.array_equal(states[row], uncached.data[0]), f"{n_dec_layers} decoder layers"
            if step == 2:
                kept = [2, 4, 5, 0]  # drops both rows over encoding 0
                cache.keep(kept)
                for buffer in cache.self_k + cache.self_v:
                    buffer[:, :, cache.length :] = np.nan
                alone = [alone[j] for j in kept]
                assert len(cache.runs) == 3
            ids = tokens[step, : len(alone)]
        assert cache.length == max_len


def test_decode_step_records_nothing_on_an_active_tape():
    """Inside an active tape, with parameters that take gradients, decoding
    records no op and gives the states of frozen parameters bit for bit."""
    vocab = tiny_vocab()
    kcg, _, _ = tiny_examples()
    tokens = np.random.default_rng(3).integers(N_RESERVED, len(vocab), size=(4, 2))
    for n_dec_layers in DEC_LAYERS:
        config = _decoder_config(vocab, n_dec_layers)
        model = Model.init_random(config, 0)
        frozen = Model(config, {name: Tensor(param.data) for name, param in model.params.items()})
        enc_out = frozen.encoder_states(pad_batch([(assemble_input(kcg, vocab, "gen"), kcg)]))
        frozen_cache = frozen.start_decoding(enc_out.data, [0, 0], 4)
        with Tape() as tape:
            cache = model.start_decoding(enc_out.data, [0, 0], 4)
            for ids in tokens:
                states = model.decode_step(ids, cache)
                assert len(tape) == 0
                assert type(states) is np.ndarray
                frozen_states = frozen.decode_step(ids, frozen_cache)
                assert np.array_equal(states, frozen_states), f"{n_dec_layers} decoder layers"


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
    alone, one row sampled at a time, in caches of mixed encoder lengths
    and region counts and in a file split into chunks."""
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

    def counted(self, encodings, row_example, max_len):
        rows_per_cache.append(len(row_example))
        return start(self, encodings, row_example, max_len)

    def recorded(self, hidden, ops=TAPE):
        logits = lm_head(self, hidden, ops)
        logit_rows.extend(row.tobytes() for row in logits[:, 0])
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
        assert sorted(rows_per_cache) == [6, SCORE_CHUNK_ROWS]
    else:
        assert sorted(rows_per_cache) == [30] + [SCORE_CHUNK_ROWS] * 5


@pytest.mark.parametrize("mode", ["greedy", "nucleus"])
def test_generate_dataset_decodes_all_encoder_lengths_through_one_cache_per_chunk(mode, monkeypatch):
    """In float32 at d=128, a file whose examples all differ in encoder
    length decodes through one cache per ``SCORE_CHUNK_ROWS`` rows, and
    every example gets the token rows it gets decoded alone."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    config.d_model, config.n_heads, config.d_ffn, config.d_visual = 128, 4, 256, 64
    config.max_positions = 24
    model = Model.init_random(config, 5)
    for param in model.params.values():
        if param.ndim == 2:
            param.data *= 5
    model.params["lm_head.bias"].data[EOS_ID] = 1.0
    kcg, _, _ = tiny_examples()
    [kcg] = _variants(kcg, 1, config, seed=2)
    words = "w1 w2 w3 w4 w5 w6".split()
    # encoder length 5 without event words, 7 + n with n of them
    examples = [
        dataclasses.replace(kcg, event_text=" ".join(words[j % 6] for j in range(n)) or None, source_id=f"n{n}")
        for n in np.random.default_rng(4).permutation(14).tolist()
    ]
    assembled = [assemble_input(example, vocab, "gen", max_positions=config.max_positions) for example in examples]
    assert len({a.enc_len for a in assembled}) == len(examples)
    gen_cfg = GenerationConfig(mode=mode, top_p=0.9, max_len=8, num_samples=5, seed=3)

    lengths_per_cache = []
    start = Model.start_decoding

    def counted(self, encodings, row_example, max_len):
        lengths_per_cache.append([len(encodings[e]) for e in row_example])
        return start(self, encodings, row_example, max_len)

    monkeypatch.setattr(Model, "start_decoding", counted)
    generated = generate_dataset(model, vocab, examples, gen_cfg)
    monkeypatch.setattr(Model, "start_decoding", start)
    rows = len(examples) * (gen_cfg.num_samples if mode == "nucleus" else 1)
    assert [len(lengths) for lengths in lengths_per_cache] == [
        min(SCORE_CHUNK_ROWS, rows - begin) for begin in range(0, rows, SCORE_CHUNK_ROWS)
    ]
    assert all(len(set(lengths)) > 1 for lengths in lengths_per_cache)
    for index, (example, rows) in enumerate(zip(examples, generated)):
        assert rows == per_example_generate(model, vocab, example, gen_cfg, index), example.source_id
    assert len({tuple(rows[0]) for rows in generated}) > 2


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


@settings(max_examples=60, deadline=None)
@hypothesis.example(rows=5, vocab_size=40, top_p=0.9, dtype=np.float64, spread=1.0, tail=1.0, shared=False, seed=1)
@hypothesis.example(rows=9, vocab_size=300, top_p=0.5, dtype=np.float32, spread=0.0, tail=0.0, shared=False, seed=2)
@hypothesis.example(rows=7, vocab_size=200, top_p=1.0, dtype=np.float64, spread=2.0, tail=0.5, shared=False, seed=3)
@hypothesis.example(rows=70, vocab_size=600, top_p=0.9, dtype=np.float32, spread=1.0, tail=0.0, shared=True, seed=4)
@given(
    rows=st.integers(1, 70),
    vocab_size=st.integers(N_RESERVED + 1, 600),
    top_p=st.floats(0.0, 1.0, exclude_min=True),
    dtype=st.sampled_from([np.float32, np.float64]),
    spread=st.sampled_from([0.0, 0.3, 2.0, 30.0]),
    tail=st.floats(0.0, 1.0),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_nucleus_draw_is_bitwise_the_per_row_choice(rows, vocab_size, top_p, dtype, spread, tail, shared, seed):
    """Over several steps the [S, V] nucleus draw picks, row by row, the
    token the per-row ``Generator.choice`` oracle picks, and leaves every
    generator in the same state; each row's renormalized prefix is bitwise
    the one it has alone. ``spread`` 0 ties every logit; ``tail`` sets that
    share of the regular ids to -1e9 (zero probability), and 1 leaves </s>
    as the single candidate; ``shared`` hands every row one generator, so
    the rows must draw in row order."""
    logits = np.random.default_rng(seed).normal(0.0, 1.0, size=(rows, vocab_size)) * spread
    logits[:, vocab_size - int(tail * (vocab_size - N_RESERVED)) :] = -1e9
    logits = logits.astype(dtype)
    config = GenerationConfig(mode="nucleus", top_p=top_p)

    def streams():
        if shared:
            return [np.random.default_rng(seed)] * rows
        return [np.random.default_rng([seed, j]) for j in range(rows)]

    batched, oracle = streams(), streams()
    for _ in range(3):
        tokens = sample_next_token(logits, config, batched)
        expected = [per_row_sample_next_token(row, config, oracle[j]) for j, row in enumerate(logits)]
        assert tokens.tolist() == expected
    if tail == 1.0:
        assert set(tokens.tolist()) == {EOS_ID}
    assert [rng.random() for rng in batched] == [rng.random() for rng in oracle]

    exp = np.exp(logits - logits.max(axis=-1, keepdims=True), dtype=np.float64)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    order, renormed, width = _top_p_prefix(probs, top_p)
    for j, row in enumerate(probs):
        ids, expected = per_row_nucleus_prefix(row, top_p)
        assert order[j, : width[j]].tolist() == ids.tolist()
        assert renormed[j, : width[j]].tobytes() == expected.tobytes()
