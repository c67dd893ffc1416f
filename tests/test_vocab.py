"""Vocabulary construction, encoding, and the reserved-token contract."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from vcgen.vocab import (
    N_RESERVED,
    RESERVED_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocab,
)


def test_reserved_tokens_are_18_in_fixed_order():
    assert N_RESERVED == 18
    assert RESERVED_TOKENS[0] == "<pad>"
    assert RESERVED_TOKENS[17] == "<intent>"
    vocab = build_vocab(["anything"], min_freq=1)
    for i, tok in enumerate(RESERVED_TOKENS):
        assert vocab.token_to_id[tok] == i


def test_build_vocab_tie_break_by_count_then_lexicographic():
    vocab = build_vocab(["a a b"], min_freq=1)
    assert len(vocab) == 20
    assert vocab.token_to_id["a"] == 18
    assert vocab.token_to_id["b"] == 19


def test_build_vocab_min_freq_threshold():
    vocab = build_vocab(["a b"], min_freq=2)
    assert len(vocab) == 18
    assert vocab.id_to_token == list(RESERVED_TOKENS)


def test_build_vocab_matches_scripted_count_and_sort(tmp_path):
    # 1k synthetic sentences; an independent count-and-sort script fixes ids
    rng = np.random.default_rng(123)
    words = [f"word{i:02d}" for i in range(40)]
    sentences = [
        " ".join(words[rng.integers(0, 40)] for _ in range(rng.integers(3, 9)))
        for _ in range(1000)
    ]
    vocab = build_vocab(sentences, min_freq=2)

    counts = Counter()
    for s in sentences:
        for w in s.lower().split():
            counts[w] += 1
    expected = sorted(
        (w for w, c in counts.items() if c >= 2), key=lambda w: (-counts[w], w)
    )
    for rank, word in enumerate(expected):
        assert vocab.token_to_id[word] == 18 + rank
    assert len(vocab) == 18 + len(expected)


def test_encode_basic_and_unknown():
    vocab = build_vocab(["a a b"], min_freq=1)
    assert vocab.encode("a b") == [18, 19]
    assert vocab.encode("A  B") == [18, 19]  # lowercase + whitespace split
    assert vocab.encode("z") == [UNK_ID]


def test_decode_strips_reserved_except_unk():
    vocab = build_vocab(["a a b"], min_freq=1)
    assert vocab.decode([18, 19]) == "a b"
    assert vocab.decode([1, 18, 2]) == "a"
    assert vocab.decode([]) == ""
    assert vocab.decode([3]) == "<unk>"


def test_decode_out_of_range():
    vocab = build_vocab(["a"], min_freq=1)
    with pytest.raises(ValueError, match="out of range"):
        vocab.decode([len(vocab)])


def test_encode_decode_round_trip_on_in_vocab_sentences():
    rng = np.random.default_rng(5)
    words = ["red", "dog", "runs", "fast", "home"]
    vocab = build_vocab([" ".join(words)], min_freq=1)
    for _ in range(50):
        sentence = " ".join(words[rng.integers(0, len(words))] for _ in range(rng.integers(1, 8)))
        assert vocab.decode(vocab.encode(sentence)) == sentence.lower()


def test_decode_encode_identity_on_regular_id_sequences():
    rng = np.random.default_rng(8)
    vocab = build_vocab(["red dog runs fast home"], min_freq=1)
    for _ in range(50):
        ids = list(rng.integers(18, len(vocab), size=rng.integers(1, 10)))
        assert vocab.encode(vocab.decode(ids)) == ids


def test_serialization_round_trips_bit_exactly(tmp_path):
    vocab = build_vocab(["alpha beta beta gamma"], min_freq=1)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    first = path.read_bytes()
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    loaded.save(path)
    assert path.read_bytes() == first
    assert b"\r" not in first  # LF endings


def test_load_rejects_wrong_reserved_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\n<s>\nnope\n", encoding="utf-8")
    with pytest.raises(ValueError, match="reserved"):
        Vocabulary.load(path)
