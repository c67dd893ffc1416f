"""Metric identities, zero cases, and the scripted-oracle fixture."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from vcgen.metrics import (
    EvalCorpus,
    EvalEntry,
    bleu2,
    cider,
    metric_report,
    normalize_sentence,
    novel_metric,
    unique_metric,
)

from oracles import bleu2_reference, cider_reference

FIXTURES = Path(__file__).parent / "fixtures"

# Frozen oracle outputs for the committed 20-example corpus.
FIXTURE_BLEU2 = 74.30051565952202
FIXTURE_CIDER = 5.778523686949287


def load_fixture_corpus() -> EvalCorpus:
    entries = json.loads((FIXTURES / "metric_corpus.json").read_text())
    return EvalCorpus([EvalEntry(e["generated"], e["references"]) for e in entries])


def identity_corpus(n=20) -> EvalCorpus:
    rng = np.random.default_rng(4)
    words = ["red", "dog", "runs", "home", "fast", "small", "bird", "sings", "loud", "round"]
    entries = []
    seen = set()
    while len(entries) < n:
        s = " ".join(words[rng.integers(len(words))] for _ in range(6))
        if s in seen:
            continue
        seen.add(s)
        entries.append(EvalEntry(generated=[s], references=[s]))
    return EvalCorpus(entries)


# ---------------------------------------------------------------------------
# BLEU-2


def test_bleu2_identity_corpus_scores_100():
    assert bleu2(identity_corpus()) == pytest.approx(100.0, abs=1e-9)


def test_bleu2_zero_bigram_overlap_scores_zero():
    corpus = EvalCorpus([EvalEntry(["a b"], ["a c"])])
    assert bleu2(corpus) == 0.0


def test_bleu2_matches_scripted_oracle_on_fixture():
    corpus = load_fixture_corpus()
    pairs = [(e.generated[0], e.references) for e in corpus.entries]
    assert bleu2(corpus) == pytest.approx(bleu2_reference(pairs), abs=1e-6)
    assert bleu2(corpus) == pytest.approx(FIXTURE_BLEU2, abs=1e-6)


def test_bleu2_brevity_penalty_direction():
    # shorter-than-reference candidates are penalized
    short = EvalCorpus([EvalEntry(["red dog"], ["red dog runs home fast"])])
    exact = EvalCorpus([EvalEntry(["red dog runs home fast"], ["red dog runs home fast"])])
    assert bleu2(short) < bleu2(exact)


def test_bleu2_permutation_invariant():
    corpus = load_fixture_corpus()
    reversed_corpus = EvalCorpus(list(reversed(corpus.entries)))
    assert bleu2(corpus) == pytest.approx(bleu2(reversed_corpus), abs=1e-12)


# ---------------------------------------------------------------------------
# CIDEr-D


def test_cider_identity_corpus_scores_10():
    assert cider(identity_corpus()) == pytest.approx(10.0, abs=1e-9)


def test_cider_disjoint_ngrams_scores_zero():
    entries = [
        EvalEntry(["aa bb cc dd ee"], ["vv ww xx yy zz"]),
        EvalEntry(["ff gg hh ii"], ["qq rr ss tt"]),
    ]
    assert cider(EvalCorpus(entries)) == 0.0


def test_cider_matches_scripted_oracle_on_fixture():
    corpus = load_fixture_corpus()
    pairs = [(e.generated[0], e.references) for e in corpus.entries]
    assert cider(corpus) == pytest.approx(cider_reference(pairs), abs=1e-5)
    assert cider(corpus) == pytest.approx(FIXTURE_CIDER, abs=1e-5)


def test_cider_range_and_permutation_invariance():
    corpus = load_fixture_corpus()
    value = cider(corpus)
    assert 0.0 <= value <= 10.0
    reversed_corpus = EvalCorpus(list(reversed(corpus.entries)))
    assert cider(reversed_corpus) == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# unique / novel


def test_unique_counts_exactly_once():
    assert unique_metric(["a", "a", "b"]) == pytest.approx(100.0 / 3.0)


def test_unique_all_distinct_and_all_identical():
    assert unique_metric(["a", "b", "c"]) == 100.0
    assert unique_metric(["a", "a"]) == 0.0


def test_unique_distinct_mode_flag():
    assert unique_metric(["a", "a", "b"], distinct=True) == pytest.approx(200.0 / 3.0)


def test_unique_normalizes_whitespace():
    assert unique_metric(["a  b", "a b"]) == 0.0


def test_novel_fraction():
    assert novel_metric(["a", "b", "c"], {"a"}) == pytest.approx(200.0 / 3.0, abs=1e-2)


def test_novel_empty_training_set_is_100():
    assert novel_metric(["a", "b"], set()) == 100.0


def test_novel_all_in_training_is_0():
    assert novel_metric(["a", "b"], {"a", "b", "c"}) == 0.0


def test_metric_ranges_on_fixture():
    corpus = load_fixture_corpus()
    report = metric_report(corpus)
    assert 0.0 <= report["bleu2"] <= 100.0
    assert 0.0 <= report["cider"] <= 10.0
    assert 0.0 <= report["unique"] <= 100.0
    assert 0.0 <= report["novel"] <= 100.0
    assert report["n_examples"] == 20


def test_normalize_sentence():
    assert normalize_sentence("  a   b \t c ") == "a b c"


def test_multi_generation_units_expand():
    entry = EvalEntry(generated=["a b c d e", "a b c d e"], references=["a b c d e"])
    corpus = EvalCorpus([entry])
    assert len(corpus.units()) == 2
    assert unique_metric([g for e in corpus.entries for g in e.generated]) == 0.0
