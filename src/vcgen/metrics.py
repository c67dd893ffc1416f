"""Corpus-level caption metrics: BLEU-2, CIDEr-D, uniqueness, novelty.

Sentences are compared after whitespace normalization (strip plus collapse
of internal runs); tokens are whitespace words. When an example carries
several generated sentences, each one becomes an evaluation unit sharing the
example's references, so with a uniform sample count the inverse document
frequencies are unchanged.

Every metric takes a corpus of at least one generated sentence, each unit
with at least one reference: ``cli.cmd_evaluate`` refuses any other.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence


def normalize_sentence(s: str) -> str:
    return " ".join(s.split())


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class EvalEntry:
    generated: list[str]
    references: list[str]


@dataclass
class EvalCorpus:
    entries: list[EvalEntry]
    training_sentences: set[str] = field(default_factory=set)

    def units(self) -> list[tuple[str, list[str]]]:
        """One (hypothesis, references) pair per generated sentence."""
        out = []
        for entry in self.entries:
            refs = [normalize_sentence(r) for r in entry.references]
            for gen in entry.generated:
                out.append((normalize_sentence(gen), refs))
        return out


def bleu2(corpus: EvalCorpus) -> float:
    """Corpus BLEU with uniform weights over 1- and 2-grams, no smoothing.

    Clipped n-gram precision against the per-reference maximum count,
    geometric mean, and brevity penalty exp(1 - r/c) when the candidate
    corpus is shorter than r, the sum of closest reference lengths
    (ties going to the shorter reference). Returned as a percentage.
    """
    units = corpus.units()
    matches = [0, 0]
    totals = [0, 0]
    c_len = 0
    r_len = 0
    for hyp, refs in units:
        hyp_tokens = hyp.split()
        ref_token_lists = [r.split() for r in refs]
        c_len += len(hyp_tokens)
        r_len += min((abs(len(r) - len(hyp_tokens)), len(r)) for r in ref_token_lists)[1]
        for n in (1, 2):
            hyp_counts = ngram_counts(hyp_tokens, n)
            max_ref: Counter = Counter()
            for ref_tokens in ref_token_lists:
                for gram, count in ngram_counts(ref_tokens, n).items():
                    max_ref[gram] = max(max_ref[gram], count)
            matches[n - 1] += sum(min(c, max_ref[g]) for g, c in hyp_counts.items())
            totals[n - 1] += max(0, len(hyp_tokens) - n + 1)
    if c_len == 0 or any(t == 0 for t in totals):
        return 0.0
    precisions = [m / t for m, t in zip(matches, totals)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return 100.0 * bp * math.exp(0.5 * (math.log(precisions[0]) + math.log(precisions[1])))


CIDER_N = 4
CIDER_SIGMA = 6.0


def cider(corpus: EvalCorpus) -> float:
    """CIDEr-D: clipped TF-IDF cosine over n=1..4 with a Gaussian length
    penalty exp(-(len_h - len_r)^2 / (2 * 6^2)); averaged over references and
    n, scaled by 10.

    Document frequencies are counted per evaluation unit over its reference
    set; idf is ln(N / max(1, df)).
    """
    units = corpus.units()
    doc_freq: dict[tuple, int] = defaultdict(int)
    for _, refs in units:
        seen = set()
        for ref in refs:
            tokens = ref.split()
            for n in range(1, CIDER_N + 1):
                seen.update(ngram_counts(tokens, n).keys())
        for gram in seen:
            doc_freq[gram] += 1
    log_n = math.log(len(units))

    def tfidf_vec(tokens: list[str]):
        vecs = []
        norms = []
        for n in range(1, CIDER_N + 1):
            vec = {}
            sq = 0.0
            for gram, count in ngram_counts(tokens, n).items():
                weight = count * (log_n - math.log(max(1.0, doc_freq[gram])))
                vec[gram] = weight
                sq += weight * weight
            vecs.append(vec)
            norms.append(math.sqrt(sq))
        return vecs, norms

    total = 0.0
    for hyp, refs in units:
        hyp_tokens = hyp.split()
        hyp_vecs, hyp_norms = tfidf_vec(hyp_tokens)
        score_n = [0.0] * CIDER_N
        for ref in refs:
            ref_tokens = ref.split()
            ref_vecs, ref_norms = tfidf_vec(ref_tokens)
            penalty = math.exp(-((len(hyp_tokens) - len(ref_tokens)) ** 2) / (2.0 * CIDER_SIGMA**2))
            for n in range(CIDER_N):
                num = 0.0
                for gram, weight in hyp_vecs[n].items():
                    ref_weight = ref_vecs[n].get(gram, 0.0)
                    num += min(weight, ref_weight) * ref_weight
                if hyp_norms[n] != 0.0 and ref_norms[n] != 0.0:
                    num /= hyp_norms[n] * ref_norms[n]
                else:
                    num = 0.0
                score_n[n] += num * penalty
        unit_score = (sum(score_n) / CIDER_N) / len(refs)
        total += unit_score
    return 10.0 * total / len(units)


def unique_metric(sentences: Iterable[str], distinct: bool = False) -> float:
    """Percent of sentences occurring exactly once in the list.

    With ``distinct=True``, the alternative distinct-count reading:
    percent of distinct sentences over the total.
    """
    normalized = [normalize_sentence(s) for s in sentences]
    counts = Counter(normalized)
    if distinct:
        return 100.0 * len(counts) / len(normalized)
    singles = sum(1 for s in normalized if counts[s] == 1)
    return 100.0 * singles / len(normalized)


def novel_metric(sentences: Iterable[str], training_sentences: Iterable[str]) -> float:
    """Percent of sentences absent from the training set (exact match after
    whitespace normalization)."""
    normalized = [normalize_sentence(s) for s in sentences]
    training = {normalize_sentence(s) for s in training_sentences}
    fresh = sum(1 for s in normalized if s not in training)
    return 100.0 * fresh / len(normalized)


def metric_report(corpus: EvalCorpus, distinct_unique: bool = False) -> dict:
    """The standard four-metric report for one corpus."""
    generated = [g for entry in corpus.entries for g in entry.generated]
    return {
        "bleu2": bleu2(corpus),
        "cider": cider(corpus),
        "unique": unique_metric(generated, distinct=distinct_unique),
        "novel": novel_metric(generated, corpus.training_sentences),
        "n_examples": len(corpus.entries),
    }
