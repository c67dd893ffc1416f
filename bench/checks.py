"""Output checks for the benchmark workloads.

Each check takes what a command wrote, already parsed, and returns
``(failed_ops, problems)``: how many of the command's ops (training steps,
decoded rows or scored candidates) are wrong, and one message per problem.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

LOSS_FIELDS = ("kcg", "ap", "rp", "mlm", "mrm", "total")


def check_train_log(records: Sequence[Mapping], expected_steps: int, epochs_with_val: int,
                    max_val_ce: float) -> tuple[int, list[str]]:
    """Every logged loss is finite; with validation, one ``val`` line per
    epoch and the last ``val_kcg`` below ``max_val_ce``.

    A bad step fails itself; a missing or bad validation fails every step.
    """
    problems = []
    steps = [r for r in records if r.get("kind") == "step"]
    vals = [r for r in records if r.get("kind") == "val"]
    bad_steps = 0
    for r in steps:
        losses = [r[k] for k in LOSS_FIELDS if k in r]
        if not losses or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in losses):
            bad_steps += 1
            problems.append(f"step {r.get('step')}: non-finite or missing loss")
    if len(steps) > expected_steps:
        problems.append(f"{len(steps)} steps logged, at most {expected_steps} expected")
        return expected_steps, problems
    if epochs_with_val:
        if len(vals) != epochs_with_val:
            problems.append(f"{len(vals)} val lines, expected {epochs_with_val}")
            return expected_steps, problems
        last = vals[-1].get("val_kcg")
        if not (isinstance(last, (int, float)) and math.isfinite(last) and last < max_val_ce):
            problems.append(f"val_ce {last!r} is not below {max_val_ce:.4f}")
            return expected_steps, problems
    return bad_steps, problems


def count_tokens(records: Iterable[Mapping], max_len: int) -> int:
    """Decoded tokens: words, plus the end token of every row that stopped
    before ``max_len``."""
    total = 0
    for rec in records:
        for text in rec["generations"]:
            n = len(text.split())
            total += n + (1 if n < max_len else 0)
    return total


def check_generations(records: Sequence[Mapping], source_ids: Sequence[str], rows_per_example: int,
                      max_len: int, reserved: Iterable[str], full_length: bool = False) -> tuple[int, list[str]]:
    """One record per example, in order, with ``rows_per_example`` rows of
    at most ``max_len`` words, or exactly ``max_len`` if ``full_length``,
    and no reserved token (the end token never appears in decoded text)."""
    reserved = set(reserved)
    problems = []
    expected_rows = len(source_ids) * rows_per_example
    if [r.get("source_id") for r in records] != list(source_ids):
        problems.append(f"{len(records)} records do not match the {len(source_ids)} examples in order")
        return expected_rows, problems
    failed = 0
    for rec in records:
        rows = rec.get("generations")
        if not isinstance(rows, list) or len(rows) != rows_per_example:
            problems.append(f"{rec['source_id']}: expected {rows_per_example} rows")
            failed += rows_per_example
            continue
        for text in rows:
            words = text.split()
            if len(words) > max_len or (full_length and len(words) != max_len):
                failed += 1
                problems.append(f"{rec['source_id']}: row of {len(words)} words, max_len {max_len}")
            elif reserved.intersection(words):
                failed += 1
                problems.append(f"{rec['source_id']}: reserved token in {text!r}")
    return failed, problems


def check_filter(kept: Sequence[Mapping], dropped: Sequence[Mapping], source_ids: Sequence[str],
                 threshold: float) -> tuple[int, list[str]]:
    """Kept plus dropped is exactly the candidate set; kept rows score below
    the threshold and dropped rows at or above it."""
    problems = []
    seen = [r.get("source_id") for r in kept] + [r.get("source_id") for r in dropped]
    if sorted(seen) != sorted(source_ids):
        problems.append(f"kept {len(kept)} + dropped {len(dropped)} is not the {len(source_ids)} candidates")
        return len(source_ids), problems
    failed = 0
    for rows, keep in ((kept, True), (dropped, False)):
        for r in rows:
            ce = r.get("avg_ce")
            if not isinstance(ce, float) or (ce < threshold) != keep:
                failed += 1
                problems.append(f"{r['source_id']}: avg_ce {ce!r} on the wrong side of {threshold!r}")
    return failed, problems


def count_mismatches(first: Mapping, again: Mapping) -> tuple[int, list[str]]:
    """Keys of ``again`` whose value differs from ``first``, compared exactly."""
    problems = [f"{k}: {again[k]!r} != {first.get(k)!r}" for k in again if again[k] != first.get(k)]
    return len(problems), problems
