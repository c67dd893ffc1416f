"""Dataset records, JSONL ingestion, relation mapping, batching, CE filter.

Dataset schema (UTF-8 JSONL, one object per line):

    {"task": "intent|before|after|caption|region_caption",
     "event": "string or null",
     "target": "string",
     "rois": [{"feat": [...], "class_probs": [...]}, ...],
     "attributes": [[roi_idx, attr_label], ...],
     "relations": [[subj_idx, obj_idx, rel_label], ...],
     "source_id": "string"}

Candidate files for the self-training filter replace "task" with a
"relation" field holding a knowledge-model relation name (xIntent, xWant,
xNeed, xReact, xEffect); the filter maps it onto a task. Scored outputs are
the same schema plus "avg_ce" (per-token mean cross-entropy in nats).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .files import write_jsonl
from .model import AssembledInput, RoIFeature, assemble_input
from .tensor import ARRAYS, mean_nll_kernel
from .vocab import GENERATION_TASKS, PAD_ID, TaskType, Vocabulary

if TYPE_CHECKING:  # pragma: no cover
    from .model import Model, ModelConfig


class DatasetError(InputError):
    """Schema violation; the message names the line, and the file it was read from."""


COMET_RELATION_TASKS = {
    "xIntent": TaskType.INTENT,
    "xWant": TaskType.INTENT,
    "xNeed": TaskType.BEFORE,
    "xReact": TaskType.AFTER,
    "xEffect": TaskType.AFTER,
}


def map_comet_relation(relation: str, line_no: int | None = None) -> TaskType:
    """xIntent/xWant -> intent, xNeed -> before, xReact/xEffect -> after."""
    _check(relation in COMET_RELATION_TASKS, line_no, f"unknown relation {relation!r}")
    return COMET_RELATION_TASKS[relation]


@dataclass
class MultimodalExample:
    task: TaskType
    rois: list[RoIFeature]
    event_text: str | None
    target_text: str
    attributes: list[tuple[int, int]] = field(default_factory=list)
    relations: list[tuple[int, int, int]] = field(default_factory=list)
    source_id: str = ""


@dataclass
class ScoredExample:
    example: MultimodalExample
    avg_ce: float
    n_tokens: int  # scored labels: target tokens plus </s>
    relation: str | None = None  # original relation for filter candidates


def _check(condition: bool, line_no: int | None, message: str) -> None:
    if not condition:
        where = f"line {line_no}: " if line_no is not None else ""
        raise DatasetError(where + message)


def _all_ints(values) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _annotations(obj: dict, name: str, fields: tuple, n_rois: int, n_labels: int | None, line_no: int | None) -> list:
    """Field ``name`` ('attributes' or 'relations'), a list or absent or
    null: integer entries of ``fields``, region indices then a label. The
    indices are in range and distinct; the label is >= 0 and, when
    ``n_labels`` is given, below it."""
    kind, listed = name[:-1], obj.get(name)
    _check(listed is None or isinstance(listed, list), line_no, f"field {name!r} must be a list")
    entries = []
    for entry in listed or []:
        _check(isinstance(entry, (list, tuple)) and len(entry) == len(fields) and _all_ints(entry), line_no,
               f"field {name!r} entries must be [{', '.join(fields)}] integers")
        *regions, label = entry
        where = f"roi index {regions[0]}" if len(regions) == 1 else f"indices {tuple(regions)}"
        _check(all(0 <= i < n_rois for i in regions), line_no, f"{kind} {where} out of range for {n_rois} rois")
        _check(len(set(regions)) == len(regions), line_no, f"{kind} pair {tuple(regions)} must name two distinct rois")
        _check(label >= 0, line_no, f"{kind} label {label} must be >= 0")
        if n_labels is not None:
            _check(label < n_labels, line_no, f"{kind} label {label} exceeds configured count {n_labels}")
        entries.append(tuple(entry))
    return entries


def _numbers(values) -> bool:
    """_all_ints's rule for numbers: a list of JSON numbers, none a string or
    a bool, and no int beyond float64."""
    types = set(map(type, values)) if isinstance(values, list) else {str}
    if not types <= {int, float}:
        return False
    try:
        if int in types:
            list(map(float, values))  # an int beyond float64 raises
    except OverflowError:
        return False
    return True


# The reader checks a block of lines once their RoI fields hold this many
# numbers, which bounds what a read holds beyond its examples.
BLOCK_NUMBERS = 1 << 16


class _RoIBlock:
    """The RoI fields of a block of lines, each added once its type is
    checked, in the order the lines check them. ``check`` runs the value
    checks in one array pass per (field, width) and raises the first
    failure in that order; ``flush`` then fills each example's ``rois`` with
    rows of the checked arrays."""

    def __init__(self) -> None:
        self.fields: list[tuple[list, int | None, int, str, list]] = []  # (rois, line_no, roi, name, values)
        self.size = 0

    def add(self, rois: list, line_no: int | None, roi: int, name: str, values: list) -> None:
        self.fields.append((rois, line_no, roi, name, values))
        self.size += len(values)

    def check(self) -> list[np.ndarray]:
        """Each field's float64 row. A field's values must be finite in
        float32, and those of 'class_probs' then >= 0 and sum to 1 within 1e-4."""
        groups: dict[tuple[str, int], list[int]] = {}
        for k, (*_, name, values) in enumerate(self.fields):
            groups.setdefault((name, len(values)), []).append(k)
        rows: list = [None] * len(self.fields)
        failures = []
        for (name, width), members in groups.items():
            flat = list(chain.from_iterable(self.fields[k][4] for k in members))
            array = np.array(flat, dtype=np.float64).reshape(len(members), width)
            with np.errstate(over="ignore", invalid="ignore"):  # the model runs float32
                passed = [np.isfinite(array.astype(np.float32)).all(axis=1)]
                sums = array.sum(axis=1)
                if name == "class_probs":
                    passed += [(array >= 0).all(axis=1), np.abs(sums - 1.0) <= 1e-4]
            for stage, ok in enumerate(passed):
                if not ok.all():
                    j = int(ok.argmin())  # a value not finite in float64 either is named as such
                    finite = "numbers finite in float32" if np.isfinite(array[j]).all() else "finite numbers"
                    rule = (f"must hold {finite}", "must hold numbers >= 0",
                            f"must sum to 1 within 1e-4, got {sums[j]:.6f}")[stage]
                    failures.append((members[j], stage, rule))
            for k, row in zip(members, array):
                rows[k] = row
        if failures:
            k, _, rule = min(failures)
            _, line_no, roi, name, _ = self.fields[k]
            _check(False, line_no, f"roi {roi} field {name!r} {rule}")
        return rows

    def flush(self) -> None:
        """Check the block, then hand each example its RoIFeatures."""
        rows = self.check()
        for (rois, *_), feat, class_probs in zip(self.fields[::2], rows[::2], rows[1::2]):
            rois.append(RoIFeature(feat, class_probs))
        self.fields, self.size = [], 0


def example_from_dict(
    obj: dict,
    line_no: int | None,
    block: _RoIBlock,
    n_attr: int | None = None,
    n_rel: int | None = None,
    task_override: TaskType | None = None,
) -> MultimodalExample:
    """One record, with its structure checked here, the RoI numbers rule
    included, and its RoI fields added to ``block``; the example's ``rois``
    stay empty until ``block.flush()`` checks their values. An error raised
    here comes after every field already in the block, in the order the
    checks run, so the reader runs ``block.check()`` before raising it."""
    _check(isinstance(obj, dict), line_no, "record is not a JSON object")
    if task_override is None:
        raw_task = obj.get("task")
        _check(
            isinstance(raw_task, str) and raw_task in TaskType._value2member_map_,
            line_no,
            f"field 'task' must be one of {[t.value for t in TaskType]}, got {obj.get('task')!r}",
        )
        task = TaskType(raw_task)
    else:
        task = task_override

    rois_raw = obj.get("rois", [])
    _check(isinstance(rois_raw, list), line_no, "field 'rois' must be a list")
    rois: list[RoIFeature] = []
    for i, r in enumerate(rois_raw):
        _check(
            isinstance(r, dict) and "feat" in r and "class_probs" in r,
            line_no,
            f"roi {i} must be an object with 'feat' and 'class_probs'",
        )
        for name in ("feat", "class_probs"):
            _check(_numbers(r[name]), line_no, f"roi {i} field {name!r} must be a list of numbers")
            block.add(rois, line_no, i, name, r[name])
    _check(
        len({len(r["feat"]) for r in rois_raw}) <= 1 and len({len(r["class_probs"]) for r in rois_raw}) <= 1,
        line_no,
        "rois must share feat/class_probs widths",
    )

    target = obj.get("target", "")
    _check(isinstance(target, str), line_no, "field 'target' must be a string")
    if task in GENERATION_TASKS:
        _check(bool(target.strip()), line_no, f"field 'target' must be non-empty for task {task.value!r}")

    event = obj.get("event")
    _check(event is None or isinstance(event, str), line_no, "field 'event' must be a string or null")

    n_rois = len(rois_raw)
    attributes = _annotations(obj, "attributes", ("roi_idx", "attr_label"), n_rois, n_attr, line_no)
    relations = _annotations(obj, "relations", ("subj_idx", "obj_idx", "rel_label"), n_rois, n_rel, line_no)

    source_id = obj.get("source_id", "")
    _check(isinstance(source_id, str), line_no, "field 'source_id' must be a string")

    return MultimodalExample(
        task=task,
        rois=rois,
        event_text=event,
        target_text=target,
        attributes=attributes,
        relations=relations,
        source_id=source_id,
    )


def example_to_dict(example: MultimodalExample) -> dict:
    return {
        "task": example.task.value,
        "event": example.event_text,
        "target": example.target_text,
        "rois": [
            {"feat": r.feat.tolist(), "class_probs": r.class_probs.tolist()} for r in example.rois
        ],
        "attributes": [list(a) for a in example.attributes],
        "relations": [list(r) for r in example.relations],
        "source_id": example.source_id,
    }


def _json_lines(fh) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line of a UTF-8 JSONL file;
    lines end at LF."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            obj = json.loads(line)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"line {line_no}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {line_no}: malformed JSON ({exc.msg})") from None
        except RecursionError:
            raise DatasetError(f"line {line_no}: JSON nested too deeply") from None
        yield line_no, obj


def _read_jsonl(path: str | Path, parse: Callable[[object, int, _RoIBlock], object]) -> list:
    """``parse(obj, line_no, block)`` of each line of a JSONL file, in order.
    The RoI values of each block of ``BLOCK_NUMBERS`` numbers are checked
    once its lines are parsed. The DatasetError raised is the first in line
    order, and names the file."""
    records = []
    block = _RoIBlock()
    try:
        with Path(path).open("rb") as fh:
            try:
                for line_no, obj in _json_lines(fh):
                    records.append(parse(obj, line_no, block))
                    if block.size >= BLOCK_NUMBERS:
                        block.flush()
            except DatasetError:
                block.check()  # a value error on an earlier line, or earlier on this one, comes first
                raise  # (if the block's own check raised, check raises the same error again)
            block.flush()
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return records


def load_jsonl(path: str | Path, n_attr: int | None = None, n_rel: int | None = None) -> list[MultimodalExample]:
    """Parse and validate a dataset file; fails fast naming the file and line."""
    return _read_jsonl(path, lambda obj, line_no, block: example_from_dict(obj, line_no, block, n_attr, n_rel))


def save_jsonl(path: str | Path, examples: Sequence[MultimodalExample]) -> None:
    """Write examples one JSON object per line."""
    write_jsonl(path, map(example_to_dict, examples))


def _candidate(obj, line_no: int, block: _RoIBlock) -> tuple[int, str, MultimodalExample]:
    relation = obj.get("relation") if isinstance(obj, dict) else None
    _check(isinstance(relation, str), line_no, "candidate rows need a string 'relation' field")
    task = map_comet_relation(relation, line_no)
    return line_no, relation, example_from_dict(obj, line_no, block, task_override=task)


def load_candidates_jsonl(path: str | Path) -> list[tuple[int, str, MultimodalExample]]:
    """Load filter candidates whose rows carry a 'relation' instead of a
    task, as (line number, relation, example)."""
    return _read_jsonl(path, _candidate)


def _generation_row(obj, line_no: int, block: _RoIBlock) -> dict | None:
    if line_no == 1 and isinstance(obj, dict) and "source_id" not in obj:
        return None  # the header
    _check(isinstance(obj, dict), line_no, "generation rows must be JSON objects")
    for name in ("source_id", "task"):
        _check(isinstance(obj.get(name), str), line_no, f"generation rows need a string {name!r}")
    generations = obj.get("generations")
    _check(isinstance(generations, list) and all(isinstance(g, str) for g in generations), line_no,
           "generation rows need a list of strings under 'generations'")
    return obj


def load_generations_jsonl(path: str | Path) -> list[dict]:
    """The rows of a generations file, after its optional header line (an
    object with no source_id)."""
    return [row for row in _read_jsonl(path, _generation_row) if row is not None]


def check_dataset_dims(examples: Sequence[MultimodalExample], config: "ModelConfig", path: str) -> None:
    """Fail fast when region feature widths disagree with the model config."""
    for example in examples:
        for roi in example.rois:
            if len(roi.feat) != config.d_visual:
                raise DatasetError(
                    f"{path}: example {example.source_id!r} has RoI feature width "
                    f"{len(roi.feat)}, model d_visual is {config.d_visual}"
                )
            if len(roi.class_probs) != config.n_classes:
                raise DatasetError(
                    f"{path}: example {example.source_id!r} has {len(roi.class_probs)} "
                    f"detector classes, model n_classes is {config.n_classes}"
                )


# ---------------------------------------------------------------------------
# scoring and filtering

def score_description(model: "Model", vocab: Vocabulary, example: MultimodalExample) -> ScoredExample:
    """Score one example alone, with its event text; see ``score_dataset``."""
    return score_dataset(model, vocab, [example])[0]


def score_dataset(
    model: "Model", vocab: Vocabulary, examples: Sequence[MultimodalExample], use_event: bool = True
) -> list[ScoredExample]:
    """Teacher-forced per-token mean cross-entropy of each target, in nats.

    Runs in eval mode (no dropout) on the array ops, which record no tape,
    conditioning on the example's task token, regions, and event text; the
    end-of-sequence token counts as the final label, matching the
    generation training objective. Forwards run over ``exact_batches``, so
    each score is bit for bit the one the example gets alone. Results keep
    the input order.
    """
    items = [
        (assemble_input(ex, vocab, "kcg", use_event=use_event, max_positions=model.config.max_positions), ex)
        for ex in examples
    ]
    scored: list[ScoredExample | None] = [None] * len(items)
    for indices, batch in exact_batches(items):
        logits = model.lm_head(model.forward(batch, ops=ARRAYS), ARRAYS)
        for i, avg_ce in zip(indices, mean_nll_kernel(logits, batch.dec_labels)[0].tolist()):
            scored[i] = ScoredExample(example=examples[i], avg_ce=avg_ce, n_tokens=len(items[i][0].dec_labels))
    return scored


def filter_dataset(
    scored: Sequence[ScoredExample], threshold: float
) -> tuple[list[ScoredExample], list[ScoredExample]]:
    """Partition by strict avg_ce < threshold ("below"); order preserved."""
    kept = [s for s in scored if s.avg_ce < threshold]
    dropped = [s for s in scored if not (s.avg_ce < threshold)]
    return kept, dropped


HISTOGRAM_BINS = 50
HISTOGRAM_RANGE = (0.0, 10.0)


def filter_report(kept: Sequence[ScoredExample], dropped: Sequence[ScoredExample]) -> dict:
    """Counts, keep ratio, and a histogram of avg_ce over all scored examples."""
    scores = np.asarray([s.avg_ce for s in kept] + [s.avg_ce for s in dropped])
    n_total = len(scores)
    in_range = scores[scores <= HISTOGRAM_RANGE[1]] if n_total else scores
    counts, edges = np.histogram(in_range, bins=HISTOGRAM_BINS, range=HISTOGRAM_RANGE)
    overflow = int((scores > HISTOGRAM_RANGE[1]).sum()) if n_total else 0
    return {
        "n_candidates": n_total,
        "n_kept": len(kept),
        "n_dropped": len(dropped),
        "keep_ratio": (len(kept) / n_total) if n_total else 0.0,
        "histogram": {
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
            "overflow": overflow,
        },
    }


# ---------------------------------------------------------------------------
# batching


@dataclass
class PaddedBatch:
    """A batch of assembled examples right-padded to the batch max lengths.

    Region features are stacked per item, [B, R, d_visual] with R the
    largest region count, zero beyond each item's regions and at the
    regions its denoising pass masks. ``roi_index`` lists the real regions
    as flat rows of that stack; ``slot_index`` lists their visual slots as
    flat rows of the [B, enc_len] encoder positions.
    """

    items: list[tuple[AssembledInput, MultimodalExample]]
    enc_len: int
    dec_len: int
    enc_ids: np.ndarray  # [B, enc_len], pad id beyond each real length
    enc_mask: np.ndarray  # [B, enc_len] bool, True at real positions
    dec_ids: np.ndarray  # [B, dec_len]
    dec_labels: np.ndarray | None  # [B, dec_len], pad id at ignored positions
    roi_feats: np.ndarray  # [B, R, d_visual]
    roi_index: np.ndarray  # [n_regions] flat rows of roi_feats
    slot_index: np.ndarray  # [n_regions] flat rows of [B, enc_len]

    def __len__(self) -> int:
        return len(self.items)


def _prefix_mask(lengths: Sequence[int], width: int) -> np.ndarray:
    """[len(lengths), width] bool, True at the first ``lengths[i]`` places of row i."""
    return np.arange(width) < np.asarray(lengths)[:, None]


def _padded(rows: list[np.ndarray], width: int) -> np.ndarray:
    """[len(rows), width] int64 ids: each row's, then the pad id."""
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    out[_prefix_mask([len(r) for r in rows], width)] = np.concatenate(rows)
    return out


def _flat_index(parts: list[np.ndarray], width: int) -> np.ndarray:
    """Row i's places ``parts[i]`` as flat indices of [len(parts), width]."""
    return np.repeat(np.arange(len(parts)) * width, [len(p) for p in parts]) + np.concatenate(parts)


def pad_batch(items: Sequence[tuple[AssembledInput, MultimodalExample]]) -> PaddedBatch:
    """Pad (assembled, example) pairs into one batch, in the given order.

    Each array is filled in one pass over the batch: the id rows through a
    mask of the real positions, the region rows through their flat indices.
    ``items`` is not empty: the batchers pass non-empty slices."""
    items = list(items)
    assembled = [a for a, _ in items]
    n = len(items)
    enc_len = max(a.enc_len for a in assembled)
    dec_len = max(a.dec_len for a in assembled)
    roi_counts = [len(ex.rois) for _, ex in items]
    n_rois = max(roi_counts)
    d_visual = next((len(ex.rois[0].feat) for _, ex in items if ex.rois), 0)
    labels = [a.dec_labels for a in assembled]
    no_labels = np.zeros(0, dtype=np.int64)
    roi_feats = np.zeros((n, n_rois, d_visual))
    roi_index = np.flatnonzero(_prefix_mask(roi_counts, n_rois))
    region_rows = roi_feats.reshape(n * n_rois, d_visual)
    region_rows[roi_index] = [r.feat for _, ex in items for r in ex.rois]
    region_rows[_flat_index([a.mrm_roi_indices for a in assembled], n_rois)] = 0.0
    return PaddedBatch(
        items=items,
        enc_len=enc_len,
        dec_len=dec_len,
        enc_ids=_padded([a.enc_ids for a in assembled], enc_len),
        enc_mask=_prefix_mask([a.enc_len for a in assembled], enc_len),
        dec_ids=_padded([a.dec_ids for a in assembled], dec_len),
        dec_labels=None if all(l is None for l in labels) else _padded(
            [no_labels if l is None else l for l in labels], dec_len),
        roi_feats=roi_feats,
        roi_index=roi_index,
        slot_index=_flat_index([a.visual_slots for a in assembled], enc_len),
    )


# Rows per inference batch. Bounds the [rows, T, V] logits a scoring forward
# holds, and the rows one decoder cache steps, on large files.
SCORE_CHUNK_ROWS = 64


def exact_batches(
    items: Sequence[tuple[AssembledInput, MultimodalExample]],
) -> Iterator[tuple[list[int], PaddedBatch]]:
    """Batch (assembled, example) pairs for inference without any padding.

    Items share a batch only if they have the same encoder length, decoder
    length and region count; a group is cut into chunks of at most
    ``SCORE_CHUNK_ROWS`` items. Yields each chunk's item indices with its
    batch, in item order. Groups come in order of first item.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, (assembled, _) in enumerate(items):
        key = (assembled.enc_len, assembled.dec_len, len(assembled.visual_slots))
        groups.setdefault(key, []).append(i)
    for group in groups.values():
        for start in range(0, len(group), SCORE_CHUNK_ROWS):
            chunk = group[start : start + SCORE_CHUNK_ROWS]
            yield chunk, pad_batch([items[i] for i in chunk])


def make_batches(
    items: Sequence[tuple[AssembledInput, MultimodalExample]],
    batch_size: int,
    seed=0,
) -> list[PaddedBatch]:
    """Shuffle (assembled, example) pairs and chunk them into padded batches.

    The shuffle is a deterministic permutation of the given seed; the last
    partial batch is retained.
    """
    order = np.random.default_rng(seed).permutation(np.arange(len(items)))
    return [
        pad_batch([items[i] for i in order[start : start + batch_size]])
        for start in range(0, len(items), batch_size)
    ]
