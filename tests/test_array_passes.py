"""The reader's block checks, ``pad_batch`` and ``mean_nll_kernel`` against
their one-row-at-a-time references in ``oracles``: equal examples or the
identical error, equal batch arrays, and the same bits."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from vcgen import data
from vcgen.data import COMET_RELATION_TASKS, DatasetError, MultimodalExample, load_candidates_jsonl, load_jsonl, pad_batch
from vcgen.model import assemble_input
from vcgen.synthetic import make_rois
from vcgen.tensor import mean_nll_kernel
from vcgen.vocab import TaskType

from helpers import tiny_vocab
from oracles import per_row_mean_nll, reference_load_candidates, reference_load_jsonl, reference_pad_batch

RELATIONS = sorted(COMET_RELATION_TASKS)
TASKS = [t.value for t in TaskType]
# Tokens json.dumps cannot write, spliced into the line in place of a marker string.
RAW_TOKENS = {"<1e999>": "1e999", "<-1e999>": "-1e999"}
BAD_LINE = "<malformed>"


def _row(rng: np.random.Generator, index: int, candidate: bool) -> dict:
    """A valid row; its region widths are drawn per row, so files mix them.
    Class counts past 8 and 128 take numpy's unrolled and pairwise sums."""
    d_feat, n_cls = int(rng.integers(1, 4)), int(rng.choice([1, 2, 3, 10, 130]))
    n_rois = int(rng.integers(0, 4))
    rois = [
        {"feat": rng.normal(size=d_feat).tolist(), "class_probs": rng.dirichlet(np.ones(n_cls)).tolist()}
        for _ in range(n_rois)
    ]
    row = {
        "event": "w1 w2" if rng.random() < 0.5 else None,
        "target": "tgt1 tgt2",
        "rois": rois,
        "attributes": [[0, 1]] if n_rois else [],
        "relations": [[0, 1, 2]] if n_rois > 1 else [],
        "source_id": f"r{index}",
    }
    if candidate:
        row["relation"] = RELATIONS[int(rng.integers(len(RELATIONS)))]
    else:
        row["task"] = TASKS[int(rng.integers(len(TASKS)))]
    return row


def _roi_field(row: dict, roi: int, name: str) -> list | None:
    rois = row["rois"] if isinstance(row["rois"], list) else []
    if not rois or not isinstance(rois[roi % len(rois)], dict):
        return None
    return rois[roi % len(rois)].get(name)


def _numeric_probs(row: dict, roi: int, count: int | None = None) -> bool:
    """Whether the roi has class_probs whose first ``count`` entries (all
    for None) take float arithmetic: an earlier fault may have put a string,
    a list, null or an int past float64 there."""
    values = _roi_field(row, roi, "class_probs")
    return bool(values) and all(
        isinstance(v, float) or (isinstance(v, int) and abs(v) < 2**1023) for v in values[:count]
    )


def _inject(row: dict, fault: str, roi: int, name: str, entry: int, scale: float):
    """``row`` with one fault; returns the row, or BAD_LINE for a line that
    is not JSON."""
    rois = row["rois"] if isinstance(row["rois"], list) else []
    if fault == "rois_not_list":
        row["rois"] = {"feat": [0.5]}
    elif fault == "roi_not_dict" and rois:
        rois[roi % len(rois)] = [0.5]
    elif fault == "roi_lacks_key" and rois and isinstance(rois[roi % len(rois)], dict):
        rois[roi % len(rois)].pop(name, None)
    elif fault in ENTRY_VALUES and _roi_field(row, roi, name):
        values = _roi_field(row, roi, name)
        values[entry % len(values)] = ENTRY_VALUES[fault]
    elif fault == "negative_prob" and _roi_field(row, roi, "class_probs") is not None:
        values = _roi_field(row, roi, "class_probs")
        values[:] = [1.25, -0.25] + [0.0] * max(len(values) - 2, 0)
    elif fault == "sum_off" and _numeric_probs(row, roi):
        values = _roi_field(row, roi, "class_probs")
        values[:] = [v * scale for v in values]
    elif fault == "sum_edge" and _numeric_probs(row, roi, 1):
        values = _roi_field(row, roi, "class_probs")
        values[0] += (1e-4 if scale > 1 else -1e-4) + (scale - 1) * 1e-12
    elif fault == "int_probs" and _roi_field(row, roi, "class_probs") is not None:
        values = _roi_field(row, roi, "class_probs")
        values[:] = [1] + [0] * (len(values) - 1)
    elif fault == "empty_field" and rois and isinstance(rois[roi % len(rois)], dict):
        rois[roi % len(rois)][name] = []
    elif fault == "width_within" and rois and isinstance(rois[0], dict) and isinstance(rois[0].get(name), list):
        extra = {key: list(value) if isinstance(value, list) else value for key, value in rois[0].items()}
        extra[name] = extra[name] + [0.0]
        rois.append(extra)
    elif fault in ROW_VALUES:
        key, value = ROW_VALUES[fault]
        row[key] = value
    elif fault == "not_object":
        return [row]
    elif fault == "malformed_json":
        return BAD_LINE
    return row


ENTRY_VALUES = {
    "string_entry": "0.5",
    "bool_entry": True,
    "nested_entry": [0.5],
    "null_entry": None,
    "int_beyond_float64": 10**400,
    "int_beyond_float32": -(10**39),
    "beyond_float32": 1e300,
    "float32_edge_out": 3.4028235677973366e38,
    "float32_edge_in": -3.4028235677973362e38,
    "inf_token": "<1e999>",
    "minus_inf_token": "<-1e999>",
    "infinity": float("inf"),
    "nan": float("nan"),
}
ROW_VALUES = {
    "bad_target": ("target", 5),
    "empty_target": ("target", " "),
    "bad_event": ("event", 3),
    "bad_annotation": ("attributes", [[7, 0]]),
    "mistyped_annotation": ("relations", [["a", 0, 1]]),
    "bad_source_id": ("source_id", 1),
    "bad_task": ("task", "dance"),
    "bad_relation": ("relation", "xDance"),
}
FAULTS = sorted(
    [*ENTRY_VALUES, *ROW_VALUES, "rois_not_list", "roi_not_dict", "roi_lacks_key", "negative_prob", "sum_off",
     "sum_edge", "int_probs", "empty_field", "width_within", "not_object", "malformed_json"]
)

_fault = st.tuples(
    st.sampled_from(FAULTS), st.integers(0, 5), st.integers(0, 3), st.sampled_from(["feat", "class_probs"]),
    st.integers(0, 3), st.sampled_from([0.5, 0.9998, 1.0002, 1.5]),
)


def _line(row) -> str:
    if row == BAD_LINE:
        return "{not json"
    text = json.dumps(row)
    for marker, token in RAW_TOKENS.items():
        text = text.replace(json.dumps(marker), token)
    return text


def _comparable(example: MultimodalExample) -> tuple:
    rois = [tuple((a.dtype.str, a.shape, a.tobytes()) for a in (r.feat, r.class_probs)) for r in example.rois]
    return (example.task, example.event_text, example.target_text, example.attributes, example.relations,
            example.source_id, rois)


def _outcome(load, path) -> list | str:
    try:
        records = load(path)
    except DatasetError as exc:
        return str(exc)
    return [(r[0], r[1], _comparable(r[2])) if isinstance(r, tuple) else _comparable(r) for r in records]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    faults=st.lists(_fault, max_size=3),
    candidate=st.booleans(),
    block=st.sampled_from([1, 8, 30, data.BLOCK_NUMBERS]),
    n_labels=st.sampled_from([None, 3]),
)
@example(seed=0, n_rows=1, faults=[("int_beyond_float64", 0, 0, "class_probs", 0, 0.5),
                                   ("sum_edge", 0, 0, "feat", 0, 0.5)],
         candidate=False, block=1, n_labels=None)
def test_block_reader_matches_the_per_line_reader(tmp_path_factory, seed, n_rows, faults, candidate, block, n_labels):
    """Valid rows plus up to three faults, several on one line at times:
    the same examples, or the identical DatasetError text, at every block
    size down to one number."""
    rng = np.random.default_rng(seed)
    rows = [_row(rng, i, candidate) for i in range(n_rows)]
    for fault, at, roi, name, entry, scale in faults:
        if isinstance(rows[at % n_rows], dict):
            rows[at % n_rows] = _inject(rows[at % n_rows], fault, roi, name, entry, scale)
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    path.write_text("".join(_line(row) + "\n" + ("\n" if i % 3 == 2 else "") for i, row in enumerate(rows)),
                    encoding="utf-8")
    if candidate:
        new, reference = load_candidates_jsonl, reference_load_candidates
    else:
        new = lambda p: load_jsonl(p, n_labels, n_labels)  # noqa: E731
        reference = lambda p: reference_load_jsonl(p, n_labels, n_labels)  # noqa: E731
    with mock.patch.object(data, "BLOCK_NUMBERS", block):
        got = _outcome(new, path)
    event(got.split(": ", 2)[-1].split(" got ")[0] if isinstance(got, str) else "loads")
    assert got == _outcome(reference, path)


@pytest.mark.parametrize(
    "lines,message",
    [
        # a value error in roi 0 comes before roi 1's structure
        ([{"rois": [{"feat": [1e300], "class_probs": [1.0]}, [0]]}], "line 1: roi 0 field 'feat' must hold numbers finite in float32"),
        # roi 0's feat values come before its class_probs type
        ([{"rois": [{"feat": [1e999], "class_probs": "x"}]}], "line 1: roi 0 field 'feat' must hold finite numbers"),
        # within one field: finite, then >= 0, then the sum
        ([{"rois": [{"feat": [0.0], "class_probs": [-1.0, 0.5]}]}], "line 1: roi 0 field 'class_probs' must hold numbers >= 0"),
        # every region value comes before the width rule and the later fields
        ([{"rois": [{"feat": [0.0], "class_probs": [1.0]}, {"feat": [0.0, 1.0], "class_probs": [0.5]}], "target": 1},],
         "line 1: roi 1 field 'class_probs' must sum to 1 within 1e-4, got 0.500000"),
        # an earlier line's value error comes before a later line that is not JSON
        ([{"rois": [{"feat": [0.0], "class_probs": [0.5]}]}, "{not json"],
         "line 1: roi 0 field 'class_probs' must sum to 1 within 1e-4, got 0.500000"),
    ],
)
def test_block_reader_reports_the_first_error_in_line_and_check_order(tmp_path, lines, message):
    base = {"task": "intent", "target": "tgt1", "source_id": "s"}
    path = tmp_path / "rows.jsonl"
    path.write_text("".join((line if isinstance(line, str) else json.dumps({**base, **line})) + "\n" for line in lines))
    with pytest.raises(DatasetError) as caught:
        load_jsonl(path)
    assert str(caught.value) == f"{path}: {message}"
    with pytest.raises(DatasetError) as again:
        reference_load_jsonl(path)
    assert str(again.value) == str(caught.value)


def test_block_reader_rows_view_one_array_per_field_and_width(tmp_path):
    """Regions of one width share the block's array, and files that mix
    widths across examples load."""
    rng = np.random.default_rng(0)
    rows = [_row(rng, i, candidate=False) for i in range(20)]
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    examples = load_jsonl(path)
    assert _outcome(load_jsonl, path) == _outcome(reference_load_jsonl, path)
    feats = {}
    for example in examples:
        for roi in example.rois:
            feats.setdefault(len(roi.feat), set()).add(id(roi.feat.base))
    assert len(feats) > 1 and all(len(bases) == 1 for bases in feats.values())


_VOCAB = tiny_vocab()
_ROIS = make_rois(np.random.default_rng(0), 4, 4, 5)
_item = st.tuples(st.integers(0, 4), st.sampled_from(["kcg", "gen", "mlm", "ap"]), st.integers(0, 50),
                  st.booleans())


@settings(max_examples=150, deadline=None)
@given(shapes=st.lists(_item, min_size=1, max_size=6))
def test_pad_batch_matches_the_per_item_loop(shapes):
    """0-4 regions, masked regions from the denoising plans, and batches
    with labels on every row, some rows or none."""
    items = []
    for i, (n_rois, mode, seed, event) in enumerate(shapes):
        example = MultimodalExample(
            task=TaskType.CAPTION if mode == "mlm" else TaskType.INTENT,
            rois=_ROIS[:n_rois],
            event_text="w1 w2 w3" if event else None,
            target_text="tgt1 w2 tgt3 w4"[: 4 + 5 * (seed % 3)],
            source_id=f"e{i}",
        )
        items.append((assemble_input(example, _VOCAB, mode, seed=seed), example))
    got, want = pad_batch(items), reference_pad_batch(items)
    assert got.items == want.items
    assert (got.enc_len, got.dec_len) == (want.enc_len, want.dec_len)
    assert type(got.enc_len) is int and type(got.dec_len) is int
    for name in ("enc_ids", "enc_mask", "dec_ids", "dec_labels", "roi_feats", "roi_index", "slot_index"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=120, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)),
    rows=st.integers(1, 70),
    vocab=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    flat=st.booleans(),
)
def test_mean_nll_kernel_is_the_per_row_loop_bit_for_bit(dtype, n, rows, vocab, seed, flat):
    rng = np.random.default_rng(seed)
    logits = (rng.normal(size=(rows, n, vocab)) * rng.uniform(0.1, 20.0)).astype(dtype)
    labels = rng.integers(0, vocab, size=(rows, n))
    if flat:
        logits, labels = logits[0], labels[0]
    got, _ = mean_nll_kernel(logits, labels)
    want = per_row_mean_nll(logits, labels)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
