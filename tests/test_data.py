"""JSONL ingestion, relation mapping, scoring, filtering, and batching."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgen.data import (
    SCORE_CHUNK_ROWS,
    DatasetError,
    MultimodalExample,
    ScoredExample,
    exact_batches,
    filter_dataset,
    filter_report,
    load_candidates_jsonl,
    load_jsonl,
    make_batches,
    map_comet_relation,
    pad_batch,
    save_jsonl,
    score_dataset,
    score_description,
)
from vcgen.model import Model, assemble_input
from vcgen.synthetic import make_rois, make_vcg_dataset
from vcgen.tensor import Tape, Tensor, cross_entropy
from vcgen.vocab import TaskType

from helpers import tiny_config, tiny_examples, tiny_vocab, zero_model
from oracles import per_example_forward


def write_lines(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def valid_row(**overrides):
    row = {
        "task": "intent",
        "event": "w1 w2",
        "target": "tgt1 tgt2",
        "rois": [{"feat": [0.1, 0.2, 0.3, 0.4], "class_probs": [0.2, 0.2, 0.2, 0.2, 0.2]}],
        "attributes": [],
        "relations": [],
        "source_id": "row-0",
    }
    row.update(overrides)
    return row


# ---------------------------------------------------------------------------
# loading


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("")
    assert load_jsonl(path) == []


def test_one_valid_line(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row()])
    examples = load_jsonl(path)
    assert len(examples) == 1
    assert examples[0].task == TaskType.INTENT
    assert len(examples[0].rois) == 1


def test_unnormalized_class_probs_error_names_line_and_field(tmp_path):
    """A sum off 1, a negative entry (the sum is 1) and a nested list (so is
    its sum) are each a schema error naming the line, the roi and the field."""
    path = tmp_path / "data.jsonl"
    for class_probs in ([0.2, 0.2, 0.2, 0.1, 0.1], [0.6, -0.2, 0.2, 0.2, 0.2], [[0.2, 0.2, 0.2, 0.2, 0.2]]):
        bad = valid_row()
        bad["rois"][0]["class_probs"] = class_probs
        write_lines(path, [valid_row(source_id="ok"), bad])
        with pytest.raises(DatasetError, match=r"line 2: roi 0 field 'class_probs'"):
            load_jsonl(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(valid_row()) + "\n{not json\n")
    with pytest.raises(DatasetError, match="line 2"):
        load_jsonl(path)


def test_out_of_range_attribute_index(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(attributes=[[4, 0]])])
    with pytest.raises(DatasetError, match="line 1.*out of range"):
        load_jsonl(path)


def test_label_bounds_enforced_when_configured(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(attributes=[[0, 9]])])
    assert load_jsonl(path)  # unbounded is fine
    with pytest.raises(DatasetError, match="exceeds configured count"):
        load_jsonl(path, n_attr=4)


def test_empty_target_rejected_for_generation_tasks(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(target="")])
    with pytest.raises(DatasetError, match="non-empty"):
        load_jsonl(path)


def test_unknown_task_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(task="dance")])
    with pytest.raises(DatasetError, match="task"):
        load_jsonl(path)


@pytest.mark.parametrize(
    "field,value,where",
    [("attributes", 1, None), ("relations", 1, None), ("feat", {}, 0), ("class_probs", {}, 0)],
)
def test_mistyped_field_error_names_line_and_field(tmp_path, field, value, where):
    """A field of the wrong JSON type is a schema error naming its line
    and field, not a crash."""
    bad = valid_row()
    if where is None:
        bad[field] = value
    else:
        bad["rois"][where][field] = value
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(source_id="ok"), bad])
    with pytest.raises(DatasetError, match=rf"line 2: .*'{field}'"):
        load_jsonl(path)


@pytest.mark.parametrize("field", ["feat", "class_probs"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_region_number_error_names_line_roi_and_field(tmp_path, field, number):
    """NaN passes every comparison check, and no JSON writer may emit it."""
    bad = valid_row()
    bad["rois"][0][field][-1] = float(number)  # json.dumps writes it back as the bare token
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(source_id="ok"), bad])
    assert number in path.read_text()
    with pytest.raises(DatasetError, match=rf"line 2: roi 0 field '{field}' must hold finite numbers"):
        load_jsonl(path)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_region_numbers_must_stay_finite_in_float32(tmp_path, sign):
    """The model runs in float32: the largest double that rounds to a finite
    float32 loads, and the next one, which rounds to infinity, is a schema
    error naming the file, line, roi and field."""
    path = tmp_path / "data.jsonl"
    largest = valid_row()
    largest["rois"][0]["feat"][0] = sign * 3.4028235677973362e38
    write_lines(path, [largest])
    [example] = load_jsonl(path)
    assert np.isfinite(example.rois[0].feat.astype(np.float32)).all()
    for field in ("feat", "class_probs"):
        bad = valid_row()
        bad["rois"][0][field][0] = sign * 3.4028235677973366e38
        write_lines(path, [valid_row(source_id="ok"), bad])
        with pytest.raises(DatasetError) as caught:
            load_jsonl(path)
        assert str(caught.value) == f"{path}: line 2: roi 0 field '{field}' must hold numbers finite in float32"


@pytest.mark.parametrize("entry", [[0, None], [0, [1]], [0, 1.5], [True, 1]])
def test_attribute_entries_must_be_integers(tmp_path, entry):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(attributes=[entry])])
    with pytest.raises(DatasetError, match="line 1: field 'attributes' entries"):
        load_jsonl(path)


def test_null_attributes_and_relations_read_as_empty(tmp_path):
    path = tmp_path / "data.jsonl"
    write_lines(path, [valid_row(attributes=None, relations=None)])
    [example] = load_jsonl(path)
    assert example.attributes == [] and example.relations == []


def test_round_trip_load_save_load(tmp_path):
    examples = make_vcg_dataset(10, seed=3, d_visual=4, n_classes=5)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    save_jsonl(path_a, examples)
    loaded = load_jsonl(path_a)
    save_jsonl(path_b, loaded)
    again = load_jsonl(path_b)
    assert len(loaded) == len(again) == 10
    for x, y in zip(loaded, again):
        assert x.task == y.task
        assert x.event_text == y.event_text
        assert x.target_text == y.target_text
        assert x.source_id == y.source_id
        for rx, ry in zip(x.rois, y.rois):
            assert np.array_equal(rx.feat, ry.feat)
            assert np.array_equal(rx.class_probs, ry.class_probs)


# ---------------------------------------------------------------------------
# relation mapping


@pytest.mark.parametrize(
    "relation,task",
    [
        ("xIntent", TaskType.INTENT),
        ("xWant", TaskType.INTENT),
        ("xNeed", TaskType.BEFORE),
        ("xReact", TaskType.AFTER),
        ("xEffect", TaskType.AFTER),
    ],
)
def test_comet_relation_mapping(relation, task):
    assert map_comet_relation(relation) == task


def test_unknown_relation_raises():
    with pytest.raises(DatasetError, match="unknown relation 'xAttr'"):
        map_comet_relation("xAttr")


def test_candidate_loading_maps_relations(tmp_path):
    path = tmp_path / "cands.jsonl"
    row = valid_row()
    del row["task"]
    row["relation"] = "xNeed"
    write_lines(path, [row])
    [(line_no, relation, example)] = load_candidates_jsonl(path)
    assert line_no == 1
    assert relation == "xNeed"
    assert example.task == TaskType.BEFORE


def test_candidate_unknown_relation_names_line(tmp_path):
    path = tmp_path / "cands.jsonl"
    row = valid_row()
    del row["task"]
    row["relation"] = "xAttr"
    write_lines(path, [row])
    with pytest.raises(DatasetError, match="line 1: unknown relation"):
        load_candidates_jsonl(path)


# ---------------------------------------------------------------------------
# scoring


def test_zero_model_scores_log_v():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = zero_model(config)
    kcg, _, _ = tiny_examples()
    scored = score_description(model, vocab, kcg)
    assert scored.avg_ce == pytest.approx(np.log(len(vocab)), abs=1e-4)


def test_scoring_is_deterministic_bitwise():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab), dropout=0.3)  # dropout must not fire in eval
    model = Model.init_random(config, 0)
    kcg, _, _ = tiny_examples()
    a = score_description(model, vocab, kcg).avg_ce
    b = score_description(model, vocab, kcg).avg_ce
    assert a == b


def test_scoring_independent_of_other_examples():
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 1)
    kcg, _, _ = tiny_examples()
    other, _, _ = tiny_examples(5)
    alone = score_description(model, vocab, kcg).avg_ce
    _ = score_description(model, vocab, other)
    after_other = score_description(model, vocab, kcg).avg_ce
    assert alone == after_other
    # ``twin`` has kcg's lengths and region count, so both share one forward
    twin = dataclasses.replace(kcg, rois=other.rois, source_id="twin")
    together = score_dataset(model, vocab, [twin, kcg])
    assert together[1].avg_ce == alone
    assert together[0].avg_ce == score_description(model, vocab, twin).avg_ce


def _same_shape_variants(example, n, config, seed=0):
    """``n`` copies of ``example`` with fresh region features: one bucket."""
    rng = np.random.default_rng(seed)
    return [
        dataclasses.replace(
            example,
            rois=make_rois(rng, len(example.rois), config.d_visual, config.n_classes),
            source_id=f"{example.source_id}-{i}",
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("use_event", [True, False])
def test_bucketed_scoring_equals_per_example_scoring_bitwise(use_event, monkeypatch):
    """In float32, each row scored by ``score_dataset`` has exactly the score
    of the one-example forward, whether it shares its bucket, sits in a
    bucket of its own, or sits in a bucket split into several chunks."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 2)
    kcg, _, _ = tiny_examples()
    shorter = dataclasses.replace(kcg, event_text="w3 w4", target_text="tgt2", source_id="short")
    one_roi = dataclasses.replace(kcg, rois=kcg.rois[:1], event_text="w1 w2 w3 w4 w5 w6 w1", source_id="one")
    big = _same_shape_variants(kcg, SCORE_CHUNK_ROWS * 2 + 3, config)
    pair = _same_shape_variants(shorter, 2, config, seed=1)
    examples = [one_roi, *big[:5], *pair, *big[5:]]

    rows_per_forward = []
    forward = Model.forward

    def counted(self, batch, *args, **kwargs):
        rows_per_forward.append(len(batch))
        return forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", counted)
    scored = score_dataset(model, vocab, examples, use_event=use_event)
    # one_roi has big's lengths with the event text, but not its region count
    assert sorted(rows_per_forward) == [1, 2, 3, SCORE_CHUNK_ROWS, SCORE_CHUNK_ROWS]
    monkeypatch.undo()

    for s, example in zip(scored, examples):
        assert s.example is example
        assembled = assemble_input(example, vocab, "kcg", use_event=use_event)
        logits = model.lm_head(per_example_forward(model, assembled, example.rois))
        reference = float(cross_entropy(logits, assembled.dec_labels).data)
        assert s.avg_ce == reference, example.source_id
        assert s.n_tokens == len(assembled.dec_labels)


def test_score_dataset_records_nothing_on_an_active_tape():
    """Inside an active tape, with parameters that take gradients, scoring
    records no op and gives the scores of frozen parameters bit for bit."""
    vocab = tiny_vocab()
    config = tiny_config(len(vocab))
    model = Model.init_random(config, 2)
    frozen = Model(config, {name: Tensor(param.data) for name, param in model.params.items()})
    kcg, _, _ = tiny_examples()
    examples = [kcg, dataclasses.replace(kcg, event_text="w3 w4", target_text="tgt2", source_id="short")]
    expected = [s.avg_ce for s in score_dataset(frozen, vocab, examples)]
    with Tape() as tape:
        scored = score_dataset(model, vocab, examples)
    assert len(tape) == 0
    assert [s.avg_ce for s in scored] == expected
    assert all(param.grad is None for param in model.params.values())


# ---------------------------------------------------------------------------
# filtering


def fake_scored(values):
    kcg, _, _ = tiny_examples()
    return [ScoredExample(example=kcg, avg_ce=v, n_tokens=4) for v in values]


def test_filter_threshold_is_strict():
    kept, dropped = filter_dataset(fake_scored([2.0, 3.5, 4.0]), threshold=3.5)
    assert [s.avg_ce for s in kept] == [2.0]
    assert [s.avg_ce for s in dropped] == [3.5, 4.0]


def test_filter_infinite_threshold_keeps_everything():
    kept, dropped = filter_dataset(fake_scored([1.0, 100.0]), threshold=float("inf"))
    assert len(kept) == 2 and not dropped


def test_filter_rejects_nan_threshold():
    with pytest.raises(ValueError, match="NaN"):
        filter_dataset(fake_scored([1.0]), threshold=float("nan"))


def test_filter_partition_and_monotonicity():
    rng = np.random.default_rng(0)
    scored = fake_scored(list(rng.uniform(0, 8, size=60)))
    previous: set[int] = set()
    for threshold in (1.0, 2.0, 3.0, 3.5, 5.0):
        kept, dropped = filter_dataset(scored, threshold)
        assert len(kept) + len(dropped) == len(scored)
        ids = {id(s) for s in kept}
        assert previous <= ids  # stricter kept-set is a subset
        previous = ids
        order = [s.avg_ce for s in kept] + [s.avg_ce for s in dropped]
        assert sorted(order) == sorted(s.avg_ce for s in scored)


def test_filter_report_counts_and_histogram():
    kept, dropped = filter_dataset(fake_scored([1.0, 2.0, 4.0, 5.0, 12.0]), threshold=3.5)
    report = filter_report(kept, dropped)
    assert report["n_candidates"] == 5
    assert report["n_kept"] == 2
    assert report["keep_ratio"] == pytest.approx(0.4)
    hist = report["histogram"]
    assert len(hist["counts"]) == 50
    assert sum(hist["counts"]) + hist["overflow"] == 5
    assert hist["overflow"] == 1


def test_filter_report_empty_input():
    report = filter_report([], [])
    assert report["n_candidates"] == 0
    assert report["keep_ratio"] == 0.0
    assert sum(report["histogram"]["counts"]) == 0


# ---------------------------------------------------------------------------
# batching


def assembled_items(n=5):
    vocab = tiny_vocab()
    kcg, _, _ = tiny_examples()
    items = []
    for i in range(n):
        ex = MultimodalExample(
            task=TaskType.INTENT,
            rois=kcg.rois,
            event_text="w1 " * (i + 1),
            target_text="tgt1 tgt2",
            source_id=f"e{i}",
        )
        items.append((assemble_input(ex, vocab, "kcg"), ex))
    return items


def test_batch_sizes_keep_partial_tail():
    batches = make_batches(assembled_items(5), batch_size=2)
    assert [len(b) for b in batches] == [2, 2, 1]


def test_shuffle_is_deterministic_given_seed():
    a = make_batches(assembled_items(5), batch_size=2, seed=9)
    b = make_batches(assembled_items(5), batch_size=2, seed=9)
    assert [[ex.source_id for _, ex in batch.items] for batch in a] == [
        [ex.source_id for _, ex in batch.items] for batch in b
    ]


def test_batch_padding_and_masks():
    batch = pad_batch(assembled_items(3))
    lengths = [a.enc_len for a, _ in batch.items]
    assert batch.enc_len == max(lengths)
    for row, (a, _) in enumerate(batch.items):
        assert batch.enc_mask[row, : a.enc_len].all()
        assert not batch.enc_mask[row, a.enc_len :].any()
        assert (batch.enc_ids[row, a.enc_len :] == 0).all()


def test_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        make_batches(assembled_items(2), batch_size=0)


_SHAPE_VOCAB = tiny_vocab()
_SHAPE_ROIS = make_rois(np.random.default_rng(0), 3, 4, 5)
# (region count, event words, target words): encoder length is
# 3 + regions + (event words + 2 if any), decoder length target words + 1,
# so (1, 2, t) and (2, 1, t) share both lengths but not the region count.
_item_shapes = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@hypothesis.example(shapes=[(1, 2, 2), (2, 1, 2), (3, 0, 1), (0, 1, 1)] * 70)
@given(shapes=st.lists(_item_shapes, min_size=1, max_size=150))
def test_exact_batches_pad_nothing_and_cover_every_row_once(shapes):
    items = []
    for i, (n_rois, n_event, n_target) in enumerate(shapes):
        ex = MultimodalExample(
            task=TaskType.INTENT,
            rois=_SHAPE_ROIS[:n_rois],
            event_text=" ".join(["w1"] * n_event) or None,
            target_text=" ".join(["tgt1"] * n_target),
            source_id=f"e{i}",
        )
        items.append((assemble_input(ex, _SHAPE_VOCAB, "kcg"), ex))
    seen = []
    for rows, batch in exact_batches(items):
        assert 0 < len(rows) <= SCORE_CHUNK_ROWS
        assert len(batch) == len(rows)
        assert all(got is items[i] for got, i in zip(batch.items, rows))
        assert batch.enc_mask.all()
        assert {a.dec_len for a, _ in batch.items} == {batch.dec_len}
        assert all(len(ex.rois) == batch.roi_feats.shape[1] for _, ex in batch.items)
        seen.extend(rows)
    assert sorted(seen) == list(range(len(items)))
