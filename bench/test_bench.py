"""Fast tests of the benchmark's own code: span self time, probes, metrics
and output checks, on tiny hand-made inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def span(name, start, end, parent=-1, info=None):
    return [name, start, end, parent, info]


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 4.0, 8.0, 0), span("c", 5.0, 6.0, 2)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [span("root", 0.0, 10.0), span("a", 2.0, 6.0, 0), span("b", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span("x", 1.5, 2.0)]) == pytest.approx([0.5])


# -- tracer ------------------------------------------------------------------


def fake_clock(values):
    it = iter(values)
    return lambda: next(it)


def test_wrap_records_nested_spans_and_info():
    mod = types.SimpleNamespace(inner=lambda x: x * 2)

    def outer(x):
        return mod.inner(x) + 1

    mod.outer = outer
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 5.0]))
    assert tracer.wrap(mod, "outer", "outer")
    assert tracer.wrap(mod, "inner", "inner", info=lambda a, k, r: r)
    assert mod.outer(3) == 7
    assert tracer.spans == [["outer", 0.0, 5.0, -1, None], ["inner", 1.0, 2.0, 0, 6]]
    tracer.restore()
    assert mod.outer is outer


def test_missing_target_is_reported_not_raised():
    tracer = Tracer()
    assert not tracer.install("gone", ("vcgen.train:no_such_function",))
    assert not tracer.install("gone", ("no_such_module_xyz:f",))
    assert not tracer.install("gone", ("vcgen.model:NoSuchClass.forward",))
    assert tracer.missing == ["vcgen.train.no_such_function", "no_such_module_xyz:f",
                              "vcgen.model:NoSuchClass.forward"]


def test_failing_info_leaves_span_without_info():
    mod = types.SimpleNamespace(f=lambda: 1)
    tracer = Tracer()
    tracer.wrap(mod, "f", "f", info=lambda a, k, r: r.no_such_attribute)
    assert mod.f() == 1
    assert tracer.spans[0][4] is None


def test_every_probe_installs_on_this_program_and_restores():
    import vcgen.model

    original = vcgen.model.Model.decode_ids
    tracer = Tracer()
    for probe in layers.PROBES:
        assert tracer.install(*probe), probe.name
    assert vcgen.model.Model.decode_ids is not original
    tracer.restore()
    assert vcgen.model.Model.decode_ids is original
    assert "decode_ids" in vars(vcgen.model.Model)


# -- per-layer metrics ---------------------------------------------------------


def test_unused_layers_read_zero_and_missing_probes_are_absent():
    installed = {p.name for p in layers.PROBES} - {"optim.step"}
    spans = [span("cmd.filter", 0.0, 1.0),
             span("model.forward", 0.1, 0.2, 0), span("model.forward", 0.3, 0.4, 0),
             span("data.filter_dataset", 0.5, 0.6, 0)]
    out = layers.layer_metrics(spans, installed, rounds=1)
    assert "optim.step_ms" not in out
    assert out["model.forward_calls_per_batch"]["value"] == 2.0
    assert out["generate.tokens"]["value"] == 0.0
    assert out["data.filter_ms"]["value"] == pytest.approx(100.0)
    assert out["trace.uncovered_frac"]["value"] == pytest.approx(0.7)


def test_decode_ratios_count_the_end_token_of_short_rows():
    installed = {p.name for p in layers.PROBES}
    # two rows: one of 3 words that stopped early (4 tokens), one at max_len 4
    spans = [span("generate.generate", 0.0, 1.0, -1, [2, 1, 7]),
             *(span("model.decode_ids", 0.1, 0.2, 0, n) for n in (1, 2, 3, 4, 1, 2, 3, 4))]
    out = layers.layer_metrics(spans, installed, rounds=1)
    assert out["generate.tokens"]["value"] == 8
    assert out["generate.max_len_share"]["value"] == 0.5
    assert out["model.decoder_positions_per_token"]["value"] == pytest.approx(20 / 8)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in layers.METRICS] + [layers.OVERHEAD.name]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- output checks -------------------------------------------------------------


def step(n, **losses):
    return {"kind": "step", "step": n, "kcg": 3.0, "total": 3.0, **losses}


def test_train_log_passes_and_catches_bad_losses():
    good = [step(1), step(2), {"kind": "val", "val_kcg": 3.0}]
    assert checks.check_train_log(good, 2, 1, math.log(54)) == (0, [])
    failed, problems = checks.check_train_log([step(1, total=float("nan")), step(2)], 2, 0, 4.0)
    assert failed == 1 and "step 1" in problems[0]


def test_train_log_fails_every_step_without_a_good_val_line():
    assert checks.check_train_log([step(1), step(2)], 2, 1, 4.0)[0] == 2
    assert checks.check_train_log([step(1), {"kind": "val", "val_kcg": 4.5}], 2, 1, 4.0)[0] == 2


def test_generations_check_counts_rows_lengths_and_reserved_tokens():
    ok = [{"source_id": "a", "generations": ["x y"]}, {"source_id": "b", "generations": ["z"]}]
    assert checks.check_generations(ok, ["a", "b"], 1, 2, ["<unk>"]) == (0, [])
    long_row = [{"source_id": "a", "generations": ["x y z"]}, {"source_id": "b", "generations": ["<unk>"]}]
    assert checks.check_generations(long_row, ["a", "b"], 1, 2, ["<unk>"])[0] == 2
    short = [{"source_id": "a", "generations": ["x", "y"]}]
    assert checks.check_generations(short, ["a"], 5, 2, [])[0] == 5
    assert checks.check_generations(ok[:1], ["a", "b"], 1, 2, [])[0] == 2
    assert checks.check_generations(ok, ["a", "b"], 1, 2, [], full_length=True)[0] == 1


def test_count_tokens_adds_end_token_only_to_rows_below_max_len():
    records = [{"generations": ["a b", "", "a b c"]}]
    assert checks.count_tokens(records, 3) == 3 + 1 + 3


def test_filter_check_partition_and_sides():
    kept = [{"source_id": "a", "avg_ce": 1.0}]
    dropped = [{"source_id": "b", "avg_ce": 2.0}]
    assert checks.check_filter(kept, dropped, ["a", "b"], 2.0) == (0, [])
    assert checks.check_filter(kept, dropped, ["a", "b"], 0.5)[0] == 1
    assert checks.check_filter(kept, [], ["a", "b"], 2.0)[0] == 2


def test_mismatches_compare_exactly():
    assert checks.count_mismatches({"a": 1.0, "b": 2.0}, {"a": 1.0}) == (0, [])
    assert checks.count_mismatches({"a": 1.0}, {"a": 1.0 + 1e-16 * 4})[0] == 1
