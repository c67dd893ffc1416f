"""Per-layer probes and metrics of the traced run.

``PROBES`` names the program functions wrapped in a traced run, each at
every place the program looks it up. ``METRICS`` turns the recorded spans
into per-layer figures. Every metric is reported on every workload: a layer
a workload does not use reads 0 there. A metric whose probe could not be
installed (its target was renamed or removed) is left out.

Counts are per round or per call, so they repeat exactly between runs of
one seed. Times are medians per call unless the name says otherwise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from spans import self_times

# Spans the benchmark opens around each CLI call; they are the roots.
ROOT_PREFIX = "cmd."
# The timed `vcgen filter` commands of a `score` round, with and without
# the event text.
FILTER_SPANS = ("cmd.filter", "cmd.filter_no_event")
# Spans inside which Model.forward calls make up one batch: a training
# batch's loss computation, and a whole timed `vcgen filter` command.
BATCH_SPANS = ("losses.compute_losses", *FILTER_SPANS)


def _task(args, kwargs, result):
    batch_terms = args[2] if len(args) > 2 else kwargs["batch_terms"]
    return "+".join(sorted(set().union(*(wanted for _, wanted in batch_terms))))


def _tape_ops(args, kwargs, result):
    return len(args[0])


def _dec_positions(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["dec_ids"]))


def _logit_rows(args, kwargs, result):
    return int(result.data.size // result.shape[-1])


def _decoded(args, kwargs, result):
    """[rows, rows that reached max_len, words]."""
    model = args[0]
    config = args[3] if len(args) > 3 else kwargs["config"]
    max_len = min(config.max_len, model.config.max_positions - 1)
    return [len(result), sum(len(s) >= max_len for s in result), sum(len(s) for s in result)]


def _padding(args, kwargs, result):
    """[real positions, padded positions] over the batches made."""
    real = sum(a.enc_len + a.dec_len for b in result for a, _ in b.items)
    padded = sum(len(b.items) * (b.enc_len + b.dec_len) for b in result)
    return [real, padded]


class Probe(NamedTuple):
    name: str
    targets: tuple[str, ...]
    info: Callable | None = None


PROBES = (
    Probe("train.step", ("vcgen.train:_train_step",), _task),
    Probe("train.evaluate_kcg", ("vcgen.train:evaluate_kcg",)),
    Probe("losses.compute_losses", ("vcgen.train:compute_losses",)),
    Probe("tensor.backward", ("vcgen.tensor:Tape.backward",), _tape_ops),
    Probe("optim.step", ("vcgen.optim:AdamW.step",)),
    Probe("model.forward", ("vcgen.model:Model.forward",)),
    Probe("model.encoder_states", ("vcgen.model:Model.encoder_states",)),
    Probe("model.decode_ids", ("vcgen.model:Model.decode_ids",), _dec_positions),
    Probe("model.lm_head", ("vcgen.model:Model.lm_head",), _logit_rows),
    Probe("model.assemble_input", ("vcgen.train:assemble_input", "vcgen.generate:assemble_input",
                                   "vcgen.data:assemble_input")),
    Probe("generate.generate", ("vcgen.generate:generate",), _decoded),
    Probe("generate.sample_next_token", ("vcgen.generate:sample_next_token",)),
    Probe("data.make_batches", ("vcgen.train:make_batches",), _padding),
    Probe("data.score_description", ("vcgen.data:score_description", "vcgen.train:score_description")),
    Probe("data.filter_dataset", ("vcgen.data:filter_dataset",)),
    Probe("data.load_jsonl", ("vcgen.data:load_jsonl", "vcgen.train:load_jsonl",
                              "vcgen.data:load_candidates_jsonl")),
    Probe("checkpoint.save", ("vcgen.train:save_checkpoint",)),
    Probe("checkpoint.load", ("vcgen.checkpoint:load_checkpoint", "vcgen.train:load_checkpoint")),
    Probe("metrics.report", ("vcgen.metrics:metric_report",)),
)


class Absent(Exception):
    """A metric's probe is missing, or one of its calls yielded no info."""


class Spans:
    """Query helpers over one run's spans."""

    def __init__(self, spans: Sequence[Sequence], installed: set[str], rounds: int):
        self.spans = spans
        self.installed = installed
        self.rounds = max(rounds, 1)
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(spans):
            self._by_name[span[0]].append(idx)

    def named(self, name: str, under: Sequence[str] = ()) -> list[int]:
        if not name.startswith(ROOT_PREFIX) and name not in self.installed:
            raise Absent(name)
        idxs = self._by_name.get(name, [])
        return [i for i in idxs if self.ancestor(i, under) is not None] if under else list(idxs)

    def ancestor(self, idx: int, names: Sequence[str]) -> int | None:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return parent
            parent = self.spans[parent][3]
        return None

    def ms(self, idxs: Sequence[int]) -> list[float]:
        return [(self.spans[i][2] - self.spans[i][1]) * 1e3 for i in idxs]

    def info(self, idxs: Sequence[int]) -> list:
        values = [self.spans[i][4] for i in idxs]
        if any(v is None for v in values):
            raise Absent("info")
        return values


def pct(values: Sequence[float], q: float) -> float:
    """Percentile with linear interpolation; 0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _steps(s: Spans) -> list[int]:
    return s.named("train.step")


def _decoded_totals(s: Spans) -> tuple[int, int, int]:
    """Rows, rows that reached max_len, and tokens (words plus one end
    token per row that stopped early)."""
    infos = s.info(s.named("generate.generate"))
    rows = sum(i[0] for i in infos)
    full = sum(i[1] for i in infos)
    return rows, full, sum(i[2] for i in infos) + rows - full


def _tokens(s: Spans) -> int:
    return _decoded_totals(s)[2]


def _per_token_under_generate(name: str, use_info: bool) -> Callable[[Spans], float]:
    def metric(s: Spans) -> float:
        idxs = s.named(name, under=("generate.generate",))
        total = sum(s.info(idxs)) if use_info else sum(s.ms(idxs))
        return ratio(total, _tokens(s))
    return metric


def _forward_calls_per_batch(s: Spans) -> float:
    batches = [i for name in BATCH_SPANS for i in s.named(name)]
    forwards = s.named("model.forward", under=BATCH_SPANS)
    return ratio(len(forwards), len(batches))


def _step_ms_for(task: str) -> Callable[[Spans], float]:
    def metric(s: Spans) -> float:
        idxs = _steps(s)
        return pct([ms for ms, t in zip(s.ms(idxs), s.info(idxs)) if t == task], 50)
    return metric


def _pad_efficiency(s: Spans) -> float:
    infos = s.info(s.named("data.make_batches"))
    return ratio(sum(i[0] for i in infos), sum(i[1] for i in infos))


def _uncovered(s: Spans) -> float:
    selfs = self_times(s.spans)
    roots = [i for i, span in enumerate(s.spans) if span[3] < 0]
    return ratio(sum(selfs[i] for i in roots), sum(s.spans[i][2] - s.spans[i][1] for i in roots))


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    fn: Callable[[Spans], float]


def _median_ms(name: str, under: Sequence[str] = ()) -> Callable[[Spans], float]:
    return lambda s: pct(s.ms(s.named(name, under)), 50)


def _mean_ms(name: str) -> Callable[[Spans], float]:
    return lambda s: ratio(sum(s.ms(s.named(name))), len(s.named(name)))


def _ms_per_step(name: str) -> Callable[[Spans], float]:
    return lambda s: ratio(sum(s.ms(s.named(name))), len(_steps(s)))


METRICS = (
    # train -> pretrain and finetune examples/s on `train`
    Metric("train.step_ms.p50", "ms", "lower", lambda s: pct(s.ms(_steps(s)), 50)),
    Metric("train.step_ms.p90", "ms", "lower", lambda s: pct(s.ms(_steps(s)), 90)),
    *(Metric(f"train.step_ms.{t}", "ms", "lower", _step_ms_for(t)) for t in ("kcg", "ap", "rp", "mlm", "mrm")),
    Metric("train.steps", "count", "lower", lambda s: len(_steps(s)) / s.rounds),
    Metric("train.val_ms", "ms", "lower", _median_ms("train.evaluate_kcg")),
    # losses, tensor, optim -> training throughput on `train`
    Metric("losses.forward_ms_per_step", "ms", "lower", _ms_per_step("losses.compute_losses")),
    Metric("tensor.backward_ms_per_step", "ms", "lower", _ms_per_step("tensor.backward")),
    Metric("tensor.tape_ops_per_step", "count", "lower",
           lambda s: ratio(sum(s.info(s.named("tensor.backward"))), len(s.named("tensor.backward")))),
    Metric("optim.step_ms", "ms", "lower", _median_ms("optim.step")),
    # model -> `train`, `score`; the per-token figures -> tokens/s on `decode`
    Metric("model.forward_calls_per_batch", "count", "lower", _forward_calls_per_batch),
    Metric("model.assemble_ms_per_example", "ms", "lower", _mean_ms("model.assemble_input")),
    Metric("model.encoder_ms_per_row", "ms", "lower",
           lambda s: ratio(sum(s.ms(s.named("model.encoder_states", under=("generate.generate",)))),
                           _decoded_totals(s)[0])),
    Metric("model.decoder_ms_per_token", "ms", "lower", _per_token_under_generate("model.decode_ids", False)),
    Metric("model.decoder_positions_per_token", "ratio", "lower",
           _per_token_under_generate("model.decode_ids", True)),
    Metric("model.lm_head_rows_per_token", "ratio", "lower", _per_token_under_generate("model.lm_head", True)),
    # generate -> greedy and nucleus tokens/s on `decode`
    Metric("generate.example_ms.p50", "ms", "lower", lambda s: pct(s.ms(s.named("generate.generate")), 50)),
    Metric("generate.example_ms.p90", "ms", "lower", lambda s: pct(s.ms(s.named("generate.generate")), 90)),
    Metric("generate.sample_ms_per_token", "ms", "lower",
           lambda s: ratio(sum(s.ms(s.named("generate.sample_next_token"))), _tokens(s))),
    Metric("generate.tokens", "count", "higher", lambda s: _tokens(s) / s.rounds),
    Metric("generate.max_len_share", "ratio", "lower",
           lambda s: ratio(_decoded_totals(s)[1], _decoded_totals(s)[0])),
    # data -> `train` (batching), `score` (scoring, filtering), all (loading)
    Metric("data.pad_efficiency", "ratio", "higher", _pad_efficiency),
    Metric("data.make_batches_ms", "ms", "lower", _median_ms("data.make_batches")),
    Metric("data.score_ms_per_example", "ms", "lower", _mean_ms("data.score_description")),
    Metric("data.filter_ms", "ms", "lower", _median_ms("data.filter_dataset", under=FILTER_SPANS)),
    Metric("data.load_jsonl_ms", "ms", "lower", _median_ms("data.load_jsonl")),
    # checkpoint -> finetune examples/s (save), `decode` and `score` (load)
    Metric("checkpoint.save_ms", "ms", "lower", _median_ms("checkpoint.save")),
    Metric("checkpoint.load_ms", "ms", "lower", _median_ms("checkpoint.load")),
    # metrics -> `decode`
    Metric("metrics.report_ms", "ms", "lower", _median_ms("metrics.report")),
    # the trace itself
    Metric("trace.uncovered_frac", "ratio", "lower", _uncovered),
)
OVERHEAD = Metric("trace.overhead_frac", "ratio", "lower", None)


def layer_metrics(spans: Sequence[Sequence], installed: set[str], rounds: int) -> dict[str, dict]:
    s = Spans(spans, installed, rounds)
    out = {}
    for m in METRICS:
        try:
            out[m.name] = {"value": m.fn(s), "unit": m.unit}
        except Absent:
            continue
    return out
