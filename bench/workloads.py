"""Inputs and workloads of the vcgen benchmark.

Every workload drives the user entry point ``vcgen.cli.main`` in-process,
one command at a time (closed loop, one client). A round is one pass over
the workload's commands; the benchmark repeats rounds until its time is up
and reports medians over rounds. Each command is timed alone; checks run
between commands and are not timed.

The inputs come only from the benchmark seed: ``vcgen.synthetic`` data, a
vocabulary built with ``vcgen build-vocab`` and, for decoding and scoring, a
random-init ``desk`` checkpoint, plus a copy of it for greedy decoding that
cannot emit </s>. The checkpoints do not come from training, so a
training-side change cannot move decode lengths or candidate scores.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

import checks

# Input sizes. Multiples of the batch size, so every training batch is full
# and the per-batch counts repeat exactly.
BATCH = 16
N_PRETRAIN = 16  # per stream: kcg, captions, regions
N_TRAIN = 16
N_VAL = 16
FINETUNE_EPOCHS = 2
PRETRAIN_TASKS = ("kcg", "ap", "rp", "mlm", "mrm")
N_DECODE = 8
MAX_LEN = 32
NUM_SAMPLES = 5
NO_END_BIAS = -1e4  # lm_head bias of </s> in the greedy checkpoint
N_CANDIDATES = 200
SINGLE_CANDIDATES = 16  # candidates filtered alone once per score run, modes alternating
SINGLE_EXAMPLES = (0, N_DECODE - 1)  # decode examples re-run alone with greedy

# Model dims must mirror vcgen.synthetic's defaults.
DIMS = ["--model.d_visual", "16", "--model.n_classes", "10", "--model.n_attr", "8", "--model.n_rel", "6"]

# End-to-end metrics, reported by every workload. What the primary and
# secondary rates count is the workload's own: see Workload.primary. They are
# reported per reference-kernel run, not per second: see reference_seconds.
END_TO_END = (
    ("primary_per_ref", "1/ref"),
    ("secondary_per_ref", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def reference_seconds(chunks: int = 8, steps: int = 250) -> float:
    """Time a fixed kernel shaped like vcgen's work: many small float32
    numpy ops, each dispatched from Python. It shares no code with vcgen.

    On a shared machine the speed of one CPU drifts by up to 1.7x over
    seconds. Each rate is multiplied by this kernel's time, taken just
    before and just after the commands that make the rate, which cancels
    the drift (see README.md). The kernel runs in chunks and reports the
    median chunk, scaled to the whole, so that a brief stall of the process
    does not read as a slow machine.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 128)).astype(np.float32)
    w = (rng.standard_normal((128, 128)) * 0.1).astype(np.float32)
    times = []
    for _ in range(chunks):
        start = time.perf_counter()
        for _ in range(steps):
            h = np.tanh(x @ w)
            x = h - h.mean(axis=-1, keepdims=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * chunks


def rates(primary: float, secondary: float, refs: Sequence[float], wall_s: float) -> dict:
    """A round's figures; ``refs`` are the kernel times before the primary
    commands, between the two, and after the secondary commands."""
    before, between, after = refs
    return {"wall_s": wall_s, "primary": primary, "secondary": secondary,
            "primary_ref": (before + between) / 2, "secondary_ref": (between + after) / 2}


def read_jsonl(path: Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Inputs:
    vocab: Path
    vocab_size: int
    kcg: Path
    captions: Path
    regions: Path
    train: Path
    val: Path
    decode: Path
    candidates: Path
    checkpoint: Path
    greedy_checkpoint: Path


def make_inputs(out: Path, seed: int) -> Inputs:
    """Write every input file of every workload from ``seed``."""
    from vcgen import cli, synthetic
    from vcgen.checkpoint import save_checkpoint
    from vcgen.config import preset, to_dict
    from vcgen.data import save_jsonl
    from vcgen.model import Model
    from vcgen.vocab import EOS_ID, Vocabulary

    out.mkdir(parents=True, exist_ok=True)
    inp = Inputs(
        vocab=out / "vocab.txt", vocab_size=0, kcg=out / "kcg.jsonl",
        captions=out / "captions.jsonl", regions=out / "regions.jsonl", train=out / "train.jsonl",
        val=out / "val.jsonl", decode=out / "decode.jsonl", candidates=out / "candidates.jsonl",
        checkpoint=out / "random.kmbt", greedy_checkpoint=out / "random_no_end.kmbt",
    )
    save_jsonl(inp.kcg, synthetic.make_vcg_dataset(N_PRETRAIN, seed=[seed, 2], prefix="kcg"))
    save_jsonl(inp.captions, synthetic.make_caption_dataset(N_PRETRAIN, seed=[seed, 3]))
    save_jsonl(inp.regions, synthetic.make_region_dataset(N_PRETRAIN, seed=[seed, 4]))
    save_jsonl(inp.train, synthetic.make_vcg_dataset(N_TRAIN, seed=[seed, 0], prefix="train"))
    save_jsonl(inp.val, synthetic.make_vcg_dataset(N_VAL, seed=[seed, 1], prefix="val"))
    save_jsonl(inp.decode, synthetic.make_vcg_dataset(N_DECODE, seed=[seed, 6], prefix="dec"))
    rows = synthetic.make_candidate_rows(N_CANDIDATES, seed=[seed, 5])
    inp.candidates.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    corpus = out / "corpus.txt"
    corpus.write_text("\n".join(synthetic.full_corpus_lines()) + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["build-vocab", "--input", str(corpus), "--out", str(inp.vocab)]) != 0:
            raise RuntimeError("build-vocab failed")
    inp.vocab_size = len(Vocabulary.load(inp.vocab))
    cfg = preset("desk")
    cfg.model.d_visual, cfg.model.n_classes, cfg.model.n_attr, cfg.model.n_rel = 16, 10, 8, 6
    cfg.model.vocab_size = inp.vocab_size
    model = Model.init_random(cfg.model, [seed, 7])
    save_checkpoint(inp.checkpoint, to_dict(cfg), model.params)
    # On about one seed in four the random model's greedy choice is </s> at
    # once, and the greedy pass would time little but loading. The greedy
    # checkpoint is the same model with </s> pushed out of reach, so its
    # rows always run to max_len and every seed decodes the same work.
    params = dict(model.params)
    params["lm_head.bias"] = params["lm_head.bias"].data.copy()
    params["lm_head.bias"][EOS_ID] = NO_END_BIAS
    save_checkpoint(inp.greedy_checkpoint, to_dict(cfg), params)
    return inp


class Workload:
    """Shared bookkeeping: op counts, problems, and timed CLI calls."""

    primary: tuple[str, str]  # (name in the printed table, unit)
    secondary: tuple[str, str]

    def __init__(self, inputs: Inputs, work: Path, seed: int):
        self.inp = inputs
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        work.mkdir(parents=True, exist_ok=True)

    def cli(self, span: str, argv: list[str]) -> tuple[bool, float]:
        """Run one command; returns (succeeded, wall seconds)."""
        from vcgen import cli

        sink = io.StringIO()
        gc.collect()  # start each timed command from a collected heap
        spans = self.tracer.span(span) if self.tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with spans, contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - start
        if code != 0:
            self.problems.append(f"{argv[0]} exited with {code}")
        return code == 0, elapsed

    def record(self, attempted: int, failed: int, problems: list[str], where: str) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        self.problems.extend(f"{where}: {p}" for p in problems)

    def final_checks(self) -> None:
        """Checks made once per run, after the measured rounds."""

    def extra(self) -> dict:
        """Further end-to-end figures for the printed table: name -> (value, unit)."""
        return {}


class Train(Workload):
    """pretrain (all five tasks, round-robin, random init) then finetune
    from its checkpoint with a validation set."""

    primary = ("pretrain_examples_per_s", "examples/s")
    secondary = ("finetune_examples_per_s", "examples/s")

    def __init__(self, inputs, work, seed):
        super().__init__(inputs, work, seed)
        self.pre_steps = len(PRETRAIN_TASKS) * math.ceil(N_PRETRAIN / BATCH)
        self.fin_steps = FINETUNE_EPOCHS * math.ceil(N_TRAIN / BATCH)
        self.first: dict[str, str] = {}
        self.val_ce = float("nan")

    def round(self, index: int) -> dict:
        inp, pre, fin = self.inp, self.work / "pretrain", self.work / "finetune"
        refs = [reference_seconds()]
        ok_pre, t_pre = self.cli("cmd.pretrain", [
            "pretrain", "--preset", "desk", "--tasks", ",".join(PRETRAIN_TASKS), "--interleave", "round-robin",
            "--seed", str(self.seed), "--threads", "1", *DIMS, "--optimizer.lr", "1e-3",
            "--schedule.epochs", "1", "--schedule.batch_size", str(BATCH),
            "--paths.vocab", str(inp.vocab), "--paths.kcg_data", str(inp.kcg),
            "--paths.caption_data", str(inp.captions), "--paths.region_data", str(inp.regions),
            "--out-dir", str(pre),
        ])
        refs.append(reference_seconds())
        ok_fin, t_fin = self.cli("cmd.finetune", [
            "finetune", "--seed", str(self.seed + 1), "--threads", "1", *DIMS,
            "--init-checkpoint", str(pre / "final.kmbt"), "--optimizer.lr", "1e-3",
            "--schedule.epochs", str(FINETUNE_EPOCHS), "--schedule.batch_size", str(BATCH),
            "--paths.vocab", str(inp.vocab), "--paths.train_data", str(inp.train),
            "--paths.val_data", str(inp.val), "--out-dir", str(fin),
        ])
        refs.append(reference_seconds())
        ln_v = math.log(inp.vocab_size)
        for name, ok, out, steps, vals in (("pretrain", ok_pre, pre, self.pre_steps, 0),
                                           ("finetune", ok_fin, fin, self.fin_steps, FINETUNE_EPOCHS)):
            if not ok:
                self.record(steps, steps, [], f"round {index} {name}")
                continue
            log = out / "train_log.jsonl"
            records = read_jsonl(log)
            failed, problems = checks.check_train_log(records, steps, vals, ln_v)
            # Same seed, same inputs: every round must reproduce the first bit for bit.
            digest = sha256(log) + sha256(out / "final.kmbt")
            self.first.setdefault(name, digest)
            if digest != self.first[name]:
                failed, problems = steps, problems + ["log or checkpoint differs from round 0"]
            if index == 0 and not self._loads(out / "final.kmbt"):
                failed, problems = steps, problems + ["final.kmbt does not load into a Model"]
            if vals:
                self.val_ce = next(r["val_kcg"] for r in reversed(records) if r.get("kind") == "val")
            self.record(steps, failed, problems, f"round {index} {name}")
        return rates(len(PRETRAIN_TASKS) * N_PRETRAIN / t_pre, FINETUNE_EPOCHS * N_TRAIN / t_fin, refs,
                     t_pre + t_fin)

    @staticmethod
    def _loads(path: Path) -> bool:
        from vcgen.checkpoint import CheckpointError, load_checkpoint, params_as_tensors
        from vcgen.model import Model

        try:
            ckpt = load_checkpoint(path)
            Model(ckpt.model_config(), params_as_tensors(ckpt))
        except (CheckpointError, ValueError, KeyError) as exc:
            print(f"checkpoint {path}: {exc}", file=sys.stderr)
            return False
        return True

    def extra(self) -> dict:
        return {"val_ce": (self.val_ce, "nats")}


class Decode(Workload):
    """generate greedy and nucleus over one example file from a random-init
    checkpoint, then evaluate both outputs against the references."""

    primary = ("greedy_tokens_per_s", "tokens/s")
    secondary = ("nucleus_tokens_per_s", "tokens/s")

    def __init__(self, inputs, work, seed):
        super().__init__(inputs, work, seed)
        self.source_ids = [r["source_id"] for r in read_jsonl(inputs.decode)]
        self.first: dict[str, list] = {}

    def _generate(self, span: str, dataset: Path, out: Path, nucleus: bool) -> tuple[bool, float]:
        checkpoint = self.inp.checkpoint if nucleus else self.inp.greedy_checkpoint
        argv = ["generate", "--checkpoint", str(checkpoint), "--vocab", str(self.inp.vocab),
                "--dataset", str(dataset), "--out", str(out), "--max-len", str(MAX_LEN), "--threads", "1"]
        if nucleus:
            argv += ["--mode", "nucleus", "--top-p", "0.9", "--num-samples", str(NUM_SAMPLES),
                     "--seed", str(self.seed)]
        else:
            argv += ["--mode", "greedy"]
        return self.cli(span, argv)

    def _rows(self, path: Path) -> list[dict]:
        return [r for r in read_jsonl(path) if "source_id" in r]

    def round(self, index: int) -> dict:
        modes = (("greedy", 1), ("nucleus", NUM_SAMPLES))
        refs = [reference_seconds()]
        timed = {}
        for mode, _ in modes:
            timed[mode] = self._generate(f"cmd.generate_{mode}", self.inp.decode, self.work / f"{mode}.jsonl",
                                         mode == "nucleus")
            refs.append(reference_seconds())
        wall = 0.0
        tokens_per_s = {}
        for mode, rows_per in modes:
            out = self.work / f"{mode}.jsonl"
            ok, elapsed = timed[mode]
            wall += elapsed
            n_rows = len(self.source_ids) * rows_per
            where = f"round {index} {mode}"
            if not ok:
                self.record(n_rows, n_rows, [], where)
                continue
            records = self._rows(out)
            failed, problems = checks.check_generations(records, self.source_ids, rows_per, MAX_LEN,
                                                        self._reserved(), full_length=mode == "greedy")
            by_id = {r["source_id"]: r["generations"] for r in records}
            self.first.setdefault(mode, by_id)
            bad, diffs = checks.count_mismatches(self.first[mode], by_id)
            failed += bad * rows_per
            problems += [f"differs from round 0: {d}" for d in diffs]
            ok_eval, t_eval = self.cli("cmd.evaluate", [
                "evaluate", "--generations", str(out), "--references", str(self.inp.decode),
                "--training-corpus", str(self.inp.train), "--out", str(self.work / f"eval_{mode}.json"),
            ])
            wall += t_eval
            if not ok_eval or not self._report_ok(self.work / f"eval_{mode}.json"):
                failed, problems = n_rows, problems + ["evaluate report missing or malformed"]
            self.record(n_rows, failed, problems, where)
            tokens_per_s[mode] = checks.count_tokens(records, MAX_LEN) / elapsed
        return rates(tokens_per_s.get("greedy", math.nan), tokens_per_s.get("nucleus", math.nan), refs, wall)

    def _report_ok(self, path: Path) -> bool:
        report = json.loads(path.read_text(encoding="utf-8"))
        return report.get("n_examples") == len(self.source_ids) and all(
            isinstance(report.get(k), float) and math.isfinite(report[k]) for k in ("bleu2", "cider", "unique", "novel"))

    @staticmethod
    def _reserved() -> tuple[str, ...]:
        from vcgen.vocab import RESERVED_TOKENS

        return RESERVED_TOKENS

    def final_checks(self) -> None:
        """Batch independence: an example decoded alone gives the rows it got
        in the full file. Nucleus streams are seeded by file position, so
        only the first example is comparable there."""
        lines = self.inp.decode.read_text(encoding="utf-8").splitlines(keepends=True)
        cases = [("greedy", i) for i in SINGLE_EXAMPLES] + [("nucleus", 0)]
        for mode, i in cases:
            single = self.work / f"single_{mode}_{i}.jsonl"
            single.write_text(lines[i], encoding="utf-8")
            out = self.work / f"single_{mode}_{i}.out.jsonl"
            rows_per = NUM_SAMPLES if mode == "nucleus" else 1
            ok, _ = self._generate(f"cmd.generate_single_{mode}", single, out, mode == "nucleus")
            where = f"batch independence {mode} example {i}"
            if not ok:
                self.record(rows_per, rows_per, [], where)
                continue
            alone = {r["source_id"]: r["generations"] for r in self._rows(out)}
            failed, problems = checks.count_mismatches(self.first.get(mode, {}), alone)
            if len(alone) != 1:
                failed, problems = 1, problems + [f"{len(alone)} records for one example"]
            self.record(rows_per, failed * rows_per, problems, where)


class Score(Workload):
    """filter a seeded candidate file at threshold ln V, with the event text
    and without it (image only); afterwards filter single candidates alone
    and require the same avg_ce bit for bit."""

    primary = ("score_examples_per_s", "candidates/s")
    secondary = ("score_no_event_examples_per_s", "candidates/s")
    # (span, tag, --use-event) of the two timed commands of a round
    MODES = (("cmd.filter", "full", "true"), ("cmd.filter_no_event", "no_event", "false"))

    def __init__(self, inputs, work, seed):
        super().__init__(inputs, work, seed)
        self.lines = inputs.candidates.read_text(encoding="utf-8").splitlines(keepends=True)
        self.source_ids = [json.loads(line)["source_id"] for line in self.lines]
        # ln V: a random-init model scores about half the candidates below it.
        self.threshold = math.log(inputs.vocab_size)
        self.first: dict[str, dict[str, float]] = {}

    def _filter(self, span: str, candidates: Path, tag: str, use_event: str) -> tuple[bool, float, list, list]:
        kept, dropped = self.work / f"{tag}.kept.jsonl", self.work / f"{tag}.dropped.jsonl"
        ok, elapsed = self.cli(span, [
            "filter", "--checkpoint", str(self.inp.checkpoint), "--vocab", str(self.inp.vocab),
            "--candidates", str(candidates), "--threshold", repr(self.threshold),
            "--out-kept", str(kept), "--out-dropped", str(dropped),
            "--report", str(self.work / f"{tag}.report.json"), "--use-event", use_event, "--threads", "1",
        ])
        if not ok:
            return False, elapsed, [], []
        return True, elapsed, read_jsonl(kept), read_jsonl(dropped)

    def round(self, index: int) -> dict:
        n = len(self.source_ids)
        refs = [reference_seconds()]
        runs = []
        for span, tag, use_event in self.MODES:
            runs.append(self._filter(span, self.inp.candidates, tag, use_event))
            refs.append(reference_seconds())
        for (_, tag, _), (ok, _, kept, dropped) in zip(self.MODES, runs):
            where = f"round {index} filter {tag}"
            if not ok:
                self.record(n, n, [], where)
                continue
            failed, problems = checks.check_filter(kept, dropped, self.source_ids, self.threshold)
            scores = {r["source_id"]: r["avg_ce"] for r in kept + dropped}
            self.first.setdefault(tag, scores)
            bad, diffs = checks.count_mismatches(self.first[tag], scores)
            self.record(n, failed + bad, problems + [f"differs from round 0: {d}" for d in diffs], where)
        (_, t_full, _, _), (_, t_no_event, _, _) = runs
        return rates(n / t_full, n / t_no_event, refs, t_full + t_no_event)

    def final_checks(self) -> None:
        """Batch independence: a candidate filtered alone gets the avg_ce it
        got in the full file, in both modes."""
        n = len(self.source_ids)
        for j in range(SINGLE_CANDIDATES):
            i = j * n // SINGLE_CANDIDATES
            _, tag, use_event = self.MODES[j % len(self.MODES)]
            single = self.work / f"single_{i}.jsonl"
            single.write_text(self.lines[i], encoding="utf-8")
            ok, _, kept, dropped = self._filter("cmd.filter_single", single, "single", use_event)
            alone = {r["source_id"]: r["avg_ce"] for r in kept + dropped}
            failed, problems = checks.count_mismatches(self.first.get(tag, {}), alone)
            if not ok or list(alone) != [self.source_ids[i]]:
                failed, problems = 1, problems + ["no single scored row"]
            self.record(1, failed, problems, f"batch independence {tag} candidate {i}")


WORKLOADS = {"train": Train, "decode": Decode, "score": Score}
