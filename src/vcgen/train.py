"""Training loops, validation scoring, and run manifests.

Everything stochastic derives from the schedule seed through fixed tag
tuples, so a run with the same config, inputs, and a single thread is
bit-reproducible. The interleave mode only chooses the step schedule: per
step, round-robin draws one batch from the active task's dataset and reads
out only that task's loss (denoising passes still corrupt text and regions
together); joint takes one batch per dataset stream and sums every active
term.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import (
    check_model_config,
    load_checkpoint,
    params_as_tensors,
    save_checkpoint,
)
from .config import RunConfig, config_hash, to_dict, without_paths
from .data import MultimodalExample, PaddedBatch, check_dataset_dims, load_jsonl, make_batches, score_dataset
from .data import score_description  # noqa: F401  (unused here; the benchmark traces this name)
from .errors import InputError
from .files import json_text, output_file
from .losses import LOSS_ORDER, LossWeights, combine_losses, compute_losses
from .model import Model, assemble_input
from .optim import AdamW
from .tensor import Tape
from .vocab import Vocabulary

# Seed-derivation tags; each stochastic consumer mixes its tag with the run
# seed so streams never collide.
TAG_INIT = 0
TAG_SHUFFLE = 1
TAG_MASK = 2
TAG_DROPOUT = 3

STREAM_OF_TASK = {
    "kcg": "kcg_data",
    "ap": "region_data",
    "rp": "region_data",
    "mlm": "caption_data",
    "mrm": "caption_data",
}


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, cfg: RunConfig, inputs: Sequence[str | Path]) -> None:
    manifest = {
        "command": command,
        "seed": cfg.schedule.seed,
        "config_sha256": config_hash(cfg),
        "config": to_dict(cfg),
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    with output_file(out_dir / "manifest.json") as fh:
        fh.write(json_text(manifest, indent=2, sort_keys=True) + "\n")


def load_run_vocab(cfg: RunConfig, command: str) -> Vocabulary:
    """The run's vocabulary from ``paths.vocab``; resolves a zero
    ``model.vocab_size`` from it and rejects any other size mismatch."""
    if not cfg.paths.vocab:
        raise InputError(f"{command} needs paths.vocab")
    vocab = Vocabulary.load(cfg.paths.vocab)
    if cfg.model.vocab_size == 0:
        cfg.model.vocab_size = len(vocab)
    elif cfg.model.vocab_size != len(vocab):
        raise InputError(
            f"config vocab_size {cfg.model.vocab_size} does not match vocabulary size {len(vocab)}"
        )
    return vocab


def _task_batches(
    examples: Sequence[MultimodalExample],
    vocab: Vocabulary,
    task: str,
    cfg: RunConfig,
    epoch: int,
) -> list[PaddedBatch]:
    """Assemble and batch one task's dataset for one epoch."""
    task_index = LOSS_ORDER.index(task)
    items = []
    for idx, example in enumerate(examples):
        assembled = assemble_input(
            example,
            vocab,
            task,
            use_event=cfg.use_event,
            seed=[cfg.schedule.seed, TAG_MASK, epoch, task_index, idx],
            max_positions=cfg.model.max_positions,
        )
        items.append((assembled, example))
    return make_batches(
        items,
        cfg.schedule.batch_size,
        seed=[cfg.schedule.seed, TAG_SHUFFLE, epoch, task_index],
    )


def _train_step(
    model: Model,
    optimizer: AdamW,
    batch_terms: list[tuple[PaddedBatch, set[str]]],
    weights: LossWeights,
    cfg: RunConfig,
    epoch: int,
    global_step: int,
):
    """One optimizer step; returns the logged loss figures, or None when the
    batch carried no loss units (e.g. a denoising batch where the 15%
    masking selected nothing). A gradient AdamW refuses raises InputError."""
    rng = np.random.default_rng([cfg.schedule.seed, TAG_DROPOUT, epoch, global_step])
    model.zero_grad()  # the last step's grads are read by nothing from here on
    with Tape() as tape:
        terms = {}
        for batch, wanted in batch_terms:
            terms.update(compute_losses(model, batch, wanted, rng))
        if not terms:
            return None
        total, logged = combine_losses(terms, weights)
    tape.backward(total)
    try:
        optimizer.step()
    except InputError as exc:  # AdamW names the first parameter whose gradient it refuses
        raise InputError(
            f"epoch {epoch}, step {global_step + 1}: {exc}; training diverged at optimizer.lr {cfg.optimizer.lr}"
        ) from None
    return logged


def _log_line(fh, record: dict) -> None:
    fh.write(json_text(record) + "\n")
    fh.flush()


def evaluate_kcg(
    model: Model, vocab: Vocabulary, examples: Sequence[MultimodalExample], use_event: bool = True
) -> float:
    """Per-token mean cross-entropy over a dataset, eval mode."""
    scored = score_dataset(model, vocab, examples, use_event=use_event)
    total_tokens = sum(s.n_tokens for s in scored)
    return sum(s.avg_ce * s.n_tokens for s in scored) / total_tokens


def _epoch_steps(
    cfg: RunConfig,
    vocab: Vocabulary,
    datasets: dict[str, list[MultimodalExample]],
    epoch: int,
):
    """Yield each step of one epoch as (log label, batch_terms) over the
    active tasks, the keys of ``datasets`` in ``LOSS_ORDER``.

    Round-robin takes one batch per task in turn, labelled with the task,
    until every task runs out. Joint takes one batch per dataset stream per
    step, assembled for the stream's first active task and read out for all
    of them, and cycles the shorter streams until the longest runs out.
    """
    if cfg.interleave == "round-robin":
        queues = [(task, _task_batches(datasets[task], vocab, task, cfg, epoch)) for task in datasets]
        for r in range(max(len(batches) for _, batches in queues)):
            for task, batches in queues:
                if r < len(batches):
                    yield task, [(batches[r], {task})]
        return
    tasks_of_stream: dict[str, list[str]] = {}
    for task in datasets:
        tasks_of_stream.setdefault(STREAM_OF_TASK[task], []).append(task)
    streams = [
        (_task_batches(datasets[tasks[0]], vocab, tasks[0], cfg, epoch), set(tasks))
        for tasks in tasks_of_stream.values()
    ]
    for s in range(max(len(batches) for batches, _ in streams)):
        yield "joint", [(batches[s % len(batches)], wanted) for batches, wanted in streams]


def _run_epochs(
    cfg: RunConfig,
    model: Model,
    vocab: Vocabulary,
    datasets: dict[str, list[MultimodalExample]],
    log_fh,
    out_dir: Path,
    val_examples: Sequence[MultimodalExample] | None,
) -> int:
    optimizer = AdamW(
        model.params,
        lr=cfg.optimizer.lr,
        betas=(cfg.optimizer.beta1, cfg.optimizer.beta2),
        eps=cfg.optimizer.eps,
        weight_decay=cfg.optimizer.weight_decay,
    )
    weights = cfg.loss_weights
    global_step = 0
    for epoch in range(cfg.schedule.epochs):
        for label, batch_terms in _epoch_steps(cfg, vocab, datasets, epoch):
            logged = _train_step(model, optimizer, batch_terms, weights, cfg, epoch, global_step)
            if logged is None:
                continue
            global_step += 1
            _log_line(log_fh, {"kind": "step", "epoch": epoch, "step": global_step, "task": label, **logged})
        if val_examples is not None:
            val = evaluate_kcg(model, vocab, val_examples, use_event=cfg.use_event)
            _log_line(log_fh, {"kind": "val", "epoch": epoch, "val_kcg": val})
        save_checkpoint(
            out_dir / f"epoch_{epoch + 1:03d}.kmbt",
            without_paths(cfg),
            model.params,
            global_step=global_step,
        )
    return global_step


def _train(
    cfg: RunConfig,
    command: str,
    streams: dict[str, str],
    val_field: str | None = None,
    init_checkpoint: str | Path | None = None,
) -> dict:
    """The run path of both training commands.

    ``streams`` maps each task the command can train, in ``LOSS_ORDER``, to
    the ``paths`` field of its dataset; the run trains those that
    ``cfg.tasks`` names. ``val_field`` names the optional validation file.
    Every distinct file is loaded once, with the configured label ranges
    checked. The parameters start from ``init_checkpoint`` (structural
    config fields must agree) or from random init.
    """
    cfg.validate()
    vocab = load_run_vocab(cfg, command)
    active = [task for task in streams if task in cfg.tasks]
    if not active:
        raise InputError(f"{command} trains {list(streams)}; tasks {cfg.tasks} names none of them")
    loaded: dict[str, list[MultimodalExample]] = {}

    def load(path: str) -> list[MultimodalExample]:
        if path not in loaded:
            loaded[path] = load_jsonl(path, n_attr=cfg.model.n_attr, n_rel=cfg.model.n_rel)
            check_dataset_dims(loaded[path], cfg.model, path)
        return loaded[path]

    datasets: dict[str, list[MultimodalExample]] = {}
    for task in active:
        path = getattr(cfg.paths, streams[task])
        if not path:
            raise InputError(f"{command} needs paths.{streams[task]}")
        datasets[task] = load(path)
        if not datasets[task]:
            raise InputError(f"active task {task!r} has an empty dataset: {path}")
    val_path = getattr(cfg.paths, val_field) if val_field else ""
    val_examples = load(val_path) if val_path else None
    if val_examples == []:
        raise InputError(f"{command} has an empty validation dataset: {val_path}")
    input_paths = [cfg.paths.vocab, *loaded]

    if init_checkpoint is not None:
        ckpt = load_checkpoint(init_checkpoint)
        check_model_config(ckpt, cfg.model)
        model = Model(cfg.model, params_as_tensors(ckpt))
        input_paths.append(init_checkpoint)
    else:
        model = Model.init_random(cfg.model, [cfg.schedule.seed, TAG_INIT])

    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, command, cfg, input_paths)
    log_path = out_dir / "train_log.jsonl"
    with log_path.open("w", encoding="utf-8", newline="\n") as log_fh:
        global_step = _run_epochs(cfg, model, vocab, datasets, log_fh, out_dir, val_examples)
    final = out_dir / "final.kmbt"
    save_checkpoint(final, without_paths(cfg), model.params, global_step=global_step)
    return {"log": str(log_path), "checkpoint": str(final), "steps": global_step}


def pretrain(cfg: RunConfig) -> dict:
    """Multi-task pretraining over the configured task mix."""
    return _train(cfg, "pretrain", STREAM_OF_TASK)


def finetune(cfg: RunConfig, init_checkpoint: str | Path | None = None) -> dict:
    """Generation-only training on a VCG-format dataset, from
    ``init_checkpoint`` when given."""
    return _train(cfg, "finetune", {"kcg": "train_data"}, "val_data", init_checkpoint)
