"""Command-line surface: build-vocab, pretrain, finetune, filter, generate,
evaluate, inspect-checkpoint.

Exit codes: 0 success, 1 usage errors, 2 bad input (an ``InputError`` or an
``OSError``); any other exception is a bug and keeps its traceback. Heavy
imports happen inside the command handlers so that ``--threads`` can pin the
BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import InputError
from .files import json_text, output_file, write_jsonl

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_limit(argv: list[str]) -> None:
    """Pin BLAS pools before numpy is imported anywhere in this process."""
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
        else:
            continue
        if value.isdigit() and int(value) >= 1:
            for var in _THREAD_ENV_VARS:
                os.environ[var] = value
        return


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    def count(value: str) -> int:
        if not value.isdigit() or int(value) < 1:
            raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")
        return int(value)

    parser.add_argument("--threads", type=count, help="BLAS/OpenMP thread cap, >= 1")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    from .config import INTERLEAVE_MODES, PRESET_MODELS, leaf_fields

    parser.add_argument("--config", help="JSON config file merged over the preset")
    parser.add_argument("--seed", type=int, help="override schedule.seed")
    _add_threads_flag(parser)
    parser.add_argument("--preset", choices=tuple(PRESET_MODELS), default="desk")
    parser.add_argument("--tasks", help="comma list from kcg,ap,rp,mlm,mrm")
    parser.add_argument("--use-event", choices=("true", "false"))
    parser.add_argument("--interleave", choices=INTERLEAVE_MODES)
    parser.add_argument("--out-dir", help="override paths.out_dir")
    # Dotted overrides for every scalar config leaf (e.g. --model.d_model 64).
    for dotted, _ in leaf_fields():
        if dotted in ("use_event", "interleave"):
            continue
        parser.add_argument(f"--{dotted}", dest=dotted, metavar="VALUE")


def _build_config(args) -> "RunConfig":
    from .config import apply_override, leaf_fields, load_config, preset

    cfg = preset(args.preset)
    if getattr(args, "_finetune_defaults", False):
        cfg.model.dropout_rate = 0.3
    if args.config:
        cfg = load_config(args.config, base=cfg)
    argmap = vars(args)
    for dotted, _ in leaf_fields():
        if dotted in ("use_event", "interleave"):
            continue
        raw = argmap.get(dotted)
        if raw is not None:
            apply_override(cfg, dotted, raw)
    if args.seed is not None:
        cfg.schedule.seed = args.seed
    if args.tasks:
        cfg.tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    if args.use_event is not None:
        cfg.use_event = args.use_event == "true"
    if args.interleave is not None:
        cfg.interleave = args.interleave
    if args.out_dir:
        cfg.paths.out_dir = args.out_dir
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_build_vocab(args) -> int:
    from .vocab import build_vocab

    if args.min_freq < 1:
        print(f"error: --min-freq must be >= 1, got {args.min_freq}", file=sys.stderr)
        return EXIT_USAGE
    lines: list[str] = []
    for path in args.input:
        try:
            lines.extend(Path(path).read_text(encoding="utf-8").splitlines())
        except UnicodeDecodeError as exc:
            raise InputError(f"corpus file {path} is not UTF-8: {exc}") from None
    vocab = build_vocab(lines, min_freq=args.min_freq)
    vocab.save(args.out)
    print(f"wrote vocabulary of {len(vocab)} tokens to {args.out}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    from .train import pretrain

    cfg = _build_config(args)
    result = pretrain(cfg)
    print(json_text(result))
    return EXIT_OK


def cmd_finetune(args) -> int:
    from .train import finetune

    cfg = _build_config(args)
    result = finetune(cfg, init_checkpoint=args.init_checkpoint)
    print(json_text(result))
    return EXIT_OK


def _load_inference_model(checkpoint: str, vocab_path: str):
    """The checkpoint's model and its vocabulary."""
    from .checkpoint import load_checkpoint, params_as_tensors
    from .model import Model
    from .vocab import Vocabulary

    ckpt = load_checkpoint(checkpoint)
    model = Model(ckpt.model_config(), params_as_tensors(ckpt))
    vocab = Vocabulary.load(vocab_path)
    if len(vocab) != model.config.vocab_size:
        raise InputError(
            f"vocabulary {vocab_path} has {len(vocab)} tokens, checkpoint vocab_size is {model.config.vocab_size}"
        )
    return model, vocab


def cmd_filter(args) -> int:
    from .data import (
        check_dataset_dims,
        example_to_dict,
        filter_dataset,
        filter_report,
        load_candidates_jsonl,
        score_dataset,
    )

    if not math.isfinite(args.threshold):
        raise InputError(f"--threshold must be a finite number, got {args.threshold}")
    model, vocab = _load_inference_model(args.checkpoint, args.vocab)
    use_event = args.use_event != "false"

    candidates = load_candidates_jsonl(args.candidates)
    examples = [example for _, _, example in candidates]
    check_dataset_dims(examples, model.config, args.candidates)
    scored = score_dataset(model, vocab, examples, use_event=use_event)
    for (line_no, relation, example), s in zip(candidates, scored):
        if not math.isfinite(s.avg_ce):
            raise InputError(
                f"{args.candidates}: line {line_no}: candidate {example.source_id!r} "
                f"scores avg_ce {s.avg_ce}, not a finite number"
            )
        s.relation = relation
    kept, dropped = filter_dataset(scored, threshold=args.threshold)
    for path, subset in ((args.out_kept, kept), (args.out_dropped, dropped)):
        write_jsonl(path, ({**example_to_dict(s.example), "relation": s.relation, "avg_ce": s.avg_ce} for s in subset))
    report = filter_report(kept, dropped)
    report["threshold"] = args.threshold
    with output_file(args.report) as fh:
        fh.write(json_text(report, indent=2) + "\n")
    print(f"kept {len(kept)}/{len(scored)} candidates (threshold {args.threshold})")
    return EXIT_OK


def cmd_generate(args) -> int:
    from .data import check_dataset_dims, load_jsonl
    from .generate import GenerationConfig, decode_length, generate_dataset

    model, vocab = _load_inference_model(args.checkpoint, args.vocab)
    gen_cfg = GenerationConfig(
        mode=args.mode,
        top_p=args.top_p,
        max_len=args.max_len,
        num_samples=1 if args.mode == "greedy" else args.num_samples,
        seed=args.seed,
    )
    examples = load_jsonl(args.dataset)
    check_dataset_dims(examples, model.config, args.dataset)
    generations = generate_dataset(model, vocab, examples, gen_cfg, use_event=args.use_event != "false")
    header = {"seed": gen_cfg.seed, "mode": gen_cfg.mode, "top_p": gen_cfg.top_p,
              "num_samples": gen_cfg.num_samples, "max_len": decode_length(model, gen_cfg)}
    rows = [{"source_id": ex.source_id, "task": ex.task.value, "generations": [vocab.decode(s) for s in sequences]}
            for ex, sequences in zip(examples, generations)]
    write_jsonl(args.out, [header, *rows])
    print(f"wrote generations for {len(examples)} examples to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .data import load_generations_jsonl, load_jsonl
    from .metrics import EvalCorpus, EvalEntry, metric_report

    records = load_generations_jsonl(args.generations)
    references = load_jsonl(args.references)
    refs_by_key: dict[tuple[str, str], list[str]] = {}
    for example in references:
        refs_by_key.setdefault((example.source_id, example.task.value), []).append(
            example.target_text.lower()
        )
    training_sentences: set[str] = set()
    if args.training_corpus:
        training_sentences = {
            ex.target_text.lower() for ex in load_jsonl(args.training_corpus)
        }

    def corpus_for(rows) -> EvalCorpus:
        entries = []
        for row in rows:
            key = (row["source_id"], row["task"])
            if key not in refs_by_key:
                raise InputError(
                    f"source_id {row['source_id']!r} (task {row['task']!r}) missing from {args.references}"
                )
            entries.append(EvalEntry(generated=list(row["generations"]), references=refs_by_key[key]))
        if not any(entry.generated for entry in entries):
            raise InputError(f"{args.generations} holds no generations to score")
        return EvalCorpus(entries=entries, training_sentences=training_sentences)

    distinct = args.unique_mode == "distinct"
    report = metric_report(corpus_for(records), distinct_unique=distinct)
    if args.group_by_task:
        tasks = sorted({row["task"] for row in records})
        per_task = {}
        for task in tasks:
            rows = [row for row in records if row["task"] == task]
            per_task[task] = metric_report(corpus_for(rows), distinct_unique=distinct)
        totals = {}
        for key in ("bleu2", "cider", "unique", "novel"):
            totals[key] = sum(per_task[t][key] for t in tasks) / len(tasks)
        totals["n_examples"] = sum(per_task[t]["n_examples"] for t in tasks)
        per_task["total"] = totals
        report["per_task"] = per_task
    payload = json_text(report, indent=2)
    if args.out:
        with output_file(args.out) as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_inspect_checkpoint(args) -> int:
    from .checkpoint import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    total = sum(int(v.size) for v in ckpt.params.values())
    print(f"checkpoint: {args.checkpoint}")
    print(f"global_step: {ckpt.global_step}")
    print(f"parameters: {len(ckpt.params)} tensors, {total} values")
    if ckpt.opt_state:
        print(f"optimizer state: {len(ckpt.opt_state)} tensors")
    print("model config: " + json_text(ckpt.config.get("model", {}), sort_keys=True))
    for name, data in ckpt.params.items():
        print(f"  {name}  {list(data.shape)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_vocab_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", nargs="+", required=True, help="plain-text corpus files")
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)


def _pretrain_args(p: argparse.ArgumentParser) -> None:
    _add_common_flags(p)
    p.set_defaults(func=cmd_pretrain)


def _finetune_args(p: argparse.ArgumentParser) -> None:
    _add_common_flags(p)
    p.add_argument("--init-checkpoint", help="start from these parameters")
    p.set_defaults(func=cmd_finetune, _finetune_defaults=True)


def _filter_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--threshold", type=float, default=3.5)
    p.add_argument("--out-kept", required=True)
    p.add_argument("--out-dropped", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--use-event", choices=("true", "false"), default="true")
    _add_threads_flag(p)
    p.set_defaults(func=cmd_filter)


def _generate_args(p: argparse.ArgumentParser) -> None:
    from .generate import MODES, GenerationConfig

    defaults = GenerationConfig()
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default=defaults.mode)
    p.add_argument("--top-p", type=float, default=defaults.top_p)
    p.add_argument("--num-samples", type=int, default=defaults.num_samples,
                   help="nucleus generations per example; greedy writes one per example")
    p.add_argument("--max-len", type=int, default=defaults.max_len)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--use-event", choices=("true", "false"), default="true")
    _add_threads_flag(p)
    p.set_defaults(func=cmd_generate)


def _evaluate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generations", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--training-corpus", help="dataset whose targets define the novelty set")
    p.add_argument("--group-by-task", action="store_true")
    p.add_argument("--unique-mode", choices=("exactly-once", "distinct"), default="exactly-once")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)


def _inspect_checkpoint_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_inspect_checkpoint)


# (name, help line, the function that adds its arguments)
_SUBCOMMANDS = (
    ("build-vocab", "build a vocabulary file from text corpora", _build_vocab_args),
    ("pretrain", "multi-task pretraining", _pretrain_args),
    ("finetune", "generation-only training on a VCG-format dataset", _finetune_args),
    ("filter", "score candidates and keep those below the threshold", _filter_args),
    ("generate", "decode a dataset with a checkpoint", _generate_args),
    ("evaluate", "score generations against references", _evaluate_args),
    ("inspect-checkpoint", "print checkpoint metadata", _inspect_checkpoint_args),
)


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The vcgen parser. Given ``argv``, only the subcommand it invokes gets
    its arguments: every ``add_argument`` builds a help formatter that asks
    for the terminal size, and the other subcommands' arguments are never
    read. ``vcgen --help`` needs only the names and help lines."""
    command = next((arg for arg in argv if not arg.startswith("-")), None) if argv is not None else None
    parser = _Parser(prog="vcgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_line)
        if argv is None or name == command:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _apply_thread_limit(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
