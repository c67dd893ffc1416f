"""End-to-end CLI behavior: exit codes, file protocols, and training logs."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from vcgen.cli import _SUBCOMMANDS, build_parser, main
from vcgen.synthetic import (
    full_corpus_lines,
    make_candidate_rows,
    make_caption_dataset,
    make_region_dataset,
    make_vcg_dataset,
)
from vcgen.data import save_jsonl

MODEL_FLAGS = [
    "--model.d_model", "16",
    "--model.n_heads", "2",
    "--model.d_ffn", "16",
    "--model.n_enc_layers", "1",
    "--model.n_dec_layers", "1",
    "--model.max_positions", "48",
    "--model.d_visual", "16",
    "--model.n_classes", "10",
    "--model.n_attr", "8",
    "--model.n_rel", "6",
    "--model.dropout_rate", "0.0",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "corpus.txt").write_text("\n".join(full_corpus_lines()) + "\n", encoding="utf-8")
    assert main(["build-vocab", "--input", str(root / "corpus.txt"), "--out", str(root / "vocab.txt")]) == 0
    save_jsonl(root / "vcg_train.jsonl", make_vcg_dataset(12, seed=1))
    save_jsonl(root / "vcg_val.jsonl", make_vcg_dataset(6, seed=2))
    save_jsonl(root / "kcg.jsonl", make_vcg_dataset(9, seed=3))
    save_jsonl(root / "captions.jsonl", make_caption_dataset(12, seed=4))
    save_jsonl(root / "regions.jsonl", make_region_dataset(9, seed=5))
    with (root / "candidates.jsonl").open("w", encoding="utf-8") as fh:
        for row in make_candidate_rows(10, seed=6):
            fh.write(json.dumps(row) + "\n")
    return root


def read_log(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def pretrain_args(root, out, tasks, extra=()):
    return [
        "pretrain",
        "--tasks", tasks,
        "--seed", "11",
        "--schedule.epochs", "1",
        "--schedule.batch_size", "4",
        "--paths.vocab", str(root / "vocab.txt"),
        "--paths.kcg_data", str(root / "kcg.jsonl"),
        "--paths.caption_data", str(root / "captions.jsonl"),
        "--paths.region_data", str(root / "regions.jsonl"),
        "--out-dir", str(out),
        *MODEL_FLAGS,
        *extra,
    ]


# ---------------------------------------------------------------------------
# build-vocab


def test_build_vocab_is_deterministic(workspace, tmp_path):
    out1 = tmp_path / "v1.txt"
    out2 = tmp_path / "v2.txt"
    corpus = workspace / "corpus.txt"
    assert main(["build-vocab", "--input", str(corpus), "--out", str(out1)]) == 0
    assert main(["build-vocab", "--input", str(corpus), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_vocab_missing_input_names_path(tmp_path, capsys):
    rc = main(["build-vocab", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "v.txt")])
    assert rc == 2
    assert "nope.txt" in capsys.readouterr().err


def test_build_vocab_min_freq_zero_is_usage_error(workspace, tmp_path):
    rc = main(
        ["build-vocab", "--input", str(workspace / "corpus.txt"), "--min-freq", "0", "--out", str(tmp_path / "v.txt")]
    )
    assert rc == 1


def test_usage_error_exit_code_is_1(capsys):
    for argv in (["pretrain", "--no-such-flag"], [], ["no-such-command"], ["generate"], ["--no-such-flag", "generate"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1, argv


@pytest.mark.parametrize("command", [
    ["pretrain"],
    ["finetune"],
    ["filter", "--checkpoint", "c", "--vocab", "v", "--candidates", "x", "--out-kept", "k", "--out-dropped", "d",
     "--report", "r"],
    ["generate", "--checkpoint", "c", "--vocab", "v", "--dataset", "x", "--out", "o"],
])
@pytest.mark.parametrize("threads", ["--threads=0", "--threads=-2", "--threads=two"])
def test_threads_must_be_a_count_of_at_least_one(monkeypatch, capsys, command, threads):
    """Every parser that takes ``--threads`` refuses a count below 1 before
    any work, leaving the BLAS pools unpinned."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pytest.raises(SystemExit) as err:
        main([*command, threads])
    assert err.value.code == 1
    value = threads.split("=")[1]
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument --threads: must be an integer >= 1, got {value!r}"
    )
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_subcommand_help_matches_the_full_parser(capsys):
    """main adds the arguments of the invoked subcommand only; each help text
    is the one the parser with every subcommand's arguments prints."""
    names = [name for name, _, _ in _SUBCOMMANDS]
    assert len(names) == 7
    for name in names:
        with pytest.raises(SystemExit) as err:
            main([name, "--help"])
        assert err.value.code == 0
        lean = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--help"])
        assert lean == capsys.readouterr().out
        assert lean.startswith(f"usage: vcgen {name} ")
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    top = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    assert top == capsys.readouterr().out
    assert all(name in top for name in names)


@pytest.mark.parametrize("value", [1.0, True])
def test_non_integer_layer_count_in_config_exits_2(workspace, tmp_path, capsys, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": {"n_enc_layers": value}}), encoding="utf-8")
    args = pretrain_args(workspace, tmp_path / "run", "kcg", extra=["--config", str(config)])
    flag = args.index("--model.n_enc_layers")
    del args[flag:flag + 2]  # the flag would override the file's value
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: n_enc_layers must be an integer, got {value!r}"]


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("field, config", [
    ("use_event", {"use_event": "false"}),
    ("schedule.batch_size", {"schedule": {"batch_size": True}}),
    ("schedule.epochs", {"schedule": {"epochs": 1.5}}),
    ("paths.vocab", {"paths": {"vocab": 5}}),
    ("optimizer.lr", {"optimizer": {"lr": "1e-3"}}),
    ("loss_weights.mlm", {"loss_weights": {"mlm": float("nan")}}),
    ("tasks", {"tasks": "kcg"}),
    ("tasks", {"tasks": 5}),
])
def test_mistyped_config_leaf_exits_2_naming_it(workspace, tmp_path, capsys, command, field, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    args = pretrain_args(workspace, out, "kcg") if command == "pretrain" else finetune_args(workspace, out)
    args += ["--config", str(path)]
    flag = "--" + field
    if flag in args:  # the flag would override the file's value
        del args[args.index(flag):args.index(flag) + 2]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} must be "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_training_without_a_vocabulary_path_exits_2(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {command} needs paths.vocab"]
    assert not out.exists()


def test_pretrain_with_a_directory_for_a_path_exits_2(workspace, tmp_path, capsys):
    args = pretrain_args(workspace, tmp_path / "run", "kcg")
    args[args.index("--paths.vocab") + 1] = str(workspace)
    assert main(args) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(workspace) in line


# ---------------------------------------------------------------------------
# pretrain


def test_pretrain_task_mix_filters_logged_terms(workspace, tmp_path):
    out = tmp_path / "run_mlm_mrm"
    assert main(pretrain_args(workspace, out, "mlm,mrm")) == 0
    steps = [r for r in read_log(out / "train_log.jsonl") if r["kind"] == "step"]
    assert steps
    for record in steps:
        assert "kcg" not in record and "ap" not in record and "rp" not in record
        assert record["task"] in ("mlm", "mrm")
        assert ("mlm" in record) or ("mrm" in record)


def test_pretrain_total_equals_weighted_sum_in_f32(workspace, tmp_path):
    out = tmp_path / "run_full"
    assert main(pretrain_args(workspace, out, "kcg,ap,rp,mlm,mrm")) == 0
    weights = {"kcg": 1.0, "ap": 1.0, "rp": 1.0, "mlm": 5.0, "mrm": 1.0}
    steps = [r for r in read_log(out / "train_log.jsonl") if r["kind"] == "step"]
    assert steps
    for record in steps:
        total = None
        for name in ("kcg", "ap", "rp", "mlm", "mrm"):
            if name in record:
                term = np.float32(weights[name]) * np.float32(record[name])
                total = term if total is None else np.float32(total + term)
        assert total is not None
        assert float(total) == record["total"]


def test_pretrain_round_robin_single_task_per_step(workspace, tmp_path):
    out = tmp_path / "run_rr"
    assert main(pretrain_args(workspace, out, "kcg,mlm")) == 0
    steps = [r for r in read_log(out / "train_log.jsonl") if r["kind"] == "step"]
    for record in steps:
        present = [k for k in ("kcg", "ap", "rp", "mlm", "mrm") if k in record]
        if record["task"] == "kcg":
            assert present == ["kcg"]
        else:
            assert present == ["mlm"]
    assert {r["task"] for r in steps} == {"kcg", "mlm"}


def test_pretrain_joint_mode_sums_all_active_terms(workspace, tmp_path):
    out = tmp_path / "run_joint"
    assert main(pretrain_args(workspace, out, "kcg,ap,rp", ("--interleave", "joint"))) == 0
    steps = [r for r in read_log(out / "train_log.jsonl") if r["kind"] == "step"]
    assert steps
    for record in steps:
        assert record["task"] == "joint"
        assert "kcg" in record and ("ap" in record or "rp" in record)


def _pretrain_with_one_region_batch(root, tmp_path, tasks, extra=()):
    """Pretrain on kcg.jsonl (9 examples, 3 batches of 4) and a 3-example
    region file (1 batch); returns the step records."""
    regions = tmp_path / "regions_small.jsonl"
    save_jsonl(regions, make_region_dataset(3, seed=5))
    out = tmp_path / "run_unequal"
    args = pretrain_args(root, out, tasks, extra)
    args[args.index("--paths.region_data") + 1] = str(regions)
    assert main(args) == 0
    return [r for r in read_log(out / "train_log.jsonl") if r["kind"] == "step"]


def test_round_robin_takes_one_batch_per_task_in_turn_until_all_run_out(workspace, tmp_path):
    steps = _pretrain_with_one_region_batch(workspace, tmp_path, "kcg,ap,rp")
    assert [r["task"] for r in steps] == ["kcg", "ap", "rp", "kcg", "kcg"]
    assert [r["step"] for r in steps] == [1, 2, 3, 4, 5]


def test_joint_steps_as_often_as_the_longest_stream_has_batches(workspace, tmp_path):
    steps = _pretrain_with_one_region_batch(workspace, tmp_path, "kcg,ap,rp", ("--interleave", "joint"))
    assert len(steps) == 3
    for record in steps:
        assert record["task"] == "joint"
        assert [k for k in ("kcg", "ap", "rp", "mlm", "mrm") if k in record] == ["kcg", "ap", "rp"]


def test_pretrain_mrm_on_captions_with_no_regions_logs_no_step(workspace, tmp_path):
    """Captions with no regions give mrm nothing to mask, so every step has
    no loss term: the step is skipped before its terms are combined, and
    pretrain exits 0 with no step line."""
    captions = tmp_path / "no_regions.jsonl"
    rows = [json.loads(line) for line in (workspace / "captions.jsonl").read_text(encoding="utf-8").splitlines()]
    captions.write_text("".join(json.dumps({**row, "rois": []}) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "run_no_regions"
    args = pretrain_args(workspace, out, "mrm")
    args[args.index("--paths.caption_data") + 1] = str(captions)
    assert main(args) == 0
    assert [r for r in read_log(out / "train_log.jsonl") if r["kind"] == "step"] == []


def test_pretrain_empty_dataset_errors(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = pretrain_args(workspace, tmp_path / "run_empty", "kcg")
    idx = args.index("--paths.kcg_data")
    args[idx + 1] = str(empty)
    assert main(args) == 2
    assert "empty" in capsys.readouterr().err


def test_pretrain_writes_manifest_and_checkpoints(workspace, tmp_path):
    out = tmp_path / "run_manifest"
    assert main(pretrain_args(workspace, out, "kcg")) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["seed"] == 11
    assert len(manifest["config_sha256"]) == 64
    for digest in manifest["inputs"].values():
        assert len(digest) == 64
    assert (out / "final.kmbt").exists()
    assert (out / "epoch_001.kmbt").exists()


def test_manifest_config_hash_leaves_out_the_paths(workspace, tmp_path):
    """The same run from a copy of its inputs, written to another directory,
    reports the same config hash; the config field keeps each run's paths."""
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("vocab.txt", "kcg.jsonl", "captions.jsonl", "regions.jsonl"):
        shutil.copyfile(workspace / name, copy / name)
    manifests = []
    for root, out in ((workspace, tmp_path / "run_a"), (copy, tmp_path / "run_b")):
        assert main(pretrain_args(root, out, "kcg")) == 0
        manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
    a, b = manifests
    assert a["config_sha256"] == b["config_sha256"]
    assert a["config"].pop("paths") != b["config"].pop("paths")
    assert a["config"] == b["config"]


def test_pretrain_reproducible_across_runs(workspace, tmp_path):
    out1 = tmp_path / "repro1"
    out2 = tmp_path / "repro2"
    assert main(pretrain_args(workspace, out1, "kcg,mlm")) == 0
    assert main(pretrain_args(workspace, out2, "kcg,mlm")) == 0
    assert (out1 / "train_log.jsonl").read_bytes() == (out2 / "train_log.jsonl").read_bytes()
    # the parameters themselves must agree bit-exactly
    from vcgen.checkpoint import load_checkpoint

    a = load_checkpoint(out1 / "final.kmbt")
    b = load_checkpoint(out2 / "final.kmbt")
    assert a.global_step == b.global_step
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name


def test_pretrain_checkpoint_bytes_do_not_depend_on_the_directory(workspace, tmp_path):
    """The same run, with its inputs and output in another directory,
    writes the same checkpoint bytes."""
    digests = []
    for root in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        root.mkdir(parents=True)
        for name in ("vocab.txt", "kcg.jsonl", "captions.jsonl", "regions.jsonl"):
            (root / name).write_bytes((workspace / name).read_bytes())
        assert main(pretrain_args(root, root / "run", "kcg")) == 0
        digests.append([hashlib.sha256((root / "run" / name).read_bytes()).hexdigest()
                        for name in ("epoch_001.kmbt", "final.kmbt")])
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# finetune


def finetune_args(root, out, extra=()):
    return [
        "finetune",
        "--seed", "13",
        "--schedule.epochs", "1",
        "--schedule.batch_size", "12",
        "--paths.vocab", str(root / "vocab.txt"),
        "--paths.train_data", str(root / "vcg_train.jsonl"),
        "--paths.val_data", str(root / "vcg_val.jsonl"),
        "--out-dir", str(out),
        *MODEL_FLAGS,
        *extra,
    ]


def test_finetune_runs_and_logs_val(workspace, tmp_path):
    out = tmp_path / "ft"
    assert main(finetune_args(workspace, out)) == 0
    records = read_log(out / "train_log.jsonl")
    assert any(r["kind"] == "val" and "val_kcg" in r for r in records)
    steps = [r for r in records if r["kind"] == "step"]
    assert all(set(r) & {"ap", "rp", "mlm", "mrm"} == set() for r in steps)


@pytest.mark.parametrize("data_flag", ["--paths.train_data", "--paths.val_data"])
def test_finetune_checks_label_ranges_like_pretrain(workspace, tmp_path, capsys, data_flag):
    rows = [json.loads(line) for line in (workspace / "vcg_train.jsonl").read_text().splitlines()]
    rows[2]["attributes"] = [[0, 8]]  # the model flags configure 8 attributes
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "ft"
    args = finetune_args(workspace, out)
    args[args.index(data_flag) + 1] = str(bad)
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: line 3: attribute label 8 exceeds configured count 8"
    ]
    assert not out.exists()


def test_finetune_with_an_empty_validation_file_exits_2_before_training(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "ft"
    args = finetune_args(workspace, out)
    args[args.index("--paths.val_data") + 1] = str(empty)
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: finetune has an empty validation dataset: {empty}"]
    assert not out.exists()


def test_finetune_with_a_task_mix_that_leaves_out_kcg_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "ft"
    assert main(finetune_args(workspace, out, extra=["--tasks", "ap,rp"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: finetune trains ['kcg']; tasks ['ap', 'rp'] names none of them"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command, field", [("pretrain", "kcg_data"), ("finetune", "train_data")])
def test_training_without_its_dataset_path_names_the_field(workspace, tmp_path, capsys, command, field):
    out = tmp_path / "run"
    args = pretrain_args(workspace, out, "kcg") if command == "pretrain" else finetune_args(workspace, out)
    del args[args.index(f"--paths.{field}"):args.index(f"--paths.{field}") + 2]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {command} needs paths.{field}"]
    assert not out.exists()


def test_finetune_from_checkpoint_starts_at_checkpoint_loss(workspace, tmp_path):
    pre_out = tmp_path / "pre_for_ft"
    assert main(pretrain_args(workspace, pre_out, "kcg")) == 0

    ft_out = tmp_path / "ft_init"
    assert main(finetune_args(workspace, ft_out, ("--init-checkpoint", str(pre_out / "final.kmbt")))) == 0
    first_step = next(r for r in read_log(ft_out / "train_log.jsonl") if r["kind"] == "step")

    # direct evaluation of the checkpoint on the trainer's first batch
    from vcgen.checkpoint import load_checkpoint, params_as_tensors
    from vcgen.config import RunConfig, from_dict
    from vcgen.data import load_jsonl
    from vcgen.losses import compute_losses
    from vcgen.model import Model
    from vcgen.train import _task_batches
    from vcgen.vocab import Vocabulary

    ckpt = load_checkpoint(pre_out / "final.kmbt")
    model = Model(ckpt.model_config(), params_as_tensors(ckpt))
    manifest = json.loads((ft_out / "manifest.json").read_text())
    cfg = from_dict(manifest["config"])
    vocab = Vocabulary.load(cfg.paths.vocab)
    batches = _task_batches(load_jsonl(cfg.paths.train_data), vocab, "kcg", cfg, epoch=0)
    terms = compute_losses(model, batches[0], ["kcg"])
    assert first_step["kcg"] == pytest.approx(float(terms["kcg"].data), abs=1e-6)


def test_finetune_checkpoint_config_mismatch_lists_fields(workspace, tmp_path, capsys):
    pre_out = tmp_path / "pre_mismatch"
    assert main(pretrain_args(workspace, pre_out, "kcg")) == 0
    args = finetune_args(workspace, tmp_path / "ft_bad", ("--init-checkpoint", str(pre_out / "final.kmbt")))
    idx = args.index("--model.d_ffn")
    args[idx + 1] = "32"
    assert main(args) == 2
    assert "d_ffn" in capsys.readouterr().err


def test_finetune_use_event_false_shrinks_assembled_inputs(workspace):
    from vcgen.data import load_jsonl
    from vcgen.model import assemble_input
    from vcgen.vocab import Vocabulary

    vocab = Vocabulary.load(workspace / "vocab.txt")
    examples = load_jsonl(workspace / "vcg_train.jsonl")
    for ex in examples[:4]:
        with_event = assemble_input(ex, vocab, "kcg", use_event=True)
        without = assemble_input(ex, vocab, "kcg", use_event=False)
        assert without.enc_len == 3 + len(ex.rois)
        assert with_event.enc_len > without.enc_len


# ---------------------------------------------------------------------------
# filter


def make_zero_checkpoint(tmp_path, vocab_path, name="zero.kmbt", init_seed=None):
    """A tiny checkpoint, all zeros or random from ``init_seed``."""
    from vcgen.checkpoint import save_checkpoint
    from vcgen.config import RunConfig, to_dict
    from vcgen.model import Model
    from vcgen.vocab import Vocabulary

    from helpers import tiny_config, zero_model

    vocab = Vocabulary.load(vocab_path)
    config = tiny_config(len(vocab))
    config.d_visual = 16
    config.n_classes = 10
    config.max_positions = 48
    model = zero_model(config) if init_seed is None else Model.init_random(config, init_seed)
    path = tmp_path / name
    save_checkpoint(path, to_dict(RunConfig(model=config)), model.params)
    return path, vocab


def small_vocab_file(tmp_path):
    """A vocabulary small enough that ln V stays below the 3.5 threshold;
    out-of-vocabulary candidate words map to <unk> and still score ln V
    under a uniform scorer."""
    from vcgen.vocab import build_vocab

    vocab = build_vocab(["walk to the park and drop cup"], min_freq=1)
    assert np.log(len(vocab)) < 3.5
    path = tmp_path / "small_vocab.txt"
    vocab.save(path)
    return path


def filter_args(workspace, ckpt, vocab_path, out_dir, threshold):
    return [
        "filter",
        "--checkpoint", str(ckpt),
        "--vocab", str(vocab_path),
        "--candidates", str(workspace / "candidates.jsonl"),
        "--threshold", str(threshold),
        "--out-kept", str(out_dir / "kept.jsonl"),
        "--out-dropped", str(out_dir / "dropped.jsonl"),
        "--report", str(out_dir / "report.json"),
    ]


def test_filter_zero_scorer_keeps_everything_below_ln_v(workspace, tmp_path):
    vocab_path = small_vocab_file(tmp_path)
    ckpt, vocab = make_zero_checkpoint(tmp_path, vocab_path)
    assert np.log(len(vocab)) < 3.5
    out = tmp_path / "f1"
    out.mkdir()
    assert main(filter_args(workspace, ckpt, vocab_path, out, 3.5)) == 0
    kept = (out / "kept.jsonl").read_text().splitlines()
    dropped = (out / "dropped.jsonl").read_text().splitlines()
    n_input = len((workspace / "candidates.jsonl").read_text().splitlines())
    assert len(kept) == n_input and len(dropped) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["keep_ratio"] == 1.0
    row = json.loads(kept[0])
    assert "avg_ce" in row and "relation" in row and "task" in row


def test_filter_threshold_zero_keeps_nothing(workspace, tmp_path):
    vocab_path = small_vocab_file(tmp_path)
    ckpt, _ = make_zero_checkpoint(tmp_path, vocab_path)
    out = tmp_path / "f0"
    out.mkdir()
    assert main(filter_args(workspace, ckpt, vocab_path, out, 0.0)) == 0
    assert (out / "kept.jsonl").read_text() == ""
    report = json.loads((out / "report.json").read_text())
    assert report["keep_ratio"] == 0.0
    n_input = len((workspace / "candidates.jsonl").read_text().splitlines())
    assert len((out / "dropped.jsonl").read_text().splitlines()) == n_input


def test_filter_unknown_relation_errors_with_line(workspace, tmp_path, capsys):
    vocab_path = small_vocab_file(tmp_path)
    ckpt, _ = make_zero_checkpoint(tmp_path, vocab_path)
    bad = tmp_path / "bad_cands.jsonl"
    rows = (workspace / "candidates.jsonl").read_text().splitlines()
    obj = json.loads(rows[0])
    obj["relation"] = "xAttr"
    bad.write_text(rows[0] + "\n" + json.dumps(obj) + "\n")
    out = tmp_path / "fbad"
    out.mkdir()
    args = filter_args(workspace, ckpt, vocab_path, out, 3.5)
    idx = args.index("--candidates")
    args[idx + 1] = str(bad)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "xAttr" in err


def test_filter_mistyped_field_exits_2_naming_line_and_field(workspace, tmp_path, capsys):
    vocab_path = small_vocab_file(tmp_path)
    ckpt, _ = make_zero_checkpoint(tmp_path, vocab_path)
    rows = (workspace / "candidates.jsonl").read_text().splitlines()
    obj = json.loads(rows[1])
    obj["attributes"] = 1
    bad = tmp_path / "bad_cands.jsonl"
    bad.write_text("\n".join([rows[0], json.dumps(obj)]) + "\n")
    args = filter_args(workspace, ckpt, vocab_path, tmp_path, 3.5)
    args[args.index("--candidates") + 1] = str(bad)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "'attributes'" in err and "Traceback" not in err


def test_filter_non_finite_feature_exits_2_and_writes_nothing(workspace, tmp_path, capsys):
    vocab_path = small_vocab_file(tmp_path)
    ckpt, _ = make_zero_checkpoint(tmp_path, vocab_path)
    rows = (workspace / "candidates.jsonl").read_text().splitlines()
    obj = json.loads(rows[1])
    obj["rois"][0]["feat"][0] = float("nan")
    bad = tmp_path / "bad_cands.jsonl"
    bad.write_text("\n".join([rows[0], json.dumps(obj)]) + "\n")
    out = tmp_path / "fnan"
    out.mkdir()
    args = filter_args(workspace, ckpt, vocab_path, out, 3.5)
    args[args.index("--candidates") + 1] = str(bad)
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line 2: roi 0 field 'feat' must hold finite numbers"]
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# generate + evaluate


def generate_args(workspace, ckpt, out, mode="greedy", extra=()):
    return [
        "generate",
        "--checkpoint", str(ckpt),
        "--vocab", str(workspace / "vocab.txt"),
        "--dataset", str(workspace / "vcg_val.jsonl"),
        "--out", str(out),
        "--mode", mode,
        "--seed", "5",
        *extra,
    ]


def test_generate_greedy_is_byte_identical_across_runs(workspace, tmp_path):
    ckpt, _ = make_zero_checkpoint(tmp_path, workspace / "vocab.txt")
    out1 = tmp_path / "g1.jsonl"
    out2 = tmp_path / "g2.jsonl"
    assert main(generate_args(workspace, ckpt, out1)) == 0
    assert main(generate_args(workspace, ckpt, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_nucleus_five_samples_and_header(workspace, tmp_path):
    ckpt, _ = make_zero_checkpoint(tmp_path, workspace / "vocab.txt")
    out = tmp_path / "g5.jsonl"
    assert main(generate_args(workspace, ckpt, out, "nucleus", ("--num-samples", "5", "--max-len", "6"))) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["seed"] == 5 and header["mode"] == "nucleus" and header["num_samples"] == 5
    for line in lines[1:]:
        record = json.loads(line)
        assert len(record["generations"]) == 5


@pytest.mark.parametrize("mode,index", [("greedy", 0), ("greedy", 5), ("nucleus", 0)])
def test_generate_rows_do_not_depend_on_other_examples(workspace, tmp_path, mode, index):
    """An example decoded alone gets the rows it got in the full file. Nucleus
    streams are seeded by file position, so only the first example compares."""
    ckpt, _ = make_zero_checkpoint(tmp_path, workspace / "vocab.txt", name="rand.kmbt", init_seed=3)
    extra = ("--num-samples", "5", "--max-len", "8")
    full_out = tmp_path / "full.jsonl"
    assert main(generate_args(workspace, ckpt, full_out, mode, extra)) == 0
    single = tmp_path / "single.jsonl"
    single.write_text((workspace / "vcg_val.jsonl").read_text().splitlines()[index] + "\n")
    args = generate_args(workspace, ckpt, tmp_path / "alone.jsonl", mode, extra)
    args[args.index("--dataset") + 1] = str(single)
    assert main(args) == 0
    full_rows = read_log(full_out)[1:]
    alone = read_log(tmp_path / "alone.jsonl")[1:]
    assert any(g for row in full_rows for g in row["generations"])
    assert alone == [full_rows[index]]


def test_generate_unknown_task_errors_with_source_id(workspace, tmp_path, capsys):
    """A non-generation example fails the command with its source_id before
    any output is written, also when it follows valid examples."""
    ckpt, _ = make_zero_checkpoint(tmp_path, workspace / "vocab.txt")
    mixed = tmp_path / "mixed.jsonl"
    valid = (workspace / "vcg_val.jsonl").read_text().splitlines()
    mixed.write_text("\n".join(valid[:3] + (workspace / "regions.jsonl").read_text().splitlines()[:1]) + "\n")
    for dataset in (workspace / "regions.jsonl", mixed):
        out = tmp_path / f"gx_{dataset.stem}.jsonl"
        args = generate_args(workspace, ckpt, out)
        idx = args.index("--dataset")
        args[idx + 1] = str(dataset)
        assert main(args) == 2
        assert "reg-00000" in capsys.readouterr().err
        assert not out.exists() or out.read_text() == ""


def write_eval_pair(tmp_path, per_task=2):
    """References dataset plus identity generations across three tasks."""
    refs = tmp_path / "refs.jsonl"
    gens = tmp_path / "gens.jsonl"
    sentences = {
        "before": "walk to the park with the cup",
        "after": "leave the park and drop the cup",
        "intent": "to hold the shiny cup today now",
    }
    ref_rows = []
    gen_rows = [json.dumps({"seed": 0, "mode": "greedy"})]
    for task, sentence in sentences.items():
        for i in range(per_task):
            sid = f"{task}-{i}"
            ref_rows.append(
                json.dumps(
                    {
                        "task": task,
                        "event": "e",
                        "target": f"{sentence} v{i}",
                        "rois": [],
                        "attributes": [],
                        "relations": [],
                        "source_id": sid,
                    }
                )
            )
            gen_rows.append(
                json.dumps({"source_id": sid, "task": task, "generations": [f"{sentence} v{i}"]})
            )
    refs.write_text("\n".join(ref_rows) + "\n")
    gens.write_text("\n".join(gen_rows) + "\n")
    return refs, gens


def test_evaluate_identity_scores(workspace, tmp_path, capsys):
    refs, gens = write_eval_pair(tmp_path)
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--generations", str(gens), "--references", str(refs), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["bleu2"] == pytest.approx(100.0, abs=1e-9)
    assert report["cider"] == pytest.approx(10.0, abs=1e-9)
    assert report["n_examples"] == 6


def test_evaluate_group_by_task_total_is_mean(workspace, tmp_path):
    refs, gens = write_eval_pair(tmp_path)
    out = tmp_path / "metrics_grouped.json"
    assert (
        main(
            [
                "evaluate",
                "--generations", str(gens),
                "--references", str(refs),
                "--group-by-task",
                "--out", str(out),
            ]
        )
        == 0
    )
    report = json.loads(out.read_text())
    per_task = report["per_task"]
    tasks = ["after", "before", "intent"]
    for key in ("bleu2", "cider", "unique", "novel"):
        mean = sum(per_task[t][key] for t in tasks) / 3
        assert per_task["total"][key] == pytest.approx(mean, rel=1e-9)


def test_evaluate_missing_reference_names_source_id(workspace, tmp_path, capsys):
    refs, gens = write_eval_pair(tmp_path)
    rows = [json.loads(l) for l in refs.read_text().splitlines()]
    refs.write_text("\n".join(json.dumps(r) for r in rows[1:]) + "\n")  # drop one
    assert main(["evaluate", "--generations", str(gens), "--references", str(refs)]) == 2
    assert rows[0]["source_id"] in capsys.readouterr().err


def _empty_generations(gens, tasks):
    """Clear the generations of every row of ``tasks`` in a generations file."""
    header, *rows = (json.loads(l) for l in gens.read_text().splitlines())
    for row in rows:
        if row["task"] in tasks:
            row["generations"] = []
    gens.write_text("\n".join(json.dumps(r) for r in [header, *rows]) + "\n")


def test_evaluate_generations_holding_no_generation_exit_2_naming_the_file(tmp_path, capsys):
    refs, gens = write_eval_pair(tmp_path)
    _empty_generations(gens, {"before", "after", "intent"})
    assert main(["evaluate", "--generations", str(gens), "--references", str(refs)]) == 2
    assert capsys.readouterr().err == f"error: {gens} holds no generations to score\n"


def test_evaluate_group_by_task_with_a_task_holding_no_generation_exits_2_naming_the_file(tmp_path, capsys):
    refs, gens = write_eval_pair(tmp_path)
    _empty_generations(gens, {"intent"})
    args = ["evaluate", "--generations", str(gens), "--references", str(refs)]
    assert main(args) == 0
    capsys.readouterr()
    assert main([*args, "--group-by-task"]) == 2
    assert capsys.readouterr().err == f"error: {gens} holds no generations to score\n"


@pytest.mark.parametrize("row, message", [
    ('{"source_id": "before-0", "task": "before", "generations": "walk to the park"}',
     "need a list of strings under 'generations'"),
    ('{"source_id": "before-0", "task": "before"}', "need a list of strings under 'generations'"),
    ('{"source_id": "before-0", "task": "before", "generations": ["walk", 7]}',
     "need a list of strings under 'generations'"),
    ('{"source_id": "before-0", "generations": ["walk"]}', "need a string 'task'"),
    ('{"source_id": 0, "task": "before", "generations": ["walk"]}', "need a string 'source_id'"),
    ('["before-0", "before", ["walk"]]', "must be JSON objects"),
    ('{"source_id": "before-0", "task": "before", "generations": ["walk"]', "malformed JSON"),
], ids=["string", "missing", "non-string-entry", "no-task", "int-source-id", "list-row", "malformed-json"])
def test_evaluate_malformed_generation_row_exits_2_naming_its_line(tmp_path, capsys, row, message):
    refs, gens = write_eval_pair(tmp_path)
    lines = gens.read_text().splitlines()
    lines[3] = row
    gens.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--generations", str(gens), "--references", str(refs)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {gens}: line 4: ") and message in err


@pytest.mark.parametrize("flag", ["--generations", "--references", "--training-corpus"])
def test_evaluate_names_the_file_holding_a_bad_row(tmp_path, capsys, flag):
    refs, gens = write_eval_pair(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    paths = {"--generations": gens, "--references": refs, "--training-corpus": refs, flag: bad}
    assert main(["evaluate", *(str(part) for item in paths.items() for part in item)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: line 1: malformed JSON (Expecting value)"]


def test_evaluate_novel_against_training_corpus(workspace, tmp_path):
    refs, gens = write_eval_pair(tmp_path)
    out = tmp_path / "metrics_novel.json"
    assert (
        main(
            [
                "evaluate",
                "--generations", str(gens),
                "--references", str(refs),
                "--training-corpus", str(refs),
                "--out", str(out),
            ]
        )
        == 0
    )
    report = json.loads(out.read_text())
    assert report["novel"] == 0.0  # generations are exactly the training targets


def test_inspect_checkpoint(workspace, tmp_path, capsys):
    ckpt, _ = make_zero_checkpoint(tmp_path, workspace / "vocab.txt")
    assert main(["inspect-checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "tok_emb.weight" in out and "global_step" in out


@pytest.mark.parametrize("command", ["filter", "greedy", "nucleus", "evaluate_kcg"])
def test_inference_makes_no_tape_tensor(workspace, tmp_path, monkeypatch, command):
    """Scoring and decoding run the array ops: a filter command, a greedy
    and a nucleus generate command and validation scoring make no tensor
    through the tape ops, whose every output passes through ``_make``."""
    import vcgen.tensor
    from vcgen.checkpoint import load_checkpoint, params_as_tensors
    from vcgen.data import load_jsonl
    from vcgen.model import Model
    from vcgen.train import evaluate_kcg

    ckpt, vocab = make_zero_checkpoint(tmp_path, workspace / "vocab.txt", name="rand.kmbt", init_seed=3)
    made = []
    make = vcgen.tensor._make
    monkeypatch.setattr(vcgen.tensor, "_make", lambda *args: made.append(args[0].shape) or make(*args))
    if command == "filter":
        assert main(filter_args(workspace, ckpt, workspace / "vocab.txt", tmp_path, 3.5)) == 0
    elif command == "evaluate_kcg":
        loaded = load_checkpoint(ckpt)
        model = Model(loaded.model_config(), params_as_tensors(loaded))
        assert np.isfinite(evaluate_kcg(model, vocab, load_jsonl(workspace / "vcg_val.jsonl")))
    else:
        out = tmp_path / "gen.jsonl"
        assert main(generate_args(workspace, ckpt, out, command, ("--num-samples", "5", "--max-len", "8"))) == 0
        assert any(g for row in read_log(out)[1:] for g in row["generations"])
    assert made == []
    vcgen.tensor.add(vcgen.tensor.Tensor(np.ones(2)), vcgen.tensor.Tensor(np.ones(2)))
    assert made == [(2,)]  # the count sees a tape op
