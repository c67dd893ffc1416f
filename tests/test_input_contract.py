"""The input contract of ``vcgen.cli.main``: bad input, an ``InputError`` or
an ``OSError``, exits 2 with a one-line message that names the file, line,
flag or tensor; a usage error raises ``SystemExit(1)``; any other exception
is a bug and propagates with its traceback. Fuzzed config documents, dotted
flags, JSONL rows and checkpoint bytes must keep to it."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgen.checkpoint import load_checkpoint, save_checkpoint
from vcgen.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from vcgen.config import PRESET_MODELS, RunConfig, leaf_fields, to_dict
from vcgen.data import load_candidates_jsonl, save_jsonl, score_dataset
from vcgen.model import MAX_PARAMS, Model, ModelConfig
from vcgen.optim import AdamW
from vcgen.synthetic import full_corpus_lines, make_candidate_rows, make_vcg_dataset
from vcgen.tensor import Tensor
from vcgen.vocab import EOS_ID, Vocabulary, build_vocab

MODEL = {
    "d_model": 16, "n_enc_layers": 1, "n_dec_layers": 1, "n_heads": 2, "d_ffn": 16, "max_positions": 48,
    "d_visual": 16, "n_classes": 10, "n_attr": 8, "n_rel": 6, "dropout_rate": 0.0,
}

# One value of each JSON type, non-finite numbers, a NUL and a lone surrogate
# among them. The integers are small: a config may ask for any number of
# epochs. Huge model sizes get a fuzz test of their own.
JSON_VALUES = [None, True, False, 0, 1, 2, -1, 0.5, float("nan"), float("inf"), float("-inf"),
               "", "x", "a\x00b", "\ud800", [], [1], {}, {"a": 1}]
# Fields of a data row hold no sizes, so they also get huge integers.
ROW_VALUES = JSON_VALUES + [10**30, -(10**30), 10**400]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A vocabulary, a 4-example training file, a 3-row decode file, 3 filter
    candidates, a random 16-wide checkpoint and a pretrain config over them."""
    root = tmp_path_factory.mktemp("contract")
    vocab = build_vocab(full_corpus_lines())
    vocab.save(root / "vocab.txt")
    save_jsonl(root / "kcg.jsonl", make_vcg_dataset(4, seed=1))
    save_jsonl(root / "decode.jsonl", make_vcg_dataset(3, seed=2))
    write_rows(root / "candidates.jsonl", make_candidate_rows(3, seed=3))
    config = ModelConfig(**MODEL, vocab_size=len(vocab))
    model = Model.init_random(config, 0)
    save_checkpoint(root / "model.kmbt", to_dict(RunConfig(model=config)), model.params)
    params = dict(model.params)
    params["lm_head.bias"] = params["lm_head.bias"].data.copy()
    params["lm_head.bias"][EOS_ID] = -1e4  # greedy rows then run to their length cap
    save_checkpoint(root / "no_end.kmbt", to_dict(RunConfig(model=config)), params)
    config_doc = {
        "model": MODEL,
        "schedule": {"epochs": 1, "batch_size": 4, "seed": 0},
        "tasks": ["kcg"],
        "paths": {"vocab": str(root / "vocab.txt"), "kcg_data": str(root / "kcg.jsonl"), "out_dir": "run"},
    }
    (root / "config.json").write_text(json.dumps(config_doc), encoding="utf-8")
    return root


@contextlib.contextmanager
def cwd(path: str):
    """Run the block in ``path`` (``contextlib.chdir`` needs Python 3.11)."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def write_rows(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _not_json(constant: str):
    raise AssertionError(f"vcgen wrote {constant}, which is not JSON")


def assert_strict_json(path: Path) -> None:
    """A JSON or JSONL file, or a checkpoint's config block, parses with
    NaN and Infinity rejected."""
    blob = path.read_bytes()
    if path.suffix == ".kmbt":
        (header_len,) = struct.unpack_from("<Q", blob, 8)
        documents = [blob[16 : 16 + header_len]]
    elif path.suffix == ".jsonl":
        documents = blob.splitlines()
    elif path.suffix == ".json":
        documents = [blob]
    else:
        return
    for document in documents:
        json.loads(document, parse_constant=_not_json)


def run(argv: list[str]) -> tuple[int, str]:
    """What ``main`` returns, or the code of the SystemExit(1) it raises, and
    what it writes to stderr; any other exception propagates and fails the
    test. Every JSON file, JSONL file and checkpoint that ``main`` writes
    must hold strict JSON: the outputs ``vcgen.files`` moves into place and
    the train log, which streams in place. A command that exits 0 has
    written at least one of them, except ``inspect-checkpoint``."""
    err = io.StringIO()
    written: list[Path] = []
    path_open, replace = Path.open, os.replace

    def recording_open(self, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(self)
        return path_open(self, mode, *args, **kwargs)

    def recording_replace(src, dst):
        replace(src, dst)
        written.append(Path(dst))

    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                mock.patch.object(Path, "open", recording_open), mock.patch.object(os, "replace", recording_replace):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE, argv
        code = exc.code
    if code == EXIT_OK and argv[0] != "inspect-checkpoint":
        assert written, f"{argv[0]} exited 0 and wrote no file"
    for path in written:
        if path.is_file():
            assert_strict_json(path)
    return code, err.getvalue()


def error_line(err: str) -> str:
    """The one line of an exit-2 message."""
    [line] = err.splitlines()
    assert line.startswith("error: "), line
    return line


def filter_argv(ws: Path, out: Path, candidates=None, checkpoint=None) -> list[str]:
    return [
        "filter",
        "--checkpoint", str(checkpoint or ws / "model.kmbt"),
        "--vocab", str(ws / "vocab.txt"),
        "--candidates", str(candidates or ws / "candidates.jsonl"),
        "--out-kept", str(out / "kept.jsonl"),
        "--out-dropped", str(out / "dropped.jsonl"),
        "--report", str(out / "report.json"),
    ]


def generate_argv(ws: Path, out: Path, dataset=None, checkpoint=None, extra=()) -> list[str]:
    return [
        "generate",
        "--checkpoint", str(checkpoint or ws / "model.kmbt"),
        "--vocab", str(ws / "vocab.txt"),
        "--dataset", str(dataset or ws / "decode.jsonl"),
        "--out", str(out),
        "--max-len", "4",
        *extra,
    ]


# ---------------------------------------------------------------------------
# the cases the contract names


@pytest.mark.parametrize("top", ["[]", "3", '"x"', "null"])
def test_config_whose_top_level_is_no_object_exits_2_naming_the_file(tmp_path, top):
    path = tmp_path / "c.json"
    path.write_text(top, encoding="utf-8")
    code, err = run(["pretrain", "--config", str(path)])
    assert code == EXIT_DATA
    assert str(path) in error_line(err) and "must be a JSON object" in err


def test_config_with_a_syntax_error_exits_2_naming_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"model": {"d_model": 16}\n"tasks": ["kcg"]}', encoding="utf-8")
    code, err = run(["pretrain", "--config", str(path)])
    assert code == EXIT_DATA
    assert str(path) in error_line(err) and "delimiter" in err


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the interpreter's recursion limit


@pytest.mark.parametrize("where", ["config", "candidates", "checkpoint"])
def test_json_nested_too_deeply_exits_2(ws, tmp_path, where):
    path = tmp_path / "deep"
    if where == "checkpoint":
        blob = (ws / "model.kmbt").read_bytes()
        (old_len,) = struct.unpack_from("<Q", blob, 8)
        path.write_bytes(blob[:8] + struct.pack("<Q", len(DEEP)) + DEEP.encode() + blob[16 + old_len:])
        argv = ["inspect-checkpoint", str(path)]
    else:
        path.write_text(DEEP + "\n", encoding="utf-8")
        argv = ["pretrain", "--config", str(path)] if where == "config" else filter_argv(ws, tmp_path, candidates=path)
    code, err = run(argv)
    assert code == EXIT_DATA
    line = error_line(err)
    assert str(path) in line
    if where == "candidates":
        assert line == f"error: {path}: line 1: JSON nested too deeply"


def test_out_dir_that_is_a_file_exits_2(ws, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, err = run(["pretrain", "--config", str(ws / "config.json"), "--out-dir", str(taken)])
    assert code == EXIT_DATA
    assert str(taken) in error_line(err)


def test_generate_out_below_a_file_exits_2(ws, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code, err = run(generate_argv(ws, taken / "x.jsonl"))
    assert code == EXIT_DATA
    assert str(taken) in error_line(err)


def test_region_width_that_disagrees_with_the_checkpoint_exits_2(ws, tmp_path):
    """8-wide region features against the checkpoint's d_visual of 16: both
    inference commands name the file and the example and write nothing."""
    narrow = tmp_path / "narrow.jsonl"
    write_rows(narrow, make_candidate_rows(3, seed=3, d_visual=8))
    out = tmp_path / "out"
    out.mkdir()
    code, err = run(filter_argv(ws, out, candidates=narrow))
    assert code == EXIT_DATA
    line = error_line(err)
    assert str(narrow) in line and "'cand-00000'" in line and "d_visual is 16" in line
    assert list(out.iterdir()) == []

    save_jsonl(narrow, make_vcg_dataset(3, seed=2, d_visual=8))
    code, err = run(generate_argv(ws, out / "gen.jsonl", dataset=narrow))
    assert code == EXIT_DATA
    line = error_line(err)
    assert str(narrow) in line and "'vcg-00000'" in line and "d_visual is 16" in line
    assert list(out.iterdir()) == []


def _nan_checkpoint(ws: Path, path: Path) -> Path:
    """The checkpoint of ``ws`` with one NaN in ``lm_head.bias``."""
    from vcgen.checkpoint import load_checkpoint

    ckpt = load_checkpoint(ws / "model.kmbt")
    ckpt.params["lm_head.bias"][5] = np.nan
    save_checkpoint(path, ckpt.config, ckpt.params)
    return path


@pytest.mark.parametrize("command", ["filter", "nucleus", "inspect-checkpoint"])
def test_non_finite_parameter_exits_2_naming_the_tensor(ws, tmp_path, command):
    bad = _nan_checkpoint(ws, tmp_path / "nan.kmbt")
    out = tmp_path / "out"
    out.mkdir()
    if command == "filter":
        argv = filter_argv(ws, out, checkpoint=bad)
    elif command == "nucleus":
        argv = generate_argv(ws, out / "gen.jsonl", checkpoint=bad, extra=("--mode", "nucleus"))
    else:
        argv = ["inspect-checkpoint", str(bad)]
    code, err = run(argv)
    assert code == EXIT_DATA
    assert error_line(err) == f"error: {bad}: tensor 'lm_head.bias' holds a non-finite value"
    assert list(out.iterdir()) == []


def _huge_weight_checkpoint(ws: Path, path: Path) -> Path:
    """The checkpoint of ``ws`` with one finite but huge cross-attention weight."""
    from vcgen.checkpoint import load_checkpoint

    ckpt = load_checkpoint(ws / "model.kmbt")
    ckpt.params["dec.0.cross_attn.v.weight"][0, 0] = 3e38
    save_checkpoint(path, ckpt.config, ckpt.params)
    return path


# The 3e38-weight case overflows the forward to inf on purpose; the warnings are its expected path.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", ["feature", "weight"])
def test_non_finite_score_exits_2_naming_the_candidate(ws, tmp_path, case):
    """A region feature of 1e300, finite in float64 but not in the model's
    float32, is refused as the candidates are read, naming the file, line,
    roi and field. A checkpoint with one 3e38 weight makes a candidate
    score a non-finite avg_ce: filter names the line and source_id. Either
    way filter opens no output file."""
    candidates, checkpoint, line_no = ws / "candidates.jsonl", ws / "model.kmbt", 1
    if case == "feature":
        rows = [json.loads(text) for text in candidates.read_text(encoding="utf-8").splitlines()]
        rows[1]["rois"][0]["feat"][0] = 1e300
        candidates, line_no = tmp_path / "huge.jsonl", 2
        write_rows(candidates, rows)
    else:
        checkpoint = _huge_weight_checkpoint(ws, tmp_path / "huge.kmbt")
    source_id = json.loads(candidates.read_text(encoding="utf-8").splitlines()[line_no - 1])["source_id"]
    out = tmp_path / "out"
    out.mkdir()
    code, err = run(filter_argv(ws, out, candidates=candidates, checkpoint=checkpoint))
    assert code == EXIT_DATA
    line = error_line(err)
    if case == "feature":
        assert line == f"error: {candidates}: line 2: roi 0 field 'feat' must hold numbers finite in float32"
    else:
        assert line.startswith(f"error: {candidates}: line {line_no}: candidate {source_id!r} scores avg_ce ")
        assert line.endswith("not a finite number")
    assert list(out.iterdir()) == []


def test_region_value_whose_square_overflows_float32_is_scored_from_its_content(ws, tmp_path):
    """A region value of 1e21 is finite in float32, but its square is not.
    filter scores every candidate within float32 rounding (about 1e-7) of
    the same model in float64, where nothing overflows. A layer norm that
    turns the region's row into its bias moves that score by 5e-5."""
    rows = [json.loads(text) for text in (ws / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[1]["rois"][0]["feat"][0] = 1e21
    candidates = tmp_path / "huge.jsonl"
    write_rows(candidates, rows)
    code, _ = run(filter_argv(ws, tmp_path, candidates=candidates))
    assert code == EXIT_OK
    scores = {row["source_id"]: row["avg_ce"] for name in ("kept.jsonl", "dropped.jsonl")
              for row in map(json.loads, (tmp_path / name).read_text(encoding="utf-8").splitlines())}
    ckpt = load_checkpoint(ws / "model.kmbt")
    wide = Model(ckpt.model_config(), {name: Tensor(data.astype(np.float64)) for name, data in ckpt.params.items()})
    examples = [example for _, _, example in load_candidates_jsonl(candidates)]
    oracle = score_dataset(wide, Vocabulary.load(ws / "vocab.txt"), examples)
    assert [scores[s.example.source_id] for s in oracle] == pytest.approx([s.avg_ce for s in oracle], rel=2e-6)


# The 3e38-weight case overflows the forward to inf on purpose; the warnings are its expected path.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", ["greedy", "nucleus"])
@pytest.mark.parametrize("case", ["feature", "weight"])
def test_non_finite_logit_exits_2_naming_the_example(ws, tmp_path, case, mode):
    """A region feature of 1e300 in the second example is refused as the
    dataset is read, naming the file, line, roi and field. A checkpoint with
    one 3e38 weight gives every example a decoding step whose logits are not
    all finite: generate names the example. Either way generate opens no
    output file."""
    dataset, checkpoint = ws / "decode.jsonl", ws / "model.kmbt"
    rows = [json.loads(text) for text in dataset.read_text(encoding="utf-8").splitlines()]
    if case == "feature":
        rows[1]["rois"][0]["feat"][0] = 1e300
        dataset = tmp_path / "huge.jsonl"
        write_rows(dataset, rows)
        named = [rows[1]["source_id"]]
    else:
        checkpoint = _huge_weight_checkpoint(ws, tmp_path / "huge.kmbt")
        named = [row["source_id"] for row in rows]
    out = tmp_path / "out"
    out.mkdir()
    argv = generate_argv(ws, out / "gen.jsonl", dataset=dataset, checkpoint=checkpoint, extra=("--mode", mode))
    code, err = run(argv)
    assert code == EXIT_DATA
    line = error_line(err)
    if case == "feature":
        assert line == f"error: {dataset}: line 2: roi 0 field 'feat' must hold numbers finite in float32"
    else:
        assert line in [f"error: example {source_id!r} gets a non-finite logit at decoding step 1"
                        for source_id in named]
    assert list(out.iterdir()) == []


def test_region_feature_beyond_float32_exits_2_before_training(ws, tmp_path):
    """A training row with a region feature of 1e300 stops pretrain at read
    time, naming the file, line, roi and field, not as a diverged run."""
    rows = [json.loads(text) for text in (ws / "kcg.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[1]["rois"][0]["feat"][0] = 1e300
    write_rows(tmp_path / "huge.jsonl", rows)
    config = json.loads((ws / "config.json").read_text(encoding="utf-8"))
    config["paths"]["kcg_data"] = str(tmp_path / "huge.jsonl")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    with cwd(tmp_path):
        code, err = run(["pretrain", "--config", str(tmp_path / "config.json")])
    assert code == EXIT_DATA
    assert error_line(err) == (
        f"error: {tmp_path / 'huge.jsonl'}: line 2: roi 0 field 'feat' must hold numbers finite in float32"
    )


@pytest.mark.parametrize("name", ["feat", "class_probs"])
@pytest.mark.parametrize("spelling", ["strings", "bools"])
def test_region_values_that_are_not_json_numbers_exit_2(ws, tmp_path, name, spelling):
    """Region values spelt as JSON strings ("1", "2e0") or as booleans are
    not numbers, though numpy would convert both: filter refuses the row as
    it reads it, naming the file, line, roi and field, and opens no output
    file. The strings keep each value and the booleans are one-hot, so the
    row would otherwise pass every other region check."""
    rows = [json.loads(text) for text in (ws / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
    values = rows[1]["rois"][0][name]
    if spelling == "strings":
        rows[1]["rois"][0][name] = [repr(float(v)) for v in values]
    else:
        rows[1]["rois"][0][name] = [i == 0 for i in range(len(values))]
    candidates = tmp_path / "spelt.jsonl"
    write_rows(candidates, rows)
    out = tmp_path / "out"
    out.mkdir()
    code, err = run(filter_argv(ws, out, candidates=candidates))
    assert code == EXIT_DATA
    assert error_line(err) == f"error: {candidates}: line 2: roi 0 field {name!r} must be a list of numbers"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("mode", ["greedy", "nucleus"])
def test_negative_seed_exits_2_naming_the_seed(ws, tmp_path, mode):
    code, err = run(generate_argv(ws, tmp_path / "gen.jsonl", extra=("--mode", mode, "--seed", "-1")))
    assert code == EXIT_DATA
    assert error_line(err) == "error: seed must be >= 0, got -1"
    assert list(tmp_path.iterdir()) == []


# lr 1e30 overflows the parameters and the next forward on purpose; the warnings are its expected path.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_diverging_training_exits_2_naming_the_step_and_the_learning_rate(ws, tmp_path):
    """At optimizer.lr 1e30 the first step is finite and the second step's
    gradient is not: pretrain names the epoch, the step, the parameter and
    the learning rate, and keeps the log line it wrote."""
    argv = ["pretrain", "--config", str(ws / "config.json"), "--optimizer.lr", "1e30", "--schedule.batch_size", "2"]
    with cwd(tmp_path):
        code, err = run(argv)
    assert code == EXIT_DATA
    assert error_line(err) == (
        "error: epoch 0, step 2: non-finite gradient for parameter 'tok_emb.weight'; "
        "training diverged at optimizer.lr 1e+30"
    )
    log = (tmp_path / "run" / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["step"] for line in log] == [1]


def test_gradient_whose_square_overflows_exits_2_as_a_diverged_run(ws, tmp_path, monkeypatch):
    """Every gradient entry 1e21: finite in float32, but not its square.
    The training step maps AdamW's refusal to the diverged-run error, naming
    the step and the learning rate, before any log line is written."""
    step = AdamW.step

    def huge_gradients(self):
        for p in self.params.values():
            if p.grad is not None:
                p.grad = np.full_like(p.grad, 1e21)
        step(self)

    monkeypatch.setattr(AdamW, "step", huge_gradients)
    with cwd(tmp_path):
        code, err = run(["pretrain", "--config", str(ws / "config.json")])
    assert code == EXIT_DATA
    assert error_line(err) == (
        "error: epoch 0, step 1: gradient whose square overflows for parameter 'tok_emb.weight'; "
        f"training diverged at optimizer.lr {RunConfig().optimizer.lr}"
    )
    assert (tmp_path / "run" / "train_log.jsonl").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("threshold", ["inf", "-inf", "nan"])
def test_non_finite_threshold_exits_2_before_any_output(ws, tmp_path, threshold):
    code, err = run([*filter_argv(ws, tmp_path), f"--threshold={threshold}"])
    assert code == EXIT_DATA
    assert error_line(err) == f"error: --threshold must be a finite number, got {float(threshold)}"
    assert list(tmp_path.iterdir()) == []


def test_config_that_asks_for_too_many_parameters_exits_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"d_model": 4611686018427387904}}), encoding="utf-8")
    code, err = run(["pretrain", "--config", str(path)])
    assert code == EXIT_DATA
    count = ModelConfig(**{**PRESET_MODELS["desk"], "d_model": 4611686018427387904}).param_count()
    assert error_line(err).endswith(f"would hold {count} parameters, more than the limit of {MAX_PARAMS}")


def _claiming(ws: Path, path: Path, **sizes) -> Path:
    """The checkpoint of ``ws`` whose config block claims other model sizes."""
    blob = (ws / "model.kmbt").read_bytes()
    (old_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + old_len])
    header["run_config"]["model"].update(sizes)
    block = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(block)) + block + blob[16 + old_len :])
    return path


@pytest.mark.parametrize("field", ["d_model", "n_enc_layers", "vocab_size"])
def test_checkpoint_that_claims_too_many_parameters_exits_2_before_reading_arrays(ws, tmp_path, field):
    claimed = _claiming(ws, tmp_path / "huge.kmbt", **{field: 4611686018427387904})
    with mock.patch("vcgen.checkpoint.check_param_shapes", side_effect=AssertionError("shape map built")), \
            mock.patch.object(np, "frombuffer", side_effect=AssertionError("array built")):
        code, err = run(["inspect-checkpoint", str(claimed)])
    assert code == EXIT_DATA
    line = error_line(err)
    assert line.startswith(f"error: {claimed}: model section: the model would hold ")
    assert line.endswith(f"parameters, more than the limit of {MAX_PARAMS}")


@pytest.mark.parametrize("max_len, decoded", [(500, 47), (47, 47), (8, 8)])
def test_generate_header_records_the_length_decoded(ws, tmp_path, max_len, decoded):
    """A 48-position model decodes at most 47 tokens after <s>; the header
    says so, and with </s> out of reach every row has that many words."""
    out = tmp_path / "gen.jsonl"
    argv = generate_argv(ws, out, checkpoint=ws / "no_end.kmbt")
    argv[argv.index("--max-len") + 1] = str(max_len)
    assert run(argv)[0] == EXIT_OK
    header, *rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert header["max_len"] == decoded
    assert [len(g.split()) for row in rows for g in row["generations"]] == [decoded] * len(rows)


@pytest.mark.parametrize("error", [KeyError, ValueError])
@pytest.mark.parametrize("command", ["filter", "generate"])
def test_a_bug_propagates_with_its_traceback(ws, tmp_path, monkeypatch, error, command):
    """An error that is no InputError or OSError is not bad input, whatever
    its type: main does not turn it into exit 2."""

    def broken(*args, **kwargs):
        raise error("a bug inside the model")

    monkeypatch.setattr(Model, "lm_head", broken)
    argv = filter_argv(ws, tmp_path) if command == "filter" else generate_argv(ws, tmp_path / "gen.jsonl")
    with pytest.raises(error, match="a bug inside the model"):
        main(argv)


# ---------------------------------------------------------------------------
# fuzzing


LEAVES = [dotted for dotted, _ in leaf_fields()] + ["tasks"]
SECTIONS = ["model", "optimizer", "schedule", "loss_weights", "paths"]


def _mutated_config(base: dict, where: str, key: str, value) -> object:
    if where == "top":
        return value
    doc = copy.deepcopy(base)
    if where == "section":
        doc[key] = value
    elif "." in key:
        section, name = key.split(".")
        doc.setdefault(section, {})[name] = value
    else:
        doc[key] = value
    return doc


@settings(max_examples=80, deadline=None)
@given(
    mutation=st.one_of(
        st.tuples(st.just("top"), st.just(""), st.sampled_from(JSON_VALUES)),
        st.tuples(st.just("section"), st.sampled_from(SECTIONS), st.sampled_from(JSON_VALUES)),
        st.tuples(st.just("leaf"), st.sampled_from(LEAVES), st.sampled_from(JSON_VALUES)),
    )
)
def test_fuzzed_config_documents_exit_0_or_2(ws, mutation):
    """A config with a non-object top level, a section of another type or
    one leaf of any JSON type, non-finite numbers included. Relative output
    paths land in a fresh directory."""
    base = json.loads((ws / "config.json").read_text(encoding="utf-8"))
    doc = _mutated_config(base, *mutation)
    with tempfile.TemporaryDirectory() as tmp, cwd(tmp):
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity as Python writes them
        assert run(["pretrain", "--config", str(path)])[0] in (EXIT_OK, EXIT_DATA)


MODEL_SIZES = [dotted for dotted, kind in leaf_fields() if dotted.startswith("model.") and kind is int]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.dictionaries(st.sampled_from(MODEL_SIZES), st.integers(2**28, 2**62), min_size=1),
    command=st.sampled_from(["pretrain", "inspect-checkpoint"]),
)
def test_model_sizes_up_to_2_62_exit_2_in_a_few_mb(ws, sizes, command):
    """Every model size in a config or a checkpoint header is bounded
    before anything grows with it: sizes of 2**28 and more ask for over
    2**31 parameters on the 16-wide model, and exit 2 within 4 MB."""
    with tempfile.TemporaryDirectory() as tmp, cwd(tmp):
        if command == "pretrain":
            base = json.loads((ws / "config.json").read_text(encoding="utf-8"))
            base["model"].update({dotted.split(".")[1]: value for dotted, value in sizes.items()})
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(base), encoding="utf-8")
            argv = ["pretrain", "--config", str(path)]
        else:
            path = _claiming(ws, Path(tmp) / "c.kmbt", **{dotted.split(".")[1]: v for dotted, v in sizes.items()})
            argv = ["inspect-checkpoint", str(path)]
        tracemalloc.start()
        try:
            code, _ = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == EXIT_DATA
    assert peak < 4 << 20, peak


TYPED_LEAVES = {dotted: kind for dotted, kind in leaf_fields() if kind is not str and dotted != "use_event"}


def _parses(raw: str, kind: type) -> bool:
    if kind is bool:
        return raw.lower() in ("true", "1", "yes", "false", "0", "no")
    try:
        kind(raw)
    except ValueError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_unparsable_dotted_flag_values_exit_2_naming_the_flag(ws, data):
    """Values that do not parse as the leaf's type; no argv holds NUL."""
    flag = data.draw(st.sampled_from(sorted(TYPED_LEAVES)))
    raw = data.draw(
        st.text(st.characters(exclude_characters="\x00"), max_size=8).filter(
            lambda raw: not _parses(raw, TYPED_LEAVES[flag])
        )
    )
    code, err = run(["pretrain", "--config", str(ws / "config.json"), f"--{flag}={raw}"])
    assert code == EXIT_DATA
    assert error_line(err).startswith(f"error: --{flag} expects ")


ROW_FIELDS = [
    (), ("relation",), ("event",), ("target",), ("source_id",), ("task",), ("rois",), ("attributes",),
    ("relations",), ("rois", 0), ("rois", 0, "feat"), ("rois", 0, "class_probs"), ("rois", 0, "feat", 0),
    ("rois", 0, "class_probs", 0), ("attributes", 0), ("relations", 0),
]


def _swapped(row: dict, field: tuple, value):
    if not field:
        return value
    row = copy.deepcopy(row)
    target = row
    for key in field[:-1]:
        target = target[key]
    if isinstance(target, list) and field[-1] >= len(target):
        target.append(value)
    else:
        target[field[-1]] = value
    return row


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(ROW_FIELDS), value=st.sampled_from(ROW_VALUES), line=st.integers(0, 2))
def test_fuzzed_candidate_rows_exit_0_or_2(ws, field, value, line):
    """One field of one candidate row swapped to a value of any JSON type."""
    rows = [json.loads(text) for text in (ws / "candidates.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[0]["attributes"] = [[0, 1]]
    rows[0]["relations"] = []
    rows[line] = _swapped(rows[line], field, value)
    with tempfile.TemporaryDirectory() as tmp:
        candidates = Path(tmp) / "c.jsonl"
        write_rows(candidates, rows)
        assert run(filter_argv(ws, Path(tmp), candidates=candidates))[0] in (EXIT_OK, EXIT_DATA)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_invalid_utf8_in_a_row_exits_2_naming_the_line(ws, data):
    blob = (ws / "candidates.jsonl").read_bytes()
    at = data.draw(st.integers(0, len(blob)))
    bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80"]))
    with tempfile.TemporaryDirectory() as tmp:
        candidates = Path(tmp) / "c.jsonl"
        candidates.write_bytes(blob[:at] + bad + blob[at:])
        code, err = run(filter_argv(ws, Path(tmp), candidates=candidates))
        assert list(Path(tmp).iterdir()) == [candidates]
    assert code == EXIT_DATA
    line_no = blob[:at].count(b"\n") + 1
    assert error_line(err).startswith(f"error: {candidates}: line {line_no}: not UTF-8")


def _first_tensor_data_offset(blob: bytes) -> int:
    """Where the first tensor's values start: past the magic, version, config
    block, tensor count and the first tensor's name and shape."""
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    pos = 16 + header_len + 4
    (name_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4 + name_len
    (ndim,) = struct.unpack_from("<I", blob, pos)
    return pos + 4 + 4 * ndim


def test_checkpoint_cut_at_every_header_offset_exits_2(ws, tmp_path):
    blob = (ws / "model.kmbt").read_bytes()
    cut = tmp_path / "cut.kmbt"
    for size in range(_first_tensor_data_offset(blob) + 1):
        cut.write_bytes(blob[:size])
        code, err = run(["inspect-checkpoint", str(cut)])
        assert code == EXIT_DATA, size
        assert error_line(err).startswith(f"error: {cut}: "), size


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_checkpoint_cut_anywhere_exits_2(ws, data):
    blob = (ws / "model.kmbt").read_bytes()
    size = data.draw(st.integers(0, len(blob) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        cut = Path(tmp) / "cut.kmbt"
        cut.write_bytes(blob[:size])
        code, err = run(["inspect-checkpoint", str(cut)])
    assert code == EXIT_DATA
    assert error_line(err).startswith(f"error: {cut}: ")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkpoint_bit_flips_exit_0_or_2(ws, data):
    """A flipped bit anywhere; one in the config block or the tensor headers
    is drawn as often as one in the values. A checkpoint that still loads
    decodes."""
    blob = bytearray((ws / "model.kmbt").read_bytes())
    header_end = _first_tensor_data_offset(bytes(blob))
    at = data.draw(st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1)))
    blob[at] ^= 1 << data.draw(st.integers(0, 7))
    with tempfile.TemporaryDirectory() as tmp:
        flipped = Path(tmp) / "flipped.kmbt"
        flipped.write_bytes(bytes(blob))
        assert run(generate_argv(ws, Path(tmp) / "gen.jsonl", checkpoint=flipped))[0] in (EXIT_OK, EXIT_DATA)
