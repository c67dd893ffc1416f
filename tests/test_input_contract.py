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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcgen.checkpoint import save_checkpoint
from vcgen.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from vcgen.config import RunConfig, leaf_fields, to_dict
from vcgen.data import save_jsonl
from vcgen.model import Model, ModelConfig
from vcgen.synthetic import full_corpus_lines, make_candidate_rows, make_vcg_dataset
from vcgen.vocab import EOS_ID, build_vocab

MODEL = {
    "d_model": 16, "n_enc_layers": 1, "n_dec_layers": 1, "n_heads": 2, "d_ffn": 16, "max_positions": 48,
    "d_visual": 16, "n_classes": 10, "n_attr": 8, "n_rel": 6, "dropout_rate": 0.0,
}

# One value of each JSON type, non-finite numbers, a NUL and a lone surrogate
# among them. The integers are small: a config may ask for any number of
# epochs or any model width.
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


def run(argv: list[str]) -> tuple[int, str]:
    """What ``main`` returns, or the code of the SystemExit(1) it raises, and
    what it writes to stderr; any other exception propagates and fails the
    test."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE, argv
        code = exc.code
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
    assert "line 1: JSON nested too deeply" in line if where == "candidates" else str(path) in line


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
    assert error_line(err).startswith(f"error: line {line_no}: not UTF-8")


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
