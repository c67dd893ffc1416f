"""The writer contract of ``vcgen.files``: an output is replaced whole only
when its writer completes, so a failure before the rename (``os.replace``
raising, or an exception inside the block) leaves the previous file
byte-identical, or no file, and no ``.<name>.tmp`` beside it. A symlinked
target is written through; a target that is not a regular file (a FIFO) is
written in place."""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from vcgen import cli
from vcgen.checkpoint import load_checkpoint, save_checkpoint
from vcgen.config import RunConfig, to_dict
from vcgen.data import example_to_dict, save_jsonl
from vcgen.files import json_text, output_file, write_jsonl
from vcgen.model import Model
from vcgen.synthetic import make_vcg_dataset

from helpers import tiny_config, tiny_vocab


# Each writer takes the target and a step, prepares its inputs, and returns
# the call that writes the target, so a failure patched in hits that write.
def _checkpoint(path: Path, step: int):
    config = tiny_config(len(tiny_vocab()))
    params = Model.init_random(config, step).params
    return lambda: save_checkpoint(path, to_dict(RunConfig(model=config)), params, global_step=step)


def _jsonl(path: Path, step: int):
    examples = make_vcg_dataset(2 + step, seed=step)
    return lambda: save_jsonl(path, examples)


def _evaluate_report(path: Path, step: int):
    """``vcgen evaluate --out``: an indented JSON report."""
    references = path.parent / f"refs{step}.jsonl"
    examples = make_vcg_dataset(3, seed=step)
    save_jsonl(references, examples)
    generations = path.parent / f"gens{step}.jsonl"
    write_jsonl(generations, [{"source_id": ex.source_id, "task": ex.task.value, "generations": [ex.target_text]}
                              for ex in examples])
    argv = ["evaluate", "--generations", str(generations), "--references", str(references), "--out", str(path)]

    def write() -> None:
        if cli.main(argv) != cli.EXIT_OK:
            raise OSError("evaluate failed")

    return write


WRITERS = {"checkpoint.kmbt": _checkpoint, "rows.jsonl": _jsonl, "report.json": _evaluate_report}


def _failing_replace(src, dst):
    raise OSError("the rename failed")


@pytest.mark.parametrize("name", WRITERS)
@pytest.mark.parametrize("previous", [True, False])
def test_a_failed_rename_keeps_the_previous_file(tmp_path, monkeypatch, name, previous):
    target = tmp_path / name
    if previous:
        WRITERS[name](target, 0)()
        before = target.read_bytes()
    write = WRITERS[name](target, 1)
    others = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError):
        write()
    monkeypatch.undo()
    if previous:
        assert target.read_bytes() == before
    else:
        assert not target.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == others


def test_the_previous_checkpoint_still_loads_after_a_failed_rename(tmp_path, monkeypatch):
    target = tmp_path / "final.kmbt"
    _checkpoint(target, 3)()
    write = _checkpoint(target, 4)
    monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError):
        write()
    monkeypatch.undo()
    assert load_checkpoint(target).global_step == 3


def test_an_error_inside_the_block_keeps_the_previous_file(tmp_path):
    """A NaN record halfway through a JSONL file: nothing of it lands."""
    target = tmp_path / "rows.jsonl"
    _jsonl(target, 0)()
    before = target.read_bytes()
    rows = [example_to_dict(ex) for ex in make_vcg_dataset(4, seed=9)]
    rows[2]["avg_ce"] = float("nan")
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        write_jsonl(target, rows)
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


def test_an_error_inside_the_block_leaves_no_new_file(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(KeyboardInterrupt):
        with output_file(target) as fh:
            fh.write("{")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_text_is_utf8_with_lf_and_json_is_strict(tmp_path):
    target = tmp_path / "out.json"
    with output_file(target) as fh:
        fh.write(json_text({"word": "café"}, indent=1) + "\n")
    assert target.read_bytes() == b'{\n "word": "caf\\u00e9"\n}\n'
    with output_file(target) as fh:
        fh.write("a\nbé\n")
    assert target.read_bytes() == "a\nbé\n".encode("utf-8")
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            json_text([value])


def test_a_symlinked_target_is_written_through_and_stays_a_link(tmp_path):
    real = tmp_path / "real" / "vocab.txt"
    real.parent.mkdir()
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    tiny_vocab().save(link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text(encoding="utf-8") == link.read_text(encoding="utf-8") != "old\n"
    assert sorted(p.name for p in real.parent.iterdir()) == ["vocab.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real"]


def test_a_fifo_is_written_in_place(tmp_path):
    """A target that is not a regular file (a FIFO, /dev/stdout) is opened
    and written as it is: no temp file beside it, no rename over it."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received: list[bytes] = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_jsonl(fifo, [{"a": 1}, {"b": [2, 3]}])
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b'{"a": 1}\n{"b": [2, 3]}\n']
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]
    assert fifo.is_fifo()


def test_a_missing_directory_is_reported_by_the_path_given(tmp_path, monkeypatch, capsys):
    """The error names the output the caller asked for, not the temp."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("walk to the park\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["build-vocab", "--input", str(corpus), "--out", "nodir/vocab.txt"]) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [
        "error: [Errno 2] No such file or directory: 'nodir/vocab.txt'"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o755])
def test_a_replaced_file_keeps_its_permission_bits(tmp_path, mode):
    target = tmp_path / "report.json"
    write_jsonl(target, [{"a": 1}])
    target.chmod(mode)
    write_jsonl(target, [{"a": 2}])
    assert target.read_text(encoding="utf-8") == '{"a": 2}\n'
    assert target.stat().st_mode & 0o7777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


def test_a_hard_link_keeps_the_old_bytes(tmp_path):
    """The target is replaced, not rewritten: another name for the old
    file still reads the old bytes."""
    target, other = tmp_path / "rows.jsonl", tmp_path / "other.jsonl"
    write_jsonl(target, [{"a": 1}])
    os.link(target, other)
    write_jsonl(target, [{"a": 2}])
    assert target.read_text(encoding="utf-8") == '{"a": 2}\n'
    assert other.read_text(encoding="utf-8") == '{"a": 1}\n'
