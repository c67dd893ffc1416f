"""The one writer of vcgen's files: strict JSON (RFC 8259 has no NaN or
infinity), UTF-8 text with LF line ends, and a file replaced whole only
once its writer completes."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path
from typing import Iterable


def json_text(obj, **kw) -> str:
    """``json.dumps`` that raises ValueError on a non-finite number."""
    return json.dumps(obj, allow_nan=False, **kw)


@contextlib.contextmanager
def output_file(path: str | Path, mode: str = "w"):
    """A file opened to write ("w" text, "wb" bytes) that becomes ``path``
    when the block completes: it is ``.<name>.tmp`` beside the target
    (symlinks resolved), ``os.replace``d over it at the end and removed on
    any exception; it keeps the old file's permission bits (a hard link to
    the old file keeps the old bytes). An existing target that is not a
    regular file (a FIFO, /dev/stdout) is written in place, so no device
    node is replaced. There is no fsync: a crashed process leaves no
    partial file, a power loss may."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **text) as fh:
            yield fh
        return
    head, name = os.path.split(os.path.realpath(path))
    temp, target = os.path.join(head, f".{name}.tmp"), os.path.join(head, name)
    try:
        fh = open(temp, mode, **text)
    except OSError as exc:
        exc.filename = str(path)
        raise
    try:
        with fh:
            yield fh
        if os.path.exists(target):
            shutil.copymode(target, temp)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def write_jsonl(path: str | Path, records: Iterable) -> None:
    """One strict-JSON document per line."""
    with output_file(path) as fh:
        for record in records:
            fh.write(json_text(record) + "\n")
