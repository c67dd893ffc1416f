"""In-memory spans for the traced benchmark run.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``info`` is an optional value a probe
computes from the call (a task name, a tape length, a row count). Spans stay
in memory while the run measures and are written once when it ends.

Probes are installed by replacing a function where the program looks it up
(a module global such as ``vcgen.train.compute_losses``, or a class attribute
such as ``Model.decode_ids``). A target that no longer exists is recorded as
missing instead of raising, so refactors of the program never crash the
benchmark; metrics that need a missing probe are left out of the result.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence

_ABSENT = object()


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner: object, attr: str, name: str, info: Callable | None = None) -> bool:
        """Replace ``owner.attr`` with a version that records a span ``name``.

        ``info(args, kwargs, result)`` may attach a value to the span. Returns
        False, and records the target as missing, if ``owner`` has no
        callable ``attr``.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                try:
                    self.spans[idx][4] = info(args, kwargs, result)
                except Exception:  # a changed signature leaves the info unset, so its metric is absent
                    pass
            return result

        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, traced)
        return True

    def install(self, name: str, targets: Sequence[str], info: Callable | None = None) -> bool:
        """Wrap every ``"module:attr"`` or ``"module:Class.attr"`` target.

        The probe counts as installed only if every target was found, so a
        metric never silently covers part of the calls it describes.
        """
        ok = True
        for target in targets:
            module_name, _, path = target.partition(":")
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(target)
                ok = False
                continue
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(target)
                ok = False
                continue
            ok = self.wrap(owner, attr, name, info) and ok
        return ok

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with Path(path).open("w", encoding="utf-8") as fh:
            for (name, start, end, parent, info), own in zip(self.spans, selfs):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "self": own, "info": info}) + "\n")


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end]
        out.append((end - start) - _union_length(clipped))
    return out
