"""Spans recorded from outside the program, around calls to its public API.

The traced pass swaps chosen functions and methods for wrappers that record
one span per call — name, start, end and parent span — then restores them.
Nothing inside the program is asked to time itself, so a change to the
program's own span tracer cannot move these numbers. Spans are kept in
compact in-memory columns and written out once, at the end of the pass.

Spans nest by call order on the thread that makes them; every traced
workload calls the wrapped functions from one thread.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: ``(owner, attribute or key, span name)``: a class, module or dict whose
#: member is wrapped for the duration of a traced pass.
Target = tuple[Any, str, str]


class SpanLog:
    """In-memory spans: four parallel columns plus a name table."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one span recorded around every call."""
        ident = self._name_id(name)
        clock = self._clock
        open_ = self._open
        names, starts, ends, parents = self.name, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(ident)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    # -- analysis -----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``time_s`` and ``self_s``.

        A span's self time is its duration minus the time its child spans
        cover; children of one span never overlap (one thread).
        """
        child_s = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_s[parent] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for n in self.names}
        for i, ident in enumerate(self.name):
            entry = out[self.names[ident]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["time_s"] += duration
            entry["self_s"] += duration - child_s[i]
        return out

    def durations(self, name: str) -> list[float]:
        ident = self._name_ids.get(name)
        if ident is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.name)
            if n == ident
        ]

    def write(self, path: Path) -> None:
        """Write every span out as parallel columns (``numpy.savez``)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


_MISSING = object()


@contextlib.contextmanager
def patched(log: SpanLog, targets: Iterable[Target]) -> Iterator[SpanLog]:
    """Wrap every target for the duration of the block, then restore it."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name in targets:
            if isinstance(owner, dict):
                original = owner[attr]
                restore.append((owner, attr, original))
                owner[attr] = log.wrap(name, original)
            else:
                own = vars(owner).get(attr, _MISSING)
                restore.append((owner, attr, own))
                setattr(owner, attr, log.wrap(name, getattr(owner, attr)))
        yield log
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
