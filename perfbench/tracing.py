"""In-memory spans around calls into equibound's public functions.

A wrapper is installed on each attribute at the place the library looks
the function up (a module global or a class attribute), so a call the
library makes internally is timed as well as a call the benchmark makes.
Nothing under src/ is changed; `Tracer.restore` puts every original back.

A span is [name, start, end, parent, root]; `parent` and `root` are
indices into `Tracer.spans`, -1 for a root span.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Records spans in memory; summarize them with `totals_by_root`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            root = self.spans[parent][4]
        else:
            parent = -1
            root = i
        self.spans.append([name, _clock(), 0.0, parent, root])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield i
        finally:
            self._close(i)

    def _timed(self, fn, name: str):
        open_, close = self._open, self._close

        def wrapped(*args, **kwargs):
            i = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        wrapped.__wrapped__ = fn
        return wrapped

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of `owner.attr` (a function, method or property)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement = property(self._timed(original.fget, name))
        else:
            replacement = self._timed(original, name)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals_by_root(self, root_name: str, rename=None, since: int = 0) -> list[dict]:
        """Per root span called `root_name`: {name: [inclusive s, self s, calls]}.

        Only spans from index `since` on are read.  `rename(tracer, i,
        children)` may map a span to another name, or to None to leave it
        out of the totals (its time still counts as a child of its
        parent); `children` lists the names of span i's direct children.
        """
        spans = self.spans
        child_time, child_names = self._children(since)
        out: dict[int, dict] = {}
        for i in range(since, len(spans)):
            name, _, _, parent, root = spans[i]
            if parent < 0 and name == root_name:
                out[i] = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(since, len(spans)):
            name, start, end, _, root = spans[i]
            if root not in out:
                continue
            if rename is not None:
                name = rename(self, i, child_names.get(i, ()))
                if name is None:
                    continue
            dur = end - start
            entry = out[root][name]
            entry[0] += dur
            entry[1] += dur - child_time[i]
            entry[2] += 1
        return [out[r] for r in sorted(out)]

    def totals(self) -> dict:
        """{name: [inclusive s, self s, calls]} over every span recorded."""
        child_time, _ = self._children(0)
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += end - start
            entry[1] += end - start - child_time[i]
            entry[2] += 1
        return dict(out)

    def _children(self, since: int) -> tuple[list[float], dict[int, list[str]]]:
        """Per span from index `since` on: its children's total time, and their names."""
        child_time = [0.0] * len(self.spans)
        child_names: dict[int, list[str]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans[since:]:
            if parent >= 0:
                child_time[parent] += end - start
                child_names[parent].append(name)
        return child_time, child_names
