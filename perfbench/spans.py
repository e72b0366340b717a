"""In-memory spans for the benchmark's traced runs.

A span is one list ``[name, start, end, parent]``: perf_counter seconds,
and the index of the span that was open when it began (-1 for none). Spans
are recorded around the benchmark's own calls into each layer and around
public module attributes that the chain calls through, which ``instrumented``
wraps for the duration of a traced repetition.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans in call order; one tracer per repetition."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover
    (the union of their intervals, clipped to the span)."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total (inclusive) seconds, self seconds."""
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return out


def _wrap(tracer: Tracer, fn, name: str):
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return traced


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Wrap each ``(module, attribute, span name)`` target so that calls made
    through the module attribute record a span; restore them on exit.

    Yields the ``module.attribute`` names that do not exist: a target that
    the program no longer has is reported, not an error.
    """
    patched, absent = [], []
    for module_name, attr, span_name in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(tracer, fn, span_name))
        patched.append((module, attr, fn))
    try:
        yield absent
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
