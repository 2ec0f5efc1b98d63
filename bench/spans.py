"""In-memory spans around the public calls into each ris_linklab module.

`installed` wraps, from outside the program, the calls a CLI run makes into
each layer, and `Recorder` keeps one span per call: name, start, end,
parent and thread.  The layers and their wrapped calls are

* cli:        cli.main, cli.write_rows
* montecarlo: run_sweep, as cli calls it
* rng:        RngStream.generator, and every draw on the generator it
              returns (through a proxy that times the draw and sizes its result)
* analytic:   sep_mpsk, sep_mqam, sep_upper_bound, and required_snr_db as
              cli calls it

Draws made in the simulator's worker threads have no open span in their own
thread; their parent is the span open in the thread that started the run
(the run_sweep call that owns the chunk).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans; safe to use from the simulator's worker threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(next(self._ids), parent, name, threading.get_ident(), time.perf_counter(), attrs=attrs)
        stack.append(span.id)
        try:
            yield span.attrs
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


class _TimedGenerator:
    """Proxy for a numpy Generator: every method call is a timed, sized draw."""

    def __init__(self, generator: np.random.Generator, recorder: Recorder) -> None:
        self._generator = generator
        self._recorder = recorder

    def __getattr__(self, name):
        method = getattr(self._generator, name)
        if not callable(method):
            return method
        recorder = self._recorder

        def draw(*args, **kwargs):
            with recorder.span(f"rng.{name}") as attrs:
                out = method(*args, **kwargs)
                attrs["values"] = int(np.size(out))
                attrs["bytes"] = int(np.asarray(out).nbytes)
            return out

        return draw


@contextmanager
def installed(recorder: Recorder, cli, analytic, rng):
    """Wrap the layer entry points for the duration of the `with` block."""
    undo = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def traced(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with recorder.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def main(fn):
        def wrapper(argv=None):
            with recorder.span("cli.main", command=argv[0] if argv else None):
                return fn(argv)
        return wrapper

    def write_rows(fn):
        def wrapper(rows, path):
            with recorder.span("cli.write_rows", rows=len(rows)) as attrs:
                fn(rows, path)
                attrs["bytes"] = Path(path).stat().st_size
        return wrapper

    def run_sweep(fn):
        def wrapper(spec, workers=None):
            with recorder.span(
                "montecarlo.run_sweep",
                scheme=spec.config.scheme.value,
                n=spec.config.n_reflectors,
                m=spec.config.constellation.order,
                chunk_size=spec.chunk_size,
            ) as attrs:
                points = fn(spec, workers)
                attrs["trials"] = sum(p.trials for p in points)
                attrs["chunks"] = sum(math.ceil(p.trials / spec.chunk_size) for p in points)
            return points
        return wrapper

    def generator(fn):
        def wrapper(stream):
            with recorder.span("rng.generator"):
                return _TimedGenerator(fn(stream), recorder)
        return wrapper

    try:
        patch(cli, "main", main)
        patch(cli, "write_rows", write_rows)
        patch(cli, "run_sweep", run_sweep)
        patch(cli, "required_snr_db", traced("analytic.required_snr_db"))
        for name in ("sep_mpsk", "sep_mqam", "sep_upper_bound"):
            patch(analytic, name, traced(f"analytic.{name}"))
        patch(rng.RngStream, "generator", generator)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children running at once in several threads cover the union of their
    intervals, so this is the time the span spent with no child running.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        result[s.id] = s.duration - covered
    return result


def layer_self_s(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer (the span-name prefix before the first dot)."""
    own = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s.layer] += own[s.id]
    return dict(totals)


def to_json(spans: list[Span]) -> list[list]:
    """Spans as [id, parent, name, thread, start, end, attrs], times in seconds."""
    return [[s.id, s.parent, s.name, s.thread, s.start, s.end, s.attrs] for s in spans]
