"""In-memory span tracer for the hdshrink layers.

``Tracer.patched()`` replaces each traced public function at every place a
caller looks it up (every ``hdshrink`` module attribute bound to it) with a
wrapper that records a span, and puts the originals back on exit.  Nothing
under ``src/`` is changed.  A span is (name, start, end, parent, thread, run
id); spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# Defining module -> public functions wrapped.  A span is named after the
# defining module, whichever module the caller looked the function up in.
LAYERS = {
    "linalg": ("sample_covariance", "eigh"),
    "mpkernel": ("kernel_matrix", "lw_curve"),
    "shrinkers": ("proposed_shrinker", "lappw_select_b", "tyler_estimator"),
    "detector": ("srht_many", "standardization_scale", "sigma_tilde2_batch"),
    "scoring": ("fit_reference", "build_scorer"),
    "simulate": ("calibrate_gamma", "run_trials", "substream", "write_scores_csv"),
    "rss": ("load_rss", "detrend", "rss_experiment", "write_rss_scores_csv"),
    "evaluate": ("roc", "render"),
}

# Layers whose successful calls in traced run 1 are kept for replay.
CAPTURED = ("shrinkers.tyler_estimator",)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int
    count: int = 0  # work items, where the layer has them (vectors scored)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped hdshrink functions.

    A span opened on a thread with no open span of its own takes as parent
    the innermost span open on the main thread: worker threads of
    ``run_trials`` thus hang their spans under it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.captured: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}

    def _open(self) -> tuple[list[int], int | None]:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                return stack, stack[-1]
            main = self._stacks.get(threading.main_thread().ident) or [None]
            return stack, main[-1]

    def call(self, name, fn, args, kwargs, count=0):
        stack, parent = self._open()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), self.run, count)
            with self._lock:
                self.spans.append(span)

    def _wrap(self, name, fn):
        if name == "scoring.build_scorer":
            return self._wrap_build_scorer(fn)

        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if name in CAPTURED and self.run == 1:
                with self._lock:
                    self.captured[name].append((fn, args, kwargs))
            return result

        return traced

    def _wrap_build_scorer(self, fn):
        def traced(method, *args, **kwargs):
            scorer = self.call(f"scoring.build_scorer.{method}", fn, (method,) + args, kwargs)

            def score(Y):
                return self.call("scoring.score", scorer, (Y,), {}, count=Y.shape[1])

            return score

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every LAYERS function at each of its lookup sites."""
        importlib.import_module("hdshrink.cli")  # loads every hdshrink module
        modules = [
            m for name, m in sys.modules.items()
            if name == "hdshrink" or name.startswith("hdshrink.")
        ]
        saved = []
        for modname, names in LAYERS.items():
            home = sys.modules[f"hdshrink.{modname}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def covered(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s.start, s.end) for s in spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class SpanIndex:
    """Per-name totals, counts and self times over one run's spans."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)

    def total(self, name) -> float:
        return sum(s.duration for s in self.by_name[name])

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def items(self, name) -> int:
        return sum(s.count for s in self.by_name[name])

    def self_time(self, name) -> float:
        """Span time minus the part of it that child spans cover."""
        return sum(s.duration - covered(self.children[s.id]) for s in self.by_name[name])

    def busy_ratio(self, name, threads: int) -> float:
        """Summed child span time / (threads x span time)."""
        spans = self.by_name[name]
        wall = sum(s.duration for s in spans)
        busy = sum(c.duration for s in spans for c in self.children[s.id])
        return busy / (threads * wall) if wall > 0 else 0.0
