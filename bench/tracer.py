"""In-memory span tracer that wraps word2spike's public functions.

``Tracer.install()`` swaps each function in ``SPANS`` for a timing wrapper
in every ``word2spike`` module namespace that binds it (``cli`` imports
``generate_raster`` by name, so ``cli.generate_raster`` and
``spike_codec.generate_raster`` are both swapped), and ``uninstall()``
puts the originals back.  Spans (name, start, end, parent) stay in memory;
``analyse()`` turns one pass's spans into per-layer times after the pass.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, attribute).  A span name doubles as its metric name
# prefix; the layer is the part before the dot.
SPANS = {
    "corpus_io.load_embeddings": ("corpus_io", "load_embeddings"),
    "corpus_io.load_simlex": ("corpus_io", "load_simlex"),
    "corpus_io.load_analogies": ("corpus_io", "load_analogies"),
    "quantizer.quantize_all": ("quantizer", "quantize_all"),
    "quantizer.save_ternary": ("quantizer", "save_ternary"),
    "quantizer.load_ternary": ("quantizer", "load_ternary"),
    "spike_codec.generate_raster": ("spike_codec", "generate_raster"),
    "spike_codec.decode": ("spike_codec", "decode"),
    "spike_codec.roundtrip": ("spike_codec", "roundtrip"),
    "spike_codec.write_raster_jsonl": ("spike_codec", "write_raster_jsonl"),
    "spike_codec.read_raster_jsonl": ("spike_codec", "read_raster_jsonl"),
    "spike_codec.write_counts_csv": ("spike_codec", "write_counts_csv"),
    "evaluator.full_report": ("evaluator", "full_report"),
    "evaluator.overlap_at_k": ("evaluator", "overlap_at_k"),
    "evaluator.analogy_eval": ("evaluator", "analogy_eval"),
    "evaluator.simlex_eval": ("evaluator", "simlex_eval"),
    "evaluator.reconstruction_accuracy": ("evaluator", "reconstruction_accuracy"),
    "cli.main": ("cli", "main"),
    "cli.quantize": ("cli", "cmd_quantize"),
    "cli.encode": ("cli", "cmd_encode"),
    "cli.decode": ("cli", "cmd_decode"),
    "cli.eval": ("cli", "cmd_eval"),
    "cli.write_manifest": ("cli", "write_manifest"),
}

ROOT = "bench.pass"
# the tracer's own time on a pass: wrapper bookkeeping and counter hooks,
# timed at every call
OVERHEAD = "trace.overhead_s"


def _file_size(counter: str):
    return lambda count, args, _: count(counter, os.path.getsize(args["path"]))


def _count_raster(count, args, raster):
    count("spike_codec.generate_raster_calls")
    count("spike_codec.spikes", int(raster.counts().sum()))
    # computed, not observed: stochastic mode seeds one default_rng per
    # nonzero code
    if args["cfg"].mode == "stochastic":
        count("spike_codec.rng_streams", int(np.count_nonzero(args["rates"].rates_hz)))


# span name -> hook(count, bound arguments, result), run after the span ends
COUNTERS = {
    "corpus_io.load_embeddings": _file_size("corpus_io.input_bytes"),
    "corpus_io.load_simlex": _file_size("corpus_io.input_bytes"),
    "corpus_io.load_analogies": _file_size("corpus_io.input_bytes"),
    "spike_codec.generate_raster": _count_raster,
    "spike_codec.write_raster_jsonl": _file_size("spike_codec.raster_bytes"),
}

# (module, class, method) -> counter; counted only, too fine-grained for spans
METHOD_COUNTERS = {
    ("evaluator", "_NeighborIndex", "__init__"): "evaluator.index_builds",
    ("evaluator", "_NeighborIndex", "top_k"): "evaluator.neighbor_queries",
}


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self.hook_errors: set[str] = set()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(int)

    # --- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _open(self, name: str) -> Span:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        # a pool thread's first span belongs to the span its submitter is in
        parent = stack[-1] if stack else (self._stacks.get(self._main) or [None])[-1]
        span = Span(name, 0.0, parent)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        span.start = perf_counter()  # last, so the bookkeeping counts as overhead
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stacks[threading.get_ident()].pop()

    def run_pass(self, fn):
        """Run fn() under a root span; returns (fn's result, this pass's
        spans, this pass's counters)."""
        self.spans, self.counts = [], defaultdict(int)
        root = self._open(ROOT)
        try:
            result = fn()
        finally:
            self._close(root)
        return result, self.spans, dict(self.counts)

    # --- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                try:
                    hook(self.count, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    self.hook_errors.add(name)
            self.count(OVERHEAD, span.start - entered + perf_counter() - span.end)
            return result

        return wrapper

    def _swap(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "word2spike"]
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules.get(f"word2spike.{module}"), attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, bound, wrapper)
        for (module, cls_name, method), counter in METHOD_COUNTERS.items():
            cls = getattr(sys.modules.get(f"word2spike.{module}"), cls_name, None)
            if cls is None or method not in vars(cls):
                self.missing.add(counter)
                continue
            self._swap(cls, method, self._counting(vars(cls)[method], counter))

    def _counting(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            with self._lock:
                self.counts[counter] += 1
                self.counts[OVERHEAD] += perf_counter() - entered
            return fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Exclusive time per span name.

    Each instant belongs to the innermost open spans; when spans on several
    threads are innermost at once, the instant is split equally between
    them.  The result therefore sums to the root span's duration.
    """
    events = [(s.start, 1, i) for i, s in enumerate(spans)] + [(s.end, 0, i) for i, s in enumerate(spans)]
    events.sort()
    index = {s: i for i, s in enumerate(spans)}
    children = [0] * len(spans)
    active: set[int] = set()
    leaves: set[int] = set()
    out: dict[str, float] = defaultdict(float)
    prev = None
    for t, is_start, i in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[spans[leaf].name] += share
        prev = t
        p = index.get(spans[i].parent)
        if is_start:
            active.add(i)
            leaves.add(i)
            if p is not None:
                children[p] += 1
                leaves.discard(p)
        else:
            active.discard(i)
            leaves.discard(i)
            if p is not None:
                children[p] -= 1
                if children[p] == 0 and p in active:
                    leaves.add(p)
    return out


def analyse(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer values for one traced pass: ``<span>_s`` is the time any
    span of that name was open (overlapping calls on pool threads count
    once), ``<layer>.self_s`` the layer's exclusive time, plus counters
    and the tracer's own time."""
    by_name: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append((s.start, s.end))
    values: dict[str, float] = {f"{name}_s": union_length(iv) for name, iv in by_name.items()}
    layers: dict[str, float] = defaultdict(float)
    for name, t in self_times(spans).items():
        layers[name.split(".")[0]] += t
    for layer, t in layers.items():
        values[f"{layer}.self_s"] = t
    values.update(counts)
    return values
