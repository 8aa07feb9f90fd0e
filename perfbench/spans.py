"""Span recorder for the traced benchmark run.

``Recorder.install`` replaces every public function of the traced driftgauge
modules, at each module binding the program calls through (for example
``driftgauge.descriptors.moments`` as well as ``driftgauge.workload.moments``),
with a wrapper that records one span per call: name, start, end, parent span,
op id, whether it raised, a work count where one is defined and, when the
recorder tracks memory, a ``tracemalloc`` peak.  ``tracemalloc`` slows every
allocation, so timings come from a recorder that does not track memory and
peaks from one that does.  Spans stay in memory until ``dump`` writes them
out.  Nothing under ``src/`` changes; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
import zlib

LAYERS = ("workload", "descriptors", "evaluator", "meta_learning", "meta_set", "metrics", "cli")
# Methods are not module bindings; this one is traced for the ledger's
# refused-charge ratio.
METHODS = (("meta_set", "BudgetLedger", "charge"),)


def _sliced_work(args, result) -> tuple:
    src, tgt, basis = args[:3]
    return (src.n + tgt.n, basis.num_slices, basis.dim)


def fingerprint(es) -> tuple:
    """Identifies an embedding set by its shape and a checksum of its first
    row, so a freshly loaded copy of the source still counts as the source."""
    return (*es.data.shape, zlib.crc32(es.data[0].tobytes()))


# Work recorded at the boundary: the quantity a layer ratio is computed from.
WORK = {
    "workload.load_embedding_set": lambda args, result: result.data.nbytes,
    "workload.moments": lambda args, result: fingerprint(args[0]),
    "descriptors.sliced_w2": _sliced_work,
}

# Span fields, in the order ``dump`` writes them.
FIELDS = ("name", "start", "end", "parent", "op", "failed", "peak_bytes", "work")


class Span:
    __slots__ = FIELDS + ("index", "base_bytes", "max_bytes")

    def __init__(self, name, index, parent, op, base_bytes):
        self.name, self.index, self.parent, self.op = name, index, parent, op
        self.start = self.end = 0.0
        self.failed, self.peak_bytes, self.work = False, 0, None
        self.base_bytes = self.max_bytes = base_bytes

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    # -- span bookkeeping -------------------------------------------------

    def _mark_memory(self) -> int:
        """Fold the peak since the last boundary into every open span, then
        restart peak tracking; returns current traced bytes."""
        if not self.memory:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for span in self._stack:
            if peak > span.max_bytes:
                span.max_bytes = peak
        tracemalloc.reset_peak()
        return current

    def open(self, name: str) -> Span:
        current = self._mark_memory()
        parent = self._stack[-1].index if self._stack else -1
        span = Span(name, len(self.spans), parent, self.op, current)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._mark_memory()
        span.peak_bytes = span.max_bytes - span.base_bytes
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, name: str, fn):
        rec = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                rec.close(span)
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every driftgauge binding of it, and
        start ``tracemalloc`` if this recorder tracks memory."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "driftgauge" or name.startswith("driftgauge."))]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"driftgauge.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"driftgauge.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span: its duration minus the part of it covered by
        its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def rows(self) -> list[list]:
        return [[getattr(s, f) for f in FIELDS] for s in self.spans]
