"""Span tracer for the benchmark's in-process traced run.

The program is not modified.  ``Tracer.install`` wraps, from outside, the
functions that ``scalex.cli`` binds from ``spectra``, ``ktheory``,
``operators`` and ``wold`` (plus the ``from_json`` constructors of the
classes it binds), the public functions of ``scalex.matio``, and numpy's
dense factorizations.  Every wrapped call opens a span (name, layer, start,
end, parent id, operation id); every factorization is counted toward the
innermost open span, with its computed cost m*n*min(m, n).  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("spectra", "ktheory", "operators", "wold")
FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "eigvals", "qr")


class Span:
    __slots__ = ("id", "op", "name", "layer", "parent", "start", "end", "counts", "flop", "extra")

    def __init__(self, sid, op, name, layer, parent):
        self.id, self.op, self.name, self.layer, self.parent = sid, op, name, layer, parent
        self.start = self.end = 0.0
        self.counts: Counter = Counter()
        self.flop = 0
        self.extra: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "op": self.op,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": dict(self.counts),
            "factor_flop_computed": self.flop,
            **self.extra,
        }


def _flop(shape) -> int:
    """m*n*min(m, n) per matrix, times the batch size."""
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), self.op, name, layer, parent)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _count(self, kind: str, shape) -> None:
        if self._stack:
            self._stack[-1].counts[kind] += 1
            self._stack[-1].flop += _flop(shape)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _traced(self, fn, name: str, layer: str, after=None, alloc: bool = False):
        """Wrap fn in a span; ``after`` reads the call's result once the span ends,
        ``alloc`` records the tracemalloc peak (numpy buffers included) in the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer) as sp:
                if alloc:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if alloc:
                        sp.extra["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if after is not None:
                after(sp, args, result)
            return result

        return traced

    def _factorization(self, fn, kind: str):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            tracer._count(kind, np.shape(a))
            return fn(a, *args, **kwargs)

        return counted

    def _norm(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2 and not args and kwargs.get("axis") is None:
                tracer._count("norm2", np.shape(x))
            return fn(x, ord, *args, **kwargs)

        return counted

    def install(self, cli, matio) -> None:
        """Wrap the program's layer boundaries and numpy's factorizations."""
        for name, obj in list(vars(cli).items()):
            layer = getattr(obj, "__module__", "").rpartition(".")[2]
            if layer not in LAYERS:
                continue
            if inspect.isfunction(obj):
                wold = name == "wold_decompose"
                after = _fibers if wold else None
                self._patch(cli, name, self._traced(obj, f"{layer}.{name}", layer, after, alloc=wold))
            elif inspect.isclass(obj) and "from_json" in obj.__dict__:
                fn = obj.__dict__["from_json"].__func__
                self._patch(obj, "from_json", classmethod(self._traced(fn, f"{layer}.{name}.from_json", layer)))
        for name in matio.__all__:
            after = _bytes_written if name.startswith("save") else _bytes_read
            self._patch(matio, name, self._traced(vars(matio)[name], f"matio.{name}", "matio", after))
        for kind in FACTORIZATIONS:
            self._patch(np.linalg, kind, self._factorization(vars(np.linalg)[kind], kind))
        self._patch(np.linalg, "norm", self._norm(vars(np.linalg)["norm"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Span id -> its duration minus the time its child spans cover."""
        own = {sp.id: sp.seconds for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.seconds
        return own


def _fibers(sp, args, report) -> None:
    sp.extra["fibers"] = len(report.q_ranks)


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, str) and os.path.isfile(path) else 0


def _bytes_written(sp, args, result) -> None:
    sp.extra["bytes_written"] = _file_size(args[0])


def _bytes_read(sp, args, result) -> None:
    sp.extra["bytes_read"] = _file_size(args[0])
