"""Spans around the program's layers, recorded from outside the program.

A layer is a module of the ``ghzcert`` package.  While a :class:`Tracer` is
installed, every public function of each layer module (name without a
leading underscore, defined in that module) is replaced, in every module
namespace of the package that binds it, by a wrapper that records one span
per call: name, start, end, parent span and operation id.  Certificate
serialization and parsing are wrapped as ``protocol.serialize`` and
``protocol.parse``.  Nothing in the program's source changes, and
:meth:`Tracer.remove` puts every original binding back.

Spans stay in memory in flat arrays and are written once, by
:meth:`Tracer.write`, after the measured loop.  Self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "hypergraph", "gpor", "protocol", "ratlinalg", "tensor")


def _k(args, kwargs) -> int:
    return (args[0] if args else kwargs["h"]).k


# (metric name, span name, function of (args, kwargs, result) -> count).
# Counts are taken from arguments and return values only.
COUNTERS = (
    ("hypergraph.bipartitions", "hypergraph.min_cut",
     lambda a, kw, r: 2 ** (_k(a, kw) - 1) - 1),
    ("hypergraph.bipartitions", "hypergraph.min_cut_separating",
     lambda a, kw, r: 2 ** (_k(a, kw) - 2)),
    ("gpor.reps_scored", "protocol.choose_g", lambda a, kw, r: 1),
    ("ratlinalg.rank.calls", "ratlinalg.rank", lambda a, kw, r: 1),
    ("protocol.histogram_support", "protocol.value_histogram",
     lambda a, kw, r: len(r)),
    ("protocol.solutions", "protocol.build_certificate", lambda a, kw, r: r.m_count),
    ("protocol.grid_points", "protocol.build_certificate",
     lambda a, kw, r: r.n ** r.hypergraph.l),
    ("protocol.checks_recomputed", "protocol.verify_certificate",
     lambda a, kw, r: sum(c.status != "skipped" for c in r.checks)),
    ("protocol.checks_total", "protocol.verify_certificate",
     lambda a, kw, r: len(r.checks)),
    ("tensor.entries", "tensor.ghz_state", lambda a, kw, r: len(r.entries)),
    ("tensor.entries", "tensor.apply_local_diagonal", lambda a, kw, r: len(r.entries)),
    ("tensor.entries", "tensor.leading_term", lambda a, kw, r: len(r.entries)),
    ("protocol.cert_bytes", "protocol.serialize", lambda a, kw, r: len(r)),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith(prefix) and m is not None
        ]

    def install(self) -> None:
        pkg = self.package.__name__
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        cert = sys.modules[f"{pkg}.protocol"].Certificate
        to_bytes = cert.__dict__["to_json_bytes"]
        from_dict = cert.__dict__["from_json_dict"]
        self._restore.append((cert, "to_json_bytes", to_bytes))
        self._restore.append((cert, "from_json_dict", from_dict))
        cert.to_json_bytes = self._wrap("protocol.serialize", to_bytes)
        cert.from_json_dict = classmethod(
            self._wrap("protocol.parse", from_dict.__func__)
        )

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counters = [(metric, f) for metric, span, f in COUNTERS if span == name]
        stack = self._stack
        counts = self.counts
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1])
            s_op.append(self.op)
            s_end.append(0)
            stack.append(idx)
            s_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf_counter_ns()
                stack.pop()
            for metric, f in counters:
                counts[metric] += f(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, in ns."""
        child = [0] * len(self.span_name)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        totals: dict[str, int] = defaultdict(int)
        for idx, name_id in enumerate(self.span_name):
            dur = self.span_end[idx] - self.span_start[idx]
            totals[self.names[name_id]] += dur - child[idx]
        return dict(totals)

    def covered_ns(self) -> int:
        """Wall time covered by top-level spans."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i, parent in enumerate(self.span_parent)
            if parent < 0
        )

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\top\tstart_ns\tend_ns\n")
            for idx in range(len(self.span_name)):
                fh.write(
                    f"{idx}\t{self.names[self.span_name[idx]]}\t"
                    f"{self.span_parent[idx]}\t{self.span_op[idx]}\t"
                    f"{self.span_start[idx]}\t{self.span_end[idx]}\n"
                )
        return len(self.span_name)
