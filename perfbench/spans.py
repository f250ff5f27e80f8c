"""Spans recorded from outside the program, around the calls into each layer.

The benchmark wraps the public stage functions in the module namespaces
that ``analyze`` looks them up in, so no module under ``src/`` changes.
Spans are kept in memory; self times are computed when the run ends.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

_ANALYSIS, _LEFSCHETZ = "gkmlef.analysis", "gkmlef.lefschetz"
# span name -> (module, attribute names wrapped into that span)
STAGES = {
    "model.profile": (_ANALYSIS, ("restrict_to_circle", "check_hypothesis",
                                  "self_indexing_normalizer", "betti")),
    "cohomology.canonical": (_ANALYSIS, ("canonical_classes",)),
    "cohomology.kirwan": (_ANALYSIS, ("kirwan_reduce",)),
    "cohomology.localization": (_ANALYSIS, ("localization_pairing_invertible",)),
    "lefschetz.hl": (_LEFSCHETZ, ("hard_lefschetz_check",)),
    "lefschetz.expansion": (_LEFSCHETZ, ("verify_symp_expansion", "verify_vanish")),
    "lefschetz.distinct": (_LEFSCHETZ, ("verify_distinct",)),
    "lefschetz.zeroclass": (_LEFSCHETZ, ("verify_zeroclass",)),
    "lefschetz.certificates": (_LEFSCHETZ, ("delta_certificates",)),
    "lefschetz.semifree": (_LEFSCHETZ, ("semifree_monotone_analysis",)),
}
ROOT = "analysis.op"  # one operation; model.parse and analysis.serialize
# are opened by the benchmark around its own calls
SPAN_NAMES = ("model.parse", *STAGES, "analysis.serialize")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int  # operation id shared by every span of one operation


class Tracer:
    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)  # span name -> exceptions raised in it
        self.results = {}  # span name -> return value of its latest call
        self._stack = []
        self._op = -1
        self._counted = None

    @contextmanager
    def span(self, name):
        """A span under the innermost open one; a span with no parent
        starts a new operation."""
        if not self._stack:
            self._op += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        except Exception as exc:
            if exc is not self._counted:  # count it where it was raised only
                self._counted = exc
                self.errors[name] += 1
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = result
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self):
        """Route every stage call made by ``analyze`` through a span."""
        saved = []
        try:
            for name, (module_name, attrs) in STAGES.items():
                module = importlib.import_module(module_name)
                for attr in attrs:
                    fn = getattr(module, attr, None)
                    if fn is None:  # stage removed from the program
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def self_times(spans):
    """Total self seconds per span name: each span's duration minus the
    durations of its direct children (spans in one thread nest properly)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s, covered in zip(spans, child):
        out[s.name] += (s.end - s.start) - covered
    return dict(out)
