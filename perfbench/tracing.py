"""Spans around the package's layer boundaries, recorded from outside.

Each traced function is replaced, at the name its caller looks up, by a
wrapper that records one span: name, start, end and parent.  Spans live in
memory while the benchmark runs and are written out when it ends.  Calls
made on enumeration worker threads take the innermost span open on the main
thread as their parent, so their time counts as a child of the search.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import fusionrings.cli
import fusionrings.documents
import fusionrings.modules
import fusionrings.rings
import fusionrings.spectra
import fusionrings.torsion

# (span name, owner whose attribute is replaced, attribute); the owner is
# where the caller looks the name up, not necessarily where it is defined
TARGETS = [
    ("cli.main", fusionrings.cli, "main"),
    ("torsion.enumerate_modules", fusionrings.cli, "enumerate_modules"),
    ("torsion.enumerate_modules", fusionrings.torsion, "enumerate_modules"),
    ("torsion.is_torsion_free", fusionrings.cli, "is_torsion_free"),
    ("torsion.canonical_form", fusionrings.torsion, "canonical_form"),
    ("torsion.canonical_key", fusionrings.torsion, "canonical_key"),
    ("torsion.generating_set", fusionrings.torsion, "generating_set"),
    ("torsion.dimension_bound", fusionrings.cli, "dimension_bound"),
    ("modules.standard_module", fusionrings.torsion, "standard_module"),
    ("modules.verify_module", fusionrings.cli, "verify_module"),
    ("rings.ring_dims", fusionrings.torsion, "ring_dims"),
    ("rings.verify_based_ring", fusionrings.cli, "verify_based_ring"),
    ("rings.verify_lazy_ring", fusionrings.cli, "verify_lazy_ring"),
    ("rings.fuse", fusionrings.rings, "fuse"),
    ("rings.fuse", fusionrings.modules, "fuse"),
    ("rings.lazy_product", fusionrings.rings.LazyBasedRing, "product"),
    ("spectra.spectral_radius", fusionrings.spectra, "spectral_radius"),
    ("documents.resolve", fusionrings.cli, "resolve_ring"),
    ("documents.resolve", fusionrings.cli, "load_document"),
    ("documents.resolve", fusionrings.cli, "ring_from_document"),
    ("documents.resolve", fusionrings.cli, "module_from_document"),
    ("documents.to_document", fusionrings.cli, "ring_to_document"),
    ("documents.to_document", fusionrings.cli, "module_to_document"),
    ("documents.write", fusionrings.cli, "write_document"),
]
# small facts kept from a span's return value
OBSERVE = {
    "torsion.enumerate_modules": lambda r: {"nodes": r.nodes_explored, "classes": len(r.classes)},
}
# builtin rings are built by constructors that documents looks up by name
TARGETS += [
    (f"constructors.{name}", fusionrings.documents, name)
    for name in ("cyclic_group_ring", "permutation_group_ring", "fibonacci", "su2_ring", "free_unitary_ring", "su2_level")
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "facts")

    def __init__(self, span_id, name, start, parent):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.facts = None


class Tracer:
    """Records spans while installed; ``op()`` groups the spans of one
    benchmark operation under a root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(next(self._ids), name, time.perf_counter(), parent.id if parent else 0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.facts = observe(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    @contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TARGETS]
        try:
            for (name, owner, attr), (_, _, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self._wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def op(self, name, fn, *args):
        """Run ``fn(*args)`` as one traced operation; returns (result, spans)."""
        first = len(self.spans)
        with self.installed():
            result = self._wrap(name, fn)(*args)
        return result, self.spans[first:]

    def dump(self, path: str) -> None:
        """Gzipped JSON lines, one ``[id, name, start, end, parent]`` per span
        in order of completion; times in seconds of ``time.perf_counter``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.id, s.name, s.start, s.end, s.parent]) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls only) and
    self seconds (duration minus the part its child spans cover)."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        if not _has_ancestor(s, s.name, by_id):
            row["s"] += s.end - s.start
    return dict(table)


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def under(spans: list[Span], name: str, ancestor: str) -> list[Span]:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    by_id = {s.id: s for s in spans}
    return [s for s in spans if s.name == name and _has_ancestor(s, ancestor, by_id)]
