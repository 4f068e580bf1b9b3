"""Spans and counters recorded around calls into chowreg's layers.

The benchmark does not change the package: ``instrument`` replaces public
functions with wrappers for the duration of a ``with`` block and restores the
originals afterwards.  Spans are kept in memory and written out when the run
ends.  Kernel calls (the ``RFEvaluator`` Horner/Newton methods and
``mpmath.polyroots``) are counted, not spanned, and each count goes to the
innermost open span.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from contextlib import contextmanager

import mpmath


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts", "meta")

    def __init__(self, id, name, parent, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = {}
        self.meta = {}

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts,
                "meta": self.meta}


class Tracer:
    """An in-memory span tree for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, key):
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0) + 1


def self_seconds(span, children):
    """The span's duration minus the part of it that its children cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo = max(c.start, reach)
        hi = min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


# Functions wrapped in a span, by home module.  ``regulator.py`` imports the
# wavefront and cycles functions by name, and the package re-exports most of
# them, so each wrapper is installed wherever the original object is bound.
SPANNED = {
    "chowreg.regulator": ("regulator", "reg_n3", "quadrature", "torsion_order"),
    "chowreg.wavefront": ("search_schedule", "admissible", "trace_wavefront",
                          "find_pair_intersections"),
    "chowreg.cycles": ("check_face_proper", "is_closed", "is_normalized",
                       "normalize"),
}
# Namespaces searched for bindings.  ``chowreg.cycles`` is left out so that
# the checks' calls among themselves do not nest spans.
NAMESPACES = ("chowreg", "chowreg.regulator", "chowreg.wavefront")
KERNEL_METHODS = ("newton_step", "residual", "value", "dlog")
PRECHECKS = tuple(f"cycles.{n}" for n in SPANNED["chowreg.cycles"])


def _span_name(home, attr):
    return f"{home.split('.')[-1]}.{attr}"


def _record_result(span, result):
    """Keep the few facts of a result that the layer metrics need."""
    name = span.name
    if name == "wavefront.admissible":
        span.meta["ok"] = bool(result.ok)
    elif name == "wavefront.find_pair_intersections":
        span.meta["crossings"] = len(result)
    elif name == "wavefront.search_schedule":
        span.meta["accepted"] = True
    elif name == "regulator.regulator":
        span.meta["radius"] = float(result.value.radius)


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            _record_result(span, result)
            return result
        finally:
            tracer.close(span)
    return wrapper


def _count_wrapper(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrument(tracer):
    """Install span and counter wrappers; restore the originals on exit."""
    saved = []

    def patch(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    try:
        spaces = [importlib.import_module(n) for n in NAMESPACES]
        for home_name, attrs in SPANNED.items():
            home = importlib.import_module(home_name)
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = _span_wrapper(tracer, _span_name(home_name, attr),
                                        original)
                for ns in spaces:
                    if getattr(ns, attr, None) is original:
                        patch(ns, attr, wrapper)
        ev = importlib.import_module("chowreg.funcfield").RFEvaluator
        for attr in KERNEL_METHODS:
            patch(ev, attr, _count_wrapper(tracer, f"funcfield.{attr}",
                                           getattr(ev, attr)))
        patch(mpmath, "polyroots",
              _count_wrapper(tracer, "mpmath.polyroots", mpmath.polyroots))
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def layer_metrics(spans, op_seconds):
    """Per-layer figures from a finished span tree.

    ``op_seconds`` holds the wall time of every traced operation.  Times and
    counts are per operation; ``share`` is of the summed operation time.
    ``.admissible``/``.quadrature``/``.reg_n3`` suffixes restrict a figure to
    work done while a span of that name was open.
    """
    by_id = {s.id: s for s in spans}
    children = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def ancestors(s):
        names = set()
        while s is not None:
            names.add(s.name)
            s = by_id.get(s.parent)
        return names

    lineage = {s.id: ancestors(s) for s in spans}
    n_ops = max(1, len(op_seconds))
    total_op = sum(op_seconds)

    def named(name, under=None):
        return [s for s in spans if s.name == name
                and (under is None or under in lineage[s.id])]

    def secs(name, under=None):
        return sum(s.seconds for s in named(name, under)) / n_ops

    def self_secs(name):
        return sum(self_seconds(s, children[s.id]) for s in named(name)) / n_ops

    def calls(name):
        return len(named(name)) / n_ops

    def kernel(key, under=None):
        return sum(s.counts.get(key, 0) for s in spans
                   if under is None or under in lineage[s.id]) / n_ops

    adm = named("wavefront.admissible")
    adm_under_search = named("wavefront.admissible", "wavefront.search_schedule")
    accepted = [s for s in named("wavefront.search_schedule")
                if s.meta.get("accepted")]
    radii = [s.meta["radius"] for s in named("regulator.regulator")
             if s.meta.get("radius", 0) > 0]
    quad_s = secs("regulator.quadrature")

    m = {
        "regulator.quadrature.s": quad_s,
        "regulator.quadrature.calls": calls("regulator.quadrature"),
        "regulator.quadrature.share": quad_s * n_ops / total_op if total_op else 0.0,
        "regulator.reg_n3.s": secs("regulator.reg_n3"),
        "regulator.reg_n3.self_s": self_secs("regulator.reg_n3"),
        "regulator.radius_bits": (statistics.median(-math.log2(r) for r in radii)
                                  if radii else 0.0),
        "wavefront.admissible.s": secs("wavefront.admissible"),
        "wavefront.admissible.self_s": self_secs("wavefront.admissible"),
        "wavefront.admissible.calls": calls("wavefront.admissible"),
        "wavefront.admissible.reject_share": (
            sum(1 for s in adm if s.meta.get("ok") is False) / len(adm)
            if adm else 0.0),
        "wavefront.search_schedule.s": secs("wavefront.search_schedule"),
        "wavefront.search_schedule.attempts": (
            len(adm_under_search) / len(accepted) if accepted else 0.0),
        "wavefront.trace_wavefront.calls": calls("wavefront.trace_wavefront"),
        "wavefront.trace_wavefront.s.admissible": secs(
            "wavefront.trace_wavefront", "wavefront.admissible"),
        "wavefront.trace_wavefront.s.reg_n3": secs(
            "wavefront.trace_wavefront", "regulator.reg_n3"),
        "wavefront.find_pair_intersections.s": secs(
            "wavefront.find_pair_intersections"),
        "wavefront.crossings": sum(
            s.meta.get("crossings", 0)
            for s in named("wavefront.find_pair_intersections")) / n_ops,
        "mpmath.polyroots.calls": kernel("mpmath.polyroots"),
        "cycles.prechecks.s": sum(secs(n) for n in PRECHECKS),
    }
    for attr in KERNEL_METHODS:
        key = f"funcfield.{attr}"
        m[f"{key}.calls"] = kernel(key)
        m[f"{key}.calls.quadrature"] = kernel(key, "regulator.quadrature")
        m[f"{key}.calls.admissible"] = kernel(key, "wavefront.admissible")
    return m
