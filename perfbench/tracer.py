"""In-memory spans around the calls into each poincarelab layer.

The tracer never edits the package.  It replaces, for the length of a traced
run, the names that each module imports from the layer below (for example
``poincarelab.preimage.poincare_derivative_eval``) with a wrapper that
records a span, and puts the originals back afterwards.  Spans are kept in
memory as (name, start, end, parent, amount) and written out when the run
ends.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  Each entry is a name that one module looks
# up in its own namespace at call time, so replacing it there intercepts the
# call from that module only.  The benchmark's own calls go through the same
# module attributes, so the entry points it drives are covered too.
TARGETS = [
    ("poincarelab.poincare", "build_poincare_map", "poincare.build_poincare_map"),
    ("poincarelab.poincare", "poincare_eval_many", "poincare.eval_many"),
    ("poincarelab.poincare", "series_eval", "series.eval"),
    ("poincarelab.poincare", "series_derivative", "series.derivative"),
    ("poincarelab.siegel", "build_siegel_map", "siegel.build_siegel_map"),
    ("poincarelab.siegel", "series_derivative", "series.derivative"),
    ("poincarelab.siegel", "h_inverse", "siegel.h_inverse"),
    ("poincarelab.preimage", "find_base_preimage", "preimage.find_base_preimage"),
    ("poincarelab.preimage", "branch_continue", "preimage.branch_continue"),
    ("poincarelab.preimage", "argument_principle_count", "preimage.argument_count"),
    ("poincarelab.preimage", "poincare_eval", "poincare.eval"),
    ("poincarelab.preimage", "poincare_derivative_eval", "poincare.deriv"),
    ("poincarelab.preimage", "eval_on_circle", "poincare.eval_on_circle"),
    ("poincarelab.preimage", "h_eval", "siegel.h_eval"),
    ("poincarelab.preimage", "h_inverse", "siegel.h_inverse"),
    ("poincarelab.preimage", "p_inverse_on_disk", "siegel.p_inverse"),
    ("poincarelab.exceptional", "exceptional_survey", "exceptional.survey"),
    ("poincarelab.exceptional", "orbit_preimages", "exceptional.orbit"),
    ("poincarelab.sets", "make_powerlaw_set", "sets.make_powerlaw_set"),
    ("poincarelab.sets", "SetModel.contains_many", "sets.contains_many"),
    ("poincarelab.littlewood", "disk_integral", "littlewood.disk_integral"),
    ("poincarelab.render", "domain_coloring_ppm", "render.domain_coloring"),
    ("poincarelab.render", "poincare_eval_many", "poincare.eval_many"),
]


def _circle_nodes(args, kwargs):
    return kwargs.get("n", args[2] if len(args) > 2 else 512)


def _points(args, kwargs):
    return int(np.size(args[1]))


# span name -> amount of work one call does, from its arguments; summed per
# phase by summarize() as "amount"
AMOUNTS = {
    "poincare.eval_on_circle": _circle_nodes,
    "poincare.eval_many": _points,
}


def _owner(module: str, attr: str):
    """(object holding the attribute, attribute name) for a dotted target."""
    obj = importlib.import_module(module)
    *chain, last = attr.split(".")
    for part in chain:
        obj = getattr(obj, part)
    return obj, last


class Tracer:
    """Span recorder.  A span is a list [name, start_s, end_s, parent, amount]
    where parent is the index of the enclosing span (-1 at top level) and
    amount is the work the call did (points, nodes) or 0."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (owner, attribute, original, wrapper)

    @contextlib.contextmanager
    def span(self, name: str, amount: float = 0):
        """A span around the body of a with statement."""
        rec = [name, 0.0, None, self._stack[-1] if self._stack else -1, amount]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, amount=None):
        """fn with a span of the given name around every call; amount, if
        given, maps the call's (args, kwargs) to the work it does.  The
        recording is spelled out rather than reusing span(): it runs on every
        traced call, and a context manager would double its cost."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, None, stack[-1] if stack else -1,
                   amount(args, kwargs) if amount else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Replace every target with its traced wrapper; restore on exit."""
        try:
            for module, dotted, name in targets:
                owner, attr = _owner(module, dotted)
                original = getattr(owner, attr)
                wrapper = self.wrap(original, name, AMOUNTS.get(name))
                self._installed.append((owner, attr, original, wrapper))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._installed):
                setattr(owner, attr, original)
            self._installed = []

    @contextlib.contextmanager
    def suspended(self):
        """The originals back in place for the body, so work the benchmark
        does for itself (checking outputs) leaves no spans."""
        for owner, attr, original, _ in self._installed:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._installed:
                setattr(owner, attr, wrapper)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent", "amount"],
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans, lo: int = 0, hi: int | None = None) -> dict:
    """name -> {"calls", "total_s", "self_s", "amount"} over spans[lo:hi].

    Parents outside the slice are ignored, so a phase is summarized on its
    own."""
    part = [[s[0], s[1], s[2], s[3] - lo if s[3] >= lo else -1, s[4]]
            for s in spans[lo:hi]]
    out: dict[str, dict] = {}
    for s, own in zip(part, self_times(part)):
        agg = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
        agg["calls"] += 1
        agg["total_s"] += s[2] - s[1]
        agg["self_s"] += own
        agg["amount"] += s[4]
    return out
