"""Spans and evaluation counts for the traced benchmark run.

Counting needs no change to the library: each input's segments are
wrapped in ``Counted``, a segment that delegates ``values`` to the one
it wraps (the way ``Reparam`` does) and adds to a shared ``Meter``.
Sub-paths, re-rooting and concatenation keep the wrapper, so every
evaluation a question triggers is counted.  Spans are recorded around
each call into a layer from the outside and kept in memory.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

import hyperlog as hl
from hyperlog import pathkit
from hyperlog.errors import HyperlogError, RefinementBudgetExceeded
from hyperlog.lifting import FALLBACK_SAMPLES


class Meter:
    """Running totals of segment evaluation calls and points."""

    def __init__(self):
        self.calls = 0
        self.points = 0


@dataclass(frozen=True)
class Counted:
    """A segment that counts its evaluations and delegates to ``inner``."""

    ta: float
    tb: float
    inner: object
    meter: Meter = field(compare=False, repr=False)

    @property
    def dim(self):
        return self.inner.dim

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        self.meter.calls += 1
        self.meter.points += ts.shape[0]
        return self.inner.values(ts)


def counted(spec, meter: Meter):
    """The same path with every segment counting into ``meter``."""
    segs = tuple(Counted(s.ta, s.tb, s, meter) for s in spec.segments)
    return replace(spec, segments=segs)


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    calls: int = 0
    points: int = 0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory spans; each span records the evaluations made inside it."""

    def __init__(self):
        self.meter = Meter()
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **info):
        parent = self._open[-1].sid if self._open else None
        sp = Span(len(self.spans), name, parent, 0.0, info=info)
        self.spans.append(sp)
        self._open.append(sp)
        calls, points = self.meter.calls, self.meter.points
        sp.start = time.perf_counter()
        try:
            yield sp
        except HyperlogError as e:
            sp.error = type(e).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            sp.calls = self.meter.calls - calls
            sp.points = self.meter.points - points
            self._open.pop()

    def named(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def dump(self, path) -> None:
        rows = [
            {"id": s.sid, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, "calls": s.calls,
             "points": s.points, "error": s.error, **s.info}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


@contextmanager
def counting_segment_classes(meter: Meter):
    """Count evaluations of every segment class while corpus paths are
    built, since their constructors check joins before any input exists
    to wrap.  Nested evaluations (a Reparam calling its inner segment)
    count once."""
    classes = (
        pathkit.SliceArc, pathkit.Arc, pathkit.Line, pathkit.SliceCurve,
        pathkit.Samples, pathkit.Rocket, pathkit.NegConj, pathkit.Reparam,
    )
    depth = [0]
    saved = {cls: cls.values for cls in classes}

    def wrap(fn):
        def values(self, ts):
            if depth[0] == 0:
                meter.calls += 1
                meter.points += np.asarray(ts).shape[0]
            depth[0] += 1
            try:
                return fn(self, ts)
            finally:
                depth[0] -= 1
        return values

    for cls, fn in saved.items():
        cls.values = wrap(fn)
    try:
        yield
    finally:
        for cls, fn in saved.items():
            cls.values = fn


def stage_pass(tr: Tracer, spec, directives=()) -> int:
    """Call the stage functions behind a question once each, every one in
    its own span.  Returns the evaluations of the sample-and-obstruct
    pass, the unit that ``evals_over_one_pass`` divides by.  A stage that
    raises ends the pass; its span records the error."""
    one_pass = 0
    t_star = None
    try:
        with tr.span("pathkit.sample_adaptive") as sa:
            try:
                sampled = hl.sample_adaptive(spec)
            except RefinementBudgetExceeded:
                sampled = None
        if sampled is None:
            with tr.span("pathkit.sample_uniform") as su:
                sampled = hl.sample_uniform(spec, FALLBACK_SAMPLES)
            one_pass += su.calls
        sa.info["samples"] = len(sampled.params)
        with tr.span("obstruction.find_obstructions") as so:
            rep = hl.find_obstructions(sampled, spec)
        so.info.update(contacts=len(rep.contacts), runs=len(rep.runs))
        one_pass += sa.calls + so.calls
        if spec.closed:
            im = np.linalg.norm(sampled.values[:, 1:], axis=1)
            t_star = float(sampled.params[int(np.argmax(im))])
            with tr.span("pathkit.rotate_basepoint"):
                hl.rotate_basepoint(spec, t_star)
        with tr.span("companion.unit_field"):
            units = hl.unit_field(sampled, rep, directives)
        with tr.span("companion.canonical_form"):
            shadow = hl.canonical_form(sampled, units)
        if spec.closed:
            with tr.span("winding.shadow_winding"):
                hl.shadow_winding(shadow)
    except HyperlogError:
        pass
    if t_star is not None:
        try:
            with tr.span("winding.branch_change_report"):
                hl.branch_change_report(spec, t_star, directives=directives)
        except HyperlogError:
            pass
    return one_pass


def _median_ms(spans) -> float:
    return statistics.median(s.ms for s in spans) if spans else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, one_pass: dict) -> dict:
    """Per-layer metrics from the spans of one pass over a pool.

    ``one_pass`` maps each question span id to the sample-and-obstruct
    evaluations of its input.  Counts are totals over the pass; times
    are medians per call.
    """
    adaptive = tr.named("pathkit.sample_adaptive")
    uniform = tr.named("pathkit.sample_uniform")
    finds = tr.named("obstruction.find_obstructions")
    lifts = tr.named("lifting.lift_path")
    loops = tr.named("winding.analyze_loop")
    sample_ms = [
        a.ms + sum(u.ms for u in uniform if u.sid == a.sid + 1)
        for a in adaptive
    ]
    contacts = sum(s.info.get("contacts", 0) for s in finds)
    find_calls = sum(s.calls for s in finds)

    def over_pass(spans):
        base = sum(one_pass.get(s.parent, 0) for s in spans)
        return _ratio(sum(s.calls for s in spans), base)

    return {
        "pathkit.eval_calls": sum(s.calls for s in adaptive + uniform),
        "pathkit.eval_points": sum(s.points for s in adaptive + uniform),
        "pathkit.sample_ms": statistics.median(sample_ms) if sample_ms else 0.0,
        "pathkit.samples": sum(s.info.get("samples", 0) for s in adaptive),
        "pathkit.fallback_ratio": _ratio(len(uniform), len(adaptive)),
        "obstruction.find_ms": _median_ms(finds),
        "obstruction.eval_calls": find_calls,
        "obstruction.contacts": contacts,
        "obstruction.runs": sum(s.info.get("runs", 0) for s in finds),
        "obstruction.evals_per_contact": _ratio(find_calls, contacts),
        "companion.unit_field_ms": _median_ms(tr.named("companion.unit_field")),
        "companion.canonical_form_ms": _median_ms(tr.named("companion.canonical_form")),
        "lifting.lift_ms": _median_ms(lifts),
        "lifting.eval_calls": sum(s.calls for s in lifts),
        "lifting.evals_over_one_pass": over_pass(lifts),
        "winding.analyze_ms": _median_ms(loops),
        "winding.eval_calls": sum(s.calls for s in loops),
        "winding.evals_over_one_pass": over_pass(loops),
        "winding.branch_change_ms": _median_ms(tr.named("winding.branch_change_report")),
    }
