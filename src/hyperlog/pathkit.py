"""Piecewise path descriptions, path algebra, sampling, and file formats.

A path is a list of contiguous segments over a shared parameter interval.
A segment is a frozen dataclass, its fields led by its interval ta, tb,
with a method values(ts) giving its values at an array of parameters.
The rest is derived from these: a path's dim is the width of its values,
and the JSON of a segment, or of a coordinate function such as PolyFn,
is its kind followed by its fields, read back with a check of each value
against its field's annotation; every CSV table is written by csv_text.
Every segment evaluates as a function of the global parameter t, using
the anchors it was built with, so restricting a segment to a
sub-interval never changes its values.  Shifts and reversals are
expressed with a lightweight reparameterisation wrapper instead of
per-kind rewriting.  A path folds these wrappers into arrays when it is
built, and evaluates all the segments that share one inner segment, such
as the copies of one circle that repeat makes, in one call of that inner.
"""

from __future__ import annotations

import csv
import io
import math
import reprlib
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from . import config
from .algebra import row_dots, row_norms
from .errors import (
    DimensionMismatch,
    EndpointMismatch,
    OutOfDomain,
    RefinementBudgetExceeded,
    ZeroOnPath,
)


def _cache_arrays(obj, **fields) -> None:
    """Store read-only arrays on a frozen dataclass instance.

    They are plain attributes, not dataclass fields, so equality, repr
    and the JSON or CSV form of the instance do not see them.
    """
    for name, value in fields.items():
        a = np.array(value)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


# the annotations of a field that holds a segment and of one that holds a
# coordinate function; the decoder takes only a kind of the field's family
Segment = object
CoordFn = object


# ---------------------------------------------------------------------------
# scalar coordinate functions for in-slice curves


@dataclass(frozen=True)
class PolyFn:
    """Polynomial in the global parameter, highest coefficient first."""

    coeffs: tuple

    def __call__(self, t):
        return np.polyval(np.asarray(self.coeffs), t)


@dataclass(frozen=True)
class TrigFn:
    """a0 + sum a_m cos(m t) + b_m sin(m t) with integer frequencies m;
    cos and sin hold the pairs (m, a_m) and (m, b_m)."""

    a0: float
    cos: tuple
    sin: tuple

    def __post_init__(self):
        if not all(float(m).is_integer() for m, _ in self.cos + self.sin):
            raise ValueError(f"trig function frequencies are not whole numbers: {self!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a0)
        for m, a in self.cos:
            out = out + a * np.cos(m * t)
        for m, b in self.sin:
            out = out + b * np.sin(m * t)
        return out


# ---------------------------------------------------------------------------
# segments


def _anchor(seg) -> None:
    """Default a segment's anchors, between which its shape is laid out,
    to its ends; equal anchors lay out no shape and raise ValueError."""
    if seg.anchor_a is None:
        object.__setattr__(seg, "anchor_a", seg.ta)
        object.__setattr__(seg, "anchor_b", seg.tb)
    if seg.anchor_a == seg.anchor_b:
        raise ValueError(f"{type(seg).__name__} has equal anchors {seg.anchor_a!r}")


@dataclass(frozen=True)
class SliceArc:
    """center + radius (cos th + unit sin th), th affine over the anchors."""

    ta: float
    tb: float
    unit: tuple
    angle_a: float
    angle_b: float
    center: float = 0.0
    radius: float = 1.0
    anchor_a: float = None
    anchor_b: float = None

    def __post_init__(self):
        _anchor(self)
        _cache_arrays(self, _unit=self.unit)

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        s = (ts - self.anchor_a) / (self.anchor_b - self.anchor_a)
        th = self.angle_a + s * (self.angle_b - self.angle_a)
        out = np.outer(self.radius * np.sin(th), self._unit)
        out[:, 0] += self.center + self.radius * np.cos(th)
        return out


@dataclass(frozen=True)
class Arc:
    """center + drift s + cos_vec cos th + sin_vec sin th.

    th runs affinely over the anchors and s is the anchor-relative
    fraction in [0, 1]; the drift term covers spirals such as the
    slowly sinking meridian curves.
    """

    ta: float
    tb: float
    center: tuple
    cos_vec: tuple
    sin_vec: tuple
    angle_a: float
    angle_b: float
    drift: tuple = None
    anchor_a: float = None
    anchor_b: float = None

    def __post_init__(self):
        _anchor(self)
        if self.drift is None:
            object.__setattr__(self, "drift", tuple(0.0 for _ in self.center))
        _cache_arrays(
            self, _center=self.center, _cos_vec=self.cos_vec,
            _sin_vec=self.sin_vec, _drift=self.drift,
        )

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        s = (ts - self.anchor_a) / (self.anchor_b - self.anchor_a)
        th = self.angle_a + s * (self.angle_b - self.angle_a)
        out = np.outer(np.cos(th), self._cos_vec)
        out += np.outer(np.sin(th), self._sin_vec)
        out += np.outer(s, self._drift)
        out += self._center
        return out


@dataclass(frozen=True)
class Line:
    """Straight segment from p0 (at anchor_a) to p1 (at anchor_b)."""

    ta: float
    tb: float
    p0: tuple
    p1: tuple
    anchor_a: float = None
    anchor_b: float = None

    def __post_init__(self):
        _anchor(self)
        _cache_arrays(self, _p0=self.p0, _p1=self.p1)

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        s = (ts - self.anchor_a) / (self.anchor_b - self.anchor_a)
        return np.outer(1.0 - s, self._p0) + np.outer(s, self._p1)


@dataclass(frozen=True)
class SliceCurve:
    """x(t) + unit y(t) with scalar coordinate functions in a fixed slice."""

    ta: float
    tb: float
    unit: tuple
    x_fn: CoordFn
    y_fn: CoordFn

    def __post_init__(self):
        _cache_arrays(self, _unit=self.unit)

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        x = np.asarray(self.x_fn(ts), dtype=float)
        y = np.asarray(self.y_fn(ts), dtype=float)
        out = np.outer(y, self._unit)
        out[:, 0] += x
        return out


@dataclass(frozen=True)
class Samples:
    """Piecewise-linear interpolation through given sample values: at
    least 2 strictly increasing knots ts, which np.interp needs, and one
    row of points per knot, or ValueError."""

    ta: float
    tb: float
    ts: tuple
    points: tuple  # rows of coefficient vectors

    def __post_init__(self):
        _cache_arrays(self, _grid=self.ts, _points=self.points)
        grid, pts = self._grid, self._points
        if grid.ndim != 1 or len(grid) < 2 or not (np.diff(grid) > 0).all():
            raise ValueError(
                f"samples need at least 2 strictly increasing ts, got {reprlib.repr(self.ts)}")
        if pts.ndim != 2 or len(pts) != len(grid):
            raise ValueError(f"samples need one points row per knot: {len(pts)} rows for "
                             f"{len(grid)} knots")

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        grid, pts = self._grid, self._points
        out = np.empty((ts.shape[0], pts.shape[1]))
        for c in range(pts.shape[1]):
            out[:, c] = np.interp(ts, grid, pts[:, c])
        return out


@dataclass(frozen=True)
class Rocket:
    """cos(pi - 2 pi s) + s(1-s)(i cos(2 pi / s) + j sin(2 pi / s)).

    s is the anchor-relative fraction; the imaginary direction spins
    without limit as s -> 0+, which is the standard example of a contact
    with the real axis that has no one-sided direction.
    """

    ta: float
    tb: float
    anchor_a: float = None
    anchor_b: float = None

    def __post_init__(self):
        _anchor(self)

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        s = (ts - self.anchor_a) / (self.anchor_b - self.anchor_a)
        out = np.zeros((s.shape[0], 4))
        out[:, 0] = np.cos(math.pi - 2.0 * math.pi * s)
        amp = s * (1.0 - s)
        # below 1e-307, 2 pi / s can overflow; the amplitude is negligible
        # there, and the phase is taken as 0, as at s = 0
        spin = s >= 1e-307
        phase = np.where(spin, 2.0 * math.pi / np.where(spin, s, 1.0), 0.0)
        out[:, 1] = amp * np.cos(phase)
        out[:, 2] = amp * np.sin(phase)
        return out


@dataclass(frozen=True)
class NegConj:
    """The reflection t -> -conj(gamma(t)) of an inner segment."""

    ta: float
    tb: float
    inner: Segment

    def values(self, ts):
        v = self.inner.values(ts)
        out = v.copy()
        out[:, 0] = -out[:, 0]
        return out


@dataclass(frozen=True)
class Reparam:
    """Evaluate the inner segment at alpha t + beta."""

    ta: float
    tb: float
    inner: Segment
    alpha: float
    beta: float

    def values(self, ts):
        ts = np.asarray(ts, dtype=float)
        return self.inner.values(self.alpha * ts + self.beta)


def _reparam(seg, alpha, beta, ta, tb):
    """Wrap a segment, flattening nested reparameterisations."""
    if isinstance(seg, Reparam):
        return Reparam(
            ta, tb, seg.inner, seg.alpha * alpha, seg.alpha * beta + seg.beta
        )
    return Reparam(ta, tb, seg, alpha, beta)


def _fold(seg):
    """(inner, alpha, beta) of a segment: its values at t are inner's
    values at alpha t + beta.

    Only an outer Reparam is folded, and only one, since composing two
    affine maps would not give the same bits.  Any other segment is its
    own inner under 1.0 t + (-0.0), which gives back every t bit for
    bit; adding +0.0 instead would turn -0.0 into +0.0.
    """
    if isinstance(seg, Reparam):
        return seg.inner, seg.alpha, seg.beta
    return seg, 1.0, -0.0


# ---------------------------------------------------------------------------
# paths

# the largest magnitude of a decoded number and of a coefficient of a
# path's end values: the squared modulus of a path value overflows above
# about 1.3e154
MAX_MAGNITUDE = 1e150


@dataclass(frozen=True)
class PathSpec:
    """A contiguous piecewise path on [a, b], possibly closed.

    Its dim, the number of coefficients of its values, 4 or 8 or else
    DimensionMismatch, is read off the values of its segments; it is an
    attribute, not a field.  So is its evaluation route: every segment
    folded by _fold into per-segment arrays and the index of its inner
    among the distinct inners, so that segments sharing an inner, such
    as the copies repeat makes of one circle, are evaluated together in
    one call.  A segment end value with
    a coefficient not of magnitude at most MAX_MAGNITUDE raises
    ValueError; values between the ends are not checked.
    """

    a: float
    b: float
    segments: tuple
    closed: bool = False

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a path needs at least one segment")
        span = self.b - self.a
        if span <= 0:
            raise ValueError("domain must have positive length")
        tol = config.PARAM_SAME * span
        segs = self.segments
        if abs(segs[0].ta - self.a) > tol or abs(segs[-1].tb - self.b) > tol:
            raise EndpointMismatch("segments do not cover the domain")

        inner, alpha, beta = zip(*map(_fold, segs))
        # the distinct inners in order of first use, told apart by identity
        inners = tuple({id(x): x for x in inner}.values())
        group = {id(x): g for g, x in enumerate(inners)}
        object.__setattr__(self, "_inners", inners)
        _cache_arrays(
            self, _alpha=np.array(alpha, dtype=float),
            _beta=np.array(beta, dtype=float),
            _group=[group[id(x)] for x in inner],
            _cuts=np.array([s.ta for s in segs[1:]], dtype=float),
        )

        # each segment's values at both its ends come from one call per
        # inner; the outer ends are taken at a and b, where the closure
        # check needs them
        n = len(segs)
        los = [self.a] + [s.ta for s in segs[1:]]
        his = [s.tb for s in segs[:-1]] + [self.b]
        calls = self._inner_calls(np.array([los, his]).T.ravel(), np.repeat(np.arange(n), 2))
        # the first call is of segment 0's inner; the ends of inners of
        # another width stay zero, and _check_joins reports the first
        object.__setattr__(self, "dim", calls[0][1].shape[1])
        if self.dim not in (4, 8):
            raise DimensionMismatch(f"segment 0 has {self.dim} coefficients, not 4 or 8")
        width = np.empty(2 * n, dtype=int)
        ends = np.zeros((2 * n, self.dim))
        for rows, vals in calls:
            width[rows] = vals.shape[1]
            if vals.shape[1] == self.dim:
                ends[rows] = vals
        width, ends = width[::2], ends.reshape(n, 2, self.dim)
        # checked before any norm, which would overflow
        huge = ~(np.abs(ends) <= MAX_MAGNITUDE).all(axis=(1, 2))
        if huge.any():
            raise ValueError(f"segment {int(np.argmax(huge))} has an end value "
                             f"with a coefficient not of magnitude at most 1e150")

        if n > 1:
            self._check_joins(tol, width, ends)
        if self.closed:
            va, vb = ends[0, 0], ends[-1, 1]
            if np.linalg.norm(va - vb) > config.VALUE_SAME * np.linalg.norm(va):
                raise EndpointMismatch("closed path does not return to its start")

    def _check_joins(self, tol, width, ends) -> None:
        """Raise for the first join that fails: join k joins segment
        k - 1 to segment k, and its gap is reported before its width and
        its width before its jump.  width holds each segment's number of
        coefficients, ends its values at both its ends."""
        tas = np.array([s.ta for s in self.segments], dtype=float)
        tbs = np.array([s.tb for s in self.segments], dtype=float)
        gap = np.abs(tbs[:-1] - tas[1:]) > tol
        wide = width[1:] != self.dim
        left, right = ends[:-1, 1], ends[1:, 0]
        jump = np.linalg.norm(left - right, axis=1) > config.VALUE_SAME * np.linalg.norm(
            left, axis=1)
        bad = np.flatnonzero(gap | wide | jump)
        if len(bad):
            k = int(bad[0]) + 1
            if gap[k - 1]:
                raise EndpointMismatch("segments are not contiguous")
            if wide[k - 1]:
                raise DimensionMismatch(
                    f"segment {k} has {width[k]} coefficients, segment 0 has {self.dim}")
            raise EndpointMismatch("segments do not join continuously")

    def _inner_calls(self, ts, segs) -> list:
        """Evaluate ts[n] on segment segs[n], one call per distinct inner.

        Returns (rows, values of an inner at those rows) for each inner
        the segments use, in the order of the inners.
        """
        u = self._alpha[segs] * ts + self._beta[segs]
        groups = self._group[segs]
        calls = []
        for g in np.flatnonzero(np.bincount(groups)):
            rows = np.flatnonzero(groups == g)
            calls.append((rows, self._inners[g].values(u[rows])))
        return calls

    def value(self, t: float) -> np.ndarray:
        return self.values(np.array([t]))[0]

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Path values at many parameters, one call per distinct inner.

        A parameter belongs to the last segment starting at or before
        it; parameters within rounding of the domain are clamped into it,
        and any other parameter outside it raises OutOfDomain.  Parameters
        that all fall in one segment go to that segment; otherwise each
        distinct inner (see _fold) is called once, at the parameters of
        all its segments mapped through their folded Reparam.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.shape[0] == 0:
            return np.empty((0, self.dim))
        lo, hi = ts.min(), ts.max()
        if lo < self.a or hi > self.b:
            tol = config.PARAM_RESOLUTION * (self.b - self.a)
            outside = (ts < self.a - tol) | (ts > self.b + tol)
            if outside.any():
                t = float(ts[np.argmax(outside)])
                raise OutOfDomain(f"t={t} outside [{self.a}, {self.b}]")
            ts = np.where(self.a > ts, self.a, ts)
            ts = np.where(self.b < ts, self.b, ts)
        # index of the last segment starting at or before each parameter,
        # the first segment for parameters before every start
        segs = np.searchsorted(self._cuts, ts, side="right")
        if (segs == segs[0]).all():
            return self.segments[segs[0]].values(ts)
        out = np.empty((ts.shape[0], self.dim))
        for rows, vals in self._inner_calls(ts, segs):
            out[rows] = vals
        return out


def concat(first: PathSpec, *rest: PathSpec, closed: bool = False) -> PathSpec:
    """Join one or more paths end to end, each shifted to start where the
    one before it ends; the new path checks the joins."""
    segs = list(first.segments)
    b = first.b
    for p in rest:
        offset = b - p.a
        segs += [_reparam(s, 1.0, -offset, s.ta + offset, s.tb + offset) for s in p.segments]
        b += p.b - p.a
    return PathSpec(first.a, b, tuple(segs), closed)


def reverse(p: PathSpec) -> PathSpec:
    """The same trace walked backwards, over the same parameter interval."""
    c = p.a + p.b
    segs = tuple(
        _reparam(s, -1.0, c, c - s.tb, c - s.ta) for s in reversed(p.segments)
    )
    return PathSpec(p.a, p.b, segs, p.closed)


def repeat(p: PathSpec, m: int) -> PathSpec:
    """m copies of a closed path laid end to end."""
    if not p.closed:
        raise EndpointMismatch("only closed paths can be repeated")
    if m < 1:
        raise ValueError("repeat count must be positive")
    return concat(*[p] * m, closed=True)


def reflect_negconj(p: PathSpec) -> PathSpec:
    """Apply q -> -conj(q) to every value of the path."""
    segs = []
    for s in p.segments:
        if isinstance(s, NegConj):
            segs.append(replace(s.inner, ta=s.ta, tb=s.tb))
        else:
            segs.append(NegConj(s.ta, s.tb, s))
    return replace(p, segments=tuple(segs))


def subpath(p: PathSpec, t0: float, t1: float) -> PathSpec:
    """Restriction of the path to [t0, t1]."""
    tol = config.PARAM_RESOLUTION * (p.b - p.a)
    if t0 < p.a - tol or t1 > p.b + tol or t1 - t0 <= tol:
        raise OutOfDomain("subpath bounds outside the domain")
    segs = []
    for s in p.segments:
        lo = max(s.ta, t0)
        hi = min(s.tb, t1)
        if hi - lo > tol:
            segs.append(replace(s, ta=lo, tb=hi))
    return PathSpec(t0, t1, tuple(segs), False)


def rotate_basepoint(p: PathSpec, t_star: float) -> PathSpec:
    """Re-root a closed path at parameter t_star, keeping its orientation."""
    if not p.closed:
        raise EndpointMismatch("only closed paths can be re-rooted")
    tol = config.PARAM_RESOLUTION * (p.b - p.a)
    if abs(t_star - p.a) <= tol or abs(t_star - p.b) <= tol:
        return p
    tail = subpath(p, t_star, p.b)
    head = subpath(p, p.a, t_star)
    return concat(tail, head, closed=True)


# ---------------------------------------------------------------------------
# file formats


# every kind of segment and of coordinate function, by its JSON name
_KINDS = {
    "slice_arc": SliceArc,
    "arc": Arc,
    "line": Line,
    "slice_curve": SliceCurve,
    "samples": Samples,
    "rocket": Rocket,
    "negconj": NegConj,
    "reparam": Reparam,
    "poly": PolyFn,
    "trig": TrigFn,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}
_FUNCTIONS = (PolyFn, TrigFn)
# the kinds a field may hold, by its annotation
_FAMILY = {"Segment": tuple(c for c in _KINDS.values() if c not in _FUNCTIONS),
           "CoordFn": _FUNCTIONS}

_WANTED = {
    "float": "a number of magnitude at most 1e150",
    "tuple": "a list of numbers of magnitude at most 1e150, or of such lists",
    "Segment": "an object with a segment kind",
    "CoordFn": "an object with a function kind, poly or trig",
}


def to_json(v):
    """The JSON form of a value: a tuple is the list of its items' JSON,
    a dataclass its fields but those with metadata json=False, led by
    "kind" when its class is a kind, and any other value, such as a
    number, is itself.  A Segment or CoordFn field must hold a kind."""
    if isinstance(v, tuple):
        return [to_json(x) for x in v]
    if not is_dataclass(v):
        return v
    d = {"kind": _KIND_OF[type(v)]} if type(v) in _KIND_OF else {}
    for f in fields(v):
        if f.metadata.get("json", True):
            x = getattr(v, f.name)
            d[f.name] = segment_to_json(x) if f.type in _FAMILY else to_json(x)
    return d


def _is_number(v) -> bool:
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and abs(v) <= MAX_MAGNITUDE)


def _numbers(v):
    """A list of numbers, or of such lists, as nested tuples; None for
    any other value."""
    if not isinstance(v, (list, tuple)):
        return None
    out = tuple(x if _is_number(x) else _numbers(x) for x in v)
    return None if None in out else out


def _field_from_json(f, v, what):
    """The value of field f of a kind (named by what) decoded from v."""
    if v is None and f.default is None:
        return None
    if f.type == "float" and _is_number(v):
        return v
    if f.type == "tuple" and (t := _numbers(v)) is not None:
        return t
    if f.type in _FAMILY and isinstance(v, dict):
        x = segment_from_json(v)
        if isinstance(x, _FAMILY[f.type]):
            return x
    raise ValueError(
        f"{what} field {f.name!r} must be {_WANTED[f.type]}, got {reprlib.repr(v)}")


def segment_to_json(seg) -> dict:
    if type(seg) not in _KIND_OF:
        raise ValueError(f"unserialisable segment type {type(seg).__name__}")
    return to_json(seg)


def segment_from_json(d: dict):
    """Decode a segment or a coordinate function from its JSON form.

    A field with a default may be left out.  Each value is checked
    against its field's annotation: a float takes a number, a tuple a
    list of numbers or of such lists, a Segment a nested segment and a
    CoordFn a nested coordinate function; a number must be of magnitude
    at most MAX_MAGNITUDE, and null is taken only where the default is
    None.  An unknown or missing field, or a value of the wrong type,
    raises ValueError.
    """
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind is None:
        raise ValueError("a segment needs a kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown segment kind {reprlib.repr(kind)}")
    cls = _KINDS[kind]
    what = f"{kind} {'function' if cls in _FUNCTIONS else 'segment'}"
    fs = fields(cls)
    unknown = d.keys() - {"kind"} - {f.name for f in fs}
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {sorted(unknown)}")
    missing = [f.name for f in fs if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{what} lacks field(s) {missing}")
    return cls(**{f.name: _field_from_json(f, d[f.name], what) for f in fs if f.name in d})


def path_to_json(p: PathSpec) -> dict:
    return {
        "domain": [p.a, p.b],
        "closed": p.closed,
        "segments": [segment_to_json(s) for s in p.segments],
    }


def path_from_json(d: dict) -> PathSpec:
    for key in ("domain", "segments"):
        if key not in d:
            raise ValueError(f"a path needs {key!r}")
    unknown = d.keys() - {"domain", "closed", "segments"}
    if unknown:
        raise ValueError(f"a path has unknown field(s) {sorted(unknown)}")
    domain = d["domain"]
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2 and all(map(_is_number, domain))):
        raise ValueError(f"a path's 'domain' must be two numbers of magnitude "
                         f"at most 1e150, got {reprlib.repr(domain)}")
    closed = d.get("closed", False)
    if not isinstance(closed, bool):
        raise ValueError(f"a path's 'closed' must be true or false, got {closed!r}")
    return PathSpec(
        float(domain[0]),
        float(domain[1]),
        tuple(segment_from_json(s) for s in d["segments"]),
        closed,
    )


def csv_text(header, floats, ints=None) -> str:
    """A CSV table: the header row, then a row for each row of floats,
    each float in shortest round-trip form and followed, when ints is
    given, by that row's integer from ints."""
    rows = np.asarray(floats, dtype=float).tolist()
    if ints is not None:
        for row, k in zip(rows, np.asarray(ints).tolist()):
            row.append(k)
    return ",".join(header) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)


# ---------------------------------------------------------------------------
# sampling

# samples at the equal steps of the grid taken when adaptive sampling
# gives up; that grid holds the joins of the segments as well
FALLBACK_SAMPLES = 4097
# evaluations one adaptive sampling may spend; a path that needs more is
# left to the uniform fallback
EVAL_BUDGET = 8 * FALLBACK_SAMPLES
# maximal rotation of the imaginary direction between neighbouring
# samples, and the depth at which refinement gives up
THETA_STEP = 0.1
D_MAX = 24
# intervals of the adaptive sampler's first grid, unless sample_adaptive
# is given another n0
N0 = 64


def _geometry(ts, values, tol) -> tuple:
    """(mags, ims, real, units) of the rows q of values, taken at the
    parameters ts: |q|, |Im q|, the tol.is_real flag, and the unit
    Im q / |Im q| of a non-real row, zeros (of either sign) on a real
    one, whose |Im q| may be 0.  The norms are algebra.row_norms, so
    each is bit for bit what its value alone gives.
    Every batch of path values, a grid's or a probe's, is read here, and
    a value of modulus at most tol.eps_real, the one absolute test of a
    value, raises ZeroOnPath."""
    mags = row_norms(values)
    zero = mags <= tol.eps_real
    if zero.any():
        raise ZeroOnPath(f"path value vanishes near t={float(ts[np.argmax(zero)])}")
    ims = row_norms(values[:, 1:])
    real = tol.is_real(ims, mags)
    # Im / inf, a real row's unit, is 0 with no division by zero
    return mags, ims, real, values[:, 1:] / np.where(real, np.inf, ims)[:, None]


@dataclass(frozen=True)
class SampledPath:
    """Parameter grid and path values; values[n] is never zero.

    Each sample's geometry is computed once, at construction, under tol,
    the tolerances in force when it was sampled, and every stage after
    sampling reads both: mags and ims are the norms of the values and of
    their imaginary parts, real their tol.is_real flags, units the unit
    Im/|Im| of each non-real value and zero at a real one (see
    _geometry), and stretches the (start, stop) rows of each maximal run
    values[start:stop] of real samples.  These are read-only
    attributes, not fields.  A value of modulus at most tol.eps_real
    raises ZeroOnPath.
    """

    params: np.ndarray
    values: np.ndarray
    tol: config.Tolerances = field(default_factory=config.IN_FORCE.get)

    def __post_init__(self):
        mags, ims, real, units = _geometry(self.params, self.values, self.tol)
        change = np.diff(real.astype(np.int8), prepend=0, append=0)
        stretches = np.stack(
            [np.flatnonzero(change == 1), np.flatnonzero(change == -1)], axis=1)
        _cache_arrays(self, mags=mags, ims=ims, real=real, units=units, stretches=stretches)

    @property
    def dim(self):
        return self.values.shape[1]

    def to_csv(self) -> str:
        header = ["t", "re"] + [f"im{c}" for c in range(1, self.dim)]
        return csv_text(header, np.column_stack((self.params, self.values)))

    @classmethod
    def from_csv(cls, text: str) -> "SampledPath":
        rows = list(csv.reader(io.StringIO(text)))
        data = np.array([[float(x) for x in r] for r in rows[1:]])
        return cls(data[:, 0], data[:, 1:])


def sample_uniform(spec: PathSpec, n: int) -> SampledPath:
    """Samples of n - 1 equal intervals of the domain, with the joins of
    the path's segments added as nodes (see _first_grid): n samples on a
    path of one segment, more where a join is no node of the n."""
    ts = _first_grid(spec, n - 1)
    return SampledPath(ts, spec.values(ts))


def _first_grid(spec: PathSpec, n: int) -> np.ndarray:
    """n equal intervals of the domain, with the joins of the path's
    segments added as nodes, so that a contact at a join lies on a node."""
    return np.union1d(np.linspace(spec.a, spec.b, n + 1), spec._cuts)


class _Nodes(NamedTuple):
    """The adaptive sampler's evaluated nodes, one buffer per column: the
    parameter t, |q|, |Im q|, the realness flag (0.0 or 1.0), the value q and
    the unit of Im q (see _geometry).  Row n of each is node n."""

    t: np.ndarray
    mag: np.ndarray
    im: np.ndarray
    real: np.ndarray
    v: np.ndarray
    unit: np.ndarray


def sample_adaptive(spec: PathSpec, n0: int = N0) -> SampledPath:
    """Refine a first grid until the path is geometrically resolved.

    The first grid is n0 equal intervals with the joins of the path's
    segments added as nodes, so that a contact at a join lies on a node.
    An interval is split while the imaginary direction rotates more than
    the step tolerance, the modulus changes by more than ten percent, or
    the interval looks like it brackets a contact with the real axis and
    is still longer than a millionth of the domain; one whose nodes and
    midpoint are all real is a real run and is not split, unless their
    real parts differ in sign.  An interval with exactly one real node
    and a non-real midpoint stops splitting once only the end of the
    real set is left to find: when its non-real half is aligned within
    THETA_STEP, its modulus changes by at most ten percent, and the
    interval beside it on its non-real side is neither split nor a
    crossing at this level (one at an end of the domain, with no such
    neighbour, is split, so that its halves have one).  find_obstructions
    solves for that end.  The neighbour's test keeps a direction that
    spins without limit towards the node, which dyadic nodes alias, in
    refinement until the sampler gives up.  An interval with no real
    node whose
    direction reverses in exactly one half, both halves aligned within
    THETA_TOL, over which the argument of x + i<Im, u> (u the direction
    at its left end) turns by less than a quarter turn, brackets an axis
    crossing inside one slice, unless its nodes are so near the axis
    that the crossing's real set could be long: it is not halved down
    to a millionth of the domain.  Its midpoint is kept, and only the
    half without the reversal is tested further: the ends of the other
    point apart, where find_obstructions finds the crossing (see
    obstruction._crossing_brackets).  Refinement runs level by level:
    the midpoints of all intervals of one depth are evaluated in one
    call and written once, after the nodes so far, to buffers of one
    column each (t, |q|, |Im q|, the realness flag, the value and the
    unit; see _Nodes).  An interval is the pair (li, ri) of its nodes'
    buffer rows; the midpoint of one that needs a split, or holds a
    crossing, is inserted into the grid as row mi, and its halves
    (li, mi) and (mi, ri), less a crossing's bracket, are the next
    level's.  The grid is assembled once, at the end: the first grid's
    rows and the inserted ones, sorted by t.

    Giving up raises RefinementBudgetExceeded, which is the designed
    failure mode for paths whose direction oscillates without limit near
    the axis.  That happens when an interval still needs a split at
    depth D_MAX, or when the next level would take the evaluations past
    EVAL_BUDGET.  The error's ``unresolved`` lists, sorted by their left
    ends, the (t_left, t_right) brackets left unresolved: those still
    splitting at depth D_MAX, or, when the budget ran out, those still
    waiting for their midpoint.  Its ``sampled`` is the grid so far,
    which covers [a, b] and holds the ends of those brackets.  A path
    value of modulus at most eps_real at any evaluated parameter raises
    ZeroOnPath.  An n0 that is not an integer of at least 1 raises
    ValueError.
    """
    if not isinstance(n0, (int, np.integer)) or n0 < 1:
        raise ValueError(f"n0 must be an integer >= 1, got {n0!r}")
    tol = config.IN_FORCE.get()
    nodes, rows, lo, hi = _refine(spec, n0, tol)
    sampled = _grid(nodes, rows, tol)
    if len(lo):
        brackets = list(zip(lo.tolist(), hi.tolist()))
        raise RefinementBudgetExceeded(
            f"refinement budget exhausted on {len(brackets)} bracket(s), "
            f"first near t={brackets[0][0]!r}",
            sampled=sampled,
            unresolved=brackets,
        )
    return sampled


def _refine(spec: PathSpec, n0: int, tol: config.Tolerances) -> tuple:
    """(nodes, rows, lo, hi) of sample_adaptive's refinement of spec from
    its first grid of n0 intervals under tol: the evaluated nodes (a
    _Nodes), the rows of them that make the grid, in the order they went
    in (see _grid), and the unresolved brackets [lo, hi], sorted by lo,
    none when the path was resolved."""
    span = spec.b - spec.a
    h_cross = span * 1e-6
    h_floor = span * 2.0 ** -40
    first = _first_grid(spec, n0)
    # no more rows than the budget allows are evaluated; the columns share
    # one allocation, whose pages of rows never written stay untouched
    size, dim = max(len(first), EVAL_BUDGET), spec.dim
    flat = np.empty((2 * dim + 3) * size)
    nodes = _Nodes(*flat[:4 * size].reshape(4, size),
                   flat[4 * size:(4 + dim) * size].reshape(size, dim),
                   flat[(4 + dim) * size:].reshape(size, dim - 1))
    evaluations = 0

    def evaluate(ts: np.ndarray) -> slice:
        # the rows of new nodes at ts, written after the rows so far
        nonlocal evaluations
        rows = slice(evaluations, evaluations + len(ts))
        values = spec.values(ts)
        nodes.t[rows], nodes.v[rows] = ts, values
        nodes.mag[rows], nodes.im[rows], nodes.real[rows], nodes.unit[rows] = _geometry(
            ts, values, tol)
        evaluations = rows.stop
        return rows

    grid = [np.arange(len(first))]
    evaluate(first)
    count = len(first) - 1  # intervals of the grid
    li, ri = grid[0][:-1], grid[0][1:]
    k = li.copy()  # the place of each interval li[j], ri[j] in the grid
    depth = 0
    while len(k):
        t_l, t_r = nodes.t[li], nodes.t[ri]
        keep = t_r - t_l > h_floor
        k, li, ri = k[keep], li[keep], ri[keep]
        if evaluations + len(k) > EVAL_BUDGET:
            break
        # the midpoints' rows are one slice while they are tested
        mi = evaluate(0.5 * (t_l[keep] + t_r[keep]))
        split, halves = _needs_split(nodes, li, mi, ri, h_cross, tol, k, count)
        if depth >= D_MAX:
            # no midpoint goes in: a crossing's bracket is its interval
            k, li, ri = k[split], li[split], ri[split]
            break
        grow = split
        if len(halves):
            grow = split.copy()
            grow[halves // 2] = True
            # the same halves, counted among those of the growing intervals
            halves = 2 * np.cumsum(grow)[halves // 2] - 2 + halves % 2
        # the midpoint of the j-th growing interval takes place k[j] + j + 1
        k, li, ri = k[grow], li[grow], ri[grow]
        mi = mi.start + np.flatnonzero(grow)
        k += np.arange(len(k))
        grid.append(mi)
        count += len(mi)
        # both halves of a split go on to the next level; of a crossing,
        # the half that holds the reversal is its bracket, the other goes on
        k, li, ri = _interleave(k, k + 1), _interleave(li, mi), _interleave(mi, ri)
        if len(halves):
            keep = np.ones(len(k), dtype=bool)
            keep[halves] = False
            k, li, ri = k[keep], li[keep], ri[keep]
        depth += 1

    return nodes, np.concatenate(grid), nodes.t[li], nodes.t[ri]


def _grid(nodes: _Nodes, rows: np.ndarray, tol: config.Tolerances) -> SampledPath:
    """The grid of the rows of nodes, assembled once: sorted by t."""
    rows = rows[np.argsort(nodes.t[rows])]
    return SampledPath(nodes.t[rows], nodes.v[rows], tol)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...: a and b of one length, interleaved."""
    out = np.empty(2 * len(a), dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def _needs_split(nodes, li, mi, ri, h_cross, tol, k, count) -> tuple:
    """(split, halves) of the intervals with node rows li, ri and midpoint
    rows mi (an index array or a slice) of nodes, a _Nodes, under the
    tolerances tol, intervals k, in increasing order, of a grid of count
    intervals: which need a split, and, for each one left unsplit as an
    axis crossing, its half that holds the reversal of the direction,
    numbered 2j for the left half of interval j and 2j + 1 for its right
    half."""
    length = nodes.t[ri] - nodes.t[li]
    real_l, real_m, real_r = nodes.real[li], nodes.real[mi], nodes.real[ri]
    im_l, im_m, im_r = nodes.im[li], nodes.im[mi], nodes.im[ri]
    mag_l, mag_m, mag_r = nodes.mag[li], nodes.mag[mi], nodes.mag[ri]
    x_l, x_m, x_r = nodes.v[li, 0], nodes.v[mi, 0], nodes.v[ri, 0]
    reals = real_l + real_m + real_r
    # an interval that looks like it brackets a contact
    contact = (reals > 0.0) | (im_m < 0.3 * np.minimum(im_l, im_r))
    mags_max = np.maximum(np.maximum(mag_l, mag_m), mag_r)
    mags_min = np.minimum(np.minimum(mag_l, mag_m), mag_r)
    # compare both halves: an endpoint-only test can alias against
    # direction fields that rotate through full turns between nodes
    unit_m = nodes.unit[mi]
    d1 = row_dots(nodes.unit[li], unit_m)
    d2 = row_dots(unit_m, nodes.unit[ri])
    closeness = np.minimum(np.abs(d1), np.abs(d2))
    back1, back2 = d1 < 0.0, d2 < 0.0
    long = length > h_cross
    turning = (
        (mags_max / mags_min > 1.1) | ~(closeness >= math.cos(THETA_STEP)) | (back1 & back2)
    )
    # a clean reversal of the direction in one half is an axis crossing,
    # not rotation; it is refined only down to the crossing scale
    crossing = long & (back1 != back2)
    # a real run cannot pass through 0, so three real rows whose real
    # parts differ in sign are not one run: a grid whose spacing a loop's
    # period divides can put every node and midpoint on the axis
    sign = np.sign(x_m)
    mixed = (np.sign(x_l) != sign) | (np.sign(x_r) != sign)
    split = np.where(contact, long & ((reals < 3.0) | mixed), turning | crossing)
    # An interval with one real node and a non-real midpoint stops when
    # its non-real half (the midpoint and the non-real node) is aligned
    # within THETA_STEP, its modulus is steady, and the interval beside
    # it on its non-real side is neither split nor a crossing (a crossing
    # is split until the test below): dyadic nodes can alias a direction
    # that spins towards the node, but the intervals beside still turn.
    # Without such a neighbour, at an end of the domain, it splits, so
    # that its halves have one.
    e = np.flatnonzero(reals == 1.0)
    if len(e):
        e = e[split[e] & (real_m[e] == 0.0)]
        on_left = real_l[e] != 0.0
        steady = (np.where(on_left, d2[e], d1[e]) >= math.cos(THETA_STEP)) & (
            mags_max[e] / mags_min[e] <= 1.1)
        e, on_left = e[steady], on_left[steady]
        # the neighbour's interval, and its row if it is tested at this level
        g = k[e] + np.where(on_left, 1, -1)
        row = np.minimum(np.searchsorted(k, g), len(k) - 1)
        split[e[~np.where(k[row] == g, split[row], (g < 0) | (g >= count))]] = False
    # A crossing inside one slice, between non-real nodes whose
    # directions agree up to sign within THETA_TOL, is not split for its
    # length, and its root is left to find_obstructions.  A turn that
    # only comes near the axis leaves the directions further apart, and
    # is still refined.
    c = np.flatnonzero(crossing & (reals == 0.0) & (closeness >= math.cos(config.THETA_TOL)))
    if len(c):
        # Such a crossing is still split where it turns, or changes its
        # modulus, away from the axis; and where its nodes are so near
        # the axis that the real set about a simple root, 2 eps_real |q|
        # (r - l) / (|Im_l| + |Im_r|) long, could reach a quarter of the
        # crossing scale: halved as before, that real set shows as a real
        # stretch of the grid.
        c = c[(contact[c] | ~turning[c]) & (
            8.0 * tol.eps_real * mags_max[c] * length[c]
            < h_cross * (im_l[c] + im_r[c]))]
        # It is a bracket only while the argument of x + i<Im, u> (u the
        # direction at the left end) turns by less than a quarter turn
        # over both halves: three nodes of a path that turns by more can
        # alias several crossings into one.  Aligned as the nodes are,
        # <Im, u> is |Im| d1 at the midpoint and -|Im| at the right end.
        z_l = x_l[c] + 1j * im_l[c]
        z_m = x_m[c] + 1j * (im_m[c] * d1[c])
        z_r = x_r[c] - 1j * im_r[c]
        c = c[np.abs(np.angle(z_m / z_l)) + np.abs(np.angle(z_r / z_m)) < math.pi / 2]
        split[c] = False
        c = 2 * c + back2[c]
    return split, c


def sample_path(spec: PathSpec) -> tuple[SampledPath, str]:
    """Adaptive samples of a path from the sampler's default initial
    grid, or, when the adaptive sampler gives up,
    sample_uniform(spec, FALLBACK_SAMPLES), whose grid holds the joins
    as the adaptive sampler's first grid does, so that a contact at a
    join lies on a node; the second item names the sampler that ran,
    "adaptive" or "uniform_fallback".  The refinement is sample_adaptive's;
    on giving up no partial grid or list of brackets is built, since
    none is read.  Every question samples its path here, through
    obstruction.obstruct_path, so none of them takes a sampling
    parameter."""
    tol = config.IN_FORCE.get()
    nodes, rows, lo, _hi = _refine(spec, N0, tol)
    if len(lo):
        return sample_uniform(spec, FALLBACK_SAMPLES), "uniform_fallback"
    return _grid(nodes, rows, tol), "adaptive"
