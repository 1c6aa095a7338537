"""Seeded benchmark inputs and the oracles that check every answer.

A workload is a pool of questions built from a seed.  A question is one
library call on one generated path, together with a check of its answer
that does not trust the library: generated
loops carry their analytic coordinates, so windings and the end value
of every lift are recomputed here from the path formula; corpus paths
are checked against ``DemoCase.expected``.

Draws are stratified (one draw per equal-width stratum, then shuffled)
so that every seed sees the same spread of scales, turn counts and
sizes; the seed decides the exact values, slices, offsets and order.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hyperlog as hl  # noqa: E402
from hyperlog.pathkit import (  # noqa: E402
    PathSpec,
    SampledPath,
    Samples,
    SliceCurve,
    TrigFn,
    subpath,
)

# question kinds; lift_p50_ms and loop_p50_ms are taken over LIFT and LOOP
LIFT = "lift"
LOOP = "loop"
BRANCH = "branch"

TWO_PI = 2.0 * math.pi
# Smallest loop scale and slice_circle radius of loop_questions.  Loops
# this small that start on the real axis get winding=None (ROADMAP open
# item 2) whatever their other parameters.  Between about 1e-2 and 0.2
# whether they do depends on those parameters, so the seeded scales
# start above that band: every seed then asks the same number of
# questions the library answers wrongly.
SMALL_SCALE = 1e-3
SCALE_LO, SCALE_HI = 0.5, 1e2
LIFT_TOL = 1e-8      # relative residual of exp(lift) against the path
END_TOL = 1e-7       # end value of a lift against the oracle angle


@dataclass
class Question:
    """One question of a workload: the library call ``call`` on a path
    with the values of ``spec`` (the traced run passes an
    evaluation-counting copy), and the ``check`` of its answer."""

    qid: str
    kind: str
    spec: PathSpec
    call: Callable
    check: Callable
    directives: tuple = ()


# ---------------------------------------------------------------------------
# seeded draws


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n uniform draws on [lo, hi), one per equal-width stratum, shuffled."""
    out = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(out)
    return out


def log_uniform(rng, n, lo, hi) -> list:
    return [10.0 ** e for e in stratified(rng, n, math.log10(lo), math.log10(hi))]


def random_unit(rng: random.Random, dim: int) -> np.ndarray:
    u = np.array([rng.gauss(0.0, 1.0) for _ in range(dim - 1)])
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# generated single-slice loops


@dataclass(frozen=True)
class TrigLoop:
    """s (c + e^{i(n t + phase)}) in the slice of ``unit``, t in [0, 2 pi].

    Its planar winding around the origin is ``turns`` when the unit
    circle around c encloses the origin, and 0 otherwise.
    """

    unit: tuple
    scale: float
    turns: int
    cx: float
    cy: float
    phase: float
    category: str

    @property
    def winding(self) -> int:
        return self.turns if self.category == "wind" else 0

    def xy(self, t):
        th = self.turns * np.asarray(t, dtype=float) + self.phase
        return (
            self.scale * (self.cx + np.cos(th)),
            self.scale * (self.cy + np.sin(th)),
        )

    def spec(self) -> PathSpec:
        s, n, ph = self.scale, self.turns, self.phase
        x = TrigFn(s * self.cx, ((n, s * math.cos(ph)),), ((n, -s * math.sin(ph)),))
        y = TrigFn(s * self.cy, ((n, s * math.sin(ph)),), ((n, s * math.cos(ph)),))
        seg = SliceCurve(0.0, TWO_PI, (0.0, *self.unit), x, y)
        return PathSpec(0.0, TWO_PI, (seg,), closed=True)


def trig_loop(rng, dim, scale, turns, category, on_axis, u=None) -> TrigLoop:
    """A loop that misses the axis, crosses it around an outside origin,
    or winds around the origin; on_axis puts the basepoint on the axis.
    u in [0, 1) places the centre within its range: the distance from
    the axis of a missing loop, the height of a crossing one, the
    distance from the origin of a winding one; by default it is drawn."""
    u = rng.random() if u is None else u
    if category == "miss":
        cx = rng.uniform(-1.5, 1.5)
        cy = rng.choice((-1.0, 1.0)) * (1.3 + 1.2 * u)
    elif category == "cross":
        cx = rng.choice((-1.0, 1.0)) * rng.uniform(1.3, 2.5)
        cy = -0.7 + 1.4 * u
    else:
        rho, ang = 0.7 * u, rng.uniform(0.0, TWO_PI)
        cx, cy = rho * math.cos(ang), rho * math.sin(ang)
    if on_axis and category != "miss":
        a = math.asin(-cy)
        phase = a if rng.random() < 0.5 else math.pi - a
    else:
        phase = rng.uniform(0.0, TWO_PI)
    unit = tuple(float(c) for c in random_unit(rng, dim))
    return TrigLoop(unit, scale, turns, cx, cy, phase, category)


def generated_loops(rng: random.Random, turns, lo: float, hi: float):
    """A missing, a crossing and a winding loop for each turn count.  In
    each category the smallest scale is SMALL_SCALE and the others are
    log-uniform on [lo, hi]; scales and centres are stratified, and which
    turn count gets which stratum is fixed, so that every seed asks
    loops of nearly the same cost.  The crossing and winding loops of
    even scale rank, the smallest among them included, start on the
    axis."""
    loops = []
    k = len(turns)
    for c, category in enumerate(("miss", "cross", "wind")):
        scales = [SMALL_SCALE] + sorted(log_uniform(rng, k - 1, lo, hi))
        centres = sorted(stratified(rng, k, 0.0, 1.0))
        for j, n in enumerate(turns):
            rank = (j + 3 * c) % k
            dim = 4 + 4 * (rank // 2 % 2)
            loops.append(trig_loop(rng, dim, scales[rank], n, category,
                                   rank % 2 == 0, centres[(3 * j + c) % k]))
    return loops


# ---------------------------------------------------------------------------
# oracles


def is_real(v: np.ndarray) -> bool:
    return float(np.linalg.norm(v[1:])) <= 1e-9 * max(1.0, float(np.linalg.norm(v)))


def exp_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise hypercomplex exponential e^x (cos|y| + sin|y| y/|y|)."""
    x, y = values[:, 0], values[:, 1:]
    yn = np.linalg.norm(y, axis=1)
    out = np.empty_like(values)
    out[:, 0] = np.exp(x) * np.cos(yn)
    sinc = np.where(yn > 0.0, np.sin(yn) / np.where(yn > 0.0, yn, 1.0), 1.0)
    out[:, 1:] = (np.exp(x) * sinc)[:, None] * y
    return out


def path_values(spec: PathSpec, ts: np.ndarray) -> np.ndarray:
    """Path values at many parameters, one segment call per segment."""
    ts = np.asarray(ts, dtype=float)
    starts = np.array([s.ta for s in spec.segments])
    idx = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, len(starts) - 1)
    out = np.empty((len(ts), spec.dim))
    for n in np.unique(idx):
        m = idx == n
        out[m] = spec.segments[n].values(ts[m])
    return out


def lift_matches_path(res, spec) -> bool:
    """exp(lift) reproduces the path at every lift sample."""
    if res.status != "ok":
        return False
    vals = path_values(spec, res.lift.params)
    resid = np.linalg.norm(exp_rows(res.lift.values) - vals, axis=1)
    return bool(np.all(resid <= LIFT_TOL * np.maximum(1.0, np.linalg.norm(vals, axis=1))))


@dataclass(frozen=True)
class LiftOracle:
    """Expected logarithm at the end of a lift of a single-slice path.

    Along x + u y the continuous logarithm from the principal start is
    log|gamma| + d phi, where d = +-u is the starting direction and phi
    the continuous angle of x + i <Im gamma, d>.
    """

    direction: np.ndarray   # d
    needs_unit: bool        # start on the negative axis
    end: np.ndarray         # expected lift value at the end


def lift_oracle(unit, x, y) -> LiftOracle:
    """From planar coordinates x, y sampled finely enough that the angle
    steps stay below pi; x[0], y[0] is the start."""
    u = np.asarray(unit, dtype=float)
    v0 = np.concatenate(([x[0]], y[0] * u))
    if is_real(v0):
        s = 1.0 if y[1] - y[0] > 0 else -1.0
        phi0 = 0.0 if x[0] > 0 else math.pi
        needs_unit = x[0] < 0
    else:
        s = 1.0 if y[0] > 0 else -1.0
        phi0 = math.atan2(abs(y[0]), x[0])
        needs_unit = False
    z = x + 1j * s * y
    steps = np.angle(z[1:] * np.conj(z[:-1]))
    phi = phi0 + float(np.sum(steps))
    end = np.concatenate(([math.log(abs(z[-1]))], s * u * phi))
    return LiftOracle(s * u, needs_unit, end)


def end_matches(end, want: LiftOracle) -> bool:
    end = np.asarray(end, dtype=float)
    tol = END_TOL * max(1.0, float(np.linalg.norm(want.end)))
    return float(np.linalg.norm(end - want.end)) <= tol


def check_lift(spec, want: LiftOracle, closed_lift=None):
    def check(res):
        return (
            res.status == "ok"
            and end_matches(res.lift.values[-1], want)
            and (closed_lift is None or res.closed_lift is closed_lift)
            and lift_matches_path(res, spec)
        )
    return check


def check_loop(twisted, winding=None, circ=None, abs_circ=None):
    def check(res):
        return (
            res.twisted is twisted
            and res.winding == winding
            and (circ is None or res.circular_signature == circ)
            and (abs_circ is None or abs(res.circular_signature or 0) == abs_circ)
        )
    return check


def equals(value):
    return lambda got: got == value


# ---------------------------------------------------------------------------
# library questions


def _lift(initial=None, directives=()):
    return lambda spec: hl.lift_path(spec, initial_unit=initial, directives=directives)


def _loop(directives=()):
    return lambda spec: hl.analyze_loop(spec, directives)


def _branch(basepoint, initial=None):
    return lambda spec: hl.branch_change_report(spec, basepoint, initial)


def trig_questions(tag: str, loop: TrigLoop, rng: random.Random):
    """analyze_loop and lift_path on a loop, and lift_path on an open
    sub-arc of it."""
    spec = loop.spec()
    w = loop.winding
    t = np.linspace(0.0, TWO_PI, 4096 * loop.turns + 1)
    want = lift_oracle(loop.unit, *loop.xy(t))
    initial = want.direction if want.needs_unit else None
    qs = [
        Question(f"{tag}.loop", LOOP, spec, _loop(),
                 check_loop(False, w, abs_circ=2 * w)),
        Question(f"{tag}.lift", LIFT, spec, _lift(initial),
                 check_lift(spec, want, closed_lift=(w == 0))),
    ]
    length = math.pi * rng.uniform(0.8, 1.2)
    t0 = rng.uniform(0.0, TWO_PI - length)
    sub = subpath(spec, t0, t0 + length)
    ts = np.linspace(t0, t0 + length, 4096 * loop.turns + 1)
    want_sub = lift_oracle(loop.unit, *loop.xy(ts))
    init_sub = want_sub.direction if want_sub.needs_unit else None
    qs.append(Question(f"{tag}.arc.lift", LIFT, sub, _lift(init_sub),
                       check_lift(sub, want_sub)))
    return qs


def corpus_questions(name, case, rng, n_basepoints=2):
    """analyze_loop, lift_path and branch_change_report on a corpus loop,
    checked against its recorded expectations."""
    spec, exp = case.path, case.expected
    qs = []
    for comp, directives in (sorted(case.directives.items()) or [(None, ())]):
        tag = name if comp is None else f"{name}[{comp}]"
        if "winding" in exp:
            w = exp["winding"][comp] if comp else exp["winding"]
            circ = exp.get("circular_signature")
            circ = circ[comp] if isinstance(circ, dict) else circ
            loop_check = check_loop(False, w, circ=circ)
        elif exp.get("twisted") is True:
            loop_check = check_loop(True)
        else:
            # a not-tame or semi-tame contact leaves the loop without companion
            loop_check = check_loop(None)
        qs.append(Question(f"{tag}.loop", LOOP, spec, _loop(directives),
                           loop_check, directives))
        initial = None
        if case.initial_units:
            first = sorted(case.basepoints, key=case.basepoints.get)[0]
            if case.basepoints[first] == spec.a and first in case.initial_units:
                initial = np.array(case.initial_units[first][1:])
        closed = exp.get("closed_lift")
        if closed is None and "winding" in exp:
            closed = w == 0

        def lift_check(res, closed=closed):
            return (
                res.status == "ok"
                and (closed is None or res.closed_lift is closed)
                and lift_matches_path(res, spec)
            )

        qs.append(Question(f"{tag}.lift", LIFT, spec, _lift(initial, directives),
                           lift_check, directives))
    changes = exp.get("branch_change", {})
    names = sorted(changes)
    rng.shuffle(names)
    for bp in sorted(names[:n_basepoints]):
        initial = case.initial_units.get(bp)
        initial = None if initial is None else np.array(initial[1:])
        qs.append(Question(f"{name}.branch[{bp}]", BRANCH, spec,
                           _branch(case.basepoints[bp], initial),
                           equals(changes[bp])))
    return qs


def rocket_questions(name, case):
    spec = case.path
    liftable = case.expected["liftable"]
    if liftable:
        def lift_check(res):
            return (res.status == "ok" and res.closed_lift is True
                    and res.sampling == "uniform_fallback"
                    and lift_matches_path(res, spec))
        initial = None
    else:
        def lift_check(res):
            return res.status == "fails_at" and res.sampling == "uniform_fallback"
        # the start is -1, so any lift needs a starting direction
        initial = np.array([1.0, 0.0, 0.0])
    return [
        Question(f"{name}.loop", LOOP, spec, _loop(), check_loop(None)),
        Question(f"{name}.lift", LIFT, spec, _lift(initial), lift_check),
    ]


# ---------------------------------------------------------------------------
# imported sample loops


def samples_loop(rng, n_points, scale, turns, category) -> tuple:
    """A trig loop sampled at n_points, passed through the CSV format of
    SampledPath the way imported data arrives, as one Samples segment."""
    loop = trig_loop(rng, rng.choice((4, 8)), scale, turns, category, False)
    ts = np.linspace(0.0, TWO_PI, n_points)
    x, y = loop.xy(ts)
    vals = np.outer(y, (0.0, *loop.unit))
    vals[:, 0] += x
    vals[-1] = vals[0]
    data = SampledPath.from_csv(SampledPath(ts, vals).to_csv())
    seg = Samples(0.0, TWO_PI, tuple(data.params.tolist()),
                  tuple(tuple(r) for r in data.values.tolist()))
    spec = PathSpec(0.0, TWO_PI, (seg,), closed=True)
    u = np.asarray(loop.unit)
    # the path is the polygon through the samples: its angle steps are
    # those between consecutive vertices
    want = lift_oracle(loop.unit, data.values[:, 0], data.values[:, 1:] @ u)
    z = data.values[:, 0] + 1j * (data.values[:, 1:] @ u)
    w = abs(round(float(np.sum(np.angle(z[1:] * np.conj(z[:-1])))) / TWO_PI))
    return spec, want, w


# ---------------------------------------------------------------------------
# workloads


def build(workload: str, seed: int, demo=hl.demo) -> list:
    """The questions of a workload, in the order they are asked; ``demo``
    builds corpus cases."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "loop_questions":
        qs = _loop_questions(rng, demo)
    elif workload == "dense_paths":
        qs = _dense_paths(rng, demo)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(qs)
    return qs


def _loop_questions(rng, demo) -> list:
    qs = []
    for k, loop in enumerate(generated_loops(rng, range(1, 9), SCALE_LO, SCALE_HI)):
        qs += trig_questions(f"trig{k:02d}", loop, rng)
    names = ["lambda_loop", "three_exp", "meridians"]
    names += [f"gamma1m_gamma2({m})" for m in range(1, 9)]
    radii = [SMALL_SCALE] + log_uniform(rng, 3, SCALE_LO, SCALE_HI)
    names += [f"slice_circle({rng.choice('ijk')},{r:.4g},{n})"
              for r, n in zip(radii, (1, 2, 4, 8))]
    for name in names:
        basepoints = 2 if name == "lambda_loop" else 1
        qs += corpus_questions(name, demo(name), rng, n_basepoints=basepoints)
    return qs


def _dense_paths(rng, demo) -> list:
    qs = []
    for name in ("rocket_neg", "rocket_pos"):
        qs += rocket_questions(name, demo(name))
    # few inputs, each of them costly: a run gets through many passes, so
    # the fastest of a question's passes is near what the machine allows
    for m in range(24, 65, 10):
        name = f"gamma1m_gamma2({m})"
        qs += corpus_questions(name, demo(name), rng, n_basepoints=0)
    scales = log_uniform(rng, 2, 0.1, 10.0)
    shapes = ((1000, 3, "wind"), (4097, 1, "cross"))
    for k, (s, (n, turns, category)) in enumerate(zip(scales, shapes)):
        spec, want, w = samples_loop(rng, n, s, turns, category)
        initial = want.direction if want.needs_unit else None
        qs.append(Question(f"samples{k}.loop", LOOP, spec, _loop(),
                           check_loop(False, w, abs_circ=2 * w)))
        qs.append(Question(f"samples{k}.lift", LIFT, spec, _lift(initial),
                           check_lift(spec, want, closed_lift=(w == 0))))
    return qs


def ask(q: Question, spec: PathSpec | None = None):
    """The library's raw answer to a question (on ``spec`` when given),
    or the exception it raised instead."""
    try:
        return q.call(q.spec if spec is None else spec)
    except Exception as e:  # noqa: BLE001 - judged as a wrong answer
        return e


def judge(q: Question, got):
    """(correct, comparable form) of a raw answer.  An expected refusal
    (a non-liftable lift, a twisted winding) is an answer like any other
    and goes to the check; a question that raised answered wrongly."""
    if isinstance(got, Exception):
        return False, type(got).__name__
    return bool(q.check(got)), fingerprint(got)


def fingerprint(got):
    """A comparable summary of a library answer."""
    if isinstance(got, hl.WindingResult):
        return ("loop", got.twisted, got.winding, got.circular_signature,
                got.signature, len(got.flips))
    if isinstance(got, hl.LiftResult):
        end = None if got.lift is None else tuple(got.lift.values[-1].tolist())
        return ("lift", got.status, got.closed_lift, got.sampling, end)
    return got

