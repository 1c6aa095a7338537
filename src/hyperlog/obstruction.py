"""Locating and classifying the contacts of a path with the real axis.

A sampled path is scanned for real values.  Isolated contacts become
Contact records with one-sided imaginary-direction limits; maximal real
sub-intervals become RealRun records.  Components of the path off the
axis whose flanking real values have opposite signs are the big arcs;
the gaps between consecutive big arcs are the axis intervals that drive
signatures and winding numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _brent, config
from .errors import HypothesisViolated, ZeroOnPath
from .pathkit import PathSpec, SampledPath

FLIP = "flip"
BOUNCE = "bounce"
SEMI_TAME = "semi_tame"
NOT_TAME = "not_tame"
ENDPOINT_TAME = "endpoint_tame"
ENDPOINT_NOT_TAME = "endpoint_not_tame"
UNRESOLVED = "unresolved"

# contact kinds without the direction limits a continuation needs; the
# ENDPOINT_* kinds only arise on open paths (find_obstructions classifies
# every contact of a closed path as interior), so on a closed report this
# set is {SEMI_TAME, NOT_TAME}
BAD_KINDS = (SEMI_TAME, NOT_TAME, ENDPOINT_NOT_TAME)

# offsets of a one-sided limit evaluated per path call
LIMIT_CHUNK = 8
# halvings of a real/non-real edge resolved per path call
BISECT_LEVELS = 5


@dataclass(frozen=True)
class Contact:
    """An isolated parameter where the path value is real."""

    t: float
    value: float
    sign: int
    left_dir: tuple | None
    right_dir: tuple | None
    kind: str
    wrap: bool = False


@dataclass(frozen=True)
class RealRun:
    """A maximal positive-length parameter interval of real values.

    A run that wraps through the end of a closed path is stored with
    t1 > b; the piece beyond b is to be read modulo the period.
    """

    t0: float
    t1: float
    sign: int
    in_dir: tuple | None
    out_dir: tuple | None
    wrap: bool = False


@dataclass(frozen=True)
class AxisInterval:
    """A gap between consecutive big arcs, possibly of zero length."""

    t0: float
    t1: float
    sign: int
    in_dir: tuple | None
    out_dir: tuple | None
    kind: str
    non_unique: bool
    wrap: bool
    contacts: tuple
    runs: tuple


@dataclass(frozen=True)
class ObstructionReport:
    contacts: tuple
    runs: tuple
    big_arcs: tuple
    intervals: tuple
    tame: bool
    companion_unique: bool
    closed: bool


def _is_real_vec(v: np.ndarray) -> bool:
    return config.is_real(float(np.linalg.norm(v[1:])), float(np.linalg.norm(v)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v[1:] / np.linalg.norm(v[1:])


def one_sided_direction(
    spec: PathSpec, t: float, side: int, h0: float | None = None
) -> np.ndarray | None:
    """Limit of Im(gamma)/|Im(gamma)| as the parameter approaches t.

    side is +1 for the right limit and -1 for the left one.  The limit
    is chased along a halving sequence of offsets, evaluated
    LIMIT_CHUNK at a time; it counts as found when three consecutive
    directions agree within the angle tolerance.
    Returns None when no limit emerges, as happens for directions that
    spin without settling.
    """
    span = spec.b - spec.a
    if h0 is None:
        h0 = 1e-3 * span
    lo, hi = spec.a, spec.b
    # the irrational scale keeps the probe offsets off resonances of
    # periodic direction fields, which a round dyadic ladder can hit
    h = h0 / math.sqrt(2.0)
    ladder = []
    for _ in range(config.LIMIT_HALVINGS):
        tt = t + side * h
        h *= 0.5
        if lo <= tt <= hi:
            ladder.append(tt)
    cos_tol = math.cos(config.THETA_TOL)
    collected = []
    for start in range(0, len(ladder), LIMIT_CHUNK):
        for v in spec.values(np.array(ladder[start:start + LIMIT_CHUNK])):
            if _is_real_vec(v):
                continue
            u = _unit(v)
            collected.append(u)
            if len(collected) >= 3:
                u1, u2, u3 = collected[-3], collected[-2], collected[-1]
                if (
                    float(np.dot(u1, u2)) >= cos_tol
                    and float(np.dot(u2, u3)) >= cos_tol
                    and float(np.dot(u1, u3)) >= cos_tol
                ):
                    return u3
    return None


def classify_point(
    left_dir, right_dir, interior: bool = True, tol: float | None = None
) -> str:
    """Flip, bounce, semi-tame or not-tame from the two direction limits.

    For endpoint contacts of open paths only one side exists; those are
    endpoint_tame when the available limit exists.  The classification is
    symmetric in its two arguments.
    """
    if tol is None:
        tol = config.THETA_TOL
    if not interior:
        present = left_dir if left_dir is not None else right_dir
        return ENDPOINT_TAME if present is not None else ENDPOINT_NOT_TAME
    if left_dir is None or right_dir is None:
        return NOT_TAME
    d = float(np.dot(np.asarray(left_dir), np.asarray(right_dir)))
    if d >= math.cos(tol):
        return BOUNCE
    if d <= -math.cos(tol):
        return FLIP
    return SEMI_TAME


def classify_interval(interval: AxisInterval, directive: str | None = None) -> str:
    """Resolved kind of an axis interval.

    Positive-length intervals that contain real runs admit both a flip
    and a bounce continuation; the directive picks one, defaulting to
    bounce.
    """
    if interval.runs:
        if directive in (FLIP, BOUNCE):
            return directive
        if directive is not None:
            raise ValueError(f"unknown directive {directive!r}")
        return BOUNCE
    return interval.kind


def _bisect_real_edge(spec, t_real, t_nonreal, ptol):
    """Refine the boundary between real and non-real path values.

    Each path call evaluates the midpoints of the next BISECT_LEVELS
    halvings for every outcome, in heap order (node n is followed by
    node 2n+1 when its midpoint is real and by 2n+2 otherwise); walking
    them gives the same midpoints, from the same endpoints, as one
    halving per call.
    """
    nodes = 2 ** BISECT_LEVELS - 1
    while abs(t_real - t_nonreal) > ptol:
        brackets = [(t_real, t_nonreal)]
        mids = []
        for n in range(nodes):
            r, nr = brackets[n]
            tm = 0.5 * (r + nr)
            mids.append(tm)
            brackets += [(tm, nr), (r, tm)]
        vals = spec.values(np.array(mids))
        n = 0
        while n < nodes and abs(t_real - t_nonreal) > ptol:
            if _is_real_vec(vals[n]):
                t_real = mids[n]
                n = 2 * n + 1
            else:
                t_nonreal = mids[n]
                n = 2 * n + 2
    return t_real


def _localize_contact(spec, tl, tn, tr, ptol):
    """Pin down an isolated real contact inside (tl, tr), seeded at tn.

    Path values are memoised by parameter.  tl, tn and tr are evaluated
    in one call; the root finder starts from tl and tr, and the final
    realness check is made at a parameter a solver has evaluated.
    """
    tl, tn, tr = float(tl), float(tn), float(tr)
    memo = dict(zip((tl, tn, tr), spec.values(np.array([tl, tn, tr]))))

    def value(t):
        if t not in memo:
            memo[t] = spec.value(t)
        return memo[t]

    u_ref = _unit(value(tn))

    def component(t):
        return float(np.dot(value(t)[1:], u_ref))

    cl, cr = component(tl), component(tr)
    if cl * cr < 0:
        t_c = _brent.brentq(component, tl, tr, xtol=ptol)
    else:
        t_c = _brent.minimize_bounded(
            lambda t: float(np.linalg.norm(value(t)[1:])), tl, tr, xatol=ptol
        )
    if _is_real_vec(value(t_c)):
        return t_c
    return None


def _sign_of(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    raise ZeroOnPath("real contact with value zero")


def find_obstructions(sampled: SampledPath, spec: PathSpec) -> ObstructionReport:
    """Build the full obstruction report for a sampled path."""
    span = spec.b - spec.a
    ptol = 1e-12 * max(1.0, span)
    run_min = 1e-5 * span

    ts = sampled.params
    vals = sampled.values
    mags = np.linalg.norm(vals, axis=1)
    if np.any(mags <= config.EPS_REAL):
        raise ZeroOnPath("path passes through zero")
    ims = np.linalg.norm(vals[:, 1:], axis=1)
    real_flags = config.is_real(ims, mags)

    n = len(ts)

    # --- raw real items from runs of real samples -------------------------
    items = []  # ("contact", t, value) or ("run", t0, t1, value)
    idx = 0
    while idx < n:
        if not real_flags[idx]:
            idx += 1
            continue
        j = idx
        while j + 1 < n and real_flags[j + 1]:
            j += 1
        t_lo = ts[idx]
        t_hi = ts[j]
        if idx > 0:
            t_lo = _bisect_real_edge(spec, ts[idx], ts[idx - 1], ptol)
        if j + 1 < n:
            t_hi = _bisect_real_edge(spec, ts[j], ts[j + 1], ptol)
        if t_hi - t_lo > run_min:
            items.append(("run", float(t_lo), float(t_hi)))
        else:
            t_c = 0.5 * (t_lo + t_hi)
            items.append(("contact", float(t_c), float(t_c)))
        idx = j + 1

    # --- contacts the grid only bracketed ---------------------------------
    known = [it[1] for it in items]
    for m in range(1, n - 1):
        if real_flags[m - 1] or real_flags[m] or real_flags[m + 1]:
            continue
        if not (ims[m] <= ims[m - 1] and ims[m] <= ims[m + 1]):
            continue
        if ims[m] > 1e-3 * max(1.0, mags[m]):
            continue
        t_c = _localize_contact(spec, ts[m - 1], ts[m], ts[m + 1], ptol)
        if t_c is None:
            continue
        if any(abs(t_c - tk) < 10 * run_min for tk in known):
            continue
        items.append(("contact", t_c, t_c))
        known.append(t_c)
    items.sort(key=lambda it: it[1])

    # --- wrap merging for closed paths ------------------------------------
    edge_tol = max(10 * ptol, 1e-9 * span)
    wrap_item = None
    if spec.closed and items:
        first, last = items[0], items[-1]
        starts_at_a = first[1] - spec.a <= edge_tol
        ends_at_b = (
            last[2] if last[0] == "run" else last[1]
        ) >= spec.b - edge_tol
        if starts_at_a and ends_at_b:
            if first is last:
                # a single run covering the whole domain: the loop is real
                pass
            else:
                items = items[1:-1]
                lo = last[1] if last[0] == "run" else last[1]
                hi_a_side = first[2] if first[0] == "run" else first[1]
                length = (spec.b - lo) + (hi_a_side - spec.a)
                if length > run_min:
                    wrap_item = ("run", float(lo), float(spec.b + (hi_a_side - spec.a)))
                else:
                    wrap_item = ("contact", float(spec.a), float(spec.a))
        elif starts_at_a and not ends_at_b:
            # re-tag the contact at a as the wrap contact
            if first[0] == "contact":
                items = items[1:]
                wrap_item = ("contact", float(first[1]), float(first[1]))
        elif ends_at_b and not starts_at_a:
            if last[0] == "contact":
                items = items[:-1]
                wrap_item = ("contact", float(spec.a), float(spec.a))

    # --- direction limits and classification ------------------------------
    marks = np.sort(
        [it[1] for it in items] + [it[2] for it in items if it[0] == "run"]
    )

    def h0_for(t):
        # nearest item parameter farther than edge_tol from t: distances
        # grow monotonically away from t on either side
        nearest = math.inf
        i = int(np.searchsorted(marks, t))
        for step, k in ((-1, i - 1), (1, i)):
            while 0 <= k < len(marks):
                d = abs(t - marks[k])
                if d > edge_tol:
                    nearest = min(nearest, d)
                    break
                k += step
        return min(1e-3 * span, nearest / 2.0) if math.isfinite(nearest) else 1e-3 * span

    def dir_at(t, side):
        u = one_sided_direction(spec, t, side, h0_for(t))
        return tuple(float(x) for x in u) if u is not None else None

    contacts = []
    runs = []
    for it in items:
        if it[0] == "contact":
            t_c = it[1]
            value = float(spec.value(t_c)[0])
            # a contact's real stretch is shorter than run_min, so its
            # localized parameter sits within run_min of a domain edge
            # whenever the stretch touches that edge
            at_a = t_c - spec.a <= run_min
            at_b = spec.b - t_c <= run_min
            left = None if at_a else dir_at(t_c, -1)
            right = None if at_b else dir_at(t_c, +1)
            interior = not (at_a or at_b) or spec.closed
            kind = classify_point(left, right, interior)
            contacts.append(
                Contact(t_c, value, _sign_of(value), left, right, kind)
            )
        else:
            t0, t1 = it[1], it[2]
            value = float(spec.value(0.5 * (t0 + t1))[0])
            in_dir = dir_at(t0, -1) if t0 - spec.a > edge_tol else None
            out_dir = dir_at(t1, +1) if spec.b - t1 > edge_tol else None
            runs.append(RealRun(t0, t1, _sign_of(value), in_dir, out_dir))

    if wrap_item is not None:
        if wrap_item[0] == "contact":
            value = float(spec.value(spec.a)[0])
            left = dir_at(spec.b, -1)
            right = dir_at(spec.a, +1)
            kind = classify_point(left, right, True)
            contacts.append(
                Contact(spec.a, value, _sign_of(value), left, right, kind, wrap=True)
            )
        else:
            t0, t1 = wrap_item[1], wrap_item[2]
            value = float(spec.value(min(0.5 * (t0 + spec.b), spec.b))[0])
            out_param = spec.a + (t1 - spec.b)
            in_dir = dir_at(t0, -1)
            out_dir = dir_at(out_param, +1)
            runs.append(RealRun(t0, t1, _sign_of(value), in_dir, out_dir, wrap=True))

    # --- big arcs ----------------------------------------------------------
    # ordered boundary list: (parameter, real value or None at domain ends)
    bounds = []
    for c in contacts:
        if not c.wrap:
            bounds.append((c.t, c.t, c.value))
    for r in runs:
        if not r.wrap:
            bounds.append((r.t0, r.t1, float(spec.value(0.5 * (r.t0 + min(r.t1, spec.b)))[0])))
    bounds.sort(key=lambda x: x[0])

    wrap_contact = next((c for c in contacts if c.wrap), None)
    wrap_run = next((r for r in runs if r.wrap), None)

    arcs = []  # (t_start, t_end, left_value|None, right_value|None)
    cursor = spec.a
    left_value = None
    if wrap_contact is not None:
        left_value = wrap_contact.value
    if wrap_run is not None:
        cursor = spec.a + (wrap_run.t1 - spec.b)
        left_value = float(spec.value(min(wrap_run.t0 + edge_tol, spec.b))[0])
    for t0, t1, value in bounds:
        if t0 - cursor > edge_tol:
            arcs.append((cursor, t0, left_value, value))
        cursor = t1
        left_value = value
    end = spec.b if (wrap_run is None) else wrap_run.t0
    if end - cursor > edge_tol:
        right_value = None
        if wrap_contact is not None:
            right_value = wrap_contact.value
        if wrap_run is not None:
            right_value = float(spec.value(max(wrap_run.t0 - edge_tol, spec.a))[0])
        arcs.append((cursor, end, left_value, right_value))

    if (
        spec.closed
        and wrap_contact is None
        and wrap_run is None
        and len(arcs) >= 2
        and arcs[0][0] <= spec.a + edge_tol
        and arcs[-1][1] >= spec.b - edge_tol
    ):
        first, last = arcs[0], arcs[-1]
        arcs = arcs[1:-1]
        arcs.append((last[0], spec.b + (first[1] - spec.a), last[2], first[3]))

    big_arcs = tuple(
        (a0, a1)
        for a0, a1, lv, rv in arcs
        if lv is not None and rv is not None and lv * rv < 0
    )

    # --- axis intervals between consecutive big arcs -----------------------
    def norm_param(t):
        if spec.closed and t > spec.b:
            return spec.a + (t - spec.b)
        return t

    period = spec.b - spec.a

    def in_gap(keys):
        """(g0, g1) -> indices, in list order, of the keys t with
        g0 - edge_tol <= tt <= g1 + edge_tol for tt = t or t +- period."""
        keys = np.asarray(keys, dtype=float)
        shifts = []
        for tt in (keys, keys + period, keys - period):
            order = np.argsort(tt, kind="stable")
            shifts.append((tt[order], order))

        def members(g0, g1):
            lo, hi = g0 - edge_tol, g1 + edge_tol
            hits = set()
            for tt, order in shifts:
                k0 = np.searchsorted(tt, lo, side="left")
                k1 = np.searchsorted(tt, hi, side="right")
                hits.update(order[k0:k1].tolist())
            return sorted(hits)

        return members

    contacts_in = in_gap([c.t for c in contacts])
    runs_in = in_gap([r.t0 for r in runs])
    intervals = []
    if big_arcs:
        pairs = list(zip(big_arcs, big_arcs[1:]))
        if spec.closed:
            pairs.append((big_arcs[-1], big_arcs[0]))
        for (a0, a1), (b0, b1) in pairs:
            g0 = norm_param(a1)
            g1 = b0 if b0 >= g0 - edge_tol else spec.b + (b0 - spec.a)
            inner_contacts = tuple(contacts[k] for k in contacts_in(g0, g1))
            inner_runs = tuple(runs[k] for k in runs_in(g0, g1))
            wrap = (
                g1 > spec.b + edge_tol
                or any(r.wrap for r in inner_runs)
                or any(c.wrap for c in inner_contacts)
            )
            if inner_contacts:
                sign = inner_contacts[0].sign
            elif inner_runs:
                sign = inner_runs[0].sign
            else:
                raise HypothesisViolated("axis interval without real contact")
            kinds = [c.kind for c in inner_contacts]
            if inner_runs:
                kind = UNRESOLVED
            elif any(k in BAD_KINDS for k in kinds):
                kind = UNRESOLVED
            else:
                flips = sum(1 for k in kinds if k == FLIP)
                kind = FLIP if flips % 2 == 1 else BOUNCE
            if inner_runs:
                in_dir = inner_runs[0].in_dir
                out_dir = inner_runs[-1].out_dir
            else:
                in_dir = inner_contacts[0].left_dir
                out_dir = inner_contacts[-1].right_dir
            intervals.append(
                AxisInterval(
                    g0, g1, sign, in_dir, out_dir, kind,
                    bool(inner_runs), wrap, inner_contacts, inner_runs,
                )
            )
        # keep the wrap interval last
        intervals.sort(key=lambda iv: (iv.wrap, iv.t0))

    tame = not runs and all(c.kind not in BAD_KINDS for c in contacts)
    return ObstructionReport(
        contacts=tuple(contacts),
        runs=tuple(runs),
        big_arcs=big_arcs,
        intervals=tuple(intervals),
        tame=tame,
        companion_unique=not runs,
        closed=spec.closed,
    )


def report_to_json(rep: ObstructionReport) -> dict:
    def d(u):
        return list(u) if u is not None else None

    return {
        "closed": rep.closed,
        "tame": rep.tame,
        "companion_unique": rep.companion_unique,
        "contacts": [
            {
                "t": c.t,
                "value": c.value,
                "sign": c.sign,
                "left_dir": d(c.left_dir),
                "right_dir": d(c.right_dir),
                "kind": c.kind,
                "wrap": c.wrap,
            }
            for c in rep.contacts
        ],
        "runs": [
            {
                "t0": r.t0,
                "t1": r.t1,
                "sign": r.sign,
                "in_dir": d(r.in_dir),
                "out_dir": d(r.out_dir),
                "wrap": r.wrap,
            }
            for r in rep.runs
        ],
        "big_arcs": [list(a) for a in rep.big_arcs],
        "intervals": [
            {
                "t0": iv.t0,
                "t1": iv.t1,
                "sign": iv.sign,
                "kind": iv.kind,
                "non_unique": iv.non_unique,
                "wrap": iv.wrap,
            }
            for iv in rep.intervals
        ],
    }
