"""Locating and classifying the contacts of a path with the real axis.

A sampled path is scanned for real values, the end of the real set at
each edge between a real and a non-real sample is solved for, and so
are the contacts its grid only brackets: the axis crossings between
neighbouring samples whose directions point apart, and the small dips
of |Im| elsewhere.  Isolated
contacts become Contact records with one-sided imaginary-direction
limits; maximal real sub-intervals become RealRun records.  Taken in
traversal order, two consecutive real items of opposite sign join across
a big arc; an axis interval is the real items from one big arc to the
next, and the axis intervals drive signatures and winding numbers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import _brent, config
from .algebra import row_dots
from .pathkit import PathSpec, SampledPath, _geometry, sample_path

FLIP = "flip"
BOUNCE = "bounce"
SEMI_TAME = "semi_tame"
NOT_TAME = "not_tame"
ENDPOINT_TAME = "endpoint_tame"
ENDPOINT_NOT_TAME = "endpoint_not_tame"
UNRESOLVED = "unresolved"

# the kinds a directive can choose for an axis interval with real runs
DIRECTIVES = (FLIP, BOUNCE)

# contact kinds without the direction limits a continuation needs; the
# ENDPOINT_* kinds only arise on open paths (find_obstructions classifies
# every contact of a closed path as interior), so on a closed report this
# set is {SEMI_TAME, NOT_TAME}
BAD_KINDS = (SEMI_TAME, NOT_TAME, ENDPOINT_NOT_TAME)

# offsets of a one-sided limit evaluated per path call
LIMIT_CHUNK = 8
# halvings of the offset used when chasing a one-sided direction limit
LIMIT_HALVINGS = 40
# the kinds of Brent solve of _localize_contacts (see _readings)
_ROOT, _MIN, _EDGE = range(3)


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
    """The real items from one big arc to the next, in traversal order.

    t0 is where the first big arc ends and t1 where the next one starts;
    the two coincide when a single contact lies between them.
    runs holds the interval's real runs in report order, for run_kinds;
    the JSON form leaves it out, since the report lists them itself.
    """

    t0: float
    t1: float
    sign: int
    kind: str
    non_unique: bool
    wrap: bool
    runs: tuple = field(metadata={"json": False})


@dataclass(frozen=True)
class ObstructionReport:
    contacts: tuple
    runs: tuple
    big_arcs: tuple
    intervals: tuple
    tame: bool
    companion_unique: bool
    closed: bool


def _one_sided_directions(spec: PathSpec, requests, tol) -> list:
    """one_sided_direction for each request (t, side, h0), all together.

    Each round evaluates, in one path call, the next LIMIT_CHUNK
    in-domain offsets of the ladder of every request still without a
    limit.  The non-real directions seen so far are kept in one array,
    tagged with their request and in ladder order within it, so each
    request gets the limit the one-request walk finds: its first
    direction that agrees within THETA_TOL with the two before it.
    """
    if not requests:
        return []
    t, side, h0 = (np.array(col, dtype=float)[:, None] for col in zip(*requests))
    # the irrational scale keeps the probe offsets off resonances of
    # periodic direction fields, which a round dyadic ladder can hit;
    # the offsets halve one after the other
    h = np.full((len(requests), LIMIT_HALVINGS), 0.5)
    h[:, :1] = h0 / math.sqrt(2.0)
    offsets = t + side * np.multiply.accumulate(h, axis=1)
    inside = (spec.a <= offsets) & (offsets <= spec.b)
    # each offset's rank among its request's in-domain offsets
    rank = np.cumsum(inside, axis=1) - 1
    cos_tol = math.cos(config.THETA_TOL)
    dirs = np.empty((0, spec.dim - 1))
    owner = hits = np.empty(0, dtype=np.intp)
    settled = np.zeros(len(requests), dtype=bool)
    for start in range(0, LIMIT_HALVINGS, LIMIT_CHUNK):
        ask = inside & ~settled[:, None] & (start <= rank) & (rank < start + LIMIT_CHUNK)
        if not ask.any():
            break
        _mags, _ims, real, units = _geometry(offsets[ask], spec.values(offsets[ask]), tol)
        dirs = np.concatenate((dirs, units[~real]))
        owner = np.concatenate((owner, np.nonzero(ask)[0][~real]))
        # each request's directions together, in ladder order; a
        # direction settles the limit when it and the two before it, of
        # the same request, agree pairwise
        order = np.argsort(owner, kind="stable")
        dirs, owner = dirs[order], owner[order]
        d1 = row_dots(dirs[:-1], dirs[1:]) >= cos_tol
        d2 = row_dots(dirs[:-2], dirs[2:]) >= cos_tol
        agree = np.zeros(len(dirs), dtype=bool)
        agree[2:] = d1[:-1] & d1[1:] & d2 & (owner[2:] == owner[:-2])
        hits = np.flatnonzero(agree)
        settled[owner[hits]] = True
    found = [None] * len(requests)
    settled_ids, first = np.unique(owner[hits], return_index=True)
    for i, u in zip(settled_ids.tolist(), dirs[hits[first]]):
        found[i] = u
    return found


def one_sided_direction(spec: PathSpec, t: float, side: int) -> np.ndarray | None:
    """Limit of Im(gamma)/|Im(gamma)| as the parameter approaches t.

    side is +1 for the right limit and -1 for the left one.  The limit
    is chased along a halving ladder of offsets from 1e-3 of the span
    down, the offsets outside the domain skipped, evaluated LIMIT_CHUNK
    at a time; it is the first direction that agrees within the angle
    tolerance with the two before it.
    Returns None when no limit emerges, as happens for directions that
    spin without settling.
    """
    return _one_sided_directions(
        spec, [(t, side, 1e-3 * (spec.b - spec.a))], config.IN_FORCE.get())[0]


def classify_point(left_dir, right_dir, interior: bool = True) -> str:
    """Flip, bounce, semi-tame or not-tame from the two direction limits.

    For endpoint contacts of open paths only one side exists; those are
    endpoint_tame when the available limit exists.  The classification is
    symmetric in its two arguments.
    """
    if not interior:
        present = left_dir if left_dir is not None else right_dir
        return ENDPOINT_TAME if present is not None else ENDPOINT_NOT_TAME
    if left_dir is None or right_dir is None:
        return NOT_TAME
    d = float(np.dot(np.asarray(left_dir), np.asarray(right_dir)))
    cos_tol = math.cos(config.THETA_TOL)
    if d >= cos_tol:
        return BOUNCE
    if d <= -cos_tol:
        return FLIP
    return SEMI_TAME


def classify_interval(interval: AxisInterval, directive: str | None = None) -> str:
    """Resolved kind of an axis interval.

    Positive-length intervals that contain real runs admit both a flip
    and a bounce continuation; the directive picks one, defaulting to
    bounce.  A directive that is neither of DIRECTIVES raises ValueError
    on any interval.
    """
    if directive is not None and directive not in DIRECTIVES:
        raise ValueError(f"unknown directive {directive!r}")
    if interval.non_unique:
        return directive or BOUNCE
    return interval.kind


def run_kinds(rep: ObstructionReport, directives=()) -> tuple:
    """Resolved flip/bounce kind of each of rep.runs, in report order.

    A run takes the classify_interval kind, under its directive, of the
    first axis interval that holds it; a run in no interval bounces.
    More directives than axis intervals raise ValueError.
    """
    if len(directives) > len(rep.intervals):
        raise ValueError(f"{len(directives)} directives for {len(rep.intervals)} axis intervals")
    kind = {}
    for m, iv in enumerate(rep.intervals):
        k = classify_interval(iv, directives[m] if m < len(directives) else None)
        for r in iv.runs:
            kind.setdefault(r.t0, k)
    return tuple(kind.get(r.t0, BOUNCE) for r in rep.runs)


def alternating_sum(signs) -> int:
    """Sum of sign_l (-1)^l with l counted from one: the signature of
    the flip signs of a path, in traversal order."""
    return sum(s * (-1) ** (l + 1) for l, s in enumerate(signs))


def _readings(kinds, u_ref, vals, mags, ims, eps_real) -> np.ndarray:
    """What each Brent solve of _localize_contacts reads off a path value
    of its own, given with the value's |q| and |Im q|: the component of
    Im along its direction u_ref for a root (_ROOT), |Im| for a minimum
    (_MIN), and |Im| - eps_real |q|, which is at most 0 exactly where
    the value is real, for the end of a real set (_EDGE)."""
    return np.where(kinds == _ROOT, row_dots(vals[:, 1:], u_ref),
                    np.where(kinds == _MIN, ims, ims - eps_real * mags))


def _localize_contacts(spec, sampled, tri, edges, ptol) -> tuple:
    """(found, ends): the contacts inside the brackets tri of a sampled
    path, and the ends of the real sets at its edges.

    Each row of tri holds the grid indices of one bracket's tl, tn and
    tr, and gets a Brent solve on (tl, tr): a root of the component of
    Im(gamma) along its direction at tn where that component changes
    sign on the bracket, else the minimiser of |Im(gamma)|.  found holds
    the contact parameter of each bracket, or None where the path is not
    real there.  Each row of edges holds the grid indices of a real
    sample and of the non-real sample beside it, and gets a Brent root
    of |Im(gamma)| - eps_real |gamma|; ends holds the root of each edge.
    What a solve reads off a value is _readings of the value's geometry
    (see pathkit._geometry), the grid's own at its samples, so at an
    edge's ends its sign is the grid's realness flag.  The solves run in
    lockstep: each round evaluates, in one path call, the parameters the
    unfinished solves ask for.  Each solve memoises its own values,
    starting from the grid's: a root finder starts from its two ends,
    and a contact's final realness check is made at a parameter its
    solver has evaluated.
    """
    ts, values, tol = sampled.params, sampled.values, sampled.tol
    # each solve's kind and direction (zero for an edge), the brackets
    # first, and the grid indices of its seeds, owner[m] the solve of rows[m]
    u_ref = np.zeros((len(tri) + len(edges), values.shape[1] - 1))
    u_ref[:len(tri)] = sampled.units[tri[:, 1]]
    crossing = (row_dots(values[tri[:, 0], 1:], u_ref[:len(tri)])
                * row_dots(values[tri[:, 2], 1:], u_ref[:len(tri)]) < 0)
    kinds = np.concatenate((np.where(crossing, _ROOT, _MIN), np.full(len(edges), _EDGE)))
    rows = np.concatenate((tri.ravel(), np.asarray(edges, dtype=np.intp).ravel()))
    owner = np.repeat(np.arange(len(kinds)), np.where(kinds == _EDGE, 2, 3))
    ys = _readings(kinds[owner], u_ref[owner], values[rows], sampled.mags[rows],
                   sampled.ims[rows], tol.eps_real)
    # parameter -> (solver's function value, path value), for each solve
    memos = [{} for _ in kinds]
    for k, t, y, v in zip(owner.tolist(), ts[rows].tolist(), ys.tolist(), values[rows]):
        memos[k][t] = (y, v)
    solves = [(_brent.minimize_bounded_steps if kind == _MIN else _brent.brentq_steps)(
        min(memo), max(memo), ptol) for kind, memo in zip(kinds.tolist(), memos)]

    done = [None] * len(solves)

    def advance(k, y):
        """Send y to solve k and serve it from the memo; the parameter
        it asks for next, or None when it is done."""
        try:
            t = solves[k].send(y)
            while t in memos[k]:
                t = solves[k].send(memos[k][t][0])
            return t
        except StopIteration as stop:
            done[k] = stop.value
        return None

    asked = {k: advance(k, None) for k in range(len(solves))}
    asked = {k: t for k, t in asked.items() if t is not None}
    while asked:
        ks = list(asked)
        t_asked = np.array(list(asked.values()))
        vals = spec.values(t_asked)
        mags, ims = _geometry(t_asked, vals, tol)[:2]
        ys = _readings(kinds[ks], u_ref[ks], vals, mags, ims, tol.eps_real).tolist()
        nxt = {}
        for k, y, v in zip(ks, ys, vals):
            memos[k][asked[k]] = (y, v)
            t = advance(k, y)
            if t is not None:
                nxt[k] = t
        asked = nxt
    found, ends = done[:len(tri)], done[len(tri):]
    if found:
        # a solver returns a parameter it has evaluated
        at = np.array([memo[t][1] for memo, t in zip(memos, found)])
        real = _geometry(np.array(found), at, tol)[2]
        found = [t if is_real else None for t, is_real in zip(found, real)]
    return found, ends


def _limit_h0s(ts, marks, edge_tol, cap) -> list:
    """The first ladder offset of a one-sided limit at each of ts: half
    the distance to the nearest of marks farther than edge_tol, capped at
    cap (cap when there is none).  On either side of t the distances grow
    along the sorted marks, so the nearest far mark below t is the last
    sorting before t - edge_tol, and above t the first sorting after
    t + edge_tol; where rounding t -+ edge_tol misplaces one, it moves a
    mark at a time.  The infinite pads stand for no mark."""
    ts = np.asarray(ts, dtype=float)
    padded = np.concatenate(([-np.inf], marks, [np.inf]))
    lo = np.searchsorted(padded, ts - edge_tol) - 1
    hi = np.searchsorted(padded, ts + edge_tol, side="right")
    while not (far := ts - padded[lo] > edge_tol).all():
        lo -= ~far
    while (far := ts - padded[lo + 1] > edge_tol).any():
        lo += far
    while not (far := padded[hi] - ts > edge_tol).all():
        hi += ~far
    while (far := padded[hi - 1] - ts > edge_tol).any():
        hi -= far
    nearest = np.minimum(ts - padded[lo], padded[hi] - ts)
    return np.minimum(cap, nearest / 2.0).tolist()


def _crossing_brackets(sampled: SampledPath) -> np.ndarray:
    """The crossing brackets of a grid: each k, in increasing order, whose
    samples k and k + 1 have directions opposite within 2 THETA_TOL, so
    that [params[k], params[k + 1]] holds an axis crossing; a real
    sample's unit is zero, so it ends none.  Each crossing the adaptive
    sampler does not halve is so, as both halves of its interval are
    aligned within THETA_TOL."""
    units = sampled.units
    return np.flatnonzero(row_dots(units[:-1], units[1:]) <= -math.cos(2.0 * config.THETA_TOL))


def find_obstructions(sampled: SampledPath, spec: PathSpec) -> ObstructionReport:
    """Build the full obstruction report for a sampled path.

    The path is probed beyond its samples for all contacts together; each
    round of a probe is one path call:
    - Brent solves, all in lockstep, each from the grid's values: the end
      of the real set at every edge between a real and a non-real sample,
      a root of |Im| - eps_real |q|, which is at most 0 exactly where the
      path is real (an edge can be a whole grid step wide, since the
      sampler stops beside a real node); and every contact the grid only
      brackets, each crossing bracket (see _crossing_brackets) and each
      small dip of |Im| beside none;
    - one-sided limits: the next LIMIT_CHUNK in-domain offsets of the
      halving ladder of every direction limit still unsettled, each
      ladder starting at half the distance to the nearest end of
      another real item and at most 1e-3 of the span; a limit is the
      first direction, in ladder order, that agrees within THETA_TOL
      with the two before it;
    and one more call gives the values of every contact and run.  Every
    probe reads its values through pathkit._geometry, as the grid does,
    so a value of modulus at most eps_real raises ZeroOnPath wherever it
    is met.  The number of calls grows with the rounds of the slowest
    probe, not with the number of contacts.  A real stretch is a run when its real set
    is longer than run_min, else a contact at its middle.  On a closed
    path the real items at a and at b are one wrap item when the ends of
    their real sets lie within edge_tol of the domain's ends; on an open
    path an item whose real set ends that near an end has no limit on
    that side.  ptol and edge_tol are config.PARAM_RESOLUTION and
    config.PARAM_SAME times the domain's span.
    """
    span = spec.b - spec.a
    ptol = config.PARAM_RESOLUTION * span
    edge_tol = config.PARAM_SAME * span
    run_min = 1e-5 * span

    ts = sampled.params
    mags, ims, real_flags = sampled.mags, sampled.ims, sampled.real
    n = len(ts)

    # --- real stretches, and contacts the grid only brackets -------------
    # each maximal stretch i..j-1 of real samples, with the end of its
    # real set solved for on each edge to a non-real sample beside it;
    # each crossing bracket b, solved on (ts[b], ts[b + 1]) along the
    # direction at ts[b], and each non-real sample m beside no such
    # bracket whose |Im| is a small local minimum, solved on
    # (ts[m - 1], ts[m + 1]) along the direction at ts[m]; all from the
    # grid's values, solved together, brackets in grid order
    stretches = sampled.stretches.tolist()
    edges = []
    for i, j in stretches:
        if i > 0:
            edges.append((i, i - 1))
        if j < n:
            edges.append((j - 1, j))
    near_real = real_flags[:-2] | real_flags[1:-1] | real_flags[2:]
    dips = (ims[1:-1] <= ims[:-2]) & (ims[1:-1] <= ims[2:])
    small = ~(ims[1:-1] > 1e-3 * mags[1:-1])
    tri = np.flatnonzero(~near_real & dips & small)[:, None] + (0, 1, 2)
    b = _crossing_brackets(sampled)
    if len(b):
        beside = np.zeros(n, dtype=bool)
        beside[b] = beside[b + 1] = True
        tri = np.concatenate([b[:, None] + (0, 0, 1), tri[~beside[tri[:, 1]]]])
        tri = tri[np.argsort(tri[:, 0], kind="stable")]
    found, ends = _localize_contacts(spec, sampled, tri, edges, ptol)
    ends = iter(ends)
    # each real item as (kind, t0, t1, lo, hi), lo and hi the ends of its
    # real set; a contact is the middle of its real set
    items = []
    for i, j in stretches:
        t_lo = next(ends) if i > 0 else float(ts[i])
        t_hi = next(ends) if j < n else float(ts[j - 1])
        if t_hi - t_lo > run_min:
            items.append(("run", t_lo, t_hi, t_lo, t_hi))
        else:
            t_c = 0.5 * (t_lo + t_hi)
            items.append(("contact", t_c, t_c, t_lo, t_hi))
    # a contact within 10 run_min of a known item is that item; the
    # nearest known parameters are the two that t_c sorts between
    known = sorted(it[1] for it in items)
    for t_c in found:
        if t_c is None:
            continue
        k = bisect.bisect_left(known, t_c)
        if any(abs(t_c - tk) < 10 * run_min for tk in known[max(k - 1, 0):k + 1]):
            continue
        items.append(("contact", t_c, t_c, t_c, t_c))
        bisect.insort(known, t_c)
    items.sort(key=lambda it: it[1])

    # --- wrap merging for closed paths ------------------------------------
    # the wrap item is kept as its probe, in the form described below; a
    # wrap contact is always probed at a
    wrap_contact = ("contact", spec.a, spec.a, True, spec.a, (spec.b, -1), (spec.a, +1))
    wrap_probes = []
    if spec.closed and items:
        first, last = items[0], items[-1]
        # the ends of the real sets, not a contact's middle: a real set
        # about a basepoint on the axis is as wide as eps_real makes it
        starts_at_a = first[3] - spec.a <= edge_tol
        ends_at_b = last[4] >= spec.b - edge_tol
        # a single run covering the whole domain, a real loop, stays as it is
        if starts_at_a and ends_at_b and first is not last:
            items = items[1:-1]
            lo, hi_a_side = last[1], first[2]
            if (spec.b - lo) + (hi_a_side - spec.a) > run_min:
                t0, t1 = float(lo), float(spec.b + (hi_a_side - spec.a))
                wrap_probes = [("run", t0, t1, True, min(0.5 * (t0 + spec.b), spec.b),
                                (t0, -1), (spec.a + (t1 - spec.b), +1))]
            else:
                wrap_probes = [wrap_contact]
        elif starts_at_a and not ends_at_b and first[0] == "contact":
            # re-tag the contact at a as the wrap contact
            items, wrap_probes = items[1:], [wrap_contact]
        elif ends_at_b and not starts_at_a and last[0] == "contact":
            items, wrap_probes = items[:-1], [wrap_contact]

    # --- direction limits and classification ------------------------------
    marks = np.sort(
        [it[1] for it in items] + [it[2] for it in items if it[0] == "run"]
    )

    # each real item as (kind, t0, t1, wrap, parameter of its value, left
    # limit, right limit), a limit being (t, side), or None where the item
    # has none: only where its real set ends within edge_tol of an end of
    # an open path (on a closed path such an item is the wrap item)
    is_open = not spec.closed
    probes = [(kind, t0, t1, False, 0.5 * (t0 + t1),
               None if is_open and lo - spec.a <= edge_tol else (t0, -1),
               None if is_open and spec.b - hi <= edge_tol else (t1, +1))
              for kind, t0, t1, lo, hi in items] + wrap_probes

    # every limit in one batch of requests, every value in one path call
    limits = [lim for *_, left, right in probes for lim in (left, right) if lim]
    h0s = _limit_h0s([t for t, _side in limits], marks, edge_tol, 1e-3 * span)
    units = iter(_one_sided_directions(
        spec, [(t, side, h0) for (t, side), h0 in zip(limits, h0s)], sampled.tol))
    at = np.array([p[4] for p in probes])
    vals = spec.values(at)
    _geometry(at, vals, sampled.tol)  # the zero test of every item's value
    values = vals[:, 0].tolist()

    def direction(limit):
        u = next(units) if limit else None
        return tuple(u.tolist()) if u is not None else None

    contacts = []
    runs = []
    for (kind, t0, t1, wrap, _t, left, right), value in zip(probes, values):
        interior = left is not None and right is not None
        left, right = direction(left), direction(right)
        # an item's value is real and passed the zero test, so it is not 0
        sign = 1 if value > 0 else -1
        if kind == "contact":
            kind = classify_point(left, right, interior)
            contacts.append(Contact(t0, value, sign, left, right, kind, wrap))
        else:
            runs.append(RealRun(t0, t1, sign, left, right, wrap))

    big_arcs, intervals = _axis_geometry(spec, contacts, runs, edge_tol)
    tame = not runs and all(c.kind not in BAD_KINDS for c in contacts)
    return ObstructionReport(
        contacts=tuple(contacts),
        runs=tuple(runs),
        big_arcs=big_arcs,
        intervals=intervals,
        tame=tame,
        companion_unique=not runs,
        closed=spec.closed,
    )


def obstruct_path(spec: PathSpec) -> tuple:
    """(sampled, report, sampling) of a path: its sample_path grid, the
    find_obstructions report on that grid, and the name of the sampler
    that ran.  Every question reads its path here, once."""
    sampled, sampling = sample_path(spec)
    return sampled, find_obstructions(sampled, spec), sampling


def _axis_geometry(spec, contacts, runs, edge_tol) -> tuple:
    """(big_arcs, intervals) of the real items of a report.

    The non-wrap contacts and runs, a contact t as the item (t, t), are
    taken in traversal order.  On a closed path the order is a cycle:
    the wrap item stands at both ends, or else the first item comes
    again one period on.  A big arc joins consecutive items of opposite
    sign more than edge_tol apart; an axis interval holds the items from
    one big arc to the next.  As find_obstructions builds them, there is
    at most one wrap item, and on a closed path without one no item lies
    within edge_tol of a domain end.
    """
    # each item as (t0, t1, sign, (pool, index into the pool)), the pools
    # being contacts and runs
    seq = sorted(
        [(c.t, c.t, c.sign, (0, k)) for k, c in enumerate(contacts) if not c.wrap]
        + [(r.t0, r.t1, r.sign, (1, k)) for k, r in enumerate(runs) if not r.wrap],
        key=lambda it: it[0])
    wraps = [(x, (p, k)) for p, pool in enumerate((contacts, runs))
             for k, x in enumerate(pool) if x.wrap]
    if wraps:
        (w, key), = wraps  # at most one
        if isinstance(w, Contact):
            first, last = (spec.a, spec.a), (spec.b, spec.b)
        else:
            first, last = (spec.a, spec.a + (w.t1 - spec.b)), (w.t0, w.t1)
        seq = [(*first, w.sign, key), *seq, (*last, w.sign, key)]
    elif spec.closed and seq:
        t0, t1, sign, key = seq[0]
        seq.append((spec.b + (t0 - spec.a), t1, sign, key))

    # cut k is the big arc from seq[k] to seq[k + 1]
    cuts = [k for k, (p, q) in enumerate(zip(seq, seq[1:]))
            if q[0] - p[1] > edge_tol and p[2] != q[2]]
    big_arcs = tuple((seq[k][1], seq[k + 1][0]) for k in cuts)

    # on a closed path seq[-1] is seq[0] again, so the interval after the
    # last cut reads on into a second lap
    loop = seq + seq[1:] if spec.closed else seq
    intervals = []
    for i in range(len(cuts) if spec.closed else len(cuts) - 1):
        j = (i + 1) % len(cuts)
        stop = cuts[j] + (len(seq) - 1 if j <= i else 0)
        keys = sorted(it[3] for it in loop[cuts[i] + 1:stop + 1])
        inner_contacts = tuple(contacts[k] for p, k in keys if p == 0)
        inner_runs = tuple(runs[k] for p, k in keys if p == 1)
        a1, b0 = big_arcs[i][1], big_arcs[j][0]
        g0 = spec.a + (a1 - spec.b) if a1 > spec.b else a1
        g1 = b0 if b0 >= g0 - edge_tol else spec.b + (b0 - spec.a)
        wrap = (
            g1 > spec.b + edge_tol
            or any(r.wrap for r in inner_runs)
            or any(c.wrap for c in inner_contacts)
        )
        kinds = [c.kind for c in inner_contacts]
        if inner_runs or any(k in BAD_KINDS for k in kinds):
            kind = UNRESOLVED
        else:
            kind = FLIP if kinds.count(FLIP) % 2 == 1 else BOUNCE
        # every interval holds at least the item after its first cut
        sign = (inner_contacts or inner_runs)[0].sign
        intervals.append(
            AxisInterval(g0, g1, sign, kind, bool(inner_runs), wrap, inner_runs))
    # keep the wrap interval last
    intervals.sort(key=lambda iv: (iv.wrap, iv.t0))
    return big_arcs, tuple(intervals)
