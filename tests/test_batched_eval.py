"""Batched path evaluation gives the results of one-point evaluation.

The reference versions below are the one-point-at-a-time algorithms the
batched ones replaced: a one-sided limit that evaluates one offset per
call, and a bisection with one halving per call.  They test realness
and take unit directions one value at a time, with np.linalg.norm,
independently of the library's row helpers.  The batched limit must
agree with its reference bit for bit.

The sampler is judged against the edge-halving route it replaced, kept
here as references: a depth-first sampler and a level-synchronous one
that halve every interval beside a real node down to a millionth of the
domain, on a first grid without the joins, and a bisection of each real
edge, five halvings per path call in heap order.  The library's route
stops beside a real node and solves each edge with Brent, so its grids
differ; its reports must have the same contacts, kinds, signs, wrap
flags and runs, each parameter within twice the report's tolerance, or,
for a contact that one route finds on a real sample and the other inside
a bracket, both parameters real and closer than the shortest run.
"""

import contextlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hyperlog as hl
from hyperlog import _brent, algebra, config, obstruction, pathkit
from hyperlog.errors import OutOfDomain, RefinementBudgetExceeded, ZeroOnPath
from hyperlog.obstruction import SEMI_TAME
from hyperlog.pathkit import (
    EVAL_BUDGET, Line, PathSpec, PolyFn, SampledPath, Samples, SliceCurve, sample_path)

from test_acceptance import single_slice_loop

CORPUS = [
    "sigma_arc",
    "sigma_hat",
    "rocket_neg",
    "rocket_pos",
    "lambda_loop",
    "three_exp",
    "gamma1m_gamma2(1)",
    "gamma1m_gamma2(3)",
    "gamma1m_gamma2(8)",
    "meridians",
    "slice_circle(i,1,1)",
    "slice_circle(j,2,20)",
    "slice_circle(k,0.001,2)",
]


def variants(spec):
    """The path and the paths derived from it by the path algebra."""
    out = {
        "plain": spec,
        "reverse": hl.reverse(spec),
        "reflect_negconj": hl.reflect_negconj(spec),
        "subpath": hl.subpath(spec, spec.a + 0.1 * (spec.b - spec.a),
                              spec.a + 0.6 * (spec.b - spec.a)),
    }
    if spec.closed:
        out["rotate_basepoint"] = hl.rotate_basepoint(
            spec, spec.a + 0.37 * (spec.b - spec.a))
    return out


def corpus_paths():
    for name in CORPUS:
        for kind, spec in variants(hl.demo(name).path).items():
            yield f"{name}/{kind}", spec


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# reference algorithms, one evaluation per call


def is_real_vec(v):
    """The relative realness test of one path value."""
    return float(np.linalg.norm(v[1:])) <= config.DEFAULT.eps_real * float(np.linalg.norm(v))


def unit(v):
    """The unit imaginary direction of one path value."""
    return v[1:] / np.linalg.norm(v[1:])


def reference_sample_adaptive(spec, n0=64):
    """The depth-first sampler with a cap of 32 unresolved brackets; it
    returns the grid's parameters, values and crossing brackets."""
    span = spec.b - spec.a
    h_cross = span * 1e-6
    h_floor = span * 2.0 ** -40
    cos_step = math.cos(pathkit.THETA_STEP)
    cos_tol = math.cos(config.THETA_TOL)
    cache = {}

    def val(t):
        v = cache.get(t)
        if v is None:
            v = spec.value(t)
            if float(np.linalg.norm(v)) <= config.DEFAULT.eps_real:
                raise ZeroOnPath(f"path value vanishes near t={t}")
            cache[t] = v
        return v

    def is_real(v):
        return float(np.linalg.norm(v[1:])) <= config.DEFAULT.eps_real * float(np.linalg.norm(v))

    def crossing_side(vl, vm, vr, length):
        """-1 or +1 when [tl, tr] brackets an axis crossing whose
        reversal lies in its left or right half, else 0: the direction
        reverses in exactly one half, both halves aligned within
        THETA_TOL, the real set about a simple root would be shorter
        than a quarter of h_cross, and the argument of x + i<Im, u_left>
        turns by less than a quarter turn over both halves."""
        ul, um, ur = unit(vl), unit(vm), unit(vr)
        d1, d2 = float(np.dot(ul, um)), float(np.dot(um, ur))
        if (d1 < 0.0) == (d2 < 0.0) or min(abs(d1), abs(d2)) < cos_tol:
            return 0
        thr = config.DEFAULT.eps_real * max(float(np.linalg.norm(v)) for v in (vl, vm, vr))
        if 2.0 * thr * length / (np.linalg.norm(vl[1:]) + np.linalg.norm(vr[1:])) >= h_cross / 4:
            return 0
        x = [float(v[0]) for v in (vl, vm, vr)]
        y = [float(np.dot(v[1:], ul)) for v in (vl, vm, vr)]
        turn = sum(abs(math.atan2(x[i] * y[i + 1] - y[i] * x[i + 1],
                                  x[i] * x[i + 1] + y[i] * y[i + 1])) for i in (0, 1))
        if turn >= math.pi / 2:
            return 0
        return -1 if d1 < 0.0 else 1

    def needs_split(tl, tm, tr):
        """(split, side) of [tl, tr], side being the crossing_side of an
        interval left unsplit as an axis crossing, else 0."""
        vl, vm, vr = val(tl), val(tm), val(tr)
        rl, rm, rr = is_real(vl), is_real(vm), is_real(vr)
        length = tr - tl
        if rl and rm and rr and len({np.sign(v[0]) for v in (vl, vm, vr)}) == 1:
            # a real run, which cannot pass through 0
            return False, 0
        side = 0
        if not (rl or rm or rr) and length > h_cross:
            side = crossing_side(vl, vm, vr, length)
        long = length > h_cross and not side

        def verdict(split):
            return (True, 0) if split else (False, side)

        iml = float(np.linalg.norm(vl[1:]))
        imm = float(np.linalg.norm(vm[1:]))
        imr = float(np.linalg.norm(vr[1:]))
        if rl or rm or rr or imm < 0.3 * min(iml, imr):
            return verdict(long)
        mags = [float(np.linalg.norm(v)) for v in (vl, vm, vr)]
        if max(mags) / min(mags) > 1.1:
            return verdict(True)
        d1 = float(np.dot(vl[1:] / iml, vm[1:] / imm))
        d2 = float(np.dot(vm[1:] / imm, vr[1:] / imr))
        if min(abs(d1), abs(d2)) >= cos_step:
            if d1 < 0.0 and d2 < 0.0:
                return verdict(True)
            if d1 < 0.0 or d2 < 0.0:
                return verdict(long)
            return verdict(False)
        return verdict(True)

    ts_out = [spec.a]
    unresolved = []
    brackets = []
    grid = np.linspace(spec.a, spec.b, n0 + 1)
    stack = [(float(grid[n]), float(grid[n + 1]), 0) for n in range(n0 - 1, -1, -1)]
    while stack:
        tl, tr, depth = stack.pop()
        tm = 0.5 * (tl + tr)
        # depth None marks the bracket half of a crossing, tested no more
        if depth is None or tr - tl <= h_floor or len(unresolved) >= 32:
            ts_out.append(tr)
            continue
        split, side = needs_split(tl, tm, tr)
        if side and depth >= pathkit.D_MAX:
            # no midpoint goes in at the depth cap
            brackets.append(tl)
            ts_out.append(tr)
            continue
        if side:
            # the midpoint is kept, the half that holds the reversal is
            # the bracket, and the other half goes on
            if side < 0:
                brackets.append(tl)
                stack += [(tm, tr, depth + 1), (tl, tm, None)]
            else:
                brackets.append(tm)
                stack += [(tm, tr, None), (tl, tm, depth + 1)]
            continue
        if not split:
            ts_out.append(tr)
            continue
        if depth >= pathkit.D_MAX:
            unresolved.append((tl, tr))
            ts_out.append(tr)
            continue
        stack.append((tm, tr, depth + 1))
        stack.append((tl, tm, depth + 1))
    if unresolved:
        raise RefinementBudgetExceeded("unresolved", unresolved=unresolved)
    ts_out = np.array(ts_out)
    return ts_out, np.array([val(t) for t in ts_out]), np.searchsorted(ts_out, brackets)


def reference_one_sided_direction(spec, t, side, h0=None):
    span = spec.b - spec.a
    if h0 is None:
        h0 = 1e-3 * span
    collected = []
    h = h0 / math.sqrt(2.0)
    for _ in range(obstruction.LIMIT_HALVINGS):
        tt = t + side * h
        h *= 0.5
        if tt < spec.a or tt > spec.b:
            continue
        v = spec.value(tt)
        if is_real_vec(v):
            continue
        collected.append(unit(v))
        if len(collected) >= 3:
            u1, u2, u3 = collected[-3:]
            cos_tol = math.cos(config.THETA_TOL)
            if (
                float(np.dot(u1, u2)) >= cos_tol
                and float(np.dot(u2, u3)) >= cos_tol
                and float(np.dot(u1, u3)) >= cos_tol
            ):
                return u3
    return None


def reference_bisect_real_edge(spec, t_real, t_nonreal, ptol):
    while abs(t_real - t_nonreal) > ptol:
        tm = 0.5 * (t_real + t_nonreal)
        if is_real_vec(spec.value(tm)):
            t_real = tm
        else:
            t_nonreal = tm
    return t_real


# halvings of a real/non-real edge resolved per path call
BISECT_LEVELS = 5


def reference_bisect_real_edges(spec, edges, ptol, tol):
    """The edge bisection of the edge-halving route: the real end of each
    (t_real, t_nonreal) pair once the two ends are within ptol.  Each
    round evaluates, in one path call, the midpoints of the next
    BISECT_LEVELS halvings of every unfinished edge for every outcome, in
    heap order (node n is followed by node 2n+1 when its midpoint is real
    and by 2n+2 otherwise)."""
    edges = [list(e) for e in edges]
    todo = [e for e in edges if abs(e[0] - e[1]) > ptol]
    nodes = 2 ** BISECT_LEVELS - 1
    # the columns of the real and the non-real end of each node's bracket
    # in [t_real, t_nonreal, midpoint of node 0, ..., of node nodes-1]
    ends = [(0, 1)]
    for n in range(nodes):
        r, nr = ends[n]
        ends += [(n + 2, nr), (r, n + 2)]
    r_col, nr_col = np.array(ends[:nodes]).T
    while todo:
        ts = np.empty((len(todo), nodes + 2))
        ts[:, :2] = todo
        for level in range(BISECT_LEVELS):
            cols = slice(2 ** level - 1, 2 ** (level + 1) - 1)
            ts[:, 2 + cols.start:2 + cols.stop] = 0.5 * (
                ts[:, r_col[cols]] + ts[:, nr_col[cols]])
        mids = ts[:, 2:]
        vals = spec.values(mids.ravel())
        real = tol.is_real(algebra.row_norms(vals[:, 1:]), algebra.row_norms(vals))
        for e, mid, is_real in zip(todo, mids.tolist(), real.reshape(mids.shape).tolist()):
            n = 0
            while n < nodes and abs(e[0] - e[1]) > ptol:
                if is_real[n]:
                    e[0] = mid[n]
                    n = 2 * n + 1
                else:
                    e[1] = mid[n]
                    n = 2 * n + 2
        todo = [e for e in todo if abs(e[0] - e[1]) > ptol]
    return [float(e[0]) for e in edges]


@contextlib.contextmanager
def heap_bisection():
    """find_obstructions with each real edge bisected by
    reference_bisect_real_edges instead of solved with Brent."""
    localize = obstruction._localize_contacts

    def bisecting(spec, sampled, tri, edges, ptol):
        found, _ends = localize(spec, sampled, tri, [], ptol)
        ts = sampled.params
        return found, reference_bisect_real_edges(
            spec, [(ts[i], ts[j]) for i, j in edges], ptol, sampled.tol)

    obstruction._localize_contacts = bisecting
    try:
        yield
    finally:
        obstruction._localize_contacts = localize


def assert_same_report(got, want, spec, label):
    """The same contacts, kinds, signs and wrap flags, and the same runs,
    each parameter within 2 ptol of the report's tolerance ptol.  A
    contact that one route finds on a real sample, as the middle of its
    real set, and the other solves for inside a bracket, as the minimum
    of |Im|, can lie further apart, within the real set: then the path
    is real at both parameters, which are closer than the shortest run."""
    span = spec.b - spec.a
    ptol = config.PARAM_RESOLUTION * span
    assert [(c.kind, c.sign, c.wrap) for c in got.contacts] == [
        (c.kind, c.sign, c.wrap) for c in want.contacts], label
    for g, w in zip(got.contacts, want.contacts):
        assert abs(g.t - w.t) <= 2 * ptol or (
            abs(g.t - w.t) < 1e-5 * span
            and is_real_vec(spec.value(g.t)) and is_real_vec(spec.value(w.t))), (label, g.t, w.t)
    assert [(r.sign, r.wrap) for r in got.runs] == [(r.sign, r.wrap) for r in want.runs], label
    assert all(abs(g.t0 - w.t0) <= 2 * ptol and abs(g.t1 - w.t1) <= 2 * ptol
               for g, w in zip(got.runs, want.runs)), label


class Meter:
    def __init__(self):
        self.calls = 0
        self.points = 0


@dataclass(frozen=True)
class Counted:
    """A segment that counts the parameters it is evaluated at."""

    ta: float
    tb: float
    inner: object
    meter: Meter = field(compare=False)

    def values(self, ts):
        self.meter.calls += 1
        self.meter.points += len(ts)
        return self.inner.values(ts)


def counted(spec, meter):
    return replace(spec, segments=tuple(
        Counted(s.ta, s.tb, s, meter) for s in spec.segments))


# ---------------------------------------------------------------------------
# PathSpec.values


@pytest.mark.parametrize("name", CORPUS)
def test_values_equal_one_point_values_bit_for_bit(name):
    for kind, spec in variants(hl.demo(name).path).items():
        edges = [s.ta for s in spec.segments] + [spec.b]
        ts = np.concatenate((np.linspace(spec.a, spec.b, 257), edges))
        block = spec.values(ts)
        rows = np.array([spec.value(float(t)) for t in ts])
        assert same_bits(block, rows), f"{name}/{kind}"
        # order of the parameters does not matter
        perm = np.random.default_rng(0).permutation(len(ts))
        assert same_bits(spec.values(ts[perm]), rows[perm]), f"{name}/{kind}"


def reference_values(spec, ts):
    """PathSpec.values as one call per segment present, each segment
    evaluated through its own wrappers."""
    ts = np.asarray(ts, dtype=float)
    tol = config.PARAM_RESOLUTION * (spec.b - spec.a)
    if ((ts < spec.a - tol) | (ts > spec.b + tol)).any():
        raise OutOfDomain("outside the domain")
    ts = np.clip(ts, spec.a, spec.b)
    cuts = np.array([s.ta for s in spec.segments[1:]])
    segs = np.searchsorted(cuts, ts, side="right")
    out = np.empty((len(ts), spec.dim))
    for k in np.unique(segs):
        rows = segs == k
        out[rows] = spec.segments[k].values(ts[rows])
    return out


def oracle_paths():
    """The corpus variants, and paths whose segments share inners."""
    yield from corpus_paths()
    circle = hl.demo("slice_circle(i,1,1)").path
    loop = hl.demo("lambda_loop").path
    three = hl.demo("three_exp").path
    open_three = replace(three, closed=False)
    grid = np.linspace(0.0, 2 * math.pi, 513)
    samples = PathSpec(0.0, 2 * math.pi, (Samples(
        0.0, 2 * math.pi, tuple(grid.tolist()),
        tuple(map(tuple, circle.values(grid).tolist()))),), closed=True)
    shared = {
        "repeat": hl.repeat(circle, 7),
        "concat": hl.concat(hl.concat(open_three, open_three), open_three),
        "reverse(repeat)": hl.reverse(hl.repeat(loop, 3)),
        "reflect_negconj(repeat)": hl.reflect_negconj(hl.repeat(three, 4)),
        "reverse(reflect_negconj(repeat))": hl.reverse(hl.reflect_negconj(hl.repeat(three, 3))),
        "samples": samples,
        "repeat(samples)": hl.repeat(samples, 5),
    }
    shared["json"] = hl.path_from_json(json.loads(json.dumps(
        hl.path_to_json(shared["reflect_negconj(repeat)"]))))
    for label, spec in shared.items():
        yield label, spec
        if spec.closed:
            yield f"{label}/rotate_basepoint", hl.rotate_basepoint(
                spec, spec.a + 0.37 * (spec.b - spec.a))


def oracle_parameters(spec):
    """Both ends and every cut, the floats next to each cut, parameters
    just outside the domain that are clamped onto it, and a uniform grid."""
    tol = 1e-13 * (spec.b - spec.a)
    cuts = np.array([s.ta for s in spec.segments[1:]])
    return np.concatenate((
        [spec.a, spec.b], cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
        [spec.a - tol, spec.b + tol], np.linspace(spec.a, spec.b, 129)))


def test_values_equal_per_segment_values_bit_for_bit():
    for label, spec in oracle_paths():
        ts = oracle_parameters(spec)
        want = reference_values(spec, ts)
        assert same_bits(spec.values(ts), want), label
        perm = np.random.default_rng(1).permutation(len(ts))
        assert same_bits(spec.values(ts[perm]), want[perm]), label
        # a parameter alone, and two parameters in the first and last segments
        assert same_bits(spec.values(ts[-7:-6]), want[-7:-6]), label
        assert same_bits(spec.values(ts[[0, -1]]), want[[0, -1]]), label


@given(st.integers(1, 64), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=48))
@settings(max_examples=60, deadline=None)
def test_values_on_repeated_circles_equal_per_segment_values(m, fractions):
    spec = hl.demo(f"gamma1m_gamma2({m})").path
    ts = spec.a + np.array(fractions) * (spec.b - spec.a)
    assert same_bits(spec.values(ts), reference_values(spec, ts))


@pytest.mark.parametrize("m", [1, 8, 64])
def test_copies_of_one_segment_make_one_inner_call(m):
    meter = Meter()
    circle = counted(hl.demo("slice_circle(i,1,1)").path, meter)
    meter.calls = meter.points = 0  # the closure checked by counted's copy
    spec = hl.repeat(circle, m)
    # the constructor evaluates the ends of all m copies in one call
    assert (meter.calls, meter.points) == (1, 2 * m)
    meter.calls = meter.points = 0
    spec.values(np.linspace(spec.a, spec.b, 4097))
    assert (meter.calls, meter.points) == (1, 4097)


def test_values_make_one_segment_call_per_segment():
    meter = Meter()
    spec = counted(hl.demo("gamma1m_gamma2(8)").path, meter)
    meter.calls = meter.points = 0  # the joins checked by the constructor
    spec.values(np.linspace(spec.a, spec.b, 4097))
    assert meter.calls == len(spec.segments)
    assert meter.points == 4097


def test_values_reject_parameters_outside_the_domain():
    spec = hl.demo("lambda_loop").path
    with pytest.raises(OutOfDomain):
        spec.values(np.array([spec.a, 0.5 * spec.b, spec.b + 1e-6]))
    assert spec.values(np.array([])).shape == (0, 4)
    # rounding just outside the domain is clamped onto its ends
    tol = 1e-13 * (spec.b - spec.a)
    ends = spec.values(np.array([spec.a - tol, spec.b + tol]))
    assert same_bits(ends, spec.values(np.array([spec.a, spec.b])))


def test_repeat_equals_successive_concats():
    for name in ("slice_circle(i,1,1)", "lambda_loop", "three_exp"):
        spec = hl.demo(name).path
        for m in (1, 2, 3, 5, 13, 16):
            chain = replace(spec, closed=False)
            for _ in range(m - 1):
                chain = hl.concat(chain, replace(spec, closed=False))
            assert hl.repeat(spec, m) == replace(chain, closed=True)


def test_concat_of_many_paths_equals_successive_concats():
    # paths of other domains and lengths, each starting where the one
    # before ends: one concat gives the spec of the pairwise concats
    three = replace(hl.demo("three_exp").path, closed=False)
    head = hl.subpath(three, three.a, three.a + 1.0)
    pieces = [three, head, hl.reverse(head), three]
    chain = pieces[0]
    for p in pieces[1:]:
        chain = hl.concat(chain, p)
    for closed in (False, True):
        assert hl.concat(*pieces, closed=closed) == replace(chain, closed=closed)
    assert hl.concat(three) == three


# ---------------------------------------------------------------------------
# the sampler against the edge-halving route


# the rockets spin without limit; the depth-first reference spends tens
# of seconds on each before it gives up, the level-synchronous one less
# than a second
SPINNING = ("rocket_neg", "rocket_pos")


# every node of the first grid of these circles is 2 and every midpoint -2
RESONANT = ["slice_circle(j,2,64)", "slice_circle(j,2,192)"]
# a circle so small that the real set about each crossing, judged by the
# absolute near-axis test of the sampler, could be long
TINY = "slice_circle(j,1e-06,3)"


def depth_first_grid(spec, n0=64):
    ts, vals, brackets = reference_sample_adaptive(spec, n0)
    return SampledPath(ts, vals, brackets=brackets)


# paths on which the edge-halving route misses a semi-tame contact at a
# join, t = pi, that is no node of its first grid: the bounded minimiser
# stops some 5e-8 away from the V-shaped minimum of |Im|, where the path
# is not real.  The library's first grid holds the join.
MISSED_AT_JOINS = {"sigma_arc/subpath": (math.pi,), "sigma_hat/subpath": (math.pi,)}


def assert_reports_match_the_edge_halving_route(spec, label, n0=64, reference=depth_first_grid):
    """The report of spec, closed when it is and open, from the library's
    sampler and Brent edges is that of the reference sampler's grid with
    heap-bisected edges, but for the semi-tame contacts MISSED_AT_JOINS
    names; both fall back to uniform samples together."""
    missed = MISSED_AT_JOINS.get(label, ())
    def route(sample):
        try:
            return sample(spec, n0), "adaptive"
        except RefinementBudgetExceeded:
            return hl.sample_uniform(spec, pathkit.FALLBACK_SAMPLES), "uniform_fallback"

    want_sp, want_sampling = route(reference)
    got_sp, got_sampling = route(hl.sample_adaptive)
    assert got_sampling == want_sampling, label
    for closed in {spec.closed, False}:
        path = replace(spec, closed=closed)
        with heap_bisection():
            want = hl.find_obstructions(want_sp, path)
        got = hl.find_obstructions(got_sp, path)
        extra = [c for c in got.contacts if any(abs(c.t - t) < 1e-9 for t in missed)]
        assert [c.kind for c in extra] == [SEMI_TAME] * len(missed), label
        got = replace(got, contacts=tuple(c for c in got.contacts if c not in extra))
        assert_same_report(got, want, path, f"{label}/closed={closed}")


@pytest.mark.parametrize("name", CORPUS + RESONANT + [TINY])
def test_sampler_matches_depth_first_reference(name):
    reference = reference_level_sampler if name in SPINNING else depth_first_grid
    for kind, spec in variants(hl.demo(name).path).items():
        assert_reports_match_the_edge_halving_route(spec, f"{name}/{kind}", reference=reference)


@given(st.integers(0, 2**32 - 1), st.sampled_from([8, 64]))
@settings(max_examples=30, deadline=None)
def test_sampler_matches_reference_on_random_loops(seed, n0):
    spec, _winding, _misses = single_slice_loop(np.random.default_rng(seed))
    assert_reports_match_the_edge_halving_route(spec, seed, n0)


def test_sampler_evaluates_each_point_once_per_level():
    meter = Meter()
    spec = counted(hl.demo("slice_circle(j,2,20)").path, meter)
    meter.calls = meter.points = 0  # the closure checked by the constructor
    sp = hl.sample_adaptive(spec)
    # the 65 nodes of the first grid and one midpoint for each of the 64
    # first intervals, the two halves of every split and the half of
    # every crossing that is not its bracket: as many points as the
    # depth-first sampler, in one call per level
    assert len(sp.brackets) > 0
    assert meter.points == 2 * len(sp.params) - 1 - len(sp.brackets)
    assert meter.calls <= pathkit.D_MAX + 2


@pytest.mark.parametrize("d_max", [0, 1, 2])
def test_a_crossing_at_the_depth_cap_is_the_bracket_of_its_interval(d_max, monkeypatch):
    # off the first grid's nodes, each of the circle's six crossings is a
    # bracket: the half that holds it above the depth cap, and at the cap,
    # where no midpoint goes in, the whole interval.  The circle is one arc
    # starting 0.1 past the axis, so no join puts a crossing on a node.
    arc = pathkit.SliceArc(0.0, 6 * math.pi, (0.0, 0.0, 1.0, 0.0), 0.1, 6 * math.pi + 0.1,
                           radius=2.0)
    spec = PathSpec(0.0, 6 * math.pi, (arc,), closed=True)
    monkeypatch.setattr(pathkit, "D_MAX", d_max)
    sp = hl.sample_adaptive(spec)
    rep = hl.find_obstructions(sp, spec)
    assert len(sp.brackets) == 6 and not sp.real.any()
    width = (spec.b - spec.a) / 64 / (1 if d_max == 0 else 2)
    assert np.diff(sp.params)[sp.brackets] == pytest.approx(width)
    assert [c.kind for c in rep.contacts] == ["flip"] * 6


@pytest.mark.parametrize("name", SPINNING)
def test_spinning_paths_give_up(name):
    for kind, spec in variants(hl.demo(name).path).items():
        if kind == "subpath":
            # [0.1, 0.6] stays away from the spin at the ends
            ts, vals, brackets = reference_sample_adaptive(spec)
            got = hl.sample_adaptive(spec)
            assert same_bits(got.params, ts) and same_bits(got.values, vals)
            assert same_bits(got.brackets, brackets)
            continue
        with pytest.raises(RefinementBudgetExceeded):
            hl.sample_adaptive(spec)


def test_rocket_gives_up_within_the_budget():
    meter = Meter()
    spec = counted(hl.demo("rocket_neg").path, meter)
    meter.calls = meter.points = 0  # the closure checked by the constructor
    with pytest.raises(RefinementBudgetExceeded) as err:
        hl.sample_adaptive(spec)
    assert meter.points <= EVAL_BUDGET
    unresolved = err.value.unresolved
    assert unresolved[0][0] < 1e-3
    assert [lo for lo, _hi in unresolved] == sorted(lo for lo, _hi in unresolved)
    # the partial grid: sorted, covering the domain, holding the ends of
    # every unresolved bracket, with the path's own values
    part = err.value.sampled
    assert part.params[0] == spec.a and part.params[-1] == spec.b
    assert np.all(np.diff(part.params) > 0)
    assert set(t for br in unresolved for t in br) <= set(part.params.tolist())
    assert same_bits(part.values, spec.values(part.params))


@pytest.mark.parametrize("n0", [3, 64])
def test_sampler_rejects_a_zero_at_any_evaluated_point(n0):
    # zero at t=0.5: a node of the first grid for n0=64, the midpoint
    # of its middle interval for n0=3
    line = Line(0.0, 1.0, (-1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ZeroOnPath):
        hl.sample_adaptive(PathSpec(0.0, 1.0, (line,)), n0)


def test_sampler_names_the_first_zero_of_a_level():
    # zeros at t = 0.375 and t = 0.625, both midpoints of the second level
    # for n0 = 2; the error names the first, as the depth-first sampler does
    p = PolyFn((1.0, -1.0, 0.234375))
    spec = PathSpec(0.0, 1.0, (SliceCurve(0.0, 1.0, (0.0, 1.0, 0.0, 0.0), p, p),))
    with pytest.raises(ZeroOnPath) as want:
        reference_sample_adaptive(spec, 2)
    with pytest.raises(ZeroOnPath) as got:
        hl.sample_adaptive(spec, 2)
    assert str(got.value) == str(want.value) == "path value vanishes near t=0.375"


class Nodes(NamedTuple):
    """Sample nodes with the per-node quantities of the split test."""

    t: np.ndarray
    v: np.ndarray
    mag: np.ndarray
    im: np.ndarray
    real: np.ndarray
    unit: np.ndarray

    @classmethod
    def of(cls, t, v):
        mag = np.linalg.norm(v, axis=1)
        im = np.linalg.norm(v[:, 1:], axis=1)
        real = config.DEFAULT.is_real(im, mag)
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = v[:, 1:] / im[:, None]
        return cls(t, v, mag, im, real, unit)

    def take(self, rows):
        return Nodes(*(a[rows] for a in self))

    def join(self, other):
        return Nodes(*map(np.concatenate, zip(self, other)))


def reference_level_needs_split(left, mid, right, h_cross, tol):
    cos_step, cos_tol = math.cos(pathkit.THETA_STEP), math.cos(config.THETA_TOL)
    length = right.t - left.t
    all_real = left.real & mid.real & right.real
    contact = left.real | mid.real | right.real
    contact |= mid.im < 0.3 * np.minimum(left.im, right.im)
    mags_max = np.maximum(np.maximum(left.mag, mid.mag), right.mag)
    mags_min = np.minimum(np.minimum(left.mag, mid.mag), right.mag)
    d1 = np.einsum("nd,nd->n", left.unit, mid.unit)
    d2 = np.einsum("nd,nd->n", mid.unit, right.unit)
    aligned = np.minimum(np.abs(d1), np.abs(d2)) >= cos_step
    long = length > h_cross
    # an axis crossing: a reversal in exactly one half between non-real
    # nodes, both halves aligned within THETA_TOL, a real set about a
    # simple root shorter than a quarter of h_cross, and under a quarter
    # turn of the argument of x + i<Im, u_left> over both halves
    thr = tol.eps_real * mags_max
    near = 8.0 * thr * length >= h_cross * (left.im + right.im)
    z = [n.v[:, 0] + 1j * np.einsum("nd,nd->n", n.v[:, 1:], left.unit)
         for n in (left, mid, right)]
    turn = np.abs(np.angle(z[1] * np.conj(z[0]))) + np.abs(np.angle(z[2] * np.conj(z[1])))
    crossing = (
        ((d1 < 0.0) != (d2 < 0.0))
        & (np.minimum(np.abs(d1), np.abs(d2)) >= cos_tol)
        & ~(left.real | mid.real | right.real)
        & (turn < math.pi / 2)
        & ~near
        & long
    )
    long &= ~crossing
    turning = (
        (mags_max / mags_min > 1.1)
        | ~aligned
        | ((d1 < 0.0) & (d2 < 0.0))
        | (((d1 < 0.0) | (d2 < 0.0)) & long)
    )
    # a real run cannot pass through 0
    x = np.sign([left.v[:, 0], mid.v[:, 0], right.v[:, 0]])
    run = all_real & (x[0] == x[1]) & (x[1] == x[2])
    split = np.where(contact, long & ~run, turning)
    side = np.where(crossing & ~split, np.where(d1 < 0.0, -1, 1), 0)
    return split, side


def reference_level_sampler(spec, n0=64):
    """The level-synchronous sampler that collects the right end of each
    leaf interval and sorts them at the end: the intervals of a level
    are the left halves of the previous level's splits, then the right
    halves, then the halves of its crossings that are not brackets, and
    the unresolved brackets are sorted by their left ends."""
    span = spec.b - spec.a
    h_cross = span * 1e-6
    h_floor = span * 2.0 ** -40

    def nodes_at(ts):
        nodes = Nodes.of(ts, spec.values(ts))
        zero = nodes.mag <= config.DEFAULT.eps_real
        if zero.any():
            raise ZeroOnPath(f"path value vanishes near t={float(ts[np.argmax(zero)])}")
        return nodes

    grid = nodes_at(np.linspace(spec.a, spec.b, n0 + 1))
    evaluations = n0 + 1
    leaves = [(grid.t[:1], grid.v[:1])]
    brackets = []
    left, right = grid.take(slice(0, -1)), grid.take(slice(1, None))
    lo = hi = np.empty(0)
    depth = 0
    while len(left.t):
        tiny = right.t - left.t <= h_floor
        if tiny.any():
            leaves.append((right.t[tiny], right.v[tiny]))
            left, right = left.take(~tiny), right.take(~tiny)
        if evaluations + len(left.t) > EVAL_BUDGET:
            lo, hi = left.t, right.t
            leaves.append((right.t, right.v))
            break
        mid = nodes_at(0.5 * (left.t + right.t))
        evaluations += len(mid.t)
        split, side = reference_level_needs_split(left, mid, right, h_cross, config.DEFAULT)
        if depth >= pathkit.D_MAX:
            brackets.append(left.t[side != 0])
            leaves.append((right.t[~split], right.v[~split]))
            lo, hi = left.t[split], right.t[split]
            leaves.append((right.t[split], right.v[split]))
            break
        # a crossing's bracket half is a leaf, its other half goes on
        lh, rh = side < 0, side > 0
        leaves.append((right.t[~split & ~lh], right.v[~split & ~lh]))
        leaves.append((mid.t[lh], mid.v[lh]))
        brackets += [left.t[lh], mid.t[rh]]
        left, right = (
            left.take(split).join(mid.take(split)).join(mid.take(lh)).join(left.take(rh)),
            mid.take(split).join(right.take(split)).join(right.take(lh)).join(mid.take(rh)),
        )
        depth += 1

    ts = np.concatenate([t for t, _v in leaves])
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    sampled = SampledPath(ts, np.concatenate([v for _t, v in leaves])[order],
                          brackets=np.searchsorted(ts, np.sort(np.concatenate([np.empty(0)] + brackets))))
    if len(lo):
        first = np.argsort(lo, kind="stable")
        brackets = list(zip(lo[first].tolist(), hi[first].tolist()))
        raise RefinementBudgetExceeded(
            f"refinement budget exhausted on {len(brackets)} bracket(s), "
            f"first near t={brackets[0][0]!r}",
            sampled=sampled,
            unresolved=brackets,
        )
    return sampled


def depth_limit_line():
    """A line whose imaginary part 3e-9 stays just above the realness
    threshold: every interval around its crossing of the imaginary axis
    at t = 0.5 looks like a contact, so the sampler gives up at D_MAX."""
    return PathSpec(0.0, 1.0, (Line(0.0, 1.0, (-1.0, 3e-9, 0.0, 0.0),
                                    (1.0, 3e-9, 0.0, 0.0)),))


GIVING_UP = {
    "depth_limit_line": depth_limit_line,
    "rocket_neg": lambda: hl.demo("rocket_neg").path,
    "rocket_pos": lambda: hl.demo("rocket_pos").path,
    "subpath(rocket_neg)": lambda: hl.subpath(hl.demo("rocket_neg").path, 0.0, 1e-3),
}


@pytest.mark.parametrize("n0", [1, 7, 64])
@pytest.mark.parametrize("name", GIVING_UP)
def test_give_up_matches_level_synchronous_reference(name, n0):
    # the sampler gives up where the edge-halving one does, first near the
    # same bracket; it leaves unresolved only brackets that one leaves too,
    # fewer where it stops beside a real node whose direction settles
    spec = GIVING_UP[name]()
    with pytest.raises(RefinementBudgetExceeded) as want:
        reference_level_sampler(spec, n0)
    with pytest.raises(RefinementBudgetExceeded) as got:
        hl.sample_adaptive(spec, n0)
    unresolved = got.value.unresolved
    assert unresolved[0] == want.value.unresolved[0]
    assert set(unresolved) <= set(want.value.unresolved)
    assert unresolved == sorted(unresolved)
    # the partial grid: sorted, covering the domain, holding the ends of
    # every unresolved bracket, with the path's own values
    part = got.value.sampled
    assert part.params[0] == spec.a and part.params[-1] == spec.b
    assert np.all(np.diff(part.params) > 0)
    assert set(t for br in unresolved for t in br) <= set(part.params.tolist())
    assert same_bits(part.values, spec.values(part.params))
    if name == "depth_limit_line":
        # no node of it is real: the same grid, bit for bit
        assert str(got.value) == str(want.value)
        assert unresolved == want.value.unresolved
        assert same_bits(part.params, want.value.sampled.params)
        assert same_bits(part.brackets, want.value.sampled.brackets)


@pytest.mark.parametrize("n0", [1, 7, 64])
def test_depth_limit_gives_up_around_the_crossing(n0):
    spec = depth_limit_line()
    with pytest.raises(RefinementBudgetExceeded) as err:
        hl.sample_adaptive(spec, n0)
    unresolved = err.value.unresolved
    assert len(unresolved) == 20
    assert all(abs(lo - 0.5) < 1e-6 and abs(hi - 0.5) < 1e-6 for lo, hi in unresolved)
    # the brackets of depth D_MAX
    length = (spec.b - spec.a) / n0 * 2.0 ** -pathkit.D_MAX
    assert all(hi - lo == pytest.approx(length) for lo, hi in unresolved)


# ---------------------------------------------------------------------------
# crossing brackets against the halving route


def halving_needs_split(left, mid, right, h_cross, tol, _k, _count):
    """The sampler's split test from before crossings became brackets:
    every reversal of the direction in one half is halved down to
    h_cross, and no interval is left as a bracket."""
    _T, _MAG, _IM, _REAL, _V = range(5)
    length = right[:, _T] - left[:, _T]
    real_l, real_m, real_r = left[:, _REAL] != 0.0, mid[:, _REAL] != 0.0, right[:, _REAL] != 0.0
    all_real = real_l & real_m & real_r
    contact = real_l | real_m | real_r
    contact |= mid[:, _IM] < 0.3 * np.minimum(left[:, _IM], right[:, _IM])
    mags_max = np.maximum(np.maximum(left[:, _MAG], mid[:, _MAG]), right[:, _MAG])
    mags_min = np.minimum(np.minimum(left[:, _MAG], mid[:, _MAG]), right[:, _MAG])
    unit = slice(_V + (left.shape[1] - _V + 1) // 2, None)
    d1 = np.einsum("nd,nd->n", left[:, unit], mid[:, unit])
    d2 = np.einsum("nd,nd->n", mid[:, unit], right[:, unit])
    aligned = np.minimum(np.abs(d1), np.abs(d2)) >= math.cos(pathkit.THETA_STEP)
    long = length > h_cross
    turning = (
        (mags_max / mags_min > 1.1)
        | ~aligned
        | ((d1 < 0.0) & (d2 < 0.0))
        | (((d1 < 0.0) | (d2 < 0.0)) & long)
    )
    # a real run cannot pass through 0
    x = np.sign([left[:, _V], mid[:, _V], right[:, _V]])
    run = all_real & (x[0] == x[1]) & (x[1] == x[2])
    return np.where(contact, long & ~run, turning), np.empty(0, dtype=np.intp)


@contextlib.contextmanager
def halving_sampler():
    """The library's sampler under the halving split test."""
    needs_split = pathkit._needs_split
    pathkit._needs_split = halving_needs_split
    try:
        yield
    finally:
        pathkit._needs_split = needs_split


def assert_obstructions_match_the_halving_route(spec, label):
    with halving_sampler():
        want_sp, want_sampling = sample_path(spec)
    assert not len(want_sp.brackets)
    want = hl.find_obstructions(want_sp, spec)
    sp, sampling = sample_path(spec)
    got = hl.find_obstructions(sp, spec)
    assert sampling == want_sampling, label
    assert_same_report(got, want, spec, label)
    return len(sp.brackets)


def test_crossing_brackets_find_the_contacts_of_the_halving_route():
    brackets = 0
    # the corpus, and a circle so small that each crossing's real set,
    # about 2e-3 long, is a real run: such a crossing is no bracket
    tiny = hl.demo("slice_circle(j,1e-6,3)").path
    for label, spec in [*corpus_paths(), ("slice_circle(j,1e-6,3)", tiny)]:
        brackets += assert_obstructions_match_the_halving_route(spec, label)
        if spec.closed:
            brackets += assert_obstructions_match_the_halving_route(
                replace(spec, closed=False), f"{label}/open")
    assert brackets > 100


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_crossing_brackets_find_the_contacts_of_the_halving_route_on_random_loops(seed):
    spec, _winding, _misses = single_slice_loop(np.random.default_rng(seed))
    assert_obstructions_match_the_halving_route(spec, seed)


# ---------------------------------------------------------------------------
# batched contact probes


def probe_cases():
    """Contact parameters of the corpus paths, with their sample grids and
    the (real, non-real) index pairs of the grids' real edges."""
    for label, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        rep = hl.find_obstructions(sp, spec)
        ts = [c.t for c in rep.contacts] + [r.t0 for r in rep.runs]
        ims = np.linalg.norm(sp.values[:, 1:], axis=1)
        real = ims <= config.DEFAULT.eps_real * np.linalg.norm(sp.values, axis=1)
        edges = [
            (int(n), int(n + step))
            for n in np.flatnonzero(real)
            for step in (-1, 1)
            if 0 <= n + step < len(real) and not real[n + step]
        ]
        yield label, spec, sp, ts, edges


def same_direction(got, want) -> bool:
    return got is None if want is None else same_bits(got, want)


def test_one_sided_direction_matches_reference():
    checked = 0
    for label, spec, _sp, ts, _edges in probe_cases():
        span = spec.b - spec.a
        if not spec.closed:
            # ladders whose first offsets fall outside the domain: up to
            # ten are skipped, and the rounds count the offsets inside
            ts = ts + [end + sign * d * span for end, sign in ((spec.a, 1), (spec.b, -1))
                       for d in (1e-6, 3e-5, 5e-4)]
        requests = [(t, side, h0) for t in ts for side in (-1, 1)
                    for h0 in (1e-3 * span, 1e-5 * span)]
        wants = [reference_one_sided_direction(spec, *req) for req in requests]
        for (t, side, h0), want in zip(requests, wants):
            if h0 == 1e-3 * span:
                got = obstruction.one_sided_direction(spec, t, side)
                assert same_direction(got, want), label
                checked += 1
        # all requests of a path together, as find_obstructions asks them
        batch = obstruction._one_sided_directions(spec, requests, config.DEFAULT)
        assert all(same_direction(got, want) for got, want in zip(batch, wants)), label
    assert checked > 100


def test_bisect_real_edge_matches_reference():
    # the heap bisection of the edge-halving route, all edges of a path
    # together, finds the real end that one halving per call finds; the
    # library's Brent probe, from the grid's values, finds a root of
    # |Im| - eps_real |q| within 2 ptol of it, up to the solver's
    # relative tolerance
    checked = 0
    for label, spec, sp, _ts, edges in probe_cases():
        ptol = config.PARAM_RESOLUTION * (spec.b - spec.a)
        pairs = [(sp.params[i], sp.params[j]) for i, j in edges]
        wants = [reference_bisect_real_edge(spec, t_real, t_nonreal, ptol)
                 for t_real, t_nonreal in pairs]
        assert reference_bisect_real_edges(spec, pairs, ptol, config.DEFAULT) == wants, label
        found, ends = obstruction._localize_contacts(
            spec, sp, np.empty((0, 3), dtype=np.intp), edges, ptol)
        assert found == [] and len(ends) == len(wants), label
        assert all(abs(got - want) <= 2 * ptol + _brent.RTOL * abs(want)
                   for got, want in zip(ends, wants)), label
        # and a root inside the edge
        assert all(min(a, b) <= got <= max(a, b) for got, (a, b) in zip(ends, pairs)), label
        checked += len(edges)
    assert checked > 20


# blocks of rows of dimension 4 or 8, at one scale between 1e-300 and 1e300
rows = st.tuples(
    st.sampled_from([4, 8]), st.integers(1, 40), st.floats(-300, 300),
).flatmap(lambda a: hnp.arrays(
    np.float64, (a[1], a[0]),
    elements=st.floats(-10.0, 10.0).map(lambda x: x * 10.0 ** a[2])))


@given(rows)
@settings(max_examples=200, deadline=None)
def test_row_norms_equal_one_row_norms_bit_for_bit(v):
    # squares past 1e308 overflow to inf, and below 1e-308 underflow, in
    # both computations
    with np.errstate(over="ignore", under="ignore"):
        for block in (v, v[:, 1:]):
            want = np.array([np.linalg.norm(r) for r in block])
            assert same_bits(algebra.row_norms(block), want)


# upper bounds on the points find_obstructions evaluates on
# slice_circle(j,2,n), set to its counts since the sampler stops beside a
# real node: 706, 1412, 2824 and 5648 before its probes were batched (7
# segment calls per contact), 698, 1396, 2792 and 5584 while real edges
# were bisected
UNBATCHED_POINTS = {5: 213, 10: 427, 20: 855, 40: 1694}
# and on the points of sample_path and find_obstructions together: 1171,
# 2213, 4297 and 8401 while the sampler halved every crossing down to a
# millionth of the domain, 947, 1765, 3465 and 6865 while it halved every
# interval beside a real node so
HALVING_POINTS = {5: 350, 10: 572, 20: 1112, 40: 2207}
# upper bounds on the path calls of sample_path and find_obstructions
# together, each segment counted on its own; a count that falls lowers
# its bound.  While the sampler halved beside a real node they were 43,
# 43, 29, 29, 29, 82, 45, 89, 138, 47, 22, 26 and 22 for the corpus, in
# this order, and 26 for every slice_circle(j,2,n)
PATH_CALLS = {
    "sigma_arc": 11,
    "sigma_hat": 11,
    "rocket_neg": 25,
    "rocket_pos": 25,
    "lambda_loop": 29,
    "three_exp": 17,
    "gamma1m_gamma2(1)": 15,
    "gamma1m_gamma2(3)": 29,
    "gamma1m_gamma2(8)": 81,
    "meridians": 15,
    "slice_circle(i,1,1)": 6,
    "slice_circle(j,2,20)": 10,
    "slice_circle(k,0.001,2)": 7,
    "slice_circle(j,2,5)": 9,
    "slice_circle(j,2,10)": 9,
    "slice_circle(j,2,40)": 11,
    "slice_circle(j,2,80)": 12,
}
# upper bounds on the (path calls, points) of find_obstructions alone on
# each corpus path, each segment counted on its own; a count that falls
# lowers its bound
FIND_PROBES = {
    "sigma_arc": (7, 21),
    "sigma_hat": (7, 21),
    "rocket_neg": (8, 61),
    "rocket_pos": (8, 61),
    "lambda_loop": (14, 44),
    "three_exp": (9, 43),
    "gamma1m_gamma2(1)": (10, 81),
    "gamma1m_gamma2(3)": (19, 175),
    "gamma1m_gamma2(8)": (53, 399),
    "meridians": (9, 42),
    "slice_circle(i,1,1)": (4, 42),
    "slice_circle(j,2,20)": (6, 855),
    "slice_circle(k,0.001,2)": (5, 88),
}


def sample_and_obstruct(name):
    """(report, path calls, points) of sample_path and then
    find_obstructions on a corpus path, each segment counted on its own."""
    meter = Meter()
    spec = counted(hl.demo(name).path, meter)
    meter.calls = meter.points = 0  # the closure checked by the constructor
    sp, _sampling = sample_path(spec)
    sampled = (meter.calls, meter.points)
    meter.calls = meter.points = 0
    rep = hl.find_obstructions(sp, spec)
    return rep, sampled, (meter.calls, meter.points)


@pytest.mark.parametrize("name", PATH_CALLS)
def test_sampling_and_obstructions_stay_within_their_path_calls(name):
    _rep, (sample_calls, _), (find_calls, _) = sample_and_obstruct(name)
    assert sample_calls + find_calls <= PATH_CALLS[name]


@pytest.mark.parametrize("name", FIND_PROBES)
def test_obstruction_probes_stay_within_their_calls_and_points(name):
    _rep, _sampled, (calls, points) = sample_and_obstruct(name)
    max_calls, max_points = FIND_PROBES[name]
    assert calls <= max_calls and points <= max_points, (calls, points)


def test_obstruction_probes_make_one_call_per_round():
    calls = {}
    for n in (5, 10, 20, 40, 80):
        rep, (_, sampled), (calls[n], found) = sample_and_obstruct(f"slice_circle(j,2,{n})")
        assert len(rep.contacts) == 2 * n
        assert found <= UNBATCHED_POINTS.get(n, math.inf), n
        assert sampled + found <= HALVING_POINTS.get(n, math.inf), n
    # as many rounds however many contacts there are
    assert calls[80] <= calls[5], calls


# sample_path points on slice_circle(j,2,n) while the sampler halved every
# crossing down to a millionth of the domain
HALVING_SAMPLE_POINTS = {5: 465, 10: 801, 20: 1473, 40: 2753}


@pytest.mark.parametrize("n", sorted(HALVING_SAMPLE_POINTS))
def test_crossing_brackets_spare_the_halving_levels(n):
    meter = Meter()
    spec = counted(hl.demo(f"slice_circle(j,2,{n})").path, meter)
    meter.calls = meter.points = 0  # the closure checked by the constructor
    sp, _sampling = sample_path(spec)
    # a crossing on a node of the first grid is a real sample, whose
    # edges find_obstructions solves; every other crossing is a bracket
    assert len(sp.brackets) + len(sp.stretches) == 2 * n + 1
    assert meter.points < HALVING_SAMPLE_POINTS[n]
