"""Unit direction fields, companions, canonical forms and shadows."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlog as hl
from hyperlog import config, winding
from hyperlog.companion import _slerp
from hyperlog.errors import SliceMismatch
from hyperlog.obstruction import BAD_KINDS, BOUNCE, DIRECTIVES, FLIP, classify_interval
from hyperlog.pathkit import Line, PathSpec, SliceArc, sample_path

from test_acceptance import single_slice_loop

PI = math.pi


def sampled_and_report(name, closed=None, n0=64):
    spec = hl.demo(name).path
    if closed is not None:
        spec = replace(spec, closed=closed)
    try:
        sp = hl.sample_adaptive(spec, n0)
    except hl.errors.RefinementBudgetExceeded:
        sp = hl.sample_uniform(spec, 4097)
    return spec, sp, hl.find_obstructions(sp, spec)


def field_is_continuous(units):
    u = units / np.maximum(np.linalg.norm(units, axis=1, keepdims=True), 1e-30)
    dots = np.einsum("nd,nd->n", u[1:], u[:-1])
    return bool(np.all(dots > 0.0))


def test_slerp_endpoints_and_norms():
    u0 = np.array([1.0, 0.0, 0.0])
    u1 = np.array([0.0, 1.0, 0.0])
    out = _slerp(u0, u1, np.linspace(0.0, 1.0, 5))
    assert np.allclose(out[0], u0) and np.allclose(out[-1], u1)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)


def test_slerp_antipodal_routes_through_a_perpendicular():
    u0 = np.array([1.0, 0.0, 0.0])
    out = _slerp(u0, -u0, np.linspace(0.0, 1.0, 9))
    assert np.allclose(out[0], u0) and np.allclose(out[-1], -u0)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)
    assert field_is_continuous(out)


@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 7]))
@settings(max_examples=50, deadline=None)
def test_slerp_of_a_unit_with_itself_is_that_unit(seed, dim):
    # np.dot(u, u) can round to 1 - 2**-52, whose acos is about 2e-8
    u = np.random.default_rng(seed).normal(size=dim)
    u /= np.linalg.norm(u)
    out = _slerp(u, u.copy(), np.linspace(0.0, 1.0, 5))
    assert out.tobytes() == np.tile(u, (5, 1)).tobytes()


def test_circle_unit_field_is_constant():
    _spec, sp, rep = sampled_and_report("slice_circle(i,1,1)")
    units = hl.unit_field(sp, rep)
    assert field_is_continuous(units)
    assert np.allclose(units, [1.0, 0.0, 0.0], atol=1e-9)


def test_seed_flips_the_field():
    _spec, sp, rep = sampled_and_report("slice_circle(i,1,1)")
    units = hl.unit_field(sp, rep, seed=np.array([-1.0, 0.0, 0.0]))
    assert np.allclose(units, [-1.0, 0.0, 0.0], atol=1e-9)


def test_three_exp_directives_change_the_field():
    _spec, sp, rep = sampled_and_report("three_exp")
    bounce = hl.unit_field(sp, rep, ("bounce", "bounce"))
    flip = hl.unit_field(sp, rep, ("flip", "flip"))
    assert field_is_continuous(bounce) and field_is_continuous(flip)
    # both fields start out along +i on the big circle
    assert np.allclose(bounce[0], [1.0, 0.0, 0.0], atol=1e-6)
    assert np.allclose(flip[0], [1.0, 0.0, 0.0], atol=1e-6)
    # after the first run the bouncing field keeps its sign while the
    # flipping field reverses, as seen on the small circle
    n_small = int(np.searchsorted(sp.params, 3.5 * PI))
    assert float(np.dot(bounce[n_small], flip[n_small])) < 0.0


def two_run_loop(u2):
    """The loop 2 -> 2i -> -2, a half circle; the run [-2, -1]; -1 -> -u2
    -> 1, a half circle; and the run [1, 2].  Its first run is entered
    along i and left along -u2, its second entered along -u2 and left
    along i; u2 holds the i, j, k coefficients of a direction."""
    u2 = np.asarray(u2, dtype=float) / np.linalg.norm(u2)
    segments = (
        SliceArc(0.0, PI, (0.0, 1.0, 0.0, 0.0), 0.0, PI, radius=2.0),
        Line(PI, PI + 1, (-2.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)),
        SliceArc(PI + 1, 2 * PI + 1, (0.0, *u2.tolist()), PI, 2 * PI),
        Line(2 * PI + 1, 2 * PI + 2, (1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)),
    )
    return PathSpec(0.0, 2 * PI + 2, segments, closed=True)


def test_a_run_directive_holds_whatever_the_angle_between_in_and_out():
    # a bounce keeps the field's sign relative to the path's own direction
    # and a flip negates it, so each directive tuple answers alike whether
    # the first run turns by a right angle, a little more or less, a half
    # turn or not at all
    want = {(BOUNCE, BOUNCE): (False, 0), (FLIP, FLIP): (False, 1),
            (BOUNCE, FLIP): (True, None), (FLIP, BOUNCE): (True, None)}
    family = [(eps, 1.0, 0.0) for eps in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    for u2 in family + [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]:
        loop = two_run_loop(u2)
        got = {}
        for directives in itertools.product(DIRECTIVES, repeat=2):
            res = hl.analyze_loop(loop, directives)
            got[directives] = (res.twisted, res.winding)
        assert got == want, u2


def companion_flags(sp, rep):
    """(exists, unique) of a path's companion, read off its report."""
    exists = all(c.kind not in BAD_KINDS for c in rep.contacts)
    return exists, rep.companion_unique and not sp.real.all()


def test_companion_flags():
    _spec, sp, rep = sampled_and_report("slice_circle(i,1,1)")
    assert companion_flags(sp, rep) == (True, True)

    _spec, sp, rep = sampled_and_report("three_exp")
    assert companion_flags(sp, rep) == (True, False)

    _spec, sp, rep = sampled_and_report("sigma_arc")
    assert not companion_flags(sp, rep)[0]


def test_canonical_form_reconstructs_the_path():
    spec, sp, rep = sampled_and_report("lambda_loop")
    units = hl.unit_field(sp, rep)
    shadow = hl.canonical_form(sp, units)
    rebuilt = shadow.x[:, None] * 0.0
    rebuilt = np.concatenate(
        [shadow.x[:, None], shadow.y[:, None] * units], axis=1
    )
    assert np.allclose(rebuilt, sp.values, atol=1e-8)


def test_canonical_form_rejects_wrong_field():
    _spec, sp, rep = sampled_and_report("lambda_loop")
    units = np.zeros((len(sp.params), 3))
    units[:, 2] = 1.0  # constant k, never tangent to the loop's slices
    with pytest.raises(SliceMismatch, match="at t=0.0"):
        hl.canonical_form(sp, units)


def test_shadow_conjugate_and_csv():
    _spec, sp, rep = sampled_and_report("slice_circle(i,1,1)")
    shadow = hl.shadow_of(sp, rep)
    conj = shadow.conjugate()
    assert np.allclose(conj.y, -shadow.y)
    text = shadow.to_csv()
    assert text.splitlines()[0] == "t,x,y"
    assert len(text.splitlines()) == len(sp.params) + 1


def test_circle_shadow_is_the_plane_circle():
    _spec, sp, rep = sampled_and_report("slice_circle(i,2,1)")
    shadow = hl.shadow_of(sp, rep)
    assert np.allclose(shadow.x, 2.0 * np.cos(sp.params), atol=1e-9)
    assert np.allclose(shadow.y, 2.0 * np.sin(sp.params), atol=1e-9)


# ---------------------------------------------------------------------------
# reference oracle: the unit field as a per-sample state machine


def reference_directive_for_run(rep, run, directives):
    """Resolved flip/bounce choice for one real run."""
    for m, iv in enumerate(rep.intervals):
        if any(r.t0 == run.t0 for r in iv.runs):
            d = directives[m] if m < len(directives) else None
            return classify_interval(iv, d)
    return BOUNCE


def reference_items(rep, a, b, directives):
    """The report's real items on a grid from a to b as (lo, hi, in, out,
    sigma, contact): a contact at t, a wrap contact at both a and b; a
    run from t0 to t1, a wrap run also one period back, where its part
    beyond b lies on the grid."""
    items = []
    for c in rep.contacts:
        sigma = -1.0 if c.kind == FLIP else 1.0
        for t in ((a, b) if c.wrap else (c.t,)):
            items.append((t, t, c.left_dir, c.right_dir, sigma, True))
    for r in rep.runs:
        sigma = -1.0 if reference_directive_for_run(rep, r, directives) == FLIP else 1.0
        for shift in ((0.0, a - b) if r.wrap else (0.0,)):
            items.append((r.t0 + shift, r.t1 + shift, r.in_dir, r.out_dir, sigma, False))
    return items


def reference_item(items, params, stretch):
    """(in, out, sigma, contact) of the item nearest the middle of a real
    stretch, given as its sample indices, each limit an array or None."""
    if not items:
        return None, None, 1.0, False
    mid = 0.5 * (params[stretch[0]] + params[stretch[-1]])
    _lo, _hi, d_in, d_out, sigma, contact = min(
        items, key=lambda it: max(it[0] - mid, mid - it[1], 0.0))
    return (None if d_in is None else np.array(d_in),
            None if d_out is None else np.array(d_out), sigma, contact)


def reference_sign(x):
    return -1.0 if x < 0 else 1.0


def reference_unit_field(sampled, rep, directives=(), seed=None):
    """The unit field one sample at a time, carrying the sign S and the
    previous direction r from one non-real sample to the next, and
    filling each pending real stretch when the walk leaves it."""
    vals = sampled.values
    params = sampled.params
    n = len(params)
    dim = vals.shape[1]
    mags = np.array([np.linalg.norm(v) for v in vals])
    im_vecs = vals[:, 1:]
    im_norms = np.array([np.linalg.norm(v) for v in im_vecs])
    real = config.DEFAULT.is_real(im_norms, mags)

    units = np.zeros((n, dim - 1))
    if np.all(real):
        if seed is not None:
            units[:] = seed
        else:
            units[:, 0] = 1.0
        return units

    items = reference_items(rep, float(params[0]), float(params[-1]), directives)

    def fill(stretch, enter, leave, lo, hi):
        # one unit throughout, or a slerp by the samples' places from lo to hi
        if enter is leave:
            units[stretch] = enter
            return
        fr = np.array([(m - lo) / (hi - lo) for m in stretch])
        units[stretch] = _slerp(enter, leave, fr)

    S, prev, pending = None, None, []
    for m in range(n):
        if real[m]:
            pending.append(m)
            continue
        r = im_vecs[m] / im_norms[m]
        if S is None:
            S = -1.0 if seed is not None and float(np.dot(seed, r)) < 0 else 1.0
            if pending:
                # a leading stretch: its exit unit, read back from r
                d_in, d_out, sigma, contact = reference_item(items, params, pending)
                if d_in is not None and d_out is not None:
                    s_out = S * reference_sign(float(np.dot(r, d_out)))
                    leave = s_out * sigma * d_in if contact else s_out * d_out
                else:
                    leave = S * r
                fill(pending, seed if seed is not None else leave, leave, 0, m)
        elif pending:
            d_in, d_out, sigma, contact = reference_item(items, params, pending)
            if d_in is not None and d_out is not None:
                s_in = S * reference_sign(float(np.dot(prev, d_in)))
                S_next = s_in * sigma * reference_sign(float(np.dot(d_out, r)))
                enter = s_in * d_in
                leave = enter if contact else s_in * sigma * d_out
            else:
                S_next = S * reference_sign(float(np.dot(prev, r)))
                enter, leave = S * prev, S_next * r
            fill(pending, enter, leave, pending[0] - 1, m)
            S = S_next
        else:
            S = S * reference_sign(float(np.dot(prev, r)))
        pending = []
        units[m] = S * r
        prev = r
    if pending:
        # a trailing stretch ends at its exit unit
        d_in, d_out, sigma, contact = reference_item(items, params, pending)
        enter = S * prev
        if d_in is not None and d_out is not None:
            s_in = S * reference_sign(float(np.dot(prev, d_in)))
            enter = s_in * d_in
            leave = enter if contact else s_in * sigma * d_out
        elif d_in is not None:
            leave = reference_sign(float(np.dot(enter, d_in))) * d_in
        else:
            leave = enter
        fill(pending, enter, leave, pending[0] - 1, n - 1)
    return units


ORACLE_CORPUS = [
    "sigma_arc",
    "sigma_hat",
    "rocket_pos",
    "lambda_loop",
    "three_exp",
    "gamma1m_gamma2(3)",
    "meridians",
    "slice_circle(i,1,1)",
    "slice_circle(j,2,6)",
    "slice_circle(k,0.001,2)",
]


def oracle_variants(spec):
    out = {
        "plain": spec,
        "reverse": hl.reverse(spec),
        "reflect_negconj": hl.reflect_negconj(spec),
    }
    if spec.closed:
        for f in (0.37, 0.71):
            out[f"rotate_basepoint({f})"] = hl.rotate_basepoint(
                spec, spec.a + f * (spec.b - spec.a))
    return out


def rerooted_report(rep, t_star, period):
    """A loop's report re-keyed to its grid re-rooted at t_star: contacts
    and runs before t_star move on by one period, the wrap contact at a
    with them, and none wraps.  The reference reads it, so that the
    library, which reads the loop's own report modulo the period, is
    checked against this explicit shift."""
    def shift(items, t0):
        return tuple(
            replace(x, wrap=False, **{k: getattr(x, k) + period for k in t0})
            if getattr(x, t0[0]) < t_star else replace(x, wrap=False)
            for x in items)

    runs = shift(rep.runs, ("t0", "t1"))
    intervals = tuple(replace(iv, runs=shift(iv.runs, ("t0", "t1"))) for iv in rep.intervals)
    return replace(rep, contacts=shift(rep.contacts, ("t",)), runs=runs, intervals=intervals)


def oracle_inputs(spec, label):
    """(label, sampled, report, reference report) of a path, closed and
    open, and of its re-rooted grid when it is a loop; the reference
    report is the report itself but on the re-rooted grid."""
    sp, _sampling = sample_path(spec)
    for closed in (True, False) if spec.closed else (False,):
        rep = hl.find_obstructions(sp, replace(spec, closed=closed))
        yield f"{label}/closed={closed}", sp, rep, rep
        if closed:
            i_star = int(np.argmax(np.linalg.norm(sp.values[:, 1:], axis=1)))
            period = spec.b - spec.a
            grid = winding._reroot(sp, spec, sp.params[i_star])
            yield (f"{label}/reroot", grid, rep,
                   rerooted_report(rep, sp.params[i_star], period))


def oracle_seeds(sp, rng):
    """None, plus and minus the path's direction at its first non-real
    sample, and a random unit."""
    im = sp.values[:, 1:]
    norms = np.linalg.norm(im, axis=1)
    real = config.DEFAULT.is_real(norms, np.linalg.norm(sp.values, axis=1))
    k = int(np.argmax(~real))
    start = im[k] / norms[k]
    r = rng.normal(size=im.shape[1])
    return [None, start, -start, r / np.linalg.norm(r)]


def directive_tuples(rep):
    """Every flip/bounce/None tuple over the first (up to 4) intervals."""
    return itertools.product((FLIP, BOUNCE, None), repeat=min(len(rep.intervals), 4))


def grid_features(sp, rep):
    """Which parts of the rule the real stretches of the sample grid
    exercise: a stretch at either end of the grid, one whose item lacks
    a limit, and one in a run that turns, its in_dir and out_dir apart;
    and whether it has a real sample in a field that is not all real."""
    im = sp.values[:, 1:]
    norms = np.linalg.norm(im, axis=1)
    real = config.DEFAULT.is_real(norms, np.linalg.norm(sp.values, axis=1))
    if np.all(real):
        return set(), False
    n = len(real)
    items = reference_items(rep, float(sp.params[0]), float(sp.params[-1]), ())
    seen = set()
    for _real, group in itertools.groupby(range(n), key=lambda m: bool(real[m])):
        stretch = list(group)
        if not _real:
            continue
        d_in, d_out, _sigma, contact = reference_item(items, sp.params, stretch)
        hits = (("leading_real", stretch[0] == 0),
                ("trailing_real", stretch[-1] == n - 1),
                ("no_limit", d_in is None or d_out is None),
                ("turning_run", not contact and d_in is not None and d_out is not None
                 and float(np.dot(d_in, d_out)) < 0.5))
        seen |= {name for name, hit in hits if hit}
    return seen, True


def check_against_reference(sp, rep, ref_rep, seeds, label):
    """unit_field on rep equals the reference on ref_rep byte for byte
    under every directive tuple and seed; the reference runs once per
    distinct resolution of the runs.  Returns the features seen."""
    seen, bridged = grid_features(sp, ref_rep)
    cache = {}
    for directives in directive_tuples(rep):
        resolved = tuple(reference_directive_for_run(ref_rep, r, directives)
                         for r in ref_rep.runs)
        if FLIP in resolved and bridged:
            seen.add("flip_run")
        for k, seed in enumerate(seeds):
            if (resolved, k) not in cache:
                cache[resolved, k] = reference_unit_field(sp, ref_rep, directives, seed)
            want = cache[resolved, k]
            got = hl.unit_field(sp, rep, directives, seed)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                f"{label} directives={directives} seed={k}")
    return seen


def test_unit_field_matches_the_per_sample_reference():
    rng = np.random.default_rng(2307)
    seen = set()
    checked = 0
    paths = [(name, hl.demo(name).path) for name in ORACLE_CORPUS]
    paths += [(f"two_run_loop({u})", two_run_loop(u)) for u in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))]
    for name, path in paths:
        for kind, spec in oracle_variants(path).items():
            for label, sp, rep, ref_rep in oracle_inputs(spec, f"{name}/{kind}"):
                seen |= check_against_reference(
                    sp, rep, ref_rep, oracle_seeds(sp, rng), label)
                checked += 1
    assert checked > 100
    # the inputs reach every branch of the rule
    assert seen == {"no_limit", "turning_run", "leading_real", "trailing_real", "flip_run"}


def random_loop(rng, with_runs, at_item, where):
    """A single_slice_loop, or a two_run_loop of a random second slice,
    rotated to one of the ends of its report's items when at_item holds
    and it has any, else to the fraction where of its domain."""
    spec = two_run_loop(rng.normal(size=3)) if with_runs else single_slice_loop(rng)[0]
    rep = hl.obstruct_path(spec)[1]
    ends = [c.t for c in rep.contacts] + [t for r in rep.runs for t in (r.t0, r.t1)]
    span = spec.b - spec.a
    # a wrap run ends past b, at its place on the loop modulo the span
    t = (float(rng.choice(ends)) - spec.a) % span if at_item and ends else where * span
    return hl.rotate_basepoint(spec, spec.a + t)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_unit_field_matches_the_reference_on_random_loops(loop_seed, with_runs, at_item, where):
    # rotated to an item's end, the grid starts and ends in a real stretch
    rng = np.random.default_rng(loop_seed)
    spec = random_loop(rng, with_runs, at_item, where)
    for label, sp, rep, ref_rep in oracle_inputs(spec, "random_loop"):
        check_against_reference(sp, rep, ref_rep, oracle_seeds(sp, rng), label)
