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
from hyperlog.obstruction import BAD_KINDS, BOUNCE, FLIP, classify_interval
from hyperlog.pathkit import sample_path

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


def reference_unit_field(sampled, rep, directives=(), seed=None):
    """The unit field one sample at a time, carrying the previous
    direction and the pending real stretch from sample to sample."""
    vals = sampled.values
    n = len(sampled.params)
    dim = vals.shape[1]
    mags = np.linalg.norm(vals, axis=1)
    im_vecs = vals[:, 1:]
    im_norms = np.linalg.norm(im_vecs, axis=1)
    real = config.DEFAULT.is_real(im_norms, mags)

    units = np.zeros((n, dim - 1))
    if np.all(real):
        if seed is not None:
            units[:] = seed
        else:
            units[:, 0] = 1.0
        return units

    a = float(sampled.params[0])
    b = float(sampled.params[-1])
    tol = config.PARAM_SAME * (b - a)
    run_bounds = []
    for r in rep.runs:
        kind = reference_directive_for_run(rep, r, directives)
        if r.wrap:
            run_bounds.append((r.t0, b, kind))
            run_bounds.append((a, a + (r.t1 - b), kind))
        else:
            run_bounds.append((r.t0, r.t1, kind))

    def run_kind_at(t):
        for t0, t1, kind in run_bounds:
            if t0 - tol <= t <= t1 + tol:
                return kind
        return None

    prev = None
    pending_real = []
    pending_flip = False
    for m in range(n):
        if real[m]:
            pending_real.append(m)
            if run_kind_at(float(sampled.params[m])) == FLIP:
                pending_flip = True
            continue
        raw = im_vecs[m] / im_norms[m]
        if prev is None:
            u = raw.copy()
            if seed is not None and float(np.dot(seed, raw)) < 0:
                u = -u
        else:
            carried = -prev if pending_flip else prev
            s = 1.0 if float(np.dot(carried, raw)) >= 0 else -1.0
            u = s * raw
        if pending_real:
            if prev is None:
                fill = seed if seed is not None else u
                units[pending_real] = np.tile(fill, (len(pending_real), 1))
            else:
                fr = np.linspace(0.0, 1.0, len(pending_real) + 2)[1:-1]
                units[pending_real] = _slerp(prev, u, fr)
            pending_real = []
        pending_flip = False
        units[m] = u
        prev = u
    if pending_real:
        # a trailing stretch turns to the left limit at the last real
        # item, sign-matched, by its last sample
        tail = prev
        limit = reference_last_limit(rep, b)
        if limit is not None:
            tail = limit if float(np.dot(prev, limit)) >= 0 else -limit
        if pending_flip:
            tail = -tail
        fr = np.linspace(0.0, 1.0, len(pending_real) + 1)[1:]
        units[pending_real] = _slerp(prev, tail, fr)
    return units


def reference_last_limit(rep, b):
    """The left direction limit of the report item that starts last, a
    wrap contact starting at b; None without items or limit."""
    last_t, limit = -math.inf, None
    for t, left in [(b if c.wrap else c.t, c.left_dir) for c in rep.contacts] + [
            (r.t0, r.in_dir) for r in rep.runs]:
        if t > last_t:
            last_t, limit = t, left
    return None if limit is None else np.array(limit)


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
    """A loop's report re-keyed to its grid re-rooted at t_star: runs
    before t_star move on by one period, and none wraps.  The reference
    reads it, so that the library, which reads the loop's own report
    modulo the period, is checked against this explicit shift."""
    def shift(runs):
        return tuple(
            replace(r, t0=r.t0 + period, t1=r.t1 + period, wrap=False)
            if r.t0 < t_star else replace(r, wrap=False)
            for r in runs)

    intervals = tuple(replace(iv, runs=shift(iv.runs)) for iv in rep.intervals)
    return replace(rep, runs=shift(rep.runs), intervals=intervals)


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


def grid_features(sp):
    """Which parts of the carry rule the sample grid exercises, and
    whether it has a real sample in a field that is not all real."""
    im = sp.values[:, 1:]
    norms = np.linalg.norm(im, axis=1)
    real = config.DEFAULT.is_real(norms, np.linalg.norm(sp.values, axis=1))
    if np.all(real):
        return set(), False
    r = im[~real] / norms[~real, None]
    dots = np.array([np.dot(u, v) for u, v in zip(r[:-1], r[1:])])
    hits = (("zero_dot", np.any(dots == 0.0)),
            ("leading_real", real[0]),
            ("trailing_real", real[-1]))
    return {name for name, hit in hits if hit}, bool(np.any(real))


def check_against_reference(sp, rep, ref_rep, seeds, label):
    """unit_field on rep equals the reference on ref_rep byte for byte
    under every directive tuple and seed; the reference runs once per
    distinct resolution of the runs.  Returns the features seen."""
    seen, bridged = grid_features(sp)
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
    for name in ORACLE_CORPUS:
        for kind, spec in oracle_variants(hl.demo(name).path).items():
            for label, sp, rep, ref_rep in oracle_inputs(spec, f"{name}/{kind}"):
                seen |= check_against_reference(
                    sp, rep, ref_rep, oracle_seeds(sp, rng), label)
                checked += 1
    assert checked > 100
    # the inputs reach every branch of the carry rule
    assert seen == {"zero_dot", "leading_real", "trailing_real", "flip_run"}


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_unit_field_matches_the_reference_on_random_loops(loop_seed, where):
    rng = np.random.default_rng(loop_seed)
    spec, _winding, _misses = single_slice_loop(rng)
    spec = hl.rotate_basepoint(spec, spec.a + where * (spec.b - spec.a))
    for label, sp, rep, ref_rep in oracle_inputs(spec, "single_slice_loop"):
        check_against_reference(sp, rep, ref_rep, oracle_seeds(sp, rng), label)
