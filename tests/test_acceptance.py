"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
"[PASS] criterion N" line when its assertions hold; a failing criterion
fails the test instead.  Run with `pytest -v -s tests/test_acceptance.py`
to see the lines as they appear.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import hyperlog as hl
from hyperlog import algebra, config
from hyperlog.cli import main as cli_main
from hyperlog.errors import TwistedLoop
from hyperlog.pathkit import PathSpec, SliceCurve, TrigFn
from hyperlog.winding import alternating_sum

PI = math.pi


def reduce_signs(signs) -> list:
    """Cancel adjacent equal pairs of signs until the sequence alternates."""
    stack = []
    for s in signs:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return stack


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] criterion {criterion}{suffix}")


def random_values(rng, count, dim):
    """count random values off the closed negative reals, as rows."""
    out = []
    while len(out) < count:
        block = rng.normal(size=(count, dim)) * rng.choice(
            [0.1, 1.0, 10.0], size=(count, 1)
        )
        for q in block:
            n = np.linalg.norm(q)
            if n < 1e-6:
                continue
            if config.DEFAULT.is_real(np.linalg.norm(q[1:]), n) and q[0] <= 0:
                continue
            out.append(q)
            if len(out) == count:
                break
    return np.array(out)


def row_errors(got, want):
    """|got - want| / max(1, |want|), row by row."""
    return np.linalg.norm(got - want, axis=-1) / np.maximum(
        1.0, np.linalg.norm(want, axis=-1))


def test_criterion_1_round_trips():
    rng = np.random.default_rng(1)
    worst = 0.0
    for dim in (4, 8):
        qs = random_values(rng, 10_000, dim)
        err = row_errors(algebra.exp(algebra.log(qs)), qs)
        worst = max(worst, float(err.max()))
        assert np.all(err <= 1e-9)
    # chart round trips: L(E(q)) = q for any q, E(L(pt)) = pt on the manifold
    qs = random_values(rng, 2_000, 4)
    pt_q, pt_p = hl.embed(qs)
    assert np.all(row_errors(hl.project_log(pt_q, pt_p), qs) <= 1e-9)
    again_q, again_p = hl.embed(hl.project_log(pt_q, pt_p))
    assert np.all(row_errors(again_q, pt_q) <= 1e-9)
    assert np.all(row_errors(again_p, pt_p) <= 1e-9)
    report(1, f"max relative error {worst:.2e}")


def test_criterion_2_branch_identities():
    rng = np.random.default_rng(2)
    qs = [q for q in random_values(rng, 1_000, 4)
          if not config.DEFAULT.is_real(np.linalg.norm(q[1:]), np.linalg.norm(q))]
    for l in range(-3, 4):
        for q in qs:
            lhs = hl.branch_argument(q, 2 * l + 1)
            rhs = hl.branch_argument(q, -(2 * l + 2))
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(lhs))
    # the even branches exponentiate as the principal argument, Im log q
    principal = algebra.log(np.array(qs))
    principal[:, 0] = 0.0
    for k in range(-3, 4):
        lhs = algebra.exp(np.array([hl.branch_argument(q, 2 * k) for q in qs]))
        assert np.all(np.linalg.norm(lhs - algebra.exp(principal), axis=1) <= 1e-9)
    report(2)


def test_criterion_3_sigma_and_its_reflection():
    spec = hl.demo("sigma_arc").path
    rep = hl.find_obstructions(hl.sample_adaptive(spec), spec)
    c = [c for c in rep.contacts if abs(c.t - PI) < 1e-6]
    assert c and c[0].kind == "semi_tame"
    res = hl.lift_path(spec)
    assert res.status == "fails_at"
    assert res.t_fail == pytest.approx(PI, abs=1e-3)

    hat = hl.demo("sigma_hat").path
    res = hl.lift_path(hat)
    assert res.status == "ok"
    assert hl.verify_lift(res.lift, hl.sample_adaptive(hat)) <= 1e-8
    report(3)


def test_criterion_4_rockets():
    spec = hl.demo("rocket_neg").path
    sp = hl.sample_uniform(spec, 4097)
    rep = hl.find_obstructions(sp, spec)
    c = [c for c in rep.contacts if abs(c.t) < 1e-6]
    assert c and c[0].kind == "not_tame"
    res = hl.lift_path(spec, initial_unit=np.array([1.0, 0.0, 0.0]))
    assert res.status == "fails_at"

    pos = hl.demo("rocket_pos").path
    res = hl.lift_path(pos)
    assert res.status == "ok"
    assert hl.verify_lift(res.lift, hl.sample_uniform(pos, 4097)) <= 1e-8
    report(4)


def test_criterion_5_three_exponentials():
    case = hl.demo("three_exp")
    bounce = hl.analyze_loop(case.path, case.directives["constant_i"])
    flip = hl.analyze_loop(case.path, case.directives["J_path"])
    assert bounce.winding == 0 and isinstance(bounce.winding, int)
    assert flip.winding == 1 and isinstance(flip.winding, int)
    assert hl.c_homotopy_equivalent(bounce, flip) is False
    report(5)


def test_criterion_6_lambda_loop():
    case = hl.demo("lambda_loop")
    spec = case.path
    rep = hl.find_obstructions(hl.sample_adaptive(spec), spec)
    assert rep.tame
    assert hl.is_twisted(spec) is True
    with pytest.raises(TwistedLoop):
        hl.winding_number(spec)
    assert hl.branch_change_report(spec, case.basepoints["plus_one"]) == 1
    assert (
        hl.branch_change_report(
            spec,
            case.basepoints["minus_one"],
            initial_unit=np.array(case.initial_units["minus_one"])[1:],
        )
        == 0
    )
    report(6)


def test_criterion_7_gamma_copies():
    case = hl.demo("gamma1m_gamma2(3)")
    got = [
        hl.branch_change_report(
            case.path,
            case.basepoints[f"copy_{c}"],
            initial_unit=np.array(case.initial_units[f"copy_{c}"])[1:],
        )
        for c in (1, 2, 3)
    ]
    assert got == [3, 1, -1]
    report(7, "branch changes 3, 1, -1")


def test_criterion_8_meridians():
    spec = hl.demo("meridians").path
    res = hl.lift_path(spec)
    assert res.status == "ok"
    assert res.closed_lift is False
    assert hl.closed_nontame_liftable(spec) is False
    assert hl.verify_lift(res.lift, hl.sample_adaptive(spec)) <= 1e-8
    report(8)


def single_slice_loop(rng):
    """A random circle in a random slice; returns (spec, oracle winding,
    misses_the_reals)."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    rho = rng.uniform(0.5, 2.0)
    kind = rng.integers(0, 3)
    if kind == 0:  # never touches the real axis
        x0 = rng.uniform(-1.0, 1.0)
        y0 = rng.choice([-1.0, 1.0]) * (rho + rng.uniform(0.3, 1.0))
        winding = 0
    elif kind == 1:  # crosses the axis, origin outside
        x0 = rng.choice([-1.0, 1.0]) * (rho + rng.uniform(0.3, 1.0))
        y0 = 0.0
        winding = 0
    else:  # crosses the axis, origin inside
        x0 = rng.uniform(-0.3, 0.3) * rho
        y0 = 0.0
        winding = 1
    x_fn = TrigFn(x0, ((1, rho),), ())
    y_fn = TrigFn(y0, (), ((1, rho),))
    seg = SliceCurve(0.0, 2 * PI, (0.0, *u), x_fn, y_fn)
    spec = PathSpec(0.0, 2 * PI, (seg,), closed=True)
    return spec, winding, abs(y0) > rho


def test_criterion_9_twistedness_laws():
    rng = np.random.default_rng(9)
    for _ in range(50):
        spec, oracle, misses = single_slice_loop(rng)
        res = hl.analyze_loop(spec)
        assert res.twisted is False
        assert abs(res.shadow_winding) == oracle

        # both shadows close up (the loop is untwisted)
        rot = hl.rotate_basepoint(spec, PI / 2)
        sp = hl.sample_adaptive(rot)
        rep = hl.find_obstructions(sp, rot)
        if misses:
            assert rep.tame and not rep.contacts and not rep.runs
        for sign in (1.0, -1.0):
            units = hl.unit_field(sp, rep, seed=sign * np.asarray(u_of(sp)))
            shadow = hl.canonical_form(sp, units)
            assert abs(shadow.x[-1] - shadow.x[0]) <= 1e-9
            assert abs(shadow.y[-1] - shadow.y[0]) <= 1e-9
            w = hl.shadow_winding(shadow)
            wc = hl.shadow_winding(shadow.conjugate())
            assert w == -wc and isinstance(w, int)

    # corpus loops with companions
    untwisted = [
        ("slice_circle(i,1,1)", ()),
        ("slice_circle(j,2,2)", ()),
        ("three_exp", ("flip", "flip")),
    ]
    for name, directives in untwisted:
        assert hl.analyze_loop(hl.demo(name).path, directives).twisted is False
    for name in ("lambda_loop", "gamma1m_gamma2(2)"):
        spec = hl.demo(name).path
        assert hl.is_twisted(spec) is True
        # a twisted loop's shadow ends at the conjugate of its start
        sp_full = hl.sample_adaptive(spec)
        far = float(
            sp_full.params[
                int(np.argmax(np.linalg.norm(sp_full.values[:, 1:], axis=1)))
            ]
        )
        rot = hl.rotate_basepoint(spec, far)
        sp = hl.sample_adaptive(rot)
        rep = hl.find_obstructions(sp, rot)
        shadow = hl.canonical_form(sp, hl.unit_field(sp, rep))
        assert abs(shadow.x[-1] - shadow.x[0]) <= 1e-8
        assert abs(shadow.y[-1] + shadow.y[0]) <= 1e-8
        assert abs(shadow.y[0]) > 1e-3
    report(9)


def u_of(sp):
    v = sp.values[0]
    return v[1:] / np.linalg.norm(v[1:])


def test_criterion_10_signature_machinery():
    # terminal branch from the lift equals k0 + (-1)^k0 sigma
    tame = [
        "slice_circle(i,1,1)",
        "slice_circle(j,2,2)",
        "lambda_loop",
        "gamma1m_gamma2(3)",
    ]
    for name in tame:
        spec = hl.demo(name).path
        if name == "lambda_loop":
            spec = hl.rotate_basepoint(spec, 0.3)
        sp = hl.sample_adaptive(spec)
        rep = hl.find_obstructions(sp, spec)
        sig = hl.signature(rep)
        v0 = spec.value(spec.a)
        if np.linalg.norm(v0[1:]) <= 1e-9:
            d = np.asarray(hl.one_sided_direction(spec, spec.a, +1))
        else:
            d = None
        for k0 in range(-2, 3):
            iu = None if d is None else (d if k0 % 2 == 0 else -d)
            res = hl.lift_path(spec, k0=k0, initial_unit=iu)
            assert res.status == "ok", (name, k0)
            assert res.lift.final_branch == hl.terminal_branch(k0, sig)

    # the alternating sum survives cancellation reduction
    rng = np.random.default_rng(10)
    for _ in range(1_000):
        signs = list(rng.choice([1, -1], size=rng.integers(0, 30)))
        reduced = reduce_signs(signs)
        assert alternating_sum(signs) == alternating_sum(reduced)

    # |circular signature| / 2 equals the winding on all-flip loops
    for name, directives in (
        ("slice_circle(i,1,1)", ()),
        ("slice_circle(i,1,3)", ()),
        ("three_exp", ("flip", "flip")),
    ):
        res = hl.analyze_loop(hl.demo(name).path, directives)
        assert res.circular_signature % 2 == 0
        assert abs(res.circular_signature) // 2 == res.winding
    report(10)


def test_criterion_11_cli_determinism():
    demos = [
        "sigma_arc",
        "sigma_hat",
        "rocket_neg",
        "rocket_pos",
        "lambda_loop",
        "three_exp",
        "gamma1m_gamma2(3)",
        "meridians",
        "slice_circle(i,1,1)",
    ]

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    for name in demos:
        for argv in (
            ("analyze", "--demo", name),
            ("demo", name, "--export"),
        ):
            first = run(*argv)
            second = run(*argv)
            assert first == second, argv
            assert first[1]
            json.loads(first[1])
    report(11)
