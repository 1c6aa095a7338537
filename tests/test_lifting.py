"""Continuous logarithms along paths."""

import math
from dataclasses import replace

import numpy as np
import pytest

import hyperlog as hl
from hyperlog.errors import (
    HypothesisViolated,
    InitialMismatch,
    MissingInitialUnit,
)
from hyperlog.pathkit import Line, PathSpec, SliceArc, sample_path

from test_batched_eval import CORPUS
from test_winding import CLOSED_CORPUS, leaving, scaled

PI = math.pi


def residual(res, spec, n=2049):
    sp = hl.sample_uniform(spec, n)
    model = hl.algebra.exp(
        np.column_stack(
            [
                np.interp(sp.params, res.lift.params, res.lift.values[:, c])
                for c in range(res.lift.values.shape[1])
            ]
        )
    )
    scale = np.maximum(1.0, np.linalg.norm(sp.values, axis=1))
    return float(
        np.max(np.linalg.norm(model - sp.values, axis=1) / scale)
    )


def test_terminal_branch_formula():
    assert hl.terminal_branch(0, 1) == 1
    assert hl.terminal_branch(0, -2) == -2
    assert hl.terminal_branch(1, 1) == 0
    assert hl.terminal_branch(-1, 1) == -2
    assert hl.terminal_branch(2, 3) == 5
    assert hl.terminal_branch(-2, 1) == -1


def test_circle_lift_exponentiates_back():
    spec = hl.demo("slice_circle(i,1,1)").path
    res = hl.lift_path(spec)
    assert res.status == "ok"
    sp = hl.sample_adaptive(spec)
    assert hl.verify_lift(res.lift, sp) <= 1e-9
    # one positive turn gains a full turn of argument
    assert res.lift.arg[-1] - res.lift.arg[0] == pytest.approx(
        2 * PI, abs=1e-9
    )
    assert res.closed_lift is False


@pytest.mark.parametrize("lam", [1.0, 2.0 ** -20])
def test_verify_lift_is_relative_to_the_modulus(lam):
    # a lift with its imaginary part negated exponentiates to the
    # conjugate, at 2 |Im q| / |q| from the path, which reaches 2 on the
    # circle at any scale; floored at |q| = 1, 2^-20 gave 1.9e-6
    spec = scaled(hl.demo("slice_circle(i,1,1)").path, lam)
    lift = hl.lift_path(spec).lift
    flipped = replace(lift, values=lift.values * [1.0, -1.0, -1.0, -1.0])
    assert hl.verify_lift(flipped, hl.sample_adaptive(spec)) == pytest.approx(2.0, abs=1e-3)


def test_branch_trace_of_the_circle():
    res = hl.lift_path(hl.demo("slice_circle(i,1,1)").path)
    ks = [k for _lo, _hi, k in res.lift.branch_trace]
    assert ks[0] == 0 and 1 in ks
    assert res.lift.final_branch == 1


def half_circle_then_axis():
    """The upper half circle from 1 to -1 in the i-slice, then the axis
    from -1 to -2."""
    return PathSpec(0.0, PI + 1, (
        SliceArc(0.0, PI, (0.0, 1.0, 0.0, 0.0), 0.0, PI),
        Line(PI, PI + 1, (-1.0, 0.0, 0.0, 0.0), (-2.0, 0.0, 0.0, 0.0))))


def terminal_branch_cases():
    """(label, path, directives): the corpus paths, each loop also rotated
    to five points, and each loop's open copy, with their reversals and
    reflections, under every companion of the path; then the half circle
    then axis."""
    for name in CORPUS:
        case = hl.demo(name)
        paths = [case.path]
        if case.path.closed:
            span = case.path.b - case.path.a
            paths += [hl.rotate_basepoint(case.path, case.path.a + f * span)
                      for f in (0.13, 0.3, 0.5, 0.71, 0.9)]
        companions = sorted({(), *map(tuple, case.directives.values())})
        for n, p in enumerate(paths):
            ends = {"": p, "open/": replace(p, closed=False)} if p.closed else {"": p}
            copies = {}
            for end, o in ends.items():
                copies.update({end + "plain": o, end + "reverse": hl.reverse(o),
                               end + "reflect_negconj": hl.reflect_negconj(o)})
            for kind, q in copies.items():
                for directives in companions:
                    yield f"{name}[{n}]/{kind}/{directives}", q, directives
    yield "half_circle_then_axis", half_circle_then_axis(), ()


def test_terminal_branch_matches_lift_on_tame_paths():
    cases = [(name, hl.demo(name).path, (), True)
             for name in ("slice_circle(i,1,1)", "slice_circle(j,2,2)")]
    cases.append(("lambda_loop", hl.rotate_basepoint(hl.demo("lambda_loop").path, 0.3), (), True))
    cases += [(*case, False) for case in terminal_branch_cases()]
    answered = 0
    for label, spec, directives, must_answer in cases:
        sampled, rep, _sampling = hl.obstruct_path(spec)
        try:
            sig = hl.signature(rep, directives)
        except (HypothesisViolated, ValueError):
            if must_answer:
                raise
            continue
        # a real start hands the lift the outgoing direction, with the
        # sign matching the parity of the starting branch
        start = leaving(sampled, rep) if sampled.real[0] and not sampled.real.all() else None
        for k0 in range(-2, 3):
            iu = None if start is None else (start if k0 % 2 == 0 else -start)
            res = hl.lift_path(spec, k0=k0, initial_unit=iu, directives=directives)
            assert res.status == "ok" or not must_answer, (label, k0, res.reason)
            if res.status == "ok":
                answered += 1
                assert res.lift.final_branch == hl.terminal_branch(k0, sig), (label, k0)
    assert answered > 1000


def test_sigma_fails_and_sigma_hat_lifts():
    res = hl.lift_path(hl.demo("sigma_arc").path)
    assert res.status == "fails_at"
    assert res.t_fail == pytest.approx(PI, abs=1e-3)
    assert res.reason == "semi_tame"

    spec = hl.demo("sigma_hat").path
    res = hl.lift_path(spec)
    assert res.status == "ok"
    assert hl.verify_lift(res.lift, hl.sample_adaptive(spec)) <= 1e-8
    # the lift hugs the principal branch through the +1 contact
    assert np.all(np.abs(res.lift.arg) < PI)


def test_rocket_neg_fails_rocket_pos_lifts():
    res = hl.lift_path(
        hl.demo("rocket_neg").path, initial_unit=np.array([1.0, 0.0, 0.0])
    )
    assert res.status == "fails_at"
    assert res.sampling == "uniform_fallback"

    res = hl.lift_path(hl.demo("rocket_pos").path)
    assert res.status == "ok"
    assert res.sampling == "uniform_fallback"
    assert res.closed_lift is True
    sp = hl.sample_uniform(hl.demo("rocket_pos").path, 4097)
    assert hl.verify_lift(res.lift, sp) <= 1e-8


def test_meridians_open_lift_but_no_closed_one():
    spec = hl.demo("meridians").path
    res = hl.lift_path(spec)
    assert res.status == "ok"
    assert res.closed_lift is False
    sp = hl.sample_adaptive(spec)
    assert hl.verify_lift(res.lift, sp) <= 1e-8
    assert hl.closed_nontame_liftable(spec) is False


def test_closed_nontame_liftable_hypotheses():
    with pytest.raises(HypothesisViolated):
        # an open path is out of scope
        from dataclasses import replace

        hl.closed_nontame_liftable(
            replace(hl.demo("meridians").path, closed=False)
        )
    with pytest.raises(HypothesisViolated):
        # tame loop: no bad contact to anchor the criterion
        hl.closed_nontame_liftable(hl.demo("slice_circle(i,1,1)").path)


def test_closed_nontame_liftable_reads_every_bad_contact():
    # two laps of meridians hold two bad contacts, and the criterion
    # fails on a piece between them as it does on the one lap
    meridians = hl.demo("meridians").path
    assert hl.closed_nontame_liftable(hl.repeat(meridians, 2)) is False
    # the contact of rocket_neg with -1 is bad and off the positive reals
    with pytest.raises(HypothesisViolated, match="bad contact away from the positive reals"):
        hl.closed_nontame_liftable(hl.demo("rocket_neg").path)


def nine_line_loop():
    """A closed loop of nine Lines on [0, 9] with a semi-tame contact at
    +1 (t = 1), a real run on [-3, -2] (t about 4 to 5) and a flip at
    -4.5 (t = 6.5); the run and the flip share one axis interval."""
    pts = [(2, 1, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0), (-2, 0, 1, 0), (-2, 0, 0, 0),
           (-3, 0, 0, 0), (-4, 0, 1, 0), (-5, 0, -1, 0), (-5, 1, 0, 0), (2, 1, 0, 0)]
    pts = [tuple(float(x) for x in p) for p in pts]
    lines = tuple(hl.pathkit.Line(float(k), k + 1.0, pts[k], pts[k + 1]) for k in range(9))
    return hl.PathSpec(0.0, 9.0, lines, closed=True)


def closed_nontame_pins():
    """Loops with the criterion's answer: the rocket_pos loops close, the
    nine-line loops do not."""
    pos = hl.demo("rocket_pos").path
    span = pos.b - pos.a
    pins = {"rocket_pos": pos, "rocket_pos/reverse": hl.reverse(pos),
            "rocket_pos/repeat2": hl.repeat(pos, 2),
            "rocket_neg/reflect_negconj": hl.reflect_negconj(hl.demo("rocket_neg").path)}
    for f in (0.13, 0.37, 0.5, 0.71):
        pins[f"rocket_pos/rotate{f}"] = hl.rotate_basepoint(pos, pos.a + f * span)
    pins = {key: (spec, True) for key, spec in pins.items()}
    nine = nine_line_loop()
    for key, spec in [("nine_lines", nine), ("nine_lines/reverse", hl.reverse(nine)),
                      ("nine_lines/rotate3.3", hl.rotate_basepoint(nine, 3.3))]:
        pins[key] = (spec, False)
    return pins


PINS = closed_nontame_pins()


@pytest.mark.parametrize("key", list(PINS))
def test_closed_nontame_liftable_pins(key):
    spec, want = PINS[key]
    assert hl.closed_nontame_liftable(spec) is want


def closed_loop_variants():
    """Seven closed corpus loops, each plain, reversed, reflected, rotated
    to four basepoints, the first three of these repeated twice and the
    loop repeated three times; and the nine-line loops."""
    for name in ["rocket_pos", "rocket_neg", "meridians", "lambda_loop", "three_exp",
                 "gamma1m_gamma2(2)", "slice_circle(i,1,1)"]:
        spec = hl.demo(name).path
        span = spec.b - spec.a
        base = {"plain": spec, "reverse": hl.reverse(spec),
                "reflect_negconj": hl.reflect_negconj(spec)}
        for kind, loop in base.items():
            yield f"{name}/{kind}", loop
            yield f"{name}/{kind}/repeat2", hl.repeat(loop, 2)
        for f in (0.13, 0.37, 0.5, 0.71):
            yield f"{name}/rotate{f}", hl.rotate_basepoint(spec, spec.a + f * span)
        yield f"{name}/repeat3", hl.repeat(spec, 3)
    for key, (spec, _want) in PINS.items():
        if key.startswith("nine_lines"):
            yield key, spec


def test_closed_nontame_liftable_agrees_with_the_lift():
    # where the criterion applies and the lift with the default companion
    # goes through, the lift closes exactly when the criterion says so
    seen = 0
    for key, spec in closed_loop_variants():
        try:
            want = hl.closed_nontame_liftable(spec)
        except HypothesisViolated:
            continue
        res = hl.lift_path(spec)
        if res.status == "ok":
            assert res.closed_lift is want, key
            seen += 1
    assert seen >= 16


def test_the_nine_line_loop_closes_only_when_its_run_flips():
    # the run and the flip at -4.5 share an axis interval: read as a
    # bounce, the run leaves the flip's sign in the piece's signature
    spec = nine_line_loop()
    rep = hl.find_obstructions(sample_path(spec)[0], spec)
    assert [c.kind for c in rep.contacts] == ["semi_tame", "flip"]
    assert len(rep.runs) == 1
    (iv,) = [iv for iv in rep.intervals if iv.non_unique]
    assert iv.runs == rep.runs
    for unit in (None, (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)):
        res = hl.lift_path(spec, initial_unit=unit)
        assert (res.status, res.closed_lift) == ("ok", False)
    directives = tuple("flip" if v is iv else None for v in rep.intervals)
    assert hl.lift_path(spec, directives=directives).closed_lift is True


def test_a_path_real_throughout_lifts_along_its_seed():
    # from 1 to 2 on the real axis: the unit field is the initial unit,
    # else i, and the argument stays at its k0-th branch, 2 pi k0
    spec = hl.PathSpec(0.0, 1.0, (hl.pathkit.Line(0.0, 1.0, (1.0, 0.0, 0.0, 0.0),
                                                  (2.0, 0.0, 0.0, 0.0)),))
    res = hl.lift_path(spec)
    assert res.status == "ok"
    assert (res.lift.units == [1.0, 0.0, 0.0]).all()
    assert res.lift.values[-1] == pytest.approx([math.log(2.0), 0.0, 0.0, 0.0], abs=1e-12)
    res = hl.lift_path(spec, k0=1, initial_unit=(0.0, 1.0, 0.0))
    assert res.status == "ok"
    assert (res.lift.units == [0.0, 1.0, 0.0]).all()
    assert res.lift.values[-1] == pytest.approx(
        [math.log(2.0), 0.0, 2.0 * math.pi, 0.0], abs=1e-12)
    with pytest.raises(MissingInitialUnit):
        hl.lift_path(spec, k0=1)


def test_real_start_requires_initial_unit():
    spec = hl.demo("gamma1m_gamma2(1)").path  # starts at -1
    with pytest.raises(MissingInitialUnit):
        hl.lift_path(spec)
    res = hl.lift_path(spec, initial_unit=np.array([1.0, 0.0, 0.0]))
    assert res.status == "ok"


@pytest.mark.parametrize("name, unit, match", [
    ("three_exp", [math.nan, 1.0, 0.0], "finite"),
    ("rocket_neg", [math.nan, 1.0, 0.0], "finite"),
    ("three_exp", [1.0, math.inf, 0.0], "finite"),
    ("three_exp", [1.0, 0.0], "3 imaginary coefficients, got 2"),
    ("rocket_neg", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "3 imaginary coefficients, got 7"),
    ("three_exp", [0.0, 2.0, 0.0], "unit norm"),
])
def test_bad_initial_unit_raises_typed(name, unit, match):
    with pytest.raises(InitialMismatch, match=match):
        hl.lift_path(hl.demo(name).path, initial_unit=np.array(unit))


def test_initial_unit_mismatch_raises():
    spec = hl.demo("slice_circle(i,1,1)").path
    rot = hl.rotate_basepoint(spec, 1.0)  # starts at a non-real point
    with pytest.raises(InitialMismatch):
        hl.lift_path(rot, initial_unit=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(InitialMismatch):
        hl.lift_path(rot, initial_unit=np.array([0.5, 0.5, 0.0]))


@pytest.mark.parametrize("s", [1.0, 100.0])
def test_sideways_initial_unit_raises_at_every_scale(s):
    # a real start leaving along i; realness is judged relative to |q|,
    # so samples with |Im| between 1e-9 and 1e-9 |q| are real at s = 100
    line = hl.pathkit.Line(0.0, 1.0, (s, 0.0, 0.0, 0.0), (s, 1e-4 * s, 0.0, 0.0))
    spec = hl.PathSpec(0.0, 1.0, (line,))
    with pytest.raises(InitialMismatch):
        hl.lift_path(spec, initial_unit=np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("m", [62, 63, 64])
def test_gamma_copies_lift_from_their_own_initial_unit(m):
    case = hl.demo(f"gamma1m_gamma2({m})")
    res = hl.lift_path(case.path, initial_unit=np.array(case.initial_units["copy_1"])[1:])
    assert res.status == "ok"


def test_k0_parity_flips_the_unit_field():
    spec = hl.rotate_basepoint(hl.demo("slice_circle(i,1,1)").path, 1.0)
    even = hl.lift_path(spec, k0=0)
    odd = hl.lift_path(spec, k0=1)
    assert np.allclose(even.lift.units[0], [1.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(odd.lift.units[0], [-1.0, 0.0, 0.0], atol=1e-9)
    # both exponentiate back to the same path
    sp = hl.sample_adaptive(spec)
    assert hl.verify_lift(even.lift, sp) <= 1e-9
    assert hl.verify_lift(odd.lift, sp) <= 1e-9


def test_lift_csv_has_branch_column():
    res = hl.lift_path(hl.demo("slice_circle(i,1,1)").path)
    lines = res.lift.to_csv().splitlines()
    assert lines[0].startswith("t,") and lines[0].endswith(",k")
    assert lines[1].split(",")[-1] == "0"
    assert lines[-1].split(",")[-1] == "2"


@pytest.mark.parametrize("name, k0", [
    ("lambda_loop", -1), ("lambda_loop", 0), ("lambda_loop", 1), ("lambda_loop", 2),
    ("three_exp", -1), ("three_exp", 0),
    ("meridians", -1), ("meridians", 0),
    ("sigma_hat", -1), ("sigma_hat", 0),
    ("slice_circle(j,2,3)", -1), ("slice_circle(j,2,3)", 0),
])
def test_lift_follows_the_branches_of_the_argument(name, k0):
    # at each non-real sample the lift is log|q| plus the branch argument
    # of q on the branch floor(arg / pi) it has reached
    spec = hl.demo(name).path
    res = hl.lift_path(spec, k0=k0)
    assert res.status == "ok"
    sampled = hl.pathkit.sample_path(spec)[0]
    lift = res.lift
    assert np.array_equal(lift.params, sampled.params)
    nonreal = np.flatnonzero(~sampled.real)
    # the real runs of three_exp take two thirds of its domain
    assert len(nonreal) > len(sampled.params) // 4
    for n in nonreal:
        q = sampled.values[n]
        want = hl.branch_argument(q, math.floor(lift.arg[n] / PI))
        want[0] = math.log(np.linalg.norm(q))
        assert np.linalg.norm(lift.values[n] - want) <= 1e-12 * max(
            1.0, np.linalg.norm(want)), (n, lift.values[n], want)


@pytest.mark.parametrize("m", range(1, 9))
def test_a_trailing_real_sample_takes_the_limit_whatever_the_grid(m, monkeypatch):
    # gamma1m_gamma2(m) ends on the axis at -1; the unit at its last, real,
    # sample is the left limit at the loop's wrap contact, sign-matched,
    # and not the direction at the grid's last non-real sample, which can
    # lie a whole grid step before it
    spec = hl.demo(f"gamma1m_gamma2({m})").path
    res = hl.lift_path(spec, initial_unit=(1.0, 0.0, 0.0))
    sampled = hl.pathkit.sample_path(spec)[0]
    assert sampled.real[-1] and not sampled.real[-2]
    (wrap,) = [c for c in hl.find_obstructions(sampled, spec).contacts if c.wrap]
    limit = np.array(wrap.left_dir)
    unit = res.lift.units[-1]
    assert min(np.linalg.norm(unit - limit), np.linalg.norm(unit + limit)) <= 1e-12
    # so a lift over a uniform grid ends at the same value
    monkeypatch.setattr(hl.obstruction, "sample_path",
                        lambda p: (hl.sample_uniform(p, 4097), "uniform_fallback"))
    uniform = hl.lift_path(spec, initial_unit=(1.0, 0.0, 0.0)).lift.values[-1]
    want = res.lift.values[-1]
    assert np.linalg.norm(uniform - want) <= 1e-11 * np.linalg.norm(want)


def test_the_unit_at_a_contact_on_a_grid_node_is_its_limit():
    # exp(k pi u) = +-1 for every unit u, so exp(lift) = path cannot see
    # the unit at a real sample, but the lift's value log|q| + k pi u
    # can: at an interior contact that a sample lies on, the unit is the
    # contact's left limit with the field's sign, for a flip as for a
    # bounce, and not a blend of the units beside it
    cos_tol = math.cos(hl.config.THETA_TOL)
    checked = 0
    for name in CORPUS:
        spec = hl.demo(name).path
        loops = [spec, hl.reverse(spec), hl.reflect_negconj(spec)]
        if spec.closed:
            loops += [hl.rotate_basepoint(spec, spec.a + f * (spec.b - spec.a))
                      for f in (0.13, 0.37, 0.71)]
        for loop in loops:
            sampled, rep, _sampling = hl.obstruction.obstruct_path(loop)
            start = leaving(sampled, rep) if sampled.real[0] else None
            if sampled.real[0] and start is None:
                continue
            res = hl.lift_path(loop, initial_unit=start)
            if res.status != "ok":
                continue
            params, units = res.lift.params, res.lift.units
            for c in rep.contacts:
                if c.wrap or c.left_dir is None or c.right_dir is None:
                    continue
                n = int(np.argmin(np.abs(params - c.t)))
                if not sampled.real[n] or n in (0, len(params) - 1):
                    continue
                checked += 1
                assert abs(float(np.dot(units[n], c.left_dir))) >= cos_tol, (name, c.t)
    assert checked >= 50


@pytest.mark.parametrize("turn", [1.0, 10.0, 100.0])
def test_a_real_start_is_left_along_the_limit_whatever_the_grid(turn):
    # from -2 on the axis the arc leaves along i, its direction turning
    # towards j at a rate of about turn / 2: the initial unit i is
    # parallel to the limit there, though not to the direction at the
    # grid's first non-real sample, and j is not
    arc = hl.pathkit.Arc(0.0, 1.0, (-2.0, 0.0, turn, 0.0), (0.0, 0.0, -turn, 0.0),
                         (0.0, 1.0, 0.0, 0.0), 0.0, 1.0)
    spec = hl.PathSpec(0.0, 1.0, (arc,))
    for unit in ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)):
        assert hl.lift_path(spec, initial_unit=unit).status == "ok"
    with pytest.raises(InitialMismatch, match="not parallel to the outgoing direction"):
        hl.lift_path(spec, initial_unit=(0.0, 1.0, 0.0))


@pytest.mark.parametrize("name", CLOSED_CORPUS)
def test_the_lift_agrees_with_the_loop(name):
    # the lift reads a loop as analyze_loop does: its end units are
    # opposite exactly when the loop is twisted, and an untwisted lift
    # turns winding times and closes exactly when the winding is 0
    case = hl.demo(name)
    spec = case.path
    variants = [spec, hl.reverse(spec), hl.reflect_negconj(spec)]
    variants += [hl.rotate_basepoint(spec, spec.a + f * (spec.b - spec.a))
                 for f in (0.13, 0.37, 0.71)]
    checked = 0
    for loop in variants:
        sampled, _ = sample_path(loop)
        rep = hl.find_obstructions(sampled, loop)
        start = leaving(sampled, rep) if sampled.real[0] else None
        for companion, dirs in {"default": (), **case.directives}.items():
            want = hl.analyze_loop(loop, dirs)
            if want.twisted is None:
                continue
            checked += 1
            res = hl.lift_path(loop, initial_unit=start, directives=dirs)
            assert res.status == "ok", (companion, res.reason)
            lift = res.lift
            assert (float(np.dot(lift.units[0], lift.units[-1])) < 0) is want.twisted, companion
            if not want.twisted:
                turns = (lift.arg[-1] - lift.arg[0]) / (2 * PI)
                assert abs(turns) == pytest.approx(want.winding, abs=1e-6), companion
                assert res.closed_lift is (want.winding == 0), companion
    # no copy of a rocket is free of its not-tame contact, so analyze_loop
    # answers on none of them
    assert checked or name in ("rocket_neg", "rocket_pos", "meridians")


@pytest.mark.parametrize("directives, end, closed, twisted", [
    ((), 0.0, True, False),
    (("bounce", "bounce"), 0.0, True, False),
    # J_path: untwisted with winding 1, so the lift comes back to the
    # unit i it started with, one turn on
    (("flip", "flip"), 2 * PI, False, False),
    (("flip", "bounce"), -2 * PI, False, True),
    (("bounce", "flip"), 0.0, True, True),
])
def test_three_exp_lifts_under_each_directive(directives, end, closed, twisted):
    res = hl.lift_path(hl.demo("three_exp").path, directives=directives)
    assert res.status == "ok" and res.closed_lift is closed
    assert res.lift.values[-1] == pytest.approx([math.log(3.0), end, 0.0, 0.0], abs=1e-9)
    units = res.lift.units
    assert (float(np.dot(units[0], units[-1])) < 0) is twisted


def test_a_directive_naming_no_axis_interval_raises():
    # three_exp has two axis intervals
    with pytest.raises(ValueError, match="3 directives for 2 axis intervals"):
        hl.lift_path(hl.demo("three_exp").path, directives=("flip", "flip", "flip"))


@pytest.mark.parametrize("k0, end", [
    (-2, (0.0, 0.0, 0.0)),
    (1, (1.2504008652827, -12.504006081794, 0.0)),
    (2, (1.2504008652827, -12.504006081794, 0.0)),
])
def test_the_semi_tame_seam_of_meridians_is_met_only_at_its_ends(k0, end):
    # the seam contact is semi-tame, but the lift leaves it along its
    # right limit and comes back along its left one, never passing
    # through it, so a nonzero argument there is no failure
    spec = hl.demo("meridians").path
    sampled = sample_path(spec)[0]
    start = leaving(sampled, hl.find_obstructions(sampled, spec))
    res = hl.lift_path(spec, k0=k0, initial_unit=start)
    assert res.status == "ok"
    assert res.lift.values[-1] == pytest.approx([0.0, *end], abs=1e-6)


def test_the_not_tame_seam_of_a_rocket_fails_at_the_end_that_needs_it():
    # rocket_neg spins without limit as it leaves -1 at a, the loop's
    # wrap contact; reversed, it spins as it arrives there at b
    spec = hl.demo("rocket_neg").path
    res = hl.lift_path(spec, initial_unit=(1.0, 0.0, 0.0))
    assert (res.status, res.t_fail, res.reason) == ("fails_at", 0.0, "not_tame")
    res = hl.lift_path(hl.reverse(spec), initial_unit=(1.0, 0.0, 0.0))
    assert (res.status, res.t_fail, res.reason) == ("fails_at", spec.b, "not_tame")


def test_a_loop_on_the_axis_at_its_seam_has_no_sliver_branch():
    # the real set about the seam at +1 is the loop's wrap contact, met
    # at a and at b, so no piece is cut off next to b
    res = hl.lift_path(hl.demo("slice_circle(i,1,1)").path)
    assert res.lift.branch_trace == ((0.0, PI, 0), (PI, 2 * PI, 1))
