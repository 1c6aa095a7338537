"""The in-house Brent solvers and the contact localisation built on them.

The solvers are ports of SciPy's, written as generators; a driver here
runs each on a function, and where SciPy is installed the result is
compared with SciPy's bit for bit.  The memoised contact localisation is
compared with an unmemoised reference that evaluates the path once per
solver step.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperlog as hl
from hyperlog import _brent, config, obstruction
from hyperlog.errors import HyperlogError
from hyperlog.pathkit import SampledPath, sample_path

from test_batched_eval import Meter, corpus_paths, counted, unit
from test_winding import near_miss_loop

# families of test functions f(x; s, k, c): each changes sign at x = 0
# when c = 0, and is evaluated at x - r for a drawn root r
FAMILIES = (
    lambda x, s, k, c: s * x + c,
    lambda x, s, k, c: s * x ** 3 + c * x,
    lambda x, s, k, c: s * math.sin(k * x) + c,
    lambda x, s, k, c: s * math.tanh(k * x) + c * 1e-9,
    lambda x, s, k, c: s * (x * abs(x) + c * x * x),
    lambda x, s, k, c: s * (abs(x) ** 0.5 + c * math.cos(k * x)),
)

functions = st.tuples(
    st.sampled_from(range(len(FAMILIES))),
    # scales from underflow-prone to large, of either sign
    st.floats(-300, 5).map(lambda e: 10.0 ** e),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.1, 20.0),
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0),
)
widths = st.floats(-10.0, 1.0).map(lambda e: 10.0 ** e)
tolerances = st.floats(-15.0, -1.0).map(lambda e: 10.0 ** e)


def drive(steps, f):
    """Run a solver generator on the function f: send f's value at each
    abscissa it yields, and return what the solver returns."""
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def brentq(f, xa, xb, xtol):
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign."""
    return drive(_brent.brentq_steps(xa, xb, xtol), f)


def minimize_bounded(f, x1, x2, xatol):
    """The minimiser of f on [x1, x2] by Brent's bounded method."""
    return drive(_brent.minimize_bounded_steps(x1, x2, xatol), f)


def make(fn):
    family, mag, sign, k, c, r = fn
    f = FAMILIES[family]
    return r, lambda x: f(x - r, sign * mag, k, c)


def outcome(solve):
    """The solver's result, or the type of the error it raised."""
    try:
        return solve()
    except (ValueError, RuntimeError) as e:
        return type(e).__name__


def same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
    return x == y


@given(functions, widths, widths, tolerances)
@settings(max_examples=400, deadline=None)
def test_brentq_matches_scipy_bit_for_bit(fn, left, right, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    r, f = make(fn)
    lo, hi = r - left, r + right
    want = outcome(lambda: optimize.brentq(f, lo, hi, xtol=xtol))
    got = outcome(lambda: brentq(f, lo, hi, xtol))
    assert same(got, want), (want, got)


@given(functions, widths, widths, tolerances)
@settings(max_examples=400, deadline=None)
def test_minimize_bounded_matches_scipy_bit_for_bit(fn, left, right, xatol):
    optimize = pytest.importorskip("scipy.optimize")
    r, f = make(fn)
    lo, hi = r - left, r + right

    def g(x):
        return abs(f(x))

    want = outcome(lambda: float(optimize.minimize_scalar(
        g, bounds=(lo, hi), method="bounded", options={"xatol": xatol}).x))
    got = outcome(lambda: minimize_bounded(g, lo, hi, xatol))
    assert same(got, want), (want, got)


def test_brentq_finds_roots_and_rejects_bad_brackets(monkeypatch):
    root = brentq(lambda x: x * x - 2.0, 0.0, 2.0, 1e-14)
    assert abs(root - math.sqrt(2.0)) <= 1e-14 + 4 * _brent.EPS * root
    assert brentq(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-12)
    monkeypatch.setattr(_brent, "MAXITER", 3)
    with pytest.raises(RuntimeError):
        brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, 1e-300)


@given(st.floats(-5.0, 5.0), widths, widths, tolerances)
@settings(max_examples=100, deadline=None)
def test_minimize_bounded_finds_a_parabola_vertex(x0, left, right, xatol):
    assume(left > 1e-6 and right > 1e-6)
    x = minimize_bounded(
        lambda t: (t - x0) ** 2, x0 - left, x0 + right, xatol)
    assert abs(x - x0) <= 3 * xatol + 1e-7 * (abs(x0) + left + right)


# ---------------------------------------------------------------------------
# contact localisation


def reference_localize_contact(spec, tl, tn, tr, ptol, brentq, minimize):
    """A contact localisation with one path evaluation per solver step."""
    u_ref = unit(spec.value(tn))

    def component(t):
        return float(np.dot(spec.value(t)[1:], u_ref))

    if component(tl) * component(tr) < 0:
        t_c = brentq(component, tl, tr, ptol)
    else:
        t_c = minimize(lambda t: float(np.linalg.norm(spec.value(t)[1:])), tl, tr, ptol)
    v = spec.value(t_c)
    if float(np.linalg.norm(v[1:])) <= config.DEFAULT.eps_real * float(np.linalg.norm(v)):
        return t_c
    return None


def localisations():
    """(label, spec, tl, tn, tr, ptol, result) of every contact
    localisation that find_obstructions makes on the corpus paths and on
    a loop that passes 1e-6 from the axis, whose dip of |Im| holds no
    real point, each bracket of its batches."""
    made = []
    localize = obstruction._localize_contacts

    def record(spec, sampled, tri, edges, ptol):
        found, ends = localize(spec, sampled, tri, edges, ptol)
        made.extend((label, spec, tl, tn, tr, ptol, t_c)
                    for (tl, tn, tr), t_c in zip(sampled.params[tri].tolist(), found))
        return found, ends

    obstruction._localize_contacts = record
    try:
        for label, spec in [*corpus_paths(), ("near_miss", near_miss_loop(1e-6))]:
            try:
                sampled, _sampling = sample_path(spec)
                hl.find_obstructions(sampled, spec)
            except HyperlogError:
                pass
    finally:
        obstruction._localize_contacts = localize
    return made


def ported(spec, tl, tn, tr, ptol):
    return reference_localize_contact(
        spec, tl, tn, tr, ptol, brentq, minimize_bounded)


def test_memoised_localisation_matches_unmemoised_on_the_corpus():
    made = localisations()
    found = [t_c for *_, t_c in made if t_c is not None]
    assert len(found) > 100 and len(found) < len(made)
    # the sampler's crossing brackets, solved along their left end's
    # direction, are among them
    assert sum(tn == tl for _label, _spec, tl, tn, *_ in made) > 100
    before = after = 0
    for label, spec, tl, tn, tr, ptol, t_c in made:
        meter = Meter()
        want = ported(counted(spec, meter), tl, tn, tr, ptol)
        before += meter.calls
        meter = Meter()
        # the bracket on its own gets the result it got in its batch;
        # its values at tl, tn and tr are the caller's
        ts = np.array([tl, tn, tr])
        [got], _ends = obstruction._localize_contacts(
            counted(spec, meter), SampledPath(ts, spec.values(ts), config.DEFAULT),
            np.array([[0, 1, 2]]), [], ptol)
        after += meter.calls
        assert got == t_c == want, label
    # the caller's values serve the direction at tn, the solvers' first
    # two evaluations and the check
    assert after <= before - 4 * len(made)


def test_localisation_matches_scipy_on_the_corpus():
    optimize = pytest.importorskip("scipy.optimize")

    def scipy_brentq(f, a, b, xtol):
        return optimize.brentq(f, a, b, xtol=xtol)

    def scipy_minimize(f, a, b, xatol):
        return float(optimize.minimize_scalar(
            f, bounds=(a, b), method="bounded", options={"xatol": xatol}).x)

    made = localisations()
    assert len(made) > 100
    for label, spec, tl, tn, tr, ptol, t_c in made:
        want = reference_localize_contact(
            spec, tl, tn, tr, ptol, scipy_brentq, scipy_minimize)
        assert t_c == want, label


def test_importing_the_package_leaves_scipy_unloaded():
    src = str(Path(hl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys, hyperlog, hyperlog.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"
