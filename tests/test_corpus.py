"""The registry of named example paths."""

import math
import warnings

import numpy as np
import pytest

import hyperlog as hl
from hyperlog.errors import UnknownDemo

PI = math.pi


def test_demo_names_cover_registry():
    names = hl.demo_names()
    assert "sigma_arc" in names
    assert "gamma1m_gamma2(m)" in names
    assert len(names) == 9


def test_parameterised_names():
    case = hl.demo("gamma1m_gamma2(4)")
    assert case.name == "gamma1m_gamma2(4)"
    assert len(case.basepoints) == 4
    case = hl.demo("slice_circle(j, 2, 3)")
    assert case.path.b - case.path.a == pytest.approx(6 * PI)


def test_malformed_names_raise():
    for bad in (
        "nope",
        "gamma1m_gamma2",
        "gamma1m_gamma2(0)",
        "gamma1m_gamma2(1,2)",
        "slice_circle(q,1,1)",
        "slice_circle(i,-1,1)",
        "sigma_arc(3)",
        "slice_circle(i,1,1",
        "slice_circle(i,1,1,5)",
        "slice_circle(i,nan,1)",
        "slice_circle(i,inf,1)",
        "slice_circle(i,1e200,1)",
    ):
        with pytest.raises((UnknownDemo, ValueError)):
            hl.demo(bad)


def test_sigma_hat_is_the_reflection_of_sigma():
    sigma = hl.demo("sigma_arc").path
    hat = hl.demo("sigma_hat").path
    for t in np.linspace(sigma.a, sigma.b, 11):
        v, w = sigma.value(float(t)), hat.value(float(t))
        assert w[0] == pytest.approx(-v[0], abs=1e-12)
        assert np.allclose(w[1:], v[1:], atol=1e-12)


def test_demo_paths_are_well_formed():
    for name in (
        "sigma_arc",
        "sigma_hat",
        "rocket_neg",
        "rocket_pos",
        "lambda_loop",
        "three_exp",
        "gamma1m_gamma2(2)",
        "meridians",
        "slice_circle(i,1,1)",
    ):
        case = hl.demo(name)
        mid = 0.5 * (case.path.a + case.path.b)
        assert case.path.value(mid).shape == (4,)
        if case.path.closed:
            assert np.allclose(
                case.path.value(case.path.a),
                case.path.value(case.path.b),
                atol=1e-9,
            )


def test_lambda_basepoints_sit_on_the_reals():
    case = hl.demo("lambda_loop")
    plus = case.path.value(case.basepoints["plus_one"])
    minus = case.path.value(case.basepoints["minus_one"])
    assert plus == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)
    assert minus == pytest.approx([-1.0, 0.0, 0.0, 0.0], abs=1e-9)


def test_gamma_basepoints_hit_minus_one():
    case = hl.demo("gamma1m_gamma2(3)")
    for t in case.basepoints.values():
        assert case.path.value(t) == pytest.approx(
            [-1.0, 0.0, 0.0, 0.0], abs=1e-9
        )


def test_rocket_formula():
    spec = hl.demo("rocket_neg").path
    t = 0.37
    v = spec.value(t)
    assert v[0] == pytest.approx(math.cos(PI - 2 * PI * t), abs=1e-12)
    r = t * (1 - t)
    assert v[1] == pytest.approx(r * math.cos(2 * PI / t), abs=1e-12)
    assert v[2] == pytest.approx(r * math.sin(2 * PI / t), abs=1e-12)


@pytest.mark.parametrize("name", ["rocket_neg", "rocket_pos"])
def test_rocket_is_finite_at_subnormal_parameters(name):
    # 2 pi / s overflows there; the amplitude s(1-s) is below 1e-307
    spec = hl.demo(name).path
    ts = np.array([np.nextafter(spec.a, spec.b), 1e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = spec.values(ts)
    assert np.isfinite(v).all()
    assert np.abs(v[:, 1:]).max() < 1e-307
