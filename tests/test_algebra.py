"""Arithmetic, argument branches and the manifold charts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlog as hl
from hyperlog import config
from hyperlog.algebra import (
    branch_start,
    conj,
    exp,
    log,
    mul,
    real_branch_angle,
)
from hyperlog.errors import (
    DimensionMismatch,
    NegativeRealOrZero,
    NotOnManifold,
    RealInput,
)

I = hl.basis("i")
J = hl.basis("j")
K = hl.basis("k")
ONE = hl.basis("1")


def close(a, b, tol=1e-12):
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=0.0, atol=tol))


def norm(q):
    return float(np.linalg.norm(q))


def coeffs(dim):
    return st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), min_size=dim, max_size=dim
    ).map(np.array)


def test_quaternion_table():
    assert close(mul(I, J), K)
    assert close(mul(J, K), I)
    assert close(mul(K, I), J)
    assert close(mul(J, I), -K)
    assert close(mul(I, I), -ONE)
    assert close(mul(K, K), -ONE)


def test_octonion_table():
    e = hl.basis("e", dim=8)
    i8 = hl.basis("i", dim=8)
    ie = hl.basis("ie", dim=8)
    assert close(mul(i8, e), ie)
    assert close(mul(e, e), -hl.basis("1", dim=8))
    assert close(mul(e, i8), -ie)


def test_products_work_row_wise():
    # rows multiply independently, and a single value broadcasts
    rows = np.array([I, J, K])
    assert close(mul(rows, I), np.array([-ONE, -K, J]))
    assert close(mul(rows, rows), -np.array([ONE, ONE, ONE]))


def test_conjugate_negates_imaginaries():
    q = np.array([1.0, 2.0, 3.0, 4.0])
    assert close(conj(q), np.array([1.0, -2.0, -3.0, -4.0]))
    o = np.ones(8)
    assert conj(o)[0] == 1.0
    assert np.all(conj(o)[1:] == -1.0)


def test_dimension_mixing_raises():
    with pytest.raises(DimensionMismatch):
        mul(I, hl.basis("e", dim=8))


@given(coeffs(4), coeffs(4))
@settings(max_examples=100, deadline=None)
def test_quaternion_norm_is_multiplicative(a, b):
    assert norm(mul(a, b)) == pytest.approx(norm(a) * norm(b), rel=1e-9, abs=1e-9)


@given(coeffs(8), coeffs(8))
@settings(max_examples=100, deadline=None)
def test_octonion_norm_is_multiplicative(a, b):
    assert norm(mul(a, b)) == pytest.approx(norm(a) * norm(b), rel=1e-9, abs=1e-9)


@given(coeffs(4), coeffs(4))
@settings(max_examples=100, deadline=None)
def test_conjugation_reverses_products(a, b):
    assert close(conj(mul(a, b)), mul(conj(b), conj(a)), tol=1e-9)


def test_argument_values():
    # atan2(|Im|, Re) on hand-checked inputs: the angle of the principal
    # branch off the axis, and of the branch on it
    assert branch_start(np.array([1.0, math.sqrt(3.0), 0.0, 0.0]), 0)[1] == pytest.approx(
        math.pi / 3.0
    )
    assert branch_start(np.array([0.0, 0.0, 2.0, 0.0]), 0)[1] == pytest.approx(math.pi / 2)
    assert real_branch_angle(-1.0, 0) == pytest.approx(math.pi)
    assert real_branch_angle(5.0, 0) == 0.0
    with pytest.raises(NegativeRealOrZero):
        log(np.zeros(4))


def test_principal_argument_and_log():
    two_i = np.array([0.0, 2.0, 0.0, 0.0])
    assert close(log(two_i), np.array([math.log(2.0), math.pi / 2, 0.0, 0.0]))
    with pytest.raises(NegativeRealOrZero):
        log(-ONE)
    with pytest.raises(RealInput):
        hl.branch_argument(2.0 * ONE, 0)
    # positive reals carry the zero argument
    assert close(log(3.0 * ONE), np.array([math.log(3.0), 0.0, 0.0, 0.0]))
    # rows are taken one by one
    assert close(log(np.array([two_i, 3.0 * ONE])), np.array(
        [[math.log(2.0), math.pi / 2, 0.0, 0.0], [math.log(3.0), 0.0, 0.0, 0.0]]))


def test_branch_argument_frozen_values():
    # q = i: arg pi/2; the first odd branch walks to 3 pi / 2 backwards
    u, a = branch_start(I, 0)
    assert a == pytest.approx(math.pi / 2) and close(u, np.array([1.0, 0.0, 0.0]))
    u, a = branch_start(I, 1)
    assert a == pytest.approx(3 * math.pi / 2)
    assert close(u, np.array([-1.0, 0.0, 0.0]))
    u, a = branch_start(I, 2)
    assert a == pytest.approx(math.pi / 2 + 2 * math.pi)
    # a given direction picks the sign of the unit, not the angle's branch
    u, a = branch_start(I, 0, toward=np.array([-1.0, 0.0, 0.0]))
    assert a == pytest.approx(-math.pi / 2) and close(u, np.array([-1.0, 0.0, 0.0]))
    # every branch argument exponentiates back to the direction of q
    for k in range(-4, 5):
        assert close(exp(hl.branch_argument(I, k)), I)


def is_negative_real(q):
    return bool(config.DEFAULT.is_real(norm(q[1:]), norm(q))) and q[0] <= 0


def test_exp_log_round_trip_samples():
    rng = np.random.default_rng(7)
    for dim in (4, 8):
        for _ in range(200):
            q = rng.normal(size=dim)
            if is_negative_real(q):
                continue
            assert norm(exp(log(q)) - q) <= 1e-9 * max(1.0, norm(q))


def test_exp_additivity_on_a_slice():
    # exp(z + w) = exp(z) exp(w) whenever z, w share a slice
    u = (I + J) / math.sqrt(2.0)
    z = 0.3 * ONE + 0.7 * u
    w = -0.2 * ONE + 1.1 * u
    assert close(exp(z + w), mul(exp(z), exp(w)))


def test_manifold_charts():
    q = np.array([0.4, 0.3, -0.2, 0.9])
    assert close(hl.project_log(*hl.embed(q)), q, tol=1e-9)
    with pytest.raises(NotOnManifold):
        hl.project_log(2.0 * ONE, I)


def test_embed_is_injective_up_to_branch():
    # exp alone collapses branches; the manifold point keeps them apart
    q1 = I * (math.pi / 2)
    q2 = I * (math.pi / 2 + 2 * math.pi)
    assert close(exp(q1), exp(q2))
    (e1, p1), (e2, p2) = hl.embed(q1), hl.embed(q2)
    assert close(e1, e2)
    assert not close(p1, p2, tol=1e-6)
