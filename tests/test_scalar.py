import math

import numpy as np
import pytest

import oracle
from conftest import rand_dc
from dclinalg import (
    EPS_J,
    EPS_K,
    I_UNIT,
    ONE,
    DualComplex,
    NotAppreciable,
    Tolerances,
    dc_abs,
    dc_inv,
    dc_mul,
    dc_similar,
)


def test_unit_products():
    # i * eps*j = eps*k
    assert dc_mul(I_UNIT, EPS_J) == EPS_K
    # eps*j * i = -eps*k
    assert dc_mul(EPS_J, I_UNIT) == -EPS_K
    assert dc_mul(EPS_J, EPS_J) == DualComplex(0)
    assert dc_mul(EPS_K, EPS_K) == DualComplex(0)


def test_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rand_dc(rng)
        assert dc_mul(ONE, q) == q
        assert dc_mul(q, ONE) == q


def test_infinitesimal_square_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = DualComplex(0, complex(*rng.standard_normal(2)))
        assert dc_mul(q, q) == DualComplex(0)


def test_mul_matches_regular_representation():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p, q = rand_dc(rng), rand_dc(rng)
        assert oracle.close(dc_mul(p, q), oracle.mul(p, q))


def test_representation_is_multiplicative():
    # L(p) L(q) acting on the coordinates of 1 recovers the product pq
    rng = np.random.default_rng(4)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(200):
        p, q = rand_dc(rng), rand_dc(rng)
        via_rep = oracle.from_coords(
            oracle.left_matrix(oracle.coords(p)) @ oracle.left_matrix(oracle.coords(q)) @ e1)
        assert oracle.close(dc_mul(p, q), via_rep)


def test_conj_componentwise():
    q = DualComplex.from_reals(1.0, 2.0, 3.0, 4.0)
    assert q.conjugate() == DualComplex.from_reals(1.0, -2.0, -3.0, -4.0)


def test_conj_involution_and_product_rule():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p, q = rand_dc(rng), rand_dc(rng)
        assert q.conjugate().conjugate() == q
        assert oracle.close(dc_mul(p, q).conjugate(),
                            oracle.mul(oracle.conj(q), oracle.conj(p)))


def test_q_times_conj_is_squared_magnitude():
    rng = np.random.default_rng(6)
    for _ in range(100):
        q = rand_dc(rng)
        prod = dc_mul(q, q.conjugate())
        assert abs(prod.standard - dc_abs(q) ** 2) <= 1e-12
        assert abs(prod.infinitesimal) <= 1e-12


def test_abs_examples():
    assert dc_abs(DualComplex(1, -1j)) == 1.0
    assert dc_abs(DualComplex(0)) == 0.0
    assert dc_abs(DualComplex(3 + 4j, 7)) == pytest.approx(5.0, abs=1e-15)


def test_abs_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q = rand_dc(rng), rand_dc(rng)
        lhs = dc_abs(dc_mul(p, q))
        rhs = dc_abs(p) * dc_abs(q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
        assert abs(dc_abs(dc_mul(q, p)) - rhs) <= 1e-12 * max(1.0, rhs)


def test_inv_examples():
    assert dc_inv(I_UNIT) == DualComplex(-1j)
    assert dc_inv(DualComplex(1, 1)) == DualComplex(1, -1)
    with pytest.raises(NotAppreciable):
        dc_inv(EPS_J)


def test_inv_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = rand_dc(rng)
        if not q.is_appreciable(1e-6):
            continue
        for prod in (dc_mul(q, dc_inv(q)), dc_mul(dc_inv(q), q)):
            assert abs(prod.standard - 1) <= 1e-12
            assert abs(prod.infinitesimal) <= 1e-12
        assert oracle.close(dc_inv(q), oracle.inv(q), 1e-12)


def test_associativity_and_distributivity():
    rng = np.random.default_rng(9)
    for _ in range(300):
        p, q, r = rand_dc(rng), rand_dc(rng), rand_dc(rng)
        assert oracle.close(dc_mul(dc_mul(p, q), r), dc_mul(p, dc_mul(q, r)), 1e-12)
        assert oracle.close(dc_mul(p, q + r), dc_mul(p, q) + dc_mul(p, r), 1e-12)
        assert oracle.close(dc_mul(q + r, p), dc_mul(q, p) + dc_mul(r, p), 1e-12)


def test_real_iff_self_conjugate():
    assert DualComplex(2.5).conjugate() == DualComplex(2.5)
    rng = np.random.default_rng(10)
    for _ in range(100):
        q = rand_dc(rng)
        is_real = q.infinitesimal == 0 and q.standard.imag == 0
        assert (q.conjugate() == q) == is_real


def test_operator_sugar():
    p = DualComplex(1 + 2j, 3j)
    assert p * 2 == DualComplex(2 + 4j, 6j)
    # left and right complex multiples differ: the infinitesimal part conjugates
    z = 1j
    assert z * p == DualComplex(z * p.standard, z * p.infinitesimal)
    assert p * z == DualComplex(p.standard * z, p.infinitesimal * np.conj(z))
    assert 1 + EPS_J == DualComplex(1, 1)
    assert 1 - EPS_J == DualComplex(1, -1)


def test_similar_reflexive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = rand_dc(rng)
        u = dc_similar(q, q)
        assert u is not None
        assert abs(u.standard - 1) <= 1e-10 and abs(u.infinitesimal) <= 1e-10


def test_similar_phase_pair():
    # 1 + a*eps*j ~ 1 + b*eps*j exactly when |a| = |b|; here the witness is i
    u = dc_similar(DualComplex(1, -1j), DualComplex(1, 1j))
    assert u is not None
    assert abs(u.standard - 1j) <= 1e-10 and abs(u.infinitesimal) <= 1e-10


def test_similar_distinct_reals_fails():
    assert dc_similar(DualComplex(1), DualComplex(2)) is None
    # magnitudes differ, so no witness exists
    assert dc_similar(DualComplex(1, 0.5), DualComplex(1 + 1e-3, 0.5)) is None


def test_similar_random_conjugates():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p, u = rand_dc(rng), rand_dc(rng)
        if not u.is_appreciable(1e-3):
            continue
        q = dc_mul(dc_mul(dc_inv(u), p), u)
        w = dc_similar(p, q)
        assert w is not None
        assert w.is_appreciable()
        r = dc_mul(p, w) - dc_mul(w, q)
        assert max(abs(r.standard), abs(r.infinitesimal)) <= 1e-9
        assert abs(dc_abs(p) - dc_abs(q)) <= 1e-10 * max(1.0, dc_abs(p))


def test_tolerances_validation():
    assert Tolerances().group_tol == 1e-8
    with pytest.raises(ValueError):
        Tolerances(resid_tol=-1)


@pytest.mark.parametrize("name", ["group_tol", "resid_tol", "zero_tol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_tolerances_reject_non_finite_values(name, value):
    # an infinite resid_tol would switch every residual gate off
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        Tolerances(**{name: value})
