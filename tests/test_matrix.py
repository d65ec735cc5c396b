import warnings

import numpy as np
import pytest

from conftest import cgauss, rand_dc, rand_dcmatrix
from dclinalg import (
    EPS_J,
    DCMatrix,
    DualComplex,
    ShapeMismatch,
    SingularStandardPart,
    component_norms,
    conj_transpose,
    dc_mul,
    frobenius_norm,
    from_scalars,
    gen_random,
    identity,
    inner,
    is_hermitian,
    is_unitary,
    mat_inv,
    mat_mul,
    vector_norm,
    zeros,
)
from oracle import phi

EX2 = from_scalars([[1, EPS_J], [-EPS_J, 1]])


def entrywise_mat_mul(a, b):
    # independent route: each entry via scalar products
    out = [[DualComplex(0) for _ in range(b.cols)] for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            acc = DualComplex(0)
            for k in range(a.cols):
                acc = acc + dc_mul(a.entry(i, k), b.entry(k, j))
            out[i][j] = acc
    return from_scalars(out)


def assert_dc_close(a, b, tol=1e-12):
    np.testing.assert_allclose(a.standard, b.standard, atol=tol)
    np.testing.assert_allclose(a.infinitesimal, b.infinitesimal, atol=tol)


def test_identity_product():
    rng = np.random.default_rng(0)
    a = rand_dcmatrix(rng, 3, 3)
    assert_dc_close(mat_mul(a, identity(3)), a, 0)
    assert_dc_close(mat_mul(identity(3), a), a, 0)


def test_mat_mul_shape_mismatch():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeMismatch):
        mat_mul(rand_dcmatrix(rng, 2, 3), rand_dcmatrix(rng, 2, 3))


def test_matvec_example_pair():
    # A = I + I eps*j applied to x = e + e*i equals x*(1 - i eps*j)
    a = DCMatrix(np.eye(2), np.eye(2))
    e = np.ones((2, 1))
    x = DCMatrix(e + 1j * e)
    ax = mat_mul(a, x)
    expected = DCMatrix(e + 1j * e, (1 - 1j) * e)
    assert_dc_close(ax, expected, 0)
    assert_dc_close(ax, x * DualComplex(1, -1j), 0)


def test_mat_mul_matches_entrywise_scalars():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = rand_dcmatrix(rng, 3, 3), rand_dcmatrix(rng, 3, 3)
        assert_dc_close(mat_mul(a, b), entrywise_mat_mul(a, b), 1e-13)


def test_scalar_multiples_and_negation_through_phi():
    # q A and A q are the products with q I, and -A is (-1) A; phi keeps
    # products, so each is one plain numpy product of phi matrices
    rng = np.random.default_rng(5)
    a = rand_dcmatrix(rng, 3, 4)

    def phi_scalar(q, n):
        return phi(DCMatrix(q.standard * np.eye(n), q.infinitesimal * np.eye(n)))

    for q in (rand_dc(rng), 2.5, -1j, 3):
        dq = q if isinstance(q, DualComplex) else DualComplex(q)
        np.testing.assert_allclose(phi(q * a), phi_scalar(dq, 3) @ phi(a), rtol=0, atol=1e-14)
        np.testing.assert_allclose(phi(a * q), phi(a) @ phi_scalar(dq, 4), rtol=0, atol=1e-14)
    assert np.array_equal(phi(-a), -phi(a))
    assert np.array_equal(phi((-1) * a), phi(-a))
    assert a.__rmul__("x") is NotImplemented


def test_mat_mul_associative():
    rng = np.random.default_rng(3)
    a, b, c = rand_dcmatrix(rng, 3, 4), rand_dcmatrix(rng, 4, 2), rand_dcmatrix(rng, 2, 5)
    assert_dc_close(mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c)), 1e-12)


def test_conj_transpose_involution_and_product_rule():
    rng = np.random.default_rng(4)
    a, b = rand_dcmatrix(rng, 3, 4), rand_dcmatrix(rng, 4, 2)
    assert_dc_close(conj_transpose(conj_transpose(a)), a, 0)
    assert_dc_close(conj_transpose(mat_mul(a, b)),
                    mat_mul(conj_transpose(b), conj_transpose(a)), 1e-13)


def test_conj_transpose_fixed_point_for_hermitian_example():
    assert_dc_close(conj_transpose(EX2), EX2, 0)


def test_frobenius_norm():
    assert frobenius_norm(identity(4)) == pytest.approx(2.0)
    # infinitesimal off-diagonals contribute nothing
    assert frobenius_norm(EX2) == pytest.approx(np.sqrt(2))


def test_frobenius_unitary_invariance():
    rng = np.random.default_rng(5)
    a = rand_dcmatrix(rng, 4, 3)
    u = gen_random("unitary", 4, 4, 6)
    v = gen_random("unitary", 3, 3, 7)
    assert frobenius_norm(mat_mul(mat_mul(u, a), v)) == pytest.approx(
        frobenius_norm(a), rel=1e-12)


def test_inv_of_identity_plus_infinitesimal():
    rng = np.random.default_rng(8)
    c = cgauss(rng, 4, 4)
    a = DCMatrix(np.eye(4), c)
    assert_dc_close(mat_inv(a), DCMatrix(np.eye(4), -c), 1e-14)
    assert_dc_close(mat_inv(identity(3)), identity(3), 0)


def test_inv_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rand_dcmatrix(rng, 5, 5)
        r = mat_mul(a, mat_inv(a)) - identity(5)
        rs, ri = component_norms(r)
        assert rs + ri <= 1e-10
        l = mat_mul(mat_inv(a), a) - identity(5)
        ls, li = component_norms(l)
        assert ls + li <= 1e-10


def test_inv_product_and_conj_transpose_rules():
    rng = np.random.default_rng(10)
    a, b = rand_dcmatrix(rng, 4, 4), rand_dcmatrix(rng, 4, 4)
    assert_dc_close(mat_inv(mat_mul(a, b)),
                    mat_mul(mat_inv(b), mat_inv(a)), 1e-10)
    assert_dc_close(mat_inv(conj_transpose(a)),
                    conj_transpose(mat_inv(a)), 1e-10)


def test_inv_of_the_empty_matrix():
    # herm_spectral, dc_svd and right_eigs all take the 0 x 0 matrix
    inv = mat_inv(zeros(0, 0))
    assert inv.shape == (0, 0)
    assert inv.standard.dtype == inv.infinitesimal.dtype == complex


def test_inv_singular_standard_part():
    # an all-infinitesimal row makes the standard part singular
    a = from_scalars([[EPS_J, EPS_J], [1, 2]])
    with pytest.raises(SingularStandardPart):
        mat_inv(a)
    with pytest.raises(ShapeMismatch):
        mat_inv(zeros(2, 3))


def with_singular_values(svals, seed):
    """W diag(svals) Z* for seeded unitaries W and Z, with a random infinitesimal part."""
    n = len(svals)
    w, z = (gen_random("unitary", n, n, seed + i).standard for i in (0, 1))
    return DCMatrix(w @ np.diag(svals) @ z.conj().T, cgauss(np.random.default_rng(seed), n, n))


@pytest.mark.parametrize("svals", [np.logspace(0, -17, 6), [1.0, 1e-300]],
                         ids=["cond-1e17", "inverse-1e300"])
def test_inv_nearly_singular_standard_part_raises_without_warnings(svals):
    # cond 1e17 inverts, but kappa_F n eps >= 1; an inverse of size 1e300
    # overflows its norm, and kappa_F reads inf
    a = with_singular_values(svals, 11)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(SingularStandardPart, match="numerically singular"):
            mat_inv(a)
    assert not seen


def test_inv_of_condition_1e8_inverts():
    a = with_singular_values(np.logspace(0, -8, 6), 12)
    # the infinitesimal part of A A^-1 - I carries cond^2 eps ||A_I||
    assert component_norms(mat_mul(a, mat_inv(a)) - identity(6))[0] <= 1e-6


def test_is_hermitian():
    assert is_hermitian(EX2)
    assert not is_hermitian(DCMatrix(np.eye(2), np.eye(2)))  # A_I = I is not skew
    rng = np.random.default_rng(11)
    h = cgauss(rng, 4, 4)
    assert is_hermitian(DCMatrix(h + h.conj().T))
    assert is_hermitian(gen_random("hermitian", 5, 5, 42))


def test_is_unitary():
    assert is_unitary(identity(3))
    assert is_unitary(gen_random("unitary", 4, 4, 7))
    # W + W S eps*j with symmetric S
    rng = np.random.default_rng(12)
    w, _ = np.linalg.qr(cgauss(rng, 4, 4))
    s = cgauss(rng, 4, 4)
    s = (s + s.T) / 2
    assert is_unitary(DCMatrix(w, w @ s))
    # non-symmetric correction violates unitarity
    k = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not is_unitary(DCMatrix(np.eye(2), k))


def test_inner_product():
    rng = np.random.default_rng(13)
    x, y = rand_dcmatrix(rng, 5, 1), rand_dcmatrix(rng, 5, 1)
    xx = inner(x, x)
    assert xx.infinitesimal == 0  # cancels identically, not just approximately
    assert xx.standard.imag == pytest.approx(0.0, abs=1e-15)
    assert xx.standard.real == pytest.approx(np.linalg.norm(x.standard) ** 2)
    assert vector_norm(x) == pytest.approx(np.linalg.norm(x.standard))
    e1 = from_scalars([[1], [0]])
    e2 = from_scalars([[0], [1]])
    assert inner(e1, e2) == DualComplex(0)
    with pytest.raises(ShapeMismatch):
        inner(x, rand_dcmatrix(rng, 4, 1))
    # orthogonality survives infinitesimal extensions that satisfy the
    # cancellation condition x_st* y_I = x_I^T conj(y_st)
    x_i = cgauss(rng, 2, 1)
    y_i = cgauss(rng, 2, 1)
    y_i[0, 0] = x_i[1, 0]
    ip = inner(DCMatrix(e1.standard, x_i), DCMatrix(e2.standard, y_i))
    assert ip.standard == 0 and abs(ip.infinitesimal) <= 1e-15


def test_norm_inequalities():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = rand_dcmatrix(rng, 4, 4)
        x = rand_dcmatrix(rng, 4, 1)
        ax = mat_mul(a, x)
        assert vector_norm(ax) <= frobenius_norm(a) * vector_norm(x) * (1 + 1e-12)
        u = gen_random("unitary", 4, 4, int(rng.integers(1 << 30)))
        assert vector_norm(mat_mul(u, x)) == pytest.approx(vector_norm(x), rel=1e-12)


def test_gen_random_kinds():
    assert is_hermitian(gen_random("hermitian", 5, 5, 42))
    assert is_unitary(gen_random("unitary", 4, 4, 7))
    a = gen_random("general", 3, 5, 1)
    assert a.shape == (3, 5)
    with pytest.raises(ShapeMismatch):
        gen_random("hermitian", 3, 4, 0)
    with pytest.raises(ValueError):
        gen_random("bogus", 3, 3, 0)
    # determinism
    b1, b2 = gen_random("general", 4, 4, 3), gen_random("general", 4, 4, 3)
    assert_dc_close(b1, b2, 0)


def test_gen_random_psd_has_nonnegative_spectrum():
    from dclinalg import herm_spectral
    a = gen_random("psd", 3, 3, 1)
    assert is_hermitian(a)
    dec = herm_spectral(a)
    assert all(b.lam >= -1e-12 for b in dec.blocks)


def test_invertible_matrices_have_appreciable_rows_and_columns():
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = rand_dcmatrix(rng, 5, 5)
        mat_inv(a)  # raises if the standard part were singular
        amax = np.abs(a.standard)
        assert amax.max(axis=0).min() > 1e-8
        assert amax.max(axis=1).min() > 1e-8


def test_matrix_immutability():
    a = identity(2)
    with pytest.raises(ValueError):
        a.standard[0, 0] = 5
