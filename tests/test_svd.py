import numpy as np
import pytest

from conftest import cgauss, rand_dcmatrix
from dclinalg import (
    EPS_J,
    DCMatrix,
    ShapeMismatch,
    SingularBlock,
    SvdResult,
    component_norms,
    conj_transpose,
    dc_svd,
    from_scalars,
    frobenius_norm,
    gen_random,
    herm_spectral,
    identity,
    is_unitary,
    mat_mul,
    standard_rank,
    verify_svd,
    zeros,
)


def all_sigmas(res):
    return [b.sigma for b in res.standard_blocks for _ in range(b.dim)]


def test_complex_input_reduces_to_classical_svd():
    rng = np.random.default_rng(0)
    a_st = cgauss(rng, 5, 3)
    res = dc_svd(DCMatrix(a_st))
    assert res.infinitesimal_rank == 0
    assert all(b.nu is None for b in res.standard_blocks)
    np.testing.assert_allclose(all_sigmas(res),
                               np.linalg.svd(a_st, compute_uv=False), atol=1e-12)
    assert max(res.residual) <= 1e-12


def test_diagonal_standard_and_infinitesimal():
    a = from_scalars([[1, 0], [0, EPS_J]])
    res = dc_svd(a)
    assert res.standard_rank == 1
    assert res.infinitesimal_rank == 1
    assert all_sigmas(res) == [1.0]
    assert res.infinitesimal_values == (1.0,)
    assert res.standard_rank + res.infinitesimal_rank == 2
    assert res.residual == (0.0, 0.0)


def test_zero_matrix():
    res = dc_svd(zeros(3, 2))
    assert res.standard_rank == 0 and res.infinitesimal_rank == 0
    assert res.standard_blocks == () and res.infinitesimal_values == ()


@pytest.mark.parametrize("m,n", [(5, 3), (3, 5), (4, 4), (6, 2), (2, 6)])
def test_random_shapes_round_trip(m, n):
    rng = np.random.default_rng(m * 100 + n)
    a = rand_dcmatrix(rng, m, n)
    res = dc_svd(a)
    assert is_unitary(res.U) and is_unitary(res.V)
    assert max(res.residual) <= 1e-9
    assert max(verify_svd(a, res)) <= 1e-9
    assert res.standard_rank + res.infinitesimal_rank <= min(m, n)
    # reconstruction: A = U L V*
    rec = mat_mul(mat_mul(res.U, res.layout()), conj_transpose(res.V))
    diff = rec - a
    assert max(component_norms(diff)) <= 1e-9


def test_standard_singular_values_match_standard_part():
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        a = rand_dcmatrix(rng, 6, 4)
        res = dc_svd(a)
        sv = np.linalg.svd(a.standard, compute_uv=False)
        np.testing.assert_allclose(all_sigmas(res), sv[:res.standard_rank], atol=1e-10)
        assert frobenius_norm(a) == pytest.approx(
            np.sqrt(np.sum(np.array(all_sigmas(res)) ** 2)), abs=1e-10)


def test_rank_deficient_and_pure_infinitesimal():
    rng = np.random.default_rng(7)
    b = cgauss(rng, 5, 2)
    c = cgauss(rng, 2, 4)
    a = DCMatrix(b @ c, cgauss(rng, 5, 4))
    res = dc_svd(a)
    assert res.standard_rank == 2
    assert standard_rank(a) == 2
    assert max(res.residual) <= 1e-9
    # purely infinitesimal matrix: no standard singular values at all
    z = DCMatrix(np.zeros((4, 3)), cgauss(rng, 4, 3))
    rz = dc_svd(z)
    assert rz.standard_rank == 0
    assert rz.infinitesimal_rank == 3
    np.testing.assert_allclose(rz.infinitesimal_values,
                               np.linalg.svd(z.infinitesimal, compute_uv=False), atol=1e-12)
    # a pure eps*j column inside an otherwise generic matrix
    st = cgauss(rng, 5, 3)
    st[:, 1] = 0
    inf = cgauss(rng, 5, 3)
    mixed = DCMatrix(st, inf)
    rm = dc_svd(mixed)
    assert rm.standard_rank == 2
    assert max(rm.residual) <= 1e-9


def test_standard_rank_examples():
    assert standard_rank(zeros(3, 3)) == 0
    assert standard_rank(DCMatrix(np.eye(4), np.eye(4))) == 4
    assert standard_rank(from_scalars([[1, 0], [0, EPS_J]])) == 1


def test_rank_consistent_with_svd():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rand_dcmatrix(rng, 5, 4)
        assert standard_rank(a) == dc_svd(a).standard_rank


def test_sub_blocks_square_back_to_gram_blocks():
    # coupled singular blocks (sigma, nu) square to A*A blocks (sigma^2, 2 sigma nu)
    from dclinalg import SpectralBlock, assemble_blocks
    blocks = (SpectralBlock("Sub", 4.0, 1.5), SpectralBlock("Eigen", 1.0))
    sig = assemble_blocks(blocks)
    u = gen_random("unitary", 3, 3, 5)
    v = gen_random("unitary", 3, 3, 6)
    a = mat_mul(mat_mul(u, DCMatrix(np.sqrt(sig.standard.real), sig.infinitesimal / (2 * 2.0))),
                conj_transpose(v))
    res = dc_svd(a)
    gram = herm_spectral(mat_mul(conj_transpose(a), a))
    got_sub = [b for b in res.standard_blocks if b.nu is not None]
    gram_sub = [b for b in gram.blocks if b.kind == "Sub"]
    assert len(got_sub) == 1 and len(gram_sub) == 1
    assert got_sub[0].sigma ** 2 == pytest.approx(gram_sub[0].lam, abs=1e-10)
    assert abs(2 * got_sub[0].sigma * got_sub[0].nu) == pytest.approx(
        abs(gram_sub[0].mu), abs=1e-10)
    # U_1 = A V_1 Sigma_r^-1 with the closed-form inverse of the coupled block
    assert max(res.residual) <= 1e-12
    assert max(verify_svd(a, res)) <= 1e-12


def test_unitary_invariance_of_singular_values():
    rng = np.random.default_rng(9)
    for seed in range(5):
        m, n = 5, 4
        a = rand_dcmatrix(rng, m, n)
        w1 = gen_random("unitary", m, m, 70 + seed)
        w2 = gen_random("unitary", n, n, 80 + seed)
        r1 = dc_svd(a)
        r2 = dc_svd(mat_mul(mat_mul(w1, a), w2))
        np.testing.assert_allclose(sorted(all_sigmas(r1), reverse=True),
                                   sorted(all_sigmas(r2), reverse=True), atol=1e-9)
        np.testing.assert_allclose(sorted(r1.infinitesimal_values, reverse=True),
                                   sorted(r2.infinitesimal_values, reverse=True), atol=1e-9)
        assert r1.standard_rank == r2.standard_rank
        assert r1.infinitesimal_rank == r2.infinitesimal_rank


def test_verify_svd_trivial_and_corrupted():
    a = identity(3)
    res = dc_svd(a)
    assert verify_svd(a, res) == (0.0, 0.0)
    # scaling one column of U must be detected
    bad_st = res.U.standard.copy()
    bad_st[:, 0] *= 1.01
    bad = SvdResult(DCMatrix(bad_st, res.U.infinitesimal), res.V, res.standard_blocks,
                    res.infinitesimal_values, res.standard_rank, res.infinitesimal_rank,
                    res.residual)
    assert max(verify_svd(a, bad)) > 1e-3
    with pytest.raises(ShapeMismatch):
        verify_svd(zeros(2, 3), res)


def test_wide_matrix_layout_orientation():
    # the infinitesimal diagonal must come out with a positive sign for wide
    # inputs as well (the flipped construction negates matching columns)
    a = from_scalars([[1, 0, 0], [0, EPS_J, 0]])
    res = dc_svd(a)
    assert res.standard_rank == 1 and res.infinitesimal_rank == 1
    lay = mat_mul(mat_mul(conj_transpose(res.U), a), res.V)
    np.testing.assert_allclose(lay.infinitesimal[1, 1], 1.0, atol=1e-12)
    assert max(res.residual) <= 1e-12
