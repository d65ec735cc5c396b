import numpy as np
import pytest

import dclinalg.spectral as spectral_mod
import dclinalg.svd as svd_mod
from conftest import cgauss, rand_dcmatrix
from dclinalg import (
    EPS_J,
    AccuracyError,
    DCMatrix,
    IllConditionedGap,
    ShapeMismatch,
    SingularBlock,
    SvdResult,
    assemble_layout,
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
from dclinalg.matrix import unitarity_defect
from oracle import dc_svd_gram

EPS = np.finfo(float).eps


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
    layout = assemble_layout(m, n, res.standard_blocks, res.infinitesimal_values)
    rec = mat_mul(mat_mul(res.U, layout), conj_transpose(res.V))
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


# ------------------------------------------------ direct construction from A_st

def haar(rng, n):
    q, r = np.linalg.qr(cgauss(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dual_norm(a):
    return float(np.linalg.norm(a.standard)) + float(np.linalg.norm(a.infinitesimal))


@pytest.mark.parametrize("seed", range(5))
def test_sigma_ladder_keeps_the_small_value(seed):
    # sigma = 1e-4 squares to 1e-8, which clustering on the Gram matrix merged
    # with 0; on sigma itself it stands far above the rank cutoff
    rng = np.random.default_rng(300 + seed)
    s = np.array([1, .5, .3, .1, 1e-4, 0])
    a = DCMatrix(haar(rng, 6) @ np.diag(s) @ haar(rng, 6).conj().T, 1e-3 * cgauss(rng, 6, 6))
    res = dc_svd(a)
    assert res.standard_rank == 5 and res.infinitesimal_rank == 1
    np.testing.assert_allclose(all_sigmas(res), s[:5], rtol=1e-10)
    assert max(res.residual) <= 1e-12
    assert max(verify_svd(a, res)) <= 1e-12


@pytest.mark.parametrize("s", [(1, .5 + 5e-8, .5, .2), (1, .5, .2, 1.5e-7, 8e-8),
                               (1, .5, .2, 1.5e-7, 8e-8, 0)])
def test_close_clusters_raise_ill_conditioned_gap(s):
    # clusters 5e-8 or 7e-8 apart, below 10 tau = 1e-7; the cluster at zero,
    # here 8e-8 and 0, counts like any other
    n = len(s)
    rng = np.random.default_rng(n)
    a = DCMatrix(haar(rng, n) @ np.diag(s) @ haar(rng, n).conj().T, cgauss(rng, n, n))
    with pytest.raises(IllConditionedGap):
        dc_svd(a)


@pytest.mark.parametrize("seed", range(3))
def test_values_within_ten_tau_of_zero_join_the_zero_cluster(seed):
    # rank 4 plus noise: 5e-8 and 1e-10 lie below 10 tau = 1e-7, so they are
    # dropped with the cluster at zero instead of raising IllConditionedGap,
    # and the standard residual is their norm
    rng = np.random.default_rng(400 + seed)
    s = np.array([1, .5, .3, .2, 5e-8, 1e-10, 1e-10, 0])
    a = DCMatrix(haar(rng, 8) @ np.diag(s) @ haar(rng, 8).conj().T, cgauss(rng, 8, 8))
    res = dc_svd(a)
    assert res.standard_rank == standard_rank(a) == 4
    assert res.infinitesimal_rank == 4
    np.testing.assert_allclose(all_sigmas(res), s[:4], rtol=1e-12)
    rs, ri = verify_svd(a, res)
    assert rs == pytest.approx(np.linalg.norm(s[4:]), rel=1e-6)
    assert ri <= 1e-12 * dual_norm(a)


@pytest.mark.parametrize("seed", range(9201, 9211))
@pytest.mark.parametrize("m,n", [(96, 64), (64, 96)])
def test_rank32_at_scale(seed, m, n):
    # the construction of the benchmark's rank-32 inputs, which the Gram form
    # rejected with AccuracyError in youla_skew on the null cluster
    rng = np.random.default_rng(seed)
    rank, scale = 32, 4 * np.sqrt(32)
    g = cgauss(rng, m, rank) @ cgauss(rng, rank, n)
    a = DCMatrix(g * (scale / np.sqrt(rank)), cgauss(rng, m, n))
    res = dc_svd(a)
    assert res.standard_rank == rank
    assert res.infinitesimal_rank == min(m, n) - rank
    np.testing.assert_allclose(all_sigmas(res),
                               np.linalg.svd(a.standard, compute_uv=False)[:rank],
                               atol=1e-12 * dual_norm(a))
    assert max(verify_svd(a, res)) <= 1e-12 * dual_norm(a)


@pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_factor_defects_do_not_grow_with_kappa_squared(kappa):
    n = 64
    rng = np.random.default_rng(int(np.log10(kappa)))
    s = np.logspace(0, -np.log10(kappa), n)
    a = DCMatrix(haar(rng, n) @ np.diag(s) @ haar(rng, n).conj().T, cgauss(rng, n, n))
    res = dc_svd(a)
    assert res.standard_rank == n
    for f in (res.U, res.V):
        defect_st, defect_inf = unitarity_defect(f)
        assert defect_st <= 1e-12 * dual_norm(a)
        assert defect_inf <= 64 * n * EPS * np.linalg.norm(f.infinitesimal)


@pytest.mark.parametrize("seed", range(4))
def test_planted_coupled_clusters_match_gram_form(seed):
    blocks = (SingularBlock(3.0, .7), SingularBlock(3.0), SingularBlock(3.0, .4),
              SingularBlock(1.5), SingularBlock(1.0, .2))
    layout = assemble_layout(10, 9, blocks, (.9,))
    a = mat_mul(mat_mul(gen_random("unitary", 10, 10, 60 + seed), layout),
                conj_transpose(gen_random("unitary", 9, 9, 70 + seed)))
    got, ref = dc_svd(a), dc_svd_gram(a)
    # within a cluster, 1x1 blocks come first, then coupled ones by descending nu
    for res in (got, ref):
        assert (res.standard_rank, res.infinitesimal_rank) == (8, 1)
        assert [b.dim for b in res.standard_blocks] == [1, 2, 2, 1, 2]
        assert [b.sigma for b in res.standard_blocks] == pytest.approx(
            [3.0, 3.0, 3.0, 1.5, 1.0], abs=1e-12)
        assert [abs(b.nu) for b in res.standard_blocks if b.nu is not None] == pytest.approx(
            [.7, .4, .2], abs=1e-12)
        assert res.infinitesimal_values == pytest.approx((.9,), abs=1e-12)
    assert max(got.residual) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_graded_couplings_at_one_sigma_give_two_coupled_blocks(seed):
    # U (2 I + (J(1) + J(1e-9)) eps*j) V*: the coupling 1e-9 lies far below
    # the one at 1 within the cluster at sigma = 2
    layout = assemble_layout(4, 4, (SingularBlock(2.0, 1.0), SingularBlock(2.0, 1e-9)), ())
    a = mat_mul(mat_mul(gen_random("unitary", 4, 4, seed), layout),
                conj_transpose(gen_random("unitary", 4, 4, 10 + seed)))
    res = dc_svd(a)
    assert (res.standard_rank, res.infinitesimal_rank) == (4, 0)
    assert [b.dim for b in res.standard_blocks] == [2, 2]
    np.testing.assert_allclose([b.sigma for b in res.standard_blocks], 2.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose([abs(b.nu) for b in res.standard_blocks], [1.0, 1e-9],
                               rtol=0, atol=1e-13)
    assert max(res.residual) <= 1e-13


def test_no_herm_spectral_call(monkeypatch):
    calls = []
    original = spectral_mod.herm_spectral

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_mod, "herm_spectral", counting)
    monkeypatch.setattr(svd_mod, "herm_spectral", counting, raising=False)
    rng = np.random.default_rng(11)
    g = cgauss(rng, 12, 3) @ cgauss(rng, 3, 8)
    for a in (rand_dcmatrix(rng, 12, 8), rand_dcmatrix(rng, 8, 12),
              DCMatrix(g, cgauss(rng, 12, 8)), DCMatrix(np.eye(4), cgauss(rng, 4, 4))):
        dc_svd(a)
    assert calls == []


def test_corrupted_svd_raises_accuracy_error(monkeypatch):
    a = rand_dcmatrix(np.random.default_rng(12), 6, 5)
    svd = np.linalg.svd

    def corrupted(x, *args, **kwargs):
        out = svd(x, *args, **kwargs)
        if kwargs.get("compute_uv", True) and x.shape == (6, 5):
            p, s, qh = out
            p = p.copy()
            p[0, 0] += 1e-6
            return p, s, qh
        return out

    monkeypatch.setattr(svd_mod.np.linalg, "svd", corrupted)
    with pytest.raises(AccuracyError):
        dc_svd(a)
