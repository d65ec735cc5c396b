import numpy as np
import pytest

import dclinalg.spectral as spectral_mod
import dclinalg.svd as svd_mod
from conftest import cgauss, rand_dcmatrix
from dclinalg import (
    EPS_J,
    BadEigenspace,
    DCMatrix,
    DualComplex,
    IllConditionedGap,
    NotAppreciable,
    NotHermitian,
    NotOrthogonal,
    NotSkewSymmetric,
    SpectralBlock,
    UnknownEigenvalue,
    assemble_blocks,
    classify_multiplicity,
    component_norms,
    conj_transpose,
    dc_svd,
    double_eig_classify,
    from_scalars,
    gen_random,
    herm_spectral,
    identity,
    inner,
    is_pd,
    is_psd,
    is_unitary,
    mat_mul,
    subeigenpairs,
    verify_eigenpair,
    verify_spectral,
    verify_subeigenpair,
    youla_skew,
)
from oracle import herm_spectral_loop

EX2 = from_scalars([[1, EPS_J], [-EPS_J, 1]])


def rand_skew(rng, n):
    c = cgauss(rng, n, n)
    return (c - c.T) / 2


def canonical_skew(pairs, n):
    j = np.zeros((n, n), dtype=complex)
    for i, s in enumerate(pairs):
        j[2 * i, 2 * i + 1] = s
        j[2 * i + 1, 2 * i] = -s
    return j


def planted(blocks, seed):
    u = gen_random("unitary", sum(b.dim for b in blocks), sum(b.dim for b in blocks), seed)
    return mat_mul(mat_mul(u, assemble_blocks(blocks)), conj_transpose(u))


# ---------------------------------------------------------------- youla_skew

def test_youla_already_canonical():
    c = np.array([[0, 1], [-1, 0]], dtype=complex)
    q, pairs, null_dim = youla_skew(c)
    assert pairs == [1.0]
    assert null_dim == 0
    np.testing.assert_allclose(q.T @ c @ q, canonical_skew(pairs, 2), atol=1e-14)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-14)


def test_youla_zero_matrix():
    q, pairs, null_dim = youla_skew(np.zeros((3, 3)))
    assert pairs == [] and null_dim == 3
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-14)


def test_youla_random_matches_svd():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c = rand_skew(rng, 6)
        q, pairs, null_dim = youla_skew(c)
        assert 2 * len(pairs) + null_dim == 6
        # nonzero singular values come in equal pairs
        sv = np.linalg.svd(c, compute_uv=False)
        doubled = sorted(np.repeat(pairs, 2), reverse=True)
        np.testing.assert_allclose(doubled, sv[:len(doubled)], atol=1e-10)
        resid = np.linalg.norm(q.T @ c @ q - canonical_skew(pairs, 6))
        assert resid <= 1e-10 * (1 + np.linalg.norm(c))
        assert np.linalg.norm(q.conj().T @ q - np.eye(6)) <= 1e-12


def test_youla_odd_dimension_has_null_vector():
    rng = np.random.default_rng(1)
    c = rand_skew(rng, 5)
    q, pairs, null_dim = youla_skew(c)
    assert null_dim >= 1
    assert 2 * len(pairs) + null_dim == 5


def test_youla_repeated_singular_values():
    # block diagonal with two equal pair values: a 4-dimensional group
    c = canonical_skew([0.9, 0.9], 5)
    rng = np.random.default_rng(2)
    w, _ = np.linalg.qr(cgauss(rng, 5, 5))
    c = w.T @ c @ w  # wᵀ... transpose-congruence keeps skew-symmetry
    q, pairs, null_dim = youla_skew(c)
    assert null_dim == 1
    np.testing.assert_allclose(pairs, [0.9, 0.9], atol=1e-12)
    np.testing.assert_allclose(q.T @ c @ q, canonical_skew(pairs, 5), atol=1e-11)


def test_youla_rejects_non_skew():
    with pytest.raises(NotSkewSymmetric):
        youla_skew(np.eye(3))


# -------------------------------------------------------------- herm_spectral

def test_worked_hermitian_example():
    dec = herm_spectral(EX2)
    assert len(dec.blocks) == 1
    b = dec.blocks[0]
    assert b.kind == "Sub"
    assert b.lam == pytest.approx(1.0, abs=1e-12)
    assert abs(b.mu) == pytest.approx(1.0, abs=1e-12)
    assert is_unitary(dec.U)
    assert max(dec.residual) <= 1e-12


def test_identity_spectral():
    dec = herm_spectral(identity(4))
    assert all(b.kind == "Eigen" and b.lam == pytest.approx(1.0) for b in dec.blocks)
    assert len(dec.blocks) == 4
    np.testing.assert_allclose(dec.U.standard @ dec.U.standard.conj().T, np.eye(4),
                               atol=1e-14)


def test_random_round_trip():
    for seed in range(10):
        a = gen_random("hermitian", 6, 6, 300 + seed)
        dec = herm_spectral(a)
        assert sum(b.dim for b in dec.blocks) == 6
        assert max(dec.residual) <= 1e-9
        assert is_unitary(dec.U)
        assert max(verify_spectral(a, dec)) <= 1e-9
        # block values match the eigenvalues of the standard part
        lams = sorted([b.lam for b in dec.blocks for _ in range(b.dim)])
        np.testing.assert_allclose(lams, np.linalg.eigh(a.standard)[0], atol=1e-8)


def test_block_ordering():
    blocks = (SpectralBlock("Eigen", 2.0), SpectralBlock("Sub", 2.0, 1.5),
              SpectralBlock("Sub", 2.0, 0.5), SpectralBlock("Eigen", -1.0))
    a = planted(blocks, 17)
    dec = herm_spectral(a)
    kinds = [(b.kind, round(b.lam, 6)) for b in dec.blocks]
    assert kinds == [("Eigen", 2.0), ("Sub", 2.0), ("Sub", 2.0), ("Eigen", -1.0)]
    mus = [abs(b.mu) for b in dec.blocks if b.kind == "Sub"]
    assert mus == sorted(mus, reverse=True)


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_spectral(DCMatrix(np.eye(2), np.eye(2)))


def test_ill_conditioned_gap_aborts():
    a = DCMatrix(np.diag([1.0, 1.0 + 1e-7]).astype(complex))
    with pytest.raises(IllConditionedGap):
        herm_spectral(a)
    # a genuinely multiple eigenvalue clusters instead of aborting
    b = DCMatrix(np.diag([1.0, 1.0]).astype(complex))
    assert len(herm_spectral(b).blocks) == 2


def test_regular_case_diagonalizes():
    # distinct eigenvalues: all blocks 1x1 and the assembled sigma is real diagonal
    a = gen_random("hermitian", 5, 5, 12)
    dec = herm_spectral(a)
    assert all(b.kind == "Eigen" for b in dec.blocks)
    sig = dec.sigma()
    assert np.linalg.norm(sig.infinitesimal) == 0
    assert np.linalg.norm(sig.standard - np.real(sig.standard)) == 0
    r = mat_mul(mat_mul(conj_transpose(dec.U), a), dec.U) - sig
    assert max(component_norms(r)) <= 1e-9
    for pos, b in enumerate(dec.blocks):
        rs, ri = verify_eigenpair(a, DualComplex(b.lam), dec.U.column(pos))
        assert max(rs, ri) <= 1e-10


def test_planted_round_trip():
    blocks = (SpectralBlock("Eigen", 3.0), SpectralBlock("Eigen", 3.0),
              SpectralBlock("Sub", 3.0, 0.7 + 0.4j), SpectralBlock("Sub", 1.0, -1.3 + 0.2j),
              SpectralBlock("Eigen", -2.0))
    a = planted(blocks, 23)
    dec = herm_spectral(a)
    got = [(b.kind, round(b.lam, 7), None if b.mu is None else round(abs(b.mu), 7))
           for b in dec.blocks]
    assert got == [("Eigen", 3.0, None), ("Eigen", 3.0, None),
                   ("Sub", 3.0, round(abs(0.7 + 0.4j), 7)),
                   ("Sub", 1.0, round(abs(-1.3 + 0.2j), 7)), ("Eigen", -2.0, None)]
    assert max(dec.residual) <= 1e-9


# ------------------------------------------- array form against the loop form

def level_sizes(kind, n, rng):
    """Sizes of the eigenvalue levels of a planted spectrum of dimension n."""
    if kind == "distinct":
        return [1] * n
    if kind == "clustered":
        size = min(n, 8)
        return [size] * (n // size)
    if kind == "one-cluster":
        return [n]
    sizes = []  # mixed: singletons between clusters of two to five
    while sum(sizes) < n:
        sizes.append(min(int(rng.choice([1, 1, 1, 2, 3, 5])), n - sum(sizes)))
    return sizes


def planted_levels(kind, n, seed):
    """Planted Hermitian matrix and its level sizes; a level of size s >= 2
    holds one Sub block and s - 2 Eigen blocks."""
    rng = np.random.default_rng(seed)
    sizes = level_sizes(kind, n, rng)
    lams = np.linspace(2.0, -2.0, len(sizes)) + rng.uniform(-0.1, 0.1, len(sizes)) / len(sizes)
    blocks = []
    for size, lam in zip(sizes, lams):
        if size == 1:
            blocks.append(SpectralBlock("Eigen", float(lam)))
        else:
            mu = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            blocks.append(SpectralBlock("Sub", float(lam), mu))
            blocks.extend(SpectralBlock("Eigen", float(lam)) for _ in range(size - 2))
    return planted(tuple(blocks), seed), sizes


def assert_matches_loop_form(got, ref, sizes):
    """The array form against the loop form on a spectrum with these level sizes.

    Blocks and the columns of 1x1 clusters come out equal entry for entry.
    A multi-member cluster's columns are one product with its W block, which
    the loop form takes inside a product with the whole block-diagonal W;
    BLAS may round those two differently in the last bit, unless the matrix
    is one cluster and the products are the same.
    """
    eps = np.finfo(float).eps
    assert got.blocks == ref.blocks
    single = np.repeat(np.array(sizes) == 1, sizes)
    exact = single.all() or len(sizes) == 1
    for part in ("standard", "infinitesimal"):
        g, r = getattr(got.U, part), getattr(ref.U, part)
        np.testing.assert_array_equal(g[:, single], r[:, single])
        if exact:
            np.testing.assert_array_equal(g, r)
        else:
            np.testing.assert_allclose(g, r, rtol=0,
                                       atol=8 * eps * max(1.0, float(np.abs(r).max())))
    if exact:
        assert got.residual == ref.residual
    else:
        np.testing.assert_allclose(got.residual, ref.residual, rtol=0, atol=64 * eps)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", ["distinct", "clustered", "mixed"])
def test_array_form_matches_loop_form(kind, n):
    for seed in range(3):
        a, sizes = planted_levels(kind, n, 700 + 10 * n + seed)
        assert_matches_loop_form(herm_spectral(a), herm_spectral_loop(a), sizes)


def test_array_form_matches_loop_form_on_one_cluster():
    a, sizes = planted_levels("one-cluster", 12, 790)
    dec = herm_spectral(a)
    assert len({b.lam for b in dec.blocks}) == 1 and len(dec.blocks) == 11
    assert_matches_loop_form(dec, herm_spectral_loop(a), sizes)


def test_youla_skew_skips_one_by_one_clusters(monkeypatch):
    calls = []

    def counting(c, tol=spectral_mod.DEFAULT_TOL):
        calls.append(c.shape[0])
        return youla_skew(c, tol)

    monkeypatch.setattr(spectral_mod, "youla_skew", counting)
    herm_spectral(gen_random("hermitian", 64, 64, 41))
    assert calls == []
    for kind in ("clustered", "mixed"):
        a, sizes = planted_levels(kind, 64, 42)
        calls.clear()
        herm_spectral(a)
        assert calls == [s for s in sizes if s > 1]


@pytest.mark.parametrize("shape", [(12, 8), (8, 12)])
def test_svd_matches_loop_form(monkeypatch, shape):
    a = rand_dcmatrix(np.random.default_rng(43), *shape)
    got = dc_svd(a)
    monkeypatch.setattr(svd_mod, "herm_spectral", herm_spectral_loop)
    ref = dc_svd(a)
    for got_f, ref_f in ((got.U, ref.U), (got.V, ref.V)):
        np.testing.assert_array_equal(got_f.standard, ref_f.standard)
        np.testing.assert_array_equal(got_f.infinitesimal, ref_f.infinitesimal)
    assert got.standard_blocks == ref.standard_blocks
    assert got.infinitesimal_values == ref.infinitesimal_values
    assert got.residual == ref.residual


# --------------------------------------------------- subeigenpair verification

def test_subeigenpair_worked_example():
    # lam = 1, mu = -1, x = e1 (its infinitesimal part solves the lift exactly
    # with zero), y = e2
    x = from_scalars([[1], [0]])
    y = from_scalars([[0], [1]])
    assert verify_subeigenpair(EX2, 1.0, -1.0, x, y) == (0.0, 0.0)


def test_subeigenpair_zero_mu_degenerates_to_eigenpairs():
    a = identity(2)
    x = from_scalars([[1], [0]])
    y = from_scalars([[0], [1]])
    assert verify_subeigenpair(a, 1.0, 0.0, x, y) == (0.0, 0.0)
    rx = verify_eigenpair(a, DualComplex(1.0), x)
    ry = verify_eigenpair(a, DualComplex(1.0), y)
    assert verify_subeigenpair(a, 1.0, 0.0, x, y) == (max(rx[0], ry[0]), max(rx[1], ry[1]))


def test_subeigenpair_columns_of_decomposition():
    for seed in range(5):
        blocks = (SpectralBlock("Sub", 2.0, 1.1), SpectralBlock("Eigen", -3.0))
        a = planted(blocks, 600 + seed)
        dec = herm_spectral(a)
        subs = subeigenpairs(dec)
        assert len(subs) == 1
        lam, mu, x, y = subs[0]
        assert max(verify_subeigenpair(a, lam, mu, x, y)) <= 1e-10


def test_subeigenpair_precondition_errors():
    x = from_scalars([[1], [0]])
    y = from_scalars([[0], [1]])
    bad = DCMatrix(np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(NotAppreciable):
        verify_subeigenpair(EX2, 1.0, 1.0, bad, y)
    with pytest.raises(NotOrthogonal):
        verify_subeigenpair(EX2, 1.0, 1.0, x, x)


# ----------------------------------------------------------- double eigenvalue

def test_double_eig_classify_worked_example():
    res = double_eig_classify(EX2, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert res.kind == "DoubleSub"
    assert res.mu == pytest.approx(-1.0)
    # the completed subeigenvectors satisfy the pair equations
    x = DCMatrix(np.array([[1.0], [0.0]]), res.x_inf[:, None])
    y = DCMatrix(np.array([[0.0], [1.0]]), res.y_inf[:, None])
    assert max(verify_subeigenpair(EX2, res.lam, res.mu, x, y)) <= 1e-12


def test_double_eig_classify_zero_infinitesimal():
    rng = np.random.default_rng(3)
    w, _ = np.linalg.qr(cgauss(rng, 4, 4))
    a_st = w @ np.diag([2.0, 2.0, -1.0, 0.5]) @ w.conj().T
    a = DCMatrix((a_st + a_st.conj().T) / 2)
    res = double_eig_classify(a, w[:, 0], w[:, 1])
    assert res.kind == "DoubleEigen"
    assert abs(res.mu) <= 1e-12


def test_double_eig_classify_basis_invariance():
    rng = np.random.default_rng(4)
    w, _ = np.linalg.qr(cgauss(rng, 5, 5))
    a_st = w @ np.diag([1.5, 1.5, -1.0, 0.25, 3.0]) @ w.conj().T
    a = DCMatrix((a_st + a_st.conj().T) / 2, rand_skew(rng, 5))
    base = double_eig_classify(a, w[:, 0], w[:, 1])
    for _ in range(20):
        z, _ = np.linalg.qr(cgauss(rng, 2, 2))
        xy = np.column_stack([w[:, 0], w[:, 1]]) @ z
        res = double_eig_classify(a, xy[:, 0], xy[:, 1])
        assert res.kind == base.kind
        assert abs(abs(res.mu) - abs(base.mu)) <= 1e-10


def test_double_eig_classify_bad_inputs():
    rng = np.random.default_rng(5)
    w, _ = np.linalg.qr(cgauss(rng, 4, 4))
    a_st = w @ np.diag([2.0, 2.0, -1.0, 0.5]) @ w.conj().T
    a = DCMatrix((a_st + a_st.conj().T) / 2, rand_skew(rng, 4))
    with pytest.raises(BadEigenspace):
        double_eig_classify(a, w[:, 0], w[:, 0])  # not orthogonal
    with pytest.raises(BadEigenspace):
        double_eig_classify(a, w[:, 0], w[:, 2])  # different eigenvalues
    with pytest.raises(NotHermitian):
        double_eig_classify(DCMatrix(np.eye(4), np.eye(4)), w[:, 0], w[:, 1])


# ------------------------------------------------------- counting and classify

def test_classify_multiplicity():
    dec = herm_spectral(EX2)
    assert classify_multiplicity(dec, 1.0) == (2, 1)
    dec_i = herm_spectral(identity(5))
    assert classify_multiplicity(dec_i, 1.0) == (5, 0)
    blocks = (SpectralBlock("Eigen", 4.0), SpectralBlock("Eigen", 4.0),
              SpectralBlock("Sub", 4.0, 1.0), SpectralBlock("Eigen", 0.5))
    dec_p = herm_spectral(planted(blocks, 31))
    assert classify_multiplicity(dec_p, 4.0) == (4, 1)
    assert classify_multiplicity(dec_p, 0.5) == (1, 0)
    with pytest.raises(UnknownEigenvalue):
        classify_multiplicity(dec_p, 9.0)


def test_definiteness():
    assert is_pd(EX2)
    assert is_psd(EX2)
    z = DCMatrix(np.zeros((3, 3)))
    assert is_psd(z) and not is_pd(z)
    with pytest.raises(NotHermitian):
        is_psd(DCMatrix(np.eye(2), np.eye(2)))


def test_psd_quadratic_form():
    rng = np.random.default_rng(6)
    a = gen_random("psd", 4, 4, 9)
    assert is_psd(a)
    for _ in range(10):
        x = rand_dcmatrix(rng, 4, 1)
        val = inner(x, mat_mul(a, x))
        assert val.standard.real >= -1e-10
        assert abs(val.standard.imag) <= 1e-10
        assert abs(val.infinitesimal) <= 1e-10
