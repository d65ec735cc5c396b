import numpy as np
import pytest

import dclinalg.spectral as spectral_mod
import oracle
from conftest import cgauss, rand_dcmatrix
from dclinalg import (
    EPS_J,
    AccuracyError,
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
    complex_right_eigs,
    component_norms,
    conj_transpose,
    dc_svd,
    double_eig_classify,
    dual_right_eigs,
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
from dclinalg.matrix import _hermitian_halves
from oracle import dc_svd_gram, herm_spectral_loop, sub_count

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


# ------------------------------- pairing by projection against the deflation form

def congruent_skew(pairs, n, seed):
    """Q^T J Q for the canonical J of pairs and a seeded random unitary Q."""
    q = gen_random("unitary", n, n, seed).standard
    return q.T @ canonical_skew(pairs, n) @ q


def assert_matches_deflation(c):
    """Pairs within 1e-12 s_1 of the deflation form's, and youla_skew's own checks."""
    q, pairs, null_dim = youla_skew(c)
    _, ref_pairs, ref_null = oracle.youla_skew_deflation(c)
    n = c.shape[0]
    s1 = max(ref_pairs, default=0.0)
    assert null_dim == ref_null and len(pairs) == len(ref_pairs)
    np.testing.assert_allclose(pairs, ref_pairs, rtol=0, atol=1e-12 * s1)
    bound = spectral_mod.DEFAULT_TOL.resid_tol * (1 + np.linalg.norm(c))
    assert np.linalg.norm(q.T @ c @ q - canonical_skew(pairs, n)) <= bound
    assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= bound
    return pairs


@pytest.mark.parametrize("k", [4, 8, 32, 128])
def test_youla_equal_pairs_match_deflation(k):
    pairs = assert_matches_deflation(congruent_skew([1.0] * (k // 2), k, 900 + k))
    np.testing.assert_allclose(pairs, 1.0, rtol=0, atol=1e-12)


def test_youla_mixed_multiplicities_match_deflation():
    # singular values (3, 3, 1, 1, 1, 1) and a null block of three
    for seed in range(5):
        c = congruent_skew([3.0, 1.0, 1.0], 9, 910 + seed)
        pairs = assert_matches_deflation(c)
        np.testing.assert_allclose(pairs, [3.0, 1.0, 1.0], rtol=0, atol=3e-12)


def test_youla_groups_of_two_are_bit_identical_to_deflation():
    rng = np.random.default_rng(920)
    for n in range(2, 11):
        c = rand_skew(rng, n)
        q, pairs, null_dim = youla_skew(c)
        ref_q, ref_pairs, ref_null = oracle.youla_skew_deflation(c)
        assert q.tobytes() == ref_q.tobytes()
        assert pairs == ref_pairs and null_dim == ref_null
    # sixteen 8 x 8 blocks of one pair each, the stack of a clustered
    # n = 128 herm_spectral call with levels of eight
    c = np.stack([congruent_skew([rng.uniform(0.5, 1.5)], 8, 921 + i) for i in range(16)])
    q, pairs, null_dims = spectral_mod._youla_stack(c, spectral_mod.DEFAULT_TOL)
    ref_q, ref_pairs, ref_null = oracle.youla_skew_deflation(c)
    assert null_dims.tolist() == ref_null.tolist() == [6] * 16
    for j in range(16):
        assert q[j].tobytes() == ref_q[j].tobytes()
        assert pairs[j] == ref_pairs[j] and len(pairs[j]) == 1


def kron_ex2(m, seed):
    """kron(EX2, I_m) under a seeded unitary similarity: one cluster of 2m equal pairs."""
    a = DCMatrix(np.kron(EX2.standard, np.eye(m)), np.kron(EX2.infinitesimal, np.eye(m)))
    w = gen_random("unitary", 2 * m, 2 * m, seed)
    return mat_mul(mat_mul(conj_transpose(w), a), w)


@pytest.mark.parametrize("m", [2, 4, 16])
def test_kron_ex2_matches_deflation_through_both_decompositions(monkeypatch, m):
    a = kron_ex2(m, 930 + m)
    dec, res = herm_spectral(a), dc_svd(a)
    reached = []

    def deflation(c, tol):
        reached.append(c.shape)
        return oracle.youla_skew_deflation(c, tol)

    monkeypatch.setattr(spectral_mod, "_youla_stack", deflation)
    ref_dec, ref_res = herm_spectral(a), dc_svd(a)
    # the one cluster of each decomposition went through the deflation form
    assert reached == [(1, 2 * m, 2 * m)] * 2
    assert [b.kind for b in dec.blocks] == ["Sub"] * m
    np.testing.assert_allclose([b.mu for b in dec.blocks], [b.mu for b in ref_dec.blocks],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose([b.mu for b in dec.blocks], 1.0, rtol=0, atol=1e-12)
    assert [b.dim for b in res.standard_blocks] == [2] * m
    np.testing.assert_allclose([b.nu for b in res.standard_blocks],
                               [b.nu for b in ref_res.standard_blocks], rtol=0, atol=1e-12)
    assert max(verify_spectral(a, dec)) <= 1e-12
    assert max(max(res.residual), max(verify_spectral(a, ref_dec))) <= 1e-12


def test_youla_makes_one_svd_call_on_a_group_of_eight(monkeypatch):
    c = congruent_skew([1.0] * 4, 8, 940)
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    youla_skew(c)
    assert len(calls) == 1


def test_youla_raises_when_a_group_span_runs_out(monkeypatch):
    # a group of four whose columns of U all repeat one vector span too
    # little for a second pair
    c = congruent_skew([1.0, 1.0], 4, 950)
    svd = np.linalg.svd

    def collapsed(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return np.repeat(u[:, :1], 4, axis=1), s, vh

    monkeypatch.setattr(np.linalg, "svd", collapsed)
    with pytest.raises(AccuracyError, match="span ran out"):
        youla_skew(c)


def test_youla_raises_when_a_group_span_runs_out_after_a_pair(monkeypatch):
    # a group of four whose columns of U repeat two, and a V that pairs the
    # first with the second: the first pair takes all of their span
    c = congruent_skew([1.0, 1.0], 4, 950)
    svd = np.linalg.svd

    def two_columns(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return np.tile(u[:, :2], 2), s, np.outer([0, 1, 0, 0], u[:, 0])

    monkeypatch.setattr(np.linalg, "svd", two_columns)
    with pytest.raises(AccuracyError, match="span ran out"):
        youla_skew(c)


# ------------------------------------------ the stacked core, block by block

def kron_ex2_skew(seed):
    """The skew block herm_spectral hands the stacked core for kron(EX2, I_3): a group of six."""
    seen = []
    youla_stack = spectral_mod._youla_stack

    def recording(c, tol):
        seen.append(c[0].copy())
        return youla_stack(c, tol)

    spectral_mod._youla_stack = recording
    try:
        herm_spectral(kron_ex2(3, seed))
    finally:
        spectral_mod._youla_stack = youla_stack
    return seen[0]


def mixed_blocks(seed):
    """Skew 6 x 6 blocks: one pair, a group of four, a group of six, zero, rank four."""
    rank_four = rand_skew(np.random.default_rng(seed), 6)
    p = gen_random("unitary", 6, 6, seed + 1).standard[:, :4]
    return [congruent_skew([0.7], 6, seed), congruent_skew([1.0, 1.0], 6, seed + 2),
            kron_ex2_skew(seed + 3), np.zeros((6, 6), dtype=complex),
            p.conj() @ (p.T @ rank_four @ p) @ p.conj().T]


@pytest.mark.parametrize("seed", [960, 970, 980])
def test_stacked_blocks_are_bit_identical_to_youla_skew(seed):
    blocks = mixed_blocks(seed)
    singles = [youla_skew(b) for b in blocks]
    assert [2 * len(pairs) for _, pairs, _ in singles] == [2, 4, 6, 0, 4]
    order = np.random.default_rng(seed).permutation(np.tile(np.arange(len(blocks)), 2))
    q, pairs, null_dims = spectral_mod._youla_stack(
        np.stack([blocks[i] for i in order]), spectral_mod.DEFAULT_TOL)
    assert q.shape == (order.size, 6, 6)
    for j, i in enumerate(order.tolist()):
        ref_q, ref_pairs, ref_null = singles[i]
        assert q[j].tobytes() == ref_q.tobytes()
        assert pairs[j] == ref_pairs and null_dims[j] == ref_null


def two_wide_groups(seed):
    """Skew 15 x 15: groups of four, eight and two equal singular values, one null column."""
    return congruent_skew([2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5], 15, 1000 + seed)


def test_two_wide_groups_in_one_block_match_deflation():
    for seed in range(5):
        pairs = assert_matches_deflation(two_wide_groups(seed))
        np.testing.assert_allclose(pairs, [2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5], rtol=0, atol=3e-12)


def test_two_wide_groups_stacked_with_others_are_bit_identical_to_youla_skew():
    # the groups of four and eight pair off in two passes, one per group
    # width, that write into the same Q; the padded 6 x 6 blocks bring
    # groups of two, four and six into the same passes
    blocks = [two_wide_groups(seed) for seed in range(3)]
    blocks += [np.pad(b, ((0, 9), (0, 9))) for b in mixed_blocks(960)]
    singles = [youla_skew(b) for b in blocks]
    assert [2 * len(pairs) for _, pairs, _ in singles] == [14] * 3 + [2, 4, 6, 0, 4]
    order = np.random.default_rng(1000).permutation(len(blocks))
    q, pairs, null_dims = spectral_mod._youla_stack(
        np.stack([blocks[i] for i in order]), spectral_mod.DEFAULT_TOL)
    for j, i in enumerate(order.tolist()):
        ref_q, ref_pairs, ref_null = singles[i]
        assert q[j].tobytes() == ref_q.tobytes()
        assert pairs[j] == ref_pairs and null_dims[j] == ref_null


def test_stack_with_one_non_skew_block_raises():
    blocks = mixed_blocks(990)
    blocks[2] = blocks[2] + np.eye(6)
    with pytest.raises(NotSkewSymmetric, match="not skew-symmetric"):
        spectral_mod._youla_stack(np.stack(blocks), spectral_mod.DEFAULT_TOL)


def collapsed_columns(u):
    """U's columns all one vector: a group of four spans too little for a second pair."""
    return np.repeat(u[:, :1], u.shape[1], axis=1)


@pytest.mark.parametrize("target", [0, 2])
def test_stack_with_one_group_span_running_out_raises_as_the_single_call(monkeypatch, target):
    blocks = [congruent_skew([1.0, 1.0], 4, 950), congruent_skew([0.5], 4, 951),
              congruent_skew([2.0, 1.0], 4, 952)]
    blocks[0], blocks[target] = blocks[target], blocks[0]
    svd = np.linalg.svd

    def collapsing(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        if u.ndim == 2:
            return collapsed_columns(u), s, vh
        u = u.copy()
        u[target] = collapsed_columns(u[target])
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", collapsing)
    with pytest.raises(AccuracyError) as single:
        youla_skew(blocks[target])
    with pytest.raises(AccuracyError) as stacked:
        spectral_mod._youla_stack(np.stack(blocks), spectral_mod.DEFAULT_TOL)
    assert str(stacked.value) == str(single.value) == "group span ran out before it paired off"


def svd_with_u(change):
    """np.linalg.svd with change applied to its U."""
    svd = np.linalg.svd

    def changed(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        return change(u), s, vh
    return changed


def pair_blocks():
    """Skew 5 x 5 blocks of two pairs and one null column: groups of two only."""
    return [congruent_skew([2.0, 1.0], 5, 1310 + seed) for seed in range(2)]


def test_youla_raises_when_u_is_not_the_singular_basis(monkeypatch):
    # U turned by column phases is unitary, and each group's span is C's,
    # so pairing goes through; but its y is J x up to a phase
    phases = np.exp(2j * np.pi * np.random.default_rng(1320).uniform(size=5))
    monkeypatch.setattr(np.linalg, "svd", svd_with_u(lambda u: u * phases))
    blocks = pair_blocks()
    for c in (blocks[0], np.stack(blocks)):
        with pytest.raises(AccuracyError, match="^congruence residual exceeded tolerance$"):
            spectral_mod._youla_stack(c, spectral_mod.DEFAULT_TOL)


def test_youla_raises_when_its_factor_is_not_unitary(monkeypatch):
    # U scaled by 1 + 1e-6 scales Q's x columns and null columns alike: the
    # canonical values absorb the scale, and only unitarity fails
    monkeypatch.setattr(np.linalg, "svd", svd_with_u(lambda u: u * (1 + 1e-6)))
    blocks = pair_blocks()
    for c in (blocks[0], np.stack(blocks)):
        with pytest.raises(AccuracyError, match="^computed congruence factor is not unitary$"):
            spectral_mod._youla_stack(c, spectral_mod.DEFAULT_TOL)


# --------------------------------- a small pair beside a large one (graded)

def assert_youla_checks(c, q, pairs):
    """youla_skew's congruence and unitarity, by plain numpy against its bound."""
    n = c.shape[0]
    bound = spectral_mod.DEFAULT_TOL.resid_tol * (1 + np.linalg.norm(c))
    assert np.linalg.norm(q.T @ c @ q - canonical_skew(pairs, n)) <= bound
    assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= bound


@pytest.mark.parametrize("t", [1e-7, 1e-9, 1e-11])
def test_youla_pairs_a_small_value_apart_from_a_large_one(t):
    # pairing through C itself carried the rounding of the pair at 1 into
    # the pair at t, and the congruence check raised
    for seed in range(4):
        c = congruent_skew([1.0, t], 5, seed)
        q, pairs, null_dim = youla_skew(c)
        assert null_dim == 1
        np.testing.assert_allclose(pairs, [1.0, t], rtol=0, atol=1e-14)
        assert_youla_checks(c, q, pairs)


def test_youla_small_group_of_four_beside_a_large_pair():
    # the group at 1e-9 spreads by about eps s_1 over its computed values, so
    # its pairing map squares to -1 only to 1e-7, and the second pair's y
    # leaked onto the first pair until it was projected off it, in youla_skew
    # and in the deflation reference alike
    for seed in range(10):
        c = congruent_skew([1.0, 1e-9, 1e-9], 7, seed)
        q, pairs, null_dim = youla_skew(c)
        assert null_dim == 1
        np.testing.assert_allclose(pairs, [1.0, 1e-9, 1e-9], rtol=0, atol=1e-12)
        assert_youla_checks(c, q, pairs)
        assert_matches_deflation(c)
        dec = herm_spectral(DCMatrix(np.eye(7), c))
        assert sorted(b.kind for b in dec.blocks) == ["Eigen", "Sub", "Sub", "Sub"]


def test_youla_pair_at_the_null_cut_is_kept_or_dropped_whole():
    # t = 1e-12 is the null cutoff of a 5 x 5 C with s_1 = 1: rounding puts
    # the pair's mean on either side of it, and the pair goes whole
    for seed in range(12):
        c = congruent_skew([1.0, 1e-12], 5, seed)
        q, pairs, null_dim = youla_skew(c)
        assert 2 * len(pairs) + null_dim == 5
        np.testing.assert_allclose(pairs, [1.0, 1e-12][:len(pairs)], rtol=0, atol=1e-14)
        assert_youla_checks(c, q, pairs)


def graded_hermitian(seed):
    """W (I + (J(1) + J(1e-9)) eps*j) W*, Hermitian parts taken: one level, two Subs."""
    a = planted([SpectralBlock("Sub", 1.0, 1.0), SpectralBlock("Sub", 1.0, 1e-9)], seed)
    return DCMatrix((a.standard + a.standard.conj().T) / 2,
                    (a.infinitesimal - a.infinitesimal.T) / 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_graded_couplings_on_one_level_give_two_sub_blocks(seed):
    a = graded_hermitian(seed)
    dec = herm_spectral(a)
    assert [b.kind for b in dec.blocks] == ["Sub", "Sub"]
    np.testing.assert_allclose([b.lam for b in dec.blocks], 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose([abs(b.mu) for b in dec.blocks], [1.0, 1e-9], rtol=0, atol=1e-13)
    pu, pu_star = oracle.phi(dec.U), oracle.phi(conj_transpose(dec.U))
    sigma = oracle.phi(assemble_blocks(dec.blocks))
    assert np.linalg.norm(pu_star @ oracle.phi(a) @ pu - sigma) <= 1e-13
    assert np.linalg.norm(pu_star @ pu - np.eye(8)) <= 1e-13


# ------------------------------------------------------ the clustering rule

_clusters = spectral_mod._clusters


def test_clusters_of_no_values():
    starts, sizes, reps = _clusters(np.zeros(0), 0, 0.1, 0.0, "singular value")
    assert starts.size == sizes.size == reps.size == 0


def test_clusters_of_one_cluster():
    vals = np.array([1.0, 0.95, 0.9])
    starts, sizes, reps = _clusters(vals, 3, 0.06, -np.inf, "eigenvalue")
    assert starts.tolist() == [0] and sizes.tolist() == [3]
    assert reps.tolist() == [np.mean(vals)]


def test_clusters_chain_through_a_drop_of_exactly_tau():
    # dyadic values: each drop is exactly tau = 0.25
    starts, sizes, reps = _clusters(np.array([1.0, 0.75, 0.5]), 3, 0.25, -np.inf,
                                    "eigenvalue")
    assert sizes.tolist() == [3] and reps.tolist() == [0.75]


def test_clusters_need_a_gap_of_ten_tau():
    tau = 0.0625  # 10 tau = 0.625 exactly
    starts, sizes, reps = _clusters(np.array([1.0, 0.375]), 2, tau, -np.inf, "eigenvalue")
    assert starts.tolist() == [0, 1] and reps.tolist() == [1.0, 0.375]
    short = np.array([np.nextafter(1.0, 0.0), 0.375])
    assert short[0] - short[1] < 10 * tau
    with pytest.raises(IllConditionedGap, match="separated by 6.250e-01 < 6.250e-01"):
        _clusters(short, 2, tau, -np.inf, "eigenvalue")


def test_last_cluster_stands_clear_of_below_or_the_next_value():
    vals = np.array([1.0, 0.05])
    with pytest.raises(IllConditionedGap, match="singular value clusters separated by 5.000e-02"):
        _clusters(vals, 2, 0.01, 0.0, "singular value")
    assert _clusters(vals, 2, 0.01, -np.inf, "eigenvalue")[1].tolist() == [1, 1]
    # past count, the next value stands in for below
    assert _clusters(np.array([1.0, 0.5, 1e-9]), 2, 0.01, 0.0, "singular value")[1].size == 2
    with pytest.raises(IllConditionedGap, match="separated by 5.000e-02"):
        _clusters(np.array([1.0, 0.5, 0.45]), 2, 0.01, 0.0, "singular value")


@pytest.mark.parametrize("descending_view", [False, True])
def test_cluster_means_per_size_equal_np_mean_per_cluster(descending_view):
    # numpy's pairwise sum changes its order above 8 and above 128 terms;
    # herm_spectral's values are eigh's, reversed as a view
    rng = np.random.default_rng(1330)
    sizes = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 130] * 2
    rng.shuffle(sizes)
    tau = 1e-3
    levels = np.linspace(60.0, -60.0, len(sizes))
    vals = np.concatenate([lvl - np.cumsum(rng.uniform(0, tau, size)) for lvl, size
                           in zip(levels, sizes)])
    if descending_view:
        vals = vals[::-1].copy()[::-1]
    starts, got, reps = _clusters(vals, vals.size, tau, -np.inf, "eigenvalue")
    assert got.tolist() == sizes
    for start, size, rep in zip(starts.tolist(), sizes, reps.tolist()):
        assert rep == np.mean(vals[start:start + size])


def test_gap_messages_name_the_values_of_each_caller():
    with pytest.raises(IllConditionedGap, match="^distinct eigenvalue clusters separated by"):
        herm_spectral(DCMatrix(np.diag([1.0, 1.0 + 3e-8]).astype(complex)))
    with pytest.raises(IllConditionedGap,
                       match="^distinct singular value clusters separated by"):
        dc_svd(DCMatrix(np.diag([1.0, 1.0 - 3e-8]).astype(complex)))


def youla_groups_loop(s, k, tau_pair):
    """The loop youla_skew grouped its singular values with before _chain."""
    groups = []
    start = 0
    for i in range(1, k):
        if s[i - 1] - s[i] > tau_pair:
            groups.append((start, i))
            start = i
    if k:
        groups.append((start, k))
    return groups


def test_youla_grouping_matches_loop_form_on_ties():
    tau_pair = 2.0 ** -40
    rng = np.random.default_rng(61)
    for _ in range(50):
        # steps of exactly tau_pair, just above it, and far above it
        steps = rng.choice([0.0, tau_pair, 2 * tau_pair, 2.0 ** -20], size=12)
        s = 1.0 - np.concatenate([[0.0], np.cumsum(steps[1:])])
        for k in (0, 1, 7, 12):
            starts, ends = spectral_mod._chain(s[:k], tau_pair)
            got = list(zip(starts.tolist(), ends.tolist()))
            assert got == youla_groups_loop(s, k, tau_pair)


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
    # the right eigenpairs of Hermitian input, complex ones included, come
    # from herm_spectral and abort with it
    for routine in (herm_spectral, complex_right_eigs, dual_right_eigs):
        with pytest.raises(IllConditionedGap):
            routine(a)
    # a genuinely multiple eigenvalue clusters instead of aborting
    b = DCMatrix(np.diag([1.0, 1.0]).astype(complex))
    assert len(herm_spectral(b).blocks) == 2


def test_regular_case_diagonalizes():
    # distinct eigenvalues: all blocks 1x1 and the assembled sigma is real diagonal
    a = gen_random("hermitian", 5, 5, 12)
    dec = herm_spectral(a)
    assert all(b.kind == "Eigen" for b in dec.blocks)
    sig = assemble_blocks(dec.blocks)
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


def assert_matches_loop_form(got, ref):
    """The array form against the loop form: blocks, U and residual, entry for entry.

    The loop form forms each product at the width herm_spectral does, so
    BLAS rounds both alike: each cluster's block from the one product with
    the columns of every multi-member cluster, and each cluster's columns
    of X by their own product with its W block.  U_I = -X P then agrees in
    every column, since X does.
    """
    assert got.blocks == ref.blocks
    for part in ("standard", "infinitesimal"):
        np.testing.assert_array_equal(getattr(got.U, part), getattr(ref.U, part))
    assert got.residual == ref.residual


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", ["distinct", "clustered", "mixed"])
def test_array_form_matches_loop_form(kind, n):
    for seed in range(3):
        a, _ = planted_levels(kind, n, 700 + 10 * n + seed)
        assert_matches_loop_form(herm_spectral(a), herm_spectral_loop(a))


def test_array_form_matches_loop_form_on_one_cluster():
    a, _ = planted_levels("one-cluster", 12, 790)
    dec = herm_spectral(a)
    assert len({b.lam for b in dec.blocks}) == 1 and len(dec.blocks) == 11
    assert_matches_loop_form(dec, herm_spectral_loop(a))


@pytest.mark.parametrize("seed", [730, 731, 732])
def test_one_stack_with_three_null_dimensions_matches_loop_form(monkeypatch, seed):
    # three levels of six carrying 0, 1 and 2 Sub blocks: one stack of
    # three 6 x 6 blocks with null dimensions 6, 4 and 2, whose columns
    # _canonical_blocks rolls by 0, 2 and 4
    rng = np.random.default_rng(seed)
    blocks = []
    for lam, subs in ((2.0, 0), (0.0, 1), (-2.0, 2)):
        mus = sorted(rng.uniform(0.5, 1.5, subs), reverse=True)
        blocks += [SpectralBlock("Sub", lam, mu * np.exp(2j * np.pi * rng.uniform())) for mu in mus]
        blocks += [SpectralBlock("Eigen", lam)] * (6 - 2 * subs)
    a = planted(tuple(blocks), seed)
    seen = []
    youla_stack = spectral_mod._youla_stack

    def recording(c, tol):
        out = youla_stack(c, tol)
        seen.append((c.shape, out[2].tolist()))
        return out

    monkeypatch.setattr(spectral_mod, "_youla_stack", recording)
    dec = herm_spectral(a)
    assert seen == [((3, 6, 6), [6, 4, 2])]
    assert [b.kind for b in dec.blocks].count("Sub") == 3 and len(dec.blocks) == 15
    assert_matches_loop_form(dec, herm_spectral_loop(a))


def test_youla_skew_skips_one_by_one_clusters(monkeypatch):
    # the stacked core sees no 1x1 block, every multi-member cluster once,
    # and takes one np.linalg.svd per distinct cluster size
    stacks, svd_calls = [], []
    youla_stack, svd = spectral_mod._youla_stack, np.linalg.svd

    def recording(c, tol):
        stacks.append(c.shape)
        return youla_stack(c, tol)

    def counting(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(spectral_mod, "_youla_stack", recording)
    monkeypatch.setattr(np.linalg, "svd", counting)
    herm_spectral(gen_random("hermitian", 64, 64, 41))
    assert stacks == [] and svd_calls == []
    for kind in ("clustered", "mixed"):
        a, sizes = planted_levels(kind, 64, 42)
        stacks.clear()
        svd_calls.clear()
        herm_spectral(a)
        multi = [s for s in sizes if s > 1]
        assert all(k > 0 and s > 1 for k, s, _ in stacks)
        assert sorted(s for k, s, _ in stacks for _ in range(k)) == sorted(multi)
        assert len(stacks) == len(svd_calls) == len(set(multi))


@pytest.mark.parametrize("shape", [(12, 8), (8, 12)])
def test_svd_matches_loop_form(monkeypatch, shape):
    # the Gram form of the SVD decomposes A*A; the loop form in its place
    # must give the same factors
    a = rand_dcmatrix(np.random.default_rng(43), *shape)
    got = dc_svd_gram(a)
    monkeypatch.setattr(oracle, "herm_spectral", herm_spectral_loop)
    ref = dc_svd_gram(a)
    for got_f, ref_f in ((got.U, ref.U), (got.V, ref.V)):
        np.testing.assert_array_equal(got_f.standard, ref_f.standard)
        np.testing.assert_array_equal(got_f.infinitesimal, ref_f.infinitesimal)
    assert got.standard_blocks == ref.standard_blocks
    assert got.infinitesimal_values == ref.infinitesimal_values
    assert got.residual == ref.residual


def test_corrupted_eigh_raises_accuracy_error(monkeypatch):
    a = gen_random("hermitian", 8, 8, 44)
    eigh = np.linalg.eigh

    def corrupted(x, *args, **kwargs):
        w, v = eigh(x, *args, **kwargs)
        v = v.copy()
        v[0, 0] += 1e-6
        return w, v

    monkeypatch.setattr(spectral_mod.np.linalg, "eigh", corrupted)
    with pytest.raises(AccuracyError):
        herm_spectral(a)


def test_factor_that_is_not_unitary_raises_accuracy_error(monkeypatch):
    # on the zero matrix U* A U - Sigma vanishes for every U, so U = 2W, whose
    # unitarity defect is 6, is caught by the defect alone
    eigh = np.linalg.eigh

    def doubled(x, *args, **kwargs):
        w, v = eigh(x, *args, **kwargs)
        return w, 2 * v

    monkeypatch.setattr(spectral_mod.np.linalg, "eigh", doubled)
    with pytest.raises(AccuracyError):
        herm_spectral(DCMatrix(np.zeros((4, 4))))


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


def test_classify_multiplicity_finds_a_merged_level():
    # tau = group_tol (1 + 100) merges 3e-7 and 0 into one level at 1.5e-7;
    # a tau scaled by |lam| alone missed it from either value.  The
    # similarity's infinitesimal part couples the merged pair into one Sub
    blocks = tuple(SpectralBlock("Eigen", v) for v in (100.0, 3e-7, 0.0, -2.0))
    dec = herm_spectral(planted(blocks, 1))
    assert len(dec.blocks) == 3
    assert classify_multiplicity(dec, 3e-7) == classify_multiplicity(dec, 0.0) == (2, 1)
    assert classify_multiplicity(dec, 100.0) == classify_multiplicity(dec, -2.0) == (1, 0)


def planted_theorem_case(seed):
    """A planted Hermitian matrix and its levels {lam: (#Eigen, #Sub)}.

    Two to four levels, each with zero to two Eigen and zero to two Sub
    blocks, at least one block in all.  seed % 4 picks the levels: 0 mixed
    signs and no Sub block, 1 nonnegative with a Sub block at 0, 2 mixed
    signs, 3 positive.
    """
    rng = np.random.default_rng(seed)
    pool = {1: [0.0, 0.6, 1.4, 2.3], 3: [0.4, 1.1, 1.9, 2.6]}.get(seed % 4,
                                                               [-1.5, -0.5, 0.0, 0.7, 2.0])
    lams = rng.choice(pool, size=int(rng.integers(2, 5)), replace=False).tolist()
    if seed % 4 == 1:
        lams = [0.0] + [lam for lam in lams if lam != 0.0]
    levels, blocks = {}, []
    for i, lam in enumerate(lams):
        n_sub = 0 if seed % 4 == 0 else int(rng.integers(0, 3))
        if seed % 4 == 1 and i == 0:
            n_sub = max(n_sub, 1)
        n_eig = int(rng.integers(0 if n_sub else 1, 3))
        levels[lam] = (n_eig, n_sub)
        blocks += [SpectralBlock("Eigen", lam)] * n_eig
        mus = rng.uniform(0.5, 1.5, n_sub) * np.exp(2j * np.pi * rng.uniform(size=n_sub))
        blocks += [SpectralBlock("Sub", lam, mu) for mu in mus]
    return planted(tuple(blocks), seed), levels


THEOREM_SEEDS = range(900, 916)


@pytest.mark.parametrize("seed", THEOREM_SEEDS)
def test_counting_theorem_against_phi(seed):
    # n = #Eigen + 2 #Sub, and at each level of multiplicity k the number of
    # Sub blocks is what phi's kernel gives; the complex right eigenvalues
    # are the levels where k - 2 #Sub > 0
    h, levels = planted_theorem_case(seed)
    dec = herm_spectral(h)
    assert h.rows == sum(1 if b.kind == "Eigen" else 2 for b in dec.blocks)
    eigen_levels = 0
    for lam, (n_eig, n_sub) in levels.items():
        k = n_eig + 2 * n_sub
        assert classify_multiplicity(dec, lam) == (k, n_sub)
        subs = sub_count(h, lam, k)
        assert subs == n_sub
        eigen_levels += k - 2 * subs > 0
    assert len(complex_right_eigs(h)) == eigen_levels


@pytest.mark.parametrize("seed", THEOREM_SEEDS)
def test_definiteness_theorem(seed):
    # is_psd and is_pd hold iff every level, Sub blocks' included, is >= 0 or > 0
    h, levels = planted_theorem_case(seed)
    assert is_psd(h) == all(lam >= 0 for lam in levels)
    assert is_pd(h) == all(lam > 0 for lam in levels)


@pytest.mark.parametrize("seed", THEOREM_SEEDS)
def test_diagonalizable_iff_no_sub_block(seed):
    # phi's kernel at every level has twice the level's multiplicity, and n
    # right eigenpairs diagonalize H, iff herm_spectral finds no Sub block
    h, levels = planted_theorem_case(seed)
    no_sub = all(n_sub == 0 for _, n_sub in levels.values())
    assert no_sub == all(b.kind == "Eigen" for b in herm_spectral(h).blocks)
    assert no_sub == all(sub_count(h, lam, n_eig + 2 * n_sub) == 0
                         for lam, (n_eig, n_sub) in levels.items())
    assert no_sub == (len(dual_right_eigs(h)) == h.rows)


def test_theorem_cases_cover_each_branch():
    cases = [planted_theorem_case(seed)[1] for seed in THEOREM_SEEDS]
    subs = [any(n_sub for _, n_sub in levels.values()) for levels in cases]
    assert any(subs) and not all(subs)
    assert any(levels.get(0.0, (0, 0))[1] for levels in cases)
    for sign in (-1, 0, 1):  # indefinite, semidefinite only, definite
        assert any(np.sign(min(levels)) == sign for levels in cases)


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


def hermitian_with_levels(levels, seed, scale=1.0):
    """scale W diag(levels) W* + scale K eps*j, W unitary and K skew, both seeded."""
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(cgauss(rng, len(levels), len(levels)))
    a_st = w @ np.diag(levels) @ w.conj().T
    return DCMatrix(scale * (a_st + a_st.conj().T) / 2, scale * rand_skew(rng, len(levels)))


@pytest.mark.parametrize("seed", range(3))
def test_definiteness_of_levels_between_tau_and_ten_tau(seed):
    # 1 and 1 + 2e-7 lie between tau = 6e-8 and 10 tau apart, so herm_spectral
    # refuses the gap; definiteness reads the standard spectrum alone
    h = hermitian_with_levels([1, 1 + 2e-7, 2, 3, 4, 5], seed)
    with pytest.raises(IllConditionedGap):
        herm_spectral(h)
    assert is_psd(h) and is_pd(h)
    assert not is_psd(-1.0 * h) and not is_pd(-1.0 * h)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_definiteness_cut_is_relative(scale):
    # the cut is resid_tol ||A_st||_2: a level at +-cut/2 counts as zero at
    # every scale, one at +-2 cut keeps its sign
    cut = spectral_mod.DEFAULT_TOL.resid_tol * 3.0
    for sign in (1, -1):
        half = hermitian_with_levels([sign * cut / 2, 1, 2, 3], 31, scale)
        assert is_psd(half) and not is_pd(half)
        twice = hermitian_with_levels([sign * 2 * cut, 1, 2, 3], 31, scale)
        assert is_psd(twice) == is_pd(twice) == (sign > 0)
    assert is_pd(DCMatrix(scale * 1e-10 * np.eye(3)))
    assert not is_psd(DCMatrix(-scale * 1e-10 * np.eye(3)))


# ----------------------------------- exactly Hermitian input, read in place

def exactly_hermitian(a):
    """A's Hermitian halves as a matrix: exactly Hermitian input."""
    return DCMatrix((a.standard + a.standard.conj().T) / 2,
                    (a.infinitesimal - a.infinitesimal.T) / 2)


def negative_zero_diagonal():
    """gen_random("hermitian") with -0.0 imaginary parts on A_st's diagonal."""
    a = gen_random("hermitian", 6, 6, 1340)
    st = a.standard.copy()
    st.imag[np.diag_indices(6)] = -0.0
    assert np.signbit(st.diagonal().imag).all()
    return DCMatrix(st, a.infinitesimal)


EXACTLY_HERMITIAN = {
    "hermitian": lambda: gen_random("hermitian", 12, 12, 1341),
    "clustered": lambda: exactly_hermitian(planted_levels("clustered", 32, 1342)[0]),
    "ex2": lambda: EX2,
    "zero": lambda: DCMatrix(np.zeros((4, 4))),
    "negative-zero-diagonal": negative_zero_diagonal,
}


def spectral_bytes(dec):
    """U's bytes, the blocks by repr (which keeps the sign of a zero) and the residual."""
    return (dec.U.standard.tobytes(), dec.U.infinitesimal.tobytes(),
            repr([(b.kind, b.lam, b.mu) for b in dec.blocks]), repr(dec.residual))


@pytest.mark.parametrize("name", EXACTLY_HERMITIAN)
def test_exactly_hermitian_input_is_read_in_place(name):
    a = EXACTLY_HERMITIAN[name]()
    h_st, h_inf, off = _hermitian_halves(a)
    assert h_st is a.standard and h_inf is a.infinitesimal and off == (0.0, 0.0)
    fresh = ((a.standard + a.standard.conj().T) / 2, (a.infinitesimal - a.infinitesimal.T) / 2)
    tol = spectral_mod.DEFAULT_TOL
    assert (spectral_bytes(spectral_mod._herm_spectral(a, h_st, h_inf, off, tol))
            == spectral_bytes(spectral_mod._herm_spectral(a, *fresh, off, tol)))


@pytest.mark.parametrize("part", ["standard", "infinitesimal"])
def test_nearly_hermitian_input_forms_halves_and_reports_off(part):
    a = gen_random("hermitian", 8, 8, 1350)
    parts = {"standard": a.standard.copy(), "infinitesimal": a.infinitesimal.copy()}
    parts[part][0, 1] += 1e-12
    b = DCMatrix(parts["standard"], parts["infinitesimal"])
    h_st, h_inf, off = _hermitian_halves(b)
    assert not (np.shares_memory(h_st, b.standard) or np.shares_memory(h_inf, b.infinitesimal))
    at = ("standard", "infinitesimal").index(part)
    assert off[at] == pytest.approx(1e-12 / np.sqrt(2), rel=1e-3) and off[1 - at] == 0.0
    assert herm_spectral(b).residual[at] >= off[at]


def test_a_difference_whose_norm_underflows_still_forms_halves():
    # ||A_st - A_st*|| of a 1e-200 difference underflows to 0; the entries
    # are tested, so H_st is formed, and it is exactly Hermitian
    a = gen_random("hermitian", 6, 6, 1360)
    st = a.standard.copy()
    st[0, 1], st[1, 0] = 1e-200, 0.0
    b = DCMatrix(st, a.infinitesimal)
    h_st, _, off = _hermitian_halves(b)
    assert off == (0.0, 0.0) and not np.shares_memory(h_st, b.standard)
    assert np.array_equal(h_st, h_st.conj().T)
