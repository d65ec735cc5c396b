import json
import warnings

import numpy as np
import pytest

import dclinalg.eig as eig_mod
import dclinalg.matrix as matrix_mod
from conftest import cgauss, rand_dc, rand_dcmatrix
from dclinalg import (
    DEFAULT_TOL,
    EPS_J,
    DCMatrix,
    DualComplex,
    Inconsistent,
    NonFinite,
    NotAppreciable,
    SpectralBlock,
    Tolerances,
    assemble_blocks,
    complex_right_eigs,
    conj_transpose,
    dc_inv,
    dc_mul,
    dual_right_eigs,
    from_scalars,
    gen_random,
    herm_spectral,
    inner,
    jsonio,
    mat_mul,
    right_eigs,
    simple_eig_lift,
    verify_eigenpair,
    verify_right_eigs,
)
from dclinalg.cli import main
from dclinalg.matrix import dual_residual
from oracle import (
    _EPS,
    cluster_complex_loop,
    complex_right_eigs_svd,
    dual_right_eigs_svd,
    phi,
    verify_eigenpair_products,
)

EX1 = DCMatrix(np.eye(2), np.eye(2))
EX2 = from_scalars([[1, EPS_J], [-EPS_J, 1]])


def real_lstsq_residual(m: np.ndarray, b: np.ndarray) -> float:
    """Brute-force consistency check of a complex system as a 2n-real-variable solve."""
    mr = np.block([[m.real, -m.imag], [m.imag, m.real]])
    br = np.concatenate([b.real, b.imag])
    x, *_ = np.linalg.lstsq(mr, br, rcond=None)
    return float(np.linalg.norm(mr @ x - br))


def test_verify_eigenpair_worked_example():
    e = np.ones((2, 1))
    x = DCMatrix(e + 1j * e)
    assert verify_eigenpair(EX1, DualComplex(1, -1j), x) == (0.0, 0.0)


def test_verify_eigenpair_identity():
    e1 = from_scalars([[1], [0]])
    assert verify_eigenpair(DCMatrix(np.eye(2)), DualComplex(1), e1) == (0.0, 0.0)


def test_verify_eigenpair_rejects_inappreciable():
    x = DCMatrix(np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(NotAppreciable):
        verify_eigenpair(EX1, DualComplex(1), x)


def test_verify_eigenpair_detects_wrong_value():
    rng = np.random.default_rng(0)
    a = rand_dcmatrix(rng, 4, 4)
    x = rand_dcmatrix(rng, 4, 1)
    rs, _ = verify_eigenpair(a, DualComplex(123.0), x)
    assert rs > 1.0


def test_complex_right_eigs_can_be_empty():
    assert complex_right_eigs(EX1) == []
    assert complex_right_eigs(EX2) == []


def test_complex_right_eigs_of_complex_matrix():
    rng = np.random.default_rng(1)
    a_st = cgauss(rng, 4, 4)
    a = DCMatrix(a_st)
    pairs = complex_right_eigs(a)
    assert len(pairs) == 4
    by_parts = lambda z: (z.real, z.imag)
    vals = sorted((p.value.standard for p in pairs), key=by_parts)
    expected = sorted(np.linalg.eigvals(a_st), key=by_parts)
    np.testing.assert_allclose(np.array(vals), np.array(expected), atol=1e-10)
    for p in pairs:
        assert np.linalg.norm(p.vector.infinitesimal) <= 1e-10
        assert max(p.residual) <= 1e-10


def test_complex_right_eigs_against_brute_force():
    # diagonal standard part with a planted conjugate pair: lam1 = conj(lam2),
    # so acceptance of lam1 depends on one entry of the infinitesimal part
    rng = np.random.default_rng(2)
    d = np.array([1 + 2j, 1 - 2j, 3.0, -0.5j])
    n = 4
    for trial in range(20):
        a_inf = cgauss(rng, n, n)
        if trial % 2 == 0:
            a_inf[1, 0] = 0.0  # makes lam = 1+2j solvable
        a = DCMatrix(np.diag(d), a_inf)
        got = {round(p.value.standard.real, 6) + 1j * round(p.value.standard.imag, 6)
               for p in complex_right_eigs(a)}
        for k in range(n):
            lam = d[k]
            m = np.conj(lam) * np.eye(n) - np.diag(d)
            resid = real_lstsq_residual(m, a_inf @ np.conj(np.eye(n)[:, k]))
            expect = resid <= 1e-9 * (1 + np.linalg.norm(a_inf))
            key = round(lam.real, 6) + 1j * round(lam.imag, 6)
            assert (key in got) == expect, (trial, lam)
        for p in complex_right_eigs(a):
            assert max(p.residual) <= 1e-9


def test_complex_pair_of_a_cluster_solves_through_conj_of_its_coefficients():
    # a double eigenvalue 2 with two unsolvable directions N; A_I is generic
    # except that N* A_I conj(x) = 0 for x = P[:, :2] w, so x is the one
    # eigenvector at 2 with a complex pair.  The eigenspace basis B has
    # x = B c with conj(c) in the null space of N* A_I conj(B); a basis
    # combination taken with c conjugated misses it
    rng = np.random.default_rng(19)
    p = cgauss(rng, 5, 5)
    p_inv = np.linalg.inv(p)
    a_st = p @ np.diag([2, 2, 1 + 1j, -1, 0.5j]) @ p_inv
    nleft, _ = np.linalg.qr(p_inv[:2].conj().T)  # left eigenvectors at 2
    y = np.conj(p[:, :2] @ (np.array([1, 0.6 + 0.8j]) / np.sqrt(2)))
    a_inf = cgauss(rng, 5, 5)
    a_inf -= np.outer(nleft @ (nleft.conj().T @ a_inf @ y), y.conj()) / np.vdot(y, y).real
    a = DCMatrix(a_st, a_inf)
    pa = phi(a)
    bound = 64 * a.rows * _EPS * (1 + np.linalg.norm(pa))
    for pairs in (complex_right_eigs(a), complex_right_eigs_svd(a)):
        at_two = [q for q in pairs if abs(q.value.standard - 2) <= 1e-10]
        assert len(at_two) == 1
        px = phi(at_two[0].vector)
        assert np.linalg.norm(pa @ px - px @ phi(at_two[0].value)) <= bound


def test_dual_right_eigs_reduces_for_complex_input():
    rng = np.random.default_rng(3)
    a_st = cgauss(rng, 4, 4)
    pairs = dual_right_eigs(DCMatrix(a_st))
    assert len(pairs) == 4
    for p in pairs:
        assert abs(p.value.infinitesimal) <= 1e-12
        assert np.linalg.norm(p.vector.infinitesimal) <= 1e-10


def test_dual_right_eigs_random_verified():
    rng = np.random.default_rng(4)
    for k in range(20):
        a = rand_dcmatrix(rng, 2, 2)
        pairs = dual_right_eigs(a)
        assert pairs
        for p in pairs:
            assert max(p.residual) <= 1e-10


def test_dual_right_eigs_worked_example_class():
    # the returned representative is similar to 1 - i eps*j: the standard
    # part is 1 and the class invariant |lam_I| is 1
    pairs = dual_right_eigs(EX1)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.warning is not None
    assert abs(p.value.standard - 1) <= 1e-12
    assert abs(abs(p.value.infinitesimal) - 1) <= 1e-12
    assert max(p.residual) <= 1e-12


def test_dual_right_eigs_hermitian_no_eigenvalues():
    assert dual_right_eigs(EX2) == []


def test_necessity_of_standard_eigenvalue():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rand_dcmatrix(rng, 5, 5)
        spec = np.linalg.eigvals(a.standard)
        for p in dual_right_eigs(a) + complex_right_eigs(a):
            assert np.min(np.abs(spec - p.value.standard)) <= 1e-8


def test_similarity_closure_spot_check():
    rng = np.random.default_rng(6)
    a = rand_dcmatrix(rng, 3, 3)
    for p in dual_right_eigs(a):
        q = rand_dc(rng)
        if not q.is_appreciable(1e-3):
            continue
        lam2 = dc_mul(dc_mul(dc_inv(q), p.value), q)
        x2 = p.vector * q
        rs, ri = verify_eigenpair(a, lam2, x2)
        assert max(rs, ri) <= 1e-9


def test_hermitian_eigs_real_and_orthogonal():
    rng = np.random.default_rng(7)
    for k in range(10):
        a = gen_random("hermitian", 5, 5, 100 + k)
        pairs = dual_right_eigs(a)
        assert len(pairs) == 5  # generic: all eigenvalues simple
        for p in pairs:
            assert abs(p.value.standard.imag) <= 1e-12
            assert p.value.infinitesimal == 0
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                ip = inner(pairs[i].vector, pairs[j].vector)
                assert abs(ip.standard) <= 1e-10
                assert abs(ip.infinitesimal) <= 1e-10


def test_linear_combinations_stay_eigenvectors():
    # double eigenvalue with vanishing coupling: combinations with dual
    # complex coefficients remain eigenvectors
    rng = np.random.default_rng(8)
    lam = 2.0
    w, _ = np.linalg.qr(cgauss(rng, 4, 4))
    a_st = w @ np.diag([lam, lam, -1.0, 0.5]) @ w.conj().T
    u, v = w[:, 2], w[:, 3]
    a_inf = np.outer(u, v) - np.outer(v, u)  # skew, orthogonal to the eigenspace
    a = DCMatrix((a_st + a_st.conj().T) / 2, a_inf)
    pairs = [p for p in dual_right_eigs(a) if abs(p.value.standard - lam) < 1e-8]
    assert len(pairs) == 2
    x1, x2 = pairs[0].vector, pairs[1].vector
    for _ in range(5):
        a1, a2 = rand_dc(rng), rand_dc(rng)
        y = x1 * a1 + x2 * a2
        if np.linalg.norm(y.standard) < 1e-3:
            continue
        rs, ri = verify_eigenpair(a, DualComplex(lam), y)
        assert max(rs, ri) <= 1e-9


def test_simple_eig_lift_zero_infinitesimal():
    rng = np.random.default_rng(9)
    h = cgauss(rng, 4, 4)
    a = DCMatrix(h + h.conj().T)
    w, v = np.linalg.eigh(a.standard)
    x_inf = simple_eig_lift(a, float(w[0]), v[:, 0])
    assert np.linalg.norm(x_inf) <= 1e-12


def test_simple_eig_lift_verifies():
    for seed in range(10):
        a = gen_random("hermitian", 4, 4, 200 + seed)
        w, v = np.linalg.eigh(a.standard)
        for k in range(4):
            x_inf = simple_eig_lift(a, float(w[k]), v[:, k])
            vec = DCMatrix(v[:, k][:, None], x_inf[:, None])
            rs, ri = verify_eigenpair(a, DualComplex(float(w[k])), vec)
            assert max(rs, ri) <= 1e-10


def test_simple_eig_lift_rejects_double_eigenvalue():
    with pytest.raises(Inconsistent):
        simple_eig_lift(EX2, 1.0, np.array([1.0, 0.0]))


def test_simple_eig_lift_rejects_non_eigenvector():
    a = gen_random("hermitian", 4, 4, 77)
    with pytest.raises(Inconsistent):
        simple_eig_lift(a, 123.0, np.ones(4))


def test_verify_eigenpair_bit_equal_to_products():
    rng = np.random.default_rng(10)
    for n in (1, 3, 8, 17):
        for _ in range(5):
            a = rand_dcmatrix(rng, n, n)
            x = rand_dcmatrix(rng, n, 1)
            value = rand_dc(rng)
            assert verify_eigenpair(a, value, x) == verify_eigenpair_products(a, value, x)
    a = rand_dcmatrix(rng, 6, 6)
    for p in dual_right_eigs(a) + complex_right_eigs(a):
        assert (verify_eigenpair(a, p.value, p.vector)
                == verify_eigenpair_products(a, p.value, p.vector))


def test_verify_right_eigs_gives_back_the_stored_residuals():
    # each list is one stack, as right_eigs computed the residuals it stores
    for kind, n, seed in (("general", 16, 21), ("hermitian", 8, 3), ("general", 9, 5)):
        a = gen_random(kind, n, n, seed)
        pairs, complex_pairs = right_eigs(a)
        stored = tuple(max(p.residual[i] for p in pairs + complex_pairs) for i in (0, 1))
        assert verify_right_eigs(a, pairs, complex_pairs) == stored, (kind, n)
        assert verify_right_eigs(a, [], []) == (0.0, 0.0)


def test_verify_eigenpair_overflow_raises_nonfinite():
    # the DCMatrix form raises on the overflowed product; a NaN norm would
    # be dropped by the max() that collects residuals.  The array form names
    # the residual, not an input entry, as the part that left double range
    big = np.full((2, 2), 1e308)
    x = DCMatrix(np.ones((2, 1)))
    for a, part in ((DCMatrix(big), "standard"), (DCMatrix(np.eye(2), big), "infinitesimal")):
        for check, message in ((verify_eigenpair, f"residual's {part} part left double range"),
                               (verify_eigenpair_products, part)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFinite, match=message):
                check(a, DualComplex(1), x)
    # finite entries whose norm overflows give inf in both forms
    with np.errstate(over="ignore"):
        a = DCMatrix(np.full((2, 2), 1e200))
        assert verify_eigenpair(a, DualComplex(1), x) == (np.inf, 0.0)
        assert verify_eigenpair_products(a, DualComplex(1), x) == (np.inf, 0.0)


def _clustering_inputs():
    rng = np.random.default_rng(11)
    for n in (0, 1, 5, 40):
        yield cgauss(rng, n, 1).ravel(), 0.3
    # chains with steps on both sides of tau, and values that reach two groups
    for _ in range(20):
        steps = rng.uniform(0.5, 1.2, 12) * np.exp(2j * np.pi * rng.uniform(size=12))
        yield np.cumsum(steps), 1.0
        yield rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30), 0.7
    # exact lattice: neighbours at distance exactly tau, with repeated values
    lattice = np.array([x + 1j * y for x in range(4) for y in range(3)]) * 0.25
    yield np.concatenate([lattice, lattice[::3]]), 0.25
    yield np.array([0, 0.5, 0.25 + 0.25j, 1.0, 0.75, 0.5j, 0.5]), 0.25


def test_cluster_complex_matches_loop_form():
    for vals, tau in _clustering_inputs():
        assert eig_mod._cluster_complex(vals, tau) == cluster_complex_loop(vals, tau)


def _reference_cases():
    for n in (4, 16, 48):
        rng = np.random.default_rng([12, n])
        yield f"complex-{n}", DCMatrix(cgauss(rng, n, n), cgauss(rng, n, n))
    rng = np.random.default_rng(13)
    a_st = rng.standard_normal((8, 8))
    yield "real", DCMatrix(a_st, cgauss(rng, 8, 8))
    yield "real-no-inf", DCMatrix(a_st)
    # Jordan-like block: 2 and 2 + delta clustered at 1e-10, separate but
    # with nearly parallel eigenvectors at 1e-6
    for delta in (1e-10, 1e-6):
        t = np.diag([2.0, 2.0 + delta, -1.0 + 1j, 0.5j, 3.0]).astype(complex)
        t[0, 1] = 1.0
        q, _ = np.linalg.qr(cgauss(rng, 5, 5))
        yield f"near-defective-{delta:g}", DCMatrix(q @ t @ q.conj().T, cgauss(rng, 5, 5))
    yield "EX1", EX1
    yield "mixed", mixed_spectrum()
    yield "interleaved", interleaved_spectrum()
    yield "kron-complex", kron_complex()
    yield "real-rotation", real_rotation()


def mixed_spectrum() -> DCMatrix:
    """A generic complex 5x5 block beside the real block Q diag(2, 2, -1) Q^T.

    One call solves the five complex eigenvalues in the array pass and sends
    the cluster at 2 and the real -1, each its own conjugate, down the SVD
    path.  A_I is generic except on the real block, where it is
    t v v^T with v the eigenvector at -1: the cluster at 2 lifts with
    lam_I = 0, and -1 lifts to the dual eigenvalue -1 + t eps*j only.
    """
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a_st = np.zeros((8, 8), dtype=complex)
    a_st[:5, :5] = cgauss(rng, 5, 5)
    a_st[5:, 5:] = q @ np.diag([2.0, 2.0, -1.0]) @ q.T
    a_inf = cgauss(rng, 8, 8)
    a_inf[5:, 5:] = (0.7 + 0.4j) * np.outer(q[:, 2], q[:, 2])
    return DCMatrix(a_st, a_inf)


def kron_complex() -> DCMatrix:
    """P kron(A, I_2) P* for a generic complex 3x3 A and a unitary P.

    Each eigenvalue of A_st is a non-real double one, far from every
    conjugate: its cluster solves through V, with no lstsq, and both of its
    basis columns lift.
    """
    rng = np.random.default_rng(19)
    a = DCMatrix(np.kron(cgauss(rng, 3, 3), np.eye(2)), np.kron(cgauss(rng, 3, 3), np.eye(2)))
    p = gen_random("unitary", 6, 6, 20)
    return mat_mul(mat_mul(p, a), conj_transpose(p))


def real_rotation() -> DCMatrix:
    """P (I_2 kron [[1, -2], [2, 1]]) P^T with A_I = 0: 1 + 2i and 1 - 2i, each double."""
    p, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((4, 4)))
    return DCMatrix(p @ np.kron(np.eye(2), [[1.0, -2.0], [2.0, 1.0]]) @ p.T)


def interleaved_spectrum() -> DCMatrix:
    """W diag(-2 + i, -0.5 - i, 1.5 + 0.5i, 3 - i) W^-1 beside Q diag(0.5, 0.5, -1) Q^T.

    As mixed_spectrum, A_I included, but the clusters that take the SVD
    path, the real -1 and the double 0.5, lie between the array pass's four
    non-real eigenvalues in the order of the real parts, not at the ends.
    """
    rng = np.random.default_rng(25)
    w = cgauss(rng, 4, 4) + 4 * np.eye(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a_st = np.zeros((7, 7), dtype=complex)
    a_st[:4, :4] = w @ np.diag([-2 + 1j, -0.5 - 1j, 1.5 + 0.5j, 3 - 1j]) @ np.linalg.inv(w)
    a_st[4:, 4:] = q @ np.diag([0.5, 0.5, -1.0]) @ q.T
    a_inf = cgauss(rng, 7, 7)
    a_inf[4:, 4:] = (0.7 + 0.4j) * np.outer(q[:, 2], q[:, 2])
    return DCMatrix(a_st, a_inf)


REFERENCE_CASES = list(_reference_cases())


@pytest.mark.parametrize("name,a", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
@pytest.mark.parametrize("routine,reference", [(complex_right_eigs, complex_right_eigs_svd),
                                               (dual_right_eigs, dual_right_eigs_svd)],
                         ids=["complex", "dual"])
def test_right_eigs_match_svd_reference(name, a, routine, reference):
    pairs, ref = routine(a), reference(a)
    assert len(pairs) == len(ref)
    tol = 1e-12 * (1 + np.linalg.norm(a.standard))
    ref_vals = np.array([[p.value.standard, p.value.infinitesimal] for p in ref])
    matched = set()
    for p in pairs:
        dist = np.abs(ref_vals - [p.value.standard, p.value.infinitesimal]).max(axis=1)
        j = int(np.argmin(dist))
        assert dist[j] <= tol, (name, p.value)
        matched.add(j)
        if name.startswith("complex"):
            # a simple, well separated eigenvalue has one unit eigenvector up to phase
            assert np.linalg.norm(p.vector.standard - ref[j].vector.standard) <= 1e-9
    assert len(matched) == len(pairs)
    accept = DEFAULT_TOL.resid_tol * (1 + np.linalg.norm(a.infinitesimal))
    for p in pairs:
        assert max(verify_eigenpair(a, p.value, p.vector)) <= accept


def _defective_cases():
    jordan = 2 * np.eye(3) + np.eye(3, k=1)
    beside = np.diag([1.0, 1.0, 2.0])
    beside[0, 1] = 1.0
    # (name, A, dual pairs, complex pairs)
    yield "nilpotent", DCMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])), 1, 1
    yield "jordan-3", DCMatrix(jordan), 1, 1
    yield "jordan-2-coupled", DCMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                       np.array([[0.0, 0.0], [1.0, 0.0]])), 0, 0
    yield "jordan-2-beside-2", DCMatrix(beside, 1j * np.eye(3)), 2, 1
    # LAPACK returns equal eigenvectors: V is exactly singular
    yield "nilpotent-3", DCMatrix(np.eye(3, k=1)), 1, 1


DEFECTIVE_CASES = list(_defective_cases())


@pytest.mark.parametrize("name,a,n_dual,n_complex", DEFECTIVE_CASES,
                         ids=[c[0] for c in DEFECTIVE_CASES])
def test_defective_standard_part_matches_svd_reference_without_warning(name, a, n_dual,
                                                                       n_complex):
    # V is singular or nearly so: kappa is huge, or inf where ||V^-1||_F
    # overflows or V does not invert; every eigenvalue is real, so none
    # takes the array pass, and no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dual, cplx = right_eigs(a)
    for pairs, ref, count in ((dual, dual_right_eigs_svd(a), n_dual),
                              (cplx, complex_right_eigs_svd(a), n_complex)):
        assert len(pairs) == len(ref) == count, name
        np.testing.assert_allclose([[p.value.standard, p.value.infinitesimal] for p in pairs],
                                   [[q.value.standard, q.value.infinitesimal] for q in ref],
                                   rtol=0, atol=1e-12)


def _count_calls(monkeypatch):
    calls = {"_eigenspace_basis": 0, "_left_null_basis": 0, "lstsq": 0}

    def counted(owner, name):
        inner_fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner_fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(eig_mod, "_eigenspace_basis")
    counted(eig_mod, "_left_null_basis")
    counted(np.linalg, "lstsq")
    return calls


def test_distinct_spectrum_skips_svd_helpers(monkeypatch):
    calls = _count_calls(monkeypatch)
    rng = np.random.default_rng(14)
    a = rand_dcmatrix(rng, 24, 24)
    assert len(complex_right_eigs(a)) == 24
    assert len(dual_right_eigs(a)) == 24
    assert calls == {"_eigenspace_basis": 0, "_left_null_basis": 0, "lstsq": 0}


def test_real_standard_part_keeps_svd_path(monkeypatch):
    # conj(lam) is an eigenvalue of a real A_st for every eigenvalue lam, so M
    # is singular and the unsolvable directions come from the SVD
    calls = _count_calls(monkeypatch)
    rng = np.random.default_rng(15)
    a = DCMatrix(rng.standard_normal((6, 6)))
    assert len(complex_right_eigs(a)) == 6
    assert calls["_left_null_basis"] == 6 and calls["lstsq"] == 6


def test_mixed_spectrum_splits_one_call(monkeypatch):
    # the five simple eigenvalues go through one array solve, the cluster at 2
    # and the eigenvalue -1 through the SVD helpers and lstsq, cluster by cluster
    calls = _count_calls(monkeypatch)
    batches = []
    solve = eig_mod._solve_through_v

    def counted(*args):
        batches.append(args[-1].shape[1])
        return solve(*args)
    monkeypatch.setattr(eig_mod, "_solve_through_v", counted)
    a = mixed_spectrum()
    pairs = {"complex": complex_right_eigs(a), "dual": dual_right_eigs(a)}
    assert batches == [5, 5]
    assert calls == {"_eigenspace_basis": 2, "_left_null_basis": 4, "lstsq": 4}
    assert len(pairs["complex"]) == 6 and len(pairs["dual"]) == 7
    # pairs come in the order of the real parts: -1 first, the cluster at 2 last
    assert [p.warning is not None for p in pairs["dual"]] == [False] * 6 + [True]
    lifted = pairs["dual"][0].value
    assert abs(lifted.standard + 1) <= 1e-12 and abs(lifted.infinitesimal - (0.7 + 0.4j)) <= 1e-12
    assert abs(pairs["complex"][-1].value.standard - 2) <= 1e-12


def test_svd_path_clusters_between_array_pass_pairs_keep_cluster_order(monkeypatch):
    # the pairs of both lists come in cluster order (_cluster_complex: by
    # real part, then imaginary part) wherever the SVD path's clusters lie,
    # each array-pass pair is one object in both lists, and V is inverted once
    a = interleaved_spectrum()
    calls = _count_linalg(monkeypatch, "inv")
    dual, cplx = right_eigs(a)
    assert calls == {"inv": 1}
    for pairs, reals in ((dual, [-2, -1, -0.5, 0.5, 1.5, 3]), (cplx, [-2, -0.5, 0.5, 1.5, 3])):
        keys = [(p.value.standard.real, p.value.standard.imag) for p in pairs]
        assert keys == sorted(keys)
        np.testing.assert_allclose([re for re, _ in keys], reals, rtol=0, atol=1e-12)
    # the four non-real pairs are the array pass's
    fast = [p for p in dual if abs(p.value.standard.imag) > 0.1]
    assert len(fast) == 4 and all(any(p is q for q in cplx) for p in fast)


@pytest.mark.parametrize("make, lstsq_calls", [(kron_complex, 0), (real_rotation, 2)],
                         ids=["kron-complex", "real-rotation"])
def test_non_real_cluster_keeps_one_similarity_class(monkeypatch, make, lstsq_calls):
    # every basis column of a cluster solves its system, and a non-real
    # cluster keeps the first: one dual pair, flagged, beside its complex pair
    a = make()
    calls = _count_calls(monkeypatch)
    dual, cplx = right_eigs(a)
    assert calls["lstsq"] == lstsq_calls
    assert len(dual) == len(cplx) == a.rows // 2
    assert [p.value for p in dual] == [p.value for p in cplx]
    assert all(abs(p.value.standard.imag) > 0.01 for p in dual)
    assert all(p.warning == eig_mod._CLUSTER_WARNING for p in dual)
    assert all(p.warning is None for p in cplx)


def planted_hermitian(seed: int) -> DCMatrix:
    """U Sigma U* with levels 2 (two Eigen blocks and a Sub block), -1, 0.5 (Sub) and 1.3."""
    blocks = (SpectralBlock("Eigen", 2.0), SpectralBlock("Eigen", 2.0),
              SpectralBlock("Sub", 2.0, 0.7 + 0.3j), SpectralBlock("Eigen", -1.0),
              SpectralBlock("Sub", 0.5, 1.1j), SpectralBlock("Eigen", 1.3))
    u = gen_random("unitary", 8, 8, seed)
    return mat_mul(mat_mul(u, assemble_blocks(blocks)), conj_transpose(u))


def _phi_cases():
    for seed in range(3):
        yield f"generic-{seed}", rand_dcmatrix(np.random.default_rng([18, seed]), 12, 12)
    yield "mixed", mixed_spectrum()
    yield "kron-complex", kron_complex()
    yield "real-rotation", real_rotation()
    for seed in range(3):
        yield f"planted-hermitian-{seed}", planted_hermitian(300 + seed)


PHI_CASES = list(_phi_cases())


@pytest.mark.parametrize("name,a", PHI_CASES, ids=[c[0] for c in PHI_CASES])
def test_right_eigenpairs_through_phi(name, a):
    # phi(A) phi(x) = phi(x) phi(lam) with plain numpy products, which share
    # no code with mat_mul or the routines' own residuals
    pa = phi(a)
    bound = 64 * a.rows * _EPS * (1 + np.linalg.norm(pa))
    pairs = dual_right_eigs(a) + complex_right_eigs(a)
    assert pairs
    for p in pairs:
        px = phi(p.vector)
        assert px.shape == (2 * a.rows, 2)
        assert np.linalg.norm(pa @ px - px @ phi(p.value)) <= bound, (name, p.value)
    if name.startswith("planted"):
        # the Eigen blocks: two at 2, and -1 and 1.3
        vals = sorted(p.value.standard.real for p in dual_right_eigs(a))
        np.testing.assert_allclose(vals, [-1.0, 1.3, 2.0, 2.0], atol=1e-10)


def _count_linalg(monkeypatch, *names):
    """Calls of each named np.linalg function from here on, counted in a dict."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        inner_fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner_fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in names:
        counted(name)
    return calls


def _hermitian_cases():
    for seed in range(3):
        yield f"planted-{seed}", planted_hermitian(300 + seed)
    for seed in range(3):
        yield f"random-{seed}", gen_random("hermitian", 7, 7, 20 + seed)
    yield "kron-ex2-i3", DCMatrix(np.kron(EX2.standard, np.eye(3)),
                                  np.kron(EX2.infinitesimal, np.eye(3)))


HERMITIAN_CASES = list(_hermitian_cases())


@pytest.mark.parametrize("name,a", HERMITIAN_CASES, ids=[c[0] for c in HERMITIAN_CASES])
def test_hermitian_pairs_come_from_one_spectral_decomposition(name, a, monkeypatch):
    # one real complex pair per level with an Eigen block, in descending
    # order: the first dual pair of that level
    eigen_levels = sorted({b.lam for b in herm_spectral(a).blocks if b.kind == "Eigen"},
                          reverse=True)
    calls = _count_linalg(monkeypatch, "eig", "cond", "eigh")
    # the range and Hermitian checks run once, and herm_spectral takes the
    # Hermitian parts that the check computed
    checks = []
    for name in ("_check_range", "_hermitian_parts"):
        fn = getattr(matrix_mod, name)
        for owner in (matrix_mod, eig_mod):
            monkeypatch.setattr(owner, name,
                                lambda *args, fn=fn, name=name: checks.append(name) or fn(*args))
    dual, cplx = right_eigs(a)
    assert calls == {"eig": 0, "cond": 0, "eigh": 1}
    assert checks == ["_check_range", "_hermitian_parts"]
    assert [p.value for p in cplx] == [DualComplex(lam) for lam in eigen_levels]
    for p in cplx:
        assert p is next(q for q in dual if q.value == p.value)
    assert [p.value for p in complex_right_eigs(a)] == [p.value for p in cplx]
    monkeypatch.undo()
    ref = complex_right_eigs_svd(a)
    assert len(ref) == len(cplx)
    np.testing.assert_allclose(sorted(q.value.standard.real for q in ref), sorted(eigen_levels),
                               rtol=0, atol=1e-10)
    assert all(abs(q.value.standard.imag) <= 1e-10 for q in ref)


def test_dctool_eig_decomposes_once(tmp_path, monkeypatch):
    src, out = tmp_path / "a.json", tmp_path / "eig.json"
    src.write_text(jsonio.dumps(jsonio.encode_matrix(gen_random("general", 12, 12, 5))))
    calls = _count_linalg(monkeypatch, "eig", "cond", "inv")
    assert main(["eig", "--input", str(src), "--output", str(out)]) == 0
    assert calls == {"eig": 1, "cond": 0, "inv": 1}
    doc = jsonio.decode_eig_result(json.loads(out.read_text()))
    assert len(doc[1]) == len(doc[2]) == 12


def _assembly_cases():
    yield "generic", rand_dcmatrix(np.random.default_rng(23), 16, 16)
    yield "mixed", mixed_spectrum()
    rng = np.random.default_rng(24)
    yield "real", DCMatrix(rng.standard_normal((7, 7)), cgauss(rng, 7, 7))
    yield "planted-hermitian", planted_hermitian(303)


ASSEMBLY_CASES = list(_assembly_cases())


def _block_row(vector: np.ndarray, block: np.ndarray) -> int:
    """The row of the read-only block that an n x 1 vector is a view of."""
    offset = vector.__array_interface__["data"][0] - block.__array_interface__["data"][0]
    assert offset % block.strides[0] == 0
    return offset // block.strides[0]


@pytest.mark.parametrize("name,a", ASSEMBLY_CASES, ids=[c[0] for c in ASSEMBLY_CASES])
def test_pair_vectors_are_read_only_views_of_one_block(name, a):
    dual, cplx = right_eigs(a)
    pairs = dual + cplx
    assert pairs
    block_st, block_inf = pairs[0].vector.standard.base, pairs[0].vector.infinitesimal.base
    assert block_st.shape == block_inf.shape and block_st.shape[1] == a.rows
    for p in pairs:
        for part, block in ((p.vector.standard, block_st), (p.vector.infinitesimal, block_inf)):
            assert part.base is block
            assert part.shape == (a.rows, 1) and part.dtype == complex
            assert part.flags.c_contiguous and not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0
        assert _block_row(p.vector.standard, block_st) == _block_row(p.vector.infinitesimal,
                                                                      block_inf)


@pytest.mark.parametrize("name,a", ASSEMBLY_CASES, ids=[c[0] for c in ASSEMBLY_CASES])
def test_pair_in_both_lists_is_one_object(name, a):
    # array-pass pairs and each Hermitian level's first Eigen pair are in
    # both lists; the SVD path's dual and complex pairs are not
    dual, cplx = right_eigs(a)
    shared = {id(p) for p in dual} & {id(p) for p in cplx}
    if name == "generic":
        assert all(p is q for p, q in zip(dual, cplx)) and len(dual) == len(cplx) == a.rows
    elif name == "mixed":
        assert len(shared) == 5  # the five simple complex eigenvalues
    elif name == "planted-hermitian":
        assert len(shared) == len(cplx) == 3
    rows = [_block_row(p.vector.standard, dual[0].vector.standard.base) for p in dual + cplx]
    # one row of the block per pair object, so a shared pair is one row
    assert len(set(rows)) == len({id(p) for p in dual + cplx})


@pytest.mark.parametrize("name,a", ASSEMBLY_CASES, ids=[c[0] for c in ASSEMBLY_CASES])
def test_pair_residual_is_its_column_of_the_block_residual(name, a):
    # each residual is, bit for bit, its row's column norm of the one dual
    # residual of the block the vectors view, so value, vector and residual
    # of a pair come from the same column; verify_eigenpair recomputes it
    # with a matrix-vector product, which agrees to rounding
    pairs = {id(p): p for p in sum(right_eigs(a), [])}.values()
    block_st = next(iter(pairs)).vector.standard.base
    block_inf = next(iter(pairs)).vector.infinitesimal.base
    by_row = {_block_row(p.vector.standard, block_st): p for p in pairs}
    assert sorted(by_row) == list(range(block_st.shape[0]))
    ordered = [by_row[k] for k in range(block_st.shape[0])]
    lam = np.array([p.value.standard for p in ordered])
    lam_inf = np.array([p.value.infinitesimal for p in ordered])
    rs, ri = dual_residual(a, (np.ascontiguousarray(block_st.T), np.ascontiguousarray(block_inf.T)),
                           (lam, lam_inf), axis=0)
    a_scale = np.linalg.norm(a.standard) + np.linalg.norm(a.infinitesimal)
    for k, p in enumerate(ordered):
        assert p.residual == (rs[k], ri[k])
        scale = (a_scale + abs(p.value.standard) + abs(p.value.infinitesimal)) * (
            1 + np.linalg.norm(p.vector.standard) + np.linalg.norm(p.vector.infinitesimal))
        bound = 64 * a.rows * _EPS * scale
        again = verify_eigenpair(a, p.value, p.vector)
        assert abs(again[0] - p.residual[0]) <= bound and abs(again[1] - p.residual[1]) <= bound
