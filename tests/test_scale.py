"""Scale-free decisions: A_st + A_I eps*j and c A_st + c t A_I eps*j give one answer.

eps -> t eps is an automorphism of the dual complex numbers and A -> c A
scales every factor, so block kinds, ranks, pair counts and verdicts must
not move with c or t.  Each case is answered at c = t = 1 first, and the
scaled answers are held to it; oracle.sub_count and oracle.phi check the
unit-scale answer and the scaled factors.  A last test walks the package's
syntax tree: every cutoff built from a Tolerances field goes through the
rule helpers in matrix.py.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from dclinalg import (
    DCMatrix,
    DualComplex,
    SingularBlock,
    assemble_layout,
    classify_multiplicity,
    conj_transpose,
    dc_similar,
    dc_svd,
    double_eig_classify,
    gen_random,
    herm_spectral,
    is_hermitian,
    is_pd,
    is_psd,
    jsonio,
    mat_mul,
    right_eigs,
    subeigenpairs,
)
from dclinalg.cli import main
from test_spectral import THEOREM_SEEDS, graded_hermitian, kron_ex2, planted_theorem_case

SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]
GRID = [(c, t) for c in SCALES for t in SCALES]


def scaled(a, c, t):
    return DCMatrix(c * a.standard, c * t * a.infinitesimal)


def kinds(dec):
    return [b.kind for b in dec.blocks]


def phi_defect(a, dec, c, t):
    """||phi(U)* phi(A) phi(U) - phi(Sigma)|| / ||phi(A)|| at unit scale.

    U and the blocks of the decomposition of the scaled A are scaled back
    by the automorphism, U_I / t, lam / c and mu / (c t), and held to A.
    """
    u = DCMatrix(dec.U.standard, dec.U.infinitesimal / t)
    n = a.rows
    sigma = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    at = 0
    for b in dec.blocks:
        sigma[0][at:at + b.dim, at:at + b.dim] = np.eye(b.dim) * (b.lam / c)
        if b.kind == "Sub":
            sigma[1][at, at + 1], sigma[1][at + 1, at] = b.mu / (c * t), -b.mu / (c * t)
        at += b.dim
    pu, pa = oracle.phi(u), oracle.phi(a)
    t_mat = oracle.phi(conj_transpose(u)) @ pa @ pu - oracle.phi(DCMatrix(*sigma))
    return np.linalg.norm(t_mat) / np.linalg.norm(pa)


def svd_phi_defect(a, res, c, t):
    """||phi(U)* phi(A) phi(V) - phi(L)|| / ||phi(A)|| at unit scale, as phi_defect."""
    u, v = (DCMatrix(f.standard, f.infinitesimal / t) for f in (res.U, res.V))
    layout = assemble_layout(
        *a.shape, [SingularBlock(b.sigma / c, None if b.nu is None else b.nu / (c * t))
                   for b in res.standard_blocks],
        [d / (c * t) for d in res.infinitesimal_values])
    pa = oracle.phi(a)
    t_mat = oracle.phi(conj_transpose(u)) @ pa @ oracle.phi(v) - oracle.phi(layout)
    return np.linalg.norm(t_mat) / np.linalg.norm(pa)


HERMITIAN = {
    "hermitian-6": lambda: gen_random("hermitian", 6, 6, 1),
    "kron-ex2-3": lambda: kron_ex2(3, 933),
    "kron-ex2-1": lambda: kron_ex2(1, 931),
    "graded": lambda: graded_hermitian(1),
    "planted-901": lambda: planted_theorem_case(901)[0],
    "planted-913": lambda: planted_theorem_case(913)[0],
}


@pytest.mark.parametrize("name", HERMITIAN)
def test_hermitian_routines_answer_as_at_unit_scale(name):
    a = HERMITIAN[name]()
    ref = herm_spectral(a)
    # the unit answer against phi's kernel, level by level; phi's kernel
    # cuts at 1e-8 (1 + ||phi(A)||) and cannot see graded's Sub at 1e-9
    for lam in sorted({b.lam for b in ref.blocks}) if name != "graded" else ():
        p, k = classify_multiplicity(ref, lam)
        assert oracle.sub_count(a, lam, p) == k
    ref_pairs = [len(x) for x in right_eigs(a)]
    ref_flags = (is_hermitian(a), is_psd(a), is_pd(a))
    for c, t in GRID:
        b = scaled(a, c, t)
        dec = herm_spectral(b)
        assert kinds(dec) == kinds(ref), (c, t)
        np.testing.assert_allclose([x.lam / c for x in dec.blocks], [x.lam for x in ref.blocks],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose([abs(x.mu) / (c * t) for x in dec.blocks if x.mu],
                                   [abs(x.mu) for x in ref.blocks if x.mu], rtol=0,
                                   atol=1e-12 * np.linalg.norm(a.infinitesimal))
        assert phi_defect(a, dec, c, t) <= 1e-12, (c, t)
        assert [len(x) for x in right_eigs(b)] == ref_pairs, (c, t)
        assert (is_hermitian(b), is_psd(b), is_pd(b)) == ref_flags, (c, t)


def rank_deficient():
    """Q diag(3, 2, 1, 0.5, 0, 0) + G eps*j: standard rank 4, a 2 x 2 corner at zero."""
    q = np.linalg.qr(gen_random("general", 6, 6, 4).standard)[0]
    return DCMatrix(q @ np.diag([3.0, 2.0, 1.0, 0.5, 0.0, 0.0]),
                    gen_random("general", 6, 6, 5).infinitesimal)


GENERAL = {
    "general-8": lambda: gen_random("general", 8, 8, 3),
    "general-6x5": lambda: gen_random("general", 6, 5, 2),
    "rank-deficient": rank_deficient,
}


def svd_answer(res):
    return (res.standard_rank, res.infinitesimal_rank, [b.dim for b in res.standard_blocks])


@pytest.mark.parametrize("name", GENERAL)
def test_svd_and_right_eigs_answer_as_at_unit_scale(name):
    a = GENERAL[name]()
    ref = dc_svd(a)
    square = a.rows == a.cols
    ref_pairs = [len(x) for x in right_eigs(a)] if square else None
    for c, t in GRID:
        b = scaled(a, c, t)
        res = dc_svd(b)
        assert svd_answer(res) == svd_answer(ref), (c, t)
        np.testing.assert_allclose([x.sigma / c for x in res.standard_blocks],
                                   [x.sigma for x in ref.standard_blocks], rtol=1e-9)
        if square:
            assert [len(x) for x in right_eigs(b)] == ref_pairs, (c, t)


def run(tmp_path, *argv):
    return main([*argv[:1], "--input", str(tmp_path / argv[1]), "--output",
                 str(tmp_path / argv[2])])


@pytest.mark.parametrize("command, name", [("spectral", "hermitian-6"), ("spectral", "kron-ex2-3"),
                                           ("svd", "general-6x5"), ("eig", "general-8")])
def test_dctool_and_verify_answer_as_at_unit_scale(tmp_path, command, name):
    a = {**HERMITIAN, **GENERAL}[name]()
    answers = []
    for c, t in GRID:
        (tmp_path / "a.json").write_text(json.dumps(jsonio.encode_matrix(scaled(a, c, t))))
        code = run(tmp_path, command, "a.json", "out.json")
        answers.append((code, run(tmp_path, "verify", "out.json", "v.json")))
        assert json.loads((tmp_path / "v.json").read_text())["ok"] is True
    assert answers == [(0, 0)] * len(GRID)


def spread_level(delta, seed):
    """W diag(1, 1 + delta, -1, 0.5) W* + 1e-3 K eps*j, K skew: one level spread by delta."""
    w = gen_random("unitary", 4, 4, seed).standard
    return DCMatrix(w @ np.diag([1.0, 1.0 + delta, -1.0, 0.5]) @ w.conj().T,
                    1e-3 * gen_random("hermitian", 4, 4, seed + 1).infinitesimal)


def planted_singular(values, seed):
    """P diag(values) Q* + 1e-3 G eps*j, 4 x 3, P and Q unitary."""
    p, q = (gen_random("unitary", n, n, seed + n).standard for n in (4, 3))
    return DCMatrix(p[:, :3] @ np.diag(values) @ q.conj().T,
                    1e-3 * gen_random("general", 4, 3, seed).infinitesimal)


# spreads inside a cluster and singular values at or below the rank cut,
# between resid_tol (1e-9) and the cluster cut (1e-8) or the rank cut (1e-7)
DROPPED = {
    "spectral-spread-2e-9": ("spectral", lambda: spread_level(2e-9, 3301)),
    "spectral-spread-9e-9": ("spectral", lambda: spread_level(9e-9, 3303)),
    "svd-spread-9e-9": ("svd", lambda: planted_singular([1.0 + 9e-9, 1.0, 0.5], 3305)),
    "svd-sigma-5e-9": ("svd", lambda: planted_singular([1.0, 0.5, 5e-9], 3307)),
    "svd-sigma-5e-8": ("svd", lambda: planted_singular([1.0, 0.5, 5e-8], 3309)),
}


@pytest.mark.parametrize("name", DROPPED)
def test_verify_passes_every_document_its_decomposition_writes(tmp_path, name):
    # verify holds a document to the gate its decomposition passed, with
    # what that decomposition drops by design, at every scale
    command, make = DROPPED[name]
    a = make()
    for c, t in GRID:
        (tmp_path / "a.json").write_text(json.dumps(jsonio.encode_matrix(scaled(a, c, t))))
        assert run(tmp_path, command, "a.json", "out.json") == 0, (c, t)
        assert run(tmp_path, "verify", "out.json", "v.json") == 0, (c, t)
        assert json.loads((tmp_path / "v.json").read_text())["ok"] is True


@pytest.mark.parametrize("t", [1e-170, 1e-200])
def test_infinitesimal_parts_whose_plain_norm_underflows_keep_their_blocks(t):
    # np.linalg.norm reads ||A_I|| as 0 here, which judged the stage 3
    # blocks against 1: six Eigen blocks and six 1 x 1 singular blocks
    a = kron_ex2(3, 933)
    b = scaled(a, 1.0, t)
    dec = herm_spectral(b)
    assert kinds(dec) == ["Sub"] * 3
    np.testing.assert_allclose([abs(x.mu) / t for x in dec.blocks], 1.0, rtol=1e-12)
    assert phi_defect(a, dec, 1.0, t) <= 1e-12
    res = dc_svd(b)
    assert [x.dim for x in res.standard_blocks] == [2] * 3
    np.testing.assert_allclose([abs(x.nu) / t for x in res.standard_blocks], 1.0, rtol=1e-12)
    assert svd_phi_defect(a, res, 1.0, t) <= 1e-12
    pair = scaled(kron_ex2(1, 931), 1.0, t)
    v = np.linalg.eigh(pair.standard)[1]
    assert double_eig_classify(pair, v[:, 0], v[:, 1]).kind == "DoubleSub"


# ------------------------------------------ the per-eigenvalue helpers agree

AGREEMENT = {**{f"kron-ex2-1-{seed}": (lambda seed=seed: kron_ex2(1, seed))
                for seed in (931, 932, 933)},
             **{f"graded-{seed}": (lambda seed=seed: graded_hermitian(seed)) for seed in (1, 2)},
             **{f"planted-{seed}": (lambda seed=seed: planted_theorem_case(seed)[0])
                for seed in (901, 902, 905, 906, 909, 913)}}


@pytest.mark.parametrize("name", AGREEMENT)
def test_helpers_agree_with_herm_spectral_on_every_level(name):
    # each Sub block's two columns of U_st classify as DoubleSub with its
    # |mu|, two Eigen columns of one level as DoubleEigen, and
    # classify_multiplicity counts the level's Sub blocks
    a = AGREEMENT[name]()
    for c, t in [(1.0, 1.0), (1.0, 1e-9), (1.0, 1e-10), (1.0, 1e-12), (1e-12, 1e12),
                 (1e6, 1e-6), (1e-6, 1.0)]:
        b = scaled(a, c, t)
        dec = herm_spectral(b)
        for lam, mu, x, y in subeigenpairs(dec):
            res = double_eig_classify(b, x.standard[:, 0], y.standard[:, 0])
            assert res.kind == "DoubleSub", (c, t)
            assert abs(abs(res.mu) - abs(mu)) <= 1e-12 * np.linalg.norm(b.infinitesimal)
        cols = np.cumsum([0] + [blk.dim for blk in dec.blocks])
        for lam in {blk.lam for blk in dec.blocks}:
            at = [cols[k] for k, blk in enumerate(dec.blocks)
                  if blk.lam == lam and blk.kind == "Eigen"]
            for j, k in zip(at[:-1], at[1:]):
                res = double_eig_classify(b, dec.U.standard[:, j], dec.U.standard[:, k])
                assert res.kind == "DoubleEigen", (c, t)
            level = [blk for blk in dec.blocks if blk.lam == lam]
            assert classify_multiplicity(dec, lam) == (sum(blk.dim for blk in level),
                                                       sum(blk.kind == "Sub" for blk in level))


@pytest.mark.parametrize("seed", THEOREM_SEEDS)
def test_theorems_hold_at_every_scale(seed):
    # the counting, definiteness and diagonalizability theorems of
    # test_spectral on the planted cases, scaled
    h, levels = planted_theorem_case(seed)
    for c, t in GRID:
        b = scaled(h, c, t)
        dec = herm_spectral(b)
        for lam, (n_eig, n_sub) in levels.items():
            assert classify_multiplicity(dec, c * lam) == (n_eig + 2 * n_sub, n_sub), (c, t)
        assert is_psd(b) == all(lam >= 0 for lam in levels)
        assert is_pd(b) == all(lam > 0 for lam in levels)
        no_sub = all(n_sub == 0 for _, n_sub in levels.values())
        assert no_sub == all(k == "Eigen" for k in kinds(dec))
        dual, cplx = right_eigs(b)
        assert no_sub == (len(dual) == h.rows)
        assert len(cplx) == sum(n_eig > 0 for n_eig, _ in levels.values())


# ----------------------------------------------------------------- dc_similar

def similar_cases(seed):
    """(p, q, similar) triples: conjugates u^-1 p u, and pairs that differ."""
    rng = np.random.default_rng(seed)

    def cplx():
        return complex(*rng.standard_normal(2))

    for _ in range(6):
        p, u = DualComplex(cplx(), cplx()), DualComplex(cplx(), cplx())
        q = DualComplex(u.standard.conjugate() / abs(u.standard) ** 2,
                        -u.infinitesimal / abs(u.standard) ** 2) * p * u
        yield p, q, True
        yield p, DualComplex(1.5 * p.standard, p.infinitesimal), False
        real = abs(p.standard)  # on the real axis only |p_I| is invariant
        yield (DualComplex(real, p.infinitesimal),
               DualComplex(real, p.infinitesimal * np.exp(1j * rng.uniform(0, 6))), True)
        yield DualComplex(real, p.infinitesimal), DualComplex(real, 3 * p.infinitesimal), False


@pytest.mark.parametrize("seed", [1470, 1471])
def test_dc_similar_answers_as_at_unit_scale(seed):
    for p, q, similar in similar_cases(seed):
        for c, t in GRID:
            ps, qs = (DualComplex(c * x.standard, c * t * x.infinitesimal) for x in (p, q))
            w = dc_similar(ps, qs)
            assert (w is not None) == similar, (p, q, c, t)
            if w is not None:
                r = ps * w - w * qs
                assert abs(r.standard) <= 1e-8 * c and abs(r.infinitesimal) <= 1e-8 * c * t


def test_dc_similar_of_tiny_distinct_numbers_is_none():
    # the absolute cuts found a witness for both pairs
    assert dc_similar(DualComplex(2e-12), DualComplex(3e-12)) is None
    assert dc_similar(DualComplex(2, 1e-12), DualComplex(2, 3e-12)) is None
    assert dc_similar(DualComplex(2), DualComplex(3)) is None
    assert dc_similar(DualComplex(2, 1), DualComplex(2, 3)) is None


# ----------------------------------------------------- the probes, seeded

def test_probes_that_moved_with_scale():
    h6 = scaled(gen_random("hermitian", 6, 6, 1), 1e-12, 1.0)
    assert kinds(herm_spectral(h6)) == ["Eigen"] * 6
    assert kinds(herm_spectral(scaled(kron_ex2(3, 933), 1.0, 1e-12))) == ["Sub"] * 3
    for c in (1e-8, 1.0, 1e8):
        assert len(right_eigs(scaled(gen_random("general", 8, 8, 3), c, 1.0))[0]) == 8
    w = gen_random("unitary", 8, 8, 5)
    b = mat_mul(mat_mul(w, gen_random("hermitian", 8, 8, 2)), conj_transpose(w))
    assert is_hermitian(scaled(b, 1e6, 1.0)) and herm_spectral(scaled(b, 1e6, 1.0))
    for t in (1.0, 1e-9, 1e-10, 1e-12):
        a = scaled(kron_ex2(1, 931), 1.0, t)
        dec = herm_spectral(a)
        v = np.linalg.eigh(a.standard)[1]
        assert kinds(dec) == ["Sub"]
        assert double_eig_classify(a, v[:, 0], v[:, 1]).kind == "DoubleSub"
        assert classify_multiplicity(dec, 1.0) == (2, 1)


# ------------------------------------------- one place for the cutoff rule

SRC = Path(__file__).resolve().parent.parent / "src" / "dclinalg"
FIELDS = {"group_tol", "resid_tol", "zero_tol"}
RULE_HELPERS = {"_cluster_tol", "_null_cut", "_resid_bound"}


def tolerance_reads(tree):
    """(function, line) of every read of a Tolerances field outside the allowed places."""
    out = []

    def walk(node, where):
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            return  # the fields' definitions and their own validation
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in FIELDS and where not in RULE_HELPERS:
            out.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(tree, "<module>")
    return out


def test_every_tolerance_read_goes_through_the_rule_helpers():
    # cli parses the flags and DCTOOL_TOL by the fields' names, as strings,
    # and reads no field
    reads = {path.name: tolerance_reads(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}
    helpers = ast.parse((SRC / "matrix.py").read_text())
    assert RULE_HELPERS <= {f.name for f in helpers.body if isinstance(f, ast.FunctionDef)}


def test_the_guard_sees_a_private_cutoff():
    tree = ast.parse("def f(tol):\n    return tol.resid_tol * 2\n"
                     "def _null_cut(tol, n, s):\n    return tol.zero_tol * s\n")
    assert tolerance_reads(tree) == [("f", 2)]
