"""One residual pair per decomposition, and the factors through phi.

herm_spectral and dc_svd report the pair that verify_spectral and
verify_svd recompute, bit for bit, and `dctool verify` writes the residual
the result document stores.  phi (oracle.phi) re-checks the factors of
herm_spectral, dc_svd and mat_inv, and the pair and gate of
matrix.factor_residual, with plain numpy products that share no code with
the library's product rule.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import FIXTURES, cgauss
from dclinalg import (
    AccuracyError,
    DCMatrix,
    SingularBlock,
    SpectralBlock,
    assemble_blocks,
    assemble_layout,
    dc_svd,
    gen_random,
    herm_spectral,
    is_hermitian,
    jsonio,
    mat_inv,
    mat_mul,
    verify_spectral,
    verify_svd,
)
from dclinalg.cli import main
from dclinalg.matrix import _hermitian_halves, _sandwich, factor_residual, hermitian_residual
from dclinalg.spectral import _diagonals
from oracle import phi

EPS = np.finfo(float).eps
PLANTED_SUB = (SpectralBlock("Eigen", 2.0), SpectralBlock("Sub", 2.0, 0.7 + 0.3j),
               SpectralBlock("Sub", 2.0, 0.4), SpectralBlock("Eigen", -1.0),
               SpectralBlock("Sub", 0.5, 1.1j), SpectralBlock("Eigen", 1.3))
PLANTED_SVD = (SingularBlock(3.0, .7), SingularBlock(3.0), SingularBlock(1.5),
               SingularBlock(1.0, .2))


def similar(blocks, seed):
    n = sum(b.dim for b in blocks)
    u = gen_random("unitary", n, n, seed)
    return mat_mul(mat_mul(u, assemble_blocks(blocks)), conj_t(u))


def conj_t(a: DCMatrix) -> DCMatrix:
    """A* = conj(A_st)^T - A_I^T eps*j, written out."""
    return DCMatrix(a.standard.conj().T, -a.infinitesimal.T)


def rank_deficient(rng, m, n, rank):
    return DCMatrix(cgauss(rng, m, rank) @ cgauss(rng, rank, n), cgauss(rng, m, n))


def fixture_matrices():
    return {p.stem: jsonio.decode_matrix(json.loads(p.read_text()))
            for p in sorted(FIXTURES.glob("*.json"))}


def hermitian_cases():
    cases = {name: a for name, a in fixture_matrices().items() if is_hermitian(a)}
    for seed in range(3):
        cases[f"hermitian-{seed}"] = gen_random("hermitian", 12, 12, 70 + seed)
        cases[f"planted-sub-{seed}"] = similar(PLANTED_SUB, 80 + seed)
    cases["psd-rank-deficient"] = mat_mul(
        conj_t(rank_deficient(np.random.default_rng(90), 5, 9, 5)),
        rank_deficient(np.random.default_rng(90), 5, 9, 5))
    return cases


def svd_cases():
    cases = dict(fixture_matrices())
    rng = np.random.default_rng(91)
    for m, n in ((9, 5), (5, 9), (7, 7)):
        cases[f"general-{m}x{n}"] = DCMatrix(cgauss(rng, m, n), cgauss(rng, m, n))
    cases["rank-deficient-tall"] = rank_deficient(rng, 10, 7, 3)
    cases["rank-deficient-wide"] = rank_deficient(rng, 6, 11, 4)
    layout = assemble_layout(8, 7, PLANTED_SVD, (.9,))
    cases["planted-coupled"] = mat_mul(mat_mul(gen_random("unitary", 8, 8, 92), layout),
                                       conj_t(gen_random("unitary", 7, 7, 93)))
    cases.update({f"planted-sub-{seed}": similar(PLANTED_SUB, 94 + seed) for seed in range(2)})
    return cases


HERMITIAN = hermitian_cases()
SVD = svd_cases()


@pytest.mark.parametrize("name", sorted(HERMITIAN))
def test_spectral_residual_is_what_verify_recomputes(name):
    a = HERMITIAN[name]
    dec = herm_spectral(a)
    assert dec.residual == verify_spectral(a, dec)
    assert max(dec.residual) <= 1e-12 * (1 + np.linalg.norm(phi(a)))


@pytest.mark.parametrize("name", sorted(SVD))
def test_svd_residual_is_what_verify_recomputes(name):
    a = SVD[name]
    res = dc_svd(a)
    assert res.residual == verify_svd(a, res)
    assert max(res.residual) <= 1e-12 * (1 + np.linalg.norm(phi(a)))


@pytest.mark.parametrize("command, kind, shape", [
    ("spectral", "hermitian", (7, 7)), ("spectral", "psd", (6, 6)),
    ("svd", "general", (8, 5)), ("svd", "general", (5, 8)), ("svd", "hermitian", (6, 6))])
def test_dctool_verify_writes_the_stored_residual(tmp_path, command, kind, shape):
    src, out, check = tmp_path / "a.json", tmp_path / "out.json", tmp_path / "verify.json"
    assert main(["gen", "--kind", kind, "--m", str(shape[0]), "--n", str(shape[1]),
                 "--seed", "12", "--output", str(src)]) == 0
    assert main([command, "--input", str(src), "--output", str(out)]) == 0
    assert main(["verify", "--input", str(out), "--output", str(check)]) == 0
    assert json.loads(check.read_text())["residual"] == json.loads(out.read_text())["residual"]


# ------------------------------------------------------------ the gate raises

def _turned(u, theta=1e-6):
    """u with its first two columns turned by a plane rotation through theta."""
    g = np.eye(u.shape[-1])
    g[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return u @ g


def _turn_eigh(monkeypatch):
    eigh = np.linalg.eigh

    def turned_eigh(a):
        w, v = eigh(a)
        return w, _turned(v)

    monkeypatch.setattr(np.linalg, "eigh", turned_eigh)


def test_spectral_gate_raises_on_a_turned_eigenbasis(monkeypatch):
    # eigh's eigenvectors off by 1e-6 leave a residual of about 2e-6 on a
    # bound of about 7e-9: a wrong factor raises, it is not returned
    _turn_eigh(monkeypatch)
    with pytest.raises(AccuracyError, match="exceeds its bound"):
        herm_spectral(gen_random("hermitian", 6, 6, 1))


def test_svd_gate_raises_on_turned_left_factors(monkeypatch):
    svd, calls = np.linalg.svd, []

    def turned_svd(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        calls.append(a.shape)
        return (_turned(u) if len(calls) == 1 else u), s, vh

    monkeypatch.setattr(np.linalg, "svd", turned_svd)
    with pytest.raises(AccuracyError, match="exceeds its bound"):
        dc_svd(gen_random("general", 5, 4, 2))
    assert calls[0] == (5, 4)  # the SVD of A_st is the one turned


def test_dctool_spectral_of_a_failed_gate_exits_numerical_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    src, out = tmp_path / "a.json", tmp_path / "out" / "spectral.json"
    src.write_text(jsonio.dumps(jsonio.encode_matrix(gen_random("hermitian", 6, 6, 1))))
    _turn_eigh(monkeypatch)
    assert main(["spectral", "--input", str(src), "--output", str(out)]) == 3
    assert "AccuracyError" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.rglob("tmp*.tmp"))


# ------------------------------------------------------------- through phi

def phi_layout(m, n, pairs, tail=()):
    """phi of the m x n layout with (value, coupling) blocks, then tail*eps*j, by hand."""
    st, inf = np.zeros((m, n), dtype=complex), np.zeros((m, n), dtype=complex)
    off = 0
    for value, coupling in pairs:
        for i in range(1 if coupling is None else 2):
            st[off + i, off + i] = value
        if coupling is not None:
            inf[off, off + 1], inf[off + 1, off] = coupling, -coupling
        off += 1 if coupling is None else 2
    for i, d in enumerate(tail):
        inf[off + i, off + i] = d
    return np.block([[st, inf], [np.zeros_like(st), np.conj(st)]])


def phi_parts(p, m, n):
    """The (standard, infinitesimal) parts of phi(X) for an m x n X."""
    return p[:m, :n], p[:m, n:]


def phi_two_sided(a, u, v, pl):
    """phi(U*) phi(A) phi(V) - phi(L) and phi(U*) phi(U) - I, U* written out."""
    pu_star = phi(conj_t(u))
    return (pu_star @ phi(a) @ phi(v) - pl,
            pu_star @ phi(u) - np.eye(2 * u.rows))


def assert_small(p, n, scale):
    """||p|| within rounding error of n-term sums of size scale."""
    assert np.linalg.norm(p) <= 4 * n * EPS * scale


def factor_scale(a, u_inf, v_inf):
    return (1 + np.linalg.norm(phi(a))) * (1 + np.linalg.norm(u_inf) + np.linalg.norm(v_inf))


@pytest.mark.parametrize("name", sorted(HERMITIAN))
def test_spectral_factors_through_phi(name):
    a = HERMITIAN[name]
    dec = herm_spectral(a)
    pl = phi_layout(a.rows, a.rows, [(b.lam, b.mu) for b in dec.blocks])
    two_sided, defect = phi_two_sided(a, dec.U, dec.U, pl)
    scale = factor_scale(a, dec.U.infinitesimal, dec.U.infinitesimal)
    assert_small(two_sided, a.rows, scale)
    assert_small(defect, a.rows, scale)


@pytest.mark.parametrize("name", sorted(SVD))
def test_svd_factors_through_phi(name):
    a = SVD[name]
    res = dc_svd(a)
    m, n = a.shape
    pl = phi_layout(m, n, [(b.sigma, b.nu) for b in res.standard_blocks],
                    res.infinitesimal_values)
    two_sided, u_defect = phi_two_sided(a, res.U, res.V, pl)
    scale = factor_scale(a, res.U.infinitesimal, res.V.infinitesimal)
    assert_small(two_sided, max(m, n), scale)
    assert_small(u_defect, max(m, n), scale)
    assert_small(phi(conj_t(res.V)) @ phi(res.V) - np.eye(2 * n), max(m, n), scale)


@pytest.mark.parametrize("seed", range(4))
def test_mat_inv_through_phi(seed):
    rng = np.random.default_rng([95, seed])
    s = DCMatrix(cgauss(rng, 6, 6) + 3 * np.eye(6), cgauss(rng, 6, 6))
    ps, pinv = phi(s), phi(mat_inv(s))
    scale = np.linalg.norm(ps) * np.linalg.norm(pinv)
    assert_small(ps @ pinv - np.eye(12), 6, scale)
    assert_small(pinv @ ps - np.eye(12), 6, scale)


def assert_matches_phi(pair, gate, a, u, v, pairs, tail=(), atol=0.0):
    """A pair and gate on the m x n layout against phi's plain products.

    The reported pair is (||R_st||, ||T_I||) against the larger defect of U
    and V, with R = A V - U L and T = U* A V - L, and the gate bounds
    ||T_st||.  The pair agrees to rtol 1e-8, or to atol where a part
    vanishes identically and phi's products leave rounding error.
    """
    m, n = a.shape
    pl = phi_layout(m, n, pairs, tail)
    two_sided, u_defect = phi_two_sided(a, u, v, pl)
    v_defect = phi(conj_t(v)) @ phi(v) - np.eye(2 * n)
    r_st = phi_parts(phi(a) @ phi(v) - phi(u) @ pl, m, n)[0]
    t_st, t_inf = phi_parts(two_sided, m, n)
    defects = [phi_parts(u_defect, m, m), phi_parts(v_defect, n, n)]
    d_st, d_inf = (max(np.linalg.norm(d[i]) for d in defects) for i in (0, 1))
    np.testing.assert_allclose(pair, (max(np.linalg.norm(r_st), d_st),
                                      max(np.linalg.norm(t_inf), d_inf)), rtol=1e-8, atol=atol)
    assert np.linalg.norm(t_st) <= gate[0] and gate[1] == pair[1]
    assert gate[0] <= (1 + 1e-5) * max(np.linalg.norm(r_st), d_st) + d_st * np.linalg.norm(pl)


def assert_factor_residual_matches_phi(a, u, v, pairs, tail=()):
    """factor_residual's pair and gate against phi's plain products (assert_matches_phi)."""
    pair, gate = factor_residual(a, u, v, *_diagonals(min(a.shape), pairs, tail))
    assert_matches_phi(pair, gate, a, u, v, pairs, tail)


def perturbed(f, rng):
    """f with both parts moved by 1e-6 times a complex Gaussian."""
    return DCMatrix(f.standard + 1e-6 * cgauss(rng, *f.shape),
                    f.infinitesimal + 1e-6 * cgauss(rng, *f.shape))


@pytest.mark.parametrize("name", ["hermitian-0", "planted-sub-1"])
def test_factor_residual_against_phi_on_a_perturbed_factor(name):
    # a factor off by 1e-6 puts every quantity far above rounding error, so
    # phi's plain products pin each one
    a = HERMITIAN[name]
    dec = herm_spectral(a)
    u = perturbed(dec.U, np.random.default_rng(96))
    assert_factor_residual_matches_phi(a, u, u, [(b.lam, b.mu) for b in dec.blocks])


HERMITIAN_LAYOUTS = {
    "empty": (),
    "eigen-1": (SpectralBlock("Eigen", 0.8),),
    "eigen-6": tuple(SpectralBlock("Eigen", lam) for lam in (2.0, 1.1, 0.4, -0.3, -1.2, -2.5)),
    "sub-6": (SpectralBlock("Sub", 1.5, 0.6 + 0.2j), SpectralBlock("Sub", 0.2, 1.1j),
              SpectralBlock("Sub", -1.0, 0.9)),
    "mixed-6": (SpectralBlock("Eigen", 2.0), SpectralBlock("Sub", 0.7, 0.8 - 0.5j),
                SpectralBlock("Eigen", -0.4), SpectralBlock("Sub", -1.6, 1.2)),
}


@pytest.mark.parametrize("name", sorted(HERMITIAN_LAYOUTS))
def test_hermitian_residual_against_phi_on_a_perturbed_factor(name):
    # the gate herm_spectral and verify_spectral share forms T_I as
    # S - S^T + K - L_I from A's Hermitian halves; on an exactly Hermitian
    # A those are A itself, and a factor off by 1e-6 lifts every quantity
    # far above rounding error, so phi's plain products with A pin each one
    blocks = HERMITIAN_LAYOUTS[name]
    b = similar(blocks, 99)
    a = DCMatrix((b.standard + b.standard.conj().T) / 2, (b.infinitesimal - b.infinitesimal.T) / 2)
    dec = herm_spectral(a)
    assert [blk.kind for blk in dec.blocks] == [blk.kind for blk in blocks]
    u = perturbed(dec.U, np.random.default_rng(100))
    h_st, h_inf, off = _hermitian_halves(a)
    assert off == (0.0, 0.0)
    pairs = [(blk.lam, blk.mu) for blk in dec.blocks]
    pair, gate = hermitian_residual(h_st, off, u, *_sandwich(h_inf, u.standard),
                                    *_diagonals(a.rows, pairs))
    # T_I and the defect's infinitesimal part are skew, so zero at n = 1
    assert_matches_phi(pair, gate, a, u, u, pairs, atol=1e-14)
    assert pair == verify_spectral(a, replace(dec, U=u))


@pytest.mark.parametrize("part, k", [("standard", 0), ("infinitesimal", 1)])
def test_verify_spectral_judges_a_itself(part, k):
    # an entry moved on one side only leaves A non-Hermitian by 1e-6, and the
    # residual verify_spectral recomputes for the original decomposition
    # must show it, not only the change to A's Hermitian part
    a = HERMITIAN["planted-sub-0"]
    dec = herm_spectral(a)
    parts = {"standard": a.standard.copy(), "infinitesimal": a.infinitesimal.copy()}
    parts[part][0, 1] += 1e-6
    moved = DCMatrix(parts["standard"], parts["infinitesimal"])
    assert max(verify_spectral(a, dec)) <= 1e-12
    assert verify_spectral(moved, dec)[k] >= 4e-7


def planted_svd(m, n, seed):
    """U L V* for the layout of PLANTED_SVD and D = (.9, .6) with random dual unitaries."""
    layout = assemble_layout(m, n, PLANTED_SVD, (.9, .6))
    return mat_mul(mat_mul(gen_random("unitary", m, m, seed), layout),
                   conj_t(gen_random("unitary", n, n, seed + 1)))


@pytest.mark.parametrize("shape", [(9, 8), (8, 9)], ids=["tall", "wide"])
def test_factor_residual_against_phi_on_perturbed_svd_factors(shape):
    # U and V apart, a (sigma, nu) block and a D tail off the square: the
    # O(k) entries of L_I sit where the layout puts them
    a = planted_svd(*shape, 97)
    res = dc_svd(a)
    assert any(b.nu is not None for b in res.standard_blocks) and res.infinitesimal_values
    rng = np.random.default_rng(98)
    assert_factor_residual_matches_phi(a, perturbed(res.U, rng), perturbed(res.V, rng),
                                       [(b.sigma, b.nu) for b in res.standard_blocks],
                                       res.infinitesimal_values)


def test_verify_spectral_sees_a_moved_coupling():
    a = HERMITIAN["planted-sub-0"]
    dec = herm_spectral(a)
    assert max(verify_spectral(a, dec)) <= 1e-12
    k = next(k for k, b in enumerate(dec.blocks) if b.kind == "Sub")
    blocks = list(dec.blocks)
    blocks[k] = SpectralBlock("Sub", blocks[k].lam, blocks[k].mu + 1e-6)
    assert verify_spectral(a, replace(dec, blocks=tuple(blocks)))[1] >= 1e-6


@pytest.mark.parametrize("move", ["nu", "d"])
def test_verify_svd_sees_a_moved_coupling_or_tail_value(move):
    a = planted_svd(9, 8, 97)
    res = dc_svd(a)
    assert max(verify_svd(a, res)) <= 1e-12
    if move == "nu":
        k = next(k for k, b in enumerate(res.standard_blocks) if b.nu is not None)
        blocks = list(res.standard_blocks)
        blocks[k] = SingularBlock(blocks[k].sigma, blocks[k].nu + 1e-6)
        moved = replace(res, standard_blocks=tuple(blocks))
    else:
        d = list(res.infinitesimal_values)
        d[-1] += 1e-6
        moved = replace(res, infinitesimal_values=tuple(d))
    assert verify_svd(a, moved)[1] >= 1e-6
