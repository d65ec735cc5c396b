"""Singular value decomposition of general dual complex matrices.

U* A V is reduced to a block layout with an r x r leading block Sigma_r of
positive standard singular values (1x1 blocks sigma, or coupled 2x2 blocks
(sigma, nu)), followed by a p x p purely infinitesimal diagonal D*eps*j,
and zeros elsewhere.  The construction starts from one complex SVD
A_st = P S Q* and B = P* A_I conj(Q), and runs the three stages of the
spectral decomposition, with its helpers for stages 1 and 3 (spectral.py):

1. the singular values above the rank cutoff, which is at least 10 tau,
   form the positive clusters (_clusters, tau = _cluster_tol(sigma_1)); the
   rest form one more cluster, at zero, which the last positive one must
   stand 10 tau clear of;
2. U = P (I + X eps*j) and V = Q (I + Y eps*j), with X and Y complex
   symmetric, turn the infinitesimal part of U* A V into B + S Y - X S
   (_solve_xy).  One array solve of the 2x2 systems of the entry pairs
   (i, j), (j, i) of B's k x k block, whose determinant is sigma_i^2 -
   sigma_j^2, zeroes it between clusters; inside a positive cluster it
   removes the symmetric part of B's block.  Against the extra rows of a
   tall input X is B_ij / sigma_j, against the extra columns of a wide one
   Y is -B_ji / sigma_j;
3. each positive cluster's remaining skew block goes to canonical form
   (_canonical_blocks), rotating the columns of U and V alike, each block
   judged against ||A_I||.  The corner at zero keeps its infinitesimal
   part, whose complex SVD gives D, the values above the null cut of
   ||A_I||; its standard part, at most the cutoff, is dropped.

The four factor parts are frozen as computed, with no copy.  The residual
pair is that of matrix.factor_residual, which verify_svd recomputes, so
the residual an svd document stores is what `dctool verify` writes for
it: the standard part of the one-sided residual R = A V - U L, the
infinitesimal part of the two-sided T = U* A V - L, formed directly, and
the unitarity defects of U and V, 9 complex products in all.  A gate
above its bound raises AccuracyError, and so do entries too large for the
arithmetic, before any of it, and an A_st so small against A_I that X and
Y, which scale as A_I / sigma, leave that range.  The bound allows what
the layout drops by design (_dropped), and `dctool verify` holds a
document to the same gate, with those parts measured from A alone
(_judge_svd).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, ShapeMismatch
from .matrix import (DCMatrix, _check_range, _check_values, _checked, _cluster_tol, _norm,
                     _null_cut, _range_limit, _unit, _verdict, check_residual, factor_residual)
from .scalar import DEFAULT_TOL, Tolerances
from .spectral import _block_diagonal, _canonical_blocks, _clusters, _diagonals


@dataclass(frozen=True)
class SingularBlock:
    """Standard singular value block: sigma alone, or sigma coupled with nonzero nu."""

    sigma: float
    nu: Optional[complex] = None

    @property
    def dim(self) -> int:
        return 1 if self.nu is None else 2


@dataclass(frozen=True)
class SvdResult:
    U: DCMatrix
    V: DCMatrix
    standard_blocks: tuple[SingularBlock, ...]
    infinitesimal_values: tuple[float, ...]
    standard_rank: int
    infinitesimal_rank: int
    residual: tuple[float, float]


def assemble_layout(m: int, n: int, standard_blocks, infinitesimal_values) -> DCMatrix:
    """The m x n block layout: Sigma_r, then D*eps*j, then zeros."""
    return _block_diagonal(m, n, [(b.sigma, b.nu) for b in standard_blocks],
                           infinitesimal_values)


def _rank(s: np.ndarray, dim: int, tol: Tolerances) -> int:
    """How many of the descending s lie above the rank cutoff of a dim-wide A_st.

    The cutoff is the null cut of sigma_1, and at least 10 tau: a value
    within 10 tau = 10 _cluster_tol(sigma_1) of zero joins the cluster at
    zero, which the gap rule would otherwise make stand 10 tau clear.
    """
    smax = float(s[0]) if s.size else 0.0
    return int(np.sum(s > max(_null_cut(tol, dim, smax), 10 * _cluster_tol(tol, smax))))


def _singular_clusters(s: np.ndarray, dim: int, tol: Tolerances):
    """Stage 1 of dc_svd on the descending singular values s of a dim-wide A_st.

    Returns (r, starts, sizes, reps).  The values at or below the rank
    cutoff form one more cluster, at zero, which the last positive cluster
    must stand 10 tau clear of.  Any value above the cutoff stands that far
    from 0, so only a member of the cluster at zero can fail the last gap.
    """
    r = _rank(s, dim, tol)
    tau = _cluster_tol(tol, float(s[0]) if s.size else 0.0)
    return (r, *_clusters(s, r, tau, 0.0, "singular value"))


def _null_rank(d: np.ndarray, dim: int, b_norm: float, tol: Tolerances) -> int:
    """How many of the corner's descending values d lie above the null cut of ||A_I|| = b_norm."""
    return int(np.sum(d > _null_cut(tol, dim, b_norm)))


def _dropped(s, r: int, sizes, reps, d, p: int):
    """What dc_svd's layout drops by design, for check_residual.

    That is, on the standard part, the spread of the positive clusters of
    the singular values s around the means reps that their blocks carry,
    and the values at or below the rank cutoff (_singular_clusters); on
    the infinitesimal part, the corner's values d past the p above the
    null cut (_null_rank).
    """
    kept = np.zeros(len(s))
    kept[:r] = np.repeat(reps, sizes)
    return float(np.linalg.norm(s - kept)), float(np.linalg.norm(d[p:]))


def standard_rank(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of positive standard singular values; the numerical rank of A_st.

    Entries too large for the arithmetic raise AccuracyError (_check_range),
    as in dc_svd, rather than a rank of 0 from an infinite sigma_1.
    """
    _check_range(a)
    return _rank(np.linalg.svd(a.standard, compute_uv=False), max(a.shape), tol)


def _residual(a: DCMatrix, u: DCMatrix, v: DCMatrix, blocks, inf_vals):
    """(pair, gate) of U* A V against the layout (matrix.factor_residual)."""
    return factor_residual(a, u, v, *_diagonals(min(a.shape), [(b.sigma, b.nu) for b in blocks],
                                                inf_vals))


def _recomputed(a: DCMatrix, res: SvdResult):
    """(pair, gate) of res against A, as verify_svd checks it."""
    if res.U.shape != (a.rows, a.rows) or res.V.shape != (a.cols, a.cols):
        raise ShapeMismatch("factors do not match the matrix shape")
    if res.standard_rank + res.infinitesimal_rank > min(a.shape):
        raise ShapeMismatch("layout is wider than the matrix: r + p exceeds min(m, n)")
    for name, m in (("", a), ("U's ", res.U), ("V's ", res.V)):
        _check_range(m, name)
    _check_values("a layout value", [v for b in res.standard_blocks for v in (b.sigma, b.nu or 0)]
                  + list(res.infinitesimal_values), max(a.shape))
    return _residual(a, res.U, res.V, res.standard_blocks, res.infinitesimal_values)


def verify_svd(a: DCMatrix, res: SvdResult):
    """The residual pair dc_svd reports, recomputed (matrix.factor_residual).

    A, U, V and the layout's values are range-checked on entry (_check_range).
    """
    return _recomputed(a, res)[0]


def _judge_svd(a: DCMatrix, res: SvdResult, tol: Tolerances):
    """(pair, verdict) of an svd document: `dctool verify`'s judgment.

    The gate is held to dc_svd's check_residual with no floor for rounding
    (_verdict): the same scales, and the same dropped parts (_dropped),
    measured from A alone, never from the document's layout.  A's singular
    values are cut and clustered by dc_svd's stage 1 (_singular_clusters),
    which raises IllConditionedGap where dc_svd would.  Below rank r, the
    corner P_r* A_I conj(Q_r) on the singular vectors past r gives D's
    values, cut by _null_rank.  verdict is None, or check_residual's
    message.
    """
    pair, gate = _recomputed(a, res)
    k, big = min(a.shape), max(a.shape)
    s = np.linalg.svd(a.standard, compute_uv=False)
    r, _, sizes, reps = _singular_clusters(s, big, tol)
    b_norm, d = _norm(a.infinitesimal), np.zeros(0)
    if r < k:
        p_st, _, qh = np.linalg.svd(a.standard)
        d = np.linalg.svd(p_st[:, r:].conj().T @ a.infinitesimal @ qh[r:].T, compute_uv=False)
    return pair, _verdict(gate, big, (float(np.linalg.norm(s)), b_norm),
                         float(np.linalg.norm(res.U.infinitesimal))
                         + float(np.linalg.norm(res.V.infinitesimal)),
                         _dropped(s, r, sizes, reps, d, _null_rank(d, big, b_norm, tol)), tol)


def _solve_xy(s: np.ndarray, b: np.ndarray, r: int, starts, sizes):
    """Stage 2: (X, Y, skew) for U = P (I + X eps*j), V = Q (I + Y eps*j).

    X (m x m) and Y (n x n) are complex symmetric and turn the
    infinitesimal part of U* A V into B + S Y - X S.  Padded to big x big,
    with S zero past k, the pair (i, j), (j, i) of it vanishes for
      X_ij = sym_ij / (s_i + s_j) - skew_ij / (s_i - s_j),
      Y_ij = -sym_ij / (s_i + s_j) - skew_ij / (s_i - s_j),
    sym and skew the parts of B.  Inside a positive cluster only the sym
    term is taken, which leaves the skew part for youla_skew and zeroes the
    diagonal of a 1x1 cluster; in the corner at zero neither is.  The
    padded form is not built: the k x k block is solved on B[:k, :k], its
    masks slices, and the strip of a tall X or a wide Y is B_ij / s_j, or
    -B_ji / s_j, at each positive j and masked elsewhere.  Each entry takes
    the padded form's own steps, so it is that form's to the bit, signed
    zeros included: +0.0 where X is masked, -0.0 - 0.0j where Y is.  skew
    is B's k x k skew part, all that _canonical_blocks reads of it.
    """
    m, n = b.shape
    k = min(m, n)
    bk, bt = b[:k, :k], b[:k, :k].T.copy()
    skew = (bk - bt) / 2
    # masked entries divide by zero; the rest, which overflows where A_st is
    # tiny against A_I, is range-checked in dc_svd
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_sym = (bk + bt) / 2 / (s[:, None] + s[None, :])
        t_skew = skew / (s[:, None] - s[None, :])
        # the strip at positive j: nat where e sits in B, trans at its mirror,
        # which the padded form fills with +0.  base is the sym term of X or
        # Y there, and the skew term divides by -sd at e and by sd at its mirror
        e, sd = (b[k:, :r], s[:r]) if m > n else (b[:r, k:], -s[:r, None])
        base = (e + 0) / 2 / np.abs(sd)
        base = base if m > n else -base
        nat, trans = base - e / 2 / -sd, base - (0 - e) / 2 / sd
        t_sym[r:, r:] = 0
        t_skew[r:, r:] = 0
        t_skew.reshape(-1)[::k + 1][:r] = 0
        for i in np.flatnonzero(sizes > 1).tolist():
            c = slice(starts[i], starts[i] + sizes[i])
            t_skew[c, c] = 0
        x = np.zeros((m, m), dtype=complex)
        y = np.full((n, n), complex(-0.0, -0.0))
        np.subtract(t_sym, t_skew, out=x[:k, :k])
        np.subtract(-t_sym, t_skew, out=y[:k, :k])
        z = x if m > n else y
        z[k:, :r], z[:r, k:] = (nat, trans.T) if m > n else (trans.T, nat)
    return x, y, skew


def dc_svd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SvdResult:
    """Singular value decomposition of an m x n dual complex matrix.

    Standard blocks come in descending sigma, within a cluster 1x1 blocks
    before coupled ones, coupled ones by descending nu; nu is the canonical
    positive real produced by youla_skew, and D descends.
    """
    _check_range(a)
    m, n = a.shape
    k, big = min(m, n), max(m, n)
    p_st, s, qh = np.linalg.svd(a.standard)
    q_st = np.conj(qh.T, order="C")  # C-ordered, as DCMatrix holds it
    b = p_st.conj().T @ a.infinitesimal @ qh.T  # P* A_I conj(Q)

    r, starts, sizes, reps = _singular_clusters(s, big, tol)

    x, y, skew = _solve_xy(s, b, r, starts, sizes)
    with np.errstate(over="ignore", invalid="ignore"):  # range-checked below
        u_st, u_inf = p_st, p_st @ x
        v_st, v_inf = q_st, q_st @ y
    # X and Y scale as A_I / sigma, so an A_st tiny against A_I can take U_I
    # and V_I past double range, or past the range _check_range keeps A's
    # entries in so that the sums and norms of the final residual stay finite
    limit = _range_limit(big)
    if not (np.abs(u_inf).max(initial=0.0) <= limit and np.abs(v_inf).max(initial=0.0) <= limit):
        raise AccuracyError(f"U_I or V_I exceeds {limit:.3e}: A_st is too small against A_I")

    # stage 3 judges B's blocks against ||A_I|| = ||B||, in units of _unit of it
    b_norm = _norm(b)
    unit = _unit(b_norm)
    blocks = tuple(SingularBlock(sigma, nu) for sigma, nu in _canonical_blocks(
        lambda cols: skew[cols[:, :, None], cols[:, None, :]] / unit, starts, sizes, reps,
        [(u_st, u_inf), (v_st, v_inf)], tol, unit))

    # the infinitesimal part of the corner at zero is B[r:, r:]; its standard
    # part, the values at or below the cutoff, is dropped.  The complex SVD
    # G = U_g D V_g^H gives D through U_g on the left and conj(V_g) on the
    # right, since eps*j conjugates the factor it passes
    d = np.zeros(0)
    p = 0
    if r < k:
        ug, d, vgh = np.linalg.svd(b[r:, r:])
        p = _null_rank(d, big, b_norm, tol)
        u_st[:, r:] = u_st[:, r:] @ ug
        u_inf[:, r:] = u_inf[:, r:] @ np.conj(ug)
        v_st[:, r:] = v_st[:, r:] @ vgh.T
        v_inf[:, r:] = v_inf[:, r:] @ vgh.conj().T
    inf_vals = tuple(float(x) for x in d[:p])

    u, v = (DCMatrix._frozen(*_checked(*f)) for f in ((u_st, u_inf), (v_st, v_inf)))
    resid, gate = _residual(a, u, v, blocks, inf_vals)
    # s and b carry the norms of A's two parts
    check_residual(gate, big, (float(np.linalg.norm(s)), b_norm),
                   float(np.linalg.norm(u_inf)) + float(np.linalg.norm(v_inf)),
                   _dropped(s, r, sizes, reps, d, p), tol)
    return SvdResult(u, v, blocks, inf_vals, r, p, resid)
