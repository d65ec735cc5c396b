"""Singular value decomposition of general dual complex matrices.

U* A V is reduced to a block layout with an r x r leading block Sigma_r of
positive standard singular values (1x1 blocks sigma, or coupled 2x2 blocks
(sigma, nu)), followed by a p x p purely infinitesimal diagonal D*eps*j,
and zeros elsewhere.  The construction starts from one complex SVD
A_st = P S Q* and B = P* A_I conj(Q), and runs the three stages of the
spectral decomposition, with its helpers for stages 1 and 3 (spectral.py):

1. the singular values above the rank cutoff, which is at least 10 tau,
   form the positive clusters (_clusters, tau = group_tol * sigma_1); the
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
   (_canonical_blocks), rotating the columns of U and V alike.  The corner
   at zero keeps its infinitesimal part, whose complex SVD gives D; its
   standard part, at most the cutoff, is dropped.

The four factor parts are frozen as computed, with no copy.  The residual
pair is that of matrix.factor_residual, which verify_svd recomputes, so
the residual an svd document stores is what `dctool verify` writes for
it: the standard part of the one-sided residual R = A V - U L, the
infinitesimal part of the two-sided T = U* A V - L, formed directly, and
the unitarity defects of U and V, 9 complex products in all.  A gate
above its bound raises AccuracyError, and so do entries too large for the
arithmetic, before any of it, and an A_st so small against A_I that X and
Y, which scale as A_I / sigma, leave that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AccuracyError, ShapeMismatch
from .matrix import (DCMatrix, _EPS, _check_range, _checked, _range_limit, check_residual,
                     factor_residual)
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


def _rank_cutoff(smax: float, dim: int, tol: Tolerances) -> float:
    # a value within 10 tau = 10 group_tol sigma_1 of zero joins the cluster
    # at zero, which the gap rule would otherwise make stand 10 tau clear
    return max(tol.zero_tol, 64 * dim * _EPS, 10 * tol.group_tol) * smax


def standard_rank(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of positive standard singular values; the numerical rank of A_st.

    Entries too large for the arithmetic raise AccuracyError (_check_range),
    as in dc_svd, rather than a rank of 0 from an infinite sigma_1.
    """
    _check_range(a)
    svals = np.linalg.svd(a.standard, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > _rank_cutoff(float(svals[0]), max(a.shape), tol)))


def _residual(a: DCMatrix, u: DCMatrix, v: DCMatrix, blocks, inf_vals):
    """(pair, gate) of U* A V against the layout (matrix.factor_residual)."""
    return factor_residual(a, u, v, *_diagonals(min(a.shape), [(b.sigma, b.nu) for b in blocks],
                                                inf_vals))


def verify_svd(a: DCMatrix, res: SvdResult):
    """The residual pair dc_svd reports, recomputed (matrix.factor_residual)."""
    if res.U.shape != (a.rows, a.rows) or res.V.shape != (a.cols, a.cols):
        raise ShapeMismatch("factors do not match the matrix shape")
    if res.standard_rank + res.infinitesimal_rank > min(a.shape):
        raise ShapeMismatch("layout is wider than the matrix: r + p exceeds min(m, n)")
    return _residual(a, res.U, res.V, res.standard_blocks, res.infinitesimal_values)[0]


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

    smax = float(s[0]) if k else 0.0
    r = int(np.sum(s > _rank_cutoff(smax, big, tol)))
    tau = tol.group_tol * smax
    # the values at or below the rank cutoff form one more cluster, at zero,
    # which the last positive cluster must stand 10 tau clear of.  Any value
    # above the cutoff stands that far from 0, so only a member of the
    # cluster at zero can fail the last gap
    starts, sizes, reps = _clusters(s, r, tau, 0.0, "singular value")

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

    blocks = tuple(SingularBlock(sigma, nu) for sigma, nu in _canonical_blocks(
        lambda cols: skew[cols[:, :, None], cols[:, None, :]], starts, sizes, reps,
        [(u_st, u_inf), (v_st, v_inf)], tol))

    # the infinitesimal part of the corner at zero is B[r:, r:]; its standard
    # part, the values at or below the cutoff, is dropped.  The complex SVD
    # G = U_g D V_g^H gives D through U_g on the left and conj(V_g) on the
    # right, since eps*j conjugates the factor it passes
    d = np.zeros(0)
    p = 0
    if r < k:
        ug, d, vgh = np.linalg.svd(b[r:, r:])
        gcut = max(tol.zero_tol, 64 * big * _EPS) * max(1.0, float(d[0]))
        p = int(np.sum(d > gcut))
        u_st[:, r:] = u_st[:, r:] @ ug
        u_inf[:, r:] = u_inf[:, r:] @ np.conj(ug)
        v_st[:, r:] = v_st[:, r:] @ vgh.T
        v_inf[:, r:] = v_inf[:, r:] @ vgh.conj().T
    inf_vals = tuple(float(x) for x in d[:p])

    u, v = (DCMatrix._frozen(*_checked(*f)) for f in ((u_st, u_inf), (v_st, v_inf)))
    resid, gate = _residual(a, u, v, blocks, inf_vals)
    kept = np.zeros(k)
    kept[:r] = np.repeat(reps, sizes)
    # s and b carry the norms of A's two parts
    check_residual(gate, big, (float(np.linalg.norm(s)), float(np.linalg.norm(b))),
                   float(np.linalg.norm(u_inf)) + float(np.linalg.norm(v_inf)),
                   (float(np.linalg.norm(s - kept)), float(np.linalg.norm(d[p:]))), tol)
    return SvdResult(u, v, blocks, inf_vals, r, p, resid)
