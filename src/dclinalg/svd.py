"""Singular value decomposition of general dual complex matrices.

U* A V is reduced to a block layout with an r x r leading block Sigma_r of
positive standard singular values (1x1 blocks sigma, or coupled 2x2 blocks
(sigma, nu)), followed by a p x p purely infinitesimal diagonal D*eps*j,
and zeros elsewhere.  The construction starts from one complex SVD
A_st = P S Q* and B = P* A_I conj(Q), and runs in three stages:

1. cluster the singular values: those at or below the rank cutoff, which is
   at least 10 tau, form the cluster at zero, the positive ones chain into
   clusters wherever neighbours lie within tau = group_tol * sigma_1;
2. U = P (I + X eps*j) and V = Q (I + Y eps*j), with X and Y complex
   symmetric, turn the infinitesimal part of U* A V into B + S Y - X S.
   One masked array solve of the 2x2 systems of the entry pairs (i, j),
   (j, i), whose determinant is sigma_i^2 - sigma_j^2, zeroes it between
   clusters and against the extra rows or columns of a tall or wide input;
   inside a positive cluster it removes the symmetric part of B's block;
3. each positive cluster's remaining block, sigma I plus a skew-symmetric
   infinitesimal part, is put into canonical form by youla_skew, whose
   rotation acts on the columns of U and V alike; a 1x1 cluster is
   canonical already.  The corner at zero keeps its infinitesimal part,
   whose complex SVD gives D; its standard part, at most the cutoff, is
   dropped.

Clusters, the one at zero included, closer than 10 tau raise
IllConditionedGap, since stage 2 divides by their gaps; a final residual
above its bound raises AccuracyError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IllConditionedGap, ShapeMismatch
from .matrix import DCMatrix, check_residual, residual, unitarity_defect
from .scalar import DEFAULT_TOL, Tolerances
from .spectral import youla_skew

_EPS = float(np.finfo(float).eps)


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

    def layout(self) -> DCMatrix:
        return assemble_layout(self.U.rows, self.V.rows,
                               self.standard_blocks, self.infinitesimal_values)


def assemble_layout(m: int, n: int, standard_blocks, infinitesimal_values) -> DCMatrix:
    """The m x n block layout: Sigma_r, then D*eps*j, then zeros."""
    st = np.zeros((m, n), dtype=complex)
    inf = np.zeros((m, n), dtype=complex)
    off = 0
    for b in standard_blocks:
        st[off, off] = b.sigma
        if b.nu is not None:
            st[off + 1, off + 1] = b.sigma
            inf[off, off + 1] = b.nu
            inf[off + 1, off] = -b.nu
        off += b.dim
    for d in infinitesimal_values:
        inf[off, off] = d
        off += 1
    return DCMatrix(st, inf)


def _rank_cutoff(smax: float, dim: int, tol: Tolerances) -> float:
    # a value within 10 tau = 10 group_tol sigma_1 of zero joins the cluster
    # at zero, which the gap rule would otherwise make stand 10 tau clear
    return max(tol.zero_tol, 64 * dim * _EPS, 10 * tol.group_tol) * smax


def standard_rank(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of positive standard singular values; the numerical rank of A_st."""
    svals = np.linalg.svd(a.standard, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > _rank_cutoff(float(svals[0]), max(a.shape), tol)))


def _svd_residual(a: DCMatrix, u: DCMatrix, v: DCMatrix, layout: DCMatrix):
    rs, ri = residual(a, u, v, layout)
    us, ui = unitarity_defect(u)
    vs, vi = unitarity_defect(v)
    return (max(rs, us, vs), max(ri, ui, vi))


def verify_svd(a: DCMatrix, res: SvdResult):
    """Componentwise residual of U* A V against the block layout, including
    the unitarity defects of U and V; returns the maxima as a pair."""
    if res.U.shape != (a.rows, a.rows) or res.V.shape != (a.cols, a.cols):
        raise ShapeMismatch("factors do not match the matrix shape")
    return _svd_residual(a, res.U, res.V, res.layout())


def dc_svd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SvdResult:
    """Singular value decomposition of an m x n dual complex matrix.

    Standard blocks come in descending sigma, within a cluster 1x1 blocks
    before coupled ones, coupled ones by descending nu; nu is the canonical
    positive real produced by youla_skew, and D descends.
    """
    m, n = a.shape
    k, big = min(m, n), max(m, n)
    p_st, s, qh = np.linalg.svd(a.standard)
    q_st = qh.conj().T
    b = p_st.conj().T @ a.infinitesimal @ qh.T  # P* A_I conj(Q)

    smax = float(s[0]) if k else 0.0
    r = int(np.sum(s > _rank_cutoff(smax, big, tol)))
    tau = tol.group_tol * smax
    # single-linkage clusters of the positive values; the values at or below
    # the rank cutoff form one more cluster at zero, and every cluster,
    # that one included, must stand 10 tau clear of the next.  Any value
    # above the cutoff stands that far from 0, so only a member of the
    # cluster at zero can fail the last gap
    starts = np.flatnonzero(np.diff(s[:r], prepend=np.inf) < -tau)
    sizes = np.diff(starts, append=r)
    ends = starts + sizes
    gaps = s[ends - 1] - np.append(s, 0.0)[ends]
    bad = np.flatnonzero(gaps < 10 * tau)
    if bad.size:
        raise IllConditionedGap(
            f"distinct singular value clusters separated by {gaps[bad[0]]:.3e} < {10 * tau:.3e}")
    reps = s[starts]
    for c in np.flatnonzero(sizes > 1):
        reps[c] = np.mean(s[starts[c]:ends[c]])

    # U = P (I + X eps*j) and V = Q (I + Y eps*j) with X, Y complex symmetric
    # turn the infinitesimal part of U* A V into B + S Y - X S.  Padded to
    # big x big, with S zero past k, the pair (i, j), (j, i) of it vanishes for
    #   X_ij = sym_ij / (s_i + s_j) - skew_ij / (s_i - s_j),
    #   Y_ij = -sym_ij / (s_i + s_j) - skew_ij / (s_i - s_j),
    # sym and skew the parts of B.  Inside a positive cluster only the sym
    # term is taken, which leaves the skew part for youla_skew and zeroes the
    # diagonal of a 1x1 cluster; the corner at zero is left alone.
    label = np.full(big, -1)
    label[:r] = np.repeat(np.arange(starts.size), sizes)
    sig = np.zeros(big)
    sig[:k] = s
    bp = np.zeros((big, big), dtype=complex)
    bp[:m, :n] = b
    sym = (bp + bp.T) / 2
    skew = (bp - bp.T) / 2
    zero = label < 0
    t_sym = np.divide(sym, sig[:, None] + sig[None, :], out=np.zeros_like(sym),
                      where=~(zero[:, None] & zero[None, :]))
    t_skew = np.divide(skew, sig[:, None] - sig[None, :], out=np.zeros_like(skew),
                       where=label[:, None] != label[None, :])
    u_st, u_inf = p_st, p_st @ (t_sym - t_skew)[:m, :m]
    v_st, v_inf = q_st, q_st @ (-t_sym - t_skew)[:n, :n]

    # a cluster's skew block B_c goes to canonical form as W* B_c conj(W) with
    # W = conj(Q_c), Q_c from youla_skew; W rotates U's and V's columns alike,
    # which leaves the standard block sigma I as it is
    blocks: list[SingularBlock] = []
    for start, size, sigma in zip(starts.tolist(), sizes.tolist(), reps.tolist()):
        if size == 1:
            blocks.append(SingularBlock(sigma))
            continue
        sl = slice(start, start + size)
        q, pairs, null_dim = youla_skew(skew[sl, sl], tol)
        perm = list(range(2 * len(pairs), size)) + list(range(2 * len(pairs)))
        w_blk = np.conj(q[:, perm])
        for f_st, f_inf in ((u_st, u_inf), (v_st, v_inf)):
            f_st[:, sl] = f_st[:, sl] @ w_blk
            f_inf[:, sl] = f_inf[:, sl] @ np.conj(w_blk)
        blocks.extend(SingularBlock(sigma) for _ in range(null_dim))
        blocks.extend(SingularBlock(sigma, nu) for nu in pairs)

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

    u, v = DCMatrix(u_st, u_inf), DCMatrix(v_st, v_inf)
    layout = assemble_layout(m, n, blocks, inf_vals)
    resid = _svd_residual(a, u, v, layout)
    kept = np.zeros(k)
    kept[:r] = np.repeat(reps, sizes)
    # s and b carry the norms of A's two parts
    check_residual(resid, big, (float(np.linalg.norm(s)), float(np.linalg.norm(b))),
                   float(np.linalg.norm(u_inf)) + float(np.linalg.norm(v_inf)),
                   (float(np.linalg.norm(s - kept)), float(np.linalg.norm(d[p:]))), tol)
    return SvdResult(u, v, tuple(blocks), inf_vals, r, p, resid)
