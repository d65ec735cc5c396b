"""Singular value decomposition of general dual complex matrices.

U* A V is reduced to a block layout with an r x r leading block Sigma_r of
positive standard singular values (1x1 blocks sigma, or coupled 2x2 blocks
(sigma, nu)), followed by a p x p purely infinitesimal diagonal D*eps*j,
and zeros elsewhere.  The construction decomposes the Hermitian positive
semi-definite matrix A*A, takes block square roots (a 2x2 block (sigma^2,
mu) maps to (sigma, nu = mu/(2 sigma))), forms the left factor columns as
A V1 Sigma_r^{-1}, completes them to a dual complex unitary, and factors
the remaining purely infinitesimal corner by an ordinary complex SVD.
Wide matrices run the same construction on the conjugate transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeMismatch
from .matrix import DCMatrix, conj_transpose, mat_mul, residual, unitarity_defect
from .scalar import DEFAULT_TOL, Tolerances
from .spectral import herm_spectral

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


def _rank_cutoff(smax: float, dim: int, zero_tol: float) -> float:
    # the A*A route squares the conditioning, so the user cutoff is floored
    # at the sqrt of the eigensolver noise level
    return max(zero_tol, 8.0 * math.sqrt(dim * _EPS)) * smax


def standard_rank(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of positive standard singular values; the numerical rank of A_st."""
    svals = np.linalg.svd(a.standard, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > _rank_cutoff(float(svals[0]), max(a.shape), tol.zero_tol)))


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
    """Singular value decomposition of an m x n dual complex matrix."""
    m, n = a.shape
    if m < n:
        flipped = dc_svd(conj_transpose(a), tol)
        r, p = flipped.standard_rank, flipped.infinitesimal_rank
        # conjugate transposition of the layout negates the D block; flipping
        # the sign of the matching columns of the new V restores it
        v_st = flipped.U.standard.copy()
        v_inf = flipped.U.infinitesimal.copy()
        v_st[:, r:r + p] *= -1
        v_inf[:, r:r + p] *= -1
        u_new, v_new = flipped.V, DCMatrix(v_st, v_inf)
        layout = assemble_layout(m, n, flipped.standard_blocks, flipped.infinitesimal_values)
        resid = _svd_residual(a, u_new, v_new, layout)
        return SvdResult(u_new, v_new, flipped.standard_blocks,
                         flipped.infinitesimal_values, r, p, resid)

    dec = herm_spectral(mat_mul(conj_transpose(a), a), tol)
    lam_max = max((b.lam for b in dec.blocks), default=0.0)
    smax = math.sqrt(max(lam_max, 0.0))
    cut = _rank_cutoff(smax, max(m, n), tol.zero_tol)
    sig_blocks: list[SingularBlock] = []
    r = 0
    for b in dec.blocks:  # descending, so positive blocks form a prefix
        sigma = math.sqrt(max(b.lam, 0.0))
        if sigma <= cut:
            break
        if b.kind == "Eigen":
            sig_blocks.append(SingularBlock(sigma))
        else:
            sig_blocks.append(SingularBlock(sigma, b.mu / (2 * sigma)))
        r += sig_blocks[-1].dim

    vp = dec.U
    if r > 0:
        v1 = DCMatrix(vp.standard[:, :r], vp.infinitesimal[:, :r])
        # (sigma I + N eps*j)^-1 = I/sigma - N/sigma^2 eps*j per block, with the
        # infinitesimal part formed as -(X^-1 N) X^-1, the order of mat_inv
        inv_blocks = []
        for b in sig_blocks:
            s = 1 / b.sigma
            inv_blocks.append(SingularBlock(s, None if b.nu is None else -(s * b.nu) * s))
        u1 = mat_mul(mat_mul(a, v1), assemble_layout(r, r, inv_blocks, ()))
        x1, y1 = u1.standard, u1.infinitesimal
    else:
        x1 = np.zeros((m, 0), dtype=complex)
        y1 = np.zeros((m, 0), dtype=complex)

    if r < m:
        if r > 0:
            qfull, _ = np.linalg.qr(x1, mode="complete")
            x2 = qfull[:, r:]
            y2 = x1 @ (x2.conj().T @ y1).T  # keeps U_st* U_I symmetric
        else:
            x2 = np.eye(m, dtype=complex)
            y2 = np.zeros((m, m), dtype=complex)
        u2 = DCMatrix(x2, y2)
        uprime = DCMatrix(np.hstack([x1, x2]), np.hstack([y1, y2]))
    else:
        u2 = None
        uprime = DCMatrix(x1, y1)

    inf_vals: tuple[float, ...] = ()
    p = 0
    u_embed = np.eye(m, dtype=complex)
    v_embed = np.eye(n, dtype=complex)
    if r < m and r < n:
        v2 = DCMatrix(vp.standard[:, r:], vp.infinitesimal[:, r:])
        corner = conj_transpose(u2) @ a @ v2
        g = corner.infinitesimal  # the standard part vanishes up to roundoff
        ug, d, vgh = np.linalg.svd(g)
        gcut = max(tol.zero_tol, 64 * max(m, n) * _EPS) * max(1.0, float(d[0]) if d.size else 0.0)
        p = int(np.sum(d > gcut))
        inf_vals = tuple(float(x) for x in d[:p])
        u_embed[r:, r:] = ug
        # eps*j conjugates the factor it passes, so the embedded right factor
        # must be the elementwise conjugate of the SVD one
        v_embed[r:, r:] = vgh.T

    u = mat_mul(uprime, DCMatrix(u_embed))
    v = mat_mul(vp, DCMatrix(v_embed))
    layout = assemble_layout(m, n, sig_blocks, inf_vals)
    resid = _svd_residual(a, u, v, layout)
    return SvdResult(u, v, tuple(sig_blocks), inf_vals, r, p, resid)
