"""Spectral machinery for dual complex Hermitian matrices.

A Hermitian matrix here has a complex Hermitian standard part and a complex
skew-symmetric infinitesimal part.  A dual complex unitary similarity always
reduces it to a block diagonal with 1x1 real blocks (right eigenvalues) and
2x2 blocks [[lam, mu*eps*j], [-mu*eps*j, lam]] with mu != 0 (right
subeigenvalues).  The reduction runs in three stages:

1. diagonalize the standard part and group its eigenvalues into clusters;
2. a unitary correction removes all coupling between clusters.  Its
   infinitesimal part is the rotated infinitesimal part C divided entry by
   entry by the gap between the representative eigenvalues of the row's and
   the column's clusters, in one masked divide that leaves the diagonal
   cluster blocks zero;
3. each remaining diagonal cluster block, lam*I plus a skew-symmetric
   infinitesimal part, is put into canonical form by a complex unitary
   transpose-congruence (youla_skew).  A 1x1 cluster is canonical already,
   since its infinitesimal part is zero: it becomes one Eigen block with
   no youla_skew call and no rotation of its column.

Stage 2 divides by cluster gaps, so nearly-but-not-quite-equal eigenvalues
abort with IllConditionedGap instead of silently amplifying error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AccuracyError,
    BadEigenspace,
    IllConditionedGap,
    NotHermitian,
    NotOrthogonal,
    NotAppreciable,
    NotSkewSymmetric,
    ShapeMismatch,
    UnknownEigenvalue,
)
from .matrix import (
    DCMatrix,
    component_norms,
    inner,
    is_hermitian,
    mat_mul,
    residual,
    unitarity_defect,
)
from .scalar import DEFAULT_TOL, DualComplex, Tolerances

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpectralBlock:
    """One diagonal block: an eigenvalue ("Eigen", 1x1) or a subeigenvalue ("Sub", 2x2)."""

    kind: str
    lam: float
    mu: Optional[complex] = None

    def __post_init__(self) -> None:
        if self.kind not in ("Eigen", "Sub"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "Sub" and (self.mu is None or self.mu == 0):
            raise ValueError("Sub blocks carry a nonzero mu")
        if self.kind == "Eigen" and self.mu is not None:
            raise ValueError("Eigen blocks carry no mu")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "Eigen" else 2


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary U and ordered blocks with U* A U equal to the assembled block diagonal."""

    U: DCMatrix
    blocks: tuple[SpectralBlock, ...]
    residual: tuple[float, float]

    def sigma(self) -> DCMatrix:
        return assemble_blocks(self.blocks)

    @property
    def n(self) -> int:
        return sum(b.dim for b in self.blocks)


def assemble_blocks(blocks) -> DCMatrix:
    """Block diagonal matrix described by a block list."""
    n = sum(b.dim for b in blocks)
    st = np.zeros((n, n), dtype=complex)
    inf = np.zeros((n, n), dtype=complex)
    off = 0
    for b in blocks:
        st[off, off] = b.lam
        if b.kind == "Sub":
            st[off + 1, off + 1] = b.lam
            inf[off, off + 1] = b.mu
            inf[off + 1, off] = -b.mu
        off += b.dim
    return DCMatrix(st, inf)


def youla_skew(c, tol: Tolerances = DEFAULT_TOL):
    """Canonical form of a complex skew-symmetric matrix under unitary transpose-congruence.

    Returns (Q, pairs, null_dim) with Q unitary and

        Q.T @ C @ Q = blockdiag([[0, s1], [-s1, 0]], ..., 0_null)

    where pairs = [s1 >= s2 >= ... > 0] are the nonzero singular values of C
    (each of even multiplicity).  The construction works off the SVD of C:
    on the span of the left singular vectors for nonzero singular values,
    the conjugate-linear map x -> C conj(x) / s squares to minus the
    identity, so unit vectors pair off as (x, y = C conj(x)/s) with x, y
    orthonormal; the conjugated pairs, ordered (conj(y), conj(x)), realize
    exactly the 2x2 canonical blocks, and right null vectors of C fill the
    zero block.  The resulting congruence is re-verified and AccuracyError
    is raised rather than returning a bad factor.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise NotSkewSymmetric(f"expected a square matrix, got shape {c.shape}")
    n = c.shape[0]
    cnorm = float(np.linalg.norm(c))
    if np.linalg.norm(c + c.T) > tol.resid_tol * (1.0 + cnorm):
        raise NotSkewSymmetric("matrix is not skew-symmetric")
    if n == 0:
        return np.zeros((0, 0), dtype=complex), [], 0

    u, s, vh = np.linalg.svd(c)
    smax = float(s[0])
    null_cut = max(tol.zero_tol, 64 * n * _EPS) * max(1.0, smax)
    k = int(np.sum(s > null_cut))
    if k % 2 == 1:
        # rounding split a pair across the cutoff; keep or drop the boundary value
        if k < n and (s[k - 1] - s[k]) <= 64 * n * _EPS * max(1.0, smax):
            k += 1
        else:
            k -= 1

    # the pairing map x -> C conj(x)/s only preserves each singular-value
    # eigenspace, so vectors must pair off within their own group
    tau_pair = 64 * n * _EPS * max(1.0, smax)
    groups = []
    start = 0
    for i in range(1, k):
        if s[i - 1] - s[i] > tau_pair:
            groups.append((start, i))
            start = i
    if k:
        groups.append((start, k))
    found = []  # (s, conj(y), conj(x))
    for g0, g1 in groups:
        if (g1 - g0) % 2 == 1:
            raise AccuracyError("odd singular value group; equal values were split")
        remaining = u[:, g0:g1].copy()
        while remaining.shape[1] > 0:
            x = remaining[:, 0]
            y = c @ np.conj(x)
            s_loc = float(np.linalg.norm(y))
            if s_loc <= null_cut:
                raise AccuracyError("pairing collapsed; singular value grouping failed")
            y = y / s_loc
            y = y - x * np.vdot(x, y)  # exact orthogonality is automatic; enforce it anyway
            y = y / np.linalg.norm(y)
            found.append((s_loc, np.conj(y), np.conj(x)))
            keep = remaining.shape[1] - 2
            if keep <= 0:
                break
            z = (remaining - np.outer(x, np.conj(x) @ remaining)
                 - np.outer(y, np.conj(y) @ remaining))
            uz, sz, _ = np.linalg.svd(z, full_matrices=False)
            if sz[keep - 1] < 0.5:
                raise AccuracyError("deflation lost rank while pairing singular vectors")
            remaining = uz[:, :keep]

    found.sort(key=lambda t: -t[0])
    cols = [col for _, qy, qx in found for col in (qy, qx)]
    v_null = vh[k:, :].conj().T  # right null space of C
    q = np.column_stack(cols + [v_null]) if cols else v_null.copy()

    jact = q.T @ c @ q
    pairs = []
    jideal = np.zeros((n, n), dtype=complex)
    for i in range(k // 2):
        s_i = float((jact[2 * i, 2 * i + 1] - jact[2 * i + 1, 2 * i]).real / 2)
        pairs.append(s_i)
        jideal[2 * i, 2 * i + 1] = s_i
        jideal[2 * i + 1, 2 * i] = -s_i
    bound = tol.resid_tol * (1.0 + cnorm)
    if np.linalg.norm(jact - jideal) > bound:
        raise AccuracyError("congruence residual exceeded tolerance")
    if np.linalg.norm(q.conj().T @ q - np.eye(n)) > bound:
        raise AccuracyError("computed congruence factor is not unitary")
    return q, pairs, n - k


def herm_spectral(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Block spectral decomposition U* A U = Sigma of a Hermitian dual complex matrix.

    Blocks are ordered by descending lambda, Eigen before Sub within a
    cluster, Sub blocks by descending mu.  Reported mu values are the
    canonical nonnegative reals produced by youla_skew.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("spectral decomposition needs a square matrix")
    if not is_hermitian(a, tol):
        raise NotHermitian("matrix is not Hermitian")
    n = a.rows
    a_st = (a.standard + a.standard.conj().T) / 2
    a_inf = (a.infinitesimal - a.infinitesimal.T) / 2

    w, v = np.linalg.eigh(a_st)
    w = w[::-1]
    v = v[:, ::-1]
    wmax = float(np.abs(w).max()) if n else 0.0
    tau = tol.group_tol * (1.0 + wmax)
    # single-linkage clusters of the descending eigenvalues: a new cluster
    # starts wherever the next value drops by more than tau
    starts = np.flatnonzero(np.diff(w, prepend=np.inf) < -tau)
    sizes = np.diff(starts, append=n)
    gaps = w[starts[1:] - 1] - w[starts[1:]]
    bad = np.flatnonzero(gaps < 10 * tau)
    if bad.size:
        raise IllConditionedGap(
            f"distinct eigenvalue clusters separated by {gaps[bad[0]]:.3e} < {10 * tau:.3e}")
    reps = w[starts]
    for k in np.flatnonzero(sizes > 1):
        reps[k] = np.mean(w[starts[k]:starts[k] + sizes[k]])

    s_mat = v.conj().T
    c = s_mat @ a_inf @ s_mat.T
    c = (c - c.T) / 2  # exact skew-symmetry for the block reductions

    # the gap between the representatives of the clusters of i and j is zero
    # exactly inside a diagonal cluster block and, past the gap check, nonzero
    # everywhere else; c is exactly skew and the gap antisymmetric, so the
    # lower blocks equal the transposed upper ones
    rep = np.repeat(reps, sizes)
    gap = rep[:, None] - rep[None, :]
    p_inf = np.divide(c, gap, out=np.zeros_like(c), where=gap != 0)

    # U = (S + P conj(S) eps*j)* W with W block diagonal, one block per
    # cluster; a 1x1 cluster's block is 1, so its columns need no product
    u_st = v.copy()
    u_inf = -(p_inf @ np.conj(s_mat)).T
    blocks: list[SpectralBlock] = []
    for start, size, lam in zip(starts.tolist(), sizes.tolist(), reps.tolist()):
        if size == 1:
            blocks.append(SpectralBlock("Eigen", lam))
            continue
        sl = slice(start, start + size)
        q, pairs, null_dim = youla_skew(c[sl, sl], tol)
        perm = list(range(2 * len(pairs), size)) + list(range(2 * len(pairs)))
        w_blk = np.conj(q[:, perm])
        u_st[:, sl] = u_st[:, sl] @ w_blk
        u_inf[:, sl] = u_inf[:, sl] @ np.conj(w_blk)
        blocks.extend(SpectralBlock("Eigen", lam) for _ in range(null_dim))
        blocks.extend(SpectralBlock("Sub", lam, s) for s in pairs)
    u = DCMatrix(u_st, u_inf)

    return SpectralDecomposition(u, tuple(blocks), residual(a, u, u, assemble_blocks(blocks)))


def verify_spectral(a: DCMatrix, dec: SpectralDecomposition) -> tuple[float, float]:
    """Componentwise residual of U* A U against the blocks, including unitarity of U."""
    if a.shape != dec.U.shape or dec.n != a.rows:
        raise ShapeMismatch("decomposition does not match the matrix shape")
    rs, ri = residual(a, dec.U, dec.U, dec.sigma())
    us, ui = unitarity_defect(dec.U)
    return (max(rs, us), max(ri, ui))


def subeigenpairs(dec: SpectralDecomposition):
    """(lam, mu, x, y) per Sub block, with x, y the paired columns of U.

    For a Sub block occupying columns (t, t+1), the defining equations
    A x = x lam + y mu eps*j and A y = y lam - x mu eps*j hold with
    x = column t+1 and y = column t.
    """
    out = []
    off = 0
    for b in dec.blocks:
        if b.kind == "Sub":
            out.append((b.lam, b.mu, dec.U.column(off + 1), dec.U.column(off)))
        off += b.dim
    return out


def verify_subeigenpair(a: DCMatrix, lam: float, mu: complex, x: DCMatrix, y: DCMatrix,
                        tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Componentwise residuals of the coupled pair equations.

    With mu = 0 the check degenerates to two ordinary eigenpair residuals.
    """
    if a.rows != a.cols or x.shape != (a.rows, 1) or y.shape != (a.rows, 1):
        raise ShapeMismatch("subeigenpair check needs a square matrix and two column vectors")
    if np.linalg.norm(x.standard) <= tol.zero_tol or np.linalg.norm(y.standard) <= tol.zero_tol:
        raise NotAppreciable("subeigenvectors must be appreciable")
    ip = inner(x, y)
    if abs(ip.standard) > tol.resid_tol or abs(ip.infinitesimal) > tol.resid_tol:
        raise NotOrthogonal("subeigenvectors must be orthogonal")
    muj = DualComplex(0, mu)
    r1 = mat_mul(a, x) - x * DualComplex(lam) - y * muj
    r2 = mat_mul(a, y) - y * DualComplex(lam) + x * muj
    r1s, r1i = component_norms(r1)
    r2s, r2i = component_norms(r2)
    return (max(r1s, r2s), max(r1i, r2i))


@dataclass(frozen=True)
class DoubleEigClassification:
    """Verdict for a double eigenvalue of the standard part.

    kind is "DoubleEigen" when the coupling parameter mu vanishes (the value
    is a genuine double right eigenvalue) and "DoubleSub" otherwise; in the
    Sub case x_inf and y_inf complete the subeigenvectors.
    """

    kind: str
    lam: float
    mu: complex
    x_inf: Optional[np.ndarray] = None
    y_inf: Optional[np.ndarray] = None


def double_eig_classify(a: DCMatrix, x_st, y_st,
                        tol: Tolerances = DEFAULT_TOL) -> DoubleEigClassification:
    """Classify a double eigenvalue of the standard part via mu = y* A_I conj(x).

    The verdict and |mu| do not depend on which orthonormal basis of the
    eigenspace is supplied; the phase of mu does.
    """
    if not is_hermitian(a, tol):
        raise NotHermitian("classification applies to Hermitian matrices")
    x = np.asarray(x_st, dtype=complex).reshape(-1)
    y = np.asarray(y_st, dtype=complex).reshape(-1)
    if x.size != a.rows or y.size != a.rows:
        raise ShapeMismatch("basis vectors must have length n")
    ortho = 100 * tol.group_tol
    if (abs(np.vdot(x, x) - 1) > ortho or abs(np.vdot(y, y) - 1) > ortho
            or abs(np.vdot(x, y)) > ortho):
        raise BadEigenspace("vectors are not orthonormal")
    a_st, a_inf = a.standard, a.infinitesimal
    scale = 1.0 + float(np.linalg.norm(a_st))
    lam_x = float(np.vdot(x, a_st @ x).real)
    lam_y = float(np.vdot(y, a_st @ y).real)
    if (np.linalg.norm(a_st @ x - lam_x * x) > ortho * scale
            or np.linalg.norm(a_st @ y - lam_y * y) > ortho * scale
            or abs(lam_x - lam_y) > ortho * scale):
        raise BadEigenspace("vectors do not span a common eigenspace of the standard part")
    lam = (lam_x + lam_y) / 2
    mu = complex(np.vdot(y, a_inf @ np.conj(x)))
    if abs(mu) <= tol.resid_tol:
        return DoubleEigClassification("DoubleEigen", lam, mu)
    m = lam * np.eye(a.rows) - a_st
    x_inf = np.linalg.lstsq(m, a_inf @ np.conj(x) - mu * y, rcond=None)[0]
    y_inf = np.linalg.lstsq(m, a_inf @ np.conj(y) + mu * x, rcond=None)[0]
    return DoubleEigClassification("DoubleSub", lam, mu, x_inf, y_inf)


def classify_multiplicity(dec: SpectralDecomposition, lam: float,
                          tol: Tolerances = DEFAULT_TOL) -> tuple[int, int]:
    """Total dimension p of blocks at lam and the number k of Sub blocks among them."""
    tau = tol.group_tol * (1.0 + abs(lam))
    sel = [b for b in dec.blocks if abs(b.lam - lam) <= tau]
    if not sel:
        raise UnknownEigenvalue(f"no block matches {lam!r}")
    p = sum(b.dim for b in sel)
    k = sum(1 for b in sel if b.kind == "Sub")
    return p, k


def is_psd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positive semi-definite iff every eigen/subeigenvalue is nonnegative."""
    dec = herm_spectral(a, tol)
    return all(b.lam >= -tol.resid_tol for b in dec.blocks)


def is_pd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positive definite iff every eigen/subeigenvalue is positive."""
    dec = herm_spectral(a, tol)
    return all(b.lam > tol.resid_tol for b in dec.blocks)
