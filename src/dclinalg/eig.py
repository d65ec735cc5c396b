"""Right eigenvalues and eigenvectors of square dual complex matrices.

A right eigenpair satisfies A x = x lam with x appreciable.  The standard
parts always form an ordinary eigenpair of the standard part of A; the
infinitesimal parts then satisfy the linear consistency system
(conj(lam) I - A_st) x_I = A_I conj(x_st) - lam_I x_st.  One eigenvalue
decomposition A_st = V D V^-1 per call supplies both: a simple eigenvalue
farther than kappa(V) times the rank cut from the others takes its column
of V, and when conj(lam) lies that far from every eigenvalue the system is
nonsingular and is solved through V in O(n^2).  Everywhere else (clusters,
conjugate pairs, real or nearly defective standard parts) the SVD of each
shifted matrix gives the eigenspace and the unsolvable directions, and the
system is solved by least squares.  Hermitian input is routed through the
block spectral decomposition, whose 1x1 blocks are exactly the right
eigenpairs.  Entries too large for this arithmetic raise numpy's
LinAlgError on entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Inconsistent, NonFinite, NotAppreciable, NotHermitian, ShapeMismatch
from .matrix import DCMatrix, _EPS, _check_range, is_hermitian
from .scalar import DEFAULT_TOL, DualComplex, Tolerances
from .spectral import herm_spectral


@dataclass(frozen=True)
class RightEigenPair:
    """A right eigenvalue with one eigenvector and the verified residual pair."""

    value: DualComplex
    vector: DCMatrix
    residual: tuple[float, float]
    warning: Optional[str] = None


def verify_eigenpair(a: DCMatrix, value: DualComplex, x: DCMatrix,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Componentwise norms of A x - x value; judgment is left to the caller."""
    if a.rows != a.cols:
        raise ShapeMismatch("eigenpair check needs a square matrix")
    if x.shape != (a.rows, 1):
        raise ShapeMismatch(f"eigenvector must be {a.rows}x1, got {x.shape}")
    if np.linalg.norm(x.standard) <= tol.zero_tol:
        raise NotAppreciable("an eigenvector must be appreciable")
    # the product rule of mat_mul(a, x) - x * value, without the DCMatrix temporaries
    a_st, a_inf = a.standard, a.infinitesimal
    x_st, x_inf = x.standard, x.infinitesimal
    q_st, q_inf = value.standard, value.infinitesimal
    r_st = a_st @ x_st - x_st * q_st
    r_inf = (a_st @ x_inf + a_inf @ np.conj(x_st)) - (x_st * q_inf + x_inf * q_st.conjugate())
    rs, ri = float(np.linalg.norm(r_st)), float(np.linalg.norm(r_inf))
    # an overflowed entry must not reach the caller as a NaN norm, which max()
    # would drop; finite entries whose norm overflows still give inf
    if not (np.isfinite(rs) and np.isfinite(ri)):
        if not np.isfinite(r_st).all():
            raise NonFinite("standard part has a NaN or infinite entry")
        if not np.isfinite(r_inf).all():
            raise NonFinite("infinitesimal part has a NaN or infinite entry")
    return rs, ri


def _normalize_phase(x: np.ndarray) -> np.ndarray:
    """Unit norm with the first nonzero component rotated to be real positive."""
    x = x / np.linalg.norm(x)
    idx = np.flatnonzero(np.abs(x) > 1e-8)
    j = int(idx[0]) if idx.size else 0
    phase = x[j] / abs(x[j]) if abs(x[j]) > 0 else 1.0
    return x * np.conj(phase)


def _cluster_complex(vals: np.ndarray, tau: float):
    """Groups of indices whose eigenvalues chain within distance tau."""
    order = np.lexsort((vals.imag, vals.real))
    placed = vals[order]
    labels = np.empty(order.size, dtype=int)
    groups: list[list[int]] = []
    for k, idx in enumerate(order):
        # labels count up in creation order, so the smallest label hit is the
        # first group holding an element within tau
        hit = labels[:k][np.abs(placed[:k] - placed[k]) <= tau]
        if hit.size:
            labels[k] = hit.min()
        else:
            labels[k] = len(groups)
            groups.append([])
        groups[labels[k]].append(int(idx))
    return groups


def _svd_cut(n: int, tau: float, scale: float) -> float:
    """Rank cut of an n x n SVD whose largest singular value is at most scale."""
    return max(tau, 64 * n * _EPS * max(1.0, scale))


def _eigenspace_basis(a_st: np.ndarray, lam: complex, tau: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of (A_st - lam I)."""
    n = a_st.shape[0]
    m = a_st - lam * np.eye(n)
    _, s, vh = np.linalg.svd(m)
    dim = int(np.sum(s <= _svd_cut(n, tau, float(s[0]))))
    if dim == 0:
        dim = 1  # lam is an eigenvalue, so the smallest direction is the eigenvector
    return vh[n - dim:, :].conj().T


def _left_null_basis(m: np.ndarray, tau: float) -> np.ndarray:
    """Orthonormal basis of null(M*); least-squares residuals live in its span."""
    u, s, _ = np.linalg.svd(m)
    n = m.shape[0]
    dim = int(np.sum(s <= _svd_cut(n, tau, float(s[0]))))
    return u[:, n - dim:] if dim else u[:, :0]


def _eig_clusters(a: DCMatrix, tol: Tolerances):
    """Set up the eigenvalue clusters of A_st; return (accept, clusters).

    accept bounds the residual of the consistency system.  clusters yields,
    per cluster, (lam, eigenspace basis, null(M*) basis, solve): lam is the
    cluster mean, M = conj(lam) I - A_st is the matrix of the consistency
    system for the infinitesimal vector part, and solve(b) returns x with the
    residual norm ||M x - b||.

    The SVD helpers cut singular values at max(tau, 64 n eps max(1, s_1))
    (_svd_cut), and s_1 <= ||A_st||_F + |lam|.  With A_st = V D V^-1 and
    kappa = cond(V), s_{n-1}(A_st - lam I) and s_min(M) are at least the
    second smallest |vals - lam| and the smallest |vals - conj(lam)|,
    divided by kappa.  Where those distances exceed kappa times the cut, the
    SVDs would find a one-dimensional eigenspace and no unsolvable
    direction, and lstsq would not truncate, so the column of V and a solve
    through V take their place.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("eigenvalues need a square matrix")
    n = a.rows
    a_st = a.standard
    accept = tol.resid_tol * (1.0 + float(np.linalg.norm(a.infinitesimal)))
    vals, vecs = np.linalg.eig(a_st)
    tau = tol.group_tol * (1.0 + (float(np.abs(vals).max()) if n else 0.0))
    kappa = float(np.linalg.cond(vecs)) if n else np.inf  # cond gives inf for a singular V
    a_norm = float(np.linalg.norm(a_st))

    def clusters():
        inv_vecs = None
        for group in _cluster_complex(vals, tau):
            lam = complex(np.mean(vals[group]))
            reach = kappa * _svd_cut(n, tau, a_norm + abs(lam))
            if (len(group) == 1
                    and np.delete(np.abs(vals - lam), group).min(initial=np.inf) > reach):
                basis = vecs[:, group]
            else:
                basis = _eigenspace_basis(a_st, lam, tau)
            shift = np.conj(lam) - vals
            if np.abs(shift).min() > reach:
                # reach < |shift| <= 2 ||A_st||_F, so kappa < 1 / (32 n eps): V inverts
                if inv_vecs is None:
                    inv_vecs = np.linalg.inv(vecs)
                yield lam, basis, vecs[:, :0], functools.partial(
                    _eig_solve_resid, a_st, vecs, inv_vecs, lam, shift)
            else:
                m = np.conj(lam) * np.eye(n) - a_st
                yield lam, basis, _left_null_basis(m, tau), functools.partial(_lstsq_resid, m)

    return accept, clusters()


def _eig_solve_resid(a_st, vecs, inv_vecs, lam, shift, b):
    """Solve (conj(lam) I - A_st) x = b as V diag(1/shift) V^-1 b, refined once.

    The refinement step brings the residual to the level of a backward
    stable solve; each step costs O(n^2), against O(n^3) for a factorization.
    """
    def m_times(x):
        return np.conj(lam) * x - a_st @ x

    x = vecs @ ((inv_vecs @ b) / shift)
    x = x + vecs @ ((inv_vecs @ (b - m_times(x))) / shift)
    return x, float(np.linalg.norm(m_times(x) - b))


def _lstsq_resid(m: np.ndarray, b: np.ndarray):
    x = np.linalg.lstsq(m, b, rcond=None)[0]
    # an overflowed solution solves nothing, and m @ x would warn
    return x, float(np.linalg.norm(m @ x - b)) if np.isfinite(x).all() else np.inf


def complex_right_eigs(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> list[RightEigenPair]:
    """Complex right eigenvalues, one representative pair per eigenvalue cluster.

    For each eigenvalue lam of the standard part the infinitesimal vector
    part must solve (conj(lam) I - A_st) x_I = A_I conj(x_st) for some unit
    eigenvector x_st.  Solvability is tested over the whole eigenspace: with
    N spanning the unsolvable directions, the best eigenspace combination is
    the smallest singular direction of N* A_I conj(V).  The list may be
    empty; some matrices have no complex right eigenvalue.
    """
    _check_range(a, np.linalg.LinAlgError)
    a_inf = a.infinitesimal
    accept, clusters = _eig_clusters(a, tol)
    out = []
    for lam, basis, nleft, solve in clusters:
        if nleft.shape[1] == 0:
            x_st = _normalize_phase(basis[:, 0])
        else:
            b_map = nleft.conj().T @ a_inf @ np.conj(basis)
            _, _, bvt = np.linalg.svd(b_map)
            x_st = _normalize_phase(basis @ np.conj(bvt[-1]))
        rhs = a_inf @ np.conj(x_st)
        x_inf, resid = solve(rhs)
        if resid <= accept:
            vec = DCMatrix(x_st[:, None], x_inf[:, None])
            value = DualComplex(lam)
            out.append(RightEigenPair(value, vec, verify_eigenpair(a, value, vec, tol)))
    return out


def dual_right_eigs(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> list[RightEigenPair]:
    """Right eigenpairs with dual complex values.

    Hermitian matrices go through the spectral decomposition: every 1x1
    block yields a real right eigenvalue with the matching column of U as
    eigenvector, and 2x2 blocks yield none.  Otherwise each eigenvector of
    the standard part is lifted by solving the consistency system jointly
    in (lam_I, x_I), with lam_I fixed first from the unsolvable-direction
    projection; one representative per similarity class is kept.  Clustered
    eigenvalues of a non-Hermitian standard part are flagged with a warning
    since nothing guarantees the returned set is complete there.
    """
    _check_range(a, np.linalg.LinAlgError)
    if is_hermitian(a, tol):
        dec = herm_spectral(a, tol)
        out = []
        off = 0
        for blk in dec.blocks:
            if blk.kind == "Eigen":
                vec = dec.U.column(off)
                value = DualComplex(blk.lam)
                out.append(RightEigenPair(value, vec, verify_eigenpair(a, value, vec, tol)))
            off += blk.dim
        return out

    n = a.rows
    a_inf = a.infinitesimal
    accept, clusters = _eig_clusters(a, tol)
    out = []
    for lam, basis, nleft, solve in clusters:
        warning = ("clustered eigenvalue of the standard part; returned pairs "
                   "may be incomplete") if basis.shape[1] > 1 else None
        kept_class: list[float] = []
        for col in range(basis.shape[1]):
            x_st = _normalize_phase(basis[:, col])
            rhs = a_inf @ np.conj(x_st)
            lam_inf = 0j
            if nleft.shape[1]:
                tn = nleft.conj().T @ x_st
                tb = nleft.conj().T @ rhs
                denom = float(np.vdot(tn, tn).real)
                if denom > (64 * n * _EPS) ** 2:
                    lam_inf = complex(np.vdot(tn, tb) / denom)
            x_inf, resid = solve(rhs - lam_inf * x_st)
            if resid > accept:
                continue
            class_tol = 1e-8 * (1.0 + abs(lam))
            if abs(lam.imag) > class_tol:
                if kept_class:  # non-real standard part: one similarity class only
                    continue
                kept_class.append(0.0)
            else:
                if any(abs(abs(lam_inf) - prev) <= class_tol for prev in kept_class):
                    continue
                kept_class.append(abs(lam_inf))
            vec = DCMatrix(x_st[:, None], x_inf[:, None])
            value = DualComplex(lam, lam_inf)
            out.append(RightEigenPair(value, vec, verify_eigenpair(a, value, vec, tol),
                                      warning))
    return out


def simple_eig_lift(a: DCMatrix, lam: float, x_st, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Infinitesimal eigenvector part for a simple eigenvalue of a Hermitian matrix.

    Solves (lam I - A_st) x_I = A_I conj(x_st) by minimum-norm least squares;
    the system is guaranteed consistent when lam is simple, so a large
    residual signals invalid input and raises Inconsistent.
    """
    if not is_hermitian(a, tol):
        raise NotHermitian("the lift applies to Hermitian matrices")
    x = np.asarray(x_st, dtype=complex).reshape(-1)
    if x.size != a.rows:
        raise ShapeMismatch("eigenvector length must match the matrix")
    a_st, a_inf = a.standard, a.infinitesimal
    xnorm = float(np.linalg.norm(x))
    if xnorm <= tol.zero_tol:
        raise NotAppreciable("eigenvector must be nonzero")
    eig_scale = tol.resid_tol * (1.0 + float(np.linalg.norm(a_st))) * xnorm
    if np.linalg.norm(a_st @ x - lam * x) > max(eig_scale, 1e3 * _EPS * xnorm):
        raise Inconsistent("x_st is not an eigenvector of the standard part for lam")
    m = lam * np.eye(a.rows) - a_st
    x_inf, resid = _lstsq_resid(m, a_inf @ np.conj(x))
    if resid > tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf))) * max(1.0, xnorm):
        raise Inconsistent("consistency system has no solution; lam is not simple")
    return x_inf
