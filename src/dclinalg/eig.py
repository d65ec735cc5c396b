"""Right eigenvalues and eigenvectors of square dual complex matrices.

A right eigenpair satisfies A x = x lam with x appreciable.  The standard
parts always form an ordinary eigenpair of the standard part of A; the
infinitesimal parts then satisfy a linear consistency system which is
solved per eigenvalue by least squares.  Hermitian input is routed through
the block spectral decomposition, whose 1x1 blocks are exactly the right
eigenpairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Inconsistent, NotAppreciable, NotHermitian, ShapeMismatch
from .matrix import DCMatrix, component_norms, is_hermitian, mat_mul
from .scalar import DEFAULT_TOL, DualComplex, Tolerances
from .spectral import herm_spectral

_EPS = float(np.finfo(float).eps)


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
    return component_norms(mat_mul(a, x) - x * value)


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
    groups: list[list[int]] = []
    for idx in order:
        placed = False
        for g in groups:
            if any(abs(vals[idx] - vals[j]) <= tau for j in g):
                g.append(int(idx))
                placed = True
                break
        if not placed:
            groups.append([int(idx)])
    return groups


def _eigenspace_basis(a_st: np.ndarray, lam: complex, tau: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space of (A_st - lam I)."""
    n = a_st.shape[0]
    m = a_st - lam * np.eye(n)
    _, s, vh = np.linalg.svd(m)
    cut = max(tau, 64 * n * _EPS * max(1.0, float(s[0]) if s.size else 1.0))
    dim = int(np.sum(s <= cut))
    if dim == 0:
        dim = 1  # lam is an eigenvalue, so the smallest direction is the eigenvector
    return vh[n - dim:, :].conj().T


def _left_null_basis(m: np.ndarray, tau: float) -> np.ndarray:
    """Orthonormal basis of null(M*); least-squares residuals live in its span."""
    u, s, _ = np.linalg.svd(m)
    n = m.shape[0]
    cut = max(tau, 64 * n * _EPS * max(1.0, float(s[0]) if s.size else 1.0))
    dim = int(np.sum(s <= cut))
    return u[:, n - dim:] if dim else u[:, :0]


def _eig_clusters(a: DCMatrix, tol: Tolerances):
    """Per eigenvalue cluster of A_st, yield (lam, eigenspace basis, M, null(M*) basis).

    lam is the cluster mean and M = conj(lam) I - A_st, the matrix of the
    consistency system for the infinitesimal vector part.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("eigenvalues need a square matrix")
    a_st = a.standard
    vals = np.linalg.eigvals(a_st)
    tau = tol.group_tol * (1.0 + (float(np.abs(vals).max()) if vals.size else 0.0))
    for group in _cluster_complex(vals, tau):
        lam = complex(np.mean(vals[group]))
        m = np.conj(lam) * np.eye(a.rows) - a_st
        yield lam, _eigenspace_basis(a_st, lam, tau), m, _left_null_basis(m, tau)


def _lstsq_resid(m: np.ndarray, b: np.ndarray):
    x = np.linalg.lstsq(m, b, rcond=None)[0]
    return x, float(np.linalg.norm(m @ x - b))


def complex_right_eigs(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> list[RightEigenPair]:
    """Complex right eigenvalues, one representative pair per eigenvalue cluster.

    For each eigenvalue lam of the standard part the infinitesimal vector
    part must solve (conj(lam) I - A_st) x_I = A_I conj(x_st) for some unit
    eigenvector x_st.  Solvability is tested over the whole eigenspace: with
    N spanning the unsolvable directions, the best eigenspace combination is
    the smallest singular direction of N* A_I conj(V).  The list may be
    empty; some matrices have no complex right eigenvalue.
    """
    a_inf = a.infinitesimal
    accept = tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf)))
    out = []
    for lam, basis, m, nleft in _eig_clusters(a, tol):
        if nleft.shape[1] == 0:
            x_st = _normalize_phase(basis[:, 0])
        else:
            b_map = nleft.conj().T @ a_inf @ np.conj(basis)
            _, _, bvt = np.linalg.svd(b_map)
            x_st = _normalize_phase(basis @ np.conj(bvt[-1]))
        rhs = a_inf @ np.conj(x_st)
        x_inf, resid = _lstsq_resid(m, rhs)
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
    accept = tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf)))
    out = []
    for lam, basis, m, nleft in _eig_clusters(a, tol):
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
            x_inf, _ = _lstsq_resid(m, rhs - lam_inf * x_st)
            resid = float(np.linalg.norm(lam_inf * x_st + m @ x_inf - rhs))
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
