"""Right eigenvalues and eigenvectors of square dual complex matrices.

A right eigenpair satisfies A x = x lam with x appreciable.  The standard
parts always form an ordinary eigenpair of the standard part of A; the
infinitesimal parts then satisfy the linear consistency system
(conj(lam) I - A_st) x_I = A_I conj(x_st) - lam_I x_st.  One decomposition
per call gives both lists, the dual pairs of dual_right_eigs and the
complex pairs of complex_right_eigs (right_eigs returns the two, and
`dctool eig` calls it once).

Hermitian input takes the block spectral decomposition (herm_spectral),
whose 1x1 blocks are exactly the right eigenpairs, all of them real: each
is a dual pair, and the first of each level is also the complex pair.
Other input takes one eigenvalue decomposition A_st = V D V^-1 and the
inverse of V, whose norm bounds the condition number of V from above:
kappa = ||V||_F ||V^-1||_F.  Every simple eigenvalue farther than kappa
times the rank cut from the others and from every conjugate takes its
column of V, and all of them are solved in one array pass through V, in
whose basis the system is diagonal; such a pair is the same in both lists.
Everywhere else (clusters, conjugate pairs, real or nearly defective
standard parts) the route is decided once per cluster: the SVD of A_st -
lam I gives a cluster's eigenspace unless its eigenvalue is separated, and
the system is solved through V when the cluster is far from every
conjugate, else by least squares against the unsolvable directions of an
SVD.  The pairs are assembled as arrays: one index vector in cluster order
gathers every kept column, value and lam_I at once, and every vector is a
read-only view of one checked copy of that block (_pairs).  Entries too
large for this arithmetic raise AccuracyError on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from .errors import Inconsistent, NotAppreciable, ShapeMismatch
from .matrix import DCMatrix, _EPS, _check_hermitian, _check_range, _hermitian_parts, dual_residual
from .scalar import DEFAULT_TOL, DualComplex, Tolerances
from .spectral import _herm_spectral, _level_tol

_CLUSTER_WARNING = ("clustered eigenvalue of the standard part; returned pairs "
                    "may be incomplete")


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
    return dual_residual(a, (x.standard, x.infinitesimal), (value.standard, value.infinitesimal))


def verify_right_eigs(a: DCMatrix, pairs, complex_pairs,
                      tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """The largest (standard, infinitesimal) norm of A x - x value over the
    pairs of both lists of right_eigs, 0.0 for none: verify_eigenpair's
    checks for each pair, and each non-empty list's norms from one dual
    product as in _pairs, so the lists that _pairs built give back the
    largest residuals they store bit for bit (a product of both lists would
    round differently)."""
    if a.rows != a.cols:
        raise ShapeMismatch("eigenpair check needs a square matrix")
    norms = []
    for group in filter(None, (pairs, complex_pairs)):
        shapes = [p.vector.shape for p in group if p.vector.shape != (a.rows, 1)]
        if shapes:
            raise ShapeMismatch(f"eigenvector must be {a.rows}x1, got {shapes[0]}")
        x_st = np.hstack([p.vector.standard for p in group])
        if (np.linalg.norm(x_st, axis=0) <= tol.zero_tol).any():
            raise NotAppreciable("an eigenvector must be appreciable")
        x_inf = np.hstack([p.vector.infinitesimal for p in group])
        lam = np.array([p.value.standard for p in group])
        lam_inf = np.array([p.value.infinitesimal for p in group])
        norms.append(dual_residual(a, (x_st, x_inf), (lam, lam_inf), axis=0))
    return tuple(max((float(n[i].max()) for n in norms), default=0.0) for i in (0, 1))


def _pairs(a: DCMatrix, x_st: np.ndarray, x_inf: np.ndarray, lam: np.ndarray,
           lam_inf: np.ndarray, warnings) -> list[RightEigenPair]:
    """One RightEigenPair per column k of (x_st, x_inf): value lam_k + lam_inf_k eps*j.

    The block is checked finite and copied once, transposed and read-only;
    each pair's vector is an n x 1 view of one row of that copy, so the
    pairs share it and none of them copies or scans its own.  The residuals
    are the column norms of A X - X diag(lam + lam_inf eps*j), from one dual
    product for all: what verify_eigenpair gives pair by pair, up to the
    rounding of a matrix product against a matrix-vector one.
    """
    rows = DCMatrix(x_st.T, x_inf.T)
    rs, ri = dual_residual(a, (x_st, x_inf), (lam, lam_inf), axis=0)
    return [RightEigenPair(DualComplex(value, value_inf), DCMatrix._frozen(st, inf),
                           (r_st, r_inf), warning)
            for value, value_inf, st, inf, r_st, r_inf, warning
            in zip(lam.tolist(), lam_inf.tolist(), rows.standard[:, :, None],
                   rows.infinitesimal[:, :, None], rs.tolist(), ri.tolist(), warnings)]


def _normalize_phase(x: np.ndarray) -> np.ndarray:
    """Unit norm with the first nonzero component rotated to be real positive.

    x is a vector or a matrix; a matrix is normalized column by column.
    """
    cols = x.reshape(x.shape[0], -1)
    cols = cols / np.linalg.norm(cols, axis=0)
    # the first component above 1e-8 of each column, or the first one if none is
    lead = cols[np.argmax(np.abs(cols) > 1e-8, axis=0), np.arange(cols.shape[1])]
    mag = np.abs(lead)
    phase = np.divide(lead, mag, out=np.ones_like(lead), where=mag > 0)
    return (cols * np.conj(phase)).reshape(x.shape)


def _cluster_complex(vals: np.ndarray, tau: float):
    """Groups of indices whose eigenvalues chain within distance tau."""
    order = np.lexsort((vals.imag, vals.real))
    placed = vals[order]
    # near[k, j]: the j-th placed value comes before the k-th and lies within tau
    near = np.tril(np.abs(placed[:, None] - placed) <= tau, -1)
    if not near.any():
        return [[idx] for idx in order.tolist()]
    labels = np.empty(order.size, dtype=int)
    groups: list[list[int]] = []
    for k, idx in enumerate(order):
        # labels count up in creation order, so the smallest label hit is the
        # first group holding an element within tau
        hit = labels[:k][near[k, :k]]
        if hit.size:
            labels[k] = hit.min()
        else:
            labels[k] = len(groups)
            groups.append([])
        groups[labels[k]].append(int(idx))
    return groups


def _svd_cut(n: int, tau: float, scale):
    """Rank cut of an n x n SVD whose largest singular value is at most scale.

    scale may be an array; the cut is then taken elementwise.
    """
    return np.maximum(tau, 64 * n * _EPS * np.maximum(1.0, scale))


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


def _solve_through_v(a_st: np.ndarray, vecs: np.ndarray, inv_vecs: np.ndarray,
                     vals: np.ndarray, lam, b: np.ndarray):
    """Solve (conj(lam_k) I - A_st) x_k = b_k for every column k of b.

    With A_st = V D V^-1 the solution is V ((V^-1 b) / S), S_ik =
    conj(lam_k) - vals_i; lam is one value for all columns or one per
    column.  One refinement step brings the residual to the level of a
    backward stable solve at O(n^2) a column, against O(n^3) for a
    factorization.  Returns x and the residual norm of each column.
    """
    conj_lam = np.conj(lam)
    shift = conj_lam - vals[:, None]
    x = vecs @ ((inv_vecs @ b) / shift)
    x += vecs @ ((inv_vecs @ (b - (x * conj_lam - a_st @ x))) / shift)
    return x, np.linalg.norm(x * conj_lam - a_st @ x - b, axis=0)


def _lstsq_resid(m: np.ndarray, b: np.ndarray):
    """Least-squares solution of M x = b, b a vector or columns, and each residual norm."""
    x = np.linalg.lstsq(m, b, rcond=None)[0]
    # an overflowed column solves nothing, and m @ x would warn
    finite = np.isfinite(x).all(axis=0)
    resid = np.linalg.norm(m @ np.where(finite, x, 0) - b, axis=0)
    return x, np.where(finite, resid, np.inf)


def _eig_clusters(a: DCMatrix, tol: Tolerances):
    """(dual pairs, complex pairs) of non-Hermitian A from one eig and one inv.

    right_eigs sends Hermitian input, the empty matrix included, to
    _hermitian_pairs instead.  A pair is kept when its consistency residual
    is at most resid_tol (1 + ||A_I||).  Each cluster's route is decided
    once, before the loop, and the loop walks the clusters in order
    (_cluster_complex), appending each kept pair as one entry (column,
    flagged, in the dual list, in the complex list); the entries are the
    one index vector that gathers X_st, X_I, lam and lam_I.  An array-pass
    pair is one entry in both lists, so it is one object in both; the
    residuals of all pairs come from one dual product (_pairs).

    The SVD helpers cut singular values at max(tau, 64 n eps max(1, s_1))
    (_svd_cut), and s_1 <= ||A_st||_F + |lam|.  With A_st = V D V^-1 and
    kappa = ||V||_F ||V^-1||_F, at least cond(V) and inf for a singular V,
    s_{n-1}(A_st - lam I) and s_min(M), M = conj(lam) I - A_st, are at least
    the second smallest |vals - lam| and the smallest |vals - conj(lam)|,
    divided by kappa.  An eigenvalue is separated when the first distance
    exceeds kappa times the cut, and a cluster, at its mean, far when the
    second one does: the SVDs would then find a one-dimensional eigenspace
    and no unsolvable direction, and lstsq would not truncate.  A
    one-member cluster that is both is alone; as the reach is at least tau,
    every separated eigenvalue is a cluster of its own.  The alone ones are
    solved together: X_st holds their phase-normalized columns of V, and
    _solve_through_v solves M_k x_k = A_I conj(x_k) for every column at
    once, with lam_I = 0.

    Every other cluster falls back, one at a time, to an eigenspace basis
    (its column of V when separated, else _eigenspace_basis) and, unless
    far, to the unsolvable directions null(M*) (_left_null_basis) and
    lstsq.  Its dual pairs lift each basis column, with lam_I fixed first
    from the unsolvable-direction projection, one per similarity class.
    Its complex pair is x_st = basis c, which solves the system iff conj(c)
    lies in the null space of K = null(M*)* A_I conj(basis); conj(c) is
    the smallest right singular vector of K, so c is the last row of K's
    Vh.  With no unsolvable direction it is the first basis column.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("eigenvalues need a square matrix")
    n = a.rows
    a_st, a_inf = a.standard, a.infinitesimal
    accept = tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf)))
    vals, vecs = np.linalg.eig(a_st)
    tau = _level_tol(vals, tol)
    try:
        inv_vecs = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:  # an exactly singular V: nothing is separated or far
        inv_vecs, kappa = None, np.inf
    else:
        # ||V^-1||_F of a nearly singular V overflows to inf, which is the bound
        with np.errstate(over="ignore"):
            kappa = float(np.linalg.norm(vecs) * np.linalg.norm(inv_vecs))
    a_norm = float(np.linalg.norm(a_st))

    # the routes, decided once: an eigenvalue is separated, a cluster (at its
    # mean, which for one member is its value) is far, and alone when both
    groups = _cluster_complex(vals, tau)
    means = np.array([vals[g[0]] if len(g) == 1 else np.mean(vals[g]) for g in groups],
                     dtype=complex)
    dist = np.abs(vals[:, None] - vals)
    np.fill_diagonal(dist, np.inf)
    separated = dist.min(axis=1) > kappa * _svd_cut(n, tau, a_norm + np.abs(vals))
    far = (np.abs(np.conj(means)[:, None] - vals).min(axis=1)
           > kappa * _svd_cut(n, tau, a_norm + np.abs(means)))
    alone = [len(g) == 1 and separated[g[0]] and f for g, f in zip(groups, far.tolist())]

    # the array pass, in cluster order: its j-th column is the j-th alone cluster
    fast = [g[0] for g, one in zip(groups, alone) if one]
    fast_st = fast_inf = np.empty((n, 0), dtype=complex)
    fast_resid = np.empty(0)
    if fast:
        fast_st = _normalize_phase(vecs[:, fast])
        fast_inf, fast_resid = _solve_through_v(a_st, vecs, inv_vecs, vals, vals[fast],
                                                a_inf @ np.conj(fast_st))

    # the SVD path's columns (x_st, x_inf, lam, lam_I) follow the array-pass
    # ones; each kept pair is one entry (column, flagged, dual pair, complex
    # pair), appended where its cluster comes
    parts: list[tuple[np.ndarray, ...]] = [(fast_st, fast_inf, vals[fast],
                                            np.zeros(len(fast), dtype=complex))]
    entries = []
    offset, j = len(fast), 0
    for k, (group, lam) in enumerate(zip(groups, means.tolist())):
        if alone[k]:
            if fast_resid[j] <= accept:
                entries.append((j, 0, 1, 1))
            j += 1
            continue
        basis = (vecs[:, group] if len(group) == 1 and separated[group[0]]
                 else _eigenspace_basis(a_st, lam, tau))
        cols = basis.shape[1]
        x_st = _normalize_phase(basis)
        rhs = a_inf @ np.conj(x_st)
        lam_inf = np.zeros(cols, dtype=complex)
        m = None if far[k] else np.conj(lam) * np.eye(n) - a_st  # far: no SVD, no lstsq
        nleft = basis[:, :0] if m is None else _left_null_basis(m, tau)
        if nleft.shape[1]:
            tn = nleft.conj().T @ x_st
            tb = nleft.conj().T @ rhs
            denom = np.einsum("ij,ij->j", tn.conj(), tn).real
            big = denom > (64 * n * _EPS) ** 2
            lam_inf[big] = np.einsum("ij,ij->j", tn.conj(), tb)[big] / denom[big]
            # the best eigenspace combination for the complex pair
            _, _, bvt = np.linalg.svd(nleft.conj().T @ a_inf @ np.conj(basis))
            x_st = np.column_stack([x_st, _normalize_phase(basis @ bvt[-1])])
            rhs = np.column_stack([rhs - x_st[:, :cols] * lam_inf,
                                   a_inf @ np.conj(x_st[:, cols])])
            lam_inf = np.append(lam_inf, 0j)
        x_inf, resid = (_solve_through_v(a_st, vecs, inv_vecs, vals, lam, rhs) if far[k]
                        else _lstsq_resid(m, rhs))
        parts.append((x_st, x_inf, np.full(x_st.shape[1], lam), lam_inf))

        class_tol = 1e-8 * (1.0 + abs(lam))
        kept_class: list[float] = []
        for col in np.flatnonzero(resid[:cols] <= accept):
            if abs(lam.imag) > class_tol:
                if kept_class:  # non-real standard part: one similarity class only
                    continue
                kept_class.append(0.0)
            else:
                if any(abs(abs(lam_inf[col]) - prev) <= class_tol for prev in kept_class):
                    continue
                kept_class.append(abs(lam_inf[col]))
            entries.append((offset + col, cols > 1, 1, 0))
        c = cols if nleft.shape[1] else 0  # the complex pair's column
        if resid[c] <= accept:
            entries.append((offset + c, 0, 0, 1))
        offset += x_st.shape[1]

    index, flagged, in_dual, in_cplx = np.array(entries, dtype=int).reshape(-1, 4).T
    x_st, x_inf, lam, lam_inf = (np.take(np.concatenate(part, axis=-1), index, axis=-1)
                                 for part in zip(*parts))
    pairs = _pairs(a, x_st, x_inf, lam, lam_inf,
                   [_CLUSTER_WARNING if f else None for f in flagged.tolist()])
    return (list(compress(pairs, in_dual.tolist())),
            list(compress(pairs, in_cplx.tolist())))


def _hermitian_pairs(a: DCMatrix, halves, tol: Tolerances):
    """(dual pairs, complex pairs) of a Hermitian matrix from one herm_spectral.

    halves are A's Hermitian parts, from the check that accepted A
    (matrix._hermitian_parts), which herm_spectral would otherwise repeat.

    The right eigenpairs are the 1x1 (Eigen) blocks, each a real value with
    its column of U; 2x2 (Sub) blocks yield none.  Every Eigen block is a
    dual pair, and the first one of each level is also that level's complex
    pair, the same object in both lists.  Blocks come in descending lambda,
    and the blocks of one level carry one value, so a level starts where
    the value changes.
    """
    dec = _herm_spectral(a, *halves, tol)
    offsets = np.cumsum([0] + [blk.dim for blk in dec.blocks])
    eigen = [k for k, blk in enumerate(dec.blocks) if blk.kind == "Eigen"]
    cols = offsets[eigen]
    lam = np.array([dec.blocks[k].lam for k in eigen], dtype=float)
    dual = _pairs(a, dec.U.standard[:, cols], dec.U.infinitesimal[:, cols], lam,
                  np.zeros(lam.size), [None] * lam.size)
    return dual, [p for k, p in enumerate(dual) if k == 0 or lam[k] != lam[k - 1]]


def right_eigs(a: DCMatrix, tol: Tolerances = DEFAULT_TOL):
    """(dual_right_eigs(a), complex_right_eigs(a)) from one decomposition.

    Hermitian input takes one herm_spectral (_hermitian_pairs), any other
    square input one eig of the standard part (_eig_clusters); either way
    both lists cost about what one of them costs.  The range check and the
    Hermitian check run once, here.
    """
    _check_range(a)
    halves = _hermitian_parts(a, tol)
    return _eig_clusters(a, tol) if halves is None else _hermitian_pairs(a, halves, tol)


def complex_right_eigs(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> list[RightEigenPair]:
    """Complex right eigenvalues, one representative pair per eigenvalue cluster.

    For each eigenvalue lam of the standard part the infinitesimal vector
    part must solve (conj(lam) I - A_st) x_I = A_I conj(x_st) for some unit
    eigenvector x_st.  Solvability is tested over the whole eigenspace: with
    N spanning the unsolvable directions and B the eigenspace basis, x_st =
    B c solves it iff conj(c) lies in the null space of N* A_I conj(B).  A
    Hermitian matrix has one real pair per level that holds an Eigen block
    of herm_spectral, in descending order.  The list may be empty; some
    matrices have no complex right eigenvalue.
    """
    return right_eigs(a, tol)[1]


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
    return right_eigs(a, tol)[0]


def simple_eig_lift(a: DCMatrix, lam: float, x_st, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Infinitesimal eigenvector part for a simple eigenvalue of a Hermitian matrix.

    Solves (lam I - A_st) x_I = A_I conj(x_st) by minimum-norm least squares;
    the system is guaranteed consistent when lam is simple, so a large
    residual signals invalid input and raises Inconsistent.  So does a
    solution that leaves double range, as it does when A_st is tiny against
    A_I, with a message that says so.  Entries too large for this
    arithmetic raise AccuracyError.
    """
    _check_hermitian(a, tol, "the lift applies to Hermitian matrices")
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
    if not np.isfinite(x_inf).all():
        raise Inconsistent("consistency system has no solution in double range: "
                           "x_I overflows, A_st is too small against A_I")
    if resid > tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf))) * max(1.0, xnorm):
        raise Inconsistent("consistency system has no solution; lam is not simple")
    return x_inf
