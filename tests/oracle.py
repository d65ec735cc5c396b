"""Reference implementations the tests compare the library against.

Scalar arithmetic goes through the 4x4 real left-multiplication
representation.  A scalar is the coordinate vector (q0, q1, q2, q3) over
the basis (1, i, eps*j, eps*k).  Left multiplication by p is the linear map
below, read off the componentwise product formula; it is ground truth
independent of the packed complex representation used by the library.  The
Hermitian spectral decomposition has a loop-based reference,
herm_spectral_loop, the right eigenpair routines have their SVD-per-cluster
references, complex_right_eigs_svd and dual_right_eigs_svd, the SVD has
its Gram-matrix form, dc_svd_gram, and youla_skew has its form that
deflates each group of equal singular values with one SVD per pair,
youla_skew_deflation, which also takes a stack of blocks in place of the
library's stacked core.  hermitian_residual_pair and residual_pair are the
residual pairs of herm_spectral and of dc_svd by dense numpy products on
the assembled layout.  phi is the block-triangular representation of a
dual complex matrix as a complex one, for checks by plain numpy products,
and sub_count reads the number of Sub blocks at a level off phi's kernel,
with no clustering and no youla_skew.
"""

import math

import numpy as np

from dclinalg import (
    DEFAULT_TOL,
    AccuracyError,
    DCMatrix,
    DualComplex,
    IllConditionedGap,
    NotHermitian,
    NotSkewSymmetric,
    RightEigenPair,
    ShapeMismatch,
    SingularBlock,
    SpectralBlock,
    SpectralDecomposition,
    SvdResult,
    Tolerances,
    assemble_blocks,
    assemble_layout,
    component_norms,
    conj_transpose,
    herm_spectral,
    is_hermitian,
    mat_mul,
    youla_skew,
)
from dclinalg.spectral import _chain
from dclinalg.eig import (
    _EPS,
    _eigenspace_basis,
    _left_null_basis,
    _lstsq_resid,
    _normalize_phase,
)


def coords(q: DualComplex) -> np.ndarray:
    return np.array(q.reals())


def from_coords(v) -> DualComplex:
    return DualComplex.from_reals(*v)


def left_matrix(p4) -> np.ndarray:
    p0, p1, p2, p3 = p4
    return np.array([
        [p0, -p1, 0.0, 0.0],
        [p1, p0, 0.0, 0.0],
        [p2, p3, p0, -p1],
        [p3, -p2, p1, p0],
    ])


def mul(p: DualComplex, q: DualComplex) -> DualComplex:
    return from_coords(left_matrix(coords(p)) @ coords(q))


def conj(q: DualComplex) -> DualComplex:
    q0, q1, q2, q3 = coords(q)
    return from_coords([q0, -q1, -q2, -q3])


def mag(q: DualComplex) -> float:
    q0, q1, _, _ = coords(q)
    return float(np.hypot(q0, q1))


def inv(q: DualComplex) -> DualComplex:
    m2 = mag(q) ** 2
    return from_coords(coords(conj(q)) / m2)


def close(p: DualComplex, q: DualComplex, tol: float = 1e-13) -> bool:
    return bool(np.max(np.abs(coords(p) - coords(q))) <= tol)


def _cluster_descending(w: np.ndarray, tau: float):
    """Single-linkage clusters of a descending real sequence; returns slices."""
    slices = []
    start = 0
    for i in range(1, len(w)):
        if w[i - 1] - w[i] > tau:
            slices.append(slice(start, i))
            start = i
    slices.append(slice(start, len(w)))
    return slices


def youla_skew_deflation(c, tol: Tolerances = DEFAULT_TOL):
    """The form of youla_skew that deflates with one SVD per pair, kept as a reference.

    Within a group of equal singular values it pairs the first remaining
    column x with y = U_g V_g* conj(x), y projected off the group's earlier
    pairs, projects both out of the remaining columns, and re-orthonormalizes
    what is left with a fresh SVD, guarded by a rank test, before it takes
    the next pair.

    A stack c of shape (K, n, n) goes block by block, and the results come
    back stacked as spectral._youla_stack returns them: Q of shape
    (K, n, n), K pair lists and an array of K null dimensions.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim == 3:
        qs, pairs, null_dims = zip(*(youla_skew_deflation(block, tol) for block in c))
        return np.stack(qs), list(pairs), np.array(null_dims)
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
    k = 2 * int(np.sum((s[:n - 1:2] + s[1::2]) / 2 > null_cut))

    # the pairing map x -> U_g V_g* conj(x) only preserves its own group's
    # span, so vectors must pair off within their own group
    starts, ends = _chain(s[:k], 64 * n * _EPS * max(1.0, smax))
    cols = []
    for g0, g1 in zip(starts.tolist(), ends.tolist()):
        if (g1 - g0) % 2 == 1:
            raise AccuracyError("odd singular value group; equal values were split")
        u_g, vh_g = u[:, g0:g1], vh[g0:g1]
        remaining = u_g.copy()
        first = len(cols)
        while remaining.shape[1] > 0:
            x = remaining[:, 0]
            y = u_g @ (vh_g @ np.conj(x))
            y = y - x * np.vdot(x, y)  # exact orthogonality is automatic; enforce it anyway
            if len(cols) > first:
                # J J = -1 holds only to the spread of the group's computed
                # values relative to their size, so y also leaks onto the
                # group's earlier pairs (their columns of Q, conjugated)
                done = np.conj(np.column_stack(cols[first:]))
                y = y - done @ (done.conj().T @ y)
            y_norm = np.linalg.norm(y)
            if y_norm < 0.5:
                raise AccuracyError("pairing collapsed; singular value grouping failed")
            y = y / y_norm
            cols += [np.conj(y), np.conj(x)]
            keep = remaining.shape[1] - 2
            if keep <= 0:
                break
            z = (remaining - np.outer(x, np.conj(x) @ remaining)
                 - np.outer(y, np.conj(y) @ remaining))
            uz, sz, _ = np.linalg.svd(z, full_matrices=False)
            if sz[keep - 1] < 0.5:
                raise AccuracyError("deflation lost rank while pairing singular vectors")
            remaining = uz[:, :keep]

    q = np.column_stack(cols + [np.conj(u[:, k:])])  # null(C) = conj(null(C*))

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


def herm_spectral_loop(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """The loop-based form of herm_spectral, kept as a reference for the array form.

    It calls youla_skew on every cluster's block V_k* H_I conj(V_k), 1x1
    ones included, and turns each cluster's columns of V by their own
    product into X.  It then couples clusters pair by pair through
    K = X* H_I conj(X), and forms U = X (I - P eps*j) by a full dual
    complex product.
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
    v = v[:, ::-1].copy()  # C-ordered, as BLAS takes it
    wmax = float(np.abs(w).max()) if n else 0.0
    tau = tol.group_tol * (1.0 + wmax)
    slices = _cluster_descending(w, tau)
    for i in range(len(slices) - 1):
        gap = w[slices[i].stop - 1] - w[slices[i + 1].start]
        if gap < 10 * tau:
            raise IllConditionedGap(
                f"distinct eigenvalue clusters separated by {gap:.3e} < {10 * tau:.3e}")
    reps = [float(np.mean(w[sl])) for sl in slices]

    blocks = []
    x = np.zeros((n, n), dtype=complex)
    # H_I conj(V) on the columns of the clusters of more than one member, in
    # one product as herm_spectral forms it: BLAS rounds a product's columns
    # differently with its width, and youla_skew's null basis turns with any
    # change in the last bit.  A 1x1 cluster's skew block is zero anyway
    multi = [i for sl in slices if sl.stop - sl.start > 1 for i in range(sl.start, sl.stop)]
    hv = np.zeros((n, n), dtype=complex)
    hv[:, multi] = a_inf @ np.conj(v[:, multi])
    for sl, rep in zip(slices, reps):
        vk = v[:, sl]
        ck = vk.conj().T @ hv[:, sl]
        q, pairs, null_dim = youla_skew((ck - ck.T) / 2, tol)
        d = q.shape[0]
        perm = list(range(2 * len(pairs), d)) + list(range(2 * len(pairs)))
        x[:, sl] = vk @ np.conj(q[:, perm])
        blocks.extend(SpectralBlock("Eigen", rep) for _ in range(null_dim))
        blocks.extend(SpectralBlock("Sub", rep, s) for s in pairs)

    k_mat = x.conj().T @ (a_inf @ np.conj(x))
    p_inf = np.zeros((n, n), dtype=complex)
    for i in range(len(slices)):
        for j in range(i + 1, len(slices)):
            si, sj = slices[i], slices[j]
            pij = (k_mat[si, sj] - k_mat[sj, si].T) * (0.5 / (reps[i] - reps[j]))
            p_inf[si, sj] = pij
            p_inf[sj, si] = pij.T

    u = mat_mul(DCMatrix(x), DCMatrix(np.eye(n), -p_inf))
    return SpectralDecomposition(u, tuple(blocks),
                                 hermitian_residual_pair(a, u, assemble_blocks(blocks)))


def hermitian_residual_pair(a: DCMatrix, u: DCMatrix, layout: DCMatrix):
    """The pair herm_spectral reports, by dense numpy products on the assembled layout.

    With H the Hermitian halves of A, G = H_st X, S = G* Y and
    K = X* H_I conj(X) for U = X + Y eps*j, the pair is (||G - X L_st||,
    ||S - S^T + K - L_I||), each against U's unitarity defect and against
    ||A_st - H_st|| and ||A_I - H_I||, taken as half the norms of
    A_st - A_st* and A_I + A_I^T.
    """
    st_h, inf_t = a.standard.conj().T, a.infinitesimal.T
    h_st, h_inf = (a.standard + st_h) / 2, (a.infinitesimal - inf_t) / 2
    off = (np.linalg.norm(a.standard - st_h) / 2, np.linalg.norm(a.infinitesimal + inf_t) / 2)
    x, y = u.standard, u.infinitesimal
    g = h_st @ x
    s = g.conj().T @ y
    k_mat = x.conj().T @ (h_inf @ np.conj(x))
    t_inf = s - s.T + k_mat - layout.infinitesimal
    r_st = g - x @ layout.standard
    m = x.conj().T @ y  # (U* U)_I = X* Y - Y^T conj(X) = M - M^T
    norms = [(np.linalg.norm(r_st), np.linalg.norm(t_inf)),
             (np.linalg.norm(x.conj().T @ x - np.eye(u.cols)), np.linalg.norm(m - m.T)), off]
    return tuple(float(max(part)) for part in zip(*norms))


def residual_pair(a: DCMatrix, u: DCMatrix, v: DCMatrix, layout: DCMatrix):
    """The pair dc_svd reports, by dense numpy products.

    With G = A V, R = A V - U L and E = U* U - I on the assembled layout L,
    the pair is (||R_st||, ||T_I||), each against the larger unitarity
    defect of U and V, where T_I = X* G_I - Y^T conj(G_st) - L_I is the
    infinitesimal part of T = U* A V - L for U = X + Y eps*j.
    """
    l_st, l_inf = layout.standard, layout.infinitesimal
    x, y = u.standard, u.infinitesimal
    g_st = a.standard @ v.standard
    g_inf = a.standard @ v.infinitesimal + a.infinitesimal @ np.conj(v.standard)
    r_st = g_st - x @ l_st
    defects = []
    for f in (u, v):
        fh = f.standard.conj().T
        m = fh @ f.infinitesimal  # (U* U)_I = X* Y - Y^T conj(X) = M - M^T
        defects.append((fh @ f.standard - np.eye(f.cols), m - m.T))
    t_inf = x.conj().T @ g_inf - y.T @ np.conj(g_st) - l_inf
    norms = [(np.linalg.norm(r_st), np.linalg.norm(t_inf))]
    norms += [(np.linalg.norm(d_st), np.linalg.norm(d_inf)) for d_st, d_inf in defects]
    return tuple(float(max(part)) for part in zip(*norms))


def phi(a) -> np.ndarray:
    """phi(A) = [[A_st, A_I], [0, conj(A_st)]] for a DCMatrix or a DualComplex.

    phi maps dual complex matrices injectively into complex ones of twice
    the size and keeps products: the upper-right block of phi(A) phi(B) is
    A_st B_I + A_I conj(B_st), the product rule.  A check through phi and
    plain numpy products shares no code with mat_mul.
    """
    if isinstance(a, DualComplex):
        st, inf = np.array([[a.standard]]), np.array([[a.infinitesimal]])
    else:
        st, inf = a.standard, a.infinitesimal
    return np.block([[st, inf], [np.zeros_like(st), np.conj(st)]])


def sub_count(h: DCMatrix, lam: float, k: int) -> int:
    """Number of Sub blocks at the level lam, of multiplicity k, of a Hermitian h.

    phi(h) is similar to phi(Sigma), where an Eigen block lam maps to
    lam I_2 and a Sub block to lam I_4 plus a rank-2 nilpotent, so
    dim ker(phi(h) - lam I) = 2 (k - #Sub).  The kernel dimension is the
    number of singular values at most 1e-8 (1 + ||phi(h)||).
    """
    ph = phi(h)
    s = np.linalg.svd(ph - lam * np.eye(2 * h.rows), compute_uv=False)
    dim = int(np.sum(s <= 1e-8 * (1.0 + np.linalg.norm(ph, 2))))
    if dim % 2:
        raise ValueError(f"odd kernel dimension {dim} at {lam}")
    return k - dim // 2


def verify_eigenpair_products(a: DCMatrix, value: DualComplex, x: DCMatrix):
    """Component norms of A x - x value through DCMatrix products."""
    return component_norms(mat_mul(a, x) - x * value)


def cluster_complex_loop(vals: np.ndarray, tau: float):
    """Loop form of eig._cluster_complex: each value joins the first group,
    in creation order, that holds a value within tau, else starts a group."""
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


def _eig_clusters_svd(a: DCMatrix, tol: Tolerances):
    """Per cluster of eigvals(A_st): lam, SVD eigenspace basis, M, SVD null(M*) basis."""
    if a.rows != a.cols:
        raise ShapeMismatch("eigenvalues need a square matrix")
    a_st = a.standard
    vals = np.linalg.eigvals(a_st)
    tau = tol.group_tol * (1.0 + (float(np.abs(vals).max()) if vals.size else 0.0))
    for group in cluster_complex_loop(vals, tau):
        lam = complex(np.mean(vals[group]))
        m = np.conj(lam) * np.eye(a.rows) - a_st
        yield lam, _eigenspace_basis(a_st, lam, tau), m, _left_null_basis(m, tau)


def complex_right_eigs_svd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL):
    """complex_right_eigs with two SVDs and a least-squares solve per cluster."""
    a_inf = a.infinitesimal
    accept = tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf)))
    out = []
    for lam, basis, m, nleft in _eig_clusters_svd(a, tol):
        if nleft.shape[1] == 0:
            x_st = _normalize_phase(basis[:, 0])
        else:
            b_map = nleft.conj().T @ a_inf @ np.conj(basis)
            _, _, bvt = np.linalg.svd(b_map)
            x_st = _normalize_phase(basis @ bvt[-1])
        x_inf, resid = _lstsq_resid(m, a_inf @ np.conj(x_st))
        if resid <= accept:
            vec = DCMatrix(x_st[:, None], x_inf[:, None])
            value = DualComplex(lam)
            out.append(RightEigenPair(value, vec, verify_eigenpair_products(a, value, vec)))
    return out


def dual_right_eigs_svd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL):
    """dual_right_eigs with two SVDs and least-squares solves per cluster."""
    if is_hermitian(a, tol):
        dec = herm_spectral(a, tol)
        out = []
        off = 0
        for blk in dec.blocks:
            if blk.kind == "Eigen":
                vec = dec.U.column(off)
                value = DualComplex(blk.lam)
                out.append(RightEigenPair(value, vec, verify_eigenpair_products(a, value, vec)))
            off += blk.dim
        return out
    n = a.rows
    a_inf = a.infinitesimal
    accept = tol.resid_tol * (1.0 + float(np.linalg.norm(a_inf)))
    out = []
    for lam, basis, m, nleft in _eig_clusters_svd(a, tol):
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
                if kept_class:
                    continue
                kept_class.append(0.0)
            else:
                if any(abs(abs(lam_inf) - prev) <= class_tol for prev in kept_class):
                    continue
                kept_class.append(abs(lam_inf))
            vec = DCMatrix(x_st[:, None], x_inf[:, None])
            value = DualComplex(lam, lam_inf)
            out.append(RightEigenPair(value, vec, verify_eigenpair_products(a, value, vec),
                                      warning))
    return out


def dc_svd_gram(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SvdResult:
    """The Gram-matrix form of dc_svd, kept as a reference for the direct form.

    It decomposes A*A with herm_spectral, takes block square roots, forms the
    left factor as A V_1 Sigma_r^-1, completes it by QR, factors the
    remaining infinitesimal corner by a complex SVD, and runs wide matrices
    on the conjugate transpose.  Its rank cutoff is floored at
    8 sqrt(dim eps) sigma_1, since squaring the matrix squares its
    conditioning.
    """
    m, n = a.shape
    if m < n:
        flipped = dc_svd_gram(conj_transpose(a), tol)
        r, p = flipped.standard_rank, flipped.infinitesimal_rank
        # conjugate transposition of the layout negates the D block; flipping
        # the sign of the matching columns of the new V restores it
        v_st = flipped.U.standard.copy()
        v_inf = flipped.U.infinitesimal.copy()
        v_st[:, r:r + p] *= -1
        v_inf[:, r:r + p] *= -1
        u_new, v_new = flipped.V, DCMatrix(v_st, v_inf)
        layout = assemble_layout(m, n, flipped.standard_blocks, flipped.infinitesimal_values)
        resid = residual_pair(a, u_new, v_new, layout)
        return SvdResult(u_new, v_new, flipped.standard_blocks,
                         flipped.infinitesimal_values, r, p, resid)

    dec = herm_spectral(mat_mul(conj_transpose(a), a), tol)
    lam_max = max((b.lam for b in dec.blocks), default=0.0)
    smax = math.sqrt(max(lam_max, 0.0))
    cut = max(tol.zero_tol, 8.0 * math.sqrt(max(m, n) * _EPS)) * smax
    sig_blocks = []
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
        # (sigma I + N eps*j)^-1 = I/sigma - N/sigma^2 eps*j per block
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

    inf_vals = ()
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
    resid = residual_pair(a, u, v, layout)
    return SvdResult(u, v, tuple(sig_blocks), inf_vals, r, p, resid)
