"""Reference implementations the tests compare the library against.

Scalar arithmetic goes through the 4x4 real left-multiplication
representation.  A scalar is the coordinate vector (q0, q1, q2, q3) over
the basis (1, i, eps*j, eps*k).  Left multiplication by p is the linear map
below, read off the componentwise product formula; it is ground truth
independent of the packed complex representation used by the library.  The
Hermitian spectral decomposition has a loop-based reference,
herm_spectral_loop.
"""

import numpy as np

from dclinalg import (
    DEFAULT_TOL,
    DCMatrix,
    DualComplex,
    IllConditionedGap,
    NotHermitian,
    ShapeMismatch,
    SpectralBlock,
    SpectralDecomposition,
    Tolerances,
    assemble_blocks,
    component_norms,
    conj_transpose,
    is_hermitian,
    mat_mul,
    youla_skew,
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


def herm_spectral_loop(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """The loop-based form of herm_spectral, kept as a reference for the array form.

    It couples clusters pair by pair, calls youla_skew on every cluster,
    1x1 ones included, and assembles U from full dual complex products with
    the block-diagonal W.
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
    slices = _cluster_descending(w, tau)
    for i in range(len(slices) - 1):
        gap = w[slices[i].stop - 1] - w[slices[i + 1].start]
        if gap < 10 * tau:
            raise IllConditionedGap(
                f"distinct eigenvalue clusters separated by {gap:.3e} < {10 * tau:.3e}")
    reps = [float(np.mean(w[sl])) for sl in slices]

    s_mat = v.conj().T
    c = s_mat @ a_inf @ s_mat.T
    c = (c - c.T) / 2

    p_inf = np.zeros((n, n), dtype=complex)
    for i in range(len(slices)):
        for j in range(i + 1, len(slices)):
            cij = c[slices[i], slices[j]]
            gap = reps[i] - reps[j]
            p_inf[slices[i], slices[j]] = cij / gap
            p_inf[slices[j], slices[i]] = cij.T / gap

    blocks = []
    w_diag = np.zeros((n, n), dtype=complex)
    for sl, rep in zip(slices, reps):
        q, pairs, null_dim = youla_skew(c[sl, sl], tol)
        d = q.shape[0]
        perm = list(range(2 * len(pairs), d)) + list(range(2 * len(pairs)))
        w_diag[sl, sl] = np.conj(q[:, perm])
        blocks.extend(SpectralBlock("Eigen", rep) for _ in range(null_dim))
        blocks.extend(SpectralBlock("Sub", rep, s) for s in pairs)

    ps = mat_mul(DCMatrix(np.eye(n), p_inf), DCMatrix(s_mat))
    u = mat_mul(conj_transpose(ps), DCMatrix(w_diag))

    sigma = assemble_blocks(blocks)
    resid = component_norms(mat_mul(mat_mul(conj_transpose(u), a), u) - sigma)
    return SpectralDecomposition(u, tuple(blocks), resid)
