"""Correctness checks made apart from the package under test.

Everything here is plain numpy.  A dual complex matrix is a pair
(st, inf) of complex arrays standing for st + inf*eps*j, and products
follow the rule

    (A B)_st = A_st B_st,   (A B)_I = A_st B_I + A_I conj(B_st)

so no helper of dclinalg (product, residual, verify_*) is trusted to judge
its own output.  Each check returns (ok, worst, reason): worst is the
largest residual found, relative to ||A|| = ||A_st||_F + ||A_I||_F where it
is a residual of A, and absolute where it is a unitarity defect.
"""

from __future__ import annotations

import numpy as np

# A residual or unitarity defect above this fails the check.  Correct factors
# from a backward-stable construction sit near 1e-14; one perturbed entry of
# size 1e-6 lands far above.
RESID_TOL = 1e-9
# The most an SVD residual may grow with the condition number (check_svd):
# below the 1e-6 perturbation that the self-test plants.
LOOSE_CEIL = 1e-7
# Eigenvalue, singular value and mu comparisons, relative to ||A||.
VALUE_TOL = 1e-8


def dmul(a, b):
    return a[0] @ b[0], a[0] @ b[1] + a[1] @ np.conj(b[0])


def dct(a):
    return a[0].conj().T, -a[1].T


def dsub_norm(a, b) -> float:
    """Larger of the two component Frobenius norms of a - b."""
    return max(float(np.linalg.norm(a[0] - b[0])), float(np.linalg.norm(a[1] - b[1])))


def norm_of(a) -> float:
    return float(np.linalg.norm(a[0])) + float(np.linalg.norm(a[1]))


def unitarity_defect(u) -> float:
    n = u[0].shape[1]
    return dsub_norm(dmul(dct(u), u), (np.eye(n), np.zeros((n, n))))


def _result(failures, worst):
    return (not failures, worst, "; ".join(failures))


# ---------------------------------------------------------------- spectral

def block_diagonal(blocks, n):
    """Sigma for blocks given as (kind, lam, mu) in order."""
    st = np.zeros((n, n), dtype=complex)
    inf = np.zeros((n, n), dtype=complex)
    off = 0
    for kind, lam, mu in blocks:
        st[off, off] = lam
        if kind == "Sub":
            st[off + 1, off + 1] = lam
            inf[off, off + 1] = mu
            inf[off + 1, off] = -mu
            off += 2
        else:
            off += 1
    return st, inf


def _levels(blocks, tol):
    """Group consecutive blocks with equal lambda: [(lam, n_eigen, [|mu|...])]."""
    levels = []
    for kind, lam, mu in blocks:
        if not levels or abs(levels[-1][0] - lam) > tol:
            levels.append([lam, 0, []])
        if kind == "Sub":
            levels[-1][2].append(abs(mu))
        else:
            levels[-1][1] += 1
    return [(lam, ne, sorted(mus, reverse=True)) for lam, ne, mus in levels]


def check_spectral(a, u, blocks, planted):
    """U* A U must equal the block diagonal of `blocks`, U must be unitary,
    and the blocks must carry the planted levels (lam, Eigen count, |mu|s)
    in descending lambda, with lambda agreeing with eigvalsh(A_st)."""
    n = a[0].shape[0]
    scale = norm_of(a)
    vtol = VALUE_TOL * scale
    failures = []
    dims = sum(2 if kind == "Sub" else 1 for kind, _, _ in blocks)
    if u[0].shape != (n, n) or u[1].shape != (n, n) or dims != n:
        return _result([f"shape: U {u[0].shape}, blocks cover {dims} of {n}"], np.inf)

    got = _levels(blocks, vtol)
    if len(got) != len(planted):
        failures.append(f"{len(got)} eigenvalue levels, planted {len(planted)}")
    else:
        for (lam, ne, mus), (plam, pne, pmus) in zip(got, planted):
            if abs(lam - plam) > vtol or ne != pne or len(mus) != len(pmus):
                failures.append(f"level {plam:.6g}: got lam {lam:.6g} with {ne} Eigen "
                                f"and {len(mus)} Sub, planted {pne} Eigen and {len(pmus)} Sub")
                break
            if mus and float(np.max(np.abs(np.subtract(mus, pmus)))) > vtol:
                failures.append(f"level {plam:.6g}: |mu| {mus} differ from planted {pmus}")
                break
    lam_dims = np.array([lam for kind, lam, _ in blocks for _ in range(2 if kind == "Sub" else 1)])
    ref = np.sort(np.linalg.eigvalsh(a[0]))[::-1]
    if float(np.max(np.abs(lam_dims - ref))) > vtol:
        failures.append("lambda disagrees with eigvalsh of the standard part")

    resid = dsub_norm(dmul(dmul(dct(u), a), u), block_diagonal(blocks, n)) / scale
    unit = unitarity_defect(u)
    worst = max(resid, unit)
    if resid > RESID_TOL:
        failures.append(f"||U*AU - Sigma|| / ||A|| = {resid:.3e}")
    if unit > RESID_TOL:
        failures.append(f"||U*U - I|| = {unit:.3e}")
    return _result(failures, worst)


# ---------------------------------------------------------------- svd

def svd_layout(m, n, sigma_blocks, d_values):
    """The m x n layout: (sigma) or coupled (sigma, nu) blocks, then D*eps*j."""
    st = np.zeros((m, n), dtype=complex)
    inf = np.zeros((m, n), dtype=complex)
    off = 0
    for sigma, nu in sigma_blocks:
        st[off, off] = sigma
        if nu is not None:
            st[off + 1, off + 1] = sigma
            inf[off, off + 1] = nu
            inf[off + 1, off] = -nu
            off += 2
        else:
            off += 1
    for d in d_values:
        inf[off, off] = d
        off += 1
    return st, inf


def check_svd(a, u, v, sigma_blocks, d_values, r, p, rank):
    """U* A V must equal the layout, U and V unitary, sigma must be the top
    singular values of A_st and r the planted rank; D must be nonnegative,
    descending, and equal to the singular values of N_L* A_I conj(N_R) on
    the null spaces of A_st, which the corner of the layout reduces to."""
    m, n = a[0].shape
    scale = norm_of(a)
    vtol = VALUE_TOL * scale
    failures = []
    if u[0].shape != (m, m) or v[0].shape != (n, n):
        return _result([f"shape: U {u[0].shape}, V {v[0].shape} for A {m}x{n}"], np.inf)
    sig = np.array([s for s, nu in sigma_blocks for _ in range(1 if nu is None else 2)])
    if r != rank or sig.size != rank:
        failures.append(f"r = {r} with {sig.size} standard values, planted rank {rank}")
    uu, s_ref, vh = np.linalg.svd(a[0])
    k = min(sig.size, rank)
    if k and float(np.max(np.abs(sig[:k] - s_ref[:k]))) > vtol:
        failures.append("sigma disagrees with the singular values of A_st")
    d = np.array(d_values, dtype=float)
    if p != d.size or p != min(m, n) - rank:
        failures.append(f"p = {p} with {d.size} values, expected {min(m, n) - rank}")
    if d.size and (np.any(d < 0) or np.any(np.diff(d) > 0)):
        failures.append("D is not nonnegative and descending")
    if d.size and r == rank:
        corner = uu[:, rank:].conj().T @ a[1] @ vh[rank:, :].T
        d_ref = np.linalg.svd(corner, compute_uv=False)[:d.size]
        if float(np.max(np.abs(d - d_ref))) > vtol:
            failures.append("D disagrees with the null-space corner of A_I")

    # dc_svd decomposes the Gram matrix on the smaller side (A*A for m >= n)
    # and derives the larger factor from it, which squares the condition
    # number of A_st.  The residual and the larger factor may lose accuracy
    # like eps * cond^2, up to LOOSE_CEIL; the Gram-side factor may not.
    cond = s_ref[0] / s_ref[rank - 1] if 0 < rank <= s_ref.size else 1.0
    tol = min(LOOSE_CEIL, max(RESID_TOL, 100 * np.finfo(float).eps * cond ** 2))
    factors = {"U": u, "V": v}
    big, small = ("U", "V") if m >= n else ("V", "U")
    layout = svd_layout(m, n, sigma_blocks, d_values)
    resid = dsub_norm(dmul(dmul(dct(u), a), v), layout) / scale
    big_unit = unitarity_defect(factors[big])
    small_unit = unitarity_defect(factors[small])
    worst = max(resid, big_unit, small_unit)
    if resid > tol:
        failures.append(f"||U*AV - layout|| / ||A|| = {resid:.3e} > {tol:.1e}")
    if big_unit > tol:
        failures.append(f"unitarity defect of {big} = {big_unit:.3e} > {tol:.1e}")
    if small_unit > RESID_TOL:
        failures.append(f"unitarity defect of {small} = {small_unit:.3e} > {RESID_TOL:.1e}")
    return _result(failures, worst)


# ---------------------------------------------------------------- eig

def check_eigenpairs(a, pairs, expected, eigvals, planted_real=None):
    """Each pair (lam_st, lam_I, x_st, x_I) must satisfy A x = x lam, with
    lam_st an eigenvalue of A_st (one pair per eigenvalue); `expected` pairs
    must come back.  With planted_real the values must be exactly the
    planted real eigenvalues of a Hermitian input, with multiplicity."""
    scale = norm_of(a)
    vtol = VALUE_TOL * scale
    failures = []
    worst = 0.0
    if len(pairs) != expected:
        failures.append(f"{len(pairs)} pairs, expected {expected}")
    nearest = set()
    for lam_st, lam_inf, x_st, x_inf in pairs:
        xnorm = float(np.linalg.norm(x_st))
        if xnorm < 0.5:
            failures.append(f"eigenvector not appreciable, ||x_st|| = {xnorm:.3e}")
            continue
        dist = np.abs(eigvals - lam_st)
        j = int(np.argmin(dist))
        if dist[j] > vtol:
            failures.append(f"{lam_st:.6g} is no eigenvalue of A_st")
        nearest.add(j)
        x = (x_st.reshape(-1, 1), x_inf.reshape(-1, 1))
        ax = dmul(a, x)
        x_lam = (x[0] * lam_st, x[0] * lam_inf + x[1] * np.conj(lam_st))
        resid = dsub_norm(ax, x_lam) / (scale * xnorm)
        worst = max(worst, resid)
        if resid > RESID_TOL:
            failures.append(f"||Ax - x lam|| / ||A|| = {resid:.3e}")
    if planted_real is None:
        if len(nearest) != len(pairs):
            failures.append("two pairs share one eigenvalue of A_st")
    else:
        got = np.sort([lam_st.real for lam_st, _, _, _ in pairs])
        want = np.sort(planted_real)
        if got.size != want.size or (got.size and float(np.max(np.abs(got - want))) > vtol):
            failures.append("values differ from the planted right eigenvalues")
    return _result(failures, worst)
