"""Spectral machinery for dual complex Hermitian matrices.

A Hermitian matrix here has a complex Hermitian standard part and a complex
skew-symmetric infinitesimal part.  A dual complex unitary similarity always
reduces it to a block diagonal with 1x1 real blocks (right eigenvalues) and
2x2 blocks [[lam, mu*eps*j], [-mu*eps*j, lam]] with mu != 0 (right
subeigenvalues).  The singular value decomposition (svd.py) ends in the same
blocks, with (sigma, nu) for (lam, mu); both run in three stages, and
stages 1 and 3 are the helpers here that both call:

1. _clusters chains the descending values wherever neighbours lie within
   tau, represents each cluster by its mean, and raises IllConditionedGap
   when a cluster stands less than 10 tau above the next one, since stage 2
   divides by those gaps;
2. a unitary correction removes all infinitesimal coupling between
   clusters.  Its infinitesimal part is the rotated infinitesimal part
   divided entry by entry by the gap between the representatives of the
   row's and the column's clusters, zero on the diagonal cluster blocks;
3. _canonical_blocks puts each remaining diagonal cluster block, a value
   times I plus a skew-symmetric infinitesimal part, into canonical form by
   a complex unitary transpose-congruence (youla_skew), which rotates the
   cluster's columns of the factors.  It runs once per distinct cluster
   size: the skew blocks of all clusters of that size go through
   _youla_stack, which takes one stacked SVD, finds the groups of equal
   singular values from one mask of group starts and one of group ends,
   and runs one pairing loop per group width, stacked over every group of
   that width in every block; a group's first pair starts from its first
   singular vector as it is.  One gather then rolls each block's columns
   so that its null block comes first, and the clusters' columns of the
   factors turn in one stacked product.  A block's result does not depend
   on the stack it is in: it is what youla_skew gives on that block alone,
   bit for bit.  A 1x1 cluster is canonical already, since its
   infinitesimal part is zero: it becomes one 1x1 block with no congruence
   and no rotation of its column.

herm_spectral takes A's Hermitian parts H from the check that accepts A
(matrix._check_hermitian); right_eigs, which has run that check, hands
them to _herm_spectral.  An exactly Hermitian A is its own H: the check
hands back A's own read-only parts and forms no halves.  Stage 3 runs
first, on the cluster blocks V_k* H_I conj(V_k) of the eigenvectors V of
H_st, and turns V into X.
Stage 2 then solves the coupling in that basis, from K = X* H_I conj(X):
the gap is constant on each pair of cluster blocks, so this gives the
factor that solving first would.  U = X - X P eps*j is frozen as
computed, with no copy.

_diagonals describes the blocks of either decomposition as a diagonal and
its coupling, and _block_diagonal assembles them; herm_spectral hands it
stage 3's (value, coupling) list as _canonical_blocks returns it, and
verify_spectral reads the same pairs off the blocks.  herm_spectral reports
the pair of matrix.hermitian_residual, whose gate reuses K: 7 complex
products beside eigh, and one n x n_c product more for the n_c columns in
clusters of more than one member.  verify_spectral forms K by the same
expression, 6 products, so the residual a spectral document stores is
what `dctool verify` writes for it.  The gate, which bounds the two-sided
residual and includes the defect, is compared with a bound scaled by the
norms of A and of U's infinitesimal part, and AccuracyError is raised
above it.  Entries too large for that arithmetic raise AccuracyError
before any of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AccuracyError,
    BadEigenspace,
    IllConditionedGap,
    NotOrthogonal,
    NotAppreciable,
    NotSkewSymmetric,
    ShapeMismatch,
    UnknownEigenvalue,
)
from .matrix import (
    DCMatrix,
    _EPS,
    _check_hermitian,
    _checked,
    _hermitian_halves,
    _sandwich,
    _times_layout,
    check_residual,
    dual_residual,
    hermitian_residual,
    inner,
)
from .scalar import DEFAULT_TOL, Tolerances


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

    @property
    def n(self) -> int:
        return sum(b.dim for b in self.blocks)


def assemble_blocks(blocks) -> DCMatrix:
    """Block diagonal matrix described by a block list."""
    n = sum(b.dim for b in blocks)
    return _block_diagonal(n, n, [(b.lam, b.mu) for b in blocks])


def _diagonals(k: int, blocks, tail=()):
    """(diag, coupling) of the k x k block layout, as matrix.dual_residual takes it.

    blocks holds (value, coupling) pairs: a 1x1 block value when coupling is
    None, else the 2x2 block [[value, coupling*eps*j], [-coupling*eps*j, value]].
    Each entry d of tail is one purely infinitesimal 1x1 block d*eps*j, and
    zeros fill the rest of the diagonal.  coupling is None when no block is
    2x2.  The arrays are complex, as the factors are, so that products with
    them take numpy's fast loops.
    """
    d_st, d_inf, coupling = (np.zeros(size, dtype=complex) for size in (k, k, max(k - 1, 0)))
    off = 0
    for value, c in blocks:
        d_st[off] = value
        if c is not None:
            d_st[off + 1], coupling[off] = value, c
            off += 1
        off += 1
    d_inf[off:off + len(tail)] = tail
    return (d_st, d_inf), (coupling if coupling.any() else None)


def _block_diagonal(m: int, n: int, blocks, tail=()) -> DCMatrix:
    """The m x n matrix with the canonical blocks on its diagonal, then tail*eps*j."""
    k = min(m, n)  # L = I L: _times_layout gives its first k columns, the rest are zero
    parts = _times_layout((np.eye(m, k), np.zeros((m, k), dtype=complex)),
                          *_diagonals(k, blocks, tail), k)
    return DCMatrix(*(np.pad(part, ((0, 0), (0, n - k))) for part in parts))


def _chain(vals, tau: float):
    """Starts and ends of the single-linkage chains of the descending vals.

    A new chain starts wherever the next value drops by more than tau.
    """
    # the drops written into one preallocated array, inf - vals[0] first:
    # np.concatenate and np.append cost about twice this on short arrays
    drop = np.empty(len(vals))
    drop[:1], drop[1:] = np.inf, vals[:-1]
    drop -= vals
    starts = (drop > tau).nonzero()[0]
    ends = np.empty_like(starts)  # each start's successor, then len(vals); none if no vals
    ends[:-1], ends[-1:] = starts[1:], len(vals)
    return starts, ends


def _level_tol(vals, tol: Tolerances) -> float:
    """The clustering tolerance tau = group_tol (1 + max |vals|) of a set of levels."""
    return tol.group_tol * (1.0 + float(np.abs(vals).max(initial=0.0)))


def _clusters(vals, count: int, tau: float, below: float, what: str):
    """Clusters of the descending vals[:count]: (starts, sizes, reps).

    A cluster is a chain of values within tau of their neighbours, and its
    representative in reps is its mean, or its one member.  Each cluster must
    stand 10 tau clear of the next, whether that is the next cluster, the
    value vals[count] after the last one, or `below` when there is no such
    value; IllConditionedGap names the `what` of vals otherwise.
    """
    starts, ends = _chain(vals[:count], tau)
    sizes = ends - starts
    after = np.empty(len(vals) + 1)  # the value after each one, `below` after the last
    after[:-1], after[-1] = vals, below
    gaps = vals[ends - 1] - after[ends]
    bad = (gaps < 10 * tau).nonzero()[0]
    if bad.size:
        raise IllConditionedGap(
            f"distinct {what} clusters separated by {gaps[bad[0]]:.3e} < {10 * tau:.3e}")
    reps = vals[starts]
    # one row mean per size: each row sums as np.mean sums its cluster alone,
    # and np.mean divides that sum by the count
    for size in sorted(set(sizes[sizes > 1].tolist())):
        ks = (sizes == size).nonzero()[0]
        reps[ks] = vals[starts[ks, None] + np.arange(size)].sum(axis=1) / size
    return starts, sizes, reps


def _canonical_blocks(skew_blocks, starts, sizes, reps, factors, tol: Tolerances):
    """Canonical (value, coupling) blocks of each cluster, in order.

    A cluster is reps[k] I plus a skew-symmetric block B, and
    skew_blocks(cols) gives the (K, s, s) stack of the blocks of the
    clusters on the K rows of cols.  The clusters of one size s > 1 go to
    canonical form together: _youla_stack takes their stack, and each block
    becomes W* B conj(W) with W = conj(Q), its columns rolled so that the
    null block comes first.  One gather, one stacked product and one
    scatter rotate those clusters' columns of every (standard,
    infinitesimal) pair, or (standard,) alone, in `factors` in place, by W
    and conj(W), which leaves the standard block reps[k] I as it is.  A 1x1
    cluster is canonical already: its block is zero and its column stays as
    it is.
    coupling is None for a 1x1 block and the pair value for a 2x2 one; 1x1
    blocks come first within a cluster.
    """
    values = reps.tolist()
    blocks = [[(value, None)] for value in values]
    # sorted(set()) rather than np.unique, whose first call pages in about
    # 0.6 MB of numpy's sort code
    for size in sorted(set(sizes[sizes > 1].tolist())):
        ks = (sizes == size).nonzero()[0]
        cols = starts[ks, None] + np.arange(size)
        q, pairs, null_dims = _youla_stack(skew_blocks(cols), tol)
        # column j of a rolled block is Q's column (j + s - null_dim) mod s:
        # one gather, the same for every stack
        roll = (np.arange(size) + (size - null_dims)[:, None]) % size
        q = q[np.arange(len(ks))[:, None], :, roll].transpose(0, 2, 1)
        w = np.conj(q)
        for pair in factors:
            for f, rot in zip(pair, (w, q)):
                f[:, cols] = (f[:, cols].transpose(1, 0, 2) @ rot).transpose(1, 0, 2)
        for k, p, null_dim in zip(ks.tolist(), pairs, null_dims.tolist()):
            blocks[k] = [(values[k], None)] * null_dim + [(values[k], s) for s in p]
    return [b for cluster in blocks for b in cluster]


def _sq_norms(x):
    """Squared Frobenius norms of the square complex blocks of x, one BLAS dot each."""
    r = np.ascontiguousarray(x).reshape(-1, 1, x.shape[-1] ** 2).view(float)
    return (r @ np.swapaxes(r, 1, 2)).reshape(-1)


def _youla_stack(c, tol: Tolerances):
    """youla_skew on every block of a stack c of shape (..., n, n), n >= 1, as stacks.

    Returns (Q, pairs, null_dims): Q of shape (K, n, n) for the K blocks, a
    list of K pair lists and an integer array of K null dimensions.
    np.linalg.svd takes c as it is given, so a 2-D c stays 2-D there.  Each
    step is a per-block numpy call or a stacked one that hands BLAS and
    LAPACK each block as the 2-D call would, so a block's result does not
    depend on the stack it comes in.  Each block is checked against its own
    bound, and any block that fails raises; the checks compare squared
    norms.  The two final checks form the congruence residual Q^T C Q - J
    and the defect Q* Q - I in place, at the O(n) nonzeros of J and I.
    """
    n = c.shape[-1]
    bound = (tol.resid_tol * (1.0 + np.sqrt(_sq_norms(c)))) ** 2
    if (_sq_norms(c + np.swapaxes(c, -1, -2)) > bound).any():
        raise NotSkewSymmetric("matrix is not skew-symmetric")

    u, s, vh = np.linalg.svd(c)
    c, u, vh = (x.reshape(-1, n, n) for x in (c, u, vh))
    s = s.reshape(-1, n)
    scale = np.maximum(1.0, s[:, 0])
    null_cut = max(tol.zero_tol, 64 * n * _EPS) * scale
    # pairs are kept or dropped whole, by the mean of their two values
    k = 2 * ((s[:, :n - 1:2] + s[:, 1::2]) / 2 > null_cut[:, None]).sum(axis=1)

    # groups of equal values in s[:k], chained as _chain chains them: a
    # group starts at 0 and wherever the next value drops by more than the
    # tie cut, and ends before the next start or at k.  The pairing map
    # x -> U_g V_g* conj(x) preserves its own group's span, so vectors pair
    # off within their group
    split = ((s[:, :-1] - s[:, 1:] > (64 * n * _EPS * scale)[:, None])
             & (np.arange(1, n) < k[:, None]))
    head, last = np.empty(s.shape, dtype=bool), np.zeros(s.shape, dtype=bool)
    head[:, 0], head[:, 1:], last[:, :-1] = k > 0, split, split
    last[np.arange(len(s)), k - 1] = k > 0  # k - 1 = -1 leaves a k = 0 row empty
    blk, g0 = head.nonzero()
    width = last.nonzero()[1] + 1 - g0
    widths = sorted(set(width.tolist()))
    if any(g % 2 for g in widths):
        raise AccuracyError("odd singular value group; equal values were split")

    # every group pairs off by symplectic Gram-Schmidt, one stacked pass per
    # group width.  Its first pair starts from the group's first column of
    # U as it is.  For a later pair, rest holds the group's columns of U
    # less their parts on the pairs found so far, and sq their squared
    # norms: after i pairs they sum to g - 2i over g - i columns that still
    # count, so in exact arithmetic the largest is at least 4 / (g + 2), and
    # x is that column normalized.  y = U_g (V_g* conj(x)), and pair holds
    # (conj(y), conj(x)), the pair's two columns of Q.  The columns of
    # conj(U) past the kept pairs stay: null(C) = conj(null(C*)), and U's
    # last n - k columns span null(C*)
    q = np.conj(u)
    for g in widths:
        sel = (width == g).nonzero()[0]
        b, cols, at = blk[sel], g0[sel, None] + np.arange(g), np.arange(sel.size)
        u_g = u[b[:, None, None], np.arange(n)[:, None], cols[:, None, :]]
        vh_g = vh[b[:, None], cols]
        pair = np.empty((sel.size, n, 2), dtype=complex)
        rest, x = u_g, u_g[:, :, 0]
        for i in range(0, g, 2):
            if i:
                rest = rest - np.conj(pair) @ (np.swapaxes(pair, 1, 2) @ rest)
                sq = (rest.real ** 2 + rest.imag ** 2).sum(axis=1)
                j = sq.argmax(axis=1)
                if (sq[at, j] < 1 / g).any():
                    raise AccuracyError("group span ran out before it paired off")
                x = rest[at, :, j] / np.sqrt(sq[at, j])[:, None]
            pair[:, :, 1] = x_conj = np.conj(x)
            y = (u_g @ (vh_g @ x_conj[:, :, None]))[:, :, 0]
            # bit identity with the deflation form (oracle.youla_skew_deflation)
            # fixes two orders of summation.  x enters the dot product as a
            # strided column of pair: BLAS sums a strided vector in another
            # order than a contiguous one, and np.vdot takes x as a column of
            # a copy of U_g.  ||y|| is np.linalg.norm's: dot products of its
            # real and imaginary parts, here one stacked product each.  Exact
            # orthogonality is automatic; enforce it anyway
            y -= x * (pair[:, None, :, 1] @ y[:, :, None])[:, 0]
            if i:
                # J J = -1 holds only to the spread of the group's computed
                # values relative to their size, so y also leaks onto the
                # pairs found so far (Q's columns written for the group,
                # conjugated)
                done = q[b[:, None], :, cols[:, :i]]
                y -= (np.swapaxes(np.conj(done), 1, 2) @ (done @ y[:, :, None]))[:, :, 0]
            y_real, y_imag = y.real[:, None], y.imag[:, None]
            y_norm = np.sqrt((y_real @ np.swapaxes(y_real, 1, 2)
                              + y_imag @ np.swapaxes(y_imag, 1, 2)).reshape(-1))
            if (y_norm < 0.5).any():
                raise AccuracyError("group span ran out before it paired off")
            np.conjugate(y / y_norm[:, None], out=pair[:, :, 0])
            q[b[:, None], :, cols[:, i:i + 2]] = np.swapaxes(pair, 1, 2)

    # J's entries (2i, 2i+1) and (2i+1, 2i) and I's diagonal, as strided
    # views of each block's flat entries
    step = 2 * (n + 1)
    jact = np.swapaxes(q, 1, 2) @ c @ q
    flat = jact.reshape(len(q), -1)
    above, below = flat[:, 1::step], flat[:, n::step]
    half = (above - below).real / 2
    kept = np.where(np.arange(0, n - 1, 2) < k[:, None], half, 0.0)
    above -= kept
    below += kept
    if (_sq_norms(jact) > bound).any():
        raise AccuracyError("congruence residual exceeded tolerance")
    defect = np.swapaxes(np.conj(q), 1, 2) @ q
    defect.reshape(len(q), -1)[:, ::n + 1] -= 1
    if (_sq_norms(defect) > bound).any():
        raise AccuracyError("computed congruence factor is not unitary")
    return q, [row[:m] for row, m in zip(half.tolist(), (k // 2).tolist())], n - k


def youla_skew(c, tol: Tolerances = DEFAULT_TOL):
    """Canonical form of a complex skew-symmetric matrix under unitary transpose-congruence.

    Returns (Q, pairs, null_dim) with Q unitary and

        Q.T @ C @ Q = blockdiag([[0, s1], [-s1, 0]], ..., 0_null)

    where pairs = [s1 >= s2 >= ... > 0] are the nonzero singular values of C
    (each of even multiplicity).  The construction works off one SVD
    C = U S V*.  The singular values count in pairs (s1, s2), (s3, s4), ...,
    and a pair whose mean is at most the null cutoff is dropped whole.  On
    the span of the columns U_g of U for one group of equal singular values,
    the pairing map J x = U_g V_g* conj(x), V_g the group's columns of V, is
    C conj(x) / s; it is antiunitary with J J = -1, so a unit vector x pairs
    with y = J x, x and y orthonormal, and the complement of found pairs in
    the span is again invariant under J (Youla, Canad. J. Math. 13, 1961).
    Through U_g V_g* rather than C, no rounding from larger singular values
    reaches a small pair.  A symplectic Gram-Schmidt loop pairs each group
    off without a second factorization: each x is the group's column of U
    with the largest part left in that complement, normalized, which is the
    first column as it is before any pair is found, and every pair but the
    last is projected out of the rest.  The conjugated pairs, ordered
    (conj(y), conj(x)), realize
    exactly the 2x2 canonical blocks, and the columns of conj(U) past the
    kept pairs fill the zero block, since null(C) = conj(null(C*)).  The
    resulting congruence is re-verified and AccuracyError is raised rather
    than returning a bad factor.

    youla_skew is the one-block case of _youla_stack, which herm_spectral
    and dc_svd run on the blocks of all their clusters of one size at once:
    there the loop runs once per group width, stacked over every group of
    that width in every block, and a block's result is the one youla_skew
    gives on that block alone, bit for bit.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise NotSkewSymmetric(f"expected a square matrix, got shape {c.shape}")
    if c.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex), [], 0
    q, pairs, null_dims = _youla_stack(c, tol)
    return q[0], pairs[0], int(null_dims[0])


def _cluster_blocks(v, h_inf, sizes):
    """skew_blocks of _canonical_blocks for V: the skew parts of V_k* H_I conj(V_k).

    H_I conj(V_c), V_c the columns of the clusters of more than one
    member, is one product, kept as long as the function.
    """
    multi = np.flatnonzero(np.repeat(sizes > 1, sizes))
    vc = np.conj(v[:, multi])
    hv = h_inf @ vc

    def skew_blocks(cols):
        at = np.searchsorted(multi, cols)  # their places among V_c's columns
        c = vc[:, at].transpose(1, 2, 0) @ hv[:, at].transpose(1, 0, 2)
        return (c - np.swapaxes(c, 1, 2)) / 2  # exact skew-symmetry for youla_skew
    return skew_blocks


def herm_spectral(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralDecomposition:
    """Block spectral decomposition U* A U = Sigma of a Hermitian dual complex matrix.

    Blocks are ordered by descending lambda, Eigen before Sub within a
    cluster, Sub blocks by descending mu.  Reported mu values are the
    canonical nonnegative reals produced by youla_skew.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("spectral decomposition needs a square matrix")
    return _herm_spectral(a, *_check_hermitian(a, tol, "matrix is not Hermitian"), tol)


def _herm_spectral(a: DCMatrix, h_st, h_inf, off, tol: Tolerances) -> SpectralDecomposition:
    """herm_spectral of a checked A, given (H_st, H_I, off) of matrix._hermitian_parts."""
    n = a.rows
    w, v = np.linalg.eigh(h_st)
    w, v = w[::-1], v[:, ::-1]
    tau = _level_tol(w, tol)
    starts, sizes, reps = _clusters(w, n, tau, -np.inf, "eigenvalue")

    # stage 3 first, on the clusters' blocks of V; X is V with their columns
    # turned
    x = v.copy()
    pairs = _canonical_blocks(_cluster_blocks(x, h_inf, sizes), starts, sizes, reps, [(x,)], tol)
    blocks, last = [], None
    for b in pairs:
        if b != last:  # equal blocks, as a cluster's Eigen blocks are, come in runs and share one
            last = b
            block = SpectralBlock("Eigen", b[0]) if b[1] is None else SpectralBlock("Sub", *b)
        blocks.append(block)
    blocks = tuple(blocks)

    # stage 2 in the turned basis: U = X (I - P eps*j), P the skew part of
    # K = X* H_I conj(X) times 1 / gap, the gap between the representatives
    # of the row's and the column's clusters: zero exactly inside a diagonal
    # cluster block, where P is zero, and past the gap check nonzero
    # elsewhere.  X = V W, W block diagonal on the clusters, and the gap is
    # constant on each block pair, so -X P = -V (C / gap) conj(W) for
    # C = V* H_I conj(V), as solving before the turn gives.  K - K^T is
    # exactly skew and the gap antisymmetric, so P is exactly symmetric
    xc, k_mat = _sandwich(h_inf, x)
    rep = np.repeat(reps, sizes)
    gap = rep[:, None] - rep[None, :]
    p = k_mat - k_mat.T
    p *= np.divide(0.5, gap, out=gap, where=gap != 0)  # in place; zero stays zero
    y = x @ p
    u = DCMatrix._frozen(*_checked(x, np.negative(y, out=y)))  # no copy
    resid, gate = hermitian_residual(h_st, off, u, xc, k_mat, *_diagonals(n, pairs))
    # dropped by design: the spread of each cluster around the mean its
    # blocks carry, and the parts of A that are not Hermitian, at most
    # resid_tol / 2 each once the Hermitian check has passed.  The norms of
    # w and K are those of A's Hermitian parts
    half = tol.resid_tol / 2
    check_residual(gate, n, (float(np.linalg.norm(w)), float(np.linalg.norm(k_mat))),
                   2 * float(np.linalg.norm(y)),
                   (float(np.linalg.norm(w - rep)) + half, half), tol)
    return SpectralDecomposition(u, blocks, resid)


def verify_spectral(a: DCMatrix, dec: SpectralDecomposition) -> tuple[float, float]:
    """The residual pair herm_spectral reports, recomputed (matrix.hermitian_residual)."""
    if a.shape != dec.U.shape or dec.n != a.rows:
        raise ShapeMismatch("decomposition does not match the matrix shape")
    h_st, h_inf, off = _hermitian_halves(a)
    return hermitian_residual(h_st, off, dec.U, *_sandwich(h_inf, dec.U.standard),
                              *_diagonals(a.rows, [(b.lam, b.mu) for b in dec.blocks]))[0]


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
    # the columns [y, x] against one Sub block (lam, mu)
    cols = (np.hstack((y.standard, x.standard)), np.hstack((y.infinitesimal, x.infinitesimal)))
    rs, ri = dual_residual(a, cols, *_diagonals(2, [(lam, mu)]), axis=0)
    return (float(rs.max()), float(ri.max()))


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
    eigenspace is supplied; the phase of mu does.  Entries too large for
    this arithmetic raise AccuracyError, as does an A_st so small against
    A_I that the least-squares x_inf or y_inf overflows.
    """
    _check_hermitian(a, tol, "classification applies to Hermitian matrices")
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
    if not (np.isfinite(x_inf).all() and np.isfinite(y_inf).all()):
        raise AccuracyError("x_inf or y_inf overflows: A_st is too small against A_I")
    return DoubleEigClassification("DoubleSub", lam, mu, x_inf, y_inf)


def classify_multiplicity(dec: SpectralDecomposition, lam: float,
                          tol: Tolerances = DEFAULT_TOL) -> tuple[int, int]:
    """Total dimension p of blocks at lam and the number k of Sub blocks among them.

    A block is at lam when its level lies within herm_spectral's clustering
    tolerance of lam, so every value that herm_spectral merged into one
    level finds that level.
    """
    tau = _level_tol([b.lam for b in dec.blocks], tol)
    sel = [b for b in dec.blocks if abs(b.lam - lam) <= tau]
    if not sel:
        raise UnknownEigenvalue(f"no block matches {lam!r}")
    p = sum(b.dim for b in sel)
    k = sum(1 for b in sel if b.kind == "Sub")
    return p, k


def _lowest_level(a: DCMatrix, tol: Tolerances) -> tuple[float, float]:
    """(lambda_min(A_st), resid_tol ||A_st||_2) of a Hermitian matrix.

    The right eigenvalues and subeigenvalues of a Hermitian matrix are the
    eigenvalues of its standard part, with multiplicity (a Sub block holds
    its lam twice), so definiteness needs none of the blocks of
    herm_spectral: one eigvalsh of the Hermitian part of A_st gives them,
    and the cut scales with the largest of them in magnitude.  The empty
    matrix has no eigenvalue, and inf stands for its minimum.
    """
    a_st = _check_hermitian(a, tol, "definiteness applies to Hermitian matrices")[0]
    w = np.linalg.eigvalsh(a_st)
    if not w.size:
        return math.inf, 0.0
    return float(w[0]), tol.resid_tol * max(-float(w[0]), float(w[-1]))


def is_psd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positive semi-definite iff no eigen/subeigenvalue lies below -resid_tol ||A_st||_2."""
    low, cut = _lowest_level(a, tol)
    return low >= -cut


def is_pd(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positive definite iff every eigen/subeigenvalue exceeds resid_tol ||A_st||_2."""
    low, cut = _lowest_level(a, tol)
    return low > cut
