"""Dense matrices and vectors over the dual complex numbers.

A matrix A = A_st + A_I*eps*j is held as two complex arrays of identical
shape.  Because eps*j conjugates complex factors it moves past, the product
rule is

    A @ B = (A_st B_st,  A_st B_I + A_I conj(B_st))

and the conjugate transpose is (conj(A_st).T, -A_I.T).  Vectors are n-by-1
matrices.  All instances are immutable; the component arrays are copied on
construction, checked to be finite, and marked read-only.  The vectors of
the eigenpairs that one call returns are views of one such frozen copy,
and the factors of herm_spectral and dc_svd are the arrays they computed,
checked and frozen with no copy (_checked).

Residuals take a block layout L given by its diagonal and the coupling
next to it.  dual_residual takes the norms of the one-sided R = A X - X L
for eigenpair and subeigenpair checks.  The pair that both decompositions
gate and report, and that verify recomputes, forms the two-sided
T = U* A V - L directly: factor_residual for the SVD in 9 complex
products, hermitian_residual for a Hermitian similarity in 4 beside
K = X* H_I conj(X), which herm_spectral has formed already.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, NonFinite, NotHermitian, ShapeMismatch, SingularStandardPart
from .scalar import DEFAULT_TOL, DualComplex, Tolerances

_EPS = float(np.finfo(float).eps)
_SQRT_MAX = math.sqrt(float(np.finfo(float).max))


def _checked(st: np.ndarray, inf: np.ndarray):
    """(st, inf), checked 2-d, of one shape and finite, and marked read-only.

    DCMatrix(st, inf) runs it on copies; DCMatrix._frozen(*_checked(st,
    inf)) wraps complex C-contiguous arrays that the caller made, with no
    copy, and the caller must not write them again.
    """
    if st.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got ndim={st.ndim}")
    # count_nonzero costs half of .all() on small arrays
    if np.count_nonzero(np.isfinite(st)) != st.size:
        raise NonFinite("standard part has a NaN or infinite entry")
    if inf.shape != st.shape:
        raise ShapeMismatch(f"component shapes differ: {st.shape} vs {inf.shape}")
    if np.count_nonzero(np.isfinite(inf)) != inf.size:
        raise NonFinite("infinitesimal part has a NaN or infinite entry")
    st.setflags(write=False)
    inf.setflags(write=False)
    return st, inf


class DCMatrix:
    """Matrix over the dual complex numbers, stored as a (standard, infinitesimal) pair."""

    __slots__ = ("standard", "infinitesimal")

    def __init__(self, standard, infinitesimal=None):
        st = np.array(standard, dtype=complex, order="C")
        self.standard, self.infinitesimal = _checked(
            st, np.zeros_like(st) if infinitesimal is None
            else np.array(infinitesimal, dtype=complex, order="C"))

    @classmethod
    def _frozen(cls, standard: np.ndarray, infinitesimal: np.ndarray) -> "DCMatrix":
        """Wrap two arrays as they are: no copy, no finiteness scan, no setflags.

        The caller vouches that they are what __init__ makes, 2-d, complex,
        C-contiguous, of one shape, finite and read-only, as the row views of
        one checked block are (eig._pairs) and as _checked makes arrays that
        a caller owns and hands over, with no copy (herm_spectral's and
        dc_svd's factors).
        """
        m = object.__new__(cls)
        m.standard = standard
        m.infinitesimal = infinitesimal
        return m

    @property
    def rows(self) -> int:
        return self.standard.shape[0]

    @property
    def cols(self) -> int:
        return self.standard.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.standard.shape

    def entry(self, i: int, j: int) -> DualComplex:
        return DualComplex(self.standard[i, j], self.infinitesimal[i, j])

    def column(self, j: int) -> "DCMatrix":
        return DCMatrix(self.standard[:, j:j + 1], self.infinitesimal[:, j:j + 1])

    def __add__(self, other: "DCMatrix") -> "DCMatrix":
        if not isinstance(other, DCMatrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return DCMatrix(self.standard + other.standard,
                        self.infinitesimal + other.infinitesimal)

    def __sub__(self, other: "DCMatrix") -> "DCMatrix":
        if not isinstance(other, DCMatrix):
            return NotImplemented
        if other.shape != self.shape:
            raise ShapeMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return DCMatrix(self.standard - other.standard,
                        self.infinitesimal - other.infinitesimal)

    def __neg__(self) -> "DCMatrix":
        return DCMatrix(-self.standard, -self.infinitesimal)

    def __matmul__(self, other: "DCMatrix") -> "DCMatrix":
        if not isinstance(other, DCMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __mul__(self, q) -> "DCMatrix":
        # right scalar multiple A*q; entries multiply as a_ij * q
        if isinstance(q, (int, float, complex)):
            q = DualComplex(q)
        if not isinstance(q, DualComplex):
            return NotImplemented
        return DCMatrix(
            self.standard * q.standard,
            self.standard * q.infinitesimal + self.infinitesimal * q.standard.conjugate(),
        )

    def __rmul__(self, q) -> "DCMatrix":
        # left scalar multiple q*A
        if isinstance(q, (int, float, complex)):
            q = DualComplex(q)
        if not isinstance(q, DualComplex):
            return NotImplemented
        return DCMatrix(
            q.standard * self.standard,
            q.standard * self.infinitesimal + q.infinitesimal * np.conj(self.standard),
        )

    def __repr__(self) -> str:
        return f"DCMatrix({self.rows}x{self.cols})"


def identity(n: int) -> DCMatrix:
    return DCMatrix(np.eye(n, dtype=complex))

def zeros(m: int, n: int) -> DCMatrix:
    return DCMatrix(np.zeros((m, n), dtype=complex))

def from_scalars(rows) -> DCMatrix:
    """Build a matrix from nested sequences of DualComplex (or plain complex) entries."""
    entries = [[e if isinstance(e, DualComplex) else DualComplex(e) for e in row]
               for row in rows]
    st = np.array([[e.standard for e in row] for row in entries])
    inf = np.array([[e.infinitesimal for e in row] for row in entries])
    return DCMatrix(st, inf)


def mat_mul(a: DCMatrix, b: DCMatrix) -> DCMatrix:
    """Matrix product; the infinitesimal factor conjugates the standard part it passes."""
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return DCMatrix(
        a.standard @ b.standard,
        a.standard @ b.infinitesimal + a.infinitesimal @ np.conj(b.standard),
    )


def conj_transpose(a: DCMatrix) -> DCMatrix:
    return DCMatrix(a.standard.conj().T, -a.infinitesimal.T)


def frobenius_norm(a: DCMatrix) -> float:
    """Frobenius norm; entry magnitudes drop infinitesimal parts, so this is ||A_st||_F."""
    return float(np.linalg.norm(a.standard))


def component_norms(a: DCMatrix) -> tuple[float, float]:
    """Frobenius norms of the (standard, infinitesimal) components, used for residuals."""
    return (float(np.linalg.norm(a.standard)), float(np.linalg.norm(a.infinitesimal)))


def _times_layout(f, diag, coupling, k: int):
    """(F L)[:, :k], L as in dual_residual: the product rule on its diagonal and coupling."""
    f_st, f_inf = f[0][:, :k], f[1][:, :k]
    fl_inf = f_st * diag[1] + f_inf * np.conj(diag[0])
    if coupling is not None:
        fl_inf[:, 1:] += f_st[:, :-1] * coupling
        fl_inf[:, :-1] -= f_st[:, 1:] * coupling
    return f_st * diag[0], fl_inf


def _norms(r_st: np.ndarray, r_inf: np.ndarray, axis=None):
    """Component norms of a residual; a NaN or infinite entry raises NonFinite.

    With finite operands such an entry means that the arithmetic left
    double range, and the message names the part where it did.  A NaN norm
    would be dropped by the max() that collects residuals; finite entries
    whose norm overflows give inf and pass.
    """
    rs, ri = np.linalg.norm(r_st, axis=axis), np.linalg.norm(r_inf, axis=axis)
    if not (np.isfinite(rs).all() and np.isfinite(ri).all()):
        for part, r in (("standard", r_st), ("infinitesimal", r_inf)):
            if not np.isfinite(r).all():
                raise NonFinite(f"the residual's {part} part left double range")
    return (float(rs), float(ri)) if axis is None else (rs, ri)


def dual_residual(a: DCMatrix, x, diag, coupling=None, axis=None):
    """Component norms of R = A X - X L, the one-sided residual with V = U = X.

    x holds the (standard, infinitesimal) arrays of X.  L is given by its
    dual diagonal diag = (standard, infinitesimal), two arrays of length k
    or, for one column, two scalars, and the infinitesimal coupling c_i at
    (i, i+1) and -c_i at (i+1, i), which is how 2x2 Sub and (sigma, nu)
    blocks couple; it has no other nonzero, so X L costs O(n k)
    (_times_layout) and A X the three products of the product rule.  The
    norms are Frobenius norms, or column norms with axis=0.  A NaN or
    infinite entry of R raises NonFinite.
    """
    k = np.size(diag[0])
    ul_st, ul_inf = _times_layout(x, diag, coupling, k)
    r_st, r_inf = a.standard @ x[0], a.standard @ x[1] + a.infinitesimal @ np.conj(x[0])
    r_st[:, :k] -= ul_st
    r_inf[:, :k] -= ul_inf
    return _norms(r_st, r_inf, axis)


def _defect(u: DCMatrix, xc: np.ndarray):
    """The arrays of U* U - I for U = X + Y eps*j, with xc = conj(X).

    The infinitesimal part of U* U is M - M^T with M = X* Y, so one
    product gives it where the general product rule takes two.
    """
    e_st, m = xc.T @ u.standard, xc.T @ u.infinitesimal
    e_st.reshape(-1)[::e_st.shape[1] + 1] -= 1  # the diagonal, in place
    return e_st, m - m.T


def unitarity_defect(u: DCMatrix) -> tuple[float, float]:
    """Component norms of U* U - I."""
    return tuple(float(np.linalg.norm(e)) for e in _defect(u, np.conj(u.standard)))


def _minus_layout(t_inf: np.ndarray, diag_inf, coupling) -> None:
    """Subtract L_I from t_inf in place, at its O(k) nonzeros."""
    flat, step = t_inf.reshape(-1), t_inf.shape[1] + 1  # L_I's diagonals, as views
    flat[::step][:len(diag_inf)] -= diag_inf
    if coupling is not None:
        flat[1::step][:coupling.size] -= coupling
        flat[step - 1::step][:coupling.size] += coupling


def _pair_and_gate(rs: float, ti: float, u: DCMatrix, xc: np.ndarray, floor, l_st):
    """(pair, gate) from ||R_st|| and ||T_I||, each part at least U's defect and floor's."""
    eu = tuple(float(np.linalg.norm(e)) for e in _defect(u, xc))
    t_st = (1 + eu[0]) * rs + eu[0] * float(np.linalg.norm(l_st))
    low = (max(eu[0], floor[0]), max(eu[1], floor[1]))
    return (max(rs, low[0]), max(ti, low[1])), (max(t_st, low[0]), max(ti, low[1]))


def factor_residual(a: DCMatrix, u: DCMatrix, v: DCMatrix, diag, coupling=None):
    """(pair, gate) of a factorization U* A V = L, L as in dual_residual.

    The two-sided residual T = U* A V - L is formed directly.  G = A V
    takes the three products of the product rule, and with U = X + Y eps*j
    its infinitesimal part is T_I = X* G_I - Y^T conj(G_st) - L_I, two
    more products, L_I subtracted at its O(k) nonzeros.  The standard part
    of a dual unitary acts as a unitary, so the one-sided R_st = G_st -
    X L_st stands for T_st: with E = U* U - I,
    ||T_st|| <= (1 + ||E_st||) ||R_st|| + ||E_st|| ||L_st||.  The
    infinitesimal part has no such stand-in: U_I carries the standard
    residual, and with it whatever the decomposition dropped from A_st,
    into T_I.  E takes two products per factor, 9 complex products in all.
    G_I accumulates in place and then holds conj(G_st), and R_st is taken
    in place on G_st's first k columns.  pair, what a result reports and
    `verify` recomputes, is (||R_st||, ||T_I||) against the unitarity
    defects of U and V, the larger per component; gate, what
    check_residual judges, puts the bound on ||T_st|| in place of ||R_st||.
    """
    k = len(diag[0])
    xc = np.conj(u.standard)
    g_st, g_inf = a.standard @ v.standard, a.standard @ v.infinitesimal
    g_inf += a.infinitesimal @ np.conj(v.standard)
    t_inf = xc.T @ g_inf
    t_inf -= u.infinitesimal.T @ np.conj(g_st, out=g_inf)
    _minus_layout(t_inf, diag[1], coupling)
    g_st[:, :k] -= u.standard[:, :k] * diag[0]  # R_st
    return _pair_and_gate(*_norms(g_st, t_inf), u, xc, unitarity_defect(v), diag[0])


def _sandwich(h_inf: np.ndarray, x: np.ndarray):
    """(conj(X), K = X* H_I conj(X)), H_I in the basis X: two complex products."""
    xc = np.conj(x)
    return xc, xc.T @ (h_inf @ xc)


def hermitian_residual(h_st: np.ndarray, off, u: DCMatrix, xc: np.ndarray, k_mat: np.ndarray,
                       diag, coupling=None):
    """factor_residual's (pair, gate) for V = U and A with Hermitian halves H.

    H and off come from _hermitian_halves, (xc, K) from _sandwich(H_I, X)
    for U = X + Y eps*j.  As H_st is Hermitian, T_I = S - S^T + K - L_I
    with S = (H_st X)* Y: 4 complex products with the defect.  Each part is
    at least off's, so that A itself is judged, not only H.
    """
    g = h_st @ u.standard
    t_inf = np.conj(g, out=g).T @ u.infinitesimal  # S
    t_inf -= t_inf.T  # numpy buffers the overlapping operand
    t_inf += k_mat
    _minus_layout(t_inf, diag[1], coupling)
    g -= xc * diag[0]  # conj(R_st), up to the signs of zeros
    return _pair_and_gate(*_norms(g, t_inf), u, xc, off, diag[0])


def check_residual(resid: tuple[float, float], n: int, a_norms: tuple[float, float],
                   factors_inf: float, dropped: tuple[float, float], tol: Tolerances) -> None:
    """Raise AccuracyError unless a decomposition's residual is explained.

    resid is the gate of factor_residual or hermitian_residual, which
    bounds the two-sided residual U* A V - L and the unitarity defects of
    the factors.  They are made of rounding error and of what the
    decomposition chose to drop (cluster spreads, values below a cutoff),
    whose norms the caller passes in `dropped`.  Rounding error is bounded
    by f (||A_st|| + sqrt(n)) on the standard part and by
    f (||A_I|| + (||A_st|| + 1) (||U_I|| + ||V_I||)) on the infinitesimal
    part, with f = max(resid_tol, 64 n eps), n the larger dimension of A.
    The caller passes a_norms = (||A_st||, ||A_I||) and factors_inf =
    ||U_I|| + ||V_I||, from whatever unitarily equivalent form of them it
    holds.  A non-finite residual always raises.
    """
    f = max(tol.resid_tol, 64 * n * _EPS)
    bound = (f * (a_norms[0] + math.sqrt(n)) + dropped[0],
             f * (a_norms[1] + (a_norms[0] + 1.0) * factors_inf) + dropped[1])
    if not (math.isfinite(resid[0]) and math.isfinite(resid[1])
            and resid[0] <= bound[0] and resid[1] <= bound[1]):
        raise AccuracyError(f"residual ({resid[0]:.3e}, {resid[1]:.3e}) exceeds "
                            f"its bound ({bound[0]:.3e}, {bound[1]:.3e})")


def _range_limit(n: int) -> float:
    """sqrt(max double) / (4n): the entry size up to which n-wide sums and norms stay finite."""
    return _SQRT_MAX / (4 * max(1, n))


def _check_range(a: DCMatrix) -> None:
    """Raise AccuracyError when A's entries are too large for the routines' arithmetic.

    A Frobenius norm squares the entries it sums, so it overflows once they
    pass sqrt(max double) / n.  With every real and imaginary part at most
    sqrt(max double) / (4n), n the larger dimension, the norms of A, of
    A_st - A_st* and of A's products with unitary factors stay finite.
    """
    limit = _range_limit(max(a.shape))
    for name, part in (("standard", a.standard), ("infinitesimal", a.infinitesimal)):
        v = part.view(float)  # max and min allocate nothing, unlike np.abs
        big = max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))
        if big > limit:
            raise AccuracyError(f"{name} part has an entry of size {big:.3e}, above "
                                f"{limit:.3e}, where sums and norms overflow")


def mat_inv(a: DCMatrix) -> DCMatrix:
    """Inverse (X + Y*eps*j)^-1 = X^-1 - X^-1 Y conj(X^-1) eps*j; the 0 x 0 matrix is its own.

    X is inverted once, and the inverse bounds its condition number:
    kappa_F = ||X||_F ||X^-1||_F is at least cond_2(X), and at most n times
    it.  SingularStandardPart is raised when inv finds X singular, or when
    kappa_F is not finite or kappa_F n eps >= 1.  Against the test
    s_min <= n eps s_max of cond_2, this cut is up to n times stricter.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("only square matrices can be inverted")
    x, y = a.standard, a.infinitesimal
    if not a.rows:
        return DCMatrix(x, y)
    try:
        xinv = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        raise SingularStandardPart("standard part is numerically singular") from None
    # ||X^-1||_F of a nearly singular X overflows to inf, which fails the cut
    with np.errstate(over="ignore"):
        kappa = float(np.linalg.norm(x) * np.linalg.norm(xinv))
    if not kappa * a.rows * _EPS < 1:  # also when kappa is inf or NaN
        raise SingularStandardPart("standard part is numerically singular")
    return DCMatrix(xinv, -xinv @ y @ np.conj(xinv))


def _hermitian_halves(a: DCMatrix, limit: float = math.inf):
    """((A_st + A_st*) / 2, (A_I - A_I^T) / 2, off) of a square A, or None past limit.

    off = (||A_st - H_st||, ||A_I - H_I||); None when a part of it exceeds
    limit, and the second is not formed once the first does.  All share one
    conjugate copy of A_st and a transposed view of A_I.  An exactly
    Hermitian A, whose differences A_st - A_st* and A_I + A_I^T are zero
    entry by entry, is its own H: its read-only parts come back as they
    are, and no halves are formed.  The entries are tested, not the norm,
    which underflows to 0 for differences below about 1e-154.
    """
    st_h, inf_t = a.standard.conj().T, a.infinitesimal.T
    d_st = a.standard - st_h
    exact = not d_st.any()
    off_st = 0.0 if exact else float(np.linalg.norm(d_st)) / 2
    if off_st > limit:
        return None
    d_inf = a.infinitesimal + inf_t
    if exact and not d_inf.any():
        return a.standard, a.infinitesimal, (0.0, 0.0)
    off_inf = float(np.linalg.norm(d_inf)) / 2
    if off_inf <= limit:
        return (a.standard + st_h) / 2, (a.infinitesimal - inf_t) / 2, (off_st, off_inf)


def _hermitian_parts(a: DCMatrix, tol: Tolerances):
    """_hermitian_halves(A) when A is square and each part of off is at most resid_tol / 2."""
    return _hermitian_halves(a, tol.resid_tol / 2) if a.rows == a.cols else None


def is_hermitian(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the standard part is Hermitian and the infinitesimal part skew-symmetric."""
    return _hermitian_parts(a, tol) is not None


def _check_hermitian(a: DCMatrix, tol: Tolerances, message: str):
    """_check_range, then A's Hermitian parts (_hermitian_parts), or NotHermitian(message)."""
    _check_range(a)
    halves = _hermitian_parts(a, tol)
    if halves is None:
        raise NotHermitian(message)
    return halves


def is_unitary(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when U*U = I, i.e. U_st unitary and U_st* U_I complex symmetric."""
    return a.rows == a.cols and max(unitarity_defect(a)) <= tol.resid_tol


def inner(x: DCMatrix, y: DCMatrix) -> DualComplex:
    """Inner product x*y of two column vectors, as a scalar."""
    if x.cols != 1 or y.cols != 1 or x.rows != y.rows:
        raise ShapeMismatch(f"inner product needs equal-length column vectors, "
                            f"got {x.shape} and {y.shape}")
    p = mat_mul(conj_transpose(x), y)
    return DualComplex(p.standard[0, 0], p.infinitesimal[0, 0])


def vector_norm(x: DCMatrix) -> float:
    """||x|| = sqrt(x*x), which reduces to the norm of the standard part."""
    if x.cols != 1:
        raise ShapeMismatch("vector norm is defined for column vectors")
    return float(np.linalg.norm(x.standard))


def gen_random(kind: str, m: int, n: int, seed: int) -> DCMatrix:
    """Deterministic random matrix of the requested kind.

    "general" draws both components complex Gaussian; "hermitian" symmetrizes
    the standard part and skew-symmetrizes the infinitesimal one; "unitary"
    builds W + W S eps*j from a QR-orthonormalized W and symmetric S, which
    satisfies the unitarity condition by construction; "psd" returns B*B.
    """
    rng = np.random.default_rng(seed)

    def cgauss(r: int, c: int):
        return (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))) / np.sqrt(2)

    if kind == "general":
        return DCMatrix(cgauss(m, n), cgauss(m, n))
    if kind not in ("hermitian", "unitary", "psd"):
        raise ValueError(f"unknown kind {kind!r}")
    if m != n:
        raise ShapeMismatch(f"kind {kind!r} requires a square shape, got {m}x{n}")
    if kind == "hermitian":
        g = cgauss(n, n)
        k = cgauss(n, n)
        return DCMatrix((g + g.conj().T) / 2, (k - k.T) / 2)
    if kind == "unitary":
        w, r = np.linalg.qr(cgauss(n, n))
        d = np.diag(r)
        w = w * (d / np.abs(d))  # canonical column phases
        s = cgauss(n, n)
        s = (s + s.T) / 2
        return DCMatrix(w, w @ s)
    b = DCMatrix(cgauss(n, n), cgauss(n, n))
    return mat_mul(conj_transpose(b), b)
