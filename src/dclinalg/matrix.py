"""Dense matrices and vectors over the dual complex numbers.

A matrix A = A_st + A_I*eps*j is held as two complex arrays of identical
shape.  Because eps*j conjugates complex factors it moves past, the product
rule is

    A @ B = (A_st B_st,  A_st B_I + A_I conj(B_st))

and the conjugate transpose is (conj(A_st).T, -A_I.T).  Vectors are n-by-1
matrices.  All instances are immutable; the component arrays are copied on
construction, checked to be finite, and marked read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, ShapeMismatch, SingularStandardPart
from .scalar import DEFAULT_TOL, DualComplex, Tolerances

_EPS = float(np.finfo(float).eps)


class DCMatrix:
    """Matrix over the dual complex numbers, stored as a (standard, infinitesimal) pair."""

    __slots__ = ("standard", "infinitesimal")

    def __init__(self, standard, infinitesimal=None):
        st = np.array(standard, dtype=complex, order="C")
        if st.ndim != 2:
            raise ShapeMismatch(f"expected a 2-d array, got ndim={st.ndim}")
        # count_nonzero costs half of .all() on the small vectors that the
        # eigenpair routines build by the hundred
        if np.count_nonzero(np.isfinite(st)) != st.size:
            raise NonFinite("standard part has a NaN or infinite entry")
        if infinitesimal is None:
            inf = np.zeros_like(st)
        else:
            inf = np.array(infinitesimal, dtype=complex, order="C")
            if inf.shape != st.shape:
                raise ShapeMismatch(
                    f"component shapes differ: {st.shape} vs {inf.shape}")
            if np.count_nonzero(np.isfinite(inf)) != inf.size:
                raise NonFinite("infinitesimal part has a NaN or infinite entry")
        st.setflags(write=False)
        inf.setflags(write=False)
        self.standard = st
        self.infinitesimal = inf

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

    def transpose(self) -> "DCMatrix":
        return DCMatrix(self.standard.T, self.infinitesimal.T)

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


def residual(a: DCMatrix, u: DCMatrix, v: DCMatrix, target: DCMatrix) -> tuple[float, float]:
    """Component norms of the two-sided residual U* A V - target."""
    return component_norms(mat_mul(mat_mul(conj_transpose(u), a), v) - target)


def unitarity_defect(u: DCMatrix) -> tuple[float, float]:
    """Component norms of U* U - I."""
    return component_norms(mat_mul(conj_transpose(u), u) - identity(u.rows))


def mat_inv(a: DCMatrix) -> DCMatrix:
    """Inverse (X + Y*eps*j)^-1 = X^-1 - X^-1 Y conj(X^-1) eps*j."""
    if a.rows != a.cols:
        raise ShapeMismatch("only square matrices can be inverted")
    x, y = a.standard, a.infinitesimal
    svals = np.linalg.svd(x, compute_uv=False)
    if svals.size == 0 or svals[-1] <= a.rows * _EPS * svals[0]:
        raise SingularStandardPart("standard part is numerically singular")
    xinv = np.linalg.inv(x)
    return DCMatrix(xinv, -xinv @ y @ np.conj(xinv))


def is_hermitian(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the standard part is Hermitian and the infinitesimal part skew-symmetric."""
    if a.rows != a.cols:
        return False
    return (np.linalg.norm(a.standard - a.standard.conj().T) <= tol.resid_tol
            and np.linalg.norm(a.infinitesimal + a.infinitesimal.T) <= tol.resid_tol)


def is_unitary(a: DCMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when U*U = I, i.e. U_st unitary and U_st* U_I complex symmetric."""
    if a.rows != a.cols:
        return False
    rs, ri = unitarity_defect(a)
    return rs <= tol.resid_tol and ri <= tol.resid_tol


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
