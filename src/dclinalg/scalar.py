"""Scalar arithmetic of dual complex numbers.

A dual complex number q = q0 + q1*i + q2*eps*j + q3*eps*k is stored as the
pair of complex components (standard, infinitesimal), q = q_st + q_I*eps*j.
The unit eps*j squares to zero, and moving a complex number past j
conjugates it, which makes the algebra noncommutative:

    (a + b*eps*j) * (c + d*eps*j) = a*c + (a*d + b*conj(c))*eps*j

The magnitude |q| is the modulus of the standard part alone; a number is
"appreciable" when that part is nonzero, and only appreciable numbers have
inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFinite, NotAppreciable


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package, each relative.

    Every cutoff is one of these factors times the norm of the part it
    judges, through one of three helpers in matrix.py: group_tol clusters
    values within group_tol times the largest of them (_cluster_tol),
    zero_tol counts a value as zero at or below zero_tol times the norm it
    is measured against, ||A_st|| or sigma_1 for the standard part, ||A_I||
    for the infinitesimal one (_null_cut), and resid_tol bounds residuals
    and consistency tests by resid_tol times their scale (_resid_bound).
    So scaling A by c and eps by t changes no decision.
    """

    group_tol: float = 1e-8
    resid_tol: float = 1e-9
    zero_tol: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("group_tol", "resid_tol", "zero_tol"):
            value = getattr(self, name)
            # also rejects NaN; an infinite one would switch every check off
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class DualComplex:
    """Immutable dual complex scalar q = standard + infinitesimal*eps*j."""

    standard: complex = 0j
    infinitesimal: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "standard", complex(self.standard))
        object.__setattr__(self, "infinitesimal", complex(self.infinitesimal))

    @classmethod
    def from_reals(cls, q0: float, q1: float, q2: float, q3: float) -> "DualComplex":
        return cls(complex(q0, q1), complex(q2, q3))

    def reals(self) -> tuple[float, float, float, float]:
        """Real coordinates (q0, q1, q2, q3) over the basis (1, i, eps*j, eps*k)."""
        return (
            self.standard.real,
            self.standard.imag,
            self.infinitesimal.real,
            self.infinitesimal.imag,
        )

    def is_appreciable(self, zero_tol: float = 0.0) -> bool:
        return abs(self.standard) > zero_tol

    def conjugate(self) -> "DualComplex":
        """Conjugate: negates the i, eps*j and eps*k coordinates."""
        return DualComplex(self.standard.conjugate(), -self.infinitesimal)

    def __abs__(self) -> float:
        return abs(self.standard)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualComplex(self.standard + other.standard,
                           self.infinitesimal + other.infinitesimal)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualComplex(self.standard - other.standard,
                           self.infinitesimal - other.infinitesimal)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DualComplex(other.standard - self.standard,
                           other.infinitesimal - self.infinitesimal)

    def __neg__(self) -> "DualComplex":
        return DualComplex(-self.standard, -self.infinitesimal)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return dc_mul(self, other)

    def __rmul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return dc_mul(other, self)

    def __str__(self) -> str:
        return f"{self.standard} + ({self.infinitesimal})ej"


ONE = DualComplex(1)
I_UNIT = DualComplex(1j)
EPS_J = DualComplex(0, 1)
EPS_K = DualComplex(0, 1j)

_BASIS = (ONE, I_UNIT, EPS_J, EPS_K)


def _coerce(value) -> Optional[DualComplex]:
    if isinstance(value, DualComplex):
        return value
    if isinstance(value, (int, float, complex)):
        return DualComplex(value)
    return None


def dc_mul(p: DualComplex, q: DualComplex) -> DualComplex:
    """Noncommutative product pq."""
    return DualComplex(
        p.standard * q.standard,
        p.standard * q.infinitesimal + p.infinitesimal * q.standard.conjugate(),
    )


def dc_abs(q: DualComplex) -> float:
    """Magnitude |q| = |standard part|; the infinitesimal part never contributes."""
    return abs(q.standard)


def dc_inv(q: DualComplex, zero_tol: float = 0.0) -> DualComplex:
    """Multiplicative inverse conj(q)/|q|^2 of an appreciable q."""
    mag2 = abs(q.standard) ** 2
    if not abs(q.standard) > zero_tol:
        raise NotAppreciable("inverse requires a nonzero standard part")
    return DualComplex(q.standard.conjugate() / mag2, -q.infinitesimal / mag2)


def dc_similar(p: DualComplex, q: DualComplex, tol: float = 1e-10) -> Optional[DualComplex]:
    """Find an appreciable u with p*u = u*q, or None if the numbers are not similar.

    The answer does not change when p and q are scaled by a real c > 0 or
    eps by t > 0, which maps the witnesses u to u_st + t u_I eps*j.  So p
    and q are first brought to unit size, their standard parts divided by
    the larger standard magnitude c and their infinitesimal parts by c t,
    the larger infinitesimal magnitude, or by c alone when either is zero.
    The condition p*u - u*q = 0 is then linear in the four real
    coordinates of u, and the witnesses form the null space of a 4x4 real
    matrix, its singular values at most tol s_1.  Among null-space
    elements with unit-magnitude standard part the one of smallest norm is
    taken, sign-fixed on its largest coordinate, checked to solve the
    scaled equation to 100 tol, and mapped back.  A NaN or infinite
    component of p or q raises NonFinite.
    """
    if not np.isfinite(p.reals() + q.reals()).all():
        raise NonFinite("p or q has a NaN or infinite component")
    c = max(abs(p.standard), abs(q.standard))
    ct = max(abs(p.infinitesimal), abs(q.infinitesimal))
    c, t = (c, ct / c) if c and ct else (c or ct or 1.0, 1.0)
    p, q = (DualComplex(x.standard / c, x.infinitesimal / (c * t)) for x in (p, q))
    # m maps coords(u) to coords(p*u - u*q)
    m = np.array([(dc_mul(p, e) - dc_mul(e, q)).reals() for e in _BASIS]).T
    _, s, vt = np.linalg.svd(m)
    null_rows = s <= tol * s[0]
    if not null_rows.any():
        return None
    basis = vt[null_rows].T  # orthonormal columns spanning the witness space
    _, ts, tvt = np.linalg.svd(basis[:2, :])
    if ts[0] <= tol:
        return None  # every witness is infinitesimal, hence not invertible
    u = basis @ tvt[0]
    u = u / np.hypot(u[0], u[1])
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    witness = DualComplex.from_reals(*u)
    check = dc_mul(p, witness) - dc_mul(witness, q)
    if max(abs(check.standard), abs(check.infinitesimal)) > 100 * tol:
        return None
    return DualComplex(witness.standard, witness.infinitesimal * t)
