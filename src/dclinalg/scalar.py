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

from .errors import NotAppreciable


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    group_tol clusters nearby eigenvalues, resid_tol bounds linear-system
    consistency and decomposition residuals, zero_tol is the rank /
    appreciability cutoff.
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

    The condition p*u - u*q = 0 is linear in the four real coordinates of u,
    so the witnesses form the null space of a 4x4 real matrix.  Among
    null-space elements with unit-magnitude standard part the one of
    smallest norm is returned, sign-fixed on its largest coordinate.
    """
    cols = []
    for e in _BASIS:
        r = dc_mul(p, e) - dc_mul(e, q)
        cols.append(r.reals())
    m = np.array(cols, dtype=float).T  # maps coords(u) to coords(p*u - u*q)
    _, s, vt = np.linalg.svd(m)
    null_rows = s <= tol * max(1.0, s[0])
    if not null_rows.any():
        return None
    basis = vt[null_rows].T  # orthonormal columns spanning the witness space
    to_standard = basis[:2, :]
    _, ts, tvt = np.linalg.svd(to_standard)
    if ts[0] <= tol:
        return None  # every witness is infinitesimal, hence not invertible
    u = basis @ tvt[0]
    u = u / np.hypot(u[0], u[1])
    if u[int(np.argmax(np.abs(u)))] < 0:
        u = -u
    witness = DualComplex.from_reals(*u)
    check = dc_mul(p, witness) - dc_mul(witness, q)
    if max(abs(check.standard), abs(check.infinitesimal)) > 100 * tol * (1 + abs(p) + abs(q)):
        return None
    return witness
