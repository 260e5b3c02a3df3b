"""Sparse multiaffine generating polynomials and their homogenizations.

Coefficients are exact rationals keyed by subset bitmask (plus a y-power for
homogenized polynomials, where y is variable index 0 and x_i is index i).
Repeated y-derivatives keep their factorial factors; callers that want the
normalized quadratics divide by the positive constant themselves, which
cannot change any eigenvalue sign.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .bitsets import labels_of, mask_of
from .errors import InputError
from .setfn import SetFunctionTable, ZERO, exact


@dataclass(frozen=True)
class MultiaffinePolynomial:
    """sum over subsets S of coeff(S) * prod_{i in S} x_i."""

    n: int
    coeffs: Mapping[int, Fraction]  # mask -> coefficient, zeros absent

    def __post_init__(self):
        cleaned = {}
        for mask, c in self.coeffs.items():
            if mask >= 1 << self.n:
                raise ValueError(f"monomial {labels_of(mask)} out of range for n={self.n}")
            c = exact(c)
            if c != 0:
                cleaned[mask] = c
        object.__setattr__(self, "coeffs", cleaned)


@dataclass(frozen=True)
class HomogenizedPolynomial:
    """Polynomial in (y, x_1..x_n), multiaffine in x; keys are (y-power, mask)."""

    n: int
    coeffs: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        cleaned = {}
        for (ypow, mask), c in self.coeffs.items():
            if ypow < 0 or mask >= 1 << self.n:
                raise ValueError(f"bad monomial (y^{ypow}, {labels_of(mask)})")
            c = exact(c)
            if c != 0:
                cleaned[(ypow, mask)] = c
        object.__setattr__(self, "coeffs", cleaned)


Polynomial = Union[MultiaffinePolynomial, HomogenizedPolynomial]


def generating_poly(f: SetFunctionTable) -> MultiaffinePolynomial:
    """coeff(x^S) = f(S)."""
    return MultiaffinePolynomial(
        f.n, {m: f[m] for m, v in enumerate(f.nums) if v}
    )


def homogenize(f: SetFunctionTable) -> HomogenizedPolynomial:
    """q(y, x) = sum over S of f(S) y^(n+1-|S|) x^S, homogeneous of degree n+1."""
    return HomogenizedPolynomial(
        f.n,
        {(f.n + 1 - m.bit_count(), m): f[m] for m, v in enumerate(f.nums) if v},
    )


def derive(p: Polynomial, tau: Iterable[int] = (), y_order: int = 0) -> Polynomial:
    """Exact mixed partial: d^tau d_y^k p, factorial factors included."""
    tmask = mask_of(tau)
    if isinstance(p, MultiaffinePolynomial):
        if y_order:
            raise ValueError("y-derivatives need a homogenized polynomial")
        return MultiaffinePolynomial(
            p.n,
            {m ^ tmask: c for m, c in p.coeffs.items() if m & tmask == tmask},
        )
    if y_order < 0:
        raise ValueError("y-order must be nonnegative")
    out: dict[tuple[int, int], Fraction] = {}
    for (ypow, m), c in p.coeffs.items():
        if ypow >= y_order and m & tmask == tmask:
            out[(ypow - y_order, m ^ tmask)] = c * math.perm(ypow, y_order)
    return HomogenizedPolynomial(p.n, out)


def scale(p: Polynomial, factor) -> Polynomial:
    factor = exact(factor)
    cls = type(p)
    return cls(p.n, {k: c * factor for k, c in p.coeffs.items()})


def quadratic_hessian(p: Polynomial) -> list[list[Fraction]]:
    """Constant Hessian of a 2-homogeneous polynomial.

    Multiaffine input gives an n x n matrix (zero diagonal, coeff(x_i x_j)
    off it); homogenized input is indexed by (y, x_1..x_n) with y in row 0,
    H(0,0) = 2 coeff(y^2) and H(0,i) = coeff(y x_i).
    """
    if isinstance(p, MultiaffinePolynomial):
        h = [[ZERO] * p.n for _ in range(p.n)]
        for m, c in p.coeffs.items():
            if m.bit_count() != 2:
                raise InputError(f"not quadratic: monomial {labels_of(m)}")
            i, j = labels_of(m)
            h[i - 1][j - 1] = c
            h[j - 1][i - 1] = c
        return h
    dim = p.n + 1
    h = [[ZERO] * dim for _ in range(dim)]
    for (ypow, m), c in p.coeffs.items():
        if ypow + m.bit_count() != 2:
            raise InputError(f"not quadratic: monomial (y^{ypow}, {labels_of(m)})")
        if ypow == 2:
            h[0][0] = 2 * c
        elif ypow == 1:
            (i,) = labels_of(m)
            h[0][i] = c
            h[i][0] = c
        else:
            i, j = labels_of(m)
            h[i][j] = c
            h[j][i] = c
    return h
