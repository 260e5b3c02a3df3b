"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Bland's pivoting (smallest eligible entering index; leaving row whose basic
variable has the smallest index among the minimum ratios) guarantees
termination, so feasibility and infeasibility verdicts are both certificates:
the phase-1 optimum is zero exactly when the system A x = b, x >= 0 has a
solution.

The tableau holds Python ints over one common denominator. The
sign-normalised rows [A | b] are multiplied by one lcm L of all their
denominators (one factor for every row, so the phase-1 objective is only
scaled), the artificial columns stay unit columns, and the denominator D
starts at 1. A pivot on P = T[r][c] > 0 applies the integer-preserving rule
of Edmonds and Bareiss, T'[i][j] = (T[i][j] * P - T[i][c] * T[r][j]) // D
(an exact division by Sylvester's identity) to every row but r, objective
row included, and sets D = P. Every entry is then D times the rational
tableau of the scaled system, whose signs and ratios are those of the
unscaled one, so the pivots, the point and the optimum are exactly those of
the rational simplex. Each verdict is re-checked before it is returned: a
point against the caller's rows, an infeasible optimum through the Farkas
vector read off the final objective row.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import InternalCheckError
from .setfn import ZERO, exact, integer_scaled


@dataclass(frozen=True)
class LPFeasibility:
    feasible: bool
    point: tuple[Fraction, ...] | None  # values of the original variables
    infeasibility: Fraction  # phase-1 optimum; 0 iff feasible
    pivots: int = 0  # simplex pivots taken

    def __bool__(self) -> bool:
        return self.feasible


def phase1(a: Sequence[Sequence], b: Sequence) -> LPFeasibility:
    """Decide whether A x = b has a nonnegative solution, exactly."""
    m = len(a)
    if m == 0:
        return LPFeasibility(True, (), ZERO)
    n = len(a[0])
    rows = []  # the caller's rows [A | b]; ints stay ints
    for i in range(m):
        if len(a[i]) != n:
            raise ValueError("ragged constraint matrix")
        rows.append([v if type(v) is int else exact(v) for v in (*a[i], b[i])])
    flat, scale = integer_scaled([v for row in rows for v in row])
    scaled = [flat[i : i + n + 1] for i in range(0, len(flat), n + 1)]
    signs = [-1 if row[n] < 0 else 1 for row in scaled]

    total = n + m  # artificial variable n+i sits on row i
    tableau = []
    for i, row in enumerate(scaled):
        if signs[i] < 0:
            row = [-v for v in row]
        art = [0] * m
        art[i] = 1
        tableau.append(row[:n] + art + row[n:])
    basis = list(range(n, total))
    # objective row for min(sum of artificials), priced out over the basis:
    # z[j] = c_j - sum_i T[i][j], which is 0 on the artificial columns
    z = [-sum(col) for col in zip(*tableau)]
    z[n:total] = [0] * m

    denom = 1
    pivots = 0
    while True:
        enter = next((j for j in range(total) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            coef = row[enter]
            if coef > 0:
                # ratio row[total] / coef against num / den, cross-multiplied
                if leave is None:
                    leave, num, den = i, row[total], coef
                    continue
                lhs, rhs = row[total] * den, num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[total], coef
        if leave is None:
            raise InternalCheckError("phase-1 objective is bounded; no ratio row found")
        denom = _pivot(tableau, z, leave, enter, denom)
        basis[leave] = enter
        pivots += 1

    optimum = -z[total]  # D * L times the phase-1 optimum
    if optimum < 0:
        raise InternalCheckError("phase-1 optimum below zero")
    if optimum > 0:
        # y_i = 1 - z[n+i] / D solves the sign-normalised dual; flipping the
        # negated rows back gives y^T A <= 0 < y^T b on the caller's rows
        y = [s * (denom - z[n + i]) for i, s in enumerate(signs)]
        yb = sum(map(mul, y, (row[n] for row in scaled)))
        if yb != optimum or any(
            sum(map(mul, y, col)) > 0 for col in zip(*(row[:n] for row in scaled))
        ):
            raise InternalCheckError("phase-1 Farkas vector does not certify infeasibility")
        return LPFeasibility(False, None, Fraction(optimum, denom * scale), pivots)
    point = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            point[var] = Fraction(tableau[i][total], denom)
    used = [j for j in range(n) if point[j]]
    if any(point[j] < 0 for j in used) or any(
        sum(row[j] * point[j] for j in used) != row[n] for row in rows
    ):
        raise InternalCheckError("phase-1 point does not solve A x = b, x >= 0")
    return LPFeasibility(True, tuple(point), ZERO, pivots)


def _pivot(tableau, z, row, col, denom) -> int:
    """Integer-preserving pivot on tableau[row][col]; returns the new
    common denominator."""
    prow = tableau[row]
    p = prow[col]
    for other in (*tableau, z):
        if other is prow:
            continue
        factor = other[col]
        if factor:
            other[:] = [(x * p - factor * y) // denom for x, y in zip(other, prow)]
        elif p != denom:
            other[:] = [x * p // denom for x in other]
    return p
