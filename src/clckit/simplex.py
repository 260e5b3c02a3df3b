"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Bland's pivoting (smallest eligible entering index; leaving row whose basic
variable has the smallest index among the minimum ratios) terminates, so
both verdicts are certificates: the phase-1 optimum is zero exactly when
A x = b, x >= 0 has a solution.

The simplex is revised, on ints over one denominator D (first 1), with the
sign-normalised rows [A | b] scaled by the lcm of their denominators. Only
D B^-1, D B^-1 b and their part z of the objective row are kept. Column j's
price is -sum_i pi_i A_ij with pi_i = D - z[i]; the first negative one in
Bland's order, artificials last, enters as the exact product D B^-1 A_j. A
pivot on P applies T'[i][k] = (T[i][k] * P - T[i][c] * T[r][k]) // D (the
Edmonds/Bareiss rule, exact by Sylvester's identity) to the kept columns
and sets D = P. Each entry is D times the full rational tableau's, so the
pivots, point and optimum are the rational simplex's. A point is re-checked
against the caller's rows, an infeasible optimum through its Farkas vector.
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

    columns = []  # each sign-normalised column's nonzeros: rows, values
    for col in zip(*([s * v for v in row[:n]] for s, row in zip(signs, scaled))):
        columns.append(([i for i, v in enumerate(col) if v], [v for v in col if v]))
    block = [[0] * m + [s * row[n]] for s, row in zip(signs, scaled)]  # [D B^-1 | D B^-1 b]
    for i, row in enumerate(block):
        row[i] = 1  # artificial variable n+i sits on row i
    z = [0] * m + [-sum(row[m] for row in block)]  # for min(sum of artificials)
    basis = list(range(n, n + m))

    denom, pivots = 1, 0
    while True:
        pi = [denom - v for v in z[:m]]
        for enter, (nz, vals) in enumerate(columns):
            price = sum(map(mul, map(pi.__getitem__, nz), vals))  # -z_j
            if price > 0:
                column = [sum(map(mul, map(row.__getitem__, nz), vals)) for row in block] + [-price]
                break
        else:
            enter = next((i for i in range(m) if z[i] < 0), None)
            if enter is None:
                break
            column = [row[enter] for row in block] + [z[enter]]
            enter += n
        leave = None
        for i, (row, coef) in enumerate(zip(block, column)):
            # ratio row[m] / coef against num / den, cross-multiplied
            if coef > 0 and (leave is None or row[m] * den < num * coef or (
                row[m] * den == num * coef and basis[i] < basis[leave]
            )):
                leave, num, den = i, row[m], coef
        if leave is None:
            raise InternalCheckError("phase-1 objective is bounded; no ratio row found")
        denom = _pivot(block, z, leave, column, denom)
        basis[leave] = enter
        pivots += 1

    optimum = -z[m]  # D * L times the phase-1 optimum
    if optimum < 0:
        raise InternalCheckError("phase-1 optimum below zero")
    if optimum > 0:
        # pi / D solves the sign-normalised dual: y^T A <= 0 < y^T b on A's rows
        y = list(map(mul, signs, pi))
        yb = sum(map(mul, y, (row[n] for row in scaled)))
        if yb != optimum or any(
            sum(map(mul, y, col)) > 0 for col in zip(*(row[:n] for row in scaled))
        ):
            raise InternalCheckError("phase-1 Farkas vector does not certify infeasibility")
        return LPFeasibility(False, None, Fraction(optimum, denom * scale), pivots)
    point = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            point[var] = Fraction(block[i][m], denom)
    used = [j for j in range(n) if point[j]]
    if any(point[j] < 0 for j in used) or any(
        sum(row[j] * point[j] for j in used) != row[n] for row in rows
    ):
        raise InternalCheckError("phase-1 point does not solve A x = b, x >= 0")
    return LPFeasibility(True, tuple(point), ZERO, pivots)


def _pivot(block, z, row, column, denom) -> int:
    """Integer-preserving pivot on column[row] (column[-1] is z's entry);
    returns the new common denominator."""
    prow = block[row]
    p = column[row]
    for other, factor in zip((*block, z), column):
        if other is prow:
            continue
        if factor:
            other[:] = [(x * p - factor * y) // denom for x, y in zip(other, prow)]
        elif p != denom:
            other[:] = [x * p // denom for x in other]
    return p
