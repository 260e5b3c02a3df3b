"""Exact rational linear feasibility via phase-1 simplex with Bland's rule.

Bland's pivoting (smallest eligible entering index; leaving row whose basic
variable has the smallest index among the minimum ratios) terminates, so
both verdicts are certificates: the phase-1 optimum is zero exactly when
A x = b, x >= 0 has a solution.

The simplex is revised, on ints over one denominator D (first 1), with A
as sparse integer columns and rows with b_i < 0 negated. Only D B^-1, D B^-1 b
and their part z of the objective row are kept. Column j's price is
-sum_i pi_i A_ij with pi_i = D - z[i]; the first negative one in Bland's
order, artificials last, enters as the exact product D B^-1 A_j; both are
one product, v times a sum over rows, when A_j's nonzeros share one value v
after the negation, as every x_T column of the LP searches does. A pivot on
P applies T'[i][k] = (T[i][k] * P - T[i][c] * T[r][k]) // D (the Edmonds/
Bareiss rule, exact by Sylvester's identity) to the kept columns and sets
D = P. Each entry is D times the full rational tableau's, so the pivots and
point are the rational simplex's; a uniform c > 0 on A and b scales only the
optimum. The point is re-checked on the columns, a positive optimum by Farkas.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from typing import Sequence

from .errors import InternalCheckError
from .setfn import ZERO


@dataclass(frozen=True)
class LPFeasibility:
    feasible: bool
    point: tuple[Fraction, ...] | None  # values of the original variables
    infeasibility: Fraction  # phase-1 optimum; 0 iff feasible
    pivots: int = 0  # simplex pivots taken

    def __bool__(self) -> bool:
        return self.feasible


def phase1(columns: Sequence[tuple[list[int], list[int]]], b: Sequence[int]) -> LPFeasibility:
    """Decide whether A x = b has a nonnegative solution, exactly. A is an
    integer matrix given by its columns, columns[j] the nonzeros of column j
    as (row indices, values); b is a list of ints."""
    m, n = len(b), len(columns)
    signs = [-1 if v < 0 else 1 for v in b]  # cols: A with the rows where b_i < 0 negated
    cols = [(nz, [signs[i] * v for i, v in zip(nz, vals)]) for nz, vals in columns] if -1 in signs else columns
    block = [[0] * m + [abs(v)] for v in b]  # [D B^-1 | D B^-1 b]
    for i, row in enumerate(block):
        row[i] = 1  # artificial variable n+i sits on row i
    z = [0] * m + [-sum(map(abs, b))]  # for min(sum of artificials)
    basis = list(range(n, n + m))

    # v: the one value two or more nonzeros share, get: their rows; else v = 0
    priced = [
        (vals[0], itemgetter(*nz), nz, vals) if len(nz) > 1 and vals.count(vals[0]) == len(vals)
        else (0, None, nz, vals)
        for nz, vals in cols
    ]
    denom, pivots = 1, 0
    while True:
        pi = [denom - v for v in z[:m]]
        for enter, (v, get, nz, vals) in enumerate(priced):
            price = v * sum(get(pi)) if v else sum(map(mul, map(pi.__getitem__, nz), vals))  # -z_j
            if price > 0:
                if v:
                    column = [v * sum(get(row)) for row in block]
                else:
                    column = [sum(map(mul, map(row.__getitem__, nz), vals)) for row in block]
                column.append(-price)
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

    optimum = -z[m]  # D times the phase-1 optimum
    if optimum < 0:
        raise InternalCheckError("phase-1 optimum below zero")
    if optimum > 0:
        # pi / D solves the sign-normalised dual: y^T A <= 0 < y^T b
        y = list(map(mul, signs, pi))
        if sum(map(mul, y, b)) != optimum or any(
            sum(map(mul, map(y.__getitem__, nz), vals)) > 0 for nz, vals in columns
        ):
            raise InternalCheckError("phase-1 Farkas vector does not certify infeasibility")
        return LPFeasibility(False, None, Fraction(optimum, denom), pivots)
    point, ax = [ZERO] * n, [0] * m  # ax: A times the point's numerators over D
    for row, var in zip(block, basis):
        if var < n and row[m]:
            point[var] = Fraction(row[m], denom)
            for k, v in zip(*columns[var]):
                ax[k] += v * row[m]
    if ax != [v * denom for v in b] or any(row[m] < 0 for row in block):
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
