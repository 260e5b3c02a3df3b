"""Built-in fixtures for the two negative results, one command away.

Counterexample A: the budget-additive function min(sum w_i, 2) on 12 elements
with weights (1,1,1,1,1,1,2,2,2,2,0,0) is nonnegative, monotone and
submodular, yet its degree-2 restriction has a Hessian with two positive
eigenvalues, so it is not log-concave.

Counterexample B: 3 x1 x2 + x1 x3 + x2 x3 is log-concave (Hessian inertia
(1,0,2)) but its pair values admit no two-coverage witness, and no monotone
submodular extension that is nonnegative on nonempty sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bitsets import labels_of
from .coverage2 import search_2cov_feasible
from .logconcave import (
    VERDICT_REFUTED,
    certify_clc_homogeneous,
    quadratic_inertia,
)
from .polynomials import MultiaffinePolynomial
from .setfn import SetFunctionTable


def budget_additive_table() -> SetFunctionTable:
    """Counterexample A as a table: min(sum of w_i over S, 2) on every S."""
    weights = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0)
    sums = [0] * (1 << len(weights))
    for s in range(1, len(sums)):
        low = s & -s
        sums[s] = sums[s ^ low] + weights[low.bit_length() - 1]
    return SetFunctionTable(len(weights), [min(v, 2) for v in sums])


def triangle_quadratic() -> MultiaffinePolynomial:
    return MultiaffinePolynomial(3, {0b011: 3, 0b101: 1, 0b110: 1})


def triangle_table() -> SetFunctionTable:
    """The pair values of the triangle quadratic as a degree-2 table."""
    p = triangle_quadratic()
    return SetFunctionTable.from_entries(3, dict(p.coeffs))


def _monotone_witness(n, vals):
    """The first (S, i) with f(S) > f(S+i) on the table values `vals`, or None."""
    full = (1 << n) - 1
    for s in range(full + 1):
        rest = full & ~s
        while rest:
            low = rest & -rest
            if vals[s] > vals[s | low]:
                return (labels_of(s), low.bit_length())
            rest ^= low
    return None


def _submodular_witness(n, vals):
    """The first (S, i, j) breaking f(S+i) + f(S+j) >= f(S+i+j) + f(S), the
    local characterization of submodularity, or None."""
    for s in range(1 << n):
        for i, j in combinations([1 << b for b in range(n) if not s >> b & 1], 2):
            if vals[s | i] + vals[s | j] < vals[s | i | j] + vals[s]:
                return (labels_of(s), i.bit_length(), j.bit_length())
    return None


@dataclass(frozen=True)
class CounterexampleOutcome:
    name: str
    ok: bool
    details: dict


def check_budget_additive() -> CounterexampleOutcome:
    f = budget_additive_table()
    monotone = _monotone_witness(f.n, f.nums) is None
    submodular = _submodular_witness(f.n, f.nums) is None
    report = certify_clc_homogeneous(f, 2)
    ok = (
        monotone
        and submodular
        and report.verdict == VERDICT_REFUTED
        and report.failure is not None
        and report.failure.reason == "inertia"
        and report.failure.n_pos == 2
        and report.failure.tau == ()
    )
    return CounterexampleOutcome(
        "budget-additive-degree-2",
        ok,
        {
            "monotone": monotone,
            "submodular": submodular,
            "verdict": report.verdict,
            "n_pos": report.failure.n_pos if report.failure else None,
        },
    )


def check_triangle() -> CounterexampleOutcome:
    iner = quadratic_inertia(triangle_quadratic())
    lc = iner.n_pos <= 1
    search = search_2cov_feasible(triangle_table(), 2, 0)
    ok = iner.as_tuple() == (1, 0, 2) and lc and not search.feasible
    return CounterexampleOutcome(
        "triangle-quadratic",
        ok,
        {
            "inertia": list(iner.as_tuple()),
            "log_concave": lc,
            "two_coverage_feasible": search.feasible,
            "phase1_optimum": str(search.infeasibility),
        },
    )


def run_all() -> list[CounterexampleOutcome]:
    return [check_budget_additive(), check_triangle()]
