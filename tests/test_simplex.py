from fractions import Fraction

import pytest

from clckit import simplex
from clckit.errors import InternalCheckError
from clckit.simplex import phase1
from conftest import dense_phase1


def test_integer_columns():
    # x1 + x2 = 4, -x1 + x2 = -2 as sparse columns, the second row negated
    res = phase1([([0, 1], [1, -1]), ([0, 1], [1, 1])], [4, -2])
    assert res.feasible and res.point == (3, 1)
    # x1 + x2 = 2, -x1 + x2 = -4 needs x2 = -1
    res = phase1([([0, 1], [1, -1]), ([0, 1], [1, 1])], [2, -4])
    assert not res.feasible and res.infeasibility > 0
    # no rows: every x >= 0 solves the empty system, and x = 0 comes back
    assert phase1([([], []), ([], [])], []).point == (0, 0)


def test_feasible_simple():
    # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
    res = dense_phase1([[1, 1], [1, -1]], [2, 0])
    assert res.feasible
    assert res.point == (1, 1)


def test_infeasible_negative_requirement():
    # x1 + x2 = -1 has no nonnegative solution
    res = dense_phase1([[1, 1]], [-1])
    assert not res.feasible
    assert res.infeasibility == 1


def test_infeasible_conflicting_rows():
    res = dense_phase1([[1, 0], [1, 0]], [1, 2])
    assert not res.feasible
    assert res.infeasibility > 0


def test_degenerate_and_redundant_rows():
    res = dense_phase1([[1, 1], [2, 2]], [3, 6])
    assert res.feasible
    x = res.point
    assert x[0] + x[1] == 3


def test_exact_fractions():
    res = dense_phase1([[Fraction(1, 3), Fraction(1, 6)]], [Fraction(1, 2)])
    assert res.feasible
    x = res.point
    assert Fraction(1, 3) * x[0] + Fraction(1, 6) * x[1] == Fraction(1, 2)


def test_solution_satisfies_system_randomized():
    import random

    rng = random.Random(55)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        # build a guaranteed-feasible rhs from a random nonnegative point
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(a[i][j] * x0[j] for j in range(n)) for i in range(m)]
        res = dense_phase1(a, b)
        assert res.feasible
        for i in range(m):
            assert sum(a[i][j] * res.point[j] for j in range(n)) == b[i]
        assert all(v >= 0 for v in res.point)


def test_pivot_count_and_optimum_denominator():
    # x1 + x2 = 2, x1 - x2 = 0: two pivots bring x1 and x2 into the basis
    res = dense_phase1([[1, 1], [1, -1]], [2, 0])
    assert res.pivots == 2
    assert dense_phase1([], []).pivots == 0
    # the optimum comes back over the system's own denominators, not D
    res = dense_phase1([[Fraction(2, 3), 1], [Fraction(2, 3), 1]], [Fraction(1, 5), Fraction(1, 7)])
    assert not res.feasible
    assert res.infeasibility == Fraction(1, 5) - Fraction(1, 7)


def _corrupt_pivot(monkeypatch, at, corrupt):
    """Let pivot number `at` (1-based) leave a corrupted block behind."""
    real = simplex._pivot
    count = [0]

    def pivot(block, z, row, column, denom):
        new = real(block, z, row, column, denom)
        count[0] += 1
        if count[0] == at:
            corrupt(block, z, new)
        return new

    monkeypatch.setattr(simplex, "_pivot", pivot)


def test_feasible_point_is_rechecked(monkeypatch):
    def shift_rhs(block, z, denom):
        block[0][-1] += denom  # one unit more on row 0's basic variable

    _corrupt_pivot(monkeypatch, 2, shift_rhs)  # the last of the two pivots
    with pytest.raises(InternalCheckError, match="does not solve"):
        dense_phase1([[1, 1], [1, -1]], [2, 0])


def test_farkas_vector_is_rechecked(monkeypatch):
    def shift_dual(block, z, denom):
        z[0] += denom  # reduced cost of row 0's artificial: y_0 one less

    _corrupt_pivot(monkeypatch, 1, shift_dual)  # the only pivot
    with pytest.raises(InternalCheckError, match="Farkas"):
        dense_phase1([[1, 0], [1, 0]], [1, 2])
