import random
from fractions import Fraction

import pytest

from clckit import (
    HomogenizedPolynomial,
    MultiaffinePolynomial,
    SetFunctionTable,
    level_sequence,
    materialize,
    quadratic_hessian,
)
from clckit.polynomials import derive, generating_poly, homogenize

from conftest import cardinality, coverage_example, evaluate, rand_table


def cardinality_table(n):
    return materialize(cardinality(n))


def test_generating_poly_cardinality():
    p = generating_poly(cardinality_table(2))
    assert p.coeffs == {0b01: 1, 0b10: 1, 0b11: 2}


def test_generating_poly_zero():
    zero = SetFunctionTable.of(2, (Fraction(0),) * 4)
    assert not generating_poly(zero).coeffs


def test_generating_poly_coverage_example():
    p = generating_poly(materialize(coverage_example().weights()))
    assert len(p.coeffs) == 7
    assert p.coeffs[0b111] == 2


def test_homogenize_single_variable():
    f = SetFunctionTable.from_entries(1, {(1,): 5})
    q = homogenize(f)
    assert q.coeffs == {(1, 0b1): 5}


def test_homogenize_cardinality():
    q = homogenize(cardinality_table(2))
    # y^2 (x1 + x2) + 2 y x1 x2
    assert q.coeffs == {(2, 0b01): 1, (2, 0b10): 1, (1, 0b11): 2}
    assert {ypow + m.bit_count() for ypow, m in q.coeffs} == {3}


def test_homogenize_zero():
    assert not homogenize(SetFunctionTable.of(2, (Fraction(0),) * 4)).coeffs


def test_derive_y():
    q = HomogenizedPolynomial(1, {(2, 0b1): Fraction(1)})
    dq = derive(q, (), 1)
    assert dq.coeffs == {(1, 0b1): 2}


def test_derive_x():
    p = MultiaffinePolynomial(3, {0b011: 3, 0b101: 1, 0b110: 1})
    dp = derive(p, [1])
    assert dp.coeffs == {0b010: 3, 0b100: 1}


def test_derive_refuses_a_repeated_label():
    # the multiaffine d1 d1 p is 0; a merged (1, 1) would return d1 p
    p = MultiaffinePolynomial(2, {0b01: 1, 0b11: 2})
    with pytest.raises(ValueError, match="^label 1 is repeated$"):
        derive(p, (1, 1))


def test_derive_homogenized_cardinality():
    q = homogenize(cardinality_table(2))
    dq = derive(q, (), 1)
    # 2y(x1 + x2) + 2 x1 x2
    assert dq.coeffs == {(1, 0b01): 2, (1, 0b10): 2, (0, 0b11): 2}


def test_quadratic_hessian_triangle():
    p = MultiaffinePolynomial(3, {0b011: 3, 0b101: 1, 0b110: 1})
    assert quadratic_hessian(p) == [[0, 3, 1], [3, 0, 1], [1, 1, 0]]


def test_quadratic_hessian_y_square():
    q = HomogenizedPolynomial(0, {(2, 0): Fraction(1)})
    assert quadratic_hessian(q) == [[2]]


def test_quadratic_hessian_mixed():
    # (m+1)m/2 f(tau) y^2 + m sum f_tau({i}) y x_i + sum f_tau({i,j}) x_i x_j
    # at m=2 with all values 1 gives [[6,2,2],[2,0,1],[2,1,0]]
    q = HomogenizedPolynomial(
        2,
        {
            (2, 0): Fraction(3),
            (1, 0b01): Fraction(2),
            (1, 0b10): Fraction(2),
            (0, 0b11): Fraction(1),
        },
    )
    assert quadratic_hessian(q) == [[6, 2, 2], [2, 0, 1], [2, 1, 0]]


def test_quadratic_hessian_rejects_non_quadratic():
    with pytest.raises(ValueError, match="not quadratic"):
        quadratic_hessian(MultiaffinePolynomial(2, {0b01: 1}))


def test_evaluate():
    p = MultiaffinePolynomial(2, {0b11: 1})
    assert evaluate(p, (1, 1)) == 1
    assert evaluate(p, (0, 5)) == 0
    with pytest.raises(ValueError):
        evaluate(p, (1,))


def test_evaluate_homogenized_all_ones_is_total_mass():
    rng = random.Random(2)
    for _ in range(20):
        f = rand_table(rng, rng.randint(1, 5))
        q = homogenize(f)
        assert evaluate(q, (1,) * (f.n + 1)) == sum(level_sequence(f))


def test_specializing_y_to_one_matches_generating_poly():
    rng = random.Random(4)
    for _ in range(20):
        f = rand_table(rng, rng.randint(1, 5))
        p = generating_poly(f)
        q = homogenize(f)
        xs = [Fraction(rng.randint(0, 3)) for _ in range(f.n)]
        assert evaluate(q, [Fraction(1)] + xs) == evaluate(p, xs)


def test_hessian_is_symmetric_on_random_quadratics():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 6)
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(n), 2)
            coeffs[(1 << i) | (1 << j)] = Fraction(rng.randint(1, 5))
        h = quadratic_hessian(MultiaffinePolynomial(n, coeffs))
        assert all(h[i][j] == h[j][i] for i in range(n) for j in range(n))
