import random
from fractions import Fraction

import pytest

from clckit import (
    HomogenizedPolynomial,
    MultiaffinePolynomial,
    SetFunctionTable,
    UniformMatroid,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    independence_indicator,
    inertia,
    level_sequence,
    materialize,
    quadratic_hessian,
    quadratic_inertia,
    to_setfunction,
    ulc_check,
)
from clckit import logconcave
from clckit.counterexamples import budget_additive_table, triangle_quadratic
from clckit.logconcave import is_indecomposable
from clckit.setfn import homogeneous_restrict

from conftest import (
    CoverageInstance,
    certify_oracle,
    congruence,
    contract,
    coverage_example,
    float_npos,
    k4,
    mainpsd_witness,
    rand_coverage_instance,
    rand_invertible,
    rand_symmetric,
    validate_explicit,
)


# --- inertia ---------------------------------------------------------------


def test_inertia_all_ones():
    j3 = [[1] * 3 for _ in range(3)]
    assert inertia(j3).as_tuple() == (1, 2, 0)


def test_inertia_diag():
    assert inertia([[1, 0], [0, -1]]).as_tuple() == (1, 0, 1)


def test_inertia_triangle_matrix():
    # characteristic polynomial x^3 - 11x - 6 = (x + 3)(x^2 - 3x - 2):
    # roots -3, (3 +- sqrt(17))/2, hence exactly one positive eigenvalue
    h = [[0, 3, 1], [3, 0, 1], [1, 1, 0]]
    assert inertia(h).as_tuple() == (1, 0, 2)


def test_inertia_zero_and_hyperbolic():
    assert inertia([[0, 0], [0, 0]]).as_tuple() == (0, 2, 0)
    assert inertia([[0, 5], [5, 0]]).as_tuple() == (1, 0, 1)
    assert inertia([[0, -5], [-5, 0]]).as_tuple() == (1, 0, 1)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError, match=r"symmetric at \(0,1\)$"):
        inertia([[0, 1], [2, 0]])
    # the first mismatch in row order, on ints and after scaling rationals
    for h in ([[1, 2, 3], [2, 1, 4], [3, 5, 1]], [[1, 2, 3], [2, 1, Fraction(4, 3)], [3, "5/3", 1]]):
        with pytest.raises(ValueError, match=r"symmetric at \(1,2\)$"):
            inertia(h)
    with pytest.raises(ValueError, match=r"symmetric at \(0,3\)$"):
        inertia([[0, 0, 0, 1], [0, 0, 1, 0], [0, 2, 0, 0], [2, 0, 0, 0]])


def test_inertia_input_checks():
    with pytest.raises(TypeError, match="refusing float"):
        inertia([[1.0]])
    with pytest.raises(TypeError, match="cannot parse"):
        inertia([[True]])
    with pytest.raises(ValueError, match="square"):
        inertia([[1, 0]])
    # ints, rationals and strings scale together over one denominator
    assert inertia([[Fraction(1, 3), 2], [2, "1/5"]]).as_tuple() == (1, 0, 1)
    big = 10**40
    assert inertia([[big, big + 1], [big + 1, big]]).as_tuple() == (1, 0, 1)
    assert inertia([]).as_tuple() == (0, 0, 0)


def test_inertia_matches_float_oracle():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(1, 7)
        h = rand_symmetric(rng, m)
        exact = inertia(h)
        assert exact.n_pos == float_npos(h)
        neg = [[-v for v in row] for row in h]
        assert inertia(neg).n_pos == exact.n_neg


def test_inertia_congruence_invariance():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randint(1, 6)
        h = rand_symmetric(rng, m)
        p = rand_invertible(rng, m)
        assert inertia(congruence(p, h)).as_tuple() == inertia(h).as_tuple()


# --- indecomposability ------------------------------------------------------


def test_indecomposable_examples():
    split = MultiaffinePolynomial(4, {0b0011: 1, 0b1100: 1})
    res = is_indecomposable(split)
    assert not res
    assert res.components == ((1, 2), (3, 4))
    chain = MultiaffinePolynomial(3, {0b011: 1, 0b110: 1})
    assert is_indecomposable(chain)
    mixed = HomogenizedPolynomial(2, {(1, 0b01): Fraction(1), (0, 0b11): Fraction(1)})
    assert is_indecomposable(mixed)  # y and x2 both hang off x1


def test_indecomposable_zero_by_convention():
    assert is_indecomposable(MultiaffinePolynomial(3, {}))


def test_indecomposable_rejects_constant_term():
    with pytest.raises(ValueError, match="constant"):
        is_indecomposable(MultiaffinePolynomial(2, {0: 1}))
    with pytest.raises(ValueError, match="constant"):
        is_indecomposable(HomogenizedPolynomial(2, {(0, 0): Fraction(2)}))


# --- quadratic log-concavity ------------------------------------------------


def test_quadratic_log_concave_examples():
    assert quadratic_inertia(MultiaffinePolynomial(2, {0b11: 1})).n_pos <= 1
    assert quadratic_inertia(MultiaffinePolynomial(3, {})).as_tuple() == (0, 3, 0)
    assert quadratic_inertia(triangle_quadratic()).as_tuple() == (1, 0, 2)
    f2 = homogeneous_restrict(budget_additive_table(), 2)
    from clckit.polynomials import generating_poly

    assert quadratic_inertia(generating_poly(f2)).n_pos == 2
    # the Hessian criterion needs nonnegative coefficients
    with pytest.raises(ValueError, match=r"negative coefficient -1 on monomial \(1, 2\)"):
        quadratic_inertia(MultiaffinePolynomial(2, {0b11: -1}))
    with pytest.raises(ValueError, match=r"on monomial \(y\^1, \(2,\)\)"):
        quadratic_inertia(HomogenizedPolynomial(2, {(2, 0): 1, (1, 0b10): Fraction(-1, 2)}))


def test_quadratic_log_concave_float_cross_check():
    rng = random.Random(101)
    from clckit.polynomials import generating_poly

    for _ in range(1000):
        m = rng.randint(2, 8)
        coeffs = {}
        for _ in range(rng.randint(1, m * 2)):
            i, j = rng.sample(range(m), 2)
            coeffs[(1 << i) | (1 << j)] = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        p = MultiaffinePolynomial(m, coeffs)
        assert (quadratic_inertia(p).n_pos <= 1) == (float_npos(quadratic_hessian(p)) <= 1)


# --- certification drivers ---------------------------------------------------


def test_certify_k4_rank_degree_2():
    rk = to_setfunction(k4())
    report = certify_clc_homogeneous(rk, 2)
    assert report.verdict == "certified"
    assert report.failure is None


def test_certify_budget_additive_refuted():
    f = budget_additive_table()
    report = certify_clc_homogeneous(f, 2)
    assert report.verdict == "refuted"
    assert report.failure.tau == ()
    assert report.failure.reason == "inertia"
    assert report.failure.n_pos == 2


def test_certify_vacuous():
    zero = SetFunctionTable.of(4, (Fraction(0),) * 16)
    assert certify_clc_homogeneous(zero, 2).verdict == "vacuous"
    assert certify_clc_homogenization(zero).verdict == "vacuous"
    # n = 0: the sweep has no cell, and q_f = f(empty) y is the zero polynomial
    assert certify_clc_homogenization(SetFunctionTable(0, (0,))).verdict == "vacuous"


def test_certify_homogenization_uniform_rank():
    report = certify_clc_homogenization(to_setfunction(UniformMatroid(2, 3)))
    assert report.verdict == "certified"


def test_certify_homogenization_coverage_example():
    report = certify_clc_homogenization(materialize(coverage_example().weights()))
    assert report.verdict == "certified"


def test_certify_homogenization_budget_additive_fails():
    # not strongly 2-coverage: its degree-2 part is not log-concave, and the
    # driver must find a failing quadratic cell
    f = budget_additive_table()
    report = certify_clc_homogenization(f, cap=12)
    assert report.verdict == "conditions-fail"
    assert report.failure.reason == "inertia"


@pytest.mark.parametrize("d", [None, 4])
def test_sweep_diagonalizes_each_distinct_hessian_once(monkeypatch, d):
    # U(4,10) rank saturates once tau spans, so its contracted Hessians
    # repeat; each distinct one is diagonalized once per call, and a second
    # call starts from nothing
    f = to_setfunction(UniformMatroid(4, 10))
    hessians = []
    want = certify_oracle(f, d, hessians)
    distinct = {tuple(map(tuple, h)) for h in hessians}
    assert want.verdict == "certified" and len(distinct) < len(hessians)
    calls = []
    real = logconcave.inertia
    monkeypatch.setattr(logconcave, "inertia", lambda h: calls.append(h) or real(h))
    for _ in range(2):
        calls.clear()
        got = certify_clc_homogenization(f) if d is None else certify_clc_homogeneous(f, d)
        assert got == want
        assert len(calls) == len(distinct)
        assert {tuple(map(tuple, h)) for h in calls} == distinct


@pytest.mark.parametrize("d", [None, 4])
def test_sweep_builds_each_distinct_hessian_once(monkeypatch, d):
    # the memo is keyed by the table numerators a Hessian is read from, so a
    # matrix is built only on a miss: once per distinct Hessian and call
    f = to_setfunction(UniformMatroid(4, 10))
    hessians = []
    want = certify_oracle(f, d, hessians)
    distinct = {tuple(map(tuple, h)) for h in hessians}
    built = []
    real = logconcave._quadratic_hessian
    monkeypatch.setattr(
        logconcave, "_quadratic_hessian", lambda *args: built.append(real(*args)) or built[-1]
    )
    for _ in range(2):
        built.clear()
        got = certify_clc_homogenization(f) if d is None else certify_clc_homogeneous(f, d)
        assert got == want
        assert len(built) == len(distinct)
        assert {tuple(map(tuple, h)) for h in built} == distinct


@pytest.mark.parametrize("f", [to_setfunction(UniformMatroid(4, 10))], ids=["U(4,10) rank, q_f"])
def test_certified_sweep_lists_no_components(monkeypatch, f):
    # on a full support every q_f cell has a monomial below its top size and
    # no variable first appearing there, so the shortcut names its one
    # component and no cell grows components from its columns
    calls = []
    real = logconcave.components
    monkeypatch.setattr(logconcave, "components", lambda columns: calls.append(1) or real(columns))
    assert certify_clc_homogenization(f).verdict == "certified"
    assert calls == []


def test_certified_derivative_slices_stay_certified():
    # single-coordinate derivative of a certified restriction is certified
    for m, d in ((k4(), 3), (UniformMatroid(3, 5), 3)):
        f = to_setfunction(m)
        assert certify_clc_homogeneous(f, d).verdict == "certified"
        for i in range(1, f.n + 1):
            c = contract(f, [i])
            sliced = homogeneous_restrict(c.table, d - 1)
            if not any(sliced.nums):
                continue
            assert certify_clc_homogeneous(sliced, d - 1).verdict == "certified"


# --- the 2x2 coefficient test and ULC ------------------------------------------


def test_ulc_examples():
    res = ulc_check((0, 4, 6, 2))
    assert res.holds
    bad = ulc_check((0, 1, 1, 1))
    assert not bad.holds
    assert bad.failing_k == 2
    assert ulc_check((5, 1, 7)).holds  # n = 2: vacuous


def test_ulc_matches_two_by_two_determinant_form():
    # det of [[c_{k-1}/C, c_k/C],[c_k/C, c_{k+1}/C]] <= 0 iff the ULC step holds
    import math

    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(3, 7)
        c = [Fraction(rng.randint(0, 9)) for _ in range(n + 1)]
        res = ulc_check(c)
        dets_ok = True
        first_bad = None
        for kk in range(2, n):
            a = c[kk - 1] / math.comb(n + 1, kk - 1)
            b = c[kk] / math.comb(n + 1, kk)
            d = c[kk + 1] / math.comb(n + 1, kk + 1)
            if a * d - b * b > 0:
                dets_ok = False
                first_bad = kk
                break
        assert res.holds == dets_ok
        assert res.failing_k == first_bad


# --- the PSD witness -----------------------------------------------------------


def test_mainpsd_shared_element():
    inst = CoverageInstance.build([("u", 1)], [["u"], ["u"]])
    w = mainpsd_witness(inst)
    assert w.diag == (1, 1)
    assert w.r_matrix == ((2, 1), (1, 2))
    assert w.r_minus_d_inertia.n_neg == 0
    assert w.r_minus_d_inertia.n_pos == 1  # R - D is the all-ones 2x2 block


def test_mainpsd_disjoint_singletons():
    inst = CoverageInstance.build(
        [("u1", 2), ("u2", 3)], [["u1"], ["u2"]]
    )
    w = mainpsd_witness(inst)
    # R = 2D, so R - D = D
    assert w.r_matrix == ((4, 0), (0, 6))
    assert w.r_minus_d_inertia.as_tuple() == (2, 0, 0)


def test_mainpsd_coverage_example():
    w = mainpsd_witness(coverage_example())
    assert w.r_minus_d_inertia.n_neg == 0


def test_mainpsd_random_instances():
    rng = random.Random(31)
    for _ in range(30):
        inst = rand_coverage_instance(rng, rng.randint(1, 6))
        assert mainpsd_witness(inst).r_minus_d_inertia.n_neg == 0


# --- cross-checks between drivers and ULC ---------------------------------------


def test_homogenization_certified_implies_ulc():
    tables = [
        to_setfunction(UniformMatroid(2, 3)),
        to_setfunction(k4()),
        materialize(coverage_example().weights()),
    ]
    for f in tables:
        assert certify_clc_homogenization(f).verdict == "certified"
        assert ulc_check(level_sequence(f)).holds


def test_certified_support_satisfies_basis_exchange():
    from clckit.bitsets import labels_of, submasks

    cases = [
        (to_setfunction(UniformMatroid(3, 5)), 3),
        (independence_indicator(to_setfunction(k4())), 3),
        (to_setfunction(k4()), 2),
    ]
    for f, d in cases:
        assert certify_clc_homogeneous(f, d).verdict == "certified"
        supports = f.support(size=d)
        closure = set()
        for s in supports:
            for sub in submasks(s):
                closure.add(labels_of(sub))
        assert validate_explicit(f.n, closure) is None
