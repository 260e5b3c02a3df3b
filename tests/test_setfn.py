import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clckit import (
    CoverageWeights,
    SetFunctionTable,
    UniformMatroid,
    level_sequence,
    materialize,
    mobius_coverage_weights,
    to_setfunction,
)
from clckit import jsonio
from clckit.bitsets import coverage_values, coverage_weights, labels_of, mask_of
from clckit import setfn
from clckit.errors import CapExceededError, InternalCheckError
from clckit.setfn import ZERO, exact, homogeneous_restrict, integer_scaled

from clckit.counterexamples import budget_additive_table

from conftest import (
    CoverageInstance,
    cardinality,
    contract,
    coverage_example,
    coverage_instances,
    dump_set_function,
    materialize_oracle,
    mobius_oracle,
    predicates,
    rand_coverage_instance,
    value_of,
)


def test_table_invariants():
    with pytest.raises(ValueError):
        SetFunctionTable.of(1, (Fraction(1), Fraction(0)))  # f(empty) != 0
    with pytest.raises(ValueError):
        SetFunctionTable.of(1, (Fraction(0), Fraction(-1)))
    with pytest.raises(CapExceededError):
        SetFunctionTable(25, tuple())


@pytest.mark.parametrize(
    "nums, scale, error, message",
    [
        ((0, Fraction(1)), 1, TypeError, "table numerators must be ints"),
        ((0, True), 1, TypeError, "table numerators must be ints"),
        ((0, 1), 0, ValueError, "scale must be a positive integer, got 0"),
        ((0, 1), -2, ValueError, "scale must be a positive integer, got -2"),
        ((0, 1), Fraction(2), ValueError, "scale must be a positive integer, got Fraction(2, 1)"),
        ((0, -1), 2, ValueError, "negative value -1/2"),
        ((1, 0), 1, ValueError, "f(empty set) must be 0"),
    ],
    ids=["fraction-numerator", "bool-numerator", "zero-scale", "negative-scale", "fraction-scale",
         "negative-value", "nonzero-empty-set"],
)
def test_table_refuses(nums, scale, error, message):
    with pytest.raises(error) as info:
        SetFunctionTable(1, nums, scale)
    assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(inst=coverage_instances(), k=st.integers(1, 6))
def test_table_is_one_function_in_lowest_terms(tmp_path_factory, inst, k):
    f = materialize(inst.weights())
    vals = [f[m] for m in range(1 << f.n)]
    assert all(type(v) is Fraction for v in vals)
    assert all(type(v) is int for v in f.nums)
    assert math.gcd(f.scale, *f.nums) == 1
    assert f == SetFunctionTable.of(f.n, vals)
    assert f == SetFunctionTable(f.n, [k * v for v in f.nums], k * f.scale)
    path = tmp_path_factory.mktemp("table") / "f.json"
    path.write_text(json.dumps(dump_set_function(f)))
    assert jsonio.load_set_function(str(path)) == f


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.fractions(0, 5, max_denominator=6), min_size=(1 << n) - 1, max_size=(1 << n) - 1)
))
def test_table_of_reads_back_its_values(rest):
    n = len(rest).bit_length()
    vals = [ZERO, *rest]
    f = SetFunctionTable.of(n, vals)
    assert [f[m] for m in range(1 << n)] == vals
    assert math.gcd(f.scale, *f.nums) == 1


def test_table_rejects_floats():
    with pytest.raises(TypeError):
        SetFunctionTable.from_entries(2, {(1,): 0.5})


def test_repeated_label_refused_not_merged():
    # (1, 1) would pack to the mask of (1,) and overwrite f({1}) = 2 with 5
    with pytest.raises(ValueError, match="^label 1 is repeated$"):
        mask_of([1, 2, 1])
    with pytest.raises(ValueError, match="^label 1 is repeated$"):
        SetFunctionTable.from_entries(2, {(1,): 2, (1, 1): 5})


def test_repeated_subset_refused_not_overwritten():
    # (1, 2), (2, 1) and the mask 3 name one subset; the last value used to win
    with pytest.raises(ValueError, match=r"^subset \(2, 1\) repeats the subset of \(1, 2\)$"):
        SetFunctionTable.from_entries(2, {(1, 2): 1, (2, 1): 3})
    with pytest.raises(ValueError, match=r"^subset 3 repeats the subset of \(1, 2\)$"):
        SetFunctionTable.from_entries(2, {(1, 2): 1, 3: 7})


def test_negative_mask_refused_not_wrapped():
    # -1 used to index the last entry, f({1, 2})
    with pytest.raises(ValueError, match=r"^subset -1 out of range for n=2$"):
        SetFunctionTable.from_entries(2, {-1: 5})


def test_bool_key_refused_not_read_as_a_mask():
    # True used to set f({1})
    with pytest.raises(ValueError, match=r"^subset key True is a bool, not a mask or labels$"):
        SetFunctionTable.from_entries(2, {True: 5})


@pytest.mark.parametrize(
    "value, error, message",
    [
        (True, TypeError, "cannot parse True as a rational"),
        (None, TypeError, "cannot parse None as a rational"),
        ("1/0", ValueError, "zero denominator in '1/0'"),
    ],
    ids=["boolean", "null", "zero-denominator"],
)
def test_exact_refuses(value, error, message):
    with pytest.raises(error) as info:
        exact(value)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "cannot parse True as a rational"),
        (0.5, "refusing float 0.5 in an exact context; pass int, Fraction or a string"),
    ],
    ids=["boolean", "float"],
)
def test_of_constructors_refuse_inexact_values(value, message):
    # both go through integer_scaled, which refuses what `exact` refuses
    with pytest.raises(TypeError) as info:
        SetFunctionTable.of(1, [0, value])
    assert str(info.value) == message
    with pytest.raises(TypeError) as info:
        CoverageWeights.of(2, {0b01: 1, 0b11: value})
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-99, 99), st.fractions(max_denominator=60)), max_size=12))
def test_integer_scaled_numerators_over_lcm(values):
    nums, scale = integer_scaled(values)
    assert all(type(x) is int for x in nums)
    assert [Fraction(x, scale) for x in nums] == values
    # scale makes every value integral, and no scale / p for a prime p does
    assert all((v * scale).denominator == 1 for v in map(Fraction, values))
    for p in (p for p in range(2, 61) if scale % p == 0 and all(p % q for q in range(2, p))):
        assert any((v * (scale // p)).denominator != 1 for v in map(Fraction, values))
    if all(type(v) is int for v in values):
        assert (nums, scale) == (values, 1)


_NUMBERS = {
    "int": st.integers(-9, 9),
    "fraction": st.fractions(-4, 4, max_denominator=6),
    "float": st.integers(-64, 64).map(lambda k: k / 8),  # dyadic: every sum below is exact
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 5), kind=st.sampled_from(sorted(_NUMBERS)))
def test_coverage_transform_pair_round_trip(data, n, kind):
    x = [0] + data.draw(st.lists(_NUMBERS[kind], min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    kept = list(x)
    f = coverage_values(x)
    assert x == kept
    assert f == [sum(v for t, v in enumerate(x) if t & s) for s in range(1 << n)]
    assert coverage_weights(f) == x


@settings(max_examples=100, deadline=None)
@given(inst=coverage_instances())
def test_materialize_matches_union_oracle(inst):
    assert materialize(inst.weights()) == materialize_oracle(inst)


def test_instance_weights_drop_uncovered_and_zero():
    inst = CoverageInstance.build(
        [("a", 1), ("b", "1/2"), ("c", 3), ("d", 0), ("e", 2)], [["a", "b"], ["b"], ["d"]]
    )
    # a lies in A_1 only, b in A_1 and A_2, d (weight 0) in A_3 only, c and e in no set
    assert inst.weights() == CoverageWeights(3, {0b001: 2, 0b011: 1}, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.fractions(0, 5, max_denominator=4), min_size=(1 << n) - 1, max_size=(1 << n) - 1)
))
def test_mobius_matches_fraction_oracle(rest):
    n = len(rest).bit_length()
    f = SetFunctionTable.of(n, (ZERO, *rest))
    x = mobius_oracle(f)
    mob = mobius_coverage_weights(f)
    assert mob.weights == x
    lowest = min((x.get(m, ZERO) for m in range(1, 1 << n)), default=ZERO)
    assert (mob.min_weight, mob.is_coverage) == (lowest, lowest >= 0)


def test_mobius_reconstruction_failure_names_the_first_wrong_set(monkeypatch):
    real = setfn.coverage_values

    def broken(x):
        out = real(x)
        out[0b101] += 1
        out[0b110] += 1
        return out

    monkeypatch.setattr(setfn, "coverage_values", broken)
    with pytest.raises(InternalCheckError, match=r"^Moebius reconstruction failed at S=\(1, 3\)$"):
        mobius_coverage_weights(to_setfunction(UniformMatroid(2, 3)))


def test_materialize_cap():
    with pytest.raises(CapExceededError):
        materialize(cardinality(25))


def test_materialize_coverage_example():
    f = materialize(coverage_example().weights())
    assert value_of(f, [1]) == 1
    assert value_of(f, [2]) == 2
    assert value_of(f, [1, 3]) == 2
    assert value_of(f, [1, 2, 3]) == 2


def test_materialize_linear_is_cardinality():
    f = materialize(cardinality(2))
    for mask in range(4):
        assert f[mask] == mask.bit_count()


def test_materialize_budget_additive_values():
    f = budget_additive_table()
    assert value_of(f, [7, 8]) == 2
    assert value_of(f, [11, 12]) == 0
    assert value_of(f, [1]) == 1


def test_materialize_rejects_unknown_elements(tmp_path):
    # a coverage file is read straight into weights; the loader refuses an
    # element outside the universe, naming its field
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"universe": [{"id": "a", "weight": "1"}], "sets": [["a", "z"]]}))
    with pytest.raises(ValueError, match=r"^sets\[0\]\[1\]: unknown element 'z'$"):
        jsonio.load_coverage_instance(str(path))


def test_contract_cardinality():
    f = materialize(cardinality(3))
    c = contract(f, [1])
    assert c.base == 1
    assert c.elements == (2, 3)
    # g(S) = f(S + tau): positions 1,2 of the contracted table are labels 2,3
    assert value_of(c.table, [1]) == 2
    assert value_of(c.table, [1, 2]) == 3


def test_contract_empty_is_identity():
    f = materialize(coverage_example().weights())
    c = contract(f, [])
    assert c.base == 0
    assert c.table == f


def test_contract_uniform_rank():
    rk = to_setfunction(UniformMatroid(2, 3))
    c = contract(rk, [1])
    assert c.base == 1
    assert value_of(c.table, [1]) == 2  # rk({1,2})
    assert value_of(c.table, [1, 2]) == 2


def test_homogeneous_restrict():
    f = materialize(cardinality(3))
    f1 = homogeneous_restrict(f, 1)
    assert all(
        f1[m] == (1 if m.bit_count() == 1 else 0) for m in range(8)
    )
    assert not any(homogeneous_restrict(f, 0).nums)
    f2 = homogeneous_restrict(materialize(coverage_example().weights()), 2)
    assert [value_of(f2, s) for s in ([1, 2], [1, 3], [2, 3])] == [2, 2, 2]
    assert value_of(f2, [1]) == 0


def test_predicates_budget_additive():
    report = predicates(budget_additive_table())
    assert report.monotone and report.submodular


def test_predicates_square_cardinality_not_submodular():
    vals = tuple(Fraction(m.bit_count() ** 2) for m in range(8))
    report = predicates(SetFunctionTable.of(3, vals))
    assert report.monotone
    assert not report.submodular
    s, i, j = report.witnesses["submodular"]
    # witness really violates f(S+i) + f(S+j) >= f(S+i+j) + f(S)
    f = vals
    sm = mask_of(s)
    assert f[sm | mask_of([i])] + f[sm | mask_of([j])] < f[sm | mask_of([i, j])] + f[sm]


def test_predicates_coverage_example_almost_log_submodular():
    report = predicates(materialize(coverage_example().weights()))
    assert report.almost_log_submodular


def test_mobius_uniform_rank_examples():
    r12 = mobius_coverage_weights(to_setfunction(UniformMatroid(1, 2)))
    assert r12.weights == {0b11: Fraction(1)}
    assert r12.is_coverage

    r23 = mobius_coverage_weights(to_setfunction(UniformMatroid(2, 3)))
    assert r23.weights == {
        0b011: Fraction(1),
        0b101: Fraction(1),
        0b110: Fraction(1),
        0b111: Fraction(-1),
    }
    assert not r23.is_coverage
    assert r23.min_weight == -1


def test_mobius_brute_force_cross_check():
    # independently solve the linear system by enumerating it for U_{2,3}
    rk = to_setfunction(UniformMatroid(2, 3))
    mob = mobius_coverage_weights(rk)
    for s in range(8):
        total = sum(
            (v for t, v in mob.weights.items() if t & s), Fraction(0)
        )
        assert total == rk[s]


def test_mobius_linear_singletons():
    f = materialize(cardinality(3))
    mob = mobius_coverage_weights(f)
    assert mob.weights == {0b001: 1, 0b010: 1, 0b100: 1}
    assert mob.is_coverage


def test_level_sequence():
    assert level_sequence(materialize(coverage_example().weights())) == (0, 4, 6, 2)
    zero = SetFunctionTable.of(3, (Fraction(0),) * 8)
    assert level_sequence(zero) == (0, 0, 0, 0)
    ones = SetFunctionTable.of(3, tuple(Fraction(0 if m == 0 else 1) for m in range(8)))
    assert level_sequence(ones) == (0, 3, 3, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, 2**n - 1), st.integers(0, 5)),
                max_size=8,
            ),
        )
    )
)
def test_mobius_round_trip_is_identity(case):
    # materializing nonnegative weights and inverting recovers them exactly
    n, entries = case
    x = {}
    for mask, v in entries:
        x[mask] = x.get(mask, 0) + Fraction(v)
    w = CoverageWeights.of(n, x)
    mob = mobius_coverage_weights(materialize(w))
    assert mob.is_coverage
    assert mob.weights == {t: Fraction(v, w.scale) for t, v in w.x.items()}


def test_mobius_of_coverage_instances_is_nonnegative():
    rng = random.Random(11)
    for _ in range(50):
        inst = rand_coverage_instance(rng, rng.randint(1, 5))
        assert mobius_coverage_weights(materialize(inst.weights())).is_coverage


def test_monotone_submodular_tables_are_log_submodular():
    # rejection sampling at n=3 plus constructed families at larger n
    rng = random.Random(5)
    found = 0
    while found < 25:
        vals = [Fraction(0)] + [Fraction(rng.randint(0, 4)) for _ in range(7)]
        f = SetFunctionTable.of(3, vals)
        report = predicates(f)
        if report.monotone and report.submodular:
            found += 1
            assert report.log_submodular, f.nums
    for _ in range(25):
        inst = rand_coverage_instance(rng, rng.randint(1, 6))
        report = predicates(materialize(inst.weights()))
        assert report.monotone and report.submodular and report.log_submodular


def test_contract_commutes_with_derivative():
    # table-level contraction + degree slice vs polynomial-level derivative
    from clckit.polynomials import derive, generating_poly

    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 6)
        vals = [Fraction(0)] + [Fraction(rng.randint(0, 3)) for _ in range(2**n - 1)]
        f = SetFunctionTable.of(n, vals)
        tau = [i for i in range(1, n + 1) if rng.random() < 0.4]
        c = contract(f, tau)
        q = derive(generating_poly(f), tau)
        assert c.base == q.coeffs.get(0, Fraction(0))
        for d in range(1, n - len(tau) + 1):
            sliced = homogeneous_restrict(c.table, d)
            for mask, coeff in q.coeffs.items():
                if mask.bit_count() != d:
                    continue
                compact = mask_of(
                    c.elements.index(lab) + 1 for lab in labels_of(mask)
                )
                assert c.table[compact] == coeff
                assert sliced[compact] == coeff
