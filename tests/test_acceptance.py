"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from clckit import (
    CertificationReport,
    CoverageWeights,
    SetFunctionTable,
    UniformMatroid,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    independence_indicator,
    inertia,
    level_sequence,
    materialize,
    mixing_time_exact,
    mobius_coverage_weights,
    quadratic_hessian,
    search_2cov_feasible,
    synth_2cov_indicator,
    synth_strong_from_parts,
    synth_strong_matroid,
    to_setfunction,
    transition_matrix,
    ulc_check,
    verify_2cov,
    verify_strong2cov,
    walk_instance,
)
from clckit.bitsets import labels_of, submasks
from clckit.cli import run
from clckit.counterexamples import (
    _monotone_witness,
    _submodular_witness,
    budget_additive_table,
    triangle_quadratic,
    triangle_table,
)
from clckit.entropy import JointDistribution, entropy_decomposition
from clckit.setfn import homogeneous_restrict

from conftest import (
    budget_additive_eleven,
    congruence,
    contract,
    dump_set_function,
    is_irreducible,
    k4,
    mainpsd_witness,
    predicates,
    rand_coverage_instance,
    rand_invertible,
    rand_partition_matroid,
    rand_symmetric,
    validate_explicit,
)


@contextmanager
def criterion(number, description, limit_seconds):
    start = perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = perf_counter() - start
    ok = elapsed < limit_seconds
    print(
        f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL (over budget)'}: "
        f"{description} [{elapsed:.2f}s / {limit_seconds}s]"
    )
    assert ok, f"criterion {number} took {elapsed:.2f}s (budget {limit_seconds}s)"


def _matroid_fixtures():
    rng = random.Random(2024)
    return [
        UniformMatroid(2, 3),
        UniformMatroid(3, 5),
        k4(),
        rand_partition_matroid(rng, 7),
        rand_partition_matroid(rng, 8),
    ]


def test_criterion_1_budget_additive_counterexample(tmp_path, capsys):
    with criterion(1, "budget-additive degree-2 restriction refuted (n_pos = 2)", 1.0):
        f = budget_additive_table()
        report = certify_clc_homogeneous(f, 2)
        assert report.verdict == "refuted"
        assert report.failure.n_pos == 2
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(dump_set_function(f)))
        code = run(["certify-clc", "--input", str(path), "--d", "2", "--format", "json"])
        capsys.readouterr()
        assert code == 1


def test_budget_additive_counterexample_on_eleven_elements():
    # one element fewer than counterexample A, with the same verdict;
    # f^(3), f^(4), f^(5) certify
    f = budget_additive_eleven()
    assert _monotone_witness(f.n, f.nums) is None
    assert _submodular_witness(f.n, f.nums) is None
    report = certify_clc_homogeneous(f, 2)
    assert (report.verdict, report.checks) == ("refuted", 2)
    assert (report.failure.reason, report.failure.n_pos, report.failure.tau) == ("inertia", 2, ())
    for d, checks in ((3, 23), (4, 122), (5, 397)):
        assert certify_clc_homogeneous(f, d) == CertificationReport("certified", checks)


def test_criterion_2_triangle_counterexample():
    with criterion(2, "triangle quadratic: inertia (1,0,2), no 2-coverage witness", 1.0):
        p = triangle_quadratic()
        assert inertia(quadratic_hessian(p)).as_tuple() == (1, 0, 2)
        result = search_2cov_feasible(triangle_table(), 2, 0)
        assert not result.feasible
        assert result.infeasibility > 0  # certified by the phase-1 optimum


def test_criterion_3_indicator_certificates_end_to_end():
    with criterion(3, "indicator 2-coverage certificates and certified restrictions", 10.0):
        for m in _matroid_fixtures():
            ind = independence_indicator(to_setfunction(m))
            for d in range(2, m.rank((1 << m.n) - 1) + 1):
                cert = synth_2cov_indicator(m, d)
                assert verify_2cov(ind, d, cert).ok
                assert certify_clc_homogeneous(ind, d).verdict == "certified"


def test_criterion_4_homogenization_end_to_end():
    with criterion(4, "strong certificates, certified homogenizations, ULC levels", 60.0):
        rng = random.Random(77)
        tables = []
        for m in _matroid_fixtures():
            table = to_setfunction(m)
            cert = synth_strong_matroid(m)
            assert verify_strong2cov(table, cert).ok
            tables.append(table)
        drawn = 0
        while drawn < 20:
            inst = rand_coverage_instance(rng, rng.randint(2, 6))
            table = materialize(inst.weights())
            if not any(table.nums):
                continue
            drawn += 1
            cert = synth_strong_from_parts(inst.weights())
            assert verify_strong2cov(table, cert).ok
            tables.append(table)
        for table in tables:
            assert certify_clc_homogenization(table).verdict == "certified"
            assert ulc_check(level_sequence(table)).holds


def test_criterion_5_mainpsd_witness():
    with criterion(5, "PSD witness identity R = sum x_T B_T + D on random instances", 10.0):
        rng = random.Random(55)
        for _ in range(50):
            inst = rand_coverage_instance(rng, rng.randint(1, 8))
            witness = mainpsd_witness(inst)  # raises unless the identity holds exactly
            assert witness.r_minus_d_inertia.n_neg == 0


def test_criterion_6_mobius_round_trip():
    with criterion(6, "Moebius weights round-trip exactly; U_{2,3} rank is not coverage", 5.0):
        rng = random.Random(66)
        for _ in range(100):
            n = rng.randint(1, 8)
            x = {}
            for _ in range(rng.randint(0, 12)):
                mask = rng.randint(1, (1 << n) - 1)
                x[mask] = x.get(mask, Fraction(0)) + Fraction(rng.randint(0, 6), rng.randint(1, 3))
            w = CoverageWeights.of(n, x)
            mob = mobius_coverage_weights(materialize(w))
            assert mob.weights == {t: Fraction(v, w.scale) for t, v in w.x.items()}
            assert mob.is_coverage
        r23 = mobius_coverage_weights(to_setfunction(UniformMatroid(2, 3)))
        assert r23.weights[0b111] == -1
        assert not r23.is_coverage


def test_criterion_7_entropy_identity():
    with criterion(7, "entropy decomposition identity within 1e-9; XOR weight -1 flagged", 30.0):
        rng = random.Random(88)
        import itertools as it

        for _ in range(200):
            n = rng.randint(1, 4)
            k = rng.randint(2, 3)
            outcomes = list(it.product(*(range(k) for _ in range(n))))
            raw = [rng.random() for _ in outcomes]
            total = sum(raw)
            joint = JointDistribution(
                (k,) * n, dict(zip(outcomes, (r / total for r in raw)))
            )
            dec = entropy_decomposition(joint)
            assert dec.max_identity_residual <= 1e-9
        xor = JointDistribution(
            (2, 2, 2),
            {(a, b, a ^ b): 0.25 for a, b in it.product((0, 1), repeat=2)},
        )
        dec = entropy_decomposition(xor)
        assert abs(dec.weights[0b111] + 1.0) <= 1e-9
        assert dec.has_negative_weight


def _certified_walk_instances():
    """Walk instances whose underlying restrictions were certified."""
    rng = random.Random(99)
    cases = []
    fixtures = [
        (UniformMatroid(2, 4), "indicator", 2),
        (UniformMatroid(2, 5), "indicator", 2),
        (UniformMatroid(3, 6), "indicator", 3),
        (UniformMatroid(2, 6), "rank", 2),
        (k4(), "indicator", 2),
        (k4(), "indicator", 3),
        (k4(), "rank", 2),
        (UniformMatroid(3, 7), "indicator", 2),
        (rand_partition_matroid(rng, 6), "rank", 2),
        (UniformMatroid(4, 7), "indicator", 4),
    ]
    for m, mode, d in fixtures:
        table = to_setfunction(m)
        table = independence_indicator(table) if mode == "indicator" else table
        assert certify_clc_homogeneous(table, d).verdict == "certified"
        cases.append(walk_instance(homogeneous_restrict(table, d), d))
    return cases


def test_criterion_8_walk_diagnostics():
    with criterion(8, "exact balance, exact t_mix on the 3-state chain, ratios", 30.0):
        instances = _certified_walk_instances()
        for w in instances:
            transition_matrix(w)  # verifies detailed balance entrywise
            assert is_irreducible(w)
        pairs = walk_instance(
            SetFunctionTable.from_entries(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}), 2
        )
        res = mixing_time_exact(pairs, Fraction(1, 100))
        # hand analysis: non-unit eigenvalue 1/4, TV from a point mass is
        # (2/3)(1/4)^t; at t = 3 that is 1/96 > 1/100, so t_mix is 4
        assert res.t_mix in (3, 4)
        assert res.t_mix == 4
        assert res.tv_curve[3] == Fraction(1, 96)
        assert all(a >= b for a, b in zip(res.tv_curve, res.tv_curve[1:]))
        ratios = []
        for w in instances:
            mix = mixing_time_exact(w, Fraction(1, 10))
            assert mix.converged
            assert all(
                float(a) >= float(b) - 1e-12
                for a, b in zip(mix.tv_curve, mix.tv_curve[1:])
            )
            ratios.append(mix.ratio)
        assert len(ratios) == 10
        print(f"  mixing ratios t_mix/(d ln(d/eps)): {[round(r, 3) for r in ratios]}")


def test_criterion_9_property_suites():
    with criterion(9, "congruence invariance, derivative closure, basis exchange, strong=>monotone+submodular", 60.0):
        rng = random.Random(111)
        # inertia is congruence-invariant: 500 random invertible transforms
        for _ in range(500):
            m = rng.randint(1, 8)
            h = rand_symmetric(rng, m)
            p = rand_invertible(rng, m)
            assert inertia(congruence(p, h)).as_tuple() == inertia(h).as_tuple()

        # derivative closure of certification
        closure_cases = [
            (to_setfunction(UniformMatroid(3, 5)), 3),
            (to_setfunction(k4()), 2),
            (independence_indicator(to_setfunction(k4())), 3),
            (to_setfunction(rand_partition_matroid(rng, 6)), 2),
        ]
        for f, d in closure_cases:
            assert certify_clc_homogeneous(f, d).verdict == "certified"
            for i in range(1, f.n + 1):
                sliced = homogeneous_restrict(contract(f, [i]).table, d - 1)
                if not any(sliced.nums) or d - 1 < 2:
                    continue
                assert certify_clc_homogeneous(sliced, d - 1).verdict == "certified"

        # supports of certified restrictions satisfy basis exchange
        exchange_cases = [
            (to_setfunction(UniformMatroid(3, 5)), 3),
            (independence_indicator(to_setfunction(k4())), 3),
            (independence_indicator(to_setfunction(UniformMatroid(2, 6))), 2),
            (to_setfunction(rand_partition_matroid(rng, 7)), 2),
        ]
        for f, d in exchange_cases:
            assert certify_clc_homogeneous(f, d).verdict == "certified"
            closure = set()
            for s in f.support(size=d):
                for sub in submasks(s):
                    closure.add(labels_of(sub))
            assert validate_explicit(f.n, closure) is None

        # every synthesized strong certificate's function is monotone + submodular
        for m in _matroid_fixtures():
            synth_strong_matroid(m)
            report = predicates(to_setfunction(m))
            assert report.monotone and report.submodular
