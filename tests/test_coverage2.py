import random
from fractions import Fraction

import pytest

from clckit import (
    CoverageInstance,
    CoverageWeights,
    GraphicMatroid,
    LinearFunction,
    SetFunctionTable,
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
    UniformMatroid,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    combine,
    decide_2cov,
    materialize,
    predicates,
    search_2cov_feasible,
    synth_2cov_indicator,
    synth_strong_from_parts,
    synth_strong_matroid,
    to_setfunction,
    verify_2cov,
    verify_strong2cov,
)
from clckit.counterexamples import budget_additive_function, triangle_table
from clckit.errors import MissingWitnessError
from clckit.simplex import phase1

from conftest import coverage_example, k4, rand_coverage_instance, rand_partition_matroid


def test_verify_2cov_uniform_indicator():
    m = UniformMatroid(2, 3)
    cert = synth_2cov_indicator(m, 2)
    check = verify_2cov(to_setfunction(m, "indicator"), 2, cert)
    assert check.ok
    w = cert.witnesses[()]
    assert w.support == (1, 2, 3)
    # three singleton classes, so g(pair) = 2 and l = 1 realizes f = 2 - 1
    assert w.g.value(0b011) == 2
    assert w.ell.ell == (1, 1, 1)


def test_verify_2cov_triangle_fails_any_cert():
    f = triangle_table()
    # a plausible-looking witness: unit weights on singletons, l = 0
    witness = TwoCoverageWitness(
        (1, 2, 3),
        CoverageWeights(3, {0b001: 1, 0b010: 1, 0b100: 1}),
        LinearFunction(3, (0, 0, 0)),
    )
    check = verify_2cov(f, 2, TwoCoverageCertificate(3, 2, {(): witness}))
    assert not check.ok
    assert "pair equation" in check.failure


def test_verify_2cov_zero_function_empty_cert():
    zero = SetFunctionTable(3, (Fraction(0),) * 8)
    check = verify_2cov(zero, 2, TwoCoverageCertificate(3, 2, {}))
    assert check.ok


def test_verify_2cov_missing_witness():
    f = to_setfunction(UniformMatroid(2, 3), "indicator")
    with pytest.raises(MissingWitnessError):
        verify_2cov(f, 2, TwoCoverageCertificate(3, 2, {}))


def test_verify_2cov_rejects_support_padding():
    # a larger zero-extended S satisfies the equations literally, but the
    # verifier pins S to the elements seen in nonzero pairs
    m = UniformMatroid(2, 2)
    f = to_setfunction(m, "indicator")
    witness = TwoCoverageWitness(
        (1, 2),
        CoverageWeights(2, {0b01: Fraction(1), 0b10: Fraction(1)}),
        LinearFunction(2, (1, 1)),
    )
    assert verify_2cov(f, 2, TwoCoverageCertificate(2, 2, {(): witness})).ok
    zero = SetFunctionTable(2, (Fraction(0),) * 4)
    check = verify_2cov(zero, 2, TwoCoverageCertificate(2, 2, {(): witness}))
    assert not check.ok
    assert "support mismatch" in check.failure


def test_synth_strong_uniform():
    cert = synth_strong_matroid(UniformMatroid(2, 3))
    # no parallel pairs at tau = (): three singleton classes
    assert cert.witnesses[()].x == {0b001: 1, 0b010: 1, 0b100: 1}
    # after contracting 1, the rest collapses into one class
    assert cert.witnesses[(1,)].x == {0b11: 1}


def test_synth_strong_u13():
    cert = synth_strong_matroid(UniformMatroid(1, 3))
    assert cert.witnesses[()].x == {0b111: 1}


def test_verify_strong_uniform_rank():
    m = UniformMatroid(2, 3)
    cert = synth_strong_matroid(m)
    assert verify_strong2cov(to_setfunction(m), cert).ok


def test_strong_cardinality_disjoint_singletons():
    n = 4
    f = materialize(LinearFunction(n, (Fraction(1),) * n))
    witnesses = {}
    from clckit.bitsets import labels_of, masks_of_size

    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            m = n - size
            witnesses[labels_of(tmask)] = CoverageWeights(
                m, {1 << i: Fraction(1) for i in range(m)}
            )
    assert verify_strong2cov(f, StrongCertificate(n, witnesses)).ok


def test_budget_additive_not_strongly_2coverage():
    f = materialize(budget_additive_function())
    # wrong certificate (built for cardinality) fails outright
    lin_cert_wit = {}
    from clckit.bitsets import labels_of, masks_of_size

    for size in range(f.n - 1):
        for tmask in masks_of_size(f.n, size):
            m = f.n - size
            lin_cert_wit[labels_of(tmask)] = CoverageWeights(
                m, {1 << i: Fraction(1) for i in range(m)}
            )
    check = verify_strong2cov(f, StrongCertificate(f.n, lin_cert_wit))
    assert not check.ok

    # and no certificate exists at all: already on E = {1, 2, 3, 7} the
    # required g values (singletons 1,1,1,2, all pairs 2) admit no
    # nonnegative weights; any full witness for tau = () would restrict to
    # one on E by aggregating weights, so infeasible here is infeasible there
    labels = [1, 2, 3, 7]
    singles = {i: f.value_of([i]) for i in labels}
    pairs = {
        (a, b): f.value_of([a, b])
        for ai, a in enumerate(labels)
        for b in labels[ai + 1:]
    }
    m = len(labels)
    rows, rhs = [], []
    for idx, lab in enumerate(labels):
        row = [Fraction(0)] * ((1 << m) - 1)
        for t in range(1, 1 << m):
            if t >> idx & 1:
                row[t - 1] = Fraction(1)
        rows.append(row)
        rhs.append(singles[lab])
    for (a, b), val in pairs.items():
        ia, ib = labels.index(a), labels.index(b)
        row = [Fraction(0)] * ((1 << m) - 1)
        for t in range(1, 1 << m):
            if t & ((1 << ia) | (1 << ib)):
                row[t - 1] = Fraction(1)
        rows.append(row)
        rhs.append(val)
    res = phase1(rows, rhs)
    assert not res.feasible


def test_synth_2cov_k4_indicator_d3():
    m = k4()
    cert = synth_2cov_indicator(m, 3)
    assert verify_2cov(to_setfunction(m, "indicator"), 3, cert).ok
    # contracting e12 leaves parallel pairs {e13,e23} and {e14,e24}
    w = cert.witnesses[(1,)]
    assert w.support == (2, 3, 4, 5, 6)
    class_masks = sorted(w.g.x)
    assert len(class_masks) == 3


def test_synth_2cov_uniform_rank_d():
    # no parallel pairs in a uniform matroid: all classes are singletons
    m = UniformMatroid(3, 5)
    cert = synth_2cov_indicator(m, 3)
    for tau, w in cert.witnesses.items():
        assert all(t.bit_count() == 1 for t in w.g.x)


def test_synth_strong_from_parts_sum():
    m = UniformMatroid(1, 2)
    cert = synth_strong_matroid(m)
    table = to_setfunction(m)
    doubled = synth_strong_from_parts(
        [(cert, 1), (cert, 1)], table=combine([table, table], [1, 1])
    )
    assert doubled.witnesses[()].x == {
        t: 2 * v for t, v in cert.witnesses[()].x.items()
    }
    zeroed = synth_strong_from_parts([(cert, 0)])
    assert all(not g.x for g in zeroed.witnesses.values())


def test_synth_strong_from_coverage_instance():
    inst = coverage_example()
    cert = synth_strong_from_parts(inst)
    # tau = {2}: A_1 and A_3 are swallowed by A_2, so g vanishes
    g = cert.witnesses[(2,)]
    assert g.value(0b01) == 0
    assert g.value(0b10) == 0
    assert verify_strong2cov(materialize(inst), cert).ok


def test_search_triangle_infeasible():
    res = search_2cov_feasible(triangle_table(), 2, ())
    assert not res.feasible
    assert res.infeasibility > 0


def test_search_uniform_indicator_feasible():
    f = to_setfunction(UniformMatroid(2, 3), "indicator")
    res = search_2cov_feasible(f, 2, ())
    assert res.feasible
    # the found witness satisfies the pair equations
    spos = {lab: i for i, lab in enumerate(res.support)}
    for pair in ((1, 2), (1, 3), (2, 3)):
        gm = (1 << spos[pair[0]]) | (1 << spos[pair[1]])
        got = res.g.value(gm) - (res.ell.ell[spos[pair[0]]] + res.ell.ell[spos[pair[1]]]) / 2
        assert got == f.value_of(pair)


def test_search_zero_trivially_feasible():
    zero = SetFunctionTable(4, (Fraction(0),) * 16)
    res = search_2cov_feasible(zero, 2, ())
    assert res.feasible
    assert res.support == ()


def test_decide_2cov():
    assert decide_2cov(to_setfunction(UniformMatroid(2, 4), "indicator"), 2).two_coverage
    tri = decide_2cov(triangle_table(), 2)
    assert (tri.two_coverage, tri.reason, tri.tau) == (False, "infeasible", ())
    assert tri.infeasibility > 0
    split = SetFunctionTable.from_entries(4, {(1, 2): 1, (3, 4): 1})
    res = decide_2cov(split, 2)
    assert (res.two_coverage, res.reason, res.tau) == (False, "decomposable", ())
    for d, message in ((1, "d >= 2"), (0, "d >= 2"), (5, "out of range")):
        with pytest.raises(ValueError, match=message):
            decide_2cov(split, d)


def test_search_support_cap():
    from clckit.errors import CapExceededError

    f = materialize(LinearFunction(12, (Fraction(1),) * 12))
    with pytest.raises(CapExceededError):
        search_2cov_feasible(f, 2, ())
    small = materialize(LinearFunction(4, (Fraction(1),) * 4))
    with pytest.raises(CapExceededError):
        search_2cov_feasible(small, 2, (), cap=3)
    assert search_2cov_feasible(small, 2, ()).feasible


def test_matroid_end_to_end_strong_then_homogenization():
    rng = random.Random(41)
    fixtures = [
        UniformMatroid(2, 3),
        UniformMatroid(1, 4),
        k4(),
        GraphicMatroid(3, [(1, 1), (1, 2), (1, 2), (2, 3)]),
        rand_partition_matroid(rng, 6),
    ]
    for m in fixtures:
        table = to_setfunction(m)
        cert = synth_strong_matroid(m)
        assert verify_strong2cov(table, cert).ok
        if table.n <= 8:
            assert certify_clc_homogenization(table, cap=8).verdict in (
                "certified",
                "vacuous",
            )


def test_matroid_end_to_end_indicator_then_homogeneous():
    rng = random.Random(43)
    fixtures = [UniformMatroid(2, 3), UniformMatroid(3, 5), k4(), rand_partition_matroid(rng, 6)]
    for m in fixtures:
        ind = to_setfunction(m, "indicator")
        for d in range(2, m.full_rank() + 1):
            cert = synth_2cov_indicator(m, d)
            assert verify_2cov(ind, d, cert).ok
            assert certify_clc_homogeneous(ind, d).verdict == "certified"


def test_synthesized_strong_functions_are_monotone_submodular():
    rng = random.Random(47)
    fixtures = [
        UniformMatroid(2, 4),
        k4(),
        rand_partition_matroid(rng, 5),
    ]
    for m in fixtures:
        synth_strong_matroid(m)  # raises if its own verification fails
        report = predicates(to_setfunction(m))
        assert report.monotone and report.submodular


def test_strong_implies_2cov_feasible():
    rng = random.Random(53)
    fixtures = [
        UniformMatroid(2, 4),
        GraphicMatroid(4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
        rand_partition_matroid(rng, 5),
    ]
    from clckit.bitsets import labels_of, masks_of_size

    for m in fixtures:
        table = to_setfunction(m)
        synth_strong_matroid(m)
        for d in range(2, table.degree() + 1):
            for tmask in masks_of_size(table.n, d - 2):
                res = search_2cov_feasible(table, d, labels_of(tmask))
                assert res.feasible, (m, d, labels_of(tmask))
