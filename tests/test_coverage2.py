import random
import re
from fractions import Fraction

import pytest

from clckit import (
    CoverageWeights,
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    SetFunctionTable,
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
    UniformMatroid,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    decide_2cov,
    independence_indicator,
    materialize,
    search_2cov_feasible,
    synth_2cov_indicator,
    synth_strong_from_parts,
    synth_strong_matroid,
    to_setfunction,
    verify_2cov,
    verify_strong2cov,
)
from clckit import coverage2
from clckit.bitsets import mask_of
from clckit.counterexamples import budget_additive_table, triangle_table
from clckit.errors import InputError, InternalCheckError, MissingWitnessError
from clckit.simplex import phase1

from conftest import (
    CoverageInstance,
    cardinality,
    coverage_example,
    coverage_num,
    dense_phase1,
    k4,
    predicates,
    rand_partition_matroid,
    value_of,
)


def test_verify_2cov_uniform_indicator():
    m = UniformMatroid(2, 3)
    cert = synth_2cov_indicator(m, 2)
    check = verify_2cov(independence_indicator(to_setfunction(m)), 2, cert)
    assert check.ok
    w = cert.witnesses[0]
    assert w.support == 0b111
    # three singleton classes, so g(pair) = 2 and l = 1 realizes f = 2 - 1
    assert Fraction(coverage_num(w.g, 0b011), w.g.scale) == 2
    assert w.ell == (1, 1, 1)


def test_verify_2cov_triangle_fails_any_cert():
    f = triangle_table()
    # a plausible-looking witness: unit weights on singletons, l = 0
    witness = TwoCoverageWitness(
        0b111,
        CoverageWeights(3, {0b001: 1, 0b010: 1, 0b100: 1}),
        (0,) * 3,
    )
    check = verify_2cov(f, 2, TwoCoverageCertificate(3, 2, {0: witness}))
    assert not check.ok
    assert "pair equation" in check.failure


def test_verify_2cov_zero_function_empty_cert():
    zero = SetFunctionTable.of(3, (Fraction(0),) * 8)
    check = verify_2cov(zero, 2, TwoCoverageCertificate(3, 2, {}))
    assert check.ok


def test_verify_2cov_missing_witness():
    f = independence_indicator(to_setfunction(UniformMatroid(2, 3)))
    with pytest.raises(MissingWitnessError):
        verify_2cov(f, 2, TwoCoverageCertificate(3, 2, {}))


def test_verify_2cov_rejects_support_padding():
    # a larger zero-extended S satisfies the equations literally, but the
    # verifier pins S to the elements seen in nonzero pairs
    m = UniformMatroid(2, 2)
    f = independence_indicator(to_setfunction(m))
    witness = TwoCoverageWitness(
        0b11,
        CoverageWeights.of(2, {0b01: Fraction(1), 0b10: Fraction(1)}),
        (1, 1),
    )
    assert verify_2cov(f, 2, TwoCoverageCertificate(2, 2, {0: witness})).ok
    zero = SetFunctionTable.of(2, (Fraction(0),) * 4)
    check = verify_2cov(zero, 2, TwoCoverageCertificate(2, 2, {0: witness}))
    assert not check.ok
    assert "support mismatch" in check.failure


def test_verify_2cov_rejects_witness_outside_support():
    # U(2,3) indicator plus a fourth element in no nonzero pair: S = {1,2,3}
    f = SetFunctionTable.from_entries(4, {pair: 1 for pair in ((1, 2), (1, 3), (2, 3))})
    units = {0b001: 1, 0b010: 1, 0b100: 1}
    ones = (1, 1, 1, 0)
    good = TwoCoverageWitness(0b0111, CoverageWeights(4, units), ones)
    assert verify_2cov(f, 2, TwoCoverageCertificate(4, 2, {0: good})).ok
    for g, ell in (
        ({**units, 0b1000: 1}, ones),  # g on {4}
        ({0b1001: 1, 0b010: 1, 0b100: 1}, ones),  # g on a set leaving S
        (units, (1,) * 4),  # l nonzero at 4
    ):
        bad = TwoCoverageWitness(0b0111, CoverageWeights(4, g), ell)
        with pytest.raises(ValueError, match=r"witness at tau=\(\) reaches outside S=\(1, 2, 3\)"):
            verify_2cov(f, 2, TwoCoverageCertificate(4, 2, {0: bad}))
    short = TwoCoverageWitness(0b0111, CoverageWeights(4, units), (1,) * 3)
    with pytest.raises(ValueError, match=r"witness at tau=\(\) has l over 3 elements, not n=4"):
        verify_2cov(f, 2, TwoCoverageCertificate(4, 2, {0: short}))


def test_verify_strong_rejects_witness_meeting_tau():
    m = UniformMatroid(2, 3)
    table = to_setfunction(m)
    cert = synth_strong_matroid(m)
    for bad in ({0b001: 1}, {0b011: 1}, {0b1000: 1}):
        witnesses = {**cert.witnesses, 0b001: CoverageWeights(4, bad)}
        with pytest.raises(ValueError, match=r"witness at tau=\(1,\) reaches outside the complement of tau"):
            verify_strong2cov(table, StrongCertificate(3, witnesses))


class _RankList(Matroid):
    """A rank oracle that reads its ranks off a list, checked by nothing."""

    def __init__(self, n, ranks):
        self.n, self.ranks = n, ranks

    def rank(self, s):
        return self.ranks[s]


def _corrupted(m, subset, value) -> Matroid:
    """m's rank oracle with the rank of one set of labels changed."""
    ranks = [m.rank(s) for s in range(1 << m.n)]
    ranks[mask_of(subset)] = value
    return _RankList(m.n, ranks)


@pytest.mark.parametrize(
    "r, n, subset, value, pair, tau",
    [
        (1, 3, (2, 3), 2, "{2,3}", ()),
        (1, 3, (1, 2), 0, "{1,2}", ()),
        (2, 4, (1, 2, 4), 3, "{3,4}", (1,)),
        (2, 4, (1, 2, 3), 1, "{2,3}", (1,)),
    ],
    ids=["transitivity", "nonloops-rank-0", "contracted-transitivity", "contracted-rank-drop"],
)
def test_synth_strong_matroid_rejects_corrupted_pair(r, n, subset, value, pair, tau):
    # U(r,n) with the rank of one set tau + pair changed; singletons keep
    # theirs. The classes are read off the corrupted table unchecked, and the
    # certificate's verification, the one check, fails: a library bug
    message = f"synthesized strong certificate failed verification: pair equation failed at {pair} at tau={tau}"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        synth_strong_matroid(_corrupted(UniformMatroid(r, n), subset, value))


def test_synth_2cov_indicator_rejects_corrupted_independence():
    # 1, 2 and 3 are parallel, but the corrupted oracle makes {2,3}
    # independent: the classes still join 2 and 3, so the certificate gives
    # the pair {2,3} the value 0 where the indicator reads 1
    m = _corrupted(PartitionMatroid([[1, 2, 3], [4]], [1, 1]), (2, 3), 2)
    message = (
        "synthesized indicator certificate failed verification: "
        "pair equation failed on {2,3}: f_tau=1, certificate gives 0 at tau=()"
    )
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        synth_2cov_indicator(m, 2)


def test_verify_2cov_refuses_stray_witness():
    # d=2 checks tau=() only; a witness at tau=[1] is not part of the
    # certificate, and is refused rather than passed over
    m = UniformMatroid(2, 3)
    f = independence_indicator(to_setfunction(m))
    cert = synth_2cov_indicator(m, 2)
    assert verify_2cov(f, 2, cert).ok
    stray = TwoCoverageWitness(0b110, CoverageWeights(3, {0b110: 1}), (0, 1, 1))
    with pytest.raises(InputError, match=re.escape("witness at tau=[1]: |tau| is not d-2=0")):
        verify_2cov(f, 2, TwoCoverageCertificate(3, 2, {**cert.witnesses, 0b001: stray}))


def test_verify_strong_refuses_stray_witness():
    # n=3 checks |tau| <= 1; a witness at tau=[1,2] is refused
    m = UniformMatroid(2, 3)
    table = to_setfunction(m)
    cert = synth_strong_matroid(m)
    assert verify_strong2cov(table, cert).ok
    witnesses = {**cert.witnesses, 0b011: CoverageWeights(3, {})}
    with pytest.raises(InputError, match=re.escape("witness at tau=[1, 2]: |tau| exceeds n-2=1")):
        verify_strong2cov(table, StrongCertificate(3, witnesses))


def test_synth_strong_uniform():
    cert = synth_strong_matroid(UniformMatroid(2, 3))
    # no parallel pairs at tau = (): three singleton classes
    assert cert.witnesses[0] == CoverageWeights(3, {0b001: 1, 0b010: 1, 0b100: 1})
    # after contracting 1, the rest collapses into one class
    assert cert.witnesses[0b001] == CoverageWeights(3, {0b110: 1})


def test_synth_strong_u13():
    cert = synth_strong_matroid(UniformMatroid(1, 3))
    assert cert.witnesses[0] == CoverageWeights(3, {0b111: 1})


def test_verify_strong_uniform_rank():
    m = UniformMatroid(2, 3)
    cert = synth_strong_matroid(m)
    assert verify_strong2cov(to_setfunction(m), cert).ok


def test_strong_cardinality_disjoint_singletons():
    n = 4
    f = materialize(cardinality(n))
    witnesses = {}
    from clckit.bitsets import masks_of_size

    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            witnesses[tmask] = CoverageWeights.of(
                n, {1 << b: Fraction(1) for b in range(n) if not tmask >> b & 1}
            )
    assert verify_strong2cov(f, StrongCertificate(n, witnesses)).ok


def test_budget_additive_not_strongly_2coverage():
    f = budget_additive_table()
    # wrong certificate (built for cardinality) fails outright
    lin_cert_wit = {}
    from clckit.bitsets import masks_of_size

    for size in range(f.n - 1):
        for tmask in masks_of_size(f.n, size):
            lin_cert_wit[tmask] = CoverageWeights.of(
                f.n, {1 << b: Fraction(1) for b in range(f.n) if not tmask >> b & 1}
            )
    check = verify_strong2cov(f, StrongCertificate(f.n, lin_cert_wit))
    assert not check.ok

    # and no certificate exists at all: already on E = {1, 2, 3, 7} the
    # required g values (singletons 1,1,1,2, all pairs 2) admit no
    # nonnegative weights; any full witness for tau = () would restrict to
    # one on E by aggregating weights, so infeasible here is infeasible there
    labels = [1, 2, 3, 7]
    singles = {i: value_of(f, [i]) for i in labels}
    pairs = {
        (a, b): value_of(f, [a, b])
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
    res = dense_phase1(rows, rhs)
    assert not res.feasible


def test_synth_2cov_k4_indicator_d3():
    m = k4()
    cert = synth_2cov_indicator(m, 3)
    assert verify_2cov(independence_indicator(to_setfunction(m)), 3, cert).ok
    # contracting e12 leaves parallel pairs {e13,e23} and {e14,e24}
    w = cert.witnesses[0b000001]
    assert w.support == 0b111110
    class_masks = sorted(w.g.x)
    assert len(class_masks) == 3


def test_synth_2cov_uniform_rank_d():
    # no parallel pairs in a uniform matroid: all classes are singletons
    m = UniformMatroid(3, 5)
    cert = synth_2cov_indicator(m, 3)
    for tau, w in cert.witnesses.items():
        assert all(t.bit_count() == 1 for t in w.g.x)


def test_synth_strong_from_coverage_instance():
    inst = coverage_example()
    cert = synth_strong_from_parts(inst.weights())
    # tau = {2}: A_1 and A_3 are swallowed by A_2, so g vanishes
    g = cert.witnesses[0b010]
    assert coverage_num(g, 0b001) == 0
    assert coverage_num(g, 0b100) == 0
    # tau = {}: x_{1,2} = x_{2,3} = 1 (elements a and b), read over [n]
    assert cert.witnesses[0] == CoverageWeights(3, {0b011: 1, 0b110: 1})
    assert verify_strong2cov(materialize(inst.weights()), cert).ok


def test_search_triangle_infeasible():
    res = search_2cov_feasible(triangle_table(), 2, 0)
    assert not res.feasible
    assert res.infeasibility > 0


def test_search_uniform_indicator_feasible():
    f = independence_indicator(to_setfunction(UniformMatroid(2, 3)))
    w = search_2cov_feasible(f, 2, 0).witness
    # the found witness satisfies the pair equations
    for pair in ((1, 2), (1, 3), (2, 3)):
        pm = mask_of(pair)
        certified = Fraction(2 * coverage_num(w.g, pm) - sum(w.ell[i - 1] for i in pair), 2 * w.g.scale)
        assert certified == value_of(f, pair)


def test_search_witness_lives_on_support_over_n():
    # U(2,3) indicator contracted by {4} inside a 5-element table: S = {1,2,3}
    f = SetFunctionTable.from_entries(5, {(a, b, 4): 1 for a, b in ((1, 2), (1, 3), (2, 3))})
    w = search_2cov_feasible(f, 3, 0b01000).witness
    assert w.support == 0b00111
    assert w.g.n == len(w.ell) == 5
    assert all(t & ~0b00111 == 0 for t in w.g.x)
    assert w.ell[3:] == (0, 0)
    witnesses = {tau: search_2cov_feasible(f, 3, tau).witness for tau in (1, 2, 4, 8, 16)}
    assert verify_2cov(f, 3, TwoCoverageCertificate(5, 3, witnesses)).ok


def test_search_lp_shape_and_pivots_pinned(monkeypatch):
    # (rows, columns, Bland pivots) of each search LP: the x columns are the
    # nonempty subsets of S in ascending mask order, and another column
    # order moves the pivots
    lps = []

    def spy(columns, b):
        result = phase1(columns, b)
        lps.append((len(b), len(columns), result.pivots))
        return result

    monkeypatch.setattr(coverage2, "phase1", spy)
    cov = materialize(CoverageInstance.build(
        [("a", 1), ("b", 2), ("c", 1)], [["a"], ["a", "b"], ["b", "c"], ["c"], ["a", "c"]]
    ).weights())
    for f, d, tau in (
        (independence_indicator(to_setfunction(UniformMatroid(2, 7))), 2, 0),
        (independence_indicator(to_setfunction(UniformMatroid(3, 7))), 3, 0b00010),
        (triangle_table(), 2, 0),
        (cov, 2, 0),
        (cov, 3, 0b10000),
    ):
        coverage2.search_2cov_feasible(f, d, tau)
    assert lps == [(28, 141, 59), (21, 75, 42), (6, 13, 6), (15, 41, 22), (10, 23, 13)]


def test_search_zero_trivially_feasible():
    zero = SetFunctionTable.of(4, (Fraction(0),) * 16)
    res = search_2cov_feasible(zero, 2, 0)
    assert res.feasible
    assert res.witness == TwoCoverageWitness(0, CoverageWeights(4, {}), (0, 0, 0, 0))


def test_decide_2cov():
    assert decide_2cov(independence_indicator(to_setfunction(UniformMatroid(2, 4))), 2).two_coverage
    tri = decide_2cov(triangle_table(), 2)
    assert (tri.two_coverage, tri.reason, tri.tau) == (False, "infeasible", ())
    assert tri.infeasibility > 0
    split = SetFunctionTable.from_entries(4, {(1, 2): 1, (3, 4): 1})
    res = decide_2cov(split, 2)
    assert (res.two_coverage, res.reason, res.tau) == (False, "decomposable", ())
    for d, message in ((1, "d >= 2"), (0, "d >= 2"), (5, "out of range")):
        with pytest.raises(ValueError, match=message):
            decide_2cov(split, d)


def test_decide_2cov_verifies_the_witnesses_found(monkeypatch):
    # a search whose witness is off by one in a g weight must not certify
    search = coverage2.search_2cov_feasible

    def off_by_one(f, d, tau, cap=10):
        w = search(f, d, tau, cap).witness
        g = {t: Fraction(v, w.g.scale) for t, v in w.g.x.items()}
        g[next(iter(g))] += 1
        ell = [Fraction(v, w.g.scale) for v in w.ell]
        return coverage2.SearchResult(TwoCoverageWitness.of(w.support, f.n, g, ell), Fraction(0))

    f = independence_indicator(to_setfunction(UniformMatroid(2, 4)))
    assert decide_2cov(f, 2).two_coverage
    monkeypatch.setattr(coverage2, "search_2cov_feasible", off_by_one)
    with pytest.raises(InternalCheckError, match="pair equation failed"):
        decide_2cov(f, 2)


def test_search_support_cap():
    from clckit.errors import CapExceededError

    f = materialize(cardinality(12))
    with pytest.raises(CapExceededError):
        search_2cov_feasible(f, 2, 0)
    small = materialize(cardinality(4))
    with pytest.raises(CapExceededError):
        search_2cov_feasible(small, 2, 0, cap=3)
    assert search_2cov_feasible(small, 2, 0).feasible


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
        ind = independence_indicator(to_setfunction(m))
        for d in range(2, m.rank((1 << m.n) - 1) + 1):
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
        for d in range(2, table.n + 1):  # every rank is nonzero on the full set
            for tmask in masks_of_size(table.n, d - 2):
                res = search_2cov_feasible(table, d, tmask)
                assert res.feasible, (m, d, labels_of(tmask))
