import ast
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from clckit import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    independence_indicator,
    parallel_partition,
    to_setfunction,
)
from clckit.bitsets import labels_of, mask_of, masks_of_size
from clckit.errors import InputError, NotAMatroidError

from conftest import (
    contracted_classes,
    k4,
    matroids,
    predicates,
    rand_partition_matroid,
    validate_explicit,
    validate_explicit_oracle,
    value_of,
)


def test_graphic_k4_triangle_rank():
    m = k4()  # edges 1..6 = 12,13,14,23,24,34
    assert m.rank(mask_of([1, 2, 4])) == 2  # triangle {e12, e13, e23}
    assert m.rank((1 << m.n) - 1) == 3


def test_uniform_rank():
    assert UniformMatroid(2, 4).rank(mask_of([1, 2, 3])) == 2


def test_explicit_contracted_rank():
    # rk({1,2,3}) - rk({1}) = 1: after contracting 1, elements 2 and 3 are parallel
    bases = [[1, 2], [1, 3], [2, 3]]
    family = [[]] + [[i] for i in (1, 2, 3)] + bases
    assert parallel_partition(to_setfunction(ExplicitMatroid(3, family)), 0b001) == (0b110,)


def test_contract_by_empty_is_identity():
    rk = to_setfunction(UniformMatroid(2, 3))
    assert parallel_partition(rk, 0) == parallel_partition(rk)
    assert parallel_partition(rk) == (0b001, 0b010, 0b100)


def test_contract_uniform_pairs():
    # every element of U(2,3) / {1} has rank 1, and every pair too
    assert parallel_partition(to_setfunction(UniformMatroid(2, 3)), 0b001) == (0b110,)


def test_contract_k4_parallel_edges():
    # contracting e12 makes e13 (edge 2) and e23 (edge 4) parallel
    classes = parallel_partition(to_setfunction(k4()), 0b000001)
    assert classes == (mask_of([2, 4]), mask_of([3, 5]), mask_of([6]))  # e13 with e23, e14 with e24


def test_parallel_partition_u13():
    assert parallel_partition(to_setfunction(UniformMatroid(1, 3))) == (0b111,)


def test_parallel_partition_self_loop():
    m = GraphicMatroid(2, [(1, 1), (1, 2)])
    assert parallel_partition(to_setfunction(m)) == (0b10,)  # the loop, edge 1, is in no class


def test_parallel_partition_contracted_uniform():
    # contracting a basis of U(2,3) turns every other element into a loop
    assert parallel_partition(to_setfunction(UniformMatroid(2, 3)), 0b011) == ()


def test_to_setfunction_uniform():
    rk = to_setfunction(UniformMatroid(2, 3))
    assert [rk[m] for m in range(1, 8)] == [1, 1, 2, 1, 2, 2, 2]
    ind = independence_indicator(to_setfunction(UniformMatroid(2, 3)))
    assert ind[0] == 0  # the empty set stores 0 by convention
    assert [value_of(ind, p) for p in ([1, 2], [1, 3], [2, 3])] == [1, 1, 1]
    assert value_of(ind, [1, 2, 3]) == 0


@settings(max_examples=100, deadline=None)
@given(m=matroids())
def test_rank_table_matches_rank_of_labels(m):
    table = to_setfunction(m)
    assert (table.n, table.scale) == (len(m.elements), 1)
    assert all(
        value_of(table, labels) == m.rank(mask_of(labels))
        for k in range(table.n + 1)
        for labels in combinations(m.elements, k)
    )


def test_to_setfunction_k4_triangle_dependent():
    ind = independence_indicator(to_setfunction(k4()))
    assert value_of(ind, [1, 2, 4]) == 0  # triangle
    assert value_of(ind, [1, 2, 3]) == 1  # star at vertex 1 is a tree


def test_validate_explicit():
    assert validate_explicit(2, [[], [1], [2]]) is None
    bad = validate_explicit(2, [[], [1], [1, 2]])
    assert bad.startswith("not-downward-closed: ")
    # the missing subset drops the highest element
    bad = validate_explicit(2, [[], [2], [1, 2]])
    assert bad == "not-downward-closed: witness ((1, 2), (1,))"
    # bases of U_{2,3} with downward closure added
    family = [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]]
    assert validate_explicit(3, family) is None
    with pytest.raises(NotAMatroidError):
        ExplicitMatroid(2, [[], [1], [1, 2]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GraphicMatroid(2, [(1, 2), (1.9, 2)]), "edges[1]: edge [1.9, 2] has an endpoint that is not an integer"),
        (lambda: GraphicMatroid(2, [(True, 2)]), "edges[0]: edge [True, 2] has an endpoint that is not an integer"),
        (lambda: GraphicMatroid(2.0, [(1, 2)]), "num_vertices: expected a nonnegative integer, found 2.0"),
        (lambda: PartitionMatroid([[1], [2]], [1.5, 1]), "caps[0]: expected a nonnegative integer, found 1.5"),
        (lambda: PartitionMatroid([[1], [2]], [1, True]), "caps[1]: expected a nonnegative integer, found True"),
        (lambda: PartitionMatroid([[1], [2]], [1, -1]), "caps[1]: expected a nonnegative integer, found -1"),
        (lambda: UniformMatroid(True, 2), "r: expected a nonnegative integer, found True"),
        (lambda: UniformMatroid(1, 2.0), "n: expected a nonnegative integer, found 2.0"),
        # every range before any length, as the file loader reports them
        (lambda: GraphicMatroid(2, [(1, 2, 2), (1, 3)]), "edges[1]: edge [1, 3] references an unknown vertex"),
        (lambda: GraphicMatroid(2, [(1, 2, 2), (1, 2)]), "edges[0]: an edge joins 2 vertices, found 3"),
    ],
    ids=["graphic-float-end", "graphic-bool-end", "graphic-float-vertices", "partition-float-cap",
         "partition-bool-cap", "partition-negative-cap", "uniform-bool-rank", "uniform-float-size",
         "graphic-range-first", "graphic-length"],
)
def test_constructors_refuse_what_they_would_truncate(build, message):
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("label", [3, 0, -1])
def test_validate_explicit_out_of_range_labels(label):
    # labels n + 1, 0 and negatives have no bit in a mask over [n]
    assert validate_explicit(2, [[], [1], [label]]) == f"out-of-range: witness (({label},),)"
    with pytest.raises(NotAMatroidError, match="out-of-range"):
        ExplicitMatroid(2, [[], [1], [label]])


def test_validate_explicit_exchange_failure():
    # {1,2} and {3} independent but neither {1,3} nor {2,3}: exchange fails
    res = validate_explicit(3, [[], [1], [2], [3], [1, 2]])
    assert res == "exchange-failure: witness ((3,), (1, 2))"


def _violation(text):
    """(kind, witness) of a violation text "kind: witness ...", or
    (None, None)."""
    if text is None:
        return None, None
    kind, _, witness = text.partition(": witness ")
    return kind, ast.literal_eval(witness)


def _rand_family(rng):
    """A random family on [n], n <= 5: arbitrary, or closed under subsets
    (so only the exchange axiom can fail), sometimes with a label n + 1 or 0."""
    n = rng.randint(0, 5)
    top = n + (rng.random() < 0.1)
    low = 0 if rng.random() < 0.05 else 1
    family = {frozenset(s) for _ in range(rng.randint(0, 6) if rng.random() < 0.1 else rng.randint(2, 6))
              for s in [rng.sample(range(low, top + 1), rng.randint(0, top + 1 - low))]}
    if rng.random() < 0.7:
        family = {frozenset(c) for s in family for k in range(len(s) + 1) for c in combinations(s, k)}
    return n, [sorted(s) for s in family]


def test_validate_explicit_matches_pairwise_exchange_oracle():
    rng = random.Random(13)
    kinds = set()
    for _ in range(400):
        n, family = _rand_family(rng)
        got, want = validate_explicit(n, family), validate_explicit_oracle(n, family)
        kind, witness = _violation(got)
        assert kind == _violation(want)[0], (n, family)
        kinds.add(kind)
        if kind == "exchange-failure":
            # the witness is a genuine augmentation failure
            listed = {frozenset(s) for s in family}
            a, b = map(frozenset, witness)
            assert a in listed and b in listed and len(a) < len(b)
            assert not any(a | {x} in listed for x in b - a)
        else:
            assert got == want
    assert kinds == {None, "empty", "out-of-range", "not-downward-closed", "exchange-failure"}


def test_explicit_exchange_failure_raised_at_first_rank():
    m = ExplicitMatroid(3, [[], [1], [2], [3], [1, 2]])  # the listing alone is fine
    with pytest.raises(NotAMatroidError, match="exchange-failure"):
        m.rank(0b001)


def test_rank_tables_of_listings_and_relabelled_graphs():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 6)
        v = rng.randint(1, 4)
        edges = [(rng.randint(1, v), rng.randint(1, v)) for _ in range(n)]
        graph = GraphicMatroid(v, edges)
        table = to_setfunction(graph)
        far = 10**9 - v  # the same graph on far-away vertex numbers
        assert to_setfunction(GraphicMatroid(10**9, [(a + far, b + far) for a, b in edges])) == table
        for m in (graph, rand_partition_matroid(rng, n), UniformMatroid(rng.randint(0, n), n)):
            listing = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)
                       if m.rank(mask_of(s)) == k]
            assert to_setfunction(ExplicitMatroid(n, listing)) == to_setfunction(m)


def _all_matroid_fixtures(rng):
    yield UniformMatroid(2, 5)
    yield UniformMatroid(1, 3)
    yield k4()
    yield GraphicMatroid(3, [(1, 1), (1, 2), (1, 2), (2, 3)])
    yield rand_partition_matroid(rng, 6)
    yield ExplicitMatroid(
        3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]]
    )


def test_rank_axioms_exhaustively():
    rng = random.Random(3)
    for m in _all_matroid_fixtures(rng):
        els = m.elements
        assert m.rank(0) == 0
        for s_size in range(len(els) + 1):
            for s in combinations(els, s_size):
                rs = m.rank(mask_of(s))
                assert 0 <= rs <= len(s)
                for e in els:
                    if e in s:
                        continue
                    gain = m.rank(mask_of(s + (e,))) - rs
                    assert gain in (0, 1)  # monotone unit increase
        table = to_setfunction(m)
        report = predicates(table)
        assert report.monotone and report.submodular


def test_parallel_case_table_under_contraction():
    rng = random.Random(9)
    for m in _all_matroid_fixtures(rng):
        rk = to_setfunction(m)
        n = rk.n
        for t_size in range(min(3, n - 1)):
            for tmask in masks_of_size(n, t_size):
                classes = parallel_partition(rk, tmask)
                assert [list(labels_of(c)) for c in classes] == contracted_classes(m, labels_of(tmask))
