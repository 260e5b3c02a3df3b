import random
from itertools import combinations

import pytest

from clckit import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    parallel_partition,
    predicates,
    to_setfunction,
    validate_explicit,
)
from clckit.errors import NotAMatroidError

from conftest import k4, rand_partition_matroid


def test_graphic_k4_triangle_rank():
    m = k4()  # edges 1..6 = 12,13,14,23,24,34
    assert m.rank([1, 2, 4]) == 2  # triangle {e12, e13, e23}
    assert m.full_rank() == 3


def test_uniform_rank():
    assert UniformMatroid(2, 4).rank([1, 2, 3]) == 2


def test_explicit_contracted_rank():
    bases = [[1, 2], [1, 3], [2, 3]]
    family = [[]] + [[i] for i in (1, 2, 3)] + bases
    m = ExplicitMatroid(3, family).contract([1])
    assert m.rank([2, 3]) == 1  # rk({1,2,3}) - rk({1})


def test_contract_by_empty_is_identity():
    m = UniformMatroid(2, 3)
    assert m.contract([]) is m


def test_contract_uniform_pairs():
    m = UniformMatroid(2, 3).contract([1])
    for pair in ([2, 3],):
        assert m.rank(pair) == 1


def test_contract_k4_parallel_edges():
    # contracting e12 makes e13 (edge 2) and e23 (edge 4) parallel
    m = k4().contract([1])
    assert m.rank([2]) == 1
    assert m.rank([2, 4]) == 1
    pp = parallel_partition(m)
    classes = {frozenset(c) for c in pp.classes}
    assert frozenset((2, 4)) in classes  # e13 with e23
    assert frozenset((3, 5)) in classes  # e14 with e24
    assert frozenset((6,)) in classes


def test_parallel_partition_u13():
    pp = parallel_partition(UniformMatroid(1, 3))
    assert pp.loops == ()
    assert pp.classes == ((1, 2, 3),)


def test_parallel_partition_self_loop():
    m = GraphicMatroid(2, [(1, 1), (1, 2)])
    pp = parallel_partition(m)
    assert pp.loops == (1,)
    assert pp.classes == ((2,),)


def test_parallel_partition_contracted_uniform():
    pp = parallel_partition(UniformMatroid(2, 3).contract([1]))
    assert pp.loops == ()
    assert pp.classes == ((2, 3),)


def test_to_setfunction_uniform():
    rk = to_setfunction(UniformMatroid(2, 3))
    assert [rk[m] for m in range(1, 8)] == [1, 1, 2, 1, 2, 2, 2]
    ind = to_setfunction(UniformMatroid(2, 3), "indicator")
    assert ind[0] == 0  # the empty set stores 0 by convention
    assert [ind.value_of(p) for p in ([1, 2], [1, 3], [2, 3])] == [1, 1, 1]
    assert ind.value_of([1, 2, 3]) == 0


def test_to_setfunction_k4_triangle_dependent():
    ind = to_setfunction(k4(), "indicator")
    assert ind.value_of([1, 2, 4]) == 0  # triangle
    assert ind.value_of([1, 2, 3]) == 1  # star at vertex 1 is a tree


def test_validate_explicit():
    assert validate_explicit(2, [[], [1], [2]])
    bad = validate_explicit(2, [[], [1], [1, 2]])
    assert not bad
    assert bad.kind == "not-downward-closed"
    # bases of U_{2,3} with downward closure added
    family = [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]]
    assert validate_explicit(3, family)
    with pytest.raises(NotAMatroidError):
        ExplicitMatroid(2, [[], [1], [1, 2]])


def test_validate_explicit_exchange_failure():
    # {1,2} and {3} independent but neither {1,3} nor {2,3}: exchange fails
    res = validate_explicit(3, [[], [1], [2], [3], [1, 2]])
    assert not res
    assert res.kind == "exchange-failure"


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
        assert m.rank([]) == 0
        for s_size in range(len(els) + 1):
            for s in combinations(els, s_size):
                rs = m.rank(s)
                assert 0 <= rs <= len(s)
                for e in els:
                    if e in s:
                        continue
                    gain = m.rank(s + (e,)) - rs
                    assert gain in (0, 1)  # monotone unit increase
        table = to_setfunction(m)
        report = predicates(table)
        assert report.monotone and report.submodular


def test_parallel_case_table_under_contraction():
    rng = random.Random(9)
    for m in _all_matroid_fixtures(rng):
        els = m.elements
        for t_size in range(min(3, len(els) - 1)):
            for tau in combinations(els, t_size):
                mc = m.contract(tau)
                if len(mc.elements) < 2:
                    continue
                parallel_partition(mc)  # raises NotAMatroidError on violation
