"""Matroid oracles: uniform, partition, graphic and explicit.

Ranks are exact integers. The ground elements are the labels 1..n, which a
caller hands to the constructors; past that boundary every subset is a
bitmask over [n], bit b for label b + 1: the argument of `Matroid.rank`, the
partition blocks, the explicit listing and its rank table, the parallel
classes, and the rank table `to_setfunction` builds.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .bitsets import labels_of, mask_of
from .errors import CapExceededError, InputError, NotAMatroidError
from .setfn import HARD_CAP, SetFunctionTable


def _distinct(labels: Iterable[int], at: str) -> frozenset:
    """A caller's list of labels as a set; a label listed twice is refused,
    naming the list `at`."""
    labels = list(labels)
    s = frozenset(labels)
    if len(s) != len(labels):
        raise InputError(f"{at}: set {labels} repeats a label")
    return s


def _count(value, at: str) -> int:
    """A caller's nonnegative integer, in the file loader's words when it is
    not one: a bool or a float is refused, never truncated."""
    if type(value) is not int or value < 0:
        raise InputError(f"{at}: expected a nonnegative integer, found {value!r}")
    return value


class Matroid:
    """Rank oracle over the ground labels 1..n, queried by bitmask. The
    elements are a range, so a size n is compared with a cap before anything
    is allocated per element."""

    n: int

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    def rank(self, s: int) -> int:
        """The rank of the mask s over [n]."""
        raise NotImplementedError


class UniformMatroid(Matroid):
    """U_{r,n}: every set of size at most r is independent."""

    def __init__(self, r: int, n: int):
        if _count(r, "r") > _count(n, "n"):
            raise InputError("need 0 <= r <= n")
        self.r = r
        self.n = n

    def rank(self, s: int) -> int:
        return min(s.bit_count(), self.r)

    def __repr__(self):
        return f"UniformMatroid(r={self.r}, n={self.n})"


class PartitionMatroid(Matroid):
    """Blocks partition [n]; rank is the capped count per block."""

    def __init__(self, blocks: Sequence[Iterable[int]], caps: Sequence[int]):
        sets = [_distinct(b, f"blocks[{k}]") for k, b in enumerate(blocks)]
        self.caps = tuple(_count(c, f"caps[{k}]") for k, c in enumerate(caps))
        if len(sets) != len(self.caps):
            raise InputError("need one cap per block")
        self.n = sum(len(b) for b in sets)
        if frozenset().union(*sets) != frozenset(self.elements):
            raise InputError("blocks must partition {1,...,n}")
        self.blocks = tuple(mask_of(b) for b in sets)

    def rank(self, s: int) -> int:
        return sum(min((s & b).bit_count(), c) for b, c in zip(self.blocks, self.caps))

    def __repr__(self):
        return f"PartitionMatroid(blocks={[list(labels_of(b)) for b in self.blocks]}, caps={list(self.caps)})"


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; self-loop edges are matroid loops."""

    def __init__(self, num_vertices: int, edges: Sequence[tuple[int, int]]):
        self.num_vertices = _count(num_vertices, "num_vertices")
        self.edges = tuple(map(tuple, edges))
        # every edge's endpoints before any edge's length: the file loader's
        # order, which checked the endpoints of each edge as it read it
        for k, e in enumerate(self.edges):
            if not all(type(v) is int for v in e):
                raise InputError(f"edges[{k}]: edge {list(e)} has an endpoint that is not an integer")
            if not all(1 <= v <= num_vertices for v in e):
                raise InputError(f"edges[{k}]: edge {list(e)} references an unknown vertex")
        for k, e in enumerate(self.edges):
            if len(e) != 2:
                raise InputError(f"edges[{k}]: an edge joins 2 vertices, found {len(e)}")
        self.n = len(self.edges)
        # union-find runs over the endpoints only, renumbered from 0, so a
        # rank query costs the same whatever the vertex count
        index: dict[int, int] = {}
        self._ends = tuple(
            (index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v in self.edges
        )
        self._touched = len(index)

    def rank(self, s: int) -> int:
        parent = list(range(self._touched))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        rank = 0
        for b in range(s.bit_length()):
            if s >> b & 1:
                u, v = self._ends[b]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        return rank

    def __repr__(self):
        return f"GraphicMatroid(V={self.num_vertices}, edges={list(self.edges)})"


def _check_listing(n: int, family) -> dict[int, int]:
    """The listed sets as {mask: position in the listing}, once the axioms
    that the listing alone decides hold, at O(|family| n) cost: it is
    nonempty, inside [n] and closed under taking subsets; a violation raises
    NotAMatroidError. A label repeated within a set, or a set listed twice,
    raises InputError naming it independent[k]."""
    sets = [_distinct(i, f"independent[{k}]") for k, i in enumerate(family)]
    if not sets:
        raise NotAMatroidError("empty: witness None")
    for i in sets:
        if not all(0 < e <= n for e in i):
            raise NotAMatroidError(f"out-of-range: witness {(tuple(sorted(i)),)}")
    listed: dict[int, int] = {}
    for k, i in enumerate(sets):
        first = listed.setdefault(mask_of(i), k)
        if first != k:
            raise InputError(f"independent[{k}]: set {sorted(i)} repeats the subset of independent[{first}]")
    for m in listed:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            if m ^ low not in listed:
                witness = (labels_of(m), labels_of(m ^ low))
                raise NotAMatroidError(f"not-downward-closed: witness {witness}")
    return listed


def _rank_table(n: int, listed) -> list[int]:
    """r, where r(S) is the size of a largest mask of `listed` inside S for
    every mask S; the first exchange failure met raises NotAMatroidError.

    A nonempty downward-closed listing makes r grow by at most one per
    element, so it lists the independent sets of a matroid exactly when r is
    submodular: r(S+i) + r(S+j) >= r(S+i+j) + r(S) everywhere. A violation
    forces r(S+i) = r(S+j) = r(S) = r(S+i+j) - 1, so a largest listed a
    inside S and b inside S+i+j fail augmentation: no a + x with x in b - a
    is listed. It cannot occur at a listed S+i+j (S is listed too), so only
    the pairs of `drop`, the elements of an unlisted mask m whose removal
    lowers r, are tried. The pass reaches m after every subset of it, so
    one pass fills the table and checks it at O(2^n n) cost plus the pairs.
    """
    r = [0] * (1 << n)
    for m in range(1, 1 << n):
        if m in listed:
            r[m] = m.bit_count()
            continue
        below, rest = [], m
        while rest:
            i = rest & -rest
            rest ^= i
            below.append((r[m ^ i], i))
        top = r[m] = max(below)[0]
        drop = [i for v, i in below if v < top]
        for a, i in enumerate(drop):
            for j in drop[a + 1:]:
                s = m ^ i ^ j
                if r[s] == top - 1:
                    witness = (_largest_listed(r, listed, s), _largest_listed(r, listed, m))
                    raise NotAMatroidError(f"exchange-failure: witness {witness}")
    return r


def _largest_listed(r: list[int], listed, s: int) -> tuple[int, ...]:
    """The labels of a listed subset of s of size r(s), found by dropping
    elements that leave r unchanged."""
    while s not in listed:
        s = next(t for t in (s & ~(1 << b) for b in range(s.bit_length())) if t != s and r[t] == r[s])
    return labels_of(s)


class ExplicitMatroid(Matroid):
    """Matroid given by listing its independent sets. The listing is checked
    when given; the exchange axiom, which needs the 2^n rank table, when the
    table is first asked for, so a size cap can be checked before any
    exponential work."""

    def __init__(self, n: int, independent: Iterable[Iterable[int]]):
        self.family = _check_listing(n, independent)
        self.n = n
        self._table: list[int] | None = None

    def rank(self, s: int) -> int:
        if self._table is None:
            self._table = _rank_table(self.n, self.family)
        return self._table[s]

    def __repr__(self):
        return f"ExplicitMatroid(n={self.n}, |family|={len(self.family)})"


def parallel_partition(rank: SetFunctionTable, tau: int = 0) -> tuple[int, ...]:
    """The parallel classes of M/tau, masks in the order of their lowest
    elements, read off the rank table of M.

    Over the positions outside the mask tau, i is a loop iff r(tau+i) = r(tau),
    and nonloops i and j are parallel iff r(tau+ij) = r(tau)+1. The classes
    are not checked on their own: verifying the certificate built from them
    is the check, and its failure is an internal error (see
    `coverage2.synth_strong_matroid`).
    """
    r, base = rank.nums, rank.nums[tau]
    classes: list[int] = []
    for b in range(rank.n):
        with_b = tau | 1 << b
        if r[with_b] == base:  # b lies in tau, or is a loop of M/tau
            continue
        for c, cls in enumerate(classes):
            if r[with_b | cls & -cls] == base + rank.scale:
                classes[c] |= 1 << b
                break
        else:
            classes.append(1 << b)
    return tuple(classes)


def to_setfunction(m: Matroid) -> SetFunctionTable:
    """The rank table of m over its labels 1..n; `independence_indicator`
    reads the 0/1 independence indicator off it."""
    if m.n > HARD_CAP:
        raise CapExceededError(f"{m.n} elements exceed the materialization cap")
    return SetFunctionTable(m.n, [m.rank(s) for s in range(1 << m.n)])


def independence_indicator(rank: SetFunctionTable) -> SetFunctionTable:
    """The 0/1 indicator of r(S) = |S|, read off a rank table. It stores 0
    at the empty set: the table convention wins over the combinatorial value
    1, and restrictions to degree >= 1 are unaffected."""
    return SetFunctionTable(
        rank.n, [1 if s and r == s.bit_count() * rank.scale else 0 for s, r in enumerate(rank.nums)]
    )
