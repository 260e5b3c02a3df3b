"""Bitmask encoding of subsets of {1, ..., n}.

Bit i-1 of a mask encodes membership of element i; element labels are 1-based
in every public interface, bit positions 0-based internally. These helpers are
the shared vocabulary for tables, polynomials and matroid conversions.
"""
from __future__ import annotations

from itertools import combinations
from operator import add, sub
from typing import Iterable, Iterator, Sequence


def mask_of(labels: Iterable[int]) -> int:
    """Pack distinct 1-based element labels into a bitmask."""
    m = 0
    for e in labels:
        if e < 1:
            raise ValueError(f"element labels are 1-based, got {e}")
        if m >> (e - 1) & 1:
            raise ValueError(f"label {e} is repeated")
        m |= 1 << (e - 1)
    return m


def labels_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into ascending 1-based labels."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def masks_of_size(n: int, k: int) -> Iterator[int]:
    """All size-k subsets of [n], in lexicographic order of their label tuples."""
    for combo in combinations(range(n), k):
        m = 0
        for b in combo:
            m |= 1 << b
        yield m


def submasks(mask: int) -> Iterator[int]:
    """All subsets of mask, in decreasing mask order; includes mask and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def coverage_values(x: Sequence) -> list:
    """f(S) = sum of x[T] over the T meeting S, for every mask S, where x has
    length 2^n and is indexed by mask: the zeta transform of x, read over
    complements. Works on any numbers; x itself is left alone."""
    below = subset_transform(list(x))
    full = len(below) - 1
    total = below[full]
    return [total - below[full ^ s] for s in range(full + 1)]


def coverage_weights(f: Sequence) -> list:
    """The x that `coverage_values` maps to f, for f[0] = 0: the Moebius
    inversion of f(full) - f(full - U), which is the sum of x[T] over T
    inside U. x[0] is always 0."""
    full = len(f) - 1
    top = f[full]
    return subset_transform([top - f[full ^ u] for u in range(full + 1)], inverse=True)


def subset_transform(values: list, inverse: bool = False) -> list:
    """Zeta transform in place over a list of length 2^n (values[m] becomes
    the sum of values[t] over t inside m), or its Moebius inversion; returns
    the list. One pass per bit adds (subtracts) values[m - bit] into every m
    holding the bit. Within a pass those updates are independent, so they
    run as slice operations: strided over the masks of one residue mod
    2*bit while the bit is small, else over each run of bit consecutive
    masks. Float inputs see the same additions whatever the grouping."""
    size = len(values)
    op = sub if inverse else add
    bit = 1
    while bit < size:
        step = 2 * bit
        if bit * step < size:
            for hi in range(bit, step):
                values[hi::step] = map(op, values[hi::step], values[hi - bit :: step])
        else:
            for hi in range(bit, size, step):
                values[hi : hi + bit] = map(op, values[hi : hi + bit], values[hi - bit : hi])
        bit = step
    return values
