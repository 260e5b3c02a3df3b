"""Exact set-function tables and the representations that generate them.

Everything here is exact rational arithmetic (fractions.Fraction): all the
downstream certification logic consists of sign conditions, so no tolerances
belong in this layer. Tables materialize a function f: 2^[n] -> Q>=0 as a
dense array indexed by subset bitmask, with f(empty) = 0 as a standing
convention. Floats are rejected on input; parse decimal strings instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

from .bitsets import coverage_values, coverage_weights, labels_of, mask_of, submasks
from .errors import CapExceededError, InternalCheckError

HARD_CAP = 24

ZERO = Fraction(0)


def exact(value) -> Fraction:
    """The one coercion into Fraction: an int, a rational or a "p/q" or
    decimal string. Floats (binary64 noise has no place here) and booleans
    are refused, and a zero denominator is a ValueError."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r} in an exact context; pass int, Fraction or a string"
        )
    if isinstance(value, bool) or not isinstance(value, (Rational, str)):
        raise TypeError(f"cannot parse {value!r} as a rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def integer_scaled(values: Sequence) -> tuple[list[int], int]:
    """The integer numerators of `values` (ints or Fractions) over their
    least common denominator L, and L: values[i] == nums[i] / L."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class SetFunctionTable:
    """Exhaustive values of f: 2^[n] -> Q>=0, indexed by subset bitmask."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be nonnegative")
        if self.n > HARD_CAP:
            raise CapExceededError(f"n={self.n} exceeds the hard cap {HARD_CAP}")
        if len(self.values) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} values, got {len(self.values)}")
        if self.values[0] != 0:
            raise ValueError("f(empty set) must be 0")
        for v in self.values:
            if v < 0:
                raise ValueError(f"negative value {v}")

    @classmethod
    def from_entries(cls, n: int, entries: Mapping) -> "SetFunctionTable":
        """Build from {labels-or-mask: value}; unspecified subsets default to 0."""
        vals = [ZERO] * (1 << n)
        for key, v in entries.items():
            mask = key if isinstance(key, int) else mask_of(key)
            if mask >= 1 << n:
                raise ValueError(f"subset {key} out of range for n={n}")
            vals[mask] = exact(v)
        return cls(n, tuple(vals))

    def __getitem__(self, mask: int) -> Fraction:
        return self.values[mask]

    def value_of(self, labels: Iterable[int]) -> Fraction:
        return self.values[mask_of(labels)]

    def degree(self) -> int:
        """Largest |S| with f(S) != 0; 0 for the zero function."""
        best = 0
        for mask, v in enumerate(self.values):
            if v != 0:
                best = max(best, mask.bit_count())
        return best

    def support(self, size: int | None = None) -> tuple[int, ...]:
        """Masks with f > 0, optionally restricted to one cardinality."""
        return tuple(
            m
            for m, v in enumerate(self.values)
            if v != 0 and (size is None or m.bit_count() == size)
        )

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class CoverageInstance:
    """Weighted universe plus n subsets A_1..A_n; f(T) = w(union of A_i, i in T)."""

    universe: tuple[tuple[str, Fraction], ...]  # (element id, nonnegative weight)
    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        ids = [e for e, _ in self.universe]
        if len(set(ids)) != len(ids):
            raise ValueError("malformed instance: duplicate universe element ids")
        for e, w in self.universe:
            if w < 0:
                raise ValueError(f"malformed instance: negative weight for {e!r}")
        declared = set(ids)
        for i, a in enumerate(self.sets, start=1):
            missing = a - declared
            if missing:
                raise ValueError(
                    f"malformed instance: A_{i} references unknown elements {sorted(missing)}"
                )

    @classmethod
    def build(cls, universe, sets) -> "CoverageInstance":
        uni = tuple((str(e), exact(w)) for e, w in universe)
        sets = [[str(x) for x in a] for a in sets]
        for k, a in enumerate(sets):
            if len(set(a)) != len(a):
                again = next(x for i, x in enumerate(a) if x in a[:i])
                raise ValueError(f"sets[{k}]: repeated label {again!r}")
        return cls(uni, tuple(frozenset(a) for a in sets))

    @property
    def n(self) -> int:
        return len(self.sets)

    def weights(self) -> "CoverageWeights":
        """The instance as coverage weights: each universe element adds its
        weight at the mask of the sets that contain it, so x_T is the weight
        of the elements lying in exactly the sets A_i, i in T."""
        member = dict.fromkeys((e for e, _ in self.universe), 0)
        for i, a in enumerate(self.sets):
            for e in a:
                member[e] |= 1 << i
        x: dict[int, Fraction] = {}
        for e, w in self.universe:
            if member[e]:
                x[member[e]] = x.get(member[e], ZERO) + w
        return CoverageWeights(self.n, dict(sorted(x.items())))


@dataclass(frozen=True)
class CoverageWeights:
    """Nonnegative weights x_T on nonempty subsets; f(S) = sum of x_T over T
    meeting S. This is the one representation of a coverage function."""

    n: int
    x: Mapping[int, Fraction]  # mask -> weight, zero entries absent

    def __post_init__(self):
        cleaned = {}
        for mask, v in self.x.items():
            if mask == 0:
                raise ValueError("x on the empty set is not part of the representation")
            if mask >= 1 << self.n:
                raise ValueError(f"subset mask {mask} out of range for n={self.n}")
            v = exact(v)
            if v < 0:
                raise ValueError(f"negative weight {v} on {labels_of(mask)}")
            if v != 0:
                cleaned[mask] = v
        object.__setattr__(self, "x", cleaned)

    def value(self, mask: int) -> Fraction:
        """f(S) = sum of x_T over T with T intersecting S."""
        return sum((v for t, v in self.x.items() if t & mask), ZERO)


def materialize(rep: CoverageWeights) -> SetFunctionTable:
    """Exhaustively evaluate a coverage function, given by its weights (an
    instance's come from `CoverageInstance.weights`), into a table (a
    matroid's tables come from `matroids.to_setfunction`). The weights are
    scaled to integers over one denominator and pushed through
    `coverage_values` as ints."""
    n = rep.n
    if n > HARD_CAP:  # before allocating 2^n values
        raise CapExceededError(f"n={n} exceeds the hard cap {HARD_CAP}")
    nums, scale = integer_scaled(list(rep.x.values()))
    x = [0] * (1 << n)
    for t, v in zip(rep.x, nums):
        x[t] = v
    vals = coverage_values(x)
    shared = {v: Fraction(v, scale) for v in set(vals)}
    return SetFunctionTable(n, tuple(shared[v] for v in vals))


def homogeneous_restrict(f: SetFunctionTable, d: int) -> SetFunctionTable:
    """Keep values on sets of size d, zero elsewhere."""
    if not 0 <= d <= f.n:
        raise ValueError(f"degree {d} out of range for n={f.n}")
    vals = tuple(
        v if m.bit_count() == d else ZERO for m, v in enumerate(f.values)
    )
    return SetFunctionTable(f.n, vals)


@dataclass(frozen=True)
class PredicateReport:
    monotone: bool
    submodular: bool
    log_submodular: bool
    almost_log_submodular: bool
    witnesses: Mapping[str, tuple]  # failed flag -> first violating witness


def predicates(f: SetFunctionTable) -> PredicateReport:
    """Check the four structural predicates, exhaustively and exactly.

    Log-submodularity is checked multiplicatively, f(S+i) f(T) >= f(T+i) f(S)
    for S inside T, so zero values need no special casing.
    """
    n = f.n
    # every inequality is homogeneous in f, so scale to integers once and let
    # the 3^n sweeps run on plain ints
    vals, _ = integer_scaled(f.values)
    witnesses: dict[str, tuple] = {}

    mono = _monotone_witness(n, vals)
    if mono:
        witnesses["monotone"] = mono
    sub = _submodular_witness(n, vals)
    if sub:
        witnesses["submodular"] = sub
    logsub = _log_submodular_witness(n, vals)
    if logsub:
        witnesses["log_submodular"] = logsub
    almost = _almost_witness(n, vals)
    if almost:
        witnesses["almost_log_submodular"] = almost

    return PredicateReport(
        monotone=mono is None,
        submodular=sub is None,
        log_submodular=logsub is None,
        almost_log_submodular=almost is None,
        witnesses=witnesses,
    )


def _monotone_witness(n, vals):
    full = (1 << n) - 1
    for s in range(full + 1):
        rest = full & ~s
        while rest:
            low = rest & -rest
            if vals[s] > vals[s | low]:
                return (labels_of(s), low.bit_length())
            rest ^= low
    return None


def _submodular_witness(n, vals):
    # local characterization: f(S+i) + f(S+j) >= f(S+i+j) + f(S)
    full = (1 << n) - 1
    for s in range(full + 1):
        out = [b for b in range(n) if not s >> b & 1]
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                i, j = 1 << out[a], 1 << out[b]
                if vals[s | i] + vals[s | j] < vals[s | i | j] + vals[s]:
                    return (labels_of(s), out[a] + 1, out[b] + 1)
    return None


def _log_submodular_witness(n, vals):
    # f(S+i) f(T) >= f(T+i) f(S) for all S inside T, i outside T
    full = (1 << n) - 1
    for t in range(full + 1):
        out = [b for b in range(n) if not t >> b & 1]
        for s in submasks(t):
            for b in out:
                i = 1 << b
                if vals[s | i] * vals[t] < vals[t | i] * vals[s]:
                    return (labels_of(s), labels_of(t), b + 1)
    return None


def _almost_witness(n, vals):
    # 2 f(S+i) f(S+j) >= f(S) f(S+i+j)
    full = (1 << n) - 1
    for s in range(full + 1):
        out = [b for b in range(n) if not s >> b & 1]
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                i, j = 1 << out[a], 1 << out[b]
                if 2 * vals[s | i] * vals[s | j] < vals[s] * vals[s | i | j]:
                    return (labels_of(s), out[a] + 1, out[b] + 1)
    return None


@dataclass(frozen=True)
class MobiusResult:
    weights: Mapping[int, Fraction]  # nonempty mask -> x_T, zero entries absent; may be negative
    is_coverage: bool
    min_weight: Fraction


def mobius_coverage_weights(f: SetFunctionTable) -> MobiusResult:
    """Solve f(S) = sum over T meeting S of x_T for the unique x.

    Runs `coverage_weights` on the integer numerators of f over their common
    denominator, then re-checks the reconstruction `coverage_values(x) == f`
    exactly on the same ints before returning.
    """
    nums, scale = integer_scaled(f.values)
    x = coverage_weights(nums)
    # independent re-check: zeta(x) must reproduce f through the defining sums
    for s, (got, want) in enumerate(zip(coverage_values(x), nums)):
        if got != want:
            raise InternalCheckError(
                f"Moebius reconstruction failed at S={labels_of(s)}"
            )
    min_weight = Fraction(min(x[1:]), scale) if f.n else ZERO
    weights = {m: Fraction(v, scale) for m, v in enumerate(x) if m and v}
    return MobiusResult(weights, min_weight >= 0, min_weight)


def level_sequence(f: SetFunctionTable) -> tuple[Fraction, ...]:
    """c_i = sum of f over sets of size i, for i = 0..n."""
    out = [ZERO] * (f.n + 1)
    for m, v in enumerate(f.values):
        if v != 0:
            out[m.bit_count()] += v
    return tuple(out)
