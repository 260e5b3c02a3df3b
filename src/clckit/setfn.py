"""Exact set-function tables and the representations that generate them.

Everything here is exact rational arithmetic: all the downstream
certification logic consists of sign conditions, so no tolerances belong in
this layer. A table holds f: 2^[n] -> Q>=0 densely by subset bitmask, as
integer numerators over one denominator, with f(empty) = 0 as a standing
convention; this module alone maps it to Fractions. Floats are rejected on
input; parse decimal strings instead.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .bitsets import coverage_values, coverage_weights, labels_of, mask_of
from .errors import CapExceededError, InputError, InternalCheckError

HARD_CAP = 24
MAX_DIGITS = 4300  # Python's default limit on the digits of an integer string

ZERO = Fraction(0)


def exact(value) -> Fraction:
    """The one coercion into Fraction: an int, a rational or a "p/q" or
    decimal string. Floats (binary64 noise has no place here) and booleans
    are refused. A zero denominator is a ValueError, and so is a decimal
    string whose numerator or denominator, written over a power of ten,
    has more than MAX_DIGITS digits: it is refused before any big-integer
    work, as Python refuses a longer integer string."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r} in an exact context; pass int, Fraction or a string"
        )
    if isinstance(value, bool) or not isinstance(value, (Rational, str)):
        raise TypeError(f"cannot parse {value!r} as a rational")
    if isinstance(value, str) and _oversized(value):
        raise ValueError(f"numerator or denominator exceeds {MAX_DIGITS} digits")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


_DECIMAL = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:e([-+]?)0*(\d*))?\s*", re.IGNORECASE)


def _oversized(text: str) -> bool:
    """Whether the decimal string `text` (digits, a point, an exponent) has
    more than MAX_DIGITS digits in its numerator or denominator, written
    over a power of ten; False for any other string, which Fraction reads
    (a "p/q" string, whose integers Python bounds itself) or refuses."""
    if len(text) <= MAX_DIGITS and "e" not in text and "E" not in text:
        return False  # without an exponent, no part is longer than the text
    m = _DECIMAL.fullmatch(text.replace("_", ""))
    if m is None:
        return False
    whole, frac, sign, exp = m.groups(default="")
    if len(exp) > len(str(MAX_DIGITS)):  # |exponent| >= 10^4: too long either way
        return True
    e = int(sign + (exp or "0")) - len(frac)
    return len((whole + frac).lstrip("0")) + max(e, 0) > MAX_DIGITS or -e >= MAX_DIGITS


def integer_scaled(values: Sequence) -> tuple[list[int], int]:
    """The integer numerators of exact `values` over their least common
    denominator L, and L: values[i] == nums[i] / L, in lowest terms. Values
    other than ints and Fractions go through `exact`, which refuses floats
    and booleans."""
    if not {int, Fraction}.issuperset(map(type, values)):
        values = [exact(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class SetFunctionTable:
    """f: 2^[n] -> Q>=0, indexed by subset bitmask, as integer numerators over
    one denominator: f(S) = nums[S] / scale. The pair is kept in lowest terms
    (gcd(scale, *nums) == 1), so tables of one function compare equal.
    Indexing returns Fractions; integer kernels read `nums`."""

    n: int
    nums: tuple[int, ...]
    scale: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be nonnegative")
        if self.n > HARD_CAP:
            raise CapExceededError(f"n={self.n} exceeds the hard cap {HARD_CAP}")
        nums, scale = tuple(self.nums), self.scale
        if len(nums) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} values, got {len(nums)}")
        if type(scale) is not int or scale <= 0:
            raise ValueError(f"scale must be a positive integer, got {scale!r}")
        if not {int}.issuperset(map(type, nums)):
            raise TypeError("table numerators must be ints")
        if nums[0] != 0:
            raise InputError("f(empty set) must be 0")
        if min(nums) < 0:
            raise InputError(f"negative value {Fraction(next(v for v in nums if v < 0), scale)}")
        g = math.gcd(scale, *nums)
        object.__setattr__(self, "nums", nums if g == 1 else tuple(v // g for v in nums))
        object.__setattr__(self, "scale", scale // g)

    @classmethod
    def of(cls, n: int, values: Sequence) -> "SetFunctionTable":
        """The table of exact values (ints or Fractions) listed by mask."""
        return cls(n, *integer_scaled(values))

    @classmethod
    def from_entries(cls, n: int, entries: Mapping) -> "SetFunctionTable":
        """Build from {labels-or-mask: value}; unspecified subsets default to 0.
        A bool key, a mask outside [0, 2^n) and two keys naming one subset
        are refused."""
        vals = [0] * (1 << n)
        key_of: dict[int, object] = {}
        for key, v in entries.items():
            if isinstance(key, bool):
                raise ValueError(f"subset key {key!r} is a bool, not a mask or labels")
            mask = key if isinstance(key, int) else mask_of(key)
            if not 0 <= mask < 1 << n:
                raise ValueError(f"subset {key} out of range for n={n}")
            if mask in key_of:
                raise ValueError(f"subset {key} repeats the subset of {key_of[mask]}")
            key_of[mask] = key
            vals[mask] = exact(v)
        return cls.of(n, vals)

    def __getitem__(self, mask: int) -> Fraction:
        return Fraction(self.nums[mask], self.scale)

    def support(self, size: int | None = None) -> tuple[int, ...]:
        """Masks with f > 0, optionally restricted to one cardinality."""
        return tuple(
            m
            for m, v in enumerate(self.nums)
            if v and (size is None or m.bit_count() == size)
        )


@dataclass(frozen=True)
class CoverageWeights:
    """Nonnegative weights x_T on nonempty subsets, as integer numerators over
    one denominator: x_T = x[T] / scale, and f(S) = sum of x_T over T meeting
    S. This is the one representation of a coverage function. `of` builds
    it in lowest terms; in a two-coverage witness the pair is in lowest terms
    together with l, which shares the denominator."""

    n: int
    x: Mapping[int, int]  # mask -> numerator, zero entries absent
    scale: int = 1

    def __post_init__(self):
        if type(self.scale) is not int or self.scale <= 0:
            raise ValueError(f"scale must be a positive integer, got {self.scale!r}")
        cleaned = {}
        for mask, v in self.x.items():
            if mask == 0:
                raise InputError("x on the empty set is not part of the representation")
            if mask >= 1 << self.n:
                raise ValueError(f"subset mask {mask} out of range for n={self.n}")
            if type(v) is not int:
                raise TypeError("coverage numerators must be ints")
            if v < 0:
                raise InputError(f"negative weight {Fraction(v, self.scale)} on {labels_of(mask)}")
            if v:
                cleaned[mask] = v
        object.__setattr__(self, "x", cleaned)

    @classmethod
    def of(cls, n: int, values: Mapping) -> "CoverageWeights":
        """The weights of exact values {mask: x_T}, in lowest terms."""
        nums, scale = integer_scaled(list(values.values()))
        return cls(n, dict(zip(values, nums)), scale)


def materialize(rep: CoverageWeights) -> SetFunctionTable:
    """Exhaustively evaluate a coverage function, given by its weights, into
    a table (a matroid's tables come from `matroids.to_setfunction`). The
    numerators go through `coverage_values` as ints, over the weights'
    denominator."""
    n = rep.n
    if n > HARD_CAP:  # before allocating 2^n values
        raise CapExceededError(f"n={n} exceeds the hard cap {HARD_CAP}")
    x = [0] * (1 << n)
    for t, v in rep.x.items():
        x[t] = v
    return SetFunctionTable(n, coverage_values(x), rep.scale)


def homogeneous_restrict(f: SetFunctionTable, d: int) -> SetFunctionTable:
    """Keep values on sets of size d, zero elsewhere."""
    if not 0 <= d <= f.n:
        raise ValueError(f"degree {d} out of range for n={f.n}")
    nums = [v if m.bit_count() == d else 0 for m, v in enumerate(f.nums)]
    return SetFunctionTable(f.n, nums, f.scale)


@dataclass(frozen=True)
class MobiusResult:
    weights: Mapping[int, Fraction]  # nonempty mask -> x_T, zero entries absent; may be negative
    is_coverage: bool
    min_weight: Fraction


def mobius_coverage_weights(f: SetFunctionTable) -> MobiusResult:
    """Solve f(S) = sum over T meeting S of x_T for the unique x.

    Runs `coverage_weights` on the table's integer numerators, then re-checks
    the reconstruction `coverage_values(x) == f` exactly on the same ints
    before returning.
    """
    x = coverage_weights(f.nums)
    # independent re-check: zeta(x) must reproduce f through the defining sums
    rebuilt = coverage_values(x)
    if rebuilt != list(f.nums):
        s = next(s for s, (got, want) in enumerate(zip(rebuilt, f.nums)) if got != want)
        raise InternalCheckError(f"Moebius reconstruction failed at S={labels_of(s)}")
    min_weight = Fraction(min(x[1:]), f.scale) if f.n else ZERO
    weights = {m: Fraction(v, f.scale) for m, v in enumerate(x) if m and v}
    return MobiusResult(weights, min_weight >= 0, min_weight)


def level_sequence(f: SetFunctionTable) -> tuple[Fraction, ...]:
    """c_i = sum of f over sets of size i, for i = 0..n."""
    out = [0] * (f.n + 1)
    for m, v in enumerate(f.nums):
        out[m.bit_count()] += v
    return tuple(Fraction(c, f.scale) for c in out)
