"""Joint-distribution entropies and the mutual-information decomposition.

Unlike the rest of the toolkit this module works in binary64: entropies are
transcendental, so identities are verified to 1e-9 instead of exactly. All
entropies are in bits (base 2); every verified identity is homogeneous in the
base, so the choice is cosmetic.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .bitsets import coverage_values, coverage_weights
from .errors import CapExceededError, InputError

IDENTITY_TOL = 1e-9
NEGATIVE_TOL = -1e-9


@dataclass(frozen=True)
class JointDistribution:
    """Finite joint pmf over n variables with the given alphabet sizes."""

    alphabets: tuple[int, ...]
    pmf: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        for outcome, p in self.pmf.items():
            if len(outcome) != len(self.alphabets):
                raise InputError(f"outcome {outcome} has the wrong arity")
            for v, k in zip(outcome, self.alphabets):
                if not 0 <= v < k:
                    raise InputError(f"outcome {outcome} leaves the alphabet")
            if math.isnan(p):
                raise InputError(f"probability {p} at {outcome} is not a number")
            if p < 0:
                raise InputError(f"negative probability {p} at {outcome}")
        total = math.fsum(self.pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"probabilities sum to {total}, not 1")

    @property
    def n(self) -> int:
        return len(self.alphabets)


def _entropy(joint: JointDistribution, mask: int) -> float:
    """H(Y_S) in bits for the nonempty mask S, with 0 log 0 = 0."""
    # one index makes itemgetter return a bare value, not a 1-tuple;
    # either keys the marginal
    marg: dict = {}
    key = itemgetter(*(b for b in range(joint.n) if mask >> b & 1))
    for outcome, p in joint.pmf.items():
        if p == 0.0:
            continue
        k = key(outcome)
        marg[k] = marg.get(k, 0.0) + p
    return -math.fsum(p * math.log2(p) for p in marg.values() if p > 0.0)


@dataclass(frozen=True)
class EntropyDecomposition:
    """f(S) = H(Y_S) and its (possibly signed) interaction weights.

    weights[T] = I(Y_T | Y_complement). The identity
    f(S) = sum over T meeting S of weights[T] holds mathematically; its
    largest numerical residual is reported, as is the smallest weight. A
    negative weight means the decomposition is not a nonnegative coverage
    witness for this distribution, and is flagged rather than hidden.
    """

    n: int
    values: tuple[float, ...]  # H(Y_S) by subset mask
    weights: Mapping[int, float]  # nonempty T mask -> bits
    max_identity_residual: float
    min_weight: float
    mobius_max_diff: float
    has_negative_weight: bool


def entropy_decomposition(joint: JointDistribution, cap: int = 8) -> EntropyDecomposition:
    n = joint.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds cap {cap}")
    size = 1 << n
    full = size - 1
    values = (0.0,) + tuple(_entropy(joint, m) for m in range(1, size))

    @functools.cache
    def mmi(t: int, c: int) -> float:
        """I(Y_T | Y_C) for the masks T and C, peeling T's highest label X:
        I(Y_T | Y_C) = I(Y_{T-X} | Y_C) - I(Y_{T-X} | X, Y_C)."""
        if not t & (t - 1):
            return values[t | c] - values[c]
        top = 1 << (t.bit_length() - 1)
        return mmi(t ^ top, c) - mmi(t ^ top, c | top)

    weights = {t: mmi(t, full ^ t) for t in range(1, size)}
    rebuilt = coverage_values([0.0] + [weights[t] for t in range(1, size)])
    residual = max(abs(v - r) for v, r in zip(values, rebuilt))
    # uniqueness cross-check: the Moebius inversion of the entropy table must
    # reproduce the recursive weights
    mob = coverage_weights(values)
    mobius_diff = max(abs(weights[t] - mob[t]) for t in range(1, size)) if n else 0.0
    min_weight = min(weights.values()) if weights else 0.0
    return EntropyDecomposition(
        n=n,
        values=values,
        weights=weights,
        max_identity_residual=residual,
        min_weight=min_weight,
        mobius_max_diff=mobius_diff,
        has_negative_weight=min_weight < NEGATIVE_TOL,
    )
