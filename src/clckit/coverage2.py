"""Two-coverage and strongly-two-coverage certificates.

A certificate for a table f (ground positions 1..n) carries, per contraction
set tau, witnesses that pin down the contracted pair values:

  * two-coverage at degree d: for each |tau| = d-2, a support S inside the
    complement of tau, a coverage function g on S given by nonnegative
    weights on subsets of S, and a nonnegative linear function l, zero
    outside S, with l({i}) <= g({i}), such that f(tau + {i,j}) =
    g({i,j}) - (l_i + l_j)/2 on pairs inside S and 0 on pairs leaving S.
    Indecomposability of every contracted derivative down to the quadratics
    is part of the definition and is checked directly from f.
    S is required to be exactly the set of elements that appear with tau in a
    nonzero size-d set (a larger zero-extended S would satisfy the equations
    literally, but verification pins the canonical choice).

  * strongly two-coverage: for each |tau| <= n-2, a coverage g on the whole
    complement of tau with f(tau + T) = g(T) + f(tau) for |T| in {1, 2}.

Every witness is indexed by bitmasks over the table's own ground set [n]:
g is a CoverageWeights(n, ...) whose masks lie in the witness's ground set,
and l is an n-tuple of integer numerators over g's denominator, one per
element of [n]. Verification compares integer numerators by
cross-multiplication; a Fraction is built only for a failure message.

Synthesis verifies eagerly: the constructions encode proofs, so a synthesized
certificate that fails its own verification raises InternalCheckError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .bitsets import labels_of, mask_of, masks_of_size, submasks
from .errors import CapExceededError, InternalCheckError, MissingWitnessError
from .logconcave import contraction_cells
from .matroids import Matroid, independence_indicator, parallel_partition, to_setfunction
from .setfn import (
    CoverageInstance,
    CoverageWeights,
    SetFunctionTable,
    ZERO,
    integer_scaled,
    materialize,
)
from .simplex import phase1


@dataclass(frozen=True)
class TwoCoverageWitness:
    support: tuple[int, ...]  # S, ascending labels of the ground set
    g: CoverageWeights  # masks over [n], inside S
    ell: tuple[int, ...]  # l_i * g.scale for i in [n], zero outside S

    def __post_init__(self):
        if not {int}.issuperset(map(type, self.ell)):
            raise TypeError("l numerators must be ints")

    @classmethod
    def of(cls, support, n: int, g: Mapping, ell: Sequence) -> "TwoCoverageWitness":
        """The witness of exact values, g as {mask: x_T} and l as n values,
        written over one denominator in lowest terms."""
        nums, scale = integer_scaled([*g.values(), *ell])
        return cls(tuple(support), CoverageWeights(n, dict(zip(g, nums)), scale), tuple(nums[len(g):]))


@dataclass(frozen=True)
class TwoCoverageCertificate:
    n: int
    d: int
    witnesses: Mapping[tuple[int, ...], TwoCoverageWitness]  # key: sorted tau


@dataclass(frozen=True)
class StrongCertificate:
    n: int
    witnesses: Mapping[tuple[int, ...], CoverageWeights]  # g: masks over [n] outside tau


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    checks: int
    failure: str | None = None
    tau: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _expect(cert, kind: type) -> None:
    """Refuse a certificate of the wrong kind, naming both kinds."""
    if not isinstance(cert, kind):
        raise ValueError(f"expected a {kind.__name__}, found a {type(cert).__name__}")


def _pair_support(f: SetFunctionTable, tmask: int) -> tuple[dict[int, int], int]:
    """Pair numerators of the contraction and the elements they touch.

    Returns ({pair mask: f(tau + pair) * f.scale} over the pairs outside tau,
    the mask of elements in a nonzero pair).
    """
    outside = [1 << b for b in range(f.n) if not tmask >> b & 1]
    pairs: dict[int, int] = {}
    touched = 0
    for a in range(len(outside)):
        for b in range(a + 1, len(outside)):
            pm = outside[a] | outside[b]
            pairs[pm] = v = f.nums[tmask | pm]
            if v != 0:
                touched |= pm
    return pairs, touched


def verify_2cov(
    f: SetFunctionTable, d: int, cert: TwoCoverageCertificate
) -> CertificateCheck:
    """Check both certificate conditions against f, exactly."""
    n = f.n
    if d < 2:
        raise ValueError("two-coverage needs d >= 2")
    _expect(cert, TwoCoverageCertificate)
    if cert.n != n or cert.d != d:
        raise ValueError("certificate dimensions do not match the table")
    checks = 0
    for tmask, _, comps, _ in contraction_cells(f, d):
        checks += 1
        if len(comps) > 1:
            return CertificateCheck(
                False, checks, "contracted restriction is decomposable", labels_of(tmask)
            )
    for tmask in masks_of_size(n, d - 2):
        tau = labels_of(tmask)
        pairs, touched = _pair_support(f, tmask)
        witness = cert.witnesses.get(tau)
        if witness is None:
            if touched:
                raise MissingWitnessError(tau)
            checks += 1
            continue
        support, g, ell = witness.support, witness.g, witness.ell
        if len(ell) != n:
            raise ValueError(f"witness at tau={tau} has l over {len(ell)} elements, not n={n}")
        if any(v < 0 for v in ell):
            raise ValueError(f"witness at tau={tau} has a negative l value {Fraction(min(ell), g.scale)}")
        smask = mask_of(support)
        off_support = any(v for b, v in enumerate(ell) if not smask >> b & 1)
        if off_support or any(t & ~smask for t in g.x):
            raise ValueError(f"witness at tau={tau} reaches outside S={support}")
        if labels_of(touched) != support:
            return CertificateCheck(
                False,
                checks + 1,
                f"support mismatch: expected {labels_of(touched)}, witness has {support}",
                tau,
            )
        for lab in support:
            checks += 1
            if ell[lab - 1] > g.num(1 << (lab - 1)):
                return CertificateCheck(
                    False, checks, f"l({lab}) exceeds g({lab})", tau
                )
        for pm, value in pairs.items():
            la, lb = labels_of(pm)
            checks += 1
            want = 0 if pm & ~smask else 2 * g.num(pm) - ell[la - 1] - ell[lb - 1]
            if value * 2 * g.scale != want * f.scale:
                return CertificateCheck(
                    False,
                    checks,
                    f"pair equation failed on {{{la},{lb}}}: f_tau={Fraction(value, f.scale)}, "
                    f"certificate gives {Fraction(want, 2 * g.scale)}",
                    tau,
                )
    return CertificateCheck(True, checks)


def verify_strong2cov(
    f: SetFunctionTable, cert: StrongCertificate
) -> CertificateCheck:
    """Check f(tau + T) = g_tau(T) + f(tau) on all |T| in {1, 2}, all |tau| <= n-2."""
    n = f.n
    _expect(cert, StrongCertificate)
    if cert.n != n:
        raise ValueError("certificate dimensions do not match the table")
    full = (1 << n) - 1
    nums, scale = f.nums, f.scale
    checks = 0
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            tau = labels_of(tmask)
            g = cert.witnesses.get(tau)
            if g is None:
                raise MissingWitnessError(tau)
            if any(t & ~(full ^ tmask) for t in g.x):
                raise ValueError(f"witness at tau={tau} reaches outside the complement of tau")
            outside = [b for b in range(n) if not tmask >> b & 1]
            base, gscale = nums[tmask], g.scale
            for ia, a in enumerate(outside):
                checks += 1
                if (nums[tmask | (1 << a)] - base) * gscale != g.num(1 << a) * scale:
                    return CertificateCheck(
                        False, checks, f"singleton equation failed at {a + 1}", tau
                    )
                for b in outside[ia + 1:]:
                    pm = (1 << a) | (1 << b)
                    checks += 1
                    if (nums[tmask | pm] - base) * gscale != g.num(pm) * scale:
                        return CertificateCheck(
                            False,
                            checks,
                            f"pair equation failed at {{{a + 1},{b + 1}}}",
                            tau,
                        )
    return CertificateCheck(True, checks)


def _verified(cert, check: CertificateCheck, what: str):
    """cert, once its own verification has passed; a failure is a bug."""
    if not check:
        raise InternalCheckError(f"{what} failed verification: {check.failure} at tau={check.tau}")
    return cert


def synth_strong_matroid(m: Matroid, cap: int = 14) -> StrongCertificate:
    """Strong certificate for a matroid rank table from parallel classes.

    After contracting tau, elements fall into loops and parallel classes; unit
    weight on each class realizes the contracted rank on singletons and pairs.
    The classes are read off the rank table, which also verifies the result.
    """
    n = len(m.elements)
    if n > cap:
        raise CapExceededError(f"{n} elements exceed cap {cap}")
    table = to_setfunction(m, "rank")
    witnesses: dict[tuple[int, ...], CoverageWeights] = {}
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            classes = parallel_partition(table, tmask).classes
            witnesses[labels_of(tmask)] = CoverageWeights(n, {mask_of(c): 1 for c in classes})
    cert = StrongCertificate(n, witnesses)
    return _verified(cert, verify_strong2cov(table, cert), "synthesized strong certificate")


def synth_2cov_indicator(m: Matroid, d: int, cap: int = 14) -> TwoCoverageCertificate:
    """Two-coverage certificate for the independence indicator of a matroid.

    For each independent tau of size d-2, the support is the non-loops of the
    contraction, g puts unit weight on each parallel class, and l is one on
    the support; dependent tau get the empty witness since every
    contracted pair value vanishes. Independence, the classes and the
    indicator checked against all come from one rank table.
    """
    n = len(m.elements)
    if n > cap:
        raise CapExceededError(f"{n} elements exceed cap {cap}")
    table = to_setfunction(m, "rank")
    full_rank = table.nums[-1]  # a rank table's scale is 1
    if not 2 <= d <= full_rank:
        raise ValueError(f"d={d} exceeds the matroid rank {full_rank}")
    witnesses: dict[tuple[int, ...], TwoCoverageWitness] = {}
    for tmask in masks_of_size(n, d - 2):
        independent = table.nums[tmask] == d - 2
        classes = parallel_partition(table, tmask).classes if independent else ()
        smask = mask_of(lab for c in classes for lab in c)
        witnesses[labels_of(tmask)] = TwoCoverageWitness(
            labels_of(smask),
            CoverageWeights(n, {mask_of(c): 1 for c in classes}),
            tuple(smask >> b & 1 for b in range(n)),
        )
    cert = TwoCoverageCertificate(n, d, witnesses)
    check = verify_2cov(independence_indicator(table), d, cert)
    return _verified(cert, check, "synthesized indicator certificate")


def synth_strong_from_parts(inst: CoverageInstance) -> StrongCertificate:
    """Strong certificate of a coverage instance, verified against its own
    materialization. The instance's weights x serve every tau: since
    f(tau + T) - f(tau) = sum of x_U over U missing tau and meeting T, the
    witness at tau is x restricted to the complement of tau."""
    n = inst.n
    weights = inst.weights()
    table = materialize(weights)
    witnesses: dict[tuple[int, ...], CoverageWeights] = {}
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            x = {u: v for u, v in weights.x.items() if not u & tmask}
            common = math.gcd(weights.scale, *x.values())  # to lowest terms
            witnesses[labels_of(tmask)] = CoverageWeights(
                n, {u: v // common for u, v in x.items()}, weights.scale // common
            )
    cert = StrongCertificate(n, witnesses)
    return _verified(cert, verify_strong2cov(table, cert), "coverage-built certificate")


@dataclass(frozen=True)
class SearchResult:
    feasible: bool
    support: tuple[int, ...]
    g: CoverageWeights | None
    ell: tuple[int, ...] | None  # l_i * g.scale, as in TwoCoverageWitness
    infeasibility: Fraction  # phase-1 optimum; positive certifies infeasibility

    def __bool__(self) -> bool:
        return self.feasible


@dataclass(frozen=True)
class TwoCoverageDecision:
    two_coverage: bool
    reason: str | None = None  # "decomposable" | "infeasible"
    tau: tuple[int, ...] | None = None
    infeasibility: Fraction | None = None  # positive phase-1 optimum when infeasible


def decide_2cov(f: SetFunctionTable, d: int, cap: int = 10) -> TwoCoverageDecision:
    """Decide two-coverage at degree d completely: every contracted derivative
    down to the quadratics must be indecomposable, and every |tau| = d-2 must
    admit a (g, l) witness, which search_2cov_feasible decides by exact LP.
    The first failure is reported; cap bounds each LP's support size."""
    if d < 2:
        raise ValueError("two-coverage needs d >= 2")
    for tmask, _, comps, _ in contraction_cells(f, d):
        if len(comps) > 1:
            return TwoCoverageDecision(False, "decomposable", labels_of(tmask))
    for tmask in masks_of_size(f.n, d - 2):
        tau = labels_of(tmask)
        result = search_2cov_feasible(f, d, tau, cap)
        if not result:
            return TwoCoverageDecision(False, "infeasible", tau, result.infeasibility)
    return TwoCoverageDecision(True)


def search_2cov_feasible(
    f: SetFunctionTable, d: int, tau, cap: int = 10
) -> SearchResult:
    """Decide whether a (g, l) witness exists for this tau, by exact LP.

    Variables are all 2^|S| - 1 coverage weights plus the l values; the pair
    equations are equalities and l({i}) <= g({i}) gets a slack. Weights on
    sets of size >= 3 matter (they feed several pair overlaps at once), so the
    search is complete and an infeasible verdict is a proof. Coefficients
    are plain ints except the -1/2 on the l values.
    """
    tmask = mask_of(tau)
    if tmask.bit_length() > f.n:
        raise ValueError("tau outside the ground set")
    if tmask.bit_count() != d - 2:
        raise ValueError(f"tau must have size d-2={d - 2}")
    pairs, smask = _pair_support(f, tmask)
    support = labels_of(smask)
    m = len(support)
    if m > cap:
        raise CapExceededError(f"|S|={m} exceeds cap {cap}")
    n = f.n
    if m == 0:
        return SearchResult(True, (), CoverageWeights(n, {}), (0,) * n, ZERO)
    bits = [1 << (lab - 1) for lab in support]
    cols = list(submasks(smask))[-2::-1]  # x_T for T inside S ascending, then l_i, then slack_i
    num_x = len(cols)
    rows: list[list] = []
    rhs: list = []
    minus_half = Fraction(-1, 2)
    for pm, value in pairs.items():
        if pm & ~smask:
            continue  # pair values off the support are zero by construction
        row = [1 if t & pm else 0 for t in cols] + [0] * (2 * m)
        for i, bit in enumerate(bits):
            if pm & bit:
                row[num_x + i] = minus_half
        rows.append(row)
        rhs.append(Fraction(value, f.scale))
    for i, bit in enumerate(bits):
        row = [1 if t & bit else 0 for t in cols] + [0] * (2 * m)
        row[num_x + i] = row[num_x + m + i] = -1
        rows.append(row)
        rhs.append(0)
    result = phase1(rows, rhs)
    if not result:
        return SearchResult(False, support, None, None, result.infeasibility)
    point = result.point
    ell = [0] * n
    for i, lab in enumerate(support):
        ell[lab - 1] = point[num_x + i]
    w = TwoCoverageWitness.of(support, n, {t: v for t, v in zip(cols, point) if v}, ell)
    return SearchResult(True, support, w.g, w.ell, ZERO)
