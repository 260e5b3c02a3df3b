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

Every subset is a bitmask over the table's own ground set [n]: the
certificate's keys tau, a witness's support S, and the masks of g, a
CoverageWeights(n, ...) inside the witness's ground set; l is an n-tuple of
integer numerators over g's denominator, one per element of [n].
Verification reads g through its per-tau singleton sums and pair overlaps,
so each equation is O(1), and compares integer numerators by
cross-multiplication. Labels and Fractions are built only for what is
printed: the tau of a failed check or decision, and the failure texts.

Synthesis verifies eagerly: the constructions encode proofs, so a synthesized
certificate that fails its own verification raises InternalCheckError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .bitsets import labels_of, masks_of_size, submasks
from .errors import CapExceededError, InputError, InternalCheckError, MissingWitnessError
from .logconcave import contraction_cells
from .matroids import Matroid, independence_indicator, parallel_partition, to_setfunction
from .setfn import CoverageWeights, SetFunctionTable, ZERO, integer_scaled, materialize
from .simplex import phase1


@dataclass(frozen=True)
class TwoCoverageWitness:
    support: int  # S, a mask over [n]
    g: CoverageWeights  # masks over [n], inside S
    ell: tuple[int, ...]  # l_i * g.scale for i in [n], zero outside S

    def __post_init__(self):
        if not {int}.issuperset(map(type, self.ell)):
            raise TypeError("l numerators must be ints")

    @classmethod
    def of(cls, support: int, n: int, g: Mapping, ell: Sequence) -> "TwoCoverageWitness":
        """The witness of exact values, S as a mask, g as {mask: x_T} and l
        as n values, written over one denominator in lowest terms."""
        nums, scale = integer_scaled([*g.values(), *ell])
        return cls(support, CoverageWeights(n, dict(zip(g, nums)), scale), tuple(nums[len(g):]))


@dataclass(frozen=True)
class TwoCoverageCertificate:
    n: int
    d: int
    witnesses: Mapping[int, TwoCoverageWitness]  # key: tau, a mask over [n]


@dataclass(frozen=True)
class StrongCertificate:
    n: int
    witnesses: Mapping[int, CoverageWeights]  # tau -> g, both masks over [n], g outside tau


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    checks: int
    failure: str | None = None
    tau: tuple[int, ...] | None = None  # labels

    def __bool__(self) -> bool:
        return self.ok


def _expect(cert, kind: type) -> None:
    """Refuse a certificate of the wrong kind, naming both kinds."""
    if not isinstance(cert, kind):
        raise InputError(f"expected a {kind.__name__}, found a {type(cert).__name__}")


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


def _sums(g: CoverageWeights, n: int) -> tuple[list[int], dict[int, int]]:
    """One pass over g's weights: the singleton sums a[i] = sum of x[T] over
    T holding i, for i in [n], and the pair overlaps {pair mask: sum of x[T]
    over T holding the pair}, nonzero pairs only. Then g({i}) = a[i] and
    g({i, j}) = a[i] + a[j] - overlap, each in O(1)."""
    a = [0] * n
    overlap: dict[int, int] = {}
    for t, v in g.x.items():
        bits = []
        while t:
            low = t & -t
            a[low.bit_length() - 1] += v
            for bit in bits:
                overlap[bit | low] = overlap.get(bit | low, 0) + v
            bits.append(low)
            t ^= low
    return a, overlap


def verify_2cov(
    f: SetFunctionTable, d: int, cert: TwoCoverageCertificate
) -> CertificateCheck:
    """Check both certificate conditions against f, exactly. A witness at a
    tau of a size other than d-2 is refused, as a missing one is."""
    if d < 2:
        raise InputError("two-coverage needs d >= 2")
    _expect(cert, TwoCoverageCertificate)
    if cert.n != f.n or cert.d != d:
        raise InputError("certificate dimensions do not match the table")
    stray = next((t for t in cert.witnesses if t.bit_count() != d - 2), None)
    if stray is not None:
        raise InputError(f"witness at tau={list(labels_of(stray))}: |tau| is not d-2={d - 2}")
    checks = 0
    for tmask, _, comps, _ in contraction_cells(f, d):
        checks += 1
        if len(comps) > 1:
            return CertificateCheck(
                False, checks, "contracted restriction is decomposable", labels_of(tmask)
            )
    return _witnesses_hold(f, d, cert, checks)


def _witnesses_hold(f: SetFunctionTable, d: int, cert, checks: int) -> CertificateCheck:
    """The witness conditions of `verify_2cov`, tau by tau, counted on from
    `checks`; the caller has checked the certificate's shape."""
    n = f.n
    for tmask in masks_of_size(n, d - 2):
        pairs, touched = _pair_support(f, tmask)
        witness = cert.witnesses.get(tmask)
        if witness is None:
            if touched:
                raise MissingWitnessError(labels_of(tmask))
            checks += 1
            continue
        smask, g, ell = witness.support, witness.g, witness.ell
        if len(ell) != n:
            raise InputError(f"witness at tau={labels_of(tmask)} has l over {len(ell)} elements, not n={n}")
        if any(v < 0 for v in ell):
            raise InputError(
                f"witness at tau={labels_of(tmask)} has a negative l value {Fraction(min(ell), g.scale)}"
            )
        off_support = any(v for b, v in enumerate(ell) if not smask >> b & 1)
        if off_support or any(t & ~smask for t in g.x):
            raise InputError(f"witness at tau={labels_of(tmask)} reaches outside S={labels_of(smask)}")
        if touched != smask:
            return CertificateCheck(
                False,
                checks + 1,
                f"support mismatch: expected {labels_of(touched)}, witness has {labels_of(smask)}",
                labels_of(tmask),
            )
        single, overlap = _sums(g, n)
        for b in range(n):
            if smask >> b & 1:
                checks += 1
                if ell[b] > single[b]:
                    return CertificateCheck(False, checks, f"l({b + 1}) exceeds g({b + 1})", labels_of(tmask))
        for pm, value in pairs.items():
            a, b = (pm & -pm).bit_length() - 1, pm.bit_length() - 1
            checks += 1
            if pm & ~smask:
                want = 0
            else:
                want = 2 * (single[a] + single[b] - overlap.get(pm, 0)) - ell[a] - ell[b]
            if value * 2 * g.scale != want * f.scale:
                return CertificateCheck(
                    False,
                    checks,
                    f"pair equation failed on {{{a + 1},{b + 1}}}: f_tau={Fraction(value, f.scale)}, "
                    f"certificate gives {Fraction(want, 2 * g.scale)}",
                    labels_of(tmask),
                )
    return CertificateCheck(True, checks)


def verify_strong2cov(
    f: SetFunctionTable, cert: StrongCertificate
) -> CertificateCheck:
    """Check f(tau + T) = g_tau(T) + f(tau) on all |T| in {1, 2}, all |tau| <= n-2;
    a witness at a larger tau is refused, as a missing one is."""
    n = f.n
    _expect(cert, StrongCertificate)
    if cert.n != n:
        raise InputError("certificate dimensions do not match the table")
    stray = next((t for t in cert.witnesses if t.bit_count() > n - 2), None)
    if stray is not None:
        raise InputError(f"witness at tau={list(labels_of(stray))}: |tau| exceeds n-2={n - 2}")
    full = (1 << n) - 1
    nums, scale = f.nums, f.scale
    checks = 0
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            g = cert.witnesses.get(tmask)
            if g is None:
                raise MissingWitnessError(labels_of(tmask))
            if any(t & ~(full ^ tmask) for t in g.x):
                raise InputError(f"witness at tau={labels_of(tmask)} reaches outside the complement of tau")
            outside = [b for b in range(n) if not tmask >> b & 1]
            base, gscale = nums[tmask], g.scale
            single, overlap = _sums(g, n)
            for ia, a in enumerate(outside):
                ta, ga = tmask | (1 << a), single[a]
                checks += 1
                if (nums[ta] - base) * gscale != ga * scale:
                    return CertificateCheck(
                        False, checks, f"singleton equation failed at {a + 1}", labels_of(tmask)
                    )
                for b in outside[ia + 1:]:
                    checks += 1
                    pair = ga + single[b]
                    if overlap:
                        pair -= overlap.get((1 << a) | (1 << b), 0)
                    if (nums[ta | (1 << b)] - base) * gscale != pair * scale:
                        return CertificateCheck(
                            False,
                            checks,
                            f"pair equation failed at {{{a + 1},{b + 1}}}",
                            labels_of(tmask),
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
    The classes are read off the rank table and not checked on their own:
    verifying the certificate against that table is the one check. With unit
    class weights, g(ab) is 0 for two loops, 1 within a class or with a
    loop and 2 across classes, so the pair equations over |tau| <= n-2 are
    the case table of the contracted pair ranks, and a failure (a rank
    oracle that is no matroid's) raises InternalCheckError.
    """
    n = m.n
    if n > cap:
        raise CapExceededError(f"{n} elements exceed cap {cap}")
    table = to_setfunction(m)
    empty = CoverageWeights(n, {})  # the witness of every tau that spans M
    witnesses: dict[int, CoverageWeights] = {}
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            classes = parallel_partition(table, tmask)
            witnesses[tmask] = CoverageWeights(n, dict.fromkeys(classes, 1)) if classes else empty
    cert = StrongCertificate(n, witnesses)
    return _verified(cert, verify_strong2cov(table, cert), "synthesized strong certificate")


def synth_2cov_indicator(m: Matroid, d: int, cap: int = 14) -> TwoCoverageCertificate:
    """Two-coverage certificate for the independence indicator of a matroid.

    For each independent tau of size d-2, the support is the non-loops of the
    contraction, g puts unit weight on each parallel class, and l is one on
    the support; dependent tau get the empty witness since every
    contracted pair value vanishes. Independence, the classes and the
    indicator checked against all come from one rank table; verifying the
    certificate against that indicator is the one check of the classes, and
    a failure raises InternalCheckError.
    """
    n = m.n
    if n > cap:
        raise CapExceededError(f"{n} elements exceed cap {cap}")
    table = to_setfunction(m)
    full_rank = table.nums[-1]  # a rank table's scale is 1
    if d < 2:
        raise InputError(f"need d >= 2, got d={d}")
    if d > full_rank:
        raise InputError(f"d={d} exceeds the matroid rank {full_rank}")
    witnesses: dict[int, TwoCoverageWitness] = {}
    for tmask in masks_of_size(n, d - 2):
        independent = table.nums[tmask] == d - 2
        classes = parallel_partition(table, tmask) if independent else ()
        smask = sum(classes)  # the classes are disjoint
        witnesses[tmask] = TwoCoverageWitness(
            smask, CoverageWeights(n, dict.fromkeys(classes, 1)), tuple(smask >> b & 1 for b in range(n))
        )
    cert = TwoCoverageCertificate(n, d, witnesses)
    check = verify_2cov(independence_indicator(table), d, cert)
    return _verified(cert, check, "synthesized indicator certificate")


def synth_strong_from_parts(weights: CoverageWeights, cap: int = 14) -> StrongCertificate:
    """Strong certificate of a coverage function, verified against its own
    materialization. The weights x serve every tau: since
    f(tau + T) - f(tau) = sum of x_U over U missing tau and meeting T, the
    witness at tau is x restricted to the complement of tau (n <= cap)."""
    n = weights.n
    if n > cap:
        raise CapExceededError(f"{n} elements exceed cap {cap}")
    table = materialize(weights)
    empty = CoverageWeights(n, {})  # the witness of every tau meeting each weight
    witnesses: dict[int, CoverageWeights] = {}
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            x = {u: v for u, v in weights.x.items() if not u & tmask}
            common = math.gcd(weights.scale, *x.values())  # to lowest terms
            witnesses[tmask] = CoverageWeights(
                n, {u: v // common for u, v in x.items()}, weights.scale // common
            ) if x else empty
    cert = StrongCertificate(n, witnesses)
    return _verified(cert, verify_strong2cov(table, cert), "coverage-built certificate")


@dataclass(frozen=True)
class SearchResult:
    witness: TwoCoverageWitness | None  # None when no witness exists
    infeasibility: Fraction  # phase-1 optimum; positive certifies infeasibility

    @property
    def feasible(self) -> bool:
        return self.witness is not None

    def __bool__(self) -> bool:
        return self.feasible


@dataclass(frozen=True)
class TwoCoverageDecision:
    two_coverage: bool
    reason: str | None = None  # "decomposable" | "infeasible"
    tau: tuple[int, ...] | None = None  # labels
    infeasibility: Fraction | None = None  # positive phase-1 optimum when infeasible


def decide_2cov(f: SetFunctionTable, d: int, cap: int = 10) -> TwoCoverageDecision:
    """Decide two-coverage at degree d completely: every contracted derivative
    down to the quadratics must be indecomposable, and every |tau| = d-2 must
    admit a (g, l) witness, which search_2cov_feasible decides by exact LP.
    The first failure is reported; cap bounds each LP's support size. The
    witnesses found are verified as one certificate, so a wrong LP column
    raises InternalCheckError rather than certifying."""
    if d < 2:
        raise InputError("two-coverage needs d >= 2")
    for tmask, _, comps, _ in contraction_cells(f, d):
        if len(comps) > 1:
            return TwoCoverageDecision(False, "decomposable", labels_of(tmask))
    witnesses = {}
    for tmask in masks_of_size(f.n, d - 2):
        result = search_2cov_feasible(f, d, tmask, cap)
        if not result:
            return TwoCoverageDecision(False, "infeasible", labels_of(tmask), result.infeasibility)
        witnesses[tmask] = result.witness
    cert = TwoCoverageCertificate(f.n, d, witnesses)
    _verified(cert, _witnesses_hold(f, d, cert, 0), "searched two-coverage certificate")
    return TwoCoverageDecision(True)


def search_2cov_feasible(
    f: SetFunctionTable, d: int, tau: int, cap: int = 10
) -> SearchResult:
    """Decide whether a (g, l) witness exists for the mask tau, by exact LP.

    Variables are all 2^|S| - 1 coverage weights plus the l values; the pair
    equations are equalities and l({i}) <= g({i}) gets a slack. Weights on
    sets of size >= 3 matter (they feed several pair overlaps at once), so the
    search is complete and an infeasible verdict is a proof. Every row is
    scaled by c = 2 f.scale into integers; the optimum is divided by c.
    """
    if not 0 <= tau < 1 << f.n:
        raise ValueError("tau outside the ground set")
    if tau.bit_count() != d - 2:
        raise ValueError(f"tau must have size d-2={d - 2}")
    pairs, smask = _pair_support(f, tau)
    n = f.n
    bits = [1 << b for b in range(n) if smask >> b & 1]
    m = len(bits)
    if m > cap:
        raise CapExceededError(f"|S|={m} exceeds cap {cap}")
    cols = list(submasks(smask))[-2::-1]  # x_T for T inside S ascending, then l_i, then slack_i
    pair_rows = [pm for pm in pairs if not pm & ~smask]  # pair values off S are zero
    rows = pair_rows + bits  # x_T meets the pair and singleton rows T meets
    singles = range(len(pair_rows), len(rows))
    c = 2 * f.scale  # every row is scaled by c
    columns = [(nz, [c] * len(nz)) for nz in ([r for r, rm in enumerate(rows) if t & rm] for t in cols)]
    for s, bit in zip(singles, bits):  # l_i
        nz = [r for r, pm in enumerate(pair_rows) if pm & bit]
        columns.append((nz + [s], [-f.scale] * len(nz) + [-c]))
    columns += [([s], [-c]) for s in singles]  # slack_i
    result = phase1(columns, [2 * pairs[pm] for pm in pair_rows] + [0] * m)
    if not result:
        return SearchResult(None, result.infeasibility / c)
    point = result.point
    ell = [0] * n
    for i, bit in enumerate(bits):
        ell[bit.bit_length() - 1] = point[len(cols) + i]
    g = {t: v for t, v in zip(cols, point) if v}
    return SearchResult(TwoCoverageWitness.of(smask, n, g, ell), ZERO)
