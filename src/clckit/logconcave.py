"""Exact log-concavity machinery.

Every sign decision is made by exact congruence diagonalization of a rational
symmetric matrix (Sylvester's law of inertia keeps the sign counts invariant
under congruence), never by a floating eigensolver, and fraction-free: the
drivers read each Hessian off the table's integer numerators and eliminate
it by Bareiss's rule. Floats appear only in test oracles cross-checking
these.

The two certification drivers apply the standard sufficient conditions for
complete log-concavity of a homogeneous multiaffine polynomial: every mixed
derivative down to the quadratics must be indecomposable, and every quadratic
derivative must have a Hessian with at most one positive eigenvalue. A
"certified" verdict means the sufficient conditions hold; "conditions-fail"
does not prove the opposite, except in the plain quadratic case where the
Hessian criterion is an exact characterization and the verdict upgrades to
"refuted".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_left
from itertools import accumulate, chain, combinations
from operator import or_
from typing import Sequence

from .bitsets import labels_of
from .errors import CapExceededError, InputError
from .polynomials import MultiaffinePolynomial, Polynomial, quadratic_hessian
from .setfn import SetFunctionTable, exact, integer_scaled

VERDICT_CERTIFIED = "certified"
VERDICT_CONDITIONS_FAIL = "conditions-fail"
VERDICT_REFUTED = "refuted"
VERDICT_VACUOUS = "vacuous"


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (n_pos, n_zero, n_neg) of a symmetric matrix."""

    n_pos: int
    n_zero: int
    n_neg: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_pos, self.n_zero, self.n_neg)


def inertia(matrix: Sequence[Sequence]) -> Inertia:
    """Exact inertia by fraction-free symmetric congruence diagonalization.

    Scaled to integers by the lcm of the denominators (ints pass through), the
    matrix is eliminated by Bareiss's rule T'[i][j] = (p T[i][j] - T[i][k]
    T[k][j]) // prev, p the pivot and prev the one before (1 at first). The
    trailing block is prev times the Schur complement, so each pivot counts an
    eigenvalue of the sign of p / prev: positive iff (p > 0) == (prev > 0). A
    zero pivot is swapped with a nonzero diagonal entry further down or else
    repaired by "add row/column j to row/column k", making the 2x2 hyperbolic
    block a pivot pair (1, 0, 1); both congruences are unimodular, so every
    division stays exact.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    if not {int}.issuperset(map(type, chain.from_iterable(a))):
        nums, _ = integer_scaled(list(chain.from_iterable(a)))
        a = [nums[i : i + m] for i in range(0, m * m, m)]
    if list(map(tuple, a)) != list(zip(*a)):
        i, j = next((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j] != a[j][i])
        raise ValueError(f"matrix is not symmetric at ({i},{j})")

    pos = zero = 0
    prev = 1
    for k in range(m):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][i] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # all trailing diagonal entries are zero here, so the new
                # pivot is exactly 2*a[off][k] != 0
                a[k] = [x + y for x, y in zip(a[k], a[off])]
                for row in a:
                    row[k] += row[off]
        p = a[k][k]
        pos += (p > 0) == (prev > 0)
        tail = a[k][k + 1 :]
        for row in a[k + 1 :]:
            aik = row[k]
            row[k + 1 :] = [(p * x - aik * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = p
    return Inertia(pos, zero, m - pos - zero)


@dataclass(frozen=True)
class IndecompResult:
    indecomposable: bool
    components: tuple[tuple[int, ...], ...]  # variable groups when decomposable (0 = y)

    def __bool__(self) -> bool:
        return self.indecomposable


def _components(columns: list[tuple[int, int]]) -> list[int]:
    """Connected components of a cell, as variable masks (bit 0 for y, bit i
    for x_i). Monomials are bits of a support bitset, and `columns` pairs each
    variable's bit with its column, the monomials that hold it. A component
    starts from one column and ORs in every column that meets the monomials
    reached so far, until a pass adds none; the columns left start the next."""
    comps = []
    while columns:
        (comp, reached), *columns = columns
        while columns:
            rest = []
            for bit, col in columns:
                if col & reached:
                    reached |= col
                    comp |= bit
                else:
                    rest.append((bit, col))
            if len(rest) == len(columns):
                break
            columns = rest
        comps.append(comp)
    return comps


def _component_labels(comps: list[int]) -> tuple[tuple[int, ...], ...]:
    """Variable indices (0 = y) per component, components by smallest index."""
    return tuple(
        tuple(v - 1 for v in labels_of(c)) for c in sorted(comps, key=lambda c: c & -c)
    )


def is_indecomposable(p: Polynomial) -> IndecompResult:
    """Connectivity of the variable co-occurrence graph; zero counts as
    indecomposable by convention."""
    multiaffine = isinstance(p, MultiaffinePolynomial)
    keys = [(0, key) if multiaffine else key for key in p.coeffs]  # (y-power, mask)
    if (0, 0) in keys:
        raise ValueError("constant term present")
    degrees = {ypow + m.bit_count() for ypow, m in keys}
    if len(degrees) > 1:
        raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
    monos = [m << 1 | (ypow > 0) for ypow, m in keys]
    columns = [sum(1 << j for j, mono in enumerate(monos) if mono >> v & 1) for v in range(p.n + 1)]
    comps = _components([(1 << v, col) for v, col in enumerate(columns) if col])
    if len(comps) <= 1:
        return IndecompResult(True, ())
    return IndecompResult(False, _component_labels(comps))


def quadratic_inertia(p: Polynomial) -> Inertia:
    """Inertia of the constant Hessian of a 2-homogeneous polynomial with
    nonnegative coefficients, which is log-concave iff n_pos <= 1 (the zero
    polynomial included). A negative coefficient raises InputError naming
    its monomial, since the criterion does not hold for it."""
    for key, c in p.coeffs.items():
        if c < 0:
            term = labels_of(key) if isinstance(key, int) else f"(y^{key[0]}, {labels_of(key[1])})"
            raise InputError(f"negative coefficient {c} on monomial {term}")
    return inertia(quadratic_hessian(p))


@dataclass(frozen=True)
class CertFailure:
    tau: tuple[int, ...]
    k: int | None  # y-derivative order; None for the homogeneous-part driver
    reason: str  # "decomposable" | "inertia"
    n_pos: int | None = None
    components: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class CertificationReport:
    verdict: str
    checks: int
    failure: CertFailure | None = None

    def __bool__(self) -> bool:
        return self.verdict in (VERDICT_CERTIFIED, VERDICT_VACUOUS)


def _supports(cols: list[int], n: int, size: int, everything: int):
    """(tau mask, support bitset) for the taus of one size in masks_of_size
    order: the AND of tau's columns. The taus that share all but their top
    element come in one run, and the AND of that head is taken once."""
    if not size:
        yield 0, everything
        return
    for head in combinations(range(n - 1), size - 1):
        hmask, hcell = 0, everything
        for b in head:
            hmask |= 1 << b
            hcell &= cols[b]
        for top in range(head[-1] + 1 if head else 0, n):
            yield hmask | 1 << top, hcell & cols[top]


def contraction_cells(f: SetFunctionTable, d: int | None):
    """Sweep the contracted derivatives of f^(d), or of q_f when d is None.

    Yields (tau mask, k, components, quadratic) per cell: contraction sets tau
    by increasing size in masks_of_size order and, for q_f, the y-orders k of
    d^tau d_y^k q_f nested inside. `components` lists the cell's connected
    variable masks, bit 0 for y and bit i for x_i (empty for a zero cell).
    f^(d) has the cells |tau| <= d-2 with k None; q_f has k + |tau| <= n-1,
    where the monomial x^S keeps y^(n+1-|S|-k). `quadratic` marks the last
    cells, those of degree 2.

    Supports are bitsets over the support list, which is ordered by |S| so
    that each size is one contiguous bit range; the column of x_i holds the
    monomials containing i, and `_components` grows the components from the
    columns within tau's support. An f^(d) cell holds only monomials of size
    d, so its columns go to `_components` as they are. In the q_f cell whose
    top size is t = n+1-k, the monomials with |S| < t carry y, and a
    variable's first size is that of the lowest bit of its column. So the
    cell is one component when some monomial lies below t and no variable
    first appears at t; otherwise its columns, trimmed to sizes <= t, and
    the column of y go to `_components`.
    """
    n = f.n
    if d is None:
        support, last = sorted(f.support(), key=int.bit_count), n - 1
    else:
        if not 0 <= d <= n:
            raise InputError(f"degree {d} out of range for n={n}")
        support, last = f.support(d), d - 2
    sizes = [s.bit_count() for s in support]
    below = [(1 << bisect_left(sizes, t)) - 1 for t in range(n + 3)]  # the monomials of size < t
    cols = []  # cols[i]: bit j set iff i is in support[j], read off one byte of the masks at a time
    for lo in range(0, n, 8):
        octets = bytes([s >> lo & 255 for s in reversed(support)])
        for b in range(min(8, n - lo)):
            digit_of = bytes(b"01"[x >> b & 1] for x in range(256))
            cols.append(int(octets.translate(digit_of) or b"0", 2))
    for size in range(last + 1):
        for tmask, cell in _supports(cols, n, size, below[-1]):
            found = [
                (2 << v, col) for v in range(n) if not tmask >> v & 1 and (col := cols[v] & cell)
            ]
            if d is not None:  # every monomial has size d: the columns are the cell's
                yield tmask, None, _components(found), size == last
                continue
            c0 = sizes[(cell & -cell).bit_length() - 1] if cell else n + 2  # smallest size in it
            firsts = [sizes[(col & -col).bit_length() - 1] for _, col in found]
            first = [0] * (n + 2)  # first[s]: the variables whose first size is s
            for (bit, _), s in zip(found, firsts):
                first[s] |= bit
            upto = list(accumulate(first, or_))  # upto[t]: the variables of sizes <= t
            for k in range(n - size):
                t = n + 1 - k
                if c0 < t and not first[t]:
                    comps = [upto[t] | 1]  # each top monomial meets the y component
                else:
                    within = below[t + 1]
                    trim = cell > within
                    columns = [
                        (bit, col & within if trim else col)
                        for (bit, col), s in zip(found, firsts)
                        if s <= t
                    ]
                    if c0 < t:
                        columns.append((1, cell & below[t]))  # the column of y
                    comps = _components(columns)
                yield tmask, k, comps, k == last - size


def _quadratic_hessian(vals: Sequence[int], n: int, tmask: int, k: int | None) -> list[list[int]]:
    """Hessian of a quadratic cell on the coordinates outside tau, read from
    the table's numerators `vals` over [n] (scaled by f's positive
    denominator): f(tau+ij) off the diagonal and, for the q_f cell scaled by
    1/k! (a positive constant), y in row 0 with (m+1)m f(tau) and m f(tau+i),
    where m = n - |tau|."""
    rest = [1 << b for b in range(n) if not tmask >> b & 1]
    h = [[vals[tmask | a | b] if a != b else 0 for b in rest] for a in rest]
    if k is None:
        return h
    m = len(rest)
    return [[(m + 1) * m * vals[tmask]] + [m * vals[tmask | a] for a in rest]] + [
        [m * vals[tmask | a]] + row for a, row in zip(rest, h)
    ]


def _certify(f: SetFunctionTable, d: int | None) -> CertificationReport:
    """Both drivers: the sufficient conditions on f^(d), or on q_f when d is None.

    Saturated tables repeat their Hessians across tau, so each distinct one
    is built and diagonalized once per sweep: `n_pos_of` maps a Hessian's
    key, the table numerators of its upper triangle (and, for q_f, of its y
    row), to its n_pos and lives only for this call. The key's length fixes
    the dimension, so equal keys are equal Hessians."""
    n, nums = f.n, f.nums
    checks = 0
    n_pos_of: dict[tuple[int, ...], int] = {}
    for tmask, k, comps, quadratic in contraction_cells(f, d):
        if not checks and not comps:
            # the first cell is the polynomial itself
            return CertificationReport(VERDICT_VACUOUS, 0)
        checks += 1
        # a plain quadratic (d = 2) is decided by its Hessian even when decomposable
        if comps and quadratic and (d == 2 or len(comps) == 1):
            rest = [tmask | 1 << b for b in range(n) if not tmask >> b & 1]
            key = tuple([nums[a | b] for a, b in combinations(rest, 2)])
            if k is not None:
                key += (nums[tmask], *[nums[a] for a in rest])
            n_pos = n_pos_of.get(key)
            if n_pos is None:
                n_pos = n_pos_of[key] = inertia(_quadratic_hessian(nums, n, tmask, k)).n_pos
            checks += 1
            if n_pos > 1:
                verdict = VERDICT_REFUTED if d == 2 else VERDICT_CONDITIONS_FAIL
                return CertificationReport(
                    verdict, checks, CertFailure(labels_of(tmask), k, "inertia", n_pos=n_pos)
                )
        if len(comps) > 1:
            return CertificationReport(
                VERDICT_CONDITIONS_FAIL,
                checks,
                CertFailure(
                    labels_of(tmask), k, "decomposable", components=_component_labels(comps)
                ),
            )
    # no cell at all: n = 0, where q_f = f(empty) y is the zero polynomial
    return CertificationReport(VERDICT_CERTIFIED if checks else VERDICT_VACUOUS, checks)


def certify_clc_homogeneous(
    f: SetFunctionTable, d: int, cap: int = 14
) -> CertificationReport:
    """Run the sufficient conditions on the degree-d restriction of f.

    Derivative multi-indices reduce to subsets because the generating
    polynomial is multiaffine. Contraction sets are swept by increasing size
    in lexicographic order and the first failure is reported. For d = 2 the
    single quadratic cell is an exact characterization, so an inertia failure
    there refutes log-concavity outright.
    """
    n = f.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds cap {cap}")
    if not 2 <= d <= n:
        raise InputError(f"need 2 <= d <= n, got d={d}, n={n}")
    return _certify(f, d)


def certify_clc_homogenization(
    f: SetFunctionTable, cap: int = 12
) -> CertificationReport:
    """Run the sufficient conditions on the homogenization q_f of degree n+1.

    Cells are the mixed derivatives d^tau d_y^k q_f with k + |tau| <= n - 1;
    the cells with k + |tau| = n - 1 are quadratic and get the Hessian check,
    with entries read straight from the table after scaling by the positive
    constant 1/k!, which keeps the matrices in their conventional normalized
    form without changing any eigenvalue sign.
    """
    n = f.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds cap {cap}")
    return _certify(f, None)


@dataclass(frozen=True)
class UlcResult:
    holds: bool
    failing_k: int | None

    def __bool__(self) -> bool:
        return self.holds


def ulc_check(sequence: Sequence) -> UlcResult:
    """Ultra-log-concavity of c_0..c_n against the binomials C(n+1, k):

        (c_k / C(n+1,k))^2 >= (c_{k-1} / C(n+1,k-1)) (c_{k+1} / C(n+1,k+1))

    for 1 < k < n, exactly; vacuously true when n <= 2."""
    c = [exact(v) for v in sequence]
    if any(v < 0 for v in c):
        raise ValueError("sequence must be nonnegative")
    n = len(c) - 1
    for k in range(2, n):
        lhs = (c[k] / math.comb(n + 1, k)) ** 2
        rhs = (c[k - 1] / math.comb(n + 1, k - 1)) * (c[k + 1] / math.comb(n + 1, k + 1))
        if lhs < rhs:
            return UlcResult(False, k)
    return UlcResult(True, None)
