"""Independent oracles for the core exact routines.

Each oracle here derives the same quantity by a different route: inertia via
exact characteristic polynomials and Descartes' rule (exact for symmetric
matrices, whose roots are all real), LP feasibility via basic-solution
enumeration, multivariate mutual information via its closed alternating-sum
form, the homogenization quadratics via their closed entry formulas computed
straight from the table, the support-mask contraction sweep via derived
polynomials and a breadth-first search, and its support bitsets via the
per-cell sweep that merges every monomial, the drivers' per-sweep inertia
memo via a sweep that diagonalizes every quadratic cell, the sliced
zeta/Moebius kernel via the per-mask loop, the integer table loader via
one `Fraction` per entry, strong coverage synthesis via
one Moebius inversion per contraction, matroid certificates read off the
rank table via parallel classes asked of the oracle per contraction, the
integer revised phase-1 simplex via
the same pivots on a Fraction tableau, and the walk's integer kernels via
dense Fraction powering and a per-step Fraction candidate rebuild drawing
one `rng.bytes` call per draw, the mixing floor via the swap classes of
a breadth-first search, and `bitsets.components` via union-find.
"""
import json
import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clckit import (
    CoverageWeights,
    ExplicitMatroid,
    GraphicMatroid,
    SetFunctionTable,
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
    UniformMatroid,
    certify_clc_homogeneous,
    certify_clc_homogenization,
    independence_indicator,
    inertia,
    materialize,
    mixing_time_exact,
    quadratic_hessian,
    sample_chain,
    synth_strong_from_parts,
    transition_matrix,
    verify_2cov,
    verify_strong2cov,
    walk_instance,
)
from clckit import coverage2, walk
from clckit.bitsets import components, labels_of, mask_of, subset_transform
from clckit.errors import InputError, MissingWitnessError
from clckit.logconcave import contraction_cells, is_indecomposable
from clckit.jsonio import dump_certificate, load_set_function
from clckit.matroids import to_setfunction
from clckit.polynomials import (
    HomogenizedPolynomial,
    MultiaffinePolynomial,
    derive,
    generating_poly,
    homogenize,
    scale,
)
from clckit.setfn import homogeneous_restrict
from clckit.simplex import phase1
from clckit.walk import make_rng, philox_words, step

from conftest import (
    CoverageInstance,
    budget_additive_eleven,
    certify_oracle,
    components_oracle,
    contraction_cells_oracle,
    coverage_instances,
    dense_of,
    dense_phase1,
    fraction_rows,
    int_columns,
    inertia_oracle,
    is_irreducible,
    load_set_function_oracle,
    materialize_oracle,
    mixing_time_oracle,
    mmi,
    mobius_oracle,
    phase1_oracle,
    rand_coverage_instance,
    rand_partition_matroid,
    rand_symmetric,
    rand_table,
    reference_2cov_indicator,
    reference_strong_matroid,
    sample_chain_oracle,
    step_oracle,
    subset_transform_oracle,
    swap_classes,
    symmetric_matrices,
    transition_matrix_oracle,
    verify_2cov_oracle,
    verify_strong2cov_oracle,
)


# --- inertia vs exact characteristic polynomial -----------------------------


def char_poly(a):
    """Coefficients of det(lambda I - A) by Faddeev-LeVerrier, exact."""
    m = len(a)
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        shifted = [row[:] for row in mk]
        for i in range(m):
            shifted[i][i] += coeffs[-1]
        mk = [
            [sum(a[i][t] * shifted[t][j] for t in range(m)) for j in range(m)]
            for i in range(m)
        ]
        ck = -sum(mk[i][i] for i in range(m)) / k
        coeffs.append(ck)
    return coeffs  # highest degree first


def descartes_inertia(a):
    """(n_pos, n_zero, n_neg) from sign changes; exact for all-real roots."""
    coeffs = char_poly(a)
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1

    def changes(seq):
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    n_pos = changes(coeffs)
    flipped = [c if (len(coeffs) - 1 - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    n_neg = changes(flipped)
    return (n_pos, n_zero, n_neg)


def test_inertia_matches_characteristic_polynomial():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 6)
        h = rand_symmetric(rng, m)
        assert inertia(h).as_tuple() == descartes_inertia(h)


@given(symmetric_matrices())
@example([[0, 1], [1, 2]])  # zero pivot, swap
@example([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # repair, then a zero row
@example([[0, -3], [-3, 0]])
@settings(max_examples=150, deadline=None)
def test_inertia_matches_fraction_oracle(h):
    assert inertia(h) == inertia_oracle(h)


def test_inertia_on_degenerate_matrices():
    # sums of +-rank-one pieces produce plenty of exact zero eigenvalues
    rng = random.Random(17)
    for _ in range(150):
        m = rng.randint(2, 6)
        h = [[Fraction(0)] * m for _ in range(m)]
        for _ in range(rng.randint(0, m - 1)):
            v = [Fraction(rng.randint(-2, 2)) for _ in range(m)]
            sign = rng.choice((1, -1))
            for i in range(m):
                for j in range(m):
                    h[i][j] += sign * v[i] * v[j]
        assert inertia(h).as_tuple() == descartes_inertia(h)


# --- phase-1 simplex vs basic-solution enumeration ---------------------------


def brute_feasible(a, b):
    """Enumerate candidate basic solutions: a system Ax = b with x >= 0 is
    feasible iff some independent column subset solves it nonnegatively."""
    m, n = len(a), len(a[0])
    for size in range(0, m + 1):
        for cols in combinations(range(n), size):
            sol = _solve_columns(a, b, cols)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def _solve_columns(a, b, cols):
    """Unique exact solution of A[:, cols] x = b, or None if the columns are
    dependent or the system inconsistent."""
    m = len(a)
    k = len(cols)
    aug = [[a[i][c] for c in cols] + [b[i]] for i in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            return None  # dependent columns
        aug[row], aug[piv] = aug[piv], aug[row]
        pivots.append(col)
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            return None  # inconsistent
    return [aug[i][k] for i in range(len(pivots))]


def test_phase1_matches_brute_force():
    rng = random.Random(29)
    agree_feasible = agree_infeasible = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        exact = dense_phase1(a, b)
        brute = brute_feasible(a, b)
        assert exact.feasible == brute
        if brute:
            agree_feasible += 1
            for i in range(m):
                assert sum(a[i][j] * exact.point[j] for j in range(n)) == b[i]
        else:
            agree_infeasible += 1
    assert agree_feasible and agree_infeasible  # both branches exercised


# --- integer revised phase-1 simplex vs the Fraction tableau ---------------------


def rand_lp(rng):
    """A small system A x = b with mixed denominators, negative right-hand
    sides, and (by family) feasible right-hand sides, redundant or
    contradictory copies of rows, and 0/1 rows whose ratios tie."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    family = rng.choice(("mixed", "planted", "redundant", "ties"))
    if family == "ties":
        a = [[rng.choice((0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((0, 1, 2)) for _ in range(m)]
        return a, b

    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

    a = [[entry() for _ in range(n)] for _ in range(m)]
    if family == "planted":
        x0 = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) * (rng.random() < 0.5) for _ in range(n)]
        b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
    else:
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
    if family == "redundant":
        c1, c2 = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(1, 3))
        i, k = rng.randrange(m), rng.randrange(m)
        a.append([c1 * x + c2 * y for x, y in zip(a[i], a[k])])
        b.append(c1 * b[i] + c2 * b[k] + rng.choice((0, 0, 1)))
    return a, b


def first_pivot_ties(a, b) -> bool:
    """Whether the first entering column of the phase-1 tableau has two rows
    at the minimum ratio, so Bland's tie-break picks the leaving row."""
    rows = [[-Fraction(v) for v in (*r, s)] if s < 0 else [Fraction(v) for v in (*r, s)] for r, s in zip(a, b)]
    n = len(a[0])
    enter = next((j for j in range(n) if sum(r[j] for r in rows) > 0), None)
    if enter is None:
        return False
    ratios = sorted(r[n] / r[enter] for r in rows if r[enter] > 0)
    return len(ratios) > 1 and ratios[0] == ratios[1]


# Each column shape `phase1` prices apart, entered by a pivot: one nonzero
# (columns 0 and 1 of the first), a uniform column made mixed by a row with
# b_i < 0 (column 0 of the second and third), a uniform negative column
# (column 3 of the fourth) and a mixed column made uniform (column 1 of the
# fifth); the third and fifth hold an all-zero column, ([], []) in
# `int_columns`.
PRICING_SHAPES = [
    ([[0, 0, -2, 0], [2, -1, -2, -2]], [-1, -1]),
    ([[1, 0], [1, -1]], [2, -2]),
    ([[-1, 2, 0], [0, 1, 0], [-1, -1, 0]], [2, 3, -1]),
    ([[-1, 3, 1, 2], [-1, 0, 0, 2], [-1, 0, 1, 0]], [-2, -1, -2]),
    ([[-1, -1, 0], [2, 1, 0], [2, 0, 0]], [-2, 3, 1]),
]


def test_integer_phase1_matches_fraction_tableau():
    rng = random.Random(4)
    feasible = infeasible = ties = 0
    for a, b in [*PRICING_SHAPES, *(rand_lp(rng) for _ in range(400))]:
        got = dense_phase1(a, b)
        assert got == phase1_oracle(a, b)  # verdict, point, optimum and pivots
        feasible += got.feasible
        infeasible += not got.feasible
        ties += first_pivot_ties(a, b)
    assert feasible >= 100 and infeasible >= 100 and ties >= 30


def test_phase1_scaling_keeps_pivots_and_point():
    # Bland's rule reads only signs and ratios, which a uniform c > 0 keeps
    rng = random.Random(12)
    feasible = infeasible = 0
    for _ in range(200):
        columns, b, _ = int_columns(*rand_lp(rng))
        c = rng.randint(2, 60)
        got = phase1(columns, b)
        scaled = phase1([(nz, [c * v for v in vals]) for nz, vals in columns], [c * v for v in b])
        assert (scaled.feasible, scaled.point, scaled.pivots) == (got.feasible, got.point, got.pivots)
        assert scaled.infeasibility == c * got.infeasibility
        feasible += got.feasible
        infeasible += not got.feasible
    assert feasible >= 50 and infeasible >= 50


@pytest.mark.parametrize(
    "a, b, entered",
    [
        # rand_lp(random.Random(4)) draws 156 and 251: row 0's and row 2's
        # artificial leave the basis and enter it again
        ([[1, 0], [1, 1], [0, 2]], [2, 2, 0], [0, 1, 2]),
        ([[2, 1, 1], [1, 0, 2], [1, 2, 0], [0, 0, 1]], [1, 2, 1, 2], [0, 1, 2, 5]),
    ],
)
def test_artificial_reentry_matches_fraction_tableau(a, b, entered):
    seen = []
    assert dense_phase1(a, b) == phase1_oracle(a, b, seen)
    assert seen == entered  # the last pivot brings an artificial column back


def test_search_lps_match_fraction_tableau(monkeypatch):
    rng = random.Random(9)
    verdicts = []

    def both(columns, b):
        got = phase1(columns, b)
        assert got == phase1_oracle(dense_of(columns, b), b)
        verdicts.append(got.feasible)
        return got

    monkeypatch.setattr(coverage2, "phase1", both)
    for _ in range(40):
        n = rng.randint(2, 6)
        d = rng.randint(2, min(3, n))
        kind = rng.choice(("random", "random", "coverage", "matroid"))
        if kind == "random":
            q = rng.randint(1, 3)
            f = rand_table(rng, n, max_value=rng.choice((1, 4)))
            f = SetFunctionTable.of(n, [f[m] / q for m in range(1 << n)])
        elif kind == "coverage":
            f = materialize(rand_coverage_instance(rng, n, universe_size=4).weights())
        else:
            f = independence_indicator(to_setfunction(rand_partition_matroid(rng, n)))
        for tau in combinations(range(1, n + 1), d - 2):
            coverage2.search_2cov_feasible(f, d, mask_of(tau))
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


# --- recursive MMI vs its closed alternating-sum form -------------------------


def test_mmi_matches_alternating_entropy_sum():
    import itertools
    import math

    rng = random.Random(37)

    def entropy(joint, mask, n):
        marg = {}
        idx = [b for b in range(n) if mask >> b & 1]
        for outcome, p in joint.pmf.items():
            if p:
                key = tuple(outcome[b] for b in idx)
                marg[key] = marg.get(key, 0.0) + p
        return -math.fsum(p * math.log2(p) for p in marg.values() if p > 0)

    from clckit import JointDistribution

    for _ in range(30):
        n = rng.randint(2, 4)
        outcomes = list(itertools.product((0, 1), repeat=n))
        raw = [rng.random() for _ in outcomes]
        total = sum(raw)
        joint = JointDistribution((2,) * n, dict(zip(outcomes, (r / total for r in raw))))
        labels = list(range(1, n + 1))
        for tsize in range(1, n + 1):
            for T in combinations(labels, tsize):
                rest = [x for x in labels if x not in T]
                for csize in range(len(rest) + 1):
                    for C in combinations(rest, csize):
                        cmask = sum(1 << (x - 1) for x in C)
                        closed = 0.0
                        for usize in range(tsize + 1):
                            for U in combinations(T, usize):
                                umask = sum(1 << (x - 1) for x in U)
                                closed -= (-1) ** usize * entropy(
                                    joint, umask | cmask, n
                                )
                        assert abs(mmi(joint, T, C) - closed) <= 1e-9


# --- homogenization quadratics vs their closed entry formulas -----------------


def test_homogenization_quadratic_hessian_entries():
    import math

    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 5)
        vals = [Fraction(0)] + [Fraction(rng.randint(0, 5)) for _ in range(2**n - 1)]
        f = SetFunctionTable.of(n, vals)
        q = homogenize(f)
        for tmask in range(1 << n):
            size = tmask.bit_count()
            if size > n - 1:
                continue
            tau = [i + 1 for i in range(n) if tmask >> i & 1]
            k = n - 1 - size
            m = n - size
            quad = scale(derive(q, tau, k), Fraction(1, math.factorial(k)))
            h = quadratic_hessian(quad)
            # entries straight from the table: (m+1)m f(tau) at (0,0),
            # m f(tau+{i}) on the y row, f(tau+{i,j}) inside
            expect = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
            expect[0][0] = (m + 1) * m * f[tmask]
            for i in range(n):
                if tmask >> i & 1:
                    continue
                expect[0][i + 1] = expect[i + 1][0] = m * f[tmask | (1 << i)]
                for j in range(i + 1, n):
                    if tmask >> j & 1:
                        continue
                    pair = f[tmask | (1 << i) | (1 << j)]
                    expect[i + 1][j + 1] = expect[j + 1][i + 1] = pair
            assert h == expect


# --- the contraction sweep vs a polynomial-level reference ---------------------


def bfs_components(p):
    """Variable groups (0 = y) of the co-occurrence graph of p's monomials,
    by breadth-first search, ordered by smallest member."""
    adj = {}
    for key in p.coeffs:
        ypow, m = key if isinstance(key, tuple) else (0, key)
        group = ({0} if ypow else set()) | {i + 1 for i in range(p.n) if m >> i & 1}
        for v in group:
            adj.setdefault(v, set()).update(group)
    seen, comps = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v] - seen:
                seen.add(w)
                queue.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_homogeneous(f, d, inertia_of=inertia):
    """(verdict, checks, failure) of the sufficient conditions on f^(d), from
    derived polynomials and their `Fraction` Hessians; the failure is (tau, k,
    reason, n_pos, components)."""
    p = generating_poly(homogeneous_restrict(f, d))
    if not p.coeffs:
        return ("vacuous", 0, None)
    checks = 0
    for size in range(d - 1):
        for tau in combinations(range(1, f.n + 1), size):
            q = derive(p, tau)
            checks += 1
            comps = bfs_components(q)
            quadratic = size == d - 2 and bool(q.coeffs)
            if quadratic and (d == 2 or len(comps) == 1):
                n_pos = inertia_of(quadratic_hessian(q)).n_pos
                checks += 1
                if n_pos > 1:
                    verdict = "refuted" if d == 2 else "conditions-fail"
                    return (verdict, checks, (tau, None, "inertia", n_pos, None))
            if len(comps) > 1:
                return ("conditions-fail", checks, (tau, None, "decomposable", None, comps))
    return ("certified", checks, None)


def reference_homogenization(f, inertia_of=inertia):
    """The same on q_f, with each quadratic cell scaled by 1/k!."""
    n = f.n
    q = homogenize(f)
    if not q.coeffs:
        return ("vacuous", 0, None)
    checks = 0
    for size in range(n):
        for tau in combinations(range(1, n + 1), size):
            base = derive(q, tau)
            for k in range(n - size):
                qd = derive(base, (), k)
                checks += 1
                comps = bfs_components(qd)
                if len(comps) > 1:
                    return ("conditions-fail", checks, (tau, k, "decomposable", None, comps))
                if k == n - 1 - size and qd.coeffs:
                    quad = scale(qd, Fraction(1, factorial(k)))
                    n_pos = inertia_of(quadratic_hessian(quad)).n_pos
                    checks += 1
                    if n_pos > 1:
                        return ("conditions-fail", checks, (tau, k, "inertia", n_pos, None))
    return ("certified", checks, None)


def as_tuple(report):
    f = report.failure
    if f is None:
        return (report.verdict, report.checks, None)
    return (report.verdict, report.checks, (f.tau, f.k, f.reason, f.n_pos, f.components))


def rand_sweep_table(rng, n):
    kind = rng.choice(("dense", "sparse", "levels", "zero"))
    vals = [Fraction(0)] * (1 << n)
    sizes = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
    for m in range(1, 1 << n):
        if kind == "dense":
            vals[m] = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        elif kind == "sparse" and rng.random() < 0.2:
            vals[m] = Fraction(rng.randint(1, 5))
        elif kind == "levels" and m.bit_count() in sizes and rng.random() < 0.7:
            vals[m] = Fraction(rng.randint(1, 2))
    return SetFunctionTable.of(n, vals)


def test_sweep_matches_polynomial_reference():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(320):
        f = rand_sweep_table(rng, rng.randint(2, 6))
        pairs = [(as_tuple(certify_clc_homogenization(f)), reference_homogenization(f))]
        for d in range(2, f.n + 1):
            pairs.append((as_tuple(certify_clc_homogeneous(f, d)), reference_homogeneous(f, d)))
        for got, want in pairs:
            assert got == want
            outcomes.add((got[0], got[2] and got[2][2]))
    # every verdict and failure kind is exercised
    assert outcomes >= {
        ("vacuous", None),
        ("certified", None),
        ("refuted", "inertia"),
        ("conditions-fail", "inertia"),
        ("conditions-fail", "decomposable"),
    }


def chain_far_to_near(k):
    """k columns, the i-th holding items i and i+1, listed as the first and
    then from the far end, so that each pass of the growth adds one column."""
    columns = [(1 << i, 3 << i) for i in range(k)]
    return columns[:1] + columns[:0:-1]


@pytest.mark.parametrize(
    "columns",
    [
        [],
        [(1, 0)],
        [(4, 0b11), (1, 0), (2, 0b110)],
        [(8, 0b101)],
        [(1 << i, 1 << i) for i in range(40)],
        chain_far_to_near(40),
    ],
    ids=["none", "zero", "zero-among-linked", "single", "singletons", "chain-far-to-near"],
)
def test_components_matches_union_find_on_fixed_columns(columns):
    assert sorted(components(columns)) == sorted(components_oracle(columns))


def test_components_matches_union_find():
    # variables on scattered bits, columns over a few items, some of them zero
    rng = random.Random(67)
    sizes = set()
    for _ in range(2000):
        bits = [1 << b for b in rng.sample(range(24), rng.randint(0, 12))]
        items = rng.randint(1, 16)
        density = rng.choice((0.05, 0.15, 0.4))
        columns = [
            (bit, sum(1 << j for j in range(items) if rng.random() < density)) for bit in bits
        ]
        got = components(columns)
        assert sorted(got) == sorted(components_oracle(columns))
        sizes.add(len(got))
    assert set(range(13)) <= sizes


def test_is_indecomposable_matches_bfs_components():
    # multiaffine and homogenized polynomials with a few monomials of one
    # degree: the verdict and the component labels against the search
    rng = random.Random(61)
    split = 0
    for _ in range(1000):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            degree = rng.randint(1, n)
            pool = [m for m in range(1 << n) if m.bit_count() == degree]
            make = MultiaffinePolynomial
        else:
            degree = rng.randint(1, n + 1)
            pool = [(degree - m.bit_count(), m) for m in range(1 << n) if m.bit_count() <= degree]
            make = HomogenizedPolynomial
        p = make(n, dict.fromkeys(rng.sample(pool, rng.randint(0, min(6, len(pool)))), 1))
        got, want = is_indecomposable(p), bfs_components(p)
        assert got.indecomposable == (len(want) <= 1)
        assert got.components == (() if got else want)
        split += not got
    assert split >= 100


def test_drivers_match_oracle_reference_on_mixed_denominators():
    # the drivers scale each table to integers once, over the lcm of values
    # with several denominators; the reference reads the Fraction Hessians
    # of derived polynomials and diagonalizes them with the Fraction oracle
    rng = random.Random(53)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(2, 5)
        dense = rng.random()
        vals = [Fraction(0)] * (1 << n)
        for m in range(1, 1 << n):
            if rng.random() < dense:
                vals[m] = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 5, 7, 9)))
        f = SetFunctionTable.of(n, vals)
        pairs = [(as_tuple(certify_clc_homogenization(f)), reference_homogenization(f, inertia_oracle))]
        for d in range(2, n + 1):
            pairs.append(
                (as_tuple(certify_clc_homogeneous(f, d)), reference_homogeneous(f, d, inertia_oracle))
            )
        for got, want in pairs:
            assert got == want
            outcomes.add((got[0], got[2] and got[2][2]))
    assert outcomes >= {
        ("certified", None),
        ("refuted", "inertia"),
        ("conditions-fail", "inertia"),
        ("conditions-fail", "decomposable"),
    }


@st.composite
def sweep_tables(draw):
    """Tables with n <= 7: zero, sparse to full supports, on every size or
    on a few (one level included), values 1..3."""
    n = draw(st.integers(0, 7))
    density = draw(st.sampled_from((0.0, 0.05, 0.2, 0.5, 0.9, 1.0)))
    sizes = draw(st.sets(st.integers(1, max(n, 1)), min_size=1)) if draw(st.booleans()) else None
    rng = random.Random(draw(st.integers(0, 2**32)))
    vals = [0] * (1 << n)
    for m in range(1, 1 << n):
        if (sizes is None or m.bit_count() in sizes) and rng.random() < density:
            vals[m] = rng.randint(1, 3)
    return SetFunctionTable(n, vals)


def _cell_stream(cells):
    return [(tmask, k, sorted(comps), quadratic) for tmask, k, comps, quadratic in cells]


def direct_sum_ten() -> SetFunctionTable:
    """g + h on the disjoint variable sets {1..5} and {6..10}: g(S) = |S| on
    the sets of size <= 3 in the first, h = 1 on the 3-sets of the second.
    f^(d) splits at tau = {} for d = 3, and so does the q_f cell with top
    size 3, where the y component holds only g's variables."""
    low, high = 0b11111, 0b11111 << 5
    return SetFunctionTable(
        10,
        [
            m.bit_count() if m and not m & high and m.bit_count() <= 3
            else int(not m & low and m.bit_count() == 3)
            for m in range(1 << 10)
        ],
    )


@settings(max_examples=200, deadline=None)
@given(f=sweep_tables())
@example(f=SetFunctionTable(3, [0] * 8))
@example(f=SetFunctionTable(4, [int(m.bit_count() == 2) for m in range(16)]))
@example(f=SetFunctionTable(4, [int(m > 0) for m in range(16)]))
@example(f=to_setfunction(UniformMatroid(4, 10)))
@example(f=SetFunctionTable(9, [int(m.bit_count() == 5) for m in range(1 << 9)]))
@example(f=direct_sum_ten())
def test_bucketed_sweep_matches_per_cell_oracle(f):
    # the sweep grows each cell's components from its bitset columns (a q_f
    # cell that the first sizes show to be one component skips the growth);
    # the oracle merges every monomial of every cell
    for d in (None, *range(f.n + 1)):
        assert _cell_stream(contraction_cells(f, d)) == _cell_stream(contraction_cells_oracle(f, d))


def test_direct_sum_reaches_the_decomposable_path():
    f = direct_sum_ten()
    assert len(next(contraction_cells(f, 3))[2]) == 2
    k, comps = next((k, comps) for tmask, k, comps, _ in contraction_cells(f, None) if k == 8)
    assert sorted(comps) == [0b11111 << 1 | 1, 0b11111 << 6]


def decomposable_oracle(f: SetFunctionTable, d: int):
    """The first decomposable cell of f^(d) in the per-cell sweep, as
    ("decomposable", tau labels), or None."""
    for tmask, _, comps, _ in contraction_cells_oracle(f, d):
        if len(comps) > 1:
            return "decomposable", labels_of(tmask)
    return None


@settings(max_examples=100, deadline=None)
@given(f=sweep_tables(), d=st.integers(2, 7))
@example(f=direct_sum_ten(), d=3)
def test_decide_2cov_decomposable_outcome_matches_oracle(f, d):
    # a decomposable cell ends the decision before any LP runs
    assume(d <= f.n)
    want = decomposable_oracle(f, d)
    got = coverage2.decide_2cov(f, d)
    if want is None:
        assert got.reason != "decomposable"
    else:
        assert (got.two_coverage, got.reason, got.tau) == (False, *want)


@settings(max_examples=200, deadline=None)
@given(f=sweep_tables())
@example(f=SetFunctionTable(4, [min(m.bit_count(), 2) for m in range(16)]))
@example(f=budget_additive_eleven())
def test_drivers_match_memo_free_reference(f):
    # the drivers diagonalize each distinct Hessian once per sweep; the
    # reference diagonalizes every quadratic cell it reaches
    assert certify_clc_homogenization(f) == certify_oracle(f, None)
    for d in range(2, f.n + 1):
        assert certify_clc_homogeneous(f, d) == certify_oracle(f, d)


_TRANSFORM_VALUES = {"int": st.integers(-(10**6), 10**6), "float": st.floats(-1e6, 1e6)}


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(0, 8),
    inverse=st.booleans(),
    kind=st.sampled_from(sorted(_TRANSFORM_VALUES)),
)
def test_sliced_subset_transform_matches_per_mask_loop(data, n, inverse, kind):
    values = data.draw(st.lists(_TRANSFORM_VALUES[kind], min_size=1 << n, max_size=1 << n))
    got = subset_transform(list(values), inverse)
    want = subset_transform_oracle(list(values), inverse)
    # repr tells every float apart, -0.0 from 0.0 included: bit for bit
    assert list(map(repr, got)) == list(map(repr, want))


_MISSING = object()
_SPELLINGS = st.one_of(
    st.integers(-3, 12),
    st.builds(
        lambda sign, p, q, zp, zq: f"{sign}{'0' * zp}{p}/{'0' * zq}{q}",
        st.sampled_from(("", "-")), st.integers(0, 30), st.integers(1, 12),
        st.integers(0, 2), st.integers(0, 2),
    ),
    st.sampled_from([
        "0", "-0", "7", "007", "+3", " 3", "3 ", "3_0", "1_0/2", "1/0", "0/0", "1/00", "-1/0",
        "1 / 2", "1/-2", "--1", "1/2/3", "", "-", "/2", "x", "\u0663/\u0664",
        "1.5", "-0.25", ".5", "1e3", "2.5E-2", "1e-1", "1e10000000",
        "9" * 4300, "-" + "9" * 4300, "1" * 4400, "1/" + "1" * 4400,
        0.5, 2.25, 1000.0, True, False, None, [], {}, _MISSING,
    ]),
)


def _table_doc(n, entries):
    return {"n": n, "entries": [
        {"set": labels} | ({} if v is _MISSING else {"value": v}) for labels, v in entries
    ]}


def _load_outcome(load, path):
    try:
        f = load(path)
    except InputError as exc:
        return str(exc)
    return (f.n, f.nums, f.scale)


@settings(max_examples=300, deadline=None)
@given(
    masks=st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    spellings=st.lists(_SPELLINGS, min_size=4, max_size=4),
)
def test_table_loader_matches_fraction_oracle(tmp_path_factory, masks, spellings):
    # the loader reads each value as integers and refuses a negative one, or
    # a nonzero f(empty set), at its entry; the oracle reads Fractions and
    # leaves those two refusals to the table, so an entry it refuses alone
    # is the first refusal of the whole table, named by the loader
    directory = tmp_path_factory.mktemp("tables")
    entries = [(list(labels_of(m)), v) for m, v in zip(masks, spellings)]
    path = directory / "f.json"
    path.write_text(json.dumps(_table_doc(3, entries)))
    want = _load_outcome(load_set_function_oracle, str(path))
    for k, entry in enumerate(entries):
        (directory / "one.json").write_text(json.dumps(_table_doc(3, [entry])))
        alone = _load_outcome(load_set_function_oracle, str(directory / "one.json"))
        if isinstance(alone, str):
            field, _, rest = alone.partition(": ")
            want = f"entries[{k}].value: {rest if field == 'entries[0].value' else alone}"
            break
    assert _load_outcome(load_set_function, str(path)) == want


# --- strong coverage synthesis vs per-tau sub-instances ------------------------


def expand(mask, labels):
    """Move bit i of a mask over the sub-instance to the bit of labels[i] over [n]."""
    return mask_of(lab for i, lab in enumerate(labels) if mask >> i & 1)


def reference_strong_coverage(inst):
    """Moebius-invert the sub-instance left after tau covers its part of the
    universe, separately for every tau."""
    n = inst.n
    witnesses = {}
    for size in range(n - 1):
        for tau in combinations(range(1, n + 1), size):
            covered = frozenset().union(*(inst.sets[t - 1] for t in tau))
            rest = [i for i in range(1, n + 1) if i not in tau]
            sub = CoverageInstance(inst.universe, tuple(inst.sets[i - 1] - covered for i in rest))
            x = mobius_oracle(materialize_oracle(sub))
            witnesses[mask_of(tau)] = CoverageWeights.of(n, {expand(t, rest): v for t, v in x.items()})
    return StrongCertificate(n, witnesses)


def moebius_built_strong_coverage(inst):
    """One Fraction Moebius inversion x of the union-built table, restricted
    to the complement of each tau."""
    n = inst.n
    x = mobius_oracle(materialize_oracle(inst))
    full = (1 << n) - 1
    return StrongCertificate(n, {
        tmask: CoverageWeights.of(n, {t: v for t, v in x.items() if not t & ~(full ^ tmask)})
        for size in range(n - 1)
        for tmask in map(mask_of, combinations(range(1, n + 1), size))
    })


@settings(max_examples=60, deadline=None)
@given(inst=coverage_instances())
def test_strong_coverage_certificate_bytes_match_moebius_built(inst):
    got = json.dumps(dump_certificate(synth_strong_from_parts(inst.weights())), indent=2)
    assert got == json.dumps(dump_certificate(moebius_built_strong_coverage(inst)), indent=2)


def test_strong_coverage_synthesis_matches_per_tau_reference():
    rng = random.Random(47)
    for _ in range(36):
        inst = rand_coverage_instance(rng, rng.randint(1, 6), rng.randint(1, 6))
        got = dump_certificate(synth_strong_from_parts(inst.weights()))
        assert got == dump_certificate(reference_strong_coverage(inst))


# --- integer certificate verifiers vs Fraction oracles --------------------------


_WEIGHT = st.fractions(0, 3, max_denominator=6)


def _outcome(verify, *args):
    """(ok, checks, failure, tau) of one verification, or the error it raised."""
    try:
        check = verify(*args)
    except (ValueError, MissingWitnessError) as exc:
        return type(exc).__name__, str(exc)
    return check.ok, check.checks, check.failure, check.tau


def _values(g) -> dict:
    return {t: Fraction(v, g.scale) for t, v in g.x.items()}


def _perturb_g(draw, n: int, g: dict) -> dict:
    """g with one entry changed: a weight, a mask dropped, or an extra mask
    anywhere in [n] (possibly reaching outside the witness's ground set)."""
    g = dict(g)
    kind = draw(st.sampled_from(("weight", "missing", "extra"))) if g else "extra"
    if kind == "extra":
        g[draw(st.integers(1, (1 << n) - 1))] = draw(_WEIGHT.filter(bool))
    else:
        t = draw(st.sampled_from(sorted(g)))
        if kind == "missing":
            del g[t]
        else:
            old = g[t]
            g[t] = draw(_WEIGHT.filter(lambda v: v != old))
    return g


def _scaled_table(f: SetFunctionTable, c: Fraction) -> SetFunctionTable:
    return SetFunctionTable.of(f.n, [f[m] * c for m in range(1 << f.n)])


@st.composite
def strong_cases(draw):
    """(table, strong certificate): a coverage instance's table and its
    synthesized certificate, both scaled by one rational, or a random table
    with random witnesses; either possibly with one witness entry perturbed
    or one witness dropped."""
    if draw(st.booleans()):
        inst = draw(coverage_instances())
        n, c = inst.n, draw(st.fractions(Fraction(1, 6), 3, max_denominator=6))
        f = _scaled_table(materialize(inst.weights()), c)
        cert = synth_strong_from_parts(inst.weights())
        witnesses = {tau: {t: v * c for t, v in _values(g).items()} for tau, g in cert.witnesses.items()}
    else:
        n = draw(st.integers(1, 4))
        size = (1 << n) - 1
        f = SetFunctionTable.of(n, [0] + draw(st.lists(
            st.fractions(0, 4, max_denominator=4), min_size=size, max_size=size)))
        witnesses = {}
        for k in range(n - 1):
            for tmask in map(mask_of, combinations(range(1, n + 1), k)):
                masks = [t for t in range(1, size + 1) if not t & tmask]
                witnesses[tmask] = draw(st.dictionaries(st.sampled_from(masks), _WEIGHT, max_size=3))
    if witnesses and draw(st.booleans()):
        tau = draw(st.sampled_from(sorted(witnesses)))
        if draw(st.integers(0, 3)):
            witnesses[tau] = _perturb_g(draw, n, witnesses[tau])
        else:
            del witnesses[tau]
    return f, StrongCertificate(n, {tau: CoverageWeights.of(n, g) for tau, g in witnesses.items()})


@st.composite
def two_coverage_cases(draw):
    """(table, d, two-coverage certificate): a matroid indicator and its
    synthesized certificate, or a coverage table and the witnesses found by
    search, both scaled by one rational; or a random table with random
    witnesses. Either possibly with one g entry or l value perturbed, or one
    witness dropped."""
    kind = draw(st.sampled_from(("indicator", "search", "random")))
    c = draw(st.fractions(Fraction(1, 6), 3, max_denominator=6))
    witnesses = {}
    if kind == "indicator":
        n = draw(st.integers(2, 6))
        m = rand_partition_matroid(random.Random(draw(st.integers(0, 2**32))), n)
        m = m if m.rank((1 << n) - 1) >= 2 else UniformMatroid(2, n)
        d = draw(st.integers(2, m.rank((1 << n) - 1)))
        f = _scaled_table(independence_indicator(to_setfunction(m)), c)
        for tau, w in coverage2.synth_2cov_indicator(m, d).witnesses.items():
            witnesses[tau] = (w.support, {t: v * c for t, v in _values(w.g).items()},
                              [Fraction(v, w.g.scale) * c for v in w.ell])
    elif kind == "search":
        inst = draw(coverage_instances().filter(lambda i: i.n >= 2))
        n = inst.n
        d = draw(st.integers(2, min(3, n)))
        f = _scaled_table(materialize(inst.weights()), c)
        for tmask in map(mask_of, combinations(range(1, n + 1), d - 2)):
            found = coverage2.search_2cov_feasible(f, d, tmask).witness
            if found:
                witnesses[tmask] = (found.support, _values(found.g),
                                  [Fraction(v, found.g.scale) for v in found.ell])
    else:
        n = draw(st.integers(2, 4))
        d = draw(st.integers(2, min(3, n)))
        f = SetFunctionTable.of(n, [0] + draw(st.lists(
            st.fractions(0, 4, max_denominator=4), min_size=(1 << n) - 1, max_size=(1 << n) - 1)))
        for tau in combinations(range(1, n + 1), d - 2):
            rest = [lab for lab in range(1, n + 1) if lab not in tau]
            support = mask_of(draw(st.sets(st.sampled_from(rest))))
            masks = [t for t in range(1, 1 << n) if not t & ~support]
            g = draw(st.dictionaries(st.sampled_from(masks), _WEIGHT, max_size=3)) if masks else {}
            witnesses[mask_of(tau)] = (support, g, [draw(_WEIGHT) if support >> b & 1 else 0 for b in range(n)])
    if witnesses and draw(st.booleans()):
        tau = draw(st.sampled_from(sorted(witnesses)))
        support, g, ell = witnesses[tau]
        change = draw(st.sampled_from(("g", "l", "drop")))
        if change == "g":
            witnesses[tau] = (support, _perturb_g(draw, n, g), ell)
        elif change == "l":
            ell = list(ell)
            ell[draw(st.integers(0, n - 1))] = draw(st.fractions(-1, 3, max_denominator=6))
            witnesses[tau] = (support, g, ell)
        else:
            del witnesses[tau]
    cert = TwoCoverageCertificate(n, d, {
        tau: TwoCoverageWitness.of(support, n, g, ell) for tau, (support, g, ell) in witnesses.items()
    })
    return f, d, cert


@settings(max_examples=150, deadline=None)
@given(case=strong_cases())
def test_strong_verifier_matches_fraction_oracle(case):
    f, cert = case
    assert _outcome(verify_strong2cov, f, cert) == _outcome(verify_strong2cov_oracle, f, cert)


@settings(max_examples=150, deadline=None)
@given(case=two_coverage_cases())
def test_two_coverage_verifier_matches_fraction_oracle(case):
    f, d, cert = case
    assert _outcome(verify_2cov, f, d, cert) == _outcome(verify_2cov_oracle, f, d, cert)


# --- matroid certificates vs per-tau contracted oracles ------------------------


def rand_matroid(rng, kind):
    """A random matroid on 2..7 elements; graphic ones (and the explicit ones
    listing a graphic matroid's independent sets) have self-loops and
    parallel edges."""
    n = rng.randint(2, 7)
    if kind == "uniform":
        return UniformMatroid(rng.randint(0, n), n)
    if kind == "partition":
        return rand_partition_matroid(rng, n)
    v = rng.randint(2, 4)
    graph = GraphicMatroid(v, [(rng.randint(1, v), rng.randint(1, v)) for _ in range(n)])
    if kind == "graphic":
        return graph
    return ExplicitMatroid(
        n, [s for k in range(n + 1) for s in combinations(range(1, n + 1), k) if graph.rank(mask_of(s)) == k]
    )


def test_matroid_synthesis_matches_per_tau_reference():
    rng = random.Random(61)
    loops = big_classes = 0
    for kind in ("uniform", "partition", "graphic", "explicit") * 8:
        m = rand_matroid(rng, kind)
        strong = dump_certificate(coverage2.synth_strong_matroid(m))
        assert strong == dump_certificate(reference_strong_matroid(m))
        for d in range(2, m.rank((1 << m.n) - 1) + 1):
            got = dump_certificate(coverage2.synth_2cov_indicator(m, d))
            assert got == dump_certificate(reference_2cov_indicator(m, d))
        for w in strong["witnesses"]:
            classes = [json.loads(key) for key in w["g"]]
            loops += len(m.elements) - len(w["tau"]) - sum(map(len, classes))
            big_classes += any(len(c) >= 3 for c in classes)
    assert loops >= 50 and big_classes >= 50, (loops, big_classes)


# --- walk integer kernels vs Fraction rows, powering and per-step rebuilds -----


def rand_walk_instance(rng):
    """A size-d level with random rational weights, some of it dropped; a
    level split between {1..cut} and {cut+1..n} is reducible."""
    n = rng.randint(2, 6)
    d = rng.randint(1, min(3, n))
    density = rng.choice((0.5, 0.8, 1.0))
    level = list(combinations(range(1, n + 1), d))
    if d >= 2 and n >= 2 * d and rng.random() < 0.5:
        cut = rng.randint(d, n - d)
        level = [s for s in level if s[-1] <= cut or s[0] > cut]
    entries = {
        s: Fraction(rng.randint(1, 9), rng.randint(1, 7)) for s in level if rng.random() < density
    }
    if not entries:
        entries[level[0]] = Fraction(rng.randint(1, 9), rng.randint(1, 7))
    return walk_instance(SetFunctionTable.from_entries(n, entries), d)


def test_walk_kernels_match_fraction_reference(monkeypatch):
    rng = random.Random(53)
    switched = exact_only = early = 0
    for _ in range(110):
        w = rand_walk_instance(rng)
        assert fraction_rows(transition_matrix(w)) == transition_matrix_oracle(w)
        floor = walk._tv_floor(w, transition_matrix(w))
        assert (floor == 0) == is_irreducible(w)
        lightest = min(sum(w.weights[w.index[s]] for s in c) for c in swap_classes(w))
        assert floor == 1 - Fraction(lightest, w.total)
        eps = Fraction(1, rng.choice((2, 5, 10, 100)))
        max_steps = 10**6 if is_irreducible(w) else rng.choice((3, 12))
        monkeypatch.setattr(walk, "MAX_STEPS", max_steps)
        for max_bits in (32, 64, 200, 4096):
            monkeypatch.setattr(walk, "MAX_BITS", max_bits)
            got = mixing_time_exact(w, eps)
            want = mixing_time_oracle(w, eps, max_steps=max_steps, max_bits=max_bits)
            if eps < floor:  # stopped before powering: the oracle never gets below eps
                assert (got.t_mix, got.ratio, got.converged, got.switched_to_float_at) == (None, None, False, None)
                assert got.tv_curve == want.tv_curve[:1] and type(got.tv_curve[0]) is Fraction
                assert not want.converged and min(want.tv_curve) > eps
                early += 1
                continue
            assert (got.t_mix, got.converged, got.switched_to_float_at, got.ratio) == (
                want.t_mix, want.converged, want.switched_to_float_at, want.ratio
            )
            assert got.tv_curve == want.tv_curve
            assert [type(v) for v in got.tv_curve] == [type(v) for v in want.tv_curve]
            switched += got.switched_to_float_at is not None
            exact_only += got.switched_to_float_at is None and bool(got.t_mix)
        start = w.support[rng.randrange(len(w.support))]
        seed = rng.randrange(2**32)
        chain = sample_chain(w, start, 300, seed)
        assert (chain.final, chain.histogram) == sample_chain_oracle(w, start, 300, seed)
    assert switched >= 20 and exact_only >= 20 and early >= 20, (switched, exact_only, early)


def test_step_budget_stops_as_the_oracle_does(monkeypatch):
    # irreducible chains cut off by MAX_STEPS, in the exact loop and after
    # the switch to binary64
    rng = random.Random(61)
    cut = {"exact": 0, "float": 0}
    while min(cut.values()) < 10:
        w = rand_walk_instance(rng)
        if not is_irreducible(w):
            continue
        max_steps = rng.randint(1, 4)
        monkeypatch.setattr(walk, "MAX_STEPS", max_steps)
        for max_bits in (16, 4096):
            monkeypatch.setattr(walk, "MAX_BITS", max_bits)
            got = mixing_time_exact(w, Fraction(1, 1000))
            want = mixing_time_oracle(w, Fraction(1, 1000), max_steps=max_steps, max_bits=max_bits)
            assert got == want
            assert [type(v) for v in got.tv_curve] == [type(v) for v in want.tv_curve]
            if not got.converged:
                assert len(got.tv_curve) == max_steps + 1
                cut["float" if got.switched_to_float_at else "exact"] += 1


def test_transition_matrix_scale_is_lcm_of_oracle_denominators():
    rng = random.Random(59)
    for _ in range(60):
        w = rand_walk_instance(rng)
        want = lcm(*(v.denominator for row in transition_matrix_oracle(w) for v in row.values()))
        assert transition_matrix(w).scale == want


# A draw below a bound of at most 2^32 reads one word, a wider one two: the
# totals put the rejection mask on both sides of the 1-, 3- and 4-byte widths
@pytest.mark.parametrize("total", [2**8 - 1, 2**8 + 1, 2**24 - 1, 2**24 + 1, 2**32 - 1, 2**32, 2**32 + 1])
def test_sample_chain_draw_widths_match_oracle(total):
    half, rest = total // 2, total - total // 2
    # d = 1: the one base is empty, of row total `total`; d = 2: bases {1}
    # and {2} have row total `total`, base {3} total `total` or `total` + 1
    for n, d, entries in (
        (2, 1, {(1,): half, (2,): rest}),
        (3, 2, {(1, 2): half, (1, 3): rest, (2, 3): rest}),
    ):
        w = walk_instance(SetFunctionTable.from_entries(n, entries), d)
        for seed in (0, 3, 2**40 + 1):
            chain = sample_chain(w, w.support[-1], 400, seed)
            assert (chain.final, chain.histogram) == sample_chain_oracle(w, w.support[-1], 400, seed)


def test_sample_chain_single_candidate_rows_match_oracle():
    # base {2} holds the one candidate {1,2} at row total 1 and draws nothing;
    # base {3} holds {1,3} alone at total 3 and still draws below 3. With
    # d = 1 the drop draws nothing either
    for n, d, entries in (
        (3, 2, {(1, 2): 1, (1, 3): 3}),
        (1, 1, {(1,): 5}),
        (1, 1, {(1,): 1}),
        (3, 1, {(1,): 2, (2,): 3, (3,): 1}),
    ):
        w = walk_instance(SetFunctionTable.from_entries(n, entries), d)
        for start in w.support:
            chain = sample_chain(w, start, 300, 17)
            assert (chain.final, chain.histogram) == sample_chain_oracle(w, start, 300, 17)


def test_step_with_fresh_cache_matches_step_oracle():
    # a new cache per step builds the rows of the state's bases every time
    w = walk_instance(
        SetFunctionTable.from_entries(
            6, {p: Fraction(p[0] * p[1] + p[2], p[0] + 3) for p in combinations(range(1, 7), 3)}
        ),
        3,
    )
    next_word, rng = philox_words(make_rng(41)).__next__, make_rng(41)
    state = w.support[0]
    for _ in range(500):
        want = step_oracle(w, state, rng)
        state = step(w, state, next_word, {})
        assert state == want
