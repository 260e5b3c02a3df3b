"""Shared fixtures and small random generators for the suite.

Random constructions use seeded random.Random instances so every run checks
the same cases; the generators live here so module tests and the acceptance
suite draw from the same families.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Mapping, NamedTuple
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from clckit import (
    CoverageWeights,
    ExplicitMatroid,
    GraphicMatroid,
    MultiaffinePolynomial,
    PartitionMatroid,
    SetFunctionTable,
    StrongCertificate,
    TwoCoverageCertificate,
    TwoCoverageWitness,
    UniformMatroid,
)
from clckit import inertia, jsonio, materialize
from clckit.bitsets import labels_of, mask_of, masks_of_size, submasks
from clckit.counterexamples import _monotone_witness, _submodular_witness
from clckit.coverage2 import CertificateCheck
from clckit.errors import InputError, InternalCheckError, MissingWitnessError, NotAMatroidError
from clckit.logconcave import (
    CertFailure,
    CertificationReport,
    Inertia,
    _component_labels,
    _quadratic_hessian,
    contraction_cells,
)
from clckit.matroids import _check_listing, _rank_table
from clckit.setfn import ZERO, exact, integer_scaled
from clckit.simplex import LPFeasibility, phase1
from clckit.walk import MixingResult, make_rng


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def value_of(f: SetFunctionTable, labels) -> Fraction:
    """f at the subset of these 1-based labels."""
    return f[mask_of(labels)]


def _perfbench_module(name: str, **siblings):
    """A fresh copy of perfbench/<name>.py, loaded by path, with `siblings`
    importable under their names while it loads."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module, **siblings}):
        spec.loader.exec_module(module)
    return module


def perfbench_tracing():
    """A fresh copy of the benchmark's tracing module, perfbench/tracing.py."""
    return _perfbench_module("tracing")


def perfbench_workloads():
    """A fresh copy of the benchmark's workloads, perfbench/workloads.py,
    whose `build(workload, seed, root)` writes a batch's input files."""
    return _perfbench_module("workloads", inputs=_perfbench_module("inputs"))


def layer_functions() -> dict[str, tuple[str, ...]]:
    """The clckit functions the benchmark traces, {module: names}."""
    return perfbench_tracing().LAYER_FUNCTIONS


@dataclass(frozen=True)
class CoverageInstance:
    """A weighted universe plus n subsets A_1..A_n of it, f(T) = w(union of
    A_i, i in T): the union form the oracles evaluate. The library reads a
    coverage file straight into its weights (`jsonio.load_coverage_instance`);
    `weights()` is the same conversion, done here on the instance."""

    universe: tuple[tuple[str, Fraction], ...]  # (element id, nonnegative weight)
    sets: tuple[frozenset[str], ...]

    @classmethod
    def build(cls, universe, sets) -> "CoverageInstance":
        uni = tuple((str(e), exact(w)) for e, w in universe)
        return cls(uni, tuple(frozenset(map(str, a)) for a in sets))

    @property
    def n(self) -> int:
        return len(self.sets)

    def weights(self) -> CoverageWeights:
        """Each universe element adds its weight at the mask of the sets
        that contain it."""
        member = dict.fromkeys((e for e, _ in self.universe), 0)
        for i, a in enumerate(self.sets):
            for e in a:
                member[e] |= 1 << i
        x: dict[int, Fraction] = {}
        for e, w in self.universe:
            if member[e]:
                x[member[e]] = x.get(member[e], 0) + w
        return CoverageWeights.of(self.n, dict(sorted(x.items())))


def coverage_example() -> CoverageInstance:
    """Three sets over {a, b} with unit weights: values (1,2,1) on singletons."""
    return CoverageInstance.build(
        [("a", 1), ("b", 1)], [["a"], ["a", "b"], ["b"]]
    )


def cardinality(n: int) -> CoverageWeights:
    """f(S) = |S|: unit weight on every singleton."""
    return CoverageWeights(n, {1 << b: 1 for b in range(n)})


def k4() -> GraphicMatroid:
    """Complete graph on 4 vertices; 6 edges, rank 3."""
    return GraphicMatroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def rand_coverage_instance(rng: random.Random, n: int, universe_size: int = 5) -> CoverageInstance:
    universe = [
        (f"u{i}", Fraction(rng.randint(0, 4))) for i in range(universe_size)
    ]
    sets = []
    for _ in range(n):
        size = rng.randint(0, universe_size)
        sets.append(rng.sample([e for e, _ in universe], size))
    return CoverageInstance.build(universe, sets)


@st.composite
def coverage_instances(draw):
    """Up to 5 elements with weights in [0, 4] over denominators up to 3 (zero
    weights and elements in no set included), and 1 to 6 sets."""
    ids = [f"u{i}" for i in range(draw(st.integers(1, 5)))]
    universe = [(e, draw(st.fractions(0, 4, max_denominator=3))) for e in ids]
    sets = draw(st.lists(st.sets(st.sampled_from(ids)), min_size=1, max_size=6))
    return CoverageInstance.build(universe, sets)


@st.composite
def matroids(draw):
    """A uniform, partition or graphic matroid on n <= 6 elements, or an
    explicit one listing the independent sets of such a matroid."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("uniform", "partition", "graphic", "explicit")))
    if kind == "uniform":
        return UniformMatroid(draw(st.integers(0, n)), n)
    if kind == "partition":
        labels = draw(st.permutations(range(1, n + 1)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        return PartitionMatroid(blocks, [draw(st.integers(1, len(b))) for b in blocks])
    v = draw(st.integers(2, 4))
    ends = st.integers(1, v)
    m = GraphicMatroid(v, draw(st.lists(st.tuples(ends, ends), min_size=n, max_size=n)))
    if kind == "graphic":
        return m
    listing = [s for k in range(n + 1) for s in combinations(range(1, n + 1), k) if m.rank(mask_of(s)) == k]
    return ExplicitMatroid(n, draw(st.permutations(listing)))


def rand_partition_matroid(rng: random.Random, n: int) -> PartitionMatroid:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    blocks = []
    while labels:
        size = rng.randint(1, min(3, len(labels)))
        blocks.append(labels[:size])
        labels = labels[size:]
    caps = [rng.randint(1, len(b)) for b in blocks]
    return PartitionMatroid(blocks, caps)


def rand_table(rng: random.Random, n: int, max_value: int = 4) -> SetFunctionTable:
    vals = [Fraction(rng.randint(0, max_value)) for _ in range(1 << n)]
    vals[0] = Fraction(0)
    return SetFunctionTable.of(n, vals)


def rand_symmetric(rng: random.Random, m: int, span: int = 5) -> list[list[Fraction]]:
    h = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        h[i][i] = Fraction(rng.randint(-span, span))
        for j in range(i + 1, m):
            v = Fraction(rng.randint(-span, span), rng.randint(1, 3))
            h[i][j] = h[j][i] = v
    return h


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of dim 1 to 9, entries over denominators up
    to 7: dense, hollow (an all-zero diagonal, so elimination starts with a
    swap-free repair) or rank-deficient (G E G^T with fewer columns in G than
    the dim, so some eigenvalues are exactly zero)."""
    m = draw(st.integers(1, 9))
    entry = st.fractions(-5, 5, max_denominator=7)
    kind = draw(st.sampled_from(("dense", "hollow", "rank-deficient")))
    if kind == "rank-deficient":
        r = draw(st.integers(0, m - 1))
        g = [[draw(entry) for _ in range(r)] for _ in range(m)]
        e = [draw(entry) for _ in range(r)]
        return [
            [sum((g[i][t] * e[t] * g[j][t] for t in range(r)), ZERO) for j in range(m)]
            for i in range(m)
        ]
    h = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if i != j or kind == "dense":
                h[i][j] = h[j][i] = draw(entry)
    return h


def rand_invertible(rng: random.Random, m: int) -> list[list[Fraction]]:
    while True:
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        if _det(p) != 0:
            return p


def _det(matrix) -> Fraction:
    m = len(matrix)
    a = [row[:] for row in matrix]
    det = Fraction(1)
    for k in range(m):
        pivot = next((i for i in range(k, m) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, m):
            f = a[i][k] / a[k][k]
            for j in range(k, m):
                a[i][j] -= f * a[k][j]
    return det


def float_npos(h, tol: float = 1e-9) -> int:
    """Floating eigenvalue oracle: positive-eigenvalue count of a symmetric
    matrix scaled to unit max entry."""
    arr = np.array([[float(v) for v in row] for row in h], dtype=float)
    peak = np.max(np.abs(arr))
    if peak > 0:
        arr = arr / peak
    return int((np.linalg.eigvalsh(arr) > tol).sum())


# --- oracle helpers ------------------------------------------------------------


class Contraction(NamedTuple):
    """g(S) = f(S + tau) on the positions outside tau, renumbered 1..m (their
    labels in `elements`), with g(empty) = f(tau) carried as `base`."""

    base: Fraction
    table: SetFunctionTable
    elements: tuple[int, ...]


def contract(f: SetFunctionTable, tau) -> Contraction:
    tmask = mask_of(tau)
    kept = [b for b in range(f.n) if not tmask >> b & 1]
    vals = [ZERO] * (1 << len(kept))
    for sub in range(1, len(vals)):
        vals[sub] = f[tmask | sum(1 << b for i, b in enumerate(kept) if sub >> i & 1)]
    return Contraction(f[tmask], SetFunctionTable.of(len(kept), vals), tuple(b + 1 for b in kept))


def congruence(p, h) -> list[list[Fraction]]:
    """P H P^T, exact; the inertia of the result equals that of H for invertible P."""
    rows = len(p)
    inner = len(p[0])
    ph = [[sum((exact(p[i][t]) * exact(h[t][j]) for t in range(inner)), ZERO) for j in range(inner)] for i in range(rows)]
    return [
        [sum((ph[i][t] * exact(p[j][t]) for t in range(inner)), ZERO) for j in range(rows)]
        for i in range(rows)
    ]


def materialize_oracle(inst: CoverageInstance) -> SetFunctionTable:
    """f(S) = w(union of A_i, i in S), one union per mask built from the
    union without its lowest set, and one weight sum per distinct union."""
    n = inst.n
    pos = {e: i for i, (e, _) in enumerate(inst.universe)}
    weights = [w for _, w in inst.universe]
    setmask = [mask_of(pos[e] + 1 for e in a) for a in inst.sets]
    size = 1 << n
    unions = [0] * size
    for s in range(1, size):
        low = s & -s
        unions[s] = unions[s ^ low] | setmask[low.bit_length() - 1]
    weight_of: dict[int, Fraction] = {0: ZERO}
    vals = [ZERO] * size
    for s in range(1, size):
        u = unions[s]
        w = weight_of.get(u)
        if w is None:
            w = sum((weights[b] for b in range(len(weights)) if u >> b & 1), ZERO)
            weight_of[u] = w
        vals[s] = w
    return SetFunctionTable.of(n, vals)


def mobius_oracle(f: SetFunctionTable) -> dict[int, Fraction]:
    """The x with f(S) = sum of x_T over T meeting S, by Moebius inversion
    of y(U) = f([n]) - f([n] - U) on Fractions, one bit at a time; zero
    entries left out."""
    size = 1 << f.n
    full = size - 1
    y = [f[full] - f[full ^ u] for u in range(size)]
    bit = 1
    while bit < size:
        for m in range(size):
            if m & bit:
                y[m] -= y[m ^ bit]
        bit <<= 1
    return {m: v for m, v in enumerate(y) if m and v}


def budget_additive_eleven() -> SetFunctionTable:
    """min(sum of w_i over S, 2) with w = (0, 1^7, 2^3): counterexample A
    with one element fewer."""
    weights = (0,) + (1,) * 7 + (2,) * 3
    return SetFunctionTable(
        len(weights),
        [min(sum(w for b, w in enumerate(weights) if s >> b & 1), 2) for s in range(1 << len(weights))],
    )


def subset_transform_oracle(values: list, inverse: bool = False) -> list:
    """`clckit.bitsets.subset_transform` one mask at a time: bits outermost,
    masks ascending, each mask holding the bit updated by the mask without
    it."""
    size = len(values)
    bit = 1
    while bit < size:
        for m in range(size):
            if m & bit:
                low = values[m ^ bit]
                values[m] = values[m] - low if inverse else values[m] + low
        bit <<= 1
    return values


def certify_oracle(f: SetFunctionTable, d: int | None, hessians: list | None = None):
    """The sweep of `clckit.logconcave._certify` with no memo: `inertia` on
    the Hessian of every quadratic cell of `contraction_cells` it reaches,
    each appended to `hessians` when given."""
    checks = 0
    for tmask, k, comps, quadratic in contraction_cells(f, d):
        if not checks and not comps:
            return CertificationReport("vacuous", 0)
        checks += 1
        if comps and quadratic and (d == 2 or len(comps) == 1):
            h = _quadratic_hessian(f.nums, f.n, tmask, k)
            if hessians is not None:
                hessians.append(h)
            n_pos = inertia(h).n_pos
            checks += 1
            if n_pos > 1:
                verdict = "refuted" if d == 2 else "conditions-fail"
                return CertificationReport(
                    verdict, checks, CertFailure(labels_of(tmask), k, "inertia", n_pos=n_pos)
                )
        if len(comps) > 1:
            failure = CertFailure(
                labels_of(tmask), k, "decomposable", components=_component_labels(comps)
            )
            return CertificationReport("conditions-fail", checks, failure)
    return CertificationReport("certified" if checks else "vacuous", checks)


def components_oracle(columns) -> list[int]:
    """`clckit.bitsets.components` by union-find: every variable whose column
    holds an item joins the first variable seen to hold it, so two bits share
    a component exactly when their columns are linked through shared items."""
    parent = {bit: bit for bit, _ in columns}

    def find(b):
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    holder: dict[int, int] = {}
    for bit, col in columns:
        for item in labels_of(col):
            parent[find(bit)] = find(holder.setdefault(item, bit))
    comps: dict[int, int] = {}
    for bit in parent:
        root = find(bit)
        comps[root] = comps.get(root, 0) | bit
    return list(comps.values())


def merged_components(monomials) -> list[int]:
    """Connected components of the variable co-occurrence graph, as variable
    masks: each monomial merges every component it overlaps. A monomial is
    the mask of its variables, with bit 0 for y and bit i for x_i."""
    comps: list[int] = []
    for m in monomials:
        keep = []
        for c in comps:
            if c & m:
                m |= c
            else:
                keep.append(c)
        keep.append(m)
        comps = keep
    return comps


def contraction_cells_oracle(f: SetFunctionTable, d: int | None):
    """The contraction sweep of `clckit.logconcave.contraction_cells`, cell by
    cell, on lists of masks: each cell (tau, k) lists every monomial of its
    support, for q_f with y on those below the top size, and merges them
    all into components by `merged_components`, not by the library's
    growth over bitset columns."""
    n = f.n
    if d is None:
        support, last = f.support(), n - 1
    else:
        if not 0 <= d <= n:
            raise InputError(f"degree {d} out of range for n={n}")
        support, last = f.support(d), d - 2
    prev = {0: support}
    for size in range(last + 1):
        level = {}
        for tmask in masks_of_size(n, size):
            top = tmask and 1 << (tmask.bit_length() - 1)
            sup = level[tmask] = [s for s in prev[tmask ^ top] if s & top == top]
            if d is not None:
                yield tmask, None, merged_components((s ^ tmask) << 1 for s in sup), size == last
                continue
            for k in range(n - size):
                ydeg = n + 1 - k
                monos = (
                    (s ^ tmask) << 1 | (s.bit_count() < ydeg)
                    for s in sup
                    if s.bit_count() <= ydeg
                )
                yield tmask, k, merged_components(monos), k == last - size
        prev = level


def load_set_function_oracle(path: str) -> SetFunctionTable:
    """`clckit.jsonio.load_set_function` on Fractions: every value through
    `exact`, the table built by `SetFunctionTable.of`, which refuses a
    negative value or a nonzero f(empty set) without naming the entry."""
    return jsonio._load(path, _table_oracle)


def _table_oracle(doc: dict) -> SetFunctionTable:
    n = jsonio._ground_size(doc)
    full = (1 << n) - 1
    values = [0] * (full + 1)
    seen: dict[int, int] = {}
    for k, entry in enumerate(jsonio._typed(doc.get("entries", []), list, "entries")):
        entry = jsonio._typed(entry, dict, f"entries[{k}]")
        labels = jsonio._field(entry, "set", at=f"entries[{k}].set")
        mask = jsonio._subset(labels, "entries[{}]", k, full, f"n={n}", seen)
        at = f"entries[{k}].value"
        value = jsonio._field(entry, "value", at=at)
        try:
            values[mask] = exact(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{at}: {exc}") from None
    return SetFunctionTable.of(n, values)


def inertia_oracle(matrix) -> Inertia:
    """Symmetric congruence diagonalization on `Fraction`s, step by step the
    rational version of `clckit.logconcave.inertia`: the same zero-pivot swap
    and "add row/column j to row/column k" repair, and one eigenvalue per
    pivot by its own sign."""
    m = len(matrix)
    a = [[exact(x) for x in row] for row in matrix]
    pos = neg = zero = 0
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
                for t in range(m):
                    a[k][t] += a[off][t]
                for t in range(m):
                    a[t][k] += a[t][off]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rowk = a[k]
        for i in range(k + 1, m):
            aik = a[i][k]
            if aik:
                f = aik / d
                rowi = a[i]
                for j in range(k + 1, m):
                    if rowk[j]:
                        rowi[j] -= f * rowk[j]
    return Inertia(pos, zero, neg)


def int_columns(a, b) -> tuple[list[tuple[list[int], list[int]]], list[int], int]:
    """The integer system `phase1` takes for the dense rational A x = b:
    (columns, b, scale), every entry times `scale`, the lcm of the entries'
    denominators, and each column of A as the (row indices, values) of its
    nonzeros."""
    m, n = len(a), len(a[0]) if a else 0
    nums, scale = integer_scaled([v for row in a for v in row] + list(b))
    rows = [nums[i * n : (i + 1) * n] for i in range(m)]
    columns = [([i for i, v in enumerate(col) if v], [v for v in col if v]) for col in zip(*rows)]
    return columns, nums[m * n :], scale


def dense_phase1(a, b) -> LPFeasibility:
    """`phase1` on the dense rational A x = b through `int_columns`, the
    optimum divided by the scale: the result for A x = b itself."""
    columns, b, scale = int_columns(a, b)
    res = phase1(columns, b)
    return dataclasses.replace(res, infeasibility=res.infeasibility / scale)


def dense_of(columns, b) -> list[list[int]]:
    """The dense rows of the matrix given by `phase1`'s columns over len(b) rows."""
    a = [[0] * len(columns) for _ in b]
    for j, (nz, vals) in enumerate(columns):
        for i, v in zip(nz, vals):
            a[i][j] = v
    return a


def phase1_oracle(a, b, entered: list | None = None) -> LPFeasibility:
    """Phase-1 simplex with Bland's rule on a `Fraction` tableau, pivot by
    pivot the rational version of `clckit.simplex.phase1`. The entering
    column of each pivot is appended to `entered` when one is given."""
    m = len(a)
    if m == 0:
        return LPFeasibility(True, (), ZERO)
    n = len(a[0])
    total = n + m  # artificial variable n+i sits on row i
    tableau = []
    for i in range(m):
        row = [exact(v) for v in a[i]] + [Fraction(int(k == i)) for k in range(m)]
        rhs = exact(b[i])
        if rhs < 0:
            row = [-v for v in row[:n]] + row[n:]
            rhs = -rhs
        tableau.append(row + [rhs])
    basis = list(range(n, total))
    # z[j] = c_j - sum_i c_basis(i) * T[i][j]
    z = [(1 if n <= j < total else 0) - sum((r[j] for r in tableau), ZERO) for j in range(total + 1)]
    pivots = 0
    while True:
        enter = next((j for j in range(total) if z[j] < 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        prow = tableau[leave]
        inv = 1 / prow[enter]
        prow[:] = [v * inv for v in prow]
        for other in (*tableau, z):
            factor = other[enter]
            if other is not prow and factor:
                other[:] = [v - factor * p for v, p in zip(other, prow)]
        basis[leave] = enter
        pivots += 1
        if entered is not None:
            entered.append(enter)
    if z[total] < 0:
        return LPFeasibility(False, None, -z[total], pivots)
    point = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            point[var] = tableau[i][total]
    return LPFeasibility(True, tuple(point), ZERO, pivots)


def coverage_num(g: CoverageWeights, mask: int) -> int:
    """g(S) * g.scale by the definition: the sum of the numerators x[T]
    over T meeting S."""
    return sum(v for t, v in g.x.items() if t & mask)


def _weight_values(g) -> dict[int, Fraction]:
    return {t: Fraction(v, g.scale) for t, v in g.x.items()}


def _coverage_value(x: dict[int, Fraction], mask: int) -> Fraction:
    return sum((v for t, v in x.items() if t & mask), ZERO)


def verify_2cov_oracle(f: SetFunctionTable, d: int, cert) -> CertificateCheck:
    """Two-coverage verification on Fractions, check by check the rational
    version of `clckit.coverage2.verify_2cov`: f read entry by entry, the
    witness numbers turned into values, every pair equation compared as
    rationals."""
    n = f.n
    if d < 2:
        raise InputError("two-coverage needs d >= 2")
    if cert.n != n or cert.d != d:
        raise InputError("certificate dimensions do not match the table")
    checks = 0
    for tmask, _, comps, _ in contraction_cells_oracle(f, d):
        checks += 1
        if len(comps) > 1:
            return CertificateCheck(
                False, checks, "contracted restriction is decomposable", labels_of(tmask)
            )
    for tmask in masks_of_size(n, d - 2):
        tau = labels_of(tmask)
        outside = [1 << b for b in range(n) if not tmask >> b & 1]
        pairs: dict[int, Fraction] = {}
        touched = 0
        for a in range(len(outside)):
            for b in range(a + 1, len(outside)):
                pm = outside[a] | outside[b]
                pairs[pm] = v = f[tmask | pm]
                if v != 0:
                    touched |= pm
        witness = cert.witnesses.get(tmask)
        if witness is None:
            if touched:
                raise MissingWitnessError(tau)
            checks += 1
            continue
        support, x = labels_of(witness.support), _weight_values(witness.g)
        ell = [Fraction(v, witness.g.scale) for v in witness.ell]
        if len(ell) != n:
            raise InputError(f"witness at tau={tau} has l over {len(ell)} elements, not n={n}")
        if any(v < 0 for v in ell):
            raise InputError(f"witness at tau={tau} has a negative l value {min(ell)}")
        smask = mask_of(support)
        off_support = any(v for b, v in enumerate(ell) if not smask >> b & 1)
        if off_support or any(t & ~smask for t in x):
            raise InputError(f"witness at tau={tau} reaches outside S={support}")
        if labels_of(touched) != support:
            return CertificateCheck(
                False,
                checks + 1,
                f"support mismatch: expected {labels_of(touched)}, witness has {support}",
                tau,
            )
        for lab in support:
            checks += 1
            if ell[lab - 1] > _coverage_value(x, 1 << (lab - 1)):
                return CertificateCheck(False, checks, f"l({lab}) exceeds g({lab})", tau)
        for pm, value in pairs.items():
            la, lb = labels_of(pm)
            checks += 1
            want = ZERO if pm & ~smask else _coverage_value(x, pm) - (ell[la - 1] + ell[lb - 1]) / 2
            if value != want:
                return CertificateCheck(
                    False,
                    checks,
                    f"pair equation failed on {{{la},{lb}}}: f_tau={value}, certificate gives {want}",
                    tau,
                )
    return CertificateCheck(True, checks)


def verify_strong2cov_oracle(f: SetFunctionTable, cert) -> CertificateCheck:
    """Strong verification on Fractions, the rational version of
    `clckit.coverage2.verify_strong2cov`: f(tau + T) - f(tau) against g(T)
    summed as values."""
    n = f.n
    if cert.n != n:
        raise InputError("certificate dimensions do not match the table")
    full = (1 << n) - 1
    checks = 0
    for size in range(n - 1):
        for tmask in masks_of_size(n, size):
            tau = labels_of(tmask)
            g = cert.witnesses.get(tmask)
            if g is None:
                raise MissingWitnessError(tau)
            x = _weight_values(g)
            if any(t & ~(full ^ tmask) for t in x):
                raise InputError(f"witness at tau={tau} reaches outside the complement of tau")
            outside = [b for b in range(n) if not tmask >> b & 1]
            for ia, a in enumerate(outside):
                checks += 1
                if f[tmask | (1 << a)] - f[tmask] != _coverage_value(x, 1 << a):
                    return CertificateCheck(False, checks, f"singleton equation failed at {a + 1}", tau)
                for b in outside[ia + 1:]:
                    pm = (1 << a) | (1 << b)
                    checks += 1
                    if f[tmask | pm] - f[tmask] != _coverage_value(x, pm):
                        return CertificateCheck(
                            False, checks, f"pair equation failed at {{{a + 1},{b + 1}}}", tau
                        )
    return CertificateCheck(True, checks)


def contracted_classes(m, tau) -> list[list[int]]:
    """Parallel classes of M/tau (loops left out), asking the public oracle
    for the contracted rank rk(S + tau) - rk(tau) one set of labels, as its
    mask, at a time."""
    base = m.rank(mask_of(tau))

    def rank(*xs):
        return m.rank(mask_of(tau + xs)) - base

    classes = []
    for x in m.elements:
        if x in tau or rank(x) == 0:
            continue
        for cls in classes:
            if rank(x, cls[0]) == 1:
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


def validate_explicit_oracle(n, family) -> str | None:
    """The independence axioms on frozensets, the exchange axiom by trying
    every pair of listed sets of different sizes: the text of the first
    violation, "kind: witness ...", or None. Sets are met in the order of
    the listing and labels in ascending order, so the first violation and
    its witness are those of `validate_explicit`, except for the witness
    of an exchange failure."""
    listing = [frozenset(i) for i in family]
    fam = set(listing)
    if not fam:
        return "empty: witness None"
    ground = frozenset(range(1, n + 1))
    for i in listing:
        if not i <= ground:
            return f"out-of-range: witness {(tuple(sorted(i)),)}"
    for i in listing:
        for e in sorted(i):
            if i - {e} not in fam:
                return f"not-downward-closed: witness {(tuple(sorted(i)), tuple(sorted(i - {e})))}"
    members = sorted(fam, key=lambda s: (len(s), sorted(s)))
    for a in members:
        for b in members:
            if len(a) < len(b):
                if not any(a | {x} in fam for x in b - a):
                    return f"exchange-failure: witness {(tuple(sorted(a)), tuple(sorted(b)))}"
    return None


def _unit_classes(classes, n) -> CoverageWeights:
    return CoverageWeights(n, {mask_of(cls): 1 for cls in classes})


def reference_strong_matroid(m) -> StrongCertificate:
    """Unit weight on each parallel class of M/tau, built separately for
    every tau from the oracle."""
    n = len(m.elements)
    witnesses = {}
    for size in range(n - 1):
        for tau in combinations(range(1, n + 1), size):
            witnesses[mask_of(tau)] = _unit_classes(contracted_classes(m, tau), n)
    return StrongCertificate(n, witnesses)


def reference_2cov_indicator(m, d) -> TwoCoverageCertificate:
    """Per independent tau of size d-2: support the nonloops of M/tau, unit
    weight on each class, l = 1; a dependent tau gets the empty witness."""
    n = len(m.elements)
    witnesses = {}
    for tau in combinations(range(1, n + 1), d - 2):
        classes = contracted_classes(m, tau) if m.rank(mask_of(tau)) == len(tau) else []
        support = [e for cls in classes for e in cls]
        witnesses[mask_of(tau)] = TwoCoverageWitness(
            mask_of(support),
            _unit_classes(classes, n),
            tuple(int(e in support) for e in range(1, n + 1)),
        )
    return TwoCoverageCertificate(n, d, witnesses)


def evaluate(p, assignment) -> Fraction:
    """Exact evaluation; homogenized polynomials take (y, x_1..x_n)."""
    if isinstance(p, MultiaffinePolynomial):
        if len(assignment) != p.n:
            raise ValueError(f"need {p.n} values, got {len(assignment)}")
        xs = [exact(v) for v in assignment]
        total = ZERO
        for m, c in p.coeffs.items():
            term = c
            rest = m
            while rest:
                low = rest & -rest
                term *= xs[low.bit_length() - 1]
                rest ^= low
            total += term
        return total
    if len(assignment) != p.n + 1:
        raise ValueError(f"need {p.n + 1} values (y first), got {len(assignment)}")
    y = exact(assignment[0])
    xs = [exact(v) for v in assignment[1:]]
    total = ZERO
    for (ypow, m), c in p.coeffs.items():
        term = c * y**ypow
        rest = m
        while rest:
            low = rest & -rest
            term *= xs[low.bit_length() - 1]
            rest ^= low
        total += term
    return total


def _uniform_below_oracle(rng: np.random.Generator, bound: int) -> int:
    """Exact uniform integer in [0, bound) via rejection on `rng.bytes`."""
    if bound == 1:
        return 0
    bits = (bound - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "little") & mask
        if r < bound:
            return r


def _candidates_oracle(w, base: int) -> list[tuple[int, Fraction]]:
    """(target, Fraction weight) for every R + {j} in the support, ascending."""
    out = []
    for j in range(w.n):
        if not base >> j & 1:
            t = base | (1 << j)
            if t in w.index:
                out.append((t, Fraction(w.weights[w.index[t]], w.scale)))
    return out


def step_oracle(w, state: int, rng: np.random.Generator) -> int:
    """One down-up transition, rebuilding the candidates and their Fraction
    weights at every step and drawing one `rng.bytes` call per draw."""
    members = labels_of(state)
    drop = members[_uniform_below_oracle(rng, w.d)]
    base = state & ~(1 << (drop - 1))
    cands = _candidates_oracle(w, base)
    denom = 1
    for _, weight in cands:
        denom = denom * weight.denominator // math.gcd(denom, weight.denominator)
    scaled = [int(weight * denom) for _, weight in cands]
    r = _uniform_below_oracle(rng, sum(scaled))
    acc = 0
    for (t, _), s in zip(cands, scaled):
        acc += s
        if r < acc:
            return t
    raise AssertionError("sampling fell off the cumulative weights")


def sample_chain_oracle(w, start: int, steps: int, seed: int) -> tuple[int, dict[int, int]]:
    """(final state, visit histogram) of `steps` oracle transitions."""
    rng = make_rng(seed)
    state = start
    hist = {state: 1}
    for _ in range(steps):
        state = step_oracle(w, state, rng)
        hist[state] = hist.get(state, 0) + 1
    return state, hist


def swap_classes(w) -> list[list[int]]:
    """The support's classes under single-element swaps, as lists of state
    masks, by breadth-first search: a step reaches every support state that
    differs from its own in one swap."""
    classes = []
    unseen = set(w.support)
    for first in w.support:
        if first not in unseen:
            continue
        unseen.discard(first)
        cls, queue = [first], [first]
        while queue:
            s = queue.pop()
            for t in w.support:
                if t in unseen and (s ^ t).bit_count() == 2:
                    unseen.discard(t)
                    cls.append(t)
                    queue.append(t)
        classes.append(cls)
    return classes


def is_irreducible(w) -> bool:
    """Exactly one swap class: the walk reaches every state from every other."""
    return len(swap_classes(w)) == 1


def fraction_rows(tm) -> tuple[dict[int, Fraction], ...]:
    """A TransitionMatrix's rows as Fractions: each numerator over tm.scale."""
    return tuple({j: Fraction(v, tm.scale) for j, v in row.items()} for row in tm.rows)


def transition_matrix_oracle(w) -> tuple[dict[int, Fraction], ...]:
    """Sparse rows of the transition matrix, summed state by state and drop
    by drop in Fractions: P(S, T) = (1/d) sum over i in S of f(T) / (sum of
    f over the candidates of S - {i})."""
    d = Fraction(w.d)
    rows = []
    for s in w.support:
        row: dict[int, Fraction] = {}
        for drop in labels_of(s):
            cands = _candidates_oracle(w, s & ~(1 << (drop - 1)))
            denom = sum((weight for _, weight in cands), ZERO)
            for t, weight in cands:
                ti = w.index[t]
                row[ti] = row.get(ti, ZERO) + weight / (d * denom)
        rows.append(row)
    return tuple(rows)


def mixing_time_oracle(w, eps, cap: int = 2000, max_steps: int = 10**6, max_bits: int = 4096):
    """Mixing time by dense Fraction powering of the oracle transition
    matrix, switching to binary64 once an entry exceeds max_bits bits."""
    def max_tv(dist_rows, mu):
        return max(sum((abs(p - q) for p, q in zip(row, mu)), ZERO) / 2 for row in dist_rows)

    def widest(rows):
        return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for row in rows for v in row)

    eps = exact(eps)
    k = len(w.support)
    p = [[row.get(j, ZERO) for j in range(k)] for row in transition_matrix_oracle(w)]
    mu = [Fraction(wt, w.total) for wt in w.weights]
    rows = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    exact_mode = True
    switched_at = None
    t = 0
    tv = max_tv(rows, mu)
    curve = [tv]
    eps_f = float(eps)
    while not (tv <= eps if exact_mode else tv <= eps_f + 1e-12):
        if t >= max_steps:
            return MixingResult(None, None, tuple(curve), False, switched_at)
        if exact_mode:
            rows = [
                [sum((rows[i][l] * p[l][j] for l in range(k) if rows[i][l]), ZERO) for j in range(k)]
                for i in range(k)
            ]
            t += 1
            new_tv = max_tv(rows, mu)
            assert new_tv <= tv
            if widest(rows) > max_bits:
                rows = np.array([[float(v) for v in row] for row in rows])
                p = np.array([[float(v) for v in row] for row in p])
                mu = np.array([float(v) for v in mu])
                exact_mode = False
                switched_at = t
                new_tv = float(new_tv)
        else:
            rows = rows @ p
            t += 1
            new_tv = float(np.max(np.abs(rows - mu).sum(axis=1)) / 2.0)
            assert new_tv <= float(tv) + 1e-12
        tv = new_tv
        curve.append(tv)
    ratio = t / (w.d * math.log(w.d / eps_f)) if t else 0.0
    return MixingResult(t, ratio, tuple(curve), True, switched_at)


def marginal_entropies(joint) -> list[float]:
    """H(Y_S) in bits for every mask S, each marginal summed from the pmf,
    with the 0 log 0 = 0 convention."""
    out = []
    for mask in range(1 << joint.n):
        idx = [b for b in range(joint.n) if mask >> b & 1]
        marg: dict = {}
        for outcome, p in joint.pmf.items():
            key = tuple(outcome[b] for b in idx)
            marg[key] = marg.get(key, 0.0) + p
        out.append(-math.fsum(p * math.log2(p) for p in marg.values() if p > 0))
    return out


def _inclusion_exclusion(h, tmask: int, cmask: int) -> float:
    """I(Y_T | Y_C) = -sum over nonempty U in T of (-1)^|U| H(Y_U | Y_C),
    from the marginal entropies h by mask."""
    return -math.fsum((-1) ** u.bit_count() * (h[u | cmask] - h[cmask]) for u in submasks(tmask) if u)


def cond_entropy(joint, s, c=()) -> float:
    """H(Y_S | Y_C) in bits, with the 0 log 0 = 0 convention."""
    smask, cmask = mask_of(s), mask_of(c)
    if smask & cmask:
        raise ValueError("conditioned variables overlap the target set")
    h = marginal_entropies(joint)
    return h[smask | cmask] - h[cmask]


def mmi(joint, order, c=()) -> float:
    """Multivariate mutual information I(Y_t1, ..., Y_tk | Y_C), by
    inclusion-exclusion over the marginals, so it does not read the
    library's recursion; it does not depend on the ordering (and can be
    negative for k >= 3)."""
    tmask, cmask = mask_of(order), mask_of(c)
    if not tmask:
        raise ValueError("need at least one variable")
    if tmask & cmask:
        raise ValueError("conditioned variables overlap the target set")
    return _inclusion_exclusion(marginal_entropies(joint), tmask, cmask)


def interaction_weights(joint) -> dict[int, float]:
    """I(Y_T | Y_rest) for every nonempty mask T, by `mmi`'s
    inclusion-exclusion over one table of marginals."""
    h = marginal_entropies(joint)
    full = len(h) - 1
    return {t: _inclusion_exclusion(h, t, full ^ t) for t in range(1, len(h))}


# --- library code that no command runs -------------------------------------------


def dump_set_function(f: SetFunctionTable) -> dict:
    """The table file of f: one entry per nonzero value, written "p/q"."""
    return {
        "n": f.n,
        "entries": [
            {"set": list(labels_of(m)), "value": str(f[m])}
            for m, v in enumerate(f.nums)
            if v
        ],
    }


def certificate_doc(cert) -> dict:
    """The document of a certificate file, built as a dict straight from
    `cert`: the oracle of `jsonio.write_certificate`'s bytes. Labels are
    unpacked bit by bit here, not by `labels_of`."""
    def labels(mask):
        return [b + 1 for b in range(mask.bit_length()) if mask >> b & 1]

    def weights(g):
        return {json.dumps(labels(t), separators=(",", ":")): str(Fraction(v, g.scale)) for t, v in sorted(g.x.items())}

    two = isinstance(cert, TwoCoverageCertificate)
    witnesses = []
    for tau, w in sorted(cert.witnesses.items(), key=lambda item: labels(item[0])):
        if two:
            s = labels(w.support)
            ell = {str(i): str(Fraction(w.ell[i - 1], w.g.scale)) for i in s}
            witnesses.append({"tau": labels(tau), "S": s, "g": weights(w.g), "l": ell})
        else:
            witnesses.append({"tau": labels(tau), "g": weights(w)})
    return {**({"d": cert.d} if two else {}), "n": cert.n, "witnesses": witnesses}


@dataclass(frozen=True)
class PredicateReport:
    monotone: bool
    submodular: bool
    log_submodular: bool
    almost_log_submodular: bool
    witnesses: Mapping[str, tuple]  # failed flag -> first violating witness


def predicates(f: SetFunctionTable) -> PredicateReport:
    """Check the four structural predicates, exhaustively and exactly; the
    monotone and submodular checks are the ones `clckit counterexamples` runs.

    Log-submodularity is checked multiplicatively, f(S+i) f(T) >= f(T+i) f(S)
    for S inside T, so zero values need no special casing.
    """
    n, vals = f.n, f.nums  # every inequality is homogeneous in f
    found = {
        "monotone": _monotone_witness(n, vals),
        "submodular": _submodular_witness(n, vals),
        "log_submodular": _log_submodular_witness(n, vals),
        "almost_log_submodular": _almost_witness(n, vals),
    }
    return PredicateReport(
        **{flag: witness is None for flag, witness in found.items()},
        witnesses={flag: witness for flag, witness in found.items() if witness},
    )


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
class MainPSDWitness:
    """Exact witness that R := (DJ + JD) - Hess(p_{g^(2)}) dominates D.

    The decomposition R = sum_T x_T B_T + D (with B_T the all-ones block on
    T) is verified entrywise, and the inertia of R - D has no negative part.
    """

    m: int
    diag: tuple[Fraction, ...]
    r_matrix: tuple[tuple[Fraction, ...], ...]
    weights: Mapping[int, Fraction]
    r_minus_d_inertia: Inertia


def mainpsd_witness(instance: CoverageInstance) -> MainPSDWitness:
    m = instance.n
    cover = instance.weights()
    table = materialize(cover)
    weights = {t: Fraction(v, cover.scale) for t, v in cover.x.items()}
    g1 = [table[1 << i] for i in range(m)]
    r = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        r[i][i] = 2 * g1[i]
        for j in range(i + 1, m):
            pair = table[(1 << i) | (1 << j)]
            r[i][j] = r[j][i] = g1[i] + g1[j] - pair
    bsum = [[ZERO] * m for _ in range(m)]
    for t, x in weights.items():
        members = [b for b in range(m) if t >> b & 1]
        for a in members:
            for b in members:
                bsum[a][b] += x
    for i in range(m):
        for j in range(m):
            expected = bsum[i][j] + (g1[i] if i == j else ZERO)
            if r[i][j] != expected:
                raise InternalCheckError(
                    f"witness identity failed at ({i + 1},{j + 1}): {r[i][j]} != {expected}"
                )
    iner = inertia(bsum)  # R - D, by the identity just checked
    if iner.n_neg != 0:
        raise InternalCheckError(f"R - D came out indefinite: {iner}")
    return MainPSDWitness(
        m=m,
        diag=tuple(g1),
        r_matrix=tuple(tuple(row) for row in r),
        weights=weights,
        r_minus_d_inertia=iner,
    )


def validate_explicit(n: int, family) -> str | None:
    """The independence axioms on a listing, by the two checks that
    `ExplicitMatroid` runs: the listing's own axioms, then the exchange axiom
    on the rank table. The text of the NotAMatroidError they raise, or
    None."""
    try:
        _rank_table(n, _check_listing(n, family))
    except NotAMatroidError as exc:
        return str(exc)
    return None
