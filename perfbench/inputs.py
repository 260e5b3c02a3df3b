"""Seeded input files for the benchmark workloads.

Every input is generated here in plain Python and written as the JSON the
clckit loaders read, so clckit itself only ever sees the generated files.
The families follow the test-suite generators (random coverage instances,
partition matroids, random tables) plus uniform and graphic matroids and
the budget-additive counterexample. They are re-implemented rather than
imported from the tests so that a change to the tests never moves the
benchmark's inputs.

The seed varies values and labels but not sizes: each family keeps its
ground-set size, degree and support size fixed, so the work per operation
stays close to constant from seed to seed.
"""
from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _labels(mask: int) -> list[int]:
    return [b + 1 for b in range(mask.bit_length()) if mask >> b & 1]


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def write_table(path: Path, n: int, value_of) -> Path:
    """Set-function file {"n", "entries"}; zero values are left out."""
    entries = []
    for mask in range(1, 1 << n):
        v = value_of(mask)
        if v:
            entries.append({"set": _labels(mask), "value": str(v)})
    return write_json(path, {"n": n, "entries": entries})


# --- matroids --------------------------------------------------------------

def uniform_rank(r: int):
    return lambda mask: min(_popcount(mask), r)


def uniform_indicator(r: int):
    return lambda mask: 1 if _popcount(mask) <= r else 0


def partition_blocks(rng: random.Random, n: int) -> tuple[list[list[int]], list[int]]:
    """Blocks of size 1..3 over a shuffled [n], each with a random cap."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    blocks = []
    while labels:
        size = rng.randint(1, min(3, len(labels)))
        blocks.append(sorted(labels[:size]))
        labels = labels[size:]
    caps = [rng.randint(1, len(b)) for b in blocks]
    return blocks, caps


def partition_rank(blocks, caps):
    bmasks = [sum(1 << (e - 1) for e in b) for b in blocks]
    return lambda mask: sum(min(_popcount(mask & bm), c) for bm, c in zip(bmasks, caps))


def random_connected_graph(rng: random.Random, vertices: int, edges: int) -> list[tuple[int, int]]:
    """A random spanning tree plus distinct extra edges, in shuffled order."""
    order = list(range(1, vertices + 1))
    rng.shuffle(order)
    chosen = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, vertices)}
    rest = [e for e in combinations(range(1, vertices + 1), 2) if e not in chosen]
    chosen.update(rng.sample(rest, edges - len(chosen)))
    out = sorted(chosen)
    rng.shuffle(out)
    return out


def graphic_rank(vertices: int, edges):
    def rank(mask):
        parent = list(range(vertices + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for e in _labels(mask):
            u, v = edges[e - 1]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                r += 1
        return r

    return rank


def indicator_of(rank):
    return lambda mask: 1 if rank(mask) == _popcount(mask) else 0


# --- coverage --------------------------------------------------------------

def random_coverage(
    rng: random.Random, n: int, universe_size: int, full_support: bool = False
) -> tuple[list, list]:
    """Weights 0..4 on a small universe and n random subsets of it. With
    full_support, weights are 1..4 and sets nonempty, so f(S) > 0 on every
    nonempty S and the certify sweeps do the same work on every seed."""
    low = 1 if full_support else 0
    universe = [(f"u{i}", rng.randint(low, 4)) for i in range(universe_size)]
    ids = [e for e, _ in universe]
    sets = [sorted(rng.sample(ids, rng.randint(low, universe_size))) for _ in range(n)]
    return universe, sets


def coverage_value(universe, sets):
    weight = dict(universe)
    def value(mask):
        covered = set()
        for e in _labels(mask):
            covered.update(sets[e - 1])
        return sum(weight[u] for u in covered)
    return value


def write_coverage_instance(path: Path, universe, sets) -> Path:
    return write_json(
        path,
        {
            "universe": [{"id": e, "weight": str(w)} for e, w in universe],
            "sets": sets,
        },
    )


# --- other tables ----------------------------------------------------------

def random_table(rng: random.Random, n: int, max_value: int = 4):
    vals = [rng.randint(0, max_value) for _ in range(1 << n)]
    vals[0] = 0
    return vals.__getitem__


def random_level(rng: random.Random, d: int, low: int, high: int):
    """Random positive weights on every d-set, zero elsewhere."""
    cache: dict[int, int] = {}

    def value(mask):
        if _popcount(mask) != d:
            return 0
        if mask not in cache:
            cache[mask] = rng.randint(low, high)
        return cache[mask]

    return value


BUDGET_WEIGHTS = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0)


def budget_additive(mask: int) -> int:
    """min(sum of weights, 2): the paper's non-log-concave submodular function."""
    return min(sum(BUDGET_WEIGHTS[e - 1] for e in _labels(mask)), 2)


def planted_triangle(rng: random.Random, n: int):
    """Degree-2 table whose pair values break the triangle inequality
    f(12) <= f(13) + f(23), which every two-coverage witness satisfies, so
    the witness LP is infeasible by construction.

    The pair values are one fixed random draw; the seed only relabels and
    rescales them, which keeps the LP's pivot sequence, and so its cost,
    the same on every seed.
    """
    fixed = random.Random("planted-triangle")
    values = {(i, j): fixed.randint(1, 4) for i in range(n) for j in range(i + 1, n)}
    values[(0, 1)] = values[(0, 2)] + values[(1, 2)] + 1
    perm = list(range(n))
    rng.shuffle(perm)
    scale = rng.randint(1, 9)
    table = {(1 << perm[i]) | (1 << perm[j]): scale * v for (i, j), v in values.items()}
    return lambda mask: table.get(mask, 0)


def write_joint_pmf(path: Path, rng: random.Random, n: int) -> Path:
    """Random pmf over n binary variables; every outcome has positive mass."""
    counts = [rng.randint(1, 16) for _ in range(1 << n)]
    total = sum(counts)
    pmf = [
        {"outcome": [(o >> b) & 1 for b in range(n)], "p": c / total}
        for o, c in enumerate(counts)
    ]
    return write_json(path, {"alphabets": [2] * n, "pmf": pmf})

