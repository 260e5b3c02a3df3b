"""Down-up walk over the size-d support of a set function.

One step from S drops a uniformly random element i, then moves to
R + {j} (j outside R = S - {i}, including j = i) with probability
proportional to f(R + {j}). Re-adding i always has positive weight, so the
chain never leaves the support. The stationary distribution is f / sum(f)
and detailed balance holds exactly; transition_matrix re-verifies both
rather than assuming them.

Each base R has one candidate row: its targets and their cumulative
weights, the table's numerators divided by gcd(scale, row). A sampled chain
caches the row of each base it visits and, per state, the rows of its d
bases, with the rejection masks of both draws, so a step is two one-word
rejection draws and a bisection. The transition matrix is read off the row of every base as
integer rows over one common denominator, and mixing powers those rows.

Randomness comes from numpy's Philox4x64-10 counter-based generator, scheme
"philox4x64-10/v1": the key is the user seed, an n-byte draw is the first n
little-endian bytes of ceil(n/4) uint32 words, and draws are reduced by
masked rejection sampling, so trajectories are reproducible across platforms
and the exact rational step probabilities are sampled without float bias.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul, sub
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from .bitsets import components, labels_of
from .errors import CapExceededError, InputError, InternalCheckError
from .setfn import SetFunctionTable, exact

if TYPE_CHECKING:
    import numpy as np

RNG_SCHEME = "philox4x64-10/v1"
WORD_BLOCK = 1024  # uint32 words drawn from the generator per numpy call
MAX_STEPS = 10**6  # powering steps before mixing reports no convergence
MAX_BITS = 4096  # widest exact entry, in bits, before powering turns to binary64


def make_rng(seed: int) -> np.random.Generator:
    import numpy as np  # only the walk needs numpy, so importing clckit does not load it

    return np.random.Generator(np.random.Philox(key=seed))


def philox_words(rng: np.random.Generator) -> Iterator[int]:
    """The uint32 word stream behind `rng.bytes`, drawn WORD_BLOCK words at a time.

    `Generator.bytes(n)` is `integers(0, 2**32, size=ceil(n/4), dtype=uint32)`
    as little-endian bytes cut to n, and those words continue one stream
    across calls, so reading the words in blocks yields the same stream.
    """
    import numpy as np

    while True:
        yield from rng.integers(0, 2**32, size=WORD_BLOCK, dtype=np.uint32).tolist()


def _draw(next_word: Callable[[], int], nbytes: int) -> int:
    """`int.from_bytes(rng.bytes(nbytes), "little")`, read from the word stream."""
    r = next_word()
    for shift in range(32, 8 * nbytes, 32):
        r |= next_word() << shift
    return r & ((1 << 8 * nbytes) - 1)


@dataclass(frozen=True)
class WalkInstance:
    n: int
    d: int
    support: tuple[int, ...]  # size-d masks with f > 0, ascending
    weights: tuple[int, ...]  # f's numerators aligned with support
    total: int  # their sum
    scale: int  # f's denominator: f(support[i]) = weights[i] / scale
    index: Mapping[int, int] = field(repr=False)


def walk_instance(f: SetFunctionTable, d: int) -> WalkInstance:
    if not 1 <= d <= f.n:
        raise InputError(f"need 1 <= d <= n, got d={d}")
    support = f.support(size=d)
    if not support:
        raise InputError(f"f has no nonzero sets of size {d}")
    weights = tuple(f.nums[m] for m in support)
    return WalkInstance(
        n=f.n,
        d=d,
        support=support,
        weights=weights,
        total=sum(weights),
        scale=f.scale,
        index={m: i for i, m in enumerate(support)},
    )


def _candidate_row(w: WalkInstance, base: int) -> tuple[tuple[int, ...], list[int]]:
    """Targets R + {j} in the support from the base R, ascending, and their
    cumulative weights over the lcm of the weight denominators, which is
    scale / gcd(scale, row); the walk's one enumeration of candidates."""
    targets = tuple(t for j in range(w.n) if (t := base | 1 << j) != base and t in w.index)
    if not targets:
        raise InternalCheckError("no candidate after dropping; support corrupted")
    row = [w.weights[w.index[t]] for t in targets]
    g = math.gcd(w.scale, *row)
    return targets, list(accumulate(v // g for v in row))


def _state_rows(w: WalkInstance, state: int, cache: dict) -> tuple:
    """The rows of the d bases state - {i} in label order, padded with None
    to a power of two, so that a word masked to the length indexes it and
    draws a dropped element below d by rejection. Each base's row is its
    `_candidate_row` and the rejection mask below the row's total, cached
    once per base and shared by the states above it."""
    rows = []
    rest = state
    while rest:
        base = state ^ (low := rest & -rest)
        row = cache.get(base)
        if row is None:
            targets, cumulative = _candidate_row(w, base)
            row = cache[base] = targets, cumulative, (1 << (cumulative[-1] - 1).bit_length()) - 1
        rows.append(row)
        rest ^= low
    return (*rows, *[None] * ((1 << (len(rows) - 1).bit_length()) - len(rows)))


def step(w: WalkInstance, state: int, next_word: Callable[[], int], cache: dict) -> int:
    """One down-up transition; deterministic given the chain's word stream.

    `cache` maps each state the chain has visited to its `_state_rows` and
    each base below them to its row; a state has d members and a base d - 1,
    so the keys never collide. A mask is all ones over the bits of
    bound - 1. A draw below a bound of at most 2^32 reads one word and keeps
    the mask's bits of it, which is the n-byte draw for n <= 4, and a bound
    of 1 reads nothing; wider bounds read n-byte draws. The drop draw is
    below d <= 24, so it is one word.
    """
    rows = cache.get(state)
    if rows is None:
        rows = cache[state] = _state_rows(w, state, cache)
    mask = len(rows) - 1
    row = rows[next_word() & mask] if mask else rows[0]
    while row is None:
        row = rows[next_word() & mask]
    targets, cumulative, mask = row
    bound = cumulative[-1]
    if mask >> 32:
        nbytes = (mask.bit_length() + 7) // 8
        r = _draw(next_word, nbytes) & mask
        while r >= bound:
            r = _draw(next_word, nbytes) & mask
    elif mask:
        r = next_word() & mask
        while r >= bound:
            r = next_word() & mask
    else:
        return targets[0]
    return targets[bisect_right(cumulative, r)]


@dataclass(frozen=True)
class TransitionMatrix:
    """P = rows / scale: per row, column -> nonzero integer numerator, both
    indexing w.support; scale is the lcm of the entries' reduced denominators."""

    rows: tuple[dict[int, int], ...]
    scale: int


def transition_matrix(w: WalkInstance) -> TransitionMatrix:
    """Exact transition matrix, built base by base in integers.

    P(S, T) = (1/d) sum over bases R inside S and T of c_T / C_R, with c the
    candidate row of R and C_R its total, so each distinct base R adds
    c_T L' / (d C_R) to the numerator of every ordered pair of its targets,
    over L' = lcm of the d C_R. Dividing L' and every numerator by their gcd
    leaves the lcm of the entries' reduced denominators. Row sums and
    detailed balance (w_S N_ST = w_T N_TS) are re-verified over every nonzero
    entry before returning (a pair that is zero both ways balances
    trivially; one nonzero either way is seen from its row)."""
    bases = {s & ~(1 << (drop - 1)) for s in w.support for drop in labels_of(s)}
    rows = [_candidate_row(w, base) for base in sorted(bases)]
    common = math.lcm(*(w.d * cumulative[-1] for _, cumulative in rows))
    sparse: list[dict[int, int]] = [{} for _ in w.support]
    for targets, cumulative in rows:
        factor = common // (w.d * cumulative[-1])
        nums = [
            (w.index[t], c * factor)
            for t, c in zip(targets, map(sub, cumulative, [0, *cumulative]))
        ]
        for si, _ in nums:
            row = sparse[si]
            for ti, v in nums:
                row[ti] = row.get(ti, 0) + v
    g = math.gcd(common, *(v for row in sparse for v in row.values()))
    scale = common // g
    sparse = [{ti: v // g for ti, v in row.items()} for row in sparse]
    for si, row in enumerate(sparse):
        if sum(row.values()) != scale:
            raise InternalCheckError(f"row {si} does not sum to 1")
        for ti, v in row.items():
            if w.weights[si] * v != w.weights[ti] * sparse[ti].get(si, 0):
                raise InternalCheckError(
                    f"detailed balance violated between states {min(si, ti)} and {max(si, ti)}"
                )
    return TransitionMatrix(tuple(sparse), scale)


@dataclass(frozen=True)
class MixingResult:
    t_mix: int | None
    ratio: float | None  # observed constant in t_mix ~ d ln(d/eps)
    tv_curve: tuple  # max-over-starts TV after each step (Fraction while exact)
    converged: bool
    switched_to_float_at: int | None


def _exact_tv(rows: list[list[int]], scale: int, w: WalkInstance) -> Fraction:
    """max_i TV(rows[i] / scale, w.weights / w.total), exactly."""
    target = [scale * x for x in w.weights]
    worst = max(sum(map(abs, map(sub, map(mul, row, repeat(w.total)), target))) for row in rows)
    return Fraction(worst, 2 * scale * w.total)


def _exceeds_bits(rows: list[list[int]], scale: int) -> bool:
    """Whether some nonzero a / scale in lowest terms has a numerator or
    denominator of more than MAX_BITS bits; never while scale fits, since
    every a is at most scale."""
    if scale.bit_length() <= MAX_BITS:
        return False
    for row in rows:
        for a in row:
            if a:
                g = math.gcd(a, scale)
                if max((a // g).bit_length(), (scale // g).bit_length()) > MAX_BITS:
                    return True
    return False


def _tv_floor(w: WalkInstance, tm: TransitionMatrix) -> Fraction:
    """L = 1 - min over classes C of mu(C), with the classes the connected
    components of P's rows (symmetric by detailed balance): state i's column
    is the support of its row, which holds i itself since re-adding the
    dropped element has positive weight. A step never leaves the class C of
    its start, so P^t(S, C) = 1 and the TV from S is at least
    P^t(S, C) - mu(C) = 1 - mu(C) at every t; the max over starts is at
    least L, which is 0 exactly when the walk is irreducible."""
    classes = components([(1 << i, sum(1 << j for j in row)) for i, row in enumerate(tm.rows)])
    lightest = min(sum(w.weights[i - 1] for i in labels_of(c)) for c in classes)
    return 1 - Fraction(lightest, w.total)


def mixing_time_exact(w: WalkInstance, eps, cap: int = 2000) -> MixingResult:
    """Smallest t with max-over-starts TV(P^t(S0, .), mu) <= eps.

    P is written N / L, with L the lcm of its entries' denominators and N
    sparse integer rows (at most d(n-d)+1 nonzeros each). The exact loop
    keeps the integer rows N^t over the one denominator L^t, and the TV
    after t steps is the exact ratio max_i sum_j |N^t[i][j] W - L^t w_j| /
    (2 L^t W), with w the integer weights and W their sum (the ratio is
    homogeneous in w). Once some entry N^t[i][j] / L^t, in lowest terms, has
    a numerator or denominator of more than MAX_BITS bits, the float loop
    takes over in binary64 with 1e-12 slack on the eps comparison; the TV of
    the switch step is the float of its exact value. The TV curve must be
    nonincreasing: in the exact loop a violation raises (it would be a bug),
    in the float loop a 1e-12 wobble is tolerated. The run is reported
    unconverged after MAX_STEPS steps, or before any step when eps is below
    the floor L of `_tv_floor` that no power of P goes under.
    """
    eps = exact(eps)
    if not 0 < eps < 1:
        raise InputError("eps must lie strictly between 0 and 1")
    k = len(w.support)
    if k > cap:
        raise CapExceededError(f"support size {k} exceeds cap {cap}")
    tm = transition_matrix(w)
    # column j of N as (row indices, integer entries)
    cols = [([], []) for _ in range(k)]
    for i, row in enumerate(tm.rows):
        for j, v in row.items():
            cols[j][0].append(i)
            cols[j][1].append(v)
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    scale = 1  # L^t
    t = 0
    tv = _exact_tv(rows, scale, w)
    curve = [tv]
    if eps < _tv_floor(w, tm):
        return MixingResult(None, None, (tv,), False, None)
    switched_at = None
    while tv > eps and switched_at is None:
        if t >= MAX_STEPS:
            return MixingResult(None, None, tuple(curve), False, None)
        for i, row in enumerate(rows):
            rows[i] = [sum(map(mul, map(row.__getitem__, idx), vals)) for idx, vals in cols]
        scale *= tm.scale
        t += 1
        new_tv = _exact_tv(rows, scale, w)
        if new_tv > tv:
            raise InternalCheckError("TV increased during exact powering")
        tv = new_tv
        if _exceeds_bits(rows, scale):
            switched_at, tv = t, float(tv)
        curve.append(tv)
    eps_f = float(eps)
    if switched_at is not None:
        import numpy as np

        rows = np.array([[a / scale for a in row] for row in rows])
        p = np.zeros((k, k))
        for i, row in enumerate(tm.rows):
            for j, v in row.items():
                p[i, j] = v / tm.scale
        mu = np.array([wt / w.total for wt in w.weights])
        while tv > eps_f + 1e-12:
            if t >= MAX_STEPS:
                return MixingResult(None, None, tuple(curve), False, switched_at)
            rows = rows @ p
            t += 1
            new_tv = float(abs(rows - mu).sum(axis=1).max() / 2.0)
            if new_tv > tv + 1e-12:
                raise InternalCheckError("TV increased during float powering")
            tv = new_tv
            curve.append(tv)
    ratio = t / (w.d * math.log(w.d / eps_f)) if t else 0.0
    return MixingResult(t, ratio, tuple(curve), True, switched_at)


@dataclass(frozen=True)
class ChainResult:
    final: int
    histogram: Mapping[int, int]  # state mask -> visits (start included)
    steps: int
    seed: int


def sample_chain(w: WalkInstance, start: int, steps: int, seed: int) -> ChainResult:
    """Run `steps` transitions from `start`; reproducible for a fixed seed."""
    if start not in w.index:
        raise InputError(f"start {list(labels_of(start))} is not in the support")
    if steps < 0:
        raise InputError("steps must be nonnegative")
    if not 0 <= seed < 1 << 128:  # the Philox key
        raise InputError(f"seed {seed} out of range [0, 2^128)")
    # the generator is private to this chain, so the words left unread in
    # its last block are never observed
    next_word = philox_words(make_rng(seed)).__next__
    cache: dict = {}
    hist: dict[int, int] = {}
    state = start
    hist[state] = 1
    for _ in range(steps):
        state = step(w, state, next_word, cache)
        hist[state] = hist.get(state, 0) + 1
    return ChainResult(final=state, histogram=hist, steps=steps, seed=seed)


def histogram_tv(w: WalkInstance, histogram: Mapping[int, int]) -> float:
    """TV distance between a visit histogram and the exact stationary mu."""
    total = sum(histogram.values())
    if total == 0:
        raise ValueError("empty histogram")
    acc = 0.0
    for mask, weight in zip(w.support, w.weights):
        emp = histogram.get(mask, 0) / total
        acc += abs(emp - weight / w.total)
    extra = sum(v for m, v in histogram.items() if m not in w.index)
    return (acc + extra / total) / 2.0

