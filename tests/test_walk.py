import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from clckit import (
    SetFunctionTable,
    UniformMatroid,
    certify_clc_homogeneous,
    independence_indicator,
    mixing_time_exact,
    sample_chain,
    to_setfunction,
    transition_matrix,
    walk_instance,
)
from clckit import walk
from clckit.errors import InternalCheckError
from clckit.setfn import homogeneous_restrict
from clckit.walk import _draw, histogram_tv, make_rng, philox_words, step

from conftest import fraction_rows, is_irreducible, k4, swap_classes


def uniform_pairs_of_3():
    return walk_instance(
        SetFunctionTable.from_entries(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}), 2
    )


def test_transition_matrix_uniform_pairs():
    tm = transition_matrix(uniform_pairs_of_3())
    h, q = Fraction(1, 2), Fraction(1, 4)
    assert fraction_rows(tm) == (
        {0: h, 1: q, 2: q},
        {0: q, 1: h, 2: q},
        {0: q, 1: q, 2: h},
    )


def test_transition_matrix_d1_rows_equal_mu():
    f = SetFunctionTable.from_entries(3, {(1,): 1, (2,): 2, (3,): 1})
    w = walk_instance(f, 1)
    tm = transition_matrix(w)
    mu = {j: Fraction(v, w.total) for j, v in enumerate(w.weights)}
    assert all(row == mu for row in fraction_rows(tm))


def test_transition_matrix_single_state():
    f = SetFunctionTable.from_entries(3, {(1, 2): 5})
    tm = transition_matrix(walk_instance(f, 2))
    assert tm.rows == ({0: 1},)


def test_transition_matrix_sees_balance_broken_one_way(monkeypatch):
    # the matrix is read off one candidate row per base. Base {1} doubling
    # the weight of {1,2} makes P({1,2} -> {1,3}) = 1/6 but P({1,3} -> {1,2})
    # = 1/3; base {1} forgetting {1,3} leaves the row of {1,3} at 1/2
    real = walk._candidate_row

    def patched(row):
        return lambda w, base: row if base == 0b001 else real(w, base)

    monkeypatch.setattr(walk, "_candidate_row", patched(((0b011, 0b101), [2, 3])))
    with pytest.raises(InternalCheckError, match="detailed balance violated between states 0 and 1"):
        transition_matrix(uniform_pairs_of_3())
    monkeypatch.setattr(walk, "_candidate_row", patched(((0b011,), [1])))
    with pytest.raises(InternalCheckError, match="row 1 does not sum to 1"):
        transition_matrix(uniform_pairs_of_3())


def test_step_stays_on_single_support():
    f = SetFunctionTable.from_entries(3, {(1, 2): 5})
    w = walk_instance(f, 2)
    next_word, cache = philox_words(make_rng(0)).__next__, {}
    state = w.support[0]
    for _ in range(10):
        state = step(w, state, next_word, cache)
        assert state == w.support[0]
    assert sample_chain(w, state, 10, seed=0).histogram == {state: 11}


def test_step_empirical_matches_exact_row():
    w = uniform_pairs_of_3()
    tm = transition_matrix(w)
    start = w.support[0]
    next_word, cache = philox_words(make_rng(12345)).__next__, {}
    counts = {s: 0 for s in w.support}
    trials = 4000
    for _ in range(trials):
        counts[step(w, start, next_word, cache)] += 1
    row = fraction_rows(tm)[0]
    for j, s in enumerate(w.support):
        assert counts[s] / trials == pytest.approx(float(row.get(j, 0)), abs=0.03)


def test_step_rejects_foreign_state():
    # the step kernel only ever sees states of the support: the chain checks
    # its start, and every step moves to a cached candidate
    w = uniform_pairs_of_3()
    with pytest.raises(ValueError):
        sample_chain(w, 0b111, 5, seed=0)


def test_block_words_reproduce_rng_bytes():
    # 6000 draws of 1..9 bytes read about 10 000 words, across several blocks
    rng = random.Random(8)
    for seed in (0, 1, 2**63 + 5):
        ref = make_rng(seed)
        next_word = philox_words(make_rng(seed)).__next__
        for _ in range(6000):
            n = rng.randint(1, 9)
            assert _draw(next_word, n) == int.from_bytes(ref.bytes(n), "little")


# Golden philox4x64-10/v1 trajectories: (table, d, seed, steps), then the
# final state and the sha256 of the sorted histogram, as produced by a
# per-step Fraction sampler drawing one rng.bytes call per draw
# (conftest.sample_chain_oracle).
PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093)
GOLDEN = {
    "d1": (
        lambda: SetFunctionTable.from_entries(5, {(1,): 1, (2,): 3, (3,): 2, (4,): 5, (5,): 1}),
        1, 11, 2000,
        2, "a4ed2e949eb5cdccac0943b901b47d8cf043b90e3131bdc607e5f84baa024643",
    ),
    "d2": (
        lambda: SetFunctionTable.from_entries(
            5, {p: (sum(p) * 7) % 5 + 1 for p in combinations(range(1, 6), 2)}
        ),
        2, 7, 3000,
        17, "ade3f7fcaac09da4f9326d739f3950ee037a63aec635ad373437d8adbfa85d97",
    ),
    "d3": (
        lambda: SetFunctionTable.from_entries(
            6, {p: (p[0] * p[1] + p[2]) % 4 + 1 for p in combinations(range(1, 7), 3)}
        ),
        3, 2024, 3000,
        56, "f17c8dbbf4bd1d72ed7b785487684afc51346629f032269eb5e71a514369148d",
    ),
    # coprime denominators: every scaled candidate total exceeds 2**32, so
    # each target draw spans two words
    "coprime": (
        lambda: SetFunctionTable.from_entries(
            6,
            {
                p: Fraction(i + 2, q)
                for i, (p, q) in enumerate(zip(combinations(range(1, 7), 2), PRIMES))
            },
        ),
        2, 5, 2000,
        6, "0715d57f6dac35f98ff334d808d95822532a8ae104880120e91eb13c35d5c4fd",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sample_chain_golden_trajectory(name):
    table, d, seed, steps, final, digest = GOLDEN[name]
    w = walk_instance(table(), d)
    res = sample_chain(w, w.support[0], steps, seed)
    assert res.final == final
    assert hashlib.sha256(repr(sorted(res.histogram.items())).encode()).hexdigest() == digest


def test_mixing_uniform_pairs_exact():
    # P = (I + J)/4 has non-unit eigenvalue 1/4; from a point mass the TV is
    # (2/3) (1/4)^t, and (2/3)/64 = 1/96 > 1/100, so eps = 0.01 needs t = 4
    res = mixing_time_exact(uniform_pairs_of_3(), Fraction(1, 100))
    assert res.converged
    assert res.t_mix == 4
    assert res.tv_curve[3] == Fraction(1, 96)
    assert res.switched_to_float_at is None
    # curve is nonincreasing
    assert all(a >= b for a, b in zip(res.tv_curve, res.tv_curve[1:]))
    assert res.ratio == pytest.approx(4 / (2 * __import__("math").log(2 / 0.01)))


def test_mixing_single_state():
    f = SetFunctionTable.from_entries(2, {(1, 2): 1})
    res = mixing_time_exact(walk_instance(f, 2), Fraction(1, 2))
    assert res.t_mix == 0


def test_mixing_d1_one_step():
    f = SetFunctionTable.from_entries(4, {(1,): 1, (2,): 3, (3,): 1, (4,): 2})
    res = mixing_time_exact(walk_instance(f, 1), Fraction(1, 1000))
    assert res.t_mix <= 1


def test_mixing_reducible_reports_no_convergence(monkeypatch):
    f = SetFunctionTable.from_entries(4, {(1, 2): 1, (3, 4): 1})
    w = walk_instance(f, 2)
    assert not is_irreducible(w)
    monkeypatch.setattr(walk, "MAX_STEPS", 50)
    res = mixing_time_exact(w, Fraction(1, 10))
    assert not res.converged
    assert res.t_mix is None
    # each state is its own class of mass 1/2, so no step gets the TV below
    # 1/2 and the run stops before powering
    assert walk._tv_floor(w, transition_matrix(w)) == Fraction(1, 2)
    assert res.tv_curve == (Fraction(1, 2),)


def test_floor_of_three_classes_is_one_minus_the_lightest():
    # classes of mass 3, 5 and 1 out of 9: from {6,7} the TV stays 8/9
    entries = {(1, 2): 1, (1, 3): 1, (2, 3): 1, (4, 5): 5, (6, 7): 1}
    w = walk_instance(SetFunctionTable.from_entries(7, entries), 2)
    assert len(swap_classes(w)) == 3
    assert walk._tv_floor(w, transition_matrix(w)) == Fraction(8, 9)
    res = mixing_time_exact(w, Fraction(1, 2))
    assert (res.converged, res.t_mix, res.tv_curve) == (False, None, (Fraction(8, 9),))


def test_sample_chain_zero_steps_and_determinism():
    w = uniform_pairs_of_3()
    start = w.support[1]
    res0 = sample_chain(w, start, 0, seed=9)
    assert res0.final == start
    assert res0.histogram == {start: 1}
    a = sample_chain(w, start, 500, seed=9)
    b = sample_chain(w, start, 500, seed=9)
    assert a.final == b.final and a.histogram == b.histogram
    c = sample_chain(w, start, 500, seed=10)
    assert a.histogram != c.histogram


def test_sample_chain_histogram_converges():
    w = uniform_pairs_of_3()
    res = sample_chain(w, w.support[0], 10**5, seed=2024)
    assert histogram_tv(w, res.histogram) <= 0.02


def test_detailed_balance_on_certified_instances():
    # the constructor re-verifies balance; this exercises it over instances
    # whose restrictions were certified log-concave
    cases = []
    for m, d in ((UniformMatroid(2, 4), 2), (k4(), 3), (UniformMatroid(3, 5), 3)):
        ind = independence_indicator(to_setfunction(m))
        assert certify_clc_homogeneous(ind, d).verdict == "certified"
        cases.append(walk_instance(homogeneous_restrict(ind, d), d))
    for w in cases:
        transition_matrix(w)
        assert is_irreducible(w)


def test_histogram_tv_counts_visits_off_the_support():
    # mu = (1/4, 3/4) on {1}, {2}; a quarter of the visits land on {1,2},
    # outside the support: (|1/2 - 1/4| + |1/4 - 3/4| + 1/4) / 2 = 1/2
    w = walk_instance(SetFunctionTable.from_entries(2, {(1,): 1, (2,): 3}), 1)
    assert histogram_tv(w, {0b01: 2, 0b10: 1, 0b11: 1}) == 0.5
    assert histogram_tv(w, {0b11: 3}) == 1.0


def test_empirical_tv_shrinks_with_time():
    w = uniform_pairs_of_3()
    short = sample_chain(w, w.support[0], 200, seed=5)
    long = sample_chain(w, w.support[0], 20000, seed=5)
    assert histogram_tv(w, long.histogram) <= histogram_tv(w, short.histogram) + 0.01


def test_float_switch_still_converges(monkeypatch):
    # an asymmetric 6-state chain driven past the bit cap switches to floats
    rng = random.Random(3)
    entries = {}
    from itertools import combinations

    for pair in combinations(range(1, 5), 2):
        entries[pair] = Fraction(rng.randint(1, 7), rng.randint(1, 5))
    f = SetFunctionTable.from_entries(4, entries)
    w = walk_instance(f, 2)
    monkeypatch.setattr(walk, "MAX_BITS", 64)
    res = mixing_time_exact(w, Fraction(1, 10**6))
    assert res.converged
    assert res.switched_to_float_at is not None
    assert res.t_mix >= 1


def test_numpy_loads_only_where_the_walk_runs():
    # a new interpreter, since this suite imports numpy itself (tests/conftest.py)
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys, clckit, clckit.cli\n"
        "assert 'numpy' not in sys.modules, 'importing clckit loaded numpy'\n"
        "clckit.walk.make_rng(1)\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
