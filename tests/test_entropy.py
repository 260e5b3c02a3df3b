import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clckit import JointDistribution, entropy_decomposition, jsonio
from clckit.errors import InputError

from conftest import cond_entropy, interaction_weights, mmi, perfbench_workloads

TOL = 1e-9


def fair_bit():
    return JointDistribution((2,), {(0,): 0.5, (1,): 0.5})


def independent_bits(n=2):
    p = 1.0 / (1 << n)
    return JointDistribution(
        (2,) * n, {bits: p for bits in itertools.product((0, 1), repeat=n)}
    )


def xor_triple():
    pmf = {}
    for a, b in itertools.product((0, 1), repeat=2):
        pmf[(a, b, a ^ b)] = 0.25
    return JointDistribution((2, 2, 2), pmf)


def constant_triple():
    return JointDistribution((2, 2, 2), {(0, 0, 0): 1.0})


def rand_joint(rng: random.Random, n: int, k: int = 2) -> JointDistribution:
    outcomes = list(itertools.product(*(range(k) for _ in range(n))))
    raw = [rng.random() for _ in outcomes]
    total = sum(raw)
    return JointDistribution((k,) * n, dict(zip(outcomes, (r / total for r in raw))))


def test_cond_entropy_examples():
    assert cond_entropy(fair_bit(), [1]) == pytest.approx(1.0, abs=TOL)
    assert cond_entropy(independent_bits(), [1], [2]) == pytest.approx(1.0, abs=TOL)
    assert cond_entropy(xor_triple(), [3], [1, 2]) == pytest.approx(0.0, abs=TOL)


def test_cond_entropy_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        cond_entropy(independent_bits(), [1], [1])


def test_mmi_examples():
    assert mmi(independent_bits(), (1, 2)) == pytest.approx(0.0, abs=TOL)
    assert mmi(independent_bits(), (1,), [2]) == pytest.approx(1.0, abs=TOL)
    assert mmi(xor_triple(), (1, 2, 3)) == pytest.approx(-1.0, abs=TOL)


@st.composite
def joints(draw):
    """A pmf over 1..5 variables of alphabets 1..3, some outcomes of mass 0."""
    n = draw(st.integers(1, 5))
    alphabets = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    outcomes = list(itertools.product(*map(range, alphabets)))
    counts = draw(st.lists(st.integers(0, 9), min_size=len(outcomes), max_size=len(outcomes)).filter(any))
    total = sum(counts)
    return JointDistribution(alphabets, {o: c / total for o, c in zip(outcomes, counts)})


def assert_weights_match_oracle(joint):
    dec = entropy_decomposition(joint)
    oracle = interaction_weights(joint)
    assert dec.weights.keys() == oracle.keys()
    for t, w in oracle.items():
        assert dec.weights[t] == pytest.approx(w, abs=TOL), t


@settings(max_examples=80, deadline=None)
@given(joint=joints())
def test_weights_match_inclusion_exclusion_oracle(joint):
    assert_weights_match_oracle(joint)


def test_weights_match_oracle_on_benchmark_pmf(tmp_path):
    # the n = 8 pmf of the certify workload's seed-1 batch
    perfbench_workloads().build("certify", 1, tmp_path)
    joint = jsonio.load_joint_distribution(str(tmp_path / "pmf-8.json"))
    assert joint.n == 8
    assert_weights_match_oracle(joint)


def test_mmi_order_invariance():
    rng = random.Random(71)
    for _ in range(20):
        joint = rand_joint(rng, 4)
        order = [1, 2, 3]
        base = mmi(joint, order, [4])
        for perm in itertools.permutations(order):
            assert mmi(joint, perm, [4]) == pytest.approx(base, abs=TOL)


def test_decomposition_independent_bits():
    dec = entropy_decomposition(independent_bits())
    assert dec.weights[0b01] == pytest.approx(1.0, abs=TOL)
    assert dec.weights[0b10] == pytest.approx(1.0, abs=TOL)
    assert dec.weights[0b11] == pytest.approx(0.0, abs=TOL)
    assert dec.max_identity_residual <= TOL
    assert not dec.has_negative_weight


def test_decomposition_xor_triple():
    dec = entropy_decomposition(xor_triple())
    for single in (0b001, 0b010, 0b100):
        assert dec.weights[single] == pytest.approx(0.0, abs=TOL)
    for pair in (0b011, 0b101, 0b110):
        assert dec.weights[pair] == pytest.approx(1.0, abs=TOL)
    assert dec.weights[0b111] == pytest.approx(-1.0, abs=TOL)
    assert dec.has_negative_weight
    assert dec.min_weight == pytest.approx(-1.0, abs=TOL)
    # the identity still reconstructs the entropies: H(Y_1) = 0 + 1 + 1 - 1
    assert dec.values[0b001] == pytest.approx(1.0, abs=TOL)
    assert dec.max_identity_residual <= TOL


def test_decomposition_constants():
    dec = entropy_decomposition(constant_triple())
    assert all(abs(w) <= TOL for w in dec.weights.values())
    assert all(abs(v) <= TOL for v in dec.values)


def test_identity_residual_random_joints():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(1, 4)
        dec = entropy_decomposition(rand_joint(rng, n, k=rng.randint(2, 3)))
        assert dec.max_identity_residual <= TOL
        assert dec.mobius_max_diff <= TOL


def test_entropy_tables_monotone_submodular_within_tolerance():
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randint(2, 4)
        dec = entropy_decomposition(rand_joint(rng, n))
        vals = dec.values
        full = (1 << n) - 1
        for s in range(full + 1):
            for b in range(n):
                if s >> b & 1:
                    continue
                assert vals[s] <= vals[s | 1 << b] + TOL  # monotone
                for c in range(b + 1, n):
                    if s >> c & 1:
                        continue
                    i, j = 1 << b, 1 << c
                    assert (
                        vals[s | i] + vals[s | j]
                        >= vals[s | i | j] + vals[s] - TOL
                    )  # submodular


def test_pmf_validation():
    with pytest.raises(ValueError):
        JointDistribution((2,), {(0,): 0.7, (1,): 0.2})
    with pytest.raises(ValueError):
        JointDistribution((2,), {(0,): 1.5, (1,): -0.5})
    with pytest.raises(ValueError):
        JointDistribution((2,), {(2,): 1.0})


def test_nan_probability_refused():
    # abs(nan - 1) > 1e-12 is False, so the sum check alone would pass it
    # and the decomposition would report H = 0.5 bits
    with pytest.raises(InputError, match=r"probability nan at \(0,\) is not a number"):
        JointDistribution((2,), {(0,): float("nan"), (1,): 0.5})
