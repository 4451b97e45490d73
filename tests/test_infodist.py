import math

import numpy as np
import pytest

from dicode.channel import make_channel
from dicode.errors import SizeGuardError
from dicode.infodist import (
    entropy,
    fidelity,
    hypothesis_testing_divergence,
    product_distribution,
    sqrt_embed,
    typicality_constants,
)


def random_dist(rng, k):
    p = rng.random(k) ** 2 + 1e-12
    return p / p.sum()


def test_fidelity_cases():
    assert fidelity([0.2, 0.8], [0.2, 0.8]) == pytest.approx(1.0)
    assert fidelity([1, 0], [0, 1]) == 0.0
    assert fidelity([0.5, 0.5], [0.9, 0.1]) == pytest.approx(
        math.sqrt(0.45) + math.sqrt(0.05))


def test_sqrt_embed():
    assert np.allclose(sqrt_embed([1, 0]), [1, 0])
    assert np.allclose(sqrt_embed([0.25, 0.75]), [0.5, math.sqrt(0.75)])


def test_entropy_values():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.9, 0.1]) == pytest.approx(0.468996, abs=1e-6)


def test_fuchs_van_de_graaf_and_sqrt_sandwich():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = rng.integers(2, 6)
        p, q = random_dist(rng, k), random_dist(rng, k)
        f = fidelity(p, q)
        tv = 0.5 * float(np.abs(p - q).sum())
        assert 1 - f <= tv + 1e-12
        assert tv <= math.sqrt(1 - f * f) + 1e-12
        d2 = float(np.sum((sqrt_embed(p) - sqrt_embed(q)) ** 2))
        assert 1 - f * f <= d2 + 1e-12
        assert d2 <= 2 * (1 - f * f) + 1e-12


def test_ht_divergence_basics():
    p = np.array([0.3, 0.7])
    assert hypothesis_testing_divergence(p, p, 0.5) == pytest.approx(1.0)
    assert hypothesis_testing_divergence([1, 0], [0.5, 0.5], 0.1) == pytest.approx(
        -math.log2(0.45))
    # monotone in the rejection budget
    q = np.array([0.6, 0.4])
    vals = [hypothesis_testing_divergence(p, q, e) for e in (0.1, 0.3, 0.5, 0.8)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def brute_force_ht(p, q, eps):
    """Exhaustive optimum over all subsets plus one fractional outcome."""
    k = len(p)
    best = math.inf
    for bits in range(1 << k):
        s = [i for i in range(k) if bits >> i & 1]
        ps = sum(p[i] for i in s)
        qs = sum(q[i] for i in s)
        if ps >= 1 - eps - 1e-12:
            best = min(best, qs)
        for b in range(k):
            if b in s:
                continue
            if p[b] == 0:
                continue
            gamma = (1 - eps - ps) / p[b]
            if 0 <= gamma < 1:
                best = min(best, qs + gamma * q[b])
    return math.inf if best <= 0 else -math.log2(best)


def test_ht_divergence_matches_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(2, 13))
        p, q = random_dist(rng, k), random_dist(rng, k)
        eps = float(rng.uniform(0.05, 0.9))
        got = hypothesis_testing_divergence(p, q, eps)
        want = brute_force_ht(p, q, eps)
        assert got == pytest.approx(want, rel=1e-9)


def test_ht_renyi_relation():
    # D_h^eps <= D_alpha + (alpha/(alpha-1)) log2(1/(1-eps))
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        p, q = random_dist(rng, k), random_dist(rng, k)
        eps = float(rng.uniform(0.05, 0.9))
        alpha = 1.0 + float(rng.random()) * 4
        dh = hypothesis_testing_divergence(p, q, eps)
        da = math.log2(float((p**alpha * q ** (1 - alpha)).sum())) / (alpha - 1)  # D_alpha
        assert dh <= da + alpha / (alpha - 1) * math.log2(1 / (1 - eps)) + 1e-9


def test_ht_outcome_guard():
    with pytest.raises(SizeGuardError):
        hypothesis_testing_divergence(np.ones(2 * 10**7) / 2e7,
                                      np.ones(2 * 10**7) / 2e7, 0.1)


def test_typicality_constants_and_miss_bound():
    K2, c2 = typicality_constants(2)
    assert K2 == pytest.approx(math.log2(3) ** 2)
    assert c2 == pytest.approx(1 / (36 * math.log2(3) ** 2))
    K8, c8 = typicality_constants(8)
    assert K8 == 9.0
    assert c8 == pytest.approx(1 / 324)


def test_product_distribution():
    W = make_channel(["a", "b"], [[0.75, 0.25], [0.5, 0.5]])
    p = product_distribution(W, (0, 1))
    assert np.allclose(p, [0.375, 0.375, 0.125, 0.125])
    assert p.sum() == pytest.approx(1.0)
