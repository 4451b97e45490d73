import math

import numpy as np
import pytest

from dicode.channel import bernoulli_family, make_channel
from dicode.codebook import construct
from dicode.errors import SizeGuardError
from dicode.infodist import (
    entropy,
    false_accept_bound,
    fidelity,
    hypothesis_testing_divergence,
    product_distribution,
    renyi_divergence,
    sqrt_embed,
    total_variation,
    typical_miss_bound,
    typicality_constants,
)


def random_dist(rng, k):
    p = rng.random(k) ** 2 + 1e-12
    return p / p.sum()


def test_total_variation_cases():
    assert total_variation([1, 0], [0, 1]) == 1.0
    assert total_variation([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


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
        tv = total_variation(p, q)
        assert 1 - f <= tv + 1e-12
        assert tv <= math.sqrt(1 - f * f) + 1e-12
        d2 = float(np.sum((sqrt_embed(p) - sqrt_embed(q)) ** 2))
        assert 1 - f * f <= d2 + 1e-12
        assert d2 <= 2 * (1 - f * f) + 1e-12


def test_renyi_values_and_infinity():
    assert renyi_divergence([0.3, 0.7], [0.3, 0.7], 2.0) == pytest.approx(0.0)
    assert renyi_divergence([1, 0], [0.5, 0.5], 2.0) == pytest.approx(1.0)
    assert renyi_divergence([1, 0], [0, 1], 2.0) == math.inf


def test_renyi_additivity_on_products():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p1, q1 = random_dist(rng, 3), random_dist(rng, 3)
        p2, q2 = random_dist(rng, 2), random_dist(rng, 2)
        alpha = 1.0 + rng.random() * 3
        lhs = renyi_divergence(np.kron(p1, p2), np.kron(q1, q2), alpha)
        rhs = renyi_divergence(p1, q1, alpha) + renyi_divergence(p2, q2, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-10)


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
        da = renyi_divergence(p, q, alpha)
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
    # delta = 0 gives the vacuous raw value 2
    assert typical_miss_bound(0.0, 2) == 2.0


def type_row(q, source, owner):
    """Joint-type count row of a word pair: positions per class a*q + b."""
    return np.bincount(np.array(source) * q + np.array(owner), minlength=q * q)


def test_false_accept_bound_cases():
    W = make_channel(["p", "m"], [[0.9, 0.1], [0.1, 0.9]])
    word_a = (0, 0, 0, 0)
    word_b = (1, 1, 1, 1)
    # identical words: fidelity product 1, bound is vacuous (> 1); then
    # hand-evaluated: eps = 0.6^4, equal entropies, 2^(2 delta sqrt(n)) = 16
    _, c = typicality_constants(2)
    want = 2 * math.exp(-c) + 0.6**4 * (1 + 2.0 ** (2 * 1.0 * 2.0))
    same, other = false_accept_bound(W, [type_row(2, word_a, word_a),
                                         type_row(2, word_b, word_a)], 1.0)
    assert same > 1.0
    assert other == pytest.approx(want)
    # letterwise disjoint supports: bound reduces to the tail term
    D = make_channel(["a", "b"], [[1, 0], [0, 1]])
    assert false_accept_bound(D, [type_row(2, (1, 1), (0, 0))], 0.7) == pytest.approx(
        typical_miss_bound(0.7, 2))
    # BSC(0.01), n = 10,000: eps = 0.199^470 is below the float range, but
    # eps 2^exponent = 2^(-1095 + 1930) is not, so the ceiling is vacuous
    B = make_channel(["0", "1"], [[0.99, 0.01], [0.01, 0.99]])
    (bound,) = false_accept_bound(B, [[9530, 0, 470, 0]], 9.65)
    assert typical_miss_bound(9.65, 2) < 1.0 <= bound


def uncached_false_accept_bound(W, owner_word, source_word, delta):
    """The ceiling's formula on one word pair, position by position."""
    n = len(owner_word)
    eps = 1.0
    for xo, xs in zip(owner_word, source_word):
        if xo != xs:
            eps *= fidelity(W.matrix[xo], W.matrix[xs])
    h_owner = sum(entropy(W.matrix[x]) for x in owner_word)
    h_source = sum(entropy(W.matrix[x]) for x in source_word)
    tail = typical_miss_bound(delta, W.output_size)
    if eps == 0.0:
        return tail
    return tail + eps * (1.0 + 2.0 ** (2.0 * delta * math.sqrt(n) + h_owner - h_source))


def test_false_accept_bound_rows_match_per_pair_formula():
    """All 7,744 ordered pairs of the 88-word BERN6 n=10 code, as count rows
    in one call, against the formula evaluated on each pair's words."""
    W = bernoulli_family(2.0, 6)
    code = construct(W, 10, 4.5e-7, 0.5)
    assert code.size == 88
    q, words = W.n_inputs, code.codewords
    got = false_accept_bound(W, [type_row(q, s, o) for o in words for s in words], code.delta)
    want = [uncached_false_accept_bound(W, o, s, code.delta) for o in words for s in words]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_product_distribution():
    W = make_channel(["a", "b"], [[0.75, 0.25], [0.5, 0.5]])
    p = product_distribution(W, (0, 1))
    assert np.allclose(p, [0.375, 0.375, 0.125, 0.125])
    assert p.sum() == pytest.approx(1.0)
