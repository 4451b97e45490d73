import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dicode.bounds import thm1_lower
from dicode.channel import bernoulli_family, identity_channel, make_channel
from dicode.codebook import (
    assemble_code,
    build_letter_alphabet,
    code_from_json,
    code_to_json,
    construct,
    derive_params,
    distance_code,
    entropy_binning,
    min_pairwise_hamming,
    word_output_entropy,
)
from dicode.errors import SizeGuardError, ValidationError
from dicode.infodist import binary_entropy, fidelity, typicality_constants


def test_derive_params_reference_point():
    p = derive_params(1e-5, 0.5, 2, 12)
    assert p.c == pytest.approx(0.0110576, abs=1e-6)
    assert p.beta == pytest.approx(0.38384, abs=2e-4)
    assert p.tau == pytest.approx(0.030512, abs=2e-4)
    assert not p.remark_trivial
    assert p.guarantee_valid
    assert p.lambda1_ceiling == pytest.approx(2 * math.exp(-p.c * p.tau**2 * 12))
    assert p.e1_floor == pytest.approx(1e-5 - 1 / 12)


@pytest.mark.parametrize("E", [math.nan, math.inf, 0.0, -1e-5])
def test_derive_params_refuses_bad_exponent(E):
    # an infinite E used to give an infinite delta in code.json
    with pytest.raises(ValidationError, match="exponent target"):
        derive_params(E, 0.5, 2, 8)


def test_derive_params_round_trip():
    _, c = typicality_constants(2)
    beta = 0.61
    t = 0.37
    E = c * t**2 * beta**4 / 6
    p = derive_params(E, t, 2, 6)
    assert p.beta == pytest.approx(beta, rel=1e-12)


def test_trivial_regime_flag_threshold():
    _, c = typicality_constants(2)
    threshold = c * 0.25 / 24  # E at which beta reaches 1/sqrt(2) for t = 1/2
    # beta = 1.21 at E = 1e-3: beyond the sqrt-output diameter's half, one letter
    assert derive_params(0.001, 0.5, 2, 8).remark_trivial is True
    assert derive_params(0.001, 0.5, 2, 8).beta == pytest.approx(1.2137, abs=2e-4)
    assert derive_params(0.002, 0.5, 2, 8).remark_trivial is True
    assert derive_params(threshold * 1.0001, 0.5, 2, 8).remark_trivial
    assert not derive_params(threshold * 0.9999, 0.5, 2, 8).remark_trivial
    # the flag matches the packing: BERN6 packs one letter at E = 1e-3, and
    # the identity channel's two outputs (sqrt(2) apart) pack just below it
    assert build_letter_alphabet(bernoulli_family(2.0, 6), 1.2137).count == 1
    below = derive_params(threshold * 0.9999, 0.5, 2, 8).beta
    assert build_letter_alphabet(identity_channel(2), below).count == 2
    above = derive_params(threshold * 1.0001, 0.5, 2, 8).beta
    assert build_letter_alphabet(identity_channel(2), above).count == 1


def test_letter_alphabet_identity_and_flat():
    pack = build_letter_alphabet(identity_channel(2), 0.5)
    assert pack.center_indices == (0, 1)
    flat = make_channel(list("abc"), [[0.5, 0.5]] * 3)
    assert build_letter_alphabet(flat, 0.3).count == 1


def test_letter_alphabet_matches_exact_packing():
    W = bernoulli_family(2.0, 8)
    for beta in (0.1, 0.2, 0.4):
        greedy = build_letter_alphabet(W, beta, mode="greedy")
        exact = build_letter_alphabet(W, beta, mode="exact")
        assert greedy.count <= exact.count


def brute_best_code_size(q, n, min_excl):
    """Exhaustive maximum code size (tiny instances only)."""
    words = list(itertools.product(range(q), repeat=n))

    def dist(a, b):
        return sum(x != y for x, y in zip(a, b))

    best = 0

    def grow(cands, count):
        nonlocal best
        best = max(best, count)
        for i, w in enumerate(cands):
            rest = [v for v in cands[i + 1:] if dist(v, w) > min_excl]
            grow(rest, count + 1)

    grow(words, 0)
    return best


def test_distance_code_small_cases():
    code = distance_code(2, 3, 1 / 3)
    assert len(code) == 4
    assert set(code) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert distance_code(3, 1, 0.5) == [(0,), (1,), (2,)]
    assert distance_code(1, 5, 0.5) == [(0, 0, 0, 0, 0)]


def test_distance_code_is_maximal_and_optimal_for_tiny():
    assert len(distance_code(2, 3, 1 / 3)) == brute_best_code_size(2, 3, 1.0)
    assert len(distance_code(2, 4, 0.5)) == brute_best_code_size(2, 4, 2.0)


def test_distance_code_counting_guarantee():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        t = float(rng.uniform(0.1, 0.9))
        code = distance_code(q, n, t)
        words = np.array(code)
        if len(code) > 1:
            dmat = (words[:, None, :] != words[None, :, :]).sum(axis=2)
            np.fill_diagonal(dmat, n + 1)
            assert dmat.min() > t * n
        floor = q ** (n * (1 - t)) * 2.0 ** (-n * binary_entropy(t))
        assert len(code) >= floor - 1e-9


def reference_lexicode(q, n, t):
    """Lexicographic greedy code: scan [q]^n in order, keep a word iff its
    Hamming distance to every kept word exceeds t*n.  Each kept word is the
    first candidate left; the candidates within distance t*n of it go."""
    words = np.array(list(itertools.product(range(q), repeat=n))).reshape(-1, n)
    kept = []
    while len(words):
        w = words[0]
        kept.append(tuple(int(v) for v in w))
        words = words[(words != w).sum(axis=1) > t * n]
    return kept


@st.composite
def lexicode_cases(draw):
    q = draw(st.integers(2, 6))
    n_max = max(n for n in range(1, 13) if q**n <= 4096)
    n = draw(st.integers(1, n_max))
    # t = k/n puts words at distance exactly t*n, which must be rejected
    fractions = st.integers(1, n - 1).map(lambda k: k / n) if n > 1 else st.nothing()
    t = draw(fractions | st.floats(0.01, 0.99))
    return q, n, t


@settings(max_examples=40, deadline=None)
@given(lexicode_cases())
def test_distance_code_is_the_lexicode(case):
    q, n, t = case
    assert distance_code(q, n, t) == reference_lexicode(q, n, t)


def test_greedy_size_guard_fails_fast():
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            distance_code(4, 13, 0.5)  # 4^13 words, past GREEDY_SCAN_LIMIT
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_linear_mode_reed_solomon():
    code = distance_code(5, 4, 0.5, mode="linear")
    words = np.array(code)
    dmat = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    np.fill_diagonal(dmat, 99)
    assert dmat.min() > 2  # floor(t n) + 1 = 3
    assert len(code) == 5 ** 2
    with pytest.raises(ValidationError):
        distance_code(5, 9, 0.5, mode="linear")  # n beyond field size


def test_entropy_binning_pigeonhole():
    W = bernoulli_family(2.0, 6)
    # letters 0 (H=0), 2 -> x=1/2 (H=1): mixed-entropy words over n=6
    words = [w for w in itertools.product((0, 2), repeat=6)]
    kept, bin_range, ents = entropy_binning(words, W)
    assert len(kept) >= len(words) / math.ceil(6 * math.log2(2))
    lo, hi = bin_range
    assert all(lo <= h <= hi for h in ents)
    assert max(ents) - min(ents) <= 1.0


def test_entropy_binning_equal_entropies_keep_all():
    W = identity_channel(2)
    words = list(itertools.product((0, 1), repeat=4))
    kept, bin_range, _ = entropy_binning(words, W)
    assert len(kept) == len(words)
    assert bin_range == (0.0, 1.0)

    B = bernoulli_family(2.0, 3)
    perms = set(itertools.permutations((0, 2, 3, 4)))
    kept_p, _, _ = entropy_binning(sorted(perms), B)
    assert len(kept_p) == len(perms)


def test_construct_identity_end_to_end():
    W = identity_channel(2)
    code = construct(W, 6, 1e-5, 1 / 3)
    assert code.size >= 1
    assert code.rate >= code.rate_floor
    assert code.min_hamming > code.params.t * 6
    assert max(code.entropies) - min(code.entropies) <= 1.0
    # letter separation
    roots = np.sqrt(W.matrix)
    for i, j in itertools.combinations(code.letter_alphabet, 2):
        assert np.linalg.norm(roots[i] - roots[j]) >= 2 * code.params.beta


def test_construct_flat_channel_single_word():
    flat = make_channel(list("ab"), [[0.5, 0.5]] * 2)
    code = construct(flat, 5, 1e-6, 0.5)
    assert code.size == 1
    assert code.rate == 0.0


def test_construct_fidelity_separation():
    # any two codewords: -ln(fidelity product) >= t n beta^2, and the same
    # for the exact total-variation separation of the product outputs
    from dicode.infodist import product_distribution, total_variation

    W = bernoulli_family(2.0, 6)
    code = construct(W, 8, 4.5e-7, 0.5)
    assert code.size >= 2
    p = code.params
    for u, v in itertools.combinations(code.codewords, 2):
        eps = 1.0
        for a, b in zip(u, v):
            if a != b:
                eps *= fidelity(W.matrix[a], W.matrix[b])
        assert -math.log(max(eps, 1e-300)) >= p.t * p.n * p.beta**2 - 1e-9
        tv = total_variation(product_distribution(W, u), product_distribution(W, v))
        assert -math.log(max(1 - tv, 1e-300)) >= p.t * p.n * p.beta**2 - 1e-9


@pytest.mark.parametrize("W,n,E,t", [
    (bernoulli_family(2.0, 6), 8, 1e-5, 0.5),
    (make_channel(list("abc"), [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]]),
     7, 1e-6, 0.4),
])
def test_rate_floor_is_thm1_lower(W, n, E, t):
    """The construction's guarantee is Theorem 1's bound, bit for bit."""
    code = construct(W, n, E, t)
    assert len(code.letter_alphabet) >= 2
    assert code.rate_floor == thm1_lower(W, n, E, t, mode="greedy").value


def test_code_json_round_trip():
    W = bernoulli_family(2.0, 4)
    code = construct(W, 6, 1e-5, 0.5)
    again = code_from_json(code_to_json(code))
    assert again == code


def test_assemble_code_delta_round_trip():
    W = make_channel(["a", "b"], [[0.9, 0.1], [0.2, 0.8]])
    code = assemble_code(W, [(0, 0, 1), (1, 1, 0)], delta=0.8)
    assert code.delta == pytest.approx(0.8)
    assert code.params.delta == pytest.approx(0.8)
    assert code.min_hamming == 3
    assert code.entropies[0] == pytest.approx(word_output_entropy(W, (0, 0, 1)))


def test_min_pairwise_hamming():
    assert min_pairwise_hamming([(0, 1, 1)]) == 3
    assert min_pairwise_hamming([(0, 0, 0), (0, 1, 1), (1, 1, 1)]) == 1
