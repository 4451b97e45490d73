import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dicode.bounds import thm1_lower
from dicode.channel import bernoulli_family, identity_channel, make_channel
from dicode.codebook import (
    _scan_lexicode,
    assemble_code,
    build_letter_alphabet,
    code_from_json,
    code_to_json,
    construct,
    derive_params,
    distance_code,
    entropy_binning,
    min_pairwise_hamming,
    word_array,
    word_output_entropy,
)
from dicode.errors import SizeGuardError, ValidationError
from dicode.geometry import max_packing
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
        greedy = build_letter_alphabet(W, beta)
        assert greedy == max_packing(W.sqrt_cloud, beta, mode="greedy")
        assert greedy.count <= max_packing(W.sqrt_cloud, beta, mode="exact").count


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
    assert set(map(tuple, code.tolist())) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert distance_code(3, 1, 0.5).tolist() == [[0], [1], [2]]
    assert distance_code(1, 5, 0.5).tolist() == [[0, 0, 0, 0, 0]]


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
        kept.append(w.tolist())
        words = words[(words != w).sum(axis=1) > t * n]
    return kept


@st.composite
def lexicode_cases(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 16)))
    n_max = max(n for n in range(1, 13) if q**n <= 4096)
    n = draw(st.integers(1, n_max))
    # t = k/n puts words at distance exactly t*n, which must be rejected
    fractions = st.integers(1, n - 1).map(lambda k: k / n) if n > 1 else st.nothing()
    t = draw(fractions | st.floats(0.01, 0.99))
    return q, n, t


@settings(max_examples=40, deadline=None)
@given(lexicode_cases())
@example((8, 4, 0.5))
@example((16, 3, 1 / 3))
@example((7, 3, 1 / 3))
@example((12, 2, 1 / 2))
@example((5, 1, 1 / 2))  # the scan's second half is empty
def test_distance_code_is_the_lexicode(case):
    q, n, t = case
    assert distance_code(q, n, t).tolist() == reference_lexicode(q, n, t)


@pytest.mark.parametrize("q,n,t", [(4, 10, 0.5), (2, 20, 0.5), (8, 6, 0.5), (4, 8, 3 / 8),
                                   (16, 4, 0.25)])
def test_xor_path_is_the_scan_and_a_span(q, n, t):
    """For q = 2^b the code comes from its XOR basis; it equals the scan's,
    has 2^k words and is closed under symbol-wise XOR of its rows."""
    code = distance_code(q, n, t)
    ranks = code @ (q ** np.arange(n)[::-1])  # symbol-wise XOR is XOR of these
    assert np.array_equal(ranks, _scan_lexicode(q, n, t * n))
    assert len(code) & (len(code) - 1) == 0
    assert np.array_equal(np.unique(ranks[:, None] ^ ranks), ranks)


def test_xor_path_memory_per_candidate_word():
    # a uint8 weight and a bool per candidate word, then a bit table
    tracemalloc.start()
    try:
        code = distance_code(4, 11, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(code) == 1024
    assert peak < 4 * 4**11


@pytest.mark.parametrize("q,n", [(3, 13), (5, 9)])
def test_scan_path_memory_per_candidate_word(q, n):
    # one bool per word alive plus one pick's uint8 distances and bool mask
    tracemalloc.start()
    try:
        distance_code(q, n, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * q**n


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
    # Reed-Solomon over F_5: word m maps to its values sum_i m_i x^i at
    # x = 0..3, the messages in lexicographic order
    assert code.tolist() == [[sum(m * pow(x, i, 5) for i, m in enumerate(msg)) % 5
                              for x in range(4)]
                             for msg in itertools.product(range(5), repeat=2)]
    words = code
    dmat = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    np.fill_diagonal(dmat, 99)
    assert dmat.min() > 2  # floor(t n) + 1 = 3
    assert len(code) == 5 ** 2
    with pytest.raises(ValidationError):
        distance_code(5, 9, 0.5, mode="linear")  # n beyond field size


def test_entropy_binning_pigeonhole():
    W = bernoulli_family(2.0, 6)
    # letters 0 (H=0), 2 -> x=1/2 (H=1): mixed-entropy words over n=6
    words = np.array(list(itertools.product((0, 2), repeat=6)))
    kept, bin_range, ents = entropy_binning(words, W)
    assert len(kept) >= len(words) / math.ceil(6 * math.log2(2))
    lo, hi = bin_range
    assert all(lo <= h <= hi for h in ents)
    assert max(ents) - min(ents) <= 1.0


def test_entropy_binning_equal_entropies_keep_all():
    W = identity_channel(2)
    words = np.array(list(itertools.product((0, 1), repeat=4)))
    kept, bin_range, _ = entropy_binning(words, W)
    assert len(kept) == len(words)
    assert bin_range == (0.0, 1.0)

    B = bernoulli_family(2.0, 3)
    perms = set(itertools.permutations((0, 2, 3, 4)))
    kept_p, _, _ = entropy_binning(np.array(sorted(perms)), B)
    assert len(kept_p) == len(perms)


def reference_binning(words, W):
    """The fullest unit entropy bin, lowest s on ties, by a loop over words."""
    n_bins = max(1, math.ceil(len(words[0]) * math.log2(W.output_size)))
    bins = {}
    for i, w in enumerate(words):
        bins.setdefault(min(n_bins, math.floor(sequential_entropy(W, w)) + 1), []).append(i)
    best_s = min(bins, key=lambda s: (-len(bins[s]), s))
    return bins[best_s], (float(best_s - 1), float(best_s))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8))
def test_entropy_binning_matches_the_loop_reference(seed, size, n):
    W = bernoulli_family(2.0, 6)
    words = np.random.default_rng(seed).integers(0, W.n_inputs, (size, n))
    kept, bin_range, ents = entropy_binning(words, W)
    index, want_range = reference_binning(words.tolist(), W)
    assert bin_range == want_range
    assert np.array_equal(kept, words[index])
    assert ents.tolist() == [sequential_entropy(W, w) for w in words[index].tolist()]


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
    from dicode.infodist import product_distribution

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
        tv = 0.5 * np.abs(product_distribution(W, u) - product_distribution(W, v)).sum()
        assert -math.log(max(1 - tv, 1e-300)) >= p.t * p.n * p.beta**2 - 1e-9


@pytest.mark.parametrize("W,n,E,t", [
    (bernoulli_family(2.0, 6), 8, 1e-5, 0.5),
    (make_channel(list("abc"), [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]]),
     7, 1e-6, 0.4),
])
def test_rate_floor_is_thm1_lower(W, n, E, t):
    """The construction's guarantee is Theorem 1's rate at the greedy letter
    count, equal to thm1_lower where greedy packing is maximum, as here."""
    code = construct(W, n, E, t)
    assert len(code.letter_alphabet) >= 2
    assert code.rate_floor == thm1_lower(W, n, E, t).value


def test_code_json_round_trip():
    W = bernoulli_family(2.0, 4)
    code = construct(W, 6, 1e-5, 0.5)
    again = code_from_json(code_to_json(code))
    assert code_to_json(again) == code_to_json(code)
    assert np.array_equal(again.codewords, code.codewords)
    assert np.array_equal(again.entropies, code.entropies)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=2,
                     max_size=5),
       y_size=st.integers(2, 3), n=st.integers(1, 6), t=st.sampled_from([0.25, 0.4, 0.5, 0.7]),
       E=st.floats(1e-8, 1e-3), delta=st.floats(0.05, 3.0),
       picks=st.lists(st.lists(st.integers(0, 4), min_size=6, max_size=6), min_size=1,
                      max_size=5))
@example(rows=[[1, 1, 0], [2, 2, 0]], y_size=2, n=3, t=0.5, E=1e-6, delta=1.0,
         picks=[[0, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0]])  # 1 bit a letter: the capped bin
def test_code_file_round_trips_and_derives_entropy_binnings_bin(rows, y_size, n, t, E, delta,
                                                               picks):
    """Every file that construct or assemble_code writes loads back to the
    same text, and the entropy bin it derives is entropy_binning's: the bin of
    every word of a constructed code, and of the lowest word of an assembled one."""
    matrix = np.array(rows, float)[:, :y_size]
    matrix[matrix.sum(1) == 0, 0] = 1
    W = make_channel([str(x) for x in range(len(rows))], matrix / matrix.sum(1, keepdims=True))
    words = list(dict.fromkeys(tuple(x % W.n_inputs for x in word[:n]) for word in picks))
    built, assembled = construct(W, n, E, t), assemble_code(W, words, delta)
    for code in (built, assembled):
        text = code_to_json(code)
        assert code_to_json(code_from_json(text)) == text
    kept, bin_range, _ = entropy_binning(built.codewords, W)
    assert len(kept) == built.size and built.entropy_bin == bin_range
    lowest = assembled.codewords[[int(np.argmin(assembled.entropies))]]
    assert assembled.entropy_bin == entropy_binning(lowest, W)[1]


def test_codewords_are_one_read_only_int64_array():
    W = bernoulli_family(2.0, 4)
    codes = [construct(W, 6, 1e-5, 0.5),
             construct(identity_channel(5), 5, 1e-5, 0.4, code_mode="linear"),
             assemble_code(W, [(0, 1, 2), (2, 1, 0)], delta=0.5)]
    codes.append(code_from_json(code_to_json(codes[0])))
    for code in codes:
        words, ents = code.codewords, code.entropies
        assert words.dtype == np.int64 and words.shape == (code.size, code.blocklength)
        assert ents.shape == (code.size,)
        for array in (words, ents):
            with pytest.raises(ValueError):
                array[0] = 1
    assert distance_code(3, 4, 0.5).dtype == distance_code(1, 4, 0.5).dtype == np.int64


def sequential_entropy(W, word):
    """Letter entropies added one position at a time, from 0.0."""
    h = 0.0
    for x in word:
        h += W.entropies[x]
    return h


def test_word_output_entropy_of_an_array_is_the_sequential_sum():
    W = bernoulli_family(2.0, 6)
    deterministic = [x for x, h in enumerate(W.entropies) if h == 0.0]
    assert deterministic
    rng = np.random.default_rng(5)
    words = rng.integers(0, W.n_inputs, (300, 40))
    words[:3] = rng.choice(deterministic, (3, 40))
    got = word_output_entropy(W, words)
    assert got.shape == (300,)
    assert [h.hex() for h in got.tolist()] == [
        sequential_entropy(W, w).hex() for w in words.tolist()]
    assert [h.hex() for h in got[:3].tolist()] == [(0.0).hex()] * 3  # never -0.0
    assert word_output_entropy(W, tuple(words[7].tolist())) == got[7]


@pytest.mark.parametrize("words,n", [
    ([(0, 0.5, 1), (1, 0, 1)], 3),     # a letter that is not an integer
    ([(0, -1, 1), (1, 0, 1)], 3),      # a negative letter
    ([(0, 1), (1, 0, 1)], 3),          # ragged words
    ([], 3),                           # no words
    ([(0, 1, 1), (1, 0, 1)], 6),       # words shorter than params.n
])
def test_code_from_json_refuses_malformed_words(words, n):
    W = bernoulli_family(2.0, 4)
    payload = json.loads(code_to_json(assemble_code(W, [(0, 1, 1), (1, 0, 1)], delta=0.5)))
    payload["codewords"], payload["entropies"] = words, [0.0] * len(words)
    payload["params"]["n"] = n
    with pytest.raises(ValidationError):
        code_from_json(json.dumps(payload))


@pytest.mark.parametrize("where", ["top", "params"])
def test_code_from_json_refuses_keys_it_does_not_read(where):
    """As load_channel does for channel specs: an extra top-level key was
    ignored, and an extra params key surfaced as CodeParams' TypeError.  The
    refusal names the key."""
    payload = json.loads(code_to_json(assemble_code(bernoulli_family(2.0, 4),
                                                    [(0, 1, 1), (1, 0, 1)], delta=0.5)))
    (payload if where == "top" else payload["params"])["extra"] = 1
    with pytest.raises(ValidationError, match=r"^extra differs from the layout"):
        code_from_json(json.dumps(payload))


def test_word_array_checks_an_int64_array_in_place():
    """The evaluators check a code's int64 words without copying them; a
    DICode holds its own copy, which freezing does not reach the caller's."""
    W = bernoulli_family(2.0, 4)
    words = np.array([(0, 1, 1), (1, 0, 5)])
    assert word_array(words, W) is words
    code = assemble_code(W, words, delta=0.5)
    assert not np.shares_memory(code.codewords, words) and words.flags.writeable
    assert word_array(code.codewords, W) is code.codewords


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
