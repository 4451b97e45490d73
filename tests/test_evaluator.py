import itertools
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dicode import evaluator
from dicode.channel import bernoulli_family, identity_channel, make_channel
from dicode.cli import main
from dicode.codebook import (
    assemble_code,
    code_from_json,
    code_to_json,
    construct,
    derive_params,
    word_output_entropy,
)
from dicode.errors import SizeGuardError, ValidationError
from dicode.evaluator import (
    DEFAULT_PAIR_BUDGET,
    JointTypeDP,
    brute_force_typical_prob,
    choice_letters,
    exact_error_report,
    monte_carlo_errors,
    typical_set_prob,
    wilson_interval,
)


def type_row(q, source, owner):
    """Joint-type count row of a word pair: positions per class a*q + b."""
    return np.bincount(np.array(source) * q + np.array(owner), minlength=q * q)


def own_type_probs(dp, word, delta):
    """`count_probs` of a word's own pair, as one (lo, hi)."""
    (lo,), (hi,) = dp.count_probs([type_row(dp.W.n_inputs, word, word)], delta)
    return lo, hi


def random_channel(rng, n_in, n_out):
    m = rng.random((n_in, n_out)) ** 2 + 1e-6
    m /= m.sum(axis=1, keepdims=True)
    return make_channel([str(i) for i in range(n_in)], m)


def random_instance(rng):
    n = int(rng.integers(2, 13))
    n_in = int(rng.integers(2, 5))
    W = random_channel(rng, n_in, 2)
    source = tuple(int(v) for v in rng.integers(0, n_in, n))
    owner = tuple(int(v) for v in rng.integers(0, n_in, n))
    delta = float(rng.uniform(0.2, 1.5))
    return W, source, owner, delta


def test_identity_owner_probability_one():
    W = identity_channel(2)
    lo, hi = typical_set_prob(W, (0, 1, 0), (0, 1, 0), delta=0.5)
    assert lo == hi == 1.0


def test_disjoint_support_probability_zero():
    W = identity_channel(2)
    lo, hi = typical_set_prob(W, (0, 0), (1, 1), delta=0.5)
    assert lo == hi == 0.0


def test_dp_interval_contains_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(100):
        W, source, owner, delta = random_instance(rng)
        lo, hi = typical_set_prob(W, source, owner, delta)
        bf = brute_force_typical_prob(W, source, owner, delta)
        assert lo - 1e-12 <= bf <= hi + 1e-12
        assert hi - lo <= 1e-6


def simplex_word(k: int, message: int) -> tuple:
    """Codeword of `message` in the binary simplex code of length 2^k - 1."""
    return tuple(bin(message & j).count("1") % 2 for j in range(1, 2**k))


def bsc_flip_oracle(W, n: int, d: int, delta: float) -> float:
    """Acceptance probability of a word at Hamming distance d from the owner
    on a BSC: the statistic depends only on the flip count F against the
    owner, F = Bin(d, 1 - eps) + Bin(n - d, eps).  Each term is a ratio of
    exact integers (the channel's float entries), rounded once."""
    (keep, keep_den), (flip, flip_den) = (w.as_integer_ratio() for w in W.matrix[0].tolist())
    log_keep, log_flip = (math.log2(w) for w in W.matrix[0])
    h = word_output_entropy(W, (0,) * n)
    terms = []
    for f in range(n + 1):
        if abs(f * log_flip + (n - f) * log_keep + h) > delta * math.sqrt(n):
            continue
        for j in range(max(0, f - n + d), min(d, f) + 1):  # j flips among the d
            keeps, flips = n - d - f + 2 * j, d + f - 2 * j
            terms.append(math.comb(d, j) * math.comb(n - d, f - j) * keep**keeps * flip**flips
                         / (keep_den**keeps * flip_den**flips))
    return math.fsum(terms)


def encloses(interval, truth, rel=1e-12):
    lo, hi = interval
    return lo * (1 - rel) <= truth <= hi * (1 + rel)


def test_bsc_simplex_pairs_against_flip_count_oracle():
    """BSC(0.01), simplex words at k=8 (n=255, distance 128): the cross pair
    accepts with probability near 3e-242, the own pair near 0.81."""
    W = make_channel(["0", "1"], [[0.99, 0.01], [0.01, 0.99]])
    own, other = simplex_word(8, 3), simplex_word(8, 1)
    for source, d in ((other, 128), (own, 0)):
        assert sum(a != b for a, b in zip(source, own)) == d
        interval = typical_set_prob(W, source, own, delta=1.0)
        assert encloses(interval, bsc_flip_oracle(W, 255, d, 1.0))
        assert interval[0] > 0.0


def test_long_bsc_simplex_own_pair():
    """n=4095: both BSC letters take the values log2 0.99 and log2 0.01, so
    they share one lattice of 4096 flip counts; the own pair evaluates and
    encloses the flip-count oracle."""
    W = make_channel(["0", "1"], [[0.99, 0.01], [0.01, 0.99]])
    word = simplex_word(12, 5)
    dp = JointTypeDP(W)
    interval = own_type_probs(dp, word, 1.0)
    assert dp.states_max == 4096
    assert encloses(interval, bsc_flip_oracle(W, 4095, 0, 1.0))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a band mass below the float range reads 0 (ROADMAP item 2)")
def test_long_bsc_simplex_cross_pair_keeps_positive_hi():
    """BSC(0.01), simplex words 1 and 3 at k=10 (n=1023, distance 512): the
    channel has full support, so every output word is reachable and the
    certified hi of the cross pair must be positive."""
    W = make_channel(["0", "1"], [[0.99, 0.01], [0.01, 0.99]])
    lo, hi = typical_set_prob(W, simplex_word(10, 1), simplex_word(10, 3), delta=1.0)
    assert 0.0 <= lo <= hi
    assert hi > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="1 - hi cancels below 2^-52 (ROADMAP item 2)")
def test_long_bsc_simplex_own_pair_certifies_a_tiny_miss():
    """BSC(1e-3), simplex word 5 at k=12 (n=4095), at the delta construct
    derives for E=1e-4, t=0.5: the own pair misses with probability
    2^-97.35 (a log-space sum over flip counts), so the certified miss
    lower end 1 - hi must be at most 2^-97."""
    W = make_channel(["0", "1"], [[1 - 1e-3, 1e-3], [1e-3, 1 - 1e-3]])
    word = simplex_word(12, 5)
    _, hi = typical_set_prob(W, word, word, derive_params(1e-4, 0.5, 2, 4095).delta)
    assert 1.0 - hi <= 2.0**-97


def test_lambda_measurements_identity_code():
    W = identity_channel(2)
    code = construct(W, 6, 1e-5, 1 / 3)
    rep = exact_error_report(code, W)
    assert rep.lambda1 == rep.lambda2 == (0.0, 0.0)
    assert rep.pair_mode == "exhaustive"


def test_lambda_bounds_of_constructed_code():
    W = bernoulli_family(2.0, 6)
    code = construct(W, 10, 1e-5, 0.5)
    rep = exact_error_report(code, W)
    p = code.params
    assert rep.lambda1[1] <= p.lambda1_ceiling + 1e-12
    assert rep.lambda2[1] <= p.lambda2_ceiling + 1e-12
    assert rep.e1_measured >= p.e1_floor - 1e-12
    assert rep.e2_measured >= p.e2_floor - 1e-12


def test_lambda2_against_enumeration():
    rng = np.random.default_rng(14)
    W = random_channel(rng, 3, 2)
    code = assemble_code(W, [(0, 1, 2, 0, 1), (2, 0, 1, 2, 0), (1, 2, 0, 1, 2)],
                         delta=0.9)
    rep = exact_error_report(code, W)
    lo, hi = rep.lambda2
    want = max(
        brute_force_typical_prob(W, code.codewords[j], code.codewords[k], 0.9)
        for j in range(3) for k in range(3) if j != k)
    assert lo - 1e-12 <= want <= hi + 1e-12
    l1 = rep.lambda1
    want1 = max(1 - brute_force_typical_prob(W, w, w, 0.9) for w in code.codewords)
    assert l1[0] - 1e-12 <= want1 <= l1[1] + 1e-12


def test_negative_pair_budget_is_refused():
    W = bernoulli_family(2.0, 6)
    code = construct(W, 6, 1e-5, 0.5)
    with pytest.raises(ValidationError, match="pair budget"):
        exact_error_report(code, W, pair_budget=-1)


def test_pair_bound_only_mode():
    rng = np.random.default_rng(16)
    W = random_channel(rng, 3, 2)
    code = assemble_code(W, [(0, 1, 2, 0), (2, 0, 1, 2), (1, 2, 0, 1)], delta=1.0)
    rep = exact_error_report(code, W, pair_budget=0)
    assert rep.method == "pair-bound"
    full = exact_error_report(code, W)
    assert rep.lambda2[1] >= full.lambda2[1] - 1e-12


def test_monte_carlo_reproducible_and_consistent():
    W = bernoulli_family(2.0, 4)
    code = assemble_code(W, [(0, 2, 1, 3), (1, 3, 2, 0), (2, 0, 3, 1)], delta=0.8)
    rep1 = monte_carlo_errors(code, W, trials=4000, seed=42)
    rep2 = monte_carlo_errors(code, W, trials=4000, seed=42)
    assert rep1 == rep2
    rep3 = monte_carlo_errors(code, W, trials=4000, seed=43)
    assert rep3 != rep1  # different stream

    exact = exact_error_report(code, W)
    exact1, exact2 = exact.lambda1, exact.lambda2
    # Wilson intervals should overlap the exact enclosures
    assert rep1.lambda1[0] <= exact1[1] + 1e-9
    assert rep1.lambda1[1] >= exact1[0] - 1e-9
    assert rep1.lambda2[0] <= exact2[1] + 1e-9
    assert rep1.lambda2[1] >= exact2[0] - 1e-9


def test_monte_carlo_coverage_over_seeds():
    W = make_channel(["a", "b"], [[0.85, 0.15], [0.3, 0.7]])
    code = assemble_code(W, [(0, 0, 1, 0), (1, 1, 0, 1)], delta=0.7)
    lam1 = exact_error_report(code, W).lambda1
    covered = 0
    for seed in range(20):
        rep = monte_carlo_errors(code, W, trials=2000, seed=seed)
        if rep.lambda1[0] - 1e-12 <= lam1[1] and rep.lambda1[1] + 1e-12 >= lam1[0]:
            covered += 1
    assert covered >= 16  # nominal 95% coverage, generous slack


def test_identity_monte_carlo_zero():
    W = identity_channel(2)
    code = construct(W, 6, 1e-5, 1 / 3)
    rep = monte_carlo_errors(code, W, trials=500, seed=7)
    assert rep.lambda1[0] == 0.0
    assert rep.lambda2[0] == 0.0


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_error_report_json_round_trip():
    W = identity_channel(2)
    code = construct(W, 6, 1e-5, 1 / 3)
    rep = exact_error_report(code, W)
    text = rep.to_json()
    assert '"method": "exact-dp"' in text
    # a screened hi of 1 gives the exponent 0.0, not -0.0; a band that holds
    # every output word leaves the ceiling at 1
    W = make_channel(["0", "1"], [[0.9, 0.1], [0.1, 0.9]])
    code = assemble_code(W, [(0, 0, 1), (1, 1, 0)], delta=10.0)
    screened = exact_error_report(code, W, pair_budget=0)
    assert screened.lambda2[1] == 1.0
    assert "-0.0" not in screened.to_json()


def test_oracles_refuse_words_of_unequal_length():
    W = identity_channel(2)
    for oracle in (typical_set_prob, brute_force_typical_prob):
        with pytest.raises(ValidationError, match="equal length"):
            oracle(W, (0, 1, 0, 1), (1, 0), 0.5)


# ---------------------------------------------------------------------------
# property tests on channels with 2-4 outputs

@st.composite
def word_pair_cases(draw, max_n=7, zeros=False):
    """(W, source, owner, delta): hypothesis picks the alphabet sizes,
    the words and the zero pattern; a drawn seed gives the continuous values,
    so that no statistic value sits exactly on a band edge."""
    n_in = draw(st.integers(2, 4))
    n_out = draw(st.integers(2, 4))
    n = draw(st.integers(1, max_n))
    letters = st.integers(0, n_in - 1)
    source = tuple(draw(st.lists(letters, min_size=n, max_size=n)))
    owner = tuple(draw(st.lists(letters, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.random((n_in, n_out)) + 0.05
    if zeros:
        # zero out some entries, keeping one positive entry per row
        cut = rng.random((n_in, n_out)) < 0.3
        cut[np.arange(n_in), rng.integers(0, n_out, n_in)] = False
        m[cut] = 0.0
    W = make_channel([str(i) for i in range(n_in)], m / m.sum(axis=1, keepdims=True))
    return W, source, owner, float(rng.uniform(0.2, 1.5))


@settings(max_examples=60, deadline=None)
@given(word_pair_cases(zeros=True))
def test_typical_set_prob_encloses_enumeration(case):
    W, source, owner, delta = case
    lo, hi = typical_set_prob(W, source, owner, delta)
    truth = brute_force_typical_prob(W, source, owner, delta)
    assert lo - 1e-12 <= truth <= hi + 1e-12
    assert hi - lo <= 1e-6


@settings(max_examples=40, deadline=None)
@given(word_pair_cases(max_n=10, zeros=True), st.randoms(use_true_random=False))
def test_typical_set_prob_invariant_under_position_permutation(case, random):
    W, source, owner, delta = case
    order = list(range(len(source)))
    random.shuffle(order)
    permuted = typical_set_prob(W, [source[i] for i in order], [owner[i] for i in order],
                                delta)
    assert [v.hex() for v in permuted] == [
        v.hex() for v in typical_set_prob(W, source, owner, delta)]


@settings(max_examples=30, deadline=None)
@given(word_pair_cases(max_n=8, zeros=True), st.data())
def test_measurements_equal_per_pair_calls(case, data):
    W, source, owner, delta = case
    n_in, n = W.n_inputs, len(source)
    extra = data.draw(st.lists(st.lists(st.integers(0, n_in - 1), min_size=n, max_size=n)
                               .map(tuple), max_size=3))
    words = list(dict.fromkeys([source, owner] + extra))
    if len(words) < 2:
        return
    code = assemble_code(W, words, delta=delta)
    per_pair = [typical_set_prob(W, words[j], words[k], code.delta)
                for j in range(len(words)) for k in range(len(words)) if j != k]
    rep = exact_error_report(code, W)
    assert rep.pair_mode == "exhaustive"
    assert rep.lambda2 == (max(p[0] for p in per_pair), max(p[1] for p in per_pair))
    own = [typical_set_prob(W, w, w, code.delta) for w in words]
    assert rep.lambda1 == (max(1.0 - p[1] for p in own), max(1.0 - p[0] for p in own))


#: dyadic output distributions: their log-probabilities are integers, so
#: many atoms of one joint type share a statistic value
DYADIC = [(1.0,), (0.5, 0.5), (0.5, 0.25, 0.25), (0.25,) * 4, (0.5, 0.25, 0.125, 0.125)]


@st.composite
def code_cases(draw, max_n=6, max_words=5):
    """(W, words, delta): distinct words of one length; W is either a
    random channel with zeros or, half of the time, a dyadic one."""
    W, source, owner, delta = draw(word_pair_cases(max_n=max_n, zeros=True))
    if draw(st.booleans()):
        rows = []
        for _ in range(W.n_inputs):
            atoms = draw(st.sampled_from([d for d in DYADIC if len(d) <= W.output_size]))
            zeros = (0.0,) * (W.output_size - len(atoms))
            rows.append(draw(st.permutations(atoms + zeros)))
        W = make_channel([str(i) for i in range(W.n_inputs)], rows)
    word = st.lists(st.integers(0, W.n_inputs - 1), min_size=len(source),
                    max_size=len(source)).map(tuple)
    extra = draw(st.lists(word, max_size=max_words - 2))
    return W, list(dict.fromkeys([source, owner] + extra)), delta


def assert_batch_equals_single_pairs(W, words, delta):
    """One batched evaluation of every ordered pair's joint type gives each
    type the interval of `typical_set_prob` on that pair alone, bit for bit."""
    q = W.n_inputs
    rows = sorted({tuple(type_row(q, a, b)) for a in words for b in words})
    batched = dict(zip(rows, zip(*JointTypeDP(W).count_probs(np.array(rows), delta))))
    for a in words:
        for b in words:
            single = typical_set_prob(W, a, b, delta)
            assert ([v.hex() for v in batched[tuple(type_row(q, a, b))]]
                    == [v.hex() for v in single])


#: source letters 0 and 1 share owner letter 0, so one owner letter's count
#: vectors take their mass from two rows of W
SHARED_OWNER_CASE = (make_channel(["a", "b"], [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]),
                     [(0, 0, 1, 1), (0, 0, 0, 0), (1, 1, 0, 0)], 0.7)


@settings(max_examples=40, deadline=None)
@given(code_cases())
@example(SHARED_OWNER_CASE)
def test_batch_equals_single_type_evaluation(case):
    assert_batch_equals_single_pairs(*case)


def byte_order_unique(rows):
    """Distinct rows in np.unique's order of the rows' byte view."""
    rows = np.ascontiguousarray(rows)
    view = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return np.unique(view).view(rows.dtype).reshape(-1, rows.shape[1])


@settings(max_examples=40, deadline=None)
@given(code_cases(max_words=7))
@example(SHARED_OWNER_CASE)
def test_type_rows_equal_at_every_chunk_size(case):
    """The own types, then the cross types, each with its pairs and in
    np.unique's byte order, in the narrowest dtype holding n, at chunks of
    one pair (ATOM_CHUNK 1 and 3), of several and of all; a repeated word
    keeps its own type and its cross pairs apart."""
    W, words, _ = case
    q, dtype = W.n_inputs, np.min_scalar_type(len(words[0]))
    for words in (words, words + words[:1]):
        want_own = Counter(tuple(type_row(q, a, a)) for a in words)
        want_cross = Counter(tuple(type_row(q, a, b)) for j, a in enumerate(words)
                             for k, b in enumerate(words) if j != k)
        tables = []
        for chunk in (1, 3, 64, evaluator.ATOM_CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluator, "ATOM_CHUNK", chunk)
                rows, pairs, k = evaluator._type_rows(words, W)
            assert rows.shape == (len(want_own) + len(want_cross), q * q)
            assert rows.dtype == dtype and pairs.dtype == np.int64 and k == len(want_own)
            for part, want in ((slice(None, k), want_own), (slice(k, None), want_cross)):
                assert dict(zip(map(tuple, rows[part].tolist()), pairs[part].tolist())) == want
                assert np.array_equal(rows[part], byte_order_unique(rows[part]))
            tables.append((rows, pairs))
        for rows, pairs in tables[1:]:
            assert np.array_equal(rows, tables[0][0]) and np.array_equal(pairs, tables[0][1])
    # a one-word code: its own type, no cross types
    rows, pairs, k = evaluator._type_rows(words[:1], W)
    assert rows.shape == (1, q * q) and pairs.tolist() == [1] and k == 1


def gathered_atoms(groups, start, stop):
    """Oracle of `evaluator._atoms`: each atom's per-group lattice indices
    from np.unravel_index, its value summed and its mass multiplied over the
    groups' gathered entries."""
    idx = np.unravel_index(np.arange(start, stop), [len(v) for v, _ in groups])
    return (sum(v[i] for (v, _), i in zip(groups, idx)),
            math.prod(np.take(m, i, axis=1) for (_, m), i in zip(groups, idx)))


#: lattice sizes of 1 to 5 groups, size-1 groups first, inside and last
ATOM_SHAPES = [(7,), (1,), (3, 4), (1, 5), (5, 1), (2, 3, 4), (3, 1, 2), (1, 1, 3),
               (2, 2, 2, 3), (2, 1, 3, 2), (3, 2, 1, 2, 2), (1, 2, 1, 3, 1)]


@pytest.mark.parametrize("shape", ATOM_SHAPES, ids=map(str, ATOM_SHAPES))
def test_atoms_equal_unravel_gather(shape):
    """Every range [start, stop) of the atoms, so ranges start and stop inside
    a row at every level, is built bit for bit like the gather, the values
    and the masses apart.  Each group's masses end in a NaN column, where
    `_masses` keeps its zero column: no atom may read it."""
    rng = np.random.default_rng(len(shape) * 100 + math.prod(shape))
    groups = [(rng.normal(size=s), np.hstack((rng.random((3, s)), np.full((3, 1), np.nan))))
              for s in shape]
    size = math.prod(shape)
    for start in range(size):
        for stop in range(start + 1, size + 1):
            values = evaluator._atoms([v for v, _ in groups], shape, np.add, start, stop)
            masses = evaluator._atoms([m for _, m in groups], shape, np.multiply, start, stop)
            want_values, want_masses = gathered_atoms(groups, start, stop)
            assert np.array_equal(values, want_values)
            assert np.array_equal(masses, want_masses)
            assert masses.shape == (3, stop - start)


def gathered_count_probs(dp, counts, delta):
    """Reference for `JointTypeDP.count_probs`: np.unravel_index over each
    block, then one gather per group, with the same owner-composition
    grouping, type chunks and blocks.  A group's positions are its classes'
    counts, the classes read from the DP's group table."""
    q, lo, hi = dp.W.n_inputs, np.zeros(len(counts)), np.zeros(len(counts))
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, q * q)
    owners = counts.reshape(-1, q, q).sum(axis=1)
    for own in np.unique(owners, axis=0):
        types = np.flatnonzero((owners == own).all(axis=1))
        row = counts[types[0]]
        parts = [(dp._lattice(int(row[classes].sum()), values), classes, probs)
                 for values, (classes, probs) in dp._groups.items() if row[classes].any()]
        shape = [len(lattice[0]) for lattice, _, _ in parts]
        size = math.prod(shape)
        theta, h_owner = delta * math.sqrt(own.sum()), float(own @ dp.W.entropies)
        width = min(size, evaluator.ATOM_CHUNK)
        for first in range(0, len(types), evaluator.ATOM_CHUNK // width):
            t = types[first:first + evaluator.ATOM_CHUNK // width]
            masses = [evaluator._masses(probs, pred, prefix, counts[t][:, classes])
                      for (_, pred, prefix), classes, probs in parts]
            for start in range(0, size, width):
                idx = np.unravel_index(np.arange(start, min(start + width, size)), shape)
                dev = np.abs(sum(lat[0][i] for (lat, _, _), i in zip(parts, idx)) + h_owner)
                touch = np.flatnonzero(dev <= theta + evaluator.EDGE_FUZZ)
                inside = dev[touch] <= theta - evaluator.EDGE_FUZZ
                mass = math.prod(np.take(m, i[touch], axis=1) for m, i in zip(masses, idx))
                hi[t] += mass.sum(axis=1)
                lo[t] += np.compress(inside, mass, axis=1).sum(axis=1)
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


#: SHARED_OWNER_CASE at a delta whose band misses every atom of its types
SHARED_OWNER_NO_ATOM = SHARED_OWNER_CASE[:2] + (0.01,)
#: SHARED_OWNER_CASE at a delta where, at ATOM_CHUNK 4, an owner
#: composition's first block of atoms misses the band and its second reaches it
SHARED_OWNER_LATE_BLOCK = SHARED_OWNER_CASE[:2] + (0.1,)


@settings(max_examples=40, deadline=None)
@given(code_cases(max_n=8), st.sampled_from([5, 64]))
@example(SHARED_OWNER_CASE, 5)
@example(SHARED_OWNER_NO_ATOM, 5)
@example(SHARED_OWNER_LATE_BLOCK, 4)
def test_count_probs_equals_gathered_atom_sums(case, chunk):
    """Bit for bit, every type row of a random channel (2-4 inputs, 2-4
    outputs) gets the interval of the unravel/gather atom sum, which builds
    every composition's masses; at ATOM_CHUNK 4, 5 and 64 blocks end inside
    rows and a call's types span several chunks."""
    W, words, delta = case
    q = W.n_inputs
    rows = np.unique([type_row(q, a, b) for a in words for b in words], axis=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "ATOM_CHUNK", chunk)
        dp = JointTypeDP(W)
        got = dp.count_probs(rows, delta)
        want = gathered_count_probs(dp, rows, delta)
    assert [v.hex() for v in np.concatenate(got).tolist()] == [
        v.hex() for v in np.concatenate(want).tolist()]


def hexes(intervals):
    return [v.hex() for v in np.concatenate(intervals).tolist()]


@settings(max_examples=40, deadline=None)
@given(code_cases(max_n=8), st.sampled_from([5, 16, 64]))
@example(SHARED_OWNER_CASE, 5)
def test_count_probs_of_concatenated_rows_equals_separate_calls(case, chunk):
    """The own and cross rows a report evaluates together get, bit for bit,
    the intervals of two separate calls, at ATOM_CHUNK values small enough
    to split mass chunks, type sub-chunks and atom blocks."""
    W, words, delta = case
    q = W.n_inputs
    own = np.unique([type_row(q, a, a) for a in words], axis=0)
    cross = np.array([type_row(q, a, b) for a in words for b in words if a != b],
                     dtype=np.int64).reshape(-1, q * q)
    cross = np.unique(cross, axis=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "ATOM_CHUNK", chunk)
        joint = JointTypeDP(W).count_probs(np.concatenate((own, cross)), delta)
        dp = JointTypeDP(W)
        apart = [dp.count_probs(rows, delta) for rows in (own, cross)]
    assert hexes(joint) == hexes([np.concatenate(p) for p in zip(*apart)])


@settings(max_examples=30, deadline=None)
@given(code_cases())
def test_lambda2_screened_mode_is_upper_bound(case):
    """At every pair budget from 0 to N(N-1) the screened interval encloses
    the exhaustive one, the DP covers at least the budget's pairs, and the
    mode is exhaustive exactly when it covers every pair."""
    W, words, delta = case
    if len(words) < 2:
        return
    code = assemble_code(W, words, delta=delta)
    pairs = code.size * (code.size - 1)
    full = exact_error_report(code, W).lambda2
    for budget in range(pairs + 1):
        rep = exact_error_report(code, W, budget)
        (lo, hi), mode, ceiling = rep.lambda2, rep.pair_mode, rep.analytic_ceiling or 0.0
        assert lo <= full[0] and hi >= full[1]
        assert 0.0 <= ceiling <= 1.0
        assert rep.pairs_exact >= min(budget, pairs)
        assert (mode == "exhaustive") == (rep.pairs_exact == pairs)


@settings(max_examples=60, deadline=None)
@given(word_pair_cases(zeros=True))
def test_chernoff_ceiling_bounds_dp_and_enumeration(case):
    """The ceiling is at least the DP's hi and the enumerated acceptance
    probability."""
    W, source, owner, delta = case
    dp, row = JointTypeDP(W), [type_row(W.n_inputs, source, owner)]
    ceiling = 2.0 ** evaluator.false_accept_bound(dp, row, delta)[0]
    assert ceiling >= dp.count_probs(row, delta)[1][0]
    assert ceiling >= min(1.0, brute_force_typical_prob(W, source, owner, delta))


def owner_major_false_accept_bound(W, rows, delta):
    """`false_accept_bound` as it was computed from groups of owner letters:
    the class rows owner-major, and class a*q + b scattered from row
    (position of b)*q + a."""
    q, tilts = W.n_inputs, evaluator.TILTS
    groups = {}
    for b, (row, logw) in enumerate(zip(W.matrix, W.log2)):
        values = tuple(sorted(set(logw[row != 0.0].tolist())))
        probs = np.stack([W.matrix[:, logw == v].sum(axis=1) for v in values], axis=1)
        letters, before = groups.get(values, ([], probs[:0]))
        groups[values] = letters + [b], np.concatenate((before, probs))
    ell = np.empty((len(tilts), q * q))
    for values, (letters, probs) in groups.items():
        with np.errstate(divide="ignore"):
            x = np.log2(probs) + tilts[:, None, None] * np.array(values)
            top = np.maximum(np.max(x, axis=2, keepdims=True), -1e300)
            lse = top[..., 0] + np.log2(np.exp2(x - top).sum(axis=2))
        ell[:, (np.arange(q) * q + np.array(letters)[:, None]).ravel()] = lse
    dead = np.isneginf(ell).any(axis=0)
    ell[:, dead] = 0.0
    h, counts = np.tile(W.entropies, q), np.asarray(rows, dtype=float).reshape(-1, q * q)
    theta = delta * np.sqrt(counts.sum(axis=1)) + evaluator.EDGE_FUZZ
    eps = (q * q + W.output_size + 2) * 2.0**-52
    per_class = ell + np.outer(tilts, h) + eps * (np.abs(ell) + np.outer(np.abs(tilts), h) + 1)
    bound = counts @ per_class.T + np.outer(theta, (1.0 + eps) * np.abs(tilts))
    bound = np.minimum(np.min(bound, axis=1) + eps, 0.0)
    return np.where(counts @ dead > 0, -np.inf, bound)


@settings(max_examples=40, deadline=None)
@given(code_cases(max_n=8))
@example(SHARED_OWNER_CASE)
def test_chernoff_ceilings_read_the_class_table(case):
    """Bit for bit, the ceilings of every type row of a random channel (2-4
    inputs, 2-4 outputs) are those of the owner-major scatter the class ids
    replace."""
    W, words, delta = case
    rows = np.unique([type_row(W.n_inputs, a, b) for a in words for b in words], axis=0)
    got = evaluator.false_accept_bound(JointTypeDP(W), rows, delta)
    want = owner_major_false_accept_bound(W, rows, delta)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


#: the frozen BERN6 n=10 code that the benchmark certifies
BERN6_CODE = Path(__file__).resolve().parents[1] / "bench" / "data" / "bern6_n10_code.json"


def test_chernoff_ceilings_of_every_bern6_cross_type():
    """All 5,118 cross types of the frozen 88-word BERN6 n=10 code: no
    ceiling falls below the DP's hi, and at budget 500 the largest skipped
    ceiling lies below the exhaustive lambda2, so the screened interval is
    exact.  Its three reports keep the values CI pins."""
    W = bernoulli_family(2.0, 6)
    code = code_from_json(BERN6_CODE.read_text())
    words = code.codewords
    rows = np.unique([type_row(W.n_inputs, words[j], words[k]) for j in range(code.size)
                      for k in range(code.size) if j != k], axis=0)
    assert len(rows) == 5118
    dp = JointTypeDP(W)
    assert np.all(2.0 ** evaluator.false_accept_bound(dp, rows, code.delta)
                  >= dp.count_probs(rows, code.delta)[1])
    full, screened, bound = (exact_error_report(code, W, pair_budget=budget)
                             for budget in (DEFAULT_PAIR_BUDGET, 500, 0))
    assert (full.pair_mode, screened.pair_mode, bound.pair_mode, bound.method) \
        == ("exhaustive", "screened", "pair-bound", "pair-bound")
    assert (full.dp_types, screened.dp_types, bound.dp_types) == (5141, 357, 23)
    assert (full.pairs_exact, screened.pairs_exact, bound.pairs_exact) == (7656, 501, 0)
    assert full.lambda1 == screened.lambda1 == bound.lambda1 == (1.0, 1.0)
    assert full.lambda2 == screened.lambda2 == (0.35589599609375,) * 2
    assert screened.analytic_ceiling == 0.053948484822511876
    assert bound.lambda2 == (0.0, bound.analytic_ceiling) == (0.0, 0.8091486003461311)


def frozen_bern6_types():
    """BERN6, the frozen code, and its type table: own types first, then
    the 5,118 cross types, uint8 rows past the cross flag."""
    W = bernoulli_family(2.0, 6)
    code = code_from_json(BERN6_CODE.read_text())
    rows, _, k = evaluator._type_rows(code.codewords, W)
    return W, code, rows, k


def test_count_probs_reads_rows_in_their_own_dtype():
    """The frozen code's 5,141 types as the uint8 view the report passes,
    as uint16 and as int64, and uint8 rows whose owner counts pass 255: the
    same intervals as int64 rows, bit for bit."""
    W, code, rows, _ = frozen_bern6_types()
    assert rows.dtype == np.uint8 and not rows.flags.c_contiguous
    dp = JointTypeDP(W)
    want = hexes(dp.count_probs(rows.astype(np.int64), code.delta))
    for dtype in (np.uint8, np.uint16):
        assert hexes(dp.count_probs(rows.astype(dtype), code.delta)) == want
    assert hexes(dp.count_probs(rows, code.delta)) == want
    # uint8 counts of n = 400 whose owner letter 0 holds 400 positions
    dp = JointTypeDP(make_channel(["0", "1"], [[0.9, 0.1], [0.2, 0.8]]))
    wide = np.array([[200, 0, 200, 0], [150, 0, 250, 0]])
    assert hexes(dp.count_probs(wide.astype(np.uint8), 2.0)) == hexes(dp.count_probs(wide, 2.0))


@pytest.mark.parametrize("chunk", [evaluator.ATOM_CHUNK, 1])
@pytest.mark.parametrize("count", [1, 2, 41, 42, 64, 65, 129, 705, 1409, 5118])
def test_chunked_chernoff_ceilings_equal_whole_table(chunk, count):
    """Ceilings computed a block of rows at a time equal the owner-major
    reference's one matmul over the whole table, bit for bit.  At the default
    ATOM_CHUNK a block holds 704 BERN6 rows, at ATOM_CHUNK 1 the 64-row
    floor: 65, 705 and 1,409 rows would leave a one-row last block, which
    numpy multiplies by another BLAS kernel, and at most 41 rows OpenBLAS
    may take its small-matrix kernel."""
    W, code, rows, k = frozen_bern6_types()
    cross = rows[k:k + count]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "ATOM_CHUNK", chunk)
        got = evaluator.false_accept_bound(JointTypeDP(W), cross, code.delta)
    want = owner_major_false_accept_bound(W, cross, code.delta)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_report_memory_is_within_four_cross_tables():
    """A seeded 300-word BERN6 code at n=10 has 89,700 cross types, a 5.7 MB
    uint8 table.  In every pair mode the report holds that table, O(1)
    scalars per type and O(ATOM_CHUNK) working entries, and merges the
    pairs' chunks at about twice the table: its tracemalloc peak stays
    within 4 tables (13-17 before the rows kept their dtype)."""
    W = bernoulli_family(2.0, 6)
    words = np.random.default_rng(0).integers(0, W.n_inputs, (300, 10))
    code = assemble_code(W, words, delta=1.0)
    rows, _, k = evaluator._type_rows(code.codewords, W)
    assert (len(rows) - k, rows.dtype) == (89700, np.uint8)
    table = rows[k:].size * rows.itemsize
    for budget, mode in ((DEFAULT_PAIR_BUDGET, "exhaustive"), (5000, "screened"),
                         (0, "pair-bound")):
        tracemalloc.start()
        try:
            rep = exact_error_report(code, W, pair_budget=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.pair_mode == mode
        assert peak <= 4 * table


def test_type_rows_memory_at_long_words():
    """64 random binary words of n=4,096: a 4,096-pair table of uint16 rows
    (32 KB), counted 16 pairs at a time; before, 2,048 pairs x n int64 class
    ids at once peaked at 188 MB."""
    words = np.random.default_rng(0).integers(0, 2, (64, 4096))
    W = bernoulli_family(2.0, 0)
    tracemalloc.start()
    try:
        rows, pairs, k = evaluator._type_rows(words, W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.dtype == np.uint16 and pairs.sum() == 64 * 64 and k <= 64
    assert peak < 4 << 20


def test_chernoff_ceiling_of_dead_and_underflowing_types():
    # identity letters: a cross class (a, b), a != b, has no live mass
    W = identity_channel(2)
    row = [type_row(2, (0, 1, 1), (0, 1, 0))]
    assert evaluator.false_accept_bound(JointTypeDP(W), row, 0.5)[0] == -np.inf
    code = assemble_code(W, [(0, 1, 1), (0, 1, 0)], delta=0.5)
    rep = exact_error_report(code, W, 0)
    assert (rep.lambda2, rep.pair_mode, rep.analytic_ceiling) == ((0.0, 0.0), "pair-bound", 0.0)
    # BSC(0.01), all zeros against all ones at n = 300: about 2^-1900
    W = make_channel(["0", "1"], [[0.99, 0.01], [0.01, 0.99]])
    code = assemble_code(W, [(0,) * 300, (1,) * 300], delta=1.0)
    row = [type_row(2, code.codewords[0], code.codewords[1])]
    assert -np.inf < evaluator.false_accept_bound(JointTypeDP(W), row, code.delta)[0] < -1075
    rep = exact_error_report(code, W, 0)
    assert (rep.lambda2, rep.pair_mode, rep.analytic_ceiling) \
        == ((0.0, 5e-324), "pair-bound", 5e-324)


def test_batch_mixes_large_adds_and_dead_classes(monkeypatch):
    """Class (0, 1) is dead: W row 0 puts no mass where W row 1 is positive,
    so every type holding it has interval [0, 0].  With a small ATOM_CHUNK
    the batch mixes types summed in several chunks with one-chunk types that
    share a block of rows."""
    W = make_channel(["a", "b", "c"], [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0],
                                       [0.2, 0.3, 0.5]])
    words = [(0, 0, 2, 2, 0, 2), (1, 1, 2, 0, 2, 2), (2, 0, 1, 2, 2, 0), (0, 2, 0, 2, 1, 1)]
    monkeypatch.setattr(evaluator, "ATOM_CHUNK", 8)
    dp = JointTypeDP(W)
    dp.count_probs(np.unique([type_row(3, a, b) for a in words for b in words], axis=0), 0.8)
    assert dp.states_max > 8
    assert_batch_equals_single_pairs(W, words, 0.8)
    assert typical_set_prob(W, words[0], words[1], 0.8) == (0.0, 0.0)


def test_batch_memory_stays_within_batch_bound(monkeypatch):
    """1000 types of 1000 atoms each share one owner composition: their
    masses alone would take 8 MB at once, a block of ATOM_CHUNK entries 32 KB."""
    W = make_channel(["a", "b", "c", "d"], GUARD_ROWS + [[0.05, 0.23, 0.29, 0.43],
                                                         [0.37, 0.41, 0.03, 0.19]])
    # owner letters 0, 1, 2 hold 2 positions each, which have C(5, 3) = 10
    # count vectors; each pair of positions takes one of 10 source splits
    splits = list(itertools.combinations_with_replacement(range(4), 2))
    rows = np.zeros((1000, 4, 4), dtype=np.int64)
    for t, per_owner in enumerate(itertools.product(splits, repeat=3)):
        for b, split in enumerate(per_owner):
            for a in split:
                rows[t, a, b] += 1
    rows = rows.reshape(1000, 16)
    dp = JointTypeDP(W)
    whole = dp.count_probs(rows, 1.0)  # builds the owner letters' lattices
    assert dp.states_max == 1000
    monkeypatch.setattr(evaluator, "ATOM_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        split = dp.count_probs(rows, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * evaluator.ATOM_CHUNK
    assert all(np.array_equal(a, b) for a, b in zip(split, whole))


def test_mass_chunks_stay_within_atom_chunk(monkeypatch):
    """49 types share owner word (0,)*6 + (1,)*6 and differ in their source
    splits; each owner letter has C(9, 3) = 84 count vectors, so a type has
    7,056 atoms and 170 mass entries (its lattices and their zero columns).
    At ATOM_CHUNK 4096 the composition's 8,330 mass entries are built at most
    4096 at a time (24 types), each type's atoms in 2 blocks, one type per
    mass broadcast.  The intervals are those of separate calls and of the
    unravel/gather atom sum, bit for bit."""
    W = make_channel(["a", "b"], GUARD_ROWS)
    owner = (0,) * 6 + (1,) * 6
    rows = np.array([type_row(2, (1,) * j + (0,) * (6 - j) + (0,) * k + (1,) * (6 - k), owner)
                     for j in range(7) for k in range(7)])
    dp = JointTypeDP(W)
    dp.count_probs(rows, 1.0)  # builds the owner letters' lattices
    assert dp.states_max == 84**2
    batches, build = [], evaluator._masses

    def masses(probs, pred, prefix, splits):
        batches.append(len(splits) * (int(prefix[-1]) + 1))
        return build(probs, pred, prefix, splits)

    monkeypatch.setattr(evaluator, "_masses", masses)
    monkeypatch.setattr(evaluator, "ATOM_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        split = dp.count_probs(rows, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * evaluator.ATOM_CHUNK
    # two groups per batch: each batch's entries, summed, within ATOM_CHUNK
    per_batch = [a + b for a, b in zip(batches[::2], batches[1::2])]
    assert len(per_batch) == 3 and max(per_batch) <= evaluator.ATOM_CHUNK < sum(per_batch)
    assert hexes(split) == hexes([np.concatenate(p) for p in zip(
        dp.count_probs(rows[:20], 1.0), dp.count_probs(rows[20:], 1.0))])
    assert hexes(split) == hexes(gathered_count_probs(dp, rows, 1.0))


def test_masses_are_built_only_where_the_band_has_an_atom(monkeypatch):
    """The band is tested before any mass is built.  The frozen BERN6 code's
    band is delta sqrt(n) = 0.065 bits wide, and its exhaustive report
    builds the masses of 2 of its 23 owner compositions: 4 `_masses` calls
    (2 groups each) over 466 type rows, against 67 calls and 15,190 rows
    when every composition built them.  At a delta whose band misses every
    atom, a report builds none and each type reads exactly [0.0, 0.0]."""
    calls, build = [], evaluator._masses

    def masses(probs, pred, prefix, splits):
        calls.append(len(splits))
        return build(probs, pred, prefix, splits)

    monkeypatch.setattr(evaluator, "_masses", masses)
    W = bernoulli_family(2.0, 6)
    code = code_from_json(BERN6_CODE.read_text())
    assert exact_error_report(code, W).lambda2 == (0.35589599609375,) * 2
    assert (len(calls), sum(calls)) == (4, 466)
    W, words, delta = SHARED_OWNER_NO_ATOM
    calls.clear()
    rows = np.unique([type_row(W.n_inputs, a, b) for a in words for b in words], axis=0)
    assert hexes(JointTypeDP(W).count_probs(rows, delta)) == [(0.0).hex()] * (2 * len(rows))
    report = exact_error_report(assemble_code(W, words, delta=delta), W)
    assert (report.lambda1, report.lambda2) == ((1.0, 1.0), (0.0, 0.0))
    assert calls == []


def per_trial_monte_carlo(code, W, trials, seed):
    """Reference scorer: every trial scored on its own, in trial order; the
    distinct output words are counted separately with np.unique(axis=1)."""
    n = code.blocklength
    theta = code.delta * math.sqrt(n)
    h = np.array([word_output_entropy(W, w) for w in code.codewords])
    with np.errstate(divide="ignore"):
        logw = np.log2(W.matrix)
    # per position, a |Y| x N table: log2 W(y | owner letter) for every owner
    tables = np.ascontiguousarray(logw[np.array(code.codewords)].transpose(1, 2, 0))

    worst_miss = 0
    worst_false = 0
    distinct = 0
    for j, word in enumerate(code.codewords):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        # outputs: n x trials symbols drawn letterwise
        y = np.empty((n, trials), dtype=np.int64)
        for i, x in enumerate(word):
            y[i] = rng.choice(W.output_size, size=trials, p=W.matrix[x])
        distinct += np.unique(y, axis=1).shape[1]
        accepted = np.zeros(code.size, dtype=np.int64)
        for start in range(0, trials, evaluator.MC_BLOCK):
            y_blk = y[:, start:start + evaluator.MC_BLOCK]
            # trials x owners statistic, summed in position order
            stat = np.zeros((y_blk.shape[1], code.size))
            for i in range(n):
                stat += tables[i][y_blk[i]]
            accepted += (np.abs(stat + h) <= theta).sum(axis=0)
        worst_miss = max(worst_miss, trials - int(accepted[j]))
        accepted[j] = 0
        worst_false = max(worst_false, int(accepted.max()))

    l1 = wilson_interval(worst_miss, trials)
    l2 = (0.0, 0.0) if code.size < 2 else wilson_interval(worst_false, trials)
    return evaluator.ErrorReport(
        lambda1=l1, lambda2=l2,
        e1_measured=evaluator._exponent(l1[1], n),
        e2_measured=evaluator._exponent(l2[1], n),
        method="monte-carlo",
        trials=trials,
        seed=seed,
        mc_words_scored=distinct,
    )


@settings(max_examples=40, deadline=None)
@given(word_pair_cases(max_n=8, zeros=True), st.data())
def test_monte_carlo_equals_per_trial_scoring(case, data):
    W, source, owner, delta = case
    n = len(source)
    word = st.lists(st.integers(0, W.n_inputs - 1), min_size=n, max_size=n).map(tuple)
    extra = data.draw(st.lists(st.just(owner) | word, max_size=3))
    code = assemble_code(W, list(dict.fromkeys([source] + extra)), delta=delta)
    trials = data.draw(st.sampled_from([1, 511, 512, 513, 1500]) | st.integers(1, 1200))
    seed = data.draw(st.integers(0, 2**32 - 1))
    assert (monte_carlo_errors(code, W, trials, seed).to_json()
            == per_trial_monte_carlo(code, W, trials, seed).to_json())


@pytest.mark.parametrize("rows, words", [
    # |Y|^n = 3^45 > 2^63
    ([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]],
     [tuple(i % 2 for i in range(45)), tuple((i // 3) % 2 for i in range(45))]),
    # 4^40 = 2^80: unranked keys would keep only the last 32 positions, where
    # the first word's outputs are fixed, and merge all of its output words
    ([[0.4, 0.3, 0.2, 0.1], [1.0, 0.0, 0.0, 0.0]],
     [(0,) * 8 + (1,) * 32, tuple(i % 2 for i in range(40))]),
])
def test_monte_carlo_long_words_rank_keys(rows, words):
    W = make_channel(["a", "b"], rows)
    code = assemble_code(W, words, delta=2.0)
    rep = monte_carlo_errors(code, W, trials=1500, seed=3)
    assert rep.to_json() == per_trial_monte_carlo(code, W, trials=1500, seed=3).to_json()


#: full-support rows but input 1, a point mass on output 1
POINT3 = [[0.5, 0.3, 0.2], [0.0, 1.0, 0.0], [0.1, 0.3, 0.6]]
ID3_WORDS = [(0, 1, 2, 0, 1, 2), (1, 1, 2, 2, 0, 0), (2, 0, 0, 1, 1, 2), (0, 1, 2, 0, 1, 1)]


@pytest.mark.parametrize("W, words, delta", [
    # BERN6 rows 0 (x = 0) and 1 (x = 1) are point masses, rows 2 and 4 are not
    (bernoulli_family(2.0, 6),
     [(0, 1, 2, 4, 2, 4, 0, 1), (2, 2, 4, 4, 1, 0, 2, 4), (1, 4, 2, 0, 4, 2, 2, 1),
      (0, 0, 1, 1, 2, 2, 4, 4)], 1.0),
    (make_channel(["a", "b", "c"], POINT3), ID3_WORDS, 0.6),
    # every position skips its draws
    (identity_channel(3), ID3_WORDS, 0.6),
], ids=["bern6-mixed", "W-point-mass", "identity"])
def test_monte_carlo_point_mass_rows(W, words, delta):
    code = assemble_code(W, words, delta=delta)
    for trials, seed in ((1, 0), (700, 5), (3000, 11)):
        assert (monte_carlo_errors(code, W, trials, seed).to_json()
                == per_trial_monte_carlo(code, W, trials, seed).to_json())


def test_monte_carlo_identity_code_draws_nothing(monkeypatch):
    calls = []

    def counted(cdf, u, out):
        calls.append(u.size)
        return choice_letters(cdf, u, out)

    monkeypatch.setattr(evaluator, "choice_letters", counted)
    W = identity_channel(3)
    rep = monte_carlo_errors(assemble_code(W, ID3_WORDS, delta=0.6), W, trials=500, seed=2)
    assert calls == []
    assert rep.mc_words_scored == len(ID3_WORDS)


@pytest.mark.parametrize("trials", [1023, 1024, 1025])
def test_monte_carlo_key_span_at_trials(trials):
    """2^10 output words: 1023 trials rank their keys before counting them,
    1024 and 1025 count the mixed-radix keys directly."""
    W = make_channel(["a", "b"], [[0.6, 0.4], [0.45, 0.55]])
    words = [tuple(int(b) for b in f"{w:010b}") for w in (0b0101100111, 0b1110001010, 0)]
    code = assemble_code(W, words, delta=1.0)
    for seed in range(3):
        assert (monte_carlo_errors(code, W, trials, seed).to_json()
                == per_trial_monte_carlo(code, W, trials, seed).to_json())


#: letter laws of 2-8 outputs with zeros first, inside and last, and a point mass
CHOICE_ROWS = [
    [0.3, 0.7],
    [0.0, 0.25, 0.0, 0.75],
    [0.1, 0.0, 0.0, 0.2, 0.7],
    [0.2, 0.3, 0.5, 0.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.05, 0.1, 0.15, 0.2, 0.0, 0.25, 0.125, 0.125],
    [1 / 3, 1 / 3, 1 / 3],
]


@pytest.mark.parametrize("row", CHOICE_ROWS)
def test_choice_letters_is_generator_choice(row):
    p = np.array(row)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(4):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for trials in (1, 7, 1000):
            letters = choice_letters(cdf, rng.random(trials), np.empty(trials, np.uint8))
            assert np.array_equal(letters, ref.choice(len(p), size=trials, p=p))
        assert rng.random() == ref.random()
    # draws almost never land on an edge, so edges are tried exactly
    u = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]))
    u = u[(u >= 0.0) & (u < 1.0)]
    letters = choice_letters(cdf, u, np.empty(u.size, np.uint8))
    assert np.array_equal(letters, np.searchsorted(cdf, u, side="right"))


def test_monte_carlo_memory():
    """2^18 trials at n=16 stay below 32 MB, the size of int64 letters alone."""
    W = make_channel(["a", "b"], [[0.7, 0.3], [0.2, 0.8]])
    code = assemble_code(W, [(0, 1) * 8, (0, 0, 1, 1) * 4], delta=1.0)
    tracemalloc.start()
    try:
        monte_carlo_errors(code, W, trials=1 << 18, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


# ---------------------------------------------------------------------------
# size guard and work counters

#: two inputs whose 4 output log-probabilities are rationally independent
#: (prime numerators), so the C(25, 3) = 2300 count vectors of 22 positions
#: of one owner letter take 2300 distinct values.  GUARD_WORD against itself
#: has 2300^2 = 5.29M atoms, under STATE_GUARD.
GUARD_ROWS = [[0.11, 0.13, 0.17, 0.59], [0.07, 0.19, 0.31, 0.43]]
GUARD_WORD = (0,) * 22 + (1,) * 22
#: a guard far below GUARD_WORD's lattice, for tests of the guard itself
SMALL_GUARD = 20_000


def test_dp_guard_counts_merged_cells():
    """Against an all-0 owner word, GUARD_WORD's 44 positions share owner
    letter 0, whose lattice has C(47, 3) = 16,215 count vectors, fed by two
    source letters.  GUARD_WORD against itself evaluates its 5.29M atoms."""
    W = make_channel(["a", "b"], GUARD_ROWS)
    dp = JointTypeDP(W)
    (lo,), (hi,) = dp.count_probs([type_row(2, GUARD_WORD, (0,) * 44)], 1.0)
    assert 0.0 < lo <= hi < 1.0 and hi - lo <= 1e-6
    assert dp.states_max == 16_215
    assert typical_set_prob(W, GUARD_WORD, (0,) * 44, delta=1.0) == (lo, hi)
    # the bits of the unravel/gather atom sum, blocks of ATOM_CHUNK across rows
    assert own_type_probs(dp, GUARD_WORD, 1.0) == (float.fromhex("0x1.795b1adb035c8p-1"),) * 2
    assert dp.states_max == 2300**2


def test_dp_size_guard_fails_before_allocating(monkeypatch):
    """The guard counts GUARD_WORD's 5.29M atoms before any lattice is built;
    its masses alone would take 42 MB."""
    monkeypatch.setattr(evaluator, "STATE_GUARD", SMALL_GUARD)
    W = make_channel(["a", "b"], GUARD_ROWS)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            typical_set_prob(W, GUARD_WORD, GUARD_WORD, delta=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dp_size_guard_counts_sparse_lattice(monkeypatch):
    """An owner letter over 8 outputs of independent log-probabilities: 30
    positions have C(37, 7) = 10.3M count vectors, 40 have 62.9M; a dense
    (n+1)^7 grid of them would hold 27.5G or 164G entries.  The guard refuses
    each type before any lattice exists: under a small guard the 30-position
    one by its atoms and an 8-position one (6,435 atoms) by its 51,480
    lattice entries (vectors x values), under the real guard the
    40-position one by its 503M entries, though it meets the atom limit."""
    rng = np.random.default_rng(17)
    W = random_channel(rng, 2, 8)
    for guard, n, match in ((SMALL_GUARD, 30, "10295472 output-count atoms"),
                            (SMALL_GUARD, 8, "6435 output-count atoms or 51480 lattice entries"),
                            (evaluator.STATE_GUARD, 40, "503131992 lattice entries")):
        monkeypatch.setattr(evaluator, "STATE_GUARD", guard)
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardError, match=match):
                typical_set_prob(W, (1,) * n, (0,) * n, delta=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class Admitted(Exception):
    pass


def admitted(*args):
    raise Admitted


@pytest.mark.parametrize("k, n", [(8, 26), (9, 21), (10, 18)])
def test_dp_guard_admits_letters_under_five_million_vectors(monkeypatch, k, n):
    """One owner letter over k outputs of independent log-probabilities, with
    the lattice build replaced by a stop: C(n + k - 1, k - 1) is 4.27M, 4.29M
    and 4.69M count vectors, 34M-47M lattice entries, so the guard admits
    every letter of at most 5M vectors at these k."""
    monkeypatch.setattr(evaluator, "_lattice", admitted)
    W = random_channel(np.random.default_rng(k), 2, k)
    assert math.comb(n + k - 1, k - 1) <= 5_000_000
    with pytest.raises(Admitted):
        typical_set_prob(W, (1,) * n, (0,) * n, delta=1.0)


def test_dp_guard_admits_long_binary_pair(monkeypatch):
    """Past the guard, with the position DP replaced by a stop: the n=16,383
    simplex own pair and the all-zero word's own pair.  Both BSC letters
    take the values log2 0.99 and log2 0.01, so each is one lattice of
    16,384 flip counts."""
    monkeypatch.setattr(evaluator, "_masses", admitted)
    W = make_channel(["0", "1"], [[0.99, 0.01], [0.01, 0.99]])
    for word in (simplex_word(14, 5), (0,) * 16_383):
        with pytest.raises(Admitted):
            typical_set_prob(W, word, word, delta=1.0)


def test_bern6_outputs_of_equal_log_probability_share_a_count():
    """BERN6 letters 1/2, 1/4, 1/8 and 1/16, 120 positions each, against
    themselves (n = 480): both outputs of 1/2 have log2 = -1, so that letter
    has one count vector and the type 121^3 = 1.77M atoms.  Against a full
    float sum over the three binomial counts."""
    W = bernoulli_family(2.0, 6)
    word = sum(((x,) * 120 for x in (2, 3, 4, 5)), ())
    dp = JointTypeDP(W)
    interval = own_type_probs(dp, word, 1.0)
    assert dp.states_max == 121**3
    stat = -120.0 + np.zeros((1, 1, 1))
    mass = np.ones((1, 1, 1))
    for axis, k in enumerate((2, 3, 4)):
        x, ones = 2.0**-k, np.arange(121)
        shape = [1, 1, 1]
        shape[axis] = 121
        stat = stat + (ones * math.log2(x) + (120 - ones) * math.log2(1 - x)).reshape(shape)
        mass = mass * np.array([math.comb(120, j) * x**j * (1 - x)**(120 - j)
                                for j in range(121)]).reshape(shape)
    inside = np.abs(stat + word_output_entropy(W, word)) <= math.sqrt(480)
    assert encloses(interval, float(mass[inside].sum()))
    assert 0.0 < interval[0] <= interval[1] < 1.0


def test_permuted_rows_share_a_lattice_and_enclose_enumeration():
    """Rows that permute one distribution (some entries zero) give every
    owner letter the same values, so all letters form one group; the
    interval encloses the enumeration."""
    rng = np.random.default_rng(3)
    for trial in range(60):
        k, q, n = int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 9))
        base = rng.random(k) ** 2 * (rng.random(k) > 0.3)
        base[0] += 0.05
        W = make_channel([str(i) for i in range(q)],
                         [rng.permutation(base / base.sum()) for _ in range(q)])
        source, owner = (tuple(int(v) for v in rng.integers(0, q, n)) for _ in range(2))
        delta = float(rng.uniform(0.1, 1.5))
        truth = brute_force_typical_prob(W, source, owner, delta)
        assert encloses(typical_set_prob(W, source, owner, delta), truth, rel=1e-12)


def test_symmetric_channel_letters_share_one_lattice():
    """A 4-ary symmetric channel (13/16 kept, 1/16 to each other output): all
    four letters take the values log2 13/16 and log2 1/16, so an own pair of
    120 positions per letter (n = 480) is one lattice of 481 flip counts,
    where one lattice per letter over its two values would have 121^4 =
    214M atoms.  Against the exact flip-count sum, F = Bin(480, 3/16)."""
    W = make_channel(list("abcd"), [[13 / 16 if x == y else 1 / 16 for y in range(4)]
                                    for x in range(4)])
    word = sum(((x,) * 120 for x in range(4)), ())
    dp = JointTypeDP(W)
    interval = own_type_probs(dp, word, 1.0)
    assert dp.states_max == 481
    h = word_output_entropy(W, word)
    truth = math.fsum(math.comb(480, f) * 13**(480 - f) * 3**f / 16**480
                      for f in range(481)
                      if abs(f * -4.0 + (480 - f) * math.log2(13 / 16) + h) <= math.sqrt(480))
    assert encloses(interval, truth)
    assert 0.0 < interval[0] <= interval[1] < 1.0


def test_evaluate_size_guard_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evaluator, "STATE_GUARD", SMALL_GUARD)
    W = make_channel(["a", "b"], GUARD_ROWS)
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"inputs": ["a", "b"], "matrix": GUARD_ROWS}))
    code = tmp_path / "code.json"
    code.write_text(code_to_json(assemble_code(W, [GUARD_WORD, GUARD_WORD[::-1]],
                                               delta=1.0)))
    rc = main(["evaluate", "--channel", str(chan), "--code", str(code),
               "--method", "exact", "--out", str(tmp_path / "ev")])
    assert rc == 3
    assert "error code=SIZE_GUARD" in capsys.readouterr().err


def test_report_work_counters():
    W = bernoulli_family(2.0, 4)
    code = assemble_code(W, [(0, 2, 1, 3), (1, 3, 2, 0), (2, 0, 3, 1), (0, 1, 2, 3)],
                         delta=0.8)
    words, q = code.codewords.tolist(), W.n_inputs
    types = {tuple(type_row(q, a, b)) for a in words for b in words}
    rep = exact_error_report(code, W)
    assert (rep.dp_types, rep.pairs_exact) == (len(types), 12)
    assert rep.dp_states_max >= 1
    payload = json.loads(rep.to_json())
    assert (payload["dp_types"], payload["pairs_exact"]) == (len(types), 12)
    assert payload["dp_states_max"] == rep.dp_states_max

    # budget 5: types ranked by ceiling (ties in row order) are evaluated
    # until they cover 5 pairs, and every pair of each counts
    screened = exact_error_report(code, W, pair_budget=5)
    cross = Counter(tuple(type_row(q, a, b)) for a in words for b in words if a != b)
    rows = sorted(cross)
    bound = evaluator.false_accept_bound(JointTypeDP(W), rows, code.delta)
    covered = np.cumsum([cross[rows[t]] for t in np.argsort(-bound, kind="stable")])
    evaluated = int(np.searchsorted(covered, 5)) + 1
    own_types = len({tuple(type_row(q, w, w)) for w in words})
    assert screened.pair_mode == "screened"
    assert screened.dp_types == own_types + evaluated < len(types)
    assert screened.pairs_exact == covered[evaluated - 1] >= 5
    assert exact_error_report(code, W, pair_budget=0).pairs_exact == 0
    assert rep.mc_words_scored is payload["mc_words_scored"] is None
    mc = json.loads(monte_carlo_errors(code, W, trials=100, seed=1).to_json())
    assert mc["dp_types"] is mc["dp_states_max"] is mc["pairs_exact"] is None

    # BERN6 n=10: 88 words, at most 2^10 output words each
    W = bernoulli_family(2.0, 6)
    code = construct(W, n=10, E=4.5e-7, t=0.5)
    mc = monte_carlo_errors(code, W, trials=10**4, seed=1)
    assert 88 * 16 <= mc.mc_words_scored <= 88 * 1024
    assert json.loads(mc.to_json())["mc_words_scored"] == mc.mc_words_scored


def test_mc_size_guard_fails_before_allocating(tmp_path, capsys):
    W = identity_channel(2)
    code = assemble_code(W, [(0, 1, 0), (1, 0, 1)], delta=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            monte_carlo_errors(code, W, trials=10**9, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"inputs": ["0", "1"], "matrix": [[1, 0], [0, 1]]}))
    (tmp_path / "code.json").write_text(code_to_json(code))
    rc = main(["evaluate", "--channel", str(chan), "--code", str(tmp_path / "code.json"),
               "--method", "mc", "--trials", "1000000000", "--out", str(tmp_path / "ev")])
    assert rc == 3
    assert "error code=SIZE_GUARD" in capsys.readouterr().err


def test_mc_size_guard_edge(monkeypatch):
    # the README example (n=8, 10^5 trials) and the certify check (n=18,
    # 2 * 10^4 trials) stay under the guard
    assert max(8 * 10**5, 18 * 2 * 10**4) <= evaluator.MC_CELL_GUARD
    W = identity_channel(2)
    code = assemble_code(W, [(0, 1, 0), (1, 0, 1)], delta=0.5)
    monkeypatch.setattr(evaluator, "MC_CELL_GUARD", 3 * 100)
    assert monte_carlo_errors(code, W, trials=100, seed=1).trials == 100
    with pytest.raises(SizeGuardError):
        monte_carlo_errors(code, W, trials=101, seed=1)


@pytest.mark.parametrize("words", [
    [(2, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)],  # its counts spill into the next row
    [(0, 1, 1, 0), (1, 1, 0, 0), (2, 0, 0, 1)],  # its counts overrun the last row
])
def test_letters_must_be_inputs_of_the_channel(words):
    """A q=3 code against a 2-input channel is refused by every evaluation,
    not certified from counts shifted into other classes; so is each single
    pair holding letter 2 or -1, which used to read as class (1, 0) or as the
    last row."""
    code = assemble_code(make_channel(list("abc"), [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]),
                         words, delta=1.0)
    W = make_channel(["a", "b"], [[0.9, 0.1], [0.2, 0.8]])
    evaluations = [lambda: exact_error_report(code, W, pair_budget=0),
                   lambda: exact_error_report(code, W),
                   lambda: monte_carlo_errors(code, W, trials=10, seed=1)]
    shifted = next(w for w in words if 2 in w)
    for bad in (shifted, tuple(-1 if x == 2 else x for x in shifted)):
        for pair in ((bad, words[1]), (words[1], bad)):
            for oracle in (typical_set_prob, brute_force_typical_prob):
                evaluations.append(lambda oracle=oracle, pair=pair: oracle(W, *pair, 1.0))
    evaluations.append(lambda: typical_set_prob(W, (0, 0), (0, 2), 0.5))
    for evaluate in evaluations:
        with pytest.raises(ValidationError, match="not a channel input"):
            evaluate()


BSC = make_channel(["0", "1"], [[0.9, 0.1], [0.1, 0.9]])


def stand_in_code(words):
    """What the exact report and Monte Carlo read of a code, with its words
    as given, so that the evaluators' own word check is what refuses them."""
    return SimpleNamespace(codewords=words, size=len(words), blocklength=4, delta=1.0)


def code_file(words):
    """The file of a two-word BSC code with its words replaced; its own
    entropies stay, so that only the word rule can refuse it."""
    payload = json.loads(code_to_json(assemble_code(BSC, [(0, 1, 1, 0), (1, 0, 1, 0)], 1.0)))
    payload["codewords"] = words
    return json.dumps(payload)


#: the entries that take words, each called with the same two words over BSC
WORD_ENTRIES = {
    "code-file": lambda words: exact_error_report(code_from_json(code_file(words)), BSC),
    "assemble_code": lambda words: assemble_code(BSC, words, delta=1.0),
    "typical_set_prob": lambda words: typical_set_prob(BSC, *words, 1.0),
    "brute_force_typical_prob": lambda words: brute_force_typical_prob(BSC, *words, 1.0),
    "exact_error_report": lambda words: exact_error_report(stand_in_code(words), BSC),
    "monte_carlo_errors": lambda words: monte_carlo_errors(stand_in_code(words), BSC,
                                                           trials=10, seed=1),
}
BAD_WORDS = {
    "half": [(0.5, 1, 1, 0), (1, 0, 1, 0)],
    "bool": [(True, 1, 1, False), (1, 0, 1, 0)],
    "negative": [(-1, 1, 1, 0), (1, 0, 1, 0)],
    "past-q": [(2, 1, 1, 0), (1, 0, 1, 0)],
    "ragged": [(0, 1, 1), (1, 0, 1, 0)],
}


@pytest.mark.parametrize("words", BAD_WORDS.values(), ids=BAD_WORDS.keys())
@pytest.mark.parametrize("entry", WORD_ENTRIES.values(), ids=WORD_ENTRIES.keys())
def test_every_entry_applies_the_one_word_rule(entry, words):
    """0.5 used to read as letter 0 and True as letter 1 in the evaluator,
    and assemble_code raised numpy's IndexError on a letter past q."""
    entry([(0, 1, 1, 0), (1, 0, 1, 0)])  # the same entry takes good words
    with pytest.raises(ValidationError):
        entry(words)


@pytest.mark.parametrize("delta", [math.nan, -1.0, math.inf, True, "1"])
def test_oracles_apply_the_codes_delta_rule(delta):
    """NaN and -1 used to give a certified (0.0, 0.0)."""
    for oracle in (typical_set_prob, brute_force_typical_prob):
        with pytest.raises(ValidationError, match="delta must be a finite number"):
            oracle(BSC, (0, 1), (0, 1), delta)


@pytest.mark.parametrize("delta", [0.0, 1e-300, 1e300])
def test_assemble_code_refuses_a_delta_without_a_params_record(delta):
    """A delta whose implied exponent target is 0 or infinite is refused by
    name; it used to fail with "exponent target must be positive"."""
    with pytest.raises(ValidationError, match=r"^delta = .* gives exponent target"):
        assemble_code(BSC, [(0, 1, 1, 0), (1, 0, 1, 0)], delta=delta)
