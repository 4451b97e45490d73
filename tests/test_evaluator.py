import itertools
import json
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dicode import evaluator
from dicode.channel import bernoulli_family, identity_channel, make_channel, truncate_channel
from dicode.cli import main
from dicode.codebook import assemble_code, code_to_json, construct, word_output_entropy
from dicode.errors import SizeGuardError
from dicode.evaluator import (
    DEFAULT_QSTEP,
    JointTypeDP,
    brute_force_typical_prob,
    choice_letters,
    exact_error_report,
    joint_type,
    letter_spectrum,
    measure_lambda1,
    measure_lambda2,
    monte_carlo_errors,
    typical_set_prob,
    wilson_interval,
)
from dicode.infodist import letter_tables


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


def test_letter_spectrum_masses_sum():
    W = make_channel(["a", "b"], [[0.7, 0.3], [1.0, 0.0]])
    spec = letter_spectrum(W.matrix[0], W.matrix[1])
    assert sum(m for _, m in spec.atoms) + spec.dead_mass == pytest.approx(1.0)
    assert spec.dead_mass == pytest.approx(0.3)  # owner has a zero there


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


def test_interval_nesting_in_qstep():
    rng = np.random.default_rng(13)
    for _ in range(20):
        W, source, owner, delta = random_instance(rng)
        prev = (0.0, 1.0)
        for step in (2.0**-8, 2.0**-12, 2.0**-16, 2.0**-20):
            lo, hi = typical_set_prob(W, source, owner, delta, qstep=step)
            assert lo >= prev[0] - 1e-12
            assert hi <= prev[1] + 1e-12
            prev = (lo, hi)


def test_lambda_measurements_identity_code():
    W = identity_channel(2)
    code = construct(W, 6, 1e-5, 1 / 3)
    assert measure_lambda1(code, W) == (0.0, 0.0)
    (lo, hi), mode, _ = measure_lambda2(code, W)
    assert (lo, hi) == (0.0, 0.0)
    assert mode == "exhaustive"


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
    (lo, hi), mode, _ = measure_lambda2(code, W)
    want = max(
        brute_force_typical_prob(W, code.codewords[j], code.codewords[k], 0.9)
        for j in range(3) for k in range(3) if j != k)
    assert lo - 1e-12 <= want <= hi + 1e-12
    l1 = measure_lambda1(code, W)
    want1 = max(1 - brute_force_typical_prob(W, w, w, 0.9) for w in code.codewords)
    assert l1[0] - 1e-12 <= want1 <= l1[1] + 1e-12


def test_lambda2_screened_mode_is_upper_bound():
    rng = np.random.default_rng(15)
    W = random_channel(rng, 4, 2)
    words = [tuple(int(v) for v in rng.integers(0, 4, 6)) for _ in range(6)]
    words = list(dict.fromkeys(words))
    code = assemble_code(W, words, delta=1.0)
    full, _, _ = measure_lambda2(code, W, pair_budget=10**6)
    screened, mode, ceiling = measure_lambda2(code, W, pair_budget=4)
    assert mode == "screened"
    assert screened[1] >= full[1] - 1e-12   # stays a true upper bound
    assert screened[0] <= full[0] + 1e-12
    assert ceiling >= 0.0


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

    exact1 = measure_lambda1(code, W)
    exact2, _, _ = measure_lambda2(code, W)
    # Wilson intervals should overlap the exact enclosures
    assert rep1.lambda1[0] <= exact1[1] + 1e-9
    assert rep1.lambda1[1] >= exact1[0] - 1e-9
    assert rep1.lambda2[0] <= exact2[1] + 1e-9
    assert rep1.lambda2[1] >= exact2[0] - 1e-9


def test_monte_carlo_coverage_over_seeds():
    W = make_channel(["a", "b"], [[0.85, 0.15], [0.3, 0.7]])
    code = assemble_code(W, [(0, 0, 1, 0), (1, 1, 0, 1)], delta=0.7)
    lam1 = measure_lambda1(code, W)
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


def test_truncated_law_evaluation():
    W = make_channel(["a", "b"],
                     [[0.9, 0.095, 0.005], [0.25, 0.74, 0.01]])
    V = truncate_channel(W, 0.5, 6)
    code = assemble_code(W, [(0, 0, 1, 0, 1, 0), (1, 1, 0, 1, 0, 1)], delta=0.9)
    base = exact_error_report(code, W)
    shifted = exact_error_report(code, W, law=V)
    factor = math.exp(2 * 0.5)
    assert shifted.lambda1[0] <= factor * base.lambda1[1] + 1e-9
    assert shifted.lambda1[0] <= base.lambda1[1] + 0.25 + 1e-9
    assert shifted.lambda2[0] <= factor * base.lambda2[1] + 1e-9
    assert shifted.lambda2[0] <= base.lambda2[1] + 0.25 + 1e-9


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


# ---------------------------------------------------------------------------
# property tests on channels with 2-4 outputs

@st.composite
def word_pair_cases(draw, max_n=7, zeros=False):
    """(W, law, source, owner, delta): hypothesis picks the alphabet sizes,
    the words and the zero pattern; a drawn seed gives the continuous values,
    so that no statistic value sits exactly on a band edge."""
    n_in = draw(st.integers(2, 4))
    n_out = draw(st.integers(2, 4))
    n = draw(st.integers(1, max_n))
    letters = st.integers(0, n_in - 1)
    source = tuple(draw(st.lists(letters, min_size=n, max_size=n)))
    owner = tuple(draw(st.lists(letters, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = []
    for _ in range(2):
        m = rng.random((n_in, n_out)) + 0.05
        if zeros:
            # zero out some entries, keeping one positive entry per row
            cut = rng.random((n_in, n_out)) < 0.3
            cut[np.arange(n_in), rng.integers(0, n_out, n_in)] = False
            m[cut] = 0.0
        matrices.append(m / m.sum(axis=1, keepdims=True))
    labels = [str(i) for i in range(n_in)]
    W = make_channel(labels, matrices[0])
    law = make_channel(labels, matrices[1]) if draw(st.booleans()) else None
    return W, law, source, owner, float(rng.uniform(0.2, 1.5))


@settings(max_examples=60, deadline=None)
@given(word_pair_cases(zeros=True), st.sampled_from([2.0**-2, 2.0**-5]))
def test_typical_set_prob_encloses_enumeration(case, coarse):
    W, law, source, owner, delta = case
    lo, hi = typical_set_prob(W, source, owner, delta, law=law)
    truth = brute_force_typical_prob(W, source, owner, delta, law=law)
    assert lo - 1e-12 <= truth <= hi + 1e-12
    assert hi - lo <= 1e-6
    # on a coarse grid many cells straddle a band edge; still an enclosure
    lo, hi = typical_set_prob(W, source, owner, delta, qstep=coarse, law=law)
    assert lo - 1e-12 <= truth <= hi + 1e-12


def random_cells(rng, size):
    """Unmerged cell table: keys with repeats, in no order."""
    key = rng.integers(-40, 40, size)
    smin = key * 0.5 - rng.uniform(0.0, 0.25, size)
    return key, rng.random(size), smin, smin + rng.uniform(0.0, 0.25, size)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_add_equals_merged_outer_add(na, nb, block, seed):
    rng = np.random.default_rng(seed)
    a, b = random_cells(rng, na), random_cells(rng, nb)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "MERGE_CELLS", 0)
        mp.setattr(evaluator, "BLOCK_CELLS", block)
        key, mass, smin, smax = evaluator._add(a, b)
    ref = evaluator._merge(evaluator._outer(a, b))
    assert np.array_equal(key, ref[0])
    assert np.array_equal(smin, ref[2]) and np.array_equal(smax, ref[3])
    assert np.allclose(mass, ref[1], rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(word_pair_cases(zeros=True), st.sampled_from([0, 8, 64]), st.integers(1, 64),
       st.sampled_from([DEFAULT_QSTEP, 2.0**-2]))
def test_key_range_blocks_enclose_enumeration(case, merge_cells, block, qstep):
    """With a small MERGE_CELLS most adds take the key-range path, some from
    unmerged tables; the cells do not depend on how many sums a range holds."""
    W, law, source, owner, delta = case
    truth = brute_force_typical_prob(W, source, owner, delta, law=law)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "MERGE_CELLS", merge_cells)
        whole = typical_set_prob(W, source, owner, delta, qstep, law=law)
        mp.setattr(evaluator, "BLOCK_CELLS", block)
        split = typical_set_prob(W, source, owner, delta, qstep, law=law)
    assert [v.hex() for v in split] == [v.hex() for v in whole]
    lo, hi = split
    assert lo - 1e-12 <= truth <= hi + 1e-12
    if qstep == DEFAULT_QSTEP:
        assert hi - lo <= 1e-6


@settings(max_examples=40, deadline=None)
@given(word_pair_cases(max_n=10, zeros=True), st.randoms(use_true_random=False))
def test_typical_set_prob_invariant_under_position_permutation(case, random):
    W, law, source, owner, delta = case
    order = list(range(len(source)))
    random.shuffle(order)
    permuted = typical_set_prob(W, [source[i] for i in order], [owner[i] for i in order],
                                delta, law=law)
    assert [v.hex() for v in permuted] == [
        v.hex() for v in typical_set_prob(W, source, owner, delta, law=law)]


@settings(max_examples=30, deadline=None)
@given(word_pair_cases(max_n=8, zeros=True), st.data())
def test_measurements_equal_per_pair_calls(case, data):
    W, law, source, owner, delta = case
    n_in, n = W.n_inputs, len(source)
    extra = data.draw(st.lists(st.lists(st.integers(0, n_in - 1), min_size=n, max_size=n)
                               .map(tuple), max_size=3))
    words = list(dict.fromkeys([source, owner] + extra))
    if len(words) < 2:
        return
    code = assemble_code(W, words, delta=delta)
    per_pair = [typical_set_prob(W, words[j], words[k], code.delta, law=law)
                for j in range(len(words)) for k in range(len(words)) if j != k]
    (lo, hi), mode, _ = measure_lambda2(code, W, law=law)
    assert mode == "exhaustive"
    assert (lo, hi) == (max(p[0] for p in per_pair), max(p[1] for p in per_pair))
    own = [typical_set_prob(W, w, w, code.delta, law=law) for w in words]
    assert measure_lambda1(code, W, law=law) == (max(1.0 - p[1] for p in own),
                                                  max(1.0 - p[0] for p in own))


#: dyadic output distributions: their log-probabilities are integers, so the
#: cells of different joint types share grid keys
DYADIC = [(1.0,), (0.5, 0.5), (0.5, 0.25, 0.25), (0.25,) * 4, (0.5, 0.25, 0.125, 0.125)]


@st.composite
def code_cases(draw, max_n=6, max_words=5):
    """(W, law, words, delta): distinct words of one length; W is either a
    random channel with zeros or, half of the time, a dyadic one."""
    W, law, source, owner, delta = draw(word_pair_cases(max_n=max_n, zeros=True))
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
    return W, law, list(dict.fromkeys([source, owner] + extra)), delta


def assert_batch_equals_single_pairs(W, law, words, delta):
    """One batched evaluation of every ordered pair's joint type gives each
    type the interval of `typical_set_prob` on that pair alone, bit for bit."""
    batched = JointTypeDP(W, law=law).probs(
        [joint_type(a, b) for a in words for b in words], delta)
    for a in words:
        for b in words:
            single = typical_set_prob(W, a, b, delta, law=law)
            assert [v.hex() for v in batched[joint_type(a, b)]] == [v.hex() for v in single]


@settings(max_examples=40, deadline=None)
@given(code_cases(), st.sampled_from([0, 4, 32, evaluator.MERGE_CELLS]))
def test_batch_equals_single_type_evaluation(case, merge_cells):
    """With a small MERGE_CELLS some types of a batch take `_add`'s key-range
    path while others stay in the batch gather."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "MERGE_CELLS", merge_cells)
        assert_batch_equals_single_pairs(*case)


#: classes (0, 0) and (1, 0) share owner row 0, so the sums of their 2-fold
#: spectra meet three at a time on one key; those masses sum in add order
SHARED_OWNER_CASE = (make_channel(["a", "b"], [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]), None,
                     [(0, 0, 1, 1), (0, 0, 0, 0), (1, 1, 0, 0)], 0.7)


@settings(max_examples=40, deadline=None)
@given(code_cases(), st.sampled_from([0, 4, 32, evaluator.MERGE_CELLS]))
@example(SHARED_OWNER_CASE, evaluator.MERGE_CELLS)
def test_batch_cells_equal_per_type_fold(case, merge_cells):
    """Each type's merged cells equal the reference fold of its class powers,
    `_merge(reduce(_add, powers))` in class order, key for key and bit for bit.
    Its interval equals the reference band test, which sums each type's mass
    with `ndarray.sum`, up to the roundoff of summing in another order."""
    W, law, words, delta = case
    folds = []
    fold = evaluator._fold

    def spy(counts, steps):
        folds.append((counts, fold(counts, steps)))
        return folds[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "MERGE_CELLS", merge_cells)
        mp.setattr(evaluator, "_fold", spy)
        dp = JointTypeDP(W, law=law)
        probs = dp.probs([joint_type(a, b) for a in words for b in words], delta)
        q, ent = W.n_inputs, letter_tables(W)[0]
        for counts, (tid, *cells) in folds:
            for t, row in enumerate(counts):
                jtype = tuple(((cl // q, cl % q), int(c)) for cl, c in enumerate(row) if c)
                powers = [dp._power(a, b, c) for (a, b), c in jtype]
                want = evaluator._merge(reduce(evaluator._add, powers))
                for got, ref in zip(cells, want):
                    assert np.array_equal(got[tid == t], ref)

                _, mass, smin, smax = want
                h_owner = sum(c * ent[b] for (_, b), c in jtype)
                theta = delta * math.sqrt(sum(c for _, c in jtype))
                band_lo, band_hi = -h_owner - theta, -h_owner + theta
                fuzz = evaluator.EDGE_FUZZ
                inside = (smin >= band_lo + fuzz) & (smax <= band_hi - fuzz)
                touch = (smax >= band_lo - fuzz) & (smin <= band_hi + fuzz)
                ref = [min(float(mass[mask].sum()), 1.0) for mask in (inside, touch)]
                assert probs[jtype] == pytest.approx(ref, rel=mass.size * 2.0**-52, abs=0.0)


def test_batch_mixes_large_adds_and_dead_classes(monkeypatch):
    """Class (0, 1) is dead: law row 0 puts no mass where W row 1 is positive,
    so every type holding it has an empty cell table and interval [0, 0]."""
    W = make_channel(["a", "b", "c"], [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0],
                                       [0.2, 0.3, 0.5]])
    words = [(0, 0, 2, 2, 0, 2), (1, 1, 2, 0, 2, 2), (2, 0, 1, 2, 2, 0), (0, 2, 0, 2, 1, 1)]
    batches, seen = evaluator._batches, []

    def spy(weight):
        for batch in batches(weight):
            seen.append(weight[batch])
            yield batch

    monkeypatch.setattr(evaluator, "_batches", spy)
    monkeypatch.setattr(evaluator, "MERGE_CELLS", 8)
    assert_batch_equals_single_pairs(W, None, words, 0.8)
    assert typical_set_prob(W, words[0], words[1], 0.8) == (0.0, 0.0)
    # the first, batched evaluation held types with and without key-range adds
    assert len(seen[0]) == len({joint_type(a, b) for a in words for b in words})
    assert (seen[0] > 8).any() and (seen[0] <= 8).any()


def test_batch_memory_stays_within_batch_bound(monkeypatch):
    """560 types of 1000 cells each: unbatched they would peak near 70 MB."""
    W = make_channel(["a", "b", "c", "d"], GUARD_ROWS + [[0.05, 0.23, 0.29, 0.43],
                                                         [0.37, 0.41, 0.03, 0.19]])
    # three classes of count 2; each 2-fold class spectrum has C(5, 3) = 10 cells
    rows = np.zeros((560, 16), dtype=np.int64)
    for t, classes in enumerate(itertools.combinations(range(16), 3)):
        rows[t, list(classes)] = 2
    dp = JointTypeDP(W)
    whole = dp.count_probs(rows, 1.0)  # builds the class spectra
    assert dp.states_max == 1000
    monkeypatch.setattr(evaluator, "BATCH_CELLS", 1 << 12)
    tracemalloc.start()
    try:
        split = dp.count_probs(rows, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * evaluator.BATCH_CELLS
    assert all(np.array_equal(a, b) for a, b in zip(split, whole))


def per_trial_monte_carlo(code, W, trials, seed, law=None):
    """Reference scorer: every trial scored on its own, in trial order; the
    distinct output words are counted separately with np.unique(axis=1)."""
    law_matrix = (law or W).matrix
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
            y[i] = rng.choice(W.output_size, size=trials, p=law_matrix[x])
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
    W, law, source, owner, delta = case
    n = len(source)
    word = st.lists(st.integers(0, W.n_inputs - 1), min_size=n, max_size=n).map(tuple)
    extra = data.draw(st.lists(st.just(owner) | word, max_size=3))
    code = assemble_code(W, list(dict.fromkeys([source] + extra)), delta=delta)
    trials = data.draw(st.sampled_from([1, 511, 512, 513, 1500]) | st.integers(1, 1200))
    seed = data.draw(st.integers(0, 2**32 - 1))
    assert (monte_carlo_errors(code, W, trials, seed, law=law).to_json()
            == per_trial_monte_carlo(code, W, trials, seed, law=law).to_json())


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
#: (prime numerators), so a 22-fold class spectrum keeps all C(25, 3) = 2300
#: cells.  GUARD_WORD against itself has classes (0, 0) and (1, 1): their sums
#: merge to 4.87M cells, just under STATE_GUARD.
GUARD_ROWS = [[0.11, 0.13, 0.17, 0.59], [0.07, 0.19, 0.31, 0.43]]
GUARD_WORD = (0,) * 22 + (1,) * 22
#: a guard far below GUARD_WORD's merged table, for tests of the guard itself
SMALL_GUARD = 20_000


def test_dp_guard_counts_merged_cells():
    """Classes (0, 0) and (1, 0) share owner row 0, so their 2300-cell spectra
    have 5.29M sums but only C(47, 3) = 16,215 merged cells."""
    W = make_channel(["a", "b"], GUARD_ROWS)
    dp = JointTypeDP(W)
    jtype = joint_type(GUARD_WORD, (0,) * 44)
    (lo, hi), = dp.probs([jtype], 1.0).values()
    assert 0.0 < lo <= hi < 1.0 and hi - lo <= 1e-6
    assert dp.states_max == 16_215
    assert typical_set_prob(W, GUARD_WORD, (0,) * 44, delta=1.0) == (lo, hi)


def test_dp_size_guard_fails_before_allocating(monkeypatch):
    """The DP stops after one block of BLOCK_CELLS sums once the merged table
    passes the guard; the whole 4.87M-cell table would take 156 MB."""
    monkeypatch.setattr(evaluator, "STATE_GUARD", SMALL_GUARD)
    W = make_channel(["a", "b"], GUARD_ROWS)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            typical_set_prob(W, GUARD_WORD, GUARD_WORD, delta=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * evaluator.BLOCK_CELLS


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
    words = code.codewords
    types = {joint_type(a, b) for a in words for b in words}
    rep = exact_error_report(code, W)
    assert (rep.dp_types, rep.pairs_exact) == (len(types), 12)
    assert rep.dp_states_max >= 1
    payload = json.loads(rep.to_json())
    assert (payload["dp_types"], payload["pairs_exact"]) == (len(types), 12)
    assert payload["dp_states_max"] == rep.dp_states_max

    screened = exact_error_report(code, W, pair_budget=5)
    assert screened.pair_mode == "screened" and screened.pairs_exact == 5
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
