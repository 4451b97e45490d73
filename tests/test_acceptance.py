"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from dicode.bounds import (
    ex1_bernoulli,
    ex2_dmc,
    thm1_lower,
    thm2_upper,
    thm5_stein,
    trend_lower_point,
    trend_upper_point,
)
from dicode.channel import (
    bernoulli_family,
    identity_channel,
    make_channel,
    truncate_channel,
)
from dicode.cli import main as cli_main
from dicode.codebook import assemble_code, construct
from dicode.evaluator import (
    brute_force_typical_prob,
    exact_error_report,
    measure_lambda1,
    measure_lambda2,
    typical_set_prob,
)
from dicode.geometry import PointCloud, estimate_dimension, max_packing, min_covering
from dicode.infodist import hypothesis_testing_divergence, product_distribution

BERN6 = bernoulli_family(2.0, 6)
IDENT2 = identity_channel(2)
BSC = make_channel(["p", "m"], [[0.9, 0.1], [0.1, 0.9]])


def _report(name, elapsed, limit):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_construction_end_to_end():
    """Constructed codes meet the rate floor and both error ceilings."""
    start = time.monotonic()
    cases = [(W, n, 1e-5, 0.5) for W in (BERN6, IDENT2) for n in (6, 8, 10, 12)]
    # a finer radius brings probabilistic letters into the alphabet
    cases += [(BERN6, 6, 4.5e-7, 0.5), (BERN6, 8, 4.5e-7, 0.5)]
    for W, n, E, t in cases:
        code = construct(W, n, E, t)
        p = code.params
        assert not p.remark_trivial and p.guarantee_valid
        # (i) achieved rate meets the explicit finite-n floor
        assert code.rate >= code.rate_floor - 1e-12
        # (ii) certified upper endpoints within the construction ceilings
        rep = exact_error_report(code, W)
        assert rep.lambda1[1] <= p.lambda1_ceiling + 1e-12
        assert rep.lambda2[1] <= p.lambda2_ceiling + 1e-12
        # (iii) measured exponents meet the floors
        assert rep.e1_measured >= p.e1_floor - 1e-12
        assert rep.e2_measured >= p.e2_floor - 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report("1 construction end-to-end", elapsed, 120)


def test_criterion_2_converse_consistency():
    """Packing lower bound never exceeds covering upper bound (exact counts)."""
    start = time.monotonic()
    grid = [10 ** (-6 + 3 * i / 19) for i in range(20)]
    for W in (BERN6, IDENT2):
        for E in grid:
            lo = thm1_lower(W, 10**7, E, 0.5)
            hi = thm2_upper(W, 10**7, E)
            assert lo.count_exact == "exact" and hi.count_exact == "exact"
            assert "precondition-nE-unmet" not in hi.flags
            assert lo.value <= hi.value   # exact arithmetic, no tolerance
    elapsed = time.monotonic() - start
    _report("2 converse consistency", elapsed, 120)


def test_criterion_3_exact_dp_against_enumeration():
    """Certified DP intervals contain the enumerated value, width <= 1e-6."""
    start = time.monotonic()
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        n_in = int(rng.integers(2, 5))
        m = rng.random((n_in, 2)) ** 2 + 1e-6
        m /= m.sum(axis=1, keepdims=True)
        W = make_channel([str(i) for i in range(n_in)], m)
        source = tuple(int(v) for v in rng.integers(0, n_in, n))
        owner = tuple(int(v) for v in rng.integers(0, n_in, n))
        delta = float(rng.uniform(0.2, 1.5))
        lo, hi = typical_set_prob(W, source, owner, delta)
        bf = brute_force_typical_prob(W, source, owner, delta)
        assert lo - 1e-12 <= bf <= hi + 1e-12
        assert hi - lo <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report("3 exact-dp vs enumeration", elapsed, 60)


def test_criterion_4_bernoulli_ladder_reproduction():
    """Exact covering anchor plus the frozen normalized-gap band."""
    start = time.monotonic()
    ladder = bernoulli_family(2.0, 12)
    cloud = PointCloud(ladder.matrix.copy(), "total-variation")
    cover = min_covering(cloud, 1 / 16, mode="exact")
    assert cover.count == 4
    assert math.log2(16 / 3) <= cover.count <= math.log2(32)

    gaps = []
    for k in range(4, 13):
        lo, up = ex1_bernoulli(2.0, 10.0**-k, 10**6)
        # a NaN lower value is the flagged vacuous case; the best available
        # lower bound on a rate is then the trivial 0
        low = 0.0 if math.isnan(lo.value) else max(lo.value, 0.0)
        gaps.append(up.value - low)
    # frozen regression band (measured once: [4.026, 5.422])
    assert max(gaps) - min(gaps) < 6.0
    assert all(3.9 <= g <= 5.6 for g in gaps)
    elapsed = time.monotonic() - start
    _report("4 ladder-channel reproduction", elapsed, 120)


def test_criterion_5_dmc_gaps_and_capacity_trend():
    """Finite-channel bracket tightens with E; trend sweep hits its targets."""
    start = time.monotonic()
    # (a) both bracket gaps shrink toward log2 |rows| as E drops
    logq = 1.0
    gap_lo, gap_up = [], []
    for k in range(2, 7):
        lo, up = ex2_dmc(BSC, 10.0**-k, 10**4)
        low = 0.0 if not math.isfinite(lo.value) else max(lo.value, 0.0)
        gap_lo.append(logq - low)
        gap_up.append(logq - up.value)
    assert all(a >= b - 1e-12 for a, b in zip(gap_lo, gap_lo[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(gap_up, gap_up[1:]))
    assert gap_lo[-1] < gap_lo[0] and gap_up[-1] < gap_up[0]
    assert min(gap_lo) >= 0 and min(gap_up) >= 0

    # (b) capacity-trend recipe over n = 1e3 .. 1e9 (d = 1)
    ns = [10**k for k in range(3, 10)]
    lows = [trend_lower_point(n).value / math.log2(n) for n in ns]
    ups = [trend_upper_point(n).value / math.log2(n) for n in ns]
    assert all(a > b for a, b in zip(ups, ups[1:]))       # strictly decreasing
    assert abs(ups[-1] - 0.5) < 0.11
    assert abs(lows[-1] - 0.25) < 0.10
    dev_lo = [abs(v - 0.25) for v in lows]
    dev_up = [abs(v - 0.5) for v in ups]
    assert dev_lo == sorted(dev_lo, reverse=True)
    assert dev_up == sorted(dev_up, reverse=True)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report("5 finite-channel gaps + trend", elapsed, 10)


def test_criterion_6_geometry_invariants():
    """Packing/covering relations on random clouds; interval slope is 1."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 5))
        cloud = PointCloud(rng.random((m, dim)))
        delta = float(rng.uniform(0.05, 0.6))
        exact_p = max_packing(cloud, delta, "exact")
        exact_c2 = min_covering(cloud, 2 * delta, "exact")
        assert exact_c2.count <= exact_p.count
        assert max_packing(cloud, delta, "greedy").count <= exact_p.count
        assert min_covering(cloud, delta, "greedy").count >= \
            min_covering(cloud, delta, "exact").count

    interval = PointCloud(np.linspace(0, 1, 1001).reshape(-1, 1))
    est = estimate_dimension(interval, [2.0**-k for k in range(2, 9)])
    assert abs(est.slope - 1.0) <= 0.1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report("6 geometry invariants", elapsed, 60)


def test_criterion_7_asymmetric_error_regime():
    """Partition-bound arithmetic, testing necessary condition, truncation."""
    start = time.monotonic()
    # (a) hand oracle for the partition bound
    b = thm5_stein(0.1, 1.0, delta_part=0.2)
    assert b.extras["L"] == 12
    assert b.value == pytest.approx(math.log2(12))

    # (b) D_h^{lambda1}(P_j || P_k) >= -log2 lambda2 for every ordered pair of
    # every evaluated code (exact product-alphabet optimal tests, n <= 10)
    W_skew = make_channel(["a", "b"], [[0.85, 0.15], [0.3, 0.7]])
    W_tri = make_channel(["a", "b", "c"], [[0.6, 0.4], [0.25, 0.75], [0.9, 0.1]])
    evaluated = [
        (W_skew, assemble_code(W_skew, [(0, 0, 1, 0, 1, 0), (1, 1, 0, 1, 0, 1),
                                        (0, 1, 1, 0, 0, 1)], delta=0.8)),
        (W_tri, assemble_code(W_tri, [(0, 1, 2, 0, 1), (2, 0, 1, 2, 0),
                                      (1, 2, 0, 1, 2)], delta=1.0)),
        (BERN6, construct(BERN6, 8, 1e-5, 0.5)),
        (IDENT2, construct(IDENT2, 6, 1e-5, 1 / 3)),
    ]
    for W, code in evaluated:
        assert code.blocklength <= 10 and W.output_size == 2
        lam1 = measure_lambda1(code, W)[1]
        lam2 = measure_lambda2(code, W)[0][1]
        assert lam1 < 1
        rhs = math.inf if lam2 <= 0 else -math.log2(lam2)
        for j, k in itertools.permutations(range(code.size), 2):
            P = product_distribution(W, code.codewords[j])
            Q = product_distribution(W, code.codewords[k])
            assert hypothesis_testing_divergence(P, Q, lam1) >= rhs - 1e-9

    # (c) truncated-channel error inflation within both envelopes
    W = make_channel(["a", "b"], [[0.9, 0.095, 0.005], [0.25, 0.74, 0.01]])
    delta_trunc = 0.5
    V = truncate_channel(W, delta_trunc, 6)
    code = assemble_code(W, [(0, 0, 1, 0, 1, 0), (1, 1, 0, 1, 0, 1)], delta=0.9)
    factor = math.exp(2 * delta_trunc)
    for j, word in enumerate(code.codewords):
        base_lo, base_hi = typical_set_prob(W, word, word, code.delta)
        v_lo, v_hi = typical_set_prob(W, word, word, code.delta, law=V)
        assert 1 - v_hi <= factor * (1 - base_lo) + 1e-9
        assert 1 - v_hi <= (1 - base_lo) + delta_trunc / 2 + 1e-9
        for k, owner in enumerate(code.codewords):
            if k == j:
                continue
            b_lo, b_hi = typical_set_prob(W, word, owner, code.delta)
            t_lo, t_hi = typical_set_prob(W, word, owner, code.delta, law=V)
            assert t_lo <= factor * b_hi + 1e-9
            assert t_lo <= b_hi + delta_trunc / 2 + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report("7 asymmetric error regime", elapsed, 120)


def test_criterion_8_cli_determinism(tmp_path):
    """Reruns with equal manifests are byte-identical and jobs-independent."""
    start = time.monotonic()
    chan = tmp_path / "bern.json"
    chan.write_text(json.dumps({"family": "bernoulli", "a": 2.0, "k_max": 6}))

    def outputs(out_dir):
        return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
                if f.name != "manifest.json"}

    runs = []
    for i, jobs in enumerate(("1", "4")):
        base = tmp_path / f"r{i}"
        assert cli_main(["construct", "--channel", str(chan), "--n", "8",
                         "--E", "1e-5", "--t", "0.5",
                         "--out", str(base / "code")]) == 0
        assert cli_main(["evaluate", "--channel", str(chan),
                         "--code", str(base / "code" / "code.json"),
                         "--method", "mc", "--trials", "500", "--seed", "3",
                         "--out", str(base / "mc")]) == 0
        assert cli_main(["bounds", "--channel", str(chan),
                         "--formula", "thm1_lower", "thm2_upper",
                         "--E-axis", "1e-6:1e-3:10:log", "--n-axis", "1e7:1e7:1",
                         "--t", "0.5", "--jobs", jobs, "--svg",
                         "--out", str(base / "bounds")]) == 0
        assert cli_main(["geometry", "--channel", str(chan), "--task", "covering",
                         "--embedding", "raw",
                         "--radii", "0.5,0.25,0.0625",
                         "--out", str(base / "geom")]) == 0
        runs.append({sub: outputs(base / sub)
                     for sub in ("code", "mc", "bounds", "geom")})
    assert runs[0] == runs[1]

    # manifests agree on everything except the timestamp
    m0 = json.loads((tmp_path / "r0" / "bounds" / "manifest.json").read_text())
    m1 = json.loads((tmp_path / "r1" / "bounds" / "manifest.json").read_text())
    m0.pop("timestamp_unix"), m1.pop("timestamp_unix")
    assert m0 == m1
    elapsed = time.monotonic() - start
    _report("8 deterministic reruns", elapsed, 120)
