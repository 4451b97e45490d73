import csv
import dataclasses
import functools
import inspect
import io
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from dicode import bounds
from dicode.bounds import (
    FIG_RECIPE_C,
    FORMULAS,
    BoundPoint,
    cor1_lower,
    cor2_upper,
    covering_radius,
    curves_to_csv,
    ex1_bernoulli,
    ex2_dmc,
    power_capacity,
    sweep,
    thm1_lower,
    thm2_upper,
    thm5_stein,
    thm6_stein,
    trend_lower_point,
    trend_upper_point,
)
from dicode.channel import bernoulli_family, identity_channel, make_channel
from dicode.errors import ValidationError
from dicode.geometry import PointCloud, max_packing
from dicode.infodist import binary_entropy, typicality_constants

BSC = make_channel(["p", "m"], [[0.9, 0.1], [0.1, 0.9]])


def test_covering_radius_reference():
    assert covering_radius(0.02) == pytest.approx(0.0498753, abs=1e-7)


def test_thm1_identity_arithmetic():
    W = identity_channel(2)
    n, E, t = 100, 1e-5, 0.5
    p = thm1_lower(W, n, E, t)
    assert p.extras["packing_count"] == 2
    want = (1 - t) * 1.0 - binary_entropy(t) - math.log2(math.ceil(n)) / n
    assert p.value == pytest.approx(want)
    assert p.count_exact == "exact"


def test_thm1_flat_channel_trivial():
    flat = make_channel(list("ab"), [[0.5, 0.5]] * 2)
    p = thm1_lower(flat, 50, 1e-6, 0.5)
    assert p.extras["packing_count"] == 1
    assert p.value < 0


def test_thm1_trivial_regime_flag():
    W = identity_channel(2)
    _, c = typicality_constants(2)
    e_thresh = 2 * c * 0.25 / 3
    assert "trivial-regime" in thm1_lower(W, 10, e_thresh * 1.01, 0.5).flags
    assert "trivial-regime" not in thm1_lower(W, 10, e_thresh * 0.99, 0.5).flags


def test_thm2_identity():
    W = identity_channel(2)
    p = thm2_upper(W, 10**7, 1e-4)
    assert p.extras["covering_count"] == 2
    assert p.value == 1.0
    flat = make_channel(list("ab"), [[0.5, 0.5]] * 2)
    assert thm2_upper(flat, 10**7, 1e-4).value == 0.0


def test_thm2_precondition_flag():
    W = identity_channel(2)
    assert "precondition-nE-unmet" in thm2_upper(W, 10, 0.01).flags
    assert "precondition-nE-unmet" not in thm2_upper(W, 10**4, 0.01).flags


def test_converse_ordering_on_grid():
    for W in (identity_channel(2), bernoulli_family(2.0, 6)):
        for i in range(20):
            E = 10 ** (-6 + 3 * i / 19)
            lo = thm1_lower(W, 10**7, E, 0.5)
            hi = thm2_upper(W, 10**7, E)
            assert lo.count_exact == "exact" and hi.count_exact == "exact"
            assert lo.value <= hi.value


def test_bound_monotonicity_in_E():
    W = bernoulli_family(2.0, 6)
    es = [10 ** (-6 + 4 * i / 10) for i in range(11)]
    lows = [thm1_lower(W, 10**7, E, 0.5).value for E in es]
    ups = [thm2_upper(W, 10**7, E).value for E in es]
    assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(ups, ups[1:]))


def test_cor_bounds_values_and_monotonicity():
    v1 = cor1_lower(1.0, 0.0, 1e-6, 0.5, 10**6)
    _, c = typicality_constants(2)
    want = (0.5 / 4) * math.log2(c * 0.25 / 6e-6) - 1.0 - math.log2(10**6) / 10**6
    assert v1.value == pytest.approx(want)
    p = cor2_upper(1.0, 0.0, 1e-4)
    assert p.value == pytest.approx(0.5 * math.log2(8e4))
    assert p.extras["e_term"] == pytest.approx(
        math.log2(2 / math.sqrt(1 - math.exp(-5e-5))) - 0.5 * math.log2(8e4))
    # diverges monotonically as E shrinks
    vals = [cor2_upper(1.0, 0.01, 10.0**-k).value for k in range(2, 9)]
    assert vals == sorted(vals)
    vals = [cor1_lower(1.0, 0.01, 10.0**-k, 0.5, 100).value for k in range(2, 9)]
    assert vals == sorted(vals)


def test_improved_bounds_relations():
    def improved(formula_id, d, **grid):
        return sweep(formula_id, [{"d": d, "eta": 0.01, "E": 1e-5, **grid}]).points[0]

    flags = ("dimension-asymptotic", "subset-membership-uncertified")
    # regular set: improved curves coincide with the base ones
    good = improved("improved_good_lower", 1.0, t=0.5, n=100)
    assert good == BoundPoint(cor1_lower(1.0, 0.01, 1e-5, 0.5, 100).value, flags)
    bad = improved("improved_bad_upper", 1.0)
    assert bad == BoundPoint(cor2_upper(1.0, 0.01, 1e-5).value, flags,
                             extras=cor2_upper(1.0, 0.01, 1e-5).extras)
    # monotone in the dimension argument
    assert bad.value < cor2_upper(2.0, 0.01, 1e-5).value
    assert improved("improved_good_lower", 2.0, t=0.5, n=100).flags == flags


def test_ex1_upper_values_and_lower_flag():
    lo, up = ex1_bernoulli(2.0, 1e-12, 10**6)
    assert up.value == pytest.approx(5.421661, abs=1e-5)
    assert math.isnan(lo.value) and "lower-undefined" in lo.flags
    # the lower bound comes alive only at much smaller exponents
    lo2, _ = ex1_bernoulli(2.0, 1e-40, 10**6)
    assert math.isfinite(lo2.value)
    # normalized gap stays in a narrow band across the grid
    gaps = []
    for k in range(4, 13):
        lo_k, up_k = ex1_bernoulli(2.0, 10.0**-k, 10**6)
        low_val = 0.0 if math.isnan(lo_k.value) else max(lo_k.value, 0.0)
        gaps.append(up_k.value - low_val)
    assert max(gaps) - min(gaps) < 6.0
    assert max(gaps) < 6.0


def test_ex1_ordering_when_defined():
    lo, up = ex1_bernoulli(2.0, 1e-40, 10**6)
    assert lo.value <= up.value


def test_ex2_reference_geometry():
    lo, up = ex2_dmc(BSC, 1e-6, 10**4)
    assert lo.extras["beta"] == pytest.approx(
        math.sqrt(2) * (math.sqrt(0.9) - math.sqrt(0.1)) / 2)
    assert up.extras["alpha_inv"] == pytest.approx(0.6)


@pytest.mark.parametrize("W", [
    BSC,
    make_channel(list("abcd"), np.full((4, 4), 0.1) + 0.6 * np.eye(4)),
    bernoulli_family(2.0, 6),
], ids=["bsc", "4-ary-symmetric", "bern6"])
def test_ex2_beta_packs_every_purged_letter(W):
    """beta is half the smallest distance between purged letters, so the
    exact beta-packing of the purged sqrt cloud keeps every letter."""
    beta = ex2_dmc(W, 1e-6, 100)[0].extras["beta"]
    assert max_packing(W.purged.sqrt_cloud, beta, "exact").count == W.purged.n_inputs


def test_ex2_identity_limits():
    W = identity_channel(2)
    lo, up = ex2_dmc(W, 0.0, 100)
    assert lo.value == pytest.approx(1.0 - math.log2(math.ceil(100)) / 100)
    assert up.value == 1.0
    lo6, up6 = ex2_dmc(W, 1e-10, 10**6)
    assert lo6.value == pytest.approx(1.0, abs=0.05)
    assert up6.value == pytest.approx(1.0, abs=0.05)


def test_ex2_gap_shrinkage():
    logq = 1.0
    gap_lo, gap_up = [], []
    for k in range(2, 7):
        lo, up = ex2_dmc(BSC, 10.0**-k, 10**4)
        low_val = 0.0 if not math.isfinite(lo.value) else max(lo.value, 0.0)
        gap_lo.append(logq - low_val)
        gap_up.append(logq - up.value)
    assert all(a >= b - 1e-12 for a, b in zip(gap_lo, gap_lo[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(gap_up, gap_up[1:]))
    assert gap_lo[-1] < gap_lo[0]
    assert gap_up[-1] < gap_up[0]
    assert gap_up[0] > 0


def test_ex2_gap_correction_shapes():
    # bracket gaps stay under the expected correction shapes with frozen
    # fitted constants: sqrt(E) log(1/E) for the lower side, E log(1/E) above
    K1, K2 = 33.0, 1.2
    for k in range(2, 7):
        E = 10.0**-k
        lo, up = ex2_dmc(BSC, E, 10**4)
        low = 0.0 if not math.isfinite(lo.value) else max(lo.value, 0.0)
        assert 1.0 - low <= K1 * math.sqrt(E) * math.log2(1 / E) + 1e-12
        assert 1.0 - up.value <= K2 * E * math.log2(1 / E) + 1e-12


def test_ex2_log_volume_matches_exact_sum():
    """Against the exact integer sum of C(n, i)(q-1)^i, radii below, at and
    past the largest term and past n."""
    for q in (2, 3, 5):
        for n in (1, 2, 7, 40, 257, 1000):
            for radius in sorted({0, 1, n // 4, n // 2, n * (q - 1) // q, n - 1, n, n + 3}):
                exact = math.log2(sum(math.comb(n, i) * (q - 1)**i
                                      for i in range(min(radius, n) + 1)))
                got = bounds._log2_hamming_volume(q, n, radius)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_ex2_long_blocklengths_are_fast():
    """The sphere-packing volume sums O(sqrt(n)) terms in fixed-size chunks:
    BERN6 at E = 1e-3 has radius 3.6e6 at n = 10^7 and 3.6e8 at n = 10^9."""
    W = bernoulli_family(2.0, 6)
    for n in (10**6, 10**7, 10**9):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            lo, up = ex2_dmc(W, 1e-3, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1 << 20
        assert 0.0 < up.value < math.log2(W.n_inputs)
        assert up.extras["d_min"] > n // 2


def test_ex2_single_row():
    flat = make_channel(list("ab"), [[0.5, 0.5]] * 2)
    lo, up = ex2_dmc(flat, 1e-4, 100)
    assert lo.value == up.value == 0.0


def test_power_capacity_cases():
    W3 = make_channel(list("abc"), np.eye(3), cost=[0, 1, 2])
    p = power_capacity(W3, 2.0)
    assert p.value == pytest.approx(math.log2(3))
    assert "constraint-inactive" in p.flags
    W2 = make_channel(list("ab"), np.eye(2), cost=[0, 1])
    assert power_capacity(W2, 0.0).value == 0.0
    tilted = power_capacity(W2, 0.25)
    assert tilted.value == pytest.approx(binary_entropy(0.25), abs=1e-9)
    with pytest.raises(ValidationError):
        power_capacity(W2, -0.5)


def test_power_capacity_grid_oracle():
    # brute grid search over p for the binary-cost case
    W2 = make_channel(list("ab"), np.eye(2), cost=[0, 1])
    best = max(binary_entropy(p) for p in np.linspace(0, 0.25, 2001))
    assert power_capacity(W2, 0.25).value == pytest.approx(best, abs=1e-6)


def test_stein_bounds_reference_arithmetic():
    b = thm5_stein(0.1, 1.0, delta_part=0.2)
    assert b.extras["L"] == 12
    assert b.value == pytest.approx(math.log2(12))
    assert thm5_stein(0.999999, 1.0, delta_part=0.2).value == 0.0
    d = thm5_stein(0.1, 1.0, alpha=2.0, lambda_bounded=0.5)
    assert d.extras["delta_part"] == pytest.approx(2**0.25 - 1)
    assert d.extras["n0"] == pytest.approx(4.0)
    g = thm6_stein(2, 1.0, 1024, delta_trunc=0.5, delta_part=0.2)
    assert g.extras["L"] == 45
    assert g.value == pytest.approx(2 + math.log2(45))
    assert "support-overcount" in g.flags
    assert g.extras["inflation_factor"] == pytest.approx(math.exp(1.0))
    assert g.extras["inflation_additive"] == 0.25


def test_stein_scaling_shapes():
    # preliminary bound does not depend on n at all; truncated bound grows
    # no faster than log of log n
    delta = 0.2
    base = thm5_stein(0.05, 1.0, delta_part=delta)
    for n in (10**3, 10**6, 10**9):
        g = thm6_stein(2, 1.0, n, delta_trunc=0.5, delta_part=delta)
        cap = 2 + math.log2((math.log2(n) + 2) / math.log2(1 + delta))
        assert g.value <= cap + 1e-12
    assert base.value == thm5_stein(0.05, 1.0, delta_part=delta).value


def test_thm6_flags_a_blocklength_below_n0():
    """At E = 1e-3 (alpha 2, lambda 1/2) thm6_stein holds from n0 = 4,000
    on: its sweep row at n = 100 is flagged, its row at n = 10^5 is not."""
    low, high = sweep("thm6_stein", [{"y_size": 2, "E": 1e-3, "n": n}
                                     for n in (100, 10**5)]).points
    assert low.extras["n0"] == high.extras["n0"] == pytest.approx(4000.0)
    assert low.flags == ("support-overcount", "precondition-n0-unmet")
    assert high.flags == ("support-overcount",)


def test_trend_recipe_gates():
    ns = [10**k for k in range(3, 10)]
    lows = [trend_lower_point(n).value / math.log2(n) for n in ns]
    ups = [trend_upper_point(n).value / math.log2(n) for n in ns]
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert all(a > b for a, b in zip(ups, ups[1:]))
    assert abs(ups[-1] - 0.5) < 0.11
    assert abs(lows[-1] - 0.25) < 0.10
    dev_lo = [abs(v - 0.25) for v in lows]
    dev_up = [abs(v - 0.5) for v in ups]
    assert dev_lo == sorted(dev_lo, reverse=True)
    assert dev_up == sorted(dev_up, reverse=True)
    # frozen regression endpoints for the default recipe constant
    assert FIG_RECIPE_C == 12.0
    assert lows[-1] == pytest.approx(0.167541, abs=5e-4)
    assert ups[-1] == pytest.approx(0.568574, abs=5e-4)


def test_sweep_csv_deterministic_and_ordered():
    grid = [{"d": 1.0, "eta": 0.01, "E": 10.0**-k} for k in range(3, 8)]
    c1 = sweep("cor2_upper", grid)
    c2 = sweep("cor2_upper", grid)
    assert curves_to_csv([c1]) == curves_to_csv([c2])
    text = curves_to_csv([c1])
    header, *rows = text.strip().split("\n")
    assert header == ("formula_id,n,E,t,eta,alpha,value_bits,"
                      "normalized_value,validity_flags,count_exactness")
    assert len(rows) == 5
    assert rows[0].startswith("cor2_upper,")
    # rows follow grid order
    assert [float(r.split(",")[2]) for r in rows] == [g["E"] for g in grid]


def test_sweep_csv_names_the_defaults_used():
    """A row computed at a formula's default writes the value it used in
    that parameter's column: alpha 2 for thm5/thm6, t = E^(1/4) for both
    ex1 halves.  A default that is no CSV column leaves the others empty."""
    grid = [{"a": 2.0, "omega": 0.1, "y_size": 2, "E": 1e-3, "n": 100}]
    curves = [sweep(f, grid) for f in ("ex1_bern_lower", "ex1_bern_upper", "thm5_stein",
                                       "thm6_stein", "trend_lower")]
    rows = list(csv.DictReader(io.StringIO(curves_to_csv(curves))))
    t = format(1e-3**0.25, ".17g")
    assert [(r["t"], r["eta"], r["alpha"]) for r in rows] == [
        (t, "", ""), (t, "", ""), ("", "", "2"), ("", "", "2"), ("", "", "")]
    assert curves[3].grid == ({**grid[0], "alpha": 2.0, "delta_trunc": 0.5, "lambda": 0.5,
                               "delta_part": curves[3].points[0].extras["delta_part"]},)


def test_sweep_empty_grid_header_only():
    text = curves_to_csv([sweep("cor2_upper", [])])
    assert text == ("formula_id,n,E,t,eta,alpha,value_bits,"
                    "normalized_value,validity_flags,count_exactness\n")


def test_sweep_unknown_formula():
    with pytest.raises(ValidationError):
        sweep("nope", [{"E": 0.1}])
    with pytest.raises(ValidationError):
        sweep("nope", [])


def test_sweep_reads_y_size_from_channel():
    """With a channel, every formula that reads |Y| takes the channel's, and a
    grid y_size beside it is refused; without one, cor1_lower falls back to 2."""
    W4 = make_channel(list("ab"), [[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7]])
    g = {"d": 1.0, "eta": 0.0, "t": 0.5, "E": 1e-5, "n": 100}
    assert sweep("cor1_lower", [g], W4).points[0].value == \
        cor1_lower(1.0, 0.0, 1e-5, 0.5, 100, y_size=4).value == pytest.approx(-0.4696, abs=1e-4)
    assert sweep("cor1_lower", [g]).points[0].value == pytest.approx(-0.3757, abs=1e-4)
    assert sweep("improved_good_lower", [g], W4).points[0].value == \
        cor1_lower(1.0, 0.0, 1e-5, 0.5, 100, y_size=4).value
    assert sweep("trend_lower", [{"n": 1000}], W4).points[0].value == \
        trend_lower_point(1000, y_size=4).value
    for formula_id in ("cor1_lower", "thm6_stein"):
        with pytest.raises(ValidationError, match="y_size"):
            sweep(formula_id, [dict(g, y_size=4)], W4)


def test_formula_keys_match_parameters():
    """Each table entry names one grid key per parameter of its function."""
    for formula_id, (function, keys, *_) in FORMULAS.items():
        parameters = inspect.signature(getattr(bounds, function)).parameters
        assert len(keys) == len(parameters), formula_id


#: a valid value for every grid key but the channel "W"
GRID_VALUES = {"n": 100, "E": 1e-4, "t": 0.5, "eta": 0.1, "alpha": 2.0, "d": 1.0, "a": 2.0,
               "A": 0.5, "omega": 0.1, "lambda": 0.5, "delta_part": 0.2, "delta_trunc": 0.5,
               "y_size": 2}


@pytest.mark.parametrize("formula_id", FORMULAS)
def test_sweep_defaults_and_required_keys(formula_id):
    """A missing key with a default takes the function's own; a missing key
    without one is refused by name."""
    name, keys, half, *flags = FORMULAS[formula_id]
    function = getattr(bounds, name)
    W = bernoulli_family(2.0, 6) if "W" in keys else None
    parameters = inspect.signature(function).parameters.values()
    required = [key for key, p in zip(keys, parameters) if p.default is p.empty]
    bare = {key: GRID_VALUES[key] for key in required if key != "W"}
    want = function(*(W if key == "W" else bare[key] for key in required))
    want = want if half is None else want[half]
    want = dataclasses.replace(want, flags=want.flags + tuple(flags))
    assert repr(sweep(formula_id, [bare], W).points[0]) == repr(want)
    for key in bare:
        with pytest.raises(ValidationError, match=f"needs grid parameter '{key}'"):
            sweep(formula_id, [{k: v for k, v in bare.items() if k != key}], W)


def test_sweep_looks_the_function_up_at_call_time(monkeypatch):
    """A function put on the module after import is the one a sweep calls.
    A functools.wraps wrapper, such as a tracer's, keeps the defaults of the
    function it wraps; any other replacement brings its own."""
    calls = []
    original = bounds.trend_upper_point

    @functools.wraps(original)
    def traced(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds, "trend_upper_point", traced)
    assert sweep("trend_upper", [{"n": 10}]).points == (original(10),)
    assert calls == [(10, 1.0)]

    def replacement(n, d=0.25):
        calls.append((n, d))
        return BoundPoint(float(n))

    monkeypatch.setattr(bounds, "trend_upper_point", replacement)
    curve = sweep("trend_upper", [{"n": 10}, {"n": 20, "d": 0.5}])
    assert [p.value for p in curve.points] == [10.0, 20.0]
    assert calls == [(10, 1.0), (10, 0.25), (20, 0.5)]


@pytest.mark.parametrize("formula_id", ["thm1_lower", "thm2_upper"])
def test_sweep_builds_distance_matrix_once(formula_id, monkeypatch):
    builds = []
    original = PointCloud.distance_matrix

    def counting(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(PointCloud, "distance_matrix", counting)
    W = bernoulli_family(2.0, 100)
    grid = [{"n": 10**6, "E": 10.0**-k, "t": 0.5} for k in range(3, 9)]
    sweep(formula_id, grid, W)
    sweep(formula_id, grid, W)
    assert len(builds) == 1
    assert builds[0] is W.sqrt_cloud


def test_sweep_channel_formulas():
    W = identity_channel(2)
    grid = [{"n": 1000, "E": 1e-4, "t": 0.5}]
    cur = sweep("thm1_lower", grid, W)
    row = cur.rows()[0]
    assert row["count_exactness"] == "exact"
    assert row["normalized_value"] != ""
    spot = thm1_lower(W, 1000, 1e-4, 0.5)
    assert cur.points[0].value == spot.value


# every refusal of a bound formula: (call, message fragment)
BOUND_REFUSALS = {
    "thm1-E": (lambda: thm1_lower(BSC, 10, 0.0, 0.5), "need E > 0, 0 < t < 1, n >= 1"),
    "thm2-n": (lambda: thm2_upper(BSC, 0, 1e-3), "need E > 0 and n >= 1"),
    "cor1-eta": (lambda: cor1_lower(1.0, -0.1, 1e-3, 0.5, 10), "eta >= 0"),
    "cor2-E": (lambda: cor2_upper(1.0, 0.1, -1e-3), "need E > 0 and eta >= 0"),
    "ex1-a": (lambda: ex1_bernoulli(1.0, 1e-3, 10), "need a > 1, E > 0, n >= 1"),
    "ex1-t": (lambda: ex1_bernoulli(2.0, 1e-3, 10, t=1.0), "t must lie in (0, 1)"),
    "ex2-E": (lambda: ex2_dmc(BSC, -1e-3, 10), "need E >= 0 and n >= 1"),
    # costs 1e-20 apart: no tilt up to 1e18 brings the mean cost down to 1e-21
    "tilt-diverged": (lambda: power_capacity(
        make_channel(["a", "b"], [[0.9, 0.1], [0.1, 0.9]], cost=[0.0, 1e-20]), 1e-21),
        "tilt search diverged"),
    "stein-alpha": (lambda: thm5_stein(0.1, 1e-3, alpha=1.0), "need alpha > 1 and E > 0"),
    "thm5-omega": (lambda: thm5_stein(1.0, 1e-3), "need 0 < omega < 1"),
    "thm6-y-size": (lambda: thm6_stein(1, 1e-3, 10), "need |Y| >= 2 and n >= 1"),
    "thm6-trunc": (lambda: thm6_stein(2, 1e-3, 10, delta_trunc=1.0),
                   "truncation level must lie in (0, 1)"),
    "trend-upper-n": (lambda: trend_upper_point(1), "the trend recipe needs n >= 2"),
}


@pytest.mark.parametrize("call,fragment", BOUND_REFUSALS.values(), ids=BOUND_REFUSALS.keys())
def test_bound_refusals(call, fragment):
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        call()
