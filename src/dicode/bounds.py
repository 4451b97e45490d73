"""Closed-form rate bounds over parameter grids, with validity flags.

Every evaluator returns a BoundPoint carrying the raw value in bits, the
flags that qualify it (trivial regime, unmet precondition, one-sided count),
and the exactness of any packing/covering count it consumed.  Sweeps tabulate
those points into a BoundCurve with a deterministic CSV rendering.

Curve identifiers (the `formula_id` wire tokens):

  thm1_lower / thm2_upper      packing (achievability) and covering (converse)
                               bounds on the rate at exponent target E
  cor1_lower / cor2_upper      their small-E expansions through a dimension
                               value d and slack eta
  improved_good_lower /        the same expansions with the upper (resp.
  improved_bad_upper           lower) dimension, for designated E-subsets
                               whose membership is not certified
  ex1_bern_lower / _upper      closed forms for the geometric Bernoulli ladder
  ex2_dmc_lower / _upper       closed forms for a purged finite channel
  thm5_stein / thm6_stein      one-sided-error partition bounds
  power_capacity               max output-identity entropy under a cost cap
"""

from __future__ import annotations

import csv
import inspect
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelModel
from .errors import ValidationError
from .geometry import max_packing, min_covering
from .infodist import binary_entropy, typicality_constants

LN4 = math.log(4.0)
#: relative width at which power_capacity's bisection for the tilt stops
TILT_TOL = 1e-10

CSV_COLUMNS = ("formula_id", "n", "E", "t", "eta", "alpha",
               "value_bits", "normalized_value", "validity_flags", "count_exactness")


@dataclass(frozen=True)
class BoundPoint:
    value: float
    flags: tuple[str, ...] = ()
    count_exact: str = ""     # exact | lower-bound | upper-bound | ""
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BoundCurve:
    formula_id: str
    grid: tuple[dict, ...]
    points: tuple[BoundPoint, ...]

    def rows(self):
        out = []
        for g, p in zip(self.grid, self.points):
            n = g.get("n")
            norm = ""
            if n and n > 1 and math.isfinite(p.value):
                norm = p.value / math.log2(n)
            out.append({
                "formula_id": self.formula_id,
                **{key: g.get(key, "") for key in CSV_COLUMNS[1:6]},
                "value_bits": p.value,
                "normalized_value": norm,
                "validity_flags": "|".join(p.flags),
                "count_exactness": p.count_exact,
            })
        return out


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_to_csv(header, rows) -> str:
    """Deterministic CSV rendering (17 significant digits, \\n newlines)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def curves_to_csv(curves) -> str:
    return rows_to_csv(CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS]
                                     for curve in curves for row in curve.rows()))


def entropy_bin_count(n: int, y_size: int) -> int:
    """max(1, ceil(n log2 |Y|)): the unit bins [s-1, s] that hold the output
    entropy of every word of length n over |Y| outputs."""
    return max(1, math.ceil(n * math.log2(y_size)))


def _log_penalty(n: int, y_size: int) -> float:
    """The explicit finite-n rate penalty log2(ceil(n log2 |Y|)) / n."""
    return math.log2(entropy_bin_count(n, y_size)) / n


def thm1_rate(count: float, t: float, n: int, y_size: int) -> float:
    """Theorem 1's rate from a letter count: (1-t) log2 count - H(t,1-t)
    - log-penalty."""
    return (1 - t) * math.log2(count) - binary_entropy(t) - _log_penalty(n, y_size)


def packing_radius(E: float, t: float, y_size: int) -> float:
    _, c = typicality_constants(y_size)
    return (6.0 * E / (c * t * t)) ** 0.25


def _root_gap(E: float) -> float:
    """sqrt(1 - e^(-E/2)), the converse's scale at exponent E."""
    return math.sqrt(-math.expm1(-E / 2.0))


def covering_radius(E: float) -> float:
    return 0.5 * _root_gap(E)


def thm1_lower(W: ChannelModel, n: int, E: float, t: float) -> BoundPoint:
    """Achievable rate: (1-t) log2 Pi_beta - H(t,1-t) - log-penalty."""
    if E <= 0 or not 0 < t < 1 or n < 1:
        raise ValidationError("need E > 0, 0 < t < 1, n >= 1")
    beta = packing_radius(E, t, W.output_size)
    flags = []
    if beta >= math.sqrt(2.0):
        flags.append("trivial-regime")
    pack = max_packing(W.sqrt_cloud, beta, mode="auto")
    return BoundPoint(thm1_rate(pack.count, t, n, W.output_size), tuple(flags),
                      "exact" if pack.exact else "lower-bound",
                      {"packing_count": pack.count, "beta": beta})


def thm2_upper(W: ChannelModel, n: int, E: float) -> BoundPoint:
    """Converse rate: log2 of the covering count at radius (1/2)sqrt(1-e^-E/2)."""
    if E <= 0 or n < 1:
        raise ValidationError("need E > 0 and n >= 1")
    flags = []
    if n * E / 2.0 < LN4:
        flags.append("precondition-nE-unmet")
    r = covering_radius(E)
    cover = min_covering(W.sqrt_cloud, r, mode="auto")
    return BoundPoint(math.log2(cover.count), tuple(flags),
                      "exact" if cover.exact else "upper-bound",
                      {"covering_count": cover.count, "radius": r})


def cor1_lower(d_lower: float, eta: float, E: float, t: float, n: int,
               y_size: int = 2) -> BoundPoint:
    """Dimension form of the achievability bound.

    ((1-t)/4)(d - eta) log2(c t^2 / 6E) - H(t,1-t) - log-penalty.  The
    dimension value is a user input; finite clouds cannot certify it, so the
    point is always flagged as an asymptotic indicator.
    """
    if E <= 0 or not 0 < t < 1 or n < 1 or eta < 0:
        raise ValidationError("need E > 0, 0 < t < 1, n >= 1, eta >= 0")
    _, c = typicality_constants(y_size)
    value = ((1 - t) / 4.0 * (d_lower - eta) * math.log2(c * t * t / (6.0 * E))
             - binary_entropy(t) - _log_penalty(n, y_size))
    return BoundPoint(value, ("dimension-asymptotic",))


def cor2_upper(d_upper: float, eta: float, E: float) -> BoundPoint:
    """Dimension form of the converse bound: (1/2)(d + eta) log2(8/E).

    The exact remainder per dimension unit,
        e_term = log2(2 / sqrt(1 - e^-E/2)) - (1/2) log2(8/E),
    is reported separately in extras; value + (d+eta) * e_term reproduces the
    unexpanded covering form.
    """
    if E <= 0 or eta < 0:
        raise ValidationError("need E > 0 and eta >= 0")
    half_log = 0.5 * math.log2(8.0 / E)
    exact = math.log2(2.0 / _root_gap(E))
    value = (d_upper + eta) * half_log
    return BoundPoint(value, ("dimension-asymptotic",),
                      extras={"e_term": exact - half_log,
                              "exact_form": (d_upper + eta) * exact})


def ex1_bernoulli(a: float, E: float, n: int, t: float | None = None):
    """Rate bracket for the geometric input ladder on the binary channel.

    lower = (1-t) log2 log_a( t sqrt(c) (sqrt(a)-1)^2 / (36 sqrt(6E)) )
            - H(t,1-t) - log2(ceil(n))/n          (default t = E^(1/4))
    upper = log2 log_sqrt(a)( a / sqrt(1 - e^-E/2) )

    Both are also reported normalized by log2 log2 (1/E), and both extras
    hold the t used.  When the inner logarithm of the lower bound is
    nonpositive the lower value is NaN and flagged 'lower-undefined' (the
    bound is vacuous there).
    """
    if a <= 1 or E <= 0 or n < 1:
        raise ValidationError("need a > 1, E > 0, n >= 1")
    if t is None:
        t = E**0.25
    if not 0 < t < 1:
        raise ValidationError("t must lie in (0, 1)")
    _, c = typicality_constants(2)
    flags = []

    inner = t * math.sqrt(c) * (math.sqrt(a) - 1) ** 2 / (36.0 * math.sqrt(6.0 * E))
    log_inner = math.log2(inner) / math.log2(a) if inner > 0 else -math.inf
    if log_inner <= 0:
        lower = math.nan
        flags.append("lower-undefined")
    else:
        lower = thm1_rate(log_inner, t, n, 2)

    up_inner = a / _root_gap(E)
    upper = math.log2(math.log2(up_inner) / math.log2(math.sqrt(a)))

    loglog = math.log2(math.log2(1.0 / E))
    return BoundPoint(lower, tuple(flags),
                      extras={"normalized": lower - loglog, "t": t}), \
        BoundPoint(upper, (), extras={"normalized": upper - loglog, "t": t})


def _log2_hamming_volume(q: int, n: int, radius: int) -> float:
    """log2 of the number of q-ary words of length n within Hamming distance
    `radius`.  The terms T_i = C(n, i)(q-1)^i are log-concave: from the
    largest, T_m with m <= radius (lgamma), both sides are summed from the
    term ratios, 4096 at a time, until a term drops below 2^-64 T_m."""
    r = min(max(0, radius), n)
    total, m = 1.0, min(r, (n + 1) * (q - 1) // q)  # m: the terms' mode, or the radius
    # T_{i-1} / T_i = i / ((n - i + 1)(q - 1)) below m, T_{i+1} / T_i above
    for steps, ratio in ((m, lambda j: (m - j) / ((n - m + j + 1) * (q - 1.0))),
                         (r - m, lambda j: (n - m - j) * (q - 1.0) / (m + j + 1))):
        last = 0.0
        for start in range(0, steps, 4096):
            logs = last + np.cumsum(np.log(ratio(np.arange(start, min(start + 4096, steps)))))
            total, last = total + float(np.exp(logs).sum()), float(logs[-1])
            if last < -64 * math.log(2):
                break
    top = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1) + m * math.log(q - 1)
    return (top + math.log(total)) / math.log(2)


def ex2_dmc(W: ChannelModel, E: float, n: int):
    """Rate bracket for a purged finite channel at exponent target E.

    lower: t = sqrt(6E / (c beta^4)), 2 beta the least W.purged.sqrt_cloud
    distance; rate = (1-t) log2 |rows| - H(t,1-t) - log-penalty.
    Flagged 'lower-undefined' when t >= 1 (vacuous).
    upper: minimum distance d = ceil(n E log_alpha e - log_alpha 4) with
    1/alpha the maximum pairwise fidelity, fed into the sphere-packing bound
    (log-volumes in floats): rate = log2 q - log2 V_q(n, floor((d-1)/2)) / n.
    """
    if E < 0 or n < 1:
        raise ValidationError("need E >= 0 and n >= 1")
    purged = W.purged
    q = purged.n_inputs
    if q == 1:
        zero = BoundPoint(0.0, ("single-output-row",))
        return zero, zero

    off = ~np.eye(q, dtype=bool)
    beta = purged.sqrt_cloud.distances.min_distance() / 2.0
    fmax = float(purged.fidelities[off].max())
    _, c = typicality_constants(purged.output_size)

    flags_lo = []
    t = math.sqrt(6.0 * E / (c * beta**4))
    if t >= 1:
        lower = math.nan
        flags_lo.append("lower-undefined")
    else:
        lower = thm1_rate(q, t, n, purged.output_size)

    if fmax == 0.0:
        d_min = 0  # disjoint rows: no distance requirement survives
    else:
        alpha = 1.0 / fmax
        d_min = math.ceil(n * E * math.log(math.e, alpha) - math.log(4.0, alpha))
    radius = max(0, (max(0, d_min) - 1) // 2)
    upper = math.log2(q) - _log2_hamming_volume(q, n, radius) / n
    return (BoundPoint(lower, tuple(flags_lo), extras={"t": t, "beta": beta}),
            BoundPoint(upper, (), extras={"d_min": d_min, "alpha_inv": fmax}))


def power_capacity(W: ChannelModel, A: float) -> BoundPoint:
    """max H(p) over input distributions with expected cost <= A, in bits.

    Inputs with duplicate rows are merged first (`W.purged`).  If the uniform
    distribution is feasible the cap is inactive and the value is log2 |X|;
    otherwise the maximizer is the exponential tilt p_x ~ exp(-mu phi(x)) with
    mu >= 0 chosen by bisection so the cost constraint is tight.
    """
    purged = W.purged
    phi = purged.cost_vector()
    if A < phi.min():
        raise ValidationError(f"cost cap {A} below cheapest input {phi.min()}")
    k = purged.n_inputs
    if phi.mean() <= A:
        return BoundPoint(math.log2(k), ("constraint-inactive",))
    if A == phi.min():
        support = int((phi == phi.min()).sum())
        return BoundPoint(math.log2(support), ("constraint-tight-minimum",))

    def mean_cost(mu: float) -> float:
        w = np.exp(-mu * (phi - phi.min()))
        return float((w * phi).sum() / w.sum())

    lo, hi = 0.0, 1.0
    while mean_cost(hi) > A:
        hi *= 2.0
        if hi > 1e18:
            raise ValidationError("tilt search diverged")
    while hi - lo > TILT_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mean_cost(mid) > A:
            lo = mid
        else:
            hi = mid
    w = np.exp(-hi * (phi - phi.min()))
    p = w / w.sum()
    value = float(-(p * np.log2(p)).sum())
    return BoundPoint(value, (), extras={"mu": hi, "distribution": p.tolist()})


def _stein(log_span: float, E: float, alpha: float, lambda_bounded: float,
           delta_part: float | None, rate_base: float, flags=(),
           extras=None) -> BoundPoint:
    """Partition bound over a probability range of log_span bits: L ratio
    shells of slack delta_part, rate rate_base + log2 L, valid from n0 on."""
    if alpha <= 1 or E <= 0:
        raise ValidationError("need alpha > 1 and E > 0")
    if not 0 <= lambda_bounded < 1:
        raise ValidationError("bounded error must lie in [0, 1)")
    if delta_part is None:
        delta_part = 2.0 ** (E * (alpha - 1) / (2.0 * alpha)) - 1.0
    if delta_part <= 0:
        raise ValidationError("partition slack must be positive")
    L = math.floor(log_span / math.log2(1.0 + delta_part))
    n0 = (-2.0 * alpha * math.log2(1.0 - lambda_bounded)
          / (E * (alpha - 1.0)))
    return BoundPoint(rate_base + (math.log2(L) if L >= 1 else 0.0), flags,
                      extras={"L": L, "n0": n0, "delta_part": delta_part,
                              **(extras or {})})


def thm5_stein(omega: float, E: float, alpha: float = 2.0,
               lambda_bounded: float = 0.5,
               delta_part: float | None = None) -> BoundPoint:
    """Partition rate bound for channels with all probabilities >= omega.

    delta_part defaults to 2^(E(alpha-1)/(2 alpha)) - 1, the largest ratio
    slack whose per-letter divergence cost stays within E/2.  The number of
    ratio shells is L = floor(-log2 omega / log2(1+delta)); the rate bound is
    log2 L, valid from blocklength n0 on.  extras: L, n0 and delta_part.
    """
    if not 0 < omega < 1:
        raise ValidationError("need 0 < omega < 1")
    return _stein(-math.log2(omega), E, alpha, lambda_bounded, delta_part, 0.0)


def thm6_stein(y_size: int, E: float, n: int, alpha: float = 2.0,
               delta_trunc: float = 0.5, lambda_bounded: float = 0.5,
               delta_part: float | None = None) -> BoundPoint:
    """Partition rate bound for unrestricted channels via truncation.

    Truncation at delta_trunc/(n |Y|) makes the smallest surviving probability
    n-dependent, so L = floor((log2 n - log2(delta_trunc/|Y|)) / log2(1+delta))
    and the rate bound is |Y| + log2 L, the additive |Y| being the (flagged)
    support-enumeration overcount.  Besides L, n0 and delta_part, extras hold
    the truncated floor omega_n and the error inflation envelopes for the
    truncated channel: multiplicative e^(2 delta_trunc) and additive
    delta_trunc / 2.  A point with n < n0 is flagged precondition-n0-unmet.
    """
    if y_size < 2 or n < 1:
        raise ValidationError("need |Y| >= 2 and n >= 1")
    if not 0 < delta_trunc < 1:
        raise ValidationError("truncation level must lie in (0, 1)")
    point = _stein(math.log2(n) - math.log2(delta_trunc / y_size), E, alpha,
                   lambda_bounded, delta_part, y_size, ("support-overcount",),
                   {"omega_n": delta_trunc / (n * y_size),
                    "inflation_factor": math.exp(2.0 * delta_trunc),
                    "inflation_additive": delta_trunc / 2.0})
    if n < point.extras["n0"]:
        point = replace(point, flags=point.flags + ("precondition-n0-unmet",))
    return point


# ---------------------------------------------------------------------------
# capacity-trend recipe (d = 1): per-n parameter schedules for the two
# dimension-form bounds, normalized by log2 n.

FIG_RECIPE_C = 12.0   # reference constant in t(n)^2 = 3 / (c log2 n)


def trend_lower_point(n: int, d: float = 1.0, y_size: int = 2) -> BoundPoint:
    """Dimension-form achievability at E = 1/n, eta = 1/n,
    t = sqrt(3 / (FIG_RECIPE_C log2 n))."""
    if n < 2:
        raise ValidationError("the trend recipe needs n >= 2")
    t = math.sqrt(3.0 / (FIG_RECIPE_C * math.log2(n)))   # in (0, 1/2] for n >= 2
    # log2(c t^2 / 6E) under this schedule collapses to log2(n / (2 log2 n)),
    # independent of the constant itself
    value = ((1 - t) / 4.0 * (d - 1.0 / n) * math.log2(n / (2.0 * math.log2(n)))
             - binary_entropy(t) - _log_penalty(n, y_size))
    return BoundPoint(value, ("dimension-asymptotic", "trend-recipe"),
                      extras={"E": 1.0 / n, "t": t, "eta": 1.0 / n})


def trend_upper_point(n: int, d: float = 1.0) -> BoundPoint:
    """Unexpanded dimension-form converse at E = 1/n, eta = 1/log2 n."""
    if n < 2:
        raise ValidationError("the trend recipe needs n >= 2")
    eta = 1.0 / math.log2(n)
    E = 1.0 / n
    value = (d + eta) * math.log2(2.0 / _root_gap(E))
    return BoundPoint(value, ("dimension-asymptotic", "trend-recipe"),
                      extras={"E": E, "eta": eta})


# ---------------------------------------------------------------------------
# sweep machinery

#: formula_id -> (function, keys, half, *flags): the name of a module-level
#: function, looked up per sweep; the grid key of each of its parameters, in
#: order; for a (lower, upper) bracket, the half reported; and any flags added
#: to every point.  Key "W" is the channel; with one, "y_size" is its |Y|.
FORMULAS = {
    "thm1_lower": ("thm1_lower", ("W", "n", "E", "t"), None),
    "thm2_upper": ("thm2_upper", ("W", "n", "E"), None),
    "cor1_lower": ("cor1_lower", ("d", "eta", "E", "t", "n", "y_size"), None),
    "cor2_upper": ("cor2_upper", ("d", "eta", "E"), None),
    "improved_good_lower": ("cor1_lower", ("d", "eta", "E", "t", "n", "y_size"), None,
                            "subset-membership-uncertified"),
    "improved_bad_upper": ("cor2_upper", ("d", "eta", "E"), None,
                           "subset-membership-uncertified"),
    "ex1_bern_lower": ("ex1_bernoulli", ("a", "E", "n", "t"), 0),
    "ex1_bern_upper": ("ex1_bernoulli", ("a", "E", "n", "t"), 1),
    "ex2_dmc_lower": ("ex2_dmc", ("W", "E", "n"), 0),
    "ex2_dmc_upper": ("ex2_dmc", ("W", "E", "n"), 1),
    "thm5_stein": ("thm5_stein", ("omega", "E", "alpha", "lambda", "delta_part"), None),
    "thm6_stein": ("thm6_stein", ("y_size", "E", "n", "alpha", "delta_trunc", "lambda",
                                  "delta_part"), None),
    "power_capacity": ("power_capacity", ("W", "A"), None),
    "trend_lower": ("trend_lower_point", ("n", "d", "y_size"), None),
    "trend_upper": ("trend_upper_point", ("n", "d"), None),
}


def sweep(formula_id: str, grid, W: ChannelModel | None = None) -> BoundCurve:
    """Evaluate one formula over an explicit list of grid-point dicts, in order.

    The formula's function is looked up by name at call time, and a grid key
    it lacks takes that function's default.  The curve's grid records every
    parameter each call used but the channel: a default, the channel's
    y_size, and for a default of None the value the point's extras report
    under the key's name.  A channel formula without W, a grid point lacking
    a parameter with no default, or a grid point with y_size alongside W
    raises ValidationError.
    """
    if formula_id not in FORMULAS:
        raise ValidationError(f"unknown formula id {formula_id!r}")
    function, keys, half, *flags = FORMULAS[formula_id]
    if W is None and "W" in keys:
        raise ValidationError(f"formula {formula_id!r} needs a channel")
    grid = tuple(dict(g) for g in grid)
    if W is not None and any("y_size" in g for g in grid):
        raise ValidationError("a channel fixes |Y|: give y_size only without one")
    evaluate = globals()[function]
    defaults = inspect.unwrap(evaluate).__defaults__ or ()
    required = len(keys) - len(defaults)
    fixed = {} if W is None else {"W": W, "y_size": W.output_size}
    for key in keys[:required]:
        if key not in fixed and any(key not in g for g in grid):
            raise ValidationError(f"formula {formula_id!r} needs grid parameter {key!r}")
    optional = dict(zip(keys[required:], defaults))
    calls = [{**optional, **g, **fixed} for g in grid]
    points = tuple(evaluate(*map(call.__getitem__, keys)) for call in calls)
    if half is not None:
        points = tuple(p[half] for p in points)
    if flags:
        points = tuple(replace(p, flags=p.flags + tuple(flags)) for p in points)
    used = tuple({**g, **{key: p.extras[key] if call[key] is None else call[key]
                          for key in keys if key != "W" and key not in g}}
                 for g, call, p in zip(grid, calls, points))
    return BoundCurve(formula_id, used, points)
