"""Exact and Monte Carlo measurement of identification error probabilities.

The decision set of a codeword x'^n is its entropy-typical set: outputs y^n
with |log2 W_{x'^n}(y^n) + H(W_{x'^n})| <= delta sqrt(n).  The membership
statistic is a sum of per-letter log-probabilities, so its distribution under
any product law is a convolution of per-letter spectra.  The DP below merges
atoms on an integer grid of width `qstep` bits but keeps, per grid state, the
exact min/max of the true sums that were merged, which yields certified
[lo, hi] enclosures for every acceptance probability:

  lo counts states whose whole true-value range lies inside the band,
  hi additionally counts states whose range touches it.

Zero probabilities in the decoder word (log = -inf) are tracked symbolically:
their mass always lies outside the typical set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .codebook import DICode, word_output_entropy
from .errors import SizeGuardError, ValidationError
from .infodist import false_accept_bound

DEFAULT_QSTEP = 2.0**-20
#: absolute safety cushion (bits) absorbing float roundoff at the band edges
EDGE_FUZZ = 1e-9
#: refuse DPs whose state table grows beyond this
STATE_GUARD = 5_000_000

DEFAULT_PAIR_BUDGET = 10**6
#: Monte Carlo trials scored per block; an N x block statistic stays in cache
MC_BLOCK = 512


@dataclass(frozen=True)
class LogProbSpectrum:
    """Per-letter spectrum: atoms (log2-prob value, mass) + mass at -inf."""

    atoms: tuple[tuple[float, float], ...]
    dead_mass: float
    quantization_step: float


@dataclass(frozen=True)
class ErrorReport:
    lambda1: tuple[float, float]
    lambda2: tuple[float, float]
    e1_measured: float
    e2_measured: float
    method: str                      # exact-dp | monte-carlo | pair-bound
    trials: int | None = None
    seed: int | None = None
    pair_mode: str = "exhaustive"    # exhaustive | screened | pair-bound
    analytic_ceiling: float | None = None

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "lambda1": {"lo": self.lambda1[0], "hi": self.lambda1[1]},
            "lambda2": {"lo": self.lambda2[0], "hi": self.lambda2[1]},
            "E1_measured": self.e1_measured,
            "E2_measured": self.e2_measured,
            "trials": self.trials,
            "seed": self.seed,
            "pair_mode": self.pair_mode,
            "analytic_ceiling": self.analytic_ceiling,
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def letter_spectrum(law_row, decode_row, qstep: float = DEFAULT_QSTEP) -> LogProbSpectrum:
    """Distribution of log2 decode_row(Y) with Y drawn from law_row."""
    atoms = []
    dead = 0.0
    for m, q in zip(law_row, decode_row):
        if m == 0.0:
            continue
        if q == 0.0:
            dead += float(m)
        else:
            atoms.append((math.log2(q), float(m)))
    return LogProbSpectrum(tuple(atoms), dead, qstep)


def _convolve_spectra(spectra) -> tuple[dict, float]:
    """DP over quantized sums; each state keeps (mass, true-min, true-max)."""
    dp: dict[int, tuple[float, float, float]] = {0: (1.0, 0.0, 0.0)}
    dead = 0.0
    for spec in spectra:
        step = spec.quantization_step
        keys = [round(v / step) for v, _ in spec.atoms]
        new: dict[int, tuple[float, float, float]] = {}
        for k, (mass, lo, hi) in dp.items():
            dead += mass * spec.dead_mass
            for (v, mv), kv in zip(spec.atoms, keys):
                kk = k + kv
                entry = new.get(kk)
                if entry is None:
                    new[kk] = (mass * mv, lo + v, hi + v)
                else:
                    new[kk] = (entry[0] + mass * mv,
                               min(entry[1], lo + v),
                               max(entry[2], hi + v))
        if len(new) > STATE_GUARD:
            raise SizeGuardError("statistic DP state table exceeded guard")
        dp = new
    return dp, dead


def typical_set_prob(W: ChannelModel, source_word, owner_word, delta: float,
                     qstep: float = DEFAULT_QSTEP,
                     law: ChannelModel | None = None) -> tuple[float, float]:
    """Certified enclosure of P[Y^n in typical set of owner_word].

    Y^n is drawn from the product law of source_word (under `law` if given,
    else under W); the typical set itself is always defined through W, whose
    entropies and log-probabilities are the decoder's reference.
    """
    if len(source_word) != len(owner_word):
        raise ValidationError("source and owner words must have equal length")
    law_matrix = (law or W).matrix
    n = len(owner_word)
    h_owner = word_output_entropy(W, owner_word)
    band_lo = -h_owner - delta * math.sqrt(n)
    band_hi = -h_owner + delta * math.sqrt(n)

    spectra = [letter_spectrum(law_matrix[xs], W.matrix[xo], qstep)
               for xs, xo in zip(source_word, owner_word)]
    dp, _dead = _convolve_spectra(spectra)

    lo = 0.0
    hi = 0.0
    for mass, smin, smax in dp.values():
        if smin >= band_lo + EDGE_FUZZ and smax <= band_hi - EDGE_FUZZ:
            lo += mass
            hi += mass
        elif smax >= band_lo - EDGE_FUZZ and smin <= band_hi + EDGE_FUZZ:
            hi += mass
    return max(0.0, min(lo, 1.0)), max(0.0, min(hi, 1.0))


def brute_force_typical_prob(W: ChannelModel, source_word, owner_word, delta: float,
                             law: ChannelModel | None = None) -> float:
    """Independent enumeration over all |Y|^n outputs (small n only)."""
    law_matrix = (law or W).matrix
    n = len(owner_word)
    size = W.output_size**n
    if size > 1 << 22:
        raise SizeGuardError("enumeration too large")
    h_owner = word_output_entropy(W, owner_word)
    theta = delta * math.sqrt(n)

    mass = np.ones(1)
    stat = np.zeros(1)
    for xs, xo in zip(source_word, owner_word):
        with np.errstate(divide="ignore"):
            logs = np.log2(W.matrix[xo])
        mass = np.kron(mass, law_matrix[xs])
        stat = (stat[:, None] + logs[None, :]).ravel()
    inside = np.abs(stat + h_owner) <= theta
    return float(mass[inside].sum())


def measure_lambda1(code: DICode, W: ChannelModel,
                    qstep: float = DEFAULT_QSTEP,
                    law: ChannelModel | None = None) -> tuple[float, float]:
    """Worst-case miss probability max_j (1 - P_j[own typical set])."""
    lo = hi = 0.0
    for word in code.codewords:
        p_lo, p_hi = typical_set_prob(W, word, word, code.delta, qstep, law=law)
        lo = max(lo, 1.0 - p_hi)
        hi = max(hi, 1.0 - p_lo)
    return lo, hi


def measure_lambda2(code: DICode, W: ChannelModel,
                    pair_budget: int = DEFAULT_PAIR_BUDGET,
                    qstep: float = DEFAULT_QSTEP,
                    law: ChannelModel | None = None):
    """Worst-case false-accept probability over ordered codeword pairs.

    All N(N-1) pairs get the exact DP when that fits the pair budget
    (pair_mode "exhaustive").  Otherwise every pair gets the cheap analytic
    ceiling, the worst pair_budget pairs by that ceiling get the exact DP, and
    the reported hi endpoint keeps the analytic ceiling of the pairs that were
    skipped, so it remains a true upper bound (pair_mode "screened").  Each
    pair's ceiling is computed once; pairs are ranked by its raw value.

    Returns ((lo, hi), pair_mode, analytic_ceiling).
    """
    if code.size < 2:
        return (0.0, 0.0), "exhaustive", 0.0
    pairs = [(j, k) for j in range(code.size) for k in range(code.size) if j != k]
    exhaustive = len(pairs) <= pair_budget
    if not exhaustive:
        bound = {(j, k): false_accept_bound(W, code.codewords[k], code.codewords[j],
                                            code.delta)
                 for j, k in pairs}
        ranked = sorted(pairs, key=lambda jk: -bound[jk])
        evaluate, skipped = ranked[:pair_budget], ranked[pair_budget:]
    else:
        evaluate, skipped = pairs, []

    lo = hi = 0.0
    for j, k in evaluate:
        # source u_j measured against owner u_k's decision set
        p_lo, p_hi = typical_set_prob(W, code.codewords[j], code.codewords[k],
                                      code.delta, qstep, law=law)
        lo = max(lo, p_lo)
        hi = max(hi, p_hi)
    ceiling = 0.0
    for jk in skipped:
        ceiling = max(ceiling, min(1.0, bound[jk]))
    if skipped:
        hi = max(hi, ceiling)
    if exhaustive:
        mode = "exhaustive"
    else:
        mode = "screened" if evaluate else "pair-bound"
    return (lo, hi), mode, ceiling


def _exponent(value: float, n: int) -> float:
    if value <= 0.0:
        return math.inf
    return -math.log2(value) / n


def exact_error_report(code: DICode, W: ChannelModel,
                       pair_budget: int = DEFAULT_PAIR_BUDGET,
                       qstep: float = DEFAULT_QSTEP,
                       law: ChannelModel | None = None) -> ErrorReport:
    """Certified error intervals and measured exponents via the exact DP."""
    l1 = measure_lambda1(code, W, qstep, law=law)
    l2, pair_mode, ceiling = measure_lambda2(code, W, pair_budget, qstep, law=law)
    n = code.blocklength
    return ErrorReport(
        lambda1=l1, lambda2=l2,
        e1_measured=_exponent(l1[1], n),
        e2_measured=_exponent(l2[1], n),
        method="pair-bound" if pair_mode == "pair-bound" else "exact-dp",
        pair_mode=pair_mode,
        analytic_ceiling=ceiling if pair_mode != "exhaustive" else None,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def monte_carlo_errors(code: DICode, W: ChannelModel, trials: int, seed: int,
                       law: ChannelModel | None = None) -> ErrorReport:
    """Empirical error estimates with 95% Wilson intervals.

    Per codeword j a dedicated generator spawned from the master seed with
    spawn key (j,) draws `trials` output blocks from the product law of u_j;
    the same blocks score the owner test of u_j (first kind) and every other
    test (second kind).  The per-codeword split makes results independent of
    any worker-level parallelism.

    What the intervals cover: `lambda1` is the 95% Wilson interval of the
    largest miss count over the N codewords, and `lambda2` that of the
    largest false-accept count over the N(N-1) ordered pairs, which share
    samples.  Each is a per-codeword or per-pair interval: 95% coverage holds
    for one codeword or pair fixed in advance.  Neither is a family-wise
    interval for the worst-case lambda1 or lambda2; the maximum of many
    noisy counts is biased upward.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
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
    for j, word in enumerate(code.codewords):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        # outputs: n x trials symbols drawn letterwise
        y = np.empty((n, trials), dtype=np.int64)
        for i, x in enumerate(word):
            y[i] = rng.choice(W.output_size, size=trials, p=law_matrix[x])
        accepted = np.zeros(code.size, dtype=np.int64)
        for start in range(0, trials, MC_BLOCK):
            y_blk = y[:, start:start + MC_BLOCK]
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
    return ErrorReport(
        lambda1=l1, lambda2=l2,
        e1_measured=_exponent(l1[1], n),
        e2_measured=_exponent(l2[1], n),
        method="monte-carlo",
        trials=trials,
        seed=seed,
    )
