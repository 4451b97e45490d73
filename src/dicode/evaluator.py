"""Exact and Monte Carlo measurement of identification error probabilities.

The decision set of a codeword x'^n is its entropy-typical set: outputs y^n
with |log2 W_{x'^n}(y^n) + H(W_{x'^n})| <= delta sqrt(n).  The membership
statistic is a sum of per-letter log-probabilities, so under the product law
of a source word its distribution depends only on the pair's joint type: the
count c of positions holding each (source letter a, owner letter b).  This
is the method of types (Csiszar-Korner).

The exact evaluator works on cells: integer grid keys round(v / qstep) with
the cell's mass and the exact min/max of the true sums merged into it.  Each
class (a, b) gets its c-fold spectrum once.  The joint types of one call are
counted with numpy (one count row per type) and folded in batches: all cells
of a batch sit in one flat table tagged by type, each class's powers are
added to every type at once, and cells with equal (type, key) are merged.
`_fold` and `_add` bound what is allocated at once, and STATE_GUARD limits
the merged table.  The final table has one cell per type and grid key, which
yields certified [lo, hi] enclosures for every acceptance probability:

  lo counts cells whose whole true-value range lies inside the band,
  hi additionally counts cells whose range touches it.

Zero probabilities in the decoder word (log = -inf) drop out of the cells:
their mass always lies outside the typical set.  The interval is a function
of the joint type, delta and qstep, so the error measurements evaluate each
distinct joint type once.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelModel
from .codebook import DICode, word_output_entropy
from .errors import SizeGuardError, ValidationError
from .infodist import false_accept_bound, letter_tables

DEFAULT_QSTEP = 2.0**-20
#: absolute safety cushion (bits) absorbing float roundoff at the band edges
EDGE_FUZZ = 1e-9
#: refuse a merged cell table of more cells than this
STATE_GUARD = 5_000_000
#: leave an outer add of at most this many cells unmerged
MERGE_CELLS = 1 << 14
#: sums a larger add gathers at once, one range of keys, before merging them
BLOCK_CELLS = 1 << 15
#: unmerged cells one batch of joint types may hold at once
BATCH_CELLS = 1 << 16
#: codeword pairs whose joint types are counted at once
PAIR_CHUNK = 1 << 11

DEFAULT_PAIR_BUDGET = 10**6
#: two-sided 95% normal quantile of the Wilson intervals
WILSON_Z = 1.959963984540054
#: distinct Monte Carlo output words scored per block; N x block stays in cache
MC_BLOCK = 512
#: refuse Monte Carlo draws of more than this many n x trials symbols
MC_CELL_GUARD = 1 << 26


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
    dp_types: int | None = None       # distinct joint types evaluated
    dp_states_max: int | None = None  # largest merged cell table
    pairs_exact: int | None = None    # ordered pairs covered by the exact DP
    mc_words_scored: int | None = None  # distinct MC output words, summed

    def to_json(self) -> str:
        """Every field, lambdas as {"lo", "hi"} and exponents as E1/E2_measured."""
        payload = asdict(self)
        for k in ("lambda1", "lambda2"):
            payload[k] = dict(zip(("lo", "hi"), payload[k]))
        payload["E1_measured"] = payload.pop("e1_measured")
        payload["E2_measured"] = payload.pop("e2_measured")
        return json.dumps(payload, sort_keys=True, indent=1)


def letter_spectrum(law_row, decode_row):
    """Distribution of log2 decode_row(Y) with Y drawn from law_row: its
    atoms' values and masses (arrays) and the mass at -inf."""
    law_row, decode_row = np.asarray(law_row, float), np.asarray(decode_row, float)
    live = (law_row != 0.0) & (decode_row != 0.0)
    values = np.array([math.log2(q) for q in decode_row[live]], dtype=float)
    return values, law_row[live], float(sum(law_row[(law_row != 0.0) & ~live]))


#: cell table: (grid key, mass, min true sum, max true sum), one array each
_UNIT = (np.zeros(1, dtype=np.int64), np.ones(1), np.zeros(1), np.zeros(1))


def _merge(cells):
    """One cell per distinct key: summed mass, min of mins, max of maxes."""
    key, mass, smin, smax = cells
    if key.size < 2 or (key[1:] > key[:-1]).all():
        return cells
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return (key[starts], np.add.reduceat(mass[order], starts),
            np.minimum.reduceat(smin[order], starts),
            np.maximum.reduceat(smax[order], starts))


def _outer(a, b):
    """Every sum of a cell of `a` and a cell of `b`, unmerged, `a`-major."""
    return (np.add.outer(a[0], b[0]).ravel(), np.multiply.outer(a[1], b[1]).ravel(),
            np.add.outer(a[2], b[2]).ravel(), np.add.outer(a[3], b[3]).ravel())


def _add(a, b):
    """Merged cell table of every sum of a cell of `a` and a cell of `b`.

    Products of at most MERGE_CELLS cells stay unmerged.  Larger ones are
    built one range of sum keys at a time: with `a` merged (sorted, distinct
    keys), binary search finds the largest range holding at most BLOCK_CELLS
    sums, which are gathered and merged into their final cells.  Ranges are
    disjoint, so the merged table is their concatenation; its size is checked
    against STATE_GUARD before each range is allocated.
    """
    if a[0].size * b[0].size <= MERGE_CELLS:
        return _outer(a, b)
    if a[0].size < b[0].size:
        a, b = b, a
    a = _merge(a)
    akey, bkey = a[0], b[0]

    def below(k):
        """Number of sums with key < k."""
        return int(np.searchsorted(akey, k - bkey).sum())

    parts, size = [], 0
    k0, top = int(akey[0] + bkey.min()), int(akey[-1] + bkey.max()) + 1
    while k0 < top:
        # largest k1 > k0 with at most BLOCK_CELLS sums in [k0, k1)
        base, lo, hi = below(k0), k0 + 1, top
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if below(mid) - base <= BLOCK_CELLS else (lo, mid - 1)
        start = np.searchsorted(akey, k0 - bkey)
        counts = np.searchsorted(akey, lo - bkey) - start
        # cells a[start_j : start_j + counts_j] pair with cell j of b
        j = np.repeat(np.arange(bkey.size), counts)
        i = np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts, counts)
        parts.append(_merge((akey[i] + bkey[j], a[1][i] * b[1][j],
                             a[2][i] + b[2][j], a[3][i] + b[3][j])))
        size += parts[-1][0].size
        if size > STATE_GUARD:
            raise SizeGuardError(f"statistic DP cell table of {size} cells "
                                 f"exceeds guard {STATE_GUARD}")
        k0 = lo
    # concatenate column by column, releasing each column's parts as it goes
    columns = [list(column) for column in zip(*parts)]
    del parts
    return tuple(np.concatenate(columns.pop(0)) for _ in range(len(columns)))


def joint_type(source_word, owner_word) -> tuple:
    """Sorted ((source letter, owner letter), count) classes of a word pair."""
    if len(source_word) != len(owner_word):
        raise ValidationError("source and owner words must have equal length")
    return tuple(sorted(Counter(zip(source_word, owner_word)).items()))


class JointTypeDP:
    """Certified acceptance probabilities of joint types under one (W, law, qstep).

    A joint type is a count row over the classes (a, b), class a*q + b.
    Caches each class's c-fold spectrum and counts the work done: `types`
    distinct joint types evaluated, `states_max` the largest final cell table,
    `pairs_exact` ordered codeword pairs whose false-accept probability came
    from the DP.
    """

    def __init__(self, W: ChannelModel, qstep: float = DEFAULT_QSTEP,
                 law: ChannelModel | None = None):
        self.W, self.qstep, self.law = W, qstep, law
        self._law_matrix = (law or W).matrix
        self._powers: dict[tuple, list] = {}
        self.types = self.states_max = self.pairs_exact = 0

    def _power(self, a, b, c: int):
        """c-fold spectrum of class (a, b), built by merged single-letter adds."""
        powers = self._powers.get((a, b))
        if powers is None:
            v, mass, _ = letter_spectrum(self._law_matrix[a], self.W.matrix[b])
            keys = np.rint(v / self.qstep).astype(np.int64)
            powers = self._powers[(a, b)] = [_merge((keys, mass, v, v))]
        while len(powers) < c:
            powers.append(_merge(_add(powers[-1], powers[0])))
        return powers[c - 1]

    def probs(self, jtypes, delta: float) -> dict:
        """`count_probs` of `joint_type` tuples, keyed by type."""
        jtypes = list(set(jtypes))
        q = self.W.n_inputs
        counts = np.zeros((len(jtypes), q * q), dtype=np.int64)
        for t, jtype in enumerate(jtypes):
            for (a, b), c in jtype:
                counts[t, a * q + b] = c
        return {jtype: (float(lo), float(hi))
                for jtype, lo, hi in zip(jtypes, *self.count_probs(counts, delta))}

    def count_probs(self, counts, delta: float):
        """Certified enclosures (lo, hi arrays) of the typical-set acceptance
        probability of joint types given as distinct count rows, folded in
        batches of at most BATCH_CELLS unmerged cells.  A type's interval
        depends only on its row, never on the types evaluated with it.
        """
        q, ent = self.W.n_inputs, letter_tables(self.W)[0]
        steps = []  # per class present: its powers by count, count 0 the unit cell
        weight, held = np.ones(len(counts)), np.ones(len(counts))
        h_owner = np.zeros(len(counts))  # H(W_{x'^n}), summed in class order
        for cl in np.flatnonzero(counts.any(axis=0)):
            c = counts[:, cl]
            self._power(cl // q, cl % q, int(c.max()))
            parts = [_UNIT] + self._powers[cl // q, cl % q][:c.max()]
            size = np.array([part[0].size for part in parts])
            steps.append((cl, parts, np.cumsum(size) - size, size,
                          tuple(np.concatenate(col) for col in zip(*parts))))
            held *= size[c]  # cells a type holds after this class, at most
            np.maximum(weight, held, out=weight)
            h_owner += c * ent[cl % q]
        theta = delta * np.sqrt(counts.sum(axis=1))
        lo, hi = np.zeros(len(counts)), np.zeros(len(counts))
        for batch in _batches(weight):
            lo[batch], hi[batch], states = _accept(
                _fold(counts[batch], steps), -h_owner[batch] - theta[batch],
                -h_owner[batch] + theta[batch])
            self.states_max = max(self.states_max, states)
        self.types += len(counts)
        return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def _batches(weight):
    """Consecutive type indices whose weights sum to at most BATCH_CELLS,
    or a single heavier type."""
    batch, total = [], 0.0
    for t, w in enumerate(weight.tolist()):
        if batch and total + w > BATCH_CELLS:
            yield np.array(batch)
            batch, total = [], 0.0
        batch.append(t)
        total += w
    if batch:
        yield np.array(batch)


def _fold(counts, steps):
    """Merged cells of a batch of joint types, (type id, key, mass, min, max);
    each type's cells are contiguous and sorted by key.

    Each type starts from the unit cell and adds its classes' powers in class
    order.  Adds of at most MERGE_CELLS sums are gathered for the whole batch,
    unmerged and in `_outer`'s order; larger ones go through `_add`, one type
    at a time.  Type t's cells are start[t] : start[t] + size[t]; `layout`
    lists the types in table order.
    """
    cells = tuple(np.concatenate([col] * len(counts)) for col in _UNIT)
    start, size = np.arange(len(counts)), np.ones(len(counts), dtype=np.int64)
    layout = start
    for cl, parts, offset, psize, table in steps:
        c = counts[:, cl]
        if not c.any():
            continue
        out = size * psize[c]
        big = np.flatnonzero(out > MERGE_CELLS)
        small = np.flatnonzero(out <= MERGE_CELLS)
        # sum r of small type t pairs its cell r // psize with power cell r % psize
        o = out[small]
        r = np.arange(o.sum()) - np.repeat(np.cumsum(o) - o, o)
        per = np.repeat(psize[c[small]], o)
        i = np.repeat(start[small], o) + r // per
        j = np.repeat(offset[c[small]], o) + r % per
        pieces = []
        if small.size:
            pieces.append((cells[0][i] + table[0][j], cells[1][i] * table[1][j],
                           cells[2][i] + table[2][j], cells[3][i] + table[3][j]))
        for t in big.tolist():
            seg = slice(start[t], start[t] + size[t])
            pieces.append(_add(tuple(col[seg] for col in cells), parts[int(c[t])]))
            out[t] = pieces[-1][0].size
        layout, size = np.concatenate((small, big)), out
        start = np.empty_like(start)
        start[layout] = np.cumsum(size[layout]) - size[layout]
        cells = pieces[0] if len(pieces) == 1 else tuple(
            np.concatenate(col) for col in zip(*pieces))
    return _merge_types(np.repeat(layout, size[layout]), cells)


def _merge_types(tid, cells):
    """`_merge` of each type's cells, which are contiguous: (type id, key,
    mass, min, max), one cell per distinct (type id, key)."""
    key, mass, smin, smax = cells
    if ((key[1:] > key[:-1]) | (tid[1:] != tid[:-1])).all():
        return tid, key, mass, smin, smax
    order = np.lexsort((key, tid))
    tid, key = tid[order], key[order]
    starts = np.flatnonzero(np.concatenate(([True], (key[1:] != key[:-1])
                                            | (tid[1:] != tid[:-1]))))
    return (tid[starts], key[starts], np.add.reduceat(mass[order], starts),
            np.minimum.reduceat(smin[order], starts),
            np.maximum.reduceat(smax[order], starts))


def _accept(cells, band_lo, band_hi):
    """Mass of each type's cells inside (lo) and touching (hi) its band
    [band_lo, band_hi], and the largest type's cell count."""
    tid, _, mass, smin, smax = cells
    types = len(band_lo)
    if types > 1:  # each cell gets its type's band; one type's band broadcasts
        band_lo, band_hi = band_lo[tid], band_hi[tid]
    inside = (smin >= band_lo + EDGE_FUZZ) & (smax <= band_hi - EDGE_FUZZ)
    touch = (smax >= band_lo - EDGE_FUZZ) & (smin <= band_hi + EDGE_FUZZ)
    return (np.bincount(tid[inside], mass[inside], types),
            np.bincount(tid[touch], mass[touch], types),
            int(np.bincount(tid, minlength=types).max()))


def _distinct(rows):
    """Distinct rows of a 2-D integer array, compared as bytes."""
    rows = np.ascontiguousarray(rows)
    view = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return np.unique(view).view(rows.dtype).reshape(-1, rows.shape[1])


def _type_rows(code: DICode, q: int, src, own):
    """Distinct joint types of the word pairs (codeword src[p], codeword
    own[p]) as count rows, counted PAIR_CHUNK pairs at a time."""
    words = np.array(code.codewords, dtype=np.int64)
    dtype = np.min_scalar_type(code.blocklength)
    rows = [np.zeros((0, q * q), dtype=dtype)]
    for s in range(0, len(src), PAIR_CHUNK):
        cls = words[src[s:s + PAIR_CHUNK]] * q + words[own[s:s + PAIR_CHUNK]]
        cls += np.arange(len(cls))[:, None] * (q * q)
        counts = np.bincount(cls.ravel(), minlength=len(cls) * q * q)
        rows.append(_distinct(counts.astype(dtype).reshape(-1, q * q)))
    return _distinct(np.concatenate(rows))


def _dp_for(dp: JointTypeDP | None, W: ChannelModel,
            law: ChannelModel | None) -> JointTypeDP:
    if dp is None:
        return JointTypeDP(W, law=law)
    if dp.W is not W or dp.law is not law:
        raise ValidationError("JointTypeDP was built for another channel or law")
    return dp


def typical_set_prob(W: ChannelModel, source_word, owner_word, delta: float,
                     qstep: float = DEFAULT_QSTEP,
                     law: ChannelModel | None = None) -> tuple[float, float]:
    """Certified enclosure of P[Y^n in typical set of owner_word].

    Y^n is drawn from the product law of source_word (under `law` if given,
    else under W); the typical set itself is always defined through W, whose
    entropies and log-probabilities are the decoder's reference.
    """
    jtype = joint_type(source_word, owner_word)
    return JointTypeDP(W, qstep, law).probs([jtype], delta)[jtype]


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

    mass, stat = np.ones(1), np.zeros(1)
    for xs, xo in zip(source_word, owner_word):
        with np.errstate(divide="ignore"):
            logs = np.log2(W.matrix[xo])
        mass = np.kron(mass, law_matrix[xs])
        stat = (stat[:, None] + logs[None, :]).ravel()
    inside = np.abs(stat + h_owner) <= theta
    return float(mass[inside].sum())


def measure_lambda1(code: DICode, W: ChannelModel,
                    law: ChannelModel | None = None,
                    dp: JointTypeDP | None = None) -> tuple[float, float]:
    """Worst-case miss probability max_j (1 - P_j[own typical set]).

    `dp` lends its spectrum cache and counters (a fresh one by default).
    """
    dp = _dp_for(dp, W, law)
    own = np.arange(code.size)
    p_lo, p_hi = dp.count_probs(_type_rows(code, W.n_inputs, own, own), code.delta)
    return float(np.max(1.0 - p_hi, initial=0.0)), float(np.max(1.0 - p_lo, initial=0.0))


def measure_lambda2(code: DICode, W: ChannelModel,
                    pair_budget: int = DEFAULT_PAIR_BUDGET,
                    law: ChannelModel | None = None,
                    dp: JointTypeDP | None = None):
    """Worst-case false-accept probability over ordered codeword pairs.

    All N(N-1) pairs get the exact DP when that fits the pair budget
    (pair_mode "exhaustive").  Otherwise every pair gets the cheap analytic
    ceiling, the worst pair_budget pairs by that ceiling get the exact DP, and
    the reported hi endpoint keeps the analytic ceiling of the pairs that were
    skipped, so it remains a true upper bound (pair_mode "screened").  Each
    pair's ceiling is computed once; pairs are ranked by its raw value.  Pairs
    sharing a joint type share one DP.  `dp` lends its spectrum cache and
    counters (a fresh one by default).

    Returns ((lo, hi), pair_mode, analytic_ceiling).  A negative pair_budget
    raises ValidationError.
    """
    if pair_budget < 0:
        raise ValidationError(f"pair budget must be >= 0, got {pair_budget}")
    dp = _dp_for(dp, W, law)
    if code.size < 2:
        return (0.0, 0.0), "exhaustive", 0.0
    # source u_j measured against owner u_k's decision set, j-major
    src, own = np.nonzero(~np.eye(code.size, dtype=bool))
    exhaustive = len(src) <= pair_budget
    skipped = []
    if not exhaustive:
        bound = {(j, k): false_accept_bound(W, code.codewords[k], code.codewords[j],
                                            code.delta)
                 for j, k in zip(src.tolist(), own.tolist())}
        ranked = sorted(bound, key=lambda jk: -bound[jk])
        evaluate, skipped = ranked[:pair_budget], ranked[pair_budget:]
        src, own = np.array(evaluate, dtype=np.int64).reshape(-1, 2).T
    p_lo, p_hi = dp.count_probs(_type_rows(code, W.n_inputs, src, own), code.delta)
    dp.pairs_exact += len(src)
    lo, hi = float(np.max(p_lo, initial=0.0)), float(np.max(p_hi, initial=0.0))
    ceiling = max([0.0] + [min(1.0, bound[jk]) for jk in skipped])
    hi = max(hi, ceiling)
    mode = "exhaustive" if exhaustive else "screened" if len(src) else "pair-bound"
    return (lo, hi), mode, ceiling


def _exponent(value: float, n: int) -> float:
    return math.inf if value <= 0.0 else -math.log2(value) / n


def exact_error_report(code: DICode, W: ChannelModel,
                       pair_budget: int = DEFAULT_PAIR_BUDGET,
                       law: ChannelModel | None = None) -> ErrorReport:
    """Certified error intervals and measured exponents via the exact DP."""
    dp = JointTypeDP(W, law=law)
    l1 = measure_lambda1(code, W, law=law, dp=dp)
    l2, pair_mode, ceiling = measure_lambda2(code, W, pair_budget, law=law, dp=dp)
    n = code.blocklength
    return ErrorReport(
        lambda1=l1, lambda2=l2,
        e1_measured=_exponent(l1[1], n),
        e2_measured=_exponent(l2[1], n),
        method="pair-bound" if pair_mode == "pair-bound" else "exact-dp",
        pair_mode=pair_mode,
        analytic_ceiling=ceiling if pair_mode != "exhaustive" else None,
        dp_types=dp.types,
        dp_states_max=dp.states_max,
        pairs_exact=dp.pairs_exact,
    )


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be >= 1")
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def choice_letters(cdf, u, out):
    """Letters Generator.choice(p=p) draws from uniforms u, given its CDF of p
    (cumsum / last entry): the count of edges <= u; the last, 1.0, never is."""
    return (u >= cdf[:-1, None]).sum(axis=0, dtype=out.dtype, out=out)


def monte_carlo_errors(code: DICode, W: ChannelModel, trials: int, seed: int,
                       law: ChannelModel | None = None) -> ErrorReport:
    """Empirical error estimates with 95% Wilson intervals.

    Per codeword j a generator spawned from the master seed with spawn key
    (j,) draws `trials` output blocks from the product law of u_j, one
    rng.random(trials) per position mapped by `choice_letters` (rng.choice's
    stream); the same blocks score the owner test of u_j (first kind) and
    every other test (second kind).  A verdict depends only on the output
    word, so each codeword's distinct output words are scored once and
    weighted by their counts (summed in `mc_words_scored`); results are
    bit-identical to scoring every trial.  MC_CELL_GUARD bounds the n x trials
    draws.

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
    n = code.blocklength
    if n * trials > MC_CELL_GUARD:
        raise SizeGuardError(f"Monte Carlo draws of {n} x {trials} symbols "
                             f"exceed guard {MC_CELL_GUARD}")
    cdf = (law or W).matrix.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    theta = code.delta * math.sqrt(n)
    h = np.array([word_output_entropy(W, w) for w in code.codewords])
    with np.errstate(divide="ignore"):
        logw = np.log2(W.matrix)
    # per position, a |Y| x N table: log2 W(y | owner letter) for every owner
    tables = np.ascontiguousarray(logw[np.array(code.codewords)].transpose(1, 2, 0))
    radix = W.output_size

    worst_miss = worst_false = scored = 0
    for j, word in enumerate(code.codewords):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        # outputs: n x trials letters; key: mixed-radix word id
        y = np.empty((n, trials), dtype=np.min_scalar_type(radix - 1))
        key, span = np.zeros(trials, dtype=np.int64), 1
        for i, x in enumerate(word):
            choice_letters(cdf[x], rng.random(trials), y[i])
            if span * radix > 1 << 63:
                # rank the keys: distinct words keep distinct keys below `span`
                uniq, key = np.unique(key, return_inverse=True)
                span = uniq.size
            key, span = key * radix + y[i], span * radix
        # all trials of a key carry one word, so any one can stand for it
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        first, counts = order[starts], np.diff(starts, append=trials)
        scored += first.size
        accepted = np.zeros(code.size, dtype=np.int64)
        for start in range(0, first.size, MC_BLOCK):
            y_blk = y[:, first[start:start + MC_BLOCK]]
            # distinct words x owners statistic, summed in position order
            stat = np.zeros((y_blk.shape[1], code.size))
            for i in range(n):
                stat += tables[i][y_blk[i]]
            accepted += counts[start:start + MC_BLOCK] @ (np.abs(stat + h) <= theta)
        worst_miss = max(worst_miss, trials - int(accepted[j]))
        accepted[j] = 0
        worst_false = max(worst_false, int(accepted.max()))

    l1 = wilson_interval(worst_miss, trials)
    l2 = (0.0, 0.0) if code.size < 2 else wilson_interval(worst_false, trials)
    return ErrorReport(
        lambda1=l1, lambda2=l2,
        e1_measured=_exponent(l1[1], n),
        e2_measured=_exponent(l2[1], n),
        method="monte-carlo", trials=trials, seed=seed, mc_words_scored=scored,
    )
