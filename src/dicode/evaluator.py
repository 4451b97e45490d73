"""Exact and Monte Carlo measurement of identification error probabilities.

The decision set of a codeword x'^n is its entropy-typical set: outputs y^n
with |log2 W_{x'^n}(y^n) + H(W_{x'^n})| <= delta sqrt(n).  The statistic is
sum_b sum_y N_{b,y} log2 W(y|b), N_{b,y} counting the positions of owner
letter b and output y, so under the product law of a source word its law
depends only on the pair's joint type (Csiszar-Korner): the count of
positions holding each (source letter a, owner letter b).

The exact evaluator (JointTypeDP) sums over output-count lattices, one per
group of classes a*q + b whose owner letters reach one set of log2 W(y|b)
values.  An atom picks a count vector per group: its value is fixed by the
owner's composition, its mass is the groups' product.  A report evaluates
its own and cross types in one pass over the owner compositions, and each
block of atoms gets its band test once for a batch of the composition's
types.  The atom values do not depend on the types, so the band is tested
first: the masses are built only at a batch's first block that reaches the
band, and a composition with no atom in the band builds none.
Every entry, single pairs included, takes its words by `codebook.word_array`
(letters 0..q-1 of W) and draws the outputs from W, the channel the code was
built for.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelModel
from .codebook import DICode, decoder_width, word_array, word_output_entropy
from .errors import SizeGuardError, ValidationError

#: absolute safety cushion (bits) absorbing float roundoff at the band edges
EDGE_FUZZ = 1e-9
#: refuse a joint type of more output-count atoms than this, or one with a
#: group whose lattice, held whole, has more entries (vectors x values)
STATE_GUARD = 1 << 27
#: working entries held at once: lattice entries (atoms x joint types)
#: summed, pairs' class ids or counts, Chernoff ceilings' floats
ATOM_CHUNK = 1 << 16
#: tilts s of the Chernoff screening ceiling: 0 and +-2^k, k = -8..5
TILTS = np.concatenate(([0.0], 2.0 ** np.arange(-8, 6), -(2.0 ** np.arange(-8, 6))))

DEFAULT_PAIR_BUDGET = 10**6
#: two-sided 95% normal quantile of the Wilson intervals
WILSON_Z = 1.959963984540054
#: distinct Monte Carlo output words scored per block; N x block stays in cache
MC_BLOCK = 512
#: score all |Y|^n output words once if they fit this many (word, owner) entries
MC_TABLE_CELLS = 1 << 20
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
    dp_states_max: int | None = None  # largest lattice of one type (atoms)
    pairs_exact: int | None = None    # ordered pairs covered by the exact DP
    # distinct MC output words each codeword drew, summed over codewords,
    # whether scored per codeword or read from the whole output space's table
    mc_words_scored: int | None = None

    def to_json(self) -> str:
        """Every field, lambdas as {"lo", "hi"} and exponents as E1/E2_measured."""
        payload = asdict(self)
        for k in ("lambda1", "lambda2"):
            payload[k] = dict(zip(("lo", "hi"), payload[k]))
        payload["E1_measured"] = payload.pop("e1_measured")
        payload["E2_measured"] = payload.pop("e2_measured")
        return json.dumps(payload, sort_keys=True, indent=1)


def _lattice(n: int, logw):
    """(values, pred, prefix) of the count vectors N of n positions over k =
    len(logw) outputs, in colex order of their bars s_j = N_0 + ... + N_j + j:
    values N . logw; prefix[m] = C(m + k - 1, k - 1), the first vectors, those
    of m positions; pred[y, r], the index of vector r less one count of output
    y < k - 1, or -1 if none (less one of output k - 1 it is r, in prefix[m-1])."""
    k = len(logw)  # int32 holds every index: STATE_GUARD keeps the vectors below 2^27
    bars, prefix = np.zeros((0, 1), dtype=np.int32), np.ones(n + 1, dtype=np.int32)
    for r in range(1, k):
        # r bars below n + r, by largest bar top: each of the first
        # C(top, r - 1) sets of r - 1 bars, then top
        start = np.repeat(np.cumsum(prefix, dtype=np.int32) - prefix, prefix)
        bars = np.vstack((bars[:, np.arange(start.size, dtype=np.int32) - start],
                          np.repeat(np.arange(r - 1, n + r, dtype=np.int32), prefix)))
        prefix = np.cumsum(prefix, dtype=np.int32)
    # N_j = s_j - s_{j-1} - 1 with s_{-1} = -1 and s_{k-1} = n + k - 1, in place
    counts = np.full((k, bars.shape[1]), n + k - 1, dtype=np.int32)
    counts[:-1] = bars
    counts[1:] -= bars
    counts[1:] -= 1
    values = sum(c * w for c, w in zip(counts, logw))
    # moving bars j >= y down lowers the colex rank by sum C(s_j - 1, j);
    # pred[y] overwrites N_y once it is read
    binoms = [np.minimum(np.arange(n + 1, dtype=np.int32), 1)]  # C(u + j - 1, j)
    while len(binoms) < k - 1:
        binoms.append(np.cumsum(binoms[-1], dtype=np.int32))
    rank = np.arange(prefix[-1], dtype=np.int32)
    for y in reversed(range(k - 1)):
        rank -= binoms[y][bars[y] - y]
        counts[y] = np.where(counts[y] > 0, rank, -1)
    return values, counts[:-1], prefix


def _masses(probs, pred, prefix, splits):
    """Probabilities of one group's count vectors, then a zero column, a row
    per row of `splits` (its positions per class).  Positions are added one
    at a time, classes in order: each moves every vector's mass one count
    on, weighted by the class's row of `probs`."""
    n, k, ends = int(splits[0].sum()), probs.shape[1], np.cumsum(splits, axis=1)
    mass = np.zeros((2, len(splits), prefix[-1] + 1))
    mass[0, :, 0] = 1.0
    for m in range(n):
        old, new, size = mass[m % 2], mass[1 - m % 2], prefix[m + 1]
        p = probs[(ends <= m).sum(axis=1)]  # the source letter of position m
        np.multiply(old[:, :size], p[:, -1:], out=new[:, :size])
        for y in range(k - 1):
            new[:, :size] += np.take(old, pred[y, :size], axis=1) * p[:, y, None]
    return mass[n % 2]


def _atoms(parts, sizes, op, start, stop):
    """Entries [..., atom] of atoms start..stop-1, in C order, of lattices of
    `sizes` vectors from each group's values (op np.add) or `_masses` rows
    (np.multiply): the last group's row combined with the others' atoms the
    range meets, at most a row past each end; columns past `sizes` unread."""
    *lead, a = parts
    if not lead:
        return a[..., start:stop]
    s = sizes[len(lead)]
    first = start // s
    b = _atoms(lead, sizes, op, first, -(-stop // s))
    return op(b[..., :, None], a[..., None, :s]).reshape(*a.shape[:-1], -1)[
        ..., start - first * s:stop - first * s]


class JointTypeDP:
    """Certified acceptance probabilities of joint types under W.

    A joint type is a count row over the classes (a, b), class a*q + b.
    Owner letters whose reached outputs take the same k values log2 W(y|b)
    form a group, with C(n_g + k - 1, k - 1) count vectors of its n_g
    positions; a class's row p_c sums W(.|a) over the outputs of each value.
    Caches each group's lattice per n_g; `states_max` is the most atoms of
    one type evaluated.
    """

    def __init__(self, W: ChannelModel):
        self.W, q = W, W.n_inputs
        #: values -> (class ids, owner-major, and the rows p_c of those classes)
        self._groups: dict[tuple, tuple] = {}
        for b, (row, logw) in enumerate(zip(W.matrix, W.log2)):
            values = tuple(sorted(set(logw[row != 0.0].tolist())))
            rows = np.stack([W.matrix[:, logw == v].sum(axis=1) for v in values], axis=1)
            classes, old = self._groups.get(values, ([], rows[:0]))
            self._groups[values] = classes + list(range(b, q * q, q)), np.concatenate((old, rows))
        #: 0/1 [class, group]: a count row times it is each group's positions
        self._members = np.zeros((q * q, len(self._groups)), dtype=np.int64)
        for g, (classes, _) in enumerate(self._groups.values()):
            self._members[classes, g] = 1
        self._lattice = functools.cache(_lattice)  # (n, values) -> lattice
        self.states_max = 0

    def count_probs(self, counts, delta: float):
        """Certified enclosures (lo, hi arrays) of the typical-set acceptance
        probability of joint types given as distinct integer count rows: the
        atoms in the band shrunk and widened by EDGE_FUZZ, after the
        STATE_GUARD check.  The rows are read in their own dtype; besides
        them a call holds O(1) scalars per type (its owner composition in a
        dtype that holds n, its order, lo and hi) and O(ATOM_CHUNK) working
        entries.  One owner composition at a time, its types go in batches
        whose masses fit ATOM_CHUNK entries; each block of at most
        ATOM_CHUNK atoms gets its values and band test once for a batch, and
        its masses broadcast ATOM_CHUNK // block types at a time.  A batch
        builds the groups' masses at its first block with an atom in the
        band widened by EDGE_FUZZ, so a composition none of whose atoms
        reaches it builds none and its types read [0, 0].  A type's interval
        depends only on its row, not on its dtype."""
        q, lo, hi = self.W.n_inputs, np.zeros(len(counts)), np.zeros(len(counts))
        if not len(counts):
            return lo, hi
        counts = np.asarray(counts).reshape(-1, q * q)  # [type, class]
        # group the types by owner composition, the n_b
        owners = counts.reshape(-1, q, q).sum(
            axis=1, dtype=np.min_scalar_type(counts.sum(axis=1).max()))
        order = np.lexsort(owners.T)
        changes = (owners[order[1:]] != owners[order[:-1]]).any(axis=1)
        starts = np.flatnonzero(np.concatenate(([True], changes)))
        firsts, types_of = order[starts], np.split(order, starts[1:])
        positions = (counts[firsts].astype(np.int64) @ self._members).tolist()  # n_g
        ks = [len(values) for values in self._groups]
        sizes = [[math.comb(n + k - 1, k - 1) for n, k in zip(row, ks)] for row in positions]
        atoms = [math.prod(row) for row in sizes]
        entries = max(size * k for row in sizes for size, k in zip(row, ks))
        if max(atoms) > STATE_GUARD or entries > STATE_GUARD:
            raise SizeGuardError(f"joint type of {max(atoms)} output-count atoms or {entries} "
                                 f"lattice entries of one group exceeds guard {STATE_GUARD}")
        self.states_max = max(self.states_max, max(atoms))
        for own, row, size, types in zip(owners[firsts], positions, atoms, types_of):
            parts = [(self._lattice(n, values), classes, probs)
                     for n, (values, (classes, probs)) in zip(row, self._groups.items()) if n]
            values = [lattice[0] for lattice, _, _ in parts]
            shape = [len(v) for v in values]
            theta, h_owner = delta * math.sqrt(own.sum()), float(own @ self.W.entropies)
            width = min(size, ATOM_CHUNK)
            # types whose masses, every group's lattice and zero column, fit ATOM_CHUNK
            batch = max(ATOM_CHUNK // (sum(shape) + len(shape)), 1)
            for first in range(0, len(types), batch):
                t, masses = types[first:first + batch], None
                for start in range(0, size, width):
                    stop = min(start + width, size)
                    dev = np.abs(_atoms(values, shape, np.add, start, stop) + h_owner)
                    touch = np.flatnonzero(dev <= theta + EDGE_FUZZ)
                    if not touch.size:
                        continue
                    if masses is None:  # the batch's first block that reaches the band
                        masses = [_masses(probs, pred, prefix, counts[t][:, classes])
                                  for (_, pred, prefix), classes, probs in parts]
                    inside = dev[touch] <= theta - EDGE_FUZZ
                    for sub in range(0, len(t), ATOM_CHUNK // width):
                        rows = slice(sub, sub + ATOM_CHUNK // width)
                        # C-ordered rows, so each type's sums are its own
                        mass = _atoms([m[rows] for m in masses], shape, np.multiply, start, stop)
                        mass = np.take(mass, touch, axis=1)
                        hi[t[rows]] += mass.sum(axis=1)
                        lo[t[rows]] += np.compress(inside, mass, axis=1).sum(axis=1)
                if masses is None:  # no atom reaches the band: nor will one for later batches
                    break
        return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def false_accept_bound(dp: JointTypeDP, rows, delta: float) -> np.ndarray:
    """Chernoff ceilings, in log2, on the typical-set acceptance probability
    of joint types given as count rows, from the tables `count_probs` reads:
    class c = (a, b) has l_c(s) = log2 sum_v p_c(v) 2^(s v) over owner letter
    b's group values v and the class's row p_c, which leaves out the outputs
    W(.|b) never emits (no accepted word holds one).  By Markov on 2^(s S), a band
    mass is at most 2^(L(s) - s edge), L = sum_c n_c l_c, edge -H - theta
    (s > 0) or -H + theta (s < 0) with the band of `hi`.  The least over
    TILTS plus a rounding margin, at most 0; -inf if a class has no live mass.
    The rows are read in their own dtype, a block of them at a time as
    floats with their sums over TILTS, at most ATOM_CHUNK entries.
    """
    q = dp.W.n_inputs
    ell = np.empty((len(TILTS), q * q))
    for values, (classes, probs) in dp._groups.items():
        with np.errstate(divide="ignore"):
            x = np.log2(probs) + TILTS[:, None, None] * np.array(values)  # [s, row, value]
            top = np.maximum(np.max(x, axis=2, keepdims=True), -1e300)  # dead: -inf, not nan
            ell[:, classes] = top[..., 0] + np.log2(np.exp2(x - top).sum(axis=2))
    dead = np.isneginf(ell).any(axis=0)
    ell[:, dead] = 0.0  # no 0 * -inf in the products below
    h, rows = np.tile(dp.W.entropies, q), np.asarray(rows).reshape(-1, q * q)
    # -s edge = s H + |s| theta; the margin takes |s| (H + theta) >= |s edge|, linear in n_c
    eps = (q * q + dp.W.output_size + 2) * 2.0**-52
    per_class = ell + np.outer(TILTS, h) + eps * (np.abs(ell) + np.outer(np.abs(TILTS), h) + 1)
    # blocks of near-equal size and at least 64 rows, unless the table is smaller:
    # numpy's matmul of fewer rows may take another BLAS kernel (gemv for one
    # row, OpenBLAS's small-matrix kernel for a few dozen) that rounds
    # differently, and each block must round as the whole table does
    total, step = len(rows), max(ATOM_CHUNK // (q * q + len(TILTS)), 64)
    blocks, out = max(total // step, 1), np.empty(total)
    for i in range(blocks):
        lo, hi = i * total // blocks, (i + 1) * total // blocks
        counts = rows[lo:hi].astype(float)
        theta = delta * np.sqrt(counts.sum(axis=1)) + EDGE_FUZZ
        bound = counts @ per_class.T + np.outer(theta, (1.0 + eps) * np.abs(TILTS))
        bound = np.minimum(np.min(bound, axis=1) + eps, 0.0)
        out[lo:hi] = np.where(counts @ dead > 0, -np.inf, bound)
    return out


def _distinct(rows, pairs):
    """Distinct rows of a non-empty C-contiguous 2-D integer array, which it
    sorts in place by their bytes (np.unique's order on the byte view), and
    the sum of `pairs` over the copies of each, as int64: one argsort of the
    byte view and one reduceat.  The sort is stable, which takes sorted runs
    (the merged chunks' tables) in one pass; equal rows are equal bytes and
    their pairs an integer sum, so any order of them gives the same result."""
    view = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(view, kind="stable")
    rows[...] = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], view[1:] != view[:-1])))
    return rows[starts], np.add.reduceat(pairs[order], starts, dtype=np.int64)


def _pair_counts(words, q: int, src, own) -> np.ndarray:
    """Joint-type count rows (int64) of the pairs (words[src[p]], words[own[p]])."""
    cls = words[src] * q
    cls += words[own]
    cls += np.arange(len(cls))[:, None] * (q * q)
    return np.bincount(cls.ravel(), minlength=len(cls) * q * q).reshape(-1, q * q)


def _type_rows(words, W: ChannelModel):
    """Distinct joint types of the N^2 ordered pairs (u_j, u_k) of N words,
    as count rows in the narrowest dtype that holds n: the own types (j = k)
    first, then the cross types (j != k), each in the byte order of their
    rows (np.unique's); the pairs of each type; and the number of own types.
    The pairs are counted j-major, as many at a time as keep their class ids
    (pairs x n) and counts (pairs x q^2) within ATOM_CHUNK entries each.
    The rows are a view past a leading cross flag, which sorts own types
    first and keeps a repeated word's own and cross types apart; merging
    the chunks' distinct rows holds about twice the table."""
    words, q = word_array(words, W), W.n_inputs
    size, n = words.shape
    step = max(ATOM_CHUNK // max(n, q * q), 1)
    chunks = []
    for start in range(0, size * size, step):
        src, own = np.divmod(np.arange(start, min(start + step, size * size)), size)
        rows = np.empty((len(src), 1 + q * q), dtype=np.min_scalar_type(n))
        rows[:, 0] = src != own
        rows[:, 1:] = _pair_counts(words, q, src, own)
        chunks.append(_distinct(rows, np.ones(len(src), dtype=np.int64)))
    rows, pairs = chunks[0]  # one chunk's rows are distinct already
    if len(chunks) > 1:
        rows, pairs = map(np.concatenate, zip(*chunks))
        chunks.clear()
        rows, pairs = _distinct(rows, pairs)
    return rows[:, 1:], pairs, len(rows) - int(np.count_nonzero(rows[:, 0]))


def typical_set_prob(W: ChannelModel, source_word, owner_word,
                     delta: float) -> tuple[float, float]:
    """Certified enclosure of P[Y^n in typical set of owner_word], Y^n drawn
    from the product law of source_word under W."""
    words, delta = word_array([source_word, owner_word], W), decoder_width(delta)
    lo, hi = JointTypeDP(W).count_probs(_pair_counts(words, W.n_inputs, [0], [1]), delta)
    return float(lo[0]), float(hi[0])


def brute_force_typical_prob(W: ChannelModel, source_word, owner_word,
                             delta: float) -> float:
    """Independent enumeration over all |Y|^n outputs (small n only)."""
    source_word, owner_word = word_array([source_word, owner_word], W)
    delta, n = decoder_width(delta), len(owner_word)
    if W.output_size**n > 1 << 22:
        raise SizeGuardError("enumeration too large")
    mass, stat = np.ones(1), np.zeros(1)
    for xs, xo in zip(source_word, owner_word):
        with np.errstate(divide="ignore"):
            logs = np.log2(W.matrix[xo])
        mass = np.kron(mass, W.matrix[xs])
        stat = (stat[:, None] + logs[None, :]).ravel()
    inside = np.abs(stat + word_output_entropy(W, owner_word)) <= delta * math.sqrt(n)
    return float(mass[inside].sum())


def _exponent(value: float, n: int) -> float:
    # 0.0 - x, not -x: a value of 1 gives 0.0, never -0.0
    return math.inf if value <= 0.0 else 0.0 - math.log2(value) / n


def exact_error_report(code: DICode, W: ChannelModel,
                       pair_budget: int = DEFAULT_PAIR_BUDGET) -> ErrorReport:
    """Certified error intervals and measured exponents via the exact DP.

    lambda1 is the worst miss max_j (1 - P_j[own typical set]), lambda2 the
    worst false accept over ordered codeword pairs; each distinct joint type
    evaluated gets the DP once, own and cross types in one `count_probs`
    call.  When N(N-1) exceeds the pair budget, the cross types are ranked
    by their Chernoff ceilings `false_accept_bound`, highest first, ties in
    row order, and a type is evaluated when fewer than pair_budget pairs
    precede it; `pairs_exact` counts every pair of an evaluated type.
    lambda2's hi keeps the largest skipped ceiling, `analytic_ceiling`: 0
    only if no live output word reaches the type, else at least the
    smallest positive double.  pair_mode is "exhaustive" when every type
    is evaluated, "pair-bound" when none is, else "screened".  A negative
    pair_budget raises ValidationError.
    """
    if pair_budget < 0:
        raise ValidationError(f"pair budget must be >= 0, got {pair_budget}")
    dp = JointTypeDP(W)
    rows, pairs, k = _type_rows(code.codewords, W)  # u_j against u_k's set
    cross, pairs = rows[k:], pairs[k:]
    evaluate, ceiling = np.ones(len(cross), dtype=bool), 0.0
    if code.size * (code.size - 1) > pair_budget:
        bound = false_accept_bound(dp, cross, code.delta)
        order = np.argsort(-bound, kind="stable")
        evaluate[order] = np.cumsum(pairs[order]) - pairs[order] < pair_budget
        top = float(np.max(bound[~evaluate], initial=-np.inf))
        ceiling = 0.0 if top == -np.inf else max(2.0**top, math.ulp(0.0))
    pair_mode = "exhaustive" if evaluate.all() else "screened" if evaluate.any() else "pair-bound"
    # every type evaluated: the table as it is, without a copy
    lo, hi = dp.count_probs(rows if evaluate.all() else np.concatenate(
        (rows[:k], cross[evaluate])), code.delta)
    worst = [float(np.max(p, initial=0.0)) for p in (1.0 - hi[:k], 1.0 - lo[:k], lo[k:], hi[k:])]
    l1, l2 = (worst[0], worst[1]), (worst[2], max(worst[3], ceiling))
    return ErrorReport(
        lambda1=l1, lambda2=l2, e1_measured=_exponent(l1[1], code.blocklength),
        e2_measured=_exponent(l2[1], code.blocklength), pair_mode=pair_mode,
        method="pair-bound" if pair_mode == "pair-bound" else "exact-dp",
        analytic_ceiling=ceiling if pair_mode != "exhaustive" else None,
        dp_types=len(lo), dp_states_max=dp.states_max, pairs_exact=int(pairs[evaluate].sum()))


def measure_lambda1(code: DICode, W: ChannelModel) -> tuple[float, float]:
    """Worst-case miss probability max_j (1 - P_j[own typical set]): the
    `lambda1` of `exact_error_report` at pair budget 0.  Kept only because
    the benchmark's tracer wraps it by name; call `exact_error_report`."""
    return exact_error_report(code, W, 0).lambda1


def measure_lambda2(code: DICode, W: ChannelModel,
                    pair_budget: int = DEFAULT_PAIR_BUDGET):
    """Worst-case false-accept probability over ordered codeword pairs, as
    ((lo, hi), pair_mode, analytic_ceiling or 0) of `exact_error_report`.
    Kept only because the benchmark's tracer wraps it by name; call
    `exact_error_report`."""
    r = exact_error_report(code, W, pair_budget)
    return r.lambda2, r.pair_mode, r.analytic_ceiling or 0.0


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
    (cumsum / last entry): the count of edges <= u; the last, 1.0, never is.
    Two outputs have one edge, so one compare."""
    if len(cdf) == 2:
        return np.greater_equal(u, cdf[0], out=out)
    return (u >= cdf[:-1, None]).sum(axis=0, dtype=out.dtype, out=out)


def _accept_table(tables, h, theta):
    """Owner tests of every output word, a 0/1 float64 [word, owner] table:
    word w's letters are its digits in radix |Y|, position 0 most
    significant.  The statistic grows one position at a time over the
    words' prefixes, so each (word, owner) cell is summed in position order
    from 0.0, as scoring the word alone sums it; the last step holds the
    table and its prefixes one position shorter."""
    stat = np.zeros((1, tables.shape[2]))
    for logs in tables:  # |Y| x N: log2 W(y | owner letter) at this position
        stat = (stat[:, None, :] + logs).reshape(-1, stat.shape[1])
    stat += h
    np.abs(stat, out=stat)
    return np.less_equal(stat, theta, out=stat)


def _rank(key):
    """Distinct keys renumbered 0..k-1 in order, and their count k."""
    uniq, key = np.unique(key, return_inverse=True)
    return key, uniq.size


def monte_carlo_errors(code: DICode, W: ChannelModel, trials: int, seed: int) -> ErrorReport:
    """Empirical error estimates with 95% Wilson intervals.

    Per codeword j a generator spawned from the master seed with spawn key
    (j,) draws `trials` output blocks from the product law of u_j, one
    rng.random(trials) per position mapped by `choice_letters` (rng.choice's
    stream); they score the owner test of u_j (first kind) and every other
    test (second kind).  A point-mass letter (no CDF edge strictly inside
    (0, 1)) takes no draws: the PCG64 stream is advanced by `trials` doubles.
    Either way the draws are the same; two paths score them:

    - Whole output space: when it has S = |Y|^n <= trials words and S x N is
      at most MC_TABLE_CELLS entries, every word is scored against every
      owner once (`_accept_table`, at most 2 S N additions); each codeword's
      trials are keyed by their whole word, counted by np.bincount to length
      S and tallied as counts @ table, exact in float64.  S <= trials caps
      the table at one codeword's trials scored one at a time: a code whose
      codewords draw few distinct words (mostly point-mass letters) can cost
      more here than per codeword, but never more than that.
    - Per codeword: each codeword's distinct output words are scored once
      and weighted by their counts, keyed by their random letters in mixed
      radix, ranked by np.unique wherever the key span would pass 2^63 or,
      at the end, `trials`, and counted by np.bincount.

    `mc_words_scored` is, on either path, the sum over codewords of the
    distinct output words each drew.  Results are bit-identical to scoring
    every trial.  MC_CELL_GUARD bounds n x trials; a negative seed raises
    ValidationError.

    What the intervals cover: `lambda1` is the 95% Wilson interval of the
    largest miss count over the N codewords, `lambda2` that of the largest
    false-accept count over the N(N-1) ordered pairs, which share samples.
    95% coverage holds for one codeword or pair fixed in advance; neither is
    a family-wise interval for the worst case, and the maximum of many noisy
    counts is biased upward.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    n = code.blocklength
    if n * trials > MC_CELL_GUARD:
        raise SizeGuardError(f"Monte Carlo draws of {n} x {trials} symbols "
                             f"exceed guard {MC_CELL_GUARD}")
    cdf = W.matrix.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    edges = cdf[:, :-1]
    point_mass = ~((edges > 0.0) & (edges < 1.0)).any(axis=1)
    # a point mass's letter: its edges at 0, which every u in [0, 1) passes
    point_letter = (edges == 0.0).sum(axis=1)
    theta = code.delta * math.sqrt(n)
    words = word_array(code.codewords, W)
    h = word_output_entropy(W, words)
    # per position, a |Y| x N table: log2 W(y | owner letter) for every owner
    tables = np.ascontiguousarray(W.log2[words].transpose(1, 2, 0))
    radix, space = W.output_size, W.output_size**n
    table, key_type = None, np.int64
    if space <= trials and space * code.size <= MC_TABLE_CELLS:
        table, key_type = _accept_table(tables, h, theta), np.min_scalar_type(space - 1)
    trial_ids = np.arange(trials)

    worst_miss = worst_false = scored = 0
    for j, word in enumerate(words):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        # outputs: n x trials letters; key: the whole word's index in the
        # table, else the mixed-radix id of the random letters
        y = np.empty((n, trials), dtype=np.min_scalar_type(radix - 1))
        key, span = np.zeros(trials, dtype=key_type), 1
        for i, x in enumerate(word):
            if point_mass[x]:
                rng.bit_generator.advance(trials)
                y[i] = point_letter[x]
                if table is None:
                    continue
            else:
                choice_letters(cdf[x], rng.random(trials), y[i])
            if span * radix > 1 << 63:
                key, span = _rank(key)
            key *= radix
            key += y[i]
            span *= radix
        if table is not None:
            counts = np.bincount(key, minlength=space)
            scored += int(np.count_nonzero(counts))
            accepted = (counts @ table).astype(np.int64)
        else:
            if span > trials:
                key, _ = _rank(key)
            counts = np.bincount(key)
            # all trials of a key carry one word, so any one can stand for it
            first = np.empty(counts.size, dtype=np.int64)
            first[key] = trial_ids
            seen = np.flatnonzero(counts)
            first, counts = first[seen], counts[seen]
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
        lambda1=l1, lambda2=l2, e1_measured=_exponent(l1[1], n),
        e2_measured=_exponent(l2[1], n),
        method="monte-carlo", trials=trials, seed=seed, mc_words_scored=scored)
