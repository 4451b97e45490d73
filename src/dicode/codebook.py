"""Identification-code construction: parameter couplings, letter packing,
minimum-distance codes, and entropy binning.

The pipeline turns a target error exponent E and a Hamming fraction t into a
code whose decision sets are entropy-typical sets:

    derive_params -> build_letter_alphabet -> distance_code -> entropy_binning

Parameter couplings (c = 1/(36 K(|Y|)) from infodist):

    beta = (6 E / (c t^2))^(1/4)      letter packing radius
    tau  = (sqrt(2) - 1) t beta^2     typicality slope, delta = tau sqrt(n)

valid while c t beta^2 <= 1; the guarantee degrades gracefully and is flagged
outside that regime.  The construction is fully deterministic.

The greedy distance code is the lexicode.  Both of its paths hold [q]^n as
one table indexed by word rank, first symbol most significant, so rank order
is lexicographic order; the Hamming distances of a table's words to a given
word are the outer sum of the two halves' tables.  For q = 2^b the bits of
a rank are the word's symbols, so the XOR of two ranks is their symbol-wise
nim-sum.  Such a lexicode is closed under that XOR (Conway and Sloane,
"Lexicographic codes: error-correcting codes from game theory", IEEE Trans.
IT 32, 1986), so it is built from its basis with one bit table, about 2
bytes per candidate word at its peak.  Every other q is scanned over a bool
table of the words still alive: each pick is the first of them, and the
words within distance t*n of it are cleared from its first-half block on,
about 3 bytes per candidate word.  GREEDY_SCAN_LIMIT bounds the q^n
candidate words, and with them the memory of both paths, before any is
built.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .bounds import entropy_bin_count, packing_radius, thm1_rate
from .channel import ChannelModel
from .errors import SizeGuardError, ValidationError
from .geometry import max_packing
from .infodist import typicality_constants

#: refuse greedy scans beyond this many candidate words
GREEDY_SCAN_LIMIT = 1 << 24
#: refuse materializing linear codes beyond this many codewords
LINEAR_SIZE_LIMIT = 1 << 20

SQRT2_M1 = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class CodeParams:
    """Derived construction parameters for one (E, t, |Y|, n) choice."""

    n: int
    t: float
    E_target: float
    beta: float
    tau: float
    delta: float          # tau * sqrt(n)
    c: float
    K: float
    y_size: int
    remark_trivial: bool      # beta > 1/sqrt(2): one letter, rate 0
    guarantee_valid: bool     # c t beta^2 <= 1 and delta within range
    lambda1_ceiling: float    # 2 exp(-c tau^2 n)
    lambda2_ceiling: float    # 5 exp(-c tau^2 n)
    e1_floor: float           # E - 1/n
    e2_floor: float           # E - 3/n


@dataclass(frozen=True, eq=False)
class DICode:
    """A code: letters, codewords and decoder data, from which its rate,
    minimum distance and entropy bin are derived.  Both arrays are
    read-only; words not of params.n letters, and a delta or entropies that
    are not finite numbers >= 0 (a bool delta is none), are refused."""

    letter_alphabet: tuple[int, ...]       # channel input indices
    codewords: np.ndarray                  # (N, n) int64 channel input indices
    delta: float
    entropies: np.ndarray                  # (N,) H of each codeword's output, bits
    params: CodeParams
    rate_floor: float                      # construction guarantee on the rate

    def __post_init__(self):
        words, ents = np.array(word_array(self.codewords)), np.array(self.entropies, dtype=float)
        if words.shape[1] != self.params.n or ents.shape != words.shape[:1]:
            raise ValidationError(f"need words of n = {self.params.n} letters, one entropy each")
        if not (np.isfinite(ents).all() and ents.min() >= 0):
            raise ValidationError("entropies must be finite non-negative numbers of bits")
        object.__setattr__(self, "delta", decoder_width(self.delta))
        for name, value in (("codewords", words), ("entropies", ents)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def blocklength(self) -> int:
        return self.params.n

    @property
    def rate(self) -> float:
        return math.log2(self.size) / self.params.n

    @cached_property
    def min_hamming(self) -> int:
        return min_pairwise_hamming(self.codewords)

    @property
    def entropy_bin(self) -> tuple[float, float]:
        """The unit bin of the lowest entropy, capped as entropy_binning caps
        it; for a constructed code, the bin of every word."""
        last = entropy_bin_count(self.params.n, self.params.y_size)
        s = min(last, math.floor(self.entropies.min()) + 1)
        return float(s - 1), float(s)


def word_array(words, W: ChannelModel | None = None) -> np.ndarray:
    """The one word rule: words as an (N, n) int64 array, an int64 array as
    it is (no copy).  No words, words of unequal length, letters that are
    not integers (a bool is none) and, given W, letters outside its inputs
    0..q-1 (without W, negative ones) raise ValidationError."""
    try:
        array = np.asarray(words)
    except ValueError:  # words of unequal length
        array = np.array(())
    if array.dtype.kind not in "iu" or array.ndim != 2 or not array.size or (
            # a JSON true among integer letters would read as letter 1
            not isinstance(words, np.ndarray)
            and any(isinstance(x, (bool, np.bool_)) for word in words for x in word)):
        raise ValidationError("codewords must be non-empty words of equal length "
                              "over integer letters 0, 1, ...")
    array = array.astype(np.int64, copy=False)  # a uint64 past 2^63 turns negative
    low, high = array.min(), array.max()
    if low < 0 or W is not None and high >= W.n_inputs:
        raise ValidationError(f"letter {low if low < 0 else high} is not a channel input")
    return array


def decoder_width(delta) -> float:
    """delta as a float if it is a finite number >= 0 (a bool is none), else ValidationError."""
    if isinstance(delta, bool) or not isinstance(delta, (int, float)) \
            or not 0 <= delta < math.inf:
        raise ValidationError(f"delta must be a finite number >= 0, got {delta!r}")
    return float(delta)


def derive_params(E: float, t: float, y_size: int, n: int) -> CodeParams:
    """Couple an exponent target E > 0 and distance fraction t into (beta, tau).

    The trivial regime (beta > 1/sqrt(2), i.e. E > c t^2 / 24) is flagged,
    not rejected: the square-root outputs have diameter sqrt(2), so no two
    letters are 2 beta apart, the code has one word and its rate is 0.  The
    same goes for c t beta^2 > 1 where the error guarantee no longer holds.
    """
    if not 0 < E < math.inf:
        raise ValidationError("exponent target must be positive and finite")
    if not 0 < t < 1:
        raise ValidationError("distance fraction t must lie in (0, 1)")
    if n < 1:
        raise ValidationError("blocklength must be >= 1")
    K, c = typicality_constants(y_size)
    beta = packing_radius(E, t, y_size)
    tau = SQRT2_M1 * t * beta * beta
    delta = tau * math.sqrt(n)
    decay = math.exp(-c * tau * tau * n)
    return CodeParams(
        n=n, t=t, E_target=E, beta=beta, tau=tau, delta=delta, c=c, K=K,
        y_size=y_size,
        remark_trivial=beta > math.sqrt(0.5),
        guarantee_valid=(c * t * beta * beta <= 1.0) and (tau <= math.log2(y_size)),
        lambda1_ceiling=2.0 * decay,
        lambda2_ceiling=5.0 * decay,
        e1_floor=E - 1.0 / n,
        e2_floor=E - 3.0 / n,
    )


def build_letter_alphabet(W: ChannelModel, beta: float):
    """Greedy packing of the square-root output cloud at radius beta, as a
    geometry CountResult whose center_indices are channel inputs."""
    return max_packing(W.sqrt_cloud, beta)


def distance_code(q: int, n: int, t: float, mode: str = "greedy") -> np.ndarray:
    """Maximal code over [q]^n with pairwise Hamming distance > t*n (int64).

    greedy: the lexicode, each word of [q]^n in lexicographic order kept iff
    it is compatible with all kept words.  Maximality gives the counting
    guarantee |C| >= q^(n(1-t)) 2^(-n H(t,1-t)).  Both paths pick word ranks
    (see the module docstring): for q = 2^b the code is the XOR span of a
    basis found from a bit table of compatible words; for any other q each
    pick is the first word left alive in a bool table.  More than
    GREEDY_SCAN_LIMIT (2^24) candidates raise SizeGuardError before any
    array is allocated.
    linear: Reed-Solomon over the largest prime p <= q (needs n <= p), an
    explicit maximum-distance-separable code with d = floor(t n) + 1; after
    a greedy refusal it applies only when q >= 11 and 7 <= n <= p.
    """
    if q < 1 or n < 1:
        raise ValidationError("need q >= 1 and n >= 1")
    if not 0 < t < 1:
        raise ValidationError("distance fraction t must lie in (0, 1)")
    if q == 1:
        return np.zeros((1, n), dtype=np.int64)
    min_excl = t * n  # required: d_H > min_excl

    if mode == "linear":
        return _reed_solomon_code(q, n, t)
    if mode != "greedy":
        raise ValidationError(f"unknown code mode {mode!r}")

    total = q**n
    if total > GREEDY_SCAN_LIMIT:
        raise SizeGuardError(
            f"greedy scan over {total} words refused; mode='linear' needs "
            f"n <= {_largest_prime_leq(q)}, the largest prime <= q")
    lexicode = _xor_lexicode if q & (q - 1) == 0 else _scan_lexicode
    return np.stack(np.unravel_index(lexicode(q, n, min_excl), (q,) * n), axis=1)


def _scan_lexicode(q: int, n: int, min_excl: float) -> np.ndarray:
    """Ranks of the lexicode by a scan: each pick is the first word still
    alive, and the words within distance min_excl of it die.  The words of
    first-half blocks before the pick's are dead already, so the update
    starts at the pick's block."""
    block, cut, limit = q ** (n // 2), n - n // 2, math.floor(min_excl)
    alive = np.ones(q**n, bool)
    picks, i = [], 0
    while alive[i]:
        picks.append(i)
        word, top = np.unravel_index(i, (q,) * n), i // block
        d = np.add.outer(_distances(q, word[:cut])[top:], _distances(q, word[cut:]))
        alive[top * block:] &= d.ravel() > limit
        i += int(alive[i:].argmax())
    return np.array(picks, np.int64)


#: masks of the bit positions p < 64 whose bit s is clear, for s = 0..5
_SWAP_MASKS = tuple(np.uint64(sum(1 << p for p in range(64) if not p >> s & 1))
                    for s in range(6))


def _xor_lexicode(q: int, n: int, min_excl: float) -> np.ndarray:
    """Ranks of the lexicode for q = 2^b, from its basis.  The code is the
    span of g_0, g_1, ... under XOR of ranks, g_j the smallest word
    compatible with the span of the earlier ones.  A bit table marks the
    words compatible with the span; adding g keeps x iff it kept x and x ^ g."""
    # word x is bit x & 63 of the table's uint64 word x >> 6; integer weights
    # exceed t*n iff they exceed its floor, which keeps the comparison in uint8
    table = np.packbits(_distances(q, (0,) * n) > math.floor(min_excl), bitorder="little")
    table = np.pad(table, (0, -table.size % 8)).view("<u8")
    index = np.arange(table.size)
    words = np.zeros(1, np.int64)
    while (nonzero := np.flatnonzero(table)).size:
        low_word = int(table[nonzero[0]])
        g = 64 * int(nonzero[0]) + (low_word & -low_word).bit_length() - 1
        words = np.concatenate((words, words ^ g))
        moved = table[index ^ (g >> 6)]
        for s in range(6):
            if g >> s & 1:  # swap the bits p and p ^ 2^s in every word
                shift, mask = 1 << s, _SWAP_MASKS[s]
                moved = ((moved >> shift) & mask) | ((moved & mask) << shift)
        table &= moved
    # each g_j tops the span before it, so the words are in increasing order
    return words


def _distances(q: int, word: tuple) -> np.ndarray:
    """Hamming distance to `word` of each word of [q]^len(word) (uint8), in
    rank order, by the outer sum of the two halves' tables."""
    if not word:  # the empty second half of a one-symbol word
        return np.zeros(1, np.uint8)
    if len(word) == 1:
        return (np.arange(q) != word[0]).astype(np.uint8)
    lo = len(word) // 2
    return np.add.outer(_distances(q, word[:-lo]), _distances(q, word[-lo:])).ravel()


def _largest_prime_leq(q: int) -> int:
    """The largest prime p <= q, for q >= 2."""
    return next(p for p in range(q, 1, -1) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _reed_solomon_code(q: int, n: int, t: float) -> np.ndarray:
    p = _largest_prime_leq(q)
    if n > p:
        raise ValidationError(f"linear mode needs n <= field size ({n} > {p})")
    k = n - math.floor(t * n)  # distance n - k + 1 = floor(t n) + 1 > t n
    if p**k > LINEAR_SIZE_LIMIT:
        raise SizeGuardError(f"linear code with {p}^{k} words refused")
    # generator rows x^i at the points x = 0..n-1; messages in lexicographic
    # order, first symbol most significant
    powers = np.arange(n)[:, None] ** np.arange(k) % p
    messages = np.indices((p,) * k).reshape(k, -1).T
    return messages @ powers.T % p


def word_output_entropy(W: ChannelModel, words):
    """Entropy in bits of the product output distribution of one word (a
    float), or of each row of an (N, n) array: the letter entropies summed in
    position order from +0.0, so a word of deterministic letters reads 0.0."""
    h = np.cumsum(np.take(W.entropies, words), axis=-1)[..., -1] + 0.0
    return float(h) if h.ndim == 0 else h


def entropy_binning(codewords: np.ndarray, W: ChannelModel):
    """Keep the largest sub-code whose output entropies fall in one unit bin.

    Bins are [s-1, s] for s = 1..ceil(n log2 |Y|); by pigeonhole the kept
    sub-code has at least |code| / ceil(n log2 |Y|) words.  The fullest bin
    wins, the lowest s on ties.  Returns (kept_codewords, (s-1, s),
    kept_entropies), the words and entropies as arrays in code order.
    """
    if not len(codewords):
        raise ValidationError("cannot bin an empty code")
    n_bins = entropy_bin_count(codewords.shape[1], W.output_size)
    ents = word_output_entropy(W, codewords)
    bins = np.minimum(n_bins, np.floor(ents).astype(np.int64) + 1)
    best_s = int(np.argmax(np.bincount(bins)))
    kept = bins == best_s
    return codewords[kept], (float(best_s - 1), float(best_s)), ents[kept]


def min_pairwise_hamming(codewords) -> int:
    """Exact minimum pairwise Hamming distance (n for single-word codes)."""
    words = np.asarray(codewords)
    return min((int((words[i + 1:] != words[i]).sum(axis=1).min())
                for i in range(len(words) - 1)), default=words.shape[1])


def construct(W: ChannelModel, n: int, E: float, t: float,
              code_mode: str = "greedy") -> DICode:
    """Full construction pipeline for one channel and target (n, E, t).

    The reported rate_floor is Theorem 1's guaranteed rate at the letter
    count |X0| that greedy packing finds,
        (1-t) log2 |X0| - H(t,1-t) - log2(ceil(n log2 |Y|)) / n
    (`bounds.thm1_rate`), which the achieved rate always meets or exceeds.
    It equals `bounds.thm1_lower` where greedy packing is maximum.
    """
    params = derive_params(E, t, W.output_size, n)
    letters = build_letter_alphabet(W, params.beta).center_indices
    letter_words = distance_code(len(letters), n, t, mode=code_mode)
    kept, _, ents = entropy_binning(np.array(letters)[letter_words], W)
    return DICode(letters, kept, params.delta, ents, params,
                  thm1_rate(len(letters), t, n, W.output_size))


def assemble_code(W: ChannelModel, codewords, delta: float) -> DICode:
    """Wrap explicit codewords and a decoder width into a DICode.

    Useful for evaluating hand-picked codes; no rate guarantee is attached
    (rate_floor is -inf).  The params record is back-solved so that the
    stored tau * sqrt(n) equals the requested delta; tau does not depend on
    t, which it records as 1/2.  Every letter must be an input of W, and
    delta must imply a positive finite exponent target (0 or 1e-300 do not).
    """
    words, delta = word_array(codewords, W), decoder_width(delta)
    n = words.shape[1]
    _, c = typicality_constants(W.output_size)
    tau = delta / math.sqrt(n)
    # invert tau = (sqrt(2)-1) t beta^2 and E = c t^2 beta^4 / 6
    e_implied = c * tau * tau * (3.0 + 2.0 * math.sqrt(2.0)) / 6.0
    if not 0 < e_implied < math.inf:
        raise ValidationError(f"delta = {delta!r} gives exponent target {e_implied!r}, "
                              "not a positive finite one")
    return DICode(tuple(np.unique(words).tolist()), words, delta, word_output_entropy(W, words),
                  derive_params(e_implied, 0.5, W.output_size, n), -math.inf)


def code_to_json(code: DICode) -> str:
    """Serialize a code to the interchange JSON layout; "params" also holds
    the derived facts (letter packing is greedy, so no count is exact)."""
    derived = {"min_hamming": code.min_hamming, "entropy_bin": code.entropy_bin,
               "rate": code.rate, "rate_floor": code.rate_floor, "letter_count_exact": False}
    payload = {
        "params": asdict(code.params) | derived,
        "letter_alphabet": list(code.letter_alphabet),
        "codewords": code.codewords.tolist(),
        "delta": code.delta,
        "entropies": code.entropies.tolist(),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def check_code_channel(code: DICode, W: ChannelModel) -> None:
    """Refuse, with a ValidationError naming the field, a code that does not
    belong to W: a `y_size` not W's, words whose letters are not inputs of W,
    a `letter_alphabet` that is not distinct inputs of W holding every letter
    the words use, or `entropies` that differ in any bit from
    `word_output_entropy(W, words)`.  A code file for another channel fails
    here, before any evaluation would ignore these fields."""
    if code.params.y_size != W.output_size:
        raise ValidationError(f"y_size {code.params.y_size!r} is not the channel's "
                              f"{W.output_size} outputs")
    words = word_array(code.codewords, W)
    try:
        letters = word_array([code.letter_alphabet], W)[0]
    except ValidationError:
        letters = None
    if letters is None or len(np.unique(letters)) < len(letters) \
            or np.setdiff1d(words, letters).size:
        raise ValidationError("letter_alphabet must be distinct inputs of the channel "
                              "holding every letter of the codewords")
    if code.entropies.tobytes() != word_output_entropy(W, words).tobytes():
        raise ValidationError("entropies differ from the channel's output entropies "
                              "of the codewords")


def code_from_json(text: str) -> DICode:
    """Read a code from the interchange JSON layout: its codewords,
    letter_alphabet, delta, entropies, rate_floor (-inf or `bounds.thm1_rate`),
    E_target, t, y_size and n; a key or value it would not write is refused."""
    payload = json.loads(text)
    p, letters = payload["params"], tuple(payload["letter_alphabet"])
    floor = p.get("rate_floor")
    if floor != -math.inf:
        floor = thm1_rate(len(letters), p["t"], p["n"], p["y_size"])
    code = DICode(letters, payload["codewords"], payload["delta"], payload["entropies"],
                  derive_params(p["E_target"], p["t"], p["y_size"], p["n"]), floor)
    layout = json.loads(code_to_json(code))
    stale = sorted(key for read, wrote in ((payload, layout), (p, layout["params"]))
                   for key in (read.keys() | wrote.keys()) - {"params"}
                   if key not in read.keys() & wrote.keys()
                   or json.dumps(read[key]) != json.dumps(wrote[key]))
    if stale:
        raise ValidationError(f"{' and '.join(stale)} differ{'s' * (len(stale) == 1)} from the "
                              "layout the code writes (a stale value or an unread key)")
    return code
