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

The greedy distance code scans packed words: each word of [q]^n is one
unsigned integer (4 bytes, or 8 when bit_length(q-1) * n > 32) holding n
fields of bit_length(q-1) bits, first symbol most significant, so integer
order is lexicographic order.  A Hamming distance is a XOR, a fold of each
field onto its lowest bit and a popcount.  GREEDY_SCAN_LIMIT bounds the q^n
candidate words, and with them the scan's memory, before any is built.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .channel import ChannelModel
from .errors import SizeGuardError, ValidationError
from .geometry import cloud_from_channel, max_packing
from .infodist import binary_entropy, letter_tables, typicality_constants

#: refuse greedy scans beyond this many candidate words
GREEDY_SCAN_LIMIT = 1 << 24
#: candidate words compared with each greedy pick at a time
SCAN_BLOCK = 1 << 16
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
    remark_trivial: bool      # packing radius beta >= sqrt(2): bound vacuous
    guarantee_valid: bool     # c t beta^2 <= 1 and delta within range
    lambda1_ceiling: float    # 2 exp(-c tau^2 n)
    lambda2_ceiling: float    # 5 exp(-c tau^2 n)
    e1_floor: float           # E - 1/n
    e2_floor: float           # E - 3/n


@dataclass(frozen=True)
class TypicalSetSpec:
    """Decoder data for one codeword: accept y^n iff the word's output
    log-probability sits within delta * sqrt(n) of minus its entropy."""

    owner_word: tuple[int, ...]
    delta: float
    owner_entropy: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValidationError("decoder width must be nonnegative")
        object.__setattr__(self, "owner_word", tuple(self.owner_word))

    def width_in_range(self, y_size: int) -> bool:
        return self.delta <= math.sqrt(len(self.owner_word)) * math.log2(y_size)


@dataclass(frozen=True)
class DICode:
    """A constructed code: letters, codewords, and typical-set decoder data."""

    letter_alphabet: tuple[int, ...]       # channel input indices
    codewords: tuple[tuple[int, ...], ...]  # channel input index sequences
    delta: float
    entropies: tuple[float, ...]           # H of each codeword's output, bits
    min_hamming: int
    entropy_bin: tuple[float, float]
    params: CodeParams
    rate: float
    rate_floor: float                      # construction guarantee on the rate
    letter_count_exact: bool

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def blocklength(self) -> int:
        return self.params.n

    def decoder_spec(self, j: int) -> TypicalSetSpec:
        return TypicalSetSpec(self.codewords[j], self.delta, self.entropies[j])


def derive_params(E: float, t: float, y_size: int, n: int) -> CodeParams:
    """Couple an exponent target E > 0 and distance fraction t into (beta, tau).

    The trivial regime (beta >= sqrt(2), i.e. E >= 2 c t^2 / 3) is flagged,
    not rejected; the same goes for c t beta^2 > 1 where the error guarantee
    no longer holds.
    """
    if E <= 0:
        raise ValidationError("exponent target must be positive")
    if not 0 < t < 1:
        raise ValidationError("distance fraction t must lie in (0, 1)")
    if n < 1:
        raise ValidationError("blocklength must be >= 1")
    K, c = typicality_constants(y_size)
    beta = (6.0 * E / (c * t * t)) ** 0.25
    tau = SQRT2_M1 * t * beta * beta
    delta = tau * math.sqrt(n)
    decay = math.exp(-c * tau * tau * n)
    return CodeParams(
        n=n, t=t, E_target=E, beta=beta, tau=tau, delta=delta, c=c, K=K,
        y_size=y_size,
        remark_trivial=beta >= math.sqrt(2.0),
        guarantee_valid=(c * t * beta * beta <= 1.0) and (tau <= math.log2(y_size)),
        lambda1_ceiling=2.0 * decay,
        lambda2_ceiling=5.0 * decay,
        e1_floor=E - 1.0 / n,
        e2_floor=E - 3.0 / n,
    )


def build_letter_alphabet(W: ChannelModel, beta: float, mode: str = "greedy"):
    """Packing of the square-root output cloud at radius beta.

    Returns the geometry PackingResult; center_indices are channel inputs.
    """
    cloud = cloud_from_channel(W, "sqrt")
    return max_packing(cloud, beta, mode=mode)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a != b).sum(axis=-1)


def distance_code(q: int, n: int, t: float, mode: str = "greedy") -> list[tuple[int, ...]]:
    """Maximal code over [q]^n with pairwise Hamming distance > t*n.

    greedy: lexicographic scan keeping every word compatible with all kept
    words (the lexicode).  Maximality gives the counting guarantee
    |C| >= q^(n(1-t)) 2^(-n H(t,1-t)).  Candidates are packed words, 4 or 8
    bytes each (see the module docstring); each pick compares the surviving
    candidates with it in blocks of SCAN_BLOCK words and compacts them in
    place, so memory is the q^n-word array plus small buffers.  More than
    GREEDY_SCAN_LIMIT (2^24) candidates raise SizeGuardError before any
    array is allocated.
    linear: Reed-Solomon over the largest prime p <= q (needs n <= p), an
    explicit maximum-distance-separable code with d = floor(t n) + 1.
    """
    if q < 1 or n < 1:
        raise ValidationError("need q >= 1 and n >= 1")
    if not 0 < t < 1:
        raise ValidationError("distance fraction t must lie in (0, 1)")
    if q == 1:
        return [tuple([0] * n)]
    min_excl = t * n  # required: d_H > min_excl

    if mode == "linear":
        return _reed_solomon_code(q, n, t)
    if mode != "greedy":
        raise ValidationError(f"unknown code mode {mode!r}")

    total = q**n
    if total > GREEDY_SCAN_LIMIT:
        raise SizeGuardError(
            f"greedy scan over {total} words refused; use mode='linear'")

    bits = (q - 1).bit_length()
    # q^n <= 2^24 keeps bits * n <= 30; uint64 keeps a raised limit correct
    dtype = np.uint32 if bits * n <= 32 else np.uint64
    cand = _packed_words(q, n, bits, dtype)
    # one bit at the bottom of each field; a field's bits are ORed onto it by
    # x |= x >> s with shifts that never reach into the next field
    low = dtype(sum(1 << (bits * i) for i in range(n)))
    folds = []
    span = 1
    while span < bits:
        folds.append(min(span, bits - span))
        span += folds[-1]
    x_buf = np.empty(SCAN_BLOCK, dtype)
    tmp_buf = np.empty(SCAN_BLOCK, dtype)
    kept = []
    size = cand.size
    while size:
        pick = cand[0]
        kept.append(pick)
        # compact the survivors in place, block by block, to the array front
        out = 0
        for start in range(0, size, SCAN_BLOCK):
            block = cand[start:min(size, start + SCAN_BLOCK)]
            x = np.bitwise_xor(block, pick, out=x_buf[:block.size])
            tmp = tmp_buf[:block.size]
            for s in folds:
                np.right_shift(x, s, out=tmp)
                x |= tmp
            x &= low
            survivors = block[np.bitwise_count(x) > min_excl]
            cand[out:out + survivors.size] = survivors
            out += survivors.size
        size = out
    return _unpack_words(np.array(kept, dtype), n, bits)


def _packed_words(q: int, n: int, bits: int, dtype) -> np.ndarray:
    """All of [q]^n, each word one integer of n `bits`-bit fields with the
    first symbol in the most significant field, in itertools.product order."""
    words = np.zeros(1, dtype)
    digits = np.arange(q, dtype=dtype)
    for _ in range(n):
        words = ((words << bits)[:, None] | digits).ravel()
    return words


def _unpack_words(words: np.ndarray, n: int, bits: int) -> list[tuple[int, ...]]:
    shifts = np.array([bits * (n - 1 - i) for i in range(n)], dtype=words.dtype)
    digits = (words[:, None] >> shifts) & words.dtype.type((1 << bits) - 1)
    return [tuple(w) for w in digits.tolist()]


def _largest_prime_leq(q: int) -> int:
    for p in range(q, 1, -1):
        if all(p % d for d in range(2, int(math.isqrt(p)) + 1)):
            return p
    raise ValidationError("no prime field available below alphabet size")


def _reed_solomon_code(q: int, n: int, t: float) -> list[tuple[int, ...]]:
    p = _largest_prime_leq(q)
    if n > p:
        raise ValidationError(f"linear mode needs n <= field size ({n} > {p})")
    k = n - math.floor(t * n)  # distance n - k + 1 = floor(t n) + 1 > t n
    if p**k > LINEAR_SIZE_LIMIT:
        raise SizeGuardError(f"linear code with {p}^{k} words refused")
    xs = np.arange(n) % p
    powers = np.array([[pow(int(x), i, p) for i in range(k)] for x in xs])
    code = []
    for msg in itertools.product(range(p), repeat=k):
        cw = (powers @ np.array(msg)) % p
        code.append(tuple(int(v) for v in cw))
    return code


def word_output_entropy(W: ChannelModel, word) -> float:
    """Entropy in bits of the product output distribution of a word."""
    ents = letter_tables(W)[0]
    return float(sum(ents[x] for x in word))


def entropy_binning(codewords, W: ChannelModel):
    """Keep the largest sub-code whose output entropies fall in one unit bin.

    Bins are [s-1, s] for s = 1..ceil(n log2 |Y|); by pigeonhole the kept
    sub-code has at least |code| / ceil(n log2 |Y|) words.  Returns
    (kept_codewords, (s-1, s), kept_entropies).
    """
    codewords = list(codewords)
    if not codewords:
        raise ValidationError("cannot bin an empty code")
    n = len(codewords[0])
    n_bins = max(1, math.ceil(n * math.log2(W.output_size)))
    ents = [word_output_entropy(W, w) for w in codewords]
    bins: dict[int, list[int]] = {}
    for i, h in enumerate(ents):
        s = min(n_bins, math.floor(h) + 1)
        bins.setdefault(s, []).append(i)
    best_s = min(bins, key=lambda s: (-len(bins[s]), s))
    kept = bins[best_s]
    return ([codewords[i] for i in kept], (float(best_s - 1), float(best_s)),
            [ents[i] for i in kept])


def min_pairwise_hamming(codewords) -> int:
    """Exact minimum pairwise Hamming distance (n for single-word codes)."""
    words = np.asarray(codewords)
    if words.shape[0] < 2:
        return int(words.shape[1])
    best = words.shape[1]
    for i in range(words.shape[0] - 1):
        best = min(best, int(_hamming(words[i + 1:], words[i]).min()))
    return best


def construct(W: ChannelModel, n: int, E: float, t: float,
              code_mode: str = "greedy") -> DICode:
    """Full construction pipeline for one channel and target (n, E, t).

    The reported rate_floor is the guaranteed rate
        (1-t) log2 |X0| - H(t,1-t) - log2(ceil(n log2 |Y|)) / n
    which the achieved rate always meets or exceeds.
    """
    params = derive_params(E, t, W.output_size, n)
    pack = build_letter_alphabet(W, params.beta)
    letters = pack.center_indices
    q = len(letters)

    letter_words = distance_code(q, n, t, mode=code_mode)
    codewords = [tuple(letters[i] for i in w) for w in letter_words]
    kept, ent_bin, ents = entropy_binning(codewords, W)

    n_bins = max(1, math.ceil(n * math.log2(W.output_size)))
    rate = math.log2(len(kept)) / n
    rate_floor = ((1 - t) * math.log2(q) - binary_entropy(t)
                  - math.log2(n_bins) / n)
    return DICode(
        letter_alphabet=tuple(letters),
        codewords=tuple(kept),
        delta=params.delta,
        entropies=tuple(ents),
        min_hamming=min_pairwise_hamming(kept),
        entropy_bin=ent_bin,
        params=params,
        rate=rate,
        rate_floor=rate_floor,
        letter_count_exact=pack.exact,
    )


def assemble_code(W: ChannelModel, codewords, delta: float, t: float = 0.5) -> DICode:
    """Wrap explicit codewords and a decoder width into a DICode.

    Useful for evaluating hand-picked codes; no rate guarantee is attached
    (rate_floor is -inf).  The params record is back-solved so that the
    stored tau * sqrt(n) equals the requested delta.
    """
    codewords = [tuple(w) for w in codewords]
    if not codewords:
        raise ValidationError("need at least one codeword")
    n = len(codewords[0])
    if any(len(w) != n for w in codewords):
        raise ValidationError("codewords must share one blocklength")
    _, c = typicality_constants(W.output_size)
    tau = delta / math.sqrt(n)
    # invert tau = (sqrt(2)-1) t beta^2 and E = c t^2 beta^4 / 6
    e_implied = c * tau * tau * (3.0 + 2.0 * math.sqrt(2.0)) / 6.0
    params = derive_params(e_implied, t, W.output_size, n)
    letters = tuple(sorted({x for w in codewords for x in w}))
    ents = [word_output_entropy(W, w) for w in codewords]
    return DICode(
        letter_alphabet=letters,
        codewords=tuple(codewords),
        delta=delta,
        entropies=tuple(ents),
        min_hamming=min_pairwise_hamming(codewords),
        entropy_bin=(math.floor(min(ents)), math.floor(min(ents)) + 1.0),
        params=params,
        rate=math.log2(len(codewords)) / n,
        rate_floor=-math.inf,
        letter_count_exact=False,
    )


def code_to_json(code: DICode) -> str:
    """Serialize a code to the interchange JSON layout."""
    payload = {
        "params": asdict(code.params) | {
            "min_hamming": code.min_hamming,
            "entropy_bin": list(code.entropy_bin),
            "rate": code.rate,
            "rate_floor": code.rate_floor,
            "letter_count_exact": code.letter_count_exact,
        },
        "letter_alphabet": list(code.letter_alphabet),
        "codewords": [list(w) for w in code.codewords],
        "delta": code.delta,
        "entropies": list(code.entropies),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def code_from_json(text: str) -> DICode:
    payload = json.loads(text)
    p = dict(payload["params"])
    extras = {k: p.pop(k) for k in
              ("min_hamming", "entropy_bin", "rate", "rate_floor", "letter_count_exact")}
    params = CodeParams(**p)
    return DICode(
        letter_alphabet=tuple(payload["letter_alphabet"]),
        codewords=tuple(tuple(w) for w in payload["codewords"]),
        delta=float(payload["delta"]),
        entropies=tuple(float(h) for h in payload["entropies"]),
        min_hamming=int(extras["min_hamming"]),
        entropy_bin=tuple(extras["entropy_bin"]),
        params=params,
        rate=float(extras["rate"]),
        rate_floor=float(extras["rate_floor"]),
        letter_count_exact=bool(extras["letter_count_exact"]),
    )
