"""Distances, divergences, entropies, and the typicality constants.

Conventions fixed here and used everywhere downstream:
  * divergences and entropies are returned in bits,
  * 0 * log 0 = 0 and log 0 = -inf.
The screening ceiling on a joint type's false-accept probability is a
Chernoff bound read from the exact DP's tables (`evaluator.false_accept_bound`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeGuardError, ValidationError

#: refuse exact hypothesis-testing computations above this many outcomes
HT_OUTCOME_GUARD = 10**7


def fidelity(p, q) -> float:
    """Bhattacharyya coefficient sum_y sqrt(p(y) q(y)), in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("distributions live on different alphabets")
    return float(np.sqrt(p * q).sum())


def sqrt_embed(p) -> np.ndarray:
    """Map a distribution to the unit vector of componentwise square roots."""
    return np.sqrt(np.asarray(p, dtype=float))


def entropy(p) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def binary_entropy(t: float) -> float:
    """H(t, 1-t) in bits; defined as 0 at the endpoints."""
    if not 0 <= t <= 1:
        raise ValidationError(f"binary entropy argument {t} outside [0, 1]")
    if t in (0.0, 1.0):
        return 0.0
    return -t * math.log2(t) - (1 - t) * math.log2(1 - t)


def hypothesis_testing_divergence(p, q, eps: float) -> float:
    """Optimal-test divergence -log Q(acceptance) at P-rejection budget eps.

    The randomized optimum sorts outcomes by likelihood ratio P/Q (descending)
    and fills the acceptance region greedily, splitting the boundary outcome
    fractionally so that exactly 1 - eps of P is accepted.

    Returns bits; +inf when the accepted Q-mass is zero.
    """
    if not 0 <= eps < 1:
        raise ValidationError("eps must lie in [0, 1)")
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise ValidationError("distributions live on different alphabets")
    if p.size > HT_OUTCOME_GUARD:
        raise SizeGuardError(f"alphabet of {p.size} outcomes exceeds exact-test guard")

    # likelihood ratio with q=0 treated as +inf (always accepted first)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")

    need = 1.0 - eps
    q_mass = 0.0
    p_acc = 0.0
    for idx in order:
        if p_acc >= need - 1e-15:
            break
        pi, qi = float(p[idx]), float(q[idx])
        if pi == 0.0:
            # zero-P outcomes only add Q mass; the greedy never needs them
            continue
        take = min(1.0, (need - p_acc) / pi)
        p_acc += take * pi
        q_mass += take * qi
    if q_mass <= 0.0:
        return math.inf
    return -math.log2(q_mass)


def typicality_constants(y_size: int) -> tuple[float, float]:
    """(K, c) with K = (log2 max(|Y|, 3))^2 and c = 1/(36 K)."""
    if y_size < 2:
        raise ValidationError("alphabet needs at least two outputs")
    K = math.log2(max(y_size, 3)) ** 2
    return K, 1.0 / (36.0 * K)


def product_distribution(W, word) -> np.ndarray:
    """Explicit output distribution of a word (size |Y|^n, lexicographic)."""
    size = W.output_size ** len(word)
    if size > HT_OUTCOME_GUARD:
        raise SizeGuardError(f"product alphabet of {size} outcomes exceeds guard")
    out = np.ones(1)
    for x in word:
        out = np.kron(out, W.matrix[x])
    return out
