"""Distances, divergences, entropies, and typicality error bounds.

Conventions fixed here and used everywhere downstream:
  * divergences and entropies are returned in bits,
  * 0 * log 0 = 0 and log 0 = -inf,
  * bound evaluators return the raw formula value even when it exceeds 1
    (a vacuous bound); clamping is the caller's choice.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeGuardError, ValidationError

LOG2 = math.log(2.0)

#: refuse exact hypothesis-testing computations above this many outcomes
HT_OUTCOME_GUARD = 10**7


def total_variation(p, q) -> float:
    """Half the L1 distance between two distributions on the same alphabet."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("distributions live on different alphabets")
    return 0.5 * float(np.abs(p - q).sum())


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


def renyi_divergence(p, q, alpha: float) -> float:
    """Renyi divergence of order alpha > 1 in bits; +inf off-support."""
    if alpha <= 1:
        raise ValidationError("order must satisfy alpha > 1")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("distributions live on different alphabets")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    s = float((p[mask] ** alpha * q[mask] ** (1 - alpha)).sum())
    return math.log2(s) / (alpha - 1)


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
    ratio[p == 0] = np.where(q[p == 0] > 0, 0.0, ratio[p == 0])
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


def typical_miss_bound(delta: float, y_size: int) -> float:
    """Upper bound 2 exp(-delta^2 c) on the mass a word leaves outside its own
    entropy-typical set of width delta * sqrt(n).  Raw value (may exceed 1)."""
    _, c = typicality_constants(y_size)
    return 2.0 * math.exp(-(delta**2) * c)


def false_accept_bound(W, rows, delta: float) -> np.ndarray:
    """Analytic ceilings on a source word's mass inside an owner's typical
    set, one per joint-type count row (positions per class a*q + b, source
    letter a, owner letter b).

    tail + eps + eps 2^exponent, with eps the letterwise fidelity product,
    log2 eps = sum_{a != b} N_ab log2 F(a, b) over F = W.fidelities, and
    exponent = 2 delta sqrt(n) + sum N_ab (H_b - H_a) bits.  Both terms are
    formed from log2 eps, so a product below the float range does not hide a
    growth term above it.  Raw values; vacuous results above 1 are returned
    as-is.
    """
    q = W.n_inputs
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, q * q)
    log_fid = np.array([[math.log2(f) if f else -math.inf for f in row]
                        for row in W.fidelities.tolist()])
    np.fill_diagonal(log_fid, 0.0)
    ent = np.array(W.entropies)
    log_eps = (np.where(rows > 0, log_fid.ravel(), 0.0) * rows).sum(axis=1)
    exponent = 2.0 * delta * np.sqrt(rows.sum(axis=1)) + rows @ (ent - ent[:, None]).ravel()
    tail = typical_miss_bound(delta, W.output_size)
    with np.errstate(over="ignore"):
        return tail + np.exp2(log_eps) + np.exp2(log_eps + exponent)


def product_distribution(W, word) -> np.ndarray:
    """Explicit output distribution of a word (size |Y|^n, lexicographic)."""
    size = W.output_size ** len(word)
    if size > HT_OUTCOME_GUARD:
        raise SizeGuardError(f"product alphabet of {size} outcomes exceeds guard")
    out = np.ones(1)
    for x in word:
        out = np.kron(out, W.matrix[x])
    return out
