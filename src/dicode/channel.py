"""Finite channel models: explicit stochastic matrices and parametric families.

A channel is a |X| x |Y| row-stochastic matrix.  Rows are renormalized on
construction (the residual is recorded); a row-sum deviation beyond the hard
tolerance is rejected outright.  Instances are immutable and safe to share,
and they compare and hash by identity.  A channel owns the tables derived
from it, each built on first use and dying with the channel: the `log2`
matrix the exact DP and Monte Carlo decoders read, the letter `entropies`,
the letter `fidelities` that only `bounds.ex2_dmc` reads, the `purged` form,
and the `sqrt_cloud` / `raw_cloud` point clouds whose distance matrices the
packing and covering counts share.  Every table array is read-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import SizeGuardError, ValidationError
from .geometry import PointCloud
from .infodist import entropy, sqrt_embed

ROW_SUM_HARD_TOL = 1e-6   # ingestion: reject beyond this
ROW_EQUAL_TOL = 1e-12     # duplicate-row detection
LADDER_SIZE_LIMIT = 1 << 20   # Bernoulli ladder points, refused before any is built


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Row-stochastic matrix W(y|x) with input labels and optional costs."""

    input_labels: tuple[str, ...]
    matrix: np.ndarray
    cost: np.ndarray | None = None
    family: dict | None = None
    renorm_residual: float = 0.0

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    def cost_vector(self) -> np.ndarray:
        """Cost per input; defaults to all zeros."""
        if self.cost is None:
            return np.zeros(self.n_inputs)
        return self.cost

    @cached_property
    def log2(self) -> np.ndarray:
        """log2 W(y|x), -inf where W(y|x) = 0."""
        with np.errstate(divide="ignore"):
            return _read_only(np.log2(self.matrix))

    @cached_property
    def entropies(self) -> tuple[float, ...]:
        """Output entropy of each input letter, in bits."""
        return tuple(entropy(row) for row in self.matrix)

    @cached_property
    def fidelities(self) -> np.ndarray:
        """F[a, b] = sum_y sqrt(W(y|a) W(y|b)), bit-equal to infodist.fidelity."""
        m = self.matrix
        return _read_only(np.stack([np.sqrt(row * m).sum(axis=1) for row in m]))

    @cached_property
    def purged(self) -> ChannelModel:
        """The channel with duplicate rows merged (`dedupe_and_purge`)."""
        return dedupe_and_purge(self)

    @cached_property
    def sqrt_cloud(self) -> PointCloud:
        """Square-root rows under the Euclidean metric."""
        return PointCloud(sqrt_embed(self.matrix), "euclidean")

    @cached_property
    def raw_cloud(self) -> PointCloud:
        """The rows themselves under total variation."""
        return PointCloud(self.matrix, "total-variation")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_channel(labels, matrix, cost=None, family=None) -> ChannelModel:
    """Validate, renormalize rows, and freeze a channel.

    Rejects non-finite or negative entries, entries above 1 + tolerance, and
    rows whose sum deviates from 1 by more than ROW_SUM_HARD_TOL.  Surviving
    rows are divided by their sum so every row is an exact distribution
    afterwards.
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2:
        raise ValidationError("channel matrix must be 2-d")
    n_x, n_y = m.shape
    if n_x < 1:
        raise ValidationError("channel needs at least one input")
    if n_y < 2:
        raise ValidationError("channel needs at least two outputs")
    if not np.all(np.isfinite(m)):
        raise ValidationError("channel matrix has non-finite entries")
    if np.any(m < 0):
        raise ValidationError("channel matrix has negative entries")
    if np.any(m > 1 + ROW_SUM_HARD_TOL):
        raise ValidationError("channel matrix has entries above 1")
    sums = m.sum(axis=1)
    residual = float(np.max(np.abs(sums - 1.0)))
    if residual > ROW_SUM_HARD_TOL:
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(
            f"row {bad} sums to {float(sums[bad])!r} (deviation > {ROW_SUM_HARD_TOL})")
    m = _read_only(m / sums[:, None])

    labels = tuple(str(s) for s in labels)
    if len(labels) != n_x:
        raise ValidationError("label count does not match matrix rows")

    cvec = None
    if cost is not None:
        cvec = _read_only(np.array(cost, dtype=float))
        if cvec.shape != (n_x,):
            raise ValidationError("cost vector length does not match inputs")
        if not np.all(np.isfinite(cvec)) or np.any(cvec < 0):
            raise ValidationError("costs must be finite and nonnegative")

    return ChannelModel(labels, m, cvec, family, residual)


def identity_channel(k: int) -> ChannelModel:
    """Noiseless k-input / k-output channel."""
    return make_channel([str(i) for i in range(k)], np.eye(k))


def bernoulli_family(a: float, k_max: int) -> ChannelModel:
    """Binary-output channel on the input ladder {0} u {a^-k : 0 <= k <= k_max}.

    Input x emits symbol 1 with probability x, so each row is (1-x, x).
    More than LADDER_SIZE_LIMIT points raise SizeGuardError before any is
    built.
    """
    if not a > 1:  # also refuses NaN, whose ladder at k_max = 0 is finite
        raise ValidationError("ladder base must satisfy a > 1")
    if k_max < 0:
        raise ValidationError("k_max must be >= 0")
    # a smallest point that underflows to 0.0 repeats x = 0: refused before
    # the k_max + 2 points are built (every a > 1 underflows by k = 2^64)
    if float(a) ** -min(k_max, 2**64) == 0.0:
        raise ValidationError("ladder points are not distinct")
    if k_max + 2 > LADDER_SIZE_LIMIT:
        raise SizeGuardError(f"ladder of {k_max + 2} points exceeds guard {LADDER_SIZE_LIMIT}")
    xs = [0.0] + [float(a) ** (-k) for k in range(k_max + 1)]
    if len(set(xs)) != len(xs):
        raise ValidationError("ladder points are not distinct")
    rows = [(1.0 - x, x) for x in xs]
    return make_channel([repr(x) for x in xs], rows,
                        family={"family": "bernoulli", "a": float(a), "k_max": int(k_max)})


def load_channel(path) -> ChannelModel:
    """Read a channel spec file (JSON) and return a validated model.

    Two forms are accepted:
      {"inputs": [labels], "matrix": [[...]], "cost": [...]}   explicit
      {"family": "bernoulli", "a": <real>, "k_max": <int>}     parametric
    Inputs are distinct strings; matrix rows have equal length; matrix and
    cost entries are JSON numbers.  A key outside its form is refused.
    """
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read channel spec {path}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValidationError("channel spec must be a JSON object")
    allowed = {"family", "a", "k_max"} if "family" in spec else {"inputs", "matrix", "cost"}
    if unread := sorted(spec.keys() - allowed):
        raise ValidationError(f"channel spec keys {unread} are not read; this form takes "
                              f"{sorted(allowed)}")

    if "family" in spec:
        if spec["family"] != "bernoulli":
            raise ValidationError(f"unknown channel family {spec['family']!r}")
        a, k_max = spec.get("a"), spec.get("k_max")
        if type(a) not in (int, float) or type(k_max) is not int:  # None or a bool too
            raise ValidationError(f"bernoulli family spec needs a number a and an integer "
                                  f"k_max, got a={a!r}, k_max={k_max!r}")
        return bernoulli_family(float(a), k_max)

    try:
        labels = spec["inputs"]
        matrix = spec["matrix"]
    except KeyError as exc:
        raise ValidationError(f"channel spec missing key {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels) \
            or len(set(labels)) < len(labels):
        raise ValidationError(f"channel spec inputs must be distinct strings, got {labels!r}")
    rows = matrix if isinstance(matrix, list) else [matrix]
    if not all(map(_numbers, rows)) or len(set(map(len, rows))) > 1:
        raise ValidationError("channel spec matrix must be equal-length rows of JSON numbers")
    if spec.get("cost") is not None and not _numbers(spec["cost"]):
        raise ValidationError("channel spec cost must be a list of JSON numbers")
    return make_channel(labels, matrix, cost=spec.get("cost"))


def _numbers(values) -> bool:
    """A JSON list of numbers: no bool, string or null among them."""
    return isinstance(values, list) and all(type(v) in (int, float) for v in values)


def truncate_channel(W: ChannelModel, delta: float, n: int) -> ChannelModel:
    """Zero out output probabilities below delta/(n|Y|) and renormalize rows.

    Each surviving entry is divided by the row's surviving mass K, which is
    guaranteed >= 1 - delta/n, so no row can lose all its mass.
    """
    if not 0 < delta < 1:
        raise ValidationError("delta must lie in (0, 1)")
    if n < 1:
        raise ValidationError("n must be >= 1")
    thr = delta / (n * W.output_size)
    m = W.matrix.copy()
    m[m < thr] = 0.0
    k = m.sum(axis=1)
    assert np.all(k >= 1 - delta / n - 1e-15)
    m = m / k[:, None]
    return make_channel(W.input_labels, m, cost=None if W.cost is None else W.cost.copy(),
                        family=W.family)


def dedupe_and_purge(W: ChannelModel) -> ChannelModel:
    """Drop inputs whose rows duplicate another row, keeping the cheapest.

    Rows are compared exactly (within ROW_EQUAL_TOL after normalization).
    Each row is matched against the first kept row within the tolerance, in
    keep order, all kept rows in one numpy step; a cheaper match replaces the
    kept one in place, so ties go to the lowest input index.  The result has
    one input per distinct row.
    """
    cost = W.cost_vector()
    keep: list[int] = []
    kept = np.empty_like(W.matrix)   # kept[pos] = W.matrix[keep[pos]]
    for i, row in enumerate(W.matrix):
        near = np.flatnonzero(np.abs(kept[:len(keep)] - row).max(axis=1) <= ROW_EQUAL_TOL)
        if not near.size:
            kept[len(keep)] = row
            keep.append(i)
        elif cost[i] < cost[keep[near[0]]]:
            keep[near[0]] = i
            kept[near[0]] = row
    keep_sorted = sorted(keep)
    return make_channel([W.input_labels[i] for i in keep_sorted],
                        W.matrix[keep_sorted],
                        cost=None if W.cost is None else cost[keep_sorted],
                        family=W.family)


def channel_to_spec(W: ChannelModel) -> dict:
    """JSON-ready explicit spec for a channel (inverse of load_channel)."""
    spec = {"inputs": list(W.input_labels), "matrix": W.matrix.tolist()}
    if W.cost is not None:
        spec["cost"] = W.cost.tolist()
    return spec
