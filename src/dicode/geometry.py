"""Packing and covering numbers of finite point clouds, and dimension slopes.

Centers are always cloud points.  A delta-packing is a subset with pairwise
distances >= 2*delta (open balls disjoint); a delta-covering is a subset of
centers whose closed delta-balls contain every cloud point.  Exact counts are
computed by branch and bound and are only allowed up to EXACT_SIZE_LIMIT
points; greedy results are labeled as one-sided bounds, never as the true
packing or covering number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SizeGuardError, ValidationError

EXACT_SIZE_LIMIT = 64
DISTANCE_SIZE_LIMIT = 4096   # a 128 MB float matrix
DISTANCE_BLOCK = 64          # rows built at once, through one (64, m) scratch array

METRICS = ("euclidean", "total-variation")


@dataclass(frozen=True)
class PointCloud:
    """Immutable cloud: the points are a read-only copy, so the distance
    matrix can be built once and shared by every count on the cloud."""

    points: np.ndarray              # (m, d)
    metric: str = "euclidean"

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, ndmin=2)
        if self.metric not in METRICS:
            raise ValidationError(f"unknown metric {self.metric!r}")
        if not np.isfinite(pts).all():
            raise ValidationError("cloud points must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Build the (m, m) distance matrix anew, DISTANCE_BLOCK rows at a time.

        Each block adds its squared (euclidean) or absolute (total variation)
        coordinate differences one coordinate at a time, in index order, as
        numpy's own sum does below 8 coordinates (from 8 up it groups the sum
        and may round differently).  p_i - p_j is exactly -(p_j - p_i), so the
        matrix is bitwise symmetric (greedy covering relies on it).  Clouds
        above DISTANCE_SIZE_LIMIT points are refused before anything is
        allocated.
        """
        p = self.points
        m = p.shape[0]
        if m > DISTANCE_SIZE_LIMIT:
            raise SizeGuardError(f"distance matrix limited to {DISTANCE_SIZE_LIMIT} points")
        euclidean = self.metric == "euclidean"
        fold = np.square if euclidean else np.abs
        coords = np.ascontiguousarray(p.T)
        dist = np.zeros((m, m))
        scratch = np.empty((DISTANCE_BLOCK, m))
        for lo in range(0, m, DISTANCE_BLOCK):
            rows = dist[lo:lo + DISTANCE_BLOCK]
            diff = scratch[:len(rows)]
            for x in coords:
                np.subtract(x[lo:lo + DISTANCE_BLOCK, None], x, out=diff)
                fold(diff, out=diff)
                rows += diff
        if euclidean:
            np.sqrt(dist, out=dist)
        else:
            dist *= 0.5
        return dist

    @cached_property
    def distances(self) -> np.ndarray:
        """The distance matrix, built on first use and then shared read-only."""
        dist = self.distance_matrix()
        dist.flags.writeable = False
        return dist


@dataclass(frozen=True)
class CountResult:
    """A packing or covering: its radius, centers (cloud indices), their
    number, and whether the count is exact or a one-sided greedy bound."""

    radius: float
    center_indices: tuple[int, ...]
    count: int
    exact: bool


@dataclass(frozen=True)
class DimensionEstimate:
    radii_grid: tuple[float, ...]
    log_counts: tuple[float, ...]
    slope: float
    slope_lower: float
    slope_upper: float
    fit_residual: float
    exact_counts: bool


def _greedy_packing(dist: np.ndarray, delta: float) -> list[int]:
    """Farthest-point maximal packing, seeded at index 0, ties by index."""
    chosen = [0]
    mindist = dist[0].copy()
    while True:
        far = int(np.argmax(mindist))
        if mindist[far] < 2 * delta:
            break
        chosen.append(far)
        mindist = np.minimum(mindist, dist[far])
    return sorted(chosen)


def _row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int whose bit j is the row's entry j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _exact_packing(dist: np.ndarray, delta: float) -> list[int]:
    """Maximum subset with pairwise distance >= 2*delta (max independent set
    of the conflict graph), by branch and bound over bitmasks.

    A node is pruned when its picks plus the candidates, or plus the cliques
    of a greedy partition of the candidates into cliques of the conflict
    graph (each clique holds at most one pick), cannot beat the best.  Both
    bounds prune only subtrees without a strictly larger packing, so the
    packing found is the first of the largest in take-then-skip order.
    """
    m = dist.shape[0]
    conflict = _row_masks(dist < 2 * delta)

    best: list[int] = []

    def cliques(cand: int) -> int:
        count = 0
        while cand:
            count += 1
            members = cand  # the candidates in conflict with every member so far
            while members:
                v = members & -members
                cand ^= v
                members &= cand & conflict[v.bit_length() - 1]
        return count

    def grow(cand: int, picked: list[int]):
        nonlocal best
        if len(picked) + cand.bit_count() <= len(best):
            return
        if cand == 0:  # the bound above has just passed, so picked beats best
            best = picked.copy()
            return
        if len(picked) + cliques(cand) <= len(best):
            return
        v = (cand & -cand).bit_length() - 1
        # branch: take v (conflict[v] holds v itself), then skip v
        picked.append(v)
        grow(cand & ~conflict[v], picked)
        picked.pop()
        grow(cand & ~(1 << v), picked)

    grow((1 << m) - 1, [])
    return sorted(best)


def _column_counts(rows: np.ndarray) -> np.ndarray:
    """Column sums of 0/1 byte rows, summed in bytes 255 rows at a time (a
    byte holds 255 ones without wrapping)."""
    counts = np.zeros(rows.shape[1], dtype=np.int64)
    for lo in range(0, len(rows), 255):
        counts += np.add.reduce(rows[lo:lo + 255], axis=0, dtype=np.uint8)
    return counts


def _greedy_covering(dist: np.ndarray, delta: float) -> list[int]:
    """Greedy set cover: repeatedly take the ball covering most uncovered
    points; ties by lowest center index.

    The distance matrix is bitwise symmetric, so row p of `balls` marks the
    balls that contain p, and gains[c], the uncovered points in ball c, is a
    column sum of the uncovered points' rows.  After a pick the gains are
    recounted from whichever side is smaller: the rows still uncovered, or
    the rows just covered, subtracted.  Once no ball holds two uncovered
    points, the rest of the greedy sequence covers each uncovered point by
    the lowest-index ball holding it, all in one step.  So a cover costs one
    threshold pass over the matrix and about m^2 bytes at its peak.
    """
    balls = (dist <= delta).view(np.uint8)
    gains = _column_counts(balls)
    uncovered = np.ones(dist.shape[0], dtype=bool)
    left = uncovered.size
    chosen: list[int] = []
    while left:
        c = int(np.argmax(gains))
        if gains[c] < 2:
            rest = balls[uncovered]
            if not rest.any(axis=1).all():
                raise ValidationError("point cannot be covered (degenerate ball)")
            chosen += np.argmax(rest, axis=1).tolist()
            break
        new = np.flatnonzero(balls[c] & uncovered)
        chosen.append(c)
        uncovered[new] = False
        left -= new.size
        if new.size > left:
            gains = _column_counts(balls[uncovered])
        else:
            gains -= _column_counts(balls[new])
    return sorted(chosen)


def _exact_covering(dist: np.ndarray, delta: float) -> list[int]:
    """Minimum set cover by branch and bound, bounded by the greedy solution.

    Each node branches over the balls holding one uncovered point.  No ball
    is ever ruled out of a set cover, so the point with the fewest balls is
    found once: the pivot is the first uncovered point in the fixed order of
    (number of balls holding it, index).  Uncovered points no two of which
    share a ball each need a ball of their own, so a node is pruned when the
    chosen balls plus such points, picked greedily, cannot beat the best.
    """
    inside = dist <= delta
    ball = _row_masks(inside)
    apart = _row_masks(~(inside.T @ inside))  # no ball holds both points
    full = (1 << dist.shape[0]) - 1
    best = _greedy_covering(dist, delta)
    best_len = len(best)
    coverers = [np.flatnonzero(col).tolist() for col in inside.T]
    order = sorted(range(len(coverers)), key=lambda p: (len(coverers[p]), p))

    def search(covered: int, chosen: list[int]):
        nonlocal best, best_len
        if covered == full:
            if len(chosen) < best_len:  # a sibling may have lowered best_len
                best, best_len = chosen.copy(), len(chosen)
            return
        need, rest = len(chosen), full & ~covered
        while rest and need < best_len:
            need += 1
            rest &= apart[(rest & -rest).bit_length() - 1]
        if need >= best_len:
            return
        pivot = next(p for p in order if not covered >> p & 1)
        for c in coverers[pivot]:
            chosen.append(c)
            search(covered | ball[c], chosen)
            chosen.pop()

    search(0, [])
    return sorted(best)


#: (kind, mode) -> count on a distance matrix at radius delta
_COUNTS = {
    ("packing", "greedy"): _greedy_packing,
    ("packing", "exact"): _exact_packing,
    ("covering", "greedy"): _greedy_covering,
    ("covering", "exact"): _exact_covering,
}


def _count(kind: str, cloud: PointCloud, delta: float, mode: str) -> CountResult:
    """Run the (kind, mode) count; "auto" is exact up to EXACT_SIZE_LIMIT
    points and greedy above, "exact" is refused above it."""
    if not delta > 0:  # also refuses NaN, on which the greedy packing never stops
        raise ValidationError("radius must be positive")
    if mode == "auto":
        mode = "exact" if len(cloud) <= EXACT_SIZE_LIMIT else "greedy"
    if (kind, mode) not in _COUNTS:
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "exact" and len(cloud) > EXACT_SIZE_LIMIT:
        raise SizeGuardError(f"exact {kind} limited to {EXACT_SIZE_LIMIT} points")
    centers = _COUNTS[kind, mode](cloud.distances, delta)
    return CountResult(delta, tuple(centers), len(centers), mode == "exact")


def max_packing(cloud: PointCloud, delta: float, mode: str = "greedy") -> CountResult:
    """Largest (greedy) or maximum (exact) delta-packing of the cloud.

    Greedy runs farthest-point sampling and is a certified lower bound on the
    packing number; its centers also form a valid 2*delta covering.
    """
    return _count("packing", cloud, delta, mode)


def min_covering(cloud: PointCloud, delta: float, mode: str = "greedy") -> CountResult:
    """Smallest found (greedy upper bound) or minimum (exact) delta-covering."""
    return _count("covering", cloud, delta, mode)


def estimate_dimension(cloud: PointCloud, radii: Sequence[float]) -> DimensionEstimate:
    """Least-squares slope of log2(covering count) against -log2(radius).

    The grid must hold at least 4 strictly decreasing radii spanning two
    octaves.  slope_lower / slope_upper are the min / max two-point slopes
    between consecutive grid radii: finite-scale stand-ins for the lim inf /
    lim sup growth exponents.  The cloud is covered by the "auto" rule: exact
    counts up to EXACT_SIZE_LIMIT points, greedy counts above.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValidationError("need at least 4 grid radii")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly decreasing")
    if radii[0] / radii[-1] < 4:
        raise ValidationError("grid must span at least two octaves")

    covers = [min_covering(cloud, r, "auto") for r in radii]
    x = -np.log2(radii)
    y = np.log2([c.count for c in covers])
    if np.allclose(y, y[0]):
        slope, intercept = 0.0, float(y[0])
    else:
        slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    two_point = [(y[i + 1] - y[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
    return DimensionEstimate(
        radii_grid=tuple(radii),
        log_counts=tuple(float(v) for v in y),
        slope=float(slope),
        slope_lower=float(min(two_point)),
        slope_upper=float(max(two_point)),
        fit_residual=float(np.max(np.abs(fit - y))),
        exact_counts=all(c.exact for c in covers),
    )
