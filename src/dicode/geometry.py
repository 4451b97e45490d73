"""Packing and covering numbers of finite point clouds, and dimension slopes.

Centers are always cloud points.  A delta-packing is a subset with pairwise
distances >= 2*delta (open balls disjoint); a delta-covering is a subset of
centers whose closed delta-balls contain every cloud point.  Exact counts are
computed by branch and bound and are only allowed up to EXACT_SIZE_LIMIT
points; greedy results are labeled as one-sided bounds, never as the true
packing or covering number.  Every count reads the cloud's distance triangle
(`PointCloud.distances`), built once per cloud with each pairwise distance
stored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import SizeGuardError, ValidationError

EXACT_SIZE_LIMIT = 64
DISTANCE_SIZE_LIMIT = 4096   # a 64 MB distance triangle
DISTANCE_BLOCK = 64          # rows per triangle block, each built through one (64, m) scratch array

METRICS = ("euclidean", "total-variation")


class DistanceTriangle:
    """The pairwise distances of an m-point cloud, each pair stored once.

    Block k holds rows DISTANCE_BLOCK*k ... DISTANCE_BLOCK*(k+1) - 1 from
    column DISTANCE_BLOCK*k on: its diagonal square whole, and everything to
    the right of it.  The blocks follow one another in one read-only buffer of
    about m^2/2 floats.  The distances are bitwise symmetric, so an entry left
    of a block is read from the block that holds its transpose.
    """

    def __init__(self, size: int, buffer: np.ndarray):
        buffer.flags.writeable = False
        self.size = size
        self.buffer = buffer
        self.blocks = tuple(block for _, block in _blocks(buffer, size))

    def __getitem__(self, ij: tuple[int, int]) -> np.float64:
        """The distance between points i and j (negative indices count from the end)."""
        i, j = sorted(range(self.size)[k] for k in ij)
        k = i // DISTANCE_BLOCK
        return self.blocks[k][i - k * DISTANCE_BLOCK, j - k * DISTANCE_BLOCK]

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point, as a new array: a column of
        each block above i's, then i's row of its own block."""
        k = i // DISTANCE_BLOCK
        return np.concatenate([b[:, i - j * DISTANCE_BLOCK] for j, b in enumerate(self.blocks[:k])]
                              + [self.blocks[k][i - k * DISTANCE_BLOCK]])

    def _mirrored(self, out: np.ndarray, fill) -> np.ndarray:
        """Fill the (m, m) array out block by block: fill(block, the block's
        rows of out from its first column on), then the part right of the
        block's square copied, transposed, below that square."""
        for k, block in enumerate(self.blocks):
            lo, hi = k * DISTANCE_BLOCK, k * DISTANCE_BLOCK + len(block)
            fill(block, out[lo:hi, lo:])
            out[hi:, lo:hi] = out[lo:hi, hi:].T
        return out

    def square(self) -> np.ndarray:
        """The (m, m) distance matrix, as a new array."""
        m = self.size
        return self._mirrored(np.empty((m, m)), lambda block, out: np.copyto(out, block))

    def within(self, delta: float) -> np.ndarray:
        """The (m, m) uint8 ball table: entry (i, j) is 1 when d(i, j) <= delta."""
        m = self.size
        balls = np.empty((m, m), dtype=bool)
        self._mirrored(balls, lambda block, out: np.less_equal(block, delta, out=out))
        return balls.view(np.uint8)

    def min_distance(self) -> float:
        """The smallest distance between two points of distinct indices (m >= 2)."""
        least = math.inf
        for block in self.blocks:
            rows = len(block)
            least = min(least, block[:, rows:].min(initial=math.inf),
                        block[:, :rows][np.triu_indices(rows, 1)].min(initial=math.inf))
        return float(least)


def _blocks(buffer: np.ndarray, m: int):
    """(first row, block view) of each triangle block of an m-point cloud in
    buffer, in order."""
    start = 0
    for lo in range(0, m, DISTANCE_BLOCK):
        rows, width = min(DISTANCE_BLOCK, m - lo), m - lo
        yield lo, buffer[start:start + rows * width].reshape(rows, width)
        start += rows * width


@dataclass(frozen=True)
class PointCloud:
    """Immutable cloud: the points are a read-only copy, so the distance
    triangle can be built once and shared by every count on the cloud."""

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

    def distance_matrix(self) -> DistanceTriangle:
        """Build the distance triangle anew, one block at a time.

        Each block adds its squared (euclidean) or absolute (total variation)
        coordinate differences one coordinate at a time, in index order, as
        numpy's own sum does below 8 coordinates (from 8 up it groups the sum
        and may round differently), through one scratch array.  p_i - p_j is
        exactly -(p_j - p_i), so the distances are bitwise symmetric (the
        triangle relies on it).  Clouds above DISTANCE_SIZE_LIMIT points are
        refused before anything is allocated.
        """
        p = self.points
        m = p.shape[0]
        if m > DISTANCE_SIZE_LIMIT:
            raise SizeGuardError(f"distance matrix limited to {DISTANCE_SIZE_LIMIT} points")
        euclidean = self.metric == "euclidean"
        fold = np.square if euclidean else np.abs
        coords = np.ascontiguousarray(p.T)
        buffer = np.zeros(sum(min(DISTANCE_BLOCK, m - lo) * (m - lo)
                              for lo in range(0, m, DISTANCE_BLOCK)))
        scratch = np.empty(DISTANCE_BLOCK * m)
        for lo, block in _blocks(buffer, m):
            hi = lo + len(block)
            diff = scratch[:block.size].reshape(block.shape)
            for x in coords:
                np.subtract(x[lo:hi, None], x[lo:], out=diff)
                fold(diff, out=diff)
                block += diff
        if euclidean:
            np.sqrt(buffer, out=buffer)
        else:
            buffer *= 0.5
        return DistanceTriangle(m, buffer)

    @cached_property
    def distances(self) -> DistanceTriangle:
        """The distance triangle, built on first use and then shared."""
        return self.distance_matrix()


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


def _greedy_packing(dist: DistanceTriangle, delta: float) -> list[int]:
    """Farthest-point maximal packing, seeded at index 0, ties by index; it
    reads one triangle row per pick."""
    chosen = [0]
    mindist = dist.row(0)
    while True:
        far = int(np.argmax(mindist))
        if mindist[far] < 2 * delta:
            break
        chosen.append(far)
        np.minimum(mindist, dist.row(far), out=mindist)
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


def _greedy_covering(balls: np.ndarray) -> list[int]:
    """Greedy set cover over a symmetric (m, m) uint8 ball table: repeatedly
    take the ball covering most uncovered points; ties by lowest center index.

    Row p of `balls` marks the balls that contain p, so gains[c], the
    uncovered points in ball c, is a column sum of the uncovered points'
    rows.  After a pick the gains are recounted from whichever side is
    smaller: the rows still uncovered, or the rows just covered, subtracted.  Once no ball holds two uncovered
    points, the rest of the greedy sequence covers each uncovered point by
    the lowest-index ball holding it, all in one step.  So a cover costs one
    threshold pass over the distances (`DistanceTriangle.within`) and about
    m^2 bytes at its peak.
    """
    gains = _column_counts(balls)
    uncovered = np.ones(balls.shape[0], dtype=bool)
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
    best = _greedy_covering(inside.view(np.uint8))
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


#: (kind, mode) -> count on a distance triangle at radius delta; the exact
#: searches read the square matrix, the greedy cover one ball table
_COUNTS = {
    ("packing", "greedy"): _greedy_packing,
    ("packing", "exact"): lambda dist, delta: _exact_packing(dist.square(), delta),
    ("covering", "greedy"): lambda dist, delta: _greedy_covering(dist.within(delta)),
    ("covering", "exact"): lambda dist, delta: _exact_covering(dist.square(), delta),
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
