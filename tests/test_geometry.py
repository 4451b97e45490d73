import functools
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dicode import geometry
from dicode.bounds import covering_radius
from dicode.channel import bernoulli_family
from dicode.cli import main
from dicode.errors import SizeGuardError, ValidationError
from dicode.geometry import (
    CountResult,
    PointCloud,
    _exact_covering,
    _exact_packing,
    _greedy_covering,
    _greedy_packing,
    _row_masks,
    estimate_dimension,
    max_packing,
    min_covering,
)


def line_cloud(values):
    return PointCloud(np.array(values, dtype=float).reshape(-1, 1))


def brute_max_packing(cloud, delta):
    d = cloud.distance_matrix()
    m = len(cloud)
    best = 0
    for bits in range(1 << m):
        idx = [i for i in range(m) if bits >> i & 1]
        if all(d[i, j] >= 2 * delta for i, j in itertools.combinations(idx, 2)):
            best = max(best, len(idx))
    return best


def brute_min_covering(cloud, delta):
    d = cloud.distance_matrix()
    m = len(cloud)
    best = m
    for bits in range(1, 1 << m):
        centers = [i for i in range(m) if bits >> i & 1]
        if all(any(d[c, p] <= delta for c in centers) for p in range(m)):
            best = min(best, len(centers))
    return best


def test_collinear_packing_counts():
    cloud = line_cloud([0, 1, 2])
    assert max_packing(cloud, 0.4, "exact").count == 3
    assert max_packing(cloud, 0.6, "exact").count == 2
    assert max_packing(cloud, 5.0, "exact").count == 1


def test_collinear_covering_counts():
    cloud = line_cloud([0, 1, 2])
    one = min_covering(cloud, 1.0, "exact")
    assert one.count == 1
    assert one.center_indices == (1,)
    assert min_covering(cloud, 0.4, "exact").count == 3


def test_packing_invariants_random_clouds():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 5))
        cloud = PointCloud(rng.random((m, dim)))
        delta = float(rng.uniform(0.05, 0.6))
        exact_p = max_packing(cloud, delta, "exact")
        greedy_p = max_packing(cloud, delta, "greedy")
        exact_c2 = min_covering(cloud, 2 * delta, "exact")
        greedy_c = min_covering(cloud, delta, "greedy")
        exact_c = min_covering(cloud, delta, "exact")
        d = cloud.distance_matrix().square()
        # packing validity: centers pairwise >= 2 delta
        for i, j in itertools.combinations(exact_p.center_indices, 2):
            assert d[i, j] >= 2 * delta
        # covering validity
        assert np.all(d[list(exact_c.center_indices)].min(axis=0) <= delta + 1e-12)
        # covering/packing relation and greedy bracketing
        assert exact_c2.count <= exact_p.count
        assert greedy_p.count <= exact_p.count
        assert greedy_c.count >= exact_c.count
        # greedy packing centers are a 2 delta covering
        assert np.all(d[list(greedy_p.center_indices)].min(axis=0) <= 2 * delta + 1e-12)


def test_exact_matches_brute_force_small():
    rng = np.random.default_rng(8)
    for _ in range(15):
        m = int(rng.integers(2, 9))
        cloud = PointCloud(rng.random((m, 2)))
        delta = float(rng.uniform(0.1, 0.5))
        assert max_packing(cloud, delta, "exact").count == brute_max_packing(cloud, delta)
        assert min_covering(cloud, delta, "exact").count == brute_min_covering(cloud, delta)


def test_monotonicity_in_radius():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.random((15, 3)))
    radii = [0.05, 0.1, 0.2, 0.4, 0.8]
    packs = [max_packing(cloud, r, "exact").count for r in radii]
    covers = [min_covering(cloud, r, "exact").count for r in radii]
    assert packs == sorted(packs, reverse=True)
    assert covers == sorted(covers, reverse=True)


def test_size_guard():
    cloud = PointCloud(np.random.default_rng(0).random((65, 2)))
    with pytest.raises(SizeGuardError):
        max_packing(cloud, 0.1, "exact")
    with pytest.raises(SizeGuardError):
        min_covering(cloud, 0.1, "exact")


def test_interval_dimension_slope():
    cloud = line_cloud(np.linspace(0, 1, 1001))
    radii = [2.0**-k for k in range(2, 9)]
    est = estimate_dimension(cloud, radii)
    assert est.slope == pytest.approx(1.0, abs=0.1)
    assert est.slope_lower <= est.slope <= est.slope_upper


def test_single_point_dimension():
    cloud = line_cloud([0.5] * 8)
    est = estimate_dimension(cloud, [0.4, 0.2, 0.1, 0.05])
    assert est.slope == 0.0


NAN_RADIUS_CHILD = """
import numpy as np
from dicode.errors import ValidationError
from dicode.geometry import PointCloud, max_packing, min_covering

cloud = PointCloud(np.linspace(0.0, 1.0, 8).reshape(-1, 1))
for fn in (max_packing, min_covering):
    for mode in ("greedy", "exact"):
        try:
            fn(cloud, float("nan"), mode=mode)
        except ValidationError:
            continue
        raise SystemExit(f"{fn.__name__} {mode} accepted a NaN radius")
"""


def test_nan_radius_refused():
    """A NaN radius passed `delta <= 0`, and the greedy packing, which stops
    when no distance reaches the radius, then picked centres forever.  The
    child runs under a timeout, so that a hang fails the test."""
    src = str(Path(geometry.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NAN_RADIUS_CHILD], capture_output=True,
                          text=True, timeout=30, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_dimension_grid_validation():
    cloud = line_cloud([0, 1])
    with pytest.raises(ValidationError):
        estimate_dimension(cloud, [0.4, 0.2, 0.1])  # too few radii
    with pytest.raises(ValidationError):
        estimate_dimension(cloud, [0.4, 0.2, 0.25, 0.1])  # not decreasing
    with pytest.raises(ValidationError):
        estimate_dimension(cloud, [0.4, 0.35, 0.3, 0.25])  # under two octaves


def test_bernoulli_ladder_covering_point():
    # raw output set of the base-2 ladder under total variation is the ladder
    # itself; at radius 1/16 the exact covering needs 4 balls
    W = bernoulli_family(2.0, 12)
    cloud = W.raw_cloud
    res = min_covering(cloud, 1 / 16, "exact")
    assert res.count == 4
    assert math.log2(16 / 3) <= res.count <= math.log2(32)


def test_bernoulli_sqrt_cloud_flattens():
    # covering counts of the sqrt ladder grow like log(1/delta): slope of
    # log count vs -log delta keeps shrinking well above the truncation scale
    W = bernoulli_family(2.0, 12)
    cloud = W.sqrt_cloud
    radii = [2.0**-k for k in range(2, 7)]
    est = estimate_dimension(cloud, radii)
    assert est.exact_counts
    assert est.slope < 0.8


def test_cloud_points_are_a_read_only_copy():
    values = np.array([[0.0], [1.0], [3.0]])
    cloud = PointCloud(values)
    values[0, 0] = 5.0  # the caller's array stays writable and unshared
    assert cloud.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 2.0
    dist = cloud.distances
    for view in (dist.buffer, *dist.blocks):
        with pytest.raises(ValueError):
            view[0] = 0.0
    assert cloud.distances is dist
    assert np.array_equal(bits(dist.buffer), bits(cloud.distance_matrix().buffer))


def test_channel_clouds_shared_per_channel():
    W = bernoulli_family(2.0, 6)
    assert W.sqrt_cloud is W.sqrt_cloud
    assert W.raw_cloud is not W.sqrt_cloud
    assert bernoulli_family(2.0, 6).sqrt_cloud is not W.sqrt_cloud
    assert (W.sqrt_cloud.metric, W.raw_cloud.metric) == ("euclidean", "total-variation")


def test_packing_and_covering_share_one_result_type():
    cloud = line_cloud([0, 1, 2])
    pack = max_packing(cloud, 0.4, "exact")
    cover = min_covering(cloud, 1.0, "exact")
    assert type(pack) is type(cover) is CountResult


def rescanning_greedy_covering(dist, delta):
    """The greedy cover that recounts every ball at every pick (reference)."""
    m = dist.shape[0]
    balls = dist <= delta
    uncovered = np.ones(m, dtype=bool)
    chosen: list[int] = []
    while uncovered.any():
        gains = (balls & uncovered[None, :]).sum(axis=1)
        c = int(np.argmax(gains))
        if gains[c] == 0:
            raise ValidationError("point cannot be covered (degenerate ball)")
        chosen.append(c)
        uncovered &= ~balls[c]
    return sorted(chosen)


def broadcast_distance_matrix(cloud):
    """All pairwise distances from one (m, m, d) broadcast (reference)."""
    p = cloud.points
    if cloud.metric == "euclidean":
        diff = p[:, None, :] - p[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))
    return 0.5 * np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_triangle_of(dist, ref):
    """The triangle's blocks are ref's DISTANCE_BLOCK-row blocks from their
    diagonal on, bit for bit, and its buffer holds them in order and nothing
    else."""
    m, step = ref.shape[0], geometry.DISTANCE_BLOCK
    assert dist.size == m and len(dist.blocks) == -(-m // step)
    for k, block in enumerate(dist.blocks):
        assert np.array_equal(bits(block), bits(ref[k * step:(k + 1) * step, k * step:]))
    assert np.array_equal(bits(dist.buffer), bits(np.concatenate(
        [block.ravel() for block in dist.blocks] + [np.empty(0)])))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 80), dim=st.integers(1, 3),
       metric=st.sampled_from(geometry.METRICS))
def test_greedy_covering_equals_rescanning(data, m, dim, metric):
    # integer grid points: many repeated distances, so gains tie often, and
    # every radius is a pairwise distance, so points sit on ball boundaries
    coords = data.draw(st.lists(st.integers(0, 4), min_size=m * dim, max_size=m * dim))
    cloud = PointCloud(np.array(coords, dtype=float).reshape(m, dim), metric)
    dist = cloud.distance_matrix()
    square = dist.square()
    assert np.array_equal(bits(square), bits(square.T))
    for _ in range(3):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        r = dist[i, j]
        assert _greedy_covering(dist.within(r)) == rescanning_greedy_covering(square, r)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.integers(256, 700), dim=st.integers(1, 2),
       metric=st.sampled_from(geometry.METRICS))
def test_greedy_covering_counts_past_a_byte(data, m, dim, metric):
    # a cluster of over 255 near-coincident points: its ball covers more than
    # 255 new points and its columns start above 255, past one byte counter
    size = data.draw(st.integers(256, m))
    grid = data.draw(hnp.arrays(np.int64, (m - size, dim), elements=st.integers(0, 4)))
    centre = data.draw(hnp.arrays(np.int64, dim, elements=st.integers(0, 4)))
    jitter = data.draw(hnp.arrays(np.int64, (size, dim), elements=st.integers(0, 3)))
    order = data.draw(st.permutations(range(m)))
    points = np.concatenate([centre + 1e-9 * jitter, grid])[list(order)]
    dist = PointCloud(points, metric).distance_matrix()
    square = dist.square()
    cluster = np.argsort(order)[:size]
    radii = [square[np.ix_(cluster, cluster)].max()]
    assert np.count_nonzero(square <= radii[0], axis=0).max() > 255
    for _ in range(2):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        radii.append(dist[i, j])
    for r in radii:
        assert _greedy_covering(dist.within(r)) == rescanning_greedy_covering(square, r)


def test_greedy_covering_ball_of_257_points():
    # 200 points at 0, one at 1, 56 at 2: the middle ball holds all 257 and is
    # the whole cover; a count wrapped at 256 would read 1 and pick two balls
    cloud = line_cloud([0.0] * 200 + [1.0] + [2.0] * 56)
    dist = cloud.distance_matrix()
    assert _greedy_covering(dist.within(1.0)) == [200]
    assert rescanning_greedy_covering(dist.square(), 1.0) == [200]


def test_greedy_covering_finishes_single_point_balls():
    # after ball 2 covers 0, 0.5 and 0.9, no ball holds two uncovered points;
    # point 4 is then covered by the lower-index ball 3, not by its own
    cloud = line_cloud([5, 0, 0.5, 0.9, 1.3])
    dist = cloud.distance_matrix()
    assert _greedy_covering(dist.within(0.5)) == [0, 2, 3]
    assert rescanning_greedy_covering(dist.square(), 0.5) == [0, 2, 3]


def test_greedy_covering_recounts_ladder_clusters():
    # the first ball holds nearly all of the ladder's 302 points, so the gains
    # are recounted from the few rows left uncovered
    dist = bernoulli_family(2.0, 300).sqrt_cloud.distances
    square = dist.square()
    for E in (1e-9, 1e-6, 1e-3):
        r = covering_radius(E)
        assert _greedy_covering(dist.within(r)) == rescanning_greedy_covering(square, r)


def test_greedy_covering_memory():
    # one threshold pass of m^2 bytes; recounting from the smaller side never
    # gathers the first ball's ~990 rows, which took a second m^2
    dist = bernoulli_family(2.0, 1000).sqrt_cloud.distances
    m = dist.size
    for E in (1e-9, 1e-3):
        tracemalloc.start()
        try:
            _greedy_covering(dist.within(covering_radius(E)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m * m


def test_greedy_covering_degenerate_ball():
    # a cloud refuses a NaN point, so its distance matrix is built here; in
    # the second cloud every ball holds at most one point from the start, and
    # the NaN row's first ball would read as ball 0 again
    for values in ([0.0, 1.0, np.nan, 2.0], [0.0, 5.0, np.nan]):
        x = np.array(values)
        dist = np.abs(x[:, None] - x)
        with pytest.raises(ValidationError, match="degenerate ball"):
            rescanning_greedy_covering(dist, 1.0)
        with pytest.raises(ValidationError, match="degenerate ball"):
            _greedy_covering((dist <= 1.0).view(np.uint8))


@pytest.mark.parametrize("metric", geometry.METRICS)
@pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), blocks=st.integers(0, 2), dim=st.integers(1, 7))
def test_distance_matrix_blocks_bitwise_equal(m, metric, data, blocks, dim):
    # below 8 coordinates numpy sums in index order, as the blocks do
    m += blocks * geometry.DISTANCE_BLOCK
    points = data.draw(hnp.arrays(np.float64, (m, dim), elements=st.floats(
        -1e6, 1e6, allow_nan=False, allow_infinity=False)))
    cloud = PointCloud(points, metric)
    dist = cloud.distance_matrix()
    ref = broadcast_distance_matrix(cloud)
    assert_triangle_of(dist, ref)
    assert np.array_equal(bits(ref), bits(ref.T))
    assert np.array_equal(bits(dist.square()), bits(ref))
    for i in range(m):
        assert np.array_equal(bits(dist.row(i)), bits(ref[i]))
    for r in (ref[0, m // 2], ref[m // 3, m - 1]):
        assert np.array_equal(dist.within(r), ref <= r)
    if m > 1:
        assert dist.min_distance() == ref[~np.eye(m, dtype=bool)].min()


@pytest.mark.parametrize("metric", geometry.METRICS)
def test_distance_matrix_sums_coordinates_in_index_order(metric):
    # from 8 coordinates up numpy's pairwise sum rounds differently in some
    # cells (here about one in five); the blocks still add in index order
    points = np.random.default_rng(11).standard_normal((70, 8))
    cloud = PointCloud(points, metric)
    dist = cloud.distance_matrix()
    for i, j in itertools.product(range(0, 70, 3), repeat=2):
        total = 0.0
        for a, b in zip(points[i], points[j]):
            total += (a - b) * (a - b) if metric == "euclidean" else abs(a - b)
        want = math.sqrt(total) if metric == "euclidean" else 0.5 * total
        assert dist[i, j].tobytes() == np.float64(want).tobytes()
    square = dist.square()
    assert np.array_equal(bits(square), bits(square.T))


def test_distance_matrix_size_guard_fails_fast(tmp_path, capsys):
    cloud = PointCloud(np.zeros((geometry.DISTANCE_SIZE_LIMIT + 1, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            min_covering(cloud, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    # a 20,002-point Bernoulli ladder
    chan = tmp_path / "ladder.json"
    chan.write_text(json.dumps({"family": "bernoulli", "a": 1.001, "k_max": 20000}))
    rc = main(["geometry", "--channel", str(chan), "--task", "covering",
               "--radii", "0.1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error code=SIZE_GUARD" in capsys.readouterr().err


def test_distance_matrix_size_guard_edge(monkeypatch):
    monkeypatch.setattr(geometry, "DISTANCE_SIZE_LIMIT", 100)
    assert PointCloud(np.zeros((100, 1))).distance_matrix().square().shape == (100, 100)
    with pytest.raises(SizeGuardError):
        PointCloud(np.zeros((101, 1))).distance_matrix()


def test_distance_triangle_memory():
    """The 1,002-point ladder's triangle takes 0.53 of the square's 8 m^2
    bytes, and its build adds only its (64, m) scratch array, the points'
    coordinates and numpy's ufunc buffers (at most 3 x 8,192 floats): 0.61
    of 8 m^2 in all."""
    for cloud in (bernoulli_family(2.0, 1000).sqrt_cloud,
                  bernoulli_family(2.0, 1000).raw_cloud):
        m = len(cloud)
        tracemalloc.start()
        try:
            dist = cloud.distances
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.buffer.nbytes < 0.54 * 8 * m * m
        scratch = 8 * geometry.DISTANCE_BLOCK * m + cloud.points.nbytes
        assert peak <= dist.buffer.nbytes + scratch + 3 * 8 * 8192


def square_greedy_packing(dist, delta):
    """Farthest-point packing on the square matrix's rows (reference)."""
    chosen = [0]
    mindist = dist[0].copy()
    while True:
        far = int(np.argmax(mindist))
        if mindist[far] < 2 * delta:
            break
        chosen.append(far)
        mindist = np.minimum(mindist, dist[far])
    return sorted(chosen)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 200), dim=st.integers(1, 3),
       metric=st.sampled_from(geometry.METRICS))
def test_greedy_packing_reads_triangle_rows(data, m, dim, metric):
    coords = data.draw(st.lists(st.integers(0, 6), min_size=m * dim, max_size=m * dim))
    dist = PointCloud(np.array(coords, dtype=float).reshape(m, dim), metric).distance_matrix()
    square = dist.square()
    for _ in range(3):
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        r = max(dist[i, j] / 2, 0.01)
        assert _greedy_packing(dist, r) == square_greedy_packing(square, r)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_refused(bad):
    """A NaN point wins argmax in the greedy packing and never falls below
    2 * delta, so the packing would pick centres forever; it is refused when
    the cloud is built."""
    with pytest.raises(ValidationError, match="finite"):
        PointCloud([[bad], [0.0], [1.0]])


def scanning_exact_packing(dist, delta):
    """Exact packing that masks v out of its own branch and re-checks the
    size at every leaf (reference)."""
    m = dist.shape[0]
    conflict = _row_masks(dist < 2 * delta)
    best = []

    def grow(cand, picked):
        nonlocal best
        if len(picked) + cand.bit_count() <= len(best):
            return
        if cand == 0:
            if len(picked) > len(best):
                best = picked.copy()
            return
        v = (cand & -cand).bit_length() - 1
        picked.append(v)
        grow(cand & ~conflict[v] & ~(1 << v), picked)
        picked.pop()
        grow(cand & ~(1 << v), picked)

    grow((1 << m) - 1, [])
    return sorted(best)


def scanning_exact_covering(dist, delta):
    """Exact cover that rescans every uncovered point for the one with the
    fewest balls that still cover something new, at every node (reference)."""
    m = dist.shape[0]
    inside = dist <= delta
    ball = _row_masks(inside)
    full = (1 << m) - 1
    best = _greedy_covering(inside.view(np.uint8))
    best_len = len(best)
    coverers = [np.flatnonzero(col).tolist() for col in inside.T]

    def search(covered, chosen):
        nonlocal best, best_len
        if covered == full:
            if len(chosen) < best_len:
                best, best_len = chosen.copy(), len(chosen)
            return
        if len(chosen) + 1 >= best_len:
            return
        options = None
        for p in range(m):
            if covered >> p & 1:
                continue
            opts = [c for c in coverers[p] if ball[c] & ~covered]
            if options is None or len(opts) < len(options):
                options = opts
            if len(opts) <= 1:
                break
        if not options:
            return
        for c in options:
            chosen.append(c)
            search(covered | ball[c], chosen)
            chosen.pop()

    search(0, [])
    return sorted(best)


@st.composite
def exact_count_cases(draw):
    """(points, metric, radius): up to 39 points on a coarse grid in 1-3
    dimensions, so distances tie often, at a radius that is either a pairwise
    distance (points on ball boundaries) or drawn from [0.02, 0.6]."""
    m, dim = draw(st.integers(1, 39)), draw(st.integers(1, 3))
    points = draw(hnp.arrays(np.int64, (m, dim), elements=st.integers(0, 8))) / 8
    metric = draw(st.sampled_from(geometry.METRICS))
    dist = PointCloud(points, metric).distances
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    radius = draw(st.one_of(st.just(float(dist[i, j])), st.floats(0.02, 0.6)))
    return points, metric, max(radius, 0.02)


#: 64 random points in the unit square; at radius 0.25 the reference cover
#: search takes a few tenths of a second
PLANAR_64 = np.random.default_rng(0).random((64, 2))
#: clouds with two minimum covers, where the greedy cover is not one of them:
#: a pivot that broke ties between points by the highest index would find
#: the other cover first
TWO_OPTIMA = [(np.array([[2, 2], [6, 8], [0, 7], [1, 2], [7, 3]]) / 8, "euclidean",
               math.sqrt(26) / 8),
              (np.array([[4], [7], [1], [2], [5], [3], [6]]) / 8, "total-variation", 0.125)]


@settings(max_examples=150, deadline=None)
@given(case=exact_count_cases())
@example(case=(PLANAR_64, "euclidean", 0.25))
@example(case=TWO_OPTIMA[0])
@example(case=TWO_OPTIMA[1])
def test_exact_searches_pick_the_reference_centers(case):
    points, metric, radius = case
    dist = PointCloud(points, metric).distances.square()
    assert _exact_covering(dist, radius) == scanning_exact_covering(dist, radius)
    assert _exact_packing(dist, radius) == scanning_exact_packing(dist, radius)


def first_max_packing(dist, delta):
    """Bound-free reference: the largest packing within each candidate set,
    by memoized recursion on its lowest candidate (taken or not), then each
    lowest candidate taken whenever a largest packing holds it.  That is the
    first largest packing in take-then-skip order, which the search finds."""
    conflict = _row_masks(dist < 2 * delta)

    @functools.cache
    def size(cand):
        if not cand:
            return 0
        v = (cand & -cand).bit_length() - 1
        return max(1 + size(cand & ~conflict[v]), size(cand & ~(1 << v)))

    cand, picked = (1 << dist.shape[0]) - 1, []
    while cand:
        v = (cand & -cand).bit_length() - 1
        if 1 + size(cand & ~conflict[v]) == size(cand):
            picked.append(v)
            cand &= ~conflict[v]
        else:
            cand &= ~(1 << v)
    return picked


#: the sqrt-embedded output rows of a random 64-input, 3-output channel
SIMPLEX_64 = np.sqrt(np.random.default_rng(0).dirichlet(np.ones(3), 64))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(0.02, 0.5))
@example(24, 0, 0.07)
def test_exact_packing_equals_bound_free_reference(m, seed, radius):
    """On simplex clouds of up to 24 points the clique-cover bound keeps the
    centres of the search without it, as grid clouds check above."""
    points = np.sqrt(np.random.default_rng(seed).dirichlet(np.ones(3), m))
    dist = PointCloud(points).distances.square()
    assert _exact_packing(dist, radius) == first_max_packing(dist, radius)


#: SIMPLEX_64's maximum packings, from the bound-free reference (about 1 s
#: each); before the clique-cover bound the search took 7 s at 0.1 and had not
#: finished after 4 minutes at 0.07
SIMPLEX_64_PACKINGS = {
    0.1: [1, 2, 3, 4, 6, 7, 11, 15, 26, 28, 29, 30, 36, 37, 38, 42, 43, 44, 45, 48, 49],
    0.07: [0, 1, 3, 4, 5, 6, 7, 9, 11, 15, 16, 17, 18, 19, 21, 26, 28, 29, 33, 36, 37, 38,
           39, 42, 45, 48, 49, 54, 57, 58],
}


def test_exact_packing_of_a_simplex_cloud():
    dist = PointCloud(SIMPLEX_64).distances.square()
    assert _exact_packing(dist, 0.15) == first_max_packing(dist, 0.15)
    for radius, centres in SIMPLEX_64_PACKINGS.items():
        assert _exact_packing(dist, radius) == centres


#: PLANAR_64's minimum covers as the search found them before it pruned by
#: points that share no ball (about 10 s and 20 s then)
PLANAR_64_COVERS = {
    0.1: [1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 23, 24, 27, 28, 29, 31,
          33, 35, 37, 39, 40, 49, 55, 61, 62, 63],
    0.15: [0, 1, 2, 3, 4, 5, 8, 9, 13, 17, 23, 24, 27, 28, 33, 55, 63],
}


@pytest.mark.parametrize("radius", sorted(PLANAR_64_COVERS))
def test_exact_covering_of_a_random_planar_cloud(radius):
    """Uncovered points no two of which share a ball each need their own, so
    the search prunes far more at these radii and still finds these centres."""
    dist = PointCloud(PLANAR_64).distances.square()
    assert _exact_covering(dist, radius) == PLANAR_64_COVERS[radius]
