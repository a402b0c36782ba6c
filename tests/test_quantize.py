import math

import numpy as np
import pytest

import carpetquant as cq
import carpetquant.quantize as qz
from carpetquant.quantize import _nearest


def batch_stderr(values, batches=100):
    b = min(batches, len(values))
    size = len(values) // b
    means = values[: b * size].reshape(b, size).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(b))


def test_sample_shape_and_range(pool):
    assert pool.points.shape == (200_000, 2)
    assert pool.points.min() >= 0.0 and pool.points.max() <= 1.0
    assert pool.n == 200_000 and pool.burn_in == 64


def test_sample_determinism(desk1):
    a = cq.sample(desk1, 2000, seed=5)
    b = cq.sample(desk1, 2000, seed=5)
    assert np.array_equal(a.points, b.points)
    c = cq.sample(desk1, 2000, seed=6)
    assert not np.array_equal(a.points, c.points)


def test_sample_preconditions(desk1):
    with pytest.raises(ValueError):
        cq.sample(desk1, 0, seed=1)
    with pytest.raises(ValueError):
        cq.sample(desk1, 100, seed=1, burn_in=31)


def test_bottom_half_mass(pool):
    """P(y < 1/2) = q_0: the indicator depends only on the latest row digit,
    so the draws are i.i.d. and the binomial stderr is exact."""
    frac = float((pool.points[:, 1] < 0.5).mean())
    stderr = math.sqrt(0.4 * 0.6 / pool.n)
    assert abs(frac - 0.4) <= 3.0 * stderr


def test_empirical_mean_matches_fixed_point(pool):
    # E[X] = (E[I]/ (n-1)) solved from the affine identity: (0.45, 0.6) for DESK1
    xs, ys = pool.points[:, 0], pool.points[:, 1]
    for values, target in ((xs, 0.45), (ys, 0.6)):
        err = batch_stderr(values)
        assert abs(float(values.mean()) - target) <= 4.0 * err


def test_k1_exact_mean_and_variance(pool):
    res = cq.lloyd(pool, 1, 2.0, init=0)
    center = res.codebook.points[0]
    mean = pool.points.mean(axis=0)
    assert np.allclose(center, mean, atol=1e-9)
    var_sum = float(pool.points.var(axis=0).sum())
    assert res.distortion == pytest.approx(var_sum, rel=1e-9)


def test_lloyd_monotone_trace(pool):
    trace = []
    res = cq.lloyd(pool, 8, 2.0, init=42, trace=trace)
    assert len(trace) == res.iters
    assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))


def test_lloyd_bad_k(pool, desk1):
    with pytest.raises(cq.BadK):
        cq.lloyd(pool, 0, 2.0, init=1)
    small = cq.sample(desk1, 10, seed=3)
    with pytest.raises(cq.BadK):
        cq.lloyd(small, 11, 2.0, init=1)
    wrong = cq.Codebook(points=np.zeros((3, 2)), k=3, origin="random")
    with pytest.raises(cq.BadK):
        cq.lloyd(pool, 2, 2.0, init=wrong)


def test_lloyd_rejects_bad_r(pool):
    with pytest.raises(ValueError):
        cq.lloyd(pool, 2, 0.0, init=1)


@pytest.mark.parametrize(
    "field, kwargs, error",
    [
        ("max_iters", {"max_iters": 0}, ValueError),
        ("order exponent r", {"r": math.nan}, ValueError),
        ("order exponent r", {"r": math.inf}, ValueError),
        ("init codebook points", {"init": cq.Codebook(np.zeros((3, 3)), 3, "random")}, cq.BadK),
    ],
    ids=["max_iters_0", "r_nan", "r_inf", "init_3x3"],
)
def test_lloyd_rejects_bad_arguments(desk1, field, kwargs, error):
    small = cq.sample(desk1, 100, seed=4)
    with pytest.raises(error, match=field):
        cq.lloyd(small, 3, **{"r": 2.0, "init": 1, **kwargs})


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_distortion_rejects_bad_r(desk1, r):
    small = cq.sample(desk1, 100, seed=4)
    cb = cq.Codebook(points=np.array([[0.45, 0.6]]), k=1, origin="random")
    with pytest.raises(ValueError, match="order exponent r"):
        cq.distortion(small, cb, r)
    with pytest.raises(ValueError, match="order exponent r"):
        cq.distortion_stats(small, cb, r)


def test_empty_cell_repair(desk1):
    small = cq.sample(desk1, 500, seed=9)
    # two coincident faraway centers guarantee an empty cell on iteration one
    init = cq.Codebook(points=np.array([[40.0, 40.0], [40.0, 40.0]]), k=2, origin="random")
    res = cq.lloyd(small, 2, 2.0, init=init)
    assert res.repairs >= 1
    assert res.distortion < 1.0


def test_lloyd_best_determinism_and_improvement(desk1):
    small = cq.sample(desk1, 4000, seed=12)
    a = cq.lloyd_best(small, 4, 2.0, seed=31, restarts=3)
    b = cq.lloyd_best(small, 4, 2.0, seed=31, restarts=3)
    assert a.distortion == b.distortion
    assert np.array_equal(a.codebook.points, b.codebook.points)
    assert a.restarts_used == 3
    single = cq.lloyd(small, 4, 2.0, init=int(np.random.default_rng((31, 4, 0)).integers(2**31)))
    assert a.distortion <= single.distortion + 1e-15


def test_distortion_trivial_cases(desk1):
    one = cq.SamplePool(points=np.array([[1.0, 0.0]]), seed=0, n=1, burn_in=64)
    origin = cq.Codebook(points=np.array([[0.0, 0.0]]), k=1, origin="random")
    assert cq.distortion(one, origin, 2.0) == pytest.approx(1.0)
    assert cq.distortion(one, origin, 1.0) == pytest.approx(1.0)
    assert cq.distortion(one, origin, 3.0) == pytest.approx(1.0)
    small = cq.sample(desk1, 300, seed=2)
    everything = cq.Codebook(points=small.points.copy(), k=small.n, origin="random")
    assert cq.distortion(small, everything, 2.0) == 0.0


def test_nested_codebooks(desk1):
    small = cq.sample(desk1, 3000, seed=8)
    base = cq.lloyd_best(small, 4, 2.0, seed=8, restarts=2).codebook
    extended = cq.Codebook(
        points=np.vstack([base.points, [[0.9, 0.9], [0.1, 0.8]]]),
        k=base.k + 2,
        origin="random",
    )
    assert cq.distortion(small, extended, 2.0) <= cq.distortion(small, base, 2.0)


def test_distortion_stats(pool):
    cb = cq.Codebook(points=np.array([[0.45, 0.6]]), k=1, origin="random")
    value, stderr = cq.distortion_stats(pool, cb, 2.0)
    assert value == pytest.approx(cq.distortion(pool, cb, 2.0), rel=1e-12)
    assert 0.0 < stderr < value


def test_distortion_stats_rejects_no_batches(desk1):
    small = cq.sample(desk1, 100, seed=4)
    cb = cq.Codebook(points=np.array([[0.45, 0.6]]), k=1, origin="random")
    for batches in (0, -3):
        with pytest.raises(ValueError):
            cq.distortion_stats(small, cb, 2.0, batches=batches)


def test_r_not_two_descent(desk1):
    small = cq.sample(desk1, 2000, seed=21)
    for r in (0.5, 1.0, 3.0):
        trace = []
        res = cq.lloyd(small, 3, r, init=5, trace=trace)
        assert len(trace) == res.iters > 2
        assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))
    # for r=1 and k=1 the optimizer beats the plain mean (geometric median)
    res1 = cq.lloyd(small, 1, 1.0, init=5)
    mean_cost = float(
        np.hypot(*(small.points - small.points.mean(axis=0)).T).mean()
    )
    assert res1.distortion <= mean_cost + 1e-12


def test_tree_and_brute_nearest_agree(desk1):
    # force both paths across the module's codebook-size threshold
    small = cq.sample(desk1, 5000, seed=17)
    rng = np.random.default_rng(3)
    centers = small.points[rng.choice(small.n, size=600, replace=False)]
    big = cq.Codebook(points=centers, k=600, origin="random")
    little = cq.Codebook(points=centers[:500], k=500, origin="random")
    d_tree = cq.distortion(small, big, 2.0)
    d_brute = cq.distortion(small, little, 2.0)
    assert d_tree <= d_brute  # superset codebook can only do better
    # and the two kernels agree on the same codebook
    lab_a, d2_a, sec_a = _nearest(small.points, centers[:500])
    lab_b, d2_b, sec_b = tree_nearest(small.points, centers[:500])
    assert np.array_equal(lab_a, lab_b)
    assert np.allclose(d2_a, d2_b, rtol=1e-10, atol=1e-15)
    assert np.allclose(sec_a, sec_b, rtol=1e-10, atol=1e-15)


def test_tree_ties_go_to_lowest_index():
    # Dyadic grids make every score and distance exact, so exact ties abound:
    # a point on the 1/128 grid is often equidistant from 2 or 4 centers.
    rng = np.random.default_rng(5)
    grid = np.array([(i, j) for i in range(65) for j in range(65)], dtype=np.float64) / 64
    centers = grid[rng.choice(len(grid), size=600, replace=False)]
    points = rng.integers(0, 129, size=(2000, 2)) / 128
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    lowest = np.argmin(d2, axis=1)  # first index among the minima
    assert (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1).max() >= 4
    labels, dmin2, _ = _nearest(points, centers)  # 600 centers: KD-tree path
    assert np.array_equal(labels, lowest)
    assert np.allclose(dmin2, d2.min(axis=1), rtol=1e-12, atol=0.0)
    lowest = np.argmin(d2[:, :500], axis=1)
    assert np.array_equal(tree_nearest(points, centers[:500])[0], lowest)
    assert np.array_equal(_nearest(points, centers[:500])[0], lowest)


def tree_nearest(points, centers):
    """_nearest with the KD-tree path forced at any codebook size."""
    old = qz._TREE_THRESHOLD
    try:
        qz._TREE_THRESHOLD = 10
        return _nearest(points, centers)
    finally:
        qz._TREE_THRESHOLD = old


def reference_dense(points, centers):
    """The dense kernel with fancy-index gathers, einsum norms and a row-wise min."""
    k = len(centers)
    c2 = np.einsum("ij,ij->i", centers, centers)
    n = len(points)
    labels = np.empty(n, dtype=np.int64)
    dmin2 = np.empty(n, dtype=np.float64)
    second2 = np.empty(n, dtype=np.float64)
    step = max(1, qz._CHUNK_ENTRIES // max(k, 1))
    for start in range(0, n, step):
        block = points[start : start + step]
        scores = block @ centers.T
        scores *= -2.0
        scores += c2
        lab = np.argmin(scores, axis=1)
        diff = block - centers[lab]
        labels[start : start + step] = lab
        dmin2[start : start + step] = np.einsum("ij,ij->i", diff, diff)
        scores[np.arange(len(block)), lab] = np.inf
        rest = scores.min(axis=1) + np.einsum("ij,ij->i", block, block)
        second2[start : start + step] = np.maximum(rest, 0.0)
    return labels, dmin2, second2


def test_dense_matches_reference_bitwise(desk1, monkeypatch):
    # A small chunk runs several chunks per call, the last one ragged.
    monkeypatch.setattr(qz, "_CHUNK_ENTRIES", 96)
    base = cq.sample(desk1, 1001, seed=23).points
    grid = np.round(base * 16) / 16  # exactly tied scores
    pools = {
        "uniform": np.random.default_rng(23).random((1001, 2)),
        "grid": grid,
        "duplicated": np.repeat(grid[:334], 3, axis=0)[:1001],
        "scaled": base * 1e3,
    }
    ragged = 0
    for name, points in pools.items():
        rng = np.random.default_rng(len(name))
        for k in (1, 2, 5, 16, 79):
            centers = points[rng.choice(len(points), size=k, replace=False)].copy()
            if k > 2:
                centers[-1] = centers[0]  # coincident centers tie for second
            step = max(1, qz._CHUNK_ENTRIES // k)
            ragged += len(points) % step != 0
            got = qz._dense(points, centers)
            want = reference_dense(points, centers)
            for what, a, b in zip(("labels", "dmin2", "second2"), got, want):
                assert np.array_equal(a, b), (name, k, what)
            assert got[0].dtype == np.int64
            if k == 1:
                assert np.isinf(got[2]).all()
    assert ragged > 0


def reference_lloyd(pool, k, r, init, max_iters=100, tol=1e-9, trace=None):
    """The full-rescore Lloyd loop: every point scored on every iteration."""
    points = pool.points
    if isinstance(init, cq.Codebook):
        centers = np.array(init.points, dtype=np.float64, copy=True)
    else:
        rng = np.random.default_rng(init)
        centers = points[rng.choice(pool.n, size=k, replace=False)].copy()
    repairs = 0
    prev = math.inf
    dist = math.inf
    iters = 0
    repair_budget = 3 * k + 10
    while iters < max_iters:
        iters += 1
        labels, dmin2, _ = reference_dense(points, centers)
        dist = float(np.mean(dmin2 ** (r / 2.0)))
        if trace is not None:
            trace.append(dist)
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if len(empties) and repair_budget > 0:
            far = np.argsort(-dmin2, kind="stable")[: len(empties)]
            centers[empties] = points[far]
            repairs += len(empties)
            repair_budget -= len(empties)
            prev = math.inf
            continue
        if math.isfinite(prev) and prev - dist <= tol * abs(prev):
            break
        prev = dist
        centers = qz._cell_centers(points, labels, centers, r)
    return centers, dist, iters, repairs


def reference_cell_centers(points, labels, old, r):
    """The per-cell loop of the r != 2 center update, one cell at a time."""
    k = len(old)
    new = old.copy()
    for c in range(k):
        members = points[labels == c]
        if len(members) == 0:
            continue
        candidates = [old[c], members.mean(axis=0)]
        a = members.mean(axis=0).copy()
        for _ in range(50):
            diff = a[None, :] - members
            d = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), 1e-12)
            w = d ** (r - 2.0)
            grad = r * (w[:, None] * diff).sum(axis=0)
            lipschitz = r * max(r - 1.0, 1.0) * w.sum()
            if lipschitz <= 0.0:
                break
            a = a - (0.5 / lipschitz) * grad
        candidates.append(a)
        costs = []
        for cand in candidates:
            diff = cand[None, :] - members
            costs.append(float((np.hypot(diff[:, 0], diff[:, 1]) ** r).sum()))
        new[c] = candidates[int(np.argmin(costs))]
    return new


def cell_costs(points, labels, centers, r):
    return np.array([
        float((np.hypot(*(centers[c] - points[labels == c]).T) ** r).sum())
        for c in range(len(centers))
    ])


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("k", [1, 3, 16])
def test_vectorised_centers_match_per_cell_loop(desk1, k, r):
    base = cq.sample(desk1, 300, seed=k).points
    points = np.vstack([base, base[:60]])  # 60 duplicated points
    rng = np.random.default_rng(k)
    old = points[rng.choice(len(points), size=k, replace=False)] + 0.01
    labels = _nearest(points, old)[0]
    if k > 1:
        labels[labels >= k - 2] = 0
        labels[5] = k - 2  # a single-member cell next to an empty one
    new = qz._cell_centers(points, labels, old, r)
    ref = reference_cell_centers(points, labels, old, r)
    counts = np.bincount(labels, minlength=k)
    assert k == 1 or (counts[k - 1], counts[k - 2]) == (0, 1)
    assert np.array_equal(new[counts == 0], old[counts == 0])
    assert np.allclose(
        cell_costs(points, labels, new, r), cell_costs(points, labels, ref, r),
        rtol=1e-12, atol=0.0,
    )

    def pick(center, c):  # 0 old center, 1 cell mean, 2 descent end
        mean = points[labels == c].mean(axis=0) if counts[c] else old[c]
        for i, cand in enumerate((old[c], mean)):
            if np.allclose(center, cand, rtol=0.0, atol=1e-12):
                return i
        return 2

    picks = [(pick(new[c], c), pick(ref[c], c)) for c in range(k)]
    assert (2, 2) in picks  # the descent itself is compared, not only the guard
    for c, (mine, theirs) in enumerate(picks):
        if mine == theirs:
            assert np.allclose(new[c], ref[c], rtol=0.0, atol=1e-12)


def test_frozen_cell_matches_loop_break():
    # At r=40 a cell of coincident points has weights (1e-12)^38, which
    # underflow to 0: its Lipschitz estimate is 0 and the loop breaks at
    # the mean.  Another cell keeps descending next to it.
    points = np.array([[0.25, 0.5]] * 4 + [[0.5, 0.5], [0.75, 0.625], [0.625, 0.875]])
    labels = np.array([0, 0, 0, 0, 1, 1, 1])
    old = np.array([[0.3, 0.4], [0.6, 0.6]])
    new = qz._cell_centers(points, labels, old, 40.0)
    ref = reference_cell_centers(points, labels, old, 40.0)
    assert np.array_equal(new[0], [0.25, 0.5])
    assert np.allclose(new, ref, rtol=0.0, atol=1e-12)
    assert not np.array_equal(new[1], old[1])


def test_cost_ties_keep_the_old_center():
    # At r=1 every point of the segment between two points costs its length;
    # on a dyadic grid the old center, the mean and the descent end tie exactly.
    points = np.array([[0.0, 0.0], [0.5, 0.0]])
    old = np.array([[0.0, 0.0]])
    labels = np.zeros(2, dtype=np.int64)
    new = qz._cell_centers(points, labels, old, 1.0)
    assert np.array_equal(new, old)
    assert np.array_equal(new, reference_cell_centers(points, labels, old, 1.0))


def assert_matches_reference(pool, k, r, init, max_iters=100):
    trace, ref_trace = [], []
    res = cq.lloyd(pool, k, r, init=init, max_iters=max_iters, trace=trace)
    centers, dist, iters, repairs = reference_lloyd(
        pool, k, r, init, max_iters=max_iters, trace=ref_trace
    )
    assert np.array_equal(res.codebook.points, centers)
    assert res.distortion == dist
    assert (res.iters, res.repairs) == (iters, repairs)
    assert trace == ref_trace
    return res


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_bounded_lloyd_matches_full_rescore(desk1, k, r):
    small = cq.sample(desk1, 3000 if r == 2.0 else 1000, seed=40 + k)
    assert_matches_reference(small, k, r, init=k, max_iters=100 if r == 2.0 else 25)


def test_bounded_lloyd_matches_full_rescore_through_repairs(desk1):
    small = cq.sample(desk1, 500, seed=9)
    far = np.array([[40.0, 40.0], [40.0, 40.0]])
    init = cq.Codebook(points=far, k=2, origin="random")
    assert assert_matches_reference(small, 2, 2.0, init).repairs >= 1
    # several coincident centers, some of them far away: repeated repairs
    pts = np.vstack([small.points[:4], far, far])
    init = cq.Codebook(points=pts, k=8, origin="random")
    assert assert_matches_reference(small, 8, 2.0, init).repairs >= 3


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_bounded_lloyd_matches_full_rescore_with_exact_ties(desk1, r):
    # every point repeated on a 1/16 grid: duplicates and exactly tied scores
    grid = np.round(cq.sample(desk1, 600, seed=2).points * 16) / 16
    points = np.repeat(grid, 3, axis=0)
    dup = cq.SamplePool(points=points, seed=2, n=len(points), burn_in=64)
    for k in (2, 5, 16):
        assert_matches_reference(dup, k, r, init=k)


def test_kept_labels_survive_score_rounding():
    # Points on the perpendicular bisector of two centers tie in exact
    # arithmetic, so rounding alone picks the dense winner.  Even with the
    # other center assigned and a lower bound equal to the winner's exact
    # distance, the margin must send every such point back to be rescored.
    rng = np.random.default_rng(11)
    centers = np.array([[0.1, 0.3], [0.7, 0.9]])
    t = rng.uniform(-0.5, 0.5, 5000)
    points = centers.mean(axis=0) + t[:, None] * np.array([0.6, -0.6])
    dense, d2, _ = qz._dense(points, centers)
    assert 0 < dense.sum() < len(dense)  # rounding splits the ties both ways
    diff = points - centers[dense]
    lower = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    labels = 1 - dense
    dmin2 = qz._reassign(points, centers, labels, lower, scale=2.0)
    assert np.array_equal(labels, dense)
    assert np.array_equal(dmin2, d2)


def test_lloyd_reports_cap(desk1):
    small = cq.sample(desk1, 2000, seed=4)
    assert cq.lloyd(small, 8, 2.0, init=3, max_iters=2).capped == 1
    assert cq.lloyd(small, 8, 2.0, init=3).capped == 0
    best = cq.lloyd_best(small, 8, 2.0, seed=3, restarts=3, max_iters=2)
    assert best.capped == 3


def test_lloyd_best_rejects_zero_restarts(desk1):
    small = cq.sample(desk1, 100, seed=4)
    with pytest.raises(ValueError):
        cq.lloyd_best(small, 2, 2.0, seed=3, restarts=0)


def test_antichain_codebook_j0(desk1, consts2, upsilon):
    cb = cq.antichain_codebook(desk1, upsilon(0))
    assert cb.k == 2
    assert cb.origin == "antichain(0)"
    pts = sorted(map(tuple, cb.points.tolist()))
    assert pts[0] == (pytest.approx(0.5), pytest.approx(0.25))
    assert pts[1] == (pytest.approx(0.5), pytest.approx(0.75))


def test_proxy_j0_and_band(desk1, consts2, upsilon):
    assert cq.theoretical_proxy(upsilon(0)) == pytest.approx(
        0.25, rel=1e-12
    )
    for j in range(0, 5):
        ups = upsilon(j)
        proxy = cq.theoretical_proxy(ups)
        assert ups.psi * consts2.eta_lo ** (j + 1) <= proxy < ups.psi * consts2.eta_lo**j
