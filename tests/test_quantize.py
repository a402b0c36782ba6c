import math
import os
import signal
import time
import tracemalloc

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


def lfilter_sample(spec, n, seed, burn_in=64):
    """sample() with its coordinates from scipy's IIR filter, as it was first written."""
    from scipy.signal import lfilter

    probs = np.array([p for _, _, p in spec.entries])
    draws = np.random.default_rng(seed).choice(
        len(spec.entries), size=n + burn_in, p=probs / probs.sum()
    )
    coords = []
    for axis, base in ((0, spec.n), (1, spec.m)):
        stream = np.array([cell[axis] for cell in spec.entries], dtype=np.float64)[draws]
        c = 1.0 / base
        coords.append(lfilter([c], [1.0, -c], stream, zi=np.array([0.5 / base]))[0][burn_in:])
    return np.column_stack(coords)


GRIDS = [(m, n) for m in range(2, 6) for n in range(m + 1, 6)]


def assert_sample_equals_lfilter(spec, size, seeds):
    # size 1 with the least burn-in is the smallest pool: 33 draws
    burn_in = 32 if size == 1 else 64
    for seed in seeds:
        got = cq.sample(spec, size, seed, burn_in=burn_in).points
        want = lfilter_sample(spec, size, seed, burn_in=burn_in)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("m, n", GRIDS)
@pytest.mark.parametrize("size", [1, 1000, 200_000])
def test_sample_equals_lfilter_bitwise(m, n, size):
    # every cell occupied, unequal weights
    rng = np.random.default_rng(m * 10 + n)
    weights = rng.uniform(0.1, 1.0, size=m * n)
    entries = [[i, j, w / weights.sum()] for (i, j), w in zip(np.ndindex(n, m), weights)]
    spec = cq.load_config({"m": m, "n": n, "entries": entries})
    assert_sample_equals_lfilter(spec, size, (0, 1, 20240816))


@pytest.mark.parametrize("size", [1, 5000, 200_000])
def test_sample_equals_lfilter_bitwise_on_a_skewed_carpet(size):
    # Long runs of 0 digits only rescale a wrongly guessed block start, so
    # they force many rerun rounds.
    spec = cq.load_config({"m": 2, "n": 5, "entries": [[0, 0, 0.999], [4, 1, 0.001]]})
    assert_sample_equals_lfilter(spec, size, (0, 3, 11))


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


def test_lloyd_monotone_trace(pool, desk1):
    trace = []
    res = cq.lloyd(pool, 8, 2.0, init=42, trace=trace)
    assert len(trace) == res.iters
    assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:]))
    # For r != 2 the best-of-three guard of the center update keeps it monotone.
    small = cq.sample(desk1, 2000, seed=5)
    for r in (0.5, 1.0, 1.5, 3.0):
        for k in (3, 8, 16):
            for init in range(3):
                trace = []
                res = cq.lloyd(small, k, r, init=init, trace=trace)
                assert len(trace) == res.iters > 1
                assert all(b <= a * (1 + 1e-12) for a, b in zip(trace, trace[1:])), (r, k, init)


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


@pytest.mark.parametrize("cpus", [None, 3])
def test_distortion_reads_the_nearest_distances_bit_for_bit(desk1, monkeypatch, cpus):
    # distortion scores on nearest distances only: the dense kernel skips the
    # second-nearest scores, the tree seeks one center over every CPU.  The
    # distances must be those of the full kernel and of a one-worker tree.
    from scipy.spatial import cKDTree

    if cpus is not None:  # more query threads than this host may have cores
        monkeypatch.setattr(qz, "_cpus", lambda: cpus)
    chaos = cq.sample(desk1, 20_000, seed=41)
    grid = np.round(chaos.points * 16) / 16  # exact distance ties, points on centers
    pools = (chaos, cq.SamplePool(points=grid, seed=41, n=len(grid), burn_in=64))
    rng = np.random.default_rng(41)
    for pool in pools:
        for k in (1, 34, 512, 513, 2000):
            centers = pool.points[rng.choice(pool.n, size=k, replace=False)]
            cb = cq.Codebook(points=centers, k=k, origin="random")
            d2 = _nearest(pool.points, centers)[1]
            only = _nearest(pool.points, centers, distances_only=True)
            assert np.array_equal(only.view(np.int64), d2.view(np.int64)), k
            if k > qz._TREE_THRESHOLD:
                first = cKDTree(centers).query(pool.points, k=2, workers=1)[0][:, 0]
                assert np.array_equal(only.view(np.int64), (first * first).view(np.int64)), k
            for r in (0.5, 1.0, 2.0, 3.0):
                want = float(np.mean(d2 ** (r / 2.0)))
                assert cq.distortion(pool, cb, r) == want, (k, r)
    assert len(np.unique(centers, axis=0)) < len(centers)  # the grid's centers repeat


def tree_separation(centers):
    from scipy.spatial import cKDTree

    return cKDTree(centers).query(centers, k=2)[0][:, 1]


def test_separation_equals_kdtree_bitwise(desk1, monkeypatch):
    one = np.array([[0.25, 0.5]])
    assert qz._separation(one)[0] == np.inf == tree_separation(one)[0]
    dup = np.array([[0.1, 0.2], [0.7, 0.3], [0.1, 0.2]])
    assert qz._separation(dup).tolist() == [0.0, tree_separation(dup)[1], 0.0]
    rng = np.random.default_rng(8)
    chaos = cq.sample(desk1, 5000, seed=2).points
    for trial in range(300):
        k = int(rng.integers(2, 513))
        centers = (
            rng.random((k, 2)),
            rng.integers(0, 17, size=(k, 2)) / 16,  # exact ties and duplicates
            rng.random((k, 2)) * 1e3,
            chaos[rng.choice(len(chaos), size=k, replace=False)],
        )[trial % 4]
        got = qz._separation(centers)
        assert np.array_equal(got.view(np.int64), tree_separation(centers).view(np.int64))
    # above the threshold the tree runs; the dense search agrees there too
    centers = chaos[:600]
    assert np.array_equal(qz._separation(centers), tree_separation(centers))
    monkeypatch.setattr(qz, "_TREE_THRESHOLD", 1000)
    dense = qz._separation(centers)
    assert np.array_equal(dense.view(np.int64), tree_separation(centers).view(np.int64))


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


def test_dense_holds_one_score_block_at_a_time(monkeypatch):
    # 40k points against 100 centers run as 4 blocks of 1M scores (8 MB).
    # Each block is freed before the next is built, so the traced peak is one
    # block plus the per-point outputs (1 MB), not two blocks.
    monkeypatch.setattr(qz, "_CHUNK_ENTRIES", 1_000_000)
    rng = np.random.default_rng(31)
    points, centers = rng.random((40_000, 2)), rng.random((100, 2))
    block_bytes = 8 * qz._CHUNK_ENTRIES
    tracemalloc.start()
    try:
        qz._dense(points, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block_bytes < peak < 1.5 * block_bytes


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
        centers = cell_centers(points, labels, centers, r)
    return centers, dist, iters, repairs


def cell_centers(points, labels, old, r):
    px, py = points.T.copy()
    return qz._cell_centers(px, py, labels, np.bincount(labels, minlength=len(old)), old, r)


def reference_cell_centers(points, labels, old, r):
    """The damped center update (50 fixed steps), one cell at a time.

    It is the update at r < 1, and the baseline the r >= 1 solver must match
    or beat."""
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


def pool_sum(values):
    """Sum in array order, as a bincount adds a cell's points."""
    return float(np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)[0])


def reference_newton_centers(points, labels, old, r):
    """The r >= 1 center update, one cell at a time, from the better of old center and mean."""
    new = old.copy()
    for c in range(len(old)):
        members = points[labels == c]
        if len(members) == 0:
            continue
        x, y = members.T.copy()

        def probe(a):
            dx, dy = a[0] - x, a[1] - y
            d2 = dx * dx + dy * dy
            clamped = np.maximum(d2, 1e-24)
            w = clamped ** (0.5 * r - 1.0)
            if r == 1.0:
                w[d2 == 0.0] = 0.0
            q = w / clamped
            return d2, {
                "cost": pool_sum(w * d2), "sw": pool_sum(w),
                "g": np.array([pool_sum(w * dx), pool_sum(w * dy)]),
                "held": float(np.count_nonzero(d2 == 0.0)),
                "s": np.array([pool_sum(q * dx * dx), pool_sum(q * dx * dy), pool_sum(q * dy * dy)]),
            }

        mean = np.array([pool_sum(x), pool_sum(y)]) / len(x)
        old_cost = probe(old[c])[1]["cost"]
        mean_cost = probe(mean)[1]["cost"]
        a = old[c].copy() if old_cost <= mean_cost else mean.copy()
        d2, at = probe(a)
        tries, reach = (0 if at["cost"] > 0.0 else 3), 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(50):
                if tries == 3:
                    break
                g = at["g"]
                sxx, sxy, syy = (r - 2.0) * at["s"]
                h = np.array([[at["sw"] + sxx, sxy], [sxy, at["sw"] + syy]])
                det = h[0, 0] * h[1, 1] - h[0, 1] * h[0, 1]
                s = np.array([h[1, 1] * g[0] - h[0, 1] * g[1], h[0, 0] * g[1] - h[0, 1] * g[0]]) / det
                newton = tries == 0 and h[0, 0] > 0.0 and det > 0.0 and np.isfinite(s).all()
                if tries == 0 and not newton:
                    tries = 1
                if newton:
                    cand = a - reach * s
                elif tries == 1:
                    cand = members[int(np.argmin(d2))]  # first of equal minima
                else:
                    step = 0.5 / max(r - 1.0, 1.0) / at["sw"]
                    if r == 1.0:
                        step *= max(1.0 - at["held"] / np.hypot(g[0], g[1]), 0.0)
                    if not np.isfinite(step):
                        tries = 3
                        continue
                    cand = a - step * g
                cand_d2, cand_at = probe(cand)
                gain = at["cost"] - cand_at["cost"]
                model = r * reach * (1.0 - 0.5 * reach) * (g[0] * s[0] + g[1] * s[1])
                ok = gain > 0.0 and (not newton or gain >= 0.25 * model)
                if newton:
                    reach = min(2.0 * reach, 1.0) if ok else 0.5 * reach
                if ok:
                    a, d2, at, tries = cand, cand_d2, cand_at, 0
                else:
                    tries += 1
        costs = [old_cost, mean_cost, at["cost"]]
        new[c] = (old[c], mean, a)[int(np.argmin(costs))]
    return new


def cell_costs(points, labels, centers, r):
    return np.array([
        float((np.hypot(*(centers[c] - points[labels == c]).T) ** r).sum())
        for c in range(len(centers))
    ])


def assert_no_worse_than_damped(points, labels, old, new, r):
    damped = cell_costs(points, labels, reference_cell_centers(points, labels, old, r), r)
    assert (cell_costs(points, labels, new, r) <= damped * (1.0 + 1e-15)).all()


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
    new = cell_centers(points, labels, old, r)
    counts = np.bincount(labels, minlength=k)
    assert k == 1 or (counts[k - 1], counts[k - 2]) == (0, 1)
    assert np.array_equal(new[counts == 0], old[counts == 0])

    def pick(center, c):  # 0 old center, 1 cell mean, 2 descent end
        mean = points[labels == c].mean(axis=0) if counts[c] else old[c]
        for i, cand in enumerate((old[c], mean)):
            if np.allclose(center, cand, rtol=0.0, atol=1e-12):
                return i
        return 2

    if r >= 1.0:
        assert np.allclose(new, reference_newton_centers(points, labels, old, r), rtol=1e-12, atol=0.0)
        assert_no_worse_than_damped(points, labels, old, new, r)
        assert 2 in [pick(new[c], c) for c in range(k)]  # the solver itself is compared
        # From the end as old centers, cells start there rather than at the mean.
        again = cell_centers(points, labels, new, r)
        assert np.allclose(again, reference_newton_centers(points, labels, new, r), rtol=1e-12, atol=0.0)
        assert (cell_costs(points, labels, again, r) <= cell_costs(points, labels, new, r) * (1 + 1e-15)).all()
        return
    ref = reference_cell_centers(points, labels, old, r)
    assert np.allclose(
        cell_costs(points, labels, new, r), cell_costs(points, labels, ref, r),
        rtol=1e-12, atol=0.0,
    )
    picks = [(pick(new[c], c), pick(ref[c], c)) for c in range(k)]
    assert (2, 2) in picks  # the descent itself is compared, not only the guard
    for c, (mine, theirs) in enumerate(picks):
        if mine == theirs:
            assert np.allclose(new[c], ref[c], rtol=0.0, atol=1e-12)


def test_frozen_cell_matches_loop_break():
    # At r=40 a cell of coincident points costs 0 at its mean, so it stays
    # there, where the damped loop's weights (1e-12)^38 underflow to 0 and
    # break it.  Another cell keeps descending next to it.
    points = np.array([[0.25, 0.5]] * 4 + [[0.5, 0.5], [0.75, 0.625], [0.625, 0.875]])
    labels = np.array([0, 0, 0, 0, 1, 1, 1])
    old = np.array([[0.3, 0.4], [0.6, 0.6]])
    new = cell_centers(points, labels, old, 40.0)
    assert np.array_equal(new[0], [0.25, 0.5])
    assert np.array_equal(reference_cell_centers(points, labels, old, 40.0)[0], [0.25, 0.5])
    assert np.allclose(new, reference_newton_centers(points, labels, old, 40.0), rtol=1e-12, atol=0.0)
    assert_no_worse_than_damped(points, labels, old, new, 40.0)
    assert not np.array_equal(new[1], old[1])


def test_cost_ties_keep_the_old_center():
    # At r=1 every point of the segment between two points costs its length;
    # on a dyadic grid the old center, the mean and the descent end tie exactly.
    points = np.array([[0.0, 0.0], [0.5, 0.0]])
    old = np.array([[0.0, 0.0]])
    labels = np.zeros(2, dtype=np.int64)
    new = cell_centers(points, labels, old, 1.0)
    assert np.array_equal(new, old)
    assert np.array_equal(new, reference_cell_centers(points, labels, old, 1.0))


def one_cell(points):
    return np.zeros(len(points), dtype=np.int64)


def test_r1_median_of_an_obtuse_triangle_is_its_vertex():
    # The median of three points is the vertex whose angle is at least 120
    # degrees: the cost has a kink there, which the nearest-point try reaches.
    for points, vertex in (
        (np.array([[0.0, 0.375], [0.5, 0.5], [1.0, 0.375]]), 1),  # 152 degrees
        (np.array([[0.1, 0.2], [0.9, 0.3], [0.45, 0.33]]), 2),  # 156 degrees
    ):
        new = cell_centers(points, one_cell(points), np.array([[0.3, 0.9]]), 1.0)
        assert np.array_equal(new[0], points[vertex])


def test_r1_median_of_collinear_points_is_the_middle_one():
    # An odd number of points on a line: the median is the middle point.  In
    # the second set the point nearest the mean is not the middle one.
    direction = np.array([0.6, 0.3])
    for t, middle in (([1.0, 0.0, 0.3, 0.9, 0.5], 4), ([0.0, 0.01, 0.02, 0.03, 0.04, 5.0, 6.0], 3)):
        points = np.array([0.1, 0.2]) + np.outer(np.array(t) / max(t), direction)
        new = cell_centers(points, one_cell(points), np.array([[0.3, 0.9]]), 1.0)
        assert np.array_equal(new[0], points[middle])


@pytest.mark.parametrize("r", [1.5, 3.0])
def test_center_of_a_point_symmetric_cell_is_its_center(r):
    center = np.array([0.4, 0.6])
    arms = np.array([[0.1, 0.05], [-0.02, 0.13], [0.07, -0.09], [0.3, 0.01]])
    points = np.vstack([center + arms, center - arms])
    new = cell_centers(points, one_cell(points), np.array([[0.3, 0.9]]), r)
    assert np.allclose(new[0], center, rtol=0.0, atol=1e-12)


def test_nearest_point_ties_go_to_the_lowest_pool_index():
    # The mean (2/3, 7/12) is equally far from the last two points, and the
    # solver's path, hence its last bits, depends on which one it tries.
    points = np.array([[0.25, 1.0], [0.75, 0.25], [1.0, 0.5]])
    old = np.array([[0.76, 1.01]])
    for order in ([0, 1, 2], [0, 2, 1]):
        pts = points[order]
        new = cell_centers(pts, one_cell(pts), old, 1.0)
        assert np.allclose(new, reference_newton_centers(pts, one_cell(pts), old, 1.0), rtol=1e-12, atol=0.0)


def test_r15_center_next_to_a_heavy_point():
    # 88 copies of one point and one point L = 1/16 to its right: at r=1.5
    # the minimizer lies L / (1 + 88^2) right of the heavy point.  The
    # Newton step of |t|^1.5 flips t to -t, so only the sufficient-decrease
    # rule stops it from bouncing around the heavy point for every step.
    points = np.array([[0.75, 0.75]] * 88 + [[0.8125, 0.75]])
    old = np.array([[0.7536, 0.7346]])
    new = cell_centers(points, one_cell(points), old, 1.5)
    assert np.allclose(new[0], [0.75 + 0.0625 / 7745, 0.75], rtol=0.0, atol=1e-12)
    assert_no_worse_than_damped(points, one_cell(points), old, new, 1.5)


def test_r1_center_leaves_a_doubled_point_that_is_not_the_median():
    # The point nearest the mean is held by two copies, and the pull of the
    # other three (2.08) exceeds their count: the damped step must leave it
    # (Vardi and Zhang's rule), where the plain one stays.
    points = np.array([[3, 5], [3, 5], [13, 3], [6, 8], [6, 8]]) / 16
    old = np.array([[0.4365, 0.1974]])
    new = cell_centers(points, one_cell(points), old, 1.0)
    assert not np.array_equal(new[0], points[3])
    assert_no_worse_than_damped(points, one_cell(points), old, new, 1.0)
    assert np.allclose(new, reference_newton_centers(points, one_cell(points), old, 1.0), rtol=1e-12, atol=0.0)


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


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no CPU affinity calls on this platform"
)
ALLOWED_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_no_child_left():
    """No child of this process is left, and spread gave this process its CPUs back."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if ALLOWED_CPUS is not None:
        assert os.sched_getaffinity(0) == ALLOWED_CPUS


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_spread_equals_the_loop(monkeypatch, cpus, n):
    monkeypatch.setattr(qz, "_cpus", lambda: cpus)
    items = [0.5 * x for x in range(n)]
    assert qz.spread(math.exp, items) == [math.exp(x) for x in items]
    assert_no_child_left()


@needs_affinity
def test_spread_deals_items_round_robin_and_keeps_a_share(monkeypatch):
    monkeypatch.setattr(qz, "_cpus", lambda: 3)
    allowed = sorted(ALLOWED_CPUS)
    seen = qz.spread(lambda _: (os.getpid(), os.sched_getaffinity(0)), range(7))
    pids = [pid for pid, _ in seen]
    assert pids[::3] == [os.getpid()] * 3
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1 and len(set(pids)) == 3
    # worker w ran on the w-th allowed CPU alone
    assert [cpus for _, cpus in seen] == [{allowed[w % 3 % len(allowed)]} for w in range(7)]
    assert_no_child_left()


class _TwoArgError(Exception):
    """Does not survive a pickle round trip: its args hold one message, not two values."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _fail_at_one(x):
    if x == 1:
        raise ValueError(f"no descent at item {x}")
    if x == 3:
        raise _TwoArgError("item 3", "no descent")
    return x


@pytest.mark.parametrize(
    "items, error, message",
    [([0, 1, 2], ValueError, "no descent at item 1"),
     ([0, 3], RuntimeError, "_TwoArgError: item 3: no descent")],
)
def test_spread_raises_a_child_exception(monkeypatch, items, error, message):
    monkeypatch.setattr(qz, "_cpus", lambda: 2)  # item 1 goes to the child
    with pytest.raises(error, match=message):
        qz.spread(_fail_at_one, items)
    assert_no_child_left()


def test_a_failed_child_descent_fails_the_quantize_stage(desk1_path, tmp_path, monkeypatch):
    from carpetquant import runner

    def lloyd_best(pool, k, *args):
        if k == 1:  # the ks run largest first, so the child takes k = 1
            raise qz.BadK("no codebook of size 1 here")
        return qz.lloyd_best(pool, k, *args)

    monkeypatch.setattr(qz, "_cpus", lambda: 2)
    monkeypatch.setattr(runner, "lloyd_best", lloyd_best)
    cfg = cq.RunConfig(
        carpet=desk1_path, output_dir=tmp_path, j_range=(0, 1), k_grid=(1, 2), samples=500, restarts=1
    )
    with pytest.raises(cq.StageError, match="stage 'quantize' failed: no codebook of size 1") as info:
        runner.run(cfg)
    assert isinstance(info.value.cause, qz.BadK)
    lines = {name: (tmp_path / f"{name}.csv").read_text().splitlines() for name in
             ("dimension", "antichain", "certificates", "quantize", "summary")}
    assert len(lines["dimension"]) == 2 and len(lines["antichain"]) == 3
    assert len(lines["certificates"]) > 2
    assert len(lines["quantize"]) == len(lines["summary"]) == 1
    assert_no_child_left()


@pytest.mark.parametrize(
    "end, how",
    [(lambda: os._exit(3), "exit code 3"),
     (lambda: os._exit(0), "exit code 0"),
     (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}")],
)
def test_spread_names_a_child_that_ends_without_a_result(monkeypatch, end, how):
    monkeypatch.setattr(qz, "_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=f"ended without a result: {how}$"):
        qz.spread(lambda x: end() if x == 1 else x, [0, 1])
    assert_no_child_left()


def test_spread_interrupted_in_its_own_share_leaves_no_child(monkeypatch):
    monkeypatch.setattr(qz, "_cpus", lambda: 2)

    def work(x):
        if x == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        qz.spread(work, [0, 1])
    assert time.perf_counter() - start < 30  # the sleeping child was killed, not awaited
    assert_no_child_left()


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
