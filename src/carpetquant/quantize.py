"""Empirical quantization: chaos-game sampling, Lloyd codebooks, proxies.

The invariant measure is realized by random iteration of the cell maps with
an i.i.d. seeded driver; a Lloyd loop (nearest-point partition / per-cell
center update, with seeded restarts and farthest-point repair of empty cells)
estimates the k-point quantization error from the pool.  Antichain codebooks
place one point at the center of each threshold-antichain square, and the
theoretical proxy sums the antichain's weights; the two sides are what the
scaling-law checks compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter
from scipy.spatial import cKDTree

from .antichain import Antichain
from .carpet import CarpetSpec
from .codes import centers

__all__ = [
    "BadK",
    "SamplePool",
    "Codebook",
    "LloydResult",
    "sample",
    "distortion",
    "distortion_stats",
    "lloyd",
    "lloyd_best",
    "antichain_codebook",
    "theoretical_proxy",
]

# Above this codebook size a KD-tree beats dense scoring; its distances are
# exact too, equal to the dense ones up to rounding.
_TREE_THRESHOLD = 512
_CHUNK_ENTRIES = 4_000_000
# Lloyd keeps a label without rescoring only when its bounds put every rival
# center farther by more than this share of the squared coordinate scale.
# That dwarfs the rounding of the score |c|^2 - 2 p.c (a few ulp of the
# scale squared) and of the bounds' running updates, so every kept label is
# the one dense scoring would pick.
_KEEP_MARGIN = 1e-9


class BadK(ValueError):
    """Requested codebook size is not in [1, pool size]."""


@dataclass(frozen=True, eq=False)
class SamplePool:
    """Chaos-game samples of the invariant measure (deterministic per seed)."""

    points: np.ndarray = field(repr=False)
    seed: int
    n: int
    burn_in: int


@dataclass(frozen=True, eq=False)
class Codebook:
    """A candidate k-point codebook."""

    points: np.ndarray = field(repr=False)
    k: int
    origin: str


@dataclass(frozen=True, eq=False)
class LloydResult:
    codebook: Codebook
    distortion: float
    iters: int
    repairs: int
    restarts_used: int = 1
    capped: int = 0


def sample(spec: CarpetSpec, n: int, seed: int, burn_in: int = 64) -> SamplePool:
    """Run the chaos game: x <- f_IJ(x) with i.i.d. cell draws.

    The coordinate recurrences x <- (x+i)/n and y <- (y+j)/m are linear
    filters over the digit streams; both are evaluated with a C-level IIR
    filter, so pools are deterministic and cheap.  The first burn_in points
    are discarded (the start point decays geometrically).
    """
    if n < 1:
        raise ValueError(f"pool size must be >= 1, got {n}")
    if burn_in < 32:
        raise ValueError(f"burn-in must be >= 32, got {burn_in}")
    rng = np.random.default_rng(seed)
    probs = np.array([p for _, _, p in spec.entries], dtype=np.float64)
    probs = probs / probs.sum()
    draws = rng.choice(len(spec.entries), size=n + burn_in, p=probs)
    cols = np.array([i for i, _, _ in spec.entries], dtype=np.float64)[draws]
    rows = np.array([j for _, j, _ in spec.entries], dtype=np.float64)[draws]
    x0 = y0 = 0.5
    xs, _ = lfilter([1.0 / spec.n], [1.0, -1.0 / spec.n], cols, zi=np.array([x0 / spec.n]))
    ys, _ = lfilter([1.0 / spec.m], [1.0, -1.0 / spec.m], rows, zi=np.array([y0 / spec.m]))
    points = np.column_stack((xs[burn_in:], ys[burn_in:]))
    return SamplePool(points=points, seed=seed, n=n, burn_in=burn_in)


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Row-wise x*x + y*y of an (n, 2) array: einsum("ij,ij->i") without its overhead."""
    x, y = v[:, 0], v[:, 1]
    return x * x + y * y


def _dense(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Dense scoring: labels, exact squared distances, second-nearest squared distances.

    The argmin runs on |c|^2 - 2 p.c (the per-point |p|^2 term cannot change
    the winner), which is one BLAS matmul per chunk, scored in place; ties go
    to the lowest index.  The reported distance is recomputed exactly for the
    chosen center only, gathered with take.  The second-nearest distance is
    |p|^2 plus the best score left once the winner is masked to inf (inf when
    k = 1), so it carries the score's rounding.  That score is found by a
    second argmin and gathered by its flat index: a minimum is one of the row's
    elements, so it is the float a row-wise min would return.
    """
    k = len(centers)
    c2 = _sq_norms(centers)
    n = len(points)
    labels = np.empty(n, dtype=np.int64)
    dmin2 = np.empty(n, dtype=np.float64)
    second2 = np.empty(n, dtype=np.float64)
    step = max(1, _CHUNK_ENTRIES // max(k, 1))
    for start in range(0, n, step):
        block = points[start : start + step]
        scores = block @ centers.T
        scores *= -2.0
        scores += c2
        lab = np.argmin(scores, axis=1)
        labels[start : start + step] = lab
        dmin2[start : start + step] = _sq_norms(block - centers.take(lab, axis=0))
        rows = np.arange(0, scores.size, k)  # flat index of each row's first score
        np.put(scores, rows + lab, np.inf)
        rest = scores.take(rows + np.argmin(scores, axis=1)) + _sq_norms(block)
        second2[start : start + step] = np.maximum(rest, 0.0)
    return labels, dmin2, second2


def _nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nearest-center labels, squared distances, and second-nearest squared distances.

    Up to _TREE_THRESHOLD centers the dense kernel scores every pair.  Above
    it a KD-tree finds the two nearest centers; where their distances tie,
    the dense kernel relabels those points, so both paths give ties to the
    lowest index.  The tree's distances are kept as they are: they agree with
    the dense ones to rounding, not bit for bit.
    """
    if len(centers) <= _TREE_THRESHOLD:
        return _dense(points, centers)
    dist, idx = cKDTree(centers).query(points, k=2)
    labels = idx[:, 0].astype(np.int64)
    tied = np.flatnonzero(dist[:, 0] == dist[:, 1])
    if len(tied):
        labels[tied] = _dense(points[tied], centers)[0]
    first, second = dist[:, 0], dist[:, 1]
    return labels, first * first, second * second


def _check_r(r: float) -> None:
    if not 0 < r < math.inf:
        raise ValueError(f"order exponent r must be positive and finite, got {r}")


def distortion(pool: SamplePool, cb: Codebook, r: float) -> float:
    """(1/n) sum of r-th powers of nearest-codeword distances over the pool."""
    _check_r(r)
    _, dmin2, _ = _nearest(pool.points, cb.points)
    return float(np.mean(dmin2 ** (r / 2.0)))


def distortion_stats(
    pool: SamplePool, cb: Codebook, r: float, batches: int = 100
) -> tuple[float, float]:
    """Distortion plus a batch-means Monte-Carlo standard error.

    Consecutive chaos-game points are correlated (they share digits), so the
    i.i.d. stderr would understate; batch means over contiguous blocks are
    the standard correction.
    """
    _check_r(r)
    if batches < 1:
        raise ValueError(f"batches must be >= 1, got {batches}")
    _, dmin2, _ = _nearest(pool.points, cb.points)
    dr = dmin2 ** (r / 2.0)
    value = float(np.mean(dr))
    b = min(batches, len(dr))
    size = len(dr) // b
    means = dr[: b * size].reshape(b, size).mean(axis=1)
    stderr = float(np.std(means, ddof=1) / math.sqrt(b)) if b > 1 else float("inf")
    return value, stderr


def _cell_centers(
    points: np.ndarray, labels: np.ndarray, old: np.ndarray, r: float
) -> np.ndarray:
    """Lloyd's center update, every cell at once; empty cells keep their center.

    For r=2 the new center is the cell mean.  Otherwise a damped gradient
    descent starts from the mean: 50 fixed steps of 0.5 / (local Lipschitz
    estimate of the gradient), and a cell whose step is not finite (its
    estimate is 0, or so small that the step overflows, as at large r) stays
    where it is from then on.  The returned center is the best of {old center,
    cell mean, descent end} by cell cost, the first on ties, which keeps the
    Lloyd loop monotone.  Every per-cell sum is a bincount, so it adds the
    cell's points in pool order.
    """
    k = len(old)
    px, py = points.T.copy()

    def cell_sums(weights: np.ndarray) -> np.ndarray:
        return np.bincount(labels, weights=weights, minlength=k)

    counts = np.bincount(labels, minlength=k)
    full = counts > 0
    mean = old.copy()
    mean[full, 0] = cell_sums(px)[full] / counts[full]
    mean[full, 1] = cell_sums(py)[full] / counts[full]
    if r == 2.0:
        return mean
    ax, ay = mean.T.copy()
    coef = r * max(r - 1.0, 1.0)
    moving = np.ones(k, dtype=bool)  # an empty cell's estimate is 0
    with np.errstate(divide="ignore", over="ignore"):  # a frozen cell's step may be inf
        for _ in range(50):
            dx = ax[labels] - px
            dy = ay[labels] - py
            w = np.maximum(np.hypot(dx, dy), 1e-12) ** (r - 2.0)
            step = 0.5 / (coef * cell_sums(w))
            moving &= np.isfinite(step)
            step = step[moving]
            ax[moving] -= step * (r * cell_sums(w * dx))[moving]
            ay[moving] -= step * (r * cell_sums(w * dy))[moving]
    candidates = np.stack((old, mean, np.column_stack((ax, ay))))
    costs = [cell_sums(np.hypot(c[labels, 0] - px, c[labels, 1] - py) ** r) for c in candidates]
    return candidates[np.argmin(costs, axis=0), np.arange(k)]


def _reassign(
    points: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    lower: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Hamerly's assignment step: keep the labels the bounds prove, rescore the rest.

    The upper bound is the exact distance d to the assigned center, which
    the distortion needs anyway.  A label is kept when every rival is farther
    by the margin, through lower (a bound on the second-nearest distance) or
    through s, half the distance from the assigned center to its nearest
    other center: a rival lies at least 2s - d away.  The other points go
    through _nearest.  Updates labels and lower in place; returns the squared
    distances to the assigned centers.
    """
    dmin2 = _sq_norms(points - centers.take(labels, axis=0))
    slack = _KEEP_MARGIN * scale * scale
    half = 0.5 * cKDTree(centers).query(centers, k=2)[0][:, 1]
    # (2s - d)^2 - d^2 = 4s(s - d) > slack  <=>  d < s - slack / (4s)
    with np.errstate(divide="ignore"):
        reach = half - slack / (4.0 * half)
    by_center = np.where(reach > 0.0, reach * reach, 0.0)
    lo = np.maximum(lower, 0.0)
    keep = dmin2 < np.maximum(lo * lo - slack, by_center.take(labels))
    redo = np.flatnonzero(~keep)
    if len(redo):
        lab, d2, second2 = _nearest(points.take(redo, axis=0), centers)
        labels[redo] = lab
        dmin2[redo] = d2
        lower[redo] = np.sqrt(second2)
    return dmin2


def lloyd(
    pool: SamplePool,
    k: int,
    r: float,
    init: Codebook | int,
    max_iters: int = 100,
    tol: float = 1e-9,
    trace: list[float] | None = None,
) -> LloydResult:
    """One Lloyd descent from a codebook or a seeded random init.

    Alternates nearest-point partition (ties to the lowest index) with
    per-cell center updates (mean for r=2, damped descent otherwise).  Empty
    cells are reseeded on the farthest pool points and counted as repairs.
    Stops when the relative distortion improvement drops below tol; a descent
    that reaches max_iters first is reported as capped.

    The partition is Hamerly's (SDM 2010, see _reassign) and equals that of
    rescoring every point on every iteration.  Each point's lower bound on
    its second-nearest distance drops by the largest shift of any other
    center per update, and is rebuilt by one full rescoring after a repair.
    """
    if k < 1:
        raise BadK(f"codebook size must be >= 1, got {k}")
    if k > pool.n:
        raise BadK(f"codebook size {k} exceeds pool size {pool.n}")
    _check_r(r)
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    points = pool.points
    if isinstance(init, Codebook):
        centers = np.array(init.points, dtype=np.float64, copy=True)
        if centers.shape != (k, 2):
            raise BadK(f"init codebook points have shape {centers.shape}, expected ({k}, 2)")
    else:
        rng = np.random.default_rng(init)
        centers = points[rng.choice(pool.n, size=k, replace=False)].copy()

    # Largest |p| + |c| seen in this descent: the scale of the score's rounding.
    point_norm = math.sqrt(float(_sq_norms(points).max()))
    scale = 0.0
    lower: np.ndarray | None = None
    repairs = 0
    prev = math.inf
    dist = math.inf
    iters = 0
    converged = False
    repair_budget = 3 * k + 10
    while iters < max_iters:
        iters += 1
        center_norm = math.sqrt(float(_sq_norms(centers).max()))
        scale = max(scale, point_norm + center_norm)
        if lower is None:
            labels, dmin2, second2 = _nearest(points, centers)
            lower = np.sqrt(second2)
        else:
            dmin2 = _reassign(points, centers, labels, lower, scale)
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
            prev = math.inf  # repaired codebook is a fresh descent
            lower = None
            continue
        if math.isfinite(prev) and prev - dist <= tol * abs(prev):
            converged = True
            break
        prev = dist
        old = centers
        centers = _cell_centers(points, labels, old, r)
        shift = np.sqrt(_sq_norms(centers - old))
        top = int(np.argmax(shift))
        runner_up = np.delete(shift, top).max(initial=0.0)
        lower -= np.where(labels == top, runner_up, shift[top])
    cb = Codebook(points=centers, k=k, origin="lloyd")
    return LloydResult(cb, dist, iters, repairs, capped=int(not converged))


def lloyd_best(
    pool: SamplePool,
    k: int,
    r: float,
    seed: int,
    restarts: int = 5,
    max_iters: int = 100,
) -> LloydResult:
    """Best of several seeded Lloyd descents (ties keep the earliest).

    The result's capped counts every descent that reached max_iters.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    results = []
    for attempt in range(restarts):
        init = int(np.random.default_rng((seed, k, attempt)).integers(2**31))
        results.append(lloyd(pool, k, r, init=init, max_iters=max_iters))
    best = min(results, key=lambda res: res.distortion)
    return LloydResult(
        codebook=best.codebook,
        distortion=best.distortion,
        iters=best.iters,
        repairs=best.repairs,
        restarts_used=restarts,
        capped=sum(res.capped for res in results),
    )


def antichain_codebook(spec: CarpetSpec, antichain: Antichain) -> Codebook:
    """One point per antichain word: the center of its approximate square."""
    points = [xy for blk in antichain.codes.blocks for xy in centers(spec, blk)]
    return Codebook(
        points=np.array(points, dtype=np.float64).reshape(-1, 2),
        k=antichain.psi,
        origin=f"antichain({antichain.j})",
    )


def theoretical_proxy(antichain: Antichain) -> float:
    """Sum of the antichain's weights: the model-side stand-in for e_psi^r."""
    return math.fsum(map(math.exp, antichain.log_w.tolist()))
