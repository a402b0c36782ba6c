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
import os
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import accumulate
from typing import Callable, NoReturn, Sequence, TypeVar

import numpy as np

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
    "lloyd",
    "lloyd_best",
    "spread",
    "antichain_codebook",
    "theoretical_proxy",
]

# Above this codebook size a KD-tree replaces dense scoring; its distances
# are exact too, equal to the dense ones up to rounding.  The tree is faster
# well below it (from about k = 64 on a 200k-point pool, k = 192 on a 10k
# one), but the split decides which rounding proxy prints, and scipy, which
# only the tree path imports, stays out of every run with k <= 512.
_TREE_THRESHOLD = 512
_CHUNK_ENTRIES = 4_000_000
# Lloyd keeps a label without rescoring only when its bounds put every rival
# center farther by more than this share of the squared coordinate scale.
# That dwarfs the rounding of the score |c|^2 - 2 p.c (a few ulp of the
# scale squared) and of the bounds' running updates, so every kept label is
# the one dense scoring would pick.
_KEEP_MARGIN = 1e-9
# Most steps one center update takes for r != 2.
_CENTER_STEPS = 50
_BURN_IN = 64  # chaos-game points dropped: the start point's offset halves at least each step

_T = TypeVar("_T")
_R = TypeVar("_R")


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


def _coordinate(digits: np.ndarray, base: int, start: float) -> np.ndarray:
    """One chaos-game coordinate: y_t = z + c*d_t, then z = c*y_t, with c = 1/base.

    z starts at start/base.  These are the operations of
    scipy.signal.lfilter([c], [1, -c], digits, zi=[start/base]), and Python
    floats round each product and sum as it does, so the values are its
    values bit for bit.
    """
    c = 1.0 / base
    steps = (digits * c).tolist()
    path = accumulate(steps[1:], lambda y, s: c * y + s, initial=start / base + steps[0])
    return np.fromiter(path, float, len(steps))


def sample(spec: CarpetSpec, n: int, seed: int) -> SamplePool:
    """Run the chaos game: x <- f_IJ(x) with i.i.d. cell draws.

    The coordinate recurrences x <- (x+i)/n and y <- (y+j)/m are linear
    filters over the digit streams, each evaluated exactly by _coordinate, so
    pools are deterministic and cheap.  The first _BURN_IN points are dropped.
    """
    if n < 1:
        raise ValueError(f"pool size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    probs = np.array([p for _, _, p in spec.entries], dtype=np.float64)
    probs = probs / probs.sum()
    draws = rng.choice(len(spec.entries), size=n + _BURN_IN, p=probs)
    cols = np.array([i for i, _, _ in spec.entries], dtype=np.float64)[draws]
    rows = np.array([j for _, j, _ in spec.entries], dtype=np.float64)[draws]
    xs = _coordinate(cols, spec.n, 0.5)
    ys = _coordinate(rows, spec.m, 0.5)
    points = np.column_stack((xs[_BURN_IN:], ys[_BURN_IN:]))
    return SamplePool(points=points, seed=seed, n=n, burn_in=_BURN_IN)


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Row-wise x*x + y*y of an (n, 2) array: einsum("ij,ij->i") without its overhead."""
    x, y = v[:, 0], v[:, 1]
    return x * x + y * y


def _dense(
    points: np.ndarray, centers: np.ndarray, distances_only: bool = False
) -> tuple[np.ndarray, ...] | np.ndarray:
    """Dense scoring: labels, exact squared distances, second-nearest squared distances.

    The argmin runs on |c|^2 - 2 p.c (the per-point |p|^2 term cannot change
    the winner), which is one BLAS matmul per chunk, scored in place; ties go
    to the lowest index.  The reported distance is recomputed exactly for the
    chosen center only, gathered with take.  The second-nearest distance is
    |p|^2 plus the best score left once the winner is masked to inf (inf when
    k = 1), so it carries the score's rounding.  That score is found by a
    second argmin and gathered by its flat index: a minimum is one of the row's
    elements, so it is the float a row-wise min would return.

    With distances_only the squared distances alone are returned, and the
    mask, the second argmin and its gather are skipped.  The distances do not
    depend on them, so they are the same floats.
    """
    k = len(centers)
    c2 = _sq_norms(centers)
    n = len(points)
    dmin2 = np.empty(n, dtype=np.float64)
    if not distances_only:
        labels = np.empty(n, dtype=np.int64)
        second2 = np.empty(n, dtype=np.float64)
    step = max(1, _CHUNK_ENTRIES // max(k, 1))
    for start in range(0, n, step):
        block = points[start : start + step]
        scores = block @ centers.T
        scores *= -2.0
        scores += c2
        lab = np.argmin(scores, axis=1)
        dmin2[start : start + step] = _sq_norms(block - centers.take(lab, axis=0))
        if not distances_only:
            labels[start : start + step] = lab
            rows = np.arange(0, scores.size, k)  # flat index of each row's first score
            np.put(scores, rows + lab, np.inf)
            rest = scores.take(rows + np.argmin(scores, axis=1)) + _sq_norms(block)
            second2[start : start + step] = np.maximum(rest, 0.0)
        # Free this block before the next one is built, so that only one
        # _CHUNK_ENTRIES block (32 MB) is alive at a time, not two.
        del scores
    if distances_only:
        return dmin2
    return labels, dmin2, second2


def _cpus() -> int:
    """CPUs this process may run on; spread and distortion's KD-tree query use them all."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def spread(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    """[fn(x) for x in items], computed by W = min(_cpus(), len(items)) processes.

    The calling process takes items 0, W, 2W, ... itself, so fn runs here
    through whatever names it looks up, patched ones included.  Before it
    starts, it forks W - 1 children, and child w takes items w, w + W, ....
    A child pickles its results, or the exception that stopped it, into a
    pipe of its own and leaves by os._exit: it runs no atexit handler and
    flushes none of this process's stdio buffers.  For a deterministic fn
    the split is invisible.  With one CPU, or without os.fork, nothing is
    forked.

    An exception in this process's share is raised at once.  Otherwise the
    children are read in order: the first to have failed raises its
    exception, and one that ended without a result raises RuntimeError
    naming how it ended.  Every child not yet reaped is killed and reaped
    before spread returns or raises, even on KeyboardInterrupt.  Forking is
    safe because the package leaves no thread of its own running.

    While the children run, each process is bound to a CPU of its own,
    child w to the w-th allowed CPU and this process to the first, whose
    full set it gets back at the end: the kernel may leave a freshly forked
    process on its parent's CPU for longer than a short descent takes.
    numpy's OpenBLAS, where _openblas finds it, runs one thread in every
    process meanwhile, so BLAS threads do not outnumber the CPUs either;
    this process gets its own thread count back at the end.
    """
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import pickle
    import signal

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    blas = _openblas()
    threads = blas[0]() if blas else 0
    pids: list[int] = []  # children not yet reaped
    reads: dict[int, int] = {}  # child pid -> read end of its pipe, while open
    try:
        if blas:
            blas[1](1)  # the children inherit it
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                own = [cpus[w % len(cpus)]] if cpus else []
                _spread_child(fn, items[w::workers], write, own)
            os.close(write)
            pids.append(pid)
            reads[pid] = read
        _pin(cpus[:1])
        results: list = [None] * len(items)
        results[::workers] = [fn(x) for x in items[::workers]]
        for w, pid in enumerate(list(pids), 1):
            with open(reads.pop(pid), "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status or not data:
                code = os.waitstatus_to_exitcode(status)
                how = f"exit code {code}" if code >= 0 else f"signal {-code}"
                raise RuntimeError(f"spread worker {w} (pid {pid}) ended without a result: {how}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[w::workers] = value
        return results
    finally:
        if blas:
            blas[1](threads)
        _pin(cpus)
        for read in reads.values():
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], object]] | None:
    """The get and set calls of numpy's OpenBLAS thread count, looked up once; None without them."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    return None


def _pin(cpus: list[int]) -> None:
    """Let this process run only on cpus, where the platform allows it."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:  # a CPU taken away meanwhile: stay where we are
            pass


def _spread_child(fn: Callable, items: list, write: int, cpus: list[int]) -> NoReturn:
    """A forked child of spread: send its share's results, or its exception, then exit.

    An exception that does not survive a pickle round trip is sent as a
    RuntimeError carrying its type and message.  The exit code is 0 only
    after the whole message is written.
    """
    import pickle

    code = 1
    try:
        _pin(cpus)
        try:
            data = pickle.dumps((True, [fn(x) for x in items]))
        except BaseException as exc:  # forwarded to the caller, which raises it
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _nearest(
    points: np.ndarray, centers: np.ndarray, distances_only: bool = False
) -> tuple[np.ndarray, ...] | np.ndarray:
    """Nearest-center labels, squared distances, and second-nearest squared distances.

    Up to _TREE_THRESHOLD centers the dense kernel scores every pair.  Above
    it a KD-tree finds the two nearest centers; where their distances tie,
    the dense kernel relabels those points, so both paths give ties to the
    lowest index.  The tree's distances are kept as they are: they agree with
    the dense ones to rounding, not bit for bit.

    With distances_only the squared nearest distances alone are returned,
    and the tree looks for one center, not two, on every CPU.  A point's
    nearest distance comes from the same formula however many neighbours
    the tree seeks, and each point's query is independent of the others and
    of the worker threads it is split across, so these are the same floats.
    Lloyd's two-nearest query stays on one thread: no measured workload
    runs it, and it may serve only a few hundred points an iteration.
    """
    if len(centers) <= _TREE_THRESHOLD:
        return _dense(points, centers, distances_only)
    from scipy.spatial import cKDTree

    tree = cKDTree(centers)
    if distances_only:
        first = tree.query(points, k=1, workers=_cpus())[0]
        return first * first
    dist, idx = tree.query(points, k=2)
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
    dmin2 = _nearest(pool.points, cb.points, distances_only=True)
    return float(np.mean(dmin2 ** (r / 2.0)))


def _cell_centers(
    px: np.ndarray,
    py: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    old: np.ndarray,
    r: float,
) -> np.ndarray:
    """Lloyd's center update, every cell at once; empty cells keep their center.

    px and py are the pool's coordinates, counts the cell sizes.  For r=2
    the new center is the cell mean.  Otherwise each cell's cost, the sum of
    |a - p|^r over its points, is lowered:

    - r >= 1: the cost is convex, and _newton_centers runs a safeguarded
      Newton iteration from the better of the old center and the mean.
      Each step a cell tries the Newton step, then its nearest pool point
      (ties to the lowest pool index), then the damped step below, and
      keeps a try only when it lowers the cost.  A cell is done after three
      failed tries in a row; the loop stops when every cell is done, or
      after _CENTER_STEPS steps.
    - r < 1: the cost is not convex, and a Newton step can leave the basin
      the damped descent stays in, for a worse local minimum.  So the
      descent starts from the mean and takes _CENTER_STEPS damped gradient
      steps: 0.5 / (local Lipschitz estimate of the gradient) each, and a
      cell whose step is not finite (its estimate is 0, or so small that the
      step overflows) stays where it is from then on.

    The returned center is the best of {old center, cell mean, descent end}
    by cell cost, the first on ties, which keeps the Lloyd loop monotone.
    Every per-cell sum is a bincount, so it adds the cell's points in pool
    order.
    """
    k = len(old)

    def cell_sums(weights: np.ndarray) -> np.ndarray:
        return np.bincount(labels, weights=weights, minlength=k)

    full = counts > 0
    mean = old.copy()
    mean[full, 0] = cell_sums(px)[full] / counts[full]
    mean[full, 1] = cell_sums(py)[full] / counts[full]
    if r == 2.0:
        return mean
    if r >= 1.0:
        return _newton_centers(px, py, labels, old, mean, r)
    ax, ay = mean.T.copy()
    coef = r * max(r - 1.0, 1.0)
    moving = np.ones(k, dtype=bool)  # an empty cell's estimate is 0
    with np.errstate(divide="ignore", over="ignore"):  # a frozen cell's step may be inf
        for _ in range(_CENTER_STEPS):
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


def _newton_centers(
    px: np.ndarray, py: np.ndarray, labels: np.ndarray, old: np.ndarray, mean: np.ndarray, r: float
) -> np.ndarray:
    """Lower each cell's cost, the sum of |a - p|^r, for r >= 1 and r != 2.

    A cell starts from the better of its old center and its mean, the old
    one on ties: after Lloyd's first iterations the old center is usually
    near the new minimum.  The Newton step is H^-1 g, where u is the unit
    vector from p to a and w = max(|a - p|, 1e-12)^(r-2):

        g = r sum w (a - p),    H = r sum w (I + (r-2) u u^T).

    A cell takes it only where H is positive definite and the step finite,
    and keeps it only when it gains at least a quarter of the decrease the
    quadratic model predicts: near a point of weight, |t|^r with r < 2 sends
    a Newton step from t to about -t, a tiny gain each time.  A failure
    halves the share of the step the cell tries next, a success doubles it,
    up to 1.  The nearest pool point is found with ufunc.at minima, the
    lowest pool index among exact ties.  The damped step is the one of the
    r < 1 loop.  At r = 1 a point at the center is a kink, not a smooth
    term: it adds nothing to g or H, and the damped step is scaled by
    max(0, 1 - count / |g|), so it leaves the points there only when the
    pull |g| of the others exceeds their count, as in the modified Weiszfeld
    step of Vardi and Zhang (PNAS 97, 2000).  A cell of cost 0 is done at once.

    Point costs are w |a - p|^2, which is |a - p|^r beyond 1e-12, so the
    old center, the mean and the end are compared on one formula.  Each
    step's arrays hold only the points of cells still active, in pool order,
    so a cell's sums are those over the whole pool.
    """
    k = len(old)
    damp = 0.5 / max(r - 1.0, 1.0)

    def probe(cx, cy, lab, x, y):
        """Each point's squared distance to its center, and the cell sums at the centers.

        The rows are the cost, sum w, g/r, at r = 1 the count of points at the
        center, and last the entries xx, xy, yy of sum (w/|a - p|^2) (a - p)(a - p)^T.
        """
        dx = cx[lab] - x
        dy = cy[lab] - y
        d2 = dx * dx + dy * dy
        clamped = np.maximum(d2, 1e-24)
        w = clamped ** (0.5 * r - 1.0)
        if r == 1.0:
            held = d2 == 0.0
            w[held] = 0.0
        weights = [w * d2, w, w * dx, w * dy] + ([held] if r == 1.0 else [])
        w = w / clamped
        wx = w * dx
        weights += [wx * dx, wx * dy, w * dy * dy]
        return d2, np.array([np.bincount(lab, weights=v, minlength=k) for v in weights])

    lab, x, y = labels, px, py
    d2, sums = probe(mean[:, 0], mean[:, 1], lab, x, y)
    old_d2, old_sums = probe(old[:, 0], old[:, 1], lab, x, y)
    mean_cost, old_cost = sums[0].copy(), old_sums[0]
    warm = old_cost <= mean_cost
    ax, ay = np.where(warm, old.T, mean.T)
    np.copyto(sums, old_sums, where=warm)
    np.copyto(d2, old_d2, where=warm[lab])
    # next try of each cell: 0 Newton, 1 nearest point, 2 damped step, 3 done
    tries = np.where(sums[0] > 0.0, 0, 3)
    reach = np.ones(k)  # share of its Newton step a cell tries next
    live = k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_CENTER_STEPS):
            active = tries < 3
            still = int(active.sum())
            if still == 0:
                break
            if still < live:
                live = still
                keep = active[lab]
                lab, x, y, d2 = lab[keep], x[keep], y[keep], d2[keep]
            cost, sw, gx, gy = sums[:4]
            hxx, hxy, hyy = (r - 2.0) * sums[-3:]
            hxx += sw
            hyy += sw
            det = hxx * hyy - hxy * hxy
            sx = (hyy * gx - hxy * gy) / det
            sy = (hxx * gy - hxy * gx) / det
            newton = (tries == 0) & (hxx > 0.0) & (det > 0.0) & np.isfinite(sx) & np.isfinite(sy)
            tries[(tries == 0) & ~newton] = 1
            cx, cy = ax - reach * sx, ay - reach * sy

            near = tries == 1
            if near.any():
                on = np.flatnonzero(near[lab])
                closest = np.full(k, np.inf)
                np.minimum.at(closest, lab[on], d2[on])
                hit = on[d2[on] == closest[lab[on]]]
                first = np.full(k, len(lab))
                np.minimum.at(first, lab[hit], hit)
                cx[near] = x[first[near]]
                cy[near] = y[first[near]]

            damped = tries == 2
            if damped.any():
                step = damp / sw
                if r == 1.0:
                    step *= np.maximum(1.0 - sums[4] / np.hypot(gx, gy), 0.0)
                tries[damped & ~np.isfinite(step)] = 3
                damped &= tries == 2
                cx[damped] = (ax - step * gx)[damped]
                cy[damped] = (ay - step * gy)[damped]

            trying = newton | near | damped
            new_d2, new_sums = probe(cx, cy, lab, x, y)
            gain = cost - new_sums[0]
            model = r * reach * (1.0 - 0.5 * reach) * (gx * sx + gy * sy)
            better = trying & (gain > 0.0) & (~newton | (gain >= 0.25 * model))
            tries[trying] += 1
            tries[better] = 0
            reach[newton] = np.where(better, np.minimum(2.0 * reach, 1.0), 0.5 * reach)[newton]
            ax[better] = cx[better]
            ay[better] = cy[better]
            sums[:, better] = new_sums[:, better]
            np.copyto(d2, new_d2, where=better[lab])
    candidates = np.stack((old, mean, np.column_stack((ax, ay))))
    return candidates[np.argmin((old_cost, mean_cost, sums[0]), axis=0), np.arange(k)]


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
    other center: a rival lies at least 2s - d away.  That distance is the
    second distance of _nearest(centers, centers), so it carries the
    score's rounding, which the margin dwarfs as it does for lower; a
    duplicate center's is about 0 and keeps no label.  The other points go
    through _nearest.  Updates labels and lower in place; returns the
    squared distances to the assigned centers.
    """
    dmin2 = _sq_norms(points - centers.take(labels, axis=0))
    slack = _KEEP_MARGIN * scale * scale
    half = 0.5 * np.sqrt(_nearest(centers, centers)[2])
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
    per-cell center updates (_cell_centers).  Empty cells are reseeded on
    the farthest pool points and counted as repairs.
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
    px, py = points.T.copy()
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
        centers = _cell_centers(px, py, labels, counts, old, r)
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
    return replace(best, restarts_used=restarts, capped=sum(res.capped for res in results))


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
