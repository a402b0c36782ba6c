"""Acceptance checks, one per shipped guarantee.

Each test prints a single `criterion N PASS/FAIL` line (run with -s to see
them all) and enforces both the stated tolerance and the runtime budget.
The checks recompute everything from primitives rather than trusting the
certificate suite's own aggregates.
"""

import filecmp
import itertools
import math
import random
import time

import carpetquant as cq
from carpetquant.runner import RunConfig, run
from reference_walks import (
    CylinderPair,
    embed,
    energy,
    gamma_families,
    log_energy,
    log_w_mass,
    measure,
    order,
    pair_levels,
    paired_flatten,
    rect,
    reference_all_words,
    reference_log_epsilon,
    reference_product_weights,
    s1_family,
    s2_families,
    validate_word,
    w_mass,
)

LOG_SLACK = 1e-11


class Budget:
    """Context manager that times a criterion and prints its verdict line."""

    def __init__(self, num, name, seconds):
        self.num = num
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.seconds
        verdict = "PASS" if ok else "FAIL"
        print(
            f"criterion {self.num} {verdict}: {self.name} "
            f"({elapsed:.1f}s / budget {self.seconds:.0f}s)",
            flush=True,
        )
        assert elapsed < self.seconds, f"criterion {self.num} over budget: {elapsed:.1f}s"
        return False


def bisect_200(spec, r):
    """Plain 200-step bisection on the dimension equation, as an oracle."""
    lo, hi = 0.0, 1.0
    while cq.lhs(spec, r, hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cq.lhs(spec, r, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_spec(rng):
    """A random valid carpet: m < n, at least two occupied columns and rows."""
    while True:
        m = rng.randrange(2, 5)
        n = rng.randrange(m + 1, 7)
        count = rng.randrange(3, 9)
        cells = rng.sample([(i, j) for i in range(n) for j in range(m)], count)
        if len({i for i, _ in cells}) < 2 or len({j for _, j in cells}) < 2:
            continue
        raw = [rng.uniform(0.2, 1.0) for _ in cells]
        total = sum(raw)
        entries = [[i, j, p / total] for (i, j), p in zip(cells, raw)]
        spec = cq.load_config({"m": m, "n": n, "entries": entries})
        cq.validate_spec(spec)
        return spec


def test_criterion_1_dimension_solver(desk1):
    with Budget(1, "dimension solver", 1.0):
        rng = random.Random(47020)
        specs = [desk1] + [random_spec(rng) for _ in range(3)]
        for spec in specs:
            for r in (0.5, 1.0, 2.0, 3.0):
                s = cq.solve_sr(spec, r)
                assert abs(cq.lhs(spec, r, s) - 1.0) <= 1e-12
                assert abs(s - bisect_200(spec, r)) <= 1e-10
                grid = [s * (0.2 + 1.8 * i / 10) for i in range(11)]
                values = [cq.lhs(spec, r, g) for g in grid]
                assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_2_antichain_certificates(desk1, consts2, upsilon):
    with Budget(2, "threshold antichain certificates", 60.0):
        log_eta = math.log(consts2.eta_lo)
        psi = {}
        for j in range(0, 9):
            ups = upsilon(j)
            psi[j] = ups.psi
            lo, hi = (j + 1) * log_eta, j * log_eta
            assert all(lo <= lw < hi for lw in ups.log_w.tolist())
            mass = math.fsum(measure(desk1, w) for w in ups.words)
            assert abs(mass - 1.0) <= 1e-12
            total_energy = math.fsum(
                math.exp(consts2.t_r * lw) for lw in ups.log_w.tolist()
            )
            assert total_energy <= consts2.H1
        growth = (desk1.m * desk1.n) ** consts2.H1
        for j in range(0, 8):
            assert psi[j] <= psi[j + 1] <= growth * psi[j]


def test_criterion_3_overlap_family(desk1, consts2, upsilon):
    with Budget(3, "overlap family mass and gap", 30.0):
        pw = reference_product_weights(desk1, consts2)
        for j in range(0, 6):
            ups = upsilon(j)
            w_of = {w: w_mass(pw, embed(w)) for w in ups.words}
            for sigma in ups.words:
                fam = s1_family(desk1, consts2, ups.words, sigma)
                assert sigma in fam
                total = math.fsum(w_of[w] for w in fam)
                assert total <= consts2.H1 * w_of[sigma]
                gap = max(order(w) for w in fam) - order(sigma)
                assert gap <= consts2.H1


def test_criterion_4_sandwiches(desk1, consts2, pw2, upsilon):
    with Budget(4, "embedding and pair sandwiches", 30.0):
        # energy vs product mass, every word, aligned orders up to 8
        k_min = math.ceil(1.0 / cq.derive_indices(desk1).theta)
        log_pq = math.log(consts2.P) - math.log(consts2.Q)
        pw = reference_product_weights(desk1, consts2)
        for k in range(k_min, 9):
            for w in reference_all_words(desk1, k):
                le = log_energy(desk1, consts2, w)
                lw = log_w_mass(pw, embed(w))
                assert le <= lw <= le + log_pq

        # parent step bound, every aligned pair of total length <= 8 at j=3
        k1 = upsilon(3).codes.blocks[0].k
        cells = tuple((i, j) for i, j, _ in desk1.entries)
        rows = tuple(j for j, _ in cq.derive_indices(desk1).q)
        drop = math.log(consts2.eta_lo) * consts2.t_r - math.log(consts2.P)
        levels = pair_levels(desk1, pw2, k1, 8)
        for d in range(1, 9):
            a = cq.ell(desk1, k1 + d) - cq.ell(desk1, k1)
            direct = {
                CylinderPair(sig, om)
                for sig in itertools.product(cells, repeat=a)
                for om in itertools.product(rows, repeat=d - a)
            }
            from_tree = levels[d][1]
            assert set(from_tree) == direct and len(from_tree) == len(direct)
            for pair in direct:
                parent = paired_flatten(desk1, pair, offset=k1)
                lw = log_w_mass(pw, pair)
                lwp = log_w_mass(pw, parent)
                assert lwp + drop <= lw < lwp


def test_criterion_5_comparable_descendants(desk1, consts2):
    with Budget(5, "comparable descendant families", 30.0):
        rng = random.Random(47021)
        cells = tuple((i, j) for i, j, _ in desk1.entries)
        rows = tuple(j for j, _ in cq.derive_indices(desk1).q)
        sigmas = []
        for _ in range(50):
            k = rng.randrange(1, 9)
            la = cq.ell(desk1, k)
            sigma = cq.Word(
                tuple(rng.choice(cells) for _ in range(la)),
                tuple(rng.choice(rows) for _ in range(k - la)),
            )
            validate_word(desk1, sigma)
            sigmas.append(sigma)
        for sigma, fam in zip(sigmas, s2_families(desk1, consts2, sigmas)):
            e_sigma = energy(desk1, consts2, sigma)
            total = math.fsum(energy(desk1, consts2, w) for w in fam)
            assert total <= consts2.H3 * e_sigma
            assert max(order(w) for w in fam) - order(sigma) <= consts2.M


def test_criterion_6_multilevel_pipeline(desk1, consts2, pw2, upsilon):
    with Budget(6, "multi-level construction", 120.0):
        t = consts2.t_r
        log_eta = math.log(consts2.eta_lo)
        log_pq = math.log(consts2.P) - math.log(consts2.Q)
        pw = reference_product_weights(desk1, consts2)
        for j in (2, 3, 4):
            ups = upsilon(j)
            k1 = ups.codes.blocks[0].k
            lam = {w for w in ups.words if order(w) == k1}

            # every per-anchor family W-partitions the product space
            taus = [tau for tau in reference_all_words(desk1, k1) if tau not in lam]
            eps = [reference_log_epsilon(desk1, consts2, j, tau) for tau in taus]
            for pairs, _ in gamma_families(desk1, pw2, k1, eps):
                total = math.fsum(w_mass(pw, p) for p in pairs)
                assert abs(total - 1.0) <= 1e-12

            res = cq.build_l1_l2(desk1, consts2, ups)
            assert res.l1_distinct
            e_lo = math.log(consts2.Q) - 2.0 * math.log(consts2.P) + (j + 1) * t * log_eta
            e_hi = log_pq + j * t * log_eta
            for w in res.l1:
                validate_word(desk1, w)
                le = math.log(energy(desk1, consts2, w))
                assert e_lo - LOG_SLACK <= le <= e_hi + LOG_SLACK

            squares = [rect(desk1, w) for w in res.l2]
            for a_i, b_i in itertools.combinations(squares, 2):
                assert not a_i.overlaps_interior(b_i)

            core_energy = math.fsum(energy(desk1, consts2, w) for w in res.l2)
            assert core_energy >= consts2.Q / (consts2.H3 * consts2.P)
            assert core_energy <= 1.0
            phi = len(res.l2)
            assert phi >= consts2.H5 * math.exp(-j * t * log_eta)
            assert phi <= consts2.H4 * math.exp(-(j + 1) * t * log_eta)


def test_criterion_7_error_scaling_band(desk1, consts2, pool):
    with Budget(7, "quantization error scaling", 120.0):
        r, s = 2.0, consts2.s_r
        ks = (1, 2, 4, 8, 16, 32, 64)
        distortions = [
            cq.lloyd_best(pool, k, r, seed=pool.seed, restarts=5).distortion for k in ks
        ]
        scaled = [k ** (r / s) * d for k, d in zip(ks, distortions)]
        assert max(scaled) / min(scaled) <= 10.0
        from carpetquant.runner import fit_slope

        slope, _ = fit_slope(ks, [d ** (1.0 / r) for d in distortions])
        target = -1.0 / s
        assert abs(slope - target) <= 0.15 * abs(target)


def test_criterion_8_proxy_consistency(desk1, consts2, pool, upsilon):
    with Budget(8, "antichain codebook versus proxy", 60.0):
        r = 2.0
        blowup = (desk1.n**2 + 1) ** (r / 2.0)
        ratios = []
        for j in range(2, 7):
            ups = upsilon(j)
            cb = cq.antichain_codebook(desk1, ups)
            value = cq.distortion(pool, cb, r)
            proxy = cq.theoretical_proxy(ups)
            assert value <= blowup * proxy
            ratios.append(value / proxy)
        assert max(ratios) / min(ratios) <= 4.0


def test_criterion_9_run_determinism(desk1_path, tmp_path, monkeypatch):
    with Budget(9, "end-to-end run determinism", 300.0):
        outs = (tmp_path / "first", tmp_path / "second")
        assert run(RunConfig(carpet=desk1_path, output_dir=outs[0])) == 0
        # The second run descends in this process alone, so the k grid spread
        # over forked workers is checked against the in-process loop.
        monkeypatch.setattr(cq.quantize, "_cpus", lambda: 1)
        assert run(RunConfig(carpet=desk1_path, output_dir=outs[1])) == 0
        names = (
            "dimension.csv", "antichain.csv", "certificates.csv",
            "quantize.csv", "summary.csv",
        )
        for name in names:
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
