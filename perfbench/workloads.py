"""The benchmark's workloads: what one repetition runs and how its outputs are checked.

Every repetition drives the `carpetquant` command line in-process, exactly
as a user would call it, and counts operations in a Ledger: each command
call, each of its output checks and each certificate row is one operation.
A certificate row that fails is a failed operation even when it is a known
defect; known defects only keep the run's verdict `correct`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import statistics
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# Desk-scale reference carpet of the test suite: 2x3 grid, non-uniform fibres.
DESK1 = {"m": 2, "n": 3, "entries": [[0, 0, 0.4], [1, 1, 0.3], [2, 1, 0.3]]}
# Exact-tie carpet: many refined words sit exactly on a threshold eta_lo^j, so
# float summation order decides antichain membership.
TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}
CARPETS = {"desk1": DESK1, "tie": TIE}

DEFAULT_SEED = 20240816

# Certificate failures present at the commit that introduced this benchmark:
# on the tie carpet at r=1 the embedding sandwich misses its -1e-11 log-scale
# allowance by roundoff (-1.18e-11 at j=6, -1.37e-11 at j=7).  They are counted
# as failed operations; listing them here only keeps `correct` true.
KNOWN_DEFECTS = frozenset(
    {
        ("tie", 1.0, 6, "embed-sandwich-lower"),
        ("tie", 1.0, 7, "embed-sandwich-lower"),
    }
)

# Thresholds of acceptance criterion 7 (r=2 scaling band and slope).
BAND_LIMIT = 10.0
SLOPE_LIMIT = 0.15
ORACLE_TOL = 1e-10

# The five files `run` writes, with the runner constant that fixes each header.
CSV_FILES = (
    ("dimension", "DIMENSION_COLUMNS"),
    ("antichain", "ANTICHAIN_COLUMNS"),
    ("certificates", "CERTIFICATE_COLUMNS"),
    ("quantize", "QUANTIZE_COLUMNS"),
    ("summary", "SUMMARY_COLUMNS"),
)


def sub_seed(seed: int, i: int) -> int:
    """Seed of repetition i; repetition 0 uses the workload seed itself."""
    if i == 0:
        return seed
    return int(hashlib.sha256(f"{seed}/{i}".encode()).hexdigest()[:8], 16)


class Ledger:
    """Attempted and failed operations, with the names of the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.unexpected: Counter[str] = Counter()

    def op(self, ok: bool, what: str, known: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] += 1
            if not known:
                self.unexpected[what] += 1
        return ok


def call_cli(ledger: Ledger, argv: list[str]) -> tuple[int | None, str]:
    """Run one `carpetquant` command in-process; return (exit code, stdout)."""
    from carpetquant import cli

    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a stage error the CLI maps to no exit code
        ledger.op(False, f"{argv[0]}: {type(exc).__name__}: {exc}")
        return None, out.getvalue()
    # 2 is a bad config or argument, 3 an exceeded cap: both a failed call.
    ledger.op(code in (0, 1), f"{argv[0]}: exit code {code}")
    return code, out.getvalue()


def lhs_oracle(carpet: dict, r: float, s: float) -> float:
    """Left side of the dimension equation, written independently of the package."""
    from fractions import Fraction

    m, n = carpet["m"], carpet["n"]
    probs = [float(Fraction(str(p))) for _, _, p in carpet["entries"]]
    rows: dict[int, float] = {}
    for (_, j, _), p in zip(carpet["entries"], probs):
        rows[j] = rows.get(j, 0.0) + p
    t = s / (s + r)
    theta = math.log(m) / math.log(n)
    cell_sum = math.fsum((p * m**-r) ** t for p in probs)
    row_sum = math.fsum((q * m**-r) ** t for q in rows.values())
    return math.exp(theta * math.log(cell_sum) + (1.0 - theta) * math.log(row_sum))


def bisect_200(carpet: dict, r: float) -> float:
    """Plain 200-step bisection for s_r, the oracle of acceptance criterion 1."""
    lo, hi = 0.0, 1.0
    while lhs_oracle(carpet, r, hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs_oracle(carpet, r, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _slope(ks: list[int], errors: list[float]) -> float:
    xs = [math.log(k) for k in ks]
    ys = [math.log(e) for e in errors]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    return sxy / math.fsum((x - xbar) ** 2 for x in xs)


def scaling(points: dict[float, list[tuple[int, float]]], s_by_r: dict[float, float]) -> dict:
    """Quality of a set of errors e_{k,r}: geometric mean, band and slope error.

    band_ratio is max/min of k^(r/s_r) e^r over k; slope_rel_err is
    |slope * s_r + 1| for the log-log slope, whose predicted value is -1/s_r.
    Both take the worst r.
    """
    logs = [math.log(e) for pts in points.values() for _, e in pts]
    if not logs:  # the program wrote no errors; a non-finite metric fails the run
        return dict.fromkeys(("quant_err_gmean", "band_ratio", "slope_rel_err"), math.nan)
    band = slope_err = 0.0
    for r, pts in points.items():
        ks = [k for k, _ in pts]
        es = [e for _, e in pts]
        s = s_by_r[r]
        scaled = [k ** (r / s) * e**r for k, e in pts]
        band = max(band, max(scaled) / min(scaled))
        slope_err = max(slope_err, abs(_slope(ks, es) * s + 1.0))
    return {
        "quant_err_gmean": math.exp(math.fsum(logs) / len(logs)),
        "band_ratio": band,
        "slope_rel_err": slope_err,
    }


def pooled_scaling(outcomes: list["RepOutcome"]) -> dict:
    """scaling() of the per-(r, k) median error over repetitions."""
    by_rk: dict[tuple[float, int], list[float]] = {}
    for oc in outcomes:
        for r, pts in oc.points.items():
            for k, e in pts:
                by_rk.setdefault((r, k), []).append(e)
    points: dict[float, list[tuple[int, float]]] = {}
    for (r, k), es in sorted(by_rk.items()):
        points.setdefault(r, []).append((k, statistics.median(es)))
    return scaling(points, outcomes[0].s_by_r)


@dataclass
class RepOutcome:
    seed: int
    digest: str
    points: dict[float, list[tuple[int, float]]] = field(default_factory=dict)
    s_by_r: dict[float, float] = field(default_factory=dict)


def _parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_certificates(
    ledger: Ledger, carpet: str, rows: list[dict[str, str]], r_of_row
) -> bool:
    """One operation per certificate row; returns whether any row failed."""
    any_failed = False
    for row in rows:
        r, j, check = r_of_row(row), int(row["j"]), row["check"]
        passed = row["passed"] == "true"
        any_failed = any_failed or not passed
        known = (carpet, r, j, check) in KNOWN_DEFECTS
        ledger.op(passed, f"certificate {check} on {carpet} r={r:g} j={j}", known=known)
    return any_failed


def _check_exit(ledger: Ledger, what: str, code: int | None, any_failed: bool) -> None:
    if code is not None:
        expected = 1 if any_failed else 0
        ledger.op(code == expected, f"{what}: exit code {code}, expected {expected}")


def _check_oracle(ledger: Ledger, carpet: str, r: float, s_r: float) -> None:
    oracle = bisect_200(CARPETS[carpet], r)
    ledger.op(abs(s_r - oracle) <= ORACLE_TOL, f"s_r oracle on {carpet} r={r:g}")


def _check_scaling_r2(ledger: Ledger, what: str, band: float, slope_err: float) -> None:
    ledger.op(band <= BAND_LIMIT, f"{what}: r=2 band {band:.3g} > {BAND_LIMIT}")
    ledger.op(slope_err <= SLOPE_LIMIT, f"{what}: r=2 slope error {slope_err:.3g} > {SLOPE_LIMIT}")


class Workload:
    """One job of the benchmark; rep() runs it once for a given seed."""

    # Whether a run repeats its first seed to check byte-identical outputs.
    repeats_first_seed = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.configs = {}
        for carpet, spec in CARPETS.items():
            path = workdir / f"{carpet}.json"
            path.write_text(json.dumps(spec))
            self.configs[carpet] = str(path)

    def rep(self, ledger: Ledger, seed: int) -> RepOutcome:
        raise NotImplementedError

    def warm_up(self) -> None:
        """An untimed short call, so that the first timed repetition does not
        pay for first-touch allocation and BLAS start-up at this size."""


class RunWorkload(Workload):
    """`carpetquant run` on desk-1; checks the five CSV files it writes."""

    carpet = "desk1"

    def __init__(self, workdir: Path, args: list[str], samples: int, k_max: int) -> None:
        super().__init__(workdir)
        self.args = args + ["--samples", str(samples)]
        self.warm_args = ["--samples", str(samples), "--k", str(k_max), "--restarts", "1", "--j", "0:1"]

    def warm_up(self) -> None:
        argv = ["run", "--config", self.configs[self.carpet], "--out", str(self.workdir / "warm")]
        call_cli(Ledger(), argv + self.warm_args)

    def rep(self, ledger: Ledger, seed: int) -> RepOutcome:
        from carpetquant import runner

        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", self.configs[self.carpet], "--out", str(out)]
        code, _ = call_cli(ledger, argv + ["--seed", str(seed)] + self.args)

        tables: dict[str, list[dict[str, str]]] = {}
        digest = hashlib.sha256()
        for name, columns in CSV_FILES:
            expected = tuple(getattr(runner, columns))
            path = out / f"{name}.csv"
            raw = path.read_bytes() if path.exists() else b""
            digest.update(raw)
            rows = _parse_csv(raw.decode())
            header = tuple(rows[0]) if rows else ()
            ledger.op(header == expected, f"{name}.csv header")
            tables[name] = [dict(zip(header, row)) for row in rows[1:]]

        any_failed = _check_certificates(
            ledger, self.carpet, tables["certificates"], lambda row: float(row["r"])
        )
        _check_exit(ledger, "run", code, any_failed)

        s_by_r = {float(row["r"]): float(row["s_r"]) for row in tables["dimension"]}
        for r, s_r in s_by_r.items():
            _check_oracle(ledger, self.carpet, r, s_r)
        for row in tables["summary"]:
            if float(row["r"]) == 2.0:
                slope_err = abs(float(row["slope"]) * float(row["s_r"]) + 1.0)
                _check_scaling_r2(ledger, "summary.csv", float(row["band_ratio"]), slope_err)

        points: dict[float, list[tuple[int, float]]] = {}
        for row in tables["quantize"]:
            points.setdefault(float(row["r"]), []).append((int(row["k"]), float(row["e_k_r"])))
        return RepOutcome(seed=seed, digest=digest.hexdigest(), points=points, s_by_r=s_by_r)


class AntichainDeep(Workload):
    """Deep certificate runs plus antichain codebooks scored on a 200k pool."""

    repeats_first_seed = False
    certify_runs = (("desk1", 1.0), ("desk1", 2.0), ("tie", 1.0))
    levels = "0:7"
    proxy_levels = "2:7"
    pool = 200_000

    def rep(self, ledger: Ledger, seed: int) -> RepOutcome:
        digest = hashlib.sha256()
        s_of: dict[tuple[str, float], float] = {}
        for carpet, rs in (("desk1", "1,2"), ("tie", "1")):
            _, text = call_cli(ledger, ["dimension", "--config", self.configs[carpet], "--r", rs])
            digest.update(text.encode())
            for row in _parse_csv(text)[1:]:
                s_of[(carpet, float(row[0]))] = float(row[1])
        for (carpet, r), s_r in s_of.items():
            _check_oracle(ledger, carpet, r, s_r)

        for carpet, r in self.certify_runs:
            argv = ["certify", "--config", self.configs[carpet], "--r", str(r), "--j", self.levels]
            code, text = call_cli(ledger, argv)
            digest.update(text.encode())
            rows = _parse_csv(text)
            records = [dict(zip(rows[0], row)) for row in rows[1:]] if rows else []
            any_failed = _check_certificates(ledger, carpet, records, lambda row, r=r: r)
            _check_exit(ledger, f"certify {carpet} r={r:g}", code, any_failed)

        argv = [
            "proxy", "--config", self.configs["desk1"], "--r", "2", "--j", self.proxy_levels,
            "--samples", str(self.pool), "--seed", str(seed),
        ]
        code, text = call_cli(ledger, argv)
        digest.update(text.encode())
        rows = _parse_csv(text)[1:]
        # antichain_distortion is e^r for a codebook of psi points
        points = {2.0: [(int(row[1]), float(row[3]) ** 0.5) for row in rows]}
        s_by_r = {2.0: s_of[("desk1", 2.0)]}
        quality = scaling(points, s_by_r)
        _check_scaling_r2(ledger, "proxy", quality["band_ratio"], quality["slope_rel_err"])
        return RepOutcome(seed=seed, digest=digest.hexdigest(), points=points, s_by_r=s_by_r)

    def warm_up(self) -> None:
        argv = ["proxy", "--config", self.configs["desk1"], "--r", "2", "--j", "2:4"]
        call_cli(Ledger(), argv + ["--samples", str(self.pool)])


def make_workload(name: str, workdir: Path) -> Workload:
    if name == "run-default":
        # Every `run` default (r=2, j 0:5, k 1..64, 5 restarts) except a
        # 10k-point pool, so that over ten seeds fit in one measured run.
        return RunWorkload(workdir, [], samples=10_000, k_max=64)
    if name == "lloyd-rgen":
        args = ["--r", "1,3", "--k", "1,2,4,8,16", "--restarts", "1"]
        return RunWorkload(workdir, args, samples=1_000, k_max=16)
    if name == "antichain-deep":
        return AntichainDeep(workdir)
    raise KeyError(name)
