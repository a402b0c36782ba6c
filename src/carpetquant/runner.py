"""End-to-end orchestration: validated runs producing reproducible CSV files.

A run loads one carpet config, then per exponent r solves the dimension
equation, certifies the antichain inequalities, estimates quantization
errors from a seeded sample pool, and fits the scaling slope.  Five CSV
files are written (dimension, antichain, certificates, quantize, summary);
whatever rows exist are flushed even when a stage fails, and the failing
stage is named on the raised error.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TextIO, TypeVar

from .antichain import DEFAULT_CAP, CertificateReport, certify
from .carpet import CarpetError, CarpetSpec, ConfigError, load_config, validate_spec
from .constants import SpectralConstants, checked_eta_lo, constants
from .quantize import LloydResult, lloyd_best, sample, spread

__all__ = [
    "StageError",
    "RunConfig",
    "run",
    "check_fields",
    "warn_capped",
    "fit_slope",
    "format_value",
    "write_csv",
    "write_rows",
]

_T = TypeVar("_T")

DIMENSION_COLUMNS = (
    "r", "s_r", "P_r", "Q_r", "eta_lo", "eta_hi",
    "H1", "xi", "M", "H2", "H3", "H4", "H5",
)
ANTICHAIN_COLUMNS = (
    "r", "j", "psi", "k1", "k2", "sumE", "H1_bound_ok",
    "lemma31_max_ratio", "lemma41_max_ratio", "phi", "s12_ok",
)
CERTIFICATE_COLUMNS = ("r", "j", "check", "value", "op", "bound", "passed", "witness")
QUANTIZE_COLUMNS = ("r", "k", "e_k_r", "iters", "restarts_used")
SUMMARY_COLUMNS = ("r", "s_r", "slope", "slope_err", "band_ratio", "all_certificates_pass")


class StageError(RuntimeError):
    """A pipeline stage failed; the original error rides along."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; validated up front, before any computation."""

    carpet: str | Path
    output_dir: str | Path
    r_values: tuple[float, ...] = (2.0,)
    j_range: tuple[int, int] = (0, 5)
    k_grid: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    samples: int = 200_000
    seed: int = 20240816
    cap: int = DEFAULT_CAP
    restarts: int = 5


def format_value(value: object) -> str:
    """Render one CSV cell: 17 significant digits, '.' decimal, true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_rows(fh: TextIO, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)


def fit_slope(ks: Sequence[int], errors: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(k), with its stderr;
    (nan, inf) when the ks do not spread or an error is not positive."""
    if len(set(ks)) < 2 or min(errors) <= 0:
        return float("nan"), float("inf")
    xs = [math.log(k) for k in ks]
    ys = [math.log(e) for e in errors]
    n = len(xs)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    rss = math.fsum((y - ybar - slope * (x - xbar)) ** 2 for x, y in zip(xs, ys))
    err = math.sqrt(rss / (n - 2) / sxx) if n > 2 else float("inf")
    return slope, err


def check_fields(
    r_values: Sequence[float],
    j_values: Sequence[int] = (),
    k_grid: Sequence[int] = (1,),
    samples: int = 1,
    seed: int = 0,
    cap: int = 1,
    restarts: int = 1,
) -> None:
    """Reject an out-of-range run or command-line field with ConfigError.

    Every default passes, so a command checks just the fields it takes.
    """
    if not r_values or not all(0 < r < math.inf for r in r_values):
        raise ConfigError(f"r values must be positive and finite, got {r_values!r}")
    if any(j < 0 for j in j_values):
        raise ConfigError(f"scale levels must be >= 0, got {j_values!r}")
    if not k_grid or any(k < 1 for k in k_grid):
        raise ConfigError(f"codebook sizes must be >= 1, got {k_grid!r}")
    if samples < max(k_grid):
        raise ConfigError(f"pool of {samples} cannot host {max(k_grid)} centers")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")


def warn_capped(r: float, k: int, res: LloydResult) -> None:
    """One stderr line when some of a best-of-restarts' descents hit the cap."""
    if res.capped:
        print(
            f"warning: r={format_value(r)} k={k}: {res.capped} of {res.restarts_used} "
            "Lloyd descents stopped at the iteration cap without converging",
            file=sys.stderr,
        )


def _best_per_k(descend: Callable[[int], LloydResult], ks: Sequence[int]) -> list[LloydResult]:
    """descend(k) for each k of a grid, in grid order, run once per distinct k.

    The distinct ks are spread over the CPUs largest first, since the
    largest codebook takes the longest descent.
    """
    distinct = sorted(set(ks), reverse=True)
    best = dict(zip(distinct, spread(descend, distinct)))
    return [best[k] for k in ks]


def validate_run_config(cfg: RunConfig) -> CarpetSpec:
    """Check every field and load the carpet; raise ConfigError otherwise."""
    try:
        spec = load_config(cfg.carpet)
        validate_spec(spec)
    except (CarpetError, OSError) as exc:
        raise ConfigError(f"bad carpet config: {exc}") from exc
    if cfg.j_range[1] < cfg.j_range[0]:
        raise ConfigError(f"scale range must satisfy lo <= hi, got {cfg.j_range!r}")
    check_fields(cfg.r_values, cfg.j_range, cfg.k_grid, cfg.samples, cfg.seed, cfg.cap, cfg.restarts)
    for r in cfg.r_values:
        checked_eta_lo(spec, r)
    return spec


def _stage(name: str, fn: Callable[..., _T], *args, **kwargs) -> _T:
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def _dimension_row(r: float, c: SpectralConstants) -> tuple:
    return (r, c.s_r, c.P, c.Q, c.eta_lo, c.eta_hi, c.H1, c.xi, c.M, c.H2, c.H3, c.H4, c.H5)


def _antichain_rows(r: float, report: CertificateReport) -> list[tuple]:
    rows = []
    for cert in report.certificates:
        energy = cert.check("energy-sum")
        s12_ok = cert.check("count-band-lower").passed and cert.check("count-band-upper").passed
        rows.append(
            (
                r,
                cert.j,
                cert.psi,
                cert.k1,
                cert.k2,
                energy.value,
                energy.passed,
                cert.check("s1-mass").value,
                cert.check("s2-mass").value,
                cert.phi,
                s12_ok,
            )
        )
    return rows


def _certificate_rows(r: float, report: CertificateReport) -> list[tuple]:
    return [
        (r, c.j, c.name, c.value, c.op, c.bound, c.passed, c.witness) for c in report.checks
    ]


def run(cfg: RunConfig) -> int:
    """Execute all stages; return the process exit code (0 ok, 1 cert fail)."""
    spec = validate_run_config(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    dimension_rows: list[tuple] = []
    antichain_rows: list[tuple] = []
    certificate_rows: list[tuple] = []
    quantize_rows: list[tuple] = []
    summary_rows: list[tuple] = []
    all_pass = True
    j_values = tuple(range(cfg.j_range[0], cfg.j_range[1] + 1))

    try:
        pool = _stage("sample", sample, spec, cfg.samples, cfg.seed)
        for r in cfg.r_values:
            consts = _stage("dimension", constants, spec, r)
            dimension_rows.append(_dimension_row(r, consts))

            report = _stage("certify", certify, spec, consts, j_values, cfg.cap)
            antichain_rows.extend(_antichain_rows(r, report))
            certificate_rows.extend(_certificate_rows(r, report))
            all_pass = all_pass and report.all_pass

            results = _stage(
                "quantize",
                _best_per_k,
                lambda k: lloyd_best(pool, k, r, cfg.seed, cfg.restarts),
                cfg.k_grid,
            )
            errors = [res.distortion ** (1.0 / r) for res in results]
            for k, res, e in zip(cfg.k_grid, results, errors):
                quantize_rows.append((r, k, e, res.iters, res.restarts_used))
                warn_capped(r, k, res)

            slope, slope_err = fit_slope(cfg.k_grid, errors)
            power = r / consts.s_r
            try:
                scaled = [k**power * res.distortion for k, res in zip(cfg.k_grid, results)]
                band_ratio = max(scaled) / min(scaled) if min(scaled) > 0 else math.inf
            except OverflowError:  # k^(r/s_r) leaves the float range at large r
                band_ratio = math.inf
            summary_rows.append((r, consts.s_r, slope, slope_err, band_ratio, report.all_pass))
    finally:
        write_csv(out / "dimension.csv", DIMENSION_COLUMNS, dimension_rows)
        write_csv(out / "antichain.csv", ANTICHAIN_COLUMNS, antichain_rows)
        write_csv(out / "certificates.csv", CERTIFICATE_COLUMNS, certificate_rows)
        write_csv(out / "quantize.csv", QUANTIZE_COLUMNS, quantize_rows)
        write_csv(out / "summary.csv", SUMMARY_COLUMNS, summary_rows)

    return 0 if all_pass else 1
