"""Command-line interface.

Subcommands: validate, dimension, antichain, certify, quantize, proxy, run.
All tabular output is CSV with 17-significant-digit floats so downstream
tools can diff runs byte for byte.  Exit codes: 0 success, 1 a certified
bound failed, 2 bad config or arguments, 3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from .antichain import CapExceeded, CertificateReport, build_upsilon, certify
from .carpet import CarpetError, CarpetSpec, ConfigError, derive_indices, load_config, validate_spec
from .constants import constants
from .quantize import antichain_codebook, distortion, lloyd_best, sample, theoretical_proxy
from .runner import (
    ANTICHAIN_COLUMNS,
    CERTIFICATE_COLUMNS,
    DIMENSION_COLUMNS,
    QUANTIZE_COLUMNS,
    RunConfig,
    StageError,
    _antichain_rows,
    _best_per_k,
    _certificate_rows,
    _dimension_row,
    check_fields,
    run,
    warn_capped,
    write_rows,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


def _split(text: str, sep: str, convert: Callable, expected: str, ok=lambda values: True) -> tuple:
    """text split on sep, each part converted; a bad part or a false ok(values) is a usage error."""
    try:
        values = tuple(convert(part) for part in text.split(sep))
        if ok(values):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return _split(text, ",", float, "comma-separated numbers")


def _parse_ints(text: str) -> tuple[int, ...]:
    return _split(text, ",", int, "comma-separated integers")


def _parse_j_list(text: str) -> tuple[int, ...]:
    """Scale indices: either '2,3,4' or an inclusive range '2:4'."""
    expected = "'a,b,c' or 'lo:hi'"
    if ":" not in text:
        return _split(text, ",", int, expected)
    lo, hi = _split(text, ":", int, expected, ok=lambda v: len(v) == 2 and v[0] <= v[1])
    return tuple(range(lo, hi + 1))


def _parse_j_interval(text: str) -> tuple[int, int]:
    return _split(text, ":", int, "'lo:hi'", ok=lambda v: len(v) == 2)


def _load_spec(path: str) -> CarpetSpec:
    spec = load_config(path)
    validate_spec(spec)
    return spec


def _cmd_validate(args) -> int:
    spec = _load_spec(args.config)
    idx = derive_indices(spec)
    print(
        f"ok: {spec.m}x{spec.n} grid, {len(spec.entries)} cells, "
        f"{len(idx.rows)} occupied rows, uniform_fibres={str(idx.uniform_fibres).lower()}"
    )
    return EXIT_OK


def _cmd_dimension(args) -> int:
    check_fields(args.r)
    spec = _load_spec(args.config)
    rows = [_dimension_row(r, constants(spec, r)) for r in args.r]
    write_rows(sys.stdout, DIMENSION_COLUMNS, rows)
    return EXIT_OK


def _certify(args) -> CertificateReport:
    check_fields((args.r,), args.j, cap=args.cap)
    spec = _load_spec(args.config)
    return certify(spec, constants(spec, args.r), args.j, cap=args.cap)


def _cmd_antichain(args) -> int:
    report = _certify(args)
    rows = [row[1:] for row in _antichain_rows(args.r, report)]
    write_rows(sys.stdout, ANTICHAIN_COLUMNS[1:], rows)
    return EXIT_OK if report.all_pass else EXIT_CERT_FAIL


def _cmd_certify(args) -> int:
    report = _certify(args)
    rows = [row[1:] for row in _certificate_rows(args.r, report)]
    write_rows(sys.stdout, CERTIFICATE_COLUMNS[1:], rows)
    for chk in report.failures:
        print(f"FAIL j={chk.j} {chk.name}: {chk.value} {chk.op} {chk.bound}", file=sys.stderr)
    return EXIT_OK if report.all_pass else EXIT_CERT_FAIL


def _cmd_quantize(args) -> int:
    check_fields((args.r,), (), args.k, args.samples, args.seed, restarts=args.restarts)
    spec = _load_spec(args.config)
    pool = sample(spec, args.samples, args.seed)
    results = _best_per_k(
        lambda k: lloyd_best(pool, k, args.r, args.seed, restarts=args.restarts), args.k
    )
    rows = []
    for k, res in zip(args.k, results):
        rows.append((k, res.distortion ** (1.0 / args.r), res.iters, res.restarts_used))
        warn_capped(args.r, k, res)
    write_rows(sys.stdout, QUANTIZE_COLUMNS[1:], rows)
    return EXIT_OK


def _cmd_proxy(args) -> int:
    check_fields((args.r,), args.j, samples=args.samples, seed=args.seed, cap=args.cap)
    spec = _load_spec(args.config)
    consts = constants(spec, args.r)
    pool = sample(spec, args.samples, args.seed)
    rows = []
    for j in args.j:
        ac = build_upsilon(spec, consts, j, cap=args.cap)
        proxy = theoretical_proxy(ac)
        cb = antichain_codebook(spec, ac)
        rows.append((j, ac.psi, proxy, distortion(pool, cb, args.r)))
    write_rows(sys.stdout, ("j", "psi", "proxy", "antichain_distortion"), rows)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = RunConfig(
        carpet=args.config,
        output_dir=args.out,
        r_values=args.r,
        j_range=args.j,
        k_grid=args.k,
        samples=args.samples,
        seed=args.seed,
        cap=args.cap,
        restarts=args.restarts,
    )
    code = run(cfg)
    print(f"wrote 5 CSV files to {Path(args.out).resolve()}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carpetquant",
        description="Quantization dimension and certified antichain checks for grid carpets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def option(flag: str, **kwargs) -> argparse.ArgumentParser:
        """One option, declared once and handed to subcommands as a parent parser."""
        holder = argparse.ArgumentParser(add_help=False)
        holder.add_argument(flag, **kwargs)
        return holder

    config = option("--config", required=True, help="carpet config (JSON)")
    r = option("--r", type=float, default=2.0)
    levels = option("--j", type=_parse_j_list, default=(0, 1, 2, 3), help="'a,b,c' or 'lo:hi'")
    k = option("--k", type=_parse_ints, default=RunConfig.k_grid)
    samples = option("--samples", type=int, default=RunConfig.samples)
    seed = option("--seed", type=int, default=RunConfig.seed)
    cap = option("--cap", type=int, default=RunConfig.cap)
    restarts = option("--restarts", type=int, default=RunConfig.restarts)

    def command(name: str, fn, text: str, *options: argparse.ArgumentParser) -> None:
        sub.add_parser(name, help=text, parents=[config, *options]).set_defaults(fn=fn)

    command("validate", _cmd_validate, "check a carpet config and report its shape")
    command("dimension", _cmd_dimension, "solve the dimension equation and print constants",
            option("--r", type=_parse_floats, default=(2.0,), help="comma list of exponents"))
    command("antichain", _cmd_antichain, "build threshold antichains and print their summary",
            r, levels, cap)
    command("certify", _cmd_certify, "run every certified inequality and print the checks",
            r, levels, cap)
    command("quantize", _cmd_quantize, "estimate k-point quantization errors from samples",
            r, k, samples, seed, restarts)
    command("proxy", _cmd_proxy, "compare antichain codebooks against the weight-sum proxy",
            r, option("--j", type=_parse_j_list, default=(2, 3, 4), help="'a,b,c' or 'lo:hi'"),
            samples, seed, cap)
    command("run", _cmd_run, "full pipeline; writes five CSV files",
            option("--out", required=True, help="output directory"),
            option("--r", type=_parse_floats, default=RunConfig.r_values),
            option("--j", type=_parse_j_interval, default=RunConfig.j_range, help="'lo:hi'"),
            k, samples, seed, cap, restarts)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CapExceeded, CarpetError, ConfigError, OSError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, CapExceeded):
            return EXIT_CAP
        if isinstance(cause, (CarpetError, ConfigError)) or cause is exc:  # not a stage's OSError
            return EXIT_CONFIG
        raise


if __name__ == "__main__":
    sys.exit(main())
