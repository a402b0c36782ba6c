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


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_j_list(text: str) -> tuple[int, ...]:
    """Scale indices: either '2,3,4' or an inclusive range '2:4'."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c' or 'lo:hi', got {text!r}")


def _parse_j_interval(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        return int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi', got {text!r}")


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

    def add_config(p):
        p.add_argument("--config", required=True, help="carpet config (JSON)")

    p = sub.add_parser("validate", help="check a carpet config and report its shape")
    add_config(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("dimension", help="solve the dimension equation and print constants")
    add_config(p)
    p.add_argument("--r", type=_parse_floats, default=(2.0,), help="comma list of exponents")
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("antichain", help="build threshold antichains and print their summary")
    add_config(p)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--j", type=_parse_j_list, default=(0, 1, 2, 3), help="'a,b,c' or 'lo:hi'")
    p.add_argument("--cap", type=int, default=RunConfig.cap)
    p.set_defaults(fn=_cmd_antichain)

    p = sub.add_parser("certify", help="run every certified inequality and print the checks")
    add_config(p)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--j", type=_parse_j_list, default=(0, 1, 2, 3), help="'a,b,c' or 'lo:hi'")
    p.add_argument("--cap", type=int, default=RunConfig.cap)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("quantize", help="estimate k-point quantization errors from samples")
    add_config(p)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--k", type=_parse_ints, default=RunConfig.k_grid)
    p.add_argument("--samples", type=int, default=RunConfig.samples)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--restarts", type=int, default=RunConfig.restarts)
    p.set_defaults(fn=_cmd_quantize)

    p = sub.add_parser("proxy", help="compare antichain codebooks against the weight-sum proxy")
    add_config(p)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--j", type=_parse_j_list, default=(2, 3, 4), help="'a,b,c' or 'lo:hi'")
    p.add_argument("--samples", type=int, default=RunConfig.samples)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--cap", type=int, default=RunConfig.cap)
    p.set_defaults(fn=_cmd_proxy)

    p = sub.add_parser("run", help="full pipeline; writes five CSV files")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--r", type=_parse_floats, default=RunConfig.r_values)
    p.add_argument("--j", type=_parse_j_interval, default=RunConfig.j_range, help="'lo:hi'")
    p.add_argument("--k", type=_parse_ints, default=RunConfig.k_grid)
    p.add_argument("--samples", type=int, default=RunConfig.samples)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--cap", type=int, default=RunConfig.cap)
    p.add_argument("--restarts", type=int, default=RunConfig.restarts)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CarpetError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.cause, CapExceeded):
            return EXIT_CAP
        if isinstance(exc.cause, (CarpetError, ConfigError)):
            return EXIT_CONFIG
        raise


if __name__ == "__main__":
    sys.exit(main())
