"""Child process of the benchmark: runs one workload as a closed loop.

One client runs repetitions back to back until the time budget is spent.
Repetition i uses sub_seed(seed, i); the Lloyd workloads then repeat seed 0
and require byte-identical outputs.  With --trace 1 the same seeds run a
second time with the layer wrappers in place, which must not change any
output, and the per-layer metrics come from that second pass.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR --out FILE
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import statistics
import sys
import time
from pathlib import Path

from workloads import Ledger, RepOutcome, Workload, make_workload, pooled_scaling, sub_seed


def measure(
    wl: Workload, ledger: Ledger, seed: int, budget: float
) -> tuple[list[int], list[float], list[RepOutcome]]:
    """Run repetitions on fresh seeds while another one still fits in budget."""
    seeds: list[int] = []
    walls: list[float] = []
    outcomes: list[RepOutcome] = []
    start = time.perf_counter()
    reserve = 1 if wl.repeats_first_seed else 0
    while True:
        s = sub_seed(seed, len(seeds))
        t0 = time.perf_counter()
        outcomes.append(wl.rep(ledger, s))
        walls.append(time.perf_counter() - t0)
        seeds.append(s)
        left = budget - (time.perf_counter() - start)
        if left < (1 + reserve) * statistics.median(walls):
            break
    if wl.repeats_first_seed:
        t0 = time.perf_counter()
        again = wl.rep(ledger, seeds[0])
        walls.append(time.perf_counter() - t0)
        seeds.append(seeds[0])
        ledger.op(again.digest == outcomes[0].digest, "same seed, same five CSV files")
    return seeds, walls, outcomes


def replay_traced(
    wl: Workload, ledger: Ledger, seeds: list[int], reference: list[RepOutcome]
) -> tuple[list[float], dict, list[str]]:
    from layers import Layers

    layers = Layers()
    walls: list[float] = []
    by_seed = {oc.seed: oc.digest for oc in reference}
    with layers.traced() as missing:
        for s in seeds:
            t0 = time.perf_counter()
            oc = wl.rep(ledger, s)
            walls.append(time.perf_counter() - t0)
            ledger.op(oc.digest == by_seed[s], "tracing leaves outputs unchanged")
    return walls, layers.metrics(len(seeds)), missing


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def versions() -> dict[str, str | None]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    wl = make_workload(args.workload, args.workdir)
    ledger = Ledger()
    wl.warm_up()
    budget = args.seconds / 2 if args.trace else args.seconds
    seeds, walls, outcomes = measure(wl, ledger, args.seed, budget)
    result = {
        "walls": walls,
        "reps": len(walls),
        "digest": outcomes[0].digest,
        "quality": pooled_scaling(outcomes),
        "blas_threads": blas_threads(),
        "versions": versions(),
    }
    if args.trace:
        traced_walls, per_layer, missing = replay_traced(wl, ledger, seeds, outcomes)
        per_layer["trace_overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
        result.update(per_layer=per_layer, untraced=missing)
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures=dict(ledger.failures),
        unexpected=dict(ledger.unexpected),
    )
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
