"""carpetquant benchmark: one workload per call, metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run-default [--seed 20240816]
        [--seconds 35] [--trace 0|1]

Workloads, metric names and units are read from BENCHMARK.json.  The
workload runs in a child process (perfbench/worker.py) whose peak resident
memory is read from its rusage; set-up time is measured in separate fresh
processes.  Earlier stdout lines carry the host record and run details; the
last line is {"correct", "attempted", "failed", "metrics"}.  Scratch files go
under .bench_build/perfbench/.  Exit code 2 means the checkout holds no
carpetquant sources or the arguments are wrong; 1 means the run itself broke.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
# One BLAS thread.  On a 2-core host two threads made run-default about 6%
# faster, but their medians varied three times as much between runs.
BLAS_THREADS = "1"
# Every run must end well inside 180 s, whatever --seconds says.
DEADLINE_S = 170.0

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import carpetquant
spec = carpetquant.load_config(sys.argv[1])
carpetquant.validate_spec(spec)
print(time.perf_counter() - t0)
"""


def fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


def run_worker(argv: list[str], timeout: float, log: Path) -> tuple[int, float]:
    """Run the worker to completion; return (exit code, peak RSS in MiB)."""
    with open(log, "w") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(config: Path) -> list[float]:
    """Import, load and validate in fresh processes; one time per process."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "carpetquant" / "__init__.py").is_file():
        return fail(2, f"no carpetquant sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(2, f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail(2, "--seed must be >= 0 and --seconds > 0")

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_file = work / "worker.json"
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(work), "--out", str(result_file),
    ]
    timeout = DEADLINE_S - 15.0 - (time.perf_counter() - started)
    code, peak_rss = run_worker(worker, timeout, work / "worker.log")
    if code != 0 or not result_file.exists():
        sys.stderr.write((work / "worker.log").read_text()[-4000:])
        return fail(1, f"worker exited with code {code}")
    res = json.loads(result_file.read_text())
    setup = setup_seconds(work / "desk1.json")

    host = {
        "nproc": nproc(),
        "cpu": cpu_model(),
        **res["versions"],
        "openblas_threads_env": BLAS_THREADS,
        "blas_threads_in_effect": res["blas_threads"],
        "src_lines": src_lines(),
    }
    measured = {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss,
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
        **res["quality"],
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": res["reps"],
        "walls_s": res["walls"],
        "setup_runs_s": setup,
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "unexpected_failures": res["unexpected"],
        "slope_rel_err": res["quality"]["slope_rel_err"],
        "digest": res["digest"],
    }
    recorded = json.loads((HERE / "digests.json").read_text())
    if args.seed == DEFAULT_SEED and args.workload in recorded:
        info["digest_matches_recorded"] = res["digest"] == recorded[args.workload]
    if args.trace:
        info["untraced_targets"] = res["untraced"]
        (ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(res["per_layer"], indent=1, sort_keys=True)
        )

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        # a layer a workload never enters spent no time and did no work
        value = res["per_layer"].get(m["name"], 0.0) if args.trace else measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not res["unexpected"] and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    print("host: " + json.dumps(host))
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
