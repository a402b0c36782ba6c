"""Tests of the benchmark harness itself (not of carpetquant)."""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # the harness measures this checkout's package

from layers import Layers
from tracing import Span, Tracer, patched, self_times
from workloads import DESK1, KNOWN_DEFECTS, Ledger, _check_certificates, bisect_200

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 5.0, parent=0),  # overlaps a: union of children is 1..5
        Span("c", 1.5, 2.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # only 9..10 lies inside root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(0.5)


def test_tracer_nests_spans():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [s.name for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1].parent == 0 and tr.spans[0].parent is None
    assert all(own >= 0.0 for own in self_times(tr.spans))


def _cert_rows(failing: list[tuple[int, str]]) -> list[dict]:
    rows = []
    for j in range(8):
        for check in ("embed-sandwich-lower", "mass-partition"):
            ok = (j, check) not in failing
            rows.append({"j": str(j), "check": check, "passed": "true" if ok else "false"})
    return rows


def test_fail_frac_counts_known_tie_failures():
    ledger = Ledger()
    tie_fail = [(6, "embed-sandwich-lower"), (7, "embed-sandwich-lower")]
    assert _check_certificates(ledger, "tie", _cert_rows(tie_fail), lambda row: 1.0)
    assert (ledger.attempted, ledger.failed) == (16, 2)
    assert not ledger.unexpected  # known defects still count as failures
    assert ledger.failed / ledger.attempted == 2 / 16


def test_new_certificate_failure_is_unexpected():
    ledger = Ledger()
    rows = _cert_rows([(6, "embed-sandwich-lower"), (3, "mass-partition")])
    _check_certificates(ledger, "tie", rows, lambda row: 1.0)
    assert ledger.failed == 2
    assert list(ledger.unexpected) == ["certificate mass-partition on tie r=1 j=3"]
    # the same check on another carpet is not a known defect
    other = Ledger()
    _check_certificates(other, "desk1", _cert_rows([(6, "embed-sandwich-lower")]), lambda row: 1.0)
    assert other.unexpected and ("desk1", 1.0, 6, "embed-sandwich-lower") not in KNOWN_DEFECTS


def test_benchmark_metric_names_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert {"wall_s", "setup_s"} <= {m["name"] for m in spec["end_to_end"]}


def test_layer_metric_names_are_valid():
    layers = Layers()
    tr = layers.tracer
    with tr.span("runner.run"):
        with tr.span("quantize.lloyd_best") as best:
            with tr.span("quantize.lloyd") as descent:
                descent.attrs.update(iters=4, useful=3)
        best.attrs.update(r=0.5, k=8)
        with tr.span("trace.probe", r=0.5, k=8):
            pass
        with tr.span("quantize.proxy_distortion", j="3"):
            pass
    tr.count("quantize.lloyd_capped", 1)
    metrics = layers.metrics(reps=1)
    assert "quantize.lloyd_best_s.r0.5.k8" in metrics
    assert metrics["quantize.lloyd_iters.r0.5.k8"] == 4
    assert metrics["quantize.lloyd_useful_iter_ratio"] == 0.75
    assert all(NAME.fullmatch(n) for n in metrics), sorted(metrics)


def test_patched_restores_attributes_even_on_error():
    mod = types.ModuleType("fake")
    mod.f = lambda: "original"
    original = mod.f
    with pytest.raises(RuntimeError):
        with patched([(mod, "f", lambda fn: lambda: "wrapped"), (mod, "gone", lambda fn: fn)]) as missing:
            assert mod.f() == "wrapped"
            assert missing == ["fake.gone"]
            raise RuntimeError("stage failed")
    assert mod.f is original
    assert not hasattr(mod, "gone")


def test_layer_wrappers_restore_carpetquant(tmp_path):
    from carpetquant import antichain, cli, quantize, runner

    modules = (antichain, cli, quantize, runner)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    layers = Layers()
    config = tmp_path / "desk1.json"
    config.write_text(json.dumps(DESK1))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"),
            "--samples", "500", "--k", "1,2", "--restarts", "1", "--j", "0:1"]
    with layers.traced() as missing:
        assert quantize.lloyd is not before[("carpetquant.quantize", "lloyd")]
        assert cli.main(argv) == 0
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert not missing
    assert after == before
    names = {s.name for s in layers.tracer.spans}
    assert {"runner.run", "antichain.certify", "quantize.lloyd", "carpet.load"} <= names


def test_bisection_oracle_solves_dimension_equation():
    import carpetquant as cq

    spec = cq.load_config(DESK1)
    assert abs(bisect_200(DESK1, 2.0) - cq.solve_sr(spec, 2.0)) <= 1e-10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-default", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
