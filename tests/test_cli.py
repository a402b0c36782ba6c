import ast
import filecmp
import functools
import hashlib
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import carpetquant.cli as cli
from carpetquant import quantize, runner
from carpetquant.runner import (
    ANTICHAIN_COLUMNS,
    DIMENSION_COLUMNS,
    QUANTIZE_COLUMNS,
)

RUN_FILES = ("dimension.csv", "antichain.csv", "certificates.csv", "quantize.csv", "summary.csv")


def read_csv_lines(capsys):
    out = capsys.readouterr().out
    return [line for line in out.strip().splitlines() if line]


@pytest.fixture()
def bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 3, "n": 3, "entries": [[0, 0, 1.0]]}))
    return str(path)


def test_validate_ok(desk1_path, capsys):
    assert cli.main(["validate", "--config", desk1_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 2x3 grid, 3 cells, 2 occupied rows")
    assert "uniform_fibres=false" in out


def test_validate_rejects_square_grid(bad_config, capsys):
    assert cli.main(["validate", "--config", bad_config]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_dimension_output(desk1_path, desk1, capsys):
    assert cli.main(["dimension", "--config", desk1_path, "--r", "0.5,2"]) == 0
    lines = read_csv_lines(capsys)
    assert lines[0] == ",".join(DIMENSION_COLUMNS)
    assert len(lines) == 3
    import carpetquant as cq

    first = lines[1].split(",")
    assert first[0] == "0.5"
    assert float(first[1]) == pytest.approx(cq.constants(desk1, 0.5).s_r, rel=1e-15)
    second = lines[2].split(",")
    assert second[0] == "2"
    assert float(second[1]) == pytest.approx(cq.constants(desk1, 2.0).s_r, rel=1e-15)


def test_antichain_output(desk1_path, capsys):
    assert cli.main(["antichain", "--config", desk1_path, "--j", "0:2"]) == 0
    lines = read_csv_lines(capsys)
    assert lines[0] == ",".join(ANTICHAIN_COLUMNS[1:])
    assert len(lines) == 4
    j0 = lines[1].split(",")
    assert j0[0] == "0" and j0[1] == "2"  # j, psi
    assert j0[5] == "true"  # H1_bound_ok
    assert j0[-1] == "true"  # s12_ok


def test_certify_output(desk1_path, capsys):
    assert cli.main(["certify", "--config", desk1_path, "--j", "0,1"]) == 0
    lines = read_csv_lines(capsys)
    assert lines[0] == "j,check,value,op,bound,passed,witness"
    names = {line.split(",")[1] for line in lines[1:]}
    assert {"weight-band-lower", "energy-sum", "psi-monotone"} <= names
    assert all(line.split(",")[5] == "true" for line in lines[1:])


def test_quantize_output(desk1_path, capsys):
    code = cli.main(
        [
            "quantize", "--config", desk1_path,
            "--k", "1,2", "--samples", "2000", "--seed", "7", "--restarts", "2",
        ]
    )
    assert code == 0
    lines = read_csv_lines(capsys)
    assert lines[0] == ",".join(QUANTIZE_COLUMNS[1:])
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["1", "2"]
    errors = [float(row[1]) for row in rows]
    assert errors[1] < errors[0]
    assert all(int(row[3]) == 2 for row in rows)


def test_proxy_output(desk1_path, capsys):
    code = cli.main(
        ["proxy", "--config", desk1_path, "--j", "0:1", "--samples", "2000", "--seed", "7"]
    )
    assert code == 0
    lines = read_csv_lines(capsys)
    assert lines[0] == "j,psi,proxy,antichain_distortion"
    j0 = lines[1].split(",")
    assert j0[0] == "0" and j0[1] == "2"
    assert float(j0[2]) == pytest.approx(0.25, rel=1e-12)
    assert 0.0 < float(j0[3]) < 1.0


def test_every_subcommand_parses_to_its_defaults():
    run = runner.RunConfig(carpet="c.json", output_dir="out")
    want = {
        "validate": {},
        "dimension": {"r": (2.0,)},
        "antichain": {"r": 2.0, "j": (0, 1, 2, 3), "cap": 500_000},
        "certify": {"r": 2.0, "j": (0, 1, 2, 3), "cap": 500_000},
        "quantize": {
            "r": 2.0, "k": (1, 2, 4, 8, 16, 32, 64), "samples": 200_000, "seed": 20240816,
            "restarts": 5,
        },
        "proxy": {"r": 2.0, "j": (2, 3, 4), "samples": 200_000, "seed": 20240816, "cap": 500_000},
        "run": {
            "out": run.output_dir, "r": run.r_values, "j": run.j_range, "k": run.k_grid,
            "samples": run.samples, "seed": run.seed, "cap": run.cap, "restarts": run.restarts,
        },
    }
    parser = cli.build_parser()
    for command, options in want.items():
        extra = ["--out", "out"] if command == "run" else []
        got = vars(parser.parse_args([command, "--config", "c.json", *extra]))
        assert got.pop("fn") is getattr(cli, f"_cmd_{command}")
        assert got == {"command": command, "config": "c.json", **options}, command


def test_bad_j_argument_exits_with_usage(desk1_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["antichain", "--config", desk1_path, "--j", "5:2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(argv, expected, id=" ".join(argv))
        for argv, expected in [
            (["quantize", "--k", "1,x"], "comma-separated integers"),
            (["dimension", "--r", "1,,2"], "comma-separated numbers"),
            (["run", "--r", "1,,2"], "comma-separated numbers"),
            (["antichain", "--j", "3:1"], "'a,b,c' or 'lo:hi'"),
            (["certify", "--j", "a:2"], "'a,b,c' or 'lo:hi'"),
            (["proxy", "--j", "2:4,5:6"], "'a,b,c' or 'lo:hi'"),
            (["antichain", "--j", "1:2:3"], "'a,b,c' or 'lo:hi'"),
            (["run", "--j", "2"], "'lo:hi'"),
            (["run", "--j", "1:2:3"], "'lo:hi'"),
        ]
    ],
)
def test_malformed_list_argument_prints_its_rule(desk1_path, capsys, argv, expected):
    command, flag, value = argv
    extra = ["--out", "out"] if command == "run" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", desk1_path, *extra, flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"carpetquant {command}: error: argument {flag}: expected {expected}, got {value!r}"
    )


SMALL_RUN = ["--j", "0:2", "--k", "1,2,4", "--samples", "4000", "--restarts", "2"]


def test_run_writes_five_files(desk1_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", desk1_path, "--out", str(out)] + SMALL_RUN)
    assert code == 0
    for name in RUN_FILES:
        assert (out / name).is_file(), name
    text = (out / "quantize.csv").read_bytes()
    assert text.startswith(b"r,k,e_k_r,iters,restarts_used\r\n")
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "r,s_r,slope,slope_err,band_ratio,all_certificates_pass"
    assert summary[1].split(",")[-1] == "true"


def test_run_repeat_is_byte_identical(desk1_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["run", "--config", desk1_path, "--out", str(out)] + SMALL_RUN) == 0
    for name in RUN_FILES:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_capped_lloyd_warns_once_per_r_and_k(desk1_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    args = ["run", "--config", desk1_path, "--out", str(out)] + SMALL_RUN
    assert cli.main(args) == 0
    assert "warning:" not in capsys.readouterr().err
    monkeypatch.setattr(runner, "lloyd_best", functools.partial(quantize.lloyd_best, max_iters=2))
    assert cli.main(args + ["--r", "1,2", "--k", "2,4"]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert [w.split(":")[1] for w in warnings] == [" r=1 k=2", " r=1 k=4", " r=2 k=2", " r=2 k=4"]
    assert all(w.startswith("warning: ") and "2 of 2 Lloyd descents" in w for w in warnings)
    quantize_csv = (out / "quantize.csv").read_text().splitlines()
    assert quantize_csv[0] == ",".join(QUANTIZE_COLUMNS)
    assert [row.split(",")[3] for row in quantize_csv[1:]] == ["2"] * 4
    monkeypatch.setattr(cli, "lloyd_best", functools.partial(quantize.lloyd_best, max_iters=2))
    assert cli.main(["quantize", "--config", desk1_path, "--k", "3", "--samples", "500"]) == 0
    assert capsys.readouterr().err == (
        "warning: r=2 k=3: 5 of 5 Lloyd descents stopped at the iteration cap without converging\n"
    )


def test_run_descends_once_per_distinct_k(desk1_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quantize, "_cpus", lambda: 1)  # every descent runs in this process
    calls = []

    def counted(pool, k, *args, **kwargs):
        calls.append(k)
        return quantize.lloyd_best(pool, k, *args, max_iters=2, **kwargs)

    monkeypatch.setattr(runner, "lloyd_best", counted)
    monkeypatch.setattr(cli, "lloyd_best", counted)
    out = tmp_path / "out"
    argv = ["--config", desk1_path, "--k", "4,4,8", "--samples", "500", "--restarts", "2"]
    assert cli.main(["run", "--out", str(out), "--j", "0:1"] + argv) == 0
    assert calls == [8, 4]
    rows = (out / "quantize.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["4", "4", "8"] and rows[0] == rows[1]
    warnings = capsys.readouterr().err.splitlines()
    assert [w.split(":")[1] for w in warnings] == [" r=2 k=4", " r=2 k=4", " r=2 k=8"]
    calls.clear()
    assert cli.main(["quantize"] + argv) == 0
    assert calls == [8, 4]
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["4", "4", "8"] and rows[0] == rows[1]
    assert len(captured.err.splitlines()) == 3


def test_run_and_quantize_outputs_do_not_depend_on_the_cpu_count(
    desk1_path, tmp_path, capsys, monkeypatch
):
    # a cap of 8 iterations stops some descents, so the warnings are compared too
    capped = functools.partial(quantize.lloyd_best, max_iters=8)
    monkeypatch.setattr(runner, "lloyd_best", capped)
    monkeypatch.setattr(cli, "lloyd_best", capped)
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(quantize, "_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        argv = ["--config", desk1_path, "--k", "1,2,4,8,16", "--samples", "1000", "--restarts", "3"]
        assert cli.main(["run", "--out", str(out), "--r", "0.5,1,2,3", "--j", "0:1"] + argv) == 0
        run_err = capsys.readouterr().err
        assert cli.main(["quantize", "--r", "1.5"] + argv) == 0
        printed = capsys.readouterr()
        files = [(out / name).read_bytes() for name in RUN_FILES]
        outputs.append((files, run_err, printed.out, printed.err))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count("warning:") >= 4 and "warning:" in outputs[0][3]


def test_fit_slope_without_a_line_is_nan():
    # no spread in k, a zero error, and a single k with a zero error
    for ks, errors in [((4, 4), (0.1, 0.2)), ((1, 4), (0.3, 0.0)), ((4,), (0.0,))]:
        slope, err = runner.fit_slope(ks, errors)
        assert math.isnan(slope) and err == math.inf
    slope, err = runner.fit_slope((1, 2, 4), (1.0, 0.5, 0.25))
    assert slope == pytest.approx(-1.0, rel=1e-12) and err == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", ["4,4", "1,4", "4"])
def test_run_without_a_slope_exits_0_with_a_summary_row(desk1_path, tmp_path, capsys, k):
    out = tmp_path / "out"
    argv = ["run", "--config", desk1_path, "--out", str(out), "--j", "0:1", "--restarts", "1"]
    samples = "4000" if k == "4,4" else "4"  # 4 points at k=4 quantize to zero error
    assert cli.main(argv + ["--k", k, "--samples", samples]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    _, _, slope, slope_err, band_ratio, passed = summary[1].split(",")
    assert (slope, slope_err, passed) == ("nan", "inf", "true")
    assert band_ratio == ("1" if k == "4,4" else "inf")


def test_run_at_large_r_exits_0_with_an_infinite_band(desk1_path, tmp_path, capsys):
    # at r = 800 the per-cell sums of the centre descent are subnormal, so its
    # step overflows, and k^(r/s_r) leaves the float range from k = 4 on
    out = tmp_path / "out"
    argv = ["run", "--config", desk1_path, "--out", str(out), "--r", "800", "--j", "0:2"]
    assert cli.main(argv + ["--samples", "2000", "--k", "1,2,4", "--restarts", "1"]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].startswith("800,") and summary[1].endswith(",nan,inf,inf,true")
    rows = (out / "quantize.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and all(math.isfinite(float(row.split(",")[2])) for row in rows)


@pytest.mark.parametrize("command", ["dimension", "certify", "run"])
def test_r_beyond_normal_eta_lo_exits_2_with_one_error_line(desk1_path, tmp_path, capsys, command):
    argv = [command, "--config", desk1_path, "--r", "1100"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")] + SMALL_RUN
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "r = 1100.0 " in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r", ["1e-10", "1e-300"])
@pytest.mark.parametrize("command", ["dimension", "certify", "run"])
def test_r_below_the_small_r_floor_exits_2_with_one_error_line(
    desk1_path, tmp_path, capsys, command, r
):
    # floats resolve s_r only to about (2/r) 2^-53 relative; at 1e-10 it
    # would print 1.3495074863 for the limit 1.3495084466, at 1e-300 1.34e-284
    argv = [command, "--config", desk1_path, "--r", r]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")] + SMALL_RUN
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"r = {float(r)} " in err[0]
    assert not (tmp_path / "out").exists()


def test_quantize_takes_an_r_below_the_small_r_floor(desk1_path, capsys):
    # quantize never solves for s_r, so the floor does not apply to it
    argv = ["quantize", "--config", desk1_path, "--r", "1e-10", "--k", "1", "--samples", "100"]
    assert cli.main(argv + ["--restarts", "1"]) == 0


def test_run_bad_config_exits_2(bad_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", bad_config, "--out", str(out)] + SMALL_RUN)
    assert code == 2
    assert not out.exists()  # rejected before any stage ran


MALFORMED_CONFIGS = {
    "truncated-json": b'{"m": 2, "n": 3, "entries": [[0, 0, 0.4], [1, 1',
    "not-utf8": b'{"m": 2, "n": 3, "entries": [[0, 0, "\xff"]]}',
    "number-entry": b'{"m": 2, "n": 3, "entries": [[0, 0, 0.4], 7, [2, 1, 0.6]]}',
    "short-entry": b'{"m": 2, "n": 3, "entries": [[0, 0, 0.4], [1, 1]]}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
@pytest.mark.parametrize("command", ["validate", "dimension", "certify", "quantize", "proxy", "run"])
def test_malformed_config_exits_2_with_one_error_line(tmp_path, capsys, command, case):
    path = tmp_path / "malformed.json"
    path.write_bytes(MALFORMED_CONFIGS[case])
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")] + SMALL_RUN
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "out").exists()


def test_run_tiny_cap_exits_3_with_partial_output(desk1_path, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--config", desk1_path, "--out", str(out), "--cap", "4"] + SMALL_RUN
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    assert "certify" in err
    for name in RUN_FILES:
        assert (out / name).is_file(), name
    dim = (out / "dimension.csv").read_text().strip().splitlines()
    assert len(dim) == 2  # header plus the completed dimension stage row


@pytest.mark.parametrize(
    "stage, target, error",
    [("dimension", "constants", RuntimeError("boom")), ("sample", "sample", OSError("disk"))],
)
def test_unexpected_stage_failure_prints_one_error_line_and_reraises(
    desk1_path, tmp_path, capsys, monkeypatch, stage, target, error
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(runner, target, fail)
    argv = ["run", "--config", desk1_path, "--out", str(tmp_path / "out")]
    with pytest.raises(runner.StageError) as exc:
        cli.main(argv + SMALL_RUN)
    assert exc.value.cause is error
    assert capsys.readouterr().err.splitlines() == [f"error: stage '{stage}' failed: {error}"]


def test_certify_prints_run_certificates_without_r(desk1_path, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--j", "0:3", "--k", "1", "--samples", "500", "--restarts", "1"]
    assert cli.main(["run", "--config", desk1_path, "--out", str(out)] + args) == 0
    run_lines = (out / "certificates.csv").read_text().splitlines()
    capsys.readouterr()
    assert cli.main(["certify", "--config", desk1_path, "--j", "0:3"]) == 0
    assert capsys.readouterr().out.splitlines() == [line.split(",", 1)[1] for line in run_lines]


@pytest.mark.parametrize(
    "argv",
    [
        ["quantize", "--restarts", "0"],
        ["quantize", "--k", "0"],
        ["quantize", "--k", "200", "--samples", "100"],
        ["dimension", "--r", "0"],
        ["certify", "--r", "-1"],
        ["proxy", "--samples", "0"],
    ],
    ids=" ".join,
)
def test_bad_argument_exits_2(desk1_path, capsys, argv):
    assert cli.main(argv[:1] + ["--config", desk1_path] + argv[1:]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


# SHA-256 of `certify --j 0:6` and `antichain --j 0:6` stdout.  Each digest
# is what the shell prints for the command beside it, run with src on
# PYTHONPATH from a directory whose desk1.json holds conftest.DESK1 and whose
# tie.json holds TIE below; a deliberate output change is re-recorded by
# running it again.  Last
# re-recorded when certify began to walk the s2 family at every anchor (one
# walk per (order, row code) class), which moved only the s2-mass values.
# Before that, solve_sr's bisection down to adjacent floats moved s_r and
# every constant in its last digits.  The certify digests were first taken
# from the word-by-word implementation.  The printed floats carry the
# last-bit rounding of this platform's libm (math.exp, math.log), so the
# digests hold only on a libm that rounds as the recording one did.
CERTIFY_DIGESTS = {
    # python -m carpetquant certify --config desk1.json --r 1 --j 0:6 | sha256sum
    ("certify", "desk1", "1"): "0acfc7974ddc6b9c8dfef267ec1e0c6bc6fbec693ae637dbd0f3bbdc1e4a1dd4",
    # python -m carpetquant certify --config desk1.json --r 2 --j 0:6 | sha256sum
    ("certify", "desk1", "2"): "0db472b247e478910b716c84985500359521655886b82a0c31a82b4cbb7583ea",
    # python -m carpetquant certify --config tie.json --r 1 --j 0:6 | sha256sum
    ("certify", "tie", "1"): "c7f184de7430dfc62a568d2b180bcc41247c0c5b5b5c1128e8e5511088306e73",
    # python -m carpetquant antichain --config desk1.json --r 1 --j 0:6 | sha256sum
    ("antichain", "desk1", "1"): "3ce9fddbc509f10e345b148594cf0b8d9522088deb6103ae14ecf467106ca1ed",
    # python -m carpetquant antichain --config desk1.json --r 2 --j 0:6 | sha256sum
    ("antichain", "desk1", "2"): "526c37538510c7c29b86a55c745ab62bea7717f8a75064e91569e5b9e862276a",
    # python -m carpetquant antichain --config tie.json --r 1 --j 0:6 | sha256sum
    ("antichain", "tie", "1"): "dbde3b4034d2263bf1bdb762d03387ea21cf5f9bb5cc8d296456af696e8df464",
}
TIE = {"m": 2, "n": 4, "entries": [[0, 0, "1/2"], [1, 1, "1/4"], [3, 1, "1/4"]]}


# certify cases keep the short ids "carpet-r"; antichain cases carry their command
@pytest.mark.parametrize(
    "command, carpet, r",
    [
        pytest.param(*key, id="-".join(key[1:] if key[0] == "certify" else key))
        for key in sorted(CERTIFY_DIGESTS)
    ],
)
def test_certify_stdout_is_byte_identical(desk1_path, tmp_path, capsys, command, carpet, r):
    path = desk1_path
    if carpet == "tie":
        path = str(tmp_path / "tie.json")
        (tmp_path / "tie.json").write_text(json.dumps(TIE))
    cli.main([command, "--config", path, "--r", r, "--j", "0:6"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_DIGESTS[(command, carpet, r)]


# SHA-256 of `proxy --r 2 --j 2:5 --samples 20000 --seed 7` stdout, recorded
# while distortion still computed every point's second-nearest distance.  The
# run scores j = 2, 3 on the dense kernel and j = 4, 5 on the KD-tree.  The
# distortions carry the rounding of this platform's libm and BLAS, so the
# digest holds only where they round as the recording ones did.
PROXY_DIGEST = "8063ab8d5d5b73eb966e356a4627f67fd3ba18ca279338d0a1a5c415f7e551bd"


def test_proxy_stdout_is_byte_identical(desk1_path, capsys):
    argv = ["--r", "2", "--j", "2:5", "--samples", "20000", "--seed", "7"]
    assert cli.main(["proxy", "--config", desk1_path] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PROXY_DIGEST


def test_certify_prints_an_overflowing_growth_bound_as_inf(desk1_path, capsys):
    # at r = 800, (mn)^H1 leaves the float range; the check is decided in integers
    assert cli.main(["certify", "--config", desk1_path, "--r", "800", "--j", "0:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "0,psi-growth,6,<=,inf,true,"


def test_bare_pytest_finds_the_package():
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/test_carpet.py"],
        cwd=root, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_public_names_resolve():
    import carpetquant

    for info in pkgutil.iter_modules(carpetquant.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"carpetquant.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
    # every name the package re-exports is the one its module defines
    tree = ast.parse(Path(carpetquant.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"carpetquant.{node.module}")
            for alias in node.names:
                assert getattr(carpetquant, alias.name) is getattr(module, alias.name)
    # deleted names, which only their own tests used
    from carpetquant import antichain, quantize

    for owner, name in [
        (carpetquant, "distortion_stats"),
        (quantize, "distortion_stats"),
        (quantize, "_separation"),
    ]:
        assert not hasattr(owner, name), name
    assert not hasattr(antichain, "S2_SAMPLES") and not hasattr(antichain, "_evenly_spaced")


NO_SCIPY_SCRIPT = """
import sys
import carpetquant.cli as cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

config, out = sys.argv[1:]
assert not scipy_loaded(), scipy_loaded()
for argv in (
    ["validate", "--config", config],
    ["dimension", "--config", config, "--r", "1,2"],
    ["certify", "--config", config, "--j", "0:3"],
    ["run", "--config", config, "--out", out, "--j", "0:1", "--k", "1,2,512",
     "--samples", "2000", "--restarts", "1"],
):
    assert cli.main(argv) == 0, argv
    assert not scipy_loaded(), (argv, scipy_loaded())
# a codebook above the dense threshold (psi = 582 at j = 4) takes the KD-tree
assert cli.main(["proxy", "--config", config, "--j", "4", "--samples", "2000"]) == 0
assert "scipy.spatial" in sys.modules
"""


def test_scipy_is_imported_only_for_the_kdtree(desk1_path, tmp_path):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, desk1_path, str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_python_dash_m_runs_the_cli(desk1_path):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "carpetquant", "validate", "--config", desk1_path],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok: 2x3 grid, 3 cells")
