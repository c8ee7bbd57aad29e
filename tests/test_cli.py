"""Command-line interface: formats, determinism, exit codes, round trips."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import math

import numpy as np
import pytest

from mollab.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _csv_lines,
    _fmt,
    _mode_for_solve,
    load_table,
    main,
    verify_table,
)
from mollab.kappa import MollifierSpec, equal_weight_R, kappa_general, kappa_special
from mollab.siegel import step_limit_scan
from mollab.varsol import s_profile


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _body(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("#"))


def _kv_line(text):
    """Parse the kappa command's key=value summary line into a dict."""
    line = [l for l in text.splitlines() if l.startswith("theta=")][0]
    return dict(part.split("=", 1) for part in line.split())


# ------------------------------------------------------------- kappa


def test_kappa_summary_matches_library(capsys):
    code, out = _run(capsys, "kappa", "--theta", "0.25")
    assert code == EXIT_OK
    row = _kv_line(out)
    res = kappa_special(0.25)
    assert row["mollifier"] == "linear"
    assert float(row["theta"]) == 0.25
    assert float(row["R"]) == pytest.approx(res.R, rel=1e-14)
    assert float(row["c"]) == pytest.approx(res.c_pqr, rel=1e-12)
    assert float(row["kappa"]) == pytest.approx(res.kappa, abs=1e-12)


def test_kappa_sinh_mollifier(capsys):
    code, out = _run(capsys, "kappa", "--theta", "0.125", "--mollifier", "sinh:0.25")
    assert code == EXIT_OK
    spec = MollifierSpec.sinh_shape(0.25)
    want = kappa_general(0.125, equal_weight_R(0.125, spec), 1.0, spec)
    row = _kv_line(out)
    assert row["mollifier"] == "sinh:0.25"
    assert float(row["kappa"]) == pytest.approx(want.kappa, abs=1e-12)


def test_kappa_general_flags(capsys):
    code, out = _run(capsys, "kappa", "--theta", "0.5", "--R", "2.0", "--beta", "1.3")
    assert code == EXIT_OK
    row = _kv_line(out)
    want = kappa_general(0.5, 2.0, 1.3)
    assert float(row["R"]) == 2.0
    assert float(row["beta"]) == 1.3
    assert float(row["kappa"]) == pytest.approx(want.kappa, abs=1e-12)


def test_kappa_out_file_has_manifest_and_csv(tmp_path, capsys):
    path = tmp_path / "one.csv"
    code, out = _run(capsys, "kappa", "--theta", "0.25", "--out", str(path))
    assert code == EXIT_OK
    assert out.startswith("theta=")  # summary still printed
    text = path.read_text()
    comments = [l for l in text.splitlines() if l.startswith("#")]
    joined = "\n".join(comments)
    for key in ("tool", "command", "params", "timestamp", "wall_time_s"):
        assert f"# {key}:" in joined
    assert "crossover_z" not in joined
    assert "# tool: mollab" in joined
    body = _body(text).splitlines()
    assert body[0] == "theta,R,beta,mollifier,c_pqr,kappa"
    assert len(body) == 2


def test_kappa_json_structure(capsys):
    code, out = _run(capsys, "kappa", "--theta", "0.25", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"manifest", "header", "rows"}
    assert doc["header"] == ["theta", "R", "beta", "mollifier", "c_pqr", "kappa"]
    assert len(doc["rows"]) == 1
    assert doc["manifest"]["params"]["theta"] == 0.25
    res = kappa_special(0.25)
    assert float(doc["rows"][0][5]) == pytest.approx(res.kappa, abs=1e-12)


# ------------------------------------------------------------- table


def test_table_deterministic_body(capsys):
    _, first = _run(capsys, "table", "0.25", "0.125", "0.5")
    _, second = _run(capsys, "table", "0.25", "0.125", "0.5")
    assert _body(first) == _body(second)
    # rows come out sorted by theta
    thetas = [float(l.split(",")[0]) for l in _body(first).splitlines()[1:]]
    assert thetas == sorted(thetas)


def test_table_grid_and_lower_bound(capsys):
    code, out = _run(capsys, "table", "--grid", "0.05:0.3:8")
    assert code == EXIT_OK
    rows = _body(out).splitlines()[1:]
    assert len(rows) == 8
    for line in rows:
        theta, kappa = float(line.split(",")[0]), float(line.split(",")[5])
        assert kappa - (2.0 / 3.0) * theta > 0.0


def test_table_grid_usage_errors(capsys):
    code, _ = _run(capsys, "table", "0.25", "--grid", "0.1:0.2:3")
    assert code == EXIT_USAGE
    code, _ = _run(capsys, "table", "--grid", "0.3:0.1:5")
    assert code == EXIT_USAGE
    code, _ = _run(capsys, "table", "--grid", "nonsense")
    assert code == EXIT_USAGE


def test_table_empty_is_header_only(capsys):
    code, out = _run(capsys, "table")
    assert code == EXIT_OK
    assert _body(out).splitlines() == ["theta,R,beta,mollifier,c_pqr,kappa"]


def test_table_parallel_matches_serial(capsys):
    _, serial = _run(capsys, "table", "0.1", "0.2", "0.3", "--jobs", "1")
    _, parallel = _run(capsys, "table", "0.1", "0.2", "0.3", "--jobs", "2")
    assert _body(serial) == _body(parallel)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, cpus, want_pool, want_jobs",
    [
        ("100000", 8, [3], 3),  # capped by the row count
        ("100000", 2, [2], 2),  # capped by the core count
        ("2", None, [], 1),  # unknown core count: serial
        ("1", 8, [], 1),
    ],
)
def test_table_jobs_capped(capsys, monkeypatch, jobs, cpus, want_pool, want_jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    code, out = _run(capsys, "table", "0.1", "0.2", "0.3", "--jobs", jobs, "--json")
    assert code == EXIT_OK
    assert _RecordingPool.sizes == want_pool
    doc = json.loads(out)
    assert doc["manifest"]["params"]["jobs"] == want_jobs
    assert [row["theta"] for row in doc["rows"]] == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_table_jobs_below_one_is_usage_error(capsys, monkeypatch, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert _run(capsys, "table", "0.1", "0.2", "--jobs", jobs)[0] == EXIT_USAGE
    assert _RecordingPool.sizes == []


def test_table_round_trip(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, _ = _run(capsys, "table", "0.25", "0.125", "--out", str(path))
    assert code == EXIT_OK
    rows = load_table(str(path))
    assert len(rows) == 2
    assert [r.theta for r in rows] == [0.125, 0.25]
    worst = verify_table(rows)
    assert worst <= 1e-12


def test_table_json_rows_are_dicts(capsys):
    code, out = _run(capsys, "table", "0.25", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"][0]["theta"] == 0.25
    assert doc["rows"][0]["error"] == ""
    assert doc["manifest"]["params"]["n_failed"] == 0


# ------------------------------------------------------------- solve


def test_solve_profile_boundaries(capsys):
    code, out = _run(capsys, "solve", "--R", "5.0", "--points", "11")
    assert code == EXIT_OK
    lines = _body(out).splitlines()
    assert lines[0] == "t,S,Sprime"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first[0] == 0.0 and first[1] == pytest.approx(0.5, abs=1e-12)
    assert last[0] == pytest.approx(5.0, rel=1e-15)
    assert last[1] == pytest.approx(0.0, abs=1e-9)


# The bodies once came from one _fmt call per numpy scalar; _csv_lines must
# print exactly those bytes, and --json must carry the same rows.


def _fmt_per_element(*columns):
    return [",".join(_fmt(x) for x in row) for row in zip(*columns)]


def _solve_case(R, c, beta, points):
    """(argv, expected body lines) of one solve request."""
    argv = ["solve", "--R", str(R), "--c", str(c), "--beta", str(beta),
            "--points", str(points)]
    ts = np.linspace(0.0, R, points)
    return argv, _fmt_per_element(ts, *s_profile(ts, _mode_for_solve(R, c, beta)))


@pytest.mark.parametrize(
    "R, c, beta, points",
    [(5.0, -1.0, 1.0, 11), (5.0, -1.0, 1.0, 2001), (5.0, -1.0, 1.0, 100_000),
     (5.0, -2.0, 1.3, 2001)],
)
def test_solve_body_matches_per_element_format(capsys, R, c, beta, points):
    argv, want = _solve_case(R, c, beta, points)
    code, out = _run(capsys, *argv)
    assert code == EXIT_OK
    assert _body(out) == "\n".join(["t,S,Sprime", *want])


@pytest.mark.parametrize("R, c, beta, points", [(5.0, -1.0, 1.0, 11), (5.0, -2.0, 1.3, 2001)])
def test_solve_json_rows_match_per_element_format(capsys, R, c, beta, points):
    argv, want = _solve_case(R, c, beta, points)
    code, out = _run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == [line.split(",") for line in want]


def test_csv_lines_spell_special_values_like_fmt():
    odd = [-0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan, 5e-324, 0.1]
    for cols in ([odd], [np.array(odd), odd[::-1]], [np.array(odd)] * 3):
        want = _fmt_per_element(*(np.asarray(c) for c in cols))
        assert _csv_lines(*cols) == want
    assert _csv_lines(np.array([-0.0]), [math.nan]) == ["-0,nan"]


@pytest.mark.parametrize(
    "y0, r_list", [(0.75, "5,10,20,40"), (0.9, "20,50,100"), (0.6, "1,2.5,3.75")]
)
def test_limit_body_and_json_match_per_element_format(capsys, y0, r_list):
    argv = ["limit", "--y0", str(y0), "--R-list", r_list]
    rs = [float(r) for r in r_list.split(",")]
    want = _fmt_per_element(rs, step_limit_scan(y0, rs))
    code, out = _run(capsys, *argv)
    assert code == EXIT_OK
    assert _body(out) == "\n".join(["R,Q", *want])
    code, out = _run(capsys, *argv, "--json")
    assert json.loads(out)["rows"] == [line.split(",") for line in want]


def test_solve_degenerate_exponent_is_numeric_error(capsys):
    # c = -0.75 makes the two characteristic exponents differ by an
    # integer, which the series connection formula cannot represent:
    # the CLI reports it as a numeric failure, not a usage error.
    code, _ = _run(capsys, "solve", "--R", "2.0", "--c", "-0.75")
    assert code == EXIT_NUMERIC


def test_solve_rejects_c_at_quarter(capsys):
    code, _ = _run(capsys, "solve", "--R", "2.0", "--c", "0.3")
    assert code == EXIT_USAGE


# ------------------------------------------------------------- limit


def test_limit_scan_decreasing(capsys):
    code, out = _run(capsys, "limit", "--y0", "0.75", "--R-list", "5,10,20")
    assert code == EXIT_OK
    lines = _body(out).splitlines()
    assert lines[0] == "R,Q"
    qs = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(qs) == 3
    assert qs == sorted(qs, reverse=True)


def test_limit_validation(capsys):
    assert _run(capsys, "limit", "--y0", "0.4")[0] == EXIT_USAGE
    assert _run(capsys, "limit", "--y0", "0.75", "--R-list", "10,5")[0] == EXIT_USAGE


# ------------------------------------------------------------- verify


def test_verify_quick_passes(capsys):
    code, out = _run(capsys, "verify", "--level", "quick")
    assert code == EXIT_OK
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_bad_level_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--level", "bogus"])
    assert excinfo.value.code == EXIT_USAGE


# ----------------------------------------------------------- tolerances


# No number a command prints depends on a quadrature tolerance any more:
# --tol is gone from the parser and MOLLAB_TOL is no longer read.


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MOLLAB_TOL", "1e-09")
    _, out = _run(capsys, "table", "0.25")
    assert "rel_tol" not in out and "abs_tol" not in out
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "0.25", "--tol", "1e-08"])
    assert excinfo.value.code == EXIT_USAGE


def test_tol_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("MOLLAB_TOL", "not-a-number")
    code, out = _run(capsys, "kappa", "--theta", "0.25", "--json")
    assert code == EXIT_OK
    manifest = json.loads(out)["manifest"]
    assert "rel_tol" not in manifest and "abs_tol" not in manifest


def test_usage_errors(capsys):
    assert _run(capsys, "kappa", "--theta", "-0.5")[0] == EXIT_USAGE
    assert _run(capsys, "kappa", "--theta", "0.25", "--R", "-1.0")[0] == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        main(["kappa"])  # --theta is required
    assert excinfo.value.code == EXIT_USAGE


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--theta", "nan"],
        ["kappa", "--theta", "inf"],
        ["kappa", "--theta", "0.25", "--R", "nan"],
        ["kappa", "--theta", "0.25", "--beta", "nan"],
        ["table", "0.25", "nan"],
        ["table", "--grid", "0.01:inf:3"],
        ["solve", "--R", "2", "--c", "nan"],
        ["solve", "--R=-inf"],
        ["limit", "--R-list", "5,nan"],
        ["limit", "--y0", "nan"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_non_finite_input_is_usage_error(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("maths ran on non-finite input")

    for name in ("kappa_special", "kappa_general"):
        monkeypatch.setattr(f"mollab.kappa.{name}", refuse)
    monkeypatch.setattr("mollab.varsol.s_profile", refuse)
    monkeypatch.setattr("mollab.siegel.step_limit_scan", refuse)
    assert _exit_code(argv) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


def test_truncation_option_removed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["kappa", "--theta", "0.25", "--truncation", "60"])
    assert excinfo.value.code == EXIT_USAGE
    _, out = _run(capsys, "kappa", "--theta", "0.25", "--json")
    assert "truncation" not in json.loads(out)["manifest"]


# ---------------------------------------------------------- entry point


def test_import_leaves_out_scipy_and_process_pool():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, mollab.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"



def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mollab", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mollab 0.1.0" in proc.stdout
