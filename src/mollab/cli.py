"""Command-line surface: proportion tables, solution profiles, limit
scans, and the self-verification report.

Commands
    kappa   one proportion bound (special mode by default; --R/--beta/
            --mollifier switch to the general evaluator)
    table   CSV of bounds over a theta list or --grid lo:hi:n; --jobs N
            computes rows in min(N, rows, CPUs) worker processes
    solve   CSV profile (t, S, Sprime) of the optimal S on [0, R]
    verify  named invariant checks (quick | full); exit 4 on failure
    limit   CSV of the pulled-back profile value Q_R(y0) along an
            R sequence (step-function limit scan)

Conventions
    CSV bodies are byte-identical across identical invocations; the
    run manifest (tool version, parameters, wall time, timestamp) rides
    in '#'-prefixed comment lines so volatile fields never touch the
    body.  --json mirrors the same data as JSON.
    Exit codes: 0 success, 2 usage error (including a nan or infinite
    number anywhere in the input), 3 numeric failure, 4 verification
    failure.
    Start-up loads numpy and mollab only; scipy (verify's oracle) and
    the process pool (table --jobs) are imported on first use.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import List, Optional, Sequence, TextIO

import numpy as np

from . import __version__
from . import _verify
from . import kappa as _kappa
from . import siegel as _siegel
from . import varsol as _varsol

__all__ = [
    "TableRow",
    "RunManifest",
    "main",
    "cmd_kappa",
    "cmd_table",
    "cmd_solve",
    "cmd_verify",
    "cmd_limit",
    "load_table",
    "verify_table",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_TABLE_HEADER = "theta,R,beta,mollifier,c_pqr,kappa"
_SOLVE_HEADER = "t,S,Sprime"
_LIMIT_HEADER = "R,Q"

# Exceptions that mean "the computation itself failed on valid-looking
# input" -- reported with the numeric exit code, distinct from usage.
_NUMERIC_ERRORS = (ArithmeticError, RuntimeError, ValueError)


@dataclass(frozen=True)
class TableRow:
    """One table line; kappa is recomputable from the row itself
    (kappa = 1 - ln(c_pqr)/R to 1e-12) whenever c_pqr is finite."""

    theta: float
    R: float
    beta: float
    mollifier: str
    c_pqr: float
    kappa: float

    @classmethod
    def from_result(cls, res: "_kappa.KappaResult", mollifier: str) -> "TableRow":
        return cls(
            theta=res.theta,
            R=res.R,
            beta=res.beta,
            mollifier=mollifier,
            c_pqr=res.c_pqr,
            kappa=res.kappa,
        )

    def csv_line(self) -> str:
        return ",".join(
            [
                _fmt(self.theta),
                _fmt(self.R),
                _fmt(self.beta),
                self.mollifier,
                _fmt(self.c_pqr),
                _fmt(self.kappa),
            ]
        )

    def recompute_error(self) -> float:
        """|kappa - (1 - ln(c)/R)|; nan when c is not finite."""
        if not math.isfinite(self.c_pqr):
            return math.nan
        return abs(self.kappa - (1.0 - math.log(self.c_pqr) / self.R))


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded (as comments) in every emitted file."""

    version: str
    command: str
    params: dict
    wall_time_s: float
    timestamp: str

    def comment_lines(self) -> List[str]:
        items = [
            ("tool", f"mollab {self.version}"),
            ("command", self.command),
            ("params", json.dumps(self.params, sort_keys=True)),
            ("wall_time_s", f"{self.wall_time_s:.3f}"),
            ("timestamp", self.timestamp),
        ]
        return [f"# {k}: {v}" for k, v in items]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fmt(x: float) -> str:
    """15 significant digits; inf, -inf and nan as spelled by format."""
    return f"{x:.15g}"


def _csv_lines(*columns) -> List[str]:
    """Body lines of equal-length float columns, each value spelled as
    ``_fmt`` spells it.  One format call per line over Python floats
    costs less than a ``_fmt`` call per numpy scalar."""
    line = ",".join(["{:.15g}"] * len(columns)).format
    return list(map(line, *(np.asarray(c, dtype=float).tolist() for c in columns)))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _make_manifest(command: str, params: dict, wall: float) -> RunManifest:
    return RunManifest(
        version=__version__,
        command=command,
        params=params,
        wall_time_s=wall,
        timestamp=_now(),
    )


def _emit(
    args,
    command: str,
    params: dict,
    header: str,
    body_lines: Sequence[str],
    wall: float,
    json_rows: Optional[list] = None,
) -> None:
    manifest = _make_manifest(command, params, wall)
    if args.json:
        payload = {"manifest": manifest.as_dict(), "header": header.split(",")}
        payload["rows"] = (
            json_rows
            if json_rows is not None
            else [line.split(",") for line in body_lines]
        )
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(manifest.comment_lines() + [header, *body_lines]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class UsageError(Exception):
    """Bad arguments detected after argparse (exit code 2)."""


def _finite(text: str) -> float:
    """A finite float: argparse type, and the check for numbers in lists."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_mollifier(text: str) -> "_kappa.MollifierSpec":
    if text == "linear":
        return _kappa.MollifierSpec.linear()
    if text.startswith("sinh:"):
        try:
            r = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad sinh shape parameter in {text!r}") from exc
        try:
            return _kappa.MollifierSpec.sinh_shape(r)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown mollifier {text!r}: expected 'linear' or 'sinh:<r>'"
    )


# ---------------------------------------------------------------------------
# kappa


def _compute_row(
    theta: float,
    mollifier: str,
    R: Optional[float],
    beta: Optional[float],
) -> TableRow:
    spec = _parse_mollifier(mollifier)
    general = R is not None or beta is not None or spec.kind != "linear"
    if not general:
        res = _kappa.kappa_special(theta)
    else:
        r_val = R if R is not None else _kappa.equal_weight_R(theta, spec)
        b_val = beta if beta is not None else 1.0
        res = _kappa.kappa_general(theta, r_val, b_val, spec=spec)
    return TableRow.from_result(res, spec.tag)


def cmd_kappa(args) -> int:
    if args.theta <= 0.0:
        raise UsageError(f"--theta must be positive, got {args.theta}")
    if args.R is not None and args.R <= 0.0:
        raise UsageError(f"--R must be positive, got {args.R}")
    start = time.perf_counter()
    row = _compute_row(args.theta, args.mollifier, args.R, args.beta)
    wall = time.perf_counter() - start
    params = {
        "theta": args.theta,
        "R": row.R,
        "beta": row.beta,
        "mollifier": row.mollifier,
    }
    if args.out or args.json:
        _emit(args, "kappa", params, _TABLE_HEADER, [row.csv_line()], wall)
    if not args.json:
        print(
            f"theta={_fmt(row.theta)} R={_fmt(row.R)} beta={_fmt(row.beta)} "
            f"mollifier={row.mollifier} c={_fmt(row.c_pqr)} kappa={_fmt(row.kappa)}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _parse_grid(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--grid wants lo:hi:n, got {text!r}")
    try:
        lo, hi = _finite(parts[0]), _finite(parts[1])
        n = int(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--grid wants finite numbers lo:hi:n, got {text!r}") from exc
    if n < 1:
        raise UsageError(f"--grid needs n >= 1, got {n}")
    if not 0.0 < lo <= hi:
        raise UsageError(f"--grid needs 0 < lo <= hi, got {text!r}")
    return [float(v) for v in np.linspace(lo, hi, n)]


def _row_task(task) -> tuple:
    """(theta, mollifier) -> ('ok', TableRow) | ('err', message).

    Module-level so process pools can pickle it; exceptions are folded
    into the result so one bad row cannot kill the pool.
    """
    theta, mollifier = task
    try:
        return ("ok", _compute_row(theta, mollifier, None, None))
    except (UsageError, *_NUMERIC_ERRORS) as exc:
        return ("err", f"{type(exc).__name__}: {exc}")


def cmd_table(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.grid is not None and args.thetas:
        raise UsageError("give either positional thetas or --grid, not both")
    thetas = _parse_grid(args.grid) if args.grid is not None else list(args.thetas)
    for theta in thetas:
        if theta <= 0.0:
            raise UsageError(f"theta values must be positive, got {theta}")
    _parse_mollifier(args.mollifier)  # validate before spawning workers
    thetas = sorted(thetas)
    tasks = [(theta, args.mollifier) for theta in thetas]
    # The pool forks all its workers at once: no more than rows or cores.
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)

    start = time.perf_counter()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_row_task, tasks))
    else:
        outcomes = [_row_task(t) for t in tasks]
    wall = time.perf_counter() - start

    failures = [
        (theta, msg)
        for theta, (status, msg) in zip(thetas, outcomes)
        if status == "err"
    ]
    body: List[str] = []
    json_rows: List[dict] = []
    header = _TABLE_HEADER + (",error" if failures else "")
    for theta, (status, payload) in zip(thetas, outcomes):
        if status == "ok":
            line = payload.csv_line() + ("," if failures else "")
            body.append(line)
            entry = dataclasses.asdict(payload)
            entry["error"] = ""
            json_rows.append(entry)
        else:
            msg = str(payload).replace(",", ";")
            body.append(f"{_fmt(theta)},,,,,,{msg}")
            json_rows.append({"theta": theta, "error": msg})
    params = {
        "mollifier": args.mollifier,
        "n_rows": len(thetas),
        "n_failed": len(failures),
        "jobs": jobs,
    }
    _emit(args, "table", params, header, body, wall, json_rows=json_rows)
    return EXIT_NUMERIC if failures else EXIT_OK


def load_table(path: str) -> List[TableRow]:
    """Rows of a previously emitted table CSV (comments skipped)."""
    rows: List[TableRow] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.split(",")[0] == "theta":  # header
                continue
            parts = line.split(",")
            if len(parts) > 6 and parts[-1]:
                raise ValueError(f"row recorded a failure: {parts[-1]}")
            rows.append(
                TableRow(
                    theta=float(parts[0]),
                    R=float(parts[1]),
                    beta=float(parts[2]),
                    mollifier=parts[3],
                    c_pqr=float(parts[4]),
                    kappa=float(parts[5]),
                )
            )
    return rows


def verify_table(rows: Sequence[TableRow], tol: float = 1e-12) -> float:
    """Max round-trip error of kappa = 1 - ln(c)/R over the rows;
    raises ValueError when any finite row exceeds ``tol``."""
    worst = 0.0
    for row in rows:
        err = row.recompute_error()
        if math.isnan(err):
            continue  # saturated c (inf): invariant not applicable
        worst = max(worst, err)
        if err > tol:
            raise ValueError(
                f"row theta={_fmt(row.theta)} violates the kappa/c/R "
                f"identity by {err:.3e} (tol {tol:.1e})"
            )
    return worst


# ---------------------------------------------------------------------------
# solve


def _mode_for_solve(R: float, c: float, beta: float) -> "_varsol.ModeParams":
    if R <= 0.0:
        raise UsageError(f"--R must be positive, got {R}")
    if c >= 0.25:
        raise UsageError(f"--c must be below 1/4, got {c}")
    if c == -1.0 and beta == 1.0:
        return _varsol.make_mode_special(_varsol.SPECIAL_THETA_R / R)
    # Profile generation depends on (R, c, beta) only; the weight fields
    # just need to be consistent with c, so pin c1 = 1.
    return _varsol.ModeParams(
        R=R,
        theta=_varsol.SPECIAL_THETA_R / R,
        beta=beta,
        c=c,
        c0=-c,
        c1=1.0,
        phi_c=0.5 * (1.0 + math.sqrt(1.0 - 4.0 * c)),
    )


def cmd_solve(args) -> int:
    if args.points < 2:
        raise UsageError(f"--points must be >= 2, got {args.points}")
    mode = _mode_for_solve(args.R, args.c, args.beta)
    start = time.perf_counter()
    ts = np.linspace(0.0, mode.R, args.points)
    s, sp = _varsol.s_profile(ts, mode)
    wall = time.perf_counter() - start
    body = _csv_lines(ts, s, sp)
    params = {"R": mode.R, "c": mode.c, "beta": mode.beta, "points": args.points}
    _emit(args, "solve", params, _SOLVE_HEADER, body, wall)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    start = time.perf_counter()
    results = _verify.run_checks(level=args.level)
    wall = time.perf_counter() - start
    all_pass = all(r.passed for r in results)
    if args.json:
        payload = {
            "manifest": _make_manifest("verify", {"level": args.level}, wall).as_dict(),
            "checks": [dataclasses.asdict(r) for r in results],
            "passed": all_pass,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for r in results:
            print(r.line())
        n_fail = sum(not r.passed for r in results)
        print(
            f"{'PASS' if all_pass else 'FAIL'}: {len(results) - n_fail}/"
            f"{len(results)} checks passed in {wall:.1f}s (level={args.level})"
        )
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# limit


def _parse_r_list(text: str) -> List[float]:
    try:
        values = [_finite(p) for p in text.split(",") if p.strip()]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--R-list wants comma-separated finite numbers: {text!r}") from exc
    if not values:
        raise UsageError("--R-list is empty")
    if any(v <= 0.0 for v in values) or any(
        b <= a for a, b in zip(values, values[1:])
    ):
        raise UsageError("--R-list must be positive and strictly increasing")
    return values


def cmd_limit(args) -> int:
    if not 0.5 < args.y0 <= 1.0:
        raise UsageError(f"--y0 must lie in (0.5, 1], got {args.y0}")
    r_list = _parse_r_list(args.R_list)
    start = time.perf_counter()
    q_vals = _siegel.step_limit_scan(args.y0, r_list)
    wall = time.perf_counter() - start
    body = _csv_lines(r_list, q_vals)
    params = {"y0": args.y0, "R_list": r_list}
    _emit(args, "limit", params, _LIMIT_HEADER, body, wall)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mollab",
        description="Variational zero-proportion pipeline "
        "(profiles, kappa bounds, limit scans, self-verification).",
    )
    parser.add_argument(
        "--version", action="version", version=f"mollab {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("kappa", help="one proportion bound")
    p.add_argument("--theta", type=_finite, required=True, help="mollifier exponent")
    p.add_argument("--R", type=_finite, default=None, help="interval half-length")
    p.add_argument("--beta", type=_finite, default=None, help="boundary weight")
    p.add_argument(
        "--mollifier", default="linear", help="'linear' or 'sinh:<r>' moments"
    )
    _add_common(p)
    p.set_defaults(func=cmd_kappa)

    p = subs.add_parser("table", help="CSV of bounds over many theta")
    p.add_argument("thetas", nargs="*", type=_finite, help="theta values")
    p.add_argument("--grid", default=None, help="lo:hi:n linear theta grid")
    p.add_argument(
        "--mollifier", default="linear", help="'linear' or 'sinh:<r>' moments"
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel row workers")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("solve", help="CSV profile of S on [0, R]")
    p.add_argument("--R", type=_finite, required=True, help="interval half-length")
    p.add_argument("--c", type=_finite, default=-1.0, help="ODE coefficient (< 1/4)")
    p.add_argument("--beta", type=_finite, default=1.0, help="boundary weight")
    p.add_argument("--points", type=int, default=2001, help="sample count")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("verify", help="run the named invariant checks")
    p.add_argument(
        "--level", choices=list(_verify.LEVELS), default="quick", help="check depth"
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("limit", help="step-function limit scan Q_R(y0)")
    p.add_argument("--y0", type=_finite, default=0.75, help="evaluation point (1/2, 1]")
    p.add_argument(
        "--R-list",
        dest="R_list",
        default="5,10,20,40",
        help="comma-separated increasing R values",
    )
    _add_common(p)
    p.set_defaults(func=cmd_limit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
