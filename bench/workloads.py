"""Seeded request streams, output parsers and reference checks.

Each workload turns a seed into an endless stream of ``mollab`` command
lines, parses what the CLI prints, and judges every output against a
route that does not share the code under test.

Inputs are drawn from a randomized Halton sequence (one prime base per
input dimension, shifted by the seed).  Any prefix of the stream then
covers the input domain evenly, so a time-bounded run sees nearly the
same mix of cheap and expensive inputs whatever the seed.  The warm-up
stream uses other shifts, so it shares no input with the timed stream.

The timed streams keep to the region where the program answers within
tolerance today (``supported``), so no timed request fails.  The known
failure corners outside it are a fixed list per workload (``corners``),
run and counted by class in the traced run: the failure ledger.

Verdicts
    ok          every check held
    failed      typed error, non-zero exit, stopped by the benchmark
                ("budget", "deadline"), or an output outside its
                tolerance ("wrong"); any failed timed request makes the
                run incorrect
    unverified  the program answered but the reference route could not
                give a value; listed in the report, never counted as ok

Tolerances (absolute)
    kappa identity          |kappa - (1 - ln c / R)| <= 1e-12
    published table rows    2 units of the last printed digit
    pinned rows             1e-9
    kappa oracle            1e-9 + |k_fine - k_coarse|, where the oracle is
                            BVP (n = 20001 and 10000 interior nodes)
                            -> k_functional_direct -> kappa_from_functional,
                            Richardson-extrapolated; defined for R <= 350
    profile S(t)            min(1e-6, 1e-8 + 16 eps e^{(phi-1) t}) against a
                            Richardson-extrapolated BVP pair (steps 1e-3
                            and 5e-4), cubic-spline interpolated onto the
                            output grid; the eps e^{(phi-1) t} term is the
                            documented rounding floor of S, and 1e-6 caps it.
                            Finer BVP grids are less accurate, not more:
                            rounding in the tridiagonal solve grows as
                            1/h^2 (at R = 1, 1.2e4 nodes are off by 6e-9,
                            1e3 nodes by 2e-11)
    boundary values         S(0) = beta/2 to 1e-12; S(R) = beta - 1 to
                            min(1e-6, 1e-12 + 16 eps e^{(phi-1) R})

Checks whose error is set by print precision (echoed inputs, the kappa
identity on 15-digit output, the 3-digit published rows) are pass/fail
gates only; ``err_ratio`` gauges the remaining checks, the ones against a
reference route.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from mollab import _verify, kappa, oracle, varsol

EPS = float(np.finfo(float).eps)

ID_TOL = 1e-12
PRINT_TOL = 1e-14  # relative; the CLI prints 15 significant digits
PIN_TOL = 1e-9
KAPPA_ORACLE_FLOOR = 1e-9
KAPPA_ORACLE_NODES = (20001, 10000)  # (n + 1) of the fine grid = 2 (n + 1) of the coarse
KAPPA_ORACLE_MAX_R = 350.0
PROFILE_FLOOR = 1e-8
PROFILE_CAP = 1e-6
PROFILE_ORACLE_STEP = 1e-3
BOUNDARY_TOL = 1e-12
ROUNDING_FACTOR = 16.0

# The region with no known failure, in terms of phi_c = (1 + sqrt(1 - 4c)) / 2
# and R.  Variation of parameters anchored at t = 0 loses about
# e^{(phi-1) R} e^{2 max(phi-2, 0) R} eps; past an exponent of about 10
# answers drift out of tolerance, and past 17 most are wrong or raise.
# Near phi = k + 1/2 (c = 1/4 - k^2, k >= 1) the connection formula
# degenerates, profiles with phi above 3.5 come closer to their boundary
# tolerance, and for large phi small R thrashes in the quadrature.  Over
# 1500 general-sweep and 910 profile-dense draws inside the region none
# failed, and the worst error / tolerance was 0.19.
SUPPORTED_PHI_MAX = 3.4
SUPPORTED_LOSS_MAX = 6.0
SUPPORTED_HALF_INTEGER_GAP = 0.1


def supported(phi: float, R: float) -> bool:
    """True inside the region where every request is answered correctly."""
    loss = (phi - 1.0) * R + 2.0 * max(phi - 2.0, 0.0) * R
    k = round(phi - 0.5)
    near_degenerate = k >= 1 and abs(phi - 0.5 - k) < SUPPORTED_HALF_INTEGER_GAP
    return phi <= SUPPORTED_PHI_MAX and loss <= SUPPORTED_LOSS_MAX and not near_degenerate


_PRIMES = (2, 3, 5, 7)


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in ``base``."""
    inv, f = 0.0, 1.0 / base
    while index > 0:
        inv += f * (index % base)
        index //= base
        f /= base
    return inv


class Halton:
    """Randomized (Cranley-Patterson shifted) Halton points in [0, 1)^d."""

    def __init__(self, dims: int, rng: random.Random):
        self.shifts = [rng.random() for _ in range(dims)]
        self.index = 0

    def __next__(self) -> Tuple[float, ...]:
        self.index += 1
        return tuple(
            (radical_inverse(self.index, b) + s) % 1.0
            for b, s in zip(_PRIMES, self.shifts)
        )


def log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def pick(u: float, choices):
    return choices[min(int(u * len(choices)), len(choices) - 1)]


@dataclass
class Request:
    argv: List[str]
    items: int
    params: dict


@dataclass
class Verdict:
    status: str  # "ok" | "failed" | "unverified"
    cls: str = ""  # failure class or reason for "unverified"
    err_ratio: float = 0.0
    detail: str = ""


class Judge:
    """Collects (error, tolerance) pairs for one request."""

    def __init__(self):
        self.ratio = 0.0
        self.failure = ""
        self.unverified = ""

    def check(self, name: str, err: float, tol: float, gauge: bool = True) -> None:
        ratio = err / tol if math.isfinite(err) else math.inf
        if ratio > 1.0 and not self.failure:
            self.failure = f"{name}: err {err:.3e} > tol {tol:.3e}"
        if gauge:
            self.ratio = max(self.ratio, ratio)

    def verdict(self) -> Verdict:
        if self.failure:
            return Verdict("failed", "wrong", self.ratio, self.failure)
        if self.unverified:
            return Verdict("unverified", self.unverified, self.ratio)
        return Verdict("ok", "", self.ratio)


def _numbers(text: str) -> dict:
    """``key=value`` pairs of the one-line ``mollab kappa`` summary."""
    out = {}
    for part in text.split():
        key, _, val = part.partition("=")
        out[key] = val
    return out


def _csv_body(text: str) -> List[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]  # drop the header


def kappa_reference(mode) -> Tuple[Optional[float], float, str]:
    """(kappa, tolerance, reason) from the BVP -> functional route.

    The fine and coarse grids halve h exactly, so the Richardson step is
    exact for the second-order BVP; the fine/coarse gap bounds what is
    left.  ``kappa`` is None (with a reason) where the route is undefined.
    """
    if mode.R > KAPPA_ORACLE_MAX_R:
        return None, 0.0, f"R={mode.R:.4g} beyond oracle range"
    vals = []
    for n in KAPPA_ORACLE_NODES:
        try:
            prof = oracle.bvp_solve(mode, n).differenced()
            k_val = kappa.k_functional_direct(prof, mode)
            vals.append(kappa.kappa_from_functional(mode, k_val).kappa)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            return None, 0.0, f"oracle {type(exc).__name__}"
    fine, coarse = vals
    return fine + (fine - coarse) / 3.0, KAPPA_ORACLE_FLOOR + abs(fine - coarse), ""


class Workload:
    name = ""
    item_unit = ""
    warmup_requests = 4

    def __init__(self, seed: int):
        self.seed = seed

    def timed(self) -> Iterator[Request]:
        return self._stream(random.Random(f"timed:{self.name}:{self.seed}"))

    def warmup(self) -> List[Request]:
        stream = self._stream(random.Random(f"warmup:{self.name}:{self.seed}"))
        return [next(stream) for _ in range(self.warmup_requests)]

    def anchors(self) -> List[Request]:
        return []

    def corners(self) -> List[Request]:
        """Fixed requests that fail today, one or more per failure class."""
        return []

    def _stream(self, rng: random.Random) -> Iterator[Request]:
        raise NotImplementedError

    def parse(self, req: Request, stdout: str):
        raise NotImplementedError

    def failure_class(self, stdout: str, stderr: str) -> str:
        """Exception class named by the CLI's failure message."""
        m = re.search(r"numeric failure: (\w+)", stderr)
        if m:
            return m.group(1)
        return "usage" if "usage" in stderr else ""

    def check(self, req: Request, parsed) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# kappa-table


class KappaTable(Workload):
    """`mollab table` over 2 fresh theta plus one published or pinned row.

    Fresh theta are log-uniform on [0.002, 0.5]; the fixed rows cycle
    through _verify's published and pinned table, so every request also
    re-derives a row whose mode the caches have seen before.
    """

    name = "kappa-table"
    item_unit = "rows"
    fresh_per_request = 2
    warmup_requests = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.printed = {t: v for t, v in _verify._PRINT_ROWS}
        self.pinned = {t: v for t, v in _verify._PIN_ROWS}
        self.fixed = list(self.printed) + list(self.pinned)
        self._ref_cache = {}

    def _stream(self, rng):
        # one Halton point per request, one dimension per fresh theta: the
        # pair is then uniform on the square whatever the seed's shift
        # (consecutive points of one dimension would pair up ranges of
        # theta that depend on the shift)
        seq = Halton(self.fresh_per_request, rng)
        fixed = []
        while True:
            thetas = [log_uniform(u, 0.002, 0.5) for u in next(seq)]
            if not fixed:
                # each fixed row once per block, in shuffled order: cycling
                # in index order would tie each row to the same stretch of
                # the Halton sequence, and so to a seed-dependent cost
                fixed = rng.sample(self.fixed, len(self.fixed))
            thetas.append(fixed.pop())
            yield Request(
                ["table", *[repr(t) for t in thetas]],
                items=len(thetas),
                params={"thetas": thetas},
            )

    def parse(self, req, stdout):
        rows = []
        for line in _csv_body(stdout):
            theta, R, beta, _mollifier, c_pqr, kap = line.split(",")[:6]
            rows.append(tuple(float(v) for v in (theta, R, beta, c_pqr, kap)))
        return rows

    def failure_class(self, stdout, stderr):
        # a failed row carries its exception in the table's error column
        for line in _csv_body(stdout):
            err = line.split(",")[-1] if line.count(",") > 5 else ""
            if err:
                return err.split(":")[0]
        return super().failure_class(stdout, stderr)

    def _reference(self, theta: float):
        if theta not in self._ref_cache:
            self._ref_cache[theta] = kappa_reference(varsol.make_mode_special(theta))
        return self._ref_cache[theta]

    def check(self, req, rows):
        judge = Judge()
        want = sorted(req.params["thetas"])
        if len(rows) != len(want):
            return Verdict("failed", "wrong", 0.0, f"{len(rows)} rows for {len(want)} theta")
        for theta, row in zip(want, rows):
            got_theta, R, beta, c_pqr, kap = row
            judge.check("theta echo", abs(got_theta - theta), PRINT_TOL * theta, gauge=False)
            judge.check("beta", abs(beta - 1.0), ID_TOL, gauge=False)
            judge.check("identity", abs(kap - (1.0 - math.log(c_pqr) / R)), ID_TOL, gauge=False)
            if theta in self.printed:
                printed = self.printed[theta]
                digits = len(str(printed).split(".")[1])
                judge.check("published", abs(kap - printed), 2.0 * 10.0 ** -digits, gauge=False)
            if theta in self.pinned:
                judge.check("pinned", abs(kap - self.pinned[theta]), PIN_TOL)
            ref, tol, why = self._reference(theta)
            if ref is None:
                judge.unverified = why
            else:
                judge.check("oracle", abs(kap - ref), tol)
        return judge.verdict()


# ---------------------------------------------------------------------------
# general-sweep


_MOLLIFIERS = ("linear", "sinh:0.5", "sinh:2")
_BETAS = (0.5, 1.0, 1.3)


def _spec(tag: str):
    if tag == "linear":
        return kappa.MollifierSpec.linear()
    return kappa.MollifierSpec.sinh_shape(float(tag.split(":")[1]))


class GeneralSweep(Workload):
    """`mollab kappa --theta --R --beta [--mollifier sinh:r]`, one row each.

    theta log-uniform on [0.01, 1], R log-uniform on [0.2, 50], beta and
    the mollifier uniform over three values each, kept where
    ``supported`` holds (about 35 % of draws).  Every request has its own
    ODE coefficient c.  The failure corners (large phi_c, c near
    1/4 - k^2) are in ``corners``.
    """

    name = "general-sweep"
    item_unit = "rows"
    warmup_requests = 10

    def _stream(self, rng):
        seq = Halton(4, rng)
        while True:
            u = next(seq)
            theta = log_uniform(u[0], 0.01, 1.0)
            R = log_uniform(u[1], 0.2, 50.0)
            mollifier = pick(u[2], _MOLLIFIERS)
            spec = _spec(mollifier)
            phi = 0.5 * (1.0 + math.sqrt(spec.C / spec.B) / (theta * R))
            if supported(phi, R):
                yield self._request(theta, R, pick(u[3], _BETAS), mollifier)

    @staticmethod
    def _request(theta, R, beta, mollifier):
        argv = ["kappa", "--theta", repr(theta)]
        if R is not None:
            argv += ["--R", repr(R)]
        if beta is not None:
            argv += ["--beta", repr(beta)]
        if mollifier != "linear":
            argv += ["--mollifier", mollifier]
        params = {"theta": theta, "R": R, "beta": beta, "mollifier": mollifier}
        return Request(argv, items=1, params=params)

    def anchors(self):
        # verify's asymmetric general mode, the README examples, and the
        # equal-weight point where the general mode reduces to the special one
        return [
            self._request(0.5, 2.0, 1.3, "linear"),
            self._request(0.125, 7.6, 1.0, "linear"),
            self._request(0.125, None, None, "sinh:0.25"),
            self._request(0.25, None, 1.0, "linear"),
        ]

    def corners(self):
        # (theta, R, beta, mollifier) -> class today
        return [self._request(*p) for p in (
            (0.02, 0.22, 1.3, "sinh:2"),  # phi ~ 264: NonConvergence
            (0.025, 11.5, 1.0, "linear"),  # phi ~ 3.5: NonPositiveArgument
            (0.0255, 0.85, 1.0, "linear"),  # phi ~ 40: NonPositiveArgument
            (0.25, math.sqrt(12.0), 1.0, "linear"),  # c = -3/4: DegenerateParameters
            (0.25, math.sqrt(12.0) * (1.0 + 1e-4), 1.0, "linear"),  # near c = -3/4: budget
            (0.055, 0.4, 1.3, "linear"),  # phi ~ 40: budget
            (0.015, 32.0, 1.0, "linear"),  # phi ~ 2.3, large R: wrong
            (0.048, 5.1, 1.3, "sinh:2"),  # phi ~ 5.2: wrong
            (0.035, 4.82, 0.5, "linear"),  # phi ~ 5.6: wrong
        )]

    def parse(self, req, stdout):
        kv = _numbers(stdout)
        return {k: float(kv[k]) for k in ("theta", "R", "beta", "c", "kappa")}

    def check(self, req, out):
        p = req.params
        spec = _spec(p["mollifier"])
        R = p["R"] if p["R"] is not None else kappa.equal_weight_R(p["theta"], spec)
        beta = p["beta"] if p["beta"] is not None else 1.0
        judge = Judge()
        judge.check("R echo", abs(out["R"] - R), PRINT_TOL * R, gauge=False)
        judge.check(
            "identity", abs(out["kappa"] - (1.0 - math.log(out["c"]) / out["R"])), ID_TOL, gauge=False
        )
        mode = varsol.make_mode_general(p["theta"], R, beta, spec.B, spec.C)
        ref, tol, why = kappa_reference(mode)
        if ref is None:
            judge.unverified = why
        else:
            judge.check("oracle", abs(out["kappa"] - ref), tol)
        return judge.verdict()


# ---------------------------------------------------------------------------
# profile-dense


class ProfileDense(Workload):
    """`mollab solve --R --c --beta --points` on dense grids.

    R log-uniform on [1, 20], phi_c uniform on [1.6, 5] (c = -phi (phi - 1)),
    beta uniform over three values, points log-uniform on [2001, 12001],
    kept where ``supported`` holds (about 16 % of draws).  The failure
    corners (large (phi - 1) R, phi near k + 1/2) are in ``corners``.
    """

    name = "profile-dense"
    item_unit = "points"
    warmup_requests = 3

    def _stream(self, rng):
        # phi and R decide pass or fail, so they take the two most even bases
        seq = Halton(4, rng)
        while True:
            u = next(seq)
            phi = 1.6 + 3.4 * u[0]
            R = log_uniform(u[1], 1.0, 20.0)
            points = int(round(log_uniform(u[2], 2001, 12001)))
            if supported(phi, R):
                yield self._request(R, -phi * (phi - 1.0), pick(u[3], _BETAS), points)

    @staticmethod
    def _request(R, c, beta, points):
        argv = ["solve", "--R", repr(R), "--c", repr(c), "--beta", repr(beta),
                "--points", str(points)]
        params = {"R": R, "c": c, "beta": beta, "points": points}
        return Request(argv, items=points, params=params)

    def anchors(self):
        # verify's oracle-bvp mode and two modes inside the stable range
        return [
            self._request(5.0, -1.0, 1.0, 2001),
            self._request(20.0, -1.0, 1.3, 4001),
            self._request(2.0, -2.0, 0.5, 2001),
        ]

    def corners(self):
        # (R, phi, beta) -> class today, on 2001 points
        return [self._request(R, -phi * (phi - 1.0), beta, 2001) for R, phi, beta in (
            (1.2, 4.5, 0.5),  # c = 1/4 - 4^2: DegenerateParameters
            (1.204, 4.4993, 0.5),  # near phi = 4.5: wrong S(R)
            (9.674, 2.5337, 0.5),  # (phi - 1) R ~ 15: wrong
            (9.555, 3.4102, 1.3),  # wrong
            (4.82, 5.63, 0.5),  # wrong
        )]

    def parse(self, req, stdout):
        body = _csv_body(stdout)
        table = np.array(",".join(body).split(","), dtype=float).reshape(-1, 3)
        ts = np.linspace(0.0, req.params["R"], req.params["points"])
        grid_err = float(np.max(np.abs(table[:, 0] - ts))) if len(table) == len(ts) else math.inf
        return grid_err, table[:, 1].copy()

    def check(self, req, parsed):
        grid_err, S = parsed
        p = req.params
        R, c, beta, n_pts = p["R"], p["c"], p["beta"], p["points"]
        judge = Judge()
        judge.check("grid", grid_err, PRINT_TOL * R, gauge=False)
        if not math.isfinite(grid_err):
            return judge.verdict()
        phi = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * c))
        mode = varsol.ModeParams(
            R=R, theta=varsol.SPECIAL_THETA_R / R, beta=beta, c=c, c0=-c, c1=1.0, phi_c=phi
        )
        ts = np.linspace(0.0, R, n_pts)
        floor = ROUNDING_FACTOR * EPS * np.exp((phi - 1.0) * ts)
        judge.check("S(0)", abs(S[0] - beta / 2.0), BOUNDARY_TOL)
        judge.check("S(R)", abs(S[-1] - (beta - 1.0)), min(PROFILE_CAP, BOUNDARY_TOL + floor[-1]))
        m = max(200, round(R / PROFILE_ORACLE_STEP))  # coarse intervals
        try:
            coarse = oracle.bvp_solve(mode, m - 1).values
            fine = oracle.bvp_solve(mode, 2 * m - 1).values[::2]
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            judge.unverified = f"oracle {type(exc).__name__}"
            return judge.verdict()
        ref = CubicSpline(np.linspace(0.0, R, m + 1), fine + (fine - coarse) / 3.0)(ts)
        tol = np.minimum(PROFILE_CAP, PROFILE_FLOOR + floor)
        ratios = np.abs(S - ref) / tol
        worst = int(np.argmax(ratios))
        judge.check("bvp", float(abs(S[worst] - ref[worst])), float(tol[worst]))
        return judge.verdict()


WORKLOADS = {w.name: w for w in (KappaTable, GeneralSweep, ProfileDense)}
