"""Named self-checks behind the ``verify`` CLI command.

Each check recomputes an invariant of the pipeline by an independent
route and reports the measured discrepancy against its bound.  The
checks accept the objects they verify as parameters (defaulting to the
standard modes), so tests can feed tampered inputs and confirm the
checks actually detect faults rather than always passing.

Levels: "quick" keeps grids small enough for a fresh-build run well
under a minute; "full" raises the brute-force resolutions (1e5-node
finite differences) for release-grade evidence.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .hyp2f1 import HypArgs, hyp2f1_neg, hyp2f1_pfaff, hyp2f1_series
from . import kappa as _kappa
from . import oracle as _oracle
from . import siegel as _siegel
from . import varsol as _varsol

__all__ = [
    "CheckResult",
    "LEVELS",
    "run_checks",
    "check_route_overlap",
    "check_wronskian_transport",
    "check_ode_residual",
    "check_boundary_values",
    "check_named_constants",
    "check_oracle_bvp",
    "check_oracle_minimizer",
    "check_kappa_table",
    "check_mode_reduction",
    "check_quadrature_route",
    "check_siegel_symmetry",
]

LEVELS = ("quick", "full")


@dataclass
class CheckResult:
    """Outcome of one named check: worst measured error vs its bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    seconds: float = 0.0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        txt = (
            f"{status}  {self.name:<22} measured={self.measured:.3e} "
            f"bound={self.bound:.1e} ({self.seconds:.2f}s)"
        )
        if self.detail:
            txt += f"  [{self.detail}]"
        return txt


def _timed(name: str, bound: float, fn: Callable[[], tuple]) -> CheckResult:
    start = time.perf_counter()
    measured, detail = fn()
    elapsed = time.perf_counter() - start
    return CheckResult(
        name=name,
        passed=bool(measured <= bound),
        measured=float(measured),
        bound=bound,
        seconds=elapsed,
        detail=detail,
    )


def _default_modes(level: str) -> list:
    rs = [2.0, 5.0] if level == "quick" else [2.0, 5.0, 8.0]
    modes = [_varsol.make_mode_special(_varsol.SPECIAL_THETA_R / r) for r in rs]
    # one asymmetric, convex general mode
    modes.append(_varsol.make_mode_general(0.5, 2.0, 1.3, B=1.0 / 3.0, C=1.0))
    return modes


def check_route_overlap(
    triples: Optional[Sequence] = None, bound: float = 1e-10
) -> CheckResult:
    """Hypergeometric routing seams: the defining series against the
    Pfaff-mapped series on the band |z| in (0.55, 0.95), and the Pfaff
    route against the connection form on z in [-3, -1.1], at the same
    points with the parameter triples the component functions use."""
    if triples is None:
        phis = [
            _varsol.make_mode_special(0.5).phi_c,
            _varsol.make_mode_general(0.5, 2.0, 1.3, B=1.0 / 3.0, C=1.0).phi_c,
        ]
        triples = []
        for phi in phis:
            mu = 1.0 - phi
            triples += [
                (0.5, phi, 0.5 + phi),
                (0.5, 1.0 + phi, 0.5 + phi),
                (0.5, mu, 0.5 + mu),
                (1.5, mu, 0.5 + mu),
            ]

    def body():
        worst = 0.0
        n_pts = 0
        for a, b, c in triples:
            for z in (-0.6, -0.75, -0.9):
                s = hyp2f1_series(HypArgs(a, b, c, z))
                p = hyp2f1_pfaff(HypArgs(a, b, c, z))
                worst = max(worst, abs(s - p) / max(abs(s), 1.0))
                n_pts += 1
            for z in (-1.1, -1.8, -3.0):
                p = hyp2f1_pfaff(HypArgs(a, b, c, z))
                t = 0.5 * np.log(-z)
                n = float(hyp2f1_neg(a, b, c, t))
                worst = max(worst, abs(p - n) / max(abs(p), 1.0))
                n_pts += 1
        return worst, f"{len(triples)} triples x {n_pts // len(triples)} points"

    return _timed("route-overlap", bound, body)


def check_wronskian_transport(
    mode=None, bound: float = 1e-8, t_max: float = 2.0
) -> CheckResult:
    """Product-formula Wronskian against its transported value
    W(t) = W(0)/cosh(t) on the well-conditioned range [0, t_max]."""
    mode = mode or _varsol.make_mode_special(0.5)

    def body():
        ts = np.linspace(0.0, t_max, 81)
        cv = _varsol.components_at(ts, mode)
        w0 = float(np.asarray(cv.W)[0])
        rel = np.abs(np.asarray(cv.W) * np.cosh(ts) / w0 - 1.0)
        return float(np.max(rel)), f"W(0)={w0:.6g}, t in [0,{t_max:g}]"

    return _timed("wronskian-transport", bound, body)


def check_ode_residual(
    modes: Optional[Sequence] = None, bound: float = 1e-6
) -> CheckResult:
    """Closed-form S pushed through the central-difference stencil of its
    own ODE.  Tampering any functional coefficient by 1% moves this from
    ~1e-7 to ~1e-2, so it is the fault-injection target."""
    if modes is None:
        modes = _default_modes("quick")

    def body():
        worst = 0.0
        tags = []
        for m in modes:
            r = _varsol.ode_residual_max(m)
            tags.append(f"R={m.R:g}:{r:.1e}")
            worst = max(worst, r)
        return worst, " ".join(tags)

    return _timed("ode-residual", bound, body)


def check_boundary_values(
    modes: Optional[Sequence] = None, bound: float = 1e-9
) -> CheckResult:
    """S(0) = beta/2 and S(R) = beta - 1 as evaluated, absolutely."""
    if modes is None:
        rs = (1.0, 2.0, 5.0, 10.0, 20.0)
        modes = [_varsol.make_mode_special(_varsol.SPECIAL_THETA_R / r) for r in rs]

    def body():
        worst = 0.0
        for m in modes:
            s0 = _varsol.s_value(0.0, m)
            sR = _varsol.s_value(m.R, m)
            worst = max(
                worst, abs(s0 - m.beta / 2.0), abs(sR - (m.beta - 1.0))
            )
        return worst, f"{len(modes)} modes"

    return _timed("boundary-values", bound, body)


def check_named_constants() -> CheckResult:
    """Pinned limiting constants, each normalized by its own printed
    tolerance (so the bound is 1): the w-integral limits at t = 60,
    C1 at R = 40, and the t = 0 values/derivatives of the component
    functions."""

    def body():
        m = _varsol.make_mode_special(0.5)
        big = _varsol.make_mode_special(_varsol.SPECIAL_THETA_R / 66.0)
        w1, w2 = _varsol.w_integrals(60.0, big)
        c1_40 = _varsol.c1_constant(
            _varsol.make_mode_special(_varsol.SPECIAL_THETA_R / 40.0)
        )
        cv = _varsol.components_at(0.0, m)
        v1_0, v2_0 = _varsol.v_integrands(0.0, m)
        zs = _varsol._zero_state(m)
        checks = [
            ("w1_inf", w1, 1.3208, 2e-3),
            ("w2_inf", w2, 2.8166, 2e-3),
            ("C1_40", c1_40, 0.674, 5e-3),
            ("g1_0", float(np.asarray(cv.g1)), -1.07479, 1e-5),
            ("g2_0", float(np.asarray(cv.g2)), 0.759136, 1e-6),
            ("v1_0", float(v1_0), 0.339496, 1e-6),
            ("v2_0", float(v2_0), 0.480664, 1e-6),
            ("fp_0", float(zs["fp0"]), -1.47277, 1e-5),
            ("g0p_0", float(zs["g0p0"]), 0.602775, 1e-6),
        ]
        worst = 0.0
        parts = []
        for name, got, want, tol in checks:
            worst = max(worst, abs(got - want) / tol)
            parts.append(f"{name}={got:.6g}")
        return worst, " ".join(parts)

    return _timed("named-constants", 1.0, body)


def check_oracle_bvp(level: str = "quick", bound: float = 1e-6) -> CheckResult:
    """Finite-difference BVP re-solve against the closed form."""
    if level == "quick":
        cases = [(5.0, 20000)]
    else:
        cases = [(1.0, 100000), (5.0, 100000), (10.0, 100000)]

    def body():
        worst = 0.0
        tags = []
        for r, n in cases:
            m = _varsol.make_mode_special(_varsol.SPECIAL_THETA_R / r)
            prof = _oracle.bvp_solve(m, n)
            s, _ = _varsol.s_profile(prof.grid, m)
            sup = float(np.max(np.abs(prof.values - s)))
            worst = max(worst, sup)
            tags.append(f"R={r:g},n={n}:{sup:.1e}")
        return worst, " ".join(tags)

    return _timed("oracle-bvp", bound, body)


def check_oracle_minimizer(level: str = "quick", bound: float = 1e-5) -> CheckResult:
    """Direct functional minimizer against the BVP solution (two
    different discretizations of the same stationarity condition)."""
    n = 4000 if level == "quick" else 10000

    def body():
        m = _varsol.make_mode_special(_varsol.SPECIAL_THETA_R / 5.0)
        a = _oracle.bvp_solve(m, n)
        b = _oracle.discrete_minimize(m, n)
        sup, _ = _oracle.compare_profiles(a, b)
        return sup, f"R=5, n={n}"

    return _timed("oracle-minimizer", bound, body)


# The published table rows this implementation reproduces to print
# precision, plus two high-precision regression pins for the rows where
# the published values are inconsistent with the defining formulas (see
# the project notes); the pins guard against regressions in our own
# computation.
_PRINT_ROWS = [
    (0.25, 0.176),
    (1.0 / 6.0, 0.114),
    (0.125, 0.0854),
    (5.0 / 54.0, 0.0632),
    (0.01, 0.00682),
    (0.002, 0.00136),
]
_PIN_ROWS = [
    (2.0 / 3.0, 0.4463667700448201),
    (0.5, 0.35843690852531124),
]


def check_kappa_table(bound: float = 1.0) -> CheckResult:
    """Reproduction of the proportion table: printed rows to 2 units in
    the last printed digit, pinned rows to 1e-9."""

    def body():
        worst = 0.0
        for theta, printed in _PRINT_ROWS:
            digits = len(str(printed).split(".")[1])
            tol = 2.0 * 10.0 ** (-digits)
            got = _kappa.kappa_special(theta).kappa
            worst = max(worst, abs(got - printed) / tol)
        for theta, pin in _PIN_ROWS:
            got = _kappa.kappa_special(theta).kappa
            worst = max(worst, abs(got - pin) / 1e-9)
        return worst, f"{len(_PRINT_ROWS)} printed + {len(_PIN_ROWS)} pinned rows"

    return _timed("kappa-table", bound, body)


def check_mode_reduction(bound: float = 1e-8) -> CheckResult:
    """kappa_general with linear moments at R = sqrt(3/5)/theta, beta = 1
    must reduce to kappa_special."""

    def body():
        worst = 0.0
        for theta in (0.5, 0.25, 0.125):
            spec = _kappa.MollifierSpec.linear()
            r_eq = _kappa.equal_weight_R(theta, spec)
            a = _kappa.kappa_special(theta).kappa
            b = _kappa.kappa_general(theta, r_eq, 1.0, spec=spec).kappa
            worst = max(worst, abs(a - b))
        return worst, "theta in {1/2, 1/4, 1/8}"

    return _timed("mode-reduction", bound, body)


def check_quadrature_route(bound: float = 1e-9) -> CheckResult:
    """Unit-interval quadrature of the defining moment functional against
    the closed-form constant (independent change-of-variables route)."""

    def body():
        worst = 0.0
        for theta in (0.5, 0.25):
            res = _kappa.kappa_special(theta)
            mode, _ = _kappa._special_scaled_c(theta)
            cq = _kappa.c_pqr_quadrature(mode)
            worst = max(worst, abs(cq - res.c_pqr) / res.c_pqr)
        return worst, "theta in {1/2, 1/4}"

    return _timed("quadrature-route", bound, body)


def check_siegel_symmetry(bound: float = 1e-12) -> CheckResult:
    """Pulled-back profile symmetry Q(y) + Q(1-y) = beta."""

    def body():
        m = _varsol.make_mode_special(_varsol.SPECIAL_THETA_R / 5.0)
        ys = np.linspace(0.0, 1.0, 201)
        q, _ = _siegel.q_profile(ys, m)
        sym = q + q[::-1] - m.beta
        return float(np.max(np.abs(sym))), "R=5, 201 points"

    return _timed("siegel-symmetry", bound, body)


def run_checks(level: str = "quick") -> List[CheckResult]:
    """The standard suite at the given level; every member is pure."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    modes = _default_modes(level)
    return [
        check_route_overlap(),
        check_wronskian_transport(),
        check_boundary_values(),
        check_ode_residual(modes),
        check_named_constants(),
        check_oracle_bvp(level),
        check_oracle_minimizer(level),
        check_kappa_table(),
        check_mode_reduction(),
        check_quadrature_route(),
        check_siegel_symmetry(),
    ]
