"""Zero-proportion lower bound from the mollified moment constant.

The bound is kappa = 1 - log(c) / R, where c = c(P, Q, R) is the second
moment of the mollified object on the critical line, minimized over the
smoothing profile Q.  Expanding the square and integrating the mixed term
reduces c to

    c = 1/2 + e^{2R} (beta - 1)^2 / 2
        + int_0^1 [ (C/theta) w(y)^2 + theta B w'(y)^2 ] dy,

with w(y) = e^{Ry} Q(y), where B = int_0^1 P^2 and C = int_0^1 P'^2 are
the mollifier moments (1/3 and 1 for the linear P(x) = x, closed
hyperbolic forms for P_r(x) = sinh(r x)/sinh(r)) and beta = 2 Q(1/2) the
midpoint weight.  After the change of variables to S(t) on [0, R] the
minimal value has a closed form in terms of S'(0), S'(R) and
int_0^R e^{-t} S dt, which this module assembles in two modes:

- special: the equal-weight point c0 = c1 (theta R = sqrt(3/5) for the
  linear mollifier), where the constant collapses to
  c = 1/2 + (-1 + 2 e^R (1 - e^{-R} - S'(0) - int e^{-t} S)) / sqrt(15);
- general: free R, beta and moments, through the functional value
  K(S) = c0 beta^2 (1 - e^{-R}) - c1 beta S'(0)
         + 2 (beta - 1) c1 S'(R) cosh R - c0 beta int_0^R e^{-t} S dt.

Large R is handled by factoring the dominant exponential out of the
logarithm (e^{2R} when beta != 1, e^R otherwise), so kappa stays accurate
far beyond the point where c itself overflows; the reported c saturates
to inf once log c > 709 while kappa remains exact.

int_0^R e^{-t} S dt comes from ``varsol.exp_weighted_integral``, a closed
form in the cached w-anchors, so neither mode runs adaptive quadrature.
In the general mode that integral carries the rounding of the
variation-of-parameters assembly, which grows like e^{(phi_c - 2) t} (twice
that exponent once phi_c > 2), and near phi_c = k + 1/2 the components
themselves lose digits to the connection formula's Gamma poles.  When that
noise, carried through the log map, could move kappa by more than 1e-9,
``kappa_general`` raises IllConditioned instead of returning digits it
cannot vouch for.

Two independent cross-routes guard the algebra: ``c_pqr_quadrature``
integrates the defining w-functional directly on the unit interval by
adaptive quadrature, and
``k_functional_direct`` evaluates K on a discrete profile (the piecewise
linear form when no derivative samples are given -- exactly the objective
the discrete minimizer optimizes -- or node trapezoid with Richardson
refinement when they are).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .quad import integrate
from .siegel import q_profile
from .varsol import (
    SPECIAL_THETA_R,
    ModeParams,
    exp_weighted_integral,
    make_mode_general,
    make_mode_special,
    s_prime,
    s_prime_zero,
    _connection_noise,
    _weighted_noise_floor,
)

__all__ = [
    "InvalidR",
    "NonPositiveArgument",
    "IllConditioned",
    "GridTooCoarse",
    "MollifierSpec",
    "KappaResult",
    "equal_weight_R",
    "c_pqr_special",
    "c_pqr_quadrature",
    "kappa_special",
    "kappa_general",
    "kappa_from_functional",
    "k_functional_direct",
]

_SQRT15 = math.sqrt(15.0)
_EXP_MAX = 700.0  # log of the largest comfortably representable double
_LOG_HUGE = 709.0  # beyond this, exp() overflows; saturate reported c to inf
_KAPPA_NOISE_MAX = 1e-9  # largest kappa shift that rounding may cause
_K_GAP_FLOOR = 1e-11  # absolute floor of k_functional_direct's half-grid test
_trapz = getattr(np, "trapezoid", None) or np.trapz


def _exp_or_inf(log_value: float) -> float:
    """exp(log_value), saturating to inf instead of raising OverflowError."""
    return math.exp(log_value) if log_value < _LOG_HUGE else math.inf


class InvalidR(ValueError):
    """Mollifier shape parameter r out of range (needs r > 0)."""


class NonPositiveArgument(ArithmeticError):
    """The logarithm argument of the kappa map is <= 0 (never clamped)."""


class IllConditioned(ArithmeticError):
    """Rounding in the general-mode assembly could move kappa by more than
    1e-9: large phi_c, phi_c > 2 with large R, or phi_c near k + 1/2."""


class GridTooCoarse(RuntimeError):
    """Profile grid too coarse for a trustworthy functional value."""


# ---------------------------------------------------------------------------
# mollifier moments


def _sinh_moments(r: float) -> Tuple[float, float]:
    """(B, C) for P_r(x) = sinh(r x)/sinh(r).

    Closed forms B = (sinh 2r - 2r) / (4 r sinh^2 r) and
    C = r (sinh 2r + 2r) / (4 sinh^2 r); below r = 0.01 the B numerator
    cancels catastrophically, so the even Taylor expansions take over
    (error O(r^6) < 1e-15 at the crossover).
    """
    if r < 0.01:
        r2 = r * r
        B = 1.0 / 3.0 - (2.0 / 45.0) * r2 + (2.0 / 315.0) * r2 * r2
        C = 1.0 + r2 * r2 / 45.0
        return B, C
    sh = math.sinh(r)
    s2 = math.sinh(2.0 * r)
    B = (s2 - 2.0 * r) / (4.0 * r * sh * sh)
    C = r * (s2 + 2.0 * r) / (4.0 * sh * sh)
    return B, C


@dataclass(frozen=True)
class MollifierSpec:
    """Mollifier shape tag with its square moments B = int P^2, C = int P'^2.

    Construct through the factories: ``linear()`` (P(x) = x),
    ``sinh_shape(r)`` (P_r(x) = sinh(rx)/sinh(r)), or ``custom(B, C)`` for
    caller-supplied moments of any admissible P with P(0) = 0, P(1) = 1.
    """

    kind: str
    B: float
    C: float
    r: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "sinh", "custom"):
            raise ValueError(f"unknown mollifier kind {self.kind!r}")
        if not (self.B > 0.0 and self.C > 0.0):
            raise ValueError(f"moments must be positive, got B={self.B}, C={self.C}")
        if self.kind == "sinh" and not (self.r is not None and self.r > 0.0):
            raise InvalidR(f"sinh mollifier needs r > 0, got {self.r}")

    @classmethod
    def linear(cls) -> "MollifierSpec":
        return cls(kind="linear", B=1.0 / 3.0, C=1.0)

    @classmethod
    def sinh_shape(cls, r: float) -> "MollifierSpec":
        if not r > 0.0:
            raise InvalidR(f"sinh mollifier needs r > 0, got {r}")
        B, C = _sinh_moments(float(r))
        return cls(kind="sinh", B=B, C=C, r=float(r))

    @classmethod
    def custom(cls, B: float, C: float) -> "MollifierSpec":
        return cls(kind="custom", B=float(B), C=float(C))

    @property
    def tag(self) -> str:
        """Stable text tag for table output."""
        if self.kind == "sinh":
            return f"sinh:{self.r:g}"
        return self.kind


def equal_weight_R(theta: float, spec: MollifierSpec) -> float:
    """The R that balances the two functional weights, c0 = c1.

    Solving C/theta - theta B R^2 = 4 theta B R^2 gives
    R = sqrt(C / (5 B)) / theta; the linear mollifier reduces it to
    sqrt(3/5)/theta, the distinguished mode where c = -1.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    return math.sqrt(spec.C / (5.0 * spec.B)) / theta


# ---------------------------------------------------------------------------
# kappa records and the special (equal-weight) mode


@dataclass(frozen=True)
class KappaResult:
    """One evaluated bound: kappa = 1 - log(c_pqr)/R at the given point.

    ``c_pqr`` saturates to inf when log c exceeds 709 (R beyond ~700);
    ``kappa`` itself is computed from the factored logarithm and stays
    exact there.
    """

    theta: float
    R: float
    c_pqr: float
    kappa: float
    beta: float
    mode_tag: str

    def __post_init__(self) -> None:
        if self.mode_tag not in ("special", "general"):
            raise ValueError(f"unknown mode_tag {self.mode_tag!r}")
        if not self.c_pqr > 0.0:
            raise ValueError(f"c_pqr must be positive, got {self.c_pqr}")


def _special_scaled_c(theta: float) -> Tuple[ModeParams, float]:
    """(mode, G) with G = c(P,Q,R) e^{-R}, assembled from O(1) pieces."""
    mode = make_mode_special(theta)
    R = mode.R
    sp0 = s_prime_zero(mode)
    tail = exp_weighted_integral(mode)
    bracket = -math.expm1(-R) - sp0 - tail
    G = math.exp(-R) * (0.5 - 1.0 / _SQRT15) + (2.0 / _SQRT15) * bracket
    if not G > 0.0:
        raise NonPositiveArgument(
            f"scaled moment constant {G} <= 0 at theta={theta}"
        )
    return mode, G


def c_pqr_special(theta: float) -> float:
    """Equal-weight moment constant
    c = 1/2 + (-1 + 2 e^R (1 - e^{-R} - S'(0) - int_0^R e^{-t} S dt)) / sqrt(15).

    Evaluated as e^R times an O(1) scaled constant, so the R-dependence
    enters once; overflows to inf only when c itself is not representable.
    """
    mode, G = _special_scaled_c(theta)
    return _exp_or_inf(mode.R + math.log(G))


def kappa_special(theta: float) -> KappaResult:
    """The bound at the equal-weight point R = sqrt(3/5)/theta, beta = 1:
    kappa = 1 - log(c)/R = -log(c e^{-R})/R.
    """
    mode, G = _special_scaled_c(theta)
    kappa = -math.log(G) / mode.R
    return KappaResult(
        theta=theta,
        R=mode.R,
        c_pqr=_exp_or_inf(mode.R + math.log(G)),
        kappa=kappa,
        beta=1.0,
        mode_tag="special",
    )


# ---------------------------------------------------------------------------
# general mode


def kappa_general(
    theta: float,
    R: float,
    beta: float,
    spec: Optional[MollifierSpec] = None,
) -> KappaResult:
    """The bound for free R, beta and mollifier moments:

        kappa = 1 - (1/R) log( (1 + e^{2R}(beta-1)^2)/2
                               + c1 (e^R/2R)(e^R (1-beta)^2 - e^{-R})/2
                               + (e^R/2R) K(S) ),

    with the closed-form functional value K(S).  The argument is grouped
    by exponential scale (D0 + e^R D1 + e^{2R} D2) and the dominant factor
    is taken out of the logarithm when e^{2R} would overflow, so the bound
    is computed accurately for R well beyond 350.  A non-positive argument
    raises NonPositiveArgument rather than being clamped; an argument whose
    rounding could move kappa by more than 1e-9 raises IllConditioned
    first.
    """
    spec = spec or MollifierSpec.linear()
    mode = make_mode_general(theta, R, beta, spec.B, spec.C)
    c0, c1 = mode.c0, mode.c1
    sp0 = s_prime_zero(mode)
    tail = exp_weighted_integral(mode)

    # e^R-scale coefficient: everything in K(S) except the cosh R term
    D1 = (c0 * beta * beta * (-math.expm1(-R)) - c1 * beta * sp0 - c0 * beta * tail) / (
        2.0 * R
    )
    bm1 = beta - 1.0
    if bm1 != 0.0:
        spR = s_prime(R, mode)
        # (e^R/2R) 2 (beta-1) c1 S'(R) cosh R splits into e^{2R} and e^0 parts
        cross = bm1 * c1 * spR / (2.0 * R)
    else:
        cross = 0.0
    D2 = bm1 * bm1 * (0.5 + c1 / (4.0 * R)) + cross
    D0 = 0.5 - c1 / (4.0 * R) + cross

    # the argument as e^{m R} G, with the dominant exponential factored out
    if 2.0 * R < _EXP_MAX:
        m, G = 0, D0 + math.exp(R) * D1 + math.exp(2.0 * R) * D2
    elif bm1 == 0.0:
        m, G = 1, D1 + math.exp(-R) * D0
    else:
        m, G = 2, D2 + math.exp(-R) * D1 + math.exp(-2.0 * R) * D0
    # the tail's rounding enters D1 as c0 beta dT / 2R, and kappa as
    # e^{(1 - m) R} times that over G R
    d_tail = 4.0 * _weighted_noise_floor(mode)
    d_log = math.exp((1 - m) * R) * abs(c0 * beta) * d_tail / (2.0 * R)
    d_kappa = d_log / (abs(G) * R) if G != 0.0 else math.inf
    # near phi_c = k + 1/2 the components themselves lose digits
    d_kappa += _connection_noise(mode)
    if not d_kappa <= _KAPPA_NOISE_MAX:
        raise IllConditioned(
            f"rounding could move kappa by {d_kappa:.1e} at theta={theta}, "
            f"R={R}, beta={beta} (phi_c={mode.phi_c:.4g})"
        )
    if not G > 0.0:
        scale = ("", "e^R * ", "e^{2R} * ")[m]
        raise NonPositiveArgument(f"kappa log argument {scale}{G} <= 0")
    log_arg = m * R + math.log(G)
    c_pqr = G if m == 0 else _exp_or_inf(log_arg)

    return KappaResult(
        theta=theta,
        R=R,
        c_pqr=c_pqr,
        kappa=1.0 - log_arg / R,
        beta=beta,
        mode_tag="general",
    )


def kappa_from_functional(mode: ModeParams, k_value: float) -> KappaResult:
    """The bound from an externally supplied functional value K(S).

    Routes a directly integrated (or oracle-profile) K through the same
    log map as ``kappa_general``; intended for cross-checks at moderate R
    (the e^{2R} prefactor is formed literally here).
    """
    R, beta, c1 = mode.R, mode.beta, mode.c1
    bm1 = beta - 1.0
    arg = (
        0.5
        - c1 / (4.0 * R)
        + math.exp(2.0 * R) * bm1 * bm1 * (0.5 + c1 / (4.0 * R))
        + math.exp(R) * k_value / (2.0 * R)
    )
    if not arg > 0.0:
        raise NonPositiveArgument(f"kappa log argument {arg} <= 0")
    return KappaResult(
        theta=mode.theta,
        R=R,
        c_pqr=arg,
        kappa=1.0 - math.log(arg) / R,
        beta=beta,
        mode_tag="general",
    )


# ---------------------------------------------------------------------------
# direct-quadrature cross routes


def c_pqr_quadrature(mode: ModeParams) -> float:
    """Moment constant by direct quadrature of the defining functional,

        c = 1/2 + e^{2R}(beta-1)^2/2
            + int_0^1 [(C/theta) w^2 + theta B w'^2] dy,   w = e^{Ry} Q(y),

    independent of the S'(0) / int e^{-t} S closed form (only the profile
    S itself is shared).  The moments are recovered from the mode's
    functional weights: B = c1/(4 theta R^2), C = theta c0 + c1/4.  The
    unit-interval route forms e^{2Ry} literally, so it is a moderate-R
    instrument (R below ~350); the closed form is the production path.
    """
    theta, R, beta = mode.theta, mode.R, mode.beta
    B = mode.c1 / (4.0 * theta * R * R)
    C = theta * (mode.c0 + mode.c1 / 4.0)

    def integrand(ys: np.ndarray) -> np.ndarray:
        Q, Qp = q_profile(ys, mode)
        grow = np.exp(R * np.asarray(ys, dtype=float))
        w = grow * Q
        wp = grow * (R * Q + Qp)
        return (C / theta) * w * w + theta * B * wp * wp

    # Q is C^2 but not C^3 across y = 1/2 (the reflection flips S'''), so
    # the halves are integrated separately
    left = integrate(integrand, 0.0, 0.5)
    right = integrate(integrand, 0.5, 1.0)
    bm1 = beta - 1.0
    return 0.5 + math.exp(2.0 * R) * bm1 * bm1 / 2.0 + left.value + right.value


# ---------------------------------------------------------------------------
# functional evaluation on discrete profiles


def _coarse_indices(n: int) -> np.ndarray:
    idx = np.arange(0, n, 2)
    return idx if idx[-1] == n - 1 else np.append(idx, n - 1)


def _k_p1(grid: np.ndarray, vals: np.ndarray, mode: ModeParams) -> float:
    """K on the piecewise-linear interpolant: constant slope per cell
    against the trapezoid of the 2 cosh(t) weight, node-trapezoid for the
    S^2 terms.  This is exactly the objective the discrete minimizer
    optimizes, so discrete optimality comparisons are exact in it.
    """
    dt = np.diff(grid)
    slope = np.diff(vals) / dt
    ch = np.cosh(grid)
    grad_part = mode.c1 * float(np.sum(slope * slope * dt * (ch[:-1] + ch[1:])))
    node = mode.c0 * (
        np.exp(grid) * vals * vals
        + np.exp(-grid) * (mode.beta - vals) ** 2
    )
    wts = np.empty_like(grid)
    wts[0] = dt[0] / 2.0
    wts[-1] = dt[-1] / 2.0
    wts[1:-1] = (dt[:-1] + dt[1:]) / 2.0
    return grad_part + float(np.sum(node * wts))


def _k_trapezoid(
    grid: np.ndarray, vals: np.ndarray, derivs: np.ndarray, mode: ModeParams
) -> float:
    d2 = derivs * derivs
    g = np.exp(grid) * (mode.c0 * vals * vals + mode.c1 * d2) + np.exp(-grid) * (
        mode.c0 * (mode.beta - vals) ** 2 + mode.c1 * d2
    )
    return float(_trapz(g, grid))


def k_functional_direct(
    profile, mode: ModeParams, refine_rel: float = 1e-4
) -> float:
    """K(S) integrated directly over a discrete profile.

    With derivative samples: node trapezoid of the full integrand, with
    the half-grid comparison Richardson-extrapolated into the result.
    Without them: the piecewise-linear form (see _k_p1), returned without
    extrapolation so it remains the discrete minimizer's exact objective.

    The half-grid disagreement gauges the discretization error; when it
    exceeds refine_rel relatively (floor 1e-11 absolute), the grid cannot
    support the ~1e-5 cross-checks this evaluator exists for and
    GridTooCoarse is raised instead of returning a misleading value.

    Boundary admissibility (S(0) = beta/2, S(R) = beta - 1, both to
    1e-12 absolute) is a precondition; violating profiles are rejected.
    """
    grid = np.asarray(profile.grid, dtype=float)
    vals = np.asarray(profile.values, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or grid.size != vals.size:
        raise ValueError("profile needs matching 1-D grid/values, >= 3 points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("profile grid must be strictly increasing")
    if abs(grid[0]) > 1e-12 or abs(grid[-1] - mode.R) > 1e-9:
        raise ValueError(
            f"profile must cover [0, R={mode.R}], got [{grid[0]}, {grid[-1]}]"
        )
    beta = mode.beta
    if abs(vals[0] - beta / 2.0) > 1e-12 or abs(vals[-1] - (beta - 1.0)) > 1e-12:
        raise ValueError(
            "profile is not admissible: boundary values must be "
            f"S(0) = {beta / 2.0} and S(R) = {beta - 1.0}"
        )
    derivs = getattr(profile, "derivs", None)
    idx = _coarse_indices(grid.size)
    if derivs is None:
        k_fine = _k_p1(grid, vals, mode)
        k_half = _k_p1(grid[idx], vals[idx], mode)
        extrapolate = False
    else:
        der = np.asarray(derivs, dtype=float)
        if der.shape != vals.shape:
            raise ValueError("derivs must match values in shape")
        k_fine = _k_trapezoid(grid, vals, der, mode)
        k_half = _k_trapezoid(grid[idx], vals[idx], der[idx], mode)
        extrapolate = True
    gap = abs(k_fine - k_half)
    if gap > max(refine_rel * abs(k_fine), _K_GAP_FLOOR):
        raise GridTooCoarse(
            f"half-grid disagreement {gap:.3e} exceeds "
            f"{refine_rel:.1e} of |K| = {abs(k_fine):.6e}"
        )
    if extrapolate:
        return k_fine + (k_fine - k_half) / 3.0
    return k_fine
