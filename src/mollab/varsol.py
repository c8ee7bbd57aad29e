"""Closed-form minimizer profiles for the exponentially weighted functional.

The half-interval reduction of the mollified-moment functional leads, for a
mode (R, theta, beta, c0, c1), to the Euler--Lagrange boundary value problem

    S'' + tanh(t) S' + c S = c beta / (1 + e^{2t}),   0 <= t <= R,
    S(0) = beta / 2,   S(R) = beta - 1,       c = -c0/c1 < 1/4.

Its solution is assembled by variation of parameters from two homogeneous
solutions built out of Gauss hypergeometric functions.  With
phi_c = (1 + sqrt(1 - 4c))/2 and mu = c/phi_c = 1 - phi_c:

    g1(t) = e^{mu t}    2F1(1/2, mu;     1/2 + mu;    -e^{2t})
    g2(t) = e^{phi_c t} 2F1(1/2, phi_c;  1/2 + phi_c; -e^{2t})
    f  = g1 - (g1(0)/g2(0)) g2          (homogeneous, f(0) = 0)
    g0 = g2 / (2 g2(0))                 (homogeneous, g0(0) = 1/2)
    v1 = g2 / (W (1+e^{2u})),  v2 = -g1 / (W (1+e^{2u}))
    w_i(t) = int_0^t v_i(u) du
    S(t) = C1 f(t) + beta g0(t) - c beta (g1(t) w1(t) + g2(t) w2(t))

with W the Wronskian of (g1, g2) and C1 fixed by S(R) = beta - 1.  Both g's
grow like e^{(phi_c - 1) t}, so the C1 ratio is formed from components
rescaled by e^{-(phi_c - 1) R}; the rescaling rides inside the branch-wise
scaled hypergeometric evaluator and never forms the large exponential alone.

W is evaluated once per mode at u = 0 from the product formula
e^u (2 phi_c Fm F1p - Fp F1m) -- perfectly conditioned there -- and
transported along the interval by the Abel identity W(u) = W(0)/cosh(u)
(the product difference itself loses ~e^{sqrt(1-4c) u} digits to
cancellation, so it is kept for diagnostics, not for the v-kernels).

The w-integrals are evaluated from per-mode cached anchor values on a fixed
grid (step 1/2, one 12-point Gauss cell each) plus a fixed-order partial
cell, which makes w(t) -- and hence S(t) -- a smooth function of t up to
rounding.  Finite-difference consumers (the ODE-residual check) evaluate
whole stencils with a shared anchor so that even the rounding is correlated
and cancels in second differences.

The Abel transport also cancels the (1 + e^{2u}) factor of the kernels:
v1 = e^{-u} g2 / (2 W(0)) and v2 = -e^{-u} g1 / (2 W(0)).  So e^{-t} times
each homogeneous piece of S is a kernel, and int_0^R e^{-t} S dt, the
integral kappa needs, is a closed form in w1(R), w2(R) and one more
anchored integral, int_0^R v1 w2 du (see exp_weighted_integral).  No
adaptive quadrature runs on that path; ``component_exp_integrals`` keeps it
as the independent cross-route.

Accuracy note: S(t) pointwise is a difference of terms of size
~e^{(phi_c-1)t}, so its absolute rounding floor grows like
eps * e^{(phi_c-1)t} (about 1e-9 near t = 22, 1e-6 near t = 34 in the
c = -1 mode).  Exponentially weighted integrals of S keep full precision at
any R when phi_c < 2, because the weight kills exactly that growth; above
2 their floor grows like e^{2 (phi_c - 2) R} (``_weighted_noise_floor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .hyp2f1 import (
    DegenerateParameters,
    HypArgs,
    _as_array,
    hyp2f1_deriv,
    hyp2f1_neg,
)
from .quad import QuadConfig, integrate

__all__ = [
    "ModeParams",
    "ComponentValues",
    "BoundaryDegeneracy",
    "WronskianVanished",
    "SPECIAL_THETA_R",
    "make_mode_special",
    "make_mode_general",
    "components_at",
    "v_integrands",
    "w_integrals",
    "c1_constant",
    "s_value",
    "s_prime",
    "s_profile",
    "s_on_stencil",
    "s_prime_zero",
    "exp_weighted_integral",
    "component_exp_integrals",
    "ode_residual_max",
]

ArrayLike = Union[float, np.ndarray]

#: theta * R in the equal-weight (special) mode: c0 = c1 <=> theta R = sqrt(3/5)
SPECIAL_THETA_R = math.sqrt(3.0 / 5.0)

_A = 0.5  # first hypergeometric parameter shared by every component

_W_DELTA = 0.5  # anchor spacing for cached w-integrals
_PROFILE_BLOCK = 1024  # output points per s_profile block
_GAUSS_X, _GAUSS_W = leggauss(12)


def _gauss_integration_matrix() -> np.ndarray:
    """M[i, j] = int_{-1}^{x_i} l_j(x) dx for the Lagrange basis l_j on the
    Gauss nodes x_j, so M @ f gives the running integral of the degree-11
    interpolant of f at every node (spectral integration)."""
    n = _GAUSS_X.size
    m = np.arange(1, n)
    P = legvander(_GAUSS_X, n)  # P_0 .. P_n at the nodes
    # l_j = sum_m (m + 1/2) w_j P_m(x_j) P_m, exact by Gauss orthogonality
    coef = (P[:, :n] * _GAUSS_W[:, None]).T * (np.arange(n) + 0.5)[:, None]
    # int_{-1}^x P_m = (P_{m+1} - P_{m-1}) / (2m + 1) for m >= 1
    running = np.empty((n, n))
    running[:, 0] = _GAUSS_X + 1.0
    running[:, 1:] = (P[:, m + 1] - P[:, m - 1]) / (2 * m + 1)
    return running @ coef


_GAUSS_INT = _gauss_integration_matrix()


class BoundaryDegeneracy(ArithmeticError):
    """f(R) (the C1 denominator) vanished; interval endpoint degenerate."""


class WronskianVanished(ArithmeticError):
    """Wronskian of the homogeneous pair numerically zero at u = 0."""


@dataclass(frozen=True)
class ModeParams:
    """Parameters of one variational mode.

    R: half-interval length (> 0).
    theta: mollifier-length exponent the mode was built from (> 0).
    beta: boundary weight; the symmetric case is beta = 1.
    c: ODE coefficient, c = -c0/c1 < 1/4.
    c0: weight of S^2 in the functional; it may be negative.  The
        functional is strictly convex all the same whenever c < 1/4 (the
        second variation is at least (c0 + c1/4) int 2 cosh(t) dS^2), so
        the closed-form profile is its unique minimizer.
    c1: weight of S'^2 in the functional (> 0).
    phi_c: exponent root (1 + sqrt(1 - 4c))/2.
    """

    R: float
    theta: float
    beta: float
    c: float
    c0: float
    c1: float
    phi_c: float

    def __post_init__(self) -> None:
        if not self.R > 0.0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.c < 0.25:
            raise DegenerateParameters(
                f"need c < 1/4 for a real exponent pair, got c={self.c}"
            )
        if not self.c1 > 0.0:
            raise ValueError(f"c1 must be positive, got {self.c1}")

    @property
    def mu(self) -> float:
        """Second exponent root, mu = c / phi_c = 1 - phi_c."""
        return self.c / self.phi_c


@dataclass
class ComponentValues:
    """Raw component evaluations at one t (or a vector of t's)."""

    Fp: ArrayLike
    Fm: ArrayLike
    F1p: ArrayLike
    F1m: ArrayLike
    g1: ArrayLike
    g2: ArrayLike
    f: ArrayLike
    g0: ArrayLike
    W: ArrayLike


def make_mode_special(theta: float) -> ModeParams:
    """Equal-weight mode: theta R = sqrt(3/5), c0 = c1 = 4/(5 theta), c = -1.

    This is the distinguished point where the two functional weights agree
    and the closed form collapses to the golden-ratio exponent pair.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    R = SPECIAL_THETA_R / theta
    w = 4.0 / (5.0 * theta)
    return ModeParams(
        R=R,
        theta=theta,
        beta=1.0,
        c=-1.0,
        c0=w,
        c1=w,
        phi_c=0.5 * (1.0 + math.sqrt(5.0)),
    )


def make_mode_general(
    theta: float,
    R: float,
    beta: float,
    B: float = 1.0 / 3.0,
    C: float = 1.0,
) -> ModeParams:
    """General mode from mollifier moments B = int P^2, C = int P'^2.

    c0 = C/theta - theta B R^2 and c1 = 4 theta B R^2, so
    c = -c0/c1 = 1/4 - C/(4 B theta^2 R^2) < 1/4 automatically for positive
    inputs.  c0 is negative once theta R > sqrt(C/B); the mode is still a
    convex minimization (see ModeParams).  The isolated
    parameter point c = -3/4 makes the hypergeometric connection formula
    degenerate and raises DegenerateParameters on first evaluation.
    """
    if not theta > 0.0 or not R > 0.0:
        raise ValueError("theta and R must be positive")
    if not B > 0.0 or not C > 0.0:
        raise ValueError("moments B, C must be positive")
    c0 = C / theta - theta * B * R * R
    c1 = 4.0 * theta * B * R * R
    c = -c0 / c1
    return ModeParams(
        R=R,
        theta=theta,
        beta=float(beta),
        c=c,
        c0=c0,
        c1=c1,
        phi_c=0.5 * (1.0 + math.sqrt(1.0 - 4.0 * c)),
    )


# ---------------------------------------------------------------------------
# component evaluation


def _core(
    ts: np.ndarray,
    mode: ModeParams,
    scale: float,
    with_prime: bool = False,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """(g1, g2, g1', g2') at ts, all times e^{-scale*t}; the derivatives are
    None unless with_prime.

    Derivatives come from the parameter-shift contiguous relations

        g2' = e^{phi t} phi (2 F1p - Fp),
        g1' = e^{mu t} ((mu - 1) Fm + F1m),

    which cost two more hypergeometric evaluations, F1p and F1m (no finite
    differences), so they are made only when asked for.
    """
    phi = mode.phi_c
    mu = mode.mu
    g2s = hyp2f1_neg(_A, phi, _A + phi, ts, scale_exp=phi - scale)
    g1s = hyp2f1_neg(_A, mu, _A + mu, ts, scale_exp=mu - scale)
    if not with_prime:
        return g1s, g2s, None, None
    f1ps = hyp2f1_neg(_A, 1.0 + phi, _A + phi, ts, scale_exp=phi - scale)
    f1ms = hyp2f1_neg(1.5, mu, _A + mu, ts, scale_exp=mu - scale)
    g2ps = phi * (2.0 * f1ps - g2s)
    g1ps = (mu - 1.0) * g1s + f1ms
    return g1s, g2s, g1ps, g2ps


@lru_cache(maxsize=128)
def _zero_state(mode: ModeParams) -> dict:
    """Per-mode constants anchored at t = 0.

    Derivatives at 0 go through the generic hyp2f1_deriv contiguous shift
    (z-derivative times dz/dt = -2 at t = 0); a test pins them against the
    parameter-shift route used along the interval.
    """
    phi = mode.phi_c
    mu = mode.mu
    fp0_ = float(hyp2f1_neg(_A, phi, _A + phi, 0.0))
    fm0_ = float(hyp2f1_neg(_A, mu, _A + mu, 0.0))
    f1p0 = float(hyp2f1_neg(_A, 1.0 + phi, _A + phi, 0.0))
    f1m0 = float(hyp2f1_neg(1.5, mu, _A + mu, 0.0))
    g10, g20 = fm0_, fp0_
    if g20 == 0.0:
        raise BoundaryDegeneracy("g2(0) = 0; cannot normalize g0")
    rho = g10 / g20

    dFp0 = -2.0 * hyp2f1_deriv(HypArgs(_A, phi, _A + phi, -1.0))
    dFm0 = -2.0 * hyp2f1_deriv(HypArgs(_A, mu, _A + mu, -1.0))
    g2p0 = phi * g20 + dFp0
    g1p0 = mu * g10 + dFm0

    w0 = 2.0 * phi * fm0_ * f1p0 - fp0_ * f1m0
    if abs(w0) < 1e-10 * (abs(2.0 * phi * fm0_ * f1p0) + abs(fp0_ * f1m0) + 1e-300):
        raise WronskianVanished(f"W(0) = {w0} numerically zero")

    return {
        "g10": g10,
        "g20": g20,
        "rho": rho,
        "g1p0": g1p0,
        "g2p0": g2p0,
        "f0": g10 - rho * g20,
        "fp0": g1p0 - rho * g2p0,
        "g0p0": g2p0 / (2.0 * g20),
        "W0": w0,
        "v10": g20 / (w0 * 2.0),
        "v20": -g10 / (w0 * 2.0),
    }


def components_at(t: ArrayLike, mode: ModeParams) -> ComponentValues:
    """All component values at t (scalar or vector), unscaled.

    W is the literal product-formula Wronskian
    e^t (2 phi_c Fm F1p - Fp F1m); it loses ~e^{sqrt(1-4c) t} digits to
    cancellation at large t (diagnostic use only -- the solution kernels
    transport W(0) by the Abel identity instead).
    """
    ts, scalar = _as_array(t)
    phi = mode.phi_c
    mu = mode.mu
    st = _zero_state(mode)
    Fp = hyp2f1_neg(_A, phi, _A + phi, ts)
    Fm = hyp2f1_neg(_A, mu, _A + mu, ts)
    F1p = hyp2f1_neg(_A, 1.0 + phi, _A + phi, ts)
    F1m = hyp2f1_neg(1.5, mu, _A + mu, ts)
    g1 = hyp2f1_neg(_A, mu, _A + mu, ts, scale_exp=mu)
    g2 = hyp2f1_neg(_A, phi, _A + phi, ts, scale_exp=phi)
    f = g1 - st["rho"] * g2
    g0 = g2 / (2.0 * st["g20"])
    with np.errstate(over="ignore"):
        W = np.exp(ts) * (2.0 * phi * Fm * F1p - Fp * F1m)

    def out(x: np.ndarray) -> ArrayLike:
        return float(x[0]) if scalar else x

    return ComponentValues(
        Fp=out(Fp), Fm=out(Fm), F1p=out(F1p), F1m=out(F1m),
        g1=out(g1), g2=out(g2), f=out(f), g0=out(g0), W=out(W),
    )


def _v_many(us: np.ndarray, mode: ModeParams) -> Tuple[np.ndarray, np.ndarray]:
    """Variation-of-parameters kernels v1, v2 at a vector of u >= 0."""
    st = _zero_state(mode)
    g1 = hyp2f1_neg(_A, mode.mu, _A + mode.mu, us, scale_exp=mode.mu)
    g2 = hyp2f1_neg(_A, mode.phi_c, _A + mode.phi_c, us, scale_exp=mode.phi_c)
    w_u = st["W0"] / np.cosh(us)
    denom = w_u * (1.0 + np.exp(2.0 * us))
    return g2 / denom, -g1 / denom


def v_integrands(u: ArrayLike, mode: ModeParams) -> Tuple[ArrayLike, ArrayLike]:
    """v1(u) = g2/(W (1+e^{2u})), v2(u) = -g1/(W (1+e^{2u}))."""
    us, scalar = _as_array(u)
    if us.size and float(np.min(us)) < 0.0:
        raise ValueError("v_integrands requires u >= 0")
    v1, v2 = _v_many(us, mode)
    if scalar:
        return float(v1[0]), float(v2[0])
    return v1, v2


# ---------------------------------------------------------------------------
# cached anchor integrals of v1, v2


@dataclass(frozen=True)
class _WCache:
    delta: float
    n_cells: int
    cum1: tuple
    cum2: tuple
    cumj: tuple  # int_0^{k delta} v1 w2 du


@lru_cache(maxsize=64)
def _w_cache(mode: ModeParams) -> _WCache:
    """Cumulative anchor values of w1, w2 on the fixed grid k * delta.

    The anchor grid extends to max(R, 66) but is cut once the kernels'
    e^{-(2 - phi_c) u} decay puts the remaining tail below 1e-14 (the cut
    is certified by the exponential tail bound; beyond it w is constant to
    working precision).  Each cell is one 12-point Gauss rule -- far below
    rounding error for these analytic kernels -- evaluated in a single
    batched call at build time.

    The same node values give the anchors of int_0^{k delta} v1 w2 du: w2
    at a node is its cell's anchor plus the running in-cell integral
    _GAUSS_INT @ v2.
    """
    rate = 2.0 - mode.phi_c
    u_need = max(mode.R, 66.0)
    if rate > 1e-9:
        u_decay = math.log(5.0 / (rate * 1e-14)) / rate
        u_cap = min(u_need, max(u_decay, 66.0))
    else:
        u_cap = u_need
    n_cells = int(math.ceil(u_cap / _W_DELTA))
    edges = _W_DELTA * np.arange(n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * _W_DELTA
    nodes = mids[:, None] + half * _GAUSS_X[None, :]
    v1, v2 = _v_many(nodes.ravel(), mode)
    cell1 = half * (v1.reshape(nodes.shape) @ _GAUSS_W)
    cell2 = half * (v2.reshape(nodes.shape) @ _GAUSS_W)
    cum1 = np.concatenate(([0.0], np.cumsum(cell1)))
    cum2 = np.concatenate(([0.0], np.cumsum(cell2)))
    # for large phi_c the far cells overflow; R never reaches them unless
    # kappa_general's conditioning guard refuses the mode anyway
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = cum2[:-1, None] + half * (v2.reshape(nodes.shape) @ _GAUSS_INT.T)
        cellj = half * ((v1.reshape(nodes.shape) * w2) @ _GAUSS_W)
    cumj = np.concatenate(([0.0], np.cumsum(cellj)))
    return _WCache(_W_DELTA, n_cells, tuple(cum1), tuple(cum2), tuple(cumj))


def _w_many(
    ts: np.ndarray, mode: ModeParams, shared_k: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """w1, w2 at ts >= 0: cached anchor value plus one partial Gauss cell.

    shared_k pins the anchor index per point (stencil evaluation): the
    partial cell may then run slightly backwards or past delta, which the
    signed affine Gauss map handles exactly.  Beyond the cached range the
    kernels are below rounding and w is the final anchor value.
    """
    cache = _w_cache(mode)
    delta, n_cells = cache.delta, cache.n_cells
    cum1 = np.asarray(cache.cum1)
    cum2 = np.asarray(cache.cum2)
    u_cap = n_cells * delta

    t_eff = np.minimum(ts, u_cap)
    if shared_k is None:
        k = np.minimum(np.floor(ts / delta).astype(np.int64), n_cells)
    else:
        k = np.minimum(shared_k, n_cells)
    base = k * delta
    mid = 0.5 * (base + t_eff)
    half = 0.5 * (t_eff - base)
    nodes = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    v1, v2 = _v_many(np.abs(nodes.ravel()), mode)
    part1 = half * (v1.reshape(nodes.shape) @ _GAUSS_W)
    part2 = half * (v2.reshape(nodes.shape) @ _GAUSS_W)
    return cum1[k] + part1, cum2[k] + part2


def w_integrals(t: ArrayLike, mode: ModeParams) -> Tuple[ArrayLike, ArrayLike]:
    """w_i(t) = int_0^t v_i(u) du for t >= 0 (scalar or vector)."""
    ts, scalar = _as_array(t)
    if ts.size and float(np.min(ts)) < 0.0:
        raise ValueError("w_integrals requires t >= 0")
    w1, w2 = _w_many(ts, mode)
    if scalar:
        return float(w1[0]), float(w2[0])
    return w1, w2


# ---------------------------------------------------------------------------
# C1 and the solution profile


@lru_cache(maxsize=128)
def _c1_state(mode: ModeParams) -> float:
    # components rescaled by e^{-(phi_c - 1) R}: numerator and denominator
    # are O(1) ratios of the same growth scale
    s = mode.phi_c - 1.0
    R = mode.R
    st = _zero_state(mode)
    ts = np.array([R])
    g1s, g2s, _, _ = _core(ts, mode, scale=s)
    w1R, w2R = _w_many(ts, mode)
    fs = float(g1s[0] - st["rho"] * g2s[0])
    g0s = float(g2s[0]) / (2.0 * st["g20"])
    sr = s * R
    if sr < -700.0:
        # phi_c < 1 (positive c) with R in the thousands: the rescaled
        # boundary term genuinely overflows; refuse rather than fake it
        raise OverflowError(f"boundary factor e^{{{-sr:.1f}}} overflows")
    scale_b = math.exp(-sr) if sr < 700.0 else 0.0
    num = (
        (mode.beta - 1.0) * scale_b
        - mode.beta * g0s
        + mode.c * mode.beta * (float(g1s[0]) * float(w1R[0]) + float(g2s[0]) * float(w2R[0]))
    )
    if abs(fs) < 1e-12 * (abs(float(g1s[0])) + abs(st["rho"] * float(g2s[0])) + 1e-300):
        raise BoundaryDegeneracy(f"f(R) vanishes at R={R} (rescaled value {fs})")
    return num / fs


def c1_constant(mode: ModeParams) -> float:
    """Boundary constant C1 with S(R) = beta - 1 enforced.

    Evaluated from exponentially rescaled components so it stays finite and
    fully conditioned for R in the hundreds; C1(R) tends to a finite limit
    (~0.674 in the equal-weight mode) as R grows.
    """
    return _c1_state(mode)


def _s_many(
    ts: np.ndarray,
    mode: ModeParams,
    shared_k: Optional[np.ndarray] = None,
    with_prime: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    # assembled in the e^{-(phi_c-1)t}-rescaled frame -- the same frame the
    # C1 ratio is formed in -- so the S(R) boundary cancellation happens
    # between O(1) quantities and the growth factor multiplies back last
    c1 = _c1_state(mode)
    st = _zero_state(mode)
    s = mode.phi_c - 1.0
    g1s, g2s, g1ps, g2ps = _core(ts, mode, scale=s, with_prime=with_prime)
    fs = g1s - st["rho"] * g2s
    g0s = g2s / (2.0 * st["g20"])
    w1, w2 = _w_many(ts, mode, shared_k=shared_k)
    cb = mode.c * mode.beta
    growth = np.exp(s * ts)
    S = growth * (c1 * fs + mode.beta * g0s - cb * (g1s * w1 + g2s * w2))
    if not with_prime:
        return S, None
    # d/dt of the w-product part also contains cb*(g1 v1 + g2 v2), which is
    # identically zero (g1 g2 - g2 g1 over the Wronskian denominator); it is
    # omitted rather than evaluated so the large-t branch cannot form inf*0.
    fps = g1ps - st["rho"] * g2ps
    g0ps = g2ps / (2.0 * st["g20"])
    Sp = growth * (c1 * fps + mode.beta * g0ps - cb * (g1ps * w1 + g2ps * w2))
    return S, Sp


def s_value(t: float, mode: ModeParams) -> float:
    """Closed-form S(t) on [0, R]."""
    ts, _ = _as_array(float(t))
    S, _ = _s_many(ts, mode)
    return float(S[0])


def s_prime(t: float, mode: ModeParams) -> float:
    """Closed-form S'(t) via the contiguous-shift component derivatives."""
    ts, _ = _as_array(float(t))
    _, Sp = _s_many(ts, mode, with_prime=True)
    return float(Sp[0])


def s_profile(ts: ArrayLike, mode: ModeParams) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized (S, S') over an array of t values.

    Evaluated in blocks of _PROFILE_BLOCK points, so the w-kernel
    temporaries (12 Gauss nodes per point) stay the same size however many
    points are asked for.  Points are computed independently; a block
    boundary only moves the series term counts, whose effect stays below
    the series tolerance.
    """
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    S = np.empty_like(arr)
    Sp = np.empty_like(arr)
    for lo in range(0, arr.size, _PROFILE_BLOCK):
        block = slice(lo, lo + _PROFILE_BLOCK)
        S[block], Sp[block] = _s_many(arr[block], mode, with_prime=True)
    return S, Sp


def s_on_stencil(
    ts: ArrayLike, h: float, mode: ModeParams
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S(t-h), S(t), S(t+h)) with one shared w-anchor per stencil.

    Sharing the anchor makes the three evaluations' rounding errors
    correlated, so central second differences see smooth noise instead of
    independent 1e-15 jumps amplified by 1/h^2.
    """
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if float(np.min(arr)) - h < 0.0:
        raise ValueError("stencil leaves [0, R] on the left")
    k = np.floor(arr / _W_DELTA).astype(np.int64)
    stacked = np.concatenate([arr - h, arr, arr + h])
    kk = np.concatenate([k, k, k])
    S, _ = _s_many(stacked, mode, shared_k=kk)
    n = arr.size
    return S[:n], S[n : 2 * n], S[2 * n :]


def s_prime_zero(mode: ModeParams) -> float:
    """S'(0) = C1 f'(0) + beta g0'(0) - c beta (g1(0) v1(0) + g2(0) v2(0)).

    The v-pair term vanishes identically (Wronskian cancellation) but is
    kept in literal form; derivatives at 0 come from the generic
    z-derivative contiguous shift.
    """
    st = _zero_state(mode)
    c1 = _c1_state(mode)
    vpair = st["g10"] * st["v10"] + st["g20"] * st["v20"]
    return (
        c1 * st["fp0"]
        + mode.beta * st["g0p0"]
        - mode.c * mode.beta * vpair
    )


def _weighted_noise_floor(mode: ModeParams) -> float:
    """Accumulated rounding noise of int_0^R e^{-t} * (S-like) dt.

    The homogeneous components evaluate with absolute error of order
    eps * e^{(phi_c - 1) t}, giving the weighted integrand an
    e^{(phi_c - 2) t} noise profile.  When phi_c > 2 the
    variation-of-parameters pieces g_k w_k compound it: the w-integrands
    themselves grow like e^{(phi_c - 2) u}, so their cancellation residue
    doubles the exponent.  Tolerances below the integrated envelope are
    unreachable and would only drive the adaptive splitter of the
    quadrature cross-route into its refinement budget; kappa_general
    carries the same envelope into kappa for its conditioning guard.
    """
    cancel = mode.phi_c - 2.0
    growth = cancel + max(cancel, 0.0)
    R = mode.R
    eps = float(np.finfo(float).eps)
    if abs(growth) * R < 1e-9:
        accumulated = R
    else:
        accumulated = math.expm1(growth * R) / growth
    return 32.0 * eps * max(accumulated, 1.0)


def _connection_noise(mode: ModeParams) -> float:
    """Relative rounding of g1, g2 near the degenerate points phi_c = k + 1/2.

    There b - a = phi_c - 1/2 sits a distance d from an integer k >= 1, and
    each branch of the connection formula carries a Gamma pole of size 1/d.
    d is known only to about eps * phi_c, so each branch is off by about
    eps phi_c / d^2 while the two cancel to O(1).  (At k = 1, 2 and offsets
    1e-8 to 1e-2 the resulting kappa error was 0.02-0.3 of eps / d^2.)
    """
    k = round(mode.phi_c - 0.5)
    if k < 1:
        return 0.0
    d = abs(mode.phi_c - 0.5 - k)
    # d > 0 here: hyp2f1_neg has already refused b - a within 1e-12 of k
    return float(np.finfo(float).eps) * mode.phi_c / (d * d)


def _floored_qcfg(mode: ModeParams) -> QuadConfig:
    """Default quadrature settings with abs_tol raised to the noise floor."""
    floor = 4.0 * _weighted_noise_floor(mode)
    return QuadConfig(abs_tol=max(QuadConfig().abs_tol, floor))


def exp_weighted_integral(mode: ModeParams) -> float:
    """int_0^R e^{-t} S(t) dt in closed form from the w-cache anchors.

    With e^{-t} g2 = 2 W0 v1, e^{-t} g1 = -2 W0 v2 and rho = g1(0)/g2(0),
    the component integrals of ``component_exp_integrals`` become

        I_f = -2 W0 (w2(R) + rho w1(R)),   I_g0 = W0 w1(R) / g2(0),
        I_g1w1 + I_g2w2 = 2 I_g2w2 - 2 W0 w1(R) w2(R),
        I_g2w2 = 2 W0 int_0^R v1 w2 du,

    and the last integral is the cached anchor at k delta <= R plus one
    partial 12-point cell [k delta, R], the only kernel evaluations made
    here.  R on a cell edge or past the certified tail cut needs none.
    """
    st = _zero_state(mode)
    cache = _w_cache(mode)
    c1 = _c1_state(mode)
    delta, n_cells = cache.delta, cache.n_cells
    # the anchor and partial cell exactly as _w_many takes them
    t_eff = min(mode.R, n_cells * delta)
    k = min(math.floor(mode.R / delta), n_cells)
    w1, w2, j = cache.cum1[k], cache.cum2[k], cache.cumj[k]
    base = k * delta
    half = 0.5 * (t_eff - base)
    if half != 0.0:
        nodes = 0.5 * (base + t_eff) + half * _GAUSS_X
        v1, v2 = _v_many(nodes, mode)
        w2_nodes = w2 + half * (_GAUSS_INT @ v2)
        j += half * ((v1 * w2_nodes) @ _GAUSS_W)
        w1 += half * (v1 @ _GAUSS_W)
        w2 += half * (v2 @ _GAUSS_W)
    w0 = st["W0"]
    i_f = -2.0 * w0 * (w2 + st["rho"] * w1)
    i_g0 = w0 * w1 / st["g20"]
    i_g2w2 = 2.0 * w0 * j
    cb = mode.c * mode.beta
    return float(c1 * i_f + mode.beta * i_g0 - cb * (2.0 * i_g2w2 - 2.0 * w0 * w1 * w2))


def component_exp_integrals(mode: ModeParams) -> dict:
    """The four integrals int_0^R e^{-t} {f, g0, g1 w1, g2 w2} dt.

    S is affine in C1 through these, which gives the cross-check
    int e^{-t} S = C1 * I_f + beta * I_g0 - c beta (I_g1w1 + I_g2w2).
    """
    qcfg = _floored_qcfg(mode)
    st = _zero_state(mode)

    def piece(which: str):
        def f(ts: np.ndarray) -> np.ndarray:
            g1, g2, _, _ = _core(ts, mode, scale=0.0)
            if which == "f":
                val = g1 - st["rho"] * g2
            elif which == "g0":
                val = g2 / (2.0 * st["g20"])
            else:
                w1, w2 = _w_many(ts, mode)
                val = g1 * w1 if which == "g1w1" else g2 * w2
            return np.exp(-ts) * val

        return integrate(f, 0.0, mode.R, qcfg).value

    return {key: piece(key) for key in ("f", "g0", "g1w1", "g2w2")}


def ode_residual_max(
    mode: ModeParams, n_grid: int = 200, h: float = 1e-3
) -> float:
    """Max |S'' + tanh(t) S' + c_eff (S - beta/(1+e^{2t}))| on an interior grid.

    Central differences with stencil-correlated evaluation; the ODE
    coefficient is rederived as c_eff = -c0/c1 from the functional weights,
    so an inconsistently tampered mode (c1 perturbed without updating c)
    fails this check -- that sensitivity is exercised deliberately by the
    verification command's fault-injection path.

    The default step balances the two error channels of a float64 second
    difference: truncation ~ |S''''| h^2 / 12 against rounding ~ 4 eps_S /
    h^2, where eps_S ~ 1e-16 * e^{(phi_c-1) t} is the evaluation floor of S.
    At h = 1e-3 both sit comfortably below 1e-6 for every R the checks use;
    pushing h down to 1e-4 puts the rounding term near 1e-5 by t ~ 5 and the
    residual becomes noise-dominated.
    """
    R = mode.R
    ts = np.linspace(0.0, R, n_grid + 2)[1:-1]
    ts = ts[(ts - h > 0.0) & (ts + h < R)]
    sm, s0, sp = s_on_stencil(ts, h, mode)
    c_eff = -mode.c0 / mode.c1
    em2t = np.exp(-2.0 * ts)
    sigma = em2t / (1.0 + em2t)
    resid = (
        (sp - 2.0 * s0 + sm) / (h * h)
        + np.tanh(ts) * (sp - sm) / (2.0 * h)
        + c_eff * (s0 - mode.beta * sigma)
    )
    return float(np.max(np.abs(resid)))
