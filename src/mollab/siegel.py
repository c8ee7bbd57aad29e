"""Unit-interval pullback of the optimizer and its step-function limit.

The closed-form minimizer lives on [0, R] as S(t).  Undoing the change of
variables q(y) = Q(y + 1/2), S(t) = q(t / 2R) maps it back to the unit
interval as Q_R(y) = S(2R (y - 1/2)), extended to y < 1/2 through the
reflection Q(y) + Q(1 - y) = beta (equivalently S(-t) = beta - S(t)), so
Q_R(0) = 1 and Q_R(1) = beta - 1 exactly.  As R grows at beta = 1, Q_R(y)
converges pointwise to the step function

    Q_inf(y) = 1 (y < 1/2),  1/2 (y = 1/2),  0 (y > 1/2),

and ``step_limit_scan`` exposes that convergence along an R sequence.

``asymptotic_constants`` pins the two closed-form large-t limits of the
raw hypergeometric branches at the equal-weight point c = -1,

    e^t F+(t)                   -> Gamma(1 + sqrt5/2) Gamma(sqrt5/2)
                                   / Gamma((1 + sqrt5)/2)^2  = 1.2427...,
    e^{-(sqrt5 - 1) t} F-(t)    -> csc(sqrt5 pi / 2)         = -2.75957...,

against their measured extractions at t = 30.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .hyp2f1 import gamma_real, hyp2f1_neg
from .varsol import SPECIAL_THETA_R, ModeParams, make_mode_special, s_profile

__all__ = [
    "q_profile",
    "q_value",
    "step_limit_scan",
    "asymptotic_constants",
]

_HALF = 0.5


def q_profile(ys, mode: ModeParams) -> Tuple[np.ndarray, np.ndarray]:
    """(Q_R(y), Q_R'(y)) on an array of y in [0, 1].

    For y >= 1/2 this is (S, 2R S') at t = 2R (y - 1/2); for y < 1/2 the
    reflection Q(y) = beta - S(2R (1/2 - y)) applies, whose derivative is
    again +2R S' at the mirrored abscissa (the reflection is odd around
    y = 1/2, its slope even).
    """
    arr = np.atleast_1d(np.asarray(ys, dtype=float))
    if arr.size and (float(np.min(arr)) < 0.0 or float(np.max(arr)) > 1.0):
        raise ValueError("q_profile requires y in [0, 1]")
    ts = 2.0 * mode.R * np.abs(arr - _HALF)
    S, Sp = s_profile(ts, mode)
    Q = np.where(arr >= _HALF, S, mode.beta - S)
    Qp = 2.0 * mode.R * Sp
    return Q, Qp


def q_value(R_or_theta: float, y: float, as_theta: bool = False) -> float:
    """Q_R(y) for the equal-weight mode, y in [0, 1].

    The first argument is the interval radius R by default; pass
    ``as_theta=True`` to give the mollifier length exponent instead
    (the two are tied by theta R = sqrt(3/5) in this mode).
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y must lie in [0, 1], got {y}")
    if not R_or_theta > 0.0:
        raise ValueError(f"R_or_theta must be positive, got {R_or_theta}")
    theta = R_or_theta if as_theta else SPECIAL_THETA_R / R_or_theta
    mode = make_mode_special(theta)
    Q, _ = q_profile(np.array([y]), mode)
    return float(Q[0])


def step_limit_scan(y0: float, R_list: Sequence[float]) -> List[float]:
    """Q_R(y0) along an increasing R sequence, for y0 in (1/2, 1].

    The caller inspects the decay toward the step value 0; by reflection
    the y0 < 1/2 behaviour (convergence to 1) is the mirror image.
    """
    if not _HALF < y0 <= 1.0:
        raise ValueError(f"y0 must lie in (1/2, 1], got {y0}")
    rl = [float(r) for r in R_list]
    if any(b <= a for a, b in zip(rl, rl[1:])):
        raise ValueError("R_list must be strictly increasing")
    if rl and rl[0] <= 0.0:
        raise ValueError("R values must be positive")
    return [q_value(r, y0) for r in rl]


def asymptotic_constants() -> Dict[str, float]:
    """Closed-form large-t constants and their t = 30 measurements.

    Returns a map with the Gamma-ratio limit of e^t F+(t), the cosecant
    limit of e^{-(sqrt5 - 1) t} F-(t), and the two values extracted from
    the actual evaluator at t = 30.
    """
    sqrt5 = math.sqrt(5.0)
    phi = (1.0 + sqrt5) / 2.0
    mu = 1.0 - phi
    t_ref = 30.0
    gamma_ratio = (
        gamma_real(1.0 + sqrt5 / 2.0)
        * gamma_real(sqrt5 / 2.0)
        / gamma_real(phi) ** 2
    )
    cosecant = 1.0 / math.sin(sqrt5 * math.pi / 2.0)
    plus_measured = float(
        hyp2f1_neg(_HALF, phi, _HALF + phi, t_ref, scale_exp=1.0)
    )
    minus_measured = float(
        hyp2f1_neg(_HALF, mu, _HALF + mu, t_ref, scale_exp=-(sqrt5 - 1.0))
    )
    return {
        "gamma_ratio_closed": gamma_ratio,
        "gamma_ratio_measured": plus_measured,
        "cosecant_closed": cosecant,
        "cosecant_measured": minus_measured,
    }
