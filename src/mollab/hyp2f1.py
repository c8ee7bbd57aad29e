"""Real Gauss hypergeometric evaluation for strongly negative arguments.

Three regimes, dispatched on z:

* |z| <= 0.75: defining power series (term recurrence, no Gamma).
* 0.75 < |z| < 1, z < 0: Pfaff map w = z/(z-1) in (0, 1/2), then the
  series in w.
* z <= -1, parameterized z = -exp(2t) with t >= 0: two-branch connection
  formula.  Each branch's inner sum is itself Pfaff-mapped so its argument
  is 1/(1+exp(2t)) in (0, 1/2]; this keeps a geometric ratio <= 1/2 on the
  whole range (the raw inner sums in powers of exp(-2t) degenerate to a
  conditionally convergent alternating series as z -> -1 whenever
  c = a + b, which is the case for every parameter triple used here).

The connection prefactors Gamma(c)Gamma(b-a)/(Gamma(b)Gamma(c-a)) and the
a<->b mirror are assembled from log-gamma values with explicit sign
tracking; series coefficients always come from the ratio recurrence so no
Gamma is ever formed at high order.

Every series is summed to a fixed term count N.  N comes from one scalar
pass of the stopping rule at the batch's largest-|z| point; the batch is
then summed by Horner's scheme, and the rule is checked again at every
point, with N growing while any point fails.  The rule: the last three
terms are each <= 1e-12 * |sum|, or below the rounding floor
eps * sum_n |term_n| where the sum cancels to about 0.  Past 400 terms the
series raises NonConvergence.  These three settings are fixed module
constants.

hyp2f1_neg takes an optional scale_exp sigma and returns
exp(sigma*t) * 2F1 with the exponential folded into each branch
separately, which is what downstream rescaled component assembly relies
on to avoid overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "HypArgs",
    "Pole",
    "InvalidC",
    "NonConvergence",
    "DegenerateParameters",
    "gamma_real",
    "log_gamma",
    "gamma_sign",
    "hyp2f1_series",
    "hyp2f1_pfaff",
    "hyp2f1_neg",
    "hyp2f1",
    "hyp2f1_deriv",
]

ArrayLike = Union[float, np.ndarray]


class Pole(ArithmeticError):
    """Gamma evaluated at a non-positive integer."""


class InvalidC(ValueError):
    """Lower parameter c is a non-positive integer, 2F1 undefined."""


class NonConvergence(RuntimeError):
    """Series failed to meet the stopping rule within max_terms."""


class DegenerateParameters(ValueError):
    """Parameter combination outside the supported generic case."""


@dataclass(frozen=True)
class HypArgs:
    a: float
    b: float
    c: float
    z: float


_REL_TOL = 1e-12  # series stopping rule, relative to the sum
_MAX_TERMS = 400  # series term cap
# |z| at which evaluation leaves the direct series for the transformed
# regimes; inside (0.5, 1) both sides keep a workable geometric ratio
_CROSSOVER_Z = 0.75
_EPS = float(np.finfo(float).eps)


def _is_nonpos_int(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def _is_int(x: float, tol: float = 1e-12) -> bool:
    return abs(x - round(x)) < tol


def gamma_real(s: float) -> float:
    """Gamma on the real line; raises Pole at 0, -1, -2, ..."""
    if _is_nonpos_int(s):
        raise Pole(f"gamma pole at s={s}")
    return math.gamma(s)


def log_gamma(s: float) -> float:
    """log|Gamma(s)|; raises Pole at the poles. Pair with gamma_sign."""
    if _is_nonpos_int(s):
        raise Pole(f"log-gamma pole at s={s}")
    return math.lgamma(s)


def gamma_sign(s: float) -> float:
    """Sign of Gamma(s) for non-pole real s."""
    if s > 0.0:
        return 1.0
    # Gamma alternates sign on the negative unit intervals
    return -1.0 if (math.floor(-s) % 2 == 0) else 1.0


def _gamma_ratio(num: Sequence[float], den: Sequence[float]) -> float:
    """prod Gamma(num) / prod Gamma(den) via log_gamma + sign tracking.

    A pole in a denominator factor makes the ratio exactly zero; a pole in
    a numerator factor is the caller's degeneracy to reject beforehand.
    """
    for d in den:
        if _is_nonpos_int(d):
            return 0.0
    lg = 0.0
    sign = 1.0
    for s in num:
        lg += log_gamma(s)
        sign *= gamma_sign(s)
    for s in den:
        lg -= log_gamma(s)
        sign *= gamma_sign(s)
    return sign * math.exp(lg)


def _series_sum(
    a: float, b: float, c: float, z: np.ndarray, max_terms: int = _MAX_TERMS
) -> np.ndarray:
    """sum_n (a)_n (b)_n / ((c)_n n!) z^n at every point of z, in three steps.

    1. Term count: one scalar pass of the stopping rule at the point of
       largest |z| (its signed value, so alternating series keep their
       count) picks N and the coefficients c_0..c_N from the ratio
       recurrence c_{n+1} = c_n (a+n)(b+n) / ((c+n)(n+1)).
    2. Sum: Horner's scheme over the N+1 coefficients at every point, two
       in-place ufunc calls per term.  A single point is the scalar pass's
       own point: it is summed in Python floats and needs no step 3.
    3. Check: the rule again at every point.  While any point fails, N
       doubles; past max_terms NonConvergence is raised.

    The stopping rule: the last three terms are each <= _REL_TOL * |sum|, or
    below the rounding floor eps * sum_n |term_n|.  The floor covers sums
    that cancel to about 0 (at such a point the relative test could only
    pass by terms underflowing).  z is not modified.
    """
    if _is_nonpos_int(c):
        raise InvalidC(f"lower parameter c={c} is a non-positive integer")
    if z.size == 0:
        return np.ones_like(z)

    def ratio(n: int) -> float:
        return ((a + n) * (b + n)) / ((c + n) * (n + 1.0))

    def failed() -> NonConvergence:
        return NonConvergence(
            f"series(a={a}, b={b}, c={c}) not converged in {max_terms} terms "
            f"(max |z| = {float(np.max(np.abs(z))):.3g})"
        )

    z_far = float(z.flat[np.argmax(np.abs(z))])
    coef = [1.0]
    term = total = abs_sum = 1.0
    streak = 0
    while streak < 3:
        n = len(coef) - 1
        if n == max_terms:
            raise failed()
        r = ratio(n)
        coef.append(coef[n] * r)
        term *= r * z_far
        total += term
        abs_sum += abs(term)
        small = abs(term) <= max(_REL_TOL * abs(total), _EPS * abs_sum)
        streak = streak + 1 if small else 0
    if z.size == 1:
        acc = 0.0
        for ck in reversed(coef):
            acc = acc * z_far + ck
        return np.full_like(z, acc)

    az = np.abs(z)
    while True:
        N = len(coef) - 1
        acc = np.full_like(z, coef[N])
        for k in range(N - 1, -1, -1):
            acc *= z
            acc += coef[k]
        power = az ** (N - 2)
        last = abs(coef[N - 2]) * power
        for k in (N - 1, N):
            power *= az
            np.maximum(last, abs(coef[k]) * power, out=last)
        bad = last > _REL_TOL * np.abs(acc)
        if bad.any():
            # rounding floor, only where the relative test failed
            az_bad = az[bad]
            floor = np.full_like(az_bad, abs(coef[N]))
            for k in range(N - 1, -1, -1):
                floor *= az_bad
                floor += abs(coef[k])
            bad[bad] = last[bad] > _EPS * floor
        if not bad.any():
            return acc
        if N == max_terms:
            raise failed()
        for n in range(N, min(2 * N, max_terms)):
            coef.append(coef[n] * ratio(n))


def _as_array(x: ArrayLike) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def hyp2f1_series(args: HypArgs) -> float:
    """Direct power series; requires |z| < 1."""
    if abs(args.z) >= 1.0:
        raise NonConvergence(f"direct series needs |z| < 1, got z={args.z}")
    z = np.array([args.z])
    return float(_series_sum(args.a, args.b, args.c, z)[0])


def hyp2f1_pfaff(args: HypArgs) -> float:
    """Pfaff transform (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)); requires z < 1/2."""
    a, b, c, z = args.a, args.b, args.c, args.z
    if z >= 0.5:
        raise NonConvergence(f"pfaff map needs z < 1/2, got z={z}")
    w = z / (z - 1.0)
    inner = _series_sum(a, c - b, c, np.array([w]))[0]
    return float((1.0 - z) ** (-a) * inner)


def hyp2f1_neg(
    a: float,
    b: float,
    c: float,
    t: ArrayLike,
    scale_exp: float = 0.0,
) -> ArrayLike:
    """exp(scale_exp*t) * 2F1(a, b; c; -exp(2t)) for t >= 0, vectorized.

    Connection form with Pfaff-mapped inner sums (zeta = 1/(1+exp(2t))):

        A exp((s-2a)t) (1+exp(-2t))^(-a) 2F1(a, c-b; a-b+1; zeta)
      + B exp((s-2b)t) (1+exp(-2t))^(-b) 2F1(b, c-a; b-a+1; zeta)

    with A = G(c)G(b-a)/(G(b)G(c-a)) and B its a<->b mirror.  The
    exponential prefactors absorb scale_exp branch by branch, so rescaled
    evaluations never form exp(scale_exp*t) on its own.

    Raises DegenerateParameters when b - a is an integer (the generic-case
    connection coefficients pole) and InvalidC when c is a non-positive
    integer.
    """
    if _is_nonpos_int(c):
        raise InvalidC(f"lower parameter c={c} is a non-positive integer")
    if _is_int(b - a):
        raise DegenerateParameters(
            f"b - a = {b - a} is an integer; generic connection formula pole"
        )
    ts, scalar = _as_array(t)
    if ts.size and float(np.min(ts)) < 0.0:
        raise ValueError("hyp2f1_neg requires t >= 0")

    A = _gamma_ratio([c, b - a], [b, c - a])
    B = _gamma_ratio([c, a - b], [a, c - b])

    em2t = np.exp(-2.0 * ts)
    zeta = em2t / (1.0 + em2t)
    sum_a = _series_sum(a, c - b, a - b + 1.0, zeta) if A != 0.0 else 0.0
    sum_b = _series_sum(b, c - a, b - a + 1.0, zeta) if B != 0.0 else 0.0
    base = 1.0 + em2t
    with np.errstate(over="ignore"):
        out = A * np.exp((scale_exp - 2.0 * a) * ts) * base ** (-a) * sum_a
        out = out + B * np.exp((scale_exp - 2.0 * b) * ts) * base ** (-b) * sum_b
    return float(out[0]) if scalar else out


def hyp2f1(args: HypArgs) -> float:
    """Regime-dispatched 2F1 on the real ray z < 1."""
    z = args.z
    if z != z:  # NaN
        raise ValueError("z is NaN")
    if z >= 1.0:
        raise ValueError(f"real-ray evaluation needs z < 1, got z={z}")
    if abs(z) <= _CROSSOVER_Z:
        return hyp2f1_series(args)
    if z > -1.0:
        if z > 0.0:
            # positive z close to 1 is outside this module's focus but the
            # Pfaff map still converges for z < 1/2; fall back to series
            return hyp2f1_series(args)
        return hyp2f1_pfaff(args)
    return float(hyp2f1_neg(args.a, args.b, args.c, 0.5 * math.log(-z)))


def hyp2f1_deriv(args: HypArgs) -> float:
    """d/dz 2F1(a,b;c;z) = (a b / c) 2F1(a+1, b+1; c+1; z)."""
    shifted = HypArgs(args.a + 1.0, args.b + 1.0, args.c + 1.0, args.z)
    return (args.a * args.b / args.c) * hyp2f1(shifted)
