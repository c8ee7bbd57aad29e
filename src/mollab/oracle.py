"""Brute-force verification of the closed-form profile.

Two independent numerical routes recompute the optimal profile S on
[0, R] without touching the hypergeometric machinery:

* ``bvp_solve`` discretizes the stationarity ODE

      S'' + tanh(t) S' + c S = c beta / (1 + e^{2t}),
      S(0) = beta/2,  S(R) = beta - 1,

  with second-order central differences on a uniform grid and solves the
  resulting tridiagonal system.

* ``discrete_minimize`` never looks at the ODE: it minimizes the
  trapezoid discretization of the quadratic functional

      K(S) = int_0^R 2 cosh(t) (c0 S^2 + c1 S'^2) dt
             - 2 c0 beta int_0^R e^{-t} S dt + c0 beta^2 (1 - e^{-R})

  over interior node values (piecewise-linear S, cell-slope S', every
  integral by the trapezoid rule).  Its normal equations form a
  symmetric tridiagonal system whose positive definiteness is checked
  pivot by pivot (the continuous form is convex whenever c < 1/4, c0 < 0
  included); they are a consistent discretization of the same ODE, so
  the two oracles corroborate rather than duplicate each other.

Both return a ``SolutionProfile``; ``compare_profiles`` measures sup/L2
discrepancies between profiles (and against sampled closed forms), and
``full_interval_functional`` rebuilds the symmetric extension
S(-t) = beta - S(t) to evaluate the full-interval weighted functional
int_{-R}^{R} e^t (c0 S^2 + c1 S'^2) dt, validating the half-interval
reduction used everywhere else.

This module deliberately imports nothing from the closed-form evaluator
beyond the parameter container, so its answers are independent evidence.
scipy is imported inside the two solvers, so ``import mollab`` skips it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .varsol import ModeParams

__all__ = [
    "SolutionProfile",
    "SingularSystem",
    "IndefiniteForm",
    "GridMismatch",
    "bvp_solve",
    "discrete_minimize",
    "compare_profiles",
    "full_interval_functional",
    "stencil_residuals",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz


class SingularSystem(RuntimeError):
    """The discrete linear system is singular (c sits at a discrete
    eigenvalue); reported, never regularized."""


class IndefiniteForm(RuntimeError):
    """The discrete quadratic form is not positive definite, so it has
    no minimizer; reported with the offending pivot."""


class GridMismatch(ValueError):
    """Profiles live on incompatible grids and cannot be compared."""


@dataclass(frozen=True, eq=False)
class SolutionProfile:
    """A sampled profile: values (and optionally derivatives) on an
    increasing grid 0 = t_0 < ... < t_n = R.

    Admissible profiles satisfy values[0] = beta/2 and
    values[-1] = beta - 1; that is checked by consumers that need it
    (the functional evaluators), not here, so that arbitrary diagnostic
    profiles can still be compared.
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 1:
            raise ValueError("grid and values must be one-dimensional")
        if grid.size != values.size:
            raise ValueError(
                f"grid ({grid.size}) and values ({values.size}) lengths differ"
            )
        if grid.size < 2:
            raise ValueError("a profile needs at least two nodes")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self.derivs is not None:
            derivs = np.asarray(self.derivs, dtype=float)
            if derivs.shape != grid.shape:
                raise ValueError("derivs must match the grid shape")
            object.__setattr__(self, "derivs", derivs)

    def differenced(self) -> "SolutionProfile":
        """A copy whose derivs are filled by second-order differencing."""
        derivs = np.gradient(self.values, self.grid, edge_order=2)
        return SolutionProfile(self.grid, self.values, derivs)


def _source(t: np.ndarray, mode: ModeParams) -> np.ndarray:
    # c*beta/(1 + e^{2t}) evaluated as e^{-2t}/(1 + e^{-2t}) so large t
    # underflows to 0 instead of overflowing.
    e = np.exp(-2.0 * t)
    return mode.c * mode.beta * e / (1.0 + e)


def bvp_solve(mode: ModeParams, n: int) -> SolutionProfile:
    """Finite-difference solution of the stationarity boundary-value
    problem on a uniform grid with ``n`` interior nodes (n >= 100).

    Second-order central differences; Dirichlet values beta/2 at 0 and
    beta - 1 at R; tridiagonal solve.  Raises SingularSystem when the
    discrete operator is (numerically) singular.
    """
    if n < 100:
        raise ValueError(f"bvp_solve needs n >= 100 interior nodes, got {n}")
    R, beta, c = mode.R, mode.beta, mode.c
    h = R / (n + 1)
    t = h * np.arange(1, n + 1)
    tang = np.tanh(t)
    inv_h2 = 1.0 / (h * h)
    sub = inv_h2 - tang / (2.0 * h)  # multiplies S_{i-1}
    sup = inv_h2 + tang / (2.0 * h)  # multiplies S_{i+1}
    diag = np.full(n, -2.0 * inv_h2 + c)

    rhs = _source(t, mode)
    rhs[0] -= sub[0] * (beta / 2.0)
    rhs[-1] -= sup[-1] * (beta - 1.0)

    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(rhs))):
        raise SingularSystem(
            f"BVP assembly produced non-finite coefficients at c = {c!r}"
        )
    from scipy.linalg import LinAlgError, solve_banded
    try:
        interior = solve_banded((1, 1), ab, rhs)
    except LinAlgError as exc:
        raise SingularSystem(
            f"tridiagonal BVP system is singular at c = {c:.6g} "
            f"(discrete eigenvalue hit): {exc}"
        ) from exc
    if not np.all(np.isfinite(interior)):
        raise SingularSystem(
            f"tridiagonal BVP solve produced non-finite values at c = {c:.6g} "
            "(near-singular discrete operator)"
        )

    grid = np.empty(n + 2)
    grid[0], grid[1:-1], grid[-1] = 0.0, t, R
    values = np.empty(n + 2)
    values[0], values[1:-1], values[-1] = beta / 2.0, interior, beta - 1.0
    return SolutionProfile(grid, values)


def discrete_minimize(mode: ModeParams, n: int) -> SolutionProfile:
    """Direct minimizer of the trapezoid-discretized functional over the
    interior node values of a uniform grid with ``n`` interior nodes.

    The discrete objective (piecewise-linear S, trapezoid quadrature) is
    the same one ``k_functional_direct`` evaluates for deriv-less
    profiles, so discrete optimality is testable to roundoff.  The
    continuous functional is convex for every mode with c < 1/4, c0 < 0
    included; the discretized form is checked by its LDL^T pivots, and
    if it is indefinite (an inconsistent mode, say) there is no
    minimizer and IndefiniteForm is raised.
    """
    if n < 2:
        raise ValueError(f"discrete_minimize needs n >= 2 interior nodes, got {n}")
    R, beta, c0, c1 = mode.R, mode.beta, mode.c0, mode.c1
    h = R / (n + 1)
    t_all = h * np.arange(n + 2)
    ch = np.cosh(t_all)

    # Normal equations of
    #   sum_cells (c1/h)(cosh_j + cosh_{j+1})(S_{j+1} - S_j)^2
    #   + sum_nodes w_j 2 c0 cosh_j S_j^2 - 2 c0 beta sum_nodes w_j e^{-t_j} S_j
    # (trapezoid node weights w_j = h on interior nodes), divided by 2.
    stiff = (c1 / h) * (ch[:-1] + ch[1:])  # one entry per cell
    diag = stiff[:-1] + stiff[1:] + 2.0 * h * c0 * ch[1:-1]
    off = -stiff[1:-1]  # couples interior nodes j and j+1
    rhs = h * c0 * beta * np.exp(-t_all[1:-1])
    rhs[0] += stiff[0] * (beta / 2.0)
    rhs[-1] += stiff[-1] * (beta - 1.0)

    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(rhs))):
        raise SingularSystem(
            "normal-equation assembly produced non-finite coefficients"
        )

    # LDL^T pivot scan: all pivots positive <=> form positive definite.
    pivot = diag[0]
    min_pivot = pivot
    bad_node = 1
    for j in range(1, n):
        if pivot <= 0.0:
            break
        pivot = diag[j] - (off[j - 1] * off[j - 1]) / pivot
        if pivot < min_pivot:
            min_pivot = pivot
            bad_node = j + 1
    if min_pivot <= 0.0:
        raise IndefiniteForm(
            f"discrete quadratic form is not positive definite "
            f"(pivot {min_pivot:.6g} at interior node {bad_node}); "
            "no minimizer exists"
        )

    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1, :] = diag
    from scipy.linalg import LinAlgError, solveh_banded
    try:
        interior = solveh_banded(ab, rhs)
    except LinAlgError as exc:
        raise SingularSystem(
            f"normal equations singular despite positive pivots: {exc}"
        ) from exc

    values = np.empty(n + 2)
    values[0], values[1:-1], values[-1] = beta / 2.0, interior, beta - 1.0
    return SolutionProfile(t_all, values)


def compare_profiles(
    a: SolutionProfile, b: SolutionProfile
) -> Tuple[float, float]:
    """(sup, L2) discrepancy between two profiles.

    Identical grids are compared node-by-node; otherwise ``b`` is
    linearly interpolated onto ``a``'s grid, which requires b's grid to
    cover a's range (GridMismatch otherwise).
    """
    if a.grid.size == b.grid.size and np.array_equal(a.grid, b.grid):
        other = b.values
    else:
        pad = 1e-12 * max(1.0, abs(float(a.grid[-1])))
        if b.grid[0] > a.grid[0] + pad or b.grid[-1] < a.grid[-1] - pad:
            raise GridMismatch(
                f"cannot interpolate: grid [{b.grid[0]:.6g}, {b.grid[-1]:.6g}] "
                f"does not cover [{a.grid[0]:.6g}, {a.grid[-1]:.6g}]"
            )
        other = np.interp(a.grid, b.grid, b.values)
    diff = a.values - other
    sup = float(np.max(np.abs(diff)))
    l2 = float(math.sqrt(_trapz(diff * diff, a.grid)))
    return sup, l2


def full_interval_functional(profile: SolutionProfile, mode: ModeParams) -> float:
    """The weighted functional over the full symmetric interval,

        int_{-R}^{R} e^t (c0 S^2 + c1 S'^2) dt,

    with S extended to [-R, 0) by the reflection S(-t) = beta - S(t)
    (so S'(-t) = S'(t) for the extension's derivative).  Needs derivs;
    use ``profile.differenced()`` for finite-difference profiles.
    """
    if profile.derivs is None:
        raise ValueError(
            "full_interval_functional needs derivs; call profile.differenced()"
        )
    grid, vals, ders = profile.grid, profile.values, profile.derivs
    ts = np.concatenate([-grid[::-1], grid[1:]])
    ss = np.concatenate([mode.beta - vals[::-1], vals[1:]])
    sp = np.concatenate([ders[::-1], ders[1:]])
    integrand = np.exp(ts) * (mode.c0 * ss * ss + mode.c1 * sp * sp)
    return float(_trapz(integrand, ts))


def stencil_residuals(profile: SolutionProfile, mode: ModeParams) -> np.ndarray:
    """Central-difference residual of the stationarity ODE at the
    interior nodes of a uniform-grid profile:

        (S_{i-1} - 2 S_i + S_{i+1})/h^2
        + tanh(t_i) (S_{i+1} - S_{i-1})/(2h) + c S_i - source(t_i).

    For the BVP solution this is zero to solver roundoff; for any
    O(h^2)-accurate profile it is bounded by the truncation error.
    """
    grid, vals = profile.grid, profile.values
    hs = np.diff(grid)
    h = float(hs[0])
    if not np.allclose(hs, h, rtol=1e-9, atol=0.0):
        raise ValueError("stencil_residuals needs a uniform grid")
    t = grid[1:-1]
    second = (vals[:-2] - 2.0 * vals[1:-1] + vals[2:]) / (h * h)
    first = (vals[2:] - vals[:-2]) / (2.0 * h)
    return second + np.tanh(t) * first + mode.c * vals[1:-1] - _source(t, mode)
