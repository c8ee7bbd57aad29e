"""Independent finite-difference oracles vs the closed-form pipeline.

The BVP solver and the discrete minimizer share no code with the
hypergeometric evaluation; their agreement with the closed form is the
central correctness evidence for the package.
"""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mollab.kappa import k_functional_direct, kappa_from_functional, kappa_special
from mollab.oracle import (
    GridMismatch,
    IndefiniteForm,
    SingularSystem,
    SolutionProfile,
    bvp_solve,
    compare_profiles,
    discrete_minimize,
    full_interval_functional,
    stencil_residuals,
)
from mollab.varsol import make_mode_general, make_mode_special, s_profile
from tests.conftest import closed_profile, special_mode_for_R


def _closed_on(grid, mode):
    values, derivs = s_profile(grid, mode)
    return SolutionProfile(grid=grid, values=values, derivs=derivs)


# -------------------------------------------------------------- profiles


def test_profile_validation():
    with pytest.raises(ValueError):
        SolutionProfile(grid=np.array([0.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        SolutionProfile(grid=np.array([0.0, 1.0]), values=np.array([1.0]))
    with pytest.raises(ValueError):
        SolutionProfile(grid=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SolutionProfile(grid=np.array([1.0, 0.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SolutionProfile(
            grid=np.zeros((2, 2)), values=np.zeros((2, 2))
        )
    prof = SolutionProfile(grid=np.array([0, 1]), values=np.array([1, 2]))
    assert prof.grid.dtype == np.float64
    assert prof.derivs is None


def test_profile_differenced(mode_r5):
    prof = closed_profile(mode_r5, 5000, with_derivs=False)
    diffed = prof.differenced()
    _, exact = s_profile(prof.grid, mode_r5)
    assert np.max(np.abs(diffed.derivs - exact)) <= 1e-4


# ------------------------------------------------------------ BVP oracle


def test_bvp_requires_fine_grid(mode_r5):
    with pytest.raises(ValueError):
        bvp_solve(mode_r5, 99)


@pytest.mark.parametrize("R", [1.0, 5.0, 10.0])
def test_bvp_matches_closed_form(R):
    mode = special_mode_for_R(R)
    prof = bvp_solve(mode, 100_000)
    closed, _ = s_profile(prof.grid, mode)
    assert np.max(np.abs(prof.values - closed)) <= 1e-6


def test_bvp_matches_closed_form_general(mode_general):
    prof = bvp_solve(mode_general, 50_000)
    closed, _ = s_profile(prof.grid, mode_general)
    assert np.max(np.abs(prof.values - closed)) <= 1e-6


def test_bvp_random_convex_modes(rng):
    # Three random admissible modes, beta in [0.5, 1.5]; convexity
    # (c0 > 0) is enforced by the draw.
    made = 0
    while made < 3:
        theta = rng.uniform(0.1, 0.6)
        R = rng.uniform(1.0, 6.0)
        beta = rng.uniform(0.5, 1.5)
        B = rng.uniform(0.2, 0.5)
        C = rng.uniform(0.5, 1.5)
        if C / theta - theta * B * R * R <= 0.1:
            continue
        mode = make_mode_general(theta, R, beta, B=B, C=C)
        prof = bvp_solve(mode, 50_000)
        closed, _ = s_profile(prof.grid, mode)
        assert np.max(np.abs(prof.values - closed)) <= 1e-6
        made += 1


def test_bvp_second_order_convergence(mode_r5):
    errs = []
    for n in (1250, 2500):
        prof = bvp_solve(mode_r5, n)
        closed, _ = s_profile(prof.grid, mode_r5)
        errs.append(np.max(np.abs(prof.values - closed)))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_bvp_singular_system_raises():
    broken = types.SimpleNamespace(R=5.0, c=float("nan"), beta=1.0)
    with pytest.raises(SingularSystem):
        bvp_solve(broken, 200)


@pytest.mark.parametrize("solver", ["bvp", "minimizer"])
def test_lapack_failure_becomes_singular_system(monkeypatch, mode_r5, solver):
    import scipy.linalg

    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(scipy.linalg, "solve_banded", fail)
    monkeypatch.setattr(scipy.linalg, "solveh_banded", fail)
    with pytest.raises(SingularSystem, match="singular matrix"):
        if solver == "bvp":
            bvp_solve(mode_r5, 200)
        else:
            discrete_minimize(mode_r5, 200)


# ------------------------------------------- reference route, bit for bit
#
# bvp_solve fills its band rows in place and lets LAPACK overwrite them;
# k_functional_direct slices the half-grid integrand out of the fine one.
# Both must give exactly the numbers of the straightforward versions below.


def _bvp_as_first_written(mode, n):
    from scipy.linalg import solve_banded

    R, beta, c = mode.R, mode.beta, mode.c
    h = R / (n + 1)
    t = h * np.arange(1, n + 1)
    tang = np.tanh(t)
    inv_h2 = 1.0 / (h * h)
    sub = inv_h2 - tang / (2.0 * h)
    sup = inv_h2 + tang / (2.0 * h)
    e = np.exp(-2.0 * t)
    rhs = mode.c * mode.beta * e / (1.0 + e)
    rhs[0] -= sub[0] * (beta / 2.0)
    rhs[-1] -= sup[-1] * (beta - 1.0)
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = np.full(n, -2.0 * inv_h2 + c)
    ab[2, :-1] = sub[1:]
    interior = solve_banded((1, 1), ab, rhs)
    grid = np.concatenate(([0.0], t, [R]))
    values = np.concatenate(([beta / 2.0], interior, [beta - 1.0]))
    return grid, values


def _k_as_first_written(profile, mode):
    trapz = getattr(np, "trapezoid", None) or np.trapz

    def k_trapezoid(grid, vals, derivs):
        d2 = derivs * derivs
        g = np.exp(grid) * (mode.c0 * vals * vals + mode.c1 * d2) + np.exp(
            -grid
        ) * (mode.c0 * (mode.beta - vals) ** 2 + mode.c1 * d2)
        return float(trapz(g, grid))

    grid, vals, der = profile.grid, profile.values, profile.derivs
    idx = np.arange(0, grid.size, 2)
    if idx[-1] != grid.size - 1:
        idx = np.append(idx, grid.size - 1)
    k_fine = k_trapezoid(grid, vals, der)
    k_half = k_trapezoid(grid[idx], vals[idx], der[idx])
    return k_fine + (k_fine - k_half) / 3.0


_SPECIAL_THETAS = np.linspace(0.08, 1.0, 20)
_GENERAL_MODES = [
    make_mode_general(theta, R, beta)
    for theta, R, beta in zip(
        np.linspace(0.1, 0.6, 20),
        np.geomspace(1.0, 8.0, 20)[::-1],
        [0.5, 1.0, 1.3, 0.8] * 5,
    )
]


@pytest.mark.parametrize("n", [150, 4000, 20001])
def test_bvp_solve_bit_identical_to_first_version(n):
    for mode in (special_mode_for_R(5.0), *_GENERAL_MODES[::4]):
        prof = bvp_solve(mode, n)
        grid, values = _bvp_as_first_written(mode, n)
        assert np.array_equal(prof.grid, grid)
        assert np.array_equal(prof.values, values)


def test_k_functional_bit_identical_to_first_version():
    modes = [make_mode_special(theta) for theta in _SPECIAL_THETAS]
    for i, mode in enumerate(modes + _GENERAL_MODES):
        # odd and even node counts take both half-grid index branches
        prof = bvp_solve(mode, 2000 + i % 2).differenced()
        got = k_functional_direct(prof, mode)
        assert got.hex() == _k_as_first_written(prof, mode).hex()


# ------------------------------------------------------ discrete minimizer


def test_minimizer_matches_bvp(mode_r5):
    n = 10_000
    mini = discrete_minimize(mode_r5, n)
    bvp = bvp_solve(mode_r5, n - 1)  # same interior spacing convention
    sup, _ = compare_profiles(mini, bvp)
    assert sup <= 1e-5


def test_minimizer_is_discretely_optimal(mode_r2):
    # The normal-equations solution cannot be beaten by the sampled
    # closed form under the same piecewise-linear objective.
    n = 4000
    mini = discrete_minimize(mode_r2, n)
    sampled = SolutionProfile(
        grid=mini.grid, values=s_profile(mini.grid, mode_r2)[0]
    )
    k_min = k_functional_direct(mini, mode_r2)
    k_closed = k_functional_direct(sampled, mode_r2)
    assert k_min <= k_closed + 1e-8


def test_negative_c0_mode_minimizes_like_bvp():
    # theta R > sqrt(C/B) makes c0 negative, yet c < 1/4 keeps the
    # functional convex: the minimizer is the BVP solution.
    mode = make_mode_general(2.0, 10.0, 1.0)
    assert mode.c0 < 0.0
    sup, _ = compare_profiles(bvp_solve(mode, 4000), discrete_minimize(mode, 4000))
    assert sup <= 1e-7


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.01, 3.0),
    excess=st.floats(1.001, 20.0),
    beta=st.floats(0.5, 1.5),
    B=st.floats(0.05, 1.0),
    C=st.floats(0.5, 5.0),
)
def test_negative_c0_modes_factor(theta, excess, beta, B, C):
    R = min(excess * math.sqrt(C / B) / theta, 300.0)
    mode = make_mode_general(theta, R, beta, B, C)
    assume(mode.c0 < 0.0)
    for n in (2, 5, 50, 500):
        prof = discrete_minimize(mode, n)
        assert np.all(np.isfinite(prof.values))


def test_indefinite_form_detected():
    base = special_mode_for_R(5.0)
    toxic = dataclasses.replace(base, c0=-10.0, c1=1.0)
    with pytest.raises(IndefiniteForm):
        discrete_minimize(toxic, 100)


def test_minimizer_input_validation(mode_r5):
    with pytest.raises(ValueError):
        discrete_minimize(mode_r5, 1)


# ------------------------------------------------------------ comparison


def test_compare_identical_profiles(mode_r2):
    prof = closed_profile(mode_r2, 500, with_derivs=False)
    sup, l2 = compare_profiles(prof, prof)
    assert sup == 0.0
    assert l2 == 0.0


def test_compare_constant_offset(mode_r2):
    prof = closed_profile(mode_r2, 500, with_derivs=False)
    shifted = SolutionProfile(grid=prof.grid, values=prof.values + 1e-3)
    sup, l2 = compare_profiles(prof, shifted)
    assert sup == pytest.approx(1e-3, rel=1e-12)
    assert l2 == pytest.approx(1e-3 * math.sqrt(mode_r2.R), rel=1e-6)


def test_compare_interpolates_distinct_grids(mode_r2):
    a = _closed_on(np.linspace(0.0, mode_r2.R, 801), mode_r2)
    b = _closed_on(np.linspace(0.0, mode_r2.R, 1201), mode_r2)
    sup, l2 = compare_profiles(a, b)
    assert sup <= 1e-6
    assert l2 <= 1e-6


def test_compare_rejects_non_covering_grid(mode_r2):
    a = _closed_on(np.linspace(0.0, mode_r2.R, 101), mode_r2)
    b = _closed_on(np.linspace(0.5, mode_r2.R - 0.5, 101), mode_r2)
    with pytest.raises(GridMismatch):
        compare_profiles(a, b)


# ------------------------------------------------------ functional routes


def test_full_interval_matches_half_interval_form(mode_r2):
    # Mirroring S(-t) = beta - S(t) and integrating e^t (c0 S^2 + c1 S'^2)
    # over [-R, R] must reproduce the cosh-weighted half-interval
    # functional exactly (in exact arithmetic).
    prof = closed_profile(mode_r2, 20_000)
    k_full = full_interval_functional(prof, mode_r2)
    k_half = k_functional_direct(prof, mode_r2)
    assert k_full == pytest.approx(k_half, rel=1e-6)


def test_full_interval_requires_derivs(mode_r2):
    prof = closed_profile(mode_r2, 100, with_derivs=False)
    with pytest.raises(ValueError):
        full_interval_functional(prof, mode_r2)


def test_stencil_residuals_of_closed_form(mode_r5):
    prof = closed_profile(mode_r5, 500, with_derivs=False)
    h = mode_r5.R / 500
    res = stencil_residuals(prof, mode_r5)
    assert np.max(np.abs(res)) <= 10.0 * h * h


def test_stencil_residuals_of_bvp_solution(mode_r5):
    prof = bvp_solve(mode_r5, 2000)
    res = stencil_residuals(prof, mode_r5)
    # the BVP solution satisfies its own stencil nearly exactly
    assert np.max(np.abs(res)) <= 1e-8


# ------------------------------------------------------------- end-to-end


def test_oracle_kappa_agrees_with_closed_pipeline(mode_r2):
    mini = discrete_minimize(mode_r2, 10_000)
    k_val = k_functional_direct(mini, mode_r2)
    via_oracle = kappa_from_functional(mode_r2, k_val)
    closed = kappa_special(mode_r2.theta)
    assert via_oracle.kappa == pytest.approx(closed.kappa, abs=1e-6)
