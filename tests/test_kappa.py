"""Zero-proportion pipeline: moments, closed forms, functional routes.

Dual-route checks: every closed-form constant is re-derived either by
adaptive quadrature of the defining integral or by evaluating the
functional on explicit profiles.
"""

import dataclasses
import math
import types

import numpy as np
import pytest

from mollab import kappa as kappa_module
from mollab import varsol as varsol_module
from mollab.kappa import (
    GridTooCoarse,
    IllConditioned,
    InvalidR,
    KappaResult,
    MollifierSpec,
    NonPositiveArgument,
    c_pqr_quadrature,
    c_pqr_special,
    equal_weight_R,
    k_functional_direct,
    kappa_from_functional,
    kappa_general,
    kappa_special,
)
from mollab.quad import integrate
from mollab.varsol import (
    SPECIAL_THETA_R,
    make_mode_general,
    make_mode_special,
    s_prime_zero,
    s_profile,
    exp_weighted_integral,
)
from tests.conftest import closed_profile, special_mode_for_R

LINEAR = MollifierSpec.linear()
SINH_Q = MollifierSpec.sinh_shape(0.25)


# ---------------------------------------------------------------- moments


def test_linear_moments():
    B, C = LINEAR.B, LINEAR.C
    assert B == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert C == pytest.approx(1.0, rel=1e-15)


def test_sinh_moments_reduce_to_linear():
    spec = MollifierSpec.sinh_shape(1e-3)
    B, C = spec.B, spec.C
    assert B == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert C == pytest.approx(1.0, abs=1e-6)


def test_sinh_moments_match_quadrature():
    # B = int P^2, C = int P'^2 with P = sinh(r x)/sinh(r).
    r = 0.25
    B, C = SINH_Q.B, SINH_Q.C
    s = math.sinh(r)
    bq = integrate(lambda x: np.sinh(r * x) ** 2 / s**2, 0.0, 1.0).value
    cq = integrate(lambda x: (r * np.cosh(r * x) / s) ** 2, 0.0, 1.0).value
    assert B == pytest.approx(bq, abs=1e-10)
    assert C == pytest.approx(cq, abs=1e-10)
    assert B == pytest.approx(0.330580152082, abs=1e-11)
    assert C == pytest.approx(1.00008578176, abs=1e-10)


def test_sinh_moments_small_r_series_continuous():
    # The series branch joins the closed form continuously at r = 0.01;
    # the joint is limited by the direct form's cancellation noise,
    # eps * 1.5 / r^2 ~ 3e-12 relative there.
    lo = MollifierSpec.sinh_shape(0.009999999)
    hi = MollifierSpec.sinh_shape(0.010000001)
    assert lo.B == pytest.approx(hi.B, rel=1e-10)
    assert lo.C == pytest.approx(hi.C, rel=1e-10)


def test_sinh_moments_against_high_precision():
    import mpmath

    mpmath.mp.dps = 40
    for r in (0.005, 0.05, 0.25, 1.0):
        spec = MollifierSpec.sinh_shape(r)
        B, C = spec.B, spec.C
        rm = mpmath.mpf(r)
        sh2, sh = mpmath.sinh(2 * rm), mpmath.sinh(rm)
        Bm = (sh2 - 2 * rm) / (4 * rm * sh**2)
        Cm = rm * (sh2 + 2 * rm) / (4 * sh**2)
        assert B == pytest.approx(float(Bm), rel=1e-12), f"B at r={r}"
        assert C == pytest.approx(float(Cm), rel=1e-12), f"C at r={r}"


def test_mollifier_spec_validation():
    with pytest.raises(InvalidR):
        MollifierSpec.sinh_shape(0.0)
    with pytest.raises(InvalidR):
        MollifierSpec.sinh_shape(-1.0)
    with pytest.raises(ValueError):
        MollifierSpec.custom(0.0, 1.0)
    spec = MollifierSpec.custom(0.25, 1.5)
    assert (spec.B, spec.C) == (0.25, 1.5)
    assert LINEAR.tag == "linear"
    assert SINH_Q.tag == "sinh:0.25"


def test_equal_weight_R():
    assert equal_weight_R(0.125, LINEAR) == pytest.approx(6.19677335393187, rel=1e-12)
    # theta * R = sqrt(C / (5 B)) reduces to the balanced constant for linear
    assert 0.125 * equal_weight_R(0.125, LINEAR) == pytest.approx(
        SPECIAL_THETA_R, rel=1e-12
    )


# ------------------------------------------------------------ closed form


def test_equal_weight_closed_form_values():
    assert kappa_special(0.25).kappa == pytest.approx(0.176381230348004, abs=1e-9)
    assert c_pqr_special(0.25) == pytest.approx(12.8313246909713, rel=1e-9)
    assert kappa_special(0.01).kappa == pytest.approx(0.00682381407805917, abs=1e-9)
    assert c_pqr_special(0.01) == pytest.approx(2.57484281544284e33, rel=1e-6)


def test_wide_mollifier_values_follow_from_functional():
    # Regression pins for the two widest columns; these are the values
    # produced by the defining functional (four independent evaluation
    # routes agree; see the acceptance suite for the reference-table
    # comparison).
    assert kappa_special(2.0 / 3.0).kappa == pytest.approx(
        0.4463667700448201, abs=1e-9
    )
    assert kappa_special(0.5).kappa == pytest.approx(0.35843690852531124, abs=1e-9)


def test_result_invariant_links_c_and_kappa():
    for theta in (0.5, 0.25, 0.1, 0.05):
        res = kappa_special(theta)
        assert res.kappa == pytest.approx(
            1.0 - math.log(res.c_pqr) / res.R, abs=1e-12
        )
        assert res.beta == 1.0
        assert res.theta == theta


def test_general_reduces_to_special():
    for theta in (0.5, 0.25, 0.125):
        R = equal_weight_R(theta, LINEAR)
        special = kappa_special(theta)
        general = kappa_general(theta, R, 1.0)
        assert general.kappa == pytest.approx(special.kappa, abs=1e-8)


def test_quadrature_route_matches_closed_form(mode_r5, mode_general):
    for mode in (mode_r5, mode_general):
        direct = c_pqr_quadrature(mode)
        theta = mode.theta
        res = kappa_general(theta, mode.R, mode.beta)
        assert direct == pytest.approx(res.c_pqr, rel=1e-9)


def test_R_grid_maximization_beats_table_value():
    # Scanning R around the equal-weight point can only improve on the
    # canonical table value (the equal-weight R balances the two weight
    # terms; it is not the kappa-optimal R, which sits ~20% higher).
    theta = 0.125
    r_star = equal_weight_R(theta, LINEAR)
    at_star = kappa_general(theta, r_star, 1.0).kappa
    grid = np.linspace(0.8 * r_star, 1.2 * r_star, 21)
    kappas = [kappa_general(theta, float(R), 1.0).kappa for R in grid]
    assert at_star == pytest.approx(0.0854, abs=2e-4)
    assert max(kappas) >= 0.0854
    assert max(kappas) >= at_star


def test_sinh_mollifier_beats_linear():
    for theta in (0.125, 5.0 / 54.0, 0.01):
        lin = kappa_general(theta, equal_weight_R(theta, LINEAR), 1.0, LINEAR)
        snh = kappa_general(theta, equal_weight_R(theta, SINH_Q), 1.0, SINH_Q)
        assert snh.kappa >= lin.kappa - 1e-9


def test_sinh_quarter_reference_rows():
    rows = [
        (1.0 / 8.0, 0.0857477),
        (5.0 / 54.0, 0.0634202),
        (1.0 / 20.0, 0.0342402),
        (1.0 / 50.0, 0.0136961),
        (1.0 / 100.0, 0.00684804),
        (1.0 / 1000.0, 0.000684804),
    ]
    for theta, expected in rows:
        res = kappa_general(theta, equal_weight_R(theta, SINH_Q), 1.0, SINH_Q)
        assert res.kappa == pytest.approx(expected, abs=5e-7), f"theta={theta}"


def test_extreme_R_saturates_c_but_not_kappa():
    # At theta = 1/1000 with the sinh shape, R ~ 778 pushes ln c past the
    # float64 overflow line: c_pqr reports inf, kappa stays exact.
    theta = 1.0 / 1000.0
    res = kappa_general(theta, equal_weight_R(theta, SINH_Q), 1.0, SINH_Q)
    assert math.isinf(res.c_pqr)
    assert res.kappa == pytest.approx(0.000684804, abs=5e-9)
    # just below the line the constant is still finite
    res2 = kappa_general(1.0 / 500.0, equal_weight_R(1.0 / 500.0, SINH_Q), 1.0, SINH_Q)
    assert math.isfinite(res2.c_pqr)


def test_stable_through_R_fifty():
    res = kappa_special(SPECIAL_THETA_R / 50.0)
    assert math.isfinite(res.kappa) and math.isfinite(res.c_pqr)
    assert res.kappa == pytest.approx(1.0 - math.log(res.c_pqr) / 50.0, abs=1e-12)
    # beta != 1 at large (phi_c - 1) R: S'(R)'s rounding, carried by the
    # e^{2R} cross term, swamps kappa (the BVP reference gives -0.95333,
    # -0.94166 and -0.69547; the closed form gave -1.8009, -2.466, -0.68790)
    for case in ((0.01, 50.0, 1.3), (0.01, 40.0, 1.3), (0.02, 30.0, 0.99)):
        with pytest.raises(IllConditioned, match="rounding could move kappa"):
            kappa_general(*case)


def test_kappa_over_theta_window():
    for k in (1, 2, 3):
        theta = 10.0**-k
        res = kappa_special(theta)
        assert 2.0 / 3.0 <= res.kappa / theta <= 1.2


def test_nonpositive_argument_raised_not_clamped(mode_r2):
    with pytest.raises(NonPositiveArgument):
        kappa_from_functional(mode_r2, -1.0e6)


def test_kappa_runs_without_adaptive_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature on the kappa path")

    monkeypatch.setattr(varsol_module, "integrate", refuse)
    monkeypatch.setattr(kappa_module, "integrate", refuse)
    assert kappa_special(0.25).kappa == pytest.approx(0.176, abs=2e-3)
    assert math.isfinite(kappa_general(0.3, 2.5, 1.0).kappa)
    assert math.isfinite(kappa_general(0.5, 2.0, 1.3).kappa)


@pytest.mark.parametrize("R", [45.0, 50.0])
def test_ill_conditioned_general_mode_raises(R):
    # phi_c ~ 2.4 and 2.2: the tail's rounding grows like e^{2 (phi_c - 2) R}
    # (kappa/theta came out as -19.03 and 0.33899 against 0.1705 and 0.33962)
    with pytest.raises(IllConditioned):
        kappa_general(0.01, R, 1.0)

    # (at beta = 1.3 S'(R) trips the guard too: test_stable_through_R_fifty)


def test_ill_conditioned_checked_before_the_log_argument():
    # phi_c ~ 40: the log argument is garbage of either sign
    with pytest.raises(IllConditioned):
        kappa_general(0.0255, 0.85, 1.0)
    assert issubclass(IllConditioned, ArithmeticError)


@pytest.mark.parametrize("k", [1, 2])
def test_near_degenerate_connection_point_raises(k):
    # phi_c = k + 1/2 at R = sqrt(3)/(2k theta); a relative offset of 1e-6
    # in R answered kappa off by 1.7e-5 (k = 1) and 1.0e-6 (k = 2)
    R = math.sqrt(3.0) / (2 * k * 0.25)
    with pytest.raises(IllConditioned):
        kappa_general(0.25, R * (1.0 + 1e-6), 1.0)
    assert math.isfinite(kappa_general(0.25, R * (1.0 + 1e-2), 1.0).kappa)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        kappa_special(0.0)
    with pytest.raises(ValueError):
        kappa_general(0.25, -1.0, 1.0)


# --------------------------------------------------- functional on grids


def test_functional_route_recovers_kappa(mode_r2):
    prof = closed_profile(mode_r2, 4000)
    k_val = k_functional_direct(prof, mode_r2)
    via_K = kappa_from_functional(mode_r2, k_val)
    closed = kappa_special(mode_r2.theta)
    assert via_K.kappa == pytest.approx(closed.kappa, abs=1e-7)


def test_functional_dual_route_at_R5(mode_r5):
    # Quadrature of the defining K-integrand on the sampled minimizer vs
    # the exponential-scale closed form, relative 1e-6.
    prof = closed_profile(mode_r5, 4000)
    k_val = k_functional_direct(prof, mode_r5)
    res = kappa_from_functional(mode_r5, k_val)
    closed = kappa_special(mode_r5.theta)
    assert res.c_pqr == pytest.approx(closed.c_pqr, rel=1e-6)


def test_functional_without_derivs_uses_cell_form(mode_r2):
    prof = closed_profile(mode_r2, 4000, with_derivs=False)
    k_val = k_functional_direct(prof, mode_r2)
    with_derivs = k_functional_direct(closed_profile(mode_r2, 4000), mode_r2)
    assert k_val == pytest.approx(with_derivs, rel=1e-5)


def test_linear_interpolant_exceeds_minimum(mode_r5):
    # The straight line through the boundary data is admissible but not
    # the minimizer.
    R, beta = mode_r5.R, mode_r5.beta
    grid = np.linspace(0.0, R, 4001)
    slope = ((beta - 1.0) - beta / 2.0) / R
    values = beta / 2.0 + slope * grid
    derivs = np.full_like(grid, slope)
    lin = types.SimpleNamespace(grid=grid, values=values, derivs=derivs)
    k_lin = k_functional_direct(lin, mode_r5)
    k_min = k_functional_direct(closed_profile(mode_r5, 4001), mode_r5)
    assert k_lin > k_min + 1e-4 * abs(k_min)


def test_zero_function_rejected(mode_r5):
    grid = np.linspace(0.0, mode_r5.R, 101)
    zero = types.SimpleNamespace(
        grid=grid, values=np.zeros_like(grid), derivs=np.zeros_like(grid)
    )
    with pytest.raises(ValueError):
        k_functional_direct(zero, mode_r5)


def test_too_coarse_grid_raises(mode_r5):
    with pytest.raises(GridTooCoarse):
        k_functional_direct(closed_profile(mode_r5, 8), mode_r5)


# ------------------------------------------------- minimality/stationarity


def _perturbation(grid, R, rng, n_modes=5):
    coeffs = rng.normal(size=n_modes)
    phi = np.zeros_like(grid)
    dphi = np.zeros_like(grid)
    for j, a in enumerate(coeffs, start=1):
        wj = j * math.pi / R
        phi += a * np.sin(wj * grid)
        dphi += a * wj * np.cos(wj * grid)
    scale = 0.1 / np.max(np.abs(phi))
    return phi * scale, dphi * scale


@pytest.mark.parametrize("R", [2.0, 5.0, 10.0])
def test_minimality_under_perturbations(R, rng):
    mode = special_mode_for_R(R)
    grid = np.linspace(0.0, R, 4001)
    values, derivs = s_profile(grid, mode)
    base = types.SimpleNamespace(grid=grid, values=values, derivs=derivs)
    k0 = k_functional_direct(base, mode)
    for _ in range(20):
        phi, dphi = _perturbation(grid, R, rng)
        for eps in (0.01, -0.01, 0.001, -0.001):
            pert = types.SimpleNamespace(
                grid=grid, values=values + eps * phi, derivs=derivs + eps * dphi
            )
            assert k_functional_direct(pert, mode) - k0 >= -1e-9


def test_stationarity_quadratic_scaling(mode_r5, rng):
    mode = mode_r5
    grid = np.linspace(0.0, mode.R, 4001)
    values, derivs = s_profile(grid, mode)
    base = types.SimpleNamespace(grid=grid, values=values, derivs=derivs)
    k0 = k_functional_direct(base, mode)
    phi, dphi = _perturbation(grid, mode.R, rng, n_modes=1)

    def bump(eps):
        pert = types.SimpleNamespace(
            grid=grid, values=values + eps * phi, derivs=derivs + eps * dphi
        )
        return k_functional_direct(pert, mode) - k0

    ratio = bump(0.01) / bump(0.005)
    assert 3.8 <= ratio <= 4.2


# --------------------------------------------------------- conjecture map


def test_kappa_exceeds_two_thirds_theta_on_grid():
    for theta in np.linspace(0.01, 0.5, 50):
        res = kappa_special(float(theta))
        assert res.kappa - (2.0 / 3.0) * theta > 0.0
