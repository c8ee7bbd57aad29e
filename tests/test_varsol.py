"""Closed-form minimizer components: constructors, identities, asymptotics.

mpmath provides the independent oracle for the Wronskian law; boundary
and residual checks are self-contained; the fitted-constant check pulls
in the finite-difference BVP oracle.
"""

import math

import mpmath
import numpy as np
import pytest

from mollab.oracle import bvp_solve
from mollab.quad import integrate
from mollab.varsol import (
    _PROFILE_BLOCK,
    SPECIAL_THETA_R,
    ModeParams,
    c1_constant,
    component_exp_integrals,
    components_at,
    exp_weighted_integral,
    make_mode_general,
    make_mode_special,
    ode_residual_max,
    s_prime,
    s_prime_zero,
    s_profile,
    s_value,
    v_integrands,
    w_integrals,
)
from tests.conftest import special_mode_for_R

SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0


# ---------------------------------------------------------- constructors


def test_special_mode_at_theta_half():
    m = make_mode_special(0.5)
    assert m.R == pytest.approx(math.sqrt(3.0 / 5.0) / 0.5, rel=1e-15)
    assert m.c == -1.0
    assert m.c0 == pytest.approx(4.0 / (5.0 * 0.5), rel=1e-14)
    assert m.c1 == pytest.approx(4.0 / (5.0 * 0.5), rel=1e-14)
    assert m.phi_c == pytest.approx(PHI, rel=1e-15)
    assert m.beta == 1.0


def test_special_mode_R_inversion():
    m = special_mode_for_R(5.0)
    assert m.R == pytest.approx(5.0, rel=1e-14)
    assert m.theta * m.R == pytest.approx(SPECIAL_THETA_R, rel=1e-14)


def test_general_mode_worked_example():
    m = make_mode_general(0.1, 10.0, 1.0, B=1.0 / 3.0, C=1.0)
    assert m.c0 == pytest.approx(20.0 / 3.0, rel=1e-14)
    assert m.c1 == pytest.approx(40.0 / 3.0, rel=1e-14)
    assert m.c == pytest.approx(-0.5, rel=1e-14)
    assert m.phi_c == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, rel=1e-14)


def test_general_reduces_to_special_at_balanced_point():
    for theta in (0.5, 0.25, 0.1):
        sp = make_mode_special(theta)
        ge = make_mode_general(theta, sp.R, 1.0, B=1.0 / 3.0, C=1.0)
        assert ge.c0 == pytest.approx(sp.c0, rel=1e-12)
        assert ge.c1 == pytest.approx(sp.c1, rel=1e-12)
        assert ge.c == pytest.approx(sp.c, rel=1e-12)
        assert ge.phi_c == pytest.approx(sp.phi_c, rel=1e-12)


def test_mode_exponent_root_identity(rng):
    # phi_c solves x(x-1) = -c, and c < 1/4 for every admissible mode.
    for _ in range(20):
        theta = rng.uniform(0.05, 1.5)
        R = rng.uniform(0.5, 20.0)
        B = rng.uniform(0.05, 2.0)
        C = rng.uniform(0.05, 3.0)
        m = make_mode_general(theta, R, 1.0, B=B, C=C)
        assert m.c < 0.25
        assert m.phi_c * (m.phi_c - 1.0) == pytest.approx(-m.c, rel=1e-11)


def test_mode_validation():
    with pytest.raises(ValueError):
        make_mode_special(0.0)
    with pytest.raises(ValueError):
        make_mode_general(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        make_mode_general(0.5, 2.0, 1.0, B=0.0)


# ------------------------------------------------------------ components


def test_component_values_at_zero(mode_r5):
    cv = components_at(0.0, mode_r5)
    assert cv.f == pytest.approx(0.0, abs=1e-15)
    assert cv.g0 == pytest.approx(0.5, abs=1e-15)
    assert cv.g1 == pytest.approx(-1.07479, abs=1e-5)
    assert cv.g2 == pytest.approx(0.759136, abs=1e-6)
    assert abs(cv.W) == pytest.approx(SQRT5 / 2.0, rel=1e-12)


def test_v_pair_values_at_zero(mode_r5):
    v1, v2 = v_integrands(0.0, mode_r5)
    assert v1 == pytest.approx(0.339496, abs=1e-6)
    assert v2 == pytest.approx(0.480664, abs=1e-6)


def test_v_pair_asymptotic_constants(mode_r5):
    # Both integrands decay at rate (3-sqrt5)/2 with the printed constants.
    rate = (3.0 - SQRT5) / 2.0
    v1, v2 = v_integrands(30.0, mode_r5)
    assert v1 * math.exp(rate * 30.0) == pytest.approx(0.55579, abs=2e-5)
    assert v2 * math.exp(rate * 30.0) == pytest.approx(1.23411, abs=2e-5)


def test_homogeneous_solution_asymptote(mode_r5):
    # f(t) ~ -e^{(sqrt5-1)t/2} for large t.
    t = 30.0
    f = components_at(t, mode_r5).f
    assert f * math.exp(-(SQRT5 - 1.0) / 2.0 * t) == pytest.approx(-1.0, abs=1e-3)


def test_w_integrals_vanish_at_zero(mode_r5):
    w1, w2 = w_integrals(0.0, mode_r5)
    assert w1 == 0.0
    assert w2 == 0.0


def test_w_integrals_saturated_values():
    mode = special_mode_for_R(70.0)
    w1, w2 = w_integrals(60.0, mode)
    assert w1 == pytest.approx(1.3208, abs=1e-3)
    assert w2 == pytest.approx(2.8166, abs=1e-3)


def test_w_integrals_match_direct_quadrature(mode_r5):
    # w_k(u) = int_0^u of the v-integrands, re-done with the generic
    # adaptive integrator as an in-package cross-check.
    u = 3.0
    direct1 = integrate(lambda ts: v_integrands(ts, mode_r5)[0], 0.0, u).value
    direct2 = integrate(lambda ts: v_integrands(ts, mode_r5)[1], 0.0, u).value
    w1, w2 = w_integrals(u, mode_r5)
    assert w1 == pytest.approx(direct1, rel=1e-9)
    assert w2 == pytest.approx(direct2, rel=1e-9)


# -------------------------------------------------------------- Wronskian


def test_wronskian_transport_float64(mode_r5):
    # Product-formula W times cosh(t) is constant while cancellation is benign.
    ts = np.linspace(0.0, 2.0, 41)
    cv = components_at(ts, mode_r5)
    ratio = cv.W * np.cosh(ts)
    ratio /= ratio[0]
    assert np.max(np.abs(ratio - 1.0)) <= 1e-8


def test_wronskian_against_high_precision_oracle(mode_r5):
    # g1 g2' - g1' g2 rebuilt in 40-digit arithmetic equals the
    # transported W(0)/cosh(u) to 1e-8 relative across [0, 10], with a
    # single sign fixed at u = 0.
    mpmath.mp.dps = 40
    half = mpmath.mpf(1) / 2
    phi = (1 + mpmath.sqrt(5)) / 2
    mu = 1 - phi

    def g1(u):
        return mpmath.e ** (mu * u) * mpmath.hyp2f1(half, mu, half + mu, -mpmath.e ** (2 * u))

    def g2(u):
        return mpmath.e ** (phi * u) * mpmath.hyp2f1(half, phi, half + phi, -mpmath.e ** (2 * u))

    def wron(u):
        return g1(u) * mpmath.diff(g2, u) - mpmath.diff(g1, u) * g2(u)

    w0 = wron(mpmath.mpf(0))
    sign0 = 1.0 if w0 > 0 else -1.0
    # the float64 product formula agrees in magnitude and fixes its sign
    cv0 = components_at(0.0, mode_r5)
    assert abs(float(w0)) == pytest.approx(abs(cv0.W), rel=1e-10)
    for u in (1.0, 2.5, 5.0, 7.5, 10.0):
        val = wron(mpmath.mpf(u))
        assert (1.0 if val > 0 else -1.0) == sign0
        transported = w0 / mpmath.cosh(u)
        assert float(val / transported) == pytest.approx(1.0, abs=1e-8)


def test_abel_identity_cosh_weight(mode_r5):
    # Differenced Wronskian of the float64 components times cosh is
    # constant on a moderate window.
    ts = np.linspace(0.2, 2.2, 21)
    h = 5e-6
    cvm = components_at(ts - h, mode_r5)
    cvp = components_at(ts + h, mode_r5)
    cv = components_at(ts, mode_r5)
    g1p = (cvp.g1 - cvm.g1) / (2.0 * h)
    g2p = (cvp.g2 - cvm.g2) / (2.0 * h)
    wr = cv.g1 * g2p - g1p * cv.g2
    prod = wr * np.cosh(ts)
    assert np.max(np.abs(prod / prod[0] - 1.0)) <= 1e-8


# ------------------------------------------------------ fitted constant


def test_c1_limit_value():
    mode = special_mode_for_R(40.0)
    assert c1_constant(mode) == pytest.approx(0.674, abs=5e-3)


def test_c1_matches_bvp_fitted_constant(mode_r5):
    # Fit C1 from the independent finite-difference solution:
    # C1 = (S_bvp - beta g0 + c beta (g1 w1 + g2 w2)) / f at an interior node.
    n = 49999  # h = 1e-4, grid contains t = 2.5 exactly
    prof = bvp_solve(mode_r5, n)
    idx = 25000
    t_star = prof.grid[idx]
    assert t_star == pytest.approx(2.5, abs=1e-12)
    cv = components_at(t_star, mode_r5)
    w1, w2 = w_integrals(t_star, mode_r5)
    beta, c = mode_r5.beta, mode_r5.c
    fitted = (
        prof.values[idx]
        - beta * cv.g0
        + c * beta * (cv.g1 * w1 + cv.g2 * w2)
    ) / cv.f
    assert fitted == pytest.approx(c1_constant(mode_r5), abs=1e-6)


# ------------------------------------------------------- solution values


@pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 10.0, 20.0])
def test_boundary_values_special(R):
    mode = special_mode_for_R(R)
    assert s_value(0.0, mode) == pytest.approx(mode.beta / 2.0, abs=1e-9)
    assert s_value(R, mode) == pytest.approx(mode.beta - 1.0, abs=1e-9)


def test_boundary_values_general(mode_general):
    m = mode_general
    assert s_value(0.0, m) == pytest.approx(m.beta / 2.0, abs=1e-9)
    assert s_value(m.R, m) == pytest.approx(m.beta - 1.0, abs=1e-9)


def test_s_profile_matches_pointwise(mode_r5):
    ts = np.linspace(0.0, mode_r5.R, 17)
    S, Sp = s_profile(ts, mode_r5)
    for i, t in enumerate(ts):
        assert S[i] == pytest.approx(s_value(float(t), mode_r5), rel=1e-12, abs=1e-14)
        assert Sp[i] == pytest.approx(s_prime(float(t), mode_r5), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("which", ["r5", "general"])
def test_s_profile_block_edges_match_pointwise(which, mode_r5, mode_general):
    # 5000 points span several evaluation blocks; the points either side of
    # each block boundary agree with the one-point routes
    mode = {"r5": mode_r5, "general": mode_general}[which]
    ts = np.linspace(0.0, mode.R, 5000)
    assert ts.size > 3 * _PROFILE_BLOCK
    S, Sp = s_profile(ts, mode)
    edges = np.arange(_PROFILE_BLOCK, ts.size, _PROFILE_BLOCK)
    for i in np.concatenate(([0, ts.size - 1], edges - 1, edges)):
        t = float(ts[i])
        assert S[i] == pytest.approx(s_value(t, mode), rel=1e-12, abs=1e-14)
        assert Sp[i] == pytest.approx(s_prime(t, mode), rel=1e-12, abs=1e-14)
    assert ode_residual_max(mode) <= 1e-6


def test_s_prime_zero_two_routes(mode_r5):
    # Contiguous-shift derivative vs one-sided finite difference at 0.
    h = 1e-5
    fd = (
        -3.0 * s_value(0.0, mode_r5)
        + 4.0 * s_value(h, mode_r5)
        - s_value(2.0 * h, mode_r5)
    ) / (2.0 * h)
    analytic = s_prime_zero(mode_r5)
    assert analytic == pytest.approx(fd, abs=1e-8)
    assert analytic == pytest.approx(s_prime(0.0, mode_r5), rel=1e-10)


def test_s_prime_zero_limit_bound():
    # The slope at the centre stays above the established limit value.
    mode = special_mode_for_R(40.0)
    sp0 = s_prime_zero(mode)
    assert sp0 >= -0.39006
    assert sp0 == pytest.approx(-0.3900, abs=1e-3)


def test_zero_state_affine_slope_decomposition(mode_r5):
    # S'(0) = C1 f'(0) + beta g0'(0) with the printed coefficients.
    c1 = c1_constant(mode_r5)
    assert s_prime_zero(mode_r5) == pytest.approx(
        c1 * (-1.47277) + mode_r5.beta * 0.602775, abs=1e-4
    )


# ---------------------------------------------------- weighted integrals


def test_component_exp_integrals_large_R():
    mode = special_mode_for_R(40.0)
    parts = component_exp_integrals(mode)
    assert parts["f"] == pytest.approx(-2.1166, abs=2e-4)
    assert parts["g0"] == pytest.approx(1.9453, abs=2e-4)
    assert parts["g1w1"] == pytest.approx(-4.294, abs=2e-3)
    assert parts["g2w2"] == pytest.approx(4.024, abs=2e-3)


def test_exp_weighted_integral_affine_identity(mode_r5, mode_general):
    for mode in (mode_r5, mode_general):
        parts = component_exp_integrals(mode)
        c1 = c1_constant(mode)
        affine = (
            c1 * parts["f"]
            + mode.beta * parts["g0"]
            - mode.c * mode.beta * (parts["g1w1"] + parts["g2w2"])
        )
        assert exp_weighted_integral(mode) == pytest.approx(affine, rel=1e-9)


@pytest.mark.parametrize(
    "mode",
    [
        make_mode_special(0.25),
        make_mode_general(0.3, 2.5, 1.0),
        make_mode_general(0.2, 4.0, 0.7),
        make_mode_special(1.0 / 500.0),  # R ~ 387, past the tail cut
        make_mode_general(0.3, 3.0, 1.0),  # R on a cell edge
    ],
    ids=["special-quarter", "general-beta1", "general-beta0.7", "R387", "cell-edge"],
)
def test_exp_weighted_integral_matches_quadrature_route(mode):
    # the closed form against the adaptive quadrature of each component
    parts = component_exp_integrals(mode)
    affine = (
        c1_constant(mode) * parts["f"]
        + mode.beta * parts["g0"]
        - mode.c * mode.beta * (parts["g1w1"] + parts["g2w2"])
    )
    assert exp_weighted_integral(mode) == pytest.approx(affine, rel=1e-12)


def test_exp_weighted_integral_continuous_across_cell_edge():
    # R = 3 is an anchor of the w-cache: no partial cell on the edge, a
    # short one on either side.  The one-sided differences must agree to
    # second order, so the anchors and the partial cells join without a jump.
    d = 1e-7
    lo, mid, hi = (
        exp_weighted_integral(make_mode_general(0.3, 3.0 + s * d, 1.0))
        for s in (-1.0, 0.0, 1.0)
    )
    assert abs(mid - lo) > 1e-10
    assert (hi - mid) == pytest.approx(mid - lo, abs=1e-13)


def test_exp_weighted_integral_limit():
    mode = special_mode_for_R(40.0)
    val = exp_weighted_integral(mode)
    assert val >= 0.248
    # regression pin of the R = 40 value
    assert val == pytest.approx(0.2485939278, abs=1e-6)


def test_pure_homogeneous_solution_scales_linearly():
    # At beta = 0 the minimizer is C1 * f, so the weighted integral is
    # exactly C1 times the f-component integral.
    mode = make_mode_general(0.5, 2.0, 0.0, B=1.0 / 3.0, C=1.0)
    parts = component_exp_integrals(mode)
    assert exp_weighted_integral(mode) == pytest.approx(
        c1_constant(mode) * parts["f"], rel=1e-9
    )


# ------------------------------------------------------------- residual


@pytest.mark.parametrize("R", [1.0, 2.0, 5.0])
def test_ode_residual_small_special(R):
    assert ode_residual_max(special_mode_for_R(R)) <= 1e-6


def test_ode_residual_general(mode_general):
    assert ode_residual_max(mode_general) <= 1e-6


@pytest.mark.parametrize("R", [10.0, 20.0])
def test_ode_residual_large_R_noise_envelope(R):
    # Beyond R ~ 9 the second difference is rounding-dominated: the
    # evaluation floor ~1e-16 e^{(phi_c-1) t} divided by h^2, plus the
    # h^2 truncation term.  Residuals must stay inside that envelope.
    mode = special_mode_for_R(R)
    h = 1e-3
    envelope = 10.0 * (
        4.0e-16 * math.exp((mode.phi_c - 1.0) * R) / h**2 + 0.1 * h**2
    )
    assert ode_residual_max(mode, h=h) <= envelope
