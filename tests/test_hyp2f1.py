"""Gauss 2F1 evaluator and real-argument gamma: oracle and law checks.

mpmath supplies the independent high-precision oracle; the evaluation
routes (Maclaurin series, Pfaff map, large-negative connection formula)
are exercised both individually and through the routing front end.
"""

import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mollab
from mollab.hyp2f1 import (
    DegenerateParameters,
    HypArgs,
    InvalidC,
    NonConvergence,
    Pole,
    _CROSSOVER_Z,
    _series_sum,
    gamma_real,
    gamma_sign,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_neg,
    hyp2f1_pfaff,
    hyp2f1_series,
    log_gamma,
)

mpmath.mp.dps = 40

SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0
MU = 1.0 - PHI

# The four parameter triples that drive the solution components.
PIPELINE_TRIPLES = [
    (0.5, PHI, 0.5 + PHI),
    (0.5, 1.0 + PHI, 0.5 + PHI),
    (0.5, MU, 0.5 + MU),
    (1.5, MU, 0.5 + MU),
]


def _oracle(a, b, c, z):
    # A non-positive integer a or b makes the series a polynomial: sum it
    # exactly, since mpmath cannot reach relative accuracy at its zeros
    # (2F1(1/2, -1; -1/2; -1) = 1 + z = 0).
    for m in (a, b):
        if m <= 0 and m == round(m):
            term = total = mpmath.mpf(1)
            for n in range(int(-m)):
                term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * mpmath.mpf(z)
                total += term
            return float(total)
    return float(mpmath.hyp2f1(a, b, c, z))


# ---------------------------------------------------------------- gamma


def test_gamma_half_is_sqrt_pi():
    assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_integer_factorial():
    assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_reflection_identity():
    s = 0.37
    lhs = gamma_real(s) * gamma_real(1.0 - s)
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * s), rel=1e-13)


def test_gamma_negative_arguments_match_mpmath():
    for s in (-0.5, -1.7, -3.2, 4.6, 0.01):
        assert gamma_real(s) == pytest.approx(float(mpmath.gamma(s)), rel=1e-12)


def test_gamma_sign_and_log_consistency():
    for s in (7.3, 0.4, -0.5, -1.3):
        want = float(mpmath.gamma(s))
        got = gamma_sign(s) * math.exp(log_gamma(s))
        assert got == pytest.approx(want, rel=1e-12)
    assert gamma_sign(-0.5) == -1.0


def test_gamma_pole_raises():
    for s in (0.0, -1.0, -3.0):
        with pytest.raises(Pole):
            gamma_real(s)


# ------------------------------------------------------------- routes


def test_series_symmetric_in_a_b(rng):
    for _ in range(25):
        a, b = rng.uniform(0.2, 2.5, size=2)
        c = rng.uniform(0.7, 4.0)
        z = rng.uniform(-0.7, 0.7)
        lhs = hyp2f1_series(HypArgs(a, b, c, z))
        rhs = hyp2f1_series(HypArgs(b, a, c, z))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_series_route_against_mpmath(rng):
    for _ in range(20):
        a, b = rng.uniform(0.2, 2.5, size=2)
        c = rng.uniform(0.7, 4.0)
        z = rng.uniform(-0.74, 0.74)
        got = hyp2f1_series(HypArgs(a, b, c, z))
        assert got == pytest.approx(_oracle(a, b, c, z), rel=1e-11)


def test_pfaff_route_against_mpmath(rng):
    for _ in range(20):
        a, b = rng.uniform(0.2, 2.5, size=2)
        c = rng.uniform(0.7, 4.0)
        z = rng.uniform(-8.0, -0.2)
        got = hyp2f1_pfaff(HypArgs(a, b, c, z))
        assert got == pytest.approx(_oracle(a, b, c, z), rel=1e-11)


def test_connection_route_against_mpmath(rng):
    draws = 0
    while draws < 20:
        a, b = rng.uniform(0.2, 2.5, size=2)
        if abs((b - a) - round(b - a)) < 0.05:
            continue  # connection formula degenerates at integer b-a
        c = rng.uniform(0.7, 4.0)
        z = rng.uniform(-30.0, -1.05)
        got = hyp2f1(HypArgs(a, b, c, z))
        assert got == pytest.approx(_oracle(a, b, c, z), rel=1e-10)
        draws += 1


def test_router_continuous_across_crossover():
    a, b, c = 0.8, 1.4, 2.3
    below = hyp2f1(HypArgs(a, b, c, -_CROSSOVER_Z + 1e-9))
    above = hyp2f1(HypArgs(a, b, c, -_CROSSOVER_Z - 1e-9))
    assert below == pytest.approx(above, rel=1e-8)


def test_pipeline_triples_pfaff_vs_connection(rng):
    # Both routes of the negative-axis evaluation agree on the overlap
    # z = -e^{2t}, t in [0, 1], for every component triple.
    worst = 0.0
    for a, b, c in PIPELINE_TRIPLES:
        for t in rng.uniform(0.0, 1.0, size=50):
            z = -math.exp(2.0 * t)
            via_pfaff = hyp2f1_pfaff(HypArgs(a, b, c, z))
            via_conn = float(hyp2f1_neg(a, b, c, t))
            worst = max(worst, abs(via_pfaff / via_conn - 1.0))
    assert worst <= 1e-10


def test_pipeline_triples_against_mpmath():
    for a, b, c in PIPELINE_TRIPLES:
        for t in (0.0, 0.5, 1.5, 3.0, 7.0):
            z = -math.exp(2.0 * t)
            got = float(hyp2f1_neg(a, b, c, t))
            assert got == pytest.approx(_oracle(a, b, c, z), rel=1e-11)


# --------------------------------------------------- asymptotic laws


def test_decay_law_ratios_stabilize():
    # F(a,b;c;-e^{2t}) ~ K e^{-2 min(a,b) t}: the rescaled values are
    # constant to 1e-6 across t = 10, 20, 30.
    for a, b, c in PIPELINE_TRIPLES:
        scale = 2.0 * min(a, b)
        vals = [float(hyp2f1_neg(a, b, c, t, scale_exp=scale)) for t in (10.0, 20.0, 30.0)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-6)
        assert vals[2] == pytest.approx(vals[1], rel=1e-6)


def test_plus_component_gamma_ratio_limit():
    # e^t F(1/2, phi; 1/2+phi; -e^{2t}) -> Gamma ratio 1.2427975...
    want = (
        gamma_real(1.0 + SQRT5 / 2.0)
        * gamma_real(SQRT5 / 2.0)
        / gamma_real(PHI) ** 2
    )
    got = float(hyp2f1_neg(0.5, PHI, 0.5 + PHI, 30.0, scale_exp=1.0))
    assert want == pytest.approx(1.2427975, rel=1e-7)
    assert got == pytest.approx(want, rel=1e-10)


def test_minus_component_cosecant_limit():
    # e^{-(sqrt5-1) t} F(1/2, mu; 1/2+mu; -e^{2t}) -> csc(sqrt5 pi/2).
    want = 1.0 / math.sin(SQRT5 * math.pi / 2.0)
    got = float(hyp2f1_neg(0.5, MU, 0.5 + MU, 30.0, scale_exp=-(SQRT5 - 1.0)))
    assert want == pytest.approx(-2.7595731, rel=1e-7)
    assert got == pytest.approx(want, rel=1e-10)


# ----------------------------------------------------------- derivative


def test_deriv_at_origin_is_ab_over_c():
    args = HypArgs(0.7, 1.3, 2.1, 0.0)
    assert hyp2f1_deriv(args) == pytest.approx(0.7 * 1.3 / 2.1, rel=1e-14)


def test_deriv_against_finite_difference():
    args = HypArgs(1.0, 1.0, 2.0, -0.5)
    h = 1e-5
    fd = (
        hyp2f1(HypArgs(1.0, 1.0, 2.0, -0.5 + h))
        - hyp2f1(HypArgs(1.0, 1.0, 2.0, -0.5 - h))
    ) / (2.0 * h)
    assert hyp2f1_deriv(args) == pytest.approx(fd, abs=1e-8)
    # closed form: d/dz [-ln(1-z)/z] at z = -1/2
    z = -0.5
    closed = (1.0 / ((1.0 - z) * z) + math.log(1.0 - z) / z**2)
    assert hyp2f1_deriv(args) == pytest.approx(closed, rel=1e-10)


def test_deriv_against_mpmath(rng):
    for _ in range(10):
        a, b = rng.uniform(0.3, 2.0, size=2)
        c = rng.uniform(0.8, 3.5)
        z = rng.uniform(-0.7, 0.7)
        want = float(mpmath.diff(lambda w: mpmath.hyp2f1(a, b, c, w), z))
        assert hyp2f1_deriv(HypArgs(a, b, c, z)) == pytest.approx(want, rel=1e-9)


def test_t_derivative_of_plus_component():
    # d/dt F(1/2,phi;1/2+phi;-e^{2t}) = 2z dF/dz with z = -e^{2t}.
    a, b, c = 0.5, PHI, 0.5 + PHI
    t = 1.0
    z = -math.exp(2.0 * t)
    analytic = 2.0 * z * hyp2f1_deriv(HypArgs(a, b, c, z))
    h = 1e-6
    fd = (float(hyp2f1_neg(a, b, c, t + h)) - float(hyp2f1_neg(a, b, c, t - h))) / (2.0 * h)
    assert analytic == pytest.approx(fd, rel=1e-7)


# --------------------------------------------------------------- errors


def test_invalid_c_raises():
    for c in (0.0, -2.0):
        with pytest.raises(InvalidC):
            hyp2f1_series(HypArgs(0.5, 0.5, c, 0.3))


def test_degenerate_connection_parameters_raise():
    # b - a integer is a pole of the connection coefficients.
    with pytest.raises(DegenerateParameters):
        hyp2f1(HypArgs(0.5, 1.5, 2.0, -3.0))


def test_series_nonconvergence_raises():
    # terms ~ 0.999^n / n are still above 1e-12 of the sum past the
    # 400-term cap
    with pytest.raises(NonConvergence):
        hyp2f1_series(HypArgs(0.5, 0.7, 1.2, 0.999))


def test_vectorized_neg_matches_scalar():
    ts = np.array([0.0, 0.5, 2.0, 6.0])
    vec = hyp2f1_neg(0.5, PHI, 0.5 + PHI, ts)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(float(hyp2f1_neg(0.5, PHI, 0.5 + PHI, float(t))), rel=1e-14)


def test_package_attribute_is_the_submodule():
    # the package re-exports no name that shadows the hyp2f1 submodule
    assert isinstance(mollab.hyp2f1, types.ModuleType)
    assert mollab.hyp2f1._series_sum is _series_sum


# ------------------------------------------------ fixed-length series


def _pipeline_triple(shape: int, phi: float) -> tuple:
    mu = 1.0 - phi
    return [
        (0.5, phi, 0.5 + phi),
        (0.5, 1.0 + phi, 0.5 + phi),
        (0.5, mu, 0.5 + mu),
        (1.5, mu, 0.5 + mu),
    ][shape]


def _half_integer_gap(phi: float) -> float:
    return abs((phi - 0.5) - round(phi - 0.5))


@settings(max_examples=40, deadline=None)
@example(phi=2.0, shape=2, middle=[], t_far=6.0)
@given(
    phi=st.floats(0.6, 3.4).filter(lambda p: _half_integer_gap(p) >= 0.05),
    shape=st.integers(0, 3),
    middle=st.lists(st.floats(0.0, 12.0), max_size=6),
    t_far=st.floats(6.0, 12.0),
)
def test_neg_batches_against_mpmath(phi, shape, middle, t_far):
    # one batch holds t = 0 (zeta = 1/2, the longest series) and t >= 6
    # (zeta ~ 1e-6): the term count picked at zeta = 1/2 must serve both
    a, b, c = _pipeline_triple(shape, phi)
    ts = np.array([0.0, *middle, t_far])
    got = hyp2f1_neg(a, b, c, ts)
    for t, g in zip(ts, got):
        want = _oracle(a, b, c, -math.exp(2.0 * t))
        assert g == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_series_sum_exact_zero_at_half():
    # 2F1(1/2, 1/2; -1/2; 1/2) = 0 exactly: the relative test cannot pass
    # at that point, the rounding floor must.  hyp2f1_neg reaches this sum
    # at t = 0 for the phi = 2 component (0.5, 2, 2.5), i.e. c = -2.
    zeta = np.array([0.5, 0.3, 0.1])
    got = _series_sum(0.5, 0.5, -0.5, zeta)
    assert abs(got[0]) <= 1e-15
    for z, g in zip(zeta[1:], got[1:]):
        assert g == pytest.approx(_oracle(0.5, 0.5, -0.5, z), rel=1e-13)
    ts = np.array([0.0, 1.0, 7.0])
    for t, g in zip(ts, hyp2f1_neg(0.5, 2.0, 2.5, ts)):
        assert g == pytest.approx(_oracle(0.5, 2.0, 2.5, -math.exp(2.0 * t)), rel=1e-12)


def test_series_sum_zero_crossing_inside_batch():
    # 2F1(-0.9, -0.9; -0.4; zeta) changes sign near zeta = 0.4915, inside
    # a batch whose term count is picked at zeta = 1/2; it is the mu-branch
    # sum of the phi = 1.9 component (0.5, -0.9, -0.4).  The rounding floor
    # accepts the crossing point within 60 terms; the relative test alone
    # would need about twice the count picked at zeta = 1/2.
    a, b, c = -0.9, -0.9, -0.4
    root = float(mpmath.findroot(lambda z: mpmath.hyp2f1(a, b, c, z), 0.49))
    zeta = np.array([0.5, root, root * (1 - 1e-9), 0.25, 1e-3])
    got = _series_sum(a, b, c, zeta, max_terms=60)
    for z, g in zip(zeta, got):
        assert g == pytest.approx(_oracle(a, b, c, z), rel=1e-12, abs=1e-15)
    ts = 0.5 * np.log((1.0 - zeta) / zeta)
    for t, g in zip(ts, hyp2f1_neg(0.5, b, c, ts)):
        want = _oracle(0.5, b, c, -math.exp(2.0 * t))
        assert g == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_series_sum_nonconvergence_at_max_terms():
    for z in (np.array([0.74]), np.array([0.74, 0.1, -0.5])):
        with pytest.raises(NonConvergence):
            _series_sum(0.5, 0.7, 1.2, z, max_terms=8)
    # the term count picked at zeta = 1/2 (32) passes there, but the check
    # at the sum's zero needs 36 terms: growing N hits the cap
    zeta = np.array([0.5, 0.49149294028081636])
    _series_sum(-0.9, -0.9, -0.4, zeta[:1], max_terms=33)
    with pytest.raises(NonConvergence):
        _series_sum(-0.9, -0.9, -0.4, zeta, max_terms=33)


def test_series_sum_leaves_input_untouched():
    zeta = np.linspace(0.0, 0.5, 9)
    before = zeta.copy()
    _series_sum(0.5, PHI, 0.5 + PHI, zeta)
    assert np.array_equal(zeta, before)


def test_neg_empty_batch():
    assert hyp2f1_neg(0.5, PHI, 0.5 + PHI, np.array([])).shape == (0,)
