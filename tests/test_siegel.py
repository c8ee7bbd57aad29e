"""Step-function limit of the optimal profile on the unit interval."""

import math

import numpy as np
import pytest

from mollab.siegel import (
    asymptotic_constants,
    q_profile,
    q_value,
    step_limit_scan,
)
from tests.conftest import special_mode_for_R


def test_q_symmetry(mode_r5):
    ys = np.linspace(0.0, 1.0, 201)
    Q, _ = q_profile(ys, mode_r5)
    Qr, _ = q_profile(1.0 - ys, mode_r5)
    assert np.max(np.abs(Q + Qr - mode_r5.beta)) <= 1e-12


def test_q_symmetry_general(mode_general):
    ys = np.linspace(0.0, 1.0, 101)
    Q, _ = q_profile(ys, mode_general)
    Qr, _ = q_profile(1.0 - ys, mode_general)
    assert np.max(np.abs(Q + Qr - mode_general.beta)) <= 1e-12


def test_q_endpoint_values(mode_r5):
    Q, _ = q_profile(np.array([0.0, 0.5, 1.0]), mode_r5)
    assert Q[0] == pytest.approx(1.0, abs=1e-9)
    assert Q[1] == pytest.approx(0.5, abs=1e-12)
    assert Q[2] == pytest.approx(0.0, abs=1e-9)


def test_q_profile_derivative_consistent(mode_r2):
    ys = np.linspace(0.1, 0.9, 17)
    _, Qp = q_profile(ys, mode_r2)
    h = 1e-6
    Qh, _ = q_profile(ys + h, mode_r2)
    Ql, _ = q_profile(ys - h, mode_r2)
    fd = (Qh - Ql) / (2.0 * h)
    assert np.max(np.abs(Qp - fd)) <= 1e-5


def test_q_profile_rejects_out_of_range(mode_r2):
    with pytest.raises(ValueError):
        q_profile(np.array([-0.1, 0.5]), mode_r2)
    with pytest.raises(ValueError):
        q_profile(np.array([0.5, 1.1]), mode_r2)


def test_q_value_theta_parameterization():
    # R and theta address the same equal-weight mode.
    R = 8.0
    theta = math.sqrt(3.0 / 5.0) / R
    assert q_value(R, 0.7) == pytest.approx(
        q_value(theta, 0.7, as_theta=True), rel=1e-12
    )
    with pytest.raises(ValueError):
        q_value(R, 1.5)
    with pytest.raises(ValueError):
        q_value(-1.0, 0.5)


def test_step_scan_decreases_to_zero():
    vals = step_limit_scan(0.75, [5.0, 10.0, 20.0, 40.0])
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1e-2


@pytest.mark.parametrize("y0", [0.6, 0.75, 0.9])
def test_step_scan_small_at_R40(y0):
    vals = step_limit_scan(y0, [40.0])
    assert abs(vals[0]) <= 0.05


def test_step_scan_validation():
    with pytest.raises(ValueError):
        step_limit_scan(0.5, [5.0, 10.0])
    with pytest.raises(ValueError):
        step_limit_scan(0.75, [10.0, 5.0])
    with pytest.raises(ValueError):
        step_limit_scan(0.75, [-1.0, 5.0])


def test_q_profile_growth_envelope():
    # No intermediate blow-up on the way to the step limit.
    ys = np.linspace(0.0, 1.0, 301)
    for R in (2.0, 5.0, 10.0, 20.0, 40.0):
        Q, _ = q_profile(ys, special_mode_for_R(R))
        assert np.max(np.abs(Q)) <= 3.0


def test_asymptotic_constants_match():
    d = asymptotic_constants()
    assert d["gamma_ratio_closed"] == pytest.approx(1.2427975, rel=1e-7)
    assert d["cosecant_closed"] == pytest.approx(-2.7595731, rel=1e-7)
    assert d["gamma_ratio_measured"] == pytest.approx(
        d["gamma_ratio_closed"], rel=1e-6
    )
    assert d["cosecant_measured"] == pytest.approx(
        d["cosecant_closed"], rel=1e-6
    )
