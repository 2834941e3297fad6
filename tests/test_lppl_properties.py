"""Property tests of the least-squares kernel behind the objective.

The objective takes (beta, omega, t2c) and solves the phase with the
linear parameters, or (beta, omega, t2c, phi) with the phase held. Both
go through one kernel, so the phase-solved value is the minimum over phi
of the phase-held one, and it is attained at the phase the kernel returns.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubblefit import BubbleWindow, GeneratorSpec, PriceSeries, Scale, generate
from bubblefit.lppl import linear_completion, window_objective

from conftest import canonical_params, window_of

BETA = st.floats(0.1, 1.2)
OMEGA = st.floats(2.0, 15.0)
T2C = st.floats(1.0, 250.0)
PHI = st.floats(0.0, 2.0 * math.pi)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def noisy_window() -> BubbleWindow:
    params = canonical_params(b=-90.0, c=0.2)
    return window_of(generate(GeneratorSpec(params, 300, 10.0, 11)))


def moved(window: BubbleWindow, scale: float, shift: float) -> BubbleWindow:
    # the log scale admits the non-positive values a shift can produce
    series = PriceSeries(window.dates, scale * window.values + shift, Scale.LOG)
    return BubbleWindow(window.start_date, window.end_date, series)


@PROPERTY_SETTINGS
@given(beta=BETA, omega=OMEGA, t2c=T2C, phi=PHI)
def test_solved_phase_is_never_worse_than_a_held_one(noisy_window, beta, omega,
                                                     t2c, phi):
    objective = window_objective(noisy_window)
    held = objective((beta, omega, t2c, phi))
    assume(math.isfinite(held))
    solved = objective((beta, omega, t2c))
    assert solved <= held * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(beta=BETA, omega=OMEGA, t2c=T2C)
def test_solved_value_is_attained_at_the_returned_phase(noisy_window, beta,
                                                        omega, t2c):
    objective = window_objective(noisy_window)
    solved = objective((beta, omega, t2c))
    assume(math.isfinite(solved))
    phi = linear_completion(noisy_window, (beta, omega, t2c))[3]
    assert objective((beta, omega, t2c, phi)) == pytest.approx(solved, rel=1e-9)


@PROPERTY_SETTINGS
@given(beta=BETA, omega=OMEGA, t2c=T2C,
       scale=st.floats(0.1, 10.0), shift=st.floats(-1e3, 1e3))
def test_shift_and_scale_equivariance(noisy_window, beta, omega, t2c, scale,
                                      shift):
    theta = (beta, omega, t2c)
    base = linear_completion(noisy_window, theta)
    assume(base is not None)
    a, b, c, phi, sse = base
    other = linear_completion(moved(noisy_window, scale, shift), theta)
    assert other is not None
    spread = float(np.ptp(noisy_window.values))
    assert other[0] == pytest.approx(scale * a + shift, rel=1e-8,
                                     abs=1e-8 * scale * spread)
    assert other[1] == pytest.approx(scale * b, rel=1e-8)
    assert other[2] == pytest.approx(c, rel=1e-8)
    rmse, other_rmse = math.sqrt(sse), math.sqrt(other[4])
    assert other_rmse / rmse == pytest.approx(scale, rel=1e-8)
