"""Property tests of the least-squares kernel behind the objective.

The objective takes (beta, omega, t2c) and solves the phase with the
linear parameters, or (beta, omega, t2c, phi) with the phase held. Both
go through one kernel, so the phase-solved value is the minimum over phi
of the phase-held one, and it is attained at the phase the kernel returns.
The kernel builds its oscillation columns from tan(psi / 2), so its SSE
is also checked against the curve evaluated with np.cos, near the poles
of that tangent too.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubblefit import (BubbleWindow, GeneratorSpec, LpplParams, PriceSeries,
                       Scale, generate)
from bubblefit.lppl import WindowSolver, lppl_curve, window_objective

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


@pytest.fixture(scope="module", params=[300, 1150])
def kernel_window(request) -> BubbleWindow:
    """The noisy bubble at n = 300 and at the benchmark's long window: the
    identity of the stacked and scalar kernels rests on numpy sending both
    to the same BLAS gemm, and BLAS may choose its kernel by size. The
    long window starts about 1,600 days before tc, where the power term
    needs a higher level to keep the prices positive."""
    level = {300: 1000.0, 1150: 2000.0}[request.param]
    params = canonical_params(a=level, b=-90.0, c=0.2)
    return window_of(generate(GeneratorSpec(params, request.param, 10.0, 11)))


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
    phi = WindowSolver(noisy_window).solve(beta, omega, t2c)[3]
    assert objective((beta, omega, t2c, phi)) == pytest.approx(solved, rel=1e-9)


def curve_sse(window: BubbleWindow, beta, omega, t2c, solved) -> float:
    """SSE of the fully specified curve, evaluated with np.cos."""
    a, b, c, phi, _ = solved
    params = LpplParams(a, b, c, beta, omega, t2c, phi % (2.0 * math.pi),
                        window.anchor_date, window.scale)
    resid = window.values - lppl_curve(params, window.dates)
    return float(resid @ resid)


@PROPERTY_SETTINGS
@given(beta=BETA, omega=st.floats(0.0, 50.0), t2c=T2C,
       phi=st.none() | PHI)
def test_kernel_sse_matches_the_curve(noisy_window, beta, omega, t2c, phi):
    theta = (beta, omega, t2c) if phi is None else (beta, omega, t2c, phi)
    solved = WindowSolver(noisy_window).solve(*theta)
    assume(solved is not None)
    assert solved[4] == pytest.approx(
        curve_sse(noisy_window, beta, omega, t2c, solved), rel=1e-9)


@pytest.mark.parametrize("phi", [None, 0.0])
def test_kernel_at_a_pole_of_the_half_angle_tangent(noisy_window, phi):
    beta, t2c = 0.5, 20.0
    log_tau = math.log(t2c + noisy_window.ages_days()[150])
    omega = math.pi / log_tau  # omega ln(tau) / 2 is pi / 2 on that day
    assert abs(math.tan(0.5 * omega * log_tau)) > 1e12
    theta = (beta, omega, t2c) if phi is None else (beta, omega, t2c, phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solved = WindowSolver(noisy_window).solve(*theta)
    assert solved is not None and math.isfinite(solved[4])
    assert solved[4] == pytest.approx(
        curve_sse(noisy_window, beta, omega, t2c, solved), rel=1e-9)


@PROPERTY_SETTINGS
@given(beta=BETA, omega=OMEGA, t2c=T2C,
       scale=st.floats(0.1, 10.0), shift=st.floats(-1e3, 1e3))
def test_shift_and_scale_equivariance(noisy_window, beta, omega, t2c, scale,
                                      shift):
    theta = (beta, omega, t2c)
    base = WindowSolver(noisy_window).solve(*theta)
    assume(base is not None)
    a, b, c, phi, sse = base
    other = WindowSolver(moved(noisy_window, scale, shift)).solve(*theta)
    assert other is not None
    spread = float(np.ptp(noisy_window.values))
    assert other[0] == pytest.approx(scale * a + shift, rel=1e-8,
                                     abs=1e-8 * scale * spread)
    assert other[1] == pytest.approx(scale * b, rel=1e-8)
    assert other[2] == pytest.approx(c, rel=1e-8)
    rmse, other_rmse = math.sqrt(sse), math.sqrt(other[4])
    assert other_rmse / rmse == pytest.approx(scale, rel=1e-8)


def edge_rows(window: BubbleWindow, held: bool) -> list[tuple]:
    """Points on or next to each rule of the kernel, one per rule."""
    ages = window.ages_days()
    guard_t2c = 30.0
    guard_beta = (700.0 - math.log(len(window))) / (
        2.0 * math.log(guard_t2c + ages.max()))
    rows = [
        (0.5, math.pi / math.log(20.0 + ages[150]), 20.0),  # a tan(psi / 2) pole
        (guard_beta * (1.0 - 1e-9), 6.0, guard_t2c),        # inside the overflow guard
        (guard_beta * (1.0 + 1e-9), 6.0, guard_t2c),        # outside it
        (1e-12, 6.0, 30.0),                                 # beta -> 0: collinear
        (38.0, 6.0, 7500.0),                                # b below the b-floor
        (0.4, 6.0, 0.5),                                    # t2c < 1
        (math.nan, math.nan, math.nan),
    ]
    if not held:
        return rows + [(0.4, 0.0, 30.0)]                    # sin column all zero
    return [row + (0.0 if i == 0 else 1.0,) for i, row in enumerate(rows)] + [
        (0.4, -6.0, 30.0, 1.0),                             # negative omega
        (0.4, 6.0, 30.0, math.nan),
        (0.4, 6.0, 30.0, math.inf),
    ]


@PROPERTY_SETTINGS
@given(rows=st.lists(st.tuples(BETA, st.floats(-20.0, 50.0), st.floats(-5.0, 250.0),
                               PHI), min_size=1, max_size=40),
       held=st.booleans(), repeat=st.sampled_from([1, 10]),
       with_edges=st.booleans())
def test_stacked_kernel_matches_the_scalar_one(kernel_window, rows, held, repeat,
                                               with_edges):
    # stacks of 1 to 40 random rows fall on both sides of the small-block
    # rule; repeated tenfold they span several blocks
    width = 4 if held else 3
    points = [row[:width] for row in rows] * repeat
    if with_edges:
        points += edge_rows(kernel_window, held)
    solver = WindowSolver(kernel_window)
    many = solver.rmse_many(np.array(points))
    one = np.array([solver.rmse_at(*p) for p in points])
    assert np.array_equal(np.isfinite(many), np.isfinite(one))
    finite = np.isfinite(one)
    assert np.array_equal(many[finite], one[finite])


@pytest.mark.parametrize("held", [False, True])
def test_stacked_kernel_over_a_sequence_of_stack_sizes(kernel_window, held):
    # one solver, so the block buffers are made once and reused: 5 rows go
    # through rmse_at one at a time, 300 span several blocks with a partial
    # last one at n = 1,150, 37 fit in one block at n = 300, and 37 and 61
    # reuse buffers that a larger call filled
    solver = WindowSolver(kernel_window)
    rng = np.random.default_rng(27)
    for size in (5, 300, 37, 300, 61):
        points = np.column_stack([rng.uniform(0.1, 1.2, size),
                                  rng.uniform(2.0, 15.0, size),
                                  rng.uniform(1.0, 250.0, size),
                                  rng.uniform(0.0, 2.0 * math.pi, size)])
        points = points if held else points[:, :3]
        many = solver.rmse_many(points)
        one = np.array([solver.rmse_at(*p) for p in points.tolist()])
        assert np.isfinite(one).mean() > 0.9
        assert np.array_equal(many, one)


@PROPERTY_SETTINGS
@given(rows=st.lists(st.tuples(BETA, OMEGA, T2C, PHI), min_size=1, max_size=40))
def test_held_phase_negative_omega_equals_its_mirror(noisy_window, rows):
    # cos(-omega x + phi) = cos(omega x - phi), and the kernel's columns
    # follow tan(psi / 2), which is odd, so the two points agree to the bit;
    # stacks of 1 to 40 rows fall on both sides of the small-block rule
    solver = WindowSolver(noisy_window)
    negative = np.array([(b, -w, t, p) for b, w, t, p in rows])
    mirrored = np.array([(b, w, t, -p) for b, w, t, p in rows])
    for point, mirror in zip(negative.tolist(), mirrored.tolist()):
        assert solver.rmse_at(*point) == solver.rmse_at(*mirror)
    assert np.array_equal(solver.rmse_many(negative), solver.rmse_many(mirrored))


@pytest.mark.parametrize("held, causes", [
    (False, ["ok", "b_floor", "overflow", "collinear", "b_floor", "collinear"]),
    (True, ["ok", "b_floor", "overflow", "collinear", "b_floor", "ok",
            "collinear", "collinear"]),
])
def test_kernel_rejection_cause_of_each_edge_row(kernel_window, held, causes):
    # the edge rows inside rmse_at's (beta, t2c) domain, straight into
    # solve: a held phase's NaN and inf reach it that way, and a zero
    # divisor in the scalar LDL^T must still read "collinear"
    solver = WindowSolver(kernel_window)
    found = []
    for row in edge_rows(kernel_window, held):
        if not (row[0] > 0.0 and row[2] >= 1.0):
            continue
        with np.errstate(invalid="ignore"):   # tan(inf / 2)
            solved = solver.solve(*row)
        found.append("ok" if solved is not None else solver.failure)
    assert found == causes
