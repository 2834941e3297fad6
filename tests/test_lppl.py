import datetime as dt
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bubblefit import (
    BubbleWindow,
    DegeneracyError,
    GeneratorSpec,
    HazardParams,
    LpplParams,
    Scale,
    UsageError,
    generate,
    hazard_log_price_gain,
    hazard_rate,
    linear_solve,
    lppl_curve,
    monotonicity_check,
    raw_index_validity,
    rmse,
)
from bubblefit.lppl import WindowSolver, window_objective

from conftest import canonical_params, series_from_values, weekday_grid_from, window_of


def make_window(values, start=dt.date(2000, 1, 3), scale=Scale.RAW):
    return window_of(series_from_values(values, start=start, scale=scale))


def curve_window(params: LpplParams, n: int) -> BubbleWindow:
    """Window whose values lie exactly on the model curve."""
    end = params.anchor_date
    dates = tuple(
        d.astype(dt.date)
        for d in np.busday_offset(np.datetime64(end, "D"), np.arange(-(n - 1), 1))
    )
    values = lppl_curve(params, dates)
    from bubblefit import PriceSeries

    series = PriceSeries(dates, values, params.scale)
    return BubbleWindow(dates[0], dates[-1], series)


class TestLpplValue:
    def test_b_zero_gives_level(self):
        params = canonical_params(b=0.0)
        for offset in (0, 30, 200):
            day = np.busday_offset(np.datetime64(params.anchor_date, "D"),
                                   -offset).astype(dt.date)
            assert lppl_curve(params, [day])[0] == 1000.0

    def test_hand_computed_point(self):
        # c = 0, a = 100, b = -10, beta = 0.5, gap of 4 days -> 100 - 10*2
        anchor = dt.date(2005, 6, 30)
        params = LpplParams(a=100.0, b=-10.0, c=0.0, beta=0.5, omega=5.0,
                            t2c=4.0, phi=0.0, anchor_date=anchor)
        assert lppl_curve(params, [anchor])[0] == pytest.approx(80.0)

    def test_domain_error_at_or_past_critical_time(self):
        params = canonical_params(t2c=1.0)
        past = params.anchor_date + dt.timedelta(days=1)  # Friday; gap = 0
        with pytest.raises(ValueError):
            lppl_curve(params, [past])

    def test_phase_sign_identity(self):
        # (c, phi) and (-c, phi + pi) draw the same curve
        p1 = canonical_params(c=0.3, phi=0.8)
        p2 = canonical_params(c=-0.3, phi=0.8 + math.pi)
        dates = weekday_grid_from(dt.date(2004, 1, 5), 120)
        assert np.allclose(lppl_curve(p1, dates), lppl_curve(p2, dates),
                           rtol=1e-12)

    def test_phi_periodicity_of_the_objective(self):
        window = curve_window(canonical_params(), 150)
        objective = window_objective(window)
        theta = [0.4, 5.5, 25.0, 0.7]
        shifted = [0.4, 5.5, 25.0, 0.7 + 2 * math.pi]
        assert objective(shifted) == pytest.approx(objective(theta), rel=1e-9)

    def test_param_validation(self):
        with pytest.raises(UsageError):
            canonical_params(t2c=0.5)
        with pytest.raises(UsageError):
            canonical_params(beta=0.0)
        with pytest.raises(UsageError):
            canonical_params(omega=-1.0)
        with pytest.raises(UsageError):
            canonical_params(phi=7.0)

    @pytest.mark.parametrize("name, value", [
        ("a", -math.inf), ("b", math.nan), ("c", math.inf),
        ("beta", math.nan), ("omega", math.inf), ("t2c", math.inf),
    ])
    def test_non_finite_param_is_named(self, name, value):
        with pytest.raises(UsageError, match=f"^{name} must be finite"):
            canonical_params(**{name: value})


class TestLinearSolve:
    def test_exact_recovery(self):
        params = canonical_params()
        window = curve_window(params, 200)
        solved = linear_solve(params.beta, params.omega, params.t2c, params.phi,
                              window)
        assert solved.a == pytest.approx(params.a, rel=1e-9)
        assert solved.b == pytest.approx(params.b, rel=1e-9)
        assert solved.c == pytest.approx(params.c, rel=1e-9)
        assert not solved.c_degenerate

    def test_residual_orthogonality_against_dense_oracle(self):
        rng = np.random.default_rng(31)
        values = 500.0 + 50.0 * rng.standard_normal(300).cumsum() * 0.1 + 100.0
        window = make_window(np.abs(values) + 10.0)
        beta, omega, t2c, phi = 0.45, 7.2, 40.0, 1.1
        solved = linear_solve(beta, omega, t2c, phi, window)

        gaps = t2c + window.ages_days()
        f = gaps**beta
        g = f * np.cos(omega * np.log(gaps) + phi)
        design = np.column_stack([np.ones_like(f), f, g])
        y = window.values

        # independent dense solve
        oracle, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert solved.a == pytest.approx(oracle[0], rel=1e-6, abs=1e-9)
        assert solved.b == pytest.approx(oracle[1], rel=1e-6, abs=1e-12)
        assert solved.b * solved.c == pytest.approx(oracle[2], rel=1e-6, abs=1e-12)

        resid = y - design @ [solved.a, solved.b, solved.b * solved.c]
        bound = 1e-6 * np.linalg.norm(y)
        for column in design.T:
            assert abs(resid @ column) / np.linalg.norm(column) < bound

    def test_shift_invariance(self):
        params = canonical_params()
        window = curve_window(params, 150)
        shifted = make_window(window.values + 250.0, start=window.start_date)
        base = linear_solve(0.4, 6.0, 20.0, 0.5, window)
        moved = linear_solve(0.4, 6.0, 20.0, 0.5, shifted)
        assert moved.a == pytest.approx(base.a + 250.0, rel=1e-9)
        assert moved.b == pytest.approx(base.b, rel=1e-9)
        assert moved.c == pytest.approx(base.c, rel=1e-9)

    def test_scale_equivariance(self):
        params = canonical_params()
        window = curve_window(params, 150)
        scaled = make_window(window.values * 3.0, start=window.start_date)
        base = linear_solve(0.4, 6.0, 20.0, 0.5, window)
        times3 = linear_solve(0.4, 6.0, 20.0, 0.5, scaled)
        assert times3.a == pytest.approx(3.0 * base.a, rel=1e-9)
        assert times3.b == pytest.approx(3.0 * base.b, rel=1e-9)
        assert times3.c == pytest.approx(base.c, rel=1e-9)

    def test_beta_zero_degenerate_names_pair(self):
        window = make_window(np.linspace(100, 200, 50))
        with pytest.raises(DegeneracyError, match="constant.*power"):
            linear_solve(0.0, 6.0, 20.0, 0.5, window)

    def test_omega_zero_degenerate(self):
        window = make_window(np.linspace(100, 200, 50))
        with pytest.raises(DegeneracyError, match="power.*oscillation"):
            linear_solve(0.5, 0.0, 20.0, 0.5, window)

    def test_near_zero_b_flags_degenerate_c(self):
        window = make_window(np.full(60, 400.0))
        solved = linear_solve(0.5, 6.0, 20.0, 0.5, window)
        assert solved.c == 0.0
        assert solved.c_degenerate

    @pytest.mark.parametrize("name, value", [
        ("phi", math.nan), ("phi", math.inf), ("phi", -math.inf),
        ("beta", math.nan), ("omega", math.nan), ("omega", math.inf),
        ("t2c", math.nan), ("t2c", math.inf),
    ])
    def test_non_finite_parameter_is_named(self, name, value):
        # before the check these read "collinear", "overflow" or a numpy
        # RuntimeWarning, none of them naming the parameter
        params = canonical_params(b=-90.0, c=0.2)
        window = window_of(generate(GeneratorSpec(params, 300, 10.0, 11)))
        theta = {"beta": 0.4, "omega": 6.0, "t2c": 30.0, "phi": 1.0, name: value}
        with pytest.raises(UsageError, match=f"^{name} must be finite"):
            linear_solve(**theta, window=window)

    def test_gap_below_one_day_rejected(self):
        window = make_window(np.linspace(100, 200, 50))
        with pytest.raises(UsageError):
            linear_solve(0.5, 6.0, 0.25, 0.5, window)

    def test_fast_path_matches_careful_path(self):
        params = canonical_params()
        window = curve_window(params, 220)
        rng = np.random.default_rng(8)
        noisy = make_window(window.values + rng.normal(0, 5.0, len(window)),
                            start=window.start_date)
        theta = (0.41, 5.9, 33.0, 1.4)
        careful = linear_solve(*theta, noisy)
        a, b, c, _, _ = WindowSolver(noisy).solve(*theta)
        assert a == pytest.approx(careful.a, rel=1e-9)
        assert b == pytest.approx(careful.b, rel=1e-9)
        assert c == pytest.approx(careful.c, rel=1e-9)


class TestRmse:
    def test_interpolating_params_give_zero(self):
        params = canonical_params()
        window = curve_window(params, 3)
        assert rmse(params, window) == pytest.approx(0.0, abs=1e-9)

    def test_constant_data_b_zero(self):
        params = canonical_params(a=700.0, b=0.0)
        window = make_window(np.full(40, 700.0))
        assert rmse(params, window) == 0.0

    def test_matches_objective_value(self):
        params = canonical_params()
        window = curve_window(params, 180)
        theta = (0.37, 6.1, 28.0, 0.9)
        objective_value = window_objective(window)(theta)
        a, b, c, _, _ = WindowSolver(window).solve(*theta)
        fitted = LpplParams(a, b, c, *theta, anchor_date=window.anchor_date,
                            scale=window.scale)
        assert rmse(fitted, window) == pytest.approx(objective_value, rel=1e-9)


class TestNonlinearRmse:
    def test_penalizes_inadmissible_points(self):
        objective = window_objective(make_window(np.linspace(100, 200, 50)))
        assert objective((-0.1, 6.0, 20.0, 0.5)) == math.inf
        assert objective((0.5, 6.0, 0.5, 0.5)) == math.inf

    def test_negative_omega_reflects(self):
        objective = window_objective(make_window(np.linspace(100, 200, 80)))
        plus = objective((0.5, 6.0, 20.0, 0.5))
        minus = objective((0.5, -6.0, 20.0, -0.5))
        assert minus == pytest.approx(plus, rel=1e-12)


# (beta, omega, t2c) points of the Gauss-Newton system tests: near the
# noisy window's planted fit, a negative omega, and far from the fit
GAUSS_NEWTON_POINTS = [(0.33, 6.36, 30.0), (0.5, -8.0, 60.0), (0.2, 12.0, 15.0),
                       (1.3, 3.0, 100.0), (0.05, -17.0, 200.0)]


@pytest.fixture(scope="module")
def noisy_solver():
    params = canonical_params(b=-90.0, c=0.2)
    return WindowSolver(window_of(generate(GeneratorSpec(params, 300, 5.0, 11))))


class TestGaussNewton:
    @pytest.mark.parametrize("point", GAUSS_NEWTON_POINTS)
    def test_jte_is_half_the_sse_gradient(self, noisy_solver, point):
        _, jte = noisy_solver.gauss_newton(*point)
        gradient = []
        for i in range(3):
            step = 1e-6 * max(abs(point[i]), 1.0)
            up, down = list(point), list(point)
            up[i] += step
            down[i] -= step
            gradient.append((noisy_solver.solve(*up)[4]
                             - noisy_solver.solve(*down)[4]) / (4.0 * step))
        assert jte == pytest.approx(gradient, rel=1e-6)

    def test_jte_is_half_the_sse_gradient_in_the_beta_zero_valley(self,
                                                                   noisy_solver):
        # at beta 1e-5 the f column lies almost along the constant one: the
        # normal equations' SSE is too coarse to difference in beta, so the
        # reference differences the SSE of an SVD least-squares solve. Z e
        # in place of J e gave a beta entry of +4.7e5 here, against -3.1e5
        point = (1e-5, 6.36, 30.0)
        _, jte = noisy_solver.gauss_newton(*point)

        def sse(beta, omega, t2c):
            lg = np.log(noisy_solver.ages + t2c)
            f = np.exp(beta * lg)
            design = np.column_stack([np.ones_like(f), f, f * np.cos(omega * lg),
                                      f * np.sin(omega * lg)])
            return np.linalg.lstsq(design, noisy_solver.y, rcond=None)[1][0]

        gradient = []
        for i, rel in enumerate((1e-2, 1e-6, 1e-6)):
            step = rel * abs(point[i])
            up, down = list(point), list(point)
            up[i] += step
            down[i] -= step
            gradient.append((sse(*up) - sse(*down)) / (4.0 * step))
        assert jte == pytest.approx(gradient, rel=1e-4)

    @pytest.mark.parametrize("point", GAUSS_NEWTON_POINTS)
    def test_jtj_is_symmetric_positive_semidefinite(self, noisy_solver, point):
        jtj, _ = noisy_solver.gauss_newton(*point)
        assert jtj.shape == (3, 3)
        assert np.array_equal(jtj, jtj.T)
        assert np.linalg.eigvalsh(jtj).min() >= -1e-12 * np.abs(jtj).max()

    def test_a_point_solve_rejects_gives_none(self, noisy_solver):
        # sum(f^2) would overflow
        assert noisy_solver.gauss_newton(60.0, 6.0, 30.0) is None
        assert noisy_solver.failure == "overflow"

    def test_a_build_leaves_solve_unchanged(self, noisy_solver):
        before = noisy_solver.solve(0.4, 7.0, 40.0)
        noisy_solver.gauss_newton(0.2, 12.0, 15.0)
        assert noisy_solver.solve(0.4, 7.0, 40.0) == before


class TestHazard:
    def test_power_law_point(self):
        h = HazardParams(kappa=0.5, b_prime=1.0, c_prime=0.0, alpha=0.5)
        assert hazard_rate(h, 5.0, 0.0, t_c=4.0, t=0.0) == pytest.approx(0.5)

    def test_large_oscillation_goes_negative(self):
        h = HazardParams(kappa=0.5, b_prime=1.0, c_prime=1.5, alpha=0.5)
        # choose t so the cosine sits at -1: omega*ln(gap) + phi = pi
        omega, phi = 2.0, 0.0
        gap = math.exp(math.pi / omega)
        assert hazard_rate(h, omega, phi, t_c=gap, t=0.0) < 0.0

    def test_domain_error(self):
        h = HazardParams(kappa=0.5, b_prime=1.0, c_prime=0.0, alpha=0.5)
        with pytest.raises(ValueError):
            hazard_rate(h, 5.0, 0.0, t_c=10.0, t=10.0)

    def test_closed_form_matches_quadrature(self):
        h = HazardParams(kappa=0.25, b_prime=0.8, c_prime=0.6, alpha=0.55)
        omega, phi, t_c = 6.0, 0.9, 500.0
        closed = hazard_log_price_gain(h, omega, phi, t_c, 0.0, 470.0)
        numeric = h.kappa * quad(
            lambda u: hazard_rate(h, omega, phi, t_c, u), 0.0, 470.0, limit=400
        )[0]
        assert closed == pytest.approx(numeric, rel=1e-6)

    def test_pure_power_law_reconstruction(self):
        # with c' = 0 the integrated hazard reproduces a + b * gap**beta,
        # a = log p(tc), beta = 1 - alpha
        h = HazardParams(kappa=0.25, b_prime=0.8, c_prime=0.0, alpha=0.55)
        omega, phi, t_c, t0 = 6.0, 0.9, 500.0, 0.0
        beta = 1.0 - h.alpha
        a = h.kappa * h.b_prime / beta * (t_c - t0) ** beta
        b = -h.kappa * h.b_prime / beta
        for t in (50.0, 200.0, 450.0):
            log_gain = h.kappa * quad(
                lambda u: hazard_rate(h, omega, phi, t_c, u), t0, t, limit=400
            )[0]
            assert math.exp(log_gain) == pytest.approx(
                math.exp(a + b * (t_c - t) ** beta), rel=1e-6
            )


class TestMonotonicity:
    def test_pure_power_law_is_monotone(self):
        params = canonical_params(c=0.0)
        window = curve_window(params, 200)
        monotone, violations = monotonicity_check(params, window)
        assert monotone
        assert violations == []

    def test_known_1989_style_parameters_are_not_monotone(self):
        # strong oscillation relative to the exponent forces local declines
        anchor = dt.date(1989, 5, 15)
        params = LpplParams(a=3575.0, b=-53.0, c=-0.195, beta=0.52, omega=4.95,
                            t2c=31.0, phi=1.74, anchor_date=anchor)
        dates = weekday_grid_from(dt.date(1987, 12, 7), 378)
        dates = tuple(d for d in dates if d <= anchor)
        values = np.linspace(1895.0, 3310.0, len(dates))
        from bubblefit import PriceSeries

        window = BubbleWindow(dates[0], dates[-1],
                              PriceSeries(dates, values))
        monotone, violations = monotonicity_check(params, window)
        assert not monotone
        assert violations

    def test_violations_match_direct_evaluation(self):
        params = canonical_params(c=-0.9, beta=0.2, omega=8.0)
        window = curve_window(canonical_params(), 250)
        monotone, violations = monotonicity_check(params, window)
        assert not monotone
        fitted = lppl_curve(params, window.dates)
        expected = [window.dates[i] for i in range(1, len(window))
                    if fitted[i] < fitted[i - 1]]
        assert violations == expected


class TestRawIndexValidity:
    # published start/end index pairs and their two-decimal ratios
    TABLE = [
        (201.0, 406.0, 2.02, False),
        (279.0, 1775.0, 6.36, False),
        (383.0, 707.0, 1.85, True),
        (468.0, 1655.0, 3.54, False),
        (1222.0, 1810.0, 1.48, True),
        (747.0, 3950.0, 5.29, False),
        (1895.0, 3310.0, 1.75, True),
        (3723.0, 12201.0, 3.28, False),
        (6968.0, 16673.0, 2.39, False),
        (6660.0, 18302.0, 2.75, False),
        (8520.0, 31638.0, 3.71, False),
    ]

    @pytest.mark.parametrize("start,end,expected_ratio,expected_valid", TABLE)
    def test_published_ratio_table(self, start, end, expected_ratio,
                                   expected_valid):
        window = make_window(np.linspace(start, end, 40))
        ratio, valid = raw_index_validity(window)
        assert round(ratio, 2) == expected_ratio
        assert valid == expected_valid

    def test_flat_window_is_valid(self):
        window = make_window(np.full(20, 500.0))
        ratio, valid = raw_index_validity(window)
        assert ratio == 1.0
        assert valid

    def test_requires_raw_scale(self):
        window = make_window(np.linspace(1.0, 2.0, 20), scale=Scale.LOG)
        with pytest.raises(UsageError):
            raw_index_validity(window)
