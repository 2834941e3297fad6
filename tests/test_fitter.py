import datetime as dt
import math

import numpy as np
import pytest

from bubblefit import (
    BubbleWindow,
    Classification,
    GeneratorSpec,
    LpplParams,
    PrecursorRanges,
    Scale,
    SearchBounds,
    SearchSettings,
    UsageError,
    canonicalize_theta,
    classify_fit,
    fit_bubble,
    generate,
    nelder_mead,
    recursive_seed_search,
    rmse,
)
from bubblefit.fitter import _boundary_warnings, classify_theta
from bubblefit.lppl import linear_solve, window_objective

from conftest import canonical_params, window_of

# keep unit tests quick; the acceptance suite exercises default settings
LIGHT = SearchSettings(x_tol_rel=1e-4, f_tol_rel=1e-7, max_evals=1500,
                       restarts=1, stall_evals=250)
LIGHT_BOUNDS = SearchBounds(min_width_beta=0.4, min_width_omega=4.0)

RECOVERY_TOL = {"beta": 1e-3, "omega": 1e-2, "t2c": 0.5, "phi": 1e-2}


def rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestNelderMead:
    def test_convex_quadratic(self):
        target = np.array([1.0, 2.0, 3.0, 4.0])

        def objective(x):
            return float(np.sum((np.asarray(x) - target) ** 2))

        result = nelder_mead(objective, np.zeros(4), x_tol=1e-8, f_tol=1e-14)
        assert result.converged
        assert np.allclose(result.x, target, atol=1e-5)

    def test_rosenbrock_from_near_optimum(self):
        seed = np.array([1.05, 0.95, 1.02, 0.98])
        result = nelder_mead(rosenbrock, seed, x_tol=1e-9, f_tol=1e-15)
        assert np.allclose(result.x, np.ones(4), atol=1e-4)

    def test_seed_at_strict_local_minimum_is_returned(self):
        target = np.array([2.0, -1.0, 0.5])

        def objective(x):
            return float(np.sum((np.asarray(x) - target) ** 2))

        result = nelder_mead(objective, target.copy())
        assert np.array_equal(result.x, target)
        assert result.value == 0.0

    def test_non_finite_seed_is_usage_error(self):
        with pytest.raises(UsageError):
            nelder_mead(lambda x: math.inf, np.zeros(2))

    def test_eval_budget_flags_unconverged(self):
        result = nelder_mead(rosenbrock, np.array([3.0, -4.0, 2.0, 5.0]),
                             x_tol=1e-14, f_tol=0.0, max_evals=50)
        assert not result.converged
        assert result.evaluations >= 50

    def test_nan_objective_treated_as_inf(self):
        def objective(x):
            return math.nan if x[0] > 1.0 else float(x[0] ** 2)

        result = nelder_mead(objective, np.array([0.5]))
        assert abs(result.x[0]) < 1e-5

    def test_stall_cutoff_limits_evaluations(self):
        # a valley descending toward infinity never converges; the stall
        # guard should abandon it early
        def drifting(x):
            return 1.0 / (1.0 + abs(float(x[0])))

        capped = nelder_mead(drifting, np.array([1.0]), x_tol=1e-12,
                             f_tol=1e-15, max_evals=20000, stall_evals=100)
        assert not capped.converged
        assert capped.evaluations < 5000

    # The two pinned runs below record what the simplex returned when it
    # was held as numpy rows; the list-of-floats simplex must take the
    # same steps, so evaluations, x and value match exactly.
    def test_pinned_rosenbrock_trajectory(self):
        result = nelder_mead(rosenbrock, [3.0, -4.0, 2.0], x_tol=1e-8,
                             f_tol=1e-14)
        assert result.evaluations == 423
        assert result.converged
        assert result.x.tolist() == [1.0000000000976017, 1.0000000004461784,
                                     1.0000000009147518]
        assert result.value == 6.5576007647688864e-18

    def test_pinned_half_plane_stall_trajectory(self):
        def half_plane(x):
            if x[0] + x[1] > 1.0:
                return math.inf
            return (x[0] - 2.0) ** 2 + 3.0 * (x[1] - 1.0) ** 2

        result = nelder_mead(half_plane, [-1.0, -1.0], x_tol=1e-15,
                             f_tol=1e-12, stall_evals=40)
        assert result.evaluations == 530
        assert not result.converged
        assert isinstance(result.x, np.ndarray)
        assert result.x.tolist() == [0.5000000294126983, 0.4999999705872992]
        assert result.value == 3.0000000000000107

    @pytest.mark.parametrize("budget", [
        dict(x_tol=1e-8, f_tol=1e-14),
        dict(x_tol=[1e-6, 1e-3, 1e-6], f_tol=1e-10, max_evals=120,
             stall_evals=30),
    ], ids=["converging", "capped"])
    def test_stacked_seeds_match_single_seed_runs(self, budget):
        def objective(x):
            # a Rosenbrock valley cut by an infeasible and a NaN region
            if x[2] > 4.0:
                return math.inf
            if x[0] < -3.0:
                return math.nan
            return rosenbrock(x)

        # the fourth seed is infeasible and the fifth NaN: both raise alone
        seeds = [[3.0, -4.0, 2.0], [-1.0, 1.0, 0.5], [0.0, 0.0, 0.0],
                 [1.0, 2.0, 5.0], [-3.5, 1.0, 1.0], [1.0, 1.0, 1.0]]
        rounds = []

        def stacked(batch):
            live = ~np.isnan(batch).any(axis=1)
            rounds.append(live.tolist())
            return [objective(x) if ok else math.nan
                    for x, ok in zip(batch.tolist(), live)]

        results = nelder_mead(stacked, np.array(seeds), **budget)
        evals = []
        for seed, got in zip(seeds, results):
            try:
                alone = nelder_mead(objective, seed, **budget)
            except UsageError:
                assert got is None
                evals.append(1)
                continue
            assert got.x.tolist() == alone.x.tolist()
            assert (got.value, got.evaluations, got.converged) == (
                alone.value, alone.evaluations, alone.converged)
            evals.append(alone.evaluations)
        # one call per round, and a simplex's row is NaN once it has stopped
        assert rounds == [[j < e for e in evals] for j in range(max(evals))]


class TestCanonicalize:
    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            theta = (float(rng.uniform(0.01, 3)), float(rng.uniform(-25, 25)),
                     float(rng.uniform(1, 300)), float(rng.uniform(-10, 10)))
            once = canonicalize_theta(theta)
            assert canonicalize_theta(once) == once
            assert once[1] >= 0.0
            assert 0.0 <= once[3] < math.pi

    def test_phase_shift_maps_to_same_representative(self):
        base = canonicalize_theta((0.4, 6.0, 30.0, 0.8))
        shifted = canonicalize_theta((0.4, 6.0, 30.0, 0.8 + math.pi))
        assert shifted[3] == pytest.approx(base[3], abs=1e-12)

    def test_negative_omega_preserves_objective(self, noise_free_window):
        objective = window_objective(noise_free_window)
        raw = (0.45, -6.1, 40.0, -1.2)
        canonical = canonicalize_theta(raw)
        assert canonical[1] == 6.1
        assert objective(canonical) == pytest.approx(objective(raw), rel=1e-12)


class TestClassify:
    def test_published_2007_style_fit_is_precursor(self):
        assert classify_theta(0.20, 5.41) is Classification.PRECURSOR

    def test_beta_past_one_rejected(self):
        assert classify_theta(2.41, 3.02) is Classification.REJECTED_BETA_GE_1

    def test_range_midpoints(self):
        assert classify_theta(0.33, 6.36) is Classification.PRECURSOR

    def test_inclusive_endpoints(self):
        assert classify_theta(0.15, 4.80) is Classification.PRECURSOR
        assert classify_theta(0.51, 7.92) is Classification.PRECURSOR

    def test_outside_omega(self):
        assert classify_theta(0.26, 1.45) is Classification.NOT_PRECURSOR

    def test_classify_fit_reads_result_params(self, noise_free_fits):
        assert classify_fit(noise_free_fits[0]) is Classification.PRECURSOR

    def test_boundary_warning_for_just_outside_beta(self):
        notes = _boundary_warnings(0.52, 4.95, PrecursorRanges())
        assert any("beta" in n and "0.51" in n for n in notes)

    def test_no_warning_well_inside(self):
        assert _boundary_warnings(0.33, 6.36, PrecursorRanges()) == ()


class TestRecursiveSeedSearch:
    def test_full_width_minimums_explore_single_seed(self, noise_free_window):
        bounds = SearchBounds(min_width_beta=2.0, min_width_omega=20.0)
        fits = recursive_seed_search(noise_free_window, bounds=bounds,
                                     settings=LIGHT)
        midpoint = (1.0, 10.0, 130.5, math.pi / 2)
        assert {f.seed_used for f in fits} == {midpoint}

    def test_noise_free_recovery(self, noise_free_fits):
        best = noise_free_fits[0]
        beta, omega, t2c, phi = best.params.theta()
        assert beta == pytest.approx(0.33, abs=RECOVERY_TOL["beta"])
        assert omega == pytest.approx(6.36, abs=RECOVERY_TOL["omega"])
        assert t2c == pytest.approx(30.0, abs=RECOVERY_TOL["t2c"])
        assert phi == pytest.approx(1.0, abs=RECOVERY_TOL["phi"])

    def test_best_not_worse_than_any_seed(self, noise_free_window,
                                          noise_free_fits):
        objective = window_objective(noise_free_window)
        best_rmse = noise_free_fits[0].diagnostics.rmse
        for seed in {f.seed_used for f in noise_free_fits}:
            assert best_rmse <= objective(seed) + 1e-12

    def test_stored_rmse_matches_recomputation(self, noise_free_window,
                                               noise_free_fits):
        for fit in noise_free_fits[:10]:
            recomputed = rmse(fit.params, noise_free_window)
            assert recomputed == pytest.approx(fit.diagnostics.rmse,
                                               rel=1e-9, abs=1e-9)

    def test_reported_values_are_on_the_objective_path(self, noise_free_window,
                                                       noise_free_fits):
        # every kept fit reports exactly what the objective and the linear
        # solve give at its canonical point
        objective = window_objective(noise_free_window)
        for fit in noise_free_fits:
            theta = fit.params.theta()
            assert fit.diagnostics.rmse == objective(theta)
            assert (fit.params.a, fit.params.b, fit.params.c) == tuple(
                linear_solve(*theta, noise_free_window)[:3])

    def test_ranking_and_dedup(self, noise_free_fits):
        values = [f.diagnostics.rmse for f in noise_free_fits]
        assert values == sorted(values)
        thetas = [f.params.theta() for f in noise_free_fits]
        for i, a in enumerate(thetas):
            for b in thetas[i + 1:]:
                assert not all(
                    abs(a[k] - b[k]) < tol
                    for k, tol in enumerate((1e-3, 1e-3, 0.5, 1e-3))
                )

    def test_deterministic(self, small_window):
        first = recursive_seed_search(small_window, bounds=LIGHT_BOUNDS,
                                      settings=LIGHT)
        second = recursive_seed_search(small_window, bounds=LIGHT_BOUNDS,
                                       settings=LIGHT)
        assert [f.to_dict() for f in first] == [f.to_dict() for f in second]

    def test_too_few_observations(self):
        series = generate(GeneratorSpec(canonical_params(), n_weekdays=10,
                                        noise_sigma=0.0, rng_seed=2))
        window = window_of(series)
        short = BubbleWindow(window.start_date, window.dates[8],
                             window.series_slice.slice_indices(0, 9))
        with pytest.raises(UsageError):
            recursive_seed_search(short)

    def test_function_evaluations_positive(self, noise_free_fits):
        assert all(f.function_evaluations > 0 for f in noise_free_fits)

    def test_coarse_partition_escapes_the_beta_zero_valley(self):
        # a weakly oscillating bubble whose coarse-partition search used to
        # end in the beta -> 0 valley at RMSE 4.32; the planted minimum is
        # at RMSE 0.4964
        params = LpplParams(a=1000.0, b=-60.0, c=0.05, beta=0.33, omega=6.36,
                            t2c=30.0, phi=3.58, anchor_date=dt.date(1997, 2, 21))
        window = window_of(generate(GeneratorSpec(params, 300, 0.5, 504464362)))
        report = fit_bubble(window, bounds=SearchBounds(min_width_beta=0.5,
                                                        min_width_omega=5.0))
        assert report.best.params.beta == pytest.approx(0.33, abs=0.05)
        assert report.best.diagnostics.rmse <= 0.4964 * (1.0 + 1e-4)


@pytest.fixture(scope="module")
def small_window():
    """150-observation noise-free window with a valid (< 2) rise ratio."""
    series = generate(GeneratorSpec(canonical_params(), n_weekdays=150,
                                    noise_sigma=0.0, rng_seed=2))
    return window_of(series)


@pytest.fixture(scope="module")
def steep_window():
    """Noise-free window whose end/start ratio exceeds 2."""
    params = canonical_params(a=500.0, b=-60.0, c=0.04)
    series = generate(GeneratorSpec(params, n_weekdays=150, noise_sigma=0.0,
                                    rng_seed=3))
    return window_of(series)


@pytest.fixture(scope="module")
def small_report(small_window):
    return fit_bubble(small_window, bounds=LIGHT_BOUNDS, settings=LIGHT)


class TestFitBubble:
    def test_auto_selects_log_when_ratio_exceeds_two(self, steep_window):
        ratio = steep_window.values[-1] / steep_window.values[0]
        assert ratio > 2
        report = fit_bubble(steep_window, bounds=LIGHT_BOUNDS,
                            settings=LIGHT)
        assert report.scale_used == Scale.LOG
        assert not report.raw_fit_valid
        assert report.validity_ratio == pytest.approx(ratio)
        assert report.best.params.scale == Scale.LOG

    def test_explicit_raw_overrides_auto(self, steep_window):
        report = fit_bubble(steep_window, scale_choice="raw",
                            bounds=LIGHT_BOUNDS, settings=LIGHT)
        assert report.scale_used == Scale.RAW

    def test_paper_mode_prefers_raw_and_floors_beta(self, steep_window):
        report = fit_bubble(steep_window, paper_mode=True,
                            bounds=LIGHT_BOUNDS, settings=LIGHT)
        assert report.scale_used == Scale.RAW
        assert all(f.params.beta >= 0.01 for f in report.fits)

    def test_auto_keeps_raw_when_valid(self, small_report):
        assert small_report.scale_used == Scale.RAW
        assert small_report.raw_fit_valid

    def test_noise_free_precursor_report(self, small_report):
        best = small_report.best
        assert best.classification is Classification.PRECURSOR
        assert best.diagnostics.is_precursor
        assert best.diagnostics.monotone_increasing
        assert small_report.best_precursor is not None
        assert small_report.best_precursor.params.theta() == best.params.theta()

    def test_report_dict_shape(self, small_report, small_window):
        payload = small_report.to_dict()
        assert payload["scale_used"] == "raw"
        assert payload["fits"][0]["rank"] == 1
        assert payload["best_fit"]["params"]["beta"] == pytest.approx(
            small_report.best.params.beta)
        assert payload["window"]["n_observations"] == len(small_window)

    def test_rejects_log_scale_window(self, steep_window):
        with pytest.raises(UsageError):
            fit_bubble(steep_window.with_log_values())

    def test_unknown_scale_choice(self, small_window):
        with pytest.raises(UsageError):
            fit_bubble(small_window, scale_choice="both")
