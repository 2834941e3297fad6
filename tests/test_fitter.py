import dataclasses
import datetime as dt
import functools
import math

import numpy as np
import pytest

from bubblefit import (
    BubbleWindow,
    Classification,
    DataError,
    GeneratorSpec,
    LpplParams,
    PrecursorRanges,
    Scale,
    SearchBounds,
    SearchSettings,
    UsageError,
    canonicalize_theta,
    fit_bubble,
    generate,
    nelder_mead,
    recursive_seed_search,
    rmse,
)
from bubblefit import fitter
from bubblefit.fitter import _boundary_warnings, _fit_tolerances, classify_theta
from bubblefit.lppl import WindowSolver, linear_solve, window_objective

from conftest import (
    ANCHOR,
    NOISY_PARAMS,
    canonical_params,
    series_from_values,
    window_of,
)
from search_oracle import grid_oracle

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

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_seed_ends_at_once(self, value):
        calls = []

        def objective(x):
            calls.append(x)
            return value

        result = nelder_mead(objective, [0.5, 2.0])
        assert calls == [[0.5, 2.0]]
        assert isinstance(result.x, np.ndarray)
        assert (result.x.tolist(), result.value, result.evaluations,
                result.converged) == ([0.5, 2.0], math.inf, 1, False)

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
                             f_tol=1e-12, max_evals=530)
        assert result.evaluations == 530
        assert not result.converged
        assert isinstance(result.x, np.ndarray)
        assert result.x.tolist() == [0.5000000294126983, 0.4999999705872992]
        assert result.value == 3.0000000000000107

    # each budget ends at least one run by its stop rule, on stacks of 7
    # and of 80 seeds
    @pytest.mark.parametrize("budget, stop, ndim, size", [
        pytest.param(budget, stop, ndim, size, id="-".join(filter(None, (shape, name))))
        for shape, ndim, size in (("", 3, 7), ("arrays_2d", 2, 80),
                                  ("arrays_3d", 3, 80))
        for name, budget, stop in (
            ("converging", dict(x_tol=1e-8, f_tol=1e-14), "converged"),
            ("capped", dict(x_tol=[1e-6, 1e-3, 1e-6], f_tol=1e-10,
                            max_evals=120), "capped"))
    ])
    def test_stacked_seeds_match_single_seed_runs(self, budget, stop, ndim, size):
        def objective(x):
            # a Rosenbrock valley cut by two infeasible half-spaces, whose
            # corner gives tied inf values, and a NaN region; the last
            # special seed is -inf
            if x[-1] > 4.0 or x[0] > 4.0:
                return math.inf
            if x[0] == -6.0:
                return -math.inf
            if x[0] < -3.0:
                return math.nan
            return rosenbrock(x)

        # zero coordinates, an infeasible, a NaN and a -inf seed (all three
        # end at once at +inf), and a seed whose start vertices are both inf
        special = [[3.0, -4.0, 2.0], [-1.0, 1.0, 0.5], [0.0, 0.0, 0.0],
                   [1.0, 2.0, 5.0], [-3.5, 1.0, 1.0], [-6.0, 1.0, 1.0],
                   [3.9, 1.0, 3.9]]
        columns = [0, 1, 2] if ndim == 3 else [0, 2]
        rng = np.random.default_rng(ndim)
        seeds = np.vstack([np.array(special)[:, columns],
                           rng.uniform(-4.0, 5.0, (size - len(special), ndim))])
        if isinstance(budget["x_tol"], list):
            budget = dict(budget, x_tol=budget["x_tol"][-ndim:])
        rounds = []

        def stacked(batch):
            live = ~np.isnan(batch).any(axis=1)
            rounds.append(live.tolist())
            return [objective(x) if ok else math.nan
                    for x, ok in zip(batch.tolist(), live)]

        results = nelder_mead(stacked, seeds, **budget)
        evals, stops = [], set()
        for seed, got in zip(seeds, results):
            alone = nelder_mead(objective, seed, **budget)
            assert got.x.tolist() == alone.x.tolist()
            assert (got.value, got.evaluations, got.converged) == (
                alone.value, alone.evaluations, alone.converged)
            evals.append(alone.evaluations)
            if alone.value == math.inf:
                continue
            if not alone.converged:
                assert alone.evaluations >= budget.get("max_evals", 20000)
            stops.add("converged" if alone.converged else "capped")
        assert [(r.x.tolist(), r.value, r.evaluations, r.converged)
                for r in results[3:6]] == [(seed.tolist(), math.inf, 1, False)
                                           for seed in seeds[3:6]]
        assert stop in stops
        # one call per round, and a simplex's row is NaN once it has stopped
        assert rounds == [[j < e for e in evals] for j in range(max(evals))]

    def test_one_row_stack_matches_single_seed_run(self):
        seed = [3.0, -4.0, 2.0]
        [got] = nelder_mead(lambda batch: [rosenbrock(x) for x in batch], [seed],
                            x_tol=1e-8, f_tol=1e-14)
        alone = nelder_mead(rosenbrock, seed, x_tol=1e-8, f_tol=1e-14)
        assert got.x.tolist() == alone.x.tolist()
        assert (got.value, got.evaluations, got.converged) == (
            alone.value, alone.evaluations, alone.converged)

    def test_empty_stack_makes_no_call(self):
        def objective(batch):
            raise AssertionError("called on an empty stack")

        assert nelder_mead(objective, np.empty((0, 3))) == []

    def test_zero_dimensional_stack_matches_single_seed_runs(self):
        # a budget of one evaluation ends a simplex in the round that
        # ends a seed that is not finite
        values = [1.0] * 77 + [math.inf, math.nan, -math.inf]
        for max_evals, converged in ((20000, True), (1, False)):
            stacked = nelder_mead(lambda batch: values, np.empty((80, 0)),
                                  max_evals=max_evals)
            alone = [nelder_mead(lambda x: value, [], max_evals=max_evals)
                     for value in values]
            rows = [(r.x.tolist(), r.value, r.evaluations, r.converged)
                    for r in stacked]
            assert rows == [(r.x.tolist(), r.value, r.evaluations, r.converged)
                            for r in alone]
            assert rows == ([([], 1.0, 1, converged)] * 77
                            + [([], math.inf, 1, False)] * 3)


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
        best = noise_free_fits[0]
        assert best.classification is classify_theta(best.params.beta,
                                                     best.params.omega)
        assert best.classification is Classification.PRECURSOR

    @pytest.mark.parametrize("ranges", [
        {"beta_range": (0.1, math.inf)},
        {"omega_range": (-math.inf, 7.92)},
    ], ids=["beta_inf", "omega_minus_inf"])
    def test_non_finite_range_is_rejected(self, ranges):
        with pytest.raises(UsageError, match="finite"):
            PrecursorRanges(**ranges)

    def test_boundary_warning_for_just_outside_beta(self):
        notes = _boundary_warnings(0.52, 4.95, PrecursorRanges())
        assert any("beta" in n and "0.51" in n for n in notes)

    def test_no_warning_well_inside(self):
        assert _boundary_warnings(0.33, 6.36, PrecursorRanges()) == ()


def recording_seeds(monkeypatch) -> list:
    """Record the seed of every seed search, in order."""
    seeds = []
    search_from_seed = fitter._search_from_seed

    def recording(objective, seed, *args):
        seeds.append(tuple(seed.tolist()))
        return search_from_seed(objective, seed, *args)

    monkeypatch.setattr(fitter, "_search_from_seed", recording)
    return seeds


class TestRecursiveSeedSearch:
    def test_bounds_are_beta_omega_t2c_triples(self):
        # the phase is solved, not searched: a phi bound is an error
        with pytest.raises(UsageError, match="triples"):
            SearchBounds((0.0, 0.0, 1.0, 0.0), (2.0, 20.0, 260.0, math.pi))

    @pytest.mark.parametrize("lower, upper", [
        ((0.0, 0.0, -10.0), (2.0, 20.0, 1.0)),
        ((-2.0, 0.0, 1.0), (1.0, 20.0, 260.0)),
    ], ids=["t2c_below_1", "beta_not_positive"])
    def test_midpoint_outside_the_model_is_rejected(self, lower, upper):
        with pytest.raises(UsageError, match="midpoint"):
            SearchBounds(lower, upper)

    @pytest.mark.parametrize("field, value", [
        ("x_tol_rel", -1e-6),
        ("f_tol_rel", math.nan),
        ("max_evals", 0),
        ("restarts", -1),
        ("restarts", 2),
        ("stall_evals", 0),
        ("stall_evals", None),
        # a bool is an int to isinstance; True would give one evaluation
        ("max_evals", True),
        ("restarts", True),
        ("stall_evals", True),
    ])
    def test_settings_that_break_the_search_are_rejected(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} "):
            SearchSettings(**{field: value})

    def test_full_width_minimums_explore_single_seed(self, noise_free_window):
        bounds = SearchBounds(min_width_beta=2.0, min_width_omega=20.0)
        fits = recursive_seed_search(noise_free_window, bounds=bounds,
                                     settings=LIGHT)
        midpoint = (1.0, 10.0, 130.5)
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
        assert_ranked_and_apart(noise_free_fits)

    @pytest.mark.parametrize("k", range(3))
    def test_chain_fits_are_ranked_and_apart(self, k):
        assert_ranked_and_apart(chain_fits(k))

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

    def test_each_seed_is_searched_once(self, small_window, monkeypatch):
        # this window's partition comes back to several boxes it has
        # already searched (19 box visits, 15 distinct midpoints)
        searched = recording_seeds(monkeypatch)
        fits = recursive_seed_search(small_window, bounds=LIGHT_BOUNDS,
                                     settings=LIGHT)
        assert len(searched) == len(set(searched))
        assert {f.seed_used for f in fits} <= set(searched)

    def test_a_seed_search_depends_on_its_seed_alone(self, small_window):
        objective = window_objective(small_window)
        system = WindowSolver(small_window).gauss_newton
        x_tol, f_tol = _fit_tolerances(small_window, LIGHT_BOUNDS, LIGHT)
        seed = np.array([1.0, 10.0, 130.5])
        first, first_at_edge = fitter._search_from_seed(
            objective, seed, x_tol, f_tol, LIGHT, system, False, [])
        fitter._search_from_seed(objective, np.array([0.5, 15.0, 130.5]),
                                 x_tol, f_tol, LIGHT, system, False, [])
        again, again_at_edge = fitter._search_from_seed(
            objective, seed, x_tol, f_tol, LIGHT, system, False, [])
        assert first.x.tolist() == again.x.tolist()
        assert (first.value, first.evaluations, first.converged, first_at_edge) == (
            again.value, again.evaluations, again.converged, again_at_edge)

    def test_a_seed_is_polished_once(self, small_window, monkeypatch):
        # the polish gains far more than f_tol and ends converged, and still
        # no second polish follows
        starts = []

        def polish(objective, system, start, *args):
            starts.append(start.value)
            return start._replace(value=start.value - 1.0, evaluations=1,
                                  converged=True)

        monkeypatch.setattr(fitter, "_polish", polish)
        x_tol, f_tol = _fit_tolerances(small_window, LIGHT_BOUNDS, LIGHT)
        outcome, _ = fitter._search_from_seed(
            window_objective(small_window), np.array([1.0, 10.0, 130.5]),
            x_tol, f_tol, LIGHT, None, False, [])
        assert len(starts) == 1
        assert outcome.value == starts[0] - 1.0

    @pytest.mark.parametrize("flagged", ["second", "every"])
    def test_a_fit_at_the_edge_is_reported_only_if_no_other_is_kept(
            self, small_window, monkeypatch, flagged):
        # two fits, as the first seed keeps a bowl's minimum at beta 0.7 and
        # the second one moved to beta 0.3: marking seeds as ended at the
        # edge changes the report alone, the same seeds are searched, and
        # later seeds still stop at their points
        search_from_seed = fitter._search_from_seed
        seeds, at_edge = [], set()

        def flagging(objective, seed, *args):
            seeds.append(tuple(seed.tolist()))
            outcome, edge = search_from_seed(objective, seed, *args)
            return outcome, edge or seeds[-1] in at_edge

        monkeypatch.setattr(fitter, "_search_from_seed", flagging)
        bowl_objective(monkeypatch, 0.7, moved=(0.3, 10.0, 130.5), seeds=seeds)
        plain = recursive_seed_search(small_window, bounds=BETA_LINE,
                                      settings=LIGHT)
        plain_seeds = seeds[:]
        assert len(plain) == 2
        if flagged == "second":
            at_edge.add(plain[1].seed_used)
            expected = plain[:1]
        else:
            at_edge.update(f.seed_used for f in plain)
            expected = plain
        seeds.clear()
        fits = recursive_seed_search(small_window, bounds=BETA_LINE,
                                     settings=LIGHT)
        assert seeds == plain_seeds
        assert [f.to_dict() for f in fits] == [f.to_dict() for f in expected]

    def test_fits_that_tie_on_rmse_are_ranked_by_theta(self, small_window,
                                                       monkeypatch):
        # the first seed, at beta 0.5, keeps the minimum at beta 0.7 and the
        # second, at beta 0.25, the moved one at beta 0.3; every point
        # solves to the same SSE, so the two fits tie on RMSE and rank by
        # (beta, omega, t2c, phi), against their seed order
        seeds = recording_seeds(monkeypatch)
        bowl_objective(monkeypatch, 0.7, moved=(0.3, 10.0, 130.5), seeds=seeds)
        monkeypatch.setattr(fitter.WindowSolver, "solve",
                            lambda self, *theta: (1.0, -1.0, 0.1, 0.5, 4.0))
        fits = recursive_seed_search(small_window, bounds=BETA_LINE,
                                     settings=LIGHT)
        assert seeds[:2] == [(0.5, 10.0, 130.5), (0.25, 10.0, 130.5)]
        assert [f.seed_used for f in fits] == [seeds[1], seeds[0]]
        assert fits[0].diagnostics.rmse == fits[1].diagnostics.rmse
        assert fits[0].params.theta() < fits[1].params.theta()


# the three bubbles of the benchmark's chained series, (scale, parameters,
# weekdays, noise sigma), fitted with its coarse seed partition
CHAIN = (
    ("raw", dict(a=1000.0, b=-60.0, c=0.05, beta=0.33, omega=6.36, t2c=30.0,
                 phi=1.0), 300, 0.1),
    ("log", dict(a=7.78, b=-0.207, c=0.05, beta=0.33, omega=6.36, t2c=30.0,
                 phi=2.0), 300, 0.0005),
    ("raw", dict(a=1850.0, b=-90.0, c=0.05, beta=0.33, omega=6.36, t2c=30.0,
                 phi=0.5), 1150, 1.0),
)
COARSE_BOUNDS = SearchBounds(min_width_beta=0.5, min_width_omega=5.0)


def chain_window(k: int) -> BubbleWindow:
    scale, fields, n, sigma = CHAIN[k]
    params = LpplParams(**fields, anchor_date=ANCHOR, scale=Scale(scale))
    # the benchmark's generator seed for bubble k of its seed 201
    rng_seed = int(np.random.SeedSequence([201, k]).generate_state(1)[0])
    return window_of(generate(GeneratorSpec(params, n, sigma, rng_seed)))


@functools.cache
def chain_fits(k: int) -> list:
    return recursive_seed_search(chain_window(k), COARSE_BOUNDS)


def noisy_window(rng_seed: int) -> BubbleWindow:
    return window_of(generate(GeneratorSpec(
        NOISY_PARAMS, 400, 0.01 * NOISY_PARAMS.a, rng_seed)))


@functools.cache
def noisy_fits(rng_seed: int) -> list:
    return recursive_seed_search(noisy_window(rng_seed))


def assert_ranked_and_apart(fits) -> None:
    """The fits are sorted by RMSE, and no two lie within DEDUP_TOL of each
    other in (beta, |omega|, t2c)."""
    values = [f.diagnostics.rmse for f in fits]
    assert values == sorted(values)
    for i, fit in enumerate(fits):
        assert not any(near_fit(fit.params.theta(), other) for other in fits[i + 1:])


def assert_search_reaches_oracle(window, best, bounds, settings):
    """The recursion's best RMSE against a dense grid plus simplex polish,
    within the simplex's own stopping tolerance f_tol_rel * std(window)."""
    oracle = grid_oracle(window, bounds, settings)
    tolerance = settings.f_tol_rel * float(np.std(window.values))
    print(f"search {best!r} oracle {oracle!r} "
          f"gap {(best - oracle) / tolerance:.3g} f_tol")
    assert best <= oracle + tolerance


class TestSearchOracle:
    def test_noise_free_window(self, noise_free_window, noise_free_fits):
        assert_search_reaches_oracle(noise_free_window,
                                     noise_free_fits[0].diagnostics.rmse,
                                     SearchBounds(), SearchSettings())

    @pytest.mark.parametrize("rng_seed", [100, 101])
    def test_noisy_window(self, rng_seed):
        best = noisy_fits(rng_seed)[0]
        assert_search_reaches_oracle(noisy_window(rng_seed), best.diagnostics.rmse,
                                     SearchBounds(), SearchSettings())

    @pytest.mark.parametrize("k", range(len(CHAIN)))
    def test_chain_bubble(self, k):
        best = chain_fits(k)[0]
        assert_search_reaches_oracle(chain_window(k), best.diagnostics.rmse,
                                     COARSE_BOUNDS, SearchSettings())


# the kept fits with beta < 1 of each chain bubble, (beta, omega, t2c, RMSE)
# by RMSE, as found before seeds were abandoned past BETA_CEILING
CHAIN_FITS_BELOW_ONE = (
    ((0.3297437660045851, 6.356816442102744, 29.97721881088423, 0.09712559495823249),
     (5.122577174732392e-06, 17.90611600102677, 132.87295791227245, 10.496928052150295)),
    ((0.32996802842575185, 6.363360087281849, 30.034518976024124, 0.0005024878844937864),
     (1.9121387301306705e-06, 8.72626632802333, 89.93343467562906, 0.013280344700358491),
     (2.0397862739351007e-06, 16.367828728034734, 68.46759194944175, 0.03990925229965737),
     (3.652441708143656e-06, 19.60528071963042, 68.1115077494689, 0.040212648185191685),
     (6.0042344831674236e-06, 19.6040605963099, 68.10807268218838, 0.040212656126914735)),
    ((0.3291712646844477, 6.355594990127301, 30.03007356074735, 0.979190079562835),
     (1.9749777367995477e-06, 11.991708967295164, 127.58265654218354, 24.842049613479244),
     (3.3541638395197045e-06, 11.991967723352685, 127.56307492891898, 24.842050227853942),
     (3.3962020990377877e-06, 14.945223479986879, 129.3080900844107, 25.421058495567262),
     (1.9777342915586493e-06, 20.233381222430708, 129.6811111023992, 25.64646791824442),
     (2.61041457088367e-06, 20.23729956973259, 129.75071092533125, 25.64646927899778),
     (1.464106285380529e-06, 22.73090159775498, 129.38393140841163, 25.678429939039695),
     (2.2892166636193594e-06, 22.72659269623919, 129.41437095228528, 25.678431373108058),
     (1.1989935118698717e-06, 22.718490305127528, 129.16020178543977, 25.6784453233399)),
)


def counting_objective_calls(monkeypatch) -> list:
    """Record the point of every objective call the search makes."""
    calls = []
    objective_of = fitter.window_objective

    def counting(window):
        objective = objective_of(window)

        def counted(theta):
            calls.append(theta)
            return objective(theta)
        return counted

    monkeypatch.setattr(fitter, "window_objective", counting)
    return calls


def counting_system_builds(monkeypatch) -> list:
    """Record the point of every Gauss-Newton system the search builds."""
    builds = []
    gauss_newton = fitter.WindowSolver.gauss_newton

    def counted(self, *theta):
        builds.append(theta)
        return gauss_newton(self, *theta)

    monkeypatch.setattr(fitter.WindowSolver, "gauss_newton", counted)
    return builds


# the bowl's residuals are (theta - minimum) / BOWL_SCALES
BOWL_SCALES = np.array([1.0, 10.0, 100.0])


def bowl(minimum):
    """A bowl with its minimum at `minimum`, a (beta, omega, t2c) point."""
    def objective(theta):
        return ((theta[0] - minimum[0]) ** 2 + ((theta[1] - minimum[1]) / 10.0) ** 2
                + ((theta[2] - minimum[2]) / 100.0) ** 2)
    return objective


def bowl_system(minimum):
    """The bowl's exact Gauss-Newton system (J^T J, J^T e)."""
    def system(*theta):
        residual = (np.array(theta) - minimum) / BOWL_SCALES
        return np.diag(BOWL_SCALES ** -2.0), residual / BOWL_SCALES
    return system


def walled(minimum):
    """The bowl with its minimum at `minimum`, +inf outside the kernel's
    domain (t2c < 1 or beta <= 0)."""
    value = bowl(minimum)

    def objective(theta):
        return math.inf if theta[2] < 1.0 or theta[0] <= 0.0 else value(theta)
    return objective


def valley(theta):
    """A valley with no finite minimizer: the value falls toward its
    infimum, 0, as |omega| grows."""
    beta, omega, t2c = theta
    return (beta - 0.5) ** 2 + ((t2c - 100.0) / 100.0) ** 2 + 1.0 / (1.0 + abs(omega))


def search_objective(monkeypatch, objective, system) -> None:
    """Make the search's objective `objective`, in place of the window's
    RMSE, and its Gauss-Newton system `system(*theta)`."""
    monkeypatch.setattr(fitter, "window_objective", lambda window: objective)
    monkeypatch.setattr(fitter.WindowSolver, "gauss_newton",
                        lambda self, *theta: system(*theta))


def quarter_step_system(minimum):
    """The bowl's Gauss-Newton system with J^T J four times too large: a
    polish takes about a quarter of each step to the minimum, so its path
    has points far from its end."""
    def system(*theta):
        jtj, jte = bowl_system(np.array(minimum))(*theta)
        return 4.0 * jtj, jte
    return system


def bowl_objective(monkeypatch, beta: float, moved=None, seeds=()) -> None:
    """Make the search's objective a bowl with its minimum at (beta, 10,
    130.5) and its Gauss-Newton system the bowl's; once `seeds` records a
    second seed, the minimum moves to `moved`."""
    first = (beta, 10.0, 130.5)
    later = moved if moved is not None else first

    def objective(theta):
        return bowl(first if len(seeds) < 2 else later)(theta)

    def system(*theta):
        return bowl_system(first if len(seeds) < 2 else later)(*theta)

    search_objective(monkeypatch, objective, system)


def calls_by_seed(calls: list, seeds: list) -> list:
    """Split the recorded objective calls into those of each seed search;
    a search's first call is its seed."""
    starts, i = [], 0
    for seed in seeds:
        while tuple(calls[i]) != seed:
            i += 1
        starts.append(i)
    return [calls[a:b] for a, b in zip(starts, [*starts[1:], len(calls)])]


def near_point(theta, point, radius=fitter.DEDUP_TOL) -> bool:
    """Whether `theta` lies within `radius` of `point` in (beta, |omega|,
    t2c): strictly closer on every coordinate."""
    return all(abs(x - y) < tol for x, y, tol in
               zip((theta[0], abs(theta[1]), theta[2]),
                   (point[0], abs(point[1]), point[2]), radius))


def near_fit(theta, fit) -> bool:
    """Whether `theta` lies within DEDUP_TOL of the fit in (beta, |omega|, t2c)."""
    return near_point(theta, fit.params.theta())


def new_lows(calls: list, objective) -> list:
    """The calls whose value is below that of every call before them."""
    lowest, lows = math.inf, []
    for theta in calls:
        value = objective(theta)
        if value < lowest:
            lowest = value
            lows.append(theta)
    return lows


def assert_stopped_at_first_low(calls: list, objective, stops) -> None:
    """The calls end at the first new lowest value at a point where
    `stops(theta)` holds."""
    lowest = math.inf
    for i, theta in enumerate(calls):
        value = objective(theta)
        if value < lowest:
            lowest = value
            if stops(theta):
                assert i == len(calls) - 1
                return
    pytest.fail("the search never reached a stop point")


class TestBetaCeiling:
    @pytest.mark.parametrize("fits", [
        *(functools.partial(chain_fits, k) for k in range(len(CHAIN))),
        functools.partial(noisy_fits, 100),
    ], ids=["chain_0", "chain_1", "chain_2", "noisy_100"])
    def test_no_fit_passes_the_ceiling(self, fits):
        assert all(f.params.beta <= fitter.BETA_CEILING for f in fits())

    def test_chain_bubble_costs_fewer_calls(self, monkeypatch):
        calls = counting_objective_calls(monkeypatch)
        builds = counting_system_builds(monkeypatch)
        recursive_seed_search(chain_window(0), COARSE_BOUNDS)
        # 9,703 calls while every seed was searched to its end, 4,894 while
        # a seed that reached a kept fit still ran to its end, 3,695 while
        # each restart ran a new simplex, 3,129 while every seed started
        # with the simplex (372 calls and 190 builds since)
        assert len(calls) <= 0.8 * 9703
        assert len(calls) <= 0.85 * 4894
        assert len(calls) + len(builds) <= 0.9 * 3695
        assert len(calls) + len(builds) <= 0.5 * 3129

    def test_a_probe_past_the_ceiling_keeps_the_seed(self, small_window,
                                                      monkeypatch):
        # a bowl at beta 1.9 with no system, so the simplex runs from the
        # seed: it tries points past beta 2, but its best vertex never
        # passes it
        search_objective(monkeypatch, bowl((1.9, 10.0, 130.5)), lambda *theta: None)
        calls = counting_objective_calls(monkeypatch)
        bounds = SearchBounds(min_width_beta=2.0, min_width_omega=20.0)
        fits = recursive_seed_search(small_window, bounds=bounds, settings=LIGHT)
        assert any(theta[0] > fitter.BETA_CEILING for theta in calls)
        assert [f.seed_used for f in fits] == [(1.0, 10.0, 130.5)]
        assert fits[0].params.beta == pytest.approx(1.9, abs=1e-3)

    def test_an_abandoned_box_is_cut_past_the_ceiling(self, small_window,
                                                       monkeypatch):
        # a bowl at beta 3: every seed is abandoned at a point past beta 2,
        # so no box above a seed on beta is searched, and no seed twice
        bowl_objective(monkeypatch, 3.0)
        seeds = recording_seeds(monkeypatch)
        with pytest.raises(DataError):
            recursive_seed_search(small_window, bounds=COARSE_BOUNDS,
                                  settings=LIGHT)
        assert len(seeds) > 1
        assert len(seeds) == len(set(seeds))
        assert max(seed[0] for seed in seeds) == 1.0

    def test_seed_box_above_the_ceiling_fails_after_one_call_a_seed(
            self, small_window, monkeypatch):
        calls = counting_objective_calls(monkeypatch)
        seeds = recording_seeds(monkeypatch)
        bounds = SearchBounds((2.5, 0.0, 1.0), (4.0, 20.0, 260.0),
                              min_width_beta=0.5, min_width_omega=5.0)
        with pytest.raises(DataError) as failure:
            recursive_seed_search(small_window, bounds=bounds, settings=LIGHT)
        assert len(seeds) > 1
        assert calls == [list(seed) for seed in seeds]
        assert str(failure.value) == (
            f"the search kept no fit: {len(seeds)} seeds searched, "
            f"{len(seeds)} abandoned past beta 2.0, 0 past the horizon, 0 stalled, "
            "0 outside the domain")

    @pytest.mark.parametrize("k", range(len(CHAIN)))
    def test_fits_below_beta_one_are_kept(self, k):
        # each pinned fit with BETA_FLOOR <= beta < 1 is still found: a kept
        # fit lies within DEDUP_TOL of it, no worse by more than f_tol
        window = chain_window(k)
        _, f_tol = _fit_tolerances(window, COARSE_BOUNDS, SearchSettings())
        pinned = [fit for fit in CHAIN_FITS_BELOW_ONE[k]
                  if fitter.BETA_FLOOR <= fit[0] < 1.0]
        assert pinned
        for *theta, value in pinned:
            assert any(near_fit(theta, fit) and fit.diagnostics.rmse <= value + f_tol
                       for fit in chain_fits(k))


class TestPolish:
    @pytest.mark.parametrize("k", range(len(CHAIN)))
    def test_a_polish_never_ends_above_its_start(self, k):
        # from the ends of loose simplexes, some far from any minimum
        window = chain_window(k)
        objective = window_objective(window)
        system = WindowSolver(window).gauss_newton
        x_tol, f_tol = _fit_tolerances(window, COARSE_BOUNDS, SearchSettings())
        for seed in ([0.33, 6.3, 30.0], [0.8, 12.0, 100.0], [0.05, 3.0, 200.0]):
            start = nelder_mead(objective, seed, x_tol=1e-2, f_tol=1e-3,
                                max_evals=300)
            polished = fitter._polish(objective, system, start, x_tol, f_tol,
                                      200, False, [])
            assert polished.value <= start.value
            assert polished.value == objective(polished.x.tolist())
            assert 1 <= polished.evaluations <= 200

    def test_a_polish_reaches_the_fit_from_a_loose_simplex(self):
        # a simplex stopped after 60 calls near chain bubble 0's planted fit;
        # the polish ends on the search's best fit in a few steps
        window = chain_window(0)
        objective = window_objective(window)
        x_tol, f_tol = _fit_tolerances(window, COARSE_BOUNDS, SearchSettings())
        start = nelder_mead(objective, [0.4, 6.0, 40.0], max_evals=60)
        best = chain_fits(0)[0].diagnostics.rmse
        assert start.value > best + 1000.0 * f_tol
        polished = fitter._polish(objective, WindowSolver(window).gauss_newton,
                                  start, x_tol, f_tol, 200, False, [])
        assert polished.value <= best + f_tol
        assert polished.converged
        assert polished.evaluations <= 20

    def test_a_floored_polish_holds_beta_at_the_floor(self, small_window,
                                                        monkeypatch):
        # the bowl's minimum lies below the floor; every step toward it is
        # held at the floor, and the polish ends on the floored minimum
        bowl_objective(monkeypatch, 0.005)
        fits = recursive_seed_search(small_window, bounds=BETA_LINE,
                                     settings=LIGHT, floor_beta=True)
        assert [f.params.beta for f in fits] == [fitter.BETA_FLOOR]
        assert fits[0].params.omega == pytest.approx(10.0, abs=1e-6)
        assert fits[0].params.t2c == pytest.approx(130.5, abs=1e-5)

    def test_a_floored_search_keeps_no_fit_below_the_floor(self, monkeypatch):
        # chain bubble 1 has seeds that end at beta ~ 2e-6 when unfloored;
        # floored, its polish walks along the floor, which cost 3,973 calls
        # with simplex restarts (2,165 calls and 169 builds since); a step
        # merely clipped at the floor took 38,745 calls and 18,378 builds
        ends = []
        search_from_seed = fitter._search_from_seed

        def recording(*args):
            outcome = search_from_seed(*args)
            ends.append(outcome[0].x[0])
            return outcome

        with monkeypatch.context() as patch:
            patch.setattr(fitter, "_search_from_seed", recording)
            recursive_seed_search(chain_window(1), COARSE_BOUNDS)
        assert min(ends) < fitter.BETA_FLOOR
        calls = counting_objective_calls(monkeypatch)
        builds = counting_system_builds(monkeypatch)
        fits = recursive_seed_search(chain_window(1), COARSE_BOUNDS,
                                     floor_beta=True)
        assert min(f.params.beta for f in fits) >= fitter.BETA_FLOOR
        assert len(calls) + len(builds) <= 0.8 * 3973

    def test_a_polish_with_no_damped_step_stops_past_the_damping_cap(
            self, monkeypatch):
        # a singular J^T J fails the determinant rule at every damping, so
        # no trial point is made and the budget never runs down: the damping
        # cap is the only stop (_DAMPING_FACTOR per step from _DAMPING_START)
        steps = []
        damped_step = fitter._damped_step

        def counting(*args):
            steps.append(args[2])
            assert len(steps) < 100, "the damping grew past its cap"
            return damped_step(*args)

        monkeypatch.setattr(fitter, "_damped_step", counting)
        calls = []

        def objective(theta):
            calls.append(theta)
            return 1.0

        start = fitter.NelderMeadResult(np.array([0.5, 6.0, 30.0]), 2.0, 10, True)
        polished = fitter._polish(
            objective, lambda *theta: (np.diag([1.0, 0.0, 1.0]), np.ones(3)),
            start, np.full(3, 1e-6), 1e-8, 1000, False, [])
        assert (polished.x.tolist(), polished.value, polished.evaluations,
                polished.converged) == ([0.5, 6.0, 30.0], 2.0, 1, False)
        assert calls == []
        assert steps[-1] <= fitter._DAMPING_MAX < steps[-1] * fitter._DAMPING_FACTOR

    def test_a_floored_step_lands_on_the_floor_exactly(self):
        # from this beta, beta + (BETA_FLOOR - beta) rounds to just below the
        # floor, where the floored objective is +inf; the trial is set to it
        beta = 0.13428327649956395
        assert beta + (fitter.BETA_FLOOR - beta) < fitter.BETA_FLOOR
        calls = []

        def objective(theta):
            calls.append(theta)
            return math.inf if theta[0] < fitter.BETA_FLOOR else 0.5

        start = fitter.NelderMeadResult(np.array([beta, 6.0, 30.0]), 1.0, 10, True)
        polished = fitter._polish(
            objective, lambda *theta: (np.eye(3), np.array([1.0, 0.0, 0.0])),
            start, np.full(3, 1e-6), 1e-8, 1000, True, [])
        assert calls[0][0] == fitter.BETA_FLOOR
        assert polished.x.tolist() == [fitter.BETA_FLOOR, 6.0, 30.0]
        assert polished.value == 0.5

    def test_no_restarts_never_polish(self, small_window, monkeypatch):
        def polish(*args):
            raise AssertionError("polished with restarts=0")

        monkeypatch.setattr(fitter, "_polish", polish)
        builds = counting_system_builds(monkeypatch)
        settings = SearchSettings(x_tol_rel=1e-4, f_tol_rel=1e-7, max_evals=1500,
                                  restarts=0, stall_evals=250)
        for floor_beta in (False, True):
            assert recursive_seed_search(small_window, bounds=LIGHT_BOUNDS,
                                         settings=settings, floor_beta=floor_beta)
        assert builds == []

    @pytest.mark.parametrize("seed", [(0.5, 10.0, 1.0), (0.5, 10.0, 130.5)])
    def test_a_seed_that_ends_on_the_t2c_bound_is_at_the_edge(self, small_window,
                                                              seed):
        # the minimum lies past t2c = 1 day: the simplex ends on the bound,
        # and every polishing step that lowers the value crosses it
        minimum = np.array([0.5, 10.0, -50.0])
        x_tol, f_tol = _fit_tolerances(small_window, SearchBounds(), SearchSettings())
        outcome, at_edge = fitter._search_from_seed(
            walled(minimum), np.array(seed), x_tol, f_tol, SearchSettings(),
            bowl_system(minimum), False, [])
        assert outcome.x[2] - 1.0 <= x_tol[2]
        assert at_edge

    @pytest.mark.parametrize("simplex_evals, system_minima, edge", [
        (None, [None, (-1.0, 10.0, 130.5)], True),
        (None, [(0.005, 10.0, 130.5)], False),
        (60, [(0.005, 10.0, 130.5), (-1.0, 10.0, 130.5)], True),
    ], ids=["system_past_zero", "exact_system", "step_then_past_zero"])
    def test_a_seed_below_the_floor_is_at_the_edge_if_it_cannot_step(
            self, small_window, monkeypatch, simplex_evals, system_minima, edge):
        # the value's minimum lies at beta 0.005; a system pointing below
        # beta = 0, as the rounding in the beta -> 0 valley gives, lets the
        # polish take no step, and the exact system lets it take one. In the
        # first case no system is built at the seed, so the simplex runs
        # from it, and the polish after it can take no step. In the second
        # the polish from the seed converges on the minimum. In the third it
        # steps to the minimum on the exact system, then can take no step on
        # the next one; the simplex from there stops after 60 calls, and the
        # polish after it can take no step either
        if simplex_evals is not None:
            simplex = fitter.nelder_mead
            monkeypatch.setattr(fitter, "nelder_mead", lambda *args, **kwargs:
                                simplex(*args, **{**kwargs, "max_evals": simplex_evals}))
        builds = []

        def system(*theta):
            builds.append(theta)
            minimum = system_minima[min(len(builds), len(system_minima)) - 1]
            return None if minimum is None else bowl_system(np.array(minimum))(*theta)

        minimum = (0.005, 10.0, 130.5)
        x_tol, f_tol = _fit_tolerances(small_window, SearchBounds(), SearchSettings())
        outcome, at_edge = fitter._search_from_seed(
            walled(minimum), np.array([0.3, 10.0, 130.5]), x_tol, f_tol,
            SearchSettings(), system, False, [])
        assert outcome.x[0] < fitter.BETA_FLOOR
        assert at_edge is edge
        if simplex_evals is not None:  # the polish took a step
            assert len(builds) > 1
            assert outcome.value < bowl(minimum)(builds[0])

    def test_an_inner_minimum_is_not_at_the_edge(self, small_window):
        minimum = np.array([0.5, 10.0, 130.5])
        x_tol, f_tol = _fit_tolerances(small_window, SearchBounds(), SearchSettings())
        outcome, at_edge = fitter._search_from_seed(
            walled(minimum), np.array([0.4, 12.0, 100.0]), x_tol, f_tol,
            SearchSettings(), bowl_system(minimum), False, [])
        assert outcome.value < 1e-12
        assert not at_edge


# seeds on a line in beta: the omega minimum width spans the seed box
BETA_LINE = SearchBounds((0.0, 0.0, 1.0), (1.0, 20.0, 260.0),
                         min_width_beta=0.1, min_width_omega=20.0)


class TestOutsideTheDomain:
    def test_a_seed_outside_the_domain_is_cut_at_the_seed(self, small_window,
                                                          monkeypatch):
        # +inf from beta 0.5 up and a bowl at beta 0.2 below: each seed from
        # 0.5 up ends at its first call, and its box is cut there, so the
        # boxes above 0.5 are walked down to the minimum width
        def objective(theta):
            return math.inf if theta[0] >= 0.5 else bowl((0.2, 10.0, 130.5))(theta)

        search_objective(monkeypatch, objective,
                         bowl_system(np.array([0.2, 10.0, 130.5])))
        calls = counting_objective_calls(monkeypatch)
        seeds = recording_seeds(monkeypatch)
        [fit] = recursive_seed_search(small_window, bounds=BETA_LINE, settings=LIGHT)
        assert fit.params.beta == pytest.approx(0.2, abs=1e-3)
        assert fit.seed_used == (0.25, 10.0, 130.5)
        outside = [seed for seed in seeds if seed[0] >= 0.5]
        assert sorted(seed[0] for seed in outside) == [0.5 + k / 16 for k in range(8)]
        assert all(run == [list(seed)] for seed, run in zip(
            seeds, calls_by_seed(calls, seeds)) if seed in outside)

    def test_a_search_with_every_seed_outside_the_domain_keeps_no_fit(
            self, small_window, monkeypatch):
        search_objective(monkeypatch, lambda theta: math.inf, lambda *theta: None)
        calls = counting_objective_calls(monkeypatch)
        seeds = recording_seeds(monkeypatch)
        with pytest.raises(DataError) as failure:
            recursive_seed_search(small_window, bounds=BETA_LINE, settings=LIGHT)
        assert len(seeds) == 15
        assert calls == [list(seed) for seed in seeds]
        assert str(failure.value) == (
            "the search kept no fit: 15 seeds searched, 0 abandoned past beta "
            "2.0, 0 past the horizon, 0 stalled, 15 outside the domain")

    def test_a_seed_outside_the_domain_is_not_a_stall(self, small_window):
        # every seed of this box fails the b-floor rule at its first call,
        # which ends it at "domain" before a stall after one call can
        bounds = SearchBounds((20.0, 0.0, 1.0), (60.0, 20.0, 260.0), 4.0, 5.0)
        with pytest.raises(DataError, match=", 0 stalled, 105 outside the domain$"):
            recursive_seed_search(small_window, bounds=bounds,
                                  settings=SearchSettings(stall_evals=1))


def recording_polishes(monkeypatch) -> list:
    """Record the outcome of every polish, in order."""
    polished = []
    polish = fitter._polish

    def recording(*args):
        polished.append(polish(*args))
        return polished[-1]

    monkeypatch.setattr(fitter, "_polish", recording)
    return polished


class TestPolishFirst:
    def test_a_seed_whose_polish_converges_runs_no_simplex(self, small_window,
                                                          monkeypatch):
        def simplex(*args, **kwargs):
            raise AssertionError("ran the simplex")

        monkeypatch.setattr(fitter, "nelder_mead", simplex)
        polished = recording_polishes(monkeypatch)
        minimum = np.array([0.5, 10.0, 130.5])
        x_tol, f_tol = _fit_tolerances(small_window, SearchBounds(), SearchSettings())
        outcome, at_edge = fitter._search_from_seed(
            walled(minimum), np.array([0.4, 12.0, 100.0]), x_tol, f_tol,
            SearchSettings(), bowl_system(minimum), False, [])
        [polish] = polished
        assert polish.converged
        assert outcome.x.tolist() == polish.x.tolist()
        assert (outcome.value, outcome.evaluations, outcome.converged) == (
            polish.value, 1 + polish.evaluations, True)
        assert outcome.value < 1e-12
        assert not at_edge

    @pytest.mark.parametrize("system_minimum", [None, (0.45, 10.0, 130.5)],
                             ids=["no_system", "system_off_the_minimum"])
    def test_a_seed_whose_polish_does_not_converge_runs_the_simplex_from_its_end(
            self, small_window, monkeypatch, system_minimum):
        # the value's minimum lies at beta 0.5. With no system the polish
        # ends at the seed; with a system whose minimum lies at beta 0.45 it
        # steps there, then refuses every step. The simplex runs from that
        # end point, and the evaluations of all three runs add up
        minimum = np.array([0.5, 10.0, 130.5])
        seed = np.array([1.0, 10.0, 130.5])
        polished = recording_polishes(monkeypatch)
        simplexes = []
        simplex = fitter.nelder_mead

        def recording(objective, start, **kwargs):
            simplexes.append((start.tolist(), simplex(objective, start, **kwargs)))
            return simplexes[-1][1]

        monkeypatch.setattr(fitter, "nelder_mead", recording)
        system = (lambda *theta: None) if system_minimum is None else bowl_system(
            np.array(system_minimum))
        x_tol, f_tol = _fit_tolerances(small_window, SearchBounds(), SearchSettings())
        outcome, at_edge = fitter._search_from_seed(
            walled(minimum), seed, x_tol, f_tol, SearchSettings(), system, False,
            [])
        first, last = polished
        [(start, best)] = simplexes
        assert not first.converged
        assert start == first.x.tolist()
        if system_minimum is None:
            assert start == seed.tolist()
        else:
            assert start[0] == pytest.approx(0.45, abs=1e-3)
        assert outcome.evaluations == (1 + first.evaluations + best.evaluations
                                       + last.evaluations)
        assert outcome.x[0] == pytest.approx(0.5, abs=1e-3)
        assert not at_edge

    def test_the_simplex_rescues_a_seed_whose_polish_stops_in_the_valley(
            self, monkeypatch):
        # on this 20-weekday window the polish from seed (0.5, 7.69, 130.5)
        # stops, not converged, in the beta -> 0 valley. Only the simplex
        # from its end point, and the polish after it, reach the planted
        # fit: with the polish alone the best fit is (9.8e-5, 15.35, 89.0)
        # at RMSE 0.036
        window = window_of(generate(GeneratorSpec(canonical_params(), n_weekdays=20,
                                                  noise_sigma=0.0, rng_seed=2)))
        events = []
        search_from_seed, polish, simplex = (fitter._search_from_seed,
                                             fitter._polish, fitter.nelder_mead)

        def seed_search(objective, seed, *args):
            events.append(("seed", tuple(seed.tolist())))
            outcome = search_from_seed(objective, seed, *args)
            events.append(("outcome", outcome[0]))
            return outcome

        def polishing(*args):
            events.append(("polish", polish(*args)))
            return events[-1][1]

        def simplex_from(objective, start, **kwargs):
            events.append(("simplex", start.tolist()))
            return simplex(objective, start, **kwargs)

        monkeypatch.setattr(fitter, "_search_from_seed", seed_search)
        monkeypatch.setattr(fitter, "_polish", polishing)
        monkeypatch.setattr(fitter, "nelder_mead", simplex_from)
        fits = recursive_seed_search(window, bounds=LIGHT_BOUNDS, settings=LIGHT)
        [at] = [i for i, (kind, seed) in enumerate(events) if kind == "seed"
                and seed == pytest.approx((0.5, 7.6935, 130.5), abs=1e-4)]
        kinds, (seed, first, start, _, outcome) = zip(*events[at:at + 5])
        assert kinds == ("seed", "polish", "simplex", "polish", "outcome")
        assert not first.converged
        assert first.x[0] < fitter.BETA_FLOOR
        assert start == first.x.tolist()
        assert outcome.x.tolist() == pytest.approx((0.33, 6.36, 30.0), rel=1e-6)
        assert fits[0].seed_used == seed
        assert fits[0].diagnostics.rmse < 1e-9


class TestHorizon:
    def test_no_fit_passes_the_horizon(self, small_window):
        # without the horizon this search kept a second fit, at beta 0.0029,
        # omega 60 and t2c 1,482 days: past the window's 209-day span and
        # the box's upper t2c, 260 days
        fits = recursive_seed_search(small_window, bounds=LIGHT_BOUNDS,
                                     settings=LIGHT)
        assert all(f.params.t2c <= 260.0 for f in fits)

    def test_a_seed_past_the_horizon_ends_there(self, small_window, monkeypatch):
        # a bowl at t2c 1,000 days: the horizon is the box's upper t2c, 260
        # days, as the window spans less. Every seed ends at its first new
        # low past it, and its box is cut there, so no later seed lies
        # between a seed and its stop point on beta
        assert WindowSolver(small_window).age_max < 260.0
        minimum = (0.7, 10.0, 1000.0)
        search_objective(monkeypatch, bowl(minimum), bowl_system(np.array(minimum)))
        calls = counting_objective_calls(monkeypatch)
        seeds = recording_seeds(monkeypatch)
        with pytest.raises(DataError) as failure:
            recursive_seed_search(small_window, bounds=BETA_LINE, settings=LIGHT)
        assert len(seeds) > 2
        for i, run in enumerate(calls_by_seed(calls, seeds)):
            assert_stopped_at_first_low(run, bowl(minimum),
                                        lambda theta: theta[2] > 260.0)
            low, high = sorted((seeds[i][0], run[-1][0]))
            assert not any(low < seed[0] < high for seed in seeds[i + 1:])
        assert str(failure.value) == (
            f"the search kept no fit: {len(seeds)} seeds searched, 0 abandoned "
            f"past beta 2.0, {len(seeds)} past the horizon, 0 stalled, "
            "0 outside the domain")

    def test_a_window_shorter_than_the_box_keeps_a_fit(self):
        # a 20-weekday window spans 27 days, less than the seeds' t2c of
        # 130.5; the box's upper t2c sets the horizon, so the seeds are
        # searched and the planted fit is kept
        window = window_of(generate(GeneratorSpec(canonical_params(), n_weekdays=20,
                                                  noise_sigma=0.0, rng_seed=2)))
        assert WindowSolver(window).age_max < 130.5
        fits = recursive_seed_search(window, bounds=LIGHT_BOUNDS, settings=LIGHT)
        assert fits[0].params.theta()[:3] == pytest.approx((0.33, 6.36, 30.0),
                                                           rel=1e-4)
        assert all(f.params.t2c <= 260.0 for f in fits)


class TestStopAtAKeptFit:
    def test_a_later_seed_stops_at_the_kept_fit(self, small_window,
                                                monkeypatch):
        # one minimum, at beta 0.7: the first seed keeps it, and every later
        # seed stops at its first new low near it, adding no fit; its box is
        # cut there, so no seed between a stopped seed and its stop point
        # on beta is searched
        bowl_objective(monkeypatch, 0.7)
        calls = counting_objective_calls(monkeypatch)
        seeds = recording_seeds(monkeypatch)
        [fit] = recursive_seed_search(small_window, bounds=BETA_LINE,
                                      settings=LIGHT)
        assert fit.seed_used == seeds[0] == (0.5, 10.0, 130.5)
        assert len(seeds) > 2
        runs = calls_by_seed(calls, seeds)
        for i, run in enumerate(runs[1:], start=1):
            assert_stopped_at_first_low(run, bowl((0.7, 10.0, 130.5)),
                                        lambda theta: near_fit(theta, fit))
            low, high = sorted((seeds[i][0], run[-1][0]))
            assert not any(low < seed[0] < high for seed in seeds[i + 1:])

    def test_fits_apart_in_t2c_both_stay(self, small_window, monkeypatch):
        # from the second seed on, the minimum is 1.2 DEDUP_TOL later in t2c
        seeds = recording_seeds(monkeypatch)
        moved = (0.7, 10.0, 130.5 + 1.2 * fitter.DEDUP_TOL[2])
        bowl_objective(monkeypatch, 0.7, moved=moved, seeds=seeds)
        fits = recursive_seed_search(small_window, bounds=BETA_LINE,
                                     settings=LIGHT)
        assert sorted(f.seed_used for f in fits) == sorted(seeds[:2])
        first, second = sorted((f.params.theta() for f in fits),
                               key=lambda theta: theta[2])
        assert abs(first[0] - second[0]) < fitter.DEDUP_TOL[0]
        assert abs(first[1] - second[1]) < fitter.DEDUP_TOL[1]
        assert second[2] - first[2] > fitter.DEDUP_TOL[2]

    def test_a_negative_omega_stops_at_its_mirror(self, small_window,
                                                   monkeypatch):
        # from the second seed on, the minimum is at omega -10, the mirror
        # of the first seed's fit
        seeds = recording_seeds(monkeypatch)
        moved = (0.7, -10.0, 130.5)
        bowl_objective(monkeypatch, 0.7, moved=moved, seeds=seeds)
        calls = counting_objective_calls(monkeypatch)
        [fit] = recursive_seed_search(small_window, bounds=BETA_LINE,
                                      settings=LIGHT)
        assert fit.seed_used == seeds[0]
        stopped = calls_by_seed(calls, seeds)[1]
        assert_stopped_at_first_low(stopped, bowl(moved),
                                    lambda theta: near_fit(theta, fit))
        assert stopped[-1][1] < 0.0

    def test_a_later_seed_stops_on_an_earlier_seeds_polish_path(
            self, small_window, monkeypatch):
        # the first seed's polish takes about a quarter of each step to the
        # minimum at (0.05, 10, 190.5). From the second seed on the minimum
        # is at (0.19, 10, 171.5), next to a point of that path but more
        # than DEDUP_TOL from its end. The second seed stops at its first
        # new low near a point of the path and adds no fit; its box is cut
        # there, so no later seed lies between it and that point on beta
        seeds = recording_seeds(monkeypatch)
        first, later = (0.05, 10.0, 190.5), (0.19, 10.0, 171.5)

        def minimum():
            return first if len(seeds) < 2 else later

        search_objective(monkeypatch, lambda theta: bowl(minimum())(theta),
                         lambda *theta: quarter_step_system(minimum())(*theta))
        calls = counting_objective_calls(monkeypatch)
        [fit] = recursive_seed_search(small_window, bounds=BETA_LINE,
                                      settings=LIGHT)
        first_run, stopped = calls_by_seed(calls, seeds)[:2]
        # the seed, then each point the polish took; it ran no simplex
        _, *on_the_way, end = new_lows(first_run, bowl(first))
        assert fit.seed_used == seeds[0] and fit.converged
        assert fit.params.theta()[:3] == tuple(end)
        assert len(on_the_way) > 5
        assert_stopped_at_first_low(
            stopped, bowl(later),
            lambda theta: any(near_point(theta, point) for point in on_the_way))
        assert not near_fit(stopped[-1], fit)
        low, high = sorted((seeds[1][0], stopped[-1][0]))
        assert len(seeds) > 2
        assert not any(low < seed[0] < high for seed in seeds[2:])

    def test_a_path_that_ends_past_the_ceiling_stops_no_seed(self, small_window,
                                                             monkeypatch):
        # the first seed's polish takes about a quarter of each step toward
        # a minimum at beta 3 and ends past the ceiling. From the second
        # seed on, the minimum is at beta 1.1, next to a point of that
        # path: the second seed keeps it
        seeds = recording_seeds(monkeypatch)
        first, later = (3.0, 10.0, 130.5), (1.1, 10.0, 130.5)

        def minimum():
            return first if len(seeds) < 2 else later

        search_objective(monkeypatch, lambda theta: bowl(minimum())(theta),
                         lambda *theta: quarter_step_system(minimum())(*theta))
        calls = counting_objective_calls(monkeypatch)
        [fit] = recursive_seed_search(small_window, bounds=BETA_LINE,
                                      settings=LIGHT)
        first_run = calls_by_seed(calls, seeds)[0]
        assert first_run[-1][0] > fitter.BETA_CEILING
        assert any(near_point(theta, later)
                   for theta in new_lows(first_run, bowl(first))[1:])
        assert fit.seed_used == seeds[1]
        assert fit.params.theta()[:3] == pytest.approx(later, abs=1e-3)

    def test_the_simplex_new_lows_stop_no_seed(self, small_window, monkeypatch):
        # with no system the first seed's search is its simplex, which
        # ends at the minimum at beta 0.9. Once it has ended, the minimum
        # moves to its simplex's first new low past the seed, more than
        # DEDUP_TOL from that end: the second seed keeps it
        seeds, later = recording_seeds(monkeypatch), []
        first = (0.9, 10.0, 130.5)

        def minimum():
            if len(seeds) < 2:
                return first
            if not later:
                lows = new_lows(calls_by_seed(calls, seeds)[0], bowl(first))
                later.append(tuple(lows[1]))
            return later[0]

        search_objective(monkeypatch, lambda theta: bowl(minimum())(theta),
                         lambda *theta: None)
        calls = counting_objective_calls(monkeypatch)
        fits = recursive_seed_search(small_window, bounds=BETA_LINE,
                                     settings=LIGHT)
        assert not near_point(later[0], first, [2.0 * r for r in fitter.DEDUP_TOL])
        assert sorted(f.seed_used for f in fits) == sorted(seeds[:2])
        for fit in fits:
            point = first if fit.seed_used == seeds[0] else later[0]
            assert fit.params.theta()[:3] == pytest.approx(point, rel=1e-4)

    def test_stopped_seeds_are_not_counted_as_abandoned(self, small_window,
                                                        monkeypatch):
        # the kept fit fails its canonical re-solve, so the search keeps no
        # fit; the later seeds stopped at it are not past BETA_CEILING
        bowl_objective(monkeypatch, 0.7)
        seeds = recording_seeds(monkeypatch)
        monkeypatch.setattr(fitter.WindowSolver, "solve", lambda self, *theta: None)
        with pytest.raises(DataError) as failure:
            recursive_seed_search(small_window, bounds=BETA_LINE, settings=LIGHT)
        assert len(seeds) > 2
        assert str(failure.value) == (
            f"the search kept no fit: {len(seeds)} seeds searched, "
            "0 abandoned past beta 2.0, 0 past the horizon, 0 stalled, "
            "0 outside the domain")


def idle_runs(calls: list, objective, f_tol: float) -> list:
    """For each call, how many calls the search has made since its last
    f_tol gain (0 at a gain): a value more than f_tol below the last gain."""
    bar, idle, runs = math.inf, 0, []
    for theta in calls:
        value = objective(theta)
        bar, idle = (value - f_tol, 0) if value < bar else (bar, idle + 1)
        runs.append(idle)
    return runs


# one seed: each minimum width spans the seed box
ONE_SEED = SearchBounds(min_width_beta=2.0, min_width_omega=20.0)


class TestStall:
    def test_a_valley_seed_is_abandoned(self, small_window, monkeypatch):
        # the simplex slides down the valley in omega and never converges;
        # stall_evals calls after its last f_tol gain the seed is abandoned
        search_objective(monkeypatch, valley, lambda *theta: None)
        calls = counting_objective_calls(monkeypatch)
        settings = dataclasses.replace(LIGHT, stall_evals=100)
        with pytest.raises(DataError) as failure:
            recursive_seed_search(small_window, bounds=ONE_SEED, settings=settings)
        _, f_tol = _fit_tolerances(small_window, ONE_SEED, settings)
        runs = idle_runs(calls, valley, f_tol)
        assert max(runs) == runs[-1] == settings.stall_evals
        assert str(failure.value) == ("the search kept no fit: 1 seeds searched, "
                                      "0 abandoned past beta 2.0, 0 past the "
                                      "horizon, 1 stalled, 0 outside the domain")

    def test_a_stalled_box_is_cut_at_its_lowest_point(self, small_window,
                                                      monkeypatch):
        # the first seed, at beta 0.6, stalls in the valley; the next is the
        # midpoint of the box below its lowest point (near beta 0.5) on
        # beta. It searches a bowl, whose values all lie above the valley's,
        # in more than stall_evals calls, and keeps the bowl's minimum. No
        # system is built at a seed, so each search starts with the simplex
        seeds = recording_seeds(monkeypatch)
        minimum = (0.2, 10.0, 130.5)

        def objective(theta):
            return valley(theta) if len(seeds) < 2 else bowl(minimum)(theta)

        def system(*theta):
            if theta == seeds[-1]:
                return None
            return bowl_system(np.array(minimum))(*theta)

        search_objective(monkeypatch, objective, system)
        calls = counting_objective_calls(monkeypatch)
        settings = dataclasses.replace(LIGHT, stall_evals=40)
        bounds = dataclasses.replace(BETA_LINE, upper=(1.2, 20.0, 260.0))
        fits = recursive_seed_search(small_window, bounds=bounds,
                                     settings=settings)
        stalled, bowl_run = calls_by_seed(calls, seeds)[:2]
        lowest = min(stalled, key=valley)
        assert seeds[:2] == [(0.6, 10.0, 130.5), (lowest[0] / 2.0, 10.0, 130.5)]
        assert len(bowl_run) > settings.stall_evals
        assert [f.seed_used for f in fits] == [seeds[1]]
        assert fits[0].params.theta()[:3] == pytest.approx(minimum, rel=1e-6)

    def test_a_search_that_keeps_no_fit_counts_each_reason(self, small_window,
                                                           monkeypatch):
        # the first seed searches a bowl at beta 3 and is abandoned past the
        # ceiling; the second is outside the domain; every later seed
        # searches the valley and stalls
        seeds = recording_seeds(monkeypatch)

        def objective(theta):
            if len(seeds) == 2:
                return math.inf
            return bowl((3.0, 10.0, 130.5))(theta) if len(seeds) < 2 else valley(theta)

        search_objective(monkeypatch, objective, lambda *theta: None)
        settings = dataclasses.replace(LIGHT, stall_evals=60)
        with pytest.raises(DataError) as failure:
            recursive_seed_search(small_window, bounds=BETA_LINE, settings=settings)
        assert len(seeds) > 2
        assert str(failure.value) == (
            f"the search kept no fit: {len(seeds)} seeds searched, "
            f"1 abandoned past beta 2.0, 0 past the horizon, {len(seeds) - 2} "
            "stalled, 1 outside the domain")

    def test_polish_calls_count_toward_the_stall(self, small_window, monkeypatch):
        # the system points at a far-off minimum, so both polishes, from the
        # seed and after the simplex, refuse every step; the second one's
        # calls lengthen the simplex's last run without an f_tol gain past
        # the longest run before it
        minimum = (0.5, 10.0, 130.5)
        search_objective(monkeypatch, bowl(minimum),
                         bowl_system(np.array([100.0, 1000.0, 20000.0])))
        calls = counting_objective_calls(monkeypatch)
        polished_from = []
        polish = fitter._polish

        def recording(*args):
            polished_from.append(len(calls))
            return polish(*args)

        monkeypatch.setattr(fitter, "_polish", recording)
        [fit] = recursive_seed_search(small_window, bounds=ONE_SEED, settings=LIGHT)
        _, f_tol = _fit_tolerances(small_window, ONE_SEED, LIGHT)
        runs = idle_runs(calls, bowl(minimum), f_tol)
        [_, start] = polished_from
        limit = max(runs[:start]) + 1
        assert runs[-1] >= limit
        with pytest.raises(DataError, match=", 1 stalled, 0 outside the domain$"):
            recursive_seed_search(small_window, bounds=ONE_SEED,
                                  settings=dataclasses.replace(LIGHT, stall_evals=limit))


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
def log_window():
    """Noise-free 300-weekday window rising as 1000 - 50 ln(1 + age), with
    age in days to its end: the beta -> 0 limit of the power law."""
    start = series_from_values(np.ones(300)).dates
    ages = np.array([(start[-1] - d).days for d in start], dtype=float)
    return window_of(series_from_values(1000.0 - 50.0 * np.log1p(ages)))


@pytest.fixture(scope="module")
def small_report(small_window):
    return fit_bubble(small_window, bounds=LIGHT_BOUNDS)


class TestFitBubble:
    def test_auto_selects_log_when_ratio_exceeds_two(self, steep_window):
        ratio = steep_window.values[-1] / steep_window.values[0]
        assert ratio > 2
        report = fit_bubble(steep_window, bounds=LIGHT_BOUNDS)
        assert report.scale_used == Scale.LOG
        assert not report.raw_fit_valid
        assert report.validity_ratio == pytest.approx(ratio)
        assert report.best.params.scale == Scale.LOG

    def test_explicit_raw_overrides_auto(self, steep_window):
        report = fit_bubble(steep_window, scale_choice="raw",
                            bounds=LIGHT_BOUNDS)
        assert report.scale_used == Scale.RAW

    def test_paper_mode_prefers_raw_and_floors_beta(self, steep_window):
        report = fit_bubble(steep_window, paper_mode=True,
                            bounds=LIGHT_BOUNDS)
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
        assert len(payload["fits"][0]["seed_used"]) == 3
        assert not {"validity_ratio", "raw_fit_valid"} & set(
            payload["fits"][0]["diagnostics"])
        assert payload["validity_ratio"] == small_report.validity_ratio
        assert payload["raw_fit_valid"] is True

    def test_a_fit_below_the_floor_adds_the_floored_best(self, log_window):
        # the window's best fit lies in the beta -> 0 valley, below the floor
        report = fit_bubble(log_window, bounds=COARSE_BOUNDS)
        floored = recursive_seed_search(log_window, COARSE_BOUNDS, floor_beta=True)
        assert report.best.params.beta < fitter.BETA_FLOOR
        assert report.constrained_best == floored[0]
        assert report.constrained_best.params.beta >= fitter.BETA_FLOOR
        assert report.to_dict()["constrained_best"] == floored[0].to_dict()

    def test_a_floored_search_that_keeps_no_fit_adds_none(self, log_window,
                                                          monkeypatch):
        search = fitter.recursive_seed_search

        def unfloored_only(*args, floor_beta=False):
            if floor_beta:
                raise DataError("the search kept no fit")
            return search(*args, floor_beta=floor_beta)

        monkeypatch.setattr(fitter, "recursive_seed_search", unfloored_only)
        report = fit_bubble(log_window, bounds=COARSE_BOUNDS)
        assert report.best.params.beta < fitter.BETA_FLOOR
        assert report.constrained_best is None

    def test_rejects_log_scale_window(self, steep_window):
        with pytest.raises(UsageError):
            fit_bubble(steep_window.with_log_values())

    def test_unknown_scale_choice(self, small_window):
        with pytest.raises(UsageError):
            fit_bubble(small_window, scale_choice="both")
