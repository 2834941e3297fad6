import math

import numpy as np
import pytest

from bubblefit import (
    Classification,
    FitDiagnostics,
    FitResult,
    GeneratorSpec,
    LpplParams,
    ScanSpec,
    SearchSettings,
    UsageError,
    generate,
    scan_parameter,
    write_scan_csv,
)
from bubblefit.fitter import nelder_mead
from bubblefit.lppl import window_objective
from bubblefit.sensitivity import (PARAMETER_INDEX, REOPT_F_TOL, REOPT_X_TOL,
                                   ScanCurve)

from conftest import canonical_params, series_from_values, window_of


def fake_fit(params: LpplParams) -> FitResult:
    """Wrap bare parameters in the result shape the scanner consumes."""
    diag = FitDiagnostics(rmse=0.0, is_precursor=True, monotone_increasing=True,
                          violation_dates=())
    return FitResult(params=params, diagnostics=diag,
                     seed_used=params.theta()[:3], function_evaluations=1,
                     converged=True, classification=Classification.PRECURSOR)


def reoptimized_one_by_one(fit, window, spec, max_evals):
    """The reoptimized scan as one simplex per sample on `window_objective`,
    the reference for the lockstep scan."""
    objective = window_objective(window)
    index = PARAMETER_INDEX[spec.parameter]
    size = 4 if index == 3 else 3
    free = [i for i in range(size) if i != index]
    out = []
    for value in spec.grid():
        point = list(fit.params.theta())[:size]
        point[index] = float(value)

        def reduced(sub, point=point):
            full = list(point)
            for slot, v in zip(free, sub):
                full[slot] = v
            return objective(full)

        r = nelder_mead(reduced, [point[i] for i in free], x_tol=REOPT_X_TOL,
                        f_tol=REOPT_F_TOL, max_evals=max_evals).value
        out.append(r if math.isfinite(r) else None)
    return out


@pytest.fixture(scope="module")
def clean_window():
    return window_of(generate(GeneratorSpec(canonical_params(), 150, 0.0, 4)))


@pytest.fixture(scope="module")
def clean_fit(clean_window):
    params = canonical_params()
    value = window_objective(clean_window)(params.theta())
    diag = FitDiagnostics(rmse=value, is_precursor=True,
                          monotone_increasing=True, violation_dates=())
    return FitResult(params=params, diagnostics=diag, seed_used=params.theta()[:3],
                     function_evaluations=1, converged=True,
                     classification=Classification.PRECURSOR)


class TestScanSpec:
    def test_rejects_even_steps(self):
        with pytest.raises(UsageError):
            ScanSpec("beta", 0.33, 0.1, steps=100)

    def test_rejects_tiny_step_count(self):
        with pytest.raises(UsageError):
            ScanSpec("beta", 0.33, 0.1, steps=1)

    def test_rejects_unknown_parameter(self):
        with pytest.raises(UsageError):
            ScanSpec("alpha", 0.33, 0.1)

    def test_grid_center_is_exact(self):
        spec = ScanSpec("omega", 6.3612345, 0.7, steps=41)
        grid = spec.grid()
        assert grid[20] == 6.3612345

    def test_refined_grid_shares_abscissae_exactly(self):
        coarse = ScanSpec("t2c", 30.0, 7.3, steps=51).grid()
        fine = ScanSpec("t2c", 30.0, 7.3, steps=101).grid()
        assert np.array_equal(coarse, fine[::2])


class TestScanParameter:
    def test_center_sample_equals_fit_rmse_exactly(self, clean_fit,
                                                   clean_window):
        spec = ScanSpec("beta", clean_fit.params.beta, 0.2, steps=21)
        curve = scan_parameter(clean_fit, clean_window, spec)
        assert curve.rmse[10] == clean_fit.diagnostics.rmse

    def test_beta_scan_has_global_minimum_at_truth(self, clean_fit,
                                                   clean_window):
        spec = ScanSpec("beta", 0.33, 0.25, steps=101)
        curve = scan_parameter(clean_fit, clean_window, spec)
        values = np.array([math.inf if r is None else r for r in curve.rmse])
        assert int(values.argmin()) == 50
        assert values[50] == pytest.approx(0.0, abs=1e-9)

    def test_refinement_agrees_on_shared_samples(self, clean_fit, clean_window):
        coarse = scan_parameter(clean_fit, clean_window,
                                ScanSpec("omega", 6.36, 1.0, steps=21))
        fine = scan_parameter(clean_fit, clean_window,
                              ScanSpec("omega", 6.36, 1.0, steps=41))
        assert coarse.values == fine.values[::2]
        assert coarse.rmse == fine.rmse[::2]

    def test_t2c_below_one_is_undefined_not_fatal(self, clean_fit,
                                                  clean_window):
        spec = ScanSpec("t2c", 2.0, 3.0, steps=7)  # samples -1 .. 5
        curve = scan_parameter(clean_fit, clean_window, spec)
        undefined = [v for v, r in zip(curve.values, curve.rmse) if r is None]
        assert undefined == [v for v in curve.values if v < 1.0]

    def test_flat_curve_on_zero_variance_data(self):
        window = window_of(series_from_values(np.full(60, 750.0)))
        params = canonical_params(a=750.0, b=0.0, c=0.0)
        curve = scan_parameter(fake_fit(params), window,
                               ScanSpec("omega", 6.0, 2.0, steps=15))
        # flat up to solver roundoff (values are ~1e-14 relative to the data)
        assert all(r == pytest.approx(0.0, abs=1e-9) for r in curve.rmse)

    # the phi scan runs the phase-held stack; the t2c grid (-1 .. 5) puts
    # undefined samples into the stack
    @pytest.mark.parametrize("parameter, center, half_width", [
        pytest.param("beta", 0.33, 0.1, id="beta"),
        pytest.param("omega", 6.36, 1.0, id="omega"),
        pytest.param("t2c", 2.0, 3.0, id="t2c"),
        pytest.param("phi", 1.0, 0.5, id="phi"),
    ])
    def test_reoptimize_never_worse_than_fixed(self, clean_fit, clean_window,
                                               parameter, center, half_width):
        spec = ScanSpec(parameter, center, half_width, steps=5)
        fixed = scan_parameter(clean_fit, clean_window, spec)
        freed = scan_parameter(clean_fit, clean_window, spec, reoptimize=True)
        for held, re_opt in zip(fixed.rmse, freed.rmse):
            if held is None:
                assert re_opt is None
            else:
                assert re_opt <= held + 1e-9


    # 21 and 81 samples make stacks above the kernel's small-block size; a
    # cap of 300 evaluations leaves some simplexes unconverged, whose end
    # points move with any change in the values along the way
    @pytest.mark.parametrize("parameter, half_width, steps", [
        pytest.param(parameter, half_width, steps,
                     id=f"{parameter}-{half_width}" + ("" if steps == 21 else f"-{steps}"))
        for steps in (21, 81)
        for parameter, half_width in (("beta", 0.3), ("omega", 3.0),
                                      ("t2c", 40.0), ("phi", 1.5))
    ])
    def test_lockstep_scan_matches_one_simplex_per_sample(self, parameter,
                                                          half_width, steps):
        params = canonical_params()
        window = window_of(generate(GeneratorSpec(params, 150, 5.0, 9)))
        fit = fake_fit(params)
        spec = ScanSpec(parameter, params.theta()[PARAMETER_INDEX[parameter]],
                        half_width, steps=steps)
        settings = SearchSettings(max_evals=300)
        curve = scan_parameter(fit, window, spec, reoptimize=True,
                               settings=settings)
        assert curve.rmse == tuple(reoptimized_one_by_one(fit, window, spec, 300))


class TestScanCsv:
    def test_csv_layout_and_empty_rmse(self, tmp_path):
        curve = ScanCurve("t2c", (0.5, 1.0, 2.0), (None, 0.25, 0.5))
        out = tmp_path / "scan.csv"
        write_scan_csv(curve, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,value,rmse"
        assert lines[1] == "t2c,0.5,"
        assert lines[2] == "t2c,1.0,0.25"
