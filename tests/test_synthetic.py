import datetime as dt

import numpy as np
import pytest

from bubblefit import (
    CrashConfig,
    GenerationError,
    GeneratorSpec,
    Scale,
    ScanSpec,
    UsageError,
    generate,
    rmse,
)
from bubblefit.synthetic import weekday_grid

from conftest import canonical_params, window_of


class TestWeekdayGrid:
    def test_ends_at_anchor(self):
        grid = weekday_grid(dt.date(2005, 6, 30), 10)
        assert len(grid) == 10
        assert grid[-1] == dt.date(2005, 6, 30)
        assert all(d.weekday() < 5 for d in grid)

    def test_rejects_weekend_anchor(self):
        with pytest.raises(UsageError):
            weekday_grid(dt.date(2005, 7, 2), 10)  # a Saturday


class TestGenerate:
    def test_noise_free_series_lies_on_curve(self):
        params = canonical_params()
        series = generate(GeneratorSpec(params, 120, 0.0, 5))
        window = window_of(series)
        assert rmse(params, window) == pytest.approx(0.0, abs=1e-12)

    def test_same_seed_reproduces_exactly(self):
        spec = GeneratorSpec(canonical_params(), 200, 7.5, rng_seed=99)
        a, b = generate(spec), generate(spec)
        assert a.dates == b.dates
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        base = GeneratorSpec(canonical_params(), 200, 7.5, rng_seed=99)
        other = GeneratorSpec(canonical_params(), 200, 7.5, rng_seed=100)
        assert not np.array_equal(generate(base).values, generate(other).values)

    def test_noise_level_recovered(self):
        sigma = 8.0
        params = canonical_params()
        spec = GeneratorSpec(params, 2000, sigma, rng_seed=11)
        series = generate(spec)
        curve = series.values - (series.values - _curve_values(params, series))
        residual = series.values - _curve_values(params, series)
        assert abs(np.std(residual) - sigma) / sigma < 0.10
        assert curve is not None

    def test_non_positive_raw_value_names_date(self):
        params = canonical_params(a=5.0, b=-35.0)  # curve dives below zero
        with pytest.raises(GenerationError, match=r"\d{4}-\d{2}-\d{2}"):
            generate(GeneratorSpec(params, 50, 0.0, 1))

    def test_log_scale_passes_through(self):
        params = canonical_params(a=3.0, b=-0.5, scale=Scale.LOG)
        series = generate(GeneratorSpec(params, 60, 0.0, 1))
        assert series.scale == Scale.LOG

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            GeneratorSpec(canonical_params(), 5, 0.0, 1)
        with pytest.raises(UsageError):
            GeneratorSpec(canonical_params(), 50, -1.0, 1)


# a float, fractional or whole, or a bool in an integer field is refused
# where the object is made, naming the field
@pytest.mark.parametrize("field, make", [
    ("lookback_weekdays", lambda: CrashConfig(lookback_weekdays=20.5)),
    ("lookback_weekdays", lambda: CrashConfig(lookback_weekdays=True)),
    ("min_bubble_weekdays", lambda: CrashConfig(min_bubble_weekdays=131.0)),
    ("steps", lambda: ScanSpec("beta", 0.3, 0.1, steps=5.0).grid()),
    ("n_weekdays", lambda: generate(GeneratorSpec(canonical_params(), 320.9))),
    ("rng_seed", lambda: GeneratorSpec(canonical_params(), 320, 0.0, True)),
], ids=["fractional_lookback", "bool_lookback", "whole_float_bubble",
        "float_scan_steps", "fractional_count", "bool_rng_seed"])
def test_an_integer_field_takes_only_an_int(field, make):
    with pytest.raises(UsageError, match=f"^{field} must be an"):
        make()


def _curve_values(params, series):
    from bubblefit import lppl_curve

    return lppl_curve(params, series.dates)
