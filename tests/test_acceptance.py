"""Acceptance suite.

Criteria 1-6 replay the published Hang Seng analysis and need the
proprietary daily-close file; point HANG_SENG_CSV at a CSV covering
1970-01-01..2008-12-31 to enable them. Criteria 7-8 are self-contained
and always run. Each test prints one PASS/FAIL/SKIP line in the terminal
summary (see conftest).
"""

import datetime as dt
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from bubblefit import (
    BubbleWindow,
    CrashConfig,
    GeneratorSpec,
    HazardParams,
    LpplParams,
    PriceSeries,
    Scale,
    canonicalize_theta,
    descriptive_stats,
    find_crash_peaks,
    fit_bubble,
    generate,
    hazard_rate,
    linear_solve,
    log_returns,
    lppl_curve,
    make_bubble_window,
    monotonicity_check,
    write_csv,
)
from bubblefit.cli import main
from bubblefit.crashes import bubble_windows_for_events
from bubblefit.lppl import window_objective
from bubblefit.series import load_csv

from conftest import NOISY_PARAMS, canonical_params, crash_series
from test_series import brute_force_jarque_bera

DATA_ENV = "HANG_SENG_CSV"
needs_data = pytest.mark.skipif(
    DATA_ENV not in os.environ,
    reason=f"set {DATA_ENV}=/path/to/hang_seng_daily.csv to run the "
           "published-study reproduction",
)

EXPECTED_CRASH_YEARS = [1971, 1973, 1978, 1980, 1981, 1987, 1989, 1994,
                        1997, 2000, 2007]

# bubble boundaries (start already moved where the published study moved
# it), the expected price ratio to 2 decimals, and whether the raw-scale
# fit is invalid (ratio > 2)
BUBBLE_TABLE = [
    ("1971-03-10", "1971-09-20", 2.02, True, True),
    ("1971-11-22", "1973-03-09", 6.36, True, False),
    ("1978-01-13", "1978-09-04", 1.85, False, True),
    ("1978-11-20", "1980-11-13", 3.54, True, False),
    ("1980-12-12", "1981-07-17", 1.48, False, False),
    ("1984-07-23", "1987-10-01", 5.29, True, True),
    ("1987-12-07", "1989-05-15", 1.75, False, False),
    ("1991-08-19", "1994-01-04", 3.28, True, True),
    ("1995-01-23", "1997-08-07", 2.39, True, False),
    ("1998-08-13", "2000-03-28", 2.75, True, False),
    ("2003-04-23", "2007-10-30", 3.71, True, False),
]

# best reported raw-scale RMSE per bubble end year
BEST_RMSE = {
    1971: 6.11, 1973: 40.91, 1978: 10.12, 1980: 35.02, 1981: 40.46,
    1987: 68.47, 1989: 76.33, 1994: 272.82, 1997: 438.79, 2000: 710.99,
    2007: 693.61,
}

START_OVERRIDES = {
    dt.date(1971, 9, 20): dt.date(1971, 3, 10),
    dt.date(1978, 9, 4): dt.date(1978, 1, 13),
    dt.date(1987, 10, 1): dt.date(1984, 7, 23),
    dt.date(1994, 1, 4): dt.date(1991, 8, 19),
}

RECOVERY_PARAMS = canonical_params()


@pytest.fixture(scope="module")
def hang_seng() -> PriceSeries:
    path = os.environ[DATA_ENV]
    series = load_csv(path, name="hang-seng")
    lo, hi = dt.date(1970, 1, 1), dt.date(2008, 12, 31)
    keep = [i for i, d in enumerate(series.dates) if lo <= d <= hi]
    return PriceSeries(tuple(series.dates[i] for i in keep),
                       series.values[keep], Scale.RAW, series.name)


@pytest.fixture(scope="module")
def hang_seng_events(hang_seng):
    return find_crash_peaks(hang_seng, CrashConfig())


_fit_cache: dict[int, object] = {}


def paper_mode_fit(hang_seng, start: dt.date, peak: dt.date):
    """Raw-scale fit with the reported-fit conventions; cached per bubble."""
    year = peak.year
    if year not in _fit_cache:
        window = make_bubble_window(hang_seng, start, peak, CrashConfig())
        _fit_cache[year] = fit_bubble(window, paper_mode=True)
    return _fit_cache[year]


@needs_data
def test_criterion1_crash_census(hang_seng):
    started = time.perf_counter()
    events = find_crash_peaks(hang_seng, CrashConfig())
    elapsed = time.perf_counter() - started
    years = [e.peak_date.year for e in events]
    assert years == EXPECTED_CRASH_YEARS, f"detected {years}"
    assert elapsed < 5.0, f"detection took {elapsed:.2f}s"


@needs_data
def test_criterion2_validity_ratios(hang_seng, hang_seng_events):
    decisions = bubble_windows_for_events(hang_seng, hang_seng_events,
                                          CrashConfig(), START_OVERRIDES)
    assert len(decisions) == len(BUBBLE_TABLE)
    for decision, (start, end, ratio, flagged, _) in zip(decisions, BUBBLE_TABLE):
        window = decision.window
        assert window is not None, f"{end}: window rejected"
        assert window.start_date.isoformat() == start
        assert window.end_date.isoformat() == end
        from bubblefit import raw_index_validity

        got_ratio, valid = raw_index_validity(window)
        assert round(got_ratio, 2) == ratio, f"{end}: ratio {got_ratio:.4f}"
        assert (not valid) == flagged, f"{end}: flag mismatch"


@needs_data
@pytest.mark.parametrize("start,end", [(row[0], row[1]) for row in BUBBLE_TABLE])
def test_criterion3_fit_quality(hang_seng, start, end):
    start_d, end_d = dt.date.fromisoformat(start), dt.date.fromisoformat(end)
    started = time.perf_counter()
    report = paper_mode_fit(hang_seng, start_d, end_d)
    elapsed = time.perf_counter() - started
    target = BEST_RMSE[end_d.year] * 1.02
    best = report.best.diagnostics.rmse
    assert best <= target, f"{end}: rmse {best:.2f} > {target:.2f}"
    assert elapsed < 120.0, f"{end}: fit took {elapsed:.1f}s"


@needs_data
def test_criterion4_2007_prediction(hang_seng):
    report = paper_mode_fit(hang_seng, dt.date(2003, 4, 23),
                            dt.date(2007, 10, 30))
    best = report.best
    assert best.diagnostics.is_precursor, best.params.theta()
    assert 1.0 <= best.params.t2c <= 3.0, f"t2c = {best.params.t2c:.2f}"


@needs_data
def test_criterion5_1989_monotonicity(hang_seng):
    window = make_bubble_window(hang_seng, dt.date(1987, 12, 7),
                                dt.date(1989, 5, 15), CrashConfig())
    published = LpplParams(a=3575.0, b=-53.0, c=-0.195, beta=0.52, omega=4.95,
                           t2c=31.0, phi=1.74,
                           anchor_date=dt.date(1989, 5, 15))
    monotone, violations = monotonicity_check(published, window)
    assert not monotone
    assert violations


@needs_data
def test_criterion6_descriptive_statistics(hang_seng):
    returns = log_returns(hang_seng)
    report = descriptive_stats(returns)
    assert f"{report.skewness:.3g}" == "-1.26", report.skewness
    assert f"{report.excess_kurtosis:.3g}" == "31.6", report.excess_kurtosis
    oracle_jb, _, _ = brute_force_jarque_bera(returns.values.tolist())
    assert report.jarque_bera == pytest.approx(oracle_jb, rel=1e-9)


def test_criterion7a_noise_free_recovery(noise_free_fits):
    best = noise_free_fits[0].params
    assert best.beta == pytest.approx(0.33, abs=1e-3)
    assert best.omega == pytest.approx(6.36, abs=1e-2)
    assert best.t2c == pytest.approx(30.0, abs=0.5)
    assert best.phi == pytest.approx(1.0, abs=1e-2)


def test_criterion7b_noisy_recovery_rate():
    sigma = 0.01 * NOISY_PARAMS.a
    hits = 0
    for seed in range(100, 150):
        series = generate(GeneratorSpec(NOISY_PARAMS, n_weekdays=400,
                                        noise_sigma=sigma, rng_seed=seed))
        window = BubbleWindow(series.dates[0], series.dates[-1], series)
        from bubblefit import recursive_seed_search

        best = recursive_seed_search(window)[0]
        beta, omega, t2c, _ = best.params.theta()
        if (abs(beta - NOISY_PARAMS.beta) <= 0.05
                and abs(omega - NOISY_PARAMS.omega) <= 0.2
                and abs(t2c - NOISY_PARAMS.t2c) <= 3.0):
            hits += 1
    assert hits >= 45, f"only {hits}/50 noisy trials recovered"


def test_criterion7c_linear_solve_orthogonality(noise_free_window):
    theta = (0.41, 5.9, 33.0, 1.4)
    solved = linear_solve(*theta, noise_free_window)
    gaps = theta[2] + noise_free_window.ages_days()
    f = gaps ** theta[0]
    g = f * np.cos(theta[1] * np.log(gaps) + theta[3])
    design = np.column_stack([np.ones_like(f), f, g])
    y = noise_free_window.values
    resid = y - design @ [solved.a, solved.b, solved.b * solved.c]
    bound = 1e-6 * np.linalg.norm(y)
    for column in design.T:
        assert abs(resid @ column) / np.linalg.norm(column) < bound


def test_criterion7d_shift_and_scale_equivariance(noise_free_window):
    w = noise_free_window
    theta = (0.4, 6.0, 20.0, 0.5)
    base = linear_solve(*theta, w)

    shifted = BubbleWindow(w.start_date, w.end_date, PriceSeries(
        w.dates, w.values + 123.0, Scale.RAW))
    moved = linear_solve(*theta, shifted)
    assert moved.a == pytest.approx(base.a + 123.0, rel=1e-9)
    assert moved.b == pytest.approx(base.b, rel=1e-9)
    assert moved.c == pytest.approx(base.c, rel=1e-9)

    scaled = BubbleWindow(w.start_date, w.end_date, PriceSeries(
        w.dates, w.values * 2.5, Scale.RAW))
    times = linear_solve(*theta, scaled)
    assert times.a == pytest.approx(2.5 * base.a, rel=1e-9)
    assert times.b == pytest.approx(2.5 * base.b, rel=1e-9)
    assert times.c == pytest.approx(base.c, rel=1e-9)


def test_criterion7e_phi_periodicity(noise_free_window):
    objective = window_objective(noise_free_window)
    theta = (0.4, 5.5, 25.0, 0.7)
    shifted = (0.4, 5.5, 25.0, 0.7 + 2 * math.pi)
    assert objective(shifted) == pytest.approx(objective(theta), rel=1e-12)
    p1 = canonical_params(c=0.3, phi=0.8)
    p2 = canonical_params(c=-0.3, phi=0.8 + math.pi)
    dates = noise_free_window.dates
    assert np.allclose(lppl_curve(p1, dates), lppl_curve(p2, dates), rtol=1e-12)


def test_criterion7f_canonicalization_idempotence():
    rng = np.random.default_rng(23)
    for _ in range(500):
        theta = (float(rng.uniform(0.01, 3)), float(rng.uniform(-30, 30)),
                 float(rng.uniform(1, 300)), float(rng.uniform(-12, 12)))
        once = canonicalize_theta(theta)
        assert canonicalize_theta(once) == once
        assert once[1] >= 0.0 and 0.0 <= once[3] < math.pi


def test_criterion7g_hazard_integral_quadrature():
    h = HazardParams(kappa=0.25, b_prime=0.8, c_prime=0.6, alpha=0.55)
    omega, phi, t_c = 6.0, 0.9, 500.0
    from bubblefit import hazard_log_price_gain

    closed = hazard_log_price_gain(h, omega, phi, t_c, 0.0, 470.0)
    numeric = h.kappa * quad(
        lambda u: hazard_rate(h, omega, phi, t_c, u), 0.0, 470.0, limit=400
    )[0]
    assert closed == pytest.approx(numeric, rel=1e-6)


def test_criterion8_byte_identical_fit_runs(tmp_path):
    data = tmp_path / "crash.csv"
    write_csv(crash_series(), data)
    out = tmp_path / "out"
    argv = ["--input", str(data), "--command", "fit", "--out", str(out)]

    assert main(list(argv)) == 0
    first = {p.name: p.read_bytes() for p in out.glob("*.json")}
    assert any(name.startswith("fit_") for name in first)

    assert main(list(argv)) == 0
    second = {p.name: p.read_bytes() for p in out.glob("*.json")}
    assert first == second
