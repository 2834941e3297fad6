import datetime as dt

import numpy as np
import pytest

from bubblefit import (
    ConfigError,
    CrashConfig,
    DataError,
    UsageError,
    WindowRejection,
    find_crash_peaks,
    find_trough,
    make_bubble_window,
)
from bubblefit.crashes import bubble_windows_for_events, load_overrides

from conftest import series_from_values, weekday_grid_from


def spike_series():
    """Flat 300 weekdays at 100, spike to 200, stepwise fall to 140, flat tail.

    The first observation at or below 0.75 * 200 = 150 is the 140 three
    weekdays after the peak, so the qualifying drop ratio is 0.70.
    """
    values = [100.0] * 300 + [200.0, 180.0, 160.0, 140.0] + [140.0] * 26
    return series_from_values(values)


def brute_force_events(series, config):
    """Exhaustive re-scan oracle: position-wise checks with plain loops."""
    v = series.values
    n = len(v)
    events = []
    i = config.lookback_weekdays
    while i < n:
        window = v[i - config.lookback_weekdays:i]
        if max(window) <= v[i]:
            drop = None
            for j in range(i + 1, min(n, i + config.drop_window_weekdays + 1)):
                if v[j] > v[i]:
                    break
                if v[j] <= config.drop_to_fraction * v[i]:
                    drop = j
                    break
            if drop is not None:
                events.append((i, drop))
                i = drop + 1
                continue
        i += 1
    return events


class TestFindCrashPeaks:
    def test_monotone_series_has_no_events(self):
        series = series_from_values(np.linspace(100, 500, 400))
        assert find_crash_peaks(series) == []

    def test_synthetic_spike(self):
        series = spike_series()
        events = find_crash_peaks(series)
        assert len(events) == 1
        event = events[0]
        assert event.peak_date == series.dates[300]
        assert event.peak_value == 200.0
        assert event.qualifying_drop_date == series.dates[303]
        assert event.drop_ratio == pytest.approx(0.70)

    def test_rising_bubble_peak_is_the_top(self):
        # every point on the final run-up is a running maximum whose coming
        # fall is deep enough; the event must sit on the highest one
        rise = np.linspace(100.0, 500.0, 320)
        fall = np.linspace(480.0, 340.0, 12)
        series = series_from_values(np.concatenate([rise, fall, np.full(20, 340.0)]))
        events = find_crash_peaks(series)
        assert len(events) == 1
        assert events[0].peak_date == series.dates[319]
        assert events[0].peak_value == 500.0

    def test_matches_exhaustive_scan_on_random_walks(self):
        config = CrashConfig()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values = 100.0 * np.exp(np.cumsum(rng.normal(0.0005, 0.03, 1500)))
            series = series_from_values(values)
            events = find_crash_peaks(series, config)
            oracle = brute_force_events(series, config)
            got = [(series.index_of(e.peak_date),
                    series.index_of(e.qualifying_drop_date)) for e in events]
            assert got == oracle

    def test_every_peak_is_a_running_maximum(self):
        rng = np.random.default_rng(42)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, 2000)))
        series = series_from_values(values)
        config = CrashConfig()
        for event in find_crash_peaks(series, config):
            i = series.index_of(event.peak_date)
            lookback = series.values[i - config.lookback_weekdays:i]
            assert lookback.max() <= event.peak_value
            assert event.drop_ratio <= config.drop_to_fraction

    def test_lowering_drop_fraction_never_adds_events(self):
        rng = np.random.default_rng(11)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.035, 1500)))
        series = series_from_values(values)
        counts = []
        for frac in (0.9, 0.8, 0.75, 0.6, 0.5):
            events = find_crash_peaks(series, CrashConfig(drop_to_fraction=frac))
            counts.append(len(events))
        assert counts == sorted(counts, reverse=True)

    def test_short_series_is_usage_error(self):
        series = series_from_values([100.0] * 100)
        with pytest.raises(UsageError):
            find_crash_peaks(series)


class TestFindTrough:
    def test_v_shape(self):
        series = series_from_values([10.0, 9.0, 8.0, 9.0, 10.0])
        trough = find_trough(series, None, series.dates[-1])
        assert trough == series.dates[2]

    def test_plateau_tie_breaks_earlier(self):
        series = series_from_values([10.0, 8.0, 8.0, 10.0])
        trough = find_trough(series, None, series.dates[-1])
        assert trough == series.dates[1]

    def test_interval_excludes_previous_peak(self):
        series = series_from_values([5.0, 50.0, 20.0, 30.0, 60.0])
        trough = find_trough(series, series.dates[1], series.dates[4])
        assert trough == series.dates[2]

    def test_trough_is_interval_minimum(self):
        rng = np.random.default_rng(2)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, 300)))
        series = series_from_values(values)
        trough = find_trough(series, series.dates[10], series.dates[250])
        t = series.index_of(trough)
        assert 10 < t < 250
        assert series.values[t] <= series.values[11:250].min()

    def test_empty_interval(self):
        series = series_from_values([1.0, 2.0, 3.0])
        with pytest.raises(UsageError):
            find_trough(series, series.dates[1], series.dates[2])


class TestMakeBubbleWindow:
    def test_plain_window(self):
        dates = weekday_grid_from(dt.date(1987, 12, 7), 380)
        assert dates[0] == dt.date(1987, 12, 7)
        series = series_from_values(np.linspace(1895, 3310, 380),
                                    start=dt.date(1987, 12, 7))
        peak = series.dates[-1]
        window = make_bubble_window(series, series.dates[0], peak)
        assert window.start_date == dt.date(1987, 12, 7)
        assert window.end_date == peak
        assert not window.override_applied
        assert len(window) == 380

    def test_override_moves_start(self):
        series = series_from_values(np.linspace(200, 800, 970),
                                    start=dt.date(1974, 12, 10))
        peak = series.dates[-1]
        override = dt.date(1978, 1, 13)
        window = make_bubble_window(series, series.dates[0], peak,
                                    override=override)
        assert window.start_date == override
        assert window.override_applied
        saturday = make_bubble_window(series, series.dates[0], peak,
                                      override=dt.date(1978, 1, 14))
        assert saturday.start_date == dt.date(1978, 1, 16)

    def test_rejects_130_of_131(self):
        series = series_from_values(np.linspace(100, 200, 130))
        with pytest.raises(WindowRejection) as err:
            make_bubble_window(series, series.dates[0], series.dates[-1])
        assert err.value.n_observations == 130

    def test_accepts_exactly_min(self):
        series = series_from_values(np.linspace(100, 200, 131))
        window = make_bubble_window(series, series.dates[0], series.dates[-1])
        assert len(window) == 131

    def test_override_outside_range_rejected(self):
        series = series_from_values(np.linspace(100, 200, 200))
        with pytest.raises(UsageError):
            make_bubble_window(series, series.dates[10], series.dates[-1],
                               override=series.dates[5])


class TestPipeline:
    def test_windows_for_spike_series(self):
        series = spike_series()
        events = find_crash_peaks(series)
        decisions = bubble_windows_for_events(series, events)
        assert len(decisions) == 1
        d = decisions[0]
        # rising-from-flat series: trough at the very first observation
        assert d.trough_date == series.dates[0]
        assert d.window is not None
        assert d.window.end_date == events[0].peak_date
        assert len(d.window) == 301

    def test_short_window_recorded_not_fatal(self):
        values = [100.0] * 300 + [200.0, 140.0] + [140.0] * 28
        series = series_from_values(values)
        # trough on the flat plateau gives a long window; force a shorter
        # minimum so acceptance passes, then a huge one so it rejects
        events = find_crash_peaks(series)
        assert len(events) == 1
        strict = CrashConfig(min_bubble_weekdays=500)
        decisions = bubble_windows_for_events(series, events, strict)
        assert decisions[0].window is None
        assert "500" in decisions[0].rejection_reason

    def test_override_file_round_trip(self, tmp_path):
        f = tmp_path / "overrides.csv"
        f.write_text("peak_date,bubble_start_date\n1994-01-04,19-Aug-1991\n")
        overrides = load_overrides(f)
        assert overrides == {dt.date(1994, 1, 4): dt.date(1991, 8, 19)}

    def test_a_blank_line_is_counted_in_the_override_row_number(self, tmp_path):
        f = tmp_path / "overrides.csv"
        # line 3 is blank, so the bad date sits on line 4
        f.write_text("peak_date,bubble_start_date\n1994-01-04,19-Aug-1991\n\n"
                     "1998-05-15,garbage\n")
        with pytest.raises(DataError, match="^row 4: unparseable date: 'garbage'"):
            load_overrides(f)

    def test_a_missing_override_column_is_config_error(self, tmp_path):
        f = tmp_path / "overrides.csv"
        f.write_text("peak_date,start\n1994-01-04,19-Aug-1991\n")
        with pytest.raises(ConfigError, match="^column 'bubble_start_date' not found"):
            load_overrides(f)
