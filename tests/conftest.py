import datetime as dt
import re

import numpy as np
import pytest

from bubblefit import (
    BubbleWindow,
    GeneratorSpec,
    LpplParams,
    PriceSeries,
    Scale,
    generate,
    recursive_seed_search,
)

# reference parameters used across recovery tests: inside the precursor
# ranges, weak enough oscillation to keep the curve monotone
CANONICAL = dict(a=1000.0, b=-35.0, c=0.05, beta=0.33, omega=6.36,
                 t2c=30.0, phi=1.0)
ANCHOR = dt.date(2005, 6, 30)


def canonical_params(scale=Scale.RAW, **overrides) -> LpplParams:
    fields = dict(CANONICAL)
    fields.update(overrides)
    return LpplParams(**fields, anchor_date=ANCHOR, scale=scale)


# criterion 7b's noisy bubble (noise 1 % of a)
NOISY_PARAMS = canonical_params(b=-90.0, c=0.2)


def series_from_values(values, start=dt.date(2000, 1, 3), scale=Scale.RAW,
                       name="test") -> PriceSeries:
    values = np.asarray(values, dtype=float)
    dates = weekday_grid_from(start, len(values))
    return PriceSeries(dates, values, scale, name)


def weekday_grid_from(start: dt.date, n: int) -> tuple[dt.date, ...]:
    start64 = np.datetime64(start, "D")
    days = np.busday_offset(start64, np.arange(n), roll="forward")
    return tuple(d.astype(dt.date) for d in days)


def window_of(series: PriceSeries) -> BubbleWindow:
    return BubbleWindow(series.dates[0], series.dates[-1], series)


@pytest.fixture(scope="session")
def noise_free_window() -> BubbleWindow:
    series = generate(GeneratorSpec(canonical_params(), n_weekdays=400,
                                    noise_sigma=0.0, rng_seed=1))
    return window_of(series)


def crash_series() -> PriceSeries:
    """Monotone synthetic bubble followed by a one-third fall."""
    params = canonical_params(c=0.04, t2c=5.0)
    bubble = generate(GeneratorSpec(params, 320, 0.0, 12))
    peak = bubble.values[-1]
    tail = np.concatenate([
        np.linspace(peak * 0.97, peak * 0.70, 8),
        np.full(30, peak * 0.70),
    ])
    tail_dates = tuple(
        d.astype(dt.date)
        for d in np.busday_offset(np.datetime64(bubble.dates[-1], "D"),
                                  np.arange(1, len(tail) + 1))
    )
    return PriceSeries(bubble.dates + tail_dates,
                       np.concatenate([bubble.values, tail]))


@pytest.fixture(scope="session")
def noise_free_fits(noise_free_window):
    """Full default-configuration search on the clean window (slow; shared)."""
    return recursive_seed_search(noise_free_window)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    lines = {}
    for status in ("passed", "failed", "skipped", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in name and report.when in ("call", "setup"):
                key = name.split("::")[-1]
                lines.setdefault(key, status.upper())
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(lines, key=_criterion_order):
        terminalreporter.write_line(f"{lines[key]:>7}  {key}")


def _criterion_order(name: str):
    match = re.search(r"criterion(\d+)", name)
    return (int(match.group(1)) if match else 99, name)
