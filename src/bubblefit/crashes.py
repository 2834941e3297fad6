"""Crash-initiating peaks, troughs, and the bubble windows between them.

A peak initiates a crash when it is a running maximum over a trailing
lookback of weekdays and the index falls to a fraction of the peak value
within a forward window of weekdays. The bubble fitted to the run-up
spans from the trough after the previous crash (or an explicit override
date) up to and including the peak.

All weekday counting is positional (observation indices), not calendar
arithmetic.
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UsageError, WindowRejection
from .series import PriceSeries, Scale, parse_date, read_rows, to_log


@dataclass(frozen=True)
class CrashConfig:
    lookback_weekdays: int = 262
    drop_to_fraction: float = 0.75
    drop_window_weekdays: int = 60
    min_bubble_weekdays: int = 131

    def __post_init__(self):
        if not (0.0 < self.drop_to_fraction < 1.0):
            raise UsageError("drop_to_fraction must be in (0, 1)")
        for field in ("lookback_weekdays", "drop_window_weekdays", "min_bubble_weekdays"):
            value = getattr(self, field)
            if not (type(value) is int and value >= 1):  # type(): a bool is an int
                raise UsageError(f"{field} must be an integer >= 1 (got {value!r})")


@dataclass(frozen=True)
class CrashEvent:
    peak_date: dt.date
    peak_value: float
    qualifying_drop_date: dt.date
    drop_ratio: float


@dataclass(frozen=True)
class BubbleWindow:
    """A contiguous [start, peak] slice of a series selected for fitting."""

    start_date: dt.date
    end_date: dt.date
    series_slice: PriceSeries
    override_applied: bool = False

    def __post_init__(self):
        if self.end_date <= self.start_date:
            raise UsageError("window end must be after its start")

    def __len__(self) -> int:
        return len(self.series_slice)

    @property
    def anchor_date(self) -> dt.date:
        """Last day used for fitting (the peak date)."""
        return self.end_date

    @property
    def scale(self) -> Scale:
        return self.series_slice.scale

    @property
    def values(self) -> np.ndarray:
        return self.series_slice.values

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return self.series_slice.dates

    def ages_days(self) -> np.ndarray:
        """Calendar days from each observation back to the anchor (>= 0)."""
        anchor = self.end_date
        return np.array([(anchor - d).days for d in self.dates], dtype=float)

    def with_log_values(self) -> "BubbleWindow":
        return BubbleWindow(
            self.start_date, self.end_date, to_log(self.series_slice),
            self.override_applied,
        )


def find_crash_peaks(series: PriceSeries, config: CrashConfig = CrashConfig()) -> list[CrashEvent]:
    """Scan a raw series for peaks that initiate crashes.

    A weekday qualifies when (a) none of the preceding
    `lookback_weekdays` observations exceeds its value, (b) some
    observation within the next `drop_window_weekdays` falls to
    `drop_to_fraction` of it or below (the first such observation is the
    qualifying drop), and (c) no observation between the candidate and
    its qualifying drop exceeds the candidate. Without (c), every point
    on the final run-up to a top would register its own event off the
    same fall; the higher point ahead is the real peak, and a "drop"
    that the bubble first climbs straight through is no crash. After an
    event is emitted, scanning resumes past its drop date so one fall is
    never counted twice.
    """
    if series.scale != Scale.RAW:
        raise UsageError("peak detection expects a raw-scale series")
    n = len(series)
    look = config.lookback_weekdays
    if n <= look:
        raise UsageError(f"series length {n} does not exceed lookback {look}")
    v = series.values
    # trailing max over the `look` observations before each index
    windows = np.lib.stride_tricks.sliding_window_view(v[:-1], look)
    trailing_max = windows.max(axis=1)  # trailing_max[k] covers v[k : k+look]

    events: list[CrashEvent] = []
    i = look
    while i < n:
        peak = v[i]
        if trailing_max[i - look] <= peak:
            limit = config.drop_to_fraction * peak
            stop = min(n, i + config.drop_window_weekdays + 1)
            drop_at = -1
            for j in range(i + 1, stop):
                if v[j] > peak:
                    break  # bubble continues above this point: not the peak
                if v[j] <= limit:
                    drop_at = j
                    break
            if drop_at >= 0:
                events.append(
                    CrashEvent(
                        peak_date=series.dates[i],
                        peak_value=float(peak),
                        qualifying_drop_date=series.dates[drop_at],
                        drop_ratio=float(v[drop_at] / peak),
                    )
                )
                i = drop_at + 1
                continue
        i += 1
    return events


def find_trough(series: PriceSeries, previous_crash_peak: dt.date | None,
                next_peak: dt.date) -> dt.date:
    """Date of the lowest value between two peaks (earliest on ties).

    The interval is exclusive of both peaks; with no previous peak it
    starts at the first observation.
    """
    hi = series.index_of(next_peak)
    lo = series.index_of(previous_crash_peak) + 1 if previous_crash_peak else 0
    if lo >= hi:
        raise UsageError("empty interval between peaks")
    segment = series.values[lo:hi]
    return series.dates[lo + int(np.argmin(segment))]


def make_bubble_window(series: PriceSeries, start: dt.date, peak: dt.date,
                       config: CrashConfig = CrashConfig(),
                       override: dt.date | None = None) -> BubbleWindow:
    """Build the [start, peak] window, honoring an explicit start override.

    Raises WindowRejection (carrying the observation count) when the
    window holds fewer than `min_bubble_weekdays` observations.
    """
    if start >= peak:
        raise UsageError("bubble start must precede the peak")
    if override is not None and not (start <= override < peak):
        raise UsageError(f"override start {override.isoformat()} for the peak "
                         f"{peak.isoformat()} must lie in [trough, peak) = "
                         f"[{start.isoformat()}, {peak.isoformat()})")
    begin = override if override is not None else start
    hi = series.index_of(peak) + 1
    lo = bisect.bisect_left(series.dates, begin, 0, hi - 1)
    window_slice = series.slice_indices(lo, hi)
    if len(window_slice) < config.min_bubble_weekdays:
        raise WindowRejection(
            f"window {series.dates[lo].isoformat()}..{peak.isoformat()} has "
            f"{len(window_slice)} observations "
            f"(minimum {config.min_bubble_weekdays})",
            n_observations=len(window_slice),
        )
    return BubbleWindow(
        start_date=series.dates[lo],
        end_date=peak,
        series_slice=window_slice,
        override_applied=override is not None,
    )


def load_overrides(path) -> dict[dt.date, dt.date]:
    """Read a (peak_date, bubble_start_date) CSV of explicit bubble starts.

    Raises ConfigError when a column is missing, and DataError for a file
    that is not UTF-8, for a duplicate peak or, naming the row's line, for
    an empty field or an unparseable date.
    """
    overrides: dict[dt.date, dt.date] = {}
    rows = read_rows(path, lambda header: ("peak_date", "bubble_start_date"))
    for lineno, cells in rows:
        try:
            peak, start = map(parse_date, cells)
        except DataError as exc:
            raise DataError(f"row {lineno}: {exc}") from exc
        if peak in overrides:
            raise DataError(f"duplicate override for peak {peak.isoformat()}")
        overrides[peak] = start
    return overrides


@dataclass(frozen=True)
class WindowDecision:
    """Outcome of turning one crash event into a fittable window."""

    event: CrashEvent
    trough_date: dt.date
    window: BubbleWindow | None
    rejection_reason: str | None
    n_observations: int

    def to_dict(self) -> dict:
        d = {
            "peak_date": self.event.peak_date.isoformat(),
            "trough_date": self.trough_date.isoformat(),
            "n_observations": self.n_observations,
            "accepted": self.window is not None,
            "rejection_reason": self.rejection_reason,
        }
        if self.window is not None:
            d["start_date"] = self.window.start_date.isoformat()
            d["end_date"] = self.window.end_date.isoformat()
            d["override_applied"] = self.window.override_applied
        return d


def bubble_windows_for_events(
    series: PriceSeries,
    events: list[CrashEvent],
    config: CrashConfig = CrashConfig(),
    overrides: dict[dt.date, dt.date] | None = None,
) -> list[WindowDecision]:
    """Chain troughs between consecutive crash peaks into bubble windows.

    `overrides` maps a crash peak's date to an explicit bubble start; a
    date that is no detected peak raises ConfigError naming it.
    """
    overrides = overrides or {}
    unmatched = sorted(set(overrides) - {event.peak_date for event in events})
    if unmatched:
        raise ConfigError("override peak dates match no detected crash peak: "
                          + ", ".join(d.isoformat() for d in unmatched))
    decisions: list[WindowDecision] = []
    previous_peak: dt.date | None = None
    for event in events:
        trough = find_trough(series, previous_peak, event.peak_date)
        override = overrides.get(event.peak_date)
        try:
            window = make_bubble_window(series, trough, event.peak_date, config, override)
            decisions.append(WindowDecision(event, trough, window, None, len(window)))
        except WindowRejection as rej:
            decisions.append(WindowDecision(event, trough, None, str(rej), rej.n_observations))
        previous_peak = event.peak_date
    return decisions
