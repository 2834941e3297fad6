"""Daily price-index series: CSV ingestion, log transforms, descriptive statistics.

A series holds weekday (Mon-Fri) observations only. Values are either the
raw index level or its natural log; the scale travels with the series so
downstream code never has to guess.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, UsageError


class Scale(str, Enum):
    RAW = "raw"
    LOG = "log"


class WeekendDataWarning(UserWarning):
    """Raised (as a warning) when weekend rows are dropped during ingestion."""


_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}


def parse_date(text: str) -> dt.date:
    """Parse an ISO-8601 (1989-05-15) or DD-MMM-YYYY (15-May-1989) date.

    Month names are matched case-insensitively against English
    abbreviations so parsing does not depend on the process locale.
    """
    text = text.strip()
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        pass
    parts = text.split("-")
    if len(parts) == 3 and parts[1][:3].lower() in _MONTHS:
        try:
            return dt.date(int(parts[2]), _MONTHS[parts[1][:3].lower()], int(parts[0]))
        except ValueError as exc:
            raise DataError(f"invalid calendar date: {text!r}") from exc
    raise DataError(f"unparseable date: {text!r} (expected ISO-8601 or DD-MMM-YYYY)")


def is_weekday(d: dt.date) -> bool:
    return d.weekday() < 5


@dataclass(frozen=True)
class PriceSeries:
    """Ordered weekday observations of a price index (raw or log scale)."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    scale: Scale = Scale.RAW
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != len(values):
            raise UsageError("dates and values must have equal length")
        for i, d in enumerate(self.dates):
            if not is_weekday(d):
                raise UsageError(f"non-weekday observation at {d.isoformat()}")
            if i > 0 and d <= self.dates[i - 1]:
                raise UsageError(f"dates not strictly increasing at {d.isoformat()}")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite value in series")
        if self.scale == Scale.RAW and len(values) and values.min() <= 0:
            bad = self.dates[int(np.argmin(values))]
            raise DataError(f"non-positive raw value at {bad.isoformat()}")

    def __len__(self) -> int:
        return len(self.dates)

    def index_of(self, d: dt.date) -> int:
        """Index of the observation on date `d` (exact match required)."""
        import bisect

        i = bisect.bisect_left(self.dates, d)
        if i == len(self.dates) or self.dates[i] != d:
            raise UsageError(f"no observation on {d.isoformat()}")
        return i

    def slice_indices(self, lo: int, hi: int) -> "PriceSeries":
        """Contiguous sub-series over [lo, hi) observation indices."""
        return PriceSeries(self.dates[lo:hi], self.values[lo:hi], self.scale, self.name)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns between consecutive weekday observations.

    Each return is dated on the later of the two observations it spans.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "dates", tuple(self.dates))

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class StatsReport:
    n: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    jarque_bera: float
    jb_p_value: float


def load_csv(path, date_column: str, value_column: str, name: str = "") -> PriceSeries:
    """Read a (date, value) CSV into a raw-scale PriceSeries.

    Rows are sorted by date, so shuffled files produce the same series.
    Weekend rows are dropped with a WeekendDataWarning carrying the count.

    Raises ConfigError when a named column is missing, DataError for
    non-positive values or duplicate dates.
    """
    rows: list[tuple[dt.date, float]] = []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (date_column, value_column):
            if col not in header:
                raise ConfigError(f"column {col!r} not found (header: {header})")
        for lineno, row in enumerate(reader, start=2):
            raw_date = row[date_column]
            raw_value = row[value_column]
            if raw_date is None or raw_value is None or not str(raw_value).strip():
                raise DataError(f"row {lineno}: empty field")
            d = parse_date(raw_date)
            try:
                v = float(raw_value)
            except ValueError as exc:
                raise DataError(f"row {lineno}: unparseable value {raw_value!r}") from exc
            if not math.isfinite(v) or v <= 0:
                raise DataError(f"row {lineno} ({d.isoformat()}): non-positive value {v}")
            if not is_weekday(d):
                dropped += 1
                continue
            rows.append((d, v))
    rows.sort(key=lambda r: r[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DataError(f"duplicate date {d1.isoformat()}")
    if dropped:
        warnings.warn(
            f"dropped {dropped} weekend row(s) from {path}", WeekendDataWarning
        )
    dates = tuple(d for d, _ in rows)
    values = np.array([v for _, v in rows], dtype=float)
    return PriceSeries(dates, values, Scale.RAW, name or str(path))


def write_csv(series: PriceSeries, path, date_column: str = "date",
              value_column: str = "value") -> None:
    """Write a series in the same CSV schema `load_csv` ingests."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([date_column, value_column])
        for d, v in zip(series.dates, series.values):
            writer.writerow([d.isoformat(), repr(float(v))])


def to_log(series: PriceSeries) -> PriceSeries:
    """Natural log of a raw series; dates unchanged."""
    if series.scale != Scale.RAW:
        raise UsageError("to_log expects a raw-scale series")
    return PriceSeries(series.dates, np.log(series.values), Scale.LOG, series.name)


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Log returns log(p_t / p_{t-1}) between consecutive observations."""
    if series.scale != Scale.RAW:
        raise UsageError("log_returns expects a raw-scale series")
    if len(series) < 2:
        raise UsageError("need at least 2 observations for returns")
    logs = np.log(series.values)
    return ReturnSeries(series.dates[1:], np.diff(logs))


def descriptive_stats(returns: ReturnSeries) -> StatsReport:
    """Moment statistics plus the Jarque-Bera normality test.

    Skewness and excess kurtosis use the population (n-denominator)
    central moments; the reported variance is the usual n-1 sample
    variance. JB = (n/6) * (S^2 + K^2/4) with K the excess kurtosis,
    and the p-value comes from a chi-squared with 2 degrees of freedom.
    """
    x = returns.values
    n = len(x)
    if n < 4:
        raise UsageError("need at least 4 returns for moment statistics")
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DegenerateInputError("zero variance: moments undefined")
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    skew = m3 / m2**1.5
    exkurt = m4 / m2**2 - 3.0
    jb = (n / 6.0) * (skew**2 + exkurt**2 / 4.0)
    p = math.exp(-jb / 2.0)  # chi-squared(2) survival function
    return StatsReport(
        n=n,
        mean=mean,
        variance=float(np.var(x, ddof=1)),
        skewness=skew,
        excess_kurtosis=exkurt,
        jarque_bera=jb,
        jb_p_value=p,
    )
