"""Daily price-index series: CSV ingestion, log transforms, descriptive statistics.

A series holds weekday (Mon-Fri) observations only. Values are either the
raw index level or its natural log; the scale travels with the series so
downstream code never has to guess.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import math
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
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

# from Python 3.11 date.fromisoformat also reads 20050630 and 2005-W26-4
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """Parse a YYYY-MM-DD (1989-05-15) or DD-MMM-YYYY (15-May-1989) date.

    Month names are matched case-insensitively against English
    abbreviations so parsing does not depend on the process locale. A
    date of either form that the calendar lacks (2005-02-30, 30-Feb-2005)
    raises DataError "invalid calendar date", other text "unparseable date".
    """
    text = text.strip()
    parts = text.split("-")
    try:
        if _ISO_DATE.fullmatch(text):
            return dt.date.fromisoformat(text)
        if len(parts) == 3 and parts[1][:3].lower() in _MONTHS:
            return dt.date(int(parts[2]), _MONTHS[parts[1][:3].lower()], int(parts[0]))
    except ValueError as exc:
        raise DataError(f"invalid calendar date: {text!r}") from exc
    raise DataError(f"unparseable date: {text!r} (expected YYYY-MM-DD or DD-MMM-YYYY)")


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
        i = bisect.bisect_left(self.dates, d)
        if i == len(self.dates) or self.dates[i] != d:
            raise UsageError(f"no observation on {d.isoformat()}")
        return i

    def slice_indices(self, lo: int, hi: int) -> "PriceSeries":
        """Contiguous sub-series over [lo, hi) observation indices."""
        return PriceSeries(self.dates[lo:hi], self.values[lo:hi], self.scale, self.name)


@dataclass(frozen=True)
class StatsReport:
    n: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    jarque_bera: float
    jb_p_value: float


@contextmanager
def open_input(path, error: type[Exception]):
    """Open an input file as UTF-8, whatever the locale, dropping a leading
    byte-order mark; a byte that is not UTF-8 raises `error` naming it."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_rows(path, columns):
    """Yield (line number, cells) for each data row of a CSV, read through
    `open_input`.

    `columns(header)` returns the names of the columns to read; a name
    missing from the header raises ConfigError, and a name the header
    holds twice reads its first column. Blank lines are skipped but still
    counted, so the number is the row's physical line. Cells are stripped,
    and a missing or empty one raises DataError naming the line.
    """
    with open_input(path, DataError) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        names = columns(header)
        for name in names:
            if name not in header:
                raise ConfigError(f"column {name!r} not found (header: {header})")
        picks = [header.index(name) for name in names]
        for row in reader:
            if not row:
                continue
            cells = [row[i].strip() if i < len(row) else "" for i in picks]
            if not all(cells):
                raise DataError(f"row {reader.line_num}: empty field")
            yield reader.line_num, cells


def _pick_column(header, named, guesses, position, kind) -> str:
    if named:
        return named
    lowered = [cell.strip().lower() for cell in header]
    for guess in guesses:
        if guess in lowered:
            return header[lowered.index(guess)]
    print(f"note: using column {header[position]!r} as the {kind} column",
          file=sys.stderr)
    return header[position]


def load_csv(path, date_column: str | None = None,
             value_column: str | None = None) -> PriceSeries:
    """Read a (date, value) CSV into a raw-scale PriceSeries named by its
    path.

    Each column is the one the caller names. Otherwise it is the first
    column whose name, stripped and in any case, is the first of a list of
    guesses that the header holds: `date`, `day` for the date and `value`,
    `close`, `price`, `index`, `adj close` for the value. Otherwise it is
    the first (date) or second (value) column, with a note on stderr.
    Rows are sorted by date, so shuffled files produce the same series.
    Weekend rows are dropped with a WeekendDataWarning carrying the count.

    Raises ConfigError for a header of fewer than two columns or without
    a named column, and DataError for a file that is not UTF-8, for
    duplicate dates or, naming the row's line, for an empty field, an
    unparseable date or value, or a value that is not finite and positive.
    """
    def columns(header):
        if len(header) < 2:
            raise ConfigError(f"{path}: need a header row with at least two columns")
        return (_pick_column(header, date_column, ("date", "day"), 0, "date"),
                _pick_column(header, value_column,
                             ("value", "close", "price", "index", "adj close"),
                             1, "value"))

    rows: list[tuple[dt.date, float]] = []
    dropped = 0
    for lineno, (raw_date, raw_value) in read_rows(path, columns):
        try:
            d = parse_date(raw_date)
        except DataError as exc:
            raise DataError(f"row {lineno}: {exc}") from exc
        try:
            v = float(raw_value)
        except ValueError as exc:
            raise DataError(f"row {lineno}: unparseable value {raw_value!r}") from exc
        if not math.isfinite(v) or v <= 0:
            problem = "non-positive" if math.isfinite(v) else "non-finite"
            raise DataError(f"row {lineno} ({d.isoformat()}): {problem} value {v}")
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
    return PriceSeries(dates, values, Scale.RAW, str(path))


def to_json_data(record):
    """`record` as JSON-ready data, recursively: a dataclass field by field,
    a date as ISO-8601, an Enum by its value, a tuple or list as a list;
    anything else as it is."""
    if is_dataclass(record):
        return {f.name: to_json_data(getattr(record, f.name))
                for f in fields(record)}
    if isinstance(record, Enum):
        return record.value
    if isinstance(record, dt.date):
        return record.isoformat()
    if isinstance(record, (tuple, list)):
        return [to_json_data(v) for v in record]
    return record


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, dt.date):
        return value.isoformat()
    return repr(float(value))


def write_rows(path, header, rows) -> None:
    """Write a CSV: the header, then each row with a date as ISO-8601, a
    number as `repr(float(x))`, None as an empty cell and a string as it
    is, so a number reads back to the same float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def write_csv(series: PriceSeries, path) -> None:
    """Write a series as `date,value` CSV, a schema `load_csv` ingests."""
    write_rows(path, ("date", "value"), zip(series.dates, series.values))


def to_log(series: PriceSeries) -> PriceSeries:
    """Natural log of a raw series; dates unchanged."""
    if series.scale != Scale.RAW:
        raise UsageError("to_log expects a raw-scale series")
    return PriceSeries(series.dates, np.log(series.values), Scale.LOG, series.name)


def log_returns(series: PriceSeries) -> np.ndarray:
    """Log returns log(p_t / p_{t-1}) between consecutive observations, in
    date order: entry i spans observations i and i + 1."""
    if series.scale != Scale.RAW:
        raise UsageError("log_returns expects a raw-scale series")
    if len(series) < 2:
        raise UsageError("need at least 2 observations for returns")
    return np.diff(np.log(series.values))


def descriptive_stats(returns: np.ndarray) -> StatsReport:
    """Moment statistics of an array of returns plus the Jarque-Bera
    normality test.

    Skewness and excess kurtosis use the population (n-denominator)
    central moments; the reported variance is the usual n-1 sample
    variance. JB = (n/6) * (S^2 + K^2/4) with K the excess kurtosis,
    and the p-value comes from a chi-squared with 2 degrees of freedom.
    """
    x = np.asarray(returns, dtype=float)
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
