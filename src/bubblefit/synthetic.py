"""Deterministic synthetic price paths for recovery and property tests.

The generator evaluates the model curve on a weekday grid ending at the
parameter anchor date and adds zero-mean Gaussian noise on the index
level. Randomness comes from numpy's seeded PCG64 generator
(`numpy.random.default_rng`), so a spec reproduces the same series
everywhere.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, UsageError
from .lppl import LpplParams, lppl_curve
from .series import PriceSeries, Scale


@dataclass(frozen=True)
class GeneratorSpec:
    params: LpplParams
    n_weekdays: int
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        # type(), not isinstance: a bool is an int, but neither a count nor a seed
        if not (type(self.n_weekdays) is int and self.n_weekdays >= 10):
            raise UsageError(f"n_weekdays must be an integer >= 10 (got {self.n_weekdays!r})")
        if not 0 <= self.noise_sigma < np.inf:
            raise UsageError("noise_sigma must be finite and non-negative")
        if type(self.rng_seed) is not int:
            raise UsageError(f"rng_seed must be an integer (got {self.rng_seed!r})")
        # numpy's SeedSequence rejects a negative seed with a bare ValueError
        if self.rng_seed < 0:
            raise UsageError(f"rng_seed must be non-negative (got {self.rng_seed})")


def weekday_grid(end: dt.date, n: int) -> tuple[dt.date, ...]:
    """The `n` weekdays ending at `end` (itself a weekday), none before 0001-01-01."""
    end64 = np.datetime64(end, "D")
    if not np.is_busday(end64):
        raise UsageError(f"{end.isoformat()} is not a weekday")
    if n > int(np.busday_count(np.datetime64("0001-01-01"), end64)) + 1:  # a far offset wraps
        raise UsageError(f"the {n} weekdays ending {end.isoformat()} start before 0001-01-01")
    offsets = np.arange(-(n - 1), 1)
    days = np.busday_offset(end64, offsets)
    return tuple(d.astype(dt.date) for d in days)


def generate(spec: GeneratorSpec) -> PriceSeries:
    """Model curve plus noise on a weekday grid ending at the anchor date.

    Raw-scale output must stay positive; a non-positive sample aborts
    with the offending date (raise `a` or shrink the noise).
    """
    dates = weekday_grid(spec.params.anchor_date, spec.n_weekdays)
    curve = lppl_curve(spec.params, dates)
    rng = np.random.default_rng(spec.rng_seed)
    values = curve + rng.normal(0.0, spec.noise_sigma, size=len(dates))
    if spec.params.scale == Scale.RAW and values.min() <= 0:
        bad = dates[int(np.argmin(values))]
        raise GenerationError(
            f"non-positive synthetic value on {bad.isoformat()}; "
            "raise the level parameter or reduce noise_sigma"
        )
    return PriceSeries(dates, values, spec.params.scale, name="synthetic")
