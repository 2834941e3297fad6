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
        if self.n_weekdays < 10:
            raise UsageError("n_weekdays must be at least 10")
        if not 0 <= self.noise_sigma < np.inf:
            raise UsageError("noise_sigma must be finite and non-negative")
        # numpy's SeedSequence rejects a negative seed with a bare ValueError
        if self.rng_seed < 0:
            raise UsageError(f"rng_seed must be non-negative (got {self.rng_seed})")


def weekday_grid(end: dt.date, n: int) -> tuple[dt.date, ...]:
    """The `n` weekdays ending at `end` (which must itself be a weekday)."""
    end64 = np.datetime64(end, "D")
    if not np.is_busday(end64):
        raise UsageError(f"{end.isoformat()} is not a weekday")
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
