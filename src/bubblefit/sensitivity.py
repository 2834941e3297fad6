"""RMSE-vs-parameter scan curves around a fitted solution.

Each scan varies one of (beta, omega, t2c, phi) across a symmetric grid
while the other three stay at the fitted values; the linear parameters
are re-solved at every sample. This exposes how flat or spiky the error
landscape is around the chosen optimum, and in particular how volatile
it is in omega.

A reoptimized scan re-searches the other parameters at every sample
instead. Scanning beta, omega or t2c, the phase is solved in closed form
with the linear parameters and a 2-D simplex runs over the remaining two
of (beta, omega, t2c); scanning phi, a 3-D simplex runs over
(beta, omega, t2c) with the phase held.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .crashes import BubbleWindow
from .errors import UsageError
from .fitter import FitResult, SearchSettings, nelder_mead
from .lppl import window_objective

PARAMETER_INDEX = {"beta": 0, "omega": 1, "t2c": 2, "phi": 3}

# per-parameter half-widths used when the caller does not pick one
DEFAULT_HALF_WIDTH = {"beta": 0.5, "omega": 5.0, "t2c": 50.0, "phi": math.pi / 2}


@dataclass(frozen=True)
class ScanSpec:
    parameter: str
    center: float
    half_width: float
    steps: int = 201

    def __post_init__(self):
        if self.parameter not in PARAMETER_INDEX:
            raise UsageError(f"unknown scan parameter {self.parameter!r}")
        if self.steps < 3 or self.steps % 2 == 0:
            raise UsageError("steps must be odd and at least 3 so the center is sampled")
        if not self.half_width > 0:
            raise UsageError("half_width must be positive")

    def grid(self) -> np.ndarray:
        """Sample points, with the center reproduced exactly.

        Offsets are built as half_width * (2i - (n-1)) / (n-1); the
        integer ratio makes shared abscissae of refined grids (401 vs
        201 steps and so on) bit-identical, and the middle offset is an
        exact 0.0.
        """
        n = self.steps
        fractions = np.array([(2 * i - (n - 1)) / (n - 1) for i in range(n)])
        return self.center + self.half_width * fractions


@dataclass(frozen=True)
class ScanCurve:
    parameter: str
    values: tuple[float, ...]
    rmse: tuple[float | None, ...]  # None marks an undefined sample

    def rows(self):
        for v, r in zip(self.values, self.rmse):
            yield (self.parameter, v, r)


def scan_parameter(fit: FitResult, window: BubbleWindow, spec: ScanSpec,
                   *, reoptimize: bool = False,
                   settings: SearchSettings = SearchSettings()) -> ScanCurve:
    """RMSE along one parameter axis through the fitted point.

    Samples where the objective is undefined (t2c below 1 day, a
    non-positive beta) are recorded as None rather than aborting the
    scan. With `reoptimize` the other nonlinear parameters are
    re-searched at every sample instead of held fixed (the phase in
    closed form unless it is the scanned one); that is a strictly
    different question from the standard scan and is off by default.
    """
    objective = window_objective(window)
    theta = list(fit.params.theta())
    index = PARAMETER_INDEX[spec.parameter]
    # the phase is held only when it is the scanned parameter
    size = 4 if reoptimize and index == 3 else 3
    free = [i for i in range(size) if i != index]

    results: list[float | None] = []
    for value in spec.grid():
        point = list(theta)
        point[index] = float(value)
        if reoptimize:
            r = _reoptimized_rmse(objective, point[:size], index, free, settings)
        else:
            r = objective(point)
        results.append(float(r) if math.isfinite(r) else None)
    return ScanCurve(spec.parameter, tuple(float(v) for v in spec.grid()),
                     tuple(results))


def _reoptimized_rmse(objective, point, index, free, settings) -> float:
    fixed_value = point[index]

    def reduced(sub):
        full = list(point)
        full[index] = fixed_value
        for slot, v in zip(free, sub):
            full[slot] = v
        return objective(full)

    try:
        result = nelder_mead(reduced, [point[i] for i in free], x_tol=1e-6,
                             f_tol=1e-10, max_evals=settings.max_evals)
    except UsageError:  # the objective is not finite at the seed
        return math.inf
    return result.value


def write_scan_csv(curve: ScanCurve, path) -> None:
    """CSV with header param,value,rmse; undefined samples leave rmse empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "rmse"])
        for name, value, r in curve.rows():
            writer.writerow([name, repr(value), "" if r is None else repr(r)])
