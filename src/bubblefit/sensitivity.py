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

import math
from dataclasses import dataclass

import numpy as np

from .crashes import BubbleWindow
from .errors import UsageError
from .fitter import FitResult, SearchSettings, nelder_mead
from .lppl import WindowSolver, window_objective
from .series import write_rows

PARAMETER_INDEX = {"beta": 0, "omega": 1, "t2c": 2, "phi": 3}

# the absolute simplex tolerances of a reoptimized scan, in the units of
# the free parameters and of the RMSE
REOPT_X_TOL = 1e-6
REOPT_F_TOL = 1e-10

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
        if type(self.steps) is not int or self.steps < 3 or self.steps % 2 == 0:
            raise UsageError(f"steps must be an odd integer >= 3 (got {self.steps!r})")
        if not 0 < self.half_width < math.inf:
            raise UsageError("half_width must be positive and finite")

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

    Of `settings`, a reoptimized scan reads only `max_evals`, the cap on
    each sample's simplex; its tolerances are the absolute REOPT_X_TOL
    and REOPT_F_TOL. The samples' simplexes run in lockstep, held as one
    set of arrays, in one `nelder_mead` call whose every round is one
    `WindowSolver.rmse_many` call over all samples. Each sample's value
    is exactly that of its own simplex, and a sample whose seed is
    outside the objective's domain is undefined.
    """
    index = PARAMETER_INDEX[spec.parameter]
    theta = fit.params.theta()
    grid = spec.grid()
    if reoptimize:
        results = _reoptimized_rmse(window, theta, index, grid, settings)
    else:
        objective = window_objective(window)
        results = []
        for value in grid:
            point = list(theta)
            point[index] = float(value)
            results.append(objective(point))
    return ScanCurve(spec.parameter, tuple(float(v) for v in grid),
                     tuple(float(r) if math.isfinite(r) else None for r in results))


def _reoptimized_rmse(window, theta, index, grid, settings) -> list[float]:
    # the phase is held only when it is the scanned parameter
    size = 4 if index == 3 else 3
    free = [i for i in range(size) if i != index]
    points = np.tile(theta[:size], (len(grid), 1))
    points[:, index] = grid
    rmse_many = WindowSolver(window).rmse_many

    def reduced(sub):
        points[:, free] = sub
        return rmse_many(points)

    results = nelder_mead(reduced, points[:, free], x_tol=REOPT_X_TOL,
                          f_tol=REOPT_F_TOL, max_evals=settings.max_evals)
    return [r.value for r in results]


def write_scan_csv(curve: ScanCurve, path) -> None:
    """CSV with header param,value,rmse; undefined samples leave rmse empty."""
    write_rows(path, ("param", "value", "rmse"), curve.rows())
