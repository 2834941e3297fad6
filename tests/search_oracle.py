"""A brute-force reference for the recursive seed search.

`grid_oracle` evaluates the phase-solved objective on a dense (beta,
omega, t2c) grid with the stacked kernel, then polishes the best cells
with one lockstep simplex call. Its best RMSE is what the recursion
should reach on a window; nothing in the package uses it.
"""

import numpy as np

from bubblefit import SearchBounds, SearchSettings, nelder_mead
from bubblefit.fitter import _fit_tolerances
from bubblefit.lppl import WindowSolver

# (lower, upper, cells) per searched parameter: beta, omega, t2c
GRID = ((0.05, 2.0, 20), (0.5, 20.0, 40), (1.0, 260.0, 30))
POLISHED_CELLS = 32


def grid_oracle(window, bounds: SearchBounds = SearchBounds(),
                settings: SearchSettings = SearchSettings()) -> float:
    """Best RMSE of a simplex polish from the best grid cells, with the
    simplex tolerances and budget the search uses on this window."""
    solver = WindowSolver(window)
    axes = [np.linspace(lo, hi, cells) for lo, hi, cells in GRID]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    values = solver.rmse_many(grid)
    best_cells = grid[np.argsort(values, kind="stable")[:POLISHED_CELLS]]
    x_tol, f_tol = _fit_tolerances(window, bounds, settings)
    results = nelder_mead(solver.rmse_many, best_cells, x_tol=x_tol,
                          f_tol=f_tol, max_evals=settings.max_evals)
    return min(r.value for r in results if r is not None)
