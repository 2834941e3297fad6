"""Search over the nonlinear parameters (beta, omega, t2c, phi).

The phase is solved in closed form with the linear parameters (see
`lppl`), so each simplex runs over (beta, omega, t2c) only. The search
recursively partitions the (beta, omega) seed box: run an unbounded
Nelder-Mead simplex from the box midpoint in (beta, omega, t2c), span a
hypercube in (beta, omega) between the seed and its solution, then
recurse into the space below and above that hypercube on each dimension
while at least the minimum width remains. Each solution takes phi from
atan2 at its point; every solution is collected, canonicalized,
deduplicated, and ranked by RMSE. The phi seed bounds only set the phase
of the reported `seed_used`, the midpoint of the seed box in all four
parameters.

Canonical form: omega >= 0 and phi in [0, pi). A negative omega maps
through cos(-w*x + p) = cos(w*x - p), and a phase in [pi, 2*pi) drops by
pi with the oscillation amplitude c absorbing the sign flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .crashes import BubbleWindow
from .errors import UsageError
from .lppl import (
    TWO_PI,
    FitDiagnostics,
    LpplParams,
    WindowSolver,
    monotonicity_check,
    raw_index_validity,
    window_objective,
)
from .series import Scale

# solutions closer than this in (beta, omega, t2c, phi) are one fit
DEDUP_TOL = (1e-3, 1e-3, 0.5, 1e-3)

# a fit this close to a classification bound is flagged, not reclassified
BOUNDARY_MARGIN = {"beta": 0.01, "omega": 0.01}


class Classification(str, Enum):
    PRECURSOR = "precursor"
    NOT_PRECURSOR = "not_precursor"
    REJECTED_BETA_GE_1 = "rejected_beta_ge_1"


@dataclass(frozen=True)
class PrecursorRanges:
    """Inclusive (beta, omega) intervals that label a fit a crash precursor."""

    beta_range: tuple[float, float] = (0.15, 0.51)
    omega_range: tuple[float, float] = (4.80, 7.92)

    def __post_init__(self):
        for lo, hi in (self.beta_range, self.omega_range):
            if not lo < hi:
                raise UsageError("classification ranges must be non-empty")


@dataclass(frozen=True)
class SearchBounds:
    """Seed bounds for the four parameters and the recursion minimum widths.

    The simplex runs over (beta, omega, t2c); the phi bounds only set the
    phase of each reported seed box midpoint."""

    lower: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 0.0)
    upper: tuple[float, float, float, float] = (2.0, 20.0, 260.0, math.pi)
    min_width_beta: float = 0.2
    min_width_omega: float = 2.0

    def __post_init__(self):
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise UsageError("each lower bound must be below its upper bound")
        if self.min_width_beta <= 0 or self.min_width_omega <= 0:
            raise UsageError("minimum widths must be positive")


@dataclass(frozen=True)
class SearchSettings:
    """Simplex tolerances; x_tol_rel is scaled by each seed-bound width and
    f_tol_rel by the window's value spread. `stall_evals` abandons a seed
    whose best value stops improving for that many evaluations."""

    x_tol_rel: float = 1e-6
    f_tol_rel: float = 1e-8
    max_evals: int = 20000
    restarts: int = 2
    stall_evals: int | None = 800


@dataclass(frozen=True)
class FitResult:
    params: LpplParams
    diagnostics: FitDiagnostics
    seed_used: tuple[float, float, float, float]
    function_evaluations: int
    converged: bool
    classification: Classification
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "diagnostics": self.diagnostics.to_dict(),
            "seed_used": list(self.seed_used),
            "function_evaluations": self.function_evaluations,
            "converged": self.converged,
            "classification": self.classification.value,
            "warnings": list(self.warnings),
        }


class NelderMeadResult(NamedTuple):
    x: np.ndarray
    value: float
    evaluations: int
    converged: bool


def nelder_mead(objective: Callable, seed, *, x_tol=1e-6, f_tol=1e-8,
                max_evals: int = 20000, stall_evals: int | None = None):
    """Minimize with the reflection/expansion/contraction/shrink simplex.

    Terminates when the simplex diameter is within `x_tol` (scalar or
    per-dimension) on every coordinate AND the vertex value spread is
    within `f_tol`; hitting `max_evals` instead returns converged=False.
    The objective receives each point as a list of floats and may return
    +inf (or NaN, taken as +inf) anywhere except at the seed.

    `stall_evals`, when set, gives up (flagged unconverged) once the best
    value has not improved by more than `f_tol` within that many
    evaluations; it cuts off simplexes chasing an asymptotic valley with
    no finite minimizer.

    A 2-D `seed` is a stack of seeds, one row per simplex, and the
    simplexes advance in lockstep: each round calls the objective once
    with a (K, ndim) array holding every simplex's next point, NaN rows
    for the simplexes that have stopped, and takes K values back. The
    result is then a list whose row i is exactly what a call with seed
    row i alone returns, or None where that call raises.

    The simplex is held as lists of floats: with three or four vertices,
    numpy's per-operation overhead would cost more than the arithmetic.
    Every formula keeps numpy's order of operations (the centroid sums
    the vertices in order, then divides by the dimension), so the
    trajectory is the same as with array rows, bit for bit.
    """
    seeds = np.asarray(seed, dtype=float)
    if seeds.ndim == 2:
        return _lockstep(objective, seeds, x_tol, f_tol, max_evals, stall_evals)
    steps = _simplex(seeds.ravel().tolist(), x_tol, f_tol, max_evals, stall_evals)
    x = next(steps)
    try:
        while True:
            value = float(objective(x))
            x = steps.send(math.inf if math.isnan(value) else value)
    except StopIteration as stop:
        return stop.value


def _lockstep(objective, seeds, x_tol, f_tol, max_evals,
              stall_evals) -> list[NelderMeadResult | None]:
    """`nelder_mead` over a stack of seeds, one objective call per round."""
    runs = [_simplex(row, x_tol, f_tol, max_evals, stall_evals)
            for row in seeds.tolist()]
    results: list[NelderMeadResult | None] = [None] * len(runs)
    batch = np.full(seeds.shape, math.nan)
    pending = {i: next(run) for i, run in enumerate(runs)}
    while pending:
        for i, x in pending.items():
            batch[i] = x
        values = np.asarray(objective(batch), dtype=float).tolist()
        for i in list(pending):
            value = values[i]
            try:
                pending[i] = runs[i].send(math.inf if math.isnan(value) else value)
                continue
            except StopIteration as stop:
                results[i] = stop.value
            except UsageError:  # not finite at the seed: the result stays None
                pass
            del pending[i]
            batch[i] = math.nan
    return results


def _simplex(seed: list, x_tol, f_tol, max_evals: int, stall_evals: int | None):
    """The algorithm of `nelder_mead` as a generator: it yields each point
    to evaluate, is sent that point's value (never NaN) back, and returns
    the NelderMeadResult."""
    ndim = len(seed)
    x_tol = np.broadcast_to(np.asarray(x_tol, dtype=float), (ndim,)).tolist()

    f_seed = yield seed
    evals = 1
    if not math.isfinite(f_seed):
        raise UsageError("objective is not finite at the seed")

    sim, fsim = [seed], [f_seed]
    for i in range(ndim):
        vertex = list(seed)
        vertex[i] = seed[i] * 1.05 if seed[i] != 0.0 else 2.5e-4
        sim.append(vertex)
        fsim.append((yield vertex))
        evals += 1
    order = sorted(range(ndim + 1), key=fsim.__getitem__)
    sim, fsim = [sim[j] for j in order], [fsim[j] for j in order]

    converged = False
    mark_value, mark_evals = fsim[0], evals
    while evals < max_evals:
        best = sim[0]
        if fsim[-1] - fsim[0] <= f_tol and all(
                abs(x - b) <= tol
                for vertex in sim[1:] for x, b, tol in zip(vertex, best, x_tol)):
            converged = True
            break
        if stall_evals is not None:
            if fsim[0] < mark_value - f_tol:
                mark_value, mark_evals = fsim[0], evals
            elif evals - mark_evals > stall_evals:
                break
        centroid = best
        for vertex in sim[1:-1]:
            centroid = [c + x for c, x in zip(centroid, vertex)]
        centroid = [c / ndim for c in centroid]
        step = [c - x for c, x in zip(centroid, sim[-1])]
        reflected = [c + s for c, s in zip(centroid, step)]
        f_reflected = yield reflected
        evals += 1
        if f_reflected < fsim[0]:
            expanded = [c + 2.0 * s for c, s in zip(centroid, step)]
            f_expanded = yield expanded
            evals += 1
            if f_expanded < f_reflected:
                sim[-1], fsim[-1] = expanded, f_expanded
            else:
                sim[-1], fsim[-1] = reflected, f_reflected
        elif f_reflected < fsim[-2]:
            sim[-1], fsim[-1] = reflected, f_reflected
        else:
            if f_reflected < fsim[-1]:
                contracted = [c + 0.5 * s for c, s in zip(centroid, step)]
                f_contracted = yield contracted
                accept = f_contracted <= f_reflected
            else:
                contracted = [c - 0.5 * s for c, s in zip(centroid, step)]
                f_contracted = yield contracted
                accept = f_contracted < fsim[-1]
            evals += 1
            if accept:
                sim[-1], fsim[-1] = contracted, f_contracted
            else:
                for j in range(1, ndim + 1):
                    sim[j] = [b + 0.5 * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = yield sim[j]
                    evals += 1
        order = sorted(range(ndim + 1), key=fsim.__getitem__)
        sim, fsim = [sim[j] for j in order], [fsim[j] for j in order]

    return NelderMeadResult(np.array(sim[0]), fsim[0], evals, converged)


def canonicalize_theta(theta) -> tuple[float, float, float, float]:
    """Map (beta, omega, t2c, phi) to the representative with omega >= 0
    and phi in [0, pi); idempotent and curve-preserving."""
    beta, omega, t2c, phi = (float(v) for v in theta)
    if omega < 0.0:
        omega, phi = -omega, -phi
    phi = phi % TWO_PI
    if phi >= math.pi:
        phi -= math.pi
    return (beta, omega, t2c, phi)


def classify_theta(beta: float, omega: float,
                   ranges: PrecursorRanges = PrecursorRanges()) -> Classification:
    if beta >= 1.0:
        return Classification.REJECTED_BETA_GE_1
    in_beta = ranges.beta_range[0] <= beta <= ranges.beta_range[1]
    in_omega = ranges.omega_range[0] <= omega <= ranges.omega_range[1]
    if in_beta and in_omega:
        return Classification.PRECURSOR
    return Classification.NOT_PRECURSOR


def classify_fit(result: FitResult,
                 ranges: PrecursorRanges = PrecursorRanges()) -> Classification:
    """Classification reads only beta and omega, so it is unchanged by the
    (c, phi) sign/phase canonicalization."""
    return classify_theta(result.params.beta, result.params.omega, ranges)


def _boundary_warnings(beta: float, omega: float,
                       ranges: PrecursorRanges) -> tuple[str, ...]:
    notes = []
    for name, value, interval in (
        ("beta", beta, ranges.beta_range),
        ("omega", omega, ranges.omega_range),
    ):
        for bound in interval:
            if abs(value - bound) <= BOUNDARY_MARGIN[name] + 1e-12:
                notes.append(
                    f"{name}={value:.4g} lies within {BOUNDARY_MARGIN[name]} "
                    f"of the classification bound {bound}"
                )
    return tuple(notes)


def _search_from_seed(objective, seed, x_tol, f_tol,
                      settings: SearchSettings) -> NelderMeadResult:
    """One simplex run plus restart polishing, within the per-seed budget."""
    best = nelder_mead(objective, seed, x_tol=x_tol, f_tol=f_tol,
                       max_evals=settings.max_evals,
                       stall_evals=settings.stall_evals)
    total = best.evaluations
    for _ in range(settings.restarts):
        remaining = settings.max_evals - total
        if remaining <= 0:
            break
        rerun = nelder_mead(objective, best.x, x_tol=x_tol, f_tol=f_tol,
                            max_evals=remaining,
                            stall_evals=settings.stall_evals)
        total += rerun.evaluations
        improvement = best.value - rerun.value
        if rerun.value < best.value:
            best = rerun
        if improvement <= f_tol:
            break
    return best._replace(evaluations=total)


def _fit_tolerances(window: BubbleWindow, bounds: SearchBounds,
                    settings: SearchSettings):
    widths = np.asarray(bounds.upper[:3]) - np.asarray(bounds.lower[:3])
    x_tol = settings.x_tol_rel * widths
    scale = float(np.std(window.values))
    f_tol = settings.f_tol_rel * (scale if scale > 0.0 else 1.0)
    return x_tol, f_tol


def _build_result(window: BubbleWindow, theta, linear, value: float, seed,
                  evals: int, converged: bool, ranges: PrecursorRanges,
                  validity: tuple[float, bool] | None) -> FitResult:
    a, b, c = linear
    beta, omega, t2c, phi = theta
    params = LpplParams(a, b, c, beta, omega, t2c, phi,
                        window.anchor_date, window.scale)
    classification = classify_theta(beta, omega, ranges)
    monotone, violations = monotonicity_check(params, window)
    ratio, raw_ok = validity if validity is not None else (None, None)
    diagnostics = FitDiagnostics(
        rmse=value,
        is_precursor=classification is Classification.PRECURSOR,
        monotone_increasing=monotone,
        violation_dates=tuple(violations),
        validity_ratio=ratio,
        raw_fit_valid=raw_ok,
    )
    return FitResult(
        params=params,
        diagnostics=diagnostics,
        seed_used=tuple(float(s) for s in seed),
        function_evaluations=evals,
        converged=converged,
        classification=classification,
        warnings=_boundary_warnings(beta, omega, ranges),
    )


def recursive_seed_search(
    window: BubbleWindow,
    bounds: SearchBounds = SearchBounds(),
    ranges: PrecursorRanges = PrecursorRanges(),
    settings: SearchSettings = SearchSettings(),
    *,
    min_beta: float | None = None,
    validity: tuple[float, bool] | None = None,
) -> list[FitResult]:
    """Run the midpoint/hypercube recursion and return ranked fits.

    Results are canonicalized, deduplicated within DEDUP_TOL, and sorted
    by RMSE ascending with lexicographic (beta, omega, t2c, phi)
    tie-breaking, so identical inputs always produce identical output.
    `min_beta` turns on the reported-fit floor used when mirroring
    fixed-exponent conventions: points below it evaluate to +inf.
    """
    if len(window) < 10:
        raise UsageError("need at least 10 observations for a 7-parameter fit")
    base_objective = window_objective(window)
    if min_beta is None:
        objective = base_objective
    else:
        floor = float(min_beta)

        def objective(theta):
            return math.inf if theta[0] < floor else base_objective(theta)

    if validity is None and window.scale == Scale.RAW:
        validity = raw_index_validity(window)
    x_tol, f_tol = _fit_tolerances(window, bounds, settings)

    solutions: list[tuple[NelderMeadResult, tuple]] = []

    def search(lo: np.ndarray, up: np.ndarray) -> None:
        seed = (lo + up) / 2.0
        outcome = _search_from_seed(objective, seed[:3], x_tol, f_tol, settings)
        solutions.append((outcome, tuple(seed)))
        bottom = np.minimum(seed[:2], outcome.x[:2])
        top = np.maximum(seed[:2], outcome.x[:2])
        min_widths = (bounds.min_width_beta, bounds.min_width_omega)
        for p in (0, 1):
            if bottom[p] - lo[p] >= min_widths[p]:
                below_up = up.copy()
                below_up[p] = bottom[p]
                search(lo, below_up)
            if up[p] - top[p] >= min_widths[p]:
                above_lo = lo.copy()
                above_lo[p] = top[p]
                search(above_lo, up)

    search(np.asarray(bounds.lower, dtype=float),
           np.asarray(bounds.upper, dtype=float))

    # report each solution at its canonical point, with the phase solved
    # there; the curve is unchanged but the kernel solves again with that
    # phase held so value and parameters stay consistent (solutions whose
    # basis is numerically degenerate after the ulp-level phase shift are
    # dropped)
    # no min_beta re-check: the best vertex is finite, canonicalizing keeps beta
    solver = WindowSolver(window)
    entries = []
    for outcome, seed in solutions:
        solved = solver.solve(*outcome.x.tolist())
        if solved is None:
            continue
        theta = canonicalize_theta((*outcome.x, solved[3]))
        held = solver.solve(*theta)
        if held is not None:
            entries.append((solver.rmse(held[4]), theta, seed,
                            outcome.evaluations, outcome.converged, held[:3]))
    entries.sort(key=lambda e: (e[0], e[1]))
    kept: list[tuple] = []
    for entry in entries:
        theta = entry[1]
        duplicate = any(
            all(abs(theta[k] - other[1][k]) < DEDUP_TOL[k] for k in range(4))
            for other in kept
        )
        if not duplicate:
            kept.append(entry)

    return [
        _build_result(window, theta, linear, value, seed, evals, conv, ranges,
                      validity)
        for value, theta, seed, evals, conv, linear in kept
    ]


@dataclass(frozen=True)
class BubbleReport:
    """Everything `fit_bubble` learned about one bubble window."""

    window: BubbleWindow
    fitted_window: BubbleWindow  # the window on the scale the fits were made on
    scale_used: Scale
    scale_reason: str
    validity_ratio: float
    raw_fit_valid: bool
    paper_mode: bool
    fits: tuple[FitResult, ...]
    best_precursor: FitResult | None
    constrained_best: FitResult | None

    @property
    def best(self) -> FitResult:
        return self.fits[0]

    def to_dict(self) -> dict:
        fits = []
        for rank, fit in enumerate(self.fits, start=1):
            d = fit.to_dict()
            d["rank"] = rank
            fits.append(d)
        return {
            "window": {
                "start_date": self.window.start_date.isoformat(),
                "end_date": self.window.end_date.isoformat(),
                "n_observations": len(self.window),
                "override_applied": self.window.override_applied,
            },
            "scale_used": self.scale_used.value,
            "scale_reason": self.scale_reason,
            "validity_ratio": self.validity_ratio,
            "raw_fit_valid": self.raw_fit_valid,
            "paper_mode": self.paper_mode,
            "fits": fits,
            "best_fit": fits[0] if fits else None,
            "best_precursor": (
                self.best_precursor.to_dict() if self.best_precursor else None
            ),
            "constrained_best": (
                self.constrained_best.to_dict() if self.constrained_best else None
            ),
        }


def fit_bubble(
    window: BubbleWindow,
    bounds: SearchBounds = SearchBounds(),
    ranges: PrecursorRanges = PrecursorRanges(),
    scale_choice: str = "auto",
    *,
    paper_mode: bool = False,
    settings: SearchSettings = SearchSettings(),
) -> BubbleReport:
    """Fit one bubble window end to end and classify the results.

    Under `auto` the log series is fitted when the raw-fit validity ratio
    exceeds 2, and the raw series otherwise. `paper_mode` prefers the raw
    scale regardless and floors beta at 0.01 during the search; the
    default mode instead reports the unconstrained optimum and adds the
    floored best separately when the two differ.
    """
    if window.scale != Scale.RAW:
        raise UsageError("fit_bubble expects a raw-scale window")
    if scale_choice not in ("raw", "log", "auto"):
        raise UsageError(f"unknown scale choice {scale_choice!r}")
    ratio, raw_ok = raw_index_validity(window)

    if scale_choice == "auto":
        if paper_mode:
            scale_used, reason = Scale.RAW, "paper-mode raw-scale preference"
        elif raw_ok:
            scale_used, reason = Scale.RAW, f"ratio {ratio:.2f} <= 2"
        else:
            scale_used, reason = Scale.LOG, f"ratio {ratio:.2f} > 2"
    else:
        scale_used = Scale.RAW if scale_choice == "raw" else Scale.LOG
        reason = "explicit scale choice"

    target = window if scale_used == Scale.RAW else window.with_log_values()
    min_beta = 0.01 if paper_mode else None
    fits = recursive_seed_search(target, bounds, ranges, settings,
                                 min_beta=min_beta, validity=(ratio, raw_ok))

    best_precursor = next(
        (f for f in fits if f.classification is Classification.PRECURSOR), None
    )
    constrained_best = None
    if not paper_mode and fits and fits[0].params.beta < 0.01:
        floored = recursive_seed_search(target, bounds, ranges, settings,
                                        min_beta=0.01, validity=(ratio, raw_ok))
        if floored:
            constrained_best = floored[0]

    return BubbleReport(
        window=window,
        fitted_window=target,
        scale_used=scale_used,
        scale_reason=reason,
        validity_ratio=ratio,
        raw_fit_valid=raw_ok,
        paper_mode=paper_mode,
        fits=tuple(fits),
        best_precursor=best_precursor,
        constrained_best=constrained_best,
    )
