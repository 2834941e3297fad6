"""Search over the nonlinear parameters (beta, omega, t2c, phi).

The phase is solved in closed form with the linear parameters (see
`lppl`), so each search runs over (beta, omega, t2c) only. The search
recursively partitions the (beta, omega) seed box: from the box midpoint
in (beta, omega, t2c), take damped Gauss-Newton (Levenberg-Marquardt)
steps on the variable-projection system of
`lppl.WindowSolver.gauss_newton`; where they do not converge, run a
Nelder-Mead simplex from their end point and polish its best point with
them again. Then span a hypercube in (beta, omega) between the seed and
its solution, and recurse into the space below and above that hypercube
on each dimension while at least the minimum width remains. Neither the
polish nor the simplex is bounded by the seed box. A seed's search ends
for one of seven reasons, and its box is then cut at the point it ended
at:
- "ceiling": its best point passes BETA_CEILING. Past it the fit drifts
  until the b-floor rule stops it, at a point set by that rule and not
  by the data.
- "horizon": its best point's t2c passes the horizon, the larger of the
  window's span in days and the seed box's upper t2c. The window's data
  set no critical time further past its end than the window is long;
  the box's upper t2c keeps every seed the box places.
- "kept": its best point comes within DEDUP_TOL, in (beta, |omega|,
  t2c), of a point where an earlier seed ended at "fit" or "edge", or of
  a point that the polishes of an earlier seed that ended at "fit",
  "edge" or "kept" took on the way; it would end on a fit already kept.
  The simplex's points, and the path of a seed that ended for another
  reason, stop no seed. This is the multi-level single-linkage rule of
  multistart search (Rinnooy Kan & Timmer 1987): no local search runs
  into a region an earlier one has covered.
- "stall": its search stops gaining, as in a valley with no finite
  minimizer (see `SearchSettings`); it ends at its lowest point.
- "domain": the objective is not finite at the seed (beta <= 0, t2c
  below 1 day, or a rule of `lppl.WindowSolver` such as the b-floor).
- "edge": its last polish ends not converged at the edge of the domain
  (below BETA_FLOOR, in the beta -> 0 valley, or on the t2c = 1 day
  bound), at a point set by that edge and not by the data. Its solution
  is reported only if no seed ends at "fit", the reason of every other
  seed.
None of the first five yields a solution. The polishes and the simplex
try every point through one objective, which applies those five. The
boxes overlap (the box below on beta spans every omega and the one below
on omega every beta), so a midpoint can come up again; a seed search is
a pure function of the seed, so each distinct seed is searched once and
a repeated box is cut at the stored point. Each solution takes phi from
atan2 at its point; every solution is canonicalized and ranked by RMSE.
No two solutions lie within DEDUP_TOL of each other: a seed's end point
was a new lowest value of its search when it was tried, and was then
checked against every earlier end point.

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
from .errors import DataError, UsageError
from .lppl import (
    TWO_PI,
    FitDiagnostics,
    LpplParams,
    WindowSolver,
    _ldlt,
    monotonicity_check,
    raw_index_validity,
    window_objective,
)
from .series import Scale, to_json_data

# points closer than this in (beta, |omega|, t2c) lead to one fit: a seed
# stops at "kept" once it comes this close to a kept fit or its path
DEDUP_TOL = (3e-2, 3e-2, 5.0)

# a fit this close to a classification bound is flagged, not reclassified
BOUNDARY_MARGIN = {"beta": 0.01, "omega": 0.01}

# the beta floor of paper mode and of the default mode's constrained best
BETA_FLOOR = 0.01

# a seed search is abandoned once its best point passes this beta: past
# it the fit drifts to the b-floor (|b| of 1e-12 of the data scale), far
# from any fit the beta < 1 rule would keep
BETA_CEILING = 2.0

# the Levenberg-Marquardt damping of `_polish`: its start, its factor per
# taken or refused step, and the value past which no damped step is tried
_DAMPING_START = 1e-3
_DAMPING_FACTOR = 10.0
_DAMPING_MAX = 1e10

# fit_bubble's scale choices: a scale, or "auto" to choose by the window
SCALE_CHOICES = (*(scale.value for scale in Scale), "auto")


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
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise UsageError("classification ranges must be finite")
            if not lo < hi:
                raise UsageError("classification ranges must be non-empty")


@dataclass(frozen=True)
class SearchBounds:
    """Seed bounds for (beta, omega, t2c) and the recursion minimum widths.

    The bounds place the seeds; a seed's search may leave them. A seed
    whose search passes beta BETA_CEILING ends without a fit whatever the
    bounds, as does a seed outside the objective's domain, so a box above
    the ceiling yields no fit. The upper t2c also bounds the search's t2c
    horizon from below (see the module docstring).
    """

    lower: tuple[float, float, float] = (0.0, 0.0, 1.0)
    upper: tuple[float, float, float] = (2.0, 20.0, 260.0)
    min_width_beta: float = 0.2
    min_width_omega: float = 2.0

    def __post_init__(self):
        if len(self.lower) != 3 or len(self.upper) != 3:
            raise UsageError("seed bounds are (beta, omega, t2c) triples")
        if not all(math.isfinite(v) for v in (*self.lower, *self.upper,
                                              self.min_width_beta,
                                              self.min_width_omega)):
            raise UsageError("seed bounds and minimum widths must be finite")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise UsageError("each lower bound must be below its upper bound")
        if self.min_width_beta <= 0 or self.min_width_omega <= 0:
            raise UsageError("minimum widths must be positive")
        # the search's first seed is the midpoint, and every seed's t2c is
        # the t2c midpoint; outside the kernel's domain every window fails
        beta, _, t2c = ((lo + hi) / 2.0 for lo, hi in zip(self.lower, self.upper))
        if not (beta > 0.0 and t2c >= 1.0):
            raise UsageError(f"the seed bounds' midpoint (beta {beta}, t2c {t2c}) "
                             "needs beta > 0 and t2c >= 1 day")


@dataclass(frozen=True)
class SearchSettings:
    """Search tolerances; x_tol_rel is scaled by each seed-bound width and
    f_tol_rel by the window's value spread. `stall_evals` abandons a seed
    whose search (polishes and simplex) makes that many objective calls
    without getting more than f_tol below its last such gain. `restarts` 1
    starts each seed with a Gauss-Newton (Levenberg-Marquardt) polish
    and, where that does not converge, runs a simplex from its end point
    and polishes the simplex's best point once more; 0 runs the simplex
    alone, from the seed. A system build counts against `max_evals` as one
    evaluation, but is no objective call."""

    x_tol_rel: float = 1e-6
    f_tol_rel: float = 1e-8
    max_evals: int = 20000
    restarts: int = 1
    stall_evals: int = 800

    def __post_init__(self):
        # no simplex or polish would converge with a NaN or negative tolerance
        for name in ("x_tol_rel", "f_tol_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise UsageError(f"{name} must be finite and non-negative "
                                 f"(got {value!r})")
        # type(), not isinstance: a bool is an int, and True a budget of 1
        for name, least, most in (("max_evals", 1, math.inf), ("restarts", 0, 1),
                                  ("stall_evals", 1, math.inf)):
            value = getattr(self, name)
            if not (type(value) is int and least <= value <= most):
                raise UsageError(f"{name} must be an integer in [{least}, {most}] "
                                 f"(got {value!r})")


@dataclass(frozen=True)
class FitResult:
    params: LpplParams
    diagnostics: FitDiagnostics
    seed_used: tuple[float, float, float]
    function_evaluations: int
    converged: bool
    classification: Classification
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return to_json_data(self)


# the phases of `_lockstep_arrays`; a trial phase's point is centroid
# + _STEP[phase] * step, NaN once stopped
_STOPPED, _REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _FILL = -1, 0, 1, 2, 3, 4
_STEP = np.array([1.0, 2.0, 0.5, -0.5, math.nan])


class NelderMeadResult(NamedTuple):
    x: np.ndarray
    value: float
    evaluations: int
    converged: bool


def nelder_mead(objective: Callable, seed, *, x_tol=1e-6, f_tol=1e-8,
                max_evals: int = 20000):
    """Minimize with the reflection/expansion/contraction/shrink simplex.

    Terminates when the simplex diameter is within `x_tol` (scalar or
    per-dimension) on every coordinate AND the vertex value spread is
    within `f_tol`; otherwise it runs until `max_evals` and returns
    converged=False. The objective receives each point as a list of floats
    and may return +inf (or NaN, taken as +inf) anywhere. A seed whose
    value is not finite ends at once: the result is (seed, inf, 1, False).

    A 2-D `seed` is a stack of seeds, one row per simplex, and the
    simplexes advance in lockstep: each round calls the objective once
    with a (K, ndim) array holding every simplex's next point, NaN rows
    for the simplexes that have stopped, and takes K values back. The
    result is then a list whose row i is exactly what a call with seed
    row i alone returns. An empty stack gives [] without a call.

    A single seed's simplex is held as lists of floats (`_simplex`): with
    three or four vertices, numpy's per-operation overhead would cost
    more than the arithmetic. A stack holds every simplex at once in
    arrays (`_lockstep_arrays`). Every formula keeps numpy's order of
    operations (the centroid sums the vertices in order, then divides by
    the dimension), so the two take the same steps, bit for bit.
    """
    seeds = np.asarray(seed, dtype=float)
    if seeds.ndim == 2:
        return _lockstep_arrays(objective, seeds, x_tol, f_tol, max_evals)
    return _simplex(objective, seeds.ravel().tolist(), x_tol, f_tol, max_evals)


def _lockstep_arrays(objective, seeds, x_tol, f_tol,
                     max_evals) -> list[NelderMeadResult]:
    """`nelder_mead` over a stack of seeds, every simplex held in arrays:
    sim[j] holds vertex j of every simplex and fsim[j] its value, one
    column per seed.

    A simplex is at one phase a round: a trial point centroid +
    _STEP[phase] * step, or, from _FILL on, its vertex phase - _FILL
    (the seed, a start vertex or a shrunk vertex). A round evaluates every
    live point in one objective call and applies every transition to the
    whole stack with masks. The simplexes that finished an iteration are
    sorted and meet `_simplex`'s stop checks in its order. Every simplex
    starts in the first round and evaluates once a round, so its
    evaluation count is the round's. The formulas keep `_simplex`'s order
    of operations (c + 1.0*s and c + (-0.5)*s are c + s and c - 0.5*s),
    so every simplex takes the steps of its own `_simplex` run, bit for bit.
    """
    k, ndim = seeds.shape
    x_tol = np.broadcast_to(np.asarray(x_tol, dtype=float), (ndim,))
    column, vertices = np.arange(k), np.arange(ndim + 1)[:, None]
    # the start vertices: the seed, then the seed with coordinate j - 1 moved
    sim = np.repeat(seeds[None], ndim + 1, axis=0)
    moved = np.arange(ndim)
    sim[moved + 1, :, moved] = np.where(seeds != 0.0, seeds * 1.05, 2.5e-4).T
    fsim = np.full((ndim + 1, k), math.inf)
    f_reflected = np.empty(k)
    phase = np.full(k, _FILL)
    points = seeds.copy()
    # an expansion round reads the centroid and step of the round before
    centroid = step = np.zeros_like(seeds)
    results: list[NelderMeadResult] = [None] * k  # each set as it stops
    live, evals = k, 0
    while live:
        # NaN counts as +inf: fmin takes the other operand of a NaN
        f = np.fmin(np.asarray(objective(points), dtype=float), math.inf)
        evals += 1
        if evals == 1:  # a seed that is not finite ends there, at +inf
            for i in np.flatnonzero(~np.isfinite(f)).tolist():
                phase[i], live = _STOPPED, live - 1
                results[i] = NelderMeadResult(seeds[i].copy(), math.inf, 1, False)
        with np.errstate(all="ignore"):
            reflect = phase == _REFLECT
            expand = phase == _EXPAND
            outside = phase == _OUTSIDE
            inside = phase == _INSIDE
            filling = np.flatnonzero(phase >= _FILL)
            below = f < fsim
            # reflection: expand below the best, take it below the second
            # worst, else contract outside (below the worst) or inside
            take = reflect & ~below[0] & below[ndim - 1]
            f_reflected = np.where(reflect, f, f_reflected)
            phase = np.where(reflect, np.where(below[0], _EXPAND, np.where(
                below[-1], _OUTSIDE, _INSIDE)), phase)
            # expansion: the better of the expanded and the reflected point,
            # the previous round's centroid + step
            worse = expand & (f >= f_reflected)
            new = np.where(worse[:, None], centroid + step, points)
            f = np.where(worse, f_reflected, f)
            # contraction: take it, or shrink every vertex toward the best
            accept = (outside & (f <= f_reflected)) | (inside & below[-1])
            shrink = np.flatnonzero((outside | inside) & ~accept)
            replace = take | expand | accept
            sim[-1] = np.where(replace[:, None], new, sim[-1])
            fsim[-1] = np.where(replace, f, fsim[-1])
            if shrink.size:
                best = sim[0, shrink]
                sim[1:, shrink] = best + 0.5 * (sim[1:, shrink] - best)
                phase[shrink] = _FILL + 1
            done = replace
            if filling.size:  # vertex evaluations
                vertex = phase[filling] - _FILL
                fsim[vertex, filling] = f[filling]
                phase[filling] += 1
                done[filling[vertex == ndim]] = True

            # the top of an iteration: sort, then check the budget and the
            # convergence
            order = np.argsort(np.where(done, fsim, vertices), axis=0,
                               kind="stable")
            index = order * k + column
            fsim = fsim.take(index)
            sim = sim.reshape((ndim + 1) * k, ndim).take(index, axis=0)
            converged = np.zeros(k, dtype=bool)
            if evals >= max_evals:
                stop = done
            else:
                close = np.flatnonzero(done & (fsim[-1] - fsim[0] <= f_tol))
                if close.size:
                    converged[close] = (np.abs(sim[1:, close] - sim[0, close])
                                        <= x_tol).all(axis=(0, 2))
                stop = converged
            phase = np.where(done, np.where(stop, _STOPPED, _REFLECT), phase)
            for i in np.flatnonzero(stop).tolist():
                results[i] = NelderMeadResult(sim[0, i].copy(), float(fsim[0, i]),
                                              evals, bool(converged[i]))
            live -= int(np.count_nonzero(stop))

            # the next points; a stopped simplex's is NaN
            centroid = sim[0]
            for j in range(1, ndim):
                centroid = centroid + sim[j]
            centroid = centroid / ndim
            step = centroid - sim[-1]
            points = centroid + _STEP.take(phase, mode="wrap")[:, None] * step
            filling = np.flatnonzero(phase >= _FILL)
            if filling.size:
                points[filling] = sim[phase[filling] - _FILL, filling]
    return results


def _simplex(objective, seed: list, x_tol, f_tol,
             max_evals: int) -> NelderMeadResult:
    """`nelder_mead` from one seed, its simplex held as lists of floats."""
    ndim = len(seed)
    x_tol = np.broadcast_to(np.asarray(x_tol, dtype=float), (ndim,)).tolist()

    def evaluate(x) -> float:  # NaN counts as +inf
        value = float(objective(x))
        return math.inf if math.isnan(value) else value

    f_seed = evaluate(seed)
    evals = 1
    if not math.isfinite(f_seed):
        return NelderMeadResult(np.array(seed), math.inf, evals, False)

    sim, fsim = [seed], [f_seed]
    for i in range(ndim):
        vertex = list(seed)
        vertex[i] = seed[i] * 1.05 if seed[i] != 0.0 else 2.5e-4
        sim.append(vertex)
        fsim.append(evaluate(vertex))
        evals += 1
    order = sorted(range(ndim + 1), key=fsim.__getitem__)
    sim, fsim = [sim[j] for j in order], [fsim[j] for j in order]

    converged = False
    while evals < max_evals:
        best = sim[0]
        if fsim[-1] - fsim[0] <= f_tol and all(
                abs(x - b) <= tol
                for vertex in sim[1:] for x, b, tol in zip(vertex, best, x_tol)):
            converged = True
            break
        centroid = best
        for vertex in sim[1:-1]:
            centroid = [c + x for c, x in zip(centroid, vertex)]
        centroid = [c / ndim for c in centroid]
        step = [c - x for c, x in zip(centroid, sim[-1])]
        reflected = [c + s for c, s in zip(centroid, step)]
        f_reflected = evaluate(reflected)
        evals += 1
        if f_reflected < fsim[0]:
            expanded = [c + 2.0 * s for c, s in zip(centroid, step)]
            f_expanded = evaluate(expanded)
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
                f_contracted = evaluate(contracted)
                accept = f_contracted <= f_reflected
            else:
                contracted = [c - 0.5 * s for c, s in zip(centroid, step)]
                f_contracted = evaluate(contracted)
                accept = f_contracted < fsim[-1]
            evals += 1
            if accept:
                sim[-1], fsim[-1] = contracted, f_contracted
            else:
                for j in range(1, ndim + 1):
                    sim[j] = [b + 0.5 * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = evaluate(sim[j])
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


class _SeedStopped(Exception):
    """Raised where a seed's search ends without a fit, with the point its
    box is cut at and the reason (see the module docstring) as arguments."""


def _search_from_seed(objective, seed, x_tol, f_tol, settings: SearchSettings,
                      system, floor_beta: bool,
                      path: list) -> tuple[NelderMeadResult, bool]:
    """A seed's search within the per-seed budget, and whether it ended at
    "edge". With `settings.restarts` 1 a Gauss-Newton polish runs from the
    seed, and its end is the outcome if it converged; if not, a simplex
    runs from its end point and one more polish from the simplex's best.
    With `restarts` 0 the simplex runs alone, from the seed.

    The seed is at "edge" where its last polish ended not converged below
    BETA_FLOOR or within x_tol of the t2c = 1 day bound. No damped step
    there lowers the value and stays in the domain (t2c >= 1, beta > 0
    and, in the beta -> 0 valley, the collinear rule, where the kernel's
    rounding sets the last admissible values). The search's objective
    raises _SeedStopped at "domain", "ceiling", "horizon", "kept" and
    "stall". Each point a polish accepts is appended to `path`."""
    start, spent = seed, 0
    if settings.restarts:
        seeded = NelderMeadResult(seed, objective(seed.tolist()), 1, False)
        polished = _polish(objective, system, seeded, x_tol, f_tol,
                           settings.max_evals - 1, floor_beta, path)
        spent = 1 + polished.evaluations
        if polished.converged:
            return polished._replace(evaluations=spent), False
        start = polished.x
    best = nelder_mead(objective, start, x_tol=x_tol, f_tol=f_tol,
                       max_evals=settings.max_evals - spent)
    spent += best.evaluations
    remaining = settings.max_evals - spent
    if not settings.restarts or remaining <= 0:
        return best._replace(evaluations=spent), False
    polished = _polish(objective, system, best, x_tol, f_tol, remaining,
                       floor_beta, path)
    beta, _, t2c = polished.x.tolist()
    edge = not polished.converged and (beta < BETA_FLOOR or t2c - 1.0 <= x_tol[2])
    return polished._replace(evaluations=spent + polished.evaluations,
                             converged=best.converged or polished.converged), edge


def _polish(objective, system, start: NelderMeadResult, x_tol, f_tol,
            budget: int, floor_beta: bool, path: list) -> NelderMeadResult:
    """Levenberg-Marquardt from `start`: damped Gauss-Newton steps on the
    system that `system(beta, omega, t2c)` builds, (J^T J, J^T e) or None.

    Each step solves (J^T J + damping diag(J^T J)) step = -J^T e, and is
    taken only if the objective is lower there; the damping falls by
    _DAMPING_FACTOR after a taken step and rises by it after a refused one.
    The run stops, converged, at a taken step within `x_tol` on every
    coordinate that gains no more than `f_tol`, as the simplex does; it
    also stops, not converged, where no damped step lowers the value (a
    refused step within `x_tol`, or the damping past _DAMPING_MAX) and
    where `system` gives None. Every trial point goes through `objective`;
    a system build counts as one evaluation as well. With `floor_beta`, a
    step that would take beta below BETA_FLOOR holds beta at the floor and
    steps in (omega, t2c) alone. Each point taken is appended to `path`.
    """
    x, value, converged = start.x.tolist(), start.value, False
    x_tol = x_tol.tolist()
    damping, evals, built = _DAMPING_START, 0, None
    while evals < budget:
        if built is None:
            built = system(*x)
            evals += 1
            if built is None:
                break
            jtj, jte = built
        step = _damped_step(jtj, jte, damping, x[0], floor_beta)
        if step is not None:
            trial = [v + d for v, d in zip(x, step)]
            if floor_beta and trial[0] < BETA_FLOOR:  # x + (floor - x) rounded
                trial[0] = BETA_FLOOR
            f = objective(trial)
            evals += 1
            small = all(abs(d) <= tol for d, tol in zip(step, x_tol))
            if f < value:
                gain, x, value, built = value - f, trial, f, None
                path.append(trial)
                damping /= _DAMPING_FACTOR
                if small and gain <= f_tol:
                    converged = True
                    break
                continue
            if small:
                break
        damping *= _DAMPING_FACTOR
        if damping > _DAMPING_MAX:
            break
    return NelderMeadResult(np.array(x), value, evals, converged)


def _damped_step(jtj, jte, damping: float, beta: float, floor_beta: bool):
    """The Levenberg-Marquardt step of `_polish` as a list, or None where
    the damped system fails `_ldlt`'s determinant rule. With `floor_beta`,
    a step that would take beta below BETA_FLOOR is solved again with the
    beta step fixed at BETA_FLOOR - beta."""
    # J^T J + damping diag(J^T J), on a copy: `_polish` reuses jtj
    matrix = jtj.copy()
    matrix.flat[::4] *= 1.0 + damping
    rhs = -jte
    step = [0.0] * 3
    try:
        if not _ldlt(memoryview(matrix), memoryview(rhs), 3, math.sqrt, step):
            return None
        if floor_beta and beta + step[0] < BETA_FLOOR:
            hold = BETA_FLOOR - beta
            rhs[1:] -= matrix[1:, 0] * hold
            rhs[0] = hold
            matrix[0] = matrix[:, 0] = 0.0
            matrix[0, 0] = 1.0
            if not _ldlt(memoryview(matrix), memoryview(rhs), 3, math.sqrt, step):
                return None
    except ZeroDivisionError:
        return None
    return step


def _fit_tolerances(window: BubbleWindow, bounds: SearchBounds,
                    settings: SearchSettings):
    widths = np.asarray(bounds.upper) - np.asarray(bounds.lower)
    x_tol = settings.x_tol_rel * widths
    scale = float(np.std(window.values))
    f_tol = settings.f_tol_rel * (scale if scale > 0.0 else 1.0)
    return x_tol, f_tol


def _build_result(window: BubbleWindow, theta, linear, value: float, seed,
                  outcome: NelderMeadResult, ranges: PrecursorRanges) -> FitResult:
    a, b, c = linear
    beta, omega, t2c, phi = theta
    params = LpplParams(a, b, c, beta, omega, t2c, phi,
                        window.anchor_date, window.scale)
    classification = classify_theta(beta, omega, ranges)
    monotone, violations = monotonicity_check(params, window)
    diagnostics = FitDiagnostics(
        rmse=value,
        is_precursor=classification is Classification.PRECURSOR,
        monotone_increasing=monotone,
        violation_dates=tuple(violations),
    )
    return FitResult(
        params=params,
        diagnostics=diagnostics,
        seed_used=tuple(float(s) for s in seed),
        function_evaluations=outcome.evaluations,
        converged=outcome.converged,
        classification=classification,
        warnings=_boundary_warnings(beta, omega, ranges),
    )


def recursive_seed_search(
    window: BubbleWindow,
    bounds: SearchBounds = SearchBounds(),
    ranges: PrecursorRanges = PrecursorRanges(),
    settings: SearchSettings = SearchSettings(),
    *,
    floor_beta: bool = False,
) -> list[FitResult]:
    """Run the midpoint/hypercube recursion and return ranked fits.

    Each distinct seed is searched once: a box whose midpoint was already
    searched is cut where that search was and adds no second solution (it
    would be an exact copy). Each seed ends for one of the reasons the
    module docstring lists. A seed's search, its polishes and its simplex,
    ends at "ceiling", "horizon" or "kept" at the first point whose value
    is below every value that search has seen and that has beta above
    BETA_CEILING, has t2c past the horizon or lies within DEDUP_TOL of a
    stored point, compared in (beta, |omega|, t2c) (phi is solved at each
    point, and the phase-solved value is even in omega). The stored
    points are where earlier seeds ended at "fit" or "edge" and each point
    the polishes of earlier seeds that ended at "fit", "edge" or "kept"
    took. So no two results lie within DEDUP_TOL of each other.
    Results are canonicalized and sorted by RMSE ascending with
    lexicographic (beta, omega, t2c, phi) tie-breaking, so identical
    inputs always produce identical output.
    `floor_beta` turns on the reported-fit floor used when mirroring
    fixed-exponent conventions: points with beta below BETA_FLOOR
    evaluate to +inf, a seed below the floor starts at it, and a polish
    step that would cross it holds beta at the floor.

    Raises DataError, counting the seeds searched and those that ended at
    "ceiling", "horizon", "stall" and "domain", when the search keeps no
    fit.
    """
    if len(window) < 10:
        raise UsageError("need at least 10 observations for a 7-parameter fit")
    base_objective = window_objective(window)
    solver = WindowSolver(window)
    x_tol, f_tol = _fit_tolerances(window, bounds, settings)
    # the t2c horizon (see the module docstring)
    horizon = max(solver.age_max, bounds.upper[2])
    # the running seed's lowest value and its point, the value a call gains
    # below (f_tol under the last gain) and the calls since the last gain
    lowest, lowest_at, bar, idle = math.inf, None, math.inf, 0
    # the points where earlier seeds ended at "fit" or "edge", and those
    # that the polishes of earlier seeds that ended at "fit", "edge" or
    # "kept" took, as (beta, |omega|, t2c); a new low within DEDUP_TOL of
    # one ends a seed at "kept"
    kept: list[tuple[float, float, float]] = []
    beta_tol, omega_tol, t2c_tol = DEDUP_TOL

    def objective(theta):
        nonlocal lowest, lowest_at, bar, idle
        value = (math.inf if floor_beta and theta[0] < BETA_FLOOR
                 else base_objective(theta))
        if value < lowest:
            beta, omega, t2c = theta
            if beta > BETA_CEILING:
                raise _SeedStopped(np.array(theta), "ceiling")
            if t2c > horizon:
                raise _SeedStopped(np.array(theta), "horizon")
            omega = abs(omega)
            for b, w, t in kept:
                if (abs(beta - b) < beta_tol and abs(omega - w) < omega_tol
                        and abs(t2c - t) < t2c_tol):
                    raise _SeedStopped(np.array(theta), "kept")
            lowest, lowest_at = value, theta
        elif lowest == math.inf:  # the search's first call is its seed
            raise _SeedStopped(np.array(theta), "domain")
        if value < bar:
            bar, idle = value - f_tol, 0
        else:
            idle += 1
            if idle >= settings.stall_evals:
                raise _SeedStopped(np.array(lowest_at), "stall")
        return value

    # how each distinct seed's search ended, in first-search order: the
    # point its box is cut at, the reason (see the module docstring) and,
    # for "fit" and "edge", the search's outcome
    ends: dict[tuple, tuple[np.ndarray, str, NelderMeadResult | None]] = {}

    def search(lo: np.ndarray, up: np.ndarray) -> None:
        nonlocal lowest, lowest_at, bar, idle
        middle = (lo + up) / 2.0
        seed = middle.copy()
        if floor_beta:
            seed[0] = max(seed[0], BETA_FLOOR)
        key = tuple(seed)
        if key not in ends:
            lowest, lowest_at, bar, idle = math.inf, seed, math.inf, 0
            path: list = []
            try:
                outcome, edge = _search_from_seed(objective, seed, x_tol, f_tol,
                                                  settings, solver.gauss_newton,
                                                  floor_beta, path)
            except _SeedStopped as stop:
                ends[key] = (*stop.args, None)
            else:
                ends[key] = (outcome.x, "edge" if edge else "fit", outcome)
                path.append(outcome.x.tolist())
            if ends[key][1] in ("fit", "edge", "kept"):
                kept.extend((b, abs(w), t) for b, w, t in path)
        # cut at the midpoint, not at a lifted seed: each sub-box then lies
        # in one half of its box, and the recursion ends
        cut = ends[key][0]
        bottom = np.minimum(middle[:2], cut[:2])
        top = np.maximum(middle[:2], cut[:2])
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

    # report the solution of each seed that ended at "fit" (at "edge" when
    # none did) at its canonical point, with the phase solved there; the
    # curve is unchanged but the kernel solves again with that phase held so
    # value and parameters stay consistent (solutions whose basis is
    # numerically degenerate after the ulp-level phase shift are dropped)
    # no beta floor re-check: the best point is finite, canonicalizing keeps beta
    reasons = [reason for _, reason, _ in ends.values()]
    reported = "fit" if "fit" in reasons else "edge"
    fits = []
    for seed, (_, reason, outcome) in ends.items():
        if reason != reported:
            continue
        solved = solver.solve(*outcome.x.tolist())
        if solved is None:
            continue
        theta = canonicalize_theta((*outcome.x, solved[3]))
        held = solver.solve(*theta)
        if held is not None:
            fits.append(_build_result(window, theta, held[:3], solver.rmse(held[4]),
                                      seed, outcome, ranges))
    if not fits:
        raise DataError(f"the search kept no fit: {len(ends)} seeds searched, "
                        f"{reasons.count('ceiling')} abandoned past beta "
                        f"{BETA_CEILING}, {reasons.count('horizon')} past the "
                        f"horizon, {reasons.count('stall')} stalled, "
                        f"{reasons.count('domain')} outside the domain")
    return sorted(fits, key=lambda fit: (fit.diagnostics.rmse, fit.params.theta()))


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
        """JSON-ready data: the fits ranked, the best one repeated, and a
        summary of the window in place of its series."""
        fits = [dict(to_json_data(fit), rank=rank)
                for rank, fit in enumerate(self.fits, start=1)]
        window = self.window
        return {
            "window": {
                "start_date": to_json_data(window.start_date),
                "end_date": to_json_data(window.end_date),
                "n_observations": len(window),
                "override_applied": window.override_applied,
            },
            "scale_used": to_json_data(self.scale_used),
            "scale_reason": self.scale_reason,
            "validity_ratio": self.validity_ratio,
            "raw_fit_valid": self.raw_fit_valid,
            "paper_mode": self.paper_mode,
            "fits": fits,
            "best_fit": fits[0] if fits else None,
            "best_precursor": to_json_data(self.best_precursor),
            "constrained_best": to_json_data(self.constrained_best),
        }


def fit_bubble(
    window: BubbleWindow,
    bounds: SearchBounds = SearchBounds(),
    ranges: PrecursorRanges = PrecursorRanges(),
    scale_choice: str = "auto",
    *,
    paper_mode: bool = False,
) -> BubbleReport:
    """Fit one bubble window end to end and classify the results.

    Under `auto` the log series is fitted when the raw-fit validity ratio
    exceeds 2, and the raw series otherwise. `paper_mode` prefers the raw
    scale regardless and floors beta at BETA_FLOOR during the search; the
    default mode instead reports the unconstrained optimum and adds the
    floored best separately when the two differ. Every search runs with
    the default `SearchSettings`.
    """
    if window.scale != Scale.RAW:
        raise UsageError("fit_bubble expects a raw-scale window")
    if scale_choice not in SCALE_CHOICES:
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
        scale_used = Scale(scale_choice)
        reason = "explicit scale choice"

    target = window if scale_used == Scale.RAW else window.with_log_values()
    fits = recursive_seed_search(target, bounds, ranges, floor_beta=paper_mode)

    best_precursor = next(
        (f for f in fits if f.classification is Classification.PRECURSOR), None
    )
    constrained_best = None
    if not paper_mode and fits[0].params.beta < BETA_FLOOR:
        try:
            constrained_best = recursive_seed_search(
                target, bounds, ranges, floor_beta=True)[0]
        except DataError:  # the floored search kept no fit
            pass

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
