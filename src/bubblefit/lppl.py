"""The log-periodic power law and its fitting primitives.

Model:  y(t) = a + b * (tc - t)^beta * (1 + c * cos(omega * ln(tc - t) + phi))

with tc the critical time. Instead of tc itself, parameters carry `t2c`,
the number of days from the window's last observation (the anchor) to tc,
so tc = anchor_date + t2c. Time differences are measured in calendar days
but only weekday observations contribute residuals.

Given the four nonlinear parameters (beta, omega, t2c, phi), the three
linear ones (a, b, c) have a closed-form least-squares solution through
the substitution d = b * c: regress y on {1, f, g} with f = (tc-t)^beta
and g = f * cos(omega * ln(tc-t) + phi).

Given only (beta, omega, t2c), the phase is linear too (Filimonov &
Sornette 2013): b c f cos(omega ln(tc-t) + phi) equals
C1 f cos(omega ln(tc-t)) + C2 f sin(omega ln(tc-t)), so regress y on
{1, f, f cos(omega ln(tc-t)), f sin(omega ln(tc-t))} and recover
phi = atan2(-C2, C1) and b c = hypot(C1, C2). The fitter's simplex runs
over these three parameters; both regressions share one kernel.

The kernel is one object per window, `WindowSolver`, whose `solve` is the
only way to a linear completion. Two functions sit on top of it, each
for a contract the object does not keep: `window_objective` is the
objective the simplexes minimize (+inf outside the domain), and
`linear_solve` raises DegeneracyError naming the collinear pair.

The kernel builds its oscillation columns without cos and sin: with
psi the angle (omega ln(tc-t), plus phi when the phase is held),
t = tan(psi / 2) and w = f / (1 + t^2), f cos(psi) = (1 - t^2) w and
f sin(psi) = 2 t w. One float64 tan costs about a fifth of a cos or a
sin per element (2-3 ns against 9-15 ns at n = 1,150 with numpy 2.4.6 on
a 2-vCPU Xeon VM), and cos plus sin were about half of a phase-solved
evaluation there.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crashes import BubbleWindow
from .errors import DegeneracyError, UsageError
from .series import Scale

TWO_PI = 2.0 * math.pi

_BASIS_NAMES = ("constant", "power", "oscillation")
# a point is inadmissible when the column-normalized Gram has a determinant
# at most _DET_MIN, or when its Gram sums could exceed exp(_EXP_MAX)
_DET_MIN = 1e-13
_EXP_MAX = 700.0
# WindowSolver.rmse_many evaluates rows in blocks of about _BLOCK_BYTES of
# design columns, and sends fewer than _MIN_BLOCK rows through rmse_at one
# at a time: a stacked evaluation has a fixed cost of about four single
# ones, and broke even at 8 to 16 rows for n = 300 to 1,150 (2-vCPU Xeon VM,
# numpy 2.4.6)
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK = 10


@dataclass(frozen=True)
class LpplParams:
    a: float
    b: float
    c: float
    beta: float
    omega: float
    t2c: float
    phi: float
    anchor_date: dt.date
    scale: Scale = Scale.RAW

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise UsageError("a must be finite")
        if self.t2c < 1.0:
            raise UsageError(f"t2c must be >= 1 day (got {self.t2c})")
        if self.beta <= 0.0:
            raise UsageError(f"beta must be positive (got {self.beta})")
        if self.omega < 0.0:
            raise UsageError(f"omega must be non-negative (got {self.omega})")
        if not (0.0 <= self.phi <= TWO_PI):
            raise UsageError(f"phi must be in [0, 2*pi] (got {self.phi})")

    def theta(self) -> tuple[float, float, float, float]:
        """The nonlinear parameter 4-vector (beta, omega, t2c, phi)."""
        return (self.beta, self.omega, self.t2c, self.phi)

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "beta": self.beta,
            "omega": self.omega,
            "t2c": self.t2c,
            "phi": self.phi,
            "anchor_date": self.anchor_date.isoformat(),
            "scale": self.scale.value,
        }


@dataclass(frozen=True)
class HazardParams:
    """Parameters of the crash hazard rate b' * (tc-t)^(-alpha) * (1 + c' cos(...))."""

    kappa: float
    b_prime: float
    c_prime: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.kappa <= 1.0):
            raise UsageError("kappa must be in (0, 1]")
        if not (0.0 < self.alpha < 1.0):
            raise UsageError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class FitDiagnostics:
    rmse: float
    is_precursor: bool
    monotone_increasing: bool
    violation_dates: tuple[dt.date, ...]
    validity_ratio: float | None
    raw_fit_valid: bool | None

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "is_precursor": self.is_precursor,
            "monotone_increasing": self.monotone_increasing,
            "violation_dates": [d.isoformat() for d in self.violation_dates],
            "validity_ratio": self.validity_ratio,
            "raw_fit_valid": self.raw_fit_valid,
        }


def _days_to_critical(params: LpplParams, t: dt.date) -> float:
    return params.t2c + (params.anchor_date - t).days


def lppl_value(params: LpplParams, t: dt.date) -> float:
    """Model value on day `t` (must precede the critical time)."""
    return float(lppl_curve(params, [t])[0])


def lppl_curve(params: LpplParams, dates) -> np.ndarray:
    """Model values over a date sequence; every date must precede the
    critical time."""
    gaps = np.array([_days_to_critical(params, d) for d in dates], dtype=float)
    if len(gaps) and gaps.min() <= 0.0:
        bad = dates[int(np.argmin(gaps))]
        raise ValueError(f"{bad.isoformat()} is not before the critical time")
    return params.a + params.b * gaps**params.beta * (
        1.0 + params.c * np.cos(params.omega * np.log(gaps) + params.phi)
    )


class LinearParams(NamedTuple):
    a: float
    b: float
    c: float
    c_degenerate: bool


class WindowSolver:
    """The least-squares kernel of one window: preallocated state for
    repeated solves.

    `solve` gives the linear completion at a nonlinear point, and
    `rmse_at` is the objective built on it; `window_objective` and
    `linear_solve` are the two entry points on top of this object. With
    phi given the design columns are {1, f, f cos(omega ln tau + phi)};
    with phi solved they are {1, f, f cos(omega ln tau), f sin(omega ln tau) / 2}.
    Both come from the half-angle tangent of the module docstring, which
    gives f sin(psi) / 2 = t w directly; the sin column's coefficient is
    therefore 2 C2. Column normalization makes the scaled Gram, and with
    it the determinant and b-floor rules below, independent of that factor.
    The normal equations are solved in column-normalized form (the scaled
    Gram has unit diagonal) by an LDL^T factorization, and the SSE comes
    from an explicit residual pass so near-perfect fits keep full
    precision. Buffers are reused across calls: bind one solver per
    thread when evaluating in parallel.

    The b-floor is 1e-12 of the data scale. Below it c is unidentifiable
    and reported as 0, which is exact only while the oscillation term
    b c f stays below the floor as well.

    A point is inadmissible, and `solve` returns None with the cause in
    `failure`, when the Gram sums could overflow, when the scaled Gram's
    determinant is at most _DET_MIN, or when |b| is below the b-floor
    while the oscillation term's largest value |b c| max(f) is not.
    """

    __slots__ = ("y", "ages", "n", "log_n", "age_max", "b_floor", "lg", "r",
                 "f", "cos", "sin", "systems", "failure")

    def __init__(self, window: BubbleWindow):
        self.y = np.ascontiguousarray(window.values, dtype=float)
        self.ages = window.ages_days()
        n = self.y.size
        self.n = float(n)
        self.log_n = math.log(n) if n else 0.0
        self.age_max = float(self.ages.max()) if n else 0.0
        self.b_floor = 1e-12 * max(float(np.max(np.abs(self.y))) if n else 0.0, 1e-12)
        self.lg = np.empty(n)
        self.r = np.empty(n)
        design = np.empty((4, n))
        design[0] = 1.0
        self.f, self.cos, self.sin = design[1], design[2], design[3]
        # per column count: (design rows, their transpose, Gram, X^T y, coefficients)
        self.systems = {
            k: (design[:k], design[:k].T, np.empty((k, k)), np.empty(k), np.empty(k))
            for k in (3, 4)
        }
        self.failure = None

    def solve(self, beta: float, omega: float, t2c: float, phi: float | None = None):
        """(a, b, c, phi, sse) minimizing the squared error, or None when
        the point is inadmissible. With phi None the phase is solved:
        C1 f cos(omega ln tau) + C2 f sin(omega ln tau) is b c f cos(omega
        ln tau + phi) with b c = hypot(C1, C2) and phi = atan2(-C2, C1)."""
        # sum(f^2) <= n * exp(2 beta ln(max gap)) must stay finite
        lg_max = math.log(t2c + self.age_max)
        if not 2.0 * beta * lg_max + self.log_n <= _EXP_MAX:
            return self._reject("overflow")
        lg, r, f = self.lg, self.r, self.f
        np.add(self.ages, t2c, out=lg)
        np.log(lg, out=lg)
        np.multiply(lg, beta, out=f)
        np.exp(f, out=f)                   # f = gaps**beta
        # half-angle columns from t = tan(psi / 2) and w = f / (1 + t^2)
        cos, sin = self.cos, self.sin
        np.multiply(lg, 0.5 * omega, out=r)
        if phi is not None:
            r += 0.5 * phi
        np.tan(r, out=r)
        np.multiply(r, r, out=sin)
        np.subtract(1.0, sin, out=cos)
        sin += 1.0
        np.divide(f, sin, out=sin)         # w
        cos *= sin                         # (1 - t^2) w = f cos(psi)
        if phi is None:
            sin *= r                       # t w = f sin(psi) / 2
            k = 4
        else:
            k = 3
        design, design_t, gram, xty, coef = self.systems[k]
        np.dot(design, design_t, out=gram)
        np.dot(design, self.y, out=xty)
        g = gram.tolist()
        q = xty.tolist()

        # scale every column to unit norm (u are the norms) and factor the
        # scaled Gram as L D L^T; with d0 = 1 its first column is L's
        u0, u1, u2 = math.sqrt(g[0][0]), math.sqrt(g[1][1]), math.sqrt(g[2][2])
        u3 = math.sqrt(g[3][3]) if k == 4 else 1.0
        if not (u1 > 0.0 and u2 > 0.0 and u3 > 0.0):
            return self._reject("collinear")
        l10 = g[0][1] / (u0 * u1)
        l20 = g[0][2] / (u0 * u2)
        d1 = 1.0 - l10 * l10
        if not d1 > _DET_MIN:
            return self._reject("collinear")
        l21 = (g[1][2] / (u1 * u2) - l20 * l10) / d1
        d2 = 1.0 - l20 * l20 - l21 * l21 * d1
        det = d1 * d2
        if not det > _DET_MIN:
            return self._reject("collinear")
        z0 = q[0] / u0
        z1 = q[1] / u1 - l10 * z0
        z2 = q[2] / u2 - l20 * z0 - l21 * z1
        l30 = l31 = l32 = x3 = 0.0
        if k == 4:
            l30 = g[0][3] / (u0 * u3)
            l31 = (g[1][3] / (u1 * u3) - l30 * l10) / d1
            l32 = (g[2][3] / (u2 * u3) - l30 * l20 - l31 * l21 * d1) / d2
            d3 = 1.0 - l30 * l30 - l31 * l31 * d1 - l32 * l32 * d2
            if not det * d3 > _DET_MIN:
                return self._reject("collinear")
            x3 = (q[3] / u3 - l30 * z0 - l31 * z1 - l32 * z2) / d3
        x2 = z2 / d2 - l32 * x3
        x1 = z1 / d1 - l21 * x2 - l31 * x3
        x0 = z0 - l10 * x1 - l20 * x2 - l30 * x3
        a, b, cos_coef = x0 / u0, x1 / u1, x2 / u2

        coef[0], coef[1], coef[2] = a, b, cos_coef
        if k == 4:
            coef[3] = x3 / u3
            sin_coef = 0.5 * x3 / u3        # the column holds f sin(psi) / 2
            d, phi = math.hypot(cos_coef, sin_coef), math.atan2(-sin_coef, cos_coef)
        else:
            d = cos_coef
        if abs(b) >= self.b_floor:
            c = d / b
        elif abs(d) * math.exp(max(beta, 0.0) * lg_max) < self.b_floor:
            c = 0.0         # |b c f| <= |d| max(f) is negligible too
        else:
            return self._reject("b_floor")

        np.dot(coef, design, out=r)
        np.subtract(self.y, r, out=r)
        sse = float(np.dot(r, r))
        if not math.isfinite(sse):
            return self._reject("overflow")
        return a, b, c, phi, sse

    def _reject(self, cause: str) -> None:
        self.failure = cause
        return None

    def rmse(self, sse: float) -> float:
        """The RMSE that an SSE of `solve` stands for."""
        return math.sqrt(sse / self.n)

    def rmse_at(self, beta: float, omega: float, t2c: float,
                phi: float | None = None) -> float:
        """The objective: RMSE of `solve`, +inf outside the domain.

        Inadmissible points (t2c < 1, beta <= 0, a degenerate basis,
        numeric overflow) evaluate to +inf rather than raising, which
        keeps the unbounded search well defined. With the phase held, a
        negative omega is mapped through the exact identity
        cos(-omega * x + phi) = cos(omega * x - phi).
        """
        if phi is not None:
            if not math.isfinite(phi):
                return math.inf
            if omega < 0.0:
                omega, phi = -omega, -phi
        if not (t2c >= 1.0 and beta > 0.0 and math.isfinite(omega)):
            return math.inf
        solved = self.solve(beta, omega, t2c, phi)
        if solved is None:
            return math.inf
        return self.rmse(solved[4])

    def rmse_many(self, points) -> np.ndarray:
        """`rmse_at` of every row of a stack of points, as an array.

        A (k, 3) stack holds phase-solved points (beta, omega, t2c), a
        (k, 4) stack phase-held ones (beta, omega, t2c, phi); a row with a
        NaN is inadmissible. Every rule of `rmse_at` and `solve` applies
        row by row: the domain checks, the overflow guard, the determinant
        rule, the b-floor rule and the explicit residual pass. Rows are
        evaluated in blocks of about _BLOCK_BYTES of design columns, with
        `solve`'s arithmetic and, through numpy's stacked matmul, its BLAS
        routines, so the values equal `rmse_at`'s bit for bit; only the
        guard and b-floor thresholds use numpy's log, exp and hypot, which
        can differ from the math module's by an ulp. Fewer than _MIN_BLOCK
        admissible rows go through `rmse_at` one at a time, which is
        cheaper there.
        """
        points = np.asarray(points, dtype=float)
        out = np.full(len(points), np.inf)
        # a NaN row, such as a stopped simplex's, fails the first domain
        # check; when few rows pass it, rmse_at applies the other rules
        rows = np.flatnonzero(points[:, 2] >= 1.0)
        if rows.size >= _MIN_BLOCK:
            stack = points[rows]
            with np.errstate(all="ignore"):
                ok = (stack[:, 0] > 0.0) & np.isfinite(stack[:, 1])
                if stack.shape[1] == 4:
                    ok &= np.isfinite(stack[:, 3])
                    stack[stack[:, 1] < 0.0, 1::2] *= -1.0   # omega, phi
                lg_max = np.log(stack[:, 2] + self.age_max)
                ok &= 2.0 * stack[:, 0] * lg_max + self.log_n <= _EXP_MAX
            rows, stack, lg_max = rows[ok], stack[ok], lg_max[ok]
        if rows.size < _MIN_BLOCK:
            for i in rows.tolist():
                out[i] = self.rmse_at(*points[i].tolist())
            return out
        columns = 3 if stack.shape[1] == 4 else 4
        per_row = 8 * columns * self.y.size
        blocks = -(-rows.size // max(_MIN_BLOCK, _BLOCK_BYTES // per_row))
        size = -(-rows.size // blocks)
        with np.errstate(all="ignore"):
            for start in range(0, rows.size, size):
                block = slice(start, start + size)
                out[rows[block]] = self._rmse_block(stack[block], lg_max[block])
        return out

    def _rmse_block(self, stack, lg_max) -> np.ndarray:
        """`solve` and `rmse` over a block of points that pass the domain
        checks and the overflow guard (a held phase's negative omega
        mapped), +inf where a later rule rejects."""
        beta, omega, t2c = stack[:, 0], stack[:, 1], stack[:, 2]
        phi = stack[:, 3] if stack.shape[1] == 4 else None
        k = 4 if phi is None else 3
        design = np.empty((beta.size, k, self.y.size))
        design[:, 0] = 1.0
        f, cos = design[:, 1], design[:, 2]
        lg = np.add(self.ages, t2c[:, None])
        np.log(lg, out=lg)
        np.multiply(lg, beta[:, None], out=f)
        np.exp(f, out=f)
        r = np.multiply(lg, 0.5 * omega[:, None], out=lg)
        if phi is not None:
            r += 0.5 * phi[:, None]
        np.tan(r, out=r)
        w = np.multiply(r, r)
        np.subtract(1.0, w, out=cos)
        w += 1.0
        np.divide(f, w, out=w)
        cos *= w
        if phi is None:
            np.multiply(r, w, out=design[:, 3])
        # stacked products run the same BLAS routine per row as `solve`'s
        # np.dot calls (syrk for the Gram, gemv for X^T y and the fit, dot
        # for the SSE), so every sum, and with it the value, is the same
        # bit for bit
        g = np.matmul(design, design.transpose(0, 2, 1)).transpose(1, 2, 0)
        q = np.matmul(design, self.y).T

        u0, u1, u2 = np.sqrt(g[0][0]), np.sqrt(g[1][1]), np.sqrt(g[2][2])
        u3 = np.sqrt(g[3][3]) if k == 4 else 1.0
        l10 = g[0][1] / (u0 * u1)
        l20 = g[0][2] / (u0 * u2)
        d1 = 1.0 - l10 * l10
        l21 = (g[1][2] / (u1 * u2) - l20 * l10) / d1
        d2 = 1.0 - l20 * l20 - l21 * l21 * d1
        det = d1 * d2
        ok = (u1 > 0.0) & (u2 > 0.0) & (d1 > _DET_MIN) & (det > _DET_MIN)
        z0 = q[0] / u0
        z1 = q[1] / u1 - l10 * z0
        z2 = q[2] / u2 - l20 * z0 - l21 * z1
        l30 = l31 = l32 = x3 = 0.0
        if k == 4:
            l30 = g[0][3] / (u0 * u3)
            l31 = (g[1][3] / (u1 * u3) - l30 * l10) / d1
            l32 = (g[2][3] / (u2 * u3) - l30 * l20 - l31 * l21 * d1) / d2
            d3 = 1.0 - l30 * l30 - l31 * l31 * d1 - l32 * l32 * d2
            ok &= (u3 > 0.0) & (det * d3 > _DET_MIN)
            x3 = (q[3] / u3 - l30 * z0 - l31 * z1 - l32 * z2) / d3
        x2 = z2 / d2 - l32 * x3
        x1 = z1 / d1 - l21 * x2 - l31 * x3
        x0 = z0 - l10 * x1 - l20 * x2 - l30 * x3
        coef = np.empty((beta.size, 1, k))
        coef[:, 0, 0], coef[:, 0, 1], coef[:, 0, 2] = x0 / u0, x1 / u1, x2 / u2
        b, d = coef[:, 0, 1], coef[:, 0, 2]
        if k == 4:
            coef[:, 0, 3] = x3 / u3
            d = np.hypot(d, 0.5 * coef[:, 0, 3])
        ok &= ((np.abs(b) >= self.b_floor)
               | (np.abs(d) * np.exp(beta * lg_max) < self.b_floor))

        resid = np.matmul(coef, design)
        np.subtract(self.y, resid, out=resid)
        sse = np.matmul(resid, resid.transpose(0, 2, 1))[:, 0, 0]
        ok &= np.isfinite(sse)
        return np.where(ok, np.sqrt(sse / self.n), np.inf)


def linear_solve(beta: float, omega: float, t2c: float, phi: float,
                 window: BubbleWindow) -> LinearParams:
    """Best (a, b, c) for fixed nonlinear parameters on a window.

    When |b| and |b*c| both fall below 1e-12 of the data scale, c is
    unidentifiable; it is reported as 0 with the `c_degenerate` flag set.
    A rank-deficient basis (e.g. beta = 0 makes the power column constant)
    raises DegeneracyError naming the collinear pair, and so does a point
    the kernel rejects for another cause.
    """
    if len(window) == 0:
        raise UsageError("empty window")
    solver = WindowSolver(window)
    if t2c + solver.ages.min() < 1.0:
        raise UsageError("all observations must be at least 1 day before tc")
    solved = solver.solve(float(beta), float(omega), float(t2c), float(phi))
    if solved is None:
        if solver.failure == "collinear":
            i, j = _most_collinear_pair(solver.systems[3][2])
            raise DegeneracyError(
                f"basis columns {_BASIS_NAMES[i]!r} and {_BASIS_NAMES[j]!r} are collinear"
            )
        raise DegeneracyError(f"linear sub-problem is inadmissible ({solver.failure})")
    a, b, c, _, _ = solved
    return LinearParams(a, b, c, abs(b) < solver.b_floor)


def _most_collinear_pair(gram: np.ndarray) -> tuple[int, int]:
    norms = np.sqrt(np.diag(gram))
    norms[norms == 0.0] = 1.0
    scaled = gram / np.outer(norms, norms)
    pairs = [(0, 1), (0, 2), (1, 2)]
    return max(pairs, key=lambda p: abs(scaled[p]))


def window_objective(window: BubbleWindow):
    """Bind a window into the objective of the fitter and the scans.

    The objective takes (beta, omega, t2c), and then solves the phase with
    the linear parameters, or (beta, omega, t2c, phi) with the phase held;
    it is `WindowSolver.rmse_at`.
    """
    rmse_at = WindowSolver(window).rmse_at

    def objective(theta) -> float:
        return rmse_at(*theta)

    return objective


def rmse(params: LpplParams, window: BubbleWindow) -> float:
    """Root mean squared error of a fully specified curve on a window."""
    if len(window) == 0:
        raise UsageError("empty window")
    resid = window.values - lppl_curve(params, window.dates)
    return math.sqrt(float(resid @ resid) / len(window))


def hazard_rate(h_params: HazardParams, omega: float, phi_prime: float,
                t_c: float, t: float) -> float:
    """Crash hazard per day at time `t` (days), for critical time `t_c`.

    The value can be negative when the oscillation amplitude exceeds 1;
    a negative hazard is exactly what the monotonicity diagnostic flags
    on the price side.
    """
    gap = t_c - t
    if gap <= 0.0:
        raise ValueError("t must precede the critical time")
    return h_params.b_prime * gap ** (-h_params.alpha) * (
        1.0 + h_params.c_prime * math.cos(omega * math.log(gap) + phi_prime)
    )


def hazard_log_price_gain(h_params: HazardParams, omega: float, phi_prime: float,
                          t_c: float, t0: float, t: float) -> float:
    """Closed form of kappa * integral of the hazard over [t0, t].

    Under the no-crash growth condition this equals log p(t) - log p(t0).
    The oscillatory antiderivative is
    -(tc-t)^beta / (omega^2 + beta^2) * (omega sin(psi) + beta cos(psi))
    with beta = 1 - alpha and psi = omega ln(tc-t) + phi'.
    """
    if t_c - t <= 0.0 or t_c - t0 <= 0.0:
        raise ValueError("integration limits must precede the critical time")
    beta = 1.0 - h_params.alpha

    def antiderivative(tp: float) -> float:
        gap = t_c - tp
        psi = omega * math.log(gap) + phi_prime
        power_part = -(gap**beta) / beta
        osc_part = -(gap**beta) / (omega**2 + beta**2) * (
            omega * math.sin(psi) + beta * math.cos(psi)
        )
        return power_part + h_params.c_prime * osc_part

    return h_params.kappa * h_params.b_prime * (antiderivative(t) - antiderivative(t0))


def monotonicity_check(params: LpplParams,
                       window: BubbleWindow) -> tuple[bool, list[dt.date]]:
    """Whether the fitted curve is non-decreasing across the window.

    Evaluates the curve on every window weekday plus the anchor date and
    reports each date where the fitted value falls below its predecessor.
    """
    dates = list(window.dates)
    if not dates or dates[-1] != params.anchor_date:
        dates.append(params.anchor_date)
    fitted = lppl_curve(params, dates)
    violations = [dates[i] for i in range(1, len(dates)) if fitted[i] < fitted[i - 1]]
    return (not violations, violations)


def raw_index_validity(window: BubbleWindow) -> tuple[float, bool]:
    """Ratio p(end)/p(start) and whether a raw-scale fit is admissible.

    A ratio above 2 means the rise over the bubble exceeds the starting
    price, which is impossible under the small-rise assumption unless
    the fundamental price is negative; such windows should be fitted in
    log scale.
    """
    if window.scale != Scale.RAW:
        raise UsageError("validity ratio is defined on raw-scale windows")
    ratio = float(window.values[-1] / window.values[0])
    return ratio, ratio <= 2.0


def write_curve_csv(params: LpplParams, window: BubbleWindow, path) -> None:
    """Export (date, observed, fitted) rows for plotting."""
    fitted = lppl_curve(params, window.dates)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "observed", "fitted"])
        for d, obs, fit in zip(window.dates, window.values, fitted):
            writer.writerow([d.isoformat(), repr(float(obs)), repr(float(fit))])
