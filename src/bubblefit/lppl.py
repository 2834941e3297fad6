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
phi = atan2(-C2, C1) and b c = hypot(C1, C2). The fitter's search runs
over these three parameters; both regressions share one kernel.

The kernel is one object per window, `WindowSolver`, whose `solve` is the
only way to a linear completion. Two functions sit on top of it, each
for a contract the object does not keep: `window_objective` is the
objective the simplexes minimize (+inf outside the domain), and
`linear_solve` raises DegeneracyError naming the collinear pair. With
the phase solved, `WindowSolver.gauss_newton` gives the Gauss-Newton
system of the SSE in (beta, omega, t2c) from `solve`'s buffers; the
fitter starts each seed's search with it.

The kernel builds its oscillation columns without cos and sin: with
psi the angle (omega ln(tc-t), plus phi when the phase is held),
t = tan(psi / 2) and w = f / (1 + t^2), f cos(psi) = (1 - t^2) w and
f sin(psi) = 2 t w. One float64 tan costs about a fifth of a cos or a
sin per element (2-3 ns against 9-15 ns at n = 1,150 with numpy 2.4.6 on
a 2-vCPU Xeon VM), and cos plus sin were about half of a phase-solved
evaluation there.

The kernel holds y above its design rows, in one buffer of rows
[y; 1; f; cos; sin], so that with X the k design rows one BLAS product,
X @ [y; X].T, gives [X^T y | Gram], and [-1, x] @ [y; X] gives the
residual X x - y. The layout exists for the BLAS routine: numpy sends a
product of an array with its own transpose, X @ X.T, to syrk, which took
3-4 times as long as a gemm of the same shape (numpy 2.4.6 with its
bundled OpenBLAS 0.3.31, one thread, same VM: syrk and the gemv for
X^T y 3.8-9.2 us against 0.9-1.5 us for the one gemm at n = 300 to
1,150), while operands of different shapes go to gemm.

A stack of points (`WindowSolver.rmse_many`) holds the same rows as
planes: one contiguous (points, n) array per row y, 1, f, cos and sin.
The elementwise passes that build the columns then run over each plane
as one loop, where a (points, rows, n) layout gave numpy a strided view
per column and with it one inner loop per point (the scan blocks of a
reoptimized scan are about 67 points of 400 elements). The matmuls read
each point's rows a plane apart, as a BLAS leading dimension, and make
the same per-point calls as before.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .crashes import BubbleWindow
from .errors import DegeneracyError, UsageError
from .series import Scale, write_rows

TWO_PI = 2.0 * math.pi

_BASIS_NAMES = ("constant", "power", "oscillation")
# a point is inadmissible when the column-normalized Gram has a determinant
# at most _DET_MIN, or when its Gram sums could exceed exp(_EXP_MAX)
_DET_MIN = 1e-13
_EXP_MAX = 700.0
# WindowSolver.rmse_many evaluates rows in blocks of about _BLOCK_BYTES of
# design columns, and sends fewer than _MIN_BLOCK rows through rmse_at one
# at a time: a stacked evaluation has a fixed cost of four to nine single
# ones, and broke even at 7 to 11 rows for n = 300 to 1,150 (costs fitted
# over stacks of 2 to 20 rows, phase solved and held, three rounds; 2-vCPU
# Xeon VM, numpy 2.4.6)
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
        for name in ("a", "b", "c", "beta", "omega", "t2c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite (got {value})")
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


def lppl_curve(params: LpplParams, dates) -> np.ndarray:
    """Model values over a date sequence; every date must precede the
    critical time."""
    days = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
    # a whole day count is exact in float64, so each gap has the bits of
    # t2c + (anchor_date - date).days
    gaps = params.t2c + (params.anchor_date.toordinal() - days).astype(float)
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


def _fill_columns(f, cos, sin, lg, beta, omega, phi, w) -> None:
    """In place from the log gaps `lg`, which become t = tan(psi / 2):
    f = exp(beta lg), cos = (1 - t^2) w = f cos(psi) and, with the phase
    solved (phi None), sin = t w = f sin(psi) / 2, where w = f / (1 + t^2)
    goes in the scratch `w`. One row takes float parameters, a stack of
    rows (rows, 1) columns. Outputs go in positionally: a keyword `out=`
    costs a ufunc call 0.1-0.25 us more, against about 27 us a `solve`."""
    np.multiply(lg, beta, f)
    np.exp(f, f)                       # f = gaps**beta
    np.multiply(lg, 0.5 * omega, lg)
    if phi is not None:
        lg += 0.5 * phi
    np.tan(lg, lg)
    np.multiply(lg, lg, w)
    np.subtract(1.0, w, cos)
    w += 1.0
    np.divide(f, w, w)                 # w
    cos *= w                           # (1 - t^2) w = f cos(psi)
    if phi is None:
        np.multiply(lg, w, sin)        # t w = f sin(psi) / 2


def _ldlt(g, q, k, sqrt, x):
    """Solve g x = q for k = 3 or 4 columns into x; returns whether the
    determinant rule passes. g[i, j], q[i] and x[i] are floats through one
    row's memoryviews (with math.sqrt) or arrays over a stack of rows (with
    np.sqrt); + - * / and sqrt are correctly rounded in both, so a row gets
    the same bits. With floats a zero divisor, which arises only where the
    rule fails, raises ZeroDivisionError."""
    # scale every column to unit norm (u are the norms) and factor the
    # scaled Gram as L D L^T; with d0 = 1 its first column is L's
    u0, u1, u2 = sqrt(g[0, 0]), sqrt(g[1, 1]), sqrt(g[2, 2])
    l10 = g[0, 1] / (u0 * u1)
    l20 = g[0, 2] / (u0 * u2)
    d1 = 1.0 - l10 * l10
    l21 = (g[1, 2] / (u1 * u2) - l20 * l10) / d1
    d2 = 1.0 - l20 * l20 - l21 * l21 * d1
    det = d1 * d2
    ok = (u1 > 0.0) & (u2 > 0.0) & (d1 > _DET_MIN) & (det > _DET_MIN)
    z0 = q[0] / u0
    z1 = q[1] / u1 - l10 * z0
    z2 = q[2] / u2 - l20 * z0 - l21 * z1
    l30 = l31 = l32 = x3 = 0.0
    if k == 4:
        u3 = sqrt(g[3, 3])
        l30 = g[0, 3] / (u0 * u3)
        l31 = (g[1, 3] / (u1 * u3) - l30 * l10) / d1
        l32 = (g[2, 3] / (u2 * u3) - l30 * l20 - l31 * l21 * d1) / d2
        d3 = 1.0 - l30 * l30 - l31 * l31 * d1 - l32 * l32 * d2
        ok = ok & (u3 > 0.0) & (det * d3 > _DET_MIN)
        x3 = (q[3] / u3 - l30 * z0 - l31 * z1 - l32 * z2) / d3
        x[3] = x3 / u3
    x2 = z2 / d2 - l32 * x3
    x1 = z1 / d1 - l21 * x2 - l31 * x3
    x0 = z0 - l10 * x1 - l20 * x2 - l30 * x3
    x[0], x[1], x[2] = x0 / u0, x1 / u1, x2 / u2
    return ok


def _b_floor_ok(b, d, f_max, b_floor):
    """The b-floor rule: |b| is at least the floor, or the oscillation
    term's largest value |d| f_max (d = b c) is below it as well."""
    return (abs(b) >= b_floor) | (abs(d) * f_max < b_floor)


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
    The columns are held as rows under a row of y, and one gemm forms
    X^T y with the Gram (module docstring: X @ X.T would go to syrk).
    The normal equations are solved in column-normalized form (the scaled
    Gram has unit diagonal) by an LDL^T factorization, and the SSE comes
    from an explicit residual pass so near-perfect fits keep full
    precision. `solve` and the stacked `rmse_many` run the same
    `_fill_columns`, `_ldlt` and `_b_floor_ok`. `gauss_newton` runs a
    phase-solved `solve` and builds the three derivative rows of the
    model from its columns, coefficients and residual, in the rows below
    the design rows, so that one gemm against [X; Z; e] gives every
    product it needs. Buffers are reused across calls: bind one solver
    per thread when evaluating in parallel.

    The b-floor is 1e-12 of the data scale. Below it c is unidentifiable
    and reported as 0, which is exact only while the oscillation term
    b c f stays below the floor as well.

    A point is inadmissible, and `solve` returns None with the cause in
    `failure`, when the Gram sums could overflow, when the scaled Gram's
    determinant is at most _DET_MIN, or when |b| is below the b-floor
    while the oscillation term's largest value |b c| max(f) is not.
    """

    __slots__ = ("y", "ages", "n", "log_n", "age_max", "b_floor", "lg", "r",
                 "f", "cos", "sin", "systems", "blocks", "failure", "jacobian")

    def __init__(self, window: BubbleWindow):
        n = len(window.values)
        # y above the design rows {1, f, cos, sin}: see the module docstring;
        # below them the derivative rows Z of `gauss_newton` and the residual
        rows = np.empty((9, n))
        rows[0] = window.values
        rows[1] = 1.0
        self.y, self.f, self.cos, self.sin = rows[0], rows[2], rows[3], rows[4]
        self.ages = window.ages_days()
        self.n = float(n)
        self.log_n = math.log(n) if n else 0.0
        self.age_max = float(self.ages.max()) if n else 0.0
        self.b_floor = 1e-12 * max(float(np.max(np.abs(self.y))) if n else 0.0, 1e-12)
        self.lg = np.empty(n)
        self.r = rows[8]
        # gauss_newton's buffers: Z, [X; Z; e] transposed, the product
        # Z [X; Z; e]^T, M = (G^-1 X Z^T)^T, M X, and memoryviews of each
        # row of Z X^T with the row of M it solves for
        product, m = np.empty((3, 8)), np.empty((3, 4))
        self.jacobian = (rows[5:8], rows[1:9].T, product, m, np.empty((3, n)),
                         [(memoryview(product[j, :4]), memoryview(m[j]))
                          for j in range(3)])
        # per column count: design rows, the rows y and design and their
        # transpose, the product [X^T y | Gram], coefficients [-1, x], and
        # memoryviews of the Gram, X^T y and x (fast float items)
        self.systems = {}
        for k in (3, 4):
            product, coef = np.empty((k, k + 1)), np.empty(k + 1)
            coef[0] = -1.0
            self.systems[k] = (rows[1:k + 1], rows[:k + 1], rows[:k + 1].T,
                               product, coef, memoryview(product[:, 1:]),
                               memoryview(product[:, 0]), memoryview(coef[1:]))
        # per column count, _rmse_block's buffers, made on its first call
        self.blocks = {}
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
        lg = self.lg
        np.add(self.ages, t2c, lg)
        np.log(lg, lg)
        _fill_columns(self.f, self.cos, self.sin, lg, beta, omega, phi, self.sin)
        k = 4 if phi is None else 3
        design, rows, rows_t, product, coef, g, q, x = self.systems[k]
        np.dot(design, rows_t, out=product)
        try:
            ok = _ldlt(g, q, k, math.sqrt, x)
        except ZeroDivisionError:
            ok = False
        if not ok:
            return self._reject("collinear")
        a, b, d = x[0], x[1], x[2]
        if k == 4:
            sin_coef = 0.5 * x[3]          # the column holds f sin(psi) / 2
            d, phi = math.hypot(d, sin_coef), math.atan2(-sin_coef, d)
        if not _b_floor_ok(b, d, math.exp(max(beta, 0.0) * lg_max), self.b_floor):
            return self._reject("b_floor")
        # below the floor |b c f| <= |d| max(f) is negligible too
        c = d / b if abs(b) >= self.b_floor else 0.0
        r = self.r
        np.dot(coef, rows, out=r)          # [-1, x] [y; X] = X x - y
        sse = float(np.dot(r, r))
        if not math.isfinite(sse):
            return self._reject("overflow")
        return a, b, c, phi, sse

    def gauss_newton(self, beta: float, omega: float, t2c: float):
        """The Gauss-Newton system (J^T J, J^T e) of the phase-solved SSE
        at (beta, omega, t2c), as a (3, 3) and a (3,) array, or None where
        `solve` rejects the point.

        With the phase and the linear parameters projected out (variable
        projection: Golub & Pereyra 1973, with Kaufman's 1975 Jacobian),
        the residual e = yhat - y is a function of (beta, omega, t2c)
        alone. From `solve`'s buffers, with g = yhat - a and h = C2 f
        cos(psi) - C1 f sin(psi), the model's derivative rows are Z =
        [ln tau g; ln tau h; (beta g + omega h) / tau]. A gemm against
        [X; Z; e] gives Z X^T, and `_ldlt` M = (G^-1 X Z^T)^T with G =
        X X^T. The projected Jacobian is J = Z - M X, and a second gemm
        gives J^T J as J's Gram (Z Z^T - Z X^T G^-1 X Z^T in exact
        arithmetic) and J^T e = J e, exactly half the SSE's gradient. In
        exact arithmetic J e = Z e, as e is orthogonal to the design rows
        X. In floating point X e is the linear solve's rounding, and Z e =
        J e + M X e; near the beta -> 0 valley, where Z's beta row lies
        almost in the span of X and M is large, M X e outweighs the
        gradient's beta entry.
        """
        solved = self.solve(beta, omega, t2c)
        if solved is None:
            return None
        design, *_, gram, _, x = self.systems[4]
        a, c1, c2 = x[0], x[2], 0.5 * x[3]  # the sin row holds f sin(psi) / 2
        z, z_rows, product, m, mx, views = self.jacobian
        lg = self.lg
        g, h, d_t2c = z
        np.add(self.r, self.y, g)
        g -= a                             # g = yhat - a
        np.multiply(self.cos, c2, h)
        np.multiply(self.sin, 2.0 * c1, d_t2c)
        h -= d_t2c                         # h = C2 f cos(psi) - C1 f sin(psi)
        np.multiply(g, beta, d_t2c)
        np.multiply(h, omega, lg)
        d_t2c += lg
        np.add(self.ages, t2c, lg)         # tau
        d_t2c /= lg                        # (beta g + omega h) / tau
        np.log(lg, lg)
        g *= lg
        h *= lg
        np.dot(z, z_rows, out=product)
        for q, row in views:               # M, a row at a time
            _ldlt(gram, q, 4, math.sqrt, row)
        # J = Z - M X, whose Gram is PSD as computed; Z Z^T - Z X^T M^T,
        # the same in exact arithmetic, loses it to cancellation
        np.dot(m, design, out=mx)
        z -= mx
        np.dot(z, z_rows, out=product)
        jtj = product[:, 4:7]
        return 0.5 * (jtj + jtj.T), product[:, 7].copy()

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
        keeps the simplex, which no seed box bounds, well defined.
        """
        if phi is not None and not math.isfinite(phi):
            return math.inf
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
        evaluated in blocks of about _BLOCK_BYTES of design columns by
        `solve`'s helpers and, through numpy's stacked matmul, its BLAS
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
                lg_max = np.log(stack[:, 2] + self.age_max)
                ok &= 2.0 * stack[:, 0] * lg_max + self.log_n <= _EXP_MAX
            rows, stack, lg_max = rows[ok], stack[ok], lg_max[ok]
        if rows.size < _MIN_BLOCK:
            for i in rows.tolist():
                out[i] = self.rmse_at(*points[i].tolist())
            return out
        k = 3 if stack.shape[1] == 4 else 4
        blocks = -(-rows.size // self._block_rows(k))
        size = -(-rows.size // blocks)
        with np.errstate(all="ignore"):
            for start in range(0, rows.size, size):
                block = slice(start, start + size)
                out[rows[block]] = self._rmse_block(stack[block], lg_max[block])
        return out

    def _block_rows(self, k: int) -> int:
        """Rows per block of `rmse_many`: about _BLOCK_BYTES of k columns."""
        return max(_MIN_BLOCK, _BLOCK_BYTES // (8 * k * self.y.size))

    def _rmse_block(self, stack, lg_max) -> np.ndarray:
        """`solve` and `rmse` over a block of points that pass the domain
        checks and the overflow guard, +inf where a later rule rejects:
        `solve`'s helpers on (rows, n) arrays, with the rules as masks
        instead of early returns. Each design column is one contiguous
        plane of the block, so every elementwise pass of `_fill_columns`
        is one loop over the block (module docstring)."""
        beta, omega, t2c = stack[:, 0], stack[:, 1], stack[:, 2]
        phi = stack[:, 3, None] if stack.shape[1] == 4 else None
        k = 4 if phi is None else 3
        columns, lg, w, product, coef, resid = self._block_buffers(k)
        size = beta.size
        columns, lg, w = columns[:, :size], lg[:size], w[:size]
        product, coef, resid = product[:size], coef[:size], resid[:size]
        np.add(self.ages, t2c[:, None], lg)
        np.log(lg, lg)
        sin = columns[4] if k == 4 else None
        _fill_columns(columns[2], columns[3], sin, lg, beta[:, None],
                      omega[:, None], phi, w)
        # per row the same BLAS routines as `solve`'s np.dot calls (gemm
        # for [X^T y | Gram], gemv for the fit, dot for the SSE), so every
        # sum, and with it the value, is the same bit for bit; a row's
        # columns sit a plane apart, which BLAS takes as its leading
        # dimension
        rows = columns.transpose(1, 0, 2)
        design = rows[:, 1:]
        np.matmul(design, rows.transpose(0, 2, 1), product)
        p = product.transpose(1, 2, 0)
        ok = _ldlt(p[:, 1:], p[:, 0], k, np.sqrt, coef[:, 0, 1:].T)
        b, d = coef[:, 0, 2], coef[:, 0, 3]
        if k == 4:
            d = np.hypot(d, 0.5 * coef[:, 0, 4])
        ok &= _b_floor_ok(b, d, np.exp(beta * lg_max), self.b_floor)

        np.matmul(coef, rows, resid)
        sse = np.matmul(resid, resid.transpose(0, 2, 1))[:, 0, 0]
        ok &= np.isfinite(sse)
        return np.where(ok, np.sqrt(sse / self.n), np.inf)

    def _block_buffers(self, k: int) -> tuple:
        """`_rmse_block`'s buffers for k columns, held across calls so that
        a block's cost does not depend on the allocator: the rows y, 1 and
        the design columns as k + 1 contiguous planes of _block_rows(k)
        points by n (module docstring), then log gaps, w, [X^T y | Gram],
        coefficients and residuals per point."""
        buffers = self.blocks.get(k)
        if buffers is None:
            size, n = self._block_rows(k), self.y.size
            columns = np.empty((k + 1, size, n))
            columns[0] = self.y
            columns[1] = 1.0
            coef = np.empty((size, 1, k + 1))
            coef[:, 0, 0] = -1.0
            buffers = self.blocks[k] = (
                columns, np.empty((size, n)), np.empty((size, n)),
                np.empty((size, k, k + 1)), coef, np.empty((size, 1, n)))
        return buffers


def linear_solve(beta: float, omega: float, t2c: float, phi: float,
                 window: BubbleWindow) -> LinearParams:
    """Best (a, b, c) for fixed nonlinear parameters on a window.

    When |b| and |b*c| both fall below 1e-12 of the data scale, c is
    unidentifiable; it is reported as 0 with the `c_degenerate` flag set.
    A rank-deficient basis (e.g. beta = 0 makes the power column constant)
    raises DegeneracyError naming the collinear pair, and so does a point
    the kernel rejects for another cause. A non-finite parameter raises
    UsageError naming it.
    """
    if len(window) == 0:
        raise UsageError("empty window")
    for name, value in zip(("beta", "omega", "t2c", "phi"), (beta, omega, t2c, phi)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite (got {value})")
    solver = WindowSolver(window)
    if t2c + solver.ages.min() < 1.0:
        raise UsageError("all observations must be at least 1 day before tc")
    solved = solver.solve(float(beta), float(omega), float(t2c), float(phi))
    if solved is None:
        if solver.failure == "collinear":
            i, j = _most_collinear_pair(solver.systems[3][3][:, 1:])
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
    write_rows(path, ("date", "observed", "fitted"),
               zip(window.dates, window.values, fitted))
