"""Adaptive-lasso penalized estimation over a regularization path.

Two functions fit: :func:`lambda_path` fits a decreasing penalty grid,
whose first point is the restricted fit (every penalized column at
zero) at the top penalty ``lambda_max``, so that
``lambda_path(..., grid_size=1)`` returns those two alone;
:func:`select` picks the BIC minimizer of a path, or the fit at a given
penalty, refitting exactly at a penalty off the grid from the nearest
grid point (as Friedman, Hastie & Tibshirani 2010 do). One penalty level
is ``select(lambda_path(..., grid_size=1), fixed_lambda=lam)``: below
``lambda_max`` it is solved from the restricted fit.

The penalized objective is ``-loglik(beta) + lam * sum_j w_j |beta_j|``
over the penalized columns (block interactions, plus covariates when the
model spec asks for it); the intercept and node/block effects are never
shrunk and are refit without penalty at every grid point. Weights come
from a converged reference fit as ``w_j = |ref_j| ** -gamma_w``; a
reference coefficient below 1e-10 in magnitude gets an infinite weight,
freezing that coefficient at zero. A weight of zero on a penalized
column is refused before any fit.

Solver: penalized IRLS on the rows of the design (the dyads grouped by
identical design row, weighted by their count; see ``glm``; with node
effects every dyad is its own row), over the design's own columns and in
its indices, with one X'WX buffer that the restricted fit shares; fixed
columns (inestimable or infinitely weighted) stay at zero. It runs
the outer loop of ``glm`` (``_outer_loop``), as the
restricted fit does through ``glm._irls``, and passes in the working
solve below, the penalty term, the KKT stopping test with its refresh
rule, and a line search that accepts a step at most 1e-9 (relative)
worse and keeps its last point after 10 halvings; a solve stops after
``MAX_OUTER`` (200) steps. Each outer step solves a working problem on
a Gram matrix A = X'WX and b in covariance mode (Friedman, Hastie &
Tibshirani 2010, J. Stat. Softw. 33(1), section 2.2): cyclic
coordinate-descent soft-thresholding over the penalized columns (fixed
column order) keeps
the gradient b - A beta current with one row of A per move, and a
sign-restricted direct solve on A over the unpenalized block plus the
current active set polishes the smooth part to machine precision. A
step's first pass visits only the inactive columns whose gradient
exceeds their threshold, the only ones that can enter; after each
polish a vectorized soft threshold over all penalized columns decides
whether a full pass is needed. Zeros
are produced only by the soft threshold or by explicit clipping at a
zero crossing, so they are exact and downstream sign counts need no
cutoff. Convergence is declared on the exact-likelihood KKT conditions:
``score_j = lam * w_j * sign(beta_j)`` for active penalized columns,
``|score_j| <= lam * w_j`` for inactive ones, and ``score_j = 0`` for
unpenalized columns, all within ``KKT_TOL`` (1e-6); a solve whose KKT
violation fails to fall by 1% over 15 steps stops with cause
``"stalled"``. Reported log-likelihoods and BIC values (with
``log(#dyads)``) are per dyad.

Chord steps: the outer steps of one solve are simplified-Newton steps
(proximal Newton with an inexact Hessian; Lee, Sun & Saunders 2014,
SIAM J. Optim. 24(3)). The first step builds A and b = X'Wz at the
start; later steps keep A and take the exact score at the current
coefficients as their gradient (b = A x + score; the score is the one
the KKT test computed). The Cholesky factor of the polish system is
kept with its selection and reused while A and the active set stay;
the solver keeps one factor, and only one that passed the condition
test without jitter. The refresh rule is
fixed: a new Gram after a step that halved, and after a chord step that
cut the KKT violation less than tenfold. Each fit reports its Gram
builds and factorizations in ``diagnostics`` (``gram_builds``,
``factorizations``), and its outer steps, chord steps included, as
``iterations``. The mean and log-likelihood at each linear predictor
are evaluated once and shared by the line search, the KKT test, the
next working weights and the chord gradient.

The fits of a path are assembled from the solver's last evaluation, and
report the fallback counts of their solve as ``fit_mle`` does.

Path following: from the third grid point on, each point starts from a
first-order predictor (Park & Hastie 2007, JRSS-B 69(4)), the linear
extrapolation in lambda through the fits at the two previous points. A
penalized coefficient that is zero at the previous point, or whose sign
the extrapolation would change, starts at zero; unpenalized coefficients
are extrapolated freely. The start only sets where the outer loop
begins: convergence is still declared on the exact KKT conditions
above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrs

from .design import DesignMatrix
from .glm import (
    ConvergenceError,
    FitResult,
    _CellData,
    _free_columns,
    _irls,
    _LineSearch,
    _outer_loop,
    _Solve,
    _solve_normal_equations,
    assemble_fit,
)
from .graphs import _write_csv

__all__ = [
    "PenaltySpec",
    "PathResult",
    "adaptive_weights",
    "lambda_path",
    "select",
]

ZERO_REFERENCE = 1e-10
KKT_TOL = 1e-6
MAX_OUTER = 200
# re-solves of one polish after a coefficient is stopped at zero
MAX_DROPS = 12
# a step that raises the objective is halved up to ten times, and the
# last point is kept; the KKT test then decides
_PATH_SEARCH = _LineSearch(slack=1e-9, halvings=10, give_up=False)


def _check_lambda(lam: float) -> None:
    # an infinite penalty times a zero weight is NaN
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")


@dataclass
class PenaltySpec:
    """Tuning choices for the penalized path."""

    gamma_w: float = 1.0
    grid_size: int = 100
    grid_ratio: float = 1e-4
    fixed_lambda: float | None = None

    def __post_init__(self):
        if not self.gamma_w > 0:
            raise ValueError("gamma_w must be positive")
        if self.grid_size < 1:
            raise ValueError("grid_size must be at least 1")
        if not 0.0 < self.grid_ratio < 1.0:
            raise ValueError("grid_ratio must be in (0, 1)")
        if self.fixed_lambda is not None:
            _check_lambda(self.fixed_lambda)


def adaptive_weights(reference: FitResult, mask, gamma_w: float = 1.0) -> np.ndarray:
    """Per-column penalty weights from a converged reference fit.

    Returns a full-length vector: 0 on unpenalized columns, and
    ``|ref_j| ** -gamma_w`` on masked columns, with +inf where the
    reference coefficient is below 1e-10 in magnitude (the coefficient
    is then fixed at zero). A ``gamma_w`` under which the weight of a
    reference at or above 1e-10 underflows to 0 or overflows to inf is
    refused with a ``ValueError`` that names the columns.
    """
    if gamma_w <= 0:
        raise ValueError("gamma_w must be positive")
    if not reference.converged:
        raise ConvergenceError("reference fit has not converged; refusing to derive weights")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != reference.coefficients.shape:
        raise ValueError("mask length does not match the reference coefficients")
    weights = np.zeros(len(mask))
    ref = np.abs(reference.coefficients[mask])
    values = np.full(ref.shape, np.inf)
    estimable = ref >= ZERO_REFERENCE
    with np.errstate(over="ignore"):
        values[estimable] = ref[estimable] ** (-gamma_w)
    unusable = estimable & ~((values > 0.0) & (values < np.inf))
    if unusable.any():
        names = ", ".join(np.asarray(reference.column_names)[mask][unusable])
        raise ValueError(f"gamma_w={gamma_w:g} makes the penalty weight of column(s) {names} "
                         "underflow to 0 or overflow to inf; use a smaller gamma_w")
    weights[mask] = values
    return weights


class _PenalizedSolver:
    """Shared machinery for one (design, response, weights) problem."""

    def __init__(self, design: DesignMatrix, response, weights):
        self.design = design
        self.data = _CellData(design, response)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (design.n_columns,):
            raise ValueError(f"weights must have length {design.n_columns}")
        if np.any(weights < 0) or np.any(np.isnan(weights)):
            raise ValueError("penalty weights must be nonnegative")
        if np.any((weights > 0) & ~design.penalized_mask):
            raise ValueError("positive penalty weight on an unpenalized column")
        unweighted = np.flatnonzero((weights == 0) & design.penalized_mask)
        if len(unweighted):
            names = ", ".join(design.column_names[k] for k in unweighted)
            raise ValueError(f"zero penalty weight on penalized column(s) {names}; "
                             "a penalized weight must be positive, or inf to hold it at zero")
        # fixed columns, inestimable or infinitely weighted, are never
        # selected and get no threshold
        free = _free_columns(design) & ~np.isinf(weights)
        self.fixed_idx = np.flatnonzero(~free)
        self.pen_idx = np.flatnonzero(free & design.penalized_mask)
        self.unpen_idx = np.flatnonzero(free & ~design.penalized_mask)
        self.pen_weights = weights[self.pen_idx]
        # X'WX over every column, which the restricted fit and each solve
        # build into
        self.gram = np.empty((design.n_columns,) * 2)
        # the one Cholesky factor kept, (selection key, factor), made from
        # the current Gram of ``solve`` without jitter
        self._factor: tuple[bytes, np.ndarray] | None = None

    # -- penalized objective and optimality ------------------------------

    def _score(self, beta: np.ndarray) -> np.ndarray:
        return self.data.score(self.data.evaluate(self.design.predictor(beta))[0])

    def penalty(self, beta: np.ndarray, lam: float) -> float:
        return lam * float((self.pen_weights * np.abs(beta[self.pen_idx])).sum())

    def kkt_violation(self, beta: np.ndarray, lam: float, score=None) -> float:
        """Largest KKT violation at ``beta``; ``score`` is the score
        there when the caller has it."""
        score = self._score(beta) if score is None else score
        b = beta[self.pen_idx]
        bound = lam * self.pen_weights
        # |s - bound| at an active b > 0, |s + bound| at b < 0, and
        # |s| - bound at b = 0, which counts only where positive
        gaps = np.abs(score[self.pen_idx] - bound * np.sign(b))
        gaps -= bound * (b == 0.0)
        return max(float(np.abs(score[self.unpen_idx]).max(initial=0.0)),
                   float(gaps.max(initial=0.0)))

    # -- working problem in covariance mode --------------------------------

    def _coordinate_pass(self, A, x, grad, thresholds, columns) -> None:
        """One cyclic soft-thresholding pass over ``columns`` of ``x``,
        keeping the gradient ``grad = b - Ax`` current with one row of A
        per move (both in place)."""
        for k in columns:
            old, diag, t = x[k], A[k, k], thresholds[k]
            u = grad[k] + diag * old
            target = (u - t if u > t else u + t if u < -t else 0.0) / diag
            if target != old:
                grad -= A[k] * (target - old)
                x[k] = target

    def _largest_move(self, A, x, grad, thresholds) -> float:
        """Largest score-unit move that a coordinate pass would start with
        at ``x``, from a vectorized soft threshold of every penalized
        column; nothing is moved."""
        pen = self.pen_idx
        diag, x_pen = A[pen, pen], x[pen]
        u = grad[pen] + diag * x_pen
        target = np.sign(u) * np.maximum(np.abs(u) - thresholds[pen], 0.0) / diag
        return float((np.abs(target - x_pen) * diag).max(initial=0.0))

    def _factored_solve(self, A, rhs, sel, counts: dict) -> np.ndarray:
        """Solve ``A[sel, sel] y = rhs``, reusing the kept Cholesky factor
        when it was made for the same ``sel`` of the same Gram. A new
        factor replaces it only when it passed the condition test without
        jitter, so a reused factor is always a certified one."""
        key = sel.tobytes()
        if self._factor is not None and self._factor[0] == key:
            return dpotrs(self._factor[1], rhs)[0]
        counts["factorizations"] += 1
        # gathered in one pass, C-ordered, as the solve reads it without a copy
        y, factor = _solve_normal_equations(A[sel[:, None], sel], rhs, counts)
        if factor is not None:
            self._factor = (key, factor)
        return y

    def _polish_active_set(self, A, b, x, grad, thresholds, counts: dict) -> None:
        """Sign-restricted direct solve over the unpenalized block plus
        the active penalized columns, updating ``x`` and ``grad`` in
        place.

        The normal equations on ``A[sel, sel]`` carry the L1 subgradient
        on their right-hand side, landing the active coefficients on the
        exact optimum for their current sign pattern. A coefficient that
        would cross zero is stopped exactly at zero (the step is a
        descent direction of the convex working objective, so partial
        steps are safe) and the system is re-solved without it, up to
        ``MAX_DROPS`` times.
        """
        for _ in range(MAX_DROPS):
            sel = np.concatenate([self.unpen_idx, self.pen_idx[x[self.pen_idx] != 0.0]])
            if len(sel) == 0:
                return
            old = x[sel]
            signs = np.sign(old)
            signs[: len(self.unpen_idx)] = 0.0
            new = self._factored_solve(A, b[sel] - thresholds[sel] * signs, sel, counts)
            flips = (signs != 0.0) & (np.sign(new) != signs)
            if not flips.any():
                x[sel] = new
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                crossings = np.where(flips, old / (old - new), np.inf)
            t_star = min(float(crossings.min()), 1.0)
            stepped = old + t_star * (new - old)
            stepped[flips & (crossings <= t_star)] = 0.0
            x[sel] = stepped
        grad[:] = b - A @ x

    def _solve_working(self, A, b, x, grad, thresholds, counts: dict) -> None:
        """Solve the working problem on (A, b) from ``x`` (in place) to a
        fraction of the exact KKT tolerance; the outer loop checks the
        exact conditions.

        The first coordinate pass visits only the inactive penalized
        columns whose gradient passes their threshold, the only ones that
        can enter; the polish then solves the active set. Full passes run
        only while a vectorized soft threshold finds a score-significant
        move left. Zeros produced here are exact.
        """
        pen = self.pen_idx
        entering = pen[(x[pen] == 0.0) & (np.abs(grad[pen]) > thresholds[pen])]
        self._coordinate_pass(A, x, grad, thresholds, entering)
        for _ in range(40):
            self._polish_active_set(A, b, x, grad, thresholds, counts)
            if self._largest_move(A, x, grad, thresholds) <= 0.05 * KKT_TOL:
                break
            self._coordinate_pass(A, x, grad, thresholds, pen)

    # -- main solve -------------------------------------------------------

    def solve(self, lam: float, beta_start: np.ndarray) -> FitResult:
        """The fit at ``lam`` by penalized IRLS with chord steps from
        ``beta_start``, through ``glm._outer_loop`` (see the module
        docstring)."""
        _check_lambda(lam)
        thresholds = np.zeros(self.design.n_columns)
        thresholds[self.pen_idx] = lam * self.pen_weights
        beta = np.array(beta_start, dtype=np.float64)
        beta[self.fixed_idx] = 0.0
        kkt = best_kkt = np.inf
        stale = 0

        def working_solve(A, b, x, grad, counts):
            if grad is None:  # a new Gram: the kept factor is stale
                self._factor = None
                grad = b - A @ x
            self._solve_working(A, b, x, grad, thresholds, counts)
            return x

        def stop(beta, score, objective, change, halved, fresh):
            nonlocal kkt, best_kkt, stale
            kkt_prev, kkt = kkt, self.kkt_violation(beta, lam, score)
            if kkt <= KKT_TOL and not halved and abs(change) <= 1e-10 * (1.0 + abs(objective)):
                return True, None, True
            if kkt < 0.99 * best_kkt:
                best_kkt = kkt
                stale = 0
            else:
                stale += 1
                if stale >= 15:
                    return True, "stalled", True
            # refresh rule: a new Gram after a halved step, or after a chord
            # step that cut the KKT violation less than tenfold
            return False, None, halved or (not fresh and kkt > 0.1 * kkt_prev)

        solve = _outer_loop(self.data, self.gram, beta,
                            penalty=lambda beta: self.penalty(beta, lam),
                            working_solve=working_solve, stop=stop, search=_PATH_SEARCH,
                            max_iter=MAX_OUTER)
        # every step ends in ``stop``, so ``kkt`` is that of the last point
        return self.assemble(solve, lam, kkt)

    def assemble(self, solve: _Solve, lam: float, kkt: float | None = None) -> FitResult:
        """The fit at ``lam`` that ``solve`` (or the restricted fit, at
        ``lam >= lambda_max``) ended in, with ``kkt`` its KKT violation
        when the caller has it."""
        if kkt is None:
            kkt = self.kkt_violation(solve.beta, lam, solve.score)
        active = int(np.count_nonzero(solve.beta[self.pen_idx]))
        diagnostics = {"lambda": float(lam), "kkt_max": float(kkt), "kkt_tol": KKT_TOL,
                       "active_set_size": active, "df": active + len(self.unpen_idx)}
        return assemble_fit(self.data, solve, diagnostics)


@dataclass
class PathResult:
    """Fits along a decreasing penalty grid with their BIC bookkeeping."""

    lambdas: np.ndarray
    fits: list[FitResult]
    dfs: np.ndarray
    bics: np.ndarray
    selected_index: int | None = None
    _solver: "_PenalizedSolver | None" = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.fits)

    def write_csv(self, path) -> None:
        """One row per grid point, with the convergence diagnostics that
        say how far to trust it: outer iterations, the KKT violation
        reached, whether it converged and, if not, why."""
        header = ("lambda", "df", "log_likelihood", "bic", "active_set_size",
                  "outer_iterations", "kkt_max", "converged", "cause")
        rows = [(
            repr(float(lam)),
            int(df),
            repr(float(fit.log_likelihood)),
            repr(float(bic)),
            int(fit.diagnostics.get("active_set_size", 0)),
            int(fit.iterations),
            repr(float(fit.diagnostics["kkt_max"])),
            "true" if fit.converged else "false",
            fit.diagnostics.get("cause", ""),
        ) for lam, df, fit, bic in zip(self.lambdas, self.dfs, self.fits, self.bics)]
        _write_csv(path, [header, *rows])


def _bic(fit: FitResult, df: int, m: int) -> float:
    return -2.0 * fit.log_likelihood + df * float(np.log(m))


def _predicted_start(beta: np.ndarray, beta_prev: np.ndarray, step: float,
                     penalized: np.ndarray) -> np.ndarray:
    """First-order predictor of the next grid point's coefficients: the
    line through the last two points, ``beta + step * (beta - beta_prev)``
    with ``step`` the ratio of the two penalty decrements. A penalized
    coefficient that is zero in ``beta``, or whose sign would change,
    starts at zero; the active set is left to the solver."""
    start = beta + step * (beta - beta_prev)
    start[penalized & (np.sign(start) != np.sign(beta))] = 0.0
    return start


def lambda_path(design: DesignMatrix, response, weights, grid_size: int = 100,
                grid_ratio: float = 1e-4) -> PathResult:
    """Fit the penalized model along a log-spaced penalty grid.

    ``weights`` is the full-length vector of :func:`adaptive_weights`:
    positive, or inf to hold a column at zero, on the penalized columns
    and 0 on the others. The grid runs from ``lambda_max`` (the smallest penalty at which
    every finitely-weighted penalized coefficient is zero, computed from
    the score of the unpenalized-columns-only fit) down to
    ``lambda_max * grid_ratio``. The top-of-grid point reuses the
    restricted fit directly, which keeps its penalized coefficients
    exactly zero. The next point starts from the restricted fit, and
    every later one from the predictor
    ``beta_k + (lam_{k+1} - lam_k) / (lam_k - lam_{k-1}) * (beta_k - beta_{k-1})``
    (linear in lambda), with penalized coefficients that are zero in
    ``beta_k`` or would change sign started at zero. A BIC value
    ``-2*loglik + df*log(#dyads)`` is recorded per grid point.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if not 0.0 < grid_ratio < 1.0:
        raise ValueError("grid_ratio must be in (0, 1)")
    solver = _PenalizedSolver(design, response, weights)
    m = design.n_dyads

    # the fit with every penalized column at zero, the top point
    restricted = _irls(solver.data, solver.gram, solver.unpen_idx, KKT_TOL, max_iter=MAX_OUTER)
    if not len(solver.pen_idx):
        warnings.warn("all penalized weights are infinite; the path degenerates to "
                      "the unpenalized fit", RuntimeWarning, stacklevel=2)
    # the restricted fit's score is over every column
    score = np.abs(restricted.score[solver.pen_idx])
    lam_max = float((score / solver.pen_weights).max(initial=0.0))
    if lam_max <= 0.0:
        fit = solver.assemble(restricted, 0.0)
        df = len(solver.unpen_idx)
        return PathResult(lambdas=np.array([0.0]), fits=[fit],
                          dfs=np.array([df]), bics=np.array([_bic(fit, df, m)]),
                          _solver=solver)

    if grid_size == 1:
        lambdas = np.array([lam_max])
    else:
        lambdas = lam_max * grid_ratio ** (np.arange(grid_size) / (grid_size - 1))

    fits = [solver.assemble(restricted, lam_max)]
    for k in range(1, len(lambdas)):
        start = fits[-1].coefficients
        if k >= 2:
            step = (lambdas[k] - lambdas[k - 1]) / (lambdas[k - 1] - lambdas[k - 2])
            start = _predicted_start(start, fits[-2].coefficients, step, design.penalized_mask)
        fits.append(solver.solve(float(lambdas[k]), start))

    dfs = np.array([fit.diagnostics["df"] for fit in fits])
    bics = np.array([_bic(fit, int(df), m) for fit, df in zip(fits, dfs)])
    return PathResult(lambdas=lambdas, fits=fits, dfs=dfs, bics=bics, _solver=solver)


def select(path: PathResult, fixed_lambda: float | None = None) -> FitResult:
    """Pick a fit from the path.

    Without ``fixed_lambda`` it returns the BIC minimizer among the
    converged fits, breaking ties toward the larger (sparser) penalty; it
    warns when it skips unconverged fits and raises
    :class:`ConvergenceError` when none has converged. With
    ``fixed_lambda`` it returns the grid point at that penalty, refitting
    at exactly that penalty when it is off the grid.
    """
    if len(path) == 0:
        raise ValueError("empty path")
    if fixed_lambda is None:
        candidates = [k for k, fit in enumerate(path.fits) if fit.converged]
        if not candidates:
            raise ConvergenceError("no point of the path has converged; "
                                   "BIC selection has nothing to choose from")
        skipped = len(path) - len(candidates)
        if skipped:
            warnings.warn(f"BIC selection skipped {skipped} unconverged path point(s)",
                          RuntimeWarning, stacklevel=2)
        best = candidates[0]
        for k in candidates[1:]:
            if path.bics[k] < path.bics[best]:
                best = k
        path.selected_index = best
        return path.fits[best]
    lam = float(fixed_lambda)
    matches = np.flatnonzero(np.isclose(path.lambdas, lam, rtol=1e-12, atol=0.0))
    if len(matches):
        path.selected_index = int(matches[0])
        return path.fits[path.selected_index]
    if path._solver is None:
        raise ValueError("path cannot refit off-grid penalties")
    nearest = int(np.argmin(np.abs(path.lambdas - lam)))
    path.selected_index = None
    return path._solver.solve(lam, path.fits[nearest].coefficients)
