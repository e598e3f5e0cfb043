"""Maximum-likelihood fitting of the blockmodel GLMs, and the outer loop
that every fit runs.

Every fit, here and in ``penalty``, is one Newton-type iteration,
``_outer_loop``: it owns the start evaluation, the Gram builds, the
step-halving line search on the exact objective, the counters and the
result, and its callers pass in what differs. IRLS (``_irls``, for
``fit_mle`` and the restricted fit of a path) passes a Cholesky solve of
the normal equations, no penalty (or the separation ridge), a test on
``LL_TOL`` with the score bound and the separation test, a new Gram at
every step, and a search that accepts a step at most 1e-13 (relative)
worse and gives up after 30 halvings (cause ``"no_progress"``).

The solver works on the design's own sum-to-zero columns, in its
indices. Each step builds X'WX over every column into the fit's one
buffer, and X'Wz (``DesignMatrix.gram``, which sums the working weights
per node pair and per block pair instead of forming a sparse product),
gathers the free columns' system when some column is held fixed, and
solves the normal equations by a direct Cholesky factorization, so a fit
is deterministic for a fixed input. The factorization is called from
LAPACK directly (``potrf`` and ``potrs`` on the upper triangle), with
the reciprocal condition number in the 1-norm estimated by ``pocon``.
The factorization and the 1-norm (``lange``) read the exactly symmetric
system through its transpose, the Fortran-ordered view of the C-ordered
array, so neither copies it: the factor is the only full-size array a
solve allocates. A second one would push the allocator's heap past its
trim threshold at every step, handing the memory back to the operating
system only to fault it in again. Inestimable columns, those with no
nonzero entry, are held at zero (``_free_columns``), and a design whose
other columns are linearly dependent is refused there, with one message
naming the dependent columns. One test decides it: the design's rank
certificate (``DesignMatrix.identification``), a pivoted Cholesky
factorization of its unit-weight X'X, computed once per design. The
only other refusal is the node column of a two-node design, which is
zero and so never reaches the certificate. A system that is not
positive definite, or whose condition estimate is below machine
epsilon (where ``scipy.linalg.solve(assume_a="pos")`` would raise or
warn), gets an escalating diagonal jitter and, as a last resort, a
least-squares solve;
these fallbacks and the line search's step halvings are counted in
``FitResult.diagnostics`` (``jitter_escalations``, ``lstsq_fallbacks``,
``step_halvings``), next to the work done (``gram_builds``,
``factorizations``). The solve hands back the Cholesky factor it
certified, unless it needed a jitter or the least-squares fallback, so
that the penalized solver can reuse it for the chord steps of one
penalty level (see ``penalty``). The mean and the log-likelihood kernel
at a linear predictor come from one evaluation (``_CellData.evaluate``),
which the line search, the score test and the next working weights
share; the Bernoulli mean and log-partition function are both evaluated
from ``exp(-|eta|)``, which cannot overflow.

The solver evaluates one term per design row (``design.encode`` groups
the dyads into rows) from the row's response total
(``DesignMatrix.row_sums``) and dyad count, which is 1 when the rows are
the dyads. X·beta and X'v come from the design's factors
(``DesignMatrix.predictor`` and ``DesignMatrix.xt``): no fit forms the
design matrix. Outputs stay per dyad: the log-likelihood and the
deviance, with the response-only terms (sum of log y!, the saturated
Poisson likelihood) computed once per fit over the distinct counts. A
fit keeps no per-dyad means: a reader that needs them evaluates
``design.predictor(fit.coefficients)``, as ``reduced.reduce_threshold``
does. At coefficients other
than a fit's own, the log-likelihood is the kernel of
``_CellData.evaluate`` at ``design.predictor(beta)`` minus
``_CellData.log_y_factorial``.

Quasi-separation is a realistic input for the Bernoulli family with node
effects (a node adjacent to everything, or to nothing, drives its effect
to infinity). When a coefficient passes 15 in magnitude while the
likelihood is still climbing, the fit restarts with a tiny ridge
(1e-8 on the squared coefficient norm), a warning is emitted, and the
result is flagged not-converged with cause ``"separation"``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dlange, dpocon, dpotrf, dpotrs

from .design import GROUP_BLOCK, GROUP_NODE, DesignMatrix, effect_levels
from .graphs import _write_csv, _write_json

__all__ = [
    "ConvergenceError",
    "FitResult",
    "fit_mle",
    "read_fit_json",
]

MAX_ITERATIONS = 100
LL_TOL = 1e-10
SCORE_TOL = 1e-6
SEPARATION_BOUND = 15.0
SEPARATION_RIDGE = 1e-8
WEIGHT_FLOOR = 1e-10
_EPS = float(np.finfo(np.float64).eps)


class ConvergenceError(RuntimeError):
    """A fit did not converge where a converged fit is required."""


def _validate_response(response, family: str, m: int) -> np.ndarray:
    y = np.asarray(response, dtype=np.float64)
    if y.shape != (m,):
        raise ValueError(f"response must have length {m}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    if family == "bernoulli_logit" and not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("Bernoulli responses must be 0 or 1")
    if family == "poisson_log" and (np.any(y < 0) or np.any(y != np.round(y))):
        raise ValueError("Poisson responses must be nonnegative integers")
    return y


def _logistic(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The logistic function of ``eta`` and ``e = exp(-|eta|)``, from
    which it is computed: nothing overflows."""
    e = np.abs(eta)
    np.exp(np.negative(e, out=e), out=e)
    mu = np.where(eta >= 0.0, 1.0, e)
    mu /= 1.0 + e
    return mu, e


class _CellData:
    """A response summed over the rows of its design.

    The dyads of one row share it, so every likelihood quantity is a
    row-weighted sum over rows with row totals ``y`` and dyad counts ``n``
    (1 when the rows are the dyads): the kernel ``sum(y*eta - n*A(eta))``,
    the working weights ``n * max(v(mu), WEIGHT_FLOOR)`` (the floor is per
    dyad) and the score ``X'(y - n*mu)``. The terms that depend on the response
    alone, sum(log y!) and the saturated kernel, are dyad-level constants
    (zero for Bernoulli), computed once over the distinct counts.
    """

    def __init__(self, design: DesignMatrix, response):
        self.design = design
        self.family = design.spec.family
        y = _validate_response(response, self.family, design.n_dyads)
        self.n = 1.0 if design.row_counts is None else design.row_counts
        self.y = design.row_sums(y)
        self.log_y_factorial = self.saturated = 0.0
        if self.family == "poisson_log":
            values, counts = np.unique(y, return_counts=True)
            self.log_y_factorial = float(counts @ [math.lgamma(v + 1.0) for v in values])
            # y log y, which is 0 at y = 0
            self.saturated = float(counts @ (values * np.log(np.maximum(values, 1.0)) - values))

    def evaluate(self, eta: np.ndarray) -> tuple[np.ndarray, float]:
        """The row means and the log-likelihood kernel at ``eta``, from one
        evaluation; callers pass the mean on to :meth:`working` and
        :meth:`score` instead of recomputing it."""
        kernel = self.y * eta
        if self.family == "bernoulli_logit":
            # the mean and the stable softplus log(1 + e^eta) (the formula
            # of np.logaddexp(0, eta)) from one exp(-|eta|), which the
            # softplus and then n times it overwrite
            mu, e = _logistic(eta)
            softplus = np.log1p(e, out=e)
            softplus += np.maximum(eta, 0.0)
            kernel -= np.multiply(self.n, softplus, out=softplus)
            return mu, float(kernel.sum())
        with np.errstate(over="ignore"):
            mu = np.exp(eta)
        kernel -= self.n * mu
        return mu, float(kernel.sum())

    def working(self, eta: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Working weights and working response of one IRLS step at
        ``eta``, whose row means are ``mu``."""
        variance = mu * (1.0 - mu) if self.family == "bernoulli_logit" else mu
        w = self.n * np.maximum(variance, WEIGHT_FLOOR)
        return w, eta + (self.y - self.n * mu) / w

    def score(self, mu: np.ndarray) -> np.ndarray:
        """The score X'(y - n*mu) over every column, for row means ``mu``."""
        return self.design.xt(self.y - self.n * mu)


def _step_counts() -> dict[str, int]:
    """Zeroed counters of the work of a fit, Gram builds and Cholesky
    factorizations (a jittered solve counts once), and of the numerical
    fallbacks it took; all are reported in ``FitResult.diagnostics``."""
    return {"gram_builds": 0, "factorizations": 0, "jitter_escalations": 0,
            "lstsq_fallbacks": 0, "step_halvings": 0}


def _solve_normal_equations(A: np.ndarray, rhs: np.ndarray,
                            fallbacks: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Cholesky solve of a positive semidefinite system (LAPACK potrf and
    potrs on the upper triangle). A system that is not positive definite,
    or whose 1-norm reciprocal condition estimate (pocon) is below the
    machine epsilon, gets an escalating diagonal jitter, up to seven
    times, then a least-squares solve; each is counted in ``fallbacks``.

    ``A`` must be exactly symmetric, as every Gram and every symmetric
    gather of one is: the factorization and the 1-norm (lange) read it
    through its transpose without a copy (see the module docstring).

    Returns the solution and the Cholesky factor of ``A`` itself, which
    passed the condition test and can solve further right-hand sides with
    ``potrs``; the factor is None when the solve needed a jitter or the
    least-squares fallback."""
    if not len(rhs):
        return np.zeros(0), None
    jitter = 0.0
    for attempt in range(8):
        if attempt:
            jitter = max(jitter * 100.0, 1e-10 * max(1.0, float(np.abs(A).max())))
            fallbacks["jitter_escalations"] += 1
        system = A if jitter == 0.0 else A + jitter * np.eye(A.shape[0])
        factor, info = dpotrf(system.T, clean=0)
        if info == 0:
            rcond, _ = dpocon(factor, float(dlange(b"1", system.T)))
            # written so that a NaN estimate also escalates
            if rcond >= _EPS:
                return dpotrs(factor, rhs)[0], (factor if jitter == 0.0 else None)
    fallbacks["lstsq_fallbacks"] += 1
    return np.linalg.lstsq(A, rhs, rcond=None)[0], None


def _free_columns(design: DesignMatrix) -> np.ndarray:
    """The mask of the columns that a fit estimates, all but the
    inestimable ones, which it holds at zero. Refuses a design whose
    other columns are linearly dependent, naming them from its rank
    certificate (``DesignMatrix.identification``)."""
    zero = [design.column_names[k] for k in design.group_indices(GROUP_NODE)
            if design.inestimable[k]]
    if zero:
        # only with two nodes: their one dyad holds the last node, whose
        # level is minus the sum of the others
        raise ValueError(f"node-effect column(s) {', '.join(zero)} cannot be estimated: every "
                         "dyad of the node also holds the last node, so the sum-to-zero node "
                         "effects cancel in its design row; node effects need at least three nodes")
    inestimable, rank, dependent = design.identification
    if dependent:
        # the first five columns named, the largest null-vector entries first
        raise ValueError(f"columns {', '.join(dependent[:5])} ({len(dependent)} in all; rank "
                         f"{rank} of {np.count_nonzero(~inestimable)}) are linearly dependent; "
                         "drop an effect or covariate among them, or merge one-node blocks")
    return ~inestimable


def _initial_beta(data: _CellData, cols: np.ndarray) -> np.ndarray:
    beta = np.zeros(data.design.n_columns)
    if not len(cols) or cols[0] != 0:  # no intercept
        return beta
    m = data.design.n_dyads
    mean = float(np.sum(data.y)) / m if m else 0.5
    if data.family == "bernoulli_logit":
        mean = min(max(mean, 1.0 / (m + 2.0)), 1.0 - 1.0 / (m + 2.0))
        beta[0] = float(np.log(mean / (1.0 - mean)))
    else:
        beta[0] = float(np.log(max(mean, 1.0 / (m + 2.0))))
    return beta


@dataclass(frozen=True)
class _LineSearch:
    """Step halving on the objective of an outer loop. A point is accepted
    when its objective is at most ``slack * (1 + |objective|)`` above the
    current one. After ``halvings`` halvings a search that found no such
    point either gives up, which stops the fit with cause
    ``"no_progress"``, or keeps its last point."""

    slack: float
    halvings: int
    give_up: bool


_IRLS_SEARCH = _LineSearch(slack=1e-13, halvings=30, give_up=True)


@dataclass
class _Solve:
    """The end of an outer loop: the coefficients with their
    log-likelihood kernel and score, and how the loop got there."""

    beta: np.ndarray
    kernel: float
    score: np.ndarray
    iterations: int
    converged: bool
    cause: str | None
    counts: dict[str, int]


def _outer_loop(data: _CellData, A: np.ndarray, beta: np.ndarray, *, penalty,
                working_solve, stop, search: _LineSearch, max_iter: int) -> _Solve:
    """The Newton-type outer iteration of every fit: the MLE, the restricted
    fit and each penalized fit differ only in what they pass in.

    Each step builds the Gram ``A, b`` of the working problem at the
    current coefficients ``x``, over every column and into the caller's
    buffer ``A``, unless the last call of ``stop`` asked to keep it: a
    chord step keeps ``A`` and takes the exact score ``grad`` here as its
    gradient, ``b = A x + grad``.
    ``working_solve(A, b, x, grad, counts)`` returns the new coefficients
    from a copy ``x`` of the current ones, which it may overwrite; ``grad``
    is None on a new Gram. The step is then halved
    under ``search`` on the objective ``penalty(beta) - loglik(beta)``.
    ``stop(beta, score, objective, change, halved, fresh)`` sees the
    accepted point with its score over every column, the objective and
    its change, whether the step was halved and whether it used a new
    Gram; it returns ``(stopped, cause, refresh)``, a stop with cause
    None being convergence. A loop that reaches
    ``max_iter`` steps stops with cause ``"max_iterations"``.
    """
    predictor, lyf = data.design.predictor, data.log_y_factorial
    eta = predictor(beta)
    mu, kernel = data.evaluate(eta)
    objective = penalty(beta) - (kernel - lyf)
    counts = _step_counts()
    score = None
    converged, fresh = False, True
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if fresh:
            b = data.design.gram(*data.working(eta, mu), A)
            counts["gram_builds"] += 1
            grad = None
        else:
            # a chord step: the kept Gram with the exact score here
            grad = score
            b = A @ beta + grad
        candidate = working_solve(A, b, beta.copy(), grad, counts)

        for halvings in range(search.halvings + 1):
            if halvings:
                candidate = 0.5 * (beta + candidate)
                counts["step_halvings"] += 1
            eta_try = predictor(candidate)
            mu_try, kernel_try = data.evaluate(eta_try)
            obj_try = penalty(candidate) - (kernel_try - lyf)
            accepted = obj_try <= objective + search.slack * (1.0 + abs(objective))
            if accepted:
                break
        if not accepted and search.give_up:
            cause = "no_progress"
            break

        change = obj_try - objective
        beta, eta, mu, kernel, objective = candidate, eta_try, mu_try, kernel_try, obj_try
        score = data.score(mu)
        stopped, cause, fresh = stop(beta, score, objective, change, halvings > 0, fresh)
        if stopped:
            converged = cause is None
            break
    else:
        cause = "max_iterations"

    return _Solve(beta=beta, kernel=kernel,
                  score=data.score(mu) if score is None else score, iterations=iteration,
                  converged=converged, cause=cause, counts=counts)


def _irls(data: _CellData, A: np.ndarray, cols: np.ndarray, score_bound: float, *,
          ridge: float = 0.0, max_iter: int) -> _Solve:
    """IRLS on the columns ``cols`` (the others stay at zero) from the
    intercept-only start, in the Gram buffer ``A``, through
    :func:`_outer_loop` (see the module docstring). It converges when the
    log-likelihood changes by at most ``LL_TOL`` (relative) and the score
    over ``cols`` is within ``score_bound``."""
    separable = ridge == 0.0 and data.family == "bernoulli_logit"
    fixed = len(cols) < data.design.n_columns

    def working_solve(A, b, x, grad, counts):
        if fixed:  # gathered in one pass, C-ordered, as the solve reads it
            A, b = A[cols[:, None], cols], b[cols]
        if ridge:
            A[np.diag_indices_from(A)] += 2.0 * ridge
        counts["factorizations"] += 1
        x[cols] = _solve_normal_equations(A, b, counts)[0]
        return x

    def stop(beta, score, objective, change, halved, fresh):
        # ``change`` is that of -loglik (plus the ridge), so a climbing
        # likelihood has change < 0
        if (separable and float(np.abs(beta).max(initial=0.0)) > SEPARATION_BOUND
                and -change > 1e-8 * (1.0 + abs(objective))):
            return True, "separation", True
        score_max = float(np.abs(score[cols] - 2.0 * ridge * beta[cols]).max(initial=0.0))
        converged = abs(change) <= LL_TOL * (1.0 + abs(objective)) and score_max <= score_bound
        return converged, None, True

    return _outer_loop(data, A, _initial_beta(data, cols),
                       penalty=lambda beta: ridge * float(beta @ beta),
                       working_solve=working_solve, stop=stop, search=_IRLS_SEARCH,
                       max_iter=max_iter)


@dataclass
class FitResult:
    """A fitted model: named coefficients plus derived quantities.

    ``block_interactions`` is the full symmetric block-interaction matrix
    with the constrained diagonal filled in (every row sums to zero).
    """

    family: str
    column_names: tuple[str, ...]
    coefficients: np.ndarray
    log_likelihood: float
    deviance: float
    converged: bool
    iterations: int
    block_interactions: np.ndarray
    block_labels: tuple[str, ...]
    node_ids: tuple[str, ...]
    groups: tuple[str, ...]
    diagnostics: dict = field(default_factory=dict)

    @property
    def block_count(self) -> int:
        return len(self.block_labels)

    def coefficient(self, name: str) -> float:
        try:
            return float(self.coefficients[self.column_names.index(name)])
        except ValueError:
            raise KeyError(f"no coefficient named {name!r}") from None

    def named_coefficients(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.column_names, self.coefficients)}

    def node_effect_values(self) -> dict[str, float]:
        """Full node-effect vector keyed by node id (sums to zero)."""
        values = effect_levels(self.coefficients[np.array(self.groups) == GROUP_NODE])
        return {node: float(v) for node, v in zip(self.node_ids, values)}

    def block_effect_values(self) -> dict[str, float]:
        values = effect_levels(self.coefficients[np.array(self.groups) == GROUP_BLOCK])
        return {label: float(v) for label, v in zip(self.block_labels, values)}

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "column_names": list(self.column_names),
            "coefficients": self.named_coefficients(),
            "log_likelihood": self.log_likelihood,
            "deviance": self.deviance,
            "converged": self.converged,
            "iterations": self.iterations,
            "block_labels": list(self.block_labels),
            "node_ids": list(self.node_ids),
            "groups": list(self.groups),
            "block_interactions": [[float(v) for v in row] for row in self.block_interactions],
            "node_effect_values": self.node_effect_values(),
            "block_effect_values": self.block_effect_values(),
            "diagnostics": _json_safe(self.diagnostics),
        }

    def write_json(self, path) -> None:
        _write_json(path, self.to_json_dict())

    def write_coefficients_csv(self, path) -> None:
        rows = [(name, repr(float(value)))
                for name, value in zip(self.column_names, self.coefficients)]
        _write_csv(path, [("name", "value"), *rows])

    @classmethod
    def from_json_dict(cls, data: dict) -> "FitResult":
        """The fit that :meth:`to_json_dict` wrote; a malformed document raises a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"a fit document must be a JSON object, got {type(data).__name__}")
        try:
            names = tuple(data.get("column_names") or data["coefficients"])
            return cls(family=data["family"], column_names=names,
                       coefficients=np.array([data["coefficients"][k] for k in names]),
                       log_likelihood=float(data["log_likelihood"]),
                       deviance=float(data["deviance"]), converged=bool(data["converged"]),
                       iterations=int(data["iterations"]),
                       block_interactions=np.array(data["block_interactions"], dtype=np.float64),
                       block_labels=tuple(data["block_labels"]), node_ids=tuple(data["node_ids"]),
                       groups=tuple(data["groups"]), diagnostics=dict(data.get("diagnostics", {})))
        except KeyError as exc:
            raise ValueError(f"the fit document has no key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"the fit document holds a value of the wrong type: {exc}") from None


def _json_safe(value):
    """``value`` with numpy scalars and arrays made plain, and every
    non-finite float written as the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, which standard JSON can hold."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return "nan" if np.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def read_fit_json(path) -> FitResult:
    """The fit in the JSON file ``path``; a malformed one raises a ValueError naming it."""
    try:
        return FitResult.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def assemble_fit(data: _CellData, solve: _Solve, diagnostics: dict) -> FitResult:
    """Build a :class:`FitResult` from the end of an outer loop; the
    diagnostics gain the loop's counters and its cause."""
    design = data.design
    diagnostics = {**diagnostics, **solve.counts}
    if solve.cause:
        diagnostics["cause"] = solve.cause
    diagnostics.setdefault("fixed_zero", [design.column_names[k]
                                          for k in np.flatnonzero(design.inestimable)])
    return FitResult(
        family=data.family,
        column_names=design.column_names,
        coefficients=np.asarray(solve.beta, dtype=np.float64),
        log_likelihood=solve.kernel - data.log_y_factorial,
        deviance=2.0 * (data.saturated - solve.kernel),
        converged=solve.converged,
        iterations=solve.iterations,
        block_interactions=design.interaction_matrix(solve.beta),
        block_labels=design.block_labels,
        node_ids=design.node_ids,
        groups=design.groups,
        diagnostics=diagnostics,
    )


def fit_mle(design: DesignMatrix, response) -> FitResult:
    """Maximum-likelihood fit by IRLS with step halving.

    A converged result satisfies the score condition
    ``max|X'(y - fitted)| <= 1e-6 * (1 + max|X'y|)``. Non-convergence is
    reported through ``converged``/``diagnostics``, not an exception.
    """
    data = _CellData(design, response)
    cols = np.flatnonzero(_free_columns(design))
    A = np.empty((design.n_columns,) * 2)
    score_bound = SCORE_TOL * (1.0 + float(np.abs(design.xt(data.y)[cols]).max(initial=0.0)))
    result = _irls(data, A, cols, score_bound, max_iter=MAX_ITERATIONS)
    separated = result.cause == "separation"
    if separated:
        warnings.warn(
            "quasi-separation detected (a coefficient passed "
            f"{SEPARATION_BOUND:g} with the likelihood still climbing); "
            f"refitting with ridge {SEPARATION_RIDGE:g} on the squared norm",
            RuntimeWarning,
            stacklevel=2,
        )
        stabilized = _irls(data, A, cols, score_bound, ridge=SEPARATION_RIDGE,
                           max_iter=MAX_ITERATIONS)
        counts = {k: v + stabilized.counts[k] for k, v in result.counts.items()}
        result = replace(stabilized, iterations=result.iterations + stabilized.iterations,
                         converged=False, cause="separation", counts=counts)

    score_max = float(np.abs(result.score[cols]).max(initial=0.0))
    return assemble_fit(data, result, {"score_max": score_max, "score_bound": score_bound,
                                       "ridge": SEPARATION_RIDGE if separated else 0.0})
