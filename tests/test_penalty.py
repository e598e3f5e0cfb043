import csv
import re
import warnings
from functools import cached_property

import numpy as np
import pytest

import blocklasso as bl
from blocklasso import penalty
from blocklasso.design import GROUP_INTERACTION, DesignMatrix
from blocklasso.glm import ConvergenceError, _step_counts
from blocklasso.penalty import _PenalizedSolver

from helpers import bernoulli_instance, poisson_instance, unit_weights
from oracles import naive_log_likelihood


def path_top(design, response, weights):
    """The top penalty of the path and the coefficients of the restricted
    fit there: the one point of a one-point path."""
    path = bl.lambda_path(design, response, weights=weights, grid_size=1)
    return float(path.lambdas[0]), path.fits[0].coefficients


def fit_at(design, response, weights, lam):
    """The fit at the one penalty ``lam``: the top point of a one-point
    path, refit at ``lam`` when it is not that point's penalty."""
    path = bl.lambda_path(design, response, weights, grid_size=1)
    return bl.select(path, fixed_lambda=lam)


def soft_threshold(x, t):
    """The scalar soft threshold, a reference for the solver's moves."""
    return x - t if x > t else x + t if x < -t else 0.0


def kkt_violation(design, response, family, weights, lam, fit):
    """Exact-likelihood KKT gap computed outside the solver."""
    y = np.asarray(response, dtype=float)
    eta = design.matrix @ fit.coefficients
    mu = 1.0 / (1.0 + np.exp(-eta)) if family == "bernoulli_logit" else np.exp(eta)
    score = design.matrix.T @ (y - mu)
    worst = 0.0
    for j in range(design.n_columns):
        if design.inestimable[j]:
            continue
        w = weights[j]
        if not design.penalized_mask[j]:
            worst = max(worst, abs(score[j]))
        elif np.isinf(w):
            continue
        elif fit.coefficients[j] != 0.0:
            worst = max(worst, abs(score[j] - lam * w * np.sign(fit.coefficients[j])))
        else:
            worst = max(worst, max(0.0, abs(score[j]) - lam * w))
    return worst


class TestAdaptiveWeights:
    def make_reference(self, values):
        _, table, _, design = bernoulli_instance(0, n=8, p=3)
        fit = bl.fit_mle(design, table.response)
        coefs = fit.coefficients.copy()
        idx = design.group_indices("interaction")
        coefs[idx[: len(values)]] = values
        fit.coefficients = coefs
        return fit, design

    def test_inverse_magnitude(self):
        fit, design = self.make_reference([0.5])
        weights = bl.adaptive_weights(fit, design.penalized_mask, gamma_w=1.0)
        j = design.group_indices("interaction")[0]
        assert weights[j] == pytest.approx(2.0)

    def test_unit_reference_for_any_exponent(self):
        fit, design = self.make_reference([1.0])
        j = design.group_indices("interaction")[0]
        for gamma in (0.5, 1.0, 2.7):
            assert bl.adaptive_weights(fit, design.penalized_mask, gamma)[j] == 1.0

    def test_tiny_reference_freezes_column(self):
        fit, design = self.make_reference([1e-12])
        j = design.group_indices("interaction")[0]
        weights = bl.adaptive_weights(fit, design.penalized_mask)
        assert np.isinf(weights[j])

    def test_weight_out_of_range_names_columns_and_gamma(self):
        # |ref| = 17.97 underflows to a zero weight under gamma_w = 400
        fit, design = self.make_reference([])
        with pytest.raises(ValueError, match=r"gamma_w=400 .*interaction:B01\|B02"):
            bl.adaptive_weights(fit, design.penalized_mask, 400.0)
        # 1e-9 is kept by the 1e-10 rule, but 1e-9 ** -40 overflows to inf;
        # no overflow warning escapes
        fit, design = self.make_reference([1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gamma_w=40 .*interaction:B01\|B02"):
                bl.adaptive_weights(fit, design.penalized_mask, 40.0)

    def test_unpenalized_columns_get_zero_weight(self):
        fit, design = self.make_reference([0.5])
        weights = bl.adaptive_weights(fit, design.penalized_mask)
        assert np.all(weights[~design.penalized_mask] == 0.0)

    def test_unconverged_reference_rejected(self):
        fit, design = self.make_reference([0.5])
        fit.converged = False
        with pytest.raises(ConvergenceError):
            bl.adaptive_weights(fit, design.penalized_mask)


class TestSoftThreshold:
    """The soft threshold of a coordinate move: one cyclic pass over a
    one-column working problem with diagonal 2, from zero."""

    @pytest.mark.parametrize("x,t,expected", [(3.0, 1.0, 2.0), (-3.0, 1.0, -2.0),
                                              (0.5, 1.0, 0.0), (-0.5, 1.0, 0.0),
                                              (1.0, 1.0, 0.0)])
    def test_values(self, x, t, expected):
        _, table, _, design = bernoulli_instance(37, n=8, p=2)
        solver = _PenalizedSolver(design, table.response, unit_weights(design))
        coef, grad = np.zeros(1), np.array([x])
        solver._coordinate_pass(np.array([[2.0]]), coef, grad, np.array([t]), [0])
        assert coef[0] == expected / 2.0
        assert grad[0] == x - expected


class TestFitPenalized:
    """Fits at one penalty level, ``select`` on a one-point path."""

    @pytest.mark.parametrize("maker,seed", [(bernoulli_instance, 30), (poisson_instance, 31)])
    def test_lambda_zero_matches_mle(self, maker, seed):
        _, table, _, design = maker(seed, n=12, p=3)
        mle = bl.fit_mle(design, table.response)
        assert mle.converged
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        pen = fit_at(design, table.response, weights, 0.0)
        assert pen.converged
        assert np.abs(pen.coefficients - mle.coefficients).max() < 1e-6

    def test_above_lambda_max_gives_exact_zeros_and_restricted_fit(self):
        _, table, _, design = bernoulli_instance(32, n=14, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        lam_max, beta_r = path_top(design, table.response, weights)
        fit = fit_at(design, table.response, weights, 1.01 * lam_max)
        pen = design.penalized_mask
        assert np.all(fit.coefficients[pen] == 0.0)
        assert np.abs(fit.coefficients - beta_r).max() < 1e-6

    def test_lambda_max_returns_the_restricted_fit_exactly(self):
        # at the activation boundary the score equals the threshold up to
        # rounding, where a solve can leave a coefficient of order 1e-14
        _, table, _, design = bernoulli_instance(43, n=30, p=3, node_scale=0.5)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights, grid_size=1)
        lam_max, beta_r = float(path.lambdas[0]), path.fits[0].coefficients
        fit = bl.select(path, fixed_lambda=lam_max)
        assert np.array_equal(fit.coefficients, beta_r)
        assert np.all(fit.coefficients[design.penalized_mask] == 0.0)
        assert fit.converged and fit.diagnostics["active_set_size"] == 0
        assert fit is path.fits[0] and path.selected_index == 0

    def test_lambda_max_is_the_activation_boundary(self):
        for seed in (33, 34, 35):
            _, table, _, design = bernoulli_instance(seed, n=14, p=3)
            mle = bl.fit_mle(design, table.response)
            weights = bl.adaptive_weights(mle, design.penalized_mask)
            lam_max = path_top(design, table.response, weights)[0]
            above = fit_at(design, table.response, weights, 1.01 * lam_max)
            below = fit_at(design, table.response, weights, 0.99 * lam_max)
            pen = design.penalized_mask
            assert np.count_nonzero(above.coefficients[pen]) == 0
            assert np.count_nonzero(below.coefficients[pen]) >= 1

    def test_kkt_conditions_hold(self):
        _, table, _, design = poisson_instance(36, n=14, p=3, n_covariates=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        lam = 0.3 * path_top(design, table.response, weights)[0]
        fit = fit_at(design, table.response, weights, lam)
        assert fit.converged
        gap = kkt_violation(design, table.response, design.spec.family, weights, lam, fit)
        assert gap <= 1e-5
        # from this poor start the refresh rule builds new Grams (after a
        # halved step, or a chord step that cut the KKT violation too
        # little), and chord steps reuse them
        assert fit.diagnostics["step_halvings"] >= 1
        assert 1 < fit.diagnostics["gram_builds"] < fit.iterations

    def test_public_kkt_violation_matches_independent_gap(self):
        _, table, _, design = poisson_instance(36, n=14, p=3, n_covariates=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        lam = 0.3 * path_top(design, table.response, weights)[0]
        fit = fit_at(design, table.response, weights, lam)
        solver = _PenalizedSolver(design, table.response, weights)
        for other in (fit, mle):
            fast = solver.kkt_violation(other.coefficients, lam)
            slow = kkt_violation(design, table.response, design.spec.family, weights, lam, other)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)

    def test_zero_weight_on_a_penalized_column_rejected(self):
        # a zero weight would make lambda_max infinite and the path fail
        # inside LAPACK; it is refused before any fit, naming the column
        _, table, _, design = bernoulli_instance(3, n=20, p=3)
        weights = np.where(design.penalized_mask, 1.0, 0.0)
        j = design.group_indices("interaction")[1]
        weights[j] = 0.0
        response = table.response
        for call in (lambda: bl.lambda_path(design, response, weights=weights, grid_size=5),
                     lambda: _PenalizedSolver(design, response, weights)):
            with pytest.raises(ValueError, match=re.escape(design.column_names[j])):
                call()

    def test_negative_lambda_rejected(self):
        _, table, _, design = bernoulli_instance(37, n=8, p=2)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_at(design, table.response, unit_weights(design), -1.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lambda_rejected(self, lam):
        # an infinite penalty times the zero weight of an unpenalized
        # column is NaN; it is refused before any fit
        _, table, _, design = bernoulli_instance(37, n=8, p=2)
        with pytest.raises(ValueError, match="finite"):
            fit_at(design, table.response, unit_weights(design), lam)

    def test_objective_not_above_restricted_start(self):
        _, table, _, design = bernoulli_instance(38, n=12, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        lam_max, beta_r = path_top(design, table.response, weights)
        X = design.matrix.toarray()

        finite = design.penalized_mask & np.isfinite(weights)

        def objective(coefficients, lam):
            penalty = lam * np.sum(weights[finite] * np.abs(coefficients[finite]))
            return penalty - naive_log_likelihood(X, table.response, coefficients,
                                                  design.spec.family)

        for frac in (0.5, 0.1, 0.01):
            lam = frac * lam_max
            fit = fit_at(design, table.response, weights, lam)
            assert objective(fit.coefficients, lam) <= objective(beta_r, lam) + 1e-9


class TestLambdaPath:
    def build(self, seed=40, grid_size=25, **kwargs):
        _, table, _, design = bernoulli_instance(seed, n=14, p=3, **kwargs)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=grid_size)
        return design, table, mle, weights, path

    def test_top_of_grid_has_empty_active_set(self):
        design, table, mle, weights, path = self.build()
        top = path.fits[0]
        assert np.all(top.coefficients[design.penalized_mask] == 0.0)
        assert top.diagnostics["active_set_size"] == 0

    def test_grid_shape_and_bic(self):
        design, table, mle, weights, path = self.build(grid_size=10)
        assert len(path) == 10
        assert path.lambdas[0] > path.lambdas[-1] > 0
        assert path.lambdas[-1] == pytest.approx(path.lambdas[0] * 1e-4)
        m = table.dyad_count
        for fit, df, bic in zip(path.fits, path.dfs, path.bics):
            assert bic == pytest.approx(-2.0 * fit.log_likelihood + df * np.log(m))
            assert df == fit.diagnostics["active_set_size"] + np.count_nonzero(
                ~design.penalized_mask & ~design.inestimable)

    def test_grid_size_one(self):
        design, table, mle, weights, path = self.build(grid_size=1)
        assert len(path) == 1
        assert np.all(path.fits[0].coefficients[design.penalized_mask] == 0.0)

    def test_exact_zero_discipline(self):
        design, table, mle, weights, path = self.build()
        for fit in path.fits:
            values = fit.coefficients[design.penalized_mask]
            small = np.abs(values) < 1e-9
            assert np.all(values[small] == 0.0)

    @pytest.mark.parametrize("degree_corrected", [True, False],
                             ids=["degree_corrected", "replicate_shaped"])
    def test_predictor_start_keeps_answers_with_fewer_outer_steps(self, degree_corrected):
        if degree_corrected:
            _, table, _, design = bernoulli_instance(43, n=30, p=3, node_scale=0.5)
        else:  # the support-recovery study's model: no node or block effects
            _, table, partition, _ = bernoulli_instance(44, n=200, p=4, intercept=-1.4,
                                                        fraction_zero=0.5)
            design = bl.encode(table, partition, bl.ModelSpec(family="bernoulli_logit"))
        response = table.response
        mle = bl.fit_mle(design, response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, response, weights=weights)
        assert all(fit.converged for fit in path.fits)
        pen = design.penalized_mask
        for k in range(0, len(path), 10):
            single = fit_at(design, response, weights, float(path.lambdas[k]))
            fit = path.fits[k]
            assert np.array_equal(np.sign(fit.coefficients[pen]), np.sign(single.coefficients[pen]))
            assert np.abs(fit.coefficients - single.coefficients).max() < 1e-6
        # the plain warm start: each point from the previous point's fit
        solver = _PenalizedSolver(design, response, weights)
        chained, previous = 0, path.fits[0].coefficients
        for lam in path.lambdas[1:]:
            fit = solver.solve(float(lam), previous)
            chained, previous = chained + fit.iterations, fit.coefficients
        assert sum(fit.iterations for fit in path.fits[1:]) <= chained

    @pytest.mark.parametrize("instance", [
        lambda: bernoulli_instance(43, n=30, p=3, node_scale=0.5),
        lambda: poisson_instance(36, n=14, p=3, n_covariates=2),
    ], ids=["degree_corrected", "poisson_covariates"])
    def test_every_point_meets_the_independent_kkt_gap(self, instance):
        _, table, _, design = instance()
        family = design.spec.family
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=40)
        for lam, fit in zip(path.lambdas, path.fits):
            assert fit.converged
            assert kkt_violation(design, table.response, family, weights, lam, fit) <= 1e-6

    def test_chord_steps_build_fewer_grams_than_outer_steps(self):
        _, table, _, design = bernoulli_instance(43, n=30, p=3, node_scale=0.5)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights)
        grams = [fit.diagnostics["gram_builds"] for fit in path.fits[1:]]
        factorizations = [fit.diagnostics["factorizations"] for fit in path.fits[1:]]
        outer = [fit.iterations for fit in path.fits[1:]]
        # every solve builds a Gram on its first step and factors it
        assert all(1 <= g <= k for g, k in zip(grams, outer))
        assert all(f >= 1 for f in factorizations)
        assert sum(grams) < sum(outer)
        assert sum(factorizations) < sum(outer)

    def test_all_infinite_weights_degenerate(self):
        _, table, _, design = bernoulli_instance(41, n=10, p=2)
        weights = np.where(design.penalized_mask, np.inf, 0.0)
        with pytest.warns(RuntimeWarning, match="degenerates"):
            path = bl.lambda_path(design, table.response, weights=weights)
        assert len(path) == 1
        assert np.all(path.fits[0].coefficients[design.penalized_mask] == 0.0)

    def test_path_csv(self, tmp_path):
        design, table, mle, weights, path = self.build(grid_size=5)
        out = tmp_path / "path.csv"
        path.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("lambda,df,log_likelihood,bic,active_set_size,"
                            "outer_iterations,kkt_max,converged,cause")
        assert len(lines) == 6
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["converged"] == "true" for row in rows] == [f.converged for f in path.fits]
        assert [int(row["outer_iterations"]) for row in rows] == [f.iterations for f in path.fits]
        assert [float(row["kkt_max"]) for row in rows] == [f.diagnostics["kkt_max"]
                                                          for f in path.fits]
        assert [row["cause"] == "" for row in rows] == [f.converged for f in path.fits]


class TestChordSteps:
    def test_a_halved_step_is_followed_by_a_new_gram(self):
        _, table, _, design = poisson_instance(31, n=14, p=3, n_covariates=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        solver = _PenalizedSolver(design, table.response, weights)
        lam = 0.3 * path_top(design, table.response, weights)[0]
        # (Gram builds, step halvings) so far, as each outer step starts its working solve
        steps = []
        solve_working = solver._solve_working

        def spy(A, b, x, grad, thresholds, counts):
            steps.append((counts["gram_builds"], counts["step_halvings"]))
            solve_working(A, b, x, grad, thresholds, counts)

        solver._solve_working = spy
        fit = solver.solve(lam, np.zeros(design.n_columns))  # a poor start
        assert fit.converged and fit.diagnostics["step_halvings"] >= 1
        assert steps[0][0] == 1 and len(steps) == fit.iterations
        for (grams, halvings), (next_grams, next_halvings) in zip(steps, steps[1:]):
            if next_halvings > halvings:  # this step halved
                assert next_grams == grams + 1
        assert fit.diagnostics["gram_builds"] < fit.iterations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_working_solve_leaves_no_coordinate_move(self, seed):
        _, table, _, design = bernoulli_instance(43, n=40, p=5, node_scale=0.5)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        solver = _PenalizedSolver(design, table.response, weights)
        lam_max, beta = path_top(design, table.response, weights)
        eta = design.predictor(beta)
        mu = solver.data.evaluate(eta)[0]
        A = np.empty((design.n_columns,) * 2)
        b = design.gram(*solver.data.working(eta, mu), A)
        pen = solver.pen_idx
        thresholds = np.zeros(design.n_columns)
        thresholds[pen] = 0.05 * lam_max * weights[pen]
        # a poor active set: random penalized coefficients, half of them zero
        rng = np.random.default_rng(seed)
        x = beta.copy()
        x[pen] = rng.normal(size=len(pen)) * (rng.random(len(pen)) < 0.5)
        grad = b - A @ x
        solver._solve_working(A, b, x, grad, thresholds, _step_counts())
        assert np.abs(grad - (b - A @ x)).max() < 1e-9
        # the first move of a cyclic pass, with the scalar soft threshold
        moves = [abs(soft_threshold(grad[k] + A[k, k] * x[k], thresholds[k]) / A[k, k] - x[k])
                 * A[k, k] for k in pen]
        assert max(moves) <= 0.05 * 1e-6
        assert solver._largest_move(A, x, grad, thresholds) == pytest.approx(max(moves),
                                                                              abs=1e-12)
        assert np.abs(grad[solver.unpen_idx]).max() < 1e-9


class TestOneColumnSpace:
    """Every fit of a design works in the design's indices, on X'WX built
    from index structures that the design makes once."""

    def test_gram_index_is_built_once_per_design(self, monkeypatch):
        built = []
        build = DesignMatrix._gram_index.func

        def counting(design):
            built.append(design)
            return build(design)

        prop = cached_property(counting)
        prop.__set_name__(DesignMatrix, "_gram_index")
        monkeypatch.setattr(DesignMatrix, "_gram_index", prop)
        _, table, partition, _ = bernoulli_instance(44, n=20, p=3, node_scale=0.5)
        design = bl.encode(table, partition, bl.ModelSpec.degree_corrected())
        assert not design.inestimable.any()
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        fit_at(design, table.response, weights, 0.0)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=10)
        off_grid = float(np.sqrt(path.lambdas[3] * path.lambdas[4]))
        assert bl.select(path, fixed_lambda=off_grid).converged
        assert len(built) == 1 and built[0] is design

    def test_fixed_columns_stay_at_zero_along_the_path(self):
        # an all-zero covariate (inestimable) and an infinitely weighted interaction
        _, table, partition, _ = poisson_instance(36, n=14, p=3, n_covariates=2)
        names = table.covariate_names
        values = np.column_stack([np.zeros(table.dyad_count), table.column(names[1])])
        table = bl.DyadTable(table.node_ids, table.response, values, names)
        design = bl.encode(table, partition, bl.ModelSpec.covariate_adjusted(names))
        zero = design.column_names.index(names[0])
        frozen = design.group_indices(GROUP_INTERACTION)[1]
        assert list(np.flatnonzero(design.inestimable)) == [zero]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf * 0, at lambda = 0 either
            mle = bl.fit_mle(design, table.response)
            weights = bl.adaptive_weights(mle, design.penalized_mask)
            weights[frozen] = np.inf
            path = bl.lambda_path(design, table.response, weights=weights, grid_size=20)
            exact = fit_at(design, table.response, weights, 0.0)
        assert mle.coefficients[zero] == 0.0 and np.isinf(weights[zero])
        for lam, fit in [*zip(path.lambdas, path.fits), (0.0, exact)]:
            assert fit.converged
            assert fit.coefficients[zero] == 0.0 and fit.coefficients[frozen] == 0.0
            assert kkt_violation(design, table.response, "poisson_log", weights, lam, fit) <= 1e-6


class TestStopCauses:
    """Each way a penalized solve stops short of convergence."""

    def problem(self):
        _, table, _, design = bernoulli_instance(38, n=12, p=3)
        weights = np.where(design.penalized_mask, 1.0, 0.0)
        lam = 0.3 * path_top(design, table.response, weights)[0]
        return design, table.response, weights, lam

    def test_max_iterations(self, monkeypatch):
        design, response, weights, lam = self.problem()
        monkeypatch.setattr(penalty, "MAX_OUTER", 2)
        # from a poor start, through the solver that lambda_path and
        # select run
        fit = _PenalizedSolver(design, response, weights).solve(lam, np.zeros(design.n_columns))
        assert fit.converged is False
        assert fit.diagnostics["cause"] == "max_iterations"
        assert fit.iterations == 2
        assert fit.diagnostics["kkt_max"] > penalty.KKT_TOL

    def test_stalled(self, monkeypatch):
        design, response, weights, lam = self.problem()
        # a working solve that never moves: the KKT violation stays put,
        # so the first step sets the best value and fifteen more stall
        monkeypatch.setattr(_PenalizedSolver, "_solve_working", lambda self, *args: None)
        fit = fit_at(design, response, weights, lam)
        assert fit.converged is False
        assert fit.diagnostics["cause"] == "stalled"
        assert fit.iterations == 16
        assert fit.diagnostics["kkt_max"] > penalty.KKT_TOL


class TestFactorReuse:
    def solver(self):
        _, table, _, design = bernoulli_instance(37, n=8, p=2)
        return _PenalizedSolver(design, table.response,
                                np.where(design.penalized_mask, 1.0, 0.0))

    def test_jittered_or_least_squares_solves_are_never_kept(self):
        solver = self.solver()
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 3))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        # rank 3 of 4: certified only with a jitter; minus a 150 x 150
        # all-ones matrix: not even the largest jitter makes it definite
        for A, fallback in [(X.T @ X, "jitter_escalations"),
                            (-np.ones((150, 150)), "lstsq_fallbacks")]:
            sel, rhs = np.arange(len(A)), rng.normal(size=len(A))
            counts = _step_counts()
            for use in (1, 2, 3):
                solver._factored_solve(A, rhs, sel, counts)
                assert counts["factorizations"] == use
                assert counts[fallback] >= use
            assert solver._factor is None

    def test_one_certified_factor_is_reused_for_its_selection(self):
        solver = self.solver()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 5))
        A, rhs = X.T @ X, rng.normal(size=5)
        counts = _step_counts()
        for sel, misses in [([0, 1, 2, 3, 4], 1), ([0, 1, 2, 3, 4], 1), ([0, 2, 4], 2),
                            ([0, 2, 4], 2), ([0, 1, 2, 3, 4], 3)]:
            sel = np.array(sel)
            y = solver._factored_solve(A, rhs[sel], sel, counts)
            assert counts["factorizations"] == misses
            assert np.abs(A[np.ix_(sel, sel)] @ y - rhs[sel]).max() < 1e-10
        assert counts["jitter_escalations"] == counts["lstsq_fallbacks"] == 0


class TestSelect:
    def test_single_point_path(self):
        _, table, _, design = bernoulli_instance(42, n=10, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=1)
        fit = bl.select(path)
        assert fit is path.fits[0]
        assert path.selected_index == 0

    def test_bic_tie_prefers_larger_lambda(self):
        _, table, _, design = bernoulli_instance(48, n=12, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=5)
        path.bics = np.array([5.0, 3.0, 3.0, 4.0, 6.0])
        bl.select(path)
        assert path.selected_index == 1

    def test_bic_skips_unconverged_points(self):
        _, table, _, design = bernoulli_instance(48, n=12, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=5)
        path.bics = np.array([5.0, 3.0, 2.0, 4.0, 6.0])
        path.fits[2].converged = False
        with pytest.warns(RuntimeWarning, match="skipped 1 unconverged"):
            fit = bl.select(path)
        assert path.selected_index == 1
        assert fit is path.fits[1]

    def test_bic_without_converged_points_raises(self):
        _, table, _, design = bernoulli_instance(48, n=12, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=3)
        for fit in path.fits:
            fit.converged = False
        with pytest.raises(ConvergenceError, match="no point of the path has converged"):
            bl.select(path)

    def test_fixed_lambda_on_grid(self):
        _, table, _, design = bernoulli_instance(44, n=10, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=8)
        fit = bl.select(path, fixed_lambda=float(path.lambdas[3]))
        assert path.selected_index == 3
        assert fit is path.fits[3]

    def test_fixed_lambda_off_grid_refits_exactly(self):
        _, table, _, design = bernoulli_instance(45, n=12, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=8)
        lam = float(np.sqrt(path.lambdas[2] * path.lambdas[3]))  # strictly between
        fit = bl.select(path, fixed_lambda=lam)
        assert fit.diagnostics["lambda"] == pytest.approx(lam)
        gap = kkt_violation(design, table.response, design.spec.family, weights, lam, fit)
        assert gap <= 1e-5

    def test_fixed_lambda_is_not_ignored(self):
        # a penalty given alone picks the fit at that penalty, not the BIC
        # minimizer (here at 5.01)
        _, table, _, design = bernoulli_instance(43, n=20, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=10)
        bic = bl.select(path)
        fit = bl.select(path, fixed_lambda=0.030)
        assert fit.diagnostics["lambda"] == 0.030 and path.selected_index is None
        assert bic.diagnostics["lambda"] > 1.0
        assert fit.converged and fit.diagnostics["active_set_size"] > 0
        gap = kkt_violation(design, table.response, design.spec.family, weights, 0.030, fit)
        assert gap <= 1e-5

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_fixed_lambda_rejected(self, lam):
        _, table, _, design = bernoulli_instance(46, n=8, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=2)
        with pytest.raises(ValueError, match="finite"):
            bl.select(path, fixed_lambda=lam)


class TestPenaltySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            bl.PenaltySpec(gamma_w=0.0)
        with pytest.raises(ValueError):
            bl.PenaltySpec(grid_size=0)
        with pytest.raises(ValueError):
            bl.PenaltySpec(grid_ratio=1.5)
        for lam in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                bl.PenaltySpec(fixed_lambda=lam)
        spec = bl.PenaltySpec(fixed_lambda=0.5)
        assert spec.fixed_lambda == 0.5
