import csv
import re
import warnings

import numpy as np
import pytest

import blocklasso as bl
from blocklasso import penalty
from blocklasso.glm import ConvergenceError, _step_counts
from blocklasso.penalty import _PenalizedSolver, soft_threshold

from helpers import bernoulli_instance, poisson_instance


def kkt_violation(design, response, family, weights, lam, fit):
    """Exact-likelihood KKT gap computed outside the solver."""
    y = np.asarray(response, dtype=float)
    eta = design.linear_predictor(fit.coefficients)
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
    @pytest.mark.parametrize("x,t,expected", [(3.0, 1.0, 2.0), (-3.0, 1.0, -2.0),
                                              (0.5, 1.0, 0.0), (-0.5, 1.0, 0.0),
                                              (1.0, 1.0, 0.0)])
    def test_values(self, x, t, expected):
        assert soft_threshold(x, t) == expected


class TestFitPenalized:
    @pytest.mark.parametrize("maker,seed", [(bernoulli_instance, 30), (poisson_instance, 31)])
    def test_lambda_zero_matches_mle(self, maker, seed):
        _, table, _, design = maker(seed, n=12, p=3)
        mle = bl.fit_mle(design, table.response)
        assert mle.converged
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        pen = bl.fit_penalized(design, table.response, weights=weights, lam=0.0)
        assert pen.converged
        assert np.abs(pen.coefficients - mle.coefficients).max() < 1e-6

    def test_above_lambda_max_gives_exact_zeros_and_restricted_fit(self):
        _, table, _, design = bernoulli_instance(32, n=14, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        beta_r = bl.restricted_fit(design, table.response)
        lam_max = bl.lambda_max(design, table.response, weights, beta_r)
        fit = bl.fit_penalized(design, table.response, weights=weights, lam=1.01 * lam_max)
        pen = design.penalized_mask
        assert np.all(fit.coefficients[pen] == 0.0)
        assert np.abs(fit.coefficients - beta_r).max() < 1e-6

    def test_lambda_max_returns_the_restricted_fit_exactly(self):
        # at the activation boundary the score equals the threshold up to
        # rounding, where a solve can leave a coefficient of order 1e-14
        _, table, _, design = bernoulli_instance(43, n=30, p=3, node_scale=0.5)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        beta_r = bl.restricted_fit(design, table.response)
        lam_max = bl.lambda_max(design, table.response, weights, beta_r)
        fit = bl.fit_penalized(design, table.response, weights=weights, lam=lam_max)
        assert np.array_equal(fit.coefficients, beta_r)
        assert np.all(fit.coefficients[design.penalized_mask] == 0.0)
        assert fit.converged and fit.diagnostics["active_set_size"] == 0
        assert fit.fitted_values.shape == (design.n_rows,)

    def test_lambda_max_is_the_activation_boundary(self):
        for seed in (33, 34, 35):
            _, table, _, design = bernoulli_instance(seed, n=14, p=3)
            mle = bl.fit_mle(design, table.response)
            weights = bl.adaptive_weights(mle, design.penalized_mask)
            beta_r = bl.restricted_fit(design, table.response)
            lam_max = bl.lambda_max(design, table.response, weights, beta_r)
            above = bl.fit_penalized(design, table.response, weights=weights, lam=1.01 * lam_max)
            below = bl.fit_penalized(design, table.response, weights=weights, lam=0.99 * lam_max)
            pen = design.penalized_mask
            assert np.count_nonzero(above.coefficients[pen]) == 0
            assert np.count_nonzero(below.coefficients[pen]) >= 1

    def test_kkt_conditions_hold(self):
        _, table, _, design = poisson_instance(36, n=14, p=3, n_covariates=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        beta_r = bl.restricted_fit(design, table.response)
        lam = 0.3 * bl.lambda_max(design, table.response, weights, beta_r)
        fit = bl.fit_penalized(design, table.response, weights=weights, lam=lam)
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
        beta_r = bl.restricted_fit(design, table.response)
        lam = 0.3 * bl.lambda_max(design, table.response, weights, beta_r)
        fit = bl.fit_penalized(design, table.response, weights=weights, lam=lam)
        for other in (fit, mle):
            fast = bl.kkt_violation(design, table.response, weights, lam, other.coefficients)
            slow = kkt_violation(design, table.response, design.spec.family, weights, lam, other)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)

    def test_zero_weight_on_a_penalized_column_rejected(self):
        # a zero weight would make lambda_max infinite and the path fail
        # inside LAPACK; it is refused before any fit, naming the column
        _, table, _, design = bernoulli_instance(3, n=20, p=3)
        weights = np.where(design.penalized_mask, 1.0, 0.0)
        j = design.group_indices("interaction")[1]
        weights[j] = 0.0
        response, beta_r = table.response, bl.restricted_fit(design, table.response)
        for call in (lambda: bl.lambda_path(design, response, weights=weights, grid_size=5),
                     lambda: bl.fit_penalized(design, response, weights=weights, lam=0.1),
                     lambda: bl.lambda_max(design, response, weights, beta_r)):
            with pytest.raises(ValueError, match=re.escape(design.column_names[j])):
                call()

    def test_negative_lambda_rejected(self):
        _, table, _, design = bernoulli_instance(37, n=8, p=2)
        with pytest.raises(ValueError, match="nonnegative"):
            bl.fit_penalized(design, table.response, lam=-1.0)

    def test_objective_not_above_restricted_start(self):
        _, table, _, design = bernoulli_instance(38, n=12, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        beta_r = bl.restricted_fit(design, table.response)
        lam_max = bl.lambda_max(design, table.response, weights, beta_r)

        def objective(coefficients, lam):
            return bl.penalized_objective(design, table.response, weights, lam, coefficients)

        for frac in (0.5, 0.1, 0.01):
            lam = frac * lam_max
            fit = bl.fit_penalized(design, table.response, weights=weights, lam=lam)
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

    def test_path_fits_keep_no_fitted_values(self):
        design, table, mle, weights, path = self.build(grid_size=10)
        assert all(fit.fitted_values is None for fit in path.fits)
        off_grid = float(np.sqrt(path.lambdas[3] * path.lambdas[4]))
        selected = [bl.select(path, "bic"), bl.select(path, "fixed_lambda", fixed_lambda=off_grid)]
        assert all(fit.fitted_values is None for fit in selected)
        partition = bernoulli_instance(40, n=14, p=3)[2]
        with pytest.raises(ValueError, match="lambda_path"):
            bl.reduce_threshold(selected[0], partition, 0.5)
        # single fits keep theirs
        single = bl.fit_penalized(design, table.response, weights=weights,
                                  lam=float(path.lambdas[4]))
        assert mle.fitted_values.shape == single.fitted_values.shape == (design.n_rows,)

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
            single = bl.fit_penalized(design, response, weights=weights,
                                      lam=float(path.lambdas[k]))
            fit = path.fits[k]
            assert np.array_equal(np.sign(fit.coefficients[pen]), np.sign(single.coefficients[pen]))
            assert np.abs(fit.coefficients - single.coefficients).max() < 1e-6
        # the plain warm start: each point from the previous point's fit
        chained, previous = 0, path.fits[0].coefficients
        for lam in path.lambdas[1:]:
            fit = bl.fit_penalized(design, response, weights=weights, lam=float(lam),
                                   beta_start=previous)
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
        solver = _PenalizedSolver(design, table.response, design.spec.family, weights)
        lam = 0.3 * solver.lambda_max(solver.restricted_fit().beta)
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
        solver = _PenalizedSolver(design, table.response, design.spec.family, weights)
        beta = solver.restricted_fit().beta
        mu = solver.data.evaluate(solver.data.X @ beta)[0]
        A, b = solver.factored.gram(*solver.data.working(solver.data.X @ beta, mu))
        thresholds = 0.05 * solver.lambda_max(beta) * weights[solver.cols]
        # a poor active set: random penalized coefficients, half of them zero
        rng = np.random.default_rng(seed)
        x, pen = beta[solver.cols], solver.pen_pos
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
        assert np.abs(grad[solver.unpen_pos]).max() < 1e-9


class TestStopCauses:
    """Each way a penalized solve stops short of convergence, forced
    through the public entry point."""

    def problem(self):
        _, table, _, design = bernoulli_instance(38, n=12, p=3)
        weights = np.where(design.penalized_mask, 1.0, 0.0)
        beta_r = bl.restricted_fit(design, table.response)
        lam = 0.3 * bl.lambda_max(design, table.response, weights, beta_r)
        return design, table.response, weights, lam

    def test_max_iterations(self, monkeypatch):
        design, response, weights, lam = self.problem()
        monkeypatch.setattr(penalty, "MAX_OUTER", 2)
        fit = bl.fit_penalized(design, response, weights=weights, lam=lam,
                               beta_start=np.zeros(design.n_columns))
        assert fit.converged is False
        assert fit.diagnostics["cause"] == "max_iterations"
        assert fit.iterations == 2
        assert fit.diagnostics["kkt_max"] > penalty.KKT_TOL

    def test_stalled(self, monkeypatch):
        design, response, weights, lam = self.problem()
        # a working solve that never moves: the KKT violation stays put,
        # so the first step sets the best value and fifteen more stall
        monkeypatch.setattr(_PenalizedSolver, "_solve_working", lambda self, *args: None)
        fit = bl.fit_penalized(design, response, weights=weights, lam=lam)
        assert fit.converged is False
        assert fit.diagnostics["cause"] == "stalled"
        assert fit.iterations == 16
        assert fit.diagnostics["kkt_max"] > penalty.KKT_TOL


class TestFactorReuse:
    def solver(self):
        _, table, _, design = bernoulli_instance(37, n=8, p=2)
        return _PenalizedSolver(design, table.response, design.spec.family,
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
        fit = bl.select(path, "bic")
        assert fit is path.fits[0]
        assert path.selected_index == 0

    def test_bic_tie_prefers_larger_lambda(self):
        _, table, _, design = bernoulli_instance(48, n=12, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=5)
        path.bics = np.array([5.0, 3.0, 3.0, 4.0, 6.0])
        bl.select(path, "bic")
        assert path.selected_index == 1

    def test_bic_skips_unconverged_points(self):
        _, table, _, design = bernoulli_instance(48, n=12, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=5)
        path.bics = np.array([5.0, 3.0, 2.0, 4.0, 6.0])
        path.fits[2].converged = False
        with pytest.warns(RuntimeWarning, match="skipped 1 unconverged"):
            fit = bl.select(path, "bic")
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
            bl.select(path, "bic")

    def test_fixed_lambda_on_grid(self):
        _, table, _, design = bernoulli_instance(44, n=10, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=8)
        fit = bl.select(path, "fixed_lambda", fixed_lambda=float(path.lambdas[3]))
        assert path.selected_index == 3
        assert fit is path.fits[3]

    def test_fixed_lambda_off_grid_refits_exactly(self):
        _, table, _, design = bernoulli_instance(45, n=12, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=8)
        lam = float(np.sqrt(path.lambdas[2] * path.lambdas[3]))  # strictly between
        fit = bl.select(path, "fixed_lambda", fixed_lambda=lam)
        assert fit.diagnostics["lambda"] == pytest.approx(lam)
        gap = kkt_violation(design, table.response, design.spec.family, weights, lam, fit)
        assert gap <= 1e-5

    def test_unknown_rule(self):
        _, table, _, design = bernoulli_instance(46, n=8, p=2)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=2)
        with pytest.raises(ValueError, match="selection rule"):
            bl.select(path, "aic")


class TestPenaltySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            bl.PenaltySpec(gamma_w=0.0)
        with pytest.raises(ValueError):
            bl.PenaltySpec(grid_size=0)
        with pytest.raises(ValueError):
            bl.PenaltySpec(grid_ratio=1.5)
        with pytest.raises(ValueError):
            bl.PenaltySpec(selection_rule="fixed_lambda")
        spec = bl.PenaltySpec(selection_rule="fixed_lambda", fixed_lambda=0.5)
        assert spec.fixed_lambda == 0.5
