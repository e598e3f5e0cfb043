import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpstrf
from scipy.special import expit, xlogy

import blocklasso as bl
from blocklasso import design as design_module
from blocklasso import glm
from blocklasso.glm import SEPARATION_RIDGE, _CellData, _solve_normal_equations, _step_counts
from helpers import (bernoulli_instance, edge_weight, graph_from_weights, one_block_partition,
                     poisson_instance)
from oracles import damped_newton, naive_log_likelihood

FALLBACKS = ("jitter_escalations", "lstsq_fallbacks", "step_halvings")


def log_likelihood(coefficients, design, response):
    """The exact log-likelihood at ``coefficients`` as every fit evaluates
    it: the cell kernel at the design's predictor, less sum(log y!)."""
    data = _CellData(design, response)
    return data.evaluate(design.predictor(np.asarray(coefficients)))[1] - data.log_y_factorial


class TestLogLikelihood:
    def test_bernoulli_at_zero_coefficients(self):
        _, table, partition, design = bernoulli_instance(1, n=8, p=2)
        m = table.dyad_count
        value = log_likelihood(np.zeros(design.n_columns), design, table.response)
        assert value == pytest.approx(-m * np.log(2.0), abs=1e-12)

    def test_poisson_all_zero_response(self):
        graph = graph_from_weights(np.zeros((5, 5), dtype=int))
        table = bl.build_dyad_table(graph)
        design = bl.encode(table, one_block_partition(graph),
                           bl.ModelSpec(family="poisson_log"))
        value = log_likelihood(np.zeros(1), design, table.response)
        assert value == pytest.approx(-table.dyad_count, abs=1e-12)

    @pytest.mark.parametrize("seed,family", [(0, "bernoulli_logit"), (1, "poisson_log")])
    def test_matches_term_by_term_oracle(self, seed, family):
        if family == "bernoulli_logit":
            _, table, _, design = bernoulli_instance(seed, n=7, p=2)
        else:
            _, table, _, design = poisson_instance(seed, n=7, p=2, n_covariates=1)
        rng = np.random.default_rng(seed)
        coefs = rng.normal(scale=0.5, size=design.n_columns)
        fast = log_likelihood(coefs, design, table.response)
        slow = naive_log_likelihood(design.matrix.toarray(), table.response, coefs, family)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))

    @pytest.mark.parametrize("seed,family", [(2, "bernoulli_logit"), (3, "poisson_log")])
    def test_gradient_matches_central_differences(self, seed, family):
        if family == "bernoulli_logit":
            _, table, _, design = bernoulli_instance(seed, n=7, p=2)
        else:
            _, table, _, design = poisson_instance(seed, n=7, p=2)
        rng = np.random.default_rng(seed)
        coefs = rng.normal(scale=0.4, size=design.n_columns)
        y = np.asarray(table.response, dtype=float)
        eta = design.matrix @ coefs
        if family == "bernoulli_logit":
            mu = 1.0 / (1.0 + np.exp(-eta))
        else:
            mu = np.exp(eta)
        analytic = design.matrix.T @ (y - mu)
        h = 1e-5
        for j in range(design.n_columns):
            bumped = coefs.copy()
            bumped[j] += h
            up = log_likelihood(bumped, design, table.response)
            bumped[j] -= 2 * h
            down = log_likelihood(bumped, design, table.response)
            numeric = (up - down) / (2 * h)
            assert abs(numeric - analytic[j]) <= 1e-6 * (1.0 + abs(analytic[j]))

    def test_response_validation(self):
        _, table, _, design = bernoulli_instance(4, n=6, p=2)
        with pytest.raises(ValueError, match="0 or 1"):
            log_likelihood(np.zeros(design.n_columns), design,
                              np.full(table.dyad_count, 2))
        _, table, _, design = poisson_instance(4, n=6, p=2)
        with pytest.raises(ValueError, match="nonnegative integers"):
            log_likelihood(np.zeros(design.n_columns), design,
                              np.full(table.dyad_count, -1))


class TestFitMle:
    def test_intercept_only_poisson_closed_form(self):
        _, table, partition, design = poisson_instance(5, n=9, p=1)
        fit = bl.fit_mle(design, table.response)
        assert fit.converged
        assert fit.coefficient("intercept") == pytest.approx(
            np.log(np.mean(table.response)), abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_matches_damped_newton_oracle(self, seed):
        # seeds chosen so the instance is identified (converged fit with
        # moderate coefficients); near-saturated draws sit on likelihood
        # plateaus where coefficient comparison is meaningless
        _, table, _, design = bernoulli_instance(seed, n=8, p=2, intercept=0.2,
                                                 magnitude=0.5)
        fit = bl.fit_mle(design, table.response)
        assert fit.converged and np.abs(fit.coefficients).max() < 5.0
        oracle = damped_newton(design.matrix.toarray(), table.response,
                               "bernoulli_logit", free=~design.inestimable)
        assert np.abs(fit.coefficients - oracle).max() < 1e-6

    def test_score_condition_reported(self):
        _, table, _, design = poisson_instance(13, n=10, p=2, n_covariates=1)
        fit = bl.fit_mle(design, table.response)
        assert fit.converged
        assert fit.diagnostics["score_max"] <= fit.diagnostics["score_bound"]

    def test_node_effects_sum_to_zero_exactly(self):
        _, table, _, design = bernoulli_instance(14, n=10, p=2)
        fit = bl.fit_mle(design, table.response)
        values = np.array(list(fit.node_effect_values().values()))
        assert len(values) == 10
        assert values.sum() == 0.0

    def test_interaction_rows_sum_to_zero(self):
        _, table, _, design = bernoulli_instance(15, n=12, p=4)
        fit = bl.fit_mle(design, table.response)
        assert np.abs(fit.block_interactions.sum(axis=1)).max() < 1e-10

    def test_fitted_values_in_range(self):
        _, table, _, design = bernoulli_instance(19, n=10, p=2)
        fit = bl.fit_mle(design, table.response)
        assert np.all((fit.fitted_values > 0) & (fit.fitted_values < 1))
        _, table2, _, design2 = poisson_instance(16, n=10, p=2)
        fit2 = bl.fit_mle(design2, table2.response)
        assert np.all(fit2.fitted_values > 0)

    def test_node_relabeling_invariance(self):
        graph, table, partition, design = bernoulli_instance(17, n=10, p=2)
        fit = bl.fit_mle(design, table.response)
        # reverse the id order: same structure, different fold node
        renamed = {v: f"w{9 - k:02d}" for k, v in enumerate(graph.node_ids)}
        original = {w: v for v, w in renamed.items()}
        node_ids = tuple(sorted(original))
        weights = [edge_weight(graph, original[a], original[b])
                   for a, b in itertools.combinations(node_ids, 2)]
        graph2 = bl.Graph(node_ids, weights)
        partition2 = bl.Partition(partition.block_labels,
                                  {renamed[v]: partition.block_of[v] for v in graph.node_ids})
        table2 = bl.build_dyad_table(graph2)
        design2 = bl.encode(table2, partition2, bl.ModelSpec.degree_corrected())
        fit2 = bl.fit_mle(design2, table2.response)
        assert abs(fit.log_likelihood - fit2.log_likelihood) < 1e-8
        assert np.abs(fit.block_interactions - fit2.block_interactions).max() < 1e-6

    def test_separation_flagged_with_ridge_fallback(self):
        # an isolated node inside an otherwise dense one-block graph drives
        # its effect to -infinity
        rng = np.random.default_rng(0)
        n = 8
        w = (rng.random((n, n)) < 0.7).astype(int)
        w = np.triu(w, 1)
        w = w + w.T
        w[0, :] = 0
        w[:, 0] = 0
        graph = graph_from_weights(w)
        table = bl.build_dyad_table(graph)
        design = bl.encode(table, one_block_partition(graph), bl.ModelSpec.degree_corrected())
        with pytest.warns(RuntimeWarning, match="quasi-separation"):
            fit = bl.fit_mle(design, table.response)
        assert not fit.converged
        assert fit.diagnostics["cause"] == "separation"
        assert fit.diagnostics["ridge"] > 0
        assert np.all(np.isfinite(fit.coefficients))
        # the ridge is on the public sum-to-zero coefficients
        oracle = damped_newton(design.matrix.toarray(), table.response, "bernoulli_logit",
                               free=~design.inestimable, ridge=SEPARATION_RIDGE)
        assert np.abs(fit.coefficients - oracle).max() < 1e-4

    def test_non_convergence_reported_not_raised(self, monkeypatch):
        _, table, _, design = bernoulli_instance(18, n=10, p=2)
        monkeypatch.setattr(glm, "MAX_ITERATIONS", 1)
        fit = bl.fit_mle(design, table.response)
        assert fit.converged is False
        assert fit.diagnostics["cause"] == "max_iterations"
        assert fit.iterations == 1

    def test_no_progress_reported_not_raised(self, monkeypatch):
        _, table, _, design = bernoulli_instance(18, n=10, p=2)
        # every working solve proposes a point far worse than the start,
        # so that even the thirtieth halving of the step is rejected
        monkeypatch.setattr(glm, "_solve_normal_equations",
                            lambda A, rhs, counts: (np.full(len(rhs), 1e12), None))
        fit = bl.fit_mle(design, table.response)
        assert fit.converged is False
        assert fit.diagnostics["cause"] == "no_progress"
        assert fit.iterations == 1
        assert fit.diagnostics["step_halvings"] == 30
        # the fit stays at its intercept-only start
        assert fit.coefficients[0] != 0.0
        assert np.all(fit.coefficients[1:] == 0.0)
        assert fit.diagnostics["score_max"] > fit.diagnostics["score_bound"]


class TestFallbackCounts:
    def test_rank_deficient_system_reports_jitter(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 3))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])  # rank 3 of 4
        A, rhs = X.T @ X, X.T @ rng.normal(size=12)
        counts = _step_counts()
        x, factor = _solve_normal_equations(A, rhs, counts)
        assert counts["jitter_escalations"] >= 1
        assert factor is None  # a jittered factor is not the system's own
        assert counts["lstsq_fallbacks"] == 0
        # the jittered solution still solves the consistent system
        assert np.abs(A @ x - rhs).max() < 1e-6 * (1.0 + np.abs(rhs).max())

    def test_ordinary_fits_report_zero_fallbacks(self):
        _, table, _, design = bernoulli_instance(40, n=14, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights, grid_size=10)
        for fit in [mle, *path.fits]:
            counts = {k: fit.diagnostics[k] for k in FALLBACKS}
            assert counts == dict.fromkeys(FALLBACKS, 0)
            assert all(type(v) is int for v in counts.values())


class TestLeanKernels:
    """The direct LAPACK solve and the Bernoulli kernels against scipy."""

    def test_solve_allocates_only_the_factor(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(450, 400))
        A = X.T @ X
        A = 0.5 * (A + A.T)
        rhs = rng.normal(size=400)
        counts = _step_counts()
        tracemalloc.start()
        try:
            x, factor = _solve_normal_equations(A, rhs, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor is not None and counts == _step_counts()
        assert np.abs(A @ x - rhs).max() < 1e-8 * np.abs(rhs).max()
        # the factor itself, and no copy of the system or of its absolute values
        assert peak <= 1.1 * A.nbytes

    def test_jitter_exactly_where_scipy_fails_or_warns(self):
        rng = np.random.default_rng(11)
        refused = []
        for cond in np.logspace(14, 17, 31):
            for _ in range(2):
                q = 30
                Q, _ = np.linalg.qr(rng.normal(size=(q, q)))
                A = (Q * np.logspace(0.0, -np.log10(cond), q)) @ Q.T
                A = 0.5 * (A + A.T)
                rhs = rng.normal(size=q)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                    try:
                        expected = scipy.linalg.solve(A, rhs, assume_a="pos")
                    except (np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
                        expected = None
                counts = _step_counts()
                x, factor = _solve_normal_equations(A, rhs, counts)
                assert (counts["jitter_escalations"] > 0) == (expected is None)
                assert (factor is None) == (expected is None)
                if expected is not None:
                    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()
                refused.append(expected is None)
        # the sweep crosses scipy's threshold
        assert any(refused) and not all(refused)

    def test_bernoulli_mean_and_kernel_match_scipy(self):
        _, table, _, design = bernoulli_instance(1, n=8, p=2)
        data = _CellData(design, table.response)
        # one cell with no edges: the kernel is -softplus(eta)
        data.y, data.n = np.zeros(1), np.ones(1)
        eta = np.concatenate([np.linspace(-750.0, 750.0, 3001), [-0.0, 0.0, -1e-300, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mean = data.evaluate(eta)[0]
            softplus = np.array([-data.evaluate(np.array([v]))[1] for v in eta])
        # expit flushes to zero below eta = -709 (its exp(-eta) overflows);
        # there 1 + e^eta rounds to 1 and the logistic is exp(eta) exactly
        logistic = np.where(eta < -709.0, np.exp(np.minimum(eta, 0.0)), expit(eta))
        for got, want in [(mean, logistic), (softplus, np.logaddexp(0.0, eta))]:
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


class TestCellFits:
    """Fits made on the design's rows, collapsed or (with node effects)
    the dyads themselves, report the dyad-level values."""

    @pytest.mark.parametrize("family", ["bernoulli_logit", "poisson_log", "degree_corrected"])
    @pytest.mark.parametrize("lam", [None, 0.5])
    def test_outputs_match_dyad_level(self, family, lam):
        if family == "bernoulli_logit":
            _, table, partition, _ = bernoulli_instance(30, n=16, p=3)
            design = bl.encode(table, partition, bl.ModelSpec(family=family))
        elif family == "poisson_log":
            _, table, _, design = poisson_instance(31, n=16, p=3, n_covariates=1,
                                                   covariate_levels=3)
        else:
            _, table, _, design = bernoulli_instance(34, n=16, p=3, node_scale=0.3)
            family = "bernoulli_logit"
        if design.spec.node_effects:
            assert design.dyad_rows is None and len(design.row_pairs) == design.n_dyads
        else:
            assert len(design.row_pairs) < design.n_dyads
        if lam is None:
            fit = bl.fit_mle(design, table.response)
        else:
            fit = bl.fit_penalized(design, table.response, lam=lam)
        assert fit.converged
        X, y = design.matrix.toarray(), table.response.astype(float)
        mu = np.exp(design.matrix @ fit.coefficients)
        if family == "bernoulli_logit":
            mu = mu / (1.0 + mu)
            deviance = -2.0 * np.sum(xlogy(y, mu) + xlogy(1.0 - y, 1.0 - mu))
        else:
            deviance = 2.0 * np.sum(xlogy(y, y / mu) - (y - mu))
        loglik = naive_log_likelihood(X, y, fit.coefficients, family)
        assert fit.log_likelihood == pytest.approx(loglik, rel=1e-10, abs=0)
        assert fit.deviance == pytest.approx(deviance, rel=1e-10, abs=0)
        assert fit.fitted_values.shape == (design.n_dyads,)
        assert np.allclose(fit.fitted_values, mu, rtol=1e-10, atol=0)
        if lam is None:
            oracle = damped_newton(X, y, family, free=~design.inestimable)
            assert np.abs(fit.coefficients - oracle).max() < 1e-6


def sized_blocks(sizes, seed=0):
    """A Bernoulli dyad table and a partition into blocks of ``sizes``
    nodes, numbered block by block."""
    node_ids = tuple(f"v{t:02d}" for t in range(sum(sizes)))
    block_of = dict(zip(node_ids, np.repeat(np.arange(len(sizes)), sizes).tolist()))
    m = len(node_ids) * (len(node_ids) - 1) // 2
    response = np.random.default_rng(seed).random(m) < 0.3
    table = bl.DyadTable(node_ids, response, np.zeros((m, 0)), ())
    return table, bl.Partition(tuple(f"B{b}" for b in range(len(sizes))), block_of)


class TestIdentifiability:
    """Designs whose columns cannot all be estimated are refused before any
    fit by the design's rank certificate, whose message names the dependent
    columns; the designs themselves can still be encoded."""

    def refusal(self, design, response):
        """The one-line message with which both fits refuse ``design``."""
        messages = set()
        for fit in (bl.fit_mle, bl.lambda_path):
            with pytest.raises(ValueError, match="are linearly dependent") as raised:
                fit(design, response)
            messages.add(str(raised.value))
        (message,) = messages
        assert "\n" not in message
        return message

    def test_node_and_block_effects_refused(self):
        _, table, partition, _ = bernoulli_instance(40, n=40, p=3)
        spec = bl.ModelSpec(family="bernoulli_logit", node_effects=True, block_main_effects=True)
        design = bl.encode(table, partition, spec)
        # the p - 1 block-effect columns lie in the span of the node effects
        assert np.linalg.matrix_rank(design.matrix.toarray()) == 43 == design.n_columns - 2
        message = self.refusal(design, table.response)
        assert "block:B01" in message and "block:B02" in message and "node:" in message
        assert "rank 43 of 45" in message

    @pytest.mark.parametrize("sizes", [(1, 10, 10), (1, 5, 5, 5), (1, 1, 6, 6, 6), (1, 12)])
    def test_one_node_blocks_refused_by_name(self, sizes):
        table, partition = sized_blocks(sizes)
        design = bl.encode(table, partition, bl.ModelSpec.degree_corrected())
        lonely = [label for label, size in zip(partition.block_labels, sizes) if size == 1]
        # each one-node block costs one rank
        rank = np.linalg.matrix_rank(design.matrix.toarray())
        assert rank == design.n_columns - len(lonely)
        message = self.refusal(design, table.response)
        assert f"rank {rank} of {design.n_columns}" in message
        # the largest null-vector entries come first: each one-node block's
        # node, and the first such block's interactions
        named = message.removeprefix("columns ").split(" (")[0].split(", ")
        nodes = [f"node:v{sum(sizes[:b]):02d}" for b, size in enumerate(sizes) if size == 1]
        assert set(nodes) <= set(named)
        assert any(name.startswith(f"interaction:{lonely[0]}|") for name in named)

    @pytest.mark.parametrize("sizes", [(1, 10, 10), (1, 5, 5, 5), (6, 6, 1, 6), (1, 12)])
    def test_one_node_blocks_refused_under_block_effects(self, sizes):
        # the covariate-adjusted preset: a one-node block's main effect and
        # interactions move together, its within-block pair having no dyad
        table, partition = sized_blocks(sizes)
        design = bl.encode(table, partition, bl.ModelSpec.covariate_adjusted())
        lonely = partition.block_labels[sizes.index(1)]
        assert np.linalg.matrix_rank(design.matrix.toarray()) == design.n_columns - 1
        message = self.refusal(design, table.response)
        assert message.startswith(f"columns block:{lonely}, ")
        assert f"rank {design.n_columns - 1} of {design.n_columns}" in message

    def test_collinear_covariates_refused_by_name(self):
        # x and 2x: the design is one rank short and nothing else is
        table, partition = sized_blocks((5, 5, 5))
        x = np.random.default_rng(1).integers(0, 5, table.dyad_count).astype(float)
        table = bl.DyadTable(table.node_ids, table.response, np.column_stack([x, 2 * x]),
                             ("x", "twice_x"))
        design = bl.encode(table, partition, bl.ModelSpec.covariate_adjusted(("x", "twice_x")))
        message = self.refusal(design, table.response)
        assert message.startswith(("columns x, twice_x (2 in all; rank 7 of 8)",
                                   "columns twice_x, x (2 in all; rank 7 of 8)"))

    def test_one_certificate_per_design(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return dpstrf(*args, **kwargs)

        monkeypatch.setattr(design_module, "dpstrf", counted)
        _, table, _, design = bernoulli_instance(40, n=14, p=3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        bl.lambda_path(design, table.response, weights=weights, grid_size=5)
        assert calls == [(design.n_columns,) * 2]

    def test_two_node_blocks_are_full_rank(self):
        table, partition = sized_blocks((2, 5, 5, 5))
        design = bl.encode(table, partition, bl.ModelSpec.degree_corrected())
        assert np.linalg.matrix_rank(design.matrix.toarray()) == design.n_columns
        assert glm._free_columns(design).all()
        assert design.identification[1:] == (design.n_columns, ())


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        _, table, _, design = poisson_instance(20, n=8, p=2, n_covariates=1)
        fit = bl.fit_mle(design, table.response)
        path = tmp_path / "fit.json"
        fit.write_json(path)
        loaded = bl.read_fit_json(path)
        assert loaded.column_names == fit.column_names
        assert np.array_equal(loaded.coefficients, fit.coefficients)
        assert loaded.log_likelihood == fit.log_likelihood
        assert loaded.converged == fit.converged
        assert np.array_equal(loaded.block_interactions, fit.block_interactions)
        assert loaded.fitted_values is None

    @pytest.mark.parametrize("document,message", [
        ({}, "no key 'coefficients'"),
        ([1, 2], "must be a JSON object, got list"),
        ("dropped", "no key 'deviance'"),
        ({"coefficients": 5}, "wrong type"),
    ])
    def test_malformed_document_names_file_and_key(self, tmp_path, document, message):
        if document == "dropped":
            _, table, _, design = poisson_instance(20, n=8, p=2)
            document = bl.fit_mle(design, table.response).to_json_dict()
            del document["deviance"]
        with pytest.raises(ValueError, match=message):
            bl.FitResult.from_json_dict(document)
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=message) as raised:
            bl.read_fit_json(path)
        assert str(path) in str(raised.value)

    def test_non_finite_diagnostics_are_standard_json(self):
        _, table, _, design = bernoulli_instance(23, n=8, p=2)
        fit = bl.fit_mle(design, table.response)
        fit.diagnostics.update(pos=np.inf, neg=-np.inf, nan=np.nan, np_pos=np.float64(np.inf),
                               np_neg=np.float64(-np.inf), np_nan=np.float64(np.nan),
                               values=np.array([1.5, -np.inf]))
        written = json.loads(json.dumps(fit.to_json_dict(), allow_nan=False))["diagnostics"]
        for prefix in ("", "np_"):
            assert written[prefix + "pos"] == "inf"
            assert written[prefix + "neg"] == "-inf"
            assert written[prefix + "nan"] == "nan"
        assert written["values"] == [1.5, "-inf"]

    def test_coefficients_csv(self, tmp_path):
        _, table, _, design = bernoulli_instance(21, n=8, p=2)
        fit = bl.fit_mle(design, table.response)
        path = tmp_path / "coefs.csv"
        fit.write_coefficients_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value"
        assert len(lines) == design.n_columns + 1
        name, value = lines[1].split(",")
        assert name == "intercept"
        assert float(value) == fit.coefficient("intercept")

    def test_named_lookup(self):
        _, table, _, design = bernoulli_instance(22, n=8, p=2)
        fit = bl.fit_mle(design, table.response)
        with pytest.raises(KeyError):
            fit.coefficient("missing")
