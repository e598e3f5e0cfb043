import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import blocklasso as bl
from blocklasso.design import reconstruct_interactions
from blocklasso.glm import _logistic

from helpers import bernoulli_instance, poisson_instance, unit_weights
from oracles import block_mean_probabilities, brute_force_positive_pairs


def random_interactions(seed, p):
    rng = np.random.default_rng(seed)
    return reconstruct_interactions(rng.normal(size=p * (p - 1) // 2), p)


def singleton_threshold_graph(threshold=0.5):
    """Threshold graph over two singleton blocks and one larger block:
    both singletons' within-pairs have no dyads and are flagged. The
    probabilities come from a penalized fit without node effects (a fit
    with node effects over one-node blocks is refused), whose penalty
    keeps it finite where the pair of the two singletons, one dyad, is
    separated."""
    graph, table, _, _ = bernoulli_instance(54, n=6, p=2)
    single = bl.Partition(
        ("a", "b", "rest"),
        {v: (0 if k == 0 else 1 if k == 1 else 2) for k, v in enumerate(graph.node_ids)},
    )
    design = bl.encode(table, single, bl.ModelSpec(family="bernoulli_logit"))
    path = bl.lambda_path(design, table.response, unit_weights(design), grid_size=3,
                          grid_ratio=0.1)
    return bl.reduce_threshold(path.fits[1], design, threshold)


def upper_pairs(p):
    return [(r, s) for r in range(p) for s in range(r, p)]


class TestReducePositive:
    def test_no_edges_when_nothing_positive(self):
        phi = np.array([[0.0, 0.0], [0.0, 0.0]])
        rg = bl.reduce_positive(phi)
        assert rg.edges == ()
        assert rg.sign_summary.as_tuple() == (0, 3, 0)

    def test_matches_brute_force_scan(self):
        for seed in range(20):
            p = 2 + seed % 6
            phi = random_interactions(seed, p)
            rg = bl.reduce_positive(phi)
            assert set(rg.edges) == brute_force_positive_pairs(phi)

    def test_exact_zero_counts_as_zero(self):
        phi = reconstruct_interactions(np.array([0.0, 0.5, -0.5]), 3)
        rg = bl.reduce_positive(phi)
        assert (0, 1) not in rg.edges
        assert rg.sign_summary.zero >= 1

    def test_sign_summary_totals_all_pairs(self):
        for p in (1, 3, 10, 21):
            phi = random_interactions(p, p) if p > 1 else np.zeros((1, 1))
            rg = bl.reduce_positive(phi)
            assert rg.sign_summary.total == p * (p + 1) // 2

    def test_no_self_loop_when_row_nonnegative_off_diagonal(self):
        # all off-diagonal values >= 0 in a row force a nonpositive diagonal
        coefs = np.array([0.4, 0.2, -0.3])  # pairs {1,2}, {1,3}, {2,3}
        phi = reconstruct_interactions(coefs, 3)
        rg = bl.reduce_positive(phi)
        assert phi[0, 0] < 0
        assert (0, 0) not in rg.edges

    def test_sign_summary_invariant_under_relabeling(self):
        phi = random_interactions(7, 5)
        rng = np.random.default_rng(3)
        order = rng.permutation(5)
        permuted = phi[np.ix_(order, order)]
        assert (bl.reduce_positive(phi).sign_summary.as_tuple()
                == bl.reduce_positive(permuted).sign_summary.as_tuple())

    def test_asymmetric_rejected(self):
        phi = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            bl.reduce_positive(phi)

    def test_nonzero_row_sums_rejected(self):
        phi = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="sum to zero"):
            bl.reduce_positive(phi)


class TestReduceThreshold:
    def fit(self, seed=50):
        graph, table, partition, design = bernoulli_instance(seed, n=12, p=3)
        return bl.fit_mle(design, table.response), design, partition

    def test_threshold_one_gives_no_edges(self):
        fit, design, _ = self.fit()
        rg = bl.reduce_threshold(fit, design, 1.0)
        assert rg.edges == ()

    def test_threshold_zero_gives_every_pair_with_dyads(self):
        fit, design, partition = self.fit()
        rg = bl.reduce_threshold(fit, design, 0.0)
        p = partition.block_count
        assert len(rg.edges) + len(rg.flagged_pairs) == p * (p + 1) // 2

    def test_matches_hand_averaging(self):
        fit, design, partition = self.fit(51)
        rg = bl.reduce_threshold(fit, design, 0.5)
        blocks = partition.indices_for(fit.node_ids)
        mean_by_pair = block_mean_probabilities(expit(design.matrix @ fit.coefficients), blocks,
                                                partition.block_count)
        expected = {pair for pair, mean in mean_by_pair.items() if mean > 0.5}
        assert set(rg.edges) == expected
        for pair in rg.edges:
            assert rg.edge_values[pair] == pytest.approx(mean_by_pair[pair])

    def test_monotone_in_threshold(self):
        fit, design, _ = self.fit(52)
        previous = None
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            edges = set(bl.reduce_threshold(fit, design, t).edges)
            if previous is not None:
                assert edges.issubset(previous)
            previous = edges

    def test_poisson_fit_rejected(self):
        _, table, partition, design = poisson_instance(53, n=10, p=2)
        fit = bl.fit_mle(design, table.response)
        with pytest.raises(ValueError, match="probabilities"):
            bl.reduce_threshold(fit, design, 0.5)

    def test_pairs_without_dyads_flagged(self):
        rg = singleton_threshold_graph()
        assert (0, 0) in rg.flagged_pairs and (1, 1) in rg.flagged_pairs
        assert rg.sign_summary.total == 6

    def test_takes_every_bernoulli_fit_over_its_design(self, tmp_path):
        # the MLE, a path point, the BIC pick, an off-grid refit and fits
        # read back from JSON: the means come from each fit's coefficients
        _, table, partition, design = bernoulli_instance(55, n=14, p=3, node_scale=0.3)
        mle = bl.fit_mle(design, table.response)
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights, grid_size=10)
        off_grid = float(np.sqrt(path.lambdas[3] * path.lambdas[4]))
        fits = [mle, path.fits[3], bl.select(path), bl.select(path, fixed_lambda=off_grid)]
        for k, fit in enumerate(fits[:4]):
            fit.write_json(tmp_path / f"fit_{k}.json")
            fits.append(bl.read_fit_json(tmp_path / f"fit_{k}.json"))
        blocks = partition.indices_for(design.node_ids)
        graphs = []
        for fit in fits:
            rg = bl.reduce_threshold(fit, design, 0.3)
            means = block_mean_probabilities(expit(design.matrix @ fit.coefficients), blocks,
                                             design.block_count)
            assert {**rg.edge_values, **rg.nonedge_values} == pytest.approx(means, rel=1e-12)
            assert set(rg.edges) == {pair for pair, mean in means.items() if mean > 0.3}
            graphs.append(rg.to_json_dict())
        # a fit read back holds the same coefficients, so the same graph:
        # the MLE's for the MLE
        assert graphs[4:] == graphs[:4]
        assert graphs[0] != graphs[1]

    def test_fit_over_other_columns_refused(self):
        _, table, partition, design = bernoulli_instance(56, n=10, p=3)
        fit = bl.fit_mle(design, table.response)
        plain = bl.encode(table, partition, bl.ModelSpec(family="bernoulli_logit"))
        two_blocks = bernoulli_instance(56, n=10, p=2)[3]
        for other in (plain, two_blocks):
            with pytest.raises(ValueError, match="columns differ"):
                bl.reduce_threshold(fit, other, 0.5)


class TestRulesAgainstOracles:
    """Both rules against the exhaustive scans of ``oracles``: every pair
    r <= s is exactly one of edge, non-edge or flagged, with its value,
    and the sign summary counts them."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_positive_rule(self, p, seed):
        rng = np.random.default_rng(seed)
        # about a third of the free coefficients are exact zeros
        coefs = rng.normal(size=p * (p - 1) // 2) * (rng.random(p * (p - 1) // 2) > 1 / 3)
        phi = reconstruct_interactions(coefs, p)
        rg = bl.reduce_positive(phi)
        expected = brute_force_positive_pairs(phi)
        assert rg.edges == tuple(sorted(expected))
        assert rg.edge_values == {pair: phi[pair] for pair in expected}
        assert rg.nonedge_values == {pair: phi[pair] for pair in upper_pairs(p)
                                     if pair not in expected}
        assert rg.flagged_pairs == ()
        upper = [phi[pair] for pair in upper_pairs(p)]
        assert rg.sign_summary.as_tuple() == (sum(v > 0 for v in upper),
                                              sum(v == 0 for v in upper),
                                              sum(v < 0 for v in upper))

    @staticmethod
    def check_threshold_rule(sizes, seed, node_effects):
        """The rule on a design over blocks of ``sizes`` nodes, in a random
        node order, at random coefficients, against the oracle's dyad loop.
        The coefficients are quarters, so that every linear predictor is
        exact and the design's factors and its dense matrix give the same
        one. The oracle averages the package's logistic of it
        (``glm._logistic``, the fits' mean function), which is within an
        ulp of scipy's expit."""
        rng = np.random.default_rng(seed)
        p = len(sizes)
        node_blocks = rng.permutation(np.repeat(np.arange(p), sizes))
        node_ids = tuple(f"v{i:02d}" for i in range(len(node_blocks)))
        partition = bl.Partition(tuple(f"b{r}" for r in range(p)),
                                 {v: int(b) for v, b in zip(node_ids, node_blocks)})
        m = len(node_ids) * (len(node_ids) - 1) // 2
        table = bl.DyadTable(node_ids, np.zeros(m), np.empty((m, 0)), ())
        spec = (bl.ModelSpec.degree_corrected() if node_effects
                else bl.ModelSpec(family="bernoulli_logit"))
        design = bl.encode(table, partition, spec)
        beta = rng.integers(-8, 9, design.n_columns) / 4.0
        fit = SimpleNamespace(family="bernoulli_logit", column_names=design.column_names,
                              coefficients=beta)
        eta = design.matrix @ beta
        fitted = _logistic(eta)[0]
        assert np.allclose(fitted, expit(eta), rtol=2.3e-16, atol=0.0)
        means = block_mean_probabilities(fitted, node_blocks, p)
        # a threshold equal to one of the means checks the strict inequality
        threshold = float(rng.choice(list(means.values()))) if means else 0.5
        rg = bl.reduce_threshold(fit, design, threshold)
        edges = [pair for pair in upper_pairs(p) if pair in means and means[pair] > threshold]
        assert rg.edges == tuple(edges)
        assert rg.edge_values == {pair: means[pair] for pair in edges}
        assert rg.nonedge_values == {pair: mean for pair, mean in means.items()
                                     if mean <= threshold}
        flagged = tuple(pair for pair in upper_pairs(p) if pair not in means)
        assert rg.flagged_pairs == flagged
        assert rg.sign_summary.as_tuple() == (len(edges), len(flagged),
                                              len(means) - len(edges))

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=8),
           seed=st.integers(0, 10_000))
    def test_threshold_rule(self, sizes, seed):
        # blocks of one to three nodes, so singleton blocks are common
        self.check_threshold_rule(sizes, seed, node_effects=True)

    def test_threshold_rule_on_collapsed_rows(self):
        # without node effects a design row holds every dyad of its block
        # pair, and the rule expands the row means back to the dyads
        self.check_threshold_rule([1, 3, 2, 3, 1], 7, node_effects=False)


class TestExport:
    def sample(self):
        phi = reconstruct_interactions(np.array([0.6, -0.2, -0.1]), 3)
        return bl.reduce_positive(phi, ("east", "west", "north"))

    def test_empty_graph_is_valid_dot(self):
        rg = bl.reduce_positive(np.zeros((3, 3)), ("a", "b", "c"))
        text = bl.export_reduced_graph(rg, "dot")
        assert text.startswith("graph reduced {")
        for label in ("a", "b", "c"):
            assert f'"{label}"' in text
        assert "--" not in text

    def test_dot_contains_edges_and_self_loops(self):
        coefs = np.array([0.5])
        phi = reconstruct_interactions(coefs, 2)
        phi = np.array([[0.3, 0.5], [0.5, -0.8]])  # manual: self-loop at block 1
        phi[1, 1] = -0.8
        phi = (phi + phi.T) / 2
        np.fill_diagonal(phi, 0.0)
        np.fill_diagonal(phi, -phi.sum(axis=1))
        rg = bl.reduce_positive(phi, ("one", "two"))
        text = bl.export_reduced_graph(rg, "dot")
        assert '"one" -- "two"' in text
        if (0, 0) in rg.edges:
            assert '"one" -- "one"' in text

    @pytest.mark.parametrize("fmt,unknown,styled", [
        ("dot", ["sparkle"], ['fillcolor="lightblue"', 'shape="square"', 'label="East"']),
        ("graphml", ["label", "sparkle"],
         ['<data key="d_color">lightblue</data>', '<data key="d_shape">square</data>']),
    ], ids=["dot", "graphml"])
    def test_styling_and_unknown_attribute_warns(self, fmt, unknown, styled):
        styling = {"east": {"color": "lightblue", "shape": "square", "label": "East",
                            "sparkle": "yes"}}
        with pytest.warns(RuntimeWarning) as record:
            text = bl.export_reduced_graph(self.sample(), fmt, styling=styling)
        assert [str(w.message).split("'")[1] for w in record] == unknown
        # each warning points at the caller of export_reduced_graph
        assert {w.filename for w in record} == {__file__}
        for piece in styled:
            assert piece in text

    def test_graphml_well_formed(self):
        rg = self.sample()
        text = bl.export_reduced_graph(rg, "graphml")
        root = ET.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        graph = root.find(f"{ns}graph")
        assert len(graph.findall(f"{ns}node")) == 3
        assert len(graph.findall(f"{ns}edge")) == len(rg.edges)

    @pytest.mark.parametrize("rule", ["positive_interaction", "threshold"])
    def test_json_export_matches_graph_fields(self, rule):
        rg = self.sample() if rule == "positive_interaction" else singleton_threshold_graph()
        data = json.loads(bl.export_reduced_graph(rg, "json"))

        def named(pair):
            return [rg.blocks[pair[0]], rg.blocks[pair[1]]]

        assert (data["rule"], data["threshold"], data["blocks"]) == (
            rg.rule, rg.threshold, list(rg.blocks))
        assert data["edges"] == [{"source": named(pair)[0], "target": named(pair)[1],
                                  "value": rg.edge_values[pair]} for pair in rg.edges]
        assert data["nonedges"] == [{"source": named(pair)[0], "target": named(pair)[1],
                                     "value": value}
                                    for pair, value in sorted(rg.nonedge_values.items())]
        assert data["flagged"] == [named(pair) for pair in rg.flagged_pairs]
        summary = rg.sign_summary
        assert data["sign_summary"] == {"positive": summary.positive, "zero": summary.zero,
                                        "negative": summary.negative}
        assert rg.edges and rg.nonedge_values
        assert bool(rg.flagged_pairs) == (rule == "threshold")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            bl.export_reduced_graph(self.sample(), "svg")

    def test_writes_file(self, tmp_path):
        out = tmp_path / "rg.dot"
        bl.export_reduced_graph(self.sample(), "dot", out)
        assert out.read_text().startswith("graph reduced {")
