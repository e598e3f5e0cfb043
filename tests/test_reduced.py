import json
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocklasso as bl
from blocklasso.design import reconstruct_interactions

from helpers import bernoulli_instance, poisson_instance
from oracles import block_mean_probabilities, brute_force_positive_pairs


def random_interactions(seed, p):
    rng = np.random.default_rng(seed)
    return reconstruct_interactions(rng.normal(size=p * (p - 1) // 2), p)


def singleton_threshold_graph(threshold=0.5):
    """Threshold graph over two singleton blocks and one larger block:
    both singletons' within-pairs have no dyads and are flagged. The
    probabilities come from a fit over the graph's own two blocks: a fit
    with node effects over one-node blocks is refused."""
    graph, table, partition, _ = bernoulli_instance(54, n=6, p=2)
    single = bl.Partition(
        ("a", "b", "rest"),
        {v: (0 if k == 0 else 1 if k == 1 else 2) for k, v in enumerate(graph.node_ids)},
    )
    design = bl.encode(table, partition, bl.ModelSpec(family="bernoulli_logit"))
    fit = bl.fit_mle(design, table.response)
    return bl.reduce_threshold(fit, single, threshold)


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
        return bl.fit_mle(design, table.response), partition

    def test_threshold_one_gives_no_edges(self):
        fit, partition = self.fit()
        rg = bl.reduce_threshold(fit, partition, 1.0)
        assert rg.edges == ()

    def test_threshold_zero_gives_every_pair_with_dyads(self):
        fit, partition = self.fit()
        rg = bl.reduce_threshold(fit, partition, 0.0)
        p = partition.block_count
        assert len(rg.edges) + len(rg.flagged_pairs) == p * (p + 1) // 2

    def test_matches_hand_averaging(self):
        fit, partition = self.fit(51)
        rg = bl.reduce_threshold(fit, partition, 0.5)
        blocks = partition.indices_for(fit.node_ids)
        mean_by_pair = block_mean_probabilities(fit.fitted_values, blocks,
                                                partition.block_count)
        expected = {pair for pair, mean in mean_by_pair.items() if mean > 0.5}
        assert set(rg.edges) == expected
        for pair in rg.edges:
            assert rg.edge_values[pair] == pytest.approx(mean_by_pair[pair])

    def test_monotone_in_threshold(self):
        fit, partition = self.fit(52)
        previous = None
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            edges = set(bl.reduce_threshold(fit, partition, t).edges)
            if previous is not None:
                assert edges.issubset(previous)
            previous = edges

    def test_poisson_fit_rejected(self):
        _, table, partition, design = poisson_instance(53, n=10, p=2)
        fit = bl.fit_mle(design, table.response)
        with pytest.raises(ValueError, match="probabilities"):
            bl.reduce_threshold(fit, partition, 0.5)

    def test_pairs_without_dyads_flagged(self):
        rg = singleton_threshold_graph()
        assert (0, 0) in rg.flagged_pairs and (1, 1) in rg.flagged_pairs
        assert rg.sign_summary.total == 6


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

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=8),
           seed=st.integers(0, 10_000))
    def test_threshold_rule(self, sizes, seed):
        # blocks of one to three nodes, so singleton blocks are common
        rng = np.random.default_rng(seed)
        p = len(sizes)
        node_blocks = rng.permutation(np.repeat(np.arange(p), sizes))
        node_ids = tuple(f"v{i}" for i in range(len(node_blocks)))
        partition = bl.Partition(tuple(f"b{r}" for r in range(p)),
                                 {v: int(b) for v, b in zip(node_ids, node_blocks)})
        fitted = rng.random(len(node_ids) * (len(node_ids) - 1) // 2)
        fit = SimpleNamespace(family="bernoulli_logit", node_ids=node_ids,
                              fitted_values=fitted)
        means = block_mean_probabilities(fitted, node_blocks, p)
        # a threshold equal to one of the means checks the strict inequality
        threshold = float(rng.choice(list(means.values()))) if means else 0.5
        rg = bl.reduce_threshold(fit, partition, threshold)
        edges = [pair for pair in upper_pairs(p) if pair in means and means[pair] > threshold]
        assert rg.edges == tuple(edges)
        assert rg.edge_values == {pair: means[pair] for pair in edges}
        assert rg.nonedge_values == {pair: mean for pair, mean in means.items()
                                     if mean <= threshold}
        flagged = tuple(pair for pair in upper_pairs(p) if pair not in means)
        assert rg.flagged_pairs == flagged
        assert rg.sign_summary.as_tuple() == (len(edges), len(flagged),
                                              len(means) - len(edges))


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
