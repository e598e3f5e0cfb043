import numpy as np
import pytest

import blocklasso as bl

from helpers import edge_weight


class TestSampleGraph:
    def test_constant_probability_density(self):
        target = 0.3
        spec = bl.GeneratorSpec(n=100, p=1, family="bernoulli_logit",
                                intercept=float(np.log(target / (1 - target))), seed=2)
        graph, table, _ = bl.sample_graph(spec)
        m = table.dyad_count
        se = np.sqrt(target * (1 - target) / m)
        assert abs(np.mean(table.response) - target) < 3 * se

    def test_constant_rate_mean(self):
        spec = bl.GeneratorSpec(n=100, p=1, family="poisson_log",
                                intercept=float(np.log(2.0)), seed=3)
        graph, table, _ = bl.sample_graph(spec)
        m = table.dyad_count
        se = np.sqrt(2.0 / m)
        assert abs(np.mean(table.response) - 2.0) < 3 * se

    def test_seeded_determinism(self):
        spec = dict(n=30, p=3, family="bernoulli_logit", intercept=-0.5,
                    interactions=bl.sparse_interactions(3, 0.5, 0.8, seed=4), seed=9)
        g1, t1, p1 = bl.sample_graph(bl.GeneratorSpec(**spec))
        g2, t2, p2 = bl.sample_graph(bl.GeneratorSpec(**spec))
        assert g1.node_ids == g2.node_ids
        assert np.array_equal(g1.weights, g2.weights)
        assert p1.block_labels == p2.block_labels

    def test_different_seeds_differ(self):
        base = dict(n=30, p=1, family="bernoulli_logit", intercept=0.0)
        g1, _, _ = bl.sample_graph(bl.GeneratorSpec(**base, seed=1))
        g2, _, _ = bl.sample_graph(bl.GeneratorSpec(**base, seed=2))
        assert not np.array_equal(g1.weights, g2.weights)

    def test_overflow_rejected_naming_dyad(self):
        spec = bl.GeneratorSpec(n=5, p=1, family="bernoulli_logit", intercept=50.0, seed=0)
        with pytest.raises(ValueError, match="out of range for dyad"):
            bl.sample_graph(spec)

    def test_covariates_enter_predictor(self):
        m = 40 * 39 // 2
        rng = np.random.default_rng(8)
        x = rng.normal(size=(m, 1))
        spec = bl.GeneratorSpec(n=40, p=1, family="poisson_log", intercept=0.0,
                                covariate_values=x, covariate_coefs=np.array([1.0]),
                                seed=8)
        _, table, _ = bl.sample_graph(spec)
        high = table.response[x[:, 0] > 1.0].mean()
        low = table.response[x[:, 0] < -1.0].mean()
        assert high > low

    def test_invalid_interactions_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            bl.GeneratorSpec(n=6, p=2, interactions=np.array([[1.0, 0.5], [0.5, 1.0]]))


class TestSparseInteractions:
    def test_all_zero_fraction(self):
        assert np.array_equal(bl.sparse_interactions(5, 1.0, 0.8, seed=1), np.zeros((5, 5)))

    def test_two_blocks_no_zeros(self):
        phi = bl.sparse_interactions(2, 0.0, 0.7, seed=2)
        assert abs(phi[0, 1]) == 0.7

    def test_row_sums_and_zero_share(self):
        for seed in range(10):
            p = 3 + seed % 5
            phi = bl.sparse_interactions(p, 0.5, 1.1, seed=seed)
            assert np.abs(phi.sum(axis=1)).max() < 1e-12
            assert np.array_equal(phi, phi.T)
            iu, ju = np.triu_indices(p, k=1)
            zeros = np.count_nonzero(phi[iu, ju] == 0.0)
            assert zeros == round(0.5 * len(iu))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            bl.sparse_interactions(3, 1.5, 0.8)


class TestAllocateBlocks:
    def test_near_equal_default(self):
        partition = bl.allocate_blocks(10, 3)
        assert sorted(partition.sizes().tolist()) == [3, 3, 4]

    def test_explicit_sizes(self):
        partition = bl.allocate_blocks(6, 2, (1, 5))
        assert partition.sizes().tolist() == [1, 5]

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            bl.allocate_blocks(6, 2, (2, 2))
        with pytest.raises(ValueError):
            bl.allocate_blocks(3, 5)


class TestWriteDataset:
    def test_round_trip_binary(self, tmp_path):
        spec = bl.GeneratorSpec(n=20, p=3, family="bernoulli_logit", intercept=-1.5,
                                interactions=bl.sparse_interactions(3, 0.4, 0.8, seed=5),
                                seed=5)
        graph, _, partition = bl.sample_graph(spec)
        paths = bl.write_dataset(tmp_path, graph, partition, spec, mode="binary")
        attrs = bl.load_attributes(paths["attributes"])
        loaded = bl.load_edge_list(paths["edges"], mode="binary",
                                   extra_nodes=attrs.node_ids)
        assert loaded.node_ids == graph.node_ids
        assert np.array_equal(loaded.weights, graph.weights)
        rebuilt = bl.partition_from_attributes(attrs, ["block"])
        assert rebuilt.block_labels == partition.block_labels
        assert rebuilt.block_of == partition.block_of

    def test_round_trip_weighted(self, tmp_path):
        spec = bl.GeneratorSpec(n=15, p=2, family="poisson_log", intercept=0.2,
                                interactions=bl.sparse_interactions(2, 0.0, 0.4, seed=6),
                                seed=6)
        graph, _, partition = bl.sample_graph(spec)
        paths = bl.write_dataset(tmp_path, graph, partition, spec, mode="weighted")
        attrs = bl.load_attributes(paths["attributes"])
        loaded = bl.load_edge_list(paths["edges"], mode="weighted",
                                   extra_nodes=attrs.node_ids)
        assert np.array_equal(loaded.weights, graph.weights)

    @pytest.mark.parametrize("family,mode", [("bernoulli_logit", "binary"),
                                             ("poisson_log", "weighted")])
    def test_edge_rows_in_row_major_order(self, tmp_path, family, mode):
        spec = bl.GeneratorSpec(n=25, p=3, family=family, intercept=-0.5,
                                interactions=bl.sparse_interactions(3, 0.3, 0.5, seed=8),
                                seed=8)
        graph, _, partition = bl.sample_graph(spec)
        paths = bl.write_dataset(tmp_path, graph, partition, spec, mode=mode)
        # reference: every node pair i < j in row-major order, nonzero weights only
        expected = ""
        for i, u in enumerate(graph.node_ids):
            for v in graph.node_ids[i + 1:]:
                w = edge_weight(graph, u, v)
                if w:
                    expected += ",".join([u, v] + [str(w)] * (mode == "weighted")) + "\n"
        assert paths["edges"].read_bytes() == expected.encode("utf-8")

    def test_unknown_mode_refused(self, tmp_path):
        spec = bl.GeneratorSpec(n=6, p=2, family="bernoulli_logit",
                                interactions=bl.sparse_interactions(2, 0.0, 0.3, seed=7),
                                seed=7)
        graph, _, partition = bl.sample_graph(spec)
        with pytest.raises(ValueError, match="mode must be 'binary' or 'weighted', got 'wieghted'"):
            bl.write_dataset(tmp_path / "out", graph, partition, spec, mode="wieghted")
        assert not (tmp_path / "out").exists()

    def test_truth_written(self, tmp_path):
        import json
        spec = bl.GeneratorSpec(n=8, p=2, family="bernoulli_logit",
                                interactions=bl.sparse_interactions(2, 0.0, 0.3, seed=7),
                                seed=7)
        graph, _, partition = bl.sample_graph(spec)
        paths = bl.write_dataset(tmp_path, graph, partition, spec)
        truth = json.loads(paths["truth"].read_text())
        assert truth["n"] == 8 and truth["seed"] == 7
        assert len(truth["interactions"]) == 2


class TestParameterRecovery:
    def test_mle_recovers_interactions_regression(self):
        # regression bound frozen from a 10-replicate calibration at these
        # settings (observed mean MAE 0.013, max 0.025)
        rng = np.random.default_rng(3000)
        alpha = rng.normal(scale=0.4, size=400)
        alpha -= alpha.mean()
        phi = bl.sparse_interactions(4, 0.25, 0.7, seed=3100)
        spec = bl.GeneratorSpec(n=400, p=4, family="bernoulli_logit", intercept=-1.0,
                                interactions=phi, node_effects=alpha, seed=3200)
        graph, table, partition = bl.sample_graph(spec)
        design = bl.encode(table, partition, bl.ModelSpec.degree_corrected())
        fit = bl.fit_mle(design, table.response)
        assert fit.converged
        mae = float(np.abs(fit.block_interactions - phi).mean())
        assert mae < 0.05
