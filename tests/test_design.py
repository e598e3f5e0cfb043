import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocklasso as bl
from blocklasso.design import (GROUP_BLOCK, GROUP_INTERACTION, GROUP_NODE, ReferenceCoding,
                               effect_levels, reconstruct_interactions)

from helpers import bernoulli_instance, poisson_instance


def direct_predictor(design, partition, coefficients):
    """Linear predictor computed straight from the model equations with
    explicitly constrained parameter vectors."""
    node_idx = {v: k for k, v in enumerate(design.node_ids)}
    blocks = partition.indices_for(design.node_ids)
    alpha = effect_levels(coefficients, design.groups, GROUP_NODE)
    gamma = effect_levels(coefficients, design.groups, GROUP_BLOCK)
    phi = design.interaction_matrix(coefficients)
    intercept = coefficients[design.column_names.index("intercept")]
    cov_idx = [k for k, g in enumerate(design.groups) if g == "covariate"]
    dense = design.matrix.toarray()
    out = []
    n = len(design.node_ids)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            eta = intercept
            if len(alpha):
                eta += alpha[i] + alpha[j]
            if len(gamma):
                eta += gamma[blocks[i]] + gamma[blocks[j]]
            eta += phi[blocks[i], blocks[j]]
            for c in cov_idx:
                eta += coefficients[c] * dense[k, c]
            out.append(float(eta))
            k += 1
    return np.array(out)


class TestColumnCounts:
    def test_degree_corrected_count(self):
        # n=10, p=3: intercept + 9 node effects + 3 interactions = 13 = n + p(p-1)/2
        _, table, partition, design = bernoulli_instance(1, n=10, p=3)
        assert design.n_columns == 13
        assert design.parameter_count == 10 + 3

    def test_single_block_poisson_is_intercept_only(self):
        _, table, partition, design = poisson_instance(2, n=6, p=1)
        assert design.column_names == ("intercept",)
        assert design.parameter_count == 0 + 1 * 2 // 2

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 14), p=st.integers(1, 6), k=st.integers(0, 3),
           seed=st.integers(0, 10_000))
    def test_count_identities(self, n, p, k, seed):
        p = min(p, n)
        _, _, _, d1 = bernoulli_instance(seed, n=n, p=p)
        assert d1.n_columns == n + p * (p - 1) // 2 == d1.parameter_count
        _, _, _, d2 = poisson_instance(seed, n=n, p=p, n_covariates=k)
        assert d2.n_columns == k + p * (p + 1) // 2 == d2.parameter_count


class TestCoding:
    def test_within_block_interaction_row(self):
        # within-block dyad in the first of three blocks: (-1, -1, 0) over
        # columns {1,2}, {1,3}, {2,3}
        _, table, partition, design = bernoulli_instance(3, n=9, p=3)
        blocks = partition.indices_for(design.node_ids)
        dense = design.matrix.toarray()
        int_cols = design.group_indices(GROUP_INTERACTION)
        assert [design.column_names[c].split(":")[1] for c in int_cols] == [
            "B01|B02", "B01|B03", "B02|B03"]
        for k, (i, j) in enumerate(table.dyads):
            if blocks[i] == blocks[j] == 0:
                assert list(dense[k, int_cols]) == [-1.0, -1.0, 0.0]
                break
        else:
            pytest.fail("no within-block dyad found")

    def test_between_block_interaction_row(self):
        _, table, partition, design = bernoulli_instance(3, n=9, p=3)
        blocks = partition.indices_for(design.node_ids)
        dense = design.matrix.toarray()
        int_cols = design.group_indices(GROUP_INTERACTION)
        for k, (i, j) in enumerate(table.dyads):
            if blocks[i] == 0 and blocks[j] == 1:
                assert list(dense[k, int_cols]) == [1.0, 0.0, 0.0]
                break

    def test_node_effect_folding(self):
        _, table, partition, design = bernoulli_instance(4, n=5, p=1)
        dense = design.matrix.toarray()
        node_cols = design.group_indices(GROUP_NODE)
        # dyad (0, n-1): +1 at column 0 cancelled by the fold, so (0,-1,-1,-1)
        last = len(design.node_ids) - 1
        for k, (i, j) in enumerate(table.dyads):
            if i == 0 and j == last:
                assert list(dense[k, node_cols]) == [0.0, -1.0, -1.0, -1.0]
            if i == 0 and j == 1:
                assert list(dense[k, node_cols]) == [1.0, 1.0, 0.0, 0.0]

    def test_block_effect_folding(self):
        _, table, partition, design = poisson_instance(5, n=8, p=2)
        blocks = partition.indices_for(design.node_ids)
        dense = design.matrix.toarray()
        block_cols = design.group_indices(GROUP_BLOCK)
        for k, (i, j) in enumerate(table.dyads):
            coded = dense[k, block_cols]
            expected = sum(1 if blocks[v] == 0 else -1 for v in (i, j))
            assert coded[0] == expected

    def test_penalized_mask(self):
        _, _, _, d1 = bernoulli_instance(6, n=8, p=3)
        assert np.array_equal(d1.penalized_mask,
                              np.array(d1.groups) == GROUP_INTERACTION)
        _, _, _, d2 = poisson_instance(6, n=8, p=3, n_covariates=2)
        expected = np.isin(np.array(d2.groups), ("covariate", GROUP_INTERACTION))
        assert np.array_equal(d2.penalized_mask, expected)

    def test_requested_covariate_missing(self):
        _, table, partition, _ = bernoulli_instance(7, n=6, p=2)
        spec = bl.ModelSpec(family="bernoulli_logit", covariates=("nope",))
        with pytest.raises(ValueError, match="nope"):
            bl.encode(table, partition, spec)

    def test_node_set_mismatch(self):
        _, table, partition, _ = bernoulli_instance(8, n=6, p=2)
        other = bl.Partition(("solo",), {"x": 0})
        with pytest.raises(ValueError, match="different node sets"):
            bl.encode(table, other, bl.ModelSpec.degree_corrected())


class TestPredictorEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degree_corrected(self, seed):
        _, table, partition, design = bernoulli_instance(seed, n=9, p=3)
        rng = np.random.default_rng(seed)
        coefs = rng.normal(size=design.n_columns)
        via_matrix = design.linear_predictor(coefs)
        direct = direct_predictor(design, partition, coefs)
        assert np.abs(via_matrix - direct).max() < 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_covariate_adjusted(self, seed):
        _, table, partition, design = poisson_instance(seed, n=8, p=3, n_covariates=2)
        rng = np.random.default_rng(seed)
        coefs = rng.normal(size=design.n_columns)
        via_matrix = design.linear_predictor(coefs)
        direct = direct_predictor(design, partition, coefs)
        assert np.abs(via_matrix - direct).max() < 1e-12


class TestReconstructInteractions:
    def test_two_blocks(self):
        out = reconstruct_interactions(np.array([0.5]), 2)
        assert np.array_equal(out, np.array([[-0.5, 0.5], [0.5, -0.5]]))

    def test_all_zero(self):
        assert np.array_equal(reconstruct_interactions(np.zeros(6), 4), np.zeros((4, 4)))

    def test_single_block(self):
        assert np.array_equal(reconstruct_interactions(np.zeros(0), 1), np.zeros((1, 1)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(2, 8))
    def test_row_sums_vanish(self, seed, p):
        rng = np.random.default_rng(seed)
        coefs = rng.normal(scale=3.0, size=p * (p - 1) // 2)
        out = reconstruct_interactions(coefs, p)
        assert np.abs(out - out.T).max() == 0.0
        assert np.abs(out.sum(axis=1)).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            reconstruct_interactions(np.zeros(2), 3)


class TestFitLevelInvariance:
    def test_block_relabel_leaves_likelihood_invariant(self):
        graph, table, partition, design = bernoulli_instance(11, n=12, p=3)
        fit = bl.fit_mle(design, table.response)
        # permute block labels: prefixing flips the sorted order
        relabel = {"B01": "z-B01", "B02": "a-B02", "B03": "m-B03"}
        permuted = bl.Partition(
            tuple(sorted(relabel.values())),
            {node: sorted(relabel.values()).index(relabel[partition.label_of(node)])
             for node in graph.node_ids},
        )
        design2 = bl.encode(table, permuted, bl.ModelSpec.degree_corrected())
        fit2 = bl.fit_mle(design2, table.response)
        assert abs(fit.log_likelihood - fit2.log_likelihood) < 1e-8
        # interaction matrices agree after permuting blocks back
        order = [sorted(relabel.values()).index(relabel[f"B0{k}"]) for k in (1, 2, 3)]
        assert np.abs(fit.block_interactions
                      - fit2.block_interactions[np.ix_(order, order)]).max() < 1e-6


def public_map(coding):
    """M with columns ``coding.to_public(e_k)``: X M is the design in the
    solver coding, with X the public design matrix."""
    return np.column_stack([coding.to_public(e) for e in np.eye(len(coding.cols))])


def gram_oracle(design, coding, w, z):
    """M'X'WXM and M'X'Wz from the dense public design matrix."""
    XM = design.matrix.toarray() @ public_map(coding)
    return XM.T @ (XM * w[:, None]), XM.T @ (w * z)


def singleton_block_design(seed):
    """Degree-corrected design whose first and last blocks hold one node each."""
    _, table, _, _ = bernoulli_instance(seed, n=10, p=3)
    nodes = table.node_ids
    block_of = {v: 1 + k % 2 for k, v in enumerate(nodes)}
    block_of[nodes[0]], block_of[nodes[-1]] = 0, 3
    partition = bl.Partition(("A", "B", "C", "D"), block_of)
    return bl.encode(table, partition, bl.ModelSpec.degree_corrected())


def covariate_degree_corrected_design(seed):
    """Degree-corrected custom spec with a continuous covariate."""
    _, table, partition, _ = poisson_instance(seed, n=10, p=3, n_covariates=1)
    spec = bl.ModelSpec(family="bernoulli_logit", node_effects=True,
                        covariates=table.covariate_names, penalize_covariates=False)
    return bl.encode(table, partition, spec)


class TestReferenceCoding:
    @pytest.mark.parametrize("maker,kwargs,group", [
        (bernoulli_instance, dict(n=9, p=3), GROUP_NODE),
        (poisson_instance, dict(n=9, p=4, n_covariates=2), GROUP_BLOCK),
    ])
    def test_same_predictor_round_trip_and_gram(self, maker, kwargs, group):
        _, _, _, design = maker(3, **kwargs)
        coding = ReferenceCoding(design, np.flatnonzero(~design.inestimable))
        assert list(coding.recoded) == [group]
        reference = design.matrix.toarray() @ public_map(coding)
        # at most two entries per dyad in the recoded effect columns
        effect = reference[:, coding.recoded[group][1]]
        assert np.abs(effect).sum(axis=1).max() <= 2.0
        rng = np.random.default_rng(5)
        x = rng.normal(size=len(coding.cols))
        beta = coding.to_public(x)
        assert np.abs(design.matrix @ beta - reference @ x).max() < 1e-12
        assert np.abs(coding.to_reference(beta) - x).max() < 1e-12
        w, z = rng.random(design.n_rows) + 0.1, rng.normal(size=design.n_rows)
        A, b = coding.gram(w, z)
        assert np.abs(A - reference.T @ (reference * w[:, None])).max() < 1e-12
        assert np.abs(b - reference.T @ (w * z)).max() < 1e-12
        # the solver-coded score from the public one
        assert np.abs(coding.score_to_reference(design.matrix.T @ z)
                      - reference.T @ z).max() < 1e-12

    def test_partly_excluded_group_keeps_public_coding(self):
        _, _, _, design = bernoulli_instance(3, n=9, p=3)
        cols = np.flatnonzero(~design.inestimable)[np.r_[0:2, 3:design.n_columns]]
        coding = ReferenceCoding(design, cols)
        assert not coding.recoded
        reference = design.matrix.toarray() @ public_map(coding)
        assert np.array_equal(reference, design.matrix[:, cols].toarray())
        rng = np.random.default_rng(6)
        w, z = rng.random(design.n_rows) + 0.1, rng.normal(size=design.n_rows)
        A, b = coding.gram(w, z)
        A_oracle, b_oracle = gram_oracle(design, coding, w, z)
        assert np.abs(A - A_oracle).max() < 1e-12
        assert np.abs(b - b_oracle).max() < 1e-12

    @pytest.mark.parametrize("make,drop", [
        (covariate_degree_corrected_design, 0),
        (lambda seed: bernoulli_instance(seed, n=10, p=4)[3], 3),
        (singleton_block_design, 0),
        (singleton_block_design, 2),
    ], ids=["covariate", "interactions_dropped", "singleton_block",
            "singleton_block_interactions_dropped"])
    def test_factored_gram_matches_dense_oracle(self, make, drop):
        design = make(8)
        cols = np.flatnonzero(~design.inestimable)
        # drop interaction columns, as the path freezes infinitely weighted ones
        dropped = design.group_indices(GROUP_INTERACTION)[1::2][:drop]
        coding = ReferenceCoding(design, np.setdiff1d(cols, dropped))
        assert list(coding.recoded) == [GROUP_NODE]
        assert len(design.cells.counts) == design.n_rows
        rng = np.random.default_rng(9)
        w, z = rng.random(design.n_rows) + 0.1, rng.normal(size=design.n_rows)
        A, b = coding.gram(w, z)
        A_oracle, b_oracle = gram_oracle(design, coding, w, z)
        assert np.array_equal(A, A.T)
        assert np.abs(A - A_oracle).max() < 1e-12
        assert np.abs(b - b_oracle).max() < 1e-12
        score = coding.score_to_reference(design.matrix.T @ z)
        assert np.abs(score - public_map(coding).T @ (design.matrix.T @ z)).max() < 1e-12


class TestCells:
    def test_node_effects_make_every_dyad_a_cell(self):
        _, _, _, design = bernoulli_instance(12, n=9, p=3)
        cells = design.cells
        assert cells.matrix is design.matrix
        assert np.array_equal(cells.inverse, np.arange(design.n_rows))
        assert np.array_equal(cells.counts, np.ones(design.n_rows))

    @pytest.mark.parametrize("make", [
        lambda: poisson_instance(12, n=14, p=3, n_covariates=2, covariate_levels=2)[3],
        lambda: custom_design(12, n=14, p=3),
    ], ids=["covariate_adjusted_discrete", "custom_without_effects"])
    def test_every_dyad_row_is_its_cell_row(self, make):
        design = make()
        X, cells = design.matrix, design.cells
        assert len(cells.counts) < design.n_rows
        assert (X - cells.matrix[cells.inverse]).nnz == 0
        assert cells.counts.sum() == design.n_rows
        assert np.array_equal(np.bincount(cells.inverse), cells.counts)

    def test_blocks_without_effects_give_one_cell_per_block_pair(self):
        design = custom_design(13, n=16, p=4)
        assert len(design.cells.counts) == 4 * 5 // 2

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated_values", "all_distinct"])
    def test_mixed_covariates_group_as_unique_rows(self, distinct):
        design = mixed_covariate_design(14, distinct=distinct)
        X = design.matrix.toarray()
        _, first, inverse, counts = np.unique(X, axis=0, return_index=True,
                                              return_inverse=True, return_counts=True)
        order = np.argsort(first)  # cells numbered by their first dyad
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        cells = design.cells
        assert np.array_equal(cells.inverse, rank[inverse.reshape(-1)])
        assert np.array_equal(cells.counts, counts[order])
        assert np.array_equal(cells.matrix.toarray(), X[first[order]])


def custom_design(seed, n, p):
    """Design of the block interactions and intercept alone."""
    _, table, partition, _ = bernoulli_instance(seed, n=n, p=p)
    return bl.encode(table, partition, bl.ModelSpec(family="bernoulli_logit"))


def mixed_covariate_design(seed, distinct):
    """Covariate-adjusted design with a continuous covariate (a few
    repeated real values, or every value distinct) and a discrete one."""
    n = 24
    m = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    continuous = rng.normal(size=m) if distinct else rng.normal(size=6)[rng.integers(0, 6, m)]
    values = np.column_stack([continuous, rng.integers(0, 3, size=m)])
    spec = bl.GeneratorSpec(n=n, p=3, family="poisson_log", intercept=0.3,
                            covariate_values=values, covariate_coefs=np.array([0.2, -0.1]),
                            seed=seed)
    _, table, partition = bl.sample_graph(spec)
    return bl.encode(table, partition, bl.ModelSpec.covariate_adjusted(table.covariate_names))
