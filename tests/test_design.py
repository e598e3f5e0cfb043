from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blocklasso as bl
from blocklasso.design import (GROUP_BLOCK, GROUP_INTERACTION, GROUP_NODE, effect_levels,
                               reconstruct_interactions)
from blocklasso.glm import _CellData

from helpers import bernoulli_instance, poisson_instance


def direct_predictor(design, partition, coefficients):
    """Linear predictor computed straight from the model equations with
    explicitly constrained parameter vectors."""
    node_idx = {v: k for k, v in enumerate(design.node_ids)}
    blocks = partition.indices_for(design.node_ids)
    alpha = effect_levels(coefficients[design.group_indices(GROUP_NODE)])
    gamma = effect_levels(coefficients[design.group_indices(GROUP_BLOCK)])
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
    @example(n=12, p=2, k=2, seed=0)
    def test_count_identities(self, n, p, k, seed):
        p = min(p, n)
        _, _, _, d1 = bernoulli_instance(seed, n=n, p=p)
        assert d1.n_columns == n + p * (p - 1) // 2 == d1.parameter_count
        _, table, partition, d2 = poisson_instance(seed, n=n, p=p, n_covariates=k)
        assert d2.n_columns == k + p * (p + 1) // 2 == d2.parameter_count
        # a custom node-effect model with covariates
        d3 = bl.encode(table, partition, bl.ModelSpec(
            family="bernoulli_logit", node_effects=True, covariates=table.covariate_names))
        assert d3.n_columns == n + k + p * (p - 1) // 2 == d3.parameter_count


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
        via_matrix = design.matrix @ coefs
        direct = direct_predictor(design, partition, coefs)
        assert np.abs(via_matrix - direct).max() < 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_covariate_adjusted(self, seed):
        _, table, partition, design = poisson_instance(seed, n=8, p=3, n_covariates=2)
        rng = np.random.default_rng(seed)
        coefs = rng.normal(size=design.n_columns)
        via_matrix = design.matrix @ coefs
        direct = direct_predictor(design, partition, coefs)
        assert np.abs(via_matrix - direct).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(blocks=st.lists(st.integers(0, 4), min_size=2, max_size=9),
           node_effects=st.booleans(), block_effects=st.booleans(),
           k=st.integers(0, 2), seed=st.integers(0, 10_000))
    @example(blocks=[0, 0], node_effects=True, block_effects=True, k=0, seed=0)
    @example(blocks=[0, 1, 1, 2], node_effects=True, block_effects=True, k=2, seed=1)
    @example(blocks=[2, 1, 1, 0], node_effects=False, block_effects=True, k=1, seed=2)
    def test_any_spec(self, blocks, node_effects, block_effects, k, seed):
        # blocks[t] is node t's block: p = 1, n = 2 and singleton first
        # or last blocks are all drawn; covariates hold zeros
        n = len(blocks)
        node_ids = tuple(f"v{t}" for t in range(n))
        labels, block_of = np.unique(blocks, return_inverse=True)
        partition = bl.Partition(tuple(f"B{b}" for b in labels),
                                 dict(zip(node_ids, block_of.tolist())))
        rng = np.random.default_rng(seed)
        m = n * (n - 1) // 2
        names = tuple(f"x{c}" for c in range(k))
        table = bl.DyadTable(node_ids, np.zeros(m), rng.choice([0.0, 0.0, 1.0, -2.5], size=(m, k)),
                             names)
        spec = bl.ModelSpec(family="bernoulli_logit", node_effects=node_effects,
                            block_main_effects=block_effects, covariates=names)
        design = bl.encode(table, partition, spec)
        coefs = rng.normal(size=design.n_columns)
        direct = direct_predictor(design, partition, coefs)
        assert np.abs(design.matrix @ coefs - direct).max() < 1e-12
        dense = design.matrix.toarray()
        assert np.array_equal(design.inestimable, ~dense.any(axis=0))
        # canonical CSR without explicit zeros is the CSR of the dense matrix
        canonical = sp.csr_array(dense)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(design.matrix, attr), getattr(canonical, attr))


def row_matrix(design):
    """The per-dyad reference matrix :attr:`DesignMatrix.matrix` reduced to
    the design's rows through its dyad→row map: each row's first dyad."""
    if design.dyad_rows is None:
        return design.matrix
    return design.matrix[np.unique(design.dyad_rows, return_index=True)[1]]


class TestMatrixFreeProducts:
    """The fits' products, :meth:`DesignMatrix.predictor` (X·beta over the
    rows) and :meth:`DesignMatrix.xt` (X'v), the map between rows and
    dyads and the ``inestimable`` flags, against the reference matrix that
    :attr:`DesignMatrix.matrix` assembles."""

    @settings(max_examples=80, deadline=None)
    @given(blocks=st.lists(st.integers(0, 3), min_size=2, max_size=10),
           node_effects=st.booleans(), block_effects=st.booleans(),
           k=st.integers(0, 2), zero_covariate=st.booleans(), seed=st.integers(0, 10_000))
    @example(blocks=[0, 0, 0, 0], node_effects=True, block_effects=True, k=1,
             zero_covariate=True, seed=0)
    @example(blocks=[0, 1, 0, 1, 1], node_effects=False, block_effects=True, k=2,
             zero_covariate=True, seed=1)
    @example(blocks=[1, 0], node_effects=True, block_effects=False, k=0,
             zero_covariate=False, seed=2)
    def test_products_match_reference(self, blocks, node_effects, block_effects, k,
                                      zero_covariate, seed):
        # blocks[t] is node t's block: p = 1 and p = 2 are drawn, and n = 2,
        # whose one node column is empty
        n = len(blocks)
        node_ids = tuple(f"v{t}" for t in range(n))
        labels, block_of = np.unique(blocks, return_inverse=True)
        partition = bl.Partition(tuple(f"B{b}" for b in labels),
                                 dict(zip(node_ids, block_of.tolist())))
        rng = np.random.default_rng(seed)
        m = n * (n - 1) // 2
        values = rng.choice([0.0, 0.0, 1.0, -2.5], size=(m, k))
        if zero_covariate:
            values = np.column_stack([values, np.zeros(m)])
        names = tuple(f"x{c}" for c in range(values.shape[1]))
        table = bl.DyadTable(node_ids, np.zeros(m), values, names)
        spec = bl.ModelSpec(family="bernoulli_logit", node_effects=node_effects,
                            block_main_effects=block_effects, covariates=names)
        design = bl.encode(table, partition, spec)
        beta = rng.normal(size=design.n_columns)
        assert_products_match(design, rng)
        # per dyad: X·beta expanded to the dyads, and X'u from u summed per row
        D, u = design.matrix, rng.normal(size=m)
        assert np.all(np.abs(design.dyad_values(design.predictor(beta)) - D @ beta)
                      <= 1e-12 * (abs(D) @ np.abs(beta)))
        assert np.all(np.abs(design.xt(design.row_sums(u)) - D.T @ u)
                      <= 1e-12 * (abs(D).T @ np.abs(u)))
        assert np.array_equal(design.inestimable,
                              np.bincount(design.matrix.indices, minlength=design.n_columns) == 0)


def assert_products_match(design, rng):
    """X·beta, X'v and X'WX over the rows against the reference matrix of
    the design, relative to the sum of the terms' magnitudes."""
    X = row_matrix(design)
    assert X.shape[0] == len(design.row_pairs)
    beta = rng.normal(size=design.n_columns)
    v = rng.normal(size=X.shape[0])
    assert np.all(np.abs(design.predictor(beta) - X @ beta) <= 1e-12 * (abs(X) @ np.abs(beta)))
    assert np.all(np.abs(design.xt(v) - X.T @ v) <= 1e-12 * (abs(X).T @ np.abs(v)))
    assert_gram_matches_oracle(design, rng)


def keep_rows(design, keep):
    """The design restricted to the rows ``keep`` and their dyads."""
    rows = dict(row_pairs=design.row_pairs[keep], covariate_values=design.covariate_values[keep])
    if design.dyad_rows is None:
        rows["row_nodes"] = tuple(ends[keep] for ends in design.row_nodes)
    else:
        kept = keep[design.dyad_rows]
        rows["dyad_rows"] = (np.cumsum(keep) - 1)[design.dyad_rows[kept]]
        rows["row_counts"] = design.row_counts[keep]
    return replace(design, **rows)


def interleaved_design(n, p, node_effects, k=0, seed=0):
    """A design whose node t is in block t % p, so that the dyads of one
    first endpoint change block pair at every step: runs of one key."""
    node_ids = tuple(f"v{t:02d}" for t in range(n))
    partition = bl.Partition(tuple(f"B{b}" for b in range(p)),
                             {v: t % p for t, v in enumerate(node_ids)})
    m = n * (n - 1) // 2
    values = np.random.default_rng(seed).choice([0.0, 1.0, -2.5], size=(m, k))
    names = tuple(f"x{c}" for c in range(k))
    table = bl.DyadTable(node_ids, np.zeros(m), values, names)
    spec = bl.ModelSpec(family="bernoulli_logit", node_effects=node_effects,
                        block_main_effects=not node_effects, covariates=names)
    return bl.encode(table, partition, spec)


class TestRunSums:
    """The run-length sums behind :meth:`DesignMatrix.xt` and
    :meth:`DesignMatrix.gram`, on keys that do not come in long runs, and
    the interaction coding cached on the design."""

    @pytest.mark.parametrize("node_effects", [True, False])
    @pytest.mark.parametrize("k", [0, 2])
    def test_interleaved_blocks(self, node_effects, k):
        design = interleaved_design(12, 3, node_effects, k, seed=k)
        if node_effects:  # the rows are the dyads, whose block pair changes at each step
            assert len(design._runs[0].keys) > len(np.unique(design.row_pairs))
        assert_products_match(design, np.random.default_rng(4))

    @pytest.mark.parametrize("node_effects", [True, False])
    def test_missing_dyads(self, node_effects):
        # DyadTable holds every pair, so rows and their dyads are dropped
        # from the design: some keys lose runs and, with node effects, one
        # first endpoint loses all of its dyads
        design = interleaved_design(10, 3, node_effects, k=1)
        keep = np.arange(len(design.row_pairs)) % 3 != 1
        if node_effects:
            keep &= design.row_nodes[0] != 4
        dropped = keep_rows(design, keep)
        assert dropped.n_dyads < design.n_dyads
        assert_products_match(dropped, np.random.default_rng(5))

    @pytest.mark.parametrize("node_effects", [True, False])
    def test_no_dyads(self, node_effects):
        design = interleaved_design(6, 2, node_effects, k=1)
        empty = keep_rows(design, np.zeros(len(design.row_pairs), dtype=bool))
        assert empty.n_dyads == 0 and empty.inestimable.all()
        assert np.array_equal(empty.xt(np.zeros(0)), np.zeros(empty.n_columns))
        A = np.full((empty.n_columns,) * 2, np.nan)
        b = empty.gram(np.zeros(0), np.zeros(0), A)
        assert not A.any() and not b.any()

    @pytest.mark.parametrize("node_effects", [True, False])
    def test_one_block(self, node_effects):
        # no interaction columns: the tail of pair_coding is empty, not all of it
        design = interleaved_design(6, 1, node_effects, k=1)
        assert design.group_indices(GROUP_INTERACTION).size == 0
        assert design._interactions[1].shape == (1, 0)
        out = design.interaction_matrix(np.arange(design.n_columns, dtype=float))
        assert np.array_equal(out, np.zeros((1, 1)))
        assert_products_match(design, np.random.default_rng(6))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 7), node_effects=st.booleans(),
           zeros=st.booleans())
    def test_interaction_matrix_is_bitwise_reconstruct(self, seed, p, node_effects, zeros):
        design = interleaved_design(max(p, 3) + 1, p, node_effects)
        rng = np.random.default_rng(seed)
        beta = rng.normal(scale=3.0, size=design.n_columns)
        if zeros:  # exact zeros of either sign, as a path's fits hold
            beta[rng.random(design.n_columns) < 0.5] = 0.0
            beta[rng.random(design.n_columns) < 0.3] = -0.0
        idx = design.group_indices(GROUP_INTERACTION)
        cached = design.interaction_matrix(beta)
        assert cached.tobytes() == reconstruct_interactions(beta[idx], p).tobytes()


class TestRankCertificate:
    """The design's rank certificate (:attr:`DesignMatrix.identification`)
    against the rank of the dense reference matrix, on small designs with
    planted deficiencies and on full-rank controls."""

    MODELS = {
        "degree_corrected": dict(node_effects=True),
        "covariate_adjusted": dict(block_main_effects=True),
        "node_and_block": dict(node_effects=True, block_main_effects=True),
        "pairs_only": dict(),
    }

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           model=st.sampled_from(sorted(MODELS)),
           planted=st.lists(st.sampled_from(["random", "constant", "zero", "copy", "scaled",
                                             "sum"]), max_size=3),
           seed=st.integers(0, 10_000))
    @example(sizes=[2, 5, 5, 5], model="degree_corrected", planted=[], seed=0)
    @example(sizes=[2, 5, 5, 5], model="covariate_adjusted", planted=["random"], seed=0)
    @example(sizes=[1, 4, 4], model="covariate_adjusted", planted=[], seed=0)
    @example(sizes=[1, 4, 4], model="degree_corrected", planted=[], seed=0)
    @example(sizes=[1, 1], model="degree_corrected", planted=[], seed=0)
    @example(sizes=[3, 3], model="pairs_only", planted=["random", "scaled", "sum"], seed=0)
    def test_rank_matches_dense_reference(self, sizes, model, planted, seed):
        n = sum(sizes)
        if n < 2:
            sizes, n = [*sizes, 1], n + 1
        node_ids = tuple(f"v{t:02d}" for t in range(n))
        partition = bl.Partition(tuple(f"B{b}" for b in range(len(sizes))),
                                 dict(zip(node_ids, np.repeat(np.arange(len(sizes)),
                                                              sizes).tolist())))
        rng = np.random.default_rng(seed)
        m = n * (n - 1) // 2
        columns = []
        for kind in planted:
            if kind == "constant":
                columns.append(np.full(m, 1.5))
            elif kind == "zero":
                columns.append(np.zeros(m))
            elif kind in ("copy", "scaled") and columns:
                columns.append(columns[-1] * (1.0 if kind == "copy" else -2.5))
            elif kind == "sum" and len(columns) > 1:
                columns.append(columns[0] + columns[-1])
            else:
                columns.append(rng.integers(0, 3, size=m).astype(float))
        names = tuple(f"x{c}" for c in range(len(columns)))
        table = bl.DyadTable(node_ids, np.zeros(m), np.column_stack([np.zeros((m, 0)), *columns]),
                             names)
        spec = bl.ModelSpec(family="poisson_log", covariates=names, **self.MODELS[model])
        design = bl.encode(table, partition, spec)

        inestimable, rank, dependent = design.identification
        X = design.matrix.toarray()
        assert rank == np.linalg.matrix_rank(X)
        assert np.array_equal(inestimable, ~X.any(axis=0))
        # the named columns are dependent, and the other estimable ones are not
        named = [design.column_names.index(name) for name in dependent]
        rest = [k for k in np.flatnonzero(~inestimable) if k not in named]
        assert bool(named) == (rank < len(rest) + len(named))
        assert np.linalg.matrix_rank(X[:, named]) < len(named) or not named
        assert np.linalg.matrix_rank(X[:, rest]) == len(rest)


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


def gram_oracle(design, w, z):
    """X'WX and X'Wz from the dense rows of the design."""
    X = row_matrix(design).toarray()
    return X.T @ (X * w[:, None]), X.T @ (w * z)


def assert_gram_matches_oracle(design, rng):
    """X'WX over every column equals the dense oracle within 1e-12, is
    exactly symmetric and has exactly zero rows and columns where the
    design has inestimable columns."""
    rows = len(design.row_pairs)
    w, z = rng.random(rows) + 0.1, rng.normal(size=rows)
    A = np.full((design.n_columns,) * 2, np.nan)  # every entry is written
    b = design.gram(w, z, A)
    A_oracle, b_oracle = gram_oracle(design, w, z)
    assert np.array_equal(A, A.T)
    assert np.abs(A - A_oracle).max(initial=0.0) < 1e-12
    assert np.abs(b - b_oracle).max(initial=0.0) < 1e-12
    assert not A[design.inestimable].any() and not A[:, design.inestimable].any()


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
    """:meth:`DesignMatrix.gram`, X'WX over every column of the design,
    against the dense design matrix."""

    @pytest.mark.parametrize("maker,kwargs", [
        (bernoulli_instance, dict(n=9, p=3)),
        (poisson_instance, dict(n=9, p=4, n_covariates=2)),
    ], ids=["node_effects", "block_effects"])
    def test_gram_of_every_estimable_column(self, maker, kwargs):
        _, _, _, design = maker(3, **kwargs)
        assert_gram_matches_oracle(design, np.random.default_rng(5))

    @pytest.mark.parametrize("make", [
        covariate_degree_corrected_design,
        lambda seed: bernoulli_instance(seed, n=10, p=4)[3],
        singleton_block_design,
    ], ids=["covariate", "four_blocks", "singleton_block"])
    def test_factored_gram_matches_dense_oracle(self, make):
        design = make(8)
        assert design.dyad_rows is None and len(design.row_pairs) == design.n_dyads
        assert_gram_matches_oracle(design, np.random.default_rng(9))

    @pytest.mark.parametrize("shape", ["degree_corrected", "covariate_adjusted", "replicates"])
    def test_working_gram_is_exactly_symmetric(self, shape):
        # the normal-equation solve reads X'WX through its transpose
        if shape == "degree_corrected":
            _, table, _, design = bernoulli_instance(6, n=40, p=5, node_scale=0.5)
        elif shape == "covariate_adjusted":
            _, table, _, design = poisson_instance(6, n=40, p=5, n_covariates=2)
        else:
            _, table, partition, _ = bernoulli_instance(6, n=40, p=4)
            design = bl.encode(table, partition, bl.ModelSpec(family="bernoulli_logit"))
        data = _CellData(design, table.response)
        eta = np.random.default_rng(6).normal(scale=0.5, size=len(data.y)) - 1.0
        A = np.empty((design.n_columns,) * 2)
        design.gram(*data.working(eta, data.evaluate(eta)[0]), A)
        assert np.array_equal(A, A.T)

    def test_gram_buffer_is_rebuilt_in_full(self):
        # node, block-pair and covariate parts of X'WX
        design = covariate_degree_corrected_design(7)
        rng = np.random.default_rng(7)
        rows = len(design.row_pairs)
        (w1, z1), (w2, z2) = [(rng.random(rows) + 0.1, rng.normal(size=rows))
                              for _ in range(2)]
        A = np.empty((design.n_columns,) * 2)
        design.gram(w1, z1, A)
        A[np.diag_indices_from(A)] += 2e-8  # the separation ridge, in place
        b_next = design.gram(w2, z2, A)
        A_fresh = np.empty_like(A)
        b_fresh = design.gram(w2, z2, A_fresh)
        assert np.array_equal(A, A_fresh) and np.array_equal(b_next, b_fresh)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 9), data=st.data(),
           kind=st.sampled_from(["degree_corrected", "covariate_adjusted", "custom"]))
    def test_factored_gram_property(self, seed, n, data, kind):
        # a partition with up to four blocks, often with singletons
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        used = sorted(set(labels))
        k = data.draw(st.integers(0, 2))
        _, table, _, _ = poisson_instance(seed, n=n, p=2, n_covariates=k,
                                          covariate_levels=data.draw(st.integers(0, 3)))
        partition = bl.Partition(tuple(f"B{b}" for b in used),
                                 {v: used.index(b) for v, b in zip(table.node_ids, labels)})
        if kind == "degree_corrected":
            spec = bl.ModelSpec.degree_corrected()
        elif kind == "covariate_adjusted":
            spec = bl.ModelSpec.covariate_adjusted(table.covariate_names)
        else:
            spec = bl.ModelSpec(family="bernoulli_logit", node_effects=data.draw(st.booleans()),
                                block_main_effects=data.draw(st.booleans()),
                                covariates=table.covariate_names)
        design = bl.encode(table, partition, spec)
        assert_gram_matches_oracle(design, np.random.default_rng(seed))


class TestCells:
    """The rows that :func:`encode` groups the dyads into: with node
    effects the dyads themselves, without them the distinct rows."""

    def test_node_effects_make_every_dyad_a_cell(self):
        _, table, _, design = bernoulli_instance(12, n=9, p=3)
        assert len(design.row_pairs) == design.n_dyads == table.dyad_count
        assert np.array_equal(np.column_stack(design.row_nodes), table.dyads)

    @pytest.mark.parametrize("make", [
        lambda: bernoulli_instance(12, n=9, p=3)[3],
        lambda: covariate_degree_corrected_design(12),
    ], ids=["degree_corrected", "covariate"])
    def test_node_effect_design_keeps_no_map_and_no_counts(self, make):
        design = make()
        assert design.dyad_rows is None and design.row_counts is None
        v = np.random.default_rng(12).normal(size=design.n_dyads)
        assert design.row_sums(v) is v and design.dyad_values(v) is v
        response = (v > 0).astype(float)
        data = _CellData(design, response)
        assert data.n == 1.0 and np.array_equal(data.y, response)

    @pytest.mark.parametrize("make", [
        lambda: poisson_instance(12, n=14, p=3, n_covariates=2, covariate_levels=2)[3],
        lambda: custom_design(12, n=14, p=3),
    ], ids=["covariate_adjusted_discrete", "custom_without_effects"])
    def test_every_dyad_row_is_its_cell_row(self, make):
        design = make()
        X, rows = design.matrix.toarray(), row_matrix(design).toarray()
        assert design.row_nodes is None
        assert len(rows) < design.n_dyads
        # the rows are distinct, and each dyad's row is the row of its dyad
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert np.array_equal(X, rows[design.dyad_rows])
        assert design.row_counts.sum() == design.n_dyads
        assert np.array_equal(np.bincount(design.dyad_rows), design.row_counts)
        y = np.arange(design.n_dyads, dtype=float)
        assert np.array_equal(design.row_sums(y), np.bincount(design.dyad_rows, y))

    def test_blocks_without_effects_give_one_cell_per_block_pair(self):
        design = custom_design(13, n=16, p=4)
        assert len(design.row_pairs) == 4 * 5 // 2

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated_values", "all_distinct"])
    def test_mixed_covariates_group_as_unique_rows(self, distinct):
        design = mixed_covariate_design(14, distinct=distinct)
        X = design.matrix.toarray()
        _, first, inverse, counts = np.unique(X, axis=0, return_index=True,
                                              return_inverse=True, return_counts=True)
        order = np.argsort(first)  # rows numbered by their first dyad
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        assert np.array_equal(design.dyad_rows, rank[inverse.reshape(-1)])
        assert np.array_equal(design.row_counts, counts[order])
        assert np.array_equal(row_matrix(design).toarray(), X[first[order]])


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
