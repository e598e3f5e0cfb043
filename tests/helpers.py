"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np

import blocklasso as bl
from blocklasso.graphs import _dyad_index


def graph_from_weights(weights, prefix="v") -> bl.Graph:
    """The graph of a symmetric weight matrix with a zero diagonal."""
    weights = np.asarray(weights)
    n = weights.shape[0]
    assert weights.shape == (n, n) and np.array_equal(weights, weights.T)
    assert not np.diag(weights).any()
    width = max(2, len(str(n - 1)))
    return bl.Graph(tuple(f"{prefix}{i:0{width}d}" for i in range(n)),
                    weights[np.triu_indices(n, k=1)])


def edge_weight(graph: bl.Graph, u: str, v: str) -> int:
    """The weight between the nodes ``u`` and ``v`` of ``graph``."""
    i, j = graph.node_ids.index(u), graph.node_ids.index(v)
    return int(graph.weights[_dyad_index(i, j, graph.node_count)])


def one_block_partition(graph: bl.Graph) -> bl.Partition:
    return bl.Partition(("all",), {v: 0 for v in graph.node_ids})


def bernoulli_instance(seed: int, n: int = 12, p: int = 3, *, intercept: float = -0.3,
                       fraction_zero: float = 0.3, magnitude: float = 0.8,
                       node_scale: float = 0.0):
    """Graph + dyad table + partition + degree-corrected design."""
    interactions = bl.sparse_interactions(p, fraction_zero, magnitude, seed=seed) if p > 1 else None
    node_effects = None
    if node_scale > 0:
        rng = np.random.default_rng(seed + 77)
        node_effects = rng.normal(scale=node_scale, size=n)
        node_effects -= node_effects.mean()
    spec = bl.GeneratorSpec(n=n, p=p, family="bernoulli_logit", intercept=intercept,
                            interactions=interactions, node_effects=node_effects, seed=seed)
    graph, table, partition = bl.sample_graph(spec)
    design = bl.encode(table, partition, bl.ModelSpec.degree_corrected())
    return graph, table, partition, design


def poisson_instance(seed: int, n: int = 12, p: int = 3, *, intercept: float = 0.3,
                     n_covariates: int = 0, fraction_zero: float = 0.3,
                     magnitude: float = 0.5, covariate_levels: int = 0):
    """Graph + dyad table + partition + covariate-adjusted design; the
    covariates are standard normal, or integers in [0, covariate_levels)
    when that is positive."""
    interactions = bl.sparse_interactions(p, fraction_zero, magnitude, seed=seed) if p > 1 else None
    rng = np.random.default_rng(seed + 13)
    block_effects = None
    if p > 1:
        block_effects = rng.normal(scale=0.2, size=p)
        block_effects -= block_effects.mean()
    covariates = coefs = None
    if n_covariates:
        m = n * (n - 1) // 2
        if covariate_levels:
            covariates = rng.integers(0, covariate_levels, size=(m, n_covariates)).astype(float)
        else:
            covariates = rng.normal(size=(m, n_covariates))
        coefs = rng.normal(scale=0.3, size=n_covariates)
    spec = bl.GeneratorSpec(n=n, p=p, family="poisson_log", intercept=intercept,
                            interactions=interactions, block_effects=block_effects,
                            covariate_values=covariates, covariate_coefs=coefs, seed=seed)
    graph, table, partition = bl.sample_graph(spec)
    design = bl.encode(table, partition, bl.ModelSpec.covariate_adjusted(table.covariate_names))
    return graph, table, partition, design
