"""Acceptance suite: one test per release criterion.

Criteria 7 and 8 replay the two published applications and only run when
the corresponding datasets are present (see README, "Reproduction
datasets"); without them they are skipped as waived, with criteria 3-6
standing in for the functionality.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import blocklasso as bl
from blocklasso.cli import main as cli_main
from blocklasso.design import reconstruct_interactions

from helpers import bernoulli_instance, poisson_instance
from oracles import brute_force_positive_pairs, damped_newton

DATA_ROOT = Path(os.environ.get("BLOCKLASSO_DATA", Path(__file__).resolve().parents[1] / "data"))


def test_criterion_01_parameter_count_identities():
    """Column counts obey n + p(p-1)/2 and dim(coefs) + p(p+1)/2 exactly."""
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(1, min(10, n) + 1))
        seed = int(rng.integers(0, 2**31))
        _, _, _, d1 = bernoulli_instance(seed, n=n, p=p)
        assert d1.n_columns == n + p * (p - 1) // 2
        assert d1.parameter_count == d1.n_columns
        k = int(rng.integers(0, 4))
        _, _, _, d2 = poisson_instance(seed, n=n, p=p, n_covariates=k)
        assert d2.n_columns == k + p * (p + 1) // 2
        assert d2.parameter_count == d2.n_columns


def test_criterion_02_constraint_closure():
    """Reconstructed interaction rows sum to zero within 1e-10, 1000 draws."""
    rng = np.random.default_rng(202)
    for _ in range(1000):
        p = int(rng.integers(1, 13))
        coefs = rng.normal(scale=5.0, size=p * (p - 1) // 2)
        phi = reconstruct_interactions(coefs, p)
        assert np.abs(phi.sum(axis=1)).max(initial=0.0) <= 1e-10
        assert np.array_equal(phi, phi.T)


def _identified_instances(count=25):
    """Deterministic stream of small identified instances.

    Screening uses only the independent oracle and dense linear algebra:
    the design must have full column rank and the oracle optimum must be
    moderate (plateaued, quasi-separated draws are not identifiable and
    coefficient comparison is meaningless there).
    """
    produced = 0
    seed = 0
    while produced < count:
        seed += 1
        if seed > 2000:
            raise RuntimeError("could not assemble enough identified instances")
        bernoulli = seed % 2 == 0
        if bernoulli:
            _, table, _, design = bernoulli_instance(seed, n=5 + seed % 4, p=1 + seed % 2,
                                                     intercept=0.2, magnitude=0.5)
            family = "bernoulli_logit"
        else:
            _, table, _, design = poisson_instance(seed, n=5 + seed % 4, p=1 + seed % 3,
                                                   n_covariates=seed % 3)
            family = "poisson_log"
        dense = design.matrix.toarray()[:, ~design.inestimable]
        if np.linalg.matrix_rank(dense) < dense.shape[1]:
            continue
        oracle = damped_newton(design.matrix.toarray(), table.response, family,
                               free=~design.inestimable)
        if np.abs(oracle).max(initial=0.0) > 5.0:
            continue
        produced += 1
        yield design, table, family, oracle


def test_criterion_03_mle_matches_independent_oracle():
    """fit_mle agrees with a damped-Newton oracle within 1e-6 per coefficient."""
    checked = 0
    for design, table, family, oracle in _identified_instances(25):
        fit = bl.fit_mle(design, table.response)
        assert fit.converged, "identified instance must converge"
        assert np.abs(fit.coefficients - oracle).max() <= 1e-6
        assert fit.diagnostics["score_max"] <= fit.diagnostics["score_bound"]
        checked += 1
    assert checked == 25


def _kkt_gap(design, response, family, weights, lam, coefficients):
    y = np.asarray(response, dtype=float)
    eta = design.matrix @ coefficients
    mu = 1.0 / (1.0 + np.exp(-eta)) if family == "bernoulli_logit" else np.exp(eta)
    score = design.matrix.T @ (y - mu)
    worst = 0.0
    for j in range(design.n_columns):
        if design.inestimable[j]:
            continue
        if not design.penalized_mask[j]:
            worst = max(worst, abs(score[j]))
        elif np.isinf(weights[j]):
            continue
        elif coefficients[j] != 0.0:
            worst = max(worst, abs(score[j] - lam * weights[j] * np.sign(coefficients[j])))
        else:
            worst = max(worst, max(0.0, abs(score[j]) - lam * weights[j]))
    return worst


def test_criterion_04_penalized_correctness():
    """lambda=0 matches the MLE, lambda >= lambda_max empties the active
    set, and KKT holds at every path point within 1e-5."""
    cases = [
        (bernoulli_instance, dict(n=20, p=3), "bernoulli_logit"),
        (bernoulli_instance, dict(n=30, p=4), "bernoulli_logit"),
        (poisson_instance, dict(n=20, p=3, n_covariates=2), "poisson_log"),
        (poisson_instance, dict(n=25, p=2, n_covariates=1), "poisson_log"),
    ]
    for base_seed, (maker, kwargs, family) in enumerate(cases):
        for rep in range(2):
            seed = 4000 + 10 * base_seed + rep
            _, table, _, design = maker(seed, **kwargs)
            mle = bl.fit_mle(design, table.response)
            assert mle.converged
            weights = bl.adaptive_weights(mle, design.penalized_mask)

            # one penalty level: select refits the one-point path there
            top = bl.lambda_path(design, table.response, weights=weights, grid_size=1)
            zero = bl.select(top, fixed_lambda=0.0)
            assert np.abs(zero.coefficients - mle.coefficients).max() <= 1e-6

            lam_max = float(top.lambdas[0])
            assert np.count_nonzero(top.fits[0].coefficients[design.penalized_mask]) == 0
            above = bl.select(top, fixed_lambda=1.01 * lam_max)
            assert np.count_nonzero(above.coefficients[design.penalized_mask]) == 0

            path = bl.lambda_path(design, table.response, weights=weights, grid_size=30)
            for lam, fit in zip(path.lambdas, path.fits):
                gap = _kkt_gap(design, table.response, family, weights,
                               float(lam), fit.coefficients)
                assert gap <= 1e-5, f"KKT gap {gap:.2e} at lambda={lam:.4g}"


def test_criterion_05_support_recovery():
    """BIC-selected adaptive lasso recovers the exact interaction support
    in at least 80% of 50 seeded replicates (n=200, p=4, half the
    off-diagonal interactions zero, magnitude 0.8, density ~0.2)."""
    intercept = float(np.log(0.2 / 0.8))
    hits = 0
    for rep in range(50):
        truth = bl.sparse_interactions(4, 0.5, 0.8, seed=500 + rep)
        spec = bl.GeneratorSpec(n=200, p=4, family="bernoulli_logit",
                                intercept=intercept, interactions=truth, seed=900 + rep)
        _, table, partition = bl.sample_graph(spec)
        design = bl.encode(table, partition,
                           bl.ModelSpec(family="bernoulli_logit"))
        mle = bl.fit_mle(design, table.response)
        assert mle.converged
        weights = bl.adaptive_weights(mle, design.penalized_mask)
        path = bl.lambda_path(design, table.response, weights=weights)
        selected = bl.select(path)
        iu, ju = np.triu_indices(4, k=1)
        true_support = truth[iu, ju] != 0
        found = selected.coefficients[design.group_indices("interaction")] != 0
        hits += bool(np.array_equal(true_support, found))
    assert hits >= 40, f"recovered support in only {hits}/50 replicates"


def test_criterion_06_reduced_graph_rules():
    """Positive rule equals the brute-force scan on 1000 random
    constrained matrices; the threshold rule is monotone in t."""
    rng = np.random.default_rng(606)
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        phi = reconstruct_interactions(rng.normal(size=p * (p - 1) // 2), p)
        rg = bl.reduce_positive(phi)
        assert set(rg.edges) == brute_force_positive_pairs(phi)
        assert rg.sign_summary.total == p * (p + 1) // 2

    _, table, _, design = bernoulli_instance(660, n=14, p=3)
    fit = bl.fit_mle(design, table.response)
    previous = None
    for t in np.linspace(0.0, 1.0, 11):
        edges = set(bl.reduce_threshold(fit, design, float(t)).edges)
        if previous is not None:
            assert edges.issubset(previous)
        previous = edges


def _school_inputs():
    root = DATA_ROOT / "school"
    edges = root / "edges.csv"
    attrs = root / "attributes.csv"
    if not (edges.exists() and attrs.exists()):
        pytest.skip(f"waived: school contact dataset not available under {root} "
                    "(criteria 3-6 cover the functionality); see README for the layout")
    return edges, attrs


def test_criterion_07_school_reproduction():
    """Day-1 school contact network, 21 blocks: MLE signs exactly
    (86 positive, 145 negative); adaptive lasso (52, 88, 91) within 10%."""
    edges_path, attrs_path = _school_inputs()
    attrs = bl.load_attributes(attrs_path)
    graph = bl.load_edge_list(edges_path, mode="binary", extra_nodes=attrs.node_ids)
    overrides = {node: "Teachers" for node in attrs.node_ids
                 if attrs.value(node, "class") == "Teachers"}
    partition = bl.partition_from_attributes(attrs, ["class", "gender"], overrides)
    assert partition.block_count == 21
    table = bl.build_dyad_table(graph)
    design = bl.encode(table, partition, bl.ModelSpec.degree_corrected())
    mle = bl.fit_mle(design, table.response)
    assert mle.converged
    signs = bl.reduce_positive(mle.block_interactions, partition.block_labels).sign_summary
    assert signs.total == 231
    assert signs.as_tuple() == (86, 0, 145)

    weights = bl.adaptive_weights(mle, design.penalized_mask)
    path = bl.lambda_path(design, table.response, weights=weights)
    selected = bl.select(path)
    lasso = bl.reduce_positive(selected.block_interactions, partition.block_labels).sign_summary
    for observed, target in zip(lasso.as_tuple(), (52, 88, 91)):
        assert abs(observed - target) <= 0.1 * target


def _parliament_inputs():
    root = DATA_ROOT / "parliament"
    edges = root / "edges.csv"
    attrs = root / "attributes.csv"
    if not (edges.exists() and attrs.exists()):
        pytest.skip(f"waived: parliament cosponsorship dataset not available under {root} "
                    "(criteria 3-6 cover the functionality); see README for the layout")
    return edges, attrs


def test_criterion_08_parliament_reproduction():
    """Cosponsorship network, 10 party blocks with six covariates: MLE
    coefficients within 0.05 of the published values; adaptive lasso
    zeroes the age-difference coefficient; signs near (21, 16, 18)."""
    edges_path, attrs_path = _parliament_inputs()
    attrs = bl.load_attributes(attrs_path)
    graph = bl.load_edge_list(edges_path, mode="weighted", extra_nodes=attrs.node_ids)
    partition = bl.partition_from_attributes(attrs, ["party"])
    assert partition.block_count == 10
    specs = [
        bl.CovariateSpec(kind="pair_dummies", attribute="gender", reference=("M", "M")),
        bl.CovariateSpec(kind="same_value", attribute="constituency"),
        bl.CovariateSpec(kind="abs_difference", attribute="age"),
        bl.CovariateSpec(kind="pair_dummies", attribute="seniority",
                         reference=("junior", "junior")),
    ]
    table = bl.build_dyad_table(graph, attrs, specs)
    design = bl.encode(table, partition, bl.ModelSpec.covariate_adjusted(table.covariate_names))
    mle = bl.fit_mle(design, table.response)
    assert mle.converged
    published = {
        "intercept": -3.83,
        "gender:F-M": 0.233,
        "gender:F-F": 0.659,
        "same:constituency": 0.550,
        "absdiff:age": -0.011,
        "seniority:junior-senior": 0.253,
        "seniority:senior-senior": 0.700,
    }
    for name, value in published.items():
        assert abs(mle.coefficient(name) - value) <= 0.05, name

    weights = bl.adaptive_weights(mle, design.penalized_mask)
    path = bl.lambda_path(design, table.response, weights=weights)
    selected = bl.select(path)
    assert selected.coefficient("absdiff:age") == 0.0
    signs = bl.reduce_positive(selected.block_interactions, partition.block_labels).sign_summary
    assert signs.total == 55
    for observed, target in zip(signs.as_tuple(), (21, 16, 18)):
        assert abs(observed - target) <= 3


def test_criterion_09_run_determinism(tmp_path):
    """Two runs with identical config and inputs produce byte-identical
    coefficient CSVs and reduced-graph JSON."""
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--n", "24", "--p", "3", "--fraction-zero", "0.4",
                     "--magnitude", "0.8", "--intercept", "-0.5", "--seed", "12",
                     "--out", str(sim)]) == 0
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["fit", "--edges", str(sim / "edges.csv"),
                         "--attributes", str(sim / "attributes.csv"),
                         "--partition-key", "block", "--model", "custom",
                         "--family", "bernoulli_logit", "--grid-size", "25",
                         "--out", str(out)]) == 0
        outputs.append(out)
    first, second = outputs
    for artifact in ("mle_coefficients.csv", "selected_coefficients.csv",
                     "reduced_mle.json", "reduced_selected.json"):
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), artifact
    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
