"""The package's public surface: its export lists and the README example."""

import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest

import blocklasso as bl

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ["blocklasso", *(f"blocklasso.{name}" for name in (
    "covariates", "design", "glm", "graphs", "penalty", "reduced", "simulate"))]

PUBLIC = [
    "__version__",
    "AttributeTable",
    "AttributeTableError",
    "ConvergenceError",
    "CovariateError",
    "CovariateSpec",
    "DesignMatrix",
    "DyadTable",
    "EdgeListError",
    "FitResult",
    "GeneratorSpec",
    "Graph",
    "ModelSpec",
    "Partition",
    "PartitionError",
    "PathResult",
    "PenaltySpec",
    "ReducedGraph",
    "ScalingRecord",
    "SignSummary",
    "ValidationReport",
    "adaptive_weights",
    "allocate_blocks",
    "build_dyad_table",
    "encode",
    "export_reduced_graph",
    "fit_mle",
    "lambda_path",
    "load_attributes",
    "load_edge_list",
    "partition_from_attributes",
    "read_fit_json",
    "reconstruct_interactions",
    "reduce_positive",
    "reduce_threshold",
    "sample_graph",
    "select",
    "sparse_interactions",
    "standardize",
    "validate",
    "write_dataset",
]

# functions that only tests called; each is reached through another name
REMOVED = [
    ("penalty", "restricted_fit"),      # lambda_path(..., grid_size=1).fits[0]
    ("penalty", "lambda_max"),          # lambda_path(..., grid_size=1).lambdas[0]
    ("penalty", "fit_penalized"),       # select(lambda_path(..., grid_size=1), fixed_lambda=lam)
    ("penalty", "soft_threshold"),      # inline in the coordinate pass
    ("glm", "log_likelihood"),          # FitResult.log_likelihood
    ("covariates", "unstandardize_coefficients"),  # the ScalingRecord docstring
    ("graphs", "load_node_list"),       # load_edge_list(node_file=...)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_pinned():
    assert bl.__all__ == PUBLIC
    for module, name in REMOVED:
        assert not hasattr(importlib.import_module(f"blocklasso.{module}"), name)
        assert not hasattr(bl, name)


def readme_block(heading: str) -> str:
    """The first Python block under a second-level README heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def write_school_dataset(directory: Path) -> None:
    """A small school-shaped dataset: three teachers and 36 pupils in two
    classes, with class and gender attributes, and edges drawn from a
    blockmodel over the class-gender blocks and the teachers."""
    rng = np.random.default_rng(2)
    nodes = ["t01", "t02", "t03", *(f"s{k:02d}" for k in range(1, 37))]
    attributes = {t: ("1A", "F") for t in nodes[:3]}
    for k, v in enumerate(nodes[3:]):
        attributes[v] = (("1A", "1B")[k % 2], ("F", "M")[(k // 2) % 2])
    block = {v: "Teachers" if v.startswith("t") else "-".join(attributes[v]) for v in nodes}
    labels = sorted(set(block.values()))
    f = rng.normal(scale=0.8, size=(len(labels), len(labels)))
    f = (f + f.T) / 2.0
    edges = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            eta = -1.0 + f[labels.index(block[u]), labels.index(block[v])]
            if rng.random() < 1.0 / (1.0 + np.exp(-eta)):
                edges.append(f"{u},{v}\n")
    (directory / "edges.csv").write_text("".join(edges), encoding="utf-8")
    (directory / "attributes.csv").write_text(
        "node_id,class,gender\n" + "".join(f"{v},{c},{g}\n" for v, (c, g) in attributes.items()),
        encoding="utf-8")


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    code = readme_block("Library quick start")
    write_school_dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["mle"].converged and namespace["fit"].converged
    assert namespace["mle"].diagnostics["jitter_escalations"] == 0
    assert "Teachers" in namespace["partition"].block_labels
    printed = capsys.readouterr().out.strip()
    assert printed == str(namespace["rg"].sign_summary.as_tuple())
    assert namespace["rg_threshold"].rule == "threshold"
    assert (tmp_path / "reduced.dot").read_text(encoding="utf-8").startswith("graph")
