"""Seeded synthetic inputs for the benchmark workloads.

Every input is drawn with ``blocklasso.sample_graph`` and written as the
files ``blocklasso fit`` reads (``edges.csv``, ``attributes.csv``, an
optional ``config.json``) plus ``truth.json`` with the generating
interaction matrix. The same (workload, seed, index) always gives the
same files.

Run as a script to generate inputs in a separate process, so that the
memory used by generation never counts toward the fitting process:

    python3 perfbench/workloads.py WORKLOAD SEED FIRST COUNT DEST
"""

from __future__ import annotations

import csv
import json
import math
import sys
import zlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Each workload stresses a different part of the pipeline; the shapes
# follow the paper's two applications and its support-recovery study.
WORKLOADS = {
    # 21-block degree-corrected school network. The folded last-node
    # column makes X'WX builds dominate the path.
    "school_dc": {
        "family": "bernoulli_logit",
        "n": 242,
        "p": 21,
        "intercept": math.log(0.1 / 0.9),
        "node_effect_sd": 0.5,
        "fraction_zero": 0.5,
        "magnitude": 0.5,
        "fit_args": ["--model", "degree_corrected", "--threshold", "0.13",
                     "--format", "json", "--format", "dot", "--format", "graphml"],
    },
    # 10-party covariate-adjusted Poisson cosponsorship network. The CLI
    # builds the covariates from node attributes; age stays on its raw
    # scale, which slows the path's inner loop as the dyad count grows.
    # The only workload that exercises covariate construction and the
    # Poisson family. Runnable by hand but not listed in BENCHMARK.json:
    # its fit time swings between about 5 and 22 s from one draw to the
    # next, so no run of the allowed length gives a steady median.
    "parliament_cov": {
        "family": "poisson_log",
        "n": 450,
        "p": 10,
        "intercept": math.log(0.4),
        "block_effect_sd": 0.3,
        "fraction_zero": 0.5,
        "magnitude": 0.5,
        "female_share": 0.3,
        "constituencies": 30,
        "age_range": (30, 70),
        # gender:F-F, gender:F-M (reference M-M), same:constituency, absdiff:age
        "covariate_coefs": (0.3, 0.15, 0.5, -0.01),
        "fit_args": ["--grid-size", "10"],
    },
    # Criterion-5 replicate: many small fits without node effects, where
    # per-fit overhead and collapsible rows matter and Gram size does not.
    "replicates": {
        "family": "bernoulli_logit",
        "n": 200,
        "p": 4,
        "intercept": math.log(0.2 / 0.8),
        "fraction_zero": 0.5,
        "magnitude": 0.8,
        "fit_args": ["--model", "custom", "--family", "bernoulli_logit"],
    },
}

PARLIAMENT_CONFIG = {
    "mode": "weighted",
    "model": "covariate_adjusted",
    "covariates": [
        {"kind": "pair_dummies", "attribute": "gender", "reference": ["M", "M"]},
        {"kind": "same_value", "attribute": "constituency"},
        {"kind": "abs_difference", "attribute": "age"},
    ],
}


def fit_argv(workload: str, input_dir: Path, out_dir: Path) -> list[str]:
    """Arguments of the ``blocklasso fit`` call on one generated input."""
    argv = ["fit", "--edges", str(input_dir / "edges.csv"),
            "--attributes", str(input_dir / "attributes.csv"),
            "--partition-key", "block", "--out", str(out_dir)]
    if (input_dir / "config.json").exists():
        argv += ["--config", str(input_dir / "config.json")]
    return argv + WORKLOADS[workload]["fit_args"]


def _seeds(workload: str, seed: int, index: int):
    import numpy as np

    sequence = np.random.SeedSequence([seed, index, zlib.crc32(workload.encode())])
    truth_seed, graph_seed = (int(v) for v in sequence.generate_state(2))
    return np.random.default_rng(sequence), truth_seed, graph_seed


def generate(workload: str, seed: int, index: int, dest: Path) -> None:
    """Write input number ``index`` of ``workload`` under run seed ``seed``."""
    import numpy as np

    import blocklasso as bl

    params = WORKLOADS[workload]
    n, p = params["n"], params["p"]
    rng, truth_seed, graph_seed = _seeds(workload, seed, index)
    interactions = bl.sparse_interactions(p, params["fraction_zero"], params["magnitude"],
                                          seed=truth_seed)
    extra = {}
    if "node_effect_sd" in params:
        effects = rng.normal(0.0, params["node_effect_sd"], size=n)
        extra["node_effects"] = effects - effects.mean()
    if "block_effect_sd" in params:
        effects = rng.normal(0.0, params["block_effect_sd"], size=p)
        extra["block_effects"] = effects - effects.mean()
    attributes = None
    if workload == "parliament_cov":
        low, high = params["age_range"]
        attributes = {
            "gender": np.where(rng.random(n) < params["female_share"], "F", "M"),
            "constituency": np.array([f"c{v:02d}" for v in
                                      rng.integers(0, params["constituencies"], size=n)]),
            "age": rng.integers(low, high + 1, size=n),
        }
        iu, ju = np.triu_indices(n, k=1)
        gender = attributes["gender"]
        extra["covariate_values"] = np.column_stack([
            (gender[iu] == "F") & (gender[ju] == "F"),
            gender[iu] != gender[ju],
            attributes["constituency"][iu] == attributes["constituency"][ju],
            np.abs(attributes["age"][iu] - attributes["age"][ju]),
        ]).astype(np.float64)
        extra["covariate_coefs"] = np.array(params["covariate_coefs"])

    spec = bl.GeneratorSpec(n=n, p=p, family=params["family"], intercept=params["intercept"],
                            interactions=interactions, seed=graph_seed, **extra)
    graph, _table, partition = bl.sample_graph(spec)
    mode = "binary" if params["family"] == "bernoulli_logit" else "weighted"
    bl.write_dataset(dest, graph, partition, spec, mode=mode)
    if attributes is not None:
        # node ids sort in index order, so row k of the draw is node k
        with (dest / "attributes.csv").open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["node_id", "block", "gender", "constituency", "age"])
            for k, node in enumerate(graph.node_ids):
                writer.writerow([node, partition.label_of(node), attributes["gender"][k],
                                 attributes["constituency"][k], int(attributes["age"][k])])
        (dest / "config.json").write_text(json.dumps(PARLIAMENT_CONFIG, indent=2) + "\n",
                                          encoding="utf-8")


def main(argv: list[str]) -> int:
    workload, seed, first, count, dest = argv
    sys.path.insert(0, str(SRC))
    for index in range(int(first), int(first) + int(count)):
        generate(workload, int(seed), index, Path(dest) / f"input_{index:04d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
