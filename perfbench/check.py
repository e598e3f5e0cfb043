"""Output check for ``blocklasso fit`` that does not trust the solver.

For each fit the design is rebuilt from the input files with the public
loaders and ``encode``; the two serialized fits are reloaded with
``read_fit_json`` and the score ``X'(y - mu)`` is recomputed from their
coefficients. The MLE must meet its documented score bound, and the
BIC-selected fit must satisfy the adaptive-lasso KKT conditions within
``KKT_BAR`` at its lambda, with weights from ``adaptive_weights``.

Run as a script on the list of fits a run made; it prints a JSON list
with a verdict, a support digest and support counts for each fit:

    python3 perfbench/check.py FITS_JSON
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import expit

import workloads

KKT_BAR = 1e-5        # acceptance criterion 4
SCORE_TOL = 1e-6      # the MLE's documented bound: SCORE_TOL * (1 + max|X'y|)


def expected_artifacts(workload: str) -> list[str]:
    args = workloads.WORKLOADS[workload]["fit_args"]
    formats = [args[k + 1] for k, a in enumerate(args) if a == "--format"] or ["dot"]
    suffixes = list(dict.fromkeys(["json", *formats]))
    stems = ["reduced_mle", "reduced_selected"]
    if "--threshold" in args:
        stems.append("reduced_mle_threshold")
    names = [f"{stem}.{suffix}" for stem in stems for suffix in suffixes]
    return names + ["mle_fit.json", "mle_coefficients.csv", "path_summary.csv",
                    "selected_fit.json", "selected_coefficients.csv", "summary.json",
                    "validation.json", "manifest.json"]


def rebuild(workload: str, input_dir: Path):
    """Dyad table and design for one input, as the CLI builds them."""
    import blocklasso as bl

    config = {}
    if (input_dir / "config.json").exists():
        config = json.loads((input_dir / "config.json").read_text(encoding="utf-8"))
    params = workloads.WORKLOADS[workload]
    attrs = bl.load_attributes(input_dir / "attributes.csv")
    graph = bl.load_edge_list(input_dir / "edges.csv", mode=config.get("mode", "binary"),
                              extra_nodes=attrs.node_ids)
    partition = bl.partition_from_attributes(attrs, ["block"])
    specs = [bl.CovariateSpec.from_json_dict(d) for d in config.get("covariates", [])]
    table = bl.build_dyad_table(graph, attrs, specs)
    model = config.get("model") or params["fit_args"][params["fit_args"].index("--model") + 1]
    if model == "degree_corrected":
        spec = bl.ModelSpec.degree_corrected()
    elif model == "covariate_adjusted":
        spec = bl.ModelSpec.covariate_adjusted(table.covariate_names)
    else:
        spec = bl.ModelSpec(family=params["family"])
    return table, bl.encode(table, partition, spec)


def score(design, coefficients, response, family: str):
    eta = design.matrix @ coefficients
    mu = expit(eta) if family == "bernoulli_logit" else np.exp(eta)
    return design.matrix.T @ (response - mu)


def kkt_gap(design, fit, weights, response) -> float:
    """Largest violation of the adaptive-lasso KKT conditions at the
    fit's own lambda, in score units."""
    beta = fit.coefficients
    lam = float(fit.diagnostics["lambda"])
    s = score(design, beta, response, fit.family)
    free = ~design.inestimable
    frozen = design.penalized_mask & np.isinf(weights)
    if np.any(beta[~free | frozen] != 0.0):
        return float("inf")
    unpen = free & ~design.penalized_mask
    pen = free & design.penalized_mask & ~frozen
    gaps = [np.abs(s[unpen])]
    bound = lam * weights[pen]
    b, sp = beta[pen], s[pen]
    gaps.append(np.where(b != 0.0, np.abs(sp - bound * np.sign(b)),
                         np.maximum(0.0, np.abs(sp) - bound)))
    return float(np.concatenate(gaps).max(initial=0.0))


def check_fit(workload: str, input_dir: Path, out_dir: Path) -> dict:
    import blocklasso as bl

    missing = [name for name in expected_artifacts(workload) if not (out_dir / name).is_file()]
    if missing:
        return {"ok": False, "reason": f"missing artifacts: {missing}"}
    table, design = rebuild(workload, input_dir)
    y = table.response.astype(np.float64)
    mle = bl.read_fit_json(out_dir / "mle_fit.json")
    selected = bl.read_fit_json(out_dir / "selected_fit.json")
    for fit in (mle, selected):
        if fit.column_names != design.column_names:
            return {"ok": False, "reason": "fit columns differ from the rebuilt design"}
    if not mle.converged:
        return {"ok": False, "reason": "MLE did not converge"}

    free = ~design.inestimable
    score_max = float(np.abs(score(design, mle.coefficients, y, mle.family)[free]).max())
    score_bound = SCORE_TOL * (1.0 + float(np.abs(design.matrix.T @ y).max()))
    weights = bl.adaptive_weights(mle, design.penalized_mask)
    gap = kkt_gap(design, selected, weights, y)

    truth = np.array(json.loads((input_dir / "truth.json").read_text())["interactions"])
    p = truth.shape[0]
    labels = [f"B{r + 1:02d}" for r in range(p)]
    if list(selected.block_labels) != labels:
        return {"ok": False, "reason": "block labels differ from the generated partition"}
    iu, ju = np.triu_indices(p, k=1)
    agree = (truth[iu, ju] != 0) == (selected.block_interactions[iu, ju] != 0)

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    upper = selected.block_interactions[np.triu_indices(p)]
    signs = {
        "selected_signs": np.sign(upper).astype(int).tolist(),
        "summary": {key: summary[key]["sign_summary"] for key in ("mle", "selected")},
    }
    digest = hashlib.sha256(json.dumps(signs, sort_keys=True).encode()).hexdigest()[:16]

    reasons = []
    if not score_max <= score_bound:
        reasons.append(f"MLE score {score_max:.3g} above its bound {score_bound:.3g}")
    if not gap <= KKT_BAR:
        reasons.append(f"selected fit KKT gap {gap:.3g} above {KKT_BAR:g}")
    return {
        "ok": not reasons,
        "reason": "; ".join(reasons),
        "mle_score_max": score_max,
        "mle_score_bound": score_bound,
        "kkt_gap": gap,
        "digest": digest,
        "pairs": int(len(agree)),
        "pairs_agreeing": int(agree.sum()),
        "support_exact": bool(agree.all()),
    }


def main(argv: list[str]) -> int:
    fits = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    verdicts = []
    for fit in fits:
        try:
            verdict = check_fit(fit["workload"], Path(fit["input"]), Path(fit["out"]))
        except Exception as exc:  # a broken artifact fails that fit, not the check
            verdict = {"ok": False, "reason": f"check raised {type(exc).__name__}: {exc}"}
        verdicts.append(verdict)
    print(json.dumps(verdicts))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(workloads.SRC))
    sys.exit(main(sys.argv[1:]))
