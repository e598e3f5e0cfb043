"""Command-line front door: fit, simulate, compare and validate.

A run is driven by a single JSON config document; command-line flags
override individual config fields (flags > config > defaults).
``FIT_SETTINGS`` (fit and validate) and ``SIMULATE_SETTINGS`` list every
setting by dotted name with its type, default and flag. An unknown key, a
section that is not a JSON object, a value of the wrong type and a
malformed ``covariates`` entry exit 3 and name the dotted key (or
``covariates[k]``) before any input is read or output written. All
artifacts are plain files in the output directory, written with sorted
keys and shortest-round-trip float formatting, so repeated runs with the
same config and inputs produce byte-identical coefficient CSVs and
reduced-graph JSON.

Exit codes: 0 success, 2 usage or I/O error, 3 data or validation
error, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .covariates import CovariateError, CovariateSpec, build_dyad_table, standardize
from .design import ModelSpec, encode
from .glm import ConvergenceError, FitResult, fit_mle, read_fit_json
from .graphs import (AttributeTable, _write_json, load_attributes, load_edge_list,
                     partition_from_attributes, validate)
from .penalty import PenaltySpec, adaptive_weights, lambda_path, select
from .reduced import export_reduced_graph, reduce_positive, reduce_threshold

EXIT_OK = 0
EXIT_IO = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

MODELS = ("degree_corrected", "covariate_adjusted", "custom")
# the settings of a ModelSpec that the two presets fix
MODEL_SETTINGS = ("family", "node_effects", "block_main_effects", "penalize_covariates")
FORMATS = ("json", "dot", "graphml")


# --------------------------------------------------------------------------
# settings


# Every setting of a command: its dotted config name (``penalty.gamma_w``
# is the ``gamma_w`` key of the ``penalty`` object), its type, its default
# and, in the comment, the flag whose argparse ``dest`` is that name.
FIT_SETTINGS = {
    "edges": (str, None),                         # --edges
    "mode": (str, "binary"),                      # --mode binary|weighted
    "has_header": (bool, False),                  # --has-header
    "attributes": (str, None),                    # --attributes
    "nodes": (str, None),                         # --nodes
    "partition.keys": (list, []),                 # --partition-key (repeatable)
    "partition.overrides": (dict, {}),            # --override NODE=LABEL (repeatable)
    "model": (str, "degree_corrected"),           # --model
    "family": (str, None),                        # --family
    "node_effects": (bool, None),
    "block_main_effects": (bool, None),
    "covariates": (list, []),
    "penalize_covariates": (bool, None),
    "standardize": (list, []),
    "penalty.enabled": (bool, True),              # --penalized / --no-penalized
    "penalty.gamma_w": (float, 1.0),              # --gamma-w
    "penalty.grid_size": (int, 100),              # --grid-size
    "penalty.grid_ratio": (float, 1e-4),          # --grid-ratio
    "penalty.lambda": ((str, float), "auto"),     # --lambda auto|NUMBER
    "threshold": (float, None),                   # --threshold
    "formats": (list, ["json", "dot"]),           # --format (repeatable)
    "styling": (dict, {}),
    "out": (str, "blocklasso_out"),               # --out
}

SIMULATE_SETTINGS = {
    "simulate.n": (int, 40),                      # --n
    "simulate.p": (int, 4),                       # --p
    "simulate.family": (str, "bernoulli_logit"),  # --family
    "simulate.intercept": (float, 0.0),           # --intercept
    "simulate.fraction_zero": (float, 0.5),       # --fraction-zero
    "simulate.magnitude": (float, 0.8),           # --magnitude
    "simulate.interactions": (list, None),
    "simulate.node_effects": (list, None),
    "simulate.block_effects": (list, None),
    "simulate.block_sizes": (list, None),
    "simulate.seed": (int, 0),                    # --seed
    "out": (str, "blocklasso_sim"),               # --out
}

_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer",
               float: "a number", list: "a list", dict: "a JSON object"}


def _config_items(document, settings: dict, section: str = ""):
    """The (dotted name, value) pairs of a config document; an unknown
    key or a section that is not a JSON object is refused."""
    if not isinstance(document, dict):
        where = f"section {section!r}" if section else "document"
        raise ValueError(f"config {where} must be a JSON object, got {document!r}")
    for key, value in document.items():
        name = f"{section}.{key}" if section else key
        if name in settings:
            yield name, value
        elif not section and any(s.startswith(name + ".") for s in settings):
            yield from _config_items(value, settings, name)
        else:
            raise ValueError(f"unknown config key {name!r}")


def _typed(name: str, value, kind, default):
    """``value`` checked against the setting's type ``kind`` (a type or a
    tuple of types). A float setting takes any JSON number and stores a
    float; None is taken only where the default is None."""
    if value is None and default is None:
        return None
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for one in kinds:
        if isinstance(value, bool) and one is not bool:
            continue  # JSON true and false are not numbers
        if one is float and isinstance(value, int):
            return float(value)
        if isinstance(value, one):
            return value
    expected = " or ".join(_TYPE_NAMES[one] for one in kinds)
    raise ValueError(f"setting {name!r} must be {expected}, got {value!r}")


def _resolve(args, settings: dict) -> dict:
    """The run's nested config document: the defaults of ``settings``,
    then the ``--config`` document, then the flags. Repeated
    ``--override NODE=LABEL`` flags merge into the mapping they set."""
    values = json.loads(json.dumps({name: default for name, (_, default) in settings.items()}))
    if args.config is not None:
        document = json.loads(Path(args.config).read_text(encoding="utf-8"))
        values.update(_config_items(document, settings))
    for name, (kind, _) in settings.items():
        flag = getattr(args, name, None)
        if flag is not None and kind is dict:  # repeated --override NODE=LABEL
            for item in flag:
                if not item.partition("=")[2]:
                    raise ValueError(f"--override takes NODE=LABEL, got {item!r}")
            flag = {**values[name], **dict(item.partition("=")[::2] for item in flag)}
        if flag is not None:
            values[name] = flag
    cfg: dict = {}
    for name, (kind, default) in settings.items():
        section, _, key = name.rpartition(".")
        node = cfg.setdefault(section, {}) if section else cfg
        node[key] = _typed(name, values[name], kind, default)
    return cfg


def _resolve_fit_config(args) -> tuple[dict, list[CovariateSpec], PenaltySpec | None]:
    """The fit's config document, its covariate entries checked as
    :class:`CovariateSpec` objects, and its penalty settings checked as a
    :class:`PenaltySpec` (``None`` when the penalty is disabled), so that
    bad settings fail before any work is done."""
    cfg = _resolve(args, FIT_SETTINGS)
    covariates = []
    for k, entry in enumerate(cfg["covariates"]):
        try:
            covariates.append(CovariateSpec.from_json_dict(entry))
        except CovariateError as exc:
            raise ValueError(f"setting 'covariates[{k}]': {exc}") from None
    if not all(isinstance(style, dict) for style in cfg["styling"].values()):
        raise ValueError("config 'styling' must map block labels to JSON objects")
    cfg["formats"] = list(dict.fromkeys(cfg["formats"]))
    if not all(f in FORMATS for f in cfg["formats"]):
        raise ValueError(f"setting 'formats' must be drawn from {FORMATS}, "
                         f"got {cfg['formats']!r}")
    if cfg["edges"] is None:
        raise ValueError("no edge file given (use --edges or the config)")
    model = cfg["model"]
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if model == "custom" and not cfg["family"]:
        raise ValueError("custom model needs a family")
    if model == "degree_corrected" and covariates:
        raise ValueError("the degree_corrected preset takes no covariates; use custom")
    # a preset (the ModelSpec constructor of the same name) fixes the
    # model settings, which the config then records; a custom model has
    # no effect group that it does not ask for
    preset = ModelSpec(cfg["family"]) if model == "custom" else getattr(ModelSpec, model)()
    for key in MODEL_SETTINGS:
        if model != "custom" and cfg[key] not in (None, getattr(preset, key)):
            raise ValueError(f"setting {key!r} is {cfg[key]!r}, but the {model} preset fits "
                             f"{getattr(preset, key)!r}; leave it out, or use the custom model")
        cfg[key] = getattr(preset, key) if cfg[key] is None else cfg[key]
    if cfg["threshold"] is not None:
        if not 0.0 <= cfg["threshold"] <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {cfg['threshold']}")
        if cfg["family"] != "bernoulli_logit":
            raise ValueError("the threshold rule needs fitted probabilities; "
                             "it is undefined for rate (Poisson) fits")
    penalty = cfg["penalty"]
    if penalty["lambda"] != "auto":
        try:
            penalty["lambda"] = float(penalty["lambda"])
        except ValueError:
            raise ValueError("setting 'penalty.lambda' must be 'auto' or a number, "
                             f"got {penalty['lambda']!r}") from None
    if not penalty["enabled"]:
        return cfg, covariates, None
    # a numeric lambda selects that penalty, "auto" the BIC minimizer
    return cfg, covariates, PenaltySpec(
        gamma_w=penalty["gamma_w"],
        grid_size=penalty["grid_size"],
        grid_ratio=penalty["grid_ratio"],
        fixed_lambda=None if penalty["lambda"] == "auto" else penalty["lambda"],
    )


def _config_hash(cfg: dict) -> str:
    # the output directory does not affect what is computed
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(command: str, cfg: dict, inputs: list, timings: dict, out_dir: Path) -> None:
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "inputs": {str(p): _sha256_file(p) for p in inputs if p and Path(p).exists()},
        "versions": {
            "blocklasso": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timings": timings,
    }
    _write_json(out_dir / "manifest.json", manifest)


# --------------------------------------------------------------------------
# fit


def _load_inputs(cfg: dict):
    attrs = load_attributes(cfg["attributes"]) if cfg["attributes"] else None
    extra_nodes = attrs.node_ids if attrs else ()
    graph = load_edge_list(cfg["edges"], mode=cfg["mode"], extra_nodes=extra_nodes,
                           node_file=cfg["nodes"], has_header=cfg["has_header"])
    attrs_for_partition = attrs if attrs is not None else AttributeTable(graph.node_ids, {})
    partition = partition_from_attributes(attrs_for_partition, cfg["partition"]["keys"],
                                          cfg["partition"]["overrides"])
    return graph, attrs, partition


def _reduced_outputs(out_dir: Path, stem: str, rg, formats, styling) -> None:
    for fmt in dict.fromkeys(["json", *formats]):
        export_reduced_graph(rg, fmt, out_dir / f"{stem}.{fmt}", styling=styling or None)


def cmd_fit(args) -> int:
    started = time.perf_counter()
    cfg, covariates, penalty = _resolve_fit_config(args)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    graph, attrs, partition = _load_inputs(cfg)
    report = validate(graph, partition)
    _write_json(out_dir / "validation.json", report.to_json_dict())
    if not report.passed:
        raise ValueError("input validation failed:\n" + report.to_text())
    # an all-zero response, or an all-one Bernoulli response, has no finite MLE
    edges = graph.edge_count
    if edges == 0:
        raise ValueError("the graph has no edges, so no maximum-likelihood estimate is finite")
    if edges == len(graph.weights) and cfg["family"] == "bernoulli_logit":
        raise ValueError("every dyad is an edge, so no Bernoulli maximum-likelihood "
                         "estimate is finite")

    table = build_dyad_table(graph, attrs, covariates)
    scaling = None
    if cfg["standardize"]:
        table, scaling = standardize(table, cfg["standardize"])
    spec = ModelSpec(covariates=table.covariate_names, **{key: cfg[key] for key in MODEL_SETTINGS})
    design = encode(table, partition, spec)

    t_fit = time.perf_counter()
    mle = fit_mle(design, table.response)
    mle.write_json(out_dir / "mle_fit.json")
    mle.write_coefficients_csv(out_dir / "mle_coefficients.csv")
    rg_mle = reduce_positive(mle.block_interactions, partition.block_labels)
    _reduced_outputs(out_dir, "reduced_mle", rg_mle, cfg["formats"], cfg["styling"])
    if cfg["threshold"] is not None:
        rg_thresh = reduce_threshold(mle, design, cfg["threshold"])
        _reduced_outputs(out_dir, "reduced_mle_threshold", rg_thresh,
                         cfg["formats"], cfg["styling"])

    summary = {
        "n": graph.node_count,
        "p": partition.block_count,
        "dyads": table.dyad_count,
        "family": spec.family,
        "model": cfg["model"],
        "columns": design.n_columns,
        "parameter_count": design.parameter_count,
        "mle": {
            "log_likelihood": mle.log_likelihood,
            "deviance": mle.deviance,
            "converged": mle.converged,
            "sign_summary": rg_mle.sign_summary.to_json_dict(),
        },
    }

    t_path = time.perf_counter()
    if penalty is not None:
        if not mle.converged:
            raise ConvergenceError(
                "maximum-likelihood fit did not converge "
                f"(cause: {mle.diagnostics.get('cause')}); cannot derive penalty weights"
            )
        weights = adaptive_weights(mle, design.penalized_mask, penalty.gamma_w)
        path = lambda_path(design, table.response, weights=weights,
                           grid_size=penalty.grid_size, grid_ratio=penalty.grid_ratio)
        path.write_csv(out_dir / "path_summary.csv")
        selected = select(path, fixed_lambda=penalty.fixed_lambda)
        selected.write_json(out_dir / "selected_fit.json")
        selected.write_coefficients_csv(out_dir / "selected_coefficients.csv")
        rg_sel = reduce_positive(selected.block_interactions, partition.block_labels)
        _reduced_outputs(out_dir, "reduced_selected", rg_sel, cfg["formats"], cfg["styling"])
        summary["selected"] = {
            "lambda": selected.diagnostics.get("lambda"),
            "log_likelihood": selected.log_likelihood,
            "df": selected.diagnostics.get("df"),
            "active_set_size": selected.diagnostics.get("active_set_size"),
            "converged": selected.converged,
            "sign_summary": rg_sel.sign_summary.to_json_dict(),
        }
        if path.selected_index is not None:
            summary["selected"]["grid_index"] = path.selected_index
    if scaling is not None:
        summary["standardized_columns"] = {
            name: {"mean": scaling.means[name], "sd": scaling.sds[name]}
            for name in scaling.sds
        }

    _write_json(out_dir / "summary.json", summary)
    finished = time.perf_counter()
    _manifest("fit", cfg, [cfg["edges"], cfg["attributes"], cfg["nodes"]],
              {"load_s": t_fit - started, "mle_s": t_path - t_fit,
               "penalized_s": finished - t_path, "total_s": finished - started},
              out_dir)

    print(f"n={graph.node_count} p={partition.block_count} dyads={table.dyad_count} "
          f"columns={design.n_columns}")
    pos, zero, neg = rg_mle.sign_summary.as_tuple()
    print(f"mle: log_likelihood={mle.log_likelihood:.6f} "
          f"signs(+/0/-)={pos}/{zero}/{neg} converged={mle.converged}")
    if "selected" in summary:
        sel = summary["selected"]
        signs = sel["sign_summary"]
        print(f"selected: lambda={sel['lambda']:.6g} df={sel['df']} "
              f"signs(+/0/-)={signs['positive']}/{signs['zero']}/{signs['negative']}")
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    from .simulate import GeneratorSpec, sample_graph, sparse_interactions, write_dataset

    started = time.perf_counter()
    cfg = _resolve(args, SIMULATE_SETTINGS)
    sim = cfg["simulate"]
    if sim["interactions"] is None:
        sim["interactions"] = sparse_interactions(sim["p"], sim["fraction_zero"],
                                                  sim["magnitude"], sim["seed"]).tolist()
    # GeneratorSpec turns the effect lists into arrays
    spec = GeneratorSpec(**{key: value for key, value in sim.items()
                            if key not in ("fraction_zero", "magnitude")})
    graph, _table, partition = sample_graph(spec)
    out_dir = Path(cfg["out"])
    mode = "binary" if spec.family == "bernoulli_logit" else "weighted"
    paths = write_dataset(out_dir, graph, partition, spec, mode=mode)
    _manifest("simulate", cfg, [], {"total_s": time.perf_counter() - started}, out_dir)
    print(f"simulated n={spec.n} p={spec.p} family={spec.family} seed={spec.seed}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# compare


def _sign(value: float) -> int:
    value = float(value)
    return int(value > 0) - int(value < 0)


def compare_fits(fit_a: FitResult, fit_b: FitResult) -> dict:
    """Side-by-side comparison of two fits over the same design."""
    if fit_a.column_names != fit_b.column_names:
        raise ValueError("fits are over different designs (column names differ)")
    if fit_a.block_labels != fit_b.block_labels:
        raise ValueError("fits are over different designs (block labels differ)")
    deltas = {
        name: float(b - a)
        for name, a, b in zip(fit_a.column_names, fit_a.coefficients, fit_b.coefficients)
    }
    max_abs_delta = max((abs(v) for v in deltas.values()), default=0.0)
    rg_a = reduce_positive(fit_a.block_interactions, fit_a.block_labels)
    rg_b = reduce_positive(fit_b.block_interactions, fit_b.block_labels)
    p = fit_a.block_count
    zeroed = sum(
        1
        for r in range(p)
        for s in range(r, p)
        if _sign(fit_a.block_interactions[r, s]) != 0 and fit_b.block_interactions[r, s] == 0.0
    )
    edges_a = set(rg_a.edges)
    edges_b = set(rg_b.edges)
    as_labels = lambda pairs: sorted([rg_a.blocks[r], rg_a.blocks[s]] for r, s in pairs)
    return {
        "coefficients": {
            name: {"a": float(fit_a.coefficients[k]), "b": float(fit_b.coefficients[k]),
                   "delta": deltas[name]}
            for k, name in enumerate(fit_a.column_names)
        },
        "max_abs_delta": max_abs_delta,
        "log_likelihood": {"a": fit_a.log_likelihood, "b": fit_b.log_likelihood},
        "sign_summary": {
            "a": rg_a.sign_summary.to_json_dict(),
            "b": rg_b.sign_summary.to_json_dict(),
        },
        "pairs_zeroed": zeroed,
        "edges_only_a": as_labels(edges_a - edges_b),
        "edges_only_b": as_labels(edges_b - edges_a),
    }


def cmd_compare(args) -> int:
    fit_a = read_fit_json(args.fit_a)
    fit_b = read_fit_json(args.fit_b)
    report = compare_fits(fit_a, fit_b)
    width = max((len(name) for name in report["coefficients"]), default=4)
    print(f"{'name'.ljust(width)}  {'a':>14}  {'b':>14}  {'delta':>14}")
    for name, row in report["coefficients"].items():
        print(f"{name.ljust(width)}  {row['a']:>14.6g}  {row['b']:>14.6g}  "
              f"{row['delta']:>14.6g}")
    sa, sb = report["sign_summary"]["a"], report["sign_summary"]["b"]
    print(f"signs(+/0/-): a={sa['positive']}/{sa['zero']}/{sa['negative']} "
          f"b={sb['positive']}/{sb['zero']}/{sb['negative']}")
    print(f"pairs zeroed (nonzero in a, zero in b): {report['pairs_zeroed']}")
    print(f"edges only in a: {len(report['edges_only_a'])}; "
          f"only in b: {len(report['edges_only_b'])}")
    print(f"max |delta|: {report['max_abs_delta']:.3g}")
    if args.out:
        _write_json(args.out, report)
    return EXIT_OK


# --------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    cfg, _, _ = _resolve_fit_config(args)
    graph, _attrs, partition = _load_inputs(cfg)
    report = validate(graph, partition)
    print(report.to_text())
    if args.out is not None:
        _write_json(args.out, report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_DATA


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocklasso",
        description="Blockmodel fitting with maximum likelihood and the adaptive "
                    "lasso, and reduced-graph derivation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--edges", help="edge-list file")
        p.add_argument("--mode", choices=["binary", "weighted"])
        p.add_argument("--has-header", dest="has_header", action="store_true", default=None,
                       help="the edge file starts with a header row")
        p.add_argument("--attributes", help="node attribute table")
        p.add_argument("--nodes", help="companion node-list file")
        p.add_argument("--partition-key", dest="partition.keys", action="append",
                       help="attribute used to form blocks (repeatable)")
        p.add_argument("--override", dest="partition.overrides", action="append",
                       metavar="NODE=LABEL",
                       help="assign a node directly to a block (repeatable)")

    fit = sub.add_parser("fit", help="fit a blockmodel and derive reduced graphs")
    add_input_flags(fit)
    fit.add_argument("--model", choices=MODELS)
    fit.add_argument("--family", choices=["bernoulli_logit", "poisson_log"])
    fit.add_argument("--penalized", dest="penalty.enabled",
                     action=argparse.BooleanOptionalAction, default=None)
    fit.add_argument("--lambda", dest="penalty.lambda",
                     help="'auto' (BIC over the path) or a numeric penalty")
    fit.add_argument("--gamma-w", dest="penalty.gamma_w", type=float,
                     help="adaptive-weight exponent")
    fit.add_argument("--grid-size", dest="penalty.grid_size", type=int)
    fit.add_argument("--grid-ratio", dest="penalty.grid_ratio", type=float)
    fit.add_argument("--threshold", type=float,
                     help="also derive a mean-probability threshold reduced graph")
    fit.add_argument("--format", dest="formats", action="append", choices=FORMATS)
    fit.add_argument("--out", help="output directory")
    fit.set_defaults(func=cmd_fit)

    sim = sub.add_parser("simulate", help="draw a synthetic network and write its files")
    sim.add_argument("--config", help="JSON config document")
    sim.add_argument("--n", dest="simulate.n", type=int)
    sim.add_argument("--p", dest="simulate.p", type=int)
    sim.add_argument("--family", dest="simulate.family",
                     choices=["bernoulli_logit", "poisson_log"])
    sim.add_argument("--intercept", dest="simulate.intercept", type=float)
    sim.add_argument("--fraction-zero", dest="simulate.fraction_zero", type=float)
    sim.add_argument("--magnitude", dest="simulate.magnitude", type=float)
    sim.add_argument("--seed", dest="simulate.seed", type=int)
    sim.add_argument("--out", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="compare two serialized fits")
    cmp_.add_argument("fit_a")
    cmp_.add_argument("fit_b")
    cmp_.add_argument("--out", help="write the comparison as JSON")
    cmp_.set_defaults(func=cmd_compare)

    val = sub.add_parser("validate", help="check inputs and report diagnostics")
    add_input_flags(val)
    val.add_argument("--out", help="write the report as JSON")
    val.set_defaults(func=cmd_validate)

    return parser


# the parser of ``main``, built on its first call and reused: parsing
# leaves it unchanged, and every call gets a new namespace
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error (non-convergence): {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error (I/O): no such file: {name}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error (I/O): {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
