"""Spans around the layer calls that ``blocklasso fit`` makes.

The wrapped names are the public functions ``blocklasso.cli`` imports;
``cmd_fit`` looks them up in the module namespace on every call, so
rebinding them there puts a timer around each call without touching the
package. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# the layer calls of ``cmd_fit``; per-layer metrics are named after the
# module each one comes from
TRACED = (
    "load_edge_list", "load_attributes", "partition_from_attributes", "validate",  # graphs
    "build_dyad_table",                                                            # covariates
    "encode",                                                                      # design
    "fit_mle",                                                                     # glm
    "adaptive_weights", "lambda_path", "select",                                   # penalty
    "reduce_positive", "reduce_threshold", "export_reduced_graph",                 # reduced
)

# return values kept for counters; everything else is dropped at once
CAPTURED = ("build_dyad_table", "encode", "fit_mle", "lambda_path")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    id: str | None = None

    def to_json(self, origin: float) -> dict:
        return {"name": self.name, "id": self.id, "parent": self.parent,
                "start": self.start - origin, "end": self.end - origin}


class Recorder:
    """Wraps the ``blocklasso.cli`` layer calls for the duration of a run.

    With ``timed`` false only ``lambda_path`` is wrapped, and only to keep
    its result, so that untraced fits can still count unconverged path
    points without a clock read inside the fit.
    """

    def __init__(self, cli_module, timed: bool):
        self.cli = cli_module
        self.timed = timed
        self.spans: list[Span] = []
        self.results: dict = {}
        self.fit_id: str | None = None
        self._originals: dict = {}

    def __enter__(self):
        names = TRACED if self.timed else ("lambda_path",)
        for name in names:
            original = getattr(self.cli, name)
            self._originals[name] = original
            setattr(self.cli, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for name, original in self._originals.items():
            setattr(self.cli, name, original)
        self._originals.clear()
        return False

    def _wrap(self, name, function):
        keep = name in CAPTURED
        if not self.timed:
            def capture(*args, **kwargs):
                out = function(*args, **kwargs)
                self.results[name] = out
                return out
            return capture

        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            out = function(*args, **kwargs)
            self.spans.append(Span(name, start, clock(), self.fit_id))
            if keep:
                self.results[name] = out
            return out
        return timed

    def take_results(self) -> dict:
        """Return and forget the values captured during the last fit."""
        results, self.results = self.results, {}
        return results


def self_time(root: Span, children: list[Span]) -> float:
    """Root duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = root.start
    for span in sorted(children, key=lambda s: s.start):
        start, end = max(span.start, cursor), min(span.end, root.end)
        if end > start:
            covered += end - start
            cursor = end
    return (root.end - root.start) - covered


def gram_madds(matrix) -> int:
    """Multiply-adds in one X'WX build, computed as the sum over rows of
    the squared row nonzero count."""
    row_nnz = matrix.indptr[1:] - matrix.indptr[:-1]
    return int((row_nnz.astype("int64") ** 2).sum())


def path_counts(path) -> dict:
    """Counters read from a ``PathResult``'s public per-point fits."""
    return {
        "grid_points": len(path.fits),
        "converged_points": sum(bool(fit.converged) for fit in path.fits),
        "outer_iterations": sum(int(fit.iterations) for fit in path.fits),
    }


def layer_values(root: Span, spans: list[Span], results: dict) -> dict:
    """Per-layer metric values of one traced fit."""
    total = {name: 0.0 for name in TRACED}
    for span in spans:
        total[span.name] += span.end - span.start
    design = results["encode"].matrix
    mle = results["fit_mle"]
    counts = path_counts(results["lambda_path"])
    outer = max(counts["outer_iterations"], 1)
    return {
        "graphs.load_s": (total["load_edge_list"] + total["load_attributes"]
                          + total["partition_from_attributes"]),
        "graphs.validate_s": total["validate"],
        "covariates.dyad_table_s": total["build_dyad_table"],
        "covariates.dyads": results["build_dyad_table"].dyad_count,
        "design.encode_s": total["encode"],
        "design.nnz": int(design.nnz),
        "design.gram_madds": gram_madds(design),
        "glm.fit_mle_s": total["fit_mle"],
        "glm.irls_iterations": int(mle.iterations),
        "glm.s_per_iteration": total["fit_mle"] / max(int(mle.iterations), 1),
        "penalty.weights_s": total["adaptive_weights"],
        "penalty.lambda_path_s": total["lambda_path"],
        "penalty.outer_iterations": counts["outer_iterations"],
        "penalty.s_per_outer_iteration": total["lambda_path"] / outer,
        "penalty.converged_ratio": counts["converged_points"] / max(counts["grid_points"], 1),
        "penalty.select_s": total["select"],
        "reduced.reduce_s": total["reduce_positive"] + total["reduce_threshold"],
        "reduced.export_s": total["export_reduced_graph"],
        "cli.self_s": self_time(root, spans),
    }
