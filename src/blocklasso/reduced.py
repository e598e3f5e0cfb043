"""Block-level reduced graphs derived from fitted models.

Two derivation rules are provided. The positive-interaction rule draws
an edge between blocks r and s (including self-loops) exactly when the
fitted block-interaction value is positive, so exact zeros from a
penalized fit produce no edge and are tallied separately. The threshold
rule, for Bernoulli fits only, averages the fitted dyad probabilities
within each block pair and draws an edge when the mean exceeds a cutoff.
Both rules reduce to a p×p value matrix with a mask of present pairs and
one of flagged pairs, from which one builder reads the graph.

Sign summaries count positive / zero / negative values over all
p(p+1)/2 block pairs, diagonal included.

Exports: DOT and GraphML carry the blocks (with optional styling) and
the rule's edges; JSON also carries the non-edges, the flagged pairs and
the sign summary.
"""

from __future__ import annotations

import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .glm import FitResult
from .graphs import Partition, _dyads, _pair_key, _write_json

__all__ = [
    "SignSummary",
    "ReducedGraph",
    "reduce_positive",
    "reduce_threshold",
    "export_reduced_graph",
]


@dataclass
class SignSummary:
    positive: int
    zero: int
    negative: int

    @property
    def total(self) -> int:
        return self.positive + self.zero + self.negative

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.zero, self.negative)

    def to_json_dict(self) -> dict:
        return {"positive": self.positive, "zero": self.zero, "negative": self.negative}


@dataclass
class ReducedGraph:
    """Block-level graph: blocks, present edges, and per-pair values.

    ``edges`` holds (r, s) block-index pairs with r <= s (self-pairs
    allowed); ``edge_values`` the value attached to each present edge;
    ``nonedge_values`` the values of pairs that did not meet the rule
    (exported as the JSON ``nonedges``); ``flagged_pairs`` the pairs
    with no dyads, for which the threshold rule is undefined.
    """

    blocks: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    edge_values: dict[tuple[int, int], float]
    sign_summary: SignSummary
    rule: str
    threshold: float | None = None
    nonedge_values: dict[tuple[int, int], float] = field(default_factory=dict)
    flagged_pairs: tuple[tuple[int, int], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "format": "reduced-graph",
            "version": 1,
            "rule": self.rule,
            "threshold": self.threshold,
            "blocks": list(self.blocks),
            "edges": [
                {"source": self.blocks[r], "target": self.blocks[s],
                 "value": self.edge_values[(r, s)]}
                for r, s in self.edges
            ],
            "nonedges": [
                {"source": self.blocks[r], "target": self.blocks[s], "value": value}
                for (r, s), value in sorted(self.nonedge_values.items())
            ],
            "flagged": [[self.blocks[r], self.blocks[s]] for r, s in self.flagged_pairs],
            "sign_summary": self.sign_summary.to_json_dict(),
        }


def _from_values(blocks, values, present, flagged, summary, rule,
                 threshold=None) -> ReducedGraph:
    """The graph over ``blocks`` read from p×p arrays over the pairs
    r <= s in row-major order: a ``flagged`` pair is flagged, else a
    ``present`` pair is an edge and any other pair a non-edge, each
    carrying its entry of ``values``."""
    edges, flagged_pairs = [], []
    edge_values, nonedge_values = {}, {}
    values, present, flagged = values.tolist(), present.tolist(), flagged.tolist()
    for r in range(len(blocks)):
        for s in range(r, len(blocks)):
            if flagged[r][s]:
                flagged_pairs.append((r, s))
            elif present[r][s]:
                edges.append((r, s))
                edge_values[(r, s)] = values[r][s]
            else:
                nonedge_values[(r, s)] = values[r][s]
    return ReducedGraph(blocks=tuple(blocks), edges=tuple(edges), edge_values=edge_values,
                        sign_summary=summary, rule=rule, threshold=threshold,
                        nonedge_values=nonedge_values, flagged_pairs=tuple(flagged_pairs))


def reduce_positive(interactions: np.ndarray, block_labels=None) -> ReducedGraph:
    """Reduced graph by the positive-interaction rule.

    ``interactions`` must be a symmetric matrix whose rows sum to zero
    (within 1e-8). An edge {r, s} is present iff the (r, s) value is
    strictly positive; exact zeros count as "zero" in the sign summary
    and never produce an edge.
    """
    values = np.asarray(interactions, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    p = values.shape[0]
    if p and float(np.abs(values - values.T).max()) > 1e-8:
        raise ValueError("block-interaction matrix must be symmetric")
    if p and float(np.abs(values.sum(axis=1)).max()) > 1e-8:
        raise ValueError("block-interaction rows must sum to zero")
    if block_labels is None:
        block_labels = tuple(f"B{r + 1}" for r in range(p))
    blocks = tuple(str(v) for v in block_labels)
    if len(blocks) != p:
        raise ValueError("block labels do not match the matrix size")

    present = values > 0.0
    upper = np.triu(np.ones((p, p), dtype=bool))
    positive = int(np.count_nonzero(present & upper))
    negative = int(np.count_nonzero((values < 0.0) & upper))
    summary = SignSummary(positive=positive, zero=p * (p + 1) // 2 - positive - negative,
                          negative=negative)
    return _from_values(blocks, values, present, np.zeros((p, p), dtype=bool), summary,
                        "positive_interaction")


def reduce_threshold(fit: FitResult, partition: Partition, threshold: float) -> ReducedGraph:
    """Reduced graph by thresholding mean fitted probabilities.

    Defined for Bernoulli fits only: the fitted probability is averaged
    over all dyads in each block pair and an edge is drawn when the mean
    exceeds ``threshold``. Pairs with no dyads are flagged and carry no
    edge. The sign summary counts edges as positive, below-threshold
    pairs as negative and flagged pairs as zero.
    """
    if fit.family != "bernoulli_logit":
        raise ValueError("the threshold rule needs fitted probabilities; "
                         "it is undefined for rate (Poisson) fits")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    if fit.fitted_values is None:
        raise ValueError("fit has no fitted values: fits loaded from JSON and the fits "
                         "of a lambda_path do not keep them; refit with fit_mle or "
                         "fit_penalized")
    blocks_of = partition.indices_for(fit.node_ids)
    p = partition.block_count
    i, j = _dyads(len(fit.node_ids))
    pair = _pair_key(blocks_of[i], blocks_of[j], p)
    totals = np.bincount(pair, weights=fit.fitted_values, minlength=p * p).reshape(p, p)
    counts = np.bincount(pair, minlength=p * p).reshape(p, p)
    flagged = counts == 0
    means = totals / np.where(flagged, 1, counts)
    present = ~flagged & (means > threshold)
    upper = np.triu(np.ones((p, p), dtype=bool))
    positive = int(np.count_nonzero(present & upper))
    zero = int(np.count_nonzero(flagged & upper))
    summary = SignSummary(positive=positive, zero=zero,
                          negative=p * (p + 1) // 2 - positive - zero)
    return _from_values(partition.block_labels, means, present, flagged, summary,
                        "threshold", float(threshold))


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _styles(styling, label: str, allowed) -> list[tuple[str, object]]:
    """The styling attributes of block ``label`` that a format knows
    (``allowed``), sorted by name; each other attribute warns, pointing
    at the caller of :func:`export_reduced_graph`, and is dropped."""
    known = []
    for key, value in sorted(dict((styling or {}).get(label, {})).items()):
        if key in allowed:
            known.append((key, value))
        else:
            warnings.warn(f"unknown styling attribute {key!r} for block {label!r}; "
                          "using defaults", RuntimeWarning, stacklevel=4)
    return known


def _to_dot(rg: ReducedGraph, styling) -> str:
    lines = ["graph reduced {", "  node [style=filled, fillcolor=white];"]
    for label in rg.blocks:
        attrs = [f"{'fillcolor' if key == 'color' else key}={_dot_quote(str(value))}"
                 for key, value in _styles(styling, label, ("color", "shape", "label"))]
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(label)}{suffix};")
    for r, s in rg.edges:
        value = rg.edge_values[(r, s)]
        lines.append(f"  {_dot_quote(rg.blocks[r])} -- {_dot_quote(rg.blocks[s])} "
                     f"[label={_dot_quote(format(value, '.6g'))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_graphml(rg: ReducedGraph, styling) -> str:
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    keys = {
        "label": ("node", "string", "d_label"),
        "color": ("node", "string", "d_color"),
        "shape": ("node", "string", "d_shape"),
        "value": ("edge", "double", "d_value"),
        "sign": ("edge", "string", "d_sign"),
    }
    for name, (domain, vtype, key_id) in keys.items():
        ET.SubElement(root, "key", id=key_id, attrib={
            "for": domain, "attr.name": name, "attr.type": vtype})
    graph = ET.SubElement(root, "graph", id="reduced", edgedefault="undirected")
    for k, label in enumerate(rg.blocks):
        node = ET.SubElement(graph, "node", id=f"b{k}")
        ET.SubElement(node, "data", key="d_label").text = label
        for key, value in _styles(styling, label, ("color", "shape")):
            ET.SubElement(node, "data", key=f"d_{key}").text = str(value)
    for r, s in rg.edges:
        edge = ET.SubElement(graph, "edge", source=f"b{r}", target=f"b{s}")
        ET.SubElement(edge, "data", key="d_value").text = repr(float(rg.edge_values[(r, s)]))
        ET.SubElement(edge, "data", key="d_sign").text = "positive"
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def export_reduced_graph(rg: ReducedGraph, fmt: str, path=None, *,
                         styling: dict | None = None) -> str:
    """Serialize a reduced graph as ``dot``, ``graphml`` or ``json``.

    DOT and GraphML hold the blocks and the rule's edges. ``styling``
    maps block labels to attribute dicts: ``color`` and ``shape`` in
    both formats, and ``label`` in DOT; any other attribute warns and
    falls back to the default. JSON holds the whole graph, non-edges and
    flagged pairs included (see :meth:`ReducedGraph.to_json_dict`).
    Returns the text, and writes it to ``path`` when given.
    """
    if fmt == "dot":
        text = _to_dot(rg, styling)
    elif fmt == "graphml":
        text = _to_graphml(rg, styling)
    elif fmt == "json":
        return _write_json(path, rg.to_json_dict())
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
