"""Block-level reduced graphs derived from fitted models.

Two derivation rules are provided. The positive-interaction rule draws
an edge between blocks r and s (including self-loops) exactly when the
fitted block-interaction value is positive, so exact zeros from a
penalized fit produce no edge and are tallied separately. The threshold
rule, for Bernoulli fits only, averages the fitted dyad probabilities
within each block pair and draws an edge when the mean exceeds a cutoff.

Sign summaries count positive / zero / negative values over all
p(p+1)/2 block pairs, diagonal included.
"""

from __future__ import annotations

import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .glm import FitResult
from .graphs import Partition

__all__ = [
    "SignSummary",
    "ReducedGraph",
    "reduce_positive",
    "reduce_threshold",
    "export_reduced_graph",
    "reduced_graph_from_json",
]

_DOT_STYLE_KEYS = {"color", "shape", "label"}


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
    (used by the optional negative-edge export); ``flagged_pairs`` the
    pairs with no dyads, for which the threshold rule is undefined.
    """

    blocks: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    edge_values: dict[tuple[int, int], float]
    sign_summary: SignSummary
    rule: str
    threshold: float | None = None
    nonedge_values: dict[tuple[int, int], float] = field(default_factory=dict)
    flagged_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def block_count(self) -> int:
        return len(self.blocks)

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


def _classify(values: np.ndarray) -> SignSummary:
    positive = int(np.count_nonzero(values > 0.0))
    negative = int(np.count_nonzero(values < 0.0))
    zero = values.size - positive - negative
    return SignSummary(positive=positive, zero=zero, negative=negative)


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

    edges: list[tuple[int, int]] = []
    edge_values: dict[tuple[int, int], float] = {}
    nonedge_values: dict[tuple[int, int], float] = {}
    upper = []
    for r in range(p):
        for s in range(r, p):
            value = float(values[r, s])
            upper.append(value)
            if value > 0.0:
                edges.append((r, s))
                edge_values[(r, s)] = value
            else:
                nonedge_values[(r, s)] = value
    return ReducedGraph(
        blocks=blocks,
        edges=tuple(edges),
        edge_values=edge_values,
        sign_summary=_classify(np.array(upper)),
        rule="positive_interaction",
        nonedge_values=nonedge_values,
    )


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
    n = len(fit.node_ids)
    iu, ju = np.triu_indices(n, k=1)
    blocks_of = partition.indices_for(fit.node_ids)
    p = partition.block_count
    r, s = blocks_of[iu], blocks_of[ju]
    lo, hi = np.minimum(r, s), np.maximum(r, s)
    totals = np.zeros((p, p))
    counts = np.zeros((p, p), dtype=np.int64)
    np.add.at(totals, (lo, hi), fit.fitted_values)
    np.add.at(counts, (lo, hi), 1)

    edges: list[tuple[int, int]] = []
    edge_values: dict[tuple[int, int], float] = {}
    nonedge_values: dict[tuple[int, int], float] = {}
    flagged: list[tuple[int, int]] = []
    for a in range(p):
        for b in range(a, p):
            if counts[a, b] == 0:
                flagged.append((a, b))
                continue
            mean = float(totals[a, b] / counts[a, b])
            if mean > threshold:
                edges.append((a, b))
                edge_values[(a, b)] = mean
            else:
                nonedge_values[(a, b)] = mean
    summary = SignSummary(positive=len(edges), zero=len(flagged),
                          negative=len(nonedge_values))
    return ReducedGraph(
        blocks=partition.block_labels,
        edges=tuple(edges),
        edge_values=edge_values,
        sign_summary=summary,
        rule="threshold",
        threshold=float(threshold),
        nonedge_values=nonedge_values,
        flagged_pairs=tuple(flagged),
    )


def _dot_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(rg: ReducedGraph, styling, include_negative: bool) -> str:
    lines = ["graph reduced {", "  node [style=filled, fillcolor=white];"]
    styling = styling or {}
    for label in rg.blocks:
        attrs = []
        for key, value in sorted(dict(styling.get(label, {})).items()):
            if key not in _DOT_STYLE_KEYS:
                warnings.warn(f"unknown styling attribute {key!r} for block {label!r}; "
                              "using defaults", RuntimeWarning, stacklevel=3)
                continue
            target = "fillcolor" if key == "color" else key
            attrs.append(f"{target}={_dot_quote(str(value))}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(label)}{suffix};")
    for r, s in rg.edges:
        value = rg.edge_values[(r, s)]
        lines.append(f"  {_dot_quote(rg.blocks[r])} -- {_dot_quote(rg.blocks[s])} "
                     f"[label={_dot_quote(format(value, '.6g'))}];")
    if include_negative:
        for (r, s), value in sorted(rg.nonedge_values.items()):
            if value < 0.0:
                lines.append(f"  {_dot_quote(rg.blocks[r])} -- {_dot_quote(rg.blocks[s])} "
                             f"[style=dashed, label={_dot_quote(format(value, '.6g'))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_graphml(rg: ReducedGraph, styling, include_negative: bool) -> str:
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
    styling = styling or {}
    for k, label in enumerate(rg.blocks):
        node = ET.SubElement(graph, "node", id=f"b{k}")
        ET.SubElement(node, "data", key="d_label").text = label
        for key, value in sorted(dict(styling.get(label, {})).items()):
            if key not in ("color", "shape"):
                warnings.warn(f"unknown styling attribute {key!r} for block {label!r}; "
                              "using defaults", RuntimeWarning, stacklevel=3)
                continue
            ET.SubElement(node, "data", key=f"d_{key}").text = str(value)

    def add_edge(r, s, value, sign):
        edge = ET.SubElement(graph, "edge", source=f"b{r}", target=f"b{s}")
        ET.SubElement(edge, "data", key="d_value").text = repr(float(value))
        ET.SubElement(edge, "data", key="d_sign").text = sign

    for r, s in rg.edges:
        add_edge(r, s, rg.edge_values[(r, s)], "positive")
    if include_negative:
        for (r, s), value in sorted(rg.nonedge_values.items()):
            if value < 0.0:
                add_edge(r, s, value, "negative")
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def export_reduced_graph(rg: ReducedGraph, fmt: str, path=None, *,
                         styling: dict | None = None,
                         include_negative: bool = False) -> str:
    """Serialize a reduced graph as ``dot``, ``graphml`` or ``json``.

    ``styling`` maps block labels to attribute dicts (``color``,
    ``shape``); unknown attributes warn and fall back to defaults. By
    default only the rule's edges appear; ``include_negative`` adds
    negative-valued pairs as dashed (DOT) or sign-tagged (GraphML)
    edges. Returns the text, and writes it to ``path`` when given.
    """
    if fmt == "dot":
        text = _to_dot(rg, styling, include_negative)
    elif fmt == "graphml":
        text = _to_graphml(rg, styling, include_negative)
    elif fmt == "json":
        text = json.dumps(rg.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def reduced_graph_from_json(source) -> ReducedGraph:
    """Rebuild a :class:`ReducedGraph` from its JSON export (text or path)."""
    if isinstance(source, dict):
        data = source
    elif isinstance(source, Path):
        data = json.loads(source.read_text(encoding="utf-8"))
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        data = json.loads(source)
    else:
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    if data.get("format") != "reduced-graph":
        raise ValueError("not a reduced-graph JSON document")
    blocks = tuple(data["blocks"])
    index = {label: k for k, label in enumerate(blocks)}
    edges = []
    edge_values = {}
    for item in data["edges"]:
        pair = (index[item["source"]], index[item["target"]])
        edges.append(pair)
        edge_values[pair] = float(item["value"])
    nonedge_values = {}
    for item in data.get("nonedges", []):
        pair = (index[item["source"]], index[item["target"]])
        nonedge_values[pair] = float(item["value"])
    summary = data["sign_summary"]
    return ReducedGraph(
        blocks=blocks,
        edges=tuple(edges),
        edge_values=edge_values,
        sign_summary=SignSummary(positive=int(summary["positive"]),
                                 zero=int(summary["zero"]),
                                 negative=int(summary["negative"])),
        rule=data["rule"],
        threshold=data.get("threshold"),
        nonedge_values=nonedge_values,
        flagged_pairs=tuple((index[a], index[b]) for a, b in data.get("flagged", [])),
    )
