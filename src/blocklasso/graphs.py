"""Network, partition and attribute ingestion, and the package's text formats.

Reads delimited edge lists and node-attribute tables, builds block
partitions from attribute combinations, and runs pre-fit diagnostics.
All loaders map opaque string node ids to dense indices internally;
node order is always the sorted order of the ids, so loading is
invariant to the row order of the input files.

It also owns the package's one dyad order, the n(n-1)/2 node pairs
i < j in lexicographic order (``_dyads``, ``_dyad_index``), in which
``Graph.weights``, the dyad table and the fitted values are vectors, and
its one block-pair key, ``min(r, s)·p + max(r, s)`` (``_pair_key``).

This module owns the text formats of the package. Every delimited input
(edge list, attribute table, edge-table covariate) is read by
``_read_columns``: UTF-8 with an optional byte-order mark, blank lines
skipped, comma or tab taken from the first data line, fields stripped,
and a column-count error that names the file and the physical line.
Every JSON artifact is written by ``_write_json`` (two-space indent,
sorted keys, a final newline) and every CSV artifact by ``_write_csv``
(``"\\n"`` line endings), both UTF-8. The module imports nothing from the
package, so every other module can use these helpers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "Partition",
    "AttributeTable",
    "ValidationReport",
    "EdgeListError",
    "AttributeTableError",
    "PartitionError",
    "load_edge_list",
    "load_node_list",
    "load_attributes",
    "partition_from_attributes",
    "validate",
]


class EdgeListError(ValueError):
    """An edge-list file violates the input contract."""


class AttributeTableError(ValueError):
    """An attribute table is malformed or missing required values."""


class PartitionError(ValueError):
    """A block partition is inconsistent with its node set."""


@lru_cache(maxsize=1)
def _dyads(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints (i, j), i < j, of the node pairs of ``n`` nodes, in
    the package's one dyad order: lexicographic. The arrays of the last
    ``n`` are kept, read-only, for every layer of a fit to share."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _dyad_index(i, j, n: int):
    """The position of the pair {i, j}, i != j in either order, in the
    order of :func:`_dyads`."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # pairs before row lo: (n-1) + (n-2) + ... + (n-lo)
    return lo * (2 * n - lo - 1) // 2 + hi - lo - 1


def _pair_key(r, s, p: int):
    """The key of the unordered block pair {r, s} of ``p`` blocks, its row
    of the design's p²-row block-pair coding."""
    return np.minimum(r, s) * p + np.maximum(r, s)


@dataclass
class Graph:
    """Undirected graph with nonnegative integer edge weights and no self-loops.

    ``node_ids`` are held in sorted order and ``weights`` is the vector of
    the n(n-1)/2 node-pair weights in the dyad order (:func:`_dyads`), so
    it holds no self-loop and no asymmetric weight (binary graphs use
    {0, 1}). Instances are treated as immutable once constructed.
    """

    node_ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        self.node_ids = tuple(str(v) for v in self.node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("duplicate node ids")
        w = np.asarray(self.weights)
        n = len(self.node_ids)
        m = n * (n - 1) // 2
        if w.shape != (m,):
            raise ValueError(f"weights must have length {m} (node pairs), got shape {w.shape}")
        if not np.issubdtype(w.dtype, np.integer):
            if not np.all(np.isfinite(w)) or np.any(w != np.round(w)):
                raise ValueError("edge weights must be integers")
        w = w.astype(np.int64)
        if np.any(w < 0):
            raise ValueError("edge weights must be nonnegative")
        self.weights = w

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def is_binary(self) -> bool:
        return bool(np.all(self.weights <= 1))

    @property
    def edge_count(self) -> int:
        """Number of node pairs with a nonzero weight."""
        return int(np.count_nonzero(self.weights))

    @property
    def density(self) -> float:
        return self.edge_count / len(self.weights) if len(self.weights) else 0.0


@dataclass
class Partition:
    """Assignment of every node to one of ``block_count`` labeled blocks.

    ``block_of`` maps node id to a 0-based index into ``block_labels``
    (labels are kept sorted). Every block must contain at least one node.
    """

    block_labels: tuple[str, ...]
    block_of: dict[str, int]

    def __post_init__(self):
        self.block_labels = tuple(str(v) for v in self.block_labels)
        if len(set(self.block_labels)) != len(self.block_labels):
            raise PartitionError("duplicate block labels")
        p = len(self.block_labels)
        if p < 1:
            raise PartitionError("partition needs at least one block")
        used = set()
        for node, idx in self.block_of.items():
            if not 0 <= idx < p:
                raise PartitionError(f"node {node!r} has out-of-range block index {idx}")
            used.add(idx)
        if used != set(range(p)):
            missing = sorted(set(range(p)) - used)
            labels = ", ".join(self.block_labels[i] for i in missing)
            raise PartitionError(f"empty blocks: {labels}")

    @property
    def block_count(self) -> int:
        return len(self.block_labels)

    def label_of(self, node_id: str) -> str:
        return self.block_labels[self.block_of[node_id]]

    def sizes(self) -> np.ndarray:
        counts = np.zeros(self.block_count, dtype=np.int64)
        for idx in self.block_of.values():
            counts[idx] += 1
        return counts

    def indices_for(self, node_ids) -> np.ndarray:
        """Block index of each node in ``node_ids``, preserving order."""
        try:
            return np.array([self.block_of[v] for v in node_ids], dtype=np.int64)
        except KeyError as exc:
            raise PartitionError(f"node {exc.args[0]!r} is not in the partition") from None


@dataclass
class AttributeTable:
    """Per-node named attributes, stored as strings."""

    node_ids: tuple[str, ...]
    columns: dict[str, tuple[str, ...]]

    def __post_init__(self):
        self.node_ids = tuple(str(v) for v in self.node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise AttributeTableError("duplicate node rows")
        for name, values in self.columns.items():
            if len(values) != len(self.node_ids):
                raise AttributeTableError(f"attribute {name!r} has {len(values)} values "
                                          f"for {len(self.node_ids)} nodes")
        self._row = {v: i for i, v in enumerate(self.node_ids)}

    def has_node(self, node_id: str) -> bool:
        return node_id in self._row

    def value(self, node_id: str, attribute: str) -> str:
        """Raw string value; empty string means missing."""
        if attribute not in self.columns:
            raise AttributeTableError(f"unknown attribute {attribute!r}")
        if node_id not in self._row:
            raise AttributeTableError(f"node {node_id!r} has no attribute row")
        return self.columns[attribute][self._row[node_id]]


def _read_lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8-sig").splitlines()


def _read_columns(path, error, width: int | None = None, skip_first: bool = False):
    """The data lines of a delimited file, as columns.

    Blank lines, and the first line when ``skip_first``, are skipped; the
    delimiter (tab if the first data line has one, else comma) holds for
    the whole file, and each field is stripped. Every row must have
    ``width`` fields, or as many as the first data line when ``width`` is
    None. Returns ``(line numbers, columns, fault)``: the physical line
    numbers of the data lines and their fields as one tuple per column,
    both up to the first line with another field count, and for that
    line the ``error`` that names the file and the line (None when every
    line has ``width`` fields). A caller checks the rows it got before it
    raises ``fault``, so that faults are reported in line order.
    """
    first = int(skip_first)
    lines = _read_lines(path)[first:]
    # no container per line, which would only feed the garbage collector:
    # the good lines are joined and split once, and every width-th field
    # is a column
    data = [t for t, stripped in enumerate(map(str.strip, lines)) if stripped]
    raws = [lines[t] for t in data]
    sep = "\t" if raws and "\t" in raws[0] else ","
    seps = list(map(str.count, raws, [sep] * len(raws)))
    if width is None:
        width = seps[0] + 1 if seps else 0
    good, fault = len(data), None
    if seps.count(width - 1) != good:
        good = next(t for t, count in enumerate(seps) if count != width - 1)
        fault = error(f"{path}: line {data[good] + first + 1}: expected {width} columns, "
                      f"got {seps[good] + 1}")
    fields = sep.join(raws[:good]).split(sep) if good else []
    columns = [tuple(map(str.strip, fields[k::width])) for k in range(width)]
    return [t + first + 1 for t in data[:good]], columns, fault


def _write_json(path, payload) -> str:
    """Render ``payload`` as the package's JSON and write it to ``path``
    unless that is None; returns the text."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _write_csv(path, rows) -> None:
    """Write ``rows`` (header first) to ``path`` as CSV."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def load_edge_list(path, mode: str = "binary", *, extra_nodes=(), node_file=None,
                   has_header: bool = False) -> Graph:
    """Load an undirected graph from a delimited edge list.

    Parameters
    ----------
    path : str or Path
        Text file with columns ``source,target`` (binary mode) or
        ``source,target,weight`` (weighted mode); comma or tab delimited,
        autodetected from the first data line.
    mode : {"binary", "weighted"}
        Binary mode collapses duplicate rows with logical-or; weighted
        mode sums the integer weights of duplicate rows.
    extra_nodes : iterable of str
        Additional node ids to include (possibly isolated).
    node_file : str or Path, optional
        Companion file with one node id per line, merged into the node set.
    has_header : bool
        Skip the first line.

    Raises
    ------
    EdgeListError
        On self-loops, malformed rows, or invalid weights; the message
        names the offending line.
    """
    if mode not in ("binary", "weighted"):
        raise ValueError(f"mode must be 'binary' or 'weighted', got {mode!r}")
    weighted = mode == "weighted"
    nodes: set[str] = set(str(v) for v in extra_nodes)
    if node_file is not None:
        nodes.update(load_node_list(node_file))
    linenos, columns, fault = _read_columns(path, EdgeListError, 3 if weighted else 2,
                                            has_header)
    a, b = columns[0], columns[1]
    nodes.update(a, b)
    node_ids = tuple(sorted(nodes))
    index = {v: i for i, v in enumerate(node_ids)}
    n = len(node_ids)
    i, j = (np.fromiter(map(index.__getitem__, ends), np.int64, len(ends)) for ends in (a, b))
    # the lines before the first one with an empty node id or a self-loop
    faulty = i == j
    if "" in index:
        faulty |= (i == index[""]) | (j == index[""])
    end = int(np.argmax(faulty)) if faulty.any() else len(a)
    weights = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    if weighted:
        largest = int(np.iinfo(np.int64).max)  # the type of Graph.weights
        accum: dict[int, int] = {}
        keys = _dyad_index(i[:end], j[:end], n).tolist()
        for lineno, u, v, text, key in zip(linenos, a, b, columns[2], keys):
            try:
                weight = int(text)
            except ValueError:
                raise EdgeListError(f"{path}: line {lineno}: non-integer weight {text!r}") from None
            if weight < 0:
                raise EdgeListError(f"{path}: line {lineno}: negative weight {weight}")
            accum[key] = total = accum.get(key, 0) + weight
            if total > largest:
                raise EdgeListError(f"{path}: line {lineno}: weight {weight} takes edge "
                                    f"({u}, {v}) past the largest weight, 2**63 - 1")
        weights[list(accum)] = list(accum.values())
    else:
        # a repeated edge sets the same 1 again
        weights[_dyad_index(i[:end], j[:end], n)] = 1
    if end < len(a):
        lineno, u, v = linenos[end], a[end], b[end]
        if not u or not v:
            raise EdgeListError(f"{path}: line {lineno}: empty node id")
        raise EdgeListError(f"{path}: line {lineno}: self-loop on node {u!r}")
    if fault is not None:
        raise fault
    return Graph(node_ids=node_ids, weights=weights)


def load_node_list(path) -> tuple[str, ...]:
    """Read one node id per line; blank lines are ignored."""
    return tuple(line.strip() for line in _read_lines(path) if line.strip())


def load_attributes(path) -> AttributeTable:
    """Load a node-attribute table from delimited text with a header row.

    Comma or tab delimited, autodetected from the header. The first
    column holds the node id; remaining header names become attribute
    names. Empty cells are treated as missing values.
    """
    linenos, columns, fault = _read_columns(path, AttributeTableError)
    if not linenos:
        raise AttributeTableError(f"{path}: empty attribute table")
    attr_names = [column[0] for column in columns[1:]]
    if len(set(attr_names)) != len(attr_names):
        raise AttributeTableError(f"{path}: duplicate attribute names in header")
    if fault is not None:
        raise fault
    body = {name: column[1:] for name, column in zip(attr_names, columns[1:])}
    return AttributeTable(node_ids=columns[0][1:], columns=body)


def partition_from_attributes(attrs: AttributeTable, keys, overrides=None) -> Partition:
    """Build a partition whose blocks are combinations of attribute values.

    Each node is assigned the label formed by joining its values of
    ``keys`` with ``"-"``; nodes listed in ``overrides`` (a map
    node id -> block label) get the override label instead and need no
    attribute values. Block labels are sorted, so the result is
    deterministic regardless of input order.
    """
    overrides = dict(overrides or {})
    keys = list(keys)
    block_of_label: dict[str, str] = {}
    for node in attrs.node_ids:
        if node in overrides:
            block_of_label[node] = str(overrides[node])
            continue
        if not keys:
            raise PartitionError(f"node {node!r} has no partition keys and no override")
        parts = []
        for key in keys:
            value = attrs.value(node, key)
            if not value:
                raise PartitionError(
                    f"node {node!r} is missing a value for {key!r} and has no override"
                )
            parts.append(value)
        block_of_label[node] = "-".join(parts)
    for node, label in overrides.items():
        block_of_label.setdefault(str(node), str(label))
    labels = tuple(sorted(set(block_of_label.values())))
    index = {label: i for i, label in enumerate(labels)}
    block_of = {node: index[label] for node, label in block_of_label.items()}
    return Partition(block_labels=labels, block_of=block_of)


@dataclass
class ValidationReport:
    """Diagnostics for a (graph, partition) pair; report-only, never raises."""

    passed: bool
    node_count: int
    block_count: int
    density: float
    block_sizes: dict[str, int]
    empty_pairs: tuple[tuple[str, str], ...]
    data_sparse_pairs: tuple[tuple[str, str], ...]
    problems: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "node_count": self.node_count,
            "block_count": self.block_count,
            "density": self.density,
            "block_sizes": self.block_sizes,
            "empty_pairs": [list(pair) for pair in self.empty_pairs],
            "data_sparse_pairs": [list(pair) for pair in self.data_sparse_pairs],
            "problems": list(self.problems),
        }

    def to_text(self) -> str:
        lines = [
            f"nodes: {self.node_count}",
            f"blocks: {self.block_count}",
            f"density: {self.density:.6g}",
            "block sizes: " + ", ".join(f"{k}={v}" for k, v in self.block_sizes.items()),
            f"block pairs without dyads: {len(self.empty_pairs)}",
        ]
        if self.empty_pairs:
            lines.append("  " + "; ".join(f"({a},{b})" for a, b in self.empty_pairs))
        lines.append(f"data-sparse block pairs (dyads but no edges): {len(self.data_sparse_pairs)}")
        if self.data_sparse_pairs:
            lines.append("  " + "; ".join(f"({a},{b})" for a, b in self.data_sparse_pairs))
        for problem in self.problems:
            lines.append(f"PROBLEM: {problem}")
        lines.append("status: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate(graph: Graph, partition: Partition) -> ValidationReport:
    """Check that a graph and partition are mutually consistent.

    Reports basic size/density figures, block pairs with no dyads at all
    (inestimable without outside information) and block pairs whose dyads
    carry no edges (data-sparse). Passes iff the partition covers exactly
    the graph's node set.
    """
    problems: list[str] = []
    graph_nodes = set(graph.node_ids)
    part_nodes = set(partition.block_of)
    for node in sorted(part_nodes - graph_nodes):
        problems.append(f"partition references unknown node {node!r}")
    for node in sorted(graph_nodes - part_nodes):
        problems.append(f"graph node {node!r} is missing from the partition")

    p = partition.block_count
    # the block of every graph node, -1 where the partition lacks the node;
    # the dyads of such a node are left out of the tallies
    blocks = np.array([partition.block_of.get(v, -1) for v in graph.node_ids], dtype=np.int64)
    sizes = np.bincount(blocks[blocks >= 0], minlength=p)
    block_sizes = dict(zip(partition.block_labels, sizes.tolist()))

    # per-pair dyad and edge tallies; weights are nonnegative, so a pair's
    # weight is 0 exactly when it has no dyad of nonzero weight
    i, j = _dyads(graph.node_count)
    r, s = blocks[i], blocks[j]
    covered = (r >= 0) & (s >= 0)
    pair = _pair_key(r, s, p)[covered]
    pair_dyads = np.bincount(pair, minlength=p * p).reshape(p, p)
    pair_weight = np.bincount(pair[graph.weights[covered] != 0],
                              minlength=p * p).reshape(p, p)

    empty, sparse = [], []
    for r in range(p):
        for s in range(r, p):
            pair = (partition.block_labels[r], partition.block_labels[s])
            if pair_dyads[r, s] == 0:
                empty.append(pair)
            elif pair_weight[r, s] == 0:
                sparse.append(pair)

    return ValidationReport(
        passed=not problems,
        node_count=graph.node_count,
        block_count=p,
        density=graph.density,
        block_sizes=block_sizes,
        empty_pairs=tuple(empty),
        data_sparse_pairs=tuple(sparse),
        problems=tuple(problems),
    )
