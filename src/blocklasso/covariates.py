"""Dyad-level covariate construction from node attributes.

Every covariate is symmetric in the two endpoints by construction, so
the value attached to an unordered dyad is well defined. The response
(``Graph.weights`` as it stands) and every covariate are vectors in the
package's one dyad order (``graphs._dyads``). Three derived
kinds are supported (categorical pair dummies with a reference pair, a
same-value indicator, and an absolute numeric difference) plus a
passthrough kind that reads per-dyad values from a file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

from .graphs import AttributeTable, Graph, _dyad_index, _dyads, _read_columns

__all__ = [
    "CovariateError",
    "CovariateSpec",
    "DyadTable",
    "ScalingRecord",
    "build_dyad_table",
    "standardize",
    "unstandardize_coefficients",
]


class CovariateError(ValueError):
    """A covariate cannot be constructed from the available attributes."""


@dataclass
class CovariateSpec:
    """Declaration of one dyad covariate.

    kind:
        ``pair_dummies``   one 0/1 column per unordered pair of levels of a
                           categorical attribute, excluding ``reference``;
        ``same_value``     1 when both endpoints share the attribute value;
        ``abs_difference`` absolute difference of a numeric attribute;
        ``edge_table``     per-dyad values read from a delimited file
                           (source, target, value), defaulting to 0.
    """

    kind: str
    attribute: str | None = None
    reference: tuple[str, str] | None = None
    path: str | None = None
    name: str | None = None

    KINDS = ("pair_dummies", "same_value", "abs_difference", "edge_table")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise CovariateError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "edge_table":
            if not self.path:
                raise CovariateError("edge_table covariate needs a path")
        elif not self.attribute:
            raise CovariateError(f"{self.kind} covariate needs an attribute name")
        if self.kind == "pair_dummies":
            if self.reference is None:
                raise CovariateError("pair_dummies covariate needs a reference pair")
            self.reference = tuple(sorted(str(v) for v in self.reference))  # type: ignore[assignment]
            if len(self.reference) != 2:
                raise CovariateError("reference must name exactly two levels")

    @classmethod
    def from_json_dict(cls, data: dict) -> "CovariateSpec":
        """The spec of one JSON covariate object. Anything but an object,
        a missing kind, an unknown key and a field of the wrong type are
        refused, as the constructor refuses an unknown kind or a missing
        field."""
        if not isinstance(data, dict):
            raise CovariateError(f"a covariate must be a JSON object, got {data!r}")
        unknown = [key for key in data
                   if key not in ("kind", "attribute", "reference", "path", "name")]
        if unknown:
            raise CovariateError(f"unknown covariate key {unknown[0]!r}")
        if "kind" not in data:
            raise CovariateError(f"a covariate needs a kind, one of {cls.KINDS}")
        for key in ("kind", "attribute", "path", "name"):
            value = data.get(key)
            if value is not None and not isinstance(value, str):
                raise CovariateError(f"covariate {key!r} must be a string, got {value!r}")
        reference = data.get("reference")
        if reference is not None and not (isinstance(reference, list)
                                          and all(isinstance(v, str) for v in reference)):
            raise CovariateError("covariate 'reference' must be a list of two level names, "
                                 f"got {reference!r}")
        return cls(
            kind=data["kind"],
            attribute=data.get("attribute"),
            reference=tuple(reference) if reference else None,
            path=data.get("path"),
            name=data.get("name"),
        )


@dataclass
class DyadTable:
    """All n(n-1)/2 unordered node pairs with responses and covariates.

    Dyads are the node pairs i < j in the package's one dyad order,
    lexicographic (``graphs._dyads``), on which every downstream operation
    relies; :attr:`dyads` derives their endpoints from the node count.
    ``response`` holds the edge weight of each dyad and ``covariates`` one
    named column per constructed covariate.
    """

    node_ids: tuple[str, ...]
    response: np.ndarray       # (m,) int
    covariates: np.ndarray     # (m, k) float
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        self.node_ids = tuple(self.node_ids)
        self.response = np.asarray(self.response, dtype=np.int64)
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        self.covariate_names = tuple(self.covariate_names)
        n = len(self.node_ids)
        m = n * (n - 1) // 2
        if self.response.shape != (m,):
            raise ValueError(f"response must have length {m}, got shape {self.response.shape}")
        if self.covariates.shape != (m, len(self.covariate_names)):
            raise ValueError("covariate matrix does not match covariate names")
        if self.covariates.size and not np.all(np.isfinite(self.covariates)):
            raise ValueError("covariate values must be finite")

    @cached_property
    def dyads(self) -> np.ndarray:
        """(m, 2) node indices i < j of every dyad, in the dyad order."""
        return np.column_stack(_dyads(len(self.node_ids)))

    @property
    def dyad_count(self) -> int:
        return len(self.response)

    def column(self, name: str) -> np.ndarray:
        try:
            k = self.covariate_names.index(name)
        except ValueError:
            raise CovariateError(f"unknown covariate column {name!r}") from None
        return self.covariates[:, k]


def _attribute_values(graph: Graph, attrs: AttributeTable | None, attribute: str) -> list[str]:
    if attrs is None:
        raise CovariateError(f"covariate on {attribute!r} requires an attribute table")
    values = []
    for node in graph.node_ids:
        if not attrs.has_node(node):
            raise CovariateError(f"node {node!r} has no attribute row")
        value = attrs.value(node, attribute)
        if not value:
            raise CovariateError(f"node {node!r} is missing attribute {attribute!r}")
        values.append(value)
    return values


def _numeric_values(graph: Graph, attrs: AttributeTable | None, attribute: str) -> np.ndarray:
    raw = _attribute_values(graph, attrs, attribute)
    out = np.empty(len(raw))
    for k, (node, value) in enumerate(zip(graph.node_ids, raw)):
        try:
            out[k] = float(value)
        except ValueError:
            raise CovariateError(
                f"attribute {attribute!r} of node {node!r} is not numeric: {value!r}"
            ) from None
    return out


def _edge_table_column(graph: Graph, spec: CovariateSpec) -> np.ndarray:
    index = {v: i for i, v in enumerate(graph.node_ids)}
    column = np.zeros(len(graph.weights))
    seen: set[int] = set()
    linenos, columns, fault = _read_columns(spec.path, CovariateError, 3)
    # each line's dyad; one with an unknown node or a self-pair fails before use
    i, j = (np.array([index.get(v, 0) for v in ends], dtype=np.int64) for ends in columns[:2])
    keys = _dyad_index(i, j, graph.node_count).tolist()
    for lineno, a, b, value, k in zip(linenos, *columns, keys):
        if a not in index or b not in index:
            raise CovariateError(f"{spec.path}: line {lineno}: unknown node id")
        if a == b:
            raise CovariateError(f"{spec.path}: line {lineno}: self-pair {a!r}")
        if k in seen:
            raise CovariateError(f"{spec.path}: line {lineno}: duplicate dyad ({a},{b})")
        seen.add(k)
        try:
            column[k] = float(value)
        except ValueError:
            raise CovariateError(f"{spec.path}: line {lineno}: non-numeric value {value!r}") from None
    if fault is not None:
        raise fault
    return column


def build_dyad_table(graph: Graph, attributes: AttributeTable | None = None,
                     specs=()) -> DyadTable:
    """Expand a graph into its dyad table with the declared covariates.

    The response of dyad (i, j) is the edge weight between the i-th and
    j-th node (in sorted id order). Covariate columns are appended in
    declaration order; pair-dummy specs contribute one column per
    non-reference unordered level pair, named ``attr:a-b``.
    """
    iu, ju = _dyads(graph.node_count)

    names: list[str] = []
    columns: list[np.ndarray] = []
    for spec in specs:
        if spec.kind == "pair_dummies":
            values = _attribute_values(graph, attributes, spec.attribute)
            levels = sorted(set(values))
            all_pairs = list(combinations_with_replacement(levels, 2))
            if tuple(spec.reference) not in all_pairs:
                raise CovariateError(
                    f"reference pair {spec.reference} is not an observed level pair "
                    f"of {spec.attribute!r} (levels: {levels})"
                )
            value_arr = np.array(values)
            vi, vj = value_arr[iu], value_arr[ju]
            swap = vi > vj
            lo = np.where(swap, vj, vi)
            hi = np.where(swap, vi, vj)
            for a, b in all_pairs:
                if (a, b) == tuple(spec.reference):
                    continue
                names.append(f"{spec.attribute}:{a}-{b}")
                columns.append(((lo == a) & (hi == b)).astype(np.float64))
        elif spec.kind == "same_value":
            values = np.array(_attribute_values(graph, attributes, spec.attribute))
            names.append(spec.name or f"same:{spec.attribute}")
            columns.append((values[iu] == values[ju]).astype(np.float64))
        elif spec.kind == "abs_difference":
            values = _numeric_values(graph, attributes, spec.attribute)
            names.append(spec.name or f"absdiff:{spec.attribute}")
            columns.append(np.abs(values[iu] - values[ju]))
        elif spec.kind == "edge_table":
            names.append(spec.name or Path(spec.path).stem)
            columns.append(_edge_table_column(graph, spec))
    if len(set(names)) != len(names):
        raise CovariateError(f"duplicate covariate column names: {names}")

    covariates = np.column_stack(columns) if columns else np.empty((len(iu), 0))
    return DyadTable(
        node_ids=graph.node_ids,
        response=graph.weights,
        covariates=covariates,
        covariate_names=tuple(names),
    )


@dataclass
class ScalingRecord:
    """Centering/scaling applied by :func:`standardize`, for exact undo."""

    means: dict[str, float] = field(default_factory=dict)
    sds: dict[str, float] = field(default_factory=dict)


def standardize(table: DyadTable, columns) -> tuple[DyadTable, ScalingRecord]:
    """Center and rescale the named covariate columns to unit sample sd.

    Returns the new table and a :class:`ScalingRecord` that
    :func:`unstandardize_coefficients` uses to map fitted coefficients
    back to the original units. Columns with zero spread are rejected
    (their coefficient would be inestimable).
    """
    record = ScalingRecord()
    new = table.covariates.copy()
    for name in columns:
        try:
            k = table.covariate_names.index(name)
        except ValueError:
            raise CovariateError(f"unknown covariate column {name!r}") from None
        col = table.covariates[:, k]
        sd = float(np.std(col, ddof=1)) if len(col) > 1 else 0.0
        if sd <= 0.0:
            raise CovariateError(f"column {name!r} has zero spread")
        mean = float(np.mean(col))
        new[:, k] = (col - mean) / sd
        record.means[name] = mean
        record.sds[name] = sd
    rescaled = DyadTable(
        node_ids=table.node_ids,
        response=table.response,
        covariates=new,
        covariate_names=table.covariate_names,
    )
    return rescaled, record


def unstandardize_coefficients(column_names, coefficients, record: ScalingRecord,
                               intercept_name: str = "intercept") -> np.ndarray:
    """Map coefficients of a standardized fit back to original units.

    A coefficient on (x - m)/s becomes coef/s on x, and the intercept
    absorbs -sum(coef * m / s).
    """
    names = list(column_names)
    out = np.array(coefficients, dtype=np.float64)
    shift = 0.0
    for name, sd in record.sds.items():
        if name not in names:
            continue
        k = names.index(name)
        shift += out[k] * record.means[name] / sd
        out[k] = out[k] / sd
    if intercept_name in names and record.sds:
        out[names.index(intercept_name)] -= shift
    return out
