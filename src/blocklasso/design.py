"""Constraint-respecting design matrices for blockmodel GLMs.

Two model families are encoded over the dyad table:

* the degree-corrected Bernoulli blockmodel, whose linear predictor for a
  dyad (i, j) with i in block r and j in block s is
  ``intercept + a_i + a_j + f_rs`` with node effects summing to zero;
* the covariate-adjusted Poisson blockmodel with predictor
  ``intercept + x_ij·b + g_r + g_s + f_rs`` with block effects summing
  to zero.

Each constraint is written once, as a coding matrix from the free
coefficients to the levels. A sum-to-zero group of L levels (nodes or
blocks) has L-1 columns: level k < L-1 is column k and the last (sorted)
level is -1 in every column (``N`` for nodes, ``G`` for blocks). In both
models every row of the block-interaction matrix f sums to zero, so f
has one free column per unordered block pair {r, s} with r < s, which
is +1 at f_rs and f_sr and -1 at f_rr and f_ss (``F``, over f flattened
row-major). The row of a dyad (i, j) with i in block r and j in block s
gathers the codings by endpoint and block pair:
``[1, x_ij, N[i] + N[j], G[r] + G[s], F[r·p + s]]``, the same factors
that :class:`FactoredGram` sums.

:func:`effect_levels` is the one place that expands a sum-to-zero group
into its full level vector; the solvers work on the same columns.

The solvers also see one row per cell (:attr:`DesignMatrix.cells`), not
per dyad: dyads with identical design rows form a cell. Without node
effects a dyad's row depends only on its unordered block pair and its
covariate values, so a p-block design without covariates has at most
p(p+1)/2 cells. With node effects every dyad is its own cell.

The solvers' X'WX is assembled from the structure of the rows, not by a
sparse matrix product (:meth:`FactoredGram.gram`): a row is its two
endpoints' node columns, plus its covariate values, plus a row that
depends only on its unordered block pair (:attr:`DesignMatrix.pair_cells`).
Every block of X'WX is then a sum of the working weights per node pair,
per node, per block pair or per (block pair, node), combined with the
few block-pair rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .covariates import DyadTable
from .graphs import Partition

__all__ = [
    "ModelSpec",
    "DesignMatrix",
    "DyadCells",
    "FactoredGram",
    "effect_levels",
    "encode",
    "reconstruct_interactions",
]

FAMILIES = ("bernoulli_logit", "poisson_log")

GROUP_INTERCEPT = "intercept"
GROUP_COVARIATE = "covariate"
GROUP_NODE = "node_effect"
GROUP_BLOCK = "block_effect"
GROUP_INTERACTION = "interaction"


@dataclass
class ModelSpec:
    """Which family and effect groups a model includes.

    The two tested presets are :meth:`degree_corrected` (Bernoulli with
    node effects) and :meth:`covariate_adjusted` (Poisson with block main
    effects and covariates); arbitrary combinations are permitted.
    ``penalize_covariates`` defaults to penalizing covariates whenever
    any are included, which matches the covariate-adjusted preset.
    """

    family: str
    node_effects: bool = False
    block_main_effects: bool = False
    covariates: tuple[str, ...] = ()
    penalize_covariates: bool | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        self.covariates = tuple(self.covariates)

    @classmethod
    def degree_corrected(cls) -> "ModelSpec":
        """Bernoulli model with node effects and block interactions."""
        return cls(family="bernoulli_logit", node_effects=True,
                   block_main_effects=False, penalize_covariates=False)

    @classmethod
    def covariate_adjusted(cls, covariates=()) -> "ModelSpec":
        """Poisson model with block main effects, covariates and interactions."""
        return cls(family="poisson_log", node_effects=False,
                   block_main_effects=True, covariates=tuple(covariates),
                   penalize_covariates=True)

    @property
    def penalizes_covariates(self) -> bool:
        if self.penalize_covariates is None:
            return bool(self.covariates)
        return self.penalize_covariates


@dataclass
class DesignMatrix:
    """Sparse dyad-by-coefficient matrix plus column metadata.

    Column order is: intercept, covariates, node effects (n-1), block
    main effects (p-1), block interactions (one per unordered pair,
    lexicographic). ``penalized_mask`` marks the interaction columns and,
    when requested, the covariate columns. ``inestimable`` marks columns
    with no nonzero entries; fitters hold those coefficients at zero.
    """

    matrix: sp.csr_array
    column_names: tuple[str, ...]
    groups: tuple[str, ...]
    penalized_mask: np.ndarray
    inestimable: np.ndarray
    spec: ModelSpec
    node_ids: tuple[str, ...]
    block_labels: tuple[str, ...]
    dyad_blocks: np.ndarray = field(repr=False)  # (m, 2) block index of each endpoint
    dyad_nodes: np.ndarray = field(repr=False)   # (m, 2) node index of each endpoint

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def block_count(self) -> int:
        return len(self.block_labels)

    @property
    def parameter_count(self) -> int:
        """Model parameter count in the blockmodel accounting convention.

        This is ``n_columns``: with node effects it equals
        n + k + p(p-1)/2, and with block effects k + p(p+1)/2, for k
        covariates, the intercept and constrained effects being folded
        into the node or block tally.
        """
        return self.n_columns

    def group_indices(self, group: str) -> np.ndarray:
        return np.flatnonzero(np.array(self.groups) == group)

    def interaction_matrix(self, coefficients) -> np.ndarray:
        """Symmetric p-by-p block-interaction matrix implied by a fit."""
        idx = self.group_indices(GROUP_INTERACTION)
        return reconstruct_interactions(np.asarray(coefficients)[idx], self.block_count)

    @cached_property
    def cells(self) -> "DyadCells":
        """The dyads grouped by identical design row (see :class:`DyadCells`).

        Without node effects a row is a function of the unordered block
        pair and the covariate values, so those are the key. With node
        effects every dyad is its own cell, and the cells share this
        design's matrix.
        """
        m = self.n_rows
        if self.spec.node_effects:
            return DyadCells(np.arange(m), np.ones(m, dtype=np.int64), self.matrix)
        covariates = self.group_indices(GROUP_COVARIATE)
        if not len(covariates):
            return self.pair_cells
        # one integer key: each covariate's values are numbered and folded
        # into the pair id a column at a time, renumbered after each fold
        # so that the key stays below m**2 (no overflow, even when every
        # value of a continuous covariate is distinct)
        key = self.pair_cells.inverse
        for column in self.matrix[:, covariates].toarray().T:
            _, code = np.unique(column, return_inverse=True)
            key = np.unique(key * (int(code.max()) + 1) + code, return_inverse=True)[1]
        return self._group_dyads(key)

    @cached_property
    def pair_cells(self) -> "DyadCells":
        """The dyads grouped by unordered block pair, on which the
        intercept, block-effect and interaction columns depend alone."""
        lo, hi = np.sort(self.dyad_blocks, axis=1).T
        return self._group_dyads(lo * self.block_count + hi)

    def _group_dyads(self, keys: np.ndarray) -> "DyadCells":
        """Cells of a 1-D integer key, numbered by their first dyad."""
        _, first, inverse, counts = np.unique(keys, return_index=True,
                                              return_inverse=True, return_counts=True)
        # a design whose rows are all distinct keeps its dyad order
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return DyadCells(rank[inverse], counts[order], self.matrix[first[order]])


@dataclass(frozen=True)
class DyadCells:
    """Dyads grouped into cells by a key: their design row
    (:attr:`DesignMatrix.cells`) or their block pair
    (:attr:`DesignMatrix.pair_cells`).

    ``inverse`` holds the cell of every dyad, ``counts`` the dyads per
    cell and ``matrix`` the design row of every cell's first dyad; for
    :attr:`DesignMatrix.cells` ``matrix[inverse]`` is the design matrix.
    Cells are numbered in the order of their first dyad.
    """

    inverse: np.ndarray
    counts: np.ndarray
    matrix: sp.csr_array


def encode(table: DyadTable, partition: Partition, spec: ModelSpec) -> DesignMatrix:
    """Encode a model specification over a dyad table as a design matrix.

    Requires the table and the partition to cover the same node set.
    Covariate names in ``spec`` must exist in the table. See the module
    docstring for the column coding.
    """
    table_nodes = set(table.node_ids)
    part_nodes = set(partition.block_of)
    if table_nodes != part_nodes:
        extra = sorted(part_nodes - table_nodes)[:5]
        missing = sorted(table_nodes - part_nodes)[:5]
        raise ValueError(
            f"partition and dyad table cover different node sets "
            f"(missing from table: {extra}, missing from partition: {missing})"
        )
    for name in spec.covariates:
        if name not in table.covariate_names:
            raise ValueError(f"covariate {name!r} is not in the dyad table")

    n = len(table.node_ids)
    p = partition.block_count
    if p < 1:
        raise ValueError("partition must have at least one block")
    m = table.dyad_count
    i_idx = table.dyads[:, 0]
    j_idx = table.dyads[:, 1]
    node_blocks = partition.indices_for(table.node_ids)
    r_i = node_blocks[i_idx]
    r_j = node_blocks[j_idx]

    names: list[str] = ["intercept"]
    groups: list[str] = [GROUP_INTERCEPT]
    parts = [sp.csr_array((np.ones(m), np.zeros(m, dtype=np.int64), np.arange(m + 1)),
                          shape=(m, 1))]
    if spec.covariates:
        parts.append(sp.csr_array(np.column_stack([table.column(c) for c in spec.covariates])))
        names.extend(spec.covariates)
        groups.extend([GROUP_COVARIATE] * len(spec.covariates))
    if spec.node_effects:
        N = _sum_to_zero(n)
        parts.append(N[i_idx] + N[j_idx])
        names.extend(f"node:{v}" for v in table.node_ids[:-1])
        groups.extend([GROUP_NODE] * (n - 1))
    # the block-effect and interaction rows depend on the ordered block
    # pair alone: each of the p² pairs is coded once, then gathered per dyad
    labels = partition.block_labels
    first, second = np.divmod(np.arange(p * p), p)
    pair_rows = []
    if spec.block_main_effects:
        G = _sum_to_zero(p)
        pair_rows.append(G[first] + G[second])
        names.extend(f"block:{label}" for label in labels[:-1])
        groups.extend([GROUP_BLOCK] * (p - 1))
    pair_rows.append(_interaction_coding(p))
    names.extend(f"interaction:{labels[r]}|{labels[s]}" for r, s in zip(*np.triu_indices(p, k=1)))
    groups.extend([GROUP_INTERACTION] * (p * (p - 1) // 2))
    parts.append(sp.hstack(pair_rows, format="csr")[r_i * p + r_j])

    matrix = sp.hstack(parts, format="csr")
    # +1 and the fold's -1 cancel in column i of N[i] + N[j] when j is the
    # last node (and likewise for blocks): no explicit zero may stay
    matrix.eliminate_zeros()
    matrix.sort_indices()

    groups_arr = np.array(groups)
    penalized = groups_arr == GROUP_INTERACTION
    if spec.penalizes_covariates:
        penalized |= groups_arr == GROUP_COVARIATE
    inestimable = np.bincount(matrix.indices, minlength=len(names)) == 0

    return DesignMatrix(
        matrix=matrix,
        column_names=tuple(names),
        groups=tuple(groups),
        penalized_mask=penalized,
        inestimable=inestimable,
        spec=spec,
        node_ids=table.node_ids,
        block_labels=labels,
        dyad_blocks=np.column_stack([r_i, r_j]),
        dyad_nodes=table.dyads,
    )


def _sum_to_zero(levels: int) -> sp.csr_array:
    """Sparse ``levels``-by-(levels-1) coding of a sum-to-zero effect:
    level k < levels-1 is column k and the last level is -1 in every column."""
    return sp.vstack([sp.eye_array(levels - 1), -np.ones((1, levels - 1))], format="csr")


def _interaction_coding(p: int) -> sp.csr_array:
    """Sparse p²-by-p(p-1)/2 map from the free interaction coefficients to
    the block-interaction matrix f, flattened row-major: the pair {r, s}
    is +1 at (r, s) and (s, r) and -1 at (r, r) and (s, s), so every row
    of f sums to zero."""
    r, s = np.triu_indices(p, k=1)
    rows = np.concatenate([r * p + s, s * p + r, r * (p + 1), s * (p + 1)])
    pair = np.tile(np.arange(len(r)), 4)
    values = np.repeat([1.0, 1.0, -1.0, -1.0], len(r))
    return sp.csr_array((values, (rows, pair)), shape=(p * p, len(r)))


def _incidence(keys: list[np.ndarray], size: int) -> sp.csr_array:
    """Sparse ``size``-by-cells matrix that sums a vector over the cells
    by key: cell c adds to row ``keys[t][c]`` for every t."""
    cells = len(keys[0])
    return sp.csr_array((np.ones(cells * len(keys)),
                         (np.concatenate(keys), np.tile(np.arange(cells), len(keys)))),
                        shape=(size, cells))


def reconstruct_interactions(coefficients, block_count: int) -> np.ndarray:
    """Expand free block-interaction coefficients to the full symmetric matrix.

    ``coefficients`` holds the p(p-1)/2 upper-triangle values in
    lexicographic pair order; the diagonal is completed from the
    zero-row-sum constraint, so every row of the result sums to zero.
    """
    p = int(block_count)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    expected = p * (p - 1) // 2
    if coefficients.shape != (expected,):
        raise ValueError(
            f"expected {expected} interaction coefficients for {p} blocks, "
            f"got {coefficients.shape}"
        )
    out = np.zeros((p, p))
    if expected:
        iu, ju = np.triu_indices(p, k=1)
        out[iu, ju] = coefficients
        out[ju, iu] = coefficients
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return out


def effect_levels(coefficients, groups, group: str) -> np.ndarray:
    """Full level vector of the sum-to-zero effect ``group`` (node or
    block effects); empty when ``groups`` has no such group.

    The group's coefficients are the first levels and the folded last
    level is minus their sum.
    """
    idx = np.flatnonzero(np.asarray(groups) == group)
    if not len(idx):
        return np.zeros(0)
    free = np.asarray(coefficients, dtype=np.float64)[idx]
    return np.append(free, -free.sum())


class FactoredGram:
    """X'WX over the columns ``cols`` of a design's cells
    (:attr:`DesignMatrix.cells`), assembled from the factors of the rows.

    The matrix over ``cols`` is never formed. A cell's row is the sum of
    three factors: its two endpoints' node rows, its covariate values,
    and the row of its unordered block pair over the intercept, block
    effect and interaction columns (one of :attr:`DesignMatrix.pair_cells`).
    :meth:`gram` builds X'WX from those factors. Every node-effect column
    must be among ``cols``: the node rows fold the last node into all of
    them.
    """

    def __init__(self, design: DesignMatrix, cols):
        self.cols = np.asarray(cols, dtype=np.int64)
        groups = np.asarray(design.groups)[self.cols]
        # encode orders the columns intercept, covariates, node effects,
        # block effects, interactions, so each factor is a run of columns
        if np.any(np.diff(self.cols) <= 0):
            raise ValueError("solver columns must be increasing")
        if not np.isin(design.group_indices(GROUP_NODE), self.cols).all():
            raise ValueError("solver columns must include every node-effect column")
        sizes = [int(np.isin(groups, names).sum()) for names in
                 ((GROUP_INTERCEPT, GROUP_COVARIATE), (GROUP_NODE,))]
        self._dense = slice(0, sizes[0])
        self._nodes = slice(sizes[0], sizes[0] + sizes[1])
        self._pairs = slice(sizes[0] + sizes[1], len(self.cols))

        cells, pairs = design.cells, design.pair_cells
        self._columns = cells.matrix[:, self.cols[self._dense]].toarray()
        self._pair_rows = pairs.matrix[:, self.cols[self._pairs]].toarray()
        self._pair_rows_t = sp.csr_array(self._pair_rows.T)

        # every dyad of a cell has the same block pair
        P = len(pairs.counts)
        pair = np.empty(len(cells.counts), dtype=np.int64)
        pair[cells.inverse] = pairs.inverse
        self._n = n = design.n_nodes if sizes[1] else 0
        # node columns are only solver columns of node-effect designs,
        # whose cells are the dyads
        ends = list(design.dyad_nodes.T) if n else []
        self._sums = _incidence([n + pair, *ends], n + P)  # per node, then per block pair
        if n:
            i, j = ends
            self._node_pair = i * n + j
            self._node_by_pair = _incidence([pair * n + i, pair * n + j], P * n)
        # the X'WX that every build overwrites
        self._A = np.empty((len(self.cols),) * 2)

    @staticmethod
    def _node_rows(M: np.ndarray) -> np.ndarray:
        """Rows of the node columns from rows indexed by node: the last
        node's row is subtracted from the others (its endpoint puts -1 in
        each node column)."""
        return M[:-1] - M[-1]

    def _xt(self, v: np.ndarray) -> np.ndarray:
        """X'v over the solver columns, for a vector ``v`` over the cells."""
        sums = self._sums @ v
        out = np.empty(len(self.cols))
        out[self._dense] = self._columns.T @ v
        if self._n:
            out[self._nodes] = self._node_rows(sums[:self._n])
        out[self._pairs] = self._pair_rows_t @ sums[self._n:]
        return out

    def gram(self, w: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense X'WX and X'Wz of one IRLS step (per-cell working weights
        ``w``, working response ``z``), built once and shared by every solve.
        X'WX is exactly symmetric and is this object's one buffer, which
        the next build overwrites, so that a step does not allocate, and
        fault in, a new q x q array.

        Block-pair columns meet through the working weight summed per
        block pair, node columns through the weight summed per node pair
        and per (block pair, node); the row of the intercept or of a
        covariate x is X'(w * x).
        """
        n, nodes, pairs = self._n, self._nodes, self._pairs
        rows, rows_t = self._pair_rows, self._pair_rows_t
        sums = self._sums @ w
        A = self._A
        A[pairs, pairs] = rows_t @ (sums[n:, None] * rows)
        if n:
            G = np.bincount(self._node_pair, w, n * n).reshape(n, n)
            G += G.T
            G[np.diag_indices(n)] = sums[:n]
            # both fold subtractions at once, in a form that is exactly
            # symmetric: g[a] + g[b] commutes
            g = G[:-1, -1]
            A[nodes, nodes] = G[:-1, :-1] - (g[:, None] + g) + G[-1, -1]
            S = (self._node_by_pair @ w).reshape(-1, n)
            A[nodes, pairs] = self._node_rows((rows_t @ S).T)
            A[pairs, nodes] = A[nodes, pairs].T
        for t in range(self._dense.stop):
            A[t] = A[:, t] = self._xt(w * self._columns[:, t])
        return A, self._xt(w * z)
