"""Constraint-respecting design matrices for blockmodel GLMs.

Two model families are encoded over the dyad table:

* the degree-corrected Bernoulli blockmodel, whose linear predictor for a
  dyad (i, j) with i in block r and j in block s is
  ``intercept + a_i + a_j + f_rs`` with node effects summing to zero;
* the covariate-adjusted Poisson blockmodel with predictor
  ``intercept + x_ij·b + g_r + g_s + f_rs`` with block effects summing
  to zero.

In both, every row of the block-interaction matrix f sums to zero, so
the within-block value f_rr equals minus the sum of that block's
off-diagonal values. The encoding substitutes that identity directly:
there is one free column per unordered block pair {r, s} with r < s, a
between-block dyad puts +1 in its pair column, and a within-block dyad
in block r puts -1 in every column {r, t}. Sum-to-zero node and block
effects are coded the usual way, folding the last (sorted) level into
the remaining columns with -1 entries.

The solvers work on the same columns with node and block effects coded
by reference instead (:class:`ReferenceCoding`): the fold puts n-2
entries on every dyad of the last node, reference coding at most two.
:func:`effect_levels` is the one place that turns either coding into
the full sum-to-zero level vector.

The solvers also see one row per cell (:attr:`DesignMatrix.cells`), not
per dyad: dyads with identical design rows form a cell. Without node
effects a dyad's row depends only on its unordered block pair and its
covariate values, so a p-block design without covariates has at most
p(p+1)/2 cells. With node effects every dyad is its own cell.

The solvers' X'WX is assembled from the structure of the rows, not by a
sparse matrix product (:meth:`ReferenceCoding.gram`): a row is its two
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
    "ReferenceCoding",
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
    block_pairs: tuple[tuple[int, int], ...]
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

        For a node-effect model this is n + p(p-1)/2; for a block-effect
        model it is (number of covariates) + p(p+1)/2, the intercept and
        constrained effects being folded into the block tally. For the
        two presets this equals ``n_columns`` exactly.
        """
        n, p = self.n_nodes, self.block_count
        if self.spec.node_effects and not self.spec.block_main_effects:
            return n + p * (p - 1) // 2
        if self.spec.block_main_effects and not self.spec.node_effects:
            return len(self.spec.covariates) + p * (p + 1) // 2
        return self.n_columns

    def group_indices(self, group: str) -> np.ndarray:
        return np.flatnonzero(np.array(self.groups) == group)

    def linear_predictor(self, coefficients) -> np.ndarray:
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape != (self.n_columns,):
            raise ValueError(f"expected {self.n_columns} coefficients")
        return self.matrix @ coefficients

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
    rows: list[np.ndarray] = [np.arange(m)]
    cols: list[np.ndarray] = [np.zeros(m, dtype=np.int64)]
    vals: list[np.ndarray] = [np.ones(m)]
    offset = 1

    for name in spec.covariates:
        col = table.column(name)
        nz = np.flatnonzero(col)
        rows.append(nz)
        cols.append(np.full(len(nz), offset, dtype=np.int64))
        vals.append(col[nz].astype(np.float64))
        names.append(name)
        groups.append(GROUP_COVARIATE)
        offset += 1

    if spec.node_effects and n >= 2:
        node_off = offset
        # i < j <= n-1, so the i endpoint never needs folding.
        rows.append(np.arange(m))
        cols.append(node_off + i_idx)
        vals.append(np.ones(m))
        plain = j_idx < n - 1
        rows.append(np.flatnonzero(plain))
        cols.append(node_off + j_idx[plain])
        vals.append(np.ones(int(plain.sum())))
        folded = np.flatnonzero(~plain)
        if len(folded) and n > 1:
            rows.append(np.repeat(folded, n - 1))
            cols.append(np.tile(node_off + np.arange(n - 1), len(folded)))
            vals.append(-np.ones(len(folded) * (n - 1)))
        names.extend(f"node:{v}" for v in table.node_ids[:-1])
        groups.extend([GROUP_NODE] * (n - 1))
        offset += n - 1

    if spec.block_main_effects and p >= 2:
        block_off = offset
        for endpoint in (r_i, r_j):
            plain = endpoint < p - 1
            rows.append(np.flatnonzero(plain))
            cols.append(block_off + endpoint[plain])
            vals.append(np.ones(int(plain.sum())))
            folded = np.flatnonzero(~plain)
            if len(folded):
                rows.append(np.repeat(folded, p - 1))
                cols.append(np.tile(block_off + np.arange(p - 1), len(folded)))
                vals.append(-np.ones(len(folded) * (p - 1)))
        names.extend(f"block:{label}" for label in partition.block_labels[:-1])
        groups.extend([GROUP_BLOCK] * (p - 1))
        offset += p - 1

    pairs = [(r, s) for r in range(p) for s in range(r + 1, p)]
    pair_col = -np.ones((p, p), dtype=np.int64)
    for k, (r, s) in enumerate(pairs):
        pair_col[r, s] = pair_col[s, r] = offset + k
    if pairs:
        between = np.flatnonzero(r_i != r_j)
        rows.append(between)
        cols.append(pair_col[r_i[between], r_j[between]])
        vals.append(np.ones(len(between)))
        within = np.flatnonzero(r_i == r_j)
        if len(within):
            # -1 in every column pairing this block with another.
            block_cols = pair_col[r_i[within]]          # (len(within), p)
            keep = block_cols >= 0                      # drops the diagonal slot
            rows.append(np.repeat(within, p - 1))
            cols.append(block_cols[keep])
            vals.append(-np.ones(len(within) * (p - 1)))
        names.extend(
            f"interaction:{partition.block_labels[r]}|{partition.block_labels[s]}"
            for r, s in pairs
        )
        groups.extend([GROUP_INTERACTION] * len(pairs))
        offset += len(pairs)

    q = offset
    matrix = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, q),
    ).tocsr()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.sort_indices()

    groups_arr = np.array(groups)
    penalized = groups_arr == GROUP_INTERACTION
    if spec.penalizes_covariates:
        penalized |= groups_arr == GROUP_COVARIATE
    nnz_per_col = np.diff(matrix.tocsc().indptr)
    inestimable = nnz_per_col == 0

    return DesignMatrix(
        matrix=matrix,
        column_names=tuple(names),
        groups=tuple(groups),
        penalized_mask=penalized,
        inestimable=inestimable,
        spec=spec,
        node_ids=table.node_ids,
        block_labels=partition.block_labels,
        block_pairs=tuple(pairs),
        dyad_blocks=np.column_stack([r_i, r_j]),
        dyad_nodes=table.dyads,
    )


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


def effect_levels(coefficients, groups, group: str, *, reference: bool = False) -> np.ndarray:
    """Full level vector of the sum-to-zero effect ``group`` (node or
    block effects); empty when ``groups`` has no such group.

    In the public coding the group's coefficients are the first levels
    and the folded last level is minus their sum. With ``reference`` they
    code the levels against a last level of 0; the levels are then
    centered, and twice the mean removed (minus twice the returned last
    level) belongs to the intercept, once per dyad endpoint.
    """
    idx = np.flatnonzero(np.asarray(groups) == group)
    if not len(idx):
        return np.zeros(0)
    return _levels(np.asarray(coefficients, dtype=np.float64)[idx], reference)


def _levels(free: np.ndarray, reference: bool) -> np.ndarray:
    """:func:`effect_levels` of a group's coefficients ``free``."""
    if reference:
        levels = np.append(free, 0.0)
        return levels - levels.mean()
    return np.append(free, -free.sum())


class ReferenceCoding:
    """Columns ``cols`` of a design over its cells (:attr:`DesignMatrix.cells`),
    as the solvers see them.

    Node and block effects are coded by reference (last level 0): a dyad
    endpoint puts a 1 in the column of its level unless that level is
    the last one. Both codings span the same column space, so a fit is
    the same in either; :meth:`to_public` and :meth:`to_reference`
    convert coefficients in O(q). An effect group is recoded only when
    the intercept and all of the group's columns are among ``cols``;
    every other column keeps its public coding.

    The coding is never formed as a matrix. A cell's row is the sum of
    three factors: its two endpoints' node rows, its covariate values,
    and the row of its unordered block pair over the intercept, block
    effect and interaction columns (one of :attr:`DesignMatrix.pair_cells`).
    :meth:`gram` builds X'WX from those factors.
    """

    def __init__(self, design: DesignMatrix, cols):
        self.design = design
        self.cols = np.asarray(cols, dtype=np.int64)
        groups = np.asarray(design.groups)[self.cols]
        has_intercept = len(self.cols) > 0 and self.cols[0] == 0  # column 0 is the intercept
        self.recoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for group in (GROUP_NODE, GROUP_BLOCK):
            idx = design.group_indices(group)
            if has_intercept and len(idx) and np.isin(idx, self.cols).all():
                self.recoded[group] = (idx, np.flatnonzero(groups == group))

        # encode orders the columns intercept, covariates, node effects,
        # block effects, interactions, so each factor is a run of columns
        if np.any(np.diff(self.cols) <= 0):
            raise ValueError("solver columns must be increasing")
        sizes = [int(np.isin(groups, names).sum()) for names in
                 ((GROUP_INTERCEPT, GROUP_COVARIATE), (GROUP_NODE,))]
        self._dense = slice(0, sizes[0])
        self._nodes = slice(sizes[0], sizes[0] + sizes[1])
        self._pairs = slice(sizes[0] + sizes[1], len(self.cols))

        cells, pairs = design.cells, design.pair_cells
        self._columns = cells.matrix[:, self.cols[self._dense]].toarray()
        rows = pairs.matrix[:, self.cols[self._pairs]].toarray()
        if GROUP_BLOCK in self.recoded:
            # an endpoint at the folded last level puts -1 in each of the
            # g block columns, so a row's block entries sum to
            # 2 - folds*(g+1); adding the fold count to each undoes it
            block = np.flatnonzero(groups[self._pairs] == GROUP_BLOCK)
            folds = np.rint((2.0 - rows[:, block].sum(axis=1)) / (len(block) + 1))
            rows[:, block] += folds[:, None]
        self._pair_rows = rows
        self._pair_rows_t = sp.csr_array(rows.T)

        # every dyad of a cell has the same block pair
        P = len(pairs.counts)
        pair = np.empty(len(cells.counts), dtype=np.int64)
        pair[cells.inverse] = pairs.inverse
        self._n = n = design.n_nodes if self._nodes.stop > self._nodes.start else 0
        # node columns are only solver columns of node-effect designs,
        # whose cells are the dyads
        ends = list(design.dyad_nodes.T) if n else []
        self._sums = _incidence([n + pair, *ends], n + P)  # per node, then per block pair
        if n:
            i, j = ends
            self._levels = self.cols[self._nodes] - design.group_indices(GROUP_NODE)[0]
            self._node_pair = i * n + j
            self._node_by_pair = _incidence([pair * n + i, pair * n + j], P * n)

    def _node_rows(self, M: np.ndarray) -> np.ndarray:
        """Rows of the node columns from rows indexed by node: in reference
        coding the last node's row is dropped, in the public coding it is
        subtracted from the others (its endpoint puts -1 in each column)."""
        M = M[:-1] if GROUP_NODE in self.recoded else M[:-1] - M[-1]
        return M[self._levels]

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

        Block-pair columns meet through the working weight summed per
        block pair, node columns through the weight summed per node pair
        and per (block pair, node); the row of the intercept or of a
        covariate x is X'(w * x).
        """
        n, nodes, pairs = self._n, self._nodes, self._pairs
        rows, rows_t = self._pair_rows, self._pair_rows_t
        sums = self._sums @ w
        A = np.empty((len(self.cols),) * 2)
        A[pairs, pairs] = rows_t @ (sums[n:, None] * rows)
        if n:
            G = np.bincount(self._node_pair, w, n * n).reshape(n, n)
            G += G.T
            G[np.diag_indices(n)] = sums[:n]
            A[nodes, nodes] = self._node_rows(self._node_rows(G).T)
            S = (self._node_by_pair @ w).reshape(-1, n)
            A[nodes, pairs] = self._node_rows((rows_t @ S).T)
            A[pairs, nodes] = A[nodes, pairs].T
        for t in range(self._dense.stop):
            A[t] = A[:, t] = self._xt(w * self._columns[:, t])
        return A, self._xt(w * z)

    def to_public(self, x) -> np.ndarray:
        """Full-length public coefficient vector of solver coefficients."""
        beta = np.zeros(self.design.n_columns)
        beta[self.cols] = x
        for idx, pos in self.recoded.values():
            levels = _levels(x[pos], reference=True)
            beta[idx] = levels[:-1]
            beta[0] -= 2.0 * levels[-1]
        return beta

    def to_reference(self, beta) -> np.ndarray:
        """Solver coefficients of a full-length public coefficient vector."""
        beta = np.asarray(beta, dtype=np.float64)
        x = beta[self.cols]
        for idx, pos in self.recoded.values():
            levels = _levels(beta[idx], reference=False)
            x[pos] = levels[:-1] - levels[-1]
            x[0] += 2.0 * levels[-1]
        return x

    def score_to_reference(self, score) -> np.ndarray:
        """The score over the solver columns, from the full-length score
        over the public columns, in O(q).

        A public effect column is its level's endpoint sum minus the last
        level's; the level sums of a group add up to twice the intercept
        score (two endpoints per dyad), which gives the last level's sum.
        """
        score = np.asarray(score, dtype=np.float64)
        out = score[self.cols]
        for idx, pos in self.recoded.values():
            out[pos] += (2.0 * score[0] - score[idx].sum()) / (len(idx) + 1)
        return out
