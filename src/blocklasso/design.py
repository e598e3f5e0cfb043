"""Blockmodel GLM designs, held as the factors of their rows.

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
is ``[1, x_ij, N[i] + N[j], G[r] + G[s], F[r·p + s]]``.

A design keeps those factors, never the rows. The fits work on cells
(:attr:`DesignMatrix.cells`), the dyads grouped by identical row, where
X·beta (:meth:`DesignMatrix.predictor`) gathers the block pairs' values
and the node levels of :func:`effect_levels`, X'v (:meth:`DesignMatrix.xt`)
sums v per block pair and per node, and X'WX (:meth:`FactoredGram.gram`)
sums the working weights per node pair, node, block pair and (block
pair, node). :attr:`DesignMatrix.matrix` builds the scipy.sparse matrix
of the design, the reference for tests and output checks; no fit reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
# the groups whose columns depend on the block pair alone
PAIR_GROUPS = (GROUP_INTERCEPT, GROUP_BLOCK, GROUP_INTERACTION)


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
    """A dyad-by-coefficient design, held as the factors of its rows.

    Column order is: intercept, covariates, node effects (n-1), block
    main effects (p-1), block interactions (one per unordered pair,
    lexicographic). ``penalized_mask`` marks the interaction columns and,
    when requested, the covariates. Dyad t's row is ``covariate_values[t]``,
    the node codings of ``dyad_nodes[t]`` and, over :attr:`pair_columns`,
    the row ``pair_coding[r·p + s]`` of ``dyad_blocks[t] = (r, s)``.
    """

    column_names: tuple[str, ...]
    groups: tuple[str, ...]
    penalized_mask: np.ndarray
    spec: ModelSpec
    node_ids: tuple[str, ...]
    block_labels: tuple[str, ...]
    dyad_blocks: np.ndarray = field(repr=False)       # (m, 2) block index of each endpoint
    dyad_nodes: np.ndarray = field(repr=False)        # (m, 2) node index of each endpoint
    covariate_values: np.ndarray = field(repr=False)  # (m, k)
    pair_coding: np.ndarray = field(repr=False)       # (p², len(pair_columns))

    @property
    def n_rows(self) -> int:
        return len(self.dyad_nodes)

    @property
    def n_columns(self) -> int:
        return len(self.column_names)

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
    def pair_columns(self) -> np.ndarray:
        """The intercept, block-effect and interaction columns, which
        depend on the block pair alone."""
        return np.flatnonzero(np.isin(self.groups, PAIR_GROUPS))

    @cached_property
    def inestimable(self) -> np.ndarray:
        """The columns with no nonzero entry, those where X'X has a zero
        diagonal; fitters hold their coefficients at zero."""
        counts = self.cells.counts.astype(np.float64)
        A, _ = FactoredGram(self, np.arange(self.n_columns)).gram(counts, counts)
        return np.diag(A) == 0.0

    @cached_property
    def matrix(self):
        """This design as a canonical ``scipy.sparse.csr_array`` (sorted
        indices, no stored zeros), built on first access, the one use of
        scipy.sparse. No fit reads it: tests and output checks compare
        against it."""
        import scipy.sparse as sp

        pairs = sp.csr_array(self.pair_coding)[self._pair_keys]
        parts = [pairs[:, :1], sp.csr_array(self.covariate_values)]
        if self.spec.node_effects:
            N = sp.csr_array(_sum_to_zero(self.n_nodes))
            parts.append(N[self.dyad_nodes[:, 0]] + N[self.dyad_nodes[:, 1]])
        matrix = sp.hstack([*parts, pairs[:, 1:]], format="csr")
        # +1 and the fold's -1 cancel in column i of N[i] + N[j] when j is the
        # last node: no explicit zero may stay
        matrix.eliminate_zeros()
        return matrix

    @cached_property
    def cells(self) -> "DyadCells":
        """The dyads grouped by identical design row (see :class:`DyadCells`):
        with node effects every dyad is its own cell, without them the key
        is the unordered block pair and the covariate values."""
        # each covariate's values are numbered and folded into one integer
        # key, renumbered after each fold so that it stays below m**2
        key = np.arange(self.n_rows) if self.spec.node_effects else self._pair_keys
        for column in self.covariate_values.T:
            _, code = np.unique(column, return_inverse=True)
            key = np.unique(key * (int(code.max()) + 1) + code, return_inverse=True)[1]
        _, first, inverse, counts = np.unique(key, return_index=True,
                                              return_inverse=True, return_counts=True)
        # cells numbered by their first dyad
        order = np.argsort(first)
        return DyadCells(np.argsort(order)[inverse], counts[order], first[order])

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        """Each dyad's unordered block pair {r, s}, r <= s, as the row
        r·p + s of ``pair_coding``."""
        lo, hi = np.sort(self.dyad_blocks, axis=1).T
        return lo * self.block_count + hi

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cell its row of ``pair_coding`` and its covariate values."""
        return self._pair_keys[self.cells.first], self.covariate_values[self.cells.first]

    def predictor(self, coefficients: np.ndarray) -> np.ndarray:
        """X·beta over the cells (:attr:`cells`): the block pairs' values,
        plus x·b, plus the node levels of both endpoints."""
        pair, covariates = self._factors
        k = covariates.shape[1]
        eta = (self.pair_coding @ coefficients[self.pair_columns])[pair]
        if k:  # an empty product costs as much as a small one
            eta += covariates @ coefficients[1:1 + k]
        if self.spec.node_effects:  # one cell per dyad
            a = effect_levels(coefficients[1 + k:k + self.n_nodes])
            eta += a[self.dyad_nodes[:, 0]] + a[self.dyad_nodes[:, 1]]
        return eta

    def xt(self, v: np.ndarray) -> np.ndarray:
        """X'v over every column, for ``v`` over the cells: v summed per
        block pair through the pair rows, C'v, and v summed per node and
        folded onto the node columns."""
        pair, covariates = self._factors
        k, n = covariates.shape[1], self.n_nodes
        out = np.empty(self.n_columns)
        out[self.pair_columns] = self.pair_coding.T @ np.bincount(pair, v, len(self.pair_coding))
        out[1:1 + k] = covariates.T @ v
        if self.spec.node_effects:
            i, j = self.dyad_nodes.T
            out[1 + k:k + n] = _fold(np.bincount(i, v, n) + np.bincount(j, v, n))
        return out


@dataclass(frozen=True)
class DyadCells:
    """Dyads grouped into cells by their design row: ``inverse`` holds the
    cell of every dyad, ``counts`` the dyads per cell and ``first`` the
    first dyad of every cell. Cells are numbered in the order of ``first``.
    """

    inverse: np.ndarray
    counts: np.ndarray
    first: np.ndarray


def encode(table: DyadTable, partition: Partition, spec: ModelSpec) -> DesignMatrix:
    """Encode a model specification over a dyad table as a design (see the
    module docstring). The table and the partition must cover the same
    nodes, and the table must hold the covariates of ``spec``."""
    table_nodes = set(table.node_ids)
    part_nodes = set(partition.block_of)
    if table_nodes != part_nodes:
        extra = sorted(part_nodes - table_nodes)[:5]
        missing = sorted(table_nodes - part_nodes)[:5]
        raise ValueError(
            f"partition and dyad table cover different node sets "
            f"(missing from table: {extra}, missing from partition: {missing})"
        )
    # table.column refuses a covariate that the table lacks
    covariates = [table.column(name) for name in spec.covariates]

    n = len(table.node_ids)
    p = partition.block_count

    names: list[str] = ["intercept", *spec.covariates]
    groups: list[str] = [GROUP_INTERCEPT] + [GROUP_COVARIATE] * len(spec.covariates)
    if spec.node_effects:
        names.extend(f"node:{v}" for v in table.node_ids[:-1])
        groups.extend([GROUP_NODE] * (n - 1))
    # the intercept, block-effect and interaction columns depend on the
    # ordered block pair alone: each of the p² pairs is coded once
    labels = partition.block_labels
    first, second = np.divmod(np.arange(p * p), p)
    pair_coding = [np.ones((p * p, 1))]
    if spec.block_main_effects:
        G = _sum_to_zero(p)
        pair_coding.append(G[first] + G[second])
        names.extend(f"block:{label}" for label in labels[:-1])
        groups.extend([GROUP_BLOCK] * (p - 1))
    pair_coding.append(_interaction_coding(p))
    names.extend(f"interaction:{labels[r]}|{labels[s]}" for r, s in zip(*np.triu_indices(p, k=1)))
    groups.extend([GROUP_INTERACTION] * (p * (p - 1) // 2))

    penalized = [GROUP_INTERACTION] + [GROUP_COVARIATE] * spec.penalizes_covariates

    return DesignMatrix(
        column_names=tuple(names),
        groups=tuple(groups),
        penalized_mask=np.isin(groups, penalized),
        spec=spec,
        node_ids=table.node_ids,
        block_labels=labels,
        dyad_blocks=partition.indices_for(table.node_ids)[table.dyads],
        dyad_nodes=table.dyads,
        covariate_values=np.column_stack([np.empty((table.dyad_count, 0)), *covariates]),
        pair_coding=np.hstack(pair_coding),
    )


def _sum_to_zero(levels: int) -> np.ndarray:
    """``levels``-by-(levels-1) coding of a sum-to-zero effect: level
    k < levels-1 is column k and the last level is -1 in every column."""
    return np.vstack([np.eye(levels - 1), -np.ones((1, levels - 1))])


def _interaction_coding(p: int) -> np.ndarray:
    """p²-by-p(p-1)/2 map from the free interaction coefficients to the
    block-interaction matrix f, flattened row-major: the pair {r, s} is
    +1 at (r, s) and (s, r) and -1 at (r, r) and (s, s), so every row of
    f sums to zero."""
    r, s = np.triu_indices(p, k=1)
    pair = np.arange(len(r))
    F = np.zeros((p * p, len(r)))
    F[r * p + s, pair] = F[s * p + r, pair] = 1.0
    F[r * (p + 1), pair] = F[s * (p + 1), pair] = -1.0
    return F


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
        raise ValueError(f"expected {expected} interaction coefficients for {p} blocks, "
                         f"got {coefficients.shape}")
    return (_interaction_coding(p) @ coefficients).reshape(p, p)


def effect_levels(free) -> np.ndarray:
    """Full level vector of a sum-to-zero effect from its free coefficients:
    they are the first levels and the last is minus their sum. Empty when
    ``free`` is, as for a model without the effect."""
    free = np.asarray(free, dtype=np.float64)
    return np.concatenate([free, [-free.sum()]]) if len(free) else free


def _fold(sums: np.ndarray) -> np.ndarray:
    """The transpose of :func:`effect_levels`: sums per level (rows of
    ``sums``) onto the free columns, the last level entering each with -1."""
    return sums[:-1] - sums[-1]


class FactoredGram:
    """X'WX over the columns ``cols`` of a design's cells
    (:attr:`DesignMatrix.cells`), assembled from the factors of the rows:
    the two endpoints' node rows, the covariate values, and the row R[k]
    of the block pair k over the block effect and interaction columns.
    Every node-effect column must be among ``cols``: the node rows fold
    the last node into all of them.
    """

    def __init__(self, design: DesignMatrix, cols):
        self.design = design
        self.cols = np.asarray(cols, dtype=np.int64)
        if np.any(np.diff(self.cols) <= 0):
            raise ValueError("solver columns must be increasing")
        # encode orders the columns intercept, covariates, node effects,
        # block effects, interactions, so each factor is a run of columns
        nodes = design.group_indices(GROUP_NODE)
        first = 1 + len(design.spec.covariates)
        d, e = np.searchsorted(self.cols, [first, first + len(nodes)])
        if e - d != len(nodes):
            raise ValueError("solver columns must include every node-effect column")
        self._dense, self._nodes, self._pairs = slice(0, d), slice(d, e), slice(e, len(self.cols))

        self._pair, covariates = design._factors
        intercept_and_covariates = np.column_stack([np.ones(len(self._pair)), covariates])
        self._columns = intercept_and_covariates[:, self.cols[self._dense]]
        R = design.pair_coding[:, np.searchsorted(design.pair_columns, self.cols[self._pairs])]
        q = R.shape[1]
        # R'diag(s)R: each pair (a, b) of nonzeros of R[k] adds R[k, a] R[k, b] s_k
        k, a = np.nonzero(R)
        entry, b = np.nonzero((R != 0)[k])
        self._pair_terms = (k[entry], a[entry] * q + b, R[k, a][entry] * R[k[entry], b])
        self._n = n = design.n_nodes if len(nodes) else 0
        # node columns are only solver columns of node-effect designs,
        # whose cells are the dyads
        if n:
            i, j = design.dyad_nodes.T
            self._node_pair = i * n + j
            # R'S, S[k, u] the weight of the dyads of pair k at node u: each
            # (k, u) that occurs adds R[k, c] S[k, u] at (u, c)
            ends = np.concatenate([self._pair * n + i, self._pair * n + j])
            occurring = np.unique(ends)
            self._ends = np.searchsorted(occurring, ends)
            entry, c = np.nonzero((R != 0)[occurring // n])
            self._node_terms = (entry, occurring[entry] % n * q + c, R[occurring[entry] // n, c])
        # the X'WX that every build overwrites
        self._A = np.empty((len(self.cols),) * 2)

    def gram(self, w: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense X'WX and X'Wz of one IRLS step (per-cell working weights
        ``w``, working response ``z``), built once and shared by every solve.
        X'WX is exactly symmetric and is this object's one buffer, which
        the next build overwrites, so that a step does not allocate, and
        fault in, a new q x q array. The row of the intercept or of a
        covariate x is X'(w * x).
        """
        n, nodes, pairs, A = self._n, self._nodes, self._pairs, self._A
        q = pairs.stop - pairs.start
        pair_w = np.bincount(self._pair, w, len(self.design.pair_coding))
        A[pairs, pairs] = _add_terms(self._pair_terms, pair_w, (q, q))
        if n:
            G = np.bincount(self._node_pair, w, n * n).reshape(n, n)
            G += G.T
            G[np.diag_indices(n)] = G.sum(axis=1)
            # both fold subtractions at once, in a form that is exactly
            # symmetric: g[a] + g[b] commutes
            g = G[:-1, -1]
            A[nodes, nodes] = G[:-1, :-1] - (g[:, None] + g) + G[-1, -1]
            end_w = np.bincount(self._ends, np.concatenate([w, w]))
            A[nodes, pairs] = _fold(_add_terms(self._node_terms, end_w, (n, q)))
            A[pairs, nodes] = A[nodes, pairs].T
        for t in range(self._dense.stop):
            A[t] = A[:, t] = self.design.xt(w * self._columns[:, t])[self.cols]
        return A, self.design.xt(w * z)[self.cols]


def _add_terms(terms, sums: np.ndarray, shape) -> np.ndarray:
    """The array of ``shape`` whose flat entry ``index[t]`` sums
    ``value[t] * sums[source[t]]`` over the terms ``(source, index, value)``."""
    source, index, value = terms
    return np.bincount(index, value * sums[source], shape[0] * shape[1]).reshape(shape)

