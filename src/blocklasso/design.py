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

A design keeps those factors once per distinct row, never the rows:
:func:`encode` groups the dyads by row, numbering the rows by their
first dyad. With node effects the rows are the dyads; without them a row
is a block pair and a covariate pattern, and the design also keeps each
dyad's row and each row's dyad count. :meth:`DesignMatrix.row_sums` and
:meth:`DesignMatrix.dyad_values` move vectors between dyads and rows.
Over the rows, X·beta (:meth:`DesignMatrix.predictor`) gathers the block
pairs' values and the node levels of :func:`effect_levels`, X'v
(:meth:`DesignMatrix.xt`) sums v per block pair and per node, and X'WX
(:meth:`DesignMatrix.gram`) sums the working weights per node pair,
node, block pair and (block pair, node) into a buffer that its caller
owns, over every column, so that a fit and its solvers work in one
column space, the design's. :attr:`DesignMatrix.matrix`, one row per
dyad, is the reference for tests and output checks; no fit reads it.

Sums over a sorted key are taken run by run (:class:`_Runs`): the dyads
come in the order of their first endpoint and, when the nodes are
numbered block by block, of their block pair, so each run of equal keys
is added up with ``np.add.reduceat`` and only the run totals go through
``np.bincount``. Whatever a design can compute once is cached on it on
first use: the runs of the pair keys and of the first endpoints, the
index structures of X'WX, the interaction coding (the tail columns of
``pair_coding``) and the rank certificate
(:attr:`DesignMatrix.identification`, one pivoted Cholesky factorization
per design), which also names the inestimable columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpstrf, dtrtrs

from .covariates import DyadTable
from .graphs import Partition, _dyads, _pair_key

__all__ = [
    "ModelSpec",
    "DesignMatrix",
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
# the rank tolerance of the certificate's pivoted Cholesky on the unit
# diagonal: a column stops it when the share of it that the columns
# pivoted before leave unexplained is at most sqrt(eps), 1.5e-8. Rounding
# leaves up to 5e-14 in a null direction of the designs measured (node
# and block effects at n=242, p=21), which LAPACK's default q·eps does
# not always clear (6.9e-15 against 1e-14 at q=45); the last pivot of a
# full-rank design measured is at least 0.08
RANK_TOL = float(np.sqrt(np.finfo(np.float64).eps))
# on that scale a null vector's largest entry is at least 1, and its
# entries that are zero in exact arithmetic come out near eps
NULL_ENTRY_TOL = 1e-8


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
    """A dyad-by-coefficient design, held as the factors of its distinct rows.

    Column order is: intercept, covariates, node effects (n-1), block
    main effects (p-1), block interactions (one per unordered pair,
    lexicographic). ``penalized_mask`` marks the interaction columns and,
    when requested, the covariates. Row t is ``covariate_values[t]``, the
    node codings of its endpoints ``row_nodes[0][t]`` and ``row_nodes[1][t]``
    (node effects only) and, over :attr:`pair_columns`, the row
    ``pair_coding[row_pairs[t]]`` of its block-pair key (``graphs._pair_key``).
    Dyad d's row is ``dyad_rows[d]`` and row t holds ``row_counts[t]``
    dyads; with node effects both are None, the rows being the dyads.
    """

    column_names: tuple[str, ...]
    groups: tuple[str, ...]
    penalized_mask: np.ndarray
    spec: ModelSpec
    node_ids: tuple[str, ...]
    block_labels: tuple[str, ...]
    pair_coding: np.ndarray = field(repr=False)       # (p², len(pair_columns))
    row_pairs: np.ndarray = field(repr=False)         # (r,) block-pair key
    covariate_values: np.ndarray = field(repr=False)  # (r, k)
    row_nodes: tuple | None = field(default=None, repr=False)        # (i, j), each (r,)
    dyad_rows: np.ndarray | None = field(default=None, repr=False)   # (m,) row of each dyad
    row_counts: np.ndarray | None = field(default=None, repr=False)  # (r,) dyads per row

    @property
    def n_dyads(self) -> int:
        return len(self.row_pairs if self.dyad_rows is None else self.dyad_rows)

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

    @cached_property
    def _interactions(self) -> tuple[np.ndarray, np.ndarray]:
        """The interaction columns and their p²-by-p(p-1)/2 coding, the
        tail columns of ``pair_coding`` (as :func:`reconstruct_interactions`
        builds it, in the same C order)."""
        idx = self.group_indices(GROUP_INTERACTION)
        first = self.pair_coding.shape[1] - len(idx)  # p = 1 has none
        return idx, np.ascontiguousarray(self.pair_coding[:, first:])

    def interaction_matrix(self, coefficients) -> np.ndarray:
        """Symmetric p-by-p block-interaction matrix implied by a fit."""
        idx, coding = self._interactions
        values = np.asarray(coefficients, dtype=np.float64)[idx]
        return (coding @ values).reshape(self.block_count, self.block_count)

    @cached_property
    def pair_columns(self) -> np.ndarray:
        """The intercept, block-effect and interaction columns, which
        depend on the block pair alone."""
        return np.flatnonzero(np.isin(self.groups, PAIR_GROUPS))

    @cached_property
    def identification(self) -> tuple[np.ndarray, int, tuple[str, ...]]:
        """The design's rank certificate, from the unit-weight X'X: the
        :attr:`inestimable` columns, the rank of the others, and the names
        of the columns that their null space involves, largest entries
        first.

        The estimable columns' X'X, scaled to a unit diagonal in place,
        is factored by a pivoted Cholesky (LAPACK ``dpstrf``; Higham 1990)
        as P'AP = R'R with R = [R11 R12; 0 0]; each pivoted column past
        the rank gives a null vector from ``R11^-1 R12``, whose entries
        above ``NULL_ENTRY_TOL`` name the dependent columns. One
        factorization per design, and no q-by-q array is kept."""
        counts = self.row_sums(np.ones(self.n_dyads))
        A = np.empty((self.n_columns,) * 2)
        self.gram(counts, counts, A)
        scale = np.sqrt(np.diag(A))
        inestimable = scale == 0.0
        if inestimable.any():
            A, scale = A[np.ix_(~inestimable, ~inestimable)], scale[~inestimable]
        A /= scale
        A /= scale[:, None]
        # through the Fortran-ordered view, which the factor overwrites
        R, pivots, rank, _ = dpstrf(A.T, tol=RANK_TOL, overwrite_a=1)
        # each column's largest entry over the null vectors: 1 for the
        # columns past the rank, max |R11^-1 R12| over the row of the others
        weight = np.zeros(len(scale))
        if rank < len(scale):  # then rank >= 1, the first pivot being 1
            head = np.abs(dtrtrs(R[:rank, :rank], R[:rank, rank:])[0]).max(axis=1)
            weight[pivots - 1] = np.concatenate([head, np.ones(len(scale) - rank)])
        order = np.argsort(-weight, kind="stable")[:np.count_nonzero(weight > NULL_ENTRY_TOL)]
        return inestimable, rank, tuple(np.array(self.column_names)[~inestimable][order].tolist())

    @property
    def inestimable(self) -> np.ndarray:
        """The columns with no nonzero entry, those where X'X has a zero
        diagonal; fitters hold their coefficients at zero."""
        return self.identification[0]

    @cached_property
    def matrix(self):
        """This design as a canonical ``scipy.sparse.csr_array`` (sorted
        indices, no stored zeros), one row per dyad in the dyad order,
        built on first access, the one use of scipy.sparse. No fit reads
        it: tests and output checks compare against it."""
        import scipy.sparse as sp

        pairs = sp.csr_array(self.pair_coding)[self.row_pairs]
        parts = [pairs[:, :1], sp.csr_array(self.covariate_values)]
        if self.spec.node_effects:
            N = sp.csr_array(_sum_to_zero(self.n_nodes))
            parts.append(N[self.row_nodes[0]] + N[self.row_nodes[1]])
        matrix = sp.hstack([*parts, pairs[:, 1:]], format="csr")
        # +1 and the fold's -1 cancel in column i of N[i] + N[j] when j is the
        # last node: no explicit zero may stay
        matrix.eliminate_zeros()
        return matrix if self.dyad_rows is None else matrix[self.dyad_rows]

    def row_sums(self, v: np.ndarray) -> np.ndarray:
        """A per-dyad vector summed per row; ``v`` itself when the rows
        are the dyads."""
        return v if self.dyad_rows is None else np.bincount(self.dyad_rows, v, len(self.row_pairs))

    def dyad_values(self, v: np.ndarray) -> np.ndarray:
        """A per-row vector expanded to the dyads, in the dyad order;
        ``v`` itself when the rows are the dyads."""
        return v if self.dyad_rows is None else v[self.dyad_rows]

    @cached_property
    def _runs(self) -> tuple["_Runs", "_Runs | None"]:
        """Sums over the rows per row of ``pair_coding`` and, with node
        effects, per first endpoint, which come sorted."""
        nodes = _Runs(self.row_nodes[0], self.n_nodes) if self.spec.node_effects else None
        return _Runs(self.row_pairs, len(self.pair_coding)), nodes

    def predictor(self, coefficients: np.ndarray) -> np.ndarray:
        """X·beta over the rows: the block pairs' values, plus x·b, plus
        the node levels of both endpoints."""
        k = self.covariate_values.shape[1]
        eta = (self.pair_coding @ coefficients[self.pair_columns])[self.row_pairs]
        if k:  # an empty product costs as much as a small one
            eta += self.covariate_values @ coefficients[1:1 + k]
        if self.spec.node_effects:
            a = effect_levels(coefficients[1 + k:k + self.n_nodes])
            eta += a[self.row_nodes[0]] + a[self.row_nodes[1]]
        return eta

    def xt(self, v: np.ndarray) -> np.ndarray:
        """X'v over every column, for ``v`` over the rows: v summed per
        block pair through the pair rows, C'v, and v summed per node and
        folded onto the node columns."""
        pairs, nodes = self._runs
        node_sums = None
        if nodes is not None:
            node_sums = nodes.sum(v) + np.bincount(self.row_nodes[1], v, self.n_nodes)
        return self._xt(v, pairs.sum(v), node_sums)

    def _xt(self, v, pair_sums, node_sums) -> np.ndarray:
        """X'v from the sums of v per row of ``pair_coding`` and per node
        (None without node effects), which the caller has."""
        k = self.covariate_values.shape[1]
        out = np.empty(self.n_columns)
        out[self.pair_columns] = self.pair_coding.T @ pair_sums
        if k:  # an empty product costs as much as a small one
            out[1:1 + k] = self.covariate_values.T @ v
        if node_sums is not None:
            out[1 + k:k + self.n_nodes] = _fold(node_sums)
        return out

    @cached_property
    def _gram_index(self) -> tuple:
        """What :meth:`gram` reads besides the weights: the term products
        of the pair rows R (``pair_coding`` without the intercept) and,
        with node effects, the (block pair, node) end runs and the node
        terms."""
        R = self.pair_coding[:, 1:]
        q = R.shape[1]
        # R'diag(s)R: each pair (a, b) of nonzeros of R[k] adds R[k, a] R[k, b] s_k
        k, a = np.nonzero(R)
        entry, b = np.nonzero((R != 0)[k])
        pair_terms = (k[entry], a[entry] * q + b, R[k, a][entry] * R[k[entry], b])
        if not self.spec.node_effects:
            return pair_terms, None
        n, (i, j) = self.n_nodes, self.row_nodes
        # R'S, S[k, u] the weight of the dyads of pair k at node u: each
        # (k, u) that occurs adds R[k, c] S[k, u] at (u, c); the first
        # endpoints come in runs, the second ones do not
        ends = np.concatenate([self.row_pairs * n + i, self.row_pairs * n + j])
        occurring = np.unique(ends)
        first, second = np.split(np.searchsorted(occurring, ends), 2)
        entry, c = np.nonzero((R != 0)[occurring // n])
        node_terms = (entry, occurring[entry] % n * q + c, R[occurring[entry] // n, c])
        return pair_terms, (_Runs(first, len(occurring)), second, node_terms)

    def gram(self, w: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """X'WX over every column, exactly symmetric, written over all of
        ``out``, which the caller owns, and X'Wz, returned, for per-row
        working weights ``w`` and working response ``z``. The row of the
        intercept is X'w, put together from the weight sums per block pair
        and per node that the other blocks use; the row of a covariate x
        is X'(w * x)."""
        pair_terms, node_index = self._gram_index
        q = self.pair_coding.shape[1] - 1
        # encode orders the columns intercept, covariates, node effects,
        # block effects, interactions
        nodes = slice(1 + self.covariate_values.shape[1], self.n_columns - q)
        pairs = slice(nodes.stop, self.n_columns)
        pair_w = self._runs[0].sum(w)
        out[pairs, pairs] = _add_terms(pair_terms, pair_w, (q, q))
        node_w = None
        if node_index is not None:
            first, second, node_terms = node_index
            n = self.n_nodes
            # every row is its own node pair i < j
            G = np.zeros((n, n))
            G[self.row_nodes] = w
            G += G.T
            node_w = G.sum(axis=1)
            G[np.diag_indices(n)] = node_w
            # both fold subtractions at once, in a form that is exactly
            # symmetric: g[a] + g[b] commutes
            g = G[:-1, -1]
            out[nodes, nodes] = G[:-1, :-1] - (g[:, None] + g) + G[-1, -1]
            end_w = first.sum(w) + np.bincount(second, w, first.size)
            out[nodes, pairs] = _fold(_add_terms(node_terms, end_w, (n, q)))
            out[pairs, nodes] = out[nodes, pairs].T
        out[0] = out[:, 0] = self._xt(w, pair_w, node_w)
        for t, x in enumerate(self.covariate_values.T, 1):
            out[t] = out[:, t] = self.xt(w * x)
        return self.xt(w * z)


class _Runs:
    """Sums per key of vectors aligned with ``keys``, taken run by run:
    each run of equal neighbouring keys is added up with
    ``np.add.reduceat``, and the run totals are summed per key with
    ``np.bincount`` into ``size`` bins. On sorted keys this replaces the
    chain of dependent adds into one bin with a sequential sum. When no
    key repeats its neighbour (``starts`` is None), every run holds one
    entry, which is its own total."""

    def __init__(self, keys: np.ndarray, size: int):
        starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
        self.starts = starts if len(starts) < len(keys) else None
        self.keys = keys[starts]
        self.size = size

    def sum(self, v: np.ndarray) -> np.ndarray:
        if self.starts is not None:
            v = np.add.reduceat(v, self.starts)
        return np.bincount(self.keys, v, self.size)


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

    ends = _dyads(n)
    blocks = partition.indices_for(table.node_ids)
    pairs = _pair_key(blocks[ends[0]], blocks[ends[1]], p)
    values = np.column_stack([np.empty((table.dyad_count, 0)), *covariates])
    rows = dict(row_pairs=pairs, covariate_values=values, row_nodes=ends)  # one row per dyad
    if not spec.node_effects:
        # the row key is the block pair and the covariate values: each
        # covariate's values are numbered and folded into one integer key,
        # renumbered after each fold so that it stays below m**2
        key = pairs
        for column in values.T:
            levels, code = np.unique(column, return_inverse=True)
            key = np.unique(key * len(levels) + code, return_inverse=True)[1]
        _, first_dyad, inverse, counts = np.unique(key, return_index=True,
                                                   return_inverse=True, return_counts=True)
        order = np.argsort(first_dyad)  # rows numbered by their first dyad
        first_dyad = first_dyad[order]
        rows = dict(row_pairs=pairs[first_dyad], covariate_values=values[first_dyad],
                    dyad_rows=np.argsort(order)[inverse], row_counts=counts[order].astype(float))

    return DesignMatrix(
        column_names=tuple(names),
        groups=tuple(groups),
        penalized_mask=np.isin(groups, penalized),
        spec=spec,
        node_ids=table.node_ids,
        block_labels=labels,
        pair_coding=np.hstack(pair_coding),
        **rows,
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


def _add_terms(terms, sums: np.ndarray, shape) -> np.ndarray:
    """The array of ``shape`` whose flat entry ``index[t]`` sums
    ``value[t] * sums[source[t]]`` over the terms ``(source, index, value)``."""
    source, index, value = terms
    return np.bincount(index, value * sums[source], shape[0] * shape[1]).reshape(shape)

