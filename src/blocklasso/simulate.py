"""Synthetic network generation from the two blockmodel families.

Dyads are drawn independently from the specified family at the linear
predictor implied by the supplied parameters. A single seeded
``numpy.random.default_rng`` generator drives all draws, so a spec plus
seed reproduces the graph exactly, across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covariates import DyadTable
from .design import FAMILIES, reconstruct_interactions
from .glm import _logistic
from .graphs import Graph, Partition, _dyads, _write_csv, _write_json

__all__ = [
    "GeneratorSpec",
    "allocate_blocks",
    "sample_graph",
    "sparse_interactions",
    "write_dataset",
]

LOGIT_BOUND = 35.0
LOG_RATE_BOUND = 30.0


def _node_label(index: int, n: int) -> str:
    width = max(2, len(str(n - 1)))
    return f"v{index:0{width}d}"


def _block_label(index: int, p: int) -> str:
    width = max(2, len(str(p)))
    return f"B{index + 1:0{width}d}"


def allocate_blocks(n: int, p: int, block_sizes=None) -> Partition:
    """Partition ``n`` synthetic nodes into ``p`` blocks.

    Defaults to near-equal sizes (earlier blocks take the remainder);
    explicit ``block_sizes`` must sum to ``n`` with every block nonempty.
    """
    if p < 1 or n < p:
        raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
    if block_sizes is None:
        base, extra = divmod(n, p)
        block_sizes = [base + (1 if r < extra else 0) for r in range(p)]
    block_sizes = [int(v) for v in block_sizes]
    if len(block_sizes) != p or sum(block_sizes) != n or min(block_sizes) < 1:
        raise ValueError(f"block sizes {block_sizes} do not partition {n} nodes into {p} blocks")
    labels = tuple(_block_label(r, p) for r in range(p))
    block_of = {}
    node = 0
    for r, size in enumerate(block_sizes):
        for _ in range(size):
            block_of[_node_label(node, n)] = r
            node += 1
    return Partition(block_labels=labels, block_of=block_of)


@dataclass
class GeneratorSpec:
    """True parameters for one synthetic network draw.

    ``interactions`` is the full symmetric block-interaction matrix and
    must have zero row sums (within 1e-12); ``node_effects`` (length n)
    and ``block_effects`` (length p) are optional additive effects;
    ``covariate_values`` is an optional per-dyad matrix paired with
    ``covariate_coefs``.
    """

    n: int
    p: int
    family: str = "bernoulli_logit"
    intercept: float = 0.0
    interactions: np.ndarray | None = None
    node_effects: np.ndarray | None = None
    block_effects: np.ndarray | None = None
    covariate_values: np.ndarray | None = None
    covariate_names: tuple[str, ...] = ()
    covariate_coefs: np.ndarray | None = None
    block_sizes: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.interactions is not None:
            matrix = np.asarray(self.interactions, dtype=np.float64)
            if matrix.shape != (self.p, self.p):
                raise ValueError(f"interactions must be {self.p}x{self.p}")
            if float(np.abs(matrix - matrix.T).max(initial=0.0)) > 1e-12:
                raise ValueError("interactions must be symmetric")
            if float(np.abs(matrix.sum(axis=1)).max(initial=0.0)) > 1e-12:
                raise ValueError("interaction rows must sum to zero")
            self.interactions = matrix
        if self.node_effects is not None:
            self.node_effects = np.asarray(self.node_effects, dtype=np.float64)
            if self.node_effects.shape != (self.n,):
                raise ValueError("node_effects must have length n")
        if self.block_effects is not None:
            self.block_effects = np.asarray(self.block_effects, dtype=np.float64)
            if self.block_effects.shape != (self.p,):
                raise ValueError("block_effects must have length p")
        if (self.covariate_values is None) != (self.covariate_coefs is None):
            raise ValueError("covariate_values and covariate_coefs go together")
        if self.covariate_values is not None:
            m = self.n * (self.n - 1) // 2
            self.covariate_values = np.asarray(self.covariate_values, dtype=np.float64)
            self.covariate_coefs = np.asarray(self.covariate_coefs, dtype=np.float64)
            k = len(self.covariate_coefs)
            if self.covariate_values.shape != (m, k):
                raise ValueError(f"covariate_values must be ({m}, {k})")
            if not self.covariate_names:
                self.covariate_names = tuple(f"x{i + 1}" for i in range(k))
            if len(self.covariate_names) != k:
                raise ValueError("covariate_names must match covariate_coefs")


def sample_graph(spec: GeneratorSpec) -> tuple[Graph, DyadTable, Partition]:
    """Draw one network; deterministic given the spec and its seed.

    Returns the graph, its dyad table (carrying any covariates used in
    the draw) and the block partition. Rejects parameter sets whose
    linear predictor leaves the representable range of the family.
    """
    partition = allocate_blocks(spec.n, spec.p, spec.block_sizes)
    node_ids = tuple(sorted(partition.block_of))
    blocks = partition.indices_for(node_ids)
    iu, ju = _dyads(spec.n)
    eta = np.full(len(iu), float(spec.intercept))
    if spec.node_effects is not None:
        eta += spec.node_effects[iu] + spec.node_effects[ju]
    if spec.block_effects is not None:
        eta += spec.block_effects[blocks[iu]] + spec.block_effects[blocks[ju]]
    if spec.interactions is not None:
        eta += spec.interactions[blocks[iu], blocks[ju]]
    if spec.covariate_values is not None:
        eta += spec.covariate_values @ spec.covariate_coefs

    bound = LOGIT_BOUND if spec.family == "bernoulli_logit" else LOG_RATE_BOUND
    bad = np.flatnonzero(np.abs(eta) > bound)
    if len(bad):
        k = int(bad[0])
        raise ValueError(
            f"linear predictor {eta[k]:.3g} out of range for dyad "
            f"({node_ids[iu[k]]}, {node_ids[ju[k]]})"
        )

    rng = np.random.default_rng(spec.seed)
    if spec.family == "bernoulli_logit":
        draws = rng.binomial(1, _logistic(eta)[0])
    else:
        draws = rng.poisson(np.exp(eta))

    graph = Graph(node_ids=node_ids, weights=draws)
    table = DyadTable(
        node_ids=node_ids,
        response=draws,
        covariates=(spec.covariate_values if spec.covariate_values is not None
                    else np.empty((len(iu), 0))),
        covariate_names=spec.covariate_names,
    )
    return graph, table, partition


def sparse_interactions(p: int, fraction_zero: float, magnitude: float,
                        seed: int = 0) -> np.ndarray:
    """Random symmetric block-interaction matrix with a given zero share.

    Off-diagonal values are 0 for a ``fraction_zero`` share of the
    unordered pairs (rounded) and ±``magnitude`` elsewhere, with random
    signs; the diagonal is completed from the zero-row-sum constraint.
    """
    if not 0.0 <= fraction_zero <= 1.0:
        raise ValueError("fraction_zero must be in [0, 1]")
    rng = np.random.default_rng(seed)
    pairs = p * (p - 1) // 2
    n_zero = int(round(fraction_zero * pairs))
    values = np.where(rng.integers(0, 2, size=pairs) == 1, magnitude, -magnitude)
    zero_at = rng.permutation(pairs)[:n_zero]
    values[zero_at] = 0.0
    return reconstruct_interactions(values, p)


def write_dataset(out_dir, graph: Graph, partition: Partition,
                  spec: GeneratorSpec | None = None,
                  mode: str | None = None) -> dict[str, Path]:
    """Write a sampled network in the formats the loaders consume.

    Produces ``edges.csv`` (weight column only in weighted mode; the
    default mode is inferred from the graph), ``attributes.csv`` with a
    ``block`` column covering every node (so isolated nodes survive a
    round trip), and ``truth.json`` with the generating parameters when
    a spec is given.
    """
    if mode is None:
        mode = "binary" if graph.is_binary else "weighted"
    if mode not in ("binary", "weighted"):
        raise ValueError(f"mode must be 'binary' or 'weighted', got {mode!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "binary" and not graph.is_binary:
        raise ValueError("graph has weights above 1; cannot write in binary mode")
    ids = np.array(graph.node_ids)
    edges = np.flatnonzero(graph.weights)
    columns = [ids[ends[edges]].tolist() for ends in _dyads(graph.node_count)]
    if mode != "binary":
        columns.append(graph.weights[edges].tolist())
    edges_path = out / "edges.csv"
    # no header row: that is the loader's default expectation
    _write_csv(edges_path, zip(*columns))
    attrs_path = out / "attributes.csv"
    _write_csv(attrs_path, [("node_id", "block"),
                            *((node, partition.label_of(node)) for node in graph.node_ids)])
    paths = {"edges": edges_path, "attributes": attrs_path}
    if spec is not None:
        truth = {
            "n": spec.n,
            "p": spec.p,
            "family": spec.family,
            "intercept": spec.intercept,
            "seed": spec.seed,
            "block_sizes": [int(v) for v in partition.sizes()],
            "interactions": (None if spec.interactions is None
                             else [[float(v) for v in row] for row in spec.interactions]),
            "node_effects": (None if spec.node_effects is None
                             else [float(v) for v in spec.node_effects]),
            "block_effects": (None if spec.block_effects is None
                              else [float(v) for v in spec.block_effects]),
            "covariate_coefs": (None if spec.covariate_coefs is None
                                else [float(v) for v in spec.covariate_coefs]),
        }
        truth_path = out / "truth.json"
        _write_json(truth_path, truth)
        paths["truth"] = truth_path
    return paths
