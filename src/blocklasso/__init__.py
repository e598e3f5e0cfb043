"""Blockmodel fitting for networks with known block structure.

Fits the degree-corrected Bernoulli blockmodel and the
covariate-adjusted Poisson blockmodel by maximum likelihood and by
adaptive-lasso penalized likelihood, and derives sparse reduced graphs
summarizing within- and between-block interactions.
"""

__version__ = "0.1.0"

from .covariates import (
    CovariateError,
    CovariateSpec,
    DyadTable,
    ScalingRecord,
    build_dyad_table,
    standardize,
    unstandardize_coefficients,
)
from .design import DesignMatrix, ModelSpec, encode, reconstruct_interactions
from .glm import ConvergenceError, FitResult, fit_mle, log_likelihood, read_fit_json
from .graphs import (
    AttributeTable,
    AttributeTableError,
    EdgeListError,
    Graph,
    Partition,
    PartitionError,
    ValidationReport,
    load_attributes,
    load_edge_list,
    load_node_list,
    partition_from_attributes,
    validate,
)
from .penalty import (
    PathResult,
    PenaltySpec,
    adaptive_weights,
    fit_penalized,
    lambda_max,
    lambda_path,
    restricted_fit,
    select,
)
from .reduced import (
    ReducedGraph,
    SignSummary,
    export_reduced_graph,
    reduce_positive,
    reduce_threshold,
)
from .simulate import (
    GeneratorSpec,
    allocate_blocks,
    sample_graph,
    sparse_interactions,
    write_dataset,
)

__all__ = [
    "__version__",
    "AttributeTable",
    "AttributeTableError",
    "ConvergenceError",
    "CovariateError",
    "CovariateSpec",
    "DesignMatrix",
    "DyadTable",
    "EdgeListError",
    "FitResult",
    "GeneratorSpec",
    "Graph",
    "ModelSpec",
    "Partition",
    "PartitionError",
    "PathResult",
    "PenaltySpec",
    "ReducedGraph",
    "ScalingRecord",
    "SignSummary",
    "ValidationReport",
    "adaptive_weights",
    "allocate_blocks",
    "build_dyad_table",
    "encode",
    "export_reduced_graph",
    "fit_mle",
    "fit_penalized",
    "lambda_max",
    "lambda_path",
    "load_attributes",
    "load_edge_list",
    "load_node_list",
    "log_likelihood",
    "partition_from_attributes",
    "read_fit_json",
    "reconstruct_interactions",
    "reduce_positive",
    "reduce_threshold",
    "restricted_fit",
    "sample_graph",
    "select",
    "sparse_interactions",
    "standardize",
    "unstandardize_coefficients",
    "validate",
    "write_dataset",
]
