"""Consistent multi-image feature matching, centralized and distributed."""

from .core import (
    Clustering,
    FeatureId,
    FeatureSet,
    InputError,
    ParseError,
    ProtocolError,
    ValidationError,
    canonical_cluster_bytes,
    load_clustering,
    load_features,
    save_clustering,
    save_features,
    validate_clustering,
)
from .centralized import MatchParams, quickmatch
from .distributed import (
    AgentState,
    DistributedRun,
    NetworkLedger,
    detect_contested,
    distributed_quickmatch,
    exchange_boundary_scalars,
    finalize,
    local_cluster,
    transfer_round,
)
from .kernels import Kernel
from .metrics import (
    ClusterComparison,
    PRCurve,
    SplitReport,
    baseline_ratio_match,
    compare_clusterings,
    match_counts_vs_reference,
    pr_curve,
    split_quality,
)
from .partition import (
    Partition,
    kmeans_seeds,
    random_seeds,
)
from .synthetic import SynthConfig, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "ClusterComparison",
    "Clustering",
    "DistributedRun",
    "FeatureId",
    "FeatureSet",
    "InputError",
    "Kernel",
    "MatchParams",
    "NetworkLedger",
    "PRCurve",
    "ParseError",
    "Partition",
    "ProtocolError",
    "SplitReport",
    "SynthConfig",
    "ValidationError",
    "baseline_ratio_match",
    "canonical_cluster_bytes",
    "compare_clusterings",
    "detect_contested",
    "distributed_quickmatch",
    "exchange_boundary_scalars",
    "finalize",
    "generate_synthetic",
    "kmeans_seeds",
    "load_clustering",
    "load_features",
    "local_cluster",
    "match_counts_vs_reference",
    "pr_curve",
    "quickmatch",
    "random_seeds",
    "save_clustering",
    "save_features",
    "split_quality",
    "transfer_round",
    "validate_clustering",
]
