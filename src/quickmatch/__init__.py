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
    distributed_quickmatch,
)
from .kernels import Kernel
from .metrics import (
    ClusterComparison,
    SplitReport,
    compare_clusterings,
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
    "ParseError",
    "Partition",
    "ProtocolError",
    "SplitReport",
    "SynthConfig",
    "ValidationError",
    "canonical_cluster_bytes",
    "compare_clusterings",
    "distributed_quickmatch",
    "generate_synthetic",
    "kmeans_seeds",
    "load_clustering",
    "load_features",
    "quickmatch",
    "random_seeds",
    "save_clustering",
    "save_features",
    "split_quality",
    "validate_clustering",
]
