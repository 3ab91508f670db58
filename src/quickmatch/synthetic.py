"""Synthetic multi-image datasets: Gaussian blobs around evenly spaced
centers, each blob contributing one feature to each of several images."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Clustering, FeatureSet, InputError, seeded_rng

__all__ = ["SynthConfig", "grid_centers", "generate_synthetic"]


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings.

    Each of ``n_clusters`` entities is sampled ``per_cluster`` times with
    Gaussian jitter ``spread`` around its center; sample j of every entity
    lands in image j, so the ground truth respects the one-feature-per-image
    rule by construction. Centers sit on an evenly spaced grid spanning
    ``extent`` per axis.
    """

    n_clusters: int = 25
    per_cluster: int = 10
    dim: int = 2
    spread: float = 0.25
    seed: int = 0
    extent: float = 10.0

    def __post_init__(self) -> None:
        if self.n_clusters < 1 or self.per_cluster < 1 or self.dim < 1:
            raise InputError("n_clusters, per_cluster and dim must all be >= 1")
        if not (self.spread > 0):
            raise InputError(f"spread must be positive, got {self.spread}")
        if not (self.extent > 0):
            raise InputError(f"extent must be positive, got {self.extent}")


def grid_centers(n: int, dim: int, extent: float = 10.0) -> np.ndarray:
    """``n`` evenly spaced centers: a line for dim 1, a near-square grid in
    the first two axes otherwise (remaining coordinates zero)."""
    if dim == 1:
        return np.linspace(0.0, extent, n).reshape(n, 1)
    side = math.ceil(math.sqrt(n))
    axis = np.linspace(0.0, extent, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    centers = np.zeros((n, dim))
    centers[:, 0] = gx.ravel()[:n]
    centers[:, 1] = gy.ravel()[:n]
    return centers


def generate_synthetic(cfg: SynthConfig) -> tuple[FeatureSet, Clustering]:
    """Generate the feature set and its ground-truth clustering.

    Feature (image j, index c) is sample j of entity c. Rows are emitted
    image-major, matching how a per-camera capture would be ingested.
    """
    centers = grid_centers(cfg.n_clusters, cfg.dim, cfg.extent)
    rng = seeded_rng(cfg.seed)
    jitter = rng.normal(0.0, cfg.spread, size=(cfg.n_clusters, cfg.per_cluster, cfg.dim))
    samples = centers[:, None, :] + jitter

    images, entities = np.divmod(np.arange(cfg.per_cluster * cfg.n_clusters), cfg.n_clusters)
    fs = FeatureSet(samples.transpose(1, 0, 2).reshape(-1, cfg.dim), np.stack([images, entities], axis=1))

    truth = Clustering.from_labels(
        fs.id_array,
        entities,
        {
            "algorithm": "ground-truth",
            "n_clusters": cfg.n_clusters,
            "per_cluster": cfg.per_cluster,
            "dim": cfg.dim,
            "spread": cfg.spread,
            "seed": cfg.seed,
            "extent": cfg.extent,
        },
    )
    return fs, truth
