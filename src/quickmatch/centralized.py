"""Centralized multi-image matching: distinctiveness, kernel density,
density-ascent tree, and the merge-or-break loop.

`cluster_rows` runs the whole chain over any set of feature rows; it is the
one pipeline behind `quickmatch` and behind every agent's local and final
clustering in the distributed harness. The public step functions
(`compute_distinctiveness` ... `break_and_merge`) expose the same stages one
at a time over a whole FeatureSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import Clustering, DensityTree, FeatureSet, InputError
from .kernels import Kernel, kernel_values

__all__ = [
    "MatchParams",
    "Distinctiveness",
    "compute_distinctiveness",
    "compute_density",
    "build_tree",
    "break_and_merge",
    "quickmatch",
    "SIGMA_FLOOR",
]

# Exact duplicate features make an image's distinctiveness zero; clamp so the
# kernels stay defined.
SIGMA_FLOOR = 1e-12

_BLOCK = 1024  # column block for pairwise-distance accumulation


@dataclass(frozen=True)
class MatchParams:
    """Tuning knobs for the merge loop: threshold multiplier and kernel."""

    rho: float = 1.1
    kernel: Kernel = Kernel.GAUSSIAN

    def __post_init__(self) -> None:
        if not (isinstance(self.rho, (int, float)) and not math.isnan(self.rho) and self.rho >= 0):
            raise InputError(f"rho must be a non-negative real, got {self.rho!r}")
        try:
            object.__setattr__(self, "kernel", Kernel(self.kernel))
        except ValueError:
            raise InputError(f"unknown kernel {self.kernel!r}") from None


@dataclass(frozen=True)
class Distinctiveness:
    """Per-image bandwidth: the minimum intra-image pairwise distance."""

    sigma: np.ndarray
    image_ids: tuple[int, ...]

    def for_image(self, image_id: int) -> float:
        return float(self.sigma[self.image_ids.index(image_id)])


def sigma_per_image(vectors: np.ndarray, image_slots: np.ndarray, n_images: int) -> np.ndarray:
    """Raw per-image minimum pairwise distance; NaN where an image has < 2 features."""
    sigma = np.full(n_images, np.nan)
    for s in range(n_images):
        rows = np.flatnonzero(image_slots == s)
        if len(rows) >= 2:
            sigma[s] = pdist(vectors[rows]).min()
    return sigma


def resolve_sigma(sigma_raw: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Fill undefined per-image sigmas and clamp zeros.

    Images with < 2 features take the minimum sigma over the remaining
    images; if no image has 2 features, the global minimum pairwise distance
    stands in; a single lone feature falls back to 1.0. Everything is clamped
    to SIGMA_FLOOR so exact duplicates cannot zero out a bandwidth.
    """
    sigma = sigma_raw.copy()
    undefined = np.isnan(sigma)
    if undefined.any():
        if not undefined.all():
            fill = np.nanmin(sigma)
        elif len(vectors) >= 2:
            fill = pdist(vectors).min()
        else:
            fill = 1.0
        sigma[undefined] = fill
    return np.maximum(sigma, SIGMA_FLOOR)


def compute_distinctiveness(fs: FeatureSet) -> Distinctiveness:
    """Per-image sigma over the whole feature set, fallbacks resolved."""
    if len(fs) == 0:
        raise InputError("empty feature set")
    raw = sigma_per_image(fs.vectors, fs.image_slots, fs.image_count)
    return Distinctiveness(resolve_sigma(raw, fs.vectors), fs.image_ids)


def density_values(
    vectors: np.ndarray, image_slots: np.ndarray, sigma: np.ndarray, kernel: Kernel
) -> np.ndarray:
    """Kernel density at each feature: sum of h(d(x, x_j); sigma[image(j)]) over all j.

    The self term is included (it contributes a constant 1). Column-blocked so
    the full pairwise matrix is never materialized.
    """
    n = len(vectors)
    out = np.zeros(n)
    sig_cols = sigma[image_slots]
    for c0 in range(0, n, _BLOCK):
        c1 = min(c0 + _BLOCK, n)
        d = cdist(vectors, vectors[c0:c1])
        out += np.asarray(kernel_values(kernel, d, sig_cols[c0:c1][None, :])).sum(axis=1)
    return out


def compute_density(fs: FeatureSet, dist: Distinctiveness, kernel: Kernel = Kernel.GAUSSIAN) -> np.ndarray:
    return density_values(fs.vectors, fs.image_slots, dist.sigma, kernel)


def tree_arrays(
    vectors: np.ndarray, density: np.ndarray, id_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and edge length per feature.

    The parent is the nearest feature with strictly higher density, searched
    over all features; features with no strictly denser feature are roots
    (parent -1, length NaN). Exactly tied densities are ordered by feature id
    (higher id counts as denser), so symmetric configurations still form
    edges; without this, a lone cross-image pair could never match. Equal
    candidate distances resolve to the lowest feature id.
    """
    n = len(vectors)
    parent = np.full(n, -1, dtype=np.intp)
    edge = np.full(n, np.nan)
    for r0 in range(0, n, _BLOCK):
        r1 = min(r0 + _BLOCK, n)
        d = cdist(vectors[r0:r1], vectors)
        higher = (density[None, :] > density[r0:r1, None]) | (
            (density[None, :] == density[r0:r1, None]) & (id_rank[None, :] > id_rank[r0:r1, None])
        )
        d[~higher] = np.inf
        best = d.min(axis=1)
        for i in range(r1 - r0):
            if not np.isfinite(best[i]):
                continue
            cand = np.flatnonzero(d[i] == best[i])
            j = cand[np.argmin(id_rank[cand])]
            parent[r0 + i] = j
            edge[r0 + i] = best[i]
    return parent, edge


def build_tree(fs: FeatureSet, density: np.ndarray) -> DensityTree:
    parent, edge = tree_arrays(fs.vectors, np.asarray(density, dtype=np.float64), fs.id_rank)
    return DensityTree(fs.ids, parent, edge, np.asarray(density, dtype=np.float64))


def merge_labels(
    parent: np.ndarray,
    edge_length: np.ndarray,
    image_slots: np.ndarray,
    sigma: np.ndarray,
    rho: float,
    id_rank: np.ndarray,
) -> np.ndarray:
    """Union-find merge loop over tree edges in ascending length order.

    Starting from singletons, an edge joins its endpoint clusters iff their
    image sets are disjoint and the edge is no longer than rho times the
    smallest per-image sigma among the images present in either cluster.
    Equal-length edges are processed in lowest-child-id order.
    """
    n = len(parent)
    uf = np.arange(n, dtype=np.intp)

    def find(x: int) -> int:
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    images: dict[int, set[int]] = {r: {int(image_slots[r])} for r in range(n)}
    min_sigma: dict[int, float] = {r: float(sigma[image_slots[r]]) for r in range(n)}

    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((id_rank[children], edge_length[children]))]
    for child in order:
        a, b = find(int(child)), find(int(parent[child]))
        if a == b:  # cannot happen in a forest, guard anyway
            continue
        ia, ib = images[a], images[b]
        if ia & ib:
            continue
        threshold = rho * min(min_sigma[a], min_sigma[b])
        if edge_length[child] <= threshold:
            if len(ia) < len(ib):
                a, b = b, a
                ia, ib = ib, ia
            uf[b] = a
            ia |= ib
            min_sigma[a] = min(min_sigma[a], min_sigma[b])
            del images[b], min_sigma[b]

    return np.array([find(r) for r in range(n)], dtype=np.intp)


def label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Row indices per label, ascending within each group; groups in label order."""
    if len(labels) == 0:
        return []
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


class RowClusters(NamedTuple):
    """What :func:`cluster_rows` produced, aligned with its input rows."""

    labels: np.ndarray
    parent: np.ndarray
    edge_length: np.ndarray
    sigma_a: float  # longest tree edge; +inf when there is none


def cluster_rows(
    vectors: np.ndarray,
    image_slots: np.ndarray,
    id_rank: np.ndarray,
    n_images: int,
    params: MatchParams,
    *,
    fallback_sigma_a: bool = False,
) -> RowClusters:
    """The matching pipeline over one set of rows: sigma, density, tree, merge.

    Density bandwidths always come from :func:`resolve_sigma` over these
    rows. For the merge threshold, an image with fewer than two rows takes
    the same whole-set fill, or, with ``fallback_sigma_a`` (the distributed
    agents), sigma_a: the longest parent edge, which is only known once the
    tree is built.
    """
    raw = sigma_per_image(vectors, image_slots, n_images)
    sigma = resolve_sigma(raw, vectors)
    density = density_values(vectors, image_slots, sigma, params.kernel)
    parent, edge = tree_arrays(vectors, density, id_rank)
    has_parent = parent >= 0
    sigma_a = float(edge[has_parent].max()) if has_parent.any() else math.inf
    if fallback_sigma_a:
        sigma = np.maximum(np.where(np.isnan(raw), sigma_a, raw), SIGMA_FLOOR)
    labels = merge_labels(parent, edge, image_slots, sigma, params.rho, id_rank)
    return RowClusters(labels, parent, edge, sigma_a)


def _labels_to_clustering(labels: np.ndarray, ids, params: MatchParams) -> Clustering:
    meta = {"algorithm": "quickmatch", "rho": params.rho, "kernel": params.kernel.value}
    return Clustering([[ids[r] for r in rows] for rows in label_groups(labels)], meta)


def break_and_merge(
    fs: FeatureSet, tree: DensityTree, dist: Distinctiveness, params: MatchParams
) -> Clustering:
    labels = merge_labels(tree.parent, tree.edge_length, fs.image_slots, dist.sigma, params.rho, fs.id_rank)
    return _labels_to_clustering(labels, fs.ids, params)


def quickmatch(fs: FeatureSet, params: MatchParams = MatchParams()) -> Clustering:
    """Full centralized pipeline: :func:`cluster_rows` over every feature."""
    labels = cluster_rows(fs.vectors, fs.image_slots, fs.id_rank, fs.image_count, params).labels
    return _labels_to_clustering(labels, fs.ids, params)
