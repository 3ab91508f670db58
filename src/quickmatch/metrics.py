"""Match-quality metrics: split quality against a partition and clustering
comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Clustering, FeatureId, InputError, _find_rows, _id_array, _sorted_order
from .partition import Partition

__all__ = [
    "SplitReport",
    "ClusterComparison",
    "split_quality",
    "compare_clusterings",
]


@dataclass(frozen=True)
class SplitReport:
    """How a partition cuts across a clustering.

    ``q`` holds each cluster's largest single-agent fraction (aligned with
    ``clustering.clusters``); a cluster is contested when its q is below 1.
    ``p_split`` is the raw detected-to-truly-split count ratio (may exceed 1,
    reported uncapped); ``contested_recall`` is the fraction of truly split
    features that were actually detected. Both are None without a detected
    contested set, or when nothing is split.
    """

    q: tuple[float, ...]
    p_contested: float
    contested_cluster_count: int
    split_feature_count: int
    detected_contested_count: int | None
    p_split: float | None
    contested_recall: float | None


def split_quality(
    clustering: Clustering,
    part: Partition,
    contested: Iterable[FeatureId] | np.ndarray | None = None,
) -> SplitReport:
    """Split quality per cluster plus the contested-cluster fraction.

    For each cluster, q is the count of its largest single-agent group over
    the cluster size. With a detected contested set (id pairs, or a ``(k, 2)``
    array; repeats count once, and each must be in the clustering) the report
    also carries the raw ratio |detected| / |features in split clusters| and
    the recall of detected among truly split features.
    """
    ids, cluster_of = clustering.id_array, clustering.cluster_of
    rows = _find_rows(part.ids, ids)
    if (rows < 0).any():
        raise InputError(f"feature {tuple(ids[np.argmax(rows < 0)].tolist())} not covered by the partition")
    # Features per (cluster, agent) cell, in cluster order; a cluster's largest cell gives its q.
    cells, cell_sizes = np.unique(cluster_of * part.m + part.assignment[rows], return_counts=True)
    starts = np.flatnonzero(np.diff(cells // part.m, prepend=-1))
    q_values = np.maximum.reduceat(cell_sizes, starts) / np.diff(clustering.offsets)
    split = q_values < 1.0
    split_features = ids[split[cluster_of]]
    contested_clusters = int(split.sum())
    p_contested = contested_clusters / len(q_values) if len(q_values) else 0.0

    detected_count = p_split = recall = None
    if contested is not None:
        given = _id_array(contested if isinstance(contested, np.ndarray) else list(contested))
        if (foreign := _find_rows(ids, given) < 0).any():
            raise InputError(f"contested feature {tuple(given[np.argmax(foreign)].tolist())} is not in the clustering")
        detected = np.unique(given, axis=0)
        detected_count = len(detected)
        if len(split_features):
            p_split = detected_count / len(split_features)
            recall = int((_find_rows(split_features, detected) >= 0).sum()) / len(split_features)
    return SplitReport(tuple(q_values.tolist()), p_contested, contested_clusters, len(split_features),
                       detected_count, p_split, recall)


@dataclass(frozen=True)
class ClusterComparison:
    exact_equal: bool
    pairwise_f1: float
    pair_tp: int
    pairs_a: int
    pairs_b: int
    only_in_a: list[list[list[int]]]  # each cluster with no identical one in b, as [image, index] lists
    only_in_b: list[list[list[int]]]


def _pair_count(counts: np.ndarray) -> int:
    """Number of unordered pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _by_id(clustering: Clustering) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row order that sorts the clustering's ids, the sorted ids and each
    one's cluster index."""
    order = _sorted_order(clustering.id_array)
    return order, clustering.id_array[order], clustering.cluster_of[order]


def _unmatched(clustering: Clustering, other_label: np.ndarray, other_sizes: np.ndarray) -> list[list[list[int]]]:
    """Clusters with no identical cluster in the other clustering, in order.

    ``other_label`` gives, per row of ``clustering.id_array``, the other
    clustering's cluster; a cluster is matched when all its members share one
    and that cluster is exactly as large."""
    starts, sizes = clustering.offsets[:-1], np.diff(clustering.offsets)
    if not len(sizes):
        return []
    low = np.minimum.reduceat(other_label, starts)
    unmatched = (low != np.maximum.reduceat(other_label, starts)) | (other_sizes[low] != sizes)
    flat = clustering.id_array[np.repeat(unmatched, sizes)].tolist()
    ends = np.cumsum(sizes[unmatched]).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def compare_clusterings(a: Clustering, b: Clustering) -> ClusterComparison:
    """Exact equality up to relabeling plus pairwise F1 of the induced
    same-cluster relation. Two clusterings with no co-clustered pairs at all
    agree perfectly, so their F1 is 1. A feature in only one of them raises
    InputError; neither can list a feature twice, as Clustering rejects that."""
    order_a, ids_a, label_a = _by_id(a)
    order_b, ids_b, label_b = _by_id(b)
    if not np.array_equal(ids_a, ids_b):
        raise InputError("clusterings cover different feature sets")
    sizes_a, sizes_b = np.diff(a.offsets), np.diff(b.offsets)
    # Same-cluster pairs in both: pairs within each cell of the contingency table.
    _, cells = np.unique(label_a * max(len(b), 1) + label_b, return_counts=True)
    tp, pairs_a, pairs_b = _pair_count(cells), _pair_count(sizes_a), _pair_count(sizes_b)
    denom = pairs_a + pairs_b
    f1 = 2.0 * tp / denom if denom else 1.0

    # Each clustering's rows, labelled with the other clustering's clusters.
    b_of_a = np.empty(len(ids_a), dtype=np.intp)
    b_of_a[order_a] = label_b
    a_of_b = np.empty(len(ids_b), dtype=np.intp)
    a_of_b[order_b] = label_a
    only_a = _unmatched(a, b_of_a, sizes_b)
    only_b = _unmatched(b, a_of_b, sizes_a)
    return ClusterComparison(not only_a and not only_b, f1, tp, pairs_a, pairs_b, only_a, only_b)
