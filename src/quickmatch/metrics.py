"""Match-quality metrics, clustering comparison, the pairwise ratio-test
baseline, and precision/recall machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import Clustering, FeatureId, FeatureSet, InputError, _find_rows, _id_array, _repeats, _sorted_order
from .partition import Partition

__all__ = [
    "SplitReport",
    "ClusterComparison",
    "PRCurve",
    "split_quality",
    "compare_clusterings",
    "baseline_ratio_match",
    "match_counts_vs_reference",
    "pr_curve",
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

    def to_dict(self) -> dict:
        return {
            "q": list(self.q),
            "p_contested": self.p_contested,
            "contested_cluster_count": self.contested_cluster_count,
            "split_feature_count": self.split_feature_count,
            "detected_contested_count": self.detected_contested_count,
            "p_split": self.p_split,
            "contested_recall": self.contested_recall,
        }


def split_quality(
    clustering: Clustering,
    part: Partition,
    contested: Iterable[FeatureId] | np.ndarray | None = None,
) -> SplitReport:
    """Split quality per cluster plus the contested-cluster fraction.

    For each cluster, q is the count of its largest single-agent group over
    the cluster size. With a detected contested set (id pairs, or a ``(k, 2)``
    array; repeats count once) the report also carries the raw ratio
    |detected| / |features in split clusters| and the recall of detected
    among truly split features.
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
        detected = _distinct(_id_array(contested if isinstance(contested, np.ndarray) else list(contested)))
        detected_count = len(detected)
        if len(split_features):
            p_split = detected_count / len(split_features)
            recall = int((_find_rows(split_features, detected) >= 0).sum()) / len(split_features)
    return SplitReport(tuple(q_values.tolist()), p_contested, contested_clusters, len(split_features),
                       detected_count, p_split, recall)


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct rows of ``(n, 2)`` ids, sorted."""
    ids = ids[_sorted_order(ids)]
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ~_repeats(ids)
    return ids[keep]


@dataclass(frozen=True)
class ClusterComparison:
    exact_equal: bool
    pairwise_f1: float
    pair_tp: int
    pairs_a: int
    pairs_b: int
    only_in_a: list[list[list[int]]]  # each cluster with no identical one in b, as [image, index] lists
    only_in_b: list[list[list[int]]]

    def to_dict(self) -> dict:
        return {
            "exact_equal": self.exact_equal,
            "pairwise_f1": self.pairwise_f1,
            "pair_tp": self.pair_tp,
            "pairs_a": self.pairs_a,
            "pairs_b": self.pairs_b,
            "only_in_a": self.only_in_a,
            "only_in_b": self.only_in_b,
        }


def _pairs(counts: np.ndarray) -> int:
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
    tp, pairs_a, pairs_b = _pairs(cells), _pairs(sizes_a), _pairs(sizes_b)
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


def baseline_ratio_match(
    fs_query: FeatureSet, fs_train: FeatureSet, ratio: float = 0.75
) -> list[tuple[FeatureId, FeatureId]]:
    """Pairwise nearest-neighbor matching with the classic ratio test.

    Exhaustive search: each query feature matches its nearest train feature
    iff d1 < ratio * d2, with d2 the second-nearest distance. A query feature
    exactly tied between two train features is rejected. Degenerate mode:
    with fewer than two train features there is no second neighbor, and
    ``ratio`` is reused as an absolute distance threshold (d1 < ratio).
    """
    if fs_query.dim != fs_train.dim:
        raise InputError(f"dimension mismatch: {fs_query.dim} vs {fs_train.dim}")
    if not (0 < ratio):
        raise InputError("ratio must be positive")
    if len(fs_query) == 0 or len(fs_train) == 0:
        return []
    d = cdist(fs_query.vectors, fs_train.vectors)
    rows = np.arange(len(fs_query))
    nearest = d.argmin(axis=1)
    d1 = d[rows, nearest]
    d[rows, nearest] = np.inf  # the row minimum is now the second-nearest distance
    keep = d1 < (ratio * d.min(axis=1) if len(fs_train) > 1 else ratio)
    query_ids, train_ids = fs_query.ids, fs_train.ids
    return [(query_ids[q], train_ids[t]) for q, t in zip(np.flatnonzero(keep).tolist(), nearest[keep].tolist())]


def match_counts_vs_reference(clustering: Clustering, reference_image: int) -> dict[int, int]:
    """Per-image count of clusters joining that image with the reference one.

    Under the one-feature-per-image rule each such cluster contributes
    exactly one matched feature pair, so this is the matched-feature count
    the threshold detector consumes.
    """
    ids, cluster_of = clustering.id_array, clustering.cluster_of
    images = ids[:, 0]
    joined = np.isin(cluster_of, cluster_of[images == reference_image])
    # Members are sorted by id, so a cluster's features of one image are
    # neighbours: count each (cluster, image) pair once.
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (images[1:] != images[:-1]) | (cluster_of[1:] != cluster_of[:-1])
    counted, counts = np.unique(images[first & joined & (images != reference_image)], return_counts=True)
    return dict(zip(counted.tolist(), counts.tolist()))


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall points of a count-threshold detector, plus the
    trapezoidal area under the curve over the recall axis."""

    points: tuple[tuple[float, float, float], ...]  # (threshold, precision, recall)
    auc: float

    def to_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "auc": self.auc,
        }


def pr_curve(
    counts: Sequence[float] | Mapping[int, float],
    truth: Sequence[bool] | Mapping[int, bool],
    thresholds: Sequence[float] | None = None,
) -> PRCurve:
    """Precision and recall of the detector "match exists iff count > t".

    ``counts`` and ``truth`` are aligned per image (mappings are joined on
    their keys). Default thresholds sweep every distinct count plus -1, so
    the curve spans everything-detected through nothing-detected. Precision
    at zero detections is taken as 1.
    """
    if isinstance(counts, Mapping) or isinstance(truth, Mapping):
        if not (isinstance(counts, Mapping) and isinstance(truth, Mapping)):
            raise InputError("counts and truth must both be mappings or both sequences")
        keys = sorted(truth.keys())
        count_arr = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
        truth_arr = np.array([bool(truth[k]) for k in keys])
    else:
        if len(counts) != len(truth):
            raise InputError("counts and truth must have equal length")
        count_arr = np.asarray(counts, dtype=np.float64)
        truth_arr = np.asarray(truth, dtype=bool)
    positives = int(truth_arr.sum())
    if positives == 0:
        raise InputError("no positive ground truth; recall is undefined")
    if thresholds is None:
        thresholds = sorted(set(float(c) for c in count_arr) | {-1.0})
    else:
        thresholds = sorted(float(t) for t in thresholds)

    points: list[tuple[float, float, float]] = []
    for t in sorted(thresholds, reverse=True):
        detected = count_arr > t
        tp = int((detected & truth_arr).sum())
        n_det = int(detected.sum())
        precision = tp / n_det if n_det else 1.0
        recall = tp / positives
        points.append((t, precision, recall))

    auc = 0.0
    for (_, p0, r0), (_, p1, r1) in zip(points, points[1:]):
        auc += (r1 - r0) * (p1 + p0) / 2.0
    return PRCurve(tuple(points), auc)
