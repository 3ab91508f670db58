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
import os
import queue
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import Clustering, DensityTree, FeatureSet, InputError
from .kernels import Kernel, kernel_values

__all__ = [
    "MatchParams",
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

_BLOCK = 1024  # rows and columns of one tile of the dense Gaussian density sum
# Tile rows per kernel evaluation: 128 on the calling thread (1 MiB
# temporaries), 32 on a worker thread (256 KiB), because glibc gives each
# thread its own malloc arena, which keeps freed blocks of that size resident.
_STRIP = 128
_WORKER_STRIP = 32
# Threads for the Gaussian density tiles: the CPUs this process may run on,
# as many as the tile buffers fit in _TILE_BYTES (two 1024 x 1024 tiles), so
# the density's memory does not grow with the CPU count.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_TILE_BYTES = 16 << 20
_BLOCK_BYTES = 8 << 20  # size of one float64 temporary in an exact parent-scan block
_K0, _K_MAX = 16, 256  # neighbour counts tried by the parent search, doubling
# Relative margin on kd-tree distances, which may differ from the exact
# formula in the last ulps: a search radius or "farther" test carrying it
# cannot drop a candidate tied under the exact formula.
_SLACK = 1e-9


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


def pair_distances(vectors: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Distance between ``vectors[rows]`` and ``vectors[cols]`` (index arrays
    that broadcast together), bit for bit what ``cdist`` gives: squared
    differences summed in dimension order, then the square root."""
    acc = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
    for comp in np.ascontiguousarray(vectors.T):
        t = comp[rows] - comp[cols]
        acc += t * t
    return np.sqrt(acc)


def min_pair_distance(points: np.ndarray) -> float:
    """Smallest pairwise distance among at least two points, exact as ``pdist``."""
    tree = cKDTree(points)
    near = float(tree.query(points, k=2)[0][:, 1].min())
    if near == 0.0 or near == math.inf:  # a zero or overflowed sum of squares under either formula
        return near
    pairs = tree.query_pairs(near * (1 + _SLACK), output_type="ndarray")
    return float(pair_distances(points, pairs[:, 0], pairs[:, 1]).min())


def sigma_per_image(vectors: np.ndarray, image_slots: np.ndarray, n_images: int) -> np.ndarray:
    """Raw per-image minimum pairwise distance; NaN where an image has < 2 features."""
    sigma = np.full(n_images, np.nan)
    for rows in label_groups(image_slots):
        if len(rows) >= 2:
            sigma[image_slots[rows[0]]] = min_pair_distance(vectors[rows])
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
            fill = min_pair_distance(vectors)
        else:
            fill = 1.0
        sigma[undefined] = fill
    return np.maximum(sigma, SIGMA_FLOOR)


def compute_distinctiveness(fs: FeatureSet) -> np.ndarray:
    """Per-image bandwidth, the minimum intra-image pairwise distance, over
    the whole feature set with fallbacks resolved; one entry per image, in
    ``fs.image_ids`` order."""
    if len(fs) == 0:
        raise InputError("empty feature set")
    return resolve_sigma(sigma_per_image(fs.vectors, fs.image_slots, fs.image_count), fs.vectors)


def density_values(
    vectors: np.ndarray, image_slots: np.ndarray, sigma: np.ndarray, kernel: Kernel
) -> np.ndarray:
    """Kernel density at each feature: sum of h(d(x, x_j); sigma[image(j)]) over all j.

    The self term is included (it contributes a constant 1). The quadratic
    kernel vanishes beyond its bandwidth, so only the pairs within the
    column's bandwidth are found (kd-tree) and summed, each row in ascending
    column order. The Gaussian sums every pair in 1024-column blocks; each
    1024 x 1024 distance tile is computed once and serves both of its row
    blocks, so no temporary grows with n. The tiles run on up to one thread
    per CPU the process may use, as many as _TILE_BYTES of tile buffers
    allow, and their sums are added in tile order, so the result is the same
    bit for bit whatever the thread count.
    """
    n = len(vectors)
    sig_cols = sigma[image_slots]
    if kernel == Kernel.QUADRATIC:
        # A column only reaches rows within its own image's bandwidth, and one
        # image's features lie at least that far apart, so in low dimensions
        # each row meets a bounded number of every image's features.
        tree = cKDTree(vectors)
        rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for members in label_groups(image_slots):
            radius = float(sigma[image_slots[members[0]]]) * (1 + _SLACK)
            near = cKDTree(vectors[members]).sparse_distance_matrix(tree, radius, output_type="ndarray")
            rows.append(near["j"])
            cols.append(members[near["i"]])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        order = np.argsort(rows * n + cols)
        rows, cols = rows[order], cols[order]
        h = kernel_values(kernel, pair_distances(vectors, rows, cols), sig_cols[cols])
        return np.bincount(rows, weights=h, minlength=n)
    block = _BLOCK
    tiles = [(a0, b0) for a0 in range(0, n, block) for b0 in range(a0, n, block)]
    side = min(block, n)
    workers = max(1, min(_WORKERS, len(tiles), _TILE_BYTES // (8 * max(side, 1) ** 2)))
    strip = _STRIP if workers == 1 else _WORKER_STRIP
    # One tile buffer per worker, allocated here rather than in the workers,
    # so that no thread's malloc arena keeps a tile's worth of pages.
    buffers: queue.SimpleQueue[np.ndarray] = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(side * side))

    def row_sums(d: np.ndarray, cols: slice) -> np.ndarray:
        """Each row's kernel terms over ``cols``, given their distances ``d``;
        a strip of rows at a time, each row contiguous, so numpy sums it
        exactly as it would the whole row."""
        sums = np.empty(len(d))
        for r0 in range(0, len(d), strip):
            part = np.ascontiguousarray(d[r0:r0 + strip])
            sums[r0:r0 + len(part)] = kernel_values(kernel, part, sig_cols[None, cols]).sum(axis=1)
        return sums

    def tile_sums(tile: tuple[int, int]) -> tuple[np.ndarray, np.ndarray | None]:
        """Row sums of tile (a, b): block a's rows over block b's columns and,
        off the diagonal, block b's rows over block a's columns."""
        a0, b0 = tile
        xa, xb = vectors[a0:a0 + block], vectors[b0:b0 + block]
        buf = buffers.get()
        try:
            d = cdist(xa, xb, out=buf[:len(xa) * len(xb)].reshape(len(xa), len(xb)))
            across = row_sums(d, slice(b0, b0 + block))
            # cdist is symmetric bit for bit, so the transpose serves block b.
            return across, row_sums(d.T, slice(a0, a0 + block)) if b0 > a0 else None
        finally:
            buffers.put(buf)

    def add(sums: Iterable[tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
        # The tile sums are added in tile order, whichever worker finishes
        # first: every row adds its column blocks in ascending order, as a row
        # scan would.
        out = np.zeros(n)
        for (a0, b0), (across, down) in zip(tiles, sums):
            out[a0:a0 + len(across)] += across
            if down is not None:
                out[b0:b0 + len(down)] += down
        return out

    # One worker is the calling thread, which starts no thread for an input of
    # one tile (an agent's clustering, any n <= 1024) or on one CPU.
    if workers == 1:
        return add(map(tile_sums, tiles))
    with ThreadPoolExecutor(workers) as pool:
        return add(pool.map(tile_sums, tiles))


def compute_density(fs: FeatureSet, sigma: np.ndarray, kernel: Kernel = Kernel.GAUSSIAN) -> np.ndarray:
    return density_values(fs.vectors, fs.image_slots, sigma, kernel)


def tree_arrays(vectors: np.ndarray, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and edge length per feature.

    The parent is the nearest feature with strictly higher density, searched
    over all features; features with no strictly denser feature are roots
    (parent -1, length NaN). Exactly tied densities are ordered by row
    (the later row counts as denser), so symmetric configurations still form
    edges; without this, a lone cross-image pair could never match. Equal
    candidate distances resolve to the lowest row. Rows in id order, as a
    FeatureSet keeps them, make both tie-breaks go by feature id.

    Each row first looks among its k nearest neighbours (kd-tree), k doubling
    from 16 to 256 while the row has no denser neighbour nearer than the k-th;
    the rows left, mainly the modes, scan every denser feature exactly.
    """
    n = len(vectors)
    parent = np.full(n, -1, dtype=np.intp)
    edge = np.full(n, np.nan)
    by_rank = np.argsort(density, kind="stable")  # ascending "denser" order
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)

    def settle(rows: np.ndarray, cand: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Record each row's parent among its candidate columns; returns the best distances."""
        d = np.where(rank[cand] > rank[rows][:, None], d, np.inf)
        best = d.min(axis=1)
        pick = np.where(d == best[:, None], cand, np.iinfo(np.intp).max).argmin(axis=1)
        found = np.isfinite(best)
        parent[rows[found]] = cand[found, pick[found]]
        edge[rows[found]] = best[found]
        return best

    tree = cKDTree(vectors)
    todo = np.arange(n)
    k = _K0
    while len(todo) and k <= _K_MAX:
        kk = min(k, n)
        kd, nbr = tree.query(vectors[todo], k=kk)
        nbr = nbr.reshape(len(todo), kk)
        best = settle(todo, nbr, pair_distances(vectors, todo[:, None], nbr))
        if kk == n:
            return parent, edge
        todo = todo[~(kd.reshape(len(todo), kk)[:, -1] > best * (1 + _SLACK))]
        k *= 2
    # Exact scan, densest rows first, each block against every feature denser
    # than its least dense row, sized so one block holds about _BLOCK_BYTES.
    todo = todo[np.argsort(-rank[todo])]
    s = 0
    while s < len(todo):
        e = s + 1
        while e < len(todo) and (e + 1 - s) * (n - rank[todo[e]]) * 8 <= _BLOCK_BYTES:
            e += 1
        rows = todo[s:e]
        cols = by_rank[rank[rows[-1]] + 1:]
        if len(cols):
            settle(rows, np.broadcast_to(cols, (len(rows), len(cols))), cdist(vectors[rows], vectors[cols]))
        s = e
    return parent, edge


def build_tree(fs: FeatureSet, density: np.ndarray) -> DensityTree:
    return DensityTree(*tree_arrays(fs.vectors, np.asarray(density, dtype=np.float64)))


def merge_labels(
    parent: np.ndarray,
    edge_length: np.ndarray,
    image_slots: np.ndarray,
    sigma: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Union-find merge loop over tree edges in ascending length order.

    Starting from singletons, an edge joins its endpoint clusters iff their
    image sets are disjoint and the edge is no longer than rho times the
    smallest per-image sigma among the images present in either cluster.
    Equal-length edges are processed in lowest-child-row order.
    """
    n = len(parent)
    uf = list(range(n))

    def find(x: int) -> int:
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    # Plain Python values: the loop runs once per tree edge, and indexing
    # numpy arrays element by element costs more than the work itself.
    slots, sig = image_slots.tolist(), sigma.tolist()
    images = [{s} for s in slots]  # per cluster root
    min_sigma = [sig[s] for s in slots]
    par, length = parent.tolist(), edge_length.tolist()

    children = np.flatnonzero(parent >= 0)
    order = children[np.argsort(edge_length[children], kind="stable")]
    for child in order.tolist():
        a, b = find(child), find(par[child])
        ia, ib = images[a], images[b]
        if not ia.isdisjoint(ib):
            continue
        threshold = rho * min(min_sigma[a], min_sigma[b])
        if length[child] <= threshold:
            if len(ia) < len(ib):
                a, b = b, a
                ia, ib = ib, ia
            uf[b] = a
            ia |= ib
            min_sigma[a] = min(min_sigma[a], min_sigma[b])

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
    sigma_a: float  # longest tree edge; +inf when there is none


def cluster_rows(
    vectors: np.ndarray,
    image_slots: np.ndarray,
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
    parent, edge = tree_arrays(vectors, density)
    has_parent = parent >= 0
    sigma_a = float(edge[has_parent].max()) if has_parent.any() else math.inf
    if fallback_sigma_a:
        sigma = np.maximum(np.where(np.isnan(raw), sigma_a, raw), SIGMA_FLOOR)
    labels = merge_labels(parent, edge, image_slots, sigma, params.rho)
    return RowClusters(labels, parent, sigma_a)


def _labels_to_clustering(labels: np.ndarray, id_array: np.ndarray, params: MatchParams) -> Clustering:
    meta = {"algorithm": "quickmatch", "rho": params.rho, "kernel": params.kernel.value}
    return Clustering.from_labels(id_array, labels, meta)


def break_and_merge(fs: FeatureSet, tree: DensityTree, sigma: np.ndarray, params: MatchParams) -> Clustering:
    labels = merge_labels(tree.parent, tree.edge_length, fs.image_slots, sigma, params.rho)
    return _labels_to_clustering(labels, fs.id_array, params)


def quickmatch(fs: FeatureSet, params: MatchParams = MatchParams()) -> Clustering:
    """Full centralized pipeline: :func:`cluster_rows` over every feature."""
    labels = cluster_rows(fs.vectors, fs.image_slots, fs.image_count, params).labels
    return _labels_to_clustering(labels, fs.id_array, params)
