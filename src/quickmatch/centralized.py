"""Centralized multi-image matching: distinctiveness, kernel density,
density-ascent tree, and the merge-or-break loop.

`cluster_rows` runs the whole chain over any set of feature rows; it is the
one pipeline behind `quickmatch` and behind every agent's local and final
clustering in the distributed harness. `density_order` hands the tree all it
reads of the density: the order, certified for the Gaussian from BLAS
distance tiles under a proven error bound, and with the quadratic kernel the
density's own pairs within the smallest bandwidth, found by one kd self-join
per class of similar bandwidths, which settle most parents. The other rows,
mainly the density modes, search kd-trees over denser features only. The
merge settles each component of short edges whose rows come from distinct
images as one cluster, and runs the union-find loop over the other
components only. The public step functions (`compute_distinctiveness` ...
`break_and_merge`) are those same stages, one at a time over a whole
FeatureSet; `density_values` gives the exact density.
"""

from __future__ import annotations

import math
import os
import queue
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .core import Clustering, DensityTree, FeatureSet, InputError
from .kernels import Kernel, gaussian_kernel, quadratic_kernel

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
# Tile rows per kernel evaluation, 256 KiB temporaries: glibc gives each worker
# thread its own malloc arena, which keeps freed blocks of 1 MiB resident.
_STRIP = 32
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
# density_order's bound: the unit roundoff, np.exp's assumed relative error,
# and the exponent beyond which a term is bounded absolutely, not relatively.
_U = 2.0**-53
_EXP_ERR = 2.0**-50
_Z = 700.0


@dataclass(frozen=True)
class MatchParams:
    """Matching parameters: ``rho`` scales the merge threshold, ``kernel`` picks the density kernel."""

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
    return _component_distances(np.ascontiguousarray(vectors.T), rows, cols)


def _component_distances(components: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """:func:`pair_distances` from the vectors' transpose, one contiguous
    row per component, which a caller with many calls makes once."""
    acc = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
    for comp in components:
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
    column order. The Gaussian sums every pair over ``cdist`` tiles (see
    :func:`_tiled_sums`), the same bits whatever the thread count.
    """
    if kernel == Kernel.QUADRATIC:
        return _quadratic_density(vectors, image_slots, sigma)[0]
    return _tiled_sums(len(vectors), lambda a, b, out: cdist(vectors[a], vectors[b], out=out),
                       _gaussian_terms(sigma[image_slots]))


def _quadratic_density(
    vectors: np.ndarray, image_slots: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The quadratic density, each row adding its terms in ascending column
    order, and the pairs it sums, sorted by row then column, with their
    ``pair_distances`` distances: every (row, col) pair within the column's
    image bandwidth, which are all the pairs whose kernel term is not zero,
    and some farther pairs, whose term is exactly +0.0 and changes no sum.

    A column only reaches rows within its own image's bandwidth, and one
    image's features lie at least that far apart, so in low dimensions each
    row meets a bounded number of every image's features. The images present
    form bandwidth classes: by ascending bandwidth, a class takes every
    image whose bandwidth is at most 4 ** (1 / dim) times the class's
    smallest (twice in 2-D), and its columns are searched at its largest
    bandwidth, a ball of at most four times the volume of each column's own.
    One class, the usual case, is one ``query_pairs`` self-join of the whole
    set, both directions and the self pairs added; with several, each
    class's rows are queried against the whole set, so one far-apart image
    widens only its own columns. The kd radius carries _SLACK, so every pair
    within a column's bandwidth under the exact formula is found.
    """
    n, dim = vectors.shape
    # Unbalanced trees build several times faster; any tree finds the same pairs.
    tree = cKDTree(vectors, balanced_tree=False, compact_nodes=False)
    present = np.unique(image_slots)
    by_sigma = present[np.argsort(sigma[present], kind="stable")]
    ends = np.searchsorted(sigma[by_sigma], 4 ** (1 / dim) * sigma[by_sigma], side="right")
    starts = [0]
    while starts[-1] < len(by_sigma):
        starts.append(ends[starts[-1]])
    keys = [np.zeros(0, np.intp)]  # row * n + col of each pair
    for s0, s1 in zip(starts, starts[1:]):
        radius = float(sigma[by_sigma[s1 - 1]]) * (1 + _SLACK)
        if s1 - s0 == len(by_sigma):
            # At 10k 2-D features on a 2-vCPU Xeon, 4 ms with the keys sorted,
            # against 7 ms for the whole tree's sparse_distance_matrix with itself.
            i, j = tree.query_pairs(radius, output_type="ndarray").T
            keys += [i * n + j, j * n + i, np.arange(n) * (n + 1)]
            del i, j
        else:
            members = np.flatnonzero(np.isin(image_slots, by_sigma[s0:s1]))
            class_tree = cKDTree(vectors[members], balanced_tree=False, compact_nodes=False)
            near = class_tree.sparse_distance_matrix(tree, radius, output_type="ndarray")
            keys.append(near["j"] * n + members[near["i"]])
    del tree
    keys = np.sort(np.concatenate(keys))
    rows, cols = np.divmod(keys, n)
    del keys  # the tree and the keys go before the kernel's temporaries, which set the pass's peak memory
    d = pair_distances(vectors, rows, cols)
    terms = quadratic_kernel(d, sigma[image_slots][cols])
    return np.bincount(rows, weights=terms, minlength=n), (rows, cols, d)


def _gaussian_terms(sig_cols: np.ndarray) -> Callable[[np.ndarray, slice], np.ndarray]:
    """The exact Gaussian density's terms over the columns ``cols``, given their ``cdist`` distances."""
    return lambda d, cols: gaussian_kernel(d, sig_cols[None, cols])


def _strip_sums(d: np.ndarray, cols: slice, terms: Callable[[np.ndarray, slice], np.ndarray]) -> np.ndarray:
    """Each row's sum of ``terms`` over ``cols``, given their distances ``d``;
    a strip of rows at a time, each row contiguous, so numpy sums it exactly
    as it would the whole row."""
    sums = np.empty(len(d))
    for r0 in range(0, len(d), _STRIP):
        sums[r0:r0 + _STRIP] = terms(np.ascontiguousarray(d[r0:r0 + _STRIP]), cols).sum(axis=1)
    return sums


def _tiled_sums(n: int, distances: Callable[[slice, slice, np.ndarray], np.ndarray],
                terms: Callable[[np.ndarray, slice], np.ndarray]) -> np.ndarray:
    """Each row's sum of ``terms`` over all n columns, in 1024-column blocks.

    ``distances(a, b, out)`` fills ``out`` with the tile of rows ``a`` against
    columns ``b``. Each 1024 x 1024 tile of the upper triangle is computed
    once and serves both of its row blocks, so no temporary grows with n. The
    tiles run on up to one thread per CPU the process may use, as many as
    _TILE_BYTES of tile buffers allow, and their sums are added in tile order,
    so the result is the same bit for bit whatever the thread count.
    """
    block = _BLOCK
    tiles = [(a0, b0) for a0 in range(0, n, block) for b0 in range(a0, n, block)]
    side = min(block, n)
    workers = max(1, min(_WORKERS, len(tiles), _TILE_BYTES // (8 * max(side, 1) ** 2)))
    # One tile buffer per worker, allocated here rather than in the workers,
    # so that no thread's malloc arena keeps a tile's worth of pages.
    buffers: queue.SimpleQueue[np.ndarray] = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(side * side))

    def tile_sums(tile: tuple[int, int]) -> tuple[np.ndarray, np.ndarray | None]:
        """Row sums of tile (a, b): block a's rows over block b's columns and,
        off the diagonal, block b's rows over block a's columns."""
        a0, b0 = tile
        a, b = slice(a0, min(a0 + block, n)), slice(b0, min(b0 + block, n))
        buf = buffers.get()
        try:
            d = distances(a, b, buf[:(a.stop - a0) * (b.stop - b0)].reshape(a.stop - a0, b.stop - b0))
            across = _strip_sums(d, b, terms)
            # The transpose serves block b: cdist is symmetric bit for bit,
            # and the error bound of density_order's tiles is symmetric.
            return across, _strip_sums(d.T, a, terms) if b0 > a0 else None
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


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * _U / (1 - k * _U)


def density_order(
    vectors: np.ndarray, image_slots: np.ndarray, sigma: np.ndarray, kernel: Kernel
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """The density's one hand-off to :func:`tree_arrays`, ``(by_rank, near)``:
    the rows in ascending stable order of :func:`density_values`, all that
    the tree reads of the density, and pairs that settle parents.

    Quadratic: both come from one pass over the density's pairs, and
    ``near`` keeps those with ``d <= sigma[image_slots].min()``, every pair
    that close (the kd radius carries _SLACK). Gaussian: ``near`` is None;
    each row gets an approximate density S~ and a proven half-width W; only
    rows whose intervals overlap another's get their exact ``density_values``
    bits D^. Every row takes ``density_values`` where the bound does not
    hold (huge coordinates, bandwidths at SIGMA_FLOOR) or leaves over half
    of the rows to sum exactly.

    S~ sums exp(-t s_j), s_j = 1/(2 sigma_j^2), over BLAS tiles t = |a|^2 +
    |b|^2 - 2 a.b clamped at 0. S is the real sum at the float sigmas; u =
    2^-53, gamma_k = k u / (1 - k u); a term is near when its true exponent
    has |z| <= Z = 700, far otherwise. The bound, term by term:
    - BLAS: |t - d^2| <= gamma_{dim+2} (|a|^2 + |b|^2 + 2 sum |a_k b_k|) <=
      2 gamma_{dim+2} (|a|^2 + |b|^2) in any product and sum order, FMA
      included; the clamp cannot add to it.
    - Through the exponential: s_j and t s_j add gamma_3, so a near term's
      exponent is off by at most Delta_i = (1 + gamma_3) 2 gamma_{dim+2}
      s_max (|a_i|^2 + max_j |a_j|^2) + gamma_3 Z, the term by e^Delta_i - 1.
    - ``np.exp`` is within eps = 2^-50 relative on normal results: an
      assumption, which a test checks against ``math.exp`` on [-Z - 1, 0].
    - The sum of n nonnegative terms, in any order, is within gamma_{n-1} of
      their sum (Higham 2002, ch. 4).
    - Far terms: with Delta_i <= 1/2 a computed far exponent stays beyond
      Z - 1, so true and computed far terms lie in [0, tau], tau = e^{2-Z}.
    So |S~_i - S_i| <= c_i S_i + 2 n tau, c_i = (1 + eps) (1 + gamma_n)
    e^Delta_i - 1. D^ has the same form with gamma_{dim+7} Z for Delta_i:
    ``cdist``'s d^2 is within gamma_{dim+2}, and its square root, the
    kernel's ``d*d``, ``sigma**2`` and division add five roundings, all
    relative to z; its blocked sums are one summation order. Hence
    |D^_i - S~_i| <= W_i = (c_i + c_dense) (S~_i + 2 n tau) / (1 - c_i) +
    4 n tau, widened by 1% for the rounding of the bound's own evaluation.

    Certify: sort the intervals by lower end and find the runs that overlap;
    the rows of every run of two or more get D^ from ``density_values``'
    strip sums, in ascending 1024-column blocks. A row outside the runs is
    disjoint from every other interval, so it compares strictly, and as
    under D^, with every row; rows inside runs compare by their exact
    values, ties going to the lower row. So the merged values' stable
    argsort is D^'s.
    """
    n = len(vectors)
    if kernel == Kernel.QUADRATIC:
        density, (rows, cols, d) = _quadratic_density(vectors, image_slots, sigma)
        keep = d <= sigma[image_slots].min(initial=math.inf)  # the farther pairs go before the tree runs
        return np.argsort(density, kind="stable"), (rows[keep], cols[keep], d[keep])
    intervals = _density_intervals(vectors, sigma[image_slots]) if n else None
    if intervals is not None:
        approx, width = intervals
        lo, hi = approx - width, approx + width
        by_lo = np.argsort(lo, kind="stable")
        # A run starts where a row's interval begins beyond every earlier one's end.
        run = np.cumsum(np.r_[True, lo[by_lo[1:]] > np.maximum.accumulate(hi[by_lo])[:-1]])
        rows = np.sort(by_lo[np.bincount(run)[run] > 1])
        if len(rows) <= n // 2:
            terms = _gaussian_terms(sigma[image_slots])
            for r0 in range(0, len(rows), _BLOCK):
                part = rows[r0:r0 + _BLOCK]
                approx[part] = 0.0
                for c0 in range(0, n, _BLOCK):
                    cols = slice(c0, c0 + _BLOCK)
                    approx[part] += _strip_sums(cdist(vectors[part], vectors[cols]), cols, terms)
            return np.argsort(approx, kind="stable"), None
    return np.argsort(density_values(vectors, image_slots, sigma, kernel), kind="stable"), None


def _density_intervals(vectors: np.ndarray, sig_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """S~ and the half-widths W of :func:`density_order`'s bound, one per
    row; None where the bound does not hold, overflow included."""
    n, dim = vectors.shape
    norms = np.einsum("ij,ij->i", vectors, vectors)
    neg_s = -0.5 / sig_cols**2
    k = (1 + _gamma(3)) * 2 * _gamma(dim + 2) * float(-neg_s.min())
    top, dense_delta = float(norms.max()), _gamma(dim + 7) * _Z
    if not (2 * k * top + _gamma(3) * _Z <= 0.5 and dense_delta <= 0.5):
        return None
    rounding = math.log1p(_EXP_ERR) + math.log1p(_gamma(n))
    c = np.expm1(k * (norms + top) + _gamma(3) * _Z + rounding)
    c_dense = math.expm1(dense_delta + rounding)

    def blas(a: slice, b: slice, out: np.ndarray) -> np.ndarray:
        t = np.matmul(vectors[a], vectors[b].T, out=out)
        t *= -2.0
        t += norms[a, None]
        t += norms[None, b]
        return np.maximum(t, 0.0, out=t)

    def terms(t: np.ndarray, cols: slice) -> np.ndarray:
        z = t * neg_s[None, cols]
        return np.exp(z, out=z)

    approx = _tiled_sums(n, blas, terms)
    tau = n * math.exp(2 - _Z)
    return approx, 1.01 * ((c + c_dense) * (approx + 2 * tau) / (1 - c) + 4 * tau)


def compute_density(fs: FeatureSet, sigma: np.ndarray,
                    kernel: Kernel = Kernel.GAUSSIAN) -> tuple[np.ndarray, tuple | None]:
    """:func:`cluster_rows`' density stage over the whole set:
    :func:`density_order`'s ``(by_rank, near)``, which :func:`build_tree`
    takes. The density's values are :func:`density_values`."""
    return density_order(fs.vectors, fs.image_slots, sigma, kernel)


def tree_arrays(
    vectors: np.ndarray,
    by_rank: np.ndarray,
    near: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and edge length per feature, given the rows in ascending
    stable density order.

    The parent is the nearest feature with strictly higher density, searched
    over all features; features with no strictly denser feature are roots
    (parent -1, length NaN). Exactly tied densities are ordered by row
    (the later row counts as denser), so symmetric configurations still form
    edges; without this, a lone cross-image pair could never match. Equal
    candidate distances resolve to the lowest row. Rows in id order, as a
    FeatureSet keeps them, make both tie-breaks go by feature id.

    ``near`` is what :func:`density_order` returns beside ``by_rank``: None,
    or a ``(rows, cols, d)`` pair list, sorted by row then column, that
    holds for some reach every pair whose ``pair_distances`` distance ``d``
    is within it, and no other. A row with a strictly denser column among
    its pairs takes the nearest, the lowest column on ties: every feature at
    most that far is within the reach, so it is the row's parent over all
    features.

    The other rows, mainly the density modes, search only denser features:
    rows with 2**b to 2**(b+1) - 1 denser features form a block, which asks
    a kd-tree over every feature denser than its least dense row, of which
    each row's own denser features are at least half. There a row looks
    among its k nearest neighbours, k doubling from 16 to 256 while the row
    has no denser neighbour nearer than the k-th; the rows left scan every
    denser feature exactly.
    """
    n = len(vectors)
    parent = np.full(n, -1, dtype=np.intp)
    edge = np.full(n, np.nan)
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    todo = np.arange(n)
    if near is not None:
        rows, cols, d = near
        # An infinite distance makes no edge, as in settle below.
        denser = (rank[cols] > rank[rows]) & (d < math.inf)
        rows, cols, d = rows[denser], cols[denser], d[denser]
        # Per row, the smallest distance; the first pair at it, in column
        # order, has the lowest column.
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        best = np.minimum.reduceat(d, starts)
        at_best = d == np.repeat(best, np.diff(starts, append=len(d)))
        rows, cols = rows[at_best], cols[at_best]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        parent[rows[first]] = cols[first]
        edge[rows[first]] = best
        todo = np.flatnonzero(parent < 0)

    def settle(rows: np.ndarray, cand: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Record each row's parent among its candidate columns; returns the best distances."""
        d = np.where(rank[cand] > rank[rows][:, None], d, np.inf)
        best = d.min(axis=1)
        pick = np.where(d == best[:, None], cand, np.iinfo(np.intp).max).argmin(axis=1)
        found = np.isfinite(best)
        parent[rows[found]] = cand[found, pick[found]]
        edge[rows[found]] = best[found]
        return best

    components = np.ascontiguousarray(vectors.T)
    todo = todo[rank[todo] < n - 1]  # the densest row is a root
    left = [todo[:0]]
    # frexp's exponent is floor(log2(count)) + 1 for each row's count of denser features.
    for block in label_groups(np.frexp(n - 1 - rank[todo])[1]):
        rows = todo[block]
        denser = by_rank[rank[rows].min() + 1:]
        # Unbalanced, as in _quadratic_density: built faster, and no parent depends on the tree's shape.
        tree = cKDTree(vectors[denser], balanced_tree=False, compact_nodes=False)
        k = _K0
        while len(rows) and k <= _K_MAX:
            kk = min(k, len(denser))
            kd, nbr = tree.query(vectors[rows], k=kk)
            nbr = denser[nbr.reshape(len(rows), kk)]
            best = settle(rows, nbr, _component_distances(components, rows[:, None], nbr))
            # With every denser feature queried, each row has its parent.
            rows = rows[~(kd.reshape(len(rows), kk)[:, -1] > best * (1 + _SLACK)) & (kk < len(denser))]
            k *= 2
        left.append(rows)
    todo = np.concatenate(left)
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
        settle(rows, np.broadcast_to(cols, (len(rows), len(cols))), cdist(vectors[rows], vectors[cols]))
        s = e
    return parent, edge


def build_tree(fs: FeatureSet, density: tuple[np.ndarray, tuple | None]) -> DensityTree:
    """:func:`cluster_rows`' tree stage over the whole set, from
    :func:`compute_density`'s ``(by_rank, near)``."""
    return DensityTree(*tree_arrays(fs.vectors, *density))


def merge_labels(
    parent: np.ndarray,
    edge_length: np.ndarray,
    image_slots: np.ndarray,
    sigma: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Each row's cluster label, the smallest row of its cluster, from the
    merge-or-break loop over tree edges in ascending length order.

    Starting from singletons, an edge joins its endpoint clusters iff their
    image sets are disjoint and the edge is no longer than rho times the
    smallest per-image sigma among the images present in either cluster.
    Equal-length edges are processed in lowest-child-row order.

    Most of the loop's decisions are array facts. An edge longer than rho
    times the largest sigma never joins, so it is dropped, and the loop never
    joins across the components of the edges left. A component whose rows
    come from distinct images and whose longest edge is within rho times its
    smallest sigma accepts every edge, in any order, since each threshold is
    at least that: it is one cluster. Only the other components go through
    the loop (:func:`_merge_loop`), with their edges in the same order.
    """
    n = len(parent)
    rows = np.arange(n)
    # Each row's image threshold. Rounding is monotone, so the loop's rho *
    # min(sigmas) is the least of its images' thresholds.
    threshold = rho * sigma[image_slots]
    children = np.flatnonzero(parent >= 0)
    # fmax skips the NaN of rho = 0 times an infinite sigma, which joins nothing.
    children = children[edge_length[children] <= np.fmax.reduce(threshold, initial=-math.inf)]
    # Each row's component root, by pointer jumping up the edges left.
    up = rows.copy()
    up[children] = parent[children]
    while not np.array_equal(jump := up[up], up):
        up = jump
    # A component is dirty if two of its rows share an image, or if its
    # longest edge exceeds its smallest threshold (NaN included).
    dirty = np.zeros(n, dtype=bool)
    key = np.sort(up * len(sigma) + image_slots)
    dirty[key[1:][key[1:] == key[:-1]] // len(sigma)] = True
    longest = np.full(n, -math.inf)
    np.maximum.at(longest, up[children], edge_length[children])
    lowest = np.full(n, math.inf)
    np.minimum.at(lowest, up, threshold)
    dirty |= ~(longest <= lowest)

    # The dirty components' rows, compacted, and their edges in the loop's order.
    loop_rows = np.flatnonzero(dirty[up])
    local = np.empty(n, dtype=np.intp)
    local[loop_rows] = np.arange(len(loop_rows))
    kids = children[dirty[up[children]]]
    kids = kids[np.argsort(edge_length[kids], kind="stable")]
    up[loop_rows] = loop_rows[_merge_loop(local[kids], local[parent[kids]], edge_length[kids],
                                          image_slots[loop_rows], sigma, rho)]
    labels = np.full(n, n, dtype=np.intp)
    np.minimum.at(labels, up, rows)
    return labels[up]


def _merge_loop(
    children: np.ndarray, parents: np.ndarray, lengths: np.ndarray, slots: np.ndarray, sigma: np.ndarray, rho: float
) -> np.ndarray:
    """:func:`merge_labels`' union-find loop over rows ``0 .. len(slots) - 1``
    and the given edges, in the order given; returns each row's root."""
    uf = list(range(len(slots)))

    def find(x: int) -> int:
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    # Plain Python values: the loop runs once per tree edge, and indexing
    # numpy arrays element by element costs more than the work itself.
    slots, sig = slots.tolist(), sigma.tolist()
    images = [{s} for s in slots]  # per cluster root
    min_sigma = [sig[s] for s in slots]
    for child, par, length in zip(children.tolist(), parents.tolist(), lengths.tolist()):
        a, b = find(child), find(par)
        ia, ib = images[a], images[b]
        if not ia.isdisjoint(ib):
            continue
        if length <= rho * min(min_sigma[a], min_sigma[b]):
            if len(ia) < len(ib):
                a, b = b, a
                ia, ib = ib, ia
            uf[b] = a
            ia |= ib
            min_sigma[a] = min(min_sigma[a], min_sigma[b])

    return np.array([find(r) for r in range(len(uf))], dtype=np.intp)


def label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Row indices per label, ascending within each group; groups in label order."""
    if len(labels) == 0:
        return []
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


class RowClusters(NamedTuple):
    """What :func:`cluster_rows` produced, aligned with its input rows."""

    labels: np.ndarray  # each row's cluster, named by its smallest row
    parent: np.ndarray
    sigma_a: float  # longest tree edge; +inf when there is none


def cluster_rows(fs: FeatureSet, params: MatchParams, rows: np.ndarray | None = None) -> RowClusters:
    """The matching pipeline over ``fs``'s ``rows`` (all by default): sigma, density, tree, merge.

    Density bandwidths always come from :func:`resolve_sigma` over these
    rows. For the merge threshold, an image with fewer than two rows takes
    the same whole-set fill, or, when the rows are only part of ``fs`` (an
    agent's), sigma_a: the longest parent edge, which is only known once the
    tree is built.
    """
    vectors, image_slots = (fs.vectors, fs.image_slots) if rows is None else (fs.vectors[rows], fs.image_slots[rows])
    raw = sigma_per_image(vectors, image_slots, fs.image_count)
    sigma = resolve_sigma(raw, vectors)
    parent, edge = tree_arrays(vectors, *density_order(vectors, image_slots, sigma, params.kernel))
    has_parent = parent >= 0
    sigma_a = float(edge[has_parent].max()) if has_parent.any() else math.inf
    if len(vectors) < len(fs):
        sigma = resolve_sigma(np.where(np.isnan(raw), sigma_a, raw), vectors)
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
    labels = cluster_rows(fs, params).labels
    return _labels_to_clustering(labels, fs.id_array, params)
