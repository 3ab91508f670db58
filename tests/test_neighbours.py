"""The kd-tree passes of the pipeline (sigma, finite-support density, parent
search) against the brute-force oracles and an all-pairs reference scan."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import oracles
from quickmatch import centralized
from quickmatch.centralized import (
    MatchParams,
    cluster_rows,
    compute_density,
    compute_distinctiveness,
    density_values,
    quickmatch,
    resolve_sigma,
    sigma_per_image,
    tree_arrays,
)
from quickmatch.core import FeatureSet
from quickmatch.kernels import Kernel, kernel_values
from quickmatch.synthetic import SynthConfig, generate_synthetic

FINITE = [Kernel.QUADRATIC, Kernel.QUADRATIC_AS_PRINTED]

# Plain-Python profiles for the oracle density, independent of kernels.py.
_PY_KERNELS = {
    Kernel.QUADRATIC: lambda d, s: max(0.0, 1.0 - (d / s) ** 2),
    Kernel.QUADRATIC_AS_PRINTED: lambda d, s: 1.0 - d * d / s if d < s else 0.0,
}


def dense_tree(vectors, density, id_rank):
    """All-pairs scan: nearest strictly denser row, density ties to the higher
    id, distance ties to the lower id."""
    d = cdist(vectors, vectors)
    denser = (density[None, :] > density[:, None]) | (
        (density[None, :] == density[:, None]) & (id_rank[None, :] > id_rank[:, None])
    )
    d[~denser] = np.inf
    best = d.min(axis=1)
    parent = np.where(d == best[:, None], id_rank[None, :], np.iinfo(np.intp).max).argmin(axis=1)
    roots = ~np.isfinite(best)
    parent[roots] = -1
    return parent, np.where(roots, np.nan, best)


def dense_density(vectors, image_slots, sigma, kernel):
    """Exactly-rounded sum of every kernel term at ``cdist`` distances. Not
    ``oracles.density``, whose ``dist_fsum`` distances differ in the last bit:
    quadratic-as-printed jumps by 1 - sigma at d = sigma, where every image's
    closest pair sits, so it is only comparable at the pipeline's formula."""
    h = _PY_KERNELS[kernel]
    d = cdist(vectors, vectors)
    sig = sigma[image_slots]
    return np.array([math.fsum(h(float(x), float(s)) for x, s in zip(row, sig)) for row in d])


@pytest.mark.parametrize("kernel", FINITE, ids=lambda k: k.value)
def test_neighbour_passes_match_oracles(kernel):
    for seed in range(50):
        fs = oracles.random_feature_set(np.random.default_rng(4000 + seed), max_per_image=12)
        sigma = compute_distinctiveness(fs)
        want_sigma = oracles.resolved_sigma_by_image(fs)
        assert sigma.tolist() == [want_sigma[img] for img in fs.image_ids]

        dens = compute_density(fs, sigma, kernel)
        want_dens = dense_density(fs.vectors, fs.image_slots, sigma, kernel)
        np.testing.assert_allclose(dens, want_dens, rtol=0, atol=1e-12)

        # Isolated features have density exactly 1 and a pair just inside the
        # support adds ~1e-16, so densities tie or sit an ulp apart: the parent
        # oracle gets the tree's own density, whose accuracy is checked above.
        parent, edge = tree_arrays(fs.vectors, dens, fs.id_rank)
        assert [None if p < 0 else int(p) for p in parent] == oracles.parents(fs, dens)
        for r, p in enumerate(parent):
            if p >= 0:
                assert edge[r] == oracles.dist_loop(fs.vectors[r], fs.vectors[p])


def _grid():
    xs, ys = np.meshgrid(np.arange(15.0), np.arange(15.0))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return [(r % 5, r // 5, v) for r, v in enumerate(pts)]


def _duplicates():
    base = np.random.default_rng(7).uniform(0, 3, (40, 2))
    pts = np.vstack([base, base[:10], base[5:15]])  # repeats inside and across images
    return [(r % 6, r, v) for r, v in enumerate(pts)]


def _dim1():
    pts = np.round(np.random.default_rng(8).uniform(0, 20, 300), 1)  # many exact repeats
    return [(r % 4, r, [v]) for r, v in enumerate(pts)]


def _single_image():
    return [(0, r, v) for r, v in enumerate(np.random.default_rng(9).normal(0, 1, (300, 3)))]


def _clustered_128():
    fs, _ = generate_synthetic(SynthConfig(60, 8, 128, 0.25, 5, 20.0 * 7))
    return [(fid.image, fid.index, v) for fid, v in zip(fs.ids, fs.vectors)]


def _wide_image():
    """One image of two features across the whole extent: its bandwidth
    reaches every row, every other image's stays local."""
    pts = np.random.default_rng(10).uniform(0, 10, (300, 2))
    return [(r % 5, r, v) for r, v in enumerate(pts)] + [(9, 0, [0.0, 0.0]), (9, 1, [10.0, 10.0])]


ADVERSARIAL = {
    "integer-grid": _grid,
    "wide-image": _wide_image,
    "duplicates": _duplicates,
    "dim1": _dim1,
    "single-image": _single_image,
    "clustered-128d": _clustered_128,
}

# (largest k of the neighbour query, bytes per exact-scan block): the
# defaults, every row through the exact scan, and one row per scan block.
SEARCH_SETTINGS = {"default": (256, 8 << 20), "scan-only": (8, 8 << 20), "tiny-blocks": (16, 1)}


@pytest.mark.parametrize("settings", sorted(SEARCH_SETTINGS))
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_inputs_match_dense_scan(case, settings, monkeypatch):
    k_max, block_bytes = SEARCH_SETTINGS[settings]
    monkeypatch.setattr(centralized, "_K_MAX", k_max)
    monkeypatch.setattr(centralized, "_BLOCK_BYTES", block_bytes)
    fs = FeatureSet.from_rows(ADVERSARIAL[case]())
    raw = sigma_per_image(fs.vectors, fs.image_slots, fs.image_count)
    for s in range(fs.image_count):
        rows = fs.image_slots == s
        want = pdist(fs.vectors[rows]).min() if rows.sum() >= 2 else np.nan
        assert raw[s] == want or (np.isnan(raw[s]) and np.isnan(want))
    sigma = resolve_sigma(raw, fs.vectors)
    for kernel in FINITE:
        dens = density_values(fs.vectors, fs.image_slots, sigma, kernel)
        np.testing.assert_allclose(dens, dense_density(fs.vectors, fs.image_slots, sigma, kernel), rtol=0, atol=1e-12)
        parent, edge = tree_arrays(fs.vectors, dens, fs.id_rank)
        want_parent, want_edge = dense_tree(fs.vectors, dens, fs.id_rank)
        np.testing.assert_array_equal(parent, want_parent)
        np.testing.assert_array_equal(edge, want_edge)


def test_sigma_per_image_leaves_small_and_empty_slots_nan():
    """Slots 1 and 3 hold no rows and slot 4 one row; rows of one image
    arrive interleaved with the others."""
    vectors = np.random.default_rng(12).normal(0, 1, (9, 3))
    slots = np.array([2, 0, 2, 4, 0, 2, 0, 0, 2])
    raw = sigma_per_image(vectors, slots, 5)
    assert raw[0] == pdist(vectors[slots == 0]).min()
    assert raw[2] == pdist(vectors[slots == 2]).min()
    assert np.isnan(raw[[1, 3, 4]]).all()


def test_row_subset_keeps_global_id_ranks():
    """Agents cluster a subset of rows whose id ranks are not 0..n-1."""
    fs, _ = generate_synthetic(SynthConfig(120, 6, 2, 0.25, 3, 20.0))
    rows = np.flatnonzero(np.arange(len(fs)) % 3 != 1)
    vectors, slots, id_rank = fs.vectors[rows], fs.image_slots[rows], fs.id_rank[rows]
    sigma = resolve_sigma(sigma_per_image(vectors, slots, fs.image_count), vectors)
    dens = density_values(vectors, slots, sigma, Kernel.QUADRATIC)
    parent, edge = tree_arrays(vectors, dens, id_rank)
    want_parent, want_edge = dense_tree(vectors, dens, id_rank)
    np.testing.assert_array_equal(parent, want_parent)
    np.testing.assert_array_equal(edge, want_edge)


def test_wide_image_widens_only_its_own_columns():
    """2,002 features: all 4M pairs at once would take over 100 MB."""
    fs, _ = generate_synthetic(SynthConfig(200, 10, 2, 0.25, 1, 2.5 * 14))
    rows = [(fid.image, fid.index, v) for fid, v in zip(fs.ids, fs.vectors)]
    fs = FeatureSet.from_rows(rows + [(99, 0, [0.0, 0.0]), (99, 1, [35.0, 35.0])])
    tracemalloc.start()
    try:
        quickmatch(fs, MatchParams(kernel=Kernel.QUADRATIC))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_quadratic_quickmatch_memory_is_bounded():
    """20k 2-D features: one dense 1024-row block alone would be 160 MB."""
    fs, _ = generate_synthetic(SynthConfig(2000, 10, 2, 0.25, 0, 2.5 * 44))
    assert len(fs) == 20_000
    tracemalloc.start()
    try:
        quickmatch(fs, MatchParams(kernel=Kernel.QUADRATIC))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_parent_ties_at_the_kth_neighbour():
    """Grid centres whose 12 nearest neighbours are sparser and whose 8
    neighbours at distance sqrt(5), all denser, straddle the 16th: the query
    cuts that tie, so the lowest-id denser feature may not be among the 16."""
    xs, ys = np.meshgrid(np.arange(30), np.arange(30))
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    density = np.zeros(len(pts))
    for cx in range(3, 30, 6):
        for cy in range(3, 30, 6):
            ring = np.round(((pts - [cx, cy]) ** 2).sum(axis=1)) == 5
            density[ring] = 1.0
            density[cy * 30 + cx] = 0.5
    id_rank = np.arange(len(pts))[::-1].copy()  # lowest id at the far corner
    for ranks in (id_rank, id_rank[::-1].copy()):
        parent, edge = tree_arrays(pts, density, ranks)
        want_parent, want_edge = dense_tree(pts, density, ranks)
        np.testing.assert_array_equal(parent, want_parent)
        np.testing.assert_array_equal(edge, want_edge)


@pytest.mark.parametrize("kernel", [Kernel.GAUSSIAN, Kernel.GAUSSIAN_SQUARED], ids=lambda k: k.value)
def test_gaussian_density_row_blocks_keep_every_bit(kernel, monkeypatch):
    """With 100 x 100 tiles and 7-row strips, 24 column blocks per row, each
    row's sum is still its column blocks added in ascending order, on one
    thread or on several, where 300 tiles finish out of order."""
    fs, _ = generate_synthetic(SynthConfig(300, 8, 3, 0.25, 2, 30.0))
    sigma = compute_distinctiveness(fs)
    sig_cols = sigma[fs.image_slots]
    want = np.zeros(len(fs))
    for c0 in range(0, len(fs), 100):
        d = cdist(fs.vectors, fs.vectors[c0:c0 + 100])
        want += kernel_values(kernel, d, sig_cols[None, c0:c0 + 100]).sum(axis=1)
    monkeypatch.setattr(centralized, "_BLOCK", 100)
    monkeypatch.setattr(centralized, "_STRIP", 7)  # strips that do not divide a tile
    monkeypatch.setattr(centralized, "_WORKER_STRIP", 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # frequent thread switches, so a tile buffer handed to two workers would show
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(centralized, "_WORKERS", workers)
            got = density_values(fs.vectors, fs.image_slots, sigma, kernel)
            np.testing.assert_array_equal(got, want, err_msg=f"workers={workers}")
    finally:
        sys.setswitchinterval(interval)


def column_block_density(vectors, image_slots, sigma, kernel):
    """Every row against all columns, summed 1024 columns at a time in
    ascending blocks: the order the symmetric tiles must keep."""
    sig_cols = sigma[image_slots]
    want = np.zeros(len(vectors))
    for c0 in range(0, len(vectors), 1024):
        d = cdist(vectors, vectors[c0:c0 + 1024])
        want += kernel_values(kernel, d, sig_cols[None, c0:c0 + 1024]).sum(axis=1)
    return want


@pytest.mark.parametrize("kernel", [Kernel.GAUSSIAN, Kernel.GAUSSIAN_SQUARED], ids=lambda k: k.value)
def test_gaussian_density_symmetric_tiles_keep_every_bit(kernel, monkeypatch):
    """Each 1024 x 1024 distance tile is computed once and serves both of its
    row blocks; every row still adds its column blocks in ascending order,
    whatever the number of threads, and no thread outlives the call."""
    for n in (0, 1, 2, 1023, 1024, 1025, 2049, 3000):
        for dim in (3, 128):
            rng = np.random.default_rng(n * 1000 + dim)
            vectors = rng.normal(0.0, 1.0, (n, dim))
            slots = rng.integers(0, 9, n)
            sigma = rng.uniform(0.5, 2.0, 9) * math.sqrt(dim)  # per image, so tile (a, b) needs both blocks' sigmas
            want = column_block_density(vectors, slots, sigma, kernel)
            for workers in (1, 2, 3):
                monkeypatch.setattr(centralized, "_WORKERS", workers)
                threads = threading.active_count()
                got = density_values(vectors, slots, sigma, kernel)
                assert threading.active_count() == threads
                np.testing.assert_array_equal(got, want, err_msg=f"n={n} dim={dim} workers={workers}")

    # An agent's rows: a subset whose id ranks are not 0..n-1, clustered with
    # the sigma_a fallback, checked where cluster_rows takes its density.
    fs, _ = generate_synthetic(SynthConfig(350, 10, 3, 0.25, 4, 30.0))
    rows = np.flatnonzero(np.arange(len(fs)) % 3 != 1)
    tiled, checked = centralized.density_values, []

    def checking(vectors, image_slots, sigma, kern):
        got = tiled(vectors, image_slots, sigma, kern)
        np.testing.assert_array_equal(got, column_block_density(vectors, image_slots, sigma, kern))
        checked.append(len(vectors))
        return got

    monkeypatch.setattr(centralized, "density_values", checking)
    cluster_rows(fs.vectors[rows], fs.image_slots[rows], fs.id_rank[rows], fs.image_count,
                 MatchParams(kernel=kernel), fallback_sigma_a=True)
    assert checked == [len(rows)] and len(rows) > 2048


def test_gaussian_quickmatch_memory_is_bounded():
    """6k 128-D features: the traced peak measured 16.1 MiB, and the bound
    leaves two 1024 x 1024 tiles (8 MiB each) of margin; one 6000 x 1024
    strip alone would be 47 MiB, and an n x n distance matrix 275 MiB."""
    fs, _ = generate_synthetic(SynthConfig(300, 20, 128, 0.25, 0, 20.0 * 17))
    assert len(fs) == 6000
    tracemalloc.start()
    try:
        quickmatch(fs, MatchParams(kernel=Kernel.GAUSSIAN))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_gaussian_density_memory_does_not_grow_with_cpus(monkeypatch):
    """On eight CPUs the density still holds at most _TILE_BYTES of tile
    buffers: 6k 128-D features measured 17.8 MiB traced at two workers or
    more, and 68 MiB when every CPU got its own 8 MiB tile."""
    fs, _ = generate_synthetic(SynthConfig(300, 20, 128, 0.25, 0, 20.0 * 17))
    sigma = compute_distinctiveness(fs)
    monkeypatch.setattr(centralized, "_WORKERS", 8)
    tracemalloc.start()
    try:
        density_values(fs.vectors, fs.image_slots, sigma, Kernel.GAUSSIAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
