"""Clusters depend on the features, not on how the input presents them: the
same cluster bytes whatever the order of the rows, and whatever the unit of
the coordinates (a power-of-two scale, which floating point applies exactly).

README's Kernels note states where the scale property stops: a bandwidth
clamped at ``SIGMA_FLOOR``, and a squared distance outside the normal float
range. Larger searches with this generator reach both; the 150 examples
drawn here reach neither."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quickmatch.centralized import MatchParams, quickmatch
from quickmatch.core import FeatureSet, canonical_cluster_bytes
from quickmatch.distributed import distributed_quickmatch
from quickmatch.kernels import Kernel

import oracles


@st.composite
def _cases(draw):
    """A small feature set (integer grids with ties, or floats) and a run:
    `match` with either kernel, or `dmatch` with either seeding and m <= 8."""
    fs = draw(oracles.small_feature_sets())
    run = draw(st.sampled_from(["match-gaussian", "match-quadratic", "dmatch-kmeans", "dmatch-random"]))
    m = draw(st.integers(1, min(8, len(np.unique(fs.vectors, axis=0)))))
    return fs, run, m, draw(st.integers(0, 3))


def _cluster_bytes(fs: FeatureSet, run: str, m: int, seed: int) -> bytes:
    command, option = run.split("-")
    if command == "match":
        return canonical_cluster_bytes(quickmatch(fs, MatchParams(kernel=Kernel(option))))
    return canonical_cluster_bytes(distributed_quickmatch(fs, m, seed=seed, seeding=option).clustering)


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(_cases(), st.randoms(use_true_random=False))
def test_row_order_leaves_the_clusters_unchanged(case, rnd):
    fs, run, m, seed = case
    order = list(range(len(fs)))
    rnd.shuffle(order)
    assume(order != sorted(order))
    shuffled = FeatureSet(fs.vectors[order], fs.id_array[order])
    assert _cluster_bytes(shuffled, run, m, seed) == _cluster_bytes(fs, run, m, seed)


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(_cases(), st.integers(-30, 30).filter(bool))
def test_power_of_two_units_leave_the_clusters_unchanged(case, k):
    fs, run, m, seed = case
    scaled = FeatureSet(fs.vectors * 2.0**k, fs.id_array)
    assert _cluster_bytes(scaled, run, m, seed) == _cluster_bytes(fs, run, m, seed)


def test_density_sums_do_not_follow_the_row_order():
    """Found by a wider search of the row-order property: with terms summed in
    row order, these shuffled rows moved a density's last bit, which decided a
    density tie and with it the clusters."""
    vectors = np.array([[1.0, 0.0], [1.0, 3.0], [1.0, 1.0], [1.0, 2.0], [1.0, 4.0], [3.0, 1.0]])
    ids = [(1, 0), (2, 1), (0, 2), (3, 3), (1, 4), (1, 5)]
    order = [2, 3, 4, 0, 5, 1]
    fs = FeatureSet(vectors, ids)
    shuffled = FeatureSet(vectors[order], [ids[i] for i in order])
    assert _cluster_bytes(shuffled, "match-quadratic", 1, 0) == _cluster_bytes(fs, "match-quadratic", 1, 0)
