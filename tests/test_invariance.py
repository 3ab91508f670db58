"""Clusters depend on the features, not on how the input presents them: the
same cluster bytes whatever the order of the rows, and whatever the unit of
the coordinates (a power-of-two scale, which floating point applies exactly).
A `dmatch` run's ledger and partition bytes do not follow the row order
either.

README's Kernels note states where the scale property stops: a bandwidth
clamped at ``SIGMA_FLOOR``, and a squared distance outside the normal float
range. Larger searches with this generator reach both. The 150 examples
drawn here reach neither only for the package's current literals, from
which hypothesis draws part of its examples; the first limit is pinned
directly below, as an expected failure."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quickmatch.centralized import MatchParams, quickmatch
from quickmatch.core import FeatureSet, canonical_cluster_bytes
from quickmatch.distributed import distributed_quickmatch
from quickmatch.kernels import Kernel

import oracles


DMATCH_RUNS = ("dmatch-kmeans", "dmatch-random")


@st.composite
def _cases(draw, runs=("match-gaussian", "match-quadratic", *DMATCH_RUNS)):
    """A small feature set (integer grids with ties, or floats) and a run:
    `match` with either kernel, or `dmatch` with either seeding and m <= 8."""
    fs = draw(oracles.small_feature_sets())
    run = draw(st.sampled_from(runs))
    m = draw(st.integers(1, min(8, len(np.unique(fs.vectors, axis=0)))))
    return fs, run, m, draw(st.integers(0, 3))


def _cluster_bytes(fs: FeatureSet, run: str, m: int, seed: int) -> bytes:
    command, option = run.split("-")
    if command == "match":
        return canonical_cluster_bytes(quickmatch(fs, MatchParams(kernel=Kernel(option))))
    return canonical_cluster_bytes(distributed_quickmatch(fs, m, seed=seed, seeding=option).clustering)


def _shuffled(fs: FeatureSet, rnd) -> FeatureSet:
    """``fs`` built again from its rows in a shuffled, unsorted order."""
    order = list(range(len(fs)))
    rnd.shuffle(order)
    assume(order != sorted(order))
    return FeatureSet(fs.vectors[order], fs.id_array[order])


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(_cases(), st.randoms(use_true_random=False))
def test_row_order_leaves_the_clusters_unchanged(case, rnd):
    fs, run, m, seed = case
    shuffled = _shuffled(fs, rnd)
    assert _cluster_bytes(shuffled, run, m, seed) == _cluster_bytes(fs, run, m, seed)


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(_cases(DMATCH_RUNS), st.randoms(use_true_random=False))
def test_row_order_leaves_the_dmatch_ledger_and_partition_unchanged(case, rnd):
    fs, run, m, seed = case
    seeding = run.split("-")[1]
    want, got = (distributed_quickmatch(s, m, seed=seed, seeding=seeding) for s in (fs, _shuffled(fs, rnd)))
    assert got.ledger.to_json() == want.ledger.to_json()
    assert got.partition.to_json() == want.partition.to_json()


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(_cases(), st.integers(-30, 30).filter(bool))
def test_power_of_two_units_leave_the_clusters_unchanged(case, k):
    fs, run, m, seed = case
    scaled = FeatureSet(fs.vectors * 2.0**k, fs.id_array)
    assert _cluster_bytes(scaled, run, m, seed) == _cluster_bytes(fs, run, m, seed)


@settings(max_examples=150, database=None, deadline=None, derandomize=True)
@given(oracles.small_feature_sets(), st.sampled_from(list(Kernel)), st.sampled_from(("kmeans", "random")),
       st.integers(0, 3))
def test_one_agent_gives_the_centralized_clusters(fs, kernel, seeding, seed):
    """README's `--agents 1` contract: one agent's clusters are `match`'s,
    byte for byte, single-feature images included."""
    params = MatchParams(kernel=kernel)
    run = distributed_quickmatch(fs, 1, params, seed=seed, seeding=seeding)
    assert canonical_cluster_bytes(run.clustering) == canonical_cluster_bytes(quickmatch(fs, params))


@pytest.mark.xfail(
    strict=True,
    reason="image 0's bandwidth is clamped to the absolute SIGMA_FLOOR, which does not scale "
    "with the data; a relative floor (ROADMAP item 6) lifts this limit",
)
@pytest.mark.parametrize("run", ["match-gaussian", "match-quadratic"])
def test_scaling_keeps_the_clusters_of_features_closer_than_the_sigma_floor(run):
    fs = FeatureSet(np.array([[0.0], [0.0], [1e-12]]), [(0, 0), (0, 1), (1, 0)])
    scaled = FeatureSet(fs.vectors * 2.0, fs.id_array)
    assert _cluster_bytes(scaled, run, 1, 0) == _cluster_bytes(fs, run, 1, 0)


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
