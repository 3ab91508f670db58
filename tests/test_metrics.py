import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickmatch.core import Clustering, FeatureId, FeatureSet, InputError, ValidationError
from quickmatch.metrics import compare_clusterings, split_quality
from quickmatch.partition import Partition

import oracles


def _partition_by_map(ids, mapping, m):
    seeds = np.arange(m, dtype=float).reshape(m, 1) * 100
    assignment = np.array([mapping[fid] for fid in ids])
    return Partition(seeds, assignment, ids)


# -- split quality ---------------------------------------------------------------


def test_q_one_for_unsplit_cluster():
    ids = tuple(FeatureId(i, 0) for i in range(4))
    clustering = Clustering([ids])
    part = _partition_by_map(ids, {fid: 0 for fid in ids}, 2)
    report = split_quality(clustering, part)
    assert report.q == (1.0,)
    assert report.p_contested == 0.0


def test_q_six_four_split():
    ids = tuple(FeatureId(i, 0) for i in range(10))
    clustering = Clustering([ids])
    mapping = {fid: (0 if n < 6 else 1) for n, fid in enumerate(ids)}
    part = _partition_by_map(ids, mapping, 2)
    report = split_quality(clustering, part)
    assert report.q == (0.6,)
    assert report.p_contested == 1.0
    assert report.split_feature_count == 10


def test_p_contested_three_of_25():
    ids = []
    clusters = []
    mapping = {}
    for c in range(25):
        members = [FeatureId(i, c) for i in range(4)]
        clusters.append(members)
        for n, fid in enumerate(members):
            # first three clusters get split 3/1 across agents
            mapping[fid] = 1 if (c < 3 and n == 0) else 0
        ids.extend(members)
    part = _partition_by_map(tuple(ids), mapping, 2)
    report = split_quality(Clustering(clusters), part)
    assert report.p_contested == pytest.approx(0.12)
    assert report.contested_cluster_count == 3


def test_split_quality_hand_computed_5_cluster_fixture():
    clusters = [
        [FeatureId(0, 0), FeatureId(1, 0)],                        # both agent 0 -> q=1
        [FeatureId(0, 1), FeatureId(1, 1), FeatureId(2, 1)],       # 2/1 split -> q=2/3
        [FeatureId(0, 2)],                                         # singleton -> q=1
        [FeatureId(0, 3), FeatureId(1, 3)],                        # 1/1 split -> q=0.5
        [FeatureId(0, 4), FeatureId(1, 4)],                        # both agent 1 -> q=1
    ]
    mapping = {
        FeatureId(0, 0): 0, FeatureId(1, 0): 0,
        FeatureId(0, 1): 0, FeatureId(1, 1): 0, FeatureId(2, 1): 1,
        FeatureId(0, 2): 1,
        FeatureId(0, 3): 0, FeatureId(1, 3): 1,
        FeatureId(0, 4): 1, FeatureId(1, 4): 1,
    }
    ids = tuple(fid for members in clusters for fid in members)
    part = _partition_by_map(ids, mapping, 2)
    report = split_quality(Clustering(clusters), part, contested=[FeatureId(0, 1), FeatureId(0, 3), FeatureId(0, 0)])
    by_cluster = dict(zip([c[0] for c in Clustering(clusters).clusters], report.q))
    assert report.p_contested == pytest.approx(2 / 5)
    assert report.split_feature_count == 5
    assert report.detected_contested_count == 3
    assert report.p_split == pytest.approx(3 / 5)
    assert report.contested_recall == pytest.approx(2 / 5)
    assert min(report.q) == pytest.approx(0.5)


def test_split_quality_rejects_uncovered_features():
    ids = (FeatureId(0, 0),)
    part = _partition_by_map(ids, {ids[0]: 0}, 1)
    with pytest.raises(InputError):
        split_quality(Clustering([[FeatureId(5, 5)]]), part)


def test_split_quality_refuses_contested_ids_outside_the_clustering():
    """`eval` refuses such a set; the library refuses it too, naming the
    first foreign id in the order given, instead of counting it."""
    ids = (FeatureId(0, 0), FeatureId(0, 1))
    part = _partition_by_map(ids, {ids[0]: 0, ids[1]: 1}, 2)
    with pytest.raises(InputError, match=r"^contested feature \(99, 99\) is not in the clustering$"):
        split_quality(Clustering([[ids[0]], [ids[1]]]), part, contested=[(0, 1), (99, 99), (98, 0)])


def test_split_quality_refuses_contested_ids_that_are_not_integers():
    ids = (FeatureId(0, 0), FeatureId(0, 1))
    part = _partition_by_map(ids, {ids[0]: 0, ids[1]: 0}, 1)
    clustering = Clustering([ids])
    assert split_quality(clustering, part, contested=[(0, 1)]).detected_contested_count == 1
    with pytest.raises(ValidationError, match=r"^non-integer id \(0, 1\.0\)$"):
        split_quality(clustering, part, contested=[(0, 1.0)])  # once counted as (0, 1)
    with pytest.raises(ValidationError, match=r"^non-integer id \(0, True\)$"):
        split_quality(clustering, part, contested=np.array([[0, True]], dtype=object))


# Ids drawn from a few small values and the top of int64.
_ID_VALUES = st.sampled_from([0, 1, 2, 2**63 - 2, 2**63 - 1])


@st.composite
def _split_cases(draw):
    """Raw ids and labels of a clustering (labels blind to images, so C2 may
    break, and some cases list a feature twice), the agent count, ids and
    assignment of a partition of its features, possibly missing some, and a
    contested list that may repeat ids and name ids outside the clustering."""
    ids = draw(st.lists(st.tuples(_ID_VALUES, _ID_VALUES), min_size=1, max_size=14, unique=draw(st.booleans())))
    labels = draw(st.lists(st.integers(0, 4), min_size=len(ids), max_size=len(ids)))
    m = draw(st.integers(1, 3))
    covered = draw(st.permutations(ids))
    covered = covered[draw(st.sampled_from([0, 0, 1, 2])):]  # the partition may miss features
    assignment = draw(st.lists(st.integers(0, m - 1), min_size=len(covered), max_size=len(covered)))
    others = st.tuples(_ID_VALUES, _ID_VALUES)
    contested = draw(st.none() | st.lists(st.sampled_from(ids) | others, max_size=20))
    return ids, labels, m, covered, assignment, contested


def _built(build, ids, repeated):
    """``build()``, or None when ``ids`` list a feature twice, after checking
    that it raised ``repeated(fid)`` for the smallest such id ``fid``."""
    fault = oracles.id_fault(ids)
    if fault is None:
        return build()
    with pytest.raises(ValidationError, match=f"^{re.escape(repeated(fault[1]))}$"):
        build()
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(_split_cases(), _ID_VALUES)
def test_split_quality_and_match_counts_agree_with_the_tuple_loops(case, reference_image):
    ids, labels, m, covered, assignment, contested = case
    clustering = _built(lambda: Clustering.from_labels(np.array(ids), np.array(labels)), ids,
                        lambda fid: oracles.clustering_repeat(ids, labels))
    part = _built(lambda: Partition(np.arange(m, dtype=float).reshape(m, 1), np.array(assignment),
                                    np.array(covered).reshape(-1, 2)), covered, "feature {} is assigned to two agents".format)
    if clustering is None or part is None:
        return
    want = _outcome(oracles.split_quality, clustering, part, contested)
    assert _outcome(split_quality, clustering, part, contested) == want
    if contested is not None:
        as_array = np.array(contested, dtype=np.int64).reshape(-1, 2)
        assert _outcome(split_quality, clustering, part, as_array) == want
    got = oracles.match_counts_vs_reference(clustering, reference_image)
    assert got == oracles.match_counts_loop(clustering, reference_image)
    assert all(type(k) is int and type(v) is int for k, v in got.items())


def test_split_quality_names_the_first_feature_the_partition_misses():
    clustering = Clustering([[FeatureId(0, 0), FeatureId(1, 0)], [FeatureId(2, 7)]])
    part = _partition_by_map([FeatureId(1, 0)], {FeatureId(1, 0): 0}, 1)
    with pytest.raises(InputError, match=r"^feature \(0, 0\) not covered by the partition$"):
        split_quality(clustering, part)


# -- clustering comparison ---------------------------------------------------------


def test_compare_identical():
    c = Clustering([[FeatureId(0, 0), FeatureId(1, 0)], [FeatureId(2, 0)]])
    result = compare_clusterings(c, c)
    assert result.exact_equal
    assert result.pairwise_f1 == 1.0


def test_compare_singletons_vs_one_big_cluster():
    ids = [FeatureId(i, 0) for i in range(4)]
    singles = Clustering([[fid] for fid in ids])
    big = Clustering([ids])
    result = compare_clusterings(singles, big)
    assert not result.exact_equal
    assert result.pairwise_f1 == 0.0


def test_compare_is_symmetric_and_relabel_invariant():
    a = Clustering([[FeatureId(0, 0), FeatureId(1, 0)], [FeatureId(2, 0), FeatureId(3, 0)]])
    b = Clustering([[FeatureId(2, 0), FeatureId(3, 0)], [FeatureId(1, 0), FeatureId(0, 0)]])
    assert compare_clusterings(a, b).exact_equal
    r_ab = compare_clusterings(a, b)
    r_ba = compare_clusterings(b, a)
    assert r_ab.pairwise_f1 == r_ba.pairwise_f1 == 1.0


def test_compare_f1_against_pair_counting_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(8, 30))
        ids = [FeatureId(i, 0) for i in range(n)]
        la = {fid: int(rng.integers(0, 5)) for fid in ids}
        lb = dict(la)
        for fid in rng.choice(n, size=n // 3, replace=False):
            lb[ids[int(fid)]] = int(rng.integers(0, 5))

        def to_clustering(labels):
            groups = {}
            for fid, lab in labels.items():
                groups.setdefault(lab, []).append(fid)
            return Clustering(groups.values())

        got = compare_clusterings(to_clustering(la), to_clustering(lb)).pairwise_f1
        want = oracles.pairwise_f1(la, lb)
        assert got == pytest.approx(want, abs=1e-12)


def test_compare_requires_same_feature_sets():
    a = Clustering([[FeatureId(0, 0)]])
    b = Clustering([[FeatureId(1, 1)]])
    with pytest.raises(InputError):
        compare_clusterings(a, b)


def test_compare_diff_lists():
    a = Clustering([[FeatureId(0, 0), FeatureId(1, 0)], [FeatureId(2, 0)]])
    b = Clustering([[FeatureId(0, 0)], [FeatureId(1, 0)], [FeatureId(2, 0)]])
    result = compare_clusterings(a, b)
    assert result.only_in_a == [[[0, 0], [1, 0]]]
    assert sorted(result.only_in_b) == [[[0, 0]], [[1, 0]]]
    assert vars(result)["only_in_b"] == result.only_in_b


# -- ratio-test baseline -------------------------------------------------------------


def _image_pair(seed=0, n=8, dim=4, jitter=0.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 10, size=(n, dim))
    q = FeatureSet.from_rows([(0, k, v) for k, v in enumerate(base)])
    t = FeatureSet.from_rows([(1, k, v + rng.normal(0, jitter, dim)) for k, v in enumerate(base)])
    return q, t


def test_ratio_match_identical_images():
    q, t = _image_pair(jitter=0.0)
    matches = oracles.baseline_ratio_match(q, t, 0.75)
    assert len(matches) == len(q)
    assert all(qi.index == ti.index for qi, ti in matches)


def test_ratio_match_equidistant_rejected():
    q = FeatureSet.from_rows([(0, 0, [0.0, 0.0])])
    t = FeatureSet.from_rows([(1, 0, [1.0, 0.0]), (1, 1, [-1.0, 0.0])])
    assert oracles.baseline_ratio_match(q, t, 0.75) == []


def test_ratio_match_brute_force_oracle():
    rng = np.random.default_rng(19)
    for trial in range(8):
        nq, nt = int(rng.integers(3, 20)), int(rng.integers(2, 20))
        q = FeatureSet.from_rows([(0, k, rng.uniform(0, 5, 3)) for k in range(nq)])
        t = FeatureSet.from_rows([(1, k, rng.uniform(0, 5, 3)) for k in range(nt)])
        got = oracles.baseline_ratio_match(q, t, 0.75)
        want = oracles.ratio_matches(q, t, 0.75)
        assert got == want


def test_ratio_match_single_train_feature_degenerate_mode():
    q = FeatureSet.from_rows([(0, 0, [0.0]), (0, 1, [5.0])])
    t = FeatureSet.from_rows([(1, 0, [0.1])])
    matches = oracles.baseline_ratio_match(q, t, 0.75)  # ratio doubles as a distance cutoff
    assert matches == [(FeatureId(0, 0), FeatureId(1, 0))]


def test_match_counts_vs_reference():
    clustering = Clustering(
        [
            [FeatureId(9, 0), FeatureId(0, 0), FeatureId(1, 0)],
            [FeatureId(9, 1), FeatureId(0, 1)],
            [FeatureId(1, 1), FeatureId(2, 0)],  # no reference member
        ]
    )
    counts = oracles.match_counts_vs_reference(clustering, reference_image=9)
    assert counts == {0: 2, 1: 1}


# -- PR curves ------------------------------------------------------------------------


def test_pr_perfect_detector_auc_one():
    counts = {0: 10, 1: 12, 2: 0, 3: 1}
    truth = {0: True, 1: True, 2: False, 3: False}
    curve = oracles.pr_curve(counts, truth)
    assert curve.auc == pytest.approx(1.0)


def test_pr_recall_bounds_and_monotonicity():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 20, size=40).astype(float)
    truth = rng.random(40) < 0.5
    if not truth.any():
        truth[0] = True
    curve = oracles.pr_curve(counts, truth)
    recalls = [r for _, _, r in curve.points]
    precisions = [p for _, p, _ in curve.points]
    assert all(0 <= v <= 1 for v in recalls + precisions)
    # points are in descending-threshold order: recall is non-decreasing there,
    # i.e. non-increasing in the threshold
    assert all(r1 >= r0 for r0, r1 in zip(recalls, recalls[1:]))


def test_pr_recall_at_zero_threshold():
    counts = {0: 3, 1: 1, 2: 0}
    truth = {0: True, 1: True, 2: False}
    curve = oracles.pr_curve(counts, truth, thresholds=[0])
    (_, _, recall), = curve.points
    assert recall == 1.0  # every positive image has at least one match


def test_pr_counts_independent_of_truth_gives_base_rate_precision():
    rng = np.random.default_rng(8)
    n = 10_000
    counts = rng.integers(0, 50, size=n).astype(float)
    truth = rng.random(n) < 0.5
    # thresholds that keep the detected subsample large, so +-0.02 is ~3 sigma
    curve = oracles.pr_curve(counts, truth, thresholds=[0, 10, 25])
    base = truth.mean()
    for _, precision, recall in curve.points:
        assert precision == pytest.approx(base, abs=0.02)


def test_pr_requires_positive_truth():
    with pytest.raises(InputError):
        oracles.pr_curve([1.0, 2.0], [False, False])


def test_pr_mismatched_inputs():
    with pytest.raises(InputError):
        oracles.pr_curve([1.0], [True, False])


def test_compare_matches_the_pair_oracle_and_the_set_lookup_of_clusters():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        pairs = {(int(i), int(k)) for i, k in rng.integers(0, [2**40, 2**62], size=(n, 2))}
        ids = [FeatureId(*fid) for fid in sorted(pairs)]
        la = dict(zip(ids, rng.integers(0, int(rng.integers(1, 8)), size=len(ids)).tolist()))
        lb = dict(la)
        for r in rng.choice(len(ids), size=int(rng.integers(0, len(ids) + 1)), replace=False):
            lb[ids[int(r)]] = int(rng.integers(0, 8))

        def to_clustering(labels):
            return Clustering.from_labels(np.array(list(labels)), np.array(list(labels.values())))

        a, b = to_clustering(la), to_clustering(lb)
        result = compare_clusterings(a, b)
        assert result.pairwise_f1 == pytest.approx(oracles.pairwise_f1(la, lb), abs=1e-12)
        want = oracles.unmatched_clusters(a.clusters, b.clusters)
        assert (result.only_in_a, result.only_in_b) == tuple([[list(f) for f in c] for c in side] for side in want)
        assert result.exact_equal == (a.clusters == b.clusters)
        assert result.pairs_a == sum(len(c) * (len(c) - 1) // 2 for c in a.clusters)
        assert type(result.pair_tp) is int and type(result.pairs_b) is int


def test_compare_rejects_a_feature_listed_twice():
    """No Clustering lists a feature twice, so compare checks only that both
    cover the same features."""
    with pytest.raises(ValidationError, match=r"^feature \(0, 0\) appears in two clusters \(C1\)$"):
        Clustering([[FeatureId(0, 0)], [FeatureId(0, 0), FeatureId(1, 0)]])
    once = Clustering([[FeatureId(0, 0), FeatureId(1, 0)]])
    for a, b in ((once, Clustering([[FeatureId(0, 0)]])), (Clustering([[FeatureId(0, 0)]]), once)):
        with pytest.raises(InputError, match="^clusterings cover different feature sets$"):
            compare_clusterings(a, b)
