import math

import numpy as np
import pytest

from quickmatch.centralized import pair_distances
from quickmatch.core import (
    Clustering,
    FeatureId,
    FeatureSet,
    InputError,
    ParseError,
    ValidationError,
    canonical_cluster_bytes,
    load_clustering,
    load_features,
    save_clustering,
    save_features,
    validate_clustering,
)

from oracles import dist_fsum


def distance(a, b) -> float:
    """``pair_distances`` between two vectors: the formula behind every sigma,
    density term and tree edge."""
    return float(pair_distances(np.array([a, b], dtype=np.float64), np.array([0]), np.array([1]))[0])


def test_distance_identity():
    assert distance((0, 0), (0, 0)) == 0.0


def test_distance_345():
    assert distance((0, 0), (3, 4)) == 5.0


def test_distance_128dim_vs_componentwise_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=128)
    b = rng.normal(size=128)
    assert abs(distance(a, b) - dist_fsum(a, b)) <= 1e-12


def test_distance_metric_axioms_sampled_triples():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        a, b, c = rng.normal(size=(3, dim)) * 10
        dab, dba = distance(a, b), distance(b, a)
        assert dab == dba
        assert dab >= 0
        assert distance(a, a) == 0.0
        assert distance(a, c) <= dab + distance(b, c) + 1e-9


# -- FeatureSet ----------------------------------------------------------------


def test_feature_set_invariants():
    fs = FeatureSet.from_rows([(0, 0, [1.0, 2.0]), (0, 1, [3.0, 4.0]), (2, 0, [5.0, 6.0])])
    assert fs.dim == 2
    assert len(fs) == 3
    assert fs.image_count == 2
    assert fs.image_ids == (0, 2)  # original ids preserved, slots contiguous
    assert list(fs.image_slots) == [0, 0, 1]


def test_feature_set_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValidationError):
        FeatureSet.from_rows([(0, 0, [1.0]), (0, 0, [2.0])])
    with pytest.raises(ValidationError):
        FeatureSet.from_rows([(0, 0, [math.nan])])


def test_load_features_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    rows = [(i, k, rng.normal(size=4)) for i in (0, 3, 7) for k in range(5)]
    fs = FeatureSet.from_rows(rows)
    path = tmp_path / "f.txt"
    save_features(fs, path)
    assert load_features(path) == fs


def test_load_features_basic(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# header\n0 0 1.0 2.0\n1 0 3.0 4.0  # trailing comment\n")
    fs = load_features(path)
    assert len(fs) == 2
    assert fs.dim == 2
    assert fs.ids == (FeatureId(0, 0), FeatureId(1, 0))


def test_load_features_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError, match="no features"):
        load_features(path)


def test_load_features_errors_name_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1.0 2.0\n1 0 3.0\n")
    with pytest.raises(ParseError, match=r":2:"):
        load_features(path)
    path.write_text("0 0 1.0\n0 0 2.0\n")
    with pytest.raises(ParseError, match=r":2: duplicate"):
        load_features(path)
    path.write_text("0 0 banana\n")
    with pytest.raises(ParseError, match=r":1:"):
        load_features(path)
    path.write_text("0 0 1.0\n0 1\n")
    with pytest.raises(ParseError, match=r":2: expected `image feature v1..vF`, got 2 fields"):
        load_features(path)
    path.write_text("# header\n0 -1 1.0\n")
    with pytest.raises(ParseError, match=r":2: ids must be non-negative"):
        load_features(path)
    path.write_text("0 0 1.0 2.0\n\n0 1 nan 2.0\n")
    with pytest.raises(ParseError, match=r":3: non-finite component"):
        load_features(path)


def test_load_features_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_features(tmp_path / "nope.txt")


# -- Clustering ----------------------------------------------------------------


def _fs_three_singletons():
    return FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [5.0]), (2, 0, [9.0])])


def test_clustering_canonicalization():
    a = Clustering([[FeatureId(1, 0), FeatureId(0, 1)], [FeatureId(0, 0)]])
    b = Clustering([[FeatureId(0, 0)], [FeatureId(0, 1), FeatureId(1, 0)]])
    assert a.clusters == b.clusters
    assert canonical_cluster_bytes(a) == canonical_cluster_bytes(b)


def test_save_clustering_roundtrip(tmp_path):
    fs = _fs_three_singletons()
    c = Clustering([[fid] for fid in fs.ids], {"algorithm": "test"})
    path = tmp_path / "c.json"
    save_clustering(c, path, fs)
    loaded = load_clustering(path)
    assert loaded.clusters == c.clusters
    assert loaded.meta == dict(c.meta)


def test_save_clustering_singletons_count(tmp_path):
    fs = _fs_three_singletons()
    c = Clustering([[fid] for fid in fs.ids])
    path = tmp_path / "c.json"
    save_clustering(c, path, fs)
    assert len(load_clustering(path)) == 3


def test_save_is_canonical_under_permutation(tmp_path):
    fs = _fs_three_singletons()
    members = list(fs.ids)
    a = Clustering([[members[0]], [members[1], members[2]][::-1]])
    b = Clustering([[members[2], members[1]], [members[0]]])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_clustering(a, pa)
    save_clustering(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_validate_rejects_duplicate_image_in_cluster():
    c = Clustering([[FeatureId(0, 0), FeatureId(0, 1)]])
    with pytest.raises(ValidationError, match="image 0"):
        validate_clustering(c)


def test_validate_rejects_double_membership():
    c = Clustering([[FeatureId(0, 0)], [FeatureId(0, 0), FeatureId(1, 0)]])
    with pytest.raises(ValidationError, match="two clusters"):
        validate_clustering(c)


def test_validate_c1_cover():
    fs = _fs_three_singletons()
    c = Clustering([[fs.ids[0]], [fs.ids[1]]])
    with pytest.raises(ValidationError, match="missing"):
        validate_clustering(c, fs)
    c2 = Clustering([[fid] for fid in fs.ids] + [[FeatureId(9, 9)]])
    with pytest.raises(ValidationError, match="not in the source"):
        validate_clustering(c2, fs)


def test_random_partitions_with_injected_duplicate_image_rejected():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n_images = int(rng.integers(2, 6))
        per = int(rng.integers(2, 5))
        ids = [FeatureId(i, k) for i in range(n_images) for k in range(per)]
        rng.shuffle(ids)
        # random valid partition: greedily pack ids into clusters without image repeats
        clusters: list[list[FeatureId]] = []
        for fid in ids:
            for members in clusters:
                if all(m.image != fid.image for m in members) and rng.random() < 0.5:
                    members.append(fid)
                    break
            else:
                clusters.append([fid])
        validate_clustering(Clustering(clusters))  # sanity: valid before injection
        # inject a second feature of an image a cluster already holds
        bad = [list(c) for c in clusters]
        victim = bad[int(rng.integers(len(bad)))]
        victim.append(FeatureId(victim[0].image, 999))
        with pytest.raises(ValidationError):
            validate_clustering(Clustering(bad))


def test_empty_cluster_rejected():
    with pytest.raises(ValidationError):
        Clustering([[]])
