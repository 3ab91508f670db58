import ast
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickmatch import core
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
from quickmatch.core import _find_rows, _parse_lines
from quickmatch.partition import Partition

import oracles
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


_TWO_IDS = [(0, 0), (0, 1)]


@pytest.mark.parametrize(
    "vectors, dim, message",
    [
        (np.arange(6.0), None, r"^feature vectors must be an \(n, dim\) array, got shape \(6,\)$"),
        (np.zeros((2, 2, 2)), None, r"^feature vectors must be an \(n, dim\) array, got shape \(2, 2, 2\)$"),
        (np.zeros((2, 3)), 2, r"^expected dimension 2, got 3$"),
        (np.zeros((3, 2)), None, r"^vector count does not match id count$"),
    ],
    ids=["flat", "3-d", "dimension", "count"],
)
def test_feature_set_refuses_vectors_of_the_wrong_shape(vectors, dim, message):
    # Six values for two ids once became two 3-D vectors, and (n, 2, 2) became (n, 4).
    with pytest.raises(ValidationError, match=message):
        FeatureSet(vectors, _TWO_IDS, dim=dim)


def test_feature_set_bounds_coordinates_at_1e150():
    assert FeatureSet.from_rows([(0, 0, [1e150, -1e150])]).vectors.tolist() == [[1e150, -1e150]]
    for v in (np.nextafter(1e150, math.inf), -np.nextafter(1e150, math.inf), 1e308):
        with pytest.raises(ValidationError, match=r"within ±1e\+150"):
            FeatureSet.from_rows([(0, 0, [0.0, v])])


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
    path.write_text("0 0 1.0 2.0\n0 1 2.0 -1e151\n")
    with pytest.raises(ParseError, match=r":2: component beyond ±1e\+150"):
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
    written = save_clustering(c, path, fs)
    assert written == canonical_cluster_bytes(c)
    payload = {"clusters": [[list(fid)] for fid in fs.ids], "meta": c.meta}
    assert path.read_bytes() == (core.canonical_json(payload) + "\n").encode()
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
    """Refused at construction, so no Clustering reaches validation with it."""
    with pytest.raises(ValidationError, match=r"^feature \(0, 0\) appears in two clusters \(C1\)$"):
        Clustering([[FeatureId(0, 0)], [FeatureId(0, 0), FeatureId(1, 0)]])


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


def test_clustering_from_labels_matches_the_tuple_constructor_and_the_reference():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(0, 60))
        images = rng.choice([0, 3, 17, 2**40, 2**63 - 1], size=n)
        pairs = {(int(i), int(k)) for i, k in zip(images, rng.integers(0, 2**62, size=n))}
        ids = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)[rng.permutation(len(pairs))]
        # Arbitrary, sparse and negative labels, with many singletons.
        labels = rng.choice(rng.integers(-10**9, 10**9, size=max(1, len(ids))), size=len(ids))
        groups = {}
        for fid, label in zip(map(tuple, ids.tolist()), labels.tolist()):
            groups.setdefault(label, []).append(fid)
        want = oracles.canonical_clusters(groups.values())
        for clustering in (Clustering.from_labels(ids, labels, {"k": 1}), Clustering(groups.values(), {"k": 1})):
            assert clustering.clusters == want
            assert all(type(fid) is FeatureId for members in clustering.clusters for fid in members)
            assert canonical_cluster_bytes(clustering) == oracles.canonical_cluster_bytes(want)
            assert len(clustering) == len(want)
        assert Clustering.from_labels(ids, labels, {"k": 1}) == Clustering(groups.values(), {"k": 1})


def test_clustering_rejects_a_repeated_feature():
    groups = [[(1, 0), (0, 0)], [(0, 0)], [(2, 0), (0, 0)]]
    ids = np.array([fid for members in groups for fid in members])
    for build in (lambda: Clustering(groups), lambda: Clustering.from_labels(ids, np.repeat([5, 1, 3], [2, 1, 2]))):
        with pytest.raises(ValidationError, match=r"^feature \(0, 0\) appears in two clusters \(C1\)$"):
            build()


_FAULT_KINDS = ("(C2)", "two clusters", "one cluster", "missing", "not in the source")


def test_validate_messages_match_a_scan_in_cluster_order():
    rng = np.random.default_rng(8)
    universe = [(i, k) for i in range(3) for k in range(3)]
    seen = set()
    for _ in range(400):
        n = int(rng.integers(1, 10))
        ids = np.array(universe)[rng.integers(0, len(universe), size=n)]
        labels = rng.integers(0, 5, size=n)
        want = oracles.clustering_repeat(ids.tolist(), labels.tolist())
        if want is not None:  # a feature listed twice is refused before validation
            with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
                Clustering.from_labels(ids, labels)
            seen.add(next(kind for kind in _FAULT_KINDS if kind in want))
            continue
        clustering = Clustering.from_labels(ids, labels)
        # The clustering's own ids, often with one dropped or one added.
        source_ids = sorted(set(map(tuple, ids.tolist())))
        source_ids = [source_ids[1:], source_ids + [(5, 5)], source_ids][int(rng.integers(0, 3))] or [(5, 5)]
        source = FeatureSet(np.zeros((len(source_ids), 1)), source_ids)
        for src in (None, source):
            want = oracles.clustering_fault(clustering.clusters, None if src is None else src.ids)
            if want is None:
                validate_clustering(clustering, src)
            else:
                with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
                    validate_clustering(clustering, src)
            seen.add(next((kind for kind in _FAULT_KINDS if kind in (want or "")), want))
    assert seen == {None, *_FAULT_KINDS}  # every fault, and valid clusterings, were met


# Ids at both ends of int64 and around zero.
_EDGE_IDS = st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 2, 2**63 - 1])

# Each type that holds ids, built from one id list, and its message for the
# list and its smallest repeated id.
_ID_HOLDERS = {
    "FeatureSet": (lambda ids: FeatureSet(np.zeros((len(ids), 1)), ids),
                   lambda ids, fid: f"duplicate (image, feature) id {fid}"),
    "Clustering": (lambda ids: Clustering.from_labels(ids, np.arange(len(ids)) % 3),
                   lambda ids, fid: oracles.clustering_repeat(ids, np.arange(len(ids)) % 3)),
    "Partition": (lambda ids: Partition(np.eye(2), np.arange(len(ids)) % 2, ids),
                  lambda ids, fid: f"feature {fid} is assigned to two agents"),
}


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_EDGE_IDS, _EDGE_IDS), max_size=8))
def test_id_holders_accept_exactly_the_ids_a_set_oracle_accepts(ids):
    fault = oracles.id_fault(ids)
    for build, repeated in _ID_HOLDERS.values():
        if fault is None:
            build(ids)
            continue
        kind, fid = fault
        want = f"negative id {fid}" if kind == "negative" else repeated(ids, fid)
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            build(ids)


def test_feature_set_ids_are_an_int64_array_with_cached_feature_ids():
    """Ids given out of order come back sorted by (image, index)."""
    fs = FeatureSet(np.zeros((3, 1)), [(2, 5), (0, 1), (2, 0)])
    assert fs.id_array.dtype == np.int64 and fs.id_array.tolist() == [[0, 1], [2, 0], [2, 5]]
    assert not fs.id_array.flags.writeable
    assert fs.ids == (FeatureId(0, 1), FeatureId(2, 0), FeatureId(2, 5)) and fs.ids is fs.ids
    assert fs.image_ids == (0, 2) and fs.image_slots.tolist() == [0, 1, 1]
    assert oracles.for_images(fs, [2]).ids == (FeatureId(2, 0), FeatureId(2, 5))


def test_feature_set_keeps_its_rows_in_id_order(tmp_path):
    """Rows given in any order are stored sorted by (image, index), each
    vector with its id, from the constructor and from a shuffled file."""
    rng = np.random.default_rng(3)
    ids = np.array([(image, k) for image in (4, 0, 7) for k in range(5)])
    vectors = rng.normal(size=(len(ids), 3))
    by_id = np.lexsort((ids[:, 1], ids[:, 0]))
    in_order = FeatureSet(vectors[by_id], ids[by_id])
    order = rng.permutation(len(ids))
    shuffled = FeatureSet(vectors[order], ids[order])
    assert shuffled.id_array.tolist() == sorted(ids.tolist())
    vector_of = dict(zip(map(tuple, ids.tolist()), vectors.tolist()))
    assert shuffled.vectors.tolist() == [vector_of[fid] for fid in map(tuple, shuffled.id_array.tolist())]
    assert shuffled == in_order

    save_features(shuffled, tmp_path / "saved.txt")
    header, *lines = (tmp_path / "saved.txt").read_text().splitlines(keepends=True)
    (tmp_path / "shuffled.txt").write_text(header + "".join(lines[i] for i in order))
    assert load_features(tmp_path / "saved.txt") == in_order
    assert load_features(tmp_path / "shuffled.txt") == in_order


def test_ids_outside_int64_are_rejected_naming_the_source(tmp_path):
    with pytest.raises(ValidationError, match=r"id \(9223372036854775808, 0\) does not fit in int64"):
        FeatureSet(np.zeros((2, 1)), [(0, 0), (2**63, 0)])
    FeatureSet(np.zeros((1, 1)), [(2**63 - 1, 2**63 - 1)])  # the largest id fits
    path = tmp_path / "f.txt"
    path.write_text("9223372036854775807 0 1.0\n0 9223372036854775808 2.0\n")
    with pytest.raises(ParseError, match=r"f\.txt:2: ids must be below 2\*\*63$"):
        load_features(path)
    path = tmp_path / "c.json"
    path.write_text('{"clusters": [[[0, 0]], [[9223372036854775808, 1]]]}')
    with pytest.raises(ParseError, match=r"c\.json: expected 2 integer ids in \[0, 2\*\*63\), got \[9223372036854775808, 1\]"):
        load_clustering(path)


def test_load_clustering_rejects_double_membership_naming_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"clusters": [[[0, 0], [1, 0]], [[0, 1], [1, 1], [0, 0]]]}')
    with pytest.raises(ValidationError, match=r"c\.json: feature \(0, 0\) appears in two clusters \(C1\)"):
        load_clustering(path)
    path.write_text('{"clusters": [[[0, 0], [1, 0]], [[0, 1], [1, 1], [0, 2]]]}')
    with pytest.raises(ValidationError, match=r"^cluster 1 has two features of image 0 \(C2\)$"):
        validate_clustering(load_clustering(path))  # C2 is checked here, not on load
    path.write_text('{"clusters": [[[0, 0]], []]}')
    with pytest.raises(ValidationError, match="empty cluster"):
        load_clustering(path)


# -- parser fast path against the line parser ----------------------------------------

# Tokens both parsers accept, then tokens at least one of them rejects. Ids
# from 2**53 up are not exact as float64.
_ID_TOKENS = ["+1", "007", "-0", "9007199254740993", "9223372036854775807"]
_BAD_ID_TOKENS = ["-1", "1_0", "١", "9223372036854775808", "1.0", "0x1"]
_VALUE_TOKENS = ["+0.25", "007.5", "-0", "1e3", ".5", "5.", "4.9e-324", "1e-320", "-1E+2"]
_BAD_VALUE_TOKENS = ["1_0.5", "١.٥", "0x10", "1,5", "banana", "1.5\x00"]
_NON_FINITE_TOKENS = ["nan", "-inf", "Infinity", "1e999"]
_SEPARATORS = [" ", "  ", "\t", "\xa0", "\u2003", " \t "]
_LINE_ENDS = ["\n", "\r\n", "\x0c", "\r"]


@st.composite
def _descriptor_texts(draw):
    """Descriptor text with the tokens, separators and line shapes where
    numpy's parser and int()/float() could disagree: either well formed, or
    with exactly one fault (a bad token, a short or wide row, a repeated id)."""
    dim = draw(st.integers(1, 3))
    ids = st.one_of(st.integers(0, 99).map(str), st.sampled_from(_ID_TOKENS))
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-5, 5).map(str),
        st.sampled_from(_VALUE_TOKENS),
    )
    rows = [
        [draw(ids), draw(ids)] + [draw(values) for _ in range(dim)] if draw(st.integers(0, 3)) else []
        for _ in range(draw(st.integers(0, 6)))
    ]  # an empty row is a blank or comment line
    data = [row for row in rows if row]
    fault = draw(st.sampled_from(["none", "none", "id", "value", "non-finite", "short", "wide", "repeat"]))
    if data and fault != "none":
        row = data[draw(st.integers(0, len(data) - 1))]
        if fault == "id":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD_ID_TOKENS))
        elif fault in ("value", "non-finite"):
            tokens = _BAD_VALUE_TOKENS if fault == "value" else _NON_FINITE_TOKENS
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(tokens))
        elif fault == "short":
            del row[draw(st.integers(1, 2)):]
        elif fault == "wide":
            row.append(draw(values))
        elif len(data) > 1:
            row[:2] = data[0][:2] if row is not data[0] else data[1][:2]
    text = ""
    for row in rows:
        sep = draw(st.sampled_from(_SEPARATORS))
        line = sep.join(row) + sep if row else draw(st.sampled_from(["", sep, "# 0 0 1.0"]))
        if row and draw(st.booleans()):
            line += "# note"
        text += line + draw(st.sampled_from(_LINE_ENDS))
    return text


@settings(max_examples=200, database=None, deadline=None, derandomize=True)
@given(_descriptor_texts())
def test_parse_fast_path_agrees_with_the_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        path.write_bytes(text.encode())
        outcomes = []
        for parse in (load_features, lambda p: _parse_lines(p, text.splitlines())):
            try:
                outcomes.append(parse(path))
            except ParseError as exc:
                outcomes.append(str(exc))
    fast, slow = outcomes
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert not isinstance(fast, str), fast
        assert fast.ids == slow.ids and fast.dim == slow.dim
        assert fast.vectors.tobytes() == slow.vectors.tobytes()


def test_a_well_formed_file_never_reaches_the_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "f.txt"
    path.write_text("# header\r\n0 +007 1.5\t-0\n\n9223372036854775807 9007199254740993 4.9e-324\xa01e3  # note\n")

    def refuse(path, lines):
        raise AssertionError("fell back to the line parser")

    monkeypatch.setattr(core, "_parse_lines", refuse)
    fs = load_features(path)
    assert fs.id_array.tolist() == [[0, 7], [2**63 - 1, 2**53 + 1]]  # exact, not rounded through float64
    assert fs.vectors.tobytes() == np.array([[1.5, -0.0], [5e-324, 1000.0]]).tobytes()


# Values whose shortest repr is unusual: a signed zero, the smallest
# subnormal, the largest magnitude a FeatureSet accepts, a repeating
# fraction, a small negative.
_AWKWARD_FLOATS = [-0.0, 5e-324, 1e150, 1 / 3, -2.5e-10]
_TOP_ID = 2**63 - 1


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_save_features_writes_the_bytes_of_the_per_value_writer(tmp_path, dim):
    ids = [(_TOP_ID, _TOP_ID), (0, _TOP_ID), (_TOP_ID, 0), (3, 1), (0, 0)]
    vectors = np.resize(np.array(_AWKWARD_FLOATS), (len(ids), dim))
    vectors[:, 0] = _AWKWARD_FLOATS
    fs = FeatureSet(vectors, ids)
    save_features(fs, tmp_path / "new.txt")
    oracles.save_features(fs, tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
    assert load_features(tmp_path / "new.txt") == fs


@settings(max_examples=200, database=None, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.sampled_from([0, 1, _TOP_ID]), st.sampled_from([0, 2, _TOP_ID - 1])), max_size=12),
    st.lists(st.tuples(st.sampled_from([0, 1, _TOP_ID]), st.sampled_from([0, 2, _TOP_ID - 1])), max_size=12),
)
def test_find_rows_agrees_with_a_dict_of_the_keys(keys, ids):
    want = {fid: r for r, fid in enumerate(keys)}  # of repeated keys, the last row
    got = _find_rows(np.array(keys, dtype=np.int64).reshape(-1, 2), np.array(ids, dtype=np.int64).reshape(-1, 2))
    assert got.tolist() == [want.get(fid, -1) for fid in ids]


# The only places in the package allowed to build FeatureId tuples: the two
# lazily built views over the int64 id arrays.
_TUPLE_VIEWS = {"FeatureSet.ids", "Clustering.clusters"}


def test_feature_id_tuples_are_built_only_in_the_two_views():
    offenders, in_views = [], 0
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        text = path.read_text()
        views = set()  # the line numbers of the two views
        for cls in ast.parse(text).body:
            for fn in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(fn, ast.FunctionDef) and f"{cls.name}.{fn.name}" in _TUPLE_VIEWS:
                    views.update(range(fn.lineno, fn.end_lineno + 1))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\bFeatureId(\(|\._make)", line) and not line.startswith("class FeatureId("):
                if lineno in views:
                    in_views += 1
                else:
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
    assert in_views == len(_TUPLE_VIEWS)


# Whether ids are distinct is decided once, in _unique_order, which every id
# holder calls.
_REPEATS_CALLERS = {"core._unique_order"}


def test_repeated_ids_are_found_only_in_unique_order():
    offenders, in_callers = [], 0
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        text = path.read_text()
        callers = set()  # the line numbers of the allowed callers
        for fn in ast.parse(text).body:
            if isinstance(fn, ast.FunctionDef) and f"{path.stem}.{fn.name}" in _REPEATS_CALLERS:
                callers.update(range(fn.lineno, fn.end_lineno + 1))
        for lineno, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\b_repeats\(", line) and not line.startswith("def _repeats("):
                if lineno in callers:
                    in_callers += 1
                else:
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
    assert in_callers == len(_REPEATS_CALLERS)
