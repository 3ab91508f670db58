import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quickmatch.centralized import (
    MatchParams,
    SIGMA_FLOOR,
    break_and_merge,
    build_tree,
    compute_density,
    compute_distinctiveness,
    density_values,
    label_groups,
    merge_labels,
    quickmatch,
)
from quickmatch.core import Clustering, FeatureId, FeatureSet, InputError, canonical_cluster_bytes, validate_clustering
from quickmatch.kernels import Kernel, gaussian_kernel, quadratic_kernel
from quickmatch.metrics import compare_clusterings
from quickmatch.synthetic import SynthConfig, generate_synthetic

import oracles
from test_golden import INPUTS as GOLDEN_INPUTS


def test_match_params_validation():
    assert MatchParams().rho == 1.1
    assert MatchParams(rho=0.0).rho == 0.0  # rho=0 is meaningful: nothing merges
    assert math.isinf(MatchParams(rho=math.inf).rho)
    with pytest.raises(InputError):
        MatchParams(rho=-0.5)
    with pytest.raises(InputError):
        MatchParams(rho=math.nan)


# -- distinctiveness -----------------------------------------------------------


def test_distinctiveness_direct_minimum():
    fs = FeatureSet.from_rows([(0, 0, [0.0, 0.0]), (0, 1, [0.0, 1.0]), (0, 2, [5.0, 5.0])])
    assert compute_distinctiveness(fs).tolist() == [1.0]


def test_distinctiveness_duplicate_features_clamped():
    fs = FeatureSet.from_rows([(0, 0, [2.0, 2.0]), (0, 1, [2.0, 2.0])])
    assert compute_distinctiveness(fs).tolist() == [SIGMA_FLOOR]


def test_distinctiveness_fallback_for_single_feature_image():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (0, 1, [2.0]), (1, 0, [9.0])])
    sigma = compute_distinctiveness(fs)  # images 0 and 1, in that order
    assert sigma[0] == 2.0
    assert sigma[1] == 2.0  # takes the minimum over images that have one


def test_distinctiveness_all_images_single_feature():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [3.0]), (2, 0, [7.0])])
    sigma = compute_distinctiveness(fs)  # images 0, 1 and 2, in that order
    assert sigma[0] == 3.0  # global minimum pairwise distance


def test_distinctiveness_brute_force_oracle():
    rng = np.random.default_rng(21)
    fs = FeatureSet.from_rows([(0, k, rng.uniform(0, 10, 3)) for k in range(20)])
    expected = oracles.sigma_by_image(fs)[0]
    assert compute_distinctiveness(fs).tolist() == [expected]


# -- density -------------------------------------------------------------------


def test_density_single_feature_is_one():
    fs = FeatureSet.from_rows([(0, 0, [1.0, 2.0])])
    sigma = compute_distinctiveness(fs)
    for kernel in Kernel:
        assert density_values(fs.vectors, fs.image_slots, sigma, kernel) == pytest.approx([1.0])


def test_density_two_coincident_features_gaussian():
    fs = FeatureSet.from_rows([(0, 0, [1.0, 1.0]), (1, 0, [1.0, 1.0])])
    dens = density_values(fs.vectors, fs.image_slots, compute_distinctiveness(fs), Kernel.GAUSSIAN)
    assert dens == pytest.approx([2.0, 2.0])


@pytest.mark.parametrize("kernel,fn", [
    (Kernel.GAUSSIAN, gaussian_kernel),
    (Kernel.QUADRATIC, quadratic_kernel),
])
def test_density_oracle_50_random_features(kernel, fn):
    rng = np.random.default_rng(33)
    fs = FeatureSet.from_rows(
        [(i, k, rng.uniform(0, 5, 4)) for i in range(5) for k in range(10)]
    )
    sigma = compute_distinctiveness(fs)
    got = density_values(fs.vectors, fs.image_slots, sigma, kernel)
    want = oracles.density(fs, dict(zip(fs.image_ids, sigma.tolist())), fn)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# -- tree ----------------------------------------------------------------------


def test_tree_two_features():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [1.0])])
    tree = build_tree(fs, (np.argsort(np.array([1.0, 2.0]), kind="stable"), None))
    assert tree.parent[0] == 1  # (0, 0) -> (1, 0)
    assert tree.parent[1] == -1  # (1, 0) is a root
    assert tree.edge_length[0] == 1.0


def test_tree_equal_densities_chain_by_id():
    # exact density ties are ordered by feature id, so a plateau forms a chain
    # toward the highest id instead of stranding every feature as a root
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [1.0]), (2, 0, [3.0])])
    tree = build_tree(fs, (np.argsort(np.ones(3), kind="stable"), None))
    assert list(tree.parent) == [1, 2, -1]
    assert len(tree.roots) == 1


def test_tree_brute_force_oracle_100_features():
    rng = np.random.default_rng(44)
    fs = FeatureSet.from_rows(
        [(i, k, rng.uniform(0, 8, 2)) for i in range(4) for k in range(25)]
    )
    sigma = compute_distinctiveness(fs)
    dens = density_values(fs.vectors, fs.image_slots, sigma, Kernel.GAUSSIAN)
    tree = build_tree(fs, compute_density(fs, sigma, Kernel.GAUSSIAN))
    want = oracles.parents(fs, list(dens))
    got = [None if p < 0 else int(p) for p in tree.parent]
    assert got == want


def test_tree_parent_has_higher_density_and_is_acyclic():
    rng = np.random.default_rng(45)
    fs = FeatureSet.from_rows([(i, k, rng.normal(size=3)) for i in range(3) for k in range(20)])
    sigma = compute_distinctiveness(fs)
    dens = density_values(fs.vectors, fs.image_slots, sigma, Kernel.GAUSSIAN)
    tree = build_tree(fs, compute_density(fs, sigma, Kernel.GAUSSIAN))
    for r in range(len(fs)):
        p = int(tree.parent[r])
        if p < 0:
            continue
        assert (dens[p], fs.ids[p]) > (dens[r], fs.ids[r])
        assert tree.edge_length[r] == pytest.approx(
            float(np.linalg.norm(fs.vectors[r] - fs.vectors[p])), abs=1e-12
        )
        # walking up terminates
        seen = {r}
        cur = r
        while tree.parent[cur] >= 0:
            cur = int(tree.parent[cur])
            assert cur not in seen
            seen.add(cur)


# -- break and merge -----------------------------------------------------------


def test_merge_two_images_within_threshold():
    fs = FeatureSet.from_rows([(0, 0, [0.0, 0.0]), (1, 0, [0.5, 0.0])])
    c = quickmatch(fs)
    assert len(c) == 1
    assert c.clusters[0] == (FeatureId(0, 0), FeatureId(1, 0))


def test_same_image_features_never_merge():
    fs = FeatureSet.from_rows([(0, 0, [0.0, 0.0]), (0, 1, [0.5, 0.0])])
    assert len(quickmatch(fs)) == 2


def test_single_feature_image_merges_under_whole_set_fill():
    # Image 1 holds one feature, 1.0 from (0, 0). Its merge bandwidth is the
    # smallest defined image sigma (image 2's 0.2), so rho * 0.2 < 1.0 keeps
    # it apart. The agent fallback sigma_a (the longest tree edge, ~90 here)
    # would merge it; see the finalize twin in test_distributed.py.
    fs = FeatureSet.from_rows(
        [(0, 0, [0.0]), (0, 1, [10.0]), (1, 0, [1.0]), (2, 0, [100.0]), (2, 1, [100.2])]
    )
    c = quickmatch(fs)
    assert (FeatureId(1, 0),) in c.clusters
    assert len(c) == len(fs)


def test_label_groups_matches_dict_grouping():
    # reference: the per-row dict loop label_groups replaced
    rng = np.random.default_rng(4)
    for n in (0, 1, 7, 50):
        labels = rng.integers(0, max(n // 3, 1), size=n)
        want: dict[int, list[int]] = {}
        for row, lab in enumerate(labels):
            want.setdefault(int(lab), []).append(row)
        got = label_groups(labels)
        assert [g.tolist() for g in got] == [want[k] for k in sorted(want)]


def test_merge_labels_matches_reference_loop():
    """Each forest's rows are shuffled, so equal-length edges meet the
    lowest-child-row rule with their children in every order."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 120))
        n_images = 1 if trial % 5 == 0 else int(rng.integers(2, 8))
        # A random forest: each row's parent comes earlier in a random order.
        order = rng.permutation(n)
        parent = np.full(n, -1, dtype=np.intp)
        for pos in range(1, n):
            if rng.random() < 0.85:
                parent[order[pos]] = order[rng.integers(0, pos)]
        slots = rng.integers(0, n_images, n)
        sigma = rng.uniform(0.2, 1.5, n_images)
        # Many equal lengths, some exactly at a rho = 1.1 threshold.
        lengths = np.concatenate([np.arange(1, 6) * 0.25, 1.1 * sigma])
        edge = np.where(parent >= 0, rng.choice(lengths, n), np.nan)
        # The same forest with its rows shuffled: row r moves to new_row[r].
        rows = rng.permutation(n)
        new_row = np.argsort(rows)
        parent = np.where(parent[rows] >= 0, new_row[parent[rows]], -1)
        edge, slots = edge[rows], slots[rows]
        for rho in (0.0, 1.1, math.inf):
            got = merge_labels(parent, edge, slots, sigma, rho)
            want = oracles.reference_merge_labels(parent, edge, slots, sigma, rho, np.arange(n))
            np.testing.assert_array_equal(oracles.smallest_row_labels(got), oracles.smallest_row_labels(want))


@st.composite
def merge_inputs(draw):
    """A forest over up to 40 rows of 1-4 images. Edge lengths come mostly
    from a few shared values, among them every image's rho * sigma; sigmas
    may sit at SIGMA_FLOOR and rho at 0 or infinity."""
    n = draw(st.integers(0, 40))
    n_images = draw(st.integers(1, 4))
    sig = st.sampled_from([SIGMA_FLOOR, 0.25, 0.5, 1.0]) | st.floats(SIGMA_FLOOR, 2.0)
    sigma = np.array(draw(st.lists(sig, min_size=n_images, max_size=n_images)))
    rho = draw(st.sampled_from([0.0, 1.1, math.inf]) | st.floats(0.0, 4.0))
    slots = np.array(draw(st.lists(st.integers(0, n_images - 1), min_size=n, max_size=n)), dtype=np.intp)
    # Each row's parent comes earlier in a random order, or it is a root.
    order = draw(st.permutations(range(n)))
    parent = np.full(n, -1, dtype=np.intp)
    for pos in range(1, n):
        up = draw(st.none() | st.integers(0, pos - 1))
        if up is not None:
            parent[order[pos]] = order[up]
    at_threshold = [float(rho * s) for s in sigma if rho * s < math.inf]
    length = st.sampled_from([0.0, SIGMA_FLOOR, 0.25, 0.5, 1.0, *at_threshold]) | st.floats(0.0, 4.0)
    edge = np.array([draw(length) if p >= 0 else math.nan for p in parent.tolist()])
    return parent, edge, slots, sigma, rho


def _no_edges():
    return np.full(4, -1, dtype=np.intp), np.full(4, np.nan), np.array([0, 0, 1, 1]), np.array([0.5, 1.0]), 1.1


def _floor_duplicates():
    """Zero-length edges at rho = 0 and SIGMA_FLOOR, the second repeating image 0."""
    return np.array([-1, 0, 1]), np.array([np.nan, 0.0, 0.0]), np.array([0, 1, 0]), np.full(2, SIGMA_FLOOR), 0.0


def _repeat_at_infinity():
    """rho = inf: every edge fits, and only the repeated image 1 splits the chain."""
    return np.array([-1, 0, 1, 2]), np.array([np.nan, 3.0, 1.0, 2.0]), np.array([0, 1, 2, 1]), np.ones(3), math.inf


def _at_threshold():
    """Edges exactly at rho * sigma, of the smaller and of the larger image."""
    sigma = np.array([0.3, 0.7])
    return np.array([-1, 0, 0, -1, 3]), np.array([np.nan, 1.1 * 0.3, 1.1 * 0.7, np.nan, 1.1 * 0.7]), \
        np.array([0, 1, 1, 1, 0]), sigma, 1.1


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(merge_inputs())
@example(_no_edges())
@example(_floor_duplicates())
@example(_repeat_at_infinity())
@example(_at_threshold())
def test_merge_labels_matches_the_oracle_loop(case):
    """The component pass plus the loop on the rest gives the oracle loop's
    clusters, each labelled by its smallest row."""
    parent, edge, slots, sigma, rho = case
    got = merge_labels(parent, edge, slots, sigma, rho).tolist()
    assert got == oracles.smallest_row_labels(got)
    want = oracles.reference_merge_labels(parent, edge, slots, sigma, rho, np.arange(len(parent)))
    assert got == oracles.smallest_row_labels(want)


@pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
@pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
def test_step_functions_give_the_quickmatch_clusters(name, kernel):
    """The public stages, chained one at a time, are quickmatch's pipeline:
    the same cluster bytes on the golden inputs."""
    fs, params = GOLDEN_INPUTS[name](), MatchParams(kernel=kernel)
    sigma = compute_distinctiveness(fs)
    got = break_and_merge(fs, build_tree(fs, compute_density(fs, sigma, kernel)), sigma, params)
    assert canonical_cluster_bytes(got) == canonical_cluster_bytes(quickmatch(fs, params))


def test_quickmatch_empty_set():
    assert len(quickmatch(FeatureSet(np.zeros((0, 2)), []))) == 0


def test_rho_zero_gives_singletons():
    fs, _ = generate_synthetic(SynthConfig(n_clusters=4, per_cluster=3, seed=2))
    c = quickmatch(fs, MatchParams(rho=0.0))
    assert len(c) == len(fs)


def test_identical_image_copies_cluster_per_feature():
    # N images carrying tightly jittered copies of one image's features
    rng = np.random.default_rng(9)
    base = rng.uniform(0, 10, size=(6, 2))
    rows = []
    for img in range(5):
        for k, v in enumerate(base):
            rows.append((img, k, v + rng.normal(0, 1e-3, 2)))
    fs = FeatureSet.from_rows(rows)
    c = quickmatch(fs)
    assert len(c) == 6
    assert all(len(members) == 5 for members in c.clusters)
    # ground truth: cluster = same feature index across images
    want = Clustering([[FeatureId(img, k) for img in range(5)] for k in range(6)])
    assert compare_clusterings(c, want).exact_equal


def test_synthetic_dataset_recovered_exactly():
    fs, truth = generate_synthetic(SynthConfig())
    assert len(fs) == 250
    c = quickmatch(fs)
    assert len(c) == 25
    assert compare_clusterings(c, truth).exact_equal


def test_synthetic_recovery_with_every_kernel():
    fs, truth = generate_synthetic(SynthConfig())
    for kernel in Kernel:
        c = quickmatch(fs, MatchParams(kernel=kernel))
        assert compare_clusterings(c, truth).exact_equal, kernel


def test_output_always_satisfies_c1_c2():
    rng = np.random.default_rng(77)
    for trial in range(10):
        fs = oracles.random_feature_set(rng, max_per_image=12)
        c = quickmatch(fs)
        validate_clustering(c, fs)


def test_p2_p3_predicates_over_induced_relation():
    fs, _ = generate_synthetic(SynthConfig(seed=4))
    c = quickmatch(fs)
    for members in c.clusters:
        images = [fid.image for fid in members]
        # single match per image (P3) and cycles return to the same feature (P2)
        assert len(set(images)) == len(images)


def test_monotonicity_rho_inf_superset():
    for seed in range(5):
        fs, _ = generate_synthetic(SynthConfig(seed=seed))
        sigma = compute_distinctiveness(fs)
        tree = build_tree(fs, compute_density(fs, sigma, Kernel.GAUSSIAN))
        base = break_and_merge(fs, tree, sigma, MatchParams(rho=1.1))
        loose = break_and_merge(fs, tree, sigma, MatchParams(rho=math.inf))
        lab = oracles.labels_of(loose)
        for members in base.clusters:
            assert len({lab[f] for f in members}) == 1


def test_permutation_invariance_of_rows(tmp_path):
    fs, _ = generate_synthetic(SynthConfig(n_clusters=9, per_cluster=5, seed=6))
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(fs))
    fs_perm = FeatureSet(fs.vectors[perm], [fs.ids[int(r)] for r in perm])
    a = quickmatch(fs)
    b = quickmatch(fs_perm)
    from quickmatch.core import canonical_cluster_bytes

    assert canonical_cluster_bytes(a) == canonical_cluster_bytes(b)


def test_image_relabeling_equivalence():
    fs, _ = generate_synthetic(SynthConfig(n_clusters=9, per_cluster=5, seed=6))
    relabel = {img: img * 10 + 3 for img in fs.image_ids}  # order preserving
    fs_re = FeatureSet(fs.vectors, [FeatureId(relabel[f.image], f.index) for f in fs.ids])
    a = quickmatch(fs)
    b = quickmatch(fs_re)
    mapped = Clustering(
        [[FeatureId(relabel[f.image], f.index) for f in members] for members in a.clusters]
    )
    assert compare_clusterings(mapped, b).exact_equal


# -- kernels -------------------------------------------------------------------


def test_quadratic_kernel_values():
    assert quadratic_kernel(0.0, 2.0) == 1.0
    assert quadratic_kernel(2.0, 2.0) == 0.0
    assert quadratic_kernel(1.0, 2.0) == 0.75
    assert quadratic_kernel(5.0, 2.0) == 0.0


def test_quadratic_kernel_rejects_bad_sigma():
    with pytest.raises(InputError):
        quadratic_kernel(1.0, 0.0)
    with pytest.raises(InputError):
        quadratic_kernel(1.0, -1.0)


def test_quadratic_kernel_strictly_decreasing_on_support():
    xs = np.linspace(0, 2.0, 50)
    vals = quadratic_kernel(xs, 2.0)
    assert np.all(np.diff(vals) < 0)


def test_gaussian_kernel_is_the_squared_exponential():
    assert gaussian_kernel(2.0, 1.0) == pytest.approx(math.exp(-2.0))
    assert gaussian_kernel(2.0, 2.0) == pytest.approx(math.exp(-0.5))
