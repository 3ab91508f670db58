import math

import numpy as np
import pytest

from quickmatch.centralized import (
    MatchParams,
    SIGMA_FLOOR,
    break_and_merge,
    build_tree,
    compute_density,
    compute_distinctiveness,
    label_groups,
    merge_labels,
    quickmatch,
)
from quickmatch.core import Clustering, FeatureId, FeatureSet, InputError, validate_clustering
from quickmatch.kernels import (
    Kernel,
    gaussian_kernel,
    quadratic_kernel,
    quadratic_kernel_as_printed,
)
from quickmatch.metrics import compare_clusterings
from quickmatch.synthetic import SynthConfig, generate_synthetic

import oracles


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
    assert compute_distinctiveness(fs).for_image(0) == 1.0


def test_distinctiveness_duplicate_features_clamped():
    fs = FeatureSet.from_rows([(0, 0, [2.0, 2.0]), (0, 1, [2.0, 2.0])])
    assert compute_distinctiveness(fs).for_image(0) == SIGMA_FLOOR


def test_distinctiveness_fallback_for_single_feature_image():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (0, 1, [2.0]), (1, 0, [9.0])])
    d = compute_distinctiveness(fs)
    assert d.for_image(0) == 2.0
    assert d.for_image(1) == 2.0  # takes the minimum over images that have one


def test_distinctiveness_all_images_single_feature():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [3.0]), (2, 0, [7.0])])
    d = compute_distinctiveness(fs)
    assert d.for_image(0) == 3.0  # global minimum pairwise distance


def test_distinctiveness_brute_force_oracle():
    rng = np.random.default_rng(21)
    fs = FeatureSet.from_rows([(0, k, rng.uniform(0, 10, 3)) for k in range(20)])
    expected = oracles.sigma_by_image(fs)[0]
    assert compute_distinctiveness(fs).for_image(0) == expected


# -- density -------------------------------------------------------------------


def test_density_single_feature_is_one():
    fs = FeatureSet.from_rows([(0, 0, [1.0, 2.0])])
    d = compute_distinctiveness(fs)
    for kernel in Kernel:
        assert compute_density(fs, d, kernel) == pytest.approx([1.0])


def test_density_two_coincident_features_gaussian():
    fs = FeatureSet.from_rows([(0, 0, [1.0, 1.0]), (1, 0, [1.0, 1.0])])
    d = compute_distinctiveness(fs)
    dens = compute_density(fs, d, Kernel.GAUSSIAN)
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
    dist = compute_distinctiveness(fs)
    got = compute_density(fs, dist, kernel)
    sigma = {img: dist.for_image(img) for img in fs.image_ids}
    want = oracles.density(fs, sigma, fn)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# -- tree ----------------------------------------------------------------------


def test_tree_two_features():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [1.0])])
    tree = build_tree(fs, np.array([1.0, 2.0]))
    assert tree.parent[0] == 1  # (0, 0) -> (1, 0)
    assert tree.parent[1] == -1  # (1, 0) is a root
    assert tree.edge_length[0] == 1.0


def test_tree_equal_densities_chain_by_id():
    # exact density ties are ordered by feature id, so a plateau forms a chain
    # toward the highest id instead of stranding every feature as a root
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (1, 0, [1.0]), (2, 0, [3.0])])
    tree = build_tree(fs, np.ones(3))
    assert list(tree.parent) == [1, 2, -1]
    assert len(tree.roots) == 1


def test_tree_brute_force_oracle_100_features():
    rng = np.random.default_rng(44)
    fs = FeatureSet.from_rows(
        [(i, k, rng.uniform(0, 8, 2)) for i in range(4) for k in range(25)]
    )
    dist = compute_distinctiveness(fs)
    dens = compute_density(fs, dist, Kernel.GAUSSIAN)
    tree = build_tree(fs, dens)
    want = oracles.parents(fs, list(dens))
    got = [None if p < 0 else int(p) for p in tree.parent]
    assert got == want


def test_tree_parent_has_higher_density_and_is_acyclic():
    rng = np.random.default_rng(45)
    fs = FeatureSet.from_rows([(i, k, rng.normal(size=3)) for i in range(3) for k in range(20)])
    dens = compute_density(fs, compute_distinctiveness(fs), Kernel.GAUSSIAN)
    tree = build_tree(fs, dens)
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


def reference_merge_labels(parent, edge_length, image_slots, sigma, rho, id_rank):
    """The merge loop as it was written over dicts and ndarray elements."""
    n = len(parent)
    uf = np.arange(n, dtype=np.intp)

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    images = {r: {int(image_slots[r])} for r in range(n)}
    min_sigma = {r: float(sigma[image_slots[r]]) for r in range(n)}
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((id_rank[children], edge_length[children]))]
    for child in order:
        a, b = find(int(child)), find(int(parent[child]))
        if a == b:
            continue
        ia, ib = images[a], images[b]
        if ia & ib:
            continue
        threshold = rho * min(min_sigma[a], min_sigma[b])
        if edge_length[child] <= threshold:
            if len(ia) < len(ib):
                a, b = b, a
                ia, ib = ib, ia
            uf[b] = a
            ia |= ib
            min_sigma[a] = min(min_sigma[a], min_sigma[b])
            del images[b], min_sigma[b]
    return np.array([find(r) for r in range(n)], dtype=np.intp)


def test_merge_labels_matches_reference_loop():
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
        id_rank = rng.permutation(n)
        for rho in (0.0, 1.1, math.inf):
            got = merge_labels(parent, edge, slots, sigma, rho, id_rank)
            np.testing.assert_array_equal(got, reference_merge_labels(parent, edge, slots, sigma, rho, id_rank))


def test_quickmatch_empty_set():
    assert len(quickmatch(FeatureSet.empty(2))) == 0


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


def test_synthetic_recovery_both_gaussian_variants_and_quadratic():
    fs, truth = generate_synthetic(SynthConfig())
    for kernel in (Kernel.GAUSSIAN, Kernel.GAUSSIAN_SQUARED, Kernel.QUADRATIC,
                   Kernel.QUADRATIC_AS_PRINTED):
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
        dist = compute_distinctiveness(fs)
        dens = compute_density(fs, dist, Kernel.GAUSSIAN)
        tree = build_tree(fs, dens)
        base = break_and_merge(fs, tree, dist, MatchParams(rho=1.1))
        loose = break_and_merge(fs, tree, dist, MatchParams(rho=math.inf))
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


def test_quadratic_as_printed_discontinuous_at_cutoff():
    # zero lies at d = sqrt(sigma), not sigma, unless sigma == 1
    assert quadratic_kernel_as_printed(0.0, 2.0) == 1.0
    just_below = quadratic_kernel_as_printed(np.nextafter(2.0, 0.0), 2.0)
    assert just_below == pytest.approx(-1.0)
    assert quadratic_kernel_as_printed(2.0, 2.0) == 0.0


def test_gaussian_kernel_as_printed_uses_unsquared_norm():
    assert gaussian_kernel(2.0, 1.0) == pytest.approx(math.exp(-1.0))
