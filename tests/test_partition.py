import json
import math
import threading

import numpy as np
import pytest

from quickmatch import partition
from quickmatch.core import FeatureSet, InputError, ProtocolError
from quickmatch.partition import (
    KMEANS_ITERATIONS,
    Partition,
    assign_to_seeds,
    bisector_distances,
    kmeans_seeds,
    random_seeds,
)
from quickmatch.synthetic import SynthConfig, generate_synthetic

import oracles


def _blobs(seed=0, centers=((0.0, 0.0), (20.0, 0.0)), per=20, spread=0.5):
    rng = np.random.default_rng(seed)
    rows = []
    k = 0
    for c, ctr in enumerate(centers):
        for _ in range(per):
            rows.append((0, k, np.asarray(ctr) + rng.normal(0, spread, len(ctr))))
            k += 1
    return FeatureSet.from_rows(rows), np.repeat(np.arange(len(centers)), per)


# -- kmeans --------------------------------------------------------------------


def test_kmeans_m1_is_global_centroid():
    fs, _ = _blobs()
    part = kmeans_seeds(fs, 1, seed=0)
    np.testing.assert_allclose(part.seeds[0], fs.vectors.mean(axis=0), atol=1e-12)
    assert np.all(part.assignment == 0)


def test_kmeans_two_blobs_pure():
    fs, blob = _blobs(seed=3)
    part = kmeans_seeds(fs, 2, seed=1)
    # each blob maps to exactly one agent
    for b in (0, 1):
        agents = set(part.assignment[blob == b])
        assert len(agents) == 1
    assert set(part.assignment) == {0, 1}


def test_kmeans_deterministic():
    fs, _ = generate_synthetic(SynthConfig(seed=5))
    a = kmeans_seeds(fs, 4, seed=9)
    b = kmeans_seeds(fs, 4, seed=9)
    assert np.array_equal(a.seeds, b.seeds)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.to_json() == b.to_json()


def test_kmeans_errors():
    fs, _ = _blobs(per=2)
    with pytest.raises(InputError):
        kmeans_seeds(fs, 0)
    with pytest.raises(InputError):
        kmeans_seeds(fs, len(fs) + 1)


def test_kmeans_voronoi_correctness_and_objective_monotone():
    fs, _ = generate_synthetic(SynthConfig(seed=8))
    part = kmeans_seeds(fs, 5, seed=2)
    d = np.linalg.norm(fs.vectors[:, None, :] - part.seeds[None, :, :], axis=2)
    assert np.all(d[np.arange(len(fs)), part.assignment] <= d.min(axis=1) + 1e-12)

    # re-run Lloyd by hand, tracking the post-assignment objective
    X = fs.vectors
    rng = np.random.default_rng(2)
    chosen: list[int] = []
    for r in rng.permutation(len(X)):
        if all(not np.array_equal(X[r], X[c]) for c in chosen):
            chosen.append(int(r))
        if len(chosen) == 5:
            break
    seeds = X[chosen].copy()
    prev_obj = None
    for _ in range(KMEANS_ITERATIONS):
        labels = assign_to_seeds(X, seeds)
        obj = float(((X - seeds[labels]) ** 2).sum())
        if prev_obj is not None:
            assert obj <= prev_obj + 1e-9
        prev_obj = obj
        if all(np.any(labels == c) for c in range(5)):
            for c in range(5):
                seeds[c] = X[labels == c].mean(axis=0)


def test_kmeans_empty_cluster_repair_reseeds_farthest():
    # two tight pairs and one far outlier; no update empties an agent here,
    # the next test pins an input that does
    fs = FeatureSet.from_rows(
        [
            (0, 0, [0.0, 0.0]),
            (0, 1, [0.1, 0.0]),
            (0, 2, [10.0, 0.0]),
            (0, 3, [10.1, 0.0]),
            (0, 4, [100.0, 0.0]),
        ]
    )
    part = kmeans_seeds(fs, 3, seed=0)
    assert len(set(part.assignment)) == 3  # no agent ends empty
    # the outlier necessarily sits alone under any 3-means optimum here
    assert sum(part.assignment == part.assignment[4]) == 1


def test_kmeans_empty_cluster_repair_runs_and_repeats(monkeypatch):
    # three tight blobs of four and four agents: with seed 2 an update leaves
    # one agent without features, so the repair reseeds it on a far feature
    pts = [
        (3.02, 5.94), (3.01, 6.07), (3.02, 6.02), (3.04, 5.99),
        (2.87, 9.93), (2.96, 10.02), (2.99, 9.97), (2.97, 10.07),
        (6.89, 10.06), (6.98, 9.97), (7.01, 10.04), (6.99, 9.96),
    ]
    fs = FeatureSet.from_rows([(0, k, list(p)) for k, p in enumerate(pts)])
    emptied = []

    def spy(vectors, seeds):
        labels = assign_to_seeds(vectors, seeds)
        emptied.append(len(np.unique(labels)) < len(seeds))
        return labels

    monkeypatch.setattr(partition, "assign_to_seeds", spy)
    part = kmeans_seeds(fs, 4, seed=2)
    assert any(emptied)  # the repair path ran
    assert sorted(set(part.assignment.tolist())) == [0, 1, 2, 3]
    assert part.assignment.tolist() == [2, 1, 1, 1, 0, 0, 0, 0, 3, 3, 3, 3]
    again = kmeans_seeds(fs, 4, seed=2)
    assert np.array_equal(again.assignment, part.assignment)
    assert np.array_equal(again.seeds, part.seeds)


# Degenerate inputs on which the repair once took the only member of another
# cluster: a NaN seed (mean of an empty cluster) on the 1-D set, coincident
# seeds (a ProtocolError) on the 2-D one.
_REPAIR_NEVER_EMPTIES = {
    "1d-m6": ([[1.0], [2.0], [1.5], [0.5], [1.1e-308], [0.0]], 6),
    "2d-m7": ([[0, 0], [0, 0], [0, 1], [0, 2], [0, 3], [0, 2.2e-313], [1, 0], [1, 1]], 7),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_REPAIR_NEVER_EMPTIES))
def test_kmeans_repair_never_empties_a_cluster(case):
    vectors, m = _REPAIR_NEVER_EMPTIES[case]
    fs = FeatureSet.from_rows([(0, k, v) for k, v in enumerate(vectors)])
    part = kmeans_seeds(fs, m, seed=0)
    assert part.m == m
    assert np.isfinite(part.seeds).all()
    assert len(np.unique(part.seeds, axis=0)) == m


def test_converged_kmeans_keeps_the_labels_its_repair_chose():
    """0.0 and 1.1e-308 get seeds of their own, but cdist puts both features at
    distance 0 from either seed (the squared gap underflows), so assigning
    them again would hand both to agent 2 and leave agent 3 empty."""
    fs = FeatureSet.from_rows([(i, 0, [v]) for i, v in enumerate([1.0, 2.0, 1.5, 0.5, 1.1e-308, 0.0])])
    part = kmeans_seeds(fs, 6, seed=0)
    assert part.assignment.tolist() == [4, 5, 1, 0, 3, 2]
    assert part.seeds[part.assignment, 0].tolist() == fs.vectors[:, 0].tolist()


# -- random seeds ----------------------------------------------------------------


def test_random_seeds_shared_integer_reproduces():
    fs, _ = generate_synthetic(SynthConfig(seed=1))
    a = random_seeds(fs, 6, seed=42)
    b = random_seeds(fs, 6, seed=42)
    assert np.array_equal(a.seeds, b.seeds)
    assert np.array_equal(a.assignment, b.assignment)


def test_random_seeds_m1():
    fs, _ = generate_synthetic(SynthConfig(seed=1))
    part = random_seeds(fs, 1, seed=0)
    assert np.all(part.assignment == 0)


def test_random_seeds_within_bounds_and_mean():
    rng = np.random.default_rng(0)
    fs = FeatureSet.from_rows([(0, k, rng.uniform(0, 1, 2)) for k in range(64)])
    lo, hi = fs.bounds()
    draws = []
    for s in range(100):
        part = random_seeds(fs, 100, seed=s)
        assert np.all(part.seeds >= lo) and np.all(part.seeds <= hi)
        draws.append(part.seeds)
    seeds = np.concatenate(draws)  # 10^4 draws
    mid = (lo + hi) / 2
    span = hi - lo
    assert np.all(np.abs(seeds.mean(axis=0) - mid) <= 0.02 * span + 1e-9)


def test_random_seeds_degenerate_box_widened():
    fs = FeatureSet.from_rows([(0, 0, [5.0, 1.0]), (0, 1, [5.0, 2.0])])
    part = random_seeds(fs, 3, seed=0)  # x extent is zero, must still work
    assert len(np.unique(part.seeds, axis=0)) == 3


@pytest.mark.parametrize("c", [0.0, 1e10, -3e-200])
def test_random_seeds_for_one_repeated_vector_are_distinct(c):
    """Every feature at c: a fixed 1e-6 widening rounds away beside 1e10,
    leaving three representable seeds, so four distinct ones were redrawn
    forever. The widening is now a millionth of c itself."""
    fs = FeatureSet.from_rows([(i, 0, [c]) for i in range(5)])
    seeds = []
    worker = threading.Thread(target=lambda: seeds.append(random_seeds(fs, 4, seed=0).seeds), daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and seeds
    assert len(np.unique(seeds[0])) == 4
    assert np.all(np.abs(seeds[0] - c) <= 1e-6 * (abs(c) or 1.0))


def test_random_seeds_refuse_a_box_of_fewer_points_than_seeds():
    """Two adjacent floats and no flat dimension: only two seed values exist,
    so four distinct seeds were once redrawn forever."""
    c = 1e10
    fs = FeatureSet.from_rows([(0, 0, [c]), (0, 1, [np.nextafter(c, np.inf)])])
    with pytest.raises(InputError, match="too few distinct points for 4 random seeds"):
        random_seeds(fs, 4, seed=0)
    assert len(np.unique(random_seeds(fs, 2, seed=0).seeds)) == 2


# -- boundary distances ----------------------------------------------------------


def _one_row(x, seeds):
    """``bisector_distances`` for one point, from the agent that owns it."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    seeds = np.asarray(seeds, dtype=np.float64)
    t = int(assign_to_seeds(x, seeds)[0])
    return t, bisector_distances(x, seeds, t)[0]


def test_boundary_distance_midpoint_is_zero():
    _, d = _one_row([1.0, 1.0], [[0.0, 0.0], [2.0, 2.0]])
    assert d[1] == pytest.approx(0.0, abs=1e-12)


def test_boundary_distance_1d_analytic():
    seeds = np.array([[0.0], [2.0]])
    t, d = _one_row([0.5], seeds)
    assert t == 0
    assert d[1] == pytest.approx(0.5)
    u_hat = (seeds[1] - seeds[0]) / np.linalg.norm(seeds[1] - seeds[0])
    assert np.array([0.5]) + d[1] * u_hat == pytest.approx([1.0])


def test_boundary_distance_rejects_own_agent():
    t, d = _one_row([0.5], [[0.0], [2.0]])
    assert t == 0
    assert d[t] == math.inf  # no boundary to itself


def test_projection_lies_on_bisector_and_residual_is_normal():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.choice([2, 3, 8]))
        seeds = rng.normal(size=(4, dim)) * 5
        x = rng.normal(size=dim) * 5
        t, d = _one_row(x, seeds)
        e = int(rng.choice([a for a in range(4) if a != t]))
        u = seeds[e] - seeds[t]
        u_hat = u / np.linalg.norm(u)
        x_min = x + d[e] * u_hat
        # on the bisector: u_hat . (x_min - p_t) == |u|/2
        assert float(u_hat @ (x_min - seeds[t])) == pytest.approx(
            float(np.linalg.norm(u)) / 2, abs=1e-9
        )
        # residual is parallel to the normal
        resid = x - x_min
        tangential = resid - (resid @ u_hat) * u_hat
        assert float(np.linalg.norm(tangential)) == pytest.approx(0.0, abs=1e-9)
        assert d[e] == pytest.approx(float(np.linalg.norm(resid)), abs=1e-12)


def test_closed_form_matches_qp_oracle_sampled():
    rng = np.random.default_rng(23)
    for _ in range(60):
        dim = int(rng.choice([2, 8, 128]))
        seeds = rng.normal(size=(3, dim)) * 4
        x = rng.normal(size=dim) * 4
        t, d = _one_row(x, seeds)
        e = (t + 1) % 3
        want = oracles.qp_boundary_distance(x, seeds[t], seeds[e])
        assert d[e] == pytest.approx(want, abs=1e-9)


def test_qp_oracle_agrees_with_scipy_slsqp():
    # cross-check the oracle itself against a generic constrained solver
    from scipy.optimize import minimize

    rng = np.random.default_rng(29)
    for _ in range(5):
        dim = 4
        p_t = rng.normal(size=dim)
        p_e = rng.normal(size=dim) + 3.0
        x_t = p_t + rng.normal(size=dim) * 0.2
        u = p_e - p_t
        u_hat = u / np.linalg.norm(u)
        c = np.linalg.norm(u) / 2

        res = minimize(
            lambda z: ((x_t - z) ** 2).sum(),
            x0=p_e,
            jac=lambda z: 2 * (z - x_t),
            constraints=[{"type": "ineq", "fun": lambda z: u_hat @ (z - p_t) - c}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        want = float(np.linalg.norm(x_t - res.x))
        assert oracles.qp_boundary_distance(x_t, p_t, p_e) == pytest.approx(want, abs=1e-7)


def test_min_boundary_distance_m2_equals_single_pair():
    t, d = _one_row([1.0, 0.0], [[0.0, 0.0], [4.0, 0.0]])
    assert t == 0
    assert int(np.argmin(d)) == 1
    assert d.min() == pytest.approx(1.0)  # the 0/1 bisector is x = 2


def test_min_boundary_distance_m1_infinite():
    t, d = _one_row([1.0, 1.0], [[0.0, 0.0]])
    assert t == 0
    assert d.shape == (1,)
    assert math.isinf(d.min())


def test_min_boundary_distance_exhaustive_oracle():
    rng = np.random.default_rng(31)
    fs, _ = generate_synthetic(SynthConfig(seed=3))
    part = kmeans_seeds(fs, 5, seed=7)
    for row in rng.choice(len(fs), size=40, replace=False):
        x = fs.vectors[row]
        t = int(part.assignment[row])
        want = math.inf
        want_e = None
        for e in range(5):
            if e == t:
                continue
            d = oracles.bisector_point_distance(x, part.seeds[t], part.seeds[e])
            if d < want - 1e-15:
                want, want_e = d, e
        d = bisector_distances(fs.vectors[row:row + 1], part.seeds, t)[0]
        assert d.min() == pytest.approx(want, abs=1e-9)
        assert int(np.argmin(d)) == want_e


def test_bisector_distances_bound_sampled_region_points():
    # d_min lower-bounds the distance to anything inside the other region
    rng = np.random.default_rng(37)
    fs, _ = generate_synthetic(SynthConfig(seed=2))
    part = kmeans_seeds(fs, 4, seed=4)
    rows = np.flatnonzero(part.assignment == part.assignment[0])[:10]
    t = int(part.assignment[0])
    dmat = bisector_distances(fs.vectors[rows], part.seeds, t)
    for e in range(4):
        if e == t:
            continue
        others = rng.uniform(0, 10, size=(200, 2))
        inside = others[assign_to_seeds(others, part.seeds) == e]
        for i, row in enumerate(rows):
            if len(inside):
                gaps = np.linalg.norm(inside - fs.vectors[row], axis=1)
                assert np.all(gaps >= dmat[i, e] - 1e-9)


def test_bisector_distances_of_unresolvable_seeds_are_zero():
    # 5e-324 squared underflows, so cdist ties both rows to agent 0 and the
    # seed gap reads 0: the rows sit on the bisector rather than beyond it
    seeds = np.array([[5e-324], [0.0]])
    vectors = np.array([[0.0], [5e-324]])
    assert assign_to_seeds(vectors, seeds).tolist() == [0, 0]
    d = bisector_distances(vectors, seeds, 0)
    assert d[:, 1].tolist() == [0.0, 0.0] and np.isinf(d[:, 0]).all()


def test_bisector_distances_accept_an_owned_row_far_from_the_origin():
    # cdist ties this row to both seeds, so agent 0 owns it; the projection then
    # reads d = -2.98e-8, which an absolute 1e-9 slack rejected
    seeds = np.array([[0.0, 0.0], [3e8, 1e8]])
    row = np.array([[249452299.9659704, -248356899.89791113]])
    assert assign_to_seeds(row, seeds).tolist() == [0]
    assert bisector_distances(row, seeds, 0)[0].tolist() == [math.inf, 0.0]


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_bisector_distances_reject_a_row_beyond_the_bisector(scale):
    seeds = np.array([[0.0, 0.0], [2.0, 0.0]]) * scale
    with pytest.raises(ProtocolError, match="beyond the 0/1 bisector"):
        bisector_distances(np.array([[1.0 + 1e-6, 5.0]]) * scale, seeds, 0)


def test_partition_json_roundtrip(tmp_path):
    fs, _ = generate_synthetic(SynthConfig(seed=0))
    for seeding in (kmeans_seeds, random_seeds):
        part = seeding(fs, 3, seed=5)
        path, again = tmp_path / "part.json", tmp_path / "again.json"
        part.save(path)
        loaded = Partition.load(path)
        assert np.array_equal(loaded.seeds, part.seeds)
        assert np.array_equal(loaded.assignment, part.assignment)
        assert np.array_equal(loaded.ids, part.ids)
        assert loaded.method == part.method and loaded.seed == part.seed
        json.loads(path.read_text())  # valid JSON
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()


def test_partition_rejects_duplicate_seeds():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (0, 1, [1.0])])
    with pytest.raises(InputError):
        Partition(np.array([[1.0], [1.0]]), np.array([0, 0]), fs.ids)
