import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quickmatch.centralized import MatchParams, quickmatch
from quickmatch.core import (
    Clustering,
    FeatureId,
    FeatureSet,
    InputError,
    ProtocolError,
    canonical_cluster_bytes,
    validate_clustering,
)
from quickmatch.distributed import (
    AgentState,
    NetworkLedger,
    compute_boundary,
    detect_contested,
    distributed_quickmatch,
    exchange_boundary_scalars,
    finalize,
    init_agents,
    local_cluster,
    route_features,
    transfer_round,
)
from quickmatch.kernels import Kernel
from quickmatch.metrics import compare_clusterings, split_quality
from quickmatch.partition import Partition, assign_to_seeds, kmeans_seeds
from quickmatch.synthetic import SynthConfig, generate_synthetic

import oracles

QUAD = MatchParams(kernel=Kernel.QUADRATIC)


def _agents_for(fs, part):
    return init_agents(fs, part)


def _explicit_partition(fs, seeds):
    seeds = np.asarray(seeds, dtype=float)
    return Partition(seeds, assign_to_seeds(fs.vectors, seeds), fs.ids)


def _bisecting_setup():
    """Canonical synthetic set, two agents whose bisector is the x=5 blob column."""
    fs, truth = generate_synthetic(SynthConfig())
    part = _explicit_partition(fs, [[4.0, 5.0], [6.0, 5.0]])
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part)
    for ag in agents:
        detect_contested(ag, scalars[ag.id])
    return fs, truth, part, agents, scalars


# -- routing -------------------------------------------------------------------


def test_route_features_counts_and_disjoint_union():
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 4, seed=0)
    ledger = NetworkLedger()
    per_agent = route_features(fs, part, ledger)
    assert ledger.count("route") == 250
    all_rows = np.concatenate(per_agent)
    assert len(all_rows) == 250
    assert len(set(all_rows.tolist())) == 250
    # routing matches the partition assignment
    for a, rows in enumerate(per_agent):
        assert np.all(part.assignment[rows] == a)


def test_route_m1_all_local_zero_cross_agent():
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 1, seed=0)
    ledger = NetworkLedger()
    route_features(fs, part, ledger)
    assert ledger.count("route") == 250
    assert ledger.counts()["cross_agent"] == 0


# -- local clustering ------------------------------------------------------------


def test_local_cluster_single_feature_agent():
    fs = FeatureSet.from_rows([(0, 0, [0.0, 0.0]), (0, 1, [10.0, 0.0])])
    part = _explicit_partition(fs, [[0.0, 0.0], [10.0, 0.0]])
    agents = _agents_for(fs, part)
    local_cluster(agents[0], fs, QUAD)
    assert len(np.unique(agents[0].labels)) == 1
    assert math.isinf(agents[0].sigma_a)  # no parent edges: maximally uncertain


def test_local_cluster_recovers_whole_blob():
    rng = np.random.default_rng(12)
    blob = np.array([3.0, 3.0]) + rng.normal(0, 0.2, size=(8, 2))
    rows = [(img, 0, v) for img, v in enumerate(blob)]
    rows += [(img, 1, [40.0 + img, 40.0]) for img in range(8)]  # far side features
    fs = FeatureSet.from_rows(rows)
    part = _explicit_partition(fs, [[3.0, 3.0], [40.0, 40.0]])
    agents = _agents_for(fs, part)
    local_cluster(agents[0], fs, QUAD)
    assert len(np.unique(agents[0].labels)) == 1
    assert len(agents[0].rows0) == 8


def test_local_cluster_m1_equals_centralized_quadratic():
    fs, _ = generate_synthetic(SynthConfig(seed=2))
    part = kmeans_seeds(fs, 1, seed=0)
    agents = _agents_for(fs, part)
    local_cluster(agents[0], fs, QUAD)
    central = quickmatch(fs, QUAD)
    local = Clustering(
        [
            [fs.ids[agents[0].rows0[i]] for i in np.flatnonzero(agents[0].labels == lab)]
            for lab in np.unique(agents[0].labels)
        ]
    )
    assert canonical_cluster_bytes(local) == canonical_cluster_bytes(central)


# -- boundary scalars ------------------------------------------------------------


def test_scalar_exchange_count_m4():
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 4, seed=0)
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    ledger = NetworkLedger()
    exchange_boundary_scalars(agents, fs, part, ledger)
    assert ledger.count("scalar") == 12  # m(m-1)


def test_scalar_single_far_feature():
    fs = FeatureSet.from_rows([(0, 0, [-1.0]), (0, 1, [4.0])])
    part = _explicit_partition(fs, [[0.0], [2.0]])  # bisector at 1.0
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part)
    assert scalars[0, 1] == pytest.approx(3.0)  # agent 1's feature at 4.0 vs boundary 1.0
    assert scalars[1, 0] == pytest.approx(2.0)


def test_scalar_empty_agent_is_infinite():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (0, 1, [0.5])])
    part = Partition(np.array([[0.0], [100.0]]), np.array([0, 0]), fs.ids)
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part)
    assert math.isinf(scalars[0, 1])


def test_scalar_exhaustive_oracle():
    fs, _ = generate_synthetic(SynthConfig(seed=4))
    part = kmeans_seeds(fs, 4, seed=3)
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    got = exchange_boundary_scalars(agents, fs, part)
    want = oracles.boundary_scalars(fs, part.seeds, part.assignment)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


# -- contested detection ----------------------------------------------------------


def test_detect_contested_direct_inequality():
    agent = AgentState(1, np.array([0]), np.ones(1, dtype=bool))
    agent.sigma_a = 10.0
    agent.boundary = np.array([[1.0, np.inf]])
    scalars_row = np.array([2.0, np.inf])
    contested = detect_contested(agent, scalars_row)
    assert contested.tolist() == [0] and agent.trigger.tolist() == [0]  # 1 + 2 < 10


def test_detect_contested_negative_case():
    # boundary geometry where d_ika + d_aa' >= sigma_a: not contested
    agent = AgentState(1, np.array([0]), np.ones(1, dtype=bool))
    agent.sigma_a = 2.5
    agent.boundary = np.array([[3.0, np.inf]])
    contested = detect_contested(agent, np.array([4.1, np.inf]))
    assert contested.tolist() == [] and agent.trigger.tolist() == [2]  # m: none


def test_detect_contested_strictness_at_equality():
    agent = AgentState(1, np.array([0]), np.ones(1, dtype=bool))
    agent.sigma_a = 3.0
    agent.boundary = np.array([[1.0, np.inf]])
    assert detect_contested(agent, np.array([2.0, np.inf])).tolist() == []
    assert agent.trigger.tolist() == [2]


def test_detect_contested_matches_row_loop():
    rng = np.random.default_rng(5)
    n, m = 300, 6
    agent = AgentState(2, np.arange(n), np.ones(n, dtype=bool))
    agent.sigma_a = 1.5
    agent.boundary = rng.uniform(0, 2, (n, m))
    agent.boundary[:, 2] = np.inf
    scalars_row = np.append(rng.uniform(0, 1, m - 1), np.inf)
    want = {}
    for i in range(n):
        triggers = np.flatnonzero(agent.boundary[i] + scalars_row < agent.sigma_a)
        if len(triggers):
            want[i] = tuple(int(t) for t in triggers)
    got = detect_contested(agent, scalars_row)
    assert 0 < len(got) < n
    assert got.tolist() == list(want)  # ascending
    assert agent.trigger.tolist() == [min(want[i]) if i in want else m for i in range(n)]


def test_bisecting_partition_detects_all_split_features():
    fs, truth, part, agents, _ = _bisecting_setup()
    union = set()
    for ag in agents:
        union.update(map(tuple, fs.id_array[ag.rows0[ag.trigger < part.m]].tolist()))
    central = quickmatch(fs, QUAD)
    report = split_quality(central, part, union)
    assert report.contested_cluster_count >= 3  # bisects at least 3 blobs
    assert report.contested_recall == 1.0
    # conservative: detected set exceeds the truly split one, reported uncapped
    assert report.p_split is not None and report.p_split > 1.0


def test_contested_requires_other_agents():
    fs, _ = generate_synthetic(SynthConfig(seed=1))
    run = distributed_quickmatch(fs, 1, QUAD, seed=0)
    assert run.contested_ids.shape == (0, 2)


# -- transfers ---------------------------------------------------------------------


def test_no_contested_clusters_no_transfers():
    # two groups 100 apart; the boundary sits far beyond any parent edge
    rng = np.random.default_rng(0)
    rows = []
    for g, base in enumerate((0.0, 100.0)):
        for c in range(4):
            ctr = np.array([base + 3.0 * (c % 2), 3.0 * (c // 2)])
            for img in range(6):
                rows.append((img, g * 4 + c, ctr + rng.normal(0, 0.15, 2)))
    fs = FeatureSet.from_rows(rows)
    part = _explicit_partition(fs, [[1.5, 1.5], [101.5, 1.5]])
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part)
    for ag in agents:
        detect_contested(ag, scalars[ag.id])
    assert all((ag.trigger == len(agents)).all() for ag in agents)

    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    assert ledger.count("cluster") == 0

    # fast path: final clustering equals the concatenation of local clusterings
    local_union = Clustering(
        [
            [fs.ids[ag.rows0[i]] for i in np.flatnonzero(ag.labels == lab)]
            for ag in agents
            for lab in np.unique(ag.labels)
        ]
    )
    ledger.seal()
    final = finalize(agents, fs, QUAD)
    assert canonical_cluster_bytes(final) == canonical_cluster_bytes(local_union)


def test_transfer_chains_strictly_decrease():
    fs, _ = generate_synthetic(SynthConfig())
    for m in (2, 4, 8):
        run = distributed_quickmatch(fs, m, QUAD, seed=0)
        for _, hop in run.ledger.transfer_chains():
            assert len(hop) == 2 and hop[1] < hop[0]
        run.ledger.validate_protocol(len(fs), m)


def test_validate_protocol_rejects_a_feature_carried_twice():
    # Each hop decreases, so the ledger takes both; a two-hop chain was within
    # the old m-1 hop limit, but a cluster settles where it first arrives.
    ledger = NetworkLedger()
    ledger.log(0, "route", -1, 2, [[0, 0]])
    for src in range(3):
        for dst in range(3):
            if src != dst:
                ledger.log(1, "scalar", src, dst, value=1.0)
    ledger.log(2, "cluster", 2, 1, [[0, 0]])
    ledger.validate_protocol(1, 3)
    ledger.log(2, "cluster", 1, 0, [[0, 0]])
    with pytest.raises(ProtocolError, match=r"^feature \(0, 0\) is carried by two cluster messages$"):
        ledger.validate_protocol(1, 3)


def test_split_fragments_converge_to_lowest_involved_agent():
    fs, truth, part, agents, _ = _bisecting_setup()
    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    assert ledger.count("cluster") > 0
    for msg in json.loads(ledger.to_json())["messages"]:
        if msg["kind"] == "cluster":
            assert msg["to"] == 0  # two agents: everything moves toward agent 0
    ledger.seal()
    final = finalize(agents, fs, QUAD)
    central = quickmatch(fs, QUAD)
    assert compare_clusterings(final, central).pairwise_f1 == 1.0


@st.composite
def _transfer_cases(draw):
    """A small feature set (integer grids with ties, or floats) and a run config."""
    fs = draw(oracles.small_feature_sets())
    distinct = len(np.unique(fs.vectors, axis=0))
    assume(distinct >= 2)
    m = draw(st.integers(2, min(16, distinct)))
    return fs, m, draw(st.sampled_from(("kmeans", "random")))


@settings(max_examples=120, database=None, deadline=None, derandomize=True)
@given(_transfer_cases(), st.sampled_from((Kernel.QUADRATIC, Kernel.GAUSSIAN)), st.integers(0, 3))
def test_every_contested_cluster_moves_one_hop_to_its_lowest_trigger(case, kernel, seed):
    fs, m, seeding = case
    run = distributed_quickmatch(fs, m, MatchParams(kernel=kernel), seed=seed, seeding=seeding)
    agents = run.agents
    for agent in agents:
        assert all(agent.trigger[i] > agent.id for i in np.flatnonzero(agent.kept))
    local = {fs.ids[r]: (agent, i) for agent in agents for i, r in enumerate(agent.rows0)}
    arrivals = [[] for _ in range(m)]
    for msg in json.loads(run.ledger.to_json())["messages"]:
        if msg["kind"] != "cluster":
            continue
        assert msg["round"] == 2
        ids = tuple(map(FeatureId._make, msg["ids"]))
        sender, members = agents[msg["from"]], [local[fid][1] for fid in ids]
        assert all(local[fid][0] is sender for fid in ids)
        label = sender.labels[members[0]]
        assert sorted(members) == np.flatnonzero(sender.labels == label).tolist()  # the whole local cluster
        assert msg["to"] == min(sender.trigger[i] for i in members)
        arrivals[msg["to"]].append(ids)
    for agent in agents:
        assert [tuple(fs.ids[r] for r in rows) for rows in agent.adopted] == arrivals[agent.id]
    validate_clustering(run.clustering, fs)
    run.ledger.validate_protocol(len(fs), m)


def test_ledger_writes_each_message_as_its_record():
    ledger = NetworkLedger()
    ledger.log(0, "route", -1, 1, [[3, 4]])
    ledger.log(1, "scalar", 0, 1, value=0.25)
    ledger.log(1, "scalar", 1, 0, value=math.inf)
    ledger.log(2, "cluster", 1, 0, [[3, 4], [5, 0]])
    assert json.loads(ledger.to_json()) == {
        "messages": [
            {"round": 0, "kind": "route", "from": -1, "to": 1, "ids": [[3, 4]]},
            {"round": 1, "kind": "scalar", "from": 0, "to": 1, "value": 0.25},
            {"round": 1, "kind": "scalar", "from": 1, "to": 0, "value": "inf"},
            {"round": 2, "kind": "cluster", "from": 1, "to": 0, "ids": [[3, 4], [5, 0]]},
        ],
        "counts": {
            "route": 1,
            "scalar": 2,
            "cluster": 1,
            "cross_agent": 3,
            "pairs": {"-1->1": 1, "0->1": 1, "1->0": 2},
        },
    }
    assert ledger.transfer_chains() == [([[3, 4], [5, 0]], [1, 0])]


def test_ledger_rejects_nondecreasing_cluster_transfer():
    ledger = NetworkLedger()
    with pytest.raises(ProtocolError):
        ledger.log(2, "cluster", 1, 2, [[0, 0]])


def test_ledger_sealed_blocks_logging():
    ledger = NetworkLedger()
    ledger.seal()
    with pytest.raises(ProtocolError):
        ledger.log(0, "route", -1, 0, [[0, 0]])


# -- full pipeline ------------------------------------------------------------------


def test_m1_pipeline_byte_identical_to_centralized_quadratic():
    fs, _ = generate_synthetic(SynthConfig())
    run = distributed_quickmatch(fs, 1, QUAD, seed=0)
    central = quickmatch(fs, QUAD)
    assert canonical_cluster_bytes(run.clustering) == canonical_cluster_bytes(central)
    assert run.ledger.count("cluster") == 0
    assert run.ledger.count("scalar") == 0


def test_finalize_single_feature_image_uses_agent_bandwidth():
    # Same set as the whole-set-fill case in test_quickmatch.py: image 1's
    # lone feature is 1.0 from (0, 0). In finalize its merge bandwidth is the
    # agent's sigma_a (the longest tree edge), so it merges; the centralized
    # whole-set fill (image 2's 0.2) would keep it apart.
    fs = FeatureSet.from_rows(
        [(0, 0, [0.0]), (0, 1, [10.0]), (1, 0, [1.0]), (2, 0, [100.0]), (2, 1, [100.2])]
    )
    agents = _agents_for(fs, _explicit_partition(fs, [[0.0]]))
    c = finalize(agents, fs, QUAD)
    assert (FeatureId(0, 0), FeatureId(1, 0)) in c.clusters
    assert len(c) == len(fs) - 1


@pytest.mark.parametrize("fault", ["owned-twice", "lost"])
def test_finalize_rejects_a_feature_owned_twice_or_lost(fault):
    fs, _, _, agents, _ = _bisecting_setup()
    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    ledger.seal()
    kept = np.flatnonzero(agents[0].kept)
    assert len(kept)
    if fault == "owned-twice":
        agents[1].adopted.append(agents[0].rows0[kept[:1]])  # agent 0 still keeps it
    else:
        agents[0].kept[kept[0]] = False  # sent nowhere
    with pytest.raises(ProtocolError):
        finalize(agents, fs, QUAD)


def test_m4_pipeline_ground_truth_exact():
    fs, truth = generate_synthetic(SynthConfig())
    run = distributed_quickmatch(fs, 4, QUAD, seed=0)
    central = quickmatch(fs, QUAD)
    assert compare_clusterings(run.clustering, central).pairwise_f1 == 1.0
    assert compare_clusterings(run.clustering, truth).exact_equal


def test_conservation_and_validity_across_configs():
    fs, _ = generate_synthetic(SynthConfig(seed=3))
    for m in (1, 2, 4, 8):
        for seeding in ("kmeans", "random"):
            run = distributed_quickmatch(fs, m, QUAD, seed=1, seeding=seeding)
            validate_clustering(run.clustering, fs)
            assert sorted(fid for members in run.clustering.clusters for fid in members) == sorted(fs.ids)
            run.ledger.validate_protocol(len(fs), m)
            with pytest.raises(ProtocolError, match="sealed"):
                run.ledger.log(3, "scalar", 0, 1, value=0.0)


def test_determinism_repeated_runs():
    fs, _ = generate_synthetic(SynthConfig(seed=5))
    a = distributed_quickmatch(fs, 4, QUAD, seed=2, seeding="random")
    b = distributed_quickmatch(fs, 4, QUAD, seed=2, seeding="random")
    assert a.ledger.digest() == b.ledger.digest()
    assert canonical_cluster_bytes(a.clustering) == canonical_cluster_bytes(b.clustering)


def test_per_agent_stats_schema():
    fs, _ = generate_synthetic(SynthConfig())
    run = distributed_quickmatch(fs, 4, QUAD, seed=0)
    assert len(run.per_agent_stats) == 4
    for s in run.per_agent_stats:
        for key in (
            "agent",
            "features_routed",
            "features_final",
            "compute_time_s",
            "qp_time_s",
            "post_qp_compute_time_s",
            "contested_features",
            "local_clusters",
            "contested_clusters",
            "clusters_found",
        ):
            assert key in s
    assert sum(s["features_final"] for s in run.per_agent_stats) == 250
    assert sum(s["clusters_found"] for s in run.per_agent_stats) == len(run.clustering)


def test_input_validation():
    fs, _ = generate_synthetic(SynthConfig(n_clusters=4, per_cluster=3))
    with pytest.raises(InputError):
        distributed_quickmatch(fs, 0, QUAD)
    with pytest.raises(InputError):
        distributed_quickmatch(fs, 2, QUAD, seeding="voronoi")
