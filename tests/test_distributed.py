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
    INGEST,
    AgentState,
    NetworkLedger,
    compute_boundary,
    detect_contested,
    distributed_quickmatch,
    exchange_boundary_scalars,
    finalize,
    init_agents,
    local_cluster,
    transfer_round,
)
from quickmatch.kernels import Kernel
from quickmatch.metrics import compare_clusterings, split_quality
from quickmatch.partition import Partition, assign_to_seeds, kmeans_seeds
from quickmatch.synthetic import SynthConfig, generate_synthetic

import oracles
from test_golden import _lone as golden_lone

QUAD = MatchParams(kernel=Kernel.QUADRATIC)


def _agents_for(fs, part):
    return init_agents(fs, part, NetworkLedger())


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
    scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
    for ag in agents:
        detect_contested(ag, scalars[ag.id])
    return fs, truth, part, agents, scalars


# -- routing -------------------------------------------------------------------


def test_route_features_counts_and_disjoint_union():
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 4, seed=0)
    ledger = NetworkLedger()
    agents = init_agents(fs, part, ledger)
    assert ledger.counts()["route"] == 250
    all_rows = np.concatenate([agent.rows0 for agent in agents])
    assert len(all_rows) == 250
    assert len(set(all_rows.tolist())) == 250
    # routing matches the partition assignment
    for a, agent in enumerate(agents):
        assert agent.id == a
        assert np.all(part.assignment[agent.rows0] == a)
        assert np.all(np.diff(agent.rows0) > 0) and agent.kept.all()


def test_route_m1_all_local_zero_cross_agent():
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 1, seed=0)
    ledger = NetworkLedger()
    (agent,) = init_agents(fs, part, ledger)
    assert agent.rows0.tolist() == list(range(250))
    assert ledger.counts()["route"] == 250
    assert ledger.counts()["cross_agent"] == 0


def test_routing_and_boundary_exchange_refuse_to_run_unlogged():
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 2, seed=0)
    with pytest.raises(ProtocolError, match="^routing needs a ledger"):
        init_agents(fs, part, None)
    agents = _agents_for(fs, part)
    for ag in agents:
        compute_boundary(ag, fs, part)
    with pytest.raises(ProtocolError, match="^the boundary exchange needs a ledger"):
        exchange_boundary_scalars(agents, fs, part, None)
    for m in (1, 4):
        part = kmeans_seeds(fs, m, seed=0)
        agents = _agents_for(fs, part)
        for ag in agents:
            local_cluster(ag, fs, QUAD)
            compute_boundary(ag, fs, part)
        scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
        for ag in agents:
            detect_contested(ag, scalars[ag.id])
        with pytest.raises(ProtocolError, match="^the cluster transfer needs a ledger"):
            transfer_round(agents, fs, None)
        assert all(ag.kept.all() and ag.adopted == [] for ag in agents)
        ledger = NetworkLedger()
        transfer_round(agents, fs, ledger)
        assert (ledger.counts()["cluster"] > 0) == (m == 4)  # at m = 4 the refused call had clusters to send


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
    assert ledger.counts()["scalar"] == 12  # m(m-1)


def test_scalar_single_far_feature():
    fs = FeatureSet.from_rows([(0, 0, [-1.0]), (0, 1, [4.0])])
    part = _explicit_partition(fs, [[0.0], [2.0]])  # bisector at 1.0
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
    assert scalars[0, 1] == pytest.approx(3.0)  # agent 1's feature at 4.0 vs boundary 1.0
    assert scalars[1, 0] == pytest.approx(2.0)


def test_scalar_empty_agent_is_infinite():
    fs = FeatureSet.from_rows([(0, 0, [0.0]), (0, 1, [0.5])])
    part = Partition(np.array([[0.0], [100.0]]), np.array([0, 0]), fs.ids)
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
    assert math.isinf(scalars[0, 1])
    # The empty agent's boundary has no rows; detection and transfer pass over it.
    assert agents[1].boundary.shape == (0, 2)
    for ag in agents:
        detect_contested(ag, scalars[ag.id])
    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    assert ledger.counts()["cluster"] == 0


def test_scalar_exhaustive_oracle():
    fs, _ = generate_synthetic(SynthConfig(seed=4))
    part = kmeans_seeds(fs, 4, seed=3)
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    got = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
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
    (agent,) = run.agents
    assert agent.boundary.shape == (len(fs), 1) and np.isinf(agent.boundary).all()


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
    scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
    for ag in agents:
        detect_contested(ag, scalars[ag.id])
    assert all((ag.trigger == len(agents)).all() for ag in agents)

    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    assert ledger.counts()["cluster"] == 0

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


def test_transfer_round_refuses_an_agent_never_clustered():
    fs, _, _, agents, _ = _bisecting_setup()
    agents[1].labels = None
    with pytest.raises(ProtocolError, match=r"^agent 1 has no local clusters yet$"):
        transfer_round(agents, fs, NetworkLedger())


def test_detect_contested_refuses_an_agent_never_clustered():
    # Before local_cluster, sigma_a is NaN: every comparison with it is False,
    # so the test would flag nothing rather than fail.
    fs, _ = generate_synthetic(SynthConfig())
    part = kmeans_seeds(fs, 4, seed=0)
    agents = _agents_for(fs, part)
    for ag in agents:
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
    with pytest.raises(ProtocolError, match=r"^agent 0 has no local clusters yet$"):
        detect_contested(agents[0], scalars[0])


def test_transfer_chains_strictly_decrease():
    fs, _ = generate_synthetic(SynthConfig())
    for m in (2, 4, 8):
        run = distributed_quickmatch(fs, m, QUAD, seed=0)
        for _, hop in oracles.cluster_hops(json.loads(run.ledger.to_json())):
            assert len(hop) == 2 and hop[1] < hop[0]
        run.ledger.validate_protocol(len(fs), m)


def test_validate_protocol_rejects_a_feature_carried_twice():
    # Each hop decreases, so the ledger takes both; a two-hop chain was within
    # the old m-1 hop limit, but a cluster settles where it first arrives.
    ledger = NetworkLedger()
    ledger.log("route", -1, 2, [[0, 0]])
    for src in range(3):
        for dst in range(3):
            if src != dst:
                ledger.log("scalar", src, dst, value=1.0)
    ledger.log("cluster", 2, 1, [[0, 0]])
    ledger.validate_protocol(1, 3)
    ledger.log("cluster", 1, 0, [[0, 0]])
    with pytest.raises(ProtocolError, match=r"^feature \(0, 0\) is carried by two cluster messages$"):
        ledger.validate_protocol(1, 3)


def _ledger_missing(kind, features=3, m=3):
    """A route for each feature and a scalar for each ordered agent pair,
    leaving out the first message of ``kind``."""
    messages = [("route", -1, k % m, [[0, k]], None) for k in range(features)]
    messages += [("scalar", src, dst, None, 1.0) for src in range(m) for dst in range(m) if src != dst]
    if kind is not None:
        del messages[[message[0] for message in messages].index(kind)]
    ledger = NetworkLedger()
    for message in messages:
        ledger.log(*message)
    return ledger


@pytest.mark.parametrize(
    "kind, message", [("route", r"^routed 2 features, expected 3$"), ("scalar", r"^5 scalars, expected 6$")]
)
def test_validate_protocol_rejects_a_ledger_one_message_short(kind, message):
    _ledger_missing(None).validate_protocol(3, 3)
    with pytest.raises(ProtocolError, match=message):
        _ledger_missing(kind).validate_protocol(3, 3)


def test_split_fragments_converge_to_lowest_involved_agent():
    fs, truth, part, agents, _ = _bisecting_setup()
    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    assert ledger.counts()["cluster"] > 0
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
    ledger.log("route", -1, 1, [[3, 4]])
    ledger.log("scalar", 0, 1, value=0.25)
    ledger.log("scalar", 1, 0, value=math.inf)
    ledger.log("cluster", 1, 0, [[3, 4], [5, 0]])
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


def test_ledger_rejects_nondecreasing_cluster_transfer():
    ledger = NetworkLedger()
    with pytest.raises(ProtocolError, match=r"^cluster transfer 1->2 does not decrease$"):
        ledger.log("cluster", 1, 2, [[0, 0]])


def test_ledger_sealed_blocks_logging():
    ledger = NetworkLedger()
    ledger.seal()
    with pytest.raises(ProtocolError, match=r"^message logged after the ledger was sealed$"):
        ledger.log("route", -1, 0, [[0, 0]])


@pytest.mark.parametrize("kind, src, dst", [("route", -1, 0), ("cluster", 1, 0)])
@pytest.mark.parametrize("ids", [None, []])
def test_ledger_refuses_a_feature_message_that_lists_no_features(kind, src, dst, ids):
    # Stored, such a record would have no ids, and validate_protocol would fail
    # on it with a KeyError rather than a ProtocolError.
    ledger = NetworkLedger()
    with pytest.raises(ProtocolError, match=rf"^{kind} message {src}->{dst} lists no features$"):
        ledger.log(kind, src, dst, ids)
    assert json.loads(ledger.to_json())["messages"] == []


@pytest.mark.parametrize(
    "kind, src, dst, ids, value, message",
    [
        ("scalar", 0, 1, None, None, r"scalar message 0->1 carries no value"),
        ("scalar", 0, 1, [[0, 0]], 1.0, r"scalar message 0->1 lists features"),
        ("route", -1, 0, [[0, 0]], 1.0, r"route message -1->0 carries a value"),
        ("cluster", 1, 0, [[0, 0]], 1.0, r"cluster message 1->0 carries a value"),
        ("route", 0, 1, [[0, 0]], None, r"route message 0->1 is not sent from ingest \(-1\)"),
        ("scalar", 1, 1, None, 1.0, r"scalar message 1->1 is sent to its own sender"),
        ("route", -1, 0, [[1, 2, 3]], None, r"route message -1->0: expected rows of 2 ids, got an array of shape \(1, 3\)"),
        ("cluster", 1, 0, [[-1, 2]], None, r"cluster message 1->0: negative id \(-1, 2\)"),
    ],
)
def test_ledger_refuses_a_message_its_kind_cannot_hold(kind, src, dst, ids, value, message):
    ledger = NetworkLedger()
    with pytest.raises(ProtocolError, match=rf"^{message}$"):
        ledger.log(kind, src, dst, ids, value)
    assert json.loads(ledger.to_json())["messages"] == []


@pytest.mark.parametrize(
    "kind, src, dst, sizes, message",
    [
        ("cluster", [2, 1], [0, 1], [1, 1], r"cluster transfer 1->1 does not decrease"),
        ("route", [-1, -1], [0, 1], [1, 0], r"route message -1->1 lists no features"),
        ("route", [-1, -1], [0, 1], [1, 2], r"route messages list 3 features, given 2"),
        ("scalar", [0], [1], [1], r"scalar messages list no features"),
    ],
)
def test_ledger_refuses_a_block_naming_its_first_bad_message(kind, src, dst, sizes, message):
    ledger = NetworkLedger()
    with pytest.raises(ProtocolError, match=rf"^{message}$"):
        ledger.log_block(kind, src, dst, np.array([[0, 0], [0, 1]]), sizes)
    assert ledger.counts() == {"route": 0, "scalar": 0, "cluster": 0, "cross_agent": 0}


def test_validate_protocol_rejects_a_feature_routed_twice():
    ledger = NetworkLedger()
    ledger.log("route", -1, 0, [[4, 4]])
    ledger.log("route", -1, 1, [[4, 4]])
    ledger.log("scalar", 0, 1, value=1.0)
    ledger.log("scalar", 1, 0, value=1.0)
    with pytest.raises(ProtocolError, match=r"^feature \(4, 4\) is routed twice$"):
        ledger.validate_protocol(2, 2)


_LEDGER_IDS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(list)
    | st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)).map(list),
    min_size=1,
    max_size=4,
)


@st.composite
def _ledger_messages(draw):
    """Valid messages over ``m`` agents, interleaved: route and cluster
    blocks (as ``init_agents`` and ``transfer_round`` log them) and single
    routes and clusters, and scalars, all m(m-1) at once or one at a time.
    Each cluster goes to a lower agent."""
    m = draw(st.integers(1, 4))
    agents, values = st.integers(0, m - 1), st.sampled_from([math.inf, 0.0, 1e-300]) | st.floats()
    hops = st.integers(1, m - 1).flatmap(lambda src: st.tuples(st.just(src), st.integers(0, src - 1)))
    kinds = ["routes", "route", "exchange"] + (["scalar", "cluster", "clusters"] if m > 1 else [])
    messages = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind == "routes":
            fids = draw(st.lists(_LEDGER_IDS.map(lambda ids: ids[:1]), max_size=5))
            to = draw(st.lists(agents, min_size=len(fids), max_size=len(fids)))
            messages.append(("route", [INGEST] * len(fids), to, fids))
        elif kind == "clusters":
            block = draw(st.lists(hops, max_size=4))
            src, dst = [hop[0] for hop in block], [hop[1] for hop in block]
            messages.append(("cluster", src, dst, [draw(_LEDGER_IDS) for _ in block]))
        elif kind in ("route", "cluster"):
            src, dst = (INGEST, draw(agents)) if kind == "route" else draw(hops)
            messages.append((kind, src, dst, draw(_LEDGER_IDS), None))
        elif kind == "exchange":
            messages += [("scalar", a, b, None, draw(values)) for a in range(m) for b in range(m) if a != b]
        else:
            src, dst = draw(st.lists(agents, min_size=2, max_size=2, unique=True))
            messages.append(("scalar", src, dst, None, draw(values)))
    return m, messages


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(_ledger_messages(), st.integers(-1, 1))
def test_columnar_ledger_writes_counts_and_checks_as_the_record_ledger(case, missing):
    m, messages = case
    ledger, reference = NetworkLedger(), oracles.RecordLedger()
    for message in messages:
        if len(message) == 4:  # a block: one message per entry of its lists
            kind, src, dst, ids = message
            rows = np.array([fid for fids in ids for fid in fids], dtype=np.int64).reshape(-1, 2)
            ledger.log_block(kind, src, dst, rows, list(map(len, ids)))
            for block_message in zip(src, dst, ids):
                reference.log(kind, *block_message)
        else:
            ledger.log(*message)
            reference.log(*message)
    assert ledger.to_json() == reference.to_json()
    assert ledger.counts() == reference.counts()
    outcomes = []
    for each in (ledger, reference):
        try:
            each.validate_protocol(reference.counts()["route"] + missing, m)
            outcomes.append(None)
        except ProtocolError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_ledger_refuses_an_unknown_kind():
    # Stored, it would become a key of counts() that the report's ledger block refuses.
    ledger = NetworkLedger()
    with pytest.raises(ProtocolError, match=r"^unknown message kind 'bogus'$"):
        ledger.log("bogus", 0, 1, value=1.0)
    assert ledger.counts() == {"route": 0, "scalar": 0, "cluster": 0, "cross_agent": 0}


# -- full pipeline ------------------------------------------------------------------


def test_m1_pipeline_byte_identical_to_centralized_quadratic():
    fs, _ = generate_synthetic(SynthConfig())
    run = distributed_quickmatch(fs, 1, QUAD, seed=0)
    central = quickmatch(fs, QUAD)
    assert canonical_cluster_bytes(run.clustering) == canonical_cluster_bytes(central)
    assert run.ledger.counts()["cluster"] == 0
    assert run.ledger.counts()["scalar"] == 0


def test_finalize_single_feature_image_uses_agent_bandwidth():
    # The whole-set-fill case of test_quickmatch.py plus a far feature of a
    # fourth image: image 1's lone feature is 1.0 from (0, 0). Agent 0 holds
    # every feature but the far one, so it merges image 1 by its sigma_a (the
    # longest tree edge) and joins the pair; the whole-set fill (image 2's
    # 0.2), which one agent holding every feature uses, keeps it apart.
    fs = FeatureSet.from_rows(
        [(0, 0, [0.0]), (0, 1, [10.0]), (1, 0, [1.0]), (2, 0, [100.0]), (2, 1, [100.2]), (3, 0, [1000.0])]
    )
    agents = _agents_for(fs, _explicit_partition(fs, [[0.0], [1000.0]]))
    assert len(agents[0].rows0) == len(fs) - 1
    c = finalize(agents, fs, QUAD)
    assert (FeatureId(0, 0), FeatureId(1, 0)) in c.clusters
    assert len(c) == len(fs) - 1
    one = finalize(_agents_for(fs, _explicit_partition(fs, [[0.0]])), fs, QUAD)
    assert canonical_cluster_bytes(one) == canonical_cluster_bytes(quickmatch(fs, QUAD))
    assert len(one) == len(fs)


def test_steps_with_an_empty_second_agent_give_the_centralized_clusters():
    """The golden ``lone`` input, every feature on agent 0 of two: the agent
    holds the whole set, so its single-feature images take the whole-set
    fill, and the clusters are `match`'s."""
    fs = golden_lone()
    part = Partition(np.array([[0.0, 0.0], [1e6, 1e6]]), np.zeros(len(fs), dtype=np.intp), fs.ids)
    agents = _agents_for(fs, part)
    for ag in agents:
        local_cluster(ag, fs, QUAD)
        compute_boundary(ag, fs, part)
    scalars = exchange_boundary_scalars(agents, fs, part, NetworkLedger())
    for ag in agents:
        detect_contested(ag, scalars[ag.id])
    ledger = NetworkLedger()
    transfer_round(agents, fs, ledger)
    assert ledger.counts()["cluster"] == 0
    got = finalize(agents, fs, QUAD)
    assert canonical_cluster_bytes(got) == canonical_cluster_bytes(quickmatch(fs, QUAD))


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
                run.ledger.log("scalar", 0, 1, value=0.0)


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
            "contested_features",
            "local_clusters",
            "contested_clusters",
            "clusters_found",
        ):
            assert key in s
        assert not [key for key in s if key.endswith("_s")]  # times live in each agent's timings
    for agent in run.agents:
        assert sorted(agent.timings) == ["boundary_s", "finalize_s", "local_cluster_s"]
    assert sorted(run.timings) == sorted(
        ["partition_s", "route_s", "local_cluster_s", "boundary_s", "detect_s", "transfer_s", "finalize_s"]
    )
    assert sum(s["features_final"] for s in run.per_agent_stats) == 250
    assert sum(s["clusters_found"] for s in run.per_agent_stats) == len(run.clustering)


def test_input_validation():
    fs, _ = generate_synthetic(SynthConfig(n_clusters=4, per_cluster=3))
    for seeding in ("kmeans", "random"):
        with pytest.raises(InputError, match=r"^agent count must be >= 1, got 0$"):
            distributed_quickmatch(fs, 0, QUAD, seeding=seeding)
    with pytest.raises(InputError):
        distributed_quickmatch(fs, 2, QUAD, seeding="voronoi")
