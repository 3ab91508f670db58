"""Distributed matching on a simulated, deterministically scheduled network.

Agents are isolated state machines; everything that would cross the wire is
logged in a :class:`NetworkLedger`. The pipeline follows five phases:

1. route every feature to the agent owning its Voronoi region,
2. per-agent clustering with the finite quadratic kernel,
3. exchange of one boundary scalar per ordered agent pair,
4. contested-feature detection and the decreasing-index cluster transfer
   protocol,
5. a final local re-clustering with no further communication.

Phases 2, 3 and 5 may run on a thread pool; results and the ledger are
identical regardless of worker count because all logging happens at round
barriers in agent-index order.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .centralized import MatchParams, RowClusters, cluster_rows, label_groups
from .core import (
    Clustering,
    FeatureId,
    FeatureSet,
    InputError,
    ProtocolError,
    ValidationError,
    canonical_json,
    sha256_hex,
    timed,
    validate_clustering,
)
from .kernels import Kernel
from .partition import Partition, bisector_distances, kmeans_seeds, random_seeds

__all__ = [
    "AgentState",
    "TransferMessage",
    "NetworkLedger",
    "DistributedRun",
    "route_features",
    "init_agents",
    "compute_boundary",
    "local_cluster",
    "exchange_boundary_scalars",
    "detect_contested",
    "transfer_round",
    "finalize",
    "distributed_quickmatch",
    "CONTESTED_SIGMA_MODES",
    "DEFAULT_CONTESTED_SIGMA",
]

# Which bandwidth enters the contested test: each feature's own parent-edge
# length, or the agent-wide maximum. The latter is strictly more conservative
# and catches every member of a boundary-split cluster. See detect_contested.
CONTESTED_SIGMA_MODES = ("per-feature", "agent-max")
DEFAULT_CONTESTED_SIGMA = "agent-max"

INGEST = -1  # pseudo-sender for the initial routing round


@dataclass(frozen=True, eq=False)
class TransferMessage:
    """One logged network message.

    kind "route": one feature delivered to its owning agent (round 0).
    kind "scalar": a boundary scalar d_aa' (round 1).
    kind "cluster": a whole cluster with its vectors (rounds 2+); cluster
    transfers only ever move to a strictly lower agent index.
    """

    round: int
    kind: str
    from_agent: int
    to_agent: int
    feature_ids: tuple[FeatureId, ...] = ()
    value: float | None = None
    vectors: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "round": self.round,
            "kind": self.kind,
            "from": self.from_agent,
            "to": self.to_agent,
        }
        if self.feature_ids:
            out["ids"] = [[int(i), int(k)] for i, k in self.feature_ids]
        if self.value is not None:
            out["value"] = self.value if math.isfinite(self.value) else "inf"
        return out


class NetworkLedger:
    """Append-only message log with protocol checks.

    Sealed before the finalize phase: any attempt to log afterwards is a
    protocol bug and raises.
    """

    def __init__(self) -> None:
        self._messages: list[TransferMessage] = []
        self._counts: Counter[str] = Counter()
        self._sealed = False

    def log(self, message: TransferMessage) -> None:
        if self._sealed:
            raise ProtocolError("message logged after the ledger was sealed")
        if message.kind == "cluster" and message.to_agent >= message.from_agent:
            raise ProtocolError(
                f"cluster transfer {message.from_agent}->{message.to_agent} does not decrease"
            )
        self._messages.append(message)
        self._counts[message.kind] += 1

    def seal(self) -> None:
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def messages(self) -> tuple[TransferMessage, ...]:
        return tuple(self._messages)

    def count(self, kind: str) -> int:
        return self._counts[kind]

    @property
    def route_count(self) -> int:
        return self.count("route")

    @property
    def scalar_count(self) -> int:
        return self.count("scalar")

    @property
    def cluster_count(self) -> int:
        return self.count("cluster")

    def cross_agent_count(self) -> int:
        """Messages that actually left an agent (ingest routing excluded)."""
        return sum(
            1
            for msg in self._messages
            if msg.from_agent >= 0 and msg.from_agent != msg.to_agent
        )

    def transfer_chains(self) -> list[tuple[tuple[FeatureId, ...], list[int]]]:
        """Per transferred cluster, the agent sequence it visited, in log order."""
        chains: dict[tuple[FeatureId, ...], list[int]] = {}
        order: list[tuple[FeatureId, ...]] = []
        for msg in self._messages:
            if msg.kind != "cluster":
                continue
            key = msg.feature_ids
            if key not in chains:
                chains[key] = [msg.from_agent]
                order.append(key)
            chains[key].append(msg.to_agent)
        return [(key, chains[key]) for key in order]

    def validate_protocol(self, feature_count: int, m: int) -> None:
        """Assert the communication bounds: routing = one message per feature,
        scalars = m(m-1), and strictly decreasing transfer chains of at most
        m-1 hops."""
        if self.route_count != feature_count:
            raise ProtocolError(f"routed {self.route_count} features, expected {feature_count}")
        expected_scalars = m * (m - 1)
        if self.scalar_count != expected_scalars:
            raise ProtocolError(f"{self.scalar_count} scalars, expected {expected_scalars}")
        for members, chain in self.transfer_chains():
            hops = chain[1:]
            if any(b >= a for a, b in zip(chain, hops)):
                raise ProtocolError(f"non-decreasing chain {chain} for cluster {members[0]}")
            if len(hops) > m - 1:
                raise ProtocolError(f"chain {chain} longer than m-1 hops")

    def to_json(self) -> str:
        pair_counts: dict[str, int] = {}
        for msg in self._messages:
            key = f"{msg.from_agent}->{msg.to_agent}"
            pair_counts[key] = pair_counts.get(key, 0) + 1
        payload = {
            "messages": [msg.to_dict() for msg in self._messages],
            "counts": {
                "route": self.route_count,
                "scalar": self.scalar_count,
                "cluster": self.cluster_count,
                "cross_agent": self.cross_agent_count(),
                "pairs": pair_counts,
            },
        }
        return canonical_json(payload)

    def digest(self) -> str:
        return sha256_hex(self.to_json().encode())


@dataclass
class AgentState:
    """One agent's local state as the protocol advances.

    ``rows0`` are the routed feature rows (ascending global row order);
    ``kept`` masks out clusters sent away; ``adopted`` collects received
    clusters that settled here. Arrays from the local pipeline are aligned
    with ``rows0``.
    """

    id: int
    seed_point: np.ndarray
    rows0: np.ndarray
    kept: np.ndarray
    adopted: list[np.ndarray] = field(default_factory=list)

    parent: np.ndarray | None = None
    sigma_p: np.ndarray | None = None
    sigma_a: float = math.nan
    labels: np.ndarray | None = None
    boundary: np.ndarray | None = None
    contested: dict[int, tuple[int, ...]] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    local_cluster_count: int = 0
    contested_cluster_count: int = 0
    final_cluster_count: int = 0

    def contested_ids(self, fs: FeatureSet) -> tuple[FeatureId, ...]:
        return tuple(sorted(fs.ids[self.rows0[i]] for i in self.contested))

    def final_rows(self) -> np.ndarray:
        parts = [self.rows0[self.kept]] + list(self.adopted)
        out = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        return np.sort(out.astype(np.intp))


def route_features(fs: FeatureSet, part: Partition, ledger: NetworkLedger | None = None) -> list[np.ndarray]:
    """Deliver every feature to the agent owning its region; one route message
    per feature. Returns per-agent row arrays in ascending row order."""
    if tuple(part.ids) != tuple(fs.ids):
        raise InputError("partition was built over a different feature set")
    if ledger is not None:
        for row, fid in enumerate(fs.ids):
            ledger.log(TransferMessage(0, "route", INGEST, int(part.assignment[row]), (fid,)))
    return [np.flatnonzero(part.assignment == a).astype(np.intp) for a in range(part.m)]


def init_agents(fs: FeatureSet, part: Partition, ledger: NetworkLedger | None = None) -> list[AgentState]:
    """Route features and stand up one AgentState per region."""
    rows = route_features(fs, part, ledger)
    return [
        AgentState(a, part.seeds[a], r, np.ones(len(r), dtype=bool))
        for a, r in enumerate(rows)
    ]


def _cluster_agent_rows(rows: np.ndarray, fs: FeatureSet, params: MatchParams) -> RowClusters:
    """:func:`cluster_rows` over an agent's rows, with the sigma_a merge fallback."""
    return cluster_rows(
        fs.vectors[rows], fs.image_slots[rows], fs.id_rank[rows], fs.image_count, params, fallback_sigma_a=True
    )


def local_cluster(agent: AgentState, fs: FeatureSet, params: MatchParams) -> AgentState:
    """Run the matching pipeline, :func:`cluster_rows`, on the agent's own
    features only.

    Distinctiveness, density, tree, and merge are all computed from the local
    subset. For the merge threshold, images with fewer than two local
    features fall back to the agent bandwidth sigma_a (the maximum local
    parent-edge length). Each feature's sigma_p is its parent-edge length,
    sigma_a for roots.
    """
    with timed(agent.timings, "local_cluster_s"):
        result = _cluster_agent_rows(agent.rows0, fs, params)
        agent.parent, agent.labels, agent.sigma_a = result.parent, result.labels, result.sigma_a
        agent.sigma_p = np.where(result.parent >= 0, result.edge_length, result.sigma_a)
        agent.local_cluster_count = len(np.unique(agent.labels))
    return agent


def compute_boundary(agent: AgentState, fs: FeatureSet, part: Partition) -> AgentState:
    with timed(agent.timings, "boundary_s"):
        if len(agent.rows0) and part.m > 1:
            agent.boundary = bisector_distances(fs.vectors[agent.rows0], part.seeds, agent.id)
        else:
            agent.boundary = np.full((len(agent.rows0), part.m), np.inf)
    return agent


def exchange_boundary_scalars(
    agents: Sequence[AgentState], fs: FeatureSet, part: Partition, ledger: NetworkLedger | None = None
) -> np.ndarray:
    """All-pairs boundary scalars: entry [a, a'] is the minimum distance from
    any feature of a' to the a/a' bisector (+inf if a' holds no features).
    Exactly m(m-1) scalar messages are logged."""
    m = part.m
    scalars = np.full((m, m), np.inf)
    for sender in range(m):
        src = agents[sender]
        if src.boundary is None:
            raise ProtocolError(f"agent {sender} has no boundary distances yet")
        for receiver in range(m):
            if receiver == sender:
                continue
            value = float(src.boundary[:, receiver].min()) if len(src.rows0) else math.inf
            scalars[receiver, sender] = value
            if ledger is not None:
                ledger.log(TransferMessage(1, "scalar", sender, receiver, (), value))
    return scalars


def detect_contested(
    agent: AgentState, scalars_row: np.ndarray, sigma_mode: str = DEFAULT_CONTESTED_SIGMA
) -> dict[int, tuple[int, ...]]:
    """Worst-case contested test for every local feature.

    Feature x (in agent a) is contested with a' when its distance to the a/a'
    bisector plus the closest a'-feature's distance to that bisector is less
    than the reference bandwidth: the sum lower-bounds the distance to the
    nearest feature of a', so anything closer than the bandwidth might belong
    to x's cluster. The bandwidth is the feature's own parent-edge length
    ("per-feature"; density maxima use sigma_a) or sigma_a for every feature
    ("agent-max", strictly more conservative).
    """
    if sigma_mode not in CONTESTED_SIGMA_MODES:
        raise InputError(f"unknown contested sigma mode {sigma_mode!r}")
    agent.contested = {}
    n = len(agent.rows0)
    if n == 0 or agent.boundary is None:
        return agent.contested
    sigma_ref = agent.sigma_p if sigma_mode == "per-feature" else np.full(n, agent.sigma_a)
    hit = (agent.boundary + scalars_row[None, :]) < sigma_ref[:, None]
    for i in range(n):
        triggers = np.flatnonzero(hit[i])
        if len(triggers):
            agent.contested[i] = tuple(int(t) for t in triggers)
    return agent.contested


def _clusters_in_order(agent: AgentState, fs: FeatureSet) -> list[np.ndarray]:
    """Local clusters as arrays of local indices, ordered by smallest member id."""
    assert agent.labels is not None
    rank = fs.id_rank[agent.rows0]
    return sorted(label_groups(agent.labels), key=lambda idxs: rank[idxs].min())


def _cluster_message(round_: int, sender: int, dest: int, rows: np.ndarray, fs: FeatureSet) -> TransferMessage:
    ids = tuple(fs.ids[r] for r in rows)
    return TransferMessage(round_, "cluster", sender, dest, ids, None, fs.vectors[rows])


def transfer_round(agents: Sequence[AgentState], fs: FeatureSet, ledger: NetworkLedger) -> Sequence[AgentState]:
    """Move contested clusters toward lower agent indices.

    Send phase: every local cluster containing a contested feature goes whole
    to the minimum triggering agent index, if that index is lower than the
    owner's. Receive phase, processed from the highest agent index down: for
    each arriving cluster the agent finds its nearest remaining local
    feature; if that feature is itself contested with some lower index, both
    the arrival and that feature's cluster are forwarded there. Every hop
    strictly decreases the destination, so a cluster moves at most m-1 times.
    """
    m = len(agents)
    queues: list[list[np.ndarray]] = [[] for _ in range(m)]

    for agent in agents:
        if agent.labels is None or len(agent.rows0) == 0:
            continue
        for members in _clusters_in_order(agent, fs):
            triggers = [min(agent.contested[i]) for i in members if i in agent.contested]
            if not triggers:
                continue
            agent.contested_cluster_count += 1
            dest = min(triggers)
            if dest >= agent.id:
                continue
            rows = agent.rows0[members]
            ledger.log(_cluster_message(2, agent.id, dest, rows, fs))
            queues[dest].append(rows)
            agent.kept[members] = False

    for a in range(m - 1, -1, -1):
        agent = agents[a]
        qi = 0
        while qi < len(queues[a]):
            rows = queues[a][qi]
            qi += 1
            remaining = np.flatnonzero(agent.kept)
            if len(remaining) == 0:
                agent.adopted.append(rows)
                continue
            d = cdist(fs.vectors[agent.rows0[remaining]], fs.vectors[rows])
            best = d.min()
            cand_local, cand_member = np.nonzero(d == best)
            rank_local = fs.id_rank[agent.rows0[remaining[cand_local]]]
            rank_member = fs.id_rank[rows[cand_member]]
            pick = np.lexsort((rank_member, rank_local))[0]
            y = int(remaining[cand_local[pick]])
            if y in agent.contested:
                dest = min(agent.contested[y])
                if dest < a:
                    assert agent.labels is not None
                    own = np.flatnonzero((agent.labels == agent.labels[y]) & agent.kept)
                    ledger.log(_cluster_message(3, a, dest, rows, fs))
                    queues[dest].append(rows)
                    own_rows = agent.rows0[own]
                    ledger.log(_cluster_message(3, a, dest, own_rows, fs))
                    queues[dest].append(own_rows)
                    agent.kept[own] = False
                    continue
            agent.adopted.append(rows)
    return agents


def finalize(
    agents: Sequence[AgentState],
    fs: FeatureSet,
    params: MatchParams,
    meta: dict | None = None,
    workers: int = 1,
) -> Clustering:
    """Re-cluster every agent's final feature set with :func:`cluster_rows`
    (the same sigma_a merge fallback as :func:`local_cluster`) and assemble
    the global result. Requires no communication; the caller seals the
    ledger first."""

    def recluster(agent: AgentState) -> list[list[FeatureId]]:
        with timed(agent.timings, "finalize_s"):
            rows = agent.final_rows()
            labels = _cluster_agent_rows(rows, fs, params).labels
            clusters = [[fs.ids[r] for r in rows[idxs]] for idxs in label_groups(labels)]
            agent.final_cluster_count = len(clusters)
        return clusters

    cluster_lists = _map_agents(recluster, agents, workers)
    clusters = [members for sub in cluster_lists for members in sub]
    seen: set[FeatureId] = set()
    for members in clusters:
        for fid in members:
            if fid in seen:
                raise ProtocolError(f"feature {tuple(fid)} owned by two agents after transfers")
            seen.add(fid)
    if len(seen) != len(fs):
        raise ProtocolError(f"{len(fs) - len(seen)} features lost in transfer")
    clustering = Clustering(clusters, meta or {"algorithm": "distributed-quickmatch"})
    try:
        validate_clustering(clustering, fs)
    except ValidationError as exc:
        raise ProtocolError(f"final clustering violates C1/C2: {exc}") from exc
    return clustering


def _map_agents(fn: Callable, agents: Iterable[AgentState], workers: int) -> list:
    agents = list(agents)
    if workers > 1 and len(agents) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, agents))
    return [fn(agent) for agent in agents]


@dataclass(frozen=True)
class DistributedRun:
    """Everything a distributed run produced, for reporting and audit."""

    clustering: Clustering
    ledger: NetworkLedger
    partition: Partition
    agents: tuple[AgentState, ...]
    contested_ids: tuple[FeatureId, ...]
    per_agent_stats: tuple[dict, ...]
    timings: dict


def distributed_quickmatch(
    fs: FeatureSet,
    m: int,
    params: MatchParams | None = None,
    seed: int = 0,
    seeding: str = "kmeans",
    contested_sigma: str = DEFAULT_CONTESTED_SIGMA,
    workers: int = 1,
) -> DistributedRun:
    """Full distributed pipeline; deterministic for (input, m, params, seed).

    ``workers`` only controls how many agents compute concurrently; results
    and the message ledger are identical for any value.
    """
    if params is None:
        params = MatchParams(kernel=Kernel.QUADRATIC)
    if m < 1:
        raise InputError(f"agent count must be >= 1, got {m}")
    if len(fs) == 0:
        raise InputError("empty feature set")
    if seeding not in ("kmeans", "random"):
        raise InputError(f"unknown seeding {seeding!r}")
    if contested_sigma not in CONTESTED_SIGMA_MODES:
        raise InputError(f"unknown contested sigma mode {contested_sigma!r}")
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")

    timings: dict[str, float] = {}
    with timed(timings, "partition_s"):
        part = kmeans_seeds(fs, m, seed) if seeding == "kmeans" else random_seeds(fs, m, seed)

    ledger = NetworkLedger()
    with timed(timings, "route_s"):
        agents = init_agents(fs, part, ledger)

    with timed(timings, "local_cluster_s"):
        _map_agents(lambda ag: local_cluster(ag, fs, params), agents, workers)

    with timed(timings, "boundary_s"):
        _map_agents(lambda ag: compute_boundary(ag, fs, part), agents, workers)
        scalars = exchange_boundary_scalars(agents, fs, part, ledger)

    with timed(timings, "detect_s"):
        for agent in agents:
            detect_contested(agent, scalars[agent.id], contested_sigma)

    with timed(timings, "transfer_s"):
        transfer_round(agents, fs, ledger)

    ledger.seal()

    meta = {
        "algorithm": "distributed-quickmatch",
        "rho": params.rho,
        "kernel": params.kernel.value,
        "m": m,
        "seed": seed,
        "seeding": seeding,
        "contested_sigma": contested_sigma,
    }
    with timed(timings, "finalize_s"):
        clustering = finalize(agents, fs, params, meta, workers)

    ledger.validate_protocol(len(fs), m)

    contested_ids = tuple(sorted(fid for agent in agents for fid in agent.contested_ids(fs)))
    stats = []
    for agent in agents:
        compute = agent.timings.get("local_cluster_s", 0.0) + agent.timings.get("finalize_s", 0.0)
        qp = agent.timings.get("boundary_s", 0.0)
        stats.append(
            {
                "agent": agent.id,
                "features_routed": int(len(agent.rows0)),
                "features_final": int(len(agent.final_rows())),
                "compute_time_s": compute + qp,
                "qp_time_s": qp,
                "post_qp_compute_time_s": compute,
                "contested_features": len(agent.contested),
                "local_clusters": agent.local_cluster_count,
                "contested_clusters": agent.contested_cluster_count,
                "clusters_found": agent.final_cluster_count,
            }
        )
    return DistributedRun(clustering, ledger, part, tuple(agents), contested_ids, tuple(stats), timings)
