"""Distributed matching on a simulated, deterministically scheduled network.

Agents are isolated state machines; everything that would cross the wire is
logged in a :class:`NetworkLedger`. The pipeline follows five phases:

1. route every feature to the agent owning its Voronoi region,
2. per-agent clustering with the finite quadratic kernel,
3. exchange of one boundary scalar per ordered agent pair,
4. contested-feature detection and the decreasing-index cluster transfer
   protocol,
5. a final local re-clustering with no further communication.

Agents run one at a time, in agent-index order, in every phase; each phase
finishes for all agents before the next begins. Inside one agent's
clustering, a Gaussian density order may spread its distance tiles over a
thread pool (see :func:`quickmatch.centralized.density_order`); the result
does not depend on the number of threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .centralized import MatchParams, RowClusters, cluster_rows
from .core import (
    Clustering,
    FeatureSet,
    InputError,
    ProtocolError,
    ValidationError,
    _unique_order,
    canonical_json,
    sha256_hex,
    timed,
    validate_clustering,
)
from .kernels import Kernel
from .partition import Partition, bisector_distances, kmeans_seeds, random_seeds

__all__ = [
    "AgentState",
    "NetworkLedger",
    "DistributedRun",
    "init_agents",
    "compute_boundary",
    "local_cluster",
    "exchange_boundary_scalars",
    "detect_contested",
    "transfer_round",
    "finalize",
    "distributed_quickmatch",
]

INGEST = -1  # pseudo-sender for the initial routing round


class NetworkLedger:
    """Append-only message log with protocol checks.

    Each message is kept as the JSON record :meth:`to_json` writes:
    ``round``, ``kind``, ``from`` and ``to``, plus ``ids`` (``[image, index]``
    lists) when it carries features and ``value`` when it carries a scalar.

    kind "route": one feature delivered to its owning agent (round 0).
    kind "scalar": a boundary scalar d_aa' (round 1), ``"inf"`` when infinite.
    kind "cluster": a whole cluster, listed by its members' ids (round 2);
    cluster transfers only ever move to a strictly lower agent index.

    Sealed before the finalize phase: any attempt to log afterwards is a
    protocol bug and raises.
    """

    def __init__(self) -> None:
        self._messages: list[dict] = []
        self._sealed = False

    def log(
        self, round: int, kind: str, src: int, dst: int, ids: list[list[int]] | None = None, value: float | None = None
    ) -> None:
        if self._sealed:
            raise ProtocolError("message logged after the ledger was sealed")
        if kind == "cluster" and dst >= src:
            raise ProtocolError(f"cluster transfer {src}->{dst} does not decrease")
        record: dict = {"round": round, "kind": kind, "from": src, "to": dst}
        if ids:
            record["ids"] = ids
        if value is not None:
            record["value"] = value if math.isfinite(value) else "inf"
        self._messages.append(record)

    def seal(self) -> None:
        self._sealed = True

    def _tally(self) -> tuple[Counter[str], Counter[str]]:
        """One pass over the log: :meth:`counts`, and the messages per ``"from->to"`` pair."""
        counts = Counter({"route": 0, "scalar": 0, "cluster": 0, "cross_agent": 0})
        pairs: Counter[str] = Counter()
        for (kind, src, dst), n in Counter(map(itemgetter("kind", "from", "to"), self._messages)).items():
            counts[kind] += n
            pairs[f"{src}->{dst}"] += n
            if src >= 0 and src != dst:
                counts["cross_agent"] += n
        return counts, pairs

    def count(self, kind: str) -> int:
        return self._tally()[0][kind]

    def counts(self) -> dict[str, int]:
        """Messages per kind, and ``cross_agent``: those that actually left an
        agent (ingest routing excluded)."""
        return self._tally()[0]

    def transfer_chains(self) -> list[tuple[list[list[int]], list[int]]]:
        """Per cluster message, in log order: its members' ``[image, index]``
        lists, as logged, and its one hop ``[from, to]``."""
        return [(msg["ids"], [msg["from"], msg["to"]]) for msg in self._messages if msg["kind"] == "cluster"]

    def validate_protocol(self, feature_count: int, m: int) -> None:
        """Assert the communication bounds: routing = one message per feature,
        scalars = m(m-1), and no feature carried by two cluster messages, so
        each cluster makes one hop (:meth:`log` refuses one that does not
        decrease)."""
        counts = self.counts()
        if counts["route"] != feature_count:
            raise ProtocolError(f"routed {counts['route']} features, expected {feature_count}")
        if counts["scalar"] != m * (m - 1):
            raise ProtocolError(f"{counts['scalar']} scalars, expected {m * (m - 1)}")
        carried = [fid for msg in self._messages if msg["kind"] == "cluster" for fid in msg["ids"]]
        try:
            _unique_order(np.array(carried, dtype=np.int64).reshape(-1, 2), "feature {} is carried by two cluster messages")
        except ValidationError as exc:
            raise ProtocolError(str(exc)) from None

    def to_json(self) -> str:
        counts, pairs = self._tally()
        return canonical_json({"messages": self._messages, "counts": {**counts, "pairs": pairs}})

    def digest(self) -> str:
        return sha256_hex(self.to_json().encode())


@dataclass
class AgentState:
    """One agent's local state as the protocol advances.

    ``rows0`` are the routed feature rows (ascending global row order);
    ``kept`` masks out clusters sent away; ``adopted`` collects received
    clusters that settled here. Arrays from the local pipeline are aligned
    with ``rows0``. ``trigger`` holds the lowest agent each feature is
    contested with, or m where there is none. ``timings`` holds its seconds per step.
    """

    id: int
    rows0: np.ndarray
    kept: np.ndarray
    adopted: list[np.ndarray] = field(default_factory=list)

    parent: np.ndarray | None = None
    sigma_a: float = math.nan
    labels: np.ndarray | None = None
    boundary: np.ndarray | None = None
    trigger: np.ndarray | None = None
    timings: dict[str, float] = field(default_factory=dict)
    final_cluster_count: int = 0

    def final_rows(self) -> np.ndarray:
        parts = [self.rows0[self.kept]] + list(self.adopted)
        out = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        return np.sort(out.astype(np.intp))


def init_agents(fs: FeatureSet, part: Partition, ledger: NetworkLedger | None = None) -> list[AgentState]:
    """Deliver every feature to the agent owning its region, one route message
    per feature, and stand up one AgentState per region, rows ascending."""
    if not np.array_equal(part.ids, fs.id_array):
        raise InputError("partition was built over a different feature set")
    if ledger is not None:
        for fid, agent in zip(fs.id_array.tolist(), part.assignment.tolist()):
            ledger.log(0, "route", INGEST, agent, [fid])
    rows = [np.flatnonzero(part.assignment == a).astype(np.intp) for a in range(part.m)]
    return [AgentState(a, r, np.ones(len(r), dtype=bool)) for a, r in enumerate(rows)]


def _cluster_agent_rows(rows: np.ndarray, fs: FeatureSet, params: MatchParams) -> RowClusters:
    """:func:`cluster_rows` over an agent's rows, with the sigma_a merge fallback."""
    return cluster_rows(fs.vectors[rows], fs.image_slots[rows], fs.image_count, params, fallback_sigma_a=True)


def local_cluster(agent: AgentState, fs: FeatureSet, params: MatchParams) -> AgentState:
    """Run the matching pipeline, :func:`cluster_rows`, on the agent's own
    features only.

    Distinctiveness, density, tree, and merge are all computed from the local
    subset. For the merge threshold, images with fewer than two local
    features fall back to the agent bandwidth sigma_a (the maximum local
    parent-edge length).
    """
    with timed(agent.timings, "local_cluster_s"):
        result = _cluster_agent_rows(agent.rows0, fs, params)
        agent.parent, agent.labels, agent.sigma_a = result.parent, result.labels, result.sigma_a
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
                ledger.log(1, "scalar", sender, receiver, value=value)
    return scalars


def detect_contested(agent: AgentState, scalars_row: np.ndarray) -> np.ndarray:
    """Worst-case contested test for every local feature; sets
    ``agent.trigger`` and returns the contested local indices, ascending.

    Feature x (in agent a) is contested with a' when its distance to the a/a'
    bisector plus the closest a'-feature's distance to that bisector is less
    than sigma_a, the agent's longest parent edge: the sum lower-bounds the
    distance to the nearest feature of a', so anything closer than that might
    belong to x's cluster. Every member of a cluster split by the boundary is
    caught. Only the lowest such a' is kept, as the feature's trigger; m
    where there is none.
    """
    if agent.boundary is None:
        raise ProtocolError(f"agent {agent.id} has no boundary distances yet")
    m = len(scalars_row)
    hit = agent.boundary + scalars_row < agent.sigma_a
    agent.trigger = np.where(hit.any(axis=1), hit.argmax(axis=1), m)
    return np.flatnonzero(agent.trigger < m)


def transfer_round(agents: Sequence[AgentState], fs: FeatureSet, ledger: NetworkLedger) -> Sequence[AgentState]:
    """Move contested clusters toward lower agent indices, one hop each.

    Every local cluster containing a contested feature goes whole to the
    lowest agent index any member is contested with, if that index is lower
    than the owner's, and settles there. No second hop is ever needed: a
    feature the owner keeps is either uncontested or contested only with
    indices above the owner's, since otherwise its cluster would have been
    sent. Agents send in index order, so each agent's ``adopted`` lists its
    arrivals by sender index, then by smallest member id.
    """
    for agent in agents:
        if agent.labels is None or len(agent.rows0) == 0:
            continue
        # Each member's cluster head, its smallest row (labels index local rows).
        head = np.full(len(agent.rows0), len(fs))
        np.minimum.at(head, agent.labels, agent.rows0)
        key = head[agent.labels]
        order = np.argsort(key, kind="stable")  # stable: members stay in ascending local order
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        dest = np.minimum.reduceat(agent.trigger[order], starts)
        ends = np.append(starts[1:], len(order))
        for k in np.flatnonzero(dest < agent.id).tolist():
            members, to = order[starts[k]:ends[k]], int(dest[k])
            rows = agent.rows0[members]
            ledger.log(2, "cluster", agent.id, to, fs.id_array[rows].tolist())
            agents[to].adopted.append(rows)
            agent.kept[members] = False
    return agents


def finalize(agents: Sequence[AgentState], fs: FeatureSet, params: MatchParams, meta: dict | None = None) -> Clustering:
    """Re-cluster every agent's final feature set with :func:`cluster_rows`
    (the same sigma_a merge fallback as :func:`local_cluster`) and assemble
    the global result. Requires no communication; the caller seals the
    ledger first."""
    rows, labels = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    offset = 0
    for agent in agents:
        with timed(agent.timings, "finalize_s"):
            agent_rows = agent.final_rows()
            agent_labels = _cluster_agent_rows(agent_rows, fs, params).labels
            agent.final_cluster_count = len(np.unique(agent_labels))
        rows.append(agent_rows)
        # Labels index an agent's rows; offset them so no two agents share one.
        labels.append(agent_labels + offset)
        offset += len(agent_rows)
    rows, labels = np.concatenate(rows), np.concatenate(labels)
    # Construction catches a feature two agents own; C1 against fs, one lost in transfer.
    try:
        clustering = Clustering.from_labels(fs.id_array[rows], labels, meta or {"algorithm": "distributed-quickmatch"})
        validate_clustering(clustering, fs)
    except ValidationError as exc:
        raise ProtocolError(f"final clustering violates C1/C2: {exc}") from exc
    return clustering


@dataclass(frozen=True)
class DistributedRun:
    """Everything a distributed run produced, for reporting and audit."""

    clustering: Clustering
    ledger: NetworkLedger
    partition: Partition
    agents: tuple[AgentState, ...]
    contested_ids: np.ndarray  # (k, 2) int64, sorted by id
    per_agent_stats: tuple[dict, ...]  # counts; each agent's times are its AgentState.timings
    timings: dict[str, float]  # per phase, over all agents


def distributed_quickmatch(
    fs: FeatureSet,
    m: int,
    params: MatchParams | None = None,
    seed: int = 0,
    seeding: str = "kmeans",
) -> DistributedRun:
    """Full distributed pipeline; deterministic for (input, m, params, seed)."""
    if params is None:
        params = MatchParams(kernel=Kernel.QUADRATIC)
    if m < 1:
        raise InputError(f"agent count must be >= 1, got {m}")
    if len(fs) == 0:
        raise InputError("empty feature set")
    if seeding not in ("kmeans", "random"):
        raise InputError(f"unknown seeding {seeding!r}")

    timings: dict[str, float] = {}
    with timed(timings, "partition_s"):
        part = kmeans_seeds(fs, m, seed) if seeding == "kmeans" else random_seeds(fs, m, seed)

    ledger = NetworkLedger()
    with timed(timings, "route_s"):
        agents = init_agents(fs, part, ledger)

    with timed(timings, "local_cluster_s"):
        for agent in agents:
            local_cluster(agent, fs, params)

    with timed(timings, "boundary_s"):
        for agent in agents:
            compute_boundary(agent, fs, part)
        scalars = exchange_boundary_scalars(agents, fs, part, ledger)

    with timed(timings, "detect_s"):
        for agent in agents:
            detect_contested(agent, scalars[agent.id])

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
    }
    with timed(timings, "finalize_s"):
        clustering = finalize(agents, fs, params, meta)

    ledger.validate_protocol(len(fs), m)

    contested_rows, stats = [], []
    for agent in agents:
        contested = agent.trigger < m
        contested_rows.append(agent.rows0[contested])
        stats.append(
            {
                "agent": agent.id,
                "features_routed": int(len(agent.rows0)),
                "features_final": int(len(agent.final_rows())),
                "contested_features": int(np.count_nonzero(contested)),
                "local_clusters": len(np.unique(agent.labels)),
                "contested_clusters": len(np.unique(agent.labels[contested])),
                "clusters_found": agent.final_cluster_count,
            }
        )
    contested_ids = fs.id_array[np.sort(np.concatenate(contested_rows))]
    return DistributedRun(clustering, ledger, part, tuple(agents), contested_ids, tuple(stats), timings)
