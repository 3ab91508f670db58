"""Distributed matching on a simulated, deterministically scheduled network.

Agents are isolated state machines; everything that would cross the wire is
logged in a :class:`NetworkLedger`. The pipeline follows five phases:

1. route every feature to the agent owning its Voronoi region,
2. per-agent clustering with the run's kernel (quadratic by default),
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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .centralized import MatchParams, cluster_rows
from .core import (
    Clustering,
    FeatureSet,
    InputError,
    ProtocolError,
    ValidationError,
    _id_array,
    _id_templates,
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
ROUNDS = {"route": 0, "scalar": 1, "cluster": 2}  # message kind -> the protocol round that sends it

# Each kind's record as a %-template, by round, keys in canonical order: from,
# ids, kind, round, to, value. The ids' template goes between head and tail; a
# scalar has none, and its value is written in after its head.
_RECORD_HEADS = np.array(
    ['{"from":%d,"ids":', '{"from":%d,"kind":"scalar","round":1,"to":%d,"value":', '{"from":%d,"ids":'], dtype=object
)
_RECORD_TAILS = np.array([',"kind":"route","round":0,"to":%d}', "", ',"kind":"cluster","round":2,"to":%d}'], dtype=object)


class NetworkLedger:
    """Append-only message log with protocol checks, stored by column.

    Every message has a kind, a sender (``from``) and a receiver (``to``);
    its kind fixes the rest of the JSON record :meth:`to_json` writes for it,
    and :meth:`log` refuses a message its kind's record cannot hold:

    kind "route": one feature delivered to its owning agent (round 0), sent
    from :data:`INGEST`, with ``ids`` (``[image, index]`` lists) and no value.
    kind "scalar": a boundary scalar d_aa' (round 1) from one agent to
    another, with ``value`` (``"inf"`` when infinite) and no ids.
    kind "cluster": a whole cluster, listed by its members' ids (round 2),
    with no value; cluster transfers only ever move to a strictly lower agent
    index. A cluster message's ``from`` and ``to`` are the only record of its
    hop. :data:`ROUNDS` is this kind -> round table.

    The columns are the kind (as its round), ``from``, ``to`` and ``value``
    (NaN where a kind carries none), one per message, and one ``(k, 2)``
    int64 array of every message's ids in turn, with each message's count of
    ids rows, from which a read takes the offsets of its rows. Each
    :meth:`log` or :meth:`log_block` call appends a block of these columns,
    and the first read joins the blocks into one.

    Sealed before the finalize phase: any attempt to log afterwards is a
    protocol bug and raises.
    """

    def __init__(self) -> None:
        # kind, from, to, ids, ids rows per message, value
        self._blocks: list[tuple[np.ndarray, ...]] = [
            (np.empty(0, np.int8), np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 2), np.int64),
             np.empty(0, np.int64), np.empty(0))
        ]
        self._sealed = False

    def log(
        self, kind: str, src: int, dst: int, ids: Sequence | np.ndarray | None = None, value: float | None = None
    ) -> None:
        if self._sealed:
            raise ProtocolError("message logged after the ledger was sealed")
        if kind not in ROUNDS:
            raise ProtocolError(f"unknown message kind {kind!r}")
        name, listed = f"{kind} message {src}->{dst}", ids is not None and len(ids) > 0
        if kind != "scalar":
            if value is not None:
                raise ProtocolError(f"{name} carries a value")
            try:
                rows = _id_array(ids if listed else [])
            except ValidationError as exc:
                raise ProtocolError(f"{name}: {exc}") from None
            self.log_block(kind, [src], [dst], rows, [len(rows)])
            return
        if value is None:
            raise ProtocolError(f"{name} carries no value")
        if listed:
            raise ProtocolError(f"{name} lists features")
        if src == dst:
            raise ProtocolError(f"{name} is sent to its own sender")
        self._append(ROUNDS[kind], [src], [dst], np.empty((0, 2), dtype=np.int64), [0], [value])

    def log_block(self, kind: str, src, dst, ids: np.ndarray, sizes) -> None:
        """Route or cluster messages as one block, each one :meth:`log` would
        take: message ``c`` goes from ``src[c]`` to ``dst[c]`` and lists the
        next ``sizes[c]`` rows of ``ids``."""
        if self._sealed:
            raise ProtocolError("message logged after the ledger was sealed")
        if kind not in ("route", "cluster"):
            raise ProtocolError(f"{kind} messages list no features")
        src, dst, sizes = (np.array(column, dtype=np.int64) for column in (src, dst, sizes))
        bad = np.flatnonzero((sizes < 1) | ((src != INGEST) if kind == "route" else (dst >= src)))
        if len(bad):
            name = f"{kind} message {src[bad[0]]}->{dst[bad[0]]}"
            if sizes[bad[0]] < 1:
                raise ProtocolError(f"{name} lists no features")
            if kind == "route":
                raise ProtocolError(f"{name} is not sent from ingest ({INGEST})")
            raise ProtocolError(f"cluster transfer {src[bad[0]]}->{dst[bad[0]]} does not decrease")
        try:
            rows = _id_array(ids)
        except ValidationError as exc:
            raise ProtocolError(f"{kind} messages: {exc}") from None
        if len(rows) != sizes.sum():
            raise ProtocolError(f"{kind} messages list {sizes.sum()} features, given {len(rows)}")
        self._append(ROUNDS[kind], src, dst, rows, sizes, np.full(len(src), math.nan))

    def _append(self, kind: int, src, dst, ids: np.ndarray, sizes, value) -> None:
        """One block of columns: a value per message for each but ``ids``."""
        src, dst, sizes = (np.array(column, dtype=np.int64) for column in (src, dst, sizes))
        self._blocks.append((np.full(len(src), kind, np.int8), src, dst, ids, sizes, np.array(value, dtype=np.float64)))

    def _columns(self) -> tuple[np.ndarray, ...]:
        """kind, from, to, ids, offsets (each message's first ids row, then
        the row count) and value."""
        if len(self._blocks) > 1:
            self._blocks = [tuple(map(np.concatenate, zip(*self._blocks)))]
        kind, src, dst, ids, sizes, value = self._blocks[0]
        return kind, src, dst, ids, np.concatenate([[0], np.cumsum(sizes)]), value

    def seal(self) -> None:
        self._sealed = True

    def counts(self) -> dict[str, int]:
        """Messages per kind, and ``cross_agent``: those that actually left an
        agent (ingest routing excluded)."""
        kind, src, dst, *_ = self._columns()
        tally = np.bincount(kind, minlength=len(ROUNDS)).tolist()
        cross = int(np.count_nonzero((src >= 0) & (src != dst)))
        return {**{name: tally[code] for name, code in ROUNDS.items()}, "cross_agent": cross}

    def _pairs(self) -> dict[str, int]:
        """Messages per ``"from->to"`` pair."""
        _, src, dst, *_ = self._columns()
        senders, src = np.unique(src, return_inverse=True)
        receivers, dst = np.unique(dst, return_inverse=True)
        pairs, tally = np.unique(src * len(receivers) + dst, return_counts=True)
        src, dst = np.divmod(pairs, len(receivers))
        return {f"{a}->{b}": n for a, b, n in zip(senders[src].tolist(), receivers[dst].tolist(), tally.tolist())}

    def validate_protocol(self, feature_count: int, m: int) -> None:
        """Assert the communication bounds: routing = one message per feature,
        scalars = m(m-1), no feature routed twice, and no feature carried by
        two cluster messages, so each cluster makes one hop (:meth:`log`
        refuses one that does not decrease)."""
        kind, _, _, ids, offsets, _ = self._columns()
        routes, scalars, _ = np.bincount(kind, minlength=len(ROUNDS))
        if routes != feature_count:
            raise ProtocolError(f"routed {routes} features, expected {feature_count}")
        if scalars != m * (m - 1):
            raise ProtocolError(f"{scalars} scalars, expected {m * (m - 1)}")
        row_kind = np.repeat(kind, np.diff(offsets))
        twice = {"route": "feature {} is routed twice", "cluster": "feature {} is carried by two cluster messages"}
        for name, message in twice.items():
            try:
                _unique_order(ids[row_kind == ROUNDS[name]], message)
            except ValidationError as exc:
                raise ProtocolError(str(exc)) from None

    def to_json(self) -> str:
        """The ledger file: ``counts`` (:meth:`counts` and the per-pair
        ``pairs``) and the ``messages`` records in logging order, keys sorted."""
        kind, src, dst, ids, offsets, value = self._columns()
        records = _RECORD_HEADS[kind] + _id_templates(np.diff(offsets), 2) + _RECORD_TAILS[kind]
        scalar = np.flatnonzero(kind == ROUNDS["scalar"])
        records[scalar] = [
            _RECORD_HEADS[ROUNDS["scalar"]] + (repr(v) if math.isfinite(v) else '"inf"') + "}"
            for v in value[scalar].tolist()
        ]
        # Each record's template takes its from, its ids, then its to.
        bounds = 2 * np.column_stack([offsets[:-1], offsets[1:]]).ravel()
        ints = np.insert(ids.ravel(), bounds, np.column_stack([src, dst]).ravel())
        messages = ",".join(records) % tuple(ints.tolist())
        counts = canonical_json({**self.counts(), "pairs": self._pairs()})
        return f'{{"counts":{counts},"messages":[{messages}]}}'

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
        parts = [self.rows0[self.kept], *self.adopted]
        return np.sort(np.concatenate(parts).astype(np.intp))


def init_agents(fs: FeatureSet, part: Partition, ledger: NetworkLedger) -> list[AgentState]:
    """Deliver every feature to the agent owning its region, one route message
    per feature, and stand up one AgentState per region, rows ascending."""
    if ledger is None:
        raise ProtocolError("routing needs a ledger to log its messages")
    if not np.array_equal(part.ids, fs.id_array):
        raise InputError("partition was built over a different feature set")
    n = len(fs)
    ledger.log_block("route", np.full(n, INGEST), part.assignment, fs.id_array, np.ones(n))
    rows = [np.flatnonzero(part.assignment == a).astype(np.intp) for a in range(part.m)]
    return [AgentState(a, r, np.ones(len(r), dtype=bool)) for a, r in enumerate(rows)]


def local_cluster(agent: AgentState, fs: FeatureSet, params: MatchParams) -> AgentState:
    """Run the matching pipeline, :func:`cluster_rows`, on the agent's own
    features only.

    Distinctiveness, density, tree, and merge are all computed from the local
    subset. Unless the agent holds every feature, an image with fewer than
    two local features merges by the agent bandwidth sigma_a (the maximum
    local parent-edge length).
    """
    with timed(agent.timings, "local_cluster_s"):
        result = cluster_rows(fs, params, agent.rows0)
        agent.parent, agent.labels, agent.sigma_a = result.parent, result.labels, result.sigma_a
    return agent


def compute_boundary(agent: AgentState, fs: FeatureSet, part: Partition) -> AgentState:
    with timed(agent.timings, "boundary_s"):
        agent.boundary = bisector_distances(fs.vectors[agent.rows0], part.seeds, agent.id)
    return agent


def exchange_boundary_scalars(
    agents: Sequence[AgentState], fs: FeatureSet, part: Partition, ledger: NetworkLedger
) -> np.ndarray:
    """All-pairs boundary scalars: entry [a, a'] is the minimum distance from
    any feature of a' to the a/a' bisector (+inf if a' holds no features).
    Exactly m(m-1) scalar messages are logged."""
    if ledger is None:
        raise ProtocolError("the boundary exchange needs a ledger to log its messages")
    m = part.m
    scalars = np.full((m, m), np.inf)
    for sender in range(m):
        src = agents[sender]
        if src.boundary is None:
            raise ProtocolError(f"agent {sender} has no boundary distances yet")
        for receiver in range(m):
            if receiver == sender:
                continue
            value = float(src.boundary[:, receiver].min(initial=math.inf))
            scalars[receiver, sender] = value
            ledger.log("scalar", sender, receiver, value=value)
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
    if math.isnan(agent.sigma_a):
        raise ProtocolError(f"agent {agent.id} has no local clusters yet")
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
    if ledger is None:
        raise ProtocolError("the cluster transfer needs a ledger to log its messages")
    for agent in agents:
        if agent.labels is None:
            raise ProtocolError(f"agent {agent.id} has no local clusters yet")
        # Each member's cluster head, its smallest row: labels name each cluster
        # by its smallest local row, and rows0 is ascending.
        key = agent.rows0[agent.labels]
        order = np.argsort(key, kind="stable")  # stable: members stay in ascending local order
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        dest = np.minimum.reduceat(agent.trigger[order], starts)
        sizes = np.diff(np.append(starts, len(order)))
        sent = dest < agent.id
        members = order[np.repeat(sent, sizes)]  # the sent clusters' members, cluster after cluster
        rows = agent.rows0[members]
        dest, sizes = dest[sent], sizes[sent]
        ledger.log_block("cluster", np.full(len(dest), agent.id), dest, fs.id_array[rows], sizes)
        for to, cluster in zip(dest.tolist(), np.split(rows, np.cumsum(sizes)[:-1])):
            agents[to].adopted.append(cluster)
        agent.kept[members] = False
    return agents


def finalize(agents: Sequence[AgentState], fs: FeatureSet, params: MatchParams, meta: dict | None = None) -> Clustering:
    """Re-cluster every agent's final feature set with :func:`cluster_rows`
    (the same merge fallback as :func:`local_cluster`) and assemble
    the global result. Requires no communication; the caller seals the
    ledger first."""
    rows, labels = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    offset = 0
    for agent in agents:
        with timed(agent.timings, "finalize_s"):
            agent_rows = agent.final_rows()
            agent_labels = cluster_rows(fs, params, agent_rows).labels
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
