"""Traced replay of a job through the public functions of each module.

The replay runs the same steps as the CLI job, one public call per step,
each inside a span named after the layer that owns it. Spans are taken in
this file only; the program itself is not instrumented.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from quickmatch.centralized import (
    MatchParams,
    break_and_merge,
    build_tree,
    compute_density,
    compute_distinctiveness,
)
from quickmatch.core import canonical_cluster_bytes, load_features, save_clustering, sha256_hex
from quickmatch.distributed import (
    NetworkLedger,
    compute_boundary,
    detect_contested,
    exchange_boundary_scalars,
    finalize,
    init_agents,
    local_cluster,
    transfer_round,
)
from quickmatch.kernels import Kernel
from quickmatch.metrics import compare_clusterings, split_quality
from quickmatch.partition import kmeans_seeds

from spans import SpanRecorder
from workloads import (
    Consistency,
    Dataset,
    Workload,
    check_clustering,
    check_ledger,
    eval_argv,
    outputs,
    run_cli,
    wire_stats,
)

LAYER_UNITS = {
    "core.load_features_s": "s",
    "core.parse_mb_per_s": "MB/s",
    "core.save_outputs_s": "s",
    "distributed.ledger_json_s": "s",
    "cli.other_s": "s",
    "centralized.sigma_s": "s",
    "centralized.density_s": "s",
    "centralized.tree_s": "s",
    "centralized.merge_s": "s",
    "centralized.tree_roots": "count",
    "centralized.merge_accept_ratio": "ratio",
    "partition.kmeans_s": "s",
    "distributed.route_s": "s",
    "distributed.local_cluster_s": "s",
    "distributed.local_cluster_agent_max_s": "s",
    "distributed.barrier_wait_s": "s",
    "distributed.boundary_s": "s",
    "distributed.detect_s": "s",
    "distributed.transfer_s": "s",
    "distributed.finalize_s": "s",
    "distributed.contested_share": "ratio",
    "distributed.transferred_share": "ratio",
    "distributed.busiest_agent_share": "ratio",
    "distributed.contested_precision": "ratio",
    "distributed.contested_recall": "ratio",
    "metrics.compare_s": "s",
    "trace_overhead_share": "ratio",
    "f1_central_min": "ratio",
    "wire_msgs_per_feature": "msg/feature",
    "wire_bytes_per_feature": "B/feature",
}

# Per-agent phases whose spans feed the barrier wait: every agent finishes
# the phase before any starts the next.
BARRIER_PHASES = ("distributed.local_cluster", "distributed.boundary", "distributed.detect")


@dataclass
class ReplayResult:
    wall_s: float
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)


def _central(w: Workload, data: Dataset, out: Path, rec: SpanRecorder) -> tuple:
    params = MatchParams(kernel=Kernel(w.kernel))
    with rec.span("core.load_features"):
        fs = load_features(data.features)
    with rec.span("centralized.sigma"):
        dist = compute_distinctiveness(fs)
    with rec.span("centralized.density"):
        density = compute_density(fs, dist, params.kernel)
    with rec.span("centralized.tree"):
        tree = build_tree(fs, density)
    with rec.span("centralized.merge"):
        clustering = break_and_merge(fs, tree, dist, params)
    with rec.span("core.save_outputs"):
        save_clustering(clustering, out, fs)
    counts = {"roots": len(tree.roots), "clusters": len(clustering)}
    return clustering, counts, None


def _distributed(w: Workload, data: Dataset, out: Path, rec: SpanRecorder) -> tuple:
    params = MatchParams(kernel=Kernel(w.kernel))
    paths = outputs(out)
    with rec.span("core.load_features"):
        fs = load_features(data.features)
    with rec.span("partition.kmeans"):
        part = kmeans_seeds(fs, w.agents)
    ledger = NetworkLedger()
    with rec.span("distributed.route"):
        agents = init_agents(fs, part, ledger)
    for agent in agents:
        with rec.span("distributed.local_cluster", agent.id):
            local_cluster(agent, fs, params)
    roots = sum(int((agent.parent < 0).sum()) for agent in agents if agent.parent is not None)
    local_clusters = sum(len(set(agent.labels.tolist())) for agent in agents)
    for agent in agents:
        with rec.span("distributed.boundary", agent.id):
            compute_boundary(agent, fs, part)
    with rec.span("distributed.exchange"):
        scalars = exchange_boundary_scalars(agents, fs, part, ledger)
    contested = []
    for agent in agents:
        with rec.span("distributed.detect", agent.id):
            flagged = detect_contested(agent, scalars[agent.id])
        contested += [fs.ids[agent.rows0[i]] for i in flagged]
    with rec.span("distributed.transfer"):
        transfer_round(agents, fs, ledger)
    ledger.seal()
    with rec.span("distributed.finalize"):
        clustering = finalize(agents, fs, params)
    with rec.span("distributed.validate"):
        ledger.validate_protocol(len(fs), w.agents)
    with rec.span("distributed.ledger_json"):
        text = ledger.to_json()
        digest = ledger.digest()
    with rec.span("core.save_outputs"):
        save_clustering(clustering, out, fs)
        paths["ledger"].write_text(text + "\n")
        part.save(paths["partition"])
    counts = {
        "roots": roots,
        "clusters": local_clusters,
        "contested": len(contested),
        "busiest": max(len(agent.final_rows()) for agent in agents),
    }
    return clustering, counts, (text, digest, part, contested)


def replay_job(
    w: Workload,
    data: Dataset,
    out: Path,
    rec: SpanRecorder,
    gate: Consistency,
    cli_report: dict,
    reference=None,
) -> ReplayResult:
    """One traced job. ``cli_report`` is the report of an untraced job on the
    same dataset, whose digests the replay must reproduce."""
    run = _distributed if w.distributed else _central
    try:
        with rec.span("job") as job:
            clustering, counts, dist = run(w, data, out, rec)
            with rec.span("metrics.compare"):
                code = run_cli(eval_argv(data, out))
    except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
        return ReplayResult(0.0, [f"replay raised {type(exc).__name__}: {exc}"])
    result = ReplayResult(job["end"] - job["start"], counts=counts)
    if code != 0:
        result.problems.append(f"replay eval exit code {code}")
        return result
    result.problems += check_clustering(clustering, data.fs)
    digest = sha256_hex(canonical_cluster_bytes(clustering))
    result.problems += gate.check("clusters digest", digest)
    if reference is not None:
        result.counts["f1_central"] = compare_clusterings(clustering, reference).pairwise_f1
    if dist is not None:
        text, ledger_digest, part, contested = dist
        payload = json.loads(text)
        expected = cli_report.get("ledger", {}).get("digest", "")
        result.problems += check_ledger(payload, ledger_digest, expected, data.n, w.agents)
        result.problems += gate.check("ledger digest", ledger_digest)
        wire = wire_stats(payload, data.fs.dim)
        result.counts.update(messages=wire["messages"], bytes=wire["bytes"], carried=wire["carried"])
        if reference is not None:
            split = split_quality(reference, part, contested)
            # With no cluster split by the partition, every detection is waste
            # and there is nothing to miss.
            recall = 1.0 if split.contested_recall is None else split.contested_recall
            useful = recall * split.split_feature_count
            result.counts["precision"] = useful / len(contested) if contested else 1.0
            result.counts["recall"] = recall
    return result


def layer_metrics(rec: SpanRecorder, traced: list[tuple[int, ReplayResult, Dataset, float]]) -> dict[str, float]:
    """Per-layer metrics: the median over traced jobs of each per-job figure.

    ``traced`` holds (job id, result, dataset, wall time of the untraced CLI
    job it replays) per traced job. Layers a workload does not reach read 0,
    as do all figures when no traced job passed its checks.
    """
    if not traced:
        return dict.fromkeys(LAYER_UNITS, 0.0)
    per_job: list[dict[str, float]] = []
    for job, result, data, cli_s in traced:
        t: dict[str, float] = defaultdict(float)
        by_agent: dict[str, list[float]] = defaultdict(list)
        for span, self_s in rec.self_times(job):
            t[span["name"]] += self_s
            if span["agent"] is not None:
                by_agent[span["name"]].append(self_s)
        barrier = 0.0
        for phase in BARRIER_PHASES:
            if by_agent[phase]:
                barrier += sum(max(by_agent[phase]) - s for s in by_agent[phase])
        c, n = result.counts, data.n
        load_s = t["core.load_features"]
        per_job.append(
            {
                "core.load_features_s": load_s,
                "core.parse_mb_per_s": data.megabytes / load_s,
                "core.save_outputs_s": t["core.save_outputs"],
                "distributed.ledger_json_s": t["distributed.ledger_json"],
                "centralized.sigma_s": t["centralized.sigma"],
                "centralized.density_s": t["centralized.density"],
                "centralized.tree_s": t["centralized.tree"],
                "centralized.merge_s": t["centralized.merge"],
                "centralized.tree_roots": c["roots"],
                "centralized.merge_accept_ratio": (n - c["clusters"]) / (n - c["roots"]),
                "partition.kmeans_s": t["partition.kmeans"],
                "distributed.route_s": t["distributed.route"],
                "distributed.local_cluster_s": t["distributed.local_cluster"],
                "distributed.local_cluster_agent_max_s": max(by_agent["distributed.local_cluster"], default=0.0),
                "distributed.barrier_wait_s": barrier,
                "distributed.boundary_s": t["distributed.boundary"] + t["distributed.exchange"],
                "distributed.detect_s": t["distributed.detect"],
                "distributed.transfer_s": t["distributed.transfer"],
                "distributed.finalize_s": t["distributed.finalize"],
                "distributed.contested_share": c.get("contested", 0) / n,
                "distributed.transferred_share": c.get("carried", 0) / n,
                "distributed.busiest_agent_share": c.get("busiest", 0) / n,
                "distributed.contested_precision": c.get("precision", 0.0),
                "distributed.contested_recall": c.get("recall", 0.0),
                "metrics.compare_s": t["metrics.compare"],
                "cli.other_s": cli_s - (result.wall_s - t["job"]),
                "trace_overhead_share": result.wall_s / cli_s - 1.0,
                "f1_central_min": c.get("f1_central", 0.0),
                "wire_msgs_per_feature": c.get("messages", 0) / n,
                "wire_bytes_per_feature": c.get("bytes", 0) / n,
            }
        )
    metrics = {key: statistics.median(row[key] for row in per_job) for key in per_job[0]}
    metrics["f1_central_min"] = min(row["f1_central_min"] for row in per_job)
    return metrics
