"""Workload table, dataset set-up, the untraced CLI job and its correctness gate.

A job is what a user runs on a descriptor file: the matching command, then
``eval --mode compare --truth`` on its output, both through
``quickmatch.cli.main`` in this process. The checks that follow each job run
outside its timed part.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from quickmatch import cli
from quickmatch.core import (
    FeatureSet,
    ValidationError,
    canonical_cluster_bytes,
    load_clustering,
    load_features,
    sha256_hex,
    validate_clustering,
)

SPREAD = 0.25
BYTES_PER_VALUE = 8  # charged per vector component, id integer and scalar


@dataclass(frozen=True)
class Workload:
    """One dataset family and the command a job runs on it.

    ``spacing`` is the distance between neighbouring entity centres, so the
    generator's extent is ``spacing * (ceil(sqrt(entities)) - 1)``.
    """

    name: str
    command: str  # "match" or "dmatch"
    entities: int
    images: int
    dim: int
    spacing: float
    flags: tuple[str, ...]  # extra CLI flags of the matching command
    kernel: str  # the kernel those flags select, for the replay and the reference
    agents: int = 1
    datasets: int = 1  # drawn per run from the seed; jobs cycle through them
    warmup_entities: int = 25

    @property
    def distributed(self) -> bool:
        return self.command == "dmatch"

    def extent(self, entities: int) -> float:
        return self.spacing * (math.ceil(math.sqrt(entities)) - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("central-2d", "match", 1000, 10, 2, 2.5, ("--kernel", "quadratic"), "quadratic"),
        Workload("sift-128", "match", 200, 20, 128, 20.0, (), "gaussian", warmup_entities=13),
        Workload("dist-2d-m4", "dmatch", 1000, 10, 2, 2.5, ("--agents", "4"), "quadratic", agents=4, datasets=8),
    )
}


def data_seed(workload: str, seed: int, index: int) -> int:
    """Generator seed of dataset ``index``, from the benchmark seed and the workload name."""
    return zlib.crc32(f"{workload}/{seed}/{index}".encode())


def run_cli(argv: list[str]) -> int:
    """``quickmatch.cli.main`` with its progress lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Dataset:
    features: Path
    truth: Path
    fs: FeatureSet
    megabytes: float

    @property
    def n(self) -> int:
        return len(self.fs)


def generate(w: Workload, entities: int, seed: int, directory: Path) -> Dataset:
    """Write a descriptor file and its ground truth with ``quickmatch generate``."""
    directory.mkdir(parents=True, exist_ok=True)
    features = directory / "features.txt"
    argv = [
        "generate",
        "--clusters", str(entities),
        "--per-cluster", str(w.images),
        "--dim", str(w.dim),
        "--spread", repr(SPREAD),
        "--extent", repr(w.extent(entities)),
        "--seed", str(seed),
        "--out", str(features),
    ]
    if run_cli(argv) != 0:
        raise RuntimeError(f"quickmatch generate failed for {w.name}")
    fs = load_features(features)
    return Dataset(features, directory / "features.truth.json", fs, features.stat().st_size / 1e6)


def outputs(out: Path) -> dict[str, Path]:
    """The files a matching command writes next to ``--out``."""
    return {
        "clusters": out,
        "report": out.with_suffix(out.suffix + ".report.json"),
        "ledger": out.with_suffix(out.suffix + ".ledger.json"),
        "partition": out.with_suffix(out.suffix + ".partition.json"),
        "eval": out.with_suffix(out.suffix + ".eval.json"),
    }


def match_argv(w: Workload, data: Dataset, out: Path) -> list[str]:
    return [w.command, str(data.features), *w.flags, "--out", str(out)]


def eval_argv(data: Dataset, out: Path) -> list[str]:
    return ["eval", str(out), "--mode", "compare", "--truth", str(data.truth), "--out", str(outputs(out)["eval"])]


# -- checks ------------------------------------------------------------------


def check_clustering(clustering, fs: FeatureSet) -> list[str]:
    """C1 (cover, disjoint) and C2 (one feature per image) against the input."""
    try:
        validate_clustering(clustering, fs)
    except ValidationError as exc:
        return [f"clustering invalid: {exc}"]
    return []


def check_ledger(payload: dict, digest: str, expected_digest: str, n: int, m: int) -> list[str]:
    """Ledger digest against the report, and the routing and scalar bounds."""
    problems = []
    if digest != expected_digest:
        problems.append(f"ledger digest {digest[:12]} != report {expected_digest[:12]}")
    kinds = [msg["kind"] for msg in payload["messages"]]
    if kinds.count("route") != n:
        problems.append(f"{kinds.count('route')} route messages, expected {n}")
    if kinds.count("scalar") != m * (m - 1):
        problems.append(f"{kinds.count('scalar')} scalar messages, expected {m * (m - 1)}")
    return problems


def wire_stats(payload: dict, dim: int) -> dict[str, int]:
    """Messages, computed payload bytes and features carried in cluster messages.

    Bytes are computed from the ledger, not measured on a wire: every id
    costs two integers, every route or cluster id also its vector, and every
    scalar one value, each at ``BYTES_PER_VALUE`` bytes.
    """
    total = carried = 0
    for msg in payload["messages"]:
        ids = len(msg.get("ids", ()))
        total += 2 * ids
        if msg["kind"] in ("route", "cluster"):
            total += dim * ids
        if "value" in msg:
            total += 1
        if msg["kind"] == "cluster":
            carried += ids
    return {"messages": len(payload["messages"]), "bytes": BYTES_PER_VALUE * total, "carried": carried}


class Consistency:
    """Values that must repeat exactly: the first one seen is the expectation."""

    def __init__(self) -> None:
        self.expected: dict[str, str] = {}

    def check(self, key: str, value: str) -> list[str]:
        first = self.expected.setdefault(key, value)
        return [] if value == first else [f"{key} {value[:12]} differs from first {first[:12]}"]


# -- the untraced job ----------------------------------------------------------


@dataclass
class JobResult:
    wall_s: float
    problems: list[str] = field(default_factory=list)
    f1_truth: float = math.nan
    wire: dict[str, int] = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def cli_job(w: Workload, data: Dataset, out: Path, gate: Consistency) -> JobResult:
    """Run one timed CLI job, then check everything it wrote."""
    paths = outputs(out)
    t0 = time.perf_counter()
    try:
        codes = [run_cli(match_argv(w, data, out))]
        if codes[0] == 0:
            codes.append(run_cli(eval_argv(data, out)))
    except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
        return JobResult(time.perf_counter() - t0, [f"job raised {type(exc).__name__}: {exc}"])
    result = JobResult(time.perf_counter() - t0)
    if any(codes):
        result.problems.append(f"exit codes {codes}")
        return result
    try:
        clustering = load_clustering(paths["clusters"])
        result.problems += check_clustering(clustering, data.fs)
        digest = sha256_hex(canonical_cluster_bytes(clustering))
        result.report = json.loads(paths["report"].read_text())
        if result.report.get("clusters_digest") != digest:
            result.problems.append("report clusters_digest does not match the clusters file")
        result.problems += gate.check("clusters digest", digest)
        result.f1_truth = float(json.loads(paths["eval"].read_text())["pairwise_f1"])
        if not 0.0 <= result.f1_truth <= 1.0:
            result.problems.append(f"eval pairwise_f1 {result.f1_truth} outside [0, 1]")
        if w.distributed:
            text = paths["ledger"].read_text().rstrip("\n")
            payload = json.loads(text)
            ledger_digest = sha256_hex(text.encode())
            result.problems += check_ledger(payload, ledger_digest, result.report["ledger"]["digest"], data.n, w.agents)
            result.problems += gate.check("ledger digest", ledger_digest)
            result.wire = wire_stats(payload, data.fs.dim)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        result.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result
