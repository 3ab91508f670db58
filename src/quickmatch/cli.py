"""Command-line front end: synthetic data generation, centralized and
distributed matching, evaluation, and comparison sweeps.

Every flag default can be overridden by an environment variable prefixed
``QM_`` (e.g. ``QM_RHO=1.3``); explicit flags win, and a malformed ``QM_*``
value or a ``QM_*`` name no flag reads exits 1. Exit codes: 0 on success, 1
on invalid input or an unwritable output, 2 on an internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .centralized import MatchParams, quickmatch
from .core import (
    Clustering,
    FeatureSet,
    InputError,
    ProtocolError,
    _canonical_object,
    _find_rows,
    _id_array,
    _id_json,
    canonical_cluster_bytes,
    load_clustering,
    load_features,
    read_input,
    save_clustering,
    save_features,
    seeded_rng,
    sha256_hex,
    timed,
)
from .distributed import DistributedRun, distributed_quickmatch
from .kernels import Kernel
from .metrics import compare_clusterings, split_quality
from .partition import Partition
from .synthetic import SynthConfig, generate_synthetic

__all__ = ["main", "build_parser"]

_KERNELS = [k.value for k in Kernel]


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as an input error (exit 1, not 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


_ENV_READ: set[str] = set()  # every QM_* name a flag default is read from


def _env(name: str, default: Any) -> Any:
    """A flag default from ``QM_<name>``. A string default goes through the
    flag's ``type`` at parse time, so a malformed value is a usage error."""
    _ENV_READ.add(f"QM_{name}")
    return os.environ.get(f"QM_{name}", default)


def _check_env() -> None:
    """Refuse a ``QM_*`` variable that no flag reads, such as one left from a removed flag."""
    unread = sorted(name for name in os.environ if name.startswith("QM_") and name not in _ENV_READ)
    if unread:
        raise InputError(f"{unread[0]} sets no flag's default")


def _add_match_args(parser: argparse.ArgumentParser, kernel: Kernel) -> None:
    parser.add_argument("input")
    parser.add_argument("--rho", type=float, default=_env("RHO", 1.1))
    parser.add_argument("--kernel", choices=_KERNELS, default=_env("KERNEL", kernel.value))


def _add_distributed_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=_env("SEED", 0))
    parser.add_argument("--seeding", choices=["kmeans", "random"], default=_env("SEEDING", "kmeans"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quickmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic feature file plus ground truth")
    gen.add_argument("--clusters", type=int, default=_env("CLUSTERS", 25))
    gen.add_argument("--per-cluster", type=int, default=_env("PER_CLUSTER", 10))
    gen.add_argument("--dim", type=int, default=_env("DIM", 2))
    gen.add_argument("--spread", type=float, default=_env("SPREAD", 0.25))
    gen.add_argument("--extent", type=float, default=_env("EXTENT", 10.0))
    gen.add_argument("--seed", type=int, default=_env("SEED", 0))
    gen.add_argument("--out", default=_env("OUT", "features.txt"))

    match = sub.add_parser("match", help="run centralized matching on a feature file")
    _add_match_args(match, Kernel.GAUSSIAN)
    match.add_argument("--out", default=_env("OUT", "clusters.json"))

    dmatch = sub.add_parser("dmatch", help="run distributed matching on a feature file")
    _add_match_args(dmatch, Kernel.QUADRATIC)
    dmatch.add_argument("--agents", "-m", type=int, default=_env("AGENTS", 4))
    _add_distributed_args(dmatch)
    dmatch.add_argument("--out", default=_env("OUT", "clusters.json"))

    ev = sub.add_parser("eval", help="compare clusterings or measure partition splits")
    ev.add_argument("pred", help="clustering JSON to evaluate")
    ev.add_argument("--mode", choices=["compare", "split"], required=True)
    ev.add_argument("--truth", help="reference clustering JSON (mode=compare)")
    ev.add_argument("--partition", help="partition JSON (mode=split)")
    ev.add_argument("--contested-from", help="dmatch report JSON supplying the detected contested set")
    ev.add_argument("--out", default=_env("OUT", None))

    comp = sub.add_parser("compare", help="sweep agent counts and emit a Table-style CSV")
    _add_match_args(comp, Kernel.QUADRATIC)
    comp.add_argument("--agents", default=_env("AGENTS", "1,2,4,8"), help="comma separated agent counts")
    _add_distributed_args(comp)
    comp.add_argument("--out", default=_env("OUT", "sweep.csv"))
    return parser


def _params(args: argparse.Namespace) -> MatchParams:
    # The library accepts rho = inf; a run report cannot hold it as JSON.
    if not math.isfinite(args.rho):
        raise InputError(f"--rho must be finite, got {args.rho}")
    return MatchParams(rho=args.rho, kernel=args.kernel)


# The files each command writes beside ``--out``, as named by _derived.
_DERIVED = {"generate": ("truth",), "match": ("report",), "dmatch": ("report", "ledger", "partition")}


def _derived(out: Path, what: str) -> Path:
    """The file beside ``--out`` that holds ``what``: ``<out>.<what>.json``,
    but ``<stem>.truth.json`` beside a ``.txt`` out, and for ``what`` =
    ``m<k>``, the plot data of k agents, ``<stem>.m<k>.points.csv``."""
    if what.startswith("m"):
        return out.with_suffix(f".{what}.points.csv")
    if what == "truth" and out.suffix == ".txt":
        return out.with_suffix(".truth.json")
    return out.with_suffix(f"{out.suffix}.{what}.json")


def _check_out(args: argparse.Namespace, *inputs: str | None, agents: Sequence[int] = ()) -> None:
    """Refuse, before any work, an ``--out`` whose directory does not exist,
    or that, or a file the command derives from it, is a directory or names
    one of the command's input files. ``agents`` lists the plot files'
    agent counts."""
    if args.out is None:
        return
    out = Path(args.out)
    if not out.parent.is_dir():
        raise InputError(f"--out {args.out}: directory {out.parent} does not exist")
    if out.is_dir():  # first, as a directory such as "." has no name to derive from
        raise InputError(f"--out {args.out} is a directory")
    derived = [*_DERIVED.get(args.command, ()), *(f"m{m}" for m in agents)]
    for path in [out, *(_derived(out, what) for what in derived)]:
        label = f"--out {args.out}" if path is out else f"--out {args.out}: {path}"
        if path.is_dir():
            raise InputError(f"{label} is a directory")
        for name in inputs:
            if name is not None and Path(name).resolve() == path.resolve():
                raise InputError(f"{label} would overwrite the input file {name}")


def _write_outputs(
    args: argparse.Namespace, fs: FeatureSet, clustering: Clustering, fields: dict, raw: dict[str, str] | None = None
) -> tuple[Path, Path]:
    """Save the clustering to ``--out`` and its run report to
    ``<out>.report.json``: the command, its resolved flags, counts, digests
    and ``fields``, every time in ``timings_s``, and the fields of ``raw``,
    which are canonical JSON text already. Returns both paths."""
    out, raw = Path(args.out), raw or {}
    clusters_digest = sha256_hex(save_clustering(clustering, out, fs))
    config = {key: value for key, value in vars(args).items() if key != "command"}
    report = {
        "command": args.command,
        "config": {**config, "out": str(out)},
        "feature_count": len(fs),
        "image_count": fs.image_count,
        "dim": fs.dim,
        "clusters_found": len(clustering),
        "clusters_digest": clusters_digest,
        **fields,
    }
    # Times and paths say how and where a run happened, not what it computed.
    hashed = {**report, "config": {k: v for k, v in config.items() if k not in ("input", "out")}}
    del hashed["timings_s"]
    report["determinism_hash"] = sha256_hex(_canonical_object(hashed, raw).encode())
    report_path = _derived(out, "report")
    report_path.write_text(_canonical_object(report, raw) + "\n")
    return out, report_path


def _cmd_generate(args: argparse.Namespace) -> int:
    _check_out(args)
    cfg = SynthConfig(args.clusters, args.per_cluster, args.dim, args.spread, args.seed, args.extent)
    fs, truth = generate_synthetic(cfg)
    out = Path(args.out)
    save_features(fs, out)
    truth_path = _derived(out, "truth")
    save_clustering(truth, truth_path, fs)
    print(f"wrote {len(fs)} features ({fs.image_count} images, dim {fs.dim}) to {out}")
    print(f"wrote {len(truth)} ground-truth clusters to {truth_path}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    _check_out(args, args.input)
    fs = load_features(args.input)
    params = _params(args)
    timings: dict[str, float] = {}
    with timed(timings, "match_s"):
        clustering = quickmatch(fs, params)
    out, report_path = _write_outputs(args, fs, clustering, {"timings_s": timings})
    print(f"matched {len(fs)} features into {len(clustering)} clusters -> {out}")
    print(f"report -> {report_path}")
    return 0


def _cmd_dmatch(args: argparse.Namespace) -> int:
    _check_out(args, args.input)
    fs = load_features(args.input)
    params = _params(args)
    run = distributed_quickmatch(fs, args.agents, params, seed=args.seed, seeding=args.seeding)
    ledger_text = run.ledger.to_json()
    fields = {
        "per_agent": list(run.per_agent_stats),
        "ledger": {**run.ledger.counts(), "digest": sha256_hex(ledger_text.encode())},
        "timings_s": {**run.timings, "per_agent": [agent.timings for agent in run.agents]},
    }
    if args.agents == 1:
        reference = quickmatch(fs, params)
        fields["m1_equivalent_to_centralized"] = (
            canonical_cluster_bytes(reference) == canonical_cluster_bytes(run.clustering)
        )
    out, report_path = _write_outputs(args, fs, run.clustering, fields, {"contested_ids": _id_json(run.contested_ids)})
    ledger_path = _derived(out, "ledger")
    ledger_path.write_text(ledger_text + "\n")
    partition_path = _derived(out, "partition")
    run.partition.save(partition_path)
    print(
        f"distributed matched {len(fs)} features into {len(run.clustering)} clusters "
        f"({args.agents} agents, {fields['ledger']['cluster']} cluster transfers) -> {out}"
    )
    print(f"report -> {report_path}; ledger -> {ledger_path}; partition -> {partition_path}")
    return 0


def _load_contested(path: str) -> np.ndarray:
    def convert(payload: Any) -> np.ndarray:
        ids = payload.get("contested_ids") if isinstance(payload, dict) else payload
        if ids is None:
            raise InputError("no contested_ids field")
        return _id_array(ids)

    return read_input(path, convert)


def _cmd_eval(args: argparse.Namespace) -> int:
    _check_out(args, args.pred, args.truth, args.partition, args.contested_from)
    pred = load_clustering(args.pred)
    if args.mode == "compare":
        if not args.truth:
            raise InputError("--mode compare requires --truth")
        result = compare_clusterings(pred, load_clustering(args.truth))
    else:
        if not args.partition:
            raise InputError("--mode split requires --partition")
        part = Partition.load(args.partition)
        contested = _load_contested(args.contested_from) if args.contested_from else None
        if contested is not None:
            foreign = _find_rows(pred.id_array, contested) < 0
            if foreign.any():
                fid = tuple(contested[np.argmax(foreign)].tolist())
                raise InputError(f"{args.contested_from}: contested feature {fid} is not in {args.pred}")
        result = split_quality(pred, part, contested)
    text = json.dumps(vars(result), indent=2, sort_keys=True)  # vars, not asdict: the member lists are not copied
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"report -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        m_list = [int(tok) for tok in str(args.agents).replace(" ", "").split(",") if tok]
    except ValueError:
        raise InputError(f"bad agent list {args.agents!r}") from None
    if not m_list or any(m < 1 for m in m_list):
        raise InputError(f"agent counts must be positive, got {args.agents!r}")
    if len(set(m_list)) < len(m_list):
        raise InputError(f"agent counts must not repeat, got {args.agents!r}")
    _check_out(args, args.input, agents=m_list)
    fs = load_features(args.input)
    seeded_rng(args.seed)  # a negative seed fails here, before the centralized reference runs
    params = _params(args)
    reference = quickmatch(fs, params)

    out = Path(args.out)
    rows = []
    for m in m_list:
        run = distributed_quickmatch(fs, m, params, seed=args.seed, seeding=args.seeding)
        report = split_quality(reference, run.partition, run.contested_ids)
        comparison = compare_clusterings(run.clustering, reference)
        mean = lambda *steps: sum(agent.timings[s] for agent in run.agents for s in steps) / m  # noqa: E731
        rows.append(
            {
                "Number of Agents": m,
                "Compute Time Per Agent (s)": round(mean("local_cluster_s", "boundary_s", "finalize_s"), 6),
                "QP Time Per Agent (s)": round(mean("boundary_s"), 6) if m > 1 else "NA",
                "Post-QP Compute Time Per Agent (s)": round(mean("local_cluster_s", "finalize_s"), 6),
                "Percent Contested Clusters": round(100.0 * report.p_contested, 4),
                "Number of Clusters Found": len(run.clustering),
                "% Contested Features Found": (
                    round(100.0 * report.contested_recall, 4) if report.contested_recall is not None else "NA"
                ),
                "Pairwise F1 vs Centralized": round(comparison.pairwise_f1, 6),
            }
        )
        _write_plot_data(out, m, fs, run)

    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep over agents {m_list} -> {out}")
    return 0


def _write_plot_data(out: Path, m: int, fs: FeatureSet, run: DistributedRun) -> None:
    """Scatter-plot data: coordinates with final cluster and agent labels."""
    path = _derived(out, f"m{m}")
    cluster = run.clustering.cluster_of[_find_rows(run.clustering.id_array, fs.id_array)]
    x0 = fs.vectors[:, 0].tolist()
    x1 = fs.vectors[:, 1].tolist() if fs.dim > 1 else [0.0] * len(fs)
    # The run's partition lists the features in the rows of ``fs``.
    agent = run.partition.assignment.tolist()
    rows = zip(*fs.id_array.T.tolist(), map(repr, x0), map(repr, x1), cluster.tolist(), agent)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", "feature", "x0", "x1", "cluster", "agent"])
        writer.writerows(rows)


_COMMANDS = {
    "generate": _cmd_generate,
    "match": _cmd_match,
    "dmatch": _cmd_dmatch,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_env()
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
