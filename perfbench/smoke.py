"""Smoke test of the benchmark itself, at about 250 features per workload.

    python3 perfbench/smoke.py

Runs every workload untraced and traced and checks that each metric named
in BENCHMARK.json is emitted with its unit. Then it injects one fault per
correctness check into the program's outputs (or, for the ledger protocol,
into the replay) and checks that the run fails and names that check.
Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import run  # pins the thread pools before numpy is imported

sys.path.insert(0, str(run.SRC))

import replay  # noqa: E402
import workloads as wl  # noqa: E402
from quickmatch import cli  # noqa: E402
from quickmatch.core import canonical_cluster_bytes, load_clustering, sha256_hex  # noqa: E402
from quickmatch.distributed import exchange_boundary_scalars  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, entities=w.warmup_entities) for name, w in wl.WORKLOADS.items()}
SECONDS = "0.5"


def bench(workload: str, trace: int) -> tuple[int, dict, list[str]]:
    """Run the benchmark in this process; returns exit code, result, FAILED lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)], TINY)
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), [line for line in lines if line.startswith("FAILED:")]


@contextlib.contextmanager
def patched(obj, name: str, value):
    original = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield original
    finally:
        setattr(obj, name, original)


def measured(argv) -> bool:
    """Whether a CLI call belongs to a measured job (set-up is left alone)."""
    return Path(argv[argv.index("--out") + 1]).parent.name == "job"


def in_jobs(fault):
    """A ``cli.main`` that calls ``fault`` in place of a measured matching command."""
    real = cli.main
    return lambda argv: fault(argv) if argv[0] in ("match", "dmatch") and measured(argv) else real(argv)


def after_cli(edit):
    """A ``cli.main`` that runs the real command, then lets ``edit`` change what
    a measured matching command wrote."""
    real = cli.main
    calls = []

    def main(argv):
        code = real(argv)
        if argv[0] in ("match", "dmatch") and measured(argv):
            calls.append(argv)
            edit(wl.outputs(Path(argv[argv.index("--out") + 1])), len(calls))
        return code

    return main


def rewrite_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload) + "\n")


def split_first_pair(paths, call) -> None:
    """Split a two-feature cluster: still C1/C2-valid, but a different
    clustering. The report digest is updated to match."""

    def change(payload):
        members = next(c for c in payload["clusters"] if len(c) >= 2)
        payload["clusters"].append([members.pop()])

    rewrite_json(paths["clusters"], change)
    digest = sha256_hex(canonical_cluster_bytes(load_clustering(paths["clusters"])))
    rewrite_json(paths["report"], lambda r: r.update(clusters_digest=digest))


def break_c2(paths, call) -> None:
    """Move a feature into another cluster that already holds its image."""

    def change(payload):
        clusters = payload["clusters"]
        moved = clusters[0].pop()
        target = next(c for c in clusters[1:] if any(member[0] == moved[0] for member in c))
        target.append(moved)

    rewrite_json(paths["clusters"], change)


def tamper_report_digest(paths, call) -> None:
    rewrite_json(paths["report"], lambda r: r.update(clusters_digest="0" * 64))


def split_from_second(paths, call) -> None:
    if call >= 2:
        split_first_pair(paths, call)


def tamper_ledger_digest(paths, call) -> None:
    rewrite_json(paths["report"], lambda r: r["ledger"].update(digest="0" * 64))


def rewrite_ledger(change):
    """Change the ledger file and make the report's digest agree with it."""

    def edit(paths, call):
        payload = json.loads(paths["ledger"].read_text())
        change(payload)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        paths["ledger"].write_text(text + "\n")
        rewrite_json(paths["report"], lambda r: r["ledger"].update(digest=sha256_hex(text.encode())))

    return edit


def drop_route_and_scalar(payload) -> None:
    for kind in ("route", "scalar"):
        payload["messages"].remove(next(m for m in payload["messages"] if m["kind"] == kind))


def eval_out_of_range():
    """A ``cli.main`` whose eval reports an F1 above 1."""
    real = cli.main

    def main(argv):
        code = real(argv)
        if argv[0] == "eval" and measured(argv):
            rewrite_json(Path(argv[argv.index("--out") + 1]), lambda e: e.update(pairwise_f1=1.5))
        return code

    return main


def expect_failure(label: str, workload: str, trace: int, needles: tuple[str, ...], fault) -> None:
    with fault:
        code, summary, failed = bench(workload, trace)
    assert code != 0 and not summary["correct"] and summary["failed"] >= 1, f"{label}: run did not fail"
    for needle in needles:
        assert any(needle in line for line in failed), f"{label}: no FAILED line mentions {needle!r}: {failed}"
    print(f"ok  fault {label} -> {', '.join(needles)}")


def check_metrics() -> None:
    for workload in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, summary, failed = bench(workload, trace)
            assert code == 0 and summary["correct"] and not failed, f"{workload} trace {trace}: {failed}"
            assert set(summary) == {"correct", "attempted", "failed", "metrics"}
            assert summary["attempted"] >= 1 and summary["failed"] == 0
            declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            emitted = {name: entry["unit"] for name, entry in summary["metrics"].items()}
            assert emitted == declared, f"{workload} trace {trace}: {set(emitted) ^ set(declared)}"
            for name, entry in summary["metrics"].items():
                assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
            print(f"ok  {workload} trace {trace}: {len(emitted)} metrics, {summary['attempted']} jobs")


def check_wire_bytes() -> None:
    payload = {
        "messages": [
            {"kind": "route", "ids": [[0, 0]]},
            {"kind": "scalar", "value": 0.5},
            {"kind": "cluster", "ids": [[0, 1], [1, 1]]},
        ]
    }
    stats = wl.wire_stats(payload, dim=2)
    assert stats == {"messages": 3, "bytes": 8 * (4 + 1 + 8), "carried": 2}, stats
    print("ok  wire bytes are computed as 8 bytes per component, id integer and scalar")


def unlogged_exchange(agents, fs, part, ledger):
    """The boundary exchange with its scalar messages left out of the ledger."""
    return exchange_boundary_scalars(agents, fs, part, None)


def check_faults() -> None:
    def cli_fault(main):
        return patched(cli, "main", main)

    expect_failure("exit code", "central-2d", 0, ("exit codes",), cli_fault(in_jobs(lambda argv: 1)))
    expect_failure("raise", "central-2d", 0, ("job raised",), cli_fault(in_jobs(lambda argv: 1 / 0)))
    expect_failure("C2", "central-2d", 0, ("clustering invalid",), cli_fault(after_cli(break_c2)))
    expect_failure("report", "sift-128", 0, ("report clusters_digest",), cli_fault(after_cli(tamper_report_digest)))
    expect_failure("repeat", "central-2d", 0, ("differs from first",), cli_fault(after_cli(split_from_second)))
    expect_failure("eval", "central-2d", 0, ("outside [0, 1]",), cli_fault(eval_out_of_range()))
    expect_failure("ledger digest", "dist-2d-m4", 0, ("!= report",), cli_fault(after_cli(tamper_ledger_digest)))
    expect_failure(
        "ledger counts",
        "dist-2d-m4",
        0,
        ("route messages, expected", "scalar messages, expected"),
        cli_fault(after_cli(rewrite_ledger(drop_route_and_scalar))),
    )
    expect_failure("replay digest", "central-2d", 1, ("differs from first",), cli_fault(after_cli(split_first_pair)))
    relabel = after_cli(rewrite_ledger(lambda p: p.update(note="edited")))
    expect_failure("replay ledger", "dist-2d-m4", 1, ("!= report",), cli_fault(relabel))
    unlogged = patched(replay, "exchange_boundary_scalars", unlogged_exchange)
    expect_failure("replay protocol", "dist-2d-m4", 1, ("ProtocolError",), unlogged)


def main() -> int:
    run.OUT = run.OUT / "smoke"
    check_wire_bytes()
    check_metrics()
    check_faults()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
