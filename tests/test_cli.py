import csv
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quickmatch import cli
from quickmatch.cli import main
from quickmatch.core import Clustering, FeatureSet, load_clustering, load_features, save_features
from quickmatch.partition import Partition

import oracles

pytestmark = pytest.mark.usefixtures("in_tmp_dir")


@pytest.fixture
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _generate(extra=()):
    assert main(["generate", "--out", "features.txt", *extra]) == 0
    return Path("features.txt"), Path("features.truth.json")


def _csv_rows(path, reader=csv.DictReader):
    with open(path, newline="") as f:
        return list(reader(f))


def test_generate_defaults():
    feat, truth = _generate()
    fs = load_features(feat)
    assert len(fs) == 250
    assert fs.image_count == 10
    assert len(load_clustering(truth)) == 25


def test_generate_deterministic():
    _generate(["--seed", "3"])
    first = Path("features.txt").read_bytes()
    first_truth = Path("features.truth.json").read_bytes()
    _generate(["--seed", "3"])
    assert Path("features.txt").read_bytes() == first
    assert Path("features.truth.json").read_bytes() == first_truth


def test_generate_rejects_bad_spread(capsys):
    assert main(["generate", "--spread", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_match_synthetic_defaults():
    feat, truth = _generate()
    assert main(["match", str(feat), "--out", "clusters.json"]) == 0
    clustering = load_clustering("clusters.json")
    assert len(clustering) == 25
    report = json.loads(Path("clusters.json.report.json").read_text())
    assert report["clusters_found"] == 25
    assert report["config"]["rho"] == 1.1
    assert "determinism_hash" in report


def test_match_rho_zero_singletons():
    feat, _ = _generate()
    assert main(["match", str(feat), "--rho", "0", "--out", "c.json"]) == 0
    assert len(load_clustering("c.json")) == 250


def test_match_missing_input(capsys):
    assert main(["match", "missing.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_dmatch_m1_marks_equivalence():
    feat, _ = _generate()
    assert main(["dmatch", str(feat), "--agents", "1", "--out", "d.json"]) == 0
    report = json.loads(Path("d.json.report.json").read_text())
    assert report["m1_equivalent_to_centralized"] is True
    assert report["ledger"]["cluster"] == 0


def test_dmatch_m4_matches_truth_and_valid_ledger():
    feat, truth = _generate()
    assert main(["dmatch", str(feat), "--agents", "4", "--out", "d.json"]) == 0
    report = json.loads(Path("d.json.report.json").read_text())
    assert report["clusters_found"] == 25
    assert report["ledger"]["route"] == 250
    assert report["ledger"]["scalar"] == 12
    assert len(report["per_agent"]) == 4
    for entry in report["ledger"]["transfer_chains"]:
        chain = entry["chain"]
        assert all(b < a for a, b in zip(chain, chain[1:]))
    ledger = json.loads(Path("d.json.ledger.json").read_text())
    assert ledger["counts"]["route"] == 250

    assert main(["eval", "d.json", "--mode", "compare", "--truth", str(truth)]) == 0


DMATCH_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "command", "config", "feature_count", "image_count", "dim",
        "clusters_found", "clusters_digest", "per_agent", "contested_features",
        "contested_ids", "percent_contested_clusters_detected",
        "percent_contested_features_found", "ledger", "timings_s",
        "determinism_hash",
    ],
    "properties": {
        "command": {"const": "dmatch"},
        "config": {
            "type": "object",
            "required": ["input", "agents", "rho", "kernel", "seed", "seeding",
                         "contested_sigma", "out"],
        },
        "clusters_found": {"type": "integer", "minimum": 0},
        "per_agent": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["agent", "features_routed", "features_final",
                             "compute_time_s", "qp_time_s", "post_qp_compute_time_s",
                             "contested_features", "local_clusters",
                             "contested_clusters", "clusters_found"],
            },
        },
        "ledger": {
            "type": "object",
            "required": ["route", "scalar", "cluster", "cross_agent", "digest",
                         "transfer_chains"],
        },
        "determinism_hash": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
    },
}


def test_dmatch_report_schema_valid():
    import jsonschema

    feat, _ = _generate()
    assert main(["dmatch", str(feat), "--agents", "4", "--out", "d.json"]) == 0
    report = json.loads(Path("d.json.report.json").read_text())
    jsonschema.validate(report, DMATCH_REPORT_SCHEMA)


@pytest.mark.parametrize("command", [["match"], ["dmatch", "--agents", "2"]], ids=lambda argv: argv[0])
def test_determinism_hash_ignores_input_and_out_paths(command, capsys):
    feat, _ = _generate(["--clusters", "4", "--per-cluster", "3"])
    hashes = []
    for folder, out in (("a", "clusters.json"), ("b", "other.json")):
        Path(folder).mkdir()
        Path(folder, "features.txt").write_bytes(feat.read_bytes())
        out = str(Path(folder, out))
        assert main([command[0], str(Path(folder, "features.txt")), *command[1:], "--out", out]) == 0
        report = json.loads(Path(out + ".report.json").read_text())
        assert report["config"]["input"] == str(Path(folder, "features.txt"))  # still written
        hashes.append(report["determinism_hash"])
    capsys.readouterr()
    assert hashes[0] == hashes[1]


def test_dmatch_rejects_bad_agents(capsys):
    feat, _ = _generate()
    assert main(["dmatch", str(feat), "--agents", "0"]) == 1
    capsys.readouterr()


def test_eval_compare_identical(capsys):
    feat, truth = _generate()
    main(["match", str(feat), "--out", "c.json"])
    capsys.readouterr()  # drain the match command's output
    assert main(["eval", "c.json", "--mode", "compare", "--truth", str(truth)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["exact_equal"] is True
    assert result["pairwise_f1"] == 1.0


def test_eval_split_mode_end_to_end(capsys):
    feat, _ = _generate()
    main(["match", str(feat), "--kernel", "quadratic", "--out", "c.json"])
    main(["dmatch", str(feat), "--agents", "2", "--out", "d.json"])
    capsys.readouterr()
    # score the centralized clusters against the dmatch partition, using the
    # contested set the distributed run detected
    assert (
        main(
            [
                "eval", "c.json", "--mode", "split",
                "--partition", "d.json.partition.json",
                "--contested-from", "d.json.report.json",
            ]
        )
        == 0
    )
    result = json.loads(capsys.readouterr().out)
    assert 0.0 <= result["p_contested"] <= 1.0
    assert all(0.0 < q <= 1.0 for q in result["q"])
    if result["split_feature_count"]:
        assert result["contested_recall"] == 1.0  # conservative default detector


def test_eval_requires_mode_companion(capsys):
    feat, truth = _generate()
    main(["match", str(feat), "--out", "c.json"])
    assert main(["eval", "c.json", "--mode", "compare"]) == 1
    assert main(["eval", "c.json", "--mode", "split"]) == 1
    capsys.readouterr()


def test_compare_m1_row_matches_match_report():
    feat, _ = _generate()
    assert main(["compare", str(feat), "--agents", "1", "--out", "sweep.csv"]) == 0
    rows = _csv_rows("sweep.csv")
    assert len(rows) == 1
    assert rows[0]["Number of Agents"] == "1"
    assert rows[0]["QP Time Per Agent (s)"] == "NA"

    main(["match", str(feat), "--kernel", "quadratic", "--out", "c.json"])
    report = json.loads(Path("c.json.report.json").read_text())
    assert int(rows[0]["Number of Clusters Found"]) == report["clusters_found"]
    assert float(rows[0]["Pairwise F1 vs Centralized"]) == 1.0


def test_compare_sweep_contested_found_100_on_clean_data():
    feat, _ = _generate()
    m_list = "2,3,4,5,6,7,8"
    assert main(["compare", str(feat), "--agents", m_list, "--out", "sweep.csv"]) == 0
    rows = _csv_rows("sweep.csv")
    assert len(rows) == 7
    for row in rows:
        if row["% Contested Features Found"] != "NA":
            assert float(row["% Contested Features Found"]) == 100.0
    # plot data emitted per m
    for m in (2, 8):
        points = _csv_rows(f"sweep.m{m}.points.csv", csv.reader)
        assert points[0] == ["image", "feature", "x0", "x1", "cluster", "agent"]
        assert len(points) == 251


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plot_data_has_the_bytes_of_the_per_feature_writer(dim):
    top = 2**63 - 1
    ids = [(top, top), (0, top), (top, 0), (3, 1), (0, 0)]
    awkward = [-0.0, 5e-324, 1e150, 1 / 3, -2.5e-10]  # 1e150: the largest magnitude accepted
    vectors = np.resize(np.array(awkward), (len(ids), dim))
    vectors[:, -1] = awkward[::-1]
    fs = FeatureSet(vectors, ids)
    # Clusters listed out of row order, so the cluster column needs a lookup.
    clustering = Clustering.from_labels(fs.id_array, np.array([2, 0, 2, 1, 0]))
    partition = Partition(np.array([[0.0] * dim, [1.0] * dim]), np.array([1, 0, 0, 1, 1]), fs.id_array)
    run = SimpleNamespace(clustering=clustering, partition=partition)
    cli._write_plot_data(Path("new.csv"), 2, fs, run)
    oracles.write_plot_data(Path("old.csv"), 2, fs, run)
    assert Path("new.m2.points.csv").read_bytes() == Path("old.m2.points.csv").read_bytes()


def test_compare_deterministic_across_reruns():
    feat, _ = _generate()
    main(["compare", str(feat), "--agents", "2,4", "--seed", "1", "--out", "a.csv"])
    main(["compare", str(feat), "--agents", "2,4", "--seed", "1", "--out", "b.csv"])

    def strip_times(path):
        rows = _csv_rows(path)
        return [
            {k: v for k, v in row.items() if "Time" not in k}
            for row in rows
        ]

    assert strip_times("a.csv") == strip_times("b.csv")


def test_env_var_override(monkeypatch):
    feat, _ = _generate()
    monkeypatch.setenv("QM_RHO", "0")
    assert main(["match", str(feat), "--out", "c.json"]) == 0
    assert len(load_clustering("c.json")) == 250  # rho=0 via environment
    monkeypatch.delenv("QM_RHO")


def test_bad_flag_exits_one(capsys):
    assert main(["match", "x.txt", "--kernel", "cubic"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["dmatch", "features.txt"], ["compare", "features.txt", "--agents", "1"]],
                         ids=lambda argv: argv[0])
def test_workers_flag_is_refused(argv, capsys):
    """Agents run one at a time in index order; there is no worker count to set."""
    _generate(["--clusters", "4", "--per-cluster", "3"])
    capsys.readouterr()
    assert main([*argv, "--workers", "2"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --workers 2\n"


# Per case: a command line and the environment it runs in, each with seed -1.
_NEGATIVE_SEED = {
    "generate": (["generate", "--seed", "-1", "--out", "g.txt"], {}),
    "dmatch-kmeans": (["dmatch", "features.txt", "--seed", "-1", "--seeding", "kmeans"], {}),
    "dmatch-random": (["dmatch", "features.txt", "--seed", "-1", "--seeding", "random"], {}),
    "compare": (["compare", "features.txt", "--agents", "1,2", "--seed", "-1"], {}),
    "QM_SEED-generate": (["generate", "--out", "g.txt"], {"QM_SEED": "-1"}),
    "QM_SEED-dmatch": (["dmatch", "features.txt"], {"QM_SEED": "-1"}),
}


@pytest.mark.parametrize("case", sorted(_NEGATIVE_SEED))
def test_negative_seed_exits_one(case, monkeypatch, capsys):
    _generate(["--clusters", "4", "--per-cluster", "3"])
    argv, env = _NEGATIVE_SEED[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)

    def no_matching(*args, **kwargs):
        raise AssertionError("a negative seed must be rejected before any matching")

    monkeypatch.setattr(cli, "quickmatch", no_matching)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


# Two images of two 2-D features at +-v: squared distances overflow beyond
# about 1e154, and every coordinate beyond 1e150 is refused.
def _huge_file(name, v, both_axes=False):
    y = (v, -v, -v, v) if both_axes else (0, 0, 1, 1)
    rows = zip((0, 0, 1, 1), (0, 1, 0, 1), (v, -v, v, -v), y)
    Path(name).write_text("".join(f"{i} {k} {x!r} {y!r}\n" for i, k, x, y in rows))


# Per case: the value, whether the y axis is huge too, and the command line.
# Each exited with a traceback before coordinates were bounded: the kd-tree's
# neighbour index n (IndexError), scipy's overflow check (ValueError), and
# rng.uniform over an infinite box (OverflowError).
_HUGE = {
    "1e200-match": (1e200, False, ["match"]),
    "5e153-match-quadratic": (5e153, True, ["match", "--kernel", "quadratic"]),
    "5e153-dmatch": (5e153, True, ["dmatch"]),
    "1e308-dmatch-random": (1e308, False, ["dmatch", "--seeding", "random"]),
}


@pytest.mark.parametrize("case", sorted(_HUGE))
def test_huge_coordinates_exit_one_naming_the_line(case, capsys):
    v, both_axes, argv = _HUGE[case]
    _huge_file("huge.txt", v, both_axes)
    assert main([argv[0], "huge.txt", *argv[1:], "--out", "c.json"]) == 1
    assert capsys.readouterr().err == "error: huge.txt:1: component beyond ±1e+150\n"


@pytest.mark.parametrize("argv", [["match"], ["match", "--kernel", "quadratic"], ["dmatch"],
                                  ["dmatch", "--seeding", "random"]], ids=" ".join)
def test_coordinates_at_the_bound_are_matched(argv):
    _huge_file("huge.txt", 1e150, both_axes=True)
    assert main([argv[0], "huge.txt", *argv[1:], "--out", "c.json"]) == 0
    vectors = np.full((4, 128), 1e150) * np.array([[1], [-1], [1], [-1]])
    vectors[:, 0] = [0.0, 0.0, 1.0, 1.0]
    save_features(FeatureSet(vectors, [(0, 0), (0, 1), (1, 0), (1, 1)]), "wide.txt")
    assert main([argv[0], "wide.txt", *argv[1:], "--out", "w.json"]) == 0


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


_BAD_INPUTS = {
    "partition-bad-json": ["eval", "d.json", "--mode", "split", "--partition", "bad.json"],
    "partition-missing": ["eval", "d.json", "--mode", "split", "--partition", "missing.json"],
    "contested-bad-json": [
        "eval", "d.json", "--mode", "split", "--partition", "d.json.partition.json",
        "--contested-from", "bad.json",
    ],
    "meta-not-object": ["eval", "meta.json", "--mode", "compare", "--truth", "d.json"],
    "match-directory": ["match", "adir"],
    "match-not-utf8": ["match", "latin1.txt"],
    "eval-not-utf8": ["eval", "latin1.txt", "--mode", "compare", "--truth", "d.json"],
    "match-out-missing-dir": ["match", "features.txt", "--out", "nodir/c.json"],
    "dmatch-out-missing-dir": ["dmatch", "features.txt", "--agents", "2", "--out", "nodir/d.json"],
    "generate-out-missing-dir": ["generate", "--out", "nodir/f.txt"],
    "compare-out-missing-dir": ["compare", "features.txt", "--agents", "1", "--out", "nodir/s.csv"],
    "compare-agents-not-int": ["compare", "features.txt", "--agents", "x,2"],
    "compare-agents-zero": ["compare", "features.txt", "--agents", "0"],
    "eval-out-missing-dir": ["eval", "d.json", "--mode", "compare", "--truth", "d.json", "--out", "nodir/e.json"],
    "match-rho-inf": ["match", "features.txt", "--rho", "inf"],
    "partition-agent-out-of-range": ["eval", "d.json", "--mode", "split", "--partition", "part-agent-range.json"],
    "partition-seeds-coincident": ["eval", "d.json", "--mode", "split", "--partition", "part-seeds.json"],
    "partition-feature-twice": ["eval", "d.json", "--mode", "split", "--partition", "dup.json"],
}

# An id that is not an int in [0, 2**63), written into each JSON input by
# _write_bad_ids: a clustering, a partition (feature id and agent index) and a
# contested set.
_BAD_IDS = {"fractional": 0.7, "negative": -1, "bool": True, "string": "0", "above-int64": 2**63}
for _kind in _BAD_IDS:
    _BAD_INPUTS.update({
        f"clustering-id-{_kind}": ["eval", f"clusters-{_kind}.json", "--mode", "compare", "--truth", "d.json"],
        f"partition-id-{_kind}": ["eval", "d.json", "--mode", "split", "--partition", f"part-id-{_kind}.json"],
        f"partition-agent-{_kind}": ["eval", "d.json", "--mode", "split", "--partition", f"part-agent-{_kind}.json"],
        f"contested-id-{_kind}": [
            "eval", "d.json", "--mode", "split", "--partition", "d.json.partition.json",
            "--contested-from", f"contested-{_kind}.json",
        ],
    })


def _write_bad_ids():
    """Copies of the dmatch outputs in ``d.json*`` with one id replaced."""
    def write(name, source, keys, value):
        payload = json.loads(Path(source).read_text())
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        Path(name).write_text(json.dumps(payload))

    for kind, bad in _BAD_IDS.items():
        write(f"clusters-{kind}.json", "d.json", ("clusters", 0, 0, 1), bad)
        write(f"part-id-{kind}.json", "d.json.partition.json", ("assignment", 0, 1), bad)
        write(f"part-agent-{kind}.json", "d.json.partition.json", ("assignment", 0, 2), bad)
        write(f"contested-{kind}.json", "d.json.report.json", ("contested_ids",), [[0, bad]])


def _write_bad_partitions():
    """Copies of the 2-agent ``d.json.partition.json`` whose ids are well
    formed but which the Partition constructor refuses: an agent index out of
    range, coincident seeds, and the first feature again on the other agent."""
    text = Path("d.json.partition.json").read_text()
    out_of_range, coincident, twice = (json.loads(text) for _ in range(3))
    out_of_range["assignment"][0][2] = 2
    coincident["seeds"][1] = coincident["seeds"][0]
    i, k, agent = twice["assignment"][0]
    twice["assignment"].append([i, k, 1 - agent])
    for name, payload in (("part-agent-range.json", out_of_range), ("part-seeds.json", coincident),
                          ("dup.json", twice)):
        Path(name).write_text(json.dumps(payload))


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_file_exits_one(case, capsys):
    feat, _ = _generate(["--clusters", "4", "--per-cluster", "3"])
    assert main(["dmatch", str(feat), "--agents", "2", "--out", "d.json"]) == 0
    Path("bad.json").write_text("{not json")
    Path("meta.json").write_text('{"clusters": [], "meta": [1, 2]}')
    Path("latin1.txt").write_bytes(b"0 0 1.0 \xe9\n")
    Path("adir").mkdir()
    _write_bad_ids()
    _write_bad_partitions()
    capsys.readouterr()
    assert main(_BAD_INPUTS[case]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if case.startswith("partition-"):
        assert f"error: {_BAD_INPUTS[case][-1]}: " in err


def test_eval_rejects_a_clustering_that_lists_a_feature_twice(capsys):
    """Truth feature (0, 0) copied into a second cluster: eval must not score
    it (it once printed F1 0.75)."""
    feat, truth = _generate(["--clusters", "2", "--per-cluster", "3"])
    assert main(["match", str(feat), "--out", "p.json"]) == 0
    payload = json.loads(truth.read_text())
    payload["clusters"][1].append([0, 0])
    Path("bad.truth.json").write_text(json.dumps(payload))
    capsys.readouterr()
    for argv in (["p.json", "--truth", "bad.truth.json"], ["bad.truth.json", "--truth", "p.json"]):
        assert main(["eval", argv[0], "--mode", "compare", *argv[1:], "--out", "e.json"]) == 1
        assert capsys.readouterr().err == "error: bad.truth.json: feature (0, 0) appears in two clusters (C1)\n"
    assert not Path("e.json").exists()
    assert main(["eval", "p.json", "--mode", "compare", "--truth", str(truth)]) == 0


def test_eval_names_a_feature_listed_twice_in_one_cluster(capsys):
    """The file holds one cluster, so the message must not speak of two."""
    Path("same.json").write_text(json.dumps({"clusters": [[[0, 0], [0, 0]]]}))
    assert main(["eval", "same.json", "--mode", "compare", "--truth", "same.json"]) == 1
    assert capsys.readouterr().err == "error: same.json: feature (0, 0) is listed twice in one cluster\n"


def test_eval_split_rejects_a_partition_that_lists_a_feature_twice(capsys):
    """One feature on agents 0 and 1: eval once exited 0 and reported a
    contested cluster that does not exist."""
    feat, _ = _generate(["--clusters", "4", "--per-cluster", "3"])
    assert main(["dmatch", str(feat), "--agents", "2", "--out", "d.json"]) == 0
    _write_bad_partitions()
    i, k, _ = json.loads(Path("dup.json").read_text())["assignment"][-1]
    capsys.readouterr()
    assert main(["eval", "d.json", "--mode", "split", "--partition", "dup.json"]) == 1
    assert capsys.readouterr().err == f"error: dup.json: feature ({i}, {k}) is assigned to two agents\n"


# Per variable: a command that reads it, and the flag that overrides it.
_BAD_ENV = {
    "QM_AGENTS": (["dmatch", "features.txt"], ["--agents", "2"]),
    "QM_CLUSTERS": (["generate", "--out", "g.txt"], ["--clusters", "4"]),
    "QM_KERNEL": (["match", "features.txt"], ["--kernel", "gaussian"]),
    "QM_RHO": (["match", "features.txt"], ["--rho", "1.1"]),
}


@pytest.mark.parametrize("var", sorted(_BAD_ENV))
def test_malformed_env_value_exits_one(var, monkeypatch, capsys):
    _generate(["--clusters", "4", "--per-cluster", "3"])
    argv, override = _BAD_ENV[var]
    monkeypatch.setenv(var, "bogus")
    capsys.readouterr()
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert main(argv + override) == 0


# Per command: a run whose --out names one of its own input files.
_OUT_IS_INPUT = {
    "match": ["match", "features.txt", "--out", "features.txt"],
    "dmatch": ["dmatch", "features.txt", "--agents", "2", "--out", "./features.txt"],
    "compare": ["compare", "features.txt", "--agents", "1", "--out", "features.txt"],
    "eval-pred": ["eval", "d.json", "--mode", "compare", "--truth", "features.truth.json", "--out", "d.json"],
    "eval-truth": ["eval", "d.json", "--mode", "compare", "--truth", "features.truth.json",
                   "--out", "features.truth.json"],
    "eval-partition": ["eval", "d.json", "--mode", "split", "--partition", "d.json.partition.json",
                       "--out", "d.json.partition.json"],
}


@pytest.mark.parametrize("case", sorted(_OUT_IS_INPUT))
def test_out_naming_an_input_is_refused(case, capsys):
    _generate(["--clusters", "4", "--per-cluster", "3"])
    assert main(["dmatch", "features.txt", "--agents", "2", "--out", "d.json"]) == 0
    before = {p: p.read_bytes() for p in Path(".").iterdir()}
    capsys.readouterr()
    assert main(_OUT_IS_INPUT[case]) == 1
    assert "error:" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in Path(".").iterdir()} == before


def test_qm_out_shared_by_generate_and_match_keeps_the_features(monkeypatch, capsys):
    monkeypatch.setenv("QM_OUT", "data.txt")
    assert main(["generate", "--clusters", "4", "--per-cluster", "3"]) == 0
    capsys.readouterr()
    assert main(["match", "data.txt"]) == 1
    assert "error:" in capsys.readouterr().err
    assert len(load_features("data.txt")) == 12


def _forbid_work(monkeypatch):
    """Make every command's first piece of work fail the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("load_features", "load_clustering", "quickmatch", "distributed_quickmatch", "generate_synthetic"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "features.txt", "--out", "nodir/c.json"],
        ["dmatch", "features.txt", "--agents", "2", "--out", "nodir/d.json"],
        ["compare", "features.txt", "--agents", "1", "--out", "nodir/s.csv"],
        ["eval", "c.json", "--mode", "compare", "--truth", "c.json", "--out", "nodir/e.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_out_dir_is_refused_before_any_work(argv, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    assert main(argv) == 1
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--out", "somedir"],
        ["match", "features.txt", "--out", "somedir"],
        ["dmatch", "features.txt", "--agents", "2", "--out", "somedir"],
        ["compare", "features.txt", "--agents", "1", "--out", "somedir"],
        ["eval", "c.json", "--mode", "compare", "--truth", "c.json", "--out", "somedir"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_naming_a_directory_is_refused_before_any_work(argv, monkeypatch, capsys):
    Path("somedir").mkdir()
    _forbid_work(monkeypatch)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --out somedir is a directory\n"


@pytest.mark.parametrize(
    ("agents", "message"),
    [("1,x", "bad agent list '1,x'"), ("2,0", "agent counts must be positive, got '2,0'")],
)
def test_compare_bad_agent_list_is_refused_before_the_parse(agents, message, monkeypatch, capsys):
    _forbid_work(monkeypatch)
    assert main(["compare", "features.txt", "--agents", agents]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--spread", "--extent"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_refuses_a_non_finite_scale(flag, value, capsys):
    assert main(["generate", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag[2:]} must be a positive finite number, got {float(value)}\n"
    assert not Path("features.txt").exists()
