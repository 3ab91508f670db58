import csv
import json
from pathlib import Path

import pytest

from quickmatch.cli import main
from quickmatch.core import load_clustering, load_features

pytestmark = pytest.mark.usefixtures("in_tmp_dir")


@pytest.fixture
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _generate(extra=()):
    assert main(["generate", "--out", "features.txt", *extra]) == 0
    return Path("features.txt"), Path("features.truth.json")


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
                         "contested_sigma", "workers", "out"],
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
    rows = list(csv.DictReader(Path("sweep.csv").open()))
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
    rows = list(csv.DictReader(Path("sweep.csv").open()))
    assert len(rows) == 7
    for row in rows:
        if row["% Contested Features Found"] != "NA":
            assert float(row["% Contested Features Found"]) == 100.0
    # plot data emitted per m
    for m in (2, 8):
        points = list(csv.reader(Path(f"sweep.m{m}.points.csv").open()))
        assert points[0] == ["image", "feature", "x0", "x1", "cluster", "agent"]
        assert len(points) == 251


def test_compare_deterministic_across_reruns():
    feat, _ = _generate()
    main(["compare", str(feat), "--agents", "2,4", "--seed", "1", "--out", "a.csv"])
    main(["compare", str(feat), "--agents", "2,4", "--seed", "1", "--out", "b.csv"])

    def strip_times(path):
        rows = list(csv.DictReader(Path(path).open()))
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
    "eval-out-missing-dir": ["eval", "d.json", "--mode", "compare", "--truth", "d.json", "--out", "nodir/e.json"],
    "match-rho-inf": ["match", "features.txt", "--rho", "inf"],
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_file_exits_one(case, capsys):
    feat, _ = _generate(["--clusters", "4", "--per-cluster", "3"])
    assert main(["dmatch", str(feat), "--agents", "2", "--out", "d.json"]) == 0
    Path("bad.json").write_text("{not json")
    Path("meta.json").write_text('{"clusters": [], "meta": [1, 2]}')
    Path("latin1.txt").write_bytes(b"0 0 1.0 \xe9\n")
    Path("adir").mkdir()
    capsys.readouterr()
    assert main(_BAD_INPUTS[case]) == 1
    assert "error:" in capsys.readouterr().err


# Per variable: a command that reads it, and the flag that overrides it.
_BAD_ENV = {
    "QM_AGENTS": (["dmatch", "features.txt"], ["--agents", "2"]),
    "QM_CLUSTERS": (["generate", "--out", "g.txt"], ["--clusters", "4"]),
    "QM_KERNEL": (["match", "features.txt"], ["--kernel", "gaussian"]),
    "QM_RHO": (["match", "features.txt"], ["--rho", "1.1"]),
    "QM_WORKERS": (["dmatch", "features.txt"], ["--workers", "1"]),
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
