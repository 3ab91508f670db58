"""Golden output digests for the CLI matchers.

Each row pins three sha256 values of one run: the clusters file bytes, the
ledger JSON bytes (``None`` for centralized `match`, which writes none) and
the report's ``determinism_hash``. Runs cover `match` with every kernel and
`dmatch` with m in {1, 4, 8} (its one contested rule, ``agent-max``), on two
small inputs: ``blobs`` (every image has many features) and ``lone`` (blobs plus
images holding a single feature, which exercise the merge-bandwidth
fallback). The ``match-gaussian-squared`` runs have no rows of their own: the
Gaussian is the squared exponential, a function of d/sigma alone, so the same
run on coordinates scaled by 2**-20 must give every digest of the
``match-gaussian`` row. A second table pins what `eval` (compare and split modes) and
`compare` write on the same inputs, the sweep's timing columns left out.

A refactor must leave this table unchanged. A change that alters output on
purpose updates the table and says why.
"""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from quickmatch.cli import main
from quickmatch.core import FeatureSet, save_features, sha256_hex
from quickmatch.kernels import Kernel
from quickmatch.synthetic import SynthConfig, generate_synthetic


def _blobs() -> FeatureSet:
    fs, _ = generate_synthetic(SynthConfig(n_clusters=16, per_cluster=6, spread=0.3, seed=5))
    return fs


def _lone() -> FeatureSet:
    """Blobs plus five single-feature images, each placed near a blob, and
    one image whose two features sit 0.2 apart, far from the blobs.

    The tight pair makes the whole-set fill (the smallest defined image
    bandwidth) much smaller than an agent's sigma_a, so the two merge
    fallbacks for the lone images give different clusters: `match` and one
    agent take the fill, an agent holding only part of the features sigma_a.
    """
    fs, _ = generate_synthetic(SynthConfig(n_clusters=12, per_cluster=6, spread=0.3, seed=11))
    rng = np.random.default_rng(11)
    picks = rng.choice(len(fs), size=5, replace=False)
    lone = fs.vectors[picks] + rng.normal(0.0, 0.3, size=(5, fs.dim))
    pair = np.array([[5.0, 12.0], [5.2, 12.0]])
    vectors = np.vstack([fs.vectors, lone, pair])
    ids = list(fs.ids) + [(100 + j, 0) for j in range(5)] + [(99, 0), (99, 1)]
    return FeatureSet(vectors, ids)


INPUTS = {"blobs": _blobs, "lone": _lone}

RUNS = {f"match-{k.value}": ["match", "--kernel", k.value] for k in Kernel}
RUNS.update({f"dmatch-m{m}-agent-max": ["dmatch", "--agents", str(m)] for m in (1, 4, 8)})
# run -> (the run whose row it must reproduce, scale applied to the coordinates)
SCALED_RUNS = {"match-gaussian-squared": ("match-gaussian", 2.0**-20)}


def _run_digests(input_name: str, run_name: str, scale: float = 1.0) -> tuple[str, str | None, str]:
    """Run one CLI job in the current directory and digest its outputs.

    Paths are relative so the report's config, and with it the
    determinism hash, does not depend on where the job runs.
    """
    fs = INPUTS[input_name]()
    save_features(FeatureSet(fs.vectors * scale, fs.id_array), "features.txt")
    argv = RUNS[run_name]
    assert main([argv[0], "features.txt", *argv[1:], "--out", "clusters.json"]) == 0
    ledger = Path("clusters.json.ledger.json")
    report = json.loads(Path("clusters.json.report.json").read_text())
    return (
        sha256_hex(Path("clusters.json").read_bytes()),
        sha256_hex(ledger.read_bytes()) if ledger.exists() else None,
        report["determinism_hash"],
    )


# (input, run) -> (clusters file, ledger JSON, report determinism_hash)
GOLDEN = {
    ("blobs", "dmatch-m1-agent-max"): (
        "6341e1b9dd1f7ff4b77499527892a84528cfcae01f39790b58f16c2e0175498c",
        "b114f03adfb3237f07709627b1c8139a47e4f8eeda50b606113a66eadc433e6d",
        "c2a574c6b182bb75034d3ad57fcfc6b45f9c2582c4d32d51e3f8040f7bb70c42",
    ),
    ("blobs", "dmatch-m4-agent-max"): (
        "d63a9317edd102701e361533ae8f317b8aa41f05d4a31d17b31f58e02f33dd42",
        "0090eea719312d34651cea30c28e277a0a0ba3808ae453d51be1def60146c904",
        "497562799b544ecc12da5b791679801ac8887d23bd4cff5c8246c485295a7cfc",
    ),
    ("blobs", "dmatch-m8-agent-max"): (
        "47e7e1e122cff1daa918983b1957ea91060ee0c80bcfaf08818a6bcb301a8551",
        "1f4c16a91b83be5e9bbf00cc564996f86a7f2763ec25f1b53dc1ddb8aa645013",
        "87eec7b9bb0f48aa1c2b9f623f852ddc8cbea1521e3ff5ce72309a446e7de73c",
    ),
    ("blobs", "match-gaussian"): (
        "6cc4a9279dcf2168c3c4ab42735d18eb497adaa3783b48da6642918cb44266a2",
        None,
        "986be871274bd9ebe1e0f95370dcb3b780f2308b958aa141b076bc18aa576f27",
    ),
    ("blobs", "match-quadratic"): (
        "35ba5109786501cf453d13e0cac35e5d98e123b6d1e7fa22b03e2ce32fa1f0ce",
        None,
        "829c8ab45a5b951494bb9bc06708ad1c8438bbb37ea7e721f488558e85237ed8",
    ),
    ("lone", "dmatch-m1-agent-max"): (
        "88183fa6a7a468e6dabb11ee0d03f7855aeceb81b3fdce30a40c5aa1b4b39c3e",
        "f4e708141bdeb88f718de71c926acf7599a5b90a540c7d0d39da9237e7a2c695",
        "85a71ac2d34abea01c9da28d5436c8e6e96cca76255a90be76308e7d0b7cb7b8",
    ),
    ("lone", "dmatch-m4-agent-max"): (
        "4f4e86f9692ad3727126ad9bd97700f2b01cd706be81627d47caa0dc7b76ec88",
        "31c2ad59834276914b57a1b12ddfa7180904893371be6967a07bd06d967e5ba6",
        "5f2f5083ff87f417cff13e810d8eda6268e5e462d83b1f68e6a072cfc50a1321",
    ),
    ("lone", "dmatch-m8-agent-max"): (
        "eea58e55a153aab45d7e64f4a5761d3a257a79cd6b65c30c8fd25b540d2e78be",
        "19d46ec5273358bad1ae8896ccb5b66a32de22847ca574156c3f351b162101d1",
        "c64b1cc822be952d2c0d6ecd2fb421883966366444f4bec11904287f4a0a17c3",
    ),
    ("lone", "match-gaussian"): (
        "b86263dad08266a731be0553ad3b7a61145f316f9a191dfbd79c6da956b5e404",
        None,
        "3ff0adeb8316dd4dcfbd7bb26fb5f32489d0b7da038c76fce39f0ba93271c90c",
    ),
    ("lone", "match-quadratic"): (
        "a742c4cb8d594e33782407fa2375228d3d838f656e23e494df8edcf7202fb2b6",
        None,
        "19d52740e74de00146ebb593ad573024964876f44d48601ee3c0abf84ee8a5b6",
    ),
}


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("run_name", sorted([*RUNS, *SCALED_RUNS]))
def test_golden_digests(input_name, run_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in [n for n in os.environ if n.startswith("QM_")]:
        monkeypatch.delenv(name)  # the table is for the built-in defaults
    row, scale = SCALED_RUNS.get(run_name, (run_name, 1.0))
    assert _run_digests(input_name, row, scale) == GOLDEN[(input_name, row)]


# Runs whose results reach the user through `eval` and `compare`, on one
# input's centralized `match` clustering and a `dmatch --agents 4` run.
# Random seeding cuts some clusters across agents, where k-means cuts none on
# these inputs, so the split report and the sweep's contested columns hold
# numbers rather than zeros and nulls.
EVAL_RUNS = {
    "eval-compare": ["eval", "d.json", "--mode", "compare", "--truth", "c.json", "--out", "eval.json"],
    "eval-split": [
        "eval", "c.json", "--mode", "split", "--partition", "d.json.partition.json",
        "--contested-from", "d.json.report.json", "--out", "eval.json",
    ],
    "compare-m1,4": ["compare", "features.txt", "--agents", "1,4", "--seeding", "random", "--out", "sweep.csv"],
}


def _without_time_columns(path: Path) -> bytes:
    """The sweep CSV with its three per-agent time columns left out, header included."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(rows[0]) if "Time" not in name]
    return "".join(",".join(row[j] for j in keep) + "\n" for row in rows).encode()


def _eval_digests(input_name: str, run_name: str) -> tuple[str, ...]:
    """Digests of what one `eval` or `compare` run writes: the eval JSON, or
    the sweep CSV without its times plus the m=4 scatter-plot file."""
    save_features(INPUTS[input_name](), "features.txt")
    assert main(["match", "features.txt", "--out", "c.json"]) == 0
    assert main(["dmatch", "features.txt", "--agents", "4", "--seeding", "random", "--out", "d.json"]) == 0
    assert main(EVAL_RUNS[run_name]) == 0
    if run_name.startswith("eval"):
        return (sha256_hex(Path("eval.json").read_bytes()),)
    return (
        sha256_hex(_without_time_columns(Path("sweep.csv"))),
        sha256_hex(Path("sweep.m4.points.csv").read_bytes()),
    )


# (input, run) -> digests of its outputs, as `_eval_digests` takes them
EVAL_GOLDEN = {
    ("blobs", "compare-m1,4"): (
        "49de48a1b5c732208ede3d9cb6c108cfc441f7c02b0fd4b511805c178945c697",
        "1d8a5a16e8e254cde431ad276bad0d679bc54dac20377919d65f67ebc703cc69",
    ),
    ("blobs", "eval-compare"): (
        "c2375af749e16798c423f0234652a8491abc056a016a47b6703cdd185faa8bc9",
    ),
    ("blobs", "eval-split"): (
        "a868cb92e3ec25a1d6fb01862b8552eadee03fe072d58118aecded90312c69ea",
    ),
    ("lone", "compare-m1,4"): (
        "65dcf22b2d1adabe3543830636afd1d6c5900566f38413f9b0ac89130d7d39ed",
        "25c8f9275de729242630f884130dbf8b78b3a98f6d9a5e38fd07b3c08048e677",
    ),
    ("lone", "eval-compare"): (
        "9c83e1d870fae03a0ff96390ed8e5beef3cb8601ad82c2752895cfb794bfa714",
    ),
    ("lone", "eval-split"): (
        "39a7266e524781ee823e2c65e0c4031257a5c05dad3778d45e41a20881a9a908",
    ),
}


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("run_name", sorted(EVAL_RUNS))
def test_golden_eval_and_compare(input_name, run_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in [n for n in os.environ if n.startswith("QM_")]:
        monkeypatch.delenv(name)
    assert _eval_digests(input_name, run_name) == EVAL_GOLDEN[(input_name, run_name)]
