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
    fallbacks for the lone images give different clusters.
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
        "8d3c5584a5c76d604ccf35c09e791bce82622f25c51e32a897e0c440d1905a40",
    ),
    ("blobs", "dmatch-m4-agent-max"): (
        "d63a9317edd102701e361533ae8f317b8aa41f05d4a31d17b31f58e02f33dd42",
        "0090eea719312d34651cea30c28e277a0a0ba3808ae453d51be1def60146c904",
        "3b87bf96f1d317090657f2c984f24ba5af97740bd9aad30596f7c7c67da96947",
    ),
    ("blobs", "dmatch-m8-agent-max"): (
        "47e7e1e122cff1daa918983b1957ea91060ee0c80bcfaf08818a6bcb301a8551",
        "1f4c16a91b83be5e9bbf00cc564996f86a7f2763ec25f1b53dc1ddb8aa645013",
        "f7cefd6030398a8107b1c710ca84cb2f0af7dae2b533bd9be50b592d7c20941d",
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
        "b34ea8ab8b633a6e3e2cc81935a82dca09ea625bc8ecd9bbbac45cf3460b9120",
        "60eb34ccff082b7e8e5d18b17652d1e99e653008e5200f17588cb45695abd55a",
        "5f4f801996ef230aa467b1a2c182fd1584660e684ad68d2c6e4ddbac6d3dbca5",
    ),
    ("lone", "dmatch-m4-agent-max"): (
        "4f4e86f9692ad3727126ad9bd97700f2b01cd706be81627d47caa0dc7b76ec88",
        "f8d9725832f6b14482607abc927fc5ba7c4ad294ecb457d6c94f69ecf35ec5a5",
        "c9121ce1745d24d7d59d7bfc8392e482afc4a03938e4b7d9b85b575c00d62777",
    ),
    ("lone", "dmatch-m8-agent-max"): (
        "eea58e55a153aab45d7e64f4a5761d3a257a79cd6b65c30c8fd25b540d2e78be",
        "f1a4812201c0facbe3095e19cfa1fb05b415eb155eacec93f337772255a0ef97",
        "41b8c0c9ae8cdfe5f21ee1a832012e9ac7d69af3615eb02396ab7cf44a57e366",
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
        "f21f577d5464c0c741133afc12e5d93e4a7ad9e38ce58b3972bda303c8b127e3",
        "066acd815625ccc13ee55153992eff2eb29178b4e8546f78dd089f0575638238",
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
