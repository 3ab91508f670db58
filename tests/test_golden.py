"""Golden output digests for the CLI matchers.

Each row pins three sha256 values of one run: the clusters file bytes, the
ledger JSON bytes (``None`` for centralized `match`, which writes none) and
the report's ``determinism_hash``. Runs cover `match` with every kernel and
`dmatch` with m in {1, 4, 8} under both contested-sigma modes, on two small
inputs: ``blobs`` (every image has many features) and ``lone`` (blobs plus
images holding a single feature, which exercise the merge-bandwidth
fallback). A second table pins what `eval` (compare and split modes) and
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
from quickmatch.distributed import CONTESTED_SIGMA_MODES
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
RUNS.update(
    {
        f"dmatch-m{m}-{mode}": ["dmatch", "--agents", str(m), "--contested-sigma", mode]
        for m in (1, 4, 8)
        for mode in CONTESTED_SIGMA_MODES
    }
)


def _run_digests(input_name: str, run_name: str) -> tuple[str, str | None, str]:
    """Run one CLI job in the current directory and digest its outputs.

    Paths are relative so the report's config, and with it the
    determinism hash, does not depend on where the job runs.
    """
    save_features(INPUTS[input_name](), "features.txt")
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
        "7e94da472d5ef61b08481eb4d677a301c8823ff94cf44de1d40664d5a481acee",
        "b114f03adfb3237f07709627b1c8139a47e4f8eeda50b606113a66eadc433e6d",
        "8f4f0df160c98ef362ffcdc63b287dc899dca12deab5e7a44f619c79402187a4",
    ),
    ("blobs", "dmatch-m1-per-feature"): (
        "aa4d603dfa565a8903d78ebb0ea3f56809124a853bbb0dca15652fdb858770ca",
        "b114f03adfb3237f07709627b1c8139a47e4f8eeda50b606113a66eadc433e6d",
        "852145e57ff952982f6a40b1e028d5c0989e6f1f10359b12f3994325a4b941c5",
    ),
    ("blobs", "dmatch-m4-agent-max"): (
        "a1825af72e826a92191425944ac80a44e1dcf6db4a2c2a583f18c863ba8d7fa1",
        "0090eea719312d34651cea30c28e277a0a0ba3808ae453d51be1def60146c904",
        "62001805600d0445ba9d28936c28bfeb1cb6b1342d1d1532b162edbe41b85f55",
    ),
    ("blobs", "dmatch-m4-per-feature"): (
        "5919f1eea673b186b1b409e75ede2a89987a41cd43920322787200f85bda6a3e",
        "9bb19193259c1da9f1eb849763b6e124cffc9b848bcfa6f5e31d4c22080913ad",
        "e8338dd06ac47d2d3dfbebce6a5507c789e22ad9b09f23044d6b6f890cfbf0fb",
    ),
    ("blobs", "dmatch-m8-agent-max"): (
        "48a010bc291be6b5a3a6db730a163a3c342ac83a06f5dca7d1815cc272bc8c91",
        "1f4c16a91b83be5e9bbf00cc564996f86a7f2763ec25f1b53dc1ddb8aa645013",
        "d89389b2ad6efa8bd4b16b3ab7b954bc194aa4a1e63b59acc5c4896874048c83",
    ),
    ("blobs", "dmatch-m8-per-feature"): (
        "741da43d8656c1f147abdb84bf6d40b909ec762370c82af0aab2d859c42c216b",
        "44892ddb7da582b7602bc6055a2d0b060980d123c394bdd7fb0043203159784d",
        "61cd8a80f322cccbfeb61f6567bd197227fc4c871efadfd2e4f9526d62cec707",
    ),
    ("blobs", "match-gaussian"): (
        "6cc4a9279dcf2168c3c4ab42735d18eb497adaa3783b48da6642918cb44266a2",
        None,
        "986be871274bd9ebe1e0f95370dcb3b780f2308b958aa141b076bc18aa576f27",
    ),
    ("blobs", "match-gaussian-squared"): (
        "8517e06c1c2c53bf3f5337ea705db8fc3972691d55186765925804db8542cc9c",
        None,
        "cd3cc49f12d2972d6a1bf8fd7677fab9ac1f7edc494a7f49c6d0ec564d4ccaa6",
    ),
    ("blobs", "match-quadratic"): (
        "35ba5109786501cf453d13e0cac35e5d98e123b6d1e7fa22b03e2ce32fa1f0ce",
        None,
        "829c8ab45a5b951494bb9bc06708ad1c8438bbb37ea7e721f488558e85237ed8",
    ),
    ("blobs", "match-quadratic-as-printed"): (
        "5a3818d2552083cb93dbdf0747e5535027e31aeb971997b4700a19da9bfc9863",
        None,
        "dc674d4680f0e4dfe8ca852c68e46ee3b3caa6fc13899cdc2536f284664894ce",
    ),
    ("lone", "dmatch-m1-agent-max"): (
        "245932693626af93f1bd2c3b7b3ff7cf5c907829a5df8f6387d68c5dc25b8aba",
        "60eb34ccff082b7e8e5d18b17652d1e99e653008e5200f17588cb45695abd55a",
        "d89f94e2149de6c2585e0c49f570cfb81b70707f000aa7ee27efce7cc032388a",
    ),
    ("lone", "dmatch-m1-per-feature"): (
        "4b69e117b390b5fe8f891ecc7c31f861c51419d701b5d728fd65a71bd403db95",
        "60eb34ccff082b7e8e5d18b17652d1e99e653008e5200f17588cb45695abd55a",
        "9ca7328da411055909a5e4a00b07ca50e59fec47de0c3db05fdf84d438638a59",
    ),
    ("lone", "dmatch-m4-agent-max"): (
        "3d1b3698842cce3e7929c62dfe76964ace79608b413bdb8acd10b3176595c70d",
        "f8d9725832f6b14482607abc927fc5ba7c4ad294ecb457d6c94f69ecf35ec5a5",
        "e9c1827d585d1736c19beb6fbd03cc254743a641d83dcb41ff93afb7fd57fdb6",
    ),
    ("lone", "dmatch-m4-per-feature"): (
        "9f6e1f715a3490114096186177d05717079da032d4a9d681c8a6e9d1c73ee342",
        "76863c30d66c29e419ef86877150c334b092e130076ea5ede398c3d88c7c2dd7",
        "436e4565702e450bea2b3d9ec7afa9d632527cea49cc6c2f7c8e46d4bdb0aeef",
    ),
    ("lone", "dmatch-m8-agent-max"): (
        "dd9649439f3224fa5539f650be9b7382919a000239c2d9054b4073878093b492",
        "f1a4812201c0facbe3095e19cfa1fb05b415eb155eacec93f337772255a0ef97",
        "663ec2857a858c34a0dd27735e92f4d3516cf4d1d9814bab96933d14cd142b04",
    ),
    ("lone", "dmatch-m8-per-feature"): (
        "f02c1b61858a0decd29ba7badaa6c96c9d3accc65537e6119e4a8ef46835e12f",
        "e6ee3b8fa9f1f1bd2325acef6cd5e25e726ba70d798af4fe04b070cbe5b73f00",
        "eccd89a5a803c8699f0e85cfb348437ff68af6c10945d7ae1f3ceaf79fdeaf7a",
    ),
    ("lone", "match-gaussian"): (
        "779985d5d49b0202f4563dcb3b7b885698360523b156eb15663cc43025b311ec",
        None,
        "dcad7618e9430d27fa26f182d02c7f3b09b3d737d6cff975611b0345d3b20885",
    ),
    ("lone", "match-gaussian-squared"): (
        "5478290f988f39c8f69fe079d242875c0753eeafb84fc09d6302ed679ce47026",
        None,
        "28bf5dbd39536abfe38107bc284c25900b3a36d2ecf7e26571e876ebbc228fc5",
    ),
    ("lone", "match-quadratic"): (
        "a742c4cb8d594e33782407fa2375228d3d838f656e23e494df8edcf7202fb2b6",
        None,
        "19d52740e74de00146ebb593ad573024964876f44d48601ee3c0abf84ee8a5b6",
    ),
    ("lone", "match-quadratic-as-printed"): (
        "faf46fc83a8829016633adc8f685b286125c24fac7f8237ea4aea8d42c8d6e00",
        None,
        "aa2b8f4a05566c83db2aeb1d3b066c8ac74818e14ece7b702867c7e77b039efa",
    ),
}


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("run_name", sorted(RUNS))
def test_golden_digests(input_name, run_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in [n for n in os.environ if n.startswith("QM_")]:
        monkeypatch.delenv(name)  # the table is for the built-in defaults
    assert _run_digests(input_name, run_name) == GOLDEN[(input_name, run_name)]


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
        "5e7bf0f2f9b23f7f22d3cd2e24e30ca73010d9225124f68b03ea35676ac477aa",
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
