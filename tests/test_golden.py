"""Golden output digests for the CLI matchers.

Each row pins three sha256 values of one run: the clusters file bytes, the
ledger JSON bytes (``None`` for centralized `match`, which writes none) and
the report's ``determinism_hash``. Runs cover `match` with every kernel and
`dmatch` with m in {1, 4, 8} under both contested-sigma modes, on two small
inputs: ``blobs`` (every image has many features) and ``lone`` (blobs plus
images holding a single feature, which exercise the merge-bandwidth
fallback).

A refactor must leave this table unchanged. A change that alters output on
purpose updates the table and says why.
"""

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
        "cab42a3c67a786ac5ca891285fb2ecc99bd81faa47bb0cbaacc58b96311b724e",
    ),
    ("blobs", "dmatch-m1-per-feature"): (
        "aa4d603dfa565a8903d78ebb0ea3f56809124a853bbb0dca15652fdb858770ca",
        "b114f03adfb3237f07709627b1c8139a47e4f8eeda50b606113a66eadc433e6d",
        "ff70a973daaa31c1088d868f8b801ba189023068b9473e5e22d53f074be082ed",
    ),
    ("blobs", "dmatch-m4-agent-max"): (
        "a1825af72e826a92191425944ac80a44e1dcf6db4a2c2a583f18c863ba8d7fa1",
        "0090eea719312d34651cea30c28e277a0a0ba3808ae453d51be1def60146c904",
        "5477e23d74a71363cb87be9c624962e89cb09fcd52c34dba60674cf24d85b60b",
    ),
    ("blobs", "dmatch-m4-per-feature"): (
        "5919f1eea673b186b1b409e75ede2a89987a41cd43920322787200f85bda6a3e",
        "9bb19193259c1da9f1eb849763b6e124cffc9b848bcfa6f5e31d4c22080913ad",
        "dd19566ec8e66fb1c3b5d874666e1ba1fc8db74a6810ae5dfdb53a987d0c636e",
    ),
    ("blobs", "dmatch-m8-agent-max"): (
        "48a010bc291be6b5a3a6db730a163a3c342ac83a06f5dca7d1815cc272bc8c91",
        "1f4c16a91b83be5e9bbf00cc564996f86a7f2763ec25f1b53dc1ddb8aa645013",
        "6f3be190098ceeddde9e210e9dc338aa967ed44ccac3c81a1d86c0db8c924c88",
    ),
    ("blobs", "dmatch-m8-per-feature"): (
        "741da43d8656c1f147abdb84bf6d40b909ec762370c82af0aab2d859c42c216b",
        "44892ddb7da582b7602bc6055a2d0b060980d123c394bdd7fb0043203159784d",
        "c881c9b6bac4b4b1af321192044c16f9de9d43fc823c8da968fc5a594d6f833a",
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
        "61aa4f2ff5f6636f619ab35a1a0ed3ed5e8dfa2c365e2860414a89576ef4a10d",
    ),
    ("lone", "dmatch-m1-per-feature"): (
        "4b69e117b390b5fe8f891ecc7c31f861c51419d701b5d728fd65a71bd403db95",
        "60eb34ccff082b7e8e5d18b17652d1e99e653008e5200f17588cb45695abd55a",
        "d5fb2e639075dc0813d487d119c6c6ba904cc3931551cafe837f1687ce321cff",
    ),
    ("lone", "dmatch-m4-agent-max"): (
        "3d1b3698842cce3e7929c62dfe76964ace79608b413bdb8acd10b3176595c70d",
        "f8d9725832f6b14482607abc927fc5ba7c4ad294ecb457d6c94f69ecf35ec5a5",
        "2d6cdd15744a2009762f1685ecdf40d639d6ba641a7fbfca72dc9ef3a52adf16",
    ),
    ("lone", "dmatch-m4-per-feature"): (
        "9f6e1f715a3490114096186177d05717079da032d4a9d681c8a6e9d1c73ee342",
        "76863c30d66c29e419ef86877150c334b092e130076ea5ede398c3d88c7c2dd7",
        "08fac3114d45bca02096466767fc73b1322c2ff16192c0d1793fd9320d656f20",
    ),
    ("lone", "dmatch-m8-agent-max"): (
        "dd9649439f3224fa5539f650be9b7382919a000239c2d9054b4073878093b492",
        "f1a4812201c0facbe3095e19cfa1fb05b415eb155eacec93f337772255a0ef97",
        "f9331c036b1faecd4c37fa758462c15dc429a2ab227bbda4f957f4de5edbb84b",
    ),
    ("lone", "dmatch-m8-per-feature"): (
        "f02c1b61858a0decd29ba7badaa6c96c9d3accc65537e6119e4a8ef46835e12f",
        "e6ee3b8fa9f1f1bd2325acef6cd5e25e726ba70d798af4fe04b070cbe5b73f00",
        "0829e751f034ab811e0337e653b2f1f382dc5a56930d573405b8790cbe90a5db",
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
