"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from quickmatch.centralized import MatchParams, compute_density, compute_distinctiveness, quickmatch
from quickmatch.cli import main
from quickmatch.core import (
    FeatureSet,
    ProtocolError,
    canonical_cluster_bytes,
    validate_clustering,
)
from quickmatch.distributed import (
    NetworkLedger,
    compute_boundary,
    init_agents,
    detect_contested,
    distributed_quickmatch,
    exchange_boundary_scalars,
    finalize,
    local_cluster,
    transfer_round,
)
from quickmatch.kernels import Kernel, gaussian_kernel
from quickmatch.metrics import compare_clusterings, split_quality
from quickmatch.partition import Partition, assign_to_seeds, bisector_distances, kmeans_seeds
from quickmatch.synthetic import SynthConfig, generate_synthetic

import oracles

QUAD = MatchParams(kernel=Kernel.QUADRATIC)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_synthetic_equivalence():
    with criterion(1, "synthetic equivalence: centralized exact, distributed m=4 F1=1.0, <10s"):
        t0 = time.perf_counter()
        fs, truth = generate_synthetic(SynthConfig())

        central_default = quickmatch(fs, MatchParams())
        assert len(central_default) == 25
        assert compare_clusterings(central_default, truth).exact_equal

        central_quadratic = quickmatch(fs, QUAD)
        run = distributed_quickmatch(fs, 4, QUAD, seed=0)
        assert compare_clusterings(run.clustering, central_quadratic).pairwise_f1 == 1.0

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_degenerate_equivalence():
    with criterion(2, "m=1 byte-identical to centralized quadratic, zero cluster transfers"):
        fs, _ = generate_synthetic(SynthConfig())
        run = distributed_quickmatch(fs, 1, QUAD, seed=0)
        central = quickmatch(fs, QUAD)
        assert canonical_cluster_bytes(run.clustering) == canonical_cluster_bytes(central)
        assert run.ledger.count("cluster") == 0


def test_criterion_3_boundary_distance_qp_oracle():
    with criterion(3, "closed-form bisector_distances matches iterative QP oracle to 1e-9 (1000 instances)"):
        rng = np.random.default_rng(2024)
        per_dim = {2: 334, 8: 333, 128: 333}
        total = 0
        for dim, count in per_dim.items():
            p_t = rng.normal(size=(count, dim)) * 5
            p_e = p_t + rng.normal(size=(count, dim)) * 4
            short = np.linalg.norm(p_e - p_t, axis=1) < 1e-3
            p_e[short] += 1.0
            # x on the p_t side: normal coordinate below the bisector, plus
            # noise restricted to the tangent space so the side is certain
            u = p_e - p_t
            u_hat = u / np.linalg.norm(u, axis=1)[:, None]
            lam = rng.uniform(-1.0, 0.499, size=(count, 1))
            noise = rng.normal(size=(count, dim)) * 2
            noise -= np.einsum("ij,ij->i", noise, u_hat)[:, None] * u_hat
            x = p_t + lam * u + noise

            closed = np.empty(count)
            for i in range(count):
                seeds = np.vstack([p_t[i], p_e[i]])
                assert assign_to_seeds(x[i:i + 1], seeds)[0] == 0
                closed[i] = bisector_distances(x[i:i + 1], seeds, 0)[0, 1]
            want = oracles.qp_boundary_distance_batch(x, p_t, p_e)
            np.testing.assert_allclose(closed, want, rtol=0, atol=1e-9)
            total += count
        assert total == 1000


def test_criterion_4_brute_force_oracles():
    with criterion(4, "density/parents/sigma/d_aa'/F1 match O(n^2) oracles over 50 seeded trials"):
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            fs = oracles.random_feature_set(rng)
            assert len(fs) <= 200

            sigma = compute_distinctiveness(fs)
            want_sigma = oracles.resolved_sigma_by_image(fs)
            assert sigma.tolist() == [want_sigma[img] for img in fs.image_ids]

            dens = compute_density(fs, sigma, Kernel.GAUSSIAN)
            want_dens = oracles.density(fs, want_sigma, gaussian_kernel)
            np.testing.assert_allclose(dens, want_dens, rtol=0, atol=1e-12)

            from quickmatch.centralized import build_tree

            tree = build_tree(fs, dens)
            want_parents = oracles.parents(fs, want_dens)
            got_parents = [None if p < 0 else int(p) for p in tree.parent]
            assert got_parents == want_parents

            m = int(rng.integers(2, 6))
            part = kmeans_seeds(fs, m, seed=seed)
            agents = init_agents(fs, part)
            for ag in agents:
                local_cluster(ag, fs, QUAD)
                compute_boundary(ag, fs, part)
            got_scalars = exchange_boundary_scalars(agents, fs, part)
            want_scalars = oracles.boundary_scalars(fs, part.seeds, part.assignment)
            np.testing.assert_allclose(got_scalars, want_scalars, rtol=0, atol=1e-12)

            clustering = quickmatch(fs, MatchParams())
            other = quickmatch(fs, MatchParams(rho=0.8))
            got_f1 = compare_clusterings(clustering, other).pairwise_f1
            want_f1 = oracles.pairwise_f1(oracles.labels_of(clustering), oracles.labels_of(other))
            assert got_f1 == pytest.approx(want_f1, abs=1e-12)


def test_criterion_5_invariant_suite():
    with criterion(5, "C1/C2 on every clustering; ledger protocol checks; silent finalize"):
        for ds_seed in (0, 3):
            fs, _ = generate_synthetic(SynthConfig(seed=ds_seed))
            for m in (1, 2, 4, 8):
                for seeding in ("kmeans", "random"):
                    run = distributed_quickmatch(fs, m, QUAD, seed=1, seeding=seeding)
                    validate_clustering(run.clustering, fs)
                    run.ledger.validate_protocol(len(fs), m)
                    assert run.ledger.count("route") == len(fs)
                    assert run.ledger.count("scalar") == m * (m - 1)
                    for _, hop in run.ledger.transfer_chains():
                        assert len(hop) == 2 and hop[1] < hop[0]
                    with pytest.raises(ProtocolError, match="sealed"):
                        run.ledger.log(3, "scalar", 0, 1, value=0.0)

        # the finalize phase cannot touch the network: the ledger is sealed and
        # a manual phase-by-phase run logs nothing during finalize
        fs, _ = generate_synthetic(SynthConfig())
        part = kmeans_seeds(fs, 4, seed=0)
        ledger = NetworkLedger()
        agents = init_agents(fs, part, ledger)
        for ag in agents:
            local_cluster(ag, fs, QUAD)
            compute_boundary(ag, fs, part)
        scalars = exchange_boundary_scalars(agents, fs, part, ledger)
        for ag in agents:
            detect_contested(ag, scalars[ag.id])
        transfer_round(agents, fs, ledger)
        ledger.seal()
        before = ledger.to_json()
        finalize(agents, fs, QUAD)
        assert ledger.to_json() == before
        with pytest.raises(ProtocolError):
            ledger.log(4, "scalar", 1, 0, value=1.0)


def test_criterion_6_contested_detection_recall():
    with criterion(6, "100% of truly-split-cluster features detected contested (bisecting partition)"):
        fs, _ = generate_synthetic(SynthConfig())
        # bisector along x=5 cuts the five blobs of that grid column
        seeds = np.array([[4.0, 5.0], [6.0, 5.0]])
        part = Partition(seeds, assign_to_seeds(fs.vectors, seeds), fs.ids)
        agents = init_agents(fs, part)
        for ag in agents:
            local_cluster(ag, fs, QUAD)
            compute_boundary(ag, fs, part)
        scalars = exchange_boundary_scalars(agents, fs, part)
        detected = set()
        for ag in agents:
            flagged = detect_contested(ag, scalars[ag.id])  # default conservative mode
            detected.update(map(tuple, fs.id_array[ag.rows0[flagged]].tolist()))

        central = quickmatch(fs, QUAD)
        report = split_quality(central, part, detected)
        assert report.contested_cluster_count >= 3, "partition must bisect at least 3 blobs"
        assert report.contested_recall == 1.0


def test_criterion_7_contested_cluster_trend():
    with criterion(7, "p_contested(m=8) >= p_contested(m=2) on the synthetic sweep at fixed seed"):
        fs, _ = generate_synthetic(SynthConfig())
        central = quickmatch(fs, QUAD)
        p = {}
        for m in (2, 4, 8):
            run = distributed_quickmatch(fs, m, QUAD, seed=1)
            p[m] = split_quality(central, run.partition, run.contested_ids).p_contested
        assert p[8] >= p[2], p


def _object_dataset(seed: int, spread: float):
    """Noisy multi-image detection set: object anchors plus one repeating decoy
    near each anchor, so pairwise matching confuses them while clusters keep
    them apart through the shared-image constraint."""
    dim, n_obj, n_pos, n_neg, box = 4, 10, 10, 10, 10.0
    rng = np.random.default_rng(seed)
    obj = rng.uniform(0, box, size=(n_obj, dim))
    decoys = obj + rng.standard_normal((n_obj, dim)) / np.sqrt(dim)
    rows = [(0, k, v) for k, v in enumerate(obj)]
    truth = {}
    img = 1
    for _ in range(n_pos):
        for k, v in enumerate(obj):
            rows.append((img, k, v + rng.normal(0, spread, dim)))
        for k, v in enumerate(decoys):
            rows.append((img, n_obj + k, v + rng.normal(0, spread, dim)))
        truth[img] = True
        img += 1
    for _ in range(n_neg):
        for k, v in enumerate(decoys):
            rows.append((img, n_obj + k, v + rng.normal(0, spread, dim)))
        truth[img] = False
        img += 1
    return FeatureSet.from_rows(rows), 0, truth


def test_criterion_8_baseline_comparison():
    with criterion(8, "multi-image matcher PR AUC >= ratio-test baseline on noisy data"):
        fs, ref, truth = _object_dataset(seed=1, spread=0.35)
        clustering = quickmatch(fs, MatchParams())
        qm_counts = oracles.match_counts_vs_reference(clustering, ref)
        ref_fs = oracles.for_images(fs, [ref])
        bf_counts = {
            img: len(oracles.baseline_ratio_match(ref_fs, oracles.for_images(fs, [img]), 0.75)) for img in truth
        }
        thresholds = sorted(set(qm_counts.values()) | set(bf_counts.values()) | {-1, 0})
        auc_qm = oracles.pr_curve(qm_counts, truth, thresholds).auc
        auc_bf = oracles.pr_curve(bf_counts, truth, thresholds).auc
        # noise level genuinely produces errors on both sides
        assert auc_qm < 1.0 or auc_bf < 1.0
        assert auc_bf < 1.0
        assert auc_qm >= auc_bf, (auc_qm, auc_bf)


def test_criterion_9_determinism(tmp_path, monkeypatch):
    with criterion(9, "identical dmatch flags+seed give identical files/hashes across reruns"):
        def run(tag: str):
            # identical command line, each in a fresh directory
            workdir = tmp_path / tag
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(["generate", "--out", "features.txt"]) == 0
            flags = ["dmatch", "features.txt", "--agents", "4", "--seed", "0", "--out", "clusters.json"]
            assert main(flags) == 0
            report = json.loads(Path("clusters.json.report.json").read_text())
            return (
                Path("clusters.json").read_bytes(),
                Path("clusters.json.ledger.json").read_bytes(),
                report["determinism_hash"],
            )

        # the hash excludes timings, so it matches along with the files
        assert run("a") == run("b")
