"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loops over the definitions,
sharing no code with the package internals it checks.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from quickmatch.core import FeatureId, FeatureSet, InputError
from quickmatch.metrics import SplitReport


def dist_fsum(a, b) -> float:
    """Euclidean distance via exactly-rounded componentwise accumulation."""
    return math.sqrt(math.fsum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def dist_loop(a, b) -> float:
    """Euclidean distance via plain left-to-right accumulation (C-style)."""
    s = 0.0
    for x, y in zip(a, b):
        t = float(x) - float(y)
        s += t * t
    return math.sqrt(s)


def sigma_by_image(fs: FeatureSet) -> dict[int, float | None]:
    """Per-image minimum pairwise distance, None when an image has < 2 features."""
    out: dict[int, float | None] = {}
    for img in fs.image_ids:
        rows = [r for r, fid in enumerate(fs.ids) if fid.image == img]
        best = None
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                d = dist_loop(fs.vectors[rows[i]], fs.vectors[rows[j]])
                if best is None or d < best:
                    best = d
        out[img] = best
    return out


def resolved_sigma_by_image(fs: FeatureSet, floor: float = 1e-12) -> dict[int, float]:
    """Same fallback policy as the package: min over defined sigmas, then the
    global minimum pairwise distance, then 1.0; everything clamped."""
    raw = sigma_by_image(fs)
    defined = [v for v in raw.values() if v is not None]
    if defined:
        fill = min(defined)
    elif len(fs) >= 2:
        fill = min(
            dist_loop(fs.vectors[i], fs.vectors[j])
            for i in range(len(fs))
            for j in range(i + 1, len(fs))
        )
    else:
        fill = 1.0
    return {img: max(v if v is not None else fill, floor) for img, v in raw.items()}


def density(fs: FeatureSet, sigma: dict[int, float], kernel_fn) -> list[float]:
    """Double-loop density with exactly-rounded summation."""
    out = []
    for x in fs.vectors:
        terms = [
            float(kernel_fn(dist_fsum(x, fs.vectors[j]), sigma[fs.ids[j].image]))
            for j in range(len(fs))
        ]
        out.append(math.fsum(terms))
    return out


def parents(fs: FeatureSet, dens) -> list[int | None]:
    """Nearest strictly-denser feature per feature; exact density ties ordered
    by feature id, distance ties by lower id."""
    n = len(fs)
    out: list[int | None] = []
    for i in range(n):
        best_j, best_d = None, None
        for j in range(n):
            if j == i:
                continue
            denser = dens[j] > dens[i] or (dens[j] == dens[i] and fs.ids[j] > fs.ids[i])
            if not denser:
                continue
            d = dist_loop(fs.vectors[i], fs.vectors[j])
            if best_d is None or d < best_d or (d == best_d and fs.ids[j] < fs.ids[best_j]):
                best_j, best_d = j, d
        out.append(best_j)
    return out


def bisector_point_distance(x, p_t, p_e) -> float:
    """Distance from x to the bisector of (p_t, p_e) via the midpoint-normal
    form, an algebraically equivalent but independently coded formula."""
    x = np.asarray(x, dtype=np.float64)
    mid = (np.asarray(p_t, float) + np.asarray(p_e, float)) / 2.0
    normal = np.asarray(p_e, float) - np.asarray(p_t, float)
    return abs(float(normal @ (x - mid))) / float(np.linalg.norm(normal))


def boundary_scalars(fs: FeatureSet, seeds: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Exhaustive d_aa' matrix: [receiver, sender] = min over sender's features
    of their distance to the receiver/sender bisector."""
    m = len(seeds)
    out = np.full((m, m), np.inf)
    for sender in range(m):
        rows = [r for r in range(len(fs)) if assignment[r] == sender]
        for receiver in range(m):
            if receiver == sender:
                continue
            best = np.inf
            for r in rows:
                best = min(best, bisector_point_distance(fs.vectors[r], seeds[sender], seeds[receiver]))
            out[receiver, sender] = best
    return out


def qp_boundary_distance(x_t, p_t, p_e, iterations: int = 400, step: float = 0.1) -> float:
    """Projected gradient on the quadratic program

        min ||x_t - x||^2   s.t.   u_hat . (x - p_t) >= |p_e - p_t| / 2

    Small steps keep the iterate path genuinely iterative; the tangential
    error contracts by (1 - 2*step) per iteration.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    p_t = np.asarray(p_t, dtype=np.float64)
    p_e = np.asarray(p_e, dtype=np.float64)
    u = p_e - p_t
    gap = float(np.linalg.norm(u))
    u_hat = u / gap
    c = gap / 2.0
    x = p_e.copy()
    for _ in range(iterations):
        x = x - step * 2.0 * (x - x_t)
        violation = c - float(u_hat @ (x - p_t))
        if violation > 0:
            x = x + violation * u_hat
    return float(np.linalg.norm(x_t - x))


def qp_boundary_distance_batch(x_batch, p_t_batch, p_e_batch, iterations: int = 400, step: float = 0.1):
    """Vectorized projected gradient, one independent QP per row."""
    x_t = np.asarray(x_batch, dtype=np.float64)
    p_t = np.asarray(p_t_batch, dtype=np.float64)
    p_e = np.asarray(p_e_batch, dtype=np.float64)
    u = p_e - p_t
    gap = np.linalg.norm(u, axis=1)
    u_hat = u / gap[:, None]
    c = gap / 2.0
    x = p_e.copy()
    for _ in range(iterations):
        x = x - step * 2.0 * (x - x_t)
        violation = c - np.einsum("ij,ij->i", x - p_t, u_hat)
        x = x + np.maximum(violation, 0.0)[:, None] * u_hat
    return np.linalg.norm(x_t - x, axis=1)


def pairwise_f1(labels_a: dict, labels_b: dict) -> float:
    """O(n^2) pair-counting F1 over the same-cluster relation."""
    keys = sorted(labels_a)
    assert keys == sorted(labels_b)
    tp = fp = fn = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            same_a = labels_a[keys[i]] == labels_a[keys[j]]
            same_b = labels_b[keys[i]] == labels_b[keys[j]]
            if same_a and same_b:
                tp += 1
            elif same_a and not same_b:
                fp += 1
            elif same_b and not same_a:
                fn += 1
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 1.0


def ratio_matches(fs_query: FeatureSet, fs_train: FeatureSet, ratio: float):
    """Double-loop nearest/second-nearest ratio test."""
    out = []
    for qi in range(len(fs_query)):
        dists = sorted(
            (dist_loop(fs_query.vectors[qi], fs_train.vectors[ti]), ti)
            for ti in range(len(fs_train))
        )
        if len(dists) < 2:
            if dists and dists[0][0] < ratio:
                out.append((fs_query.ids[qi], fs_train.ids[dists[0][1]]))
            continue
        (d1, t1), (d2, _) = dists[0], dists[1]
        if d1 < ratio * d2:
            out.append((fs_query.ids[qi], fs_train.ids[t1]))
    return out


def random_feature_set(rng: np.random.Generator, n_images=None, dim=None, max_per_image=25) -> FeatureSet:
    """Random instance with uneven per-image feature counts."""
    n_images = n_images or int(rng.integers(3, 9))
    dim = dim or int(rng.choice([2, 3, 8]))
    rows = []
    for img in range(n_images):
        for k in range(int(rng.integers(5, max_per_image + 1))):
            rows.append((img, k, rng.uniform(0, 10, dim)))
    return FeatureSet.from_rows(rows)


def canonical_clusters(groups) -> tuple:
    """Clusters as sorted tuples of FeatureId, ordered by smallest member
    (a stable sort, so equal heads keep their input order)."""
    canon = [tuple(sorted(FeatureId(*fid) for fid in members)) for members in groups]
    return tuple(sorted(canon, key=lambda members: members[0]))


def canonical_cluster_bytes(clusters) -> bytes:
    """The clusters file's ``clusters`` value, written member by member."""
    body = ",".join("[" + ",".join(f"[{i},{k}]" for i, k in members) + "]" for members in clusters)
    return ("[" + body + "]\n").encode()


def clustering_fault(clusters, source_ids=None) -> str | None:
    """The first C2 or C1 fault met scanning clusters in order, as the
    validation message, or None for a valid clustering."""
    seen = set()
    for c, members in enumerate(clusters):
        images = [fid[0] for fid in members]
        for image in images:
            if images.count(image) > 1:
                return f"cluster {c} has two features of image {image} (C2)"
        for fid in members:
            if fid in seen:
                return f"feature {tuple(fid)} appears in two clusters (C1)"
            seen.add(fid)
    if source_ids is not None:
        missing, extra = set(source_ids) - seen, seen - set(source_ids)
        if missing:
            return f"feature {tuple(min(missing))} missing from clustering (C1)"
        if extra:
            return f"feature {tuple(min(extra))} not in the source feature set (C1)"
    return None


def id_fault(ids) -> tuple[str, tuple[int, int]] | None:
    """Why a list of (image, index) ids cannot be held by a FeatureSet,
    Clustering or Partition, by sets: ("negative", the first negative id in
    list order), else ("repeated", the smallest id listed twice), else None."""
    ids = [tuple(map(int, fid)) for fid in ids]
    for fid in ids:
        if fid[0] < 0 or fid[1] < 0:
            return "negative", fid
    seen, repeated = set(), set()
    for fid in ids:
        if fid in seen:
            repeated.add(fid)
        seen.add(fid)
    return ("repeated", min(repeated)) if repeated else None


def unmatched_clusters(a, b) -> tuple[tuple, tuple]:
    """Clusters of ``a`` not in ``b`` and of ``b`` not in ``a``, by set lookup."""
    set_a, set_b = set(a), set(b)
    return tuple(c for c in a if c not in set_b), tuple(c for c in b if c not in set_a)


def labels_of(clustering) -> dict:
    """Each feature id mapped to the index of its cluster."""
    return {fid: c for c, members in enumerate(clustering.clusters) for fid in members}


def agent_map(part) -> dict:
    """Each feature id of a partition mapped to its agent."""
    return dict(zip(map(FeatureId._make, part.ids.tolist()), part.assignment.tolist()))


# The tuple-per-feature implementations the package ran before its array
# ports, kept unchanged (bar the inlined dict lookups) as references.


def split_quality(clustering, part, contested=None) -> SplitReport:
    """``metrics.split_quality`` as a loop over FeatureId tuples and sets."""
    agent_of = agent_map(part)
    q_values: list[float] = []
    split_features: set[FeatureId] = set()
    for members in clustering.clusters:
        counts: dict[int, int] = {}
        for fid in members:
            if fid not in agent_of:
                raise InputError(f"feature {tuple(fid)} not covered by the partition")
            a = agent_of[fid]
            counts[a] = counts.get(a, 0) + 1
        q = max(counts.values()) / len(members)
        q_values.append(q)
        if q < 1.0:
            split_features.update(members)
    contested_clusters = sum(1 for q in q_values if q < 1.0)
    p_contested = contested_clusters / len(q_values) if q_values else 0.0

    detected_count = p_split = recall = None
    if contested is not None:
        detected = {FeatureId(*fid) for fid in contested}
        detected_count = len(detected)
        if split_features:
            p_split = detected_count / len(split_features)
            recall = len(detected & split_features) / len(split_features)
    return SplitReport(
        tuple(q_values),
        p_contested,
        contested_clusters,
        len(split_features),
        detected_count,
        p_split,
        recall,
    )


def match_counts_vs_reference(clustering, reference_image: int) -> dict[int, int]:
    """``metrics.match_counts_vs_reference`` as a loop over image sets."""
    counts: dict[int, int] = {}
    for members in clustering.clusters:
        images = {fid.image for fid in members}
        if reference_image not in images:
            continue
        for img in images:
            if img != reference_image:
                counts[img] = counts.get(img, 0) + 1
    return counts


def save_features(fs: FeatureSet, path) -> None:
    """``core.save_features`` as one formatted float at a time."""
    lines = ["# image feature v1..vF"]
    for fid, vec in zip(fs.ids, fs.vectors):
        lines.append(f"{fid.image} {fid.index} " + " ".join(repr(float(v)) for v in vec))
    Path(path).write_text("\n".join(lines) + "\n")


def write_plot_data(out: Path, m: int, fs, run) -> None:
    """``cli._write_plot_data`` with dict lookups per feature."""
    path = out.with_suffix(f".m{m}.points.csv")
    labels = labels_of(run.clustering)
    agent_of = agent_map(run.partition)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", "feature", "x0", "x1", "cluster", "agent"])
        for fid, vec in zip(fs.ids, fs.vectors):
            x0 = float(vec[0])
            x1 = float(vec[1]) if fs.dim > 1 else 0.0
            writer.writerow([fid.image, fid.index, repr(x0), repr(x1), labels[fid], agent_of[fid]])
