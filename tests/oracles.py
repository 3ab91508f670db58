"""Independent reference implementations used as test oracles, and the
evaluation helpers that only the tests run.

The oracles are deliberately written as plain loops over the definitions,
sharing no code with the package internals they check; two are the
package's earlier kd passes, the references for the searches that replaced
them. The helpers at the
end (criterion 8's ratio-test baseline, match counts and PR curves) are
vectorized code moved out of the package, which no command runs.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from quickmatch.core import Clustering, FeatureId, FeatureSet, InputError
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


def gaussian_density_sums(vectors, sig_cols) -> list[float]:
    """The real Gaussian density sum of every row, to a few ulps: squared
    distances and exponents as exact fractions, each term ``math.exp`` of the
    rounded exponent, summed exactly by ``math.fsum``."""
    rows = [[Fraction(float(x)) for x in row] for row in vectors]
    s = [1 / (2 * Fraction(float(sig)) ** 2) for sig in sig_cols]
    return [
        math.fsum(math.exp(-float(sum((a - b) ** 2 for a, b in zip(x, y)) * s_j)) for y, s_j in zip(rows, s))
        for x in rows
    ]


def certified_half_widths(vectors, sig_cols, approx) -> list[float]:
    """``centralized.density_order``'s half-width W_i per row, written out
    term by term as its docstring states the bound."""
    n, dim = len(vectors), len(vectors[0])
    u, eps, z_near = 2.0**-53, 2.0**-50, 700.0

    def gamma(k):
        return k * u / (1 - k * u)

    s_max = max(1 / (2 * float(sig) ** 2) for sig in sig_cols)
    norms = [math.fsum(float(x) ** 2 for x in row) for row in vectors]
    tau = math.exp(2 - z_near)
    c_dense = (1 + eps) * (1 + gamma(n)) * math.exp(gamma(dim + 7) * z_near) - 1
    out = []
    for i in range(n):
        delta = (1 + gamma(3)) * 2 * gamma(dim + 2) * s_max * (norms[i] + max(norms)) + gamma(3) * z_near
        c = (1 + eps) * (1 + gamma(n)) * math.exp(delta) - 1
        out.append(1.01 * ((c + c_dense) * (float(approx[i]) + 2 * n * tau) / (1 - c) + 4 * n * tau))
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


def _pair_distances(vectors, rows, cols):
    """``cdist``'s bits between ``vectors[rows]`` and ``vectors[cols]``:
    squared differences summed in dimension order, then the square root."""
    acc = np.zeros(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
    for comp in np.ascontiguousarray(vectors.T):
        t = comp[rows] - comp[cols]
        acc += t * t
    return np.sqrt(acc)


def per_image_quadratic_density(vectors, image_slots, sigma):
    """The quadratic density's pass as it was before its bandwidth classes:
    one kd radius query per image, at that image's bandwidth (with a 1e-9
    margin), each row's terms summed in ascending column order. Returns the
    density, its stable order and the pairs within the smallest bandwidth:
    what ``centralized.density_values`` and ``density_order`` give."""
    n = len(vectors)
    tree = cKDTree(vectors)
    rows, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
    for slot in np.unique(image_slots):
        members = np.flatnonzero(image_slots == slot)
        near = cKDTree(vectors[members]).sparse_distance_matrix(
            tree, float(sigma[slot]) * (1 + 1e-9), output_type="ndarray")
        rows.append(near["j"])
        cols.append(members[near["i"]])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(rows * n + cols)
    rows, cols = rows[order], cols[order]
    d = _pair_distances(vectors, rows, cols)
    r = d / sigma[image_slots][cols]
    density = np.bincount(rows, weights=np.maximum(0.0, 1.0 - r * r), minlength=n)
    keep = d <= sigma[image_slots].min(initial=math.inf)
    return density, np.argsort(density, kind="stable"), (rows[keep], cols[keep], d[keep])


def k_doubling_tree(vectors, by_rank, near=None):
    """``centralized.tree_arrays`` as it was before its mode search: rows
    left by ``near`` ask a kd-tree over every feature for their k nearest
    neighbours, k doubling from 16 to 256, then scan every denser feature
    exactly, in blocks of about 8 MiB."""
    slack, block_bytes = 1e-9, 8 << 20
    n = len(vectors)
    parent = np.full(n, -1, dtype=np.intp)
    edge = np.full(n, np.nan)
    rank = np.empty(n, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    todo = np.arange(n)
    if near is not None:
        rows, cols, d = near
        denser = (rank[cols] > rank[rows]) & (d < math.inf)
        rows, cols, d = rows[denser], cols[denser], d[denser]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        best = np.minimum.reduceat(d, starts)
        at_best = d == np.repeat(best, np.diff(starts, append=len(d)))
        rows, cols = rows[at_best], cols[at_best]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        parent[rows[first]] = cols[first]
        edge[rows[first]] = best
        todo = np.flatnonzero(parent < 0)

    def settle(rows, cand, d):
        d = np.where(rank[cand] > rank[rows][:, None], d, np.inf)
        best = d.min(axis=1)
        pick = np.where(d == best[:, None], cand, np.iinfo(np.intp).max).argmin(axis=1)
        found = np.isfinite(best)
        parent[rows[found]] = cand[found, pick[found]]
        edge[rows[found]] = best[found]
        return best

    tree = cKDTree(vectors)
    k = 16
    while len(todo) and k <= 256:
        kk = min(k, n)
        kd, nbr = tree.query(vectors[todo], k=kk)
        nbr = nbr.reshape(len(todo), kk)
        best = settle(todo, nbr, _pair_distances(vectors, todo[:, None], nbr))
        if kk == n:
            return parent, edge
        todo = todo[~(kd.reshape(len(todo), kk)[:, -1] > best * (1 + slack))]
        k *= 2
    todo = todo[np.argsort(-rank[todo])]
    s = 0
    while s < len(todo):
        e = s + 1
        while e < len(todo) and (e + 1 - s) * (n - rank[todo[e]]) * 8 <= block_bytes:
            e += 1
        rows = todo[s:e]
        cols = by_rank[rank[rows[-1]] + 1:]
        if len(cols):
            settle(rows, np.broadcast_to(cols, (len(rows), len(cols))), cdist(vectors[rows], vectors[cols]))
        s = e
    return parent, edge


def reference_merge_labels(parent, edge_length, image_slots, sigma, rho, id_rank):
    """``centralized.merge_labels``' loop over every tree edge, as it was
    written over dicts and ndarray elements; each row's union-find root."""
    n = len(parent)
    uf = np.arange(n, dtype=np.intp)

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    images = {r: {int(image_slots[r])} for r in range(n)}
    min_sigma = {r: float(sigma[image_slots[r]]) for r in range(n)}
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((id_rank[children], edge_length[children]))]
    for child in order:
        a, b = find(int(child)), find(int(parent[child]))
        if a == b:
            continue
        ia, ib = images[a], images[b]
        if ia & ib:
            continue
        threshold = rho * min(min_sigma[a], min_sigma[b])
        if edge_length[child] <= threshold:
            if len(ia) < len(ib):
                a, b = b, a
                ia, ib = ib, ia
            uf[b] = a
            ia |= ib
            min_sigma[a] = min(min_sigma[a], min_sigma[b])
            del images[b], min_sigma[b]
    return np.array([find(r) for r in range(n)], dtype=np.intp)


def smallest_row_labels(labels) -> list[int]:
    """Each row's cluster named by the cluster's smallest row, by dict scan:
    the same for any two labelings of the same partition."""
    smallest: dict[int, int] = {}
    for row, label in enumerate(np.asarray(labels).tolist()):
        smallest.setdefault(label, row)
    return [smallest[label] for label in np.asarray(labels).tolist()]


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


@st.composite
def small_feature_sets(draw) -> FeatureSet:
    """Property-test input: 1-4 images of 1-8 features in 1-3 dimensions,
    either on an integer grid (many ties) or floats in [-10, 10]."""
    dim = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    if draw(st.booleans()):
        coord = st.integers(0, 4).map(float)
    else:
        coord = st.floats(-10, 10, allow_nan=False)
    vectors = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=sum(counts), max_size=sum(counts)))
    ids = [(img, k) for img, count in enumerate(counts) for k in range(count)]
    return FeatureSet(np.array(vectors), ids)


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


def clustering_repeat(ids, labels) -> str | None:
    """A Clustering's message for ids that list a feature twice, by list scan:
    the smallest repeated id, "listed twice in one cluster" when its first two
    listings share a label, else "appears in two clusters (C1)"; None when no
    id repeats."""
    fault = id_fault(ids)
    if fault is None or fault[0] != "repeated":
        return None
    first, second = [label for fid, label in zip(ids, labels) if tuple(map(int, fid)) == fault[1]][:2]
    if first == second:
        return f"feature {fault[1]} is listed twice in one cluster"
    return f"feature {fault[1]} appears in two clusters (C1)"


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


def match_counts_loop(clustering, reference_image: int) -> dict[int, int]:
    """:func:`match_counts_vs_reference` as a loop over image sets."""
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


# -- criterion 8's pairwise baseline and detector curves ------------------------
# No command runs these; the acceptance suite compares the matcher against the
# ratio-test baseline with them.


def for_images(fs: FeatureSet, image_ids: Sequence[int]) -> FeatureSet:
    """Sub-FeatureSet keeping only the given images."""
    keep = np.isin(fs.id_array[:, 0], np.asarray(list(image_ids), dtype=np.int64))
    return FeatureSet(fs.vectors[keep], fs.id_array[keep])


def baseline_ratio_match(
    fs_query: FeatureSet, fs_train: FeatureSet, ratio: float = 0.75
) -> list[tuple[FeatureId, FeatureId]]:
    """Pairwise nearest-neighbor matching with the classic ratio test.

    Exhaustive search: each query feature matches its nearest train feature
    iff d1 < ratio * d2, with d2 the second-nearest distance. A query feature
    exactly tied between two train features is rejected. Degenerate mode:
    with fewer than two train features there is no second neighbor, and
    ``ratio`` is reused as an absolute distance threshold (d1 < ratio).
    """
    if fs_query.dim != fs_train.dim:
        raise InputError(f"dimension mismatch: {fs_query.dim} vs {fs_train.dim}")
    if not (0 < ratio):
        raise InputError("ratio must be positive")
    if len(fs_query) == 0 or len(fs_train) == 0:
        return []
    d = cdist(fs_query.vectors, fs_train.vectors)
    rows = np.arange(len(fs_query))
    nearest = d.argmin(axis=1)
    d1 = d[rows, nearest]
    d[rows, nearest] = np.inf  # the row minimum is now the second-nearest distance
    keep = d1 < (ratio * d.min(axis=1) if len(fs_train) > 1 else ratio)
    query_ids, train_ids = fs_query.ids, fs_train.ids
    return [(query_ids[q], train_ids[t]) for q, t in zip(np.flatnonzero(keep).tolist(), nearest[keep].tolist())]


def match_counts_vs_reference(clustering: Clustering, reference_image: int) -> dict[int, int]:
    """Per-image count of clusters joining that image with the reference one.

    Under the one-feature-per-image rule each such cluster contributes
    exactly one matched feature pair, so this is the matched-feature count
    the threshold detector consumes.
    """
    ids, cluster_of = clustering.id_array, clustering.cluster_of
    images = ids[:, 0]
    joined = np.isin(cluster_of, cluster_of[images == reference_image])
    # Members are sorted by id, so a cluster's features of one image are
    # neighbours: count each (cluster, image) pair once.
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (images[1:] != images[:-1]) | (cluster_of[1:] != cluster_of[:-1])
    counted, counts = np.unique(images[first & joined & (images != reference_image)], return_counts=True)
    return dict(zip(counted.tolist(), counts.tolist()))


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall points of a count-threshold detector, plus the
    trapezoidal area under the curve over the recall axis."""

    points: tuple[tuple[float, float, float], ...]  # (threshold, precision, recall)
    auc: float


def pr_curve(
    counts: Sequence[float] | Mapping[int, float],
    truth: Sequence[bool] | Mapping[int, bool],
    thresholds: Sequence[float] | None = None,
) -> PRCurve:
    """Precision and recall of the detector "match exists iff count > t".

    ``counts`` and ``truth`` are aligned per image (mappings are joined on
    their keys). Default thresholds sweep every distinct count plus -1, so
    the curve spans everything-detected through nothing-detected. Precision
    at zero detections is taken as 1.
    """
    if isinstance(counts, Mapping) or isinstance(truth, Mapping):
        if not (isinstance(counts, Mapping) and isinstance(truth, Mapping)):
            raise InputError("counts and truth must both be mappings or both sequences")
        keys = sorted(truth.keys())
        count_arr = np.array([counts.get(k, 0) for k in keys], dtype=np.float64)
        truth_arr = np.array([bool(truth[k]) for k in keys])
    else:
        if len(counts) != len(truth):
            raise InputError("counts and truth must have equal length")
        count_arr = np.asarray(counts, dtype=np.float64)
        truth_arr = np.asarray(truth, dtype=bool)
    positives = int(truth_arr.sum())
    if positives == 0:
        raise InputError("no positive ground truth; recall is undefined")
    if thresholds is None:
        thresholds = sorted(set(float(c) for c in count_arr) | {-1.0})
    else:
        thresholds = sorted(float(t) for t in thresholds)

    points: list[tuple[float, float, float]] = []
    for t in sorted(thresholds, reverse=True):
        detected = count_arr > t
        tp = int((detected & truth_arr).sum())
        n_det = int(detected.sum())
        precision = tp / n_det if n_det else 1.0
        recall = tp / positives
        points.append((t, precision, recall))

    auc = 0.0
    for (_, p0, r0), (_, p1, r1) in zip(points, points[1:]):
        auc += (r1 - r0) * (p1 + p0) / 2.0
    return PRCurve(tuple(points), auc)
