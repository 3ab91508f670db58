"""Feature-space partitioning for the distributed harness.

Voronoi seeds come either from plain Lloyd k-means or from a shared integer
seed (uniform draws in the data bounding box, so every agent can reproduce
the same seeds from one communicated integer). A feature's distance to a
neighboring region, :func:`bisector_distances`, is a closed-form projection
onto the bisector hyperplane of the two seeds; the quadratic program it
solves is kept in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .core import FeatureSet, InputError, ProtocolError, _id_array, _unique_order, canonical_json
from .core import read_ids, read_input, seeded_rng

__all__ = [
    "Partition",
    "kmeans_seeds",
    "random_seeds",
    "bisector_distances",
    "KMEANS_ITERATIONS",
]

KMEANS_ITERATIONS = 100


def assign_to_seeds(vectors: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Nearest-seed label per row; distance ties go to the lower agent index."""
    return cdist(vectors, seeds).argmin(axis=1).astype(np.intp)


@dataclass(frozen=True)
class Partition:
    """Voronoi seeds plus the per-feature agent assignment they induce.

    ``ids`` is a read-only ``(n, 2)`` int64 array of (image, index), row ``r``
    assigned to agent ``assignment[r]``; any sequence of id pairs is accepted.
    Coincident seeds, an agent outside ``0..m-1``, or a negative or repeated
    feature id raises InputError, so each feature has exactly one agent.
    """

    seeds: np.ndarray
    assignment: np.ndarray
    ids: np.ndarray
    method: str = "explicit"
    seed: int | None = None

    def __post_init__(self) -> None:
        seeds = np.ascontiguousarray(np.asarray(self.seeds, dtype=np.float64))
        if seeds.ndim != 2 or len(seeds) < 1:
            raise InputError("seeds must be a non-empty (m, F) array")
        if len(np.unique(seeds, axis=0)) != len(seeds):
            raise InputError("seeds must be pairwise distinct")
        assignment = np.asarray(self.assignment, dtype=np.intp)
        ids = _id_array(self.ids)
        if assignment.shape != (len(ids),):
            raise InputError("assignment must align with feature ids")
        if len(assignment) and (assignment.min() < 0 or assignment.max() >= len(seeds)):
            raise InputError("assignment indexes outside the agent range")
        _unique_order(ids, "feature {} is assigned to two agents")
        for array in (seeds, assignment, ids):
            array.setflags(write=False)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "ids", ids)

    @property
    def m(self) -> int:
        return len(self.seeds)

    def to_json(self) -> str:
        payload = {
            "seeds": self.seeds.tolist(),
            "assignment": np.column_stack([self.ids, self.assignment]).tolist(),
            "method": self.method,
            "seed": self.seed,
        }
        return canonical_json(payload)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Partition":
        """Read a partition file, naming ``path`` in every error."""
        def convert(payload: dict) -> Partition:
            rows = read_ids(path, payload["assignment"], 3)
            try:
                return cls(np.array(payload["seeds"], dtype=np.float64), rows[:, 2], rows[:, :2],
                           payload.get("method", "explicit"), payload.get("seed"))
            except InputError as exc:
                raise type(exc)(f"{path}: {exc}") from None

        return read_input(path, convert)


def _finalize_partition(fs: FeatureSet, seeds: np.ndarray, method: str, seed: int | None) -> Partition:
    if len(np.unique(seeds, axis=0)) != len(seeds):
        raise ProtocolError("seed update produced coincident seeds")
    return Partition(seeds, assign_to_seeds(fs.vectors, seeds), fs.id_array, method, seed)


def kmeans_seeds(fs: FeatureSet, m: int, seed: int = 0) -> Partition:
    """Plain Lloyd k-means: random distinct features as initial seeds, then
    up to KMEANS_ITERATIONS assign/update rounds, stopping early at a fixed
    point. An emptied cluster is reseeded at the feature farthest from its
    stale seed among those not alone in their cluster.
    """
    if m < 1:
        raise InputError(f"agent count must be >= 1, got {m}")
    if len(fs) < m:
        raise InputError(f"need at least {m} features for {m} agents, got {len(fs)}")
    X = fs.vectors
    rng = seeded_rng(seed)

    # Forgy init on pairwise-distinct vectors so no two seeds coincide.
    chosen: list[int] = []
    for r in rng.permutation(len(X)):
        if all(not np.array_equal(X[r], X[c]) for c in chosen):
            chosen.append(int(r))
        if len(chosen) == m:
            break
    if len(chosen) < m:
        raise InputError(f"only {len(chosen)} distinct feature vectors, need {m}")
    seeds = X[chosen].copy()

    labels: np.ndarray | None = None
    for _ in range(KMEANS_ITERATIONS):
        new = assign_to_seeds(X, seeds)
        # empty-cluster repair, lowest agent first; a repair never takes the
        # only member of a cluster, so it empties none (n >= m leaves a choice)
        sizes = np.bincount(new, minlength=m)
        for c in np.flatnonzero(sizes == 0).tolist():
            d = np.linalg.norm(X - seeds[c], axis=1)
            d[sizes[new] == 1] = -1.0
            far = int(np.argmax(d))
            sizes[new[far]] -= 1
            sizes[c] = 1
            seeds[c] = X[far]
            new[far] = c
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        for c in range(m):
            seeds[c] = X[labels == c].mean(axis=0)

    return _finalize_partition(fs, seeds, "kmeans", seed)


def random_seeds(fs: FeatureSet, m: int, seed: int = 0) -> Partition:
    """Seeds drawn uniformly in the data bounding box from a shared integer seed.

    Two parties holding the same seed produce identical seed lists without
    exchanging anything else. Zero-extent dimensions are widened by a small
    epsilon so the box always has volume. Uses numpy's PCG64 generator, whose
    integer-to-float stream is stable across platforms.
    """
    if m < 1:
        raise InputError(f"agent count must be >= 1, got {m}")
    lo, hi = fs.bounds()
    flat = hi - lo <= 0
    lo = lo - np.where(flat, 1e-6, 0.0)
    hi = hi + np.where(flat, 1e-6, 0.0)
    rng = seeded_rng(seed)
    seeds = rng.uniform(lo, hi, size=(m, fs.dim))
    # duplicate rows are essentially impossible; redraw deterministically if seen
    while len(np.unique(seeds, axis=0)) != len(seeds):
        _, first = np.unique(seeds, axis=0, return_index=True)
        dup = sorted(set(range(m)) - set(int(i) for i in first))
        seeds[dup] = rng.uniform(lo, hi, size=(len(dup), fs.dim))
    return _finalize_partition(fs, seeds, "random", seed)


def bisector_distances(vectors: np.ndarray, seeds: np.ndarray, t: int) -> np.ndarray:
    """(n, m) distances ``d = |p_e - p_t|/2 - û·(x - p_t)`` from rows (all of agent
    ``t``) to each agent e's bisector, with ``û`` the unit vector from ``p_t`` to
    ``p_e``; ``x + d·û`` is the nearest bisector point. Column ``t`` is +inf.

    Seeds so close that their squared gap underflows are ones
    :func:`assign_to_seeds` cannot tell apart either; every row is then taken
    to lie on their bisector, d = 0."""
    m = len(seeds)
    out = np.full((len(vectors), m), np.inf)
    for e in range(m):
        if e == t:
            continue
        u = seeds[e] - seeds[t]
        gap = np.linalg.norm(u)
        u_hat = u / gap if gap else np.zeros_like(u)
        d = gap / 2.0 - (vectors - seeds[t]) @ u_hat
        if np.any(d < -1e-9):
            raise ProtocolError(f"row assigned to agent {t} lies beyond the {t}/{e} bisector")
        out[:, e] = np.maximum(d, 0.0)
    return out
