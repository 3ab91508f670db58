"""Core domain types, input checks and on-disk formats.

Everything downstream (matching, partitioning, the distributed harness,
metrics) is built on the types in this module. All of them are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

__all__ = [
    "InputError",
    "ParseError",
    "ValidationError",
    "ProtocolError",
    "FeatureId",
    "FeatureSet",
    "Clustering",
    "DensityTree",
    "load_features",
    "save_features",
    "load_clustering",
    "save_clustering",
    "validate_clustering",
    "canonical_json",
    "canonical_cluster_bytes",
    "timed",
]


class InputError(ValueError):
    """Bad user input: malformed files, invalid parameters, impossible requests."""


class ParseError(InputError):
    """A file could not be parsed; the message names the file and, for text
    formats, the offending line."""


class ValidationError(InputError):
    """A domain object violates its invariants (C1/C2, dimensions, ids)."""


class ProtocolError(RuntimeError):
    """An internal invariant was broken. This is a bug, not a user error."""


class FeatureId(NamedTuple):
    """Identity of one descriptor: (image id, feature index within image)."""

    image: int
    index: int


class FeatureSet:
    """All descriptors of a dataset, indexed by (image, feature index).

    Vectors are dense float64 rows kept in input order. Image ids from input
    files may be arbitrary non-negative integers; they are preserved verbatim
    in :class:`FeatureId` and mapped to contiguous slots ``0..N-1`` (sorted id
    order) for internal per-image bookkeeping.
    """

    def __init__(self, vectors: np.ndarray, ids: Sequence[FeatureId], dim: int | None = None):
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if vectors.ndim != 2:
            vectors = vectors.reshape(len(ids), -1 if len(ids) else (dim or 0))
        if dim is not None and vectors.shape[1] != dim and vectors.size:
            raise ValidationError(f"expected dimension {dim}, got {vectors.shape[1]}")
        if vectors.shape[0] != len(ids):
            raise ValidationError("vector count does not match id count")
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ValidationError("feature vectors must be finite")
        ids = tuple(FeatureId(int(i), int(k)) for i, k in ids)
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate (image, feature) id")
        for fid in ids:
            if fid.image < 0 or fid.index < 0:
                raise ValidationError(f"negative id {fid}")

        vectors.setflags(write=False)
        self._vectors = vectors
        self._ids = ids
        self._dim = int(vectors.shape[1]) if vectors.size or dim is None else int(dim)
        self._image_ids = tuple(sorted({fid.image for fid in ids}))
        slot = {img: s for s, img in enumerate(self._image_ids)}
        self._image_slots = np.array([slot[fid.image] for fid in ids], dtype=np.intp)
        # rank[r] = position of row r when features are sorted by id
        order = sorted(range(len(ids)), key=lambda r: ids[r])
        self._id_rank = np.empty(len(ids), dtype=np.intp)
        self._id_rank[order] = np.arange(len(ids))
        self._id_rank.setflags(write=False)
        self._image_slots.setflags(write=False)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int, Sequence[float]]]) -> "FeatureSet":
        rows = list(rows)
        if not rows:
            raise InputError("no features")
        vecs = np.array([r[2] for r in rows], dtype=np.float64)
        return cls(vecs, [FeatureId(r[0], r[1]) for r in rows])

    @classmethod
    def empty(cls, dim: int) -> "FeatureSet":
        return cls(np.zeros((0, dim)), [], dim=dim)

    # -- basic shape ---------------------------------------------------------

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def ids(self) -> tuple[FeatureId, ...]:
        return self._ids

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def image_ids(self) -> tuple[int, ...]:
        return self._image_ids

    @property
    def image_count(self) -> int:
        return len(self._image_ids)

    @property
    def image_slots(self) -> np.ndarray:
        """Per-row contiguous image slot in ``0..image_count-1``."""
        return self._image_slots

    @property
    def id_rank(self) -> np.ndarray:
        """Per-row rank in (image, index) sorted order; used for tie-breaks."""
        return self._id_rank

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSet):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._dim == other._dim
            and np.array_equal(self._vectors, other._vectors)
        )

    __hash__ = None  # type: ignore[assignment]

    # -- lookups -------------------------------------------------------------

    def for_images(self, image_ids: Sequence[int]) -> "FeatureSet":
        """Sub-FeatureSet keeping only the given images (row order preserved)."""
        keep = set(image_ids)
        rows = [r for r, fid in enumerate(self._ids) if fid.image in keep]
        return FeatureSet(self._vectors[rows], [self._ids[r] for r in rows], dim=self._dim)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension (min, max) of all vectors."""
        if len(self) == 0:
            raise InputError("empty feature set has no bounds")
        return self._vectors.min(axis=0), self._vectors.max(axis=0)


@dataclass(frozen=True)
class Clustering:
    """A multi-image match set: disjoint clusters of feature ids.

    Clusters are canonicalized on construction (members sorted by id,
    clusters sorted by their smallest member), so two clusterings with the
    same content compare and serialize identically no matter how they were
    assembled. ``meta`` records which algorithm and parameters produced it.
    """

    clusters: tuple[tuple[FeatureId, ...], ...]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __init__(self, clusters: Iterable[Iterable[FeatureId]], meta: Mapping[str, Any] | None = None):
        canon = []
        for members in clusters:
            members = tuple(sorted(FeatureId(*m) for m in members))
            if not members:
                raise ValidationError("empty cluster")
            canon.append(members)
        canon.sort(key=lambda c: c[0])
        object.__setattr__(self, "clusters", tuple(canon))
        object.__setattr__(self, "meta", dict(meta or {}))

    def __len__(self) -> int:
        return len(self.clusters)

    def feature_ids(self) -> list[FeatureId]:
        return [fid for members in self.clusters for fid in members]

    def labels(self) -> dict[FeatureId, int]:
        """Map each feature id to the index of its cluster."""
        out: dict[FeatureId, int] = {}
        for c, members in enumerate(self.clusters):
            for fid in members:
                out[fid] = c
        return out


@dataclass(frozen=True)
class DensityTree:
    """Per-feature parent pointers along ascending density.

    ``parent[r]`` is the row index of the nearest feature with strictly
    higher density (exact ties ordered by feature id), or -1 for density
    maxima (roots). ``edge_length[r]`` is the distance to that parent
    (NaN for roots). Following parents never revisits a feature.
    """

    ids: tuple[FeatureId, ...]
    parent: np.ndarray
    edge_length: np.ndarray
    density: np.ndarray

    @property
    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)


# -- canonical JSON helpers ---------------------------------------------------


def canonical_json(obj: Any) -> str:
    """Deterministic compact JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_cluster_bytes(clustering: Clustering) -> bytes:
    """Canonical bytes of the cluster list alone, ignoring meta.

    This is the value compared when two runs must produce "the same"
    clustering regardless of which algorithm produced it, and the value
    hashed into determinism digests.
    """
    payload = [[[int(i), int(k)] for i, k in members] for members in clustering.clusters]
    return (canonical_json(payload) + "\n").encode()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- timing -------------------------------------------------------------------


@contextmanager
def timed(into: dict[str, float], key: str) -> Iterator[None]:
    """Record the wall time of the body, in seconds, as ``into[key]``."""
    t0 = time.perf_counter()
    yield
    into[key] = time.perf_counter() - t0


# -- validation ---------------------------------------------------------------


def validate_clustering(clustering: Clustering, source: FeatureSet | None = None) -> None:
    """Check the partition conditions: C1 (cover, disjoint) and C2 (one per image).

    C2 and pairwise disjointness are always checked. The cover half of C1
    requires the source FeatureSet and is checked when one is given.
    """
    seen: set[FeatureId] = set()
    for c, members in enumerate(clustering.clusters):
        images = [fid.image for fid in members]
        if len(set(images)) != len(images):
            dup = next(i for i in images if images.count(i) > 1)
            raise ValidationError(f"cluster {c} has two features of image {dup} (C2)")
        for fid in members:
            if fid in seen:
                raise ValidationError(f"feature {tuple(fid)} appears in two clusters (C1)")
            seen.add(fid)
    if source is not None:
        missing = set(source.ids) - seen
        extra = seen - set(source.ids)
        if missing:
            fid = min(missing)
            raise ValidationError(f"feature {tuple(fid)} missing from clustering (C1)")
        if extra:
            fid = min(extra)
            raise ValidationError(f"feature {tuple(fid)} not in the source feature set (C1)")


# -- input files --------------------------------------------------------------

T = TypeVar("T")


def read_input(path: str | Path, convert: Callable[[Any], T] | None = None) -> str | T:
    """Read a UTF-8 input file, naming ``path`` in every error.

    A file that cannot be read or decoded raises InputError. With
    ``convert``, the text is parsed as JSON and the payload passed through
    ``convert``; malformed JSON or a payload of the wrong shape raises
    ParseError. Input errors raised by ``convert`` itself pass unchanged.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if convert is None:
        return text
    try:
        return convert(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    except InputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: unexpected payload ({type(exc).__name__}: {exc})") from None


def read_ids(path: str | Path, rows: Any, width: int = 2) -> list[list[int]]:
    """Check JSON rows of ``width`` ids (image, feature and, in a partition,
    agent) and return them. Each id must be a non-negative int: a float, bool
    or string raises ParseError naming ``path``, never truncated or coerced."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
            and set(map(type, chain.from_iterable(rows))) <= {int} and min(map(min, rows), default=0) >= 0):
        bad = next(r for r in rows if type(r) is not list or len(r) != width or any(type(v) is not int or v < 0 for v in r))
        raise ParseError(f"{path}: expected {width} non-negative integer ids, got {bad!r}")
    return rows


# -- descriptor text format ---------------------------------------------------
#
# One feature per line: `image_id feature_id v1 v2 ... vF`, whitespace
# separated; `#` starts a comment. Dimension is inferred from the first row.


def load_features(path: str | Path) -> FeatureSet:
    path = Path(path)
    rows: list[tuple[int, int, list[float]]] = []
    dim: int | None = None
    seen: set[FeatureId] = set()
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(f"{path}:{lineno}: expected `image feature v1..vF`, got {len(fields)} fields")
        try:
            img, idx = int(fields[0]), int(fields[1])
            vec = [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if img < 0 or idx < 0:
            raise ParseError(f"{path}:{lineno}: ids must be non-negative")
        if not all(math.isfinite(v) for v in vec):
            raise ParseError(f"{path}:{lineno}: non-finite component")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ParseError(f"{path}:{lineno}: dimension {len(vec)} != {dim} of first row")
        fid = FeatureId(img, idx)
        if fid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate feature id {tuple(fid)}")
        seen.add(fid)
        rows.append((img, idx, vec))
    if not rows:
        raise ParseError(f"{path}: no features")
    return FeatureSet.from_rows(rows)


def save_features(fs: FeatureSet, path: str | Path) -> None:
    """Write the descriptor text format; floats use repr so load is lossless."""
    lines = ["# image feature v1..vF"]
    for fid, vec in zip(fs.ids, fs.vectors):
        lines.append(f"{fid.image} {fid.index} " + " ".join(repr(float(v)) for v in vec))
    Path(path).write_text("\n".join(lines) + "\n")


# -- clustering JSON format ---------------------------------------------------


def save_clustering(clustering: Clustering, path: str | Path, source: FeatureSet | None = None) -> None:
    """Serialize canonically: `{"clusters": [[[i,k],...],...], "meta": {...}}`.

    The clustering is validated before anything is written; permuting
    clusters or members before saving cannot change the output bytes.
    """
    validate_clustering(clustering, source)
    payload = {
        "clusters": [[[int(i), int(k)] for i, k in members] for members in clustering.clusters],
        "meta": dict(clustering.meta),
    }
    Path(path).write_text(canonical_json(payload) + "\n")


def load_clustering(path: str | Path) -> Clustering:
    def convert(payload: Any) -> Clustering:
        if not isinstance(payload, dict) or "clusters" not in payload:
            raise ParseError(f"{path}: missing `clusters` key")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ParseError(f"{path}: `meta` must be an object")
        clusters = payload["clusters"]
        read_ids(path, [pair for members in clusters for pair in members])
        return Clustering([[FeatureId(i, k) for i, k in members] for members in clusters], meta)

    return read_input(path, convert)
