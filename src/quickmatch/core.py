"""Core domain types, input checks and on-disk formats.

Everything downstream (matching, partitioning, the distributed harness,
metrics) is built on the types in this module. All of them are immutable
after construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
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


_ID_END = 1 << 63  # ids are stored as int64, so each must lie in [0, 2**63)


def _id_array(ids: Sequence[FeatureId] | np.ndarray) -> np.ndarray:
    """``ids`` as a new ``(n, 2)`` int64 array; an id outside [0, 2**63)
    raises ValidationError."""
    if len(ids) == 0:
        return np.empty((0, 2), dtype=np.int64)
    try:
        out = np.array(ids, dtype=np.int64)
    except OverflowError:
        bad = next(f for f in ids if not all(-_ID_END <= int(v) < _ID_END for v in f))
        raise ValidationError(f"id {tuple(map(int, bad))} does not fit in int64") from None
    if out.shape != (len(ids), 2):
        raise ValidationError(f"expected (image, feature) id pairs, got an array of shape {out.shape}")
    negative = (out < 0).any(axis=1)
    if negative.any():
        raise ValidationError(f"negative id {tuple(out[negative][0].tolist())}")
    return out


def _sorted_order(id_array: np.ndarray) -> np.ndarray:
    """Row order that sorts ``(n, 2)`` ids by (image, index); stable."""
    return np.lexsort((id_array[:, 1], id_array[:, 0]))


def _repeats(sorted_ids: np.ndarray) -> np.ndarray:
    """Mask over ``sorted_ids[1:]``: True where a row equals the one before."""
    return (sorted_ids[1:, 0] == sorted_ids[:-1, 0]) & (sorted_ids[1:, 1] == sorted_ids[:-1, 1])


def _unique_order(id_array: np.ndarray, message: str) -> np.ndarray:
    """:func:`_sorted_order` of ids that must be distinct; a repeat raises
    ValidationError with ``message`` formatted with the smallest repeated id."""
    order = _sorted_order(id_array)
    repeated = _repeats(id_array.take(order, axis=0))  # take: several times faster than id_array[order]
    if repeated.any():
        raise ValidationError(message.format(tuple(id_array[order[np.argmax(repeated)]].tolist())))
    return order


def _find_rows(keys: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The row of ``keys`` holding each row of ``ids`` (of repeated keys, the last), or -1."""
    n = len(keys)
    both = np.concatenate([keys, ids])
    order = np.lexsort((both[:, 1], both[:, 0]))  # stable: equal rows stay in row order, keys first
    # The last key at or before each sorted position is the only one that can equal it.
    last = order[np.maximum.accumulate(np.where(order < n, np.arange(len(order)), 0))]
    hit = (order >= n) & (last < n) & (both[last] == both[order]).all(axis=1)
    out = np.full(len(ids), -1, dtype=np.intp)
    out[order[hit] - n] = last[hit]
    return out


class FeatureSet:
    """All descriptors of a dataset, indexed by (image, feature index).

    Vectors are dense float64 rows and ids one ``(n, 2)`` int64 array
    (:attr:`id_array`), both kept in input order. Image ids from input files
    may be arbitrary integers in [0, 2**63); they are preserved verbatim and
    mapped to contiguous slots ``0..N-1`` (sorted id order) for internal
    per-image bookkeeping.
    """

    def __init__(self, vectors: np.ndarray, ids: Sequence[FeatureId] | np.ndarray, dim: int | None = None):
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if vectors.ndim != 2:
            vectors = vectors.reshape(len(ids), -1 if len(ids) else (dim or 0))
        if dim is not None and vectors.shape[1] != dim and vectors.size:
            raise ValidationError(f"expected dimension {dim}, got {vectors.shape[1]}")
        if vectors.shape[0] != len(ids):
            raise ValidationError("vector count does not match id count")
        if vectors.size and not np.all(np.isfinite(vectors)):
            raise ValidationError("feature vectors must be finite")
        id_array = _id_array(ids)
        order = _unique_order(id_array, "duplicate (image, feature) id {}")

        self._vectors = vectors
        self._id_array = id_array
        self._ids: tuple[FeatureId, ...] | None = None
        self._dim = int(vectors.shape[1]) if vectors.size or dim is None else int(dim)
        image_ids, slots = np.unique(id_array[:, 0], return_inverse=True)
        self._image_ids = tuple(image_ids.tolist())
        self._image_slots = slots.astype(np.intp, copy=False).reshape(-1)
        # rank[r] = position of row r when features are sorted by id
        self._id_rank = np.empty(len(id_array), dtype=np.intp)
        self._id_rank[order] = np.arange(len(id_array))
        for array in (vectors, id_array, self._image_slots, self._id_rank):
            array.setflags(write=False)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int, Sequence[float]]]) -> "FeatureSet":
        rows = list(rows)
        if not rows:
            raise InputError("no features")
        vecs = np.array([r[2] for r in rows], dtype=np.float64)
        return cls(vecs, [(r[0], r[1]) for r in rows])

    @classmethod
    def empty(cls, dim: int) -> "FeatureSet":
        return cls(np.zeros((0, dim)), [], dim=dim)

    # -- basic shape ---------------------------------------------------------

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def id_array(self) -> np.ndarray:
        """Read-only ``(n, 2)`` int64 array of (image, index), one row per feature."""
        return self._id_array

    @property
    def ids(self) -> tuple[FeatureId, ...]:
        """The ids as :class:`FeatureId` tuples, built on first use."""
        if self._ids is None:
            self._ids = tuple(map(FeatureId._make, self._id_array.tolist()))
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
        return len(self._id_array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSet):
            return NotImplemented
        return (
            np.array_equal(self._id_array, other._id_array)
            and self._dim == other._dim
            and np.array_equal(self._vectors, other._vectors)
        )

    __hash__ = None  # type: ignore[assignment]

    # -- lookups -------------------------------------------------------------

    def for_images(self, image_ids: Sequence[int]) -> "FeatureSet":
        """Sub-FeatureSet keeping only the given images (row order preserved)."""
        keep = np.isin(self._id_array[:, 0], np.asarray(list(image_ids), dtype=np.int64))
        return FeatureSet(self._vectors[keep], self._id_array[keep], dim=self._dim)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension (min, max) of all vectors."""
        if len(self) == 0:
            raise InputError("empty feature set has no bounds")
        return self._vectors.min(axis=0), self._vectors.max(axis=0)


class Clustering:
    """A multi-image match set: disjoint clusters of feature ids. A feature
    listed twice raises ValidationError; :func:`validate_clustering` checks C2.

    Clusters are canonicalized on construction (members sorted by id,
    clusters sorted by their smallest member), so two clusterings with the
    same content compare and serialize identically no matter how they were
    assembled. They are stored as arrays: :attr:`id_array` holds every
    member id, cluster after cluster, and cluster ``c`` is rows
    ``offsets[c]:offsets[c + 1]`` of it. ``clusters`` gives the same content
    as tuples of :class:`FeatureId`, built on first use. ``meta`` records
    which algorithm and parameters produced it.
    """

    def __init__(self, clusters: Iterable[Iterable[FeatureId]], meta: Mapping[str, Any] | None = None):
        groups = [list(members) for members in clusters]
        if not all(groups):
            raise ValidationError("empty cluster")
        labels = np.repeat(np.arange(len(groups)), list(map(len, groups)))
        self._canonicalize(_id_array(list(chain.from_iterable(groups))), labels, meta)

    @classmethod
    def from_labels(
        cls, id_array: np.ndarray, labels: np.ndarray, meta: Mapping[str, Any] | None = None
    ) -> "Clustering":
        """One cluster per distinct value of ``labels``: row ``r`` of the
        ``(n, 2)`` ``id_array`` belongs to the cluster labelled ``labels[r]``."""
        self = cls.__new__(cls)
        self._canonicalize(_id_array(id_array), np.asarray(labels).reshape(-1), meta)
        return self

    def _canonicalize(self, ids: np.ndarray, labels: np.ndarray, meta: Mapping[str, Any] | None) -> None:
        if len(labels) != len(ids):
            raise ValidationError(f"{len(labels)} labels for {len(ids)} ids")
        n = len(ids)
        rank = np.empty(n, dtype=np.int64)
        rank[_unique_order(ids, "feature {} appears in two clusters (C1)")] = np.arange(n)
        distinct, group = np.unique(labels, return_inverse=True)
        group = group.reshape(-1)
        head = np.full(len(distinct), n, dtype=np.int64)
        np.minimum.at(head, group, rank)  # rank of each cluster's smallest member
        key = head[group]
        order = np.lexsort((rank, key))
        self._id_array = ids[order]
        self._offsets = np.append(np.flatnonzero(np.diff(key[order], prepend=-1)), n)
        self._id_array.setflags(write=False)
        self._offsets.setflags(write=False)
        self._clusters: tuple[tuple[FeatureId, ...], ...] | None = None
        self.meta = dict(meta or {})

    @property
    def id_array(self) -> np.ndarray:
        """Read-only ``(n, 2)`` int64 member ids in canonical order."""
        return self._id_array

    @property
    def offsets(self) -> np.ndarray:
        """Read-only start row of each cluster in :attr:`id_array`, then its length."""
        return self._offsets

    @property
    def cluster_of(self) -> np.ndarray:
        """The cluster index of each row of :attr:`id_array`."""
        return np.repeat(np.arange(len(self)), np.diff(self._offsets))

    @property
    def clusters(self) -> tuple[tuple[FeatureId, ...], ...]:
        if self._clusters is None:
            flat = list(map(FeatureId._make, self._id_array.tolist()))
            bounds = self._offsets.tolist()
            self._clusters = tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._clusters

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._id_array, other._id_array)
            and self.meta == other.meta
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Clustering(clusters={self.clusters!r}, meta={self.meta!r})"


@dataclass(frozen=True)
class DensityTree:
    """Per-feature parent pointers along ascending density.

    ``parent[r]`` is the row index of the nearest feature with strictly
    higher density (exact ties ordered by feature id), or -1 for density
    maxima (roots). ``edge_length[r]`` is the distance to that parent
    (NaN for roots). Following parents never revisits a feature.
    """

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
    flat = clustering.id_array.tolist()
    bounds = clustering.offsets.tolist()
    return (canonical_json([flat[a:b] for a, b in zip(bounds, bounds[1:])]) + "\n").encode()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator for a user-given seed, which must be >= 0."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


# -- timing -------------------------------------------------------------------


@contextmanager
def timed(into: dict[str, float], key: str) -> Iterator[None]:
    """Record the wall time of the body, in seconds, as ``into[key]``."""
    t0 = time.perf_counter()
    yield
    into[key] = time.perf_counter() - t0


# -- validation ---------------------------------------------------------------


def validate_clustering(clustering: Clustering, source: FeatureSet | None = None) -> None:
    """Check C2 (one feature per image in a cluster) and, given the source
    FeatureSet, the cover half of C1; disjointness holds by construction."""
    ids, cluster_of = clustering.id_array, clustering.cluster_of
    # Members are sorted by id, so two features of one image in a cluster are
    # neighbours; report the first cluster that breaks C2.
    c2 = np.flatnonzero((ids[1:, 0] == ids[:-1, 0]) & (cluster_of[1:] == cluster_of[:-1]))
    if c2.size:
        raise ValidationError(f"cluster {cluster_of[c2[0]]} has two features of image {ids[c2[0], 0]} (C2)")
    if source is None:
        return
    src = source.id_array
    if np.array_equal(ids[_sorted_order(ids)], src[_sorted_order(src)]):
        return
    seen, known = set(map(tuple, ids.tolist())), set(map(tuple, src.tolist()))
    if known - seen:
        raise ValidationError(f"feature {min(known - seen)} missing from clustering (C1)")
    raise ValidationError(f"feature {min(seen - known)} not in the source feature set (C1)")


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


def read_ids(path: str | Path, rows: Any, width: int = 2) -> np.ndarray:
    """Check JSON rows of ``width`` ids (image, feature and, in a partition,
    agent) and return them as an ``(n, width)`` int64 array. Each id must be
    an int in [0, 2**63): a float, bool or string raises ParseError naming
    ``path``, never truncated or coerced, and so does an id int64 cannot hold."""
    ids = None
    if (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        try:
            ids = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=width * len(rows)).reshape(-1, width)
        except OverflowError:
            pass
    if ids is None or (ids < 0).any():
        bad = next(
            r for r in rows
            if type(r) is not list or len(r) != width or any(type(v) is not int or not 0 <= v < _ID_END for v in r)
        )
        raise ParseError(f"{path}: expected {width} integer ids in [0, 2**63), got {bad!r}")
    return ids


# -- descriptor text format ---------------------------------------------------
#
# One feature per line: `image_id feature_id v1 v2 ... vF`, whitespace
# separated; `#` starts a comment. Dimension is inferred from the first row.


def load_features(path: str | Path) -> FeatureSet:
    """Parse a descriptor file in one ``np.loadtxt`` pass.

    A file that pass rejects, or whose values fail a FeatureSet check, is
    parsed again line by line by :func:`_parse_lines`, which raises the
    ParseError naming the first bad line. Every value the fast pass accepts,
    the line parser reads the same, bit for bit.
    """
    path = Path(path)
    lines = read_input(path).splitlines()
    first = next((fields for fields in (line.split("#", 1)[0].split() for line in lines) if fields), [])
    if len(first) >= 3:
        dtype = np.dtype([("image", np.int64), ("index", np.int64), ("v", np.float64, (len(first) - 2,))])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
            return FeatureSet(rows["v"], np.stack([rows["image"], rows["index"]], axis=1))
        except (ValueError, Warning):  # the line parser names the fault, or reads what numpy would not
            pass
    return _parse_lines(path, lines)


def _parse_lines(path: Path, lines: Sequence[str]) -> FeatureSet:
    """The reference parser: one line at a time, so every error names its line."""
    rows: list[tuple[int, int, list[float]]] = []
    dim: int | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
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
        if img >= _ID_END or idx >= _ID_END:
            raise ParseError(f"{path}:{lineno}: ids must be below 2**63")
        if not all(math.isfinite(v) for v in vec):
            raise ParseError(f"{path}:{lineno}: non-finite component")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ParseError(f"{path}:{lineno}: dimension {len(vec)} != {dim} of first row")
        if (img, idx) in seen:
            raise ParseError(f"{path}:{lineno}: duplicate feature id {(img, idx)}")
        seen.add((img, idx))
        rows.append((img, idx, vec))
    if not rows:
        raise ParseError(f"{path}: no features")
    return FeatureSet.from_rows(rows)


def save_features(fs: FeatureSet, path: str | Path) -> None:
    """Write the descriptor text format; floats use repr so load is lossless."""
    with Path(path).open("w") as fh:
        fh.write("# image feature v1..vF\n")
        rows = zip(fs.id_array.tolist(), fs.vectors)  # one row's floats at a time, so memory stays flat
        fh.writelines(f"{i} {k} {' '.join(map(repr, vec.tolist()))}\n" for (i, k), vec in rows)


# -- clustering JSON format ---------------------------------------------------


def save_clustering(clustering: Clustering, path: str | Path, source: FeatureSet | None = None) -> bytes:
    """Serialize canonically: `{"clusters": [[[i,k],...],...], "meta": {...}}`.

    The clustering is validated before anything is written; permuting
    clusters or members before saving cannot change the output bytes.
    Returns :func:`canonical_cluster_bytes` of the clustering, which the file
    embeds: `"clusters"` sorts before `"meta"`, so the file is the
    canonical JSON of the whole payload.
    """
    validate_clustering(clustering, source)
    clusters = canonical_cluster_bytes(clustering)
    meta = canonical_json(dict(clustering.meta)).encode()
    Path(path).write_bytes(b'{"clusters":' + clusters[:-1] + b',"meta":' + meta + b"}\n")
    return clusters


def load_clustering(path: str | Path) -> Clustering:
    """Read a clustering file, naming ``path`` in any error, the
    :class:`Clustering` constructor's included (a feature listed twice). C2
    and cover are left to :func:`validate_clustering`."""

    def convert(payload: Any) -> Clustering:
        if not isinstance(payload, dict) or "clusters" not in payload:
            raise ParseError(f"{path}: missing `clusters` key")
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise ParseError(f"{path}: `meta` must be an object")
        clusters = payload["clusters"]
        ids = read_ids(path, list(chain.from_iterable(clusters)))
        sizes = list(map(len, clusters))
        if 0 in sizes:
            raise ValidationError(f"{path}: empty cluster")
        try:
            return Clustering.from_labels(ids, np.repeat(np.arange(len(sizes)), sizes), meta)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    return read_input(path, convert)
