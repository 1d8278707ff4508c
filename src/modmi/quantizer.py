"""K-means vector quantization: turn continuous feature streams into
cluster-id label sequences.

Training is kmeans++ initialization followed by Lloyd iterations (squared
Euclidean), fully deterministic given (data, k, seed, tol, max_iter,
normalize): the RNG is PCG64(seed), assignment ties break to the lowest
centroid index, centroid sums use a fixed chunked order, and empty clusters
are repaired by stealing the point currently farthest from its centroid.
Seeding's D^2 distances and every assignment are bit-identical to the
fixed-order per-dimension loop, whatever BLAS computes for the prefilters.
A fitted codebook carries the training rows' labels from the last Lloyd
pass, so a caller that quantizes its training data need not assign again.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import DataError, FormatError, InfeasibleError
from .ingestion import FeatureMatrix, LabelSequence

_KMC_MAGIC = b"KMC1"

RNG_NAME = "pcg64"  # generator recorded in reports


@dataclass(frozen=True)
class Codebook:
    """Trained K-means model: k centroids plus training metadata.

    ``normalization`` holds per-dimension (mean, stddev) float32 pairs applied
    before distance computation, or None.  Training metadata
    (``iterations_run``, ``final_distortion``, ``distortion_history``,
    ``labels``) is not stored in the codebook file and is None on a loaded
    codebook.  ``labels`` are the training rows' labels from the last Lloyd
    pass, equal to ``assign(cb, x).symbols`` on the training data; they are
    None when that pass repaired an empty cluster, since a repair moves a
    centroid after the labels were computed.
    """

    centroids: np.ndarray  # (k, d) float32
    seed: int
    normalization: np.ndarray | None = None  # (d, 2) float32
    iterations_run: int | None = None
    final_distortion: float | None = None
    distortion_history: tuple[float, ...] | None = None
    labels: np.ndarray | None = field(default=None, repr=False)  # (L,) int64

    def __post_init__(self):
        centroids = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if centroids.ndim != 2 or centroids.shape[0] < 1 or centroids.shape[1] < 1:
            raise DataError(f"centroids must be (k >= 1, d >= 1), got {centroids.shape}")
        if not np.all(np.isfinite(centroids)):
            raise DataError("non-finite centroid")
        if self.final_distortion is not None and self.final_distortion < 0:
            raise DataError("final_distortion must be >= 0")
        centroids.setflags(write=False)
        object.__setattr__(self, "centroids", centroids)
        if self.normalization is not None:
            norm = np.ascontiguousarray(self.normalization, dtype=np.float32)
            if norm.shape != (centroids.shape[1], 2):
                raise DataError(f"normalization must be (d, 2), got {norm.shape}")
            if not (np.all(np.isfinite(norm)) and np.all(norm[:, 1] > 0)):
                raise DataError("normalization must be finite with every stddev > 0")
            norm.setflags(write=False)
            object.__setattr__(self, "normalization", norm)
        if self.labels is not None:
            labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dims(self) -> int:
        return self.centroids.shape[1]


def _normalized_f64(values: np.ndarray, normalization: np.ndarray | None) -> np.ndarray:
    x = values.astype(np.float64)
    if normalization is not None:
        mean = normalization[:, 0].astype(np.float64)
        std = normalization[:, 1].astype(np.float64)
        x = (x - mean) / std
    return np.ascontiguousarray(x)


def _fit_normalization(values: np.ndarray) -> np.ndarray:
    mean = values.astype(np.float64).mean(axis=0)
    std = values.astype(np.float64).std(axis=0)
    std[std.astype(np.float32) == 0.0] = 1.0  # constant dims map to 0, not a division by 0
    return np.stack([mean, std], axis=1).astype(np.float32)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """kmeans++ seeding: first center uniform, then D^2 sampling."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[int(rng.integers(n))]
    d2 = _kernels.ClosestDist2(x, centers[0])
    closest = d2.closest
    cum = np.empty(n)
    for c in range(1, k):
        np.cumsum(closest, out=cum)
        total = cum[-1]
        if total == 0.0:  # every row equals one of the c distinct centers
            raise InfeasibleError(f"infeasible k: {k} clusters but only {c} distinct rows")
        r = rng.random() * total
        idx = int(np.searchsorted(cum, r, side="right"))
        idx = min(idx, n - 1)
        while closest[idx] == 0.0:  # fp edge: never seed on an existing center
            idx = (idx + 1) % n
        centers[c] = x[idx]
        if c + 1 < k:  # no centre is sampled after the last one
            d2.add(centers[c])
    return centers


def _repair_empty(x, centroids, labels, dist2, counts):
    """Give each empty cluster the point farthest from its current centroid.

    Mutates all four arrays; loops until every cluster owns a point.
    """
    for _ in range(centroids.shape[0] + 1):
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return
        for e in empty:
            far = int(np.argmax(dist2))
            if dist2[far] == 0.0:
                raise DataError("cannot repair empty cluster: all points coincide with centroids")
            old = labels[far]
            counts[old] -= 1
            counts[e] = 1
            labels[far] = e
            centroids[e] = x[far]
            dist2[far] = 0.0
    raise DataError("empty-cluster repair did not converge")


def fit(
    x: FeatureMatrix,
    k: int,
    seed: int = 0,
    tol: float = 1e-4,
    max_iter: int = 300,
    normalize: bool = False,
) -> Codebook:
    """Train a codebook on ``x``.

    Stops when the relative distortion decrease falls below ``tol`` or after
    ``max_iter`` assignment passes.  Distortion is the mean squared distance
    of points to their assigned centroids (in normalized space when
    ``normalize`` is on) and never increases between iterations.  A ``k``
    above the number of distinct rows raises InfeasibleError.  The keyword
    defaults equal AnalysisConfig's.
    """
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")
    if not 0 < tol < math.inf:
        raise DataError(f"tol must be finite and > 0, got {tol}")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if not 0 <= int(seed) < 2**64:
        raise DataError(f"seed must fit an unsigned 64-bit integer, got {seed}")

    n = x.rows
    if k > n:  # before seeding allocates k centres
        raise InfeasibleError(f"infeasible k: {k} clusters but only {n} rows")

    normalization = _fit_normalization(x.values) if normalize else None
    data = _normalized_f64(x.values, normalization)
    rng = np.random.Generator(np.random.PCG64(int(seed)))

    # f32 rounding keeps in-memory centroids identical to the saved codebook.
    centroids = _kmeanspp_init(data, k, rng).astype(np.float32)
    history: list[float] = []
    labels = None
    for _ in range(max_iter):
        if labels is not None:  # update step for every pass after the first
            sums, counts = _kernels.accumulate_means(data, labels, k)
            centroids = (sums / counts[:, None]).astype(np.float32)
        labels, dist2 = _kernels.assign_labels(data, centroids.astype(np.float64))
        counts = np.bincount(labels, minlength=k)
        repaired = bool((counts == 0).any())
        if repaired:
            centroids64 = centroids.astype(np.float64)
            _repair_empty(data, centroids64, labels, dist2, counts)
            centroids = centroids64.astype(np.float32)
        distortion = float(dist2.sum()) / n
        if history and distortion > history[-1] * (1 + 1e-6) + 1e-12:
            raise AssertionError(f"distortion increased: {history[-1]} -> {distortion}")
        converged = bool(history) and (history[-1] - distortion) < tol * history[-1]
        history.append(distortion)
        if converged or distortion == 0.0:
            break

    return Codebook(
        centroids=centroids,
        seed=int(seed),
        normalization=normalization,
        iterations_run=len(history),
        final_distortion=history[-1],
        distortion_history=tuple(history),
        labels=None if repaired else labels,
    )


def assign(cb: Codebook, x: FeatureMatrix) -> LabelSequence:
    """Label every frame of ``x`` with its nearest centroid's index."""
    if x.dims != cb.dims:
        raise DataError(f"dimension mismatch: features have {x.dims} dims, codebook {cb.dims}")
    data = _normalized_f64(x.values, cb.normalization)
    labels, _ = _kernels.assign_labels(data, cb.centroids.astype(np.float64))
    return LabelSequence(labels, cb.k, x.sample_rate_hz, x.modality_tag)


def codebook_to_bytes(cb: Codebook) -> bytes:
    """Serialize to the KMC1 wire format."""
    parts = [
        _KMC_MAGIC,
        struct.pack("<IIQB", cb.k, cb.dims, cb.seed, 1 if cb.normalization is not None else 0),
    ]
    if cb.normalization is not None:
        parts.append(cb.normalization.astype("<f4").tobytes(order="C"))
    parts.append(cb.centroids.astype("<f4").tobytes(order="C"))
    return b"".join(parts)


def save_codebook(cb: Codebook, path) -> None:
    Path(path).write_bytes(codebook_to_bytes(cb))


def load_codebook(path) -> Codebook:
    raw = Path(path).read_bytes()
    if raw[:4] != _KMC_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {_KMC_MAGIC!r}")
    if len(raw) < 21:
        raise FormatError(f"{path}: truncated header")
    k, dims, seed, norm_flag = struct.unpack("<IIQB", raw[4:21])
    offset = 21
    normalization = None
    if norm_flag:
        end = offset + dims * 2 * 4
        if len(raw) < end:
            raise FormatError(f"{path}: truncated normalization block")
        normalization = np.frombuffer(raw, dtype="<f4", count=dims * 2, offset=offset).reshape(
            dims, 2
        )
        offset = end
    expected = offset + k * dims * 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: size mismatch, header implies {expected} bytes, file has {len(raw)}"
        )
    centroids = np.frombuffer(raw, dtype="<f4", offset=offset).reshape(k, dims)
    return Codebook(centroids=centroids, seed=seed, normalization=normalization)
