"""K-means vector quantization: turn continuous feature streams into
cluster-id label sequences.

Training is kmeans++ initialization followed by Lloyd iterations (squared
Euclidean), fully deterministic given (data, k, seed, tol, max_iter,
normalize): the RNG is PCG64(seed), assignment ties break to the lowest
centroid index, centroid sums use a fixed chunked order, and empty clusters
are repaired by stealing the point currently farthest from its centroid.
Seeding's D^2 distances and every assignment are bit-identical to the
fixed-order per-dimension loop, whatever BLAS computes for the prefilters.
A fitted codebook carries the training rows' labels under its final
centroids, so a caller that quantizes its training data need not assign again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import DataError, FormatError, InfeasibleError, check_bool, check_int, check_positive
from .errors import check_type, located, printable, shown
from .ingestion import FeatureMatrix, LabelSequence, check_size, frozen_array, unpack_header
from .report import AnalysisConfig

_KMC_MAGIC = b"KMC1"


@dataclass(frozen=True)
class Codebook:
    """Trained K-means model: k centroids plus training metadata.

    ``normalization`` holds per-dimension (mean, stddev) float32 pairs applied
    before distance computation, or None.  Training metadata
    (``distortion_history``, ``labels``) is not stored in the codebook file
    and is None on a loaded codebook.  ``labels`` are the training rows'
    labels, equal to ``assign(cb, x).symbols`` on the training data.
    """

    centroids: np.ndarray  # (k, d) float32
    seed: int
    normalization: np.ndarray | None = None  # (d, 2) float32
    distortion_history: tuple[float, ...] | None = None
    labels: np.ndarray | None = field(default=None, repr=False)  # (L,) int64

    def __post_init__(self):
        centroids = frozen_array(self.centroids, np.float32, "centroids")
        if centroids.ndim != 2 or centroids.shape[0] < 1 or centroids.shape[1] < 1:
            raise DataError(f"centroids must be (k >= 1, d >= 1), got {centroids.shape}")
        if not np.all(np.isfinite(centroids)):
            raise DataError("non-finite centroid")
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "seed", _kmc1_seed(self.seed))
        if self.normalization is not None:
            norm = frozen_array(self.normalization, np.float32, "normalization")
            if norm.shape != (centroids.shape[1], 2):
                raise DataError(f"normalization must be (d, 2), got {norm.shape}")
            if not (np.all(np.isfinite(norm)) and np.all(norm[:, 1] > 0)):
                raise DataError("normalization must be finite with every stddev > 0")
            object.__setattr__(self, "normalization", norm)
        if self.labels is not None:  # the symbols of a label sequence over the k centroids
            with located("labels"):
                labels = LabelSequence(self.labels, self.k, 1.0).symbols
            object.__setattr__(self, "labels", labels)

    @property
    def iterations_run(self) -> int | None:
        return None if self.distortion_history is None else len(self.distortion_history)

    @property
    def final_distortion(self) -> float | None:
        return None if self.distortion_history is None else self.distortion_history[-1]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dims(self) -> int:
        return self.centroids.shape[1]


def _kmc1_seed(value) -> int:
    """``value`` as a seed a KMC1 file can hold: an integer, by ``check_int``,
    that fits an unsigned 64-bit integer.  Anything else raises DataError."""
    seed = check_int(value, "seed")
    if not 0 <= seed < 2**64:
        raise DataError(f"seed must fit an unsigned 64-bit integer, got {shown(seed)}")
    return seed


def _normalize(data: np.ndarray, normalization: np.ndarray | None) -> np.ndarray:
    """Apply ``normalization`` to the float64 rows ``data`` in place, as
    ``(data - mean) / std``, and return ``data``."""
    if normalization is not None:
        data -= normalization[:, 0].astype(np.float64)
        data /= normalization[:, 1].astype(np.float64)
    return data


def _fit_normalization(data: np.ndarray) -> np.ndarray:
    """Per-dimension (mean, stddev) of the float64 rows ``data``, as float32."""
    mean = data.mean(axis=0)
    std = data.std(axis=0)
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

    Mutates all four arrays (a float64 row stored into float32 ``centroids``
    rounds as ``astype`` does); loops until every cluster owns a point.
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
    seed: int = AnalysisConfig.seed,
    tol: float = AnalysisConfig.tol,
    max_iter: int = AnalysisConfig.max_iter,
    normalize: bool = AnalysisConfig.normalize,
) -> Codebook:
    """Train a codebook on ``x``.

    Stops when the relative distortion decrease falls below ``tol`` or after
    ``max_iter`` assignment passes.  Distortion is the mean squared distance
    of points to their assigned centroids (in normalized space when
    ``normalize`` is on) and never increases between iterations.  A ``k``
    above the number of distinct rows raises InfeasibleError.  The arguments
    follow AnalysisConfig's number rules: ``k``, ``seed`` and ``max_iter``
    pass ``check_int``, ``tol`` passes ``check_positive`` and ``normalize``
    passes ``check_bool``; anything else raises DataError.
    """
    k, max_iter = check_int(k, "k", 1), check_int(max_iter, "max_iter", 1)
    tol, normalize = check_positive(tol, "tol"), check_bool(normalize, "normalize")
    seed = _kmc1_seed(seed)

    n = check_type(x, FeatureMatrix, "x").rows
    if k > n:  # before seeding allocates k centres
        raise InfeasibleError(f"infeasible k: {shown(k)} clusters but only {n} rows")

    # The one float64 copy of the stream; normalization works on it in place.
    data = x.values.astype(np.float64)
    normalization = _fit_normalization(data) if normalize else None
    _normalize(data, normalization)
    rng = np.random.Generator(np.random.PCG64(seed))

    # f32 rounding keeps in-memory centroids identical to the saved codebook.
    centroids = _kmeanspp_init(data, k, rng).astype(np.float32)
    history: list[float] = []
    labels = None
    for _ in range(max_iter):
        if labels is not None:  # update step for every pass after the first
            sums = _kernels.accumulate_means(data, labels, k)
            centroids = (sums / counts[:, None]).astype(np.float32)
        labels, dist2 = _kernels.assign_labels(data, centroids.astype(np.float64))
        counts = np.bincount(labels, minlength=k)
        repaired = bool((counts == 0).any())
        if repaired:
            _repair_empty(data, centroids, labels, dist2, counts)
        distortion = float(dist2.sum()) / n
        if history and distortion > history[-1] * (1 + 1e-6) + 1e-12:
            raise AssertionError(f"distortion increased: {history[-1]} -> {distortion}")
        converged = bool(history) and (history[-1] - distortion) < tol * history[-1]
        history.append(distortion)
        if converged or distortion == 0.0:
            break
    if repaired:  # a repair moved a centroid after this pass's labels were computed
        labels, _ = _kernels.assign_labels(data, centroids.astype(np.float64))

    return Codebook(
        centroids=centroids,
        seed=seed,
        normalization=normalization,
        distortion_history=tuple(history),
        labels=labels,
    )


def assign(cb: Codebook, x: FeatureMatrix) -> LabelSequence:
    """Label every frame of ``x`` with its nearest centroid's index."""
    if check_type(x, FeatureMatrix, "x").dims != check_type(cb, Codebook, "cb").dims:
        raise DataError(f"dimension mismatch: features have {x.dims} dims, codebook {cb.dims}")
    data = _normalize(x.values.astype(np.float64), cb.normalization)
    labels, _ = _kernels.assign_labels(data, cb.centroids.astype(np.float64))
    return LabelSequence(labels, cb.k, x.sample_rate_hz, x.modality_tag)


def codebook_to_bytes(cb: Codebook) -> bytes:
    """Serialize to the KMC1 wire format."""
    norm = check_type(cb, Codebook, "cb").normalization
    arrays = [cb.centroids] if norm is None else [norm, cb.centroids]
    header = struct.pack("<IIQB", cb.k, cb.dims, cb.seed, 0 if norm is None else 1)
    return _KMC_MAGIC + header + b"".join(a.astype("<f4").tobytes(order="C") for a in arrays)


def save_codebook(cb: Codebook, path) -> None:
    Path(path).write_bytes(codebook_to_bytes(cb))


def load_codebook(path) -> Codebook:
    raw = Path(path).read_bytes()
    k, dims, seed, norm_flag = unpack_header(path, raw, _KMC_MAGIC, "<IIQB")
    if norm_flag not in (0, 1):
        raise FormatError(f"{printable(path)}: normalization flag must be 0 or 1, got {norm_flag}")
    offset = 21 + (dims * 2 * 4 if norm_flag else 0)
    check_size(path, raw, offset + k * dims * 4)
    normalization = None
    if norm_flag:
        normalization = np.frombuffer(raw, dtype="<f4", count=dims * 2, offset=21).reshape(dims, 2)
    centroids = np.frombuffer(raw, dtype="<f4", offset=offset).reshape(k, dims)
    with located(printable(path)):
        return Codebook(centroids=centroids, seed=seed, normalization=normalization)
