"""Fixed-order reference kernels.

``assign_chunk`` accumulates squared distances over dimensions in order (one
vectorized pass per dimension), so its result is independent of BLAS; it
settles the rows the GEMM prefilter in ``modmi._kernels`` cannot decide and
is the oracle the kernel tests compare against.  ``update_chunk`` accumulates
centroid sums point-by-point via ``np.add.at``.
"""

import numpy as np


def assign_chunk(x, centroids, labels_out, dist2_out):
    """Nearest centroid (squared Euclidean) for one chunk of points.

    Ties go to the lowest centroid index.  ``x`` is (n, d) float64 C-order,
    ``centroids`` (k, d) float64 C-order.
    """
    n, d = x.shape
    k = centroids.shape[0]
    acc = np.zeros((n, k), dtype=np.float64)
    for dim in range(d):
        diff = x[:, dim, np.newaxis] - centroids[np.newaxis, :, dim]
        acc += diff * diff
    labels_out[:] = np.argmin(acc, axis=1)
    dist2_out[:] = acc[np.arange(n), labels_out]


def update_chunk(x, labels, sums_out, counts_out):
    """Accumulate one chunk's per-centroid sums and counts (in point order)."""
    np.add.at(sums_out, labels, x)
    counts_out += np.bincount(labels, minlength=counts_out.shape[0])
