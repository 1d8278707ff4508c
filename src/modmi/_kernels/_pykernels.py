"""Fixed-order reference kernel.

``assign_chunk`` accumulates squared distances over dimensions in order (one
vectorized pass per dimension), so its result is independent of BLAS; it
settles the rows the GEMM prefilter in ``modmi._kernels`` cannot decide and
is the oracle the kernel tests compare against.
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

