"""Nearest-centroid assignment and centroid accumulation.

Assignment scores every centroid with one BLAS GEMM per chunk, then settles
any row the GEMM cannot decide with the fixed-order exact loop in
``_pykernels``, so labels and distances are bit-identical to that loop.
Both kernels walk their chunks serially and reduce them in chunk order.
BLAS is the only parallelism, and results do not depend on its thread count.
"""

from __future__ import annotations

import numpy as np

from . import _pykernels

# Recorded by the benchmark's environment probe; there is one implementation.
backend_name = "python"

# Chunk sizes bound temporary memory (assign materializes chunk*k doubles)
# and fix the summation order that makes runs bit-reproducible.
ASSIGN_CHUNK = 1024
UPDATE_CHUNK = 65536

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def row_dist2(x_cols, centre_cols):
    """Squared distance from each point to its centre, summed in dimension
    order with the same operations as ``_pykernels.assign_chunk``, so
    bit-identical to it.

    Takes columns: ``x_cols`` is (d, n), the points transposed (a view, or a
    contiguous copy when called repeatedly), and ``centre_cols`` is (d,) for
    one shared centre or (d, n) for one centre per point.
    """
    acc = np.zeros(x_cols.shape[1], dtype=np.float64)
    diff = np.empty_like(acc)
    for dim in range(x_cols.shape[0]):
        np.subtract(x_cols[dim], centre_cols[dim], out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    return acc


def assign_labels(x, centroids):
    """Nearest-centroid labels and squared distances for all points.

    ``x`` (L, d) and ``centroids`` (k, d) must be float64 C-order, finite, and
    small enough that squared distances neither overflow nor underflow (true
    of anything derived from float32 data).  Ties go to the lowest index.
    """
    n, d = x.shape
    labels = np.empty(n, dtype=np.int64)
    dist2 = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    # Why one candidate settles a row (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., §3.1; u = 2^-53, gamma_n = nu/(1 - nu)).
    # Let D_j = |x - c_j|^2 and M = |x|^2 + max_j |c_j|^2, so D_j <= 2M.
    # - The exact loop sums d terms of 3 roundings each, so its r_j is within
    #   gamma_{d+2} D_j of D_j.  Its winner j* has r_{j*} <= r_j, hence
    #   D_{j*} - D_j <= gamma_{d+2} (D_{j*} + D_j) <= 4 gamma_{d+2} M.
    # - In any summation order, FMA or not, x.c_j is within
    #   gamma_d sum_k |x_k c_jk| <= gamma_d M / 2 of exact and |c_j|^2 within
    #   gamma_d M.  With the final subtraction, the score
    #   s_j = |c_j|^2 - 2 x.c_j (which is D_j - |x|^2) is within
    #   2 gamma_{d+1} M of exact.
    # - So s_{j*} - min_j s_j <= 4 gamma_{d+2} M + 4 gamma_{d+1} M
    #   <= 8 gamma_{d+2} M: j* is always a candidate.  Using gamma_{d+4}
    #   covers the rounding of the computed M, the slack, and the
    #   subtraction the slack is compared with.
    c_sq_max = c_sq.max()
    slack_factor = 8.0 * _gamma(d + 4)

    def work(lo, hi):
        xc = x[lo:hi]
        scores = xc @ centroids.T
        scores *= -2.0
        scores += c_sq
        best = scores.argmin(axis=1)
        scores -= scores[np.arange(hi - lo), best][:, None]
        slack = slack_factor * (np.einsum("ij,ij->i", xc, xc) + c_sq_max)
        candidates = np.count_nonzero(scores <= slack[:, None], axis=1)
        ambiguous = np.flatnonzero(candidates != 1)
        if ambiguous.size:
            exact = np.empty(ambiguous.size, dtype=np.int64)
            _pykernels.assign_chunk(xc[ambiguous], centroids, exact, np.empty(ambiguous.size))
            best[ambiguous] = exact
        labels[lo:hi] = best
        dist2[lo:hi] = row_dist2(xc.T, centroids[best].T)

    # One chunk per call, so its score matrix is freed before the next.
    for lo in range(0, n, ASSIGN_CHUNK):
        work(lo, min(lo + ASSIGN_CHUNK, n))
    return labels, dist2


def accumulate_means(x, labels, k):
    """Per-centroid float64 sums and int64 counts.

    Each chunk sums its points into every (centroid, dimension) cell in point
    order, as a per-chunk ``np.add.at`` would; the chunk partials are then
    added in chunk order.
    """
    n, d = x.shape
    sums = np.zeros(k * d, dtype=np.float64)
    for lo in range(0, n, UPDATE_CHUNK):
        hi = min(lo + UPDATE_CHUNK, n)
        cells = (labels[lo:hi, None] * d + np.arange(d)).ravel()
        sums += np.bincount(cells, weights=x[lo:hi].ravel(), minlength=k * d)
    return sums.reshape(k, d), np.bincount(labels, minlength=k)
