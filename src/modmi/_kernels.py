"""Nearest-centroid assignment, kmeans++ D^2 distances and centroid
accumulation.

``assign_chunk`` is the exact loop: it sums squared distances over the
dimensions in order, so its result does not depend on BLAS, and it is the
oracle the kernel tests compare against.  Assignment scores every centroid
with one BLAS GEMM per chunk, ``[x, 1] @ [-2 C^T; |c|^2]``, which folds the
centroid norms into the product.  One count over the chunk's candidate mask
certifies that every row has a single candidate; only a chunk where it fails
counts row by row and settles its ambiguous rows with ``assign_chunk``, so
labels and distances are bit-identical to it.  Distances are recomputed in
dimension order by ``row_dist2`` on (rows, d) blocks.  Seeding bounds each
row's distance to a new centre from below with one GEMV and recomputes the
fixed-order distance only where the bound cannot rule the row out.  The
kernels walk their chunks serially and reduce them in chunk order.  BLAS is
the only parallelism, and results do not depend on its thread count.
"""

import numpy as np

# Recorded by the benchmark's environment probe; there is one implementation.
backend_name = "python"

# Chunk sizes bound temporary memory and fix the summation order that makes
# runs bit-reproducible.  Assignment scores at most ASSIGN_CHUNK rows and
# _SCORE_BUDGET scores (1 MiB of doubles) per chunk.
ASSIGN_CHUNK = 1024
UPDATE_CHUNK = 65536
_SCORE_BUDGET = 2**17

# Rows up to which row_dist2 sums with one accumulate call (at or below the
# crossover measured for d from 4 to 128).
_ACCUMULATE_MAX = 128

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


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


def row_dist2(rows, centres):
    """Squared distance from each row to its centre, summed in dimension
    order with the same operations as ``assign_chunk``, so bit-identical to
    it.

    ``rows`` is (m, d) and ``centres`` is (d,) for one shared centre or
    (m, d) for one centre per row.  The (m, d) squared differences take two
    contiguous numpy calls.  Their columns are then added in dimension order,
    never with ``sum(axis=1)``, which sums a row pairwise.
    ``np.add.accumulate`` adds them in order by definition in one call, but it
    walks the rows one at a time, so past ``_ACCUMULATE_MAX`` rows the d
    column additions are cheaper.
    """
    sq = np.subtract(rows, centres)
    np.multiply(sq, sq, out=sq)
    if sq.shape[0] <= _ACCUMULATE_MAX:
        return np.add.accumulate(sq, axis=1)[:, -1]
    acc = sq[:, 0].copy()
    for dim in range(1, sq.shape[1]):
        acc += sq[:, dim]
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
    # [x, 1] @ weights is the score |c_j|^2 - 2 x.c_j in one GEMM; scaling
    # by -2 rounds nothing.
    weights = np.empty((d + 1, centroids.shape[0]))
    np.multiply(centroids.T, -2.0, out=weights[:d])
    weights[d] = c_sq
    # Why one candidate settles a row (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., §3.1; u = 2^-53, gamma_n = nu/(1 - nu)).
    # Let D_j = |x - c_j|^2 and M = |x|^2 + max_j |c_j|^2, so D_j <= 2M.
    # - The exact loop sums d terms of 3 roundings each, so its r_j is within
    #   gamma_{d+2} D_j of D_j.  Its winner j* has r_{j*} <= r_j, hence
    #   D_{j*} - D_j <= gamma_{d+2} (D_{j*} + D_j) <= 4 gamma_{d+2} M.
    # - The einsum's |c_j|^2, call it q_j, is within gamma_d |c_j|^2 <=
    #   gamma_d M of exact, and q_j <= (1 + gamma_d) M.
    # - The GEMM forms s_j = x.(-2 c_j) + 1 q_j, a dot product of d + 1 terms
    #   whose absolute values sum to at most 2 sum_k |x_k c_jk| + q_j <=
    #   M + q_j <= (2 + gamma_d) M.  In any summation order, FMA or not, it is
    #   within gamma_{d+1} (2 + gamma_d) M of x.(-2 c_j) + q_j.  So s_j is
    #   within (3 + gamma_d) gamma_{d+1} M of |c_j|^2 - 2 x.c_j, which is
    #   D_j - |x|^2.
    # - So s_{j*} - min_j s_j <= 4 gamma_{d+2} M + 2 (3 + gamma_d) gamma_{d+1} M
    #   <= (10 + 2 gamma_d) gamma_{d+2} M.  As nu <= gamma_n <= nu (1 + gamma_n),
    #   the slack 12 gamma_{d+4} M exceeds that by (2d + 28) u M less terms of
    #   order (d u)^2 M.
    # - The computed slack is at least (1 - gamma_{d+5}) times exact (the
    #   einsum, one addition, _gamma's three roundings and the product), a
    #   loss under 12 gamma_{d+4} gamma_{d+5} M.  The addition
    #   min_j s_j + slack that forms the cutoff rounds by at most 3 u M, as
    #   |s_j| <= 2.01 M.  For any d below 2^40 the margin covers both, so j*
    #   is always a candidate.
    slack = np.einsum("ij,ij->i", x, x)
    slack += c_sq.max()
    slack *= 12.0 * _gamma(d + 4)

    def work(lo, hi):
        m = hi - lo
        x1 = np.empty((m, d + 1))
        x1[:, :d] = x[lo:hi]
        x1[:, d] = 1.0
        scores = x1 @ weights
        del x1  # not held alongside the candidate mask
        best = scores.argmin(axis=1)
        cutoff = scores[np.arange(m), best]
        cutoff += slack[lo:hi]
        candidates = scores <= cutoff[:, None]
        # Each row's argmin is a candidate, so m candidates in all means one
        # per row; only a chunk with more counts them row by row.
        if np.count_nonzero(candidates) != m:
            ambiguous = np.flatnonzero(np.count_nonzero(candidates, axis=1) != 1)
            exact = np.empty(ambiguous.size, dtype=np.int64)
            assign_chunk(x[lo:hi][ambiguous], centroids, exact, np.empty(ambiguous.size))
            best[ambiguous] = exact
        return best

    chunk = max(1, min(ASSIGN_CHUNK, _SCORE_BUDGET // centroids.shape[0]))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # The chunk's scores and mask are freed when work returns, before the
        # distances and the next chunk.
        best = work(lo, hi)
        labels[lo:hi] = best
        dist2[lo:hi] = row_dist2(x[lo:hi], centroids[best])
    return labels, dist2


class ClosestDist2:
    """Squared distance from each row of ``x`` to its nearest centre so far
    (kmeans++'s D^2), as ``np.minimum`` over ``row_dist2`` would give it, bit
    for bit.

    ``closest`` starts as the exact distances to ``first``.  Each ``add``
    bounds every row's distance to the new centre from below with one GEMV
    and runs the exact ``row_dist2`` only on the rows the bound cannot rule
    out.  ``x`` has the preconditions of ``assign_labels``.
    """

    def __init__(self, x, first):
        n, d = x.shape
        self.x = x
        self.closest = np.empty(n)
        for lo in range(0, n, ASSIGN_CHUNK):  # chunks keep row_dist2's temporaries small
            self.closest[lo:lo + ASSIGN_CHUNK] = row_dist2(x[lo:lo + ASSIGN_CHUNK], first)
        # Why a skipped row keeps ``closest`` exact (notation as in
        # assign_labels; D = |x - c|^2 and M = |x|^2 + |c|^2, so D <= 2M).
        # - row_dist2 returns r within gamma_{d+2} D <= 2 gamma_{d+2} M of D.
        # - In any order, FMA or not, the GEMV x.(-2c) is within
        #   gamma_d sum_k |2 x_k c_k| <= gamma_d M of exact (scaling by -2 is
        #   exact), and |x|^2 - f |x|^2 is within gamma_{d+3} |x|^2 of
        #   (1 - f) |x|^2; likewise for c.  The two additions that form low
        #   have results below 2.01 M, so they round by at most 4.02 u M.
        # - So low is within 2 gamma_{d+5} M of D - f M.  With
        #   f = 8 gamma_{d+4} >= 2 gamma_{d+5} + 2 gamma_{d+2}, low <= r.
        # A row with low > closest therefore has r > closest, and
        # np.minimum(closest, r) would have kept closest: skipping it changes
        # no bit of closest.
        self._factor = 8.0 * _gamma(d + 4)
        x_sq = np.einsum("ij,ij->i", x, x)
        self._x_low = x_sq - self._factor * x_sq
        self._low = np.empty(n)

    def add(self, centre):
        c_sq = float(centre @ centre)
        low = self._low
        np.matmul(self.x, -2.0 * centre, out=low)
        low += self._x_low
        low += c_sq - self._factor * c_sq
        rows = np.flatnonzero(low <= self.closest)
        for lo in range(0, rows.size, ASSIGN_CHUNK):
            idx = rows[lo:lo + ASSIGN_CHUNK]
            exact = row_dist2(self.x[idx], centre)
            self.closest[idx] = np.minimum(self.closest[idx], exact)


def accumulate_means(x, labels, k):
    """Per-centroid float64 sums, (k, d).

    Each chunk sums its points into every (centroid, dimension) cell in point
    order with ``np.add.at``, which is unbuffered, one piece of at most
    ``ASSIGN_CHUNK`` rows at a time so its cell indices stay small; the chunk
    partials are then added in chunk order.
    """
    n, d = x.shape
    sums = np.zeros(k * d, dtype=np.float64)
    partial = np.empty(k * d, dtype=np.float64)
    dims = np.arange(d)
    cells = np.empty((min(ASSIGN_CHUNK, n), d), dtype=np.int64)
    for lo in range(0, n, UPDATE_CHUNK):
        hi = min(lo + UPDATE_CHUNK, n)
        partial.fill(0.0)
        for start in range(lo, hi, ASSIGN_CHUNK):
            stop = min(start + ASSIGN_CHUNK, hi)
            piece = cells[:stop - start]
            np.add(labels[start:stop, None] * d, dims, out=piece)
            np.add.at(partial, piece.ravel(), x[start:stop].ravel())
        sums += partial
    return sums.reshape(k, d)
