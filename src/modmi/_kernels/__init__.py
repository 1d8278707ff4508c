"""Nearest-centroid assignment, kmeans++ D^2 distances and centroid
accumulation.

Assignment scores every centroid with one BLAS GEMM per chunk, then settles
any row the GEMM cannot decide with the fixed-order exact loop in
``_pykernels``, so labels and distances are bit-identical to that loop.
Seeding bounds each row's distance to a new centre from below with one GEMV
and recomputes the fixed-order distance only where the bound cannot rule
the row out.  The kernels walk their chunks serially and reduce them in
chunk order.  BLAS is the only parallelism, and results do not depend on its
thread count.
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

# Columns up to which row_dist2 sums with one accumulate call (the
# crossover measured for d from 4 to 64).
_ACCUMULATE_MAX = 128

_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def row_dist2(x_cols, centre_cols):
    """Squared distance from each point to its centre, summed in dimension
    order with the same operations as ``_pykernels.assign_chunk``, so
    bit-identical to it.

    Takes columns: ``x_cols`` is (d, m), the points transposed (a view is
    fine), and ``centre_cols`` is (d,) for one shared centre or (d, m) for one
    centre per point.  The (d, m) squared differences take two numpy calls.
    Their rows are then added in order, never with ``sum(axis=0)``, which sums
    a single column pairwise.  ``np.add.accumulate`` adds them in order by
    definition in one call, but its inner loop runs down the columns, so past
    ``_ACCUMULATE_MAX`` columns the d row additions are cheaper.
    """
    centre_cols = np.asarray(centre_cols)
    if centre_cols.ndim == 1:
        centre_cols = centre_cols[:, None]
    sq = np.subtract(x_cols, centre_cols, order="C")
    np.multiply(sq, sq, out=sq)
    if sq.shape[1] <= _ACCUMULATE_MAX:
        return np.add.accumulate(sq, axis=0)[-1]
    acc = sq[0].copy()
    for row in sq[1:]:
        acc += row
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
    minus_2c = (-2.0 * centroids).T  # exact: scaling by -2 rounds nothing
    # Why one candidate settles a row (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., §3.1; u = 2^-53, gamma_n = nu/(1 - nu)).
    # Let D_j = |x - c_j|^2 and M = |x|^2 + max_j |c_j|^2, so D_j <= 2M.
    # - The exact loop sums d terms of 3 roundings each, so its r_j is within
    #   gamma_{d+2} D_j of D_j.  Its winner j* has r_{j*} <= r_j, hence
    #   D_{j*} - D_j <= gamma_{d+2} (D_{j*} + D_j) <= 4 gamma_{d+2} M.
    # - In any summation order, FMA or not, x.c_j is within
    #   gamma_d sum_k |x_k c_jk| <= gamma_d M / 2 of exact and |c_j|^2 within
    #   gamma_d M.  With the final addition, the score
    #   s_j = |c_j|^2 - 2 x.c_j (which is D_j - |x|^2) is within
    #   2 gamma_{d+1} M of exact.
    # - So s_{j*} - min_j s_j <= 4 gamma_{d+2} M + 4 gamma_{d+1} M
    #   <= 8 gamma_{d+2} M: j* is always a candidate.  Using gamma_{d+4}
    #   leaves at least 16 u M over that, which covers the rounding of the
    #   computed M and of the slack, and the addition min_j s_j + slack that
    #   forms the cutoff: |s_j| <= 2M, so it rounds by at most 3 u M.
    c_sq_max = c_sq.max()
    slack_factor = 8.0 * _gamma(d + 4)

    def work(lo, hi):
        xc = x[lo:hi]
        scores = xc @ minus_2c
        scores += c_sq
        best = scores.argmin(axis=1)
        cutoff = scores[np.arange(hi - lo), best]
        cutoff += slack_factor * (np.einsum("ij,ij->i", xc, xc) + c_sq_max)
        candidates = np.count_nonzero(scores <= cutoff[:, None], axis=1)
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
            self.closest[lo:lo + ASSIGN_CHUNK] = row_dist2(x[lo:lo + ASSIGN_CHUNK].T, first)
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
            exact = row_dist2(self.x[idx].T, centre)
            self.closest[idx] = np.minimum(self.closest[idx], exact)


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
