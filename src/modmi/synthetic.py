"""Synthetic sources with analytically known information quantities.

``JointPmf`` is a dense probability table; ``oracle_quantities`` evaluates
every quantity by full enumeration over it and is the reference the sparse
estimators are checked against.  ``exhaustive_stream`` materializes streams
whose empirical joint equals a pmf exactly, ``sample_discrete`` draws i.i.d.
frames, and ``gen_gaussian_mixture`` builds continuous test beds with known
component labels.  All randomness comes from PCG64(seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError, check_int, check_positive, check_type, is_finite_real
from .infotheory import CLAMP_TOL
from .ingestion import FeatureMatrix, LabelSequence, frozen_array
from .report import LOG_BASES, InfoQuantities, normalize_base

DEFAULT_RATE_HZ = 25.0


@dataclass(frozen=True)
class JointPmf:
    """Dense joint probability table over 2 or more discrete variables."""

    table: np.ndarray

    def __post_init__(self):
        table = frozen_array(self.table, np.float64, "pmf table")
        if table.ndim < 1:
            raise DataError("pmf table must have at least one axis")
        if not np.all(np.isfinite(table)) or (table < 0).any():
            raise DataError("pmf entries must be finite and >= 0")
        if abs(float(table.sum()) - 1.0) > 1e-12:
            raise DataError(f"pmf sums to {float(table.sum())}, not 1 within 1e-12")
        object.__setattr__(self, "table", table)

    @property
    def arity(self) -> int:
        return self.table.ndim

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return self.table.shape


def _h_axes(table: np.ndarray, axes: tuple[int, ...]) -> float:
    """Exact entropy (nats) of the marginal onto ``axes``."""
    drop = tuple(i for i in range(table.ndim) if i not in axes)
    marg = table.sum(axis=drop) if drop else table
    p = marg.ravel()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _clamp_tiny(value: float) -> float:
    return 0.0 if -CLAMP_TOL <= value < 0.0 else value


def oracle_quantities(pmf: JointPmf, base=2) -> InfoQuantities:
    """Every quantity of the table, by direct enumeration of the dense pmf.

    Conditional-MI regions use the entropy identity
    I(X;Y|Z) = H(X;Z) + H(Y;Z) - H(Z) - H(X;Y;Z) and unique regions use
    H(X|Y,Z) = H(X;Y;Z) - H(Y;Z), independent of the estimator's
    inclusion-exclusion around the center I(V;T;S).
    """
    token = normalize_base(base)
    if check_type(pmf, JointPmf, "pmf").arity not in (2, 3):
        raise DataError(f"oracle supports arity 2 or 3, got {pmf.arity}")
    t = pmf.table
    ax_t, ax_s = pmf.arity - 2, pmf.arity - 1  # axes are (V, T, S) or (T, S)
    h_t = _h_axes(t, (ax_t,))
    h_s = _h_axes(t, (ax_s,))
    h_ts = _h_axes(t, (ax_t, ax_s))
    ts_fields = {
        "log_base": token,
        "h_t": h_t / LOG_BASES[token],
        "h_s": h_s / LOG_BASES[token],
        "i_ts": _clamp_tiny((h_t + h_s - h_ts) / LOG_BASES[token]),
        "h_s_given_t": _clamp_tiny((h_ts - h_t) / LOG_BASES[token]),
        "h_t_given_s": _clamp_tiny((h_ts - h_s) / LOG_BASES[token]),
    }
    if pmf.arity == 2:
        return InfoQuantities(**ts_fields)
    h_v = _h_axes(t, (0,))
    h_vt = _h_axes(t, (0, 1))
    h_vs = _h_axes(t, (0, 2))
    h_vts = _h_axes(t, (0, 1, 2))
    center = h_v + h_t + h_s - h_vt - h_ts - h_vs + h_vts
    regions = {
        "V|T,S": _clamp_tiny((h_vts - h_ts) / LOG_BASES[token]),
        "T|V,S": _clamp_tiny((h_vts - h_vs) / LOG_BASES[token]),
        "S|V,T": _clamp_tiny((h_vts - h_vt) / LOG_BASES[token]),
        "V;T|S": _clamp_tiny((h_vs + h_ts - h_s - h_vts) / LOG_BASES[token]),
        "T;S|V": _clamp_tiny((h_vt + h_vs - h_v - h_vts) / LOG_BASES[token]),
        "V;S|T": _clamp_tiny((h_vt + h_ts - h_t - h_vts) / LOG_BASES[token]),
        "V;T;S": center / LOG_BASES[token],
    }
    return InfoQuantities(
        **ts_fields,
        h_v=h_v / LOG_BASES[token],
        i_tv=_clamp_tiny((h_t + h_v - h_vt) / LOG_BASES[token]),
        i_vs=_clamp_tiny((h_v + h_s - h_vs) / LOG_BASES[token]),
        i_vts=center / LOG_BASES[token],
        h_v_given_t=_clamp_tiny((h_vt - h_t) / LOG_BASES[token]),
        h_t_given_v=_clamp_tiny((h_vt - h_v) / LOG_BASES[token]),
        h_v_given_s=_clamp_tiny((h_vs - h_s) / LOG_BASES[token]),
        h_s_given_v=_clamp_tiny((h_vs - h_v) / LOG_BASES[token]),
        regions=regions,
    )


def _streams_from_flat(flat_idx: np.ndarray, shape: tuple[int, ...], tags=None) -> list[LabelSequence]:
    if tags is not None and len(tags) != len(shape):
        raise DataError(f"tags must hold one tag per variable ({len(shape)}), got {len(tags)}")
    coords = np.unravel_index(flat_idx, shape)
    return [
        LabelSequence(coords[i], shape[i], DEFAULT_RATE_HZ, tags[i] if tags else f"x{i}")
        for i in range(len(shape))
    ]


def sample_discrete(pmf: JointPmf, n_frames: int, seed: int, tags=None) -> list[LabelSequence]:
    """Draw ``n_frames`` i.i.d. tuples by seeded inverse-CDF sampling."""
    n_frames = check_int(n_frames, "n_frames", 1)
    rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed", 0)))
    cum = np.cumsum(check_type(pmf, JointPmf, "pmf").table.ravel())
    u = rng.random(n_frames)
    flat = np.searchsorted(cum, u, side="right")
    np.clip(flat, 0, pmf.table.size - 1, out=flat)
    return _streams_from_flat(flat, pmf.alphabet_sizes, tags)


def exhaustive_stream(pmf: JointPmf, copies: int = 1, tags=None) -> list[LabelSequence]:
    """Streams whose empirical joint equals the pmf exactly.

    Requires every cell probability to be an exact small rational (count
    over grid size); each of the ``copies`` blocks lays the cells out in
    C-order, each tuple repeated proportional to its probability.
    """
    copies = check_int(copies, "copies", 1)
    flat = check_type(pmf, JointPmf, "pmf").table.ravel()
    nonzero = np.flatnonzero(flat)
    denom = 1
    for p in flat[nonzero]:
        frac = Fraction(float(p)).limit_denominator(10**5)
        if abs(float(frac) - float(p)) > 1e-12:
            raise DataError(f"pmf cell {p} is not an exact small rational")
        denom = denom * frac.denominator // math.gcd(denom, frac.denominator)
    cell_counts = np.rint(flat[nonzero] * denom).astype(np.int64)
    if abs(flat[nonzero] * denom - cell_counts).max() > 1e-6 or cell_counts.sum() != denom:
        raise DataError("pmf cells do not share a common denominator")
    block = np.repeat(nonzero, cell_counts)
    return _streams_from_flat(np.tile(block, copies), pmf.alphabet_sizes, tags)


def gen_gaussian_mixture(
    centers, stddev: float, n_per_center: int, seed: int
) -> tuple[FeatureMatrix, LabelSequence]:
    """Isotropic Gaussian blobs plus the ground-truth component labels."""
    centers = frozen_array(centers, np.float64, "centers")
    if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] < 1:
        raise DataError(f"centers must be (m >= 1, d >= 1), got {centers.shape}")
    if not (is_finite_real(stddev) and stddev == 0):  # 0 puts every row on its center
        stddev = check_positive(stddev, "a non-zero stddev")
    n_per_center = check_int(n_per_center, "n_per_center", 1)
    m, d = centers.shape
    rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed", 0)))
    with np.errstate(over="ignore", invalid="ignore"):  # FeatureMatrix refuses a non-finite row
        rows = [centers[i] + stddev * rng.standard_normal((n_per_center, d)) for i in range(m)]
    features = FeatureMatrix(np.concatenate(rows), DEFAULT_RATE_HZ, "features")
    labels = LabelSequence(np.repeat(np.arange(m), n_per_center), m, DEFAULT_RATE_HZ, "components")
    return features, labels


def xor_pmf() -> JointPmf:
    """V, T fair independent bits, S = V xor T: the canonical synergy case."""
    table = np.zeros((2, 2, 2))
    for v in (0, 1):
        for t in (0, 1):
            table[v, t, v ^ t] = 0.25
    return JointPmf(table)


def random_pmf(rng: np.random.Generator, shape: tuple[int, ...], grid: int = 12) -> JointPmf:
    """Random pmf on a 1/N grid (exhaustive_stream-compatible by design)."""
    weights = rng.integers(0, grid, size=shape).astype(np.float64)
    if weights.sum() == 0:
        weights.ravel()[0] = 1.0
    return JointPmf(weights / weights.sum())
