"""Plug-in information measures over aligned discrete label streams.

Everything is computed from sparse empirical joint counts: entropy, joint
entropy, mutual information, conditional entropy, conditional MI, the
recursive multivariate mutual information (co-information, which can be
negative) and the seven-region decomposition of a three-variable information
diagram.

Internals work in nats and scale once by 1/log(base) on the way out, so
changing the base rescales every quantity exactly.  Zero-probability cells
never appear in the sparse counts, which implements the 0*log(0) = 0
convention.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DataError
from .ingestion import LabelSequence

log = logging.getLogger(__name__)

LOG_BASES = {"2": math.log(2.0), "e": 1.0, "10": math.log(10.0)}

# Matching plug-in MI and conditional entropy are >= 0 up to rounding; values
# this far below zero are clamped (the raw value is logged).
CLAMP_TOL = 1e-12


def normalize_base(base) -> str:
    """Accepts 2 / "2" / "e" / 10 / "10" and returns the canonical token."""
    token = str(base).strip().lower()
    if token in ("2.0", "10.0"):
        token = token[:-2]
    if token not in LOG_BASES:
        raise DataError(f"log base must be one of 2, e, 10, got {base!r}")
    return token


@dataclass(frozen=True)
class JointDistribution:
    """Empirical counts over aligned symbol tuples."""

    arity: int
    counts: dict[tuple[int, ...], int]
    total: int

    def __post_init__(self):
        if self.arity < 1:
            raise DataError("arity must be >= 1")
        if self.total < 1:
            raise DataError("total must be >= 1")
        running = 0
        for key, count in self.counts.items():
            if len(key) != self.arity:
                raise DataError(f"tuple {key} does not match arity {self.arity}")
            if count < 1:
                raise DataError(f"count for {key} must be >= 1, got {count}")
            running += count
        if running != self.total:
            raise DataError(f"counts sum to {running}, total says {self.total}")

    def marginal(self, dims: tuple[int, ...]) -> "JointDistribution":
        """Marginalize onto the given coordinate positions (in given order)."""
        if not dims or any(d < 0 or d >= self.arity for d in dims):
            raise DataError(f"invalid marginal dims {dims} for arity {self.arity}")
        out: dict[tuple[int, ...], int] = {}
        for key, count in self.counts.items():
            sub = tuple(key[d] for d in dims)
            out[sub] = out.get(sub, 0) + count
        return JointDistribution(len(dims), out, self.total)


def _check_aligned(streams) -> int:
    lengths = {s.rows for s in streams}
    if len(lengths) != 1:
        raise AlignmentError(f"streams are not aligned: lengths {sorted(lengths)}")
    return lengths.pop()


def joint_counts(streams: list[LabelSequence]) -> JointDistribution:
    """Count occurrences of each aligned symbol tuple."""
    if not streams:
        raise AlignmentError("need at least one stream")
    total = _check_aligned(streams)
    arrays = [s.symbols for s in streams]
    _, first, counts = np.unique(_tuple_keys(arrays), return_index=True, return_counts=True)
    rows = zip(*(a[first].tolist() for a in arrays))
    table = {row: int(c) for row, c in zip(rows, counts)}
    return JointDistribution(len(streams), table, total)


def _tuple_keys(arrays: list[np.ndarray]) -> np.ndarray:
    """One int64 key per aligned tuple of non-negative symbols, ordered as the
    tuples are lexicographically (the first array most significant).

    Keys are mixed-radix numbers with radix max + 1 per array.  When the next
    digit would overflow int64, the key so far is first replaced by its rank
    among the distinct keys, which keeps the order.
    """
    key = np.array(arrays[0], dtype=np.int64)
    key_max = int(key.max())
    for a in arrays[1:]:
        radix = int(a.max()) + 1
        if (key_max + 1) * radix > 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            key_max = distinct.size - 1
        key *= radix
        key += a
        key_max = key_max * radix + radix - 1
    return key


def _entropy_nats_from_counts(counts: np.ndarray, total: int) -> float:
    p = counts / total
    return float(-(p * np.log(p)).sum())


def _h_nats(arrays: list[np.ndarray]) -> float:
    """Joint entropy (nats) of one or more aligned symbol arrays."""
    _, counts = np.unique(_tuple_keys(arrays), return_counts=True)
    return _entropy_nats_from_counts(counts, arrays[0].shape[0])


def _mi_nats(a: np.ndarray, b: np.ndarray) -> float:
    return _h_nats([a]) + _h_nats([b]) - _h_nats([a, b])


def _cmmi_nats(arrays: list[np.ndarray], given: np.ndarray) -> float:
    """Conditional multivariate MI: sum_z p(z) * MMI(arrays | given = z)."""
    order = np.argsort(given, kind="stable")
    z_sorted = given[order]
    boundaries = np.flatnonzero(np.diff(z_sorted)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [z_sorted.shape[0]]))
    total = given.shape[0]
    value = 0.0
    for lo, hi in zip(starts, ends):
        idx = order[lo:hi]
        value += (hi - lo) / total * _mmi_nats([arr[idx] for arr in arrays])
    return value


def _mmi_nats(arrays: list[np.ndarray]) -> float:
    """Recursive multivariate MI; the n=2 base case is plain MI."""
    if len(arrays) == 2:
        return _mi_nats(arrays[0], arrays[1])
    return _mmi_nats(arrays[:-1]) - _cmmi_nats(arrays[:-1], arrays[-1])


def _scaled(nats: float, base_token: str) -> float:
    return nats / LOG_BASES[base_token]


def _clamped(value: float, what: str) -> float:
    if -CLAMP_TOL <= value < 0.0:
        log.debug("clamping %s = %.3e to 0", what, value)
        return 0.0
    return value


def entropy(d: JointDistribution, base=2) -> float:
    """Shannon entropy of a joint distribution; 0*log(0) terms are omitted."""
    token = normalize_base(base)
    counts = np.fromiter(d.counts.values(), dtype=np.int64, count=len(d.counts))
    return _scaled(_entropy_nats_from_counts(counts, d.total), token)


def mutual_information(a: LabelSequence, b: LabelSequence, base=2) -> float:
    """I(a;b) computed as H(a) + H(b) - H(a;b); tiny negatives clamp to 0."""
    return pair_quantities(a, b, base).i_ts


def conditional_entropy(a: LabelSequence, given: list[LabelSequence], base=2) -> float:
    """H(a | given) = H(a; given) - H(given)."""
    if not given:
        raise DataError("conditional_entropy needs at least one conditioning stream")
    _check_aligned([a, *given])
    arrays = [s.symbols for s in given]
    nats = _h_nats([a.symbols, *arrays]) - _h_nats(arrays)
    return _clamped(_scaled(nats, normalize_base(base)), "conditional entropy")


def conditional_mutual_information(
    streams: list[LabelSequence], given: LabelSequence, base=2
) -> float:
    """MMI of ``streams`` conditioned on ``given``, averaged over its values.

    For two streams this is the usual conditional MI and is non-negative (up
    to rounding, which clamps); for more it recurses and may be negative.
    """
    if len(streams) < 2:
        raise DataError("conditional MI needs at least two streams")
    _check_aligned([*streams, given])
    nats = _cmmi_nats([s.symbols for s in streams], given.symbols)
    value = _scaled(nats, normalize_base(base))
    return _clamped(value, "conditional MI") if len(streams) == 2 else value


def multivariate_mi_recursive(streams: list[LabelSequence], base=2) -> float:
    """Co-information of n >= 2 streams via the recursion
    MMI(x1..xn) = MMI(x1..x(n-1)) - MMI(x1..x(n-1) | xn).  Negative values
    are meaningful (synergy) and are not clamped."""
    if len(streams) < 2:
        raise DataError("multivariate MI needs at least two streams")
    _check_aligned(streams)
    if len(streams) == 2:
        return mutual_information(streams[0], streams[1], base)
    return _scaled(_mmi_nats([s.symbols for s in streams]), normalize_base(base))


def trivariate_mmi(v: LabelSequence, t: LabelSequence, s: LabelSequence, base=2) -> float:
    """Three-variable co-information by inclusion-exclusion over entropies:
    H(V)+H(T)+H(S) - H(T;V) - H(T;S) - H(V;S) + H(V;T;S), the center of
    :func:`info_diagram`."""
    return info_diagram(v, t, s, base).i_vts


@dataclass(frozen=True)
class InfoQuantities:
    """The full quantity table for two or three aligned variables.

    Roles follow the (V, T, S) naming used throughout: T is the discrete
    reference stream, V and S the (quantized) continuous ones.  For a
    two-variable analysis only the (T, S) fields are present and the
    three-way fields are None.
    """

    log_base: str
    h_t: float
    h_s: float
    i_ts: float
    h_s_given_t: float
    h_t_given_s: float
    h_v: float | None = None
    i_tv: float | None = None
    i_vs: float | None = None
    i_vts: float | None = None
    h_v_given_t: float | None = None
    h_t_given_v: float | None = None
    h_v_given_s: float | None = None
    h_s_given_v: float | None = None
    regions: dict[str, float] | None = None

    @property
    def arity(self) -> int:
        return 2 if self.h_v is None else 3

    def as_dict(self) -> dict:
        """Report-schema view laid out by QUANTITY_KEYS and REGIONS, without None fields."""
        out: dict = {"log_base": self.log_base}
        for name, (group, key) in QUANTITY_KEYS.items():
            value = getattr(self, name)
            if value is not None:
                (out if group is None else out.setdefault(group, {}))[key] = value
        if self.regions is not None:
            out["regions"] = {region: self.regions[region] for region in REGIONS}
        return out


# InfoQuantities field -> (group, key) of its place in a report's "quantities"
# object; a None group puts the key at the top level.
QUANTITY_KEYS = {
    "h_t": ("H", "T"),
    "h_s": ("H", "S"),
    "h_v": ("H", "V"),
    "i_tv": ("I2", "T,V"),
    "i_ts": ("I2", "T,S"),
    "i_vs": ("I2", "V,S"),
    "i_vts": (None, "I3"),
    "h_s_given_t": ("cond", "S|T"),
    "h_v_given_t": ("cond", "V|T"),
    "h_t_given_s": ("cond", "T|S"),
    "h_t_given_v": ("cond", "T|V"),
    "h_v_given_s": ("cond", "V|S"),
    "h_s_given_v": ("cond", "S|V"),
}

# The seven information-diagram regions, the keys of ``InfoQuantities.regions``.
REGIONS = ("V|T,S", "T|V,S", "S|V,T", "V;T|S", "T;S|V", "V;S|T", "V;T;S")


def _ts_quantities(t: LabelSequence, s: LabelSequence, token: str):
    """H(T), H(S), H(T;S) and I(T;S) in nats, and the five (T, S) fields of
    InfoQuantities (log base ``token``) as keyword arguments."""
    h_t = _h_nats([t.symbols])
    h_s = _h_nats([s.symbols])
    h_ts = _h_nats([t.symbols, s.symbols])
    i_ts = h_t + h_s - h_ts
    fields = {
        "log_base": token,
        "h_t": _scaled(h_t, token),
        "h_s": _scaled(h_s, token),
        "i_ts": _clamped(_scaled(i_ts, token), "I(T;S)"),
        "h_s_given_t": _clamped(_scaled(h_ts - h_t, token), "H(S|T)"),
        "h_t_given_s": _clamped(_scaled(h_ts - h_s, token), "H(T|S)"),
    }
    return (h_t, h_s, h_ts, i_ts), fields


def pair_quantities(t: LabelSequence, s: LabelSequence, base=2) -> InfoQuantities:
    """Entropies, MI and conditionals for a two-variable analysis."""
    _check_aligned([t, s])
    _, fields = _ts_quantities(t, s, normalize_base(base))
    return InfoQuantities(**fields)


def info_diagram(v: LabelSequence, t: LabelSequence, s: LabelSequence, base=2) -> InfoQuantities:
    """All quantities of the three-circle information diagram.

    The seven regions are three unique parts H(X|Y,Z), three pairwise-
    exclusive parts I(X;Y|Z) (as I(X;Y) minus the center) and the center
    I(V;T;S); the regions touching any one variable sum to its entropy.
    """
    _check_aligned([v, t, s])
    token = normalize_base(base)
    (h_t, h_s, h_ts, i_ts), ts_fields = _ts_quantities(t, s, token)
    av, at, as_ = v.symbols, t.symbols, s.symbols
    h_v = _h_nats([av])
    h_tv = _h_nats([at, av])
    h_vs = _h_nats([av, as_])
    h_vts = _h_nats([av, at, as_])

    i_tv = h_t + h_v - h_tv
    i_vs = h_v + h_s - h_vs
    center = h_v + h_t + h_s - h_tv - h_ts - h_vs + h_vts
    pair_vt = i_tv - center  # = I(V;T|S)
    pair_ts = i_ts - center  # = I(T;S|V)
    pair_vs = i_vs - center  # = I(V;S|T)
    regions = {
        "V|T,S": _clamped(_scaled(h_v - pair_vt - pair_vs - center, token), "region V|T,S"),
        "T|V,S": _clamped(_scaled(h_t - pair_vt - pair_ts - center, token), "region T|V,S"),
        "S|V,T": _clamped(_scaled(h_s - pair_ts - pair_vs - center, token), "region S|V,T"),
        "V;T|S": _clamped(_scaled(pair_vt, token), "region V;T|S"),
        "T;S|V": _clamped(_scaled(pair_ts, token), "region T;S|V"),
        "V;S|T": _clamped(_scaled(pair_vs, token), "region V;S|T"),
        "V;T;S": _scaled(center, token),
    }
    return InfoQuantities(
        **ts_fields,
        h_v=_scaled(h_v, token),
        i_tv=_clamped(_scaled(i_tv, token), "I(T;V)"),
        i_vs=_clamped(_scaled(i_vs, token), "I(V;S)"),
        i_vts=_scaled(center, token),
        h_v_given_t=_clamped(_scaled(h_tv - h_t, token), "H(V|T)"),
        h_t_given_v=_clamped(_scaled(h_tv - h_v, token), "H(T|V)"),
        h_v_given_s=_clamped(_scaled(h_vs - h_s, token), "H(V|S)"),
        h_s_given_v=_clamped(_scaled(h_vs - h_v, token), "H(S|V)"),
        regions=regions,
    )
