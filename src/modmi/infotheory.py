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

Every quantity is a signed sum of ``_h_nats``, the one entropy formula:
H(X | g) = -sum p(cell) log p(cell | its group) over the cells of (g, X), one
table pass however many values g takes.  Logs of in-group shares keep exact
cases exact: one group is the ungrouped sum, and dyadic independence gives 0.
"""

import numpy as np

from .errors import AlignmentError, check_tuple, check_type
from .ingestion import LabelSequence
from .report import LOG_BASES, InfoQuantities, normalize_base

# Matching plug-in MI and conditional entropy are >= 0 up to rounding; values
# this far below zero are clamped (the raw value is logged).
CLAMP_TOL = 1e-12


def _symbols(streams=(), what="streams", least=1, **single) -> list[np.ndarray]:
    """The symbol arrays of the ``single`` streams, named by argument, then of those
    in ``streams``, a tuple or list named ``what``: at least ``least`` LabelSequences of
    one length in all.  Too few streams or unequal lengths raise AlignmentError."""
    named = {**single, **{f"{what}[{i}]": s for i, s in enumerate(check_tuple(streams, what))}}
    if len(named) < least:
        counted = ("one stream", "two streams", "three streams")[least - 1]
        raise AlignmentError(f"need at least {counted}")
    lengths = {check_type(s, LabelSequence, name).rows for name, s in named.items()}
    if len(lengths) != 1:
        raise AlignmentError(f"streams are not aligned: lengths {sorted(lengths)}")
    return [s.symbols for s in named.values()]


def _tuple_keys(arrays: list[np.ndarray]) -> np.ndarray:
    """One int64 key per aligned tuple of non-negative symbols, ordered as the
    tuples are lexicographically (the first array most significant)."""
    return _bounded_keys(arrays)[0]


def _bounded_keys(arrays: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """The keys of :func:`_tuple_keys` and the largest key their radices allow.

    Keys are mixed-radix numbers with radix max + 1 per array, so each array's
    max is read once.  When the next digit would overflow int64, the key so
    far is first replaced by its rank among the distinct keys, which keeps
    the order.
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
    return key, key_max


def cell_counts(arrays: list[np.ndarray]) -> np.ndarray:
    """How often each occupied cell of the aligned symbol arrays occurs, in
    tuple order (the first array most significant).

    When the key bound (the product of the radices less one, unless ranks
    replaced a prefix) is below the row count, the keys are counted with
    ``bincount``, whose table is then no larger than the keys.  Otherwise
    the keys are sorted in place, as int32 when the bound fits, and each run
    of equal keys is one cell: the counts ``np.unique`` would give, in the
    same order.
    """
    key, bound = _bounded_keys(arrays)
    if bound < key.size:
        counts = np.bincount(key)
        return counts[counts.nonzero()]
    if bound < 2**31:
        key = key.astype(np.int32)
    key.sort()
    starts = np.flatnonzero(key[1:] != key[:-1])
    starts += 1
    return np.diff(starts, prepend=0, append=key.size)


def _h_nats(arrays: list[np.ndarray], groups=None, counts=None) -> float:
    """H(arrays | groups) in nats, -sum p(cell) log p(cell | its group) over the cells of
    (groups, *arrays); with no groups the joint entropy, from ``counts`` if given.  The
    groups are a pair, dense ids and each id's row count, both from the ``np.unique``
    that made the ids: no call counts the groups again."""
    if groups is None:
        p = within = (cell_counts(arrays) if counts is None else counts) / arrays[0].shape[0]
    else:
        ids, sizes = groups
        counts = cell_counts([ids, *arrays])  # in group order, as the ids lead the key
        last = np.searchsorted(np.cumsum(counts), np.cumsum(sizes))  # each group's last cell
        p, within = counts / ids.shape[0], counts / np.repeat(sizes, np.diff(last, prepend=-1))
    return float(-(p * np.log(within)).sum())


def _mmi_nats(arrays: list[np.ndarray], groups=None) -> float:
    """MMI(arrays | groups), ``groups`` as in :func:`_h_nats`, by
    MMI(x1..xn | g) = MMI(x1..x(n-1) | g) - MMI(x1..x(n-1) | g, xn) down to
    H(a|g) + H(b|g) - H(a,b|g): every MI of the library is this signed sum."""
    if len(arrays) > 2:
        keys = _tuple_keys([arrays[-1]] if groups is None else [groups[0], arrays[-1]])
        joint = np.unique(keys, return_inverse=True, return_counts=True)[1:]
        return _mmi_nats(arrays[:-1], groups) - _mmi_nats(arrays[:-1], joint)
    return _h_nats(arrays[:1], groups) + _h_nats(arrays[1:], groups) - _h_nats(arrays, groups)


def _scaled(nats: float, base_token: str) -> float:
    return nats / LOG_BASES[base_token]


def _clamped(value: float, what: str) -> float:
    if -CLAMP_TOL <= value < 0.0:
        import logging  # loaded only when there is a message to emit

        logging.getLogger(__name__).debug("clamping %s = %.3e to 0", what, value)
        return 0.0
    return value


def entropy(streams: list[LabelSequence], base=2) -> float:
    """Joint Shannon entropy of one or more aligned streams; 0*log(0) terms
    are omitted."""
    return _scaled(_h_nats(_symbols(streams)), normalize_base(base))


def mutual_information(a: LabelSequence, b: LabelSequence, base=2) -> float:
    """I(a;b) computed as H(a) + H(b) - H(a;b); tiny negatives clamp to 0."""
    return _clamped(_scaled(_mmi_nats(_symbols(a=a, b=b)), normalize_base(base)), "I(a;b)")


def conditional_entropy(a: LabelSequence, given: list[LabelSequence], base=2) -> float:
    """H(a | given) = H(a; given) - H(given)."""
    arrays = _symbols(given, "given", 2, a=a)
    nats = _h_nats(arrays) - _h_nats(arrays[1:])
    return _clamped(_scaled(nats, normalize_base(base)), "conditional entropy")


def conditional_mutual_information(
    streams: list[LabelSequence], given: LabelSequence, base=2
) -> float:
    """MMI of ``streams`` conditioned on ``given``, averaged over its values.

    For two streams this is the usual conditional MI and is non-negative (up
    to rounding, which clamps); for more it recurses and may be negative.
    """
    given_symbols, *arrays = _symbols(streams, least=3, given=given)
    groups = np.unique(given_symbols, return_inverse=True, return_counts=True)[1:]
    value = _scaled(_mmi_nats(arrays, groups), normalize_base(base))
    return _clamped(value, "conditional MI") if len(streams) == 2 else value


def multivariate_mi_recursive(streams: list[LabelSequence], base=2) -> float:
    """Co-information of n >= 2 streams via the recursion
    MMI(x1..xn) = MMI(x1..x(n-1)) - MMI(x1..x(n-1) | xn).  Negative values
    are meaningful (synergy); only two streams' MI clamps its tiny negatives."""
    arrays = _symbols(streams, least=2)
    value = _scaled(_mmi_nats(arrays), normalize_base(base))
    return _clamped(value, "I(a;b)") if len(arrays) == 2 else value


def trivariate_mmi(v: LabelSequence, t: LabelSequence, s: LabelSequence, base=2) -> float:
    """Three-variable co-information by inclusion-exclusion over entropies:
    H(V)+H(T)+H(S) - H(T;V) - H(T;S) - H(V;S) + H(V;T;S), the center of
    :func:`info_diagram`."""
    return info_diagram(v, t, s, base).i_vts


# Pair of roles XY -> the InfoQuantities fields of I(X;Y), H(Y|X) and H(X|Y).
# The roles' order is the key order of the joint H(X,Y).
_PAIRS = {
    "TS": ("i_ts", "h_s_given_t", "h_t_given_s"),
    "TV": ("i_tv", "h_v_given_t", "h_t_given_v"),
    "VS": ("i_vs", "h_s_given_v", "h_v_given_s"),
}


def quantity_table(by_role: dict[str, LabelSequence], token: str, counts=None) -> InfoQuantities:
    """The quantity table, in log base ``token``, of aligned streams keyed by
    role (T and S, and V for three) and, if given, their ``cell_counts`` by role."""
    h = {role: _h_nats([seq.symbols], counts=(counts or {}).get(role)) for role, seq in by_role.items()}
    mi = {}
    fields = {"log_base": token, **{f"h_{r.lower()}": _scaled(h[r], token) for r in h}}
    for pair, (i_xy, y_given_x, x_given_y) in _PAIRS.items():
        x, y = pair
        if x in by_role and y in by_role:
            h[pair] = _h_nats([by_role[x].symbols, by_role[y].symbols])
            mi[pair] = h[x] + h[y] - h[pair]
            fields[i_xy] = _clamped(_scaled(mi[pair], token), f"I({x};{y})")
            fields[y_given_x] = _clamped(_scaled(h[pair] - h[x], token), f"H({y}|{x})")
            fields[x_given_y] = _clamped(_scaled(h[pair] - h[y], token), f"H({x}|{y})")
    if "V" in by_role:
        h_vts = _h_nats([by_role[r].symbols for r in "VTS"])
        center = h["V"] + h["T"] + h["S"] - h["TV"] - h["TS"] - h["VS"] + h_vts
        pair_vt = mi["TV"] - center  # = I(V;T|S)
        pair_ts = mi["TS"] - center  # = I(T;S|V)
        pair_vs = mi["VS"] - center  # = I(V;S|T)
        parts = {
            "V|T,S": h["V"] - pair_vt - pair_vs - center,
            "T|V,S": h["T"] - pair_vt - pair_ts - center,
            "S|V,T": h["S"] - pair_ts - pair_vs - center,
            "V;T|S": pair_vt,
            "T;S|V": pair_ts,
            "V;S|T": pair_vs,
        }
        fields["i_vts"] = _scaled(center, token)
        fields["regions"] = {
            **{r: _clamped(_scaled(x, token), f"region {r}") for r, x in parts.items()},
            "V;T;S": fields["i_vts"],
        }
    return InfoQuantities(**fields)


def pair_quantities(t: LabelSequence, s: LabelSequence, base=2) -> InfoQuantities:
    """Entropies, MI and conditionals for a two-variable analysis."""
    _symbols(t=t, s=s)
    return quantity_table({"T": t, "S": s}, normalize_base(base))


def info_diagram(v: LabelSequence, t: LabelSequence, s: LabelSequence, base=2) -> InfoQuantities:
    """All quantities of the three-circle information diagram.

    The seven regions are three unique parts H(X|Y,Z), three pairwise-
    exclusive parts I(X;Y|Z) (as I(X;Y) minus the center) and the center
    I(V;T;S); the regions touching any one variable sum to its entropy.
    """
    _symbols(v=v, t=t, s=s)
    return quantity_table({"V": v, "T": t, "S": s}, normalize_base(base))
