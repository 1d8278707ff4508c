"""The report's schema, its JSON reader and writer, and its renderers; no numpy."""

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields

from .errors import DataError, FormatError, ModmiError, check_bool, check_int, check_keys
from .errors import check_positive, is_finite_real, is_json_type, located, read_json, shown
from .errors import check_tuple, check_type, read_object, store_python_scalars

LOG_BASES = {"2": math.log(2.0), "e": 1.0, "10": math.log(10.0)}


def normalize_base(base) -> str:
    """Accepts 2 / "2" / "e" / 10 / "10" and returns the canonical token."""
    try:
        token = str(base).strip().lower()
    except ValueError:  # an integer too long to print is no base either
        token = ""
    if token in ("2.0", "10.0"):
        token = token[:-2]
    if token not in LOG_BASES:
        raise DataError(f"log base must be one of 2, e, 10, got {shown(base)}")
    return token


@dataclass(frozen=True)
class InfoQuantities:
    """The full quantity table for two or three aligned variables.

    Roles follow the (V, T, S) naming used throughout: T is the discrete
    reference stream, V and S the (quantized) continuous ones.  For a
    two-variable analysis only the (T, S) fields are present and the
    three-way fields are None.  They and ``regions``, keyed by REGIONS, are
    all present or all absent; each (T, S) value and each present one is a
    finite real number, not a bool, and a numpy one is stored as a Python
    one; ``log_base`` follows ``normalize_base``.  A breach raises DataError
    naming its place in a report (``quantities.H.T is not ...``).
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

    def __post_init__(self):
        store_python_scalars(self)
        three_way = _defaults_to_none(InfoQuantities)
        present = tuple(name for name in three_way if getattr(self, name) is not None)
        if present not in ((), three_way):
            raise DataError(f"quantities need all of {list(three_way)} or none, got {list(present)}")
        if present and (not isinstance(self.regions, dict) or self.regions.keys() != set(REGIONS)):
            raise DataError(f"quantities.regions must be a dict keyed by {list(REGIONS)}")
        values = {  # the place of each value in a report -> the value
            ".".join(filter(None, ("quantities", group, key))): getattr(self, name)
            for name, (group, key, _) in QUANTITY_KEYS.items()
            if present or name not in three_way
        }
        values.update({f"quantities.regions.{r}": self.regions[r] for r in REGIONS if present})
        for place, value in values.items():
            if not is_finite_real(value):
                raise DataError(f"{place} is not a finite number")
        with located("quantities"):
            object.__setattr__(self, "log_base", normalize_base(self.log_base))

    @property
    def arity(self) -> int:
        return 2 if self.h_v is None else 3

    def as_dict(self) -> dict:
        """Report-schema view laid out by QUANTITY_KEYS and REGIONS, without None fields."""
        out: dict = {"log_base": self.log_base}
        for name, (group, key, _) in QUANTITY_KEYS.items():
            value = getattr(self, name)
            if value is not None:
                (out if group is None else out.setdefault(group, {}))[key] = value
        if self.regions is not None:
            out["regions"] = {region: self.regions[region] for region in REGIONS}
        return out


# InfoQuantities field -> (group, key) of its place in a report's "quantities"
# object, and its table column, in column order.  A None group puts the key at
# the top level; a None column, or a None field, leaves it out of the table.
QUANTITY_KEYS = {
    "h_t": ("H", "T", "H(T)"),
    "h_s": ("H", "S", "H(S)"),
    "h_v": ("H", "V", "H(V)"),
    "i_tv": ("I2", "T,V", "I(T;V)"),
    "i_ts": ("I2", "T,S", "I(T;S)"),
    "i_vs": ("I2", "V,S", "I(V;S)"),
    "i_vts": (None, "I3", "I(V;T;S)"),
    "h_s_given_t": ("cond", "S|T", None),
    "h_v_given_t": ("cond", "V|T", None),
    "h_t_given_s": ("cond", "T|S", None),
    "h_t_given_v": ("cond", "T|V", None),
    "h_v_given_s": ("cond", "V|S", None),
    "h_s_given_v": ("cond", "S|V", None),
}

# The seven information-diagram regions, the keys of ``InfoQuantities.regions``.
REGIONS = ("V|T,S", "T|V,S", "S|V,T", "V;T|S", "T;S|V", "V;S|T", "V;T;S")

RNG_NAME = "pcg64"  # the generator every fit draws from, recorded in reports


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of one analysis run, and the one place their defaults live.

    ``target_rate_hz=None``, the default, means "use the manifest's
    target_rate_hz".
    ``clusters`` is the default k for continuous streams; a manifest entry's
    ``clusters`` field overrides it per stream.
    Numpy scalars are stored as Python ones, so every config writes a report
    that ``InfoReport.from_json`` reads.  Integer fields follow ``check_int``
    (no bools, no floats), ``tol`` and ``target_rate_hz`` follow
    ``check_positive`` (a number, not a bool, with a finite float > 0) and
    are stored as the float it returns, and ``normalize`` follows
    ``check_bool``; each raises DataError.
    """

    target_rate_hz: float | None = None
    clusters: int = 2000
    seed: int = 0
    tol: float = 1e-4
    max_iter: int = 300
    normalize: bool = False
    log_base: str = "2"

    def __post_init__(self):
        store_python_scalars(self)
        object.__setattr__(self, "log_base", normalize_base(self.log_base))
        check_int(self.clusters, "clusters", 1)
        check_int(self.max_iter, "max_iter", 1)
        # Stream i is fitted with seed + i (i <= 2), which must fit in u64.
        if not 0 <= check_int(self.seed, "seed") <= 2**64 - 3:
            raise DataError(f"seed must be in [0, 2**64 - 3], got {shown(self.seed)}")
        object.__setattr__(self, "tol", check_positive(self.tol, "tol"))
        if self.target_rate_hz is not None:
            rate = check_positive(self.target_rate_hz, "target_rate_hz")
            object.__setattr__(self, "target_rate_hz", rate)
        check_bool(self.normalize, "normalize")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StreamSummary:
    """Per-stream provenance recorded in a report, with numpy scalars stored as
    Python ones.  A field's annotation is its JSON type; metadata renames its key."""

    name: str
    role: str
    kind: str
    rows: int = field(metadata={"key": "L"})
    dims: int | None = field(default=None, metadata={"key": "d"})
    clusters: int | None = field(default=None, metadata={"key": "k"})
    distinct: int | None = None
    codebook_sha256: str | None = None

    def __post_init__(self):
        store_python_scalars(self)


# Stream count -> the roles of its streams, in the order of a manifest whose
# names and kinds do not decide them.  A report has one stream per role.
ROLES = {2: ("T", "S"), 3: ("V", "T", "S")}

# StreamSummary field -> (key, JSON type) in a report's stream entry, read off
# the field's metadata and annotation.  A None value leaves its key out.
_STREAM_KEYS = {f.name: (f.metadata.get("key", f.name), f.type) for f in fields(StreamSummary)}


@dataclass(frozen=True)
class InfoReport:
    """The quantity table plus everything needed to reproduce it.

    A part not of its annotated type raises DataError, and so do streams that
    no analysis writes: a field not of its ``StreamSummary`` type (a bool is
    no int); roles other than those of ``ROLES[quantities.arity]``, one
    stream each; a kind other than features or labels; an empty or repeated
    name; an ``L`` below 1 or unlike the first stream's; a ``distinct``
    outside 1..L; a features entry without ``d`` >= 1, ``k`` >= 1 (and >=
    ``distinct``) and a sha256 hex digest; or a labels entry with any of
    ``d``, ``k`` and ``codebook_sha256``.
    """

    quantities: InfoQuantities
    streams: tuple[StreamSummary, ...]
    config: AnalysisConfig

    def __post_init__(self):
        for place, cls in (("quantities", InfoQuantities), ("config", AnalysisConfig)):
            check_type(getattr(self, place), cls, place)  # before any rule reads its attributes
        if (got := self.quantities.log_base) != (base := self.config.log_base):
            raise DataError(f"quantities.log_base must be config.log_base {base!r}, got {got!r}")
        streams = check_tuple(self.streams, "streams")
        object.__setattr__(self, "streams", streams)
        roles = ROLES[self.quantities.arity]
        for i, s in enumerate(streams):  # before the roles rule, which sorts the roles
            check_type(s, StreamSummary, f"streams[{i}]")
            for name, (key, types) in _STREAM_KEYS.items():
                value = getattr(s, name)
                if not is_json_type(value, types):
                    raise DataError(f"streams[{i}].{key} has the wrong type: {shown(value)}")
        if sorted(s.role for s in streams) != sorted(roles):
            got = [s.role for s in streams]
            raise DataError(f"streams need the roles {list(roles)}, one each, got {got}")
        for i, s in enumerate(streams):
            e = {key: getattr(s, name) for name, (key, _) in _STREAM_KEYS.items()}
            rules = {
                "kind": (s.kind in ("features", "labels"), "'features' or 'labels'"),
                "name": (s.name not in ["", *(t.name for t in streams[:i])], "non-empty and unique"),
                "L": (1 <= s.rows == streams[0].rows, ">= 1 and the same in every stream"),
                "d": ((s.dims or 0) >= 1, ">= 1"),
                "k": ((s.clusters or 0) >= max(1, s.distinct or 0), ">= 1 and >= distinct"),
                "codebook_sha256": (
                    re.fullmatch("[0-9a-f]{64}", s.codebook_sha256 or "") is not None,
                    "64 lowercase hex digits",
                ),
                "distinct": (1 <= (s.distinct or 0) <= s.rows, "in 1..L"),
            }
            if s.kind != "features":  # d, k and codebook_sha256 describe a fit
                for key in ("d", "k", "codebook_sha256"):
                    rules[key] = (e[key] is None, "absent from a labels entry")
            for key, (ok, rule) in rules.items():
                if not ok:
                    raise DataError(f"streams[{i}].{key} must be {rule}, got {shown(e[key])}")

    def to_json_dict(self) -> dict:
        streams = []
        for s in self.streams:
            entry = {key: getattr(s, name) for name, (key, _) in _STREAM_KEYS.items()}
            streams.append({key: value for key, value in entry.items() if value is not None})
        return {
            "config": self.config.as_dict(),
            "rng": RNG_NAME,
            "streams": streams,
            "quantities": self.quantities.as_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "InfoReport":
        """Parse a report written by ``to_json``; malformed input raises FormatError:
        an object that lacks a key ``to_json`` writes in it or holds another (the
        three-way ones need ``I3``), a repeated key, a ``null`` in a stream entry,
        a ``log_base`` not a string, an ``rng`` not ``RNG_NAME`` or a value the types reject."""
        top = [*(f.name for f in fields(cls)), "rng"]
        doc = read_object(read_json(text, "report"), "report", top)
        check_keys(doc, top, "report")
        names = [f.name for f in fields(AnalysisConfig)]
        cfg = read_object(doc["config"], "report: config", names)
        check_keys(cfg, names, "report: config")
        if not isinstance(cfg["log_base"], str):  # normalize_base would also take the number 2
            raise FormatError(f"report: config.log_base has the wrong type: {shown(cfg['log_base'])}")
        with located("report: config", FormatError):  # AnalysisConfig checks every value
            config = AnalysisConfig(**cfg)
        if doc["rng"] != RNG_NAME:
            raise FormatError(f"report: rng must be {RNG_NAME!r}, got {shown(doc['rng'])}")
        keys = {key: name for name, (key, _) in _STREAM_KEYS.items()}  # JSON key -> field
        required = [key for key, name in keys.items() if name not in _defaults_to_none(StreamSummary)]
        streams = doc["streams"]  # InfoReport refuses one that is not a list
        for i, e in enumerate(streams if isinstance(streams, list) else ()):
            where = f"report: streams[{i}]"
            check_keys(read_object(e, where, required), keys, where)
            for key, value in e.items():
                if value is None:  # None stands for an absent key
                    raise FormatError(f"{where}.{key} has the wrong type: None")
            streams[i] = StreamSummary(**{keys[key]: value for key, value in e.items()})
        q = read_object(doc["quantities"], "report: quantities")
        absent = () if "I3" in q else _defaults_to_none(InfoQuantities)  # the three-way fields
        places = {name: place[:2] for name, place in QUANTITY_KEYS.items() if name not in absent}
        groups = {} if absent else {"regions": list(REGIONS)}  # each object in q -> its keys
        for group, key in places.values():
            groups.setdefault(group, []).append(key)
        top = ["log_base", *groups.pop(None, []), *groups]  # group None holds I3, a number
        read_object(q, "report: quantities", top)
        for group, inner in groups.items():
            read_object(q[group], f"report: quantities.{group}", inner)
        if not isinstance(base := q["log_base"], str):  # as config's
            raise FormatError(f"report: quantities.log_base has the wrong type: {shown(base)}")
        values = {name: (q[group] if group else q)[key] for name, (group, key) in places.items()}
        if not absent:
            values["regions"] = {region: q["regions"][region] for region in REGIONS}
        with located("report", FormatError):  # InfoQuantities checks every value
            quantities = InfoQuantities(log_base=base, **values)
        for place, read, part in (("config", cfg, config), ("quantities", q, quantities)):
            given, token = read["log_base"], part.log_base  # to_json writes the token back
            if given != token:
                raise FormatError(f"report: {place}.log_base must be {token!r}, got {shown(given)}")
        check_keys(q, top, "report: quantities")
        for group, inner in groups.items():
            check_keys(q[group], inner, f"report: quantities.{group}")
        with located("report", FormatError):  # InfoReport checks the streams
            return cls(quantities=quantities, streams=streams, config=config)


def _defaults_to_none(cls) -> tuple[str, ...]:
    """Names of the fields of dataclass ``cls`` whose default is None, in order."""
    return tuple(f.name for f in fields(cls) if f.default is None)


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _columns(q: InfoQuantities) -> dict[str, float]:
    """The table's columns for ``q``, each with its value."""
    values = {column: getattr(q, name) for name, (_, _, column) in QUANTITY_KEYS.items() if column}
    return {column: value for column, value in values.items() if value is not None}


def _row(q: InfoQuantities) -> str:
    return " ".join(_fmt(v) for v in _columns(q).values())


def render_table(report: InfoReport) -> str:
    return " ".join(_columns(report.quantities)) + "\n" + _row(report.quantities) + "\n"


def render_sweep_table(reports: list[InfoReport]) -> str:
    lines = ["k " + " ".join(_columns(reports[0].quantities))]
    for report in reports:
        lines.append(f"{report.config.clusters} {_row(report.quantities)}")
    return "\n".join(lines) + "\n"


def render_sweep_json(reports: list[InfoReport]) -> str:
    return "[\n" + ",\n".join(r.to_json().rstrip("\n") for r in reports) + "\n]\n"


# Fixed layout for the three-circle diagram: each role's circle center, colour
# and H(role) label anchor point, and the anchor point of each region label.
_CIRCLES = {
    "V": ((250.0, 215.0), "#e41a1c", (140.0, 105.0)),
    "S": ((390.0, 215.0), "#377eb8", (500.0, 105.0)),
    "T": ((320.0, 330.0), "#4daf4a", (320.0, 462.0)),
}
_RADIUS = 118.0
_REGION_XY = {
    "V|T,S": (205.0, 185.0),
    "S|V,T": (435.0, 185.0),
    "T|V,S": (320.0, 390.0),
    "V;S|T": (320.0, 185.0),
    "V;T|S": (255.0, 295.0),
    "T;S|V": (385.0, 295.0),
    "V;T;S": (320.0, 255.0),
}


def check_diagram_arity(arity: int) -> None:
    """Raise unless a report of ``arity`` streams has an information diagram."""
    if arity != max(ROLES):  # one circle per role of the largest report
        raise ModmiError("the information diagram needs a three-stream report")


def render_diagram_svg(q: InfoQuantities, title: str = "") -> str:
    """Information diagram: three circles, seven region values."""
    check_diagram_arity(q.arity)
    title = (title or "Information diagram").replace("&", "&amp;")
    title = title.replace("<", "&lt;").replace(">", "&gt;")  # XML text needs these escaped
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="470" '
        'viewBox="0 0 640 470">',
        '<rect width="640" height="470" fill="white"/>',
        f'<text x="320" y="34" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for (cx, cy), fill, _ in _CIRCLES.values():
        parts.append(
            f'<circle cx="{cx:g}" cy="{cy:g}" r="{_RADIUS:g}" fill="{fill}" '
            f'fill-opacity="0.18" stroke="{fill}" stroke-width="2"/>'
        )
    for role, (_, fill, (x, y)) in _CIRCLES.items():
        parts.append(
            f'<text x="{x:g}" y="{y:g}" text-anchor="middle" font-size="16" '
            f'font-family="sans-serif" fill="{fill}">H({role}) = '
            f"{_fmt(getattr(q, f'h_{role.lower()}'))}</text>"
        )
    for region, (x, y) in _REGION_XY.items():
        parts.append(
            f'<text x="{x:g}" y="{y:g}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif">{_fmt(q.regions[region])}</text>'
        )
    parts.append(
        f'<text x="320" y="442" text-anchor="middle" font-size="12" font-family="sans-serif">'
        f"log base {q.log_base}; center is I(V;T;S)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
