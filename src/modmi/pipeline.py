"""End-to-end analysis: load streams, align to one rate, quantize the
continuous ones, and compute the full quantity table into an InfoReport.

Reports serialize as JSON with full configuration provenance, so every
number can be traced to (manifest, config, seed) and regenerated.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import infotheory
from .errors import AlignmentError, DataError, FormatError, ModmiError
from .infotheory import QUANTITY_KEYS, REGIONS, InfoQuantities
from .ingestion import FeatureMatrix, LabelSequence, Manifest, align, load_manifest
from .ingestion import check_bool, check_int, check_keys, check_positive, read_json
from .ingestion import resampled_rows, shown

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
        for f in fields(self):
            if isinstance(getattr(self, f.name), np.generic):
                object.__setattr__(self, f.name, getattr(self, f.name).item())
        object.__setattr__(self, "log_base", infotheory.normalize_base(self.log_base))
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
    """Per-stream provenance recorded in a report."""

    name: str
    role: str
    kind: str
    rows: int
    dims: int | None = None
    clusters: int | None = None
    distinct: int | None = None
    codebook_sha256: str | None = None


# StreamSummary field -> (key, JSON type) in a report's stream entry.  A field
# that defaults to None is left out of the entry while it is None.
_STREAM_KEYS = {
    "name": ("name", str),
    "role": ("role", str),
    "kind": ("kind", str),
    "rows": ("L", int),
    "dims": ("d", int),
    "clusters": ("k", int),
    "distinct": ("distinct", int),
    "codebook_sha256": ("codebook_sha256", str),
}


@dataclass(frozen=True)
class InfoReport:
    """The quantity table plus everything needed to reproduce it."""

    quantities: InfoQuantities
    streams: tuple[StreamSummary, ...]
    config: AnalysisConfig

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
        """Parse a report written by ``to_json``; malformed input raises FormatError.

        A repeated key anywhere, an unknown key outside ``quantities`` and an
        ``rng`` other than ``RNG_NAME`` are malformed too.
        """
        doc = read_json(text, "report")
        cfg = _field(doc, "config", dict, "report")
        check_keys(doc, {*(f.name for f in fields(cls)), "rng"}, "report")
        names = [f.name for f in fields(AnalysisConfig)]
        check_keys(cfg, names, "report: config")
        for name in names:
            if name not in cfg:
                raise FormatError(f"report: config is missing {name!r}")
        _field(cfg, "log_base", str, "config")  # normalize_base would also take the number 2
        try:  # AnalysisConfig checks the type and range of every other value
            config = AnalysisConfig(**{name: cfg[name] for name in names})
        except DataError as e:
            raise FormatError(f"report: config: {e}") from None
        rng = _field(doc, "rng", str, "report")
        if rng != RNG_NAME:
            raise FormatError(f"report: rng must be {RNG_NAME!r}, got {rng!r}")
        optional = _defaults_to_none(StreamSummary)
        entries = _field(doc, "streams", list, "report")
        streams = tuple(
            StreamSummary(
                **{
                    name: _field(e, key, types, "streams[]", optional=name in optional)
                    for name, (key, types) in _STREAM_KEYS.items()
                }
            )
            for e in entries
        )
        for e in entries:
            check_keys(e, [key for key, _ in _STREAM_KEYS.values()], "report: streams[]")
        q = _field(doc, "quantities", dict, "report")
        three = "I3" in q  # the three-way fields are required only then
        three_way = _defaults_to_none(InfoQuantities)
        values = {}
        for name, (group, key) in QUANTITY_KEYS.items():
            if name in three_way and not three:
                continue
            if group is None:
                values[name] = _quantity(q, key, "quantities")
            else:
                obj = _field(q, group, dict, "quantities")
                values[name] = _quantity(obj, key, f"quantities.{group}")
        if three:
            regions = _field(q, "regions", dict, "quantities")
            values["regions"] = {r: _quantity(regions, r, "quantities.regions") for r in REGIONS}
        try:
            log_base = infotheory.normalize_base(_field(q, "log_base", str, "quantities"))
        except DataError as e:
            raise FormatError(f"report: quantities: {e}") from None
        quantities = InfoQuantities(log_base=log_base, **values)
        return cls(quantities=quantities, streams=streams, config=config)


def _defaults_to_none(cls) -> frozenset[str]:
    """Names of the fields of dataclass ``cls`` whose default is None."""
    return frozenset(f.name for f in fields(cls) if f.default is None)


def _field(obj, key: str, types, where: str, optional: bool = False):
    """``obj[key]`` checked against ``types`` (a bool is not a number)."""
    if not isinstance(obj, dict):
        raise FormatError(f"report: {where} must be an object")
    if key not in obj:
        if optional:
            return None
        raise FormatError(f"report: {where} is missing {key!r}")
    value = obj[key]
    if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
        raise FormatError(f"report: {where}.{key} has the wrong type: {value!r}")
    return value


def _quantity(obj, key: str, where: str):
    """``obj[key]``, a JSON number that must convert to a finite float."""
    value = _field(obj, key, (int, float), where)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise FormatError(f"report: {where}.{key} is not a finite number")
    return value


def _assign_roles(specs) -> dict[str, str]:
    """Map stream names to roles V/T/S.

    Explicit names v/t/s win; otherwise a unique labels stream becomes T and
    features fill (S, V) in manifest order; otherwise roles follow manifest
    order ((V, T, S) for three streams, (T, S) for two).
    """
    names = [s.name for s in specs]
    lowered = [n.lower() for n in names]
    wanted = {"v", "t", "s"} if len(specs) == 3 else {"t", "s"}
    if set(lowered) == wanted:
        return {name: low.upper() for name, low in zip(names, lowered)}
    label_streams = [s.name for s in specs if s.kind == "labels"]
    if len(label_streams) == 1:
        feature_roles = iter(["S", "V"])
        roles = {}
        for s in specs:
            roles[s.name] = "T" if s.kind == "labels" else next(feature_roles)
        return roles
    order = ["V", "T", "S"] if len(specs) == 3 else ["T", "S"]
    return {name: role for name, role in zip(names, order)}


def _named(e: ModmiError, name: str) -> ModmiError:
    return type(e)(f"stream {name!r}: {e}")


def _prepare(manifest: Manifest, config: AnalysisConfig):
    """Load all manifest streams and align them to one rate and length.

    Returns the aligned streams in manifest order and the effective rate.
    A stream file that cannot be read raises FormatError naming the stream
    and the path.  Raises AlignmentError if truncation would drop more than
    half of any stream's resampled frames.
    """
    if len(manifest.streams) < 2:
        raise DataError(f"analysis needs >= 2 streams, got {len(manifest.streams)}")
    if len(manifest.streams) > 3:
        raise DataError("reports support 2 or 3 streams; larger sets are out of scope")
    rate = config.target_rate_hz if config.target_rate_hz is not None else manifest.target_rate_hz
    loaded = []
    for spec in manifest.streams:
        try:
            loaded.append(manifest.load_stream(spec))
        except ModmiError as e:
            raise _named(e, spec.name) from e
        except OSError as e:
            reason = e.strerror or e
            raise FormatError(f"stream {spec.name!r}: cannot read {spec.path}: {reason}") from e
    totals = [resampled_rows(stream, rate) for stream in loaded]
    for spec, total in zip(manifest.streams, totals):
        if 2 * min(totals) < total:
            raise AlignmentError(
                f"stream {spec.name!r}: alignment would keep {min(totals)} of its {total} "
                f"frames at {rate:g} Hz; refusing to drop more than half of a stream"
            )
    return align(loaded, rate), rate


def _quantize(spec, stream, config: AnalysisConfig, position: int):
    """Fit one continuous stream; returns (its training labels, summary fields).

    The quantizer and hashlib load here, so a label-only analysis never loads them.
    """
    import hashlib

    from . import quantizer

    k = spec.clusters if spec.clusters is not None else config.clusters
    try:
        cb = quantizer.fit(
            stream,
            k,
            seed=config.seed + position,
            tol=config.tol,
            max_iter=config.max_iter,
            normalize=config.normalize,
        )
        labels = LabelSequence(cb.labels, cb.k, stream.sample_rate_hz, stream.modality_tag)
    except ModmiError as e:
        raise _named(e, spec.name) from e
    digest = hashlib.sha256(quantizer.codebook_to_bytes(cb)).hexdigest()
    return labels, k, digest


def _report(specs, streams, config: AnalysisConfig) -> InfoReport:
    """Quantize the continuous aligned streams and compute the quantity table."""
    roles = _assign_roles(specs)
    by_role, counts = {}, {}  # role -> discretized stream, and its cell counts
    summaries: list[StreamSummary] = []
    for position, (spec, stream) in enumerate(zip(specs, streams)):
        role = roles[spec.name]
        if isinstance(stream, FeatureMatrix):
            labels, k, digest = _quantize(spec, stream, config, position)
            dims = stream.dims
        else:
            labels, k, digest, dims = stream, None, None, None
        by_role[role] = labels
        counts[role] = infotheory.cell_counts([labels.symbols])
        summaries.append(
            StreamSummary(
                name=spec.name,
                role=role,
                kind=spec.kind,
                rows=stream.rows,
                dims=dims,
                clusters=k,
                distinct=counts[role].size,
                codebook_sha256=digest,
            )
        )
    quantities = infotheory._table(by_role, config.log_base, counts)
    return InfoReport(quantities=quantities, streams=tuple(summaries), config=config)


def analyze(manifest, config: AnalysisConfig | None = None) -> InfoReport:
    """Run the whole estimation pipeline for one manifest.

    Deterministic given (manifest, config): per-stream fit seeds are
    config.seed + the stream's position in the manifest.
    """
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    if config is None:
        config = AnalysisConfig()
    streams, rate = _prepare(manifest, config)
    return _report(manifest.streams, streams, replace(config, target_rate_hz=rate))


def sweep_clusters(manifest, config: AnalysisConfig | None, ks: list[int]) -> list[InfoReport]:
    """One analysis per cluster count, sharing seed, alignment and streams.

    The streams are loaded and aligned once.  Each k overrides the cluster
    count of every continuous stream (including manifest per-stream values);
    discrete streams are untouched, so their entropies are constant down the
    sweep.
    """
    if not ks:
        raise DataError("sweep needs a non-empty list of cluster counts")
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    if config is None:
        config = AnalysisConfig()
    configs = [replace(config, clusters=k) for k in ks]  # rejects a bad k before loading
    streams, rate = _prepare(manifest, config)
    specs = tuple(replace(s, clusters=None) for s in manifest.streams)
    return [_report(specs, streams, replace(c, target_rate_hz=rate)) for c in configs]
