"""Stream data model, file formats and frame-rate alignment.

Two stream kinds exist: continuous ``FeatureMatrix`` (L x d float32) and
discrete ``LabelSequence`` (L non-negative symbols).  Files use small
little-endian binary formats:

* FMX1 features: magic ``FMX1``, rows (u32), dims (u32), rows*dims float32,
  row-major.
* LBL1 labels: magic ``LBL1``, rows (u32), alphabet_size (u32), rows u32
  symbols.  A plain text file with one decimal integer per line is accepted
  as input too.

A JSON manifest names the streams of one analysis (paths, kinds, rates,
optional alphabet/cluster overrides).
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataError, FormatError

log = logging.getLogger(__name__)

_FMX_MAGIC = b"FMX1"
_LBL_MAGIC = b"LBL1"
_U32_MAX = 2**32 - 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """One modality's continuous feature stream, L frames of d dimensions."""

    values: np.ndarray
    sample_rate_hz: float
    modality_tag: str = ""

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        if values.ndim != 2:
            raise DataError(f"feature values must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"feature matrix needs rows >= 1 and dims >= 1, got {values.shape}")
        if not np.all(np.isfinite(values)):
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            r, c = divmod(idx, values.shape[1])
            raise DataError(f"non-finite feature value at row {r}, col {c}")
        if not 0 < self.sample_rate_hz < math.inf:
            raise DataError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabelSequence:
    """One modality's discrete symbol stream over a fixed alphabet."""

    symbols: np.ndarray
    alphabet_size: int
    sample_rate_hz: float
    modality_tag: str = ""

    def __post_init__(self):
        symbols = np.ascontiguousarray(self.symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise DataError(f"symbols must be 1-D, got shape {symbols.shape}")
        if symbols.shape[0] < 1:
            raise DataError("label sequence needs rows >= 1")
        if self.alphabet_size < 1 or self.alphabet_size > _U32_MAX:
            raise DataError(f"alphabet_size out of range: {self.alphabet_size}")
        if symbols.min() < 0:
            raise DataError("symbols must be non-negative")
        if symbols.max() >= self.alphabet_size:
            raise DataError(
                f"symbol {int(symbols.max())} exceeds alphabet_size {self.alphabet_size}"
            )
        object.__setattr__(self, "symbols", _freeze(symbols))
        object.__setattr__(self, "alphabet_size", int(self.alphabet_size))
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        if not 0 < self.sample_rate_hz < math.inf:
            raise DataError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz}")

    @property
    def rows(self) -> int:
        return self.symbols.shape[0]


@dataclass(frozen=True)
class AlignedDataset:
    """Named streams, features or labels, sharing one length and one sample
    rate."""

    streams: dict[str, FeatureMatrix | LabelSequence]

    def __post_init__(self):
        if not self.streams:
            raise AlignmentError("aligned dataset needs at least one stream")
        lengths = {s.rows for s in self.streams.values()}
        rates = {s.sample_rate_hz for s in self.streams.values()}
        if len(lengths) != 1:
            raise AlignmentError(f"stream lengths differ: {sorted(lengths)}")
        if len(rates) != 1:
            raise AlignmentError(f"stream rates differ: {sorted(rates)}")

    @property
    def rows(self) -> int:
        return next(iter(self.streams.values())).rows

    @property
    def sample_rate_hz(self) -> float:
        return next(iter(self.streams.values())).sample_rate_hz


def write_feature_matrix(m: FeatureMatrix, path) -> None:
    """Write an FMX1 file; reading it back is bit-exact."""
    values = np.asarray(m.values, dtype=np.float32)
    if not np.all(np.isfinite(values)):
        raise DataError("refusing to write non-finite feature values")
    with open(path, "wb") as fh:
        fh.write(_FMX_MAGIC)
        fh.write(struct.pack("<II", m.rows, m.dims))
        fh.write(values.astype("<f4", copy=False).tobytes(order="C"))


def read_feature_matrix(path, sample_rate_hz: float = 25.0, modality_tag: str = "") -> FeatureMatrix:
    """Read an FMX1 file written by :func:`write_feature_matrix`."""
    raw = Path(path).read_bytes()
    if raw[:4] != _FMX_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {_FMX_MAGIC!r}")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header")
    rows, dims = struct.unpack("<II", raw[4:12])
    expected = 12 + rows * dims * 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, header says {rows}x{dims} "
            f"({expected} bytes), file has {len(raw)}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, dims)
    if not np.all(np.isfinite(values)):
        idx = int(np.flatnonzero(~np.isfinite(values))[0])
        r, c = divmod(idx, dims)
        raise DataError(f"{path}: non-finite value at row {r}, col {c}")
    return FeatureMatrix(values, sample_rate_hz, modality_tag)


def write_labels(s: LabelSequence, path) -> None:
    """Write an LBL1 file; reading it back is bit-exact."""
    if s.alphabet_size > _U32_MAX or int(s.symbols.max()) > _U32_MAX:
        raise DataError("symbols do not fit the u32 on-disk format")
    with open(path, "wb") as fh:
        fh.write(_LBL_MAGIC)
        fh.write(struct.pack("<II", s.rows, s.alphabet_size))
        fh.write(s.symbols.astype("<u4").tobytes(order="C"))


def read_labels(
    path,
    sample_rate_hz: float = 25.0,
    alphabet_size: int | None = None,
    modality_tag: str = "",
) -> LabelSequence:
    """Read labels from an LBL1 binary or a one-integer-per-line text file.

    The alphabet defaults to 1 + max observed symbol (or the LBL1 header
    value); ``alphabet_size`` may only override it upward, so inventories
    with unseen symbols keep their declared support size.
    """
    raw = Path(path).read_bytes()
    if raw[:4] == _LBL_MAGIC:
        if len(raw) < 12:
            raise FormatError(f"{path}: truncated header")
        rows, stored_alphabet = struct.unpack("<II", raw[4:12])
        if len(raw) != 12 + rows * 4:
            raise FormatError(
                f"{path}: payload size mismatch, header says {rows} symbols, "
                f"file has {(len(raw) - 12) // 4}"
            )
        symbols = np.frombuffer(raw, dtype="<u4", offset=12).astype(np.int64)
        base_alphabet = stored_alphabet
    else:
        symbols = _parse_label_text(raw, path)
        base_alphabet = int(symbols.max()) + 1 if symbols.size else 0
    if symbols.size == 0:
        raise FormatError(f"{path}: empty label file (rows >= 1 required)")
    if alphabet_size is not None:
        if alphabet_size < base_alphabet:
            raise DataError(
                f"{path}: alphabet_size override {alphabet_size} is below "
                f"the observed/declared {base_alphabet}"
            )
        base_alphabet = alphabet_size
    return LabelSequence(symbols, base_alphabet, sample_rate_hz, modality_tag)


def _parse_label_text(raw: bytes, path) -> np.ndarray:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: neither LBL1 binary nor UTF-8 text ({exc})") from None
    symbols = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: not an integer: {token!r}") from None
        if value < 0:
            raise FormatError(f"{path}:{lineno}: negative symbol {value}")
        if value > _U32_MAX:
            raise FormatError(f"{path}:{lineno}: symbol {value} exceeds the u32 limit {_U32_MAX}")
        symbols.append(value)
    return np.asarray(symbols, dtype=np.int64)


def resample_nearest(stream, target_rate_hz: float):
    """Resample to ``target_rate_hz`` by nearest-frame decimation/replication.

    Output length is ``max(1, round(L * target / source))`` and output frame
    ``i`` copies source frame ``min(L - 1, floor((i + 0.5) * source / target))``.
    No interpolation, so label streams stay valid and features unsmoothed.
    """
    if not 0 < target_rate_hz < math.inf:
        raise DataError(f"target_rate_hz must be finite and > 0, got {target_rate_hz}")
    source_rate = stream.sample_rate_hz
    rows = stream.rows
    out_rows = max(1, int(round(rows * target_rate_hz / source_rate)))
    idx = np.minimum(
        rows - 1,
        np.floor((np.arange(out_rows) + 0.5) * source_rate / target_rate_hz).astype(np.int64),
    )
    if isinstance(stream, FeatureMatrix):
        return FeatureMatrix(stream.values[idx], target_rate_hz, stream.modality_tag)
    if isinstance(stream, LabelSequence):
        return LabelSequence(
            stream.symbols[idx], stream.alphabet_size, target_rate_hz, stream.modality_tag
        )
    raise DataError(f"cannot resample object of type {type(stream).__name__}")


def _truncated(stream, rows: int):
    """First ``rows`` frames of a stream, same kind."""
    if isinstance(stream, FeatureMatrix):
        return FeatureMatrix(stream.values[:rows], stream.sample_rate_hz, stream.modality_tag)
    return LabelSequence(
        stream.symbols[:rows], stream.alphabet_size, stream.sample_rate_hz, stream.modality_tag
    )


def align(streams: list[FeatureMatrix | LabelSequence], target_rate_hz: float) -> AlignedDataset:
    """Resample streams of either kind to a common rate with
    :func:`resample_nearest` and truncate them to the shortest.

    Each stream keeps its kind.  Stream names come from ``modality_tag``
    (falling back to ``stream<i>``); duplicates are rejected.  The frames
    dropped by truncation are logged per stream.
    """
    if len(streams) < 2:
        raise AlignmentError(f"align needs at least 2 streams, got {len(streams)}")
    resampled = [resample_nearest(s, target_rate_hz) for s in streams]
    rows = min(s.rows for s in resampled)
    if rows == 0:
        raise AlignmentError("alignment produced zero common frames")
    dropped = [(s.modality_tag, s.rows - rows) for s in resampled if s.rows > rows]
    if dropped:
        log.info("align: truncating to %d frames, dropped %s", rows, dropped)
    named: dict[str, FeatureMatrix | LabelSequence] = {}
    for i, s in enumerate(resampled):
        name = s.modality_tag or f"stream{i}"
        if name in named:
            raise AlignmentError(f"duplicate stream name {name!r}")
        named[name] = _truncated(s, rows)
    return AlignedDataset(named)


@dataclass(frozen=True)
class StreamSpec:
    """One manifest entry: where a stream lives and how to read it."""

    name: str
    path: Path
    kind: str  # "features" | "labels"
    sample_rate_hz: float
    alphabet_size: int | None = None
    clusters: int | None = None


@dataclass(frozen=True)
class Manifest:
    """Parsed stream manifest for one analysis."""

    target_rate_hz: float
    streams: tuple[StreamSpec, ...] = field(default_factory=tuple)

    def load_stream(self, spec: StreamSpec):
        if spec.kind == "features":
            return read_feature_matrix(spec.path, spec.sample_rate_hz, spec.name)
        return read_labels(spec.path, spec.sample_rate_hz, spec.alphabet_size, spec.name)


def load_manifest(path) -> Manifest:
    """Parse and validate a JSON manifest; relative paths resolve against it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "target_rate_hz" not in doc:
        raise FormatError(f"{path}: manifest must be an object with 'target_rate_hz'")
    rate = doc["target_rate_hz"]
    if not isinstance(rate, (int, float)) or not 0 < rate < math.inf:
        raise FormatError(f"{path}: target_rate_hz must be a finite positive number")
    entries = doc.get("streams")
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{path}: manifest needs a non-empty 'streams' list")
    specs = []
    seen = set()
    for i, entry in enumerate(entries):
        name = entry.get("name") if isinstance(entry, dict) else None
        label = name if isinstance(name, str) and name else f"#{i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: stream {label}: entry must be an object")
        for key in ("name", "path", "kind", "sample_rate_hz"):
            if key not in entry:
                raise FormatError(f"{path}: stream {label}: missing field {key!r}")
        for key in ("name", "path"):
            if not isinstance(entry[key], str) or not entry[key]:
                raise FormatError(
                    f"{path}: stream {label}: {key!r} must be a non-empty string, "
                    f"got {entry[key]!r}"
                )
        kind = entry["kind"]
        if kind not in ("features", "labels"):
            raise FormatError(f"{path}: stream {label}: unknown kind {kind!r}")
        stream_rate = entry["sample_rate_hz"]
        if not isinstance(stream_rate, (int, float)) or not 0 < stream_rate < math.inf:
            raise FormatError(f"{path}: stream {label}: sample_rate_hz must be finite and positive")
        if entry["name"] in seen:
            raise FormatError(f"{path}: duplicate stream name {entry['name']!r}")
        seen.add(entry["name"])
        stream_path = Path(entry["path"])
        if not stream_path.is_absolute():
            stream_path = path.parent / stream_path
        if not stream_path.is_file():
            raise FormatError(f"{path}: stream {label}: no such file: {stream_path}")
        for key in ("clusters", "alphabet_size"):
            value = entry.get(key)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
                raise FormatError(
                    f"{path}: stream {label}: {key!r} must be an integer >= 1, got {value!r}"
                )
        clusters = entry.get("clusters")
        if clusters is not None and kind == "labels":
            raise FormatError(
                f"{path}: stream {label}: 'clusters' applies to features streams only"
            )
        specs.append(
            StreamSpec(
                name=entry["name"],
                path=stream_path,
                kind=kind,
                sample_rate_hz=float(stream_rate),
                alphabet_size=entry.get("alphabet_size"),
                clusters=clusters,
            )
        )
    return Manifest(target_rate_hz=float(rate), streams=tuple(specs))
