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
import os
import struct
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataError, FormatError

log = logging.getLogger(__name__)

_FMX_MAGIC = b"FMX1"
_LBL_MAGIC = b"LBL1"
_U32_MAX = 2**32 - 1
_NEWLINE, _ZERO = ord("\n"), ord("0")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def shown(value) -> str:
    """``repr(value)`` for an error message; an integer too long for Python to
    print shows as its sign and bit length."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"


def check_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as a Python int: a Python or numpy integer, never a bool, and
    at least ``minimum`` when one is given.  Anything else raises DataError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DataError(f"{what} must be an integer, got {shown(value)}")
    if minimum is not None and value < minimum:
        raise DataError(f"{what} must be >= {minimum}, got {shown(int(value))}")
    return int(value)


def check_positive(value, what: str) -> float:
    """``value`` as a finite float > 0: a Python or numpy real number, never a
    bool.  Anything else raises DataError."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            number = math.inf
        if 0 < number < math.inf:
            return number
    raise DataError(f"{what} must be finite and > 0 (a number, not a bool), got {shown(value)}")


def check_bool(value, what: str) -> bool:
    """``value`` as a Python bool: a Python or numpy bool.  Anything else
    raises DataError."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise DataError(f"{what} must be a bool, got {shown(value)}")


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
        rate = check_positive(self.sample_rate_hz, "sample_rate_hz")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "sample_rate_hz", rate)

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
        alphabet_size = check_int(self.alphabet_size, "alphabet_size")
        if alphabet_size < 1 or alphabet_size > _U32_MAX:
            raise DataError(f"alphabet_size out of range: {alphabet_size}")
        if symbols.min() < 0:
            raise DataError("symbols must be non-negative")
        if symbols.max() >= alphabet_size:
            raise DataError(f"symbol {int(symbols.max())} exceeds alphabet_size {alphabet_size}")
        rate = check_positive(self.sample_rate_hz, "sample_rate_hz")
        object.__setattr__(self, "symbols", _freeze(symbols))
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "sample_rate_hz", rate)

    @property
    def rows(self) -> int:
        return self.symbols.shape[0]


def write_feature_matrix(m: FeatureMatrix, path) -> None:
    """Write an FMX1 file; reading it back is bit-exact."""
    values = np.asarray(m.values, dtype=np.float32)
    if not np.all(np.isfinite(values)):
        raise DataError("refusing to write non-finite feature values")
    with open(path, "wb") as fh:
        fh.write(_FMX_MAGIC)
        fh.write(struct.pack("<II", m.rows, m.dims))
        fh.write(values.astype("<f4", copy=False).tobytes(order="C"))


def unpack_header(path, raw: bytes, magic: bytes, layout: str) -> tuple:
    """The ``layout`` (struct format) fields after ``magic`` in file ``path``'s bytes ``raw``."""
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    end = len(magic) + struct.calcsize(layout)
    if len(raw) < end:
        raise FormatError(f"{path}: truncated header")
    return struct.unpack(layout, raw[len(magic) : end])


def check_size(path, raw: bytes, expected: int) -> None:
    """Reject a file whose size differs from the ``expected`` its header implies."""
    if len(raw) != expected:
        raise FormatError(
            f"{path}: size mismatch, header implies {expected} bytes, file has {len(raw)}"
        )


def read_feature_matrix(path, sample_rate_hz: float = 25.0, modality_tag: str = "") -> FeatureMatrix:
    """Read an FMX1 file written by :func:`write_feature_matrix`."""
    raw = Path(path).read_bytes()
    rows, dims = unpack_header(path, raw, _FMX_MAGIC, "<II")
    check_size(path, raw, 12 + rows * dims * 4)
    values = np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, dims)
    try:
        return FeatureMatrix(values, sample_rate_hz, modality_tag)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


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

    The alphabet defaults to the LBL1 header value, or for a text file to
    1 + its largest symbol, on both of its parse paths; ``alphabet_size``
    may only override it upward, so inventories with unseen symbols keep
    their declared support size.  A text file of ``\\n``-terminated digit
    lines takes a vectorised parse that gives the same values and the same
    errors as the line-by-line parse every other text file takes.
    """
    raw = Path(path).read_bytes()
    if raw[:4] == _LBL_MAGIC:
        rows, stored_alphabet = unpack_header(path, raw, _LBL_MAGIC, "<II")
        check_size(path, raw, 12 + rows * 4)
        symbols = np.frombuffer(raw, dtype="<u4", offset=12).astype(np.int64)
        base_alphabet = stored_alphabet
    else:
        symbols = _parse_label_text(raw, path)
        base_alphabet = int(symbols.max()) + 1 if symbols.size else 0
    if symbols.size == 0:
        raise FormatError(f"{path}: empty label file (rows >= 1 required)")
    if alphabet_size is not None:
        alphabet_size = check_int(alphabet_size, "alphabet_size", 1)
        if alphabet_size < base_alphabet:
            raise DataError(
                f"{path}: alphabet_size override {alphabet_size} is below "
                f"the observed/declared {base_alphabet}"
            )
        base_alphabet = alphabet_size
    try:
        return LabelSequence(symbols, base_alphabet, sample_rate_hz, modality_tag)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _parse_label_text(raw: bytes, path) -> np.ndarray:
    """The symbols of a one-integer-per-line text file, as int64.

    A file of ``\\n``-terminated lines of 1 to 10 ASCII digits, each at most
    ``_U32_MAX``, is parsed with numpy, one pass per digit position counted
    from the line ends.  Every other file goes to :func:`_parse_label_lines`,
    which gives the same values and the same errors.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    if buf.size == 0 or buf[-1] != _NEWLINE:
        return _parse_label_lines(raw, path)
    ends = np.flatnonzero(buf == _NEWLINE)
    # Digits map to 0..9 and every other byte wraps above 9.
    if np.count_nonzero(buf - _ZERO <= 9) + ends.size != buf.size:
        return _parse_label_lines(raw, path)
    widths = np.diff(ends, prepend=-1) - 1
    widest = int(widths.max())
    if widths.min() < 1 or widest > 10:
        return _parse_label_lines(raw, path)
    values = np.zeros(ends.size, dtype=np.int64)
    for place in range(widest):
        digit = buf[ends - (place + 1)].astype(np.int64)  # a shorter line reads a byte before it
        digit -= _ZERO
        digit[widths <= place] = 0
        digit *= 10**place
        values += digit
    if int(values.max()) > _U32_MAX:
        return _parse_label_lines(raw, path)
    return values


def _parse_label_lines(raw: bytes, path) -> np.ndarray:
    """:func:`_parse_label_text` line by line, for any text ``int`` accepts."""
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
    At the source rate that index is the identity, so the result shares the
    stream's frames instead of copying them.  A length above the u32 row
    count of the file formats raises DataError, which names the stream by
    its ``modality_tag``.
    """
    target_rate_hz = check_positive(target_rate_hz, "target_rate_hz")
    out_rows = resampled_rows(stream, target_rate_hz)
    if target_rate_hz == stream.sample_rate_hz:
        return _frames(stream, slice(None), target_rate_hz)
    # Clipped before the cast: at a tiny target rate the float index overflows int64.
    idx = np.minimum(
        stream.rows - 1,
        np.floor((np.arange(out_rows) + 0.5) * stream.sample_rate_hz / target_rate_hz),
    ).astype(np.int64)
    return _frames(stream, idx, target_rate_hz)


def resampled_rows(stream, target_rate_hz: float) -> int:
    """The frame count :func:`resample_nearest` gives ``stream`` at ``target_rate_hz``."""
    source_rate = stream.sample_rate_hz
    length = stream.rows * target_rate_hz / source_rate
    if not math.isfinite(length) or round(length) > _U32_MAX:
        of = f" of stream {stream.modality_tag!r}" if stream.modality_tag else ""
        raise DataError(
            f"resampling {stream.rows} frames{of} from {source_rate:g} Hz to "
            f"{target_rate_hz:g} Hz gives {length:g} frames, above the limit of {_U32_MAX}"
        )
    return max(1, round(length))


def _frames(stream, idx, rate: float):
    """Frames ``idx`` (an index array or a slice) of a stream, same kind, at ``rate`` Hz."""
    if isinstance(stream, FeatureMatrix):
        return FeatureMatrix(stream.values[idx], rate, stream.modality_tag)
    if isinstance(stream, LabelSequence):
        return LabelSequence(stream.symbols[idx], stream.alphabet_size, rate, stream.modality_tag)
    raise DataError(f"cannot resample object of type {type(stream).__name__}")


def align(
    streams: list[FeatureMatrix | LabelSequence], target_rate_hz: float
) -> list[FeatureMatrix | LabelSequence]:
    """Resample streams of either kind to a common rate with
    :func:`resample_nearest` and truncate them to the shortest.

    Returns the aligned streams in input order, each of its own kind.  The
    frames dropped by truncation are logged per stream.
    """
    if len(streams) < 2:
        raise AlignmentError(f"align needs at least 2 streams, got {len(streams)}")
    resampled = [resample_nearest(s, target_rate_hz) for s in streams]
    rows = min(s.rows for s in resampled)
    dropped = [(s.modality_tag, s.rows - rows) for s in resampled if s.rows > rows]
    if dropped:
        log.info("align: truncating to %d frames, dropped %s", rows, dropped)
    return [_frames(s, slice(rows), s.sample_rate_hz) for s in resampled]


def _rate(value, what: str) -> float:
    """A manifest rate, by :func:`check_positive`'s rule."""
    try:
        return check_positive(value, what)
    except DataError:
        raise DataError(f"{what} must be a finite positive number") from None


@dataclass(frozen=True)
class StreamSpec:
    """One manifest entry, whose field names are a stream entry's keys; a value
    that breaks the manifest's rules raises DataError."""

    name: str
    path: Path
    kind: str  # "features" | "labels"
    sample_rate_hz: float
    alphabet_size: int | None = None
    clusters: int | None = None

    def __post_init__(self):
        path = os.fspath(self.path) if isinstance(self.path, os.PathLike) else self.path
        for key, value in (("name", self.name), ("path", path)):
            if not isinstance(value, str) or not value:
                raise DataError(f"{key!r} must be a non-empty string, got {shown(value)}")
        if not isinstance(self.kind, str) or self.kind not in ("features", "labels"):
            raise DataError(f"unknown kind {shown(self.kind)}")
        object.__setattr__(self, "path", Path(path))
        object.__setattr__(self, "sample_rate_hz", _rate(self.sample_rate_hz, "sample_rate_hz"))
        for key, only in (("clusters", "features"), ("alphabet_size", "labels")):
            value = getattr(self, key)
            if value is None:
                continue
            try:
                object.__setattr__(self, key, check_int(value, key, 1))
            except DataError:
                raise DataError(f"{key!r} must be an integer >= 1, got {shown(value)}") from None
            if self.kind != only:
                raise DataError(f"{key!r} applies to {only} streams only")


@dataclass(frozen=True)
class Manifest:
    """Parsed stream manifest for one analysis, whose field names are a manifest's
    keys; a bad rate or stream, or a repeated stream name, raises DataError."""

    target_rate_hz: float
    streams: tuple[StreamSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "target_rate_hz", _rate(self.target_rate_hz, "target_rate_hz"))
        for i, spec in enumerate(self.streams):
            if not isinstance(spec, StreamSpec):
                raise DataError(f"streams[{i}] must be a StreamSpec, got {type(spec).__name__}")
            if spec.name in [s.name for s in self.streams[:i]]:
                raise DataError(f"duplicate stream name {spec.name!r}")

    def load_stream(self, spec: StreamSpec):
        if spec.kind == "features":
            return read_feature_matrix(spec.path, spec.sample_rate_hz, spec.name)
        return read_labels(spec.path, spec.sample_rate_hz, spec.alphabet_size, spec.name)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's key/value ``pairs`` as a dict; a repeated key raises FormatError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(raw: str | bytes, where: str):
    """The JSON document ``raw``; invalid JSON or a repeated key in any object
    raises FormatError prefixed with ``where``."""
    try:
        return json.loads(raw, object_pairs_hook=_unique_keys)
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: invalid JSON: {exc}") from None


def check_keys(obj: dict, known, where: str) -> None:
    """Reject a key of JSON object ``obj`` that is not in ``known``."""
    for key in obj:
        if key not in known:
            raise FormatError(f"{where}: unknown key {key!r}")


def load_manifest(path) -> Manifest:
    """Parse a JSON manifest checked by StreamSpec and Manifest; paths resolve against it."""
    path = Path(path)
    doc = read_json(path.read_bytes(), str(path))
    if not isinstance(doc, dict) or "target_rate_hz" not in doc:
        raise FormatError(f"{path}: manifest must be an object with 'target_rate_hz'")
    check_keys(doc, {f.name for f in fields(Manifest)}, str(path))
    entries = doc.get("streams")
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{path}: manifest needs a non-empty 'streams' list")
    required = [f.name for f in fields(StreamSpec) if f.default is MISSING]
    specs = []
    for i, entry in enumerate(entries):
        name = entry.get("name") if isinstance(entry, dict) else None
        where = f"{path}: stream {name if isinstance(name, str) and name else f'#{i}'}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: entry must be an object")
        check_keys(entry, {f.name for f in fields(StreamSpec)}, where)
        for key in required:
            if key not in entry:
                raise FormatError(f"{where}: missing field {key!r}")
        try:
            spec = StreamSpec(**entry)
        except DataError as exc:
            raise FormatError(f"{where}: {exc}") from None
        spec = replace(spec, path=path.parent / spec.path)
        if not spec.path.is_file():
            raise FormatError(f"{where}: no such file: {spec.path}")
        specs.append(spec)
    try:
        return Manifest(doc["target_rate_hz"], tuple(specs))
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from None
