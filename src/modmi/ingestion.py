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
from dataclasses import dataclass, field, fields
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
    A length above the u32 row count of the file formats raises DataError,
    which names the stream by its ``modality_tag``.
    """
    target_rate_hz = check_positive(target_rate_hz, "target_rate_hz")
    source_rate = stream.sample_rate_hz
    rows = stream.rows
    length = rows * target_rate_hz / source_rate
    if not math.isfinite(length) or round(length) > _U32_MAX:
        of = f" of stream {stream.modality_tag!r}" if stream.modality_tag else ""
        raise DataError(
            f"resampling {rows} frames{of} from {source_rate:g} Hz to {target_rate_hz:g} Hz "
            f"gives {length:g} frames, above the limit of {_U32_MAX}"
        )
    out_rows = max(1, round(length))
    # Clipped before the cast: at a tiny target rate the float index overflows int64.
    idx = np.minimum(
        rows - 1, np.floor((np.arange(out_rows) + 0.5) * source_rate / target_rate_hz)
    ).astype(np.int64)
    return _frames(stream, idx, target_rate_hz)


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


def _rate(value, where: str) -> float:
    """A manifest rate, by :func:`check_positive`'s rule."""
    try:
        return check_positive(value, where)
    except DataError:
        raise FormatError(f"{where} must be a finite positive number") from None


def _check_keys(obj: dict, cls, where: str) -> None:
    """Reject a key of manifest object ``obj`` that names no field of ``cls``."""
    known = {f.name for f in fields(cls)}
    for key in obj:
        if key not in known:
            raise FormatError(f"{where}: unknown key {key!r}")


def load_manifest(path) -> Manifest:
    """Parse and validate a JSON manifest; relative paths resolve against it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "target_rate_hz" not in doc:
        raise FormatError(f"{path}: manifest must be an object with 'target_rate_hz'")
    _check_keys(doc, Manifest, str(path))
    rate = _rate(doc["target_rate_hz"], f"{path}: target_rate_hz")
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
        _check_keys(entry, StreamSpec, f"{path}: stream {label}")
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
        stream_rate = _rate(entry["sample_rate_hz"], f"{path}: stream {label}: sample_rate_hz")
        if entry["name"] in seen:
            raise FormatError(f"{path}: duplicate stream name {entry['name']!r}")
        seen.add(entry["name"])
        stream_path = Path(entry["path"])
        if not stream_path.is_absolute():
            stream_path = path.parent / stream_path
        if not stream_path.is_file():
            raise FormatError(f"{path}: stream {label}: no such file: {stream_path}")
        for key, only in (("clusters", "features"), ("alphabet_size", "labels")):
            value = entry.get(key)
            if value is not None:
                try:
                    check_int(value, key, 1)
                except DataError:
                    raise FormatError(
                        f"{path}: stream {label}: {key!r} must be an integer >= 1, got {value!r}"
                    ) from None
                if kind != only:
                    raise FormatError(
                        f"{path}: stream {label}: {key!r} applies to {only} streams only"
                    )
        specs.append(
            StreamSpec(
                name=entry["name"],
                path=stream_path,
                kind=kind,
                sample_rate_hz=stream_rate,
                alphabet_size=entry.get("alphabet_size"),
                clusters=entry.get("clusters"),
            )
        )
    return Manifest(target_rate_hz=rate, streams=tuple(specs))
