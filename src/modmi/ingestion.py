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

import json
import math
import os
import struct
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import AlignmentError, DataError, FormatError, check_int, check_keys, check_positive
from .errors import check_tuple, check_type, located, printable, read_json, read_object, shown

_FMX_MAGIC = b"FMX1"
_LBL_MAGIC = b"LBL1"
_U32_MAX = 2**32 - 1
_MAX_SYMBOL = _U32_MAX - 1  # a symbol is below its alphabet, which is at most _U32_MAX
_NEWLINE, _ZERO = ord("\n"), ord("0")


def frozen_array(value, dtype, what: str) -> np.ndarray:
    """``value`` converted once to a read-only, C-contiguous ``dtype`` array,
    copied unless no write can reach it through its bases.  DataError refuses
    a dtype but bool, integer, float and object (strings, complex, dates), what
    numpy cannot convert and what a cast to an integer (symbol) dtype changes:
    not a whole number in [0, _MAX_SYMBOL].  A float overflow gives inf."""
    try:
        given = np.asarray(value)
        if given.dtype.kind in "SU" and given.size:  # "1.5" too, in numpy's words for "a"
            to = "float" if np.dtype(dtype).kind == "f" else "int"
            raise ValueError(f"could not convert string to {to}: {shown(given.flat[0].item())}")
        if given.dtype.kind not in "biufO":
            raise TypeError(f"got {given.dtype} values")
        owner = given  # no write reaches past a read-only array to its base
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        convert = np.asarray if owner is None or isinstance(owner, bytes) else np.array
        with np.errstate(over="ignore", invalid="ignore"):  # to inf, or refused below
            array = convert(given, dtype=dtype, order="C")
        if array.dtype.kind == "i" and not np.can_cast(given.dtype, dtype):
            kept = (array == given) & (array >= 0) & (array <= _MAX_SYMBOL)
            if not kept.all():
                i = int(np.argmin(kept))
                raise DataError(f"{what} must be integers in [0, {_MAX_SYMBOL}], got "
                                f"{shown(given.flat[i : i + 1].tolist()[0])} at index {i}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what} must be an array of numbers: {exc}") from None
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class FeatureMatrix:
    """One modality's continuous feature stream, L frames of d dimensions."""

    values: np.ndarray
    sample_rate_hz: float
    modality_tag: str = ""

    def __post_init__(self):
        values = frozen_array(self.values, np.float32, "feature values")
        if values.ndim != 2:
            raise DataError(f"feature values must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(f"feature matrix needs rows >= 1 and dims >= 1, got {values.shape}")
        if not np.all(np.isfinite(values)):
            idx = int(np.flatnonzero(~np.isfinite(values))[0])
            r, c = divmod(idx, values.shape[1])
            raise DataError(f"non-finite feature value at row {r}, col {c}")
        rate = check_positive(self.sample_rate_hz, "sample_rate_hz")
        object.__setattr__(self, "values", values)
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
        symbols = frozen_array(self.symbols, np.int64, "symbols")
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
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "sample_rate_hz", rate)

    @property
    def rows(self) -> int:
        return self.symbols.shape[0]


def write_feature_matrix(m: FeatureMatrix, path) -> None:
    """Write an FMX1 file; reading it back is bit-exact."""
    if not np.all(np.isfinite(check_type(m, FeatureMatrix, "m").values)):
        raise DataError("refusing to write non-finite feature values")
    with open(path, "wb") as fh:
        fh.write(_FMX_MAGIC)
        fh.write(struct.pack("<II", m.rows, m.dims))
        fh.write(m.values.astype("<f4", copy=False).tobytes(order="C"))


def unpack_header(path, raw: bytes, magic: bytes, layout: str) -> tuple:
    """The ``layout`` (struct format) fields after ``magic`` in file ``path``'s bytes ``raw``."""
    if raw[:4] != magic:
        raise FormatError(f"{printable(path)}: bad magic {raw[:4]!r}, expected {magic!r}")
    end = len(magic) + struct.calcsize(layout)
    if len(raw) < end:
        raise FormatError(f"{printable(path)}: truncated header")
    return struct.unpack(layout, raw[len(magic) : end])


def check_size(path, raw: bytes, expected: int) -> None:
    """Reject a file whose size differs from the ``expected`` its header implies."""
    if len(raw) != expected:
        raise FormatError(
            f"{printable(path)}: size mismatch, header implies {expected} bytes, "
            f"file has {len(raw)}"
        )


def read_feature_matrix(path, sample_rate_hz: float = 25.0, modality_tag: str = "") -> FeatureMatrix:
    """Read an FMX1 file written by :func:`write_feature_matrix`."""
    raw = Path(path).read_bytes()
    rows, dims = unpack_header(path, raw, _FMX_MAGIC, "<II")
    check_size(path, raw, 12 + rows * dims * 4)
    values = np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, dims)
    with located(printable(path)):
        return FeatureMatrix(values, sample_rate_hz, modality_tag)


def write_labels(s: LabelSequence, path) -> None:
    """Write an LBL1 file; reading it back is bit-exact."""
    if check_type(s, LabelSequence, "s").alphabet_size > _U32_MAX or int(s.symbols.max()) > _U32_MAX:
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
    1 + its largest symbol; ``alphabet_size`` may only override it upward,
    so inventories with unseen symbols keep their declared support size.  A
    text file of ASCII digits and ``\\n`` is parsed with one numpy call;
    any other text file, or one holding a symbol above the u32 limit, is
    parsed line by line, which gives the same values and names the line
    of the first bad one.
    """
    raw = Path(path).read_bytes()
    stored_alphabet = None
    if raw[:4] == _LBL_MAGIC:
        rows, stored_alphabet = unpack_header(path, raw, _LBL_MAGIC, "<II")
        check_size(path, raw, 12 + rows * 4)
        symbols = np.frombuffer(raw, dtype="<u4", offset=12)
    else:
        symbols = _parse_label_text(raw, path)
    if symbols.size == 0:
        raise FormatError(f"{printable(path)}: empty label file (rows >= 1 required)")
    base_alphabet = int(symbols.max()) + 1 if stored_alphabet is None else stored_alphabet
    if alphabet_size is not None:
        alphabet_size = check_int(alphabet_size, "alphabet_size", 1)
        if alphabet_size < base_alphabet:
            raise DataError(
                f"{printable(path)}: alphabet_size override {alphabet_size} is below "
                f"the observed/declared {base_alphabet}"
            )
        base_alphabet = alphabet_size
    with located(printable(path)):
        return LabelSequence(symbols, base_alphabet, sample_rate_hz, modality_tag)


def _parse_label_text(raw: bytes, path) -> np.ndarray:
    """The symbols of a one-integer-per-line text file, as int64.

    A file of ASCII digits and ``\\n`` with at least one digit is parsed by
    one ``np.fromstring`` call, which skips blank lines.  Any other file goes
    to :func:`_parse_label_lines`, which gives the same values and the same
    errors, and so does a result above ``_MAX_SYMBOL``, which a line of 20 or
    more digits reaches by saturating at 2**63 - 1.  (``np.fromstring`` reads
    a file of newlines alone as ``[0]``; the line loop reads it as empty.)
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    # Digits map to 0..9 and every other byte wraps above 9.
    digits = np.count_nonzero(buf - _ZERO <= 9)
    if digits == 0 or digits + np.count_nonzero(buf == _NEWLINE) != buf.size:
        return _parse_label_lines(raw, path)
    values = np.fromstring(raw, dtype=np.int64, sep="\n")
    if int(values.max()) > _MAX_SYMBOL:
        return _parse_label_lines(raw, path)
    return values


def _parse_label_lines(raw: bytes, path) -> np.ndarray:
    """:func:`_parse_label_text` line by line, for any text ``int`` accepts."""
    where = printable(path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: neither LBL1 binary nor UTF-8 text ({exc})") from None
    symbols = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            raise FormatError(f"{where}:{lineno}: not an integer: {token!r}") from None
        if value < 0:
            raise FormatError(f"{where}:{lineno}: negative symbol {value}")
        if value > _MAX_SYMBOL:
            raise FormatError(
                f"{where}:{lineno}: symbol {value} exceeds the u32 limit {_MAX_SYMBOL} "
                f"(an alphabet holds at most {_U32_MAX} symbols)"
            )
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
    return _frames(stream, target_rate_hz, resampled_rows(stream, target_rate_hz))


def resampled_rows(stream, target_rate_hz: float, what: str = "stream") -> int:
    """The frame count :func:`resample_nearest` gives ``stream`` at ``target_rate_hz``;
    anything but a FeatureMatrix or a LabelSequence raises DataError naming it ``what``."""
    source_rate = check_type(stream, (FeatureMatrix, LabelSequence), what).sample_rate_hz
    length = stream.rows * target_rate_hz / source_rate
    if not math.isfinite(length) or round(length) > _U32_MAX:
        of = f" of stream {stream.modality_tag!r}" if stream.modality_tag else ""
        raise DataError(
            f"resampling {stream.rows} frames{of} from {source_rate:g} Hz to "
            f"{target_rate_hz:g} Hz gives {length:g} frames, above the limit of {_U32_MAX}"
        )
    return max(1, round(length))


def _frames(stream, rate: float, rows: int):
    """The first ``rows`` frames of ``stream`` resampled to ``rate`` Hz, same kind."""
    if rate == stream.sample_rate_hz:
        idx = slice(rows)
    else:  # clipped before the cast: at a tiny rate the float index overflows int64, or to inf
        with np.errstate(over="ignore"):
            source = np.floor((np.arange(rows) + 0.5) * stream.sample_rate_hz / rate)
        idx = np.minimum(stream.rows - 1, source).astype(np.int64)
    if isinstance(stream, FeatureMatrix):
        return FeatureMatrix(stream.values[idx], rate, stream.modality_tag)
    return LabelSequence(stream.symbols[idx], stream.alphabet_size, rate, stream.modality_tag)


def align(
    streams: list[FeatureMatrix | LabelSequence], target_rate_hz: float
) -> list[FeatureMatrix | LabelSequence]:
    """Resample streams of either kind to a common rate as
    :func:`resample_nearest` does and truncate them to the shortest.

    Returns the aligned streams in input order, each of its own kind and
    built once, from its source frames cut to the common length.  The frames
    dropped by truncation are logged per stream.  Keeping fewer than half of
    a stream's resampled frames raises AlignmentError before any frame is
    built, naming it ``stream 'tag'``, or ``streams[i]`` if it has no tag.
    """
    if len(streams := check_tuple(streams, "streams")) < 2:
        raise AlignmentError(f"align needs at least 2 streams, got {len(streams)}")
    target_rate_hz = check_positive(target_rate_hz, "target_rate_hz")
    totals = [resampled_rows(s, target_rate_hz, f"streams[{i}]") for i, s in enumerate(streams)]
    rows = min(totals)
    for i, (s, total) in enumerate(zip(streams, totals)):
        if 2 * rows < total:
            name = f"stream {s.modality_tag!r}" if s.modality_tag else f"streams[{i}]"
            raise AlignmentError(f"{name}: alignment would keep {rows} of its {total} frames at "
                                 f"{target_rate_hz:g} Hz; refusing to drop more than half of a stream")
    dropped = [(s.modality_tag, n - rows) for s, n in zip(streams, totals) if n > rows]
    if dropped:
        import logging  # loaded only when there is a message to emit

        logging.getLogger(__name__).info("align: truncating to %d frames, dropped %s", rows, dropped)
    return [_frames(s, target_rate_hz, rows) for s in streams]


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
        rate = check_positive(self.sample_rate_hz, "sample_rate_hz")
        object.__setattr__(self, "sample_rate_hz", rate)
        for key, only in (("clusters", "features"), ("alphabet_size", "labels")):
            value = getattr(self, key)
            if value is None:
                continue
            object.__setattr__(self, key, check_int(value, key, 1))
            if self.kind != only:
                raise DataError(f"{key!r} applies to {only} streams only")


@dataclass(frozen=True)
class Manifest:
    """Parsed stream manifest for one analysis, whose field names are a manifest's
    keys; a bad rate or stream, or a repeated stream name, raises DataError."""

    target_rate_hz: float
    streams: tuple[StreamSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        rate = check_positive(self.target_rate_hz, "target_rate_hz")
        object.__setattr__(self, "target_rate_hz", rate)
        object.__setattr__(self, "streams", check_tuple(self.streams, "streams"))
        for i, spec in enumerate(self.streams):
            name = check_type(spec, StreamSpec, f"streams[{i}]").name
            if name in [s.name for s in self.streams[:i]]:
                raise DataError(f"duplicate stream name {name!r}")

    def to_json(self) -> str:
        """The manifest as ``load_manifest`` reads it, paths as stored and unset counts left out."""
        streams = [{k: v for k, v in vars(s).items() if v is not None} for s in self.streams]
        doc = {"target_rate_hz": self.target_rate_hz, "streams": streams}
        return json.dumps(doc, indent=2, sort_keys=True, default=os.fspath) + "\n"

    def load_stream(self, spec: StreamSpec):
        """``spec``'s file read as a stream tagged with its name; an error starts
        ``stream 'name': ``, and a file that cannot be read raises FormatError."""
        with located(f"stream {spec.name!r}"):
            try:
                if spec.kind == "features":
                    return read_feature_matrix(spec.path, spec.sample_rate_hz, spec.name)
                return read_labels(spec.path, spec.sample_rate_hz, spec.alphabet_size, spec.name)
            except OSError as e:
                raise FormatError(f"cannot read {printable(spec.path)}: {e.strerror or e}") from None


def load_manifest(path) -> Manifest:
    """Parse a JSON manifest checked by StreamSpec and Manifest; paths resolve against it."""
    path = Path(path)
    file = printable(path)
    doc = read_object(read_json(path.read_bytes(), file), file, ["target_rate_hz"])
    check_keys(doc, {f.name for f in fields(Manifest)}, file)
    entries = doc.get("streams")
    if not isinstance(entries, list) or not entries:
        raise FormatError(f"{file}: manifest needs a non-empty 'streams' list")
    required = [f.name for f in fields(StreamSpec) if f.default is MISSING]
    specs = []
    for i, entry in enumerate(entries):
        name = read_object(entry, f"{file}: stream #{i}").get("name")
        # a line break in a name would split the error line
        label = name if isinstance(name, str) and name.isprintable() and name else f"#{i}"
        where = f"{file}: stream {label}"
        check_keys(read_object(entry, where, required), {f.name for f in fields(StreamSpec)}, where)
        with located(where, FormatError):
            spec = StreamSpec(**entry)
        spec = replace(spec, path=path.parent / spec.path)
        if not spec.path.is_file():
            raise FormatError(f"{where}: no such file: {printable(spec.path)}")
        specs.append(spec)
    with located(file, FormatError):
        return Manifest(doc["target_rate_hz"], tuple(specs))
