"""Property tests: malformed bytes end in ModmiError, and the binary formats
and report JSON round-trip exactly."""

import contextlib
import io
import json
import math
import tempfile
import warnings
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modmi.cli import main
from modmi.errors import DataError, FormatError, ModmiError
from modmi.ingestion import (
    FeatureMatrix,
    LabelSequence,
    Manifest,
    StreamSpec,
    _parse_label_lines,
    _parse_label_text,
    load_manifest,
    read_feature_matrix,
    read_labels,
    write_feature_matrix,
    write_labels,
)
from modmi.pipeline import analyze
from modmi.quantizer import Codebook, load_codebook, save_codebook
from modmi.report import REGIONS, ROLES, AnalysisConfig, InfoQuantities, InfoReport, StreamSummary
from modmi.report import render_table
from util import ARRAY_FIELDS

SETTINGS = settings(max_examples=100, deadline=None)

U32_MAX = 2**32 - 1
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _report_bytes(path):
    return InfoReport.from_json(path.read_bytes())


@SETTINGS
@given(
    magic=st.sampled_from([b"", b"FMX1", b"LBL1", b"KMC1"]),
    body=st.binary(max_size=80),
)
@pytest.mark.parametrize(
    "read",
    [read_feature_matrix, read_labels, load_codebook, load_manifest, _report_bytes],
    ids=["fmx1", "lbl1", "kmc1", "manifest", "report"],
)
def test_arbitrary_bytes_raise_only_modmi_errors(workdir, read, magic, body):
    path = workdir / f"fuzz-{read.__name__}"
    path.write_bytes(magic + body)
    try:
        read(path)
    except ModmiError:
        pass


@SETTINGS
@given(
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=finite32,
    )
)
def test_fmx1_round_trip_bit_exact(workdir, values):
    path = workdir / "round.fmx"
    write_feature_matrix(FeatureMatrix(values, 25.0), path)
    assert read_feature_matrix(path).values.tobytes() == values.tobytes()


@st.composite
def label_sequences(draw):
    alphabet = draw(st.integers(1, U32_MAX))
    symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=40))
    return LabelSequence(np.array(symbols, dtype=np.int64), alphabet, 25.0)


@SETTINGS
@given(label_sequences())
def test_lbl1_round_trip_bit_exact(workdir, labels):
    path = workdir / "round.lbl"
    write_labels(labels, path)
    back = read_labels(path)
    assert back.alphabet_size == labels.alphabet_size
    assert back.symbols.dtype == labels.symbols.dtype
    assert np.array_equal(back.symbols, labels.symbols)


digit_lines = st.one_of(
    st.integers(0, U32_MAX).map(str),
    st.integers(U32_MAX - 3, U32_MAX + 3).map(str),  # 10 digits on both sides of the limit
    st.tuples(st.integers(1, 3), st.integers(0, 10**6)).map(lambda z: "0" * z[0] + str(z[1])),
)
odd_lines = st.sampled_from(
    ["", "+5", "1_0", " 7 ", "-3", "\u0663", "00000000001", "12345678901", "x"]
)


@st.composite
def label_texts(draw, min_lines=0, max_lines=40):
    """``min_lines`` to ``max_lines`` digit lines ending in \\n, with up to two
    other lines (odd ones, or ending in \\r\\n) spliced in, and maybe no final
    line break."""
    digits = st.lists(digit_lines, min_size=min_lines, max_size=max_lines)
    lines = [line + "\n" for line in draw(digits)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        line = draw(digit_lines | odd_lines) + draw(st.sampled_from(["\n", "\r\n"]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    text = "".join(lines)
    if draw(st.sampled_from([False, False, True])):
        text = text[:-1]
    return text.encode()


def _parsed(parse, raw):
    try:
        symbols = parse(raw, "labels.txt")
    except ModmiError as exc:
        return type(exc), str(exc)
    return symbols.dtype, symbols.tolist()


@settings(max_examples=300, deadline=None)
@given(raw=label_texts() | st.binary(max_size=60))
def test_text_label_parse_equals_the_line_loop(raw):
    assert _parsed(_parse_label_text, raw) == _parsed(_parse_label_lines, raw)


@st.composite
def codebooks(draw, dims=None):
    k, d = draw(st.integers(1, 8)), dims or draw(st.integers(1, 6))
    centroids = draw(hnp.arrays(np.float32, (k, d), elements=finite32))
    normalization = None
    if draw(st.booleans()):
        means = draw(hnp.arrays(np.float32, (d,), elements=finite32))
        stds = draw(hnp.arrays(np.float32, (d,), elements=finite32.filter(lambda v: v > 0)))
        normalization = np.stack([means, stds], axis=1)
    return Codebook(centroids, draw(st.integers(0, 2**64 - 1)), normalization)


@SETTINGS
@given(codebooks())
def test_kmc1_round_trip_bit_exact(workdir, cb):
    path = workdir / "round.kmc"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.seed == cb.seed
    assert back.centroids.tobytes() == cb.centroids.tobytes()
    if cb.normalization is None:
        assert back.normalization is None
    else:
        assert back.normalization.tobytes() == cb.normalization.tobytes()


def _optional(strategy):
    return st.none() | strategy


@st.composite
def stream_summaries(draw, roles):
    """Stream entries as an analysis writes them, one per role: unique names,
    one length, at most that many distinct cells (and at most k), and d, k
    and a codebook digest on features streams only."""
    rows = draw(st.integers(1, 10**9))
    names = draw(st.lists(st.text(min_size=1), min_size=len(roles), max_size=len(roles), unique=True))
    streams = []
    for name, role in zip(names, roles):
        distinct = draw(st.integers(1, min(rows, 10**6)))
        kind, fit = draw(st.sampled_from(["features", "labels"])), {}
        if kind == "features":
            fit = dict(
                dims=draw(st.integers(1, 4096)),
                clusters=draw(st.integers(distinct, 10**6)),
                codebook_sha256=draw(st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)),
            )
        streams.append(StreamSummary(name, role, kind, rows, distinct=distinct, **fit))
    return tuple(streams)


configs = st.builds(
    AnalysisConfig,
    target_rate_hz=_optional(st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
    clusters=st.integers(1, 10**6),
    seed=st.integers(0, 2**64 - 3),
    tol=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    max_iter=st.integers(1, 10**6),
    normalize=st.booleans(),
    log_base=st.sampled_from(["2", "e", "10"]),
)

PAIR_FIELDS = ("h_t", "h_s", "i_ts", "h_s_given_t", "h_t_given_s")
THREE_WAY_FIELDS = (
    "h_v", "i_tv", "i_vs", "i_vts", "h_v_given_t", "h_t_given_v", "h_v_given_s", "h_s_given_v",
)


@st.composite
def report_parts(draw, arity):
    """The quantities, streams and config of a report; the two log bases are
    drawn independently, so they may differ."""
    fields = PAIR_FIELDS + (THREE_WAY_FIELDS if arity == 3 else ())
    values = {name: draw(finite) for name in fields}
    if arity == 3:
        values["regions"] = {region: draw(finite) for region in REGIONS}
    quantities = InfoQuantities(log_base=draw(st.sampled_from(["2", "e", "10"])), **values)
    streams = draw(stream_summaries(draw(st.permutations(ROLES[arity]))))
    return quantities, streams, draw(configs)


@SETTINGS
@given(data=st.data())
@pytest.mark.parametrize("arity", [2, 3])
def test_report_json_round_trip(arity, data):
    """A report reads back from its JSON and re-renders byte for byte; one whose
    quantities and config differ in log base is refused."""
    quantities, streams, config = data.draw(report_parts(arity))
    if quantities.log_base != config.log_base:
        with pytest.raises(DataError, match="quantities.log_base must be config.log_base"):
            InfoReport(quantities=quantities, streams=streams, config=config)
        return
    report = InfoReport(quantities=quantities, streams=streams, config=config)
    text = report.to_json()
    again = InfoReport.from_json(text)
    assert again.to_json() == text
    assert again == report


@st.composite
def report_edits(draw):
    """The fields of a report, whose two log bases may differ, after up to three
    edits, each of which may break a rule: an empty or repeated name, an unequal
    L, a distinct outside 1..L, fit fields on a labels entry, a missing, repeated
    or unknown role, a NaN, infinite or None quantity, a partial set of three-way
    fields, or a stream field of another type (an int name, role or kind, or a
    float or bool count), while a count may also become the numpy integer of
    its value."""
    quantities, streams, config = draw(report_parts(draw(st.sampled_from([2, 3]))))
    q = {f: getattr(quantities, f) for f in ("log_base", *PAIR_FIELDS, *THREE_WAY_FIELDS)}
    q["regions"] = quantities.regions
    streams = [asdict(s) for s in streams]
    for _ in range(draw(st.integers(0, 3))):
        edits = ["stream", "type", "drop", "repeat", "non-finite", "three-way"]
        edit = draw(st.sampled_from(edits))
        i = draw(st.integers(0, len(streams) - 1)) if streams else None
        if edit == "stream" and streams:
            key = draw(st.sampled_from(["name", "role", "kind", "rows", "distinct", "fit"]))
            if key == "fit":  # d, k and a digest, taken from or put on a labels entry
                fit = draw(st.sampled_from([(None, None, None), (1, 5, "0" * 64)]))
                streams[i].update(zip(("dims", "clusters", "codebook_sha256"), fit))
            else:
                rows = streams[i]["rows"]
                streams[i][key] = draw(
                    {
                        "name": st.sampled_from(["", *(s["name"] for s in streams)]),
                        "role": st.sampled_from(["V", "T", "S", "Q"]),
                        "kind": st.sampled_from(["features", "labels", "video"]),
                        "rows": st.sampled_from([-1, 0, rows - 1, rows + 1]),
                        "distinct": st.sampled_from([None, -1, 0, 1, rows, rows + 1]),
                    }[key]
                )
        elif edit == "type" and streams:
            keys = ["name", "role", "kind", "rows", "dims", "clusters", "distinct"]
            key = draw(st.sampled_from(keys))
            if key in ("name", "role", "kind"):
                streams[i][key] = draw(st.integers(-1, 3))
            else:
                count = streams[i][key]
                streams[i][key] = draw(st.sampled_from([2.0, True, np.int64(count or 1)]))
        elif edit == "drop" and streams:
            del streams[i]
        elif edit == "repeat" and streams:
            streams.append(dict(streams[i]))
        elif edit == "non-finite":
            value = draw(st.sampled_from([math.nan, math.inf, -math.inf, None]))
            key = draw(st.sampled_from([*PAIR_FIELDS, *THREE_WAY_FIELDS, *REGIONS]))
            if key in REGIONS and q["regions"] is not None:
                q["regions"] = {**q["regions"], key: value}
            elif key not in REGIONS:
                q[key] = value
        elif edit == "three-way":
            key = draw(st.sampled_from([*THREE_WAY_FIELDS, "regions"]))
            if q[key] is not None:
                q[key] = None
            elif key == "regions":
                q[key] = {r: 0.5 for r in draw(st.lists(st.sampled_from(REGIONS), unique=True))}
            else:
                q[key] = draw(finite)
    return q, streams, config


# A two-stream report whose H(T) is None, which the types must refuse.
NONE_PAIR_FIELD = (
    {"log_base": "2", "h_t": None, "h_s": 1.0, "i_ts": 0.0, "h_s_given_t": 1.0, "h_t_given_s": 0.0},
    [asdict(StreamSummary(role, role, "labels", 4, distinct=2)) for role in ROLES[2]],
    AnalysisConfig(),
)


@SETTINGS
@given(report_edits())
@example(NONE_PAIR_FIELD)
def test_a_report_the_types_accept_is_one_from_json_reads(fields):
    """Building a report raises DataError, or its JSON reads back and
    re-renders byte for byte."""
    q, streams, config = fields
    try:
        report = InfoReport(
            InfoQuantities(**q), tuple(StreamSummary(**s) for s in streams), config
        )
    except DataError:
        return
    assert report.quantities.log_base == config.log_base  # differing bases are refused
    text = report.to_json()
    again = InfoReport.from_json(text)
    assert again.to_json() == text
    assert render_table(again) == render_table(report)


# JSON values no manifest field accepts, or only some do.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def mostly(valid):
    """A value of ``valid`` three times in four, of ``junk`` otherwise."""
    return st.sampled_from([valid, valid, valid, junk]).flatmap(lambda values: values)


@SETTINGS
@given(
    name=mostly(st.sampled_from(["cam", "t"])),
    kind=mostly(st.sampled_from(["features", "labels"])),
    rate=mostly(st.sampled_from([25, 50.0]) | st.floats(1e-3, 1e3)),
    clusters=mostly(st.sampled_from([None, None, 1, 3])),
    alphabet_size=mostly(st.sampled_from([None, None, 1, 3])),
)
def test_stream_specs_and_manifests_share_one_rule_set(
    workdir, name, kind, rate, clusters, alphabet_size
):
    """A StreamSpec built in code raises DataError exactly when load_manifest
    raises FormatError on the same entry, which ends with the same text; a
    spec that passes makes a manifest that analyze ends in a report or a
    ModmiError."""
    write_feature_matrix(FeatureMatrix(np.arange(4.0)[:, None], 25.0), workdir / "a.fmx")
    write_labels(LabelSequence(np.array([0, 1, 0, 1]), 2, 25.0), workdir / "t.lbl")
    file = "t.lbl" if kind == "labels" else "a.fmx"
    entry = {
        "name": name,
        "path": file,
        "kind": kind,
        "sample_rate_hz": rate,
        "clusters": clusters,
        "alphabet_size": alphabet_size,
    }
    path = workdir / "specs.json"
    path.write_text(json.dumps({"target_rate_hz": 25, "streams": [entry]}))
    try:
        spec = StreamSpec(**dict(entry, path=workdir / file))
    except DataError as exc:
        with pytest.raises(FormatError) as caught:
            load_manifest(path)
        assert str(caught.value).endswith(f": {exc}")
        return
    assert load_manifest(path).streams == (spec,)
    # Below 1 Hz the 4-frame stream would resample to up to 2**32 frames at 25 Hz.
    if spec.sample_rate_hz >= 1:
        labels = StreamSpec("t", workdir / "t.lbl", "labels", 25)
        try:
            analyze(Manifest(25, (spec, labels)), AnalysisConfig(clusters=2))
        except ModmiError:
            pass


# Whole-CLI property test.  Stream files hold at most 10 rows, stream rates
# stay in 1e-3..1e3 Hz and each manifest's target rate is drawn below a cap
# set by its stream rates and its files' rows, so no stream resamples to
# more than FRAME_CAP frames and an example needs well under a MiB.
FRAME_CAP = 4096

# JSON values that no manifest field takes: no positive number, because a
# stream rate below 1e-3 Hz can align a few rows to billions of frames.
bad_values = st.sampled_from(
    [None, True, "25", "", 0, -1, -0.5, math.nan, math.inf, 10**400, [], {"a": 1}]
)


def _usually(draw, usual, other):
    """``usual`` 15 times in 16, else a value drawn from ``other``."""
    return draw(other) if draw(st.integers(0, 15)) == 15 else usual


magics = st.sampled_from([b"FMX1", b"LBL1", b"KMC1", b"x1\n\n"]).map(lambda magic: (0, magic))


@st.composite
def stream_files(draw, rows):
    """(suffix, source, flaw) of a stream file of about ``rows`` rows: FMX1
    features or LBL1 labels (a stream to write) or text labels (bytes),
    written by ``_write_file``."""
    suffix = draw(st.sampled_from(["fmx", "lbl", "txt"]))
    rows = _usually(draw, rows, st.integers(1, 8))
    if suffix == "fmx":
        values = hnp.arrays(np.float32, (rows, draw(st.integers(1, 3))), elements=finite32)
        source = FeatureMatrix(draw(values), 25.0)
    elif suffix == "lbl":
        alphabet = draw(st.sampled_from([1, 2, 3, U32_MAX]))
        symbols = st.lists(st.integers(0, min(alphabet - 1, 4)), min_size=rows, max_size=rows)
        source = LabelSequence(np.array(draw(symbols)), alphabet, 25.0)
    else:
        source = draw(label_texts(min_lines=rows, max_lines=rows))
    return suffix, source, _usually(draw, None, st.integers(0, 60) | magics)


_WRITERS = {FeatureMatrix: write_feature_matrix, LabelSequence: write_labels, Codebook: save_codebook}


def _write_file(path, source, flaw):
    """Write ``source`` (bytes, a stream or a codebook) to ``path`` as it is
    (``flaw`` None), truncated to ``flaw`` bytes (an int, always dropping at
    least one), or with its bytes from ``flaw[0]`` on overwritten by ``flaw[1]``."""
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        _WRITERS[type(source)](source, path)
    raw = path.read_bytes()
    if isinstance(flaw, int):
        path.write_bytes(raw[: min(flaw, len(raw) - 1)])
    elif flaw is not None:
        at, new = flaw
        path.write_bytes(raw[:at] + new + raw[at + len(new) :])


@st.composite
def kmc1_files(draw, dims):
    """(codebook, flaw) of a KMC1 file for ``_write_file``: a codebook of
    ``dims`` dimensions (any when None), valid, truncated, of another magic
    or with a normalization flag byte of 2."""
    other_magics = magics.filter(lambda flaw: flaw[1] != b"KMC1")
    flaw = st.integers(0, 60) | other_magics | st.just((20, b"\x02"))
    return draw(codebooks(dims)), draw(st.none() | flaw)


@st.composite
def edited_pairs(draw, pairs):
    """A JSON object's (key, JSON text) ``pairs`` after up to two edits: a
    typo'd, repeated or dropped key, or a value that no field takes."""
    pairs = list(pairs)
    for _ in range(_usually(draw, 0, st.integers(1, 2))):
        i = draw(st.integers(0, len(pairs) - 1))
        key, value = pairs[i]
        edit = draw(st.sampled_from(["typo", "repeat", "drop", "value"]))
        if edit == "typo":
            pairs[i] = (draw(st.sampled_from([key + "s", key[:-1], key.upper()])), value)
        elif edit == "repeat":
            pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(st.sampled_from([value, "1"]))))
        elif edit == "drop" and len(pairs) > 1:
            del pairs[i]
        else:
            pairs[i] = (key, json.dumps(draw(bad_values)))
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


# Prefixes of file names: spaces, quotes, non-ASCII characters and line
# breaks, which an error about the file must still print on one line.
name_prefixes = st.sampled_from(["", "a b ", "it's \"q\" ", "é日", "a\nb", "\r\n", "\u2028"])


@st.composite
def manifests(draw, files, rows):
    """A manifest over the stream file names ``files`` (``.fmx`` ones hold
    features, none more than ``rows`` rows): one entry per file with names
    that may repeat, rates in 1e-3..1e3 Hz and per-stream counts, a target
    rate that resamples no stream to more than FRAME_CAP frames, and keys and
    values edited by ``edited_pairs``."""
    entries, rates = [], []
    missing = name_prefixes.map(lambda prefix: prefix + "missing.lbl")
    for i, file in enumerate(files):
        kind = "features" if file.endswith(".fmx") else "labels"
        rates.append(_usually(draw, 25.0, st.just(50) | st.floats(1e-3, 1e3)))
        pairs = [
            ("name", _usually(draw, f"s{i}", st.just("s0") | st.text(max_size=2))),
            ("path", _usually(draw, file, st.just(files[0]) | missing)),
            ("kind", _usually(draw, kind, st.sampled_from(["features", "labels"]))),
            ("sample_rate_hz", rates[-1]),
        ]
        count = _usually(draw, None, st.sampled_from([1, 2, 3, 50]))
        if count is not None:
            pairs.append(("clusters" if kind == "features" else "alphabet_size", count))
        entries.append(draw(edited_pairs([(key, json.dumps(value)) for key, value in pairs])))
    cap = FRAME_CAP * min(rates) / rows
    usual = [rate for rate in (25, 12.5, 1) if rate <= cap] or [cap]
    target = draw(st.sampled_from(usual) | st.floats(0, cap, exclude_min=True))
    top = [("target_rate_hz", json.dumps(target)), ("streams", "[" + ", ".join(entries) + "]")]
    return draw(edited_pairs(top))


def _cli(*argv):
    """Exit code and stdout of ``modmi argv`` run in-process, after
    checking that no exception escapes and that an error is one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
            assert code == 2 and err.getvalue().startswith("usage: modmi")
            assert f"modmi {argv[0]}: error: " in err.getvalue().splitlines()[-1]
            return code, out.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code, out.getvalue()


def _reads_back(text):
    assert InfoReport.from_json(text).to_json() == text


def _check_label_values(manifest, report):
    """Recompute a label-only ``report`` of ``manifest`` from its stream files
    and compare its roles, length and every H, I2 and cond value: frames are
    resampled as ``resample_nearest``'s docstring states and truncated to the
    shortest stream, roles follow the names v/t/s or else manifest order, and
    entropies are plug-in sums over counted tuples."""
    doc = json.loads(manifest.read_text())
    target, frames = doc["target_rate_hz"], []
    for entry in doc["streams"]:
        symbols = read_labels(manifest.parent / entry["path"]).symbols.tolist()
        source, n = entry["sample_rate_hz"], len(symbols)
        rows = max(1, round(n * target / source))
        # clipped before the floor, which refuses the inf a tiny target gives
        frames.append([symbols[math.floor(min(n - 1, (i + 0.5) * source / target))]
                       for i in range(rows)])
    length = min(map(len, frames))
    names = [entry["name"] for entry in doc["streams"]]
    order = "VTS" if len(names) == 3 else "TS"
    by_name = sorted(name.lower() for name in names) == sorted(order.lower())
    roles = [name.lower().upper() for name in names] if by_name else list(order)
    assert [s["role"] for s in report["streams"]] == roles
    assert {s["L"] for s in report["streams"]} == {length}
    by_role = {role: f[:length] for role, f in zip(roles, frames)}
    scale = {"2": math.log(2), "e": 1.0, "10": math.log(10)}[report["config"]["log_base"]]

    def h(joint):
        counts = Counter(zip(*(by_role[role] for role in joint))).values()
        return -sum(c / length * math.log(c / length) for c in counts) / scale

    expected = {"H": {role: h(role) for role in by_role}, "I2": {}, "cond": {}}
    for x, y in [pair for pair in ("TV", "TS", "VS") if set(pair) <= set(by_role)]:
        expected["I2"][f"{x},{y}"] = h(x) + h(y) - h(x + y)
        expected["cond"][f"{y}|{x}"] = h(x + y) - h(x)
        expected["cond"][f"{x}|{y}"] = h(x + y) - h(y)
    for group, values in expected.items():
        got = report["quantities"][group]
        assert got.keys() == values.keys()
        assert all(abs(got[key] - value) <= 1e-12 for key, value in values.items()), group


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    files=st.tuples(st.sampled_from([1, 2, 2, 3, 3, 4]), st.integers(1, 8)).flatmap(
        lambda n_rows: st.lists(stream_files(n_rows[1]), min_size=n_rows[0], max_size=n_rows[0])
    ),
    data=st.data(),
    clusters=st.sampled_from(["1", "2", "3"] * 3 + ["0", "x"]),
    ks=st.sampled_from(["1,2", "2,3"] * 3 + ["0,2", "x"]),
)
def test_any_small_input_ends_in_a_report_or_one_error_line(workdir, files, data, clusters, ks):
    """analyze, sweep, report, fit and assign on a generated directory, whose
    file names may hold spaces, quotes, non-ASCII characters and line breaks
    and whose manifest may align at any rate under the frame cap, exit 0, 1
    or 2; a failure writes one error line (or argparse's usage
    error), a report written reads back and re-renders byte for byte, a
    label-only report holds the values its files give, and a damaged
    codebook is refused."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)
        names = [data.draw(name_prefixes) + f"{i}.{file[0]}" for i, file in enumerate(files)]
        for name, (_, source, flaw) in zip(names, files):
            _write_file(tmp / name, source, flaw)
        manifest = tmp / (data.draw(name_prefixes) + "manifest.json")
        rows = max(len(source.splitlines()) if isinstance(source, bytes) else source.rows
                   for _, source, _ in files)
        manifest.write_text(data.draw(manifests(names, rows)))
        code, out = _cli("analyze", str(manifest), "--clusters", clusters)
        if code == 0:
            _reads_back(out)
            report = json.loads(out)
            if all(s["kind"] == "labels" for s in report["streams"]):
                _check_label_values(manifest, report)
        saved = tmp / "report.json"
        saved.write_text(out if code == 0 else manifest.read_text())
        assert _cli("report", str(saved), "--format", "json") == ((0, out) if code == 0 else (1, ""))
        code, out = _cli("sweep", str(manifest), "--ks", ks, "--format", "json")
        for entry in json.loads(out) if code == 0 else []:
            _reads_back(json.dumps(entry, indent=2, sort_keys=True) + "\n")
        # fit and assign take the first features file, if any, and a KMC1 file.
        i = next((i for i, file in enumerate(files) if file[0] == "fmx"), 0)
        features, codebook, labels = tmp / names[i], tmp / "c.kmc", tmp / "a.lbl"
        code, _ = _cli("fit", str(features), "--clusters", clusters, "--out", str(codebook))
        if code == 0:
            assert load_codebook(codebook).k == int(clusters)
        dims = files[i][1].dims if files[i][0] == "fmx" else None
        cb, flaw = data.draw(kmc1_files(dims))
        _write_file(codebook, cb, flaw)
        code, _ = _cli("assign", str(codebook), str(features), "--out", str(labels))
        assert code in ((0, 1) if flaw is None else (1,))
        if code == 0:
            assert read_labels(labels).rows == read_feature_matrix(features).rows


# A synth size is 1 to 4 or past a limit the CLI enforces (the u32 row and
# dims counts, one numpy array): never a legal large size, which would
# allocate gigabytes.
synth_sizes = st.integers(1, 4) | st.sampled_from([2**32, 2**62, 2**70])
synth_scales = st.floats() | st.sampled_from([1e308, -1e308, math.inf, math.nan])


@SETTINGS
@given(
    generator=st.sampled_from(["xor", "blobs"]),
    sizes=st.fixed_dictionaries(
        {flag: synth_sizes for flag in ("--copies", "--centers", "--dims", "--n-per-center")}
    ),
    stddev=synth_scales,
    spacing=synth_scales,
)
def test_synth_ends_in_a_manifest_or_one_error_line(workdir, generator, sizes, stddev, spacing):
    """synth xor and blobs at any scale, with sizes of 1 to 4 or past a limit,
    exit 0 with streams of the rows asked for, or exit 1 with one error line
    and no directory; no warning escapes."""
    if generator == "xor":
        flags, rows = [f"--copies={sizes['--copies']}"], 4 * sizes["--copies"]
    else:
        flags = [f"{flag}={value}" for flag, value in sizes.items() if flag != "--copies"]
        flags += [f"--stddev={stddev}", f"--spacing={spacing}"]
        rows = sizes["--centers"] * sizes["--n-per-center"]
    with tempfile.TemporaryDirectory(dir=workdir) as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        code, _ = _cli("synth", generator, "--out-dir", str(out), *flags)
        assert code in (0, 1)
        if code == 0:
            manifest = load_manifest(out / "manifest.json")
            assert {manifest.load_stream(spec).rows for spec in manifest.streams} == {rows}
        else:
            assert not out.exists()


# Array-field property test.  A value for an array field is a nested (maybe
# ragged) list of mixed scalars, or a numpy array of any dtype, which may be
# a view of a writable base array.

list_scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64 - 1, 10**400]),
    st.floats(),
    st.complex_numbers(max_magnitude=4),
    st.sampled_from(["1", "a", ""]),
    st.none(),
)
nested_lists = st.recursive(list_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
any_dtype = st.one_of(
    st.sampled_from([np.float32, np.int64, np.float64]).map(np.dtype),  # kept, not cast
    hnp.scalar_dtypes(),
    hnp.unicode_string_dtypes(max_len=3),
    hnp.byte_string_dtypes(max_len=3),
    st.sampled_from([np.dtype(object), np.dtype(np.longdouble)]),
)


@st.composite
def any_arrays(draw):
    """(array, its writable base): small whole numbers, a uniform pmf or any
    values of any dtype (an object array holds ``list_scalars``), given as
    the base, a strided, shifted, transposed or read-only view of it."""
    dtype = draw(any_dtype)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    fill = draw(st.sampled_from(["whole", "pmf", "any"]))
    if fill == "whole":
        base = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 4))).astype(dtype)
    elif fill == "pmf":
        base = np.full(shape, 1.0 / max(1, math.prod(shape))).astype(dtype)
    else:
        elements = list_scalars if dtype == object else None
        base = draw(hnp.arrays(dtype, shape, elements=elements))
    views = {"base": lambda a: a, "read-only": _read_only_view}
    if base.ndim:
        views.update(strided=lambda a: a[::2], shifted=lambda a: a[1:])
    if base.ndim > 1:
        views.update(transposed=lambda a: a.T)
    return views[draw(st.sampled_from(sorted(views)))](base), base


def _read_only_view(array):
    view = array[...]
    view.setflags(write=False)
    return view


# (value, its writable base or None): lists, arrays, and values beyond
# float64 and int64.
array_values = st.one_of(
    nested_lists.map(lambda value: (value, None)),
    any_arrays(),
    st.sampled_from([np.array([np.longdouble(10) ** 4000]), np.array([2**64 - 1], np.uint64)]).map(
        lambda value: (value, None)
    ),
)


@SETTINGS
@given(given_value=array_values)
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_an_array_field_is_frozen_unaliased_or_refused(field, given_value):
    """Building a type from any value raises DataError (no other exception
    and no warning), or stores, from bool, integer, float or object values, a
    read-only, C-contiguous array of the field's dtype that a later write to
    the caller's array does not change; the caller's array stays as writable
    as it was."""
    value, base = given_value
    dtype, build = ARRAY_FIELDS[field]
    writable = value.flags.writeable if isinstance(value, np.ndarray) else None
    try:
        stored = build(value)
    except DataError:
        return
    if stored is None:  # normalization and labels are optional
        assert value is None and field in ("normalization", "labels")
        return
    assert stored.dtype == dtype and stored.flags.c_contiguous and not stored.flags.writeable
    assert np.asarray(value).dtype.kind in "biufO"  # no string, complex or date is a number
    assert (value.flags.writeable if isinstance(value, np.ndarray) else None) == writable
    before = stored.tobytes()
    if base is not None and base.dtype == object:
        base[...] = None
    elif base is not None:
        raw = base.reshape(-1).view(np.uint8)
        raw ^= 0xFF
    assert stored.tobytes() == before
