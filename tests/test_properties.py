"""Property tests: malformed bytes end in ModmiError, and the binary formats
and report JSON round-trip exactly."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
def label_texts(draw):
    """Digit lines ending in \\n, with up to two other lines (odd ones, or
    ending in \\r\\n) spliced in, and maybe no final line break."""
    lines = [line + "\n" for line in draw(st.lists(digit_lines, max_size=40))]
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
def codebooks(draw):
    k, d = draw(st.integers(1, 8)), draw(st.integers(1, 6))
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
def reports(draw, arity):
    fields = PAIR_FIELDS + (THREE_WAY_FIELDS if arity == 3 else ())
    values = {name: draw(finite) for name in fields}
    if arity == 3:
        values["regions"] = {region: draw(finite) for region in REGIONS}
    quantities = InfoQuantities(log_base=draw(st.sampled_from(["2", "e", "10"])), **values)
    streams = draw(stream_summaries(draw(st.permutations(ROLES[arity]))))
    return InfoReport(quantities=quantities, streams=streams, config=draw(configs))


@SETTINGS
@given(data=st.data())
@pytest.mark.parametrize("arity", [2, 3])
def test_report_json_round_trip(arity, data):
    report = data.draw(reports(arity))
    text = report.to_json()
    again = InfoReport.from_json(text)
    assert again.to_json() == text
    assert again == report


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
