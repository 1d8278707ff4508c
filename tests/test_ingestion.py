import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modmi.errors import AlignmentError, DataError, FormatError
from modmi.ingestion import (
    FeatureMatrix,
    LabelSequence,
    Manifest,
    StreamSpec,
    align,
    load_manifest,
    read_feature_matrix,
    read_labels,
    resample_nearest,
    write_feature_matrix,
    write_labels,
)
from modmi.quantizer import Codebook, load_codebook, save_codebook
from util import features, seq


class TestFeatureMatrix:
    def test_basic_fields(self):
        m = features([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], rate=50.0, tag="audio")
        assert m.rows == 2 and m.dims == 3
        assert m.sample_rate_hz == 50.0
        assert m.values.dtype == np.float32

    def test_rejects_nan(self):
        with pytest.raises(DataError, match=r"row 1, col 0"):
            features([[1.0, 2.0], [np.nan, 3.0]])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            features(np.empty((0, 3)))

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            features([[1.0]], rate=0.0)

    def test_values_are_frozen(self):
        m = features([[1.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0


class TestLabelSequence:
    def test_alphabet_bound(self):
        with pytest.raises(DataError, match="exceeds alphabet_size"):
            seq([0, 3], alphabet_size=3)

    def test_negative_symbol(self):
        with pytest.raises(DataError):
            seq([-1, 0], alphabet_size=2)


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        m = features([[1.5, -2.25, 3.125], [0.0, 7.0, -0.5]])
        path = tmp_path / "m.fmx"
        write_feature_matrix(m, path)
        again = read_feature_matrix(path)
        assert again.rows == 2 and again.dims == 3
        assert np.array_equal(again.values, m.values)

    def test_header_plus_payload_layout(self, tmp_path):
        path = tmp_path / "one.fmx"
        write_feature_matrix(features([[0.0]]), path)
        raw = path.read_bytes()
        assert raw[:4] == b"FMX1"
        assert len(raw) == 12 + 4  # header + one float32

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fmx"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            read_feature_matrix(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "short.fmx"
        import struct

        path.write_bytes(b"FMX1" + struct.pack("<II", 2, 3) + b"\x00" * (5 * 4))
        with pytest.raises(FormatError, match="mismatch"):
            read_feature_matrix(path)

    def test_nan_rejected_before_write(self, tmp_path):
        m = features([[1.0, 2.0]])
        bad = np.array([[np.nan, 2.0]], dtype=np.float32)
        object.__setattr__(m, "values", bad)  # bypass constructor validation
        with pytest.raises(DataError, match="non-finite"):
            write_feature_matrix(m, tmp_path / "no.fmx")

    def test_random_round_trips(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        for i in range(10):
            m = features(rng.standard_normal((int(rng.integers(1, 40)), int(rng.integers(1, 8)))))
            path = tmp_path / f"r{i}.fmx"
            write_feature_matrix(m, path)
            assert np.array_equal(read_feature_matrix(path).values, m.values)


class TestLabelFile:
    def test_text_parse(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0\n2\n1\n")
        s = read_labels(path)
        assert s.symbols.tolist() == [0, 2, 1]
        assert s.alphabet_size == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_labels(path)

    def test_alphabet_override_upward(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n0\n")
        s = read_labels(path, alphabet_size=217)
        assert s.alphabet_size == 217

    def test_alphabet_override_downward_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n5\n")
        with pytest.raises(DataError, match="below"):
            read_labels(path, alphabet_size=3)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n1\nx\n")
        with pytest.raises(FormatError, match=":3:"):
            read_labels(path)
        path.write_text("0\n-2\n")
        with pytest.raises(FormatError, match=":2:"):
            read_labels(path)

    @pytest.mark.parametrize("symbol", [2**32, 2**63, 99999999999999999999999])
    def test_oversized_symbol_names_line(self, tmp_path, symbol):
        path = tmp_path / "big.txt"
        path.write_text(f"0\n{symbol}\n")
        with pytest.raises(FormatError, match=f"big.txt:2: symbol {symbol} exceeds the u32 limit"):
            read_labels(path)

    def test_binary_round_trip(self, tmp_path):
        s = seq([0, 5, 3, 5], alphabet_size=9)
        path = tmp_path / "s.lbl"
        write_labels(s, path)
        again = read_labels(path)
        assert np.array_equal(again.symbols, s.symbols)
        assert again.alphabet_size == 9

    def test_binary_truncated(self, tmp_path):
        s = seq([0, 1, 2])
        path = tmp_path / "s.lbl"
        write_labels(s, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError, match="mismatch"):
            read_labels(path)


def _binary_file(fmt, path):
    """Write a valid ``fmt`` file to ``path``; return its reader."""
    if fmt == "FMX1":
        write_feature_matrix(features([[1.0, 2.0], [3.0, 4.0]]), path)
        return read_feature_matrix
    if fmt == "LBL1":
        write_labels(seq([0, 1, 2]), path)
        return read_labels
    norm = [[0.0, 1.0], [0.0, 1.0]]
    save_codebook(Codebook(centroids=[[1.0, 2.0]], seed=0, normalization=norm), path)
    return load_codebook


# (format, how the valid file is damaged, the word the error must carry)
DAMAGED_FILES = [
    ("FMX1", lambda raw: b"XXXX" + raw[4:], "magic"),
    ("KMC1", lambda raw: b"XXXX" + raw[4:], "magic"),
    ("FMX1", lambda raw: raw[:7], "truncated header"),
    ("LBL1", lambda raw: raw[:7], "truncated header"),
    ("KMC1", lambda raw: raw[:20], "truncated header"),
    ("FMX1", lambda raw: raw[:-1], "size mismatch"),
    ("LBL1", lambda raw: raw[:-1], "size mismatch"),
    ("KMC1", lambda raw: raw[:-1], "size mismatch"),
    ("KMC1", lambda raw: raw[:25], "size mismatch"),  # inside the normalization block
    ("FMX1", lambda raw: raw + b"\x00", "size mismatch"),
]


@pytest.mark.parametrize(
    "fmt, damage, word",
    DAMAGED_FILES,
    ids=[
        "fmx-magic", "kmc-magic", "fmx-header", "lbl-header", "kmc-header",
        "fmx-short", "lbl-short", "kmc-short", "kmc-normalization", "fmx-long",
    ],
)
def test_damaged_binary_file_names_path(tmp_path, fmt, damage, word):
    path = tmp_path / f"damaged.{fmt.lower()}"
    read = _binary_file(fmt, path)
    read(path)  # the undamaged file reads
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{word}"):
        read(path)


class TestResample:
    def test_downsample_indexing(self):
        # 100 frames at 50 Hz -> 25 Hz: 50 frames, frame 0 copies source 1
        src = seq(np.arange(100) % 7, 7, rate=50.0)
        out = resample_nearest(src, 25.0)
        assert out.rows == 50
        assert out.symbols[0] == src.symbols[1]
        assert out.sample_rate_hz == 25.0

    def test_heavy_decimation(self):
        # 4 frames at 100 Hz -> 25 Hz: single frame copying source frame 2
        src = seq([3, 1, 4, 1], 5, rate=100.0)
        out = resample_nearest(src, 25.0)
        assert out.rows == 1
        assert out.symbols[0] == 4

    def test_identity_at_source_rate(self):
        src = features(np.random.default_rng(0).standard_normal((17, 3)), rate=25.0)
        out = resample_nearest(src, 25.0)
        assert np.array_equal(out.values, src.values)

    def test_source_rate_shares_the_frames(self):
        feats = features(np.random.default_rng(0).standard_normal((17, 3)), rate=25.0)
        labels = seq(np.arange(17) % 3, 3, rate=25.0)
        assert np.shares_memory(resample_nearest(feats, 25.0).values, feats.values)
        assert np.shares_memory(resample_nearest(labels, 25.0).symbols, labels.symbols)
        assert not np.shares_memory(resample_nearest(feats, 50.0).values, feats.values)
        # The docstring's index at equal rates is the identity, at any rate.
        rng = np.random.Generator(np.random.PCG64(5))
        i = np.arange(100_000)
        for rate in rng.uniform(1e-3, 1e6, size=50):
            assert np.array_equal(np.floor((i + 0.5) * rate / rate), i)
            assert round(i.size * rate / rate) == i.size

    def test_length_formula_property(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(200):
            rows = int(rng.integers(1, 5000))
            src_rate = float(rng.uniform(1.0, 200.0))
            dst_rate = float(rng.uniform(1.0, 200.0))
            s = seq(np.zeros(rows, dtype=np.int64), 1, rate=src_rate)
            out = resample_nearest(s, dst_rate)
            assert out.rows == max(1, round(rows * dst_rate / src_rate))

    @pytest.mark.parametrize(
        "rows, source_hz, target_hz",
        [(1, 1e-300, 1e300), (4, 25.0, 1e300), (4, 25.0, 1e12), (1, 1.0, 2.0**32)],
        ids=["inf-frames", "1e300-hz", "1e12-hz", "u32-max-plus-1"],
    )
    def test_oversized_length_rejected(self, rows, source_hz, target_hz):
        src = seq(np.zeros(rows, dtype=np.int64), 1, rate=source_hz)
        with pytest.raises(DataError, match="above the limit of 4294967295"):
            resample_nearest(src, target_hz)

    def test_tiny_target_rate_copies_the_last_frame(self):
        # The float source index, about 1.25e301, is clipped before the int64 cast.
        assert resample_nearest(seq([0, 1, 2]), 1e-300).symbols.tolist() == [2]

    def test_upsample_replicates(self):
        src = seq([0, 1], 2, rate=25.0)
        out = resample_nearest(src, 50.0)
        assert out.rows == 4
        assert out.symbols.tolist() == [0, 0, 1, 1]


class TestAlign:
    def test_truncates_to_shortest(self):
        a = seq(np.zeros(100, dtype=np.int64), 1, rate=25.0, tag="a")
        b = seq(np.zeros(98, dtype=np.int64), 1, rate=25.0, tag="b")
        ds = align([a, b], 25.0)
        assert [s.rows for s in ds] == [98, 98] and [s.modality_tag for s in ds] == ["a", "b"]

    def test_resample_then_truncate(self):
        a = seq(np.arange(200) % 3, 3, rate=50.0, tag="a")
        b = seq(np.arange(100) % 3, 3, rate=25.0, tag="b")
        ds = align([a, b], 25.0)
        assert [s.rows for s in ds] == [100, 100]
        assert [s.sample_rate_hz for s in ds] == [25.0, 25.0]

    def test_single_stream_rejected(self):
        with pytest.raises(AlignmentError, match="at least 2"):
            align([seq([0, 1])], 25.0)

    def test_random_alignment_invariant(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(30):
            streams = []
            for j in range(int(rng.integers(2, 5))):
                rows, rate = int(rng.integers(1, 300)), float(rng.uniform(5, 100))
                if rng.random() < 0.5:
                    streams.append(seq(rng.integers(0, 4, size=rows), 4, rate=rate, tag=f"s{j}"))
                else:
                    streams.append(features(rng.random((rows, 2)), rate=rate, tag=f"s{j}"))
            ds = align(streams, 25.0)
            full = [resample_nearest(s, 25.0) for s in streams]
            rows = min(f.rows for f in full)
            lengths = {s.rows for s in ds}
            rates = {s.sample_rate_hz for s in ds}
            assert lengths == {rows} and rates == {25.0}
            # output i is input i, resampled and truncated, and of its kind
            assert [type(s) for s in ds] == [type(s) for s in streams]
            for s, f, out in zip(streams, full, ds):
                data = "values" if isinstance(s, FeatureMatrix) else "symbols"
                assert out.modality_tag == s.modality_tag
                assert np.array_equal(getattr(out, data), getattr(f, data)[:rows])


class TestManifest:
    def _write(self, tmp_path, doc):
        import json

        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return path

    def _stream_files(self, tmp_path):
        write_feature_matrix(features([[0.0, 1.0]] * 4), tmp_path / "a.fmx")
        write_labels(seq([0, 1, 0, 1]), tmp_path / "t.lbl")

    def test_three_stream_manifest(self, tmp_path):
        self._stream_files(tmp_path)
        write_feature_matrix(features([[2.0]] * 4), tmp_path / "v.fmx")
        path = self._write(
            tmp_path,
            {
                "target_rate_hz": 25,
                "streams": [
                    {"name": "audio", "path": "a.fmx", "kind": "features", "sample_rate_hz": 50},
                    {"name": "video", "path": "v.fmx", "kind": "features", "sample_rate_hz": 25},
                    {"name": "text", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25},
                ],
            },
        )
        m = load_manifest(path)
        assert m.target_rate_hz == 25.0
        assert [s.kind for s in m.streams] == ["features", "features", "labels"]
        assert m.streams[0].path.is_file()

    def test_missing_rate_names_stream(self, tmp_path):
        self._stream_files(tmp_path)
        path = self._write(
            tmp_path,
            {
                "target_rate_hz": 25,
                "streams": [{"name": "audio", "path": "a.fmx", "kind": "features"}],
            },
        )
        with pytest.raises(FormatError, match="audio.*sample_rate_hz"):
            load_manifest(path)

    def test_cluster_override_carried(self, tmp_path):
        self._stream_files(tmp_path)
        path = self._write(
            tmp_path,
            {
                "target_rate_hz": 25,
                "streams": [
                    {
                        "name": "audio",
                        "path": "a.fmx",
                        "kind": "features",
                        "sample_rate_hz": 25,
                        "clusters": 2000,
                    }
                ],
            },
        )
        assert load_manifest(path).streams[0].clusters == 2000

    def test_duplicate_name_rejected(self, tmp_path):
        self._stream_files(tmp_path)
        entry = {"name": "x", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25}
        path = self._write(tmp_path, {"target_rate_hz": 25, "streams": [entry, entry]})
        with pytest.raises(FormatError, match="duplicate stream name 'x'"):
            load_manifest(path)

    def test_unknown_kind(self, tmp_path):
        self._stream_files(tmp_path)
        path = self._write(
            tmp_path,
            {
                "target_rate_hz": 25,
                "streams": [
                    {"name": "x", "path": "a.fmx", "kind": "video", "sample_rate_hz": 25}
                ],
            },
        )
        with pytest.raises(FormatError, match="unknown kind"):
            load_manifest(path)

    def test_dangling_path(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "target_rate_hz": 25,
                "streams": [
                    {"name": "x", "path": "gone.fmx", "kind": "features", "sample_rate_hz": 25}
                ],
            },
        )
        with pytest.raises(FormatError, match="no such file"):
            load_manifest(path)

    def test_clusters_on_labels_rejected(self, tmp_path):
        self._stream_files(tmp_path)
        path = self._write(
            tmp_path,
            {
                "target_rate_hz": 25,
                "streams": [
                    {
                        "name": "t",
                        "path": "t.lbl",
                        "kind": "labels",
                        "sample_rate_hz": 25,
                        "clusters": 5,
                    }
                ],
            },
        )
        with pytest.raises(FormatError, match="features streams only"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("features", "clusteres", 3, "stream cam: unknown key 'clusteres'"),
            ("labels", "alphabet", 3, "stream cam: unknown key 'alphabet'"),
            ("features", "alphabet_size", 3, "stream cam: 'alphabet_size' applies to labels"),
            ("manifest", "target_rate", 25, r"manifest\.json: unknown key 'target_rate'"),
        ],
        ids=["typo-clusters", "typo-alphabet", "alphabet-on-features", "manifest-typo"],
    )
    def test_unknown_or_misplaced_keys_rejected(self, tmp_path, kind, key, value, message):
        self._stream_files(tmp_path)
        entry = {
            "name": "cam",
            "path": "t.lbl" if kind == "labels" else "a.fmx",
            "kind": "labels" if kind == "labels" else "features",
            "sample_rate_hz": 25,
        }
        doc = {"target_rate_hz": 25, "streams": [entry]}
        (doc if kind == "manifest" else entry)[key] = value
        with pytest.raises(FormatError, match=message):
            load_manifest(self._write(tmp_path, doc))

    @pytest.mark.parametrize(
        "raw",
        [b'{"target_rate_hz": 25, "streams": ["\xff"]}', b"[" * 100000],
        ids=["not-utf8", "deep"],
    )
    def test_undecodable_or_deep_json_rejected(self, tmp_path, raw):
        path = tmp_path / "manifest.json"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="invalid JSON"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("features", "clusters", "5"),
            ("features", "clusters", True),
            ("features", "clusters", 0),
            ("labels", "alphabet_size", "5"),
        ],
    )
    def test_count_fields_must_be_positive_ints(self, tmp_path, kind, key, value):
        self._stream_files(tmp_path)
        entry = {
            "name": "cam",
            "path": "a.fmx" if kind == "features" else "t.lbl",
            "kind": kind,
            "sample_rate_hz": 25,
            key: value,
        }
        path = self._write(tmp_path, {"target_rate_hz": 25, "streams": [entry]})
        with pytest.raises(FormatError, match=f"stream cam: '{key}' must be an integer >= 1"):
            load_manifest(path)

    @pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "401-digits"])
    @pytest.mark.parametrize("field", ["target_rate_hz", "sample_rate_hz"])
    def test_rates_must_be_finite_numbers(self, tmp_path, field, value):
        self._stream_files(tmp_path)
        entry = {"name": "cam", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25}
        doc = {"target_rate_hz": 25, "streams": [entry]}
        (doc if field == "target_rate_hz" else entry)[field] = value
        where = "" if field == "target_rate_hz" else "stream cam: "
        with pytest.raises(FormatError, match=f"{where}{field} must be a finite positive number"):
            load_manifest(self._write(tmp_path, doc))

    @pytest.mark.parametrize(
        "key, value, label",
        [("path", 5, "cam"), ("path", "", "cam"), ("name", ["a"], "#0"), ("name", "", "#0")],
    )
    def test_name_and_path_must_be_strings(self, tmp_path, key, value, label):
        self._stream_files(tmp_path)
        entry = {"name": "cam", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25}
        entry[key] = value
        path = self._write(tmp_path, {"target_rate_hz": 25, "streams": [entry]})
        with pytest.raises(FormatError, match=f"stream {label}: '{key}' must be a non-empty string"):
            load_manifest(path)


# A features and a labels spec; the checks never touch the files.
CAM = StreamSpec("cam", "a.fmx", "features", 25.0)
TXT = StreamSpec("txt", "t.lbl", "labels", 25.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Manifest(25.0, (CAM, replace(TXT, name="cam"))), "duplicate stream name 'cam'"),
        (lambda: Manifest(25.0, (CAM, {"name": "t"})), "streams[1] must be a StreamSpec, got dict"),
        (lambda: replace(CAM, kind="feature"), "unknown kind 'feature'"),
        (lambda: replace(TXT, clusters=5), "'clusters' applies to features streams only"),
        (lambda: replace(CAM, alphabet_size=7), "'alphabet_size' applies to labels streams only"),
        (lambda: replace(CAM, clusters=0), "'clusters' must be an integer >= 1, got 0"),
        (lambda: replace(TXT, alphabet_size=2.0), "'alphabet_size' must be an integer >= 1"),
        (lambda: replace(CAM, sample_rate_hz=True), "sample_rate_hz must be a finite positive"),
        (lambda: Manifest(float("nan"), (CAM,)), "target_rate_hz must be a finite positive"),
        (lambda: replace(CAM, name=""), "'name' must be a non-empty string, got ''"),
        (lambda: replace(CAM, path=None), "'path' must be a non-empty string, got None"),
        (
            lambda: replace(CAM, clusters=-(10**5000)),
            "'clusters' must be an integer >= 1, got a negative integer of 16610 bits",
        ),
    ],
    ids=[
        "duplicate-name", "not-a-spec", "unknown-kind", "clusters-on-labels", "alphabet-on-features",
        "zero-clusters", "float-alphabet", "bool-rate", "nan-target-rate", "empty-name",
        "no-path", "unprintable-clusters",
    ],
)
def test_specs_built_in_code_follow_the_manifest_rules(build, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        build()


def test_spec_values_are_stored_as_python_types():
    spec = StreamSpec("cam", Path("a.fmx"), "features", np.int64(25), clusters=np.int64(3))
    assert spec.path == Path("a.fmx") == StreamSpec("cam", "a.fmx", "features", 25).path
    assert type(spec.sample_rate_hz) is float and type(spec.clusters) is int
    manifest = Manifest(np.float32(10), [spec])
    assert type(manifest.target_rate_hz) is float and manifest.target_rate_hz == 10.0


@pytest.mark.parametrize(
    "top, extra, key",
    [
        (', "target_rate_hz": 10', "", "target_rate_hz"),
        ("", ', "clusters": 3, "clusters": 2', "clusters"),
    ],
    ids=["top-level", "stream-entry"],
)
def test_repeated_manifest_key_rejected(tmp_path, top, extra, key):
    write_feature_matrix(features([[0.0]] * 4), tmp_path / "a.fmx")
    entry = '{"name": "cam", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25' + extra + "}"
    path = tmp_path / "manifest.json"
    path.write_text('{"target_rate_hz": 25' + top + ', "streams": [' + entry + "]}")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: repeated key '{key}'$"):
        load_manifest(path)


@pytest.mark.parametrize(
    "build",
    [
        lambda path: LabelSequence([0, 1, 2], 2.5, 25.0),
        lambda path: LabelSequence([0, 1, 2], True, 25.0),
        lambda path: LabelSequence([0, 1, 2], "3", 25.0),
        lambda path: read_labels(path, alphabet_size=True),
        lambda path: read_labels(path, alphabet_size="5"),
    ],
    ids=["float", "bool", "str", "read-override-bool", "read-override-str"],
)
def test_alphabet_size_must_be_an_integer(tmp_path, build):
    path = tmp_path / "t.txt"
    path.write_text("0\n2\n")
    with pytest.raises(DataError, match="alphabet_size must be an integer"):
        build(path)


def test_numpy_alphabet_size_is_stored_as_int():
    labels = LabelSequence([0, 1, 2], np.int64(3), 25.0)
    assert type(labels.alphabet_size) is int and labels.alphabet_size == 3


def test_lbl1_symbol_above_stored_alphabet_names_the_file(tmp_path):
    path = tmp_path / "bad.lbl"
    path.write_bytes(b"LBL1" + struct.pack("<II", 3, 2) + np.array([0, 1, 5], "<u4").tobytes())
    with pytest.raises(DataError) as exc:
        read_labels(path)
    assert str(exc.value) == f"{path}: symbol 5 exceeds alphabet_size 2"
