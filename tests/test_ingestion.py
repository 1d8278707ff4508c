import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modmi import ingestion
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
from util import ARRAY_FIELDS, features, seq


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

    @pytest.mark.parametrize("alphabet_size", [0, 2**32], ids=["zero", "2**32"])
    def test_alphabet_size_out_of_range(self, alphabet_size):
        with pytest.raises(DataError, match=f"^alphabet_size out of range: {alphabet_size}$"):
            LabelSequence([0], alphabet_size, 25.0)

    @pytest.mark.parametrize(
        "symbols, shown",
        [([0.5, 1.2], "0.5 at index 0"), ([1.0, np.nan], "nan at index 1"),
         ([0.0, 1.0, -np.inf], "-inf at index 2"), ([1e30, 0.0], "1e+30 at index 0")],
        ids=["fraction", "nan", "inf", "beyond-u32"],
    )
    def test_non_integral_symbols_rejected(self, symbols, shown):
        # A cast to int64 would truncate 0.5 to 0 and warn on NaN or inf.
        with pytest.raises(DataError, match=f"must be integers .*, got {re.escape(shown)}$"):
            LabelSequence(np.array(symbols), 2, 25.0)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.uint8, np.bool_])
    def test_integral_symbols_of_any_dtype_accepted(self, dtype):
        labels = LabelSequence(np.array([0, 1, 1], dtype=dtype), 2, 25.0)
        assert labels.symbols.dtype == np.int64 and labels.symbols.tolist() == [0, 1, 1]


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

    def test_no_final_newline_keeps_the_vectorised_parse(self, tmp_path, monkeypatch):
        def line_loop(raw, path):
            raise AssertionError("took the line-by-line parse")

        monkeypatch.setattr(ingestion, "_parse_label_lines", line_loop)
        path = tmp_path / "t.txt"
        path.write_bytes(b"3\n1\n4")
        s = read_labels(path)
        assert s.symbols.tolist() == [3, 1, 4] and s.alphabet_size == 5

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

    # A symbol is below its alphabet, which LBL1 caps at 2**32 - 1.
    @pytest.mark.parametrize(
        "symbol, line",
        [
            pytest.param(2**32 - 2, 1, id="4294967294"),
            pytest.param(2**32 - 1, 1, id="4294967295"),
            *(pytest.param(s, 2, id=str(s)) for s in (2**32, 2**63, 99999999999999999999999)),
        ],
    )
    def test_oversized_symbol_names_line(self, tmp_path, symbol, line):
        path = tmp_path / "big.txt"
        path.write_text("0\n" * (line - 1) + f"{symbol}\n")
        if symbol == 2**32 - 2:  # the largest symbol
            assert read_labels(path).alphabet_size == 2**32 - 1
            return
        match = f"big.txt:{line}: symbol {symbol} exceeds the u32 limit"
        with pytest.raises(FormatError, match=match):
            read_labels(path)

    # np.fromstring reads a file of newlines alone as [0].
    @pytest.mark.parametrize("raw", [b"\n", b"\n\n\n"], ids=["one-newline", "three-newlines"])
    def test_newlines_alone_are_an_empty_file(self, tmp_path, raw):
        path = tmp_path / "n.txt"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="n.txt: empty label file"):
            read_labels(path)

    # np.fromstring saturates both at 2**63 - 1.
    @pytest.mark.parametrize("symbol", ["9" * 20, str(2**63)], ids=["20-digits", "2**63"])
    def test_saturated_symbol_gets_the_line_loop_error(self, tmp_path, symbol):
        path = tmp_path / "s.txt"
        path.write_text(f"{symbol}\n")
        with pytest.raises(FormatError, match=f"s.txt:1: symbol {symbol} exceeds the u32 limit"):
            read_labels(path)

    def test_blank_lines_keep_the_one_call_parse(self, tmp_path, monkeypatch):
        def line_loop(raw, path):
            raise AssertionError("took the line-by-line parse")

        monkeypatch.setattr(ingestion, "_parse_label_lines", line_loop)
        path = tmp_path / "t.txt"
        path.write_bytes(b"1\n\n2\n")
        s = read_labels(path)
        assert s.symbols.tolist() == [1, 2] and s.alphabet_size == 3

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
    ("KMC1", lambda raw: raw[:20] + b"\x02" + raw[21:], "flag must be 0 or 1, got 2"),
    ("KMC1", lambda raw: raw[:20] + b"\xff" + raw[21:], "flag must be 0 or 1, got 255"),
]


@pytest.mark.parametrize(
    "fmt, damage, word",
    DAMAGED_FILES,
    ids=[
        "fmx-magic", "kmc-magic", "fmx-header", "lbl-header", "kmc-header",
        "fmx-short", "lbl-short", "kmc-short", "kmc-normalization", "fmx-long",
        "kmc-flag-2", "kmc-flag-255",
    ],
)
def test_damaged_binary_file_names_path(tmp_path, fmt, damage, word):
    path = tmp_path / f"damaged.{fmt.lower()}"
    read = _binary_file(fmt, path)
    read(path)  # the undamaged file reads
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{word}"):
        read(path)


@pytest.mark.parametrize(
    "body, message",
    [
        (struct.pack("<IIQB", 1, 2, 0, 0) + np.array([np.nan, 0], "<f4").tobytes(),
         "non-finite centroid"),
        (struct.pack("<IIQB", 0, 2, 0, 0), "centroids must be (k >= 1, d >= 1), got (0, 2)"),
    ],
    ids=["nan-centroid", "k-0"],
)
def test_codebook_value_error_names_path(tmp_path, body, message):
    """A KMC1 file whose header and size agree but whose values no Codebook
    takes names the file, as the FMX1 and LBL1 readers do."""
    path = tmp_path / "bad.kmc"
    path.write_bytes(b"KMC1" + body)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_codebook(path)


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

    def test_subnormal_target_rate_copies_the_last_frame_without_a_warning(self):
        # (i + 0.5) * 25 / 5e-324 overflows to inf before the clip to the last row
        assert resample_nearest(seq([0, 1, 2]), 5e-324).symbols.tolist() == [2]

    def test_non_stream_rejected(self):
        with pytest.raises(DataError, match="^stream must be a FeatureMatrix or a LabelSequence, got str$"):
            resample_nearest("x", 25.0)

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

    def test_non_stream_rejected(self):
        with pytest.raises(
            DataError, match=r"^streams\[1\] must be a FeatureMatrix or a LabelSequence, got int$"
        ):
            align([seq([0, 1]), 3], 25.0)

    def test_random_alignment_invariant(self):
        # Most draws cut some stream to less than half of its frames; align
        # refuses those, so 200 draws leave at least 30 that it aligns.
        rng = np.random.Generator(np.random.PCG64(3))
        aligned = 0
        for _ in range(200):
            streams = []
            for j in range(int(rng.integers(2, 5))):
                rows, rate = int(rng.integers(1, 300)), float(rng.uniform(5, 100))
                if rng.random() < 0.3:
                    rate = 25.0  # the target rate: aligned frames share the input's
                if rng.random() < 0.5:
                    streams.append(seq(rng.integers(0, 4, size=rows), 4, rate=rate, tag=f"s{j}"))
                else:
                    streams.append(features(rng.random((rows, 2)), rate=rate, tag=f"s{j}"))
            full = [resample_nearest(s, 25.0) for s in streams]
            rows = min(f.rows for f in full)
            cut = [(s.modality_tag, f.rows) for s, f in zip(streams, full) if 2 * rows < f.rows]
            if cut:  # the first stream cut to less than half is named
                tag, total = cut[0]
                with pytest.raises(
                    AlignmentError, match=rf"^stream '{tag}': alignment would keep {rows} of its {total} "
                ):
                    align(streams, 25.0)
                continue
            aligned += 1
            ds = align(streams, 25.0)
            lengths = {s.rows for s in ds}
            rates = {s.sample_rate_hz for s in ds}
            assert lengths == {rows} and rates == {25.0}
            # output i is input i, resampled and truncated, and of its kind
            assert [type(s) for s in ds] == [type(s) for s in streams]
            for s, f, out in zip(streams, full, ds):
                data = "values" if isinstance(s, FeatureMatrix) else "symbols"
                assert out.modality_tag == s.modality_tag
                assert np.array_equal(getattr(out, data), getattr(f, data)[:rows])
                assert getattr(out, data).dtype == getattr(f, data)[:rows].dtype
                shared = np.shares_memory(getattr(out, data), getattr(s, data))
                assert shared == (s.sample_rate_hz == 25.0)
        assert aligned >= 30

    @pytest.mark.parametrize("short_rows, refused", [(49, True), (50, False)])
    def test_keeps_at_least_half_of_each_stream(self, short_rows, refused):
        long = seq(np.arange(100) % 3, 3, rate=25.0, tag="long")
        short = seq(np.arange(short_rows) % 3, 3, rate=25.0, tag="short")
        if refused:
            with pytest.raises(AlignmentError) as info:
                align([long, short], 25.0)
            assert str(info.value) == (
                "stream 'long': alignment would keep 49 of its 100 frames at 25 Hz; "
                "refusing to drop more than half of a stream"
            )
        else:
            assert [s.rows for s in align([long, short], 25.0)] == [50, 50]

    def test_an_untagged_stream_is_named_by_its_index(self):
        short, long = seq(np.zeros(10, dtype=np.int64)), features(np.zeros((40, 1)))
        with pytest.raises(AlignmentError, match=r"^streams\[1\]: alignment would keep 10 of its 40 "):
            align([short, long], 25.0)


CAM_ENTRY = {"name": "cam", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25}


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

    @pytest.mark.parametrize("make, reason", [(None, "No such file or directory"),
                                              (Path.mkdir, "Is a directory")])
    def test_load_stream_of_an_unreadable_file_is_a_format_error(self, tmp_path, make, reason):
        path = tmp_path / "s.fmx"
        if make:
            make(path)
        manifest = Manifest(25.0, (StreamSpec("s", path, "features", 25.0),))
        with pytest.raises(FormatError) as info:
            manifest.load_stream(manifest.streams[0])
        assert str(info.value) == f"stream 's': cannot read {path}: {reason}"

    def test_to_json_is_what_load_manifest_reads(self, tmp_path):
        import json

        self._stream_files(tmp_path)
        specs = (StreamSpec("cam", "a.fmx", "features", 50, clusters=3),
                 StreamSpec("t", Path("t.lbl"), "labels", 25.0, alphabet_size=4))
        text = Manifest(25, specs).to_json()
        assert json.loads(text)["streams"][0] == {
            "name": "cam", "path": "a.fmx", "kind": "features", "sample_rate_hz": 50.0, "clusters": 3
        }
        (tmp_path / "manifest.json").write_text(text)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == Manifest(25.0, tuple(replace(s, path=tmp_path / s.path) for s in specs))

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
        "doc, message",
        [
            ([25], "manifest.json must be an object"),
            ({"streams": []}, "manifest.json is missing 'target_rate_hz'"),
            ({"target_rate_hz": 25}, "manifest.json: manifest needs a non-empty 'streams' list"),
            ({"target_rate_hz": 25, "streams": {}}, "needs a non-empty 'streams' list"),
            ({"target_rate_hz": 25, "streams": [CAM_ENTRY, 5]}, "stream #1 must be an object"),
            ({"target_rate_hz": 25, "streams": [{"name": "cam"}]}, "stream cam is missing 'path'"),
            (
                {"target_rate_hz": 25, "streams": [{"name": "cam", "pth": "a.fmx"}]},
                "stream cam is missing 'path'",
            ),
        ],
        ids=[
            "not-an-object", "no-target-rate", "no-streams", "streams-object", "entry-not-an-object",
            "entry-without-path", "entry-with-a-typo",
        ],
    )
    def test_objects_and_their_keys_are_checked_by_one_rule(self, tmp_path, doc, message):
        """Each object of a manifest, and each key it must hold, is checked as
        the report reader checks its own: ``{where} must be an object`` and
        ``{where} is missing 'k'``."""
        self._stream_files(tmp_path)
        with pytest.raises(FormatError, match=f"{re.escape(message)}$"):
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
        "kind, key, value, rule",
        [
            ("features", "clusters", "5", "must be an integer, got '5'"),
            ("features", "clusters", True, "must be an integer, got True"),
            ("features", "clusters", 0, "must be >= 1, got 0"),
            ("labels", "alphabet_size", "5", "must be an integer, got '5'"),
        ],
        ids=[
            "features-clusters-5", "features-clusters-True", "features-clusters-0",
            "labels-alphabet_size-5",
        ],
    )
    def test_count_fields_must_be_positive_ints(self, tmp_path, kind, key, value, rule):
        self._stream_files(tmp_path)
        entry = {
            "name": "cam",
            "path": "a.fmx" if kind == "features" else "t.lbl",
            "kind": kind,
            "sample_rate_hz": 25,
            key: value,
        }
        path = self._write(tmp_path, {"target_rate_hz": 25, "streams": [entry]})
        with pytest.raises(FormatError, match=f"stream cam: {key} {rule}$"):
            load_manifest(path)

    @pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "401-digits"])
    @pytest.mark.parametrize("field", ["target_rate_hz", "sample_rate_hz"])
    def test_rates_must_be_finite_numbers(self, tmp_path, field, value):
        self._stream_files(tmp_path)
        entry = {"name": "cam", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25}
        doc = {"target_rate_hz": 25, "streams": [entry]}
        (doc if field == "target_rate_hz" else entry)[field] = value
        where = "" if field == "target_rate_hz" else "stream cam: "
        rule = re.escape("must be finite and > 0 (a number, not a bool)")
        with pytest.raises(FormatError, match=f"{where}{field} {rule}"):
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

    @pytest.mark.parametrize("name", ["a\nb", "\r", "\x00", "\u2028"])
    def test_unprintable_name_is_shown_by_index(self, tmp_path, name):
        """An error about an entry stays on one line whatever its name holds."""
        entry = {"name": name, "path": "no.fmx", "kind": "features", "sample_rate_hz": 25}
        path = self._write(tmp_path, {"target_rate_hz": 25, "streams": [entry]})
        with pytest.raises(FormatError, match=r"stream #0: no such file: \S*no\.fmx$"):
            load_manifest(path)


# A features and a labels spec; the checks never touch the files.
CAM = StreamSpec("cam", "a.fmx", "features", 25.0)
TXT = StreamSpec("txt", "t.lbl", "labels", 25.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Manifest(25.0, (CAM, replace(TXT, name="cam"))), "duplicate stream name 'cam'"),
        (lambda: Manifest(25.0, (CAM, {"name": "t"})), "streams[1] must be a StreamSpec, got dict"),
        (lambda: Manifest(25.0, None), "streams must be a tuple or list, got NoneType"),
        (lambda: Manifest(25.0, 5), "streams must be a tuple or list, got int"),
        (lambda: replace(CAM, kind="feature"), "unknown kind 'feature'"),
        (lambda: replace(TXT, clusters=5), "'clusters' applies to features streams only"),
        (lambda: replace(CAM, alphabet_size=7), "'alphabet_size' applies to labels streams only"),
        (lambda: replace(CAM, clusters=0), "clusters must be >= 1, got 0"),
        (lambda: replace(TXT, alphabet_size=2.0), "alphabet_size must be an integer, got 2.0"),
        (lambda: replace(CAM, sample_rate_hz=True), "sample_rate_hz must be finite and > 0"),
        (lambda: Manifest(float("nan"), (CAM,)), "target_rate_hz must be finite and > 0"),
        (lambda: replace(CAM, name=""), "'name' must be a non-empty string, got ''"),
        (lambda: replace(CAM, path=None), "'path' must be a non-empty string, got None"),
        (
            lambda: replace(CAM, clusters=-(10**5000)),
            "clusters must be >= 1, got a negative integer of 16610 bits",
        ),
    ],
    ids=[
        "duplicate-name", "not-a-spec", "none-streams", "int-streams", "unknown-kind",
        "clusters-on-labels", "alphabet-on-features",
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


def test_manifest_stores_a_list_of_streams_as_a_tuple():
    assert Manifest(25.0, [CAM, TXT]).streams == (CAM, TXT)


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FeatureMatrix("abc", 25.0),
         "feature values must be an array of numbers: could not convert string to float: 'abc'"),
        (lambda: LabelSequence(None, 3, 25.0),
         "symbols must be an array of numbers: int() argument must be a string, a bytes-like "
         "object or a real number, not 'NoneType'"),
        (lambda: LabelSequence([2**70], 3, 25.0),
         "symbols must be an array of numbers: Python int too large to convert to C long"),
        (lambda: LabelSequence(np.array([1j]), 3, 25.0),
         "symbols must be an array of numbers: got complex128 values"),
        (lambda: FeatureMatrix([["1.5"]], 25.0),
         "feature values must be an array of numbers: could not convert string to float: '1.5'"),
        (lambda: LabelSequence(["1"], 3, 25.0),
         "symbols must be an array of numbers: could not convert string to int: '1'"),
        (lambda: FeatureMatrix(np.array([["2020-01-01"]], "M8[D]"), 25.0),
         "feature values must be an array of numbers: got datetime64[D] values"),
        (lambda: LabelSequence(np.array([2**64 - 1], np.uint64), 3, 25.0),
         "symbols must be integers in [0, 4294967294], got 18446744073709551615 at index 0"),
        (lambda: LabelSequence(np.array([0.5], dtype=object), 3, 25.0),
         "symbols must be integers in [0, 4294967294], got 0.5 at index 0"),
        (lambda: Codebook([[1.0]], 0, labels=[0.5]),
         "labels: symbols must be integers in [0, 4294967294], got 0.5 at index 0"),
        (lambda: Codebook([[1.0]], 0, labels=[1]), "labels: symbol 1 exceeds alphabet_size 1"),
        (lambda: Codebook([[1.0], [1.0, 2.0]], 0),
         "centroids must be an array of numbers: setting an array element with a sequence"),
        (lambda: FeatureMatrix([[1e300]], 25.0), "non-finite feature value at row 0, col 0"),
    ],
    ids=[
        "values-str", "symbols-none", "symbols-huge-int", "symbols-complex", "values-numeric-str",
        "symbols-numeric-str", "values-dates", "symbols-uint64",
        "symbols-object-fraction", "labels-fraction", "labels-above-k", "centroids-ragged",
        "values-beyond-float32",
    ],
)
def test_an_array_numpy_cannot_convert_raises_data_error(build, message):
    """No value a frozen type refuses leaks a numpy exception or warning, or
    is truncated or wrapped into a value it takes."""
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        build()


# Array field -> a caller's writable array, whose first two rows are given
# to the type.
WRITABLE_BASES = {
    "values": np.zeros((4, 2), np.float32),
    "symbols": np.zeros(4, np.int64),
    "centroids": np.zeros((4, 2), np.float32),
    "normalization": np.ones((4, 2), np.float32),
    "labels": np.zeros(4, np.int64),
    "table": np.full((4, 2), 0.25),
}


@pytest.mark.parametrize("writable", [True, False], ids=["view", "read-only-view"])
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_a_frozen_type_keeps_no_alias_of_a_writable_array(field, writable):
    """A type copies a view of a writable array, read-only or not, so a later
    write to its base does not reach the validated field, and the caller's
    view stays as writable as it was."""
    base = WRITABLE_BASES[field].copy()
    view = base[:2]
    view.setflags(write=writable)
    stored = ARRAY_FIELDS[field][1](view)
    before = stored.copy()
    base.flat[0] = 7 if base.dtype.kind == "i" else np.nan
    assert np.array_equal(stored, before)
    assert view.flags.writeable == writable and not stored.flags.writeable


def test_a_read_only_array_no_write_can_reach_is_kept():
    values = np.frombuffer(np.zeros(4, np.float32).tobytes(), np.float32).reshape(2, 2)
    assert FeatureMatrix(values, 25.0).values is values
    frozen = FeatureMatrix(np.zeros((2, 2)), 25.0).values
    assert FeatureMatrix(frozen[:1], 25.0).values.base is frozen


def test_write_labels_refuses_a_symbol_written_through_a_read_only_owner(tmp_path):
    """A read-only array that owns its memory is kept without a copy; if its
    owner turns writes back on and writes it, LBL1 still refuses to truncate."""
    symbols = np.arange(3)
    symbols.setflags(write=False)
    labels = LabelSequence(symbols, 3, 25.0)
    symbols.setflags(write=True)
    symbols[0] = 2**40
    with pytest.raises(DataError, match="^symbols do not fit the u32 on-disk format$"):
        write_labels(labels, tmp_path / "t.lbl")
