import hashlib
import json
import struct

import numpy as np
import pytest

import modmi
from modmi.cli import main
from modmi.ingestion import read_labels, write_feature_matrix, write_labels
from modmi.synthetic import gen_gaussian_mixture
from util import features, run_cli_process, seq


def without(text, group, key):
    """A report with ``quantities[group][key]`` deleted."""
    doc = json.loads(text)
    del doc["quantities"][group][key]
    return json.dumps(doc)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def xor_dir(tmp_path, capsys):
    out = tmp_path / "xor"
    code, _, _ = run(capsys, "synth", "xor", "--out-dir", str(out))
    assert code == 0
    return out


@pytest.fixture
def blobs_dir(tmp_path, capsys):
    out = tmp_path / "blobs"
    code, _, _ = run(
        capsys,
        "synth", "blobs", "--out-dir", str(out),
        "--centers", "3", "--dims", "4", "--n-per-center", "80",
        "--stddev", "0.5", "--seed", "7",
    )
    assert code == 0
    return out


class TestAnalyze:
    def test_table_header_and_xor_row(self, xor_dir, capsys):
        code, out, _ = run(capsys, "analyze", str(xor_dir / "manifest.json"), "--format", "table")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "H(T) H(S) H(V) I(T;V) I(T;S) I(V;S) I(V;T;S)"
        assert row.endswith("-1.0000")

    def test_missing_manifest_exit_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path / "gone.json"))
        assert code == 1
        assert err.strip().startswith("error:")

    @pytest.mark.parametrize("dataset", ["blobs_dir", "xor_dir"])  # features / labels only
    def test_negative_seed_exit_1(self, dataset, request, capsys):
        manifest = str(request.getfixturevalue(dataset) / "manifest.json")
        code, out, err = run(capsys, "analyze", manifest, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: seed must be in")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "nan"], "tol must be finite"),
            (["--tol", "inf"], "tol must be finite"),
            (["--max-iter", "0"], "max_iter must be >= 1"),
        ],
        ids=["tol-nan", "tol-inf", "max-iter-0"],
    )
    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_bad_stopping_rule_exit_1(self, blobs_dir, capsys, command, flags, message):
        ks = ["--ks", "2"] if command == "sweep" else []
        code, out, err = run(capsys, command, str(blobs_dir / "manifest.json"), *ks, *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_json_matches_table_at_4dp(self, blobs_dir, capsys):
        manifest = str(blobs_dir / "manifest.json")
        code, table_out, _ = run(capsys, "analyze", manifest, "--format", "table")
        assert code == 0
        code, json_out, _ = run(capsys, "analyze", manifest, "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        header, row = table_out.strip().split("\n")
        cells = [float(tok) for tok in row.split()]
        q = doc["quantities"]
        expected = [q["H"]["T"], q["H"]["S"], q["I2"]["T,S"]]
        assert header == "H(T) H(S) I(T;S)"
        for cell, value in zip(cells, expected):
            assert abs(cell - value) <= 5.0001e-5

    def test_svg_contains_regions(self, xor_dir, tmp_path, capsys):
        svg_path = tmp_path / "d.svg"
        code, _, _ = run(
            capsys,
            "analyze", str(xor_dir / "manifest.json"), "--format", "svg", "--out", str(svg_path),
        )
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 3
        assert "-1.0000" in svg and "1.0000" in svg

    def test_report_written_to_file(self, xor_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, stdout, _ = run(
            capsys, "analyze", str(xor_dir / "manifest.json"), "--out", str(out)
        )
        assert code == 0 and stdout == ""
        doc = json.loads(out.read_text())
        assert doc["quantities"]["I3"] == pytest.approx(-1.0, abs=1e-12)

    def test_cli_and_library_agree_on_manifest_rate(self, tmp_path, capsys):
        out = tmp_path / "xor"
        assert run(capsys, "synth", "xor", "--out-dir", str(out), "--copies", "5")[0] == 0
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "target_rate_hz": 10}))
        code, cli_json, _ = run(capsys, "analyze", str(manifest))
        assert code == 0
        assert cli_json == modmi.analyze(manifest).to_json()
        assert json.loads(cli_json)["streams"][0]["L"] == 8  # 20 frames at 25 Hz -> 10 Hz

    def test_misspelled_manifest_key_exit_1(self, blobs_dir, capsys):
        manifest = blobs_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        entry = next(e for e in doc["streams"] if e["name"] == "s")
        entry["clusteres"] = entry.pop("clusters")
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(manifest))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "stream s: unknown key 'clusteres'" in err

    def test_base_flag(self, xor_dir, capsys):
        code, out, _ = run(
            capsys, "analyze", str(xor_dir / "manifest.json"), "--base", "e", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["quantities"]["log_base"] == "e"
        assert doc["quantities"]["I3"] == pytest.approx(-np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "manifest_rates, flags",
        [((1e300, 1e-300), []), (None, ["--rate", "1e300"]), (None, ["--rate", "1e12"])],
        ids=["manifest-1e300-over-1e-300", "rate-1e300", "rate-1e12"],
    )
    def test_oversized_resample_exit_1(self, xor_dir, capsys, manifest_rates, flags):
        manifest = xor_dir / "manifest.json"
        if manifest_rates:
            doc = json.loads(manifest.read_text())
            doc["target_rate_hz"] = manifest_rates[0]
            for entry in doc["streams"]:
                entry["sample_rate_hz"] = manifest_rates[1]
            manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(manifest), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: resampling") and "above the limit of 4294967295" in err

    def test_tiny_rate_keeps_one_frame(self, xor_dir, capsys):
        code, out, err = run(capsys, "analyze", str(xor_dir / "manifest.json"), "--rate", "1e-300")
        assert code == 0 and err == ""
        assert all(s["L"] == 1 for s in json.loads(out)["streams"])

    def test_oversized_resample_names_the_stream(self, xor_dir, capsys):
        code, _, err = run(capsys, "analyze", str(xor_dir / "manifest.json"), "--rate", "1e12")
        assert code == 1
        assert err == (
            "error: resampling 4 frames of stream 'v' from 25 Hz to 1e+12 Hz "
            "gives 1.6e+11 frames, above the limit of 4294967295\n"
        )

    def test_alignment_dropping_most_of_a_stream_exit_1(self, tmp_path, capsys):
        # The label stream declared at 2.5 Hz resamples to 30,000 frames at
        # 25 Hz; truncating it to the features' 3,000 used to print H(T) 0.
        out = tmp_path / "blobs"
        assert run(capsys, "synth", "blobs", "--out-dir", str(out))[0] == 0
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        next(e for e in doc["streams"] if e["name"] == "t")["sample_rate_hz"] = 2.5
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(manifest), "--format", "table")
        assert code == 1 and out == ""
        assert err == (
            "error: stream 't': alignment would keep 3000 of its 30000 frames at 25 Hz; "
            "refusing to drop more than half of a stream\n"
        )


class TestFitAssign:
    def _features_file(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(0))
        path = tmp_path / "x.fmx"
        write_feature_matrix(features(rng.standard_normal((200, 5))), path)
        return path

    def test_fit_writes_codebook_and_stats(self, tmp_path, capsys):
        path = self._features_file(tmp_path)
        out = tmp_path / "cb.kmc"
        code, stdout, _ = run(
            capsys, "fit", str(path), "--clusters", "6", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        assert out.is_file()
        assert stdout.startswith("k=6 iterations=")
        assert "distortion=" in stdout

    def test_fit_deterministic_bytes(self, tmp_path, capsys):
        path = self._features_file(tmp_path)
        a, b = tmp_path / "a.kmc", tmp_path / "b.kmc"
        for out in (a, b):
            code, _, _ = run(
                capsys, "fit", str(path), "--clusters", "5", "--seed", "9", "--out", str(out)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_fit_non_finite_tol_exit_1(self, tmp_path, capsys, tol):
        path = self._features_file(tmp_path)
        out = tmp_path / "cb.kmc"
        code, _, err = run(capsys, "fit", str(path), "--clusters", "3", "--tol", tol, "--out", str(out))
        assert code == 1
        assert "tol must be finite" in err
        assert not out.exists()

    def test_fit_infeasible_k_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.fmx"
        write_feature_matrix(features([[0.0], [1.0], [0.0]]), path)
        code, _, err = run(
            capsys, "fit", str(path), "--clusters", "5", "--out", str(tmp_path / "cb.kmc")
        )
        assert code == 2
        assert "infeasible k" in err

    @pytest.mark.parametrize("k", [10**13, 10**28])
    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_more_clusters_than_rows_exit_2(self, blobs_dir, tmp_path, capsys, command, k):
        if command == "fit":
            argv = ["fit", str(blobs_dir / "s.fmx"), "--clusters", str(k), "--out", "cb.kmc"]
        else:
            argv = ["sweep", str(blobs_dir / "manifest.json"), "--ks", str(k)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{k} clusters but only 240 rows" in err

    def test_fit_defaults_spelled_out_write_same_codebook(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(1))
        path = tmp_path / "x.fmx"
        write_feature_matrix(features(rng.standard_normal((2100, 2))), path)
        bare, spelled = tmp_path / "bare.kmc", tmp_path / "spelled.kmc"
        defaults = ["--clusters", "2000", "--seed", "0", "--tol", "1e-4", "--max-iter", "300"]
        assert run(capsys, "fit", str(path), "--out", str(bare))[0] == 0
        assert run(capsys, "fit", str(path), *defaults, "--out", str(spelled))[0] == 0
        assert bare.read_bytes() == spelled.read_bytes()

    def test_assign_round_trip(self, tmp_path, capsys):
        path = self._features_file(tmp_path)
        cb = tmp_path / "cb.kmc"
        labels_path = tmp_path / "l.lbl"
        run(capsys, "fit", str(path), "--clusters", "4", "--seed", "1", "--out", str(cb))
        code, stdout, _ = run(capsys, "assign", str(cb), str(path), "--out", str(labels_path))
        assert code == 0
        labels = read_labels(labels_path)
        assert labels.rows == 200 and labels.alphabet_size == 4


class TestSweep:
    def test_constant_text_entropy_cells(self, blobs_dir, capsys):
        code, out, _ = run(
            capsys, "sweep", str(blobs_dir / "manifest.json"), "--ks", "2,3", "--seed", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k H(T) H(S) I(T;S)"
        rows = [line.split() for line in lines[1:]]
        assert [r[0] for r in rows] == ["2", "3"]
        assert rows[0][1] == rows[1][1]  # H(T) identical

    def test_single_k_matches_analyze(self, blobs_dir, capsys):
        manifest = str(blobs_dir / "manifest.json")
        code, sweep_out, _ = run(capsys, "sweep", manifest, "--ks", "3", "--seed", "4")
        assert code == 0
        code, analyze_out, _ = run(
            capsys, "analyze", manifest, "--clusters", "3", "--seed", "4", "--format", "table"
        )
        assert code == 0
        sweep_row = sweep_out.strip().split("\n")[1].split()[1:]
        analyze_row = analyze_out.strip().split("\n")[1].split()
        assert sweep_row == analyze_row

    def test_empty_ks_usage_error(self, blobs_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(blobs_dir / "manifest.json"), "--ks", ","])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "modmi sweep: error: argument --ks: must be comma-separated integers, got ','" in err

    def test_non_integer_ks_usage_error(self, blobs_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(blobs_dir / "manifest.json"), "--ks", "2,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "modmi sweep: error: argument --ks: must be comma-separated integers, got '2,x'" in err

    def test_json_format(self, blobs_dir, capsys):
        code, out, _ = run(
            capsys, "sweep", str(blobs_dir / "manifest.json"), "--ks", "2,3", "--format", "json"
        )
        assert code == 0
        docs = json.loads(out)
        assert [d["config"]["clusters"] for d in docs] == [2, 3]


class TestReport:
    def test_rerender_table(self, xor_dir, tmp_path, capsys):
        saved = tmp_path / "r.json"
        run(capsys, "analyze", str(xor_dir / "manifest.json"), "--out", str(saved))
        code, table_from_report, _ = run(capsys, "report", str(saved), "--format", "table")
        assert code == 0
        code, table_direct, _ = run(
            capsys, "analyze", str(xor_dir / "manifest.json"), "--format", "table"
        )
        assert table_from_report == table_direct

    def test_rerender_json_round_trip(self, xor_dir, tmp_path, capsys):
        saved = tmp_path / "r.json"
        run(capsys, "analyze", str(xor_dir / "manifest.json"), "--out", str(saved))
        code, out, _ = run(capsys, "report", str(saved), "--format", "json")
        assert code == 0
        assert out == saved.read_text()

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda text: "not json", "invalid JSON"),
            (lambda text: json.dumps({"config": {}}), "missing"),
            (
                lambda text: text.replace('"normalize": false', '"normalize": "no"'),
                "config: normalize must be a bool",
            ),
            (lambda text: text.replace('"log_base": "2"', '"log_base": 2', 1), "wrong type"),
            (lambda text: text.replace('"T": ', '"T": "x", "_": ', 1), "wrong type"),
            (lambda text: '"log_base": "7"'.join(text.rsplit('"log_base": "2"', 1)), "log base"),
            (lambda text: b"\xff" + text.encode(), "invalid JSON"),
            (lambda text: "[" * 100000, "invalid JSON"),
            (lambda text: without(text, "regions", "V;T;S"), "quantities.regions is missing"),
            (lambda text: without(text, "cond", "V|S"), "quantities.cond is missing"),
            (lambda text: text.replace('"T": ', '"T": 1' + "0" * 400 + ', "_": ', 1), "finite"),
            (lambda text: text.replace('"T": ', '"T": NaN, "_": ', 1), "not a finite number"),
            (lambda text: text.replace('"V;T;S": ', '"V;T;S": -Infinity, "_": ', 1), "finite"),
        ],
        ids=[
            "invalid-json", "missing-key", "bool-as-string", "base-as-number", "entropy-as-string",
            "unknown-quantities-base", "not-utf8", "deeply-nested", "missing-region",
            "missing-cond", "huge-int", "nan-quantity", "infinite-region",
        ],
    )
    def test_malformed_report_exit_1(self, xor_dir, tmp_path, capsys, mutate, message):
        saved = tmp_path / "r.json"
        run(capsys, "analyze", str(xor_dir / "manifest.json"), "--out", str(saved))
        data = mutate(saved.read_text())
        saved.write_bytes(data if isinstance(data, bytes) else data.encode())
        code, _, err = run(capsys, "report", str(saved), "--format", "table")
        assert code == 1
        assert err.startswith("error: report") and message in err


class TestDeterminism:
    def test_byte_identical_reports_across_threads(self, blobs_dir, tmp_path):
        manifest = str(blobs_dir / "manifest.json")
        outputs = []
        for threads, name in (("1", "one.json"), ("1", "again.json"), ("2", "two.json")):
            out = tmp_path / name
            run_cli_process(["analyze", manifest, "--seed", "5", "--out", str(out)], threads)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


# (command line, a flag its command does not read)
REMOVED_FLAGS = [
    (["fit", "x.fmx", "--out", "cb.kmc"], ["--rate", "10"]),
    (["fit", "x.fmx", "--out", "cb.kmc"], ["--base", "e"]),
    (["sweep", "m.json", "--ks", "2"], ["--clusters", "3"]),
    (["synth", "xor", "--out-dir", "d"], ["--centers", "3"]),
    (["synth", "xor", "--out-dir", "d"], ["--dims", "4"]),
    (["synth", "xor", "--out-dir", "d"], ["--n-per-center", "10"]),
    (["synth", "xor", "--out-dir", "d"], ["--stddev", "0.5"]),
    (["synth", "xor", "--out-dir", "d"], ["--spacing", "5"]),
    (["synth", "xor", "--out-dir", "d"], ["--seed", "1"]),
    (["synth", "blobs", "--out-dir", "d"], ["--copies", "2"]),
]


@pytest.mark.parametrize(
    "argv, flag", REMOVED_FLAGS, ids=[f"{a[0]}-{a[1]}-{f[0]}" for a, f in REMOVED_FLAGS]
)
def test_flag_its_command_ignores_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_xor_dataset_shape(self, xor_dir):
        doc = json.loads((xor_dir / "manifest.json").read_text())
        assert [s["name"] for s in doc["streams"]] == ["v", "t", "s"]
        labels = read_labels(xor_dir / "v.lbl")
        assert labels.rows == 4

    def test_blobs_dataset_analyzable(self, blobs_dir, capsys):
        code, out, _ = run(
            capsys, "analyze", str(blobs_dir / "manifest.json"), "--format", "table"
        )
        assert code == 0
        # perfect separation: I(T;S) == H(T) == log2(3)
        row = out.strip().split("\n")[1].split()
        assert row[0] == row[2] == "1.5850"

    # Sizes in the PiB range, which numpy refuses before allocating anything.
    @pytest.mark.parametrize(
        "argv",
        [["blobs", "--dims", str(10**15)], ["xor", "--copies", str(10**15)]],
        ids=["blobs-dims-1e15", "xor-copies-1e15"],
    )
    def test_out_of_memory_exit_1(self, tmp_path, capsys, argv):
        code, stdout, err = run(capsys, "synth", *argv, "--out-dir", str(tmp_path / "big"))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: Unable to allocate") and "PiB" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dims", "0", "--dims must be >= 1, got 0"),
            ("--centers", "-1", "--centers must be >= 1, got -1"),
            ("--spacing", "inf", "--spacing must be finite, got inf"),
            ("--stddev", "nan", "--stddev must be finite and >= 0, got nan"),
            ("--stddev", "inf", "--stddev must be finite and >= 0, got inf"),
            ("--seed", "-1", "--seed must be in [0, 2**64 - 1], got -1"),
            ("--n-per-center", "0", "n_per_center must be >= 1, got 0"),
        ],
        ids=[
            "dims-0", "centers-negative", "spacing-inf", "stddev-nan", "stddev-inf",
            "seed-negative", "n-per-center-0",
        ],
    )
    def test_blobs_bad_shape_or_scale_exit_1(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "blobs"
        code, stdout, err = run(capsys, "synth", "blobs", "--out-dir", str(out), flag, value)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()


# The manifests and stream files synth writes, pinned byte for byte.
XOR_MANIFEST = """{
  "streams": [
    {
      "kind": "labels",
      "name": "v",
      "path": "v.lbl",
      "sample_rate_hz": 25.0
    },
    {
      "kind": "labels",
      "name": "t",
      "path": "t.lbl",
      "sample_rate_hz": 25.0
    },
    {
      "kind": "labels",
      "name": "s",
      "path": "s.lbl",
      "sample_rate_hz": 25.0
    }
  ],
  "target_rate_hz": 25.0
}
"""

BLOBS_MANIFEST = """{
  "streams": [
    {
      "clusters": 3,
      "kind": "features",
      "name": "s",
      "path": "s.fmx",
      "sample_rate_hz": 25.0
    },
    {
      "kind": "labels",
      "name": "t",
      "path": "t.lbl",
      "sample_rate_hz": 25.0
    }
  ],
  "target_rate_hz": 25.0
}
"""


class TestSynthFiles:
    @pytest.mark.parametrize("copies", [1, 5])
    def test_xor_files(self, tmp_path, capsys, copies):
        out = tmp_path / "xor"
        code, stdout, _ = run(capsys, "synth", "xor", "--out-dir", str(out), "--copies", str(copies))
        assert code == 0
        assert stdout == f"wrote {out / 'manifest.json'}\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "s.lbl", "t.lbl", "v.lbl"]
        assert (out / "manifest.json").read_text() == XOR_MANIFEST
        block = {"v": [0, 0, 1, 1], "t": [0, 1, 0, 1], "s": [0, 1, 1, 0]}  # s = v xor t
        for name, symbols in block.items():
            want = b"LBL1" + struct.pack("<II", 4 * copies, 2)
            want += np.tile(np.array(symbols, dtype="<u4"), copies).tobytes()
            assert (out / f"{name}.lbl").read_bytes() == want

    def test_blobs_files(self, tmp_path, capsys):
        out = tmp_path / "blobs"
        code, _, _ = run(
            capsys, "synth", "blobs", "--out-dir", str(out),
            "--centers", "3", "--dims", "4", "--n-per-center", "100", "--seed", "1",
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "s.fmx", "t.lbl"]
        assert (out / "manifest.json").read_text() == BLOBS_MANIFEST
        entries = json.loads((out / "manifest.json").read_text())["streams"]
        assert [e["kind"] for e in entries if "clusters" in e] == ["features"]
        labels = np.repeat(np.arange(3, dtype="<u4"), 100)
        assert (out / "t.lbl").read_bytes() == b"LBL1" + struct.pack("<II", 300, 3) + labels.tobytes()
        assert hashlib.sha256((out / "s.fmx").read_bytes()).hexdigest() == (
            "2139aa71a4bb6386c4fe0c7aa9dcea115fbc23a9e986a35afe841f1eeddc02f2"
        )

    def test_refused_allocation_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "big"
        code, stdout, err = run(capsys, "synth", "blobs", "--dims", str(10**15), "--out-dir", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")
        assert not out.exists()
