import ast
import gc
import hashlib
import json
import struct
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import modmi
from modmi import cli
from modmi.cli import main
from modmi.ingestion import read_labels, write_feature_matrix, write_labels
from modmi.report import InfoReport, render_diagram_svg, render_table
from modmi.synthetic import gen_gaussian_mixture
from util import child_env, features, run_cli_process, seq


def without(text, group, key):
    """A report with ``quantities[group][key]`` deleted."""
    doc = json.loads(text)
    del doc["quantities"][group][key]
    return json.dumps(doc)


def edited(text, change):
    """A report with ``change`` applied to its parsed JSON."""
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def stream_edited(text, index, **fields):
    """A report whose stream ``index`` gets ``fields``; a None value deletes its key."""
    doc = json.loads(text)
    entry = doc["streams"][index]
    entry.update(fields)
    for key in [key for key, value in fields.items() if value is None]:
        del entry[key]
    return json.dumps(doc)


# A labels stream entry of a saved xor report made into a valid features entry.
FITTED = {"kind": "features", "d": 1, "k": 2, "codebook_sha256": "0123456789abcdef" * 4}


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

    def test_text_labels_parse_alike_with_lf_and_crlf(self, tmp_path):
        """The same 200 symbols with LF endings (the fast parse) and with CRLF
        endings and one blank line (the line loop) give the same report."""
        run_cli_process(["synth", "xor", "--out-dir", str(tmp_path), "--copies", "50"], "1")
        s = [str(i * 7 % 13) for i in range(200)]
        (tmp_path / "lf.txt").write_bytes(("\n".join(s) + "\n").encode())
        crlf = "\r\n".join(s[:100]) + "\r\n\r\n" + "\r\n".join(s[100:]) + "\r\n"
        (tmp_path / "crlf.txt").write_bytes(crlf.encode())
        for f in ("lf", "crlf"):
            streams = [
                {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25},
                {"name": "s", "path": f"{f}.txt", "kind": "labels", "sample_rate_hz": 25},
            ]
            manifest = tmp_path / f"{f}.json"
            manifest.write_text(json.dumps({"target_rate_hz": 25, "streams": streams}))
            run_cli_process(["analyze", str(manifest), "--out", str(tmp_path / f"{f}.report")], "1")
        assert (tmp_path / "lf.report").read_bytes() == (tmp_path / "crlf.report").read_bytes()

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

    def test_svg_title_is_escaped(self, xor_dir, tmp_path, capsys):
        manifest = xor_dir / "a&b<c.json"
        manifest.write_bytes((xor_dir / "manifest.json").read_bytes())
        svg_path = tmp_path / "d.svg"
        code, _, _ = run(capsys, "analyze", str(manifest), "--format", "svg", "--out", str(svg_path))
        assert code == 0
        root = ElementTree.fromstring(svg_path.read_text())
        assert root.find("{http://www.w3.org/2000/svg}text").text == "a&b<c"

    def test_svg_of_two_streams_fails_before_any_fit(self, blobs_dir, capsys):
        """A two-stream manifest has no diagram; its infeasible k is never reached."""
        manifest = blobs_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        next(e for e in doc["streams"] if e["kind"] == "features")["clusters"] = 500
        manifest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(manifest), "--format", "svg")
        assert (code, out) == (1, "")
        assert err == "error: the information diagram needs a three-stream report\n"

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

    def test_alphabet_size_past_the_u32_limit_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        streams = [
            {"name": name, "path": f"{name}.txt", "kind": "labels", "sample_rate_hz": 25}
            for name in "ts"
        ]
        streams[0]["alphabet_size"] = 2**32
        for entry in streams:
            (tmp_path / entry["path"]).write_text("0\n1\n")
        (tmp_path / "m.json").write_text(json.dumps({"target_rate_hz": 25, "streams": streams}))
        code, out, err = run(capsys, "analyze", "m.json")
        assert (code, out) == (1, "")
        assert err == "error: stream 't': t.txt: alphabet_size out of range: 4294967296\n"

    def test_repeated_manifest_key_exit_1(self, blobs_dir, capsys):
        manifest = blobs_dir / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text.replace('"clusters": 3', '"clusters": 3, "clusters": 2', 1))
        code, out, err = run(capsys, "analyze", str(manifest))
        assert (code, out, err) == (1, "", f"error: {manifest}: repeated key 'clusters'\n")

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

    def test_bad_inputs_end_in_an_error_line(self, tmp_path, capsys):
        """In fresh processes: a tiny rate still writes a report, while a huge
        rate, a repeated manifest key and an edited report rng each exit 1
        with one error line and no traceback."""
        assert run(capsys, "synth", "xor", "--out-dir", str(tmp_path / "xor"))[0] == 0
        assert run(capsys, "synth", "blobs", "--out-dir", str(tmp_path / "blobs"), "--centers",
                   "3", "--dims", "4", "--n-per-center", "50", "--seed", "1")[0] == 0
        xor, blobs = tmp_path / "xor" / "manifest.json", tmp_path / "blobs" / "manifest.json"
        repeated, tiny, rng = tmp_path / "repeated.json", tmp_path / "tiny.json", tmp_path / "rng.json"
        repeated.write_text(blobs.read_text().replace('"clusters": 3,', '"clusters": 3, "clusters": 2,'))
        done = run_cli_process(["analyze", str(xor), "--rate", "1e-300", "--out", str(tiny)], None)
        assert "Traceback" not in done.stderr
        rng.write_text(tiny.read_text().replace('"pcg64"', '"mt19937"'))
        for argv in (
            ["analyze", str(xor), "--rate", "1e300"],
            ["analyze", str(repeated)],
            ["report", str(rng), "--format", "json"],
        ):
            done = run_cli_process(argv, None, check=False)
            assert done.returncode == 1, argv
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
            assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("case", ["stream-file", "manifest", "fmx1-magic"])
    def test_a_line_break_in_a_path_keeps_one_error_line(self, tmp_path, capsys, case):
        """A path that holds a line break is printed as its repr: a text label
        file that does not parse, a manifest that is not JSON and an FMX1 file
        with bad magic each exit 1 with one error line."""
        names = ("bad\nz.txt", "m\n.json", "f\n.fmx")
        labels, manifest, features = (tmp_path / name for name in names)
        labels.write_text("zz\n")
        (tmp_path / "t.txt").write_text("0\n1\n")
        streams = [
            {"name": name, "path": path, "kind": "labels", "sample_rate_hz": 25}
            for name, path in (("a", labels.name), ("t", "t.txt"))
        ]
        (tmp_path / "m.json").write_text(json.dumps({"target_rate_hz": 25, "streams": streams}))
        manifest.write_text("{")
        features.write_bytes(b"XXXX" + bytes(8))
        path, argv = {
            "stream-file": (labels, ["analyze", str(tmp_path / "m.json")]),
            "manifest": (manifest, ["analyze", str(manifest)]),
            "fmx1-magic": (features, ["fit", str(features), "--out", str(tmp_path / "o.kmc")]),
        }[case]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(path)) in err
        if case == "stream-file":
            assert err == f"error: stream 'a': {str(path)!r}:1: not an integer: 'zz'\n"

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
        blobs_dir = tmp_path / "blobs"
        assert run(capsys, "synth", "blobs", "--out-dir", str(blobs_dir), "--centers", "3",
                   "--dims", "4", "--n-per-center", "100", "--seed", "1")[0] == 0
        for data in (xor_dir, blobs_dir):
            saved, again = tmp_path / f"{data.name}.json", tmp_path / f"{data.name}.again.json"
            manifest = str(data / "manifest.json")
            assert run(capsys, "analyze", manifest, "--clusters", "3", "--out", str(saved))[0] == 0
            code, out, _ = run(capsys, "report", str(saved), "--format", "json")
            assert code == 0
            assert out == saved.read_text()
            assert run(capsys, "report", str(saved), "--format", "json", "--out", str(again))[0] == 0
            assert again.read_bytes() == saved.read_bytes()

    def test_every_report_written_reads_back(self, xor_dir, tmp_path, capsys):
        """The reader accepts every kind of report analyze and sweep write, and
        re-renders each byte for byte as JSON, as a table and, for three
        streams, as SVG."""
        blobs = tmp_path / "blobs"
        assert run(capsys, "synth", "blobs", "--out-dir", str(blobs), "--centers", "3",
                   "--dims", "4", "--n-per-center", "40", "--seed", "3")[0] == 0
        # Two streams of each kind under names that are no roles, and three
        # streams of which two are fitted.
        s = {"path": "s.fmx", "kind": "features", "sample_rate_hz": 25.0, "clusters": 5}
        t = {"path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0}
        for name, streams in (
            ("pair", [{**s, "name": "audio"}, {**t, "name": "words"}]),
            ("mixed", [{**s, "name": "video"}, {**t, "name": "words"}, {**s, "name": "audio"}]),
        ):
            (blobs / f"{name}.json").write_text(
                json.dumps({"target_rate_hz": 25.0, "streams": streams})
            )
        runs = [
            (xor_dir / "manifest.json", []),
            (blobs / "manifest.json", []),
            (blobs / "manifest.json", ["--normalize"]),
            (blobs / "pair.json", []),
            (blobs / "mixed.json", []),
        ]
        reports = []
        for manifest, flags in runs:
            code, out, _ = run(capsys, "analyze", str(manifest), *flags)
            assert code == 0
            reports.append((InfoReport.from_json(out), out))
        code, out, _ = run(capsys, "sweep", str(blobs / "mixed.json"), "--ks", "2,3,4",
                           "--format", "json")
        assert code == 0
        for entry in json.loads(out):
            text = json.dumps(entry, indent=2, sort_keys=True) + "\n"
            reports.append((InfoReport.from_json(text), text))
        assert len(reports) == 8
        for report, text in reports:
            again = InfoReport.from_json(report.to_json())
            assert again.to_json() == report.to_json() == text
            assert render_table(again) == render_table(report)
            if len(report.streams) == 3:
                assert render_diagram_svg(again.quantities) == render_diagram_svg(report.quantities)

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
            (
                lambda text: '"log_base": 2'.join(text.rsplit('"log_base": "2"', 1)),
                "quantities.log_base has the wrong type: 2",
            ),
            (lambda text: text.replace('"T": ', '"T": "x", "_": ', 1), "is not a finite number"),
            (lambda text: '"log_base": "7"'.join(text.rsplit('"log_base": "2"', 1)), "log base"),
            *[
                (
                    lambda text, p=place, g=given: edited(text, lambda doc: doc[p].update(log_base=g)),
                    f"error: report: {place}.log_base must be {token!r}, got {given!r}",
                )
                for place in ("config", "quantities")
                for given, token in (("2.0", "2"), (" 2", "2"), ("E", "e"))
            ],
            (
                lambda text: edited(text, lambda doc: doc["quantities"].update(log_base="e")),
                "error: report: quantities.log_base must be config.log_base '2', got 'e'",
            ),
            (lambda text: b"\xff" + text.encode(), "invalid JSON"),
            (lambda text: "[" * 100000, "invalid JSON"),
            (lambda text: without(text, "regions", "V;T;S"), "quantities.regions is missing"),
            (lambda text: without(text, "cond", "V|S"), "quantities.cond is missing"),
            (lambda text: text.replace('"T": ', '"T": 1' + "0" * 400 + ', "_": ', 1), "finite"),
            (lambda text: text.replace('"T": ', '"T": NaN, "_": ', 1), "not a finite number"),
            (lambda text: text.replace('"T": ', '"T": null, "_": ', 1), "H.T is not a finite number"),
            (lambda text: text.replace('"V;T;S": ', '"V;T;S": -Infinity, "_": ', 1), "finite"),
            (lambda text: text.replace('"pcg64"', '"mt19937"'), "rng must be 'pcg64', got 'mt19937'"),
            (lambda text: text.replace('"rng": "pcg64",', ""), "report is missing 'rng'"),
            (lambda text: text.replace('"rng": ', '"note": 1, "rng": '), "unknown key 'note'"),
            (lambda text: text.replace('"seed": ', '"sed": 0, "seed": '), "config: unknown key 'sed'"),
            (
                lambda text: text.replace('"kind": ', '"kinds": 1, "kind": ', 1),
                "streams[0]: unknown key 'kinds'",
            ),
            (lambda text: stream_edited(text, 1, L="x"), "streams[1].L has the wrong type: 'x'"),
            (lambda text: stream_edited(text, 2, L=None), "streams[2] is missing 'L'"),
            (
                lambda text: text.replace('"distinct": ', '"d": null, "distinct": ', 1),
                "streams[0].d has the wrong type: None",
            ),
            (lambda text: "[1, 2]", "error: report must be an object"),
            (lambda text: edited(text, lambda doc: doc.update(config=[1])), "config must be an object"),
            (
                lambda text: edited(text, lambda doc: doc["streams"].__setitem__(0, "v")),
                "streams[0] must be an object",
            ),
            (
                lambda text: edited(text, lambda doc: doc.update(streams={"v": 1})),
                "report: streams must be a tuple or list, got dict",
            ),
            (
                lambda text: edited(text, lambda doc: doc["quantities"].update(H=1.0)),
                "report: quantities.H must be an object",
            ),
            (lambda text: edited(text, lambda doc: doc.update(rng=5)), "rng must be 'pcg64', got 5"),
            (lambda text: text.replace('"seed": ', '"seed": 1, "seed": '), "repeated key 'seed'"),
            (lambda text: text.replace('"T": ', '"T": 0.5, "T": ', 1), "repeated key 'T'"),
            (lambda text: text.replace('"T": ', '"X": 0.5, "T": ', 1), "quantities.H: unknown key 'X'"),
            (lambda text: text.replace('"I3": ', '"extra": 1, "I3": '), "quantities: unknown key 'extra'"),
            (
                lambda text: text.replace('"V;T;S": ', '"bogus": 0, "V;T;S": '),
                "quantities.regions: unknown key 'bogus'",
            ),
            (
                lambda text: edited(text, lambda doc: doc["quantities"].pop("I3")),
                "quantities: unknown key 'regions'",
            ),
            (
                lambda text: edited(
                    text, lambda doc: [doc["quantities"].pop(k) for k in ("I3", "regions")]
                ),
                "quantities.H: unknown key 'V'",
            ),
            (lambda text: text.replace('"role": "V"', '"role": "Q"'), "got ['Q', 'T', 'S']"),
            (lambda text: text.replace('"role": "V"', '"role": "T"'), "got ['T', 'T', 'S']"),
            (lambda text: edited(text, lambda doc: doc["streams"].pop()), "got ['V', 'T']"),
            (lambda text: edited(text, lambda doc: doc["streams"].clear()), "streams need the roles"),
            (lambda text: stream_edited(text, 0, kind="video"), "streams[0].kind must be"),
            (lambda text: stream_edited(text, 1, name="v"), "streams[1].name must be"),
            (lambda text: stream_edited(text, 1, name=""), "streams[1].name must be"),
            (lambda text: stream_edited(text, 0, L=-5), "streams[0].L must be >= 1"),
            (lambda text: stream_edited(text, 1, L=8), "streams[1].L must be >= 1 and the same"),
            (lambda text: stream_edited(text, 0, distinct=0), "streams[0].distinct must be in 1..L"),
            (lambda text: stream_edited(text, 0, distinct=5), "streams[0].distinct must be in 1..L"),
            (lambda text: stream_edited(text, 0, codebook_sha256="zz"), "streams[0].codebook_sha256"),
            (lambda text: stream_edited(text, 0, d=1), "streams[0].d must be absent"),
            (lambda text: stream_edited(text, 0, k=2), "streams[0].k must be absent"),
            (lambda text: stream_edited(text, 0, **{**FITTED, "d": None}), "streams[0].d must be"),
            (lambda text: stream_edited(text, 0, **{**FITTED, "d": 0}), "streams[0].d must be"),
            (lambda text: stream_edited(text, 0, **{**FITTED, "k": None}), "streams[0].k must be"),
            (lambda text: stream_edited(text, 0, **{**FITTED, "k": 1}), "streams[0].k must be"),
            (
                lambda text: stream_edited(text, 0, **{**FITTED, "codebook_sha256": None}),
                "streams[0].codebook_sha256 must be 64 lowercase hex digits",
            ),
            (
                lambda text: stream_edited(text, 0, **{**FITTED, "codebook_sha256": "A" * 64}),
                "streams[0].codebook_sha256 must be 64 lowercase hex digits",
            ),
        ],
        ids=[
            "invalid-json", "missing-key", "bool-as-string", "base-as-number",
            "quantities-base-as-number", "entropy-as-string",
            "unknown-quantities-base",
            *[f"{place}-base-{name}" for place in ("config", "quantities")
              for name in ("2.0", "space-2", "E")],
            "quantities-base-unlike-config", "not-utf8", "deeply-nested", "missing-region",
            "missing-cond", "huge-int", "nan-quantity", "null-quantity", "infinite-region",
            "foreign-rng", "no-rng",
            "unknown-top-key", "unknown-config-key", "unknown-stream-key", "stream-L-as-string",
            "stream-without-L", "null-in-stream", "report-not-an-object", "config-not-an-object",
            "stream-not-an-object", "streams-not-a-list", "group-not-an-object", "rng-not-a-string",
            "repeated-config-key",
            "repeated-quantity-key", "unknown-entropy-key", "unknown-quantities-key",
            "unknown-region", "regions-without-I3", "three-way-field-without-I3", "edited-role",
            "duplicate-role", "missing-stream", "no-streams", "unknown-kind", "repeated-name",
            "empty-name", "negative-L", "unequal-L", "no-distinct-cells", "more-cells-than-frames",
            "labels-with-codebook", "labels-with-d", "labels-with-k", "features-without-d",
            "features-with-d-0", "features-without-k", "features-k-below-distinct",
            "features-without-codebook", "features-uppercase-codebook",
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
        """analyze, sweep and a re-rendered table keep their bytes in fresh
        processes with no thread variable (the command's one-thread default),
        under OPENBLAS_NUM_THREADS=1 and under 2."""
        big = tmp_path / "big"
        assert main(["synth", "blobs", "--out-dir", str(big), "--centers", "6", "--dims", "16",
                     "--n-per-center", "400", "--seed", "2"]) == 0
        commands = {
            "small.json": ["analyze", str(blobs_dir / "manifest.json"), "--seed", "5"],
            "analyze.json": ["analyze", str(big / "manifest.json"), "--clusters", "64", "--seed", "4"],
            "sweep.json": ["sweep", str(big / "manifest.json"), "--ks", "3,6", "--seed", "4",
                           "--format", "json"],
            "report.txt": ["report", "{out}/analyze.json", "--format", "table"],
        }
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads-{threads}"
            out.mkdir()
            for name, argv in commands.items():
                argv = [arg.format(out=out) for arg in argv]
                run_cli_process([*argv, "--out", str(out / name)], threads)
            outputs.append({name: (out / name).read_bytes() for name in commands})
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


# A blobs shape within every synth rule whose centres (2 PiB of float64)
# numpy refuses to allocate before it touches any memory.
PIB_SHAPE = ["--centers", str(2**20), "--dims", str(2**28), "--n-per-center", "1"]
U32 = "a u32 count of LBL1 and FMX1"


class TestSynth:
    def test_xor_dataset_shape(self, xor_dir):
        doc = json.loads((xor_dir / "manifest.json").read_text())
        assert [s["name"] for s in doc["streams"]] == ["v", "t", "s"]
        labels = read_labels(xor_dir / "v.lbl")
        assert labels.rows == 4

    def test_a_line_break_in_the_out_dir_keeps_one_stdout_line(self, tmp_path, capsys):
        out = tmp_path / "o\nd"
        code, stdout, err = run(capsys, "synth", "xor", "--out-dir", str(out))
        assert code == 0 and err == ""
        assert stdout.count("\n") == 1
        assert stdout == f"wrote {str(out / 'manifest.json')!r}\n"

    def test_blobs_dataset_analyzable(self, blobs_dir, capsys):
        code, out, _ = run(
            capsys, "analyze", str(blobs_dir / "manifest.json"), "--format", "table"
        )
        assert code == 0
        # perfect separation: I(T;S) == H(T) == log2(3)
        row = out.strip().split("\n")[1].split()
        assert row[0] == row[2] == "1.5850"

    def test_out_of_memory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "big"
        code, stdout, err = run(capsys, "synth", "blobs", *PIB_SHAPE, "--out-dir", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: Unable to allocate") and "PiB" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["xor", "--copies", "0"], "copies must be >= 1, got 0"),
            (["xor", "--copies", str(10**15)],
             f"4 x --copies must be <= 4294967295, {U32}, got 4000000000000000"),
            (["xor", "--copies", str(2**62)],
             f"4 x --copies must be <= 4294967295, {U32}, got {2**64}"),
            (["blobs", "--dims", str(10**15)], f"--dims must be <= 4294967295, {U32}, got {10**15}"),
            (["blobs", "--dims", str(2**62)], f"--dims must be <= 4294967295, {U32}, got {2**62}"),
            (["blobs", "--centers", str(2**70)],
             f"--centers x --n-per-center must be <= 4294967295, {U32}, got {1000 * 2**70}"),
            (["blobs", "--centers", str(2**70), "--n-per-center", "0"],
             f"--centers x --n-per-center must be <= 4294967295, {U32}, got {2**70}"),
            (["blobs", "--n-per-center", str(2**62)],
             f"--centers x --n-per-center must be <= 4294967295, {U32}, got {3 * 2**62}"),
            (["blobs", "--centers", str(2**31), "--dims", str(2**31), "--n-per-center", "1"],
             f"rows x --dims must be <= {2**60 - 1}, the float64 values one numpy array holds, "
             f"got {2**62}"),
            (["blobs", "--centers", "3", "--spacing", "1e308"],
             "--spacing x (--centers - 1) must be finite, got inf"),
            (["blobs", "--stddev", "1e308"], "non-finite feature value at row 0, col 0"),
        ],
        ids=[
            "xor-copies-0", "xor-copies-1e15", "xor-copies-2-62", "blobs-dims-1e15",
            "blobs-dims-2-62", "blobs-centers-2-70", "blobs-centers-2-70-n-per-center-0",
            "blobs-n-per-center-2-62",
            "blobs-rows-times-dims", "blobs-spacing-1e308", "blobs-stddev-1e308",
        ],
    )
    def test_synth_size_or_scale_past_its_limit_exit_1(self, tmp_path, capsys, argv, message):
        """A size the file formats or one numpy array cannot hold, or a scale
        that overflows, is refused in one line before the directory is made."""
        out = tmp_path / "big"
        code, stdout, err = run(capsys, "synth", *argv, "--out-dir", str(out))
        assert code == 1
        assert stdout == ""
        assert err == f"error: {message}\n"
        assert not out.exists()

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
        code, stdout, err = run(capsys, "synth", "blobs", *PIB_SHAPE, "--out-dir", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")
        assert not out.exists()


def test_cli_builds_no_json_text():
    """``report`` writes report and sweep JSON and ``Manifest.to_json`` a synth
    manifest; ``cli`` only emits their text and imports no json."""
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "json" not in modules


class TestEntryPoint:
    """``main()`` reading ``sys.argv`` is the process entry point and freezes
    the import-time objects; ``main(argv)`` in a process leaves gc alone."""

    def test_only_main_without_argv_freezes(self, xor_dir, capsys, monkeypatch):
        argv = ["analyze", str(xor_dir / "manifest.json"), "--format", "table"]
        freezes = []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
        monkeypatch.setattr(sys, "argv", ["modmi", *argv])
        assert main() == 0
        assert freezes == [1]
        assert main(argv) == 0
        assert freezes == [1]

    def test_main_with_argv_leaves_the_collector_as_it_was(self, xor_dir, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["analyze", str(xor_dir / "manifest.json"), "--format", "table"]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", "{xor}/manifest.json", "--format", "table"], 0),
            (["analyze", "{xor}/manifest.json", "--clusters", "many"], 2),
            (["analyze", "{xor}/manifest.json", "--format", "table"], 1),
        ],
        ids=["table-to-stdout", "usage-error", "data-error"],
    )
    def test_the_process_writes_and_exits_as_main_does(self, xor_dir, capsys, argv, code):
        """A frozen ``python -m modmi.cli`` still flushes its output and
        reports its exit code: bytes, messages and codes match ``main(argv)``."""
        if code == 1:
            (xor_dir / "t.lbl").write_bytes(b"LBL1")  # truncated header
        argv = [a.format(xor=xor_dir) for a in argv]
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)  # the table reaches the pipe only if exit flushes it
        done = subprocess.run(
            [sys.executable, "-m", "modmi.cli", *argv], capture_output=True, env=env
        )
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        captured = capsys.readouterr()
        assert (done.returncode, got) == (code, code)
        assert (captured.out if code == 0 else captured.err) != ""
        assert done.stdout == captured.out.encode()
        assert done.stderr.decode() == captured.err
