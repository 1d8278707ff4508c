import ast
import inspect
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from modmi import pipeline, quantizer
from modmi.errors import AlignmentError, DataError, FormatError, InfeasibleError
from modmi.infotheory import info_diagram
from modmi.ingestion import (
    FeatureMatrix,
    LabelSequence,
    Manifest,
    StreamSpec,
    load_manifest,
    resample_nearest,
    write_feature_matrix,
    write_labels,
)
from modmi.pipeline import analyze, sweep_clusters
from modmi.quantizer import assign, fit
from modmi.report import ROLES, AnalysisConfig, InfoQuantities, InfoReport
from modmi.synthetic import exhaustive_stream, gen_gaussian_mixture, xor_pmf
from util import features, repair_every_pass_matrix, seq


def write_manifest(tmp_path, streams, target_rate=25.0, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"target_rate_hz": target_rate, "streams": streams}))
    return path


@pytest.fixture
def blob_manifest(tmp_path):
    """Two continuous streams plus component labels, all synchronized."""
    centers_a = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
    centers_b = np.array([[5.0] * 2, [-5.0] * 2, [15.0] * 2])
    feats_a, truth = gen_gaussian_mixture(centers_a, 1.0, 120, seed=1)
    feats_b, _ = gen_gaussian_mixture(centers_b, 1.0, 120, seed=2)
    write_feature_matrix(feats_a, tmp_path / "a.fmx")
    write_feature_matrix(feats_b, tmp_path / "b.fmx")
    write_labels(truth, tmp_path / "t.lbl")
    return write_manifest(
        tmp_path,
        [
            {"name": "a", "path": "a.fmx", "kind": "features", "sample_rate_hz": 25.0},
            {"name": "b", "path": "b.fmx", "kind": "features", "sample_rate_hz": 25.0},
            {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
        ],
    )


@pytest.fixture
def xor_manifest(tmp_path):
    streams = exhaustive_stream(xor_pmf(), copies=3, tags=["v", "t", "s"])
    entries = []
    for stream in streams:
        write_labels(stream, tmp_path / f"{stream.modality_tag}.lbl")
        entries.append(
            {
                "name": stream.modality_tag,
                "path": f"{stream.modality_tag}.lbl",
                "kind": "labels",
                "sample_rate_hz": 25.0,
            }
        )
    return write_manifest(tmp_path, entries)


class TestAnalyze:
    def test_composition_identity(self, blob_manifest):
        config = AnalysisConfig(clusters=4, seed=1)
        report = analyze(blob_manifest, config)

        # replicate the pipeline by hand: load, resample, quantize, measure
        manifest = load_manifest(blob_manifest)
        loaded = [
            resample_nearest(manifest.load_stream(s), manifest.target_rate_hz)
            for s in manifest.streams
        ]
        discretized = []
        for position, stream in enumerate(loaded):
            if manifest.streams[position].kind == "features":
                cb = fit(stream, 4, seed=1 + position, tol=config.tol, max_iter=config.max_iter)
                discretized.append(assign(cb, stream))
            else:
                discretized.append(stream)
        # roles: one labels stream -> T; features fill (S, V) in manifest order
        expected = info_diagram(discretized[1], discretized[2], discretized[0], base="2")
        assert report.quantities == expected

    def test_roles_single_labels_stream(self, blob_manifest):
        report = analyze(blob_manifest, AnalysisConfig(clusters=3, seed=0))
        roles = {s.name: s.role for s in report.streams}
        assert roles == {"a": "S", "b": "V", "t": "T"}

    def test_roles_by_explicit_names(self, xor_manifest):
        report = analyze(xor_manifest, AnalysisConfig())
        roles = {s.name: s.role for s in report.streams}
        assert roles == {"v": "V", "t": "T", "s": "S"}

    def test_xor_triple_synergy(self, xor_manifest):
        report = analyze(xor_manifest, AnalysisConfig())
        assert report.quantities.i_vts == pytest.approx(-1.0, abs=1e-12)
        assert report.quantities.i_ts == 0.0

    def test_two_stream_report_has_no_trivariate_fields(self, tmp_path):
        write_labels(seq([0, 1, 0, 1]), tmp_path / "x.lbl")
        write_labels(seq([0, 0, 1, 1]), tmp_path / "y.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "x", "path": "x.lbl", "kind": "labels", "sample_rate_hz": 25.0},
                {"name": "y", "path": "y.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        report = analyze(manifest, AnalysisConfig())
        assert report.quantities.arity == 2
        doc = report.to_json_dict()
        assert "I3" not in doc["quantities"] and "regions" not in doc["quantities"]

    def test_deterministic_reports(self, blob_manifest):
        config = AnalysisConfig(clusters=5, seed=3)
        assert analyze(blob_manifest, config).to_json() == analyze(blob_manifest, config).to_json()

    def test_quantized_entropy_bounded_by_log_k(self, blob_manifest):
        report = analyze(blob_manifest, AnalysisConfig(clusters=5, seed=0))
        assert report.quantities.h_s <= np.log2(5) + 1e-12
        assert report.quantities.h_v <= np.log2(5) + 1e-12

    def test_stream_metadata(self, blob_manifest):
        report = analyze(blob_manifest, AnalysisConfig(clusters=3, seed=0))
        by_name = {s.name: s for s in report.streams}
        assert by_name["a"].dims == 3 and by_name["a"].clusters == 3
        assert by_name["a"].codebook_sha256 is not None
        assert by_name["t"].clusters is None and by_name["t"].codebook_sha256 is None
        assert by_name["t"].rows == 360

    def test_distinct_counts_symbols_near_the_u32_limit(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(3))
        entries, expected = [], []
        for name in ("t", "s"):
            symbols = 2**32 - 2 - rng.integers(0, 40, size=500)
            write_labels(LabelSequence(symbols, 2**32 - 1, 25.0), tmp_path / f"{name}.lbl")
            entries.append(
                {"name": name, "path": f"{name}.lbl", "kind": "labels", "sample_rate_hz": 25.0}
            )
            expected.append(len(set(symbols.tolist())))
        report = analyze(write_manifest(tmp_path, entries))
        assert [s.distinct for s in report.streams] == expected

    def test_errors_carry_stream_name(self, tmp_path):
        # 2 distinct rows cannot support 5 clusters
        write_feature_matrix(
            features([[0.0], [1.0], [0.0], [1.0]]), tmp_path / "tiny.fmx"
        )
        write_labels(seq([0, 1, 0, 1]), tmp_path / "t.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "tiny", "path": "tiny.fmx", "kind": "features", "sample_rate_hz": 25.0},
                {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        with pytest.raises(InfeasibleError, match="stream 'tiny'"):
            analyze(manifest, AnalysisConfig(clusters=5))

    @pytest.mark.parametrize("seed", [-1, 2**64 - 2, pytest.param(10**5000, id="5001-digits")])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(DataError, match=r"seed must be in \[0, 2\*\*64 - 3\]"):
            AnalysisConfig(seed=seed)

    def test_largest_seed_fits_every_stream(self, blob_manifest):
        report = analyze(blob_manifest, AnalysisConfig(clusters=3, seed=2**64 - 3))
        assert report.config.seed == 2**64 - 3

    def test_mixed_rates_align(self, tmp_path):
        write_labels(seq(np.arange(200) % 3, 3), tmp_path / "fast.lbl")
        write_labels(seq(np.arange(100) % 3, 3), tmp_path / "slow.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "fast", "path": "fast.lbl", "kind": "labels", "sample_rate_hz": 50.0},
                {"name": "slow", "path": "slow.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        report = analyze(manifest, AnalysisConfig())
        assert all(s.rows == 100 for s in report.streams)

    @pytest.mark.parametrize("short_rows, refused", [(50, False), (49, True)])
    def test_alignment_keeps_at_least_half_of_each_stream(self, tmp_path, short_rows, refused):
        write_labels(seq(np.arange(100) % 3, 3), tmp_path / "long.lbl")
        write_labels(seq(np.arange(short_rows) % 3, 3), tmp_path / "short.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "long", "path": "long.lbl", "kind": "labels", "sample_rate_hz": 25.0},
                {"name": "short", "path": "short.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        if refused:
            with pytest.raises(AlignmentError, match="stream 'long': .* keep 49 of its 100"):
                analyze(manifest, AnalysisConfig())
        else:
            assert all(s.rows == 50 for s in analyze(manifest, AnalysisConfig()).streams)

    def test_missing_stream_file_in_a_manifest_built_in_code(self, tmp_path):
        write_labels(seq(np.arange(100) % 3, 3), tmp_path / "t.lbl")
        missing = tmp_path / "absent.fmx"
        manifest = Manifest(25.0, (StreamSpec("s", missing, "features", 25.0),
                                   StreamSpec("t", tmp_path / "t.lbl", "labels", 25.0)))
        with pytest.raises(FormatError) as info:
            analyze(manifest, AnalysisConfig())
        assert str(info.value) == f"stream 's': cannot read {missing}: No such file or directory"

    def test_stream_count_bounds(self, tmp_path):
        write_labels(seq([0, 1]), tmp_path / "only.lbl")
        manifest = write_manifest(
            tmp_path,
            [{"name": "only", "path": "only.lbl", "kind": "labels", "sample_rate_hz": 25.0}],
        )
        with pytest.raises(DataError, match=">= 2"):
            analyze(manifest, AnalysisConfig())


def _count_assign_calls(monkeypatch) -> list[int]:
    calls = []
    original = quantizer.assign

    def counting(cb, x):
        calls.append(cb.k)
        return original(cb, x)

    monkeypatch.setattr(quantizer, "assign", counting)
    return calls


def _labels_from_assign(monkeypatch) -> None:
    """Make every fit carry assign's labels of its training data, the reference
    that fit's own labels must equal."""
    original = quantizer.fit

    def refit(x, *args, **kwargs):
        cb = original(x, *args, **kwargs)
        return replace(cb, labels=assign(cb, x).symbols)

    monkeypatch.setattr(quantizer, "fit", refit)


class TestLabelReuse:
    @pytest.mark.parametrize("normalize", [False, True])
    def test_fit_labels_replace_assign(self, blob_manifest, monkeypatch, normalize):
        config = AnalysisConfig(clusters=4, seed=2, normalize=normalize)
        calls = _count_assign_calls(monkeypatch)
        reused = analyze(blob_manifest, config).to_json()
        assert calls == []
        _labels_from_assign(monkeypatch)
        assert analyze(blob_manifest, config).to_json() == reused

    def test_repaired_last_pass_needs_no_assign(self, tmp_path, monkeypatch):
        write_feature_matrix(repair_every_pass_matrix(), tmp_path / "s.fmx")
        write_labels(seq([0, 1, 1, 2]), tmp_path / "t.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "s", "path": "s.fmx", "kind": "features", "sample_rate_hz": 25.0},
                {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        config = AnalysisConfig(clusters=4, normalize=True, max_iter=1)
        calls = _count_assign_calls(monkeypatch)
        report = analyze(manifest, config).to_json()
        assert calls == []
        # The repaired labels would use all four clusters; the final centroids' use three.
        assert json.loads(report)["streams"][0]["distinct"] == 3
        _labels_from_assign(monkeypatch)
        assert analyze(manifest, config).to_json() == report


class TestSweep:
    def test_discrete_entropy_constant_across_ks(self, blob_manifest):
        reports = sweep_clusters(blob_manifest, AnalysisConfig(seed=1), [2, 3, 5])
        h_t = {r.quantities.h_t for r in reports}
        assert len(h_t) == 1

    def test_single_k_equals_analyze(self, blob_manifest):
        config = AnalysisConfig(seed=2)
        [report] = sweep_clusters(blob_manifest, config, [4])
        direct = analyze(blob_manifest, AnalysisConfig(seed=2, clusters=4))
        assert report.to_json() == direct.to_json()

    def test_each_k_equals_analyze_and_loads_once(self, blob_manifest, monkeypatch):
        config = AnalysisConfig(seed=3)
        directs = [analyze(blob_manifest, replace(config, clusters=k)).to_json() for k in (2, 5)]
        loads = []
        original = Manifest.load_stream

        def counting(self, spec):
            loads.append(spec.name)
            return original(self, spec)

        monkeypatch.setattr(Manifest, "load_stream", counting)
        reports = sweep_clusters(blob_manifest, config, [2, 5])
        assert [r.to_json() for r in reports] == directs
        assert loads == ["a", "b", "t"]

    def test_sweep_overrides_manifest_clusters(self, tmp_path):
        centers = np.array([[0.0], [20.0], [40.0], [60.0]])
        feats, truth = gen_gaussian_mixture(centers, 0.5, 50, seed=3)
        write_feature_matrix(feats, tmp_path / "s.fmx")
        write_labels(truth, tmp_path / "t.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {
                    "name": "s",
                    "path": "s.fmx",
                    "kind": "features",
                    "sample_rate_hz": 25.0,
                    "clusters": 2,
                },
                {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        [report] = sweep_clusters(manifest, AnalysisConfig(seed=0), [4])
        assert next(s for s in report.streams if s.name == "s").clusters == 4

    def test_empty_ks_rejected(self, blob_manifest):
        with pytest.raises(DataError, match="non-empty"):
            sweep_clusters(blob_manifest, AnalysisConfig(), [])

    def test_rising_entropy_on_gaussian(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(123))
        feats = features(rng.standard_normal((2000, 4)))
        write_feature_matrix(feats, tmp_path / "s.fmx")
        write_labels(seq(rng.integers(0, 16, size=2000), 16), tmp_path / "t.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "s", "path": "s.fmx", "kind": "features", "sample_rate_hz": 25.0},
                {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            ],
        )
        reports = sweep_clusters(manifest, AnalysisConfig(seed=0), [10, 50, 100])
        h_s = [r.quantities.h_s for r in reports]
        assert h_s == sorted(h_s)


def _manifest_with_rates(tmp_path, target, stream):
    write_labels(seq([0, 1, 0, 1]), tmp_path / "t.lbl")
    entry = {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": stream}
    return load_manifest(write_manifest(tmp_path, [entry, dict(entry, name="s")], target))


def _report_with_target_rate(tmp_path, rate):
    write_labels(seq([0, 1, 0, 1]), tmp_path / "t.lbl")
    entry = {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0}
    text = analyze(write_manifest(tmp_path, [entry, dict(entry, name="s")])).to_json()
    return InfoReport.from_json(
        text.replace('"target_rate_hz": 25.0', f'"target_rate_hz": {json.dumps(rate)}')
    )


# Every place a rate enters: entry point -> (call with the rate, error class).
RATE_ENTRY_POINTS = {
    "features": (lambda tmp, rate: FeatureMatrix(np.zeros((2, 2)), rate), DataError),
    "labels": (lambda tmp, rate: LabelSequence(np.zeros(2), 1, rate), DataError),
    "resample": (lambda tmp, rate: resample_nearest(seq([0, 1]), rate), DataError),
    "config": (lambda tmp, rate: AnalysisConfig(target_rate_hz=rate), DataError),
    "manifest-target": (lambda tmp, rate: _manifest_with_rates(tmp, rate, 25.0), FormatError),
    "manifest-stream": (lambda tmp, rate: _manifest_with_rates(tmp, 25.0, rate), FormatError),
    "report-config": (_report_with_target_rate, FormatError),
}
BAD_RATES = {"bool": True, "str": "25", "401-digits": 10**400}


@pytest.mark.parametrize(
    "entry, rate",
    [
        ("features", float("inf")),
        ("labels", float("nan")),
        ("resample", float("inf")),
        ("config", float("inf")),
        ("manifest-target", float("inf")),
        ("manifest-stream", float("inf")),
        ("manifest-stream", float("nan")),
        ("report-config", float("inf")),
        ("features", np.bool_(True)),
    ]
    + [(entry, rate) for entry in RATE_ENTRY_POINTS for rate in BAD_RATES.values()],
    ids=[
        "features", "labels", "resample", "config", "manifest-target", "manifest-stream",
        "manifest-stream-nan", "report-config", "features-numpy-bool",
    ]
    + [f"{entry}-{name}" for entry in RATE_ENTRY_POINTS for name in BAD_RATES],
)
def test_non_finite_rates_rejected(tmp_path, entry, rate):
    build, error = RATE_ENTRY_POINTS[entry]
    with pytest.raises(error, match="finite"):
        build(tmp_path, rate)


@pytest.mark.parametrize("rate", [np.float32(25), np.int64(25)], ids=["float32", "int64"])
def test_numpy_rates_accepted_everywhere(tmp_path, rate):
    """The rate rule takes numpy reals and stores them as Python floats."""
    streams = [
        FeatureMatrix(np.zeros((2, 2)), rate),
        LabelSequence(np.zeros(2), 1, rate),
        resample_nearest(seq([0, 1]), rate),
    ]
    for stream in streams:
        assert type(stream.sample_rate_hz) is float and stream.sample_rate_hz == 25.0
    assert AnalysisConfig(target_rate_hz=rate).target_rate_hz == 25.0
    assert fit(features([[0.0], [1.0]]), 1, tol=rate).k == 1


def _report_with_config(tmp_path, key, value):
    write_labels(seq([0, 1, 0, 1]), tmp_path / "t.lbl")
    entry = {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0}
    doc = analyze(write_manifest(tmp_path, [entry, dict(entry, name="s")])).to_json_dict()
    text = json.dumps(dict(doc, config=dict(doc["config"], **{key: "@"})))
    return InfoReport.from_json(text.replace('"@"', value))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda tmp: AnalysisConfig(tol=float("nan")), DataError, "tol must be finite"),
        (lambda tmp: AnalysisConfig(tol=float("inf")), DataError, "tol must be finite"),
        (lambda tmp: AnalysisConfig(tol=0.0), DataError, "tol must be finite and > 0"),
        (lambda tmp: AnalysisConfig(max_iter=0), DataError, "max_iter must be >= 1"),
        (lambda tmp: fit(features([[0.0], [1.0]]), 1, tol=float("nan")), DataError, "tol"),
        (lambda tmp: fit(features([[0.0], [1.0]]), 1, tol=float("inf")), DataError, "tol"),
        (lambda tmp: fit(features([[0.0], [1.0]]), 1, tol=True), DataError, "tol must be finite"),
        (lambda tmp: fit(features([[0.0], [1.0]]), 1, tol="1"), DataError, "tol must be finite"),
        (lambda tmp: fit(features([[0.0], [1.0]]), 1, tol=10**400), DataError, "tol"),
        (
            lambda tmp: fit(features([[0.0], [1.0]]), 1, normalize="no"),
            DataError,
            "normalize must be a bool",
        ),
        (lambda tmp: _report_with_config(tmp, "tol", "NaN"), FormatError, "tol must be finite"),
        (lambda tmp: _report_with_config(tmp, "tol", "Infinity"), FormatError, "tol"),
        (lambda tmp: _report_with_config(tmp, "max_iter", "0"), FormatError, "max_iter"),
    ],
    ids=[
        "config-tol-nan", "config-tol-inf", "config-tol-0", "config-max-iter-0", "fit-tol-nan",
        "fit-tol-inf", "fit-tol-bool", "fit-tol-str", "fit-tol-401-digits", "fit-normalize-str",
        "report-tol-nan", "report-tol-inf", "report-max-iter-0",
    ],
)
def test_bad_stopping_rule_rejected(tmp_path, build, error, match):
    with pytest.raises(error, match=match):
        build(tmp_path)


def test_fit_keyword_defaults_equal_analysis_config():
    """Every keyword default of quantizer.fit is the AnalysisConfig field default
    of the same name, which ``fit``'s signature reads."""
    params = inspect.signature(quantizer.fit).parameters
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults.keys() == {"seed", "tol", "max_iter", "normalize"}
    assert defaults == {f.name: f.default for f in fields(AnalysisConfig) if f.name in defaults}


def test_pipeline_restates_no_ingestion_rule():
    """``Manifest.load_stream`` turns an unreadable file into FormatError and
    ``align`` refuses a lossy truncation; ``pipeline`` handles no OSError, counts
    no frames and takes its stream-count bounds from ``report.ROLES``."""
    tree = ast.parse(Path(pipeline.__file__).read_text())
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert all(h.type and "OSError" not in ast.unparse(h.type) for h in handlers)
    called = {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    assert not {name for name in called if name.split(".")[-1] == "resampled_rows"}
    numbers = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not numbers & set(ROLES)


class TestReportSerialization:
    def test_json_round_trip(self, blob_manifest):
        report = analyze(blob_manifest, AnalysisConfig(clusters=3, seed=5, log_base="e"))
        text = report.to_json()
        again = InfoReport.from_json(text)
        assert again.to_json() == text
        assert again.config == report.config

    def test_schema_shape(self, blob_manifest):
        doc = analyze(blob_manifest, AnalysisConfig(clusters=3)).to_json_dict()
        assert set(doc) == {"config", "rng", "streams", "quantities"}
        assert doc["rng"] == "pcg64"
        q = doc["quantities"]
        assert set(q["H"]) == {"T", "S", "V"}
        assert set(q["I2"]) == {"T,V", "T,S", "V,S"}
        assert set(q["cond"]) == {"S|T", "V|T", "T|S", "T|V", "V|S", "S|V"}
        assert set(q["regions"]) == {
            "V|T,S", "T|V,S", "S|V,T", "V;T|S", "T;S|V", "V;S|T", "V;T;S",
        }
        assert q["log_base"] == "2"
        feature_keys = {"name", "role", "kind", "L", "d", "k", "distinct", "codebook_sha256"}
        label_keys = {"name", "role", "kind", "L", "distinct"}
        assert [set(s) for s in doc["streams"]] == [feature_keys, feature_keys, label_keys]

        entries = json.loads(blob_manifest.read_text())["streams"]
        two = write_manifest(blob_manifest.parent, [entries[0], entries[2]], name="two.json")
        doc = analyze(two, AnalysisConfig(clusters=3)).to_json_dict()
        q = doc["quantities"]
        assert set(q) == {"H", "I2", "cond", "log_base"}
        assert set(q["H"]) == {"T", "S"}
        assert set(q["I2"]) == {"T,S"}
        assert set(q["cond"]) == {"S|T", "T|S"}
        assert [set(s) for s in doc["streams"]] == [feature_keys, label_keys]

    def test_config_rate_defaults_to_manifest(self, tmp_path):
        write_labels(seq([0, 1] * 10), tmp_path / "x.lbl")
        write_labels(seq([0, 1] * 10), tmp_path / "y.lbl")
        manifest = write_manifest(
            tmp_path,
            [
                {"name": "x", "path": "x.lbl", "kind": "labels", "sample_rate_hz": 50.0},
                {"name": "y", "path": "y.lbl", "kind": "labels", "sample_rate_hz": 50.0},
            ],
            target_rate=10.0,
        )
        report = analyze(manifest)
        assert report.config.target_rate_hz == 10.0
        assert all(s.rows == 4 for s in report.streams)  # 20 frames at 50 Hz -> 10 Hz


def _pair_with_h_v(report):
    q = report.quantities
    pair = {name: getattr(q, name) for name in ("h_t", "h_s", "i_ts", "h_s_given_t", "h_t_given_s")}
    return InfoQuantities(log_base="2", h_v=1.0, **pair)


# A change to the xor report -> the DataError message it raises.  Each breaks a
# rule from_json enforces, so a report built in code cannot be one that
# from_json refuses or that a renderer mis-draws.
REPORT_BREACHES = {
    "no-streams": (
        lambda r: replace(r, streams=()),
        "streams need the roles ['V', 'T', 'S'], one each, got []",
    ),
    "nan-quantity": (
        lambda r: replace(r.quantities, h_t=float("nan")),
        "quantities.H.T is not a finite number",
    ),
    "three-way-field-without-h_v": (
        lambda r: replace(r.quantities, h_v=None),
        "quantities need all of ['h_v', 'i_tv', 'i_vs', 'i_vts', 'h_v_given_t', 'h_t_given_v', "
        "'h_v_given_s', 'h_s_given_v', 'regions'] or none, got ['i_tv', 'i_vs', 'i_vts', "
        "'h_v_given_t', 'h_t_given_v', 'h_v_given_s', 'h_s_given_v', 'regions']",
    ),
    "pair-with-h_v": (_pair_with_h_v, "quantities need all of ['h_v', "),
    "unknown-region": (
        lambda r: replace(r.quantities, regions={**r.quantities.regions, "V;T": 0.0}),
        "quantities.regions must be a dict keyed by ['V|T,S', ",
    ),
    "infinite-region": (
        lambda r: replace(r.quantities, regions={**r.quantities.regions, "T;S|V": -math.inf}),
        "quantities.regions.T;S|V is not a finite number",
    ),
    "bool-quantity": (lambda r: replace(r.quantities, i_vts=True), "quantities.I3 is not a finite"),
    "huge-int-quantity": (
        lambda r: replace(r.quantities, h_s_given_v=10**400),
        "quantities.cond.S|V is not a finite number",
    ),
    "string-quantity": (lambda r: replace(r.quantities, i_tv="0"), "quantities.I2.T,V is not a"),
    "unknown-log-base": (
        lambda r: replace(r.quantities, log_base="3"),
        "quantities: log base must be one of 2, e, 10, got '3'",
    ),
    "repeated-name": (
        lambda r: replace(r, streams=(*r.streams[:2], replace(r.streams[2], name="v"))),
        "streams[2].name must be non-empty and unique, got 'v'",
    ),
    "labels-with-k": (
        lambda r: replace(r, streams=(replace(r.streams[0], clusters=2), *r.streams[1:])),
        "streams[0].k must be absent from a labels entry, got 2",
    ),
}


@pytest.mark.parametrize("breach", REPORT_BREACHES)
def test_report_types_refuse_what_from_json_refuses(xor_manifest, breach):
    change, message = REPORT_BREACHES[breach]
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        change(analyze(xor_manifest))


# A part of the xor report replaced by a value of another type -> the
# DataError message, in Manifest's words, raised before any attribute is read.
PART_BREACHES = {
    "dict-stream": (
        lambda r: replace(r, streams=(r.streams[0], {}, r.streams[2])),
        "streams[1] must be a StreamSummary, got dict",
    ),
    "str-quantities": (
        lambda r: replace(r, quantities="x"),
        "quantities must be an InfoQuantities, got str",
    ),
    "dict-config": (
        lambda r: replace(r, config={}),
        "config must be an AnalysisConfig, got dict",
    ),
    "none-streams": (
        lambda r: replace(r, streams=None),
        "streams must be a tuple or list, got NoneType",
    ),
}


@pytest.mark.parametrize("breach", PART_BREACHES)
def test_report_refuses_a_part_not_of_its_type(xor_manifest, breach):
    change, message = PART_BREACHES[breach]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        change(analyze(xor_manifest))


def test_report_stores_a_list_of_streams_as_a_tuple(xor_manifest):
    report = analyze(xor_manifest)
    again = replace(report, streams=list(report.streams))
    assert type(again.streams) is tuple and again == report


@pytest.mark.parametrize(
    "place", ["h_t", "i_vts", "regions"], ids=["field", "three-way-field", "region"]
)
@pytest.mark.parametrize(
    "value", [np.float32(0.5), np.int64(1), np.float64(0.5)], ids=["float32", "int64", "float64"]
)
def test_numpy_scalar_quantities_are_stored_as_python_numbers(xor_manifest, place, value):
    report = analyze(xor_manifest)
    q = report.quantities
    if place == "regions":
        q = replace(q, regions={**q.regions, "V;T;S": value})
        stored = q.regions["V;T;S"]
    else:
        q = replace(q, **{place: value})
        stored = getattr(q, place)
    assert type(stored) is type(value.item()) and stored == value
    text = replace(report, quantities=q).to_json()
    assert InfoReport.from_json(text).to_json() == text


def test_quantities_store_the_canonical_log_base(xor_manifest):
    quantities = analyze(xor_manifest).quantities
    assert replace(quantities, log_base=10).log_base == "10"
    assert replace(quantities, log_base=" E ").log_base == "e"


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", np.int64(3)),
        ("clusters", np.int32(3)),
        ("max_iter", np.uint16(5)),
        ("tol", np.float32(1e-3)),
        ("target_rate_hz", np.float64(12.5)),
        ("target_rate_hz", np.int64(25)),
        ("normalize", np.bool_(True)),
    ],
    ids=["seed", "clusters", "max-iter", "tol", "rate-float", "rate-int", "normalize"],
)
def test_numpy_scalar_config_round_trips_through_its_report(blob_manifest, field, value):
    config = AnalysisConfig(**{"clusters": 3, field: value})
    assert not isinstance(getattr(config, field), np.generic)
    assert getattr(config, field) == value
    report = analyze(blob_manifest, config)
    assert InfoReport.from_json(report.to_json()).config == report.config


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("clusters", True),
        ("clusters", 3.0),
        ("max_iter", 2.5),
        ("max_iter", np.float64(5)),
        ("tol", True),
        ("tol", "1e-3"),
        pytest.param("tol", 10**5000, id="tol-5001-digits"),
        ("target_rate_hz", True),
        ("target_rate_hz", 10**400),
        ("target_rate_hz", np.float64("inf")),
        ("normalize", 1),
        ("normalize", "yes"),
    ],
)
def test_config_rejects_bools_and_non_integers(field, value):
    with pytest.raises(DataError, match=f"^{field} must be"):
        AnalysisConfig(**{field: value})
