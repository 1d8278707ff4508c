"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from modmi.cli import main
from modmi.infotheory import (
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    info_diagram,
    multivariate_mi_recursive,
    mutual_information,
    pair_quantities,
    trivariate_mmi,
)
from modmi.ingestion import (
    read_feature_matrix,
    read_labels,
    write_feature_matrix,
    write_labels,
)
from modmi.pipeline import analyze
from modmi.quantizer import Codebook, assign, fit, load_codebook, save_codebook
from modmi.report import AnalysisConfig
from modmi.synthetic import (
    JointPmf,
    exhaustive_stream,
    gen_gaussian_mixture,
    oracle_quantities,
    random_pmf,
    sample_discrete,
    xor_pmf,
)
from util import features, random_streams, run_cli_process, seq

LN2 = math.log(2.0)


def _passed(n, text):
    print(f"PASS: criterion {n} - {text}")


@pytest.fixture(scope="module")
def pmf_suite():
    """200 random pmfs (arity 2-3, alphabets <= 5) with exhaustive streams."""
    rng = np.random.Generator(np.random.PCG64(2024))
    suite = []
    for i in range(200):
        arity = 2 if i % 2 == 0 else 3
        shape = tuple(int(rng.integers(2, 6)) for _ in range(arity))
        pmf = random_pmf(rng, shape)
        suite.append((pmf, exhaustive_stream(pmf)))
    return suite


def _quantity_pairs(est, orc):
    fields = ["h_t", "h_s", "i_ts", "h_s_given_t", "h_t_given_s"]
    if est.arity == 3:
        fields += [
            "h_v", "i_tv", "i_vs", "i_vts",
            "h_v_given_t", "h_t_given_v", "h_v_given_s", "h_s_given_v",
        ]
    pairs = [(getattr(est, f), getattr(orc, f)) for f in fields]
    if est.arity == 3:
        pairs += [(est.regions[k], orc.regions[k]) for k in est.regions]
    return pairs


def test_criterion_01_oracle_equivalence(pmf_suite):
    start = time.perf_counter()
    worst = 0.0
    for pmf, streams in pmf_suite:
        orc = oracle_quantities(pmf)
        if pmf.arity == 2:
            est = pair_quantities(streams[0], streams[1])
        else:
            est = info_diagram(streams[0], streams[1], streams[2])
        for got, want in _quantity_pairs(est, orc):
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst estimator-oracle gap {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _passed(1, f"oracle equivalence on 200 pmfs, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_mi_forms_and_mmi_equivalence(pmf_suite):
    worst_form = 0.0
    worst_mmi = 0.0
    for pmf, streams in pmf_suite:
        a, b = streams[0], streams[1]
        h_a = entropy([a])
        h_b = entropy([b])
        mi = mutual_information(a, b)
        worst_form = max(
            worst_form,
            abs(h_a - conditional_entropy(a, [b]) - mi),
            abs(h_b - conditional_entropy(b, [a]) - mi),
        )
        if pmf.arity == 3:
            v, t, s = streams
            worst_mmi = max(
                worst_mmi,
                abs(trivariate_mmi(v, t, s) - multivariate_mi_recursive([v, t, s])),
            )
    assert worst_form <= 1e-9, f"MI forms disagree by {worst_form}"
    assert worst_mmi <= 1e-9, f"inclusion-exclusion vs recursion disagree by {worst_mmi}"
    _passed(2, f"MI triple-form gap {worst_form:.2e}, MMI form gap {worst_mmi:.2e}")


def test_criterion_03_xor_triple():
    v, t, s = exhaustive_stream(xor_pmf())
    assert v.rows == 4
    assert multivariate_mi_recursive([v, t, s]) == -1.0
    assert trivariate_mmi(v, t, s) == pytest.approx(-1.0, abs=1e-12)
    assert mutual_information(v, t) == 0.0
    assert mutual_information(v, s) == 0.0
    assert mutual_information(t, s) == 0.0
    assert conditional_mutual_information([v, t], s) == 1.0
    assert conditional_mutual_information([v, s], t) == 1.0
    assert conditional_mutual_information([t, s], v) == 1.0
    _passed(3, "XOR triple: I3 = -1 bit, pairwise MIs 0, conditional MIs 1 bit")


def test_criterion_04_plugin_consistency():
    independent = JointPmf(np.full((2, 2), 0.25))
    a, b = sample_discrete(independent, 10**5, seed=77)
    mi_independent = mutual_information(a, b)
    assert abs(mi_independent) < 0.001

    correlated = JointPmf(np.array([[0.5, 0.0], [0.0, 0.5]]))
    c, d = sample_discrete(correlated, 10**5, seed=78)
    mi_correlated = mutual_information(c, d)
    assert abs(mi_correlated - 1.0) < 0.001
    _passed(
        4,
        f"plug-in consistency: independent |I|={mi_independent:.2e}, "
        f"correlated I={mi_correlated:.6f}",
    )


def test_criterion_05_end_to_end_blobs(tmp_path):
    # 3 blobs, separation 100 sigma, component ids as the discrete stream
    centers = np.zeros((3, 16))
    centers[:, 0] = [0.0, 100.0, 200.0]
    feats, truth = gen_gaussian_mixture(centers, 1.0, 1000, seed=31)
    write_feature_matrix(feats, tmp_path / "s.fmx")
    write_labels(truth, tmp_path / "t.lbl")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "target_rate_hz": 25.0,
                "streams": [
                    {"name": "s", "path": "s.fmx", "kind": "features", "sample_rate_hz": 25.0},
                    {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
                ],
            }
        )
    )
    start = time.perf_counter()
    report = analyze(manifest, AnalysisConfig(clusters=3, seed=5))
    elapsed = time.perf_counter() - start
    target = math.log2(3.0)
    assert report.quantities.i_ts == pytest.approx(target, abs=0.02)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(5, f"end-to-end blobs: I(T;S)={report.quantities.i_ts:.4f}~log2(3), {elapsed:.2f}s")


def test_criterion_06_cluster_sweep_protocol(tmp_path, capsys):
    rng = np.random.Generator(np.random.PCG64(123))
    write_feature_matrix(features(rng.standard_normal((2000, 4))), tmp_path / "s.fmx")
    write_labels(seq(rng.integers(0, 16, size=2000), 16), tmp_path / "t.lbl")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {
                "target_rate_hz": 25.0,
                "streams": [
                    {"name": "s", "path": "s.fmx", "kind": "features", "sample_rate_hz": 25.0},
                    {"name": "t", "path": "t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
                ],
            }
        )
    )
    code = main(["sweep", str(manifest), "--ks", "10,50,100", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["k", "H(T)", "H(S)", "I(T;S)"]
    rows = [line.split() for line in lines[1:]]
    h_t_cells = [r[1] for r in rows]
    h_s_values = [float(r[2]) for r in rows]
    assert len(set(h_t_cells)) == 1, f"H(T) column not constant: {h_t_cells}"
    assert h_s_values == sorted(h_s_values), f"H(S) not non-decreasing: {h_s_values}"
    with capsys.disabled():
        print()
        _passed(6, f"sweep k=10,50,100: H(S) rises {h_s_values}, H(T) fixed {h_t_cells[0]}")


def test_criterion_07_byte_identical_reports(tmp_path, capsys):
    out_dir = tmp_path / "blobs"
    assert main(["synth", "blobs", "--out-dir", str(out_dir), "--centers", "4", "--dims", "8",
                 "--n-per-center", "300", "--seed", "3"]) == 0
    manifest = str(out_dir / "manifest.json")
    digests = []
    for threads, name in [("1", "a.json"), ("1", "b.json"), ("2", "c.json")]:
        path = tmp_path / name
        run_cli_process(["analyze", manifest, "--clusters", "32", "--seed", "3", "--out", str(path)],
                        threads)
        digests.append(path.read_bytes())
    capsys.readouterr()
    assert digests[0] == digests[1] == digests[2]
    _passed(7, "cmd_analyze reports byte-identical across runs and OPENBLAS_NUM_THREADS=1/2")


def test_criterion_08_kmeans_contract():
    rng = np.random.Generator(np.random.PCG64(99))
    checked = 0
    for trial in range(100):
        n = int(rng.integers(30, 200))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 11))
        x = features(rng.standard_normal((n, d)))
        cb = fit(x, k, seed=trial)
        hist = cb.distortion_history
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev * (1 + 1e-6) + 1e-12, f"distortion rose: {prev} -> {cur}"
        counts = np.bincount(assign(cb, x).symbols, minlength=k)
        assert (counts > 0).all(), "empty cluster after fit"
        checked += 1
    # k = number of distinct rows reaches zero distortion
    for trial in range(5):
        values = rng.integers(0, 3, size=(50, 2)).astype(np.float32)
        x = features(values)
        distinct = int(np.unique(values, axis=0).shape[0])
        cb = fit(x, distinct, seed=trial)
        assert cb.final_distortion == 0.0
    _passed(8, f"K-means contract held on {checked} random instances + 5 exact-k cases")


def test_criterion_09_format_round_trips(tmp_path):
    rng = np.random.Generator(np.random.PCG64(55))
    for i in range(50):
        m = features(rng.standard_normal((int(rng.integers(1, 60)), int(rng.integers(1, 9)))))
        p1, p2 = tmp_path / "m1.fmx", tmp_path / "m2.fmx"
        write_feature_matrix(m, p1)
        again = read_feature_matrix(p1)
        assert np.array_equal(again.values, m.values)
        write_feature_matrix(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
    for i in range(50):
        alphabet = int(rng.integers(1, 40))
        s = seq(rng.integers(0, alphabet, size=int(rng.integers(1, 300))), alphabet)
        p1, p2 = tmp_path / "s1.lbl", tmp_path / "s2.lbl"
        write_labels(s, p1)
        again = read_labels(p1)
        assert np.array_equal(again.symbols, s.symbols) and again.alphabet_size == alphabet
        write_labels(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
    for i in range(50):
        k, d = int(rng.integers(1, 20)), int(rng.integers(1, 10))
        norm = None
        if i % 2:
            norm = np.stack(
                [rng.standard_normal(d), np.abs(rng.standard_normal(d)) + 0.1], axis=1
            ).astype(np.float32)
        cb = Codebook(
            centroids=rng.standard_normal((k, d)).astype(np.float32),
            seed=int(rng.integers(0, 2**63)),
            normalization=norm,
        )
        p1, p2 = tmp_path / "c1.kmc", tmp_path / "c2.kmc"
        save_codebook(cb, p1)
        again = load_codebook(p1)
        assert np.array_equal(again.centroids, cb.centroids)
        assert again.seed == cb.seed
        if norm is None:
            assert again.normalization is None
        else:
            assert np.array_equal(again.normalization, cb.normalization)
        save_codebook(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
    _passed(9, "FMX1/LBL1/KMC1 write-then-read bit-exact on 50 random instances each")


def test_criterion_10_base_change_exactness(pmf_suite):
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    suite_sample = pmf_suite[:20]

    def check(value_2, value_e):
        nonlocal worst
        worst = max(worst, abs(value_e - value_2 * LN2))

    for _ in range(20):
        v, t, s = random_streams(rng, 3, int(rng.integers(4, 400)), alphabet=4)
        q2, qe = info_diagram(v, t, s, base=2), info_diagram(v, t, s, base="e")
        for field in (
            "h_t", "h_s", "h_v", "i_ts", "i_tv", "i_vs", "i_vts",
            "h_s_given_t", "h_v_given_t", "h_t_given_s",
            "h_t_given_v", "h_v_given_s", "h_s_given_v",
        ):
            check(getattr(q2, field), getattr(qe, field))
        for key in q2.regions:
            check(q2.regions[key], qe.regions[key])
        check(
            conditional_mutual_information([v, t], s, base=2),
            conditional_mutual_information([v, t], s, base="e"),
        )
        check(
            multivariate_mi_recursive([v, t, s], base=2),
            multivariate_mi_recursive([v, t, s], base="e"),
        )
        check(entropy([v, t, s], base=2), entropy([v, t, s], base="e"))
    for pmf, _ in suite_sample:
        o2, oe = oracle_quantities(pmf, base=2), oracle_quantities(pmf, base="e")
        check(o2.h_t, oe.h_t)
        check(o2.i_ts, oe.i_ts)
        if pmf.arity == 3:
            check(o2.i_vts, oe.i_vts)
    assert worst <= 1e-12, f"base-change mismatch {worst}"
    _passed(10, f"base-e equals base-2 * ln2 for every quantity, worst gap {worst:.2e}")
