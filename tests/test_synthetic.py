import math

import numpy as np
import pytest

from modmi.errors import DataError
from modmi.infotheory import mutual_information, pair_quantities
from modmi.quantizer import assign, fit
from modmi.synthetic import (
    JointPmf,
    exhaustive_stream,
    gen_gaussian_mixture,
    oracle_quantities,
    random_pmf,
    sample_discrete,
    xor_pmf,
)
from util import tuple_counts


class TestJointPmf:
    def test_validates_normalization(self):
        with pytest.raises(DataError, match="sums to"):
            JointPmf(np.array([[0.5, 0.4]]))

    def test_validates_sign(self):
        with pytest.raises(DataError):
            JointPmf(np.array([1.5, -0.5]))

    def test_alphabet_sizes(self):
        pmf = JointPmf(np.full((2, 3), 1.0 / 6.0))
        assert pmf.arity == 2 and pmf.alphabet_sizes == (2, 3)


class TestOracle:
    def test_uniform_2x2(self):
        q = oracle_quantities(JointPmf(np.full((2, 2), 0.25)))
        assert q.h_t == 1.0 and q.h_s == 1.0
        assert q.i_ts == 0.0

    def test_xor_synergy(self):
        q = oracle_quantities(xor_pmf())
        assert q.i_vts == pytest.approx(-1.0, abs=1e-12)
        assert q.i_tv == q.i_ts == q.i_vs == 0.0
        assert q.regions["V;T|S"] == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_all_zero(self):
        table = np.zeros((2, 2, 2))
        table[1, 0, 1] = 1.0
        q = oracle_quantities(JointPmf(table))
        assert q.h_t == q.h_s == q.h_v == 0.0
        assert q.i_vts == 0.0

    def test_oracle_satisfies_diagram_identities(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(60):
            shape = tuple(int(rng.integers(2, 6)) for _ in range(3))
            q = oracle_quantities(random_pmf(rng, shape))
            r = q.regions
            center = r["V;T;S"]
            assert r["V|T,S"] + r["V;T|S"] + r["V;S|T"] + center == pytest.approx(q.h_v, abs=1e-12)
            assert r["T|V,S"] + r["V;T|S"] + r["T;S|V"] + center == pytest.approx(q.h_t, abs=1e-12)
            assert r["S|V,T"] + r["T;S|V"] + r["V;S|T"] + center == pytest.approx(q.h_s, abs=1e-12)
            assert 0.0 <= q.i_ts <= min(q.h_t, q.h_s) + 1e-12
            # the three pair MI forms, via conditionals, agree
            assert q.h_t - q.h_t_given_s == pytest.approx(q.i_ts, abs=1e-12)
            assert q.h_s - q.h_s_given_t == pytest.approx(q.i_ts, abs=1e-12)

    def test_arity_bound(self):
        with pytest.raises(DataError, match="arity"):
            oracle_quantities(JointPmf(np.full((2, 2, 2, 2), 1.0 / 16.0)))


class TestSampling:
    def test_point_mass_constant_streams(self):
        table = np.zeros((2, 3))
        table[1, 2] = 1.0
        a, b = sample_discrete(JointPmf(table), 50, seed=0)
        assert set(a.symbols.tolist()) == {1}
        assert set(b.symbols.tolist()) == {2}

    def test_deterministic(self):
        pmf = random_pmf(np.random.Generator(np.random.PCG64(2)), (3, 3))
        first = sample_discrete(pmf, 1000, seed=9)
        second = sample_discrete(pmf, 1000, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a.symbols, b.symbols)

    def test_empirical_mi_near_zero_for_independent(self):
        a, b = sample_discrete(JointPmf(np.full((2, 2), 0.25)), 10**5, seed=3)
        assert abs(mutual_information(a, b)) < 0.001

    def test_frequencies_approach_pmf(self):
        pmf = JointPmf(np.array([[0.5, 0.25], [0.125, 0.125]]))
        a, b = sample_discrete(pmf, 200_000, seed=4)
        for key, count in tuple_counts([a, b]).items():
            assert count / a.rows == pytest.approx(pmf.table[key], abs=5e-3)


class TestExhaustive:
    def test_xor_four_frames(self):
        v, t, s = exhaustive_stream(xor_pmf())
        assert v.rows == 4
        assert np.array_equal(np.bitwise_xor(v.symbols, t.symbols), s.symbols)

    def test_coin_layout(self):
        streams = exhaustive_stream(JointPmf(np.array([0.5, 0.5])), copies=2)
        assert streams[0].symbols.tolist() == [0, 1, 0, 1]

    def test_joint_counts_equal_scaled_pmf(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(30):
            arity = int(rng.integers(2, 4))
            pmf = random_pmf(rng, tuple(int(rng.integers(2, 5)) for _ in range(arity)))
            streams = exhaustive_stream(pmf, copies=2)
            counts = tuple_counts(streams)
            total = streams[0].rows
            for key, count in counts.items():
                assert count / total == pytest.approx(pmf.table[key], abs=1e-12)
            # and no tuples outside the pmf support
            assert len(counts) == int(np.count_nonzero(pmf.table))

    def test_estimator_equals_oracle_exactly(self):
        pmf = xor_pmf()
        v, t, s = exhaustive_stream(pmf)
        from modmi.infotheory import multivariate_mi_recursive

        assert multivariate_mi_recursive([v, t, s]) == -1.0

    def test_irrational_pmf_rejected(self):
        golden = (math.sqrt(5) - 1) / 2
        with pytest.raises(DataError):
            exhaustive_stream(JointPmf(np.array([golden, 1.0 - golden])))


class TestGaussianMixture:
    @pytest.mark.parametrize(
        "centers, stddev, match",
        [
            (np.zeros((3, 0)), 1.0, "d >= 1"),
            (np.zeros((3, 2)), math.inf, "stddev must be finite"),
            (np.zeros((3, 2)), math.nan, "stddev must be finite"),
            (np.zeros((3, 2)), "1", r"stddev must be finite and > 0 \(a number, not a bool\), got '1'"),
            (np.zeros((3, 2)), True, r"stddev must be finite and > 0 \(a number, not a bool\), got True"),
            (np.zeros((3, 2)), -1.0, "stddev must be finite and > 0"),
            ([["a"]], 1.0, "centers must be an array of numbers: could not convert string"),
            (np.zeros((3, 2)), 0j, r"stddev must be finite and > 0 \(a number, not a bool\), got 0j"),
        ],
        ids=[
            "no-dims", "stddev-inf", "stddev-nan", "stddev-str", "stddev-bool", "stddev-negative",
            "centers-str", "stddev-complex-zero",
        ],
    )
    def test_bad_shape_or_scale_rejected(self, centers, stddev, match):
        with pytest.raises(DataError, match=match):
            gen_gaussian_mixture(centers, stddev, 3, seed=0)

    def test_zero_stddev_rows_equal_centers(self):
        centers = np.array([[1.0, 2.0], [3.0, 4.0]])
        x, labels = gen_gaussian_mixture(centers, 0.0, 3, seed=0)
        assert np.array_equal(x.values, np.repeat(centers, 3, axis=0).astype(np.float32))
        assert labels.symbols.tolist() == [0, 0, 0, 1, 1, 1]

    def test_separated_blobs_full_purity(self):
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        x, truth = gen_gaussian_mixture(centers, 0.1, 100, seed=7)
        ids = assign(fit(x, 3, seed=7), x)
        for component in range(3):
            assert np.unique(ids.symbols[truth.symbols == component]).size == 1

    def test_two_blob_mi_approaches_label_entropy(self):
        centers = np.array([[0.0] * 4, [50.0] * 4])
        x, truth = gen_gaussian_mixture(centers, 1.0, 500, seed=11)
        quantized = assign(fit(x, 2, seed=11), x)
        q = pair_quantities(truth, quantized)
        assert q.i_ts == pytest.approx(1.0, abs=0.02)
        assert q.h_t == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        centers = np.array([[0.0, 1.0]])
        a, _ = gen_gaussian_mixture(centers, 2.0, 100, seed=5)
        b, _ = gen_gaussian_mixture(centers, 2.0, 100, seed=5)
        assert np.array_equal(a.values, b.values)


def test_random_pmf_always_exhaustive_compatible():
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(50):
        pmf = random_pmf(rng, (int(rng.integers(2, 6)), int(rng.integers(2, 6))))
        streams = exhaustive_stream(pmf)
        assert streams[0].rows >= 1


CENTERS = np.zeros((2, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gen_gaussian_mixture(CENTERS, 1.0, 2.5, 0), "n_per_center must be an integer"),
        (lambda: gen_gaussian_mixture(CENTERS, 1.0, 3, -1), "seed must be >= 0, got -1"),
        (
            lambda: gen_gaussian_mixture(CENTERS, 1.0, 3, -(10**5000)),
            "seed must be >= 0, got a negative integer of 16610 bits",
        ),
        (lambda: sample_discrete(xor_pmf(), True, 0), "n_frames must be an integer, got True"),
        (lambda: sample_discrete(xor_pmf(), 8, -1), "seed must be >= 0, got -1"),
        (lambda: exhaustive_stream(xor_pmf(), copies=True), "copies must be an integer"),
        (lambda: exhaustive_stream(xor_pmf(), tags=["a"]), r"one tag per variable \(3\), got 1"),
        (lambda: sample_discrete(xor_pmf(), 8, 0, tags="vtsx"), r"one tag per variable \(3\), got 4"),
        (lambda: JointPmf("x"), "pmf table must be an array of numbers: could not convert string"),
    ],
    ids=[
        "blobs-rows-float", "blobs-seed-negative", "blobs-seed-5001-digits", "frames-bool",
        "sample-seed-negative", "copies-bool", "exhaustive-tags-short", "sample-tags-long",
        "pmf-str",
    ],
)
def test_generator_counts_and_seeds_follow_the_integer_rule(build, message):
    with pytest.raises(DataError, match=message):
        build()


def test_generators_take_numpy_integer_counts():
    x, _ = gen_gaussian_mixture(CENTERS, 1.0, np.int64(3), np.uint64(4))
    assert x.rows == 6
    assert sample_discrete(xor_pmf(), np.int64(5), np.int32(0))[0].rows == 5
    assert exhaustive_stream(xor_pmf(), copies=np.int64(2))[0].rows == 8
