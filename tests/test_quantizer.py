import struct

import numpy as np
import pytest

from modmi.errors import DataError, FormatError, InfeasibleError
from modmi.quantizer import (
    Codebook,
    _repair_empty,
    assign,
    codebook_to_bytes,
    fit,
    load_codebook,
    save_codebook,
)
from modmi.synthetic import gen_gaussian_mixture
from util import features


def two_blob_matrix():
    values = np.concatenate([np.zeros((10, 2)), np.full((10, 2), 10.0)])
    return features(values)


class TestFit:
    def test_separable_two_clusters(self):
        cb = fit(two_blob_matrix(), 2, seed=0)
        got = sorted(map(tuple, cb.centroids.tolist()))
        assert got == [(0.0, 0.0), (10.0, 10.0)]
        assert cb.final_distortion == 0.0

    def test_k1_gives_column_means(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = features(rng.standard_normal((200, 3)))
        cb = fit(x, 1, seed=0)
        np.testing.assert_allclose(
            cb.centroids[0], x.values.astype(np.float64).mean(axis=0), rtol=1e-6, atol=1e-7
        )

    def test_recovers_separated_blobs(self):
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        x, _ = gen_gaussian_mixture(centers, 0.1, 100, seed=7)
        cb = fit(x, 3, seed=7)
        blob_means = x.values.reshape(3, 100, 2).mean(axis=1)
        for centroid in cb.centroids:
            assert min(np.linalg.norm(centroid - bm) for bm in blob_means) < 0.1

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleError, match="infeasible k: 3 clusters but only 2 distinct"):
            fit(two_blob_matrix(), 3, seed=0)
        seven = features(np.tile(np.arange(7.0)[:, None], (3, 2)))  # 21 rows, 7 distinct
        with pytest.raises(InfeasibleError, match="infeasible k: 8 clusters but only 7 distinct"):
            fit(seven, 8, seed=4)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = features(rng.standard_normal((300, 4)))
        a = fit(x, 8, seed=42)
        b = fit(x, 8, seed=42)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.distortion_history == b.distortion_history
        assert np.array_equal(assign(a, x).symbols, assign(b, x).symbols)

    def test_distortion_history_non_increasing(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = features(rng.standard_normal((400, 3)))
        cb = fit(x, 10, seed=5)
        hist = cb.distortion_history
        assert len(hist) == cb.iterations_run
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev * (1 + 1e-6) + 1e-12

    def test_zero_distortion_at_k_distinct(self):
        rng = np.random.Generator(np.random.PCG64(4))
        values = rng.integers(0, 3, size=(60, 2)).astype(np.float32)
        x = features(values)
        distinct = np.unique(values, axis=0).shape[0]
        cb = fit(x, distinct, seed=9)
        assert cb.final_distortion == 0.0
        counts = np.bincount(assign(cb, x).symbols, minlength=distinct)
        assert (counts > 0).all()

    def test_normalize_handles_constant_dim(self):
        rng = np.random.Generator(np.random.PCG64(5))
        values = rng.standard_normal((100, 3)).astype(np.float32)
        values[:, 1] = 7.0  # constant dimension
        cb = fit(features(values), 4, seed=1, normalize=True)
        assert cb.normalization is not None
        assert cb.normalization[1, 1] == 1.0  # stddev fallback
        labels = assign(cb, features(values))
        assert labels.alphabet_size == 4

    def test_max_iter_respected(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x = features(rng.standard_normal((500, 4)))
        cb = fit(x, 12, seed=0, max_iter=2)
        assert cb.iterations_run <= 2


class TestAssign:
    def test_exact_centroid_hit(self):
        cb = fit(two_blob_matrix(), 2, seed=0)
        x = features(cb.centroids[1][None, :])
        assert assign(cb, x).symbols[0] == 1

    def test_alphabet_is_k(self):
        x = two_blob_matrix()
        labels = assign(fit(x, 2, seed=0), x)
        assert labels.alphabet_size == 2

    def test_equidistant_tie_to_lower_index(self):
        centroids = np.array([[5.0], [0.0], [9.0], [9.0], [2.0]], dtype=np.float32)
        cb = Codebook(centroids=centroids, seed=0)
        # the point at 1.0 sits exactly between centroids 1 and 4
        assert assign(cb, features([[1.0]])).symbols[0] == 1

    def test_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = features(rng.standard_normal((150, 3)))
        cb = fit(x, 5, seed=3)
        first = assign(cb, x)
        second = assign(cb, x)
        assert np.array_equal(first.symbols, second.symbols)

    def test_blob_purity(self):
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        x, truth = gen_gaussian_mixture(centers, 0.1, 100, seed=7)
        labels = assign(fit(x, 3, seed=7), x)
        # constant cluster id within every ground-truth component
        for component in range(3):
            ids = labels.symbols[truth.symbols == component]
            assert np.unique(ids).size == 1

    def test_dimension_mismatch(self):
        cb = fit(two_blob_matrix(), 2, seed=0)
        with pytest.raises(DataError, match="mismatch"):
            assign(cb, features([[1.0, 2.0, 3.0]]))


class TestRepair:
    def test_steals_farthest_point(self):
        x = np.array([[0.0], [1.0], [10.0]])
        centroids = np.array([[0.5], [99.0]])
        labels = np.array([0, 0, 0], dtype=np.int64)
        dist2 = np.array([0.25, 0.25, 90.25])
        counts = np.array([3, 0], dtype=np.int64)
        _repair_empty(x, centroids, labels, dist2, counts)
        assert labels.tolist() == [0, 0, 1]
        assert centroids[1, 0] == 10.0
        assert counts.tolist() == [2, 1]
        assert dist2[2] == 0.0

    def test_no_empty_clusters_after_fit(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for trial in range(20):
            x = features(rng.standard_normal((120, 2)))
            k = int(rng.integers(2, 12))
            cb = fit(x, k, seed=trial)
            counts = np.bincount(assign(cb, x).symbols, minlength=k)
            assert (counts > 0).all()


class TestCodebookFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(9))
        x = features(rng.standard_normal((100, 6)))
        cb = fit(x, 7, seed=11, normalize=True)
        path = tmp_path / "cb.kmc"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert np.array_equal(loaded.centroids, cb.centroids)
        assert np.array_equal(loaded.normalization, cb.normalization)
        assert loaded.seed == cb.seed
        assert loaded.iterations_run is None and loaded.final_distortion is None
        save_codebook(loaded, tmp_path / "cb2.kmc")
        assert (tmp_path / "cb2.kmc").read_bytes() == path.read_bytes()

    def test_truncated_file(self, tmp_path):
        cb = fit(two_blob_matrix(), 2, seed=0)
        path = tmp_path / "cb.kmc"
        save_codebook(cb, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="size mismatch"):
            load_codebook(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cb.kmc"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_codebook(path)

    def test_file_size_arithmetic(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(10))
        cb = Codebook(centroids=rng.standard_normal((2000, 768)).astype(np.float32), seed=1)
        path = tmp_path / "big.kmc"
        save_codebook(cb, path)
        assert path.stat().st_size == 21 + 2000 * 768 * 4

    @pytest.mark.parametrize(
        "dims, normalization",
        [
            (0, None),
            (2, [[0.0, 1.0], [0.0, 0.0]]),
            (2, [[0.0, 1.0], [np.nan, 1.0]]),
            (1, [[0.0, -1.0]]),
            (1, [[np.inf, 1.0]]),
        ],
        ids=["dims-0", "stddev-0", "mean-nan", "stddev-negative", "mean-inf"],
    )
    def test_degenerate_codebook_rejected(self, tmp_path, dims, normalization):
        header = struct.pack("<IIQB", 2, dims, 0, normalization is not None)
        norm = b"" if normalization is None else np.asarray(normalization, "<f4").tobytes()
        path = tmp_path / "bad.kmc"
        path.write_bytes(b"KMC1" + header + norm + np.zeros((2, dims), "<f4").tobytes())
        with pytest.raises(DataError, match="d >= 1|normalization must be finite"):
            load_codebook(path)

    def test_serialized_assign_consistency(self, tmp_path):
        # a freshly fitted codebook and its on-disk copy label identically
        rng = np.random.Generator(np.random.PCG64(12))
        x = features(rng.standard_normal((200, 4)))
        cb = fit(x, 6, seed=2, normalize=True)
        path = tmp_path / "cb.kmc"
        save_codebook(cb, path)
        assert np.array_equal(assign(cb, x).symbols, assign(load_codebook(path), x).symbols)


def test_codebook_rejects_non_finite():
    with pytest.raises(DataError):
        Codebook(centroids=np.array([[np.inf]], dtype=np.float32), seed=0)


def test_codebook_bytes_deterministic():
    cb = fit(two_blob_matrix(), 2, seed=0)
    assert codebook_to_bytes(cb) == codebook_to_bytes(cb)
