import struct

import numpy as np
import pytest

from modmi import quantizer
from modmi.errors import DataError, FormatError, InfeasibleError
from modmi.quantizer import (
    Codebook,
    _kmeanspp_init,
    _repair_empty,
    assign,
    codebook_to_bytes,
    fit,
    load_codebook,
    save_codebook,
)
from modmi.synthetic import gen_gaussian_mixture
from util import features, repair_every_pass_matrix


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
        # more clusters than rows is refused before seeding allocates k centres
        huge = f"infeasible k: {10**28} clusters but only 21 rows"
        with pytest.raises(InfeasibleError, match=huge):
            fit(seven, 10**28, seed=4)
        # a k too long to print shows as its bit length
        too_long = "infeasible k: an integer of 16610 bits clusters but only 21 rows"
        with pytest.raises(InfeasibleError, match=too_long):
            fit(seven, 10**5000, seed=4)

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

    @pytest.mark.parametrize("normalize", [False, True])
    def test_labels_of_last_pass_equal_assign(self, normalize):
        centers = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [0.0, 6.0, 2.0]])
        x, _ = gen_gaussian_mixture(centers, 2.0, 150, seed=3)
        for seed, max_iter in [(1, 300), (2, 2)]:
            cb = fit(x, 9, seed=seed, max_iter=max_iter, normalize=normalize)
            assert cb.labels is not None
            assert np.array_equal(cb.labels, assign(cb, x).symbols)

    def test_labels_after_repaired_last_pass_equal_assign(self, monkeypatch):
        repairs = []
        original = quantizer._repair_empty

        def counting(*args):
            repairs.append(args)
            original(*args)

        monkeypatch.setattr(quantizer, "_repair_empty", counting)
        x = repair_every_pass_matrix()
        for max_iter in (1, 2, 3):
            repairs.clear()
            cb = fit(x, 4, seed=0, normalize=True, max_iter=max_iter)
            assert len(repairs) == cb.iterations_run  # every pass repaired, the last one too
            assert np.array_equal(cb.labels, assign(cb, x).symbols)
            # The final centroids leave the repaired cluster empty again.
            assert np.unique(cb.labels).size == 3

    def test_metadata_follows_distortion_history(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(7))
        cb = fit(features(rng.standard_normal((300, 4))), 8, seed=3)
        assert cb.iterations_run == len(cb.distortion_history) > 1
        assert cb.final_distortion == cb.distortion_history[-1]
        save_codebook(cb, tmp_path / "cb.kmc")
        loaded = load_codebook(tmp_path / "cb.kmc")
        assert loaded.distortion_history is None
        assert loaded.iterations_run is None and loaded.final_distortion is None


def _reference_row_dist2(x_cols, centre_cols):
    acc = np.zeros(x_cols.shape[1], dtype=np.float64)
    diff = np.empty_like(acc)
    for dim in range(x_cols.shape[0]):
        np.subtract(x_cols[dim], centre_cols[dim], out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    return acc


def _reference_kmeanspp_init(x, k, rng):
    """kmeans++ seeding with one exact per-dimension D^2 pass over every row
    per centre: the loop the GEMV prefilter must reproduce bit for bit."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = x[first]
    if k == 1:
        return centers
    x_cols = np.ascontiguousarray(x.T)
    closest = _reference_row_dist2(x_cols, centers[0])
    for c in range(1, k):
        cum = np.cumsum(closest)
        total = cum[-1]
        if total == 0.0:
            raise InfeasibleError(f"infeasible k: {k} clusters but only {c} distinct rows")
        r = rng.random() * total
        idx = int(np.searchsorted(cum, r, side="right"))
        idx = min(idx, n - 1)
        while closest[idx] == 0.0:
            idx = (idx + 1) % n
        centers[c] = x[idx]
        np.minimum(closest, _reference_row_dist2(x_cols, centers[c]), out=closest)
    return centers


def _seeding_outcome(init, x, k, seed):
    try:
        return init(x, k, np.random.Generator(np.random.PCG64(seed)))
    except InfeasibleError as e:
        return str(e)


class TestSeeding:
    # Lattice points, each also present with a 1e-6 jitter: many rows sit just
    # above or below their current D^2, which is where a prefilter without
    # enough rounding slack skips a row it must update.  At the 1e4 offset the
    # rounding of the GEMV dwarfs the jitter.  Fifteen base rows give 30 rows
    # for k = 40, so seeding runs out of D^2 mass.
    @pytest.mark.parametrize("base_rows", [15, 200])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("d", [1, 3, 13, 32])
    def test_matches_per_dimension_reference(self, d, offset, base_rows):
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(seed))
            base = rng.integers(0, 4, size=(base_rows, d)).astype(np.float64)
            jittered = base + 1e-6 * rng.standard_normal(base.shape)
            x = np.ascontiguousarray(np.concatenate([base, jittered])[rng.permutation(2 * base_rows)])
            x += offset
            got = _seeding_outcome(_kmeanspp_init, x, 40, seed)
            want = _seeding_outcome(_reference_kmeanspp_init, x, 40, seed)
            if base_rows == 15:
                assert isinstance(want, str) and got == want
            else:
                assert not isinstance(want, str)
                assert np.array_equal(got, want)


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


@pytest.mark.parametrize(
    "seed", [-1, 2**64, "x", 1.0], ids=["negative", "beyond-u64", "str", "float"]
)
def test_codebook_takes_only_a_seed_kmc1_holds(seed):
    """A Codebook refuses a seed the KMC1 header cannot hold, with fit's DataError."""
    with pytest.raises(DataError) as refused:
        fit(features([[0.0], [1.0]]), 1, seed=seed)
    with pytest.raises(DataError) as built:
        Codebook([[1.0]], seed)
    assert str(built.value) == str(refused.value)


def test_codebook_stores_a_numpy_seed_as_int():
    cb = Codebook([[1.0]], np.uint64(2**64 - 1))
    assert type(cb.seed) is int and codebook_to_bytes(cb)[12:20] == b"\xff" * 8


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

    def test_loaded_codebook_has_no_labels(self, tmp_path):
        x = two_blob_matrix()
        cb = fit(x, 2, seed=0)
        assert cb.labels is not None
        save_codebook(cb, tmp_path / "cb.kmc")
        assert load_codebook(tmp_path / "cb.kmc").labels is None

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


@pytest.mark.parametrize(
    "k, kwargs, message",
    [
        (3, {"seed": 0.7}, "seed must be an integer, got 0.7"),
        (True, {}, "k must be an integer, got True"),
        (2.0, {}, "k must be an integer, got 2.0"),
        (2, {"seed": True}, "seed must be an integer, got True"),
        (2, {"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        (
            2,
            {"seed": 10**5000},
            "seed must fit an unsigned 64-bit integer, got an integer of 16610 bits",
        ),
    ],
    ids=["seed-float", "k-bool", "k-float", "seed-bool", "max-iter-float", "seed-5001-digits"],
)
def test_fit_takes_only_integer_counts_and_seeds(k, kwargs, message):
    with pytest.raises(DataError) as exc:
        fit(two_blob_matrix(), k, **kwargs)
    assert str(exc.value) == message


def test_fit_takes_numpy_integers():
    x = two_blob_matrix()
    cb = fit(x, np.int64(2), seed=np.uint64(5), max_iter=np.int32(300))
    assert type(cb.seed) is int and cb.seed == 5
    assert codebook_to_bytes(cb) == codebook_to_bytes(fit(x, 2, seed=5))
