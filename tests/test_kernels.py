import tracemalloc

import numpy as np
import pytest

from modmi import _kernels, quantizer
from modmi._kernels import accumulate_means, assign_labels
from modmi.cli import main
from modmi.quantizer import fit
from util import features, repair_every_pass_matrix, run_cli_process

pytestmark = pytest.mark.filterwarnings("error")


def _random_case(seed, n=3000, d=13, k=29):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.ascontiguousarray(rng.standard_normal((n, d)))
    c = np.ascontiguousarray(rng.standard_normal((k, d)))
    return x, c, k


def test_assign_matches_direct_numpy():
    x, c, _ = _random_case(1, n=500, d=6, k=11)
    labels, dist2 = assign_labels(x, c)
    full = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, np.argmin(full, axis=1))
    np.testing.assert_allclose(dist2, full[np.arange(x.shape[0]), labels], rtol=1e-12)


def test_assign_tie_breaks_to_lowest_index():
    x = np.array([[1.0]])
    c = np.array([[5.0], [0.0], [9.0], [9.0], [2.0]])  # centroids 1 and 4 both at distance 1
    labels, dist2 = assign_labels(x, c)
    assert labels[0] == 1
    assert dist2[0] == 1.0


def test_accumulate_matches_direct_numpy():
    x, c, k = _random_case(2, n=700, d=5, k=9)
    labels, _ = assign_labels(x, c)
    sums = accumulate_means(x, labels, k)
    for cluster in range(k):
        np.testing.assert_allclose(sums[cluster], x[labels == cluster].sum(axis=0), rtol=1e-12)


# Held here so counting the exact loop's rows (below) leaves the oracle out.
_reference_assign = _kernels.assign_chunk


def _oracle(x, c):
    labels = np.empty(x.shape[0], dtype=np.int64)
    dist2 = np.empty(x.shape[0], dtype=np.float64)
    _reference_assign(x, c, labels, dist2)
    return labels, dist2


def _assert_matches_oracle(x, c):
    labels, dist2 = assign_labels(x, c)
    ref_labels, ref_dist2 = _oracle(x, c)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(dist2, ref_dist2)


def _exact_rows(monkeypatch):
    """Count the rows the GEMM prefilter hands to the exact loop."""
    seen = []

    def counting(x, *args):
        seen.append(x.shape[0])
        _reference_assign(x, *args)

    monkeypatch.setattr(_kernels, "assign_chunk", counting)
    return seen


@pytest.mark.parametrize("d", [1, 7, 24, 40])
@pytest.mark.parametrize("k", [1, 2, 17, 500])
def test_gemm_path_equals_reference(d, k):
    x, c, _ = _random_case(100 + d * 1000 + k, n=1500, d=d, k=k)
    _assert_matches_oracle(x, c)


@pytest.mark.parametrize("d", [1, 7, 24, 40])
def test_gemm_path_equals_reference_on_ties(d):
    """Tie-breaking: duplicate centroids, duplicate points and points exactly
    equidistant from two centroids.  The inputs are integers and halves, so
    every GEMM score is exact and this test cannot see the rounding slack; the
    cancellation, near-tie and whole-fit tests check that."""
    rng = np.random.Generator(np.random.PCG64(d))
    base = rng.integers(-2, 3, size=(40, d)).astype(np.float64)
    c = np.ascontiguousarray(np.concatenate([base, base[::3]]))  # duplicate centroids
    x = rng.integers(-2, 3, size=(1200, d)).astype(np.float64)
    x[600:] = x[:600]  # duplicate points
    x[:39] = (base[:-1] + base[1:]) / 2  # exactly equidistant from two centroids
    _assert_matches_oracle(np.ascontiguousarray(x), c)


@pytest.mark.parametrize("d", [1, 7, 24, 40])
def test_gemm_path_equals_reference_under_cancellation(d, monkeypatch):
    # At 1e4 the rounding bound dwarfs gaps of 1e-3, so most rows are
    # ambiguous and the exact loop decides them.
    x, c, _ = _random_case(200 + d, n=1500, d=d, k=17)
    x = np.ascontiguousarray(1e4 + 1e-3 * x)
    c = np.ascontiguousarray(1e4 + 1e-3 * c)
    exact_rows = _exact_rows(monkeypatch)
    _assert_matches_oracle(x, c)
    assert sum(exact_rows) > x.shape[0] // 2


def test_gemm_path_decides_well_separated_rows(monkeypatch):
    x, c, _ = _random_case(9, n=2000, d=24, k=500)
    exact_rows = _exact_rows(monkeypatch)
    _assert_matches_oracle(x, c)
    assert sum(exact_rows) < x.shape[0] // 100


def test_only_the_near_tie_row_reaches_the_exact_loop(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(13))
    c = 10.0 * rng.standard_normal((50, 8))
    c[1] = c[0] + 1.0
    c = np.ascontiguousarray(c)
    n = 2 * _kernels.ASSIGN_CHUNK
    x = c[rng.integers(50, size=n)] + 0.1 * rng.standard_normal((n, 8))
    exact_rows = _exact_rows(monkeypatch)
    _assert_matches_oracle(np.ascontiguousarray(x), c)
    assert exact_rows == []  # well-separated chunks are certified by one count
    x[5] = (c[0] + c[1]) / 2  # equidistant from centroids 0 and 1 up to rounding
    _assert_matches_oracle(np.ascontiguousarray(x), c)
    assert exact_rows == [1]  # that row alone, and nothing from the second chunk


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assign_holds_one_chunk_of_scores_at_a_time():
    for k in (500, 2000):
        x, c, _ = _random_case(14, n=3000, d=32, k=k)
        # One chunk's scores (at most _SCORE_BUDGET doubles) and their
        # candidate mask, plus the GEMM's (d + 1, k) weights.
        held = _kernels._SCORE_BUDGET * 9 + (x.shape[1] + 1) * k * 8
        assert _peak_bytes(lambda: assign_labels(x, c)) < 1.25 * held


def test_accumulate_holds_chunk_sized_scratch():
    x, _, _ = _random_case(15, n=50_000, d=64, k=1)
    k = 500
    labels = np.random.Generator(np.random.PCG64(16)).integers(k, size=x.shape[0])
    # The sums, one chunk's partial sums and one piece's cell indices.
    held = 2 * k * x.shape[1] * 8 + _kernels.ASSIGN_CHUNK * x.shape[1] * 8
    assert _peak_bytes(lambda: accumulate_means(x, labels, k)) < 1.25 * held


@pytest.mark.parametrize("normalize, copies", [(False, 1.5), (True, 2.25)], ids=["raw", "normalized"])
def test_fit_holds_one_float64_copy_of_its_stream(normalize, copies):
    x = features(np.random.Generator(np.random.PCG64(17)).standard_normal((20_000, 32)))
    one_copy = x.rows * x.dims * 8
    # Beyond the copy: a few per-row vectors, and while the normalization is
    # fitted, np.std's own temporary copy.
    peak = _peak_bytes(lambda: fit(x, 16, seed=1, max_iter=5, normalize=normalize))
    assert peak < copies * one_copy


def _fit_rows(kind):
    rng = np.random.Generator(np.random.PCG64(5))
    centers = rng.normal(0.0, 3.0, (40, 6))
    rows = centers[rng.integers(40, size=2000)] + rng.standard_normal((2000, 6))
    # Float32 rows within one binade make the GEMM exact; the small columns
    # below give it rounding to get wrong, so a zero slack fails the k = 500
    # fits of both kinds.
    if kind == "offset":  # cancellation in half the columns
        return 1e-2 * rows + np.array([1e4] * 3 + [0.0] * 3)
    if kind == "duplicates":  # rows on a 0.1 grid, each twice: ties and near-ties
        rows = np.round(rows) / 10
        return np.concatenate([rows, rows])
    return rows


def _assert_same_fit(got, want):
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert np.array(got.distortion_history).tobytes() == np.array(want.distortion_history).tobytes()


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("k", [1, 7, 64, 500])
@pytest.mark.parametrize("kind", ["blobs", "offset", "duplicates"])
def test_fit_equals_exact_loop_fit(kind, k, normalize, monkeypatch):
    x = features(_fit_rows(kind))
    got = fit(x, k, seed=1, tol=1e-12, max_iter=8, normalize=normalize)
    monkeypatch.setattr(_kernels, "assign_labels", _oracle)
    want = fit(x, k, seed=1, tol=1e-12, max_iter=8, normalize=normalize)
    _assert_same_fit(got, want)
    # k = 1 reaches its fixed point, the column means, on the third pass.
    assert got.iterations_run >= (3 if k == 1 else 6)


def test_fit_equals_exact_loop_fit_through_repairs(monkeypatch):
    x = repair_every_pass_matrix()
    got = fit(x, 4, seed=0, tol=1e-12, max_iter=8, normalize=True)
    repairs = []
    original = quantizer._repair_empty

    def counting(*args):
        repairs.append(args)
        original(*args)

    monkeypatch.setattr(quantizer, "_repair_empty", counting)
    monkeypatch.setattr(_kernels, "assign_labels", _oracle)
    want = fit(x, 4, seed=0, tol=1e-12, max_iter=8, normalize=True)
    _assert_same_fit(got, want)
    assert len(repairs) == want.iterations_run  # an empty cluster on every pass


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_seeding_distance_equals_reference(offset):
    x, c, _ = _random_case(10, n=2100, d=13, k=1)
    x = np.ascontiguousarray(x + offset)
    c = np.ascontiguousarray(c + offset)
    _, ref_dist2 = _oracle(x, c)
    assert np.array_equal(_kernels.row_dist2(x, c[0]), ref_dist2)


@pytest.mark.parametrize("d", [13, 32, 40])
def test_seeding_distance_of_one_point_equals_reference(d):
    # One row: numpy's sum over the dimensions would add it pairwise.
    x, c, _ = _random_case(11 + d, n=50, d=d, k=1)
    _, ref_dist2 = _oracle(x, c)
    for row in range(x.shape[0]):
        assert _kernels.row_dist2(x[row:row + 1], c[0]) == ref_dist2[row]
        assert _kernels.row_dist2(x[row:row + 1], c[:1]) == ref_dist2[row]


def test_closest_dist2_equals_exact_minimum():
    rng = np.random.Generator(np.random.PCG64(12))
    base = rng.integers(0, 4, size=(700, 13)).astype(np.float64)
    x = np.ascontiguousarray(1e4 + np.concatenate([base, base + 1e-6 * rng.random(base.shape)]))
    first, *others = x[rng.integers(x.shape[0], size=30)]
    d2 = _kernels.ClosestDist2(x, first)
    _, want = _oracle(x, first[None, :])
    assert np.array_equal(d2.closest, want)
    for centre in others:
        d2.add(centre)
        _, exact = _oracle(x, centre[None, :])
        np.minimum(want, exact, out=want)
        assert np.array_equal(d2.closest, want)


def test_assign_chunk_size_invariant(monkeypatch):
    x, c, _ = _random_case(7, n=2100, d=9, k=13)
    labels_ref, dist_ref = assign_labels(x, c)
    monkeypatch.setattr(_kernels, "ASSIGN_CHUNK", 100)
    labels_alt, dist_alt = assign_labels(x, c)
    assert np.array_equal(labels_ref, labels_alt)
    assert np.array_equal(dist_ref, dist_alt)


def test_accumulate_means_equals_chunked_add_at(monkeypatch):
    x, c, k = _random_case(8, n=5000, d=11, k=19)
    labels, _ = assign_labels(x, c)
    # force many update chunks so the reduction order actually matters
    monkeypatch.setattr(_kernels, "UPDATE_CHUNK", 256)
    ref_sums = np.zeros((k, x.shape[1]))
    for lo in range(0, x.shape[0], 256):
        partial = np.zeros_like(ref_sums)
        np.add.at(partial, labels[lo:lo + 256], x[lo:lo + 256])
        ref_sums += partial
    sums = accumulate_means(x, labels, k)
    assert np.array_equal(sums, ref_sums)


def test_blas_threads_invisible_in_reports(tmp_path):
    out_dir = tmp_path / "blobs"
    assert main(["synth", "blobs", "--out-dir", str(out_dir), "--centers", "6", "--dims", "16",
                 "--n-per-center", "400", "--seed", "2"]) == 0
    reports = []
    for threads in ("1", "2"):
        report_path = tmp_path / f"threads{threads}.json"
        run_cli_process(["analyze", str(out_dir / "manifest.json"), "--clusters", "64",
                         "--seed", "4", "--out", str(report_path)], threads)
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]
