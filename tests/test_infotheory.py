import math

import numpy as np
import pytest

from modmi.errors import AlignmentError, DataError
from modmi.infotheory import (
    JointDistribution,
    _tuple_keys,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    info_diagram,
    joint_counts,
    multivariate_mi_recursive,
    mutual_information,
    pair_quantities,
    trivariate_mmi,
)
from modmi.synthetic import exhaustive_stream, oracle_quantities, random_pmf, xor_pmf
from util import random_streams, seq


def xor_triple():
    return exhaustive_stream(xor_pmf())


class TestJointCounts:
    def test_two_streams_hand_count(self):
        d = joint_counts([seq([0, 0, 1]), seq([1, 1, 0])])
        assert d.counts == {(0, 1): 2, (1, 0): 1}
        assert d.total == 3

    def test_single_stream(self):
        d = joint_counts([seq([0, 1, 0, 1])])
        assert d.counts == {(0,): 2, (1,): 2}

    def test_constant_streams_single_tuple(self):
        streams = [seq([2] * 7, 3), seq([0] * 7, 1), seq([1] * 7, 2)]
        d = joint_counts(streams)
        assert d.counts == {(2, 0, 1): 7}

    def test_misaligned_rejected(self):
        with pytest.raises(AlignmentError):
            joint_counts([seq([0, 1]), seq([0, 1, 0])])

    def test_marginal(self):
        d = joint_counts([seq([0, 0, 1]), seq([1, 1, 0])])
        assert d.marginal((0,)).counts == {(0,): 2, (1,): 1}
        assert d.marginal((1,)).counts == {(1,): 2, (0,): 1}

    def test_invariant_validation(self):
        with pytest.raises(DataError):
            JointDistribution(1, {(0,): 2}, 3)  # counts do not sum to total
        with pytest.raises(DataError):
            JointDistribution(1, {(0,): 0}, 0)


class TestTupleKeys:
    @pytest.mark.parametrize(
        "n_streams, low, high",
        [(1, 0, 5), (2, 0, 40), (3, 0, 7), (3, 2**32 - 6, 2**32), (4, 0, 2**20)],
        ids=["one", "two", "three-small", "three-near-u32-max", "four-ranked"],
    )
    def test_counts_equal_unique_rows(self, n_streams, low, high):
        rng = np.random.Generator(np.random.PCG64(n_streams + high))
        arrays = [rng.integers(low, high, size=3000) for _ in range(n_streams)]
        for a in arrays:
            a[:1500] = a[1500:]  # repeat whole tuples, not just symbols
        rows, ref_counts = np.unique(np.stack(arrays, axis=1), axis=0, return_counts=True)
        _, first, counts = np.unique(_tuple_keys(arrays), return_index=True, return_counts=True)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(np.stack(arrays, axis=1)[first], rows)


class TestEntropy:
    def test_fair_coin_one_bit(self):
        assert entropy(joint_counts([seq([0, 1])])) == 1.0

    def test_degenerate_zero(self):
        assert entropy(joint_counts([seq([0, 0, 0, 0], 1)])) == 0.0

    def test_quarter_quarter_half(self):
        # -(1/4*-2 + 1/4*-2 + 1/2*-1) = 1.5 bits
        assert entropy(joint_counts([seq([0, 1, 2, 2])])) == 1.5

    def test_base_variants(self):
        d = joint_counts([seq([0, 1, 2, 2])])
        assert entropy(d, "e") == pytest.approx(1.5 * math.log(2), abs=1e-15)
        assert entropy(d, 10) == pytest.approx(1.5 * math.log(2) / math.log(10), abs=1e-15)


class TestMutualInformation:
    def test_identical_variables(self):
        a = seq([0, 1, 0, 1])
        assert mutual_information(a, a) == 1.0

    def test_independent_zero(self):
        assert mutual_information(seq([0, 0, 1, 1]), seq([0, 1, 0, 1])) == 0.0

    def test_anticorrelated_one_bit(self):
        assert mutual_information(seq([0, 0, 1, 1]), seq([1, 1, 0, 0])) == 1.0

    def test_never_negative(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 200)), alphabet=3)
            assert mutual_information(a, b) >= 0.0


class TestConditionalEntropy:
    def test_given_itself_zero(self):
        a = seq([0, 1, 2, 1])
        assert conditional_entropy(a, [a]) == 0.0

    def test_given_independent_equals_h(self):
        a = seq([0, 0, 1, 1])
        b = seq([0, 1, 0, 1])
        assert conditional_entropy(a, [b]) == entropy(joint_counts([a]))

    def test_xor_of_given_bits(self):
        x = seq([0, 0, 1, 1, 0, 0, 1, 1])
        y = seq([0, 1, 0, 1, 0, 1, 0, 1])
        a = seq(np.bitwise_xor(x.symbols, y.symbols), 2)
        assert conditional_entropy(a, [x, y]) == 0.0

    def test_bounded_by_marginal_entropy(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 300)), alphabet=4)
            ce = conditional_entropy(a, [b])
            assert 0.0 <= ce <= entropy(joint_counts([a])) + 1e-12


class TestConditionalMI:
    def test_vacuous_conditioning(self):
        a = seq([0, 1, 1, 0, 1, 0])
        b = seq([1, 1, 0, 0, 1, 0])
        z = seq([0] * 6, 1)
        assert conditional_mutual_information([a, b], z) == mutual_information(a, b)

    def test_blockwise_independent_given_z(self):
        a = seq([0, 0, 1, 1] * 2)
        b = seq([0, 1, 0, 1] * 2)
        z = seq([0] * 4 + [1] * 4)
        assert conditional_mutual_information([a, b], z) == 0.0

    def test_xor_conditional_one_bit(self):
        v, t, s = xor_triple()
        assert conditional_mutual_information([v, t], s) == 1.0

    def test_two_stream_case_non_negative(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(30):
            a, b, z = random_streams(rng, 3, int(rng.integers(4, 200)), alphabet=3)
            assert conditional_mutual_information([a, b], z) >= 0.0


class TestMultivariateMI:
    def test_base_case_equals_mi(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(20):
            a, b = random_streams(rng, 2, int(rng.integers(2, 150)), alphabet=3)
            assert multivariate_mi_recursive([a, b]) == mutual_information(a, b)

    def test_xor_negative_one_bit(self):
        assert multivariate_mi_recursive(xor_triple()) == -1.0

    def test_three_identical_coins(self):
        a = seq([0, 1, 0, 1])
        assert multivariate_mi_recursive([a, a, a]) == pytest.approx(1.0, abs=1e-12)

    def test_four_streams_supported(self):
        rng = np.random.Generator(np.random.PCG64(5))
        streams = random_streams(rng, 4, 400, alphabet=2)
        value = multivariate_mi_recursive(streams)
        assert math.isfinite(value)


class TestTrivariateMMI:
    def test_xor_septuple(self):
        # plug the seven entropies (1,1,1,2,2,2,2) into the inclusion-exclusion
        v, t, s = xor_triple()
        assert trivariate_mmi(v, t, s) == pytest.approx(-1.0, abs=1e-12)

    def test_identical_coins(self):
        a = seq([0, 1, 0, 1])
        assert trivariate_mmi(a, a, a) == pytest.approx(1.0, abs=1e-12)

    def test_two_constants_zero(self):
        c1 = seq([0] * 6, 1)
        c2 = seq([0] * 6, 1)
        x = seq([0, 1, 2, 0, 1, 2])
        assert trivariate_mmi(c1, c2, x) == 0.0

    def test_matches_recursion(self):
        rng = np.random.Generator(np.random.PCG64(6))
        for _ in range(40):
            v, t, s = random_streams(rng, 3, int(rng.integers(3, 300)), alphabet=4)
            assert trivariate_mmi(v, t, s) == pytest.approx(
                multivariate_mi_recursive([v, t, s]), abs=1e-9
            )


class TestInfoDiagram:
    def test_xor_regions(self):
        v, t, s = xor_triple()
        q = info_diagram(v, t, s)
        assert q.regions["V|T,S"] == q.regions["T|V,S"] == q.regions["S|V,T"] == 0.0
        for pair in ("V;T|S", "T;S|V", "V;S|T"):
            assert q.regions[pair] == pytest.approx(1.0, abs=1e-12)
        assert q.regions["V;T;S"] == pytest.approx(-1.0, abs=1e-12)

    def test_independent_streams(self):
        # all 8 combinations of three bits, exactly once
        bits = np.arange(8)
        v = seq((bits >> 2) & 1, 2)
        t = seq((bits >> 1) & 1, 2)
        s = seq(bits & 1, 2)
        q = info_diagram(v, t, s)
        assert q.i_tv == q.i_ts == q.i_vs == 0.0
        assert q.i_vts == pytest.approx(0.0, abs=1e-12)
        assert q.regions["V|T,S"] == pytest.approx(q.h_v, abs=1e-12)

    def test_identical_streams_center_only(self):
        a = seq([0, 1, 0, 1])
        q = info_diagram(a, a, a)
        assert q.regions["V;T;S"] == pytest.approx(1.0, abs=1e-12)
        for key in ("V|T,S", "T|V,S", "S|V,T", "V;T|S", "T;S|V", "V;S|T"):
            assert q.regions[key] == pytest.approx(0.0, abs=1e-12)

    def test_region_sums_equal_entropies(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(40):
            v, t, s = random_streams(rng, 3, int(rng.integers(3, 400)), alphabet=4)
            q = info_diagram(v, t, s)
            r = q.regions
            center = r["V;T;S"]
            assert r["V|T,S"] + r["V;T|S"] + r["V;S|T"] + center == pytest.approx(q.h_v, abs=1e-9)
            assert r["T|V,S"] + r["V;T|S"] + r["T;S|V"] + center == pytest.approx(q.h_t, abs=1e-9)
            assert r["S|V,T"] + r["T;S|V"] + r["V;S|T"] + center == pytest.approx(q.h_s, abs=1e-9)

    def test_mi_bounded_by_entropies(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(40):
            v, t, s = random_streams(rng, 3, int(rng.integers(3, 400)), alphabet=5)
            q = info_diagram(v, t, s)
            assert 0.0 <= q.i_ts <= min(q.h_t, q.h_s) + 1e-12
            assert 0.0 <= q.i_tv <= min(q.h_t, q.h_v) + 1e-12
            assert 0.0 <= q.i_vs <= min(q.h_v, q.h_s) + 1e-12


class TestIdentities:
    def test_three_forms_of_mi_agree(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 500)), alphabet=4)
            h_a = entropy(joint_counts([a]))
            h_b = entropy(joint_counts([b]))
            form1 = h_a - conditional_entropy(a, [b])
            form2 = h_b - conditional_entropy(b, [a])
            form3 = mutual_information(a, b)
            assert form1 == pytest.approx(form3, abs=1e-9)
            assert form2 == pytest.approx(form3, abs=1e-9)

    def test_joint_entropy_monotone_and_subadditive(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 400)), alphabet=4)
            h_a = entropy(joint_counts([a]))
            h_b = entropy(joint_counts([b]))
            h_ab = entropy(joint_counts([a, b]))
            assert h_ab >= max(h_a, h_b) - 1e-12
            assert h_ab <= h_a + h_b + 1e-12

    def test_chain_rule(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 400)), alphabet=4)
            h_ab = entropy(joint_counts([a, b]))
            assert h_ab == pytest.approx(
                entropy(joint_counts([a])) + conditional_entropy(b, [a]), abs=1e-12
            )

    def test_data_processing(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(4, 400)), alphabet=5)
            relabel = rng.integers(0, 3, size=5)
            fa = seq(relabel[a.symbols], 3)
            assert mutual_information(fa, b) <= mutual_information(a, b) + 1e-9

    def test_log_base_change_scales_exactly(self):
        rng = np.random.Generator(np.random.PCG64(13))
        ln2 = math.log(2.0)
        for _ in range(20):
            v, t, s = random_streams(rng, 3, int(rng.integers(3, 300)), alphabet=4)
            q2 = info_diagram(v, t, s, base=2)
            qe = info_diagram(v, t, s, base="e")
            for field in ("h_t", "h_s", "h_v", "i_ts", "i_tv", "i_vs", "i_vts"):
                assert getattr(qe, field) == pytest.approx(getattr(q2, field) * ln2, abs=1e-12)
            for key in q2.regions:
                assert qe.regions[key] == pytest.approx(q2.regions[key] * ln2, abs=1e-12)

    def test_estimator_matches_oracle_spot_checks(self):
        rng = np.random.Generator(np.random.PCG64(14))
        for _ in range(25):
            arity = int(rng.integers(2, 4))
            shape = tuple(int(rng.integers(2, 5)) for _ in range(arity))
            pmf = random_pmf(rng, shape)
            streams = exhaustive_stream(pmf)
            orc = oracle_quantities(pmf)
            if arity == 2:
                est = pair_quantities(streams[0], streams[1])
                fields = ("h_t", "h_s", "i_ts", "h_s_given_t", "h_t_given_s")
            else:
                est = info_diagram(streams[0], streams[1], streams[2])
                fields = (
                    "h_t", "h_s", "h_v", "i_ts", "i_tv", "i_vs", "i_vts",
                    "h_s_given_t", "h_v_given_t", "h_t_given_s",
                    "h_t_given_v", "h_v_given_s", "h_s_given_v",
                )
            for field in fields:
                assert getattr(est, field) == pytest.approx(getattr(orc, field), abs=1e-9)
            if arity == 3:
                for key in est.regions:
                    assert est.regions[key] == pytest.approx(orc.regions[key], abs=1e-9)


def test_pair_quantities_fields():
    t = seq([0, 0, 1, 1])
    s = seq([0, 1, 0, 1])
    q = pair_quantities(t, s)
    assert q.arity == 2
    assert q.h_t == 1.0 and q.h_s == 1.0 and q.i_ts == 0.0
    assert q.h_v is None and q.i_vts is None and q.regions is None
    d = q.as_dict()
    assert "I3" not in d and "regions" not in d


def test_base_rejected():
    with pytest.raises(DataError, match="log base"):
        entropy(joint_counts([seq([0, 1])]), base=3)


@pytest.mark.parametrize("base", ["2", "e", "10"])
def test_info_diagram_and_mi_share_the_pair_quantities(base):
    """The (T, S) fields of a three-stream diagram, and plain MI, are the
    two-stream analysis's values bit for bit."""
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(30):
        v, t, s = random_streams(rng, 3, int(rng.integers(2, 300)), alphabet=5)
        pair = pair_quantities(t, s, base)
        three = info_diagram(v, t, s, base)
        for name in ("h_t", "h_s", "i_ts", "h_s_given_t", "h_t_given_s"):
            assert getattr(three, name) == getattr(pair, name), name
        assert mutual_information(t, s, base) == pair.i_ts
        assert mutual_information(v, s, base) == pair_quantities(v, s, base).i_ts
