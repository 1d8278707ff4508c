import ast
import itertools
import math
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modmi import infotheory
from modmi.errors import AlignmentError, DataError
from modmi.infotheory import (
    _tuple_keys,
    cell_counts,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    info_diagram,
    multivariate_mi_recursive,
    mutual_information,
    pair_quantities,
    trivariate_mmi,
)
from modmi.report import REGIONS, InfoQuantities
from modmi.synthetic import exhaustive_stream, oracle_quantities, random_pmf, xor_pmf
from util import random_streams, seq


def xor_triple():
    return exhaustive_stream(xor_pmf())


class TestTupleKeys:
    # On 3000 rows "one", "two" and "three-small" have radix products of at most
    # 3000 and take cell_counts' bincount branch; the others sort their keys,
    # as int32 up to the largest key 2**31 - 1 and as int64 from 2**31 on.
    @pytest.mark.parametrize(
        "n_streams, low, high",
        [
            (1, 0, 5),
            (2, 0, 40),
            (3, 0, 7),
            (3, 2**32 - 6, 2**32),
            (4, 0, 2**20),
            (1, 2**31 - 8, 2**31),
            (1, 2**31 - 7, 2**31 + 1),
        ],
        ids=[
            "one",
            "two",
            "three-small",
            "three-near-u32-max",
            "four-ranked",
            "one-int32-sort",
            "one-int64-sort",
        ],
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
        assert np.array_equal(cell_counts(arrays), ref_counts)

    @pytest.mark.parametrize(
        "rows, bincount_calls",
        [(3000, 1), (2999, 0)],
        ids=["radix-product-equals-rows", "radix-product-one-above-rows"],
    )
    def test_counts_at_the_bincount_guard(self, monkeypatch, rows, bincount_calls):
        rng = np.random.Generator(np.random.PCG64(rows))
        arrays = [rng.integers(0, 50, size=rows), rng.integers(0, 60, size=rows)]
        arrays[0][0], arrays[1][0] = 49, 59  # radices 50 * 60 = 3000
        _, ref_counts = np.unique(np.stack(arrays, axis=1), axis=0, return_counts=True)
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda key: calls.append(key) or bincount(key))
        assert np.array_equal(cell_counts(arrays), ref_counts)
        assert len(calls) == bincount_calls


class TestEntropy:
    def test_fair_coin_one_bit(self):
        assert entropy([seq([0, 1])]) == 1.0

    def test_degenerate_zero(self):
        assert entropy([seq([0, 0, 0, 0], 1)]) == 0.0

    def test_quarter_quarter_half(self):
        # -(1/4*-2 + 1/4*-2 + 1/2*-1) = 1.5 bits
        assert entropy([seq([0, 1, 2, 2])]) == 1.5

    def test_base_variants(self):
        d = [seq([0, 1, 2, 2])]
        assert entropy(d, "e") == pytest.approx(1.5 * math.log(2), abs=1e-15)
        assert entropy(d, 10) == pytest.approx(1.5 * math.log(2) / math.log(10), abs=1e-15)

    def test_joint_two_streams_hand_count(self):
        # tuples (0, 1) twice and (1, 0) once: the counts of seq([0, 0, 1]) alone
        a, b = seq([0, 0, 1]), seq([1, 1, 0])
        assert entropy([a, b]) == pytest.approx(math.log2(3) - 2 / 3, abs=1e-15)
        assert entropy([a, b]) == entropy([a])

    def test_joint_constant_streams_zero(self):
        assert entropy([seq([2] * 7, 3), seq([0] * 7, 1), seq([1] * 7, 2)]) == 0.0

    @pytest.mark.parametrize(
        "streams", [[], [seq([0, 1]), seq([0, 1, 0])]], ids=["empty", "misaligned"]
    )
    def test_joint_unaligned_rejected(self, streams):
        with pytest.raises(AlignmentError):
            entropy(streams)


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
        assert conditional_entropy(a, [b]) == entropy([a])

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
            assert 0.0 <= ce <= entropy([a]) + 1e-12


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
            assert mutual_information(a, b) == pair_quantities(a, b).i_ts

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
            h_a = entropy([a])
            h_b = entropy([b])
            form1 = h_a - conditional_entropy(a, [b])
            form2 = h_b - conditional_entropy(b, [a])
            form3 = mutual_information(a, b)
            assert form1 == pytest.approx(form3, abs=1e-9)
            assert form2 == pytest.approx(form3, abs=1e-9)

    def test_joint_entropy_monotone_and_subadditive(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 400)), alphabet=4)
            h_a = entropy([a])
            h_b = entropy([b])
            h_ab = entropy([a, b])
            assert h_ab >= max(h_a, h_b) - 1e-12
            assert h_ab <= h_a + h_b + 1e-12

    def test_chain_rule(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            a, b = random_streams(rng, 2, int(rng.integers(2, 400)), alphabet=4)
            h_ab = entropy([a, b])
            assert h_ab == pytest.approx(
                entropy([a]) + conditional_entropy(b, [a]), abs=1e-12
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


_A, _B, _SHORT = seq([0, 1, 1]), seq([1, 0, 1]), seq([0, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: entropy([]), "need at least one stream"),
        (lambda: conditional_entropy(_A, []), "need at least two streams"),
        (lambda: conditional_mutual_information([_A], _B), "need at least three streams"),
        (lambda: multivariate_mi_recursive([_A]), "need at least two streams"),
        (lambda: entropy([_A, _SHORT]), "streams are not aligned: lengths [2, 3]"),
        (lambda: mutual_information(_A, _SHORT), "streams are not aligned: lengths [2, 3]"),
        (lambda: conditional_entropy(_A, [_B, _SHORT]), "streams are not aligned: lengths [2, 3]"),
        (
            lambda: conditional_mutual_information([_A, _B], _SHORT),
            "streams are not aligned: lengths [2, 3]",
        ),
        (lambda: multivariate_mi_recursive([_SHORT, _A]), "streams are not aligned: lengths [2, 3]"),
        (lambda: trivariate_mmi(_A, _B, _SHORT), "streams are not aligned: lengths [2, 3]"),
        (lambda: pair_quantities(_SHORT, _B), "streams are not aligned: lengths [2, 3]"),
        (lambda: info_diagram(_A, _SHORT, _B), "streams are not aligned: lengths [2, 3]"),
    ],
    ids=[
        "entropy-none", "conditional_entropy-no-given", "conditional_mi-one-stream",
        "multivariate_mi-one-stream", "entropy", "mutual_information", "conditional_entropy",
        "conditional_mi", "multivariate_mi", "trivariate_mmi", "pair_quantities", "info_diagram",
    ],
)
def test_the_information_functions_share_one_input_rule(call, message):
    """Too few streams or unequal lengths are an AlignmentError in one set of
    words, whichever function is called."""
    with pytest.raises(AlignmentError) as info:
        call()
    assert str(info.value) == message


def test_base_rejected():
    with pytest.raises(DataError, match="log base"):
        entropy([seq([0, 1])], base=3)
    with pytest.raises(DataError, match="log base .* got an integer of 16610 bits"):
        entropy([seq([0, 1])], base=10**5000)


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


def test_every_information_function_returns_python_floats():
    v, t, s, x = random_streams(np.random.Generator(np.random.PCG64(8)), 4, 300)
    values = [
        entropy([v, t]),
        mutual_information(v, t),
        conditional_entropy(v, [t, s]),
        conditional_mutual_information([v, t], s),
        conditional_mutual_information([v, t, s], x),
        multivariate_mi_recursive([v, t]),
        multivariate_mi_recursive([v, t, s, x]),
        trivariate_mmi(v, t, s),
    ]
    for q in (pair_quantities(t, s), info_diagram(v, t, s)):
        fields = {k: value for k, value in vars(q).items() if k not in ("log_base", "regions")}
        values += [value for value in fields.values() if value is not None]
        values += list((q.regions or {}).values())
    assert len(values) == 8 + 5 + 13 + 7
    assert {type(value) for value in values} == {float}


def _oracle_h(columns: list[list[int]]) -> float:
    """Joint entropy (nats) of aligned symbol lists, counted tuple by tuple."""
    rows = len(columns[0])
    counts = Counter(zip(*columns)).values()
    return -math.fsum(c / rows * math.log(c / rows) for c in counts)


def _oracle_mmi(columns: list[list[int]], given=()) -> float:
    """Co-information (nats) of ``columns`` given the lists ``given``, by
    inclusion-exclusion over conditional joint entropies; one column gives its
    conditional entropy."""
    h_given = _oracle_h(list(given)) if given else 0.0
    terms = [
        (-1) ** (len(subset) + 1) * (_oracle_h([*subset, *given]) - h_given)
        for r in range(1, len(columns) + 1)
        for subset in itertools.combinations(columns, r)
    ]
    return math.fsum(terms)


def _oracle_quantities(by_role: dict[str, list[int]]) -> dict[str, float]:
    """Every quantity-table value (nats) of the streams keyed by role, named as
    the InfoQuantities field (``h_s_given_t``, ``i_vts``) or region (``V;T|S``)."""
    want = {}
    for name in [f.name for f in fields(InfoQuantities)][1:-1]:  # not log_base, regions
        _, roles, *given = name.split("_")  # h_s_given_t -> h, s, given, t
        if all(role.upper() in by_role for role in roles + "".join(given[1:])):
            want[name] = _oracle_mmi(
                [by_role[r.upper()] for r in roles], [by_role[r.upper()] for r in given[1:]]
            )
    if len(by_role) == 3:
        for region in REGIONS:
            left, _, right = region.partition("|")
            want[region] = _oracle_mmi(
                [by_role[r] for r in left.split(";")], [by_role[r] for r in right.split(",") if r]
            )
    return want


@st.composite
def small_streams(draw):
    """Two to four aligned symbol lists of up to 60 rows over alphabets up to
    6, and a conditioning list of the same length whose values run from one
    for every row to one per row."""
    rows = draw(st.integers(1, 60))
    columns = []
    for _ in range(draw(st.integers(2, 4))):
        alphabet = draw(st.integers(1, 6))
        columns.append(draw(st.lists(st.integers(0, alphabet - 1), min_size=rows, max_size=rows)))
    given = draw(
        st.one_of(
            st.just([0] * rows),
            st.permutations(range(rows)),
            st.integers(1, rows).flatmap(
                lambda k: st.lists(st.integers(0, k - 1), min_size=rows, max_size=rows)
            ),
        )
    )
    return columns, list(given)


@settings(max_examples=150, deadline=None)
@given(drawn=small_streams(), base=st.sampled_from(["2", "e", "10"]))
def test_the_information_functions_match_a_counting_oracle(drawn, base):
    """Each of the eight information functions agrees within 1e-12 with sums
    over counted tuples, conditioning included, at two to four streams
    (two levels of recursion) and at every base."""
    columns, given = drawn
    streams = [seq(c, max(c) + 1) for c in columns]
    g = seq(given, max(given) + 1)
    a, b = streams[:2]
    scale = math.log({"2": 2.0, "e": math.e, "10": 10.0}[base])
    got = {
        "entropy": entropy(streams, base),
        "mutual_information": mutual_information(a, b, base),
        "conditional_entropy": conditional_entropy(a, [*streams[1:], g], base),
        "conditional_mutual_information": conditional_mutual_information(streams, g, base),
        "multivariate_mi_recursive": multivariate_mi_recursive(streams, base),
        "trivariate_mmi": trivariate_mmi(a, b, g, base),
    }
    want = {
        "entropy": _oracle_h(columns),
        "mutual_information": _oracle_mmi(columns[:2]),
        "conditional_entropy": _oracle_mmi(columns[:1], [*columns[1:], given]),
        "conditional_mutual_information": _oracle_mmi(columns, [given]),
        "multivariate_mi_recursive": _oracle_mmi(columns),
        "trivariate_mmi": _oracle_mmi([columns[0], columns[1], given]),
    }
    tables = {
        "pair_quantities": (pair_quantities(a, b, base), dict(zip("TS", columns))),
        "info_diagram": (info_diagram(a, b, g, base), dict(zip("VTS", [*columns[:2], given]))),
    }
    for function, (table, by_role) in tables.items():
        for name, value in _oracle_quantities(by_role).items():
            key = f"{function}.{name}"
            got[key] = table.regions[name] if name in REGIONS else getattr(table, name)
            want[key] = value
    assert len(got) == len(want) == 6 + 5 + 13 + 7
    for name, value in want.items():
        assert abs(got[name] - value / scale) <= 1e-12, (name, got[name], value / scale)


def test_conditioning_work_does_not_grow_with_the_values_of_given(monkeypatch):
    """Conditional MI counts table cells as often given two values as given
    500: conditioning is one table pass, not one pass per value."""
    calls = []
    counted = infotheory.cell_counts
    monkeypatch.setattr(infotheory, "cell_counts", lambda arrays: calls.append(1) or counted(arrays))
    a, b = random_streams(np.random.Generator(np.random.PCG64(12)), 2, 1000)
    per_given = []
    for values in (2, 500):
        calls.clear()
        conditional_mutual_information([a, b], seq(np.arange(1000) % values, values))
        per_given.append(len(calls))
    assert per_given[0] == per_given[1]


def test_one_entropy_formula():
    """``np.log`` is called once in ``infotheory``, inside ``_h_nats``: every
    entropy, MI and conditional quantity is a signed sum of that one formula."""
    tree = ast.parse(Path(infotheory.__file__).read_text())
    homes = [
        getattr(statement, "name", None)
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "log"
        and getattr(node.value, "id", None) == "np"
    ]
    assert homes == ["_h_nats"]
