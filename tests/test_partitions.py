"""Partitions: values, enumeration oracle, generating polynomials, the enumerate writer."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsid.cli import enumerate_report_json
from qsid.partitions import (
    ConstraintSet,
    Partition,
    UnboundedConstraintError,
    count_partitions,
    enumerate_partitions,
    generating_polynomial,
    series_vs_enumeration_check,
)
from qsid.series import (
    MONO_ONE,
    SeriesError,
    TruncatedSeries,
    TruncationProfile,
    invert_one_minus,
    pochhammer_infinite,
)


# ------------------------------------------------------------------- values


def test_partition_statistics():
    p = Partition.parse("20,13,12,12,10")
    assert p.weight == 67
    assert p.length == 5
    assert p.odd_count == 1
    assert p.largest == 20
    assert p.smallest == 10
    assert p.text() == "20,13,12,12,10"


def test_empty_partition():
    p = Partition.parse("")
    assert p == Partition.parse("()")
    assert p.weight == 0 and p.length == 0 and p.odd_count == 0
    assert p.largest == 0 and p.smallest == 0
    assert p.text() == "()"


def test_partition_validation():
    with pytest.raises(SeriesError):
        Partition((1, 2))
    with pytest.raises(SeriesError):
        Partition((3, 0))
    with pytest.raises(SeriesError):
        Partition.parse("3,x")


def test_odd_distinct_examples():
    assert not Partition.parse("3,1,1").is_odd_distinct()
    assert Partition.parse("20,13,12,12,10").is_odd_distinct()
    assert Partition().is_odd_distinct()


# -------------------------------------------------------------- enumeration


def test_enumerate_weight5_odd_distinct():
    got = enumerate_partitions(ConstraintSet(weight=5, odd_parts_distinct=True))
    assert [p.text() for p in got] == ["5", "4,1", "3,2", "2,2,1"]


def test_enumerate_weight0():
    assert enumerate_partitions(ConstraintSet(weight=0)) == [Partition()]


def test_enumerate_single_part_window():
    got = enumerate_partitions(
        ConstraintSet(length=1, min_part=4, max_part=8, odd_parts_distinct=True)
    )
    assert [p.text() for p in got] == ["8", "7", "6", "5", "4"]


def test_enumerate_all_weight5():
    got = enumerate_partitions(ConstraintSet(weight=5))
    assert len(got) == 7  # classical partition count p(5)
    assert got == sorted(got, key=lambda p: p.parts, reverse=True)
    assert len(set(got)) == len(got)


FAMILIES = [
    ConstraintSet(weight=9),
    ConstraintSet(weight=12, odd_parts_distinct=True),
    ConstraintSet(weight_min=4, weight_max=9, max_part=5),
    ConstraintSet(weight_max=0),
    ConstraintSet(length=3, min_part=2, max_part=7, odd_parts_distinct=True),
    ConstraintSet(max_length=3, min_part=4, max_part=8, odd_parts_distinct=True),
    ConstraintSet(weight_min=6, weight_max=10, max_length=2),
]


@pytest.mark.parametrize("c", FAMILIES)
def test_enumeration_order_is_descending_lex(c):
    got = enumerate_partitions(c)
    assert got == sorted(set(got), key=lambda p: p.parts, reverse=True)
    assert got


@pytest.mark.parametrize("c", FAMILIES)
def test_enumerated_values_pass_the_partition_check(c):
    # the enumerator builds its values without the check Partition(parts) runs
    for p in enumerate_partitions(c):
        assert type(p) is Partition
        assert Partition(tuple(p)) == p


# ----------------------------------------------------------- enumerate writer


def _dumped(found):
    return json.dumps({"count": len(found), "partitions": [list(p) for p in found]}, indent=2)


@pytest.mark.parametrize("c", FAMILIES + [ConstraintSet(weight=3, min_part=5)])
def test_enumerate_writer_matches_json_dumps(c):
    found = enumerate_partitions(c)
    assert enumerate_report_json(found) == _dumped(found)


_PARTITIONS = st.lists(st.integers(1, 10**6), max_size=6).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@given(st.lists(_PARTITIONS, max_size=8))
@settings(max_examples=200, deadline=None)
def test_enumerate_writer_matches_json_dumps_on_any_family(found):
    assert enumerate_report_json(found) == _dumped(found)


@given(
    st.sampled_from(["weight", "range", "max", "min"]),
    st.integers(0, 16),
    st.integers(0, 8),
    st.one_of(st.none(), st.integers(1, 4)),
    st.one_of(st.none(), st.integers(1, 9)),
    st.sampled_from([None, "length", "max_length"]),
    st.integers(0, 6),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_count_matches_enumeration_on_weight_windows(
    window, w, span, min_part, max_part, length_kind, length, odd_distinct
):
    weights = {
        "weight": {"weight": w},
        "range": {"weight_min": w, "weight_max": w + span},
        "max": {"weight_max": w},
        # a lower weight bound alone needs part and length bounds to be finite
        "min": {"weight_min": w},
    }[window]
    if window == "min" and (max_part is None or length_kind is None):
        max_part, length_kind = max_part or 5, length_kind or "max_length"
    c = ConstraintSet(
        min_part=min_part,
        max_part=max_part,
        odd_parts_distinct=odd_distinct,
        **weights,
        **({length_kind: length} if length_kind else {}),
    )
    assert count_partitions(c) == len(enumerate_partitions(c))


@given(
    st.one_of(st.none(), st.integers(1, 4)),
    st.integers(1, 7),
    st.sampled_from(["length", "max_length"]),
    st.integers(0, 5),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_count_without_weight_window_matches_dp_and_enumeration(
    min_part, max_part, length_kind, length, odd_distinct
):
    # With no weight window the count is a closed form in the part range;
    # a weight_max every member meets already sends the same family
    # through the DP.
    c = ConstraintSet(
        min_part=min_part,
        max_part=max_part,
        odd_parts_distinct=odd_distinct,
        **{length_kind: length},
    )
    through_dp = replace(c, weight_max=max_part * length)
    assert count_partitions(c) == count_partitions(through_dp) == len(enumerate_partitions(c))


def test_count_families_too_large_to_list():
    assert count_partitions(ConstraintSet(weight_max=40, odd_parts_distinct=True)) == 33772
    assert count_partitions(ConstraintSet(weight=200, odd_parts_distinct=True)) == 37334688015
    # pairs from 10^8 values: C(10^8 + 1, 2) of length 2, 10^8 of length 1, one empty
    assert count_partitions(ConstraintSet(max_part=10**8, max_length=2)) == (
        (10**8 + 1) * 10**8 // 2 + 10**8 + 1
    )


def test_enumerate_unbounded_raises():
    with pytest.raises(UnboundedConstraintError):
        enumerate_partitions(ConstraintSet(min_part=2))
    with pytest.raises(UnboundedConstraintError):
        count_partitions(ConstraintSet(min_part=2))
    with pytest.raises(UnboundedConstraintError):
        enumerate_partitions(ConstraintSet(max_part=5))  # no length bound


def test_constraint_validation():
    with pytest.raises(SeriesError):
        ConstraintSet(weight=3, weight_max=5)
    with pytest.raises(SeriesError):
        ConstraintSet(length=2, max_length=3)
    with pytest.raises(SeriesError):
        ConstraintSet(min_part=0)


@given(
    st.integers(0, 14),
    st.integers(1, 4),
    st.integers(1, 10),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_enumeration_satisfies_constraints(weight, min_part, max_part, odd_distinct):
    if min_part > max_part:
        min_part, max_part = max_part, min_part
    c = ConstraintSet(
        weight=weight,
        min_part=min_part,
        max_part=max_part,
        odd_parts_distinct=odd_distinct,
    )
    got = enumerate_partitions(c)
    assert got == sorted(got, key=lambda p: p.parts, reverse=True)
    assert len(set(got)) == len(got)
    for p in got:
        assert c.satisfied_by(p)
        assert type(p) is Partition and Partition(tuple(p)) == p


def test_enumeration_against_brute_force_filter():
    # independent oracle: compositions-free brute force over bounded tuples
    def brute(weight, max_part):
        out = set()

        def rec(prefix, remaining, cap):
            if remaining == 0:
                out.add(tuple(prefix))
                return
            for v in range(min(cap, remaining), 0, -1):
                prefix.append(v)
                rec(prefix, remaining - v, v)
                prefix.pop()

        rec([], weight, max_part)
        return out

    for w in range(0, 11):
        got = {p.parts for p in enumerate_partitions(ConstraintSet(weight=w))}
        assert got == brute(w, max(w, 1)) if w else got == {()}


# --------------------------------------------------- generating polynomials


def test_generating_polynomial_single_part_window():
    c = ConstraintSet(length=1, min_part=4, max_part=8, odd_parts_distinct=True)
    got = generating_polynomial(c, 100)
    assert got.counts == {(0, 4): 1, (1, 5): 1, (0, 6): 1, (1, 7): 1, (0, 8): 1}
    assert str(got) == "q^4 + a*q^5 + q^6 + a*q^7 + q^8"


def test_generating_polynomial_pair_window_matches():
    d = ConstraintSet(length=1, min_part=4, max_part=8, odd_parts_distinct=True)
    c = ConstraintSet(length=2, min_part=2, max_part=4, odd_parts_distinct=True)
    assert generating_polynomial(d, 50).counts == generating_polynomial(c, 50).counts


def test_generating_polynomial_empty_and_cap():
    got = generating_polynomial(ConstraintSet(weight_max=0), 0)
    assert got.counts == {(0, 0): 1}
    # an exact weight above the cap contributes nothing
    assert generating_polynomial(ConstraintSet(weight=5), 3).counts == {}


def test_generating_polynomial_totals_match_enumeration():
    c = ConstraintSet(weight_max=12, odd_parts_distinct=True)
    gp = generating_polynomial(c, 12)
    assert gp.total() == len(enumerate_partitions(c))


def test_odd_distinct_counts_match_product_series():
    cap = 24  # acceptance runs the full 40; keep unit test quick
    prof = TruncationProfile(0, 0, 0, cap)
    numer = pochhammer_infinite(-1, MONO_ONE, 1, 2, prof)
    series = numer
    m = 2
    while m <= cap:
        series = series * invert_one_minus(TruncatedSeries.term(prof, 1, e_q=m))
        m += 2
    counts = {
        w: len(enumerate_partitions(ConstraintSet(weight=w, odd_parts_distinct=True)))
        for w in range(cap + 1)
    }
    for w in range(cap + 1):
        assert series.terms.get((0, 0, 0, w), 0) == counts[w], f"weight {w}"


# ------------------------------------------------- series vs enumeration


def test_window_zero_is_formal_geometric_stratum():
    report = series_vs_enumeration_check(0, TruncationProfile(3, 5, 3, 10))
    assert report.verified
    assert "1/(1-b)" in report.details["reading"]


@pytest.mark.parametrize("n,cap_q", [(1, 8), (2, 16)])
def test_window_matches_enumeration(n, cap_q):
    report = series_vs_enumeration_check(n, TruncationProfile(4, 6, 4, cap_q))
    assert report.verified
    assert report.details["reading"] == f"parts in [{2*n}, {4*n}]"


def test_window_requires_t_cap():
    with pytest.raises(SeriesError):
        series_vs_enumeration_check(5, TruncationProfile(2, 2, 2, 8))
