"""Partitions: values, enumeration oracle, generating polynomials, the enumerate writer."""

import inspect
import json
import sys
from dataclasses import replace
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsid import cli, identities, partitions
from qsid.cli import EXIT_OK, EXIT_USAGE, main, report_json
from qsid.identities import build_eq31_partition_side, build_eq31_side, run_case
from qsid.partitions import (
    ConstraintSet,
    Partition,
    UnboundedConstraintError,
    count_partitions,
    GeneratingPolynomial,
    PartitionFamily,
    SuffixList,
    enumerate_partitions,
    partition_family,
)
from qsid.series import (
    MONO_ONE,
    SeriesError,
    TruncatedSeries,
    TruncationProfile,
    compare_series,
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
    assert p.text() == "20,13,12,12,10"


def test_empty_partition():
    p = Partition.parse("")
    assert p == Partition.parse("()")
    assert p.weight == 0 and p.length == 0 and p.odd_count == 0
    assert p.largest == 0
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


@given(st.lists(st.integers(1, 9), max_size=12))
@example([3, 3])
@example([7, 5, 5, 5, 2, 2])
def test_odd_distinct_scan_matches_the_set_definition(parts):
    # the scan reads adjacent parts only, which is exact on weakly decreasing parts
    p = Partition(sorted(parts, reverse=True))
    odds = [x for x in p if x % 2]
    assert p.is_odd_distinct() == (len(odds) == len(set(odds)))


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


def reference_enumerate(c: ConstraintSet):
    """Private copy of the recursive enumerator that preceded the shared-suffix one."""
    w_hi_eff, l_hi_eff = c.effective_bounds()
    w_lo, w_hi = c.weight_window()
    l_lo, l_hi = c.length_window()
    w_hi = w_hi_eff if w_hi is None else w_hi
    l_hi = l_hi_eff if l_hi is None else l_hi
    lo_part = c.min_part or 1
    hi_part = c.max_part if c.max_part is not None else w_hi

    distinct = c.odd_parts_distinct
    found = []
    stack = []

    def rec(top, weight):
        depth = len(stack)
        if depth < l_hi:
            for v in range(min(top, w_hi - weight), lo_part - 1, -1):
                stack.append(v)
                rec(v - 1 if distinct and v & 1 else v, weight + v)
                stack.pop()
        if w_lo <= weight and l_lo <= depth:
            found.append(tuple(stack))

    rec(hi_part, 0)
    return found


def _matches_reference(c):
    got = enumerate_partitions(c)
    assert all(type(p) is Partition for p in got)
    assert list(map(tuple, got)) == reference_enumerate(c)  # order included
    return got


@st.composite
def constraint_sets(draw):
    """Finite ConstraintSets: any weight window (none, exact, range, max or
    min), length bound (none, exact or max), part bounds and odd-distinct flag."""
    window = draw(st.sampled_from([None, "weight", "range", "max", "min"]))
    w, span = draw(st.integers(0, 16)), draw(st.integers(0, 8))
    min_part = draw(st.one_of(st.none(), st.integers(1, 4)))
    max_part = draw(st.one_of(st.none(), st.integers(1, 10)))
    length_kind = draw(st.sampled_from([None, "length", "max_length"]))
    length, odd_distinct = draw(st.integers(0, 6)), draw(st.booleans())
    weights = {
        None: {},
        "weight": {"weight": w},
        "range": {"weight_min": w, "weight_max": w + span},
        "max": {"weight_max": w},
        "min": {"weight_min": w},
    }[window]
    if window in (None, "min") and (max_part is None or length_kind is None):
        # without an upper weight bound the family needs part and length bounds
        max_part, length_kind = max_part or 5, length_kind or "max_length"
    return ConstraintSet(
        min_part=min_part,
        max_part=max_part,
        odd_parts_distinct=odd_distinct,
        **weights,
        **({length_kind: length} if length_kind else {}),
    )


@given(constraint_sets())
@settings(max_examples=300, deadline=None)
def test_enumeration_matches_the_recursive_reference(c):
    _matches_reference(c)


@pytest.mark.parametrize("c", [
    ConstraintSet(weight_max=30),
    ConstraintSet(weight_max=30, odd_parts_distinct=True),
    ConstraintSet(weight=30, odd_parts_distinct=True),
    ConstraintSet(weight_min=20, weight_max=30, max_length=7),
    ConstraintSet(max_part=12, max_length=6, odd_parts_distinct=True),
    ConstraintSet(min_part=10, max_part=20, max_length=5, odd_parts_distinct=True),
    ConstraintSet(weight_max=30, min_part=2, max_part=8, max_length=6, odd_parts_distinct=True),
])
def test_enumeration_past_the_suffix_cut_matches_the_reference(c):
    # families with more members than one kept suffix list holds
    assert len(_matches_reference(c)) > partitions._SUFFIX_CUT


# ----------------------------------------------------------- enumerate writer


def _dumped(found):
    return json.dumps({"count": len(found), "partitions": [list(p) for p in found]}, indent=2)


_FLAGS = {"weight": "--weight", "weight_min": "--min-weight", "weight_max": "--max-weight",
          "min_part": "--min-part", "max_part": "--max-part", "length": "--length",
          "max_length": "--max-length"}


def _enumerate_outputs(c):
    """(JSON, text) that ``qsid enumerate`` writes for ``c``."""
    argv = ["enumerate", *(["--odd-distinct"] if c.odd_parts_distinct else [])]
    for name, flag in _FLAGS.items():
        if getattr(c, name) is not None:
            argv += [flag, str(getattr(c, name))]
    code, to_json, to_text = cli.cmd_enumerate(cli.build_parser().parse_args(argv))
    assert code == EXIT_OK
    return "".join(to_json()), "".join(to_text())


# families the block writer has a case for: none, the root list alone (with
# and without the empty partition), and blocks past the cut ending in ((), [()])
WRITER_FAMILIES = {
    "empty family": ConstraintSet(weight=3, min_part=5),
    "empty partition only": ConstraintSet(weight_max=0),
    "one list without the empty partition": ConstraintSet(weight=12, odd_parts_distinct=True),
    "one list with the empty partition": ConstraintSet(weight_max=8, odd_parts_distinct=True),
    "past the cut with the empty partition": ConstraintSet(weight_max=16),
    "past the cut, window and part bounds": ConstraintSet(
        weight_min=10, weight_max=20, min_part=2, max_part=9, max_length=6),
    "past the cut, exact length": ConstraintSet(max_part=12, length=4, odd_parts_distinct=True),
}


def _written_as_members(c):
    """The block writer's JSON and text for ``c`` equal those of its members, listed."""
    found = enumerate_partitions(c)
    family = partition_family(c)
    assert len(family) == len(found)
    assert report_json({"count": len(family), "partitions": family}) == _dumped(found)
    as_json, as_text = _enumerate_outputs(c)
    assert as_json == _dumped(found)
    assert as_text == "\n".join(p.text() for p in found)
    # the family's lists hold every block's list, each after its children
    ids, seen = {id(kept) for kept in family.lists}, set()
    for kept in family.lists:
        assert all(id(child) in seen for _, child in kept.children if id(child) in ids)
        seen.add(id(kept))
    assert all(id(kept) in seen for prefix, kept in family.blocks if prefix)
    # the lists written beside the blocks' hold no more suffixes than they do
    assert sum(map(len, _written_beside_blocks(family))) <= sum(map(len, _block_lists(family)))
    return family


def _block_lists(family):
    return list({id(kept): kept for _, kept in family.blocks}.values())


def _written_beside_blocks(family):
    """The lists the writer builds texts for that no block holds."""
    blocks = {id(kept) for _, kept in family.blocks}
    return [kept for kept in family.lists if id(kept) not in blocks]


@pytest.mark.parametrize("c", FAMILIES + [
    ConstraintSet(weight=3, min_part=5),
    ConstraintSet(weight_max=40, odd_parts_distinct=True),  # the benchmark's p90 family
])
def test_enumerate_writer_matches_json_dumps(c):
    _written_as_members(c)


def test_deep_family_is_written_without_recursion():
    # kept lists nest 255 deep here, each read only by the next: the writer
    # neither recurses into them nor writes them, only the blocks' lists,
    # so it builds no more text than the blocks' suffixes hold, and the
    # family lets go of every list below the one its block list reads
    c = ConstraintSet(max_part=1, weight_max=600)
    family = partition_family(c)
    assert (len(family), len(family.blocks)) == (601, 346)
    assert max(len(s) for _, kept in family.blocks for s in kept) == 255
    assert _written_beside_blocks(family) == []
    held = {id(kept): kept for _, kept in family.blocks}
    for kept in list(held.values()):
        held.update((id(child), child) for _, child in kept.children)
    assert sorted(map(len, held.values())) == [1, 255, 256]
    assert all(not kept.children for kept in held.values() if len(kept) < 256)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        _written_as_members(c)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("c", WRITER_FAMILIES.values(), ids=WRITER_FAMILIES)
def test_block_writer_cases_are_reached(c):
    family = _written_as_members(c)
    blocks = family.blocks
    if not family.size:
        assert blocks == []
    elif len(family) <= partitions._SUFFIX_CUT:
        assert [prefix for prefix, _ in blocks] == [()]
    else:
        assert len(blocks) > 1 and all(prefix for prefix, _ in blocks[:-1])
    if c.weight_window()[0] == 0 and c.length_window()[0] == 0:
        assert blocks[-1][0] + blocks[-1][1][-1] == ()  # the empty partition, last


@given(constraint_sets())
@settings(max_examples=300, deadline=None)
def test_block_writer_matches_json_dumps_and_text(c):
    _written_as_members(c)


for _c in WRITER_FAMILIES.values():  # drawn on every run, whatever the seed
    test_block_writer_matches_json_dumps_and_text = example(_c)(
        test_block_writer_matches_json_dumps_and_text
    )


def test_blocks_share_their_suffix_lists():
    # the writer writes each distinct list once: far fewer suffixes than members
    family = partition_family(ConstraintSet(weight_max=40, odd_parts_distinct=True))
    lists = _block_lists(family)
    assert len(family) == 33772
    assert len(lists) < len(family.blocks)
    assert sum(map(len, lists)) < len(family) / 4
    # 31 of the 36 lists below the blocks' are read twice or more: their
    # texts are built once, and 279 suffixes are written over them
    beside = _written_beside_blocks(family)
    assert (len(lists), len(beside), sum(map(len, beside))) == (109, 31, 279)


@st.composite
def _block_families(draw):
    """Families of any blocks, drawn over a few suffix lists that blocks share.

    Each list is composed as the search composes its lists, through
    ``SuffixList``, from drawn ``(part, child list)`` pairs over the lists
    drawn before it, with or without the empty suffix; empty lists are
    children only, as in a family, and the nonempty ones, in the order
    drawn, are the family's lists.
    """
    part = st.integers(1, 10**6)
    lists = [SuffixList([], False), SuffixList([], True)]
    for _ in range(draw(st.integers(0, 5))):
        children = draw(st.lists(st.tuples(part, st.sampled_from(lists)), max_size=3))
        lists.append(SuffixList(children, draw(st.booleans())))
    kept = [suffixes for suffixes in lists if suffixes]
    prefixes = st.lists(part, max_size=4).map(tuple)
    return PartitionFamily(draw(st.lists(st.tuples(prefixes, st.sampled_from(kept)), max_size=6)),
                           kept)


@given(_block_families())
@settings(max_examples=200, deadline=None)
def test_block_writer_matches_json_dumps_on_any_blocks(family):
    rows = [prefix + s for prefix, kept in family.blocks for s in kept]
    assert report_json({"count": len(family), "partitions": family}) == json.dumps(
        {"count": len(rows), "partitions": [list(row) for row in rows]}, indent=2
    )
    assert "".join(family.chunks("", ",", "", "()", "\n")) == "\n".join(
        ",".join(map(str, row)) or "()" for row in rows
    )


_PARTITIONS = st.lists(st.integers(1, 10**6), max_size=6).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


@given(st.lists(_PARTITIONS, max_size=8))
@settings(max_examples=200, deadline=None)
def test_enumerate_writer_matches_json_dumps_on_any_family(found):
    assert report_json({"count": len(found), "partitions": found}) == _dumped(found)


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


def stepped_count_by_length(lo, hi, l_lo, l_hi, odd_distinct):
    """Private copy of the closed-form count that stepped each term from the last."""
    n_values = max(0, hi - lo + 1)
    n_odd = max(0, (hi + 1) // 2 - lo // 2) if odd_distinct else 0
    n_rep = n_values - n_odd

    def up_to(l):
        term = total = comb(n_rep + l, l) if l >= 0 else 0
        for k in range(min(n_odd, l)):
            term = term * ((n_odd - k) * (l - k)) // ((k + 1) * (n_rep + l - k))
            total += term
        return total

    return up_to(l_hi) - up_to(l_lo - 1)


@given(
    st.integers(1, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(["length", "max_length"]),
    st.integers(0, 300),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_count_by_binary_splitting_matches_the_stepped_sum(
    min_part, extra, length_kind, length, odd_distinct
):
    c = ConstraintSet(
        min_part=min_part,
        max_part=min_part + extra,
        odd_parts_distinct=odd_distinct,
        **{length_kind: length},
    )
    l_lo = length if length_kind == "length" else 0
    assert count_partitions(c) == stepped_count_by_length(
        min_part, min_part + extra, l_lo, length, odd_distinct
    )


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    n = sys.getrecursionlimit() + 50
    assert enumerate_partitions(ConstraintSet(weight=n, max_part=1)) == [Partition((1,) * n)]
    twos = enumerate_partitions(ConstraintSet(weight=n, max_part=2))
    assert twos == [(2,) * k + (1,) * (n - 2 * k) for k in range(n // 2, -1, -1)]


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


def generating_polynomial(c: ConstraintSet, weight_cap: int) -> GeneratingPolynomial:
    """Generating polynomial of the family, restricted to weight <= cap."""
    if c.weight is not None:
        if c.weight > weight_cap:
            return GeneratingPolynomial({})
        return GeneratingPolynomial.from_partitions(enumerate_partitions(c))
    top = weight_cap if c.weight_max is None else min(c.weight_max, weight_cap)
    return GeneratingPolynomial.from_partitions(enumerate_partitions(replace(c, weight_max=top)))


def test_generating_polynomial_single_part_window():
    c = ConstraintSet(length=1, min_part=4, max_part=8, odd_parts_distinct=True)
    got = generating_polynomial(c, 100)
    assert got.counts == {(0, 4): 1, (1, 5): 1, (0, 6): 1, (1, 7): 1, (0, 8): 1}


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
    assert sum(gp.counts.values()) == len(enumerate_partitions(c))


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


# eq3_1_partitions: the t^n coefficient of the even-step side counts the
# odd-distinct partitions with parts in [2n, 4n]; its t^0 stratum is 1/(1-b).
PARTITION_PROFILES = [
    (3, 5, 3, 10),
    (4, 6, 4, 8),
    (4, 6, 4, 16),
    (1, 6, 5, 30),  # partitions with two odd parts exist, and a^2 is over the cap
    (0, 4, 4, 20),
    (3, 5, 0, 10),  # the t^0 stratum alone
    (3, 0, 3, 10),  # each window holds only the empty partition
]


@pytest.mark.parametrize("caps", PARTITION_PROFILES, ids=str)
def test_even_step_side_matches_enumerated_partitions(caps):
    report = run_case("eq3_1_partitions", profile=TruncationProfile(*caps))
    assert report.verified
    assert report.details["joint_valid_to_q"] == caps[3]
    assert report.details["reading"].startswith("t^n (n >= 1): odd-distinct partitions")


def test_partition_side_reads_each_window():
    prof = TruncationProfile(1, 6, 5, 30)
    side = build_eq31_partition_side(prof)
    assert side == build_eq31_side(prof)
    # window 2, parts in [4, 8], four parts of weight 28: 8+8+8+4 and 8+8+6+6;
    # 8+8+7+5 has two odd parts, over cap_a
    assert side.terms[(0, 4, 2, 28)] == 2
    # window 3, parts in [6, 12], two parts of weight 21: 12+9 and 11+10
    assert side.terms[(1, 2, 3, 21)] == 2
    assert not any(m[0] > prof.cap_a for m in side.terms)
    for k in range(prof.cap_b + 1):
        assert side.terms[(0, k, 0, 0)] == 1


def test_partition_case_refuses_over_the_limit_before_listing(monkeypatch, capsys):
    prof = TruncationProfile(4, 6, 4, 16)
    total = sum(
        count_partitions(
            ConstraintSet(weight_max=16, min_part=2 * n, max_part=4 * n, max_length=6,
                          odd_parts_distinct=True)
        )
        for n in range(1, 5)
    )
    argv = ["verify", "--identity", "eq3_1_partitions", "--amax", "4", "--bmax", "6",
            "--tmax", "4", "--qmax", "16"]
    monkeypatch.setenv("QSID_ENUM_LIMIT", str(total))
    assert run_case("eq3_1_partitions", profile=prof).verified

    def never(c):
        raise AssertionError("a family was listed")

    monkeypatch.setattr(identities, "enumerate_partitions", never)
    monkeypatch.setenv("QSID_ENUM_LIMIT", str(total - 1))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the partition windows enumerate {total} partitions, "
        f"over the limit {total - 1}\n"
    )


def test_term_map_side_compares_with_the_packed_side():
    # The enumerated side is packed from a term map; the series side is built on rows.
    prof = TruncationProfile(3, 5, 3, 14)
    enumerated, packed = build_eq31_partition_side(prof), build_eq31_side(prof)
    assert compare_series(enumerated, packed) == ([], 1) and enumerated == packed
    terms = dict(enumerated.terms)
    terms[(1, 2, 2, 13)] = terms.get((1, 2, 2, 13), 0) + 1
    wrong = TruncatedSeries(prof, terms)
    assert compare_series(packed, wrong) == (
        [(13, 1, 2, 2, packed.terms.get((1, 2, 2, 13), 0), terms[(1, 2, 2, 13)])], 1
    )
    assert wrong != packed
