"""Partition maps and the finite-box audit, against brute-force oracles."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsid import bijections, cli, partitions
from qsid.bijections import (
    BijectionBox,
    BijectionError,
    audit_bijection,
    gamma,
    gamma_inverse,
    sigma_gamma,
    two_modular_conjugate,
)
from qsid.partitions import ConstraintSet, Partition, count_partitions, enumerate_partitions

P = Partition.parse


# ----------------------------------------------------- independent sigma oracle


def sigma_by_diagram(lam: Partition) -> Partition:
    """Materialize the 2-modular diagram and sum its columns (test oracle)."""
    rows = []
    for part in lam.parts:
        width = (part + 1) // 2
        labels = [2] * width
        if part % 2:
            labels[-1] = 1
        rows.append(labels)
    if not rows:
        return Partition()
    width = max(len(r) for r in rows)
    cols = []
    for j in range(width):
        cols.append(sum(r[j] for r in rows if len(r) > j))
    return Partition(tuple(cols))


# -------------------------------------------------------------------- gamma


def test_gamma_known_vectors():
    assert gamma(P("20,13,12,12,10"), 5) == P("10,10,10,10,10,10,3,2,2")
    assert gamma(P("20,17,13"), 5) == P("10,10,10,10,7,3")


def test_gamma_single_marker():
    for M in (1, 2, 5):
        assert gamma(Partition((2 * M,)), M) == Partition((2 * M,))


def test_gamma_empty():
    assert gamma(Partition(), 3) == Partition()


def test_gamma_preconditions():
    with pytest.raises(BijectionError):
        gamma(P("9,8"), 5)  # part below 2M
    with pytest.raises(BijectionError):
        gamma(P("11,11"), 5)  # odd part repeats
    with pytest.raises(BijectionError):
        gamma(P("4,4"), 0)  # M must be positive


def test_gamma_statistics():
    p = P("20,13,12,12,10")
    image = gamma(p, 5)
    assert image.weight == p.weight
    assert image.odd_count == p.odd_count
    assert image.largest == 10
    assert image.length == p.length + sum(1 for x in p.parts if x > 10)


# ------------------------------------------------------------- gamma inverse


def test_gamma_inverse_known_vectors():
    assert gamma_inverse(P("10,10,10,10,7,3"), 3, 5) == P("20,17,13")
    # same image, different length stratum: this is why j must be supplied
    assert gamma_inverse(P("10,10,10,10,7,3"), 4, 5) == P("17,13,10,10")
    assert gamma(P("17,13,10,10"), 5) == P("10,10,10,10,7,3")


def test_gamma_inverse_trivial_marker():
    for M in (1, 3):
        assert gamma_inverse(Partition((2 * M,)), 1, M) == Partition((2 * M,))


def test_gamma_inverse_rejects_non_images():
    with pytest.raises(BijectionError):
        gamma_inverse(P("10,7,3"), 3, 5)  # too few markers
    with pytest.raises(BijectionError):
        gamma_inverse(P("12,10"), 1, 5)  # part above 2M
    with pytest.raises(BijectionError):
        gamma_inverse(P("10,10,7,3,2"), 2, 5)  # too many remainders


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_gamma_roundtrip_random(M, data):
    # parts within [2M, 4M], so every remainder stays within the marker bound
    j = data.draw(st.integers(1, 4))
    parts = sorted(
        data.draw(st.lists(st.integers(2 * M, 4 * M), min_size=j, max_size=j)),
        reverse=True,
    )
    seen_odd = set()
    cleaned = []
    for x in parts:
        if x % 2:
            if x in seen_odd:
                continue
            seen_odd.add(x)
        cleaned.append(x)
    p = Partition(tuple(sorted(cleaned, reverse=True)))
    assert gamma_inverse(gamma(p, M), p.length, M) == p


# ---------------------------------------------------------------- conjugation


def test_sigma_known_vectors():
    assert two_modular_conjugate(P("10,10,10,10,10,10,3,2,2")) == P("18,13,12,12,12")
    assert two_modular_conjugate(P("12,12,12,8,5,1")) == P("11,10,9,8,6,6")
    # column-sum value for the marked form of the three-part example;
    # weight preservation (50) pins this vector
    assert two_modular_conjugate(P("10,10,10,10,7,3")) == P("12,11,10,9,8")


def test_sigma_rejects_repeated_odd():
    with pytest.raises(BijectionError):
        two_modular_conjugate(P("5,5,2"))


def test_sigma_empty():
    assert two_modular_conjugate(Partition()) == Partition()


def _odd_distinct_upto(weight_cap):
    return enumerate_partitions(
        ConstraintSet(weight_min=0, weight_max=weight_cap, odd_parts_distinct=True)
    )


def test_sigma_matches_diagram_oracle():
    for p in _odd_distinct_upto(16):
        assert two_modular_conjugate(p) == sigma_by_diagram(p)


def test_sigma_involution_and_statistics_small():
    for p in _odd_distinct_upto(18):
        image = two_modular_conjugate(p)
        assert two_modular_conjugate(image) == p
        assert image.weight == p.weight
        assert image.odd_count == p.odd_count
        assert image.length == (p.largest + 1) // 2
        assert (image.largest + 1) // 2 == p.length


def ordinary_conjugate(p: Partition) -> Partition:
    """Ordinary (Young diagram) conjugate, an independent cross-check."""
    return Partition(tuple(sum(1 for x in p.parts if x >= j) for j in range(1, p.largest + 1)))


def test_sigma_on_even_parts_is_doubled_ordinary_conjugate():
    for p in _odd_distinct_upto(20):
        if any(x % 2 for x in p.parts):
            continue
        halved = Partition(tuple(x // 2 for x in p.parts))
        doubled = Partition(tuple(2 * x for x in ordinary_conjugate(halved).parts))
        assert two_modular_conjugate(p) == doubled


# ------------------------------------------------------------------ composed


def test_sigma_gamma_known_vectors():
    assert sigma_gamma(P("20,13,12,12,10"), 5) == P("18,13,12,12,12")
    assert sigma_gamma(P("20,17,13"), 5) == P("12,11,10,9,8")


def test_sigma_gamma_single_part():
    for M in (1, 2, 4):
        assert sigma_gamma(Partition((2 * M,)), M) == Partition((2,) * M)


def test_sigma_gamma_box_statistics():
    # three parts in [10, 20]: images must have 5 parts, each in [6, 12]
    for p in enumerate_partitions(
        ConstraintSet(length=3, min_part=10, max_part=20, odd_parts_distinct=True)
    ):
        image = sigma_gamma(p, 5)
        assert image.length == 5
        assert all(6 <= x <= 12 for x in image.parts)


# -------------------------------------------------------------------- audits


def test_audit_box_1_2_exact_confirms_bijection():
    report = audit_bijection(BijectionBox(1, 2))
    e = report.exact
    assert report.passed
    assert e.domain_size == e.codomain_size == 5
    assert e.weight_preserved.failed == 0
    assert e.odd_count_preserved.failed == 0
    assert e.codomain_membership.failed == 0
    assert e.injective and e.surjective
    assert e.genpoly_equal
    assert e.middle_equals_domain and e.middle_equals_codomain


def test_audit_box_1_2_printed_reproduces_discrepancy():
    report = audit_bijection(BijectionBox(1, 2))
    assert not report.printed.genpoly_equal
    assert report.printed.genpoly_mismatches == [
        ((0, 2), 0, 1),
        ((1, 3), 0, 1),
        ((0, 4), 1, 2),
    ]
    # the <= reading adds exactly 1, q^2, a*q^3, q^4 to the codomain side
    assert report.le_adds_codomain == [
        ((0, 0), 1),
        ((0, 2), 1),
        ((1, 3), 1),
        ((0, 4), 1),
    ]
    assert report.le_adds_domain == [((0, 0), 1)]
    # the strict reading of the part bounds drops only the empty partition
    assert report.printed_genpoly_strict_mismatches == report.printed.genpoly_mismatches


def test_audit_symmetric_box_is_trivially_balanced():
    report = audit_bijection(BijectionBox(2, 2))
    assert report.passed
    assert report.exact.domain_size == report.exact.codomain_size


def test_audit_3_5_processes_known_vectors():
    report = audit_bijection(BijectionBox(3, 5))
    assert report.passed
    assert report.exact.domain_size == 231
    domain = enumerate_partitions(
        ConstraintSet(length=3, min_part=10, max_part=20, odd_parts_distinct=True)
    )
    assert P("20,17,13") in domain


def test_audit_enumeration_guard():
    with pytest.raises(BijectionError):
        audit_bijection(BijectionBox(3, 3), enum_limit=10)


def test_audit_guard_refuses_before_listing(monkeypatch):
    listed = []

    def recording_enumerate(c):
        listed.append(c)
        return enumerate_partitions(c)

    monkeypatch.setattr(bijections, "enumerate_partitions", recording_enumerate)
    with pytest.raises(BijectionError) as refusal:
        audit_bijection(BijectionBox(5, 8), enum_limit=10)
    assert str(refusal.value) == "box j=5, M=8 enumerates 70441 partitions, over the limit 10"
    assert listed == []
    box = BijectionBox(1, 2)
    audit_bijection(box)
    assert listed == [box.domain_constraints("printed"), box.codomain_constraints("printed")]


@pytest.mark.parametrize("j, M", [(2, 3), (3, 4), (4, 5)])
def test_family_counts_match_listed_lengths(j, M):
    box = BijectionBox(j, M)
    for variant in ("exact", "printed"):
        for c in (box.domain_constraints(variant), box.codomain_constraints(variant)):
            assert count_partitions(c) == len(enumerate_partitions(c))


@pytest.mark.parametrize("j, M", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 4)])
def test_exact_families_are_filtered_le_families(j, M):
    # the audit lists each <= family once and keeps its length-j (length-M) members
    box = BijectionBox(j, M)
    for exact, le, length in (
        (box.domain_constraints("exact"), box.domain_constraints("printed"), j),
        (box.codomain_constraints("exact"), box.codomain_constraints("printed"), M),
    ):
        filtered = [p for p in enumerate_partitions(le) if p.length == length]
        assert filtered == enumerate_partitions(exact)


def test_audit_guard_env_override(monkeypatch):
    monkeypatch.setenv("QSID_ENUM_LIMIT", "10")
    with pytest.raises(BijectionError):
        audit_bijection(BijectionBox(3, 3))


def test_audit_rejects_bad_box():
    with pytest.raises(BijectionError):
        BijectionBox(0, 2)


def test_audit_reports_revalidate():
    for box in (BijectionBox(1, 1), BijectionBox(2, 3), BijectionBox(3, 2)):
        assert audit_bijection(box).revalidate()


def test_revalidate_replays_each_witness_through_the_maps():
    report = audit_bijection(BijectionBox(2, 3))
    recorded = report.printed.codomain_membership.failures
    assert recorded and report.revalidate()
    # 12,6 lies in D(2, 3) and gamma/sigma preserve its weight: no counterexample
    report.exact.weight_preserved.failures.append(("12,6", "weight 18 -> 18"))
    assert not report.revalidate()


@pytest.mark.parametrize(
    "section, witness, note",
    [
        ("printed", "11", "image 4,4,3 in codomain"),  # a real failure, another note
        ("exact", "6", "image 2,2,2 not in codomain"),  # fails again, but not in D(2, 3)
        ("printed", "x", "image 4,4,3 not in codomain"),  # not a partition
    ],
)
def test_revalidate_rejects_witnesses_that_do_not_fail_again(section, witness, note):
    report = audit_bijection(BijectionBox(2, 3))
    getattr(report, section).codomain_membership.failures.append((witness, note))
    assert not report.revalidate()


def test_failure_notes_are_formatted_only_on_failure(monkeypatch):
    # both sections of (1, 1) pass, so no note, and no partition text in
    # one, is formatted
    monkeypatch.setattr(Partition, "text", lambda p: pytest.fail("note formatted for a pass"))
    report = audit_bijection(BijectionBox(1, 1))
    for section in (report.exact, report.printed):
        assert section.all_pass
        for name in bijections._POINTWISE:
            count = getattr(section, name)
            assert (count.passed, count.failed, count.failures) == (section.domain_size, 0, [])
    monkeypatch.undo()

    conjugate = bijections.two_modular_conjugate

    def heavier(lam):  # the conjugate with 2 added to its largest part
        parts = conjugate(lam).parts
        return Partition((parts[0] + 2, *parts[1:]) if parts else ())

    monkeypatch.setattr(bijections, "two_modular_conjugate", heavier)
    report = audit_bijection(BijectionBox(1, 1))
    domain = enumerate_partitions(BijectionBox(1, 1).domain_constraints("exact"))
    assert report.exact.weight_preserved.failures == [
        (p.text(), f"weight {p.weight} -> {p.weight + 2}") for p in domain
    ]


@pytest.mark.parametrize("j, M", [(2, 3), (3, 2), (3, 4)])
def test_one_pass_exact_failures_are_printed_failures_of_length_j(monkeypatch, j, M):
    # each element is checked once; its outcomes count in both sections
    conjugate = bijections.two_modular_conjugate

    def heavier(lam):  # the conjugate with 2 added to its largest part
        parts = conjugate(lam).parts
        return Partition((parts[0] + 2, *parts[1:]) if parts else ())

    monkeypatch.setattr(bijections, "two_modular_conjugate", heavier)
    report = audit_bijection(BijectionBox(j, M))
    failing = 0
    for name in bijections._POINTWISE:
        if name == "codomain_membership":  # tested against each section's own codomain
            continue
        exact, printed = (getattr(s, name) for s in (report.exact, report.printed))
        of_length_j = [f for f in printed.failures if P(f[0]).length == j]
        assert exact.failures == of_length_j
        assert (exact.passed, exact.failed) == (
            report.exact.domain_size - len(of_length_j), len(of_length_j)
        )
        failing += len(of_length_j)
    assert failing and not report.passed
    assert report.revalidate()


def test_one_pass_tests_membership_against_each_sections_codomain(monkeypatch):
    # an image one part short is in the printed codomain (<= M parts) but
    # not in the exact one (M parts)
    conjugate = bijections.two_modular_conjugate
    monkeypatch.setattr(bijections, "two_modular_conjugate", lambda lam: Partition(conjugate(lam)[:-1]))
    box = BijectionBox(2, 3)
    report = audit_bijection(box)
    exact = enumerate_partitions(box.domain_constraints("exact"))
    assert [w for w, _ in report.exact.codomain_membership.failures] == [p.text() for p in exact]
    assert all(P(w).length != 2 for w, _ in report.printed.codomain_membership.failures)
    assert report.revalidate()


def _gamma_mutants():
    def one_marker_short(p, M):  # drops one of the len(p) markers 2M
        marked = [x - 2 * M for x in p if x > 2 * M] + [2 * M] * (len(p) - 1)
        return Partition(sorted(marked, reverse=True))

    def markers_too_big(p, M):  # marks with 2M + 2 instead of 2M
        marked = [x - 2 * M for x in p if x > 2 * M] + [2 * M + 2] * len(p)
        return Partition(sorted(marked, reverse=True))

    return {"one marker short": one_marker_short, "markers 2M + 2": markers_too_big}


@pytest.mark.parametrize("mutant", ["one marker short", "markers 2M + 2"])
def test_inverse_refusing_a_mutant_marked_form_fails_the_round_trip(monkeypatch, mutant):
    # gamma_inverse refuses these marked forms; the refusal is the round
    # trip's failure, not an error of the audit
    monkeypatch.setattr(bijections, "gamma", _gamma_mutants()[mutant])
    report = audit_bijection(BijectionBox(2, 3))
    roundtrip = report.exact.gamma_roundtrip
    assert roundtrip.failed == report.exact.domain_size
    witness, note = roundtrip.failures[0]
    with pytest.raises(BijectionError) as refusal:
        bijections.gamma_inverse(bijections.gamma(P(witness), 3), 2, 3)
    assert note.endswith(f": {refusal.value}")
    assert report.exact.middle_bounds.failed == (mutant == "markers 2M + 2") * roundtrip.failed
    assert not report.passed and report.revalidate()


def _check_mutants():
    """Faulty maps, (patched name, faulty map): the first four each caught
    by one audit check that a check one step looser would miss, the last
    two refusing where the true map does not."""
    def extra_marker(p, M):  # one marker 2M more than len(p)
        return Partition(sorted([*gamma(p, M), 2 * M], reverse=True))

    def marker_2m_plus_1(p, M):  # one of the len(p) markers is 2M + 1
        marked = [x - 2 * M for x in p if x > 2 * M] + [2 * M + 1] + [2 * M] * (len(p) - 1)
        return Partition(sorted(marked, reverse=True))

    def raised_last(lam):  # the conjugate with its last part raised by 2 where it stays a partition
        parts = list(two_modular_conjugate(lam))
        if len(parts) > 1 and parts[-1] + 2 <= parts[-2]:
            parts[-1] += 2
        return Partition(parts)

    def extra_two(p, M):  # appends a part 2
        return Partition(sorted([*gamma(p, M), 2], reverse=True))

    def markers_2m_plus_1(p, M):  # every marker is 2M + 1, so two or more repeat
        marked = [x - 2 * M for x in p if x > 2 * M] + [2 * M + 1] * len(p)
        return Partition(sorted(marked, reverse=True))

    def refuses_2m(p, M):  # refuses a part equal to 2M, which gamma takes
        if p and p[-1] == 2 * M:
            raise BijectionError(f"every part must be > {2 * M} in {p.text()}")
        return gamma(p, M)

    return {
        "extra marker 2M": ("gamma", extra_marker),
        "marker 2M + 1": ("gamma", marker_2m_plus_1),
        "conjugate last part + 2": ("two_modular_conjugate", raised_last),
        "extra part 2": ("gamma", extra_two),
        "markers all 2M + 1": ("gamma", markers_2m_plus_1),
        "gamma refuses 2M": ("gamma", refuses_2m),
    }


@pytest.mark.parametrize("mutant, check, failed", [
    # exact-section failures at box (3, 4); None: the check is a flag
    pytest.param(mutant, check, failed, id=mutant) for mutant, check, failed in (
        ("extra marker 2M", "middle_bounds", 88),  # length one past 2j
        ("marker 2M + 1", "middle_bounds", 129),  # largest part one past 2M
        ("conjugate last part + 2", "statistic_exchange", 47),  # against the marked form's grade
        ("extra part 2", "middle_equals_domain", None),  # the gradings differ
    )
])
def test_each_audit_check_catches_its_faulty_map(monkeypatch, mutant, check, failed):
    monkeypatch.setattr(bijections, *_check_mutants()[mutant])
    report = audit_bijection(BijectionBox(3, 4))
    if failed is None:
        assert getattr(report.exact, check) is False
    else:
        assert getattr(report.exact, check).failed == failed
    assert not report.passed and report.revalidate()


def test_conjugate_refusing_an_image_fails_the_involution(monkeypatch):
    # a conjugate that refuses its own results, so every image
    conjugate, made = bijections.two_modular_conjugate, {}

    def refuses_images(lam):
        if id(lam) in made:  # ``made`` keeps each result alive, so ids stay unique
            raise BijectionError(f"refused {lam.text()}")
        image = conjugate(lam)
        made[id(image)] = image
        return image

    monkeypatch.setattr(bijections, "two_modular_conjugate", refuses_images)
    report = audit_bijection(BijectionBox(2, 3))
    involution = report.exact.sigma_involution
    assert involution.failed == report.exact.domain_size
    assert all(note.startswith("conjugate^2 of ") and ": refused " in note
               for _, note in involution.failures)
    assert not report.passed and report.revalidate()


@pytest.mark.parametrize("mutant, check, refused", [
    # at box (2, 3): the conjugate refuses every exact marked form (two
    # markers 7); gamma refuses the 7 exact elements with a part 6
    ("markers all 2M + 1", "codomain_membership", 25),
    ("gamma refuses 2M", "gamma_roundtrip", 7),
])
def test_a_map_refusing_in_the_walk_fails_one_check(monkeypatch, capsys, mutant, check, refused):
    monkeypatch.setattr(bijections, *_check_mutants()[mutant])
    report = audit_bijection(BijectionBox(2, 3))
    exact = report.exact
    assert getattr(exact, check).failed == refused
    for section in (exact, report.printed):
        failures = [w for name in bijections._POINTWISE for w, _ in getattr(section, name).failures]
        refusals = 0
        for witness, note in getattr(section, check).failures:
            try:
                bijections.two_modular_conjugate(bijections.gamma(P(witness), 3))
            except BijectionError as refusal:
                assert note.endswith(f": {refusal}")
                assert failures.count(witness) == 1  # one failure, in one check
                refusals += 1
        assert refusals == refused if section is exact else refusals >= refused
    # a refused element enters no image index: the bijection's images
    # of the refused elements are the only unhit members
    assert exact.injective and len(exact.unhit) == refused
    assert not report.passed and report.revalidate()
    assert cli.main(["audit", "--j", "2", "--M", "3"]) == 1
    assert capsys.readouterr().out.endswith("result: FAIL\n")


def test_inverse_returning_a_wrong_preimage_fails_the_round_trip(monkeypatch):
    # no refusal: the note names the marked form alone
    monkeypatch.setattr(bijections, "gamma_inverse",
                        lambda lam, j, M: Partition(gamma_inverse(lam, j, M)[1:]))
    report = audit_bijection(BijectionBox(2, 3))
    roundtrip = report.exact.gamma_roundtrip
    assert roundtrip.failed == report.exact.domain_size
    assert roundtrip.failures == [(w, f"marked form {gamma(P(w), 3).text()}")
                                  for w, _ in roundtrip.failures]
    assert not report.passed and report.revalidate()


def test_audit_refusal_sums_each_closed_form_count_once(monkeypatch):
    # with j = M the four families share one part range, so their counts
    # need only two closed-form sums, lengths <= 300 and <= 299, one
    # binomial each
    box = BijectionBox(300, 300)
    families = [f(v) for v in ("exact", "printed")
                for f in (box.domain_constraints, box.codomain_constraints)]
    total = sum(count_partitions(c) for c in families)
    partitions._up_to.cache_clear()
    binomials = []

    def counted_comb(n, k):
        binomials.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(partitions, "comb", counted_comb)
    with pytest.raises(BijectionError) as refusal:
        audit_bijection(box, enum_limit=10)
    assert str(refusal.value) == f"box j=300, M=300 enumerates {total} partitions, over the limit 10"
    assert len(binomials) == len(set(binomials)) == 2  # one per distinct count


@pytest.mark.parametrize("j, M", [(2, 3), (3, 4)])
def test_image_index_matches_brute_force_preimages(monkeypatch, j, M):
    # a conjugate cut to its first two parts sends many marked forms to
    # one image; collisions and unhit members must match a map of each
    # image to all its preimages
    conjugate = bijections.two_modular_conjugate

    def first_two(lam):
        return Partition(conjugate(lam)[:2])

    monkeypatch.setattr(bijections, "two_modular_conjugate", first_two)
    box = BijectionBox(j, M)
    report = audit_bijection(box)
    for section in (report.exact, report.printed):
        preimages = {}
        for p in enumerate_partitions(box.domain_constraints(section.variant)):
            preimages.setdefault(first_two(gamma(p, M)), []).append(p.text())
        collisions = [(image.text(), sorted(group))
                      for image, group in sorted(preimages.items(), reverse=True)
                      if len(group) > 1]
        codomain = enumerate_partitions(box.codomain_constraints(section.variant))
        unhit = [c.text() for c in sorted(codomain, reverse=True) if c not in preimages]
        assert collisions and unhit
        assert (section.collisions, section.unhit) == (collisions, unhit)
        assert not section.injective and not section.surjective
    assert report.revalidate()


def test_audit_grades_each_element_once(monkeypatch):
    # the walk grades each partition from its parts once and the codomain
    # from its own listing; neither reads the odd_count or weight property
    # element by element
    reads = []
    for name in ("odd_count", "weight"):
        getter = getattr(Partition, name).fget

        def counted(p, getter=getter):
            reads.append(p)
            return getter(p)

        monkeypatch.setattr(Partition, name, property(counted))
    box = BijectionBox(3, 4)
    report = audit_bijection(box)
    assert report.passed
    codomain = enumerate_partitions(box.codomain_constraints("printed"))
    assert len(reads) <= len(codomain)
