"""The subtract-and-mark map, 2-modular conjugation, and the finite-box audit.

Two maps act on odd-distinct partitions.

``gamma(p, M)`` (subtract-and-mark): every part of p must be >= 2M; the
map removes 2M from each part (dropping zero remainders) and appends one
marker part equal to 2M per original part.  Weight and the number of odd
parts are preserved, the image's largest part is exactly 2M, and the map
is reversible once the original number of parts is known (images alone do
not determine it: with M = 5, both (20,17,13) and (17,13,10,10) map to
(10,10,10,10,7,3)).

``two_modular_conjugate(lam)`` reads lam as a 2-modular diagram (row i has
ceil(lam_i / 2) cells labeled 2, except a trailing 1 when lam_i is odd)
and returns the column sums:

    result_j = 2 * #{i : lam_i >= 2j} + #{i : lam_i = 2j - 1}.

On odd-distinct partitions this is an involution that preserves weight and
the odd-part count and exchanges the number of parts with ceil(largest/2).

The audit enumerates a finite box D(j, M) = odd-distinct partitions with
parts in [2M, 4M] and j parts (exact variant; the printed variant reads
the length bound as <= j), applies the composition, and checks every
claimed property against brute force, including the generating-polynomial
identity between D(j, M) and C(j, M) = D(M, j)-shaped codomain.  One walk
over the printed domain reads each element's statistics once and records
per section only what the report holds: each property's failures, the
(odd count, weight) gradings of the domain and of the marked forms, the
set of marked forms and the image index.  The index maps each image to
its first preimage and keeps a list of preimages only for an image hit
twice or more: the collisions are read from those lists, the unhit
codomain members from the index.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Set, Tuple

from .partitions import (
    ConstraintSet,
    GeneratingPolynomial,
    Partition,
    enumerate_partitions,
    env_enum_limit,
    graded,
    refuse_over_limit,
)
from .series import SeriesError

__all__ = [
    "AuditReport",
    "BijectionBox",
    "BijectionError",
    "MapAudit",
    "PropertyCount",
    "audit_bijection",
    "gamma",
    "gamma_inverse",
    "sigma_gamma",
    "two_modular_conjugate",
]

class BijectionError(SeriesError):
    """A map precondition was violated."""


def gamma(p: Partition, M: int) -> Partition:
    """Subtract 2M from every part and mark each with a separate part 2M.

    Requires M >= 1, odd parts distinct, and every part >= 2M.
    """
    if M < 1:
        raise BijectionError(f"M must be >= 1, got {M}")
    if not p.is_odd_distinct():
        raise BijectionError(f"odd parts repeat in {p.text()}")
    two_m = 2 * M
    if p and p[-1] < two_m:
        raise BijectionError(f"every part must be >= {two_m} in {p.text()}")
    marked = [x - two_m for x in p if x > two_m] + [two_m] * len(p)
    marked.sort(reverse=True)
    return tuple.__new__(Partition, marked)  # valid by construction


def gamma_inverse(lam: Partition, j: int, M: int) -> Partition:
    """Invert ``gamma`` on its length-j stratum.

    ``lam`` must contain at least j parts equal to 2M, no part above 2M,
    and at most j parts other than those j markers; the preimage has j
    parts, one 2M + remainder per leftover part, padded with parts 2M.
    """
    if M < 1:
        raise BijectionError(f"M must be >= 1, got {M}")
    if j < 0:
        raise BijectionError(f"j must be >= 0, got {j}")
    two_m = 2 * M
    if lam and lam[0] > two_m:
        raise BijectionError(f"every part must be <= {two_m} in {lam.text()}")
    markers = lam.count(two_m)
    if markers < j:
        raise BijectionError(
            f"{lam.text()} has {markers} parts equal to {two_m}, needs at least {j}"
        )
    # every part is <= 2M, so the markers lead and the rest are remainders
    leftover = [two_m] * (markers - j) + list(lam[markers:])
    if len(leftover) > j:
        raise BijectionError(
            f"{lam.text()} keeps {len(leftover)} remainders after removing "
            f"{j} markers; at most {j} allowed"
        )
    preimage = tuple.__new__(  # descending, as leftover is
        Partition, [two_m + r for r in leftover] + [two_m] * (j - len(leftover))
    )
    if not preimage.is_odd_distinct():
        raise BijectionError(f"{lam.text()} is not in the image: odd parts would repeat")
    if gamma(preimage, M) != lam:
        raise BijectionError(f"{lam.text()} is not in the image for j={j}, M={M}")
    return preimage


def two_modular_conjugate(lam: Partition) -> Partition:
    """Conjugate of the 2-modular diagram, by the closed column-sum formula.

    Requires odd parts distinct; elsewhere the map is not injective (3,3
    and 4,2 both go to 4,2).  Column j (1-based) contributes 2 per part
    >= 2j plus 1 per part equal to 2j - 1.  One pass over the parts fills ``steps``, where
    column j's sum is ``steps[j] + steps[j + 1] + ...``: an even part 2h
    adds 2 to columns 1..h, an odd part 2h + 1 adds 2 to columns 1..h and
    1 to column h + 1.
    """
    if not lam.is_odd_distinct():
        raise BijectionError(f"odd parts repeat in {lam.text()}")
    if not lam:
        return lam
    width = (lam[0] + 1) // 2
    steps = [0] * (width + 1)
    for x in lam:
        h = x >> 1
        if x & 1:
            steps[h] += 1
            steps[h + 1] += 1
        else:
            steps[h] += 2
    cols = list(accumulate(steps[width:0:-1]))
    cols.reverse()
    return tuple.__new__(Partition, cols)  # column sums never increase


def sigma_gamma(p: Partition, M: int) -> Partition:
    """The composition: subtract-and-mark, then 2-modular conjugation."""
    return two_modular_conjugate(gamma(p, M))


# ------------------------------------------------------------------- audit


@dataclass(frozen=True)
class BijectionBox:
    """Audit box: domain D(j, M) and codomain C(j, M) under either length reading.

    D(j, M): odd-distinct, parts in [2M, 4M], length j (exact) or <= j
    (printed).  C(j, M): odd-distinct, parts in [2j, 4j], length M or <= M.
    Weight is bounded by 4M * (length bound) and 4j * (length bound).
    """

    j: int
    M: int

    def __post_init__(self) -> None:
        if self.j < 1 or self.M < 1:
            raise BijectionError(f"j and M must be >= 1, got j={self.j}, M={self.M}")

    def domain_constraints(self, variant: str) -> ConstraintSet:
        return _box_family(self.j, self.M, variant)

    def codomain_constraints(self, variant: str) -> ConstraintSet:
        return _box_family(self.M, self.j, variant)


def _box_family(length: int, half: int, variant: str) -> ConstraintSet:
    """Odd-distinct, parts in [2 * half, 4 * half], ``length`` parts
    (exact) or at most ``length`` (printed): D(j, M) is (j, M), C(j, M) is (M, j)."""
    kw = {"length": length} if variant == "exact" else {"max_length": length}
    return ConstraintSet(min_part=2 * half, max_part=4 * half, odd_parts_distinct=True, **kw)


@dataclass
class PropertyCount:
    """Pass/fail tally for one pointwise property, with replayable failures."""

    passed: int
    failed: int
    failures: List[Tuple[str, str]]


@dataclass
class MapAudit:
    """Full pointwise audit of the composition over one domain variant."""

    variant: str
    domain_size: int
    codomain_size: int
    weight_preserved: PropertyCount
    odd_count_preserved: PropertyCount
    codomain_membership: PropertyCount
    statistic_exchange: PropertyCount
    gamma_roundtrip: PropertyCount
    sigma_involution: PropertyCount
    middle_bounds: PropertyCount
    injective: bool
    collisions: List[Tuple[str, List[str]]]
    surjective: bool
    unhit: List[str]
    genpoly_equal: bool
    genpoly_mismatches: List[Tuple[Tuple[int, int], int, int]]
    middle_multiset_distinct: bool
    middle_equals_domain: bool
    middle_equals_codomain: bool

    @property
    def all_pass(self) -> bool:
        return (
            not any(getattr(self, name).failed for name in _POINTWISE)
            and self.injective
            and self.surjective
            and self.genpoly_equal
            and self.middle_equals_domain
            and self.middle_equals_codomain
        )


@dataclass
class AuditReport:
    """Audit outcome over one box: exact-variant section plus printed extras.

    The exact-variant section carries the bijection claim and gates the
    audit; the printed section is informational.  The printed
    generating-polynomial comparison is reported under both readings of
    the part bounds for the empty partition (vacuous: bounds hold, the
    empty partition belongs; strict: a smallest-part bound needs a part,
    the empty partition is excluded), and ``le_adds_domain`` /
    ``le_adds_codomain`` list the monomials the <=-length reading adds to
    each side beyond the exact-length family (vacuous reading).
    """

    j: int
    M: int
    exact: MapAudit
    printed: MapAudit
    printed_genpoly_strict_equal: bool
    printed_genpoly_strict_mismatches: List[Tuple[Tuple[int, int], int, int]]
    le_adds_domain: List[Tuple[Tuple[int, int], int]]
    le_adds_codomain: List[Tuple[Tuple[int, int], int]]
    enum_limit: int
    duration_ms: float = 0.0

    @property
    def passed(self) -> bool:
        """Gate: every exact-variant property holds."""
        return self.exact.all_pass

    def revalidate(self) -> bool:
        """Replay every recorded counterexample through the public maps.

        A pointwise failure's witness must lie in its section's domain and
        fail the same property again, with the same note; every preimage of
        a collision must map to its image.
        """
        box = BijectionBox(self.j, self.M)
        for section in (self.exact, self.printed):
            in_domain = box.domain_constraints(section.variant).satisfied_by
            in_codomain = box.codomain_constraints(section.variant).satisfied_by
            for name in _POINTWISE:
                for witness, note in getattr(section, name).failures:
                    try:
                        p = Partition.parse(witness)
                        failed = _pointwise(p, self.j, self.M, in_codomain)[2]
                    except SeriesError:
                        return False
                    if not in_domain(p) or (name, note) not in failed:
                        return False
            for image, preimages in section.collisions:
                target = Partition.parse(image)
                for pre in preimages:
                    if sigma_gamma(Partition.parse(pre), self.M) != target:
                        return False
        return True


# MapAudit's pointwise properties; ``_pointwise`` names those an element fails
_POINTWISE = (
    "weight_preserved",
    "odd_count_preserved",
    "codomain_membership",
    "statistic_exchange",
    "gamma_roundtrip",
    "sigma_involution",
    "middle_bounds",
)


def _not_in_codomain(image: Partition) -> Tuple[str, str]:
    return "codomain_membership", f"image {image.text()} not in codomain"


def _pointwise(p: Partition, j: int, M: int, in_codomain: Callable[[Partition], bool]):
    """(gamma(p), its conjugate, a (property, note) pair per pointwise
    property that p fails, p's grade, the marked form's grade), None for
    what a refusal left unbuilt; a grade is the (odd count, weight) pair,
    and a note is formatted only for a failure.

    Each partition's statistics are read once.  A map that refuses fails
    one property, with the refusal's text ending the note: gamma refusing
    p fails the round trip, and the conjugate refusing the marked form
    fails codomain membership, each with no image and no further check;
    the inverse refusing the marked form fails the round trip, and the
    conjugate refusing the image fails the involution."""
    grade = graded(p)
    try:
        lam = gamma(p, M)
    except BijectionError as refusal:
        return None, None, [("gamma_roundtrip", f"no marked form: {refusal}")], grade, None
    lam_grade = graded(lam)
    try:
        image = two_modular_conjugate(lam)
    except BijectionError as refusal:
        note = f"conjugate of {lam.text()}: {refusal}"
        return lam, None, [("codomain_membership", note)], grade, lam_grade
    failed = []
    image_grade = graded(image)
    (odd, weight), (image_odd, image_weight) = grade, image_grade
    lam_length, lam_largest = len(lam), lam[0] if lam else 0
    image_largest = image[0] if image else 0
    if image_weight != weight:
        failed.append(("weight_preserved", f"weight {weight} -> {image_weight}"))
    if image_odd != odd:
        failed.append(("odd_count_preserved", f"odd {odd} -> {image_odd}"))
    if not in_codomain(image):
        failed.append(_not_in_codomain(image))
    if (len(image), (image_largest + 1) // 2, image_grade) != (
        (lam_largest + 1) // 2, lam_length, lam_grade
    ):
        failed.append(("statistic_exchange", f"conjugate of {lam.text()} is {image.text()}"))
    try:
        if gamma_inverse(lam, len(p), M) != p:
            failed.append(("gamma_roundtrip", f"marked form {lam.text()}"))
    except BijectionError as refusal:
        failed.append(("gamma_roundtrip", f"marked form {lam.text()}: {refusal}"))
    try:
        if two_modular_conjugate(image) != lam:
            failed.append(("sigma_involution", f"conjugate^2 of {lam.text()}"))
    except BijectionError as refusal:
        failed.append(("sigma_involution", f"conjugate^2 of {lam.text()}: {refusal}"))
    if lam_largest > 2 * M or lam_length > 2 * j:
        failed.append(("middle_bounds", f"marked form {lam.text()} breaks the middle bounds"))
    return lam, image, failed, grade, lam_grade


class _Section:
    """One audit section, recorded element by element as the domain is
    walked: failures and gradings, and per element only the set of marked
    forms and the image index.  The index maps each image to its first
    preimage; ``repeats`` lists the preimages of an image hit twice or
    more, so an image hit once costs no list.  An element a map refused
    (``lam`` or ``image`` None) enters only what it has."""

    def __init__(self, variant: str, codomain: List[Partition]) -> None:
        self.variant = variant
        self.codomain = codomain
        self.in_codomain = set(codomain).__contains__
        self.failures: Dict[str, List[Tuple[str, str]]] = {name: [] for name in _POINTWISE}
        self.domain: Counter = Counter()
        self.middle: Counter = Counter()
        self.marked: Set[Partition] = set()
        self.first: Dict[Partition, Partition] = {}
        self.repeats: Dict[Partition, List[Partition]] = {}

    def record(self, p: Partition, lam: Optional[Partition], image: Optional[Partition], failed,
               grade: Tuple[int, int], lam_grade: Tuple[int, int]) -> None:
        for name, note in failed:
            self.failures[name].append((p.text(), note))
        self.domain[grade] += 1
        if lam is None:
            return
        self.middle[lam_grade] += 1
        self.marked.add(lam)
        if image is None:
            return
        first = self.first.setdefault(image, p)
        if first is not p:
            self.repeats.setdefault(image, [first]).append(p)

    def audit(
        self, gen_domain: GeneratingPolynomial, gen_codomain: GeneratingPolynomial
    ) -> MapAudit:
        size, first, repeats = self.domain.total(), self.first, self.repeats
        collisions = [
            (image.text(), sorted(p.text() for p in repeats[image]))
            for image in sorted(repeats, reverse=True)
        ]
        unhit = sorted((c for c in self.codomain if c not in first), reverse=True)
        gen_rows = gen_domain.mismatches(gen_codomain)
        return MapAudit(
            variant=self.variant,
            domain_size=size,
            codomain_size=len(self.codomain),
            **{name: PropertyCount(size - len(f), len(f), f) for name, f in self.failures.items()},
            injective=not collisions,
            collisions=collisions,
            surjective=not unhit,
            unhit=[u.text() for u in unhit],
            genpoly_equal=not gen_rows,
            genpoly_mismatches=gen_rows,
            middle_multiset_distinct=len(self.marked) == size,
            # neither grading holds a zero count, so equal maps mean no mismatch
            middle_equals_domain=self.middle == self.domain,
            middle_equals_codomain=self.middle == gen_codomain.counts,
        )


def audit_bijection(box: BijectionBox, enum_limit: Optional[int] = None) -> AuditReport:
    """Exhaustively audit the composition over a finite box.

    Always runs the exact-length audit (the bijection claim) and the
    printed <=-length audit (informational), compares generating
    polynomials for both variants and both empty-partition readings, and
    lists what the <= reading adds to each side.  The total enumeration is
    guarded by ``enum_limit`` (default from QSID_ENUM_LIMIT or 200000):
    the four families are counted exactly first, and a box over the limit
    is refused before any partition is listed.  Only the two <= families
    are listed.  One walk over the printed domain checks each element's
    pointwise properties once and records the failures and gradings in
    the printed section and, for a length-j element, in the exact section
    too, where codomain membership is tested against the exact codomain.
    Each codomain is graded from its own listing, the independent side of
    the generating-polynomial check.
    """
    started = time.perf_counter()
    enum_limit = env_enum_limit() if enum_limit is None else enum_limit

    families = [
        constraints(variant)
        for variant in ("exact", "printed")
        for constraints in (box.domain_constraints, box.codomain_constraints)
    ]
    refuse_over_limit(f"box j={box.j}, M={box.M} enumerates", families, enum_limit, BijectionError)
    # each exact family is the length-j (length-M) part of its <= family
    j, M = box.j, box.M
    d_printed, c_printed = map(enumerate_partitions, families[2:])
    c_exact = [c for c in c_printed if len(c) == M]

    exact, printed = _Section("exact", c_exact), _Section("printed", c_printed)
    for p in d_printed:
        lam, image, failed, *grades = _pointwise(p, j, M, printed.in_codomain)
        printed.record(p, lam, image, failed, *grades)
        if len(p) == j:
            # the exact codomain lies in the printed one: only here can it miss
            if not exact.in_codomain(image) and printed.in_codomain(image):
                failed = [*failed, _not_in_codomain(image)]
            exact.record(p, lam, image, failed, *grades)

    gen_d_exact, gen_d_printed = (GeneratingPolynomial(s.domain) for s in (exact, printed))
    gen_c_exact, gen_c_printed = map(GeneratingPolynomial.from_partitions, (c_exact, c_printed))
    exact_audit = exact.audit(gen_d_exact, gen_c_exact)
    printed_audit = printed.audit(gen_d_printed, gen_c_printed)
    # the empty partition is the only one of weight 0, monomial a^0 q^0
    strict_rows = [row for row in printed_audit.genpoly_mismatches if row[0] != (0, 0)]

    report = AuditReport(
        j=box.j,
        M=box.M,
        exact=exact_audit,
        printed=printed_audit,
        printed_genpoly_strict_equal=not strict_rows,
        printed_genpoly_strict_mismatches=strict_rows,
        le_adds_domain=gen_d_printed.minus(gen_d_exact),
        le_adds_codomain=gen_c_printed.minus(gen_c_exact),
        enum_limit=enum_limit,
    )
    report.duration_ms = (time.perf_counter() - started) * 1000.0
    return report
