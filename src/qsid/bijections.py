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
identity between D(j, M) and C(j, M) = D(M, j)-shaped codomain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .partitions import (
    ConstraintSet,
    GeneratingPolynomial,
    Partition,
    count_partitions,
    enumerate_partitions,
    env_enum_limit,
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
    "ordinary_conjugate",
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
    if any(x < 2 * M for x in p.parts):
        raise BijectionError(f"every part must be >= {2*M} in {p.text()}")
    remainders = [x - 2 * M for x in p.parts if x - 2 * M > 0]
    markers = [2 * M] * p.length
    return Partition(tuple(sorted(remainders + markers, reverse=True)))


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
    if any(x > two_m for x in lam.parts):
        raise BijectionError(f"every part must be <= {two_m} in {lam.text()}")
    markers = sum(1 for x in lam.parts if x == two_m)
    if markers < j:
        raise BijectionError(
            f"{lam.text()} has {markers} parts equal to {two_m}, needs at least {j}"
        )
    leftover = [x for x in lam.parts if x != two_m]
    leftover += [two_m] * (markers - j)
    if len(leftover) > j:
        raise BijectionError(
            f"{lam.text()} keeps {len(leftover)} remainders after removing "
            f"{j} markers; at most {j} allowed"
        )
    parts = sorted((two_m + r for r in leftover), reverse=True) + [two_m] * (
        j - len(leftover)
    )
    preimage = Partition(tuple(sorted(parts, reverse=True)))
    if not preimage.is_odd_distinct():
        raise BijectionError(f"{lam.text()} is not in the image: odd parts would repeat")
    if gamma(preimage, M) != lam:
        raise BijectionError(f"{lam.text()} is not in the image for j={j}, M={M}")
    return preimage


def two_modular_conjugate(lam: Partition) -> Partition:
    """Conjugate of the 2-modular diagram, by the closed column-sum formula.

    Requires odd parts distinct (otherwise the column sums need not
    decrease).  Column j (1-based) contributes 2 per part >= 2j plus 1 per
    part equal to 2j - 1.
    """
    if not lam.is_odd_distinct():
        raise BijectionError(f"odd parts repeat in {lam.text()}")
    if not lam.parts:
        return Partition()
    width = (lam.largest + 1) // 2
    cols = []
    for j in range(1, width + 1):
        big = sum(1 for x in lam.parts if x >= 2 * j)
        odd = sum(1 for x in lam.parts if x == 2 * j - 1)
        cols.append(2 * big + odd)
    return Partition(tuple(cols))


def ordinary_conjugate(p: Partition) -> Partition:
    """Ordinary (Young diagram) conjugate; independent cross-check helper."""
    if not p.parts:
        return Partition()
    cols = tuple(
        sum(1 for x in p.parts if x >= j) for j in range(1, p.largest + 1)
    )
    return Partition(cols)


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
        kw = {"length": self.j} if variant == "exact" else {"max_length": self.j}
        return ConstraintSet(
            min_part=2 * self.M, max_part=4 * self.M, odd_parts_distinct=True, **kw
        )

    def codomain_constraints(self, variant: str) -> ConstraintSet:
        kw = {"length": self.M} if variant == "exact" else {"max_length": self.M}
        return ConstraintSet(
            min_part=2 * self.j, max_part=4 * self.j, odd_parts_distinct=True, **kw
        )


@dataclass
class PropertyCount:
    """Pass/fail tally for one pointwise property, with replayable failures."""

    passed: int = 0
    failed: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def record(self, ok: bool, witness: Partition, note: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append((witness.text(), note))

    @property
    def ok(self) -> bool:
        return self.failed == 0


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
            self.weight_preserved.ok
            and self.odd_count_preserved.ok
            and self.codomain_membership.ok
            and self.statistic_exchange.ok
            and self.gamma_roundtrip.ok
            and self.sigma_involution.ok
            and self.middle_bounds.ok
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
        """Replay every recorded counterexample against the raw maps."""
        for section in (self.exact, self.printed):
            for tally in (
                section.weight_preserved,
                section.odd_count_preserved,
                section.codomain_membership,
                section.statistic_exchange,
                section.gamma_roundtrip,
                section.sigma_involution,
                section.middle_bounds,
            ):
                for witness, _ in tally.failures:
                    Partition.parse(witness)  # must at least be a partition
            for image, preimages in section.collisions:
                target = Partition.parse(image)
                for pre in preimages:
                    if sigma_gamma(Partition.parse(pre), self.M) != target:
                        return False
        return True


def _map_audit(
    variant: str,
    domain: List[Partition],
    codomain: List[Partition],
    j: int,
    M: int,
) -> MapAudit:
    weight_pc = PropertyCount()
    odd_pc = PropertyCount()
    member_pc = PropertyCount()
    exchange_pc = PropertyCount()
    roundtrip_pc = PropertyCount()
    involution_pc = PropertyCount()
    middle_pc = PropertyCount()

    codomain_set = {c.parts for c in codomain}

    marked = [(p, gamma(p, M)) for p in domain]
    triples = [(p, lam, two_modular_conjugate(lam)) for p, lam in marked]

    image_index: Dict[Tuple[int, ...], List[Partition]] = {}
    for p, lam, image in triples:
        weight_pc.record(image.weight == p.weight, p, f"weight {p.weight} -> {image.weight}")
        odd_pc.record(
            image.odd_count == p.odd_count, p, f"odd {p.odd_count} -> {image.odd_count}"
        )
        member_pc.record(image.parts in codomain_set, p, f"image {image.text()} not in codomain")
        exchange_ok = (
            image.length == (lam.largest + 1) // 2
            and (image.largest + 1) // 2 == lam.length
            and image.weight == lam.weight
            and image.odd_count == lam.odd_count
        )
        exchange_pc.record(exchange_ok, p, f"conjugate of {lam.text()} is {image.text()}")
        roundtrip_pc.record(
            gamma_inverse(lam, p.length, M) == p, p, f"marked form {lam.text()}"
        )
        involution_pc.record(
            two_modular_conjugate(image) == lam, p, f"conjugate^2 of {lam.text()}"
        )
        middle_pc.record(
            lam.largest <= 2 * M and lam.length <= 2 * j,
            p,
            f"marked form {lam.text()} breaks the middle bounds",
        )
        image_index.setdefault(image.parts, []).append(p)

    collisions = [
        (Partition(k).text(), sorted(p.text() for p in group))
        for k, group in sorted(image_index.items(), reverse=True)
        if len(group) > 1
    ]
    unhit = sorted(
        (c.parts for c in codomain if c.parts not in image_index), reverse=True
    )

    gen_domain = GeneratingPolynomial.from_partitions(domain)
    gen_codomain = GeneratingPolynomial.from_partitions(codomain)
    gen_rows = gen_domain.mismatches(gen_codomain)

    middle = [lam for _, lam, _ in triples]
    gen_middle = GeneratingPolynomial.from_partitions(middle)

    return MapAudit(
        variant=variant,
        domain_size=len(domain),
        codomain_size=len(codomain),
        weight_preserved=weight_pc,
        odd_count_preserved=odd_pc,
        codomain_membership=member_pc,
        statistic_exchange=exchange_pc,
        gamma_roundtrip=roundtrip_pc,
        sigma_involution=involution_pc,
        middle_bounds=middle_pc,
        injective=not collisions,
        collisions=collisions,
        surjective=not unhit,
        unhit=[Partition(u).text() for u in unhit],
        genpoly_equal=not gen_rows,
        genpoly_mismatches=gen_rows,
        middle_multiset_distinct=len({lam.parts for lam in middle}) == len(middle),
        middle_equals_domain=not gen_middle.mismatches(gen_domain),
        middle_equals_codomain=not gen_middle.mismatches(gen_codomain),
    )


def audit_bijection(
    box: BijectionBox,
    enum_limit: Optional[int] = None,
) -> AuditReport:
    """Exhaustively audit the composition over a finite box.

    Always runs the exact-length audit (the bijection claim) and the
    printed <=-length audit (informational), compares generating
    polynomials for both variants and both empty-partition readings, and
    lists what the <= reading adds to each side.  The total enumeration is
    guarded by ``enum_limit`` (default from QSID_ENUM_LIMIT or 200000):
    the four families are counted exactly first, and a box over the limit
    is refused before any partition is listed.  Only the two <= families
    are searched; the exact ones are filtered out of them.
    """
    started = time.perf_counter()
    if enum_limit is None:
        enum_limit = env_enum_limit()

    families = [
        constraints(variant)
        for variant in ("exact", "printed")
        for constraints in (box.domain_constraints, box.codomain_constraints)
    ]
    total = sum(count_partitions(c) for c in families)
    if total > enum_limit:
        raise BijectionError(
            f"box j={box.j}, M={box.M} enumerates {total} partitions, "
            f"over the limit {enum_limit}"
        )
    # each exact family is the length-j (length-M) part of its <= family
    d_printed, c_printed = map(enumerate_partitions, families[2:])
    d_exact = [p for p in d_printed if p.length == box.j]
    c_exact = [p for p in c_printed if p.length == box.M]

    exact_audit = _map_audit("exact", d_exact, c_exact, box.j, box.M)
    printed_audit = _map_audit("printed", d_printed, c_printed, box.j, box.M)

    gen_d_printed = GeneratingPolynomial.from_partitions(d_printed)
    gen_c_printed = GeneratingPolynomial.from_partitions(c_printed)
    gen_d_strict = GeneratingPolynomial.from_partitions([p for p in d_printed if p.parts])
    gen_c_strict = GeneratingPolynomial.from_partitions([p for p in c_printed if p.parts])
    strict_rows = gen_d_strict.mismatches(gen_c_strict)

    gen_d_exact = GeneratingPolynomial.from_partitions(d_exact)
    gen_c_exact = GeneratingPolynomial.from_partitions(c_exact)

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
