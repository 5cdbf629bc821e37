"""The identity catalog: side builders, the case table and its one checker.

Each catalog case names a q-series identity; its sides are built
independently, so a mismatch localizes a defect to one side.  A symmetric
case, one that says a series is fixed by the exchange b <-> t (``thm1_1``,
``f_sym`` and the symmetry half of ``eq3_1_consistency``), builds that
series once and compares it with its reflection.  Formal mode builds the
sides as truncated series in a, b, t, q; rational mode fixes the
parameters at exact rationals and compares series in q alone.

The flagship identity is the symmetric double series

    sum_{n>=0} (-a*b*q^(n+1); q)_n * t^n / (b*q^n; q)_{n+1}
        = the same expression with b and t exchanged,

where (x; q)_n is the q-shifted factorial with n factors.  The catalog
also covers its a = 0 reduction (the classical two-variable symmetric
function), the q -> q^2, a -> a/q variant whose coefficients count
partitions (``eq3_1_partitions`` compares it with the odd-distinct
partitions that the ``partitions`` oracle enumerates), the terminating
q-Pfaff-Saalschuetz summation with the rewriting chain that proves the
flagship identity, and two companion series evaluations, one of which is
checked in adjudication mode (the checker reports what it finds rather
than asserting the printed form).

``CASES`` is the whole catalog, written once: for every case and mode it
declares the required parameters, the preconditions, the side builders,
the comparisons (with the printed variants an adjudicated comparison
tries, in order) and the deterministic details of the report.
``run_case`` is the one checker that turns an entry into a
``VerificationReport``.  Adding a case means adding one entry to ``CASES``.

``run_case`` raises for configuration problems (bad caps, missing or
degenerate parameters) and never raises for a plain mathematical
mismatch.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb, lcm
from typing import Callable, Dict, List, Optional, Tuple

from .partitions import ConstraintSet, enumerate_partitions, refuse_over_limit
from .rational import (
    DegenerateParameterError,
    Dense,
    Factor,
    RationalAssignment,
    Summand,
    accumulate,
    apply_factors,
    dense_series,
    over_binomial,
    pochhammer_factors,
    product_series,
    reduce_dense,
    require_frozen,
    scale,
    shift_window,
    sum_with_geometric_tail,
    times_binomial,
)
from .series import (
    Monomial,
    ProfileMismatchError,
    SeriesError,
    TruncatedSeries,
    TruncationProfile,
    _slot_width,
    compare_series,
    gaussian_binomials,
    shift_a_by_q,
    substitute_q_power,
    swap_b_t,
)

__all__ = [
    "CASES",
    "Check",
    "MismatchTable",
    "VerificationReport",
    "build_eq31_partition_side",
    "build_eq31_side",
    "build_f_series",
    "build_thm11_side",
    "build_thm31_side",
    "eq31_substitution_path",
    "run_case",
]


# --------------------------------------------------------------------- reports


class MismatchTable:
    """A report's mismatch table, held as ints.

    ``rows`` are ``compare_series`` rows (e_q, e_a, e_b, e_t, lhs, rhs),
    the values over ``den``; a table of one comparison is sorted, which is
    canonical monomial order.  Readers take the rows as they are: the JSON
    writer fills one template per row from the ints, and the text report
    builds the ``Monomial`` and ``Fraction`` of the rows it prints.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: Sequence[tuple] = (), den: int = 1):
        self.rows, self.den = list(rows), den

    def __len__(self) -> int:
        return len(self.rows)


def _joined(tables: Sequence[MismatchTable]) -> MismatchTable:
    """The tables' rows one after another, over the lcm of their denominators."""
    den, rows = lcm(*(table.den for table in tables)), []
    for table in tables:
        k = den // table.den
        rows += table.rows if k == 1 else [(*r[:4], r[4] * k, r[5] * k) for r in table.rows]
    return MismatchTable(rows, den)


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    ``status`` is "verified" when the mismatch table is empty on the joint
    validity region, "mismatch" otherwise, and "error" when the check could
    not be carried out.  ``mismatches`` is the table as a ``MismatchTable``
    of int rows over one denominator, the one form a row has from
    ``compare_series`` to the written report.
    ``details`` holds deterministic diagnostics only (summation bounds,
    which printed variant matched, joint validity); wall-clock time lives
    in the volatile section of serialized output.
    """

    case: str
    mode: str
    caps: Dict[str, int]
    assignment: Optional[Dict[str, str]]
    status: str
    mismatches: MismatchTable = field(default_factory=MismatchTable)
    details: Dict[str, object] = field(default_factory=dict)
    duration_ms: float = 0.0

    @property
    def verified(self) -> bool:
        return self.status == "verified"


# ---------------------------------------------------------------- formal sides


def _sum_side(profile: TruncationProfile, q_mult: int, with_numerator: bool) -> TruncatedSeries:
    """Common shape of the symmetric left sides (the right sides are their reflections).

    Term n is  [numerator] * t^n / prod_{k=0..n} (1 - b * q^(q_mult*(n+k)))
    with numerator prod_{k=0..n-1} (1 + a * b * q^(q_mult*(n+k) + 1)).
    The n-th term's lowest t-degree is n, so summing n up to cap_t is exact.

    The sum is graded by t: term n is t^n times a series x_n in a, b, q.
    x_0 is 1 / (1 - b), and x_(n+1) is x_n times the exact ratio
    (s = q_mult)

        (1 + a*b*q^(2sn+1)) (1 + a*b*q^(s(2n+1)+1)) / (1 + a*b*q^(sn+1))
          * (1 - b*q^(sn)) / ((1 - b*q^(s(2n+1))) (1 - b*q^(s(2n+2))))

    (the numerator binomials only ``with_numerator``): six binomial passes
    per n.  Every divisor moves a capped variable, so it is a unit of the
    truncated ring and the step is exact there.  Each x_n is written at
    t^n as it is built (``TruncatedSeries._stacked``): no pass shifts it
    by t or adds it into a total.
    """

    def strata():
        term = TruncatedSeries.one(profile).over_binomial(1, Monomial(e_b=1))
        yield 0, term
        s = q_mult
        for n in range(profile.cap_t):
            if with_numerator:
                term = term.times_binomial(-1, Monomial(e_a=1, e_b=1, e_q=2 * s * n + 1))
                term = term.times_binomial(-1, Monomial(e_a=1, e_b=1, e_q=s * (2 * n + 1) + 1))
                term = term.over_binomial(-1, Monomial(e_a=1, e_b=1, e_q=s * n + 1))
            term = term.times_binomial(1, Monomial(e_b=1, e_q=s * n))
            term = term.over_binomial(1, Monomial(e_b=1, e_q=s * (2 * n + 1)))
            term = term.over_binomial(1, Monomial(e_b=1, e_q=s * (2 * n + 2)))
            yield n + 1, term

    return TruncatedSeries._stacked(profile, 2, strata())


def build_thm11_side(profile: TruncationProfile) -> TruncatedSeries:
    """Left side of the flagship symmetric identity.

    left  = sum_n (-a*b*q^(n+1); q)_n t^n / (b*q^n; q)_{n+1}
    right = the same with b and t exchanged, i.e. ``swap_b_t`` of the left.
    """
    return _sum_side(profile, 1, True)


def build_f_series(profile: TruncationProfile) -> TruncatedSeries:
    """Two-variable symmetric function f(b, t) at the (q, q^2) specialization.

    f(alpha, beta) = sum_n beta^n / (alpha*q^n; q)_{n+1}; f(t, b) is the
    b<->t reflection.  Equals the flagship left side with the a-cap set
    to zero.
    """
    return _sum_side(profile, 1, False)


def build_eq31_side(profile: TruncationProfile) -> TruncatedSeries:
    """Left side of the even-step variant (q -> q^2, a -> a/q applied to the flagship).

    left = sum_n (-a*b*q^(2n+1); q^2)_n t^n / (b*q^2n; q^2)_{n+1}.
    """
    return _sum_side(profile, 2, True)


def build_eq31_partition_side(profile: TruncationProfile) -> TruncatedSeries:
    """The even-step left side read off odd-distinct partitions, by enumeration.

    For n >= 1 the t^n coefficient of ``build_eq31_side`` counts the
    odd-distinct partitions with parts in [2n, 4n], each adding
    a^(odd parts) b^(parts) q^(weight); the t^0 stratum is 1/(1 - b).  The
    windows are counted first, and none is listed over ``env_enum_limit()``.
    """
    cap_a, cap_b, cap_t, cap_q = profile.caps
    windows = [
        ConstraintSet(weight_max=cap_q, min_part=2 * n, max_part=4 * n, max_length=cap_b,
                      odd_parts_distinct=True)
        for n in range(1, cap_t + 1)
    ]
    refuse_over_limit("the partition windows enumerate", windows)
    terms = Counter((0, k, 0, 0) for k in range(cap_b + 1))
    for n, window in enumerate(windows, 1):
        found = enumerate_partitions(window)
        terms.update((p.odd_count, len(p), n, p.weight) for p in found if p.odd_count <= cap_a)
    return TruncatedSeries(profile, terms)


def _f_by_summands(profile: TruncationProfile) -> TruncatedSeries:
    """f(b, t) = sum_n t^n / (b*q^n; q)_{n+1}: each summand is 1 over its own
    n + 1 binomials, written at t^n (``TruncatedSeries._stacked``)."""

    def strata():
        for n in range(profile.cap_t + 1):
            term = TruncatedSeries.one(profile)
            for k in range(n + 1):
                term = term.over_binomial(1, Monomial(e_b=1, e_q=n + k))
            yield n, term

    return TruncatedSeries._stacked(profile, 2, strata())


def eq31_substitution_path(profile: TruncationProfile) -> TruncatedSeries:
    """Even-step left side obtained by substitution instead of direct build.

    After q -> q^2 only the flagship's digits up to q^(cap_q // 2) reach
    the caps, so it is built to that cap_q alone.
    """
    base = build_thm11_side(replace(profile, cap_q=profile.cap_q // 2))
    return shift_a_by_q(substitute_q_power(base, 2, profile), -1)


def _thm31_left(profile: TruncationProfile, with_a: bool) -> TruncatedSeries:
    """3_4_left (``with_a``) or 3_5_left from the closed form in ``build_thm31_side``.

    One pass up N reads the live (i, m) pairs' products from the lists
    N .. N + max(m, 1) - 1 of ``gaussian_binomials``; a deque keeps just
    those lists, not one per N, so a large cap_q does not hold the table.
    """
    cap_a, cap_b, _, cap_q = profile.caps
    live, bounds = [], {}
    for i in range(min(cap_a, cap_b) + 1 if with_a else cap_b + 1):
        for m in range(cap_b - i + 1 if with_a else 1):
            step, low, first = i + m, i * (i + 1) // 2, max(i, 1)
            if step and low + step * first <= cap_q:
                last = (cap_q - low) // step
                key = (i, i + m, 0) if with_a else (0, i, 0)
                live.append((first, last, i, m, step, low, key))
                bounds[key] = sum(comb(N, i) * comb(N + m - 1, m) for N in range(first, last + 1))
    width = _slot_width(max(bounds.values(), default=0))
    reach = max([1] + [pair[3] for pair in live])
    table = gaussian_binomials(width, cap_q, cap_b)
    window = deque([next(table) for _ in range(reach)], maxlen=reach)
    sums = dict.fromkeys(bounds, 0)
    for N in range(1, max([0] + [pair[1] for pair in live]) + 1):
        window.append(next(table))  # lists N .. N + reach - 1
        for first, last, i, m, step, low, key in live:
            if not first <= N <= last:
                continue
            e = step * N + low
            bits = width * (cap_q + 1 - e)
            x = window[0][i]
            if x.bit_length() > bits:
                x &= (1 << bits) - 1
            if m:
                y = window[m - 1][m]
                x *= y & ((1 << bits) - 1) if y.bit_length() > bits else y
            sums[key] += x << width * e
    mask, rows = (1 << width * (cap_q + 1)) - 1, {}
    for key, x in sums.items():
        x &= mask
        rows[key] = x if (key[0] if with_a else key[1]) % 2 else -x  # -(-1)^i times the sum
    return TruncatedSeries._from_rows(profile, rows, bounds, width, 1, cap_q)


def _thm31_right(
    profile: TruncationProfile, with_a: bool
) -> Iterator[Tuple[int, TruncatedSeries]]:
    """The pairs (n, y_n) of 3_4_right (``with_a``) or 3_5_right, as in ``build_thm31_side``.

    y_n is free of b, so a 3_4 summand keeps its constant term: the sum
    stops at n = cap_b, or once a 3_5 summand's q-order is past cap_q.
    """
    if with_a:
        term = TruncatedSeries.one(profile).times_binomial(1, Monomial(e_a=1, e_q=2))
    else:
        term = TruncatedSeries.term(profile, -1, e_q=2)
    term = term.over_binomial(1, Monomial(e_q=1)).over_binomial(1, Monomial(e_q=2))
    n = 1
    while n <= profile.cap_b and not term.is_zero():
        yield n, term
        if n == profile.cap_b:
            return  # y_(cap_b + 1) would not be written
        if with_a:
            term = term.times_binomial(1, Monomial(e_a=1, e_q=2 * n + 1))
            term = term.times_binomial(1, Monomial(e_a=1, e_q=2 * n + 2))
            term = term.over_binomial(1, Monomial(e_a=1, e_q=n + 1))
        else:
            term = term.times_monomial(-1, Monomial(e_q=3 * n + 2))
        term = term.times_binomial(1, Monomial(e_q=n))
        term = term.over_binomial(1, Monomial(e_q=2 * n + 1))
        term = term.over_binomial(1, Monomial(e_q=2 * n + 2))
        n += 1


def build_thm31_side(which: str, profile: TruncationProfile) -> TruncatedSeries:
    """Sides of the two companion series evaluations (variables a, b, q only).

    3_4_left  = sum_{N>=0} (1 - (a*b*q^(N+1); q)_N / (b*q^N; q)_N)
    3_4_right = -sum_{n>=1} (a*q^(n+1); q)_n b^n / (q^n; q)_{n+1}
    3_5_left  = sum_{N>=0} (1 - (b*q^(N+1); q)_N)
    3_5_right = -sum_{n>=1} (-b)^n q^(n(3n+1)/2) / (q^n; q)_{n+1}

    Every 3_4_left / 3_5_left summand has minimal q-order >= N, so summing
    N up to cap_q is exact; the right sides carry b^n and (for 3_5) the
    pentagonal q-power, bounding n by cap_b and cap_q.

    The left sides are read row by row from a closed form.  By the
    q-binomial theorem (Andrews, *The Theory of Partitions*, ch. 3;
    Gasper-Rahman, *Basic Hypergeometric Series*, 1.3)

        (x*q^(N+1); q)_N = sum_i (-x)^i q^(i(N+1) + i(i-1)/2) [N, i]_q
        1 / (b*q^N; q)_N = sum_m b^m q^(mN) [N+m-1, m]_q

    so the constant row of each summand 1 - ratio is 0, as is the whole
    N = 0 summand, and with e(N) = i(N+1) + i(i-1)/2 + mN

    3_4_left  row a^i b^(i+m) = -(-1)^i sum_{N=1..cap_q} q^e(N) [N, i] [N+m-1, m]
    3_5_left  row b^i         = -(-1)^i sum_{N=1..cap_q} q^e(N) [N, i]

    (the m = 0 part, [N-1, 0] being 1).  Only the live (N, i, m), those
    with e(N) <= cap_q, are read.  Every term of a row's sum has digits
    >= 0, so its sum at q = 1, sum C(N, i) C(N+m-1, m) over the live N,
    bounds the row's digit sum (at most 627,198 at caps (12,12,12,88));
    W is the slot width of the largest bound.

    The masks are exact.  A product is read from ``gaussian_binomials``
    entries kept to the cap_q + 1 - e(N) slots its shift keeps (the table
    holds that many, since e(N) >= i(N-i+1) and e(N) >= mN), and each
    summed row is masked once to its W*(cap_q + 1) low bits.  Reduction
    modulo a power of two is a ring homomorphism, and a shift by q^e takes
    residues modulo 2^(W*(cap_q + 1 - e)) to residues modulo
    2^(W*(cap_q + 1)), so the masked sum is the residue of the row's sum at
    q = 2^W, however far a table digit carried past its slot.  The row's
    true digits on q^0 .. q^cap_q are >= 0 and sum below 2^(W-2), so their
    packed value lies in [0, 2^(W*(cap_q + 1))) and is that residue.

    The right sides are graded by b: summand n is b^n times a series y_n
    in a and q.  They step y_n to y_(n+1) by its exact ratio, a few
    binomial passes; every divisor carries a or q, so it is a unit of the
    truncated ring.  Starting from y_1 the ratios are

    3_4_right  (1-aq^(2n+1)) (1-aq^(2n+2)) / (1-aq^(n+1))
               * (1-q^n) / ((1-q^(2n+1)) (1-q^(2n+2)))
    3_5_right  -q^(3n+2) (1-q^n) / ((1-q^(2n+1)) (1-q^(2n+2)))

    and each y_n is written at b^n with the leading minus folded in
    (``TruncatedSeries._stacked``): no pass shifts it by b, adds it into a
    total or negates the total.
    """
    if which in ("3_4_left", "3_5_left"):
        return _thm31_left(profile, which == "3_4_left")
    if which in ("3_4_right", "3_5_right"):
        strata = _thm31_right(profile, which == "3_4_right")
        return TruncatedSeries._stacked(profile, 1, strata, -1)
    raise SeriesError(
        f"side must be one of 3_4_left, 3_4_right, 3_5_left, 3_5_right; got {which!r}"
    )


# ------------------------------------------------------------- rational sides


ONE = Fraction(1)

# Each sum steps its summand from index n to n + 1 by the exact term
# ratio: the binomial factors that join the summand's factor list and the
# ones that leave it, a scalar and a q-shift (``Summand.step``), normalised
# and refused exactly as ``product_series`` treats the whole list.


def _qps_summand(assign: RationalAssignment, n: int, cap_q: int) -> Dense:
    """Summand n of the balanced sum from its factor list (the N + 1 check)."""
    a, b, c, N = assign.a, assign.b, assign.c, assign.N
    fac = []
    fac += pochhammer_factors(a, 0, n)
    fac += pochhammer_factors(b, 0, n)
    fac += pochhammer_factors(1, -N, n)
    fac += pochhammer_factors(c, 0, n, inverted=True)
    fac += pochhammer_factors(1, 1, n, inverted=True)
    fac += pochhammer_factors(Fraction(a) * b / c, 1 - N, n, inverted=True)
    return product_series(fac, cap_q, q_shift=n, label=f"balanced-sum term n={n}")


def _finite_sum(terms: Iterator[Dense], n_terms: int, cap_q: int) -> Dense:
    total = Dense.zero(cap_q)
    for term in islice(terms, n_terms):
        accumulate(total, term)
    return total


def _qps_lhs(assign: RationalAssignment, cap_q: int) -> Dense:
    """sum_{n=0..N} (a, b, q^-N; q)_n q^n / (c, q, a*b*q^(1-N)/c; q)_n."""
    a, b, c, N = Fraction(assign.a), Fraction(assign.b), Fraction(assign.c), assign.N
    ab_c = a * b / c

    def terms() -> Iterator[Dense]:
        term = Summand(cap_q)
        for n in count():
            yield term.value(f"balanced-sum term n={n}")
            term.step(
                [Factor(a, n), Factor(b, n), Factor(ONE, n - N),
                 Factor(c, n, True), Factor(ONE, n + 1, True), Factor(ab_c, n + 1 - N, True)],
                q_shift=1,
            )

    return _finite_sum(terms(), N + 1, cap_q)


def _divisors(assign: RationalAssignment, appears: str) -> Tuple[Fraction, Fraction]:
    """a and b, refused when zero, since the product side divides c by them.

    No precondition refuses a = 0 or b = 0: the sum side may refuse a pole
    first, and that refusal names its summand."""
    for name in ("a", "b"):
        if getattr(assign, name) == 0:
            raise DegenerateParameterError(
                f"parameter {name} must be nonzero ({appears.format(name)} appears)"
            )
    return Fraction(assign.a), Fraction(assign.b)


def _qps_rhs(assign: RationalAssignment, cap_q: int) -> Dense:
    (a, b), c, N = _divisors(assign, "c/{}"), Fraction(assign.c), assign.N
    fac = []
    fac += pochhammer_factors(c / a, 0, N)
    fac += pochhammer_factors(c / b, 0, N)
    fac += pochhammer_factors(c, 0, N, inverted=True)
    fac += pochhammer_factors(c / (a * b), 0, N, inverted=True)
    return product_series(fac, cap_q, label="balanced-sum product side")


def _eq22_rhs(assign: RationalAssignment, cap_q: int, with_qn: bool) -> Dense:
    """(q; q)_N / (c/(a*b); q)_N times
    sum_{n=0..N} (a, b; q)_n (c/(a*b); q)_(N-n) (c/(a*b))^n [q^n]
    / ((c, q; q)_n (q; q)_(N-n)).

    The prefactor rides in summand 0: the summand steps by the
    prefactor's factor list, refuses on its own, then steps by summand
    0's, both as printed."""
    (a, b), c, N = _divisors(assign, "c/(a*b)"), Fraction(assign.c), assign.N
    c_ab = c / (a * b)
    term = Summand(cap_q)
    term.step(pochhammer_factors(1, 1, N) + pochhammer_factors(c_ab, 0, N, inverted=True))
    term.value("rewrite prefactor")
    term.step(pochhammer_factors(c_ab, 0, N) + pochhammer_factors(1, 1, N, inverted=True))

    def terms() -> Iterator[Dense]:
        for n in count():
            yield term.value(f"rewrite term n={n}")
            term.step(
                [Factor(a, n), Factor(b, n), Factor(c, n, True), Factor(ONE, n + 1, True)],
                [Factor(c_ab, N - n - 1), Factor(ONE, N - n, True)],
                scalar=c_ab,
                q_shift=1 if with_qn else 0,
            )

    return _finite_sum(terms(), N + 1, cap_q)


def _eq23_lhs(assign: RationalAssignment, cap_q: int) -> Dense:
    """sum_{n=0..N} (a; q)_n (q/a; q)_(N-n) q^n
    / ((q; q)_n (q; q)_(N-n) (1 - b*q^n) a^n)."""
    a, b, N = Fraction(assign.a), Fraction(assign.b), assign.N
    inv_a = 1 / a

    def terms() -> Iterator[Dense]:
        term = Summand(cap_q)
        term.step(
            pochhammer_factors(inv_a, 1, N)
            + pochhammer_factors(1, 1, N, inverted=True)
            + [Factor(b, 0, True)]
        )
        for n in count():
            yield term.value(f"specialized term n={n}")
            term.step(
                [Factor(a, n), Factor(ONE, n + 1, True), Factor(b, n + 1, True)],
                [Factor(inv_a, N - n), Factor(ONE, N - n, True), Factor(b, n, True)],
                scalar=inv_a,
                q_shift=1,
            )

    return _finite_sum(terms(), N + 1, cap_q)


def _eq23_rhs(assign: RationalAssignment, cap_q: int) -> Dense:
    a, b, N = assign.a, assign.b, assign.N
    fac = pochhammer_factors(Fraction(b) / a, 1, N)
    fac += pochhammer_factors(b, 0, N + 1, inverted=True)
    return product_series(fac, cap_q, label="specialized product side")


# Each double sum below gains no q-order in one index (N in the shifted
# sum, the offset N - n in the unshifted one): once every moving factor
# leaves the window, consecutive summands in that index differ exactly by
# the factor t.  The two builders sum the same summands in transposed
# orders, so the chain_shift check compares two different computations.
# Each steps its summands by their term ratios (a few binomial passes and
# one scalar each), sums explicitly up to the freeze index, checks that
# the ratio has become the scalar t there, and closes the tail in exact
# arithmetic.  Summand (., n) carries q^n, so it is kept on its window of
# cap_q + 1 - n slots and added in at offset n.  The numerators are
# reduced by their gcd once per outer step.


def _chain_double_unshifted(assign: RationalAssignment, cap_q: int) -> Dense:
    """sum_{n>=0} sum_{N>=n} (a;q)_n (q/a;q)_{N-n} q^n t^N
    / ((q;q)_n (q;q)_{N-n} (1 - b*q^(N+n)) a^n),

    summed with the offset M = N - n outside and n inside.  Summand
    (M, n) carries q^n, so n <= cap_q; rows past M = cap_q only gain
    factors of t, so row cap_q + 1 closes them as a geometric tail."""
    a, b, t = Fraction(assign.a), Fraction(assign.b), Fraction(assign.t)
    t_over_a = t / a
    total = Dense.zero(cap_q)

    def row_step(M: int) -> List[Factor]:
        """Summand (M + 1, 0) over summand (M, 0), apart from the scalar t."""
        return [
            Factor(1 / a, M + 1),
            Factor(ONE, M + 1, True),
            Factor(b, M),
            Factor(b, M + 1, True),
        ]

    first = Dense.zero(cap_q)
    first[0] = 1
    over_binomial(first, b, 0)  # summand (0, 0)
    for M in range(cap_q + 2):
        if M == cap_q + 1:
            require_frozen((f.q_exp for f in row_step(M)), cap_q, "the unshifted double sum")
            scale(first, 1 / (1 - t))
        term = first.copy()
        accumulate(total, term)
        for n in range(cap_q):
            # summand (M, n + 1) over (M, n), on the window one slot higher:
            # (1 - a*q^n) (1 - b*q^(M+2n)) q*t / ((1 - q^(n+1)) (1 - b*q^(M+2n+2)) a)
            shift_window(term, t_over_a)
            times_binomial(term, a, n)
            times_binomial(term, b, M + 2 * n)
            over_binomial(term, 1, n + 1)
            over_binomial(term, b, M + 2 * n + 2)
            accumulate(total, term, n + 1)
        apply_factors(first, row_step(M))
        scale(first, t)
        reduce_dense(first)
        reduce_dense(total)
    return total


def _chain_double_shifted(assign: RationalAssignment, cap_q: int) -> Dense:
    """sum_{n>=0} sum_{N>=0} (a;q)_n (q/a;q)_N q^n t^(N+n)
    / ((q;q)_n (q;q)_N (1 - b*q^(N+2n)) a^n).

    Summand (N, n) carries q^n; on its window of cap_q + 1 - n slots every
    binomial of the step in N lies past the window from N = cap_q + 1 - n on."""
    a, b, t = Fraction(assign.a), Fraction(assign.b), Fraction(assign.t)
    inv_a = 1 / a
    tail_scale = 1 / (1 - t)
    total = Dense.zero(cap_q)
    outer = Dense.zero(cap_q)  # summand (0, n) but for its 1/(1 - b*q^(2n)), on its window
    outer[0] = 1
    for n in range(cap_q + 1):

        def step(N: int) -> List[Factor]:
            """Summand (N + 1, n) over summand (N, n), apart from the scalar t."""
            return [
                Factor(inv_a, N + 1),
                Factor(ONE, N + 1, True),
                Factor(b, N + 2 * n),
                Factor(b, N + 2 * n + 1, True),
            ]

        n_freeze = cap_q + 1 - n
        term = outer.copy()  # summand (0, n)
        over_binomial(term, b, 2 * n)
        for N in range(n_freeze):
            accumulate(total, term, n)
            apply_factors(term, step(N))
            scale(term, t)
        require_frozen((f.q_exp for f in step(n_freeze)), cap_q - n, "the shifted double sum")
        scale(term, tail_scale)
        accumulate(total, term, n)
        # outer factor n -> n + 1: times (1 - a*q^n) * q * t / ((1 - q^(n+1)) * a)
        shift_window(outer, inv_a * t)
        times_binomial(outer, a, n)
        over_binomial(outer, 1, n + 1)
        reduce_dense(outer)
        reduce_dense(total)
    return total


def _chain_product_form(assign: RationalAssignment, cap_q: int) -> Dense:
    """(t/a * q; q)_inf / (t; q)_inf times
    sum_{n>=0} (t; q)_n (t*q^(2n+1); q)_inf b^n / ((t/a * q; q)_n (t/a * q^(2n+1); q)_inf).

    The prefactor rides in summand 0, stepped and refused on its own
    before the tail's ratio is checked."""
    a, b, t = Fraction(assign.a), Fraction(assign.b), Fraction(assign.t)
    t_over_a = t / a
    term = Summand(cap_q)
    term.step(
        pochhammer_factors(t_over_a, 1, None, cap_q=cap_q)
        + pochhammer_factors(t, 0, None, inverted=True, cap_q=cap_q)
    )
    term.value("product-form prefactor")
    term.step(
        pochhammer_factors(t, 1, None, cap_q=cap_q)
        + pochhammer_factors(t_over_a, 1, None, inverted=True, cap_q=cap_q)
    )

    def cterms() -> Iterator[Dense]:
        for n in count():
            yield term.value(f"product-form term n={n}")
            term.step(
                [Factor(t, n), Factor(t_over_a, n + 1, True)],
                [Factor(t, 2 * n + 1), Factor(t, 2 * n + 2),
                 Factor(t_over_a, 2 * n + 1, True), Factor(t_over_a, 2 * n + 2, True)],
                scalar=b,
            )

    return sum_with_geometric_tail(cterms(), b, cap_q + 1, cap_q)


def _chain_single_sum(assign: RationalAssignment, cap_q: int, reciprocal: bool) -> Dense:
    """sum_{n>=0} (x*q^(n+1); q)_n b^n / (t*q^n; q)_(n+1) with x = t/a, or a*t."""
    a, b, t = Fraction(assign.a), Fraction(assign.b), Fraction(assign.t)
    x = t / a if reciprocal else a * t

    def dterms() -> Iterator[Dense]:
        term = Summand(cap_q)
        term.step([Factor(t, 0, True)])
        for n in count():
            yield term.value(f"target term n={n}")
            term.step(
                [Factor(x, 2 * n + 1), Factor(x, 2 * n + 2),
                 Factor(t, 2 * n + 1, True), Factor(t, 2 * n + 2, True)],
                [Factor(x, n + 1), Factor(t, n, True)],
                scalar=b,
            )

    return sum_with_geometric_tail(dterms(), b, cap_q + 1, cap_q)


def _f_rational(assign: RationalAssignment, cap_q: int, exchanged: bool) -> Dense:
    """f(alpha, beta), or f(beta, alpha) when exchanged, with bases q^k1 and q^k2.

    With (first, second) the two arguments in that order and k1, k2 the
    assignment's x_exp, y_exp:

    Term n is second^n / prod_{k=0..n} (1 - first * q^(k1*(n-k) + k2*k)).
    Term n is constant (= second^n) once every factor exponent exceeds
    cap_q, i.e. past n = cap_q // min(k1, k2); the remaining geometric
    tail is summed in closed form.
    """
    first, second = (assign.beta, assign.alpha) if exchanged else (assign.alpha, assign.beta)
    k1, k2 = assign.x_exp, assign.y_exp
    step = min(k1, k2)

    def term(n: int) -> Dense:
        # every exponent k1*(n - k) + k2*k moves with n: no binomial ratio to step by
        fac = [Factor(first, k1 * (n - k) + k2 * k, True) for k in range(n + 1)]
        return product_series(
            fac, cap_q, scalar=second**n, label=f"symmetric-function term n={n}"
        )

    return sum_with_geometric_tail(map(term, count()), second, cap_q // step + 1, cap_q)


# --------------------------------------------------------------- preconditions


def _equal_bt_caps(run: "_Run") -> None:
    p = run.profile
    if p.cap_b != p.cap_t:
        raise ProfileMismatchError(f"needs cap_b == cap_t, got {p.cap_b} and {p.cap_t}")


def _terminating(run: "_Run") -> None:
    if run.assign.N < 0:
        raise SeriesError(f"N must be >= 0, got {run.assign.N}")


def _a_nonzero(run: "_Run") -> None:
    if run.assign.a == 0:
        raise DegenerateParameterError("parameter a must be nonzero (q/a appears)")


def _c_nonzero(run: "_Run") -> None:
    if run.assign.c == 0:
        raise DegenerateParameterError("parameter c must be nonzero (a*b/c appears)")


def _c_not_one(run: "_Run") -> None:
    if run.assign.c == 1:
        raise DegenerateParameterError("parameter c must differ from 1 ((c; q)_n vanishes)")


def _chain_denominators(run: "_Run") -> None:
    if run.assign.t == 1:
        raise DegenerateParameterError("parameter t must differ from 1 (1 - t divides)")
    if run.assign.b == 1:
        raise DegenerateParameterError("parameter b must differ from 1 (1 - b divides)")


def _f_sym_bases(run: "_Run") -> None:
    k1, k2 = run.assign.x_exp, run.assign.y_exp
    if k1 < 1 or k2 < 1:
        raise SeriesError(f"x_exp and y_exp must be >= 1, got {k1}, {k2}")
    if run.assign.alpha == 1 or run.assign.beta == 1:
        raise DegenerateParameterError("alpha and beta must differ from 1")


# -------------------------------------------------------------------- catalog


Builder = Callable[["_Run"], TruncatedSeries]


@dataclass(frozen=True)
class Check:
    """How one case is checked in one mode: one entry of the catalog.

    ``sides`` maps side names to builders; a check builds each side at most
    once, on first use.  Each comparison is ``(left, candidate, ...)``: the
    left side is compared with each candidate in turn, and the first that
    agrees is matched.  Several candidates adjudicate between printed
    variants of one side, tried in the order listed; ``_Run.matched`` names
    the one that agreed, or "none".  The case verifies when every
    comparison matches.  A failed comparison puts its rows against its
    first candidate into the mismatch table.  Formal reports lead their
    ``details`` with the joint validity of the first comparison.

    ``coeff_name`` is the name ``qsid coeff`` gives the formal sides (None:
    not offered there), and ``restrict`` maps the requested formal profile
    to the one checked and reported.
    """

    case: str
    mode: str
    sides: Dict[str, Builder]
    details: Callable[["_Run"], Dict[str, object]] = lambda run: {}
    comparisons: Tuple[Tuple[str, ...], ...] = (("left", "right"),)
    params: Tuple[str, ...] = ()
    preconditions: Tuple[Callable[["_Run"], None], ...] = ()
    coeff_name: Optional[str] = None
    restrict: Optional[Callable[[TruncationProfile], TruncationProfile]] = None

    def side(self, name: str, **settings) -> TruncatedSeries:
        """Build the side called ``name`` alone, without preconditions."""
        return _Run(self, **settings)[name]


class _Run:
    """One check in progress: its settings, and each side built once on first use."""

    def __init__(self, check: Check, profile=None, assign=None, cap_q=None):
        self.check = check
        self.profile = profile
        self.assign = assign
        self.cap_q = cap_q
        self.rows: Dict[str, MismatchTable] = {}  # mismatches against each candidate side
        self.matched = "none"
        self._built: Dict[str, TruncatedSeries] = {}

    def __getitem__(self, side: str) -> TruncatedSeries:
        if side not in self._built:
            self._built[side] = self.check.sides[side](self)
        return self._built[side]


def _reflected_left(run: "_Run") -> TruncatedSeries:
    """The b<->t reflection of the run's left side, on the run's profile.

    With cap_b == cap_t this reuses the left side already built; otherwise
    it reflects a left side built on the profile with those caps exchanged.
    """
    p = run.profile
    if p.cap_b != p.cap_t:
        run = _Run(run.check, profile=TruncationProfile(p.cap_a, p.cap_t, p.cap_b, p.cap_q))
    return swap_b_t(run["left"])


def _rational(builder: Callable[..., Dense], **kwargs) -> Builder:
    """Side builder for a rational-mode ``builder(assign, cap_q, **kwargs)``.

    The builder works on a ``Dense``; its finished side becomes a q-only
    series once, in ``_rational_side``, which keeps it for later runs."""
    variant = tuple(sorted(kwargs.items()))
    return lambda r: _rational_side(builder, r.assign, r.cap_q, variant)


@lru_cache(maxsize=64)
def _rational_side(
    builder: Callable[..., Dense], assign: RationalAssignment, cap_q: int, variant: tuple
) -> TruncatedSeries:
    """The finished side ``builder(assign, cap_q, **dict(variant))`` as a q-only series.

    Memoized per process on every input the side depends on: the builder,
    the (frozen) assignment, cap_q and the printed variant.  Cases of the
    proof chain share sides (``chain_shift`` and ``chain_fine`` both build
    the shifted double sum, ``qps_2_1`` and ``rewrite_2_2`` the balanced
    sum), so a process that checks several builds each once.  A refusal
    raises and is not kept; the value is immutable.  The bound keeps the
    memo small; formal sides, far larger and never repeated, stay out."""
    return dense_series(builder(assign, cap_q, **dict(variant)), cap_q)


_AS_FOUND = "mismatch table reported as found; equality is not assumed"

# Formal builders are called through their module-level names, so wrappers
# installed on this module (tracing) see every side build.
_CHECKS = [
    Check(
        "thm1_1", "formal",
        sides={
            "left": lambda r: build_thm11_side(r.profile),
            "right": _reflected_left,
        },
        preconditions=(_equal_bt_caps,),
        coeff_name="thm1_1",
        details=lambda r: {
            "swap_fixed_point": not r.rows["right"],
            "swap_mismatch_count": len(r.rows["right"]),
            "term_bound": "outer index n <= cap of its series variable (t left, b right)",
        },
    ),
    Check(
        "f_sym", "formal",
        sides={
            "left": lambda r: build_f_series(r.profile),
            "right": _reflected_left,
        },
        preconditions=(_equal_bt_caps,),
        coeff_name="f_sym",
    ),
    # The constant stratum of each side is a geometric series in its second
    # argument, summed in closed form (the formal |argument| < 1 condition).
    Check(
        "f_sym", "rational",
        params=("alpha", "beta", "x_exp", "y_exp"),
        preconditions=(_f_sym_bases,),
        sides={
            "left": _rational(_f_rational, exchanged=False),
            "right": _rational(_f_rational, exchanged=True),
        },
        details=lambda r: {
            "index_bounds": "terms constant past n = cap_q // "
            f"{min(r.assign.x_exp, r.assign.y_exp)}; geometric tail summed in closed form",
        },
    ),
    # At a = 0 the flagship side runs build_f_series's passes, so f is summed otherwise.
    Check(
        "reduction_a0", "formal",
        restrict=lambda p: TruncationProfile(0, p.cap_b, p.cap_t, p.cap_q),
        sides={
            "left": lambda r: build_thm11_side(r.profile),
            "right": lambda r: _f_by_summands(r.profile),
        },
    ),
    # The substitution path is valid to cap_q - cap_a after the a-shift, so
    # the construction comparison runs on the joint region; the symmetry
    # comparison uses the full profile.
    Check(
        "eq3_1_consistency", "formal",
        sides={
            "left": lambda r: build_eq31_side(r.profile),
            "right": _reflected_left,
            "substitution path": lambda r: eq31_substitution_path(r.profile),
        },
        comparisons=(("left", "substitution path"), ("left", "right")),
        preconditions=(_equal_bt_caps,),
        coeff_name="eq3_1",
        details=lambda r: {
            "construction_mismatch_count": len(r.rows["substitution path"]),
            "symmetry_mismatch_count": len(r.rows["right"]),
            "substitution_valid_to_q": r["substitution path"].valid_to_q,
        },
    ),
    Check(
        "eq3_1_partitions", "formal",
        sides={
            "left": lambda r: build_eq31_side(r.profile),
            "right": lambda r: build_eq31_partition_side(r.profile),
        },
        details=lambda r: {
            "reading": "t^n (n >= 1): odd-distinct partitions with parts in [2n, 4n], "
            "graded a^(odd parts) b^(parts) q^(weight); t^0: formal 1/(1-b) stratum",
        },
    ),
    # The printed product side elsewhere mixes subscripts n and N; the
    # standard all-N product is evaluated.  The n = N + 1 summand vanishes
    # (the q^(-N) stream hits a zero factor), which is why the sum terminates.
    Check(
        "qps_2_1", "rational",
        params=("a", "b", "c", "N"),
        preconditions=(_terminating, _c_nonzero, _c_not_one),
        sides={"left": _rational(_qps_lhs), "right": _rational(_qps_rhs)},
        details=lambda r: {
            "form": "all_N_product",
            "normalization": "product side evaluated with every subscript N",
            "terminates_at": r.assign.N,
            "next_summand_zero": not any(_qps_summand(r.assign, r.assign.N + 1, r.cap_q)),
        },
    ),
    # The q^n-free variant is the one that matches: the q^n of the original
    # sum cancels during the rewrite.
    Check(
        "rewrite_2_2", "rational",
        params=("a", "b", "c", "N"),
        preconditions=(_terminating, _c_nonzero, _c_not_one),
        sides={
            "left": _rational(_qps_lhs),
            "without_qn": _rational(_eq22_rhs, with_qn=False),
            "with_qn": _rational(_eq22_rhs, with_qn=True),
        },
        comparisons=(("left", "without_qn", "with_qn"),),
        details=lambda r: {
            "matched_form": r.matched,
            "with_qn_mismatch_count": len(r.rows["with_qn"]),
            "without_qn_mismatch_count": len(r.rows["without_qn"]),
        },
    ),
    Check(
        "eq2_3", "rational",
        params=("a", "b", "N"),
        preconditions=(_terminating, _a_nonzero),
        sides={"left": _rational(_eq23_lhs), "right": _rational(_eq23_rhs)},
        details=lambda r: {"terminates_at": r.assign.N},
    ),
    Check(
        "chain_shift", "rational",
        params=("a", "b", "t"),
        preconditions=(_a_nonzero, _chain_denominators),
        sides={
            "left": _rational(_chain_double_unshifted),
            "right": _rational(_chain_double_shifted),
        },
        details=lambda r: {
            "index_bounds": "outer index <= cap_q (each term carries q^n); inner sums closed "
            "by a geometric tail in t once the moving factors leave the q-window",
        },
    ),
    Check(
        "chain_fine", "rational",
        params=("a", "b", "t"),
        preconditions=(_a_nonzero, _chain_denominators),
        sides={
            "left": _rational(_chain_double_shifted),
            "right": _rational(_chain_product_form),
        },
        details=lambda r: {
            "index_bounds": "double sum as in the shift step; product-form sum closed by a "
            "geometric tail in b past index cap_q + 1",
        },
    ),
    # The target is tried with the factor base t/a, the one the chain
    # implies, and with the printed base a*t, which inverts a parameter.
    Check(
        "chain_final", "rational",
        params=("a", "b", "t"),
        preconditions=(_a_nonzero, _chain_denominators),
        sides={
            "left": _rational(_chain_product_form),
            "t_over_a": _rational(_chain_single_sum, reciprocal=True),
            "a_times_t": _rational(_chain_single_sum, reciprocal=False),
        },
        comparisons=(("left", "t_over_a", "a_times_t"),),
        details=lambda r: {
            "index_bounds": "both single sums closed by geometric tails in b past index "
            "cap_q + 1",
            "matched_form": r.matched,
            "printed_form_mismatch_count": len(r.rows["a_times_t"]),
        },
    ),
    Check(
        "thm3_4", "formal",
        sides={
            "left": lambda r: build_thm31_side("3_4_left", r.profile),
            "right": lambda r: build_thm31_side("3_4_right", r.profile),
        },
        coeff_name="thm3_4",
        details=lambda r: {"adjudication": _AS_FOUND},
    ),
    Check(
        "thm3_5", "formal",
        sides={
            "left": lambda r: build_thm31_side("3_5_left", r.profile),
            "right": lambda r: build_thm31_side("3_5_right", r.profile),
        },
        coeff_name="thm3_5",
        details=lambda r: {"adjudication": _AS_FOUND},
    ),
]

# case -> mode -> check, each case's default mode first
CASES: Dict[str, Dict[str, Check]] = {}
for _check in _CHECKS:
    CASES.setdefault(_check.case, {})[_check.mode] = _check


# -------------------------------------------------------------------- checker


def run_case(
    name: str,
    mode: Optional[str] = None,
    profile: Optional[TruncationProfile] = None,
    assign: Optional[RationalAssignment] = None,
    cap_q: Optional[int] = None,
) -> VerificationReport:
    """Run one catalog case in the requested mode (default: its first mode).

    Formal mode needs ``profile``; rational mode needs ``assign`` and
    ``cap_q``.  Raises ``SeriesError`` subclasses for configuration
    problems; mathematical mismatches come back in the report, and a
    comparison over an empty validity region comes back as an error.
    """
    started = time.perf_counter()
    if name not in CASES:
        raise SeriesError(f"unknown identity case {name!r}")
    checks = CASES[name]
    mode = next(iter(checks)) if mode is None else mode
    if mode not in checks:
        raise SeriesError(f"case {name} supports mode(s) {', '.join(checks)}; got {mode!r}")
    check = checks[mode]
    if mode == "formal":
        if profile is None:
            raise SeriesError("formal mode needs a truncation profile")
        if check.restrict is not None:
            profile = check.restrict(profile)
        run = _Run(check, profile=profile)
        caps, assignment = dict(zip("abtq", profile.caps)), None
    else:
        if assign is None or cap_q is None:
            raise SeriesError("rational mode needs an assignment and cap_q")
        assign.require(*check.params)
        run = _Run(check, assign=assign, cap_q=cap_q)
        caps, assignment = {"q": cap_q}, assign.as_strings()
    for precondition in check.preconditions:
        precondition(run)

    status, failed = "verified", []
    for left, *candidates in check.comparisons:
        for candidate in candidates:
            low = min((left, candidate), key=lambda side: run[side].valid_to_q)
            if run[low].valid_to_q < 0:
                # validity only shrinks under the a -> a/q shift, by cap_a
                error = (
                    f"{low} has empty validity region; cap_q must exceed cap_a "
                    f"(valid_to_q = {run[low].valid_to_q})"
                )
                return VerificationReport(
                    name, mode, caps, assignment, "error", details={"error": error},
                    duration_ms=(time.perf_counter() - started) * 1000.0,
                )
            run.rows[candidate] = MismatchTable(*compare_series(run[left], run[candidate]))
        matched = next((c for c in candidates if not run.rows[c]), None)
        if len(candidates) > 1:
            run.matched = matched or "none"
        if matched is None:
            status = "mismatch"
            failed.append(run.rows[candidates[0]])
    details = check.details(run)
    if mode == "formal":
        left, first, *_ = check.comparisons[0]
        details = {"joint_valid_to_q": min(run[left].valid_to_q, run[first].valid_to_q),
                   **details}
    return VerificationReport(
        name, mode, caps, assignment, status, _joined(failed), details,
        duration_ms=(time.perf_counter() - started) * 1000.0,
    )
