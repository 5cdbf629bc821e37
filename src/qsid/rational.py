"""Exact q-series evaluation with parameters fixed at rational values.

Rational mode handles expressions that are not polynomial in the
parameters, such as q/a or q^(1-N)*a*b/c: parameters become exact
``Fraction`` values and only q stays formal.

While a side is being built its series is a ``Dense``: a list of the
cap_q + 1 integer numerators of q^0 .. q^cap_q over one common positive
denominator ``den``.  Every factor in rational mode is a binomial
(1 - v*q^m)^(+-1) with v = p/d in lowest terms, and each one costs one
in-place pass over the numerators, the division one scaling pass more,
with no gcd in them.  A pass takes p and d as ints (``times_ints``,
``over_ints``), read from v once per build, not once per pass:

    times (1 - v*q^m):  c[i] = d*c[i] - p*c[i-m]   for i from cap_q down,
                        den *= d
    over  (1 - v*q^m):  c[i] *= d^J for every i, then
                        c[i] += p*(c[i-m] // d)   for i from m up,
                        den *= d^J, where J = cap_q//m

The second is the geometric series 1 + v*q^m + v^2*q^(2m) + ... applied
by recurrence.  Its exact value is W[i] = C[i] + v*W[i-m], and every
W[i]*den*d^(i//m) is an integer: one more power of d per step of m is
exactly what clears the new denominator of v*W[i-m].  The one scale by
d^J, the highest of these powers, puts the recurrence on W[i]*den*d^J.
When step i reads c[i-m] = W[i-m]*den*d^J, that is the integer
W[i-m]*den*d^((i-m)//m) times d^(J - (i-m)//m), and (i-m)//m < J, so
the floor division by d is exact.  With d = 1 both passes are the
one-multiply loops c[i] -= p*c[i-m] and c[i] += p*c[i-m], and den does
not change.  A factor with m > cap_q is 1 within the truncation and is
skipped.

Sums add numerators after aligning unequal denominators by their gcd
(``accumulate``) and scalars multiply the numerators and ``den``
(``scale``).  No side multiplies two built series: a prefactor rides in
summand 0 of its sum, stepped in by its factor list and refused on its
own (``Summand``).  A summand that carries q^k lives on its window: the
numerators of q^k .. q^cap_q alone, so its passes run on cap_q + 1 - k
slots; ``shift_window`` moves a window up by a q-power and
``accumulate`` adds one in at its offset.  Nothing is reduced per pass:
``reduce_dense`` divides by gcd(den, *nums) once per summand step, once
per outer step of the chain double sums and once per finished side, and
a finished side becomes a ``TruncatedSeries`` over the q-only profile
once (``dense_series``, which packs the reduced numerators into one row
over ``den``), so comparisons and reports see the same values as any
other series.  Two ``Dense`` values are equal when their coefficient
values are, whatever their denominators.

``product_series`` evaluates a product of factors (1 - v*q^m)^(+-1) with
rational v and integer m of either sign.  A factor with m < 0 is flipped
through the exact rewrite

    1 - v*q^(-s)  =  (-v) * q^(-s) * (1 - (1/v) * q^s),

which moves the pole into an overall monomial prefactor.  If the combined
prefactor still has a negative q-power the product is genuinely Laurent
and evaluation fails loudly; in the identities checked here the negative
powers always cancel.

A sum is built by stepping each summand to the next by its exact term
ratio, a few binomial factors joining the summand's factor list and a few
leaving it (``Summand``), rather than by rebuilding summand n from its n
or more factors.  ``product_series`` is one such step from the constant
1, so the flips, the folding of q^0 factors into the scalar and the
refusals of a vanishing denominator factor (0/0 included) and of a pole
at q = 0 are written once.  A sum is given as printed (``stepped_sum``):
summand n is scalar^n q^(sigma*n) times q-Pochhammer symbols (``Symbol``),
each the factors (1 - x*q^k), k in [lo(n), hi(n)).  From n to n + 1 those
in [lo(n), lo(n+1)) leave and those in [hi(n), hi(n+1)) enter, the other
way round for a negative slope (where the ranges cross, the factors they
share enter and leave alike and cancel exactly): each end of a symbol is
|slope| templates, the factor at q^(base + slope*n) of step n, compiled
once per build with x read as ints (p, d).  Each step is counted from
those ints alone, its scalar an int pair too, and no factor past q^cap_q
is listed or run (as ``pochhammer_factors`` lists none given cap_q): only
factors with m <= 0 touch the scalar, the q-power or the vanishing
counts.  Counting needs no window, so the whole schedule is counted
before any pass runs: a summand's window keeps the numerators that the
summands still to be read need, also after a dip of the q-power, and no
step runs past the last summand read or the first refused.

``sum_with_geometric_tail`` sums series whose q-expansion does not
terminate index by index (the orders of the summands stop growing once
every moving factor has left the truncation window).  Past that freeze
index consecutive summands differ by an exact rational ratio, so the
remaining tail is a geometric series summed in closed form.  This is the
formal counterpart of the |t| < 1 style convergence conditions: the tail
value 1/(1 - ratio) is the unique exact rational consistent with the
geometric recurrence.  The freeze index is checked, not trusted: the
term after it must be exactly ratio times the term at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from itertools import count, islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence

from .series import (
    SeriesError,
    NegativeExponentError,
    TruncatedSeries,
    q_only_profile,
)

__all__ = [
    "DegenerateParameterError",
    "Dense",
    "Factor",
    "RationalAssignment",
    "Summand",
    "Symbol",
    "accumulate",
    "dense_series",
    "over_binomial",
    "over_ints",
    "pochhammer_factors",
    "product_series",
    "reduce_dense",
    "require_frozen",
    "scale",
    "scale_ints",
    "shift_ints",
    "shift_window",
    "stepped_sum",
    "sum_with_geometric_tail",
    "symbol_factors",
    "times_binomial",
    "times_ints",
]


class DegenerateParameterError(SeriesError):
    """A parameter value makes a denominator vanish (or a tail ratio equal 1)."""


class Factor(NamedTuple):
    """One factor (1 - value * q^(q_exp + slope*n)) of step n, inverted when it
    sits in a denominator: an immutable 4-tuple, unpacked once as a factor
    list is compiled for ``Summand``.  A fixed factor has slope 0."""

    value: Fraction
    q_exp: int
    inverted: bool = False
    slope: int = 0


class Symbol(NamedTuple):
    """The q-Pochhammer symbol (x*q^(lo + lo_n*n); q)_(size + size_n*n) of
    summand n, in the denominator when ``inverted``; ``size=None`` is the
    infinite product (x*q^(lo + lo_n*n); q)_inf."""

    x: Fraction
    lo: int
    lo_n: int = 0
    size: Optional[int] = 0
    size_n: int = 0
    inverted: bool = False


def _exponents(q_offset: int, count: Optional[int], cap_q: Optional[int]) -> range:
    """The exponents q_offset + k of ``count`` factors (None: infinitely many),
    none past q^cap_q when it is given."""
    if count is None:
        if cap_q is None:
            raise SeriesError("an infinite product needs cap_q to materialize")
        if q_offset < 0:
            raise NegativeExponentError(
                f"infinite product starting at q^{q_offset} does not terminate"
            )
    elif count < 0:
        raise SeriesError(f"factor count must be >= 0, got {count}")
    if cap_q is not None:
        room = max(0, cap_q + 1 - q_offset)
        count = room if count is None else min(count, room)
    return range(q_offset, q_offset + count)


def pochhammer_factors(value, q_offset: int, count: Optional[int] = None, *,
                       inverted: bool = False, cap_q: Optional[int] = None) -> List[Factor]:
    """Factor list for prod_k (1 - value * q^(q_offset + k)).

    ``count`` gives the number of factors; ``count=None`` means the infinite
    product.  Given ``cap_q``, no factor past q^cap_q is listed: each is 1
    within the truncation.  Zero ``value`` yields no factors.
    """
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value == 0:
        return []
    return [Factor(value, m, inverted) for m in _exponents(q_offset, count, cap_q)]


def symbol_factors(symbols: Iterable[Symbol], n: int, cap_q: int) -> List[Factor]:
    """The factors of ``symbols`` at n, none past q^cap_q."""
    fac = []
    for x, lo, lo_n, size, size_n, inverted in symbols:
        if size is not None:
            size += size_n * n
        if size != 0:
            fac += pochhammer_factors(x, lo + lo_n * n, size, inverted=inverted, cap_q=cap_q)
    return fac


# ------------------------------------------------------------- dense kernel


class Dense(list):
    """Integer numerators of q^0 .. q^cap_q over one positive denominator ``den``.

    Equality compares values: the same numerators over another ``den``
    are a different series, and a plain list is never equal to one.

    >>> Dense([1, 2], 2) == Dense([2, 4], 4), Dense([1, 2], 2) == Dense([1, 2], 3)
    (True, False)
    """

    __slots__ = ("den",)

    def __init__(self, nums=(), den: int = 1):
        super().__init__(nums)
        self.den = den

    @classmethod
    def zero(cls, cap_q: int) -> "Dense":
        return cls([0] * (cap_q + 1))

    def copy(self) -> "Dense":
        return Dense(self, self.den)

    def __eq__(self, other):
        if not isinstance(other, Dense) or len(self) != len(other):
            return False
        a, b = other.den, self.den
        if a == b:
            return list.__eq__(self, other)
        return all(x * a == y * b for x, y in zip(self, other))

    def __ne__(self, other):
        return not self == other

    __hash__ = None

    def __repr__(self) -> str:
        return f"Dense({list.__repr__(self)}, den={self.den})"


# Each pass below takes v = p/d as two ints read once by its caller: p/d in
# lowest terms with d > 0 (a scale takes any d > 0).  ``times_binomial``,
# ``over_binomial``, ``scale`` and ``shift_window`` read a rational v.


def times_ints(c: Dense, p: int, d: int, m: int) -> None:
    """c <- c * (1 - (p/d)*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    if not p or m >= len(c):
        return
    if d == 1:
        c[m:] = [x - p * y for x, y in zip(c[m:], c)]
    else:
        c[:] = [d * x for x in c[:m]] + [d * x - p * y for x, y in zip(c[m:], c)]
        c.den *= d


def over_ints(c: Dense, p: int, d: int, m: int) -> None:
    """c <- c / (1 - (p/d)*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    n = len(c)
    if not p or m >= n:
        return
    if m == 0:
        if p == d:
            raise DegenerateParameterError("denominator factor (1 - v) with v = 1")
        e = d - p  # c / (1 - p/d) = c * d / (d - p)
        if e < 0:
            d, e = -d, -e
        c[:] = [d * x for x in c]
        c.den *= e
        return
    if d == 1:
        for i in range(m, n):
            x = c[i - m]
            if x:
                c[i] += p * x
        return
    power = d ** ((n - 1) // m)
    c[:] = [power * x for x in c]
    for i in range(m, n):
        c[i] += p * (c[i - m] // d)
    c.den *= power


def scale_ints(c: Dense, p: int, d: int) -> None:
    """c <- (p/d) * c in place."""
    if p != 1:
        c[:] = [p * x for x in c]
    c.den *= d


def shift_ints(c: Dense, p: int, d: int, s: int = 1) -> None:
    """c <- (p/d) * q^s * c in place, on the window s slots higher.

    A ``Dense`` that holds the numerators of q^k .. q^cap_q of a series
    q^k * c holds those of q^(k+s) .. q^cap_q after this: its top s
    numerators, which the shift would push past q^cap_q, drop out.
    """
    if s:
        del c[max(len(c) - s, 0):]
    scale_ints(c, p, d)


def times_binomial(c: Dense, v, m: int) -> None:
    """c <- c * (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    times_ints(c, v.numerator, v.denominator, m)


def over_binomial(c: Dense, v, m: int) -> None:
    """c <- c / (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    over_ints(c, v.numerator, v.denominator, m)


def scale(c: Dense, v) -> None:
    """c <- v * c in place."""
    scale_ints(c, v.numerator, v.denominator)


def shift_window(c: Dense, v, s: int = 1) -> None:
    """c <- v * q^s * c in place, on the window s slots higher (``shift_ints``)."""
    shift_ints(c, v.numerator, v.denominator, s)


def accumulate(total: Dense, c: Dense, offset: int = 0) -> None:
    """total <- total + q^offset * c in place, over the lcm of the two denominators.

    ``c`` is a window: its numerators are those of q^offset .. q^(offset + len(c) - 1).
    """
    a, b = total.den, c.den
    if a != b:
        g = gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            total[:] = [b * x for x in total]
            total.den *= b
        if a != 1:
            c = [a * y for y in c]
    end = offset + len(c)
    total[offset:end] = [x + y for x, y in zip(total[offset:end], c)]


def reduce_dense(c: Dense) -> Dense:
    """Divide the numerators and ``den`` by their gcd, in place; returns c."""
    g = gcd(c.den, *c)
    if g > 1:
        c[:] = [x // g for x in c]
        c.den //= g
    return c


def dense_series(c: Dense, cap_q: int) -> TruncatedSeries:
    """A finished ``Dense`` as a q-only ``TruncatedSeries``: reduced first, its
    numerators packed straight into the series' one row over ``den``."""
    reduce_dense(c)
    return TruncatedSeries.from_q_digits(q_only_profile(cap_q), c, c.den)


def require_frozen(step_exponents: Iterable[int], cap_q: int, where: str) -> None:
    """Raise unless every binomial of a summand ratio lies beyond q^cap_q.

    Past such an index the summand ratio is a pure scalar within the
    truncation, so a geometric tail closes the sum exactly.
    """
    early = [m for m in step_exponents if m <= cap_q]
    if early:
        raise SeriesError(
            f"freeze index too early in {where}: a step factor at q^{min(early)} "
            f"is inside the window q^0..q^{cap_q}"
        )


def _where(label: str) -> str:
    return f" in {label}" if label else ""


def _templates(factors: Iterable[Factor], leaving: bool = False) -> list:
    """``factors`` compiled for ``Summand._count``, each value read once."""
    out = []
    for v, m, inverted, slope in factors:
        p = v.numerator
        if p:
            out.append((p, v.denominator, m, slope, inverted != leaving, inverted))
    return out


def _compile(symbols: Iterable[Symbol], cap_q: int):
    """Each symbol's value read once: its factors at n = 0, none past q^cap_q,
    and the templates of its two ends, entering ones first, for the steps."""
    first, enter, leave = [], [], []
    for x, lo, lo_n, size, size_n, inverted in symbols:
        p, d = x.numerator, x.denominator
        if not p:
            continue
        if size != 0:
            first += [(p, d, m, 0, inverted, inverted) for m in _exponents(lo, size, cap_q)]
        hi, hi_n = (lo, 0) if size is None else (lo + size, lo_n + size_n)
        # each end: its base and slope, the list its factors join rising, falling
        for base, slope, up, down in ((lo, lo_n, leave, enter), (hi, hi_n, enter, leave)):
            if slope > 0:
                up += [(p, d, base + k, slope, inverted != (up is leave), inverted)
                       for k in range(slope)]
            else:
                down += [(p, d, base + slope + k, slope, inverted != (down is leave), inverted)
                         for k in range(-slope)]
    return first, enter + leave


class Summand:
    """A summand stepped from one index to the next by its exact term ratio.

    Its value is scalar * q^shift * prod(factors) over the factors that
    have joined its factor list and not left it.  ``window`` holds the
    numerators of q^shift and up, at least to q^cap_q while the summand is
    read, so each pass runs on about cap_q + 1 - shift slots.  A step flips
    each factor with m < 0 into the scalar and the shift and folds each
    (1 - v) with m = 0 into the scalar, except a vanishing one (v = 1):
    that one is counted, in the numerator or the denominator, until it
    leaves the list.

    A step is counted (``_count``) from templates (p, d, base, slope,
    divide, inverted): the factor (1 - (p/d)*q^(base + slope*n)) of step n,
    p/d read once when the template is compiled, a division pass when
    ``divide`` (a denominator factor joining, a numerator factor leaving),
    and counted in the numerator or, ``inverted``, the denominator when it
    vanishes.  Counting needs no window: the scalar, the q-power and the
    vanishing counts are ints.  The counted passes run (``_run``) on the
    window cut to the length given.

    ``value`` refuses a summand that holds a vanishing denominator factor
    (0/0 if it also holds a vanishing numerator factor) or a pole at
    q = 0, and is zero while it holds a vanishing numerator factor
    (``is_zero``; ``live`` refuses the pole too).  A window cut
    shorter than its value needs stays short: a negative net q-power that
    was not counted ahead (``stepped_sum`` counts its whole schedule
    first) is refused on reading, not guessed.
    """

    def __init__(self, cap_q: int):
        self.cap_q = cap_q
        self.shift = 0
        self.window = Dense([1] + [0] * cap_q)
        self.vanishing = [0, 0]  # held (1 - q^0) factors: numerator, denominator

    def step(self, enter: Iterable[Factor] = (), leave: Iterable[Factor] = (), *,
             scalar=1, q_shift: int = 0) -> None:
        """Multiply by scalar * q^q_shift * prod(enter) / prod(leave).

        ``enter`` factors join the summand's factor list and ``leave``
        factors leave it, each in the numerator or, inverted, the
        denominator.
        """
        if not isinstance(scalar, Fraction):
            scalar = Fraction(scalar)
        templates = _templates(enter) + _templates(leave, leaving=True)
        counted = self._count(templates, scalar.numerator, scalar.denominator, q_shift)
        self._run(*counted, self.cap_q + 1 - self.shift)

    def _count(self, templates, sp: int = 1, sd: int = 1, q_shift: int = 0, n: int = 0):
        """Step n's templates counted into the vanishing counts and the shift;
        returns its scalar sp/sd (sd > 0) and its passes, not run."""
        cap_q = self.cap_q
        shift = q_shift
        passes = []
        for p, d, m, slope, divide, inverted in templates:
            m += slope * n
            if m > 0:
                if m <= cap_q:
                    passes.append((divide, p, d, m))
                continue
            if not m:
                if p == d:
                    self.vanishing[inverted] += 1 if divide == inverted else -1
                elif divide:
                    sp, sd = sp * d, sd * (d - p)
                else:
                    sp, sd = sp * (d - p), sd * d
                continue
            # 1 - v*q^m = -v * q^m * (1 - (1/v) * q^(-m))
            if divide:
                sp, sd, shift = -sp * d, sd * p, shift - m
            else:
                sp, sd, shift = -sp * p, sd * d, shift + m
            p, d = (d, p) if p > 0 else (-d, -p)
            if -m <= cap_q:
                passes.append((divide, p, d, -m))
        self.shift += shift
        return (sp, sd, passes) if sd > 0 else (-sp, -sd, passes)

    def _run(self, sp: int, sd: int, passes, length: int) -> None:
        """A counted step's scalar and passes applied to the window, cut to
        ``length`` numerators first; a window never widens."""
        c = self.window
        del c[max(length, 0):]
        scale_ints(c, sp, sd)
        for divide, p, d, m in passes:
            (over_ints if divide else times_ints)(c, p, d, m)
        reduce_dense(c)

    def _floors(self, templates, q_shift: int, n_values: int):
        """Where the window must reach for the next ``n_values`` summands.

        Returns (n, floor) pairs, n and floor both rising, floor the least
        q-power of a summand from n on that reads the window (one neither
        zero nor refused, its q-power in 0..cap_q), and how many summands
        to step: up to the last that reads the window or the first refused.
        Counted by ``_count`` on a copy of the counts, from the templates
        that can reach m <= 0: only those move the q-power or the
        vanishing counts, and counting needs no window.
        """
        probe = Summand(self.cap_q)
        probe.shift, probe.vanishing = self.shift, list(self.vanishing)
        low = [t for t in templates if t[2] <= 0 or t[3] < 0]  # base <= 0 or slope < 0
        floors, end = [], 0
        for n in range(n_values):
            (numerator, denominator), shift = probe.vanishing, probe.shift
            if denominator > 0 or (numerator <= 0 and shift < 0):
                return floors, n + 1
            if numerator <= 0 and shift <= self.cap_q:
                while floors and floors[-1][1] >= shift:
                    floors.pop()
                floors.append((n, shift))
                end = n + 1
            probe._count(low, 1, 1, q_shift, n)
        return floors, end

    def is_zero(self, label: str = "") -> bool:
        """True while the summand is zero to q^cap_q: it holds a vanishing
        numerator factor or its q-power is past cap_q.  Refuses 1/0 and 0/0."""
        numerator, denominator = self.vanishing
        if denominator > 0:
            zero = " over a vanishing numerator factor (0/0)" if numerator > 0 else ""
            raise DegenerateParameterError(
                f"denominator factor (1 - v) with v = 1{zero}{_where(label)}"
            )
        return numerator > 0 or self.shift > self.cap_q

    def live(self, label: str = "") -> bool:
        """True when the value reads the window: the summand is not zero.
        Refuses 1/0, 0/0 and a pole at q = 0."""
        if self.is_zero(label):
            return False
        if self.shift < 0:
            raise DegenerateParameterError(
                f"product has a pole of order {-self.shift} at q = 0{_where(label)}"
            )
        return True

    def value(self, label: str = "") -> Dense:
        """The summand to q^cap_q; refuses 1/0, 0/0 and a pole at q = 0.

        With shift 0 and a window cut at q^cap_q this is ``window`` itself,
        valid until the next step.
        """
        if not self.live(label):
            return Dense.zero(self.cap_q)
        c, keep = self.window, self.cap_q + 1 - self.shift
        if len(c) < keep:
            raise SeriesError(f"a stepped summand's window cannot widen{_where(label)}")
        return Dense([0] * self.shift + c[:keep], c.den) if self.shift or len(c) > keep else c


def product_series(
    factors: Iterable[Factor],
    cap_q: int,
    *,
    scalar=1,
    q_shift: int = 0,
    label: str = "",
) -> Dense:
    """Exact value of scalar * q^q_shift * prod(factors) as a ``Dense`` to q^cap_q.

    One ``Summand`` step from the constant 1: a net negative q-power (a
    pole at q = 0) and a vanishing denominator factor, also over a
    vanishing numerator factor (0/0), raise ``DegenerateParameterError``;
    a vanishing numerator factor alone makes the product zero.  The step's
    passes run only on a product that is read: every refusal reads the
    counts and the q-power alone.
    """
    if not isinstance(scalar, Fraction):
        scalar = Fraction(scalar)
    term = Summand(cap_q)
    counted = term._count(_templates(factors), scalar.numerator, scalar.denominator, q_shift)
    if term.live(label):
        term._run(*counted, cap_q + 1 - term.shift)
    return term.value(label)


def sum_with_geometric_tail(
    terms: Iterator[Dense],
    ratio,
    freeze_index: int,
    cap_q: int,
) -> Dense:
    """Exact sum over n >= 0 of the terms when term n+1 = ratio*term n past the freeze.

    ``terms`` yields term 0, term 1, ... and is read up to term
    freeze + 1; a yielded term is used before the next is drawn, so an
    iterator may step one ``Dense`` in place.  The tail from
    ``freeze_index`` on sums to term(freeze)/(1 - ratio).  The recurrence
    is checked at the freeze index itself: ``SeriesError`` is raised
    unless term(freeze + 1) == ratio * term(freeze).
    """
    ratio = Fraction(ratio)
    if ratio == 1:
        raise DegenerateParameterError("geometric tail ratio equals 1")
    total = Dense.zero(cap_q)
    for _ in range(freeze_index):
        accumulate(total, next(terms))
    frozen = next(terms)
    tail, expected = frozen.copy(), frozen.copy()
    scale(tail, 1 / (1 - ratio))
    scale(expected, ratio)
    if next(terms) != expected:
        raise SeriesError(
            f"freeze index {freeze_index} too early: term {freeze_index + 1} is not "
            f"{ratio} times term {freeze_index}"
        )
    accumulate(total, tail)
    return total


def stepped_sum(cap_q: int, symbols: Sequence[Symbol], label: str, *,
                scalar: Fraction = Fraction(1), q_shift: int = 0,
                n_terms: Optional[int] = None, tail=None,
                prefactor: Sequence[Symbol] = (), prefactor_label: str = "") -> Dense:
    """sum_n scalar^n q^(q_shift*n) prod(symbols at n) to q^cap_q, ``scalar`` and
    every ``Symbol.x`` a ``Fraction``: ``n_terms`` summands, or with ``tail``
    all, those from n = cap_q + 1 on a geometric tail of that ratio (checked).
    Summand n refuses as "<label> term n=<n>"; the ``prefactor`` symbols at
    n = 0 ride in summand 0, stepped in and refused as ``prefactor_label`` first.

    The whole schedule is counted before any pass runs (``Summand._floors``):
    the window keeps the numerators the summands still to be read need, a
    dip of the q-power included, and no step runs past the last summand
    read or the first refused; the summands after it are zero.
    """
    term = Summand(cap_q)
    counted = []
    if prefactor:
        counted.append(term._count(_compile(prefactor, cap_q)[0]))
        term.live(prefactor_label)
    first, templates = _compile(symbols, cap_q)
    counted.append(term._count(first))
    # the tail's check reads summands 0 .. cap_q + 2
    floors, end = term._floors(templates, q_shift, cap_q + 3 if tail is not None else n_terms)
    floors.reverse()
    sp, sd = scalar.numerator, scalar.denominator

    def length(n: int) -> int:
        """The window's length while summands from n on are to be read."""
        while floors and floors[-1][0] < n:
            floors.pop()
        return cap_q + 1 - floors[-1][1] if floors else 0

    for step in counted:
        term._run(*step, length(0))

    def terms() -> Iterator[Dense]:
        for n in range(end):
            yield term.value(f"{label} term n={n}")
            if n + 1 < end:
                term._run(*term._count(templates, sp, sd, q_shift, n), length(n + 1))
        while True:
            yield Dense.zero(cap_q)

    if tail is not None:
        return sum_with_geometric_tail(terms(), tail, cap_q + 1, cap_q)
    total = Dense.zero(cap_q)
    for value in islice(terms(), end):  # the summands after these are zero
        accumulate(total, value)
    return total


@dataclass(frozen=True)
class RationalAssignment:
    """Exact parameter values for rational-mode checks; q stays formal.

    ``x_exp`` and ``y_exp`` realize auxiliary bases as the q-powers
    q^x_exp and q^y_exp.  Unset fields are simply absent; each checker
    states which ones it needs.
    """

    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    t: Optional[Fraction] = None
    c: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    x_exp: Optional[int] = None
    y_exp: Optional[int] = None
    N: Optional[int] = None

    @classmethod
    def make(cls, **kwargs) -> "RationalAssignment":
        """Build an assignment, coercing values ('1/3', 2, Fraction) exactly.

        Floats and bools are refused: a float already carries a binary
        rounding error, and truncating one would silently change the point.
        ``x_exp``, ``y_exp`` and ``N`` must be integral.
        """
        coerced = {}
        for name, value in kwargs.items():
            if value is None:
                continue
            if isinstance(value, (bool, float)):
                raise SeriesError(
                    f"parameter {name} must be exact (int, Fraction or 'p/q'), got {value!r}"
                )
            try:
                exact = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError):
                raise SeriesError(f"cannot read parameter {name}={value!r} exactly") from None
            if name in ("x_exp", "y_exp", "N"):
                if exact.denominator != 1:
                    raise SeriesError(f"parameter {name} must be an integer, got {value!r}")
                exact = int(exact)
            coerced[name] = exact
        return cls(**coerced)

    def require(self, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise SeriesError(
                "assignment is missing required parameter(s): " + ", ".join(missing)
            )

    def as_strings(self) -> dict:
        out = {}
        for name in ("a", "b", "t", "c", "alpha", "beta", "x_exp", "y_exp", "N"):
            v = getattr(self, name)
            if v is not None:
                out[name] = str(v)
        return out
