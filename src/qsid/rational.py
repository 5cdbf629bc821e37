"""Exact q-series evaluation with parameters fixed at rational values.

Rational mode handles expressions that are not polynomial in the
parameters, such as q/a or q^(1-N)*a*b/c: parameters become exact
``Fraction`` values and only q stays formal.

While a side is being built its series is a ``Dense``: a list of the
cap_q + 1 integer numerators of q^0 .. q^cap_q over one common positive
denominator ``den``.  Every factor in rational mode is a binomial
(1 - v*q^m)^(+-1) with v = p/d in lowest terms, and each one costs one
in-place pass over the numerators, the division one scaling pass more,
with no gcd in them:

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
at q = 0 are written once.

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
from typing import Iterable, Iterator, List, NamedTuple, Optional

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
    "accumulate",
    "apply_factors",
    "dense_series",
    "over_binomial",
    "pochhammer_factors",
    "product_series",
    "reduce_dense",
    "require_frozen",
    "scale",
    "shift_window",
    "sum_with_geometric_tail",
    "times_binomial",
]


class DegenerateParameterError(SeriesError):
    """A parameter value makes a denominator vanish (or a tail ratio equal 1)."""


class Factor(NamedTuple):
    """One factor (1 - value * q^q_exp), inverted when it sits in a denominator.

    An immutable 3-tuple (value, q_exp, inverted), which ``Summand.step``
    unpacks as it walks a factor list.
    """

    value: Fraction
    q_exp: int
    inverted: bool = False


def pochhammer_factors(
    value,
    q_offset: int,
    count: Optional[int] = None,
    *,
    inverted: bool = False,
    cap_q: Optional[int] = None,
) -> List[Factor]:
    """Factor list for prod_k (1 - value * q^(q_offset + k)).

    ``count`` gives the number of factors; ``count=None`` means the infinite
    product, materialized only up to exponent cap_q (all later factors are 1
    within the truncation).  Zero ``value`` yields no factors.
    """
    value = Fraction(value)
    if value == 0:
        return []
    if count is None:
        if cap_q is None:
            raise SeriesError("an infinite product needs cap_q to materialize")
        if q_offset < 0:
            raise NegativeExponentError(
                f"infinite product starting at q^{q_offset} does not terminate"
            )
        count = max(0, cap_q - q_offset + 1)
    elif count < 0:
        raise SeriesError(f"factor count must be >= 0, got {count}")
    return [Factor(value, q_offset + k, inverted) for k in range(count)]


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


def times_binomial(c: Dense, v, m: int) -> None:
    """c <- c * (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    p, d = v.numerator, v.denominator
    if not p or m >= len(c):
        return
    if d == 1:
        c[m:] = [x - p * y for x, y in zip(c[m:], c)]
    else:
        c[:] = [d * x for x in c[:m]] + [d * x - p * y for x, y in zip(c[m:], c)]
        c.den *= d


def over_binomial(c: Dense, v, m: int) -> None:
    """c <- c / (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    n = len(c)
    p, d = v.numerator, v.denominator
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


def apply_factors(c: Dense, factors: Iterable[Factor]) -> None:
    """c <- c * prod(factors) in place; every q_exp >= 0."""
    for v, m, inverted in factors:
        (over_binomial if inverted else times_binomial)(c, v, m)


def scale(c: Dense, v) -> None:
    """c <- v * c in place."""
    p, d = v.numerator, v.denominator
    if p != 1:
        c[:] = [p * x for x in c]
    c.den *= d


def shift_window(c: Dense, v, s: int = 1) -> None:
    """c <- v * q^s * c in place, on the window s slots higher.

    A ``Dense`` that holds the numerators of q^k .. q^cap_q of a series
    q^k * c holds those of q^(k+s) .. q^cap_q after this: its top s
    numerators, which the shift would push past q^cap_q, drop out.
    """
    if s:
        del c[max(len(c) - s, 0):]
    scale(c, v)


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


class Summand:
    """A summand stepped from one index to the next by its exact term ratio.

    Its value is scalar * q^shift * prod(factors) over the factors that
    have joined its factor list and not left it.  ``window`` holds the
    numerators of q^shift .. q^cap_q alone, so each pass runs on those
    cap_q + 1 - shift slots.  A step flips each factor with m < 0 into
    the scalar and the shift and folds each (1 - v) with m = 0 into the
    scalar, except a vanishing one (v = 1): that one is counted, in the
    numerator or the denominator, until it leaves the list.

    ``value`` refuses a summand that holds a vanishing denominator factor
    (0/0 if it also holds a vanishing numerator factor) or a pole at
    q = 0, and is zero while it holds a vanishing numerator factor
    (``is_zero``, the one place these counts are read).  A
    step of negative net q-power would widen the window past the
    numerators kept, so the window is dropped; only a summand refused or
    zero until then can have taken one.
    """

    def __init__(self, cap_q: int):
        self.cap_q = cap_q
        self.shift = 0
        self.window: Optional[Dense] = Dense([1] + [0] * cap_q)
        self.vanishing = [0, 0]  # held (1 - q^0) factors: numerator, denominator

    def step(self, enter: Iterable[Factor] = (), leave: Iterable[Factor] = (), *,
             scalar=1, q_shift: int = 0) -> None:
        """Multiply by scalar * q^q_shift * prod(enter) / prod(leave).

        ``enter`` factors join the summand's factor list and ``leave``
        factors leave it, each in the numerator or, inverted, the
        denominator.
        """
        self._run(*self._count(enter, leave, scalar, q_shift))

    def _count(self, enter, leave, scalar, q_shift):
        """A step's factors counted into the vanishing counts and the
        shift; returns its scalar, its net q-power and its passes, not run."""
        if not isinstance(scalar, Fraction):
            scalar = Fraction(scalar)
        shift = q_shift
        passes = []
        for leaving, factors in ((False, enter), (True, leave)):
            for v, m, inverted in factors:
                if not v.numerator:
                    continue
                if m == 0 and v == 1:
                    self.vanishing[inverted] += -1 if leaving else 1
                    continue
                divide = inverted != leaving
                if m < 0:
                    scalar = scalar / -v if divide else scalar * -v
                    shift += -m if divide else m
                    v, m = 1 / v, -m
                if m == 0:
                    scalar = scalar / (1 - v) if divide else scalar * (1 - v)
                else:
                    passes.append((over_binomial if divide else times_binomial, v, m))
        self.shift += shift
        return scalar, shift, passes

    def _run(self, scalar, shift, passes) -> None:
        """A counted step's scalar, q-power and passes applied to the window."""
        c = self.window
        if c is None:
            return
        if shift < 0:
            self.window = None
            return
        shift_window(c, scalar, shift)
        for kernel, v, m in passes:
            kernel(c, v, m)
        reduce_dense(c)

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

    def value(self, label: str = "") -> Dense:
        """The summand to q^cap_q; refuses 1/0, 0/0 and a pole at q = 0.

        With shift 0 this is ``window`` itself, valid until the next step.
        """
        if self.is_zero(label):
            return Dense.zero(self.cap_q)
        if self.shift < 0:
            raise DegenerateParameterError(
                f"product has a pole of order {-self.shift} at q = 0{_where(label)}"
            )
        c = self.window
        if c is None:
            raise SeriesError(f"a stepped summand's window cannot widen{_where(label)}")
        return Dense([0] * self.shift + c, c.den) if self.shift else c


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
    passes run only on a product that is not zero: every refusal reads
    the counts and the q-power alone.
    """
    term = Summand(cap_q)
    step = term._count(factors, (), scalar, q_shift)
    if not term.is_zero(label):
        term._run(*step)
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
