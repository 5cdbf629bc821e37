"""Exact q-series evaluation with parameters fixed at rational values.

Rational mode handles expressions that are not polynomial in the
parameters, such as q/a or q^(1-N)*a*b/c: parameters become exact
``Fraction`` values and only q stays formal.

While a side is being built its series is a ``Dense``: a list of the
cap_q + 1 integer numerators of q^0 .. q^cap_q over one common positive
denominator ``den``.  Every factor in rational mode is a binomial
(1 - v*q^m)^(+-1) with v = p/d in lowest terms, and each one costs a
single in-place pass over the numerators, with no gcd in it:

    times (1 - v*q^m):  c[i] = d*c[i] - p*c[i-m]   for i from cap_q down,
                        den *= d
    over  (1 - v*q^m):  w[i] = d^(i//m)*c[i] + p*w[i-m]   for i from m up,
                        then c[i] = w[i]*d^(J - i//m), den *= d^J,
                        where J = cap_q//m

The second is the geometric series 1 + v*q^m + v^2*q^(2m) + ... applied
by recurrence.  Its exact value is W[i] = C[i] + v*W[i-m], and w[i] is
W[i]*den*d^(i//m): one more power of d per step of m is exactly what
clears the new denominator of v*W[i-m], so every w[i] is an integer, and
the rescale by d^(J - i//m) puts all of them over den*d^J.  With d = 1
both passes are the one-multiply loops c[i] -= p*c[i-m] and
c[i] += p*c[i-m], and den does not change.  A factor with m > cap_q is
1 within the truncation and is skipped.

Sums add numerators after aligning unequal denominators by their gcd
(``accumulate``), scalars multiply the numerators and ``den``
(``scale``), and a product of two sides is a q-only convolution of the
numerators over the product of the denominators (``convolve``).  Nothing
is reduced per pass: ``reduce_dense`` divides by gcd(den, *nums) once per
outer step of the chain double sums and once per finished side, and a
finished side becomes a ``TruncatedSeries`` over the q-only profile once
(``dense_series``, which packs the reduced numerators into one row over
``den``), so comparisons and reports see the same values as any other
series.  Two ``Dense`` values are equal when their coefficient
values are, whatever their denominators.

``product_series`` evaluates a product of factors (1 - v*q^m)^(+-1) with
rational v and integer m of either sign.  A factor with m < 0 is flipped
through the exact rewrite

    1 - v*q^(-s)  =  (-v) * q^(-s) * (1 - (1/v) * q^s),

which moves the pole into an overall monomial prefactor.  If the combined
prefactor still has a negative q-power the product is genuinely Laurent
and evaluation fails loudly; in the identities checked here the negative
powers always cancel.

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
from typing import Callable, Iterable, List, Optional

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
    "accumulate",
    "apply_factors",
    "convolve",
    "dense_series",
    "over_binomial",
    "pochhammer_factors",
    "product_series",
    "reduce_dense",
    "require_frozen",
    "scale",
    "sum_with_geometric_tail",
    "times_binomial",
    "times_q",
]


class DegenerateParameterError(SeriesError):
    """A parameter value makes a denominator vanish (or a tail ratio equal 1)."""


@dataclass(frozen=True)
class Factor:
    """One factor (1 - value * q^q_exp), inverted when it sits in a denominator."""

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
    if not v or m >= len(c):
        return
    p, d = v.numerator, v.denominator
    if d == 1:
        c[m:] = [x - p * y for x, y in zip(c[m:], c)]
    else:
        c[:] = [d * x for x in c[:m]] + [d * x - p * y for x, y in zip(c[m:], c)]
        c.den *= d


def over_binomial(c: Dense, v, m: int) -> None:
    """c <- c / (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    n = len(c)
    if not v or m >= n:
        return
    p, d = v.numerator, v.denominator
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
    J = (n - 1) // m
    pw = [1] * (J + 1)
    for k in range(1, J + 1):
        pw[k] = pw[k - 1] * d
    for i in range(m, n):
        c[i] = pw[i // m] * c[i] + p * c[i - m]
    c[:] = [x * pw[J - i // m] for i, x in enumerate(c)]
    c.den *= pw[J]


def apply_factors(c: Dense, factors: Iterable[Factor]) -> None:
    """c <- c * prod(factors) in place; every q_exp >= 0."""
    for f in factors:
        (over_binomial if f.inverted else times_binomial)(c, f.value, f.q_exp)


def scale(c: Dense, v) -> None:
    """c <- v * c in place."""
    p, d = v.numerator, v.denominator
    if p != 1:
        c[:] = [p * x for x in c]
    c.den *= d


def times_q(c: Dense, v) -> Dense:
    """v * q * c, truncated at the same cap."""
    p, d = v.numerator, v.denominator
    return Dense([0] + [p * x for x in c[:-1]], c.den * d)


def accumulate(total: Dense, c: Dense) -> None:
    """total <- total + c in place, over the lcm of the two denominators."""
    a, b = total.den, c.den
    if a == b:
        total[:] = [x + y for x, y in zip(total, c)]
        return
    g = gcd(a, b)
    a, b = a // g, b // g
    total[:] = [b * x + a * y for x, y in zip(total, c)]
    total.den *= b


def convolve(x: Dense, y: Dense) -> Dense:
    """The q-only product x * y, truncated at the same cap."""
    n = len(x)
    out = [0] * n
    for i, u in enumerate(x):
        if u:
            for j, w in enumerate(y[: n - i], i):
                out[j] += u * w
    return Dense(out, x.den * y.den)


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


def product_series(
    factors: Iterable[Factor],
    cap_q: int,
    *,
    scalar=1,
    q_shift: int = 0,
    label: str = "",
) -> Dense:
    """Exact value of scalar * q^q_shift * prod(factors) as a ``Dense`` to q^cap_q.

    Negative-exponent factors are flipped into the scalar/shift prefactor;
    a net negative shift means the product has a pole at q = 0 and raises.
    A vanishing numerator factor makes the whole product zero; a vanishing
    denominator factor raises ``DegenerateParameterError``, also over a
    vanishing numerator factor (0/0).
    """
    where = f" in {label}" if label else ""
    scalar = Fraction(scalar)
    shift = q_shift
    regular: List[Factor] = []
    factors = list(factors)

    vanishing = {f.inverted for f in factors if f.q_exp == 0 and f.value == 1}
    if True in vanishing:
        zero = " over a vanishing numerator factor (0/0)" if False in vanishing else ""
        raise DegenerateParameterError(f"denominator factor (1 - v) with v = 1{zero}{where}")
    if vanishing:
        return Dense.zero(cap_q)

    for f in factors:
        v = f.value
        if v == 0:
            continue
        m = f.q_exp
        if m < 0:
            if f.inverted:
                scalar /= -v
                shift -= m
            else:
                scalar *= -v
                shift += m
            regular.append(Factor(1 / v, -m, f.inverted))
        elif m == 0:  # 1 - v != 0: no factor vanishes past the check above
            scalar = scalar / (1 - v) if f.inverted else scalar * (1 - v)
        else:
            regular.append(f)

    if shift < 0:
        raise DegenerateParameterError(
            f"product has a pole of order {-shift} at q = 0{where}"
        )
    if shift > cap_q:
        return Dense.zero(cap_q)

    # the factors act on q^shift .. q^cap_q only: build that window alone
    acc = Dense.zero(cap_q - shift)
    acc[0] = scalar.numerator
    acc.den = scalar.denominator
    apply_factors(acc, regular)
    if shift:
        acc[:0] = [0] * shift
    return acc


def sum_with_geometric_tail(
    term: Callable[[int], Dense],
    ratio,
    freeze_index: int,
    cap_q: int,
) -> Dense:
    """Exact sum over n >= 0 of term(n) when term(n+1) = ratio*term(n) past the freeze.

    The tail from ``freeze_index`` on sums to term(freeze)/(1 - ratio).  The
    recurrence is checked at the freeze index itself: ``SeriesError`` is
    raised unless term(freeze + 1) == ratio * term(freeze).
    """
    ratio = Fraction(ratio)
    if ratio == 1:
        raise DegenerateParameterError("geometric tail ratio equals 1")
    total = Dense.zero(cap_q)
    for n in range(freeze_index):
        accumulate(total, term(n))
    frozen = term(freeze_index)
    expected = frozen.copy()
    scale(expected, ratio)
    if term(freeze_index + 1) != expected:
        raise SeriesError(
            f"freeze index {freeze_index} too early: term {freeze_index + 1} is not "
            f"{ratio} times term {freeze_index}"
        )
    scale(frozen, 1 / (1 - ratio))
    accumulate(total, frozen)
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
