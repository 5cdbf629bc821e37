"""Exact q-series evaluation with parameters fixed at rational values.

Rational mode handles expressions that are not polynomial in the
parameters, such as q/a or q^(1-N)*a*b/c: parameters become exact
``Fraction`` values and only q stays formal.

While a side is being built its series is *dense*: a list of the
cap_q + 1 exact coefficients of q^0 .. q^cap_q.  Every factor in rational
mode is a binomial (1 - v*q^m)^(+-1), and each one costs a single in-place
pass over that list:

    times (1 - v*q^m):  c[i] -= v*c[i-m]   for i from cap_q down to m
    over  (1 - v*q^m):  c[i] += v*c[i-m]   for i from m up to cap_q

(the second is the geometric series 1 + v*q^m + v^2*q^(2m) + ... applied
by recurrence).  A finished side becomes a ``TruncatedSeries`` over the
q-only profile once, so comparisons and reports see the same values as
any other series.

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
from typing import Callable, Iterable, List, Optional

from .series import (
    SeriesError,
    NegativeExponentError,
    TruncatedSeries,
    q_only_profile,
)

__all__ = [
    "DegenerateParameterError",
    "Factor",
    "RationalAssignment",
    "accumulate",
    "apply_factors",
    "dense_series",
    "over_binomial",
    "pochhammer_factors",
    "product_series",
    "require_frozen",
    "sum_with_geometric_tail",
    "times_binomial",
]

Dense = List[Fraction]


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
    q_step: int = 1,
    count: Optional[int] = None,
    *,
    inverted: bool = False,
    cap_q: Optional[int] = None,
) -> List[Factor]:
    """Factor list for prod_k (1 - value * q^(q_offset + k*q_step)).

    ``count`` gives the number of factors; ``count=None`` means the infinite
    product, materialized only up to exponent cap_q (all later factors are 1
    within the truncation).  Zero ``value`` yields no factors.
    """
    value = Fraction(value)
    if q_step < 1:
        raise SeriesError(f"q_step must be >= 1, got {q_step}")
    if value == 0:
        return []
    if count is None:
        if cap_q is None:
            raise SeriesError("an infinite product needs cap_q to materialize")
        if q_offset < 0:
            raise NegativeExponentError(
                f"infinite product starting at q^{q_offset} does not terminate"
            )
        count = max(0, (cap_q - q_offset) // q_step + 1)
    elif count < 0:
        raise SeriesError(f"factor count must be >= 0, got {count}")
    return [Factor(value, q_offset + k * q_step, inverted) for k in range(count)]


# ------------------------------------------------------------- dense kernel


def times_binomial(c: Dense, v, m: int) -> None:
    """c <- c * (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    if not v:
        return
    for i in range(len(c) - 1, m - 1, -1):
        x = c[i - m]
        if x:
            c[i] -= v * x


def over_binomial(c: Dense, v, m: int) -> None:
    """c <- c / (1 - v*q^m) in place, truncated at q^(len(c) - 1); m >= 0."""
    if not v:
        return
    if m == 0:
        if v == 1:
            raise DegenerateParameterError("denominator factor (1 - v) with v = 1")
        c[:] = [x / (1 - v) for x in c]
        return
    for i in range(m, len(c)):
        x = c[i - m]
        if x:
            c[i] += v * x


def apply_factors(c: Dense, factors: Iterable[Factor]) -> None:
    """c <- c * prod(factors) in place; every q_exp >= 0."""
    for f in factors:
        (over_binomial if f.inverted else times_binomial)(c, f.value, f.q_exp)


def accumulate(total: Dense, c: Dense) -> None:
    """total <- total + c in place."""
    for i, x in enumerate(c):
        if x:
            total[i] += x


def dense_series(c: Dense, cap_q: int) -> TruncatedSeries:
    """The finished dense coefficient list as a q-only ``TruncatedSeries``."""
    return TruncatedSeries(
        q_only_profile(cap_q), [((0, 0, 0, i), x) for i, x in enumerate(c) if x]
    )


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
) -> TruncatedSeries:
    """Exact value of scalar * q^q_shift * prod(factors) as a q-only series.

    Negative-exponent factors are flipped into the scalar/shift prefactor;
    a net negative shift means the product has a pole at q = 0 and raises.
    A vanishing numerator factor makes the whole product zero; a vanishing
    denominator factor raises ``DegenerateParameterError``.
    """
    where = f" in {label}" if label else ""
    scalar = Fraction(scalar)
    shift = q_shift
    regular: List[Factor] = []
    factors = list(factors)
    zero = TruncatedSeries.zero(q_only_profile(cap_q))

    # A zero numerator factor annihilates the product regardless of any
    # degenerate denominator factor elsewhere (terminating sums rely on it).
    for f in factors:
        if not f.inverted and f.q_exp == 0 and f.value == 1:
            return zero

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
        elif m == 0:
            c = 1 - v
            if f.inverted:
                if c == 0:
                    raise DegenerateParameterError(
                        f"denominator factor (1 - v) with v = 1{where}"
                    )
                scalar /= c
            else:
                if c == 0:
                    return zero
                scalar *= c
        else:
            regular.append(f)

    if shift < 0:
        raise DegenerateParameterError(
            f"product has a pole of order {-shift} at q = 0{where}"
        )
    if shift > cap_q:
        return zero

    acc = [0] * (cap_q + 1)
    acc[shift] = scalar
    apply_factors(acc, regular)
    return dense_series(acc, cap_q)


def sum_with_geometric_tail(
    term: Callable[[int], TruncatedSeries],
    ratio,
    freeze_index: int,
    cap_q: int,
) -> TruncatedSeries:
    """Exact sum over n >= 0 of term(n) when term(n+1) = ratio*term(n) past the freeze.

    The tail from ``freeze_index`` on sums to term(freeze)/(1 - ratio).  The
    recurrence is checked at the freeze index itself: ``SeriesError`` is
    raised unless term(freeze + 1) == ratio * term(freeze).
    """
    ratio = Fraction(ratio)
    if ratio == 1:
        raise DegenerateParameterError("geometric tail ratio equals 1")
    total = TruncatedSeries.zero(q_only_profile(cap_q))
    for n in range(freeze_index):
        total = total + term(n)
    frozen = term(freeze_index)
    if term(freeze_index + 1) != frozen * ratio:
        raise SeriesError(
            f"freeze index {freeze_index} too early: term {freeze_index + 1} is not "
            f"{ratio} times term {freeze_index}"
        )
    total = total + frozen * (Fraction(1) / (1 - ratio))
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
