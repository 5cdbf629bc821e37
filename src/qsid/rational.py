"""Exact q-series evaluation with parameters fixed at rational values.

Rational mode handles expressions that are not polynomial in the
parameters, such as q/a or q^(1-N)*a*b/c: parameters become exact
``Fraction`` values and only q stays formal, so every result is a
``TruncatedSeries`` over the q-only profile.

Two pieces of machinery live here.

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
geometric recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, List, Optional

from .series import (
    SeriesError,
    NegativeExponentError,
    TruncatedSeries,
    invert_one_minus,
    q_only_profile,
)

__all__ = [
    "DegenerateParameterError",
    "Factor",
    "RationalAssignment",
    "cached_poch_series",
    "geometric_inverse_factor",
    "pochhammer_factors",
    "product_series",
    "sum_with_geometric_tail",
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
    profile = q_only_profile(cap_q)
    where = f" in {label}" if label else ""
    scalar = Fraction(scalar)
    shift = q_shift
    regular: List[Factor] = []
    factors = list(factors)

    # A zero numerator factor annihilates the product regardless of any
    # degenerate denominator factor elsewhere (terminating sums rely on it).
    for f in factors:
        if not f.inverted and f.q_exp == 0 and f.value == 1:
            return TruncatedSeries.zero(profile)

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
                    return TruncatedSeries.zero(profile)
                scalar *= c
        else:
            regular.append(f)

    if shift < 0:
        raise DegenerateParameterError(
            f"product has a pole of order {-shift} at q = 0{where}"
        )
    if shift > cap_q:
        return TruncatedSeries.zero(profile)

    acc = TruncatedSeries.one(profile)
    for f in regular:
        if f.q_exp > cap_q:
            continue
        if f.inverted:
            acc = acc * invert_one_minus(
                TruncatedSeries.term(profile, f.value, e_q=f.q_exp)
            )
        else:
            acc = acc * TruncatedSeries(
                profile, [((0, 0, 0, 0), 1), ((0, 0, 0, f.q_exp), -f.value)]
            )
    if shift:
        acc = acc * TruncatedSeries.term(profile, 1, e_q=shift)
    if scalar != 1:
        acc = acc * scalar
    return acc


@lru_cache(maxsize=16384)
def cached_poch_series(
    value: Fraction,
    q_offset: int,
    q_step: int,
    count: Optional[int],
    cap_q: int,
    inverted: bool = False,
) -> TruncatedSeries:
    """Memoized finite or infinite q-shifted factorial as a q-only series.

    Shared heavily by the double-sum checkers; results are immutable so
    sharing is safe.
    """
    return product_series(
        pochhammer_factors(
            value, q_offset, q_step, count, inverted=inverted, cap_q=cap_q
        ),
        cap_q,
    )


def geometric_inverse_factor(value, q_exp: int, cap_q: int) -> TruncatedSeries:
    """Memoized 1/(1 - value*q^q_exp) with q_exp >= 0 (constant for q_exp = 0)."""
    return cached_poch_series(Fraction(value), q_exp, 1, 1, cap_q, True)


def sum_with_geometric_tail(
    term: Callable[[int], TruncatedSeries],
    ratio,
    freeze_index: int,
    cap_q: int,
) -> TruncatedSeries:
    """Exact sum over n >= 0 of term(n) when term(n+1) = ratio*term(n) past the freeze.

    The caller guarantees the recurrence holds (within the truncation) for
    every n >= freeze_index; the tail then sums to term(freeze)/(1 - ratio).
    """
    ratio = Fraction(ratio)
    if ratio == 1:
        raise DegenerateParameterError("geometric tail ratio equals 1")
    total = TruncatedSeries.zero(q_only_profile(cap_q))
    for n in range(freeze_index):
        total = total + term(n)
    total = total + term(freeze_index) * (Fraction(1) / (1 - ratio))
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
