"""Exact truncated power-series arithmetic in the variables a, b, t, q.

Everything here lives in a finite quotient of the polynomial ring
Q[a, b, t, q]: a ``TruncationProfile`` fixes one degree cap per variable,
and any monomial exceeding a cap is silently dropped.  Within those caps
all arithmetic is exact (coefficients are arbitrary-precision rationals),
so two series are equal iff their term maps are identical.

Because exponents only grow under multiplication, dropping over-cap
monomials commutes with products: the quotient really is a ring, and
addition and multiplication are associative, commutative and distributive
on the nose.

A series also tracks ``valid_to_q``, the q-degree up to which its
coefficients are guaranteed exact.  Plain arithmetic takes the minimum of
the operands; q-substitution and exponent shifts reduce it explicitly so
that later comparisons cannot silently read truncation artifacts.

Monomials are never allowed a negative exponent.  Operations that would
need one (for example shifting a series by q^(-1) per power of a when
some monomial is a-heavy) raise ``NegativeExponentError`` instead of
producing a Laurent term.

Every q-shifted factorial factor is a binomial (1 - c*x^m) in one
monomial x^m, so ``times_binomial`` and ``over_binomial`` apply one such
factor, or its inverse, in a single pass over the term map; the side
builders use nothing else.  Dividing is exact because (1 - c*x^m) is a
unit of the truncated ring whenever m is not constant.

    >>> prof = TruncationProfile(cap_a=0, cap_b=2, cap_t=0, cap_q=4)
    >>> b = TruncatedSeries.term(prof, 1, e_b=1)
    >>> print(invert_one_minus(b))
    1 + b + b^2
    >>> print(pochhammer_finite(1, Monomial(e_b=1), 1, 1, 2, prof))
    1 - b*q - b*q^2 + b^2*q^3
    >>> print(pochhammer_infinite(1, Monomial(), 1, 1, prof))
    1 - q - q^2
    >>> print(b.times_binomial(-1, Monomial(e_b=1, e_q=1)))
    b + b^2*q
    >>> print(TruncatedSeries.one(prof).over_binomial(2, Monomial(e_b=1, e_q=1)))
    1 + 2*b*q + 4*b^2*q^2
    >>> print(substitute_q_power(TruncatedSeries.term(prof, 1, e_q=1), 2))
    q^2
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Tuple, Union

Coeff = Union[int, Fraction]

__all__ = [
    "Coeff",
    "Monomial",
    "MONO_ONE",
    "NegativeExponentError",
    "NonNilpotentError",
    "ProfileMismatchError",
    "SeriesError",
    "TruncatedSeries",
    "TruncationProfile",
    "ValidityError",
    "coefficient",
    "compare_series",
    "invert_one_minus",
    "pochhammer_finite",
    "pochhammer_infinite",
    "q_only_profile",
    "shift_a_by_q",
    "substitute_q_power",
    "swap_b_t",
]


class SeriesError(ValueError):
    """Base class for series-engine errors."""


class ProfileMismatchError(SeriesError):
    """Arithmetic attempted between series with different profiles."""


class NegativeExponentError(SeriesError):
    """An operation would produce a monomial with a negative exponent."""


class NonNilpotentError(SeriesError):
    """Inversion or an infinite product was asked to expand a non-truncating direction."""


class ValidityError(SeriesError):
    """A coefficient was requested outside the guaranteed-exact region."""


class Monomial(NamedTuple):
    """Exponent vector a^e_a * b^e_b * t^e_t * q^e_q, all exponents >= 0."""

    e_a: int = 0
    e_b: int = 0
    e_t: int = 0
    e_q: int = 0

    def order_key(self) -> Tuple[int, int, int, int]:
        """Canonical report order: lexicographic on (e_q, e_a, e_b, e_t)."""
        return (self.e_q, self.e_a, self.e_b, self.e_t)

    def __str__(self) -> str:
        if not any(self):
            return "1"
        bits = []
        for name, e in zip("abtq", self):
            if e == 1:
                bits.append(name)
            elif e > 1:
                bits.append(f"{name}^{e}")
        return "*".join(bits)


MONO_ONE = Monomial()


@dataclass(frozen=True)
class TruncationProfile:
    """Per-variable degree caps; a monomial is kept iff every exponent is <= its cap."""

    cap_a: int
    cap_b: int
    cap_t: int
    cap_q: int

    def __post_init__(self) -> None:
        for name in ("cap_a", "cap_b", "cap_t", "cap_q"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SeriesError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def caps(self) -> Tuple[int, int, int, int]:
        return (self.cap_a, self.cap_b, self.cap_t, self.cap_q)

    def admits(self, m: Tuple[int, int, int, int]) -> bool:
        return (
            m[0] <= self.cap_a
            and m[1] <= self.cap_b
            and m[2] <= self.cap_t
            and m[3] <= self.cap_q
        )

    def nilpotency_bound(self) -> int:
        """Any product of more than this many constant-free factors is zero."""
        return self.cap_a + self.cap_b + self.cap_t + self.cap_q


def _binomial_monomial(m) -> Monomial:
    m = Monomial(*m)
    if min(m) < 0:
        raise NegativeExponentError(f"binomial monomial {m!r} has a negative exponent")
    return m


def q_only_profile(cap_q: int) -> TruncationProfile:
    """Profile for series living in q alone (all parameters already numbers)."""
    return TruncationProfile(0, 0, 0, cap_q)


class TruncatedSeries:
    """Sparse exact series: a finite map from monomials to nonzero rationals.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction.
    """

    __slots__ = ("profile", "terms", "valid_to_q")

    def __init__(self, profile, terms=None, valid_to_q=None):
        tmap = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for m, c in items:
                m = Monomial(*m)
                if min(m) < 0:
                    raise NegativeExponentError(f"monomial {m!r} has a negative exponent")
                if not profile.admits(m):
                    raise SeriesError(
                        f"monomial {m} exceeds the profile caps {profile.caps}"
                    )
                if c == 0:
                    continue
                prev = tmap.get(m)
                acc = c if prev is None else prev + c
                if acc == 0:
                    tmap.pop(m, None)
                else:
                    tmap[m] = acc
        v = profile.cap_q if valid_to_q is None else valid_to_q
        if v > profile.cap_q:
            raise SeriesError(f"valid_to_q={v} exceeds cap_q={profile.cap_q}")
        self.profile = profile
        self.terms = tmap
        self.valid_to_q = v

    @classmethod
    def _raw(cls, profile, terms, valid_to_q):
        """Internal constructor: terms already pruned and within caps."""
        s = object.__new__(cls)
        s.profile = profile
        s.terms = terms
        s.valid_to_q = valid_to_q
        return s

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, profile, valid_to_q=None):
        return cls._raw(profile, {}, profile.cap_q if valid_to_q is None else valid_to_q)

    @classmethod
    def one(cls, profile):
        return cls._raw(profile, {MONO_ONE: 1}, profile.cap_q)

    @classmethod
    def constant(cls, profile, value):
        if value == 0:
            return cls.zero(profile)
        return cls._raw(profile, {MONO_ONE: value}, profile.cap_q)

    @classmethod
    def term(cls, profile, coeff, e_a=0, e_b=0, e_t=0, e_q=0):
        """Single-term series coeff * a^e_a b^e_b t^e_t q^e_q (dropped if over cap)."""
        m = Monomial(e_a, e_b, e_t, e_q)
        if min(m) < 0:
            raise NegativeExponentError(f"monomial {m!r} has a negative exponent")
        if coeff == 0 or not profile.admits(m):
            return cls.zero(profile)
        return cls._raw(profile, {m: coeff}, profile.cap_q)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get(MONO_ONE, 0)

    def sorted_items(self):
        """Terms as (Monomial, coeff) pairs in canonical order."""
        items = [(Monomial(*m), c) for m, c in self.terms.items()]
        items.sort(key=lambda mc: mc[0].order_key())
        return items

    # ------------------------------------------------------------ arithmetic

    def _check_profile(self, other: "TruncatedSeries") -> None:
        if self.profile != other.profile:
            raise ProfileMismatchError(
                f"mixed profiles: {self.profile.caps} vs {other.profile.caps}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.profile, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_profile(other)
        merged = dict(self.terms)
        for m, c in other.terms.items():
            acc = merged.get(m)
            acc = c if acc is None else acc + c
            if acc == 0:
                merged.pop(m, None)
            else:
                merged[m] = acc
        return TruncatedSeries._raw(
            self.profile, merged, min(self.valid_to_q, other.valid_to_q)
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(
            self.profile, {m: -c for m, c in self.terms.items()}, self.valid_to_q
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.profile, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries._raw(self.profile, {}, self.valid_to_q)
            return TruncatedSeries._raw(
                self.profile,
                {m: c * other for m, c in self.terms.items()},
                self.valid_to_q,
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_profile(other)
        ca, cb, ct, cq = self.profile.caps
        x, y = self.terms, other.terms
        if len(x) > len(y):
            x, y = y, x
        y_items = list(y.items())
        out: dict = {}
        for (xa, xb, xt, xq), cx in x.items():
            for (ya, yb, yt, yq), cy in y_items:
                ea = xa + ya
                if ea > ca:
                    continue
                eb = xb + yb
                if eb > cb:
                    continue
                et = xt + yt
                if et > ct:
                    continue
                eq = xq + yq
                if eq > cq:
                    continue
                k = (ea, eb, et, eq)
                prev = out.get(k)
                acc = cx * cy if prev is None else prev + cx * cy
                if acc == 0:
                    out.pop(k, None)
                else:
                    out[k] = acc
        return TruncatedSeries._raw(
            self.profile, out, min(self.valid_to_q, other.valid_to_q)
        )

    __rmul__ = __mul__

    def times_binomial(self, c: Coeff, m) -> "TruncatedSeries":
        """self * (1 - c * x^m) in one pass over the terms."""
        m = _binomial_monomial(m)
        if c == 0 or not self.profile.admits(m):
            return self
        ma, mb, mt, mq = m
        ca, cb, ct, cq = self.profile.caps
        out = dict(self.terms)
        for (ea, eb, et, eq), v in self.terms.items():
            if ea + ma <= ca and eb + mb <= cb and et + mt <= ct and eq + mq <= cq:
                k = (ea + ma, eb + mb, et + mt, eq + mq)
                acc = out.get(k, 0) - c * v
                if acc:
                    out[k] = acc
                else:
                    out.pop(k, None)
        return TruncatedSeries._raw(self.profile, out, self.valid_to_q)

    def over_binomial(self, c: Coeff, m) -> "TruncatedSeries":
        """self / (1 - c * x^m), exact in the truncated ring, in one ascending pass.

        The quotient y satisfies y = self + c * x^m * y.  Terms are bucketed
        by one exponent that m raises (q when it can), so a bucket is final
        once every lower bucket has pushed its terms on by x^m; each output
        term is pushed forward once.  A constant m is refused, as
        ``invert_one_minus`` refuses a constant term.
        """
        m = _binomial_monomial(m)
        if not any(m):
            raise NonNilpotentError(
                "over_binomial needs a monomial carrying a capped variable"
            )
        if c == 0 or not self.profile.admits(m):
            return self
        axis = 3 if m[3] else next(i for i in range(3) if m[i])
        step, top = m[axis], self.profile.caps[axis]
        ma, mb, mt, mq = m
        ca, cb, ct, cq = self.profile.caps
        buckets: dict = {}
        for k, v in self.terms.items():
            bucket = buckets.get(k[axis])
            if bucket is None:
                buckets[k[axis]] = {k: v}
            else:
                bucket[k] = v
        out = {}
        for e in range(min(buckets, default=top), top + 1):
            bucket = buckets.pop(e, None)
            if not bucket:
                continue
            nxt = buckets.setdefault(e + step, {})
            for k, v in bucket.items():
                if not v:
                    continue  # cancelled: neither stored nor pushed
                out[k] = v
                ea, eb, et, eq = k
                if ea + ma <= ca and eb + mb <= cb and et + mt <= ct and eq + mq <= cq:
                    k = (ea + ma, eb + mb, et + mt, eq + mq)
                    nxt[k] = nxt.get(k, 0) + c * v
        return TruncatedSeries._raw(self.profile, out, self.valid_to_q)

    def __eq__(self, other):
        """Mathematical equality in the quotient ring (term maps agree)."""
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.profile, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.profile == other.profile and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_items():
            cs = str(Fraction(c))
            if m == MONO_ONE:
                bits.append(cs)
            elif cs == "1":
                bits.append(str(m))
            elif cs == "-1":
                bits.append(f"-{m}")
            else:
                bits.append(f"{cs}*{m}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        body = str(self)
        if len(body) > 120:
            body = body[:117] + "..."
        return (
            f"<TruncatedSeries {len(self.terms)} terms, caps={self.profile.caps}, "
            f"valid_to_q={self.valid_to_q}: {body}>"
        )


# -------------------------------------------------------------- spec-facing ops


def invert_one_minus(x: TruncatedSeries) -> TruncatedSeries:
    """Exact inverse of (1 - x) under the profile, i.e. sum of the powers of x.

    Requires x to have zero constant term: every monomial then carries a
    positive exponent in some capped variable, so the power iteration
    terminates once all monomials overflow their caps.
    """
    if x.constant_term != 0:
        raise NonNilpotentError(
            "invert_one_minus requires a series with zero constant term"
        )
    acc = TruncatedSeries.one(x.profile) + TruncatedSeries.zero(x.profile, x.valid_to_q)
    p = TruncatedSeries.one(x.profile)
    limit = x.profile.nilpotency_bound() + 2
    for _ in range(limit):
        p = p * x
        if p.is_zero():
            return acc
        acc = acc + p
    raise NonNilpotentError("power iteration failed to terminate")  # unreachable


def pochhammer_finite(
    coeff: Coeff,
    base: Monomial,
    q_offset: int,
    q_step: int,
    n: int,
    profile: TruncationProfile,
) -> TruncatedSeries:
    """Product of n factors (1 - coeff * base * q^(q_offset + k*q_step)), k = 0..n-1.

    The empty product (n = 0) is 1.  The q-exponent of ``base`` adds to the
    offset; every effective exponent must be nonnegative.
    """
    if not isinstance(n, int) or n < 0:
        raise SeriesError(f"factor count must be a nonnegative integer, got {n!r}")
    if q_step < 1:
        raise SeriesError(f"q_step must be >= 1, got {q_step}")
    base = Monomial(*base)
    if min(base) < 0:
        raise NegativeExponentError(f"base monomial {base!r} has a negative exponent")
    acc = TruncatedSeries.one(profile)
    for k in range(n):
        e_q = base.e_q + q_offset + k * q_step
        if e_q < 0:
            raise NegativeExponentError(
                f"factor {k} would sit at q^{e_q}; negative exponents are not representable"
            )
        moving = base._replace(e_q=e_q)
        acc = acc.times_binomial(coeff, moving)
    return acc


def pochhammer_infinite(
    coeff: Coeff,
    base: Monomial,
    q_offset: int,
    q_step: int,
    profile: TruncationProfile,
) -> TruncatedSeries:
    """Infinite product of factors (1 - coeff * base * q^(q_offset + k*q_step)).

    Exact within the profile: factors whose q-exponent exceeds cap_q are
    identically 1 there, so only finitely many are multiplied.  When the
    base involves a formal variable the leading factor must already move
    in q (effective offset >= 1), otherwise the product does not truncate
    factor by factor.
    """
    if q_step < 1:
        raise SeriesError(f"q_step must be >= 1, got {q_step}")
    base = Monomial(*base)
    if min(base) < 0:
        raise NegativeExponentError(f"base monomial {base!r} has a negative exponent")
    start = base.e_q + q_offset
    if start < 0:
        raise NegativeExponentError(f"leading factor would sit at q^{start}")
    if start == 0 and (base.e_a or base.e_b or base.e_t):
        raise NonNilpotentError(
            "infinite product needs q_offset >= 1 when the base carries a formal variable"
        )
    acc = TruncatedSeries.one(profile)
    e_q = start
    while e_q <= profile.cap_q:
        moving = base._replace(e_q=e_q)
        acc = acc.times_binomial(coeff, moving)
        e_q += q_step
    return acc


def substitute_q_power(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Replace q by q^k: every e_q is multiplied by k, over-cap monomials dropped.

    The result is guaranteed exact to q-degree k*valid + (k-1): the first
    unknown input coefficient (degree valid+1) lands at k*(valid+1).
    """
    if not isinstance(k, int) or k < 1:
        raise SeriesError(f"substitution power must be an integer >= 1, got {k!r}")
    cap_q = s.profile.cap_q
    out = {}
    for m, c in s.terms.items():
        eq = m[3] * k
        if eq > cap_q:
            continue
        out[(m[0], m[1], m[2], eq)] = c
    valid = min(cap_q, k * s.valid_to_q + (k - 1))
    return TruncatedSeries._raw(s.profile, out, valid)


def shift_a_by_q(s: TruncatedSeries, j: int) -> TruncatedSeries:
    """Replace a by a*q^j: e_q becomes e_q + j*e_a for every monomial.

    For j < 0 a monomial with large e_a may fall below q^0; that is an
    error, not a Laurent term.  Downward shifts also cost validity: a
    coefficient at degree d now draws on input degrees up to d + |j|*cap_a,
    so valid_to_q drops by |j|*cap_a (conservative, floor -1 = nothing valid).
    """
    if not isinstance(j, int):
        raise SeriesError(f"shift must be an integer, got {j!r}")
    cap_q = s.profile.cap_q
    out = {}
    for m, c in s.terms.items():
        eq = m[3] + j * m[0]
        if eq < 0:
            raise NegativeExponentError(
                f"monomial {Monomial(*m)} would land at q^{eq} under a -> a*q^{j}"
            )
        if eq > cap_q:
            continue
        out[(m[0], m[1], m[2], eq)] = c
    penalty = (-j) * s.profile.cap_a if j < 0 else 0
    valid = max(-1, s.valid_to_q - penalty)
    return TruncatedSeries._raw(s.profile, out, valid)


def swap_b_t(s: TruncatedSeries) -> TruncatedSeries:
    """Exchange the exponents of b and t in every monomial, and cap_b with cap_t."""
    a, b, t, q = s.profile.caps
    out = {(m[0], m[2], m[1], m[3]): c for m, c in s.terms.items()}
    return TruncatedSeries._raw(TruncationProfile(a, t, b, q), out, s.valid_to_q)


def coefficient(s: TruncatedSeries, m) -> Coeff:
    """Stored coefficient of a monomial, or 0; the query must be answerable.

    Raises ``ValidityError`` when the monomial exceeds the caps or its
    q-degree lies beyond the guaranteed-exact region.
    """
    m = Monomial(*m)
    if min(m) < 0:
        raise NegativeExponentError(f"monomial {m!r} has a negative exponent")
    if not s.profile.admits(m):
        raise ValidityError(f"monomial {m} is outside the profile caps {s.profile.caps}")
    if m.e_q > s.valid_to_q:
        raise ValidityError(
            f"q-degree {m.e_q} is beyond the guaranteed region (valid to {s.valid_to_q})"
        )
    return s.terms.get(m, 0)


def compare_series(x: TruncatedSeries, y: TruncatedSeries):
    """Mismatch rows (monomial, x-coeff, y-coeff) on the joint validity region.

    Only monomials with e_q <= min(valid_to_q) are compared; rows come back
    in canonical monomial order.
    """
    if x.profile != y.profile:
        raise ProfileMismatchError(
            f"cannot compare series with profiles {x.profile.caps} vs {y.profile.caps}"
        )
    if x.terms == y.terms:
        return []  # equal maps leave no key to differ on, whatever the region
    v = min(x.valid_to_q, y.valid_to_q)
    keys = {m for m in x.terms if m[3] <= v} | {m for m in y.terms if m[3] <= v}
    rows = []
    for m in keys:
        cx = x.terms.get(m, 0)
        cy = y.terms.get(m, 0)
        if cx != cy:
            rows.append((Monomial(*m), cx, cy))
    rows.sort(key=lambda r: r[0].order_key())
    return rows
