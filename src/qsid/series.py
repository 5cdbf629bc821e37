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

Packed q-rows.  A series is stored as ``rows``, a map from the
(a, b, t) exponents to one Python int per row (Kronecker substitution).
The int holds the row's coefficients of q^0, q^1, ... as balanced (signed)
digits in W-bit slots: it is the row polynomial evaluated at q = 2^W.
Rational coefficients are integer rows over one common denominator
``den``, which only the series keeps.  A row int is only as long as its
highest nonzero q-degree, and only a row shifted past cap_q is cut back
to cap_q + 1 slots.

Every q-shifted factorial factor is a binomial (1 - c*x^m) in one
monomial x^m, with c = +-1 in the paper's identities, so
``times_binomial`` and ``over_binomial`` apply one such factor, or its
inverse, in a single pass over the rows; they build every side but two.
Their c is an int, and any other is refused (rational parameters belong
to rational mode); a rational scalar p/r (``times_monomial``, ``*``)
multiplies p into the rows and r into ``den``.  The paper's sums are
graded, summand n carrying b^n or t^n: each summand is built free of
that variable, and ``_stacked`` writes its rows at that power as it
comes, with no shift or add pass.  The Theorem 3.4/3.5 left sides have
rows in closed form, sums of shifted products of Gaussian binomials, and
read them from ``gaussian_binomials``, a packed table built by the
q-Pascal recurrence.
Multiplying, adding and shifting are one pass, s + c*x^m*y, adding
``c * (y[k] << W*e)`` into ``out[k+m]`` per row of y (m = (a, b, t) step,
e its q-exponent); dividing walks each chain up the step,
``out[k] = row[k] + c * (out[k-m] << W*e)``; a divisor in q alone applies
its truncated geometric series to each row by doubling.  Dividing is exact
because (1 - c*x^m) is a unit of the truncated ring whenever m is not
constant.

The slot width W comes from a proof.  Each row carries ``bounds[k]``, an
upper bound on the sum of the absolute values of its digits: the same
passes run at q = 1 with |c| in place of c, and a row that lies wholly
past cap_q drops out of them as it drops out of the packed build.  Every
digit, before and after a cut, is bounded by that sum, and a slot of W
bits holds it, with the sign correction of a cut, while the bound stays
below 2^(W-2).  A pass whose bounds would pass that limit first re-reads
its input rows' bounds as their exact digit sums, once, and runs again:
bounds compound loosely from pass to pass, and a row cut past cap_q keeps
the bound of its digits before the cut.  Only if they still do not fit
does it run again on rows repacked at a wider W.  ``terms`` is the
unpacked term map, built on first use; equal rows compare as equal ints,
without unpacking.

Every series lives on rows.  A term map given to the constructor
(``TruncatedSeries(profile, terms)``) is packed at once, over the lcm of
its coefficients' denominators, and ``from_q_digits`` packs a list of
q-numerators straight into one row.  ``+``, ``==`` and ``compare_series``
first bring two series over one denominator and to one W; ``*``
multiplies each pair of rows as two ints, a product row's bound being the
sum of the pairs' bound products.

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
    >>> s = TruncatedSeries.one(prof).over_binomial(2, Monomial(e_b=1, e_q=1))
    >>> print(s)
    1 + 2*b*q + 4*b^2*q^2
    >>> s.width, s.rows[(0, 2, 0)] == 4 << 2 * s.width, s.bounds[(0, 2, 0)]
    (32, True, 4)
    >>> print(s.times_monomial(-1, Monomial(e_b=1, e_q=2)))
    -b*q^2 - 2*b^2*q^3
    >>> print(substitute_q_power(TruncatedSeries.term(prof, 1, e_q=1), 2))
    q^2
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
import struct
from typing import NamedTuple, Optional, Tuple, Union

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
    "gaussian_binomials",
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


def _monomial(m, what: str = "monomial") -> Monomial:
    """m as a ``Monomial``; ``NegativeExponentError`` if an exponent is negative."""
    m = Monomial(*m)
    if min(m) < 0:
        raise NegativeExponentError(f"{what} {m!r} has a negative exponent")
    return m


def q_only_profile(cap_q: int) -> TruncationProfile:
    """Profile for series living in q alone (all parameters already numbers)."""
    return TruncationProfile(0, 0, 0, cap_q)


# ---------------------------------------------------------------- packed rows

# Slot widths are multiples of this, so series whose bounds are of similar
# size share W and compare row by row as ints.
_WIDTH_STEP = 32


def _slot_width(bound: int) -> int:
    """Slot width W for rows whose digit sums are at most ``bound``.

    W = bits + 2: a sign bit, and one more so that a cut (``_cut``) and
    the top-degree read (bit_length // W) stay exact.
    """
    return -(-(bound.bit_length() + 2) // _WIDTH_STEP) * _WIDTH_STEP


@lru_cache(maxsize=256)
def _offset(width: int, n: int, stride: int) -> int:
    """The digit 2^(W-1) in each of n slots ``stride`` bits apart."""
    slot = (1 << (width - 1)).to_bytes(stride // 8, "little")
    return int.from_bytes(slot * n, "little")


def _slots(row: int, width: int) -> bytes:
    """The row's slots as little-endian bytes, each holding digit + 2^(W-1) >= 0."""
    n = row.bit_length() // width + 1
    return (row + _offset(width, n, width)).to_bytes(width // 8 * n, "little")


def _unpack(row: int, width: int) -> list:
    """Balanced digits of a packed row, q^0 first, up to its highest nonzero slot."""
    n, size = row.bit_length() // width + 1, width // 8
    if size in (4, 8):
        # slots of d + 2^(W-1) with the top bit flipped hold d in two's complement
        offset = _offset(width, n, width)
        data = ((row + offset) ^ offset).to_bytes(size * n, "little")
        return list(struct.unpack(f"<{n}{'i' if size == 4 else 'q'}", data))
    data, half = _slots(row, width), 1 << (width - 1)
    return [int.from_bytes(data[i:i + size], "little") - half for i in range(0, len(data), size)]


def _respace(row: int, width: int, stride: int) -> int:
    """The row with digit j moved to bit stride*j (stride >= width): a
    repack at W = stride, or at stride = k*W the substitution q -> q^k."""
    data, size, step = _slots(row, width), width // 8, stride // 8
    n = len(data) // size
    spread = bytearray(step * n)
    for i in range(size):
        spread[i::step] = data[i::size]
    return int.from_bytes(spread, "little") - _offset(width, n, stride)


def _low(row: int, width: int) -> int:
    """Lowest nonzero q-degree of a nonzero packed row."""
    return ((row & -row).bit_length() - 1) // width


def _cut(x: int, size: int) -> int:
    """The packed row x without its slots from bit ``size`` on (0 if none stays).

    A row reaches bit ``size`` = W*(cap_q + 1) exactly when its top slot,
    bit_length // W, is past cap_q.  The kept digits sum below 2^(W-2), so
    the kept part is the one x - hi * 2^size within 2^(size-1) of zero:
    hi is x / 2^size rounded to nearest.
    """
    if x.bit_length() < size:
        return x
    return x - ((((x >> (size - 1)) + 1) >> 1) << size)


def _num_den(c: Coeff) -> Tuple[int, int]:
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    return c, 1


def _shift_add(s: "TruncatedSeries", c: int, m: Monomial, y=None):
    """Rows and bounds of s + c*x^m*y at s's width, y = s unless given
    (over s's den, no wider).  A sum has m = 1, a product by (1 - c*x^m)
    is s + (-c)*x^m*s, and a monomial shift starts from no rows."""
    ma, mb, mt, e = m
    ca, cb, ct, cq = s.profile.caps
    width = s.width
    y = s if y is None else y._widened(width)
    shift, size, yb = width * e, width * (cq + 1), y.bounds
    out, ob, mag = dict(s.rows), dict(s.bounds), abs(c)
    for k, v in y.rows.items():
        a, b, t = k[0] + ma, k[1] + mb, k[2] + mt
        if a > ca or b > cb or t > ct:
            continue
        v <<= shift
        if v.bit_length() >= size and not (v := _cut(v, size)):
            continue  # the whole row lands past cap_q
        nk = (a, b, t)
        prev = out.get(nk)
        if prev is None:
            out[nk], ob[nk] = c * v, mag * yb[k]
        elif v := prev + c * v:
            out[nk] = v
            ob[nk] += mag * yb[k]
        else:
            del out[nk], ob[nk]
    return out, ob


def _divide(s: "TruncatedSeries", c: int, m: Monomial):
    """Rows and bounds of s / (1 - c*x^m) at s's width.

    With an (a, b, t) step the quotient y = s + c*x^m*y is built up each
    chain k, k + m, k + 2m, ...: rows are visited by their exponent on
    one stepped axis, so out[k - m] is final before it is pushed on to k.
    """
    ma, mb, mt, e = m
    if not (ma or mb or mt):
        return _divide_q(s, c, e)
    ca, cb, ct, cq = s.profile.caps
    width, mag = s.width, abs(c)
    shift, size = width * e, width * (cq + 1)
    axis = 0 if ma else 1 if mb else 2
    work, wb = dict(s.rows), dict(s.bounds)
    buckets: dict = {}
    for k in work:
        buckets.setdefault(k[axis], []).append(k)
    out, ob = {}, {}
    level = min(buckets, default=0)
    while buckets:
        for k in buckets.pop(level, ()):
            v = work[k]
            if not v:
                continue  # cancelled: neither stored nor pushed
            out[k] = v
            bound = ob[k] = wb[k]
            a, b, t = k[0] + ma, k[1] + mb, k[2] + mt
            if a > ca or b > cb or t > ct:
                continue
            x = v << shift
            if x.bit_length() >= size and not (x := _cut(x, size)):
                continue
            nk = (a, b, t)
            prev = work.get(nk)
            if prev is None:
                buckets.setdefault(nk[axis], []).append(nk)
                work[nk], wb[nk] = c * x, mag * bound
            else:
                work[nk] = prev + (x if c == 1 else c * x)
                wb[nk] += mag * bound
        level += 1
    return out, ob


def _divide_q(s: "TruncatedSeries", c: int, e: int):
    """s / (1 - c q^e), e >= 1: each row v times sum_{j <= J} c^j q^(e*j),
    J = (cap_q - v's lowest degree) // e, by doubling, as 1/(1 - x) =
    (1 + x)(1 + x^2)(1 + x^4)...: while v holds the n <= J terms j < n,
    v + c^n q^(e*n) v holds 2n, cut past cap_q.  Each cut is exact: the
    kept digits are partial sums of the final ones, which the row's bound
    sum_{j <= J} |c|^j * bound covers, and terms j > J start past cap_q.
    """
    width, cq = s.width, s.profile.cap_q
    size, mag = width * (cq + 1), abs(c)
    out, ob = {}, {}
    for k, v in s.rows.items():
        J = (cq - _low(v, width)) // e
        p, n = c, 1
        while n <= J:
            x = v << width * e * n
            v = _cut(v + (x if p == 1 else p * x), size)
            p, n = p * p, 2 * n
        out[k] = v
        ob[k] = s.bounds[k] * (J + 1 if mag == 1 else (mag ** (J + 1) - 1) // (mag - 1))
    return out, ob


def _over_one_den(x: "TruncatedSeries", y: "TruncatedSeries"):
    """x and y over one denominator, values unchanged."""
    if x.den == y.den:
        return x, y
    d = lcm(x.den, y.den)
    return x._scaled(d // x.den), y._scaled(d // y.den)


def _aligned(x: "TruncatedSeries", y: "TruncatedSeries"):
    """x and y over one denominator and at one width, values unchanged."""
    x, y = _over_one_den(x, y)
    width = max(x.width, y.width)
    return x._widened(width), y._widened(width)


def _fits(bounds: dict, width: int) -> bool:
    return not max(bounds.values(), default=0) >> (width - 2)


def gaussian_binomials(width: int, cap_q: int, top: int):
    """The packed Gaussian binomials [n, k]_q, k = 0..top, one list per n = 0, 1, 2, ...

    An endless generator: a reader keeps the lists it still needs and lets
    the others go.  Entry [n, k] is built from the list before it by

        [n, k] = [n-1, k-1] + q^k [n-1, k]

    at slot width W: one shift, one add and, near cap_q, one mask.  It is
    kept only to its lowest cap_q + 1 - k(n-k+1) slots (0 where none stays,
    as for k > n), the slots that survive a shift by q^(k(n-k+1)) or more,
    and the recurrence reads no more of the list before: [n-1, k-1] keeps
    n - k + 1 more slots than [n, k], and [n-1, k], read after a shift by
    q^k, keeps k more.  Every digit is
    >= 0, so a plain mask cuts an entry, not ``_cut``.  A digit may also
    outgrow its slot and carry into the next one: an entry of s slots is
    always [n, k] at q = 2^W modulo 2^(W*s), and reduction modulo a power
    of two is a ring homomorphism, so sums and products of entries read to
    fewer slots stay exact in the same sense.

    At cap_q = 8, [4, 2] = 1 + q + 2q^2 + q^3 + q^4 keeps 9 - 2*3 slots:

    >>> q, rows = 1 << 32, gaussian_binomials(32, 8, 2)
    >>> [next(rows) for _ in range(5)][4] == [1, 1 + q + q**2 + q**3, 1 + q + 2 * q**2]
    True
    """
    row, n = [1] + [0] * top, 0
    while True:
        yield row
        n += 1
        prev, row = row, [1] + [0] * top
        for k in range(1, min(n, top) + 1):
            bits = width * (cap_q + 1 - k * (n - k + 1))
            if bits > 0:
                x = prev[k - 1] + (prev[k] << width * k)
                row[k] = x & ((1 << bits) - 1) if x.bit_length() > bits else x


class TruncatedSeries:
    """Exact truncated series on packed q-rows over one common denominator.

    Instances are immutable by convention: no method changes ``rows`` or
    ``terms`` after construction.
    """

    __slots__ = ("profile", "valid_to_q", "rows", "bounds", "width", "den", "_terms")

    def __init__(self, profile, terms=None, valid_to_q=None):
        """The series of a term map {monomial: coefficient}, packed at once."""
        v = profile.cap_q if valid_to_q is None else valid_to_q
        if v > profile.cap_q:
            raise SeriesError(f"valid_to_q={v} exceeds cap_q={profile.cap_q}")
        digits: dict = {}
        for m, c in (terms or {}).items():
            m = _monomial(m)
            if not profile.admits(m):
                raise SeriesError(f"monomial {m} exceeds the profile caps {profile.caps}")
            digits.setdefault(m[:3], {})[m[3]] = c
        den = lcm(*(_num_den(c)[1] for row in digits.values() for c in row.values()))
        digits = {k: {q: int(c * den) for q, c in row.items()} for k, row in digits.items()}
        bounds = {k: b for k, row in digits.items() if (b := sum(map(abs, row.values())))}
        width = _slot_width(max(bounds.values(), default=0))
        self.profile, self.valid_to_q, self._terms = profile, v, None
        self.rows = {k: sum(d << width * q for q, d in digits[k].items()) for k in bounds}
        self.bounds, self.width, self.den = bounds, width, den

    @classmethod
    def from_q_digits(cls, profile, nums, den=1):
        """The series sum_i nums[i]/den * q^i, nums packed straight into one row."""
        if len(nums) > profile.cap_q + 1:
            raise SeriesError(f"{len(nums)} q-digits exceed the profile cap_q={profile.cap_q}")
        bound = sum(map(abs, nums))
        if not bound:
            return cls.zero(profile)
        width = _slot_width(bound)
        size, half = width // 8, 1 << (width - 1)
        data = b"".join([(x + half).to_bytes(size, "little") for x in nums])
        row = int.from_bytes(data, "little") - _offset(width, len(nums), width)
        return cls._from_rows(
            profile, {(0, 0, 0): row}, {(0, 0, 0): bound}, width, den, profile.cap_q)

    @classmethod
    def _from_rows(cls, profile, rows, bounds, width, den, valid_to_q):
        """Internal constructor: rows nonzero, within caps, fitting W."""
        s = object.__new__(cls)
        s.profile, s.valid_to_q, s._terms = profile, valid_to_q, None
        s.rows, s.bounds, s.width, s.den = rows, bounds, width, den
        return s

    def _with_rows(self, rows, bounds, den=None, profile=None, valid_to_q=None):
        """New rows at this W, over this den, profile and validity unless given."""
        valid = self.valid_to_q if valid_to_q is None else valid_to_q
        return TruncatedSeries._from_rows(
            profile or self.profile, rows, bounds, self.width, den or self.den, valid)

    @classmethod
    def _stacked(cls, profile, axis, strata, sign=1):
        """sum_n sign * x_n * v^n, v = b (axis 1) or t (axis 2), written
        from the pairs (n, x_n) of ``strata`` as they arrive; sign is +-1.

        Each x_n is free of v, so its rows and bounds go to exponent n on
        that axis unchanged (negated for sign -1), and no two strata meet:
        there is no add pass.  The sum sits at the widest W so far: the
        rows already written are re-spaced once when a wider stratum
        arrives, and a narrower one is widened to it.  It is over the
        strata's one den and valid to their least valid_to_q; with no
        strata it is the zero series.  A stratum with a row off exponent 0
        on the axis, an n outside 0..v's cap, or another den or profile is
        refused (``SeriesError``) before any of its rows is written.
        """
        cap, name = profile.caps[axis], "abt"[axis]
        rows, bounds, width, den, valid = {}, {}, _slot_width(0), None, profile.cap_q
        for n, x in strata:
            if x.profile != profile:
                raise ProfileMismatchError(
                    f"stratum {n} has caps {x.profile.caps}, not {profile.caps}")
            if not 0 <= n <= cap:
                raise SeriesError(f"stratum index {n} is outside 0..cap_{name}={cap}")
            if den is None:
                den = x.den
            elif x.den != den:
                raise SeriesError(f"stratum {n} is over den {x.den}, not {den}")
            if axis == 1:
                keys = [(a, n, t) for a, b, t in x.rows if not b]
            else:
                keys = [(a, b, n) for a, b, t in x.rows if not t]
            if len(keys) < len(x.rows):
                raise SeriesError(f"stratum {n} has a row off {name}^0")
            if x.width > width:
                rows = {k: _respace(v, width, x.width) for k, v in rows.items()}
                width = x.width
            x = x._widened(width)
            rows.update(zip(keys, x.rows.values() if sign == 1 else [-v for v in x.rows.values()]))
            bounds.update(zip(keys, map(x.bounds.__getitem__, x.rows)))
            valid = min(valid, x.valid_to_q)
        return cls._from_rows(profile, rows, bounds, width, 1 if den is None else den, valid)

    # ---------------------------------------------------------------- basics

    @classmethod
    def zero(cls, profile, valid_to_q=None):
        v = profile.cap_q if valid_to_q is None else valid_to_q
        return cls._from_rows(profile, {}, {}, _slot_width(0), 1, v)

    @classmethod
    def one(cls, profile):
        return cls.term(profile, 1)

    @classmethod
    def term(cls, profile, coeff, e_a=0, e_b=0, e_t=0, e_q=0):
        """Single-term series coeff * a^e_a b^e_b t^e_t q^e_q (dropped if over cap)."""
        m = _monomial((e_a, e_b, e_t, e_q))
        if coeff == 0 or not profile.admits(m):
            return cls.zero(profile)
        num, den = _num_den(coeff)
        width = _slot_width(abs(num))
        return cls._from_rows(
            profile, {m[:3]: num << width * e_q}, {m[:3]: abs(num)}, width, den, profile.cap_q
        )

    @property
    def terms(self):
        """The term map {(e_a, e_b, e_t, e_q): coefficient}, unpacked on first use."""
        if self._terms is None:
            width, den, out = self.width, self.den, {}
            for (a, b, t), row in self.rows.items():
                for q, d in enumerate(_unpack(row, width)):
                    if d:
                        out[(a, b, t, q)] = d if den == 1 else Fraction(d, den)
            self._terms = out
        return self._terms

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def constant_term(self) -> Coeff:
        return self.terms.get(MONO_ONE, 0)

    # ----------------------------------------------------------- packed rows

    def _widened(self, width: int) -> "TruncatedSeries":
        """The same rows repacked in slots of ``width`` bits (itself at its own width)."""
        if width == self.width:
            return self
        rows = {k: _respace(v, self.width, width) for k, v in self.rows.items()}
        return TruncatedSeries._from_rows(
            self.profile, rows, self.bounds, width, self.den, self.valid_to_q
        )

    def _scaled(self, k: int) -> "TruncatedSeries":
        """The same value over a denominator k times larger."""
        if k == 1:
            return self
        bounds = {key: v * k for key, v in self.bounds.items()}
        s = self if _fits(bounds, self.width) else self._widened(
            _slot_width(max(bounds.values())))
        rows = {key: v * k for key, v in s.rows.items()}
        return s._with_rows(rows, bounds, s.den * k)

    def _exact(self) -> "TruncatedSeries":
        """The same rows, each bound re-read as the row's exact digit sum."""
        bounds = {k: sum(map(abs, _unpack(v, self.width))) for k, v in self.rows.items()}
        return self._with_rows(self.rows, bounds)

    def _fit(self, kernel, *args) -> "TruncatedSeries":
        """kernel(self, *args) -> (rows, bounds) as a series over self's den.

        While a bound does not fit this W the pass runs again: first, once,
        on the input series with their bounds re-read as exact digit sums
        (bounds compound loosely from pass to pass, and a cut row keeps its
        old one), then on rows widened to the guard's W.
        """
        s, exact = self, False
        while True:
            rows, bounds = kernel(s, *args)
            if _fits(bounds, s.width):
                return s._with_rows(rows, bounds)
            width = _slot_width(max(bounds.values()))
            if width <= s.width:
                raise SeriesError(f"slot width {width} cannot hold a row bound of "
                                  f"{max(bounds.values()).bit_length()} bits")
            if exact:
                s = s._widened(width)
            else:
                exact = True
                s = s._exact()
                args = [a._exact() if isinstance(a, TruncatedSeries) else a for a in args]

    # ------------------------------------------------------------ arithmetic

    def _check_profile(self, other: "TruncatedSeries") -> None:
        if self.profile != other.profile:
            raise ProfileMismatchError(
                f"mixed profiles: {self.profile.caps} vs {other.profile.caps}"
            )

    def _combine(self, other, sign: int):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.term(self.profile, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_profile(other)
        x, y = _aligned(self, other)
        total = x._fit(_shift_add, sign, MONO_ONE, y)
        valid = min(self.valid_to_q, other.valid_to_q)
        return total._with_rows(total.rows, total.bounds, valid_to_q=valid)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._with_rows({k: -v for k, v in self.rows.items()}, self.bounds)

    def __mul__(self, other):
        """Product: each pair of rows multiplies as two ints at a W that holds
        the product rows' bounds (sums of the pairs' bound products)."""
        if isinstance(other, (int, Fraction)):
            return self.times_monomial(other, MONO_ONE)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_profile(other)
        ca, cb, ct, cq = self.profile.caps
        pairs, bounds = [], {}
        for kx, bx in self.bounds.items():
            for ky, by in other.bounds.items():
                k = (kx[0] + ky[0], kx[1] + ky[1], kx[2] + ky[2])
                if k[0] <= ca and k[1] <= cb and k[2] <= ct:
                    pairs.append((k, kx, ky))
                    bounds[k] = bounds.get(k, 0) + bx * by
        width = max(self.width, other.width, _slot_width(max(bounds.values(), default=0)))
        x, y, size = self._widened(width).rows, other._widened(width).rows, width * (cq + 1)
        rows: dict = {}
        for k, kx, ky in pairs:
            rows[k] = rows.get(k, 0) + x[kx] * y[ky]
        rows = {k: row for k, v in rows.items() if (row := _cut(v, size))}
        return TruncatedSeries._from_rows(
            self.profile, rows, {k: bounds[k] for k in rows}, width, self.den * other.den,
            min(self.valid_to_q, other.valid_to_q),
        )

    __rmul__ = __mul__

    def times_binomial(self, c: int, m) -> "TruncatedSeries":
        """self * (1 - c * x^m), c an int, in one pass over the rows."""
        if type(c) is not int:
            raise SeriesError(f"a binomial pass takes an int c, got {c!r}")
        m = _monomial(m, "binomial monomial")
        if c == 0 or not self.profile.admits(m):
            return self
        return self._fit(_shift_add, -c, m)

    def over_binomial(self, c: int, m) -> "TruncatedSeries":
        """self / (1 - c * x^m), exact in the truncated ring, in one ascending pass.

        The quotient y satisfies y = self + c * x^m * y.  A c that is not an
        int is refused (``SeriesError``) before any work, and a constant m
        as ``invert_one_minus`` refuses a constant term.
        """
        if type(c) is not int:
            raise SeriesError(f"a binomial pass takes an int c, got {c!r}")
        m = _monomial(m, "binomial monomial")
        if not any(m):
            raise NonNilpotentError(
                "over_binomial needs a monomial carrying a capped variable"
            )
        if c == 0 or not self.profile.admits(m):
            return self
        return self._fit(_divide, c, m)

    def times_monomial(self, c: Coeff, m) -> "TruncatedSeries":
        """self * c * x^m: each row moves by m's (a, b, t) exponents and shifts
        by its q one; a Fraction c = p/r multiplies by p over den * r."""
        m = _monomial(m, "binomial monomial")
        if c == 0 or not self.profile.admits(m):
            return TruncatedSeries.zero(self.profile, self.valid_to_q)
        num, r = _num_den(c)
        s = self._with_rows({}, {})._fit(_shift_add, num, m, self)
        return s if r == 1 else s._with_rows(s.rows, s.bounds, s.den * r)

    def __eq__(self, other):
        """Mathematical equality in the quotient ring (coefficients agree)."""
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.term(self.profile, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.profile != other.profile:
            return False
        x, y = _aligned(self, other)
        return x.rows == y.rows

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(map(Monomial._make, self.terms), key=Monomial.order_key):
            cs = str(Fraction(self.terms[m]))
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
    # a product of more than sum(caps) constant-free factors is zero
    for _ in range(sum(x.profile.caps) + 2):
        p = p * x
        if p.is_zero():
            return acc
        acc = acc + p
    raise NonNilpotentError("power iteration failed to terminate")  # unreachable


def pochhammer_finite(
    coeff: int,
    base: Monomial,
    q_offset: int,
    q_step: int,
    n: int,
    profile: TruncationProfile,
) -> TruncatedSeries:
    """Product of n factors (1 - coeff * base * q^(q_offset + k*q_step)), k = 0..n-1.

    The empty product (n = 0) is 1.  The q-exponent of ``base`` adds to the
    offset; every effective exponent must be nonnegative, and ``coeff`` an int.
    """
    if type(coeff) is not int:
        raise SeriesError(f"a binomial pass takes an int c, got {coeff!r}")
    if not isinstance(n, int) or n < 0:
        raise SeriesError(f"factor count must be a nonnegative integer, got {n!r}")
    if q_step < 1:
        raise SeriesError(f"q_step must be >= 1, got {q_step}")
    base = _monomial(base, "base monomial")
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
    coeff: int,
    base: Monomial,
    q_offset: int,
    q_step: int,
    profile: TruncationProfile,
) -> TruncatedSeries:
    """Infinite product of factors (1 - coeff * base * q^(q_offset + k*q_step)).

    Exact within the profile: factors whose q-exponent exceeds cap_q are
    identically 1 there, so it is the finite product of those below
    q^(cap_q + 1).  When the
    base involves a formal variable the leading factor must already move
    in q (effective offset >= 1), otherwise the product does not truncate
    factor by factor.
    """
    if q_step < 1:
        raise SeriesError(f"q_step must be >= 1, got {q_step}")
    base = _monomial(base, "base monomial")
    start = base.e_q + q_offset
    if start < 0:
        raise NegativeExponentError(f"leading factor would sit at q^{start}")
    if start == 0 and (base.e_a or base.e_b or base.e_t):
        raise NonNilpotentError(
            "infinite product needs q_offset >= 1 when the base carries a formal variable"
        )
    n = max(0, (profile.cap_q - start) // q_step + 1)
    return pochhammer_finite(coeff, base, q_offset, q_step, n, profile)


def substitute_q_power(s: TruncatedSeries, k: int,
                       profile: Optional[TruncationProfile] = None) -> TruncatedSeries:
    """Replace q by q^k: every e_q is multiplied by k, over-cap monomials dropped.

    The result lives on ``profile`` (default: the input's own), which may
    differ from the input's in cap_q alone: an input built to cap_q // k
    holds every digit that lands at or below the result's cap_q.  The
    result is guaranteed exact to q-degree k*valid + (k-1): the first
    unknown input coefficient (degree valid+1) lands at k*(valid+1).
    """
    if not isinstance(k, int) or k < 1:
        raise SeriesError(f"substitution power must be an integer >= 1, got {k!r}")
    profile = profile or s.profile
    cap_q = profile.cap_q
    valid = min(cap_q, k * s.valid_to_q + (k - 1))
    width, rows, bounds = s.width, {}, {}
    for key, v in s.rows.items():
        x = _cut(_respace(v, width, k * width), width * (cap_q + 1))
        if x:
            rows[key], bounds[key] = x, s.bounds[key]
    return s._with_rows(rows, bounds, profile=profile, valid_to_q=valid)


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
    penalty = (-j) * s.profile.cap_a if j < 0 else 0
    valid = max(-1, s.valid_to_q - penalty)
    width, rows, bounds = s.width, {}, {}
    for key, v in s.rows.items():
        e = j * key[0]
        if e < 0:
            low = _low(v, width)
            if low + e < 0:
                raise NegativeExponentError(
                    f"monomial {Monomial(*key, low)} would land at q^{low + e} under a -> a*q^{j}"
                )
            rows[key], bounds[key] = v >> width * -e, s.bounds[key]
        else:
            x = _cut(v << width * e, width * (cap_q + 1))
            if x:
                rows[key], bounds[key] = x, s.bounds[key]
    return s._with_rows(rows, bounds, valid_to_q=valid)


def swap_b_t(s: TruncatedSeries) -> TruncatedSeries:
    """Exchange the exponents of b and t in every monomial, and cap_b with cap_t."""
    a, b, t, q = s.profile.caps
    profile = TruncationProfile(a, t, b, q)
    rows = {(k[0], k[2], k[1]): v for k, v in s.rows.items()}
    bounds = {(k[0], k[2], k[1]): v for k, v in s.bounds.items()}
    return s._with_rows(rows, bounds, profile=profile)


def coefficient(s: TruncatedSeries, m) -> Coeff:
    """Stored coefficient of a monomial, or 0; the query must be answerable.

    Raises ``ValidityError`` when the monomial exceeds the caps or its
    q-degree lies beyond the guaranteed-exact region.
    """
    m = _monomial(m)
    if not s.profile.admits(m):
        raise ValidityError(f"monomial {m} is outside the profile caps {s.profile.caps}")
    if m.e_q > s.valid_to_q:
        raise ValidityError(
            f"q-degree {m.e_q} is beyond the guaranteed region (valid to {s.valid_to_q})"
        )
    # the whole row: a slot read alone would miss the borrows from the slots below it
    digits = _unpack(s.rows.get(m[:3], 0), s.width)
    d = digits[m.e_q] if m.e_q < len(digits) else 0
    return d if s.den == 1 or not d else Fraction(d, s.den)


def compare_series(x: TruncatedSeries, y: TruncatedSeries):
    """Mismatch rows on the joint validity region, as ``(rows, den)``.

    A row is the int tuple (e_q, e_a, e_b, e_t, x_num, y_num) of a
    monomial whose coefficients differ, those being x_num/den and
    y_num/den; sorted rows are in canonical monomial order.  Only monomials
    with e_q <= min(valid_to_q) are compared.  The series are brought to
    one denominator and the narrower one is widened to the other's slot
    width, once; equal row ints are then skipped, and only unequal rows are
    unpacked, each side at its own width.

    >>> prof = TruncationProfile(1, 1, 0, 3)
    >>> x = TruncatedSeries.term(prof, 1, e_b=1) + TruncatedSeries.term(prof, 2, e_q=3)
    >>> compare_series(x, TruncatedSeries.term(prof, Fraction(1, 2), e_b=1))
    ([(0, 0, 1, 0, 2, 1), (3, 0, 0, 0, 4, 0)], 2)
    """
    if x.profile != y.profile:
        raise ProfileMismatchError(
            f"cannot compare series with profiles {x.profile.caps} vs {y.profile.caps}"
        )
    v = min(x.valid_to_q, y.valid_to_q)
    x, y = _over_one_den(x, y)
    wide_x, wide_y = _aligned(x, y)
    rows = []
    for k in wide_x.rows.keys() | wide_y.rows.keys():
        if wide_x.rows.get(k, 0) == wide_y.rows.get(k, 0):
            continue
        # each side unpacked at its own width: a narrow one takes the fast path
        dx, dy = _unpack(x.rows.get(k, 0), x.width), _unpack(y.rows.get(k, 0), y.width)
        n = min(max(len(dx), len(dy)), v + 1)
        dx += [0] * (n - len(dx))
        dy += [0] * (n - len(dy))
        a, b, t = k
        rows += [(q, a, b, t, cx, cy) for q, cx, cy in zip(range(n), dx, dy) if cx != cy]
    rows.sort()
    return rows, x.den
