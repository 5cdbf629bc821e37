"""Series engine: operation examples, error contracts, and ring properties."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsid import series
from qsid.series import (
    MONO_ONE,
    Monomial,
    NegativeExponentError,
    NonNilpotentError,
    ProfileMismatchError,
    SeriesError,
    TruncatedSeries,
    TruncationProfile,
    ValidityError,
    coefficient,
    compare_series,
    invert_one_minus,
    pochhammer_finite,
    pochhammer_infinite,
    shift_a_by_q,
    substitute_q_power,
    swap_b_t,
)

PROF = TruncationProfile(3, 3, 3, 8)


def test_module_doctests():
    import doctest

    import qsid.series

    result = doctest.testmod(qsid.series)
    assert result.failed == 0 and result.attempted > 0


def term(profile, coeff, a=0, b=0, t=0, q=0):
    return TruncatedSeries.term(profile, coeff, e_a=a, e_b=b, e_t=t, e_q=q)


# ----------------------------------------------------------- dense q-oracle


def dense_mul(xs, ys, cap):
    """Independent dense polynomial product in q alone (coefficient lists)."""
    out = [0] * (cap + 1)
    for i, x in enumerate(xs):
        if x == 0:
            continue
        for j, y in enumerate(ys):
            if i + j > cap:
                break
            out[i + j] += x * y
    return out


def ref_mul(x, y, caps):
    """Independent sparse convolution of two term maps, over-cap terms dropped."""
    out = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            m = tuple(e + f for e, f in zip(mx, my))
            if all(e <= cap for e, cap in zip(m, caps)):
                acc = out.get(m, 0) + cx * cy
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
    return out


def dense_from_series(s, cap):
    out = [0] * (cap + 1)
    for m, c in s.terms.items():
        assert m[:3] == (0, 0, 0)
        out[m[3]] += c
    return out


# ------------------------------------------------------------------ addition


def test_add_cancellation():
    one_plus_q = TruncatedSeries.one(PROF) + term(PROF, 1, q=1)
    one_minus_q = TruncatedSeries.one(PROF) - term(PROF, 1, q=1)
    assert one_plus_q + one_minus_q == term(PROF, 2)


def test_add_identity_element():
    s = term(PROF, 3, a=1, q=2) + term(PROF, Fraction(1, 2), b=1)
    assert s + TruncatedSeries.zero(PROF) == s


def test_add_like_term_merge():
    s = term(PROF, 1, a=1, b=1, q=2)
    assert s + s == term(PROF, 2, a=1, b=1, q=2)


def test_add_profile_mismatch():
    other = TruncatedSeries.one(TruncationProfile(1, 1, 1, 4))
    with pytest.raises(ProfileMismatchError):
        TruncatedSeries.one(PROF) + other


# ------------------------------------------------------------------- product


def test_mul_telescoping_within_cap():
    prof = TruncationProfile(0, 0, 0, 3)
    lhs = TruncatedSeries.one(prof) - term(prof, 1, q=1)
    rhs = sum(
        (term(prof, 1, q=k) for k in range(4)), start=TruncatedSeries.zero(prof)
    )
    assert lhs * rhs == TruncatedSeries.one(prof)


def test_mul_identity_element():
    s = TruncatedSeries.one(PROF) + term(PROF, 1, a=1, b=1, q=2)
    assert s * TruncatedSeries.one(PROF) == s


def test_mul_geometric_cancellation_in_b():
    geom = sum(
        (term(PROF, 1, b=k) for k in range(PROF.cap_b + 1)),
        start=TruncatedSeries.zero(PROF),
    )
    one_minus_b = TruncatedSeries.one(PROF) - term(PROF, 1, b=1)
    assert one_minus_b * geom == TruncatedSeries.one(PROF)


mul_coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    # products of these need wider slots than either factor
    st.sampled_from([2**40 + 1, -(2**45) - 7, Fraction(3**30, 7)]),
)


@st.composite
def mul_series(draw):
    """Series on KERNEL with small, Fraction or wide coefficients and any valid_to_q."""
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        m = Monomial(*(draw(st.integers(0, cap)) for cap in KERNEL.caps))
        terms[m] = draw(mul_coeffs)
    return TruncatedSeries(KERNEL, terms, draw(st.integers(0, KERNEL.cap_q)))


@given(mul_series(), mul_series())
@settings(max_examples=150, deadline=None)
def test_packed_product_matches_sparse_reference(x, y):
    got = x * y
    assert got.terms == ref_mul(x.terms, y.terms, KERNEL.caps)
    assert got.valid_to_q == min(x.valid_to_q, y.valid_to_q)
    assert all(got.rows.values())  # rows that cancel or lie past cap_q are dropped
    for key, row in got.rows.items():
        digits = series._unpack(row, got.width)
        assert sum(map(abs, digits)) <= got.bounds[key] < 2 ** (got.width - 2)


def test_product_widens_and_cuts_past_cap_q():
    x = term(KERNEL, 1) + term(KERNEL, 2**40, q=5)
    got = x * x  # 2^80 q^10 lies past cap_q = 9, and its bound needs 96-bit slots
    assert got.terms == {(0, 0, 0, 0): 1, (0, 0, 0, 5): 2**41}
    assert (x.width, got.width) == (64, 96)
    assert x * 0 == TruncatedSeries.zero(KERNEL) and 3 * x == x + x + x


def test_mul_valid_to_q_is_min():
    x = TruncatedSeries(PROF, {MONO_ONE: 1}, valid_to_q=5)
    y = TruncatedSeries(PROF, {MONO_ONE: 1}, valid_to_q=7)
    assert (x * y).valid_to_q == 5
    assert (x + y).valid_to_q == 5


# ----------------------------------------------------------------- inversion


def test_invert_geometric_q():
    prof = TruncationProfile(0, 0, 0, 3)
    inv = invert_one_minus(term(prof, 1, q=1))
    assert dense_from_series(inv, 3) == [1, 1, 1, 1]


def test_invert_geometric_b():
    prof = TruncationProfile(0, 2, 0, 4)
    inv = invert_one_minus(term(prof, 1, b=1))
    assert inv == term(prof, 1) + term(prof, 1, b=1) + term(prof, 1, b=2)


def test_invert_two_term_roundtrip():
    x = term(PROF, 1, b=1, q=1) + term(PROF, 1, q=2)
    inv = invert_one_minus(x)
    assert (TruncatedSeries.one(PROF) - x) * inv == TruncatedSeries.one(PROF)


def test_invert_rejects_constant_term():
    with pytest.raises(NonNilpotentError):
        invert_one_minus(TruncatedSeries.one(PROF))


# --------------------------------------------------------------- pochhammer


def test_pochhammer_finite_single_factor():
    got = pochhammer_finite(-1, Monomial(e_a=1, e_b=1), 2, 1, 1, PROF)
    assert got == TruncatedSeries.one(PROF) + term(PROF, 1, a=1, b=1, q=2)


def test_pochhammer_finite_empty_product():
    assert pochhammer_finite(-1, Monomial(e_a=1), 5, 1, 0, PROF) == TruncatedSeries.one(PROF)


def test_pochhammer_finite_two_factors():
    got = pochhammer_finite(1, Monomial(e_b=1), 1, 1, 2, PROF)
    want = (
        TruncatedSeries.one(PROF)
        - term(PROF, 1, b=1, q=1)
        - term(PROF, 1, b=1, q=2)
        + term(PROF, 1, b=2, q=3)
    )
    assert got == want


def test_pochhammer_finite_negative_exponent():
    with pytest.raises(NegativeExponentError):
        pochhammer_finite(1, MONO_ONE, -2, 1, 1, PROF)


def test_pochhammer_infinite_euler_product():
    prof = TruncationProfile(0, 0, 0, 5)
    got = pochhammer_infinite(1, MONO_ONE, 1, 1, prof)
    # oracle: multiply the factors densely, independent of the engine
    want = [1]
    for k in range(1, 6):
        factor = [0] * (k + 1)
        factor[0], factor[k] = 1, -1
        want = dense_mul(want, factor, 5)
    assert dense_from_series(got, 5) == want == [1, -1, -1, 0, 0, 1]


def test_pochhammer_infinite_cap_zero():
    prof = TruncationProfile(0, 0, 0, 0)
    assert pochhammer_infinite(1, MONO_ONE, 1, 1, prof) == TruncatedSeries.one(prof)


def test_pochhammer_infinite_linear_t_terms():
    prof = TruncationProfile(0, 0, 1, 3)
    got = pochhammer_infinite(1, Monomial(e_t=1), 1, 1, prof)
    want = (
        TruncatedSeries.one(prof)
        - term(prof, 1, t=1, q=1)
        - term(prof, 1, t=1, q=2)
        - term(prof, 1, t=1, q=3)
    )
    assert got == want


def test_pochhammer_infinite_rejects_stationary_formal_base():
    with pytest.raises(NonNilpotentError):
        pochhammer_infinite(1, Monomial(e_b=1), 0, 1, PROF)


def binomial_product(coeff, base, exponents, profile):
    """prod (1 - coeff * base * q^e) over the given exponents, by ``*`` alone."""
    out = TruncatedSeries.one(profile)
    for e in exponents:
        m = base._replace(e_q=e)
        out = out * (TruncatedSeries.one(profile) - term(profile, coeff, *m))
    return out


@pytest.mark.parametrize(
    "base, q_offset, q_step, factors",
    [
        (Monomial(e_b=1), 8, 1, [8]),  # start = cap_q: one factor
        (Monomial(e_b=1), 9, 1, []),  # start = cap_q + 1: the empty product
        (Monomial(e_a=1), 1, 3, [1, 4, 7]),  # q_step does not divide cap_q - start
        (Monomial(e_t=1, e_q=2), 1, 2, [3, 5, 7]),  # base carries its own q^2
        (Monomial(e_a=1, e_q=3), -2, 4, [1, 5]),  # ... which a negative offset lowers
        (MONO_ONE, 1, 8, [1]),
    ],
)
def test_pochhammer_infinite_is_the_finite_product_below_the_cap(base, q_offset, q_step, factors):
    got = pochhammer_infinite(-2, base, q_offset, q_step, PROF)
    assert got == binomial_product(-2, base, factors, PROF)
    assert got == pochhammer_finite(-2, base, q_offset, q_step, len(factors), PROF)
    if not factors:
        assert got == TruncatedSeries.one(PROF)


@pytest.mark.parametrize(
    "base, q_offset, error, message",
    [
        (Monomial(e_b=1), 0, NonNilpotentError,
         "infinite product needs q_offset >= 1 when the base carries a formal variable"),
        (Monomial(e_q=1), -2, NegativeExponentError, "leading factor would sit at q^-1"),
        (Monomial(e_b=-1), 1, NegativeExponentError,
         "base monomial Monomial(e_a=0, e_b=-1, e_t=0, e_q=0) has a negative exponent"),
    ],
)
def test_pochhammer_infinite_refuses_before_building_a_product(
    monkeypatch, base, q_offset, error, message
):
    def no_product(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(series, "pochhammer_finite", no_product)
    monkeypatch.setattr(TruncatedSeries, "times_binomial", no_product)
    with pytest.raises(error) as exc:
        pochhammer_infinite(1, base, q_offset, 1, PROF)
    assert str(exc.value) == message


def test_negative_exponent_messages_are_exact():
    one = TruncatedSeries.one(PROF)
    cases = [
        (lambda: one.times_binomial(1, (0, 1, 0, -1)), "binomial monomial", (0, 1, 0, -1)),
        (lambda: one.over_binomial(1, (0, 1, 0, -1)), "binomial monomial", (0, 1, 0, -1)),
        (lambda: one.times_monomial(1, (-1, 0, 0, 0)), "binomial monomial", (-1, 0, 0, 0)),
        (lambda: TruncatedSeries(PROF, {(0, 0, -1, 2): 1}), "monomial", (0, 0, -1, 2)),
        (lambda: TruncatedSeries.term(PROF, 1, e_q=-1), "monomial", (0, 0, 0, -1)),
        (lambda: coefficient(one, (-2, 0, 0, 0)), "monomial", (-2, 0, 0, 0)),
        (lambda: pochhammer_finite(1, (1, 0, -1, 0), 0, 1, 2, PROF),
         "base monomial", (1, 0, -1, 0)),
        (lambda: pochhammer_infinite(1, (0, -1, 0, 3), 0, 1, PROF),
         "base monomial", (0, -1, 0, 3)),
    ]
    for call, what, m in cases:
        with pytest.raises(NegativeExponentError) as exc:
            call()
        a, b, t, q = m
        assert str(exc.value) == (
            f"{what} Monomial(e_a={a}, e_b={b}, e_t={t}, e_q={q}) has a negative exponent"
        )


# ------------------------------------------------------------- substitutions


def test_substitute_square():
    s = TruncatedSeries.one(PROF) + term(PROF, 1, q=1)
    assert substitute_q_power(s, 2) == TruncatedSeries.one(PROF) + term(PROF, 1, q=2)


def test_substitute_drops_over_cap():
    prof = TruncationProfile(0, 0, 0, 5)
    assert substitute_q_power(term(prof, 1, q=3), 3).is_zero()


def test_substitute_validity_formula():
    s = TruncatedSeries(PROF, {MONO_ONE: 1}, valid_to_q=3)
    assert substitute_q_power(s, 2).valid_to_q == min(PROF.cap_q, 7)


def test_substitute_rejects_power_zero():
    with pytest.raises(SeriesError):
        substitute_q_power(TruncatedSeries.one(PROF), 0)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_substitution_keeps_every_row_below_the_cut_bit(k):
    # Each q-power's image is cut past cap_q: a slot at q^(cap_q + 1), as
    # q -> q^2 makes of q^5 here, must not stay in the row.
    prof = TruncationProfile(0, 1, 0, 9)
    s = TruncatedSeries.from_q_digits(prof, [1] * 10) + term(prof, -3, b=1, q=1)
    s = s + term(prof, 2, b=1, q=5) + term(prof, -1, b=1, q=9)
    got = substitute_q_power(s, k)
    assert got.terms == {(a, b, t, k * q): c for (a, b, t, q), c in s.terms.items() if k * q <= 9}
    assert all(row.bit_length() < got.width * (prof.cap_q + 1) for row in got.rows.values())


def test_shift_a_simple():
    assert shift_a_by_q(term(PROF, 1, a=1, b=1, q=2), -1) == term(PROF, 1, a=1, b=1, q=1)


def test_shift_a_negative_exponent_error():
    s = term(PROF, 1, a=2, q=1)
    with pytest.raises(NegativeExponentError):
        shift_a_by_q(s, -1)


def test_shift_a_validity_penalty():
    s = term(PROF, 1, a=1, q=4)
    assert shift_a_by_q(s, -1).valid_to_q == PROF.cap_q - PROF.cap_a
    assert shift_a_by_q(s, 1).valid_to_q == PROF.cap_q


def test_swap_examples():
    s = term(PROF, 1, b=1, t=2)
    assert swap_b_t(s) == term(PROF, 1, b=2, t=1)
    sym = term(PROF, 1, b=1, t=1) + TruncatedSeries.one(PROF)
    assert swap_b_t(sym) == sym


def test_swap_exchanges_unequal_caps():
    prof = TruncationProfile(1, 2, 3, 4)
    s = term(prof, 5, a=1, b=2, t=3, q=4)
    swapped = swap_b_t(s)
    assert swapped.profile == TruncationProfile(1, 3, 2, 4)
    assert swapped == term(swapped.profile, 5, a=1, b=3, t=2, q=4)
    assert swap_b_t(swapped) == s


# -------------------------------------------------------------- coefficients


def test_coefficient_reads_and_zero():
    s = term(PROF, Fraction(3, 2), a=1, q=2)
    assert coefficient(s, Monomial(1, 0, 0, 2)) == Fraction(3, 2)
    assert coefficient(TruncatedSeries.zero(PROF), Monomial(1, 1, 1, 1)) == 0


def test_constructor_validates_then_packs_over_one_denominator():
    with pytest.raises(NegativeExponentError):
        TruncatedSeries(PROF, {(0, 0, 0, -1): 1})
    with pytest.raises(SeriesError, match="exceeds the profile caps"):
        TruncatedSeries(PROF, {(0, 0, 0, PROF.cap_q + 1): 1})
    with pytest.raises(SeriesError, match="valid_to_q=9 exceeds cap_q=8"):
        TruncatedSeries(PROF, {}, valid_to_q=9)
    with pytest.raises(SeriesError, match="4 q-digits exceed"):
        TruncatedSeries.from_q_digits(TruncationProfile(0, 0, 0, 2), [1, 2, 3, 4])
    s = TruncatedSeries(PROF, {(1, 0, 0, 2): Fraction(1, 6), (1, 0, 0, 0): Fraction(-1, 4)})
    assert s.den == 12 and s.rows == {(1, 0, 0): -3 + (2 << 2 * s.width)}
    assert s.bounds == {(1, 0, 0): 5}


def test_coefficient_outside_caps():
    with pytest.raises(ValidityError):
        coefficient(TruncatedSeries.one(PROF), Monomial(0, 0, 0, PROF.cap_q + 1))


def test_coefficient_outside_validity():
    s = TruncatedSeries(PROF, {MONO_ONE: 1}, valid_to_q=2)
    with pytest.raises(ValidityError):
        coefficient(s, Monomial(0, 0, 0, 3))


def test_compare_series_reports_in_canonical_order():
    x = term(PROF, 1, q=1) + term(PROF, 1, a=1)
    y = term(PROF, 2, q=1) + term(PROF, 1, a=1) + term(PROF, 1, b=1)
    # rows (e_q, e_a, e_b, e_t, x, y): b before q
    assert compare_series(x, y) == ([(0, 0, 1, 0, 0, 1), (1, 0, 0, 0, 1, 2)], 1)


def test_coefficient_reads_one_row_without_the_term_view(monkeypatch):
    # Negative digits borrow from the slot above them: reading a slot alone
    # would be off by one, so the whole row is unpacked.
    s = (term(KERNEL, Fraction(1, 3)).over_binomial(-2, (0, 1, 0, 1))
         .times_binomial(5, (1, 0, 0, 2)).over_binomial(-1, (0, 0, 0, 1)))
    view = dict(s.terms)
    assert any(c < 0 for c in view.values()) and s.den > 1

    def unpacked(self):
        raise AssertionError("the term view was read")

    monkeypatch.setattr(TruncatedSeries, "terms", property(unpacked))
    caps = [range(cap + 1) for cap in KERNEL.caps]
    for m in itertools.product(*caps):
        assert coefficient(s, m) == view.get(m, 0)


def ref_compare(x, y):
    """The term-map comparison: each monomial of the joint region whose coefficients differ."""
    v = min(x.valid_to_q, y.valid_to_q)
    keys = {m for m in x.terms if m[3] <= v} | {m for m in y.terms if m[3] <= v}
    rows = [(Monomial(*m), x.terms.get(m, 0), y.terms.get(m, 0)) for m in keys]
    return sorted((r for r in rows if r[1] != r[2]), key=lambda r: r[0].order_key())


def as_terms(rows, den):
    """compare_series rows as ref_compare rows: (monomial, x-coeff, y-coeff)."""
    return [(Monomial(a, b, t, q), Fraction(cx, den), Fraction(cy, den))
            for q, a, b, t, cx, cy in rows]


def test_compare_and_eq_across_unequal_denominators():
    x = TruncatedSeries(PROF, {(0, 0, 0, 0): 1, (0, 1, 0, 2): -2, (1, 0, 0, 3): 5,
                               (0, 0, 2, 7): 4}, valid_to_q=6)
    y = TruncatedSeries(PROF, {(0, 0, 0, 0): 1, (0, 1, 0, 2): Fraction(1, 3), (1, 0, 0, 3): 5,
                               (2, 0, 0, 1): Fraction(-4, 3), (0, 0, 2, 7): 7})
    assert (x.den, y.den) == (1, 3)
    want = [(Monomial(2, 0, 0, 1), 0, Fraction(-4, 3)), (Monomial(0, 1, 0, 2), -2, Fraction(1, 3))]
    assert ref_compare(x, y) == want
    # x's numerators are scaled to y's denominator 3
    assert compare_series(x, y) == ([(1, 2, 0, 0, 0, -4), (2, 0, 1, 0, -6, 1)], 3)
    assert compare_series(y, x) == ([(1, 2, 0, 0, -4, 0), (2, 0, 1, 0, 1, -6)], 3)
    for got, ref in ((compare_series(x, y), want), (compare_series(y, x), ref_compare(y, x))):
        assert as_terms(*got) == ref
    assert x != y and y != x
    # the same values over den 6 equal y, row for row after alignment
    y6 = TruncatedSeries(PROF, {m: 2 * c for m, c in y.terms.items()}) * Fraction(1, 2)
    assert y6.den == 6 and y6 == y
    assert compare_series(y6, y) == ([], 6) and compare_series(y, y6) == ([], 6)
    assert y - y6 == TruncatedSeries.zero(PROF) and (y - x) + x == y


# ---------------------------------------------------------------- properties

SMALL = TruncationProfile(2, 2, 2, 4)


@st.composite
def small_series(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        m = Monomial(
            draw(st.integers(0, SMALL.cap_a)),
            draw(st.integers(0, SMALL.cap_b)),
            draw(st.integers(0, SMALL.cap_t)),
            draw(st.integers(0, SMALL.cap_q)),
        )
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        if c:
            terms[m] = c
    return TruncatedSeries(SMALL, terms)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(small_series())
@settings(max_examples=40, deadline=None)
def test_invert_roundtrip_property(x):
    x = x - term(SMALL, x.constant_term)
    inv = invert_one_minus(x)
    assert (TruncatedSeries.one(SMALL) - x) * inv == TruncatedSeries.one(SMALL)


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(1, 2),
)
@settings(max_examples=40, deadline=None)
def test_pochhammer_splice(n1, n2, offset, step):
    base = Monomial(e_b=1)
    whole = pochhammer_finite(1, base, offset, step, n1 + n2, SMALL)
    first = pochhammer_finite(1, base, offset, step, n1, SMALL)
    second = pochhammer_finite(1, base, offset + n1 * step, step, n2, SMALL)
    assert whole == first * second


@given(small_series(), small_series(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_substitute_is_multiplicative(x, y, k):
    lhs = substitute_q_power(x * y, k)
    rhs = substitute_q_power(x, k) * substitute_q_power(y, k)
    assert lhs == rhs
    assert lhs.valid_to_q == rhs.valid_to_q


@given(small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_swap_is_ring_homomorphism_and_involution(x, y):
    assert swap_b_t(x * y) == swap_b_t(x) * swap_b_t(y)
    assert swap_b_t(x + y) == swap_b_t(x) + swap_b_t(y)
    assert swap_b_t(swap_b_t(x)) == x


# ------------------------------------------------------ binomial passes

KERNEL = TruncationProfile(3, 3, 2, 9)


@st.composite
def sparse_series(draw):
    """Sparse series on KERNEL with int or Fraction coefficients and any valid_to_q."""
    fractions = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        m = Monomial(*(draw(st.integers(0, cap)) for cap in KERNEL.caps))
        c = draw(st.integers(-5, 5))
        if fractions:
            c = Fraction(c, draw(st.integers(1, 4)))
        terms[m] = c
    return TruncatedSeries(KERNEL, terms, draw(st.integers(0, KERNEL.cap_q)))


# Monomials raising one or several axes, with and without q; some over cap.
binomial_monomials = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.integers(0, 10)
).filter(any)
# A pass takes an int c; the series it runs on may have Fraction coefficients.
binomial_coeffs = st.integers(-3, 3).filter(bool)


@given(sparse_series(), binomial_coeffs, binomial_monomials)
@settings(max_examples=200, deadline=None)
def test_times_binomial_matches_product(s, c, m):
    got = s.times_binomial(c, m)
    factor = {MONO_ONE: 1, **({m: -c} if KERNEL.admits(m) else {})}
    assert got.terms == ref_mul(s.terms, factor, KERNEL.caps)
    assert got.valid_to_q == s.valid_to_q
    assert 0 not in got.terms.values()


@given(sparse_series(), binomial_coeffs, binomial_monomials)
@settings(max_examples=200, deadline=None)
def test_over_binomial_matches_inverse_product(s, c, m):
    got = s.over_binomial(c, m)
    # 1 / (1 - c*x^m) is the sum of the powers c^j x^(j*m) within the caps
    powers = ((j, tuple(j * e for e in m)) for j in range(sum(KERNEL.caps) + 1))
    inverse = {p: c**j for j, p in powers if KERNEL.admits(p)}
    assert got.terms == ref_mul(s.terms, inverse, KERNEL.caps)
    assert got.valid_to_q == s.valid_to_q
    assert 0 not in got.terms.values()
    assert got.times_binomial(c, m) == s
    # dividing a product back cancels whole chains of terms to exactly 0
    assert s.times_binomial(c, m).over_binomial(c, m) == s


@given(sparse_series(), binomial_coeffs)
@settings(max_examples=40, deadline=None)
def test_binomial_by_constant(s, c):
    assert s.times_binomial(c, MONO_ONE) == s * (1 - c)
    with pytest.raises(NonNilpotentError):
        s.over_binomial(c, MONO_ONE)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), True, False, 1.0])
def test_binomial_passes_refuse_a_non_int_coefficient(c, monkeypatch):
    # a scalar p/r still multiplies p into the rows and r into den ...
    half = term(KERNEL, 3, b=1) * Fraction(1, 2)
    assert half.den == 2 and half.terms == {(0, 1, 0, 0): Fraction(3, 2)}

    def no_work(*args):
        raise AssertionError("a pass ran")

    # ... but a binomial pass refuses any c that is not an int, before any work
    monkeypatch.setattr(TruncatedSeries, "_fit", no_work)
    one = TruncatedSeries.one(KERNEL)
    for run in (
        lambda: one.times_binomial(c, (0, 1, 0, 1)),
        lambda: one.over_binomial(c, (0, 1, 0, 1)),
        lambda: pochhammer_finite(c, Monomial(e_b=1), 1, 1, 2, KERNEL),
        lambda: pochhammer_infinite(c, Monomial(e_b=1), 1, 1, KERNEL),
        # no factor left: still refused
        lambda: pochhammer_finite(c, Monomial(e_b=1), 1, 1, 0, KERNEL),
        lambda: pochhammer_infinite(c, Monomial(e_b=1), KERNEL.cap_q + 1, 1, KERNEL),
    ):
        with pytest.raises(SeriesError) as refused:
            run()
        assert str(refused.value) == f"a binomial pass takes an int c, got {c!r}"


def test_binomial_rejects_negative_exponent():
    with pytest.raises(NegativeExponentError):
        TruncatedSeries.one(KERNEL).times_binomial(1, (0, 1, 0, -1))
    with pytest.raises(NegativeExponentError):
        TruncatedSeries.one(KERNEL).over_binomial(1, (0, 1, 0, -1))


def test_compare_fast_path_is_not_fooled_by_stored_zeros():
    x = term(PROF, 1, q=1) + term(PROF, 2, b=1)
    assert compare_series(x, TruncatedSeries(PROF, x.terms, valid_to_q=3)) == ([], 1)
    # An explicit zero coefficient, or two that cancel, leaves no row, so
    # the series stays equal to x row for row ...
    padded = TruncatedSeries(PROF, {**x.terms, Monomial(1, 0, 0, 0): 0, (0, 0, 1, 2): 0})
    cancelled = x + term(PROF, 5, t=1, q=2) - term(PROF, 5, t=1, q=2)
    for s in (padded, cancelled):
        assert s.rows == x.rows and s.bounds == x.bounds
        assert compare_series(s, x) == ([], 1) and s == x
    # ... and a real difference next to it is still reported.
    other = TruncatedSeries(PROF, {**x.terms, Monomial(1, 0, 0, 0): 0, Monomial(0, 0, 0, 1): 3})
    assert compare_series(other, x) == ([(1, 0, 0, 0, 3, 1)], 1)


def test_compare_reports_a_row_on_one_side_only_that_packs_to_plus_or_minus_one():
    # b alone packs its row (0, 1, 0) to the int 1, and -b to -1; the zero
    # series has no row there, so the missing row must read as 0
    prof = TruncationProfile(0, 1, 0, 2)
    zero = TruncatedSeries.zero(prof)
    for c in (1, -1):
        s = term(prof, c, b=1)
        assert s.rows == {(0, 1, 0): c}
        assert compare_series(s, zero) == ([(0, 0, 1, 0, c, 0)], 1)
        assert compare_series(zero, s) == ([(0, 0, 1, 0, 0, c)], 1)


# ------------------------------------------------------------- packed q-rows

# The dict-of-monomials passes the packed kernel replaced, kept here as the
# reference it must reproduce term for term.


def _moved(k, m, caps):
    n = tuple(x + y for x, y in zip(k, m))
    return n if all(x <= cap for x, cap in zip(n, caps)) else None


def dict_times_binomial(terms, caps, c, m):
    out = dict(terms)
    for k, v in terms.items():
        n = _moved(k, m, caps)
        if n is not None:
            acc = out.get(n, 0) - c * v
            if acc:
                out[n] = acc
            else:
                out.pop(n, None)
    return out


def dict_over_binomial(terms, caps, c, m):
    axis = 3 if m[3] else next(i for i in range(3) if m[i])
    buckets = {}
    for k, v in terms.items():
        buckets.setdefault(k[axis], {})[k] = v
    out = {}
    for e in range(min(buckets, default=caps[axis]), caps[axis] + 1):
        bucket = buckets.pop(e, None)
        if not bucket:
            continue
        nxt = buckets.setdefault(e + m[axis], {})
        for k, v in bucket.items():
            if v:
                out[k] = v
                n = _moved(k, m, caps)
                if n is not None:
                    nxt[n] = nxt.get(n, 0) + c * v
    return out


def dict_times_monomial(terms, caps, c, m):
    moved = ((_moved(k, m, caps), v) for k, v in terms.items())
    return {n: c * v for n, v in moved if n is not None}


def dict_add(x, y, sign):
    out = dict(x)
    for k, v in y.items():
        acc = out.get(k, 0) + sign * v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


def two_complement_bits(d):
    """Bits a balanced (signed) slot needs to hold d."""
    return (d if d >= 0 else ~d).bit_length() + 1


def balanced_digits(row, width, n):
    """The first n balanced base-2^width digits of row, by definition."""
    digits = []
    for _ in range(n):
        d = row & ((1 << width) - 1)
        if d >> (width - 1):
            d -= 1 << width
        digits.append(d)
        row = (row - d) >> width
    return digits


pass_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    # large enough to widen the slots, or (squared) to sit just under 2^32
    st.sampled_from([2**20 + 7, -(2**19) - 3, 46341, -46340]),
)
# a scalar p/r (a monomial's, or a summand's) multiplies p into the rows and r into den
scalar_coeffs = st.one_of(
    pass_coeffs, st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 3))
)
pass_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["times", "over", "over then times"]),
                  pass_coeffs, binomial_monomials),
        st.tuples(st.sampled_from(["monomial", "add", "sub"]), scalar_coeffs, binomial_monomials),
    ),
    min_size=1, max_size=6,
)


def run_passes(s, steps):
    """The packed series and the dict reference after the same pass sequence."""
    ref, caps = dict(s.terms), KERNEL.caps
    for op, c, m in steps:
        if op == "over" or op == "over then times":
            s, ref = s.over_binomial(c, m), dict_over_binomial(ref, caps, c, m)
        if op == "times" or op == "over then times":  # the latter cancels whole chains
            s, ref = s.times_binomial(c, m), dict_times_binomial(ref, caps, c, m)
        if op == "monomial":
            s, ref = s.times_monomial(c, m), dict_times_monomial(ref, caps, c, m)
        if op in ("add", "sub"):
            other = TruncatedSeries.term(KERNEL, c, *(min(e, cap) for e, cap in zip(m, caps)))
            other = other.over_binomial(1, (0, 1, 0, 1))
            sign = 1 if op == "add" else -1
            s = s + other if sign == 1 else s - other
            ref = dict_add(ref, other.terms, sign)
    return s, ref


@given(sparse_series(), pass_steps)
@settings(max_examples=100, deadline=None)
def test_packed_passes_match_dict_reference(s, steps):
    got, ref = run_passes(s, steps)
    assert got.terms == ref
    assert got.valid_to_q == s.valid_to_q
    assert all(got.rows.values())  # a row that cancels to zero is dropped


@given(sparse_series(), pass_steps)
@settings(max_examples=100, deadline=None)
def test_slot_width_guard_holds_every_digit(s, steps):
    got, ref = run_passes(s, steps)
    for key, row in got.rows.items():
        digits = series._unpack(row, got.width)
        assert digits == [ref.get((*key, q), 0) * got.den for q in range(len(digits))]
        assert got.bounds[key] >= sum(map(abs, digits))  # the majorant bounds the row
        # the guard never picks a W the digits need more bits than
        assert got.width >= max(map(two_complement_bits, digits)) + 1


@given(sparse_series(), pass_steps)
@settings(max_examples=100, deadline=None)
def test_slot_width_one_bit_short_unpacks_wrong(s, steps):
    got, _ = run_passes(s, steps)
    for row in got.rows.values():
        digits = series._unpack(row, got.width)
        short = max(map(two_complement_bits, digits)) - 1
        assert balanced_digits(row, got.width, len(digits)) == digits
        if short >= 1:
            repacked = sum(d << short * q for q, d in enumerate(digits))
            assert balanced_digits(repacked, short, len(digits)) != digits


def test_too_narrow_slot_width_is_caught(monkeypatch):
    # A guard without its two spare bits, rounded down to whole bytes: the
    # series it packs unpack wrong, and a pass refuses the width it offers.
    want = {(0, 0, 0, 1): 3**30, (0, 1, 0, 3): 3**30}
    assert term(KERNEL, 3**30, q=1).times_binomial(-1, (0, 1, 0, 2)).terms == want
    monkeypatch.setattr(series, "_slot_width", lambda bound: bound.bit_length() // 8 * 8)
    narrow = term(KERNEL, 3**30, q=1)
    assert narrow.width == 48 and narrow.terms != {(0, 0, 0, 1): 3**30}
    with pytest.raises(SeriesError, match="slot width 40 cannot hold a row bound of 42 bits"):
        term(KERNEL, 2**40, q=1).times_binomial(-3, (0, 1, 0, 2))


def test_guard_widens_before_a_digit_reaches_the_sign_bits():
    # 2^16 + 1 fits 32-bit slots; times (1 + 2^15 q) it makes a digit of
    # 2^31 + 2^15, which balanced 32-bit slots cannot hold.
    s = term(KERNEL, 2**16 + 1).times_binomial(-(2**15), (0, 0, 0, 1))
    assert term(KERNEL, 2**16 + 1).width == 32 and s.width == 64
    assert s.terms == {(0, 0, 0, 0): 2**16 + 1, (0, 0, 0, 1): 2**31 + 2**15}


def test_compounded_bound_is_reread_before_it_widens():
    # Six divisions by (1 - q) and six multiplications back give the row 1,
    # whose bound would compound to 42 bits (W = 64) if the passes did not
    # re-read it as its digit sum before widening.
    one = TruncatedSeries.one(TruncationProfile(0, 0, 0, 60))
    s = one
    for _ in range(6):
        s = s.over_binomial(1, (0, 0, 0, 1))
    for _ in range(6):
        s = s.times_binomial(1, (0, 0, 0, 1))
    assert s == one and s.width == 32 and s.rows == {(0, 0, 0): 1}


def test_a_pass_re_reads_each_input_once_before_it_widens(monkeypatch):
    exact, reads = TruncatedSeries._exact, []
    monkeypatch.setattr(TruncatedSeries, "_exact", lambda s: reads.append(s) or exact(s))
    # exact bounds that still do not fit: one re-read, then W = 64
    assert term(KERNEL, 2**16 + 1).times_binomial(-(2**15), (0, 0, 0, 1)).width == 64
    assert len(reads) == 1
    # c * (1 - q^5) * (1 + q^5) is c once q^10 is cut, but its bound is 4c
    c = 2**28 - 1
    y = term(KERNEL, c).times_binomial(1, (0, 0, 0, 5)).times_binomial(-1, (0, 0, 0, 5))
    assert y.rows == {(0, 0, 0): c} and y.bounds == {(0, 0, 0): 4 * c} and len(reads) == 1
    # a sum re-reads both operands: c + 4c would not fit W = 32 either
    reads.clear()
    total = y + y
    assert total.width == 32 and total.terms == {(0, 0, 0, 0): 2 * c} and len(reads) == 2


def test_rows_past_cap_are_cut_and_rows_wholly_past_drop_out():
    prof = TruncationProfile(0, 2, 0, 5)
    s = term(prof, 1, q=2) + term(prof, -1, q=5)
    got = s.times_binomial(1, (0, 1, 0, 2))  # -b*q^4 stays, b*q^7 is cut
    assert got.terms == {(0, 0, 0, 2): 1, (0, 0, 0, 5): -1, (0, 1, 0, 4): -1}
    assert s.times_monomial(1, (0, 1, 0, 3)).terms == {(0, 1, 0, 5): 1}
    assert s.times_monomial(1, (0, 0, 0, 4)).rows == {}


def test_shift_add_moves_cuts_merges_and_bounds_each_row():
    # One row pass serves sums, binomial products and monomial shifts: a
    # row moved past a cap drops out, rows landing on one key add with
    # their signs, and the merged row's bound is the sum of both bounds.
    prof = TruncationProfile(0, 2, 1, 4)
    one_plus_b = TruncatedSeries.one(prof) + term(prof, 1, b=1)
    got = one_plus_b.times_binomial(-1, (0, 1, 0, 1))  # (1 + b)(1 + b q)
    assert got.terms == {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 1, 0, 1): 1, (0, 2, 0, 1): 1}
    assert got.bounds == {(0, 0, 0): 1, (0, 1, 0): 2, (0, 2, 0): 1}
    t = term(prof, 1, t=1)
    assert t.times_binomial(1, (0, 0, 1, 0)).terms == {(0, 0, 1, 0): 1}  # t^2 is past cap_t
    assert t.times_monomial(1, (0, 0, 1, 0)).is_zero()
    diff = one_plus_b - one_plus_b
    assert diff.rows == diff.bounds == {}
    assert (one_plus_b - term(prof, 2, b=1)).terms == {(0, 0, 0, 0): 1, (0, 1, 0, 0): -1}


# ------------------------------------------------------------ graded sums


def same_rows(x, y):
    return (x.rows, x.bounds, x.width, x.den, x.valid_to_q, x.profile) == (
        y.rows, y.bounds, y.width, y.den, y.valid_to_q, y.profile)


def graded_sum(profile, axis, strata, sign=1):
    """The sum of sign * x_n * v^n by monomial shifts and adds, from zero."""
    total = TruncatedSeries.zero(profile)
    for n, x in strata:
        total = total + x.times_monomial(sign, Monomial(**{f"e_{'abt'[axis]}": n}))
    return total


def test_stacked_with_no_strata_is_the_zero_series():
    got = TruncatedSeries._stacked(PROF, 2, iter(()), -1)
    assert got.is_zero() and same_rows(got, -TruncatedSeries.zero(PROF))
    assert (got.width, got.den, got.valid_to_q) == (32, 1, PROF.cap_q)


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_stacked_writes_each_stratum_at_its_power(axis, sign):
    prof = TruncationProfile(2, 3, 3, 8)
    x0 = TruncatedSeries.one(prof).over_binomial(1, (1, 0, 0, 1))  # 1/(1 - a q)
    x2 = term(prof, 3, q=2) + term(prof, -1, a=2, q=5)
    strata = [(0, x0), (2, x2), (3, TruncatedSeries.zero(prof, 6))]
    got = TruncatedSeries._stacked(prof, axis, iter(strata), sign)
    assert same_rows(got, graded_sum(prof, axis, strata, sign))
    assert got.valid_to_q == 6


def test_stacked_respaces_the_rows_written_when_a_wider_stratum_arrives():
    prof = TruncationProfile(1, 0, 3, 6)
    narrow = term(prof, 1, q=3) + term(prof, -2, a=1, q=1)
    wide = term(prof, 2**40, q=2) + term(prof, 5, a=1)  # W = 64
    strata = [(0, narrow), (1, wide), (3, narrow)]  # the last one is widened
    assert (narrow.width, wide.width) == (32, 64)
    got = TruncatedSeries._stacked(prof, 2, iter(strata), -1)
    assert got.width == 64 and same_rows(got, graded_sum(prof, 2, strata, -1))
    assert got.terms[(1, 0, 3, 1)] == 2 and got.terms[(0, 0, 1, 2)] == -(2**40)


@pytest.mark.parametrize("bad, message", [
    ((1, term(PROF, 1, t=1)), "row off t\\^0"),  # a stratum carrying the stacked variable
    ((PROF.cap_t + 1, TruncatedSeries.one(PROF)), "outside 0..cap_t=3"),
    ((-1, TruncatedSeries.one(PROF)), "outside 0..cap_t=3"),
    ((1, term(PROF, Fraction(1, 2))), "over den 2, not 1"),
])
def test_stacked_refuses_a_stratum_before_writing_it(bad, message):
    pulled = []

    def strata():
        for pair in [(0, TruncatedSeries.one(PROF)), bad, (2, TruncatedSeries.one(PROF))]:
            pulled.append(pair[0])
            yield pair

    with pytest.raises(SeriesError, match=message):
        TruncatedSeries._stacked(PROF, 2, strata())
    assert pulled == [0, bad[0]]  # refused on arrival, nothing read after it


def test_stacked_refuses_a_stratum_on_another_profile():
    other = TruncatedSeries.one(TruncationProfile(3, 3, 3, 9))
    with pytest.raises(ProfileMismatchError):
        TruncatedSeries._stacked(PROF, 1, iter([(0, other)]))


def test_huge_q_cap_builds_rows_only_as_long_as_their_degree():
    prof = TruncationProfile(0, 3, 0, 10**9)
    s = TruncatedSeries.one(prof).over_binomial(1, (0, 1, 0, 1)).times_binomial(-1, (0, 1, 0, 7))
    assert max(row.bit_length() for row in s.rows.values()) <= s.width * 10
    assert s.terms[(0, 3, 0, 9)] == 1


def product_divide_q(s, c, e):
    """s / (1 - c q^e) as the kernel first built it: each row times its
    packed geometric sum over j <= J, one full product per row, then cut."""
    width, cq = s.width, s.profile.cap_q
    size, mag = width * (cq + 1), abs(c)
    out, ob = {}, {}
    for k, v in s.rows.items():
        g = total = 0
        for j in range((cq - series._low(v, width)) // e, -1, -1):
            g = (g << width * e) + c**j
            total += mag**j
        out[k], ob[k] = series._cut(v * g, size), s.bounds[k] * total
    return out, ob


LONG = TruncationProfile(0, 2, 0, 300)


@pytest.mark.parametrize("c, e", [
    *itertools.product((1, -1, 2, -3), (1, 2, 7, 150, 300)),
    # J <= 2 here, so the guard widens W without slots thousands of bits wide
    (2**20 + 7, 150), (2**20 + 7, 300),
])
def test_q_division_by_doubling_matches_the_product(c, e):
    # rows whose lowest degree is 0 (J = 300 // e), cap_q - e (J = 1) and
    # cap_q (J = 0), with mixed signs above it
    cq = LONG.cap_q
    s = TruncatedSeries(LONG, {
        (0, 0, 0, 0): 3, (0, 0, 0, 1): -1, (0, 0, 0, 5): 2, (0, 0, 0, cq): -7,
        (0, 1, 0, cq - e): -2, (0, 1, 0, cq - e + 1): 5,
        (0, 2, 0, cq): 4,
    })
    assert series._divide_q(s, c, e) == product_divide_q(s, c, e)
    got, want = s._fit(series._divide_q, c, e), s._fit(product_divide_q, c, e)
    assert (got.rows, got.bounds, got.width) == (want.rows, want.bounds, want.width)
    assert got.times_binomial(c, (0, 0, 0, e)) == s


@given(small_series(), st.integers(-1, 2))
@settings(max_examples=60, deadline=None)
def test_shift_a_moves_each_term(x, j):
    moved = {(a, b, t, q + j * a): c for (a, b, t, q), c in x.terms.items()}
    if any(m[3] < 0 for m in moved):
        with pytest.raises(NegativeExponentError):
            shift_a_by_q(x, j)
        return
    got = shift_a_by_q(x, j)
    assert got.terms == {m: c for m, c in moved.items() if m[3] <= SMALL.cap_q}
