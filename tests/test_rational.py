"""Rational-mode factor products, negative-exponent flips, geometric tails."""

from fractions import Fraction

import pytest

from qsid.rational import (
    DegenerateParameterError,
    Factor,
    RationalAssignment,
    cached_poch_series,
    pochhammer_factors,
    product_series,
    sum_with_geometric_tail,
)
from qsid.series import SeriesError, TruncatedSeries, q_only_profile


def q_coeffs(s, cap):
    out = [Fraction(0)] * (cap + 1)
    for m, c in s.terms.items():
        out[m[3]] += c
    return out


def test_plain_product_matches_hand_expansion():
    # (1 - 2q)(1 - q^2) = 1 - 2q - q^2 + 2q^3
    got = product_series([Factor(Fraction(2), 1), Factor(Fraction(1), 2)], 4)
    assert q_coeffs(got, 4) == [1, -2, -1, 2, 0]


def test_inverted_factor_is_geometric():
    got = product_series([Factor(Fraction(1, 2), 1, True)], 3)
    assert q_coeffs(got, 3) == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_constant_factor_folds_into_scalar():
    got = product_series([Factor(Fraction(1, 3), 0)], 2)
    assert q_coeffs(got, 2) == [Fraction(2, 3), 0, 0]
    got = product_series([Factor(Fraction(1, 3), 0, True)], 2)
    assert q_coeffs(got, 2) == [Fraction(3, 2), 0, 0]


def test_negative_exponent_flip_cancels():
    # (1 - q^-1) * q = q - 1: flip gives scalar -1, shift 0, factor (1 - q)
    got = product_series([Factor(Fraction(1), -1)], 4, q_shift=1)
    assert q_coeffs(got, 4) == [-1, 1, 0, 0, 0]


def test_negative_exponent_flip_in_denominator():
    # 1/(1 - 2q^-1) = (-1/2) q / (1 - q/2)
    got = product_series([Factor(Fraction(2), -1, True)], 3)
    assert q_coeffs(got, 3) == [0, Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 8)]


def test_zero_numerator_factor_annihilates():
    got = product_series([Factor(Fraction(1), 0), Factor(Fraction(1), 1, True)], 3)
    assert got.is_zero()


def test_unit_denominator_factor_raises():
    with pytest.raises(DegenerateParameterError):
        product_series([Factor(Fraction(1), 0, True)], 3)


def test_pole_at_origin_raises():
    with pytest.raises(DegenerateParameterError):
        product_series([Factor(Fraction(2), -1)], 3)


def test_pochhammer_factors_counts_and_infinite():
    fac = pochhammer_factors(Fraction(1, 2), 1, 1, 3)
    assert [(f.value, f.q_exp) for f in fac] == [
        (Fraction(1, 2), 1),
        (Fraction(1, 2), 2),
        (Fraction(1, 2), 3),
    ]
    inf = pochhammer_factors(Fraction(1, 2), 2, 3, None, cap_q=10)
    assert [f.q_exp for f in inf] == [2, 5, 8]
    assert pochhammer_factors(0, 1, 1, 5) == []


def test_pochhammer_factors_rejects_unbounded():
    with pytest.raises(SeriesError):
        pochhammer_factors(Fraction(1, 2), 1, 1, None)


def test_cached_poch_series_matches_direct():
    direct = product_series(pochhammer_factors(Fraction(1, 3), 1, 1, 4), 8)
    cached = cached_poch_series(Fraction(1, 3), 1, 1, 4, 8)
    assert cached == direct


def test_geometric_tail_constant_terms():
    prof = q_only_profile(4)

    def term(n):
        return TruncatedSeries.constant(prof, Fraction(1, 3) ** n)

    got = sum_with_geometric_tail(term, Fraction(1, 3), 0, 4)
    assert q_coeffs(got, 4)[0] == Fraction(3, 2)


def test_geometric_tail_with_moving_terms():
    # term(n) = (1/2)^n * q^min(n, 3): frozen from n = 3 on with ratio 1/2
    prof = q_only_profile(3)

    def term(n):
        return TruncatedSeries.term(prof, Fraction(1, 2) ** n, e_q=min(n, 3))

    got = sum_with_geometric_tail(term, Fraction(1, 2), 3, 3)
    # explicit: 1 + q/2 + q^2/4 + q^3 * (1/8) * (1/(1 - 1/2))
    assert q_coeffs(got, 3) == [1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]


def test_geometric_tail_freeze_insensitive():
    # the checkers close tails at the earliest structural freeze index;
    # closing later (after summing more terms explicitly) must be identical
    cap = 10
    alpha, beta = Fraction(1, 2), Fraction(1, 3)

    def term(n):
        fac = [Factor(alpha, (n - k) + 2 * k, True) for k in range(n + 1)]
        return product_series(fac, cap, scalar=beta**n)

    n0 = cap // 1 + 1
    early = sum_with_geometric_tail(term, beta, n0, cap)
    late = sum_with_geometric_tail(term, beta, n0 + 7, cap)
    assert early == late


def test_geometric_tail_freeze_insensitive_factorial_terms():
    cap = 8
    t = Fraction(2, 7)

    def term(n):
        # (t; q)_n style prefactors freeze once their factors leave the window
        return cached_poch_series(t, 0, 1, n, cap) * (Fraction(1, 4) ** n)

    early = sum_with_geometric_tail(term, Fraction(1, 4), cap + 1, cap)
    late = sum_with_geometric_tail(term, Fraction(1, 4), cap + 9, cap)
    assert early == late


def test_geometric_tail_ratio_one_raises():
    prof = q_only_profile(2)
    with pytest.raises(DegenerateParameterError):
        sum_with_geometric_tail(
            lambda n: TruncatedSeries.one(prof), Fraction(1), 0, 2
        )


def test_assignment_parsing_and_requirements():
    a = RationalAssignment.make(a="1/3", b=2, N="4")
    assert a.a == Fraction(1, 3) and a.b == Fraction(2) and a.N == 4
    assert a.as_strings() == {"a": "1/3", "b": "2", "N": "4"}
    with pytest.raises(SeriesError):
        a.require("a", "c")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"N": 2.7},  # used to truncate to 2
        {"x_exp": 1.9},  # used to truncate to 1
        {"a": 0.1},  # used to become 3602879701896397/36028797018963968
        {"N": "2.5"},  # used to raise a bare ValueError
        {"N": Fraction(5, 2)},
        {"b": True},
        {"y_exp": False},
        {"c": "one third"},
    ],
)
def test_assignment_rejects_inexact_values(kwargs):
    with pytest.raises(SeriesError):
        RationalAssignment.make(**kwargs)


def test_assignment_accepts_integral_values_for_exponents():
    a = RationalAssignment.make(N=Fraction(4, 2), x_exp="3", a=-2)
    assert (a.N, a.x_exp, a.a) == (2, 3, Fraction(-2))
    assert type(a.N) is int and type(a.x_exp) is int
