"""Rational-mode factor products, negative-exponent flips, geometric tails."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsid import identities, rational
from qsid.identities import _chain_double_shifted, _chain_double_unshifted
from qsid.rational import (
    DegenerateParameterError,
    Factor,
    RationalAssignment,
    pochhammer_factors,
    product_series,
    require_frozen,
    sum_with_geometric_tail,
)
from qsid.series import (
    MONO_ONE,
    SeriesError,
    TruncatedSeries,
    invert_one_minus,
    pochhammer_finite,
    q_only_profile,
)


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
    # the rational path keeps no memo any more; the dense product must
    # agree with the sparse formal kernel's q-shifted factorial
    direct = product_series(pochhammer_factors(Fraction(1, 3), 1, 1, 4), 8)
    cached = pochhammer_finite(Fraction(1, 3), MONO_ONE, 1, 1, 4, q_only_profile(8))
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
        return product_series(pochhammer_factors(t, 0, 1, n), cap) * (Fraction(1, 4) ** n)

    early = sum_with_geometric_tail(term, Fraction(1, 4), cap + 1, cap)
    late = sum_with_geometric_tail(term, Fraction(1, 4), cap + 9, cap)
    assert early == late


def test_geometric_tail_rejects_early_freeze():
    # term(n) = (1/2)^n * q^min(n, 3) only freezes at n = 3; closing the
    # tail at n = 2 would silently drop the q^3 correction
    prof = q_only_profile(3)

    def term(n):
        return TruncatedSeries.term(prof, Fraction(1, 2) ** n, e_q=min(n, 3))

    with pytest.raises(SeriesError, match="freeze index 2 too early"):
        sum_with_geometric_tail(term, Fraction(1, 2), 2, 3)


def test_require_frozen_rejects_step_factor_inside_window():
    require_frozen([9, 10, 12], 8, "a sum")
    with pytest.raises(SeriesError, match="q\\^8 is inside the window"):
        require_frozen([9, 8, 12], 8, "a sum")


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


# ------------------------------------------- dense kernel against sparse series


def sparse_product(factors, cap, scalar=1, q_shift=0):
    """scalar * q^q_shift * prod(factors) from the sparse series multiply.

    Follows the documented contract: a numerator (1 - q^0) makes the
    product zero, an inverted (1 - q^0) or a net negative q-power raises
    ``DegenerateParameterError``.
    """
    prof = q_only_profile(cap)
    if any(not f.inverted and f.q_exp == 0 and f.value == 1 for f in factors):
        return TruncatedSeries.zero(prof)
    if any(f.inverted and f.q_exp == 0 and f.value == 1 for f in factors):
        raise DegenerateParameterError("inverted (1 - q^0)")
    acc, scalar, shift = TruncatedSeries.one(prof), Fraction(scalar), q_shift
    for f in factors:
        v, m = f.value, f.q_exp
        if v == 0:
            continue
        if m < 0:  # 1 - v*q^m = (-v) * q^m * (1 - q^(-m)/v)
            scalar = scalar / -v if f.inverted else scalar * -v
            shift = shift - m if f.inverted else shift + m
            v, m = 1 / v, -m
        if m == 0:
            acc = acc * (1 / (1 - v) if f.inverted else 1 - v)
        elif f.inverted:
            acc = acc * invert_one_minus(TruncatedSeries.term(prof, v, e_q=m))
        else:
            acc = acc * (TruncatedSeries.one(prof) - TruncatedSeries.term(prof, v, e_q=m))
    if shift < 0:
        raise DegenerateParameterError("pole at q = 0")
    return acc * TruncatedSeries.term(prof, scalar, e_q=shift)


small_fractions = st.sampled_from(
    [Fraction(x) for x in ("0", "1", "-1", "2", "-3", "1/2", "-2/3", "5/4", "1/7")]
)
factors = st.builds(
    Factor,
    value=small_fractions,
    q_exp=st.integers(min_value=-3, max_value=10),
    inverted=st.booleans(),
)


@given(
    st.lists(factors, max_size=6),
    st.integers(min_value=0, max_value=8),
    small_fractions,
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=300, deadline=None)
def test_dense_product_matches_sparse_reference(fac, cap, scalar, q_shift):
    try:
        want = sparse_product(fac, cap, scalar, q_shift)
    except DegenerateParameterError:
        with pytest.raises(DegenerateParameterError):
            product_series(fac, cap, scalar=scalar, q_shift=q_shift)
        return
    got = product_series(fac, cap, scalar=scalar, q_shift=q_shift)
    assert got == want
    assert got.valid_to_q == cap


@pytest.mark.parametrize(
    "fac",
    [
        [Factor(Fraction(1), 0, True)],  # 1/(1 - 1)
        [Factor(Fraction(1, 2), 2), Factor(Fraction(1), 0, True)],
        [Factor(Fraction(2), -1)],  # (1 - 2/q): q^-1 survives
        [Factor(Fraction(3), -2), Factor(Fraction(1), 1, True)],
        [Factor(Fraction(1, 2), 1, True), Factor(Fraction(5), -3)],
    ],
)
def test_degenerate_products_raise_parameter_error(fac):
    with pytest.raises(DegenerateParameterError):
        product_series(fac, 4)


def double_sum_reference(assign, cap, shifted):
    """The chain double sums summand by summand, each from its factor list."""
    a, b, t = Fraction(assign.a), Fraction(assign.b), Fraction(assign.t)
    inv_a = 1 / a
    total = TruncatedSeries.zero(q_only_profile(cap))
    for n in range(cap + 1):
        for j in range(cap + 2):  # inner index past its first value
            N = j if shifted else n + j
            fac = pochhammer_factors(a, 0, 1, n)
            fac += pochhammer_factors(1, 1, 1, n, inverted=True)
            fac += pochhammer_factors(inv_a, 1, 1, j)
            fac += pochhammer_factors(1, 1, 1, j, inverted=True)
            fac += [Factor(b, N + 2 * n if shifted else N + n, True)]
            power = N + n if shifted else N
            smd = product_series(fac, cap, scalar=inv_a**n * t**power, q_shift=n)
            # from j = cap + 1 on, summands only gain factors of t
            total = total + (smd * (1 / (1 - t)) if j == cap + 1 else smd)
    return total


@pytest.mark.parametrize(
    "params, cap",
    [
        ({"a": "-3/2", "b": "1/4", "t": "2/7"}, 10),
        ({"a": "2", "b": "-1/3", "t": "1/5"}, 7),
        ({"a": "5/3", "b": "0", "t": "-4"}, 5),
    ],
)
def test_chain_double_sums_match_summand_reference(params, cap):
    assign = RationalAssignment.make(**params)
    assert _chain_double_unshifted(assign, cap) == double_sum_reference(assign, cap, False)
    assert _chain_double_shifted(assign, cap) == double_sum_reference(assign, cap, True)


def test_chain_double_sums_are_different_computations(monkeypatch):
    # chain_shift compares the two double sums; it can only catch a defect
    # if they do not run the same kernel passes in the same order.
    log = []
    for module in (identities, rational):
        for name in ("times_binomial", "over_binomial"):
            def logged(c, v, m, name=name, kernel=getattr(rational, name)):
                log.append((name, v, m))
                kernel(c, v, m)

            monkeypatch.setattr(module, name, logged)
    assign = RationalAssignment.make(a="-3/2", b="2/3", t="1/5")
    unshifted = _chain_double_unshifted(assign, 10)
    unshifted_log, log[:] = list(log), []
    shifted = _chain_double_shifted(assign, 10)
    assert unshifted == shifted
    assert unshifted_log != log
