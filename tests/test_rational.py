"""Rational-mode factor products, negative-exponent flips, geometric tails.

The integer kernel (``Dense`` numerators over one denominator) is checked
against a private copy of the ``Fraction`` list kernel it replaced."""

from fractions import Fraction
from itertools import count
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsid import identities, rational
from qsid.identities import (
    _chain_double_shifted,
    _chain_double_unshifted,
    _chain_product_form,
    _chain_single_sum,
)
from qsid.rational import (
    DegenerateParameterError,
    Dense,
    Factor,
    RationalAssignment,
    accumulate,
    dense_series,
    over_binomial,
    pochhammer_factors,
    product_series,
    reduce_dense,
    require_frozen,
    scale,
    shift_window,
    sum_with_geometric_tail,
    times_binomial,
)
from qsid.series import (
    SeriesError,
    TruncatedSeries,
    invert_one_minus,
    q_only_profile,
)


def q_coeffs(c, cap):
    """The coefficient values of a ``Dense``, read through its q-only series."""
    out = [Fraction(0)] * (cap + 1)
    for m, x in dense_series(c, cap).terms.items():
        out[m[3]] += x
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
    assert dense_series(got, 3).is_zero()


def test_unit_denominator_factor_raises():
    with pytest.raises(DegenerateParameterError):
        product_series([Factor(Fraction(1), 0, True)], 3)


@pytest.mark.parametrize("inverted_first", [False, True])
def test_zero_over_zero_raises(inverted_first):
    # (1 - q^0) / (1 - q^0) is 0/0, not zero, whichever factor comes first
    fac = [Factor(Fraction(1), 0), Factor(Fraction(1, 2), 1), Factor(Fraction(1), 0, True)]
    with pytest.raises(DegenerateParameterError, match="0/0"):
        product_series(fac[::-1] if inverted_first else fac, 3)


def test_pole_at_origin_raises():
    with pytest.raises(DegenerateParameterError):
        product_series([Factor(Fraction(2), -1)], 3)


def test_pochhammer_factors_counts_and_infinite():
    fac = pochhammer_factors(Fraction(1, 2), 1, 3)
    assert [(f.value, f.q_exp) for f in fac] == [
        (Fraction(1, 2), 1),
        (Fraction(1, 2), 2),
        (Fraction(1, 2), 3),
    ]
    inf = pochhammer_factors(Fraction(1, 2), 2, None, cap_q=10)
    assert [f.q_exp for f in inf] == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert pochhammer_factors(0, 1, 5) == []


def test_pochhammer_factors_rejects_unbounded():
    with pytest.raises(SeriesError):
        pochhammer_factors(Fraction(1, 2), 1, None)


def test_cached_poch_series_matches_direct():
    # the rational path keeps no memo any more; the dense product must
    # agree with the q-shifted factorial the sparse series multiply builds
    factors = pochhammer_factors(Fraction(1, 3), 1, 4)
    assert sparse_product(factors, 8) == dense_series(product_series(factors, 8), 8)


def test_geometric_tail_constant_terms():
    def term(n):
        return product_series([], 4, scalar=Fraction(1, 3) ** n)

    got = sum_with_geometric_tail(map(term, count()), Fraction(1, 3), 0, 4)
    assert q_coeffs(got, 4)[0] == Fraction(3, 2)


def test_geometric_tail_with_moving_terms():
    # term(n) = (1/2)^n * q^min(n, 3): frozen from n = 3 on with ratio 1/2
    def term(n):
        return product_series([], 3, scalar=Fraction(1, 2) ** n, q_shift=min(n, 3))

    got = sum_with_geometric_tail(map(term, count()), Fraction(1, 2), 3, 3)
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
    early = sum_with_geometric_tail(map(term, count()), beta, n0, cap)
    late = sum_with_geometric_tail(map(term, count()), beta, n0 + 7, cap)
    assert early == late


def test_geometric_tail_freeze_insensitive_factorial_terms():
    cap = 8
    t = Fraction(2, 7)

    def terms():
        # (t; q)_n style prefactors freeze once their factors leave the window;
        # one Dense stepped in place, as the identities' sums step theirs
        c = Dense.zero(cap)
        c[0] = 1
        for n in count():
            yield c
            times_binomial(c, t, n)
            scale(c, Fraction(1, 4))

    early = sum_with_geometric_tail(terms(), Fraction(1, 4), cap + 1, cap)
    late = sum_with_geometric_tail(terms(), Fraction(1, 4), cap + 9, cap)
    reference = sum_with_geometric_tail(
        (product_series(pochhammer_factors(t, 0, n), cap, scalar=Fraction(1, 4) ** n)
         for n in count()),
        Fraction(1, 4), cap + 1, cap,
    )
    assert early == reference
    assert early == late


def test_geometric_tail_rejects_early_freeze():
    # term(n) = (1/2)^n * q^min(n, 3) only freezes at n = 3; closing the
    # tail at n = 2 would silently drop the q^3 correction
    def term(n):
        return product_series([], 3, scalar=Fraction(1, 2) ** n, q_shift=min(n, 3))

    with pytest.raises(SeriesError, match="freeze index 2 too early"):
        sum_with_geometric_tail(map(term, count()), Fraction(1, 2), 2, 3)


def test_require_frozen_rejects_step_factor_inside_window():
    require_frozen([9, 10, 12], 8, "a sum")
    with pytest.raises(SeriesError, match="q\\^8 is inside the window"):
        require_frozen([9, 8, 12], 8, "a sum")


def test_geometric_tail_ratio_one_raises():
    with pytest.raises(DegenerateParameterError):
        sum_with_geometric_tail(iter([product_series([], 2)] * 2), Fraction(1), 0, 2)


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

    Follows the documented contract: an inverted (1 - q^0), also over a
    numerator (1 - q^0), or a net negative q-power raises
    ``DegenerateParameterError``, and a numerator (1 - q^0) makes the
    product zero otherwise.
    """
    prof = q_only_profile(cap)
    if any(f.inverted and f.q_exp == 0 and f.value == 1 for f in factors):
        raise DegenerateParameterError("inverted (1 - q^0)")
    if any(not f.inverted and f.q_exp == 0 and f.value == 1 for f in factors):
        return TruncatedSeries.zero(prof)
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
    assert len(got) == cap + 1
    got = dense_series(got, cap)
    assert got == want
    assert got.valid_to_q == cap


@pytest.mark.parametrize("cap", [12, 20])
@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_division_pass_matches_sparse_reference(d, m, cap):
    # A division by (1 - (p/d) q^m) scales its window once by d^J, J = cap//m,
    # and divides each carried term by d exactly.  Fixed factor lists at the
    # caps the rational bench draws (12 to 20), where the top step's carried
    # term holds exactly one factor d to spare; the hypothesis test stops at 8.
    lists = [
        [Factor(Fraction(1, d), m, True)],
        [Factor(Fraction(-5, d), m), Factor(Fraction(11, d), m, True)],
        [Factor(Fraction(-5, d), 1), Factor(Fraction(1, d), m, True),
         Factor(Fraction(11, d), m), Factor(Fraction(-5, d), m, True)],
        [Factor(Fraction(11, d), m, True), Factor(Fraction(1, d), m + 1, True),
         Factor(Fraction(3, 1), m, True)],
    ]
    for fac in lists:
        assert dense_series(product_series(fac, cap), cap) == sparse_product(fac, cap)


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
            fac = pochhammer_factors(a, 0, n)
            fac += pochhammer_factors(1, 1, n, inverted=True)
            fac += pochhammer_factors(inv_a, 1, j)
            fac += pochhammer_factors(1, 1, j, inverted=True)
            fac += [Factor(b, N + 2 * n if shifted else N + n, True)]
            power = N + n if shifted else N
            smd = dense_series(
                product_series(fac, cap, scalar=inv_a**n * t**power, q_shift=n), cap
            )
            # from j = cap + 1 on, summands only gain factors of t
            total = total + (smd * (1 / (1 - t)) if j == cap + 1 else smd)
    return total


@pytest.mark.parametrize(
    "params, cap",
    [
        ({"a": "-3/2", "b": "1/4", "t": "2/7"}, 10),
        ({"a": "2", "b": "-1/3", "t": "1/5"}, 7),
        ({"a": "5/3", "b": "0", "t": "-4"}, 5),
        ({"a": "-2/3", "b": "3/4", "t": "5/2"}, 0),
        ({"a": "7/11", "b": "-13/6", "t": "1/3"}, 1),
    ],
)
def test_chain_double_sums_match_summand_reference(params, cap):
    assign = RationalAssignment.make(**params)
    unshifted = dense_series(_chain_double_unshifted(assign, cap), cap)
    shifted = dense_series(_chain_double_shifted(assign, cap), cap)
    assert unshifted == double_sum_reference(assign, cap, False)
    assert shifted == double_sum_reference(assign, cap, True)


def test_chain_double_sums_are_different_computations(monkeypatch):
    # chain_shift, chain_fine and chain_final each compare two sides; a check
    # can only catch a defect, a wrong step ratio among them, if its sides
    # do not run the same kernel passes in the same order.
    log = []
    for module in (identities, rational):
        for name in ("times_ints", "over_ints"):
            def logged(c, p, d, m, name=name, kernel=getattr(rational, name)):
                log.append((name, p, d, m, len(c)))
                kernel(c, p, d, m)

            monkeypatch.setattr(module, name, logged)
    assign = RationalAssignment.make(a="-3/2", b="2/3", t="1/5")

    def run(builder, *args):
        log.clear()
        return builder(assign, 10, *args), list(log)

    unshifted, unshifted_log = run(_chain_double_unshifted)
    shifted, shifted_log = run(_chain_double_shifted)
    product_form, product_form_log = run(_chain_product_form)
    single_sum, single_sum_log = run(_chain_single_sum, True)
    for left, right in ((unshifted, shifted), (shifted, product_form),
                        (product_form, single_sum)):
        assert left == right
    for left_log, right_log in ((unshifted_log, shifted_log), (shifted_log, product_form_log),
                                (product_form_log, single_sum_log)):
        assert left_log and right_log and left_log != right_log


def test_rational_f_runs_each_factor_to_q_cap_on_ints_and_builds_no_factor(monkeypatch):
    # at k1 = k2 = 1 every factor of term n sits at q^n: terms 0..cap_q run
    # n + 1 division passes each, the terms past cap_q (to the tail check) none
    passes, built = [], []
    for name in ("times_ints", "over_ints"):
        def logged(c, p, d, m, kernel=getattr(rational, name)):
            passes.append(m)
            kernel(c, p, d, m)

        monkeypatch.setattr(identities, name, logged)
        monkeypatch.setattr(rational, name, logged)
    new = Factor.__new__
    monkeypatch.setattr(Factor, "__new__",
                        lambda cls, *args: built.append(args) or new(cls, *args))
    assign = RationalAssignment.make(alpha="-2/3", beta="5/4", x_exp=1, y_exp=1)
    for exchanged in (False, True):
        identities._f_rational(assign, 20, exchanged)
    assert sorted(passes) == sorted(2 * [n for n in range(21) for _ in range(n + 1)])
    assert built == []


# ------------------------------------ integer kernel against the Fraction kernel


def _ref_times_binomial(c, v, m):
    """c <- c * (1 - v*q^m) on a list of Fractions (the replaced kernel)."""
    if not v:
        return
    for i in range(len(c) - 1, m - 1, -1):
        x = c[i - m]
        if x:
            c[i] -= v * x


def _ref_over_binomial(c, v, m):
    """c <- c / (1 - v*q^m) on a list of Fractions (the replaced kernel)."""
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


def _ref_accumulate(total, c):
    for i, x in enumerate(c):
        if x:
            total[i] += x


def _dense_of(values):
    den = 1
    for v in values:
        den = den * v.denominator // gcd(den, v.denominator)
    return Dense([int(v * den) for v in values], den)


def _values(c):
    assert isinstance(c, Dense) and c.den > 0
    return [Fraction(x, c.den) for x in c]


kernel_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(min_value=-6, max_value=-1).map(Fraction),
    st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=2, max_value=9)
    ).filter(lambda v: v.denominator > 1),
)
coefficient_values = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=6)
)


@st.composite
def pass_sequences(draw):
    cap = draw(st.integers(min_value=0, max_value=9))
    start = [draw(st.lists(coefficient_values, min_size=cap + 1, max_size=cap + 1))
             for _ in range(2)]
    step = st.tuples(
        st.sampled_from(["times", "over", "scale", "shift_window", "accumulate", "reduce"]),
        st.integers(min_value=0, max_value=1),  # which register the step acts on
        kernel_values,
        st.integers(min_value=0, max_value=cap + 2),
    )
    return cap, start, draw(st.lists(step, min_size=1, max_size=14))


@given(pass_sequences())
@settings(max_examples=400, deadline=None)
def test_integer_kernel_matches_fraction_kernel(sequence):
    # Two registers, so accumulate meets unequal denominators.
    cap, start, steps = sequence
    dense = [_dense_of(values) for values in start]
    ref = [list(values) for values in start]
    for op, k, v, m in steps:
        c, r, other = dense[k], ref[k], 1 - k
        if op == "times":
            times_binomial(c, v, m)
            _ref_times_binomial(r, v, m)
        elif op == "over":
            if m == 0 and v == 1:
                with pytest.raises(DegenerateParameterError):
                    _ref_over_binomial(list(r), v, m)
                with pytest.raises(DegenerateParameterError):
                    over_binomial(c, v, m)
                continue
            over_binomial(c, v, m)
            _ref_over_binomial(r, v, m)
        elif op == "scale":
            scale(c, v)
            r[:] = [x * v for x in r]
        elif op == "shift_window":
            # v * q^m * c: the window m slots higher, added back in at offset m
            shift_window(c, v, m)
            assert len(c) == max(cap + 1 - m, 0)
            dense[k] = Dense.zero(cap)
            accumulate(dense[k], c, m)
            ref[k] = ([Fraction(0)] * m + [x * v for x in r])[: cap + 1]
        elif op == "accumulate":
            accumulate(c, dense[other])
            _ref_accumulate(r, ref[other])
        else:
            before = c.den
            assert reduce_dense(c) is c
            assert before % c.den == 0 and gcd(c.den, *c) == 1
        assert _values(dense[k]) == ref[k]
        assert len(dense[k]) == cap + 1
    assert [_values(c) for c in dense] == ref
    assert dense[0] == _dense_of(ref[0]) and dense[1] == _dense_of(ref[1])


def test_dense_equality_compares_values():
    assert Dense([1, 2], 2) == Dense([2, 4], 4)
    assert not Dense([1, 2], 2) != Dense([2, 4], 4)
    # the same numerators over another denominator are another series
    assert Dense([1, 2], 2) != Dense([1, 2], 3)
    assert not Dense([1, 2], 2) == Dense([1, 2], 3)
    assert Dense([1, 2]) != Dense([1, 2, 0])
    # list equality is not inherited, in either direction
    assert Dense([1, 2]) != [1, 2] and [1, 2] != Dense([1, 2])
    assert not Dense([1, 2]) == [1, 2]
    with pytest.raises(TypeError):
        hash(Dense([1]))


def test_integer_passes_keep_one_multiply_loops_for_integer_values():
    # d = 1 leaves the denominator alone; a factor past the cap is skipped
    c = Dense([1, 0, 0, 0], 3)
    times_binomial(c, Fraction(2), 1)
    over_binomial(c, -1, 2)
    times_binomial(c, Fraction(1, 5), 4)
    over_binomial(c, Fraction(1, 5), 4)
    assert c.den == 3
    assert _values(c) == [Fraction(x, 3) for x in (1, -2, -1, 2)]


def test_dense_series_reduces_once_and_converts():
    c = Dense([2, 0, -4, 6], 4)
    s = dense_series(c, 3)
    assert (list(c), c.den) == ([1, 0, -2, 3], 2)
    assert s.terms == {(0, 0, 0, 0): Fraction(1, 2), (0, 0, 0, 2): -1, (0, 0, 0, 3): Fraction(3, 2)}
    assert s.valid_to_q == 3


def test_dense_series_of_zero_and_of_negative_numerators():
    zero = dense_series(Dense.zero(5), 5)
    assert zero.is_zero() and zero.rows == {} and zero == TruncatedSeries.zero(q_only_profile(5))
    s = dense_series(Dense([-3, 0, -6, 9, 0], 6), 4)
    assert s.den == 2 and s.terms == {
        (0, 0, 0, 0): Fraction(-1, 2), (0, 0, 0, 2): -1, (0, 0, 0, 3): Fraction(3, 2)}


@given(st.lists(st.integers(-(2**100), 2**100), min_size=1, max_size=12), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_dense_series_packs_each_numerator(nums, den):
    cap = len(nums) - 1
    s = dense_series(Dense(nums, den), cap)
    want = {(0, 0, 0, i): Fraction(x, den) for i, x in enumerate(nums) if x}
    assert s.terms == want
    assert s == TruncatedSeries(q_only_profile(cap), want)
