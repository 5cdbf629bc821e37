"""Identity catalog: builders, checkers, and adjudicated printed variants."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from qsid import identities, series
from qsid.identities import (
    CASES,
    build_eq31_side,
    build_f_series,
    build_thm11_side,
    build_thm31_side,
    eq31_substitution_path,
    run_case,
)
from qsid.rational import DegenerateParameterError, RationalAssignment
from qsid.series import (
    Monomial,
    ProfileMismatchError,
    SeriesError,
    TruncatedSeries,
    TruncationProfile,
    coefficient,
    compare_series,
    invert_one_minus,
    pochhammer_finite,
    shift_a_by_q,
    substitute_q_power,
    swap_b_t,
)

PROF = TruncationProfile(4, 4, 4, 12)


# ------------------------------------------------------------ flagship sides


def test_left_coefficient_a1b1t1q2():
    # hand expansion: only the n = 1 term (1 + a*b*q^2) * t / ((1-b*q)(1-b*q^2))
    # contributes a monomial with all of a, b, t present at q^2
    left = build_thm11_side(PROF)
    assert coefficient(left, Monomial(1, 1, 1, 2)) == 1


def test_left_b_powers_from_n0_term():
    left = build_thm11_side(PROF)
    for k in range(PROF.cap_b + 1):
        assert coefficient(left, Monomial(0, k, 0, 0)) == 1


def test_left_with_b_capped_away_is_geometric_in_t():
    prof = TruncationProfile(4, 0, 4, 12)
    left = build_thm11_side(prof)
    want = sum(
        (TruncatedSeries.term(prof, 1, e_t=n) for n in range(prof.cap_t + 1)),
        start=TruncatedSeries.zero(prof),
    )
    assert left == want


def test_left_is_swap_of_right():
    # the right side built from scratch, b and t in exchanged roles
    left = build_thm11_side(PROF)
    right = reference_sum_side(PROF, "b", "t", 1, True)
    assert swap_b_t(right) == left


def table_values(table):
    """A mismatch table's rows as (e_q, e_a, e_b, e_t) with the two values."""
    return [(*row[:4], Fraction(row[4], table.den), Fraction(row[5], table.den))
            for row in table.rows]


def test_verify_thm11_small_caps():
    report = run_case("thm1_1", profile=PROF)
    assert report.verified
    assert report.details["swap_fixed_point"] is True
    assert report.mismatches.rows == []


def test_verify_thm11_a0_stratum():
    report = run_case("thm1_1", profile=TruncationProfile(0, 4, 4, 12))
    assert report.verified


def test_verify_thm11_rejects_asymmetric_caps():
    with pytest.raises(ProfileMismatchError):
        run_case("thm1_1", profile=TruncationProfile(2, 2, 3, 8))


# --------------------------------------------------------- symmetric function


def test_f_series_equals_left_side_without_a():
    prof = TruncationProfile(0, 4, 4, 12)
    assert build_f_series(prof) == build_thm11_side(prof)


def test_f_series_n0_term_is_geometric_in_b():
    f = build_f_series(PROF)
    for k in range(PROF.cap_b + 1):
        assert coefficient(f, Monomial(0, k, 0, 0)) == 1


def test_f_sym_formal_verifies():
    assert run_case("f_sym", "formal", profile=PROF).verified


def test_reduction_a0_verifies():
    report = run_case("reduction_a0", profile=TruncationProfile(4, 4, 4, 12))
    assert report.verified
    assert report.caps["a"] == 0


def test_reduction_a0_catches_a_wrong_symmetric_builder(monkeypatch):
    # f(b, t) is summed summand by summand, so a fault in the stepped
    # builder behind the flagship left side shows as a mismatch.
    stepped = identities._sum_side

    def faulty(profile, q_mult, with_numerator):
        side = stepped(profile, q_mult, with_numerator)
        return side + TruncatedSeries.term(profile, 1, e_b=1, e_t=2, e_q=5)

    monkeypatch.setattr(identities, "_sum_side", faulty)
    report = run_case("reduction_a0", profile=TruncationProfile(4, 4, 4, 12))
    assert report.status == "mismatch"
    assert [str(Monomial(a, b, t, q)) for q, a, b, t, _, _ in report.mismatches.rows] == [
        "b*t^2*q^5"]


# ----------------------------------------------------------- even-step variant


def test_eq31_substitution_path_matches_direct():
    direct = build_eq31_side(PROF)
    sub = eq31_substitution_path(PROF)
    assert sub.valid_to_q == PROF.cap_q - PROF.cap_a
    assert compare_series(direct, sub) == ([], 1)


def full_cap_substitution_path(profile):
    """The substitution path with the flagship built to the whole cap_q."""
    return shift_a_by_q(substitute_q_power(build_thm11_side(profile), 2), -1)


@pytest.mark.parametrize("caps", [
    (12, 12, 12, 64), (12, 12, 12, 61), (10, 10, 10, 40), (8, 8, 8, 24), (6, 6, 6, 16),
    (7, 7, 7, 17), (3, 3, 3, 20), (5, 2, 7, 40),
], ids=str)
def test_eq31_substitution_path_at_half_cap_q_matches_the_full_cap_build(caps):
    # after q -> q^2 the flagship's digits past q^(cap_q // 2) are cut, so
    # building it to that cap_q alone changes no value and no validity
    prof = TruncationProfile(*caps)
    half, full = eq31_substitution_path(prof), full_cap_substitution_path(prof)
    assert half.profile == full.profile == prof
    assert half.valid_to_q == full.valid_to_q
    assert compare_series(half, full) == ([], 1)
    assert not half.is_zero()


def test_eq31_left_coefficient_a1b1t1q3():
    # n = 1 term (1 + a*b*q^3) * t / ((1-b*q^2)(1-b*q^4))
    left = build_eq31_side(PROF)
    assert coefficient(left, Monomial(1, 1, 1, 3)) == 1


def test_eq31_n0_term_is_geometric_in_b():
    left = build_eq31_side(PROF)
    for k in range(PROF.cap_b + 1):
        assert coefficient(left, Monomial(0, k, 0, 0)) == 1


def test_verify_eq31():
    report = run_case("eq3_1_consistency", profile=PROF)
    assert report.verified
    assert report.details["joint_valid_to_q"] == PROF.cap_q - PROF.cap_a


def test_verify_eq31_empty_validity_region():
    report = run_case("eq3_1_consistency", profile=TruncationProfile(6, 2, 2, 4))
    assert report.status == "error"


# ------------------------------------------------------- balanced summation


QPS_ASSIGNMENTS = [
    RationalAssignment.make(a=2, b=3, c=5, N=1),
    RationalAssignment.make(a=2, b=3, c=5, N=3),
    RationalAssignment.make(a="1/2", b="2/3", c=4, N=6),
]


def test_qps_trivial_n0():
    assign = RationalAssignment.make(a=2, b=3, c=5, N=0)
    report = run_case("qps_2_1", assign=assign, cap_q=8)
    assert report.verified


@pytest.mark.parametrize("assign", QPS_ASSIGNMENTS)
def test_qps_assignments(assign):
    report = run_case("qps_2_1", assign=assign, cap_q=16)
    assert report.verified
    assert report.details["form"] == "all_N_product"
    assert report.details["next_summand_zero"] is True


def test_qps_degenerate_c_equals_ab():
    with pytest.raises(DegenerateParameterError):
        run_case("qps_2_1", assign=RationalAssignment.make(a=2, b=3, c=6, N=2),
                 cap_q=8)


EQ22_ASSIGNMENTS = [
    RationalAssignment.make(a=2, b="1/3", c=7, N=2),
    RationalAssignment.make(a="1/2", b="1/5", c=3, N=4),
    RationalAssignment.make(a=3, b="1/4", c="5/2", N=5),
]


def test_eq22_trivial_n0():
    assign = RationalAssignment.make(a=2, b="1/3", c=7, N=0)
    assert run_case("rewrite_2_2", assign=assign, cap_q=8).verified


@pytest.mark.parametrize("assign", EQ22_ASSIGNMENTS)
def test_eq22_assignments_match_q_free_variant(assign):
    report = run_case("rewrite_2_2", assign=assign, cap_q=16)
    assert report.verified
    assert report.details["matched_form"] == "without_qn"
    # the variant carrying the extra q^n genuinely differs
    assert report.details["with_qn_mismatch_count"] > 0


EQ23_ASSIGNMENTS = [
    RationalAssignment.make(a=2, b="1/3", N=2),
    RationalAssignment.make(a="3/2", b="1/7", N=5),
    RationalAssignment.make(a=5, b="2/9", N=4),
]


def test_eq23_trivial_n0_is_geometric_in_b():
    assign = RationalAssignment.make(a=2, b="1/3", N=0)
    check = CASES["eq2_3"]["rational"]
    lhs = check.side("left", assign=assign, cap_q=8)
    assert lhs == check.side("right", assign=assign, cap_q=8)
    assert lhs.terms[Monomial(0, 0, 0, 0)] == Fraction(3, 2)  # 1/(1 - 1/3)


@pytest.mark.parametrize("assign", EQ23_ASSIGNMENTS)
def test_eq23_assignments(assign):
    assert run_case("eq2_3", assign=assign, cap_q=16).verified


def test_eq23_spec_point_cap8():
    assign = RationalAssignment.make(a=2, b="1/3", N=2)
    assert run_case("eq2_3", assign=assign, cap_q=8).verified


def test_eq23_requires_nonzero_a():
    with pytest.raises(DegenerateParameterError):
        run_case("eq2_3", assign=RationalAssignment.make(a=0, b="1/3", N=1), cap_q=8)


# ------------------------------------------------------------------ the chain


CHAIN_ASSIGNMENTS = [
    RationalAssignment.make(a=2, b="1/3", t="1/5"),
    RationalAssignment.make(a="3/2", b="1/4", t="2/7"),
    RationalAssignment.make(a=-2, b="2/5", t="-1/3"),
]


@pytest.mark.parametrize("assign", CHAIN_ASSIGNMENTS)
@pytest.mark.parametrize("step", ["shift", "fine", "final"])
def test_chain_steps(step, assign):
    report = run_case(f"chain_{step}", assign=assign, cap_q=12)
    assert report.verified, report.mismatches.rows[:4]


def test_chain_final_matches_reciprocal_base():
    report = run_case("chain_final", assign=CHAIN_ASSIGNMENTS[0], cap_q=12)
    assert report.details["matched_form"] == "t_over_a"
    assert report.details["printed_form_mismatch_count"] > 0


def test_chain_b_zero_reduces_to_bookkeeping():
    assign = RationalAssignment.make(a=2, b=0, t="1/5")
    for step in ("shift", "fine", "final"):
        assert run_case(f"chain_{step}", assign=assign, cap_q=12).verified


def test_chain_degenerate_parameters():
    with pytest.raises(DegenerateParameterError):
        run_case("chain_shift", assign=RationalAssignment.make(a=0, b="1/3", t="1/5"),
                 cap_q=8)
    with pytest.raises(DegenerateParameterError):
        run_case("chain_shift", assign=RationalAssignment.make(a=2, b="1/3", t=1),
                 cap_q=8)


def test_chain_closes_the_symmetric_identity_loop():
    # independent triangle: the unshifted double sum also collapses, by the
    # c = b*q specialization applied per outer index, to the single-sum
    # target with b and t exchanged; together with the chain this verifies
    # the flagship exchange symmetry itself at rational parameters
    for assign in CHAIN_ASSIGNMENTS:
        double = CASES["chain_shift"]["rational"].side("left", assign=assign, cap_q=12)
        swapped = RationalAssignment.make(a=assign.a, b=assign.t, t=assign.b)
        target = CASES["chain_final"]["rational"].side("t_over_a", assign=swapped, cap_q=12)
        rows, _ = compare_series(double, target)
        assert rows == []


def test_rational_checks_stable_under_lower_cap():
    # a verified case stays verified on the shared region at any lower cap
    assign = RationalAssignment.make(a=2, b="1/3", t="1/5")
    check = CASES["chain_final"]["rational"]
    hi = check.side("left", assign=assign, cap_q=12)
    lo = check.side("left", assign=assign, cap_q=8)
    hi_restricted = {m: c for m, c in hi.terms.items() if m[3] <= 8}
    assert hi_restricted == lo.terms


# --------------------------------------------------- rational symmetric check


F_SYM_ASSIGNMENTS = [
    RationalAssignment.make(alpha="1/2", beta="1/3", x_exp=1, y_exp=2),
    RationalAssignment.make(alpha=2, beta=5, x_exp=2, y_exp=3),
    RationalAssignment.make(alpha="-3/4", beta="2/7", x_exp=3, y_exp=1),
]


@pytest.mark.parametrize("assign", F_SYM_ASSIGNMENTS)
def test_f_sym_rational_assignments(assign):
    cap = 20 if assign.x_exp == 1 else 15
    assert run_case("f_sym", "rational", assign=assign, cap_q=cap).verified


def test_f_sym_rational_equal_arguments_trivial():
    assign = RationalAssignment.make(alpha="1/2", beta="1/2", x_exp=1, y_exp=2)
    assert run_case("f_sym", "rational", assign=assign, cap_q=10).verified


def test_f_sym_rational_rejects_unit_argument():
    with pytest.raises(DegenerateParameterError):
        run_case(
            "f_sym", "rational",
            assign=RationalAssignment.make(alpha=1, beta="1/3", x_exp=1, y_exp=2), cap_q=8,
        )


def f_closed_form(alpha, beta, k1, k2, cap_q):
    """f(alpha, beta) = sum_n beta^n / prod_{k=0..n} (1 - alpha q^(k1(n-k) + k2 k))
    by its closed form, as {e_q: coefficient}: with k = min(k1, k2) and
    d = |k2 - k1|,

        1/(1-alpha) + 1/(1-beta) - 1
          + sum_{m,n>=1} alpha^m beta^n q^(k*m*n) [m+n, m]_{q^d}.
    """
    k, d = min(k1, k2), abs(k2 - k1)
    out = {0: 1 / (1 - alpha) + 1 / (1 - beta) - 1}
    for m in range(1, cap_q // k + 1):
        for n in range(1, cap_q // (k * m) + 1):
            for j, c in enumerate(list_gaussian_binomial(m + n, m)):
                e = k * m * n + d * j
                if e <= cap_q:
                    out[e] = out.get(e, 0) + c * alpha**m * beta**n
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("k1, k2", [(1, 2), (2, 3), (1, 1), (3, 1), (2, 5)])
@pytest.mark.parametrize("alpha, beta", [(Fraction(2, 3), Fraction(-1, 2)),
                                         (Fraction(5, 2), Fraction(1, 3))])
def test_f_sym_rational_left_side_matches_the_closed_form(k1, k2, alpha, beta):
    # the closed form reads k1 and k2 only through min(k1, k2) and |k2 - k1|,
    # so an exponent edit that keeps f symmetric still changes this side
    assign = RationalAssignment.make(alpha=alpha, beta=beta, x_exp=k1, y_exp=k2)
    left = CASES["f_sym"]["rational"].side("left", assign=assign, cap_q=16)
    assert {m[3]: c for m, c in left.terms.items()} == f_closed_form(alpha, beta, k1, k2, 16)


# --------------------------------------------------------- companion series


def test_thm35_left_b_coefficient_series():
    # hand expansion: sum over N of q^(N+1) + ... + q^(2N)
    prof = TruncationProfile(0, 6, 0, 6)
    left = build_thm31_side("3_5_left", prof)
    got = {m[3]: c for m, c in left.terms.items() if m[1] == 1}
    assert got == {2: 1, 3: 1, 4: 2, 5: 2, 6: 3}


def test_thm35_right_b_coefficient_series():
    # geometric expansion of q^2 / ((1-q)(1-q^2))
    prof = TruncationProfile(0, 6, 0, 6)
    right = build_thm31_side("3_5_right", prof)
    got = {m[3]: c for m, c in right.terms.items() if m[1] == 1}
    assert got == {2: 1, 3: 1, 4: 2, 5: 2, 6: 3}


def test_thm35_verifies_with_pentagonal_exponents():
    report = run_case("thm3_5", profile=TruncationProfile(0, 6, 0, 24))
    assert report.verified


def test_thm35_cap_zero_trivial():
    report = run_case("thm3_5", profile=TruncationProfile(0, 2, 0, 0))
    assert report.verified
    left = build_thm31_side("3_5_left", TruncationProfile(0, 2, 0, 0))
    assert left.is_zero()


def test_thm34_constant_b_row_disagrees():
    prof = TruncationProfile(4, 4, 0, 10)
    left = build_thm31_side("3_4_left", prof)
    right = build_thm31_side("3_4_right", prof)
    assert coefficient(left, Monomial(0, 1, 0, 0)) == 0
    assert coefficient(right, Monomial(0, 1, 0, 0)) == -1


def test_thm34_left_b_row_is_negative_floor_series():
    # -q/((1-q)(1-q^2)) = -(q + q^2 + 2q^3 + 2q^4 + 3q^5 + ...)
    prof = TruncationProfile(4, 4, 0, 8)
    left = build_thm31_side("3_4_left", prof)
    got = {m[3]: c for m, c in left.terms.items() if m[0] == 0 and m[1] == 1}
    assert got == {1: -1, 2: -1, 3: -2, 4: -2, 5: -3, 6: -3, 7: -4, 8: -4}


def test_thm34_report_is_deterministic_and_led_by_b1():
    prof = TruncationProfile(4, 4, 0, 10)
    r1 = run_case("thm3_4", profile=prof)
    r2 = run_case("thm3_4", profile=prof)
    assert r1.status == "mismatch"
    assert table_values(r1.mismatches) == table_values(r2.mismatches)
    q, a, b, t, x, y = r1.mismatches.rows[0]
    assert Monomial(a, b, t, q) == Monomial(0, 1, 0, 0)
    assert (Fraction(x, r1.mismatches.den), Fraction(y, r1.mismatches.den)) == (0, -1)


# ------------------------------------------------------------------ dispatch


def test_run_case_unknown_and_unsupported():
    with pytest.raises(SeriesError):
        run_case("nope", profile=PROF)
    with pytest.raises(SeriesError):
        run_case("eq2_3", mode="formal", profile=PROF)
    with pytest.raises(SeriesError):
        run_case("thm1_1", mode="formal")  # missing profile


def test_run_case_rational_mode_needs_an_assignment_and_cap_q():
    assign = RationalAssignment.make(a=2, b="1/3", N=2)
    for given in ({"cap_q": 8}, {"assign": assign}):
        with pytest.raises(SeriesError) as refusal:
            run_case("eq2_3", mode="rational", **given)
        assert str(refusal.value) == "rational mode needs an assignment and cap_q"


def test_thm31_side_refuses_an_unknown_side():
    with pytest.raises(SeriesError) as refusal:
        build_thm31_side("3_6_left", PROF)
    assert str(refusal.value) == (
        "side must be one of 3_4_left, 3_4_right, 3_5_left, 3_5_right; got '3_6_left'"
    )


def test_run_case_requires_parameters():
    with pytest.raises(SeriesError):
        run_case("eq2_3", mode="rational",
                 assign=RationalAssignment.make(a=2), cap_q=8)


def test_case_registry_modes():
    assert set(CASES) == {
        "thm1_1", "f_sym", "reduction_a0", "eq3_1_consistency", "eq3_1_partitions",
        "qps_2_1", "rewrite_2_2", "eq2_3",
        "chain_shift", "chain_fine", "chain_final",
        "thm3_4", "thm3_5",
    }
    assert tuple(CASES["f_sym"]) == ("formal", "rational")
    assert tuple(CASES["qps_2_1"]) == ("rational",)


def test_rational_check_side_examples():
    eq23, qps21 = CASES["eq2_3"]["rational"], CASES["qps_2_1"]["rational"]
    assign = RationalAssignment.make(a=2, b="1/3", N=2)
    assert eq23.side("left", assign=assign, cap_q=8) == eq23.side("right", assign=assign, cap_q=8)
    qps = RationalAssignment.make(a=2, b=3, c=5, N=1)
    assert qps21.side("left", assign=qps, cap_q=8) == qps21.side("right", assign=qps, cap_q=8)


# ---------------------------------------------------------- negative control


NC_PROFILE = TruncationProfile(2, 2, 2, 6)
NC_ASSIGN = RationalAssignment.make(
    a=2, b="1/3", t="1/5", c=5, N=2, alpha="1/2", beta="1/3", x_exp=1, y_exp=2
)
NC_COMPARISONS = [
    pytest.param(name, mode, comparison, id=f"{name}-{mode}-{'|'.join(comparison[1:])}")
    for name, checks in CASES.items()
    for mode, check in checks.items()
    for comparison in check.comparisons
]


@pytest.mark.parametrize("name, mode, comparison", NC_COMPARISONS)
def test_catalog_negative_control(monkeypatch, name, mode, comparison):
    # Every right-hand side of the comparison, each adjudication candidate
    # included, gains the constant monomial: no catalog check may still pass.
    settings = {"profile": NC_PROFILE} if mode == "formal" else {"assign": NC_ASSIGN, "cap_q": 6}
    check = CASES[name][mode]
    baseline = run_case(name, mode, **settings)
    for candidate in comparison[1:]:
        def perturbed(run, build=check.sides[candidate]):
            side = build(run)
            return side + TruncatedSeries.one(side.profile)

        monkeypatch.setitem(check.sides, candidate, perturbed)
    report = run_case(name, mode, **settings)
    assert report.status == "mismatch"
    assert table_values(report.mismatches) != table_values(baseline.mismatches)
    if len(comparison) > 2:
        assert report.details["matched_form"] == "none"


# ------------------------------------------- stepped builders vs from scratch


def reference_sum_side(profile, outer, inner, q_mult, with_numerator):
    """Every summand of the symmetric sides built from scratch, factor by factor."""
    numer_base = Monomial(e_a=1, e_b=int(inner == "b"), e_t=int(inner == "t"))
    total = TruncatedSeries.zero(profile)
    for n in range(profile.caps["abtq".index(outer)] + 1):
        term = TruncatedSeries.term(profile, 1, **{f"e_{outer}": n})
        if with_numerator:
            term = term * pochhammer_finite(-1, numer_base, q_mult * n + 1, q_mult, n, profile)
        for k in range(n + 1):
            denom = TruncatedSeries.term(profile, 1, **{f"e_{inner}": 1, "e_q": q_mult * (n + k)})
            term = term * invert_one_minus(denom)
        total = total + term
    return total


def reference_thm31_side(which, profile):
    """The companion evaluations' summands built from scratch."""
    one = TruncatedSeries.one(profile)
    total = TruncatedSeries.zero(profile)
    if which in ("3_4_left", "3_5_left"):
        base = Monomial(e_a=int(which == "3_4_left"), e_b=1)
        for n in range(1, profile.cap_q + 1):
            ratio = pochhammer_finite(1, base, n + 1, 1, n, profile)
            if which == "3_4_left":
                for k in range(n):
                    ratio = ratio * invert_one_minus(
                        TruncatedSeries.term(profile, 1, e_b=1, e_q=n + k)
                    )
            total = total + (one - ratio)
        return total
    n = 1
    while n <= profile.cap_b and (which == "3_4_right" or n * (3 * n + 1) // 2 <= profile.cap_q):
        if which == "3_4_right":
            term = pochhammer_finite(1, Monomial(e_a=1), n + 1, 1, n, profile)
            term = term * TruncatedSeries.term(profile, 1, e_b=n)
        else:
            term = TruncatedSeries.term(profile, (-1) ** n, e_b=n, e_q=n * (3 * n + 1) // 2)
        for k in range(n + 1):
            term = term * invert_one_minus(TruncatedSeries.term(profile, 1, e_q=n + k))
        total = total + term
        n += 1
    return -total


REFERENCE_CAPS = [
    (3, 3, 3, 10), (6, 6, 6, 24), (0, 5, 5, 30), (2, 5, 5, 30), (4, 4, 4, 2), (0, 1, 1, 3)
]


def formal_right(case, profile):
    return CASES[case]["formal"].side("right", profile=profile)


@pytest.mark.parametrize("caps", REFERENCE_CAPS, ids=str)
def test_stepped_builders_match_reference(caps):
    prof = TruncationProfile(*caps)
    pairs = [
        (build_thm11_side(prof), reference_sum_side(prof, "t", "b", 1, True)),
        (formal_right("thm1_1", prof), reference_sum_side(prof, "b", "t", 1, True)),
        (build_f_series(prof), reference_sum_side(prof, "t", "b", 1, False)),
        (formal_right("f_sym", prof), reference_sum_side(prof, "b", "t", 1, False)),
        (build_eq31_side(prof), reference_sum_side(prof, "t", "b", 2, True)),
        (formal_right("eq3_1_consistency", prof), reference_sum_side(prof, "b", "t", 2, True)),
    ] + [
        (build_thm31_side(which, prof), reference_thm31_side(which, prof))
        for which in ("3_4_left", "3_4_right", "3_5_left", "3_5_right")
    ]
    for stepped, reference in pairs:
        assert stepped.terms == reference.terms
        assert stepped.valid_to_q == reference.valid_to_q


# ------------------------------------- graded builders vs per-summand loops


def per_summand_sum_side(profile, q_mult, with_numerator):
    """The symmetric left sides as summed before strata were written: each
    summand shifted up by t, then added into the total."""
    term = TruncatedSeries.one(profile).over_binomial(1, Monomial(e_b=1))
    total = term
    s = q_mult
    for n in range(profile.cap_t):
        term = term.times_monomial(1, Monomial(e_t=1))
        if with_numerator:
            term = term.times_binomial(-1, Monomial(e_a=1, e_b=1, e_q=2 * s * n + 1))
            term = term.times_binomial(-1, Monomial(e_a=1, e_b=1, e_q=s * (2 * n + 1) + 1))
            term = term.over_binomial(-1, Monomial(e_a=1, e_b=1, e_q=s * n + 1))
        term = term.times_binomial(1, Monomial(e_b=1, e_q=s * n))
        term = term.over_binomial(1, Monomial(e_b=1, e_q=s * (2 * n + 1)))
        term = term.over_binomial(1, Monomial(e_b=1, e_q=s * (2 * n + 2)))
        total = total + term
    return total


def per_summand_f(profile):
    total = TruncatedSeries.zero(profile)
    for n in range(profile.cap_t + 1):
        term = TruncatedSeries.term(profile, 1, e_t=n)
        for k in range(n + 1):
            term = term.over_binomial(1, Monomial(e_b=1, e_q=n + k))
        total = total + term
    return total


def per_summand_thm31_right(which, profile):
    """The right sides stepped with b in each summand, added up, then negated."""
    with_a = which == "3_4_right"
    if with_a:
        term = TruncatedSeries.term(profile, 1, e_b=1)
        term = term.times_binomial(1, Monomial(e_a=1, e_q=2))
    else:
        term = TruncatedSeries.term(profile, -1, e_b=1, e_q=2)
    term = term.over_binomial(1, Monomial(e_q=1)).over_binomial(1, Monomial(e_q=2))
    total = TruncatedSeries.zero(profile)
    n = 1
    while not term.is_zero():  # summand n is 0 once b^n or its q-order is over cap
        total = total + term
        if with_a:
            term = term.times_monomial(1, Monomial(e_b=1))
            term = term.times_binomial(1, Monomial(e_a=1, e_q=2 * n + 1))
            term = term.times_binomial(1, Monomial(e_a=1, e_q=2 * n + 2))
            term = term.over_binomial(1, Monomial(e_a=1, e_q=n + 1))
        else:
            term = term.times_monomial(-1, Monomial(e_b=1, e_q=3 * n + 2))
        term = term.times_binomial(1, Monomial(e_q=n))
        term = term.over_binomial(1, Monomial(e_q=2 * n + 1))
        term = term.over_binomial(1, Monomial(e_q=2 * n + 2))
        n += 1
    return -total


def bt_swapped(profile):
    return TruncationProfile(profile.cap_a, profile.cap_t, profile.cap_b, profile.cap_q)


def half_cap_q(profile):
    return TruncationProfile(profile.cap_a, profile.cap_b, profile.cap_t, profile.cap_q // 2)


# name -> (builder, its per-summand reference)
GRADED_BUILDERS = {
    "thm1_1 left": (build_thm11_side, lambda p: per_summand_sum_side(p, 1, True)),
    "thm1_1 right": (
        lambda p: formal_right("thm1_1", p),
        lambda p: swap_b_t(per_summand_sum_side(bt_swapped(p), 1, True)),
    ),
    "f_sym left": (build_f_series, lambda p: per_summand_sum_side(p, 1, False)),
    "eq3_1 left": (build_eq31_side, lambda p: per_summand_sum_side(p, 2, True)),
    "substitution path": (
        eq31_substitution_path,
        lambda p: shift_a_by_q(
            substitute_q_power(per_summand_sum_side(half_cap_q(p), 1, True), 2, p), -1),
    ),
    "reduction_a0 right": (identities._f_by_summands, per_summand_f),
    "3_4_right": (
        lambda p: build_thm31_side("3_4_right", p),
        lambda p: per_summand_thm31_right("3_4_right", p),
    ),
    "3_5_right": (
        lambda p: build_thm31_side("3_5_right", p),
        lambda p: per_summand_thm31_right("3_5_right", p),
    ),
}
GRADED_CAPS = REFERENCE_CAPS + [
    # the bench rungs
    (12, 12, 12, 88), (12, 12, 0, 88), (10, 12, 12, 72), (12, 12, 12, 64), (12, 12, 0, 64),
    (12, 12, 12, 116),
    # no b strata past b^0, no t strata past t^0, and the heaviest CI rung
    (3, 0, 3, 20), (3, 3, 0, 20), (20, 20, 20, 801),
]


@pytest.mark.parametrize("caps", GRADED_CAPS, ids=str)
def test_graded_builders_match_the_per_summand_loops(caps):
    # The same rows, bounds, W, den and validity as shifting each summand
    # to its power of b or t and adding it into a total.
    prof = TruncationProfile(*caps)
    for name, (build, reference) in GRADED_BUILDERS.items():
        got, want = build(prof), reference(prof)
        assert got.rows == want.rows, name
        assert got.bounds == want.bounds, name
        assert (got.width, got.den, got.valid_to_q) == (want.width, want.den, want.valid_to_q), name


def test_graded_builders_neither_add_nor_shift_by_b_or_t(monkeypatch):
    # Each summand is built free of its grading variable and written at its
    # power (TruncatedSeries._stacked): no add, subtract or negate pass, and
    # no monomial shift carrying b or t.
    prof = TruncationProfile(3, 4, 4, 16)
    shift = TruncatedSeries.times_monomial

    def guarded(self, c, m):
        assert not (m[1] or m[2]), "grading shift in a graded builder"
        return shift(self, c, m)

    def forbidden(self, *other):
        raise AssertionError("add pass in a graded builder")

    monkeypatch.setattr(TruncatedSeries, "times_monomial", guarded)
    for name in ("__add__", "__radd__", "__sub__", "__neg__"):
        monkeypatch.setattr(TruncatedSeries, name, forbidden)
    for build, _ in GRADED_BUILDERS.values():
        assert not build(prof).is_zero()
    with pytest.raises(AssertionError, match="grading shift"):
        per_summand_sum_side(prof, 1, True)
    with pytest.raises(AssertionError, match="add pass"):
        per_summand_f(prof)


@pytest.mark.parametrize("which", ["3_4_right", "3_5_right"])
def test_right_sides_match_reference_at_a_long_window(which):
    # divisors in q alone over a window of 200: up to 8 doubling steps a row
    prof = TruncationProfile(2, 3, 0, 200)
    stepped, reference = build_thm31_side(which, prof), reference_thm31_side(which, prof)
    assert stepped.terms == reference.terms and stepped.terms
    assert stepped.valid_to_q == reference.valid_to_q


def stepped_thm31_left(which, profile):
    """The left sides summed over N from the q-shifted factorial ratio
    R_N, stepped from N to N + 1 by its exact ratio, starting from 1 at
    N = 0 (six binomial passes per N for 3_4_left, three for 3_5_left):

    3_4_left   (1-abq^(2N+1)) (1-abq^(2N+2)) (1-bq^N)
               / ((1-abq^(N+1)) (1-bq^(2N)) (1-bq^(2N+1)))
    3_5_left   (1-bq^(2N+1)) (1-bq^(2N+2)) / (1-bq^(N+1))
    """
    with_a = which == "3_4_left"
    total = TruncatedSeries.term(profile, profile.cap_q)  # the cap_q ones of the sum
    ratio = TruncatedSeries.one(profile)
    for n in range(profile.cap_q):
        if with_a:
            ratio = ratio.times_binomial(1, Monomial(e_a=1, e_b=1, e_q=2 * n + 1))
            ratio = ratio.times_binomial(1, Monomial(e_a=1, e_b=1, e_q=2 * n + 2))
            ratio = ratio.times_binomial(1, Monomial(e_b=1, e_q=n))
            ratio = ratio.over_binomial(1, Monomial(e_a=1, e_b=1, e_q=n + 1))
            ratio = ratio.over_binomial(1, Monomial(e_b=1, e_q=2 * n))
            ratio = ratio.over_binomial(1, Monomial(e_b=1, e_q=2 * n + 1))
        else:
            ratio = ratio.times_binomial(1, Monomial(e_b=1, e_q=2 * n + 1))
            ratio = ratio.times_binomial(1, Monomial(e_b=1, e_q=2 * n + 2))
            ratio = ratio.over_binomial(1, Monomial(e_b=1, e_q=n + 1))
        total = total - ratio
    return total


STEPPED_CAPS = REFERENCE_CAPS + [
    # the bench rungs
    (12, 12, 12, 88), (12, 12, 0, 88), (10, 12, 12, 72), (12, 12, 12, 64), (12, 12, 0, 64),
    # cap_q below the live pairs' reach, no rows at all, and cap_a over cap_b
    (12, 12, 12, 8), (0, 0, 0, 4), (5, 2, 2, 40),
]


@pytest.mark.parametrize("caps", STEPPED_CAPS, ids=str)
@pytest.mark.parametrize("which", ["3_4_left", "3_5_left"])
def test_left_sides_match_the_stepped_ratio(which, caps):
    prof = TruncationProfile(*caps)
    side, stepped = build_thm31_side(which, prof), stepped_thm31_left(which, prof)
    width = max(side.width, stepped.width)
    assert side._widened(width).rows == stepped._widened(width).rows
    assert side.terms == stepped.terms
    assert side.valid_to_q == stepped.valid_to_q == prof.cap_q
    for k, row in side.rows.items():
        assert side.bounds[k] >= sum(map(abs, series._unpack(row, side.width)))


def test_left_sides_apply_no_binomial_pass(monkeypatch):
    prof = TruncationProfile(6, 6, 6, 40)
    expected = {which: stepped_thm31_left(which, prof) for which in ("3_4_left", "3_5_left")}

    def forbidden(*args):
        raise AssertionError("binomial pass in a left side")

    for name in ("_shift_add", "_divide", "_divide_q"):
        monkeypatch.setattr(series, name, forbidden)
    for which, stepped in expected.items():
        assert build_thm31_side(which, prof) == stepped
    with pytest.raises(AssertionError, match="binomial pass"):
        build_thm31_side("3_4_right", prof)


@lru_cache(maxsize=None)
def list_gaussian_binomial(n, k):
    """[n, k]_q as its coefficient tuple, q^0 first, by [n-1, k-1] + q^k [n-1, k] on lists."""
    if k < 0 or k > n:
        return ()
    if k in (0, n):
        return (1,)
    low, high = list_gaussian_binomial(n - 1, k - 1), list_gaussian_binomial(n - 1, k)
    out = list(low) + [0] * max(0, k + len(high) - len(low))
    for j, d in enumerate(high):
        out[k + j] += d
    return tuple(out)


@pytest.mark.parametrize("width", [32, 8])
def test_gaussian_binomial_table_matches_the_list_recurrence(width):
    # At W = 8 the middle digits outgrow their slots and carry: an entry
    # is then [n, k] at q = 2^W modulo the slots it keeps.
    cap_q, top = 200, 6
    table = series.gaussian_binomials(width, cap_q, top)
    widest = 0
    for n in range(41):
        row = next(table)
        assert len(row) == top + 1
        for k, entry in enumerate(row):
            keep = max(0, cap_q + 1 - k * (n - k + 1))
            digits = list_gaussian_binomial(n, k)[:keep]
            widest = max(widest, *digits, 0)
            assert entry == sum(d << width * j for j, d in enumerate(digits)) % (1 << width * keep)
            if width == 32 and k <= n and keep > k * (n - k):  # uncut
                assert sum(series._unpack(entry, width)) == comb(n, k)
                if n - k <= top:
                    assert entry == row[n - k]
    assert widest >> width if width == 8 else not widest >> (width - 2)


BENCH_CAP_SIDES = [
    ("3_4_left", (12, 12, 0, 88)),
    ("3_4_right", (12, 12, 0, 88)),
    ("3_5_left", (12, 12, 0, 64)),
    ("3_5_right", (12, 12, 0, 64)),
    ("thm1_1", (12, 12, 12, 116)),
]


@pytest.mark.parametrize("which, caps", BENCH_CAP_SIDES, ids=str)
def test_sides_at_the_bench_caps_build_at_the_narrowest_width(which, caps):
    # The digit sums need at most 18 bits; a bound compounded through the
    # passes (up to 98 bits on 3_4_right) is re-read before it widens a side.
    prof = TruncationProfile(*caps)
    side = build_thm11_side(prof) if which == "thm1_1" else build_thm31_side(which, prof)
    assert side.width == 32
    for k, row in side.rows.items():
        assert side.bounds[k] >= sum(map(abs, series._unpack(row, side.width)))


BENCH_FORMAL_CASES = [
    *((case, (12, 12, 12, 64)) for case in
      ("thm1_1", "eq3_1_consistency", "reduction_a0", "f_sym", "thm3_4", "thm3_5")),
    ("thm1_1", (12, 12, 12, 116)),
    ("thm3_4", (12, 12, 12, 88)),
]


@pytest.mark.parametrize("case, caps", BENCH_FORMAL_CASES, ids=str)
def test_formal_side_rows_stay_below_the_cut_bit_at_the_bench_caps(case, caps):
    # A row reaches bit W*(cap_q + 1) only with a slot past cap_q, which
    # every pass, shift and substitution cuts (series._cut).
    check = CASES[case]["formal"]
    prof = TruncationProfile(*caps)
    prof = prof if check.restrict is None else check.restrict(prof)
    for name in check.sides:
        side = check.side(name, profile=prof)
        assert side.rows
        assert all(row.bit_length() < side.width * (prof.cap_q + 1) for row in side.rows.values())


def test_formal_sides_multiply_no_two_multi_term_series(monkeypatch):
    # The formal builders apply binomial passes, and the Theorem 3.4/3.5
    # left sides multiply Gaussian-binomial rows as ints; a product of two
    # series with several terms each would be a convolution, which none needs.
    product = TruncatedSeries.__mul__

    def guarded(self, other):
        if isinstance(other, TruncatedSeries):
            assert len(self.terms) <= 1 or len(other.terms) <= 1, "convolution in a formal side"
        return product(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", guarded)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", guarded)
    prof = TruncationProfile(3, 4, 4, 16)
    build_thm11_side(prof)
    build_eq31_side(prof)
    build_f_series(prof)
    for which in ("3_4_left", "3_4_right", "3_5_left", "3_5_right"):
        build_thm31_side(which, prof)
    for name, checks in CASES.items():
        if "formal" in checks:
            run_case(name, "formal", profile=prof)
    with pytest.raises(AssertionError, match="convolution"):
        reference_sum_side(prof, "t", "b", 1, True)


RATIONAL_CASES = [name for name, checks in CASES.items() if "rational" in checks]


@pytest.mark.parametrize("cap_q", [4, 7])
def test_rational_sides_use_no_sparse_series_arithmetic(monkeypatch, cap_q):
    # Rational sides are built on integer numerators over one denominator
    # and become a series once, for the comparison: no term-map product or
    # sum is left on their path.
    expected = {}
    for name in RATIONAL_CASES:
        report = run_case(name, "rational", assign=NC_ASSIGN, cap_q=cap_q)
        expected[name] = (report.status, report.details.get("matched_form"))

    def forbidden(self, other):
        raise AssertionError("sparse series arithmetic in a rational side")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(TruncatedSeries, name, forbidden)
    for name in RATIONAL_CASES:
        report = run_case(name, "rational", assign=NC_ASSIGN, cap_q=cap_q)
        assert (report.status, report.details.get("matched_form")) == expected[name]
    assert len(expected) == 7
    assert all(status == "verified" for status, _ in expected.values())
    assert expected["rewrite_2_2"][1] == "without_qn"
    assert expected["chain_final"][1] == "t_over_a"
    with pytest.raises(AssertionError, match="sparse series arithmetic"):
        TruncatedSeries.one(PROF) + TruncatedSeries.one(PROF)


@pytest.mark.parametrize(
    "case, q_mult, with_numerator, size",
    [("thm1_1", 1, True, 57), ("f_sym", 1, False, 35), ("eq3_1_consistency", 2, True, 28)],
)
def test_right_side_with_unequal_bt_caps(case, q_mult, with_numerator, size):
    prof = TruncationProfile(2, 2, 4, 9)
    right = formal_right(case, prof)
    reference = reference_sum_side(prof, "b", "t", q_mult, with_numerator)
    assert right.profile == prof
    assert right.terms == reference.terms
    assert len(right.terms) == size
    assert right.valid_to_q == reference.valid_to_q == prof.cap_q


@pytest.mark.parametrize("case, builds", [("thm1_1", 1), ("f_sym", 1), ("eq3_1_consistency", 2)])
def test_symmetric_cases_build_each_sum_once(monkeypatch, case, builds):
    # The right side is the left side's b<->t reflection, not a second sum;
    # eq3_1's substitution path sums the flagship left side.
    calls = []
    sum_side = identities._sum_side

    def counted(*args):
        calls.append(args)
        return sum_side(*args)

    monkeypatch.setattr(identities, "_sum_side", counted)
    assert run_case(case, "formal", profile=PROF).verified
    assert len(calls) == builds
