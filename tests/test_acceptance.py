"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion is checked at its stated caps and tolerance (all
comparisons are exact, so the tolerance is zero mismatches unless a
criterion pins a documented discrepancy).
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qsid
from qsid.bijections import BijectionBox, audit_bijection
from qsid.cli import (
    audit_report_to_dict,
    report_json,
    verification_report_to_dict,
)
from qsid.identities import (
    build_thm31_side,
    run_case,
)
from qsid.partitions import ConstraintSet, Partition, enumerate_partitions
from qsid.rational import RationalAssignment
from qsid.series import (
    MONO_ONE,
    Monomial,
    TruncatedSeries,
    TruncationProfile,
    invert_one_minus,
    pochhammer_infinite,
)
from qsid.bijections import gamma, sigma_gamma, two_modular_conjugate


def strip_volatile(d):
    """Copy of a report dict without the volatile section (for diffing)."""
    return {k: v for k, v in d.items() if k != "volatile"}


def report_line(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_flagship_identity_full_caps():
    started = time.perf_counter()
    profile = TruncationProfile(8, 8, 8, 24)
    report = run_case("thm1_1", "formal", profile=profile)
    elapsed = time.perf_counter() - started
    ok = (
        report.verified
        and not report.mismatches
        and report.details["swap_fixed_point"] is True
        and elapsed < 60.0
    )
    report_line(
        1, ok,
        f"flagship identity at caps (8,8,8,24): {report.status}, "
        f"swap fixed point, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_classical_reduction():
    profile = TruncationProfile(0, 8, 8, 24)
    reduction = run_case("reduction_a0", "formal", profile=profile)
    symmetry = run_case("f_sym", "formal", profile=profile)
    ok = reduction.verified and symmetry.verified
    report_line(
        2, ok,
        "a = 0 stratum equals f(b, t) and f(b, t) = f(t, b) at caps (8,8,24)",
    )


def test_criterion_03_even_step_consistency():
    profile = TruncationProfile(8, 8, 8, 24)
    report = run_case("eq3_1_consistency", "formal", profile=profile)
    ok = (
        report.verified
        and report.details["construction_mismatch_count"] == 0
        and report.details["symmetry_mismatch_count"] == 0
    )
    report_line(
        3, ok,
        f"substitution path vs direct build at cap_q 24: {report.status} on "
        f"joint region q <= {report.details['joint_valid_to_q']}",
    )


def test_criterion_04_rational_chain():
    assignments = [
        RationalAssignment.make(a=2, b="1/3", t="1/5", c=5),
        RationalAssignment.make(a="3/2", b="1/4", t="2/7", c=7),
        RationalAssignment.make(a=-2, b="2/5", t="-1/3", c="9/2"),
    ]
    ns = [1, 3, 6]
    ok = True
    for assign, n in zip(assignments, ns):
        with_n = RationalAssignment.make(
            a=assign.a, b=assign.b, t=assign.t, c=assign.c, N=n
        )
        ok &= run_case("qps_2_1", assign=with_n, cap_q=16).verified
        ok &= run_case("rewrite_2_2", assign=with_n, cap_q=16).verified
        ok &= run_case("eq2_3", assign=with_n, cap_q=16).verified
        for step in ("shift", "fine", "final"):
            ok &= run_case(f"chain_{step}", assign=assign, cap_q=16).verified
    report_line(
        4, ok,
        "balanced summation, both rewrites, and all three chain steps exact at "
        "3 assignments, cap_q 16, N <= 6",
    )


def test_criterion_05_companion_series():
    r35 = run_case("thm3_5", profile=TruncationProfile(0, 6, 0, 24))
    profile34 = TruncationProfile(6, 6, 0, 20)
    r34a = run_case("thm3_4", profile=profile34)
    r34b = run_case("thm3_4", profile=profile34)
    left34 = build_thm31_side("3_4_left", profile34)
    b_row = {
        m[3]: c for m, c in left34.terms.items() if m[0] == 0 and m[1] == 1 and m[3] <= 8
    }
    pinned = {1: -1, 2: -1, 3: -2, 4: -2, 5: -3, 6: -3, 7: -4, 8: -4}
    q, a, b, t, x, y = r34a.mismatches.rows[0]
    den = r34a.mismatches.den
    ok = (
        r35.verified
        and r34a.status == "mismatch"
        # deterministic report
        and (r34a.mismatches.rows, den) == (r34b.mismatches.rows, r34b.mismatches.den)
        and b_row == pinned
        and Monomial(a, b, t, q) == Monomial(0, 1, 0, 0)
        and (Fraction(x, den), Fraction(y, den)) == (Fraction(0), Fraction(-1))
    )
    report_line(
        5, ok,
        "pentagonal-series identity verified at (b,q)=(6,24); the companion "
        "checker pins -q/((1-q)(1-q^2)) and reproduces the b*q^0 discrepancy",
    )


def test_criterion_06_partition_oracle_to_40():
    cap = 40
    profile = TruncationProfile(0, 0, 0, cap)
    series = pochhammer_infinite(-1, MONO_ONE, 1, 2, profile)
    m = 2
    while m <= cap:
        series = series * invert_one_minus(TruncatedSeries.term(profile, 1, e_q=m))
        m += 2
    ok = True
    for w in range(cap + 1):
        count = len(
            enumerate_partitions(ConstraintSet(weight=w, odd_parts_distinct=True))
        )
        ok &= series.terms.get((0, 0, 0, w), 0) == count
    report_line(
        6, ok,
        "odd-distinct partition counts match the infinite-product series for "
        "all weights <= 40",
    )


def test_criterion_07_bijection_audit_boxes():
    started = time.perf_counter()
    boxes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 5)]
    ok = True
    for j, M in boxes:
        report = audit_bijection(BijectionBox(j, M))
        e = report.exact
        ok &= (
            e.weight_preserved.failed == 0
            and e.odd_count_preserved.failed == 0
            and e.codomain_membership.failed == 0
            and e.injective
            and e.surjective
            and e.genpoly_equal
        )
    printed = audit_bijection(BijectionBox(1, 2))
    ok &= printed.le_adds_codomain == [
        ((0, 0), 1), ((0, 2), 1), ((1, 3), 1), ((0, 4), 1),
    ]
    ok &= printed.printed.genpoly_mismatches == [
        ((0, 2), 0, 1), ((1, 3), 0, 1), ((0, 4), 1, 2),
    ]
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    report_line(
        7, ok,
        f"8 exact boxes fully pass; (1,2) printed variant reproduces the "
        f"four-monomial discrepancy 1, q^2, a*q^3, q^4 ({elapsed:.1f}s < 120s)",
    )


def test_criterion_08_regression_vectors():
    P = Partition.parse
    marked = gamma(P("20,13,12,12,10"), 5)
    ok = marked == P("10,10,10,10,10,10,3,2,2")
    ok &= two_modular_conjugate(marked) == P("18,13,12,12,12")
    ok &= two_modular_conjugate(P("12,12,12,8,5,1")) == P("11,10,9,8,6,6")
    corrected = sigma_gamma(P("20,17,13"), 5)
    ok &= corrected == P("12,11,10,9,8")
    # the once-printed vector fails weight preservation, which flags it
    ok &= P("12,11,9,8").weight != P("20,17,13").weight
    ok &= corrected.weight == P("20,17,13").weight
    report_line(8, ok, "all worked-example vectors reproduce; the inconsistent "
                       "conjugate vector is rejected by weight preservation")


def test_criterion_09_involution_to_weight_30():
    families = enumerate_partitions(
        ConstraintSet(weight_min=0, weight_max=30, odd_parts_distinct=True)
    )
    failures = 0
    for p in families:
        image = two_modular_conjugate(p)
        if two_modular_conjugate(image) != p:
            failures += 1
        if image.weight != p.weight or image.odd_count != p.odd_count:
            failures += 1
        if image.length != (p.largest + 1) // 2 or (image.largest + 1) // 2 != p.length:
            failures += 1
    report_line(
        9, failures == 0,
        f"conjugation is an involution with the statistic exchange on all "
        f"{len(families)} odd-distinct partitions of weight <= 30",
    )


def test_criterion_10_determinism_across_processes():
    in_process = {
        ("verify", "--identity", "thm1_1", "--amax", "4", "--bmax", "4", "--tmax", "4",
         "--qmax", "12"): verification_report_to_dict(
            run_case("thm1_1", "formal", profile=TruncationProfile(4, 4, 4, 12))
        ),
        ("audit", "--j", "2", "--M", "2"): audit_report_to_dict(
            audit_bijection(BijectionBox(2, 2))
        ),
    }
    src = str(Path(qsid.__file__).resolve().parents[1])
    ok = True
    for argv, report in in_process.items():
        expected = report_json(strip_volatile(report))
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-m", "qsid", *argv, "--format", "json"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            ok = ok and json.dumps(strip_volatile(json.loads(out)), indent=2) == expected
    report_line(
        10, ok,
        "non-volatile report sections byte-identical in-process and in two "
        "processes with PYTHONHASHSEED 1 and 2",
    )
