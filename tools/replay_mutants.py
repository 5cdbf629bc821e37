"""Replay the mutation ledger: each listed mutant must be killed by its named test.

A mutant is one textual edit of one line of ``src/``.  For each entry of
``LEDGER`` this script copies ``src/`` to a temporary directory, replaces
the line there (refusing if the line text is not found exactly once), and
runs the entry's killing test node against the copy; that run must fail.
The same node must pass against the unmutated tree.

Run from anywhere, stdlib only (pytest must be importable):

    python tools/replay_mutants.py

Exit status 0 when every mutant is killed and every killer passes
unmutated, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    line: str  # the exact line text, indentation included
    mutated: str  # what the line becomes
    killer: str  # pytest node id that must fail against the mutant


_COMPARE = "        if wide_x.rows.get(k, 0) == wide_y.rows.get(k, 0):"
_COMPARE_KILLER = (
    "tests/test_series.py::"
    "test_compare_reports_a_row_on_one_side_only_that_packs_to_plus_or_minus_one"
)
_F_TERM = "        fac = [Factor(first, k1 * (n - k) + k2 * k, True) for k in range(n + 1)]"
_STEPPED = "tests/test_stepped_sums.py::"
_EQ22_PREFACTOR = (
    "    term.step(pochhammer_factors(1, 1, N) + pochhammer_factors(c_ab, 0, N, inverted=True))"
)
_PRODUCT_PREFACTOR = "        + pochhammer_factors(t, 0, None, inverted=True, cap_q=cap_q)"
_DOUBLING = "tests/test_series.py::test_q_division_by_doubling_matches_the_product"
_INT_FILL = "            texts = [template % (a, b, t, q, x, y) for q, a, b, t, x, y in value.rows]"
_SHIFT_ADD = "tests/test_series.py::test_shift_add_moves_cuts_merges_and_bounds_each_row"
_SUBSTITUTE_CUT = "        x = _cut(_respace(v, width, k * width), width * (cap_q + 1))"
_REFUSAL = "tests/test_cli.py::test_map_precondition_failure_names_it[inverse "
_MIDDLE_BOUNDS = "    if lam_largest > 2 * M or lam_length > 2 * j:"
_CAUGHT = "tests/test_bijections.py::test_each_audit_check_catches_its_faulty_map["
_BY_NAME = "tests/test_cli.py::test_verify_refuses_a_parameter_out_of_range_by_name"
_HALF_CAP = "    base = build_thm11_side(replace(profile, cap_q=profile.cap_q // 2))"
_DIVISION = "tests/test_rational.py::test_division_pass_matches_sparse_reference"
_GRADED = (
    "tests/test_identities.py::test_graded_builders_match_the_per_summand_loops[(3, 3, 3, 10)]"
)

LEDGER = [
    # compare_series: a row missing on one side must read as 0, not as a packed +-1
    *(
        Mutant("src/qsid/series.py", _COMPARE, _COMPARE.replace(old, new), _COMPARE_KILLER)
        for old, new in (
            ("wide_x.rows.get(k, 0)", "wide_x.rows.get(k, 1)"),
            ("wide_x.rows.get(k, 0)", "wide_x.rows.get(k, -1)"),
            ("wide_y.rows.get(k, 0)", "wide_y.rows.get(k, 1)"),
            ("wide_y.rows.get(k, 0)", "wide_y.rows.get(k, -1)"),
        )
    ),
    # _shift_add: a merged row's bound adds both bounds ...
    Mutant(
        "src/qsid/series.py",
        "            ob[nk] += mag * yb[k]",
        "            ob[nk] = mag * yb[k]",
        _SHIFT_ADD,
    ),
    # ... a row moved past cap_t drops out ...
    Mutant(
        "src/qsid/series.py",
        "        if a > ca or b > cb or t > ct:",
        "        if a > ca or b > cb:",
        _SHIFT_ADD,
    ),
    # ... and a row landing on a stored one adds in with its sign
    Mutant(
        "src/qsid/series.py",
        "        elif v := prev + c * v:",
        "        elif v := prev + -v:",
        _SHIFT_ADD,
    ),
    # substitute_q_power: q -> q^0 is refused ...
    Mutant(
        "src/qsid/series.py",
        "    if not isinstance(k, int) or k < 1:",
        "    if not isinstance(k, int) or k < 0:",
        "tests/test_series.py::test_substitute_rejects_power_zero",
    ),
    # ... and each image is cut past cap_q, not past cap_q + 1
    Mutant(
        "src/qsid/series.py",
        _SUBSTITUTE_CUT,
        _SUBSTITUTE_CUT.replace("(cap_q + 1)", "(cap_q + 2)"),
        "tests/test_series.py::test_substitution_keeps_every_row_below_the_cut_bit",
    ),
    # _f_rational: an exponent edit that keeps f(alpha, beta) symmetric
    Mutant(
        "src/qsid/identities.py",
        _F_TERM,
        _F_TERM.replace("k1 * (n - k)", "k1 * (n + k)"),
        "tests/test_identities.py::test_f_sym_rational_left_side_matches_the_closed_form",
    ),
    # a parameter out of range is refused by name, before the kernel meets
    # it: q^0 as an f_sym base (then a ZeroDivisionError), b = 1 in a chain
    # case (then the kernel's refusal of its factor (1 - b))
    *(
        Mutant("src/qsid/identities.py", line, mutated, _BY_NAME)
        for line, mutated in (
            ("    if k1 < 1 or k2 < 1:", "    if k1 < 0 or k2 < 0:"),
            ("    if run.assign.b == 1:", "    if False:"),
        )
    ),
    # a prefactor stepped into summand 0 must refuse on its own, under its own label
    Mutant(
        "src/qsid/identities.py",
        '    term.value("rewrite prefactor")',
        "    pass",
        _STEPPED + "test_terminating_sums_refuse_as_their_references[eq22_without_qn]",
    ),
    Mutant(
        "src/qsid/identities.py",
        '    term.value("product-form prefactor")',
        "    pass",
        _STEPPED + "test_chain_sums_refuse_as_their_references[product_form]",
    ),
    # ... and must step by its factor list as printed
    Mutant(
        "src/qsid/identities.py",
        _EQ22_PREFACTOR,
        _EQ22_PREFACTOR.replace("(c_ab, 0, N,", "(c_ab, 1, N,"),
        _STEPPED + "test_terminating_sums_match_their_summand_references[eq22_without_qn]",
    ),
    Mutant(
        "src/qsid/identities.py",
        _PRODUCT_PREFACTOR,
        _PRODUCT_PREFACTOR.replace("(t, 0,", "(t, 1,"),
        _STEPPED + "test_chain_sums_match_their_summand_references[product_form]",
    ),
    # _divide_q: the doubling must run until the sum holds every term j <= J ...
    Mutant(
        "src/qsid/series.py",
        "        while n <= J:",
        "        while n < J:",
        _DOUBLING,
    ),
    # ... stepping by c^n (for c = +-1, p * c and p * p agree; the test has |c| >= 2)
    Mutant(
        "src/qsid/series.py",
        "            p, n = p * p, 2 * n",
        "            p, n = p * c, 2 * n",
        _DOUBLING,
    ),
    # over_binomial: the window is scaled once by d^J, no lower ...
    Mutant(
        "src/qsid/rational.py",
        "    power = d ** ((n - 1) // m)",
        "    power = d ** ((n - 1) // m - 1)",
        _DIVISION,
    ),
    # ... and each carried term is divided by d
    Mutant(
        "src/qsid/rational.py",
        "        c[i] += p * (c[i - m] // d)",
        "        c[i] += p * c[i - m]",
        _DIVISION,
    ),
    # graded sums: each summand is written at its own power of t ...
    Mutant(
        "src/qsid/identities.py",
        "            yield n + 1, term",
        "            yield n, term",
        _GRADED,
    ),
    # ... the right sides write b^cap_b, the last stratum the caps keep ...
    Mutant(
        "src/qsid/identities.py",
        "    while n <= profile.cap_b and not term.is_zero():",
        "    while n < profile.cap_b and not term.is_zero():",
        _GRADED,
    ),
    # ... with the leading minus folded into each stratum ...
    Mutant(
        "src/qsid/identities.py",
        "        return TruncatedSeries._stacked(profile, 1, strata, -1)",
        "        return TruncatedSeries._stacked(profile, 1, strata, 1)",
        _GRADED,
    ),
    # ... and the writer places a stratum on the axis it is asked for
    Mutant(
        "src/qsid/series.py",
        "            if axis == 1:",
        "            if axis == 2:",
        _GRADED,
    ),
    # the writer streams a family block by block, each two apart by the separator ...
    Mutant(
        "src/qsid/partitions.py",
        "                yield between",
        "                pass",
        "tests/test_partitions.py::test_block_writer_cases_are_reached["
        "past the cut with the empty partition]",
    ),
    # ... and ends every report with its newline
    Mutant(
        "src/qsid/cli.py",
        '            out.write("\\n")',
        "            pass",
        "tests/test_golden.py::test_golden_invocation[enumerate_weight_12_text]",
    ),
    # the substitution path builds the flagship to cap_q // 2, no lower
    Mutant(
        "src/qsid/identities.py",
        _HALF_CAP,
        _HALF_CAP.replace("cap_q // 2", "cap_q // 2 - 1"),
        "tests/test_identities.py::"
        "test_eq31_substitution_path_at_half_cap_q_matches_the_full_cap_build[(12, 12, 12, 64)]",
    ),
    # the one dict writer puts its separator between fields ...
    Mutant(
        "src/qsid/cli.py",
        '        lead = "," + inner',
        "        lead = inner",
        "tests/test_golden.py::test_golden_invocation[audit_2_3]",
    ),
    # ... and writes an empty dict (an empty caps or details here) as {}
    Mutant(
        "src/qsid/cli.py",
        '    yield nl + "}" if value else "{}"',
        '    yield nl + "}" if value else "[]"',
        "tests/test_cli.py::test_table_over_a_denominator_is_written_reduced",
    ),
    # the mismatch table's int fill writes lhs, then rhs
    Mutant(
        "src/qsid/cli.py",
        _INT_FILL,
        _INT_FILL.replace("(a, b, t, q, x, y) for", "(a, b, t, q, y, x) for"),
        "tests/test_cli.py::test_thm34_table_at_the_heavy_caps_is_written_as_from_fractions",
    ),
    # the rational side memo keeps sides for reuse, and no more than 64
    *(
        Mutant("src/qsid/identities.py", "@lru_cache(maxsize=64)", mutated,
               "tests/test_identities.py::" + killer)
        for mutated, killer in (
            ("@lru_cache(maxsize=0)", "test_memoized_sides_give_the_reports_of_cold_builds"),
            ("@lru_cache(maxsize=None)", "test_the_side_memo_is_bounded"),
        )
    ),
    # gamma_inverse: each guard refuses with its own message; loosened, the
    # final round-trip check refuses instead, with another
    *(
        Mutant("src/qsid/bijections.py", line, mutated, _REFUSAL + case + "]")
        for line, mutated, case in (
            ("    if lam and lam[0] > two_m:", "    if lam and lam[0] > two_m + 1:",
             "part above 2M"),
            ("    if len(leftover) > j:", "    if len(leftover) > j + 1:", "remainders"),
            ("    if not preimage.is_odd_distinct():", "    if False:", "odd repeat"),
            ("    if j < 0:", "    if j < -1:", "negative j"),
        )
    ),
    # the audit: each check catches a faulty map that the check one step looser misses
    *(
        Mutant("src/qsid/bijections.py", line, mutated, _CAUGHT + case + "]")
        for line, mutated, case in (
            (_MIDDLE_BOUNDS, _MIDDLE_BOUNDS.replace("2 * j", "2 * j + 1"), "extra marker 2M"),
            (_MIDDLE_BOUNDS, _MIDDLE_BOUNDS.replace("2 * M", "2 * M + 1"), "marker 2M + 1"),
            ("        (lam_largest + 1) // 2, lam_length, lam_grade",
             "        (lam_largest + 1) // 2, lam_length, image_grade",
             "conjugate last part + 2"),
            ("            middle_equals_domain=self.middle == self.domain,",
             "            middle_equals_domain=True,", "extra part 2"),
        )
    ),
]


def mutate(text: str, line: str, mutated: str) -> str:
    """``text`` with its one line equal to ``line`` replaced by ``mutated``."""
    lines = text.split("\n")
    hits = [i for i, have in enumerate(lines) if have == line]
    if len(hits) != 1:
        raise ValueError(f"line found {len(hits)} times, not once: {line.strip()!r}")
    lines[hits[0]] = mutated
    return "\n".join(lines)


def run_node(node: str, src: Path) -> Optional[int]:
    """Exit status of pytest on ``node`` with ``src`` first on the path (None: timed out)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def replay(mutant: Mutant) -> str:
    """'' when the killer fails against the mutant, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="qsid-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy)
        target = Path(tmp) / mutant.path
        try:
            target.write_text(mutate(target.read_text(), mutant.line, mutant.mutated))
        except ValueError as exc:
            return str(exc)
        code = run_node(mutant.killer, copy)
    if code is None:
        return f"killer timed out after {TIMEOUT_S} s"
    if code == 0:
        return "survived: the killer passes against the mutant"
    if code != 1:  # 2-5: interrupted, internal or usage error, nothing collected
        return f"killer did not run to a failure (pytest exit {code})"
    return ""


def main() -> int:
    problems = 0
    for node in dict.fromkeys(m.killer for m in LEDGER):
        code = run_node(node, ROOT / "src")
        if code != 0:
            problems += 1
            print(f"FAIL  {node} does not pass unmutated (pytest exit {code})")
    for mutant in LEDGER:
        where = f"{mutant.path}: {mutant.line.strip()} -> {mutant.mutated.strip()}"
        problem = replay(mutant)
        problems += bool(problem)
        print(f"FAIL  {where}: {problem}" if problem else f"ok    {where}")
    print(f"{len(LEDGER)} mutants, {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
