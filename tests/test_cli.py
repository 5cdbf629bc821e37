"""Command-line interface: exit codes, output formats, report encoders, the error path."""

import dataclasses
import errno
import hashlib
from decimal import Decimal
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsid
from qsid import cli
from qsid.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    audit_report_to_dict,
    build_parser,
    main,
    parse_monomial,
    report_json,
    verification_report_to_dict,
)
from qsid import bijections, identities, partitions
from qsid.bijections import BijectionBox, audit_bijection
from qsid.partitions import Partition, count_partitions
from qsid.identities import MismatchTable, VerificationReport, build_thm31_side, run_case
from qsid.rational import RationalAssignment
from qsid.series import Monomial, SeriesError, TruncatedSeries, TruncationProfile


def strip_volatile(d):
    """Copy of a report dict without the volatile section (for diffing)."""
    return {k: v for k, v in d.items() if k != "volatile"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ monomials


def test_parse_monomial():
    assert parse_monomial("a1b1t1q2") == Monomial(1, 1, 1, 2)
    assert parse_monomial("q5") == Monomial(0, 0, 0, 5)
    assert parse_monomial("") == Monomial(0, 0, 0, 0)
    with pytest.raises(SeriesError):
        parse_monomial("z3")
    with pytest.raises(SeriesError):
        parse_monomial("a1 b2")


# --------------------------------------------------------------------- verify


def test_verify_flagship_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "thm1_1",
        "--qmax", "12", "--bmax", "4", "--tmax", "4", "--amax", "4",
        "--mode", "formal", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "verified"
    assert payload["caps"] == {"a": 4, "b": 4, "t": 4, "q": 12}
    assert payload["mismatches"] == []
    assert "duration_ms" in payload["volatile"]


def test_verify_adjudicated_case_exits_mismatch(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "thm3_4",
        "--amax", "3", "--bmax", "3", "--tmax", "0", "--qmax", "8",
        "--format", "json",
    )
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    assert payload["mismatches"][0]["monomial"] == {"a": 0, "b": 1, "t": 0, "q": 0}


def test_verify_mode_not_supported(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "eq2_3", "--mode", "formal")
    assert code == EXIT_USAGE
    assert "rational" in err


def test_verify_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "nope")
    assert code == EXIT_USAGE
    assert "unknown identity" in err


def test_verify_rational_requires_assignment(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "eq2_3")
    assert code == EXIT_USAGE
    assert "missing required parameter" in err


@pytest.mark.parametrize("identity", ["qps_2_1", "rewrite_2_2"])
def test_verify_balanced_sum_rejects_zero_c(capsys, identity):
    code, _, err = run_cli(
        capsys, "verify", "--identity", identity,
        "--a=2", "--b=1/3", "--c=0", "--N", "2", "--qmax", "6",
    )
    assert code == EXIT_USAGE
    assert err == "error: parameter c must be nonzero (a*b/c appears)\n"


@pytest.mark.parametrize("identity", ["qps_2_1", "rewrite_2_2"])
@pytest.mark.parametrize("N", ["0", "2"])
def test_verify_balanced_sum_rejects_c_one(capsys, identity, N):
    # (c; q)_n vanishes from n = 1 on; at N = 0 only qps_2_1's next-summand detail reaches it
    code, out, err = run_cli(
        capsys, "verify", "--identity", identity, "--a", "2", "--b", "3", "--c", "1", "--N", N,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: parameter c must differ from 1 ((c; q)_n vanishes)\n"


@pytest.mark.parametrize("identity", ["qps_2_1", "rewrite_2_2"])
def test_verify_balanced_sum_refuses_zero_over_zero(capsys, identity):
    # a = 1, c/(a*b) = 1: (a; q)_1 / (a*b/c * q^(1-N); q)_1 is 0/0 at n = 1
    code, out, err = run_cli(
        capsys, "verify", "--identity", identity, "--a", "1", "--b", "2", "--c", "2", "--N", "1",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: denominator factor (1 - v) with v = 1 over a vanishing "
                          "numerator factor (0/0)")


_ZERO_OVER_ZERO = "denominator factor (1 - v) with v = 1 over a vanishing numerator factor (0/0)"


@pytest.mark.parametrize(
    "argv, message",
    [
        # (a; q)_n vanishes from step 1 on, (a*b/c * q^(1-N); q)_n from term 3 on
        (["qps_2_1", "--a", "1", "--b", "2", "--c", "2", "--N", "3"],
         f"{_ZERO_OVER_ZERO} in balanced-sum term n=3"),
        (["rewrite_2_2", "--a", "1", "--b", "2", "--c", "2", "--N", "3"],
         f"{_ZERO_OVER_ZERO} in balanced-sum term n=3"),
        (["rewrite_2_2", "--a", "2", "--b", "3", "--c", "6", "--N", "2"],
         "denominator factor (1 - v) with v = 1 in balanced-sum term n=2"),
        (["eq2_3", "--a", "1", "--b", "1", "--N", "2"],
         "denominator factor (1 - v) with v = 1 in specialized term n=0"),
        # a*b/c = 0: no flipped denominator factor offsets the q^-2 of (q^-2; q)_1
        (["qps_2_1", "--a", "0", "--b", "2", "--c", "3", "--N", "2"],
         "product has a pole of order 1 at q = 0 in balanced-sum term n=1"),
    ],
)
def test_stepped_sum_refusals_keep_their_summand(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "--identity", *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("identity, appears", [("qps_2_1", "c/{}"), ("rewrite_2_2", "c/(a*b)")])
@pytest.mark.parametrize("params, zero", [(["--a", "1", "--b", "0"], "b"), (["--a", "0", "--b", "2"], "a")])
def test_product_sides_refuse_a_zero_divisor(capsys, identity, appears, params, zero):
    # at N = 1 the sum side builds, so the product side, which divides c by
    # a and b, meets the zero first: a usage error, not a ZeroDivisionError
    code, out, err = run_cli(capsys, "verify", "--identity", identity, *params, "--c", "3", "--N", "1")
    message = f"parameter {zero} must be nonzero ({appears.format(zero)} appears)"
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    # each base must be q^k with k >= 1: at k = 0 the closed-form tail divides by 1 - q^0
    (["f_sym", "--mode", "rational", "--alpha", "1/2", "--beta", "1/3", "--k1", "0", "--k2", "1"],
     "x_exp and y_exp must be >= 1, got 0, 1"),
    (["f_sym", "--mode", "rational", "--alpha", "1/2", "--beta", "1/3", "--k1", "2", "--k2", "0"],
     "x_exp and y_exp must be >= 1, got 2, 0"),
    *((["chain_" + step, "--a", "2", "--b", b, "--t", t], f"parameter {name} must differ from 1 "
       f"(1 - {name} divides)")
      for step in ("shift", "fine", "final")
      for name, b, t in (("b", "1", "1/5"), ("t", "2/3", "1"))),
    (["eq2_3", "--a", "2", "--b", "1/3", "--N=-1"], "N must be >= 0, got -1"),
    (["qps_2_1", "--a", "2", "--b", "1/3", "--c", "1/5", "--N=-2"], "N must be >= 0, got -2"),
])
def test_verify_refuses_a_parameter_out_of_range_by_name(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "--identity", *argv, "--qmax", "5")
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--identity", "thm1_1", "--workers", "2"],
        ["audit", "--j", "1", "--M", "2", "--variant", "printed"],
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_rational_case(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "eq2_3", "--mode", "rational",
        "--a", "2", "--b", "1/3", "--N", "2", "--qmax", "10",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["assignment"] == {"a": "2", "b": "1/3", "N": "2"}
    assert payload["status"] == "verified"


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "thm3_5",
        "--amax", "0", "--bmax", "3", "--tmax", "0", "--qmax", "10",
        "--format", "json", "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["status"] == "verified"


@pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                           ("directory", "Is a directory")])
def test_verify_output_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, where, reason):
    # the report is built, then refused by the path: exit 2, not the mismatch code
    target = tmp_path / "nonexistent" / "x.json" if where == "missing" else tmp_path
    code, out, err = run_cli(
        capsys,
        "verify", "--identity", "thm3_5",
        "--amax", "0", "--bmax", "2", "--tmax", "0", "--qmax", "4", "--output", str(target),
    )
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: cannot write report to {target}: {reason}\n"


def test_verify_to_a_stdout_that_cannot_be_written_is_a_usage_error(capsys, monkeypatch):
    class Full(StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["verify", "--identity", "thm3_5", "--amax", "0", "--bmax", "2", "--tmax", "0",
                 "--qmax", "4"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: cannot write report to stdout: No space left on device\n"
    )


# ---------------------------------------------------------------------- audit


def test_audit_exit_ok_and_fields(capsys):
    code, out, _ = run_cli(capsys, "audit", "--j", "1", "--M", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["exact"]["genpoly_equal"] is True
    adds = payload["le_adds_codomain"]
    assert [(row["monomial"]["a"], row["monomial"]["q"]) for row in adds] == [
        (0, 0), (0, 2), (1, 3), (0, 4),
    ]


def test_audit_printed_variant_is_informational(capsys):
    # printed-variant findings never gate the exit code
    code, out, _ = run_cli(
        capsys, "audit", "--j", "1", "--M", "2", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["printed"]["genpoly_equal"] is False
    assert payload["passed"] is True


def test_audit_rejects_bad_box(capsys):
    code, _, err = run_cli(capsys, "audit", "--j", "0", "--M", "2")
    assert code == EXIT_USAGE
    assert "j and M" in err


def test_audit_includes_example_vectors(capsys):
    code, out, _ = run_cli(capsys, "audit", "--j", "3", "--M", "5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["exact"]["domain_size"] == 231
    assert payload["exact"]["injective"] and payload["exact"]["surjective"]


def _graded_dicts(rows, *names):
    """Graded rows ((i, k), *values) as the dicts the report writes for them."""
    return [{"monomial": {"a": i, "q": k}, **dict(zip(names, values))}
            for (i, k), *values in rows]


def _section_reference(audit):
    """An audit section as dicts and lists alone, as ``dataclasses.asdict``
    gives it with the collisions and graded rows as the report writes them."""
    out = dataclasses.asdict(audit)
    out["collisions"] = [{"image": image, "preimages": preimages}
                         for image, preimages in audit.collisions]
    out["genpoly_mismatches"] = _graded_dicts(audit.genpoly_mismatches, "domain", "codomain")
    return out


def _audit_reference(report):
    """The audit report's object as dicts and lists alone, built field by
    field from the report: ``json.dumps`` can write it."""
    return {
        "box": {"j": report.j, "M": report.M},
        "passed": report.passed,
        "exact": _section_reference(report.exact),
        "printed": _section_reference(report.printed),
        "printed_genpoly_strict_empty": {
            "equal": report.printed_genpoly_strict_equal,
            "mismatches": _graded_dicts(
                report.printed_genpoly_strict_mismatches, "domain", "codomain"),
        },
        "le_adds_domain": _graded_dicts(report.le_adds_domain, "count"),
        "le_adds_codomain": _graded_dicts(report.le_adds_codomain, "count"),
        "enum_limit": report.enum_limit,
        "volatile": {"duration_ms": round(report.duration_ms, 3), "version": qsid.__version__},
    }


# every box the benchmark's partition workload audits
@pytest.mark.parametrize("box", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3), (4, 5), (5, 4)],
                         ids=str)
def test_audit_tables_are_written_as_json_dumps_writes_their_rows(box):
    report = audit_bijection(BijectionBox(*box))
    expected = _audit_reference(report)
    assert report_json(audit_report_to_dict(report)) == json.dumps(expected, indent=2)
    # each box has empty and non-empty two-count tables and a one-count table
    tables = [expected["exact"]["genpoly_mismatches"], expected["printed"]["genpoly_mismatches"]]
    assert [] in tables and any(tables)
    assert expected["le_adds_domain"] + expected["le_adds_codomain"]
    with pytest.raises(TypeError):
        json.dumps(audit_report_to_dict(report))


def test_audit_sections_are_written_as_asdict_would_write_them(monkeypatch):
    # a failing audit, so the tallies hold failures and witnesses
    conjugate = bijections.two_modular_conjugate
    monkeypatch.setattr(bijections, "two_modular_conjugate",
                        lambda lam: Partition(conjugate(lam)[:-1]))
    report = audit_bijection(BijectionBox(2, 3))
    for section in (report.exact, report.printed):
        assert section.codomain_membership.failures
        written = cli._map_audit_dict(section)
        assert report_json(written) == json.dumps(_section_reference(section), indent=2)
        # the tallies' lists are written as they are, not copied first
        assert written["codomain_membership"]["failures"] is section.codomain_membership.failures


def _conjugate_mutants():
    conjugate = bijections.two_modular_conjugate

    def heavier(lam):  # the conjugate with 2 added to its largest part
        parts = conjugate(lam).parts
        return Partition((parts[0] + 2, *parts[1:]) if parts else ())

    return {"heavier": heavier, "one part short": lambda lam: Partition(conjugate(lam)[:-1])}


@pytest.mark.parametrize("mutant", [None, "heavier", "one part short"])
def test_failing_audit_replays_its_witnesses_before_its_verdict(capsys, monkeypatch, mutant):
    if mutant:
        monkeypatch.setattr(bijections, "two_modular_conjugate", _conjugate_mutants()[mutant])
    replays, revalidate = [], bijections.AuditReport.revalidate
    monkeypatch.setattr(bijections.AuditReport, "revalidate",
                        lambda report: replays.append(report) or revalidate(report))
    code, out, err = run_cli(capsys, "audit", "--j", "2", "--M", "3")
    assert err == ""
    if mutant is None:  # a passing audit replays nothing
        assert code == EXIT_OK and out.endswith("result: pass\n") and not replays
    else:
        assert code == EXIT_MISMATCH and out.endswith("result: FAIL\n") and len(replays) == 1


def test_audit_witness_that_does_not_replay_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(bijections, "two_modular_conjugate", _conjugate_mutants()["one part short"])

    def tampered(box, enum_limit=None):
        report = audit_bijection(box, enum_limit)
        failures = report.exact.codomain_membership.failures
        witness, note = failures[0]
        failures[0] = (witness, note + " (edited)")
        return report

    monkeypatch.setattr(cli, "audit_bijection", tampered)
    code, out, err = run_cli(capsys, "audit", "--j", "2", "--M", "3", "--format", "json")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: internal: a failure witness of box j=2, M=3 does not replay\n"


def test_audit_collision_that_does_not_replay_is_an_internal_error(capsys, monkeypatch):
    # a conjugate cut to its first two parts collides; one preimage of the
    # first collision is then swapped for a member whose image differs
    conjugate = bijections.two_modular_conjugate
    monkeypatch.setattr(bijections, "two_modular_conjugate", lambda lam: Partition(conjugate(lam)[:2]))
    replayed = []

    def tampered(box, enum_limit=None):
        report = audit_bijection(box, enum_limit)
        assert report.revalidate()
        image, preimages = report.exact.collisions[0]
        stranger = next(p for p in ("12,12", "12,6") if p not in preimages)
        report.exact.collisions[0] = (image, [*preimages[:-1], stranger])
        replayed.append(report)
        return report

    monkeypatch.setattr(cli, "audit_bijection", tampered)
    code, out, err = run_cli(capsys, "audit", "--j", "2", "--M", "3")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: internal: a failure witness of box j=2, M=3 does not replay\n"
    assert not replayed[0].revalidate()


def test_audit_of_a_gamma_the_inverse_refuses_reports_fail(capsys, monkeypatch):
    # markers 2M + 2: gamma_inverse refuses every marked form, a round-trip
    # failure of the audit, not a usage error
    def markers_too_big(p, M):
        marked = [x - 2 * M for x in p if x > 2 * M] + [2 * M + 2] * len(p)
        return Partition(sorted(marked, reverse=True))

    monkeypatch.setattr(bijections, "gamma", markers_too_big)
    code, out, err = run_cli(capsys, "audit", "--j", "2", "--M", "3")
    assert (code, err) == (EXIT_MISMATCH, "")
    assert "  inverse roundtrip:   0/25\n" in out and out.endswith("result: FAIL\n")


# ------------------------------------------------------------------ enumerate


def test_enumerate_weight5(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--weight", "5", "--odd-distinct")
    assert code == EXIT_OK
    assert out.splitlines() == ["5", "4,1", "3,2", "2,2,1"]


def test_enumerate_weight0_marker(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--weight", "0")
    assert code == EXIT_OK
    assert out.strip() == "()"


def test_enumerate_window(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--length", "2", "--min-part", "2", "--max-part", "4",
        "--odd-distinct",
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5


def test_enumerate_unbounded(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--min-part", "2")
    assert code == EXIT_USAGE
    assert "weight bound" in err


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--weight", "5", "--odd-distinct", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["partitions"][0] == [5]


def test_enumerate_into_a_pipe_closed_early_exits_with_its_own_code():
    # as ``qsid enumerate ... | head -1``: the reader stops after one line of
    # a report (400 kB) far larger than the pipe holds, so the write fails
    env = {**os.environ, "PYTHONPATH": str(Path(qsid.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "qsid", "enumerate", "--weight", "40", "--odd-distinct",
         "--format", "json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=30) == EXIT_OK
    finally:
        child.kill()
        child.wait()
    assert err == b""


def test_the_largest_enumerate_is_written_without_the_whole_report_in_memory(tmp_path):
    # the 2.5 MB report goes out block by block: neither the family's text
    # nor the report's is ever one string, so the peak stays below its size
    path = tmp_path / "enumerate_40.json"
    argv = ["enumerate", "--odd-distinct", "--max-weight", "40", "--format", "json",
            "--output", str(path)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(path.read_text())["count"] == 33772
    assert peak < path.stat().st_size


_STREAMED = {
    "enumerate json": ["enumerate", "--odd-distinct", "--max-weight", "40", "--format", "json"],
    "enumerate text": ["enumerate", "--odd-distinct", "--max-weight", "40"],
    "thm3_4 json": ["verify", "--identity", "thm3_4", "--amax", "12", "--bmax", "12",
                    "--tmax", "12", "--qmax", "88", "--format", "json"],
}


@pytest.mark.parametrize("argv", _STREAMED.values(), ids=_STREAMED)
def test_stdout_and_output_get_the_same_bytes(argv, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(qsid.__file__).resolve().parents[1])}
    path = tmp_path / "report"
    runs = [
        subprocess.run([sys.executable, "-m", "qsid", *argv, *extra], env=env,
                       capture_output=True, timeout=60)
        for extra in ([], ["--output", str(path)])
    ]
    assert runs[0].returncode == runs[1].returncode
    assert (runs[0].stderr, runs[1].stderr, runs[1].stdout) == (b"", b"", b"")
    # the durations differ from run to run; no other byte does
    duration = re.compile(rb'"duration_ms": [0-9.e+-]+')
    out, written = (duration.sub(b"", text) for text in (runs[0].stdout, path.read_bytes()))
    assert out == written
    assert len(out) > 100_000 and out.endswith(b"\n")


# ------------------------------------------------------------------------ map


def test_map_composition_vector(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--op", "gamma-sigma", "--M", "5",
        "--partition", "20,13,12,12,10",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "18,13,12,12,12"


def test_map_sigma_vector(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--op", "sigma", "--partition", "12,12,12,8,5,1"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "11,10,9,8,6,6"


def test_map_gamma_trivial(capsys):
    code, out, _ = run_cli(capsys, "map", "--op", "gamma", "--M", "1", "--partition", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "2"


def test_map_gamma_inverse(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--op", "gamma-inverse", "--j", "3", "--M", "5",
        "--partition", "10,10,10,10,7,3",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "20,17,13"


@pytest.mark.parametrize("argv, message", [
    ("gamma --M 5 --partition 9", "every part must be >= 10 in 9"),
    # each gamma_inverse guard refuses on its own: loosened, the final
    # round-trip check would refuse with another message
    ("gamma-inverse --j 1 --M 1 --partition 3,2", "every part must be <= 2 in 3,2"),
    ("gamma-inverse --j 1 --M 2 --partition 4,3,1",
     "4,3,1 keeps 2 remainders after removing 1 markers; at most 1 allowed"),
    ("gamma-inverse --j 2 --M 2 --partition 4,4,1,1",
     "4,4,1,1 is not in the image: odd parts would repeat"),
    ("gamma-inverse --j -1 --M 1 --partition 2", "j must be >= 0, got -1"),
    ("gamma-inverse --M 3 --partition 6,6", "--M and --j are required for gamma-inverse"),
    ("gamma-inverse --j 2 --partition 6,6", "--M and --j are required for gamma-inverse"),
], ids=["gamma", "inverse part above 2M", "inverse remainders", "inverse odd repeat",
        "inverse negative j", "inverse without j", "inverse without M"])
def test_map_precondition_failure_names_it(capsys, argv, message):
    code, out, err = run_cli(capsys, "map", "--op", *argv.split())
    assert code == EXIT_USAGE
    assert (out, err) == ("", f"error: {message}\n")


def test_map_missing_parameter(capsys):
    code, _, err = run_cli(capsys, "map", "--op", "gamma", "--partition", "4")
    assert code == EXIT_USAGE
    assert "--M" in err


def test_map_json_reports_preservation(capsys):
    code, out, _ = run_cli(
        capsys, "map", "--op", "gamma-sigma", "--M", "5",
        "--partition", "20,17,13", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["output"] == [12, 11, 10, 9, 8]
    assert payload["preserved"] == {"weight": True, "odd": True}


# ---------------------------------------------------------------------- coeff


def test_coeff_flagship(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--side", "thm1_1:left", "--monomial", "a1b1t1q2"
    )
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_coeff_geometric_stratum(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--side", "thm1_1:left", "--monomial", "b3t0q0"
    )
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_coeff_companion_series(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--side", "thm3_5:left", "--monomial", "b1q2"
    )
    assert code == EXIT_OK
    assert out.strip() == "1"


@pytest.mark.parametrize(
    "side, monomial, value",
    [
        ("thm1_1:right", "b2t3q8", "2"),
        ("thm1_1:right", "a1b2t3q9", "3"),
        ("f_sym:right", "b2t3q9", "2"),
        ("eq3_1:right", "a1b1t4q9", "1"),
    ],
)
def test_coeff_right_side_with_unequal_bt_caps(capsys, side, monomial, value):
    # a right side is the reflection of a left side built with cap_b and
    # cap_t exchanged, so it answers on the requested caps
    code, out, _ = run_cli(
        capsys, "coeff", "--side", side, "--monomial", monomial,
        "--amax", "2", "--bmax", "2", "--tmax", "4", "--qmax", "9",
    )
    assert code == EXIT_OK
    assert out.strip() == value


def test_coeff_out_of_validity(capsys):
    code, _, err = run_cli(
        capsys, "coeff", "--side", "thm1_1:left", "--monomial", "q30"
    )
    assert code == EXIT_USAGE
    assert "outside" in err or "beyond" in err


def test_coeff_unknown_side(capsys):
    code, _, err = run_cli(capsys, "coeff", "--side", "thm9:left", "--monomial", "q1")
    assert code == EXIT_USAGE
    assert "unknown side" in err


# ------------------------------------------------------------- report encoders


def test_report_encoders_match_cli_reports(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--identity", "thm3_5",
        "--amax", "0", "--bmax", "4", "--tmax", "0", "--qmax", "12",
        "--format", "json",
    )
    assert code == EXIT_OK
    report = run_case("thm3_5", "formal", profile=TruncationProfile(0, 4, 0, 12))
    # the dict carries the report's mismatch table, which report_json writes
    encoded = json.loads(report_json(verification_report_to_dict(report)))
    assert strip_volatile(encoded) == strip_volatile(json.loads(out))

    code, out, _ = run_cli(capsys, "audit", "--j", "1", "--M", "2", "--format", "json")
    assert code == EXIT_OK
    encoded = json.loads(report_json(audit_report_to_dict(audit_bijection(BijectionBox(1, 2)))))
    assert strip_volatile(encoded) == strip_volatile(json.loads(out))


def test_rational_assignment_encodes_as_exact_strings():
    report = run_case(
        "qps_2_1",
        "rational",
        assign=RationalAssignment.make(a=2, b=3, c=5, N=1),
        cap_q=10,
    )
    payload = verification_report_to_dict(report)
    assert payload["assignment"] == {"a": "2", "b": "3", "c": "5", "N": "1"}
    assert list(payload) == [
        "case", "mode", "caps", "assignment", "status", "mismatches", "details", "volatile",
    ]


# --------------------------------------------------------------------- parser

_SEQUENCE = [
    ["verify", "--identity", "qps_2_1", "--a=2", "--b=1/3", "--c=5", "--N", "2",
     "--qmax", "6", "--format", "json"],
    ["verify", "--qmax", "6"],  # usage error: --identity is required
    ["enumerate", "--weight", "12", "--odd-distinct", "--format", "json"],
]


def _call(argv):
    """Exit code, stdout (volatile section dropped) and stderr of one in-process call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if text.startswith("{"):
        payload = json.loads(text)
        payload.pop("volatile", None)
        text = json.dumps(payload, indent=2)
    return code, text, err.getvalue()


def test_parser_is_built_once_per_process(monkeypatch):
    assert build_parser() is build_parser()
    in_turn = [_call(argv) for argv in _SEQUENCE]
    fresh = []
    for argv in _SEQUENCE:
        build_parser.cache_clear()
        fresh.append(_call(argv))
    assert in_turn == fresh
    assert [code for code, _, _ in in_turn] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert "the following arguments are required: --identity" in in_turn[1][2]
    assert json.loads(in_turn[2][1])["count"] == 28
    # the cached parser names the command; main finds cmd_* when it is called
    calls = []
    verify = cli.cmd_verify
    monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.identity) or verify(args))
    assert _call(_SEQUENCE[0]) == in_turn[0]
    assert calls == ["qps_2_1"]


# ------------------------------------------------------------------ error path

# One configuration error per command: main alone prints ``error: ...`` and
# exits 2, before any report is produced in either format.
_CONFIG_ERRORS = {
    "verify": (["verify", "--identity", "eq2_3"], "missing required parameter"),
    "audit": (["audit", "--j", "0", "--M", "2"], "j and M"),
    "enumerate": (["enumerate", "--min-part", "2"], "weight bound"),
    "map": (["map", "--op", "gamma", "--partition", "4"], "--M is required for gamma"),
    "coeff": (["coeff", "--side", "thm1_1:left", "--monomial", "q30"], "q^30"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(_CONFIG_ERRORS))
def test_configuration_error_writes_nothing(tmp_path, capsys, command, fmt):
    argv, reason = _CONFIG_ERRORS[command]
    target = tmp_path / "report.out"
    code, out, err = run_cli(capsys, *argv, "--format", fmt, "--output", str(target))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and reason in err
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--identity", "nope"], "unknown identity 'nope'; known: "),
        (["coeff", "--side", "thm9:left", "--monomial", "q1"], "unknown side 'thm9:left'; known: "),
    ],
)
def test_unknown_names_have_no_error_prefix(tmp_path, capsys, argv, message):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, *argv, "--format", "json", "--output", str(target))
    assert code == EXIT_USAGE
    assert err.startswith(message) and err.endswith("\n")
    assert out == ""
    assert not target.exists()


def test_enumerate_refuses_over_limit_before_listing(tmp_path):
    # listing this family would not finish; the count refuses it at once
    target = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(qsid.__file__).resolve().parents[1])}
    env.pop("QSID_ENUM_LIMIT", None)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "qsid", "enumerate", "--weight", "200", "--odd-distinct",
         "--format", "json", "--output", str(target)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert time.perf_counter() - started < 2.0
    assert done.returncode == EXIT_USAGE
    assert done.stderr == (
        "error: the constraints enumerate 37334688015 partitions, over the limit 200000\n"
    )
    assert done.stdout == "" and not target.exists()


def test_enumerate_count_cost_does_not_follow_the_part_range(capsys, monkeypatch):
    monkeypatch.delenv("QSID_ENUM_LIMIT", raising=False)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "enumerate", "--max-part", "100000000", "--max-length", "2")
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err == (
        "error: the constraints enumerate 5000000150000001 partitions, over the limit 200000\n"
    )


def test_enumerate_count_with_a_long_length_bound_refuses_quickly(capsys, monkeypatch):
    # the count sums about 2000 terms of up to 10,000 digits, each stepped
    # from the one before; the digest pins the 10,333-byte message that the
    # same sum gave with every term a product of math.comb calls
    monkeypatch.delenv("QSID_ENUM_LIMIT", raising=False)
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "enumerate", "--max-part", "100000000", "--max-length", "2000", "--odd-distinct"
    )
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_USAGE and out == ""
    assert len(err) == 10333
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "d2edcb781ae51c19558ffe416ce39ac859a248bdf24962e889a2afddd6dd84a0"
    )


def test_enumerate_refusal_prints_counts_of_any_length(capsys, monkeypatch):
    # C(10^8 + 1000, 1000) + ... has more digits than str() converts by default
    monkeypatch.delenv("QSID_ENUM_LIMIT", raising=False)
    code, out, err = run_cli(capsys, "enumerate", "--max-part", "100000000", "--max-length", "1000")
    head, tail = "error: the constraints enumerate ", " partitions, over the limit 200000\n"
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(head) and err.endswith(tail)
    digits = err[len(head):-len(tail)]
    assert digits.isdigit() and len(digits) > sys.get_int_max_str_digits()


def test_audit_refusal_prints_counts_of_any_length(capsys, monkeypatch):
    # the four families of this box count more digits than str() converts by default
    monkeypatch.delenv("QSID_ENUM_LIMIT", raising=False)
    box = BijectionBox(6000, 6000)
    code, out, err = run_cli(capsys, "audit", "--j", "6000", "--M", "6000")
    head, tail = "error: box j=6000, M=6000 enumerates ", " partitions, over the limit 200000\n"
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(head) and err.endswith(tail)
    digits = err[len(head):-len(tail)]
    total = sum(count_partitions(constraints(variant)) for variant in ("exact", "printed")
                for constraints in (box.domain_constraints, box.codomain_constraints))
    assert len(digits) > sys.get_int_max_str_digits() and digits == str(Decimal(total))


def test_int_text_is_the_decimal_text():
    base = partitions._SPLIT_BITS  # ints of more bits are split
    around = (base - 1, base, base + 1, 2 * base, 2 * base + 1, 5 * base + 3)
    for n in (0, 1, 9, 10, 12345, 2**64 - 1, 2**64, 2**64 + 1, 10**19 - 1, 10**1233 - 1,
              10**1234 - 1, *(2**k + d for k in around for d in (-1, 0, 1)),
              10**5000 - 1, 7**9000):
        assert partitions._int_text(n) == str(Decimal(n)), n.bit_length()


def test_enumerate_limit_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSID_ENUM_LIMIT", "3")
    code, _, err = run_cli(capsys, "enumerate", "--weight", "5", "--odd-distinct")
    assert code == EXIT_USAGE
    assert err == "error: the constraints enumerate 4 partitions, over the limit 3\n"
    monkeypatch.setenv("QSID_ENUM_LIMIT", "4")
    code, out, _ = run_cli(capsys, "enumerate", "--weight", "5", "--odd-distinct")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4
    monkeypatch.setenv("QSID_ENUM_LIMIT", "many")
    for argv in (["enumerate", "--weight", "5"], ["audit", "--j", "1", "--M", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: QSID_ENUM_LIMIT must be an integer, got 'many'\n"


def test_a_negative_enumeration_limit_is_refused_before_counting(capsys, monkeypatch):
    def uncounted(constraints):
        raise AssertionError("counted under a negative limit")

    monkeypatch.setattr(partitions, "count_partitions", uncounted)
    monkeypatch.delenv("QSID_ENUM_LIMIT", raising=False)
    code, out, err = run_cli(capsys, "audit", "--j", "2", "--M", "3", "--limit", "-5")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: the enumeration limit must be >= 0, got -5\n"
    monkeypatch.setenv("QSID_ENUM_LIMIT", "-1")
    for argv in (["enumerate", "--weight", "0"], ["audit", "--j", "2", "--M", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: QSID_ENUM_LIMIT must be >= 0, got '-1'\n"
    # a limit of 0 is a limit: it refuses any partition and lets an empty family through
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "audit", "--j", "2", "--M", "3", "--limit", "0")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: box j=2, M=3 enumerates 127 partitions, over the limit 0\n"
    monkeypatch.setenv("QSID_ENUM_LIMIT", "0")
    code, out, _ = run_cli(capsys, "enumerate", "--weight", "3", "--min-part", "5")
    assert (code, out) == (EXIT_OK, "\n")


def test_verify_with_a_huge_q_cap_finishes(tmp_path):
    # Rows are only as long as their highest q-degree, at most 2*3*3 here,
    # so a q-cap of 10^9 costs nothing; it used to walk every q bucket.
    target = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(qsid.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "qsid", "verify", "--identity", "thm1_1", "--amax", "3",
         "--bmax", "3", "--tmax", "3", "--qmax", "1000000000",
         "--format", "json", "--output", str(target)],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == EXIT_OK, done.stderr
    payload = json.loads(target.read_text())
    assert payload["status"] == "verified"
    assert payload["details"]["joint_valid_to_q"] == 10**9


# -------------------------------------------------------------- the writer

_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 3)), inner, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def _row_lists(draw):
    """Lists of dicts sharing keys, some with a nested dict, as report rows are."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
    sub = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
    leaf = st.one_of(st.integers(), st.text(max_size=4), st.booleans())
    shape = {k: st.fixed_dictionaries({j: leaf for j in sub}) if i == 0 and sub else leaf
             for i, k in enumerate(keys)}
    return draw(st.lists(st.fixed_dictionaries(shape), min_size=1, max_size=5))


@given(st.one_of(_JSON_VALUES, _row_lists(), st.lists(st.lists(st.integers(), max_size=4))))
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(value):
    assert report_json(value) == json.dumps(value, indent=2)
    assert report_json({"rows": value, "n": 1}) == json.dumps({"rows": value, "n": 1}, indent=2)


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "thm3_4", "--amax", "4", "--bmax", "4", "--tmax", "0", "--qmax", "12"],
    ["audit", "--j", "3", "--M", "4"],
    ["map", "--op", "gamma", "--M", "5", "--partition", "20,13,12,12,10"],
    ["coeff", "--side", "thm1_1:left", "--monomial", "a1b1t1q2"],
    ["enumerate", "--max-weight", "9", "--odd-distinct"],
], ids=lambda argv: argv[0])
def test_every_report_is_written_as_json_dumps_writes_it(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code in (EXIT_OK, EXIT_MISMATCH)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# ------------------------------------------------------------ mismatch tables


def _ref_rows(x, y):
    """The term-map comparison of two series: (monomial, x-coeff, y-coeff)
    Fraction rows, as the checker's tables once held them."""
    v = min(x.valid_to_q, y.valid_to_q)
    keys = {m for m in x.terms if m[3] <= v} | {m for m in y.terms if m[3] <= v}
    rows = [(Monomial(*m), Fraction(x.terms.get(m, 0)), Fraction(y.terms.get(m, 0)))
            for m in keys]
    return sorted((r for r in rows if r[1] != r[2]), key=lambda r: r[0].order_key())


def _ref_json(report, rows):
    """The report without its volatile section, written as the writer wrote it
    from Fraction rows: ``json.dumps(indent=2)`` of one dict per row."""
    doc = strip_volatile(verification_report_to_dict(report))
    doc["mismatches"] = [
        {"monomial": {"a": m.e_a, "b": m.e_b, "t": m.e_t, "q": m.e_q},
         "lhs": str(x), "rhs": str(y)}
        for m, x, y in rows
    ]
    return json.dumps(doc, indent=2)


def _fraction_rows(table):
    """A mismatch table's int rows read as (monomial, lhs, rhs) Fraction rows."""
    return [(Monomial(a, b, t, q), Fraction(x, table.den), Fraction(y, table.den))
            for q, a, b, t, x, y in table.rows]


def _ref_text_rows(rows, limit=25):
    return [f"  {m}: lhs={x} rhs={y}" for m, x, y in rows[:limit]]


def _assert_written_as_reference(report, rows):
    assert report_json(strip_volatile(verification_report_to_dict(report))) == _ref_json(
        report, rows)
    text = cli._format_verification_text(report).split("\n")
    if rows:
        assert text[-min(len(rows), 25):] == _ref_text_rows(rows)
        assert text[-min(len(rows), 25) - 1] == f"mismatches ({len(rows)} shown up to 25):"
    else:
        assert not text[-1].startswith("mismatches")


def test_thm34_table_at_the_heavy_caps_is_written_as_from_fractions(capsys):
    prof = TruncationProfile(12, 12, 12, 88)
    report = run_case("thm3_4", profile=prof)
    rows = _ref_rows(build_thm31_side("3_4_left", prof), build_thm31_side("3_4_right", prof))
    assert report.mismatches.den == 1 and len(rows) > 1500
    assert len(report.mismatches) == len(rows) and report.mismatches
    assert _fraction_rows(report.mismatches) == rows
    _assert_written_as_reference(report, rows)
    code, out, _ = run_cli(capsys, "verify", "--identity", "thm3_4", "--amax", "12",
                           "--bmax", "12", "--tmax", "12", "--qmax", "88", "--format", "json")
    assert code == EXIT_MISMATCH and len(json.loads(out)["mismatches"]) == len(rows)


def test_table_over_a_denominator_is_written_reduced():
    # x/6 for x = 2, -3, 6, 0 and 4, -4, -12, -1: 1/3, -1/2, 1, 0, 2/3, -2/3, -2, -1/6
    table = MismatchTable([(0, 0, 0, 0, 2, 0), (1, 1, 0, 0, -3, 4), (2, 0, 1, 1, 6, -4),
                           (3, 2, 2, 2, 0, -12), (3, 2, 2, 3, 0, -1)], 6)
    rows = [(Monomial(a, b, t, q), Fraction(x, 6), Fraction(y, 6))
            for q, a, b, t, x, y in table.rows]
    report = VerificationReport("c", "formal", {}, None, "mismatch", table)
    _assert_written_as_reference(report, rows)
    doc = json.loads(report_json(verification_report_to_dict(report)))
    assert [(r["lhs"], r["rhs"]) for r in doc["mismatches"]] == [
        ("1/3", "0"), ("-1/2", "2/3"), ("1", "-2/3"), ("0", "-2"), ("0", "-1/6")]


def test_empty_table_is_written_as_an_empty_list():
    for table in (MismatchTable(), MismatchTable([], 6)):
        report = VerificationReport("c", "formal", {}, None, "verified", table)
        _assert_written_as_reference(report, [])
        assert '"mismatches": [],' in report_json(verification_report_to_dict(report))


def test_two_failed_comparisons_join_over_one_denominator(monkeypatch):
    # eq3_1_consistency compares its left side with the substitution path
    # and with the reflection; the two perturbed sides differ over 2 and 3.
    prof = TruncationProfile(2, 2, 2, 6)
    check = identities.CASES["eq3_1_consistency"]["formal"]
    for side, extra in (("substitution path", Fraction(1, 2)), ("right", Fraction(-2, 3))):
        def perturbed(run, build=check.sides[side], extra=extra):
            return build(run) + extra

        monkeypatch.setitem(check.sides, side, perturbed)
    report = run_case("eq3_1_consistency", profile=prof)
    run = identities._Run(check, profile=prof)
    rows = (_ref_rows(run["left"], run["substitution path"])
            + _ref_rows(run["left"], run["right"]))
    assert report.status == "mismatch" and report.mismatches.den == 6
    assert report.details["construction_mismatch_count"] == 1
    assert report.details["symmetry_mismatch_count"] == 1
    assert _fraction_rows(report.mismatches) == rows
    _assert_written_as_reference(report, rows)
    # a thm1_1 report counts the rows of its one comparison in its details
    check = identities.CASES["thm1_1"]["formal"]
    monkeypatch.setitem(check.sides, "right", lambda run, build=check.sides["right"]:
                        build(run) + TruncatedSeries.term(run.profile, 1, e_b=1, e_q=3))
    swapped = run_case("thm1_1", profile=TruncationProfile(3, 3, 3, 8))
    assert swapped.details["swap_mismatch_count"] == 1 == len(swapped.mismatches)
    assert not swapped.details["swap_fixed_point"]

