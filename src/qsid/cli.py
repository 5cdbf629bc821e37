"""Command-line front end: verify, audit, enumerate, map, coeff.

Exit codes: 0 = verified / ok, 1 = a mathematical mismatch was found,
2 = usage or configuration error.  JSON reports are deterministic except
for the ``volatile`` section (durations, version), so runs can be diffed.
Reports are only written: each ``cmd_*`` computes its result and ``main``
alone reports errors and has ``_emit`` write the requested format's pieces
(``_pieces``) to ``--output`` or stdout; no report is ever held as one string.

JSON schema for ``verify``:

    {case, mode, caps, assignment?, status,
     mismatches: [{monomial: {a, b, t, q}, lhs: "p/q", rhs: "p/q"}],
     details: {...}, volatile: {duration_ms, version}}

``lhs`` and ``rhs`` are written as ``str(Fraction)`` writes them ("-1",
"1/3").  The mismatch rows, like the audit's graded generating-polynomial
rows (``{monomial: {a, q}, domain, codomain}`` or ``{monomial: {a, q},
count}``), are tables of one fixed shape: the report object carries each
as its int rows (a ``MismatchTable``, a ``_Graded`` table), and the
writer (``_json``) writes every row as one fill of its shape's template.

Monomials on the command line are concatenated variable-exponent tokens,
e.g. ``a1b1t1q2``; omitted variables have exponent 0.  Rational parameters
are exact ``p/q`` strings; no floats anywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from . import __version__
from .bijections import (
    AuditReport,
    BijectionBox,
    MapAudit,
    audit_bijection,
    gamma,
    gamma_inverse,
    sigma_gamma,
    two_modular_conjugate,
)
from .identities import CASES, MismatchTable, VerificationReport, run_case
from .partitions import (
    ConstraintSet,
    Partition,
    PartitionFamily,
    partition_family,
    refuse_over_limit,
)
from .rational import RationalAssignment
from .series import Monomial, SeriesError, TruncationProfile, coefficient

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

_MONOMIAL_TOKEN = re.compile(r"([abtq])(\d+)")


def parse_monomial(text: str) -> Monomial:
    """Parse concatenated tokens like a1b1t1q2 (missing variables mean 0)."""
    text = text.strip()
    if text and not re.fullmatch(r"(?:[abtq]\d+)+", text):
        raise SeriesError(f"cannot parse monomial {text!r}; expected tokens like a1b2q3")
    exps = {"a": 0, "b": 0, "t": 0, "q": 0}
    for var, num in _MONOMIAL_TOKEN.findall(text):
        exps[var] += int(num)
    return Monomial(exps["a"], exps["b"], exps["t"], exps["q"])


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SeriesError(f"cannot parse rational {text!r}: {exc}") from None


# ------------------------------------------------------------- serialization


def _monomial_dict(m: Monomial) -> Dict[str, int]:
    return {"a": m.e_a, "b": m.e_b, "t": m.e_t, "q": m.e_q}


def _volatile(duration_ms: float) -> Dict[str, object]:
    return {"duration_ms": round(duration_ms, 3), "version": __version__}


@dataclasses.dataclass(frozen=True)
class _Graded:
    """A graded table of an audit report, as ``_json`` writes it:
    rows ((i, k), *values) of monomial a^i q^k, each written as
    ``{monomial: {a, q}, name: value, ...}`` (``shape`` as ``_row_template``
    takes it).  It is neither a list nor a dict, so ``json.dumps`` refuses
    it (``TypeError``)."""

    shape: tuple
    rows: List[tuple]


def _graded(rows, *names: str) -> _Graded:
    return _Graded((("monomial", tuple("aq")), *((name, "%s") for name in names)), rows)


def verification_report_to_dict(report: VerificationReport) -> Dict[str, object]:
    """A verify report as the object of the schema above, to be written
    with ``_pieces``.

    The mismatch table is carried as the report's ``MismatchTable`` of
    int rows, which ``_json`` writes as a table of one fixed shape;
    no row becomes a dict, so ``json.dumps`` refuses the result
    (``TypeError``).
    """
    out: Dict[str, object] = {"case": report.case, "mode": report.mode, "caps": report.caps}
    if report.assignment is not None:
        out["assignment"] = report.assignment
    out["status"] = report.status
    out["mismatches"] = report.mismatches
    out["details"] = report.details
    out["volatile"] = _volatile(report.duration_ms)
    return out


def _fields(obj) -> Dict[str, object]:
    """A dataclass's fields by name, nested dataclasses as dicts; unlike
    ``dataclasses.asdict`` it copies no list or tuple."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _fields(value) if dataclasses.is_dataclass(value) else value
    return out


def _map_audit_dict(audit: MapAudit) -> Dict[str, object]:
    out = _fields(audit)
    out["collisions"] = [
        {"image": image, "preimages": preimages} for image, preimages in audit.collisions
    ]
    out["genpoly_mismatches"] = _graded(audit.genpoly_mismatches, "domain", "codomain")
    return out


def audit_report_to_dict(report: AuditReport) -> Dict[str, object]:
    """The JSON object of an audit report: box, gate, both sections, extras,
    to be written with ``_pieces``.

    Its graded generating-polynomial tables are carried as their int rows
    (``_Graded``), which ``_json`` writes as tables of one fixed
    shape, so ``json.dumps`` refuses the result (``TypeError``).
    """
    return {
        "box": {"j": report.j, "M": report.M},
        "passed": report.passed,
        "exact": _map_audit_dict(report.exact),
        "printed": _map_audit_dict(report.printed),
        "printed_genpoly_strict_empty": {
            "equal": report.printed_genpoly_strict_equal,
            "mismatches": _graded(
                report.printed_genpoly_strict_mismatches, "domain", "codomain"
            ),
        },
        "le_adds_domain": _graded(report.le_adds_domain, "count"),
        "le_adds_codomain": _graded(report.le_adds_codomain, "count"),
        "enum_limit": report.enum_limit,
        "volatile": _volatile(report.duration_ms),
    }


def report_json(report: object) -> str:
    """Any report as the bytes of ``json.dumps(report, indent=2)``, in one
    string: the join of the pieces that ``main`` writes one by one
    (``_pieces``)."""
    return "".join(_pieces(report))


_encode_str = json.encoder.encode_basestring_ascii


def _pieces(value: object, nl: str = "\n") -> Iterator[str]:
    """``value`` written after ``nl`` as ``json.dumps(..., indent=2)`` writes it, in
    pieces: the one writer of a dict (of str keys, ``_dict_pieces``) or a
    ``PartitionFamily``, at any depth.  A nonempty family is its framing around one
    piece per block (``PartitionFamily.chunks``); any other value is one piece
    (``_json``)."""
    if isinstance(value, PartitionFamily) and not value:
        yield "[]"
    elif isinstance(value, PartitionFamily):
        inner = nl + "  "
        deeper = inner + "  "
        yield "[" + inner
        yield from value.chunks("[" + deeper, "," + deeper, inner + "]", "[]", "," + inner)
        yield nl + "]"
    elif isinstance(value, dict) and all(type(k) is str for k in value):
        yield from _dict_pieces(value, nl)
    else:
        yield _json(value, nl)


def _dict_pieces(value: dict, nl: str) -> Iterator[str]:
    """A dict ``_pieces`` writes, its keys already checked to be str: each key's
    piece, then a family's pieces or one piece of any other value (``_json``)."""
    inner = nl + "  "
    lead = "{" + inner
    for k, v in value.items():
        yield lead + _encode_str(k) + ": "
        if isinstance(v, PartitionFamily):
            yield from _pieces(v, inner)
        else:
            yield _json(v, inner)
        lead = "," + inner
    yield nl + "}" if value else "{}"


def _json(value: object, nl: str) -> str:
    """``value`` written as ``json.dumps(..., indent=2)`` writes it after
    ``nl``, as one string; a dict (of str keys) or a family is the join of
    its pieces (``_dict_pieces``, ``_pieces``).

    With ``indent`` set the stdlib encoder runs in pure Python.  This
    writer joins strings instead.  It writes a ``MismatchTable`` and a
    ``_Graded`` audit table (each as its list of row dicts) with one fill
    of the shape's row template per int row: the mismatch template's
    ``lhs``/``rhs`` slots are quoted, so over den = 1 (every formal table)
    a row fills from its ints in JSON order (a, b, t, q, lhs, rhs), over
    den > 1 from its values' reduced fractions' text.  What it has no path
    for (floats, non-string keys) goes through ``json.dumps``.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if value is True or value is False or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        return _list_json([_json(x, inner) for x in value], nl)
    if isinstance(value, (MismatchTable, _Graded)) and not value.rows:
        return "[]"
    if isinstance(value, MismatchTable):
        template, den = _row_template(_MISMATCH_SHAPE, inner), value.den
        if den == 1:
            texts = [template % (a, b, t, q, x, y) for q, a, b, t, x, y in value.rows]
        else:
            texts = [template % (a, b, t, q, _fraction_text(x, den), _fraction_text(y, den))
                     for q, a, b, t, x, y in value.rows]
        return _list_json(texts, nl)
    if isinstance(value, _Graded):
        template = _row_template(value.shape, inner)
        return _list_json([template % (*key, *values) for key, *values in value.rows], nl)
    if isinstance(value, dict) and all(type(k) is str for k in value):
        return "".join(_dict_pieces(value, nl))
    if isinstance(value, PartitionFamily):
        return "".join(_pieces(value, nl))
    return json.dumps(value, indent=2).replace("\n", nl)


def _row_template(shape, nl: str) -> str:
    """The template of a row written after ``nl``: ``shape`` pairs each
    key with its slot (``%s`` for an int, ``"%s"`` for a string's text,
    which needs no escape) or with the tuple of its sub-keys (a dict of one
    int per sub-key); keys are plain names, which JSON writes as they are."""
    inner, deeper, parts = nl + "  ", nl + "    ", []
    for key, sub in shape:
        if isinstance(sub, str):
            parts.append(f'"{key}": {sub}')
            continue
        fields = [f'"{k}": %s' for k in sub]
        parts.append(f'"{key}": {{' + deeper + ("," + deeper).join(fields) + inner + "}")
    return "{" + inner + ("," + inner).join(parts) + nl + "}"


def _list_json(texts: List[str], nl: str) -> str:
    """A list written after ``nl`` as ``json.dumps`` writes it, from its
    items' texts (each written after ``nl`` + 2 spaces)."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _fraction_text(x: int, den: int) -> str:
    """``str(Fraction(x, den))``, without building the Fraction."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


_MISMATCH_SHAPE = (("monomial", tuple("abtq")), ("lhs", '"%s"'), ("rhs", '"%s"'))


def _emit(pieces: Iterable[str], path: Optional[str]) -> None:
    """Write the report's pieces, one by one, and a newline to ``path`` or stdout."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as out:
        try:
            out.writelines(pieces)
            out.write("\n")
            out.flush()
        except BrokenPipeError:
            if path:
                raise
            # the reader closed stdout early (``| head``) and wants no more;
            # stdout now points at devnull, so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


# ------------------------------------------------------------------ commands

# Every command returns (exit code, JSON producer, text producer); ``main``
# calls the producer of the requested format only and writes its pieces.
_Result = Tuple[int, Callable[[], Iterable[str]], Callable[[], Iterable[str]]]


class _UnknownName(Exception):
    """An unknown --identity or --side, reported as it is (no ``error:`` prefix)."""


def _profile_from_args(args) -> TruncationProfile:
    amax = max(args.bmax, args.tmax) if args.amax is None else args.amax
    return TruncationProfile(amax, args.bmax, args.tmax, args.qmax)


def _assignment_from_args(args) -> RationalAssignment:
    return RationalAssignment.make(
        a=args.a, b=args.b, t=args.t, c=args.c, alpha=args.alpha, beta=args.beta,
        x_exp=args.k1, y_exp=args.k2, N=args.N,
    )


def _format_verification_text(report: VerificationReport) -> str:
    lines = [
        f"case: {report.case} (mode {report.mode})",
        f"caps: {report.caps}",
    ]
    if report.assignment:
        lines.append(f"assignment: {report.assignment}")
    lines.append(f"status: {report.status}")
    for key, value in sorted(report.details.items()):
        lines.append(f"  {key}: {value}")
    table = report.mismatches
    if table:
        lines.append(f"mismatches ({len(table)} shown up to 25):")
        for q, a, b, t, x, y in table.rows[:25]:
            lines.append(f"  {Monomial(a, b, t, q)}: lhs={Fraction(x, table.den)} "
                         f"rhs={Fraction(y, table.den)}")
    return "\n".join(lines)


_VERIFY_EXIT = {"verified": EXIT_OK, "mismatch": EXIT_MISMATCH}


def cmd_verify(args) -> _Result:
    if args.identity not in CASES:
        raise _UnknownName(
            f"unknown identity {args.identity!r}; known: {', '.join(sorted(CASES))}"
        )
    report = run_case(
        args.identity,
        mode=args.mode,
        profile=_profile_from_args(args),
        assign=_assignment_from_args(args),
        cap_q=args.qmax,
    )
    return (
        _VERIFY_EXIT.get(report.status, EXIT_USAGE),
        lambda: _pieces(verification_report_to_dict(report)),
        lambda: [_format_verification_text(report)],
    )


def _format_audit_text(report: AuditReport) -> str:
    e = report.exact
    lines = [
        f"box: j={report.j} M={report.M}",
        f"exact-length audit: |D|={e.domain_size} |C|={e.codomain_size}",
        f"  weight preserved:    {e.weight_preserved.passed}/{e.domain_size}",
        f"  odd count preserved: {e.odd_count_preserved.passed}/{e.domain_size}",
        f"  codomain membership: {e.codomain_membership.passed}/{e.domain_size}",
        f"  statistic exchange:  {e.statistic_exchange.passed}/{e.domain_size}",
        f"  inverse roundtrip:   {e.gamma_roundtrip.passed}/{e.domain_size}",
        f"  conjugate involution:{e.sigma_involution.passed}/{e.domain_size}",
        f"  injective: {e.injective}  surjective: {e.surjective}",
        f"  generating polynomials equal: {e.genpoly_equal}",
        f"printed (<=) variant: |D|={report.printed.domain_size} "
        f"|C|={report.printed.codomain_size}",
        f"  generating polynomials equal (vacuous empty): {report.printed.genpoly_equal}",
        f"  generating polynomials equal (strict empty):  "
        f"{report.printed_genpoly_strict_equal}",
    ]
    if report.printed.genpoly_mismatches:
        rows = ", ".join(
            f"a^{k[0]}q^{k[1]}: {x} vs {y}"
            for k, x, y in report.printed.genpoly_mismatches
        )
        lines.append(f"  printed-variant mismatches: {rows}")
    if report.le_adds_codomain:
        rows = ", ".join(f"a^{k[0]}q^{k[1]}" for k, _ in report.le_adds_codomain)
        lines.append(f"  <= reading adds to codomain side: {rows}")
    if report.le_adds_domain:
        rows = ", ".join(f"a^{k[0]}q^{k[1]}" for k, _ in report.le_adds_domain)
        lines.append(f"  <= reading adds to domain side: {rows}")
    lines.append(f"result: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def cmd_audit(args) -> _Result:
    report = audit_bijection(BijectionBox(args.j, args.M), enum_limit=args.limit)
    # a failing audit's witnesses must replay, or the verdict is not one
    if not report.passed and not report.revalidate():
        raise SeriesError(
            f"internal: a failure witness of box j={args.j}, M={args.M} does not replay"
        )
    return (
        EXIT_OK if report.passed else EXIT_MISMATCH,
        lambda: _pieces(audit_report_to_dict(report)),
        lambda: [_format_audit_text(report)],
    )


def cmd_enumerate(args) -> _Result:
    constraints = ConstraintSet(
        weight=args.weight,
        weight_min=args.min_weight,
        weight_max=args.max_weight,
        min_part=args.min_part,
        max_part=args.max_part,
        length=args.length,
        max_length=args.max_length,
        odd_parts_distinct=args.odd_distinct,
    )
    refuse_over_limit("the constraints enumerate", [constraints])
    family = partition_family(constraints)
    return (
        EXIT_OK,
        lambda: _pieces({"count": len(family), "partitions": family}),
        lambda: family.chunks("", ",", "", "()", "\n"),
    )


_MAP_OPS = ("gamma", "gamma-inverse", "sigma", "gamma-sigma")


def _map_dict(op: str, p: Partition, image: Partition) -> Dict[str, object]:
    return {
        "op": op,
        "input": list(p),
        "output": list(image),
        "stats": {
            "weight": image.weight,
            "parts": image.length,
            "odd": image.odd_count,
            "largest": image.largest,
        },
        "preserved": {
            "weight": image.weight == p.weight,
            "odd": image.odd_count == p.odd_count,
        },
    }


def _format_map_text(p: Partition, image: Partition) -> str:
    preserved = []
    if image.weight == p.weight:
        preserved.append("weight")
    if image.odd_count == p.odd_count:
        preserved.append("odd-count")
    return (
        f"{image.text()}\n"
        f"weight={image.weight} parts={image.length} odd={image.odd_count} "
        f"largest={image.largest}"
        + (f" (preserved: {', '.join(preserved)})" if preserved else "")
    )


def cmd_map(args) -> _Result:
    p = Partition.parse(args.partition)
    if args.op == "sigma":
        image = two_modular_conjugate(p)
    elif args.op == "gamma-inverse":
        if args.M is None or args.j is None:
            raise SeriesError("--M and --j are required for gamma-inverse")
        image = gamma_inverse(p, args.j, args.M)
    else:
        if args.M is None:
            raise SeriesError(f"--M is required for {args.op}")
        image = (gamma if args.op == "gamma" else sigma_gamma)(p, args.M)
    return (
        EXIT_OK,
        lambda: _pieces(_map_dict(args.op, p, image)),
        lambda: [_format_map_text(p, image)],
    )


def cmd_coeff(args) -> _Result:
    sides = {
        f"{check.coeff_name}:{side}": (check, side)
        for checks in CASES.values()
        for check in checks.values()
        if check.coeff_name
        for side in ("left", "right")
    }
    if args.side not in sides:
        raise _UnknownName(f"unknown side {args.side!r}; known: {', '.join(sorted(sides))}")
    mono = parse_monomial(args.monomial)
    check, side = sides[args.side]
    value = str(Fraction(coefficient(check.side(side, profile=_profile_from_args(args)), mono)))
    return (
        EXIT_OK,
        lambda: _pieces(
            {"side": args.side, "monomial": _monomial_dict(mono), "coefficient": value}
        ),
        lambda: [value],
    )


# -------------------------------------------------------------------- parser


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", help="write the report to this path instead of stdout")


def _add_caps(sub) -> None:
    sub.add_argument(
        "--amax", type=int, default=None,
        help="degree cap for a (default: max of --bmax/--tmax; every cataloged "
        "series has a-degree bounded by its b- or t-degree)",
    )
    sub.add_argument("--bmax", type=int, default=6, help="degree cap for b")
    sub.add_argument("--tmax", type=int, default=6, help="degree cap for t")
    sub.add_argument("--qmax", type=int, default=16, help="degree cap for q")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``qsid`` parser, built once per process (``parse_args`` leaves it as it is).

    It names each subcommand and nothing else: ``main`` looks up the
    ``cmd_*`` function for it when it is called, so a wrapper installed on
    this module later still sees every call.
    """
    parser = argparse.ArgumentParser(
        prog="qsid",
        description="Exact q-series identity verification and partition bijection audits",
    )
    parser.add_argument("--version", action="version", version=f"qsid {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="verify one identity from the catalog")
    verify.add_argument("--identity", required=True)
    verify.add_argument("--mode", choices=("formal", "rational"))
    _add_caps(verify)
    for name in ("a", "b", "t", "c", "alpha", "beta"):
        verify.add_argument(f"--{name}", type=parse_fraction, default=None,
                            help=f"rational value for {name} (e.g. 1/3)")
    verify.add_argument("--k1", type=int, default=None, help="first base as q^k1")
    verify.add_argument("--k2", type=int, default=None, help="second base as q^k2")
    verify.add_argument("--N", type=int, default=None, help="terminating index")
    _add_common(verify)

    audit = subs.add_parser("audit", help="audit the bijection over a finite box")
    audit.add_argument("--j", type=int, required=True)
    audit.add_argument("--M", type=int, required=True)
    audit.add_argument("--limit", type=int, default=None,
                       help="enumeration guard (default from QSID_ENUM_LIMIT)")
    _add_common(audit)

    enum = subs.add_parser("enumerate", help="list partitions under constraints")
    enum.add_argument("--weight", type=int, default=None)
    enum.add_argument("--min-weight", type=int, default=None)
    enum.add_argument("--max-weight", type=int, default=None)
    enum.add_argument("--min-part", type=int, default=None)
    enum.add_argument("--max-part", type=int, default=None)
    enum.add_argument("--length", type=int, default=None)
    enum.add_argument("--max-length", type=int, default=None)
    enum.add_argument("--odd-distinct", action="store_true")
    _add_common(enum)

    mp = subs.add_parser("map", help="apply a partition map")
    mp.add_argument("--op", choices=_MAP_OPS, required=True)
    mp.add_argument("--partition", required=True,
                    help="comma-separated parts; '' or '()' for empty")
    mp.add_argument("--M", type=int, default=None)
    mp.add_argument("--j", type=int, default=None)
    _add_common(mp)

    coeff = subs.add_parser("coeff", help="print one exact coefficient of a side")
    coeff.add_argument("--side", required=True, help="case:side, e.g. thm1_1:left")
    coeff.add_argument("--monomial", required=True, help="e.g. a1b1t1q2")
    _add_caps(coeff)
    _add_common(coeff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        code, to_json, to_text = command(args)
    except _UnknownName as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(to_json() if args.format == "json" else to_text(), args.output)
    except OSError as exc:  # a closed pipe is handled in _emit; any other write fails here
        where = args.output or "stdout"
        print(f"error: cannot write report to {where}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
