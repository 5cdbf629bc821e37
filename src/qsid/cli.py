"""Command-line front end: verify, audit, enumerate, map, coeff.

Exit codes: 0 = verified / ok, 1 = a mathematical mismatch was found,
2 = usage or configuration error.  JSON reports are deterministic except
for the ``volatile`` section (durations, version), so runs can be diffed.

JSON schema for ``verify``:

    {case, mode, caps, assignment?, status,
     mismatches: [{monomial: {a, b, t, q}, lhs: "p/q", rhs: "p/q"}],
     details: {...}, volatile: {duration_ms, version}}

Monomials on the command line are concatenated variable-exponent tokens,
e.g. ``a1b1t1q2``; omitted variables have exponent 0.  Rational parameters
are exact ``p/q`` strings; no floats anywhere.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import operator
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Union, get_type_hints

from . import __version__
from .bijections import (
    AuditReport,
    BijectionBox,
    MapAudit,
    PropertyCount,
    audit_bijection,
    gamma,
    gamma_inverse,
    sigma_gamma,
    two_modular_conjugate,
)
from .identities import CASES, Mismatch, VerificationReport, run_case
from .partitions import ConstraintSet, Partition, enumerate_partitions
from .rational import RationalAssignment
from .series import (
    Monomial,
    SeriesError,
    TruncationProfile,
    coefficient,
)

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


class _Codec(NamedTuple):
    encode: Callable
    decode: Callable


_PLAIN = _Codec(lambda value: value, copy.copy)
_FRACTION = _Codec(str, Fraction)


class _Field(NamedTuple):
    """One wire field: its dotted ``path`` in the JSON object, the attribute
    name or tuple index it holds (None: the last path step; a function of
    the object: a field that is only written), its value codec, and whether
    it is left out when None (and read back as None when absent)."""

    path: str
    key: Union[str, int, Callable, None] = None
    codec: _Codec = _PLAIN
    optional: bool = False


def _list_of(item: _Codec) -> _Codec:
    return _Codec(
        lambda values: [item.encode(v) for v in values],
        lambda values: [item.decode(v) for v in values],
    )


def _record(build: Callable, *fields: Union[str, _Field]) -> _Codec:
    """Codec between ``build``'s objects (dataclasses or tuples) and JSON objects.

    Each wire field is declared once, as a ``_Field`` or as the bare name of
    an attribute written as it is; both directions derive from it.  An
    absent field that is not optional takes ``build``'s dataclass default,
    or raises ``KeyError`` when there is none.
    """
    defaults = set()
    if dataclasses.is_dataclass(build):
        defaults = {
            f.name for f in dataclasses.fields(build)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        }
    specs = []  # (path steps, key, getter, field)
    for f in fields:
        f = _Field(f) if isinstance(f, str) else f
        key = f.path.rsplit(".", 1)[-1] if f.key is None else f.key
        if callable(key):
            getter = key
        else:
            getter = operator.itemgetter(key) if isinstance(key, int) else operator.attrgetter(key)
        specs.append((f.path.split("."), key, getter, f))

    def encode(obj) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for (*groups, leaf), _, getter, f in specs:
            value = getter(obj)
            if value is None and f.optional:
                continue
            node = out
            for group in groups:
                node = node.setdefault(group, {})
            node[leaf] = f.codec.encode(value)
        return out

    def decode(d: Dict[str, object]):
        args, kwargs = [], {}
        for steps, key, _, f in specs:
            if callable(key):
                continue
            try:
                raw = functools.reduce(operator.getitem, steps, d)
            except KeyError:
                if key in defaults:
                    continue
                if not f.optional:
                    raise
                value = None
            else:
                value = f.codec.decode(raw)
            if isinstance(key, int):
                args.append(value)
            else:
                kwargs[key] = value
        return build(*args, **kwargs)

    return _Codec(encode, decode)


def _dataclass(cls, **codecs: _Codec) -> _Codec:
    """Record codec writing each field of dataclass ``cls`` under its own name."""
    names = (f.name for f in dataclasses.fields(cls))
    return _record(cls, *(_Field(name, codec=codecs.get(name, _PLAIN)) for name in names))


def _tuple(*values) -> tuple:
    return values


def _graded_rows(*names: str) -> _Codec:
    """Rows ((a, q), *values) of monomial a^i q^k, the values under ``names``."""
    monomial = _record(_tuple, _Field("a", 0), _Field("q", 1))
    values = (_Field(name, i) for i, name in enumerate(names, 1))
    return _list_of(_record(_tuple, _Field("monomial", 0, monomial), *values))


_MONOMIAL = _record(
    Monomial, _Field("a", "e_a"), _Field("b", "e_b"), _Field("t", "e_t"), _Field("q", "e_q")
)
_VOLATILE = (
    _Field("volatile.duration_ms", codec=_Codec(lambda ms: round(ms, 3), float)),
    _Field("volatile.version", lambda report: __version__),
)
_VERIFICATION = _record(
    VerificationReport,
    "case",
    "mode",
    "caps",
    _Field("assignment", optional=True),
    "status",
    _Field(
        "mismatches",
        codec=_list_of(_dataclass(Mismatch, monomial=_MONOMIAL, lhs=_FRACTION, rhs=_FRACTION)),
    ),
    "details",
    *_VOLATILE,
)


_GENPOLY_ROWS = _graded_rows("domain", "codomain")
_COUNT_ROWS = _graded_rows("count")
_PROPERTY = _dataclass(PropertyCount, failures=_list_of(_Codec(list, tuple)))
_MAP_AUDIT = _dataclass(
    MapAudit,
    collisions=_list_of(_record(_tuple, _Field("image", 0), _Field("preimages", 1))),
    genpoly_mismatches=_GENPOLY_ROWS,
    **{name: _PROPERTY for name, t in get_type_hints(MapAudit).items() if t is PropertyCount},
)
_AUDIT = _record(
    AuditReport,
    "box.j",
    "box.M",
    _Field("passed", lambda report: report.passed),
    _Field("exact", codec=_MAP_AUDIT),
    _Field("printed", codec=_MAP_AUDIT),
    _Field("printed_genpoly_strict_empty.equal", "printed_genpoly_strict_equal"),
    _Field(
        "printed_genpoly_strict_empty.mismatches",
        "printed_genpoly_strict_mismatches",
        _GENPOLY_ROWS,
    ),
    _Field("le_adds_domain", codec=_COUNT_ROWS),
    _Field("le_adds_codomain", codec=_COUNT_ROWS),
    "enum_limit",
    *_VOLATILE,
)

verification_report_to_dict = _VERIFICATION.encode
verification_report_from_dict = _VERIFICATION.decode
audit_report_to_dict = _AUDIT.encode
audit_report_from_dict = _AUDIT.decode


def strip_volatile(d: Dict[str, object]) -> Dict[str, object]:
    """Copy of a report dict without the volatile section (for diffing)."""
    return {k: v for k, v in d.items() if k != "volatile"}


def _emit(payload: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


# ------------------------------------------------------------------ commands


def _profile_from_args(args) -> TruncationProfile:
    amax = max(args.bmax, args.tmax) if args.amax is None else args.amax
    return TruncationProfile(amax, args.bmax, args.tmax, args.qmax)


def _assignment_from_args(args) -> RationalAssignment:
    return RationalAssignment.make(
        a=args.a,
        b=args.b,
        t=args.t,
        c=args.c,
        alpha=args.alpha,
        beta=args.beta,
        x_exp=args.k1,
        y_exp=args.k2,
        N=args.N,
    )


def _format_verification_text(report: VerificationReport, limit: int = 25) -> str:
    lines = [
        f"case: {report.case} (mode {report.mode})",
        f"caps: {report.caps}",
    ]
    if report.assignment:
        lines.append(f"assignment: {report.assignment}")
    lines.append(f"status: {report.status}")
    for key, value in sorted(report.details.items()):
        lines.append(f"  {key}: {value}")
    if report.mismatches:
        lines.append(f"mismatches ({len(report.mismatches)} shown up to {limit}):")
        for row in report.mismatches[:limit]:
            lines.append(f"  {row.monomial}: lhs={row.lhs} rhs={row.rhs}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    if args.identity not in CASES:
        print(f"unknown identity {args.identity!r}; known: {', '.join(sorted(CASES))}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_case(
            args.identity,
            mode=args.mode,
            profile=_profile_from_args(args),
            assign=_assignment_from_args(args),
            cap_q=args.qmax,
        )
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _emit(json.dumps(verification_report_to_dict(report), indent=2), args.output)
    else:
        _emit(_format_verification_text(report), args.output)
    if report.status == "verified":
        return EXIT_OK
    if report.status == "mismatch":
        return EXIT_MISMATCH
    return EXIT_USAGE


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


def cmd_audit(args) -> int:
    try:
        report = audit_bijection(BijectionBox(args.j, args.M), enum_limit=args.limit)
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _emit(json.dumps(audit_report_to_dict(report), indent=2), args.output)
    else:
        _emit(_format_audit_text(report), args.output)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_enumerate(args) -> int:
    try:
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
        found = enumerate_partitions(constraints)
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        payload = {
            "count": len(found),
            "partitions": [list(p.parts) for p in found],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit("\n".join(p.text() for p in found) if found else "", args.output)
    return EXIT_OK


_MAP_OPS = ("gamma", "gamma-inverse", "sigma", "gamma-sigma")


def cmd_map(args) -> int:
    try:
        p = Partition.parse(args.partition)
        if args.op == "gamma":
            if args.M is None:
                raise SeriesError("--M is required for gamma")
            image = gamma(p, args.M)
        elif args.op == "gamma-inverse":
            if args.M is None or args.j is None:
                raise SeriesError("--M and --j are required for gamma-inverse")
            image = gamma_inverse(p, args.j, args.M)
        elif args.op == "sigma":
            image = two_modular_conjugate(p)
        elif args.op == "gamma-sigma":
            if args.M is None:
                raise SeriesError("--M is required for gamma-sigma")
            image = sigma_gamma(p, args.M)
        else:
            raise SeriesError(f"unknown map {args.op!r}")
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    preserved = []
    if image.weight == p.weight:
        preserved.append("weight")
    if image.odd_count == p.odd_count:
        preserved.append("odd-count")
    stats = (
        f"weight={image.weight} parts={image.length} odd={image.odd_count} "
        f"largest={image.largest}"
        + (f" (preserved: {', '.join(preserved)})" if preserved else "")
    )
    if args.format == "json":
        payload = {
            "op": args.op,
            "input": list(p.parts),
            "output": list(image.parts),
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
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(f"{image.text()}\n{stats}", args.output)
    return EXIT_OK


def cmd_coeff(args) -> int:
    sides = {
        f"{check.coeff_name}:{side}": (check, side)
        for case in CASES.values()
        for check in case.checks.values()
        if check.coeff_name
        for side in ("left", "right")
    }
    if args.side not in sides:
        print(
            f"unknown side {args.side!r}; known: {', '.join(sorted(sides))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        mono = parse_monomial(args.monomial)
        check, side = sides[args.side]
        series = check.side(side, profile=_profile_from_args(args))
        value = coefficient(series, mono)
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        payload = {
            "side": args.side,
            "monomial": _MONOMIAL.encode(mono),
            "coefficient": str(Fraction(value)),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(str(Fraction(value)), args.output)
    return EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
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
    verify.set_defaults(func=cmd_verify)

    audit = subs.add_parser("audit", help="audit the bijection over a finite box")
    audit.add_argument("--j", type=int, required=True)
    audit.add_argument("--M", type=int, required=True)
    audit.add_argument("--limit", type=int, default=None,
                       help="enumeration guard (default from QSID_ENUM_LIMIT)")
    _add_common(audit)
    audit.set_defaults(func=cmd_audit)

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
    enum.set_defaults(func=cmd_enumerate)

    mp = subs.add_parser("map", help="apply a partition map")
    mp.add_argument("--op", choices=_MAP_OPS, required=True)
    mp.add_argument("--partition", required=True,
                    help="comma-separated parts; '' or '()' for empty")
    mp.add_argument("--M", type=int, default=None)
    mp.add_argument("--j", type=int, default=None)
    _add_common(mp)
    mp.set_defaults(func=cmd_map)

    coeff = subs.add_parser("coeff", help="print one exact coefficient of a side")
    coeff.add_argument("--side", required=True, help="case:side, e.g. thm1_1:left")
    coeff.add_argument("--monomial", required=True, help="e.g. a1b1t1q2")
    _add_caps(coeff)
    _add_common(coeff)
    coeff.set_defaults(func=cmd_coeff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
