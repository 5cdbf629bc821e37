"""Seeded workload generators and the per-op correctness checks.

A workload is an endless sequence of rounds.  Every round holds the same
op slots in the same numbers; the seed draws each slot's parameters from a
narrow range and shuffles the order.  The op mix, and so the latency
percentiles, is therefore the same for every seed, while the inputs the
program sees differ.  The program receives only the generated argv lists.

Expected outcomes are fixed here without running the program: verdicts
and exit codes from the paper's catalog, and partition counts from small
dynamic programs that share no code with the enumerator.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional

EXIT_OK, EXIT_MISMATCH, EXIT_USAGE = 0, 1, 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what a correct program must answer."""

    argv: List[str]
    exit_code: int
    expect: Dict[str, object] = field(default_factory=dict)


class Dealer:
    """Seeded draws that go through every value of a slot before repeating.

    Each slot keeps its own shuffled deck, so over a run every value of a
    slot turns up about equally often whatever the seed: the seed changes
    the inputs, their order and their pairings, not the mix.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: Dict[object, list] = {}

    def __call__(self, slot, values):
        deck = self.decks.get(slot)
        if not deck:
            deck = self.decks[slot] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()


# --------------------------------------------------------------- formal_catalog

FORMAL_CASES = ("thm1_1", "eq3_1_consistency", "reduction_a0", "f_sym", "thm3_4", "thm3_5")

# (b = t range, q range) per stratum.  Every case runs once per stratum in
# every round.  The heavy rungs make large term dictionaries show; two
# each of thm1_1 and thm3_4 cost about the same and are 4 of 22 ops, so p90
# falls in the middle of their latency range rather than at its edge.
FORMAL_STRATA = ((range(6, 8), range(16, 25, 2)), (range(8, 11), range(24, 41, 4)),
                 (range(11, 13), range(48, 65, 4)))
FORMAL_HEAVY = (("thm1_1", range(100, 117, 4)), ("thm3_4", range(72, 89, 4))) * 2


def _formal_op(case: str, b: int, q: int, a: int) -> Op:
    argv = ["verify", "--identity", case, "--mode", "formal",
            "--amax", str(a), "--bmax", str(b), "--tmax", str(b), "--qmax", str(q)]
    if case == "thm3_4":
        # Adjudication: the printed evaluation fails first at b*q^0, where
        # the true left side has no term and the printed right side has -1.
        first = {"monomial": {"a": 0, "b": 1, "t": 0, "q": 0}, "lhs": "0", "rhs": "-1"}
        return Op(argv, EXIT_MISMATCH, {"status": "mismatch", "first_row": first})
    return Op(argv, EXIT_OK, {"status": "verified"})


def _formal_round(deal: Dealer) -> List[Op]:
    ops = []
    for case in FORMAL_CASES:
        for i, (bs, qs) in enumerate(FORMAL_STRATA):
            b = deal((case, i, "b"), bs)
            a = b - deal((case, i, "a"), range(3))
            ops.append(_formal_op(case, b, deal((case, i, "q"), qs), a))
    for case, qs in FORMAL_HEAVY:
        ops.append(_formal_op(case, 12, deal((case, "q"), qs), deal((case, "a"), range(10, 13))))
    return ops


# --------------------------------------------------------------- rational_chain

# Small-height rationals, negatives included.  Height and how often ops
# reuse a value (and so the program's memo-cache keys) drive the cost.
RATIONAL_POOL = tuple(Fraction(s) for s in (
    "2", "3", "-2", "-3", "1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3",
    "3/2", "-3/2", "5/2", "-5/3", "3/4", "-4/3", "1/5", "-2/5", "4/5", "5/4",
))


def _param_argv(**params) -> List[str]:
    # "--a=-3/2": argparse would read a separate "-3/2" as a flag.
    return [f"--{name}={value}" for name, value in params.items()]


def _draw(deal: Dealer, slot: str, ok: Callable[..., bool], names: str) -> Dict[str, Fraction]:
    """Draw parameters from the pool until the non-degeneracy test passes."""
    while True:
        vals = {n: deal((slot, n), RATIONAL_POOL) for n in names.split()}
        if ok(**vals):
            return vals


def _chain_ok(a, b, t):
    return a != 0 and b != 1 and t != 1


def _qps_ok(a, b, c):
    return a != 0 and b != 1 and c != 1 and c != a * b


def _rational_op(case: str, cap_q: int, params: Dict[str, object], extra=(), **expect) -> Op:
    argv = ["verify", "--identity", case, "--mode", "rational", "--qmax", str(cap_q)]
    argv += _param_argv(**params) + list(extra)
    return Op(argv, EXIT_OK, {"status": "verified", **expect})


def _rational_round(deal: Dealer) -> List[Op]:
    caps, ns, ks = range(12, 21), range(1, 7), range(1, 4)
    ops = []
    # One chain proof per round: shift and fine share the shifted double
    # sum (and its cache keys) at cap_q 12; final is cheap enough to range.
    p = _draw(deal, "chain", _chain_ok, "a b t")
    ops.append(_rational_op("chain_shift", 12, p))
    ops.append(_rational_op("chain_fine", 12, p))
    ops.append(_rational_op("chain_final", deal("chain_final", caps), p,
                            matched_form="t_over_a"))
    for _ in range(3):
        p = _draw(deal, "qps", _qps_ok, "a b c")
        p["N"] = deal("qps N", ns)
        cap_q = deal("qps", caps)
        ops.append(_rational_op("qps_2_1", cap_q, p))
        ops.append(_rational_op("rewrite_2_2", cap_q, p, matched_form="without_qn"))
    for _ in range(4):
        p = _draw(deal, "eq2_3", lambda a, b: a != 0 and b != 1, "a b")
        p["N"] = deal("eq2_3 N", ns)
        ops.append(_rational_op("eq2_3", deal("eq2_3", caps), p))
    for _ in range(3):
        p = _draw(deal, "f_sym", lambda alpha, beta: alpha != 1 and beta != 1, "alpha beta")
        k1, k2 = deal("k1", ks), deal("k2", ks)
        ops.append(_rational_op("f_sym", deal("f_sym", caps), p,
                                ["--k1", str(k1), "--k2", str(k2)]))
    return ops


# ------------------------------------------------------------- partition_oracle

# Slot sizes put p50 and p90 inside runs of ops of one cost rather than in
# gaps between costs: four (3,4)/(4,3) audits hold the ranks around the
# median, and three weight-40 enumerates the top 3 of 17 around p90 (which
# also makes peak memory come from the same op in every run).
AUDIT_STRATA = ((((2, 3), (3, 2), (2, 4), (4, 2)), 2), (((3, 4), (4, 3)), 4),
                (((4, 5), (5, 4)), 1))
REFUSED_BOXES = (((4, 6), (6, 4)), ((5, 7), (5, 8)))
EXACT_WEIGHT_STRATA = (range(20, 28), range(28, 32), range(35, 41))
MAX_WEIGHT_STRATA = (range(20, 26), range(30, 37), (40,), (40,), (40,))


@lru_cache(maxsize=None)
def odd_distinct_count(weight: int) -> int:
    """Partitions of ``weight`` whose odd parts are distinct (coefficient DP)."""
    coeffs = [1] + [0] * weight
    for part in range(1, weight + 1):
        if part % 2:  # (1 + q^part): each odd part at most once
            for w in range(weight, part - 1, -1):
                coeffs[w] += coeffs[w - part]
        else:  # 1 / (1 - q^part): even parts repeat freely
            for w in range(part, weight + 1):
                coeffs[w] += coeffs[w - part]
    return coeffs[weight]


@lru_cache(maxsize=None)
def family_count(lo: int, hi: int, length: int, exact: bool) -> int:
    """Odd-distinct partitions with every part in [lo, hi] and ``length``
    parts (``exact``) or at most ``length`` parts, by a DP on part values."""
    ways = [1] + [0] * length  # ways[k]: multisets of k parts chosen so far
    for part in range(lo, hi + 1):
        new = list(ways)
        for k in range(length + 1):
            if ways[k]:
                top = k + 1 if part % 2 else length
                for extra in range(k + 1, min(top, length) + 1):
                    new[extra] += ways[k]
        ways = new
    return ways[length] if exact else sum(ways)


def box_total(j: int, M: int) -> int:
    """Partitions an audit of box (j, M) lists: both families, both readings."""
    return sum(family_count(2 * M, 4 * M, j, exact) + family_count(2 * j, 4 * j, M, exact)
               for exact in (True, False))


def _audit_op(j: int, M: int) -> Op:
    argv = ["audit", "--j", str(j), "--M", str(M), "--limit", "200000"]
    return Op(argv, EXIT_OK, {
        "passed": True,
        "domain_size": family_count(2 * M, 4 * M, j, True),
        "codomain_size": family_count(2 * j, 4 * j, M, True),
    })


def _partition_round(deal: Dealer) -> List[Op]:
    ops = []
    for boxes, repeat in AUDIT_STRATA:
        ops += [_audit_op(*deal(boxes, boxes)) for _ in range(repeat)]
    for weights in EXACT_WEIGHT_STRATA:
        w = deal(weights, weights)
        ops.append(Op(["enumerate", "--odd-distinct", "--weight", str(w)],
                      EXIT_OK, {"count": odd_distinct_count(w), "weights": (w, w)}))
    for weights in MAX_WEIGHT_STRATA:
        w = deal(("max", weights), weights)
        count = sum(odd_distinct_count(x) for x in range(w + 1))
        ops.append(Op(["enumerate", "--odd-distinct", "--max-weight", str(w)],
                      EXIT_OK, {"count": count, "weights": (0, w)}))
    for boxes in REFUSED_BOXES:
        j, M = deal(boxes, boxes)
        limit = deal.rng.randint(10, box_total(j, M) // 2)
        argv = ["audit", "--j", str(j), "--M", str(M), "--limit", str(limit)]
        ops.append(Op(argv, EXIT_USAGE, {"refused": True}))
    return ops


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[Dealer], List[Op]]
    control: Op  # a cheap op whose expectation the negative control corrupts
    trace_rounds_per_s: float  # fixed traced work per second of --seconds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("formal_catalog", _formal_round, _formal_op("thm3_5", 6, 16, 6), 0.15),
        Workload("rational_chain", _rational_round,
                 _rational_op("rewrite_2_2", 12, {"a": 2, "b": Fraction(1, 3),
                                                  "c": Fraction(5, 7), "N": 3},
                              matched_form="without_qn"), 0.35),
        Workload("partition_oracle", _partition_round,
                 Op(["enumerate", "--odd-distinct", "--weight", "10"],
                    EXIT_OK, {"count": odd_distinct_count(10), "weights": (10, 10)}), 0.2),
    )
}


def rounds(workload: Workload, seed: int) -> Iterator[List[Op]]:
    """The workload's rounds for one seed, each shuffled; endless."""
    deal = Dealer(random.Random(f"{workload.name}:{seed}"))
    while True:
        ops = workload.make_round(deal)
        deal.rng.shuffle(ops)
        yield ops


def wrong_verdict(op: Op) -> Op:
    """The op with its expected verdict inverted (for the negative control)."""
    flipped = {EXIT_OK: EXIT_MISMATCH, EXIT_MISMATCH: EXIT_OK, EXIT_USAGE: EXIT_OK}
    expect = dict(op.expect)
    if "status" in expect:
        expect["status"] = "mismatch" if expect["status"] == "verified" else "verified"
    return replace(op, exit_code=flipped[op.exit_code], expect=expect)


# --------------------------------------------------------------------- checks


def _check_partitions(payload: dict, expect: dict) -> Optional[str]:
    lo, hi = expect["weights"]
    parts = payload["partitions"]
    if payload["count"] != expect["count"] or len(parts) != expect["count"]:
        return f"count {payload['count']}/{len(parts)} != {expect['count']}"
    if len({tuple(p) for p in parts}) != len(parts):
        return "repeated partition"
    for p in parts:
        odd = [x for x in p if x % 2]
        if (not lo <= sum(p) <= hi or len(odd) != len(set(odd))
                or any(x < y for x, y in zip(p, p[1:])) or (p and p[-1] < 1)):
            return f"partition {p} breaks the constraints"
    return None


def _check_report(payload: dict, e: dict) -> Optional[str]:
    if "status" in e and payload["status"] != e["status"]:
        return f"status {payload['status']}, expected {e['status']}"
    if "matched_form" in e and payload["details"].get("matched_form") != e["matched_form"]:
        return f"matched_form {payload['details'].get('matched_form')}"
    if "first_row" in e and payload["mismatches"][:1] != [e["first_row"]]:
        return f"first mismatch row {payload['mismatches'][:1]}"
    if "passed" in e:
        exact = payload["exact"]
        if payload["passed"] is not True:
            return "audit did not pass"
        if (exact["domain_size"], exact["codomain_size"]) != (
                e["domain_size"], e["codomain_size"]):
            return f"family sizes {exact['domain_size']}, {exact['codomain_size']}"
    if "count" in e:
        return _check_partitions(payload, e)
    return None


def check(op: Op, exit_code: int, report_path: str) -> Optional[str]:
    """None when the op's outcome is correct, else what was wrong."""
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    if op.expect.get("refused"):
        return "refused op wrote a report" if os.path.exists(report_path) else None
    try:
        with open(report_path, encoding="utf-8") as fh:
            return _check_report(json.load(fh), op.expect)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
