"""Integer partitions: values, constrained enumeration, generating polynomials.

A partition is a weakly decreasing tuple of positive integers.  Its
statistics (weight, length, odd-part count, largest part) are
pure functions of the parts.  A partition is odd-distinct when no odd
value occurs more than once; odd-distinct partitions are exactly the ones
whose 2-modular conjugate is again a partition.

Enumeration is exhaustive over a finite search space described by a
``ConstraintSet`` and doubles as the brute-force oracle for the series
checks: the catalog case ``eq3_1_partitions`` (in ``identities``) builds
one side of the even-step identity from enumerated families and compares
it with the side the series engine computes.  This module needs nothing
from the series code beyond its error type, so the oracle stays
independent of what it checks.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .series import SeriesError

__all__ = [
    "ConstraintSet",
    "DEFAULT_ENUM_LIMIT",
    "GeneratingPolynomial",
    "Partition",
    "PartitionFamily",
    "SuffixList",
    "UnboundedConstraintError",
    "count_partitions",
    "enumerate_partitions",
    "env_enum_limit",
    "graded",
    "partition_family",
    "refuse_over_limit",
]

DEFAULT_ENUM_LIMIT = 200_000


class UnboundedConstraintError(SeriesError):
    """The constraint set does not describe a finite search space."""


class Partition(tuple):
    """Weakly decreasing positive parts; ``Partition()`` is the empty partition.

    A partition is the tuple of its parts.  ``Partition(parts)`` and
    ``parse`` check the parts; code that builds a partition correct by
    construction (the enumerator, the maps) skips the check with
    ``tuple.__new__(Partition, parts)``.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        self = tuple.__new__(cls, parts)
        prev = None
        for p in self:
            if not isinstance(p, int) or isinstance(p, bool) or p <= 0:
                raise SeriesError(f"parts must be positive integers, got {p!r}")
            if prev is not None and p > prev:
                raise SeriesError(f"parts must be weakly decreasing, got {tuple(self)}")
            prev = p
        return self

    @property
    def parts(self) -> Tuple[int, ...]:
        """The parts, largest first: the partition itself."""
        return self

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def odd_count(self) -> int:
        return sum([p & 1 for p in self])

    @property
    def largest(self) -> int:
        """Largest part; 0 for the empty partition."""
        return self[0] if self else 0

    def is_odd_distinct(self) -> bool:
        """True iff no odd part value occurs more than once.

        The parts are weakly decreasing, so a repeated value repeats next
        to itself: one scan for two equal adjacent odd parts decides it.
        """
        prev = 0
        for p in self:
            if p == prev and p & 1:
                return False
            prev = p
        return True

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the text form: comma-separated parts, '' or '()' for empty."""
        text = text.strip()
        if text in ("", "()"):
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise SeriesError(f"cannot parse partition {text!r}: {exc}") from None
        return cls(parts)

    def text(self) -> str:
        """Canonical text form; the empty partition renders as '()'."""
        return ",".join(map(str, self)) if self else "()"

    __str__ = text

    def __repr__(self) -> str:
        return f"Partition(parts={tuple(self)!r})"


def graded(parts: Tuple[int, ...]) -> Tuple[int, int]:
    """(odd-part count, weight) of a partition, both read in one call."""
    return sum([p & 1 for p in parts]), sum(parts)


@dataclass(frozen=True)
class ConstraintSet:
    """Finite description of a partition family.

    ``weight`` pins the weight exactly and excludes ``weight_min`` /
    ``weight_max``; ``length`` pins the number of parts exactly and
    excludes ``max_length``.  Part bounds apply to every part, so they are
    vacuous for the empty partition.
    """

    weight: Optional[int] = None
    weight_min: Optional[int] = None
    weight_max: Optional[int] = None
    min_part: Optional[int] = None
    max_part: Optional[int] = None
    length: Optional[int] = None
    max_length: Optional[int] = None
    odd_parts_distinct: bool = False

    def __post_init__(self) -> None:
        if self.weight is not None and (
            self.weight_min is not None or self.weight_max is not None
        ):
            raise SeriesError("give either an exact weight or a weight range, not both")
        if self.length is not None and self.max_length is not None:
            raise SeriesError("give either an exact length or a max length, not both")
        for name in ("weight", "weight_min", "weight_max", "length", "max_length"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise SeriesError(f"{name} must be >= 0, got {v}")
        if self.min_part is not None and self.min_part < 1:
            raise SeriesError(f"min_part must be >= 1, got {self.min_part}")
        if self.max_part is not None and self.max_part < 1:
            raise SeriesError(f"max_part must be >= 1, got {self.max_part}")

    def weight_window(self) -> Tuple[int, Optional[int]]:
        if self.weight is not None:
            return (self.weight, self.weight)
        return (self.weight_min or 0, self.weight_max)

    def length_window(self) -> Tuple[int, Optional[int]]:
        if self.length is not None:
            return (self.length, self.length)
        return (0, self.max_length)

    def effective_bounds(self) -> Tuple[int, int]:
        """(max weight, max length) of the finite search space.

        Raises ``UnboundedConstraintError`` when neither a weight bound nor
        a (max_part, length bound) pair is present.
        """
        w_lo, w_hi = self.weight_window()
        l_lo, l_hi = self.length_window()
        if w_hi is None and (self.max_part is None or l_hi is None):
            raise UnboundedConstraintError(
                "need a weight bound, or max_part together with a length bound"
            )
        if w_hi is None:
            w_hi = self.max_part * l_hi
        if l_hi is None:
            # every part is >= min_part (>= 1), so length <= weight bound
            l_hi = w_hi // (self.min_part or 1)
        return (w_hi, l_hi)

    def satisfied_by(self, p: Partition) -> bool:
        w_lo, w_hi = self.weight_window()
        l_lo, l_hi = self.length_window()
        if p.weight < w_lo or (w_hi is not None and p.weight > w_hi):
            return False
        if p.length < l_lo or (l_hi is not None and p.length > l_hi):
            return False
        if self.min_part is not None and any(x < self.min_part for x in p.parts):
            return False
        if self.max_part is not None and any(x > self.max_part for x in p.parts):
            return False
        if self.odd_parts_distinct and not p.is_odd_distinct():
            return False
        return True


# Longest suffix list ``enumerate_partitions`` keeps; a subproblem with more
# suffixes passes its prefix down instead, so no list of the family's size
# is held twice.
_SUFFIX_CUT = 256


class SuffixList(list):
    """A kept suffix list: ``(v,) + s`` for each ``(v, child)`` of
    ``children`` and each ``s`` in that child list, in order, then ``()``
    when the empty suffix is allowed.

    ``children`` keeps how the list was composed, so once a child list
    is written the text of ``(v,) + s`` is ``v``'s text before the text
    of ``s`` (see ``PartitionFamily``).  ``partition_family`` empties it
    on a list that no block holds and that is not shared: no writer
    reads through that list, and the lists below it can go.
    """

    __slots__ = ("children",)

    def __init__(self, children: List[Tuple[int, "SuffixList"]], empty: bool):
        super().__init__([(v,) + s for v, child in children for s in child])
        if empty:
            self.append(())
        self.children = children


class PartitionFamily:
    """A listed family as blocks: its members, in order, are ``prefix + s``
    for each ``(prefix, suffixes)`` block and each ``s`` in ``suffixes``,
    a nonempty ``SuffixList`` that other blocks may share.  ``len`` is
    their number, and ``chunks`` yields their texts without building them.

    A suffix's text is its first part's text before its child list's
    text, so ``lists`` holds the lists ``chunks`` builds texts for, once
    each and each after its children: each block's list, and each list
    that two or more of them read (each ``(part, child)`` of a written
    list is one read).  The root block's list (empty prefix: the whole
    family) is read, not written, since its texts are whole members.  A
    list read once is left to its reader, which writes those suffixes
    from their parts, so a chain of lists, each read only by the next, is
    written at its top alone; and since a shared list's readers hold its
    suffixes again, ``lists`` holds at most as many suffixes outside the
    blocks' lists as in them.
    """

    __slots__ = ("blocks", "lists", "size")

    def __init__(self, blocks: List[Tuple[Tuple[int, ...], SuffixList]],
                 built: List[SuffixList]):
        """``built``: every nonempty list the blocks reach, each after its children."""
        self.blocks = blocks
        self.size = sum([len(kept) for _, kept in blocks])
        reads: Dict[int, int] = {}

        def read(kept: SuffixList) -> None:
            for _, child in kept.children:
                reads[id(child)] = reads.get(id(child), 0) + 1

        for prefix, kept in blocks:
            if prefix:
                reads[id(kept)] = 2
            else:
                read(kept)
        for kept in reversed(built):  # readers before the lists they read
            if reads.get(id(kept), 0) > 1:
                read(kept)
        self.lists = [kept for kept in built if reads.get(id(kept), 0) > 1]

    def __len__(self) -> int:
        return self.size

    def chunks(self, start: str, sep: str, end: str, empty: str, between: str) -> Iterator[str]:
        """The members, each ``start + sep.join(parts) + end`` (``empty`` for
        no parts), with ``between`` between each two, yielded one chunk per
        block and ``between`` between each two blocks: the join of the
        chunks is the family's text.  While they are read, only the texts
        of ``lists`` and of the block being yielded are held.

        A suffix's text is ``sep + sep.join(parts) + end`` (``end`` alone
        for the empty suffix), or, where its child list is one of
        ``lists``, ``sep + str(v)`` before the child's text of the rest.
        Each prefix's text is built once per block, as ``start +
        sep.join(prefix)``, and a block is one join of it with its list's
        texts, which are keyed by the list's id.
        """
        text = int.__repr__
        written: Dict[int, List[str]] = {}

        def texts(kept: SuffixList, lead: str, last: str) -> List[str]:
            """``lead`` before each suffix's text, ``last`` for the empty suffix."""
            out, at = [], 0
            for v, child in kept.children:
                tails = written.get(id(child))
                if tails is None:
                    out += [lead + sep.join(map(text, s)) + end for s in kept[at:at + len(child)]]
                else:
                    head = lead + text(v)
                    out += [head + t for t in tails]
                at += len(child)
            if kept and not kept[-1]:
                out.append(last)
            return out

        for kept in self.lists:  # children first
            written[id(kept)] = texts(kept, sep, end)
        for n, (prefix, kept) in enumerate(self.blocks):
            if n:
                yield between
            if not prefix:  # the root: the whole family in one kept list, or ()
                yield between.join(texts(kept, start, empty))
                continue
            head = start + sep.join(map(text, prefix))
            yield head + (between + head).join(written[id(kept)])


# The suffix list of a prefix listed after its extensions: the prefix alone.
_EMPTY_SUFFIX = SuffixList([], True)


def enumerate_partitions(c: ConstraintSet) -> List[Partition]:
    """All partitions satisfying the constraints, descending-lexicographic:
    the members of ``partition_family(c)``, each built once."""
    return [tuple.__new__(Partition, prefix + s)  # valid by construction
            for prefix, kept in partition_family(c).blocks for s in kept]


def partition_family(c: ConstraintSet) -> PartitionFamily:
    """The family of partitions satisfying the constraints, as blocks.

    Exhaustive search over weakly decreasing part sequences, larger parts
    first.  What may follow a prefix depends only on the bounds left: the
    largest allowed part, the weight room and the weight still needed, the
    length room and the length still needed.  A key of those bounds has one
    list of suffixes, descending-lex and ending with the empty suffix, so
    ``prefix + s`` for each ``s`` lists that prefix's partitions in the
    enumeration order; each list is built once from its children's lists,
    as a ``SuffixList`` that keeps those ``(part, child list)`` pairs, and
    shared by every prefix that reaches its key.  The key carries a
    room only where it binds: weight room only under a weight window,
    length room only under a length bound (elsewhere the other bounds
    imply them), so prefixes that differ only in a non-binding bound share
    one list.  Lists longer than ``_SUFFIX_CUT`` are not kept: above them
    the search passes the prefix down, and each prefix that reaches a kept
    list becomes one block ``(prefix, kept list)``; a prefix listed after
    its extensions is the block ``(prefix, [()])``.  Concatenated in
    order, the blocks list the family in descending-lex order.  The
    distinct suffix lists among them are few (109 lists of 7,738 suffixes
    for the 33,772 odd-distinct partitions of weight at most 40), so
    ``PartitionFamily.chunks`` does text work that follows the lists, not
    the family.  The constraint set must be finite (see
    ``ConstraintSet.effective_bounds``).
    """
    w_hi_eff = c.effective_bounds()[0]
    w_lo, w_hi = c.weight_window()
    l_lo, l_hi = c.length_window()
    by_weight, by_length = w_hi is not None, l_hi is not None
    lo_part = c.min_part or 1
    hi_part = c.max_part if c.max_part is not None else w_hi_eff
    distinct = c.odd_parts_distinct

    def children(key):
        """(part, key of what may follow it) for each next part, largest first."""
        top, room, need, l_room, l_need = key
        if not l_room:
            return []
        l_room = l_room - 1 if by_length else 1
        l_need = l_need - 1 if l_need else 0
        out = []
        for v in range(top, lo_part - 1, -1):
            # an odd part may not repeat, so the next part is below it
            nxt = v - 1 if distinct and v & 1 else v
            rest = 0
            if by_weight:
                rest = room - v
                nxt = min(nxt, rest)
            out.append((v, (nxt, rest, need - v if need > v else 0, l_room, l_need)))
        return out

    def complete(key) -> bool:
        """Whether the empty suffix is allowed: no weight or length still needed."""
        return not key[2] and not key[4]

    memo: Dict[tuple, Optional[SuffixList]] = {}

    def suffixes(key) -> Optional[SuffixList]:
        """The key's suffix list, built on first use; None above the cut."""
        if key in memo:
            return memo[key]
        # depth first on an explicit stack, since a family's partitions can
        # be longer than the interpreter's recursion limit: (key, None)
        # lists a key's children, (key, children) joins their lists
        todo = [(key, None)]
        while todo:
            k, kids = todo.pop()
            if k in memo:  # reached twice before it was built
                continue
            if kids is None:
                kids = children(k)
                todo.append((k, kids))
                todo += [(ck, None) for _, ck in kids if ck not in memo]
                continue
            lists = [memo[ck] for _, ck in kids]
            empty = complete(k)
            if None in lists or sum(map(len, lists)) + empty > _SUFFIX_CUT:
                memo[k] = None
                continue
            memo[k] = SuffixList([(v, kept) for (v, _), kept in zip(kids, lists)], empty)
        return memo[key]

    blocks = []
    # (prefix, key), or (prefix, None) to list the prefix after its extensions
    todo = [((), (
        min(hi_part, w_hi) if by_weight else hi_part,
        w_hi if by_weight else 0,
        w_lo,
        l_hi if by_length else 1,
        l_lo,
    ))]
    while todo:
        prefix, key = todo.pop()
        if key is None:
            blocks.append((prefix, _EMPTY_SUFFIX))
            continue
        kept = suffixes(key)
        if kept is not None:
            if kept:
                blocks.append((prefix, kept))
            continue
        if complete(key):
            todo.append((prefix, None))
        todo += [(prefix + (v,), k) for v, k in reversed(children(key))]
    # the memo fills children first, so its kept lists are in build order
    built = [_EMPTY_SUFFIX] + [kept for kept in memo.values() if kept]
    family = PartitionFamily(blocks, built)
    readers = {id(kept) for kept in family.lists} | {id(kept) for _, kept in blocks}
    for kept in built:
        if id(kept) not in readers:  # no writer reads through it
            kept.children = []
    return family


def count_partitions(c: ConstraintSet) -> int:
    """Exact size of a finite family, without listing it.

    With no weight window the family is every multiset of L values from
    the part range, L in the length window, so it is counted in closed
    form: with odd parts distinct, L parts take k distinct odd values
    and L - k even values with repetition, C(n_odd, k) *
    multichoose(n_even, L - k) ways; otherwise multichoose(n_values, L).
    Summing over L uses sum_{L<=l} multichoose(n, L) = C(n + l, l), so
    the cost does not follow the part range: two binomials, and with odd
    parts distinct a sum over k for each, whose terms step from k to
    k + 1 by an exact ratio, summed by binary splitting.

    Under a weight window it is a DP over the part values whose states
    are the reachable (length, weight) pairs with their counts, so its
    size follows the family, not the weight cap.  Length is tracked only
    under a length bound; untracked, it stays 0.  A value used at most
    once (odd, when odd parts must be distinct) is one block of one part;
    a value that may repeat is blocks of 1, 2, 4, ... parts, each used
    at most once, so each multiplicity is reached once, by its binary
    digits.
    """
    w_cap, l_cap = c.effective_bounds()  # raises when the family is not finite
    w_lo, w_hi = c.weight_window()
    l_lo, l_hi = c.length_window()
    if (w_lo, w_hi) == (0, None):
        return _count_by_length(
            c.min_part or 1, c.max_part, l_lo, l_cap, c.odd_parts_distinct
        )
    states = {(0, 0): 1}
    for v in range(c.min_part or 1, min(c.max_part or w_cap, w_cap) + 1):
        size = 1
        while size <= l_cap and size * v <= w_cap:
            dl = 0 if l_hi is None else size
            dw = size * v
            for (l, w), n in list(states.items()):
                if l + dl <= l_cap and w + dw <= w_cap:
                    states[l + dl, w + dw] = states.get((l + dl, w + dw), 0) + n
            if c.odd_parts_distinct and v % 2:
                break
            size *= 2
    return sum(n for (l, w), n in states.items() if l >= l_lo and w >= w_lo)


def _count_by_length(lo: int, hi: int, l_lo: int, l_hi: int, odd_distinct: bool) -> int:
    """Partitions with parts in [lo, hi] and length in [l_lo, l_hi]."""
    n_values = max(0, hi - lo + 1)
    n_odd = max(0, (hi + 1) // 2 - lo // 2) if odd_distinct else 0
    n_rep = n_values - n_odd  # values that may repeat
    return _up_to(n_odd, n_rep, l_hi) - _up_to(n_odd, n_rep, l_lo - 1)


@lru_cache(maxsize=16)
def _up_to(n_odd: int, n_rep: int, l: int) -> int:
    """Length <= l: sum over k of C(n_odd, k) * multisets of <= l - k repeatable values.

    Term k + 1 is term k times p(k) / q(k), with p(k) = (n_odd - k)(l - k)
    and q(k) = (k + 1)(n_rep + l - k).  Binary splitting sums the terms
    as term 0 times 1 + T / Q over a product tree, with one exact
    division at the end instead of a big-int multiply and divide per
    term.  Cached: an audit's four families share part ranges and length
    bounds, so with j = M one sum serves up to four of them.
    """
    if l < 0:
        return 0
    first = comb(n_rep + l, l)
    steps = min(n_odd, l)
    if not steps:
        return first

    def split(a: int, b: int) -> Tuple[int, int, int]:
        """(P, Q, T) over k in [a, b): P and Q the products of p(k) and
        q(k), T / Q the sum over m in [a, b) of prod_{a <= k <= m} p(k) / q(k)."""
        if b - a == 1:
            p = (n_odd - a) * (l - a)
            return p, (a + 1) * (n_rep + l - a), p
        mid = (a + b) // 2
        p1, q1, t1 = split(a, mid)
        p2, q2, t2 = split(mid, b)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(0, steps)
    return first + first * t // q


# ints of at most this many bits are converted by Decimal() directly
_SPLIT_BITS = 4096


def _int_text(n: int) -> str:
    """The decimal digits of an int n >= 0 of any size.

    ``str()`` refuses an int longer than ``sys.get_int_max_str_digits()``
    digits, which a closed-form count can be, and ``Decimal(n)`` takes
    time quadratic in its length.  Here n is split at bit k into
    hi*2^k + lo, each half converted the same way, and the halves joined
    by one multiply and one add in an exact decimal context (any rounding
    traps on ``Inexact``), where a long multiply is fast.
    """
    powers: Dict[int, Decimal] = {}

    def power(k: int) -> Decimal:  # 2^k
        if k not in powers:
            powers[k] = (Decimal(1 << k) if k <= _SPLIT_BITS
                         else power(k // 2) * power(k - k // 2))
        return powers[k]

    def convert(n: int, bits: int) -> Decimal:
        if bits <= _SPLIT_BITS:
            return Decimal(n)
        k = bits // 2
        hi = n >> k
        return convert(hi, bits - k) * power(k) + convert(n - (hi << k), k)

    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        return str(convert(n, n.bit_length()))


def env_enum_limit() -> int:
    """Enumeration guard from QSID_ENUM_LIMIT, else ``DEFAULT_ENUM_LIMIT``; never below 0."""
    text = os.environ.get("QSID_ENUM_LIMIT", str(DEFAULT_ENUM_LIMIT))
    try:
        limit = int(text)
    except ValueError:
        raise SeriesError(f"QSID_ENUM_LIMIT must be an integer, got {text!r}") from None
    if limit < 0:
        raise SeriesError(f"QSID_ENUM_LIMIT must be >= 0, got {text!r}")
    return limit


def refuse_over_limit(what: str, families: Iterable[ConstraintSet], limit: Optional[int] = None,
                      error: type = SeriesError) -> None:
    """Raise ``error`` if the ``families`` count more partitions than ``limit``
    (default ``env_enum_limit()``), the message giving the whole count, of
    any length.  A limit below 0 is refused before anything is counted."""
    limit = env_enum_limit() if limit is None else limit
    if limit < 0:
        raise error(f"the enumeration limit must be >= 0, got {limit}")
    total = sum(map(count_partitions, families))
    if total > limit:
        raise error(f"{what} {_int_text(total)} partitions, over the limit {limit}")


@dataclass
class GeneratingPolynomial:
    """Exact counts per (odd-part count, weight): sum of a^o * q^w over a family."""

    counts: Dict[Tuple[int, int], int]

    @classmethod
    def from_partitions(cls, parts: Iterable[Partition]) -> "GeneratingPolynomial":
        return cls(dict(Counter(map(graded, parts))))

    def mismatches(self, other: "GeneratingPolynomial"):
        """Rows ((a_exp, q_exp), self count, other count) where counts differ."""
        keys = set(self.counts) | set(other.counts)
        rows = [
            (k, self.counts.get(k, 0), other.counts.get(k, 0))
            for k in keys
            if self.counts.get(k, 0) != other.counts.get(k, 0)
        ]
        rows.sort(key=lambda r: (r[0][1], r[0][0]))
        return rows

    def minus(self, other: "GeneratingPolynomial"):
        """Monomials (with positive multiplicity) present here beyond ``other``."""
        return [(k, x - y) for k, x, y in self.mismatches(other) if x > y]
