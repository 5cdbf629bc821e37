"""Rational sums stepped by their term ratios against summand-by-summand references.

Each reference below rebuilds summand n from its whole factor list with
``product_series``, as the builders did before they stepped each summand to
the next by its exact term ratio.  The stepped builders must agree with them
coefficient by coefficient, as exact Fractions, and must refuse what they
refuse with the same message, summand label included.  The step derivation
itself (``stepped_sum``) is checked the same way on random symbol shapes,
slopes no catalog sum uses included.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import count, product

import pytest

from qsid import identities
from qsid.identities import (
    _chain_product_form,
    _chain_single_sum,
    _eq22_rhs,
    _eq23_lhs,
    _qps_lhs,
)
from qsid.rational import (
    DegenerateParameterError,
    Dense,
    Factor,
    RationalAssignment,
    Summand,
    Symbol,
    accumulate,
    pochhammer_factors,
    product_series,
    stepped_sum,
    sum_with_geometric_tail,
)
from qsid.series import SeriesError

# the benchmark's parameter pool, and heights it does not reach
POOL = tuple(Fraction(s) for s in (
    "2", "3", "-2", "-3", "1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3",
    "3/2", "-3/2", "5/2", "-5/3", "3/4", "-4/3", "1/5", "-2/5", "4/5", "5/4",
    "7/11", "-13/6", "22/7", "-9/19",
))
CAPS = (0, 1, 2, 12, 20, 24)


# ------------------------------------------------------------------ references


def convolve(x, y):
    """The q-only product x * y to the same cap: the references multiply a
    prefactor and its sum as two built series, which no builder does."""
    out = [0] * len(x)
    for i, u in enumerate(x):
        for j, w in enumerate(y[: len(x) - i], i):
            out[j] += u * w
    return Dense(out, x.den * y.den)


def reference_qps_lhs(assign, cap_q):
    total = Dense.zero(cap_q)
    for n in range(assign.N + 1):
        accumulate(total, identities._qps_summand(assign, n, cap_q))
    return total


def reference_eq22_rhs(assign, cap_q, with_qn):
    a, b, c, N = assign.a, assign.b, assign.c, assign.N
    c_ab = Fraction(c) / (Fraction(a) * b)
    pref = product_series(
        pochhammer_factors(1, 1, N) + pochhammer_factors(c_ab, 0, N, inverted=True),
        cap_q,
        label="rewrite prefactor",
    )
    total = Dense.zero(cap_q)
    for n in range(N + 1):
        fac = []
        fac += pochhammer_factors(a, 0, n)
        fac += pochhammer_factors(b, 0, n)
        fac += pochhammer_factors(c_ab, 0, N - n)
        fac += pochhammer_factors(c, 0, n, inverted=True)
        fac += pochhammer_factors(1, 1, n, inverted=True)
        fac += pochhammer_factors(1, 1, N - n, inverted=True)
        accumulate(total, product_series(
            fac, cap_q, scalar=c_ab**n, q_shift=n if with_qn else 0,
            label=f"rewrite term n={n}",
        ))
    return convolve(pref, total)


def reference_eq23_lhs(assign, cap_q):
    a, b, N = assign.a, assign.b, assign.N
    inv_a = 1 / Fraction(a)
    total = Dense.zero(cap_q)
    for n in range(N + 1):
        fac = []
        fac += pochhammer_factors(a, 0, n)
        fac += pochhammer_factors(inv_a, 1, N - n)
        fac += pochhammer_factors(1, 1, n, inverted=True)
        fac += pochhammer_factors(1, 1, N - n, inverted=True)
        fac += [Factor(Fraction(b), n, True)]
        accumulate(total, product_series(
            fac, cap_q, scalar=inv_a**n, q_shift=n, label=f"specialized term n={n}"
        ))
    return total


def reference_chain_product_form(assign, cap_q):
    a, b, t = assign.a, assign.b, assign.t
    t_over_a = Fraction(t) / Fraction(a)
    pref = product_series(
        pochhammer_factors(t_over_a, 1, None, cap_q=cap_q)
        + pochhammer_factors(t, 0, None, inverted=True, cap_q=cap_q),
        cap_q,
        label="product-form prefactor",
    )

    def cterm(n):
        fac = []
        fac += pochhammer_factors(t, 0, n)
        fac += pochhammer_factors(t_over_a, 1, n, inverted=True)
        fac += pochhammer_factors(t, 2 * n + 1, None, cap_q=cap_q)
        fac += pochhammer_factors(t_over_a, 2 * n + 1, None, inverted=True, cap_q=cap_q)
        return product_series(fac, cap_q, scalar=Fraction(b) ** n,
                              label=f"product-form term n={n}")

    return convolve(pref, sum_with_geometric_tail(map(cterm, count()), b, cap_q + 1, cap_q))


def reference_chain_single_sum(assign, cap_q, reciprocal):
    a, b, t = assign.a, assign.b, assign.t
    x = Fraction(t) / Fraction(a) if reciprocal else Fraction(a) * Fraction(t)

    def dterm(n):
        fac = pochhammer_factors(x, n + 1, n)
        fac += pochhammer_factors(t, n, n + 1, inverted=True)
        return product_series(fac, cap_q, scalar=Fraction(b) ** n, label=f"target term n={n}")

    return sum_with_geometric_tail(map(dterm, count()), b, cap_q + 1, cap_q)


TERMINATING = [
    ("qps_lhs", _qps_lhs, reference_qps_lhs),
    ("eq22_without_qn", lambda s, q: _eq22_rhs(s, q, False),
     lambda s, q: reference_eq22_rhs(s, q, False)),
    ("eq22_with_qn", lambda s, q: _eq22_rhs(s, q, True),
     lambda s, q: reference_eq22_rhs(s, q, True)),
    ("eq23_lhs", _eq23_lhs, reference_eq23_lhs),
]
CHAIN = [
    ("product_form", _chain_product_form, reference_chain_product_form),
    ("t_over_a", lambda s, q: _chain_single_sum(s, q, True),
     lambda s, q: reference_chain_single_sum(s, q, True)),
    ("a_times_t", lambda s, q: _chain_single_sum(s, q, False),
     lambda s, q: reference_chain_single_sum(s, q, False)),
]


def fractions_of(c):
    return [Fraction(x, c.den) for x in c]


def outcome(build, assign, cap_q):
    """The coefficients as Fractions, or the refusal's type and message."""
    try:
        c = build(assign, cap_q)
    except DegenerateParameterError as exc:
        return ("refused", str(exc))
    assert len(c) == cap_q + 1 and c.den > 0
    return fractions_of(c)


def terminating_grid():
    rng = random.Random(2024)
    for cap_q, N in product(CAPS, range(8)):
        for _ in range(2):
            yield cap_q, RationalAssignment.make(
                a=rng.choice(POOL), b=rng.choice(POOL), c=rng.choice(POOL), N=N
            )


def chain_grid():
    rng = random.Random(2025)
    for cap_q in CAPS:
        for _ in range(4):
            yield cap_q, RationalAssignment.make(
                a=rng.choice(POOL), b=rng.choice(POOL), t=rng.choice(POOL)
            )


@pytest.mark.parametrize("name, stepped, reference", TERMINATING, ids=[t[0] for t in TERMINATING])
def test_terminating_sums_match_their_summand_references(name, stepped, reference):
    for cap_q, assign in terminating_grid():
        want = outcome(reference, assign, cap_q)
        assert outcome(stepped, assign, cap_q) == want, (cap_q, assign)


@pytest.mark.parametrize("name, stepped, reference", CHAIN, ids=[t[0] for t in CHAIN])
def test_chain_sums_match_their_summand_references(name, stepped, reference):
    for cap_q, assign in chain_grid():
        want = outcome(reference, assign, cap_q)
        assert outcome(stepped, assign, cap_q) == want, (cap_q, assign)


@pytest.mark.parametrize("name, stepped, reference", TERMINATING, ids=[t[0] for t in TERMINATING])
def test_terminating_sums_refuse_as_their_references(name, stepped, reference):
    # every (a, b, c) over values that make factors vanish (1), drop out (0)
    # or flip; a nonzero: the references divide by a (and by a*b for eq22)
    values = [Fraction(v) for v in ("0", "1", "-1", "2", "1/2")]
    refused = 0
    for a, b, c, N in product(values[1:], values, values[1:], range(5)):
        if name.startswith("eq22") and b == 0:
            continue
        assign = RationalAssignment.make(a=a, b=b, c=c, N=N)
        want = outcome(reference, assign, 6)
        refused += want[0] == "refused"
        assert outcome(stepped, assign, 6) == want, assign
    assert refused > 0


@pytest.mark.parametrize("name, stepped, reference", CHAIN, ids=[t[0] for t in CHAIN])
def test_chain_sums_refuse_as_their_references(name, stepped, reference):
    # t or b = 1 makes a factor vanish or the tail ratio 1, 0 drops factors
    # out; a nonzero: every chain sum divides by it.  The product form's
    # prefactor refuses t = 1 on its own, before its sum's ratio or summands.
    values = [Fraction(v) for v in ("0", "1", "-1", "2", "1/2")]
    refused = 0
    for a, b, t in product(values[1:], values, values):
        assign = RationalAssignment.make(a=a, b=b, t=t)
        want = outcome(reference, assign, 6)
        refused += want[0] == "refused"
        assert outcome(stepped, assign, 6) == want, assign
    assert refused > 0
    if name == "product_form":
        want = ("refused", "denominator factor (1 - v) with v = 1 in product-form prefactor")
        for b in values:
            assert outcome(stepped, RationalAssignment.make(a=2, b=b, t=1), 6) == want, b


def test_summand_steps_equal_the_product_of_their_factor_lists():
    # factors joining and leaving, flips and q^0 factors, against the
    # product of the factor list the steps leave behind
    a, v = Fraction(-3, 2), Fraction(2, 5)
    term = Summand(10)
    term.step([Factor(a, 2), Factor(v, -3), Factor(Fraction(1), -1, True)], scalar=3, q_shift=2)
    term.step([Factor(a, 0, True), Factor(v, 4, True)], [Factor(a, 2)])
    want = product_series(
        [Factor(v, -3), Factor(Fraction(1), -1, True), Factor(a, 0, True), Factor(v, 4, True)],
        10, scalar=3, q_shift=2,
    )
    assert term.value() == want


def test_summand_holds_a_vanishing_factor_until_it_leaves():
    one = Fraction(1)
    term = Summand(4)
    term.step([Factor(one, 0), Factor(Fraction(1, 3), 1)])
    assert term.value() == Dense.zero(4)
    term.step(leave=[Factor(one, 0)])
    assert term.value() == product_series([Factor(Fraction(1, 3), 1)], 4)
    term.step([Factor(one, 0, True)])
    with pytest.raises(DegenerateParameterError, match=r"v = 1 in term 2$"):
        term.value("term 2")
    term.step([Factor(one, 0)])
    with pytest.raises(DegenerateParameterError, match=r"\(0/0\) in term 3$"):
        term.value("term 3")


def test_summand_window_that_would_widen_is_refused_not_guessed():
    # q^2 drops the top two numerators of the window; q^-2 cannot bring them back
    term = Summand(3)
    term.step([Factor(Fraction(1, 2), 1)], q_shift=2)
    term.step(q_shift=-2)
    with pytest.raises(SeriesError, match="cannot widen"):
        term.value()


# --------------------------------------------------------- the step derivation


SLOPES = (-1, 0, 1, 2)
VALUES = tuple(Fraction(v) for v in ("0", "1", "1", "-1", "2", "1/2", "-2/3", "3"))


def listed(symbol, n, cap_q):
    """The symbol's factors at n, each exponent of its range listed (none
    cut at cap_q), or None where the printed form has no meaning: a negative
    size, or an infinite product from a negative q-power."""
    x, lo, lo_n, size, size_n, inverted = symbol
    start = lo + lo_n * n
    if size is None:
        stop = cap_q + 1 if start >= 0 else None
    else:
        stop = start + size + size_n * n if size + size_n * n >= 0 else None
    return None if stop is None else [Factor(x, k, inverted) for k in range(start, stop)]


def random_shape(rng, cap_q):
    """Symbols, a prefactor, a scalar and q_shift, with the listed factors of
    the prefactor and of each summand up to the first one undefined.

    q_shift is drawn freely, so a step's q-power may fall, also below q^0,
    and summand 0 or the prefactor may carry a pole; the shapes redrawn are
    those with no summand defined."""
    while True:
        symbols = [
            Symbol(rng.choice(VALUES), rng.randint(-3, 3), rng.choice(SLOPES),
                   rng.choice((0, 1, 2, 3, None)), rng.choice(SLOPES), rng.random() < 0.4)
            for _ in range(rng.randint(1, 4))
        ]
        prefactor = [
            Symbol(rng.choice(VALUES), rng.randint(-2, 3), size=rng.choice((0, 1, 2, None)),
                   inverted=rng.random() < 0.5)
            for _ in range(rng.choice((0, 0, 1, 2)))
        ]
        if any(s.size is None and s.lo < 0 for s in prefactor):
            continue
        pre = [f for s in prefactor for f in listed(s, 0, cap_q)]
        terms = []
        for n in range(6):
            fac = [listed(s, n, cap_q) for s in symbols]
            if None in fac:
                break
            terms.append([f for part in fac for f in part])
        if terms:
            return symbols, prefactor, rng.choice(VALUES), rng.randint(-3, 3), pre, terms


def reference_partial_sum(pre, terms, scalar, q_shift, cap_q, n_terms):
    if pre:
        product_series(pre, cap_q, label="prefactor")
    total = Dense.zero(cap_q)
    for n in range(n_terms):
        accumulate(total, product_series(pre + terms[n], cap_q, scalar=scalar**n,
                                         q_shift=q_shift * n, label=f"shape term n={n}"))
    return total


def test_stepped_sums_of_random_shapes_match_their_printed_products():
    # summand n as stepped equals the product of the symbols' factors at n,
    # refusals included, for every partial sum of every shape
    rng = random.Random(37)
    refused = 0
    for cap_q in (0, 3, 8) * 80:
        symbols, prefactor, scalar, q_shift, pre, terms = random_shape(rng, cap_q)
        for n_terms in range(1, len(terms) + 1):
            want = outcome(lambda _a, _q: reference_partial_sum(
                pre, terms, scalar, q_shift, cap_q, n_terms), None, cap_q)
            got = outcome(lambda _a, _q: stepped_sum(
                cap_q, symbols, "shape", scalar=scalar, q_shift=q_shift, n_terms=n_terms,
                prefactor=prefactor, prefactor_label="prefactor"), None, cap_q)
            assert got == want, (cap_q, symbols, prefactor, scalar, q_shift, n_terms)
            refused += want[0] == "refused"
    assert refused > 0


def test_a_product_side_lists_no_factor_past_cap_q():
    # (b/a * q; q)_N / (b; q)_(N+1) at N = 10^5: of its 200,001 factors only
    # those up to q^cap_q act, and only those are listed
    assign = RationalAssignment.make(a=2, b=Fraction(1, 3), N=10**5)
    tracemalloc.start()
    try:
        got = identities._eq23_rhs(assign, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    b_over_a, b = Fraction(1, 6), Fraction(1, 3)
    want = product_series([Factor(b_over_a, k) for k in range(1, 5)]
                          + [Factor(b, k, True) for k in range(5)], 4)
    assert got == want
    assert peak < 2**20


def test_a_zero_summand_keeps_the_window_through_a_dip_below_q0():
    # summand 0 holds (1 - q^0) and the flip of (1 - 2q^-1), q^-1; it is zero
    # until that factor leaves, and summand 1 is -2 + 3q - q^2 at q^0 again
    got = stepped_sum(4, [Symbol(Fraction(1), 0, lo_n=1, size=1), Symbol(Fraction(2), -1, size=1)],
                      "x", q_shift=1, n_terms=2)
    assert fractions_of(got) == [-2, 3, -1, 0, 0]
    assert got == product_series([Factor(Fraction(1), 1), Factor(Fraction(2), -1)], 4, q_shift=1)


def test_summands_read_on_a_falling_q_power_keep_their_numerators():
    # 1 / (2q^-2; q)_2 = q^3/4 / ((1 - q^2/2) (1 - q/2)) times q^-n: summands at
    # q^3, q^2, q^1, q^0, each read to q^cap_q from a window built at q^3
    symbols = [Symbol(Fraction(2), -2, size=2, inverted=True)]
    for cap_q in (0, 2, 6):
        want = Dense.zero(cap_q)
        for n in range(4):
            accumulate(want, product_series(pochhammer_factors(2, -2, 2, inverted=True), cap_q,
                                            q_shift=-n))
        got = stepped_sum(cap_q, symbols, "falling", q_shift=-1, n_terms=4)
        assert got == want
    with pytest.raises(DegenerateParameterError, match=r"order 1 at q = 0 in falling term n=4$"):
        stepped_sum(6, symbols, "falling", q_shift=-1, n_terms=5)


def test_stepped_sum_reads_each_value_once_per_build(monkeypatch):
    # every pass takes the ints of its value read when the sum is compiled,
    # not at each step: 5 summands and 50 read the same
    reads = Counter()
    for name in ("numerator", "denominator"):
        def read(v, name=name, slot="_" + name):
            reads[id(v), name] += 1
            return getattr(v, slot)

        monkeypatch.setattr(Fraction, name, property(read))

    def build(n_terms):
        values = [Fraction(3, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(1), Fraction(5, 7)]
        symbols = [Symbol(values[0], 0, size_n=1), Symbol(values[1], 1, lo_n=1, size_n=1),
                   Symbol(values[2], 0, size_n=1, inverted=True),
                   Symbol(values[3], 1, size_n=1, inverted=True),
                   Symbol(values[4], 0, lo_n=1, size=1, inverted=True)]
        scalar = Fraction(-2, 3)
        reads.clear()
        stepped_sum(12, symbols, "reads", scalar=scalar, q_shift=1, n_terms=n_terms)
        return [(reads[id(v), "numerator"], reads[id(v), "denominator"])
                for v in values + [scalar]]

    assert build(5) == build(50) == [(1, 1)] * 6
