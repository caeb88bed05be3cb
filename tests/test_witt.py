"""``factor``, which reads the positive part off the ghost series z p'/p,
against the degree-by-degree division it replaced, kept here as the
reference: the same ``NormalForm``, ``prec`` included, or the same
exception class."""

from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.cli import run
from curveloops.errors import InsufficientPrecision, LoopSpaceError, NotInvertible
from curveloops.normal_form import NormalForm, factor, order_of, reconstruct
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring, packed_mul
from curveloops.series import LaurentSeries, resolve_prec

# -- the division the Witt recursion replaced ------------------------------------------


def _neg_factor_inverse(ring, i, a):
    """(1 - a z^-i)^-1 = sum_m a^m z^-im, finite since a is nilpotent."""
    terms = {0: Coeff.one(ring)}
    power = a
    m = 1
    while not power.is_zero():
        terms[-i * m] = power
        power = power * a
        m += 1
    return LaurentSeries.build(ring, terms)


def _divide_one_minus(p, j, b, window):
    """Divide a valuation-0 series by (1 - b z^j), q_m = p_m + b q_{m-j},
    level by level on integer rows; an exact p is expanded below
    max(deg(p), window) + k j + 1 (k = 1 unless b is nilpotent) and the
    quotient is exact when its last j coefficients vanish."""
    ring = p.ring
    deg = p.rows[-1][0] if p.rows else 0
    reach = ring.order if b.is_nilpotent() else 1
    limit = max(deg, window) + reach * j + 1 if p.exact else p.prec
    bden, brow = b.den, b.payload
    given_rows = dict(p.rows)
    q = []
    scale = 1
    for start in range(0, limit, j):
        count = min(j, limit - start)
        level = [[v * scale for v in given_rows.get(m, ())] for m in range(start, start + count)]
        below = [(i, q[start - j + i]) for i in range(count) if start and any(q[start - j + i])]
        if below:
            carried = packed_mul([(0, brow)], below, count, ring.order)
            level = [[x + y for x, y in zip_longest(a, c, fillvalue=0)]
                     for a, c in zip(level, carried)]
        q.extend(level)
        scale *= bden
    top = (limit - 1) // j
    prec = limit
    if p.exact:
        prec = window if any(any(row) for row in q[limit - j:]) else None
        q = q if prec is None else q[:window]
    powers = [bden ** (top - k) for k in range(top + 1)]
    rows = [(m, [v * powers[m // j] for v in row]) for m, row in enumerate(q)]
    return LaurentSeries.from_rows(ring, p.den * bden**top, rows, prec)


def reference_factor(alpha, prec=None):
    """``factor`` with the positive part divided out in increasing degree."""
    window = resolve_prec(prec)
    ring = alpha.ring
    v = order_of(alpha)
    beta = alpha.shift(-v)
    neg = {}
    r = beta
    for _ in range(200):
        if r.prec is not None and r.prec <= 0:
            raise InsufficientPrecision("constant term not certified")
        e = r.ord_min()
        if e is None or e >= 0:
            break
        c = r.coeff(e)
        if not c.is_nilpotent():
            raise NotInvertible("non-nilpotent negative coefficient")
        i = -e
        neg[i] = neg.get(i, Coeff.zero(ring)) - c * r.coeff(0).invert()
        if neg[i].is_zero():
            del neg[i]
        r = beta
        for i2, a in sorted(neg.items()):
            r = r * _neg_factor_inverse(ring, i2, a)
    unit = r.coeff(0)
    p = r.scale(unit.invert())
    pos = {}
    exact = False
    j = 1
    while True:
        if p.exact and p == LaurentSeries.one(ring):
            exact = True
            break
        limit = window if p.exact else p.prec
        if j >= limit:
            break
        b = -p.coeff(j)
        if not b.is_zero():
            pos[j] = b
            p = _divide_one_minus(p, j, b, window)
        j += 1
    nf_prec = None
    if not exact:
        nf_prec = v + j - sum(neg)
        if alpha.prec is not None:
            nf_prec = min(alpha.prec, nf_prec)
    return NormalForm(ring, unit, v, tuple(sorted(neg.items())), tuple(sorted(pos.items())), nf_prec)


def assert_same(alpha, window):
    try:
        want = reference_factor(alpha, window)
    except LoopSpaceError as exc:
        with pytest.raises(type(exc)):
            factor(alpha, window)
        return
    assert factor(alpha, window) == want


# -- strategies ------------------------------------------------------------------------

RINGS = (RATIONAL, nilpotent_ring(2), nilpotent_ring(3), nilpotent_ring(4), POLY)
fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def coeff(draw, ring, c0=None):
    """A coefficient of ``ring``; over Q[eps]/eps^k its constant is ``c0``
    when given (0 draws a nilpotent), over Q and Q[t] ``c0`` is the value."""
    if c0 is None:
        c0 = draw(fractions)
    if ring == RATIONAL:
        return Coeff.const(ring, c0)
    if ring == POLY:
        return Coeff.poly([c0] + draw(st.lists(fractions, max_size=2)))
    return Coeff.nil(ring, [c0] + draw(st.lists(fractions, min_size=ring.order - 1,
                                                max_size=ring.order - 1)))


@st.composite
def series(draw):
    """(alpha, window): a unit-led random series, often with nilpotent
    dips below the order, exact or known below a random precision."""
    ring = draw(st.sampled_from(RINGS))
    v = draw(st.integers(-3, 3))
    terms = {v: coeff(draw, ring, draw(fractions.filter(bool))) if ring != POLY
             else Coeff.const(ring, draw(fractions.filter(bool)))}
    for e in draw(st.sets(st.integers(v + 1, v + 14), max_size=6)):
        terms[e] = coeff(draw, ring)
    if ring.has_nilpotents and draw(st.booleans()):
        for e in draw(st.sets(st.integers(v - 3, v - 1), min_size=1, max_size=3)):
            terms[e] = coeff(draw, ring, 0)
    prec = draw(st.one_of(st.none(), st.integers(v, v + 16)))
    return LaurentSeries.build(ring, terms, prec), draw(st.integers(1, 12))


@st.composite
def products(draw):
    """(alpha, window): an exact finite product, often with a positive
    degree at or past the window, or a product with one term changed."""
    ring = draw(st.sampled_from(RINGS))
    window = draw(st.integers(1, 12))
    unit = coeff(draw, ring, draw(fractions.filter(bool))) if ring != POLY else Coeff.one(ring)
    neg = {}
    if ring.has_nilpotents:
        for i in draw(st.sets(st.integers(1, 3), max_size=2)):
            c = coeff(draw, ring, 0)
            if not c.is_zero():
                neg[i] = c
    pos = {}
    for j in draw(st.sets(st.integers(1, window + 2), max_size=4)):
        c = coeff(draw, ring, 0 if ring.has_nilpotents and draw(st.booleans()) else None)
        if not c.is_zero():
            pos[j] = c
    nf = NormalForm(ring, unit, draw(st.integers(-3, 3)), tuple(sorted(neg.items())),
                    tuple(sorted(pos.items())))
    alpha = reconstruct(nf)
    if draw(st.booleans()):
        e = draw(st.integers(nf.order + 1, nf.order + window + 4))
        alpha = alpha + LaurentSeries.monomial(ring, e, coeff(draw, ring))
    return alpha, window


@given(series())
@settings(max_examples=150, deadline=None)
def test_factor_matches_the_division_on_random_series(case):
    assert_same(*case)


@given(products())
@settings(max_examples=150, deadline=None)
def test_factor_matches_the_division_on_products(case):
    assert_same(*case)


def test_sparse_exact_input_at_the_default_window():
    alpha = LaurentSeries.build(RATIONAL, {-1: 2, 120: 3})
    nf = factor(alpha)
    assert nf == reference_factor(alpha)
    assert (nf.unit, nf.order, nf.neg, nf.pos, nf.prec) == (
        Coeff.const(RATIONAL, 2), -1, (), (), 23
    )


def test_exact_input_that_is_not_a_finite_product():
    alpha = LaurentSeries.build(RATIONAL, {0: 1, 1: 2, 3: 1})
    assert factor(alpha, 4) == reference_factor(alpha, 4)
    assert run(["factor", "1 + 2*z + z^3", "--prec", "4"]) == (
        0, "unit=1 order=0 neg={} pos={1: -2, 3: -1} (mod O(z^4))\n"
    )
