"""Newton ``invert`` and ``sqrt`` against the O(n^2) coefficient recurrences
they replaced, kept here as references, and against sympy's ring series;
residues of quotients against ``sympy.residue``."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.errors import NoRationalSquareRoot
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring
from curveloops.series import DEFAULT_PREC, LaurentSeries, sqrt

# -- the recurrences Newton iteration replaced ----------------------------------------


def recurrence_invert(f, prec=None):
    """1/f by b_n = -b_0 sum_{i=1..n} g_i b_{n-i}, for a unit leading term."""
    v, lead = f.terms[0]
    if f.exact and len(f.terms) == 1:
        return LaurentSeries.monomial(f.ring, -v, lead.invert())
    rel = (f.prec - v) if f.prec is not None else (prec or DEFAULT_PREC)
    g = [f.coeff(v + i) for i in range(rel)]
    b0 = lead.invert()
    out = [b0]
    for n in range(1, rel):
        acc = Coeff.zero(f.ring)
        for i in range(1, n + 1):
            acc = acc + g[i] * out[n - i]
        out.append(-(b0 * acc))
    return LaurentSeries.build(f.ring, {-v + i: c for i, c in enumerate(out)}, -v + rel)


def recurrence_sqrt(f, prec=None, branch=1):
    """sqrt(f) by s_n = (g_n - sum_{i=1..n-1} s_i s_{n-i}) / 2 on g = f / lead,
    with exactness decided by squaring the candidate back."""
    v, lead = f.terms[0]
    lead_q = lead.as_fraction()
    root = Fraction(isqrt(lead_q.numerator), isqrt(lead_q.denominator))
    assert root * root == lead_q
    rel = (f.prec - v) if f.prec is not None else (prec or DEFAULT_PREC)
    g = [f.coeff(v + i) * lead.invert() for i in range(rel)]
    out = [Coeff.one(f.ring)]
    for n in range(1, rel):
        acc = g[n]
        for i in range(1, n):
            acc = acc - out[i] * out[n - i]
        out.append(acc.scale(Fraction(1, 2)))
    sign = root if branch >= 0 else -root
    result = LaurentSeries.build(
        f.ring, {v // 2 + i: c.scale(sign) for i, c in enumerate(out)}, v // 2 + rel
    )
    if f.exact:
        candidate = LaurentSeries.build(f.ring, dict(result.terms), None)
        if candidate * candidate == f:
            return candidate
    return result


# -- strategies ------------------------------------------------------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
large = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**15))
entries = st.one_of(small, small, large, st.just(Fraction(0)))
# windows 1 and 2, odd ones, and ones just past a power of two
windows = st.one_of(st.sampled_from([1, 2, 3, 5, 7, 9, 17, 33]), st.integers(1, 40))


def coeff(draw, ring):
    if ring == RATIONAL:
        return Coeff.const(ring, draw(entries))
    if ring == POLY:
        return Coeff.poly(draw(st.lists(entries, max_size=4)))
    return Coeff.nil(ring, draw(st.lists(entries, min_size=ring.order, max_size=ring.order)))


@st.composite
def unit_led(draw, ring, lead):
    """(f, prec): f has lowest term ``lead`` at an even exponent v in
    [-6, 6], up to 8 more terms in (v, v + 40), and is exact or known below
    v + 1 .. v + 40; prec is the window for exact inputs."""
    v = 2 * draw(st.integers(-3, 3))
    terms = {v: lead}
    for e in draw(st.sets(st.integers(v + 1, v + 39), max_size=8)):
        terms[e] = coeff(draw, ring)
    prec = draw(st.one_of(st.none(), windows.map(lambda w: v + w)))
    return LaurentSeries.build(ring, terms, prec), draw(windows)


@st.composite
def invertible(draw, ring):
    unit = draw(small.filter(bool))
    if ring.kind == "nilpotent":
        lead = Coeff.nil(ring, [unit] + [draw(entries) for _ in range(ring.order - 1)])
    else:
        lead = Coeff.const(ring, unit)
    f, prec = draw(unit_led(ring, lead))
    return f.shift(draw(st.sampled_from([0, 1]))), prec  # odd valuations too


@st.composite
def square_led(draw, ring):
    root = draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    return draw(unit_led(ring, Coeff.const(ring, root * root)))


INVERT_RINGS = (RATIONAL, nilpotent_ring(2), nilpotent_ring(3), nilpotent_ring(4), POLY)


# -- Newton against the recurrences ------------------------------------------------


@pytest.mark.parametrize("ring", INVERT_RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_invert_matches_recurrence(ring, data):
    f, prec = data.draw(invertible(ring))
    got = f.invert(prec)
    assert got == recurrence_invert(f, prec)
    v = f.terms[0][0]
    want_prec = (f.prec - 2 * v) if f.prec is not None else -v + prec
    assert got.exact or got.prec == want_prec


@pytest.mark.parametrize("ring", (RATIONAL, POLY), ids=str)
@pytest.mark.parametrize("branch", (1, -1))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sqrt_matches_recurrence(ring, branch, data):
    f, prec = data.draw(square_led(ring))
    assert sqrt(f, prec=prec, branch=branch) == recurrence_sqrt(f, prec, branch)


@pytest.mark.parametrize("ring", (RATIONAL, POLY), ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sqrt_of_exact_square_matches_recurrence(ring, data):
    """c^2 for random c: certified exact when rel covers deg c - v/2, and
    the truncated root otherwise, the same way as squaring back decides."""
    c, prec = data.draw(square_led(ring))
    c = LaurentSeries.build(ring, dict(c.terms), None)
    f = c * c
    for branch in (1, -1):
        assert sqrt(f, prec=prec, branch=branch) == recurrence_sqrt(f, prec, branch)


@pytest.mark.parametrize("ring", (RATIONAL, POLY), ids=str)
def test_sqrt_certificate_needs_the_product(ring):
    # 2 deg c = deg f = 30 >= v + rel = 24: only squaring back decides
    one_plus = LaurentSeries.build(ring, {0: 1, 15: 1})
    f = one_plus * one_plus
    assert sqrt(f) == one_plus == recurrence_sqrt(f)
    assert sqrt(f, branch=-1) == -one_plus == recurrence_sqrt(f, branch=-1)
    for prec in (16, 31, 33):
        assert sqrt(f, prec=prec) == one_plus == recurrence_sqrt(f, prec)
    assert sqrt(f, prec=15) == one_plus.truncate(15) == recurrence_sqrt(f, 15)


def test_windows_around_powers_of_two():
    f = LaurentSeries.build(RATIONAL, {-2: 4, -1: 3, 5: Fraction(-1, 7)})
    for prec in (1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 64, 65):
        assert f.invert(prec) == recurrence_invert(f, prec)
        assert sqrt(f, prec=prec) == recurrence_sqrt(f, prec)
        assert sqrt(f, prec=prec, branch=-1) == recurrence_sqrt(f, prec, -1)


def test_inexact_input_keeps_its_window():
    f = LaurentSeries.build(RATIONAL, {-4: 9, -3: 1, 0: 2}, 3)
    inv, root = f.invert(), sqrt(f)
    assert (inv.prec, root.prec) == (11, 5)
    assert inv == recurrence_invert(f) and root == recurrence_sqrt(f)


# -- sqrt over Q[eps]/eps^k: no degree certificate, so every answer squares back -------

NIL_RINGS = (nilpotent_ring(2), nilpotent_ring(3), nilpotent_ring(4))


@pytest.mark.parametrize("ring", NIL_RINGS, ids=str)
@pytest.mark.parametrize("branch", (1, -1))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sqrt_over_nilpotent_squares_back(ring, branch, data):
    f, prec = data.draw(square_led(ring))
    root = sqrt(f, prec=prec, branch=branch)
    square = root * root
    assert square == f.truncate(square.prec)
    assert root == recurrence_sqrt(f, prec, branch)


@pytest.mark.parametrize("ring", NIL_RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sqrt_over_nilpotent_recovers_exact_roots(ring, data):
    """c^2 for c with a rational lead: the root with that lead is c, exact
    when the window reaches deg c and cut to the window otherwise."""
    c, prec = data.draw(square_led(ring))
    c = LaurentSeries.build(ring, dict(c.terms), None)
    v, top = c.terms[0][0], c.terms[-1][0]
    want = c if top < v + prec else c.truncate(v + prec)
    assert sqrt(c * c, prec=prec) == want
    assert sqrt(c * c, prec=prec, branch=-1) == -want


@pytest.mark.parametrize("k", (2, 3, 4))
def test_sqrt_of_one_plus_eps_z_squared_is_exact(k):
    ring = nilpotent_ring(k)
    c = LaurentSeries.build(ring, {0: 1, 1: Coeff.eps(ring)})
    f = c * c  # 1 + 2 eps z + eps^2 z^2: degree 1 over eps^2 though deg c = 1
    assert f.terms[-1][0] == (1 if k == 2 else 2)
    assert sqrt(f) == c
    assert sqrt(f, prec=1) == c.truncate(1)


def test_sqrt_lead_with_an_eps_part_is_rejected():
    ring = nilpotent_ring(2)
    with pytest.raises(NoRationalSquareRoot, match="not a plain rational"):
        sqrt(LaurentSeries.build(ring, {0: Coeff.nil(ring, [9, 1]), 1: 1}))


# -- sympy's ring series as an independent oracle -----------------------------------


@st.composite
def rational_polys(draw, square_lead):
    if square_lead:
        a0 = draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)) ** 2
    else:
        a0 = draw(small.filter(bool))
    rest = draw(st.lists(small, max_size=10))
    return [a0] + rest, draw(windows)


def _sympy_series(poly, op, n):
    """op(poly) mod z^n by sympy.polys.ring_series, as {exponent: Fraction}."""
    from sympy import QQ
    from sympy.polys.ring_series import rs_nth_root, rs_series_inversion
    from sympy.polys.rings import ring

    _, z = ring("z", QQ)
    p = sum((QQ(c.numerator, c.denominator) * z**i for i, c in enumerate(poly)), z * 0)
    out = rs_series_inversion(p, z, n) if op == "invert" else rs_nth_root(p, 2, z, n)
    # sympy may return terms past z^(n-1) at tiny n; keep those below z^n
    return {e: Fraction(int(c.numerator), int(c.denominator))
            for (e,), c in out.terms() if e < n}


@pytest.mark.parametrize("op", ("invert", "sqrt"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_agrees_with_sympy(op, data):
    poly, n = data.draw(rational_polys(op == "sqrt"))
    f = LaurentSeries.build(RATIONAL, dict(enumerate(poly)))
    got = f.invert(n) if op == "invert" else sqrt(f, prec=n)
    want = _sympy_series(poly, op, n)
    assert {e: c.as_fraction() for e, c in got.terms if e < n} == want


@st.composite
def laurent_quotients(draw):
    """(a, b): exact Laurent polynomials over Q, b with a unit lead."""
    a = {e: draw(small) for e in draw(st.sets(st.integers(-5, 6), max_size=5))}
    vb = draw(st.integers(-3, 3))
    b = {vb: draw(small.filter(bool))}
    for e in draw(st.sets(st.integers(vb + 1, vb + 5), max_size=3)):
        b[e] = draw(small)
    return a, b


@given(laurent_quotients())
@settings(max_examples=30, deadline=None)
def test_residue_agrees_with_sympy(ab):
    import sympy

    a, b = ab
    fa = LaurentSeries.build(RATIONAL, a)
    fb = LaurentSeries.build(RATIONAL, b)
    # fb.invert(n) is known below n - v(b); times fa, below n - v(b) + v(a),
    # so n >= v(b) - v(a) certifies the coefficient at z^-1
    va = fa.ord_min() if fa.ord_min() is not None else 0
    n = max(1, fb.valuation() - va)
    got = (fa * fb.invert(n)).residue().as_fraction()
    z = sympy.Symbol("z")

    def expr(terms):
        return sum((sympy.Rational(c.numerator, c.denominator) * z**e
                    for e, c in terms.items()), sympy.Integer(0))

    want = sympy.residue(expr(a) / expr(b), z, 0)
    assert got == Fraction(int(want.p), int(want.q))
