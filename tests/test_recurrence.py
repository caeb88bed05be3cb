"""Miller's formula (``series._miller``) against Newton's steps, the O(n^2)
references of ``test_newton`` and repeated multiplication; the cost rules
that choose between them, pinned by counting kernel products and Newton
steps."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from curveloops import cli, lift_x, make_curve, ring as ring_module, series
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring
from curveloops.series import LaurentSeries, sqrt
from test_newton import entries, recurrence_invert, recurrence_sqrt, small, windows

RINGS = (RATIONAL, POLY) + tuple(nilpotent_ring(k) for k in (2, 3, 4, 5))


def coeff(draw, ring, unit=False):
    """A coefficient of ``ring``; with ``unit``, a unit, over Q[eps]/eps^k
    with an eps part."""
    if unit:
        lead = draw(small.filter(bool))
        if ring.has_nilpotents:
            return Coeff.nil(ring, [lead] + [draw(entries) for _ in range(ring.order - 1)])
        return Coeff.const(ring, lead)
    if ring == RATIONAL:
        return Coeff.const(ring, draw(entries))
    if ring == POLY:
        return Coeff.poly(draw(st.lists(entries, max_size=4)))
    return Coeff.nil(ring, draw(st.lists(entries, min_size=ring.order, max_size=ring.order)))


@st.composite
def operands(draw, ring, lead=None):
    """(f, window): f has a unit lowest term at an even exponent v and
    either a few more terms, where Miller's formula is the cheaper path,
    or a dense run of up to 40 (6 over Q[t], whose rows widen), where
    Newton's steps are; f is exact or known below v + 1 .. v + 40."""
    v = 2 * draw(st.integers(-3, 3))
    terms = {v: coeff(draw, ring, unit=True) if lead is None else lead}
    if draw(st.booleans()):
        exps = draw(st.sets(st.integers(v + 1, v + 39), max_size=3))
    else:
        exps = range(v + 1, v + draw(st.integers(2, 6 if ring == POLY else 40)))
    for e in exps:
        terms[e] = coeff(draw, ring)
    prec = draw(st.one_of(st.none(), windows.map(lambda w: v + w)))
    return LaurentSeries.build(ring, terms, prec), draw(windows)


def relative(f, window):
    """(g, rel): the rows of z^-v f below z^rel over f's denominator, and
    rel, the window of ``invert`` and ``sqrt``."""
    v = f.rows[0][0]
    rel = f.prec - v if f.prec is not None else window
    return (f.den, [(e - v, p) for e, p in f.rows if e - v < rel]), rel


def miller_pays(ring, g, rel, products):
    return series._miller_cost(ring, g[1], rel) < series._newton_cost(ring, g[1], rel, products)


# -- both paths of invert and sqrt, term for term ---------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_invert_paths_agree(ring, data):
    f, window = data.draw(operands(ring))
    g, rel = relative(f, window)
    inverse = Coeff(ring, g[0], g[1][0][1]).invert()
    miller = series._miller(ring, g, Fraction(-1), inverse, rel)
    assert miller == series._newton_inverse(ring, g, inverse, rel)
    got = f.invert(window)
    assert got == recurrence_invert(f, window)
    v = f.rows[0][0]
    assert (got.den, got.rows) == (miller[0], tuple([(e - v, p) for e, p in miller[1]]))


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("branch", (1, -1))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_sqrt_paths_agree(ring, branch, data):
    root = data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    f, window = data.draw(operands(ring, Coeff.const(ring, root * root)))
    g, rel = relative(f, window)
    sign = root if branch > 0 else -root
    miller = series._miller(ring, g, Fraction(1, 2), Coeff.const(ring, sign), rel)
    assert miller == series._newton_sqrt(ring, g, sign, rel)
    got = sqrt(f, prec=window, branch=branch)
    assert got == recurrence_sqrt(f, window, branch)
    if got.prec is not None:  # no exact root: the rows are the computed terms
        v = f.rows[0][0] // 2
        assert (got.den, got.rows) == (miller[0], tuple([(e + v, p) for e, p in miller[1]]))


def test_rules_pick_each_side():
    """Short operands take Miller's formula and long ones Newton's steps,
    and both give the reference's terms."""
    short = LaurentSeries.build(RATIONAL, {0: 1, 1: -1, 3: Fraction(2, 3)})
    dense = LaurentSeries.build(RATIONAL, {e: Fraction(e + 1, e + 2) for e in range(96)})
    nil = nilpotent_ring(3)
    short_nil = LaurentSeries.build(nil, {0: Coeff.nil(nil, [2, 1, -1]), 2: Coeff.nil(nil, [1, 0, 5])})
    for f, window, products, want in ((short, 24, 2, True), (dense, 96, 2, False),
                                      (short_nil, 24, 2, True), (short, 24, 4, True),
                                      (dense, 96, 4, False)):
        g, rel = relative(f, window)
        assert miller_pays(f.ring, g, rel, products) is want
        assert f.invert(window) == recurrence_invert(f, window)


# -- powers --------------------------------------------------------------------------------


@st.composite
def short_exact(draw, ring):
    """An exact f with a unit lowest coefficient and up to 3 more terms."""
    v = draw(st.integers(-3, 3))
    terms = {v: coeff(draw, ring, unit=True)}
    for e in draw(st.sets(st.integers(v + 1, v + 6), min_size=1, max_size=3)):
        terms[e] = coeff(draw, ring)
    return LaurentSeries.build(ring, terms)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_power_matches_repeated_multiplication(ring, data):
    f = data.draw(short_exact(ring))
    n = data.draw(st.integers(2, 9))
    want = f
    for _ in range(n - 1):
        want = want * f
    assert f ** n == want


@pytest.mark.parametrize("n", (2, 3, 17, 100, 1000, 4000))
def test_binomial_powers(n):
    got = LaurentSeries.build(RATIONAL, {0: 1, 1: 1}) ** n
    assert got == LaurentSeries.from_rows(RATIONAL, 1, [(k, (comb(n, k),)) for k in range(n + 1)], None)


@pytest.mark.parametrize("n", (2, 17, 300))
def test_power_denominator_is_the_coefficients(n):
    """(1/2 + z/3)^n keeps the denominator 6^n its coefficients need, not
    one that grows with n! as a shared one would."""
    got = LaurentSeries.build(RATIONAL, {0: Fraction(1, 2), 1: Fraction(1, 3)}) ** n
    assert got.den == 6**n
    assert [c.as_fraction() for _, c in got.terms] == [
        Fraction(comb(n, k), 2 ** (n - k) * 3**k) for k in range(n + 1)]


def test_power_of_a_short_series_matches_squaring():
    """An exact two-term power goes through Miller's formula; the same
    power of an inexact copy, known past its degree, goes through the
    squarings."""
    f = LaurentSeries.build(RATIONAL, {-1: 3, 2: Fraction(-5, 7)})
    assert (f ** 40).truncate(200) == (f.truncate(500) ** 40).truncate(200)


# -- the cost rules, pinned by counting ----------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kronecker = ring_module._kronecker
    monkeypatch.setattr(ring_module, "_kronecker", lambda *a: calls.append(a) or kronecker(*a))
    return calls


@pytest.mark.parametrize("text", ("1 - z", "2*z^2 - 6*z^3"))
def test_small_factor_runs_no_kernel_product(kernel_calls, text):
    code, _ = cli.run(["factor", text])
    assert code == 0 and kernel_calls == []


def test_poly_lift_still_runs_newton(monkeypatch):
    """An order-2 pole on y^2 = x^4 - 1 over Q[t] at prec 24, the shape of
    the Q[t] families' lifts: its rows widen with the exponent, so the
    coupled Newton iteration runs, with its inverse steps."""
    steps = []
    step = series._inverse_step
    monkeypatch.setattr(series, "_inverse_step", lambda *a: steps.append(1) or step(*a))
    x = LaurentSeries.build(POLY, {
        -2: 1,
        -1: Coeff.poly([Fraction(1, 2), 3]),
        0: Coeff.poly([-2, Fraction(5, 3)]),
        1: Coeff.poly([Fraction(-3, 4), 1]),
    })
    loop = lift_x(make_curve("hyp", [-1, 0, 0, 0, 1]), x, prec=24)
    assert steps
    assert loop.y.prec - loop.y.ord_min() == 24

