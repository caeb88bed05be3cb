from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.components import (
    QuotientClass,
    _specialize_loop,
    classify_family,
    pi0_census,
    quotient_class,
)
from curveloops.curves import (
    ComponentClass,
    Loop,
    check_on_curve,
    classify_loop,
    cover_loop,
    lift_x,
    make_curve,
)
from curveloops.errors import LoopSpaceError
from curveloops.ring import POLY, RATIONAL, Coeff
from curveloops.series import LaurentSeries


def test_census_counts():
    assert pi0_census(make_curve("a1")) == 1
    assert pi0_census(make_curve("gm")) == 3
    assert pi0_census(make_curve("hyp", (1, 0, 0, 1))) == 2
    assert pi0_census(make_curve("hyp", (-1, 0, 0, 0, 1))) == 3
    assert pi0_census(make_curve("hyp", (1, 0, 0, 0, 0, 1))) == 2


def test_quotient_class_forgets_order():
    a = ComponentClass.pole("infinity", 2)
    b = ComponentClass.pole("infinity", 5)
    assert quotient_class(a) == quotient_class(b) == QuotientClass.at_puncture("infinity")
    assert quotient_class(ComponentClass.arc()) == QuotientClass.arc()
    with pytest.raises(ValueError):
        quotient_class(ComponentClass.a1(True))


def test_family_jump_at_zero():
    a1 = make_curve("a1")
    x = LaurentSeries.build(POLY, {1: 1, -1: Coeff.t()})
    result = classify_family(Loop(a1, x), (0, 1, 2))
    assert result.generic == ComponentClass.a1(True)
    assert result.jumps == (Fraction(0),)
    assert result.fibers[0].component == ComponentClass.a1(False)


def test_family_without_jumps():
    gm = make_curve("gm")
    x = LaurentSeries.build(POLY, {-2: Coeff.const(POLY, 3), -1: Coeff.t(), 0: Coeff.t(2)})
    result = classify_family(Loop(gm, x), (-1, 0, 1, 7))
    assert result.jumps == ()
    assert result.generic == ComponentClass.pole("infinity", 2)


def test_family_fiber_errors_are_jumps():
    gm = make_curve("gm")
    # x = t + z: the t = 0 fiber starts with z, fine; but x = t - t = 0 never
    # happens here, so force a fiber off the curve instead: x = t*z
    x = LaurentSeries.build(POLY, {1: Coeff.t()})
    result = classify_family(Loop(gm, x), (0, 1))
    assert result.fibers[0].error is not None
    assert result.fibers[1].component == ComponentClass.pole("0", 1)
    assert Fraction(0) in result.jumps


def test_family_on_hyperelliptic():
    hyp = make_curve("hyp", (1, 0, 0, 1))
    x = LaurentSeries.build(POLY, {-2: Coeff.const(POLY, 4), -1: Coeff.t()})
    loop = lift_x(hyp, x)
    result = classify_family(loop, (0, 1, 2))
    assert result.jumps == ()
    assert result.generic == ComponentClass.pole("infinity", 1)


def test_family_requires_poly_ring():
    gm = make_curve("gm")
    x = LaurentSeries.build(RATIONAL, {1: 1})
    with pytest.raises(ValueError):
        classify_family(Loop(gm, x), (0, 1))


# -- marked fibers against the full check ---------------------------------------------

FIBER_TS = tuple(Fraction(t) for t in range(-3, 4)) + (Fraction(1, 2), Fraction(-1, 2))
small = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def poly_lifts(draw):
    """A lift over Q[t] on x^3 + 1 or x^4 - 1: a pole at infinity, or on
    x^3 + 1 an arc through (0, +-1) or (2, +-3); x is exact or known below
    1 to 40 terms past its lowest exponent, the lift precision 1 to 40."""
    odd = draw(st.booleans())
    curve = make_curve("hyp", (1, 0, 0, 1) if odd else (-1, 0, 0, 0, 1))
    c = draw(small.filter(bool))
    if odd and draw(st.booleans()):
        low, terms = 0, {0: Coeff.const(POLY, draw(st.sampled_from([0, 2]))), 1: Coeff.const(POLY, c)}
    else:
        low = -2 * draw(st.integers(1, 3)) if odd else -draw(st.integers(1, 3))
        terms = {low: Coeff.const(POLY, c * c)}
    for e in draw(st.sets(st.integers(low + 1, low + 12), max_size=4)):
        terms.setdefault(e, Coeff.poly(draw(st.lists(small, max_size=3))))
    precs = st.one_of(st.integers(1, 8), st.integers(1, 40))
    x_prec = draw(st.one_of(st.none(), precs.map(lambda k: low + k)))
    x = LaurentSeries.build(POLY, terms, x_prec)
    try:
        return lift_x(curve, x, branch=draw(st.sampled_from([1, -1])), prec=draw(precs))
    except LoopSpaceError:
        return None


@given(poly_lifts(), st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_fibers_of_a_marked_loop_pass_the_full_check(loop, n):
    if loop is None:
        return  # no lift
    loop = cover_loop(loop, n)
    for t0 in FIBER_TS:
        fiber = _specialize_loop(loop, t0)
        assert fiber._certified == loop._certified
        if fiber._certified:
            assert check_on_curve(Loop(fiber.curve, fiber.x, fiber.y))


# -- family fibers against the full specialisation ----------------------------------------

FAMILY_CURVES = {
    "a1": make_curve("a1"),
    "gm": make_curve("gm"),
    "odd": make_curve("hyp", (1, 0, 0, 1)),
    "even": make_curve("hyp", (-1, 0, 0, 0, 1)),
}


@st.composite
def family_loops(draw):
    """(loop over Q[t], t values): on a1 and gm an unchecked loop, on
    x^3 + 1 and x^4 - 1 a lift, marked or not, with y sometimes moved off
    the curve.  On a1, gm and through (0, +-1) on x^3 + 1 the lowest
    coefficient of x is b (t - root), which vanishes at a sampled root."""
    name = draw(st.sampled_from(sorted(FAMILY_CURVES)))
    curve = FAMILY_CURVES[name]
    root = draw(st.sampled_from(FIBER_TS))
    vanishing = Coeff.poly([-root, 1]).scale(draw(small.filter(bool)))
    c = draw(small.filter(bool))
    if name in ("a1", "gm"):
        low = draw(st.integers(-3, 3))
        terms = {low: vanishing if draw(st.booleans()) else Coeff.const(POLY, c)}
    elif name == "odd" and draw(st.booleans()):
        low, terms = 1, {1: vanishing}  # an arc through (0, +-1)
    elif name == "odd":
        low = -2 * draw(st.integers(1, 2))
        terms = {low: Coeff.const(POLY, c * c)}
    else:
        low = -draw(st.integers(1, 2))
        terms = {low: Coeff.const(POLY, c * c)}
    for e in draw(st.sets(st.integers(low + 1, low + 8), max_size=4)):
        terms.setdefault(e, Coeff.poly(draw(st.lists(small, max_size=3))))
    x_prec = draw(st.one_of(st.none(), st.integers(1, 20).map(lambda k: low + k)))
    x = LaurentSeries.build(POLY, terms, x_prec)
    if name in ("a1", "gm"):
        loop = Loop(curve, x)
    else:
        try:
            loop = lift_x(curve, x, branch=draw(st.sampled_from([1, -1])), prec=draw(st.integers(1, 24)))
        except LoopSpaceError:
            return None
        if draw(st.booleans()):
            y = loop.y
            if draw(st.booleans()):
                y = y + LaurentSeries.monomial(POLY, draw(st.integers(-6, 6)), Coeff.t())
            loop = Loop(curve, x, y)  # unmarked
    loop = cover_loop(loop, draw(st.sampled_from([1, 2])))
    return loop, (root,) + FIBER_TS


def _full_fiber(loop, t0):
    """(class, error) of the whole fiber: specialise every row, check it on
    the curve, classify it."""
    try:
        fiber = _specialize_loop(loop, t0)
        if not check_on_curve(fiber):
            return None, "fiber leaves the curve"
        return classify_loop(fiber), None
    except LoopSpaceError as exc:
        return None, str(exc)


@given(family_loops())
@settings(max_examples=120, deadline=None)
def test_family_fibers_match_the_full_specialisation(drawn):
    if drawn is None:
        return  # no lift
    loop, ts = drawn
    result = classify_family(loop, ts)
    for t0, fiber in zip(ts, result.fibers):
        assert (fiber.component, fiber.error) == _full_fiber(loop, t0), t0


@st.composite
def line_family_loops(draw):
    """(loop over Q[t] on a line minus S, t values).  The constant row of
    x is s + b (t - root) for a puncture s, so the fiber at the sampled
    root, or every fiber when b = 0, sits at s to first order; rows above
    it and one pole row may vanish at the root too."""
    finite = draw(st.lists(st.sampled_from(FIBER_TS), unique=True, min_size=1, max_size=3))
    root = draw(st.sampled_from(FIBER_TS))
    s, b = draw(st.sampled_from(finite)), draw(small)
    vanishing = Coeff.poly([-root, 1]).scale(draw(small.filter(bool)))
    terms = {0: Coeff.poly([s - b * root, b])}
    if draw(st.booleans()):
        terms[-draw(st.integers(1, 3))] = vanishing
    for e in draw(st.sets(st.integers(1, 6), max_size=3)):
        terms[e] = vanishing if draw(st.booleans()) else Coeff.poly(draw(st.lists(small, max_size=3)))
    x = LaurentSeries.build(POLY, terms, draw(st.one_of(st.none(), st.integers(1, 8))))
    return Loop(make_curve("line", finite), x), (root,) + FIBER_TS


@given(line_family_loops())
@settings(max_examples=150, deadline=None)
def test_line_family_fibers_match_the_full_specialisation(drawn):
    loop, ts = drawn
    result = classify_family(loop, ts)
    for t0, fiber in zip(ts, result.fibers):
        assert (fiber.component, fiber.error) == _full_fiber(loop, t0), t0
