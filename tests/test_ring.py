from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curveloops.errors import NotAUnit, RingMismatch
from curveloops.ring import (
    POLY,
    RATIONAL,
    Coeff,
    format_coeff,
    nilpotent_ring,
    poly_eval,
    poly_mul,
)

NIL3 = nilpotent_ring(3)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def nil3(c0=0, c1=0, c2=0):
    return Coeff.nil(NIL3, [c0, c1, c2])


def test_nilpotent_truncation():
    # (1 + eps)(1 - eps) = 1 - eps^2; one more eps kills the product entirely
    a = nil3(1, 1)
    b = nil3(1, -1)
    assert a * b == nil3(1, 0, -1)
    assert Coeff.eps(NIL3) * Coeff.eps(NIL3, 2) == Coeff.zero(NIL3)


def test_invert_one_plus_eps():
    a = nil3(1, 1)
    assert a.invert() == nil3(1, -1, 1)
    assert a * a.invert() == Coeff.one(NIL3)


def test_invert_requires_unit_constant_term():
    with pytest.raises(NotAUnit):
        Coeff.eps(NIL3).invert()
    with pytest.raises(NotAUnit):
        Coeff.zero(RATIONAL).invert()
    with pytest.raises(NotAUnit):
        Coeff.t().invert()


def test_unit_and_nilpotent_predicates():
    assert nil3(2, 5).is_unit()
    assert not nil3(0, 5).is_unit()
    assert nil3(0, 5, -1).is_nilpotent()
    assert not nil3(1, 5).is_nilpotent()
    assert Coeff.zero(RATIONAL).is_nilpotent()
    assert not Coeff.t().is_unit()
    assert Coeff.poly([3]).is_unit()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        Coeff.one(RATIONAL) + Coeff.one(NIL3)


def test_specialize_and_reduce():
    c = Coeff.poly([1, 2, 1])  # (1 + t)^2
    assert c.specialize(3) == Coeff.const(RATIONAL, 16)
    assert nil3(5, 7).reduce_mod_nilradical() == Coeff.const(RATIONAL, 5)
    assert c.poly_degree() == 2


def test_as_fraction():
    assert Coeff.const(RATIONAL, Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert Coeff.poly([Fraction(5)]).as_fraction() == 5
    with pytest.raises(RingMismatch):
        Coeff.t().as_fraction()


def test_format_coeff():
    assert format_coeff(Coeff.const(RATIONAL, Fraction(-1, 2))) == "-1/2"
    assert format_coeff(nil3(1, -1, 1)) == "1 - eps + eps^2"
    assert format_coeff(Coeff.eps(NIL3, 2, -1)) == "-eps^2"
    assert format_coeff(Coeff.poly([0, 1])) == "t"
    assert format_coeff(Coeff.zero(POLY)) == "0"


def test_poly_helpers():
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_eval((1, 0, 1), Fraction(2)) == 5


def fraction_horner(a, x):
    """a(x) by Horner's rule over Fractions."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


wide = st.one_of(
    fractions,
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**25)),
)


@given(st.lists(wide, max_size=9), wide)
def test_poly_eval_matches_fraction_horner(a, x):
    assert poly_eval(tuple(a), x) == fraction_horner(a, x)
    assert poly_eval(tuple(a), x.numerator) == fraction_horner(a, x.numerator)


@given(
    st.tuples(fractions, fractions, fractions),
    st.tuples(fractions, fractions, fractions),
    st.tuples(fractions, fractions, fractions),
)
def test_nilpotent_ring_axioms(a, b, c):
    x, y, z = (nil3(*v) for v in (a, b, c))
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    if x.is_unit():
        assert x * x.invert() == Coeff.one(NIL3)
