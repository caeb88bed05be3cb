from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from curveloops.errors import NotAUnit, ParseError, RingMismatch
from curveloops.ring import (
    POLY,
    RATIONAL,
    Coeff,
    format_coeff,
    nilpotent_ring,
    parse_ring,
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


def test_a_ring_is_its_truncation_order():
    """Q is the truncated ring of order 1, without nilpotents and without
    eps; every ring's name reads back as the ring."""
    assert RATIONAL.order == 1
    assert not RATIONAL.has_nilpotents
    assert POLY.order is None and not POLY.has_nilpotents
    assert all(nilpotent_ring(k).has_nilpotents for k in range(2, 7))
    with pytest.raises(RingMismatch):
        Coeff.eps(RATIONAL)
    for ring in [RATIONAL, POLY] + [nilpotent_ring(k) for k in range(2, 7)]:
        assert parse_ring(str(ring)) == ring
    assert [r.kind for r in (RATIONAL, nilpotent_ring(4), POLY)] == ["rational", "nilpotent", "poly"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("nilpotent:1", "nilpotency order must be an integer >= 2 in 'nilpotent:1' (at position 10)"),
        ("nilpotent:x", "nilpotency order must be an integer >= 2 in 'nilpotent:x' (at position 10)"),
        ("bogus", "unknown ring 'bogus' (at position 0)"),
    ],
)
def test_parse_ring_rejects_what_names_no_ring(text, message):
    with pytest.raises(ParseError) as info:
        parse_ring(text)
    assert str(info.value) == message


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        Coeff.one(RATIONAL) + Coeff.one(NIL3)


def test_specialize_and_reduce():
    c = Coeff.poly([1, 2, 1])  # (1 + t)^2
    assert c.specialize(3) == Coeff.const(RATIONAL, 16)
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
    assert Coeff.poly([1, 1]) * Coeff.poly([1, -1]) == Coeff.poly([1, 0, -1])
    assert Coeff.poly((1, 0, 1)).specialize(Fraction(2)).as_fraction() == 5


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
def test_specialize_matches_fraction_horner(a, x):
    for t0 in (x, x.numerator):
        assert Coeff.poly(a).specialize(t0).as_fraction() == fraction_horner(a, t0)


AXIOM_RINGS = [nilpotent_ring(k) for k in (2, 3, 4, 5)] + [POLY]


def coeffs(ring):
    if ring == POLY:
        return st.lists(fractions, max_size=4).map(Coeff.poly)
    k = ring.order
    return st.lists(fractions, min_size=k, max_size=k).map(lambda cs: Coeff.nil(ring, cs))


def assert_canonical(c):
    """The storage invariants of a ``Coeff`` (see ``ring.canonical``)."""
    assert all(isinstance(v, int) for v in c.payload)
    assert c.den > 0
    assert gcd(c.den, *c.payload) == 1
    if c.ring == POLY:
        assert not c.payload or c.payload[-1] != 0
    else:
        assert len(c.payload) == c.ring.order


@pytest.mark.parametrize("ring", AXIOM_RINGS, ids=str)
@given(data=st.data())
def test_coeff_ring_axioms(ring, data):
    x, y, z = (data.draw(coeffs(ring)) for _ in range(3))
    results = [x, y, z, x * (y + z), x * y + x * z, x * y, y * x, (x * y) * z, x * (y * z), x - y]
    assert results[3] == results[4]
    assert results[5] == results[6]
    assert results[7] == results[8]
    if x.is_unit():
        results += [x.invert(), x * x.invert()]
        assert x * x.invert() == Coeff.one(ring)
    values = [a.data for a in results]
    for a, da in zip(results, values):
        assert_canonical(a)
        for b, db in zip(results, values):
            assert (a == b) == (da == db)
