from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.errors import InsufficientPrecision, NotInvertible
from curveloops.normal_form import NormalForm, factor, order_of, reconstruct
from curveloops.ring import RATIONAL, Coeff, nilpotent_ring
from curveloops.series import LaurentSeries

NIL3 = nilpotent_ring(3)

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def S(terms, prec=None, ring=RATIONAL):
    return LaurentSeries.build(ring, terms, prec)


def N(terms, prec=None):
    return LaurentSeries.build(NIL3, terms, prec)


def nil3(c0=0, c1=0, c2=0):
    return Coeff.nil(NIL3, [c0, c1, c2])


def test_factor_polynomial_oracle():
    # 2z^2 - 6z^3 = 2 z^2 (1 - 3z), exactly
    nf = factor(S({2: 2, 3: -6}))
    assert nf.unit.as_fraction() == 2
    assert nf.order == 2
    assert nf.neg == ()
    assert nf.pos_dict() == {1: Coeff.const(RATIONAL, 3)}
    assert nf.prec is None


def test_factor_nilpotent_negative_part():
    # z^-1 + eps = z^-1 (1 + eps z): the eps term sits below the order
    alpha = N({-1: nil3(1), 0: nil3(0, 1)})
    nf = factor(alpha)
    assert nf.order == -1
    assert nf.neg == ()
    assert nf.pos_dict() == {1: nil3(0, -1)}
    assert reconstruct(nf) == alpha

    # eps z^-1 + 1 = (1 - (-eps) z^-1): a genuine negative factor
    beta = N({-1: nil3(0, 1), 0: nil3(1)})
    nf = factor(beta)
    assert nf.order == 0
    assert nf.neg_dict() == {1: nil3(0, -1)}
    assert nf.pos == ()
    assert reconstruct(nf) == beta


def test_factor_rejects_noninvertible():
    from curveloops.errors import ZeroSeries

    with pytest.raises(ZeroSeries):
        factor(N({0: nil3(0, 1)}))  # eps is zero mod the nilradical
    # non-nilpotent coefficient below the order, over Q[t]
    from curveloops.ring import Coeff as C, POLY

    alpha = LaurentSeries.build(POLY, {0: C.t(), 1: C.one(POLY)})
    with pytest.raises(NotInvertible):
        factor(alpha)


def test_factor_precision_lost_to_negative_factors():
    # eps z^-1 + 1 + O(z): peeling (1 + eps z^-1) leaves 1 + O(z^0), whose
    # constant term is unknown; that is a precision failure, not a non-unit
    k2 = nilpotent_ring(2)
    alpha = LaurentSeries.build(k2, {-1: Coeff.eps(k2), 0: 1}, 1)
    with pytest.raises(InsufficientPrecision):
        factor(alpha)


def test_order_is_valuation_mod_nilradical():
    assert order_of(N({-1: nil3(0, 1), 0: nil3(1)})) == 0
    assert order_of(S({3: 5, 7: 1})) == 3
    # eps z^-1 + eps^2 + z is invertible with order 1
    assert order_of(N({-1: nil3(0, 1), 0: nil3(0, 0, 1), 1: nil3(1)})) == 1


def test_factor_inexact_tracks_precision():
    nf = factor(S({1: 1, 2: 1}, prec=6))
    assert nf.prec == 6
    assert reconstruct(nf) == S({1: 1, 2: 1}, prec=6)


def test_reconstruct_explicit():
    nf = NormalForm(
        NIL3,
        nil3(2),
        -1,
        ((1, nil3(0, 1)),),
        ((2, nil3(3)),),
    )
    expected = (
        LaurentSeries.monomial(NIL3, -1, nil3(2))
        * N({0: nil3(1), -1: nil3(0, -1)})
        * N({0: nil3(1), 2: nil3(-3)})
    )
    assert reconstruct(nf) == expected
    assert factor(expected) == nf


@st.composite
def exact_normal_forms(draw):
    unit = nil3(
        draw(fractions.filter(bool)), draw(fractions), draw(fractions)
    )
    order = draw(st.integers(-3, 3))
    neg = {}
    for i in (1, 2, 3):
        if draw(st.booleans()):
            neg[i] = nil3(0, draw(fractions.filter(bool)), draw(fractions))
    pos = {}
    for j in (1, 2, 3):
        if draw(st.booleans()):
            c = nil3(draw(fractions), draw(fractions), draw(fractions))
            if not c.is_zero():
                pos[j] = c
    return NormalForm(NIL3, unit, order, tuple(sorted(neg.items())), tuple(sorted(pos.items())))


@given(exact_normal_forms())
@settings(max_examples=60, deadline=None)
def test_factor_is_left_inverse_of_reconstruct(nf):
    alpha = reconstruct(nf)
    assert factor(alpha) == nf


def test_order_additivity_spot():
    a = N({-2: nil3(0, 0, 1), -1: nil3(3), 0: nil3(1, 1)})
    b = N({1: nil3(0, 1), 2: nil3(-2)})
    assert order_of(a * b) == order_of(a) + order_of(b) == 1
