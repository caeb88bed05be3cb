from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

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
    assert dict(nf.pos) == {1: Coeff.const(RATIONAL, 3)}
    assert nf.prec is None


def test_factor_nilpotent_negative_part():
    # z^-1 + eps = z^-1 (1 + eps z): the eps term sits below the order
    alpha = N({-1: nil3(1), 0: nil3(0, 1)})
    nf = factor(alpha)
    assert nf.order == -1
    assert nf.neg == ()
    assert dict(nf.pos) == {1: nil3(0, -1)}
    assert reconstruct(nf) == alpha

    # eps z^-1 + 1 = (1 - (-eps) z^-1): a genuine negative factor
    beta = N({-1: nil3(0, 1), 0: nil3(1)})
    nf = factor(beta)
    assert nf.order == 0
    assert dict(nf.neg) == {1: nil3(0, -1)}
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


def test_exact_round_trip_seed_226():
    # dividing by (1 - b z^3), b nilpotent, leaves an exact quotient of
    # degree up to deg(p) + (k - 1) * 3, past max(deg(p), 96) + 3
    nf = NormalForm(
        NIL3,
        nil3(-1, -6, Fraction(-4, 3)),
        1,
        ((1, nil3(0, Fraction(5, 3), 5)),),
        (
            (3, nil3(0, Fraction(1, 4), 5)),
            (23, nil3(Fraction(-3, 2), 2, -2)),
            (68, nil3(Fraction(2, 3), Fraction(-1, 4), 2)),
            (92, nil3(0, 0, 6)),
        ),
    )
    assert factor(reconstruct(nf), prec=96) == nf


@st.composite
def windowed_normal_forms(draw):
    """(nf, w): an exact form over Q[eps]/eps^k, k = 2..4, whose positive
    degrees lie below w; positive coefficients are often nilpotent."""
    k = draw(st.integers(2, 4))
    ring = nilpotent_ring(k)
    w = draw(st.integers(2, 8))

    def coeff(c0):
        return Coeff.nil(ring, [c0] + draw(st.lists(fractions, min_size=k - 1, max_size=k - 1)))

    unit = coeff(draw(fractions.filter(bool)))
    neg = {}
    for i in draw(st.sets(st.integers(1, 3))):
        c = coeff(0)
        if not c.is_zero():
            neg[i] = c
    pos = {}
    for j in draw(st.sets(st.integers(1, w - 1))):
        c = coeff(0 if draw(st.booleans()) else draw(fractions))
        if not c.is_zero():
            pos[j] = c
    order = draw(st.integers(-3, 3))
    return NormalForm(ring, unit, order, tuple(sorted(neg.items())), tuple(sorted(pos.items()))), w


@given(windowed_normal_forms())
@settings(max_examples=150, deadline=None)
def test_exact_round_trip_within_window(case):
    nf, w = case
    assert factor(reconstruct(nf), prec=w) == nf


def untruncated(nf, prec=None):
    """Every binomial multiplied exactly, then one cut."""
    ring = nf.ring
    out = LaurentSeries.monomial(ring, nf.order, nf.unit)
    for i, a in nf.neg:
        out = out * LaurentSeries.build(ring, {0: Coeff.one(ring), -i: -a})
    for j, b in nf.pos:
        out = out * LaurentSeries.build(ring, {0: Coeff.one(ring), j: -b})
    return out.truncate(prec if prec is not None else nf.prec)


@st.composite
def factored_series(draw):
    """A form from ``factor`` of a random series over Q or Q[eps]/eps^3,
    exact or known below a random precision, and a cut or None."""
    ring = draw(st.sampled_from([RATIONAL, NIL3]))

    def coeff(unit=False):
        c0 = draw(fractions.filter(bool) if unit else fractions)
        if ring == RATIONAL:
            return Coeff.const(ring, c0)
        return nil3(c0, draw(fractions), draw(fractions))

    v = draw(st.integers(-3, 3))
    terms = {v: coeff(unit=True)}
    for e in draw(st.sets(st.integers(v + 1, v + 12), max_size=6)):
        terms[e] = coeff()
    if ring == NIL3 and draw(st.booleans()):
        terms[v - 1] = nil3(0, draw(fractions), draw(fractions))
    prec = draw(st.one_of(st.none(), st.integers(v + 1, v + 14)))
    try:
        nf = factor(LaurentSeries.build(ring, terms, prec), prec=draw(st.integers(1, 12)))
    except InsufficientPrecision:
        # e.g. eps^2 z^-1 + 1 + O(z): too short to certify the constant
        # term after the negative factors, so there is no form to rebuild
        reject()
    return nf, draw(st.one_of(st.none(), st.integers(v - 6, v + 16)))


@given(factored_series())
@settings(max_examples=100, deadline=None)
def test_truncated_reconstruct_matches_the_full_product(case):
    nf, cut = case
    assert reconstruct(nf if cut is None else nf._replace(prec=cut)) == untruncated(nf, prec=cut)


# -- many nilpotent negative terms ----------------------------------------------
#
# Peeling cancels one negative term per round; over eps^3 a round also
# leaves eps^2 terms further down, so 20 terms take a few hundred rounds.


def _negative_eps_terms(n):
    return " + ".join([f"eps*z^-{j}" for j in range(1, n + 1)]) + " + 1"


def test_factor_eps_z_to_the_minus_1_through_minus_20_plus_1():
    from curveloops.cli import run
    from curveloops.parser import parse_series

    text = _negative_eps_terms(20)
    alpha = parse_series(text)
    assert alpha.ring == NIL3
    nf = factor(alpha)
    assert nf.prec is None
    assert reconstruct(nf) == alpha
    code, _ = run(["factor", text])
    assert code == 0


def test_factor_ring_nilpotent_2_eps_z_to_the_minus_1_through_minus_250_plus_1():
    from curveloops.parser import parse_series

    alpha = parse_series(_negative_eps_terms(250), nilpotent_ring(2))
    nf = factor(alpha)
    assert nf.prec is None
    assert len(nf.neg) == 250
    assert reconstruct(nf) == alpha
