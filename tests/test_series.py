from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.errors import (
    InsufficientPrecision,
    NoRationalSquareRoot,
    NotInvertible,
    OddValuation,
    RingMismatch,
    ZeroSeries,
)
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring
from curveloops.series import LaurentSeries, sqrt

NIL3 = nilpotent_ring(3)


def S(terms, prec=None, ring=RATIONAL):
    return LaurentSeries.build(ring, terms, prec)


# -- hypothesis strategies ------------------------------------------------------

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=8)


@st.composite
def rational_series(draw, min_exp=-4, max_exp=6):
    n = draw(st.integers(0, 5))
    exps = draw(st.lists(st.integers(min_exp, max_exp), min_size=n, max_size=n))
    terms = {e: draw(fractions) for e in exps}
    prec = draw(st.one_of(st.none(), st.integers(max_exp, max_exp + 3)))
    return S(terms, prec)


@st.composite
def invertible_series(draw):
    v = draw(st.integers(-3, 3))
    terms = {v: draw(fractions.filter(bool))}
    for e in range(v + 1, v + 5):
        terms[e] = draw(fractions)
    return S(terms)


# -- construction and canonicity ------------------------------------------------


def test_zero_terms_dropped():
    s = S({0: 0, 2: 1})
    assert s.terms == ((2, Coeff.one(RATIONAL)),)


def test_terms_beyond_prec_dropped():
    s = S({0: 1, 5: 7}, prec=3)
    assert s.coeff(5).is_zero()
    assert s.prec == 3


def test_equality_includes_precision():
    assert S({1: 1}) != S({1: 1}, prec=5)


def test_build_rejects_a_coeff_of_another_ring():
    with pytest.raises(RingMismatch):
        LaurentSeries.build(RATIONAL, {0: Coeff.one(NIL3)})
    with pytest.raises(RingMismatch):
        LaurentSeries.build(NIL3, {0: Coeff.one(nilpotent_ring(2))})


def test_build_drops_zero_terms_and_terms_at_or_past_prec():
    terms = {-1: Coeff.zero(NIL3), 0: 0, 1: Coeff.eps(NIL3, value=Fraction(1, 2)), 3: 5, 4: 1}
    s = LaurentSeries.build(NIL3, terms, 3)
    assert (s.den, s.rows, s.prec) == (2, ((1, (0, 1, 0)),), 3)
    assert LaurentSeries.build(POLY, {0: Coeff.zero(POLY), 2: 0}) == LaurentSeries.zero(POLY)


def _coeff_of_row(ring, den, payload):
    values = [Fraction(v, den) for v in payload]
    if ring == POLY:
        return Coeff.poly(values)
    if ring == RATIONAL:
        return Coeff.const(ring, values[0])
    return Coeff.nil(ring, values)


@pytest.mark.parametrize("ring", [RATIONAL, NIL3, POLY], ids=str)
@given(data=st.data())
@settings(max_examples=40)
def test_build_equals_from_rows_of_the_same_integers(ring, data):
    width = 3 if ring == POLY else ring.order or 1
    den = data.draw(st.integers(1, 12))
    exps = data.draw(st.lists(st.integers(-5, 5), unique=True, max_size=5))
    entries = st.lists(st.integers(-9, 9), min_size=width, max_size=width).map(tuple)
    rows = sorted([(e, data.draw(entries)) for e in exps])
    prec = data.draw(st.one_of(st.none(), st.integers(-5, 6)))
    built = LaurentSeries.build(ring, {e: _coeff_of_row(ring, den, p) for e, p in rows}, prec)
    below = [(e, p) for e, p in rows if prec is None or e < prec]
    assert built == LaurentSeries.from_rows(ring, den, below, prec)


# -- arithmetic ------------------------------------------------------------------


def test_add_takes_min_prec():
    a = S({0: 1}, prec=4)
    b = S({0: 2, 5: 1})
    assert (a + b).prec == 4
    assert (a + b).coeff(0).as_fraction() == 3


def test_mul_precision_window():
    a = S({2: 1}, prec=5)  # z^2 + O(z^5)
    b = S({-1: 1})  # exact z^-1
    assert (a * b).prec == 4
    assert (a * b).terms == ((1, Coeff.one(RATIONAL)),)


def test_pow_matches_repeated_mul():
    s = S({0: 1, 1: 2, 3: -1})
    assert s ** 3 == s * s * s
    assert s ** 0 == LaurentSeries.one(RATIONAL)


def _schoolbook(ring, a, b, hi):
    """{e: entries} of the product of two series below z^hi (None: no cut),
    from their ``Fraction`` entries, one pair of terms at a time."""
    out = {}
    for e, c in a.terms:
        for f, d in b.terms:
            if hi is not None and e + f >= hi:
                continue
            # an exponent is met by pairs of different lengths: grow to the longest
            entries = out.setdefault(e + f, [])
            entries += [Fraction(0)] * (len(c.data) + len(d.data) + 2 - len(entries))
            for i, x in enumerate(c.data):
                for j, y in enumerate(d.data):
                    entries[i + j] += x * y
    return out


def _from_entries(ring, entries):
    if ring == POLY:
        return Coeff.poly(entries)
    if ring == RATIONAL:
        return Coeff.const(ring, entries[0])
    return Coeff.nil(ring, entries)


@st.composite
def sparse_series(draw, ring):
    """An exact series with one row, one constant row, or a few rows with
    gaps up to 40, wider than the rows they separate."""
    shape = draw(st.sampled_from(["one row", "constant row", "rows"]))
    n = 1 if shape != "rows" else draw(st.integers(0, 5))
    gaps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    start = draw(st.integers(-30, 30))
    terms = {}
    for gap in gaps:
        if ring == RATIONAL or shape == "constant row":
            entries = [draw(fractions.filter(bool))]
        else:
            size = 3 if ring == NIL3 else draw(st.integers(1, 4))
            entries = draw(st.lists(fractions, min_size=size, max_size=size))
        terms[start + gap] = _from_entries(ring, entries)
        start += gap
    return S(terms, ring=ring)


@pytest.mark.parametrize("ring", [RATIONAL, NIL3, POLY], ids=str)
@given(data=st.data())
@settings(max_examples=80)
def test_products_match_the_schoolbook_product(ring, data):
    from curveloops.series import _mul_rows

    a = data.draw(sparse_series(ring))
    b = data.draw(st.one_of(st.just(a), sparse_series(ring)))
    hi = data.draw(st.one_of(st.none(), st.integers(-70, 90)))

    def expected(cut):
        terms = _schoolbook(ring, a, b, cut)
        return S({e: _from_entries(ring, v) for e, v in terms.items()}, cut, ring)

    assert a * b == expected(None)
    rows = _mul_rows(ring, a.rows, b.rows, hi)
    assert LaurentSeries.from_rows(ring, a.den * b.den, rows, hi) == expected(hi)
    q = data.draw(fractions)
    assert a.scale(Coeff.const(ring, q)) == a.scale(q) == a * S({0: q}, ring=ring)


@given(rational_series(), rational_series(), rational_series())
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.truncate(rhs.prec) == rhs.truncate(lhs.prec)


# -- valuation and inversion -----------------------------------------------------


def test_valuation_basic():
    assert S({-2: 1, 3: 5}).valuation() == -2
    with pytest.raises(ZeroSeries):
        LaurentSeries.zero(RATIONAL).valuation()
    with pytest.raises(InsufficientPrecision):
        S({}, prec=0).valuation()


def test_valuation_ignores_nilpotents():
    s = LaurentSeries.build(NIL3, {-1: Coeff.eps(NIL3), 0: Coeff.one(NIL3)})
    assert s.valuation() == 0


def test_invert_oracle():
    # (2z^2 - 6z^3)^-1 = 1/2 z^-2 + 3/2 z^-1 + 9/2 + 27/2 z + ...
    s = S({2: 2, 3: -6})
    inv = s.invert(prec=4)
    assert inv.coeff(-2).as_fraction() == Fraction(1, 2)
    assert inv.coeff(-1).as_fraction() == Fraction(3, 2)
    assert inv.coeff(0).as_fraction() == Fraction(9, 2)
    assert inv.coeff(1).as_fraction() == Fraction(27, 2)
    assert inv.prec == 2


def test_invert_rejects_nonunit_bottom():
    s = LaurentSeries.build(NIL3, {-1: Coeff.eps(NIL3), 0: Coeff.one(NIL3)})
    with pytest.raises(NotInvertible):
        s.invert()


@given(invertible_series())
@settings(max_examples=60)
def test_invert_roundtrip(s):
    prod = s * s.invert(prec=6)
    one = LaurentSeries.one(RATIONAL)
    assert prod == one.truncate(prod.prec)


# -- calculus ---------------------------------------------------------------------


def test_derivative_and_residue():
    s = S({-1: 3, 0: 5, 2: 1})
    assert s.derivative() == S({-2: -3, 1: 2})
    assert s.residue().as_fraction() == 3
    with pytest.raises(InsufficientPrecision):
        S({-1: 1}, prec=-1).residue()


def test_dlog_of_monomial():
    s = LaurentSeries.monomial(RATIONAL, 5, 3)
    assert s.dlog() == S({-1: 5})


def test_dlog_residue_is_valuation():
    s = S({2: 7, 3: 1, 5: -4})
    assert s.dlog(prec=4).residue().as_fraction() == 2


# -- covering, specialization ---------------------------------------


def test_covering_scales_exponents_and_prec():
    s = S({-1: 2, 3: 1}, prec=5)
    c = s.covering(3)
    assert dict(c.terms).keys() == {-3, 9}
    assert c.prec == 15


def test_covering_dlog_equivariance():
    s = S({2: 1, 3: 5, 4: -2})
    n = 4
    # (s o z^n)'/(s o z^n) = n z^(n-1) (s'/s)(z^n)
    lhs = s.covering(n).dlog(prec=8)
    rhs = s.dlog(prec=8).covering(n).scale(n).shift(n - 1)
    cut = min(lhs.prec, rhs.prec)
    assert lhs.truncate(cut) == rhs.truncate(cut)


def test_specialize():
    from curveloops.ring import POLY

    s = LaurentSeries.build(POLY, {0: Coeff.t(), 1: Coeff.poly([1, -1])})
    at2 = s.specialize(2)
    assert at2 == S({0: 2, 1: -1})


# -- square roots -------------------------------------------------------------------


def test_sqrt_exact_square():
    s = S({0: 1, 1: 2, 2: 1})  # (1 + z)^2
    assert sqrt(s) == S({0: 1, 1: 1})
    assert sqrt(s, branch=-1) == S({0: -1, 1: -1})


def test_sqrt_formal():
    r = sqrt(S({0: 1, 1: 1}), prec=4)
    assert r * r == S({0: 1, 1: 1}, prec=4).truncate((r * r).prec)
    assert r.coeff(1).as_fraction() == Fraction(1, 2)
    assert r.coeff(2).as_fraction() == Fraction(-1, 8)


def test_sqrt_even_valuation_required():
    with pytest.raises(OddValuation):
        sqrt(S({1: 1}))
    with pytest.raises(NoRationalSquareRoot):
        sqrt(S({0: 2}))


@given(invertible_series())
@settings(max_examples=40)
def test_sqrt_squares_back(s):
    sq = s * s
    r = sqrt(sq, prec=5)
    assert (r * r) == sq.truncate((r * r).prec)


# -- products with a single-entry row ----------------------------------------------


@pytest.mark.parametrize("text", ["3*z^-2 + 1/2 + z^5", "z^100000"])
def test_single_entry_products_make_no_kernel_call(text, monkeypatch):
    from curveloops import series
    from curveloops.parser import parse_series

    calls, kernel = [], series.packed_mul

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(series, "packed_mul", counted)
    parse_series(text)
    assert calls == []
