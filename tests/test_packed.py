"""The packed (Kronecker) product against schoolbook references, the
canonical integer-row form of series, and the degree certificate of
``sqrt`` against squaring the candidate back."""

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.errors import LoopSpaceError
from curveloops.normal_form import factor
from curveloops.ring import (
    POLY,
    RATIONAL,
    Coeff,
    nilpotent_ring,
    packed_mul,
)
from curveloops.series import DEFAULT_PREC, LaurentSeries, sqrt

# -- schoolbook references over plain Fractions ------------------------------------


def schoolbook(a, b, count, cut=None):
    """Rows 0..count-1 of the product of two 2-D arrays, y^j cut at ``cut``."""
    width = max(len(r) for _, r in a) + max(len(r) for _, r in b) - 1
    keep = width if cut is None else min(cut, width)
    out = [[Fraction(0)] * keep for _ in range(count)]
    for i, ra in a:
        for k, rb in b:
            if i + k >= count:
                continue
            for j, x in enumerate(ra):
                for l, y in enumerate(rb):
                    if j + l < keep:
                        out[i + k][j + l] += x * y
    return out


def schoolbook_series(f, g):
    """f * g by the double loop over stored terms, on raw coefficient data."""
    prec = None
    for a, b in ((f, g), (g, f)):
        if a.prec is not None:
            om = b.terms[0][0] if b.terms else (b.prec if b.prec is not None else 0)
            prec = a.prec + om if prec is None else min(prec, a.prec + om)
    if f.is_zero() or g.is_zero():
        return LaurentSeries.zero(f.ring)
    k = f.ring.order
    acc = defaultdict(lambda: defaultdict(Fraction))
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            if prec is not None and e1 + e2 >= prec:
                continue
            for j, x in enumerate(c1.data):
                for l, y in enumerate(c2.data):
                    if k is None or j + l < k:
                        acc[e1 + e2][j + l] += x * y
    terms = {}
    for e, row in acc.items():
        data = [row[j] for j in range(max(row) + 1)]
        if f.ring == POLY:
            terms[e] = Coeff.poly(data)
        elif f.ring == RATIONAL:
            terms[e] = Coeff.const(f.ring, data[0])
        else:
            terms[e] = Coeff.nil(f.ring, data)
    return LaurentSeries.build(f.ring, terms, prec)


def integer_rows(rows):
    """(den, int rows) for (i, row) pairs of rationals: every entry times
    the least common denominator ``den`` of all of them."""
    den = lcm(*[q.denominator for _, row in rows for q in row])
    return den, [(i, [q.numerator * (den // q.denominator) for q in row]) for i, row in rows]


def kernel(a, b, count, cut=None):
    """``packed_mul`` on the integer rows of two arrays of rationals, each
    over its common denominator, read back as rationals; one array passed
    twice reaches the kernel as one list, which it squares."""
    da, ia = integer_rows(a)
    db, ib = (da, ia) if b is a else integer_rows(b)
    rows = packed_mul(ia, ib, count, cut)
    return [[Fraction(v, da * db) for v in row] for row in rows]


# -- strategies ------------------------------------------------------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
large = st.builds(
    Fraction,
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**30),
)
entries = st.one_of(small, large, st.just(Fraction(0)))


@st.composite
def arrays(draw, row_len=None):
    """(i, row) pairs, ascending distinct i >= 0; rows may be all zero.
    Without ``row_len`` the rows have free lengths, or lengths growing
    with i, as the t-degree of a series over Q[t] does."""
    idx = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=6)))
    triangular = row_len is None and draw(st.booleans())
    first = draw(st.integers(1, 3))
    out = []
    for i in idx:
        if row_len is not None:
            n = row_len
        else:
            n = first + i if triangular else draw(st.integers(1, 6))
        out.append((i, draw(st.lists(entries, min_size=n, max_size=n))))
    return out


def counts(a, b):
    """Row counts up to past the full product, most of them below it."""
    full = a[-1][0] + b[-1][0] + 1
    return st.one_of(st.integers(1, full), st.integers(1, full + 5))


@st.composite
def ring_and_coeff(draw, ring):
    if ring == RATIONAL:
        return Coeff.const(ring, draw(entries))
    if ring == POLY:
        return Coeff.poly(draw(st.lists(entries, min_size=0, max_size=5)))
    return Coeff.nil(ring, draw(st.lists(entries, min_size=ring.order, max_size=ring.order)))


RINGS = (RATIONAL, nilpotent_ring(2), nilpotent_ring(4), POLY)


@st.composite
def series(draw, ring):
    exps = draw(st.sets(st.integers(-5, 14), max_size=6))
    terms = {e: draw(ring_and_coeff(ring)) for e in exps}
    prec = draw(st.one_of(st.none(), st.integers(-8, 20)))
    return LaurentSeries.build(ring, terms, prec)


# -- the kernel -------------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=150)
def test_packed_mul_matches_schoolbook(data):
    a, b = data.draw(arrays()), data.draw(arrays())
    count = data.draw(counts(a, b))
    cut = data.draw(st.one_of(st.none(), st.integers(1, 8)))
    assert kernel(a, b, count, cut) == schoolbook(a, b, count, cut)


@pytest.mark.parametrize("k", [1, 3])
@given(data=st.data())
@settings(max_examples=60)
def test_packed_mul_fixed_rows(k, data):
    """Rows of one length, as for Q (k = 1) and Q[eps]/eps^3 cut at eps^3."""
    a, b = data.draw(arrays(k)), data.draw(arrays(k))
    count = a[-1][0] + b[-1][0] + 1
    assert kernel(a, b, count, k) == schoolbook(a, b, count, k)


def test_packed_mul_signed_borrow_across_slots():
    # -1 in the lowest slot borrows from every slot above it
    a = [(0, [Fraction(-1), Fraction(0)]), (1, [Fraction(1), Fraction(-1)])]
    b = [(0, [Fraction(1, 3)]), (2, [Fraction(-(10**30))])]
    assert kernel(a, b, 4) == schoolbook(a, b, 4)


@pytest.mark.parametrize("k", [*range(1, 9), 12, 14, 15, 16, 28, 30, 31, 32, 60, 63, 64])
@pytest.mark.parametrize("n", [1, 3, 7, 15])
def test_packed_mul_slot_holds_the_largest_sum(k, n):
    """Rows of n equal entries of k bits: the middle entry of the product
    reaches n * (2^k - 1)^2, the bound the slot width is sized for.  The
    slots needed, 2k + 1 bits plus those of n, sit at and just past 1, 2,
    4 and 8 bytes, where the slot width changes."""
    x = Fraction(2**k - 1)
    for sign in (1, -1):
        a = [(0, [x] * n)]
        b = [(0, [sign * x] * n)]
        assert kernel(a, b, 1) == schoolbook(a, b, 1)


@given(data=st.data())
@settings(max_examples=100)
def test_packed_mul_square_matches_schoolbook(data):
    """One array passed twice is packed once and squared."""
    a = data.draw(arrays())
    count = data.draw(counts(a, a))
    cut = data.draw(st.one_of(st.none(), st.integers(1, 8)))
    assert kernel(a, a, count, cut) == schoolbook(a, a, count, cut)


@given(st.lists(entries, max_size=7), st.lists(entries, max_size=7))
@settings(max_examples=100)
def test_poly_mul_matches_schoolbook(a, b):
    x, y = Coeff.poly(a), Coeff.poly(b)
    want = schoolbook([(0, x.data)], [(0, y.data)], 1)[0] if x.data and y.data else []
    while want and want[-1] == 0:
        want.pop()
    assert (x * y).data == tuple(want)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=60)
def test_coeff_mul_matches_schoolbook(ring, data):
    x, y = data.draw(ring_and_coeff(ring)), data.draw(ring_and_coeff(ring))
    got = x * y
    want = schoolbook_series(LaurentSeries.build(ring, {0: x}), LaurentSeries.build(ring, {0: y}))
    assert got == want.coeff(0)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=80)
def test_series_mul_matches_schoolbook(ring, data):
    """Covers inexact operands without stored terms, truncation at prec,
    single-term operands and sparse exponents."""
    f, g = data.draw(series(ring)), data.draw(series(ring))
    assert f * g == schoolbook_series(f, g)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=80)
def test_series_square_matches_schoolbook(ring, data):
    """f * f takes the kernel's squaring path; f may be inexact."""
    f = data.draw(series(ring))
    assert f * f == schoolbook_series(f, f)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=80)
def test_scale_by_coeff_matches_the_constant_product(ring, data):
    s = data.draw(series(ring))
    c = data.draw(ring_and_coeff(ring))
    if c.is_zero():
        # scaling by zero keeps the precision; the product with the exact
        # zero series is exact
        assert s.scale(c) == LaurentSeries.build(ring, {}, s.prec)
    else:
        assert s.scale(c) == s * LaurentSeries.constant(ring, c)


def test_scale_by_coeff_over_a_wide_gap():
    ring = nilpotent_ring(2)
    s = LaurentSeries.build(ring, {-3: 1, 10**6: Coeff.eps(ring)}, 10**6 + 5)
    c = Coeff.nil(ring, [2, 1])
    assert dict(s.scale(c).terms) == {-3: c, 10**6: Coeff.eps(ring, value=2)}
    assert s.scale(c).prec == 10**6 + 5
    assert s.scale(Coeff.eps(ring)) == LaurentSeries.build(ring, {-3: Coeff.eps(ring)}, 10**6 + 5)


def test_series_mul_sparse_and_empty_inexact():
    one_plus = LaurentSeries.build(RATIONAL, {0: 1, 180: 1})
    assert one_plus * one_plus == LaurentSeries.build(RATIONAL, {0: 1, 180: 2, 360: 1})
    covered = LaurentSeries.build(RATIONAL, {50: 1, 90: 1})
    assert covered * covered == LaurentSeries.build(RATIONAL, {100: 1, 140: 2, 180: 1})
    unknown = LaurentSeries.build(RATIONAL, {}, 3)
    assert unknown * one_plus == LaurentSeries.build(RATIONAL, {}, 3)
    assert (one_plus.truncate(200) * covered).prec == 250


# -- the canonical integer-row form -------------------------------------------------


def assert_canonical(s):
    """The storage invariants of a series (see the ``series`` docstring)."""
    entries = [v for _, p in s.rows for v in p]
    assert s.den > 0
    assert gcd(s.den, *entries) == 1
    for e, p in s.rows:
        assert isinstance(p, tuple) and all(isinstance(v, int) for v in p)
        assert any(p)
        if s.ring == POLY:
            assert p[-1] != 0
        else:
            assert len(p) == (s.ring.order or 1)
        assert s.prec is None or e < s.prec
    exps = [e for e, _ in s.rows]
    assert exps == sorted(set(exps))
    assert LaurentSeries.build(s.ring, dict(s.terms), s.prec) == s
    assert hash(LaurentSeries.build(s.ring, dict(s.terms), s.prec)) == hash(s)


def _results(f, g, t0, n, window):
    """Every operation that builds a series from integer rows."""
    yield f + g
    yield f - g
    yield f * g
    yield f * f
    yield -f
    yield f.derivative()
    yield f.covering(n)
    yield f.truncate(window)
    yield f.scale(t0)
    yield f.scale(g.coeff(0))
    if f.ring == POLY:
        yield f.specialize(t0)
    for op in (lambda: f.invert(window), lambda: sqrt(f * f, prec=window)):
        try:
            yield op()
        except LoopSpaceError:
            pass


@pytest.mark.parametrize("ring", RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_results_are_canonical(ring, data):
    f, g = data.draw(series(ring)), data.draw(series(ring))
    t0 = data.draw(small)
    n = data.draw(st.integers(1, 4))
    window = data.draw(st.integers(1, 12))
    for s in (f, g, *_results(f, g, t0, n, window)):
        assert_canonical(s)


@given(series(POLY), small)
@settings(max_examples=100)
def test_specialize_matches_coefficientwise(f, t0):
    """The integer evaluation over den q^D against ``Coeff.specialize``."""
    want = LaurentSeries.build(RATIONAL, {e: c.specialize(t0) for e, c in f.terms}, f.prec)
    assert f.specialize(t0) == want


def test_common_factor_is_divided_out():
    half = LaurentSeries.build(RATIONAL, {0: Fraction(1, 2), 1: Fraction(1, 4)})
    assert half.den == 4 and half.rows == ((0, (2,)), (1, (1,)))
    assert (half + half).den == 2
    assert half.truncate(1).den == 2 and half.truncate(1).rows == ((0, (1,)),)
    assert (half - half).rows == () and (half - half).den == 1


# -- the sqrt certificate ---------------------------------------------------------------


def squared_back(f, prec):
    """The old certificate: square the candidate and compare with f."""
    r = sqrt(f, prec=prec)
    candidate = LaurentSeries.build(f.ring, dict(r.terms), None)
    return r, candidate * candidate == f


@st.composite
def exact_squares(draw, ring):
    """(f, prec): f = c^2 or c^2 plus a perturbation, over Q or Q[t]."""
    v = draw(st.integers(-4, 4))
    lead = draw(st.fractions(min_value=1, max_value=9, max_denominator=5))
    terms = {v: Coeff.const(ring, draw(st.sampled_from([1, -1])) * lead)}
    for e in draw(st.sets(st.integers(v + 1, v + 12), max_size=4)):
        terms[e] = (Coeff.poly(draw(st.lists(small, max_size=3))) if ring == POLY
                    else Coeff.const(ring, draw(small)))
    c = LaurentSeries.build(ring, terms)
    f = c * c
    if draw(st.booleans()):
        e = draw(st.integers(2 * v + 1, 2 * v + 26))
        f = f + LaurentSeries.monomial(ring, e, Coeff.const(ring, draw(small.filter(bool))))
    return f, draw(st.integers(1, 16))


@pytest.mark.parametrize("ring", [RATIONAL, POLY], ids=str)
@given(data=st.data())
@settings(max_examples=80)
def test_sqrt_certificate_agrees_with_squaring(ring, data):
    f, prec = data.draw(exact_squares(ring))
    r, is_square = squared_back(f, prec)
    assert r.exact == is_square
    if not r.exact:
        assert r.prec == f.terms[0][0] // 2 + prec


def test_sqrt_certificate_undecided_case_squares():
    # 2 deg c = deg f = 30 >= v + rel = 24: only the product decides
    one_plus = LaurentSeries.build(RATIONAL, {0: 1, 15: 1})
    assert sqrt(one_plus * one_plus) == one_plus
    near = LaurentSeries.build(RATIONAL, {0: 1, 15: 2, 30: 2})
    r = sqrt(near)
    assert not r.exact and r.prec == DEFAULT_PREC
    assert r == one_plus.truncate(DEFAULT_PREC)
    t_poly = LaurentSeries.build(POLY, {0: 1, 15: Coeff.poly([0, 1])})
    assert sqrt(t_poly * t_poly) == t_poly


# -- precision validation ---------------------------------------------------------------


@pytest.mark.parametrize("prec", [0, -3])
def test_prec_below_one_rejected(prec):
    f = LaurentSeries.build(RATIONAL, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        f.invert(prec)
    with pytest.raises(ValueError):
        sqrt(f, prec=prec)
    with pytest.raises(ValueError):
        factor(f, prec=prec)


def test_prec_one_is_one_term():
    f = LaurentSeries.build(RATIONAL, {0: 1, 1: 1})
    assert f.invert(1) == LaurentSeries.build(RATIONAL, {0: 1}, 1)
    assert sqrt(f, prec=1) == LaurentSeries.build(RATIONAL, {0: 1}, 1)
