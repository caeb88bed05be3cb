import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.curves import (
    Loop,
    check_on_curve,
    lift_x,
    make_curve,
    point_loop,
    puncture_loop,
)
from curveloops.errors import (
    FormSingularAlongLoop,
    InsufficientPrecision,
    LoopSpaceError,
    UnsupportedPointPair,
)
from curveloops.forms import (
    MeromorphicForm,
    XYPoly,
    dlog_x,
    evaluate_along,
    exact_rank,
    family_residue_constancy,
    format_xy,
    pullback,
    reduce_y,
    residue_along,
    residue_at_place,
    residue_sum,
    third_kind,
)
from curveloops.parser import parse_curve_spec, parse_place
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring
from curveloops.series import LaurentSeries

A1 = make_curve("a1")
GM = make_curve("gm")
HYP3 = make_curve("hyp", (1, 0, 0, 1))
HYP4 = make_curve("hyp", (-1, 0, 0, 0, 1))


def S(terms, prec=None):
    return LaurentSeries.build(RATIONAL, terms, prec)


# -- polynomial algebra on the curve ---------------------------------------------


def test_xypoly_reduction():
    y2 = XYPoly.y(2)
    reduced = reduce_y(y2, HYP3.h)
    assert reduced == XYPoly.build({(0, 0): 1, (3, 0): 1})


def test_xypoly_str():
    p = XYPoly.x() - XYPoly.const(1)
    assert format_xy(p) == "-1 + x"
    assert format_xy(XYPoly.build({(0, 1): 2, (2, 0): -1})) == "-x^2 + 2*y"


def test_xypoly_evaluation_is_sparse(monkeypatch):
    # x^20000 + 1 along x = 1/z: a dense Horner pass would take 20000 products
    real = LaurentSeries.__mul__
    products = []

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    poly = XYPoly.x(20000) + XYPoly.const(1)
    value = evaluate_along(poly, Loop(GM, S({-1: 1})))
    assert value == S({-20000: 1, 0: 1})
    assert len(products) <= 2 * (20000).bit_length()


# -- pullback and residues ---------------------------------------------------------


def test_dlog_residue_counts_order():
    for n in (-3, -1, 1, 2, 5):
        loop = Loop(GM, S({n: 2, n + 1: 1}))
        assert residue_along(dlog_x(GM), loop).as_fraction() == n


def test_residue_at_simple_pole():
    # dx/(x - 3) at its pole, along x = 3 + z
    form = MeromorphicForm.build(GM, XYPoly.const(1), XYPoly.x() - XYPoly.const(3))
    assert residue_at_place(form, (Fraction(3),)).as_fraction() == 1
    assert residue_at_place(form, "infinity").as_fraction() == -1
    assert residue_at_place(form, "0").as_fraction() == 0


def test_singular_pullback_rejected():
    form = MeromorphicForm.build(GM, XYPoly.const(1), XYPoly.x() - XYPoly.const(1))
    loop = Loop(GM, S({0: 1}))  # constant loop at the pole
    with pytest.raises(FormSingularAlongLoop):
        pullback(form, loop)


def test_off_curve_pullback_rejected():
    # y = 5 against x = z: y^2 - x^3 - 1 = 24 - z^3 != 0
    loop = Loop(HYP3, S({1: 1}), S({0: 5}))
    form = MeromorphicForm.build(HYP3, XYPoly.const(1), XYPoly.y())
    with pytest.raises(LoopSpaceError, match="does not lie on the curve"):
        pullback(form, loop)
    with pytest.raises(LoopSpaceError, match="does not lie on the curve"):
        residue_along(form, loop)


def test_holomorphic_form_zero_residue_on_odd_curve():
    omega = MeromorphicForm.build(HYP3, XYPoly.const(1), XYPoly.y(1).scale(2))
    for loop in (
        puncture_loop(HYP3, "infinity"),
        lift_x(HYP3, S({-2: 4, -1: 1})),
        lift_x(HYP3, S({0: 2, 1: 1, 2: -1})),
    ):
        assert residue_along(omega, loop).as_fraction() == 0


def test_residue_sum_zero_for_rational_form():
    # dx/(x^2 - 1) has simple poles at x = 1 and x = -1
    den = XYPoly.build({(2, 0): 1, (0, 0): -1})
    form = MeromorphicForm.build(GM, XYPoly.const(1), den)
    total = residue_sum(form, [(Fraction(1),), (Fraction(-1),), "infinity", "0"])
    assert total.as_fraction() == 0


# -- third-kind forms ---------------------------------------------------------------


def test_third_kind_on_line():
    form = third_kind(GM, (Fraction(2),), "infinity")
    assert residue_at_place(form, (Fraction(2),)).as_fraction() == 1
    assert residue_at_place(form, "infinity").as_fraction() == -1
    assert residue_at_place(form, "0").as_fraction() == 0


def test_third_kind_on_odd_curve():
    form = third_kind(HYP3, (0, 1), "infinity")
    assert residue_at_place(form, (Fraction(0), Fraction(1))).as_fraction() == 1
    assert residue_at_place(form, "infinity").as_fraction() == -1
    assert residue_at_place(form, (Fraction(0), Fraction(-1))).as_fraction() == 0

    pair = third_kind(HYP3, (0, 1), (2, -3))
    assert residue_at_place(pair, (Fraction(0), Fraction(1))).as_fraction() == 1
    assert residue_at_place(pair, (Fraction(2), Fraction(-3))).as_fraction() == -1
    assert residue_at_place(pair, "infinity").as_fraction() == 0


def test_third_kind_between_even_infinities():
    form = third_kind(HYP4, "infinity+", "infinity-")
    assert residue_at_place(form, "infinity+").as_fraction() == 1
    assert residue_at_place(form, "infinity-").as_fraction() == -1


def test_third_kind_rejects_bad_input():
    with pytest.raises(UnsupportedPointPair):
        third_kind(GM, "infinity", "infinity")
    with pytest.raises(UnsupportedPointPair):
        third_kind(HYP3, (1, 1), "infinity")  # not on the curve
    with pytest.raises(UnsupportedPointPair):
        third_kind(HYP3, (-1, 0), "infinity")  # Weierstrass point


#: The (curve, p, q) grid of ``third_kind_grid.json``: every ordered pair of
#: these places, also equal and invalid ones, on each curve.
GRID_CURVES = ("gm", "a1", "hyp:h=x^3+1", "hyp:h=x^4-1", "hyp:h=x^5+1", "hyp:h=x^6+3")
GRID_PLACES = (
    "0", "(0)", "0/1", "-0", "infinity", "infinity+", "infinity-", "1", "-2", "1/3",
    "(0,1)", "(0,-1)", "(2,3)", "(2,-3)", "(1,2)", "(1,-2)", "(-1,2)", "(-1,0)", "(1,0)", "(0,1,5)",
)
#: The other spellings of the puncture 0 on the line.
ZERO_SPELLINGS = ("(0)", "0/1", "-0")

#: ``third_kind``'s outcome over the grid before places had one normal form:
#: one [curve, p, [outcome for each q]] line per (curve, p), an outcome
#: being the form's text or the name of the exception class raised.
GRID = json.loads((Path(__file__).parent / "third_kind_grid.json").read_text())
RECORDED = {(spec, p, q): out for spec, p, row in GRID for q, out in zip(GRID_PLACES, row)}


def test_grid_file_matches_its_places():
    assert [(spec, p, len(row)) for spec, p, row in GRID] == [
        (spec, p, len(GRID_PLACES)) for spec in GRID_CURVES for p in GRID_PLACES
    ]


def _outcome(curve, p, q):
    try:
        return str(third_kind(curve, parse_place(p), parse_place(q)))
    except LoopSpaceError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("spec", GRID_CURVES)
def test_third_kind_grid_keeps_its_outcomes(spec):
    """Answers stay byte-identical and exceptions keep their class; on the
    line a spelling of 0 now answers as the puncture "0" does, or raises
    that the two places must differ.  The line without punctures, whose
    forms were refused, answers as ``gm`` does, messages included."""
    curve = parse_curve_spec(spec)
    for p in GRID_PLACES:
        for q in GRID_PLACES:
            got = _outcome(curve, p, q)
            if spec == "a1":
                assert got == _outcome(GM, p, q), (p, q)
                continue
            if spec == "gm":  # read a spelling of 0 as the puncture "0"
                p0, q0 = ["0" if v in ZERO_SPELLINGS else v for v in (p, q)]
            else:
                p0, q0 = p, q
            recorded = RECORDED[spec, p0, q0]
            if p0 == q0 and p != q:
                assert got == ("UnsupportedPointPair", "the two places must differ")
            elif recorded.endswith(" dx"):
                assert got == recorded
            else:
                assert got[0] == recorded


# -- families and linear algebra ------------------------------------------------------


def test_family_residue_constancy():
    x = LaurentSeries.build(POLY, {-1: Coeff.const(POLY, 2), 0: Coeff.t()})
    assert family_residue_constancy(dlog_x(GM), Loop(GM, x))


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert exact_rank([[Fraction(1, 2)]]) == 1
    assert exact_rank([[0, 0]]) == 0


# -- residue_along against the whole pullback ----------------------------------------


def old_residue_along(form, loop):
    """residue_along as it was: the full on-curve check, 1/den expanded to
    the whole window of ``den.invert()``, then the z^-1 coefficient."""
    if loop.curve != form.curve:
        raise ValueError("loop and form live on different curves")
    if not check_on_curve(Loop(loop.curve, loop.x, loop.y)):
        raise LoopSpaceError("loop does not lie on the curve")
    den = evaluate_along(form.den, loop)
    if den.zero_to_prec():
        raise FormSingularAlongLoop(
            "denominator vanishes along the loop (to the stored precision)"
        )
    num = evaluate_along(form.num, loop)
    return (num * den.invert() * loop.x.derivative()).residue()


def old_evaluate(poly, loop):
    """evaluate_along as it was: a table of the powers of x and y, and one
    scaled product per term."""
    terms = [(i, j, c) for j, row in poly.terms for i, c in enumerate(row.data) if c]
    ring = loop.ring
    xs = {i: loop.x ** i for i in {i for i, _, _ in terms if i}}
    ys = {j: loop.y ** j for j in {j for _, j, _ in terms if j}}
    acc = LaurentSeries.zero(ring)
    for i, j, c in terms:
        if i and j:
            term = xs[i] * ys[j]
        else:
            term = xs[i] if i else ys[j] if j else LaurentSeries.one(ring)
        acc = acc + term.scale(c)
    return acc


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
RESIDUE_RINGS = (RATIONAL, POLY, nilpotent_ring(2), nilpotent_ring(3), nilpotent_ring(4))


def ring_coeff(draw, ring):
    if ring == RATIONAL:
        return Coeff.const(ring, draw(small))
    if ring == POLY:
        return Coeff.poly(draw(st.lists(small, max_size=3)))
    return Coeff.nil(ring, draw(st.lists(small, min_size=ring.order, max_size=ring.order)))


def rescaled(s, u):
    """s(u z) for a unit u: the coefficient at z^e is multiplied by u^e."""
    terms = {}
    for e, c in s.terms:
        p = Coeff.one(s.ring)
        for _ in range(abs(e)):
            p = p * u
        terms[e] = c * (p if e >= 0 else p.invert())
    return LaurentSeries.build(s.ring, terms, s.prec)


def embedded(s, ring):
    terms = {e: Coeff.const(ring, c.as_fraction()) for e, c in s.terms}
    return LaurentSeries.build(ring, terms, s.prec)


@st.composite
def residue_cases(draw):
    """(form, loop).  Loops on the lines have x of valuation -3..13 over
    any of the rings.  Hyperelliptic loops are lifts over Q or Q[t] of x with a
    pole, or of an arc through (0, +-1) on x^3 + 1, exact or known below 1
    to 12 terms past the lowest exponent; over Q[eps]/eps^k they are
    rational lifts precomposed with z -> (1 + c eps) z.  One loop in ten
    has y moved off the curve."""
    curve = draw(st.sampled_from([A1, GM, HYP3, HYP4]))
    ring = draw(st.sampled_from(RESIDUE_RINGS))
    precs = st.one_of(st.none(), st.integers(1, 12))
    c = draw(small.filter(bool))
    if curve.kind != "hyp":
        # a zero of order up to 13 makes 1/x^3 need more than DEFAULT_PREC terms
        low = draw(st.one_of(st.integers(-3, 3), st.integers(4, 13)))
        terms = {low: Coeff.const(ring, c)}
        for e in draw(st.sets(st.integers(low + 1, low + 8), max_size=4)):
            terms[e] = ring_coeff(draw, ring)
        k = draw(precs)
        loop = Loop(curve, LaurentSeries.build(ring, terms, None if k is None else low + k))
    else:
        lift_ring = POLY if ring == POLY else RATIONAL
        if curve is HYP3 and draw(st.booleans()):
            low, terms = 0, {1: Coeff.const(lift_ring, c)}
        else:
            low = -2 * draw(st.integers(1, 3)) if curve is HYP3 else -draw(st.integers(1, 3))
            terms = {low: Coeff.const(lift_ring, c * c)}
        for e in draw(st.sets(st.integers(low + 1, low + 8), max_size=3)):
            terms.setdefault(e, ring_coeff(draw, lift_ring))
        k = draw(precs)
        x = LaurentSeries.build(lift_ring, terms, None if k is None else low + k)
        loop = lift_x(curve, x, branch=draw(st.sampled_from([1, -1])), prec=draw(st.integers(1, 30)))
        if ring.kind == "nilpotent":
            u = Coeff.nil(ring, [1, draw(small)])
            loop = Loop(curve, rescaled(embedded(loop.x, ring), u), rescaled(embedded(loop.y, ring), u))
        if draw(st.integers(0, 9)) == 0:
            loop = Loop(curve, loop.x, loop.y + LaurentSeries.one(ring))
    X, Y, one = XYPoly.x(), XYPoly.y(), XYPoly.const(1)
    a = XYPoly.const(draw(st.sampled_from([0, 1, 2, -1])))
    nums = [one, X, X * X + one, X - a]
    dens = [X, X - a, (X - a) * (X - a), X * X * X]
    if curve.kind == "hyp":
        nums += [Y, Y + X.scale(3), X * Y]
        dens += [Y, Y * (X - a), Y.scale(2) * (X - a)]
    num, den = draw(st.sampled_from(nums)), draw(st.sampled_from(dens))
    if reduce_y(den, curve.h).is_zero():
        den = one
    return MeromorphicForm.build(curve, num, den), loop


@given(residue_cases())
@settings(max_examples=300, deadline=None)
def test_residue_along_matches_the_whole_pullback(case):
    form, loop = case
    assert outcome(residue_along, form, loop) == outcome(old_residue_along, form, loop)


@given(residue_cases())
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_the_power_table(case):
    form, loop = case
    # num * den is not reduced: up to y^2 on hyperelliptic curves
    for poly in (form.num, form.den, form.num * form.den):
        got, want = outcome(evaluate_along, poly, loop), outcome(old_evaluate, poly, loop)
        assert got == want
        if isinstance(got, LaurentSeries):
            assert (got.rows, got.prec) == (want.rows, want.prec)


def test_residue_window_is_capped_at_the_full_window():
    # 1/x^3 along x = z^12 + z^13 needs 25 terms for z^-1 of dx/x^3; the
    # whole pullback expands DEFAULT_PREC = 24, so both raise
    form = MeromorphicForm.build(GM, XYPoly.const(1), XYPoly.x(3))
    loop = Loop(GM, S({12: 1, 13: 1}))
    expected = (InsufficientPrecision, "coefficient at z^-1 is not certified")
    assert outcome(old_residue_along, form, loop) == expected
    assert outcome(residue_along, form, loop) == expected
    # 23 terms needed: both read the residue, 0 as dx/x^3 = d(-1/(2x^2))
    loop = Loop(GM, S({11: 1, 12: 1}))
    assert outcome(residue_along, form, loop) == outcome(old_residue_along, form, loop)
    assert residue_along(form, loop).as_fraction() == 0
