from fractions import Fraction

import pytest

from curveloops.curves import Loop, lift_x, make_curve, point_loop, puncture_loop
from curveloops.errors import (
    FormSingularAlongLoop,
    LoopSpaceError,
    UnsupportedPointPair,
)
from curveloops.forms import (
    MeromorphicForm,
    XYPoly,
    dlog_x,
    exact_rank,
    family_residue_constancy,
    pullback,
    residue_along,
    residue_at_place,
    residue_sum,
    third_kind,
)
from curveloops.ring import POLY, RATIONAL, Coeff
from curveloops.series import LaurentSeries

GM = make_curve("gm")
HYP3 = make_curve("hyp", (1, 0, 0, 1))
HYP4 = make_curve("hyp", (-1, 0, 0, 0, 1))


def S(terms, prec=None):
    return LaurentSeries.build(RATIONAL, terms, prec)


# -- polynomial algebra on the curve ---------------------------------------------


def test_xypoly_reduction():
    y2 = XYPoly.y(2)
    reduced = y2.reduce(HYP3.h)
    assert reduced == XYPoly.build({(0, 0): 1, (3, 0): 1})


def test_xypoly_str():
    p = XYPoly.x() - XYPoly.const(1)
    assert str(p) == "-1 + x"
    assert str(XYPoly.build({(0, 1): 2, (2, 0): -1})) == "-x^2 + 2*y"


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


# -- families and linear algebra ------------------------------------------------------


def test_family_residue_constancy():
    x = LaurentSeries.build(POLY, {-1: Coeff.const(POLY, 2), 0: Coeff.t()})
    assert family_residue_constancy(dlog_x(GM), Loop(GM, x))


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert exact_rank([[Fraction(1, 2)]]) == 1
    assert exact_rank([[0, 0]]) == 0
