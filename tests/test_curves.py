
import pytest

from curveloops.curves import (
    ComponentClass,
    Loop,
    check_on_curve,
    classify_loop,
    cover_loop,
    lift_x,
    make_curve,
    point_loop,
    puncture_loop,
)
from curveloops.errors import (
    DegreeTooSmall,
    InconsistentPoleData,
    NotMonic,
    NotSquarefree,
    RingMismatch,
)
from curveloops.ring import POLY, RATIONAL
from curveloops.series import LaurentSeries


def S(terms, prec=None):
    return LaurentSeries.build(RATIONAL, terms, prec)


HYP3 = make_curve("hyp", (1, 0, 0, 1))  # y^2 = x^3 + 1
HYP4 = make_curve("hyp", (-1, 0, 0, 0, 1))  # y^2 = x^4 - 1
GM = make_curve("gm")
A1 = make_curve("a1")


# -- catalog validation ---------------------------------------------------------


def test_curve_validation():
    with pytest.raises(NotMonic):
        make_curve("hyp", (1, 0, 0, 2))
    with pytest.raises(NotSquarefree):
        make_curve("hyp", (0, 0, 1, 1))  # x^2 (x + 1)
    with pytest.raises(DegreeTooSmall):
        make_curve("hyp", (1, 1))


def test_genus():
    assert HYP3.genus == 1
    assert HYP4.genus == 1
    assert make_curve("hyp", (1, 0, 0, 0, 0, 1)).genus == 2
    assert GM.genus == 0


def test_puncture_labels():
    assert [c.label for c in A1.punctures] == ["infinity"]
    assert [c.label for c in GM.punctures] == ["0", "infinity"]
    assert [c.label for c in HYP3.punctures] == ["infinity"]
    assert [c.label for c in HYP4.punctures] == ["infinity+", "infinity-"]


def test_chart_expansions_satisfy_equation():
    for curve in (HYP3, HYP4):
        for chart in curve.punctures:
            assert check_on_curve(Loop(curve, chart.x, chart.y))
    # odd degree: x = u^-2, y = u^-3 (1 + ...)
    chart = HYP3.puncture("infinity")
    assert chart.x == S({-2: 1})
    assert chart.y.coeff(-3).as_fraction() == 1
    assert chart.x_pole_order == 2
    # even degree: x = u^-1, y = +-u^-2 (1 + ...)
    plus = HYP4.puncture("infinity+")
    minus = HYP4.puncture("infinity-")
    assert plus.x == S({-1: 1})
    assert plus.y.coeff(-2).as_fraction() == 1
    assert minus.y.coeff(-2).as_fraction() == -1
    assert plus.x_pole_order == 1


# -- membership -----------------------------------------------------------------


def test_check_on_curve():
    assert check_on_curve(Loop(GM, S({0: 2, 1: 1})))
    assert not check_on_curve(Loop(GM, S({1: 1, 2: 1}) - S({1: 1, 2: 1})))
    x = S({0: 2, 1: 1})
    good = lift_x(HYP3, x)
    assert check_on_curve(good)
    assert not check_on_curve(Loop(HYP3, x, good.y + LaurentSeries.one(RATIONAL)))


# -- classification ---------------------------------------------------------------


def test_classify_a1():
    assert classify_loop(Loop(A1, S({0: 1, 1: 2}))) == ComponentClass.a1(False)
    assert classify_loop(Loop(A1, S({-3: 1, 0: 1}))) == ComponentClass.a1(True)


def test_classify_gm():
    assert classify_loop(Loop(GM, S({0: 5, 1: 1}))) == ComponentClass.arc()
    assert classify_loop(Loop(GM, S({2: 1, 3: 4}))) == ComponentClass.pole("0", 2)
    assert classify_loop(Loop(GM, S({-3: 7}))) == ComponentClass.pole("infinity", 3)


def test_classify_hyp_odd():
    arc = lift_x(HYP3, S({0: 2, 1: -1, 2: 3}))
    assert classify_loop(arc) == ComponentClass.arc()
    pole = lift_x(HYP3, S({-2: 4, -1: 1}))
    assert classify_loop(pole) == ComponentClass.pole("infinity", 1)
    deeper = lift_x(HYP3, S({-4: 9, -3: 2}))
    assert classify_loop(deeper) == ComponentClass.pole("infinity", 2)


def test_classify_hyp_even_branches():
    plus = lift_x(HYP4, S({-1: 4, 0: 1}), branch=1)
    minus = lift_x(HYP4, S({-1: 4, 0: 1}), branch=-1)
    assert classify_loop(plus) == ComponentClass.pole("infinity+", 1)
    assert classify_loop(minus) == ComponentClass.pole("infinity-", 1)


def test_classify_rejects_inconsistent_poles():
    # v(x) odd at the unique puncture of an odd-degree curve
    x = S({-1: 1})
    y = S({-2: 1})
    with pytest.raises(InconsistentPoleData):
        classify_loop(Loop(HYP3, x, y))
    # pole orders that cannot come from the chart arithmetic
    with pytest.raises(InconsistentPoleData):
        classify_loop(Loop(HYP3, S({-2: 1}), S({-5: 1})))


def test_classify_needs_rational_ring():
    x = LaurentSeries.build(POLY, {1: 1})
    with pytest.raises(RingMismatch):
        classify_loop(Loop(GM, x))


# -- coverings, local loops ---------------------------------------


def test_cover_loop_multiplies_order():
    loop = puncture_loop(HYP3, "infinity")
    assert classify_loop(loop) == ComponentClass.pole("infinity", 1)
    for n in (2, 3, 5):
        assert classify_loop(cover_loop(loop, n)) == ComponentClass.pole("infinity", n)
    arc = Loop(GM, S({0: 1, 1: 1}))
    assert classify_loop(cover_loop(arc, 4)) == ComponentClass.arc()


def test_point_loop_picks_branch():
    loop = point_loop(HYP3, (0, -1))
    assert loop.y.coeff(0).as_fraction() == -1
    assert check_on_curve(loop)
    from curveloops.errors import NoRationalSquareRoot

    with pytest.raises(NoRationalSquareRoot):
        point_loop(HYP3, (1, 1))  # h(1) = 2 is not a square


def test_lift_x_branches_square_to_h():
    x = S({0: 2, 1: 1, 3: -2})
    for branch in (1, -1):
        loop = lift_x(HYP3, x, branch=branch)
        assert check_on_curve(loop)
    assert lift_x(HYP3, x, branch=1).y == -lift_x(HYP3, x, branch=-1).y
