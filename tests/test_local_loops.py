"""Local loops are expanded once, and only when built: one lift per
puncture loop and per affine point, one loop per place in the third-kind
verification."""

import random
from fractions import Fraction

import pytest

from curveloops import cli, curves, forms, series
from curveloops.cli import run
from curveloops.curves import (
    ComponentClass,
    Loop,
    _loop,
    classify_loop,
    lift_x,
    make_curve,
    point_loop,
    puncture_loop,
)
from curveloops.errors import NotSquarefree, NoRationalSquareRoot, OddValuation
from curveloops.ring import RATIONAL
from curveloops.series import LaurentSeries

HYP3 = make_curve("hyp", (1, 0, 0, 1))  # y^2 = x^3 + 1


@pytest.fixture
def sqrt_calls(monkeypatch):
    calls = []
    real = series.sqrt

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(series, "sqrt", counted)
    return calls


@pytest.fixture
def lift_calls(monkeypatch):
    calls = []
    real = curves.lift_x

    def counted(curve, x, *args, **kwargs):
        # a puncture's x has a pole; a point's x = a + z is noted as a
        calls.append("pole" if x.valuation() < 0 else x.coeff(0).as_fraction())
        return real(curve, x, *args, **kwargs)

    monkeypatch.setattr(curves, "lift_x", counted)
    return calls


# -- lazy charts --------------------------------------------------------------------


def test_curves_and_census_expand_no_chart(sqrt_calls):
    curve = make_curve("hyp", (1, 0, 0, 0, 0, 1))
    assert [c.label for c in curve.punctures] == ["infinity"]
    assert curve == make_curve("hyp", (1, 0, 0, 0, 0, 1))
    assert hash(curve) == hash(make_curve("hyp", (1, 0, 0, 0, 0, 1)))
    repr(curve)
    assert run(["census", "--curve", "hyp:h=x^4-1"]) == (
        0, "classes=3\narc\npuncture infinity+\npuncture infinity-\n"
    )
    # y = z^-3 + 1/2 z^3 + O(z^4) lies on y^2 = x^3 + 1 along x = z^-2
    assert run(
        ["classify", "--curve", "hyp:h=x^3+1", "--x", "z^-2", "--y", "z^-3 + 1/2*z^3 + O(z^4)"]
    ) == (0, "class=Pole punct=infinity order=1\n")
    assert sqrt_calls == []


def test_chart_y_is_expanded_once(sqrt_calls):
    curve = make_curve("hyp", (-1, 0, 0, 0, 1))
    assert [(c.label, c.x, c.branch) for c in curve.punctures] == [
        ("infinity+", LaurentSeries.monomial(RATIONAL, -1), 1),
        ("infinity-", LaurentSeries.monomial(RATIONAL, -1), -1),
    ]
    assert sqrt_calls == []
    for n, chart in enumerate(curve.punctures, 1):
        puncture_loop(curve, chart.label)
        assert len(sqrt_calls) == n


def eager_chart_y(h, label):
    """The chart's y as ``make_curve`` expanded it on every call before
    charts were lazy: sqrt of w to 24 terms, then shifted and signed."""
    h = tuple(Fraction(c) for c in h)
    d = len(h) - 1
    if d % 2 == 1:
        w = LaurentSeries.build(RATIONAL, {2 * (d - i): h[i] for i in range(d)} | {0: 1})
        return series.sqrt(w, prec=24).shift(-d)
    w = LaurentSeries.build(RATIONAL, {d - i: h[i] for i in range(d)} | {0: 1})
    s = series.sqrt(w, prec=24)
    return (s if label == "infinity+" else -s).shift(-d // 2)


@pytest.mark.parametrize(
    "h",
    [
        (1, 0, 0, 1),  # x^3 + 1
        (0, -1, 0, 1),  # x^3 - x
        (-1, 0, 0, 0, 1),  # x^4 - 1
        (2, 1, -3, 1, 1),  # x^4 + x^3 - 3x^2 + x + 2
        (1, 0, 0, 0, 0, 1),  # x^5 + 1
        (Fraction(1, 2), 3, 0, -1, 0, 1),  # x^5 - x^3 + 3x + 1/2
        (-1, 0, 0, 0, 0, 0, 1),  # x^6 - 1
        (1, 1, 0, 0, 0, 2, 1),  # x^6 + 2x^5 + x + 1
    ],
    ids=str,
)
def test_chart_y_matches_the_eager_expansion(h):
    curve = make_curve("hyp", h)
    for chart in curve.punctures:
        y = puncture_loop(curve, chart.label).y
        assert y == eager_chart_y(h, chart.label)
        assert y.prec == eager_chart_y(h, chart.label).prec


@pytest.mark.parametrize("d", [13, 15, 24, 25, 31])
def test_charts_certify_at_any_degree(d):
    curve = make_curve("hyp", (1,) + (0,) * (d - 1) + (1,))
    for chart in curve.punctures:
        y = puncture_loop(curve, chart.label).y
        assert curves.check_on_curve(Loop(curve, chart.x, y))


def random_squarefree_h(rng, d):
    """A monic squarefree h of degree d with small rational coefficients."""
    while True:
        h = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(d)] + [1]
        try:
            make_curve("hyp", h)
        except NotSquarefree:
            continue
        return tuple(h)


SWEEP = [pytest.param((1,) + (0,) * (d - 1) + (1,), id=f"x^{d}+1") for d in range(3, 32)] + [
    pytest.param(random_squarefree_h(random.Random(100 * d + k), d), id=f"random-d{d}-{k}")
    for d in range(3, 32)
    for k in range(3)
]


@pytest.mark.parametrize("h", SWEEP)
def test_puncture_loop_is_the_lift_on_the_chart(h):
    """y is lift_x's on the branch of the label (- only at infinity-), to
    max(24, 2e + 1) terms, marked, and classified back to its puncture."""
    curve = make_curve("hyp", h)
    d = len(h) - 1
    e = d if d % 2 else d // 2
    for chart in curve.punctures:
        loop = puncture_loop(curve, chart.label)
        want = lift_x(curve, chart.x, -1 if chart.label == "infinity-" else 1, max(24, 2 * e + 1))
        assert loop == want  # rows and prec
        assert loop._certified
        assert classify_loop(loop) == ComponentClass.pole(chart.label, 1)


# -- one lift per point ---------------------------------------------------------------


@pytest.mark.parametrize("point", [(0, 1), (0, -1), (2, 3), (2, -3)])
def test_point_loop_lifts_once(lift_calls, point):
    loop = point_loop(HYP3, point)
    assert lift_calls == [point[0]]
    assert loop.y.coeff(0).as_fraction() == point[1]


@pytest.mark.parametrize(
    "point,error,message",
    [
        ((1, 1), NoRationalSquareRoot, "2 is not a nonzero rational square"),
        ((-1, 0), OddValuation, "lowest exponent 1 is odd"),
        ((0, 2), ValueError, "point (0, 2) does not lie on the curve"),
        ((0, 0), ValueError, "point (0, 0) does not lie on the curve"),
    ],
)
def test_point_loop_raises_as_before(point, error, message):
    with pytest.raises(error) as err:
        point_loop(HYP3, point)
    assert str(err.value) == message


# -- one loop per place ------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,q",
    [((0, 1), (2, 3)), ((0, 1), (0, -1)), ((2, -3), (0, 1)), ((0, -1), "infinity")],
    ids=str,
)
def test_third_kind_lifts_once_per_x_value(lift_calls, p, q):
    forms.third_kind(HYP3, p, q)
    points = [a for a in lift_calls if a != "pole"]
    assert sorted(points) == sorted({p[0]} | ({q[0]} if isinstance(q, tuple) else set()))
    # and once per puncture visited: HYP3 has one, at infinity
    assert lift_calls.count("pole") == 1


def test_negated_conjugate_has_the_lifted_residue():
    form = forms.third_kind(HYP3, (0, 1), (2, 3))
    for a, b in ((0, 1), (2, 3)):
        lifted = point_loop(HYP3, (a, b))
        negated = _loop(HYP3, lifted.x, -lifted.y, True)
        assert negated == point_loop(HYP3, (a, -b))
        assert forms.residue_along(form, negated) == forms.residue_along(
            form, point_loop(HYP3, (a, -b))
        )


def test_failed_verification_exits_1(monkeypatch):
    real = forms.residue_along
    monkeypatch.setattr(forms, "residue_along", lambda form, loop: real(form, loop).scale(2))
    assert run(["thirdkind", "--curve", "hyp:h=x^3+1", "--p", "(0,1)", "--q", "(2,3)"]) == (
        1, "error: residue at (0, 1) is 2, expected 1\n"
    )
    assert cli.run(["thirdkind", "--curve", "gm", "--p", "1", "--q", "infinity"])[0] == 1
