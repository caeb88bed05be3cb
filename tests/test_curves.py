
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.cli import run
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
    InsufficientPrecision,
    LoopSpaceError,
    NotMonic,
    NotSquarefree,
    RingMismatch,
)
from curveloops.parser import format_series
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring
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


def gcd_degree(a, b):
    """Degree of gcd(a, b) over Q, by Euclid with exact fractions: the
    oracle for the squarefree test on integer rows."""

    def trim(p):
        p = list(p)
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        r = a[:]
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i in range(len(b)):
                r[shift + i] -= q * b[i]
            r = trim(r)
        a, b = b, r
    return len(a) - 1


def times(a, b):
    return [sum([a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)]) for k in range(len(a) + len(b) - 1)]


small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(
    st.lists(small, min_size=3, max_size=5),
    st.lists(small, max_size=2),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_squarefree_test_matches_the_fraction_euclid(f, g, square, integral):
    """h = x^n + f, times (x^m + g)^2 when ``square``: monic of degree at
    least 3, with and without a square factor, over Z or over Q."""
    if integral:
        f, g = [round(v) for v in f], [round(v) for v in g]
    h = [Fraction(v) for v in f] + [Fraction(1)]
    if square:
        g = [Fraction(v) for v in g] + [Fraction(1)]
        h = times(times(h, g), g)
    try:
        make_curve("hyp", h)
        squarefree = True
    except NotSquarefree:
        squarefree = False
    assert squarefree == (gcd_degree(h, [i * v for i, v in enumerate(h)][1:]) == 0)


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
            y = puncture_loop(curve, chart.label).y
            assert check_on_curve(Loop(curve, chart.x, y))
    # odd degree: x = u^-2, y = u^-3 (1 + ...)
    chart = HYP3.puncture("infinity")
    assert chart.x == S({-2: 1})
    assert puncture_loop(HYP3, "infinity").y.coeff(-3).as_fraction() == 1
    # even degree: x = u^-1, y = +-u^-2 (1 + ...)
    plus = HYP4.puncture("infinity+")
    assert plus.x == S({-1: 1})
    assert puncture_loop(HYP4, "infinity+").y.coeff(-2).as_fraction() == 1
    assert puncture_loop(HYP4, "infinity-").y.coeff(-2).as_fraction() == -1


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


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _line_spec(finite) -> str:
    return "line:" + ",".join(map(str, finite)) if finite else "a1"


@st.composite
def line_loops(draw):
    """A line minus S (``a1`` when S is empty, in the drawn order), a loop
    on it, and the class its construction fixes: s + c z^n + (higher
    terms) has a pole of order n at s in S, c z^-n + ... one of order n at
    infinity, and a + (higher terms) with a not in S, a constant loop
    included, is an arc; on ``a1`` every loop is in the one class."""
    finite = draw(st.lists(RATIONALS, unique=True, max_size=3))
    n = draw(st.integers(1, 4))
    c = draw(RATIONALS.filter(bool))
    shape = draw(st.sampled_from(["puncture", "infinity", "arc"] if finite else ["infinity", "arc"]))
    if shape == "puncture":
        s = draw(st.sampled_from(finite))
        low, terms, want = n, {0: s, n: c}, f"class=Pole punct={s} order={n}"
    elif shape == "infinity":
        low, terms, want = -n, {-n: c}, f"class=Pole punct=infinity order={n}"
    else:
        a = draw(RATIONALS.filter(lambda a: a not in finite))
        low, terms, want = 0, {0: a}, "class=Arc"
    for e, v in draw(st.dictionaries(st.integers(1, 6), RATIONALS, max_size=3)).items():
        terms[low + e] = v
    prec = draw(st.none() | st.integers(low + 1, low + 8))
    if not finite:
        want = f"class=A1 connected has_pole={'true' if shape == 'infinity' else 'false'}"
    return _line_spec(finite), S(terms, prec), want


@given(line_loops())
@settings(max_examples=300, deadline=None)
def test_classify_on_random_lines_by_construction(args):
    spec, x, want = args
    assert run(["classify", "--curve", spec, "--x", format_series(x)]) == (0, want + "\n")


@given(
    st.lists(RATIONALS, unique=True, min_size=1, max_size=3),
    st.data(),
    st.sampled_from(["", " + O(z^{n})", " + eps*z^{n}", " + eps*z^{n} + O(z^{m})"]),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_loops_that_stay_at_a_puncture_exit_1(finite, data, tail, n):
    """x = s, x = s + O(z^N) and x = s + eps z^n + ... with s in S leave the
    curve or certify nothing; each exits 1 with one line."""
    s = data.draw(st.sampled_from(finite))
    x = f"{s}" + tail.format(n=n, m=n + 2)
    code, text = run(["classify", "--curve", _line_spec(finite), "--x", x])
    assert code == 1 and text.startswith("error: ") and text.count("\n") == 1, (x, text)


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


# -- the on-curve mark against the full check ---------------------------------------


def full_check(loop):
    """``check_on_curve`` of an unmarked copy: True, False, or None when
    it raises ``InsufficientPrecision``."""
    try:
        return check_on_curve(Loop(loop.curve, loop.x, loop.y))
    except InsufficientPrecision:
        return None


#: (curve, base points a with h(a) a nonzero square, rational roots of h)
LIFT_CURVES = (
    (HYP3, (0, 2), (-1,)),
    (make_curve("hyp", (1, 0, 0, 0, 0, 1)), (0,), (-1,)),  # x^5 + 1
    (HYP4, (), (1, -1)),
    (make_curve("hyp", (1, 0, 0, 0, 1)), (0,), ()),  # x^4 + 1
)

small = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def ring_coeff(draw, ring):
    if ring == RATIONAL:
        return Coeff.const(ring, draw(small))
    if ring == POLY:
        return Coeff.poly(draw(st.lists(small, max_size=3)))
    return Coeff.nil(ring, draw(st.lists(small, min_size=ring.order, max_size=ring.order)))


@st.composite
def lift_inputs(draw, rings):
    """(curve, x, branch, prec): x over one of ``rings`` with a pole at
    infinity, an arc through a point with h(a) a nonzero square, or an arc
    through a Weierstrass point (x - a of valuation 2), exact or known
    below 1 to 40 terms past its lowest exponent."""
    curve, bases, roots = draw(st.sampled_from(LIFT_CURVES))
    ring = draw(st.sampled_from(rings))
    shape = draw(st.sampled_from(["pole"] + ["arc"] * bool(bases) + ["weierstrass"] * bool(roots)))
    c = draw(small.filter(bool))
    low = 0
    if shape == "pole":
        n = draw(st.integers(1, 3))
        low = -2 * n if curve.degree % 2 else -n
        terms = {low: c * c}
    elif shape == "arc":
        terms = {0: draw(st.sampled_from(bases)), 1: c}
    else:
        a = draw(st.sampled_from(roots))
        dh = sum(i * curve.h[i] * Fraction(a) ** (i - 1) for i in range(1, len(curve.h)))
        terms = {0: a, 2: dh * c * c}  # h(x) starts h'(a)^2 c^2 z^2
    for e in draw(st.sets(st.integers(low + 1, low + 12), max_size=4)):
        if e not in terms:
            terms[e] = ring_coeff(draw, ring)
    # precisions near the least that certifies are drawn more often
    precs = st.one_of(st.integers(1, 8), st.integers(1, 40))
    x_prec = draw(st.one_of(st.none(), precs.map(lambda k: low + k)))
    x = LaurentSeries.build(ring, terms, x_prec)
    return curve, x, draw(st.sampled_from([1, -1])), draw(precs)


# no lift over Q[eps]/eps^k gets past sqrt's rational leading coefficient,
# so those rings are drawn less often
LIFT_RINGS = (RATIONAL, RATIONAL, POLY, POLY, nilpotent_ring(2), nilpotent_ring(3))


@given(lift_inputs(LIFT_RINGS))
@settings(max_examples=200, deadline=None)
def test_lift_is_marked_exactly_when_the_full_check_passes(args):
    curve, x, branch, prec = args
    try:
        loop = lift_x(curve, x, branch=branch, prec=prec)
    except LoopSpaceError:
        return  # no lift, e.g. a leading coefficient that is no square
    assert loop._certified == (full_check(loop) is True)
    for n in (2, 3):
        cover = cover_loop(loop, n)
        assert cover._certified == loop._certified
        if loop._certified:
            assert full_check(cover) is True


def test_the_mark_follows_the_precision_rule():
    # y^2 - h(x) for x = z^-2 on x^3 + 1 is known below v(h(x)) + prec = -6 + prec
    x = S({-2: 1})
    for prec in (1, 6):
        assert not lift_x(HYP3, x, prec=prec)._certified
    assert lift_x(HYP3, x, prec=7)._certified
    # an exact square is an exact lift, certified at any precision
    assert lift_x(HYP3, S({0: 2}), prec=1).y.exact
    assert lift_x(HYP3, S({0: 2}), prec=1)._certified


def test_charts_and_point_loops_are_marked():
    for curve in (A1, GM, HYP3, HYP4):
        for chart in curve.punctures:
            loop = puncture_loop(curve, chart.label)
            assert loop._certified and full_check(loop) is True
            assert cover_loop(loop, 3)._certified and full_check(cover_loop(loop, 3)) is True
    for point in ((0, 1), (0, -1), (2, 3), (2, -3)):
        loop = point_loop(HYP3, point)
        assert loop._certified and full_check(loop) is True


def test_hand_built_loops_stay_unmarked():
    good = lift_x(HYP3, S({0: 2, 1: 1}))
    copy = Loop(HYP3, good.x, good.y)
    assert good._certified and not copy._certified
    assert copy == good and hash(copy) == hash(good) and repr(copy) == repr(good)
    assert not cover_loop(copy, 2)._certified


# -- the branch read against the quotient it replaced ----------------------------------


def old_branch_value(loop):
    """The branch value as classify_loop computed it before: the z^0
    coefficient of y / x^(d/2), through a whole-series inverse."""
    d = loop.curve.degree
    w = loop.y * (loop.x ** (d // 2)).invert()
    return w.coeff(0).as_fraction()


EVEN_CURVES = (HYP4, make_curve("hyp", (-1, 0, 0, 0, 0, 0, 1)))  # x^4 - 1, x^6 - 1


@given(
    st.sampled_from(EVEN_CURVES),
    st.integers(1, 3),
    st.sampled_from([1, -1]),
    small.filter(bool),
    st.lists(small, min_size=3, max_size=3),
    st.one_of(st.none(), st.integers(1, 6)),
    st.one_of(st.none(), st.integers(1, 6)),
    st.sampled_from([1, 1, -1, 2, Fraction(-1, 3)]),
)
@settings(max_examples=150, deadline=None)
def test_branch_read_matches_the_old_quotient(curve, n, branch, c, tail, kx, ky, q):
    """Lifts of x = c z^-n + ... with x and y cut down to kx and ky terms
    past their lowest exponent, and y scaled by q, which gives a hand-built
    loop with a wrong branch value unless q = +-1."""
    x = S({-n: c, -n + 1: tail[0], -n + 2: tail[1], -n + 4: tail[2]})
    if kx is not None:
        x = x.truncate(-n + kx)
    y = lift_x(curve, x, branch=branch).y
    if ky is not None:
        y = y.truncate(y.ord_min() + ky)
    loop = Loop(curve, x, y.scale(q))
    lead = old_branch_value(loop)
    if lead in (1, -1):
        label = "infinity+" if lead == 1 else "infinity-"
        assert classify_loop(loop) == ComponentClass.pole(label, n)
    else:
        with pytest.raises(InconsistentPoleData) as err:
            classify_loop(loop)
        assert str(err.value) == f"branch value {lead} at infinity is not +-1"
