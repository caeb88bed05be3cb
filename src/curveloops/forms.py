"""Meromorphic 1-forms on catalog curves and their residue calculus.

A form is a rational function num/den in the affine coordinates (reduced
so that y appears to degree < 2 on hyperelliptic curves) times dx.  A
polynomial in x and y is stored as the exact series over Q[t] of its
rows in y (see ``XYPoly``) and printed by ``format_xy``.  All
residues are computed one way: pull the form back along an order-1 local
loop (a puncture chart, or x = a + z at an affine point) and read the
coefficient of z^-1.  Third-kind forms with residues +1/-1 at two
prescribed places are constructed from classical formulas and then
verified against that residue computation before being returned.  On a
line a finite puncture s and the point s are one place.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .curves import (
    HYPERELLIPTIC,
    Curve,
    Loop,
    _loop,
    check_on_curve,
    eval_poly_at_series,
    point_loop,
    puncture_loop,
)
from .errors import (
    FormSingularAlongLoop,
    LoopSpaceError,
    UnsupportedPointPair,
    VerificationFailed,
)
from .ring import POLY, Coeff, _format_monomials, _power
from .series import DEFAULT_PREC, LaurentSeries

#: A place of the proper model: a puncture label, or an affine rational
#: point given as (a,) on genus-0 curves and (a, b) on hyperelliptic ones.
Place = str | tuple


def format_place(place: Place) -> str:
    """A place as the CLI prints it: its label, a, or (a, b)."""
    if isinstance(place, str):
        return place
    if len(place) == 1:
        return str(place[0])
    return "(" + ", ".join(str(v) for v in place) + ")"


class XYPoly:
    """Constructors of polynomials in x and y with rational coefficients.

    A polynomial is the exact ``LaurentSeries`` over Q[t] of its rows
    A_j(x), indexed by the y-degree j: sum A_j(t) z^j, with z standing for
    y and t for x; ``reduce_y``, ``evaluate_along`` and ``format_xy`` read
    it as a polynomial.
    """

    @staticmethod
    def build(mapping) -> LaurentSeries:
        """The polynomial sum c x^i y^j of a mapping {(i, j): c}."""
        terms = [LaurentSeries.monomial(POLY, j, Coeff.t(i, c)) for (i, j), c in mapping.items()]
        return sum(terms, LaurentSeries.zero(POLY))

    @staticmethod
    def const(c) -> LaurentSeries:
        q = Fraction(c)
        return LaurentSeries.from_rows(POLY, q.denominator, [(0, (q.numerator,))], None)

    @staticmethod
    def x(power: int = 1) -> LaurentSeries:
        return LaurentSeries.from_rows(POLY, 1, [(0, (0,) * power + (1,))], None)

    @staticmethod
    def y(power: int = 1) -> LaurentSeries:
        return LaurentSeries.from_rows(POLY, 1, [(power, (1,))], None)


def reduce_y(p: LaurentSeries, h: Sequence[Fraction]) -> LaurentSeries:
    """The polynomial p with y^2 replaced by h(x): A(x) + B(x) y with
    A = sum A_2k(x) h^k and B = sum A_2k+1(x) h^k, each by Horner's rule
    in h."""
    if not h or not p.rows or p.rows[-1][0] < 2:
        return p
    hh = Coeff.poly(h)
    halves = [Coeff.zero(POLY)] * 2
    for j in range(p.rows[-1][0], -1, -1):
        halves[j % 2] = halves[j % 2] * hh + p.coeff(j)
    return LaurentSeries.build(POLY, dict(enumerate(halves)))


def evaluate_along(p: LaurentSeries, loop: Loop) -> LaurentSeries:
    """The polynomial p along the loop, A_0(x) + y (A_1(x) + y (...)):
    each A_j(x), and then the sum in y, by ``eval_poly_at_series``."""
    if not p.rows:
        return LaurentSeries.zero(loop.ring)
    top = p.rows[-1][0]
    rows: list = [0] * (top + 1)
    for j, row in p.rows:
        rows[j] = eval_poly_at_series(row, loop.x)
    value = eval_poly_at_series(rows, loop.y) if top else rows[0]
    return value if p.den == 1 else value.scale(Fraction(1, p.den))


def format_xy(p: LaurentSeries) -> str:
    """The polynomial p as the CLI prints it, such as ``-x^2 + 2*y``."""
    return _format_monomials([
        ("*".join([m for m in (_power("x", i), _power("y", j)) if m]), Fraction(v, p.den))
        for j, row in p.rows
        for i, v in enumerate(row)
        if v
    ])


_ONE = XYPoly.const(1)


def _times(p: LaurentSeries, q: LaurentSeries) -> LaurentSeries:
    """p * q, skipping a factor of one: every curve spec and most forms
    have denominator 1, and (a*1 + b*1, 1*1) is (a + b, 1)."""
    return q if p == _ONE else p if q == _ONE else p * q


class XYQuotient:
    """The rational function num/den in x and y, not reduced to lowest
    terms: the value of a form while it is built.  Its +, -, *, / and **
    are those of rational functions; dividing by zero, or raising zero to
    a negative power, raises ``ZeroDivisionError``."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentSeries, den: LaurentSeries = _ONE):
        self.num, self.den = num, den

    def __add__(self, other: "XYQuotient") -> "XYQuotient":
        num = _times(self.num, other.den) + _times(other.num, self.den)
        return XYQuotient(num, _times(self.den, other.den))

    def __neg__(self) -> "XYQuotient":
        return XYQuotient(-self.num, self.den)

    def __sub__(self, other: "XYQuotient") -> "XYQuotient":
        return self + -other

    def __mul__(self, other: "XYQuotient") -> "XYQuotient":
        return XYQuotient(_times(self.num, other.num), _times(self.den, other.den))

    def __truediv__(self, other: "XYQuotient") -> "XYQuotient":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero")
        return XYQuotient(_times(self.num, other.den), _times(self.den, other.num))

    def __pow__(self, n: int) -> "XYQuotient":
        if n < 0 and self.num.is_zero():
            raise ZeroDivisionError("division by zero")
        num, den = [p if p == _ONE else p ** abs(n) for p in (self.num, self.den)]
        return XYQuotient(num, den) if n >= 0 else XYQuotient(den, num)


class MeromorphicForm(namedtuple("MeromorphicForm", "curve num den")):
    """(num/den) dx on a catalog curve, for polynomials num and den in x
    and y (see ``XYPoly``) with y-degree reduced below 2."""

    __slots__ = ()

    @staticmethod
    def build(curve: Curve, num: LaurentSeries, den: LaurentSeries) -> "MeromorphicForm":
        if curve.kind != HYPERELLIPTIC and any(j for f in (num, den) for j, _ in f.rows):
            raise LoopSpaceError(f"the form uses y, which the curve {curve} does not have")
        num = reduce_y(num, curve.h)
        den = reduce_y(den, curve.h)
        if den.is_zero():
            raise FormSingularAlongLoop("form denominator is zero on the curve")
        return MeromorphicForm(curve, num, den)

    def __str__(self):
        num, den = format_xy(self.num), format_xy(self.den)
        if den == "1":
            return f"({num}) dx"
        return f"({num})/({den}) dx"


def dlog_x(curve: Curve) -> MeromorphicForm:
    """dx/x."""
    return MeromorphicForm.build(curve, XYPoly.const(1), XYPoly.x())


def _pulled_back(form: MeromorphicForm, loop: Loop, residue_only: bool) -> LaurentSeries:
    """``pullback``; with ``residue_only``, 1/den is expanded only as far as
    the coefficient of z^-1 needs."""
    if loop.curve != form.curve:
        raise ValueError("loop and form live on different curves")
    if not check_on_curve(loop):
        raise LoopSpaceError("loop does not lie on the curve")
    den = evaluate_along(form.den, loop)
    if den.zero_to_prec():
        raise FormSingularAlongLoop(
            "denominator vanishes along the loop (to the stored precision)"
        )
    num = evaluate_along(form.num, loop)
    dx = loop.x.derivative()
    v = den.ord_min()
    w = DEFAULT_PREC if den.exact else den.prec - v  # the window of den.invert()
    if residue_only and num.rows and dx.rows:
        # 1/den known below -v + w leaves num / den * dx known below
        # ord(num) + ord(dx) - v + w, which must be at least 0 for z^-1.
        # Capped at the full window, so a residue that window cannot
        # certify still raises.
        w = min(w, max(1, v - num.ord_min() - dx.ord_min()))
    inverse = den.invert(w) if den.exact else den.truncate(v + w).invert()
    return num * inverse * dx


def pullback(form: MeromorphicForm, loop: Loop) -> LaurentSeries:
    """The coefficient series of the pulled-back form (num/den)(x,y) x' dz.

    Raises ``LoopSpaceError`` when the loop does not lie on the curve.
    """
    return _pulled_back(form, loop, residue_only=False)


def residue_along(form: MeromorphicForm, loop: Loop) -> Coeff:
    """Coefficient of z^-1 in ``pullback(form, loop)``."""
    return _pulled_back(form, loop, residue_only=True).residue()


def place_loop(curve: Curve, place: Place) -> Loop:
    if isinstance(place, str):
        return puncture_loop(curve, place)
    return point_loop(curve, place)


def residue_at_place(form: MeromorphicForm, place: Place) -> Coeff:
    """Residue at a puncture or rational affine point, via its local loop."""
    return residue_along(form, place_loop(form.curve, place))


def residue_sum(form: MeromorphicForm, places: Sequence[Place]) -> Coeff:
    """Sum of residues over a caller-supplied list of poles.

    Zero when the list really is complete; completeness is not checked.
    """
    if not places:
        raise ValueError("empty pole list")
    residues = [residue_at_place(form, place) for place in places]
    total = residues[0]
    for r in residues[1:]:
        total = total + r
    return total


def family_residue_constancy(form: MeromorphicForm, loop: Loop) -> bool:
    """True iff the residue of the pullback is constant in the parameter t."""
    r = residue_along(form, loop)
    if r.ring == POLY:
        return r.poly_degree() <= 0
    return True


# -- third-kind differentials -------------------------------------------------


def _place(curve: Curve, place: Place) -> Place:
    """The normal form of a place, as ``third_kind`` and its check compare
    places: a puncture label at infinity or on a hyperelliptic curve; (a,)
    at a finite place a of a line, written as a point or as a label, so
    the puncture ``0`` of ``gm`` and the point ``0`` of ``line:1`` are both
    (0,); or (a, b) on a hyperelliptic curve, checked to lie on it and not
    to be a Weierstrass point."""
    if isinstance(place, str):
        try:
            if curve.kind == HYPERELLIPTIC or place == "infinity":
                return curve.puncture(place).label
            place = (Fraction(place),)
        except (KeyError, ValueError, ZeroDivisionError):
            raise UnsupportedPointPair(f"unknown puncture {place!r}") from None
    place = tuple([Fraction(v) for v in place])
    if curve.kind != HYPERELLIPTIC:
        if len(place) != 1:
            raise UnsupportedPointPair(f"a point of the line has one coordinate, got {len(place)}")
        return place
    if len(place) != 2:
        raise UnsupportedPointPair(f"a point of this curve has two coordinates, got {len(place)}")
    a, b = place
    if Coeff.poly(curve.h).specialize(a).as_fraction() != b * b:
        raise UnsupportedPointPair(f"({a}, {b}) is not on the curve")
    if b == 0:
        raise UnsupportedPointPair("Weierstrass points are not supported")
    return place


def third_kind(curve: Curve, p: Place, q: Place) -> MeromorphicForm:
    """A 1-form with residue 1 at p, -1 at q, holomorphic elsewhere.

    Supported on a line, at its punctures and rational points, and on
    hyperelliptic curves at punctures and finite non-Weierstrass rational
    points.  The output's residues are recomputed and checked; a mismatch
    raises ``VerificationFailed`` rather than returning a bad form.

    The form is a weighted sum: dx/(x - a) at a finite place a of a line,
    and on a hyperelliptic curve the half-form at a finite point, with
    residue sign there and -sign/2 at each of two infinities (even degree)
    or -sign at the one infinity (odd degree).  On even degree x^g dx/y
    (residue -1 at oo+, +1 at oo-) enters last, with weight
    (target(oo-) - target(oo+)) / 2; the half-forms' own spill at infinity
    cancels, since all residues sum to zero.
    """
    p, q = _place(curve, p), _place(curve, q)
    if p == q:
        raise UnsupportedPointPair("the two places must differ")
    x, y = XYPoly.x(), XYPoly.y()
    total = XYQuotient(XYPoly.const(0))
    infinity_weight = Fraction(0)
    for sign, place in ((1, p), (-1, q)):
        if curve.kind != HYPERELLIPTIC:
            if place != "infinity":
                total += XYQuotient(XYPoly.const(sign), x - XYPoly.const(place[0]))
        elif isinstance(place, tuple):
            # (y + b) / (2y (x - a)): residue 1 at (a, b), 0 at (a, -b)
            a, b = place
            half = XYQuotient(y + XYPoly.const(b), XYPoly.const(2) * y * (x - XYPoly.const(a)))
            total += half if sign > 0 else -half
        elif place != "infinity":
            infinity_weight += Fraction(-sign if place == "infinity+" else sign, 2)
    if infinity_weight:
        total += XYQuotient(XYPoly.x(curve.genus).scale(infinity_weight), y)
    form = MeromorphicForm.build(curve, total.num, total.den)
    _verify_third_kind(form, p, q)
    return form


def _verify_third_kind(form: MeromorphicForm, p: Place, q: Place) -> None:
    """Check every residue: 1 at p, -1 at q, 0 at the other punctures and at
    the conjugates (a, -b) of hyperelliptic points among p, q.

    Each place's loop is built once: a conjugate (a, -b) of a lifted point
    is its loop with y negated, so ``lift_x`` runs once per x-value.
    """
    curve = form.curve
    lifted = {}  # a -> the loop through a lifted point (a, b)

    def loop_at(place: Place) -> Loop:
        if isinstance(place, str) or curve.kind != HYPERELLIPTIC:
            return place_loop(curve, place)
        loop = lifted.get(place[0])
        if loop is None:
            loop = lifted[place[0]] = point_loop(curve, place)
        elif loop.y.coeff(0).as_fraction() != place[1]:
            return _loop(curve, loop.x, -loop.y, True)
        return loop

    def expect(place: Place, value: Fraction) -> None:
        got = residue_along(form, loop_at(place)).as_fraction()
        if got != value:
            raise VerificationFailed(
                f"residue at {format_place(place)} is {got}, expected {value}"
            )

    expect(p, Fraction(1))
    expect(q, Fraction(-1))
    for chart in curve.punctures:
        if _place(curve, chart.label) not in (p, q):
            expect(chart.label, Fraction(0))
    for place in (p, q):
        if isinstance(place, tuple) and curve.kind == HYPERELLIPTIC:
            conj = (place[0], -place[1])
            if conj not in (p, q):
                expect(conj, Fraction(0))


# -- exact linear algebra (used by the genus-0 dimension check) ----------------


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix of fractions by Gaussian elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank
