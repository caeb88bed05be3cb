"""Meromorphic 1-forms on catalog curves and their residue calculus.

A form is a rational function num/den in the affine coordinates (reduced
so that y appears to degree < 2 on hyperelliptic curves) times dx.  All
residues are computed one way: pull the form back along an order-1 local
loop (a puncture chart, or x = a + z at an affine point) and read the
coefficient of z^-1.  Third-kind forms with residues +1/-1 at two
prescribed places are constructed from classical formulas and then
verified against that residue computation before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .curves import (
    HYPERELLIPTIC,
    MULTIPLICATIVE,
    Curve,
    Loop,
    _loop,
    check_on_curve,
    point_loop,
    puncture_loop,
)
from .errors import (
    FormSingularAlongLoop,
    LoopSpaceError,
    RingMismatch,
    UnsupportedPointPair,
    VerificationFailed,
)
from .ring import Coeff, POLY
from .series import DEFAULT_PREC, LaurentSeries

#: A place of the proper model: a puncture label, or an affine rational
#: point given as (a,) on genus-0 curves and (a, b) on hyperelliptic ones.
Place = Union[str, tuple]


@dataclass(frozen=True)
class XYPoly:
    """Polynomial in x and y with rational coefficients.

    Terms are (x-degree, y-degree, coefficient), kept sorted; on a curve
    the y-degree is reduced below 2 via y^2 = h(x).
    """

    terms: tuple[tuple[int, int, Fraction], ...]

    @staticmethod
    def build(mapping) -> "XYPoly":
        out = {k: Fraction(v) for k, v in mapping.items() if v != 0}
        return XYPoly(tuple(sorted((i, j, c) for (i, j), c in out.items())))

    @staticmethod
    def const(c) -> "XYPoly":
        return XYPoly.build({(0, 0): Fraction(c)})

    @staticmethod
    def x(power: int = 1) -> "XYPoly":
        return XYPoly.build({(power, 0): 1})

    @staticmethod
    def y(power: int = 1) -> "XYPoly":
        return XYPoly.build({(0, power): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self):
        return {(i, j): c for i, j, c in self.terms}

    def __add__(self, other: "XYPoly") -> "XYPoly":
        out = self.as_dict()
        for (i, j), c in other.as_dict().items():
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
        return XYPoly.build(out)

    def __neg__(self) -> "XYPoly":
        return XYPoly(tuple((i, j, -c) for i, j, c in self.terms))

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        return self + (-other)

    def __mul__(self, other: "XYPoly") -> "XYPoly":
        out: dict = {}
        for i1, j1, c1 in self.terms:
            for i2, j2, c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return XYPoly.build(out)

    def scale(self, q) -> "XYPoly":
        q = Fraction(q)
        return XYPoly.build({(i, j): c * q for i, j, c in self.terms})

    def reduce(self, h: Sequence[Fraction]) -> "XYPoly":
        """Replace y^2 by h(x) until the y-degree drops below 2."""
        if not h:
            return self
        cur = self.as_dict()
        while any(j >= 2 for (_, j) in cur):
            nxt: dict = {}
            for (i, j), c in cur.items():
                if j < 2:
                    nxt[(i, j)] = nxt.get((i, j), Fraction(0)) + c
                else:
                    for m, a in enumerate(h):
                        if a != 0:
                            key = (i + m, j - 2)
                            nxt[key] = nxt.get(key, Fraction(0)) + c * a
            cur = {k: v for k, v in nxt.items() if v != 0}
        return XYPoly.build(cur)

    def evaluate(self, loop: Loop) -> LaurentSeries:
        ring = loop.ring
        xs = {i: loop.x ** i for i in {i for i, _, _ in self.terms if i}}
        ys = {j: loop.y ** j for j in {j for _, j, _ in self.terms if j}}
        acc = LaurentSeries.zero(ring)
        for i, j, c in self.terms:
            if i and j:
                term = xs[i] * ys[j]
            else:
                term = xs[i] if i else ys[j] if j else LaurentSeries.one(ring)
            acc = acc + term.scale(c)
        return acc

    def __str__(self):
        parts = []
        for i, j, c in sorted(self.terms, key=lambda t: (t[1], t[0])):
            mag = abs(c)
            factors = []
            if mag != 1 or (i == 0 and j == 0):
                factors.append(str(mag))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class MeromorphicForm:
    """(num/den) dx on a catalog curve, with y-degree reduced below 2."""

    curve: Curve
    num: XYPoly
    den: XYPoly

    @staticmethod
    def build(curve: Curve, num: XYPoly, den: XYPoly) -> "MeromorphicForm":
        if curve.kind != HYPERELLIPTIC and any(j for f in (num, den) for _, j, _ in f.terms):
            raise LoopSpaceError(f"the form uses y, which the curve {curve} does not have")
        num = num.reduce(curve.h)
        den = den.reduce(curve.h)
        if den.is_zero():
            raise ZeroDivisionError("form denominator is zero on the curve")
        return MeromorphicForm(curve, num, den)

    def __str__(self):
        num, den = str(self.num), str(self.den)
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
    den = form.den.evaluate(loop)
    if den.zero_to_prec():
        raise FormSingularAlongLoop(
            "denominator vanishes along the loop (to the stored precision)"
        )
    num = form.num.evaluate(loop)
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


def _gm_place_value(place: Place) -> Fraction | None:
    """Finite x-value of a place of the projective line; None at infinity."""
    if isinstance(place, str):
        if place == "0":
            return Fraction(0)
        if place == "infinity":
            return None
        raise UnsupportedPointPair(f"unknown place {place!r}")
    if len(place) != 1:
        raise UnsupportedPointPair(f"a point of the line has one coordinate, got {len(place)}")
    return Fraction(place[0])


def _hyp_point(curve: Curve, place: tuple) -> tuple[Fraction, Fraction]:
    if len(place) != 2:
        raise UnsupportedPointPair(f"a point of this curve has two coordinates, got {len(place)}")
    a, b = Fraction(place[0]), Fraction(place[1])
    from .ring import poly_eval

    if poly_eval(curve.h, a) != b * b:
        raise UnsupportedPointPair(f"({a}, {b}) is not on the curve")
    if b == 0:
        raise UnsupportedPointPair("Weierstrass points are not supported")
    return a, b


def _hyp_half_form(a: Fraction, b: Fraction) -> tuple[XYPoly, XYPoly]:
    """(y + b) / (2y (x - a)): residue 1 at (a, b), 0 at (a, -b)."""
    num = XYPoly.y() + XYPoly.const(b)
    den = XYPoly.const(2) * XYPoly.y() * (XYPoly.x() - XYPoly.const(a))
    return num, den


def _hyp_infinity_form(curve: Curve) -> tuple[XYPoly, XYPoly]:
    """x^g dx / y on an even-degree curve: residues -1 at oo+, +1 at oo-."""
    return XYPoly.x(curve.genus) if curve.genus else XYPoly.const(1), XYPoly.y()


def _combine(parts) -> tuple[XYPoly, XYPoly]:
    """Sum of weight * num/den fractions, over a common denominator."""
    num, den = XYPoly.const(0), XYPoly.const(1)
    for weight, (n, d) in parts:
        num = num * d + n.scale(weight) * den
        den = den * d
    return num, den


def third_kind(curve: Curve, p: Place, q: Place) -> MeromorphicForm:
    """A 1-form with residue 1 at p, -1 at q, holomorphic elsewhere.

    Supported on the projective line (multiplicative-group model) and on
    hyperelliptic curves at punctures and finite non-Weierstrass rational
    points.  The output's residues are recomputed and checked; a mismatch
    raises ``VerificationFailed`` rather than returning a bad form.
    """
    if isinstance(p, tuple):
        p = tuple(Fraction(v) for v in p)
    if isinstance(q, tuple):
        q = tuple(Fraction(v) for v in q)
    if p == q:
        raise UnsupportedPointPair("the two places must differ")
    if curve.kind == MULTIPLICATIVE:
        parts = []
        a = _gm_place_value(p)
        b = _gm_place_value(q)
        if a is not None:
            parts.append((1, (XYPoly.const(1), XYPoly.x() - XYPoly.const(a))))
        if b is not None:
            parts.append((-1, (XYPoly.const(1), XYPoly.x() - XYPoly.const(b))))
        if not parts:
            raise UnsupportedPointPair("both places at infinity")
        num, den = _combine(parts)
        form = MeromorphicForm.build(curve, num, den)
    elif curve.kind == HYPERELLIPTIC:
        odd = curve.degree % 2 == 1
        labels = {c.label for c in curve.punctures}
        parts = []
        infinity_weight = Fraction(0)

        def side(place: Place, sign: int) -> None:
            # Building blocks: the half-form at a finite point has residue
            # sign at the point and -sign/2 at each of the two infinities
            # (even degree) or -sign at the single infinity (odd degree);
            # the x^g dx/y correction moves residue from oo+ to oo-.  The
            # correction weight (target(oo-) - target(oo+)) / 2 balances the
            # books; the half-forms' own spill at infinity cancels against
            # the requirement that all residues sum to zero.
            nonlocal infinity_weight
            if isinstance(place, str):
                if place not in labels:
                    raise UnsupportedPointPair(f"unknown puncture {place!r}")
                if odd:
                    return  # the -1 residue at infinity comes out automatically
                infinity_weight += Fraction(-sign if place == "infinity+" else sign, 2)
            else:
                a, b = _hyp_point(curve, place)
                parts.append((sign, _hyp_half_form(a, b)))

        side(p, 1)
        side(q, -1)
        if odd:
            if isinstance(p, str) and isinstance(q, str):
                raise UnsupportedPointPair("only one puncture on this curve")
        elif infinity_weight != 0:
            parts.append((infinity_weight, _hyp_infinity_form(curve)))
        if not parts:
            raise UnsupportedPointPair("no supported construction for this pair")
        num, den = _combine(parts)
        form = MeromorphicForm.build(curve, num, den)
    else:
        raise UnsupportedPointPair("third-kind forms: projective line or hyperelliptic")

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
                f"residue at {place!r} is {got}, expected {value}"
            )

    expect(p, Fraction(1))
    expect(q, Fraction(-1))
    for chart in curve.punctures:
        if chart.label not in (p, q):
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
