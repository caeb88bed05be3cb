"""Curve catalog, puncture charts, loops, and their component classification.

Supported curves: the line minus a finite set S of distinct rational
punctures (and infinity), spelled "a1" for S = {} and "gm" for S = {0},
and hyperelliptic curves y^2 = h(x) with h monic, squarefree, of
degree >= 3.  Each curve carries a chart at every puncture of the proper
model: the local x and the branch of y there.  Loops are coordinate
series satisfying the defining equation, and classification reads the
component invariant (arc, or puncture plus pole order) off valuations.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd

from . import series as _series
from .errors import (
    DegreeTooSmall,
    InconsistentPoleData,
    InsufficientPrecision,
    NotMonic,
    NotSquarefree,
    RingMismatch,
    ZeroSeries,
)
from .ring import RATIONAL, Coeff, Ring, Value, _format_monomials, _power
from .series import DEFAULT_PREC, LaurentSeries

AFFINE_LINE = "a1"
LINE = "line"
HYPERELLIPTIC = "hyp"
#: the lines with a name of their own: S = {} and S = {0}
_NAMED_LINES = {AFFINE_LINE: (), "gm": (0,)}

ARC = "arc"
POLE = "pole"
A1_CONNECTED = "a1"


class PunctureChart(namedtuple("PunctureChart", "label x branch", defaults=(1,))):
    """A puncture of the proper model: its ``label``, the affine x as a
    series in the local parameter, and the ``branch`` that ``lift_x``
    takes there (+1, except -1 at infinity-).  The chart stores no y: a
    hyperelliptic puncture's y is expanded by ``puncture_loop``."""

    __slots__ = ()


class Curve(Value):
    """A catalog curve, built by ``make_curve``.  ``kind`` is "hyp", or the
    spelling of a line: "a1", "gm" or "line:<S>"; ``h`` holds the
    hyperelliptic coefficients, ascending, and is () otherwise; ``finite``
    holds the finite punctures S of a line, ascending."""

    __slots__ = ("kind", "h", "genus", "punctures", "finite")

    def __init__(self, kind: str, h: tuple[Fraction, ...], genus: int,
                 punctures: tuple[PunctureChart, ...], finite: tuple[Fraction, ...] = ()):
        self.kind, self.h, self.genus, self.punctures = kind, h, genus, punctures
        self.finite = finite

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.h, self.genus, self.punctures, self.finite) == (
            other.kind, other.h, other.genus, other.punctures, other.finite)

    def __hash__(self):
        return hash((self.kind, self.h, self.genus, self.punctures, self.finite))

    def puncture(self, label: str) -> PunctureChart:
        for chart in self.punctures:
            if chart.label == label:
                return chart
        raise KeyError(f"no puncture {label!r} on this curve")

    @property
    def degree(self) -> int:
        return len(self.h) - 1

    def __str__(self):
        if self.kind == HYPERELLIPTIC:
            h = [(_power("x", i), q) for i, q in enumerate(self.h) if q]
            return f"hyp:h={_format_monomials(h)}"
        return self.kind


class Loop(Value):
    """A loop into the curve: coordinate series over one ring.

    ``Loop(curve, x, y)`` is unchecked; the constructors listed in
    ``check_on_curve`` mark the loops that lie on the curve by
    construction, and ``_loop`` sets that mark right after ``__init__``,
    the one assignment to a field of a built ``Value``.  The mark takes no
    part in ``==``, ``hash`` or ``repr``.
    """

    __slots__ = ("curve", "x", "y", "_certified")

    def __init__(self, curve: Curve, x: LaurentSeries, y: LaurentSeries | None = None):
        self.curve, self.x, self.y, self._certified = curve, x, y, False

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.curve, self.x, self.y) == (other.curve, other.x, other.y)

    def __hash__(self):
        return hash((self.curve, self.x, self.y))

    @property
    def ring(self) -> Ring:
        return self.x.ring


def _loop(curve: Curve, x: LaurentSeries, y: LaurentSeries | None, certified: bool) -> Loop:
    """``Loop(curve, x, y)``, marked as on the curve when ``certified``."""
    loop = Loop(curve, x, y)
    loop._certified = certified
    return loop


class ComponentClass(namedtuple(
    "ComponentClass", "kind puncture pole_order has_pole", defaults=(None, None, None)
)):
    """The component invariant of a loop.

    ``kind`` is "arc", "pole" (with puncture label and order), or "a1"
    (the affine line has a connected loop space; ``has_pole`` is purely
    informational there).
    """

    __slots__ = ()

    @staticmethod
    def arc() -> "ComponentClass":
        return ComponentClass(ARC)

    @staticmethod
    def pole(puncture: str, order: int) -> "ComponentClass":
        if order < 1:
            raise ValueError("pole order must be positive")
        return ComponentClass(POLE, puncture=puncture, pole_order=order)

    @staticmethod
    def a1(has_pole: bool) -> "ComponentClass":
        return ComponentClass(A1_CONNECTED, has_pole=has_pole)

    def __str__(self):
        if self.kind == ARC:
            return "class=Arc"
        if self.kind == POLE:
            return f"class=Pole punct={self.puncture} order={self.pole_order}"
        return f"class=A1 connected has_pole={'true' if self.has_pole else 'false'}"


# -- polynomial helpers ------------------------------------------------------


def _is_squarefree(p: Sequence[int]) -> bool:
    """Whether gcd(p, p') is a constant, for the ascending integer
    coefficients of a polynomial p of degree >= 1: Euclid on primitive
    pseudo-remainders, so every entry stays an integer."""
    a, b = list(p), [i * v for i, v in enumerate(p)][1:]
    while b:
        while len(a) >= len(b):  # a <- lead(b) a - lead(a) x^shift b
            top, shift = a[-1], len(a) - len(b)
            a = [v * b[-1] for v in a]
            for i, v in enumerate(b):
                a[shift + i] -= top * v
            while a and not a[-1]:
                a.pop()
        g = gcd(*a)
        a, b = b, [v // g for v in a]
    return len(a) == 1


def eval_poly_at_series(h: Sequence, x: LaurentSeries) -> LaurentSeries:
    """h(x(z)) for the coefficients h_0, h_1, ... of a polynomial: rationals,
    or series over the ring of x.

    Horner's rule over the nonzero coefficients only (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, 5.2): a run of zero coefficients
    costs one power x ** gap, so x^20000 + 1 takes O(log 20000) products.
    It runs on bare series (den, rows, prec); a rational is a constant row.
    """
    ring, base = x.ring, (x.den, x.rows, x.prec)
    acc, top = None, None
    for i in range(len(h) - 1, -1, -1):
        c = h[i]
        if isinstance(c, LaurentSeries):
            c = (c.den, c.rows, c.prec)
        elif not c:
            continue
        else:
            c = Coeff.const(ring, c)
            c = (c.den, ((0, c.payload),), None)
        if acc is not None:
            den, rows, prec = _series._times(ring, acc, _series._power(ring, base, top - i))
            prec = _series._min_prec(prec, c[2])
            c = (*_series._add_rows(den, rows, c[0], c[1], prec), prec)
        acc, top = c, i
    if top is None:
        return LaurentSeries.zero(ring)
    if top:
        acc = _series._times(ring, acc, _series._power(ring, base, top))
    return LaurentSeries.from_rows(ring, *acc)


# -- curve construction -------------------------------------------------------


def make_curve(kind: str, h: Iterable[Fraction | int] | None = None) -> Curve:
    """Build a catalog curve: "line" with the distinct finite punctures
    ``h``, or "a1" and "gm", the lines with none and with 0; or "hyp" with
    the ascending coefficients ``h`` of y^2 = h(x).  No series is
    expanded: each puncture's chart is its local x, s + z at a finite
    puncture s and z^-1 at infinity on a line, and its branch (see
    ``puncture_loop``)."""
    if kind in _NAMED_LINES:
        kind, h = LINE, _NAMED_LINES[kind]
    if kind == LINE:
        points = [Fraction(s) for s in h]
        finite = tuple(sorted(set(points)))
        if len(finite) < len(points):
            raise NotSquarefree("the punctures of a line must be distinct")
        charts = [PunctureChart(str(s), LaurentSeries.build(RATIONAL, {0: s, 1: 1})) for s in finite]
        charts.append(PunctureChart("infinity", LaurentSeries.monomial(RATIONAL, -1)))
        spellings = {named: name for name, named in _NAMED_LINES.items()}
        spelling = spellings.get(finite, "line:" + ",".join(map(str, finite)))
        return Curve(spelling, (), 0, tuple(charts), finite)
    if kind != HYPERELLIPTIC:
        raise ValueError(f"unknown curve kind {kind!r}")

    if h is None:
        raise ValueError("hyperelliptic curves need the polynomial h")
    row = Coeff.poly(h)  # trimmed integers over one denominator
    d = len(row.payload) - 1
    if d < 3:
        raise DegreeTooSmall("deg h must be at least 3")
    if row.payload[-1] != row.den:
        raise NotMonic("h must be monic")
    if not _is_squarefree(row.payload):
        raise NotSquarefree("h must be squarefree")
    hh = row.data
    genus = (d - 1) // 2

    if d % 2 == 1:
        # one point at infinity: x = u^-2, y = u^-d * s(u)
        charts = (PunctureChart("infinity", LaurentSeries.monomial(RATIONAL, -2)),)
    else:
        # two points at infinity: x = u^-1, y = +/- u^(-d/2) * s(u)
        x = LaurentSeries.monomial(RATIONAL, -1)
        charts = (
            PunctureChart("infinity+", x),
            PunctureChart("infinity-", x, -1),
        )
    return Curve(HYPERELLIPTIC, hh, genus, charts)


# -- loops ---------------------------------------------------------------------


def check_on_curve(loop: Loop) -> bool:
    """True iff the coordinates satisfy the curve up to the common precision.

    On a line, x - s must have a unit lowest coefficient at each finite
    puncture s.  On a hyperelliptic curve, y^2 - h(x) must have no stored
    term below its precision, and a precision of 0 or less raises
    ``InsufficientPrecision``.
    A marked loop returns True at once; each marking constructor makes only
    loops for which the check would return True without raising:

    - ``lift_x``, when the precision of y^2 - h(x), min(prec h(x),
      prec y + ord_min y) by the product rule, is exact or positive:
      ``sqrt`` certifies y^2 = h(x) below exactly that precision.
    - ``puncture_loop`` and ``point_loop`` on a hyperelliptic curve,
      through ``lift_x``; ``puncture_loop`` on a line, whose x = s + z or
      z^-1 passes the check.
    - ``forms._verify_third_kind``'s loop at the conjugate (a, -b) of a
      lifted point: y -> -y leaves y^2, so the check, unchanged.
    - ``cover_loop`` of a marked loop: z -> z^n maps the check term by
      term and scales its precision by n.
    - ``components._specialize_loop`` of a marked loop: t -> t0 is a ring
      homomorphism that keeps ``prec``, and ``ord_min`` can only rise, so
      the fiber's check reaches at least the parent's precision.  A marked
      loop over Q[t] comes from ``lift_x``, whose y has a nonzero rational
      lowest term, so it reaches exactly that precision, below which the
      fiber's y^2 - h(x) is the specialisation of the parent's zero.
    """
    if loop._certified:
        return True
    curve = loop.curve
    if curve.kind != HYPERELLIPTIC:
        for s in curve.finite:
            x = _minus(loop.x, s)
            try:
                v = x.valuation()
            except ZeroSeries:
                return False
            if not x.coeff(v).is_unit():
                return False
        return True
    if loop.y is None:
        return False
    r = loop.y * loop.y - eval_poly_at_series(curve.h, loop.x)
    if not r.zero_to_prec():
        return False
    if r.prec is not None and r.prec <= 0:
        raise InsufficientPrecision("curve equation not certifiable at this precision")
    return True


def _minus(x: LaurentSeries, s: Fraction) -> LaurentSeries:
    """x - s; x itself for s = 0."""
    return x - LaurentSeries.constant(x.ring, s) if s else x


def _no_negative_part(s: LaurentSeries) -> bool:
    """Certified absence of poles: negative coefficients all known zero."""
    low = s.ord_min()
    if low is not None and low < 0:
        return False
    if s.prec is not None and s.prec < 0:
        raise InsufficientPrecision("negative coefficients are not certified")
    return True


def classify_loop(loop: Loop) -> ComponentClass:
    """Component invariant of a single loop over the rationals."""
    if loop.ring != RATIONAL:
        raise RingMismatch("classification needs rational coefficients")
    curve = loop.curve
    if curve.kind == AFFINE_LINE:
        return ComponentClass.a1(has_pole=not _no_negative_part(loop.x))
    if curve.kind != HYPERELLIPTIC:
        v = loop.x.ord_min()  # every stored rational term is nonzero
        if v is not None and v < 0:
            return ComponentClass.pole("infinity", -v)
        if not loop.x.exact and loop.x.prec < 1:
            raise InsufficientPrecision("the constant term of x is not certified")
        s = loop.x.coeff(0).as_fraction()
        if s not in curve.finite:
            return ComponentClass.arc()
        return ComponentClass.pole(str(s), _minus(loop.x, s).valuation())

    d = curve.degree
    x, y = loop.x, loop.y
    if _no_negative_part(x) and _no_negative_part(y):
        return ComponentClass.arc()
    try:
        vx = x.valuation()
        vy = y.valuation()
    except ZeroSeries:
        raise InconsistentPoleData("a coordinate with a pole vanished identically")
    if vx >= 0:
        raise InconsistentPoleData("y has a pole while x does not")
    if d % 2 == 1:
        if vx % 2 != 0:
            raise InconsistentPoleData("odd pole order of x at the unique puncture")
        n = -vx // 2
        if vy != -n * d:
            raise InconsistentPoleData(
                f"pole orders disagree: v(x)={vx}, v(y)={vy}, deg h={d}"
            )
        return ComponentClass.pole("infinity", n)
    n = -vx
    if vy != -n * d // 2:
        raise InconsistentPoleData(
            f"pole orders disagree: v(x)={vx}, v(y)={vy}, deg h={d}"
        )
    # w = y / x^(d/2) has valuation 0 and w_0 = lead(y) / lead(x)^(d/2),
    # known below min(prec y - vy, prec x - vx) >= 1
    lead = y.coeff(vy).as_fraction() / x.coeff(vx).as_fraction() ** (d // 2)
    if lead == 1:
        return ComponentClass.pole("infinity+", n)
    if lead == -1:
        return ComponentClass.pole("infinity-", n)
    raise InconsistentPoleData(f"branch value {lead} at infinity is not +-1")


def cover_loop(loop: Loop, n: int) -> Loop:
    """Precompose the loop with the degree-n cover of the punctured disc."""
    y = None if loop.y is None else loop.y.covering(n)
    return _loop(loop.curve, loop.x.covering(n), y, loop._certified)


def lift_x(curve: Curve, x: LaurentSeries, branch: int = 1, prec: int | None = None) -> Loop:
    """Solve y^2 = h(x) by series square root; ``branch`` picks the sign."""
    if curve.kind != HYPERELLIPTIC:
        raise ValueError("lift_x only applies to hyperelliptic curves")
    hx = eval_poly_at_series(curve.h, x)
    y = _series.sqrt(hx, prec=prec, branch=branch)
    # the precision check_on_curve would certify y^2 = h(x) to
    bounds = [] if y.prec is None else [y.prec + y.ord_min()]
    if hx.prec is not None:
        bounds.append(hx.prec)
    return _loop(curve, x, y, min(bounds, default=1) > 0)


def puncture_loop(curve: Curve, label: str) -> Loop:
    """The order-1 local loop through a puncture, marked as on the curve.

    On a hyperelliptic curve of degree d it is ``lift_x`` of the chart's
    x on its branch, to max(DEFAULT_PREC, 2e + 1) terms, e = d for odd d
    and d/2 for even d: h(x) has a pole of order 2e, so y^2 - h(x) is
    certified below the number of terms minus 2e, which is positive.
    ``AssertionError`` if the lift is not marked.
    """
    chart = curve.puncture(label)
    if curve.kind != HYPERELLIPTIC:
        return _loop(curve, chart.x, None, True)
    d = curve.degree
    e = d if d % 2 else d // 2
    loop = lift_x(curve, chart.x, chart.branch, max(DEFAULT_PREC, 2 * e + 1))
    if not loop._certified:
        raise AssertionError("puncture chart fails the curve equation")
    return loop


def point_loop(curve: Curve, point: tuple[Fraction, ...]) -> Loop:
    """An order-1 local loop x = a + z through a rational affine point.

    On a hyperelliptic curve y is lifted once, to ``DEFAULT_PREC`` terms,
    on the branch of the sign of b (+ for b = 0); ``ValueError`` when its
    constant term is not b.
    """
    a = Fraction(point[0])
    x = LaurentSeries.build(RATIONAL, {0: a, 1: 1})
    if curve.kind != HYPERELLIPTIC:
        return Loop(curve, x)
    b = Fraction(point[1])
    loop = lift_x(curve, x, branch=-1 if b < 0 else 1)
    if loop.y.coeff(0).as_fraction() != b:
        raise ValueError(f"point ({a}, {b}) does not lie on the curve")
    return loop
