"""Component-set bookkeeping: the covering-action quotient and the census.

The covering action multiplies pole orders, so its quotient forgets the
order and remembers only the puncture; the census of quotient classes is
1 (arcs) + one per puncture (on a line minus S, 1 + |S| + 1 with
infinity), except for the affine line whose loop space is a single
component.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .curves import (
    A1_CONNECTED,
    AFFINE_LINE,
    ARC,
    HYPERELLIPTIC,
    ComponentClass,
    Curve,
    Loop,
    _loop,
    check_on_curve,
    classify_loop,
)
from .errors import LoopSpaceError
from .ring import POLY, RATIONAL, payload_at
from .series import LaurentSeries


class QuotientClass(namedtuple("QuotientClass", "kind puncture", defaults=(None,))):
    """A class of the covering-action quotient: ``kind`` is "arc", or
    "puncture" with the puncture's label."""

    __slots__ = ()

    @staticmethod
    def arc() -> "QuotientClass":
        return QuotientClass("arc")

    @staticmethod
    def at_puncture(label: str) -> "QuotientClass":
        return QuotientClass("puncture", label)

    def __str__(self):
        return "arc" if self.kind == "arc" else f"puncture {self.puncture}"


def quotient_class(c: ComponentClass) -> QuotientClass:
    """Collapse a component class along the covering action."""
    if c.kind == A1_CONNECTED:
        raise ValueError("the affine line has a single class; use the census")
    if c.kind == ARC:
        return QuotientClass.arc()
    return QuotientClass.at_puncture(c.puncture)


def pi0_census(curve: Curve) -> int:
    """Number of loop-space components up to coverings: 1 + #punctures."""
    if curve.kind == AFFINE_LINE:
        return 1
    return 1 + len(curve.punctures)


#: the fiber at t: its ``ComponentClass``, or None and the error it raised
FiberResult = namedtuple("FiberResult", "t component error", defaults=(None,))

#: every fiber, the most common class among them, and the t of the others
FamilyClassification = namedtuple("FamilyClassification", "fibers generic jumps")


def _specialize_loop(loop: Loop, t0: Fraction) -> Loop:
    """The fiber at t = t0; marked on the curve when ``loop`` is (see
    ``check_on_curve``)."""
    y = None if loop.y is None else loop.y.specialize(t0)
    return _loop(loop.curve, loop.x.specialize(t0), y, loop._certified)


def _leading_rows(s: LaurentSeries, t0: Fraction, finite: tuple = ()) -> LaurentSeries:
    """s at t = t0 through its first row e that does not vanish there,
    known below e + 1; all of s at t0, zero below its precision, when
    every row vanishes.  A constant row whose value a is in ``finite`` (a
    puncture of a line) is read on: a plus s - a through its first row
    that does not vanish."""
    p, q = t0.numerator, t0.denominator
    for e, payload in s.rows:
        d = len(payload) - 1
        value = payload_at(payload, p, q, d)
        if value:
            if not e and finite and (a := Fraction(value, s.den * q**d)) in finite:
                rest = _leading_rows(s - LaurentSeries.constant(POLY, a), t0)
                return rest + LaurentSeries.constant(RATIONAL, a)
            return LaurentSeries.from_rows(RATIONAL, s.den * q**d, [(e, (value,))], e + 1)
    return LaurentSeries(RATIONAL, 1, (), s.prec)


def classify_family(loop: Loop, t_values: Iterable[Fraction]) -> FamilyClassification:
    """Classify every fiber of a one-parameter family of loops.

    The generic class is the most common one among the sampled fibers;
    fibers with a different class (or a per-fiber error) are reported as
    jumps rather than rejected, since for the affine line jumps are real.

    A fiber is the loop at t = t0 checked with ``check_on_curve`` and
    classified with ``classify_loop``.  On a line, and on a marked loop,
    these read only the lowest exponent of x and y at t0 that does not
    vanish, its coefficient, and the precision when there is none, and on
    a line, when x(0) is a puncture s, the same of x - s; so each
    coordinate is specialised row by row up to that row only (the mark of
    the parent certifies its fibers; see ``check_on_curve``).  An unmarked
    loop on a hyperelliptic curve is specialised in full, since its check
    reads every row.
    """
    if loop.ring != POLY:
        raise ValueError("classify_family needs a loop over Q[t]")
    leading = loop._certified or loop.curve.kind != HYPERELLIPTIC
    fibers = []
    for t0 in t_values:
        t0 = Fraction(t0)
        try:
            if leading:
                y = None if loop.y is None else _leading_rows(loop.y, t0)
                fiber = Loop(loop.curve, _leading_rows(loop.x, t0, loop.curve.finite), y)
            else:
                fiber = _specialize_loop(loop, t0)
            if not (loop._certified or check_on_curve(fiber)):
                fibers.append(FiberResult(t0, None, "fiber leaves the curve"))
                continue
            fibers.append(FiberResult(t0, classify_loop(fiber)))
        except LoopSpaceError as exc:
            fibers.append(FiberResult(t0, None, str(exc)))
    counts = Counter(f.component for f in fibers if f.component is not None)
    generic = counts.most_common(1)[0][0] if counts else None
    jumps = tuple(f.t for f in fibers if f.component != generic)
    return FamilyClassification(tuple(fibers), generic, jumps)
