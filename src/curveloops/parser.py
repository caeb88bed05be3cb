"""Text input language: series literals, polynomials, curve specs, places.

Series grammar (CLI):  ``term (+/- term)* [+ O(z^N)]`` where a term is a
product of integer/fraction literals, ``eps``/``t`` powers, and ``z``
powers; absence of the ``O(...)`` tail means the series is exact.  The ring
is inferred from the symbols present (``eps`` -> nilpotent extension,
``t`` -> Q[t], else rationals) unless an explicit ring is supplied.

The same expression engine parses rational functions in x and y for the
forms subcommands and the h polynomial of hyperelliptic curve specs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from operator import truediv

from .curves import Curve, make_curve
from .errors import NotInvertible, ParseError, RingMismatch
from .forms import XYPoly, XYQuotient
from .normal_form import NormalForm
from .ring import (
    POLY,
    RATIONAL,
    Coeff,
    Ring,
    coeff_is_composite,
    format_coeff,
    nilpotent_ring,
)
from .series import LaurentSeries

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^(),=])|(\S))")
_KINDS = (None, "int", "name", "sym")

#: The nilpotency order k of Q[eps]/(eps^k) for a series that uses eps
#: and names no ring.
INFERRED_NILPOTENCY = 3


class _ExprParser:
    """Recursive descent over the tokens of ``text``.  Values combine with
    their own +, -, *, / and **; ``atom(kind, text, pos)`` gives the value
    of an "int" or a "name" token.  With ``big_o`` a sum may end in an
    ``O(z^N)`` term, whose N is kept in ``prec``."""

    def __init__(self, text: str, atom, big_o: bool = False):
        self.tokens: list[tuple] = []  # (kind, text, position)
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            if group == 4:
                raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
            self.tokens.append((_KINDS[group], m.group(group), m.start(group)))
        # the end of the text: every caller that steps past it raises
        self.tokens.append((None, None, len(text)))
        self.index = 0
        self.atom = atom
        self.big_o = big_o
        self.prec: int | None = None

    def peek(self) -> tuple:
        return self.tokens[self.index]

    def next(self) -> tuple:
        self.index += 1
        return self.tokens[self.index - 1]

    def accept(self, sym: str) -> bool:
        """Step over the symbol ``sym`` if it comes next (no int or name
        token spells a symbol)."""
        if self.tokens[self.index][1] == sym:
            self.index += 1
            return True
        return False

    def expect(self, sym: str) -> None:
        if not self.accept(sym):
            raise ParseError(f"expected {sym!r}", self.peek()[2])

    def parse(self):
        """The value of the whole text; None for a series that is only an
        ``O(z^N)`` term.  Input nested deeper than the interpreter's
        recursion limit allows, and a division by zero, are parse errors."""
        try:
            value = self.parse_sum()
        except RecursionError:
            raise ParseError("expression nested too deeply", 0) from None
        except ZeroDivisionError:
            raise ParseError("division by zero", 0) from None
        kind, _, pos = self.peek()
        if kind is not None:
            raise ParseError("trailing input", pos)
        return value

    def parse_sum(self):
        value = None
        while True:
            negative = self.peek()[1] == "-"
            if not (self.accept("+") or self.accept("-")) and value is not None:
                return value
            kind, val, pos = self.peek()
            if kind == "name" and val == "O" and self.big_o:
                if negative:
                    raise ParseError("O(...) cannot be subtracted", pos)
                self._parse_big_o()
                kind, _, pos = self.peek()
                if kind is not None:
                    raise ParseError("O(...) must be the final term", pos)
                return value
            term = self.parse_product()
            if value is None:
                value = -term if negative else term
            else:
                value = value - term if negative else value + term

    def _parse_big_o(self):
        self.index += 1  # O
        self.expect("(")
        kind, val, pos = self.next()
        if kind != "name" or val != "z":
            raise ParseError("O(...) takes a power of z", pos)
        self.prec = self._parse_int() if self.accept("^") else 1
        self.expect(")")

    def parse_product(self):
        value = self.parse_factor()
        while True:
            if self.accept("*"):
                value = value * self.parse_factor()
            elif self.accept("/"):
                divisor = self.parse_factor()
                value = _divided(partial(truediv, value, divisor), divisor)
            else:
                return value

    def parse_factor(self):
        value = self.parse_atom()
        if self.accept("^"):
            n = self._parse_int()
            value = _divided(partial(pow, value, n), value) if n < 0 else value ** n
        return value

    def _parse_int(self) -> int:
        kind, val, pos = self.next()
        negative = val == "-"
        if val in ("+", "-"):
            kind, val, pos = self.next()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        return -int(val) if negative else int(val)

    def parse_atom(self):
        kind, val, pos = self.next()
        if val == "-":
            return -self.parse_factor()
        if val == "(":
            value = self.parse_sum()
            self.expect(")")
            return value
        if kind is None or kind == "sym":
            raise ParseError("expected a value", pos)
        return self.atom(kind, val, pos)


def _divided(quotient, divisor):
    """``quotient()``, a division by ``divisor`` or by a power of it.  A
    series divisor that is not zero but has no inverse raises
    ``NotInvertible`` naming the division: the advice of
    ``LaurentSeries.invert`` is meant for library callers."""
    try:
        return quotient()
    except NotInvertible:
        if divisor.is_zero():
            raise
        raise NotInvertible(
            "cannot divide by a series whose lowest coefficient is not a unit"
        ) from None


def _series_atom(ring: Ring, kind: str, text: str, pos: int) -> LaurentSeries:
    if kind == "int":
        return LaurentSeries.constant(ring, int(text))
    if text == "z":
        return LaurentSeries.monomial(ring, 1)
    if text == "eps":
        try:
            return LaurentSeries.constant(ring, Coeff.eps(ring))
        except RingMismatch:
            raise ParseError(f"eps does not live in the ring {ring}", pos) from None
    if text == "t":
        if ring != POLY:
            raise ParseError(f"t does not live in the ring {ring}", pos)
        return LaurentSeries.constant(ring, Coeff.t())
    raise ParseError(f"unknown symbol {text!r}", pos)


def _xy_atom(kind: str, text: str, pos: int) -> XYQuotient:
    if kind == "int":
        return XYQuotient(XYPoly.const(int(text)))
    if text == "x":
        return XYQuotient(XYPoly.x())
    if text == "y":
        return XYQuotient(XYPoly.y())
    raise ParseError(f"unknown symbol {text!r}", pos)


def infer_ring(text: str) -> Ring:
    names = set(re.findall(r"[A-Za-z]+", text))
    has_eps = "eps" in names
    has_t = "t" in names
    if has_eps and has_t:
        raise ParseError("eps and t cannot be mixed in one series", 0)
    if has_eps:
        return nilpotent_ring(INFERRED_NILPOTENCY)
    if has_t:
        return POLY
    return RATIONAL


def parse_series(text: str, ring: Ring | None = None) -> LaurentSeries:
    """Parse a series literal; the ring is inferred unless given."""
    if ring is None:
        ring = infer_ring(text)
    parser = _ExprParser(text, partial(_series_atom, ring), big_o=True)
    value = parser.parse()
    if value is None:
        value = LaurentSeries.zero(ring)
    return value.truncate(parser.prec)


def parse_xy_rational(text: str) -> tuple[LaurentSeries, LaurentSeries]:
    """Parse a rational function in x and y (an optional trailing dx is
    eaten) into a numerator and a denominator, polynomials as ``XYPoly``
    stores them."""
    value = _ExprParser(re.sub(r"\bdx\s*$", "", text.strip()), _xy_atom).parse()
    return value.num, value.den


def parse_x_polynomial(text: str) -> tuple[Fraction, ...]:
    """Parse a polynomial in x, over a nonzero constant denominator, into
    an ascending coefficient tuple."""
    num, den = parse_xy_rational(text)
    (j, c), *rest = den.rows  # den is never zero
    if rest or j or len(c) > 1 or (num.rows and num.rows[-1][0]):
        raise ParseError("expected a polynomial in x", 0)
    if den.den != c[0]:  # den is not one
        num = num.scale(Fraction(den.den, c[0]))
    return tuple([Fraction(v, num.den) for v in (num.rows[0][1] if num.rows else (0,))])


def parse_curve_spec(text: str) -> Curve:
    """Curve specs: ``a1``, ``gm``, ``line:0,1,-1/2`` (the line minus those
    rational points), ``hyp:h=x^3+1``.  A parse error names its position
    in ``text``, blanks around the spec included."""
    start = len(text) - len(text.lstrip())
    text = text.strip()
    if text in ("a1", "gm"):
        return make_curve(text)
    if text.startswith("line:"):
        kind, parse, at = "line", parse_fraction_list, len("line:")
    elif re.fullmatch(r"hyp:h=.+", text):
        kind, parse, at = "hyp", parse_x_polynomial, len("hyp:h=")
    else:
        raise ParseError(f"unknown curve spec {text!r}", start)
    try:
        data = parse(text[at:])
    except ParseError as exc:
        raise ParseError(exc.message, start + at + exc.position) from None
    return make_curve(kind, data)


_PUNCTURES = ("0", "infinity", "infinity+", "infinity-")


def parse_place(text: str):
    """Places: a puncture label, an affine value ``a``, or a point ``(a,b)``."""
    text = text.strip()
    if text in _PUNCTURES:
        return text
    if text.startswith("(") and not text.endswith(")"):
        raise ParseError("unclosed point", len(text))
    coords = text[1:-1].split(",") if text.startswith("(") else [text]
    try:
        return tuple([Fraction(c.strip()) for c in coords])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse place {text!r}", 0) from None


def parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, such as ``0, 1, -3/2``."""
    out = []
    pos = 0
    for part in text.split(","):
        try:
            out.append(Fraction(part.strip()))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational number: {part.strip()!r}", pos) from None
        pos += len(part) + 1
    return tuple(out)


# -- formatting ---------------------------------------------------------------


def format_series(s: LaurentSeries) -> str:
    """Canonical text form; ``parse_series`` round-trips it."""
    parts = []
    for e, c in s.terms:
        body = format_coeff(c)
        if coeff_is_composite(c):
            body = f"({body})"
        if e != 0:
            zpart = "z" if e == 1 else f"z^{e}"
            if body == "1":
                body = zpart
            elif body == "-1":
                body = f"-{zpart}"
            else:
                body = f"{body}*{zpart}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    if s.prec is not None:
        tail = "O(z)" if s.prec == 1 else f"O(z^{s.prec})"
        parts.append(f" + {tail}" if parts else tail)
    return "".join(parts) if parts else "0"


def _format_coeff_map(entries) -> str:
    inner = ", ".join(f"{k}: {format_coeff(c)}" for k, c in entries)
    return "{" + inner + "}"


def format_normal_form(nf: NormalForm) -> str:
    out = (
        f"unit={format_coeff(nf.unit)} order={nf.order} "
        f"neg={_format_coeff_map(nf.neg)} pos={_format_coeff_map(nf.pos)}"
    )
    if nf.prec is not None:
        out += f" (mod O(z^{nf.prec}))"
    return out
