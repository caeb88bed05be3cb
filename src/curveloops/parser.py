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

from .curves import Curve, make_curve
from .errors import ParseError, RingMismatch
from .forms import XYPoly
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

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^(),=]))")

#: The nilpotency order k of Q[eps]/(eps^k) for a series that uses eps
#: and names no ring.
INFERRED_NILPOTENCY = 3


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                break
            if m.group(1):
                self.items.append(("int", m.group(1), m.start(1)))
            elif m.group(2):
                self.items.append(("name", m.group(2), m.start(2)))
            else:
                self.items.append(("sym", m.group(3), m.start(3)))
            pos = m.end()
        self.index = 0

    def peek(self):
        return self.items[self.index] if self.index < len(self.items) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect_sym(self, value: str):
        kind, val, pos = self.next()
        if kind != "sym" or val != value:
            raise ParseError(f"expected {value!r}", pos)

    def done(self) -> bool:
        return self.index >= len(self.items)


class _SeriesAlgebra:
    """Expression values are Laurent series over a fixed ring."""

    def __init__(self, ring: Ring):
        self.ring = ring

    def atom(self, name: str, pos: int) -> LaurentSeries:
        if name == "z":
            return LaurentSeries.monomial(self.ring, 1)
        if name == "eps":
            try:
                return LaurentSeries.constant(self.ring, Coeff.eps(self.ring))
            except RingMismatch:
                raise ParseError(f"eps does not live in the ring {self.ring}", pos) from None
        if name == "t":
            if self.ring != POLY:
                raise ParseError(f"t does not live in the ring {self.ring}", pos)
            return LaurentSeries.constant(self.ring, Coeff.t())
        raise ParseError(f"unknown symbol {name!r}", pos)

    def literal(self, value: int) -> LaurentSeries:
        return LaurentSeries.constant(self.ring, value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a * b.invert()

    def pow(self, a, n: int):
        return a ** n


_ONE = XYPoly.const(1)


def _times(p: XYPoly, q: XYPoly) -> XYPoly:
    """p * q, skipping a factor of one: every curve spec and most forms
    have denominator 1, and (a*1 + b*1, 1*1) is (a + b, 1)."""
    return q if p == _ONE else p if q == _ONE else p * q


class _XYAlgebra:
    """Expression values are rational functions (num, den) in x and y."""

    def atom(self, name: str, pos: int):
        if name == "x":
            return (XYPoly.x(), _ONE)
        if name == "y":
            return (XYPoly.y(), _ONE)
        raise ParseError(f"unknown symbol {name!r}", pos)

    def literal(self, value: int):
        return (XYPoly.const(value), _ONE)

    def add(self, a, b):
        return (_times(a[0], b[1]) + _times(b[0], a[1]), _times(a[1], b[1]))

    def sub(self, a, b):
        return self.add(a, (-b[0], b[1]))

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        return (_times(a[0], b[0]), _times(a[1], b[1]))

    def div(self, a, b):
        if b[0].is_zero():
            raise ParseError("division by zero", 0)
        return (_times(a[0], b[1]), _times(a[1], b[0]))

    def pow(self, a, n: int):
        if n < 0 and a[0].is_zero():
            raise ParseError("division by zero", 0)
        num, den = [p if p == _ONE else p ** abs(n) for p in a]
        return (num, den) if n >= 0 else (den, num)


class _ExprParser:
    def __init__(self, tokens: _Tokens, algebra, on_big_o=None):
        self.tokens = tokens
        self.algebra = algebra
        self.on_big_o = on_big_o  # callback(N); None disables O(...) tails

    def parse_sum(self):
        value = None
        first = True
        while True:
            kind, val, pos = self.tokens.peek()
            if first:
                sign = 1
                if kind == "sym" and val in "+-":
                    self.tokens.next()
                    sign = -1 if val == "-" else 1
            else:
                if kind != "sym" or val not in "+-":
                    break
                self.tokens.next()
                sign = -1 if val == "-" else 1
            kind, val, pos = self.tokens.peek()
            if kind == "name" and val == "O" and self.on_big_o is not None:
                if sign < 0:
                    raise ParseError("O(...) cannot be subtracted", pos)
                self._parse_big_o()
                if not self.tokens.done():
                    raise ParseError("O(...) must be the final term", self.tokens.peek()[2])
                break
            term = self.parse_product()
            if sign < 0:
                term = self.algebra.neg(term)
            value = term if value is None else self.algebra.add(value, term)
            first = False
        if value is None and self.on_big_o is None:
            raise ParseError("empty expression", self.tokens.peek()[2])
        return value

    def _parse_big_o(self):
        self.tokens.next()  # O
        self.tokens.expect_sym("(")
        kind, val, pos = self.tokens.next()
        if kind != "name" or val != "z":
            raise ParseError("O(...) takes a power of z", pos)
        n = 1
        kind, val, _ = self.tokens.peek()
        if kind == "sym" and val == "^":
            self.tokens.next()
            n = self._parse_int()
        self.tokens.expect_sym(")")
        self.on_big_o(n)

    def parse_product(self):
        value = self.parse_factor()
        while True:
            kind, val, pos = self.tokens.peek()
            if kind == "sym" and val == "*":
                self.tokens.next()
                value = self.algebra.mul(value, self.parse_factor())
            elif kind == "sym" and val == "/":
                self.tokens.next()
                value = self.algebra.div(value, self.parse_factor())
            else:
                return value

    def parse_factor(self):
        value = self.parse_atom()
        kind, val, _ = self.tokens.peek()
        if kind == "sym" and val == "^":
            self.tokens.next()
            value = self.algebra.pow(value, self._parse_int())
        return value

    def _parse_int(self) -> int:
        sign = 1
        kind, val, pos = self.tokens.next()
        if kind == "sym" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.tokens.next()
        if kind != "int":
            raise ParseError("expected an integer exponent", pos)
        return sign * int(val)

    def parse_atom(self):
        kind, val, pos = self.tokens.next()
        if kind == "sym" and val == "-":
            return self.algebra.neg(self.parse_factor())
        if kind == "sym" and val == "(":
            value = self.parse_sum()
            self.tokens.expect_sym(")")
            return value
        if kind == "int":
            return self.algebra.literal(int(val))
        if kind == "name":
            return self.algebra.atom(val, pos)
        raise ParseError("expected a value", pos)


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


def _parse(parser: _ExprParser):
    """``parser.parse_sum()``; input nested deeper than the interpreter's
    recursion limit allows is a parse error."""
    try:
        return parser.parse_sum()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


def parse_series(text: str, ring: Ring | None = None) -> LaurentSeries:
    """Parse a series literal; the ring is inferred unless given."""
    if ring is None:
        ring = infer_ring(text)
    tokens = _Tokens(text)
    prec_box: list[int | None] = [None]

    def on_big_o(n: int):
        prec_box[0] = n

    value = _parse(_ExprParser(tokens, _SeriesAlgebra(ring), on_big_o))
    if not tokens.done():
        raise ParseError("trailing input", tokens.peek()[2])
    if value is None:
        value = LaurentSeries.zero(ring)
    return value.truncate(prec_box[0])


def parse_xy_rational(text: str) -> tuple[XYPoly, XYPoly]:
    """Parse a rational function in x and y (an optional trailing dx is eaten)."""
    text = re.sub(r"\bdx\s*$", "", text.strip())
    tokens = _Tokens(text)
    value = _parse(_ExprParser(tokens, _XYAlgebra()))
    if not tokens.done():
        raise ParseError("trailing input", tokens.peek()[2])
    return value


def parse_x_polynomial(text: str) -> tuple[Fraction, ...]:
    """Parse a polynomial in x, over a nonzero constant denominator, into
    an ascending coefficient tuple."""
    num, den = parse_xy_rational(text)
    (j, c), *rest = den.series.rows  # den is never zero
    rows = num.series.rows
    if rest or j or len(c) > 1 or (rows and rows[-1][0]):
        raise ParseError("expected a polynomial in x", 0)
    if den != _ONE:
        num = num.scale(Fraction(den.series.den, c[0]))
        rows = num.series.rows
    return tuple([Fraction(v, num.series.den) for v in (rows[0][1] if rows else (0,))])


def parse_curve_spec(text: str) -> Curve:
    """Curve specs: ``a1``, ``gm``, ``hyp:h=x^3+1``."""
    text = text.strip()
    if text in ("a1", "gm"):
        return make_curve(text)
    m = re.fullmatch(r"hyp:h=(.+)", text)
    if not m:
        raise ParseError(f"unknown curve spec {text!r}", 0)
    return make_curve("hyp", parse_x_polynomial(m.group(1)))


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
