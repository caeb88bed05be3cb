"""Exact coefficient arithmetic for the three supported base rings.

Coefficients live in one of:

* the rationals (``RATIONAL``),
* a nilpotent extension Q[eps]/(eps^k), k >= 2 (``nilpotent_ring(k)``),
* the polynomial ring Q[t], for one-parameter families (``POLY``).

Everything is exact: rationals are ``fractions.Fraction`` (arbitrary
precision), nilpotent elements are fixed-length coefficient vectors
truncated at eps^k, polynomials are canonical coefficient tuples.  Values
are immutable; mixing rings raises ``RingMismatch``.

Products of Q[t] and Q[eps]/eps^k coefficients, and of whole series (see
``LaurentSeries.__mul__``), go through one kernel, ``packed_mul``, by
Kronecker substitution (Schoenhage 1982; Harvey, JSC 2009).  The kernel
works on integers only.  An operand is a 2-D array of ints: rows indexed
by i (the z-exponent of a series, or 0 for a single coefficient), each row
the payload of one coefficient, so the entry (i, j) is the coefficient of
z^i y^j, with y standing for 1 (Q), eps or t.  A series already stores its
coefficients this way, as integer rows over one shared denominator, so the
caller multiplies the two denominators and the kernel never sees a
fraction; ``integer_rows`` is the one conversion from rows of rationals.
Entry (i, j) goes to slot i*S + j of one Python int, where S = ra + rb - 1
is the row length of the product (no row spills into the next) and every
slot has the same byte width, wide enough for a signed sum of the
largest possible products.  One big-int multiply (a squaring when both
operands are the same array) then yields every product coefficient in its
slot.  Slots are read back as signed integers, each negative slot having
borrowed one from the slot above; entries with j >= k (for eps^k) and rows
past the requested count are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import NotAUnit, RingMismatch

RATIONAL_KIND = "rational"
NILPOTENT_KIND = "nilpotent"
POLY_KIND = "poly"

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class Ring:
    """Descriptor of a coefficient ring; ``order`` is the nilpotency k."""

    kind: str
    order: int | None = None

    def __post_init__(self):
        if self.kind not in (RATIONAL_KIND, NILPOTENT_KIND, POLY_KIND):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == NILPOTENT_KIND:
            if self.order is None or self.order < 2:
                raise ValueError("nilpotency order must be an integer >= 2")
        elif self.order is not None:
            raise ValueError("order is only meaningful for nilpotent rings")

    def __str__(self):
        if self.kind == NILPOTENT_KIND:
            return f"nilpotent:{self.order}"
        return self.kind


RATIONAL = Ring(RATIONAL_KIND)
POLY = Ring(POLY_KIND)


def nilpotent_ring(k: int) -> Ring:
    return Ring(NILPOTENT_KIND, k)


def _poly_trim(data: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = list(data)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


_ZERO = Fraction(0)


def integer_rows(rows):
    """(den, int rows) for (i, row) pairs of rationals: every entry times
    the least common denominator ``den`` of all of them."""
    # a list, not a generator: star-unpacking a generator builds a guessed
    # size-10 tuple and resizes it, which strands tuples on the free lists
    den = lcm(*[q.denominator for _, row in rows for q in row])
    return den, [(i, [q.numerator * (den // q.denominator) for q in row]) for i, row in rows]


def _pack(rows, stride: int, width: int) -> int:
    """The int whose ``width``-byte slot i*stride + j holds rows[i][j]."""
    size = (rows[-1][0] + 1) * stride * width
    pos, neg = bytearray(size), bytearray(size)
    for i, row in rows:
        at = i * stride * width
        for v in row:
            if v > 0:
                pos[at:at + width] = v.to_bytes(width, "little")
            elif v < 0:
                neg[at:at + width] = (-v).to_bytes(width, "little")
            at += width
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _bits(rows) -> int:
    return max([abs(v) for _, row in rows for v in row]).bit_length()


def packed_mul(
    a: Sequence[tuple[int, Sequence[int]]],
    b: Sequence[tuple[int, Sequence[int]]],
    count: int,
    cut: int | None = None,
) -> list[list[int]]:
    """Product of two 2-D arrays of integers by one integer multiply.

    ``a`` and ``b`` list (i, row) pairs, i >= 0 ascending, each row a
    non-empty sequence of ints: row[j] is the coefficient of z^i y^j.
    Returns rows 0 .. count-1 of the product, each holding the
    coefficients of y^j for j < ``cut`` (all of them when ``cut`` is None).
    Passing the same object as ``a`` and ``b`` packs it once and squares.
    See the module docstring for the layout.
    """
    square = a is b
    ra = max([len(row) for _, row in a])
    rb = ra if square else max([len(row) for _, row in b])
    stride = ra + rb - 1
    keep = stride if cut is None else min(cut, stride)
    bits_a = _bits(a)
    bits_b = bits_a if square else _bits(b)
    # a product entry sums at most this many nonzero products
    terms = min(len(a), len(b)) * min(ra, rb)
    width = (bits_a + bits_b + terms.bit_length() + 8) // 8  # + a sign bit
    slots = count * stride
    packed = _pack(a, stride, width)
    product = packed * packed if square else packed * _pack(b, stride, width)
    raw = (product & ((1 << (8 * width * slots)) - 1)).to_bytes(width * slots, "little")
    values = []
    borrow = 0
    for at in range(0, width * slots, width):
        s = int.from_bytes(raw[at:at + width], "little", signed=True)
        values.append(s + borrow)
        borrow = s < 0
    return [values[at:at + keep] for at in range(0, slots, stride)]


def _fraction_product(a, b, cut=None) -> list[Fraction]:
    """The product of two coefficient payloads of rationals."""
    da, ia = integer_rows([(0, a)])
    db, ib = integer_rows([(0, b)])
    den = da * db
    return [Fraction(v, den) if v else _ZERO for v in packed_mul(ia, ib, 1, cut)[0]]


def poly_mul(a, b):
    if not a or not b:
        return ()
    return _poly_trim(_fraction_product(a, b))


def poly_eval(a, x: Fraction) -> Fraction:
    """a(x) for x = p/q, as (sum n_i p^i q^(d-i)) / (den q^d) in integers,
    where n_i = den a_i over the common denominator den of the a_i."""
    if not a:
        return _ZERO
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    den = lcm(*[c.denominator for c in a])
    acc, qpow = 0, 1
    for c in reversed(a):
        acc = acc * p + c.numerator * (den // c.denominator) * qpow
        qpow *= q
    return Fraction(acc, den * qpow // q)


@dataclass(frozen=True)
class Coeff:
    """An element of one of the supported rings.

    ``data`` is the canonical payload: a 1-tuple for rationals, a length-k
    vector (c0, c1, ..., c_{k-1}) meaning sum c_i eps^i for nilpotent rings,
    and an ascending coefficient tuple with no trailing zeros for Q[t].
    """

    ring: Ring
    data: tuple[Fraction, ...]

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(ring: Ring, value: Scalar | Fraction) -> "Coeff":
        q = Fraction(value)
        if ring.kind == RATIONAL_KIND:
            return Coeff(ring, (q,))
        if ring.kind == NILPOTENT_KIND:
            return Coeff(ring, (q,) + (Fraction(0),) * (ring.order - 1))
        return Coeff(ring, _poly_trim((q,)))

    @staticmethod
    def zero(ring: Ring) -> "Coeff":
        return Coeff.const(ring, 0)

    @staticmethod
    def one(ring: Ring) -> "Coeff":
        return Coeff.const(ring, 1)

    @staticmethod
    def eps(ring: Ring, power: int = 1, value: Scalar = 1) -> "Coeff":
        if ring.kind != NILPOTENT_KIND:
            raise RingMismatch("eps only exists in nilpotent rings")
        k = ring.order
        vec = [Fraction(0)] * k
        if 0 <= power < k:
            vec[power] = Fraction(value)
        return Coeff(ring, tuple(vec))

    @staticmethod
    def t(power: int = 1, value: Scalar = 1) -> "Coeff":
        vec = [Fraction(0)] * (power + 1)
        vec[power] = Fraction(value)
        return Coeff(POLY, _poly_trim(vec))

    @staticmethod
    def poly(coeffs: Iterable[Scalar]) -> "Coeff":
        return Coeff(POLY, _poly_trim(Fraction(c) for c in coeffs))

    @staticmethod
    def nil(ring: Ring, coeffs: Iterable[Scalar]) -> "Coeff":
        if ring.kind != NILPOTENT_KIND:
            raise RingMismatch("nil() needs a nilpotent ring")
        vec = [Fraction(c) for c in coeffs]
        k = ring.order
        vec = (vec + [Fraction(0)] * k)[:k]
        return Coeff(ring, tuple(vec))

    @staticmethod
    def from_row(ring: Ring, row: Sequence[Fraction]) -> "Coeff":
        """The coefficient with payload ``row`` (trimmed over Q[t])."""
        if ring.kind == POLY_KIND:
            return Coeff(ring, _poly_trim(row))
        return Coeff(ring, tuple(row))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.data)

    def is_unit(self) -> bool:
        if self.ring.kind == RATIONAL_KIND:
            return self.data[0] != 0
        if self.ring.kind == NILPOTENT_KIND:
            return self.data[0] != 0
        return len(self.data) == 1  # nonzero constant polynomial

    def is_nilpotent(self) -> bool:
        return self.reduce_mod_nilradical().is_zero()

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Coeff") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        if self.ring.kind == POLY_KIND:
            return Coeff(self.ring, poly_add(self.data, other.data))
        return Coeff(self.ring, tuple([a + b for a, b in zip(self.data, other.data)]))

    def __neg__(self) -> "Coeff":
        # tuple([...]), not tuple(<generator>): see integer_rows
        return Coeff(self.ring, tuple([-c for c in self.data]))

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        kind = self.ring.kind
        if kind == RATIONAL_KIND:
            return Coeff(self.ring, (self.data[0] * other.data[0],))
        if kind == POLY_KIND:
            return Coeff(self.ring, poly_mul(self.data, other.data))
        return Coeff(self.ring, tuple(_fraction_product(self.data, other.data, self.ring.order)))

    def scale(self, q: Scalar) -> "Coeff":
        q = Fraction(q)
        if self.ring.kind == POLY_KIND:
            return Coeff(self.ring, _poly_trim(c * q for c in self.data))
        return Coeff(self.ring, tuple([c * q for c in self.data]))

    def invert(self) -> "Coeff":
        """Exact multiplicative inverse; raises ``NotAUnit`` if none exists."""
        kind = self.ring.kind
        if kind == RATIONAL_KIND:
            if self.data[0] == 0:
                raise NotAUnit("division by zero")
            return Coeff(self.ring, (1 / self.data[0],))
        if kind == POLY_KIND:
            if len(self.data) != 1:
                raise NotAUnit("only nonzero constants are units of Q[t]")
            return Coeff(self.ring, (1 / self.data[0],))
        if self.data[0] == 0:
            raise NotAUnit("constant term vanishes")
        # power-series inversion truncated at eps^k
        k = self.ring.order
        c0inv = 1 / self.data[0]
        out = [Fraction(0)] * k
        out[0] = c0inv
        for n in range(1, k):
            out[n] = -c0inv * sum(self.data[i] * out[n - i] for i in range(1, n + 1))
        return Coeff(self.ring, tuple(out))

    def reduce_mod_nilradical(self) -> "Coeff":
        """Kill nilpotents; rationals and polynomials are returned as-is."""
        if self.ring.kind == NILPOTENT_KIND:
            return Coeff(RATIONAL, (self.data[0],))
        return self

    def specialize(self, t0: Scalar) -> "Coeff":
        """Evaluate a Q[t] coefficient at t = t0, landing in the rationals."""
        if self.ring.kind != POLY_KIND:
            raise RingMismatch("specialize needs a Q[t] coefficient")
        return Coeff(RATIONAL, (poly_eval(self.data, Fraction(t0)),))

    def as_fraction(self) -> Fraction:
        """The value of a rational (or constant) coefficient."""
        if self.ring.kind == RATIONAL_KIND:
            return self.data[0]
        if self.ring.kind == POLY_KIND:
            if len(self.data) > 1:
                raise RingMismatch("non-constant polynomial coefficient")
            return self.data[0] if self.data else Fraction(0)
        raise RingMismatch("nilpotent coefficient is not a plain fraction")

    def poly_degree(self) -> int:
        """Degree of a Q[t] coefficient (-1 for the zero polynomial)."""
        if self.ring.kind != POLY_KIND:
            raise RingMismatch("poly_degree needs a Q[t] coefficient")
        return len(self.data) - 1

    def __str__(self):
        return format_coeff(self)


def _format_monomials(pairs, symbol):
    """Render [(power, fraction), ...] as a signed monomial sum."""
    parts = []
    for power, q in pairs:
        if q == 0:
            continue
        mag = abs(q)
        if power == 0:
            body = str(mag)
        else:
            var = symbol if power == 1 else f"{symbol}^{power}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if q > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def format_coeff(c: Coeff) -> str:
    if c.ring.kind == RATIONAL_KIND:
        return str(c.data[0])
    symbol = "eps" if c.ring.kind == NILPOTENT_KIND else "t"
    return _format_monomials(enumerate(c.data), symbol)


def coeff_is_composite(c: Coeff) -> bool:
    """True when the printed form is a sum needing parentheses in products."""
    if c.ring.kind == RATIONAL_KIND:
        return False
    return sum(1 for q in c.data if q != 0) > 1
