"""Exact coefficient arithmetic over Q, Q[eps]/(eps^k) and Q[t].

A ``Ring`` is its truncation order alone: order k >= 2 is the nilpotent
extension Q[eps]/(eps^k) (``nilpotent_ring(k)``), Q is the same ring at
k = 1 (``RATIONAL``), and order None is the polynomial ring Q[t], for
one-parameter families (``POLY``).  ``str`` names a ring and
``parse_ring`` reads the name back.

A value is stored exactly as integers over one denominator, the format
of one row of a ``LaurentSeries``: a ``Coeff`` is ``(ring, den, payload)``
and stands for payload / den.  ``canonical`` states the payload rules
(``nonzero_rows`` with no gcd pass), and ``payload_is_unit`` and
``payload_is_nilpotent`` are the ring's tests on a payload, so that series
code never branches on the ring.  Each rule reads the order once: None is
Q[t], and any k, Q included, is a truncated ring.  Values are immutable
by convention (see ``Value``); mixing rings raises ``RingMismatch``.
``Coeff.data`` reads a value back as ``fractions.Fraction`` entries.

Products of Q[t] and Q[eps]/eps^k coefficients, and of whole series (laid
out and cut by ``series._mul_rows``), go through one kernel, ``packed_mul``,
by Kronecker substitution (Schoenhage 1982; Harvey, JSC 2009).  The kernel
works on integers only.  An operand is a 2-D array of ints: rows indexed
by i (the z-exponent of a series, or 0 for a single coefficient), each row
the payload of one coefficient, so the entry (i, j) is the coefficient of
z^i y^j, with y standing for 1 (Q), eps or t.  The caller multiplies the
two denominators, so the kernel never sees a fraction.

Only product rows below the requested count are read, so entry (i, j)
goes to slot i*S + j of one Python int, where the stride S is the longest
of those rows, max(len a_i + len b_k - 1) over i + k < count (1 over Q,
2k - 1 over Q[eps]/eps^k; over Q[t] a row's t-degree grows with i), and
an operand row that meets no row of the other below the count is not
packed.  Every slot has the same byte width, wide enough for a signed sum
of the largest possible products, and a width of at most 8 bytes is
rounded up to 1, 2, 4 or 8.  An operand is written row by row in two's
complement, through one ``array`` when the slot fits one, and read as one
int; XOR with the bias B, 2^(8w - 1) in every slot, minus B turns that
into the signed sum.  One big-int multiply (a squaring when both operands
are the same array) then yields every product coefficient in its slot.
The biased product ((P + B) XOR B) cut to the kept slots holds each slot
in two's complement, with no borrow between slots, so one ``memoryview``
cast reads every slot of at most 8 bytes and one ``int.from_bytes`` per
slot the wider ones.  Entries with j >= k (for eps^k) are dropped.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, lcm

from .errors import NotAUnit, ParseError, RingMismatch

Scalar = int | Fraction

_NILPOTENT = "nilpotent:"


class Value:
    """Base of the value types: ``__slots__`` classes, each with its own
    ``__init__``, ``==`` and ``hash`` over its fields, and none of a
    tuple's behaviour.  No method assigns a field after ``__init__``, so a
    value is immutable by convention.  ``repr`` names each field in
    ``__slots__`` that does not start with "_"."""

    __slots__ = ()

    def __repr__(self):
        fields = [f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"]
        return f"{type(self).__name__}({', '.join(fields)})"


class Ring(Value):
    """A coefficient ring, named by its truncation order: 1 is Q, k >= 2
    is Q[eps]/eps^k, and None is Q[t], which is not truncated.  Build a
    nilpotent ring with ``nilpotent_ring``, which checks k."""

    __slots__ = ("order",)

    def __init__(self, order: int | None):
        self.order = order

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order

    def __hash__(self):
        return hash((self.order,))

    def __str__(self):
        if self.order is None:
            return "poly"
        return "rational" if self.order == 1 else f"{_NILPOTENT}{self.order}"

    @property
    def kind(self) -> str:
        """The ring's name without its order: rational, nilpotent or poly."""
        return str(self).partition(":")[0]

    @property
    def has_nilpotents(self) -> bool:
        """Whether the ring has nonzero nilpotents (Q[eps]/eps^k); Q and
        Q[t] are integral domains."""
        return self.order is not None and self.order > 1


RATIONAL = Ring(1)
POLY = Ring(None)


def nilpotent_ring(k: int) -> Ring:
    """Q[eps]/eps^k, for an integer k >= 2."""
    if not isinstance(k, int) or k < 2:
        raise ValueError("nilpotency order must be an integer >= 2")
    return Ring(k)


def parse_ring(text: str) -> Ring:
    """The ring whose ``str`` is ``text``: ``rational``, ``poly`` or
    ``nilpotent:k`` for an integer k >= 2."""
    for ring in (RATIONAL, POLY):
        if text == str(ring):
            return ring
    if not text.startswith(_NILPOTENT):
        raise ParseError(f"unknown ring {text!r}", 0)
    try:
        return nilpotent_ring(int(text[len(_NILPOTENT):]))
    except ValueError:
        raise ParseError(
            f"nilpotency order must be an integer >= 2 in {text!r}", len(_NILPOTENT)
        ) from None


# -- the payload rules ----------------------------------------------------


def canonical(ring: Ring, den: int, rows: Iterable) -> tuple[int, tuple]:
    """The canonical (den, rows) of sum payload z^e / den.

    A payload is a tuple of ints: one over Q, the coefficients of eps^0 ..
    eps^(k-1) over Q[eps]/eps^k, and those of t^0, t^1, ... with trailing
    zeros trimmed over Q[t].  Zero payloads are dropped, and the common
    factor of ``den`` and all entries is divided out, signed so that
    ``den`` > 0.  A zero ``Coeff`` keeps its payload, over ``den`` = 1.
    """
    out = nonzero_rows(ring, rows)
    g = gcd(den, *[v for _, p in out for v in p]) if den != 1 else 1
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        out = [(e, tuple([v // g for v in p])) for e, p in out]
    return den, tuple(out)


def nonzero_rows(ring: Ring, rows: Iterable) -> list:
    """The (e, payload) pairs of ``rows`` with a nonzero payload, each
    payload a tuple, over Q[t] with trailing zeros trimmed: the payload
    rules of ``canonical``, without its gcd pass."""
    poly = ring.order is None
    out = []
    for e, p in rows:
        if poly:
            n = len(p)
            while n and not p[n - 1]:
                n -= 1
            p = p[:n]
        if any(p):
            out.append((e, tuple(p)))
    return out


def payload_is_unit(ring: Ring, p: Sequence[int]) -> bool:
    """Whether the payload ``p`` is a unit: its constant term is nonzero,
    and over Q[t] it is a constant."""
    if ring.order is None:
        return len(p) == 1 and p[0] != 0
    return p[0] != 0


def payload_is_nilpotent(ring: Ring, p: Sequence[int]) -> bool:
    """Whether the payload ``p`` lies in the nilradical: over Q[eps]/eps^k
    (Q is k = 1) its constant term vanishes; Q[t] has no nonzero
    nilpotents."""
    if ring.order is None:
        return not any(p)
    return not p[0]


def payload_at(c: Sequence[int], p: int, q: int, d: int) -> int:
    """sum c_i p^i q^(d-i) for the ascending Q[t] payload ``c`` of degree
    at most d: q^d times c at t = p/q, by Horner's rule."""
    acc, qpow = 0, 1
    for ci in reversed(c):
        acc = acc * p + ci * qpow
        qpow *= q
    return acc * q ** (d + 1 - len(c))


def _reduced(ring: Ring, den: int, payload: Sequence[int]) -> "Coeff":
    """The ``Coeff`` payload / den (den != 0) in canonical form."""
    den, rows = canonical(ring, den, ((0, payload),))
    return Coeff(ring, den, rows[0][1]) if rows else Coeff.zero(ring)


#: the array typecode of each signed slot width of at most 8 bytes
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}


def _pack(rows, stride: int, width: int, bias: int) -> int:
    """sum rows[i][j] 2^(8 width (i stride + j)) over the (i, row) pairs.
    Each slot is written in two's complement; ``bias``, the top bit of
    every slot over at least the rows' span, turns that into the sum."""
    flat = [0] * ((rows[-1][0] + 1) * stride)
    for i, row in rows:
        at = i * stride
        flat[at:at + len(row)] = row
    code = _SLOT_CODES.get(width)
    if code is not None:
        raw = array(code, flat).tobytes()
    else:
        raw = b"".join([v.to_bytes(width, sys.byteorder, signed=True) for v in flat])
    return (int.from_bytes(raw, sys.byteorder) ^ bias) - bias


def _bits(rows) -> int:
    return max([abs(v) for _, row in rows for v in row]).bit_length()


def _stride(a, la: list, b, lb: list, count: int) -> int:
    """max la_i + lb_k - 1 over the rows (i, _) of a and (k, _) of b with
    i + k < count, for their lengths la and lb: each row of a meets the
    longest row of b at or below count - 1 - i, a prefix maximum."""
    ra, rb = max(la), max(lb)
    if a[la.index(ra)][0] + b[lb.index(rb)][0] < count:
        return ra + rb - 1  # the longest rows meet below count
    prefix = list(accumulate(lb, max))
    stride, k = 0, len(b) - 1
    for (i, _), n in zip(a, la):
        while k >= 0 and b[k][0] > count - 1 - i:
            k -= 1
        if k < 0:
            break
        stride = max(stride, n + prefix[k] - 1)
    return stride


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
    coefficients of y^j for j < ra + rb - 1, ra and rb the longest rows of
    ``a`` and ``b``, and j < ``cut`` unless it is None.  Passing the same
    object as ``a`` and ``b`` packs it once and squares.  See the module
    docstring for the layout.
    """
    square = a is b
    la = [len(row) for _, row in a]
    lb = la if square else [len(row) for _, row in b]
    ra, rb = max(la), max(lb)
    keep = ra + rb - 1 if cut is None else min(cut, ra + rb - 1)
    # a row meets a row of the other operand below count only below
    # count - (the other's lowest index); the others are not packed
    a0, b0 = a[0][0], b[0][0]
    if a0 + b0 >= count:
        return [[0] * keep for _ in range(count)]
    stride = _stride(a, la, b, lb, count)
    a = [r for r in a if r[0] < count - b0]
    b = a if square else [r for r in b if r[0] < count - a0]
    bits_a = _bits(a)
    bits_b = bits_a if square else _bits(b)
    # a product entry sums at most this many nonzero products
    terms = min(len(a), len(b)) * min(ra, rb)
    width = (bits_a + bits_b + terms.bit_length() + 8) // 8  # + a sign bit
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # 1, 2, 4 or 8: an array slot
    # every packed row lies below count, so the bias over the kept slots
    # covers both operands
    slots = count * stride
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    packed = _pack(a, stride, width, bias)
    product = packed * packed if square else packed * _pack(b, stride, width, bias)
    size = slots * width
    raw = (((product + bias) ^ bias) & ((1 << (8 * size)) - 1)).to_bytes(size, sys.byteorder)
    code = _SLOT_CODES.get(width)
    if code is not None:
        values = memoryview(raw).cast(code).tolist()
    else:
        values = [int.from_bytes(raw[at:at + width], sys.byteorder, signed=True)
                  for at in range(0, size, width)]
    if keep <= stride:
        return [values[at:at + keep] for at in range(0, slots, stride)]
    pad = [0] * (keep - stride)
    return [values[at:at + stride] + pad for at in range(0, slots, stride)]


class Coeff(Value):
    """An element of one of the supported rings: ``payload`` / ``den``, in
    the form of ``canonical`` (the constructors below build it), so ``==``
    and ``hash`` compare values."""

    __slots__ = ("ring", "den", "payload")

    def __init__(self, ring: Ring, den: int, payload: tuple[int, ...]):
        self.ring, self.den, self.payload = ring, den, payload

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.den, self.payload) == (other.ring, other.den, other.payload)

    def __hash__(self):
        return hash((self.ring, self.den, self.payload))

    @property
    def data(self) -> tuple[Fraction, ...]:
        """The payload entries as rationals: (c0, c1, ...) is sum c_i eps^i
        or sum c_i t^i."""
        den = self.den
        return tuple([Fraction(v, den) for v in self.payload])

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(ring: Ring, value: Scalar) -> "Coeff":
        q = value if isinstance(value, (int, Fraction)) else Fraction(value)
        n = q.numerator
        k = ring.order
        if k is None:
            return Coeff(ring, q.denominator, (n,) if n else ())
        return Coeff(ring, q.denominator, (n,) + (0,) * (k - 1))

    @staticmethod
    def zero(ring: Ring) -> "Coeff":
        return Coeff.const(ring, 0)

    @staticmethod
    def one(ring: Ring) -> "Coeff":
        return Coeff.const(ring, 1)

    @staticmethod
    def eps(ring: Ring, power: int = 1, value: Scalar = 1) -> "Coeff":
        return Coeff.nil(ring, [0] * power + [value] if power >= 0 else ())

    @staticmethod
    def t(power: int = 1, value: Scalar = 1) -> "Coeff":
        return Coeff.poly([0] * power + [value])

    @staticmethod
    def poly(coeffs: Iterable[Scalar]) -> "Coeff":
        return _from_scalars(POLY, coeffs)

    @staticmethod
    def nil(ring: Ring, coeffs: Iterable[Scalar]) -> "Coeff":
        """sum c_i eps^i, padded with zeros and cut at eps^k."""
        k = ring.order
        if k is None or k == 1:
            raise RingMismatch("nil() needs a nilpotent ring")
        return _from_scalars(ring, (list(coeffs) + [0] * k)[:k])

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.payload)

    def is_unit(self) -> bool:
        return payload_is_unit(self.ring, self.payload)

    def is_nilpotent(self) -> bool:
        return payload_is_nilpotent(self.ring, self.payload)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "Coeff") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        da, db = self.den, other.den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        payload = [x * fa + y * fb for x, y in zip_longest(self.payload, other.payload, fillvalue=0)]
        return _reduced(self.ring, den, payload)

    def __neg__(self) -> "Coeff":
        # tuple([...]), not tuple(<generator>): a tuple built from a
        # generator starts at a guessed size of 10 and is resized, which
        # strands tuples on the free lists
        return Coeff(self.ring, self.den, tuple([-v for v in self.payload]))

    def __sub__(self, other: "Coeff") -> "Coeff":
        return self + (-other)

    def __mul__(self, other: "Coeff") -> "Coeff":
        self._check(other)
        a, b = self.payload, other.payload
        if not a or not b:  # the zero of Q[t]
            return Coeff.zero(self.ring)
        if len(a) == 1 == len(b):
            payload = (a[0] * b[0],)
        else:
            payload = packed_mul([(0, a)], [(0, b)], 1, self.ring.order)[0]
        return _reduced(self.ring, self.den * other.den, payload)

    def scale(self, q: Scalar) -> "Coeff":
        q = q if isinstance(q, (int, Fraction)) else Fraction(q)
        n = q.numerator
        return _reduced(self.ring, self.den * q.denominator, [v * n for v in self.payload])

    def invert(self) -> "Coeff":
        """Exact multiplicative inverse; raises ``NotAUnit`` if none exists.

        For the k entries of p, 1/p = sum r_n eps^n / p_0^(n+1) with r_0 = 1
        and r_n = -sum_{i=1..n} p_i p_0^(i-1) r_{n-i}, all integers.
        """
        p = self.payload
        if not payload_is_unit(self.ring, p):
            raise NotAUnit(f"{self} is not a unit of {self.ring}")
        k = len(p)
        powers = [p[0] ** i for i in range(k + 1)]
        r = [1]
        for n in range(1, k):
            r.append(-sum([p[i] * powers[i - 1] * r[n - i] for i in range(1, n + 1)]))
        den = self.den
        return _reduced(self.ring, powers[k], [den * r[n] * powers[k - 1 - n] for n in range(k)])

    def specialize(self, t0: Scalar) -> "Coeff":
        """Evaluate a Q[t] coefficient at t = t0, landing in the rationals:
        for t0 = p/q and degree d, (sum c_i p^i q^(d-i)) / (den q^d)."""
        if self.ring.order is not None:
            raise RingMismatch("specialize needs a Q[t] coefficient")
        if not self.payload:
            return Coeff.zero(RATIONAL)
        t0 = Fraction(t0)
        d = len(self.payload) - 1
        value = payload_at(self.payload, t0.numerator, t0.denominator, d)
        return _reduced(RATIONAL, self.den * t0.denominator**d, (value,))

    def as_fraction(self) -> Fraction:
        """The value of a rational (or constant) coefficient: over
        Q[eps]/eps^k (Q is k = 1) the eps part must vanish."""
        if self.ring.order is None:
            if len(self.payload) > 1:
                raise RingMismatch("non-constant polynomial coefficient")
        elif any(self.payload[1:]):
            raise RingMismatch("nilpotent coefficient is not a plain fraction")
        return Fraction(self.payload[0], self.den) if self.payload else Fraction(0)

    def poly_degree(self) -> int:
        """Degree of a Q[t] coefficient (-1 for the zero polynomial)."""
        if self.ring.order is not None:
            raise RingMismatch("poly_degree needs a Q[t] coefficient")
        return len(self.payload) - 1

    def __str__(self):
        return format_coeff(self)


def _from_scalars(ring: Ring, values: Iterable[Scalar]) -> Coeff:
    """The coefficient whose payload has these rational entries."""
    entries = [Fraction(c) for c in values]
    den = lcm(*[q.denominator for q in entries])
    return _reduced(ring, den, [q.numerator * (den // q.denominator) for q in entries])


def _power(symbol: str, n: int) -> str:
    """symbol^n as the text of a monomial factor: "" for n = 0."""
    return symbol if n == 1 else f"{symbol}^{n}" if n else ""


def _format_monomials(pairs) -> str:
    """Render [(monomial text, nonzero fraction), ...] as a signed sum."""
    parts = []
    for text, q in pairs:
        mag = abs(q)
        body = str(mag) if not text else text if mag == 1 else f"{mag}*{text}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if q > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def format_coeff(c: Coeff) -> str:
    symbol = "t" if c.ring.order is None else "eps"
    return _format_monomials([(_power(symbol, i), q) for i, q in enumerate(c.data) if q])


def coeff_is_composite(c: Coeff) -> bool:
    """True when the printed form is a sum needing parentheses in products."""
    return sum([1 for v in c.payload if v]) > 1
