"""Truncated formal Laurent series A((z)) with explicit precision tracking.

A series stores finitely many terms plus a precision bound ``prec``:
coefficients are known (and stored when nonzero) for every exponent
``e < prec``; exponents ``>= prec`` are unknown.  ``prec is None`` means the
series is an exact Laurent polynomial (all higher coefficients are zero).

The distinction between "known to be zero" and "unknown" is load-bearing:
valuations and residues are only reported when the stored precision
certifies them, otherwise ``InsufficientPrecision`` is raised.

Storage is ``(ring, den, rows, prec)``: integers over one shared
denominator, the layout of FLINT's ``fmpq_poly``.  ``rows`` is an
ascending tuple of ``(exponent, payload)`` pairs, sparse in the exponent,
and the coefficient at z^e is payload / den: a ``Coeff`` is one such row,
with its own denominator.  Payloads follow the rules of
``ring.canonical`` and are never zero; ``den > 0``, ``den`` and all
entries are coprime, and every stored exponent lies below ``prec``.  The
form is canonical, so ``==`` and ``hash`` compare values.  Arithmetic
works on the integers.  Every product of rows is decided in ``_mul_rows``,
which picks the layout and applies the cut; loops (powers, the Newton
steps of ``invert`` and ``sqrt``, and those of ``curves`` and
``normal_form``) keep bare rows and build a ``LaurentSeries`` on return.

A series is built the way a ``Coeff`` is: ``LaurentSeries(ring, den, rows,
prec)`` takes canonical fields as they are, ``from_rows`` makes integer
rows canonical, and ``build`` reads ``Coeff`` values or rationals keyed by
exponent.  ``terms`` and ``coeff`` read rows as ``Coeff`` values.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm
from operator import itemgetter

from .errors import (
    InsufficientPrecision,
    NoRationalSquareRoot,
    NotInvertible,
    OddValuation,
    RingMismatch,
    ZeroSeries,
)
from .ring import (
    POLY,
    RATIONAL,
    Coeff,
    Ring,
    Scalar,
    Value,
    canonical,
    nonzero_rows,
    packed_mul,
    payload_at,
    payload_is_nilpotent,
)

#: Default number of terms kept past the lowest exponent when an exact
#: input forces an infinite expansion (inverses, square roots, ...).
DEFAULT_PREC = 24

#: What ``build``, ``monomial``, ``constant`` and ``scale`` take as a
#: coefficient.  A ``types.UnionType`` is cached nowhere, so once the package
#: is dropped from ``sys.modules`` nothing keeps the old ``Coeff`` alive
CoeffLike = Coeff | int | Fraction


def resolve_prec(prec: int | None) -> int:
    """Number of terms an exact input is expanded to: ``prec``, by default
    ``DEFAULT_PREC``.  Raises ``ValueError`` when ``prec`` is below 1."""
    if prec is None:
        return DEFAULT_PREC
    if prec < 1:
        raise ValueError(f"prec must be at least 1, got {prec}")
    return prec


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _coeff_rows(terms) -> tuple[int, tuple]:
    """(den, rows) of ascending (exponent, nonzero ``Coeff``) pairs: over
    the lcm of the canonical ``Coeff`` denominators they are canonical, as
    a prime's top power there divides some ``den`` but not its payload."""
    den = lcm(*[c.den for _, c in terms])
    return den, tuple([
        (e, c.payload if c.den == den else tuple([v * (den // c.den) for v in c.payload]))
        for e, c in terms
    ])


# -- bare rows: (exponent, nonzero payload) pairs of ints, ascending, over a
# denominator kept beside them; loops keep (den, rows) or (den, rows, prec)


def _mul_rows(ring: Ring, a, b, hi: int | None) -> list:
    """The integer rows of a * b below z^hi (None: no cut), over the product
    of the two denominators.  A one-row operand scales and shifts the
    other: a constant payload by integer products, any other in one kernel
    call on the other's rows laid end to end.  Any other pair runs on the
    lattice base + step*N that holds the exponents of both."""
    if not a or not b or (hi is not None and a[0][0] + b[0][0] >= hi):
        return []
    if hi is not None:  # drop the rows that meet nothing below z^hi
        square = a is b
        a = a[:bisect_left(a, (hi - b[0][0],))]
        b = a if square else b[:bisect_left(b, (hi - a[0][0],))]
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        (shift, p), = b
        if not any(p[1:]):
            return [(e + shift, [v * p[0] for v in q]) for e, q in a]
        products = packed_mul([(i, q) for i, (_, q) in enumerate(a)], [(0, p)], len(a), ring.order)
        return nonzero_rows(ring, [(e + shift, row) for (e, _), row in zip(a, products)])
    ea, eb = a[0][0], b[0][0]
    step = gcd(*[e - ea for e, _ in a], *[e - eb for e, _ in b]) or 1
    count = (a[-1][0] - ea + b[-1][0] - eb) // step + 1
    if hi is not None:
        count = min(count, -((ea + eb - hi) // step))
    la = [((e - ea) // step, p) for e, p in a]
    # the same list for s * s: the kernel then packs once and squares
    lb = la if a is b else [((e - eb) // step, p) for e, p in b]
    rows = packed_mul(la, lb, count, ring.order)
    return nonzero_rows(ring, [(ea + eb + m * step, row) for m, row in enumerate(rows)])


def _add_rows(da: int, a, db: int, b, hi: int | None) -> tuple[int, list]:
    """(den, rows) of a / da + b / db below z^hi (None: no cut), over
    den = lcm(da, db); a negative ``db`` subtracts."""
    den = lcm(da, db)
    fa, fb = den // da, den // db
    out = {e: [v * fa for v in p] for e, p in a}
    for e, q in b:
        total = [x + y * fb for x, y in zip_longest(out.pop(e, ()), q, fillvalue=0)]
        if any(total):
            out[e] = total
    rows = sorted(out.items())  # exponents are distinct: payloads never compared
    return den, rows if hi is None else rows[:bisect_left(rows, (hi,))]


def _times(ring: Ring, a: tuple, b: tuple) -> tuple:
    """The product of bare series (den, rows, prec).  The unknown tail of a
    (exponents >= its prec) meets b no lower than prec + ord_min(b), and
    symmetrically; an inexact operand with no rows counts its precision as
    its lowest exponent, and an exact zero makes the product exact."""
    (da, ra, pa), (db, rb, pb) = a, b
    if (not ra and pa is None) or (not rb and pb is None):
        return da * db, [], None
    prec = None if pa is None else pa + (rb[0][0] if rb else pb)
    if pb is not None:
        prec = _min_prec(prec, pb + (ra[0][0] if ra else pa))
    return da * db, _mul_rows(ring, ra, rb, prec), prec


def _power(ring: Ring, base: tuple, n: int) -> tuple:
    """The bare series ``base`` to the power n >= 1, by repeated squaring."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else _times(ring, result, base)
        n >>= 1
        base = _times(ring, base, base) if n else base
    return result


class LaurentSeries(Value):
    """Element of A((z)); a ``Value``, canonical (see the module docstring)."""

    __slots__ = ("ring", "den", "rows", "prec")

    def __init__(self, ring: Ring, den: int, rows: tuple[tuple[int, tuple[int, ...]], ...],
                 prec: int | None):
        self.ring, self.den, self.rows, self.prec = ring, den, rows, prec

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.den, self.rows, self.prec) == (
            other.ring, other.den, other.rows, other.prec)

    def __hash__(self):
        return hash((self.ring, self.den, self.rows, self.prec))

    # -- construction ---------------------------------------------------

    @staticmethod
    def build(
        ring: Ring, terms: Mapping[int, CoeffLike], prec: int | None = None
    ) -> "LaurentSeries":
        """The series sum c z^e over ``terms``, a mapping from exponents to
        ``Coeff`` values of ``ring`` or rationals; zero terms and terms at
        or past ``prec`` are dropped."""
        kept = []
        for e, c in terms.items():
            if not isinstance(c, Coeff):
                c = Coeff.const(ring, c)
            elif c.ring != ring:
                raise RingMismatch("term coefficient from a different ring")
            if (prec is None or e < prec) and any(c.payload):
                kept.append((e, c))
        kept.sort(key=itemgetter(0))
        return LaurentSeries(ring, *_coeff_rows(kept), prec)

    @staticmethod
    def from_rows(ring: Ring, den: int, rows: Iterable, prec: int | None) -> "LaurentSeries":
        """The series sum payload z^e / den, in the form of
        ``ring.canonical``; ``rows`` are (e, payload) pairs of ints,
        ascending in e and below ``prec``, and ``den`` > 0."""
        return LaurentSeries(ring, *canonical(ring, den, rows), prec)

    @staticmethod
    def zero(ring: Ring) -> "LaurentSeries":
        return LaurentSeries(ring, 1, (), None)

    @staticmethod
    def one(ring: Ring) -> "LaurentSeries":
        return LaurentSeries.monomial(ring, 0)

    @staticmethod
    def monomial(ring: Ring, exp: int, coeff: CoeffLike = 1) -> "LaurentSeries":
        return LaurentSeries.build(ring, {exp: coeff})

    @staticmethod
    def constant(ring: Ring, coeff: CoeffLike) -> "LaurentSeries":
        return LaurentSeries.monomial(ring, 0, coeff)

    # -- the Coeff view ---------------------------------------------------

    def _coeff(self, payload: tuple[int, ...]) -> Coeff:
        """The stored row ``payload`` as a ``Coeff``: the row is trimmed
        and nonzero already, so only the common factor with ``den`` goes."""
        den = self.den
        g = gcd(den, *payload)
        if g == 1:
            return Coeff(self.ring, den, payload)
        return Coeff(self.ring, den // g, tuple([v // g for v in payload]))

    @property
    def terms(self) -> tuple[tuple[int, Coeff], ...]:
        """(exponent, coefficient) pairs, ascending, nonzero coefficients."""
        return tuple([(e, self._coeff(p)) for e, p in self.rows])

    def coeff(self, exp: int) -> Coeff:
        """Stored coefficient at ``exp`` (zero when absent; no prec check)."""
        rows = self.rows
        i = bisect_left(rows, (exp,))
        if i < len(rows) and rows[i][0] == exp:
            return self._coeff(rows[i][1])
        return Coeff.zero(self.ring)

    # -- basic queries ----------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    def is_zero(self) -> bool:
        """Exactly the zero series (not merely zero up to precision)."""
        return self.prec is None and not self.rows

    def zero_to_prec(self) -> bool:
        return not self.rows

    def ord_min(self) -> int | None:
        return self.rows[0][0] if self.rows else None

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentSeries") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        prec = _min_prec(self.prec, other.prec)
        den, rows = _add_rows(self.den, self.rows, other.den, other.rows, prec)
        return LaurentSeries.from_rows(self.ring, den, rows, prec)

    def __neg__(self) -> "LaurentSeries":
        # tuple([...]), not tuple(<generator>): see ring.Coeff.__neg__
        rows = tuple([(e, tuple([-v for v in p])) for e, p in self.rows])
        return LaurentSeries(self.ring, self.den, rows, self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        a, b = (self.den, self.rows, self.prec), (other.den, other.rows, other.prec)
        return LaurentSeries.from_rows(self.ring, *_times(self.ring, a, b))

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self * other.invert()

    def scale(self, c: CoeffLike) -> "LaurentSeries":
        """The series times the constant ``c``, a ``Coeff`` or a rational."""
        if not isinstance(c, Coeff):
            c = Coeff.const(self.ring, c)
        elif c.ring != self.ring:
            raise RingMismatch("scale by a coefficient from a different ring")
        rows = _mul_rows(self.ring, self.rows, [(0, c.payload)] if any(c.payload) else [], None)
        return LaurentSeries.from_rows(self.ring, self.den * c.den, rows, self.prec)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by z^n."""
        return LaurentSeries(
            self.ring,
            self.den,
            tuple([(e + n, p) for e, p in self.rows]),
            None if self.prec is None else self.prec + n,
        )

    def truncate(self, prec: int | None) -> "LaurentSeries":
        if prec is None:
            return self
        p = _min_prec(self.prec, prec)
        rows = self.rows
        n = bisect_left(rows, (p,))
        if n == len(rows):
            return self if p == self.prec else LaurentSeries(self.ring, self.den, rows, p)
        # dropping terms may leave a common factor with den
        return LaurentSeries.from_rows(self.ring, self.den, rows[:n], p)

    def __pow__(self, n: int) -> "LaurentSeries":
        if n < 0:
            return self.invert() ** (-n)
        if not n:
            return LaurentSeries.one(self.ring)
        power = _power(self.ring, (self.den, self.rows, self.prec), n)
        return LaurentSeries.from_rows(self.ring, *power)

    # -- valuation, inversion, calculus -----------------------------------

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient mod the nilradical.

        Raises ``ZeroSeries`` when the reduction is exactly zero and
        ``InsufficientPrecision`` when no nonzero coefficient is certified.
        """
        for e, p in self.rows:
            if not payload_is_nilpotent(self.ring, p):
                return e
        if self.exact:
            raise ZeroSeries("valuation of the zero series (mod nilradical)")
        raise InsufficientPrecision(
            f"no nonzero coefficient certified below O(z^{self.prec})"
        )

    def invert(self, prec: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse.

        Requires the coefficient at the lowest stored exponent to be a unit
        of the coefficient ring (series with nilpotent lower terms must be
        routed through the normal-form factorization instead).  For an
        inexact input with valuation v and precision N the result is known
        below N - 2v, the standard reciprocal window: rel = N - v terms.
        ``prec`` sets rel when the input is exact but the inverse is an
        infinite series (default ``DEFAULT_PREC``; it must be at least 1).

        With g = z^-v f cut at z^rel, Newton iteration (Brent & Kung 1978)
        starts from b = lead^-1 and doubles the number of correct terms
        each step, b <- b - b (g b - 1) mod z^k with k capped at rel, so
        the cost is that of a few whole-series products.
        """
        window = resolve_prec(prec)
        if not self.rows:
            if self.exact:
                raise NotInvertible("zero series")
            raise InsufficientPrecision("all stored coefficients vanish")
        v, payload = self.rows[0]
        lead = self._coeff(payload)
        if not lead.is_unit():
            raise NotInvertible(
                "lowest coefficient is not a unit; use the normal form"
            )
        if self.exact and len(self.rows) == 1:
            return LaurentSeries.monomial(self.ring, -v, lead.invert())
        rel = (self.prec - v) if self.prec is not None else window
        g = (self.den, [(e - v, p) for e, p in self.rows])
        inverse = lead.invert()
        b = (inverse.den, ((0, inverse.payload),))
        k = 1
        while k < rel:
            k = min(2 * k, rel)
            b = _inverse_step(self.ring, b, g, k)
        den, rows = b
        return LaurentSeries(self.ring, den, tuple([(e - v, p) for e, p in rows]), rel - v)

    def derivative(self) -> "LaurentSeries":
        rows = [(e - 1, tuple([v * e for v in p])) for e, p in self.rows if e]
        return LaurentSeries.from_rows(
            self.ring, self.den, rows, None if self.prec is None else self.prec - 1
        )

    def dlog(self, prec: int | None = None) -> "LaurentSeries":
        """The coefficient series of f'/f dz."""
        return self.derivative() * self.invert(prec)

    def residue(self) -> Coeff:
        """Coefficient at z^-1; requires it to be certified (prec >= 0)."""
        if self.prec is not None and self.prec < 0:
            raise InsufficientPrecision("coefficient at z^-1 is not certified")
        return self.coeff(-1)

    # -- loop-space operations ----------------------------------------------

    def covering(self, n: int) -> "LaurentSeries":
        """Precompose with the degree-n cover z -> z^n (exponents scale by n).

        Exponents below n*prec that are not multiples of n are known to be
        zero, so the precision scales exactly to n*prec.
        """
        if n < 1:
            raise ValueError("covering degree must be a positive integer")
        return LaurentSeries(
            self.ring,
            self.den,
            tuple([(e * n, p) for e, p in self.rows]),
            None if self.prec is None else self.prec * n,
        )

    def specialize(self, t0: Scalar) -> "LaurentSeries":
        """Evaluate Q[t]-coefficients at t = t0, landing over the rationals.

        For t0 = p/q and D the largest t-degree, the coefficient
        sum c_i t0^i / den is (sum c_i p^i q^(D-i)) / (den q^D), so every
        value is one integer over the shared denominator den q^D.
        """
        if self.ring != POLY:
            raise RingMismatch("specialize needs a series over Q[t]")
        t0 = Fraction(t0)
        p, q = t0.numerator, t0.denominator
        d = max([len(c) for _, c in self.rows], default=1) - 1
        rows = [(e, (payload_at(cs, p, q, d),)) for e, cs in self.rows]
        return LaurentSeries.from_rows(RATIONAL, self.den * q**d, rows, self.prec)


def _inverse_step(ring: Ring, b: tuple, g: tuple, k: int) -> tuple:
    """One Newton step for 1/g on (den, rows) pairs: b - b (g b - 1) mod
    z^k, its content divided out so that the denominator does not square
    with every step.  g has valuation 0 and b = 1/g mod z^m, so g b - 1 is
    g b without its constant row; the result is 1/g mod z^min(2m, k)."""
    (db, rb), (dg, rg) = b, g
    e = _mul_rows(ring, rg, rb, k)[1:]
    den, rows = _add_rows(db, rb, -db * dg * db, _mul_rows(ring, rb, e, k), None)
    return canonical(ring, den, rows)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt(f: LaurentSeries, prec: int | None = None, branch: int = 1) -> LaurentSeries:
    """Series square root of f.

    Needs an even lowest exponent v and a leading coefficient that is (a
    unit times) the square of a rational.  ``branch`` (+1/-1) picks the
    sign of the leading coefficient of the result.  An exact perfect square
    is returned exactly; otherwise the result carries rel relative terms
    and precision v/2 + rel, where rel = N - v for an inexact f known below
    N, and ``prec`` for an exact one (default ``DEFAULT_PREC``; it must be
    at least 1).

    With g = z^-v f cut at z^rel, a coupled Newton iteration keeps s, the
    square root, and r, its inverse.  It starts from s = +-sqrt(lead) and
    r = 1/s; each round doubles k, capped at rel, sets
    s <- s + r (g - s^2) / 2 mod z^k, and then takes one Newton inverse
    step for r against the new s (skipped in the last round).

    The leading coefficient must be a rational square: over Q[eps]/eps^k
    its eps part must vanish.  Newton's steps need only 2 lead to be a
    unit, so they run over every supported ring.

    The candidate c (the computed terms, read as a Laurent polynomial)
    satisfies c^2 = f mod z^(v+rel) by construction.  Over Q and Q[t], an
    integral domain, deg(c^2) = 2 deg c and exactness is certified by
    degree: 2 deg c != deg f means c^2 != f; 2 deg c = deg f < v + rel
    means c^2 = f, as both sides then agree in every exponent.  Only when
    2 deg c = deg f >= v + rel, as for (1 + z^15)^2 at rel 24, is c^2
    computed and compared with f.  Over a ring with nilpotents the degree
    tells nothing, as (1 + eps z)^2 = 1 + 2 eps z over eps^2, so an exact
    f is always squared back.
    """
    window = resolve_prec(prec)
    if not f.rows:
        if f.exact:
            return LaurentSeries.zero(f.ring)
        raise InsufficientPrecision("square root of a series with no certified terms")
    v = f.rows[0][0]
    lead = f.coeff(v)
    if v % 2 != 0:
        raise OddValuation(f"lowest exponent {v} is odd")
    try:
        lead_q = lead.as_fraction()
    except RingMismatch:
        raise NoRationalSquareRoot("leading coefficient is not a plain rational")
    root = _fraction_sqrt(lead_q)
    if root is None or root == 0:
        raise NoRationalSquareRoot(f"{lead_q} is not a nonzero rational square")
    rel = (f.prec - v) if f.prec is not None else window
    sign = root if branch >= 0 else -root
    ring, g = f.ring, [(e - v, p) for e, p in f.rows]
    start, inverse = Coeff.const(ring, sign), Coeff.const(ring, 1 / sign)
    s = (start.den, ((0, start.payload),))
    r = (inverse.den, ((0, inverse.payload),))
    k = 1
    while k < rel:
        k = min(2 * k, rel)
        (ds, rs), (dr, rr) = s, r
        dd, d = _add_rows(f.den, g, -ds * ds, _mul_rows(ring, rs, rs, k), k)
        den, rows = _add_rows(ds, rs, 2 * dd * dr, _mul_rows(ring, d, rr, k), None)
        s = canonical(ring, den, rows)
        if k < rel:
            r = _inverse_step(ring, r, s, k)
    den, rows = s[0], tuple([(e + v // 2, p) for e, p in s[1]])
    result = LaurentSeries(ring, den, rows, v // 2 + rel)
    if not f.exact:
        return result
    candidate = LaurentSeries(ring, den, rows, None)
    if not ring.has_nilpotents:
        if 2 * rows[-1][0] != f.rows[-1][0]:
            return result
        if f.rows[-1][0] < v + rel:
            return candidate
    return candidate if candidate * candidate == f else result
