"""Truncated formal Laurent series A((z)) with explicit precision tracking.

A series stores finitely many terms plus a precision bound ``prec``:
coefficients are known (and stored when nonzero) for every exponent
``e < prec``; exponents ``>= prec`` are unknown.  ``prec is None`` means the
series is an exact Laurent polynomial (all higher coefficients are zero).

The distinction between "known to be zero" and "unknown" is load-bearing:
valuations and residues are only reported when the stored precision
certifies them, otherwise ``InsufficientPrecision`` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Mapping, Union

from .errors import (
    InsufficientPrecision,
    NoRationalSquareRoot,
    NotInvertible,
    OddValuation,
    RingMismatch,
    SubstituteDiverges,
    ZeroSeries,
)
from .ring import Coeff, Ring, Scalar, packed_mul

#: Default number of terms kept past the lowest exponent when an exact
#: input forces an infinite expansion (inverses, square roots, ...).
DEFAULT_PREC = 24

CoeffLike = Union[Coeff, int, Fraction]


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


@dataclass(frozen=True)
class LaurentSeries:
    """Element of A((z)); immutable, canonical (no stored zero terms)."""

    ring: Ring
    terms: tuple[tuple[int, Coeff], ...]  # ascending exponents, nonzero coeffs
    prec: int | None = None  # None: exact Laurent polynomial

    # -- construction ---------------------------------------------------

    @staticmethod
    def build(
        ring: Ring,
        terms: Mapping[int, CoeffLike],
        prec: int | None = None,
    ) -> "LaurentSeries":
        out = {}
        for e, c in terms.items():
            if not isinstance(c, Coeff):
                c = Coeff.const(ring, c)
            elif c.ring != ring:
                raise RingMismatch("term coefficient from a different ring")
            if c.is_zero():
                continue
            if prec is not None and e >= prec:
                continue
            out[e] = c
        return LaurentSeries(ring, tuple(sorted(out.items())), prec)

    @staticmethod
    def zero(ring: Ring) -> "LaurentSeries":
        return LaurentSeries(ring, ())

    @staticmethod
    def one(ring: Ring) -> "LaurentSeries":
        return LaurentSeries.monomial(ring, 0)

    @staticmethod
    def monomial(ring: Ring, exp: int, coeff: CoeffLike = 1) -> "LaurentSeries":
        return LaurentSeries.build(ring, {exp: coeff})

    @staticmethod
    def constant(ring: Ring, coeff: CoeffLike) -> "LaurentSeries":
        return LaurentSeries.monomial(ring, 0, coeff)

    # -- basic queries ----------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.prec is None

    def is_zero(self) -> bool:
        """Exactly the zero series (not merely zero up to precision)."""
        return self.exact and not self.terms

    def zero_to_prec(self) -> bool:
        return not self.terms

    def coeff(self, exp: int) -> Coeff:
        """Stored coefficient at ``exp`` (zero when absent; no prec check)."""
        for e, c in self.terms:
            if e == exp:
                return c
        return Coeff.zero(self.ring)

    def ord_min(self) -> int | None:
        return self.terms[0][0] if self.terms else None

    def as_dict(self) -> dict[int, Coeff]:
        return dict(self.terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        out = self.as_dict()
        for e, c in other.terms:
            if e in out:
                out[e] = out[e] + c
            else:
                out[e] = c
        return LaurentSeries.build(self.ring, out, _min_prec(self.prec, other.prec))

    def __neg__(self) -> "LaurentSeries":
        # tuple([...]), not tuple(<generator>): see ring._integer_rows
        return LaurentSeries(self.ring, tuple([(e, -c) for e, c in self.terms]), self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.ring)
        # Unknown tail of f (exponents >= f.prec) meets g no lower than
        # f.prec + ord_min(g); symmetrically for g.  An inexact series with
        # no stored terms contributes its own precision as the lowest
        # conceivable exponent.
        prec = None
        for a, b in ((self, other), (other, self)):
            if a.prec is None:
                continue
            om = b.ord_min()
            if om is None:
                om = b.prec if b.prec is not None else 0
            prec = _min_prec(prec, a.prec + om)
        if not self.terms or not other.terms:
            return LaurentSeries(self.ring, (), prec)
        # Exponents of both operands lie on base + step*N; the packed
        # product runs over that lattice.
        ea, eb = self.terms[0][0], other.terms[0][0]
        step = gcd(*(e - ea for e, _ in self.terms), *(e - eb for e, _ in other.terms)) or 1
        count = (self.terms[-1][0] - ea + other.terms[-1][0] - eb) // step + 1
        if prec is not None:
            count = min(count, -((ea + eb - prec) // step))
        if count <= 0:
            return LaurentSeries(self.ring, (), prec)
        rows = packed_mul(
            [((e - ea) // step, c.data) for e, c in self.terms],
            [((e - eb) // step, c.data) for e, c in other.terms],
            count,
            self.ring.order,
        )
        terms = [
            (ea + eb + m * step, Coeff.from_row(self.ring, row))
            for m, row in enumerate(rows)
            if any(row)
        ]
        return LaurentSeries(self.ring, tuple(terms), prec)

    def scale(self, c: CoeffLike) -> "LaurentSeries":
        if isinstance(c, Coeff):
            out = {e: v * c for e, v in self.terms}
        else:
            out = {e: v.scale(c) for e, v in self.terms}
        return LaurentSeries.build(self.ring, out, self.prec)

    def shift(self, n: int) -> "LaurentSeries":
        """Multiply by z^n."""
        return LaurentSeries(
            self.ring,
            tuple([(e + n, c) for e, c in self.terms]),
            None if self.prec is None else self.prec + n,
        )

    def truncate(self, prec: int | None) -> "LaurentSeries":
        if prec is None:
            return self
        p = _min_prec(self.prec, prec)
        return LaurentSeries(self.ring, tuple([(e, c) for e, c in self.terms if e < p]), p)

    def __pow__(self, n: int) -> "LaurentSeries":
        if n < 0:
            return self.invert() ** (-n)
        result = LaurentSeries.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- valuation, inversion, calculus -----------------------------------

    def valuation(self) -> int:
        """Smallest exponent with nonzero coefficient mod the nilradical.

        Raises ``ZeroSeries`` when the reduction is exactly zero and
        ``InsufficientPrecision`` when no nonzero coefficient is certified.
        """
        for e, c in self.terms:
            if not c.reduce_mod_nilradical().is_zero():
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
        if not self.terms:
            if self.exact:
                raise NotInvertible("zero series")
            raise InsufficientPrecision("all stored coefficients vanish")
        v, lead = self.terms[0]
        if not lead.is_unit():
            raise NotInvertible(
                "lowest coefficient is not a unit; use the normal form"
            )
        if self.exact and len(self.terms) == 1:
            return LaurentSeries.monomial(self.ring, -v, lead.invert())
        rel = (self.prec - v) if self.prec is not None else window
        g = self.shift(-v).truncate(rel)
        b = LaurentSeries.constant(self.ring, lead.invert())
        k = 1
        while k < rel:
            k = min(2 * k, rel)
            b = _inverse_step(b, g, k)
        return b.shift(-v).truncate(rel - v)

    def derivative(self) -> "LaurentSeries":
        out = {e - 1: c.scale(e) for e, c in self.terms if e != 0}
        return LaurentSeries.build(
            self.ring, out, None if self.prec is None else self.prec - 1
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
            tuple([(e * n, c) for e, c in self.terms]),
            None if self.prec is None else self.prec * n,
        )

    def substitute(self, g: "LaurentSeries") -> "LaurentSeries":
        """Composition f(g(z)).

        Requires valuation(g) >= 1 unless f is an exact Laurent polynomial;
        negative exponents of f additionally need g invertible.
        """
        self._check(g)
        gv = g.valuation()
        if not self.exact and gv < 1:
            raise SubstituteDiverges(
                "composition with a non-positive-valuation series"
            )
        result = LaurentSeries.zero(self.ring)
        g_inv = None
        for e, c in self.terms:
            if e == 0:
                power = LaurentSeries.one(self.ring)
            elif e > 0:
                power = g ** e
            else:
                if g_inv is None:
                    g_inv = g.invert()
                power = g_inv ** (-e)
            result = result + power.scale(c)
        cap = None if self.exact else self.prec * gv
        return result.truncate(_min_prec(result.prec, cap))

    def specialize(self, t0: Scalar) -> "LaurentSeries":
        """Evaluate Q[t]-coefficients at t = t0, landing over the rationals."""
        from .ring import POLY, RATIONAL

        if self.ring != POLY:
            raise RingMismatch("specialize needs a series over Q[t]")
        return LaurentSeries.build(
            RATIONAL, {e: c.specialize(t0) for e, c in self.terms}, self.prec
        )


def _inverse_step(b: LaurentSeries, g: LaurentSeries, k: int) -> LaurentSeries:
    """One Newton step for 1/g: b - b (g b - 1) mod z^k, as a polynomial.

    g has valuation 0 and the polynomial b equals 1/g mod z^m; the result
    equals 1/g mod z^min(2m, k).  b enters the products exact and only g
    is cut at z^k, so both products are certified exactly below z^k.
    """
    e = g.truncate(k) * b - LaurentSeries.one(g.ring)
    return _as_polynomial(b - b * e)


def _as_polynomial(s: LaurentSeries) -> LaurentSeries:
    """The stored terms of ``s`` read as an exact Laurent polynomial."""
    return LaurentSeries(s.ring, s.terms, None)


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

    Exactness is certified by degree.  The candidate c (the computed
    terms, read as a Laurent polynomial) satisfies c^2 = f mod z^(v+rel)
    by construction.  The leading coefficient passed ``as_fraction``, so
    the ring is Q or Q[t], an integral domain, and deg(c^2) = 2 deg c.
    Hence 2 deg c != deg f means c^2 != f; 2 deg c = deg f < v + rel means
    c^2 = f, as both sides then agree in every exponent.  Only when
    2 deg c = deg f >= v + rel, as for (1 + z^15)^2 at rel 24, is c^2
    computed and compared with f.
    """
    window = resolve_prec(prec)
    if not f.terms:
        if f.exact:
            return LaurentSeries.zero(f.ring)
        raise InsufficientPrecision("square root of a series with no certified terms")
    v, lead = f.terms[0]
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
    g = f.shift(-v).truncate(rel)
    s = LaurentSeries.constant(f.ring, sign)
    r = LaurentSeries.constant(f.ring, 1 / sign)
    k = 1
    while k < rel:
        k = min(2 * k, rel)
        s = _as_polynomial(s + ((g.truncate(k) - s * s) * r).scale(Fraction(1, 2)))
        if k < rel:
            r = _inverse_step(r, s, k)
    result = s.shift(v // 2).truncate(v // 2 + rel)
    if not f.exact or 2 * result.terms[-1][0] != f.terms[-1][0]:
        return result
    candidate = _as_polynomial(result)
    if f.terms[-1][0] < v + rel or candidate * candidate == f:
        return candidate
    return result
