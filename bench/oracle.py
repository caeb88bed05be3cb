"""Reference arithmetic for the output checks, independent of the library.

Series are checked modulo the prime P = 2^61 - 1: every rational
coefficient is mapped to Z/P, Q[t] coefficients are first evaluated at a
random t0, and products are recomputed here with plain integers.  A wrong
coefficient survives this only if P divides the error, so the check is
sound with overwhelming probability and shares no code with the library.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

P = (1 << 61) - 1


def qmod(q: Fraction) -> int:
    q = Fraction(q)
    return q.numerator % P * pow(q.denominator % P, -1, P) % P


class ModSeries:
    """Laurent series over (Z/P)[eps]/(eps^k); k = 1 for scalars.

    ``terms`` maps exponent -> coefficient vector (length k, not all zero);
    ``prec`` is None for an exact series, else coefficients at exponents
    >= prec are unknown.
    """

    __slots__ = ("k", "terms", "prec")

    def __init__(self, k: int, terms: dict, prec: int | None):
        self.k = k
        self.terms = {e: c for e, c in terms.items() if any(c)}
        self.prec = prec

    @staticmethod
    def from_library(s, t0: int | None = None) -> "ModSeries":
        kind = s.ring.kind
        k = s.ring.order if kind == "nilpotent" else 1
        terms = {}
        for e, c in s.terms:
            if kind == "poly":
                acc = 0
                for q in reversed(c.data):
                    acc = (acc * t0 + qmod(q)) % P
                terms[e] = (acc,)
            else:
                terms[e] = tuple(qmod(q) for q in c.data)
        return ModSeries(k, terms, s.prec)

    @staticmethod
    def from_rational(terms: dict, prec: int | None = None, k: int = 1) -> "ModSeries":
        return ModSeries(
            k, {e: (qmod(q),) + (0,) * (k - 1) for e, q in terms.items()}, prec
        )

    def lowest(self) -> int | None:
        return min(self.terms) if self.terms else None

    def __mul__(self, other: "ModSeries") -> "ModSeries":
        # Unknown coefficients of one factor reach the product no lower
        # than its precision plus the other factor's lowest stored exponent.
        prec = None
        for a, b in ((self, other), (other, self)):
            if a.prec is None:
                continue
            low = b.lowest()
            if low is None:
                low = b.prec if b.prec is not None else 0
            prec = a.prec + low if prec is None else min(prec, a.prec + low)
        k = self.k
        out: dict[int, list[int]] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                acc = out.get(e)
                if acc is None:
                    acc = out[e] = [0] * k
                for i in range(k):
                    ai = c1[i]
                    if ai:
                        for j in range(k - i):
                            acc[i + j] += ai * c2[j]
        return ModSeries(k, {e: tuple(v % P for v in c) for e, c in out.items()}, prec)

    def scale(self, c: tuple) -> "ModSeries":
        return self * ModSeries(self.k, {0: c}, None)

    def shift(self, n: int) -> "ModSeries":
        return ModSeries(
            self.k,
            {e + n: c for e, c in self.terms.items()},
            None if self.prec is None else self.prec + n,
        )

    def truncate(self, prec: int) -> "ModSeries":
        p = prec if self.prec is None else min(prec, self.prec)
        return ModSeries(self.k, {e: c for e, c in self.terms.items() if e < p}, p)

    def derivative(self) -> "ModSeries":
        return ModSeries(
            self.k,
            {e - 1: tuple(v * e % P for v in c) for e, c in self.terms.items() if e},
            None if self.prec is None else self.prec - 1,
        )

    def __add__(self, other: "ModSeries") -> "ModSeries":
        out = dict(self.terms)
        for e, c in other.terms.items():
            mine = out.get(e, (0,) * self.k)
            out[e] = tuple((a + b) % P for a, b in zip(mine, c))
        precs = [p for p in (self.prec, other.prec) if p is not None]
        return ModSeries(self.k, out, min(precs) if precs else None)


def h_of_mod(h, x: ModSeries) -> ModSeries:
    """h(x) for rational coefficients h (ascending), by Horner's rule."""
    acc = ModSeries.from_rational({0: h[-1]}, k=x.k)
    for c in reversed(h[:-1]):
        acc = acc * x + ModSeries.from_rational({0: c}, k=x.k)
    return acc


def one(k: int) -> ModSeries:
    return ModSeries(k, {0: (1,) + (0,) * (k - 1)}, None)


def agree(a: ModSeries, b: ModSeries, below: int | None = None) -> str | None:
    """None when a and b agree on every exponent both certify (and below
    ``below`` when given); else the first exponent where they differ."""
    precs = [p for p in (a.prec, b.prec, below) if p is not None]
    bound = min(precs) if precs else None
    zero = (0,) * a.k
    for e in sorted(set(a.terms) | set(b.terms)):
        if bound is not None and e >= bound:
            break
        if a.terms.get(e, zero) != b.terms.get(e, zero):
            return f"coefficient of z^{e} differs"
    return None


def vec(coeffs, k: int) -> tuple:
    """Rational coefficients (constant term first) as a vector mod P."""
    out = tuple(qmod(q) for q in coeffs)
    return out + (0,) * (k - len(out))


def reconstruct_below(parts, bound: int, k: int) -> ModSeries:
    """u z^v prod_i (1 - a_i z^-i) prod_j (1 - b_j z^j), correct below
    ``bound``, from parts (u, v, [(i, a_i)], [(j, b_j)]) whose
    coefficients are sequences of rationals.  The positive product is cut
    where the negative factors can no longer pull its terms under the
    bound."""
    unit, order, neg, pos = parts
    cut = bound - order + sum(i for i, _ in neg)
    one_vec = one(k).terms[0]
    prod = one(k).truncate(cut)
    for j, b in pos:
        minus_b = tuple((-x) % P for x in vec(b, k))
        prod = (prod * ModSeries(k, {0: one_vec, j: minus_b}, None)).truncate(cut)
    for i, a in neg:
        minus_a = tuple((-x) % P for x in vec(a, k))
        prod = prod * ModSeries(k, {0: one_vec, -i: minus_a}, None)
    return prod.scale(vec(unit, k)).shift(order).truncate(bound)


# -- surface groups -------------------------------------------------------------

#: Degrees of the irreducible complex representations of S_n (n <= 4).
_IRREP_DEGREES = {1: (1,), 2: (1, 1), 3: (1, 1, 2), 4: (1, 1, 2, 3, 3)}


def hom_counts(genus: int, n: int) -> tuple[int, int]:
    """(surface, free) homomorphism counts into S_n.

    Free: (n!)^(2g).  Closed surface: Mednykh's formula
    |G| * sum over irreducible characters of (|G| / chi(1))^(2g - 2).
    """
    order = factorial(n)
    total = sum(Fraction(order, d) ** (2 * genus - 2) for d in _IRREP_DEGREES[n])
    surface = order * total
    return int(surface), order ** (2 * genus)


# -- exact rational polynomials in z (generators of CLI inputs) ----------------


def zmul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def h_of(h: list[Fraction], x: dict) -> dict:
    """h(x(z)) for an ascending coefficient list h, by Horner's rule."""
    acc: dict[int, Fraction] = {}
    for c in reversed(h):
        acc = zmul(acc, x)
        acc[0] = acc.get(0, Fraction(0)) + c
        acc = {e: v for e, v in acc.items() if v != 0}
    return acc


def sqrt_terms(f: dict, rel: int, sign: int = 1) -> dict:
    """``rel`` terms of a square root of f (even lowest exponent, leading
    coefficient a rational square), by the binomial recurrence."""
    v = min(f)
    lead = f[v]
    num, den = lead.numerator, lead.denominator
    root = Fraction(_isqrt_exact(num), _isqrt_exact(den)) * sign
    g = [f.get(v + i, Fraction(0)) / lead for i in range(rel)]
    out = [Fraction(1)]
    for n in range(1, rel):
        acc = g[n] - sum(out[i] * out[n - i] for i in range(1, n))
        out.append(acc / 2)
    return {v // 2 + i: c * root for i, c in enumerate(out) if c != 0}


def _isqrt_exact(n: int) -> int:
    r = isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a square")
    return r


def poly_from_roots(roots: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of prod (x - r): monic, squarefree when the
    roots are distinct."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs
