"""Unique factorization of invertible Laurent series.

An invertible element of A((z)) factors uniquely as

    alpha = u * z^v * prod_i (1 - a_i z^-i) * prod_j (1 - b_j z^j)

with u a unit of A, the finitely many a_i nilpotent, and the b_j arbitrary.
Over a field the negative product is empty and v is the valuation.

``factor`` computes the data, ``reconstruct`` expands it back, ``order_of``
reads off v.  The negative factors are peeled from the most negative
exponent up: each round cancels the lowest term c z^-i of r = z^-v alpha
prod (1 - a_i z^-i)^-1 over the factors found so far, by one product with
at most k + 1 rows over Q[eps]/eps^k.  The rounds stop.  Give a coefficient
in N^l but not N^(l+1), N the nilradical, the layer l, and let z^-L be the
lowest term of z^-v alpha.  By induction each a_i has a layer l >= i/L, so
no term of layer l lies below z^-lL.  A round on a term of layer l at z^e
leaves no term at or below z^e nonzero mod N^(l+1), and rounds at higher
layers change nothing mod N^(l+1).  So at most lL rounds at layer l < k
fall between two at lower layers, R_l <= lL (1 + R_1 + ... + R_(l-1)): L
rounds over eps^2, O(L^2) over eps^3 (210 for 20 eps terms).  What is
left, divided by its constant u, is p = prod_j (1 - b_j z^j), and the b_j
are the Witt coordinates of the ghost series z p'/p (Hazewinkel, "Witt
vectors. Part 1", arXiv:0804.3888): its coefficient at z^n is
-sum_{d | n} d b_d^(n/d), so one dlog and a divisor sieve give every b_j.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from heapq import nlargest

from .errors import InsufficientPrecision, NotInvertible
from .ring import Coeff, Ring, canonical
from .series import LaurentSeries, _coeff_rows, _mul_rows, resolve_prec


class NormalForm(namedtuple("NormalForm", "ring unit order neg pos prec", defaults=(None,))):
    """Factorization data (unit, order, negative part, positive part).

    ``neg`` and ``pos`` are ascending (degree, ``Coeff``) pairs.  ``prec``
    is the absolute precision up to which ``reconstruct`` is guaranteed to
    reproduce the factored series (None: the form is exact).  The positive
    part is stored for degrees j with order + j < prec.
    """

    __slots__ = ()


def _peel(ring: Ring, i: int, a: Coeff, delta: Coeff) -> tuple[int, int, tuple]:
    """(depth, den, rows): the bare rows of (1 - (a - delta) z^-i) / (1 - a
    z^-i) = 1 + delta z^-i sum_m a^m z^-im, and the largest m with a^m != 0
    (0 for a = 0); both finite since a is nilpotent."""
    powers, power = [Coeff.one(ring)], a
    while not power.is_zero():
        powers.append(power)
        power = power * a
    terms = [(-i * m, delta * c) for m, c in enumerate(powers, 1)]
    terms = [(e, c) for e, c in reversed(terms) if not c.is_zero()]
    return (len(powers) - 1, *_coeff_rows(terms + [(0, Coeff.one(ring))]))


def factor(alpha: LaurentSeries, prec: int | None = None) -> NormalForm:
    """Factor an invertible series into its normal form.

    ``prec`` bounds the number of positive-part degrees computed when
    ``alpha`` is exact but does not factor finitely (default
    ``DEFAULT_PREC``; it must be at least 1).  Raises ``NotInvertible``
    when the reduction mod the nilradical has a non-unit leading
    coefficient, and propagates ``InsufficientPrecision``/``ZeroSeries``
    from the valuation.
    """
    window = resolve_prec(prec)
    ring = alpha.ring
    v = order_of(alpha)
    beta = alpha.shift(-v)

    # negative part: rows / den is beta prod_i (1 - a_i z^-i)^-1, kept uncut
    # so that the factor of one changed a_i updates it exactly; the product
    # rule on each factor makes it known below beta.prec - sum_i i depth[i]
    neg: dict[int, Coeff] = {}
    depth: dict[int, int] = {}
    den, rows, prec = beta.den, beta.rows, beta.prec
    while rows and rows[0][0] < 0 and (prec is None or prec > 0):
        i, c = -rows[0][0], Coeff(ring, den, rows[0][1])
        if not c.is_nilpotent():
            raise NotInvertible("non-nilpotent negative coefficient")
        # Coeff arithmetic reduces its results, so these need not be in
        # lowest terms; the constant term is a unit mod N, so it is stored
        delta = -(c * Coeff(ring, den, rows[bisect_left(rows, (0,))][1]).invert())
        a = neg.pop(i, Coeff.zero(ring)) + delta
        d, f_den, f_rows = _peel(ring, i, a, delta)
        if d:
            neg[i] = a
        prec = None if prec is None else prec + i * (depth.get(i, 0) - d)
        depth[i] = d
        den, rows = canonical(ring, den * f_den, _mul_rows(ring, rows, f_rows, None))
    if prec is not None and prec <= 0:
        raise InsufficientPrecision(
            "constant term not certified after the negative factors"
            f" (need O(z^1), have O(z^{prec}))"
        )
    r = beta if not depth else LaurentSeries.from_rows(
        ring, den, [row for row in rows if prec is None or row[0] < prec], prec)

    unit = r.coeff(0)
    p = r.scale(unit.invert())

    limit = window if p.exact else p.prec
    pos = _witt_coordinates(p, limit)
    if p.exact and _is_product(p, pos):
        nf_prec = None
    else:
        # Positive-part degrees >= limit are missing; through the negative
        # factors they can disturb exponents as low as v + limit - sum(i).
        nf_prec = v + limit - sum(neg)
        if alpha.prec is not None:
            nf_prec = min(alpha.prec, nf_prec)
    return NormalForm(ring, unit, v, tuple(sorted(neg.items())), pos, nf_prec)


def _witt_coordinates(p: LaurentSeries, limit: int) -> tuple[tuple[int, Coeff], ...]:
    """The nonzero b_j, j < ``limit``, with p = prod_j (1 - b_j z^j) mod z^limit.

    p has constant term 1.  Its ghost series w = z p'/p is needed only
    below z^limit, so p is cut there and read as a polynomial (a p with
    nothing but its constant there inverts in one step).  Then
    n b_n = -w_n - sum_{d | n, d < n} d b_d^(n/d); every supported ring is
    a Q-algebra, so the division by n is allowed.  Slot n starts at w_n;
    once b_d is known, d b_d^m is added to slot d m, and the powers stop
    at the first zero one.
    """
    head = LaurentSeries.from_rows(p.ring, p.den, [r for r in p.rows if r[0] < limit], None)
    sums = dict(head.dlog(limit).shift(1).truncate(limit).terms)
    pos = []
    for n in range(1, limit):
        c = sums.get(n)
        if c is None or c.is_zero():
            continue
        b = c.scale(Fraction(-1, n))
        pos.append((n, b))
        power = b
        for m in range(2 * n, limit, n):
            power = power * b
            if power.is_zero():
                break
            term = power.scale(n)
            sums[m] = sums[m] + term if m in sums else term
    return tuple(pos)


def _is_product(p: LaurentSeries, pos: tuple[tuple[int, Coeff], ...]) -> bool:
    """Whether the exact p equals prod_j (1 - b_j z^j) over ``pos``.

    Mod the nilradical the product has degree units = sum of the j with b_j
    not nilpotent, so it can equal p only when units <= deg p.  It has
    degree at most units plus the k - 1 largest j with b_j nilpotent, since
    a product of k nilpotents vanishes over Q[eps]/eps^k (over Q and Q[t]
    there are none).  Below one past both degrees the truncating product
    of ``reconstruct`` decides it.
    """
    ring = p.ring
    deg = p.rows[-1][0]
    units = sum([j for j, b in pos if not b.is_nilpotent()])
    if units > deg:
        return False
    nil = [j for j, b in pos if b.is_nilpotent()]
    cut = max(deg, units + sum(nlargest((ring.order or 1) - 1, nil))) + 1
    one = Coeff.one(ring)
    return reconstruct(NormalForm(ring, one, 0, (), pos, cut)) == p.truncate(cut)


def reconstruct(nf: NormalForm) -> LaurentSeries:
    """Expand the factorization back into a series.

    The result is truncated at ``nf.prec`` (exact forms reconstruct
    exactly).  The negative factors lower exponents by at most sum(i), so
    for a cut at N the unit times the positive factors is needed only
    below N - order + sum(i), and each product of bare rows drops what
    lies past its own cut and divides out its content.
    """
    ring, one = nf.ring, Coeff.one(nf.ring).payload
    hi = None if nf.prec is None else nf.prec - nf.order + sum([i for i, _ in nf.neg])
    den, rows = nf.unit.den, [(0, nf.unit.payload)]
    # a negative factor 1 - a z^-i runs as j = -i, and lowers the cut by i
    for j, b in nf.pos + tuple([(-i, a) for i, a in nf.neg]):
        hi = hi if hi is None or j > 0 else hi + j
        binomial = sorted([(0, [v * b.den for v in one]), (j, [-v for v in b.payload])])
        # one gcd pass per factor: the product of the b_j's denominators
        # grows far past the partial product's own (8000 bits at n = 96)
        den, rows = canonical(ring, den * b.den, _mul_rows(ring, rows, binomial, hi))
    rows = [(e + nf.order, p) for e, p in rows if hi is None or e < hi]
    return LaurentSeries.from_rows(ring, den, rows, nf.prec)


def order_of(alpha: LaurentSeries) -> int:
    """The order v of the factorization; the valuation mod the nilradical."""
    v = alpha.valuation()  # every coefficient below v is nilpotent
    if not alpha.coeff(v).is_unit():
        raise NotInvertible("leading coefficient (mod nilradical) is not a unit")
    return v
