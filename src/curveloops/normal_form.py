"""Unique factorization of invertible Laurent series.

An invertible element of A((z)) factors uniquely as

    alpha = u * z^v * prod_i (1 - a_i z^-i) * prod_j (1 - b_j z^j)

with u a unit of A, the finitely many a_i nilpotent, and the b_j arbitrary.
Over a field the negative product is empty and v is the valuation.

``factor`` computes the data, ``reconstruct`` expands it back, ``order_of``
reads off v.  The negative factors are peeled from the most negative
exponent up, which terminates because each correction lands in a strictly
higher power of the nilradical.  What is left, divided by its constant u,
is p = prod_j (1 - b_j z^j), and the b_j are the Witt coordinates of the
ghost series z p'/p (Hazewinkel, "Witt vectors. Part 1", arXiv:0804.3888):
its coefficient at z^n is -sum_{d | n} d b_d^(n/d), so one dlog and a
divisor sieve give every b_j below the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import nlargest

from .errors import InsufficientPrecision, NotInvertible
from .ring import Coeff, Ring
from .series import LaurentSeries, resolve_prec

_MAX_PEEL_ROUNDS = 200


@dataclass(frozen=True)
class NormalForm:
    """Factorization data (unit, order, negative part, positive part).

    ``prec`` is the absolute precision up to which ``reconstruct`` is
    guaranteed to reproduce the factored series (None: the form is exact).
    The positive part is stored for degrees j with order + j < prec.
    """

    ring: Ring
    unit: Coeff
    order: int
    neg: tuple[tuple[int, Coeff], ...]
    pos: tuple[tuple[int, Coeff], ...]
    prec: int | None = None


def _neg_factor_inverse(ring: Ring, i: int, a: Coeff) -> LaurentSeries:
    """(1 - a z^-i)^-1 = sum_m a^m z^-im, finite since a is nilpotent."""
    terms = {0: Coeff.one(ring)}
    power = a
    m = 1
    while not power.is_zero():
        terms[-i * m] = power
        power = power * a
        m += 1
    return LaurentSeries.build(ring, terms)


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

    # negative part: correct the most negative exponent until none remain
    neg: dict[int, Coeff] = {}
    r = beta
    for _ in range(_MAX_PEEL_ROUNDS):
        if r.prec is not None and r.prec <= 0:
            raise InsufficientPrecision(
                "constant term not certified after the negative factors"
                f" (need O(z^1), have O(z^{r.prec}))"
            )
        e = r.ord_min()
        if e is None or e >= 0:
            break
        c = r.coeff(e)
        if not c.is_nilpotent():
            raise NotInvertible("non-nilpotent negative coefficient")
        delta = -(c * r.coeff(0).invert())
        i = -e
        neg[i] = neg.get(i, Coeff.zero(ring)) + delta
        if neg[i].is_zero():
            del neg[i]
        r = beta
        for i2, a in sorted(neg.items()):
            r = r * _neg_factor_inverse(ring, i2, a)
    else:  # pragma: no cover - guarded by nilpotency
        raise NotInvertible("negative-part peeling did not terminate")

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
    head = p.truncate(limit)
    head = LaurentSeries.from_rows(p.ring, head.den, head.rows, None)
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
    below N - order + sum(i), and each product drops what lies past its
    own precision.
    """
    ring = nf.ring
    out = LaurentSeries.constant(ring, nf.unit)
    if nf.prec is not None:
        out = out.truncate(nf.prec - nf.order + sum([i for i, _ in nf.neg]))
    for j, b in nf.pos:
        out = out * LaurentSeries.build(ring, {0: Coeff.one(ring), j: -b})
    for i, a in nf.neg:
        out = out * LaurentSeries.build(ring, {0: Coeff.one(ring), -i: -a})
    return out.shift(nf.order).truncate(nf.prec)


def order_of(alpha: LaurentSeries) -> int:
    """The order v of the factorization; the valuation mod the nilradical."""
    v = alpha.valuation()  # every coefficient below v is nilpotent
    if not alpha.coeff(v).is_unit():
        raise NotInvertible("leading coefficient (mod nilradical) is not a unit")
    return v
