"""Unique factorization of invertible Laurent series.

An invertible element of A((z)) factors uniquely as

    alpha = u * z^v * prod_i (1 - a_i z^-i) * prod_j (1 - b_j z^j)

with u a unit of A, the finitely many a_i nilpotent, and the b_j arbitrary.
Over a field the negative product is empty and v is the valuation.

``factor`` computes the data, ``reconstruct`` expands it back, ``order_of``
reads off v.  The peeling order (valuation first, then negative factors
from the most negative exponent up, then unit and positive factors in
increasing degree) terminates because each negative correction lands in a
strictly higher power of the nilradical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import InsufficientPrecision, NotInvertible
from .ring import Coeff, Ring, packed_mul
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

    def neg_dict(self) -> dict[int, Coeff]:
        return dict(self.neg)

    def pos_dict(self) -> dict[int, Coeff]:
        return dict(self.pos)


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


def _divide_one_minus(p: LaurentSeries, j: int, b: Coeff, window: int) -> LaurentSeries:
    """Divide a valuation-0 series by (1 - b z^j).

    Quotient coefficients satisfy q_m = p_m + b q_{m-j}.  When ``p`` is an
    exact polynomial and the quotient shows j consecutive zero coefficients
    past deg(p), the recurrence forces all later ones to vanish, so the
    quotient is certified exact.  An exact quotient has degree at most
    deg(p) - j when b is not nilpotent, hence no zero divisor, and at most
    deg(p) + (k-1) j when b is nilpotent, as it is then
    p * sum_{m<k} (b z^j)^m over Q[eps]/eps^k.  So an exact p is expanded
    below max(deg(p), window) + k j + 1, with k = 1 unless b is nilpotent.

    The recurrence runs on integer rows.  With p = P / D and b = B / E,
    level L (exponents Lj <= m < (L+1)j) of the quotient is Q_m / (D E^L)
    with Q_m = E^L P_m + B Q_{m-j}, one packed product per level.
    """
    ring = p.ring
    deg = p.rows[-1][0] if p.rows else 0
    reach = ring.order if b.is_nilpotent() else 1
    limit = max(deg, window) + reach * j + 1 if p.exact else p.prec
    bden, brow = b.den, b.payload
    given = dict(p.rows)
    q: list = []
    scale = 1  # E^L
    for start in range(0, limit, j):
        count = min(j, limit - start)
        level = [[v * scale for v in given.get(m, ())] for m in range(start, start + count)]
        below = [(i, q[start - j + i]) for i in range(count) if start and any(q[start - j + i])]
        if below:
            carried = packed_mul([(0, brow)], below, count, ring.order)
            level = [[x + y for x, y in zip_longest(a, c, fillvalue=0)]
                     for a, c in zip(level, carried)]
        q.extend(level)
        scale *= bden
    top = (limit - 1) // j
    prec = limit
    if p.exact:
        # limit - j > deg(p): the last j coefficients lie past deg(p)
        prec = window if any(any(row) for row in q[limit - j:]) else None
        q = q if prec is None else q[:window]
    powers = [bden ** (top - k) for k in range(top + 1)]
    rows = [(m, [v * powers[m // j] for v in row]) for m, row in enumerate(q)]
    return LaurentSeries.from_rows(ring, p.den * bden**top, rows, prec)


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

    # positive part: read off degrees in increasing order
    pos: dict[int, Coeff] = {}
    exact = False
    j = 1
    while True:
        if p.exact and p == LaurentSeries.one(ring):
            exact = True
            break
        limit = window if p.exact else p.prec
        if j >= limit:
            break
        b = -p.coeff(j)
        if not b.is_zero():
            pos[j] = b
            p = _divide_one_minus(p, j, b, window)
        j += 1

    if exact:
        nf_prec = None
    else:
        # Positive-part degrees >= j are missing; through the negative
        # factors they can disturb exponents as low as v + j - sum(i).
        span = sum(neg)
        nf_prec = v + j - span
        if alpha.prec is not None:
            nf_prec = min(alpha.prec, nf_prec)
    return NormalForm(
        ring, unit, v, tuple(sorted(neg.items())), tuple(sorted(pos.items())), nf_prec
    )


def reconstruct(nf: NormalForm, prec: int | None = None) -> LaurentSeries:
    """Expand the factorization back into a series.

    The result is truncated at ``prec`` when given, else at ``nf.prec``
    (exact forms reconstruct exactly).  The negative factors lower
    exponents by at most sum(i), so for a cut at N the unit times the
    positive factors is needed only below N - order + sum(i), and each
    product drops what lies past its own precision.
    """
    ring = nf.ring
    cut = prec if prec is not None else nf.prec
    out = LaurentSeries.constant(ring, nf.unit)
    if cut is not None:
        out = out.truncate(cut - nf.order + sum([i for i, _ in nf.neg]))
    for j, b in nf.pos:
        out = out * LaurentSeries.build(ring, {0: Coeff.one(ring), j: -b})
    for i, a in nf.neg:
        out = out * LaurentSeries.build(ring, {0: Coeff.one(ring), -i: -a})
    return out.shift(nf.order).truncate(cut)


def order_of(alpha: LaurentSeries) -> int:
    """The order v of the factorization; the valuation mod the nilradical."""
    v = alpha.valuation()  # every coefficient below v is nilpotent
    if not alpha.coeff(v).is_unit():
        raise NotInvertible("leading coefficient (mod nilradical) is not a unit")
    return v
