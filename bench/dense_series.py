"""Workload ``dense_series``: dense truncated series over Q and Q[eps]/eps^3.

Every rotation runs ``*``, ``invert``, ``dlog``, ``sqrt`` (over Q only: a
nilpotent leading coefficient has no rational square root), ``factor`` of
a dense series with a nilpotent tail, and the exact round trip
``factor(reconstruct(nf))`` at n = 96 and n = 256, then ``lift_x`` on an
odd and an even hyperelliptic curve at prec 96 and 256 followed by
``classify_loop`` and the residue of dx/x.  The ring, series and
normal-form layers do nearly all the work; the CLI and parser do none.
"""

from __future__ import annotations

import random
from fractions import Fraction

from curveloops import (
    RATIONAL,
    Coeff,
    ComponentClass,
    LaurentSeries,
    NormalForm,
    classify_loop,
    dlog_x,
    factor,
    lift_x,
    nilpotent_ring,
    reconstruct,
    residue_along,
    sqrt,
)

import oracle
from common import Defect, Op, frac
from oracle import ModSeries, agree

NIL3 = nilpotent_ring(3)
LIFT_PRECS = (96, 256)
WARMUP_SIZE = 24


def _k(ring) -> int:
    return ring.order if ring.kind == "nilpotent" else 1


def _coeff(rng, ring, unit=False) -> Coeff:
    """A small random coefficient; ``unit``: constant part +1 or -1.

    The height of the leading coefficient sets how fast the inverse's and
    the square root's coefficients grow, so a seeded +-1 keeps the cost of
    an op from varying several times over between seeds."""
    c0 = rng.choice((1, -1)) if unit else frac(rng)
    if ring == RATIONAL:
        return Coeff.const(ring, c0)
    return Coeff.nil(ring, [c0] + [frac(rng) for _ in range(ring.order - 1)])


def dense(rng, ring, n, v, nil_tail=False, lead=None) -> LaurentSeries:
    """Every exponent v .. v+n-1 filled, known below v + n."""
    terms = {v: lead if lead is not None else _coeff(rng, ring, unit=True)}
    for e in range(v + 1, v + n):
        terms[e] = _coeff(rng, ring)
    if nil_tail:
        terms[v - 1] = Coeff.nil(ring, [0, frac(rng, nonzero=True), frac(rng)])
        if rng.random() < 0.5:
            terms[v - 2] = Coeff.nil(ring, [0, 0, frac(rng, nonzero=True)])
    return LaurentSeries.build(ring, terms, v + n)


def _nonzero_coeff(rng, ring) -> Coeff:
    while True:
        c = _coeff(rng, ring)
        if not c.is_zero():
            return c


def _exact_normal_form(rng, ring, n) -> NormalForm:
    """Four positive factors spread over degrees below n; over the
    nilpotent ring also up to two negative ones."""
    unit = _coeff(rng, ring, unit=True)
    neg = {}
    if ring != RATIONAL:
        for i in (1, 2):
            if rng.random() < 0.6:
                neg[i] = Coeff.nil(ring, [0, frac(rng, nonzero=True), frac(rng)])
    pos = {j: _nonzero_coeff(rng, ring) for j in rng.sample(range(1, n), 4)}
    return NormalForm(ring, unit, rng.randint(-3, 3), tuple(sorted(neg.items())),
                      tuple(sorted(pos.items())))


def _mod(s) -> ModSeries:
    return ModSeries.from_library(s)


def _parts(nf):
    """A NormalForm as plain (unit, order, neg, pos) for the oracle."""
    return (nf.unit.data, nf.order, [(i, c.data) for i, c in nf.neg],
            [(j, c.data) for j, c in nf.pos])


# -- operations ------------------------------------------------------------------


def op_mul(rng, ring, n) -> Op:
    a = dense(rng, ring, n, rng.randint(-3, 3))
    b = dense(rng, ring, n, rng.randint(-3, 3))

    def check(res):
        want = _mod(a) * _mod(b)
        if res.prec != want.prec:
            return f"product known below {res.prec}, expected {want.prec}"
        return agree(_mod(res), want)

    return Op(f"mul/{ring}/n{n}", lambda: a * b, check)


def op_invert(rng, ring, n) -> Op:
    v = rng.randint(-3, 3)
    a = dense(rng, ring, n, v)

    def check(res):
        if res.prec != a.prec - 2 * v:
            return f"inverse known below {res.prec}, expected {a.prec - 2 * v}"
        prod = _mod(a) * _mod(res)
        if prod.prec < n:
            return "a * a^-1 certifies too few terms"
        return agree(prod, oracle.one(_k(ring)))

    return Op(f"invert/{ring}/n{n}", a.invert, check)


def op_dlog(rng, ring, n) -> Op:
    v = rng.randint(-3, 3)
    a = dense(rng, ring, n, v)

    def check(res):
        # f * (f'/f) = f' on every exponent both sides certify
        lhs = _mod(a) * _mod(res)
        rhs = _mod(a).derivative()
        if min(lhs.prec, rhs.prec) - v < n // 2:
            return "f * dlog f certifies too few terms"
        return agree(lhs, rhs)

    return Op(f"dlog/{ring}/n{n}", a.dlog, check)


def op_sqrt(rng, n) -> Op:
    v = 2 * rng.randint(-2, 2)
    f = dense(rng, RATIONAL, n, v, lead=Coeff.const(RATIONAL, 1))
    branch = rng.choice((1, -1))

    def check(res):
        if res.prec != v // 2 + n:
            return f"root known below {res.prec}, expected {v // 2 + n}"
        if res.coeff(v // 2).as_fraction() != branch:
            return "leading coefficient of the root has the wrong branch"
        return agree(_mod(res) * _mod(res), _mod(f))

    return Op(f"sqrt/rational/n{n}", lambda: sqrt(f, branch=branch), check)


def op_factor(rng, ring, n) -> Op:
    v = rng.randint(-3, 3)
    a = dense(rng, ring, n, v, nil_tail=ring != RATIONAL)

    def check(nf):
        if nf.order != v:
            return f"order {nf.order}, expected {v}"
        if nf.prec is None or nf.prec - v < n // 2:
            return f"normal form known below {nf.prec} only"
        back = oracle.reconstruct_below(_parts(nf), nf.prec, _k(ring))
        return agree(back, _mod(a), below=nf.prec)

    return Op(f"factor/{ring}/n{n}", lambda: factor(a), check)


def op_nf_roundtrip(rng, ring, n) -> Op:
    nf = _exact_normal_form(rng, ring, n)

    def run():
        alpha = reconstruct(nf)
        return alpha, factor(alpha, prec=n)

    def check(res):
        alpha, got = res
        top = nf.order + sum(j for j, _ in nf.pos) + 1
        msg = agree(_mod(alpha), oracle.reconstruct_below(_parts(nf), top, _k(ring)), below=top)
        if msg is not None or alpha.prec is not None:
            return f"reconstruct: {msg or 'result is not exact'}"
        if (got.unit, got.order, got.neg, got.pos) != (nf.unit, nf.order, nf.neg, nf.pos):
            return "factor(reconstruct(nf)) has other factors than nf"
        if got.prec is not None:
            # every factor is right, but exactness is certified only below
            # O(z^prec): seen for about 1 in 150 nilpotent forms
            return Defect(f"factor(reconstruct(nf)) is exact but certified only below O(z^{got.prec})")
        return None

    return Op(f"nf_roundtrip/{ring}/n{n}", run, check)


def _lift_input(rng, curve, arc: bool):
    """(x, branch, expected class, expected residue of dx/x).  Arcs on the
    odd curve pass through x = 2, poles have order 1: the shape is fixed so
    that the op's cost depends on the seed only through coefficients."""
    odd = curve.degree % 2 == 1
    c = rng.choice((1, -1))  # the height of x's leading term drives the cost
    if odd and arc:
        terms = {0: Fraction(2), 1: c}  # h(2) = 9 is a square
        terms.update({e: frac(rng) for e in range(2, 5)})
        return terms, rng.choice((1, -1)), ComponentClass.arc(), 0
    if arc:
        # through the Weierstrass point (1, 0): h(x) = 4 c^2 z^2 + ...
        terms = {0: Fraction(1), 2: c * c}
        terms.update({e: frac(rng) for e in range(3, 6)})
        return terms, rng.choice((1, -1)), ComponentClass.arc(), 0
    low = -2 if odd else -1
    terms = {low: c * c}
    terms.update({e: frac(rng) for e in range(low + 1, low + 4)})
    branch = rng.choice((1, -1))
    if odd:
        return terms, branch, ComponentClass.pole("infinity", 1), low
    label = "infinity+" if branch == 1 else "infinity-"
    return terms, branch, ComponentClass.pole(label, 1), low


def op_lift(rng, curve, prec, arc: bool) -> Op:
    terms, branch, want_cls, want_res = _lift_input(rng, curve, arc)
    x = LaurentSeries.build(RATIONAL, terms)

    def run():
        loop = lift_x(curve, x, branch=branch, prec=prec)
        return loop, classify_loop(loop), residue_along(dlog_x(curve), loop)

    def check(res):
        loop, cls, r = res
        if cls != want_cls:
            return f"class {cls}, expected {want_cls}"
        if r.as_fraction() != want_res:
            return f"dlog residue {r.as_fraction()}, expected {want_res}"
        hx = oracle.h_of_mod(curve.h, _mod(x))
        y = _mod(loop.y)
        lhs = y * y
        if lhs.prec - min(hx.terms) < prec // 2:
            return "y^2 certifies too few terms"
        return agree(lhs, hx)

    kind = "odd" if curve.degree % 2 else "even"
    return Op(f"lift_x/{kind}/prec{prec}/{'arc' if arc else 'pole'}", run, check)


#: (ring, size) groups of one rotation.  Q[eps]/eps^3 at n = 96 comes twice:
#: its ops cost about as much as the median op, and a denser middle keeps
#: latency_p50_ms from jumping between unlike neighbours from run to run.
GROUPS = ((RATIONAL, 96), (NIL3, 96), (NIL3, 96), (RATIONAL, 256), (NIL3, 256))


def rotation(rng, curves, groups=GROUPS, precs=LIFT_PRECS) -> list[Op]:
    """Every operation of each (ring, size) group, then the lifts: at each
    precision an arc on one curve and a pole loop on the other."""
    ops = []
    for ring, n in groups:
        ops += [op_mul(rng, ring, n), op_invert(rng, ring, n), op_dlog(rng, ring, n)]
        if ring == RATIONAL:
            ops.append(op_sqrt(rng, n))
        ops += [op_factor(rng, ring, n), op_nf_roundtrip(rng, ring, n)]
    for i, prec in enumerate(precs):
        odd, even = curves
        ops += [op_lift(rng, odd, prec, arc=i % 2 == 0), op_lift(rng, even, prec, arc=i % 2 == 1)]
    return ops


def make(seed: int, fixed):
    curves = (fixed["odd"], fixed["even"])
    rng = random.Random(f"dense_series:{seed}")
    warm_rng = random.Random(f"dense_series:warmup:{seed}")
    return (
        lambda i: rotation(rng, curves),
        lambda i: rotation(warm_rng, curves, ((RATIONAL, WARMUP_SIZE), (NIL3, WARMUP_SIZE)),
                           (WARMUP_SIZE,)),
    )
