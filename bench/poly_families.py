"""Workload ``poly_families``: one-parameter families of loops over Q[t].

Each op lifts a loop over Q[t] to the curve (hyperelliptic curves only),
classifies every fiber on a grid of t values and checks that the residue
of a fixed form is constant in t.  A rotation visits the affine line, the
punctured line, an odd and an even hyperelliptic curve; most lifts run at
prec 24 and two in eleven at prec 32.  This is the only workload that leans
on the Q[t] coefficient ring: ``sqrt`` over Q[t] inside ``lift_x`` dominates.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

from curveloops import (
    POLY,
    Coeff,
    ComponentClass,
    LaurentSeries,
    Loop,
    MeromorphicForm,
    XYPoly,
    classify_family,
    dlog_x,
    family_residue_constancy,
    lift_x,
    residue_along,
)

import oracle
from common import Op, frac
from oracle import P, ModSeries, agree

#: t values a fiber grid is drawn from
T_POOL = tuple(Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3)) + (Fraction(1, 2), Fraction(-1, 2))

#: One rotation: (curve, lift precision, loop).  The loop is "arc0" (an
#: arc through x = 0), "arc2" (through x = 2 on the odd curve), "arc" (through
#: the Weierstrass point of the even curve) or the pole order at infinity.
#: Precision None marks a curve without a lift.  The loop shapes are fixed
#: per slot, since pole order and base point change an op's cost several
#: times over; the seed only draws coefficients.  The slots fall into cost
#: groups: six cheap arcs and order-2 poles at prec 24 hold the median, and
#: the last four, two of them at prec 32, cost about the same as each other
#: and make up 4 of 13 ops, so p90 falls inside that group rather than on
#: its edge.  A rotation is short enough that a run holds several, and
#: each percentile rests on samples from every one of them.
ROTATION = (
    ("a1", None, None), ("gm", None, None),
    ("odd", 24, "arc0"), ("odd", 24, "arc0"), ("odd", 24, "arc2"), ("odd", 24, "arc2"),
    ("even", 24, 2), ("even", 24, 2), ("even", 24, 1),
    ("odd", 24, 1), ("even", 24, "arc"), ("odd", 32, "arc2"), ("even", 32, 2),
)


def _linear(rng) -> Coeff:
    """p + q t with small rational p and q != 0: every such coefficient
    has t-degree 1, which sets how fast t-degrees grow inside sqrt."""
    return Coeff.poly([frac(rng), frac(rng, nonzero=True)])


def _const(q) -> Coeff:
    return Coeff.const(POLY, q)


def _family_input(rng, name, loop):
    """(x terms, branch, expected class at t, expected dx/x residue, grid)."""
    grid = sorted(rng.sample(T_POOL, 5))
    c = rng.choice((1, -1))  # the height of x's leading term drives the cost
    if name == "a1":
        # x = (a + b t)/z + c z + ...: the pole vanishes exactly at t = root
        root = rng.choice(T_POOL)
        b = frac(rng, nonzero=True)
        terms = {-1: Coeff.poly([-b * root, b]), 1: _const(c)}
        terms.update({e: _linear(rng) for e in (2, 3)})
        return terms, 1, (lambda t: ComponentClass.a1(t != root)), None, grid
    if name == "gm":
        k = rng.randint(-3, 3)
        terms = {k: _const(c)}
        terms.update({e: _linear(rng) for e in range(k + 1, k + 4)})
        cls = (ComponentClass.arc() if k == 0 else
               ComponentClass.pole("0", k) if k > 0 else ComponentClass.pole("infinity", -k))
        return terms, 1, (lambda t: cls), k, grid
    branch = rng.choice((1, -1))
    if loop in ("arc0", "arc2"):
        a0 = int(loop[-1])  # h(0) = 1 and h(2) = 9 are squares
        terms = {0: _const(a0), 1: _const(c)}
        terms.update({e: _linear(rng) for e in range(2, 5)})
        return terms, branch, (lambda t: ComponentClass.arc()), 1 if a0 == 0 else 0, grid
    if loop == "arc":
        # through the Weierstrass point (1, 0) of y^2 = x^4 - 1
        terms = {0: _const(1), 2: _const(c * c)}
        terms.update({e: _linear(rng) for e in range(3, 6)})
        return terms, branch, (lambda t: ComponentClass.arc()), 0, grid
    m = loop
    low = -2 * m if name == "odd" else -m
    terms = {low: _const(c * c)}
    terms.update({e: _linear(rng) for e in range(low + 1, low + 4)})
    label = "infinity" if name == "odd" else ("infinity+" if branch == 1 else "infinity-")
    cls = ComponentClass.pole(label, m)
    return terms, branch, (lambda t: cls), low, grid


def op_family(rng, curves, name, prec, loop) -> Op:
    curve = curves[name]
    terms, branch, want_at, want_res, grid = _family_input(rng, name, loop)
    t0 = rng.randrange(P)  # the check specializes t = t0 mod P
    x = LaurentSeries.build(POLY, terms)
    # dx on the affine line, where x need not be invertible; dx/x elsewhere
    form = (MeromorphicForm.build(curve, XYPoly.const(1), XYPoly.const(1))
            if name == "a1" else dlog_x(curve))

    def run():
        if prec is None:
            loop = Loop(curve, x)
        else:
            loop = lift_x(curve, x, branch=branch, prec=prec)
        return loop, classify_family(loop, grid), family_residue_constancy(form, loop)

    def check(res):
        loop, fam, constant = res
        if not constant:
            return "residue depends on t"
        want = [want_at(t) for t in grid]
        got = [f.component for f in fam.fibers]
        if got != want or any(f.error for f in fam.fibers):
            return f"fiber classes {[str(g) for g in got]}, expected {[str(w) for w in want]}"
        generic = Counter(want).most_common(1)[0][0]
        jumps = tuple(t for t, w in zip(grid, want) if w != generic)
        if fam.jumps != jumps:
            return f"jumps {fam.jumps}, expected {jumps}"
        if want_res is not None and residue_along(form, loop).as_fraction() != want_res:
            return f"dx/x residue is not {want_res}"
        if prec is None:
            return None
        # y^2 = h(x) at the specialization t = t0 mod P
        hx = oracle.h_of_mod(curve.h, ModSeries.from_library(x, t0))
        y = ModSeries.from_library(loop.y, t0)
        lhs = y * y
        if lhs.prec - min(hx.terms) < prec // 2:
            return "y^2 certifies too few terms"
        return agree(lhs, hx)

    return Op(f"family/{name}/prec{prec}/{loop}", run, check)


def rotation(rng, curves, rotation_spec=ROTATION) -> list[Op]:
    return [op_family(rng, curves, name, prec, loop) for name, prec, loop in rotation_spec]


def make(seed: int, fixed):
    rng = random.Random(f"poly_families:{seed}")
    warm_rng = random.Random(f"poly_families:warmup:{seed}")
    # every op shape, at a precision that keeps the warm-up short
    warm_spec = tuple((name, prec and 16, loop) for name, prec, loop in ROTATION)
    return (
        lambda i: rotation(rng, fixed),
        lambda i: rotation(warm_rng, fixed, warm_spec),
    )
