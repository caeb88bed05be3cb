"""The layer table of the traced run: one seeded operand per cell.

Cells are the kernels the roadmap names: coefficient multiply per ring,
series multiply/invert/sqrt and ``factor`` at n = 24, 96, 256, ``lift_x``
over Q and Q[t] at prec 24 and 32, and ``third_kind``; plus the wall time
of every acceptance criterion and of ``selftest`` through the CLI.  A cell
that cannot run, or would take minutes, stays in the table as not run,
with the reason.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

from curveloops import (
    POLY,
    RATIONAL,
    Coeff,
    LaurentSeries,
    acceptance,
    cli,
    factor,
    lift_x,
    make_curve,
    sqrt,
    third_kind,
)

from common import frac
from dense_series import NIL3, dense

SIZES = (24, 96, 256)
RINGS = {"rational": RATIONAL, "nilpotent": NIL3, "poly": POLY}

#: cells left out, with the reason recorded in the run record
NOT_RUN = {
    **{f"series.sqrt.nilpotent.n{n}_ms": "sqrt needs a plain rational leading "
       "coefficient; a nilpotent one raises NoRationalSquareRoot" for n in SIZES},
    "series.invert.poly.n96_ms": "about 9 s at n = 96 on the initial code",
    "series.invert.poly.n256_ms": "grows past n = 96, which took about 9 s",
    "series.sqrt.poly.n96_ms": "about 200 s at n = 96 on the initial code",
    "series.sqrt.poly.n256_ms": "grows past n = 96, which took about 200 s",
}


def _timed_ms(fn, budget_s: float = 0.2, reps: int = 5) -> float:
    """Median of up to ``reps`` calls, stopping once ``budget_s`` is spent."""
    times = []
    spent = 0.0
    while len(times) < reps and (not times or spent < budget_s):
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
    return median(times) * 1e3


def _polydense(rng, n, v=0, lead=None) -> LaurentSeries:
    terms = {v: lead or Coeff.const(POLY, frac(rng, nonzero=True))}
    for e in range(v + 1, v + n):
        terms[e] = Coeff.poly([frac(rng), frac(rng)])
    return LaurentSeries.build(POLY, terms, v + n)


def _operand(rng, ring_name, n, square=False) -> LaurentSeries:
    """A dense operand known below z^n; ``square``: its leading
    coefficient is the square of a rational."""
    ring = RINGS[ring_name]
    c = frac(rng, nonzero=True)
    lead = Coeff.const(ring, c * c) if square else None
    if ring_name == "poly":
        return _polydense(rng, n, lead=lead)
    return dense(rng, ring, n, 0, lead=lead)


def _coeff_mul_us(rng) -> dict[str, float]:
    operands = {
        "rational": [Coeff.const(RATIONAL, frac(rng, nonzero=True)) for _ in range(2)],
        "nilpotent": [Coeff.nil(NIL3, [frac(rng) for _ in range(3)]) for _ in range(2)],
        "poly": [Coeff.poly([frac(rng) for _ in range(4)]) for _ in range(2)],
    }
    out = {}
    for name, (a, b) in operands.items():
        batches = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(2000):
                a * b
            batches.append((perf_counter() - t0) / 2000)
        out[f"ring.mul.{name}.us"] = median(batches) * 1e6
    return out


def layer_table(seed: int) -> tuple[dict[str, float], dict[str, str]]:
    """(metric -> value, not-run cell -> reason)."""
    rng = random.Random(f"kernels:{seed}")
    gm, odd = make_curve("gm"), make_curve("hyp", (1, 0, 0, 1))
    cells = _coeff_mul_us(rng)
    for ring_name in RINGS:
        for n in SIZES:
            a, b = _operand(rng, ring_name, n), _operand(rng, ring_name, n)
            square = _operand(rng, ring_name, n, square=True)
            for op, fn in (("mul", lambda: a * b), ("invert", a.invert), ("sqrt", lambda: sqrt(square))):
                name = f"series.{op}.{ring_name}.n{n}_ms"
                if name not in NOT_RUN:
                    cells[name] = _timed_ms(fn)
    for ring_name, label in (("rational", "rational"), ("nilpotent", "nilpotent3")):
        for n in SIZES:
            alpha = dense(rng, RINGS[ring_name], n, 0, nil_tail=ring_name == "nilpotent")
            cells[f"normal_form.factor.{label}.n{n}_ms"] = _timed_ms(lambda: factor(alpha))
    for ring, label in ((RATIONAL, "rational"), (POLY, "poly")):
        c = frac(rng, nonzero=True)
        terms = {-2: Coeff.const(ring, c * c)}
        for e in (-1, 0, 1):
            terms[e] = Coeff.const(ring, frac(rng)) if ring == RATIONAL else Coeff.poly([frac(rng), frac(rng)])
        x = LaurentSeries.build(ring, terms)
        for prec in (24, 32):
            cells[f"curves.lift_x.{label}.prec{prec}_ms"] = _timed_ms(lambda: lift_x(odd, x, prec=prec))
    cells["forms.third_kind.gm_ms"] = _timed_ms(lambda: third_kind(gm, (1,), "infinity"))
    cells["forms.third_kind.hyp_ms"] = _timed_ms(lambda: third_kind(odd, (0, 1), (2, 3)))
    return cells, dict(NOT_RUN)


def acceptance_times() -> tuple[dict[str, float], list[str]]:
    """Seconds per registry criterion and for ``selftest`` through the CLI,
    in one pass: the criteria are timed where ``run_all`` calls them."""
    times = {}

    def timed(name, fn):
        def run():
            t0 = perf_counter()
            try:
                fn()
            finally:
                times[f"acceptance.{name}.s"] = perf_counter() - t0
        return run

    original = acceptance.CRITERIA
    acceptance.CRITERIA = tuple((name, timed(name, fn)) for name, fn in original)
    try:
        t0 = perf_counter()
        code, text = cli.run(["selftest"])
        times["acceptance.selftest.s"] = perf_counter() - t0
    finally:
        acceptance.CRITERIA = original
    failures = [line for line in text.splitlines() if not line.startswith("ok ")]
    if code != 0 and not failures:
        failures.append(f"selftest exit code {code}")
    return times, failures
