"""Shared pieces of the benchmark: operations, the closed measuring loop,
seeded value generators and latency statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from statistics import quantiles
from time import perf_counter
from typing import Callable


@dataclass
class Op:
    """One timed call into the library and the check of its result.

    ``run`` is the only code inside the timed interval.  ``check`` gets the
    result and returns ``None`` when it is right, else a one-line reason;
    it runs after the measuring loop.  ``probe`` marks an argv from the
    documented edge of the CLI grammar: it is scored against the CLI
    contract and tallied apart from the output checks.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    probe: bool = False


class Defect(str):
    """A check's verdict on a known defect whose answer is still valid
    under the library's promise, only weaker than it should be.  Tallied
    apart from failures, with the reason, so the baseline records it."""


@dataclass
class Sample:
    """One timed call; ``op`` and ``result`` are dropped once checked."""

    label: str
    seconds: float
    op: Op | None = None
    result: object = None
    error: BaseException | None = None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    probes: int = 0
    probe_violations: int = 0
    probe_failures: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)


@dataclass
class Pass:
    """Everything one measuring loop produced."""

    samples: list[Sample] = field(default_factory=list)
    busy_s: float = 0.0
    rotations: int = 0
    verdict: Verdict = field(default_factory=Verdict)
    #: per rotation, ops completed and verified per second of library time;
    #: every probe counts as completed, its contract verdict is tallied apart
    rotation_rates: list[float] = field(default_factory=list)


def measure(make_rotation, seconds: float, recorder=None, between=None) -> Pass:
    """Closed loop, one client: run whole rotations until ``seconds`` of
    library time have been spent.

    ``make_rotation(index)`` builds the inputs of one rotation; it runs
    outside the timed interval.  Whole rotations keep the op mix, and with
    it every percentile, the same from run to run.  Each rotation is checked
    as soon as it ends, also outside the timed interval, and its results are
    dropped with its inputs, so memory does not grow with the number of
    rotations.  A trace ``recorder`` learns the index of the op each span
    belongs to and is paused while the checks run.  ``between(busy_s)``,
    if given, is called after every op, outside the timed interval.
    """
    out = Pass()
    v = out.verdict
    while out.rotations == 0 or out.busy_s < seconds:
        batch = []
        busy_before, done_before = out.busy_s, v.attempted - v.failed + v.probes
        for op in make_rotation(out.rotations):
            if recorder is not None:
                recorder.op_id = len(out.samples) + len(batch)
            t0 = perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # scored by the checks, never fatal
                result, error = None, exc
            dt = perf_counter() - t0
            out.busy_s += dt
            batch.append(Sample(op.label, dt, op, result, error))
            if between is not None:
                between(out.busy_s)
        if recorder is not None:
            recorder.active = False
        score(batch, v)
        if recorder is not None:
            recorder.active = True
        done = v.attempted - v.failed + v.probes - done_before
        out.rotation_rates.append(done / (out.busy_s - busy_before))
        for s in batch:
            s.op = s.result = s.error = None
        out.samples += batch
        out.rotations += 1
    return out


def warm_up(make_rotation, seconds: float) -> tuple[float, int]:
    """Untimed rotations until ``seconds`` have passed; returns (s, ops)."""
    t0 = perf_counter()
    ops = 0
    index = 0
    while index == 0 or perf_counter() - t0 < seconds:
        for op in make_rotation(index):
            try:
                op.run()
            except Exception:  # warm-up results are not scored
                pass
            ops += 1
        index += 1
    return perf_counter() - t0, ops


def score(samples: list[Sample], v: Verdict) -> Verdict:
    """Run every check; an uncaught exception or a mismatch is a failure."""
    for s in samples:
        if s.error is not None:
            reason = f"{type(s.error).__name__}: {s.error}"
        else:
            try:
                reason = s.op.check(s.result)
            except Exception as exc:  # a crashing check is a failed op
                reason = f"check raised {type(exc).__name__}: {exc}"
        if s.op.probe:
            v.probes += 1
            if reason is not None:
                v.probe_violations += 1
                v.probe_failures.append(f"{s.op.label}: {reason}")
        else:
            v.attempted += 1
            if isinstance(reason, Defect):
                v.defects.append(f"{s.op.label}: {reason}")
            elif reason is not None:
                v.failed += 1
                v.failures.append(f"{s.op.label}: {reason}")
    return v


def latency_stats(p: Pass) -> dict:
    """Percentiles interpolated between the two nearest samples (the
    ``inclusive`` method), with the sample count behind each."""
    lat = [s.seconds for s in p.samples]
    n = len(lat)
    cuts = quantiles(lat, n=100, method="inclusive")
    return {
        "samples": n,
        "p50_ms": cuts[49] * 1e3,
        "p90_ms": cuts[89] * 1e3,
        "p99_ms": cuts[98] * 1e3,
        "samples_above_p90": sum(x > cuts[89] for x in lat),
        "samples_above_p99": sum(x > cuts[98] for x in lat),
        # the highest percentile with at least ten samples beyond it
        "highest_supported_quantile": max(0.0, 1 - 10 / n),
    }


def latency_by_label(p: Pass) -> dict[str, list[float]]:
    """Every latency in ms, grouped by op label, in run order."""
    out: dict[str, list[float]] = {}
    for s in p.samples:
        out.setdefault(s.label, []).append(round(s.seconds * 1e3, 3))
    return out


# -- seeded values ------------------------------------------------------------

#: catalog hyperelliptic specs and their ascending h coefficients
CATALOG_HYP = {
    "hyp:h=x^3+1": (1, 0, 0, 1),
    "hyp:h=x^3-x": (0, -1, 0, 1),
    "hyp:h=x^4-1": (-1, 0, 0, 0, 1),
    "hyp:h=x^5-x": (0, -1, 0, 0, 0, 1),
}


def frac(rng, nonzero: bool = False) -> Fraction:
    """Small-height rationals, the same distribution the acceptance
    generators use."""
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if q != 0 or not nonzero:
            return q


def monomials(pairs, symbol: str) -> str:
    """Render (power, rational) pairs, in the order given, as a signed sum
    of monomials in ``symbol``, the way the CLI prints them."""
    parts = []
    for power, q in pairs:
        q = Fraction(q)
        if q == 0:
            continue
        mag = abs(q)
        if power == 0:
            body = str(mag)
        else:
            var = symbol if power == 1 else f"{symbol}^{power}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if q > 0 else f"-{body}")
        else:
            parts.append((" + " if q > 0 else " - ") + body)
    return "".join(parts) if parts else "0"


def fmt_series(terms: dict[int, Fraction], prec: int | None = None) -> str:
    """{exponent: rational} in the CLI series grammar."""
    text = monomials(sorted(terms.items()), "z")
    if prec is None:
        return text
    return f"O(z^{prec})" if text == "0" else f"{text} + O(z^{prec})"


def fmt_poly_x(coeffs) -> str:
    """An ascending coefficient list as a polynomial in x."""
    return monomials(reversed(list(enumerate(coeffs))), "x")
