"""Workload ``cli_mix``: seeded argv through ``curveloops.cli.run``.

A rotation is the ``GOLDEN_CLI`` corpus verbatim, five seeded argv for
each of eight subcommand shapes (``factor``, ``classify --branch``,
``classify --y``, ``census``, ``family``, ``residue``, ``thirdkind``,
``covers``) and one probe from each of twelve templates at the documented
edge of the grammar.  Hyperelliptic curves are half drawn from a fixed
catalog and half fresh (monic, squarefree by construction).  Per-call
overhead in the CLI, the parser and ``make_curve`` dominates; the series
layer sees sparse exact inputs with large exponent spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction

from curveloops import cli
from curveloops.acceptance import GOLDEN_CLI

import oracle
from common import CATALOG_HYP, Op, fmt_poly_x, fmt_series, frac, monomials
from oracle import ModSeries, agree

#: roots of fresh h; integers, since curve specs take integer coefficients
ROOT_POOL = tuple(Fraction(v) for v in range(-4, 5))
PLACE_POOL = ROOT_POOL + (Fraction(1, 2), Fraction(-3, 2))
T_POOL = tuple(Fraction(v) for v in range(-3, 4)) + (Fraction(1, 2), Fraction(-2, 3))
COVERS = ((1, 2), (2, 2), (1, 3), (2, 3), (1, 4))
PER_SHAPE = 5


def opt(name: str, value: str) -> list[str]:
    """``--name value``; a value starting with '-' is attached with '=' so
    that argparse does not take it for an option."""
    return [f"--{name}={value}"] if value.startswith("-") else [f"--{name}", value]


def call(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation; argparse usage text on stderr is discarded."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def _class_text(kind, puncture=None, order=None, has_pole=None) -> str:
    if kind == "arc":
        return "class=Arc"
    if kind == "pole":
        return f"class=Pole punct={puncture} order={order}"
    return f"class=A1 connected has_pole={'true' if has_pole else 'false'}"


# -- generated text -----------------------------------------------------------------


def _nil_series_text(terms: dict[int, list[Fraction]], prec=None) -> str:
    """A series over Q[eps]/eps^k, one parenthesised coefficient per power."""
    parts = []
    for e in sorted(terms):
        body = monomials(enumerate(terms[e]), "eps")
        if body == "0":
            continue
        z = "" if e == 0 else ("z" if e == 1 else f"z^{e}")
        parts.append(f"({body})*{z}" if z else f"({body})")
    if prec is not None:
        parts.append(f"O(z^{prec})")
    return " + ".join(parts) if parts else "0"


def _fresh_h(rng, degree: int) -> list[Fraction]:
    return oracle.poly_from_roots(rng.sample(ROOT_POOL, degree))


def _hyp(rng, fresh: bool):
    """(spec, h) for a hyperelliptic curve from the catalog, or a fresh one
    of degree 3, 4 or 5."""
    if not fresh:
        spec = rng.choice(sorted(CATALOG_HYP))
        return spec, [Fraction(c) for c in CATALOG_HYP[spec]]
    h = _fresh_h(rng, rng.choice((3, 4, 5)))
    return "hyp:h=" + fmt_poly_x(h), h


def _pole_x(rng, h, m: int):
    """A pole loop x of order m on y^2 = h(x): (x terms, dx/x residue)."""
    d = len(h) - 1
    low = -2 * m if d % 2 else -m
    c = frac(rng, nonzero=True)
    terms = {low: c * c}
    terms.update({e: frac(rng) for e in range(low + 1, low + 3)})
    return terms, low


def _pole_class(h, m, branch) -> str:
    if (len(h) - 1) % 2:
        return _class_text("pole", "infinity", m)
    return _class_text("pole", "infinity+" if branch > 0 else "infinity-", m)


def _exact(argv, code, text) -> Op:
    def check(res):
        got_code, got = res
        if got_code != code:
            return f"exit {got_code}, expected {code}: {got.strip()!r}"
        if text is not None and got != text:
            return f"output {got!r}, expected {text!r}"
        return None

    return Op(argv[0], lambda: call(argv), check)


# -- reading a printed normal form back -------------------------------------------


def parse_coeff(text: str, k: int) -> list[Fraction]:
    """Inverse of the CLI's coefficient format, e.g. ``2 - 3/2*eps^2``."""
    vec = [Fraction(0)] * k
    pieces = re.split(r" ([+-]) ", text.strip())
    for sign, mono in zip(["+"] + pieces[1::2], pieces[0::2]):
        negative = sign == "-"
        if mono.startswith("-"):
            negative, mono = not negative, mono[1:]
        m = re.fullmatch(r"(\d+(?:/\d+)?)?\*?(eps(?:\^(\d+))?)?", mono)
        if m is None or not mono:
            raise ValueError(f"bad coefficient {text!r}")
        q = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        power = (int(m.group(3) or 1)) if m.group(2) else 0
        vec[power] += -q if negative else q
    return vec


def _parse_nf(text: str, k: int):
    m = re.fullmatch(
        r"unit=(.+?) order=(-?\d+) neg=\{(.*?)\} pos=\{(.*?)\}(?: \(mod O\(z\^(-?\d+)\)\))?\n",
        text,
    )
    if m is None:
        raise ValueError(f"not a normal form: {text!r}")

    def entries(body):
        out = []
        for item in filter(None, body.split(", ")):
            deg, coeff = item.split(": ", 1)
            out.append((int(deg), parse_coeff(coeff, k)))
        return out

    return (parse_coeff(m.group(1), k), int(m.group(2)), entries(m.group(3)),
            entries(m.group(4)), int(m.group(5)) if m.group(5) else None)


# -- the eight shapes ----------------------------------------------------------------
#
# Each shape is called for slots i = 0 .. PER_SHAPE - 1 of a rotation.  The
# variant (ring, curve kind, pole order, catalog or fresh curve) is fixed
# per slot, so every rotation has the same mix; the seed draws the rest.


def shape_factor(rng, i: int) -> Op:
    k = i + 1  # rational, then nilpotent:2 .. nilpotent:5
    if k == 1:
        ring_flag = rng.choice(([], ["--ring", "rational"]))
    else:
        ring_flag = ["--ring", f"nilpotent:{k}"]
    v = rng.randint(-4, 4)

    def vec(unit=False):
        out = [frac(rng, nonzero=unit)] + [frac(rng) for _ in range(k - 1)]
        return out if k > 1 else out[:1]

    prec = None
    if i in (0, 3):  # sparse and exact, with a large exponent span
        span = rng.randint(50, 200)
        terms = {v: vec(True), v + span: vec(True)}
    elif i == 1:  # short exact polynomial
        terms = {e: vec(e == v) for e in range(v, v + 6)}
    else:  # known below an O(z^N) tail, with a nilpotent dip when k > 1
        terms = {e: vec(e == v) for e in range(v, v + 6)}
        if k > 1:
            terms[v - 1] = [Fraction(0), frac(rng, nonzero=True)] + [Fraction(0)] * (k - 2)
        # peeling the negative part costs up to about 4k exponents of
        # precision; below that the true answer is an error, not a form
        prec = v + 8 + 4 * k
    text = (_nil_series_text(terms, prec) if k > 1
            else fmt_series({e: c[0] for e, c in terms.items()}, prec))
    argv = ["factor"] + ring_flag + ["--", text]
    alpha = ModSeries(k, {e: tuple(oracle.qmod(q) for q in c) for e, c in terms.items()}, prec)

    def check(res):
        code, out = res
        if code != 0:
            return f"exit {code}: {out.strip()!r}"
        nf = _parse_nf(out, k)
        if nf[1] != v:
            return f"order {nf[1]}, expected {v}"
        bound = nf[4]
        if bound is None:  # exact: compare every coefficient of both sides
            bound = max(max(terms), v + sum(j for j, _ in nf[3])) + 1
        elif prec is not None and bound > prec:
            return f"normal form claims O(z^{bound}) beyond the input's O(z^{prec})"
        return agree(oracle.reconstruct_below(nf[:4], bound, k), alpha, below=bound)

    return Op("factor", lambda: call(argv), check)


def shape_classify_branch(rng, i: int) -> Op:
    if i == 0:
        x = {e: frac(rng) for e in range(rng.randint(-2, 1), 3)}
        want = _class_text("a1", has_pole=any(e < 0 and c for e, c in x.items()))
        argv = ["classify", "--curve", "a1", *opt("x", fmt_series(x))]
    elif i == 1:
        # covered loops on the punctured line: x = c z^(s a) + d z^(s b)
        s = rng.randint(10, 50)
        a = rng.choice((-2, -1, 1, 2))
        x = {s * a: frac(rng, nonzero=True), s * a + s * rng.randint(1, 3): frac(rng, nonzero=True)}
        want = (_class_text("pole", "0", s * a) if a > 0
                else _class_text("pole", "infinity", -s * a))
        argv = ["classify", "--curve", "gm", *opt("x", fmt_series(x))]
    else:
        branch = rng.choice((1, -1))
        if i == 4:  # an arc through x = 0 or x = 2, where h = x^3 + 1 is a square
            spec, h = "hyp:h=x^3+1", [Fraction(c) for c in CATALOG_HYP["hyp:h=x^3+1"]]
            x = {0: Fraction(rng.choice((0, 2))), 1: frac(rng, nonzero=True), 2: frac(rng)}
            want = _class_text("arc")
        else:
            spec, h = _hyp(rng, fresh=i == 3)
            m = i - 1
            x, _ = _pole_x(rng, h, m)
            want = _pole_class(h, m, branch)
        argv = ["classify", "--curve", spec, *opt("x", fmt_series(x)),
                "--branch", "+" if branch > 0 else "-"]
    return _exact(argv, 0, want + "\n")


def shape_classify_y(rng, i: int) -> Op:
    spec, h = _hyp(rng, fresh=i % 2 == 1)
    m = 1 + i % 2
    x, _ = _pole_x(rng, h, m)
    branch = rng.choice((1, -1))
    hx = oracle.h_of(h, x)
    vy = min(hx) // 2
    # y^2 - h(x) is certified below 2 vy + rel, which must be positive
    rel = -2 * vy + 6
    y = oracle.sqrt_terms(hx, rel, branch)
    argv = ["classify", "--curve", spec, *opt("x", fmt_series(x)), *opt("y", fmt_series(y, vy + rel))]
    return _exact(argv, 0, _pole_class(h, m, branch) + "\n")


def shape_census(rng, i: int) -> Op:
    if i == 0:
        spec, labels = rng.choice((("a1", None), ("gm", ["0", "infinity"])))
    else:
        spec, h = _hyp(rng, fresh=i % 2 == 1)
        labels = ["infinity"] if (len(h) - 1) % 2 else ["infinity+", "infinity-"]
    if labels is None:
        count, lines = 1, ["all loops"]
    else:
        count, lines = 1 + len(labels), ["arc"] + [f"puncture {p}" for p in labels]
    if i == 2:
        argv = ["census", "--curve", spec, "--json"]
        want = {"classes": count, "list": lines}

        def check(res):
            code, out = res
            if code != 0 or json.loads(out) != want:
                return f"exit {code}, output {out!r}"
            return None

        return Op("census", lambda: call(argv), check)
    return _exact(["census", "--curve", spec], 0, "\n".join([f"classes={count}"] + lines) + "\n")


def _poly_text(p: Fraction, q: Fraction) -> str:
    return "(" + monomials(enumerate([p, q]), "t") + ")"


def shape_family(rng, i: int) -> Op:
    grid = rng.sample(T_POOL, 3 + 2 * (i % 2))
    if i < 3:
        # x = c z + (a + b t)/z: the pole vanishes at t = root only
        root = rng.choice(T_POOL)
        b = frac(rng, nonzero=True)
        c = frac(rng, nonzero=True)
        x = f"{c}*z + {_poly_text(-b * root, b)}*z^-1"
        lines = [f"t={t} {_class_text('a1', has_pole=t != root)}" for t in grid]
        jumps = str(root) if root in grid else "none"
        curve = "a1"
    else:
        k = rng.choice((-2, -1, 0, 1, 2))
        c = frac(rng, nonzero=True)
        x = f"{c}*z^{k} + {_poly_text(frac(rng), frac(rng, nonzero=True))}*z^{k + 1}"
        cls = (_class_text("arc") if k == 0 else _class_text("pole", "0", k) if k > 0
               else _class_text("pole", "infinity", -k))
        lines = [f"t={t} {cls}" for t in grid]
        jumps = "none"
        curve = "gm"
    argv = ["family", "--curve", curve, *opt("x", x), *opt("t", ",".join(str(t) for t in grid))]
    return _exact(argv, 0, "\n".join(lines + [f"jumps={jumps}"]) + "\n")


def shape_residue(rng, i: int) -> Op:
    if i < 2:
        k = rng.randint(-4, 4)
        x = {k: frac(rng, nonzero=True)}
        x.update({e: frac(rng) for e in range(k + 1, k + 4)})
        form, want = rng.choice((("1/x", k), ("x^2", 0)))
        argv = ["residue", "--curve", "gm", *opt("x", fmt_series(x)), "--form", form]
    else:
        spec, h = _hyp(rng, fresh=i == 3)
        branch = rng.choice((1, -1))
        x, low = _pole_x(rng, h, 1 + i % 2)
        form, want = rng.choice((("1/x", low), ("x^2", 0), ("1/(2*y)", 0)))
        argv = ["residue", "--curve", spec, *opt("x", fmt_series(x)),
                "--branch", "+" if branch > 0 else "-", "--form", form]
    return _exact(argv, 0, f"residue={want}\n")


_ODD_POINTS = ("(0,1)", "(0,-1)", "(2,3)", "(2,-3)")


def _place_label(text: str) -> str:
    if text.startswith("("):
        a, b = (Fraction(v) for v in text[1:-1].split(","))
        return f"({a}, {b})"
    return text


def shape_thirdkind(rng, i: int) -> Op:
    if i < 2:
        pool = ["0", "infinity"] + [str(q) for q in PLACE_POOL if q != 0]
        p, q = rng.sample(pool, 2)
        spec = "gm"
    elif i < 4:  # two rational points of y^2 = x^3 + 1
        spec = "hyp:h=x^3+1"
        p, q = rng.sample(_ODD_POINTS, 2)
    else:  # the two points at infinity of a fresh quartic
        spec = "hyp:h=" + fmt_poly_x(_fresh_h(rng, 4))
        p, q = rng.sample(("infinity+", "infinity-"), 2)
    argv = ["thirdkind", "--curve", spec, *opt("p", p), *opt("q", q)]
    want = [f"res[{_place_label(p)}]=1", f"res[{_place_label(q)}]=-1"]

    def check(res):
        code, out = res
        lines = out.splitlines()
        if code != 0 or len(lines) != 3 or not lines[0].startswith("form=") or lines[1:] != want:
            return f"exit {code}, output {out!r}"
        return None

    return Op("thirdkind", lambda: call(argv), check)


def shape_covers(rng, i: int) -> Op:
    genus, n = COVERS[i]
    surface, free = oracle.hom_counts(genus, n)
    lines = [f"free={free}", f"surface={surface}"]
    if n == 3:
        names = " ".join(
            f"alpha{i + 1}={'(1 2)' if i == 0 else 'id'} beta{i + 1}={'(1 2 3)' if i == 0 else 'id'}"
            for i in range(genus)
        )
        lines += [f"witness {names}", "relation=(1 2 3)"]
    argv = ["covers", "--genus", str(genus), "--symmetric", str(n)]
    return _exact(argv, 0, "\n".join(lines) + "\n")


SHAPES = (
    shape_factor, shape_classify_branch, shape_classify_y, shape_census,
    shape_family, shape_residue, shape_thirdkind, shape_covers,
)


# -- probes at the edge of the grammar ----------------------------------------------


def _probe(argv, off_curve=False) -> Op:
    """Scored against the CLI contract only: exit code 0, 1 or 2, no
    traceback, and no answer about a loop that is off the curve."""

    def check(res):
        code, out = res
        if code not in (0, 1, 2):
            return f"exit code {code}"
        if off_curve and code == 0:
            return f"answered for a loop off the curve: {out.strip()!r}"
        return None

    return Op(f"probe/{argv[0]}", lambda: call(argv), check, probe=True)


def _small_series(rng) -> str:
    """Three terms with a positive leading coefficient, so that argparse
    reads the text as a positional argument."""
    v = rng.randint(-2, 2)
    terms = {e: frac(rng) for e in range(v + 1, v + 3)}
    terms[v] = abs(frac(rng, nonzero=True))
    return fmt_series(terms)


def probes(rng) -> list[Op]:
    a = rng.randint(1, 5)
    y = rng.choice((4, 5, 7))  # y^2 never equals x^3 + 1 at x = 0
    return [
        _probe(["factor", _small_series(rng), "--ring", "nilpotent:1"]),
        _probe(["factor", _small_series(rng), "--ring", rng.choice(("nilpotent:x", "nilpotent:", "nilpotent:2.5"))]),
        _probe(["covers", "--genus", "0", "--symmetric", str(rng.randint(2, 4))]),
        _probe(["family", "--curve", "gm", "--x", "z", "--t", rng.choice((f"{a}/0", f"1,{a}/0"))]),
        _probe(["residue", "--curve", "hyp:h=x^3+1", "--x", f"{a}*z", "--y", str(y), "--form",
                rng.choice(("1/y", "1/x", "x"))], off_curve=True),
        _probe(["factor", f"{a}*eps*z^-1 + 1 + O(z^1)"]),
        _probe(["factor", "--prec", "0", f"1 - {a}*z"]),
        _probe(["factor", "--prec", str(-a), f"1 - {a}*z"]),
        _probe(["factor", rng.choice(("z +", "2**z", "z^", f"{a}*w", "(1 + z", "O(z^2) + z"))]),
        _probe(["classify", "--curve", rng.choice(("hyp:h=x^2+1", "hyp:h=2*x^3+1", "hyp:h=x^3",
                                                  "hyp:h=x^3-3*x+2")), "--x", "z^-2"]),
        _probe(["thirdkind", "--curve", "gm", "--p", rng.choice(("infinity", str(a))),
                "--q", rng.choice(("infinity", str(a)))]),
        _probe(rng.choice((["classify", "--curve", "gm"], ["covers", "--genus", "x", "--symmetric", "3"],
                           ["census"], ["bogus"]))),
    ]


def rotation(rng, index: int) -> list[Op]:
    ops = [_exact(list(argv), code, text) for argv, code, text in GOLDEN_CLI]
    for i in range(PER_SHAPE):
        ops += [shape(rng, i) for shape in SHAPES]
    return ops + probes(rng)


def make(seed: int, fixed):
    rng = random.Random(f"cli_mix:{seed}")
    warm_rng = random.Random(f"cli_mix:warmup:{seed}")
    return (lambda i: rotation(rng, i), lambda i: rotation(warm_rng, i))
