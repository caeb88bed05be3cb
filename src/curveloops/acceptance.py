"""Self-test suite: the package's headline guarantees as executable checks.

Each criterion is a function that raises ``AssertionError`` (or any other
exception) on failure.  ``run_all`` drives them; the CLI ``selftest``
subcommand and the test suite both consume the same registry.  All
randomness is seeded, so a given release either always passes or always
fails.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import covers as _covers
from .components import classify_family, pi0_census, quotient_class
from .curves import (
    ComponentClass,
    Loop,
    classify_loop,
    cover_loop,
    lift_x,
    make_curve,
    point_loop,
    puncture_loop,
)
from .forms import (
    MeromorphicForm,
    dlog_x,
    exact_rank,
    family_residue_constancy,
    pullback,
    residue_along,
    residue_sum,
    third_kind,
)
from .normal_form import NormalForm, factor, order_of, reconstruct
from .parser import format_series, parse_series, parse_xy_rational
from .ring import POLY, RATIONAL, Coeff, nilpotent_ring
from .series import LaurentSeries

SEED = 1783


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


# -- random generators ---------------------------------------------------------


def _frac(rng, nonzero=False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if q != 0 or not nonzero:
            return q


def _random_invertible(rng, ring, nilpotent_tail=False, exact=False) -> LaurentSeries:
    """Invertible series: unit leading coefficient, optional nilpotent dip."""
    v = rng.randint(-4, 4)
    terms: dict[int, Coeff] = {}
    if ring == RATIONAL:
        terms[v] = Coeff.const(ring, _frac(rng, nonzero=True))
    else:
        k = ring.order
        terms[v] = Coeff.nil(ring, [_frac(rng, nonzero=True)] + [_frac(rng) for _ in range(k - 1)])
        if nilpotent_tail:
            # coefficients below the order, in the nilradical
            terms[v - 1] = Coeff.nil(ring, [0, _frac(rng, nonzero=True)] + [_frac(rng)] * (k - 2))
            if rng.random() < 0.5:
                terms[v - 2] = Coeff.nil(ring, [0, 0] + [_frac(rng, nonzero=True)] * (k - 2))
    for e in range(v + 1, v + 7):
        if rng.random() < 0.7:
            if ring == RATIONAL:
                terms[e] = Coeff.const(ring, _frac(rng))
            else:
                terms[e] = Coeff.nil(ring, [_frac(rng) for _ in range(ring.order)])
    prec = None if exact or rng.random() < 0.5 else v + 7
    return LaurentSeries.build(ring, terms, prec)


def _random_normal_form(rng, ring) -> NormalForm:
    k = ring.order
    unit = Coeff.nil(ring, [_frac(rng, nonzero=True)] + [_frac(rng) for _ in range(k - 1)])
    order = rng.randint(-3, 3)
    neg = {}
    for i in (1, 2):
        if rng.random() < 0.6:
            c = Coeff.nil(ring, [0, _frac(rng, nonzero=True)] + [_frac(rng)] * (k - 2))
            neg[i] = c
    pos = {}
    for j in range(1, 5):
        if rng.random() < 0.5:
            c = Coeff.nil(ring, [_frac(rng) for _ in range(k)])
            if not c.is_zero():
                pos[j] = c
    return NormalForm(ring, unit, order, tuple(sorted(neg.items())), tuple(sorted(pos.items())))


def _gm_loop(rng, curve, order: int) -> Loop:
    """A loop on the punctured line with x of valuation ``order``."""
    terms = {order: _frac(rng, nonzero=True)}
    for e in range(order + 1, order + 5):
        terms[e] = _frac(rng)
    return Loop(curve, LaurentSeries.build(RATIONAL, terms))


def _hyp_odd_pole(rng, curve, n: int) -> Loop:
    c = _frac(rng, nonzero=True)
    terms = {-2 * n: c * c}
    for e in range(-2 * n + 1, -2 * n + 4):
        terms[e] = _frac(rng)
    return lift_x(curve, LaurentSeries.build(RATIONAL, terms))


def _hyp_odd_arc(rng, curve) -> Loop:
    # base at x = 0 or x = 2, both with square h-value (1 and 9)
    a = rng.choice([0, 2])
    terms = {0: Fraction(a)}
    for e in range(1, 5):
        terms[e] = _frac(rng)
    return lift_x(curve, LaurentSeries.build(RATIONAL, terms), branch=rng.choice([1, -1]))


def _hyp_even_pole(rng, curve, n: int, branch: int) -> Loop:
    c = _frac(rng, nonzero=True)
    terms = {-n: c * c}
    for e in range(-n + 1, -n + 4):
        terms[e] = _frac(rng)
    return lift_x(curve, LaurentSeries.build(RATIONAL, terms), branch=branch)


def _hyp_even_arc(rng, curve) -> Loop:
    # through the Weierstrass point (1, 0): h(x) = 4w + ... with w of
    # valuation 2 and square leading coefficient
    c = _frac(rng, nonzero=True)
    terms = {0: Fraction(1), 2: c * c}
    for e in range(3, 6):
        terms[e] = _frac(rng)
    return lift_x(curve, LaurentSeries.build(RATIONAL, terms), branch=rng.choice([1, -1]))


# -- criteria -------------------------------------------------------------------


def check_gm_integer_census() -> None:
    """Monomial loops realize the integer grading; quotient census is 3."""
    gm = make_curve("gm")
    for k in range(-5, 6):
        cls = classify_loop(Loop(gm, LaurentSeries.monomial(RATIONAL, k)))
        if k == 0:
            _check(cls == ComponentClass.arc(), f"z^0 must be an arc, got {cls}")
        elif k > 0:
            _check(cls == ComponentClass.pole("0", k), f"z^{k}: got {cls}")
        else:
            _check(cls == ComponentClass.pole("infinity", -k), f"z^{k}: got {cls}")
    _check(pi0_census(gm) == 3, "quotient census of the punctured line must be 3")


def check_normal_form_roundtrip() -> None:
    """reconstruct after factors is the identity (up to stated precision),
    and factor after reconstruct recovers exact normal forms on the nose."""
    rng = random.Random(SEED + 2)
    nil = nilpotent_ring(3)
    cases = [_random_invertible(rng, RATIONAL) for _ in range(100)]
    cases += [_random_invertible(rng, nil, nilpotent_tail=True) for _ in range(100)]
    for alpha in cases:
        nf = factor(alpha)
        back = reconstruct(nf)
        want = alpha.truncate(nf.prec)
        _check(back == want, f"roundtrip failed for {format_series(alpha)}")
    for _ in range(60):
        nf = _random_normal_form(rng, nil)
        _check(factor(reconstruct(nf)) == nf, f"exact normal form not recovered: {nf}")


def check_order_and_covering() -> None:
    """order(ab) = order(a) + order(b); coverings multiply pole orders."""
    rng = random.Random(SEED + 3)
    for ring in (RATIONAL, nilpotent_ring(3)):
        for _ in range(100):
            a = _random_invertible(rng, ring, nilpotent_tail=ring != RATIONAL, exact=True)
            b = _random_invertible(rng, ring, nilpotent_tail=ring != RATIONAL, exact=True)
            _check(
                order_of(a * b) == order_of(a) + order_of(b),
                f"order not additive on {format_series(a)}, {format_series(b)}",
            )

    gm = make_curve("gm")
    hyp3 = make_curve("hyp", (1, 0, 0, 1))
    hyp4 = make_curve("hyp", (-1, 0, 0, 0, 1))
    base = [
        puncture_loop(gm, "0"),
        puncture_loop(gm, "infinity"),
        _gm_loop(rng, gm, 2),
        _gm_loop(rng, gm, 0),
        puncture_loop(hyp3, "infinity"),
        _hyp_odd_pole(rng, hyp3, 2),
        _hyp_odd_arc(rng, hyp3),
        puncture_loop(hyp4, "infinity+"),
        puncture_loop(hyp4, "infinity-"),
        _hyp_even_arc(rng, hyp4),
    ]
    for loop in base:
        cls = classify_loop(loop)
        for n in range(1, 6):
            covered = classify_loop(cover_loop(loop, n))
            if cls.kind == "arc":
                _check(covered == cls, "coverings must preserve arcs")
            else:
                want = ComponentClass.pole(cls.puncture, n * cls.pole_order)
                _check(covered == want, f"cover by {n} gave {covered}, wanted {want}")


def check_census() -> None:
    """1 + #punctures components up to covering, realized by random loops."""
    rng = random.Random(SEED + 4)
    a1 = make_curve("a1")
    gm = make_curve("gm")
    hyp3 = make_curve("hyp", (1, 0, 0, 1))
    hyp4 = make_curve("hyp", (-1, 0, 0, 0, 1))
    _check(pi0_census(a1) == 1, "affine line census")
    _check(pi0_census(gm) == 3, "punctured line census")
    _check(pi0_census(hyp3) == 2, "odd hyperelliptic census")
    _check(pi0_census(hyp4) == 3, "even hyperelliptic census")

    for _ in range(50):
        x = LaurentSeries.build(
            RATIONAL, {e: _frac(rng) for e in range(rng.randint(-2, 0), 4)}
        )
        cls = classify_loop(Loop(a1, x))
        _check(cls.kind == "a1", "affine-line loops form one class")

    def seen(loops):
        out = set()
        for loop in loops:
            out.add(quotient_class(classify_loop(loop)))
        return out

    gm_loops = (
        [_gm_loop(rng, gm, 0) for _ in range(50)]
        + [_gm_loop(rng, gm, rng.randint(1, 4)) for _ in range(50)]
        + [_gm_loop(rng, gm, -rng.randint(1, 4)) for _ in range(50)]
    )
    _check(
        {str(c) for c in seen(gm_loops)} == {"arc", "puncture 0", "puncture infinity"},
        "punctured-line quotient classes",
    )
    hyp3_loops = [_hyp_odd_arc(rng, hyp3) for _ in range(50)] + [
        _hyp_odd_pole(rng, hyp3, rng.randint(1, 3)) for _ in range(50)
    ]
    _check(
        {str(c) for c in seen(hyp3_loops)} == {"arc", "puncture infinity"},
        "odd hyperelliptic quotient classes",
    )
    hyp4_loops = (
        [_hyp_even_arc(rng, hyp4) for _ in range(50)]
        + [_hyp_even_pole(rng, hyp4, rng.randint(1, 3), 1) for _ in range(50)]
        + [_hyp_even_pole(rng, hyp4, rng.randint(1, 3), -1) for _ in range(50)]
    )
    _check(
        {str(c) for c in seen(hyp4_loops)}
        == {"arc", "puncture infinity+", "puncture infinity-"},
        "even hyperelliptic quotient classes",
    )


def check_families() -> None:
    """The z + t/z family jumps at t = 0; polynomial families never jump and
    have t-independent residues."""
    rng = random.Random(SEED + 5)
    a1 = make_curve("a1")
    x = LaurentSeries.build(POLY, {1: 1, -1: Coeff.t()})
    result = classify_family(Loop(a1, x), (0, 1, 2))
    got = {str(f.t): f.component for f in result.fibers}
    _check(got["0"] == ComponentClass.a1(False), "t=0 fiber must be holomorphic")
    _check(got["1"] == ComponentClass.a1(True), "t=1 fiber must have a pole")
    _check(got["2"] == ComponentClass.a1(True), "t=2 fiber must have a pole")
    _check(result.jumps == (Fraction(0),), f"jump set {result.jumps}, wanted (0,)")

    ts = tuple(Fraction(v) for v in (-1, 0, 1, 2, 3))
    gm = make_curve("gm")
    hyp3 = make_curve("hyp", (1, 0, 0, 1))

    def expect_stable(loop, form):
        result = classify_family(loop, ts)
        _check(result.jumps == (), f"unexpected jumps {result.jumps}")
        _check(all(f.error is None for f in result.fibers), "fiber errors")
        _check(family_residue_constancy(form, loop), "residue depends on t")

    for _ in range(10):
        n = rng.randint(-3, 3)
        terms = {n: Coeff.const(POLY, _frac(rng, nonzero=True))}
        for e in range(n + 1, n + 5):
            terms[e] = Coeff.poly([_frac(rng), _frac(rng)])
        expect_stable(Loop(gm, LaurentSeries.build(POLY, terms)), dlog_x(gm))

    holo = MeromorphicForm.build(hyp3, *parse_xy_rational("1/(2*y)"))
    for i in range(10):
        if i % 2 == 0:
            n = rng.randint(1, 3)
            c = _frac(rng, nonzero=True)
            terms = {-2 * n: Coeff.const(POLY, c * c)}
            for e in range(-2 * n + 1, -2 * n + 4):
                terms[e] = Coeff.poly([_frac(rng), _frac(rng)])
        else:
            a = rng.choice([0, 2])
            terms = {0: Coeff.const(POLY, a)}
            # constant unit linear coefficient: 1/x must exist over Q[t]
            # for the dlog residue check when a = 0
            terms[1] = Coeff.const(POLY, _frac(rng, nonzero=True))
            for e in range(2, 5):
                terms[e] = Coeff.poly([_frac(rng), _frac(rng)])
        loop = lift_x(hyp3, LaurentSeries.build(POLY, terms))
        expect_stable(loop, holo)
        _check(family_residue_constancy(dlog_x(hyp3), loop), "dlog residue depends on t")


def check_residues() -> None:
    """dlog residues read off the order; third-kind residues are +1/-1 with
    total zero; holomorphic forms have residue zero along every loop."""
    rng = random.Random(SEED + 6)
    gm = make_curve("gm")
    omega = dlog_x(gm)
    for n in range(1, 6):
        for k in (n, -n):
            loop = _gm_loop(rng, gm, k)
            r = residue_along(omega, loop).as_fraction()
            _check(r == k, f"dlog residue along order-{k} loop is {r}")

    def total(form, places):
        poles = []
        for place in places:
            if place not in poles:
                poles.append(place)
        return residue_sum(form, poles).as_fraction()

    # projective line: 20 random ordered pairs of distinct places
    pairs = 0
    while pairs < 20:
        def draw():
            roll = rng.random()
            if roll < 0.2:
                return "infinity"
            if roll < 0.4:
                return "0"
            return (_frac(rng),)

        p, q = draw(), draw()

        def value(place):
            if place == "infinity":
                return None
            return Fraction(0) if place == "0" else place[0]

        if value(p) == value(q):
            continue
        pairs += 1
        form = third_kind(gm, p, q)  # verifies res_p = 1, res_q = -1 itself
        _check(total(form, [p, q]) == 0, f"residues of {form} do not sum to zero")

    # odd hyperelliptic: every ordered pair of the five rational places
    hyp3 = make_curve("hyp", (1, 0, 0, 1))
    places3 = ["infinity", (0, 1), (0, -1), (2, 3), (2, -3)]
    count = 0
    for p in places3:
        for q in places3:
            if p == q:
                continue
            count += 1
            form = third_kind(hyp3, p, q)
            poles = [p, q, "infinity"]
            for place in (p, q):
                if isinstance(place, tuple):
                    poles.append((place[0], -place[1]))
            _check(total(form, poles) == 0, f"residue sum for {p}->{q}")
    _check(count == 20, "pair count")

    # even hyperelliptic: the two points at infinity
    hyp4 = make_curve("hyp", (-1, 0, 0, 0, 1))
    for p, q in (("infinity+", "infinity-"), ("infinity-", "infinity+")):
        form = third_kind(hyp4, p, q)
        _check(total(form, [p, q]) == 0, f"residue sum for {p}->{q}")

    # holomorphic forms on the odd curve: residue zero along every loop
    basis = [
        MeromorphicForm.build(hyp3, parse_xy_rational(num)[0], parse_xy_rational("2*y")[0])
        for num in ("1",)
    ]
    loops = [_hyp_odd_arc(rng, hyp3) for _ in range(10)]
    loops += [_hyp_odd_pole(rng, hyp3, rng.randint(1, 3)) for _ in range(10)]
    loops.append(puncture_loop(hyp3, "infinity"))
    for form in basis:
        for loop in loops:
            r = residue_along(form, loop).as_fraction()
            _check(r == 0, f"holomorphic form {form} has residue {r}")


def check_genus0_dimension() -> None:
    """Forms on the line with at most simple poles at two points, modulo
    holomorphic forms, make a space of dimension exactly 1 = g + 1."""
    gm = make_curve("gm")
    p, q = (Fraction(1),), (Fraction(2),)
    span = [
        third_kind(gm, p, q),
        MeromorphicForm.build(gm, *parse_xy_rational("1/(x - 1)")),
        MeromorphicForm.build(gm, *parse_xy_rational("1")),
        MeromorphicForm.build(gm, *parse_xy_rational("x")),
    ]
    infinity = puncture_loop(gm, "infinity")

    def pole_constraints(form):
        # holomorphy at infinity: no negative exponents in the local expansion
        s = pullback(form, infinity)
        return [s.coeff(e).as_fraction() for e in range(-4, 0)]

    rows = [pole_constraints(form) for form in span]
    admissible_dim = len(span) - exact_rank(rows)
    _check(admissible_dim == 1, f"admissible space has dimension {admissible_dim}")

    for row, form in zip(rows, span):
        row.append(residue_along(form, point_loop(gm, p)).as_fraction())
        row.append(residue_along(form, point_loop(gm, q)).as_fraction())
    holomorphic_dim = len(span) - exact_rank(rows)
    _check(holomorphic_dim == 0, f"holomorphic subspace has dimension {holomorphic_dim}")
    _check(admissible_dim - holomorphic_dim == 1, "quotient dimension is not g + 1")


def check_surface_covers() -> None:
    """Free vs. surface homomorphism counts into S3 at genus 1, with the
    commuting-pair cross-check and the explicit non-extendable witness."""
    surface, free = _covers.count_homs(1, 3)
    _check(free == 36, f"free count {free}")
    _check(surface == 18, f"surface count {surface}")
    _check(surface == 6 * _covers.conjugacy_class_count(3), "commuting-pair cross-check")
    _check(surface < free, "strict non-surjectivity")
    assign = _covers.witness_nonextendable(1)
    _check(assign.images[0].cycle_notation() == "(1 2)", "witness first generator")
    _check(assign.images[1].cycle_notation() == "(1 2 3)", "witness second generator")
    rel = _covers.surface_relation(assign)
    _check(not rel.is_identity(), "witness relation value must be nontrivial")
    _check(rel.cycle_notation() == "(1 2 3)", f"relation value {rel.cycle_notation()}")


#: (argv, expected exit code, expected output) for the CLI stability check.
GOLDEN_CLI = (
    (("factor", "2*z^2 - 6*z^3"), 0, "unit=2 order=2 neg={} pos={1: 3}\n"),
    (
        ("factor", "z^-1 + eps"),
        0,
        "unit=1 order=-1 neg={} pos={1: -eps}\n",
    ),
    (
        ("factor", "z + z^2 + O(z^6)"),
        0,
        "unit=1 order=1 neg={} pos={1: -1} (mod O(z^6))\n",
    ),
    (("classify", "--curve", "gm", "--x", "z^2 + z^3"), 0, "class=Pole punct=0 order=2\n"),
    (
        ("classify", "--curve", "hyp:h=x^3+1", "--x", "z^-2"),
        0,
        "class=Pole punct=infinity order=1\n",
    ),
    (
        ("classify", "--curve", "hyp:h=x^4-1", "--x", "3*z^-1", "--branch", "-"),
        0,
        "class=Pole punct=infinity- order=1\n",
    ),
    (
        ("census", "--curve", "gm"),
        0,
        "classes=3\narc\npuncture 0\npuncture infinity\n",
    ),
    (
        ("census", "--curve", "hyp:h=x^4-1"),
        0,
        "classes=3\narc\npuncture infinity+\npuncture infinity-\n",
    ),
    (
        ("family", "--curve", "a1", "--x", "z + t*z^-1", "--t", "0,1,2"),
        0,
        "t=0 class=A1 connected has_pole=false\n"
        "t=1 class=A1 connected has_pole=true\n"
        "t=2 class=A1 connected has_pole=true\n"
        "jumps=0\n",
    ),
    (("residue", "--curve", "gm", "--x", "z^3", "--form", "1/x"), 0, "residue=3\n"),
    (
        ("thirdkind", "--curve", "gm", "--p", "1", "--q", "infinity"),
        0,
        "form=(1)/(-1 + x) dx\nres[1]=1\nres[infinity]=-1\n",
    ),
    (
        ("covers", "--genus", "1", "--symmetric", "3"),
        0,
        "free=36\nsurface=18\nwitness alpha1=(1 2) beta1=(1 2 3)\nrelation=(1 2 3)\n",
    ),
    (
        ("classify", "--curve", "gm", "--x", "0"),
        1,
        "error: loop does not lie on the curve\n",
    ),
    (("factor", "z +"), 2, None),
)

_ROUNDTRIP_SAMPLES = (
    "z^-2 + 3 + z^5",
    "1/2*z^-1 + 3/2 + 9/2*z + O(z^2)",
    "(1 + eps)*z^-1 + 2 - eps^2*z",
    "t*z + (1 - t)*z^2",
    "O(z^4)",
)


def check_cli_stability() -> None:
    """Byte-stable CLI output on a fixed corpus; parse/format round-trips."""
    from .cli import run

    for argv, want_code, want_text in GOLDEN_CLI:
        code, text = run(list(argv))
        _check(code == want_code, f"{argv}: exit code {code}, wanted {want_code}")
        if want_text is not None:
            _check(text == want_text, f"{argv}: output {text!r}, wanted {want_text!r}")
    for sample in _ROUNDTRIP_SAMPLES:
        s = parse_series(sample)
        _check(parse_series(format_series(s), s.ring) == s, f"round-trip failed: {sample}")


CRITERIA = (
    ("gm-integer-census", check_gm_integer_census),
    ("normal-form-roundtrip", check_normal_form_roundtrip),
    ("order-and-covering", check_order_and_covering),
    ("census", check_census),
    ("families", check_families),
    ("residues", check_residues),
    ("genus0-dimension", check_genus0_dimension),
    ("surface-covers", check_surface_covers),
    ("cli-stability", check_cli_stability),
)


def run_all():
    """Run every criterion; returns (name, passed, detail) triples."""
    results = []
    for name, fn in CRITERIA:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # deliberate: a crash is a failure, not an abort
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
