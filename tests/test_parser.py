import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curveloops.errors import ParseError
from curveloops.forms import XYPoly, format_xy
from curveloops.parser import (
    format_normal_form,
    format_series,
    infer_ring,
    parse_curve_spec,
    parse_fraction_list,
    parse_place,
    parse_series,
    parse_x_polynomial,
    parse_xy_rational,
)
from curveloops.normal_form import factor
from curveloops.ring import POLY, RATIONAL, Coeff, nilpotent_ring
from curveloops.series import LaurentSeries

NIL3 = nilpotent_ring(3)


def S(terms, prec=None, ring=RATIONAL):
    return LaurentSeries.build(ring, terms, prec)


# -- parsing ---------------------------------------------------------------------


def test_parse_plain_series():
    assert parse_series("z^-2 + 3 + z^5") == S({-2: 1, 0: 3, 5: 1})
    assert parse_series("2*z^2 - 6*z^3") == S({2: 2, 3: -6})
    assert parse_series("-z") == S({1: -1})
    assert parse_series("0") == S({})


def test_parse_fraction_coefficients():
    assert parse_series("1/2*z^-1 + 3/4") == S({-1: Fraction(1, 2), 0: Fraction(3, 4)})


def test_parse_big_o():
    s = parse_series("z + z^2 + O(z^6)")
    assert s == S({1: 1, 2: 1}, prec=6)
    assert parse_series("O(z^3)") == S({}, prec=3)


def test_parse_eps_and_t():
    s = parse_series("(1 + eps)*z^-1 + 2")
    assert s.ring == NIL3
    assert s.coeff(-1) == Coeff.nil(NIL3, [1, 1])
    u = parse_series("t*z + z^2")
    assert u.ring == POLY
    assert u.coeff(1) == Coeff.t()
    with pytest.raises(ParseError):
        parse_series("eps + t")


@pytest.mark.parametrize("ring", [RATIONAL, POLY], ids=str)
def test_eps_outside_a_nilpotent_ring(ring):
    with pytest.raises(ParseError) as info:
        parse_series("1 + 2*eps*z", ring)
    assert str(info.value) == f"eps does not live in the ring {ring} (at position 6)"
    assert info.value.position == 6


def test_infer_ring():
    assert infer_ring("z + 1") == RATIONAL
    assert infer_ring("eps^2*z") == nilpotent_ring(3)
    assert infer_ring("t^2 - z") == POLY


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_series("z +")
    with pytest.raises(ParseError):
        parse_series("z ^ q")
    with pytest.raises(ParseError):
        parse_series("w + 1")
    with pytest.raises(ParseError):
        parse_series("(z + 1")


def test_parse_xy_rational():
    num, den = parse_xy_rational("(y + 1)/(2*y*(x - 2)) dx")
    assert format_xy(num) == "1 + y"
    assert format_xy(den) == "-4*y + 2*x*y"
    num, den = parse_xy_rational("x^2 - 1")
    assert format_xy(den) == "1"


xy_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 3)),
    st.fractions(min_value=-20, max_value=20, max_denominator=7),
    max_size=6,
).map(XYPoly.build)


@given(xy_polys)
def test_format_xy_round_trips(p):
    """A printed polynomial parses back to itself: each fraction
    coefficient is a division, so the denominator is the constant c of
    those divisors, 1 exactly when every coefficient is an integer."""
    num, den = parse_xy_rational(format_xy(p))
    ((j, c),) = den.rows
    assert j == 0 and len(c) == 1
    assert num == p * den
    assert (den == XYPoly.const(1)) == (p.den == 1)


def test_parse_x_polynomial():
    assert parse_x_polynomial("x^3 + 1") == (1, 0, 0, 1)
    assert parse_x_polynomial("x^4 - 1") == (-1, 0, 0, 0, 1)
    with pytest.raises(ParseError):
        parse_x_polynomial("y + x")
    with pytest.raises(ParseError):
        parse_x_polynomial("1/x")


@pytest.mark.parametrize(
    "text,h",
    [
        ("x^3 + 1/2*x + 1", (1, Fraction(1, 2), 0, 1)),
        ("x^3 + x/2 + 1", (1, Fraction(1, 2), 0, 1)),
        ("(x^3+1)/2*2", (1, 0, 0, 1)),
        ("(x^3+1)/2", (Fraction(1, 2), 0, 0, Fraction(1, 2))),
        ("x^2/(-3)", (0, 0, Fraction(-1, 3))),
    ],
)
def test_parse_x_polynomial_divides_by_a_constant(text, h):
    assert parse_x_polynomial(text) == h


@pytest.mark.parametrize("text", ["x^3 + 1/x", "x^3 + y", "x^-1 + x^3", "(x^3+1)/(2*x)", "x/(1 + y)"])
def test_parse_x_polynomial_rejects_other_denominators(text):
    with pytest.raises(ParseError, match="expected a polynomial in x"):
        parse_x_polynomial(text)


@pytest.mark.parametrize("text", ["0^-1", "(x - x)^-1", "1/(2*(x - x))^2"])
def test_negative_power_of_zero_is_division_by_zero(text):
    with pytest.raises(ParseError, match="division by zero"):
        parse_xy_rational(text)


@pytest.mark.parametrize("parse,atom", [(parse_series, "z"), (parse_xy_rational, "x")])
def test_deep_nesting_is_a_parse_error(parse, atom):
    for deep in ("(" * 300 + atom + ")" * 300, "-" * 1000 + atom):
        with pytest.raises(ParseError, match="expression nested too deeply"):
            parse(deep)
    assert parse("(" * 100 + atom + ")" * 100) == parse(atom)


def test_parse_curve_spec():
    assert parse_curve_spec("a1").kind == "a1"
    assert parse_curve_spec("gm").kind == "gm"
    curve = parse_curve_spec("hyp:h=x^3+1")
    assert curve.h == (1, 0, 0, 1)
    with pytest.raises(ParseError):
        parse_curve_spec("elliptic")


def test_line_specs_print_as_the_named_lines_and_in_ascending_order():
    assert parse_curve_spec("line:0") == parse_curve_spec("gm")
    curve = parse_curve_spec("line: 1, -1/2")
    assert str(curve) == curve.kind == "line:-1/2,1"
    assert curve.finite == (Fraction(-1, 2), Fraction(1))
    assert [chart.label for chart in curve.punctures] == ["-1/2", "1", "infinity"]
    for spec in ("line:", "line:1/0", "line:a"):
        with pytest.raises(ParseError):
            parse_curve_spec(spec)


def test_parse_place():
    assert parse_place("infinity+") == "infinity+"
    assert parse_place("0") == "0"
    assert parse_place("3/2") == (Fraction(3, 2),)
    assert parse_place("(2, -3)") == (Fraction(2), Fraction(-3))
    with pytest.raises(ParseError):
        parse_place("(1, 2")


def test_parse_fraction_list():
    assert parse_fraction_list("0, 1, -3/2") == (Fraction(0), Fraction(1), Fraction(-3, 2))


# -- formatting -------------------------------------------------------------------


def test_format_series():
    assert format_series(S({-2: 1, 0: 3, 5: 1})) == "z^-2 + 3 + z^5"
    assert format_series(S({1: Fraction(-1, 2)}, prec=4)) == "-1/2*z + O(z^4)"
    assert format_series(S({})) == "0"
    assert format_series(S({}, prec=1)) == "O(z)"


def test_format_normal_form():
    nf = factor(S({2: 2, 3: -6}))
    assert format_normal_form(nf) == "unit=2 order=2 neg={} pos={1: 3}"
    nf = factor(S({1: 1, 2: 1}, prec=6))
    assert format_normal_form(nf).endswith("(mod O(z^6))")


@st.composite
def arbitrary_series(draw):
    ring = draw(st.sampled_from([RATIONAL, NIL3, POLY]))
    n = draw(st.integers(0, 4))
    exps = draw(st.lists(st.integers(-5, 8), min_size=n, max_size=n, unique=True))
    q = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    terms = {}
    for e in exps:
        if ring == RATIONAL:
            terms[e] = Coeff.const(ring, draw(q))
        elif ring == POLY:
            terms[e] = Coeff.poly([draw(q), draw(q)])
        else:
            terms[e] = Coeff.nil(ring, [draw(q), draw(q), draw(q)])
    prec = draw(st.one_of(st.none(), st.integers(9, 12)))
    return LaurentSeries.build(ring, terms, prec)


@given(arbitrary_series())
@settings(max_examples=80)
def test_format_parse_roundtrip(s):
    assert parse_series(format_series(s), s.ring) == s


# -- the parse corpus -----------------------------------------------------------

#: ``parse_corpus.json`` holds the outcome of every corpus text: under each
#: of these rings for a series text (None infers it), and as a form for a
#: form text.  Regenerate it with ``python tests/test_parser.py``.
CORPUS_PATH = Path(__file__).parent / "parse_corpus.json"
CORPUS_SEED = 1806
CORPUS_RINGS = (None, RATIONAL, POLY, nilpotent_ring(2))
#: Inputs at the edges of the grammar, read both as series and as forms.
CORPUS_EDGES = (
    "", " ", "z +", "+", "-", "()", "(z", "z)", "z^", "z^-", "z^q", "2 3", "z z",
    "O(z^2) + z", "z - O(z^2)", "O(z^2)", "O(z)", "O(x^2)", "O(z^-1)", "-O(z)",
    "1/0", "0^-1", "0^0", "z^0", "(x - x)^-1", "1/(x - x)", "1/(2*(x - x))^2",
    "1/(1-z)", "1/(z + z^2)", "(1 - z)^-2", "1/eps", "1/(1 + eps)", "1/t", "1/(1 + t)",
    "eps + t", "eps^2*z", "t*z + z^2", "w + 1", "x + y", "y^2/x", "x/(1 + y) dx",
    "1/(2*y) dx", "dx", "x dx", "z  $", "z + 1 @ 2", "$", " \t$", "z\t+\t1", "1/2/3",
    "2^3^2", "-(-(-z))", "--z", "2*-z", "z^+2", "1 = 2", "(1, 2)", "007", "3/04",
)


def _corpus_atom(rng, names):
    r = rng.randrange(7)
    if r == 0:
        return str(rng.randrange(10))
    if r == 1:
        return f"{rng.randrange(10)}/{rng.randrange(20) and rng.randrange(1, 9)}"
    name = rng.choice(names)
    low = -3 if name in "zx" else -1
    return name if r < 4 else f"{name}^{rng.randrange(low, 6)}"


def _corpus_expr(rng, names, depth):
    """A sum of products over ``names``: parentheses and unary minus nest at
    most ``depth`` levels."""
    terms = []
    for i in range(rng.randrange(1, 4)):
        factors = []
        for _ in range(rng.choice([1, 1, 2, 2, 3])):
            r = rng.random()
            if depth and r < 0.2:
                f = "(" + _corpus_expr(rng, names, depth - 1) + ")"
                if rng.random() < 0.4:
                    f += f"^{rng.choice([-2, -1, 0, 1, 2, 3])}"
            elif depth and r < 0.3:
                f = "-" + _corpus_atom(rng, names)
            else:
                f = _corpus_atom(rng, names)
            factors.append(f)
        term = factors[0]
        for f in factors[1:]:
            term += rng.choice(["*", "*", " * ", "/"]) + f
        sign = rng.choice(["+", "-"]) if i or rng.random() < 0.2 else ""
        terms.append(sign + rng.choice(["", " "]) + term)
    return rng.choice([" ", ""]).join(terms)


def _corpus_mutate(rng, text):
    """``text`` with one character deleted or inserted, or cut short."""
    at = rng.randrange(len(text) + 1)
    r = rng.randrange(3)
    if r == 0:
        return text[:at] + text[at + 1:]
    if r == 1:
        return text[:at] + rng.choice("+-*/^()$@., =zxyOt1 ") + text[at:]
    return text[:at]


def corpus_texts(count=1500):
    """(series texts, form texts): ``count`` seeded texts of each, then the
    edge inputs; one text in five is mutated."""
    rng = random.Random(CORPUS_SEED)
    series, forms = [], []
    for _ in range(count):
        names = rng.choice([["z"], ["z"], ["z", "eps"], ["z", "t"], ["z", "eps", "t"]])
        text = _corpus_expr(rng, names, 4)
        if rng.random() < 0.3:
            text += f" + O(z^{rng.randrange(-2, 9)})"
        series.append(_corpus_mutate(rng, text) if rng.random() < 0.2 else text)
    for _ in range(count):
        text = _corpus_expr(rng, rng.choice([["x"], ["x", "y"], ["x", "y", "z"]]), 4)
        if rng.random() < 0.2:
            text += " dx"
        forms.append(_corpus_mutate(rng, text) if rng.random() < 0.2 else text)
    return series + list(CORPUS_EDGES), forms + list(CORPUS_EDGES)


def _outcome(parse, *args):
    try:
        value = parse(*args)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(value, LaurentSeries):
        return [format_series(value), str(value.ring), value.prec]
    return [format_xy(p) for p in value]


def corpus_outcomes(series, forms):
    return {
        "series": [[text, [_outcome(parse_series, text, ring) for ring in CORPUS_RINGS]] for text in series],
        "forms": [[text, _outcome(parse_xy_rational, text)] for text in forms],
    }


def test_corpus_file_matches_its_texts():
    series, forms = corpus_texts()
    corpus = json.loads(CORPUS_PATH.read_text())
    assert [text for text, _ in corpus["series"]] == series
    assert [text for text, _ in corpus["forms"]] == forms


def _named_at_its_place(text, outcome):
    """The recorded outcome, except that an unexpected character is named at
    its own position: the tokenizer once named the blank before it."""
    m = re.fullmatch(r"unexpected character '(\s)' \(at position (\d+)\)", outcome[1])
    if outcome[0] != "ParseError" or m is None:
        return outcome
    pos = re.compile(r"\s*").match(text, int(m.group(2))).end()
    return ["ParseError", f"unexpected character {text[pos]!r} (at position {pos})"]


def _division_named(outcome):
    """The recorded outcome, except that a divisor with no inverse is named
    as a division: the parser once passed on ``LaurentSeries.invert``'s
    advice to use the normal form."""
    if outcome != ["NotInvertible", "lowest coefficient is not a unit; use the normal form"]:
        return outcome
    return ["NotInvertible", "cannot divide by a series whose lowest coefficient is not a unit"]


def test_parse_corpus_keeps_its_outcomes():
    """Every corpus text parses to the recorded value, ring and prec, or
    raises the recorded exception class and message."""
    corpus = json.loads(CORPUS_PATH.read_text())
    got = corpus_outcomes([text for text, _ in corpus["series"]], [text for text, _ in corpus["forms"]])
    for (text, recorded), (_, outcomes) in zip(corpus["series"], got["series"]):
        assert outcomes == [_division_named(_named_at_its_place(text, r)) for r in recorded], text
    for (text, recorded), (_, outcome) in zip(corpus["forms"], got["forms"]):
        # a form is tokenized after its blanks and a trailing dx are stripped
        seen = re.sub(r"\bdx\s*$", "", text.strip())
        assert outcome == _named_at_its_place(seen, recorded), text


if __name__ == "__main__":
    data = corpus_outcomes(*corpus_texts())
    with CORPUS_PATH.open("w") as out:
        out.write('{"series": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in data["series"]))
        out.write('\n], "forms": [\n')
        out.write(",\n".join(json.dumps(entry) for entry in data["forms"]))
        out.write("\n]}\n")
