import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curveloops import acceptance, cli
from curveloops.acceptance import GOLDEN_CLI
from curveloops.cli import _build_parser, run


@pytest.mark.parametrize("argv,code,text", GOLDEN_CLI, ids=lambda v: str(v)[:50])
def test_golden_corpus(argv, code, text):
    got_code, got_text = run(list(argv))
    assert got_code == code
    if text is not None:
        assert got_text == text


def test_factor_json():
    code, text = run(["factor", "2*z^2 - 6*z^3", "--json"])
    assert code == 0
    data = json.loads(text)
    assert data == {
        "unit": "2",
        "order": 2,
        "neg": {},
        "pos": {"1": "3"},
        "prec": None,
    }


def test_classify_even_curve_with_explicit_y():
    code, text = run(
        [
            "classify",
            "--curve",
            "hyp:h=x^4-1",
            "--x",
            "z^-1",
            "--y",
            "-z^-2 + 1/2*z^2 + 1/8*z^6 + O(z^8)",
        ]
    )
    assert code == 0
    assert text == "class=Pole punct=infinity- order=1\n"


def test_family_json():
    code, text = run(
        ["family", "--curve", "a1", "--x", "z + t*z^-1", "--t", "0,1,2", "--json"]
    )
    assert code == 0
    data = json.loads(text)
    assert data["jumps"] == ["0"]
    assert data["fibers"][0] == {"t": "0", "class": "A1", "has_pole": False}


def test_residue_with_prec_flag():
    code, text = run(["residue", "--curve", "gm", "--x", "z^-2 + 1", "--form", "1/x"])
    assert code == 0
    assert text == "residue=-2\n"


def test_thirdkind_hyperelliptic():
    code, text = run(
        ["thirdkind", "--curve", "hyp:h=x^3+1", "--p", "(0, 1)", "--q", "infinity"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[1] == "res[(0, 1)]=1"
    assert lines[2] == "res[infinity]=-1"


def test_domain_error_exit_code():
    code, text = run(["classify", "--curve", "gm", "--x", "0"])
    assert code == 1
    assert text.startswith("error:")


def test_parse_error_exit_code():
    code, text = run(["factor", "z + + 1"])
    assert code == 2
    assert text.startswith("parse error:")
    code, _ = run(["classify", "--curve", "cubic", "--x", "z"])
    assert code == 2


def test_usage_error_exit_code():
    code, _ = run(["frobnicate"])
    assert code == 2


def test_selftest_smoke():
    code, text = run(["selftest"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("ok ") for line in lines)


def test_cli_imports_no_class_machinery():
    """Every CLI call imports the package first: that import must not load
    ``dataclasses``, ``typing`` or ``inspect``, which generate and compile
    class methods at import time.  ``-S`` keeps site-packages, and
    whatever a site hook imports, out of the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, curveloops.cli; "
             "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "1 - z", "--prec", "0"],
        ["factor", "1 - z", "--prec", "-2"],
        ["classify", "--curve", "hyp:h=x^3+1", "--x", "z^-2", "--prec", "-3"],
        ["factor", "z + 1", "--ring", "nilpotent:1"],
        ["factor", "z + 1", "--ring", "nilpotent:x"],
        ["covers", "--genus", "0", "--symmetric", "3"],
        ["family", "--curve", "gm", "--x", "z", "--t", "1/0"],
    ],
    ids=" ".join,
)
def test_rejected_argv_exits_2(argv):
    code, text = run(argv)
    assert code == 2
    # argparse reports usage errors on stderr; the grammar's own on stdout
    assert text == "" or text.startswith("parse error:")


# A subcommand registers only the flags its handler reads, so any other
# flag is a usage error.
@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--curve", "gm", "--prec", "5"],
        ["thirdkind", "--curve", "gm", "--p", "1", "--q", "2", "--ring", "poly"],
        ["covers", "--genus", "1", "--symmetric", "3", "--prec", "3"],
        ["selftest", "--ring", "poly"],
        ["family", "--curve", "gm", "--x", "z + t", "--t", "1", "--ring", "nilpotent:2"],
    ],
    ids=" ".join,
)
def test_unread_flag_exits_2(argv):
    assert run(argv) == (2, "")


# (x, y) is no loop on a curve without y: --y is not dropped in silence
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--curve", "gm", "--x", "z", "--y", "5"],
        ["residue", "--curve", "a1", "--x", "z", "--y", "7", "--form", "1/x"],
        ["family", "--curve", "a1", "--x", "z + t", "--y", "1", "--t", "0,1"],
    ],
    ids=" ".join,
)
def test_y_on_a_curve_without_y_exits_1(argv):
    curve = argv[argv.index("--curve") + 1]
    assert run(argv) == (1, f"error: the loop gives y, which the curve {curve} does not have\n")


#: Short argv per subcommand, in the parser's order, that between them
#: reach every flag read by its handler or by ``run``
FLAG_READERS = {
    "factor": [["factor", "1 - z"]],
    "classify": [["classify", "--curve", "hyp:h=x^3+1", "--x", "z^-2"]],
    "residue": [["residue", "--curve", "hyp:h=x^3+1", "--x", "z^-2", "--form", "1/x"]],
    "census": [["census", "--curve", "gm"]],
    "family": [["family", "--curve", "hyp:h=x^3+1", "--x", "z^-2 + t*z^-1", "--t", "0"]],
    "thirdkind": [["thirdkind", "--curve", "gm", "--p", "1", "--q", "infinity"]],
    "covers": [["covers", "--genus", "1", "--symmetric", "3"]],
    "selftest": [["selftest"]],
}


def test_every_registered_flag_is_read(monkeypatch):
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAG_READERS)
    read = set()

    class Recording:
        """A parsed ``Namespace`` that notes each attribute read from it."""

        def __init__(self, values):
            self._values = values

        def __getattr__(self, name):
            read.add(name)
            try:
                return self._values[name]
            except KeyError:
                raise AttributeError(name) from None

    class RecordingParser:
        def parse_args(self, argv):
            return Recording(vars(parser.parse_args(argv)))

    monkeypatch.setattr(cli, "_build_parser", RecordingParser)
    monkeypatch.setattr(acceptance, "run_all", lambda: [])  # selftest reads no more
    for name, argvs in FLAG_READERS.items():
        read.clear()
        for argv in argvs:
            assert run(argv)[0] == 0, argv
        flags = {a.dest for a in sub.choices[name]._actions if a.dest != "help"}
        assert flags <= read, f"{name} registers {sorted(flags - read)} and never reads them"


def test_prec_1_is_accepted():
    code, text = run(["factor", "1 - z", "--prec", "1"])
    assert (code, text) == (0, "unit=1 order=0 neg={} pos={} (mod O(z^1))\n")


# classify, residue and family read --prec only to lift y; on argv that
# lift nothing it is accepted and changes no byte of the answer
@pytest.mark.parametrize(
    "argv,text",
    [
        pytest.param(argv, text, id=" ".join(argv))
        for argv, text in [
            (["classify", "--curve", "gm", "--x", "z", "--prec", "1"], "class=Pole punct=0 order=1\n"),
            (
                ["family", "--curve", "gm", "--x", "z + t", "--t", "1", "--prec", "1"],
                "t=1 class=Arc\njumps=none\n",
            ),
            (
                [
                    "classify", "--curve", "hyp:h=x^3+1", "--x", "z^-2",
                    "--y", "z^-3 + 1/2*z^3 + O(z^4)", "--prec", "1",
                ],
                "class=Pole punct=infinity order=1\n",
            ),
        ]
    ],
)
def test_prec_without_a_lift_changes_nothing(argv, text):
    i = argv.index("--prec")
    assert run(argv) == run(argv[:i] + argv[i + 2:]) == (0, text)


@pytest.mark.parametrize(
    "argv,text",
    [
        pytest.param(argv, text, id=" ".join(argv)[:80])
        for argv, text in [
            (
                ["residue", "--curve", "hyp:h=x^3+1", "--x", "z", "--y", "5", "--form", "1/y"],
                "error: loop does not lie on the curve\n",
            ),
            (
                ["factor", "eps*z^-1+1+O(z^1)", "--ring", "nilpotent:2"],
                "error: constant term not certified after the negative factors"
                " (need O(z^1), have O(z^0))\n",
            ),
            (
                ["residue", "--curve", "hyp:h=x^3+1", "--x", "2 + eps + z",
                 "--ring", "nilpotent:2", "--form", "1/x"],
                "error: leading coefficient is not a plain rational\n",
            ),
            (
                ["covers", "--genus", "3000", "--symmetric", "3"],
                "error: the free count 6^6000 has more than 4300 digits\n",
            ),
            *(
                (
                    ["covers", "--genus", "1", "--symmetric", n],
                    f"error: S_{n} is past S_30, the largest symmetric group counted\n",
                )
                for n in ("1700", "31")
            ),
            # an integer past 4300 digits, in the answer or in the input
            *(
                (argv, "error: an integer has more than 4300 digits\n")
                for argv in (["factor", "2^99999"], ["factor", "2^99999", "--json"], ["factor", "1" * 4301])
            ),
            (
                ["residue", "--curve", "gm", "--x", "z", "--form", "1/(y)"],
                "error: the form uses y, which the curve gm does not have\n",
            ),
            (
                ["residue", "--curve", "a1", "--x", "z", "--form", "y"],
                "error: the form uses y, which the curve a1 does not have\n",
            ),
            (
                ["residue", "--curve", "hyp:h=x^3+1", "--x", "z", "--form", "1/(y^2 - x^3 - 1)"],
                "error: form denominator is zero on the curve\n",
            ),
            (
                ["thirdkind", "--curve", "gm", "--p", "0", "--q", "(0)"],
                "error: the two places must differ\n",
            ),
            (["census", "--curve", "hyp:h=(x^3+1)/2"], "error: h must be monic\n"),
            # a constant loop at a puncture, and a repeated puncture
            (["classify", "--curve", "line:0,1", "--x", "1"], "error: loop does not lie on the curve\n"),
            (["census", "--curve", "line:0,0"], "error: the punctures of a line must be distinct\n"),
            # a divisor with no inverse is named as a division, not sent to
            # the normal form, which factor already is
            *(
                (["factor", text], "error: cannot divide by a series whose lowest coefficient is not a unit\n")
                for text in ("1/(eps + z)", "1/t", "t^-1")
            ),
        ]
    ],
)
def test_domain_argv_exits_1(argv, text):
    assert run(argv) == (1, text)


@pytest.mark.parametrize(
    "argv,text",
    [
        pytest.param(argv, text, id=" ".join(argv))
        for argv, text in [
            (["covers", "--genus", "1000000", "--symmetric", "1"], "free=1\nsurface=1\n"),
            (["covers", "--genus", "2", "--symmetric", "5"], "free=207360000\nsurface=3858240\n"),
            (["covers", "--genus", "3", "--symmetric", "4"], "free=191102976\nsurface=16619520\n"),
            (["covers", "--genus", "1", "--symmetric", "7"], "free=25401600\nsurface=75600\n"),
            (
                ["factor", "1 + z + z^100000"],
                "unit=1 order=0 neg={} pos={1: -1} (mod O(z^24))\n",
            ),
            (
                ["residue", "--curve", "hyp:h=x^3+1", "--x", "2 + z",
                 "--ring", "nilpotent:2", "--form", "1/x"],
                "residue=0\n",
            ),
            # charts at infinity certify themselves at any degree of h
            (["census", "--curve", "hyp:h=x^13+1"], "classes=2\narc\npuncture infinity\n"),
            (["classify", "--curve", "hyp:h=x^13+1", "--x", "z"], "class=Arc\n"),
            *(
                (
                    ["thirdkind", "--curve", f"hyp:h=x^{d}+1", "--p", "(0,1)", "--q", "infinity"],
                    "form=(1 + y)/(2*x*y) dx\nres[(0, 1)]=1\nres[infinity]=-1\n",
                )
                for d in (13, 15, 25, 31)
            ),
            (
                ["thirdkind", "--curve", "hyp:h=x^24+1", "--p", "infinity+", "--q", "infinity-"],
                "form=(-x^11)/(y) dx\nres[infinity+]=1\nres[infinity-]=-1\n",
            ),
            # lines minus rational punctures
            (
                ["census", "--curve", "line:0,1"],
                "classes=4\narc\npuncture 0\npuncture 1\npuncture infinity\n",
            ),
            (["classify", "--curve", "line:0,1", "--x", "1 + z^2"], "class=Pole punct=1 order=2\n"),
            (
                ["thirdkind", "--curve", "line:0,1", "--p", "0", "--q", "1"],
                "form=(-1)/(-x + x^2) dx\nres[0]=1\nres[1]=-1\n",
            ),
            (
                ["thirdkind", "--curve", "line:1", "--p", "0", "--q", "infinity"],
                "form=(1)/(x) dx\nres[0]=1\nres[infinity]=-1\n",
            ),
            (
                ["family", "--curve", "line:1", "--x", "1 + t*z + z^2", "--t", "0,1,2"],
                "t=0 class=Pole punct=1 order=2\nt=1 class=Pole punct=1 order=1\n"
                "t=2 class=Pole punct=1 order=1\njumps=0\n",
            ),
            # rational coefficients in h
            (["census", "--curve", "hyp:h=x^3 + 1/2*x + 1"], "classes=2\narc\npuncture infinity\n"),
            (
                ["thirdkind", "--curve", "hyp:h=x^3 + x/2 + 1", "--p", "(0,1)", "--q", "infinity"],
                "form=(1 + y)/(2*x*y) dx\nres[(0, 1)]=1\nres[infinity]=-1\n",
            ),
        ]
    ],
)
def test_argv_answers(argv, text):
    assert run(argv) == (0, text)


@pytest.mark.parametrize(
    "argv,spelled,text",
    [
        pytest.param(argv, spelled, text, id=" ".join(argv))
        for argv, spelled, text in [
            (
                ["classify", "--curve", "gm", "--x", "-z"],
                ["classify", "--curve", "gm", "--x=-z"],
                "class=Pole punct=0 order=1\n",
            ),
            (
                ["thirdkind", "--curve", "gm", "--p", "1", "--q", "-1/2"],
                ["thirdkind", "--curve", "gm", "--p", "1", "--q=-1/2"],
                "form=(3/2)/(-1/2 - 1/2*x + x^2) dx\nres[1]=1\nres[-1/2]=-1\n",
            ),
            (
                ["family", "--curve", "a1", "--x", "z", "--t", "-1,2"],
                ["family", "--curve", "a1", "--x", "z", "--t=-1,2"],
                "t=-1 class=A1 connected has_pole=false\nt=2 class=A1 connected has_pole=false\n"
                "jumps=none\n",
            ),
            (["factor", "-z"], ["factor", "--", "-z"], "unit=-1 order=1 neg={} pos={}\n"),
            (["factor", "-z", "--prec", "3"], ["factor", "--prec", "3", "--", "-z"], "unit=-1 order=1 neg={} pos={}\n"),
        ]
    ],
)
def test_value_that_starts_with_a_dash_answers(argv, spelled, text):
    """A value that starts with "-" reads as argparse reads it spelled with
    ``=``, or after ``--`` for ``factor``'s series."""
    assert run(argv) == run(spelled) == (0, text)


def test_line_0_gives_gm_bytes():
    """Every ``gm`` argv of the byte corpus and of ``GOLDEN_CLI``, with the
    curve spelled ``line:0``."""
    replayed = 0
    for argv, code, text in [*CORPUS, *GOLDEN_CLI]:
        if "gm" in argv:
            assert run(["line:0" if word == "gm" else word for word in argv]) == (code, text), argv
            replayed += 1
    assert replayed == 35


@pytest.mark.parametrize(
    "argv,text",
    [
        pytest.param(argv, text, id=" ".join(argv)[:80])
        for argv, text in [
            (["residue", "--curve", "gm", "--x", "z", "--form", "0^-1"], "division by zero (at position 0)"),
            (["residue", "--curve", "gm", "--x", "z", "--form", "(x - x)^-1"], "division by zero (at position 0)"),
            # a position in a curve spec counts from the start of --curve
            (["census", "--curve", "hyp:h=x^3 + 1/x"], "expected a polynomial in x (at position 6)"),
            (["census", "--curve", "line:"], "not a rational number: '' (at position 5)"),
            (["census", "--curve", "line:0,a"], "not a rational number: 'a' (at position 7)"),
            (["census", "--curve", "hyp:h=x^3+@"], "unexpected character '@' (at position 10)"),
            (["factor", "(" * 300 + "z" + ")" * 300], "expression nested too deeply (at position 0)"),
            (
                ["residue", "--curve", "gm", "--x", "z", "--form", "(" * 300 + "1/x" + ")" * 300],
                "expression nested too deeply (at position 0)",
            ),
        ]
    ],
)
def test_parse_error_argv_exits_2(argv, text):
    assert run(argv) == (2, f"parse error: {text}\n")


@pytest.mark.parametrize(
    "argv,text",
    [
        pytest.param(argv, text, id=" ".join(argv))
        for argv, text in [
            (["factor", "z  $"], "unexpected character '$' (at position 3)"),
            (["factor", "z + 1 @ 2"], "unexpected character '@' (at position 6)"),
        ]
    ],
)
def test_unexpected_character_is_named_at_its_place(argv, text):
    assert run(argv) == (2, f"parse error: {text}\n")


@pytest.mark.parametrize("zero", ["(0)", "0/1", "-0"])
def test_spellings_of_zero_name_the_puncture_on_the_line(zero):
    for q in ("1", "infinity"):
        assert run(["thirdkind", "--curve", "gm", "--p", zero, "--q", q]) == run(
            ["thirdkind", "--curve", "gm", "--p", "0", "--q", q]
        )
        assert run(["thirdkind", "--curve", "gm", "--p", q, "--q", zero]) == run(
            ["thirdkind", "--curve", "gm", "--p", q, "--q", "0"]
        )


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_shared_parser_keeps_answers_apart():
    """A usage error, a valid call and a domain error in one process give
    the bytes the golden corpus and the regression tests expect."""
    golden = {tuple(argv): (code, text) for argv, code, text in GOLDEN_CLI}
    factor_argv = ("factor", "2*z^2 - 6*z^3")
    domain_argv = ("classify", "--curve", "gm", "--x", "0")
    for _ in range(2):
        assert run(["frobnicate"]) == (2, "")
        assert run(["factor", "1 - z", "--prec", "0"]) == (2, "")
        assert run(list(factor_argv)) == golden[factor_argv]
        assert run(list(domain_argv)) == golden[domain_argv]
        assert run(["factor", "1 - z", "--prec", "1"]) == (
            0, "unit=1 order=0 neg={} pos={} (mod O(z^1))\n"
        )


# A lift is marked on the curve only when y^2 - h(x) is certified to a
# positive precision; below that the full check still raises.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv, id=" ".join(argv))
        for argv in [
            ["classify", "--curve", "hyp:h=x^3+1", "--x", "z^-2", "--prec", "1"],
            ["classify", "--curve", "hyp:h=x^3+1", "--x", "z^-4+z^-1", "--prec", "6"],
            ["classify", "--curve", "hyp:h=x^4-1", "--x", "z^-1+z", "--prec", "1"],
            [
                "residue", "--curve", "hyp:h=x^3+1", "--x", "z^-4+z^-1",
                "--prec", "3", "--form", "1/x",
            ],
        ]
    ],
)
def test_uncertified_lift_exits_1(argv):
    assert run(argv) == (1, "error: curve equation not certifiable at this precision\n")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv, id=" ".join(argv))
        for argv in [
            ["family", "--curve", "hyp:h=x^3+1", "--x", "z^-2+t*z^-1", "--t", "0,1", "--prec", "2"],
        ]
    ],
)
def test_uncertified_family_lift_reports_each_fiber(argv):
    assert run(argv) == (
        0,
        "t=0 error=curve equation not certifiable at this precision\n"
        "t=1 error=curve equation not certifiable at this precision\n"
        "jumps=none\n",
    )


@pytest.mark.parametrize(
    "argv,code,text",
    [
        pytest.param(argv, code, text, id=" ".join(argv))
        for argv, code, text in [
            (
                ["thirdkind", "--curve", "gm", "--p", "1/0", "--q", "infinity"],
                2,
                "parse error: cannot parse place '1/0' (at position 0)\n",
            ),
            (
                ["thirdkind", "--curve", "gm", "--p", "(a,b)", "--q", "infinity"],
                2,
                "parse error: cannot parse place '(a,b)' (at position 0)\n",
            ),
            (
                ["thirdkind", "--curve", "gm", "--p", "()", "--q", "infinity"],
                2,
                "parse error: cannot parse place '()' (at position 0)\n",
            ),
            (
                ["thirdkind", "--curve", "hyp:h=x^3+1", "--p", "(0)", "--q", "infinity"],
                1,
                "error: a point of this curve has two coordinates, got 1\n",
            ),
            (
                ["thirdkind", "--curve", "gm", "--p", "(1,2)", "--q", "infinity"],
                1,
                "error: a point of the line has one coordinate, got 2\n",
            ),
            (
                ["thirdkind", "--curve", "hyp:h=x^3+1", "--p", "(0,1,5)", "--q", "infinity"],
                1,
                "error: a point of this curve has two coordinates, got 3\n",
            ),
        ]
    ],
)
def test_malformed_place_is_rejected(argv, code, text):
    assert run(argv) == (code, text)


# -- thirdkind / residue byte corpus --------------------------------------------

#: Places per curve: punctures, rational points and their conjugates,
#: Weierstrass points and points off the curve.
CORPUS_PLACES = {
    "gm": ("0", "infinity", "1", "-2", "1/3"),
    "a1": ("infinity", "0", "1"),
    "hyp:h=x^3+1": ("infinity", "(0,1)", "(0,-1)", "(2,3)", "(2,-3)", "(-1,0)"),
    "hyp:h=x^4+1": ("infinity+", "infinity-", "(0,1)", "(0,-1)"),
    "hyp:h=x^4-1": ("infinity+", "infinity-", "(1,0)", "(0,1)"),
    "hyp:h=x^5+1": ("infinity", "(0,1)", "(0,-1)", "(-1,0)"),
    "hyp:h=x^6+3": ("infinity+", "infinity-", "(1,2)", "(1,-2)", "(-1,2)"),
    "hyp:h=x^13+1": ("infinity", "(0,1)", "(0,-1)"),
    "hyp:h=x^3-x+1": ("infinity", "(0,1)", "(1,-1)", "(-1,1)", "(3,5)", "(3,-5)"),
}

#: (x, branch) loops per curve: the order-1 (or 2) loops at the punctures,
#: arcs through rational and Weierstrass points, inexact loops and loops
#: over Q[eps]/eps^3.
CORPUS_LOOPS = {
    "gm": (
        ("z^-1", "+"), ("2 + z", "+"), ("z^3 + z^4", "+"), ("z^-1 + eps*z^2 + O(z^5)", "+"),
        ("eps*z^-1 + 1 + z + O(z^3)", "+"),
    ),
    "hyp:h=x^3+1": (
        ("z^-2", "+"), ("z^-2", "-"), ("z", "+"), ("z", "-"), ("2 + z", "-"),
        ("z^-2 + 1 + O(z^12)", "+"), ("2 + z + eps*z^2", "+"),
    ),
    "hyp:h=x^4+1": (("z^-1", "+"), ("z^-1", "-"), ("z", "+")),
    "hyp:h=x^4-1": (("z^-1", "-"), ("1 + z", "+")),
    "hyp:h=x^5+1": (("z^-2", "+"), ("z", "-")),
    "hyp:h=x^6+3": (("z^-1", "+"), ("1 + z", "-")),
    "hyp:h=x^3-x+1": (("z^-2", "-"), ("3 + z", "+"), ("z", "+")),
}

CORPUS_FORMS = (
    "y^2", "y^3", "y^4", "(x+y)^3/(y-1)^2", "1/y^3", "x^2*y^3 - y/x",
    "x^200 + 1/x", "(x^2 - 1)/(x - 2)^3",
)


def corpus_argv():
    """Every ordered pair of distinct places per curve for ``thirdkind``, then
    every form along every loop for ``residue`` (y-forms on hyperelliptic
    curves only)."""
    for spec, places in CORPUS_PLACES.items():
        for p in places:
            for q in places:
                if p != q:
                    yield ["thirdkind", "--curve", spec, "--p", p, "--q", q]
    for spec, loops in CORPUS_LOOPS.items():
        for x, branch in loops:
            for form in CORPUS_FORMS:
                if spec.startswith("hyp") or "y" not in form:
                    yield ["residue", "--curve", spec, "--x", x, "--branch", branch, "--form", form]


CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def test_corpus_file_matches_its_argv():
    assert [argv for argv, _, _ in CORPUS] == list(corpus_argv())


@pytest.mark.parametrize(
    "argv,code,text", [pytest.param(*entry, id=" ".join(entry[0])) for entry in CORPUS]
)
def test_thirdkind_residue_corpus(argv, code, text):
    """Exit code and output bytes of ``thirdkind`` and ``residue``, pinned in
    ``cli_corpus.json``."""
    assert run(argv) == (code, text)


# -- the exit-code contract, fuzzed -------------------------------------------------

PARSE_CORPUS = json.loads((Path(__file__).parent / "parse_corpus.json").read_text())
TEXTS = st.sampled_from(
    sorted({text for text, _ in PARSE_CORPUS["series"] + PARSE_CORPUS["forms"]} | {"2^99999"})
)
#: Loops and forms that most curves accept, so that answers are drawn too.
LOOPS = st.one_of(st.sampled_from(["z", "z^-1", "z^-2", "1 + z", "z^-2 + z", "z + t", "z^-1 + t*z"]), TEXTS)
FORMS = st.one_of(st.sampled_from(["1/x", "x", "1/(x - 1)", "y/x", "1/y dx", "x^2/(1 + y)"]), TEXTS)
CURVES = st.sampled_from(
    ["a1", "gm", "hyp:h=x^3+1", "hyp:h=x^4-1", "hyp:h=x^5+1", "hyp:h=x^3", "hyp:h=x^3+1/0",
     "hyp:h=x^2+1", "hyp:h=(x^3+1)/2", "bogus", "", "line:0,1", "line:-1/2,3", "line:0,0", "line:",
     "line:1/0", "line:a"]
)
PLACES = st.sampled_from(
    ["0", "infinity", "infinity+", "infinity-", "1", "-2", "(0,1)", "(0,-1)", "(2,3)", "(-1,0)",
     "(0,1", "()", "1/0", "-0", "(0,1,5)", "a", "-1/2", "3"]
)
#: The optional flags of each subcommand, with the values drawn for them.
OPTIONS = {
    "prec": ("--prec", st.sampled_from(["0", "-1", "1", "3", "24", "x"])),
    "ring": ("--ring", st.sampled_from(["rational", "poly", "nilpotent:1", "nilpotent:2", "nilpotent:x", ""])),
    "branch": ("--branch", st.sampled_from(["+", "-", "0"])),
    "y": ("--y", TEXTS),
    "json": ("--json", st.none()),
}


@st.composite
def argvs(draw):
    """An argv of one of the seven subcommands other than ``selftest``: its
    required arguments, then some of its optional flags."""
    command = draw(st.sampled_from(["factor", "classify", "residue", "census", "family", "thirdkind", "covers"]))
    argv = [command]
    if command == "factor":
        argv += [draw(TEXTS)]
        options = ["prec", "ring", "json"]
    elif command in ("classify", "residue", "family"):
        argv += ["--curve", draw(CURVES), "--x", draw(LOOPS)]
        if command == "residue":
            argv += ["--form", draw(FORMS)]
        if command == "family":
            argv += ["--t", draw(st.sampled_from(["0", "0,1", "0,1,-3/2", "1/0", "", "a,1"]))]
        options = ["prec", "y", "json"] + (["ring", "branch"] if command != "family" else [])
    elif command == "census":
        argv += ["--curve", draw(CURVES)]
        options = ["json"]
    elif command == "thirdkind":
        argv += ["--curve", draw(CURVES), "--p", draw(PLACES), "--q", draw(PLACES)]
        options = ["json"]
    else:
        argv += ["--genus", draw(st.sampled_from(["0", "1", "2", "3000", "-1", "x"]))]
        argv += ["--symmetric", draw(st.sampled_from(["0", "1", "3", "4", "7", "30", "31", "2000", "-1"]))]
        options = ["json"]
    for name in draw(st.lists(st.sampled_from(options), unique=True)):
        flag, values = OPTIONS[name]
        value = draw(values)
        argv += [flag] if value is None else [flag, value]
    return argv


@given(argvs())
@settings(max_examples=200, deadline=None)
def test_every_argv_ends_with_0_1_or_2(argv):
    """``run`` never raises, and a nonzero exit prints nothing (an argparse
    usage error) or one line that starts ``error: `` or ``parse error: ``."""
    code, text = run(argv)
    assert code in (0, 1, 2)
    if code:
        assert text == "" or (
            text.startswith(("error: ", "parse error: ")) and text.index("\n") == len(text) - 1
        )
