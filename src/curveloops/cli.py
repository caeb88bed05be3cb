"""Command-line front end.

Subcommands: factor, classify, census, family, residue, thirdkind, covers,
selftest.  Output is line-oriented plain text (byte-stable across runs);
``--json`` emits the same data as a JSON object.  Exit codes: 0 success,
1 domain error, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import components, covers, curves, forms, normal_form
from .errors import LoopSpaceError, ParseError
from .parser import (
    format_normal_form,
    parse_curve_spec,
    parse_fraction_list,
    parse_place,
    parse_series,
    parse_xy_rational,
)
from .ring import POLY, Ring, format_coeff, parse_ring
from .series import DEFAULT_PREC


def _ring_flag(text: str | None) -> Ring | None:
    """The ring ``--ring`` names; None, to infer it, when the flag is absent
    or empty."""
    return parse_ring(text) if text else None


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``run``
    in the process (``parse_args`` does not change it).  Each subcommand
    registers only the flags its handler reads, and ``--json``, which
    ``run`` reads."""
    top = argparse.ArgumentParser(prog="curveloops", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)

    def flags(p, prec=False, ring=False):
        if prec:
            p.add_argument("--prec", type=_int_at_least(1), default=DEFAULT_PREC)
        if ring:
            p.add_argument("--ring", type=str, default=None)
        p.add_argument("--json", action="store_true")

    def loop_flags(p):
        p.add_argument("--curve", required=True)
        p.add_argument("--x", required=True)
        p.add_argument("--y", default=None)

    p = sub.add_parser("factor", help="Contou-Carrere style normal form")
    p.add_argument("series")
    flags(p, prec=True, ring=True)

    for name in ("classify", "residue"):
        p = sub.add_parser(name)
        loop_flags(p)
        p.add_argument("--branch", choices=["+", "-"], default="+")
        if name == "residue":
            p.add_argument("--form", required=True)
        flags(p, prec=True, ring=True)

    p = sub.add_parser("census")
    p.add_argument("--curve", required=True)
    flags(p)

    p = sub.add_parser("family")
    loop_flags(p)
    p.add_argument("--t", required=True)
    flags(p, prec=True)

    p = sub.add_parser("thirdkind")
    p.add_argument("--curve", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    flags(p)

    p = sub.add_parser("covers")
    p.add_argument("--genus", type=_int_at_least(1), required=True)
    p.add_argument("--symmetric", type=_int_at_least(0), required=True)
    flags(p)

    p = sub.add_parser("selftest")
    flags(p)
    return top


def _build_loop(args, curve, ring: Ring | None, branch: str = "+") -> curves.Loop:
    """The loop ``--x``/``--y`` over ``ring`` (inferred when None); on a
    hyperelliptic curve without ``--y``, y is lifted on ``branch``.  A
    ``--y`` on a curve without y is a domain error."""
    x = parse_series(args.x, ring)
    if curve.kind != curves.HYPERELLIPTIC:
        if args.y is not None:
            raise LoopSpaceError(f"the loop gives y, which the curve {curve} does not have")
        return curves.Loop(curve, x)
    if args.y is not None:
        return curves.Loop(curve, x, parse_series(args.y, ring or x.ring))
    return curves.lift_x(curve, x, branch=1 if branch == "+" else -1, prec=args.prec)


def _class_json(c: curves.ComponentClass) -> dict:
    if c.kind == curves.ARC:
        return {"class": "Arc"}
    if c.kind == curves.POLE:
        return {"class": "Pole", "order": c.pole_order, "puncture": c.puncture}
    return {"class": "A1", "has_pole": c.has_pole}


def _cmd_factor(args):
    s = parse_series(args.series, _ring_flag(args.ring))
    nf = normal_form.factor(s, prec=args.prec)
    data = {
        "unit": format_coeff(nf.unit),
        "order": nf.order,
        "neg": {str(i): format_coeff(c) for i, c in nf.neg},
        "pos": {str(j): format_coeff(c) for j, c in nf.pos},
        "prec": nf.prec,
    }
    return [format_normal_form(nf)], data


def _cmd_classify(args):
    curve = parse_curve_spec(args.curve)
    loop = _build_loop(args, curve, _ring_flag(args.ring), args.branch)
    if not curves.check_on_curve(loop):
        raise LoopSpaceError("loop does not lie on the curve")
    cls = curves.classify_loop(loop)
    return [str(cls)], _class_json(cls)


def _cmd_census(args):
    curve = parse_curve_spec(args.curve)
    count = components.pi0_census(curve)
    lines = [f"classes={count}"]
    classes = []
    if curve.kind == curves.AFFINE_LINE:
        classes.append("all loops")
    else:
        classes.append("arc")
        classes.extend(f"puncture {c.label}" for c in curve.punctures)
    lines.extend(classes)
    return lines, {"classes": count, "list": classes}


def _cmd_family(args):
    curve = parse_curve_spec(args.curve)
    loop = _build_loop(args, curve, POLY)
    result = components.classify_family(loop, parse_fraction_list(args.t))
    lines = []
    fibers = []
    for fiber in result.fibers:
        if fiber.component is not None:
            lines.append(f"t={fiber.t} {fiber.component}")
            fibers.append({"t": str(fiber.t), **_class_json(fiber.component)})
        else:
            lines.append(f"t={fiber.t} error={fiber.error}")
            fibers.append({"t": str(fiber.t), "error": fiber.error})
    jumps = ",".join(str(t) for t in result.jumps) if result.jumps else "none"
    lines.append(f"jumps={jumps}")
    return lines, {"fibers": fibers, "jumps": [str(t) for t in result.jumps]}


def _cmd_residue(args):
    curve = parse_curve_spec(args.curve)
    num, den = parse_xy_rational(args.form)
    form = forms.MeromorphicForm.build(curve, num, den)
    loop = _build_loop(args, curve, _ring_flag(args.ring), args.branch)
    r = forms.residue_along(form, loop)
    return [f"residue={format_coeff(r)}"], {"residue": format_coeff(r)}


def _cmd_thirdkind(args):
    curve = parse_curve_spec(args.curve)
    p = parse_place(args.p)
    q = parse_place(args.q)
    form = forms.third_kind(curve, p, q)
    lines = [f"form={form}"]
    data = {"form": str(form), "residues": {}}
    for place, value in ((p, 1), (q, -1)):  # the residues third_kind verified
        label = forms.format_place(place)
        lines.append(f"res[{label}]={value}")
        data["residues"][label] = str(value)
    return lines, data


def _cmd_covers(args):
    surface, free = covers.count_homs(args.genus, args.symmetric)
    lines = [f"free={free}", f"surface={surface}"]
    data = {"free": free, "surface": surface}
    if args.symmetric == 3:
        assign = covers.witness_nonextendable(args.genus)
        rel = covers.surface_relation(assign)
        names = []
        for i in range(args.genus):
            names.extend([f"alpha{i + 1}", f"beta{i + 1}"])
        witness = " ".join(
            f"{name}={perm.cycle_notation()}" for name, perm in zip(names, assign.images)
        )
        lines.append(f"witness {witness}")
        lines.append(f"relation={rel.cycle_notation()}")
        data["witness"] = {n: p.cycle_notation() for n, p in zip(names, assign.images)}
        data["relation"] = rel.cycle_notation()
    return lines, data


def _cmd_selftest(args):
    from .acceptance import run_all

    lines = []
    data = {}
    ok_all = True
    for name, ok, detail in run_all():
        if ok:
            lines.append(f"ok {name}")
        else:
            lines.append(f"FAIL {name}: {detail}")
            ok_all = False
        data[name] = {"ok": ok, "detail": detail}
    return lines, data, (0 if ok_all else 1)


_HANDLERS = {
    "factor": _cmd_factor,
    "classify": _cmd_classify,
    "census": _cmd_census,
    "family": _cmd_family,
    "residue": _cmd_residue,
    "thirdkind": _cmd_thirdkind,
    "covers": _cmd_covers,
    "selftest": _cmd_selftest,
}


def _dash_values(argv) -> list:
    """argv with each value that starts with "-" (``-z``, ``-1/2``) joined
    to the flag before it, ``--x=-z``, or else moved after ``--`` as a
    positional: argparse reads such a word as an option unless it looks
    like a plain number, and ``-h`` is this CLI's only short option."""
    out, positional = [], []
    for word in argv:
        value = word[:1] == "-" and word[:2] != "--" and word not in ("-", "-h")
        if not value or "--" in out:
            out.append(word)
        elif out and out[-1][:2] == "--" and "=" not in out[-1] and out[-1] not in ("--json", "--help"):
            out[-1] += "=" + word
        else:
            positional.append(word)
    return out + ["--", *positional] if positional else out


def run(argv) -> tuple[int, str]:
    """Execute one invocation; returns (exit code, output text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_dash_values(argv))
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), ""
    try:
        result = _HANDLERS[args.command](args)
        lines, data, code = result if len(result) == 3 else (*result, 0)
        text = json.dumps(data, sort_keys=True) if args.json else "\n".join(lines)
    except ParseError as exc:
        return 2, f"parse error: {exc}\n"
    except LoopSpaceError as exc:
        return 1, f"error: {exc}\n"
    except ValueError as exc:
        # the interpreter's int-to-str limit, met by an integer of the
        # answer or of the input
        if "integer string conversion" not in str(exc):
            raise
        return 1, f"error: an integer has more than {covers.PRINTED_DIGITS} digits\n"
    return code, text + "\n"


def main() -> None:
    code, text = run(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
