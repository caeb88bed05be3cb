"""Spans and counters around the library's public functions.

The wrappers live here, in the benchmark, and are installed on the loaded
modules for the traced pass only.  A function imported by name into
another module (``from .parser import parse_series`` in ``cli``, or
``from curveloops import factor`` in a workload) is a second reference to
the same object, so every module attribute that *is* the original function
is patched; the patched caller-side names are reported.  Methods are
patched on their class, which every caller shares.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

def _lift_x_span(args, kwargs) -> str:
    """``curves.lift_x.<ring kind of x>``: Q and Q[t] lifts are separate layers."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return f"curves.lift_x.{x.ring.kind}"


#: (module, function, span name); a callable name picks it per call
FUNCTION_SPANS = (
    ("cli", "run", "cli.run"),
    ("parser", "parse_series", "parser.parse_series"),
    ("parser", "parse_curve_spec", "parser.parse_curve_spec"),
    ("parser", "parse_xy_rational", "parser.parse_xy_rational"),
    ("parser", "format_series", "parser.format_series"),
    ("parser", "format_normal_form", "parser.format_normal_form"),
    ("curves", "make_curve", "curves.make_curve"),
    ("curves", "lift_x", _lift_x_span),
    ("curves", "check_on_curve", "curves.check_on_curve"),
    ("curves", "classify_loop", "curves.classify_loop"),
    ("curves", "cover_loop", "curves.cover_loop"),
    ("series", "sqrt", "series.sqrt"),
    ("normal_form", "factor", "normal_form.factor"),
    ("normal_form", "reconstruct", "normal_form.reconstruct"),
    ("normal_form", "order_of", "normal_form.order_of"),
    ("components", "classify_family", "components.classify_family"),
    ("forms", "pullback", "forms.pullback"),
    ("forms", "residue_along", "forms.residue_along"),
    ("forms", "third_kind", "forms.third_kind"),
    ("covers", "count_homs", "covers.count_homs"),
)

#: (module, class, method, span name)
METHOD_SPANS = (
    ("series", "LaurentSeries", "__mul__", "series.mul"),
    ("series", "LaurentSeries", "__add__", "series.add"),
    ("series", "LaurentSeries", "invert", "series.invert"),
    ("series", "LaurentSeries", "dlog", "series.dlog"),
    ("series", "LaurentSeries", "covering", "series.covering"),
)


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, op id, raised].

    Coefficient multiplies are far too frequent for spans; they only bump
    counters (``ring.mul.<kind>``, ``ring.invert``).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = True  # False: wrappers call straight through
        self.op_id = -1
        self.counts: Counter = Counter()
        self.curve_keys: set = set()
        self.patched: list[tuple[object, str, object]] = []
        self.caller_names: list[str] = []

    # -- hooks run after a wrapped call returns ------------------------------------

    def _after(self, name, args, kwargs, result):
        if name == "cli.run":
            self.counts[f"cli.exit{result[0]}"] += 1
        elif name == "curves.make_curve":
            key = (args[0], tuple(args[1]) if len(args) > 1 and args[1] is not None else None)
            if key in self.curve_keys:
                self.counts["curves.make_curve.repeats"] += 1
            self.curve_keys.add(key)
        elif name == "series.sqrt":
            self.counts["series.sqrt.exact"] += result.prec is None
        elif name == "normal_form.factor":
            self.counts["normal_form.factor.exact"] += result.prec is None
        elif name == "components.classify_family":
            self.counts["components.classify_family.fibers"] += len(result.fibers)

    def _spanned(self, name, fn):
        rec = self
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            label = name if fixed else name(args, kwargs)
            span = [label, perf_counter(), 0.0, rec.stack[-1] if rec.stack else -1, rec.op_id, False]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                rec.stack.pop()
            rec._after(label, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        rec = self

        @functools.wraps(fn)
        def wrapper(coeff, *args):
            if rec.active:
                rec.counts[key(coeff)] += 1
            return fn(coeff, *args)

        return wrapper

    def _patch(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / uninstall -----------------------------------------------------

    def install(self, extra_modules=()) -> None:
        callers = [m for n, m in sys.modules.items() if n.startswith("curveloops")]
        callers += list(extra_modules)
        for mod_name, fn_name, span in FUNCTION_SPANS:
            home = sys.modules[f"curveloops.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._spanned(span, original)
            for module in callers:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
                        if module is not home:
                            self.caller_names.append(f"{module.__name__}.{attr}")
        for mod_name, cls_name, method, span in METHOD_SPANS:
            cls = getattr(sys.modules[f"curveloops.{mod_name}"], cls_name)
            self._patch(cls, method, self._spanned(span, getattr(cls, method)))
        coeff = sys.modules["curveloops.ring"].Coeff
        self._patch(coeff, "__mul__", self._counted(coeff.__mul__, lambda c: f"ring.mul.{c.ring.kind}"))
        self._patch(coeff, "invert", self._counted(coeff.invert, lambda c: "ring.invert"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- derived numbers -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict]:
        """calls, self time (span minus the spans it directly caused) and
        raised count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            s["raised"] += raised
        return stats
