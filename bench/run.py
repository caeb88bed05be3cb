"""curveloops benchmark: one workload per process, closed loop, one client.

Run from the root of a source checkout:

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` measures and prints the end-to-end metrics.  ``--trace 1``
makes an untraced pass, runs the same workload again with spans around
the library's public functions, each pass for half of ``--seconds``, then
times the layer table and the acceptance registry, and prints the
per-layer metrics.  The last line of standard output is one JSON object;
a fuller record of the run is written to ``bench/out/``.  The exit code is 1 when an output check failed and 2
when the checkout holds no ``src/curveloops``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import common

WORKLOADS = {
    "cli_mix": {
        "why": "per-call overhead of the CLI front end, as a user of the command sees it",
        "inputs": "GOLDEN_CLI verbatim, seeded argv for eight subcommand shapes "
                  "(rings rational and nilpotent:2..5, default --prec), probes at the "
                  "documented edge of the grammar",
        "stresses": ["cli", "parser", "curves.make_curve", "series (sparse exact)", "covers"],
        "bypasses": ["dense series at n >= 96", "ring poly beyond tiny families"],
    },
    "dense_series": {
        "why": "the kernels ROADMAP items 2 and 3 replace, at the sizes where they cost most",
        "inputs": "dense series over Q and nilpotent:3 at n = 96, 256; lift_x at prec 96, 256",
        "stresses": ["ring (rational, nilpotent)", "series", "normal_form", "curves.lift_x.rational"],
        "bypasses": ["cli", "parser", "ring poly", "components", "covers"],
    },
    "poly_families": {
        "why": "the only heavy user of the Q[t] ring: lift_x over Q[t] is most of each op",
        "inputs": "families over Q[t] on a1, gm, y^2 = x^3 + 1 and y^2 = x^4 - 1, "
                  "lifts at prec 24 (and two in eleven at 32)",
        "stresses": ["ring poly", "series.sqrt over Q[t]", "curves.lift_x.poly", "components"],
        "bypasses": ["cli", "parser", "normal_form", "covers"],
    },
}

#: curves each workload builds during set-up (kind, h)
FIXED_CURVES = {
    "cli_mix": {"a1": ("a1", None), "gm": ("gm", None),
                **{spec: ("hyp", tuple(h)) for spec, h in common.CATALOG_HYP.items()}},
    "dense_series": {"odd": ("hyp", (1, 0, 0, 1)), "even": ("hyp", (-1, 0, 0, 0, 1))},
    "poly_families": {"a1": ("a1", None), "gm": ("gm", None),
                      "odd": ("hyp", (1, 0, 0, 1)), "even": ("hyp", (-1, 0, 0, 0, 1))},
}

SETUP_SAMPLES = 41
WARMUP_S = 1.0

LAYER_FUNCS = {
    "cli.run": ("calls", "self_s"),
    **{f"parser.{f}": ("calls", "self_s") for f in (
        "parse_series", "parse_curve_spec", "parse_xy_rational", "format_series", "format_normal_form")},
    "curves.make_curve": ("calls", "self_s"),
    **{f"curves.{f}": ("calls", "self_s") for f in (
        "lift_x.rational", "lift_x.poly", "check_on_curve", "classify_loop", "cover_loop")},
    **{f"series.{f}": ("calls", "self_s", "raised") for f in (
        "mul", "invert", "dlog", "sqrt", "add", "covering")},
    **{f"normal_form.{f}": ("calls", "self_s", "raised") for f in ("factor", "reconstruct", "order_of")},
    "components.classify_family": ("calls", "self_s"),
    **{f"forms.{f}": ("calls", "self_s") for f in ("pullback", "residue_along", "third_kind")},
    "covers.count_homs": ("calls", "self_s"),
}


def _purge() -> dict:
    """Take the package out of the module table; returns what was taken."""
    taken = {n: m for n, m in sys.modules.items() if n == "curveloops" or n.startswith("curveloops.")}
    for name in taken:
        del sys.modules[name]
    return taken


def build(workload: str) -> dict:
    """Set-up: import the package and build the workload's fixed curves."""
    importlib.import_module("curveloops.cli")
    importlib.import_module("curveloops.acceptance")
    make_curve = importlib.import_module("curveloops.curves").make_curve
    return {name: make_curve(kind, h) for name, (kind, h) in FIXED_CURVES[workload].items()}


class SetupSampler:
    """Times the set-up ``n`` times, spread evenly over the timed pass.

    Host speed drifts over seconds, so samples taken back to back at start
    see one moment of it; spread over the pass they see what the ops see.
    Each sample imports the package afresh into a clean module table and
    then puts back the modules the ops use, so no op mixes two imports.
    Called with the pass's library time after every op, outside its timed
    interval.
    """

    def __init__(self, workload: str, seconds: float, n: int = SETUP_SAMPLES):
        self.workload, self.seconds, self.n = workload, seconds, n
        self.samples: list[float] = []

    def sample(self) -> None:
        kept = _purge()
        gc.collect()
        t0 = perf_counter()
        build(self.workload)
        self.samples.append(perf_counter() - t0)
        _purge()
        sys.modules.update(kept)

    def __call__(self, busy_s: float) -> None:
        while len(self.samples) < self.n and busy_s >= len(self.samples) * self.seconds / self.n:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < self.n:
            self.sample()
        return self.samples


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "implementation": platform.python_implementation()}


def commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = root / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ops_per_s(p: common.Pass) -> float:
    """Median over the rotations of verified ops per second of library
    time: the speed of the host drifts over seconds, and a median of
    rotations is steadier against that than a mean over the pass."""
    return median(p.rotation_rates)


def layer_metrics(rec, verdict) -> dict[str, float]:
    stats = rec.layer_stats()
    out = {}
    for name, fields in LAYER_FUNCS.items():
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "raised": 0})
        for f in fields:
            out[f"{name}.{f}"] = s[f]
    out["cli.run.uncaught"] = stats.get("cli.run", {}).get("raised", 0)
    for code in (0, 1, 2):
        out[f"cli.exit{code}"] = rec.counts[f"cli.exit{code}"]
    out["cli.probe.calls"] = verdict.probes
    out["cli.probe.violations"] = verdict.probe_violations
    calls = out["curves.make_curve.calls"]
    out["curves.make_curve.repeat_share"] = rec.counts["curves.make_curve.repeats"] / calls if calls else 0.0
    for name in ("series.sqrt", "normal_form.factor"):
        calls = out[f"{name}.calls"]
        out[f"{name}.exact_share"] = rec.counts[f"{name}.exact"] / calls if calls else 0.0
    out["components.classify_family.fibers"] = rec.counts["components.classify_family.fibers"]
    for kind in ("rational", "nilpotent", "poly"):
        out[f"ring.mul.{kind}.calls"] = rec.counts[f"ring.mul.{kind}"]
    out["ring.invert.calls"] = rec.counts["ring.invert"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "curveloops" / "__init__.py").is_file():
        print("bench/run.py: run it from the root of a curveloops checkout "
              "(src/curveloops is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Set-up imports the package from cached bytecode, as an installed
    # package does, whatever PYTHONDONTWRITEBYTECODE says: compiling the
    # sources on every import about doubles setup_s, in some environments
    # and not in others.  The cache is the benchmark's own.
    out_dir = Path(__file__).resolve().parent / "out"
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(out_dir / "pycache")
    # Run on one fixed CPU.  The vCPUs of a small VM can differ in speed by
    # a third; left to the scheduler, a run lands on either and the run-to-run
    # spread turns bimodal.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    t0 = perf_counter()
    fixed = build(args.workload)
    first_setup_s = perf_counter() - t0  # also imports the standard library; not a sample
    module = importlib.import_module(args.workload)
    make_rotation, make_warm = module.make(args.seed, fixed)
    warm_s, warm_ops = common.warm_up(make_warm, WARMUP_S)

    # a traced run makes two passes and then times the layer table and the
    # acceptance registry; halving the passes keeps it to the time of a run
    pass_s = args.seconds / 2 if args.trace else args.seconds
    setup = SetupSampler(args.workload, pass_s)
    plain = common.measure(make_rotation, pass_s, between=setup)
    setup_samples = setup.finish()
    rss = peak_rss_mb()
    verdict = plain.verdict
    lat = common.latency_stats(plain)
    record = {
        "workload": args.workload, **WORKLOADS[args.workload],
        "closed_loop": "one client, no threads; the next op starts when the last one returns",
        "traffic_source": "no production log exists; inputs are derived from the README CLI, "
                          "the GOLDEN_CLI corpus and the generators in acceptance.py",
        "machine": machine(), "pinned_cpu": cpu, "seed": args.seed, "commit": commit(root),
        "seconds": args.seconds, "trace": args.trace,
        "setup_s_first": first_setup_s, "setup_s_samples": setup_samples,
        "warmup": {"seconds": warm_s, "ops": warm_ops},
        "untraced": {"ops": len(plain.samples), "rotations": plain.rotations,
                     "busy_s": plain.busy_s, "latency": lat,
                     "ops_per_s": ops_per_s(plain), "rotation_rates": plain.rotation_rates,
                     "latency_ms_by_op": common.latency_by_label(plain)},
    }

    out_dir.mkdir(exist_ok=True)
    if args.trace:
        import kernels
        import tracing

        rec = tracing.Recorder()
        rec.install(extra_modules=[module])
        try:
            traced = common.measure(make_rotation, pass_s, recorder=rec)
        finally:
            rec.uninstall()
        traced_verdict = traced.verdict
        metrics = layer_metrics(rec, traced_verdict)
        untraced_rate = ops_per_s(plain)
        traced_rate = ops_per_s(traced)
        metrics["trace.ops_per_s_untraced"] = untraced_rate
        metrics["trace.ops_per_s_traced"] = traced_rate
        metrics["trace.overhead_share"] = 1 - traced_rate / untraced_rate
        cells, not_run = kernels.layer_table(args.seed)
        metrics.update(cells)
        times, selftest_failures = kernels.acceptance_times()
        metrics.update(times)
        for key in ("attempted", "failed", "probes", "probe_violations"):
            setattr(verdict, key, getattr(verdict, key) + getattr(traced_verdict, key))
        verdict.defects += traced_verdict.defects
        verdict.failures += traced_verdict.failures + [f"selftest: {f}" for f in selftest_failures]
        verdict.failed += len(selftest_failures)
        record["traced"] = {"ops": len(traced.samples), "rotations": traced.rotations,
                            "busy_s": traced.busy_s, "spans": len(rec.spans),
                            "caller_side_names_patched": sorted(set(rec.caller_names))}
        record["layer_table_not_run"] = not_run
        spans_file = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with spans_file.open("w") as fh:  # name, start, end, parent, op id, raised
            fh.writelines(json.dumps(span) + "\n" for span in rec.spans)
        record["traced"]["spans_file"] = str(spans_file)
    else:
        metrics = {
            "setup_s": median(setup_samples),
            "ops_per_s": ops_per_s(plain),
            "latency_p50_ms": lat["p50_ms"],
            "latency_p90_ms": lat["p90_ms"],
            "latency_p99_ms": lat["p99_ms"],
            "peak_rss_mb": rss,
        }

    correct = verdict.failed == 0
    record.update({
        "correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
        "failed_share": verdict.failed / verdict.attempted,
        "failures": verdict.failures[:20],
        "probes": verdict.probes, "probe_violations": verdict.probe_violations,
        "probe_violation_share": verdict.probe_violations / verdict.probes if verdict.probes else 0.0,
        "probe_failures": sorted(set(verdict.probe_failures))[:40],
        "known_defects": len(verdict.defects), "known_defect_notes": verdict.defects[:20],
        "metrics": metrics,
    })
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    listed = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    for m in listed:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{args.workload}: {verdict.attempted} checked ops, {verdict.failed} failed, "
          f"{len(verdict.defects)} known defects; {verdict.probes} probes, "
          f"{verdict.probe_violations} contract violations; record {out_file}")
    for failure in verdict.failures[:5]:
        print(f"FAILED {failure}")
    result = {
        "correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
