"""Benchmark of eqstate: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lsv_transition --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
The run repeats whole rounds of the workload's operations until
`--seconds` have passed (and at least twice, so reruns can be compared),
checks every output, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: set-up time of a fresh
interpreter (relative to a bare one, see `measure_setup`), peak memory,
and the time of one pass over the operations in units of a reference
kernel (`refkernel.py`) sampled during each call, split into CLI and
library calls.  --trace 1 alternates
untraced and traced rounds, reports per-layer self times from the spans,
and the tracing overhead as the difference between the two kinds of round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 2
SETUP_REPEATS = 9
BARE_S = 0.2          # the unit of setup_s: a bare `import numpy` interpreter's seconds
SAMPLE_PERIOD = 0.1   # seconds between reference-kernel samples


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload, seed):
    """Set-up time of a fresh interpreter, in seconds at a fixed machine speed.

    Each set-up (a fresh interpreter imports `eqstate.cli` and builds the
    workload's inputs) is followed by a bare interpreter that only imports
    numpy.  On a shared host the wall time of both moves by up to a factor
    of two within a minute, and together (the medians of consecutive
    blocks of raw set-up times ranged 0.20-0.35 s, their ratios 1.47-1.61),
    so the median ratio is reported, times BARE_S: work added to set-up
    raises the ratio, a slower machine does not.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    setup = [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed)]
    bare = [sys.executable, "-c", "import numpy"]
    ratios = []
    for i in range(SETUP_REPEATS + 1):  # the first one also compiles bytecode
        dt = []
        for cmd in (setup, bare):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=120)
            dt.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                _fail(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
        if i:
            ratios.append(dt[0] / dt[1])
    return statistics.median(ratios) * BARE_S


def run_rounds(ops, seconds, tracers, sampler, min_rounds=MIN_ROUNDS):
    """Whole rounds of the operations until `seconds` have passed.

    Round k runs under tracers[k % len(tracers)], so a traced run
    alternates untraced and traced rounds.  Returns one list of records
    per round.  A record holds the operation's seconds (without the
    sampler's own time), the mean reference-kernel seconds over the same
    interval, the outcome ("ok", "expected" for the known failure, or the
    unexpected exception) and the result.  In traced rounds each CLI
    operation is followed by its library-only equivalent, timed apart.
    """
    rounds = []
    t_end = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < t_end:
        rnd = len(rounds)
        tracer = tracers[rnd % len(tracers)]
        recs = []
        state = {}
        for i, op in enumerate(ops):
            result, outcome = None, "ok"
            spent0 = sampler.spent
            t0 = time.perf_counter()
            with tracer.span(op.name, op=(rnd, i)):
                try:
                    result = op.fn(tracer, state)
                except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
                    outcome = "expected" if op.expected and isinstance(e, op.expected) \
                        else f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            dt = t1 - t0 - (sampler.spent - spent0)
            eq_dt = None
            if tracer.enabled and op.equivalent is not None:
                spent0 = sampler.spent
                t2 = time.perf_counter()
                op.equivalent()
                eq_dt = time.perf_counter() - t2 - (sampler.spent - spent0)
            recs.append({"name": op.name, "kind": op.kind, "dt": dt,
                         "kernel": sampler.kernel_seconds(t0, t1), "outcome": outcome,
                         "result": result, "eq_dt": eq_dt, "op": (rnd, i)})
        rounds.append(recs)
    return rounds


def _median_by_op(rounds, value):
    per = {}
    for recs in rounds:
        for r in recs:
            per.setdefault((r["name"], r["kind"]), []).append(value(r))
    return {k: statistics.median(v) for k, v in per.items()}


def ref_metrics(rounds):
    """cli_ref, library_ref and wall_ref, in units of the reference kernel.

    Each operation's time is divided by the mean kernel time sampled over
    the same interval; the medians over the rounds are summed by kind.
    """
    med = _median_by_op(rounds, lambda r: r["dt"] / r["kernel"])
    cli = sum(v for (n, kind), v in med.items() if kind == "cli")
    lib = sum(v for (n, kind), v in med.items() if kind == "lib")
    return {"wall_ref": cli + lib, "cli_ref": cli, "library_ref": lib}


PER_LAYER_SPANS = [
    "inducing.first_return_scheme", "inducing.save_load_scheme", "inducing.refine",
    "thermo.induced_potential", "thermo.gibbs_equilibrium", "thermo.pressure_root",
    "thermo.truncated_gurevich", "thermo.sample_original_measure",
    "thermo.closed_form_series",
    "analysis.pressure_curve", "analysis.run_verification", "analysis.collet_eckmann",
    "zooming.zooming_frequency", "zooming.pliss_times", "zooming.lyapunov",
    "maps.strict_orbit", "maps.iterate",
    "cli.scheme_build", "cli.thermo", "cli.pressure_curve", "cli.zooming_frequency",
    "cli.verify",
]
PER_LAYER_COUNTS = [
    "inducing.scheme_branches", "analysis.curve_points", "analysis.oracle_checks",
    "zooming.candidates", "zooming.detected_times",
]


def layer_metrics(tracer, sampler, traced, untraced):
    """Per-pass medians of span self times and counts over the traced rounds."""
    per_round = []
    for recs in traced:
        ops = {r["op"] for r in recs}
        per_round.append((tracer.self_times(ops), tracer.counted(ops),
                          sum(1 for s in tracer.spans if s[4] in ops)))
    out = {}
    for name in PER_LAYER_SPANS:
        out[name + "_s"] = (statistics.median(st.get(name, 0.0) for st, _, _ in per_round), "s")
    for name in PER_LAYER_COUNTS:
        out[name] = (statistics.median(c.get(name, 0.0) for _, c, _ in per_round), "count")
    cli_over = _median_by_op(traced, lambda r: r["dt"] - r["eq_dt"] if r["eq_dt"] is not None else 0.0)
    out["cli.overhead_s"] = (sum(v for (n, kind), v in cli_over.items() if kind == "cli"), "s")
    out["machine.ref_kernel_s"] = (statistics.median(sampler.seconds), "s")
    plain = ref_metrics(untraced)
    spanned = ref_metrics(traced)
    out["trace.overhead_ref"] = (spanned["wall_ref"] - plain["wall_ref"], "ref")
    out["trace.spans"] = (statistics.median(n for _, _, n in per_round), "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eqstate", "cli.py")):
        _fail(f"no eqstate sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import eqstate
    if not os.path.abspath(eqstate.__file__).startswith(SRC + os.sep):
        _fail(f"imported eqstate from {eqstate.__file__}, not from {SRC}")
    from inputs import BUILDERS
    from refkernel import SpeedSampler
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    make_ops, check = WORKLOADS[args.workload]

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        inp = BUILDERS[args.workload](args.seed)
        ops = make_ops(inp, tmp)
        with SpeedSampler(SAMPLE_PERIOD) as sampler:
            tracer = Tracer() if args.trace else NullTracer()
            tracers = [NullTracer(), tracer] if args.trace else [tracer]
            rounds = run_rounds(ops, args.seconds, tracers, sampler,
                                min_rounds=MIN_ROUNDS * len(tracers))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        recs = [r for rnd in rounds for r in rnd]
        failed = sum(1 for r in recs if r["outcome"] != "ok")
        problems = [f"{r['name']} raised {r['outcome']}" for r in recs
                    if r["outcome"] not in ("ok", "expected")]
        results = [{r["name"]: r["result"] for r in rnd if r["outcome"] == "ok"} for rnd in rounds]
        problems += check(inp, results)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}")
    raw = _median_by_op(rounds, lambda r: r["dt"])
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} operations;"
          f" median kernel {statistics.median(sampler.seconds) * 1e3:.4f} ms;"
          f" raw seconds per pass {sum(raw.values()):.4f}")
    print("# raw seconds per operation: "
          + " ".join(f"{n}={v:.4f}" for (n, _), v in raw.items()))
    if args.trace:
        metrics = layer_metrics(tracer, sampler, rounds[1::2], rounds[0::2])
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update({k: (v, "ref") for k, v in ref_metrics(rounds).items()})
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(json.dumps({"correct": not problems, "attempted": len(recs), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
