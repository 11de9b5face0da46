"""Benchmark of blendcop: fitting, sampling and tail diagnostics.

    python3 bench/run.py --workload {fit,sample,diagnose} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload is set up several times (setup_s is the
import and reference loading plus the median set-up), then whole rounds of
its operations run for about ``--seconds``; pass_s and throughput_per_s
take each call at its fastest repeat, scaled by a gauge of the machine's
speed timed in the same run. With ``--trace 1`` every workload is set up and run with spans
recorded around each blendcop layer, and the per-layer metrics of all
three workloads are printed, so each traced run reports every one of them. ``--quick`` shrinks every input, for
the self-check. The last line of standard output is one JSON object:
correct, attempted, failed and metrics. Operation failures are listed on
standard error. Run it from the repository root; it imports blendcop from
``src/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# one computation thread per workload; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench-out"
SETUP_REPEATS = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("fit", "sample", "diagnose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for the self-check")
    return p.parse_args(argv)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_failures(ops, known):
    """Print failed operations once each; return True if all are known faults."""
    seen = set()
    expected = True
    for op in ops:
        if op.failed and op.name not in seen:
            seen.add(op.name)
            tag = known.get(op.name)
            expected &= tag is not None
            print(f"FAIL [{tag or 'unexpected'}] {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    return expected


def _best(col):
    """A call's time at its fastest repeat. A call timed in segments that
    every repeat shares (fit_mle: one per objective evaluation, as the
    walk is the same each time) takes each segment at its fastest repeat."""
    segments = [op.segments for op in col]
    if segments[0] and all(len(s) == len(segments[0]) for s in segments):
        return float(sum(min(s) for s in zip(*segments)))
    return min(op.seconds for op in col)


def measure(workloads, name, ref, seed, seconds, quick, load_s):
    """Set up SETUP_REPEATS times, then run whole rounds while the next one
    is expected to end within ``seconds``. ``load_s`` is the one-off import
    and reference loading.

    The machine's speed swings within a second and in spells of seconds,
    so a call's time is taken as its fastest repeat in the run: pass_s sums
    that over the pass, throughput_per_s divides the work by it. Both are
    then scaled by GAUGE_REF_S over the gauge's time in the run, taken the
    same way (its fastest repeat at each call's place in the round,
    averaged over the calls), so a run that falls wholly in a slow spell
    reads as one that does not. The unscaled figures go to standard error.
    """
    wl = workloads.WORKLOADS[name](ref, seed, quick)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or (time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(wl.run_round(state))
    ops = [op for rnd in rounds for op in rnd]
    correct = _report_failures(ops, workloads.KNOWN_FAULTS)
    calls = [(col[0], _best(col)) for col in zip(*rounds)]
    gauge = statistics.fmean(min(op.gauge for op in col) for col in zip(*rounds) if col[0].gauge)
    scale = workloads.GAUGE_REF_S / gauge
    pass_s = sum(best for op, best in calls if op.in_pass)
    rate = [(op.work, best) for op, best in calls if op.work]
    per_s = sum(w for w, _ in rate) / sum(b for _, b in rate)
    print(f"unscaled: pass_s {pass_s:.6g} s, throughput_per_s {per_s:.6g} 1/s; "
          f"gauge {gauge * 1e3:.4g} ms against {workloads.GAUGE_REF_S * 1e3:.4g} ms; "
          f"{len(rounds)} rounds", file=sys.stderr)
    metrics = {
        "setup_s": (load_s + statistics.median(setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "pass_s": (pass_s * scale, "s"),
        "throughput_per_s": (per_s / scale, "1/s"),
    }
    return correct, ops, metrics


def _trace_one(wl, ops):
    """Traced set-up, an untraced round, then a traced round. Returns
    (tracer, index of the first round span, traced over untraced time)."""
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        state = wl.setup()
    setup_end = tracer.mark()
    t0 = time.perf_counter()
    ops += wl.run_round(state)
    untraced = time.perf_counter() - t0
    with tracer:
        t0 = time.perf_counter()
        ops += wl.run_round(state)
        traced = time.perf_counter() - t0
    return tracer, setup_end, traced / untraced


def trace_all(workloads, ref, seed, quick):
    """Traced runs of every workload; spans go to bench-out/."""
    import layer_metrics

    metrics = {}
    ops = []
    OUT.mkdir(exist_ok=True)
    with (OUT / f"spans-seed{seed}.jsonl").open("w", encoding="utf-8") as fh:
        for name, cls in workloads.WORKLOADS.items():
            tracer, setup_end, overhead = _trace_one(cls(ref, seed, quick), ops)
            tracer.write(fh, workload=name)
            metrics.update(layer_metrics.collect(name, ref, tracer, setup_end))
            metrics[f"{name}.trace.overhead_ratio"] = (overhead, "ratio")
    correct = _report_failures(ops, workloads.KNOWN_FAULTS)
    return correct, ops, metrics


def main(argv=None):
    args = _args(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import blendcop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(workloads.blend.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"blendcop was imported from {workloads.blend.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    load_s = time.perf_counter() - t0

    if args.trace:
        correct, ops, metrics = trace_all(workloads, ref, args.seed, args.quick)
    else:
        correct, ops, metrics = measure(
            workloads, args.workload, ref, args.seed, args.seconds, args.quick, load_s
        )
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
