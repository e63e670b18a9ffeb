"""Benchmark of the wschreier catalog sweeps and command line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (closed loop, one client, this process single-threaded):

    lambda_sweep    every inverse action of the size <= 4 catalog
    wact_roundtrip  every relation/action pair within |N| * |H| <= 9
    glueing_join    every meet-preserving map and join between catalog frames
    cli_mixed       ``python -m wschreier`` children on a seeded verb mix

With ``--trace 0`` the run measures whole passes (a sweep, or one cycle of
the cli cases) for about ``--seconds`` and prints the end-to-end metrics.
With ``--trace 1`` it runs one pass untraced and one traced, and prints the
per-layer metrics from the trace.  Times are corrected for the speed of the
host (see meter.py); the lines before the last give the raw values too.
The last line of stdout is one JSON object.  The exit code is 1 when an
output was wrong.
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
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("lambda_sweep", "wact_roundtrip", "glueing_join", "cli_mixed")
SETUP_SAMPLES = 11  # fresh processes timed for setup_s
STARTUP_SAMPLES = 5  # fresh processes timed for cli.startup_ms


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced catalogs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this fresh process and print it as JSON")
    return p.parse_args(argv)


def setup(args, workdir):
    """Import the package and build the workload."""
    import workloads

    if args.workload == "cli_mixed":
        import cli_mix

        return cli_mix.CliMix(args.seed, workdir)
    return workloads.SWEEPS[args.workload](args.seed, args.small)


def percentile(values, q):
    """The q-th percentile (0 < q < 100) of values."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cli_call(case, invoke, meter):
    """Invoke one case, time it from the client, judge it.  Returns
    (failed, wrong): a failure with a traceback is a crash, one without is a
    wrong answer."""
    t0 = meter.start()
    code, out, err = invoke(case)
    meter.stop(t0)
    failed, crashed = case.judge(code, out, err)
    if failed:
        print("cli %s %s: exit %s, stdout %r, stderr %r"
              % (case.kind, " ".join(case.argv), code, out[:200], err[-200:]),
              file=sys.stderr)
    return int(failed), int(failed and not crashed)


def one_pass(bench, meter, in_process=False):
    """One pass: the whole sweep, or every cli case once.  Returns (items,
    failed, wrong, start, end), the pass bracketed by reference samples."""
    meter.tick(force=True)
    start = meter.ref_end[-1]
    if bench.name != "cli_mixed":
        counts, failed = bench.run_pass(meter)
        mismatched = bench.check(counts)
        for k in mismatched:
            print("count %s: got %s, expected %s"
                  % (k, counts.get(k), bench.expected[k]), file=sys.stderr)
        items, failed = counts["items"], failed + len(mismatched)
        wrong = failed
    else:
        invoke = bench.invoke_in_process if in_process else bench.invoke
        items, failed, wrong = len(bench.cases), 0, 0
        for case in bench.cases:
            f, w = cli_call(case, invoke, meter)
            failed, wrong = failed + f, wrong + w
    meter.tick(force=True)
    return items, failed, wrong, start, meter.ref_start[-1]


def measure(bench, meter, seconds):
    """Closed loop of whole passes while the next one is expected to end
    within seconds; at least one."""
    passes = []
    begin = time.perf_counter_ns()
    while True:
        passes.append(one_pass(bench, meter))
        start, end = passes[-1][3:]
        if 2 * end - start - begin > seconds * 1e9:
            return passes


def fresh_children(argv, samples, env=None, reported=False):
    """Corrected and raw seconds of `samples` fresh children running argv:
    the wall time, or with reported the seconds the child prints as JSON."""
    from meter import CHILD, Meter

    meter, raw = Meter(CHILD), []
    for _ in range(samples):
        meter.tick(force=True)
        t0 = time.perf_counter()
        p = subprocess.run(argv, capture_output=True, cwd=ROOT, env=env, timeout=120,
                           check=True)
        wall = time.perf_counter() - t0
        raw.append(json.loads(p.stdout.decode().splitlines()[-1])["seconds"]
                   if reported else wall)
    meter.tick(force=True)
    scales = meter.scales()
    return [v * scales[i] for i, v in enumerate(raw)], raw


def end_to_end(args, bench):
    from meter import CHILD, LOOP, Meter

    meter = Meter(CHILD if bench.name == "cli_mixed" else LOOP)
    passes = measure(bench, meter, args.seconds)
    who = resource.RUSAGE_CHILDREN if bench.name == "cli_mixed" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    scales = meter.scales()
    ones = [1.0] * len(scales)
    rates = [p[0] / meter.corrected(p[3], p[4], scales) for p in passes]
    raw_rates = [p[0] / meter.corrected(p[3], p[4], ones) for p in passes]
    ms = [s * 1e3 for s in meter.item_seconds(scales)]
    raw_ms = [s * 1e3 for s in meter.item_seconds(ones)]
    setups, raw_setups = fresh_children(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        + (["--small"] if args.small else []),
        SETUP_SAMPLES, reported=True)
    items, failed, wrong = (sum(p[k] for p in passes) for k in range(3))
    unit = "invocation" if bench.name == "cli_mixed" else "item"
    metrics = {
        "items_per_s": (statistics.median(rates), "1/s"),
        "item_p50_ms": (percentile(ms, 50), "ms"),
        "item_p90_ms": (percentile(ms, 90), "ms"),
        "rss_peak_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "items_per_s": "median of %d passes, %d %ss; raw %.4f"
        % (len(passes), items, unit, statistics.median(raw_rates)),
        "item_p50_ms": "%d samples; raw %.4f" % (len(ms), percentile(raw_ms, 50)),
        "item_p90_ms": "%d samples, %d beyond; raw %.4f"
        % (len(ms), len(ms) // 10, percentile(raw_ms, 90)),
        "rss_peak_mb": "ru_maxrss of %s"
        % ("the cli children" if bench.name == "cli_mixed" else "this process"),
        "setup_s": "median of %d fresh processes; raw %.4f"
        % (SETUP_SAMPLES, statistics.median(raw_setups)),
    }
    print("fail_ratio %.6f  (%d of %d %ss failed, %d wrong)"
          % (failed / items, failed, items, unit, wrong))
    print("host: reference median %.4f s, nominal %.4f s"
          % (statistics.median(e - s for s, e in zip(meter.ref_start, meter.ref_end)) / 1e9,
             meter.reference.nominal_s))
    return metrics, notes, items, failed, wrong == 0


def per_layer(args, bench):
    import cli_mix
    import tracer
    from meter import Meter

    meter = Meter()
    untraced = one_pass(bench, meter, in_process=True)
    t = tracer.Tracer()
    t.install()
    try:
        traced = one_pass(bench, meter, in_process=True)
    finally:
        dirty = t.restore()
    scales = meter.scales()
    untraced_s = meter.corrected(untraced[3], untraced[4], scales)
    traced_s = meter.corrected(traced[3], traced[4], scales)
    calls, self_s = t.summary(meter, scales)
    clean = not dirty and sum(self_s) <= traced_s
    if dirty:
        print("tracer left wrappers on: %s" % ", ".join(dirty), file=sys.stderr)
    if sum(self_s) > traced_s:
        print("self time %.6f s exceeds traced wall %.6f s" % (sum(self_s), traced_s),
              file=sys.stderr)

    metrics, notes = {}, {}
    for fid, name in enumerate(tracer.NAMES):
        n = calls[fid]
        metrics[name + ".calls"] = (n, "count")
        metrics[name + ".self_s"] = (self_s[fid], "s")
        if name in tracer.REPEAT:
            metrics[name + ".repeat_ratio"] = (t.repeats[fid] / n if n else 0.0, "ratio")
            notes[name + ".repeat_ratio"] = "%d of %d calls" % (t.repeats[fid], n)
        if name in tracer.OK:
            metrics[name + ".ok_ratio"] = (t.oks[fid] / n if n else 0.0, "ratio")
            notes[name + ".ok_ratio"] = "%d of %d calls" % (t.oks[fid], n)
    startup, raw = fresh_children([sys.executable, "-c", "import wschreier"],
                                  STARTUP_SAMPLES, env=cli_mix.child_env())
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    notes["cli.startup_ms"] = "median of %d fresh processes; raw %.3f" % (
        STARTUP_SAMPLES, statistics.median(raw) * 1e3)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    notes["trace.overhead_ratio"] = "traced %.3f s over untraced %.3f s, %d spans" % (
        traced_s, untraced_s, len(t.fn))
    return metrics, notes, traced[0], traced[1], traced[2] == 0 and clean


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "wschreier", "__init__.py")):
        print("run.py: no wschreier package under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ.pop("WSCHREIER_BOUND", None)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        start = time.perf_counter()
        bench = setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"seconds": time.perf_counter() - start}))
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, notes, attempted, failed, correct = run(args, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in metrics.items():
        extra = notes.get(name)
        print("%-52s %14.6f %-6s%s" % (name, value, unit, "  (%s)" % extra if extra else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
