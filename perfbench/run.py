#!/usr/bin/env python3
"""The ppf benchmark.

One workload per run, in this interpreter:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

prints human-readable lines, then as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
the end-to-end metrics of BENCHMARK.json, with throughput and latencies at
a reference host speed (see hostspeed.py); `--trace 1` wraps ppf's public
callables (see tracer.py) and reports the per-layer metrics instead.

Without `--workload` it runs every workload of BENCHMARK.json, plus
`verify_unreduced`, each in its own fresh interpreter and one at a time,
after printing the machine's facts, and ends with a summary table.
`--smoke` checks the benchmark itself at tiny size (see `smoke()`).

The program is imported from the checkout's own `src/`; without it the
benchmark exits with code 1 and prints no result.  See README.md for the
workloads, the metrics and what each layer should move.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import coldstart

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRA_WORKLOADS = ("verify_unreduced",)  # runnable, but not a BENCHMARK.json workload
# fresh-interpreter cold starts per run, besides the run's own (verify_* builds
# F_{2^16} and F_{1021^2} for about 20 s, so it is timed once)
EXTRA_COLD_STARTS = {"sweep": 8, "crosscheck": 8}
# how each workload names its items and operations in the human-readable lines
LABELS = {
    "sweep": ("instances_per_s", "instances", "table1 calls", "table1_call"),
    "verify_large": ("verify_per_s", "polynomials", "polynomials", "verify"),
    "verify_unreduced": ("verify_per_s", "polynomials", "polynomials", "verify"),
    "crosscheck": ("checks_per_s", "checks", "passes", "pass"),
}


def workload_names():
    return [w["name"] for w in SPEC["workloads"]]


def percentile_ms(latencies, pct):
    """Linear-interpolated percentile of the per-operation latencies, in ms."""
    xs = sorted(latencies)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return 1000.0 * (xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def reference_latencies(res, host):
    """Seconds per operation at reference host speed (see hostspeed.py)."""
    return [host.reference_seconds(t0, t1) for t0, t1 in res.spans]


def subprocess_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def extra_cold_starts(workload, size):
    """(reference, wall) setup seconds from fresh interpreters, one at a time."""
    out = []
    for _ in range(EXTRA_COLD_STARTS.get(workload, 0)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload, "--size", size],
            capture_output=True, text=True, timeout=120, env=subprocess_env(), check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((row["setup_s"], row["wall_s"]))
    return out


def run_pass(workloads, name, ctxs, args, budget, paused=contextlib.nullcontext):
    if name == "sweep":
        return workloads.sweep(args.seed, args.size, budget, OUT_DIR, paused,
                               args.wrong_reference)
    if name == "crosscheck":
        return workloads.crosscheck(args.seed, args.size, budget, paused)
    return workloads.verify(ctxs, args.seed, args.size, budget,
                            unreduced=name == "verify_unreduced", paused=paused)


def describe(name, res, setup_samples=None, host=None):
    """Readable lines; with `host`, the timings at reference host speed
    first, then the wall figures."""
    rate, items, ops, op = LABELS[name]
    n = len(res.latencies)
    lines = []
    if setup_samples:
        ref, wall = zip(*setup_samples)
        lines.append(f"setup_s            {statistics.median(ref):.4f} s   (median of "
                     f"{len(ref)} cold starts at reference host speed; wall "
                     f"{statistics.median(wall):.4f} s)")
    work = f"{res.items} {items} in {n} {ops}" if items != ops else f"{n} {ops}"
    views = [("wall", res.latencies)]
    if host is not None:
        views.insert(0, ("at reference host speed", reference_latencies(res, host)))
        lines.append(f"host speed         {host.mean_speed():.3f} of reference "
                     f"(mean of {len(host.samples)} {host.kind} probes)")
    for view, lat in views:
        lines += [
            f"{rate:<18} {res.items / sum(lat):.2f} 1/s   ({work}, {sum(lat):.2f} s, {view})",
            f"{op + '_p50_ms':<18} {percentile_ms(lat, 50):.3f} ms  ({n} samples, {view})",
            f"{op + '_p90_ms':<18} {percentile_ms(lat, 90):.3f} ms  ({n} samples, {view}"
            f"{'; p90 is interpolated below 10 samples' if n < 10 else ''})",
        ]
    lines += [
        f"peak_rss_mb        {res.peak_rss_mb:.1f} MB",
        f"failed_frac        {res.failed / max(res.attempted, 1):.6g}   "
        f"({res.failed} of {res.attempted})",
    ]
    return lines + [f"note: {note}" for note in res.notes]


def run_workload(args):
    """One workload in this interpreter; returns the result object."""
    name, size = args.workload, args.size
    coldstart.add_src_to_path()
    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {name}, seed {args.seed}, size {size}, trace {args.trace}; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    if not args.trace:
        setup_s, setup_wall, ctxs = coldstart.cold_start(name, size)
        import workloads
        from hostspeed import HostSpeed, probe_kind
        samples = [(setup_s, setup_wall)] + extra_cold_starts(name, size)
        with HostSpeed(probe_kind(name)) as host:
            res = run_pass(workloads, name, ctxs, args, workloads.Budget(seconds=args.seconds))
        for line in describe(name, res, samples, host):
            print(line)
        lat = reference_latencies(res, host)
        values = {
            "setup_s": statistics.median(ref for ref, _ in samples),
            "throughput_per_s": res.items / sum(lat),
            "latency_p50_ms": percentile_ms(lat, 50),
            "latency_p90_ms": percentile_ms(lat, 90),
            "peak_rss_mb": res.peak_rss_mb,
        }
        specs = SPEC["end_to_end"]
        attempted, failed = res.attempted, res.failed
    else:
        import workloads
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        ctxs = coldstart.build_fields(name, size)
        traced_setup = time.perf_counter() - t0
        tracer.uninstall()
        # paired passes over the same inputs: untraced, then traced
        fixed = workloads.VERIFY_MIN_OPS[size] if name.startswith("verify") else 1
        plain = run_pass(workloads, name, ctxs, args, workloads.Budget(ops=fixed))
        tracer.install()
        traced = run_pass(workloads, name, ctxs, args, workloads.Budget(ops=fixed),
                          tracer.paused)
        tracer.uninstall()
        overhead = traced.timed_s / plain.timed_s - 1.0
        print(f"traced setup {traced_setup:.3f} s; paired passes of {fixed} operations: "
              f"untraced {plain.timed_s:.3f} s, traced {traced.timed_s:.3f} s, "
              f"overhead {overhead:.3f}")
        print("traced pass:")
        for line in describe(name, traced):
            print(line)
        print("largest self times (name <- parent: calls, self s, total s):")
        for rec in tracer.records()[:12]:
            print(f"  {rec['name']} <- {rec['parent'] or '-'}: {rec['calls']}, "
                  f"{rec['self_s']:.3f}, {rec['total_s']:.3f}")
        values = {}
        for metric in SPEC["per_layer"]:
            m = metric["name"]
            if m == "trace.overhead_frac":
                values[m] = overhead
            elif m == "families.useful_report_ratio":
                values[m] = tracer.useful_report_ratio()
            else:
                values[m] = tracer.layer_value(m)
        trace_file = OUT_DIR / f"trace-{name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": name, "seed": args.seed, "size": size,
            "traced_setup_s": traced_setup, "untraced_pass_s": plain.timed_s,
            "traced_pass_s": traced.timed_s, "spans": tracer.records()}, indent=1))
        print(f"span aggregates written to {trace_file.relative_to(ROOT)}")
        specs = SPEC["per_layer"]
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                        for s in specs}}


# -- one command for every workload -------------------------------------------

def machine_facts():
    """Read-only facts: nproc, CPU model, cache sizes, Python and numpy."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = "missing"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return facts


def child(workload, seed, seconds, trace, size="full", extra=()):
    """Run one workload in a fresh interpreter; (returncode, stdout, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=subprocess_env(),
                          timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout, result


def run_all(args):
    print("machine: " + json.dumps(machine_facts()))
    rows = []
    for name in workload_names() + list(EXTRA_WORKLOADS):
        print(f"\n== {name} ==")
        rc, out, result = child(name, args.seed, args.seconds, args.trace)
        print(out, end="")
        rows.append((name, rc, result))
    print("\nsummary (failed_frac = failed / attempted; verify_unreduced is not in "
          "BENCHMARK.json):")
    for name, rc, result in rows:
        if result is None:
            print(f"  {name}: exited {rc} without a result")
            continue
        frac = result["failed"] / result["attempted"]
        metrics = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"  {name}: {metrics}, failed_frac {frac:.4g} "
              f"({result['failed']} of {result['attempted']})")
    return 0 if all(rc == 0 and r is not None for _, rc, r in rows) else 1


# -- smoke test of the benchmark itself ------------------------------------------

def smoke(args):
    """Tiny runs of every workload, traced and untraced: every metric of
    BENCHMARK.json is emitted with its unit; a deliberately wrong reference
    counts as failures; verify_unreduced fails only on its unreduced inputs;
    every per-layer metric names a wrapped callable; and a directory holding
    only BENCHMARK.json and perfbench/ exits non-zero without a result."""
    problems = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for name in workload_names() + list(EXTRA_WORKLOADS):
        for trace in (0, 1):
            rc, out, result = child(name, args.seed, 0.2, trace, size="smoke")
            specs = SPEC["per_layer" if trace else "end_to_end"]
            ok = (rc == 0 and result is not None
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["attempted"] >= 1
                  and {k: v["unit"] for k, v in result["metrics"].items()}
                  == {s["name"]: s["unit"] for s in specs}
                  and all(isinstance(v["value"], (int, float))
                          for v in result["metrics"].values()))
            expect(ok, f"{name} trace {trace}: every metric emitted with its unit")
            if not ok:
                print(out)
                continue
            if name in EXTRA_WORKLOADS:
                expect(result["failed"] >= 1 and "other failures: 0" in out,
                       f"{name} trace {trace}: only the unreduced inputs fail "
                       f"({result['failed']} of {result['attempted']})")
            else:
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace {trace}: no failures")
    rc, _, result = child("sweep", args.seed, 0.2, 0, size="smoke",
                          extra=("--wrong-reference",))
    expect(rc == 0 and result is not None and not result["correct"]
           and result["failed"] > 0,
           "sweep with a wrong reference digest counts failures")

    coldstart.add_src_to_path()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    unknown = [s["name"] for s in SPEC["per_layer"]
               if s["name"] not in ("trace.overhead_frac", "families.useful_report_ratio")
               and not tracer.knows(s["name"].rsplit(".", 1)[0])]
    expect(not unknown, f"every per-layer metric names a wrapped callable {unknown or ''}")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare, env=subprocess_env())
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("smoke: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; default: all of them, one at a time")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for --smoke")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="sweep: corrupt one pinned report digest, for --smoke")
    ap.add_argument("--smoke", action="store_true", help="check the benchmark itself")
    args = ap.parse_args()
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        return run_all(args)
    if args.workload not in workload_names() + list(EXTRA_WORKLOADS):
        ap.error(f"unknown workload {args.workload!r}")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
