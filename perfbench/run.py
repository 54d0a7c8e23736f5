#!/usr/bin/env python3
"""Host-speed benchmark of the memfwd simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--scale <x>]
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root.  The first call builds the simulator
library from src/ and the two drivers of this directory into
.bench_build/perfbench (perfbench_run, and perfbench_traced, which is
linked with one -Wl,--wrap interposer per layer entry point).

A run executes the workload once per process, sequentially and single
threaded, for --seconds, and then prints every metric by name and unit.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics from
untraced processes; --trace 1 alternates traced and untraced processes
and reports the per-layer metrics.  The seed (default 1) fixes the
workload's inputs; the same seed gives the same inputs and the same
simulated cycles.

Correctness: every process's checksum must equal that of the workload's
N variant for the same seed, computed once per run, and its simulated
cycles must equal those of the first run; a traced process must match
too.  A mismatch, a non-zero exit or an unreadable result counts as a
failed attempt.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DEFAULT_SEED = 1
DEFAULT_SCALE = 1.0
RUN_SECONDS = 30
PROCESS_TIMEOUT_S = 120
TAIL_MIN_BEYOND = 10

WORKLOADS = [
    {"name": "smv_stale",
     "why": "Fig. 10 SMV, L variant, timed, hardware forwarding: ~13% of "
            "loads forward; fwd, cache, cpu and machine do the work, alloc "
            "~2%"},
    {"name": "kv_compact",
     "why": "kv_server on the forwarding backend with online first-fit "
            "compaction: alloc is the largest layer (~40%), fwd small; an "
            "allocator fix shows only here"},
    {"name": "smv_ff",
     "why": "smv_stale's program fast-forwarded: resolveFunctional and "
            "batched cpu.alu, cache and LSQ bypassed; a timing-model change "
            "must read flat here"},
]

END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "refs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "sim_cycles", "unit": "cycles", "better": "lower", "bound": 0.05},
]

# Layers timed by the interposers (src/interpose.cc).  `workload` is the
# residual: traced run time that no layer span covers.
LAYERS = ["machine", "fwd", "cache", "cache.mshr", "cpu", "cpu.alu",
          "cpu.lsq", "cpu.rob", "alloc", "relocate"]

PER_LAYER = (
    [{"name": f"{layer}.{what}", "unit": unit, "better": "lower"}
     for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_frac", "fraction"),
                        ("self_ns_per_call", "ns"))]
    + [{"name": "workload.self_frac", "unit": "fraction", "better": "lower"},
       {"name": "trace_overhead", "unit": "ratio", "better": "lower"},
       {"name": "fwd.hops_per_ref", "unit": "hops/ref", "better": "lower"},
       {"name": "fwd.forwarded_frac", "unit": "fraction", "better": "lower"},
       {"name": "cache.l1_miss_rate", "unit": "fraction", "better": "lower"},
       {"name": "cache.l2_mem_bytes", "unit": "bytes", "better": "lower"},
       {"name": "cpu.lsq_violations", "unit": "count", "better": "lower"},
       {"name": "alloc.allocs", "unit": "count", "better": "lower"},
       {"name": "relocate.words", "unit": "words", "better": "lower"}])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure, then bring both drivers up to date."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def run_once(workload, seed, scale, traced=False, variant="L",
             spans_out=None):
    """One workload run in a fresh process; returns (result, setup_s),
    or (None, None) if the process failed."""
    exe = os.path.join(BUILD_DIR,
                       "perfbench_traced" if traced else "perfbench_run")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--variant", variant]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out")
        return None, None
    if proc.returncode != 0:
        log(f"perfbench: {workload} exited {proc.returncode}: "
            f"{proc.stderr.strip()}")
        return None, None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} printed no result")
        return None, None
    # Process start to the first simulated reference: exec, static init,
    # Machine and Workload construction.
    return result, result["run_start_monotonic_s"] - spawned


def median_and_tail(values):
    """Median, and the highest percentile with TAIL_MIN_BEYOND samples
    beyond it (the largest sample when there are too few)."""
    v = sorted(values)
    if len(v) > TAIL_MIN_BEYOND:
        idx = len(v) - 1 - TAIL_MIN_BEYOND
    else:
        idx = len(v) - 1
    return statistics.median(v), v[idx], 100.0 * (idx + 1) / len(v)


def ratio(num, den):
    return num / den if den else 0.0


def mem_refs(r):
    return r["counts"]["loads"] + r["counts"]["stores"]


# Per-layer metrics computed from the simulator's counters (identical on
# every run of a seed) rather than from the spans.
COUNTED = {
    "fwd.hops_per_ref": lambda r: ratio(r["counts"]["hops"], mem_refs(r)),
    "fwd.forwarded_frac": lambda r: ratio(
        r["counts"]["loads_forwarded"] + r["counts"]["stores_forwarded"],
        mem_refs(r)),
    "cache.l1_miss_rate": lambda r: ratio(r["counts"]["l1_misses"],
                                          r["counts"]["l1_accesses"]),
    "cache.l2_mem_bytes": lambda r: r["counts"]["l2_mem_bytes"],
    "cpu.lsq_violations": lambda r: r["counts"]["lsq_violations"],
    "alloc.allocs": lambda r: r["spans"]["counters"]["alloc_allocs"],
    "relocate.words": lambda r: r["counts"]["backend_relocated_words"],
}


def per_layer_metrics(traced, untraced):
    """Medians over the traced processes, and the tracing overhead."""
    metrics = {}
    for spec in PER_LAYER:
        name = spec["name"]
        if name == "trace_overhead":
            value = (statistics.median(r["run_s"] for r in traced)
                     / statistics.median(r["run_s"] for r in untraced))
        else:
            if name in COUNTED:
                values = [COUNTED[name](r) for r in traced]
            else:
                layer, what = name.rsplit(".", 1)
                values = [r["spans"]["layers"][layer][what] for r in traced]
            value = statistics.median_low(values)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def benchmark(args):
    build()
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir,
                              f"{args.workload}-seed{args.seed}.json")

    ref, _ = run_once(args.workload, args.seed, args.scale, variant="N")
    warm, _ = run_once(args.workload, args.seed, args.scale)
    if ref is None or warm is None:
        raise RuntimeError("reference or warm-up run failed")
    want = {"checksum": ref["checksum"], "sim_cycles": warm["sim_cycles"],
            "refs": warm["refs"]}

    attempted = failed = 0
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds:
        use_trace = bool(args.trace) and attempted % 2 == 0
        # The first traced process writes the Chrome trace.
        spans_out = spans_path if use_trace and not traced else None
        result, setup_s = run_once(args.workload, args.seed, args.scale,
                                   traced=use_trace, spans_out=spans_out)
        attempted += 1
        wrong = [k for k, v in want.items()
                 if result is not None and result[k] != v]
        if result is None or wrong:
            for k in wrong:
                log(f"perfbench: {k} {result[k]}, want {want[k]}")
            failed += 1
            continue
        (traced if use_trace else untraced).append(result)
        if not use_trace:
            setups.append(setup_s)
    if not untraced or (args.trace and not traced):
        raise RuntimeError("no successful run to measure")

    run_s = [r["run_s"] for r in untraced]
    print(f"perfbench {args.workload}: seed {args.seed}, scale "
          f"{args.scale}, {len(untraced)} untraced and {len(traced)} "
          f"traced processes, one workload run each")
    print(f"  checksum {want['checksum']} (= N variant), sim_cycles "
          f"{want['sim_cycles']}, refs {want['refs']}; failed_frac "
          f"{failed / attempted:.4f} ({failed} of {attempted})")
    if args.trace:
        metrics = per_layer_metrics(traced, untraced)
        print(f"  spans of one traced run: {spans_path}")
    else:
        med, tail, pct = median_and_tail(run_s)
        print(f"  run_s median {med:.4f} s, p{pct:.0f} {tail:.4f} s "
              f"(n={len(run_s)})")
        values = {
            "run_s": med,
            "refs_per_s": statistics.median(want["refs"] / s for s in run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0
                                             for r in untraced),
            "sim_cycles": want["sim_cycles"],
        }
        metrics = {spec["name"]: {"value": values[spec["name"]],
                                  "unit": spec["unit"]}
                   for spec in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def write_benchmark_json():
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
    with open("BENCHMARK.json", "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json from the definitions above")
    args = p.parse_args()
    if args.write_benchmark_json:
        write_benchmark_json()
        return 0
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        p.error("--seed must be >= 0, --seconds and --scale > 0")
    try:
        benchmark(args)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
