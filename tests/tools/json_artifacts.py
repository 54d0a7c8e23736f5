#!/usr/bin/env python3
"""Load the JSON artifacts the tools ship with an independent parser.

usage: json_artifacts.py MEMFWD_SIM MEMFWD_LINT FIG10_BENCH TLB_BENCH OUT_DIR

The simulator writes its artifacts and never reads them back, so this
check reads them with python3's json module instead:

  - memfwd_sim --json - stdout (with --opt --audit), memfwd_lint
    --json - stdout and memfwd_lint --selftest --json - stdout must each
    be exactly one JSON document, with the human-readable report on
    stderr; both lint documents are schema version 3, which dropped
    the keys of the removed pairwise-plan sweep;
  - fig10_smv_forwarding's BENCH_*.json report and its MEMFWD_TRACE_OUT
    chrome trace, written into OUT_DIR;
  - the host gauges of fig10's and ext_tlb_reach's reports: every
    case's host.refs is its metrics tree's refs.executed counter, and
    every ext_tlb_reach case has a nonzero host.refs_per_sec.

NaN and Infinity are rejected: they are not JSON.  Exits nonzero with a
message on the first failure.
"""

import glob
import json
import os
import shutil
import subprocess
import sys


def fail(message):
    sys.exit("json_artifacts: " + message)


def reject_constant(name):
    raise ValueError("non-JSON constant " + name)


def load(what, text):
    try:
        return json.loads(text, parse_constant=reject_constant)
    except ValueError as e:
        fail(f"{what} is not one JSON document: {e}")


def run(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def expect(cond, message):
    if not cond:
        fail(message)


def tree_refs(case):
    """The case's refs.executed counter, 0 when it records no tree."""
    refs = case["metrics"].get("children", {}).get("refs", {})
    return refs.get("counters", {}).get("executed", 0)


def check_host_refs(path, doc):
    for case in doc["cases"]:
        expect(case["host"]["refs"] == tree_refs(case),
               f"{path} case {case['label']}: host.refs "
               f"{case['host']['refs']} is not its tree's refs.executed "
               f"{tree_refs(case)}")


def run_bench(bench, out_dir, extra_env=None):
    """Run @bench at the smoke scale; return its report's path and doc."""
    env = dict(os.environ, MEMFWD_BENCH_SCALE="0.05",
               MEMFWD_BENCH_OUT=out_dir, **(extra_env or {}))
    run([bench], env=env)
    reports = glob.glob(os.path.join(out_dir, "BENCH_*.json"))
    expect(len(reports) == 1,
           f"{bench} wrote {len(reports)} BENCH_*.json into {out_dir}")
    with open(reports[0]) as f:
        doc = load(reports[0], f.read())
    expect(doc.get("cases"), f"{reports[0]} has no cases")
    return reports[0], doc


def main():
    if len(sys.argv) != 6:
        sys.exit(__doc__)
    sim, lint, fig10, tlb, out_dir = sys.argv[1:]

    proc = run([sim, "--workload=mst", "--scale=0.05", "--opt", "--audit",
                "--json", "-"])
    doc = load("memfwd_sim --json - stdout", proc.stdout)
    expect(doc.get("schema") == "memfwd.metrics",
           "memfwd_sim document has no memfwd.metrics schema")
    expect("audit" in doc["metrics"]["children"],
           "memfwd_sim --audit document has no audit metrics")
    expect("checksum" in proc.stderr,
           "memfwd_sim report did not go to stderr")

    proc = run([lint, "--workload", "mst", "--scale", "0.05", "--json",
                "-"])
    doc = load("memfwd_lint --json - stdout", proc.stdout)
    expect(doc.get("schema") == "memfwd.lint",
           "memfwd_lint document has no memfwd.lint schema")
    expect(doc.get("version") == 3, "memfwd_lint document is not version 3")
    expect("interference_window" not in doc,
           "memfwd_lint v3 document carries interference_window")
    expect(all("interference" not in wl for wl in doc["workloads"]),
           "memfwd_lint v3 workload carries an interference block")
    expect("total" in proc.stderr, "memfwd_lint report did not go to stderr")

    proc = run([lint, "--selftest", "--json", "-"])
    doc = load("memfwd_lint --selftest --json - stdout", proc.stdout)
    expect(doc.get("ok") is True, "memfwd_lint selftest document is not ok")
    expect(doc.get("version") == 3,
           "memfwd_lint selftest document is not version 3")
    expect("pair_cases" not in doc,
           "memfwd_lint v3 selftest document carries pair_cases")

    shutil.rmtree(out_dir, ignore_errors=True)
    fig10_dir = os.path.join(out_dir, "fig10")
    os.makedirs(fig10_dir)
    trace_path = os.path.join(out_dir, "fig10_trace.json")
    path, doc = run_bench(fig10, fig10_dir, {"MEMFWD_TRACE_OUT": trace_path})
    check_host_refs(path, doc)

    tlb_dir = os.path.join(out_dir, "tlb")
    os.makedirs(tlb_dir)
    path, doc = run_bench(tlb, tlb_dir)
    check_host_refs(path, doc)
    for case in doc["cases"]:
        expect(case["host"]["refs_per_sec"] > 0,
               f"{path} case {case['label']} has no host.refs_per_sec")

    with open(trace_path) as f:
        doc = load(trace_path, f.read())
    stamps = [e["ts"] for e in doc["traceEvents"] if "ts" in e]
    expect(stamps, f"{trace_path} holds no timed events")
    expect(stamps == sorted(stamps),
           f"{trace_path} timestamps are not monotonic")


if __name__ == "__main__":
    main()
