#!/usr/bin/env python3
"""Load the JSON artifacts the tools ship with an independent parser.

usage: json_artifacts.py MEMFWD_SIM MEMFWD_LINT FIG10_BENCH OUT_DIR

The simulator writes its artifacts and never reads them back, so this
check reads them with python3's json module instead:

  - memfwd_sim --json - stdout (with --opt --audit), memfwd_lint
    --json - stdout and memfwd_lint --selftest --json - stdout must each
    be exactly one JSON document, with the human-readable report on
    stderr; both lint documents are schema version 3, which dropped
    the keys of the removed pairwise-plan sweep;
  - fig10_smv_forwarding's BENCH_*.json report and its MEMFWD_TRACE_OUT
    chrome trace, written into OUT_DIR.

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


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    sim, lint, fig10, out_dir = sys.argv[1:]

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
    os.makedirs(out_dir)
    trace_path = os.path.join(out_dir, "fig10_trace.json")
    env = dict(os.environ, MEMFWD_BENCH_SCALE="0.05",
               MEMFWD_BENCH_OUT=out_dir, MEMFWD_TRACE_OUT=trace_path)
    run([fig10], env=env)
    reports = glob.glob(os.path.join(out_dir, "BENCH_*.json"))
    expect(reports, f"fig10 wrote no BENCH_*.json into {out_dir}")
    for path in reports:
        with open(path) as f:
            doc = load(path, f.read())
        expect(doc.get("cases"), f"{path} has no cases")
    with open(trace_path) as f:
        doc = load(trace_path, f.read())
    stamps = [e["ts"] for e in doc["traceEvents"] if "ts" in e]
    expect(stamps, f"{trace_path} holds no timed events")
    expect(stamps == sorted(stamps),
           f"{trace_path} timestamps are not monotonic")


if __name__ == "__main__":
    main()
