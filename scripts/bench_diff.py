#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json results and gate on regressions.

Usage:
    bench_diff.py [--threshold PCT] [--verbose]
                  [--require-metric METRIC]... OLD NEW

OLD and NEW are directories containing BENCH_<name>.json files (as
written by the bench binaries; see docs/METRICS.md for the schema), or
two individual result files.  Cases are matched by (bench, label) and
their deterministic simulated cycle counts compared:

  - new > old * (1 + PCT/100)  ->  regression (exit 1)
  - cycles == 0 on either side ->  skipped (wall-time-only case, e.g.
                                   the micro_mechanisms host benches)
  - present on one side only   ->  reported, not fatal

Host-speed gauges (the dotted "host.*" family, e.g. host.refs_per_sec)
are wall-clock measurements and therefore advisory: they are printed
when both sides carry them but never gate the exit code, and their
ratio only means something when both sides ran on the same machine.
`--require-metric M` (repeatable) turns a *candidate-side* gap into a
structural error: every NEW case must carry metric M (dotted path) or
the diff exits 2 naming the offending bench/case/metric.  By default
the first gap aborts the run; `--list-missing` collects *every*
violation across all benches and cases, prints the full list, and then
exits 2 — useful when wiring a new gauge through many benches at once.

Exit codes: 0 no regression, 1 regression(s) past threshold,
2 structural error (unreadable input, bad schema, nothing to compare,
or a --require-metric violation).
"""

import argparse
import json
import math
import os
import sys

SCHEMA = "memfwd.bench"
VERSION = 1

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2


def fail(msg):
    print(f"bench_diff: error: {msg}", file=sys.stderr)
    sys.exit(EXIT_ERROR)


def load_report(path):
    """Load and schema-check one BENCH_*.json file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        fail(f"{path}: not a {SCHEMA} document")
    if doc.get("version") != VERSION:
        fail(f"{path}: schema version {doc.get('version')!r}, "
             f"expected {VERSION}")
    for key in ("bench", "cases"):
        if key not in doc:
            fail(f"{path}: missing required key '{key}'")
    bench = doc["bench"]
    for i, case in enumerate(doc["cases"]):
        # Name the offending case and the exact metric so a failing CI
        # run points at the bench to fix, not just the file.
        label = case.get("label", f"<case #{i}>")
        for metric in ("label", "cycles"):
            if metric not in case:
                fail(f"{path}: bench '{bench}' case '{label}' is "
                     f"missing required metric '{metric}'")
        try:
            int(case["cycles"])
        except (TypeError, ValueError):
            fail(f"{path}: bench '{bench}' case '{label}': metric "
                 f"'cycles' is not an integer "
                 f"(got {case['cycles']!r})")
    return doc


def load_side(path):
    """Return {(bench, label): case} for a directory or single file."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path)
            if f.startswith("BENCH_") and f.endswith(".json"))
        if not files:
            fail(f"{path}: no BENCH_*.json files")
    elif os.path.isfile(path):
        files = [path]
    else:
        fail(f"{path}: no such file or directory")

    cases = {}
    for f in files:
        doc = load_report(f)
        for case in doc["cases"]:
            key = (doc["bench"], case["label"])
            if key in cases:
                fail(f"{f}: bench '{key[0]}' case '{key[1]}' defined "
                     f"more than once")
            cases[key] = case
    return cases


def lookup_metric(case, dotted):
    """Resolve a dotted metric path ('host.refs_per_sec') in a case."""
    node = case
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--verbose", action="store_true",
                    help="print every compared case, not just changes")
    ap.add_argument("--require-metric", action="append", default=[],
                    metavar="METRIC", dest="require_metric",
                    help="dotted metric path every candidate case must "
                         "carry (repeatable); a missing one is a "
                         "structural error (exit 2) naming the "
                         "bench/case/metric")
    ap.add_argument("--list-missing", action="store_true",
                    help="with --require-metric, report every missing "
                         "metric across all benches/cases before "
                         "exiting 2, instead of stopping at the first")
    ap.add_argument("old", help="baseline results (directory or file)")
    ap.add_argument("new", help="candidate results (directory or file)")
    args = ap.parse_args()

    old = load_side(args.old)
    new = load_side(args.new)

    missing_required = []
    for metric in args.require_metric:
        for (bench, label), case in sorted(new.items()):
            if lookup_metric(case, metric) is None:
                if not args.list_missing:
                    fail(f"candidate bench '{bench}' case '{label}' is "
                         f"missing required metric '{metric}' "
                         f"(--require-metric)")
                missing_required.append((bench, label, metric))
    if missing_required:
        for bench, label, metric in missing_required:
            print(f"bench_diff: missing: bench '{bench}' case "
                  f"'{label}' lacks required metric '{metric}'",
                  file=sys.stderr)
        fail(f"{len(missing_required)} required-metric violation(s) "
             f"(--require-metric, listed above)")

    common = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))

    if not common:
        fail("no common (bench, label) cases between the two sides")

    regressions = []
    improvements = []
    skipped = 0
    checksum_changes = []
    host_notes = []

    for key in common:
        o, n = old[key], new[key]
        oc, nc = int(o["cycles"]), int(n["cycles"])

        # Host-speed gauges: advisory only (wall clock is not
        # comparable across machines), but track them when present.
        o_rps = lookup_metric(o, "host.refs_per_sec")
        n_rps = lookup_metric(n, "host.refs_per_sec")
        if o_rps and n_rps:
            ratio = float(n_rps) / float(o_rps)
            host_notes.append((key, float(o_rps), float(n_rps), ratio))

        if oc == 0 or nc == 0:
            skipped += 1
            continue
        if ("checksum" in o and "checksum" in n
                and o["checksum"] != n["checksum"]
                and (o["checksum"] or n["checksum"])):
            checksum_changes.append(key)
        delta = 100.0 * (nc - oc) / oc
        tag = f"{key[0]}:{key[1]}"
        if delta > args.threshold:
            regressions.append((tag, oc, nc, delta))
        elif delta < -args.threshold:
            improvements.append((tag, oc, nc, delta))
        elif args.verbose:
            print(f"  ok        {tag}: {oc} -> {nc} ({delta:+.2f}%)")

    for tag, oc, nc, delta in improvements:
        print(f"  improved  {tag}: {oc} -> {nc} ({delta:+.2f}%)")
    for tag, oc, nc, delta in regressions:
        print(f"  REGRESSED {tag}: {oc} -> {nc} ({delta:+.2f}%)")
    for key in checksum_changes:
        print(f"  note: checksum changed for {key[0]}:{key[1]} "
              "(output differs, not just performance)")
    for key in only_old:
        print(f"  note: case gone in new results: {key[0]}:{key[1]}")
    for key in only_new:
        print(f"  note: new case (no baseline): {key[0]}:{key[1]}")
    if args.verbose:
        for key, o_rps, n_rps, ratio in host_notes:
            print(f"  host      {key[0]}:{key[1]}: "
                  f"{o_rps:,.0f} -> {n_rps:,.0f} refs/s "
                  f"({ratio:.2f}x, advisory)")

    print(f"bench_diff: {len(common)} matched cases, "
          f"{skipped} wall-time-only skipped, "
          f"{len(improvements)} improved, {len(regressions)} regressed "
          f"(threshold {args.threshold:.1f}%)")
    if host_notes:
        gm = math.exp(sum(math.log(r) for *_, r in host_notes) /
                      len(host_notes))
        print(f"bench_diff: host.refs_per_sec wall-clock ratio of the "
              f"two builds, geometric mean {gm:.2f}x over "
              f"{len(host_notes)} cases (advisory: only meaningful when "
              f"both sides ran on the same machine)")

    return EXIT_REGRESSION if regressions else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
