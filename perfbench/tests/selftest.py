#!/usr/bin/env python3
"""Self-test of the perfbench interposers.

    python3 perfbench/tests/selftest.py [--seed N] [--scale X]

Run from the repository root; builds like perfbench/run.py.  For every
workload, an untraced and a traced run of the same seed must give
identical simulated cycles, references and checksum, and the checksum
must equal the N variant's.  The span call counts must agree with the
simulator's own counters wherever both count the same thing.  Exits 1
if any check fails.
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run as perfbench  # noqa: E402


def checks(workload, plain, traced, n_variant):
    """(description, holds) pairs for one workload."""
    spans = traced["spans"]
    layers = spans["layers"]
    counters = spans["counters"]
    counts = plain["counts"]

    def calls(layer):
        return layers[layer]["calls"]

    out = [
        (f"{k} equal traced and untraced", plain[k] == traced[k])
        for k in ("sim_cycles", "refs", "checksum", "counts")
    ]
    out += [
        ("checksum equals the N variant's",
         plain["checksum"] == n_variant["checksum"]),
        ("fwd.calls == refs.loads + refs.stores",
         calls("fwd") == counts["loads"] + counts["stores"]),
        ("Machine::access calls + batched refs == refsExecuted()",
         counters["machine_access_calls"] + counters["batched_refs"]
         == plain["refs"]),
        ("relocate() words == backend.relocated_words",
         counters["relocate_words"] == counts["backend_relocated_words"]),
        ("self_frac sums to 1",
         abs(sum(v["self_frac"] for v in layers.values()) - 1.0) < 1e-9),
    ]
    if workload == "smv_ff":
        out += [(f"{layer}.calls == 0 under fast-forward", calls(layer) == 0)
                for layer in ("cache", "cache.mshr", "cpu", "cpu.lsq")]
        out.append(("one cpu.alu retirement per machine entry",
                    calls("cpu.alu") == calls("machine")))
    if workload == "kv_compact":
        largest = max(perfbench.LAYERS, key=lambda l: layers[l]["self_frac"])
        out.append((f"alloc is the largest layer by self time "
                    f"(largest: {largest})", largest == "alloc"))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=perfbench.DEFAULT_SEED)
    p.add_argument("--scale", type=float, default=0.5)
    args = p.parse_args()

    perfbench.build()
    ok = True
    for w in (w["name"] for w in perfbench.WORKLOADS):
        runs = [perfbench.run_once(w, args.seed, args.scale, **kw)[0]
                for kw in ({}, {"traced": True}, {"variant": "N"})]
        if None in runs:
            print(f"FAIL {w}: a run failed")
            ok = False
            continue
        for what, holds in checks(w, *runs):
            print(f"{'ok  ' if holds else 'FAIL'} {w}: {what}")
            ok = ok and holds
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
