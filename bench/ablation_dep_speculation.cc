/**
 * @file
 * Ablation: data dependence speculation (Section 3.2).
 *
 * With memory forwarding, a store's final address is unknown until it
 * completes, so without speculation no load could ever bypass an older
 * store.  The paper's solution is to speculate final == initial.  This
 * bench compares the speculative and conservative machines across the
 * workloads and reports how often speculation was actually wrong
 * (the paper observed "almost never").
 */

#include <cstdio>

#include "bench_util.hh"

#include "common/logging.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("ablation_dep_speculation");
    header("Ablation: data dependence speculation on initial addresses",
           "speculative vs. conservative (loads wait for older stores' "
           "final addresses); 32B lines, L variants");

    std::printf("%-10s %14s %14s %9s %14s %12s\n", "app", "spec cycles",
                "conserv cycles", "slowdown", "speculations",
                "violations");

    for (const auto &name : workloadNames()) {
        RunConfig cfg = benchConfig(name, machineAt(32));
        cfg.variant.layout_opt = true;

        cfg.machine.cpu.dep_speculation = true;
        const RunResult spec = runCase(name + "/spec", cfg);
        cfg.machine.cpu.dep_speculation = false;
        const RunResult cons = runCase(name + "/conservative", cfg);

        const std::uint64_t spec_cycles = spec.metrics.counterAt("cycles");
        const std::uint64_t cons_cycles = cons.metrics.counterAt("cycles");
        std::printf(
            "%-10s %14s %14s %8.2fx %14s %12s\n", name.c_str(),
            withCommas(spec_cycles).c_str(),
            withCommas(cons_cycles).c_str(),
            double(cons_cycles) / double(spec_cycles),
            withCommas(spec.metrics.counterAt("lsq.speculations")).c_str(),
            withCommas(spec.metrics.counterAt("lsq.violations")).c_str());
        if (spec.checksum != cons.checksum) {
            std::printf("CHECKSUM MISMATCH for %s\n", name.c_str());
            return 1;
        }
    }

    std::printf("\ntakeaway: the conservative machine forfeits memory "
                "parallelism on every workload, while violations are "
                "vanishingly rare — speculation makes forwarding's "
                "delayed final addresses essentially free.\n");
    return 0;
}
