/**
 * @file
 * Table 1: the application roster — description, optimization applied,
 * and the space overhead of relocated data (the paper reports 0.5MB to
 * 14.9MB of virtual memory for relocation targets).
 */

#include <cstdio>

#include "bench_util.hh"
#include "workloads/workload.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("table1_applications");
    header("Table 1: Applications and optimizations",
           "Space overhead = virtual memory consumed by relocation "
           "targets in the L run");

    std::printf("%-10s %-7s %-11s %s\n", "App", "Space", "Insns (L)",
                "Optimization applied");
    std::printf("%-10s %-7s %-11s %s\n", "---", "-----", "---------",
                "--------------------");

    for (const auto &name : workloadNames()) {
        const RunResult l = run(name, 32, /*layout_opt=*/true);
        std::printf("%-10s %5.1fMB %-11s %s\n", name.c_str(),
                    double(l.space_overhead_bytes) / double(1 << 20),
                    withCommas(l.metrics.counterAt("instructions")).c_str(),
                    makeWorkload(name)->optimization().c_str());
    }

    std::printf("\nDescriptions:\n");
    for (const auto &name : workloadNames()) {
        std::printf("  %-10s %s\n", name.c_str(),
                    makeWorkload(name)->description().c_str());
    }
    return 0;
}
