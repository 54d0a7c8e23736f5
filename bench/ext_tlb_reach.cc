/**
 * @file
 * Extension: TLB reach.
 *
 * The same scattered-vs-linearized layouts the paper evaluates for
 * caches also determine how many *pages* the working set spans.  With
 * the TLB model enabled, this bench runs the list workloads and shows
 * that linearization slashes TLB misses on top of the cache wins —
 * another instance of Section 2.2's "applies to every level of the
 * hierarchy".
 */

#include <cstdio>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("ext_tlb_reach");
    header("Extension: TLB reach (64-entry TLB, 4KB pages, 30-cycle "
           "walks; 64B lines)",
           "linearization compresses the page footprint, not just the "
           "line footprint");

    std::printf("%-10s %16s %16s %12s %16s\n", "app", "N tlb misses",
                "L tlb misses", "reduction", "L speedup");

    for (const std::string name :
         {"health", "mst", "radiosity", "vis"}) {
        RunConfig cfg = benchConfig(name, machineAt(64));
        cfg.machine.tlb.enabled = true;
        cfg.machine.tlb.entries = 64;
        cfg.machine.tlb.miss_penalty = 30;
        const RunPair p = runPair(name + "/tlb", cfg);
        const std::uint64_t n_misses = p.n.metrics.counterAt("tlb.misses");
        const std::uint64_t l_misses = p.l.metrics.counterAt("tlb.misses");
        std::printf("%-10s %16s %16s %11.1fx %15.2fx\n", name.c_str(),
                    withCommas(n_misses).c_str(),
                    withCommas(l_misses).c_str(),
                    double(n_misses) / double(l_misses), p.speedup());
    }

    std::printf("\ntakeaway: scattered nodes cost a page-table walk "
                "per touch once the working set outruns 64 pages; the "
                "linearized layouts fit their hot lists into a few "
                "pages and make the TLB effectively free.\n");
    return 0;
}
