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
#include "common/logging.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

struct TlbRun
{
    Cycles cycles;
    std::uint64_t tlb_misses;
    std::uint64_t checksum;
};

TlbRun
runWithTlb(const std::string &workload, bool layout_opt)
{
    setVerbose(false);
    RunConfig cfg = benchConfig(workload, machineAt(64));
    cfg.machine.tlb.enabled = true;
    cfg.machine.tlb.entries = 64;
    cfg.machine.tlb.miss_penalty = 30;
    cfg.variant.layout_opt = layout_opt;

    Machine machine(cfg.machine);
    auto w = makeWorkload(cfg.workload, cfg.params);
    w->run(machine, cfg.variant);

    if (auto *rep = Report::current()) {
        rep->addCase(workload + "/tlb/" + (layout_opt ? "L" : "N"),
                     machine.cycles(), machine.cpu().instructions(),
                     w->checksum(), machine.metrics());
    }
    return {machine.cycles(), machine.tlb().faults(), w->checksum()};
}

} // namespace

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
        const TlbRun n = runWithTlb(name, false);
        const TlbRun l = runWithTlb(name, true);
        if (n.checksum != l.checksum) {
            std::printf("CHECKSUM MISMATCH for %s\n", name.c_str());
            return 1;
        }
        std::printf("%-10s %16s %16s %11.1fx %15.2fx\n", name.c_str(),
                    withCommas(n.tlb_misses).c_str(),
                    withCommas(l.tlb_misses).c_str(),
                    double(n.tlb_misses) / double(l.tlb_misses),
                    double(n.cycles) / double(l.cycles));
    }

    std::printf("\ntakeaway: scattered nodes cost a page-table walk "
                "per touch once the working set outruns 64 pages; the "
                "linearized layouts fit their hot lists into a few "
                "pages and make the TLB effectively free.\n");
    return 0;
}
