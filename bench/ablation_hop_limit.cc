/**
 * @file
 * Ablation: the forwarding hop-limit choice (Section 3.2, "Handling
 * Forwarding Cycles").
 *
 * The hardware keeps only a cheap hop counter; when it overflows, an
 * exception runs the accurate software cycle check.  A small limit
 * fires false alarms on long (legitimate) chains; a large limit delays
 * detection of real cycles.  This bench drives reference streams over
 * synthetic chains of varying length and reports the cost of each
 * limit, plus detection latency on an actual cycle.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/cycle_check.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

/** Time `refs` dependent loads through a chain of `len` hops. */
Cycles
timeChain(unsigned hop_limit, unsigned chain_len, unsigned refs)
{
    MachineConfig mc;
    mc.forwarding.hop_limit = hop_limit;
    const Stopwatch clock;
    Machine m(mc);
    SimAllocator alloc(m, 42);

    Addr head = alloc.alloc(8, Placement::scattered);
    m.access(Access::store(head, 8, 1234));
    const Addr origin = head;
    for (unsigned i = 0; i < chain_len; ++i) {
        const Addr t = alloc.alloc(8, Placement::scattered);
        relocate(m, head, t, 1);
        head = t;
    }

    const Cycles start = m.cycles();
    Cycles dep = 0;
    for (unsigned r = 0; r < refs; ++r)
        dep = m.access(Access::load(origin, 8, dep)).ready;
    const Cycles elapsed = m.cycles() - start;
    const double wall_ms = clock.ms();

    if (auto *rep = Report::current()) {
        rep->addCase("len" + std::to_string(chain_len) + "/limit" +
                         std::to_string(hop_limit),
                     elapsed, m.cpu().instructions(), 0, m.metrics(),
                     wall_ms);
    }
    return elapsed;
}

} // namespace

int
main()
{
    memfwd::bench::Report report("ablation_hop_limit");
    header("Ablation: forwarding hop limit vs. accurate cycle check",
           "cost of 10,000 loads through chains of each length; false "
           "alarms charge the software check");

    std::printf("%-12s", "chain len");
    for (unsigned limit : {2u, 4u, 8u, 16u, 64u})
        std::printf("  limit=%-8u", limit);
    std::printf("\n");

    for (unsigned len : {0u, 1u, 3u, 7u, 15u, 31u}) {
        std::printf("%-12u", len);
        for (unsigned limit : {2u, 4u, 8u, 16u, 64u}) {
            const Cycles c = timeChain(limit, len, 10000);
            std::printf("  %-14s", withCommas(c).c_str());
        }
        std::printf("\n");
    }

    // Detection latency for a real cycle at each limit.
    std::printf("\nreal forwarding cycle: hops walked before detection\n");
    for (unsigned limit : {2u, 8u, 64u}) {
        MachineConfig mc;
        mc.forwarding.hop_limit = limit;
        Machine m(mc);
        m.mem().unforwardedWrite(0x1000, 0x2000, true);
        m.mem().unforwardedWrite(0x2000, 0x1000, true);
        try {
            m.access(Access::load(0x1000, 8));
            std::printf("  limit=%-3u NOT DETECTED (bug)\n", limit);
            return 1;
        } catch (const ForwardingCycleError &err) {
            std::printf("  limit=%-3u detected (cycle length %u, "
                        "hardware walked <= %u hops first)\n",
                        limit, err.length(), limit + 1);
        }
    }

    std::printf("\ntakeaway: limits >= 16 never false-alarm on realistic "
                "chains (the paper's workloads need <= 2 hops), while "
                "small limits tax long chains with repeated software "
                "checks.\n");
    return 0;
}
