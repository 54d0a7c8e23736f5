/**
 * @file
 * Microbenchmark of the forwarding translation cache and lazy chain
 * collapsing on the worst case the paper's overhead analysis implies:
 * a population of objects each buried behind a 16-deep forwarding
 * chain, referenced repeatedly through their original (stale)
 * addresses.
 *
 * Four configurations — accelerations off, FTC only, collapsing only,
 * both — report the mean hops actually walked per forwarded reference
 * and the simulated cycles of the reference phase.  Off must sit at
 * the full chain depth (~16); FTC+collapse must amortize the single
 * fill walk across every later reference (< 1.2 hops/ref, enforced —
 * the binary exits nonzero if the acceleration stops working).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

#include "common/logging.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

constexpr unsigned chain_depth = 16;
constexpr unsigned refs_per_object = 64;
constexpr Addr obj_base = 0x00100000;
// 73 words — coprime with the FTC set count, so object chain heads
// spread evenly across the sets.  A power-of-two stride would alias
// every object into the same few sets and measure LRU thrash instead
// of the steady-state hit rate.
constexpr Addr obj_stride = 73 * wordBytes;
constexpr unsigned obj_words = 4;
// Pinned FTC geometry; the working set (objects * obj_words chain
// heads) is capped to fit, because this bench measures the cost of
// resolving through a deep chain, not FTC capacity misses.
constexpr unsigned ftc_sets = 64;
constexpr unsigned ftc_ways = 4;

struct CaseResult
{
    double mean_hops = 0.0;
    double ftc_hit_rate = 0.0;
    Cycles cycles = 0;
    std::uint64_t checksum = 0;
    std::uint64_t chains_collapsed = 0;
};

CaseResult
runChains(const std::string &label, const MachineConfig &mc,
          unsigned objects)
{
    const Stopwatch clock;
    Machine m(mc);

    // Build the chains: each object relocated chain_depth times, so a
    // reference through the original address walks the full depth.
    Addr bump = 0x08000000;
    for (unsigned i = 0; i < objects; ++i) {
        for (unsigned w = 0; w < obj_words; ++w)
            m.access(Access::store(obj_base + Addr(i) * obj_stride + w * wordBytes, 8,
                    i * 1000 + w));
        for (unsigned d = 0; d < chain_depth; ++d) {
            relocate(m, obj_base + Addr(i) * obj_stride, bump, obj_words);
            bump += obj_words * wordBytes + 0x40;
        }
    }

    // Measure only the reference phase.
    m.forwarding().clearStats();
    const Cycles ref_start = m.cycles();
    std::uint64_t checksum = 0;
    Cycles dep = 0;
    for (unsigned r = 0; r < refs_per_object; ++r) {
        for (unsigned i = 0; i < objects; ++i) {
            const Addr a =
                obj_base + Addr(i) * obj_stride + (r % obj_words) * wordBytes;
            const AccessResult lr = m.access(Access::load(a, 8, dep));
            dep = lr.ready;
            checksum = checksum * 31 + lr.value;
        }
    }
    const double wall_ms = clock.ms();

    const ForwardingStats &st = m.forwarding().stats();
    const std::uint64_t forwarded = st.walks + st.ftc_hits;
    CaseResult res;
    res.mean_hops = forwarded ? double(st.hops) / double(forwarded) : 0.0;
    res.ftc_hit_rate =
        st.ftc_hits + st.ftc_misses
            ? double(st.ftc_hits) / double(st.ftc_hits + st.ftc_misses)
            : 0.0;
    res.cycles = m.cycles() - ref_start;
    res.checksum = checksum;
    res.chains_collapsed = st.chains_collapsed;

    if (auto *rep = Report::current()) {
        rep->addCase(label, res.cycles, m.cpu().instructions(), checksum,
                     m.metrics(), wall_ms);
    }
    return res;
}

} // namespace

int
main()
{
    setVerbose(false);
    memfwd::bench::Report report("micro_ftc");
    header("FTC + chain collapsing: 16-deep chains, stale references",
           "mean hops walked per forwarded reference; off ~ chain "
           "depth, both must amortize the fill walk");

    const unsigned objects = std::min(
        ftc_sets * ftc_ways / obj_words,
        std::max(8u, unsigned(64 * benchScale())));
    std::printf("\n%u objects x %u refs through %u-deep chains\n\n",
                objects, refs_per_object, chain_depth);

    struct Config
    {
        const char *label;
        MachineConfig mc;
    };
    const std::vector<Config> configs = {
        {"off", MachineConfig{}},
        {"ftc", MachineConfig{}.ftcGeometry(ftc_sets, ftc_ways)},
        {"collapse", MachineConfig{}.collapse()},
        {"ftc+collapse",
         MachineConfig{}.ftcGeometry(ftc_sets, ftc_ways).collapse()},
    };

    std::printf("%-14s %10s %10s %12s %10s\n", "config", "hops/ref",
                "hit rate", "ref cycles", "collapsed");
    std::vector<CaseResult> results;
    for (const Config &c : configs) {
        results.push_back(runChains(c.label, c.mc, objects));
        const CaseResult &r = results.back();
        std::printf("%-14s %10.3f %9.1f%% %12s %10s\n", c.label,
                    r.mean_hops, 100.0 * r.ftc_hit_rate,
                    withCommas(r.cycles).c_str(),
                    withCommas(r.chains_collapsed).c_str());
    }

    // The accelerations are semantics-preserving: every configuration
    // must read identical values.
    for (const CaseResult &r : results) {
        if (r.checksum != results[0].checksum) {
            std::printf("CHECKSUM MISMATCH\n");
            return 1;
        }
    }

    const double off_hops = results[0].mean_hops;
    const double both_hops = results[3].mean_hops;
    std::printf("\noff walks the full chain (%.1f hops/ref); "
                "ftc+collapse amortizes one fill walk across %u refs "
                "(%.3f hops/ref, %.0fx fewer)\n",
                off_hops, refs_per_object, both_hops,
                both_hops > 0 ? off_hops / both_hops : 0.0);

    if (off_hops < chain_depth - 0.5) {
        std::printf("FAIL: off-config chains were not %u deep\n",
                    chain_depth);
        return 1;
    }
    if (both_hops >= 1.2) {
        std::printf("FAIL: ftc+collapse mean hops/ref %.3f >= 1.2\n",
                    both_hops);
        return 1;
    }
    return 0;
}
