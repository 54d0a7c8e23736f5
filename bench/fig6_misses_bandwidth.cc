/**
 * @file
 * Figure 6: (a) load D-cache misses split into partial and full
 * misses, and (b) bytes transferred on the L1<->L2 and L2<->memory
 * links — both normalized to the N case at 32B lines, for the seven
 * Figure-5 applications.
 */

#include <cstdio>
#include <map>
#include <utility>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("fig6_misses_bandwidth");

    // One run per configuration, reused by both figure panels (and
    // recorded once in the report).
    std::map<std::pair<std::string, unsigned>, RunPair> results;
    for (const auto &name : figure5Workloads())
        for (unsigned line : {32u, 64u, 128u})
            results[{name, line}] =
                runPair(name + "/" + std::to_string(line) + "B",
                        benchConfig(name, machineAt(line)));

    header("Figure 6(a): load D-cache misses (partial/full)",
           "normalized to N @ 32B = 100");

    unsigned reduced_35 = 0, cases = 0;
    for (const auto &name : figure5Workloads()) {
        std::printf("\n%s\n", name.c_str());
        double norm = 0;
        for (unsigned line : {32u, 64u, 128u}) {
            const auto &[n, l] = results[{name, line}];
            const auto partial = [](const RunResult &r) {
                return r.metrics.counterAt("l1d.load_partial_misses");
            };
            const auto full = [](const RunResult &r) {
                return r.metrics.counterAt("l1d.load_full_misses");
            };
            const auto misses = [&](const RunResult &r) {
                return partial(r) + full(r);
            };
            if (norm == 0)
                norm = double(misses(n));
            const double scale = 100.0 / norm;
            std::printf("  N@%-4u total %6.1f (partial %5.1f full %6.1f)"
                        "   [%s misses]\n",
                        line, misses(n) * scale, partial(n) * scale,
                        full(n) * scale, withCommas(misses(n)).c_str());
            std::printf("  L@%-4u total %6.1f (partial %5.1f full %6.1f)"
                        "   [%s misses]\n",
                        line, misses(l) * scale, partial(l) * scale,
                        full(l) * scale, withCommas(misses(l)).c_str());
            ++cases;
            if (misses(l) <
                static_cast<std::uint64_t>(0.65 * double(misses(n))))
                ++reduced_35;
        }
    }
    std::printf("\n%u of %u cases show a >35%% miss reduction "
                "(paper: 11 of 21)\n",
                reduced_35, cases);

    header("Figure 6(b): bandwidth consumption",
           "bytes on L1<->L2 (bottom) and L2<->memory (top), "
           "normalized to N @ 32B = 100");

    for (const auto &name : figure5Workloads()) {
        std::printf("\n%s\n", name.c_str());
        double norm = 0;
        for (unsigned line : {32u, 64u, 128u}) {
            const auto &[n, l] = results[{name, line}];
            const auto l1_l2 = [](const RunResult &r) {
                return r.metrics.counterAt("traffic.l1_l2_bytes");
            };
            const auto l2_mem = [](const RunResult &r) {
                return r.metrics.counterAt("traffic.l2_mem_bytes");
            };
            if (norm == 0)
                norm = double(l1_l2(n) + l2_mem(n));
            const double scale = 100.0 / norm;
            std::printf(
                "  N@%-4u total %6.1f (l1<->l2 %6.1f  l2<->mem %6.1f)\n",
                line, (l1_l2(n) + l2_mem(n)) * scale, l1_l2(n) * scale,
                l2_mem(n) * scale);
            std::printf(
                "  L@%-4u total %6.1f (l1<->l2 %6.1f  l2<->mem %6.1f)\n",
                line, (l1_l2(l) + l2_mem(l)) * scale, l1_l2(l) * scale,
                l2_mem(l) * scale);
        }
    }

    std::printf("\npaper shape: locality optimizations reduce misses "
                "substantially and cut bandwidth in nearly all cases, "
                "with 2x+ reductions in a few.\n");
    return 0;
}
