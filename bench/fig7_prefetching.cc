/**
 * @file
 * Figure 7: interaction between the locality optimizations and
 * software prefetching at 32B lines.
 *
 * Four cases per application: N (original), L (locality-optimized),
 * NP (original + prefetching), LP (optimized + prefetching).  As in
 * Section 5.2, the prefetch block size is swept and the best result is
 * reported for each prefetching case.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("fig7_prefetching");
    header("Figure 7: impact on prefetching effectiveness (32B lines)",
           "bars normalized to N = 100; prefetch block size swept, "
           "best reported");

    unsigned lp_beats_both = 0;
    for (const auto &name : figure5Workloads()) {
        RunConfig cfg = benchConfig(name, machineAt(32));
        const auto [n, l] = runPair(name + "/32B", cfg);
        const RunResult np = runBestCase(name + "/32B/NP_best", cfg);
        cfg.variant.layout_opt = true;
        const RunResult lp = runBestCase(name + "/32B/LP_best", cfg);

        const auto cycles = [](const RunResult &r) {
            return r.metrics.counterAt("cycles");
        };
        const double norm = double(cycles(n));
        std::printf("\n%s\n", name.c_str());
        printBar("N", n, norm);
        printBar("NP", np, norm);
        printBar("L", l, norm);
        printBar("LP", lp, norm);
        std::printf("  best prefetch block: NP=%u lines, LP=%u lines; "
                    "LP vs NP %+.0f%%\n",
                    np.variant.prefetch_block, lp.variant.prefetch_block,
                    100.0 * (double(cycles(np)) / double(cycles(lp)) - 1));
        if (cycles(lp) < cycles(np) && cycles(lp) < cycles(l))
            ++lp_beats_both;
    }

    std::printf("\n%u of 7 apps: combining locality optimization with "
                "prefetching (LP) beats either alone\n"
                "paper shape: locality optimizations improve prefetching "
                "in 5 apps (pointer-chasing relieved); the techniques "
                "are complementary.\n",
                lp_beats_both);
    return 0;
}
