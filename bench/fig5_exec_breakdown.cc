/**
 * @file
 * Figure 5: execution-time breakdown of the locality optimizations.
 *
 * For each of the seven applications (SMV is studied separately in
 * Figure 10) and each line size {32, 64, 128}B, prints the paper's
 * stacked bars — busy / load-stall / store-stall / inst-stall
 * graduation slots — for the unoptimized (N) and optimized (L) cases,
 * normalized to N at 32B lines, plus the per-pair speedup.
 *
 * BH additionally gets a 256B row, the line size the paper says
 * subtree clustering needs to become meaningful.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("fig5_exec_breakdown");
    header("Figure 5: execution time of locality optimizations",
           "bars normalized to N @ 32B = 100; lower is better");

    for (const auto &name : figure5Workloads()) {
        std::printf("\n%s\n", name.c_str());
        std::vector<unsigned> lines = {32, 64, 128};
        if (name == "bh")
            lines.push_back(256);

        double norm = 0;
        for (unsigned line : lines) {
            const std::string at = std::to_string(line) + "B";
            const RunPair p =
                runPair(name + "/" + at, benchConfig(name, machineAt(line)));
            if (norm == 0)
                norm = double(p.n.metrics.counterAt("cycles"));
            printBar("N@" + at, p.n, norm);
            printBar("L@" + at, p.l, norm);
            std::printf("  %-8s speedup %+.0f%%  (%.2fx)\n", at.c_str(),
                        100.0 * (p.speedup() - 1), p.speedup());
        }
    }

    std::printf("\npaper shape: N degrades as lines lengthen; L beats N "
                "everywhere except Compress at 32/64B;\n"
                "speedups grow with line size; Health and VIS exceed "
                "2x at 128B; BH needs 256B lines.\n");
    return 0;
}
