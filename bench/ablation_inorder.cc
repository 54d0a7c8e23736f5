/**
 * @file
 * Ablation: out-of-order vs. in-order execution.
 *
 * Section 3.2 motivates data dependence speculation *because* the host
 * is an out-of-order superscalar: forwarding delays final-address
 * generation, which only matters if loads want to bypass older stores.
 * This bench reruns the workloads on an in-order, blocking
 * configuration (width 1, minimal window, 1 port) to show (a) how much
 * of the machine's baseline performance comes from overlap, and (b)
 * that the layout optimizations win on BOTH machines — their benefit
 * is fewer misses, not just better overlap.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
main()
{
    memfwd::bench::Report report("ablation_inorder");
    header("Ablation: out-of-order (4-wide, 64-entry) vs. in-order "
           "(1-wide, blocking); 64B lines",
           "layout optimizations must win on both machines");

    std::printf("%-10s %22s %22s %12s\n", "app",
                "OoO: N cyc -> L spd", "InO: N cyc -> L spd",
                "InO/OoO (N)");

    for (const std::string wl : {"health", "mst", "vis"}) {
        // Half scale: in-order runs are slow.
        RunConfig cfg = benchConfig(wl, machineAt(64), 0.5);
        const RunPair ooo = runPair(wl + "/ooo", cfg);
        cfg.machine.cpu.width = 1;
        cfg.machine.cpu.window = 2;
        cfg.machine.cpu.mem_ports = 1;
        cfg.machine.cpu.store_buffer = 1;
        const RunPair ino = runPair(wl + "/inorder", cfg);
        if (ooo.n.checksum != ino.n.checksum)
            memfwd_fatal("checksum mismatch between %s/ooo and %s/inorder",
                         wl.c_str(), wl.c_str());
        const auto cycles = [](const RunResult &r) {
            return double(r.metrics.counterAt("cycles"));
        };
        char ooo_col[32], ino_col[32];
        std::snprintf(ooo_col, sizeof(ooo_col), "%.1fM -> %.2fx",
                      cycles(ooo.n) / 1e6, ooo.speedup());
        std::snprintf(ino_col, sizeof(ino_col), "%.1fM -> %.2fx",
                      cycles(ino.n) / 1e6, ino.speedup());
        std::printf("%-10s %22s %22s %11.2fx\n", wl.c_str(), ooo_col,
                    ino_col, cycles(ino.n) / cycles(ooo.n));
    }

    std::printf("\ntakeaway: the optimizations win on both machines, "
                "but MORE on the out-of-order one: the pointer-chasing "
                "misses they eliminate were serial on either machine, "
                "while the relocation work they add is "
                "instruction-level-parallel — cheap on a 4-wide OoO, "
                "comparatively expensive on a 1-wide blocking core.  "
                "The paper's choice to evaluate on a modern OoO "
                "superscalar (Section 2.3: \"modern processors can "
                "execute multiple instructions per cycle\") is exactly "
                "why relocation overhead \"is usually not a "
                "problem\".\n");
    return 0;
}
