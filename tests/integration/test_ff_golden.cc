/**
 * @file
 * Golden simulated cycles under fast-forward.
 *
 * Every workload (the paper's eight plus kv_server) runs at scale 0.05
 * under whole-program, build-only and kernel-only fast-forward, in the
 * N and L variants.  The expected cycles, instructions and graduation
 * slots were recorded from the model before OooCpu deferred ALU
 * retirement to its first observer and Rob::aluBurst became closed
 * form; both transformations must leave every figure unchanged.  No
 * committed bench case sets fastForward(), so nothing else pins these
 * numbers exactly.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "runtime/machine.hh"
#include "workloads/workload.hh"

namespace memfwd
{
namespace
{

struct FastForwardGolden
{
    const char *workload;
    const char *region;
    bool layout_opt;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t busy;
    std::uint64_t load_stall;
    std::uint64_t store_stall;
    std::uint64_t inst_stall;
};

// Recorded at seed 7, scale 0.05, default MachineConfig.
constexpr FastForwardGolden kGolden[] = {
    {"bh", "all", false, 199943, 799771, 799771, 0, 0, 4},
    {"bh", "all", true, 202877, 811505, 811505, 0, 0, 4},
    {"bh", "build", false, 235716, 799771, 799771, 142864, 0, 231},
    {"bh", "build", true, 251324, 811505, 811505, 172766, 19703, 1324},
    {"bh", "kernel", false, 215022, 799771, 799771, 45843, 13736, 742},
    {"bh", "kernel", true, 224690, 811505, 811505, 51247, 33695, 2314},
    {"compress", "all", false, 217081, 868324, 868324, 0, 0, 4},
    {"compress", "all", true, 221406, 885624, 885624, 0, 0, 4},
    {"compress", "build", false, 266872, 868324, 868324, 195622, 330, 3213},
    {"compress", "build", true, 242409, 885624, 885624, 80467, 417, 3131},
    {"compress", "kernel", false, 225406, 868324, 868324, 0, 33286, 18},
    {"compress", "kernel", true, 241230, 885624, 885624, 75940, 2843, 515},
    {"eqntott", "all", false, 67515, 270060, 270060, 0, 0, 4},
    {"eqntott", "all", true, 70902, 283608, 283608, 0, 0, 4},
    {"eqntott", "build", false, 129249, 270060, 270060, 245570, 0, 1369},
    {"eqntott", "build", true, 106449, 283608, 283608, 139774, 0, 2418},
    {"eqntott", "kernel", false, 89452, 270060, 270060, 0, 87731, 18},
    {"eqntott", "kernel", true, 102395, 283608, 283608, 11029, 114929, 18},
    {"health", "all", false, 13771, 55084, 55084, 0, 0, 4},
    {"health", "all", true, 13781, 55124, 55124, 0, 0, 4},
    {"health", "build", false, 35320, 55084, 55084, 72137, 10112, 3950},
    {"health", "build", true, 35164, 55124, 55124, 71574, 10163, 3798},
    {"health", "kernel", false, 16468, 55084, 55084, 0, 10786, 6},
    {"health", "kernel", true, 16487, 55124, 55124, 0, 10821, 6},
    {"mst", "all", false, 13976, 55901, 55901, 0, 0, 4},
    {"mst", "all", true, 17232, 68928, 68928, 0, 0, 4},
    {"mst", "build", false, 73725, 55901, 55901, 236548, 0, 2455},
    {"mst", "build", true, 85734, 68928, 68928, 264872, 1045, 8095},
    {"mst", "kernel", false, 19426, 55901, 55901, 408, 21389, 7},
    {"mst", "kernel", true, 33477, 68928, 68928, 6171, 58681, 131},
    {"radiosity", "all", false, 114930, 459719, 459719, 0, 0, 4},
    {"radiosity", "all", true, 128276, 513103, 513103, 0, 0, 4},
    {"radiosity", "build", false, 664760, 459719, 459719, 2162578, 15617, 21130},
    {"radiosity", "build", true, 638391, 513103, 513103, 1833518, 166236, 40710},
    {"radiosity", "kernel", false, 134146, 459719, 459719, 0, 76862, 6},
    {"radiosity", "kernel", true, 147435, 513103, 513103, 0, 76634, 6},
    {"smv", "all", false, 47649, 190595, 190595, 0, 0, 4},
    {"smv", "all", true, 53315, 213259, 213259, 0, 0, 4},
    {"smv", "build", false, 217608, 190595, 190595, 666483, 0, 13357},
    {"smv", "build", true, 258615, 213259, 213259, 804131, 14782, 2290},
    {"smv", "kernel", false, 60367, 190595, 190595, 1399, 49457, 18},
    {"smv", "kernel", true, 82218, 213259, 213259, 1650, 113931, 33},
    {"vis", "all", false, 224408, 897630, 897630, 0, 0, 4},
    {"vis", "all", true, 265594, 1062374, 1062374, 0, 0, 4},
    {"vis", "build", false, 709137, 897630, 897630, 1907002, 8908, 23009},
    {"vis", "build", true, 528214, 1062374, 1062374, 758756, 240120, 51609},
    {"vis", "kernel", false, 238356, 897630, 897630, 3761, 51961, 75},
    {"vis", "kernel", true, 317285, 1062374, 1062374, 12603, 180130, 14035},
    {"kv_server", "all", false, 80400, 321597, 321597, 0, 0, 4},
    {"kv_server", "all", true, 87843, 351370, 351370, 0, 0, 4},
    {"kv_server", "build", false, 93579, 321597, 321597, 45369, 4071, 3283},
    {"kv_server", "build", true, 101286, 351370, 351370, 45983, 4275, 3520},
    {"kv_server", "kernel", false, 81808, 321597, 321597, 0, 5633, 6},
    {"kv_server", "kernel", true, 89252, 351370, 351370, 0, 5633, 6},
};

TEST(FastForwardGolden, CyclesInstructionsAndSlotsArePinned)
{
    setVerbose(false);
    for (const FastForwardGolden &g : kGolden) {
        WorkloadParams params;
        params.seed = 7;
        params.scale = 0.05;
        WorkloadVariant variant;
        variant.layout_opt = g.layout_opt;

        Machine m(MachineConfig{}.fastForward(g.region));
        auto w = makeWorkload(g.workload, params);
        w->run(m, variant);

        const obs::MetricsNode tree = m.metrics();
        SCOPED_TRACE(std::string(g.workload) + " --fast-forward=" +
                     g.region + (g.layout_opt ? " L" : " N"));
        EXPECT_EQ(tree.counterAt("cycles"), g.cycles);
        EXPECT_EQ(tree.counterAt("instructions"), g.instructions);
        EXPECT_EQ(tree.counterAt("slots.busy"), g.busy);
        EXPECT_EQ(tree.counterAt("slots.load_stall"), g.load_stall);
        EXPECT_EQ(tree.counterAt("slots.store_stall"), g.store_stall);
        EXPECT_EQ(tree.counterAt("slots.inst_stall"), g.inst_stall);
    }
}

} // namespace
} // namespace memfwd
