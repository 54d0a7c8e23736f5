/** @file
 * Shape-regression tests: the paper's qualitative results, asserted at
 * reduced scale so refactoring cannot silently break the reproduction.
 * (The full-scale numbers live in the bench binaries / EXPERIMENTS.md;
 * these tests pin the *directions* that define the paper.)
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workloads/driver.hh"

namespace memfwd
{
namespace
{

RunResult
shapeRun(const std::string &wl, unsigned line, bool opt,
         ForwardingConfig::Mode mode = ForwardingConfig::Mode::hardware)
{
    setVerbose(false);
    RunConfig cfg;
    cfg.workload = wl;
    cfg.params.scale = 0.4;
    cfg.machine.hierarchy.setLineBytes(line);
    cfg.machine.forwarding.mode = mode;
    cfg.variant.layout_opt = opt;
    return runWorkload(cfg);
}

double
cycles(const RunResult &r)
{
    return double(r.metrics.counterAt("cycles"));
}

std::uint64_t
loadMisses(const RunResult &r)
{
    return r.metrics.counterAt("l1d.load_partial_misses") +
           r.metrics.counterAt("l1d.load_full_misses");
}

// Paper, Figure 5: "performance generally degrades when line size
// increases ... for the unoptimized cases" (no spatial locality).
TEST(Shapes, UnoptimizedDegradesWithLineSize)
{
    for (const std::string wl : {"vis", "mst"}) {
        const RunResult n32 = shapeRun(wl, 32, false);
        const RunResult n128 = shapeRun(wl, 128, false);
        EXPECT_GT(cycles(n128), cycles(n32)) << wl;
    }
}

// Paper, Figure 5: the list workloads' optimized cases win clearly at
// long lines.
class OptimizedWinsAt128 : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OptimizedWinsAt128, SpeedupAbove1_2)
{
    const RunResult n = shapeRun(GetParam(), 128, false);
    const RunResult l = shapeRun(GetParam(), 128, true);
    EXPECT_EQ(n.checksum, l.checksum);
    EXPECT_GT(cycles(n) / cycles(l), 1.2) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ListApps, OptimizedWinsAt128,
                         ::testing::Values("health", "mst", "radiosity",
                                           "vis", "eqntott"));

// Paper, Figure 5: speedups increase along with line size.
TEST(Shapes, SpeedupGrowsWithLineSize)
{
    for (const std::string wl : {"vis", "health"}) {
        const double s32 = cycles(shapeRun(wl, 32, false)) /
                           cycles(shapeRun(wl, 32, true));
        const double s128 = cycles(shapeRun(wl, 128, false)) /
                            cycles(shapeRun(wl, 128, true));
        EXPECT_GT(s128, s32) << wl;
    }
}

// Paper, Section 5.3: Compress is the exception — the merged layout is
// relatively WORSE at short lines than at long ones.
TEST(Shapes, CompressCrossoverDirection)
{
    const double ratio32 = cycles(shapeRun("compress", 32, true)) /
                           cycles(shapeRun("compress", 32, false));
    const double ratio128 = cycles(shapeRun("compress", 128, true)) /
                            cycles(shapeRun("compress", 128, false));
    EXPECT_GT(ratio32, ratio128);
    EXPECT_GT(ratio32, 1.0); // actually loses at 32B
}

// Paper, Section 5.3: BH's 80B cells make clustering meaningful only
// at 256B lines.
TEST(Shapes, BhNeedsLongLines)
{
    const double s64 = cycles(shapeRun("bh", 64, false)) /
                       cycles(shapeRun("bh", 64, true));
    const double s256 = cycles(shapeRun("bh", 256, false)) /
                        cycles(shapeRun("bh", 256, true));
    EXPECT_GT(s256, s64);
    EXPECT_GT(s256, 1.1);
}

// Paper, Section 5.4 / Figure 10: SMV is the workload where forwarding
// fires; the L scheme pays for it and Perf bounds the loss.
TEST(Shapes, SmvForwardingStory)
{
    const RunResult n = shapeRun("smv", 32, false);
    const RunResult l = shapeRun("smv", 32, true);
    const RunResult perf =
        shapeRun("smv", 32, true, ForwardingConfig::Mode::perfect);

    EXPECT_EQ(n.checksum, l.checksum);
    EXPECT_EQ(l.checksum, perf.checksum);

    // Forwarding actually occurs, at a plausible rate.
    EXPECT_GT(l.metrics.gaugeAt("refs.load_forwarded_fraction"), 0.01);
    EXPECT_LT(l.metrics.gaugeAt("refs.load_forwarded_fraction"), 0.40);
    // One hop each (the optimization linearizes once).
    EXPECT_EQ(perf.metrics.counterAt("refs.loads_forwarded"), 0u);
    // The overhead ordering of Figure 10(a).
    EXPECT_GT(cycles(l), cycles(perf));
}

// Paper, Figure 6(a): misses drop for the list apps at long lines.
TEST(Shapes, MissReductionAt128)
{
    for (const std::string wl : {"vis", "health", "mst"}) {
        const RunResult n = shapeRun(wl, 128, false);
        const RunResult l = shapeRun(wl, 128, true);
        EXPECT_LT(loadMisses(l), loadMisses(n)) << wl;
    }
}

// Paper, Section 3.2: dependence-speculation violations "almost never"
// happen, even where forwarding is frequent.
TEST(Shapes, SpeculationViolationsNegligible)
{
    const obs::MetricsNode m = shapeRun("smv", 32, true).metrics;
    EXPECT_GT(m.counterAt("lsq.speculations"), 0u);
    EXPECT_LE(m.counterAt("lsq.violations"),
              m.counterAt("lsq.speculations") / 100);
}

// Paper, Table 1: relocation's space overhead is bounded and modest.
TEST(Shapes, SpaceOverheadModest)
{
    for (const std::string wl : {"vis", "health", "smv"}) {
        const RunResult l = shapeRun(wl, 32, true);
        EXPECT_GT(l.space_overhead_bytes, 0u) << wl;
        EXPECT_LT(l.space_overhead_bytes, Addr(64) << 20) << wl;
    }
}

} // namespace
} // namespace memfwd
