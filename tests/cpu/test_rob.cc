/** @file Unit tests for the Rob graduation-slot model. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/random.hh"
#include "cpu/rob.hh"

namespace memfwd
{
namespace
{

TEST(Rob, FetchBandwidthFourPerCycle)
{
    Rob rob(4, 64);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 1u); // fifth spills to the next cycle
}

TEST(Rob, BusySlotsCountGraduations)
{
    Rob rob(4, 64);
    for (int i = 0; i < 8; ++i) {
        const Cycles d = rob.dispatch();
        rob.graduate(d + 1, WaitKind::none);
    }
    EXPECT_EQ(rob.stalls().busy, 8u);
    EXPECT_EQ(rob.instructions(), 8u);
}

TEST(Rob, StallSlotsAttributedToLoadMiss)
{
    Rob rob(4, 64);
    const Cycles d = rob.dispatch();
    // A load completing at cycle 100 stalls graduation until then.
    rob.graduate(100, WaitKind::load_miss);
    EXPECT_EQ(rob.currentCycle(), 100u);
    // All the empty slots from d+... to 100 are load-stall slots.
    EXPECT_EQ(rob.stalls().load_stall, (100 - d - 1) * 4 + 4 - 0);
    EXPECT_EQ(rob.stalls().busy, 1u);
    EXPECT_EQ(rob.stalls().store_stall, 0u);
}

TEST(Rob, StallSlotsAttributedToStoreMiss)
{
    Rob rob(4, 64);
    rob.dispatch();
    rob.graduate(50, WaitKind::store_miss);
    EXPECT_GT(rob.stalls().store_stall, 0u);
    EXPECT_EQ(rob.stalls().load_stall, 0u);
}

TEST(Rob, InstStallForNonMemoryWaits)
{
    Rob rob(4, 64);
    rob.dispatch();
    rob.graduate(10, WaitKind::none);
    EXPECT_GT(rob.stalls().inst_stall, 0u);
}

TEST(Rob, GraduationWidthLimit)
{
    Rob rob(2, 64);
    // Six instructions all ready at cycle 0: graduate 2 per cycle.
    for (int i = 0; i < 6; ++i) {
        const Cycles d = rob.dispatch();
        rob.graduate(d, WaitKind::none);
    }
    EXPECT_EQ(rob.currentCycle(), 2u); // cycles 0,1,2 hold 2 each
}

TEST(Rob, WindowLimitsRunahead)
{
    // Window of 8: instruction 8 cannot dispatch before instruction 0
    // retires.
    Rob rob(4, 8);
    Cycles d0 = rob.dispatch();
    rob.graduate(100, WaitKind::load_miss); // instr 0 retires at 100
    EXPECT_EQ(d0, 0u);
    for (int i = 1; i < 8; ++i) {
        rob.dispatch();
        rob.graduate(100, WaitKind::none);
    }
    // Ninth instruction: window slot frees only at cycle 100.
    EXPECT_GE(rob.dispatch(), 100u);
    rob.graduate(101, WaitKind::none);
}

TEST(Rob, SlotAccountingIsConsistent)
{
    Rob rob(4, 32);
    // Mixed stream.
    for (int i = 0; i < 100; ++i) {
        const Cycles d = rob.dispatch();
        const Cycles done = d + 1 + (i % 7 == 0 ? 25 : 0);
        rob.graduate(done,
                     i % 7 == 0 ? WaitKind::load_miss : WaitKind::none);
    }
    const StallStats &st = rob.stalls();
    // Total attributed slots never exceed cycles*width and cover all
    // but the unused slots of the final cycle.
    const std::uint64_t total = (rob.currentCycle() + 1) * 4;
    EXPECT_LE(st.totalSlots(), total);
    EXPECT_GE(st.totalSlots(), total - 4);
}

TEST(RobDeathTest, GraduateWithoutDispatch)
{
    Rob rob(4, 64);
    EXPECT_DEATH(rob.graduate(0, WaitKind::none), "matching dispatch");
}

TEST(RobDeathTest, BadGeometry)
{
    EXPECT_DEATH(Rob(0, 4), "geometry");
    EXPECT_DEATH(Rob(8, 4), "geometry");
}

/** The literal definition of Rob::aluBurst(n): the test oracle. */
void
literalAluBurst(Rob &rob, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        const Cycles d = rob.dispatch();
        rob.graduate(d + 1, WaitKind::none);
    }
}

/**
 * Drive @p a and @p b through the same random prior history: load
 * misses with random delays, store-miss graduations at issue + 1,
 * non-blocking graduations and short ALU runs, sometimes ending with
 * an instruction dispatched but not yet graduated.
 */
void
randomHistory(Rng &rng, Rob &a, Rob &b)
{
    const unsigned ops = static_cast<unsigned>(rng.below(3 * a.window() + 8));
    for (unsigned i = 0; i < ops; ++i) {
        const std::uint64_t pick = rng.below(4);
        const Cycles delay = 1 + rng.below(300);
        if (pick == 3) {
            const std::uint64_t n = rng.below(2 * a.window());
            literalAluBurst(a, n);
            literalAluBurst(b, n);
            continue;
        }
        for (Rob *rob : {&a, &b}) {
            const Cycles d = rob->dispatch();
            if (pick == 0)
                rob->graduate(d + delay, WaitKind::load_miss);
            else if (pick == 1)
                rob->graduate(d + 1, WaitKind::store_miss);
            else
                rob->graduate(d + 1, WaitKind::none);
        }
    }
    if (rng.below(4) == 0) {
        a.dispatch();
        b.dispatch();
    }
}

/**
 * End @p a and @p b's histories with a long load miss and then a few
 * hits, the shape of a kv_server alloc's compute after a missed read.
 */
void
longMissHistory(Rng &rng, Rob &a, Rob &b)
{
    const Cycles delay = 100 + rng.below(200);
    const std::uint64_t hits = rng.below(4);
    for (Rob *rob : {&a, &b}) {
        rob->graduate(rob->dispatch() + delay, WaitKind::load_miss);
        for (std::uint64_t i = 0; i < hits; ++i)
            rob->graduate(rob->dispatch() + 2, WaitKind::none);
    }
}

TEST(Rob, AluBurstMatchesSingleOpsExactly)
{
    // aluBurst(n) is defined as n dispatch()/graduate(d+1) pairs but
    // writes the graduation staircase in closed form, so compare it
    // with the literal composition at every n up to window + 3*width,
    // and at a few large n, from ten prior states:
    //   0     none (one literal step, then the staircase);
    //   1, 2  a long load miss, after nothing or after a random history
    //         (the staircase, with fetch far behind graduation);
    //   3     a random history and then one more dispatch, left
    //         pending (literal steps throughout);
    //   4-9   a random history of misses, store stalls and earlier
    //         bursts, which sometimes leaves a dispatch pending.
    // After each burst a probe of 2*window dispatch/graduate pairs
    // exposes the retire ring and both cursors, which the counters
    // alone cannot show.
    Rng rng(testSeed(0xa1b0u));
    for (const auto &[width, window] : {std::pair<unsigned, unsigned>{4, 64},
                                        {1, 1}, {2, 8}, {8, 128},
                                        {3, 10}}) {
        std::vector<std::uint64_t> sizes;
        for (std::uint64_t n = 0; n <= window + 3 * width; ++n)
            sizes.push_back(n);
        sizes.push_back(2 * window + 1);
        for (int i = 0; i < 4; ++i)
            sizes.push_back(rng.below(1000001));

        for (const std::uint64_t n : sizes) {
            for (int state = 0; state < 10; ++state) {
                Rob burst(width, window);
                Rob literal(width, window);
                if (state >= 2)
                    randomHistory(rng, burst, literal);
                if (state == 1 || state == 2)
                    longMissHistory(rng, burst, literal);
                if (state == 3) {
                    burst.dispatch();
                    literal.dispatch();
                }

                burst.aluBurst(n);
                literalAluBurst(literal, n);

                SCOPED_TRACE(::testing::Message()
                             << "w" << width << "/" << window << " n=" << n
                             << " state " << state);
                ASSERT_EQ(burst.currentCycle(), literal.currentCycle());
                ASSERT_EQ(burst.instructions(), literal.instructions());
                ASSERT_EQ(burst.stalls().busy, literal.stalls().busy);
                ASSERT_EQ(burst.stalls().load_stall,
                          literal.stalls().load_stall);
                ASSERT_EQ(burst.stalls().store_stall,
                          literal.stalls().store_stall);
                ASSERT_EQ(burst.stalls().inst_stall,
                          literal.stalls().inst_stall);

                for (unsigned i = 0; i < 2 * window; ++i) {
                    const Cycles d = burst.dispatch();
                    ASSERT_EQ(d, literal.dispatch()) << "probe " << i;
                    const Cycles done = d + 1 + i % 3;
                    ASSERT_EQ(burst.graduate(done, WaitKind::none),
                              literal.graduate(done, WaitKind::none))
                        << "probe " << i;
                }
            }
        }
    }
}

TEST(Rob, AluBurstKeepsTheGapAfterAMiss)
{
    // After a 100-cycle load at 4/64 the ALU stream does not settle
    // with graduation one cycle behind fetch: the window's first 63
    // instructions dispatch before the load retires, and from then on
    // each instruction graduates window/width = 16 cycles after it
    // dispatches, however long the stream runs.
    Rob rob(4, 64);
    rob.graduate(rob.dispatch() + 100, WaitKind::load_miss);
    for (const std::uint64_t n : {std::uint64_t{1000}, std::uint64_t{1000000}}) {
        rob.aluBurst(n);
        const Cycles d = rob.dispatch();
        EXPECT_EQ(rob.graduate(d + 1, WaitKind::none), d + 16) << n;
    }
}

} // namespace
} // namespace memfwd
