/** @file Unit tests for the composed CPU timing model. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/ooo_cpu.hh"

namespace memfwd
{
namespace
{

TEST(OooCpu, AluThroughputIsWidthBound)
{
    OooCpu cpu;
    cpu.alu(400);
    // 400 single-cycle ops on a 4-wide machine: ~100 cycles.
    EXPECT_NEAR(double(cpu.cycles()), 100.0, 3.0);
    EXPECT_EQ(cpu.instructions(), 400u);
    EXPECT_EQ(cpu.stalls().busy, 400u);
}

TEST(OooCpu, MemPortsLimitIssueRate)
{
    OooParams p;
    p.mem_ports = 2;
    OooCpu cpu(p);
    // Six memory ops all ready at once: ports allow 2 per cycle.
    Cycles last = 0;
    for (int i = 0; i < 6; ++i) {
        const MemIssue mi = cpu.issueMem(0, true);
        last = mi.issue;
        cpu.finishLoad(mi, mi.issue + 1, 0, false, 0x100, 0x100, 1);
    }
    EXPECT_GE(last, 2u); // third pair issues at cycle >= 2
}

TEST(OooCpu, AddrDependenceDelaysIssue)
{
    OooCpu cpu;
    const MemIssue mi = cpu.issueMem(/*addr_ready=*/500, true);
    EXPECT_GE(mi.issue, 500u);
}

TEST(OooCpu, LoadLatencyAccounted)
{
    OooCpu cpu;
    const MemIssue mi = cpu.issueMem(0, true);
    const Cycles done =
        cpu.finishLoad(mi, mi.issue + 80, 0, true, 0x100, 0x100, 1);
    EXPECT_EQ(done, mi.issue + 80);
    EXPECT_GT(cpu.stalls().load_stall, 0u);
    EXPECT_NEAR(cpu.refLatency().avgLoadCycles(), 80.0, 0.5);
}

TEST(OooCpu, ForwardCyclesSplitOut)
{
    OooCpu cpu;
    const MemIssue mi = cpu.issueMem(0, true);
    cpu.finishLoad(mi, mi.issue + 100, /*forward_cycles=*/30, true,
                   0x100, 0x900, 1);
    const auto &rl = cpu.refLatency();
    EXPECT_EQ(rl.load_forward_cycles, 30u);
    EXPECT_EQ(rl.load_ordinary_cycles, 70u);
}

TEST(OooCpu, StoreBufferHidesStoreMissLatency)
{
    OooCpu cpu;
    // A single store miss does not stall graduation: the store buffer
    // absorbs it.
    const MemIssue mi = cpu.issueMem(0, false);
    cpu.finishStore(mi, mi.issue + 100, 0, true, 0x100, 0x100, 1);
    EXPECT_EQ(cpu.stalls().store_stall, 0u);
    EXPECT_LT(cpu.cycles(), 50u);
}

TEST(OooCpu, SaturatedStoreBufferStalls)
{
    OooParams p;
    p.store_buffer = 4;
    OooCpu cpu(p);
    // A long burst of store misses must eventually back-pressure.
    for (int i = 0; i < 64; ++i) {
        const MemIssue mi = cpu.issueMem(0, false);
        cpu.finishStore(mi, mi.issue + 100, 0, true, 0x100, 0x100, 1);
    }
    EXPECT_GT(cpu.stalls().store_stall, 0u);
    // The drain rate, not the issue rate, bounds the run: the last
    // stores retire near the first ones' 100-cycle completions.
    EXPECT_GT(cpu.cycles(), 100u);
}

TEST(OooCpu, NonBlockingOpsNeverStall)
{
    OooCpu cpu;
    for (int i = 0; i < 40; ++i) {
        const MemIssue mi = cpu.issueMem(0, true);
        cpu.finishNonBlocking(mi);
    }
    EXPECT_EQ(cpu.stalls().load_stall, 0u);
    EXPECT_LE(cpu.cycles(), 25u);
}

TEST(OooCpu, IndependentMissesOverlap)
{
    // Two independent loads missing for 100 cycles should finish at
    // roughly the same time (MLP), not serialized.
    OooCpu cpu;
    const MemIssue a = cpu.issueMem(0, true);
    const Cycles done_a =
        cpu.finishLoad(a, a.issue + 100, 0, true, 0x100, 0x100, 1);
    const MemIssue b = cpu.issueMem(0, true);
    const Cycles done_b =
        cpu.finishLoad(b, b.issue + 100, 0, true, 0x200, 0x200, 1);
    EXPECT_LE(done_b, done_a + 5);
}

TEST(OooCpu, DependentLoadsSerialize)
{
    // A pointer chase: the second load's address comes from the first.
    OooCpu cpu;
    const MemIssue a = cpu.issueMem(0, true);
    const Cycles done_a =
        cpu.finishLoad(a, a.issue + 100, 0, true, 0x100, 0x100, 1);
    const MemIssue b = cpu.issueMem(done_a, true);
    const Cycles done_b =
        cpu.finishLoad(b, b.issue + 100, 0, true, 0x200, 0x200, 1);
    EXPECT_GE(done_b, done_a + 100);
}

TEST(OooCpu, MisspeculationPenaltyApplied)
{
    OooParams p;
    p.misspec_penalty = 25;
    OooCpu cpu(p);
    // Store whose final address was forwarded...
    const MemIssue s = cpu.issueMem(0, false);
    cpu.finishStore(s, s.issue + 60, 40, true, 0x100, 0x900, 1);
    // ...and a load that issued before resolution and aliases finally.
    const MemIssue l = cpu.issueMem(0, true);
    const Cycles base = l.issue + 5;
    const Cycles done = cpu.finishLoad(l, base, 0, false, 0x300, 0x900, 1);
    EXPECT_EQ(done, base + 25);
    EXPECT_EQ(cpu.lsq().violations(), 1u);
}

TEST(OooCpu, ObservingNeverChangesTiming)
{
    // alu() leaves its instructions pending until the CPU's next
    // observer retires them.  A CPU read after every call and one read
    // only now and then must agree on every read, every memory issue
    // and completion, and the final metrics tree.
    Rng rng(testSeed(0x0b5e7u));
    OooCpu eager;
    OooCpu lazy;
    auto expectSameStalls = [](const StallStats &a, const StallStats &b,
                               int step) {
        EXPECT_EQ(a.busy, b.busy) << "step " << step;
        EXPECT_EQ(a.load_stall, b.load_stall) << "step " << step;
        EXPECT_EQ(a.store_stall, b.store_stall) << "step " << step;
        EXPECT_EQ(a.inst_stall, b.inst_stall) << "step " << step;
    };

    Cycles addr_ready = 0;
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t pick = rng.below(5);
        if (pick == 0) {
            const std::uint64_t n = rng.below(100001);
            eager.alu(n);
            lazy.alu(n);
        } else {
            const bool is_load = pick != 2;
            const Cycles ready = rng.chance(0.3) ? addr_ready : 0;
            const MemIssue a = eager.issueMem(ready, is_load);
            const MemIssue b = lazy.issueMem(ready, is_load);
            ASSERT_EQ(a.seq, b.seq) << "step " << step;
            ASSERT_EQ(a.dispatch, b.dispatch) << "step " << step;
            ASSERT_EQ(a.issue, b.issue) << "step " << step;
            if (rng.chance(0.1)) {
                // ALU work between a memory op's issue and its finish
                // retires before the finish, as it would eagerly.
                const std::uint64_t n = rng.below(200);
                eager.alu(n);
                eager.cycles();
                lazy.alu(n);
            }
            const Cycles latency = 1 + rng.below(rng.chance(0.2) ? 400 : 4);
            const Cycles fwd = rng.chance(0.1) ? rng.below(latency) : 0;
            const bool missed = latency > 4;
            const Addr word = 0x1000 + 8 * rng.below(16);
            if (pick == 1) {
                addr_ready = eager.finishLoad(a, a.issue + latency, fwd,
                                              missed, word, word, 1);
                ASSERT_EQ(addr_ready,
                          lazy.finishLoad(b, b.issue + latency, fwd, missed,
                                          word, word, 1));
            } else if (pick == 2) {
                ASSERT_EQ(eager.finishStore(a, a.issue + latency, fwd,
                                            missed, word, word, 1),
                          lazy.finishStore(b, b.issue + latency, fwd,
                                           missed, word, word, 1));
            } else {
                eager.finishNonBlocking(a);
                lazy.finishNonBlocking(b);
            }
        }

        // The eager CPU is observed after every call.  The lazy one is
        // observed at random points, through one reader picked at
        // random, so each reader is sometimes the first to retire.
        const Cycles cycles = eager.cycles();
        const std::uint64_t instructions = eager.instructions();
        const StallStats stalls = eager.stalls();
        if (rng.chance(0.1)) {
            switch (rng.below(3)) {
              case 0:
                ASSERT_EQ(lazy.cycles(), cycles) << "step " << step;
                break;
              case 1:
                ASSERT_EQ(lazy.instructions(), instructions)
                    << "step " << step;
                break;
              default:
                expectSameStalls(lazy.stalls(), stalls, step);
                break;
            }
        }
    }
    EXPECT_EQ(eager.metrics(), lazy.metrics());
    EXPECT_EQ(eager.cycles(), lazy.cycles());
    EXPECT_EQ(eager.instructions(), lazy.instructions());
    expectSameStalls(eager.stalls(), lazy.stalls(), -1);
}

} // namespace
} // namespace memfwd
