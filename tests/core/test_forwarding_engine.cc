/** @file Unit tests for the forwarding engine — the paper's mechanism. */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "core/cycle_check.hh"
#include "core/forwarding_engine.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{
namespace
{

struct Rig
{
    TaggedMemory mem;
    MemoryHierarchy hierarchy{HierarchyConfig{}};
    ForwardingEngine engine{mem, hierarchy, ForwardingConfig{}};

    explicit Rig(ForwardingConfig cfg = {})
        : engine(mem, hierarchy, cfg)
    {}
};

TEST(ForwardingEngine, NonForwardedIsFree)
{
    Rig rig;
    const WalkResult w = rig.engine.resolve(0x1004, AccessType::load, 10);
    EXPECT_EQ(w.final_addr, 0x1004u);
    EXPECT_EQ(w.hops, 0u);
    EXPECT_EQ(w.ready, 10u);
    EXPECT_EQ(w.forward_cycles, 0u);
    EXPECT_EQ(rig.engine.stats().walks, 0u);
}

TEST(ForwardingEngine, SingleHopPreservesByteOffset)
{
    // The Figure 1 example: a 32-bit subword at 0804 forwards to 5804.
    Rig rig;
    rig.engine.forwardWord(0x0800, 0x5800);
    const WalkResult w = rig.engine.resolve(0x0804, AccessType::load, 0);
    EXPECT_EQ(w.final_addr, 0x5804u);
    EXPECT_EQ(w.hops, 1u);
    EXPECT_GT(w.forward_cycles, 0u);
}

TEST(ForwardingEngine, ForwardWordCopiesPayload)
{
    Rig rig;
    rig.mem.rawWriteWord(0x0800, 47);
    rig.engine.forwardWord(0x0800, 0x5800);
    EXPECT_EQ(rig.mem.rawReadWord(0x5800), 47u);
    EXPECT_EQ(rig.mem.rawReadWord(0x0800), 0x5800u);
    EXPECT_TRUE(rig.mem.fbit(0x0800));
    EXPECT_FALSE(rig.mem.fbit(0x5800));
}

TEST(ForwardingEngine, ChainOfArbitraryLength)
{
    Rig rig;
    // 0x1000 -> 0x2000 -> 0x3000 -> 0x4000.
    rig.mem.rawWriteWord(0x1000, 123);
    rig.engine.forwardWord(0x1000, 0x2000);
    rig.engine.forwardWord(0x2000, 0x3000);
    rig.engine.forwardWord(0x3000, 0x4000);
    const WalkResult w = rig.engine.resolve(0x1000, AccessType::load, 0);
    EXPECT_EQ(w.final_addr, 0x4000u);
    EXPECT_EQ(w.hops, 3u);
    EXPECT_EQ(rig.mem.rawReadWord(0x4000), 123u);
}

TEST(ForwardingEngine, HopsPolluteTheCache)
{
    // Section 5.4: dereferencing a forwarding chain touches the old
    // locations, keeping them live in the cache.
    Rig rig;
    rig.engine.forwardWord(0x1000, 0x9000);
    rig.engine.resolve(0x1000, AccessType::load, 0);
    EXPECT_TRUE(rig.hierarchy.l1d().contains(0x1000));
    // The final location is NOT accessed by the walk itself.
    EXPECT_FALSE(rig.hierarchy.l1d().contains(0x9000));
}

TEST(ForwardingEngine, TimingChargesEachHop)
{
    Rig rig;
    rig.engine.forwardWord(0x1000, 0x2000);
    rig.engine.forwardWord(0x2000, 0x3000);
    const WalkResult one_hop_warm = [&] {
        rig.engine.resolve(0x1000, AccessType::load, 0); // warm caches
        return rig.engine.resolve(0x1000, AccessType::load, 1000);
    }();
    // Two hops, warm: 2 x (hit latency + hop cost).
    const auto &cfg = rig.engine.config();
    const Cycles per_hop =
        rig.hierarchy.config().l1d.hit_latency + cfg.hop_cost;
    EXPECT_EQ(one_hop_warm.forward_cycles, 2 * per_hop);
}

TEST(ForwardingEngine, ExceptionModeAddsDispatchCost)
{
    ForwardingConfig cfg;
    cfg.mode = ForwardingConfig::Mode::exception;
    cfg.exception_cost = 30;
    Rig rig(cfg);
    rig.engine.forwardWord(0x1000, 0x2000);
    rig.engine.resolve(0x1000, AccessType::load, 0); // warm
    const WalkResult w = rig.engine.resolve(0x1000, AccessType::load, 500);
    EXPECT_GE(w.forward_cycles, 30u);
}

TEST(ForwardingEngine, PerfectModeIsFreeAndClean)
{
    ForwardingConfig cfg;
    cfg.mode = ForwardingConfig::Mode::perfect;
    Rig rig(cfg);
    rig.mem.rawWriteWord(0x1000, 55);
    rig.engine.forwardWord(0x1000, 0x2000);
    const WalkResult w = rig.engine.resolve(0x1004, AccessType::load, 77);
    EXPECT_EQ(w.final_addr, 0x2004u);
    EXPECT_EQ(w.ready, 77u);
    EXPECT_EQ(w.forward_cycles, 0u);
    // No pollution: the old location was never pulled into the cache.
    EXPECT_FALSE(rig.hierarchy.l1d().contains(0x1000));
    // Perfect mode reports no walks (nothing was "forwarded").
    EXPECT_EQ(rig.engine.stats().walks, 0u);
}

TEST(ForwardingEngine, HopHistogramRecorded)
{
    Rig rig;
    rig.engine.forwardWord(0x1000, 0x2000);
    rig.engine.resolve(0x1000, AccessType::load, 0);
    rig.engine.resolve(0x3000, AccessType::load, 0);
    const auto &h = rig.engine.stats().hop_histogram;
    ASSERT_GE(h.size(), 2u);
    EXPECT_EQ(h[0], 1u);
    EXPECT_EQ(h[1], 1u);
}

TEST(ForwardingEngine, LongAcyclicChainIsFalseAlarm)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    Rig rig(cfg);
    // Build a 10-hop chain: longer than the limit but acyclic.
    for (unsigned i = 0; i < 10; ++i)
        rig.engine.forwardWord(0x1000 + i * 0x100, 0x1000 + (i + 1) * 0x100);
    const WalkResult w = rig.engine.resolve(0x1000, AccessType::load, 0);
    EXPECT_EQ(w.final_addr, 0x1000u + 10 * 0x100);
    EXPECT_EQ(w.hops, 10u);
    EXPECT_GE(rig.engine.stats().false_alarms, 1u);
    EXPECT_EQ(rig.engine.stats().cycles_detected, 0u);
    // The accurate check's software cost was charged.
    EXPECT_GE(w.forward_cycles, cfg.cycle_check_cost);
}

TEST(ForwardingEngine, TrueCycleThrows)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    Rig rig(cfg);
    // 0x1000 -> 0x2000 -> 0x1000 (software bug).
    rig.mem.unforwardedWrite(0x1000, 0x2000, true);
    rig.mem.unforwardedWrite(0x2000, 0x1000, true);
    EXPECT_THROW(rig.engine.resolve(0x1000, AccessType::load, 0),
                 ForwardingCycleError);
    EXPECT_EQ(rig.engine.stats().cycles_detected, 1u);
}

TEST(ForwardingEngine, PerfectModeStillDetectsCycles)
{
    ForwardingConfig cfg;
    cfg.mode = ForwardingConfig::Mode::perfect;
    cfg.hop_limit = 4;
    Rig rig(cfg);
    rig.mem.unforwardedWrite(0x1000, 0x1000, true);
    EXPECT_THROW(rig.engine.resolve(0x1000, AccessType::load, 0),
                 ForwardingCycleError);
}

TEST(ForwardingEngine, TrapsDeliveredOnForwarding)
{
    Rig rig;
    rig.engine.forwardWord(0x1000, 0x2000);
    unsigned fired = 0;
    TrapInfo seen{};
    rig.engine.traps().install([&](const TrapInfo &info) {
        ++fired;
        seen = info;
        return TrapAction::resume;
    });
    rig.engine.resolve(0x1004, AccessType::load, 0, /*site=*/42,
                       /*pointer_slot=*/0x7000);
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(seen.site, 42u);
    EXPECT_EQ(seen.initial_addr, 0x1004u);
    EXPECT_EQ(seen.final_addr, 0x2004u);
    EXPECT_EQ(seen.hops, 1u);
    EXPECT_EQ(seen.pointer_slot, 0x7000u);
}

TEST(ForwardingEngine, NoTrapWithoutForwarding)
{
    Rig rig;
    unsigned fired = 0;
    rig.engine.traps().install([&](const TrapInfo &) {
        ++fired;
        return TrapAction::resume;
    });
    rig.engine.resolve(0x1000, AccessType::load, 0);
    EXPECT_EQ(fired, 0u);
}

TEST(ForwardingEngine, NoTrapForPrefetches)
{
    Rig rig;
    rig.engine.forwardWord(0x1000, 0x2000);
    unsigned fired = 0;
    rig.engine.traps().install([&](const TrapInfo &) {
        ++fired;
        return TrapAction::resume;
    });
    rig.engine.resolve(0x1000, AccessType::prefetch, 0);
    EXPECT_EQ(fired, 0u);
}

TEST(ForwardingEngine, SelfLoopChainDetected)
{
    // forwardWord(a, a) is the tightest possible cycle: the word
    // forwards to itself.
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    Rig rig(cfg);
    rig.engine.forwardWord(0x1000, 0x1000);
    EXPECT_THROW(rig.engine.resolve(0x1000, AccessType::load, 0),
                 ForwardingCycleError);
    EXPECT_EQ(rig.engine.stats().cycles_detected, 1u);
    EXPECT_EQ(rig.engine.stats().false_alarms, 0u);
}

TEST(ForwardingEngine, TwoWordCycleCountsNoFalseAlarm)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    Rig rig(cfg);
    rig.mem.unforwardedWrite(0x1000, 0x2000, true);
    rig.mem.unforwardedWrite(0x2000, 0x1000, true);
    try {
        rig.engine.resolve(0x1000, AccessType::load, 0);
        FAIL() << "cycle not detected";
    } catch (const ForwardingCycleError &e) {
        EXPECT_EQ(e.start(), 0x1000u);
        EXPECT_EQ(e.length(), 2u);
        EXPECT_EQ(e.policy(), "abort");
    }
    EXPECT_EQ(rig.engine.stats().cycles_detected, 1u);
    EXPECT_EQ(rig.engine.stats().false_alarms, 0u);
}

TEST(ForwardingEngine, ChainOfExactlyHopLimitIsNotAFalseAlarm)
{
    // hop_limit hops never overflow the counter: the accurate check
    // must not fire at all.
    ForwardingConfig cfg;
    cfg.hop_limit = 16;
    Rig rig(cfg);
    for (unsigned i = 0; i < cfg.hop_limit; ++i) {
        rig.engine.forwardWord(0x10000 + Addr(i) * 0x100,
                               0x10000 + Addr(i + 1) * 0x100);
    }
    const WalkResult w = rig.engine.resolve(0x10000, AccessType::load, 0);
    EXPECT_EQ(w.hops, cfg.hop_limit);
    EXPECT_EQ(rig.engine.stats().false_alarms, 0u);
    EXPECT_EQ(rig.engine.stats().cycles_detected, 0u);
}

TEST(ForwardingEngine, ChainOfHopLimitPlusOneIsExactlyOneFalseAlarm)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 16;
    Rig rig(cfg);
    for (unsigned i = 0; i < cfg.hop_limit + 1; ++i) {
        rig.engine.forwardWord(0x10000 + Addr(i) * 0x100,
                               0x10000 + Addr(i + 1) * 0x100);
    }
    const WalkResult w = rig.engine.resolve(0x10000, AccessType::load, 0);
    EXPECT_EQ(w.hops, cfg.hop_limit + 1);
    EXPECT_EQ(rig.engine.stats().false_alarms, 1u);
    EXPECT_EQ(rig.engine.stats().cycles_detected, 0u);
}

TEST(ForwardingEngine, QuarantinePolicyPinsAtPreCycleAddress)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    cfg.cycle_policy = CyclePolicy::quarantine;
    Rig rig(cfg);
    // Rho shape: 0x1000 -> 0x2000 -> 0x3000 -> 0x2000.  The pre-cycle
    // address (and so the pin) is 0x1000.
    rig.mem.unforwardedWrite(0x1000, 0x2000, true);
    rig.mem.unforwardedWrite(0x2000, 0x3000, true);
    rig.mem.unforwardedWrite(0x3000, 0x2000, true);

    const WalkResult w = rig.engine.resolve(0x1004, AccessType::load, 0);
    EXPECT_EQ(w.final_addr, 0x1004u); // pinned, offset preserved
    EXPECT_EQ(rig.engine.stats().cycles_detected, 1u);
    EXPECT_EQ(rig.engine.stats().cycles_quarantined, 1u);
    EXPECT_EQ(rig.engine.quarantinePin(0x1000), 0x1000u);

    // Later references resolve from the pin without re-walking.
    const WalkResult again =
        rig.engine.resolve(0x1004, AccessType::load, 0);
    EXPECT_EQ(again.final_addr, 0x1004u);
    EXPECT_EQ(again.hops, 0u);
    EXPECT_EQ(rig.engine.stats().quarantine_hits, 1u);
    EXPECT_EQ(rig.engine.stats().cycles_detected, 1u); // not re-detected
}

TEST(ForwardingEngine, TrapPolicyDeliversCycleContext)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    cfg.cycle_policy = CyclePolicy::trap;
    Rig rig(cfg);
    rig.mem.unforwardedWrite(0x1000, 0x2000, true);
    rig.mem.unforwardedWrite(0x2000, 0x1000, true);

    TrapInfo seen{};
    unsigned fired = 0;
    rig.engine.traps().install([&](const TrapInfo &info) {
        ++fired;
        seen = info;
        return TrapAction::resume;
    });
    const WalkResult w =
        rig.engine.resolve(0x1000, AccessType::load, 0, /*site=*/9);
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(seen.site, 9u);
    EXPECT_EQ(seen.initial_addr, 0x1000u);
    EXPECT_EQ(seen.hops, 2u); // chain length the accurate check walked
    EXPECT_EQ(w.final_addr, seen.final_addr);
    EXPECT_EQ(rig.engine.stats().cycles_quarantined, 1u);
}

TEST(ForwardingEngine, TrapPolicyWithoutHandlerAborts)
{
    ForwardingConfig cfg;
    cfg.hop_limit = 4;
    cfg.cycle_policy = CyclePolicy::trap;
    Rig rig(cfg);
    rig.engine.forwardWord(0x1000, 0x1000);
    try {
        rig.engine.resolve(0x1000, AccessType::load, 0);
        FAIL() << "expected abort without a trap handler";
    } catch (const ForwardingCycleError &e) {
        EXPECT_EQ(e.policy(), "trap");
    }
}

TEST(ForwardingEngine, MisalignedPayloadIsCorruption)
{
    Rig rig;
    // A set forwarding bit over a misaligned payload can only be
    // corruption: legitimate relocation writes aligned targets.
    rig.mem.unforwardedWrite(0x1000, 0x2003, true);
    EXPECT_THROW(rig.engine.resolve(0x1000, AccessType::load, 0),
                 ForwardingIntegrityError);
    EXPECT_EQ(rig.engine.stats().corrupt_forwards, 1u);
}

TEST(ForwardingEngine, CorruptionQuarantinesAtCorruptWord)
{
    ForwardingConfig cfg;
    cfg.cycle_policy = CyclePolicy::quarantine;
    Rig rig(cfg);
    rig.engine.forwardWord(0x1000, 0x2000);
    rig.mem.unforwardedWrite(0x2000, 0x3001, true); // corrupt mid-chain
    const WalkResult w = rig.engine.resolve(0x1004, AccessType::load, 0);
    // Pinned at the corrupt word — the last trustworthy location.
    EXPECT_EQ(w.final_addr, 0x2004u);
    EXPECT_EQ(rig.engine.stats().corrupt_forwards, 1u);
    EXPECT_EQ(rig.engine.quarantinePin(0x1000), 0x2000u);
}

TEST(ForwardingEngine, ExceptionModeChargesBoundedRetryBackoff)
{
    ForwardingConfig cfg;
    cfg.mode = ForwardingConfig::Mode::exception;
    cfg.hop_limit = 2;
    cfg.retry_backoff_base = 16;
    Rig rig(cfg);
    // 10 acyclic hops with limit 2: checks fire after hops 3, 6, 9.
    for (unsigned i = 0; i < 10; ++i) {
        rig.engine.forwardWord(0x10000 + Addr(i) * 0x100,
                               0x10000 + Addr(i + 1) * 0x100);
    }
    const WalkResult w = rig.engine.resolve(0x10000, AccessType::load, 0);
    EXPECT_EQ(w.hops, 10u);
    EXPECT_EQ(rig.engine.stats().false_alarms, 3u);
    EXPECT_EQ(rig.engine.stats().handler_retries, 3u);
    // Exponential: 16 + 32 + 64.
    EXPECT_EQ(rig.engine.stats().backoff_cycles, 112u);
}

TEST(ForwardingEngine, ExceptionModeGivesUpAfterMaxRetries)
{
    ForwardingConfig cfg;
    cfg.mode = ForwardingConfig::Mode::exception;
    cfg.hop_limit = 2;
    cfg.max_handler_retries = 2;
    cfg.cycle_policy = CyclePolicy::quarantine;
    Rig rig(cfg);
    for (unsigned i = 0; i < 12; ++i) {
        rig.engine.forwardWord(0x10000 + Addr(i) * 0x100,
                               0x10000 + Addr(i + 1) * 0x100);
    }
    rig.mem.rawWriteWord(0x10000 + 12 * 0x100, 0x1234);
    // The third check (after hop 9) exceeds max_handler_retries: the
    // handler gives up charging, but the chain was just proven acyclic,
    // so the reference still resolves to the real tail.
    const WalkResult w = rig.engine.resolve(0x10000, AccessType::load, 0);
    EXPECT_EQ(w.final_addr, 0x10000u + 12 * 0x100);
    EXPECT_EQ(rig.mem.rawReadWord(w.final_addr), 0x1234u);
    EXPECT_EQ(w.hops, 12u);
    EXPECT_TRUE(w.forwarded);
    EXPECT_EQ(rig.engine.stats().handler_retries, 3u);
    EXPECT_EQ(rig.engine.stats().cycles_quarantined, 0u);
    EXPECT_EQ(rig.engine.quarantinePin(0x10000), 0u);

    // No hop past the give-up point is charged: the same walk with an
    // unbounded handler takes three more hop accesses and one more check.
    cfg.max_handler_retries = 100;
    Rig unbounded(cfg);
    for (unsigned i = 0; i < 12; ++i) {
        unbounded.engine.forwardWord(0x10000 + Addr(i) * 0x100,
                                     0x10000 + Addr(i + 1) * 0x100);
    }
    const WalkResult full =
        unbounded.engine.resolve(0x10000, AccessType::load, 0);
    EXPECT_EQ(full.final_addr, w.final_addr);
    EXPECT_EQ(full.hops, 12u);
    EXPECT_GT(full.ready, w.ready);
}

TEST(ForwardingEngineDeathTest, MisalignedRelocationRejected)
{
    Rig rig;
    EXPECT_DEATH(rig.engine.forwardWord(0x1001, 0x2000), "word-aligned");
    EXPECT_DEATH(rig.engine.forwardWord(0x1000, 0x2004), "word-aligned");
}

// Property sweep: for any chain length below the hop limit, resolve()
// terminates at the chain end with one hop per link.
class ChainLengthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ChainLengthSweep, ResolvesFullChain)
{
    const unsigned len = GetParam();
    Rig rig;
    rig.mem.rawWriteWord(0x10000, 0xabcd);
    for (unsigned i = 0; i < len; ++i) {
        rig.engine.forwardWord(0x10000 + Addr(i) * 0x40,
                               0x10000 + Addr(i + 1) * 0x40);
    }
    const WalkResult w = rig.engine.resolve(0x10000, AccessType::load, 0);
    EXPECT_EQ(w.hops, len);
    EXPECT_EQ(w.final_addr, 0x10000 + Addr(len) * 0x40);
    EXPECT_EQ(rig.mem.rawReadWord(w.final_addr), 0xabcdu);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLengthSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u, 15u));

} // namespace
} // namespace memfwd
