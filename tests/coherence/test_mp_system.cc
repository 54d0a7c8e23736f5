/** @file Unit tests for the multiprocessor + forwarding substrate. */

#include <gtest/gtest.h>

#include "coherence/mp_system.hh"
#include "core/cycle_check.hh"
#include "core/forwarding_engine.hh"

namespace memfwd
{
namespace
{

TEST(MpSystem, SharedMemoryVisibleToAllProcessors)
{
    MpSystem sys;
    sys.store(0, 0x1000, 8, 42);
    EXPECT_EQ(sys.load(1, 0x1000, 8), 42u);
    EXPECT_EQ(sys.load(3, 0x1000, 8), 42u);
}

TEST(MpSystem, ClocksAreLocal)
{
    MpSystem sys;
    sys.compute(0, 1000);
    EXPECT_EQ(sys.clock(0), 1000u);
    EXPECT_EQ(sys.clock(1), 0u);
    EXPECT_EQ(sys.elapsed(), 1000u);
}

TEST(MpSystem, RelocationIsVisibleEverywhere)
{
    MpSystem sys;
    sys.store(0, 0x1000, 8, 7);
    sys.relocate(0, 0x1000, 0x5000, 1);
    // Processor 2 reads via the stale address: forwarded.
    EXPECT_EQ(sys.load(2, 0x1000, 8), 7u);
    EXPECT_GT(sys.forwardedRefs(), 0u);
    // And a processor writing through the stale address hits the new
    // home, visible to everyone.
    sys.store(3, 0x1004, 4, 99);
    EXPECT_EQ(sys.load(1, 0x5004, 4), 99u);
}

TEST(MpSystem, RelocationInvalidatesStaleCachedCopies)
{
    MpSystem sys;
    sys.store(0, 0x1000, 8, 5);
    // Processor 1 caches the line.
    EXPECT_EQ(sys.load(1, 0x1000, 8), 5u);
    EXPECT_NE(sys.cache(1).state(0x1000), CoherenceState::invalid);
    // Processor 0 relocates: the unforwarded write is a coherent
    // store, so processor 1's copy is invalidated.
    sys.relocate(0, 0x1000, 0x5000, 1);
    EXPECT_EQ(sys.cache(1).state(0x1000), CoherenceState::invalid);
    // Processor 1's next access through the old pointer forwards and
    // sees the current value.
    EXPECT_EQ(sys.load(1, 0x1000, 8), 5u);
}

TEST(MpSystem, ChainOfRelocations)
{
    MpSystem sys;
    sys.store(0, 0x1000, 8, 11);
    sys.relocate(0, 0x1000, 0x2000, 1);
    sys.relocate(1, 0x1000, 0x3000, 1); // appends at chain end
    EXPECT_EQ(sys.load(2, 0x1000, 8), 11u);
    EXPECT_EQ(sys.load(2, 0x2000, 8), 11u);
    EXPECT_EQ(sys.load(2, 0x3000, 8), 11u);
}

TEST(MpSystem, CycleDetected)
{
    MpSystem sys;
    sys.mem().unforwardedWrite(0x1000, 0x2000, true);
    sys.mem().unforwardedWrite(0x2000, 0x1000, true);
    EXPECT_THROW(sys.load(0, 0x1000, 8), ForwardingCycleError);
}

TEST(MpSystem, SeparateToLinesGivesDistinctLines)
{
    MpSystem sys;
    std::vector<Addr> items;
    for (unsigned i = 0; i < 4; ++i) {
        items.push_back(0x1000 + i * 16);
        sys.store(0, items[i], 8, i);
    }
    const auto homes = separateToLines(sys, 0, items, 2, 0x40000);
    ASSERT_EQ(homes.size(), 4u);
    const unsigned line = sys.config().line_bytes;
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = i + 1; j < 4; ++j)
            EXPECT_NE(homes[i] / line, homes[j] / line);
        EXPECT_EQ(sys.load(1, items[i], 8), i); // stale reads OK
        EXPECT_EQ(sys.load(1, homes[i], 8), i);
    }
}

TEST(MpSystem, FalseSharingRepairCutsInvalidations)
{
    // The headline property, in miniature.
    auto hammer = [](bool separate) {
        MpSystem sys;
        std::vector<Addr> recs;
        for (unsigned p = 0; p < 4; ++p) {
            recs.push_back(0x1000 + p * 16);
            sys.store(0, recs[p], 8, 0);
        }
        if (separate)
            separateToLines(sys, 0, recs, 2, 0x40000);
        for (unsigned it = 0; it < 500; ++it) {
            for (unsigned p = 0; p < 4; ++p) {
                const std::uint64_t v = sys.load(p, recs[p], 8);
                sys.store(p, recs[p], 8, v + 1);
            }
        }
        return sys.bus().stats().invalidations;
    };
    EXPECT_LT(hammer(true), hammer(false) / 4);
}

TEST(MpSystem, MisalignedPayloadThrowsIntegrityError)
{
    MpSystem sys;
    sys.store(0, 0x1000, 8, 7);
    sys.relocate(0, 0x1000, 0x5000, 1);
    // Corrupt the forwarding word: no relocation writes a misaligned
    // target, so following it would read the wrong word's data.
    sys.mem().unforwardedWrite(0x1000, 0x5003, true);
    EXPECT_THROW(sys.load(1, 0x1000, 8), ForwardingIntegrityError);
    EXPECT_THROW(sys.store(1, 0x1000, 8, 9), ForwardingIntegrityError);
    EXPECT_THROW(sys.relocate(1, 0x1000, 0x6000, 1),
                 ForwardingIntegrityError);
    EXPECT_EQ(sys.mem().rawReadWord(0x5000), 7u);
}

TEST(MpSystem, RelocateCyclicSourceThrows)
{
    MpSystem sys;
    sys.mem().unforwardedWrite(0x1000, 0x2000, true);
    sys.mem().unforwardedWrite(0x2000, 0x1000, true);
    EXPECT_THROW(sys.relocate(0, 0x1000, 0x5000, 1), ForwardingCycleError);
    // Nothing was copied or forwarded.
    EXPECT_FALSE(sys.mem().fbit(0x5000));
    EXPECT_EQ(sys.mem().rawReadWord(0x2000), 0x1000u);
}

TEST(MpSystemDeathTest, BadCpuRejected)
{
    MpSystem sys;
    EXPECT_DEATH(sys.load(99, 0x1000, 8), "bad cpu");
}

} // namespace
} // namespace memfwd
