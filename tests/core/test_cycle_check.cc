/** @file Unit tests for accurate forwarding-cycle detection. */

#include <gtest/gtest.h>

#include "core/cycle_check.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{
namespace
{

TEST(CycleCheck, EmptyChainIsClean)
{
    TaggedMemory mem;
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    EXPECT_FALSE(r.is_cycle);
    EXPECT_EQ(r.length, 0u);
}

TEST(CycleCheck, LinearChainIsClean)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x3000, true);
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    EXPECT_FALSE(r.is_cycle);
    EXPECT_EQ(r.length, 2u);
}

TEST(CycleCheck, SelfLoopDetected)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x1000, true);
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    EXPECT_TRUE(r.is_cycle);
    EXPECT_EQ(r.length, 1u);
}

TEST(CycleCheck, TwoNodeCycleDetected)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x1000, true);
    EXPECT_TRUE(accurateCycleCheck(mem, 0x1000).is_cycle);
}

TEST(CycleCheck, RhoShapeDetected)
{
    // A tail leading into a loop: 0x1000 -> 0x2000 -> 0x3000 -> 0x2000.
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x3000, true);
    mem.unforwardedWrite(0x3000, 0x2000, true);
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    EXPECT_TRUE(r.is_cycle);
    EXPECT_EQ(r.length, 3u); // hops taken before the repeat was seen
}

TEST(CycleCheck, UnalignedStartUsesContainingWord)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x1000, true);
    EXPECT_TRUE(accurateCycleCheck(mem, 0x1003).is_cycle);
}

TEST(CycleCheck, CorruptPayloadIsNotACycle)
{
    // 0x2000 holds the misaligned 0x1003, which rounds back to 0x1000:
    // the chain ends in corruption, not in a loop.
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x1003, true);
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    EXPECT_FALSE(r.is_cycle);
    EXPECT_EQ(r.length, 1u);
}

TEST(CycleCheck, SelfLoopEntryAndPin)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x1000, true);
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    ASSERT_TRUE(r.is_cycle);
    // The whole chain is the loop: entry and pin are the start itself.
    EXPECT_EQ(r.cycle_entry, 0x1000u);
    EXPECT_EQ(r.pre_cycle, 0x1000u);
}

TEST(CycleCheck, RhoShapeEntryAndPin)
{
    // 0x1000 -> 0x2000 -> 0x3000 -> 0x2000: the walk re-enters at
    // 0x2000, and 0x1000 is the last address before the loop — the
    // natural place to pin a quarantined reference.
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x3000, true);
    mem.unforwardedWrite(0x3000, 0x2000, true);
    const CycleCheckResult r = accurateCycleCheck(mem, 0x1000);
    ASSERT_TRUE(r.is_cycle);
    EXPECT_EQ(r.cycle_entry, 0x2000u);
    EXPECT_EQ(r.pre_cycle, 0x1000u);
}

TEST(CycleCheck, ErrorCarriesContext)
{
    const ForwardingCycleError err(0xbeef0, 7);
    EXPECT_EQ(err.start(), 0xbeef0u);
    EXPECT_EQ(err.length(), 7u);
    EXPECT_NE(std::string(err.what()).find("forwarding cycle"),
              std::string::npos);
}

TEST(CycleCheck, ErrorCarriesQuarantineDecisionContext)
{
    const ForwardingCycleError err(0xbeef0, 7, /*site=*/42, "trap");
    EXPECT_EQ(err.site(), 42u);
    EXPECT_EQ(err.policy(), "trap");
    const std::string what = err.what();
    EXPECT_NE(what.find("0xbeef0"), std::string::npos);
    EXPECT_NE(what.find("length=7"), std::string::npos);
    EXPECT_NE(what.find("site=42"), std::string::npos);
    EXPECT_NE(what.find("policy=trap"), std::string::npos);
}

TEST(CycleCheck, ErrorDefaultsToAbortPolicyAndNoSite)
{
    const ForwardingCycleError err(0x1000, 1);
    EXPECT_EQ(err.site(), no_site);
    EXPECT_EQ(err.policy(), "abort");
}

} // namespace
} // namespace memfwd
