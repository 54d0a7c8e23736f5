/** @file Unit tests for final-address pointer comparison (Section 2.1). */

#include <gtest/gtest.h>

#include "core/cycle_check.hh"
#include "runtime/machine.hh"
#include "runtime/pointer_compare.hh"
#include "runtime/relocation.hh"

namespace memfwd
{
namespace
{

TEST(PointerCompare, EqualInitialAddressesAreEqual)
{
    Machine m;
    EXPECT_TRUE(pointersEqual(m, 0x1000, 0x1000));
}

TEST(PointerCompare, DistinctUnrelatedPointersDiffer)
{
    Machine m;
    EXPECT_FALSE(pointersEqual(m, 0x1000, 0x2000));
    EXPECT_LT(pointerCompare(m, 0x1000, 0x2000), 0);
    EXPECT_GT(pointerCompare(m, 0x2000, 0x1000), 0);
}

TEST(PointerCompare, StaleAndFreshPointersToSameObjectCompareEqual)
{
    // The paper's exact hazard: after relocation, a stale pointer and
    // an updated pointer have different initial addresses but designate
    // the same object.
    Machine m;
    m.access(Access::store(0x1000, 8, 9));
    relocate(m, 0x1000, 0x5000, 1);
    EXPECT_TRUE(pointersEqual(m, 0x1000, 0x5000));
    EXPECT_EQ(pointerCompare(m, 0x1000, 0x5000), 0);
}

TEST(PointerCompare, OffsetsWithinWordRespected)
{
    Machine m;
    relocate(m, 0x1000, 0x5000, 1);
    EXPECT_TRUE(pointersEqual(m, 0x1004, 0x5004));
    EXPECT_FALSE(pointersEqual(m, 0x1004, 0x5002));
}

TEST(PointerCompare, BothStaleThroughDifferentChains)
{
    Machine m;
    relocate(m, 0x1000, 0x3000, 1);
    relocate(m, 0x2000, 0x3000, 1); // both old homes point to 0x3000
    EXPECT_TRUE(pointersEqual(m, 0x1000, 0x2000));
}

TEST(PointerCompare, ComparisonChargesTime)
{
    Machine m;
    relocate(m, 0x1000, 0x5000, 1);
    const Cycles before = m.cycles();
    pointersEqual(m, 0x1000, 0x5000);
    EXPECT_GT(m.cycles(), before);
}

TEST(PointerCompare, OrderingFollowsFinalAddresses)
{
    Machine m;
    // 0x9000 forwards to 0x0800: its final address is LOWER than 0x1000.
    relocate(m, 0x9000, 0x0800, 1);
    EXPECT_LT(pointerCompare(m, 0x9000, 0x1000), 0);
}

TEST(PointerCompare, CorruptChainThrowsInsteadOfComparing)
{
    // 0x1000 forwards to the misaligned 0x2003: rounding it down would
    // make 0x1000 and 0x2000 "equal".  The walk refuses it as peek() does.
    Machine m;
    m.mem().unforwardedWrite(0x1000, 0x2003, true);
    EXPECT_THROW(m.peek(0x1000, 8), ForwardingIntegrityError);
    EXPECT_THROW(pointersEqual(m, 0x1000, 0x2000), ForwardingIntegrityError);
    EXPECT_THROW(pointerCompare(m, 0x1000, 0x2000),
                 ForwardingIntegrityError);
}

} // namespace
} // namespace memfwd
