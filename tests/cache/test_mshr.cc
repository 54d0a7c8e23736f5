/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "cache/mshr.hh"

namespace memfwd
{
namespace
{

TEST(Mshr, NoOutstandingFillInitially)
{
    MshrFile m(4);
    EXPECT_EQ(m.outstandingFill(0x100, 0), 0u);
}

TEST(Mshr, AllocateCompleteTracksFill)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocate(0x100, 10), 10u);
    m.complete(80);
    EXPECT_EQ(m.outstandingFill(0x100, 20), 80u);
    EXPECT_EQ(m.outstandingFill(0x100, 80), 0u); // done by then
    EXPECT_EQ(m.outstandingFill(0x200, 20), 0u); // different line
}

TEST(Mshr, FullFileDelaysAllocation)
{
    MshrFile m(2);
    m.allocate(0xa0, 0);
    m.complete(100);
    m.allocate(0xb0, 0);
    m.complete(120);
    // Both busy at cycle 0; third miss waits for the earliest (100).
    EXPECT_EQ(m.allocate(0xc0, 0), 100u);
    m.complete(200);
    // It took 0xa0's entry; 0xb0's fill is still outstanding.
    EXPECT_EQ(m.outstandingFill(0xa0, 50), 0u);
    EXPECT_EQ(m.outstandingFill(0xb0, 50), 120u);
    EXPECT_EQ(m.outstandingFill(0xc0, 150), 200u);
}

TEST(Mshr, EntriesExpireAndGetReused)
{
    MshrFile m(1);
    m.allocate(0xa0, 0);
    m.complete(50);
    // At cycle 60 the single entry is free again.
    EXPECT_EQ(m.allocate(0xb0, 60), 60u);
    m.complete(130);
    EXPECT_EQ(m.outstandingFill(0xb0, 100), 130u);
}

TEST(Mshr, ExpiryHoldsForEarlierCycles)
{
    // An entry an allocation has expired stays free even when a later
    // question asks about a cycle before its fill completed.
    MshrFile m(2);
    m.allocate(0x90, 0);
    m.complete(5);
    m.allocate(0xa0, 0); // second entry: the first is busy until 5
    m.complete(50);
    EXPECT_EQ(m.outstandingFill(0xa0, 10), 50u);
    m.allocate(0xb0, 60); // expires both, takes the first
    m.complete(100);
    EXPECT_EQ(m.outstandingFill(0xa0, 10), 0u);
    EXPECT_EQ(m.outstandingFill(0xb0, 10), 100u);
}

TEST(MshrDeathTest, ZeroEntriesRejected)
{
    EXPECT_DEATH(MshrFile m(0), "at least one entry");
}

} // namespace
} // namespace memfwd
