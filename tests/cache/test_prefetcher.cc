/**
 * @file
 * Unit tests for block prefetch: one Access::prefetch through
 * Machine::access fetches consecutive lines into the hierarchy
 * (Section 5.2) and counts under "prefetch" in the metrics tree.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "runtime/machine.hh"

namespace memfwd
{
namespace
{

MachineConfig
cfg()
{
    MachineConfig c;
    c.hierarchy.l1d.size_bytes = 2048;
    c.hierarchy.setLineBytes(32);
    return c;
}

std::uint64_t
counter(const Machine &m, const char *path)
{
    return m.metrics().counterAt(path);
}

TEST(Prefetcher, SingleLinePrefetchFillsL1)
{
    Machine m(cfg());
    m.access(Access::prefetch(0x1000, 1));
    EXPECT_TRUE(m.hierarchy().l1d().contains(0x1000));
    EXPECT_EQ(counter(m, "prefetch.instructions"), 1u);
    EXPECT_EQ(counter(m, "prefetch.issued"), 1u);
}

TEST(Prefetcher, BlockPrefetchCoversConsecutiveLines)
{
    Machine m(cfg());
    m.access(Access::prefetch(0x2000, 4));
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(m.hierarchy().l1d().contains(0x2000 + i * 32));
    EXPECT_FALSE(m.hierarchy().l1d().contains(0x2000 + 4 * 32));
    EXPECT_EQ(counter(m, "prefetch.instructions"), 1u);
    EXPECT_EQ(counter(m, "prefetch.issued"), 4u);
}

TEST(Prefetcher, UnalignedAddressPrefetchesContainingLines)
{
    Machine m(cfg());
    m.access(Access::prefetch(0x3010, 2)); // mid-line
    EXPECT_TRUE(m.hierarchy().l1d().contains(0x3000));
    EXPECT_TRUE(m.hierarchy().l1d().contains(0x3020));
}

TEST(Prefetcher, DemandHitAfterPrefetchCountsUseful)
{
    Machine m(cfg());
    m.access(Access::prefetch(0x5000, 2));
    m.hierarchy().access(0x5020, AccessType::load, 500);
    EXPECT_EQ(m.hierarchy().l1d().stats().useful_prefetches, 1u);
}

// Prefetches are timing-only: fast-forwarded, one fetches no line and
// counts nothing; once its region closes, the next one does both.
TEST(Prefetcher, FastForwardedPrefetchFetchesNothing)
{
    Machine m(MachineConfig(cfg()).fastForward("build"));
    {
        RegionGuard build(m, "build");
        const AccessResult r = m.access(Access::prefetch(0x6000, 3));
        EXPECT_EQ(r.ready, 0u);
    }
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_FALSE(m.hierarchy().l1d().contains(0x6000 + i * 32));
    EXPECT_EQ(m.hierarchy().l1d().stats().prefetch_misses, 0u);
    EXPECT_EQ(counter(m, "prefetch.instructions"), 0u);
    EXPECT_EQ(counter(m, "prefetch.issued"), 0u);

    m.access(Access::prefetch(0x6000, 3));
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(m.hierarchy().l1d().contains(0x6000 + i * 32));
    EXPECT_EQ(m.hierarchy().l1d().stats().prefetch_misses, 3u);
    EXPECT_EQ(counter(m, "prefetch.instructions"), 1u);
    EXPECT_EQ(counter(m, "prefetch.issued"), 3u);
}

} // namespace
} // namespace memfwd
