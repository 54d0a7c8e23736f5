/** @file Unit tests for one cache level. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "mem/main_memory.hh"

namespace memfwd
{
namespace
{

/**
 * Backing memory whose 32 B line transfer (fill or writeback) takes
 * @p cycles: a fixed latency plus a 4-cycle burst at 8 B per cycle.
 */
MainMemoryConfig
memTaking(Cycles cycles)
{
    return {.latency = cycles - 4, .bytesPerCycle = 8};
}

CacheConfig
smallConfig()
{
    // 4 sets x 2 ways x 32B lines = 256B cache.
    return {.name = "t",
            .size_bytes = 256,
            .assoc = 2,
            .line_bytes = 32,
            .hit_latency = 1,
            .mshrs = 4};
}

TEST(Cache, MissThenHit)
{
    MainMemory mem(memTaking(50));
    Cache c(smallConfig(), mem);

    auto miss = c.access(0x1000, AccessType::load, 0);
    EXPECT_EQ(miss.kind, MissKind::full);
    EXPECT_EQ(miss.ready, 51u); // 1 cycle lookup + 50 in memory

    auto hit = c.access(0x1008, AccessType::load, 60);
    EXPECT_EQ(hit.kind, MissKind::hit);
    EXPECT_EQ(hit.ready, 61u);

    EXPECT_EQ(c.stats().load_full_misses, 1u);
    EXPECT_EQ(c.stats().load_hits, 1u);
}

TEST(Cache, PartialMissCombinesWithInflightFill)
{
    MainMemory mem(memTaking(50));
    Cache c(smallConfig(), mem);

    auto first = c.access(0x1000, AccessType::load, 0);
    // Second access to the same line while the fill is in flight: a
    // partial miss that waits for the fill, not a second fetch.
    auto second = c.access(0x1010, AccessType::load, 5);
    EXPECT_EQ(second.kind, MissKind::partial);
    EXPECT_EQ(second.ready, first.ready);
    EXPECT_EQ(mem.accesses(), 1u); // one fill
    EXPECT_EQ(c.stats().load_partial_misses, 1u);
}

TEST(Cache, PartialMissNearFillEndPaysAtLeastHitLatency)
{
    MainMemory mem(memTaking(50));
    Cache c(smallConfig(), mem);
    c.access(0x1000, AccessType::load, 0); // ready 51
    auto late = c.access(0x1000, AccessType::load, 51);
    EXPECT_EQ(late.kind, MissKind::hit);
    EXPECT_EQ(late.ready, 52u);
}

TEST(Cache, StoreMissAllocatesAndDirties)
{
    MainMemory mem(memTaking(50));
    Cache c(smallConfig(), mem);
    c.access(0x2000, AccessType::store, 0);
    EXPECT_EQ(c.stats().store_full_misses, 1u);
    EXPECT_TRUE(c.contains(0x2000));

    // Evict it by filling the set: 4 sets -> same set every 4 lines.
    const Addr set_stride = 32 * 4;
    c.access(0x2000 + set_stride, AccessType::load, 100);
    c.access(0x2000 + 2 * set_stride, AccessType::load, 200);
    EXPECT_EQ(mem.accesses(), 4u); // three fills + one writeback
    EXPECT_EQ(c.stats().writebacks, 1u);
    EXPECT_EQ(c.stats().bytes_out, 32u);
}

TEST(Cache, LruReplacement)
{
    MainMemory mem(memTaking(10));
    Cache c(smallConfig(), mem);
    const Addr stride = 32 * 4; // same set
    c.access(0x0, AccessType::load, 0);          // way A
    c.access(stride, AccessType::load, 20);      // way B
    c.access(0x0, AccessType::load, 40);         // touch A again
    c.access(2 * stride, AccessType::load, 60);  // evicts B (LRU)
    EXPECT_TRUE(c.contains(0x0));
    EXPECT_FALSE(c.contains(stride));
    EXPECT_TRUE(c.contains(2 * stride));
}

TEST(Cache, BytesInCountsFills)
{
    MainMemory mem(memTaking(10));
    Cache c(smallConfig(), mem);
    c.access(0x0, AccessType::load, 0);
    c.access(0x100, AccessType::load, 50);
    EXPECT_EQ(c.stats().bytes_in, 64u);
}

TEST(Cache, PrefetchFillsWithoutDemandStats)
{
    MainMemory mem(memTaking(50));
    Cache c(smallConfig(), mem);
    c.access(0x3000, AccessType::prefetch, 0);
    EXPECT_EQ(c.stats().prefetch_misses, 1u);
    EXPECT_EQ(c.stats().load_full_misses, 0u);

    // Demand hit on the prefetched line counts usefulness.
    auto hit = c.access(0x3000, AccessType::load, 100);
    EXPECT_EQ(hit.kind, MissKind::hit);
    EXPECT_EQ(c.stats().useful_prefetches, 1u);
}

TEST(Cache, UselessPrefetchNotCounted)
{
    MainMemory mem(memTaking(10));
    Cache c(smallConfig(), mem);
    c.access(0x3000, AccessType::prefetch, 0);
    // Evict it without ever touching it.
    const Addr stride = 32 * 4;
    c.access(0x3000 + stride, AccessType::load, 50);
    c.access(0x3000 + 2 * stride, AccessType::load, 100);
    EXPECT_EQ(c.stats().useful_prefetches, 0u);
}

TEST(Cache, WritebackFromAboveDirtiesResidentLine)
{
    MainMemory mem(memTaking(10));
    Cache c(smallConfig(), mem);
    c.access(0x4000, AccessType::load, 0);
    c.writeback(0x4000, 50);
    // Force eviction; the dirty line must be written down.
    const Addr stride = 32 * 4;
    c.access(0x4000 + stride, AccessType::load, 60);
    c.access(0x4000 + 2 * stride, AccessType::load, 70);
    EXPECT_EQ(mem.accesses(), 4u); // three fills + one writeback
}

TEST(Cache, WritebackFromAboveAllocatesIfAbsent)
{
    MainMemory mem(memTaking(10));
    Cache c(smallConfig(), mem);
    c.writeback(0x5000, 0);
    EXPECT_TRUE(c.contains(0x5000));
    EXPECT_EQ(mem.accesses(), 0u); // no fetch: whole line arrived
}

TEST(Cache, FlushEmptiesEverything)
{
    MainMemory mem(memTaking(10));
    Cache c(smallConfig(), mem);
    c.access(0x0, AccessType::load, 0);
    c.flush();
    EXPECT_FALSE(c.contains(0x0));
}

TEST(CacheDeathTest, BadGeometryRejected)
{
    MainMemory mem(memTaking(10));
    CacheConfig bad = smallConfig();
    bad.line_bytes = 48; // not a power of two
    EXPECT_DEATH(Cache(bad, mem), "power of two");
}

// Parameterized sweep: the hit/miss invariant holds for every line
// size the paper uses.
class CacheLineSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheLineSweep, SequentialAccessMissesOncePerLine)
{
    const unsigned line = GetParam();
    MainMemory mem(memTaking(10));
    CacheConfig cfg{.name = "s",
                    .size_bytes = 8 * 1024,
                    .assoc = 2,
                    .line_bytes = line,
                    .hit_latency = 1,
                    .mshrs = 8};
    Cache c(cfg, mem);
    const unsigned total = 2048;
    Cycles t = 0;
    for (unsigned off = 0; off < total; off += 8)
        t = c.access(0x10000 + off, AccessType::load, t).ready;
    EXPECT_EQ(c.stats().load_full_misses, total / line);
    EXPECT_EQ(c.stats().load_hits, total / 8 - total / line);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, CacheLineSweep,
                         ::testing::Values(32u, 64u, 128u, 256u));

} // namespace
} // namespace memfwd
