/** @file Unit tests for the two-level hierarchy. */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace memfwd
{
namespace
{

HierarchyConfig
testConfig(unsigned line = 32)
{
    HierarchyConfig cfg;
    cfg.l1d = {.name = "l1d",
               .size_bytes = 1024,
               .assoc = 2,
               .line_bytes = line,
               .hit_latency = 1,
               .mshrs = 4};
    cfg.l2 = {.name = "l2",
              .size_bytes = 16 * 1024,
              .assoc = 4,
              .line_bytes = line,
              .hit_latency = 10,
              .mshrs = 8};
    cfg.memory = {.latency = 70, .bytesPerCycle = 8};
    return cfg;
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    MemoryHierarchy h(testConfig());
    auto r = h.access(0x1000, AccessType::load, 0);
    EXPECT_EQ(r.depth, 2u);
    // 1 (L1 lookup) + 10 (L2 lookup) + 70 + 4 burst cycles.
    EXPECT_EQ(r.ready, 85u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy h(testConfig());
    // Fill far beyond L1 (1KB) but within L2 (16KB).
    Cycles t = 0;
    for (Addr a = 0; a < 4 * 1024; a += 32)
        t = h.access(a, AccessType::load, t).ready;
    // Address 0 has been evicted from L1 but lives in L2.
    auto r = h.access(0, AccessType::load, t + 1000);
    EXPECT_EQ(r.depth, 1u);
    EXPECT_EQ(r.kind, MissKind::full);
}

TEST(Hierarchy, L1HitIsCheap)
{
    MemoryHierarchy h(testConfig());
    h.access(0x40, AccessType::load, 0);
    auto r = h.access(0x40, AccessType::load, 500);
    EXPECT_EQ(r.depth, 0u);
    EXPECT_EQ(r.ready, 501u);
}

TEST(Hierarchy, TrafficCountersTrackLinks)
{
    MemoryHierarchy h(testConfig());
    h.access(0x0, AccessType::load, 0);
    // One line filled into both L1 and L2.
    EXPECT_EQ(h.l1L2Bytes(), 32u);
    EXPECT_EQ(h.l2MemBytes(), 32u);
    EXPECT_EQ(h.memory().bytesTransferred(), 32u);
}

TEST(Hierarchy, DirtyEvictionsPropagateTraffic)
{
    MemoryHierarchy h(testConfig());
    // Dirty many L1 lines mapping to the same sets; evictions write
    // back to L2 (bytes_out on the L1<->L2 link).
    Cycles t = 0;
    for (Addr a = 0; a < 8 * 1024; a += 32)
        t = h.access(a, AccessType::store, t).ready;
    EXPECT_GT(h.l1d().stats().writebacks, 0u);
    EXPECT_GT(h.l1L2Bytes(), h.l1d().stats().bytes_in);
}

TEST(Hierarchy, ClearStatsKeepsContents)
{
    MemoryHierarchy h(testConfig());
    h.access(0x80, AccessType::load, 0);
    h.clearStats();
    EXPECT_EQ(h.l1L2Bytes(), 0u);
    auto r = h.access(0x80, AccessType::load, 100);
    EXPECT_EQ(r.kind, MissKind::hit);
}

TEST(Hierarchy, ResetDropsContents)
{
    MemoryHierarchy h(testConfig());
    h.access(0x80, AccessType::load, 0);
    h.reset();
    auto r = h.access(0x80, AccessType::load, 100);
    EXPECT_EQ(r.kind, MissKind::full);
}

TEST(Hierarchy, ResetDropsInFlightFills)
{
    // A fill still in flight when the hierarchy is reset belongs to the
    // old contents: the next access to its line starts a new fill from
    // memory instead of combining with it.
    MemoryHierarchy h;
    const auto first = h.access(0x1000, AccessType::load, 0);
    ASSERT_EQ(first.kind, MissKind::full);
    ASSERT_GT(first.ready, 1u);
    h.reset();
    const auto r = h.access(0x1000, AccessType::load, 1);
    EXPECT_EQ(r.kind, MissKind::full);
    EXPECT_EQ(r.depth, 2u);
    EXPECT_EQ(h.l1d().stats().load_partial_misses, 0u);
    EXPECT_EQ(h.l2().stats().load_full_misses, 1u);
}

TEST(HierarchyDeathTest, MixedLineSizesRejected)
{
    HierarchyConfig cfg = testConfig();
    cfg.l2.line_bytes = 64;
    EXPECT_DEATH(MemoryHierarchy h(cfg), "mixed line sizes");
}

// The paper's premise: with no spatial locality, longer lines waste
// bandwidth without reducing misses much.
TEST(Hierarchy, LongLinesWasteBandwidthOnScatteredAccesses)
{
    MemoryHierarchy h32(testConfig(32));
    MemoryHierarchy h128(testConfig(128));
    // Touch one word every 512 bytes: no spatial locality at all.
    Cycles t32 = 0, t128 = 0;
    for (Addr a = 0; a < 64 * 1024; a += 512) {
        t32 = h32.access(a, AccessType::load, t32).ready;
        t128 = h128.access(a, AccessType::load, t128).ready;
    }
    EXPECT_EQ(h32.l1d().stats().loadMisses(),
              h128.l1d().stats().loadMisses());
    EXPECT_EQ(h128.l2MemBytes(), 4 * h32.l2MemBytes());
}

// And the payoff: with perfect spatial locality, longer lines cut
// misses proportionally.
TEST(Hierarchy, LongLinesPrefetchSequentialAccesses)
{
    MemoryHierarchy h32(testConfig(32));
    MemoryHierarchy h128(testConfig(128));
    Cycles t32 = 0, t128 = 0;
    for (Addr a = 0; a < 16 * 1024; a += 8) {
        t32 = h32.access(a, AccessType::load, t32).ready;
        t128 = h128.access(a, AccessType::load, t128).ready;
    }
    EXPECT_EQ(h32.l1d().stats().loadMisses(),
              4 * h128.l1d().stats().loadMisses());
}

} // namespace
} // namespace memfwd
