/** @file Unit tests for the cache replacement policies. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "mem/main_memory.hh"

namespace memfwd
{
namespace
{

/** Backing memory: a 32 B line transfer takes 10 cycles (6 + a
 *  4-cycle burst at 8 B per cycle). */
struct Below : MainMemory
{
    Below() : MainMemory({.latency = 6, .bytesPerCycle = 8}) {}
};

CacheConfig
cfgWith(ReplacementPolicy policy)
{
    return {.name = "t",
            .size_bytes = 256, // 4 sets x 2 ways x 32B
            .assoc = 2,
            .line_bytes = 32,
            .hit_latency = 1,
            .mshrs = 4,
            .replacement = policy};
}

TEST(Replacement, LruKeepsRecentlyTouched)
{
    Below below;
    Cache c(cfgWith(ReplacementPolicy::lru), below);
    const Addr stride = 32 * 4; // same set
    c.access(0, AccessType::load, 0);
    c.access(stride, AccessType::load, 100);
    c.access(0, AccessType::load, 200);          // refresh line 0
    c.access(2 * stride, AccessType::load, 300); // evicts `stride`
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(stride));
}

TEST(Replacement, FifoIgnoresTouches)
{
    Below below;
    Cache c(cfgWith(ReplacementPolicy::fifo), below);
    const Addr stride = 32 * 4;
    c.access(0, AccessType::load, 0);            // filled first
    c.access(stride, AccessType::load, 100);
    c.access(0, AccessType::load, 200);          // touch: FIFO ignores
    c.access(2 * stride, AccessType::load, 300); // evicts 0 (oldest fill)
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(stride));
}

TEST(Replacement, RandomEvictsSomethingValidStateStaysSane)
{
    Below below;
    Cache c(cfgWith(ReplacementPolicy::random), below);
    const Addr stride = 32 * 4;
    // Fill the set, then force 20 evictions; exactly 2 of the 3 hot
    // lines may be resident at any time.
    for (int i = 0; i < 20; ++i)
        c.access(Addr(i % 3) * stride, AccessType::load, Cycles(i) * 50);
    unsigned resident = 0;
    for (int i = 0; i < 3; ++i)
        resident += c.contains(Addr(i) * stride);
    EXPECT_LE(resident, 2u);
    EXPECT_GE(resident, 1u);
}

TEST(Replacement, RandomIsDeterministicAcrossRuns)
{
    Below b1, b2;
    Cache c1(cfgWith(ReplacementPolicy::random), b1);
    Cache c2(cfgWith(ReplacementPolicy::random), b2);
    const Addr stride = 32 * 4;
    for (int i = 0; i < 50; ++i) {
        const Addr a = Addr(i % 5) * stride;
        c1.access(a, AccessType::load, Cycles(i) * 20);
        c2.access(a, AccessType::load, Cycles(i) * 20);
    }
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(c1.contains(Addr(i) * stride),
                  c2.contains(Addr(i) * stride));
    }
    EXPECT_EQ(c1.stats().load_full_misses, c2.stats().load_full_misses);
}

// A cyclic sweep one line larger than the set is LRU's worst case:
// LRU evicts exactly the line needed next; FIFO behaves identically
// here, but RANDOM keeps some lines by luck.
TEST(Replacement, RandomBeatsLruOnCyclicOverflow)
{
    Below bl, br;
    Cache lru(cfgWith(ReplacementPolicy::lru), bl);
    Cache rnd(cfgWith(ReplacementPolicy::random), br);
    const Addr stride = 32 * 4;
    Cycles t = 0;
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 3; ++i) { // 3 lines, 2 ways: overflow by 1
            t += 50;
            lru.access(Addr(i) * stride, AccessType::load, t);
            rnd.access(Addr(i) * stride, AccessType::load, t);
        }
    }
    EXPECT_GT(lru.stats().load_full_misses,
              rnd.stats().load_full_misses);
}

} // namespace
} // namespace memfwd
