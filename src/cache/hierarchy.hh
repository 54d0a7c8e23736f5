/**
 * @file
 * Two-level cache hierarchy plus main memory.
 *
 * The hierarchy is the single timing entry point for all data
 * references: the CPU model asks it "if this reference starts at cycle
 * N, when is the data ready and what kind of miss was it?".  It holds
 * one fixed chain by value, L1D -> L2 -> MainMemory, each level calling
 * the next directly, and answers with the L1's HierarchyResult.  It
 * also owns the Figure 6(b) traffic accounting: bytes moved on the
 * L1<->L2 link and on the L2<->memory link.
 */

#ifndef MEMFWD_CACHE_HIERARCHY_HH
#define MEMFWD_CACHE_HIERARCHY_HH

#include <cstdint>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "common/types.hh"
#include "mem/main_memory.hh"

namespace memfwd
{

/** Configuration of the whole hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1d{.name = "l1d",
                    .size_bytes = 32 * 1024,
                    .assoc = 2,
                    .line_bytes = 32,
                    .hit_latency = 1,
                    .mshrs = 8};
    CacheConfig l2{.name = "l2",
                   .size_bytes = 1024 * 1024,
                   .assoc = 4,
                   .line_bytes = 32,
                   .hit_latency = 10,
                   .mshrs = 16};
    MainMemoryConfig memory{};

    /** Set both caches' line size at once (the paper's sweep knob). */
    void
    setLineBytes(unsigned bytes)
    {
        l1d.line_bytes = bytes;
        l2.line_bytes = bytes;
    }
};

/** L1D + L2 + DRAM with per-link traffic counters. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &cfg = {});

    MemoryHierarchy(const MemoryHierarchy &) = delete;
    MemoryHierarchy &operator=(const MemoryHierarchy &) = delete;

    /**
     * Timed access for a demand load/store or a prefetch.  `kind` is
     * the L1 outcome (hit/partial/full); `depth` is 0 for an L1 hit,
     * 1 for L2, 2 for memory.
     */
    HierarchyResult access(Addr addr, AccessType type, Cycles now);

    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const MainMemory &memory() const { return mem_; }

    /** Bytes moved between L1 and L2 (fills + writebacks). */
    std::uint64_t l1L2Bytes() const { return l1d_.stats().linkBytes(); }

    /** Bytes moved between L2 and memory (fills + writebacks). */
    std::uint64_t l2MemBytes() const { return l2_.stats().linkBytes(); }

    const HierarchyConfig &config() const { return cfg_; }

    /**
     * Add the hierarchy's metrics to @p into: children "l1d" and "l2"
     * (per-cache counters) and "traffic" (per-link bytes).  Filling the
     * machine root keeps the legacy flat names intact.
     */
    void fillMetrics(obs::MetricsNode &into) const;

    /** Zero all statistics; cache contents are preserved. */
    void clearStats();

    /** Invalidate all cache contents, drop the fills in flight and zero
     *  statistics.  DRAM channel occupancy stays, as
     *  MainMemory::clearStats() keeps it. */
    void reset();

  private:
    HierarchyConfig cfg_;
    MainMemory mem_;
    Cache l2_;
    Cache l1d_;
};

} // namespace memfwd

#endif // MEMFWD_CACHE_HIERARCHY_HH
