/**
 * @file
 * One level of set-associative cache with timing.
 *
 * Write-back, write-allocate; true-LRU (the default), FIFO or random
 * replacement.  Misses allocate an MSHR; accesses that combine with an
 * in-flight fill are classified as *partial* misses, those that start a
 * new fill as *full* misses, which is exactly the breakdown Figure 6(a)
 * of the paper reports.
 *
 * A line is installed at miss time, so the fill an access combines with
 * may belong to a line that is still resident (the common case,
 * reported at depth 0) or to one that a later miss to the same set has
 * already evicted again (depth 1, as if served by the fill from below).
 * Either way the access waits for the rest of the fill.  A resident
 * line is touched as on a hit (LRU, a store's dirty bit); an evicted
 * one is not there to touch, so a store that combines with its fill
 * dirties no line and its data never reaches a writeback: a deviation
 * from a real write-allocate cache, kept because mending it changes
 * traffic and cycles.  It is rare.  At scale 0.2, compress on a 1 KB
 * direct-mapped L1 combines with an evicted line's fill 1,112 times
 * over both levels (1,023 stores), 1,744 times with --opt (753 stores);
 * at the default geometry the nine workloads, with and without --opt,
 * do so twice in all (one store each in mst and radiosity with --opt).
 *
 * Each cache counts the bytes it exchanges with the level below it
 * (fills in, writebacks out); the hierarchy sums these into per-link
 * traffic for Figure 6(b).
 *
 * Host layout.  A set is one block, aligned to a host cache line: its
 * assoc tags, then its assoc stamps, so probing a set of up to four
 * ways reads one host line (the default 1 MiB, 4-way L2 is a 512 KiB
 * host array).  An invalid way holds a sentinel tag that no line
 * address equals.  There is one stamp per way, drawn from one clock
 * and written only by the policy that reads it: LRU stamps every touch
 * and fill, FIFO only fills, random nothing.  The victim is the first
 * invalid way, else the oldest stamp (LRU, FIFO) or the next draw of a
 * xorshift stream (random).  Dirty and prefetched bits, read only on a
 * hit or an eviction, are one byte per way in a separate array.
 */

#ifndef MEMFWD_CACHE_CACHE_HH
#define MEMFWD_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/mshr.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace memfwd
{

/** Abstract "level below" a cache: another cache or main memory. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /** Result of a timed access at this level. */
    struct Result
    {
        Cycles ready;     ///< cycle at which the data is available
        MissKind kind;    ///< how this level satisfied the access
        unsigned depth;   ///< levels below that were touched (0 = here)
    };

    /**
     * Access @p line-aligned address at @p now.  @p type distinguishes
     * demand loads/stores from prefetches for the statistics.
     */
    virtual Result access(Addr addr, AccessType type, Cycles now) = 0;

    /** Accept a dirty line evicted by the level above at @p now. */
    virtual void writeback(Addr line_addr, Cycles now) = 0;
};

/** Adapts MainMemory to the MemLevel interface (always a "full miss"). */
class MemoryLevel : public MemLevel
{
  public:
    MemoryLevel(class MainMemory &mem, unsigned line_bytes)
        : mem_(mem), line_bytes_(line_bytes)
    {}

    Result access(Addr addr, AccessType type, Cycles now) override;
    void writeback(Addr line_addr, Cycles now) override;

  private:
    class MainMemory &mem_;
    unsigned line_bytes_;
};

/** Per-cache statistics, split by access type and miss kind. */
struct CacheStats
{
    std::uint64_t load_hits = 0;
    std::uint64_t load_partial_misses = 0;
    std::uint64_t load_full_misses = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t store_partial_misses = 0;
    std::uint64_t store_full_misses = 0;
    std::uint64_t prefetch_hits = 0;
    std::uint64_t prefetch_misses = 0;
    std::uint64_t writebacks = 0;

    /** Bytes filled from the level below. */
    std::uint64_t bytes_in = 0;
    /** Bytes written back to the level below. */
    std::uint64_t bytes_out = 0;

    /** Lines filled by prefetch that were later demand-hit. */
    std::uint64_t useful_prefetches = 0;

    std::uint64_t loadMisses() const
    {
        return load_partial_misses + load_full_misses;
    }
    std::uint64_t storeMisses() const
    {
        return store_partial_misses + store_full_misses;
    }
    std::uint64_t demandAccesses() const
    {
        return load_hits + loadMisses() + store_hits + storeMisses();
    }
    std::uint64_t linkBytes() const { return bytes_in + bytes_out; }
};

/** A single set-associative, write-back, write-allocate cache level. */
class Cache final : public MemLevel
{
  public:
    Cache(const CacheConfig &cfg, MemLevel &below);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    Result access(Addr addr, AccessType type, Cycles now) override;
    void writeback(Addr line_addr, Cycles now) override;

    /** True if the line containing @p addr is currently resident. */
    bool contains(Addr addr) const;

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /** Add this cache's counters/gauges to @p into (obs layer). */
    void fillMetrics(obs::MetricsNode &into) const;

    /** This cache's metrics as a standalone tree. */
    obs::MetricsNode
    metrics() const
    {
        obs::MetricsNode n;
        fillMetrics(n);
        return n;
    }

    /** Zero the statistics (contents and LRU state are preserved). */
    void clearStats() { stats_ = CacheStats(); }

    /** Invalidate every line and drop every fill in flight. */
    void flush();

    Addr lineAlign(Addr a) const { return a & ~Addr(cfg_.line_bytes - 1); }

  private:
    /** One way of a set: its tag, whose stamp is assoc words on, and
     *  its flags. */
    struct Way
    {
        Addr *tag = nullptr; ///< nullptr when the line is absent
        std::uint8_t *flags = nullptr;
    };

    /** One host cache line; a set's block is one or more of them. */
    static constexpr unsigned words_per_host_line = 8;
    struct alignas(64) HostLine
    {
        std::uint64_t word[words_per_host_line];
    };

    static constexpr Addr invalid_tag = ~Addr(0);
    static constexpr std::uint8_t dirty_bit = 1;
    static constexpr std::uint8_t prefetched_bit = 2; ///< not yet used

    unsigned setIndex(Addr line_addr) const;
    /** The set's assoc tags; its assoc stamps follow them. */
    Addr *
    tags(unsigned set)
    {
        return blocks_[std::size_t(set) * host_lines_per_set_].word;
    }
    const Addr *
    tags(unsigned set) const
    {
        return blocks_[std::size_t(set) * host_lines_per_set_].word;
    }
    Way
    way(unsigned set, unsigned w)
    {
        return {tags(set) + w, &flags_[std::size_t(set) * cfg_.assoc + w]};
    }

    /**
     * Tag lookup with a one-entry MRU hint.  Tags store the full line
     * address, so a tag match on the hinted way is sufficient — the
     * hint self-invalidates when its way is re-filled with a different
     * tag or invalidated by flush().
     */
    Way find(Addr line_addr);
    unsigned chooseVictim(unsigned set);
    /** A hit, a combine with a resident line's fill, or a writeback. */
    void
    touch(Way w)
    {
        if (cfg_.replacement == ReplacementPolicy::lru)
            w.tag[cfg_.assoc] = ++clock_;
    }
    /** Count one access of @p type that ended as @p kind. */
    void count(AccessType type, MissKind kind);
    /**
     * Fill @p line_addr into its set, writing a dirty victim back to the
     * level below at @p victim_time.
     */
    void install(Addr line_addr, std::uint8_t line_flags,
                 Cycles victim_time);

    CacheConfig cfg_;
    MemLevel &below_;
    MshrFile mshrs_;
    CacheStats stats_;
    /** Per set, assoc tags then assoc stamps, padded to host lines. */
    std::vector<HostLine> blocks_;
    /** dirty_bit | prefetched_bit per way, sets x assoc, row-major. */
    std::vector<std::uint8_t> flags_;
    unsigned host_lines_per_set_ = 1;
    unsigned line_shift_ = 0; ///< log2(line_bytes)
    unsigned set_mask_ = 0;   ///< numSets() - 1
    Way mru_;                 ///< last way hit or installed
    std::uint64_t clock_ = 0; ///< source of every stamp
    std::uint64_t victim_seed_ = 0x2545f4914f6cdd1dULL;
};

} // namespace memfwd

#endif // MEMFWD_CACHE_CACHE_HH
