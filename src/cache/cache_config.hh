/**
 * @file
 * Configuration records for the cache hierarchy.
 *
 * The paper evaluates line sizes of 32B, 64B and 128B (and 256B for the
 * BH subtree-clustering experiment), so line size is the first-class
 * knob here.  Capacity/associativity/latency defaults follow the MIPS
 * R10000-class machine described in DESIGN.md Section 5.
 */

#ifndef MEMFWD_CACHE_CACHE_CONFIG_HH
#define MEMFWD_CACHE_CACHE_CONFIG_HH

#include <bit>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace memfwd
{

/** Replacement policy for a set-associative cache. */
enum class ReplacementPolicy
{
    lru,    ///< true least-recently-used (the default everywhere)
    fifo,   ///< evict by fill order, ignoring touches
    random, ///< pseudo-random victim (deterministic xorshift)
};

/** Parameters of one cache level. */
struct CacheConfig
{
    /** Human-readable name used in stats ("l1d", "l2"). */
    std::string name = "cache";

    /** Total capacity in bytes. */
    unsigned size_bytes = 32 * 1024;

    /** Set associativity. */
    unsigned assoc = 2;

    /** Line (block) size in bytes; the paper sweeps this. */
    unsigned line_bytes = 32;

    /** Latency of a hit, in cycles. */
    Cycles hit_latency = 1;

    /** Number of miss-status holding registers (outstanding misses). */
    unsigned mshrs = 8;

    /** Victim selection policy. */
    ReplacementPolicy replacement = ReplacementPolicy::lru;

    unsigned numSets() const { return size_bytes / (assoc * line_bytes); }

    /** Geometry the cache model accepts: a nonzero associativity, a
     *  power-of-two line of at least one word, and a nonzero
     *  power-of-two set count. */
    bool
    validGeometry() const
    {
        if (assoc == 0 || line_bytes < wordBytes ||
            !std::has_single_bit(line_bytes))
            return false;
        const std::uint64_t way_bytes = std::uint64_t(assoc) * line_bytes;
        return std::has_single_bit(size_bytes / way_bytes);
    }
};

/** How an access was satisfied — drives Figure 6(a)'s classification. */
enum class MissKind
{
    hit,     ///< found in the cache
    partial, ///< combined with an outstanding miss to the same line
    full     ///< had to fetch the line from below
};

/** What kind of reference is being performed. */
enum class AccessType
{
    load,
    store,
    prefetch
};

} // namespace memfwd

#endif // MEMFWD_CACHE_CACHE_CONFIG_HH
