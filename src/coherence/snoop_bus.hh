/**
 * @file
 * A snooping bus connecting per-processor coherent caches.
 *
 * Substrate for the paper's Section 2.2 "Reducing False Sharing"
 * optimization: in a cache-coherent shared-memory multiprocessor,
 * distinct data items that share a line ping-pong between processors
 * when at least one access is a write.  Relocating the items to
 * distinct lines (safely, via memory forwarding) removes the
 * ping-pong.  The bus counts exactly the events that quantify it.
 */

#ifndef MEMFWD_COHERENCE_SNOOP_BUS_HH
#define MEMFWD_COHERENCE_SNOOP_BUS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace memfwd
{

class CoherentCache;

/** Bus-level coherence statistics. */
struct BusStats
{
    std::uint64_t read_misses = 0;     ///< BusRd transactions
    std::uint64_t write_misses = 0;    ///< BusRdX transactions
    std::uint64_t upgrades = 0;        ///< BusUpgr (S -> M)
    std::uint64_t invalidations = 0;   ///< lines invalidated in peers
    std::uint64_t transfers = 0;       ///< cache-to-cache supplies
};

/** Broadcast medium with MSI snooping semantics. */
class SnoopBus
{
  public:
    /** Register a cache; returns its port id. */
    unsigned attach(CoherentCache *cache);

    /**
     * Broadcast a read miss for @p line_addr from port @p from.
     * Peers holding the line Modified downgrade to Shared (and are
     * counted as a cache-to-cache transfer).  Returns true if any peer
     * supplied the line.
     */
    bool busRead(unsigned from, Addr line_addr);

    /**
     * Broadcast a write miss (BusRdX) for @p line_addr from @p from:
     * every peer copy is invalidated.  Returns the number of peer
     * copies invalidated.
     */
    unsigned busReadExclusive(unsigned from, Addr line_addr);

    /** Broadcast an upgrade (S->M) — invalidates peer Shared copies. */
    unsigned busUpgrade(unsigned from, Addr line_addr);

    const BusStats &stats() const { return stats_; }
    void clearStats() { stats_ = BusStats(); }

    void
    fillMetrics(obs::MetricsNode &into) const
    {
        into.counter("read_misses", stats_.read_misses);
        into.counter("write_misses", stats_.write_misses);
        into.counter("upgrades", stats_.upgrades);
        into.counter("invalidations", stats_.invalidations);
        into.counter("transfers", stats_.transfers);
    }

    obs::MetricsNode
    metrics() const
    {
        obs::MetricsNode n;
        fillMetrics(n);
        return n;
    }

  private:
    std::vector<CoherentCache *> caches_;
    BusStats stats_;
};

} // namespace memfwd

#endif // MEMFWD_COHERENCE_SNOOP_BUS_HH
