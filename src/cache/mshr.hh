/**
 * @file
 * Miss Status Holding Registers.
 *
 * An MSHR tracks one outstanding line fill.  A demand access that finds
 * an MSHR already allocated for its line is a *partial miss* in the
 * paper's terminology (Figure 6(a)): it combines with the in-flight
 * fill and waits only for the remaining latency.  The MSHR file has a
 * fixed number of entries; when all are busy, a new miss must wait for
 * the earliest entry to retire, modelling the limit on memory-level
 * parallelism.
 *
 * An entry is busy while its fill completes after the asking cycle, but
 * it is freed only when allocate() expires it.  Cycles may go backwards
 * between calls (an L2 receives the L1's victims at their fill times,
 * later than the accesses that follow), so an entry expired by a later
 * allocate() is gone even for an earlier cycle: the expiry is part of
 * the model.
 */

#ifndef MEMFWD_CACHE_MSHR_HH
#define MEMFWD_CACHE_MSHR_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace memfwd
{

/** A fixed-size file of outstanding-miss registers. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries);

    /**
     * If a fill for @p line_addr is outstanding at @p now, return its
     * completion cycle (the caller combines with it); otherwise 0.
     *
     * Called on every cache access (the partial-miss check), so the
     * common nothing-in-flight case must not scan the file: if the
     * latest completion ever recorded is already in the past, no fill
     * can be outstanding at @p now.
     */
    Cycles
    outstandingFill(Addr line_addr, Cycles now) const
    {
        if (max_fill_done_ <= now)
            return 0;
        return outstandingFillSlow(line_addr, now);
    }

    /**
     * Reserve an entry for a new fill of @p line_addr.  If the file is
     * full at @p now, the allocation is delayed until the earliest
     * in-flight fill completes.  Returns the cycle at which the miss
     * may actually start being serviced (>= now).  complete() must
     * follow before the file is asked anything else.
     */
    Cycles allocate(Addr line_addr, Cycles now);

    /** Record the completion cycle of the fill allocate() reserved. */
    void
    complete(Cycles fill_done)
    {
        slots_[reserved_].fill_done = fill_done;
        if (fill_done > max_fill_done_)
            max_fill_done_ = fill_done;
    }

  private:
    struct Entry
    {
        Addr line_addr = 0;
        Cycles fill_done = 0; ///< 0 means free
    };

    void expire(Cycles now);
    Cycles outstandingFillSlow(Addr line_addr, Cycles now) const;

    std::vector<Entry> slots_;
    std::size_t reserved_ = 0; ///< the entry the last allocate() chose
    /** Monotone upper bound on every entry's fill_done. */
    Cycles max_fill_done_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_CACHE_MSHR_HH
