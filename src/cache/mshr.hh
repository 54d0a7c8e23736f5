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
 *
 * The file is asked on every cache access, so two summaries spare it
 * the scan in the common cases: the *signature*, the OR of one hashed
 * bit per unexpired entry's line (a line whose bit is clear has no fill
 * in flight), and the *last fill*, the latest fill recorded (at or after
 * it no fill is in flight).  The unexpired entries are packed at the
 * front of the file, so the scans that expire them (rebuilding the
 * signature) and that look a line up visit only those, usually one to
 * three; addresses and fill times sit in two arrays, so a scan reads
 * only what it compares.  Which register holds a fill is not part of
 * the model.
 */

#ifndef MEMFWD_CACHE_MSHR_HH
#define MEMFWD_CACHE_MSHR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
     */
    Cycles
    outstandingFill(Addr line_addr, Cycles now) const
    {
        if (now >= last_fill_ || (signature_ & signatureBit(line_addr)) == 0)
            return 0;
        return outstandingFillSlow(line_addr, now);
    }

    /**
     * Reserve an entry for a new fill of @p line_addr, which must have
     * no fill outstanding at @p now.  If the file is full at @p now,
     * the allocation is delayed until the earliest in-flight fill
     * completes.  Returns the cycle at which the miss may actually
     * start being serviced (>= now).  complete() must follow before the
     * file is asked anything else.
     */
    Cycles allocate(Addr line_addr, Cycles now);

    /** Record the completion cycle of the fill allocate() reserved. */
    void
    complete(Cycles fill_done)
    {
        fill_done_[busy_ - 1] = fill_done;
        signature_ |= signatureBit(line_addr_[busy_ - 1]);
        last_fill_ = std::max(last_fill_, fill_done);
    }

    /** Drop every entry, in flight or not. */
    void clear();

    /** The signature bit of @p line_addr (public for tests). */
    static std::uint64_t
    signatureBit(Addr line_addr)
    {
        // Fibonacci hashing: the top six bits of the product depend on
        // every bit of the line address.
        return std::uint64_t(1)
               << ((line_addr * 0x9e3779b97f4a7c15ULL) >> 58);
    }

  private:
    /** Free every entry whose fill is done by @p now. */
    void expire(Cycles now);
    Cycles outstandingFillSlow(Addr line_addr, Cycles now) const;

    std::vector<Addr> line_addr_;
    std::vector<Cycles> fill_done_;
    /** Entries [0, busy_) are unexpired, the last one possibly only
     *  reserved by allocate(); the rest are free. */
    std::size_t busy_ = 0;
    std::uint64_t signature_ = 0; ///< superset of unexpired lines' bits
    Cycles last_fill_ = 0;        ///< latest fill since clear()
};

} // namespace memfwd

#endif // MEMFWD_CACHE_MSHR_HH
