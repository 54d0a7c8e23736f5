/**
 * @file
 * A semispace compacting collector built on memory forwarding.
 *
 * The paper's related-work section notes that "a form of memory
 * forwarding is used in copying garbage collectors, whereby the
 * forwarding addresses are used to preserve data consistency during
 * the distinct phases when collection takes place."  This module
 * closes that loop: a Cheney-style semispace collector whose GC
 * forwarding pointers ARE the architecture's forwarding words.
 *
 * Two things fall out for free:
 *
 *  1. the collector needs no side table — an object is "already
 *     copied" exactly when its first word's forwarding bit is set, and
 *     the new address is the word's payload;
 *  2. pointers the collector never saw (outside the declared roots —
 *     illegal in a classical collector!) keep working after a
 *     collection, because dereferencing the old location forwards.
 *     They only die when the old semispace is reused, one full
 *     collection later — a well-defined grace window.
 *
 * Objects carry a one-word header: bits 0..7 the payload word count,
 * bits 8..63 a bitmap marking which payload words hold heap pointers.
 */

#ifndef MEMFWD_RUNTIME_COMPACTING_HEAP_HH
#define MEMFWD_RUNTIME_COMPACTING_HEAP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "runtime/layout_backend.hh"

namespace memfwd
{

class Machine;
class SimAllocator;

/** Collection statistics. */
struct GcStats
{
    std::uint64_t collections = 0;
    std::uint64_t objects_copied = 0;
    std::uint64_t words_copied = 0;
    std::uint64_t bytes_reclaimed = 0;
};

/** Cheney-style semispace heap whose forwarding pointers are real. */
class CompactingHeap
{
  public:
    /** Maximum payload words per object (the header bitmap's width). */
    static constexpr unsigned max_payload_words = 56;

    /**
     * Carve two semispaces of @p semispace_bytes each out of
     * @p alloc's arena, moving objects through an internal
     * ForwardingBackend.
     */
    CompactingHeap(Machine &machine, SimAllocator &alloc,
                   Addr semispace_bytes);

    /**
     * As above, but as a client of an existing @p backend.  The
     * collector's forwarding pointers ARE the relocation mechanism, so
     * the backend must support raw-range relocation with stale-pointer
     * safety — i.e. only a ForwardingBackend qualifies (fatal
     * otherwise): a handle table cannot host a collector whose
     * untracked pointers must survive a flip.
     */
    CompactingHeap(LayoutBackend &backend, SimAllocator &alloc,
                   Addr semispace_bytes);

    CompactingHeap(const CompactingHeap &) = delete;
    CompactingHeap &operator=(const CompactingHeap &) = delete;

    /**
     * Allocate an object of @p payload_words payload words;
     * @p pointer_mask bit i marks payload word i as a heap pointer.
     * Returns the object base (header word); payload begins at
     * base + 8.  Fatal if the active semispace is exhausted — call
     * collect() first.
     */
    Addr alloc(unsigned payload_words, std::uint64_t pointer_mask);

    /** Address of payload word @p i of object @p base. */
    static Addr
    field(Addr base, unsigned i)
    {
        return base + wordBytes * (1 + i);
    }

    /**
     * Collect: copy every object reachable from the pointers stored in
     * @p root_slots (addresses of pointer words outside the heap) into
     * the other semispace, updating roots and intra-heap pointers.
     * The vacated space remains intact (and forwarding-covered) until
     * the NEXT collection reuses it.
     */
    void collect(const std::vector<Addr> &root_slots);

    /** True if @p addr lies in the active (allocation) semispace. */
    bool inActiveSpace(Addr addr) const;

    /** Bytes allocated in the active semispace since the last flip. */
    Addr used() const { return cursor_ - active_base_; }

    const GcStats &stats() const { return gc_stats_; }

  private:
    bool inSpace(Addr addr, Addr base) const;

    /** Copy one object (if not already) and return its new address. */
    Addr copyObject(Addr base, Addr &to_cursor);

    Machine &machine_;

    /** Backend the copies go through (owned when self-constructed). */
    std::unique_ptr<ForwardingBackend> owned_backend_;
    LayoutBackend *backend_;

    Addr semispace_bytes_;
    Addr space_a_;
    Addr space_b_;
    Addr active_base_;
    Addr cursor_;
    GcStats gc_stats_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_COMPACTING_HEAP_HH
