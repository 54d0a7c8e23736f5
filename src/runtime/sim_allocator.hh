/**
 * @file
 * Memory allocation on the simulated heap.
 *
 * Placement policies:
 *
 *  - *sequential* — a bump allocator, giving the tight, ordered layout
 *    a fresh heap would give;
 *  - *scattered*  — blocks are placed at pseudo-random positions across
 *    the arena.  This is our documented substitution for the heap aging
 *    / allocation interleaving that scatters the paper's real
 *    applications' nodes across the address space (DESIGN.md Section 2):
 *    the paper's premise is data "scattered sparsely throughout the
 *    address space", which fresh bump allocation would not reproduce;
 *  - *first_fit*  — the lowest hole, for compaction.
 *
 * Live blocks sit in a paged bitmap: a placement probe inside one
 * 64-word bitmap word is one mask test, and the lowest-fit search skips
 * 64 words a step.
 *
 * free() is the forwarding-chain-aware wrapper of Section 3.3: when a
 * block whose first word carries a forwarding address is freed, every
 * relocated copy reachable through the chain is freed as well (if it is
 * a known allocation — relocation-pool space is reclaimed by resetting
 * the pool).
 *
 * All words handed out are word-aligned (Section 3.3, "Memory
 * Alignment") and their forwarding bits are cleared before reuse
 * (Section 3.3, "Initialization of Forwarding Bits").
 */

#ifndef MEMFWD_RUNTIME_SIM_ALLOCATOR_HH
#define MEMFWD_RUNTIME_SIM_ALLOCATOR_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/flat_page_index.hh"

namespace memfwd
{

class Machine;

/**
 * Thrown when an allocation cannot be satisfied — the simulated heap is
 * exhausted, or a fault injector armed at the alloc site fired.
 * Recoverable: the allocator's bookkeeping and the heap are unchanged,
 * so the caller may free memory and retry.  Callers that treat a full
 * heap as an ordinary answer use SimAllocator::tryAlloc or
 * LayoutBackend::tryAllocate instead, which return std::nullopt.
 */
class AllocFailure : public std::runtime_error
{
  public:
    AllocFailure(Addr bytes, const std::string &why)
        : std::runtime_error("allocation of " + std::to_string(bytes) +
                             " bytes failed: " + why),
          bytes_(bytes)
    {
    }

    /** Size of the request that failed, in bytes. */
    Addr bytes() const { return bytes_; }

  private:
    Addr bytes_;
};

/** Placement policy for new blocks. */
enum class Placement
{
    sequential,
    scattered,
    /**
     * Lowest aligned hole that fits, searched from the arena base.
     * This is the compacting placement: relocating a high block into a
     * first-fit hole shrinks the live extent of the heap.
     */
    first_fit
};

/** Word-aligned allocator over a Machine's simulated heap. */
class SimAllocator
{
  public:
    /**
     * Manage [base, base+span) of @p machine's address space.  @p seed
     * drives scattered placement deterministically.
     */
    SimAllocator(Machine &machine, Addr base, Addr span,
                 std::uint64_t seed = 1);

    /** Convenience: manage the machine's configured heap region. */
    explicit SimAllocator(Machine &machine, std::uint64_t seed = 1);

    SimAllocator(const SimAllocator &) = delete;
    SimAllocator &operator=(const SimAllocator &) = delete;

    /**
     * Allocate @p bytes (rounded up to whole words) with the given
     * placement.  Alignment is at least a word; pass a larger
     * power-of-two @p align to line-align blocks.  Returns std::nullopt
     * when no aligned range fits or an armed alloc-site fault fires
     * (docs/API.md, "Allocation").  A failed call changes nothing but
     * the placement Rng, which advances exactly as the search drew.
     */
    std::optional<Addr> tryAlloc(Addr bytes,
                                 Placement placement = Placement::sequential,
                                 Addr align = wordBytes);

    /** tryAlloc(), throwing AllocFailure where it returns std::nullopt. */
    Addr alloc(Addr bytes, Placement placement = Placement::sequential,
               Addr align = wordBytes);

    /**
     * Free the block at @p addr, first freeing every relocated copy
     * reachable through the forwarding chain of its first word.
     * Unknown chain targets (e.g. pool space) are skipped.  The whole
     * chain is walked (chaseChain) before anything is released.
     *
     * @throws ForwardingCycleError or ForwardingIntegrityError if the
     *         chain is cyclic or corrupt, having released nothing.
     */
    void free(Addr addr);

    /** True if @p addr is the start of a live allocation. */
    bool isAllocated(Addr addr) const;

    /** Size in bytes of the live allocation at @p addr (0 if none). */
    Addr allocationSize(Addr addr) const;

    /** Bytes currently allocated. */
    Addr bytesLive() const { return bytes_live_; }

    /** High-water mark of bytesLive(). */
    Addr bytesPeak() const { return bytes_peak_; }

    /** Total bytes ever allocated. */
    Addr bytesTotal() const { return bytes_total_; }

    std::uint64_t allocCalls() const { return alloc_calls_; }
    std::uint64_t freeCalls() const { return free_calls_; }

    Addr base() const { return base_; }
    Addr span() const { return span_; }

    /**
     * End of the highest live block (base() when empty).  The live
     * extent `highestLiveEnd() - base()` versus bytesLive() is the
     * external-fragmentation measure the kv_server bench reports.
     */
    Addr highestLiveEnd() const;

  private:
    /** Per word of a 4 KiB arena page: occupied, and block start. */
    struct PageBits
    {
        std::uint64_t occupied[8];
        std::uint64_t start[8];
    };

    /** Shared bits of pages with no storage of their own. */
    static const PageBits free_bits;
    static const PageBits interior_bits;

    /** Check the request; true if an armed alloc-site fault fires. */
    bool injectedFailure(Addr bytes, Addr align);
    /** Place and claim a block of @p bytes (whole words). */
    std::optional<Addr> claim(Addr bytes, Placement placement, Addr align);
    std::optional<Addr> place(Addr bytes, Placement placement, Addr align);
    std::optional<Addr> lowestFit(Addr from, Addr bytes, Addr align) const;
    bool rangeFree(Addr start, Addr bytes) const;
    /** Lowest word in [from, to) with (occupied^flip)|(start&starts). */
    Addr scan(Addr from, Addr to, std::uint64_t flip,
              std::uint64_t starts) const;
    /** Slot of @p page in pages_, or no_value if it is not indexed. */
    FlatPageIndex::Value slotOf(Addr page) const;
    const PageBits &bits(Addr page) const;
    const PageBits *&pageSlot(Addr page);
    void setBlock(Addr start, Addr end, bool live);

    Machine &machine_;
    Addr base_;
    Addr span_;
    Rng rng_;

    /**
     * Block index: page -> slot in pages_.  Absent or free_bits pages
     * are free; pages inside a block that starts elsewhere share
     * interior_bits (a RelocationPool costs index entries only); others
     * own a PageBits of bits_, recycled through spare_bits_.
     */
    FlatPageIndex index_;
    std::vector<const PageBits *> pages_;
    std::deque<PageBits> bits_;
    std::vector<PageBits *> spare_bits_;

    /**
     * Direct-mapped page -> slot memo in front of index_ (2 KiB): a
     * scattered probe lands on any page of the arena, and kv_server's
     * whole arena fits.  Slots never change, since the index never
     * deletes; absent pages are not memoized.
     */
    struct PageMemo
    {
        Addr page = FlatPageIndex::empty_key;
        FlatPageIndex::Value slot = 0;
    };
    mutable PageMemo memo_[128];

    /** Upper bound on highestLiveEnd(), tightened when it is read. */
    mutable Addr live_end_;

    Addr bump_ = 0;
    Addr bytes_live_ = 0;
    Addr bytes_peak_ = 0;
    Addr bytes_total_ = 0;
    std::uint64_t alloc_calls_ = 0;
    std::uint64_t free_calls_ = 0;
};

/**
 * A contiguous arena for relocation targets — the "pool of contiguous
 * memory" ListLinearize() draws from (Figure 4(b)).  Its footprint is
 * the "Space Overhead" column of Table 1.
 */
class RelocationPool
{
  public:
    /** Carve @p bytes out of @p alloc as one contiguous arena. */
    RelocationPool(SimAllocator &alloc, Addr bytes);

    /** Bump-allocate @p bytes (word-aligned), optionally @p align-ed. */
    Addr take(Addr bytes, Addr align = wordBytes);

    /** Bytes handed out so far (the space overhead actually used). */
    Addr used() const { return cursor_ - base_; }

    /** Total arena size. */
    Addr capacity() const { return bytes_; }

    Addr base() const { return base_; }

    /** Remaining capacity. */
    Addr remaining() const { return base_ + bytes_ - cursor_; }

  private:
    Addr base_;
    Addr bytes_;
    Addr cursor_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_SIM_ALLOCATOR_HH
