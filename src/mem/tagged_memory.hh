/**
 * @file
 * Tagged simulated memory: the storage substrate for memory forwarding.
 *
 * Every 64-bit word of simulated memory carries one extra bit of state,
 * the *forwarding bit* (Section 2.1 of the paper).  When the bit is set,
 * the word's 64-bit payload is interpreted as a forwarding address
 * rather than data, and ordinary accesses to the word must be redirected
 * to that address (that redirection lives in core/forwarding_engine).
 *
 * This class is purely functional state — it knows nothing about caches
 * or timing.  It provides exactly the primitives the paper's ISA
 * extensions need:
 *
 *  - rawReadWord / rawWriteWord     : physical access, no forwarding
 *                                     interpretation (these back the
 *                                     Unforwarded_Read / Unforwarded_Write
 *                                     instructions of Figure 3);
 *  - fbit / setFBit                 : Read_FBit and the tag half of
 *                                     Unforwarded_Write;
 *  - unforwardedWrite               : atomic word + forwarding-bit update
 *                                     (the paper requires atomicity to
 *                                     preserve consistency);
 *  - readBytes / writeBytes         : sub-word data access *within* one
 *                                     word, used after the forwarding
 *                                     chain has been resolved;
 *  - initializeRegion               : the OS-side Unforwarded_Write(0,0)
 *                                     sweep of Section 3.3 that clears
 *                                     forwarding bits before memory is
 *                                     handed to the application.
 *
 * Storage is sparse: 256-byte granules (32 words) are materialized on
 * first touch, so a 64-bit address space costs only what the workload
 * actually uses, even when its objects are scattered.  Granule data
 * lives in 64 KiB slabs of 256 granules; each granule's 32 forwarding
 * bits sit in one dense array indexed by granule id, small enough to
 * stay in the host's caches.
 */

#ifndef MEMFWD_MEM_TAGGED_MEMORY_HH
#define MEMFWD_MEM_TAGGED_MEMORY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/flat_page_index.hh"
#include "mem/metadata_plane.hh"

namespace memfwd
{

/**
 * Observer of forwarding-state mutations.
 *
 * Anything that caches derived chain state (the forwarding engine's
 * translation cache) registers one of these with the TaggedMemory it
 * reads through.  The callback fires after any mutation that can
 * change how a chain resolves: a forwarding bit flipping either way
 * (setFBit, unforwardedWrite, initializeRegion) or the payload of an
 * already-forwarded word being rewritten (rawWriteWord,
 * unforwardedWrite).  Plain data writes to untagged words do not
 * notify.
 */
class FwdStateListener
{
  public:
    virtual ~FwdStateListener() = default;

    /**
     * The word at @p word changed forwarding-relevant state;
     * @p was_fbit is the word's forwarding bit *before* the mutation
     * (the new state is readable from the memory itself).
     */
    virtual void fwdStateChanged(Addr word, bool was_fbit) = 0;
};

/** Sparse, granule-grained, word-tagged simulated memory. */
class TaggedMemory
{
  public:
    /**
     * The materialization unit: a 256-byte granule of 32 words.  The
     * "page" names (pageBytes, pageWords, pagesAllocated,
     * mappedPageBases) all refer to this granule, not to a 4 KiB page.
     */
    static constexpr unsigned pageBytes = 256;
    static constexpr unsigned pageWords = pageBytes / wordBytes;

    TaggedMemory() = default;

    TaggedMemory(const TaggedMemory &) = delete;
    TaggedMemory &operator=(const TaggedMemory &) = delete;

    /**
     * Read the raw 64-bit payload of the word containing @p addr,
     * ignoring the forwarding bit.  @p addr need not be aligned; the
     * containing word is read.
     */
    Word
    rawReadWord(Addr addr) const
    {
        const Granule g = granuleIfPresent(addr);
        return g.data ? g.data[wordIndex(addr)] : 0;
    }

    /** Write the raw 64-bit payload of the word containing @p addr. */
    void rawWriteWord(Addr addr, Word value);

    /** Forwarding bit of the word containing @p addr. */
    bool
    fbit(Addr addr) const
    {
        const Granule g = granuleIfPresent(addr);
        return g.data && (*g.fbits >> wordIndex(addr) & 1) != 0;
    }

    /** Set or clear the forwarding bit of the word containing @p addr. */
    void setFBit(Addr addr, bool value);

    /**
     * Atomically write @p value and @p fbit_value to the word containing
     * @p addr — the Unforwarded_Write instruction of Figure 3.
     */
    void unforwardedWrite(Addr addr, Word value, bool fbit_value);

    /**
     * Read @p size bytes starting at @p addr.  The access must not cross
     * a word boundary (size in {1,2,4,8}); the forwarding bit is NOT
     * consulted — callers resolve forwarding first.
     */
    std::uint64_t
    readBytes(Addr addr, unsigned size) const
    {
        const unsigned off = wordOffset(addr);
        memfwd_assert(size == 1 || size == 2 || size == 4 || size == 8,
                      "bad access size %u", size);
        memfwd_assert(off + size <= wordBytes,
                      "access crosses word boundary: addr=%#llx size=%u",
                      static_cast<unsigned long long>(addr), size);
        const Word w = rawReadWord(addr);
        if (size == 8)
            return w;
        const unsigned shift = off * 8;
        const std::uint64_t mask = (std::uint64_t(1) << (size * 8)) - 1;
        return (w >> shift) & mask;
    }

    /** Write @p size bytes at @p addr; same restrictions as readBytes. */
    void writeBytes(Addr addr, unsigned size, std::uint64_t value);

    /**
     * Clear data and forwarding bits over [addr, addr+bytes) — the OS
     * initialization sweep (Section 3.3).  Both ends must be
     * word-aligned.  Granules never materialized are skipped; the
     * listener hears (word, true) once per cleared forwarding bit, in
     * ascending word order.
     */
    void initializeRegion(Addr addr, Addr bytes);

    /** Number of forwarding bits currently set across all of memory. */
    std::uint64_t fbitCount() const;

    /** True if the granule containing @p addr has been materialized. */
    bool isMapped(Addr addr) const;

    /** Base addresses of every materialized granule, ascending. */
    std::vector<Addr> mappedPageBases() const;

    /**
     * Invoke @p fn(word_addr, payload) for every word whose forwarding
     * bit is set, in ascending address order — the sweep primitive the
     * heap auditor (runtime/heap_verifier.hh) is built on.
     */
    void forEachForwardedWord(
        const std::function<void(Addr, Word)> &fn) const;

    /**
     * Register (or clear, with nullptr) the forwarding-state listener.
     * At most one listener is supported — exactly one forwarding
     * engine reads through any given memory.  Not owned.
     */
    void setFwdStateListener(FwdStateListener *listener)
    {
        listener_ = listener;
    }

    FwdStateListener *fwdStateListener() const { return listener_; }

    /**
     * Materialize the optional per-word metadata plane (idempotent).
     * Off by default; once enabled, initializeRegion additionally
     * clears the plane over the swept range so recycled memory never
     * inherits stale object metadata.
     */
    MetadataPlane &enableMetadataPlane();

    /** The metadata plane, or nullptr when never enabled. */
    MetadataPlane *metadataPlane() { return meta_plane_.get(); }
    const MetadataPlane *metadataPlane() const { return meta_plane_.get(); }

    /** Number of granules currently materialized (space accounting). */
    std::size_t pagesAllocated() const { return fbits_.size(); }

    /** Bytes of simulated memory currently materialized. */
    std::uint64_t bytesAllocated() const
    {
        return static_cast<std::uint64_t>(fbits_.size()) * pageBytes;
    }

  private:
    /** Forwarding bits of one granule; bit i tags word i. */
    using FbitMask = std::uint32_t;
    static_assert(pageWords == 32, "one FbitMask per granule");

    /** Granules per slab: one 64 KiB allocation. */
    static constexpr unsigned slabGranules = 256;

    struct alignas(64) Slab
    {
        Word words[slabGranules * pageWords];
    };

    /** One granule's storage; data is nullptr if never materialized. */
    struct Granule
    {
        Word *data;
        FbitMask *fbits;
    };

    static Addr granuleKey(Addr addr) { return addr / pageBytes; }

    static unsigned
    wordIndex(Addr addr)
    {
        return static_cast<unsigned>(addr % pageBytes) >> wordShift;
    }

    Word *
    granuleData(FlatPageIndex::Value id) const
    {
        return slabs_[id / slabGranules]->words +
               std::size_t(id % slabGranules) * pageWords;
    }

    /** The granule holding @p addr, materialized on first touch. */
    Granule
    granule(Addr addr)
    {
        const Granule g = granuleIfPresent(addr);
        return g.data ? g : materialize(addr);
    }

    /** Materialize the absent granule holding @p addr; updates cache. */
    Granule materialize(Addr addr);

    /**
     * Granule holding @p addr, data nullptr if never materialized.
     * Both outcomes are cached in the one-entry last-granule cache;
     * materialize() refreshes it, so a cached miss can never go stale.
     */
    Granule
    granuleIfPresent(Addr addr) const
    {
        const Addr key = granuleKey(addr);
        if (key != last_key_) {
            const FlatPageIndex::Value id = index_.find(key);
            const bool present = id != FlatPageIndex::no_value;
            last_key_ = key;
            last_id_ = present ? id : 0; // fbits unused when absent
            last_data_ = present ? granuleData(id) : nullptr;
        }
        return {last_data_,
                const_cast<FbitMask *>(fbits_.data()) + last_id_};
    }

    /** (key, id) of each materialized granule in [first, last], by key. */
    std::vector<std::pair<Addr, FlatPageIndex::Value>>
    granulesIn(Addr first, Addr last) const;

    /** initializeRegion's data and forwarding-bit sweep, addr < end. */
    void sweepRegion(Addr addr, Addr end);

    /** Granule data, in materialization order; slabs never move. */
    std::vector<std::unique_ptr<Slab>> slabs_;
    /** Forwarding bits, indexed by granule id. */
    std::vector<FbitMask> fbits_;
    FlatPageIndex index_;
    mutable Addr last_key_ = FlatPageIndex::empty_key;
    mutable FlatPageIndex::Value last_id_ = 0;
    mutable Word *last_data_ = nullptr;
    FwdStateListener *listener_ = nullptr;
    std::unique_ptr<MetadataPlane> meta_plane_;
};

} // namespace memfwd

#endif // MEMFWD_MEM_TAGGED_MEMORY_HH
