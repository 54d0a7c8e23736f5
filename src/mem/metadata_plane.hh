/**
 * @file
 * Per-word metadata plane: the generalization of the forwarding bit.
 *
 * The forwarding bit (mem/tagged_memory.hh) is one bit of out-of-band
 * state per 64-bit word.  Temporal-safety checking needs a little more:
 * *which object* a word belongs to and *how big* that object was, so a
 * reference that resolves into a quarantined slot can be classified as
 * a use-after-free (the pointer's provenance matches the dead object)
 * or an out-of-bounds stray (it does not).  This module widens the
 * per-word tag to a packed 32-bit metadata word:
 *
 *   bit  31     quarantine flag — the word belongs to a freed object
 *               parked in the quarantine arena
 *   bits 30..8  object id (23 bits, 0 = untagged)
 *   bits  7..0  bounds class — ceil(log2(object bytes))
 *
 * Storage: sparse 4 KiB pages materialized on first tag, indexed by a
 * FlatPageIndex (the structure TaggedMemory uses for its 256-byte
 * granules), with a one-entry last-page cache.  The plane is a separate,
 * optional object precisely so that the common configuration pays
 * nothing: a machine without `MachineConfig::metadataPlane()` never
 * constructs one, and no hot path tests more than a null pointer.
 *
 * The plane is purely functional bookkeeping — it charges no cycles
 * and is invisible to program semantics.  Its one consumer is the
 * forwarding engine's temporal check (core/forwarding_engine.cc) and
 * its one producer is the quarantining allocator
 * (runtime/quarantine_allocator.cc).
 */

#ifndef MEMFWD_MEM_METADATA_PLANE_HH
#define MEMFWD_MEM_METADATA_PLANE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/types.hh"
#include "mem/flat_page_index.hh"

namespace memfwd
{

/** Sparse per-word metadata: packed object-id + bounds-class words. */
class MetadataPlane
{
  public:
    /** One packed metadata word (see file comment for the layout). */
    using Meta = std::uint32_t;

    static constexpr unsigned pageBytes = 4096;
    static constexpr unsigned pageWords = pageBytes / wordBytes;

    /** Meta of an untagged word. */
    static constexpr Meta none = 0;

    static constexpr Meta quarantine_flag = 0x80000000u;
    static constexpr std::uint32_t max_object_id = 0x7fffffu;

    MetadataPlane() = default;

    MetadataPlane(const MetadataPlane &) = delete;
    MetadataPlane &operator=(const MetadataPlane &) = delete;

    // ----- packing helpers ---------------------------------------------

    static Meta
    pack(std::uint32_t object_id, std::uint8_t bounds_class,
         bool quarantined)
    {
        return ((object_id & max_object_id) << 8) | bounds_class |
               (quarantined ? quarantine_flag : 0u);
    }

    static std::uint32_t objectId(Meta m) { return (m >> 8) & max_object_id; }
    static std::uint8_t boundsClass(Meta m) { return m & 0xffu; }
    static bool isQuarantined(Meta m) { return (m & quarantine_flag) != 0; }

    /** Bounds class of an object of @p bytes: ceil(log2(bytes)). */
    static std::uint8_t
    boundsClassFor(Addr bytes)
    {
        std::uint8_t k = 0;
        while ((Addr{1} << k) < bytes && k < 63)
            ++k;
        return k;
    }

    // ----- per-word access ---------------------------------------------

    /** Metadata of the word containing @p addr (none if untagged). */
    Meta
    get(Addr addr) const
    {
        const MetaPage *p = pageIfPresent(addr);
        if (!p)
            return none;
        return p->meta[(addr % pageBytes) >> wordShift];
    }

    /** Tag the word containing @p addr. */
    void set(Addr addr, Meta m);

    /** Tag every word of [addr, addr+bytes); ends must be word-aligned. */
    void setRange(Addr addr, Addr bytes, Meta m);

    /**
     * Untag every word of [addr, addr+bytes).  Pages never materialized
     * are skipped — clearing what was never tagged is free.
     */
    void clearRange(Addr addr, Addr bytes);

    /** Words currently carrying nonzero metadata. */
    std::uint64_t taggedWords() const;

    /** Pages materialized so far (space accounting). */
    std::size_t pagesAllocated() const { return pages_.size(); }

    /**
     * Invoke @p fn(word_addr, meta) for every tagged word, ascending —
     * the sweep primitive quarantine-aware auditing is built on.
     */
    void forEachTaggedWord(
        const std::function<void(Addr, Meta)> &fn) const;

  private:
    struct MetaPage
    {
        std::array<Meta, pageWords> meta{};
    };

    MetaPage &page(Addr addr);

    const MetaPage *
    pageIfPresent(Addr addr) const
    {
        const Addr key = addr / pageBytes;
        if (key == last_key_)
            return last_page_;
        const FlatPageIndex::Value v = index_.find(key);
        MetaPage *p = v == FlatPageIndex::no_value
                          ? nullptr
                          : const_cast<MetaPage *>(&pages_[v]);
        last_key_ = key;
        last_page_ = p;
        return p;
    }

    std::deque<MetaPage> pages_;
    FlatPageIndex index_;
    mutable Addr last_key_ = FlatPageIndex::empty_key;
    mutable MetaPage *last_page_ = nullptr;
};

} // namespace memfwd

#endif // MEMFWD_MEM_METADATA_PLANE_HH
