/**
 * @file
 * An LRU resident-set model for out-of-core execution.
 *
 * Section 2.2's closing point: data relocation "is applicable not only
 * to caches but also to the other levels of the memory hierarchy. For
 * example, we can apply data relocation to improve the spatial
 * locality within pages (and hence on disk) for out-of-core
 * applications."  This model counts page faults for an access stream
 * against a fixed-size resident set, so the benches can show
 * linearization compressing a workload's page working set.
 */

#ifndef MEMFWD_MEM_PAGE_CACHE_HH
#define MEMFWD_MEM_PAGE_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hh"

namespace memfwd
{

/** Fixed-capacity LRU set of resident pages. */
class PageCache
{
  public:
    /**
     * @param page_bytes page size (power of two)
     * @param resident_pages capacity of the resident set
     * @param fault_penalty cost charged per fault (e.g. disk cycles)
     */
    PageCache(unsigned page_bytes, unsigned resident_pages,
              Cycles fault_penalty = 100000);

    /**
     * Touch the page containing @p addr; returns true on a fault.
     *
     * Re-touching the most recently used page is the overwhelmingly
     * common case in a linearized stream, is never a fault, and needs
     * no LRU reorder, so it short-circuits before any hashing.
     */
    bool
    access(Addr addr)
    {
        const Addr page = addr / page_bytes_;
        if (page == last_page_) {
            ++accesses_;
            return false;
        }
        return accessSlow(page);
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t faults() const { return faults_; }

    /** Total fault cost at the configured penalty. */
    Cycles faultCycles() const { return faults_ * fault_penalty_; }

    /** Distinct pages ever touched (the page working set). */
    std::uint64_t pagesTouched() const { return touched_.size(); }

    void
    clearStats()
    {
        accesses_ = 0;
        faults_ = 0;
        touched_.clear();
        // The fast path assumes last_page_ is already in touched_.
        last_page_ = ~Addr(0);
    }

  private:
    bool accessSlow(Addr page);

    unsigned page_bytes_;
    unsigned resident_pages_;
    Cycles fault_penalty_;

    /** Most recently touched page number (front of the LRU order). */
    Addr last_page_ = ~Addr(0);

    /** LRU order: front = most recent. */
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> resident_;
    std::unordered_set<Addr> touched_;

    std::uint64_t accesses_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_MEM_PAGE_CACHE_HH
