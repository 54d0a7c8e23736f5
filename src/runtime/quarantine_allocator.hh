/**
 * @file
 * Quarantining allocator: memory forwarding as a temporal-safety
 * mechanism.
 *
 * The paper's forwarding tag guarantees that any stale pointer into a
 * *relocated* object is safely redirected.  This wrapper turns that
 * guarantee on the heap's oldest bug class: `free()` does not release
 * the object — it *relocates* it, through the existing transactional
 * relocate(), into a quarantine slot, leaving forwarding traps over the
 * freed storage and tagging the quarantined copy in the per-word
 * metadata plane (mem/metadata_plane.hh) with the dead object's id.
 *
 * Any later reference through a dangling pointer then walks the
 * forwarding chain into the quarantine slot, where the forwarding
 * engine's temporal check classifies it by pointer provenance:
 *
 *  - object id matches the dead object  -> use-after-free;
 *  - any other id (or none)             -> out-of-bounds into the slot;
 *
 * and delivers a TrapKind::TemporalViolation trap instead of letting
 * the access silently read recycled memory.  FTC entries covering the
 * freed object are invalidated precisely by the ordinary chain-append
 * notification the relocation raises.
 *
 * The quarantine arena is bounded (QuarantineConfig below).  The
 * watermark policy reclaims the oldest entries ahead of need; when an
 * insertion still cannot be placed the free retries with exponential
 * compute backoff, reclaiming one entry per attempt, and after
 * `max_retries` failures *degrades gracefully* to a plain free
 * (counted, never aborting) — detection coverage shrinks under
 * pressure, correctness never does.
 *
 * Like relocate(), a quarantine relocation submits its own micro-plan
 * ("quarantine") when an analysis gate is attached, so every trap left
 * behind is statically vetted like any other relocation's.
 */

#ifndef MEMFWD_RUNTIME_QUARANTINE_ALLOCATOR_HH
#define MEMFWD_RUNTIME_QUARANTINE_ALLOCATOR_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{

class MetadataPlane;

/** How the quarantining allocator bounds its arena (docs/API.md). */
enum class QuarantinePolicy
{
    /**
     * Reclaim the oldest entries ahead of need whenever live quarantine
     * bytes cross `watermark * capacity_bytes` (the default).
     */
    watermark,
    /**
     * Reclaim only when an insertion actually fails: quarantine fills
     * to capacity, then each free pays the retry/backoff path.
     */
    on_full
};

/** Bounds and policy of the quarantine arena. */
struct QuarantineConfig
{
    /** Ceiling on bytes held in quarantine at once. */
    Addr capacity_bytes = 1ULL << 20;

    /** Fraction of capacity the watermark policy reclaims down to. */
    double watermark = 0.75;

    /** Reclaim-and-retry attempts before a free degrades to plain. */
    unsigned max_retries = 3;

    /** Base of the exponential compute backoff charged per retry. */
    Cycles retry_backoff_base = 64;

    QuarantinePolicy policy = QuarantinePolicy::watermark;
};

/** SimAllocator wrapper that quarantines freed objects. */
class QuarantineAllocator
{
  public:
    /**
     * Wrap @p alloc on @p machine with arena bounds @p cfg.  Registers
     * itself with the machine for metrics export; quarantining is
     * active only when the machine's metadata plane is enabled
     * (MachineConfig::metadataPlane()) — otherwise every call passes
     * straight through.
     */
    QuarantineAllocator(Machine &machine, SimAllocator &alloc,
                        const QuarantineConfig &cfg = {});

    ~QuarantineAllocator();

    QuarantineAllocator(const QuarantineAllocator &) = delete;
    QuarantineAllocator &operator=(const QuarantineAllocator &) = delete;

    /** Allocate through the wrapped allocator, assigning an object id. */
    Addr alloc(Addr bytes, Placement placement = Placement::sequential,
               Addr align = wordBytes);

    /**
     * Quarantine the object at @p addr: relocate it into a fresh slot,
     * leave forwarding traps over the old storage, tag the slot with
     * the object's id.  A plain free when the plane is off; falls back
     * to one (degraded_frees) when the arena cannot take the object
     * after reclaim/backoff.  A double free of a quarantined address is
     * counted and otherwise ignored.  Never aborts.
     */
    void free(Addr addr);

    /** Reclaim the oldest quarantine entry (no-op when empty). */
    void reclaimOldest();

    /** Drain the quarantine entirely (test/teardown helper). */
    void reclaimAll();

    // ----- introspection ------------------------------------------------

    /** Id of the live object at @p addr (0 if not allocated here). */
    std::uint32_t objectId(Addr addr) const;

    /** True while the freed object at @p addr sits in quarantine. */
    bool isQuarantined(Addr addr) const;

    /** Quarantine slot holding @p addr's freed object (0 if none). */
    Addr quarantineSlot(Addr addr) const;

    /** Bytes currently held in quarantine. */
    Addr liveBytes() const { return live_bytes_; }

    /** Entries currently in quarantine. */
    std::size_t entries() const { return fifo_.size(); }

    std::uint64_t quarantinedFrees() const { return quarantined_frees_; }
    std::uint64_t degradedFrees() const { return degraded_frees_; }
    std::uint64_t reclaims() const { return reclaims_; }
    std::uint64_t retries() const { return retries_; }
    std::uint64_t doubleFrees() const { return double_frees_; }

    const QuarantineConfig &config() const { return cfg_; }

    SimAllocator &underlying() { return alloc_; }

    /** Arena-accounting counters (the machine nests them under
     *  "quarantine"; the violation counters live with the engine). */
    void fillMetrics(obs::MetricsNode &into) const;

  private:
    struct QEntry
    {
        Addr old_start; ///< original allocation (still block-mapped)
        Addr slot;      ///< quarantine slot holding the copy
        Addr bytes;
        std::uint32_t id;
    };

    std::uint32_t nextId();

    /** Place a quarantine slot for @p bytes, or 0 if it will not fit. */
    Addr placeSlot(Addr bytes);

    /** Move the object into @p slot under a "quarantine" micro-plan. */
    void relocateIntoQuarantine(Addr addr, Addr slot, Addr bytes);

    Machine &machine_;
    SimAllocator &alloc_;

    /**
     * All allocation, release and relocation goes through this
     * ForwardingBackend over alloc_ — quarantining IS forwarding-backed
     * relocation, so the allocator is a LayoutBackend client like the
     * layout optimizers.  (Not the machine-selected backend: a handle
     * table has no stale pointers to quarantine in the first place.)
     */
    ForwardingBackend backend_;

    QuarantineConfig cfg_;
    MetadataPlane *plane_;

    std::deque<QEntry> fifo_; ///< oldest-first reclaim order
    std::unordered_map<Addr, QEntry> by_old_; ///< old_start -> entry
    std::unordered_map<Addr, std::uint32_t> ids_; ///< live start -> id

    Addr live_bytes_ = 0;
    std::uint32_t next_id_ = 1;
    std::uint64_t quarantined_frees_ = 0;
    std::uint64_t degraded_frees_ = 0;
    std::uint64_t reclaims_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t double_frees_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_QUARANTINE_ALLOCATOR_HH
