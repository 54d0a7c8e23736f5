#include "runtime/quarantine_allocator.hh"

#include <optional>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "mem/metadata_plane.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

QuarantineAllocator::QuarantineAllocator(Machine &machine, SimAllocator &alloc,
                                         const QuarantineConfig &cfg)
    : machine_(machine), alloc_(alloc), backend_(machine, alloc),
      cfg_(cfg), plane_(machine.mem().metadataPlane())
{
    machine_.setQuarantineAllocator(this);
}

QuarantineAllocator::~QuarantineAllocator()
{
    if (machine_.quarantineAllocator() == this)
        machine_.setQuarantineAllocator(nullptr);
}

std::uint32_t
QuarantineAllocator::nextId()
{
    const std::uint32_t id = next_id_++;
    // Ids are 23-bit (MetadataPlane packing); 0 means "no provenance",
    // so wrap back to 1.
    if (next_id_ > MetadataPlane::max_object_id)
        next_id_ = 1;
    return id;
}

Addr
QuarantineAllocator::alloc(Addr bytes, Placement placement, Addr align)
{
    const Addr addr = backend_.allocate(bytes, placement, align);
    ids_[addr] = nextId();
    return addr;
}

Addr
QuarantineAllocator::placeSlot(Addr bytes)
{
    if (live_bytes_ + bytes > cfg_.capacity_bytes)
        return 0;
    return backend_.tryAllocate(bytes, Placement::sequential, wordBytes)
        .value_or(0);
}

void
QuarantineAllocator::relocateIntoQuarantine(Addr addr, Addr slot, Addr bytes)
{
    // Submit a micro-plan so the analysis gate vets the quarantine traps
    // exactly like any other relocation's; relocate() sees an active
    // plan and does not submit a second one.
    AnalysisGate *gate = machine_.analysisGate();
    std::optional<PlanScope> micro;
    const auto n_words = static_cast<unsigned>(bytes / wordBytes);
    if (gate && gate->activePlans() == 0) {
        RelocationPlan plan("quarantine");
        plan.assume(AliasAssumption::stale_pointers_possible)
            .move(addr, slot, n_words);
        micro.emplace(gate, plan);
    }
    backend_.relocate(addr, slot, n_words);
}

void
QuarantineAllocator::free(Addr addr)
{
    if (plane_ == nullptr) {
        backend_.free(addr);
        return;
    }
    if (by_old_.find(addr) != by_old_.end()) {
        // The storage is still quarantined: a second free is exactly the
        // kind of bug the quarantine exists to absorb.  Count it and do
        // nothing — the entry reclaims on its normal schedule.
        ++double_frees_;
        return;
    }

    const Addr bytes = alloc_.allocationSize(addr);
    memfwd_assert(bytes != 0, "free() of unallocated address");
    const auto id_it = ids_.find(addr);
    const std::uint32_t id =
        id_it != ids_.end() ? id_it->second : nextId();

    // The watermark policy reclaims ahead of need so steady-state frees
    // never hit the retry path; on_full lets the arena run to capacity.
    if (cfg_.policy == QuarantinePolicy::watermark) {
        const Addr limit = static_cast<Addr>(
            cfg_.watermark * static_cast<double>(cfg_.capacity_bytes));
        while (!fifo_.empty() && live_bytes_ + bytes > limit)
            reclaimOldest();
    }

    Addr slot = placeSlot(bytes);
    for (unsigned attempt = 0; slot == 0 && attempt < cfg_.max_retries;
         ++attempt) {
        ++retries_;
        machine_.access(Access::compute(cfg_.retry_backoff_base << attempt));
        if (fifo_.empty())
            break; // nothing left to reclaim; backoff cannot help
        reclaimOldest();
        slot = placeSlot(bytes);
    }

    if (slot == 0) {
        // Graceful degradation: the object will not fit even after
        // reclaim and backoff (or quarantine is simply too small for
        // it).  Release it for real and count the lost coverage.
        ++degraded_frees_;
        if (id_it != ids_.end())
            ids_.erase(id_it);
        backend_.free(addr);
        return;
    }

    try {
        relocateIntoQuarantine(addr, slot, bytes);
    } catch (...) {
        // relocate() rolled the heap back, so the object is intact and
        // the slot untouched — fall back to a plain free.
        backend_.free(slot);
        ++degraded_frees_;
        if (id_it != ids_.end())
            ids_.erase(id_it);
        backend_.free(addr);
        return;
    }

    plane_->setRange(slot, bytes,
                     MetadataPlane::pack(id, MetadataPlane::boundsClassFor(bytes),
                                         /*quarantined=*/true));

    const QEntry entry{addr, slot, bytes, id};
    fifo_.push_back(entry);
    by_old_.emplace(addr, entry);
    live_bytes_ += bytes;
    ++quarantined_frees_;
    if (id_it != ids_.end())
        ids_.erase(id_it);
}

void
QuarantineAllocator::reclaimOldest()
{
    if (fifo_.empty())
        return;
    const QEntry entry = fifo_.front();
    fifo_.pop_front();
    by_old_.erase(entry.old_start);
    // Untag first so a racing-in-program-order access to the slot during
    // the release walk cannot report a violation for storage that is
    // already being recycled.
    plane_->clearRange(entry.slot, entry.bytes);
    // Freeing the original start walks its forwarding chain and releases
    // every block on it — including the quarantine slot.
    backend_.free(entry.old_start);
    live_bytes_ -= entry.bytes;
    ++reclaims_;
}

void
QuarantineAllocator::reclaimAll()
{
    while (!fifo_.empty())
        reclaimOldest();
}

std::uint32_t
QuarantineAllocator::objectId(Addr addr) const
{
    const auto it = ids_.find(addr);
    return it != ids_.end() ? it->second : 0;
}

bool
QuarantineAllocator::isQuarantined(Addr addr) const
{
    return by_old_.find(addr) != by_old_.end();
}

Addr
QuarantineAllocator::quarantineSlot(Addr addr) const
{
    const auto it = by_old_.find(addr);
    return it != by_old_.end() ? it->second.slot : 0;
}

void
QuarantineAllocator::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("live_bytes", live_bytes_);
    into.counter("quarantined_frees", quarantined_frees_);
    into.counter("reclaims", reclaims_);
    into.counter("degraded_frees", degraded_frees_);
    into.counter("retries", retries_);
    into.counter("double_frees", double_frees_);
}

} // namespace memfwd
