#include "runtime/layout_backend.hh"

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"

namespace memfwd
{

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::forwarding:
        return "forwarding";
    case BackendKind::handles:
        return "handles";
    case BackendKind::none:
        return "none";
    }
    return "?";
}

bool
backendKindFromName(std::string_view name, BackendKind &kind)
{
    if (name == "forwarding") {
        kind = BackendKind::forwarding;
        return true;
    }
    if (name == "handles") {
        kind = BackendKind::handles;
        return true;
    }
    if (name == "none") {
        kind = BackendKind::none;
        return true;
    }
    return false;
}

LayoutBackend::LayoutBackend(Machine &machine, BackendKind kind)
    : machine_(machine), stats_(machine.backendRecord(kind)), kind_(kind)
{
}

BackendRef
LayoutBackend::allocate(Addr bytes, Placement placement, Addr align)
{
    if (const std::optional<BackendRef> ref =
            tryAllocate(bytes, placement, align))
        return *ref;
    throw AllocFailure(roundUpToWord(bytes),
                       "no room in the heap or handle table, or an "
                       "injected allocation failure");
}

// ---------------------------------------------------------------------
// ForwardingBackend
// ---------------------------------------------------------------------

std::optional<BackendRef>
ForwardingBackend::tryAllocate(Addr bytes, Placement placement, Addr align)
{
    memfwd_assert(alloc_ != nullptr,
                  "ForwardingBackend: tryAllocate() without an allocator");
    const std::optional<Addr> addr = alloc_->tryAlloc(bytes, placement, align);
    if (addr)
        ++stats_.allocs;
    return addr;
}

void
ForwardingBackend::free(BackendRef ref)
{
    memfwd_assert(alloc_ != nullptr,
                  "ForwardingBackend: free() without an allocator");
    alloc_->free(ref);
    ++stats_.frees;
}

bool
ForwardingBackend::relocate(Addr src, Addr tgt, unsigned n_words)
{
    // The transactional Relocate() of Figure 4(a), unchanged: a cycle
    // or injected fault rolls back and propagates.
    memfwd::relocate(machine_, src, tgt, n_words);
    ++stats_.relocations;
    stats_.relocated_words += n_words;
    return true;
}

bool
ForwardingBackend::compactObject(BackendRef ref, Placement placement)
{
    memfwd_assert(alloc_ != nullptr,
                  "ForwardingBackend: compactObject() without an allocator");
    const Addr bytes = alloc_->allocationSize(ref);
    if (bytes == 0) {
        ++stats_.refusals;
        return false;
    }
    const std::optional<Addr> tgt = alloc_->tryAlloc(bytes, placement);
    if (!tgt) {
        // No placement fits: heap unchanged, caller may evict and retry.
        ++stats_.refusals;
        return false;
    }
    try {
        // Online compaction declares itself like every other layout
        // pass: one single-move plan through the analysis gate (plan
        // submission is host work, so timing is unchanged), instead of
        // leaning on relocate()'s anonymous micro-plan fallback.
        RelocationPlan plan("compact_object");
        plan.assume(AliasAssumption::stale_pointers_possible)
            .move(ref, *tgt, static_cast<unsigned>(bytes / wordBytes));
        PlanScope scope(machine_.analysisGate(), plan);
        memfwd::relocate(machine_, ref, *tgt,
                         static_cast<unsigned>(bytes / wordBytes));
    } catch (...) {
        // relocate() rolled the heap back; the fresh target block is
        // chain-free, so releasing it undoes the whole compaction.
        alloc_->free(*tgt);
        throw;
    }
    ++stats_.relocations;
    ++stats_.compactions;
    stats_.relocated_words += bytes / wordBytes;
    return true;
}

ResolvedRef
ForwardingBackend::resolve(BackendRef ref, Cycles addr_ready)
{
    // Raw addresses are always dereferenceable under forwarding: the
    // hardware walks the chain at access time.  Zero timed work here.
    ++stats_.resolves;
    return {ref, addr_ready};
}

Addr
ForwardingBackend::objectBytes(BackendRef ref) const
{
    return alloc_ ? alloc_->allocationSize(ref) : 0;
}

// ---------------------------------------------------------------------
// HandleBackend
// ---------------------------------------------------------------------

HandleBackend::HandleBackend(Machine &machine, SimAllocator &alloc,
                             const HandleTableConfig &cfg)
    : LayoutBackend(machine, BackendKind::handles), alloc_(alloc), cfg_(cfg)
{
    memfwd_assert(isWordAligned(cfg_.table_base),
                  "handle table base must be word-aligned");
    memfwd_assert(cfg_.capacity > 0, "handle table needs at least one slot");
    // The table is its own region outside the object heap so its
    // storage never perturbs arena fragmentation comparisons.
    machine_.mem().initializeRegion(cfg_.table_base,
                                    Addr(cfg_.capacity) * wordBytes);
}

Addr
HandleBackend::takeSlot()
{
    if (!free_slots_.empty()) {
        const Addr slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    memfwd_assert(next_slot_ < cfg_.capacity, "handle table exhausted");
    return cfg_.table_base + Addr(next_slot_++) * wordBytes;
}

void
HandleBackend::releaseSlot(Addr slot)
{
    free_slots_.push_back(slot);
}

std::optional<BackendRef>
HandleBackend::tryAllocate(Addr bytes, Placement placement, Addr align)
{
    // The table is checked first: a full one must not place the object.
    if (tableFull())
        return std::nullopt;
    const std::optional<Addr> obj = alloc_.tryAlloc(bytes, placement, align);
    if (!obj)
        return std::nullopt;
    const Addr slot = takeSlot();
    // Installing the object address is a real store into the table.
    machine_.access(Access::store(slot, wordBytes, *obj));
    ++stats_.allocs;
    ++live_handles_;
    return slot;
}

void
HandleBackend::free(BackendRef ref)
{
    const AccessResult cur = machine_.access(Access::load(ref, wordBytes));
    alloc_.free(static_cast<Addr>(cur.value));
    machine_.access(Access::store(ref, wordBytes, 0, cur.ready));
    releaseSlot(ref);
    ++stats_.frees;
    --live_handles_;
}

bool
HandleBackend::relocate(Addr, Addr, unsigned)
{
    // Raw address ranges are exactly what a handle table cannot make
    // safe: any pointer it does not mediate would dangle.
    ++stats_.refusals;
    return false;
}

bool
HandleBackend::compactObject(BackendRef ref, Placement placement)
{
    const AccessResult cur = machine_.access(Access::load(ref, wordBytes));
    const Addr src = static_cast<Addr>(cur.value);
    const Addr bytes = alloc_.allocationSize(src);
    if (bytes == 0) {
        ++stats_.refusals;
        return false;
    }
    const std::optional<Addr> tgt = alloc_.tryAlloc(bytes, placement);
    if (!tgt) {
        ++stats_.refusals;
        return false;
    }
    // The copy runs word-by-word through the cache hierarchy — handle
    // relocation is cheap to *commit* (one slot store) but the data
    // still moves at memory speed.
    for (Addr w = 0; w < bytes; w += wordBytes) {
        const AccessResult v =
            machine_.access(Access::load(src + w, wordBytes, cur.ready));
        machine_.access(Access::store(*tgt + w, wordBytes, v.value, v.ready));
    }
    machine_.access(Access::store(ref, wordBytes, *tgt, cur.ready));
    // Unlike forwarding, the old home is dead the instant the slot is
    // rewritten: reclaim it now.
    alloc_.free(src);
    ++stats_.relocations;
    ++stats_.compactions;
    stats_.relocated_words += bytes / wordBytes;
    return true;
}

ResolvedRef
HandleBackend::resolve(BackendRef ref, Cycles addr_ready)
{
    // The handle tax: one dependent load through the hierarchy before
    // the object address is even known.
    ++stats_.resolves;
    ++stats_.handle_derefs;
    const AccessResult r =
        machine_.access(Access::load(ref, wordBytes, addr_ready));
    return {static_cast<Addr>(r.value), r.ready};
}

Addr
HandleBackend::peekAddr(BackendRef ref) const
{
    return static_cast<Addr>(machine_.peek(ref, wordBytes));
}

Addr
HandleBackend::objectBytes(BackendRef ref) const
{
    return alloc_.allocationSize(peekAddr(ref));
}

// ---------------------------------------------------------------------
// NullBackend
// ---------------------------------------------------------------------

std::optional<BackendRef>
NullBackend::tryAllocate(Addr bytes, Placement placement, Addr align)
{
    const std::optional<Addr> addr = alloc_.tryAlloc(bytes, placement, align);
    if (addr)
        ++stats_.allocs;
    return addr;
}

void
NullBackend::free(BackendRef ref)
{
    alloc_.free(ref);
    ++stats_.frees;
}

bool
NullBackend::relocate(Addr, Addr, unsigned)
{
    ++stats_.refusals;
    return false;
}

bool
NullBackend::compactObject(BackendRef, Placement)
{
    ++stats_.refusals;
    return false;
}

ResolvedRef
NullBackend::resolve(BackendRef ref, Cycles addr_ready)
{
    ++stats_.resolves;
    return {ref, addr_ready};
}

Addr
NullBackend::objectBytes(BackendRef ref) const
{
    return alloc_.allocationSize(ref);
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

std::unique_ptr<LayoutBackend>
makeLayoutBackend(Machine &machine, SimAllocator &alloc)
{
    switch (machine.config().backend_kind) {
    case BackendKind::forwarding:
        return std::make_unique<ForwardingBackend>(machine, alloc);
    case BackendKind::handles:
        return std::make_unique<HandleBackend>(machine, alloc);
    case BackendKind::none:
        return std::make_unique<NullBackend>(machine, alloc);
    }
    memfwd_panic("bad BackendKind %u",
                 static_cast<unsigned>(machine.config().backend_kind));
}

} // namespace memfwd
