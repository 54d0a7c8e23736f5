/**
 * @file
 * LayoutBackend: the common interface behind allocation + relocation.
 *
 * The paper's claim is that forwarding makes relocation *safe enough to
 * be aggressive*.  To measure that claim against a rival safety
 * mechanism (not just against "no relocation"), the allocation /
 * relocation / pointer-resolution path is carved out behind one
 * interface with three implementations:
 *
 *  - ForwardingBackend — today's mechanism: SimAllocator placement,
 *    transactional relocate() appending forwarding addresses, stale
 *    pointers remain safe (and pay hops, amortized by the FTC).
 *    resolve() is the identity and costs nothing: raw addresses are
 *    valid pointers at all times.
 *
 *  - HandleBackend — the classic alternative (PAPERS.md: *Getting a
 *    Handle on Unmanaged Memory*; *Safely Abstracting Memory Layouts*):
 *    objects are only reachable through a handle table in simulated
 *    memory; relocation is a timed copy plus one table-slot update, and
 *    *every* access pays an extra dependent load (the table deref)
 *    charged through the cache hierarchy.  Raw addresses must never be
 *    retained across a relocation — which is exactly why this backend
 *    cannot retrofit safety onto code that traffics in raw pointers
 *    (Workload::supportsBackend).
 *
 *  - NullBackend — no relocation permitted: compaction requests are
 *    refused (counted), fragmentation accrues.  The honest baseline.
 *
 * A BackendRef is the stable name a client holds for an object: the
 * block address itself under forwarding/none, the handle-table slot
 * address under handles.  Clients that dereference through resolve()
 * (e.g. the kv_server workload) run unchanged on all three backends;
 * clients that traffic in raw addresses (the paper's eight kernels)
 * are forwarding/none-only.
 */

#ifndef MEMFWD_RUNTIME_LAYOUT_BACKEND_HH
#define MEMFWD_RUNTIME_LAYOUT_BACKEND_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{

class Machine;

/** Parse/print helpers for the --backend CLI knob. */
const char *backendKindName(BackendKind kind);
bool backendKindFromName(std::string_view name, BackendKind &kind);

/**
 * The stable name a client holds for a backend-managed object: a block
 * address (forwarding/none) or a handle-table slot address (handles).
 * Distinct from runtime/sim_struct.hh's typed ObjRef accessor.
 */
using BackendRef = Addr;

/** A resolved reference: the current address and when it is known. */
struct ResolvedRef
{
    Addr addr = 0;
    /** Cycle the address becomes available (dep threading). */
    Cycles ready = 0;
};

/** Common interface of the three layout backends. */
class LayoutBackend
{
  public:
    /**
     * Bind to @p machine's backend record (Machine::backendRecord):
     * every backend built on a machine counts into the same
     * LayoutBackendStats, which outlives it — workloads construct
     * backends on their own stack.
     */
    LayoutBackend(Machine &machine, BackendKind kind);

    virtual ~LayoutBackend() = default;

    LayoutBackend(const LayoutBackend &) = delete;
    LayoutBackend &operator=(const LayoutBackend &) = delete;

    BackendKind kind() const { return kind_; }

    /** True if relocate()/compactObject() can ever succeed. */
    virtual bool canRelocate() const = 0;

    /**
     * True if raw addresses held across a relocation remain safe to
     * dereference (forwarding: yes; handles: no — only refs are stable;
     * none: vacuously yes, nothing ever moves).
     */
    virtual bool stalePointersSafe() const = 0;

    // ----- allocation ---------------------------------------------------

    /**
     * Allocate @p bytes and return the client's stable reference, or
     * std::nullopt when the heap or the handle table has no room or an
     * armed alloc-site fault fires.  A failed call leaves the heap, the
     * table and the backend counters unchanged (SimAllocator::tryAlloc).
     */
    virtual std::optional<BackendRef>
    tryAllocate(Addr bytes, Placement placement = Placement::sequential,
                Addr align = wordBytes) = 0;

    /** tryAllocate(), throwing AllocFailure where it returns nullopt. */
    BackendRef allocate(Addr bytes, Placement placement = Placement::sequential,
                        Addr align = wordBytes);

    /** Release @p ref (and, under forwarding, every relocated copy). */
    virtual void free(BackendRef ref) = 0;

    // ----- relocation ---------------------------------------------------

    /**
     * Raw-range relocation of @p n_words from @p src to @p tgt — the
     * layout optimizers' primitive.  Returns false if this backend
     * cannot make the move safe (handles: raw ranges are exactly what
     * the table cannot mediate; none: relocation disabled).  Under
     * forwarding this is the transactional relocate() and exceptions
     * (cycle, injected fault) propagate after rollback.
     */
    virtual bool relocate(Addr src, Addr tgt, unsigned n_words) = 0;

    /**
     * Move the whole object named by @p ref to a backend-chosen better
     * home (online compaction).  @p ref stays valid: forwarding leaves
     * a chain behind it, handles updates the table slot.  Returns false
     * when refused (none) or when no placement fits (counted refusal,
     * heap unchanged).
     */
    virtual bool compactObject(BackendRef ref,
                               Placement placement = Placement::first_fit) = 0;

    // ----- access mediation ---------------------------------------------

    /**
     * Resolve @p ref to a dereferenceable address.  Forwarding/none:
     * the identity, zero cycles (refs *are* addresses).  Handles: one
     * timed dependent load of the table slot, gated on @p addr_ready.
     */
    virtual ResolvedRef resolve(BackendRef ref, Cycles addr_ready = 0) = 0;

    /** Untimed resolve (debug/test/host bookkeeping). */
    virtual Addr peekAddr(BackendRef ref) const = 0;

    /** Size in bytes of the live object named by @p ref (0 if none). */
    virtual Addr objectBytes(BackendRef ref) const = 0;

    // ----- introspection ------------------------------------------------

    Machine &machine() { return machine_; }

    /** The machine's backend record this backend counts into. */
    const LayoutBackendStats &stats() const { return stats_; }

  protected:
    Machine &machine_;
    LayoutBackendStats &stats_;

  private:
    BackendKind kind_;
};

/**
 * ForwardingBackend — the paper's mechanism behind the interface.
 * Timing is bit-identical to calling SimAllocator / relocate()
 * directly: allocate/free/relocate delegate with no extra timed work
 * and resolve() is free.
 */
class ForwardingBackend final : public LayoutBackend
{
  public:
    /** Relocation/resolution only (no allocator — tryAllocate() asserts). */
    explicit ForwardingBackend(Machine &machine)
        : LayoutBackend(machine, BackendKind::forwarding), alloc_(nullptr)
    {
    }

    ForwardingBackend(Machine &machine, SimAllocator &alloc)
        : LayoutBackend(machine, BackendKind::forwarding), alloc_(&alloc)
    {
    }

    bool canRelocate() const override { return true; }
    bool stalePointersSafe() const override { return true; }

    std::optional<BackendRef> tryAllocate(Addr bytes, Placement placement,
                                          Addr align) override;
    void free(BackendRef ref) override;
    bool relocate(Addr src, Addr tgt, unsigned n_words) override;
    bool compactObject(BackendRef ref, Placement placement) override;
    ResolvedRef resolve(BackendRef ref, Cycles addr_ready) override;
    Addr peekAddr(BackendRef ref) const override { return ref; }
    Addr objectBytes(BackendRef ref) const override;

  private:
    SimAllocator *alloc_;
};

/** Geometry of the handle table (simulated memory, outside the heap). */
struct HandleTableConfig
{
    /** Base of the table region; below the default heap base. */
    Addr table_base = 0x0000000008000000ULL;

    /** Number of 8-byte slots. */
    std::size_t capacity = 1u << 16;
};

/**
 * HandleBackend — objects are reachable only through a handle table in
 * simulated memory.  tryAllocate() installs the object address into a
 * fresh slot (timed store), and refuses before placing anything when
 * the table is full; resolve() is a timed dependent load of the
 * slot; compaction copies the object word-by-word through the cache
 * hierarchy and rewrites one slot.  Raw-range relocate() is refused:
 * the table cannot vouch for pointers it does not mediate.
 */
class HandleBackend final : public LayoutBackend
{
  public:
    HandleBackend(Machine &machine, SimAllocator &alloc,
                  const HandleTableConfig &cfg = {});

    bool canRelocate() const override { return true; }
    bool stalePointersSafe() const override { return false; }

    std::optional<BackendRef> tryAllocate(Addr bytes, Placement placement,
                                          Addr align) override;
    void free(BackendRef ref) override;
    bool relocate(Addr src, Addr tgt, unsigned n_words) override;
    bool compactObject(BackendRef ref, Placement placement) override;
    ResolvedRef resolve(BackendRef ref, Cycles addr_ready) override;
    Addr peekAddr(BackendRef ref) const override;
    Addr objectBytes(BackendRef ref) const override;

    /** Live slots (for tests). */
    std::size_t liveHandles() const { return live_handles_; }

  private:
    bool tableFull() const
    {
        return free_slots_.empty() && next_slot_ >= cfg_.capacity;
    }
    Addr takeSlot();
    void releaseSlot(Addr slot);

    SimAllocator &alloc_;
    HandleTableConfig cfg_;
    std::vector<Addr> free_slots_;
    std::size_t next_slot_ = 0;
    std::size_t live_handles_ = 0;
};

/**
 * NullBackend — allocation passthrough, relocation refused.  The
 * baseline that shows what fragmentation costs when nothing may move.
 */
class NullBackend final : public LayoutBackend
{
  public:
    NullBackend(Machine &machine, SimAllocator &alloc)
        : LayoutBackend(machine, BackendKind::none), alloc_(alloc)
    {
    }

    bool canRelocate() const override { return false; }
    bool stalePointersSafe() const override { return true; }

    std::optional<BackendRef> tryAllocate(Addr bytes, Placement placement,
                                          Addr align) override;
    void free(BackendRef ref) override;
    bool relocate(Addr src, Addr tgt, unsigned n_words) override;
    bool compactObject(BackendRef ref, Placement placement) override;
    ResolvedRef resolve(BackendRef ref, Cycles addr_ready) override;
    Addr peekAddr(BackendRef ref) const override { return ref; }
    Addr objectBytes(BackendRef ref) const override;

  private:
    SimAllocator &alloc_;
};

/**
 * Construct the backend selected by @p machine's config
 * (MachineConfig::backend(kind)) over @p alloc.
 */
std::unique_ptr<LayoutBackend> makeLayoutBackend(Machine &machine,
                                                 SimAllocator &alloc);

} // namespace memfwd

#endif // MEMFWD_RUNTIME_LAYOUT_BACKEND_HH
