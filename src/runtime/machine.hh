/**
 * @file
 * The Machine: the public simulation facade.
 *
 * A Machine is one simulated processor + memory system with memory
 * forwarding support.  Workloads execute by issuing *timed operations*
 * against it, in program order:
 *
 *  - load/store      — ordinary references, subject to forwarding;
 *  - readFBit, unforwardedRead, unforwardedWrite
 *                    — the three ISA extensions of Figure 3;
 *  - prefetch        — block prefetch of N consecutive lines;
 *  - compute         — N single-cycle ALU instructions.
 *
 * Loads return both the value and the cycle it becomes available; a
 * workload threads that cycle into the next access's `addr_ready` when
 * the address depends on the loaded value.  This is how the
 * pointer-chasing serialization the paper discusses (Section 2.2) is
 * expressed: `b = load(a.next)` then `load(b.data, addr_ready=b.ready)`.
 */

#ifndef MEMFWD_RUNTIME_MACHINE_HH
#define MEMFWD_RUNTIME_MACHINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/prefetcher.hh"
#include "common/types.hh"
#include "core/forwarding_engine.hh"
#include "cpu/ooo_cpu.hh"
#include "mem/page_cache.hh"
#include "mem/tagged_memory.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace memfwd
{

class AnalysisGate;
class FaultInjector;
class QuarantineAllocator;

/**
 * The TLB reach model.
 *
 * Scattered small objects do not just waste cache lines: they spread
 * the working set over many pages, thrashing the TLB.  Linearization
 * compresses the page footprint, so modelling the TLB exposes another
 * benefit of the paper's layout optimizations (and of their page-level
 * applicability, Section 2.2's closing remark).  The TLB is a
 * fully-associative LRU set of pages (a PageCache) and every miss
 * costs a constant page walk.  Disabled by default so the baseline
 * reproduction matches the paper's cache-focused numbers.
 */
struct TlbConfig
{
    bool enabled = false;
    unsigned entries = 64;
    unsigned page_bytes = 4096;
    Cycles miss_penalty = 30; ///< page-table walk cost
};

/**
 * Whole-machine configuration.  The fluent setters make
 * one-expression configs readable:
 *
 *   Machine m(MachineConfig{}.lineBytes(64).forwardingMode(
 *       MachineConfig::Mode::exception));
 */
struct MachineConfig
{
    using Mode = ForwardingConfig::Mode;

    HierarchyConfig hierarchy{};
    OooParams cpu{};
    ForwardingConfig forwarding{};

    /** TLB reach model; disabled by default. */
    TlbConfig tlb{};

    /** Base of the simulated heap handed to SimAllocator. */
    Addr heap_base = 0x0000000010000000ULL;

    /** Size of the simulated heap region. */
    Addr heap_span = 1ULL << 32;

    /**
     * Materialize the per-word metadata plane (mem/metadata_plane.hh)
     * and attach it to the forwarding engine's temporal-safety check.
     * Off by default: a plane-off machine constructs no plane and the
     * engine's forwarded path tests one null pointer, so timing and
     * heap state are bit-identical to builds predating the plane.
     */
    bool metadata_plane = false;

    /**
     * Which layout backend mediates allocation/relocation for backend
     * clients (runtime/layout_backend.hh, makeLayoutBackend()).  The
     * default is the paper's mechanism; `handles` and `none` are the
     * rival safety mechanism and the no-relocation baseline.
     */
    BackendKind backend_kind = BackendKind::forwarding;

    /**
     * Workload regions executed in functional fast-forward mode:
     * references inside a matching Machine::enterRegion/exitRegion
     * bracket skip cache/CPU timing while keeping forwarding semantics
     * (chain walks, traps, quarantine, cycle detection) exact.  The
     * special name "all" fast-forwards everything.
     */
    std::vector<std::string> fast_forward_regions{};

    // ----- fluent setters (each returns *this for chaining) ------------

    /** Cache line size at both levels (the paper's sweep knob). */
    MachineConfig &
    lineBytes(unsigned bytes)
    {
        hierarchy.setLineBytes(bytes);
        return *this;
    }

    MachineConfig &
    l1Bytes(unsigned bytes)
    {
        hierarchy.l1d.size_bytes = bytes;
        return *this;
    }

    MachineConfig &
    memLatency(Cycles cycles)
    {
        hierarchy.memory.latency = cycles;
        return *this;
    }

    MachineConfig &
    forwardingMode(Mode mode)
    {
        forwarding.mode = mode;
        return *this;
    }

    MachineConfig &
    hopLimit(unsigned limit)
    {
        forwarding.hop_limit = limit;
        return *this;
    }

    MachineConfig &
    cyclePolicy(CyclePolicy policy)
    {
        forwarding.cycle_policy = policy;
        return *this;
    }

    /** Enable/disable the forwarding translation cache. */
    MachineConfig &
    ftc(bool on = true)
    {
        forwarding.ftc_enabled = on;
        return *this;
    }

    /** FTC geometry; implies ftc(true). */
    MachineConfig &
    ftcGeometry(unsigned sets, unsigned ways)
    {
        forwarding.ftc_enabled = true;
        forwarding.ftc_sets = sets;
        forwarding.ftc_ways = ways;
        return *this;
    }

    /** Enable/disable lazy chain collapsing. */
    MachineConfig &
    collapse(bool on = true)
    {
        forwarding.collapse_enabled = on;
        return *this;
    }

    /** Collapse threshold (hops); implies collapse(true). */
    MachineConfig &
    collapseThreshold(unsigned hops)
    {
        forwarding.collapse_enabled = true;
        forwarding.collapse_threshold = hops;
        return *this;
    }

    /** Fast-forward @p region ("all" = the whole run). */
    MachineConfig &
    fastForward(std::string region = "all")
    {
        fast_forward_regions.push_back(std::move(region));
        return *this;
    }

    /** Enable/disable the per-word metadata plane. */
    MachineConfig &
    metadataPlane(bool on = true)
    {
        metadata_plane = on;
        return *this;
    }

    /** Select the layout backend (forwarding | handles | none). */
    MachineConfig &
    backend(BackendKind kind)
    {
        backend_kind = kind;
        return *this;
    }
};

// ---------------------------------------------------------------------
// Unified access API
// ---------------------------------------------------------------------

/** Kinds of reference the unified access entry point accepts. */
enum class RefKind : std::uint8_t
{
    load,             ///< ordinary load, subject to forwarding
    store,            ///< ordinary store, subject to forwarding
    read_fbit,        ///< Read_FBit (Figure 3)
    unforwarded_read, ///< Unforwarded_Read (Figure 3)
    unforwarded_write, ///< Unforwarded_Write (Figure 3)
    prefetch,         ///< non-binding block prefetch
    compute,          ///< N single-cycle ALU instructions
};

/**
 * One reference in the unified access API.  Build instances with the
 * named constructors (Access::load, Access::store, ...) and execute
 * them with Machine::access(), the one entry point for every kind.
 */
struct Access
{
    Addr addr = 0;
    /** Store data / Unforwarded_Write payload / prefetch line count /
     *  compute instruction count. */
    std::uint64_t value = 0;
    /** Cycle the address operand becomes available (dep threading). */
    Cycles addr_ready = 0;
    /** Slot holding the pointer being dereferenced (trap fixup). */
    Addr pointer_slot = 0;
    /** Static reference site for user-level traps. */
    SiteId site = no_site;
    /**
     * Provenance of the pointer being dereferenced: the id of the
     * object it was derived from (QuarantineAllocator::objectId), or 0
     * when unknown.  Feeds the temporal-safety classification when a
     * metadata plane is enabled — a reference resolving into
     * quarantined memory is a use-after-free if the ids match, an
     * out-of-bounds stray otherwise.  Ignored plane-off.
     */
    std::uint32_t object_id = 0;
    RefKind kind = RefKind::load;
    std::uint8_t size = wordBytes;
    /** Forwarding bit written by an unforwarded_write. */
    bool fbit = false;

    /** Chainable provenance tag: access(Access::load(...).objectId(id)). */
    Access &
    objectId(std::uint32_t id)
    {
        object_id = id;
        return *this;
    }

    static Access
    load(Addr addr, unsigned size, Cycles addr_ready = 0,
         SiteId site = no_site, Addr pointer_slot = 0)
    {
        Access a;
        a.addr = addr;
        a.addr_ready = addr_ready;
        a.pointer_slot = pointer_slot;
        a.site = site;
        a.kind = RefKind::load;
        a.size = static_cast<std::uint8_t>(size);
        return a;
    }

    static Access
    store(Addr addr, unsigned size, std::uint64_t value,
          Cycles addr_ready = 0, SiteId site = no_site,
          Addr pointer_slot = 0)
    {
        Access a;
        a.addr = addr;
        a.value = value;
        a.addr_ready = addr_ready;
        a.pointer_slot = pointer_slot;
        a.site = site;
        a.kind = RefKind::store;
        a.size = static_cast<std::uint8_t>(size);
        return a;
    }

    static Access
    readFBit(Addr addr, Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.addr_ready = addr_ready;
        a.kind = RefKind::read_fbit;
        return a;
    }

    static Access
    unforwardedRead(Addr addr, Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.addr_ready = addr_ready;
        a.kind = RefKind::unforwarded_read;
        return a;
    }

    static Access
    unforwardedWrite(Addr addr, std::uint64_t value, bool fbit,
                     Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.value = value;
        a.addr_ready = addr_ready;
        a.kind = RefKind::unforwarded_write;
        a.fbit = fbit;
        return a;
    }

    static Access
    prefetch(Addr addr, unsigned lines, Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.value = lines;
        a.addr_ready = addr_ready;
        a.kind = RefKind::prefetch;
        return a;
    }

    static Access
    compute(std::uint64_t n)
    {
        Access a;
        a.value = n;
        a.kind = RefKind::compute;
        return a;
    }
};

/** Result of one reference through the unified entry point. */
struct AccessResult
{
    /** Loaded value; the forwarding bit (0/1) for read_fbit; the raw
     *  payload for unforwarded_read. */
    std::uint64_t value = 0;
    /** Completion cycle of the reference; 0 under fast-forward. */
    Cycles ready = 0;
    /** Forwarding hops this reference took. */
    unsigned hops = 0;
    /** Address the data was actually found (or landed) at. */
    Addr final_addr = 0;
    /** True if a user-level trap was delivered for this reference. */
    bool trapped = false;
};

class AccessBatch;
class RefStream;

/** One simulated CPU + forwarding memory system. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = {});
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // ----- unified access entry point ----------------------------------

    /**
     * Execute one reference of any kind, in program order.  This is the
     * machine's only dispatcher: every reference, timed or
     * fast-forwarded, traced or not, enters here.
     */
    AccessResult access(const Access &a);

    /**
     * Replay @p batch through access(), one call per reference, in
     * order (results are dropped: anything that needs one calls
     * access() itself).
     */
    void run(AccessBatch &batch);

    /** Pull batches from @p stream and run them until it is exhausted. */
    void run(RefStream &stream);

    // ----- fast-forward regions ----------------------------------------

    /**
     * Bracket a named workload phase (prefer RegionGuard).  While any
     * region named in MachineConfig::fast_forward_regions (or "all") is
     * open, references execute functionally: forwarding semantics —
     * chain walks, traps, quarantine, cycle detection — stay exact,
     * but cache/CPU timing is skipped and each reference retires as one
     * ALU instruction.
     */
    void enterRegion(std::string_view name);
    void exitRegion(std::string_view name);

    // ----- untimed (debug/test) access ---------------------------------

    /**
     * Functional read following forwarding, no timing, no stats.  It
     * resolves as access() would: a quarantined chain serves its pin.
     *
     * @throws ForwardingCycleError on an unpinned cyclic chain.
     * @throws ForwardingIntegrityError on an unpinned corrupt chain.
     */
    std::uint64_t peek(Addr addr, unsigned size) const;

    /** As peek(), but writes @p value at the resolved address. */
    void poke(Addr addr, unsigned size, std::uint64_t value);

    // ----- component access --------------------------------------------

    TaggedMemory &mem() { return mem_; }
    const TaggedMemory &mem() const { return mem_; }
    MemoryHierarchy &hierarchy() { return *hierarchy_; }
    const MemoryHierarchy &hierarchy() const { return *hierarchy_; }
    OooCpu &cpu() { return *cpu_; }
    const OooCpu &cpu() const { return *cpu_; }
    ForwardingEngine &forwarding() { return *fwd_; }
    const ForwardingEngine &forwarding() const { return *fwd_; }
    Prefetcher &prefetcher() { return *prefetcher_; }
    /** The TLB's page set; it counts only while the TLB is enabled. */
    const PageCache &tlb() const { return tlb_; }

    const MachineConfig &config() const { return cfg_; }

    /** Execution time so far, in cycles. */
    Cycles cycles() const { return cpu_->cycles(); }

    // ----- tracing -----------------------------------------------------

    /**
     * The machine's event tracer.  Register any number of
     * obs::TraceSinks to observe demand references, chain walks,
     * relocations, traps, L1 misses and rollbacks; with no sink
     * registered nothing is emitted and nothing is paid.
     */
    obs::Tracer &tracer() { return tracer_; }
    const obs::Tracer &tracer() const { return tracer_; }

    /**
     * Attach (or clear, with nullptr) a fault injector.  The engine
     * consults it at resolve time; the runtime (allocator, relocation)
     * consults it through faultInjector().  Not owned.
     */
    void setFaultInjector(FaultInjector *faults);

    FaultInjector *faultInjector() const { return faults_; }

    /**
     * Attach (or clear, with nullptr) a static-analysis gate
     * (src/analysis).  Layout optimizers submit RelocationPlans through
     * it before touching memory; in enforce mode every
     * unforwardedRead/Write is cross-checked against the active plan's
     * proven ranges.  With no gate attached (the default) the fast
     * paths test one pointer and pay nothing.  Not owned.
     */
    void setAnalysisGate(AnalysisGate *gate);

    AnalysisGate *analysisGate() const { return gate_; }

    /**
     * Attach (or clear, with nullptr) the quarantining allocator so
     * metrics() can export its counters under the "quarantine" node.
     * QuarantineAllocator registers itself on construction.  Not owned.
     */
    void setQuarantineAllocator(QuarantineAllocator *quarantine)
    {
        quarantine_ = quarantine;
    }

    QuarantineAllocator *quarantineAllocator() const { return quarantine_; }

    /**
     * The mediation counters every layout backend built on this machine
     * counts into (runtime/layout_backend.hh binds each backend to it
     * on construction), exported under "backend" once the first backend
     * is built, with @p kind — the kind of the latest — as its gauge.
     * The record is machine state, so it outlives the backends.
     */
    LayoutBackendStats &
    backendRecord(BackendKind kind)
    {
        backend_kind_ = kind;
        return backend_stats_;
    }

    // ----- reference-level forwarding stats (Figure 10(c)) -------------

    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t loadsForwarded() const { return loads_forwarded_; }
    std::uint64_t storesForwarded() const { return stores_forwarded_; }

    /**
     * References executed through the unified entry point (every kind,
     * including compute), exported as the `refs.executed` counter.  The
     * host.refs_per_sec gauge divides it by host wall time.
     */
    std::uint64_t refsExecuted() const { return refs_; }

    /**
     * The machine's full hierarchical metrics tree: every component's
     * counters, gauges and distributions under stable dotted names
     * (docs/METRICS.md), read back with counterAt()/gaugeAt().
     */
    obs::MetricsNode metrics() const;

  private:
    /** TLB lookup applied to a reference's final address. */
    Cycles translate(Addr addr, Cycles now);

    /** How exec() runs a reference. */
    enum class Exec
    {
        functional, ///< fast-forward: forwarding exact, no cache/CPU time
        timed       ///< full timing, plus tracer events if a sink listens
    };

    /**
     * Execute one reference of any kind.  Functional execution touches
     * neither the cache nor the CPU and returns `ready` 0; accessFast()
     * charges its ALU work.
     */
    template <Exec E> AccessResult exec(const Access &a);

    /**
     * The tracer events of one timed load or store; out of line so the
     * untraced timed path stays compact.
     */
    void traceRef(const Access &a, AccessType type, Cycles issue,
                  const WalkResult &w, bool l1_missed);

    /** Timing of an ISA extension (no forwarding); returns its ready cycle. */
    template <Exec E> Cycles rawAccess(const Access &a, bool is_load);

    /**
     * exec<Exec::functional>() plus one OooCpu::alu() call: a compute
     * bundle retires its own count, any other reference one ALU
     * instruction, at the CPU's next observer.
     */
    AccessResult accessFast(const Access &a);

    /** Final address of @p addr for peek/poke (see peek()). */
    Addr untimedFinal(Addr addr) const;

    bool
    regionFastForwarded(std::string_view name) const
    {
        if (ff_all_)
            return true;
        for (const std::string &r : cfg_.fast_forward_regions) {
            if (r == name)
                return true;
        }
        return false;
    }

    MachineConfig cfg_;
    TaggedMemory mem_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::unique_ptr<OooCpu> cpu_;
    std::unique_ptr<ForwardingEngine> fwd_;
    std::unique_ptr<Prefetcher> prefetcher_;
    PageCache tlb_;
    FaultInjector *faults_ = nullptr;
    AnalysisGate *gate_ = nullptr;
    QuarantineAllocator *quarantine_ = nullptr;

    LayoutBackendStats backend_stats_{};
    /** Kind of the latest backend built here; unset until the first. */
    std::optional<BackendKind> backend_kind_;

    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t loads_forwarded_ = 0;
    std::uint64_t stores_forwarded_ = 0;
    std::uint64_t refs_ = 0;

    bool ff_all_ = false;     ///< "all" appears in fast_forward_regions
    unsigned ff_depth_ = 0;   ///< open fast-forwarded regions
    bool ff_active_ = false;  ///< ff_depth_ > 0 || ff_all_

    obs::Tracer tracer_;
};

/** RAII bracket for Machine::enterRegion/exitRegion. */
class RegionGuard
{
  public:
    RegionGuard(Machine &machine, std::string_view name)
        : machine_(machine), name_(name)
    {
        machine_.enterRegion(name_);
    }

    ~RegionGuard() { machine_.exitRegion(name_); }

    RegionGuard(const RegionGuard &) = delete;
    RegionGuard &operator=(const RegionGuard &) = delete;

  private:
    Machine &machine_;
    std::string name_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_MACHINE_HH
