/**
 * @file
 * The forwarding engine: the paper's central mechanism.
 *
 * Every ordinary data reference first consults the forwarding bit of
 * the word containing its *initial address*.  If set, the word's
 * payload is a forwarding address: the reference is redirected (keeping
 * its byte offset within the word, Section 2.1) and the test repeats,
 * following chains of arbitrary length until a clear bit is found at
 * the *final address*.
 *
 * Three implementation styles are modelled (Section 3.2):
 *
 *  - `hardware`  — the dereference loop runs in the load/store unit;
 *                  each hop costs one additional cache access (which
 *                  also *pollutes* the cache — old locations are
 *                  touched, the effect Figure 10 highlights) plus a
 *                  small per-hop pipeline cost.
 *  - `exception` — the first set bit raises an exception and a software
 *                  handler chases the chain with Unforwarded_Reads; the
 *                  timing adds a fixed exception-dispatch cost per
 *                  forwarded reference on top of the per-hop accesses.
 *                  Each false alarm re-runs the handler with exponential
 *                  backoff charged to the reference and accounted in the
 *                  stats; past `max_handler_retries` the handler stops
 *                  charging and the reference resolves to the chain's
 *                  real tail (the check just proved it acyclic).
 *  - `perfect`   — the idealized bound of Figure 10 ("Perf"): every
 *                  reference magically uses its final address with no
 *                  hop accesses and no pollution.  Not implementable;
 *                  used to bound how much of a slowdown is forwarding
 *                  overhead versus layout fundamentals.
 *
 * There is one walk: walkChain() (core/chain_walk.hh) under a private
 * template over a timing policy, which adds everything else a reference
 * meets (pins, fault hook, perfect mode, cycle policy, stats, traps,
 * temporal check).  resolve() is timed: hops load through the cache
 * hierarchy and the FTC and collapsing apply.  resolveFunctional()
 * skips every cache access and cycle, the FTC, collapsing and trap
 * trace events.  Perfect mode walks uncharged under either.
 *
 * Cycle handling follows the paper: a cheap hop counter with limit
 * `hop_limit`; on overflow, a software exception performs the accurate
 * check (core/cycle_check.hh) at cost `cycle_check_cost`.  A false
 * alarm resets the counter and resumes.  What a *true* cycle does is
 * the configurable `cycle_policy`:
 *
 *  - `abort`      — throw ForwardingCycleError (the paper's behavior:
 *                   a cycle is a software bug and execution stops);
 *  - `trap`       — deliver a user-level trap describing the cycle; if
 *                   a handler is installed the reference then resolves
 *                   as under quarantine, otherwise fall back to abort;
 *  - `quarantine` — pin the reference at the pre-cycle address, bump
 *                   `cycles_quarantined`, and keep executing.  Later
 *                   references through the same chain resolve to the
 *                   pin without re-walking.
 *
 * Independent of cycles, the walk validates every forwarding word it
 * dereferences, and no option turns this off: a set bit over a
 * misaligned payload can only be corruption (legitimate relocation
 * writes aligned targets), and is handled by the same policy — abort
 * throws ForwardingIntegrityError, trap/quarantine pin the reference at
 * the corrupt word.  A corrupt word never silently redirects it.
 *
 * A FaultInjector (core/fault_injector.hh) can be attached to corrupt
 * chains at resolve time, exercising all of the above deterministically.
 *
 * Two optional accelerations attack the per-reference walk cost the
 * paper identifies as forwarding's main overhead (Section 3, Fig. 10),
 * in the spirit of the authors' remark that hardware may remember
 * resolved addresses:
 *
 *  - the *forwarding translation cache* (FTC) — a small set-associative
 *    initial→final cache consulted after the forwarding-bit test; a hit
 *    serves the final address for `ftc_hit_cost` cycles with no hop
 *    accesses (and, in exception mode, no exception), and therefore no
 *    cache pollution.  Entries are invalidated whenever the underlying
 *    chain state mutates (TaggedMemory reports every such mutation
 *    through FwdStateListener): a word *becoming* forwarded — a
 *    relocation appending at a chain tail — precisely drops the entries
 *    that resolved to it, while a mutation of an already-forwarded word
 *    (rollback, fault injection, repair, manual Unforwarded_Write)
 *    conservatively flushes the cache, since the word may sit in the
 *    middle of any cached chain.
 *  - *lazy chain collapsing* (path compression) — after a successful
 *    walk of >= `collapse_threshold` hops, the chain-start word is
 *    rewritten to forward directly at the final word, so every later
 *    reference through it pays at most one hop.  The rewrite preserves
 *    the resolution of every pointer into the chain and never touches
 *    forwarding bits, so it is invisible to program semantics, stale
 *    pointer delivery, and pointer comparison; it is suspended inside
 *    transactional sections (runtime/relocation.cc) whose rollback
 *    journal must restore the heap bit-identically.
 *
 * Both default off; tests/integration/test_differential.cc proves the
 * architectural equivalence of on vs. off across every workload.
 */

#ifndef MEMFWD_CORE_FORWARDING_ENGINE_HH
#define MEMFWD_CORE_FORWARDING_ENGINE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.hh"
#include "common/types.hh"
#include "core/chain_walk.hh"
#include "core/traps.hh"
#include "mem/tagged_memory.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace memfwd
{

class MemoryHierarchy;
class FaultInjector;

/** What resolve() does when it proves a chain cannot terminate. */
enum class CyclePolicy
{
    abort,      ///< throw (the paper's semantics; default)
    trap,       ///< user-level trap, then quarantine; abort if unhandled
    quarantine  ///< pin at the pre-cycle address and continue
};

const char *cyclePolicyName(CyclePolicy policy);

/** Forwarding implementation style and costs. */
struct ForwardingConfig
{
    enum class Mode
    {
        hardware,
        exception,
        perfect
    };

    Mode mode = Mode::hardware;

    /** Hop-counter limit before the accurate cycle check fires. */
    unsigned hop_limit = 16;

    /** Extra pipeline cost per hop (address mux, retry), cycles. */
    Cycles hop_cost = 1;

    /** Exception dispatch+return cost per forwarded ref (exception mode). */
    Cycles exception_cost = 30;

    /** Cost of one software accurate cycle check, cycles. */
    Cycles cycle_check_cost = 200;

    /** What to do when a chain provably cannot terminate. */
    CyclePolicy cycle_policy = CyclePolicy::abort;

    /**
     * Exception-mode handler: false alarms tolerated for one reference
     * before the handler gives up charging.  The chain was just proven
     * acyclic, so the reference then resolves to its real tail with no
     * further hop accesses or backoff.
     */
    unsigned max_handler_retries = 8;

    /** Base of the exponential backoff charged per handler retry. */
    Cycles retry_backoff_base = 16;

    // ----- forwarding translation cache + chain collapsing -------------

    /** Enable the initial→final translation cache. */
    bool ftc_enabled = false;

    /** FTC sets (rounded up to a power of two) and ways. */
    unsigned ftc_sets = 64;
    unsigned ftc_ways = 4;

    /** Cost of a reference served from the FTC, cycles. */
    Cycles ftc_hit_cost = 1;

    /** Enable lazy chain collapsing (path compression). */
    bool collapse_enabled = false;

    /** Minimum walked hops before the chain head is rewritten. */
    unsigned collapse_threshold = 2;
};

/** Statistics the engine keeps (Figure 10(c) and friends). */
struct ForwardingStats
{
    std::uint64_t walks = 0;          ///< references with >= 1 hop
    std::uint64_t hops = 0;           ///< total hops taken
    std::uint64_t hop_l1_misses = 0;  ///< hop accesses that missed L1
    std::uint64_t false_alarms = 0;   ///< hop-limit hits that were acyclic
    std::uint64_t cycles_detected = 0;
    std::uint64_t cycles_quarantined = 0; ///< chains pinned by policy
    std::uint64_t corrupt_forwards = 0;   ///< invalid payloads detected
    std::uint64_t quarantine_hits = 0;    ///< resolves served from a pin
    std::uint64_t handler_retries = 0;    ///< exception-mode re-walks
    std::uint64_t backoff_cycles = 0;     ///< cycles spent backing off
    std::uint64_t ftc_hits = 0;           ///< resolves served by the FTC
    std::uint64_t ftc_misses = 0;         ///< forwarded refs the FTC missed
    std::uint64_t ftc_invalidations = 0;  ///< FTC entries dropped by mutation
    std::uint64_t chains_collapsed = 0;   ///< chain heads rewritten to final
    std::uint64_t temporal_uaf = 0; ///< refs resolved into the quarantined
                                    ///< remains of their own object
    std::uint64_t temporal_oob = 0; ///< refs strayed into another object's
                                    ///< quarantined remains
    std::vector<std::uint64_t> hop_histogram; ///< [h] = refs with h hops

    void
    recordHops(unsigned h)
    {
        if (hop_histogram.size() <= h)
            hop_histogram.resize(h + 1, 0);
        ++hop_histogram[h];
    }
};

/** Result of resolving one reference's forwarding chain. */
struct WalkResult
{
    Addr final_addr;       ///< data address after following the chain
    unsigned hops;         ///< hops actually walked (0 on an FTC hit)
    Cycles ready;          ///< cycle at which resolution completed
    Cycles forward_cycles; ///< ready - start (time spent forwarding)
    bool hop_missed_l1;    ///< any hop access missed in L1

    /**
     * The reference observed a set forwarding bit and paid a forwarding
     * mechanism for its resolution (walk, FTC hit, or quarantine pin).
     * Unlike `hops`, this is invariant under the FTC and collapsing, so
     * it is what the machine's forwarded-reference counters use.
     * Always false in perfect mode, which models pre-updated pointers.
     */
    bool forwarded;
};

/**
 * The Forwarding Translation Cache: a small set-associative, LRU-replaced
 * cache of initial→final chain resolutions, keyed by the chain-start
 * word.  Pure bookkeeping — the engine charges timing and maintains the
 * hit/miss/invalidation statistics.
 */
class TranslationCache
{
  public:
    struct Entry
    {
        Addr start = 0;      ///< chain-start word (the tag)
        Addr final_word = 0; ///< resolved final word
        unsigned hops = 0;   ///< chain length when the entry was filled
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /** Size (and clear) the cache; sets is rounded up to a power of 2. */
    void configure(unsigned sets, unsigned ways);

    /** Cached translation for chain-start @p word, or nullptr. */
    const Entry *lookup(Addr word);

    /** As lookup(), but without promoting the entry's LRU state. */
    Addr peek(Addr word) const;

    /** Install (or refresh) the translation @p start → @p final_word. */
    void insert(Addr start, Addr final_word, unsigned hops);

    /** Drop the entry keyed by @p word; returns entries dropped (0/1). */
    std::uint64_t invalidateStart(Addr word);

    /** Drop every entry resolving to @p word; returns entries dropped. */
    std::uint64_t invalidateFinal(Addr word);

    /** Drop everything; returns entries dropped. */
    std::uint64_t flush();

    /** Valid entries currently cached. */
    std::uint64_t entryCount() const;

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    Entry *set(Addr word);

    unsigned sets_ = 0;
    unsigned ways_ = 0;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_; ///< sets_ * ways_, row-major by set
};

/** Walks forwarding chains with full timing and cache effects. */
class ForwardingEngine : public FwdStateListener
{
  public:
    ForwardingEngine(TaggedMemory &mem, MemoryHierarchy &hierarchy,
                     const ForwardingConfig &cfg = {});

    ~ForwardingEngine() override;

    /**
     * Resolve the chain for a reference to @p addr beginning at cycle
     * @p start.  @p type is the reference's demand type (hop accesses
     * are issued as loads of that type's urgency).  @p site and
     * @p pointer_slot feed the user-level trap if one is armed.
     * @p object_id is the pointer's provenance (the id of the object it
     * was derived from, 0 = unknown) and feeds the temporal-safety
     * check when a metadata plane is attached.
     *
     * @throws ForwardingCycleError on a genuine forwarding cycle under
     *         the abort policy (or trap policy with no handler).
     * @throws ForwardingIntegrityError on a corrupt forwarding word
     *         under the abort policy.
     */
    WalkResult resolve(Addr addr, AccessType type, Cycles start,
                       SiteId site = no_site, Addr pointer_slot = 0,
                       std::uint32_t object_id = 0);

    /**
     * As resolve(), but functional (fast-forward): full architectural
     * semantics, no cache access, no timing, no FTC or collapsing, so
     * `ready`/`forward_cycles` come back zero and `hop_missed_l1` false.
     */
    WalkResult resolveFunctional(Addr addr, AccessType type,
                                 SiteId site = no_site,
                                 Addr pointer_slot = 0,
                                 std::uint32_t object_id = 0);

    /**
     * Relocation primitive used by the runtime: copy the word at
     * @p src to @p tgt and atomically turn @p src into a forwarding
     * address pointing at @p tgt.  Functional only (timing is charged
     * by the runtime's instruction stream).
     */
    void forwardWord(Addr src, Addr tgt);

    /** Attach (or clear, with nullptr) a fault injector. */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /**
     * Attach (or clear, with nullptr) the per-word metadata plane.
     * While attached, every forwarded resolution additionally checks
     * the metadata of its *final* word: if the word belongs to a
     * quarantined (freed) object, a TrapKind::TemporalViolation trap is
     * delivered — classified use-after-free when the reference's
     * object id matches the dead object's, out-of-bounds otherwise —
     * and a temporal_violation trace event is emitted.  The check is
     * free (no cycles are charged) and only runs on the forwarded path,
     * so an unattached or clean plane never perturbs timing.
     */
    void setMetadataPlane(const MetadataPlane *plane) { plane_ = plane; }

    const MetadataPlane *metadataPlane() const { return plane_; }

    /**
     * Attach (or clear, with nullptr) the machine's tracer.  The
     * engine emits trap events through it; the Machine emits the
     * chain-walk and reference events itself.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** Pin of the quarantined chain at @p word (0 = not quarantined). */
    Addr quarantinePin(Addr word) const;

    /** The walk bounds this engine's configuration implies. */
    const ChainLimits &limits() const { return limits_; }

    /**
     * FwdStateListener: a chain mutated under the translation cache.
     * A word that just *became* forwarded can only be a chain tail, so
     * the entries resolving to it are dropped precisely; any other
     * mutation (an already-forwarded word rewritten or cleared) flushes
     * the cache, since the word may be interior to any cached chain.
     */
    void fwdStateChanged(Addr word, bool was_fbit) override;

    /** Cached FTC final word for @p addr, or 0 — test introspection. */
    Addr ftcPeek(Addr addr) const;

    /**
     * Suspend/resume lazy chain collapsing (nests).  Transactional
     * sections whose rollback must restore the heap bit-identically —
     * relocate() — hold a suspension across every resolve they cause.
     */
    void suspendCollapse() { ++collapse_suspend_; }

    void
    resumeCollapse()
    {
        if (collapse_suspend_ > 0)
            --collapse_suspend_;
    }

    const ForwardingConfig &config() const { return cfg_; }
    const ForwardingStats &stats() const { return stats_; }
    TrapRegistry &traps() { return traps_; }

    /** Add the engine's counters + hop-count distribution to @p into. */
    void fillMetrics(obs::MetricsNode &into) const;

    obs::MetricsNode
    metrics() const
    {
        obs::MetricsNode n;
        fillMetrics(n);
        return n;
    }

    void clearStats() { stats_ = ForwardingStats(); }

  private:
    /** resolve() and resolveFunctional(), over their timing policy. */
    template <class Timing>
    WalkResult walk(Addr addr, AccessType type, Timing &timing, SiteId site,
                    Addr pointer_slot, std::uint32_t object_id);

    /**
     * Apply the cycle policy to a walk from @p word that ended in a
     * cycle or a corrupt word: quarantine it (returning the pin) or
     * throw.
     */
    Addr condemn(Addr word, const ChainWalk &w, SiteId site);

    /** The FTC entry for chain-start @p word, if it is still a tail. */
    const TranslationCache::Entry *ftcHit(Addr word);

    /**
     * Temporal-safety check at chain termination: trap if the final
     * word belongs to a quarantined object.  Callers guard on plane_.
     */
    void temporalCheck(Addr addr, Addr final_addr, unsigned hops,
                       AccessType type, Cycles t, SiteId site,
                       Addr pointer_slot, std::uint32_t object_id);

    TaggedMemory &mem_;
    MemoryHierarchy &hierarchy_;
    ForwardingConfig cfg_;
    ChainLimits limits_;
    ForwardingStats stats_;
    TrapRegistry traps_;
    FaultInjector *faults_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    const MetadataPlane *plane_ = nullptr;

    TranslationCache ftc_;
    unsigned collapse_suspend_ = 0;
    bool self_write_ = false; ///< the collapse rewrite is in flight

    /** Chain-start word -> pinned resolution address. */
    std::unordered_map<Addr, Addr> quarantined_;
};

/** RAII suspension of lazy chain collapsing over a scope. */
class ScopedCollapseSuspend
{
  public:
    explicit ScopedCollapseSuspend(ForwardingEngine &engine)
        : engine_(engine)
    {
        engine_.suspendCollapse();
    }

    ~ScopedCollapseSuspend() { engine_.resumeCollapse(); }

    ScopedCollapseSuspend(const ScopedCollapseSuspend &) = delete;
    ScopedCollapseSuspend &operator=(const ScopedCollapseSuspend &) = delete;

  private:
    ForwardingEngine &engine_;
};

} // namespace memfwd

#endif // MEMFWD_CORE_FORWARDING_ENGINE_HH
