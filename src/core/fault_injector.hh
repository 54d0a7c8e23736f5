/**
 * @file
 * Deterministic fault injection for the forwarding runtime.
 *
 * The paper's safety argument is that relocation can never break a
 * running program.  This module lets us *attack* that argument on
 * purpose: a seedable injector that corrupts forwarding state (flip a
 * forwarding bit, truncate a chain, redirect a forwarding word into a
 * cycle) or fails the allocator on the Nth request, armed per-site so a
 * test or bench can target exactly one mechanism and observe how the
 * hardened paths (core/forwarding_engine cycle policies, the
 * transactional Relocate(), runtime/heap_verifier audits) detect and
 * recover.
 *
 * The injector never throws and never decides policy: trigger hooks
 * report "fire now" or silently corrupt memory; the instrumented
 * subsystem chooses how to fail.  Every firing is journaled with the
 * pre-corruption state, so a harness can repair the heap afterwards and
 * verify the repair with a HeapVerifier audit.
 *
 * Spec grammar (the `--faults=` flag of tools/memfwd_sim):
 *
 *   spec   := fault (';' fault)*
 *   fault  := kind '@' site [':' param (',' param)*]
 *   kind   := 'bitflip' | 'truncate' | 'cycle' | 'allocfail'
 *           | 'uaf' | 'oob'
 *   site   := 'resolve' | 'relocate' | 'alloc' | 'free'
 *   param  := 'nth=' N | 'count=' N | 'hop=' N
 *
 * e.g. `cycle@resolve:nth=100;allocfail@alloc:nth=5,count=2`.
 * `nth` = first eligible event that fires (default 1); `count` = number
 * of firings (default 1, 0 = every eligible event); `hop` = chain
 * position to corrupt (default 0 = chosen by the seeded RNG).
 */

#ifndef MEMFWD_CORE_FAULT_INJECTOR_HH
#define MEMFWD_CORE_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace memfwd
{

class TaggedMemory;

/** What the injector corrupts when it fires. */
enum class FaultKind
{
    bit_flip,   ///< forge a forwarding word: set the fbit of a chain's
                ///< terminal (data) word, making its payload a "target"
    truncate,   ///< clear the fbit of a mid-chain member
    cycle,      ///< redirect the last forwarding word back at the start
    alloc_fail, ///< report failure from the triggering allocation/step
    use_after_free, ///< marker: the triggering free()d object will be
                    ///< probed after death (spelled 'uaf' in specs)
    oob         ///< marker: the triggering alloc()'s object will be
                ///< probed past its end into an adjacent freed slot
};

/** Instrumented program point the fault is armed at. */
enum class FaultSite
{
    resolve,  ///< ForwardingEngine::resolve of a forwarded reference
    relocate, ///< one per-word step of Relocate()
    alloc,    ///< SimAllocator::alloc
    free      ///< QuarantineAllocator / SimAllocator free
};

const char *faultKindName(FaultKind kind);
const char *faultSiteName(FaultSite site);

/** One armed fault. */
struct FaultSpec
{
    FaultKind kind;
    FaultSite site;
    std::uint64_t nth = 1;   ///< first eligible event that fires
    std::uint64_t count = 1; ///< firings before disarming (0 = unlimited)
    unsigned hop = 0;        ///< chain position to corrupt (0 = random)
};

/** Journal entry for one firing, with undo state for repair(). */
struct FaultRecord
{
    FaultKind kind;
    FaultSite site;
    Addr addr;           ///< corrupted word (0 for alloc_fail/markers)
    std::uint64_t event; ///< eligible-event index that triggered it
    Word old_payload;    ///< pre-corruption payload of @p addr
    bool old_fbit;       ///< pre-corruption forwarding bit of @p addr
};

/** Seedable, per-site-armed fault injector. */
class FaultInjector
{
  public:
    explicit FaultInjector(std::uint64_t seed = 0x5eedfa17ULL);

    /** Arm one fault.  Chain kinds require a chain site (not alloc). */
    void arm(const FaultSpec &spec);

    /** Parse the spec grammar; throws std::invalid_argument on errors. */
    static std::vector<FaultSpec> parse(const std::string &spec);

    /** Parse @p spec and arm every fault in it. */
    void armSpec(const std::string &spec);

    /** True if any fault is armed at @p site. */
    bool armedAt(FaultSite site) const;

    // ----- trigger hooks (called from instrumented code) ---------------

    /**
     * Count one eligible event for every alloc_fail fault armed at
     * @p site; returns true if any of them fires (the caller should
     * fail the operation).
     */
    bool shouldFail(FaultSite site);

    /**
     * Count one eligible event for every *marker* fault (uaf, oob) of
     * @p kind armed at @p site; returns true if any fires.  Marker
     * faults never corrupt memory — they deterministically select which
     * frees/allocs of a workload become injected bugs, and the harness
     * performs the buggy access itself.
     */
    bool triggers(FaultSite site, FaultKind kind);

    /**
     * Count one eligible event for every chain-corruption fault armed
     * at @p site and apply the ones that fire to the forwarding chain
     * starting at @p chain_start in @p mem.
     */
    void corruptChain(TaggedMemory &mem, Addr chain_start, FaultSite site);

    // ----- corruption primitives (also usable directly by tests) -------

    /** Set the fbit of the chain's terminal word (forged forward). */
    Addr injectBitFlip(TaggedMemory &mem, Addr chain_start,
                       FaultSite site = FaultSite::resolve);

    /** Clear the fbit of a mid-chain member (@p hop 0 = random). */
    Addr injectTruncation(TaggedMemory &mem, Addr chain_start,
                          unsigned hop = 0,
                          FaultSite site = FaultSite::resolve);

    /** Point the last forwarding word back at the chain start. */
    Addr injectCycle(TaggedMemory &mem, Addr chain_start,
                     FaultSite site = FaultSite::resolve);

    // ----- accounting ---------------------------------------------------

    /** Every firing not yet repaired, in order, with undo state. */
    const std::vector<FaultRecord> &log() const { return log_; }

    /** Total faults ever fired (not reset by repair()). */
    std::uint64_t fired() const { return fired_; }

    /**
     * Undo every journaled corruption (newest first), restoring the
     * exact pre-fault payload and forwarding bit.  alloc_fail records
     * have no memory effect and are skipped.  Clears the log.
     */
    void repair(TaggedMemory &mem);

  private:
    /**
     * The words of the chain from @p start, in walk order: every
     * forwarding word, then the tail.  A chain that ends in a corrupt
     * word ends with it (that word plays the tail's part), and a cyclic
     * one stops before its first repeated word.
     */
    static std::vector<Addr> chainMembers(const TaggedMemory &mem,
                                          Addr start);

    void record(FaultKind kind, FaultSite site, Addr addr,
                std::uint64_t event, Word old_payload, bool old_fbit);

    struct Armed
    {
        FaultSpec spec;
        std::uint64_t events = 0; ///< eligible events seen at the site
        std::uint64_t fires = 0;  ///< times this fault has fired
    };

    bool due(Armed &a);

    std::vector<Armed> armed_;
    Rng rng_;
    std::vector<FaultRecord> log_;
    std::uint64_t fired_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_CORE_FAULT_INJECTOR_HH
