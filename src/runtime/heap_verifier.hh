/**
 * @file
 * Offline heap-integrity auditing for the forwarding runtime.
 *
 * The forwarding invariants the paper's safety argument rests on are
 * simple to state: every forwarding word's payload is a word-aligned
 * address of a materialized word, every chain terminates, and no chain
 * revisits an address.  The HeapVerifier sweeps a TaggedMemory and
 * checks all of them, producing a structured AuditReport:
 *
 *  - per-chain length / termination / final address for every chain
 *    head (a forwarding word no other forwarding word points at);
 *  - cyclic chains (detected with the same accurate check the
 *    hop-limit exception runs) and *orphan* cycles — forwarding words
 *    unreachable from any head, which can only exist inside a loop;
 *  - dangling targets: forwarding words whose target page was never
 *    materialized (legitimate relocation always writes the target
 *    first, so an unmapped target proves corruption);
 *  - forwarding-bit/payload inconsistencies: a set bit over a
 *    misaligned or null payload.
 *
 * The audit is purely functional — no timing, no cache effects — and
 * is meant to run between phases or after a workload, the way a fsck
 * runs on an unmounted filesystem.  Counters export through metrics()
 * (memfwd_sim --audit --json writes them under "audit").
 */

#ifndef MEMFWD_RUNTIME_HEAP_VERIFIER_HH
#define MEMFWD_RUNTIME_HEAP_VERIFIER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace memfwd
{

class TaggedMemory;

/** Summary of one forwarding chain, walked from its head. */
struct AuditChain
{
    Addr head;         ///< first word of the chain (nothing forwards here)
    unsigned length;   ///< forwarding hops walked before stopping
    bool cyclic;       ///< true if an address repeated along the walk
    Addr final_addr;   ///< terminal word (or the repeated word if cyclic)
    bool quarantined = false; ///< terminal word is tagged quarantined
};

/** Everything one audit learned. */
struct AuditReport
{
    std::uint64_t pages_scanned = 0; ///< materialized 256-byte granules
    std::uint64_t words_scanned = 0; ///< words in those granules
    std::uint64_t fbits_set = 0;

    std::vector<AuditChain> chains;      ///< one entry per chain head
    std::uint64_t max_chain_length = 0;
    std::uint64_t total_hops = 0;        ///< sum of chain lengths

    std::vector<Addr> quarantined_chains; ///< heads ending in quarantine
    std::vector<Addr> cyclic_chains;      ///< heads of cyclic chains
    std::vector<Addr> orphan_cycle_words; ///< forwarded words off any head
    std::vector<Addr> dangling_targets;   ///< fwd words -> unmapped granules
    std::vector<Addr> misaligned_targets; ///< fbit set, payload unaligned
    std::vector<Addr> null_targets;       ///< fbit set, payload == 0

    // Quarantined chains are *expected* state — a quarantining
    // allocator's free() leaves exactly such a chain behind on purpose
    // — so they are reported separately and never counted as
    // inconsistencies.

    /** Total forwarding-state violations found. */
    std::uint64_t
    inconsistencies() const
    {
        return cyclic_chains.size() + orphan_cycle_words.size() +
               dangling_targets.size() + misaligned_targets.size() +
               null_targets.size();
    }

    /** True if the heap satisfies every forwarding invariant. */
    bool clean() const { return inconsistencies() == 0; }

    /** Add the audit's counters and chain-length distribution to @p into. */
    void fillMetrics(obs::MetricsNode &into) const;

    obs::MetricsNode
    metrics() const
    {
        obs::MetricsNode n;
        fillMetrics(n);
        return n;
    }

    /** Human-readable dump (one line per violation, plus totals). */
    void dump(std::ostream &os) const;
};

/** Sweeps a TaggedMemory and audits every forwarding chain. */
class HeapVerifier
{
  public:
    explicit HeapVerifier(const TaggedMemory &mem) : mem_(mem) {}

    /** Audit all materialized memory. */
    AuditReport audit() const;

  private:
    const TaggedMemory &mem_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_HEAP_VERIFIER_HH
