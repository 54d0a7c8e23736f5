/**
 * @file
 * The forwarding dereference loop (Section 3.2), in one place.
 *
 * Every path that follows a forwarding chain runs walkChain(): the
 * engine's timed and functional walks, Machine::peek/poke, the
 * multiprocessor substrate, relocation's target chase, and the timed
 * software walk (chaseChain: Relocate()'s source chase, final-address
 * pointer comparison and the chain-aware free).  The loop
 * always validates each payload (a misaligned one can only be
 * corruption, and ends the walk), runs the hop counter, and on its
 * overflow runs the accurate check: a cycle ends the walk, a false
 * alarm resets the counter.  Once the
 * false alarms exceed `max_retries` (the exception-mode handler's
 * budget), the check has just proven the chain acyclic, so the walk
 * finishes it uncharged and unchecked and still ends at the real tail.
 *
 * The caller owns the cost and the policy.  @p hop is called with each
 * forwarding word read and may also provide `overflow()` (the check is
 * about to run) and `falseAlarm(n)` (the n-th check found no cycle).
 * walkChain() never throws; chainTail() applies the abort policy.
 */

#ifndef MEMFWD_CORE_CHAIN_WALK_HH
#define MEMFWD_CORE_CHAIN_WALK_HH

#include <cstdint>

#include "common/types.hh"
#include "core/cycle_check.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

/** The architectural bounds of one walk. */
struct ChainLimits
{
    unsigned hop_limit = 16;    ///< hops before the accurate check
    unsigned max_retries = ~0u; ///< false alarms before charging stops
};

enum class ChainEnd : std::uint8_t
{
    tail,    ///< reached a word whose forwarding bit is clear
    corrupt, ///< a forwarding word holds a misaligned payload
    cycle    ///< the accurate check proved the chain cyclic
};

struct ChainWalk
{
    ChainEnd end = ChainEnd::tail;
    Addr word = 0;             ///< the tail, or the corrupt forwarding word
    unsigned hops = 0;
    unsigned false_alarms = 0; ///< accurate checks that found no cycle
    Word payload = 0;          ///< corrupt: the misaligned payload
    CycleCheckResult check{};  ///< cycle: the proving check
};

/** Walk the chain starting at word-aligned @p word. */
template <class Hop>
ChainWalk
walkChain(const TaggedMemory &mem, Addr word, const ChainLimits &limits,
          Hop &&hop)
{
    ChainWalk w;
    w.word = word;
    unsigned counter = 0;
    unsigned hop_limit = limits.hop_limit;
    bool charged = true;
    while (mem.fbit(w.word)) {
        if (charged)
            hop(w.word);
        const Word payload = mem.rawReadWord(w.word);
        if (!isWordAligned(payload)) {
            w.end = ChainEnd::corrupt;
            w.payload = payload;
            return w;
        }
        w.word = wordAlign(payload);
        ++w.hops;
        if (++counter <= hop_limit)
            continue;
        counter = 0;
        if constexpr (requires { hop.overflow(); })
            hop.overflow();
        w.check = accurateCycleCheck(mem, word);
        if (w.check.is_cycle) {
            w.end = ChainEnd::cycle;
            return w;
        }
        ++w.false_alarms;
        if constexpr (requires { hop.falseAlarm(1u); })
            hop.falseAlarm(w.false_alarms);
        if (w.false_alarms > limits.max_retries) {
            charged = false;
            hop_limit = ~0u;
        }
    }
    return w;
}

/**
 * walkChain() under the abort policy: the tail word.
 *
 * @throws ForwardingCycleError on a cycle.
 * @throws ForwardingIntegrityError on a corrupt forwarding word.
 */
template <class Hop>
Addr
chainTail(const TaggedMemory &mem, Addr word, const ChainLimits &limits,
          Hop &&hop)
{
    const ChainWalk w = walkChain(mem, word, limits, hop);
    if (w.end == ChainEnd::cycle)
        throw ForwardingCycleError(word, w.check.length);
    if (w.end == ChainEnd::corrupt)
        throw ForwardingIntegrityError(w.word, w.payload, no_site);
    return w.word;
}

} // namespace memfwd

#endif // MEMFWD_CORE_CHAIN_WALK_HH
