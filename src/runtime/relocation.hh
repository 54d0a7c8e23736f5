/**
 * @file
 * The Relocate() procedure of Figure 4(a).
 *
 * Relocates an object of n words from src to tgt: for every word, the
 * forwarding chain starting at the source word is first chased to its
 * end (so that tgt is *appended* to any existing chain), the payload is
 * copied to the target, and the chain tail is atomically turned into a
 * forwarding address pointing at the target word.
 *
 * Every step is issued through the Machine's timed operations, so the
 * full relocation overhead the paper accounts for (Section 2.3) appears
 * in the results.
 *
 * Relocation is *transactional*: the words each step mutates are
 * journaled before the mutation, and if any step throws (a forwarding
 * cycle, an injected fault, an allocation failure raised by a fault
 * hook) the journal is rolled back in reverse before the exception
 * propagates.  A half-relocated object is never visible — the heap is
 * either fully forwarded or bit-identical to its pre-call state.
 */

#ifndef MEMFWD_RUNTIME_RELOCATION_HH
#define MEMFWD_RUNTIME_RELOCATION_HH

#include "common/types.hh"

namespace memfwd
{

class Machine;

/**
 * Relocate @p n_words words from @p src to @p tgt on @p machine, then
 * forward @p src (or the tail of its existing chain) to @p tgt.
 * Both addresses must be word-aligned.
 *
 * @throws ForwardingCycleError or ForwardingIntegrityError if a source
 *         chain is cyclic or corrupt; AllocFailure if a relocate-site
 *         fault injector fires.  On any throw the heap has been rolled
 *         back to its pre-call contents.
 */
void relocate(Machine &machine, Addr src, Addr tgt, unsigned n_words);

/**
 * Chase the forwarding chain of the word containing @p addr using the
 * ISA extensions (Read_FBit + Unforwarded_Read) and return the final
 * address, preserving the byte offset.  This is the software
 * final-address lookup used for pointer comparisons, by Relocate() and
 * by the chain-aware SimAllocator::free(): chainTail(), every hop timed.
 *
 * @throws ForwardingCycleError if the chain is cyclic, and
 *         ForwardingIntegrityError if it holds a misaligned payload.
 */
Addr chaseChain(Machine &machine, Addr addr);

} // namespace memfwd

#endif // MEMFWD_RUNTIME_RELOCATION_HH
