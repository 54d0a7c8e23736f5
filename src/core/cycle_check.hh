/**
 * @file
 * Accurate forwarding-cycle detection (Section 3.2, "Handling
 * Forwarding Cycles").
 *
 * During normal execution the hardware only keeps a cheap hop counter;
 * when the counter exceeds its limit an exception fires and this
 * software check walks the chain precisely, remembering every address
 * it visits.  Either the chain terminates (a false alarm — the counter
 * is reset and execution resumes) or an address repeats (a true cycle).
 * What happens then is the engine's cycle *policy* (abort, trap, or
 * quarantine — see core/forwarding_engine.hh); to support the recovery
 * policies the check also reports where the cycle was entered and the
 * last address visited before it, the natural point to pin a
 * quarantined reference at.
 */

#ifndef MEMFWD_CORE_CYCLE_CHECK_HH
#define MEMFWD_CORE_CYCLE_CHECK_HH

#include <stdexcept>

#include "common/types.hh"
#include "core/traps.hh"

namespace memfwd
{

class TaggedMemory;

/**
 * Thrown when software erroneously created a forwarding cycle and the
 * active policy is to abort.  Carries the decision context the handler
 * had: chain start, length walked, the static reference site, and the
 * policy that chose to throw.
 */
class ForwardingCycleError : public std::runtime_error
{
  public:
    ForwardingCycleError(Addr start, unsigned length,
                         SiteId site = no_site,
                         const char *policy = "abort");

    Addr start() const { return start_; }
    unsigned length() const { return length_; }
    SiteId site() const { return site_; }
    const std::string &policy() const { return policy_; }

  private:
    Addr start_;
    unsigned length_;
    SiteId site_;
    std::string policy_;
};

/**
 * Thrown when a forwarding word's payload proves it was corrupted (a
 * misaligned target) and the active policy is to abort.
 */
class ForwardingIntegrityError : public std::runtime_error
{
  public:
    ForwardingIntegrityError(Addr word, Word payload, SiteId site);

    Addr word() const { return word_; }
    Word payload() const { return payload_; }
    SiteId site() const { return site_; }

  private:
    Addr word_;
    Word payload_;
    SiteId site_;
};

/** Outcome of the accurate check. */
struct CycleCheckResult
{
    bool is_cycle;    ///< true if an address repeats along the chain
    unsigned length;  ///< chain length walked (hops until repeat or end)

    /**
     * First repeated address — where the walk re-entered the loop.
     * Meaningful only when is_cycle.
     */
    Addr cycle_entry = 0;

    /**
     * Last address visited before the cycle entry on the first pass
     * (the chain start itself if the whole chain is the loop).  This is
     * where the quarantine policy pins a reference.  Meaningful only
     * when is_cycle.
     */
    Addr pre_cycle = 0;
};

/**
 * Precisely walk the forwarding chain starting at the word containing
 * @p addr.  Pure functional check — no timing, no cache effects (the
 * engine charges a fixed software cost for invoking it).  A misaligned
 * payload ends the check without a cycle: rounding it to a word could
 * fake one, and the corruption is the walk's to report.
 */
CycleCheckResult accurateCycleCheck(const TaggedMemory &mem, Addr addr);

} // namespace memfwd

#endif // MEMFWD_CORE_CYCLE_CHECK_HH
