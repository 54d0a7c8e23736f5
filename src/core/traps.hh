/**
 * @file
 * User-level traps upon forwarding (Section 3.2, "Providing User-Level
 * Traps Upon Forwarding").
 *
 * The paper proposes a lightweight trap, in the spirit of informing
 * memory operations, that fires whenever a reference dereferences a
 * forwarded location.  Two uses are called out and both are supported
 * here:
 *
 *  1. a *profiling tool* that records which static reference sites
 *     experience forwarding, so a future run can eliminate it;
 *  2. an *on-the-fly fixup* handler that rewrites the stray pointer to
 *     point directly at the object's final address (this requires
 *     application knowledge: the workload supplies the address of the
 *     memory word that held the stale pointer).
 */

#ifndef MEMFWD_CORE_TRAPS_HH
#define MEMFWD_CORE_TRAPS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.hh"

namespace memfwd
{

/** Identifies a static reference site in a workload (like a PC). */
using SiteId = std::uint32_t;

/** Site id meaning "no site information supplied". */
constexpr SiteId no_site = 0;

/**
 * Why a trap fired.  The paper's trap is purely a forwarding event;
 * the temporal-safety extension reuses the same delivery machinery to
 * report references that resolved into quarantined (freed) memory.
 */
enum class TrapKind : std::uint8_t
{
    Forwarding,        ///< reference dereferenced a forwarded location
    TemporalViolation  ///< reference resolved into a quarantined object
};

/** Everything a trap handler learns about one forwarded reference. */
struct TrapInfo
{
    SiteId site;        ///< static reference site, if the workload tags it
    Addr initial_addr;  ///< address the program used
    Addr final_addr;    ///< address the chain resolved to
    unsigned hops;      ///< forwarding hops taken
    /**
     * Address of the word that held the stale pointer the program
     * dereferenced, or 0 if unknown.  A fixup handler may rewrite it.
     */
    Addr pointer_slot;
    TrapKind kind = TrapKind::Forwarding; ///< why the trap fired
};

/** What the handler asks the machine to do after the trap. */
enum class TrapAction
{
    resume,        ///< nothing; continue
    pointer_fixed  ///< handler updated the stale pointer (for stats)
};

using TrapHandler = std::function<TrapAction(const TrapInfo &)>;

/** Registry of user-level forwarding trap handlers. */
class TrapRegistry
{
  public:
    /** Install @p handler; returns a token for removal. */
    std::uint64_t install(TrapHandler handler);

    /** Remove the handler registered under @p token. */
    void remove(std::uint64_t token);

    /** True if any handler is installed (the trap is armed). */
    bool armed() const { return !handlers_.empty(); }

    /**
     * Deliver a trap to every installed handler.  Returns true if any
     * handler reported fixing the stale pointer.
     */
    bool deliver(const TrapInfo &info);

    /** Traps delivered so far. */
    std::uint64_t delivered() const { return delivered_; }

    /** Traps after which some handler fixed the pointer. */
    std::uint64_t pointersFixed() const { return pointers_fixed_; }

  private:
    std::map<std::uint64_t, TrapHandler> handlers_;
    std::uint64_t next_token_ = 1;
    std::uint64_t delivered_ = 0;
    std::uint64_t pointers_fixed_ = 0;
};

/**
 * The profiling tool the paper sketches: counts forwarded references
 * per static site so the programmer can find and eliminate them.
 */
class ForwardingProfiler
{
  public:
    /** Install onto @p registry. */
    explicit ForwardingProfiler(TrapRegistry &registry);
    ~ForwardingProfiler();

    ForwardingProfiler(const ForwardingProfiler &) = delete;
    ForwardingProfiler &operator=(const ForwardingProfiler &) = delete;

    /** Forwarded-reference count for @p site. */
    std::uint64_t count(SiteId site) const;

    /** Total hops observed for @p site. */
    std::uint64_t hops(SiteId site) const;

    /** Sites sorted by descending forwarded-reference count. */
    std::vector<std::pair<SiteId, std::uint64_t>> hottest() const;

  private:
    struct SiteStats
    {
        std::uint64_t count = 0;
        std::uint64_t hops = 0;
    };

    TrapRegistry &registry_;
    std::uint64_t token_;
    std::map<SiteId, SiteStats> sites_;
};

} // namespace memfwd

#endif // MEMFWD_CORE_TRAPS_HH
