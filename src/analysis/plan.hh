/**
 * @file
 * The RelocationPlan IR: a declarative description of a layout pass.
 *
 * Every layout optimizer (list linearization, subtree clustering, data
 * coloring, the compacting collector) describes what it is *about* to
 * do — the ordered word moves, the pointer slots it has promised to
 * rewrite (the declared root set), and its aliasing assumption — as a
 * RelocationPlan, *before* any memory is touched.  The PlanAnalyzer
 * (analysis/analyzer.hh) then proves the plan safe, or rejects it with
 * typed diagnostics, turning what used to be a comment-level safety
 * argument into a machine-checked one.
 *
 * The IR also carries the optimizer's post-relocation *access sites*:
 * raw Unforwarded_Read/Unforwarded_Write accesses it intends to issue
 * once the moves are done.  The analyzer classifies each site as
 * `safe_unforwarded` (provably never observes a live forwarding word)
 * or `must_forward`; the runtime may use the raw ISA fast path only at
 * approved sites (docs/ANALYSIS.md documents the legality contract).
 */

#ifndef MEMFWD_ANALYSIS_PLAN_HH
#define MEMFWD_ANALYSIS_PLAN_HH

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "core/traps.hh"
#include "obs/json.hh"

namespace memfwd
{

/** Severity of one plan diagnostic. */
enum class Severity
{
    note,
    warning,
    error
};

const char *severityName(Severity severity);

/**
 * Stable diagnostic codes (documented in docs/ANALYSIS.md; tests assert
 * them by value, so codes are append-only).
 */
enum class DiagCode
{
    E001_move_self_overlap,   ///< a move's src and dst ranges intersect
    E002_dest_clobbers_chain, ///< dst overlaps an earlier move's src range
    E003_dest_removed,        ///< src overlaps an earlier move's dst range
    E004_forwarding_cycle,    ///< planned forwarding graph has a cycle
    E005_incomplete_roots,    ///< moved range not covered by the root set
    E006_unforwarded_unsafe,  ///< claimed-safe site not provable
    E007_misaligned_move,     ///< move endpoints not word-aligned
    W101_duplicate_source,    ///< same source words moved twice (chain append)
    W102_empty_plan,          ///< plan declares no moves
    W103_root_outside_plan,   ///< root slot points at nothing the plan moves
    N201_site_demoted,        ///< access site classified must_forward
    // E101-E104 and W201-W202 are retired: never reuse those names.
};

/** The stable "E001"-style code string. */
const char *diagCodeName(DiagCode code);

/** The severity class a code belongs to (E -> error, W -> warning). */
Severity diagCodeSeverity(DiagCode code);

/** Index value meaning "not attached to a move/site". */
inline constexpr std::size_t no_plan_index = ~std::size_t(0);

/** One analyzer finding, locatable within the plan. */
struct Diagnostic
{
    DiagCode code;
    Severity severity;
    std::size_t move_index = no_plan_index; ///< offending move, if any
    std::size_t site_index = no_plan_index; ///< offending access site, if any
    std::string message;

    obs::Json toJson() const;
};

/** One ordered relocation: n_words words copied from src to dst. */
struct PlanMove
{
    Addr src = 0;
    Addr dst = 0;
    unsigned n_words = 0;

    Addr srcEnd() const { return src + Addr(n_words) * wordBytes; }
    Addr dstEnd() const { return dst + Addr(n_words) * wordBytes; }
};

/**
 * What the optimizer asserts about pointers into the moved ranges.
 *
 *  - `roots_complete`  — every live pointer into a moved range lives in
 *    a declared root slot and will be rewritten; nothing outside the
 *    root set references the moved data (the classical GC contract).
 *  - `stale_pointers_possible` — arbitrary undeclared pointers may
 *    survive and will be served by forwarding (the paper's default
 *    memory-forwarding contract).  Unforwarded access to *source*
 *    ranges can then never be proven safe.
 */
enum class AliasAssumption
{
    roots_complete,
    stale_pointers_possible
};

/**
 * A declared root: @p slot is the address of a pointer word the
 * optimizer will rewrite; @p points_to is the old address it currently
 * holds (the object being moved).
 */
struct RootDecl
{
    Addr slot = 0;
    Addr points_to = 0;
};

/** What an access site intends to do after the moves complete. */
enum class AccessIntent
{
    unforwarded_read,
    unforwarded_write,
    forwarded ///< ordinary load/store; always legal
};

const char *accessIntentName(AccessIntent intent);

/** One post-relocation static access site. */
struct AccessSite
{
    SiteId site = no_site; ///< token the runtime presents to the gate
    Addr base = 0;
    Addr bytes = 0;
    AccessIntent intent = AccessIntent::forwarded;

    Addr end() const { return base + bytes; }
};

/** The analyzer's verdict for one access site. */
enum class SiteVerdict
{
    safe_unforwarded, ///< proven: no live forwarding word observable
    must_forward      ///< not provable; must use the forwarded path
};

const char *siteVerdictName(SiteVerdict verdict);

/** A declarative layout pass: ordered moves + roots + access sites. */
class RelocationPlan
{
  public:
    explicit RelocationPlan(std::string optimizer = "unnamed")
        : optimizer_(std::move(optimizer))
    {
    }

    // ----- builder (each returns *this for chaining) -------------------

    RelocationPlan &
    move(Addr src, Addr dst, unsigned n_words)
    {
        moves_.push_back({src, dst, n_words});
        return *this;
    }

    RelocationPlan &
    root(Addr slot, Addr points_to)
    {
        roots_.push_back({slot, points_to});
        return *this;
    }

    RelocationPlan &
    assume(AliasAssumption assumption)
    {
        assumption_ = assumption;
        return *this;
    }

    RelocationPlan &
    access(SiteId site, Addr base, Addr bytes, AccessIntent intent)
    {
        sites_.push_back({site, base, bytes, intent});
        return *this;
    }

    // ----- reading -----------------------------------------------------

    const std::string &optimizer() const { return optimizer_; }
    const std::vector<PlanMove> &moves() const { return moves_; }
    const std::vector<RootDecl> &roots() const { return roots_; }
    const std::vector<AccessSite> &sites() const { return sites_; }
    AliasAssumption assumption() const { return assumption_; }

    /** Total words the plan relocates. */
    std::uint64_t totalWords() const;

  private:
    std::string optimizer_;
    std::vector<PlanMove> moves_;
    std::vector<RootDecl> roots_;
    std::vector<AccessSite> sites_;
    AliasAssumption assumption_ = AliasAssumption::stale_pointers_possible;
};

/**
 * The planned forwarding graph: keys are words that will hold live
 * forwarding words once the moves have executed, values the word each
 * forwards to.  Resolution is path-compressed; the compression rewrites
 * only values (resolution shortcuts), never the key set, which the
 * analyzer's clobber and site checks depend on.
 */
using PlannedGraph = std::unordered_map<Addr, Addr>;

/** Outcome of planForward(). */
struct PlannedForward
{
    Addr tail;         ///< where the forwarding word is planted
    bool closes_cycle; ///< the edge was refused: it would close a loop
};

/**
 * Plan moving the word at @p src to @p dst with relocate()'s
 * chain-append semantics: the forwarding word is planted at the *tail*
 * of @p src's existing chain and points at @p dst.  A tail that already
 * resolves to the word @p dst resolves to means the edge would close a
 * loop whose chain never terminates; the graph then stays acyclic and
 * unchanged apart from path compression.
 */
PlannedForward planForward(PlannedGraph &graph, Addr src, Addr dst);

} // namespace memfwd

#endif // MEMFWD_ANALYSIS_PLAN_HH
