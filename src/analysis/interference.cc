#include "analysis/interference.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

namespace
{

/** Half-open byte interval. */
struct Range
{
    Addr begin = 0;
    Addr end = 0;
};

/** Sorted, merged interval list for one plan's sources or destinations. */
std::vector<Range>
mergedRanges(const RelocationPlan &plan, bool sources)
{
    std::vector<Range> ranges;
    ranges.reserve(plan.moves().size());
    for (const PlanMove &m : plan.moves()) {
        if (m.n_words == 0)
            continue;
        if (sources)
            ranges.push_back({m.src, m.srcEnd()});
        else
            ranges.push_back({m.dst, m.dstEnd()});
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const Range &x, const Range &y) {
                  return x.begin < y.begin;
              });
    std::vector<Range> merged;
    for (const Range &r : ranges) {
        if (!merged.empty() && r.begin <= merged.back().end)
            merged.back().end = std::max(merged.back().end, r.end);
        else
            merged.push_back(r);
    }
    return merged;
}

/** First overlapping byte of two sorted merged lists, or no overlap. */
bool
firstOverlap(const std::vector<Range> &a, const std::vector<Range> &b,
             Addr &where)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Addr lo = std::max(a[i].begin, b[j].begin);
        const Addr hi = std::min(a[i].end, b[j].end);
        if (lo < hi) {
            where = lo;
            return true;
        }
        if (a[i].end < b[j].end)
            ++i;
        else
            ++j;
    }
    return false;
}

bool
overlapsAny(Addr begin, Addr end, const std::vector<Range> &ranges)
{
    for (const Range &r : ranges)
        if (begin < r.end && r.begin < end)
            return true;
    return false;
}

/**
 * Apply @p plan's moves to the composed forwarding graph with
 * relocate()'s chain-append semantics; true if some move closes a
 * cycle.  Misaligned or empty moves are skipped (single-plan defects).
 */
bool
applyMoves(const RelocationPlan &plan, PlannedGraph &graph, Addr &cycle_word)
{
    for (const PlanMove &m : plan.moves()) {
        if (!isWordAligned(m.src) || !isWordAligned(m.dst))
            continue;
        for (unsigned k = 0; k < m.n_words; ++k) {
            const Addr s = m.src + Addr(k) * wordBytes;
            const Addr d = m.dst + Addr(k) * wordBytes;
            const PlannedForward f = planForward(graph, s, d);
            if (f.closes_cycle) {
                cycle_word = f.tail;
                return true;
            }
        }
    }
    return false;
}

/** True if the composed plans' forwarding graph has a cycle. */
bool
composedCycle(const RelocationPlan &a, const RelocationPlan &b,
              Addr &cycle_word)
{
    PlannedGraph graph;
    return applyMoves(a, graph, cycle_word) ||
           applyMoves(b, graph, cycle_word);
}

std::string
optName(const RelocationPlan &p, std::size_t idx)
{
    return "plan " + std::to_string(idx) + " ('" + p.optimizer() + "')";
}

} // namespace

const char *
interferenceVerdictName(InterferenceVerdict verdict)
{
    switch (verdict) {
      case InterferenceVerdict::commute:
        return "commute";
      case InterferenceVerdict::ordered:
        return "ordered";
      case InterferenceVerdict::conflict:
        return "conflict";
    }
    return "?";
}

bool
PairFinding::hasCode(DiagCode code) const
{
    for (const Diagnostic &d : diags)
        if (d.code == code)
            return true;
    return false;
}

obs::Json
PairFinding::toJson() const
{
    obs::Json j = obs::Json::object();
    j["a"] = obs::Json::number(a);
    j["b"] = obs::Json::number(b);
    j["verdict"] = obs::Json::string(interferenceVerdictName(verdict));
    if (verdict == InterferenceVerdict::ordered) {
        j["first"] = obs::Json::number(first);
        j["second"] = obs::Json::number(second);
    }
    obs::Json jd = obs::Json::array();
    for (const Diagnostic &d : diags)
        jd.push(d.toJson());
    j["diagnostics"] = std::move(jd);
    return j;
}

const PairFinding *
InterferenceReport::pair(std::size_t a, std::size_t b) const
{
    if (a > b)
        std::swap(a, b);
    for (const PairFinding &f : pairs_)
        if (f.a == a && f.b == b)
            return &f;
    return nullptr;
}

std::size_t
InterferenceReport::count(InterferenceVerdict verdict) const
{
    std::size_t n = 0;
    for (const PairFinding &f : pairs_)
        if (f.verdict == verdict)
            ++n;
    return n;
}

obs::Json
InterferenceReport::toJson() const
{
    obs::Json j = obs::Json::object();
    j["plans"] = obs::Json::number(plans_);
    j["commute"] = obs::Json::number(count(InterferenceVerdict::commute));
    j["ordered"] = obs::Json::number(count(InterferenceVerdict::ordered));
    j["conflict"] =
        obs::Json::number(count(InterferenceVerdict::conflict));
    obs::Json jp = obs::Json::array();
    for (const PairFinding &f : pairs_)
        jp.push(f.toJson());
    j["pairs"] = std::move(jp);
    obs::Json js = obs::Json::array();
    for (const Diagnostic &d : site_diags_)
        js.push(d.toJson());
    j["site_diagnostics"] = std::move(js);
    return j;
}

PairFinding
InterferenceAnalyzer::analyzePair(const RelocationPlan &plan_a,
                                  const RelocationPlan &plan_b,
                                  std::size_t a, std::size_t b) const
{
    PairFinding out;
    out.a = a;
    out.b = b;

    auto diag = [&](DiagCode code, std::string message) {
        out.diags.push_back({code, diagCodeSeverity(code), no_plan_index,
                             no_plan_index, std::move(message)});
    };

    const std::vector<Range> src_a = mergedRanges(plan_a, true);
    const std::vector<Range> dst_a = mergedRanges(plan_a, false);
    const std::vector<Range> src_b = mergedRanges(plan_b, true);
    const std::vector<Range> dst_b = mergedRanges(plan_b, false);

    Addr where = 0;

    // Shared chain heads: both plans chase the same source words and
    // append their own target at whatever tail they find — with the two
    // appends racing, one plan's relocated copy ends up mid-chain and
    // the final resolution depends on commit order word by word.
    if (firstOverlap(src_a, src_b, where)) {
        diag(DiagCode::E101_shared_move_source,
             strfmt("%s and %s both relocate source word %#llx: "
                    "concurrent chain appends to the same head race",
                    optName(plan_a, a).c_str(),
                    optName(plan_b, b).c_str(),
                    static_cast<unsigned long long>(where)));
    }

    // Shared destinations: both plans park payload in the same words;
    // whichever copy lands second silently overwrites the first and the
    // loser's forwarding chain resolves to the winner's data.
    if (firstOverlap(dst_a, dst_b, where)) {
        diag(DiagCode::E102_shared_move_dest,
             strfmt("%s and %s both relocate into destination word "
                    "%#llx: the second copy overwrites the first",
                    optName(plan_a, a).c_str(),
                    optName(plan_b, b).c_str(),
                    static_cast<unsigned long long>(where)));
    }

    // Destination drains: B moves words A is parking data in.  Running
    // A first, B relocates A's final home and the composed chains stay
    // coherent; running B first, B copies the *stale* contents and A's
    // later copy lands past B's forwarding words — different heap.  The
    // pair is safe only in the drained-last order.
    bool a_first = false, b_first = false;
    if (firstOverlap(dst_a, src_b, where)) {
        a_first = true;
        diag(DiagCode::W201_ordered_dest_drain,
             strfmt("%s relocates word %#llx out of %s's destination "
                    "range: safe only if the destination is fully "
                    "written first",
                    optName(plan_b, b).c_str(),
                    static_cast<unsigned long long>(where),
                    optName(plan_a, a).c_str()));
    }
    if (firstOverlap(dst_b, src_a, where)) {
        b_first = true;
        diag(DiagCode::W201_ordered_dest_drain,
             strfmt("%s relocates word %#llx out of %s's destination "
                    "range: safe only if the destination is fully "
                    "written first",
                    optName(plan_a, a).c_str(),
                    static_cast<unsigned long long>(where),
                    optName(plan_b, b).c_str()));
    }

    bool cycle_reported = false;
    if (a_first && b_first) {
        // Each plan must commit before the other begins: the ordering
        // constraints themselves form a cycle, so no serialization is
        // admissible.
        cycle_reported = true;
        diag(DiagCode::E103_composed_cycle,
             strfmt("%s and %s each drain the other's destination: the "
                    "required happens-before edges form a cycle",
                    optName(plan_a, a).c_str(),
                    optName(plan_b, b).c_str()));
    }

    // Composed forwarding-graph cycle: each plan alone is acyclic
    // (E004 is the single-plan analyzer's check) but the union of their
    // planned chains, chain-append applied, can still loop.
    Addr cycle_word = 0;
    if (!cycle_reported && composedCycle(plan_a, plan_b, cycle_word)) {
        diag(DiagCode::E103_composed_cycle,
             strfmt("composing %s and %s closes a forwarding cycle "
                    "through %#llx that neither plan contains alone",
                    optName(plan_a, a).c_str(),
                    optName(plan_b, b).c_str(),
                    static_cast<unsigned long long>(cycle_word)));
    }

    // Cross-plan site invalidation: a raw access site one plan declared
    // (and its own analysis may have proven) ranges over words the
    // other plan moves — the other plan plants forwarding words or
    // rewrites payload there while the raw access runs, so the
    // single-plan proof does not survive composition.
    auto check_sites = [&](const RelocationPlan &p, std::size_t pi,
                           const RelocationPlan &q, std::size_t qi,
                           const std::vector<Range> &q_src,
                           const std::vector<Range> &q_dst) {
        for (const AccessSite &s : p.sites()) {
            if (s.intent == AccessIntent::forwarded || s.bytes == 0)
                continue;
            if (overlapsAny(s.base, s.end(), q_src) ||
                overlapsAny(s.base, s.end(), q_dst)) {
                diag(DiagCode::E104_site_invalidated,
                     strfmt("%s's %s site over [%#llx,%#llx) overlaps "
                            "%s's move ranges: the static raw-access "
                            "proof does not survive composition",
                            optName(p, pi).c_str(),
                            accessIntentName(s.intent),
                            static_cast<unsigned long long>(s.base),
                            static_cast<unsigned long long>(s.end()),
                            optName(q, qi).c_str()));
            }
        }
    };
    check_sites(plan_a, a, plan_b, b, src_b, dst_b);
    check_sites(plan_b, b, plan_a, a, src_a, dst_a);

    // Shared root slots: both plans rewrite the same pointer word, so
    // the slot's final value is whichever runs second — admissible, but
    // only as a fixed serialization (submission order by convention).
    for (const RootDecl &ra : plan_a.roots()) {
        bool found = false;
        for (const RootDecl &rb : plan_b.roots()) {
            if (ra.slot == rb.slot) {
                found = true;
                break;
            }
        }
        if (found) {
            diag(DiagCode::W202_shared_root_slot,
                 strfmt("%s and %s both rewrite root slot %#llx: the "
                        "last writer decides where it points",
                        optName(plan_a, a).c_str(),
                        optName(plan_b, b).c_str(),
                        static_cast<unsigned long long>(ra.slot)));
            break; // one finding names the hazard; slots are fungible
        }
    }

    // ----- verdict -----------------------------------------------------
    bool any_error = false, any_warning = false;
    for (const Diagnostic &d : out.diags) {
        any_error = any_error || d.severity == Severity::error;
        any_warning = any_warning || d.severity == Severity::warning;
    }
    if (any_error) {
        out.verdict = InterferenceVerdict::conflict;
    } else if (any_warning) {
        out.verdict = InterferenceVerdict::ordered;
        // W201 dictates the edge; a pure W202 pair defaults to
        // submission order (a then b).
        out.first = b_first ? b : a;
        out.second = b_first ? a : b;
    } else {
        out.verdict = InterferenceVerdict::commute;
    }
    return out;
}

InterferenceReport
InterferenceAnalyzer::analyze(
    const std::vector<RelocationPlan> &plans,
    const std::vector<AccessSite> &concurrent_sites) const
{
    InterferenceReport report;
    report.plans_ = plans.size();
    for (std::size_t i = 0; i < plans.size(); ++i)
        for (std::size_t j = i + 1; j < plans.size(); ++j)
            report.pairs_.push_back(
                analyzePair(plans[i], plans[j], i, j));

    // Ambient concurrent accesses vs every plan: a raw site running
    // beside the whole set must not touch anything any plan moves.
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const std::vector<Range> src = mergedRanges(plans[i], true);
        const std::vector<Range> dst = mergedRanges(plans[i], false);
        for (const AccessSite &s : concurrent_sites) {
            if (s.intent == AccessIntent::forwarded || s.bytes == 0)
                continue;
            if (overlapsAny(s.base, s.end(), src) ||
                overlapsAny(s.base, s.end(), dst)) {
                report.site_diags_.push_back(
                    {DiagCode::E104_site_invalidated,
                     Severity::error, no_plan_index, no_plan_index,
                     strfmt("concurrent %s site over [%#llx,%#llx) "
                            "overlaps %s's move ranges",
                            accessIntentName(s.intent),
                            static_cast<unsigned long long>(s.base),
                            static_cast<unsigned long long>(s.end()),
                            optName(plans[i], i).c_str())});
            }
        }
    }
    return report;
}

} // namespace memfwd
