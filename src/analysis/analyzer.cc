#include "analysis/analyzer.hh"

#include <unordered_map>

#include "common/logging.hh"

namespace memfwd
{

namespace
{

/** Half-open byte-range intersection test. */
bool
rangesOverlap(Addr a, Addr a_end, Addr b, Addr b_end)
{
    return a < b_end && b < a_end;
}

} // namespace

std::size_t
AnalysisReport::bySeverity(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags_)
        if (d.severity == severity)
            ++n;
    return n;
}

std::size_t
AnalysisReport::provenSites() const
{
    std::size_t n = 0;
    for (const SiteReport &s : sites_)
        if (s.verdict == SiteVerdict::safe_unforwarded)
            ++n;
    return n;
}

bool
AnalysisReport::hasCode(DiagCode code) const
{
    for (const Diagnostic &d : diags_)
        if (d.code == code)
            return true;
    return false;
}

obs::Json
AnalysisReport::toJson() const
{
    obs::Json j = obs::Json::object();
    j["optimizer"] = obs::Json::string(optimizer_);
    j["moves"] = obs::Json::number(moves_);
    j["words"] = obs::Json::number(words_);
    j["verified"] = obs::Json::boolean(verified());
    j["errors"] = obs::Json::number(errors());
    j["warnings"] = obs::Json::number(warnings());
    j["notes"] = obs::Json::number(notes());
    j["sites_proven_unforwarded"] = obs::Json::number(provenSites());

    obs::Json diags = obs::Json::array();
    for (const Diagnostic &d : diags_)
        diags.push(d.toJson());
    j["diagnostics"] = std::move(diags);

    obs::Json sites = obs::Json::array();
    for (const SiteReport &s : sites_) {
        obs::Json js = obs::Json::object();
        js["site"] = obs::Json::number(s.site.site);
        js["base"] = obs::Json::number(s.site.base);
        js["bytes"] = obs::Json::number(s.site.bytes);
        js["intent"] =
            obs::Json::string(accessIntentName(s.site.intent));
        js["verdict"] = obs::Json::string(siteVerdictName(s.verdict));
        sites.push(std::move(js));
    }
    j["sites"] = std::move(sites);
    return j;
}

AnalysisReport
PlanAnalyzer::analyze(const RelocationPlan &plan) const
{
    AnalysisReport report;
    report.optimizer_ = plan.optimizer();
    report.moves_ = plan.moves().size();
    report.words_ = plan.totalWords();

    memfwd_assert(report.words_ <= max_plan_words,
                  "plan too large to analyze (%llu words)",
                  static_cast<unsigned long long>(report.words_));

    auto diag = [&](DiagCode code, std::size_t move_index,
                    std::size_t site_index, std::string message) {
        report.diags_.push_back({code, diagCodeSeverity(code), move_index,
                                 site_index, std::move(message)});
    };

    if (plan.moves().empty())
        diag(DiagCode::W102_empty_plan, no_plan_index, no_plan_index,
             "plan declares no moves");

    // Forward dataflow over the ordered moves.  `graph` accumulates the
    // words that will carry live forwarding words (with their planned
    // targets, chain-append applied); `final_home` the words holding
    // freshly relocated payload that nothing later disturbs.
    PlannedGraph graph;
    std::unordered_map<Addr, std::size_t> final_home; // word -> move idx

    for (std::size_t i = 0; i < plan.moves().size(); ++i) {
        const PlanMove &m = plan.moves()[i];

        if (!isWordAligned(m.src) || !isWordAligned(m.dst)) {
            diag(DiagCode::E007_misaligned_move, i, no_plan_index,
                 strfmt("move %zu endpoints %#llx -> %#llx are not "
                        "word-aligned",
                        i, static_cast<unsigned long long>(m.src),
                        static_cast<unsigned long long>(m.dst)));
            continue;
        }
        if (m.n_words == 0) {
            diag(DiagCode::W102_empty_plan, i, no_plan_index,
                 strfmt("move %zu relocates zero words", i));
            continue;
        }

        if (rangesOverlap(m.src, m.srcEnd(), m.dst, m.dstEnd())) {
            diag(DiagCode::E001_move_self_overlap, i, no_plan_index,
                 strfmt("move %zu source [%#llx,%#llx) overlaps its "
                        "destination [%#llx,%#llx)",
                        i, static_cast<unsigned long long>(m.src),
                        static_cast<unsigned long long>(m.srcEnd()),
                        static_cast<unsigned long long>(m.dst),
                        static_cast<unsigned long long>(m.dstEnd())));
            continue; // state from an ill-formed move is meaningless
        }

        // Destination hazards: writing where a chain already lives
        // (the relocated payload would not land at its declared home,
        // and the chain through that word is no longer described by
        // the plan), or where an earlier move already parked data.
        unsigned clobbered_fwd = 0, clobbered_data = 0;
        Addr first_bad = 0;
        for (unsigned k = 0; k < m.n_words; ++k) {
            const Addr d = m.dst + Addr(k) * wordBytes;
            if (graph.count(d)) {
                if (!clobbered_fwd++)
                    first_bad = d;
            } else if (final_home.count(d)) {
                if (!clobbered_data++ && !clobbered_fwd)
                    first_bad = d;
            }
        }
        if (clobbered_fwd) {
            diag(DiagCode::E002_dest_clobbers_chain, i, no_plan_index,
                 strfmt("move %zu destination overlaps %u live "
                        "forwarding word(s) planted by earlier moves "
                        "(first at %#llx)",
                        i, clobbered_fwd,
                        static_cast<unsigned long long>(first_bad)));
        } else if (clobbered_data) {
            diag(DiagCode::E002_dest_clobbers_chain, i, no_plan_index,
                 strfmt("move %zu destination overwrites %u word(s) an "
                        "earlier move already relocated into (first at "
                        "%#llx)",
                        i, clobbered_data,
                        static_cast<unsigned long long>(first_bad)));
        }

        // Source hazards: draining words an earlier move just filled
        // means that destination was never final; re-forwarding an
        // already-forwarded source is a (legal but suspect) append.
        unsigned removed = 0, appended = 0;
        Addr first_removed = 0;
        for (unsigned k = 0; k < m.n_words; ++k) {
            const Addr s = m.src + Addr(k) * wordBytes;
            if (final_home.count(s)) {
                if (!removed++)
                    first_removed = s;
            }
            if (graph.count(s))
                ++appended;
        }
        if (removed) {
            diag(DiagCode::E003_dest_removed, i, no_plan_index,
                 strfmt("move %zu relocates %u word(s) out of move "
                        "%zu's destination (first at %#llx): that "
                        "destination is not final",
                        i, removed, final_home[first_removed],
                        static_cast<unsigned long long>(first_removed)));
        }
        if (appended) {
            diag(DiagCode::W101_duplicate_source, i, no_plan_index,
                 strfmt("move %zu re-relocates %u already-forwarded "
                        "word(s); the new home is appended to the "
                        "existing chain",
                        i, appended));
        }

        // Extend the planned forwarding graph word by word; an edge
        // that would close a loop means the planned chain can never
        // terminate (E004).
        bool cycle_reported = false;
        for (unsigned k = 0; k < m.n_words; ++k) {
            const Addr s = m.src + Addr(k) * wordBytes;
            const Addr d = m.dst + Addr(k) * wordBytes;
            const PlannedForward f = planForward(graph, s, d);
            if (f.closes_cycle) {
                if (!cycle_reported) {
                    diag(DiagCode::E004_forwarding_cycle, i,
                         no_plan_index,
                         strfmt("move %zu creates a forwarding cycle "
                                "through %#llx: the chain from %#llx "
                                "can never terminate",
                                i, static_cast<unsigned long long>(f.tail),
                                static_cast<unsigned long long>(s)));
                    cycle_reported = true;
                }
                continue;
            }
            // The tail may have been an earlier move's final home; it
            // now carries a forwarding word instead.
            final_home.erase(f.tail);
            final_home[d] = i;
        }
    }

    // ----- root-set completeness ---------------------------------------
    if (plan.assumption() == AliasAssumption::roots_complete) {
        for (std::size_t i = 0; i < plan.moves().size(); ++i) {
            const PlanMove &m = plan.moves()[i];
            if (m.n_words == 0)
                continue;
            bool covered = false;
            for (const RootDecl &r : plan.roots()) {
                if (r.points_to >= m.src && r.points_to < m.srcEnd()) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                diag(DiagCode::E005_incomplete_roots, i, no_plan_index,
                     strfmt("move %zu's source [%#llx,%#llx) is not "
                            "referenced by any declared root, yet the "
                            "plan claims the root set rewrites every "
                            "live pointer",
                            i, static_cast<unsigned long long>(m.src),
                            static_cast<unsigned long long>(
                                m.srcEnd())));
            }
        }
    }
    for (std::size_t r = 0; r < plan.roots().size(); ++r) {
        const Addr p = plan.roots()[r].points_to;
        bool inside = false;
        for (const PlanMove &m : plan.moves()) {
            if (p >= m.src && p < m.srcEnd()) {
                inside = true;
                break;
            }
        }
        if (!inside) {
            diag(DiagCode::W103_root_outside_plan, no_plan_index,
                 no_plan_index,
                 strfmt("root %zu points at %#llx, which no move "
                        "relocates",
                        r, static_cast<unsigned long long>(p)));
        }
    }

    // ----- access-site legality ----------------------------------------
    for (std::size_t si = 0; si < plan.sites().size(); ++si) {
        const AccessSite &site = plan.sites()[si];
        SiteReport sr;
        sr.site = site;

        if (site.intent == AccessIntent::forwarded) {
            sr.verdict = SiteVerdict::must_forward;
            report.sites_.push_back(sr);
            continue;
        }

        // Provable iff every word of the range is a final relocated
        // home: the plan itself wrote it last and planted no
        // forwarding word over it.  Words the plan never touches have
        // unknown tag state (a previous pass may have forwarded
        // them), so they demote; words known to carry a forwarding
        // word refute the claim outright.
        unsigned fwd_words = 0, unknown_words = 0;
        Addr first_fwd = 0;
        for (Addr w = wordAlign(site.base); w < site.end();
             w += wordBytes) {
            if (graph.count(w)) {
                if (!fwd_words++)
                    first_fwd = w;
            } else if (!final_home.count(w)) {
                ++unknown_words;
            }
        }

        if (fwd_words) {
            sr.verdict = SiteVerdict::must_forward;
            diag(DiagCode::E006_unforwarded_unsafe, no_plan_index, si,
                 strfmt("site %u claims unforwarded %s over "
                        "[%#llx,%#llx) but %u of its words (first at "
                        "%#llx) will hold live forwarding words",
                        site.site,
                        site.intent == AccessIntent::unforwarded_write
                            ? "writes"
                            : "reads",
                        static_cast<unsigned long long>(site.base),
                        static_cast<unsigned long long>(site.end()),
                        fwd_words,
                        static_cast<unsigned long long>(first_fwd)));
        } else if (unknown_words) {
            sr.verdict = SiteVerdict::must_forward;
            diag(DiagCode::N201_site_demoted, no_plan_index, si,
                 strfmt("site %u demoted to must_forward: %u word(s) "
                        "of [%#llx,%#llx) are outside the plan's "
                        "relocated ranges, so their tag state cannot "
                        "be proven",
                        site.site, unknown_words,
                        static_cast<unsigned long long>(site.base),
                        static_cast<unsigned long long>(site.end())));
        } else {
            sr.verdict = SiteVerdict::safe_unforwarded;
        }
        report.sites_.push_back(sr);
    }

    return report;
}

} // namespace memfwd
