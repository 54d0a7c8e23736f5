#include "analysis/plan.hh"

namespace memfwd
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::note:
        return "note";
      case Severity::warning:
        return "warning";
      case Severity::error:
        return "error";
    }
    return "?";
}

const char *
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::E001_move_self_overlap:
        return "E001";
      case DiagCode::E002_dest_clobbers_chain:
        return "E002";
      case DiagCode::E003_dest_removed:
        return "E003";
      case DiagCode::E004_forwarding_cycle:
        return "E004";
      case DiagCode::E005_incomplete_roots:
        return "E005";
      case DiagCode::E006_unforwarded_unsafe:
        return "E006";
      case DiagCode::E007_misaligned_move:
        return "E007";
      case DiagCode::W101_duplicate_source:
        return "W101";
      case DiagCode::W102_empty_plan:
        return "W102";
      case DiagCode::W103_root_outside_plan:
        return "W103";
      case DiagCode::N201_site_demoted:
        return "N201";
      case DiagCode::E101_shared_move_source:
        return "E101";
      case DiagCode::E102_shared_move_dest:
        return "E102";
      case DiagCode::E103_composed_cycle:
        return "E103";
      case DiagCode::E104_site_invalidated:
        return "E104";
      case DiagCode::W201_ordered_dest_drain:
        return "W201";
      case DiagCode::W202_shared_root_slot:
        return "W202";
    }
    return "?";
}

Severity
diagCodeSeverity(DiagCode code)
{
    switch (diagCodeName(code)[0]) {
      case 'E':
        return Severity::error;
      case 'W':
        return Severity::warning;
      default:
        return Severity::note;
    }
}

const char *
aliasAssumptionName(AliasAssumption assumption)
{
    switch (assumption) {
      case AliasAssumption::roots_complete:
        return "roots_complete";
      case AliasAssumption::stale_pointers_possible:
        return "stale_pointers_possible";
    }
    return "?";
}

const char *
accessIntentName(AccessIntent intent)
{
    switch (intent) {
      case AccessIntent::unforwarded_read:
        return "unforwarded_read";
      case AccessIntent::unforwarded_write:
        return "unforwarded_write";
      case AccessIntent::forwarded:
        return "forwarded";
    }
    return "?";
}

const char *
siteVerdictName(SiteVerdict verdict)
{
    switch (verdict) {
      case SiteVerdict::safe_unforwarded:
        return "safe_unforwarded";
      case SiteVerdict::must_forward:
        return "must_forward";
    }
    return "?";
}

obs::Json
Diagnostic::toJson() const
{
    obs::Json j = obs::Json::object();
    j["code"] = obs::Json::string(diagCodeName(code));
    j["severity"] = obs::Json::string(severityName(severity));
    if (move_index != no_plan_index)
        j["move"] = obs::Json::number(move_index);
    if (site_index != no_plan_index)
        j["site"] = obs::Json::number(site_index);
    j["message"] = obs::Json::string(message);
    return j;
}

std::uint64_t
RelocationPlan::totalWords() const
{
    std::uint64_t words = 0;
    for (const PlanMove &m : moves_)
        words += m.n_words;
    return words;
}

obs::Json
RelocationPlan::toJson() const
{
    obs::Json j = obs::Json::object();
    j["optimizer"] = obs::Json::string(optimizer_);
    j["assumption"] = obs::Json::string(aliasAssumptionName(assumption_));

    obs::Json moves = obs::Json::array();
    for (const PlanMove &m : moves_) {
        obs::Json jm = obs::Json::object();
        jm["src"] = obs::Json::number(m.src);
        jm["dst"] = obs::Json::number(m.dst);
        jm["n_words"] = obs::Json::number(m.n_words);
        moves.push(std::move(jm));
    }
    j["moves"] = std::move(moves);

    obs::Json roots = obs::Json::array();
    for (const RootDecl &r : roots_) {
        obs::Json jr = obs::Json::object();
        jr["slot"] = obs::Json::number(r.slot);
        jr["points_to"] = obs::Json::number(r.points_to);
        roots.push(std::move(jr));
    }
    j["roots"] = std::move(roots);

    obs::Json sites = obs::Json::array();
    for (const AccessSite &s : sites_) {
        obs::Json js = obs::Json::object();
        js["site"] = obs::Json::number(s.site);
        js["base"] = obs::Json::number(s.base);
        js["bytes"] = obs::Json::number(s.bytes);
        js["intent"] = obs::Json::string(accessIntentName(s.intent));
        sites.push(std::move(js));
    }
    j["sites"] = std::move(sites);
    return j;
}

namespace
{

/** The word @p word's planned chain ends at, compressing the path. */
Addr
resolveTail(Addr word, PlannedGraph &graph)
{
    std::vector<Addr> path;
    auto it = graph.find(word);
    while (it != graph.end()) {
        path.push_back(word);
        word = it->second;
        it = graph.find(word);
    }
    for (Addr p : path)
        graph[p] = word;
    return word;
}

} // namespace

PlannedForward
planForward(PlannedGraph &graph, Addr src, Addr dst)
{
    const Addr tail = resolveTail(src, graph);
    if (tail == resolveTail(dst, graph))
        return {tail, true};
    graph[tail] = dst;
    return {tail, false};
}

} // namespace memfwd
