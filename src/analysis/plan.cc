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
