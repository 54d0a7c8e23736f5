/**
 * @file
 * memfwd_lint: static relocation-plan linter.
 *
 * Runs workloads with the analysis gate in keep-going mode, so every
 * RelocationPlan the layout optimizers emit is statically verified and
 * surveyed — one run reports every diagnostic instead of dying on the
 * first rejected plan.  Intended for CI: exit status 1 when any
 * error-severity diagnostic is found, with a machine-readable JSON
 * summary for the build artifact.  With `--json -` that summary is the
 * only thing on stdout; the report goes to stderr.
 *
 *   memfwd_lint                          # lint all workloads
 *   memfwd_lint --workload health --json lint.json
 *   memfwd_lint --selftest               # seeded negative plans
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/gate.hh"
#include "analysis/plan.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "runtime/machine.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

using namespace memfwd;

namespace
{

/** BSD sysexits EX_USAGE: command-line usage error. */
constexpr int exit_usage = 64;

/** Diagnostics listed per workload in the JSON before truncation. */
constexpr std::size_t max_json_diags = 100;

void
usage(std::FILE *out, const char *argv0)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "  --workload NAME   lint one workload (repeatable; default all)\n"
        "  --scale X         workload size multiplier (default 0.25)\n"
        "  --seed N          workload seed (default 42)\n"
        "  --enforce         also cross-check raw accesses dynamically\n"
        "  --json FILE       write the lint summary as JSON ('-': stdout,\n"
        "                    with the report on stderr)\n"
        "  --selftest        verify the analyzer detects every seeded\n"
        "                    negative plan (one per diagnostic code) and\n"
        "                    exit\n"
        "exit status: 0 clean, 1 error diagnostics (or failed selftest),\n"
        "             64 usage error\n",
        argv0);
}

/** Report a bad option value; returns the usage exit status. */
int
badValue(const char *argv0, const std::string &option, const char *text,
         const char *expected)
{
    std::fprintf(stderr, "%s: bad %s value '%s' (%s)\n", argv0,
                 option.c_str(), text, expected);
    return exit_usage;
}

struct WorkloadLint
{
    std::string name;
    bool ran_ok = true;
    std::string run_error;
    GateStats stats;
    /** (optimizer, diagnostic) pairs harvested from retained reports. */
    std::vector<std::pair<std::string, Diagnostic>> diags;
};

WorkloadLint
lintWorkload(const std::string &name, double scale, std::uint64_t seed,
             bool enforce)
{
    WorkloadLint out;
    out.name = name;

    RunConfig cfg;
    cfg.workload = name;
    cfg.params.scale = scale;
    cfg.params.seed = seed;
    cfg.variant.layout_opt = true; // the L case is what emits plans

    Machine machine(cfg.machine);
    AnalysisGate gate(enforce ? AnalyzeMode::enforce : AnalyzeMode::plan);
    gate.setKeepGoing(true);
    gate.setRetainReports(true);
    machine.setAnalysisGate(&gate);

    try {
        auto workload = makeWorkload(cfg.workload, cfg.params);
        workload->run(machine, cfg.variant);
    } catch (const std::exception &e) {
        out.ran_ok = false;
        out.run_error = e.what();
    }

    out.stats = gate.stats();
    for (const AnalysisReport &report : gate.reports()) {
        for (const Diagnostic &d : report.diagnostics())
            out.diags.emplace_back(report.optimizer(), d);
    }

    return out;
}

obs::Json
lintJson(const WorkloadLint &wl)
{
    obs::Json j = obs::Json::object();
    j["name"] = obs::Json::string(wl.name);
    j["ran_ok"] = obs::Json::boolean(wl.ran_ok);
    if (!wl.ran_ok)
        j["run_error"] = obs::Json::string(wl.run_error);
    j["plans_submitted"] = obs::Json::number(wl.stats.plans_submitted);
    j["plans_verified"] = obs::Json::number(wl.stats.plans_verified);
    j["plans_rejected"] = obs::Json::number(wl.stats.plans_rejected);
    j["sites_proven_unforwarded"] =
        obs::Json::number(wl.stats.sites_proven_unforwarded);
    j["sites_must_forward"] =
        obs::Json::number(wl.stats.sites_must_forward);
    j["errors"] = obs::Json::number(wl.stats.diag_errors);
    j["warnings"] = obs::Json::number(wl.stats.diag_warnings);
    j["notes"] = obs::Json::number(wl.stats.diag_notes);

    obs::Json diags = obs::Json::array();
    std::size_t listed = 0;
    for (const auto &[optimizer, d] : wl.diags) {
        if (listed++ == max_json_diags)
            break;
        obs::Json jd = d.toJson();
        jd["optimizer"] = obs::Json::string(optimizer);
        diags.push(std::move(jd));
    }
    j["diagnostics"] = std::move(diags);
    if (wl.diags.size() > max_json_diags)
        j["diagnostics_truncated"] =
            obs::Json::number(wl.diags.size() - max_json_diags);

    return j;
}

/** One seeded negative plan with the code its defect must produce. */
struct SeededPlan
{
    const char *what;
    DiagCode expect;
    /** Error codes must also reject the plan; warning codes must be
     *  reported while the plan still verifies. */
    bool expect_error = true;
    RelocationPlan plan;
};

std::vector<SeededPlan>
seededNegativePlans()
{
    std::vector<SeededPlan> seeds;

    // 1. Overlapping move ranges: the copy tramples its own source.
    RelocationPlan overlap("selftest_overlap");
    overlap.assume(AliasAssumption::stale_pointers_possible)
        .move(0x1000, 0x1010, 4); // src [0x1000,0x1020) vs dst [0x1010,...)
    seeds.push_back(
        {"overlapping move ranges", DiagCode::E001_move_self_overlap,
         true, std::move(overlap)});

    // 2. roots_complete claimed, but the second object has no declared
    //    root — a live stale pointer would survive unrewritten.
    RelocationPlan roots("selftest_incomplete_roots");
    roots.assume(AliasAssumption::roots_complete)
        .move(0x2000, 0x3000, 4)
        .move(0x4000, 0x5000, 4)
        .root(0x100, 0x2000); // covers the first move only
    seeds.push_back({"incomplete root set",
                     DiagCode::E005_incomplete_roots, true,
                     std::move(roots)});

    // 3. A->B then B->A: with chain-append semantics the second move
    //    would make every resolution spin forever.
    RelocationPlan cycle("selftest_cycle");
    cycle.assume(AliasAssumption::stale_pointers_possible)
        .move(0x6000, 0x7000, 2)
        .move(0x7000, 0x6000, 2);
    seeds.push_back({"planned forwarding cycle",
                     DiagCode::E004_forwarding_cycle, true,
                     std::move(cycle)});

    // 4. A site claiming raw access over words the plan itself turns
    //    into live forwarding words: the claim is refuted outright.
    RelocationPlan site("selftest_unsafe_site");
    site.assume(AliasAssumption::stale_pointers_possible)
        .move(0x8000, 0x9000, 4)
        .access(SiteId(1), 0x8000, 4 * wordBytes,
                AccessIntent::unforwarded_read);
    seeds.push_back({"raw site over forwarded words",
                     DiagCode::E006_unforwarded_unsafe, true,
                     std::move(site)});

    // 5. Move endpoints that are not word-aligned.
    RelocationPlan misaligned("selftest_misaligned");
    misaligned.assume(AliasAssumption::stale_pointers_possible)
        .move(0xa001, 0xb000, 2);
    seeds.push_back({"misaligned move endpoints",
                     DiagCode::E007_misaligned_move, true,
                     std::move(misaligned)});

    // 6. The same source relocated twice: a legal chain append, but
    //    almost always an optimizer bookkeeping bug — warn.
    RelocationPlan dup("selftest_duplicate_source");
    dup.assume(AliasAssumption::stale_pointers_possible)
        .move(0xc000, 0xd000, 2)
        .move(0xc000, 0xe000, 2);
    seeds.push_back({"source relocated twice",
                     DiagCode::W101_duplicate_source, false,
                     std::move(dup)});

    // 7. A plan that relocates nothing at all.
    RelocationPlan empty("selftest_empty");
    seeds.push_back({"plan without moves", DiagCode::W102_empty_plan,
                     false, std::move(empty)});

    // 8. A declared root pointing at memory no move relocates: the
    //    rewrite would be a no-op, so the declaration is suspect.
    RelocationPlan stray("selftest_stray_root");
    stray.assume(AliasAssumption::stale_pointers_possible)
        .move(0xf000, 0x10000, 2)
        .root(0x500, 0x20000);
    seeds.push_back({"root outside the plan",
                     DiagCode::W103_root_outside_plan, false,
                     std::move(stray)});

    return seeds;
}

/** Write @p doc to @p path ('-': stdout); false if it cannot be
 *  opened. */
bool
writeJson(const char *argv0, const obs::Json &doc, const std::string &path)
{
    if (path == "-") {
        doc.write(std::cout, 2);
        std::cout << "\n";
        return true;
    }
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", argv0,
                     path.c_str());
        return false;
    }
    doc.write(os, 2);
    os << "\n";
    return true;
}

/** --selftest: check every seeded negative plan, reporting on @p out. */
int
runSelftest(const char *argv0, const std::string &json_path,
            std::FILE *out)
{
    PlanAnalyzer analyzer;
    bool all_detected = true;
    obs::Json cases = obs::Json::array();

    for (const SeededPlan &seed : seededNegativePlans()) {
        const AnalysisReport report = analyzer.analyze(seed.plan);
        // A warning seed must be reported *without* tanking the plan:
        // the whole point of the severity split is that W-codes keep
        // the plan admissible.
        const bool detected =
            report.hasCode(seed.expect) &&
            (seed.expect_error ? !report.verified() : report.verified());
        all_detected = all_detected && detected;
        std::fprintf(out, "selftest %-28s [%s] %s\n", seed.what,
                     diagCodeName(seed.expect),
                     detected ? "detected" : "MISSED");
        if (!detected) {
            for (const Diagnostic &d : report.diagnostics())
                std::fprintf(out, "  got [%s] %s\n", diagCodeName(d.code),
                             d.message.c_str());
        }

        obs::Json jc = obs::Json::object();
        jc["what"] = obs::Json::string(seed.what);
        jc["expect"] = obs::Json::string(diagCodeName(seed.expect));
        jc["expect_error"] = obs::Json::boolean(seed.expect_error);
        jc["detected"] = obs::Json::boolean(detected);
        jc["report"] = report.toJson();
        cases.push(std::move(jc));
    }

    if (!json_path.empty()) {
        obs::Json doc = obs::Json::object();
        doc["schema"] = obs::Json::string("memfwd.lint.selftest");
        doc["version"] = obs::Json::number(3);
        doc["ok"] = obs::Json::boolean(all_detected);
        doc["cases"] = std::move(cases);
        if (!writeJson(argv0, doc, json_path))
            return 1;
    }
    return all_detected ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    std::vector<std::string> workloads;
    double scale = 0.25;
    std::uint64_t seed = 42;
    bool enforce = false;
    bool selftest = false;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             argv[0], arg.c_str());
                usage(stderr, argv[0]);
                std::exit(exit_usage);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            workloads.emplace_back(next());
        } else if (arg == "--scale") {
            const char *text = next();
            const std::optional<double> parsed = parsePositive(text);
            if (!parsed)
                return badValue(argv[0], arg, text, "a positive number");
            scale = *parsed;
        } else if (arg == "--seed") {
            const char *text = next();
            const std::optional<std::uint64_t> parsed = parseUnsigned(text);
            if (!parsed) {
                return badValue(argv[0], arg, text,
                                "a non-negative integer");
            }
            seed = *parsed;
        } else if (arg == "--enforce") {
            enforce = true;
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--selftest") {
            selftest = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout, argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         arg.c_str());
            usage(stderr, argv[0]);
            return exit_usage;
        }
    }

    // With the JSON document on stdout, the report goes to stderr so
    // that stdout holds exactly one document.
    std::FILE *out = json_path == "-" ? stderr : stdout;
    if (selftest)
        return runSelftest(argv[0], json_path, out);

    if (workloads.empty())
        workloads = extendedWorkloadNames(); // all nine, kv_server included

    std::vector<WorkloadLint> results;
    GateStats totals;
    bool any_run_failed = false;
    for (const std::string &name : workloads) {
        WorkloadLint wl = lintWorkload(name, scale, seed, enforce);

        std::fprintf(out, "%-10s %llu plans (%llu verified, %llu rejected), "
                     "%llu sites proven, E:%llu W:%llu N:%llu%s%s\n",
                     wl.name.c_str(),
                     static_cast<unsigned long long>(
                         wl.stats.plans_submitted),
                     static_cast<unsigned long long>(
                         wl.stats.plans_verified),
                     static_cast<unsigned long long>(
                         wl.stats.plans_rejected),
                     static_cast<unsigned long long>(
                         wl.stats.sites_proven_unforwarded),
                     static_cast<unsigned long long>(wl.stats.diag_errors),
                     static_cast<unsigned long long>(
                         wl.stats.diag_warnings),
                     static_cast<unsigned long long>(wl.stats.diag_notes),
                     wl.ran_ok ? "" : "  RUN FAILED: ",
                     wl.ran_ok ? "" : wl.run_error.c_str());
        for (const auto &[optimizer, d] : wl.diags) {
            if (d.severity == Severity::note)
                continue;
            std::fprintf(out, "  %s: [%s] %s: %s\n", severityName(d.severity),
                         diagCodeName(d.code), optimizer.c_str(),
                         d.message.c_str());
        }

        totals.plans_submitted += wl.stats.plans_submitted;
        totals.plans_verified += wl.stats.plans_verified;
        totals.plans_rejected += wl.stats.plans_rejected;
        totals.sites_proven_unforwarded +=
            wl.stats.sites_proven_unforwarded;
        totals.sites_must_forward += wl.stats.sites_must_forward;
        totals.diag_errors += wl.stats.diag_errors;
        totals.diag_warnings += wl.stats.diag_warnings;
        totals.diag_notes += wl.stats.diag_notes;
        any_run_failed = any_run_failed || !wl.ran_ok;
        results.push_back(std::move(wl));
    }

    std::fprintf(out, "total      %llu plans, %llu rejected, errors %llu, "
                 "warnings %llu\n",
                 static_cast<unsigned long long>(totals.plans_submitted),
                 static_cast<unsigned long long>(totals.plans_rejected),
                 static_cast<unsigned long long>(totals.diag_errors),
                 static_cast<unsigned long long>(totals.diag_warnings));

    if (!json_path.empty()) {
        obs::Json doc = obs::Json::object();
        doc["schema"] = obs::Json::string("memfwd.lint");
        doc["version"] = obs::Json::number(3);
        doc["mode"] = obs::Json::string(enforce ? "enforce" : "plan");
        doc["scale"] = obs::Json::real(scale);
        doc["seed"] = obs::Json::number(seed);
        obs::Json jw = obs::Json::array();
        for (const WorkloadLint &wl : results)
            jw.push(lintJson(wl));
        doc["workloads"] = std::move(jw);
        obs::Json jt = obs::Json::object();
        jt["plans_submitted"] = obs::Json::number(totals.plans_submitted);
        jt["plans_rejected"] = obs::Json::number(totals.plans_rejected);
        jt["errors"] = obs::Json::number(totals.diag_errors);
        jt["warnings"] = obs::Json::number(totals.diag_warnings);
        jt["notes"] = obs::Json::number(totals.diag_notes);
        doc["totals"] = std::move(jt);
        if (!writeJson(argv[0], doc, json_path))
            return 1;
    }

    return (totals.diag_errors > 0 || any_run_failed) ? 1 : 0;
}
