#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.hh"
#include "common/parse.hh"

namespace memfwd::bench
{

namespace
{

Report *current_report = nullptr;

std::string
variantLabel(const WorkloadVariant &v)
{
    std::string s = v.layout_opt ? "L" : "N";
    if (v.prefetch)
        s += "+pf" + std::to_string(v.prefetch_block);
    return s;
}

/**
 * Host-speed gauges for one case (docs/METRICS.md "host" family): the
 * references come from the case's own metrics tree (`refs.executed`),
 * 0 when it records no machine tree.  Wall time varies across
 * machines, so scripts/bench_diff.py treats these as advisory —
 * present-and-tracked, never a pass/fail gate.
 */
obs::Json
hostJson(const obs::MetricsNode &metrics, double wall_ms)
{
    const obs::MetricsNode *counts = metrics.findChild("refs");
    const std::uint64_t refs = counts ? counts->counterValue("executed") : 0;
    obs::Json h = obs::Json::object();
    h["refs"] = obs::Json::number(refs);
    h["wall_ms"] = obs::Json::real(wall_ms);
    const double rps =
        (refs && wall_ms > 0.0) ? double(refs) * 1000.0 / wall_ms : 0.0;
    h["refs_per_sec"] = obs::Json::real(rps);
    return h;
}

/** The keys every recorded case carries (Report::add and addCase). */
obs::Json
caseJson(const std::string &label, const std::string &workload,
         const std::string &variant, std::uint64_t cycles,
         std::uint64_t instructions, std::uint64_t checksum,
         const obs::MetricsNode &metrics, double wall_ms, unsigned reps)
{
    obs::Json c = obs::Json::object();
    c["label"] = obs::Json::string(label);
    c["workload"] = obs::Json::string(workload);
    c["variant"] = obs::Json::string(variant);
    c["cycles"] = obs::Json::number(cycles);
    c["instructions"] = obs::Json::number(instructions);
    c["checksum"] = obs::Json::number(checksum);
    c["wall_ms"] = obs::Json::real(wall_ms);
    c["reps"] = obs::Json::number(reps);
    c["host"] = hostJson(metrics, wall_ms);
    c["metrics"] = metrics.toJson();
    return c;
}

} // namespace

double
benchScale()
{
    // MEMFWD_BENCH_SCALE lets CI run the full harness quickly.  Empty
    // counts as unset.
    const char *env = std::getenv("MEMFWD_BENCH_SCALE");
    if (!env || !*env)
        return 1.0;
    const std::optional<double> scale = parsePositive(env);
    if (!scale)
        memfwd_fatal("MEMFWD_BENCH_SCALE='%s' is not a positive number",
                     env);
    return *scale;
}

MachineConfig
machineAt(unsigned line_bytes)
{
    return MachineConfig{}.lineBytes(line_bytes);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

Report::Report(const std::string &name)
    : name_(name)
{
    memfwd_assert(!current_report,
                  "only one bench::Report may be alive at a time");
    current_report = this;
}

Report::~Report()
{
    write();
    current_report = nullptr;
}

Report *
Report::current()
{
    return current_report;
}

void
Report::add(const std::string &label, const RunResult &r, double wall_ms)
{
    cases_.push_back(caseJson(label, r.workload, variantLabel(r.variant),
                              r.metrics.counterAt("cycles"),
                              r.metrics.counterAt("instructions"),
                              r.checksum, r.metrics, wall_ms, 1));
}

void
Report::addCase(const std::string &label, std::uint64_t cycles,
                std::uint64_t instructions, std::uint64_t checksum,
                const obs::MetricsNode &metrics, double wall_ms,
                unsigned reps,
                const std::vector<std::pair<std::string, double>>
                    &extra_fields)
{
    obs::Json c = caseJson(label, std::string(), std::string(), cycles,
                           instructions, checksum, metrics, wall_ms, reps);
    for (const auto &[key, val] : extra_fields)
        c[key] = obs::Json::real(val);
    cases_.push_back(std::move(c));
}

obs::Json
Report::toJson() const
{
    obs::Json doc = obs::Json::object();
    doc["schema"] = obs::Json::string("memfwd.bench");
    doc["version"] = obs::Json::number(1);
    doc["bench"] = obs::Json::string(name_);
    doc["scale"] = obs::Json::real(benchScale());
    // Every case is one timed run; both fields stay for schema-v1 readers.
    doc["reps"] = obs::Json::number(1);
    doc["warmup"] = obs::Json::number(0);
    obs::Json arr = obs::Json::array();
    for (const auto &c : cases_)
        arr.push(c);
    doc["cases"] = std::move(arr);
    return doc;
}

void
Report::write()
{
    if (written_)
        return;
    std::string dir = ".";
    if (const char *env = std::getenv("MEMFWD_BENCH_OUT"))
        dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (os) {
        toJson().write(os, 2);
        os << "\n";
        os.close();
    }
    if (!os) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    written_ = true;
}

// ---------------------------------------------------------------------
// Harnessed runs
// ---------------------------------------------------------------------

double
Stopwatch::ms() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

RunResult
runCase(const std::string &label, const RunConfig &cfg)
{
    setVerbose(false);
    const Stopwatch clock;
    RunResult r = runWorkload(cfg);
    const double wall_ms = clock.ms();
    if (Report *rep = Report::current())
        rep->add(label, r, wall_ms);
    return r;
}

RunResult
runBestCase(const std::string &label, const RunConfig &cfg)
{
    // Every block size's run is timed; the case keeps the winner's.
    std::vector<double> wall_ms;
    const RunResult best =
        runBestPrefetch(cfg, prefetchBlocks(), [&](const RunConfig &c) {
            const Stopwatch clock;
            RunResult r = runWorkload(c);
            wall_ms.push_back(clock.ms());
            return r;
        });
    const std::vector<unsigned> &blocks = prefetchBlocks();
    const std::size_t winner =
        std::find(blocks.begin(), blocks.end(), best.variant.prefetch_block) -
        blocks.begin();
    if (Report *rep = Report::current())
        rep->add(label, best, wall_ms.at(winner));
    return best;
}

RunConfig
benchConfig(const std::string &workload, const MachineConfig &machine,
            double scale_factor)
{
    RunConfig cfg;
    cfg.workload = workload;
    cfg.params.scale = benchScale() * scale_factor;
    cfg.machine = machine;
    return cfg;
}

double
RunPair::speedup() const
{
    return double(n.metrics.counterAt("cycles")) /
           double(l.metrics.counterAt("cycles"));
}

RunPair
runPair(const std::string &label, RunConfig cfg)
{
    RunPair p;
    cfg.variant.layout_opt = false;
    p.n = runCase(label + "/N", cfg);
    cfg.variant.layout_opt = true;
    p.l = runCase(label + "/L", cfg);
    if (p.n.checksum != p.l.checksum)
        memfwd_fatal("checksum mismatch between %s/N and %s/L",
                     label.c_str(), label.c_str());
    return p;
}

RunResult
run(const std::string &workload, unsigned line_bytes, bool layout_opt)
{
    RunConfig cfg = benchConfig(workload, machineAt(line_bytes));
    cfg.variant.layout_opt = layout_opt;
    return runCase(workload + "/" + std::to_string(line_bytes) + "B/" +
                       variantLabel(cfg.variant),
                   cfg);
}

const std::vector<unsigned> &
prefetchBlocks()
{
    static const std::vector<unsigned> blocks = {1, 2, 4, 8};
    return blocks;
}

void
header(const std::string &title, const std::string &subtitle)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", subtitle.c_str());
    std::printf("================================================================\n");
}

void
printBar(const std::string &label, const RunResult &r, double norm_cycles)
{
    const double scale = 100.0 / norm_cycles;
    const std::uint64_t width = 4; // graduation width of the model
    const double slot_to_cycle = 1.0 / double(width);
    const auto slots = [&](const char *path) {
        return r.metrics.counterAt(path) * slot_to_cycle * scale;
    };
    const std::uint64_t cycles = r.metrics.counterAt("cycles");
    std::printf(
        "  %-8s total %6.1f | busy %5.1f  load %5.1f  store %5.1f  "
        "inst %5.1f | %s cycles\n",
        label.c_str(), cycles * scale, slots("slots.busy"),
        slots("slots.load_stall"), slots("slots.store_stall"),
        slots("slots.inst_stall"), withCommas(cycles).c_str());
}

std::string
withCommas(std::uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.insert(out.begin(), ',');
        out.insert(out.begin(), *it);
        ++count;
    }
    return out;
}

} // namespace memfwd::bench
