/**
 * @file
 * perfbench driver: one workload run per process.
 *
 *   perfbench_run --workload <smv_stale|kv_compact|smv_ff> --seed N
 *                 [--scale X] [--variant L|N] [--spans-out FILE]
 *
 * Each benchmark workload is a fixed program, variant and machine
 * configuration; the command line supplies only the seed and the size.
 * The process builds the Machine and the Workload, runs it once, and
 * prints one JSON object on stdout: host timings (setup timestamp,
 * run_s, peak RSS), the simulated result (cycles, references,
 * checksum) and the deterministic counters the benchmark reports.
 *
 * perfbench_traced is the same source linked with the interposers in
 * interpose.cc; it adds a "spans" report and, with --spans-out, writes
 * a Chrome trace of the last spans of the run.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/json.hh"
#include "runtime/machine.hh"
#include "workloads/workload.hh"

#ifdef PERFBENCH_TRACED
#include "spans.hh"
#endif

using namespace memfwd;
using memfwd::obs::Json;

namespace
{

struct Options
{
    std::string bench;
    std::uint64_t seed = 1;
    double scale = 1.0;
    bool layout_opt = true;
    std::string spans_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_run --workload "
                 "smv_stale|kv_compact|smv_ff --seed N [--scale X] "
                 "[--variant L|N] [--spans-out FILE]\n",
                 why);
    std::exit(1);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.bench = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("--seed takes a non-negative integer");
            have_seed = true;
        } else if (flag == "--scale") {
            o.scale = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(o.scale > 0.0 && o.scale <= 64.0))
                usage("--scale takes a number in (0, 64]");
        } else if (flag == "--variant") {
            if (value != "L" && value != "N")
                usage("--variant takes L or N");
            o.layout_opt = value == "L";
        } else if (flag == "--spans-out") {
            o.spans_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.bench.empty() || !have_seed)
        usage("--workload and --seed are required");
    return o;
}

/**
 * The three benchmark workloads.  smv_stale is the paper's Figure-10
 * case (32-byte lines, hardware forwarding; stale tree pointers make a
 * share of the loads forward); smv_ff is the same program fast-
 * forwarded; kv_compact is kv_server on the forwarding backend, whose L
 * variant compacts online into first-fit holes (ext_kv_server's
 * "forwarding" case).
 */
MachineConfig
machineFor(const std::string &bench, std::string &program)
{
    if (bench == "kv_compact") {
        program = "kv_server";
        return MachineConfig{}.lineBytes(64).backend(BackendKind::forwarding);
    }
    if (bench == "smv_stale" || bench == "smv_ff") {
        program = "smv";
        MachineConfig mc = MachineConfig{}.lineBytes(32).forwardingMode(
            MachineConfig::Mode::hardware);
        if (bench == "smv_ff")
            mc.fastForward("all");
        return mc;
    }
    usage(("unknown workload " + bench).c_str());
}

double
monotonicSeconds()
{
    // steady_clock is CLOCK_MONOTONIC on Linux: the same clock as the
    // parent's time.monotonic(), so the two timestamps subtract.
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
counter(const obs::MetricsNode &root, const char *child, const char *name)
{
    const obs::MetricsNode *node = root.findChild(child);
    return node ? node->counterValue(name) : 0;
}

int
run(const Options &o)
{
    std::string program;
    const MachineConfig mc = machineFor(o.bench, program);
    WorkloadParams params;
    params.seed = o.seed;
    params.scale = o.scale;
    WorkloadVariant variant;
    variant.layout_opt = o.layout_opt;

    auto machine = std::make_unique<Machine>(mc);
    auto workload = makeWorkload(program, params);

    const double run_start = monotonicSeconds();
#ifdef PERFBENCH_TRACED
    perfbench::spansBegin(o.bench + "-seed" + std::to_string(o.seed) +
                          "-pid" + std::to_string(::getpid()));
#endif
    workload->run(*machine, variant);
#ifdef PERFBENCH_TRACED
    Json spans = perfbench::spansEnd(o.spans_out);
#endif
    const double run_s = monotonicSeconds() - run_start;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    const obs::MetricsNode m = machine->metrics();
    Json counts = Json::object();
    for (const char *name :
         {"loads", "stores", "loads_forwarded", "stores_forwarded"})
        counts[name] = Json::number(counter(m, "refs", name));
    counts["hops"] = Json::number(counter(m, "fwd", "hops"));
    std::uint64_t l1_accesses = 0, l1_misses = 0;
    for (const char *kind : {"load", "store"}) {
        const std::string k = kind;
        const std::uint64_t miss =
            counter(m, "l1d", (k + "_partial_misses").c_str()) +
            counter(m, "l1d", (k + "_full_misses").c_str());
        l1_misses += miss;
        l1_accesses += miss + counter(m, "l1d", (k + "_hits").c_str());
    }
    counts["l1_accesses"] = Json::number(l1_accesses);
    counts["l1_misses"] = Json::number(l1_misses);
    counts["l2_mem_bytes"] = Json::number(counter(m, "traffic", "l2_mem_bytes"));
    counts["lsq_violations"] = Json::number(counter(m, "lsq", "violations"));
    counts["backend_relocated_words"] =
        Json::number(counter(m, "backend", "relocated_words"));

    Json out = Json::object();
    out["workload"] = Json::string(o.bench);
    out["seed"] = Json::number(o.seed);
    out["scale"] = Json::real(o.scale);
    out["variant"] = Json::string(o.layout_opt ? "L" : "N");
    out["run_start_monotonic_s"] = Json::real(run_start);
    out["run_s"] = Json::real(run_s);
    out["peak_rss_kb"] = Json::number(std::uint64_t(ru.ru_maxrss));
    out["refs"] = Json::number(machine->refsExecuted());
    out["sim_cycles"] = Json::number(machine->cycles());
    out["checksum"] = Json::number(workload->checksum());
    out["counts"] = std::move(counts);
#ifdef PERFBENCH_TRACED
    out["spans"] = std::move(spans);
#endif
    std::printf("%s\n", out.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    setVerbose(false);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s run failed: %s\n", o.bench.c_str(),
                     e.what());
        return 2;
    }
}
