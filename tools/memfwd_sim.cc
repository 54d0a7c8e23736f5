/**
 * @file
 * memfwd_sim: the command-line simulator driver.
 *
 * Runs any workload under any machine configuration and dumps every
 * statistic — the binary a downstream user points scripts at.
 *
 *   memfwd_sim --workload vis --line 64 --opt --prefetch --block 4
 *   memfwd_sim --workload=smv --opt=on --forwarding=perfect --json -
 *   memfwd_sim --workload mst --fast-forward=build
 *   memfwd_sim --list
 *
 * Every option accepts both `--name value` and `--name=value`; boolean
 * features take an optional on|off value (bare means on).  Usage errors
 * (including a malformed number or a cache geometry the model rejects)
 * exit with BSD sysexits EX_USAGE (64).  With `--json -` the metrics
 * document is the only thing on stdout and the report goes to stderr.
 */

#include <algorithm>
#include <chrono>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/cycle_check.hh"
#include "core/fault_injector.hh"
#include "obs/metrics.hh"
#include "runtime/heap_verifier.hh"
#include "runtime/layout_backend.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

using namespace memfwd;

namespace
{

/** BSD sysexits EX_USAGE: command-line usage error. */
constexpr int exit_usage = 64;

void
usage(std::FILE *out, const char *argv0)
{
    std::fprintf(
        out,
        "usage: %s [options]\n"
        "\n"
        "Every option may be written `--name value` or `--name=value`.\n"
        "Boolean features accept an optional on|off value; the bare\n"
        "flag means on.  Usage errors exit 64 (EX_USAGE).\n"
        "\n"
        "workload:\n"
        "  --workload NAME    one of the eight applications or the\n"
        "                     kv_server extension (see --list)\n"
        "  --list             list workloads and exit\n"
        "  --scale X          workload size multiplier (default 1.0)\n"
        "  --seed N           workload seed (default 42)\n"
        "\n"
        "layout backend:\n"
        "  --backend KIND     forwarding | handles | none (default\n"
        "                     forwarding): the mechanism behind\n"
        "                     allocation/relocation.  The paper's eight\n"
        "                     applications hold raw pointers and refuse\n"
        "                     'handles'; kv_server runs under all three\n"
        "\n"
        "machine:\n"
        "  --line BYTES       cache line size, both levels (default 32)\n"
        "  --l1 BYTES         L1D capacity (default 32768)\n"
        "  --l1-assoc N       L1D associativity (default 2)\n"
        "  --l2 BYTES         L2 capacity (default 1048576)\n"
        "  --mem-lat CYCLES   memory latency (default 70)\n"
        "  --speculation[=on|off]\n"
        "                     load/store dependence speculation\n"
        "                     (default on; --no-speculation = off)\n"
        "\n"
        "variant (the paper's cases):\n"
        "  --opt[=on|off]     apply the layout optimization (L case)\n"
        "  --prefetch[=on|off]\n"
        "                     insert software prefetches (P case)\n"
        "  --block N          prefetch block size in lines (default 1)\n"
        "\n"
        "forwarding:\n"
        "  --forwarding MODE  hardware | exception | perfect\n"
        "  --ftc[=SPEC]       forwarding translation cache: off | on |\n"
        "                     SETSxWAYS (on = 64x4)\n"
        "  --collapse[=SPEC]  lazy chain collapsing: off | on | N (the\n"
        "                     hop threshold, on = 2)\n"
        "  --cycle-policy P   abort | trap | quarantine (default abort)\n"
        "\n"
        "temporal safety:\n"
        "  --metadata-plane[=on|off]\n"
        "                     per-word object-id/bounds metadata plane\n"
        "                     (default off; enables temporal-violation\n"
        "                     classification on trap delivery)\n"
        "\n"
        "execution engine:\n"
        "  --fast-forward[=REGION]\n"
        "                     run REGION ('build', 'opt', 'kernel', or\n"
        "                     'all'; bare flag = all) functionally:\n"
        "                     forwarding semantics stay exact, cache/CPU\n"
        "                     timing is skipped; repeatable\n"
        "\n"
        "analysis / fault injection:\n"
        "  --analyze[=MODE]   off | plan | enforce (default off; bare\n"
        "                     flag = plan): attach the static\n"
        "                     relocation-plan analyzer (docs/ANALYSIS.md)\n"
        "  --faults SPEC      arm fault injection; SPEC is a ';'-separated\n"
        "                     list of kind@site[:k=v,...] with kinds\n"
        "                     bitflip|truncate|cycle|allocfail|uaf|oob,\n"
        "                     sites resolve|relocate|alloc|free, params\n"
        "                     nth=/count=/hop=\n"
        "                     (e.g. 'cycle@resolve:nth=100')\n"
        "  --fault-seed N     fault injector RNG seed\n"
        "  --audit[=on|off]   run the heap-integrity audit after the\n"
        "                     workload and dump its report\n"
        "\n"
        "output:\n"
        "  --json FILE        write the hierarchical metrics tree as a\n"
        "                     versioned JSON document (docs/METRICS.md);\n"
        "                     FILE of '-' writes it to stdout and the\n"
        "                     report to stderr\n"
        "  --help, -h         this message\n",
        argv0);
}

/** Report a usage error and exit 64, as --help documents. */
[[noreturn]] void
usageError(const char *argv0, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
    std::fprintf(stderr, "run '%s --help' for the option list\n", argv0);
    std::exit(exit_usage);
}

/** Parse an --ftc value: "off", "on", or "SETSxWAYS". */
void
parseFtc(const char *argv0, const std::string &spec,
         ForwardingConfig &fwd)
{
    if (spec == "off") {
        fwd.ftc_enabled = false;
        return;
    }
    fwd.ftc_enabled = true;
    if (spec == "on")
        return;
    const auto x = spec.find('x');
    const std::optional<unsigned> sets =
        parseUnsigned<unsigned>(spec.substr(0, x).c_str());
    const std::optional<unsigned> ways =
        x == std::string::npos
            ? std::nullopt
            : parseUnsigned<unsigned>(spec.substr(x + 1).c_str());
    if (!sets || !ways || !*sets || !*ways) {
        usageError(argv0, "bad --ftc value '" + spec +
                              "' (off | on | SETSxWAYS)");
    }
    fwd.ftc_sets = *sets;
    fwd.ftc_ways = *ways;
}

/** Parse a --collapse value: "off", "on", or a hop threshold. */
void
parseCollapse(const char *argv0, const std::string &spec,
              ForwardingConfig &fwd)
{
    if (spec == "off") {
        fwd.collapse_enabled = false;
        return;
    }
    fwd.collapse_enabled = true;
    if (spec == "on")
        return;
    const std::optional<unsigned> n = parseUnsigned<unsigned>(spec.c_str());
    if (!n || *n == 0) {
        usageError(argv0,
                   "bad --collapse value '" + spec + "' (off | on | N)");
    }
    fwd.collapse_threshold = *n;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    RunConfig cfg;
    cfg.workload = "";
    bool run_audit = false;
    std::string analyze = "off"; // off (no gate) | plan | enforce
    std::string fault_spec;
    std::string json_path;
    std::uint64_t fault_seed = 0x5eedfa17ULL;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];

        // Normalize: every option is `--name value` or `--name=value`.
        std::string name = arg;
        std::string inline_val;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                name = arg.substr(0, eq);
                inline_val = arg.substr(eq + 1);
                has_inline = true;
            }
        }
        // Value-taking option: the inline value or the next argv word.
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_val;
            if (i + 1 >= argc)
                usageError(argv[0], "missing value for " + name);
            return argv[++i];
        };
        // Integer option: a value parseUnsigned accepts for @p out's
        // type.
        auto integer = [&](auto &out) {
            const std::string text = value();
            const auto n =
                parseUnsigned<std::remove_reference_t<decltype(out)>>(
                    text.c_str());
            if (!n) {
                usageError(argv[0], "bad " + name + " value '" + text +
                                        "' (a non-negative integer)");
            }
            out = *n;
        };
        // Boolean feature: bare flag or =on/=off.
        auto onOff = [&]() -> bool {
            if (!has_inline)
                return true;
            if (inline_val == "on")
                return true;
            if (inline_val == "off")
                return false;
            usageError(argv[0], "bad value '" + inline_val + "' for " +
                                    name + " (expected on|off)");
        };
        // Bare boolean that takes no value at all.
        auto noValue = [&]() {
            if (has_inline)
                usageError(argv[0], name + " takes no value");
        };

        if (name == "--workload") {
            cfg.workload = value();
        } else if (name == "--list") {
            noValue();
            for (const auto &n : extendedWorkloadNames()) {
                std::printf("%-10s %s\n", n.c_str(),
                            makeWorkload(n)->description().c_str());
            }
            return 0;
        } else if (name == "--backend") {
            const std::string kind = value();
            if (!backendKindFromName(kind, cfg.machine.backend_kind)) {
                usageError(argv[0], "unknown backend '" + kind +
                                        "' (forwarding | handles | "
                                        "none)");
            }
        } else if (name == "--scale") {
            const std::string text = value();
            const std::optional<double> scale = parsePositive(text.c_str());
            if (!scale) {
                usageError(argv[0], "bad --scale value '" + text +
                                        "' (a positive number)");
            }
            cfg.params.scale = *scale;
        } else if (name == "--seed") {
            integer(cfg.params.seed);
        } else if (name == "--line") {
            unsigned bytes = 0;
            integer(bytes);
            cfg.machine.hierarchy.setLineBytes(bytes);
        } else if (name == "--l1") {
            integer(cfg.machine.hierarchy.l1d.size_bytes);
        } else if (name == "--l1-assoc") {
            integer(cfg.machine.hierarchy.l1d.assoc);
        } else if (name == "--l2") {
            integer(cfg.machine.hierarchy.l2.size_bytes);
        } else if (name == "--mem-lat") {
            integer(cfg.machine.hierarchy.memory.latency);
        } else if (name == "--opt") {
            cfg.variant.layout_opt = onOff();
        } else if (name == "--prefetch") {
            cfg.variant.prefetch = onOff();
        } else if (name == "--block") {
            integer(cfg.variant.prefetch_block);
            if (cfg.variant.prefetch_block == 0)
                usageError(argv[0], "--block must be at least 1");
        } else if (name == "--forwarding") {
            const std::string mode = value();
            if (mode == "hardware") {
                cfg.machine.forwarding.mode =
                    ForwardingConfig::Mode::hardware;
            } else if (mode == "exception") {
                cfg.machine.forwarding.mode =
                    ForwardingConfig::Mode::exception;
            } else if (mode == "perfect") {
                cfg.machine.forwarding.mode =
                    ForwardingConfig::Mode::perfect;
            } else {
                usageError(argv[0], "unknown forwarding mode '" + mode +
                                        "' (hardware | exception | "
                                        "perfect)");
            }
        } else if (name == "--ftc") {
            parseFtc(argv[0], has_inline ? inline_val : "on",
                     cfg.machine.forwarding);
        } else if (name == "--collapse") {
            parseCollapse(argv[0], has_inline ? inline_val : "on",
                          cfg.machine.forwarding);
        } else if (name == "--speculation") {
            cfg.machine.cpu.dep_speculation = onOff();
        } else if (name == "--no-speculation") {
            noValue();
            cfg.machine.cpu.dep_speculation = false;
        } else if (name == "--fast-forward") {
            const std::string region = has_inline ? inline_val : "all";
            const auto &regions = fastForwardRegions();
            if (std::find(regions.begin(), regions.end(), region) ==
                regions.end()) {
                std::string known;
                for (const std::string &r : regions)
                    known += (known.empty() ? "" : " | ") + r;
                usageError(argv[0], "unknown fast-forward region '" +
                                        region + "' (" + known + ")");
            }
            cfg.machine.fastForward(region);
        } else if (name == "--json") {
            json_path = value();
        } else if (name == "--faults") {
            fault_spec = value();
        } else if (name == "--fault-seed") {
            integer(fault_seed);
        } else if (name == "--cycle-policy") {
            const std::string policy = value();
            if (policy == "abort") {
                cfg.machine.forwarding.cycle_policy = CyclePolicy::abort;
            } else if (policy == "trap") {
                cfg.machine.forwarding.cycle_policy = CyclePolicy::trap;
            } else if (policy == "quarantine") {
                cfg.machine.forwarding.cycle_policy =
                    CyclePolicy::quarantine;
            } else {
                usageError(argv[0], "unknown cycle policy '" + policy +
                                        "' (abort | trap | quarantine)");
            }
        } else if (name == "--metadata-plane") {
            cfg.machine.metadataPlane(onOff());
        } else if (name == "--audit") {
            run_audit = onOff();
        } else if (name == "--analyze") {
            analyze = has_inline ? inline_val : "plan";
            if (analyze != "off" && analyze != "plan" &&
                analyze != "enforce") {
                usageError(argv[0], "unknown analyze mode '" + analyze +
                                        "' (off | plan | enforce)");
            }
        } else if (name == "--help" || name == "-h") {
            usage(stdout, argv[0]);
            return 0;
        } else {
            usageError(argv[0], "unknown option '" + arg + "'");
        }
    }

    if (cfg.workload.empty())
        usageError(argv[0], "--workload is required");
    for (const CacheConfig *c :
         {&cfg.machine.hierarchy.l1d, &cfg.machine.hierarchy.l2}) {
        if (!c->validGeometry()) {
            usageError(argv[0],
                       "bad " + c->name + " geometry: " +
                           std::to_string(c->size_bytes) + " B, " +
                           std::to_string(c->assoc) + "-way, " +
                           std::to_string(c->line_bytes) +
                           " B lines (need a power-of-two line of at "
                           "least " + std::to_string(wordBytes) +
                           " B and a power-of-two set count)");
        }
    }

    // Run with a live Machine so we can dump its registry afterwards.
    Machine machine(cfg.machine);

    auto workload = makeWorkload(cfg.workload, cfg.params);
    if (!workload->supportsBackend(cfg.machine.backend_kind)) {
        usageError(argv[0],
                   "workload '" + cfg.workload +
                       "' cannot run under --backend=" +
                       backendKindName(cfg.machine.backend_kind) +
                       " (raw pointers cannot be mediated)");
    }

    FaultInjector faults(fault_seed);
    if (!fault_spec.empty()) {
        try {
            faults.armSpec(fault_spec);
        } catch (const std::invalid_argument &e) {
            memfwd_fatal("bad --faults spec: %s", e.what());
        }
        machine.setFaultInjector(&faults);
    }

    AnalysisGate gate(analyze == "enforce" ? AnalyzeMode::enforce
                                           : AnalyzeMode::plan);
    if (analyze != "off")
        machine.setAnalysisGate(&gate);

    int exit_code = 0;
    const auto host_t0 = std::chrono::steady_clock::now();
    try {
        workload->run(machine, cfg.variant);
    } catch (const ForwardingCycleError &e) {
        std::fprintf(stderr, "memfwd_sim: %s\n", e.what());
        exit_code = 2;
    } catch (const ForwardingIntegrityError &e) {
        std::fprintf(stderr, "memfwd_sim: %s\n", e.what());
        exit_code = 2;
    } catch (const AllocFailure &e) {
        std::fprintf(stderr, "memfwd_sim: %s\n", e.what());
        exit_code = 2;
    } catch (const PlanRejected &e) {
        std::fprintf(stderr, "memfwd_sim: %s\n", e.what());
        exit_code = 2;
    } catch (const EnforcementError &e) {
        std::fprintf(stderr, "memfwd_sim: %s\n", e.what());
        exit_code = 2;
    }

    // With the JSON document on stdout, the report goes to stderr so
    // that stdout holds exactly one document.
    const bool json_stdout = json_path == "-";
    std::FILE *out = json_stdout ? stderr : stdout;
    std::ostream &out_os = json_stdout ? std::cerr : std::cout;
    const auto &st = machine.cpu().stalls();
    std::fprintf(out, "workload       %s%s%s\n", cfg.workload.c_str(),
                 cfg.variant.layout_opt ? " +layout-opt" : "",
                 cfg.variant.prefetch ? " +prefetch" : "");
    std::fprintf(out, "cycles         %llu\n",
                 static_cast<unsigned long long>(machine.cycles()));
    std::fprintf(out, "instructions   %llu (IPC %.2f)\n",
                 static_cast<unsigned long long>(
                     machine.cpu().instructions()),
                 double(machine.cpu().instructions()) /
                     double(machine.cycles()));
    std::fprintf(out, "slots          busy %llu / load %llu / store %llu / "
                 "inst %llu\n",
                 static_cast<unsigned long long>(st.busy),
                 static_cast<unsigned long long>(st.load_stall),
                 static_cast<unsigned long long>(st.store_stall),
                 static_cast<unsigned long long>(st.inst_stall));
    const auto &l1 = machine.hierarchy().l1d().stats();
    std::fprintf(out, "l1d misses     loads %llu (partial %llu) stores %llu\n",
                 static_cast<unsigned long long>(l1.loadMisses()),
                 static_cast<unsigned long long>(l1.load_partial_misses),
                 static_cast<unsigned long long>(l1.storeMisses()));
    std::fprintf(out, "traffic        l1<->l2 %llu B, l2<->mem %llu B\n",
                 static_cast<unsigned long long>(
                     machine.hierarchy().l1L2Bytes()),
                 static_cast<unsigned long long>(
                     machine.hierarchy().l2MemBytes()));
    std::fprintf(out, "forwarding     %llu/%llu loads, %llu/%llu stores\n",
                 static_cast<unsigned long long>(machine.loadsForwarded()),
                 static_cast<unsigned long long>(machine.loads()),
                 static_cast<unsigned long long>(
                     machine.storesForwarded()),
                 static_cast<unsigned long long>(machine.stores()));
    obs::MetricsNode metrics = machine.metrics();
    if (metrics.findChild("backend")) {
        const auto bk =
            static_cast<BackendKind>(metrics.gaugeAt("backend.kind"));
        const auto count = [&](const char *name) {
            return static_cast<unsigned long long>(
                metrics.counterAt(std::string("backend.") + name));
        };
        const auto ratio = [](std::uint64_t num, std::uint64_t den) {
            return den ? double(num) / double(den) : 0.0;
        };
        if (bk == BackendKind::handles) {
            std::fprintf(out,
                         "backend        handles: %llu allocs, %llu moved "
                         "(%llu refused), %.2f derefs/resolve\n",
                         count("allocs"), count("relocations"),
                         count("refusals"),
                         ratio(count("handle_derefs"), count("resolves")));
        } else {
            std::fprintf(out, "backend        %s: %llu allocs, %llu moved "
                         "(%llu refused), %.4f hops/ref\n",
                         backendKindName(bk), count("allocs"),
                         count("relocations"), count("refusals"),
                         ratio(metrics.counterAt("fwd.hops"),
                               machine.refsExecuted()));
        }
    }
    if (cfg.machine.metadata_plane) {
        const auto &fs = machine.forwarding().stats();
        std::fprintf(out, "temporal       %llu uaf, %llu oob violations\n",
                     static_cast<unsigned long long>(fs.temporal_uaf),
                     static_cast<unsigned long long>(fs.temporal_oob));
    }
    std::fprintf(out, "checksum       %llu\n",
                 static_cast<unsigned long long>(workload->checksum()));
    std::fprintf(out, "space overhead %llu bytes\n",
                 static_cast<unsigned long long>(
                     workload->spaceOverheadBytes()));
    // Host-speed gauge (docs/METRICS.md "host" family): wall-clock
    // simulation rate, not a simulated quantity.
    const double host_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - host_t0)
            .count();
    std::fprintf(out, "host           %llu refs in %.1f ms (%.0f refs/s)\n",
                 static_cast<unsigned long long>(machine.refsExecuted()),
                 host_ms,
                 host_ms > 0.0
                     ? double(machine.refsExecuted()) * 1000.0 / host_ms
                     : 0.0);

    if (!fault_spec.empty()) {
        std::fprintf(out, "faults fired   %llu\n",
                     static_cast<unsigned long long>(faults.fired()));
    }

    if (analyze != "off") {
        const GateStats &gs = gate.stats();
        std::fprintf(out, "analysis       mode %s: %llu plans (%llu verified, "
                     "%llu rejected), %llu sites proven unforwarded\n",
                     analyze.c_str(),
                     static_cast<unsigned long long>(gs.plans_submitted),
                     static_cast<unsigned long long>(gs.plans_verified),
                     static_cast<unsigned long long>(gs.plans_rejected),
                     static_cast<unsigned long long>(
                         gs.sites_proven_unforwarded));
        if (gate.enforcing()) {
            std::fprintf(out,
                         "enforcement    %llu raw accesses cross-checked, "
                         "%llu violations\n",
                         static_cast<unsigned long long>(gs.enforce_checks),
                         static_cast<unsigned long long>(
                             gs.enforce_violations));
        }
    }

    if (run_audit) {
        HeapVerifier verifier(machine.mem());
        const AuditReport report = verifier.audit();
        std::fprintf(out, "\n");
        report.dump(out_os);
        if (!report.clean())
            exit_code = exit_code == 0 ? 3 : exit_code;
    }

    if (!json_path.empty()) {
        if (run_audit)
            HeapVerifier(machine.mem()).audit().fillMetrics(
                metrics.child("audit"));
        const obs::Json doc =
            obs::metricsDocument(metrics, "memfwd_sim/" + cfg.workload);
        if (json_stdout) {
            doc.write(std::cout, 2);
            std::cout << "\n";
        } else {
            std::ofstream os(json_path);
            if (!os) {
                std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                             json_path.c_str());
                return exit_code == 0 ? 1 : exit_code;
            }
            doc.write(os, 2);
            os << "\n";
        }
    }
    return exit_code;
}
