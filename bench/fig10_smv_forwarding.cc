/**
 * @file
 * Figure 10: the impact of forwarding overhead, measured on SMV — the
 * one application whose optimization leaves stale pointers behind
 * (BDD tree pointers), so the forwarding safety net actually fires.
 *
 *  (a) execution time: N (no optimization), L (hash-chain
 *      linearization, real forwarding), Perf (idealized perfect
 *      forwarding — an unachievable bound);
 *  (b) load + store D-cache misses per scheme;
 *  (c) fraction of loads/stores requiring forwarding hops
 *      (paper: 7.7% of loads, 1.7% of stores, one hop);
 *  (d) average cycles per load/store, split into forwarding time and
 *      ordinary (cache) time.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench_util.hh"

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/trace.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

RunResult
runSmv(const std::string &label, ForwardingConfig::Mode mode,
       bool layout_opt, bool accelerated = false,
       obs::TraceSink *sink = nullptr)
{
    RunConfig cfg = benchConfig("smv", machineAt(32));
    cfg.machine.forwarding.mode = mode;
    if (accelerated)
        cfg.machine.ftc().collapse();
    cfg.variant.layout_opt = layout_opt;
    cfg.trace_sink = sink;
    return runCase(label, cfg);
}

} // namespace

int
main()
{
    memfwd::bench::Report report("fig10_smv_forwarding");
    header("Figure 10: impact of forwarding overhead (SMV, 32B lines)",
           "N = unoptimized, L = linearized hash chains (real "
           "forwarding), Perf = perfect-forwarding bound");

    // MEMFWD_TRACE_OUT: write a chrome-trace (about:tracing) of the L
    // run's forwarding activity to the named file.
    obs::RingBufferSink ring;
    obs::TraceSink *sink = nullptr;
    const char *trace_out = std::getenv("MEMFWD_TRACE_OUT");
    if (trace_out)
        sink = &ring;

    const RunResult n =
        runSmv("N", ForwardingConfig::Mode::hardware, false);
    const RunResult l =
        runSmv("L", ForwardingConfig::Mode::hardware, true, false, sink);
    // Real forwarding accelerated by the translation cache and lazy
    // chain collapsing: must close most of the gap toward Perf while
    // computing the same answer.
    const RunResult lftc =
        runSmv("L+FTC", ForwardingConfig::Mode::hardware, true, true);
    const RunResult perf =
        runSmv("Perf", ForwardingConfig::Mode::perfect, true);

    if (trace_out) {
        std::ofstream os(trace_out);
        obs::chromeTrace(ring.events()).write(os);
        os << '\n';
        std::printf("wrote chrome trace (%zu events, %llu dropped) to "
                    "%s\n",
                    ring.size(),
                    static_cast<unsigned long long>(ring.dropped()),
                    trace_out);
    }

    if (n.checksum != l.checksum || l.checksum != lftc.checksum ||
        l.checksum != perf.checksum) {
        std::printf("CHECKSUM MISMATCH\n");
        return 1;
    }

    std::printf("\n(a) execution time (normalized to N = 100)\n");
    const double norm = double(n.metrics.counterAt("cycles"));
    printBar("N", n, norm);
    printBar("L", l, norm);
    printBar("L+FTC", lftc, norm);
    printBar("Perf", perf, norm);

    std::printf("\n(b) D-cache misses (loads+stores, normalized to N)\n");
    const auto misses = [](const RunResult &r) {
        const obs::MetricsNode &m = r.metrics;
        return m.counterAt("l1d.load_partial_misses") +
               m.counterAt("l1d.load_full_misses") +
               m.counterAt("l1d.store_partial_misses") +
               m.counterAt("l1d.store_full_misses");
    };
    const double mnorm = 100.0 / double(misses(n));
    std::printf("  N    %6.1f   (%s)\n", misses(n) * mnorm,
                withCommas(misses(n)).c_str());
    std::printf("  L    %6.1f   (%s)\n", misses(l) * mnorm,
                withCommas(misses(l)).c_str());
    std::printf("  L+FTC %5.1f   (%s)\n", misses(lftc) * mnorm,
                withCommas(misses(lftc)).c_str());
    std::printf("  Perf %6.1f   (%s)\n", misses(perf) * mnorm,
                withCommas(misses(perf)).c_str());

    std::printf("\n(c) references requiring forwarding under L "
                "(paper: 7.7%% loads, 1.7%% stores)\n");
    const obs::MetricsNode &lm = l.metrics;
    std::printf("  loads : %.1f%% forwarded (%s of %s)\n",
                100.0 * lm.gaugeAt("refs.load_forwarded_fraction"),
                withCommas(lm.counterAt("refs.loads_forwarded")).c_str(),
                withCommas(lm.counterAt("refs.loads")).c_str());
    std::printf("  stores: %.1f%% forwarded (%s of %s)\n",
                100.0 * lm.gaugeAt("refs.store_forwarded_fraction"),
                withCommas(lm.counterAt("refs.stores_forwarded")).c_str(),
                withCommas(lm.counterAt("refs.stores")).c_str());

    std::printf("\n(d) average cycles per reference "
                "(ordinary + forwarding)\n");
    const auto row = [](const char *tag, const RunResult &r) {
        const obs::MetricsNode &m = r.metrics;
        const auto per = [&](const char *cycles, const char *refs) {
            const std::uint64_t n = m.counterAt(refs);
            return n ? double(m.counterAt(cycles)) / double(n) : 0.0;
        };
        const double load = m.gaugeAt("latency.avg_load_cycles");
        const double store = m.gaugeAt("latency.avg_store_cycles");
        const double load_fwd =
            per("latency.load_forward_cycles", "latency.loads");
        const double store_fwd =
            per("latency.store_forward_cycles", "latency.stores");
        std::printf("  %-5s load %6.2f (ordinary %6.2f + fwd %5.2f)   "
                    "store %6.2f (ordinary %6.2f + fwd %5.2f)\n",
                    tag, load, load - load_fwd, load_fwd, store,
                    store - store_fwd, store_fwd);
    };
    row("N", n);
    row("L", l);
    row("L+FTC", lftc);
    row("Perf", perf);

    std::printf("\npaper shape: L degraded by forwarding (extra time "
                "dereferencing chains + cache pollution from touching "
                "old locations);\nL+FTC recovers most of that overhead "
                "in hardware (translation cache + lazy chain collapse); "
                "Perf removes it\nentirely but improves only marginally "
                "over N — the layout cannot accelerate both the hash "
                "and tree access patterns.\n");
    return 0;
}
