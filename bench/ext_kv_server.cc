/**
 * @file
 * Extension: three layout-safety mechanisms compete on a production
 * KV/session-cache workload.
 *
 * The kv_server workload routes every reference through
 * LayoutBackend::resolve(), so the identical Zipf-skewed get/put/expire
 * trace runs under:
 *
 *   none            no relocation — compaction refused, fragmentation
 *                   accrues (the honest baseline);
 *   forwarding      the paper's mechanism — online compaction leaves
 *                   forwarding chains behind stale refs (hops/ref);
 *   forwarding+ftc  same, with the translation cache amortizing the
 *                   chain walks;
 *   handles         the classic alternative — every resolve pays a
 *                   dependent handle-table load, relocation is one
 *                   slot update (derefs/ref, zero hops).
 *
 * Acceptance (exit code): all four cases compute the identical
 * checksum — the mechanisms may differ in time and space, never in
 * answers.  Each case carries top-level cycles_per_op,
 * hops_or_derefs_per_ref, fragmentation and hit_rate fields; the CI
 * lane gates on host.refs_per_sec via bench_diff --require-metric.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "runtime/machine.hh"
#include "workloads/kv_server.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

struct CaseResult
{
    std::string label;
    std::uint64_t checksum = 0;
    KvStats kv;
    obs::MetricsNode metrics;
    double hops_or_derefs_per_ref = 0.0;
    double wall_ms = 0.0;
};

CaseResult
runKv(const std::string &label, BackendKind kind, bool ftc)
{
    CaseResult res;
    res.label = label;

    MachineConfig mc = machineAt(64);
    mc.backend(kind);
    if (ftc)
        mc.ftcGeometry(64, 4);

    WorkloadParams params;
    params.scale = benchScale();

    const Stopwatch clock;
    Machine machine(mc);
    KvServer kv(params);
    WorkloadVariant variant;
    variant.layout_opt = true; // online compaction where supported
    kv.run(machine, variant);
    res.wall_ms = clock.ms();

    res.checksum = kv.checksum();
    res.kv = kv.kvStats();
    res.metrics = machine.metrics();

    // The locality tax of each mechanism, per mediated get reference:
    // forwarding pays chain hops on refs made stale by compaction,
    // handles pays one table deref per resolve.
    if (kind == BackendKind::handles) {
        res.hops_or_derefs_per_ref =
            res.kv.get_refs
                ? double(res.metrics.counterAt("backend.handle_derefs")) /
                      double(res.kv.get_refs)
                : 0.0;
    } else {
        res.hops_or_derefs_per_ref =
            res.kv.get_refs ? double(res.kv.hops_total) /
                                  double(res.kv.get_refs)
                            : 0.0;
    }
    return res;
}

} // namespace

int
main()
{
    memfwd::bench::Report report("ext_kv_server");
    setVerbose(false);

    header("Extension: KV/session cache under three layout backends",
           "same Zipf get/put/expire trace; forwarding vs handle "
           "indirection vs no relocation");

    const std::vector<CaseResult> results = {
        runKv("none", BackendKind::none, false),
        runKv("forwarding", BackendKind::forwarding, false),
        runKv("forwarding_ftc", BackendKind::forwarding, true),
        runKv("handles", BackendKind::handles, false),
    };

    std::printf("%-15s %14s %9s %8s %10s %7s %6s\n", "backend", "cycles",
                "cyc/op", "hit%", "tax/ref", "frag%", "moved");
    bool ok = true;
    for (const CaseResult &r : results) {
        const std::uint64_t cycles = r.metrics.counterAt("cycles");
        const double cyc_per_op =
            r.kv.ops ? double(cycles) / double(r.kv.ops) : 0.0;
        const double hit_rate =
            r.kv.gets ? double(r.kv.hits) / double(r.kv.gets) : 0.0;
        const double frag_avg =
            r.kv.frag_samples ? r.kv.frag_sum / double(r.kv.frag_samples)
                              : 0.0;

        std::printf("%-15s %14s %9.1f %7.1f%% %10.4f %6.1f%% %6llu\n",
                    r.label.c_str(), withCommas(cycles).c_str(),
                    cyc_per_op, 100.0 * hit_rate,
                    r.hops_or_derefs_per_ref, 100.0 * frag_avg,
                    static_cast<unsigned long long>(
                        r.kv.compacted_objects));

        ok = ok && r.checksum == results.front().checksum;

        report.addCase(
            r.label, cycles, r.metrics.counterAt("instructions"), r.checksum,
            r.metrics, r.wall_ms, 1,
            {{"cycles_per_op", cyc_per_op},
             {"hops_or_derefs_per_ref", r.hops_or_derefs_per_ref},
             {"fragmentation", frag_avg},
             {"fragmentation_final", r.kv.frag_final},
             {"hit_rate", hit_rate},
             {"evictions", double(r.kv.evictions)},
             {"compacted_objects", double(r.kv.compacted_objects)},
             {"relocation_refusals",
              double(r.metrics.counterAt("backend.refusals"))}});
    }

    std::printf("\ntakeaway: the three safety mechanisms answer "
                "identically (checksum %llu) and differ only in what "
                "they pay — handles taxes every reference, forwarding "
                "taxes only the references a relocation made stale, and "
                "refusing to relocate leaves the fragmentation.%s\n",
                static_cast<unsigned long long>(results.front().checksum),
                ok ? "" : "  CHECKSUM MISMATCH — ACCEPTANCE FAILED");
    return ok ? 0 : 1;
}
