/**
 * @file
 * Extension: memory forwarding as a temporal-safety mechanism.
 *
 * The quarantining allocator turns free() into a relocation: the dead
 * object moves into a bounded quarantine arena, forwarding traps cover
 * the freed storage, and the metadata plane tags the quarantined copy
 * with the dead object's id.  A dangling reference then *forwards* into
 * the quarantine, where the engine classifies it by pointer provenance
 * (matching id = use-after-free, anything else = out-of-bounds into the
 * freed slot) and delivers a TemporalViolation trap.
 *
 * This bench proves the mechanism two ways:
 *
 *  1. an injected-bug corpus built on core/fault_injector: the marker
 *     kinds `uaf@free` and `oob@alloc` deterministically select which
 *     frees leave a dangling pointer behind and which objects overrun
 *     into their freed neighbour; the bench probes every injected bug
 *     and reports the detection rate (acceptance: 100% of UAF, >= 95%
 *     of OOB);
 *
 *  2. the eight clean applications run twice, metadata plane off and
 *     on: the plane must produce zero violations (no false positives)
 *     and identical cycles/checksums (the check rides trap delivery on
 *     the forwarded path only, so the clean path pays nothing).
 *
 * Every case carries a top-level `detection_rate`, which the CI
 * temporal-safety lane gates on via bench_diff --require-metric.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "core/fault_injector.hh"
#include "runtime/heap_verifier.hh"
#include "runtime/machine.hh"
#include "runtime/quarantine_allocator.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/driver.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

constexpr unsigned obj_words = 4;
constexpr Addr obj_bytes = obj_words * wordBytes;

/** One injected bug: a pointer the corpus will dereference illegally. */
struct Probe
{
    Addr addr;             ///< address the buggy code dereferences
    std::uint32_t id;      ///< provenance of the pointer it uses
    std::uint32_t dead_id; ///< id of the freed object it lands in
};

struct CorpusResult
{
    unsigned uaf_probes = 0, uaf_detected = 0;
    unsigned oob_probes = 0, oob_detected = 0;
    std::uint64_t false_violations = 0;
    obs::MetricsNode metrics;
    bool audit_clean = false;
    std::uint64_t quarantined_chains = 0;
};

/**
 * Build and probe the injected-bug corpus: pairs of adjacent objects
 * (A, B) where every B is freed through the quarantine.  The fault
 * injector's marker specs pick which A-allocations become overruns and
 * which B-frees leave a dangling pointer.
 */
CorpusResult
runCorpus(unsigned n_pairs)
{
    CorpusResult res;

    MachineConfig mc = machineAt(64);
    mc.metadataPlane();
    Machine machine(mc);
    SimAllocator alloc(machine, /*seed=*/7);
    QuarantineAllocator qa(machine, alloc);

    FaultInjector faults(/*seed=*/11);
    // Markers select bugs, they never corrupt memory: every A-alloc
    // from the 5th onward overruns, every B-free from the 3rd onward
    // leaks a dangling pointer.
    faults.armSpec("oob@alloc:nth=5,count=0;uaf@free:nth=3,count=0");

    std::vector<Probe> uaf_probes, oob_probes;
    std::vector<std::pair<Addr, Addr>> pairs; // (A, B)
    pairs.reserve(n_pairs);

    // Sequential placement makes each pair adjacent: A's one-past-end
    // word is B's first word, so an overrun from A lands in B's freed
    // slot once B is quarantined.
    for (unsigned i = 0; i < n_pairs; ++i) {
        const Addr a = qa.alloc(obj_bytes);
        const Addr b = qa.alloc(obj_bytes);
        for (unsigned w = 0; w < obj_words; ++w) {
            machine.poke(a + w * wordBytes, wordBytes, 0x0a00 + i);
            machine.poke(b + w * wordBytes, wordBytes, 0x0b00 + i);
        }
        if (faults.triggers(FaultSite::alloc, FaultKind::oob))
            oob_probes.push_back({a + obj_bytes, qa.objectId(a), 0});
        pairs.emplace_back(a, b);
    }
    for (auto &[a, b] : pairs) {
        const std::uint32_t b_id = qa.objectId(b);
        if (faults.triggers(FaultSite::free, FaultKind::use_after_free))
            uaf_probes.push_back({b, b_id, b_id});
        qa.free(b);
    }

    const auto &fs = machine.forwarding().stats();

    // Dereference every dangling pointer with its own provenance: the
    // chain forwards into the quarantine slot, the plane's id matches,
    // the engine must classify it use-after-free.
    for (const Probe &p : uaf_probes) {
        const std::uint64_t before = fs.temporal_uaf;
        machine.access(Access::load(p.addr, wordBytes).objectId(p.id));
        if (fs.temporal_uaf > before)
            ++res.uaf_detected;
    }
    // Overrun every selected A by one word, carrying A's provenance:
    // the access lands in B's freed slot, ids mismatch, the engine must
    // classify it out-of-bounds.
    for (const Probe &p : oob_probes) {
        const std::uint64_t before = fs.temporal_oob;
        machine.access(Access::load(p.addr, wordBytes).objectId(p.id));
        if (fs.temporal_oob > before)
            ++res.oob_detected;
    }

    // Legal accesses must stay silent: touching every live A in bounds
    // may not raise a violation.
    const std::uint64_t viol_before = fs.temporal_uaf + fs.temporal_oob;
    for (auto &[a, b] : pairs) {
        machine.access(
            Access::load(a, wordBytes).objectId(qa.objectId(a)));
    }
    res.false_violations = fs.temporal_uaf + fs.temporal_oob - viol_before;

    res.uaf_probes = static_cast<unsigned>(uaf_probes.size());
    res.oob_probes = static_cast<unsigned>(oob_probes.size());
    res.metrics = machine.metrics();

    // The quarantined heap must still audit clean: every quarantine
    // chain is expected state, not corruption.
    const AuditReport audit = HeapVerifier(machine.mem()).audit();
    res.audit_clean = audit.clean();
    res.quarantined_chains = audit.quarantined_chains.size();
    return res;
}

/** Temporal violations classified in a metadata-plane run. */
std::uint64_t
violationCount(const RunResult &r)
{
    return r.metrics.counterAt("quarantine.violations_uaf") +
           r.metrics.counterAt("quarantine.violations_oob");
}

} // namespace

int
main()
{
    memfwd::bench::Report report("ext_temporal_safety");
    setVerbose(false);

    header("Extension: temporal safety via quarantining free()",
           "dangling references forward into quarantine and trap as "
           "classified temporal violations");

    bool ok = true;

    // ----- part 1: injected-bug corpus ---------------------------------
    const unsigned n_pairs =
        std::max(16u, static_cast<unsigned>(600 * benchScale()));
    const Stopwatch corpus_clock;
    const CorpusResult corpus = runCorpus(n_pairs);
    const double corpus_ms = corpus_clock.ms();

    const double uaf_rate =
        corpus.uaf_probes
            ? double(corpus.uaf_detected) / double(corpus.uaf_probes)
            : 1.0;
    const double oob_rate =
        corpus.oob_probes
            ? double(corpus.oob_detected) / double(corpus.oob_probes)
            : 1.0;
    const unsigned probes = corpus.uaf_probes + corpus.oob_probes;
    const double rate =
        probes ? double(corpus.uaf_detected + corpus.oob_detected) /
                     double(probes)
               : 1.0;

    std::printf("injected corpus: %u object pairs, %u uaf + %u oob bugs\n",
                n_pairs, corpus.uaf_probes, corpus.oob_probes);
    std::printf("  uaf detected   %u/%u (%.1f%%)\n", corpus.uaf_detected,
                corpus.uaf_probes, 100.0 * uaf_rate);
    std::printf("  oob detected   %u/%u (%.1f%%)\n", corpus.oob_detected,
                corpus.oob_probes, 100.0 * oob_rate);
    std::printf("  false alarms   %llu on legal accesses\n",
                static_cast<unsigned long long>(corpus.false_violations));
    std::printf("  audit          %s (%llu quarantined chains)\n",
                corpus.audit_clean ? "clean" : "DIRTY",
                static_cast<unsigned long long>(corpus.quarantined_chains));

    ok = ok && uaf_rate >= 1.0 && oob_rate >= 0.95 &&
         corpus.false_violations == 0 && corpus.audit_clean;

    report.addCase("injected_corpus", corpus.metrics.counterAt("cycles"), 0,
                   corpus.uaf_detected + corpus.oob_detected,
                   corpus.metrics, corpus_ms, 1,
                   {{"detection_rate", rate},
                    {"uaf_detection_rate", uaf_rate},
                    {"oob_detection_rate", oob_rate},
                    {"false_positives", double(corpus.false_violations)}});

    // ----- part 2: eight clean workloads, plane off vs on --------------
    std::printf("\n%-12s %14s %14s %9s %6s %s\n", "workload",
                "cycles (off)", "cycles (on)", "overhead", "viol",
                "checksum");
    for (const std::string &name : workloadNames()) {
        RunConfig cfg = benchConfig(name, machineAt(64));
        cfg.variant.layout_opt = true; // forwarded path exercised

        const RunResult off = runWorkload(cfg);
        cfg.machine.metadataPlane(true);
        // Only the plane-on run is recorded, so only it is timed.
        const Stopwatch wl_clock;
        const RunResult on = runWorkload(cfg);
        const double wl_ms = wl_clock.ms();

        const std::uint64_t violations = violationCount(on);
        const std::uint64_t off_cycles = off.metrics.counterAt("cycles");
        const std::uint64_t on_cycles = on.metrics.counterAt("cycles");
        const double overhead_pct =
            off_cycles ? 100.0 * (double(on_cycles) - double(off_cycles)) /
                             double(off_cycles)
                       : 0.0;
        const bool clean = violations == 0 &&
                           on.checksum == off.checksum &&
                           on_cycles == off_cycles;
        ok = ok && clean;

        std::printf("%-12s %14s %14s %8.2f%% %6llu %llu%s\n", name.c_str(),
                    withCommas(off_cycles).c_str(),
                    withCommas(on_cycles).c_str(), overhead_pct,
                    static_cast<unsigned long long>(violations),
                    static_cast<unsigned long long>(on.checksum),
                    clean ? "" : "  MISMATCH");

        report.addCase("clean_" + name, on_cycles,
                       on.metrics.counterAt("instructions"), on.checksum,
                       on.metrics, wl_ms, 1,
                       {{"detection_rate", 1.0},
                        {"false_positives", double(violations)},
                        {"cycle_overhead_pct", overhead_pct}});
    }

    std::printf("\ntakeaway: free() as relocation makes temporal bugs "
                "*architecturally visible* — %.0f%% of injected UAF and "
                "%.0f%% of injected OOB trap as classified violations, "
                "while the plane-on clean runs stay cycle-identical "
                "because the check rides trap delivery on the forwarded "
                "path only.%s\n",
                100.0 * uaf_rate, 100.0 * oob_rate,
                ok ? "" : "  ACCEPTANCE FAILED");
    return ok ? 0 : 1;
}
