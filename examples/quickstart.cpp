/**
 * @file
 * Quickstart: the memory-forwarding mechanism in a dozen lines.
 *
 * Builds a Machine, relocates a small object, and shows that (a) a
 * stale pointer still reads the right data via forwarding, (b) an
 * updated pointer pays nothing, and (c) the observability layer —
 * trace events and hierarchical metrics — records exactly what
 * happened.  Then runs one small workload in its unoptimized and
 * layout-optimized forms and prints the speedup.
 */

#include <cstdio>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/driver.hh"

using namespace memfwd;

int
main()
{
    setVerbose(false);

    // ----- the mechanism ------------------------------------------------
    // MachineConfig setters chain, so a configuration reads as one
    // expression.
    Machine machine(MachineConfig{}.lineBytes(32).hopLimit(16));
    SimAllocator alloc(machine);

    // Watch what the memory system does: any number of TraceSinks can
    // listen; with none registered tracing costs nothing.
    obs::RingBufferSink trace;
    machine.tracer().addSink(&trace);

    // An "object" of four words, plus a stale pointer to its third word.
    const Addr obj = alloc.alloc(32);
    for (unsigned w = 0; w < 4; ++w)
        machine.access(Access::store(obj + 8 * w, 8, 100 + w));
    const Addr stale_ptr = obj + 16;

    // Relocate it — safe even though stale_ptr is not updated.
    const Addr home = alloc.alloc(32);
    relocate(machine, obj, home, 4);

    const AccessResult via_stale = machine.access(Access::load(stale_ptr, 8));
    const AccessResult via_new = machine.access(Access::load(home + 16, 8));
    std::printf("stale pointer read : value=%llu hops=%u\n",
                static_cast<unsigned long long>(via_stale.value),
                via_stale.hops);
    std::printf("updated pointer read: value=%llu hops=%u\n",
                static_cast<unsigned long long>(via_new.value),
                via_new.hops);

    // The metrics tree has the same story in counter form, and the
    // trace ring holds the individual events (exportable as a
    // chrome://tracing file — see docs/METRICS.md).
    const obs::MetricsNode metrics = machine.metrics();
    std::printf("fwd.walks=%llu  fwd.hops=%llu  trace events=%llu\n\n",
                static_cast<unsigned long long>(
                    metrics.findChild("fwd")->counterValue("walks")),
                static_cast<unsigned long long>(
                    metrics.findChild("fwd")->counterValue("hops")),
                static_cast<unsigned long long>(trace.total()));
    machine.tracer().removeSink(&trace);

    // ----- a layout optimization end to end ------------------------------
    RunConfig cfg;
    cfg.workload = "vis";
    cfg.params.scale = 0.1;
    cfg.machine = MachineConfig{}.lineBytes(64);

    cfg.variant.layout_opt = false;
    const RunResult n = runWorkload(cfg);
    cfg.variant.layout_opt = true;
    const RunResult l = runWorkload(cfg);

    // Simulated results are read from the run's metrics tree by path.
    const std::uint64_t n_cycles = n.metrics.counterAt("cycles");
    const std::uint64_t l_cycles = l.metrics.counterAt("cycles");
    std::printf("vis (scale 0.1, 64B lines)\n");
    std::printf("  unoptimized : %llu cycles\n",
                static_cast<unsigned long long>(n_cycles));
    std::printf("  linearized  : %llu cycles  (speedup %.2fx)\n",
                static_cast<unsigned long long>(l_cycles),
                double(n_cycles) / double(l_cycles));
    std::printf("  checksums   : %llu vs %llu (%s)\n",
                static_cast<unsigned long long>(n.checksum),
                static_cast<unsigned long long>(l.checksum),
                n.checksum == l.checksum ? "match" : "MISMATCH");
    return n.checksum == l.checksum ? 0 : 1;
}
