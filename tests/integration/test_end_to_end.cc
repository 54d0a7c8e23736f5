/** @file
 * Cross-module integration tests: the full stack (workload -> runtime
 * -> forwarding -> caches -> CPU) reproducing the paper's headline
 * behaviours end to end, at reduced scale.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/traps.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/driver.hh"

namespace memfwd
{
namespace
{

RunConfig
smallConfig(const std::string &wl, unsigned line)
{
    RunConfig cfg;
    cfg.workload = wl;
    cfg.params.scale = 0.3;
    cfg.machine.hierarchy.setLineBytes(line);
    return cfg;
}

std::uint64_t
cycles(const RunResult &r)
{
    return r.metrics.counterAt("cycles");
}

// Figure 5's central claim: list linearization speeds up the list
// workloads, and the gain grows with line size.
TEST(EndToEnd, LinearizationSpeedsUpVisAt128B)
{
    setVerbose(false);
    RunConfig cfg = smallConfig("vis", 128);
    const RunResult n = runWorkload(cfg);
    cfg.variant.layout_opt = true;
    const RunResult l = runWorkload(cfg);
    EXPECT_LT(cycles(l), cycles(n));
    EXPECT_EQ(l.checksum, n.checksum);
    const auto misses = [](const RunResult &r) {
        return r.metrics.counterAt("l1d.load_partial_misses") +
               r.metrics.counterAt("l1d.load_full_misses");
    };
    EXPECT_LT(misses(l), misses(n));
}

TEST(EndToEnd, SpeedupGrowsWithLineSize)
{
    setVerbose(false);
    double prev = 0;
    for (unsigned line : {32u, 64u, 128u}) {
        RunConfig cfg = smallConfig("vis", line);
        const RunResult n = runWorkload(cfg);
        cfg.variant.layout_opt = true;
        const RunResult l = runWorkload(cfg);
        const double speedup = double(cycles(n)) / double(cycles(l));
        EXPECT_GT(speedup, prev);
        prev = speedup;
    }
}

// Figure 6(b): linearization reduces memory traffic.
TEST(EndToEnd, LinearizationSavesBandwidth)
{
    setVerbose(false);
    RunConfig cfg = smallConfig("vis", 64);
    const RunResult n = runWorkload(cfg);
    cfg.variant.layout_opt = true;
    const RunResult l = runWorkload(cfg);
    // Total bytes moved in the hierarchy: at reduced scale the
    // L2<->memory link alone can be noisy (the relocation pool's
    // one-time footprint), but the overall traffic must drop.
    const auto traffic = [](const RunResult &r) {
        return r.metrics.counterAt("traffic.l1_l2_bytes") +
               r.metrics.counterAt("traffic.l2_mem_bytes");
    };
    EXPECT_LT(traffic(l), traffic(n));
}

// Section 5.4: in SMV, forwarding fires and costs performance relative
// to the perfect-forwarding bound.
TEST(EndToEnd, SmvForwardingOverheadVisible)
{
    setVerbose(false);
    RunConfig cfg = smallConfig("smv", 32);
    cfg.variant.layout_opt = true;
    const RunResult l = runWorkload(cfg);
    cfg.machine.forwarding.mode = ForwardingConfig::Mode::perfect;
    const RunResult perf = runWorkload(cfg);
    EXPECT_GT(cycles(l), cycles(perf));
    EXPECT_EQ(l.checksum, perf.checksum);
    EXPECT_GT(l.metrics.counterAt("refs.loads_forwarded"), 0u);
    EXPECT_EQ(perf.metrics.counterAt("refs.loads_forwarded"), 0u);
    // Figure 10(d): forwarding time is part of L's average load cost.
    EXPECT_GT(l.metrics.counterAt("latency.load_forward_cycles"), 0u);
    EXPECT_EQ(perf.metrics.counterAt("latency.load_forward_cycles"), 0u);
}

// Data dependence speculation (Section 3.2): violations are "almost
// never" — even in the forwarding-heavy workload.
TEST(EndToEnd, DependenceViolationsAreRare)
{
    setVerbose(false);
    RunConfig cfg = smallConfig("smv", 32);
    cfg.variant.layout_opt = true;
    const obs::MetricsNode m = runWorkload(cfg).metrics;
    EXPECT_LT(m.counterAt("lsq.violations"),
              m.counterAt("refs.loads") / 1000 + 10);
}

// Conservative mode (no speculation) must be slower on miss-heavy code.
TEST(EndToEnd, SpeculationBeatsConservative)
{
    setVerbose(false);
    RunConfig cfg = smallConfig("mst", 32);
    const RunResult spec = runWorkload(cfg);
    cfg.machine.cpu.dep_speculation = false;
    const RunResult cons = runWorkload(cfg);
    EXPECT_LT(cycles(spec), cycles(cons));
    EXPECT_EQ(spec.checksum, cons.checksum);
}

// Exception-style forwarding works and costs more than the hardware
// walk, but only on the forwarded references.
TEST(EndToEnd, ExceptionModeCostlierThanHardware)
{
    setVerbose(false);
    RunConfig cfg = smallConfig("smv", 32);
    cfg.variant.layout_opt = true;
    const RunResult hw = runWorkload(cfg);
    cfg.machine.forwarding.mode = ForwardingConfig::Mode::exception;
    const RunResult ex = runWorkload(cfg);
    EXPECT_GT(cycles(ex), cycles(hw));
    EXPECT_EQ(ex.checksum, hw.checksum);
}

// The user-level trap fixup of Section 3.2: rewriting stray pointers
// on the fly eliminates repeat forwarding.
TEST(EndToEnd, TrapFixupEliminatesRepeatForwarding)
{
    setVerbose(false);
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 1 << 16);

    // A one-node "list" referenced by a stale pointer slot in memory.
    const Addr node = alloc.alloc(16);
    m.access(Access::store(node + 8, 8, 1234));
    const Addr slot = alloc.alloc(8);
    m.access(Access::store(slot, 8, node));

    relocate(m, node, pool.take(16), 2);

    // Install the fixup handler: shift the stale pointer by the same
    // displacement the accessed word moved (application knowledge: the
    // object moved as one rigid block).
    m.forwarding().traps().install([&](const TrapInfo &info) {
        if (info.pointer_slot == 0)
            return TrapAction::resume;
        const std::uint64_t old_ptr = m.peek(info.pointer_slot, 8);
        const std::uint64_t delta = info.final_addr - info.initial_addr;
        m.poke(info.pointer_slot, 8, old_ptr + delta);
        return TrapAction::pointer_fixed;
    });

    // First dereference: forwards once and fixes the pointer.
    const AccessResult p1 = m.access(Access::load(
        static_cast<Addr>(m.access(Access::load(slot, 8)).value) + 8, 8, 0, 1, slot));
    EXPECT_EQ(p1.value, 1234u);
    EXPECT_EQ(p1.hops, 1u);
    EXPECT_EQ(m.forwarding().traps().pointersFixed(), 1u);

    // Second dereference through the slot: direct, no forwarding.
    const AccessResult p2 = m.access(Access::load(
        static_cast<Addr>(m.access(Access::load(slot, 8)).value) + 8, 8));
    EXPECT_EQ(p2.value, 1234u);
    EXPECT_EQ(p2.hops, 0u);
}

// Relocation + allocator + machine: a full object lifecycle.
TEST(EndToEnd, ObjectLifecycleWithRelocation)
{
    setVerbose(false);
    Machine m;
    SimAllocator alloc(m);

    const Addr obj = alloc.alloc(48);
    for (unsigned w = 0; w < 6; ++w)
        m.access(Access::store(obj + w * 8, 8, w * 11));

    const Addr home1 = alloc.alloc(48);
    relocate(m, obj, home1, 6);
    const Addr home2 = alloc.alloc(48);
    relocate(m, home1, home2, 6);

    // All three views agree.
    for (unsigned w = 0; w < 6; ++w) {
        EXPECT_EQ(m.access(Access::load(obj + w * 8, 8)).value, w * 11);
        EXPECT_EQ(m.access(Access::load(home1 + w * 8, 8)).value, w * 11);
        EXPECT_EQ(m.access(Access::load(home2 + w * 8, 8)).value, w * 11);
    }

    // Chain-aware free reclaims the whole family.
    alloc.free(obj);
    EXPECT_EQ(alloc.bytesLive(), 0u);
}

} // namespace
} // namespace memfwd
