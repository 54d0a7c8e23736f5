/**
 * @file
 * google-benchmark microbenches of the simulator's own mechanisms:
 * how fast the host simulates tagged-memory access, forwarding walks,
 * cache accesses, timed and fast-forwarded machine references, ALU
 * retirement in the reorder buffer, the load/store queue's
 * speculation check, and heap placement.  These measure the simulator
 * (host seconds), not the simulated machine (cycles).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hh"

#include "analysis/gate.hh"
#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/forwarding_engine.hh"
#include "cpu/lsq.hh"
#include "cpu/rob.hh"
#include "mem/tagged_memory.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace
{

using namespace memfwd;

void
BM_TaggedMemoryReadWrite(benchmark::State &state)
{
    TaggedMemory mem;
    Addr a = 0;
    for (auto _ : state) {
        mem.rawWriteWord(a, a);
        benchmark::DoNotOptimize(mem.rawReadWord(a));
        a = (a + 64) & 0xfffff;
    }
}
BENCHMARK(BM_TaggedMemoryReadWrite);

void
BM_CacheHit(benchmark::State &state)
{
    MemoryHierarchy h{HierarchyConfig{}};
    h.access(0x1000, AccessType::load, 0);
    Cycles t = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.access(0x1000, AccessType::load, t));
        ++t;
    }
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissStream(benchmark::State &state)
{
    MemoryHierarchy h{HierarchyConfig{}};
    Cycles t = 0;
    Addr a = 0;
    for (auto _ : state) {
        const auto r = h.access(a, AccessType::load, t);
        t = r.ready;
        a += 4096; // always a fresh line
    }
}
BENCHMARK(BM_CacheMissStream);

/**
 * Random lines over a 1 MiB footprint on the default hierarchy: nearly
 * every access misses the 32 KiB L1 and hits the 1 MiB L2, the shape of
 * Fig. 10's SMV.  One access in four is a store, so L1 victims are
 * written back; a new access starts every other cycle, so several
 * fills are in flight at once.
 */
void
BM_CacheL2Resident(benchmark::State &state)
{
    MemoryHierarchy h{HierarchyConfig{}};
    const unsigned line = h.config().l2.line_bytes;
    const Addr footprint = 1 << 20;
    Cycles t = 0;
    for (Addr a = 0; a < footprint; a += line)
        t = h.access(a, AccessType::load, t).ready;
    std::vector<Addr> lines(1 << 12);
    Rng rng(1);
    for (Addr &a : lines)
        a = rng.below(footprint / line) * line;
    std::size_t i = 0;
    for (auto _ : state) {
        const AccessType type =
            i % 4 == 3 ? AccessType::store : AccessType::load;
        benchmark::DoNotOptimize(h.access(lines[i % lines.size()], type, t));
        t += 2;
        ++i;
    }
}
BENCHMARK(BM_CacheL2Resident);

void
BM_ForwardingWalk(benchmark::State &state)
{
    const unsigned hops = static_cast<unsigned>(state.range(0));
    TaggedMemory mem;
    MemoryHierarchy h{HierarchyConfig{}};
    ForwardingEngine engine(mem, h, {});
    for (unsigned i = 0; i < hops; ++i)
        engine.forwardWord(0x1000 + i * 64, 0x1000 + (i + 1) * 64);
    Cycles t = 0;
    for (auto _ : state) {
        const auto w = engine.resolve(0x1000, AccessType::load, t);
        benchmark::DoNotOptimize(w);
        t = w.ready + 1;
    }
    state.SetLabel(std::to_string(hops) + " hops");
}
BENCHMARK(BM_ForwardingWalk)->Arg(0)->Arg(1)->Arg(4)->Arg(12);

void
BM_MachineTimedLoad(benchmark::State &state)
{
    setVerbose(false);
    Machine m;
    m.access(Access::store(0x1000, 8, 7));
    Cycles dep = 0;
    for (auto _ : state) {
        dep = m.access(Access::load(0x1000, 8, dep)).ready;
        benchmark::DoNotOptimize(dep);
    }
}
BENCHMARK(BM_MachineTimedLoad);

/**
 * The fast-forward access: functional resolve plus one OooCpu::alu()
 * call, whose retirement waits for an observer that never comes here.
 */
void
BM_MachineFastForwardLoad(benchmark::State &state)
{
    setVerbose(false);
    Machine m(MachineConfig{}.fastForward());
    m.access(Access::store(0x1000, 8, 7));
    for (auto _ : state)
        benchmark::DoNotOptimize(m.access(Access::load(0x1000, 8)).value);
}
BENCHMARK(BM_MachineFastForwardLoad);

/**
 * Retiring n ALU instructions on the default 4-wide, 64-entry ROB.  The
 * first call steps once from the empty ROB; every later one starts on
 * the graduation staircase and is written in O(min(n, window)), so
 * 1<<20 should cost about what 64 does, and 1 pays the staircase's
 * checks where a literal step would be cheaper.
 */
void
BM_RobAluBurst(benchmark::State &state)
{
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    Rob rob(4, 64);
    for (auto _ : state)
        rob.aluBurst(n);
    benchmark::DoNotOptimize(rob.currentCycle());
}
BENCHMARK(BM_RobAluBurst)->Arg(1)->Arg(64)->Arg(1 << 20);

/**
 * The shape of kv_server's allocator charge on the default ROB: a
 * 100-cycle load, three hits, then a burst of n ALU instructions (40
 * per alloc or free), with fetch far behind graduation.
 */
void
BM_RobAluBurstAfterMiss(benchmark::State &state)
{
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    Rob rob(4, 64);
    for (auto _ : state) {
        rob.graduate(rob.dispatch() + 100, WaitKind::load_miss);
        for (int i = 0; i < 3; ++i)
            rob.graduate(rob.dispatch() + 2, WaitKind::none);
        rob.aluBurst(n);
    }
    benchmark::DoNotOptimize(rob.currentCycle());
}
BENCHMARK(BM_RobAluBurstAfterMiss)->Arg(40);

/**
 * One store and one load per iteration on the default 64-entry window,
 * every store still unresolved when the loads issue, so each load
 * speculates past about 32 stores.  Arg 0: no word moves, the common
 * case, which needs no walk.  Arg 1: every store and load was
 * forwarded (to disjoint words, so nothing violates), and each load
 * walks the whole window.
 */
void
BM_LsqCheckLoad(benchmark::State &state)
{
    const Addr moved = state.range(0) ? Addr(1) << 32 : 0;
    Lsq lsq{OooParams{}};
    std::vector<Addr> words(1 << 12);
    Rng rng(1);
    for (Addr &w : words)
        w = 0x100000 + rng.below(1 << 16) * wordBytes;
    std::uint64_t seq = 0;
    Cycles t = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr s = words[i++ % words.size()];
        lsq.recordStore(++seq, s, s + moved, 1, t + 100);
        const Addr l = words[i++ % words.size()];
        benchmark::DoNotOptimize(lsq.checkLoad(++seq, t, l, l + 2 * moved, 1));
        ++t;
    }
    state.SetLabel(moved ? "moved words" : "no moved words");
}
BENCHMARK(BM_LsqCheckLoad)->Arg(0)->Arg(1);

void
BM_Relocate64Words(benchmark::State &state)
{
    setVerbose(false);
    Machine m;
    Addr src = 0x100000, tgt = 0x900000;
    for (auto _ : state) {
        relocate(m, src, tgt, 64);
        src = tgt;
        tgt += 64 * 8;
    }
}
// Iteration-capped: every iteration permanently consumes fresh
// simulated memory for the relocation target.
BENCHMARK(BM_Relocate64Words)->Iterations(5000);

/**
 * The same relocation stream under the analysis gate, measuring the
 * host-side cost of the static verify (`plan`) and of the additional
 * per-raw-access dynamic cross-check (`enforce`) relative to
 * BM_Relocate64Words.  Requested by docs/ANALYSIS.md: `--analyze
 * enforce` overhead is reported in BENCH_micro_mechanisms.json.
 */
void
BM_Relocate64WordsAnalyzed(benchmark::State &state)
{
    setVerbose(false);
    Machine m;
    AnalysisGate gate(state.range(0) ? AnalyzeMode::enforce
                                     : AnalyzeMode::plan);
    m.setAnalysisGate(&gate);
    Addr src = 0x100000, tgt = 0x900000;
    for (auto _ : state) {
        relocate(m, src, tgt, 64);
        src = tgt;
        tgt += 64 * 8;
    }
    state.SetLabel(gate.enforcing() ? "enforce" : "plan");
}
BENCHMARK(BM_Relocate64WordsAnalyzed)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(5000);

/** kv_server's arena at scale 1: 2048 resident sessions * 160 bytes. */
constexpr Addr kv_arena_bytes = 320 << 10;

/**
 * One free and one scattered allocation of a kv-sized block (24..56
 * bytes) per iteration, on kv_server's arena held at ~70% occupancy:
 * the allocator work of a kv put.  Some draws miss and a few fall back
 * to the lowest fit, as they do in the workload.
 */
void
BM_SimAllocatorScattered(benchmark::State &state)
{
    setVerbose(false);
    Machine m;
    SimAllocator alloc(m, m.config().heap_base, kv_arena_bytes, 1);
    Rng rng(2);
    auto blockBytes = [&rng] { return 24 + 8 * rng.below(5); };
    std::vector<Addr> live;
    while (alloc.bytesLive() < kv_arena_bytes * 7 / 10)
        live.push_back(*alloc.tryAlloc(blockBytes(), Placement::scattered));
    for (auto _ : state) {
        const std::size_t i = rng.below(live.size());
        alloc.free(live[i]);
        if (const auto a = alloc.tryAlloc(blockBytes(), Placement::scattered)) {
            live[i] = *a;
        } else {
            live[i] = live.back();
            live.pop_back();
        }
    }
    state.SetLabel("70% occupied");
}
BENCHMARK(BM_SimAllocatorScattered);

/**
 * One failing scattered placement (64 draws, then the lowest fit) on a
 * full kv-sized arena, answered by tryAlloc's std::nullopt (0) or by
 * alloc's AllocFailure caught one frame up (1).
 */
void
BM_SimAllocatorFull(benchmark::State &state)
{
    setVerbose(false);
    Machine m;
    SimAllocator alloc(m, m.config().heap_base, kv_arena_bytes, 1);
    while (alloc.tryAlloc(40))
        ;
    const bool throwing = state.range(0) != 0;
    for (auto _ : state) {
        if (!throwing) {
            benchmark::DoNotOptimize(
                alloc.tryAlloc(40, Placement::scattered));
            continue;
        }
        try {
            benchmark::DoNotOptimize(alloc.alloc(40, Placement::scattered));
        } catch (const AllocFailure &e) {
            benchmark::DoNotOptimize(e.bytes());
        }
    }
    state.SetLabel(throwing ? "alloc + catch" : "tryAlloc");
}
BENCHMARK(BM_SimAllocatorFull)->Arg(0)->Arg(1);

/**
 * Console output as usual, plus each run recorded into the bench
 * Report.  Host wall time only — `cycles` stays 0, which marks these
 * cases non-deterministic so scripts/bench_diff.py skips them.
 */
class ReportingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            if (auto *rep = memfwd::bench::Report::current()) {
                rep->addCase(run.benchmark_name(), 0, 0, 0,
                             memfwd::obs::MetricsNode{},
                             run.GetAdjustedRealTime() / 1e6,
                             static_cast<unsigned>(run.iterations));
            }
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    memfwd::bench::Report report("micro_mechanisms");
    ReportingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
