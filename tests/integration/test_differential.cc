/**
 * @file
 * Differential proof of FTC + chain-collapsing equivalence.
 *
 * The forwarding translation cache and lazy chain collapsing are
 * accelerations: they may change *timing* and *chain shape* but never
 * an architectural outcome.  This harness runs identical programs twice
 * — accelerations off and on — and requires:
 *
 *  - identical loaded values and final addresses for every reference;
 *  - identical user-trap sequences by (site, initial, final) — chain
 *    length is shape-dependent and deliberately excluded;
 *  - identical forwarded-reference counts (WalkResult.forwarded is the
 *    shape-invariant the Machine counts);
 *  - identical *canonical* heap images: collapse rewrites the payload
 *    of forwarded words, so each forwarded word is compared by the
 *    final word its chain resolves to, and data words byte-for-byte.
 *
 * Three program sources drive the comparison: all eight Table 1
 * workloads (hardware and exception modes), randomized op sequences
 * over a pool of relocated objects (100+ seeds across the feature
 * matrix), and chains deliberately poisoned with cycles/corruption
 * under the quarantine policy.
 *
 * A fourth harness holds the execution modes to one walk: for every
 * chain shape around the hop limit, each forwarding mode, cycle policy
 * and retry budget, timed access(), fast-forward access() and peek()
 * must agree on the error thrown, the value, the final address and the
 * trap sequence, and leave the same canonical heap.
 *
 * A fifth holds the timed software walk (chaseChain, relocate and the
 * chain-aware free) to the same walk on the same chain shapes, past its
 * 64-hop counter: each reaches peek()'s tail or throws peek()'s error,
 * and on a chain that ends each costs exactly the cycles and references
 * of the hand-rolled Read_FBit loop it replaced, kept here as the
 * oracle.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/chain_walk.hh"
#include "core/cycle_check.hh"
#include "core/forwarding_engine.hh"
#include "mem/tagged_memory.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload.hh"

namespace memfwd
{
namespace
{

/**
 * Functional chain resolution on raw state (no timing, no stats): the
 * tail word, or 0 for a cyclic or corrupt chain.
 */
Addr
resolveFinalWord(const TaggedMemory &mem, Addr word)
{
    const ChainWalk w = walkChain(mem, word, ChainLimits{}, [](Addr) {});
    return w.end == ChainEnd::tail ? w.word : 0;
}

/**
 * Compare two heaps word-by-word up to chain shape: forwarded words by
 * where they resolve, data words by payload.  Reports the first few
 * divergent addresses rather than drowning the log.
 */
void
expectCanonicalHeapsEqual(const TaggedMemory &a, const TaggedMemory &b)
{
    const std::vector<Addr> pages_a = a.mappedPageBases();
    EXPECT_EQ(pages_a, b.mappedPageBases()) << "materialized pages differ";
    EXPECT_EQ(a.fbitCount(), b.fbitCount());

    unsigned reported = 0;
    for (const Addr base : pages_a) {
        if (!b.isMapped(base) || reported >= 5)
            continue;
        for (unsigned w = 0; w < TaggedMemory::pageWords; ++w) {
            const Addr addr = base + Addr(w) * wordBytes;
            const bool fa = a.fbit(addr);
            if (fa != b.fbit(addr)) {
                ADD_FAILURE() << "fbit differs at " << std::hex << addr;
                if (++reported >= 5)
                    break;
                continue;
            }
            const Word va =
                fa ? resolveFinalWord(a, addr) : a.rawReadWord(addr);
            const Word vb =
                fa ? resolveFinalWord(b, addr) : b.rawReadWord(addr);
            if (va != vb) {
                ADD_FAILURE()
                    << "canonical word differs at " << std::hex << addr
                    << (fa ? " (forwarded): " : " (data): ") << va
                    << " vs " << vb;
                if (++reported >= 5)
                    break;
            }
        }
    }
}

/** (site, initial, final) — the shape-invariant part of a user trap. */
using TrapRecord = std::tuple<SiteId, Addr, Addr>;

// ---------------------------------------------------------------------
// All eight workloads, accelerations off vs. on.
// ---------------------------------------------------------------------

class WorkloadDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, MachineConfig::Mode>>
{
};

TEST_P(WorkloadDifferential, AcceleratedRunIsArchitecturallyIdentical)
{
    setVerbose(false);
    const auto &[name, mode] = GetParam();
    WorkloadParams params;
    params.seed = testSeed(params.seed);
    params.scale = 0.1;
    WorkloadVariant variant;
    variant.layout_opt = true; // the L case is where chains exist

    MachineConfig base = MachineConfig{}.forwardingMode(mode);
    MachineConfig accel =
        MachineConfig{}.forwardingMode(mode).ftc().collapse();

    Machine m_base(base);
    auto w_base = makeWorkload(name, params);
    w_base->run(m_base, variant);

    Machine m_accel(accel);
    auto w_accel = makeWorkload(name, params);
    w_accel->run(m_accel, variant);

    EXPECT_EQ(w_base->checksum(), w_accel->checksum());
    EXPECT_EQ(m_base.loads(), m_accel.loads());
    EXPECT_EQ(m_base.stores(), m_accel.stores());
    EXPECT_EQ(m_base.loadsForwarded(), m_accel.loadsForwarded());
    EXPECT_EQ(m_base.storesForwarded(), m_accel.storesForwarded());
    expectCanonicalHeapsEqual(m_base.mem(), m_accel.mem());

    // When the run forwarded at all, the FTC must have been exercised.
    const ForwardingStats &fs = m_accel.forwarding().stats();
    if (m_base.loadsForwarded() + m_base.storesForwarded() > 0)
        EXPECT_GT(fs.ftc_hits + fs.ftc_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDifferential,
    ::testing::Combine(
        ::testing::ValuesIn(workloadNames()),
        ::testing::Values(MachineConfig::Mode::hardware,
                          MachineConfig::Mode::exception)),
    [](const auto &info) {
        const bool exc =
            std::get<1>(info.param) == MachineConfig::Mode::exception;
        return std::get<0>(info.param) + (exc ? "_exc" : "_hw");
    });

// ---------------------------------------------------------------------
// Fast-forward mode: timing dropped, architecture intact.
// ---------------------------------------------------------------------

/**
 * Functional fast-forward skips cache/CPU timing but must keep every
 * architectural outcome: checksums, reference counts, forwarded-ref
 * counts and the canonical heap all match a fully timed run — both
 * when the whole program is fast-forwarded and when only the build
 * phase is (the memfwd_sim --fast-forward=build use case, where the
 * measured kernel still runs timed).
 */
class FastForwardDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(FastForwardDifferential, MatchesTimedRunArchitecturally)
{
    setVerbose(false);
    const auto &[name, region] = GetParam();
    WorkloadParams params;
    params.seed = testSeed(params.seed);
    params.scale = 0.1;
    WorkloadVariant variant;
    variant.layout_opt = true;

    Machine m_timed((MachineConfig()));
    auto w_timed = makeWorkload(name, params);
    w_timed->run(m_timed, variant);

    Machine m_ff(MachineConfig{}.fastForward(region));
    auto w_ff = makeWorkload(name, params);
    w_ff->run(m_ff, variant);

    EXPECT_EQ(w_timed->checksum(), w_ff->checksum());
    EXPECT_EQ(m_timed.refsExecuted(), m_ff.refsExecuted());
    EXPECT_EQ(m_timed.loads(), m_ff.loads());
    EXPECT_EQ(m_timed.stores(), m_ff.stores());
    EXPECT_EQ(m_timed.loadsForwarded(), m_ff.loadsForwarded());
    EXPECT_EQ(m_timed.storesForwarded(), m_ff.storesForwarded());
    expectCanonicalHeapsEqual(m_timed.mem(), m_ff.mem());

    // Whole-program fast-forward must actually skip time.  Partial
    // fast-forward carries no such guarantee: skipping the build phase
    // also skips its cache warm-up, so the still-timed kernel starts
    // cold and can legitimately cost *more* total cycles.
    if (region == "all")
        EXPECT_LT(m_ff.cycles(), m_timed.cycles());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FastForwardDifferential,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values(std::string("all"),
                                         std::string("build"))),
    [](const auto &info) {
        return std::get<0>(info.param) + "_ff_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------
// Randomized op sequences over a pool of relocated objects.
// ---------------------------------------------------------------------

constexpr unsigned obj_count = 24;
constexpr unsigned obj_words = 4;
constexpr Addr obj_base = 0x00100000;
constexpr Addr obj_stride = 0x100;
constexpr Addr reloc_base = 0x04000000;
constexpr Addr scratch_base = 0x08000000;

Addr
objAddr(unsigned i)
{
    return obj_base + Addr(i) * obj_stride;
}

/** Everything architecturally observable from one sequence run. */
struct Outcome
{
    std::vector<std::uint64_t> log; ///< values + final addrs, in op order
    std::vector<TrapRecord> traps;
    std::uint64_t loads = 0, stores = 0;
    std::uint64_t loads_forwarded = 0, stores_forwarded = 0;
    std::unique_ptr<Machine> machine; ///< kept alive for heap comparison
};

/**
 * The op mix: loads/stores through chains (sub-word included), chain
 * growth via transactional relocate(), Read_FBit probes, and fresh
 * region initialization.  Mutations that *sever* chains are excluded —
 * severing rewrites resolution upstream, which no acceleration can (or
 * should) preserve.
 */
Outcome
runCleanSequence(const MachineConfig &cfg, std::uint64_t seed)
{
    Outcome out;
    out.machine = std::make_unique<Machine>(cfg);
    Machine &m = *out.machine;
    Rng rng(seed);

    m.forwarding().traps().install([&](const TrapInfo &t) {
        out.traps.push_back({t.site, t.initial_addr, t.final_addr});
        return TrapAction::resume;
    });

    for (unsigned i = 0; i < obj_count; ++i)
        for (unsigned w = 0; w < obj_words; ++w)
            m.access(Access::store(objAddr(i) + w * wordBytes, 8, seed ^ (i * 131 + w)));

    Addr reloc_bump = reloc_base;
    Addr scratch_bump = scratch_base;
    for (unsigned op = 0; op < 400; ++op) {
        const unsigned obj = unsigned(rng.below(obj_count));
        const unsigned word = unsigned(rng.below(obj_words));
        const Addr addr = objAddr(obj) + word * wordBytes;
        const std::uint64_t pick = rng.below(100);
        if (pick < 45) {
            const AccessResult r = m.access(Access::load(addr, 8, 0, SiteId(op)));
            out.log.push_back(r.value);
            out.log.push_back(r.final_addr);
        } else if (pick < 70) {
            const AccessResult s =
                m.access(Access::store(addr, 8, rng.next(), 0, SiteId(op)));
            out.log.push_back(s.final_addr);
        } else if (pick < 85) {
            relocate(m, objAddr(obj), reloc_bump, obj_words);
            reloc_bump += obj_words * wordBytes + 0x40;
        } else if (pick < 90) {
            out.log.push_back((m.access(Access::readFBit(addr)).value != 0) ? 1 : 0);
        } else if (pick < 95) {
            const AccessResult r = m.access(Access::load(addr + 4, 4, 0, SiteId(op)));
            out.log.push_back(r.value);
            out.log.push_back(r.final_addr);
        } else {
            m.mem().initializeRegion(scratch_bump, 64);
            m.access(Access::store(scratch_bump + 8, 8, op));
            out.log.push_back(m.access(Access::load(scratch_bump + 8, 8)).value);
            scratch_bump += 0x1000;
        }
    }

    out.loads = m.loads();
    out.stores = m.stores();
    out.loads_forwarded = m.loadsForwarded();
    out.stores_forwarded = m.storesForwarded();
    return out;
}

MachineConfig
differentialConfig(int features, bool accelerated)
{
    MachineConfig cfg;
    if (features == 3)
        cfg.forwardingMode(MachineConfig::Mode::exception);
    if (!accelerated)
        return cfg;
    if (features == 0)
        return cfg.ftc();
    if (features == 1)
        return cfg.collapse();
    return cfg.ftc().collapse(); // 2 (hardware) and 3 (exception)
}

class CleanOpsDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CleanOpsDifferential, SameArchitecturalResults)
{
    setVerbose(false);
    const auto &[seed_index, features] = GetParam();
    const std::uint64_t seed = testSeed(0xd1ff0000u + seed_index);

    const Outcome base =
        runCleanSequence(differentialConfig(features, false), seed);
    const Outcome accel =
        runCleanSequence(differentialConfig(features, true), seed);

    ASSERT_EQ(base.log.size(), accel.log.size());
    EXPECT_EQ(base.log, accel.log);
    EXPECT_EQ(base.traps, accel.traps);
    EXPECT_EQ(base.loads, accel.loads);
    EXPECT_EQ(base.stores, accel.stores);
    EXPECT_EQ(base.loads_forwarded, accel.loads_forwarded);
    EXPECT_EQ(base.stores_forwarded, accel.stores_forwarded);
    expectCanonicalHeapsEqual(base.machine->mem(), accel.machine->mem());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByFeature, CleanOpsDifferential,
    ::testing::Combine(::testing::Range(0, 34),
                       ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        const int f = std::get<1>(info.param);
        const char *kind =
            f == 0 ? "ftc" : (f == 1 ? "collapse" : "both");
        return std::string(kind) + "_s"
               + std::to_string(std::get<0>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    ExceptionModeSeeds, CleanOpsDifferential,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(3)),
    [](const auto &info) {
        return "exc_s" + std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------
// Poisoned chains under the quarantine policy.
// ---------------------------------------------------------------------

struct FaultyOutcome
{
    std::vector<std::uint64_t> clean_values; ///< loads of healthy objects
    std::uint64_t cycles_detected = 0;
    std::uint64_t cycles_quarantined = 0;
    std::uint64_t corrupt_forwards = 0;
    std::unique_ptr<Machine> machine;
};

/**
 * Chains are grown, then two are closed into cycles and one is given a
 * misaligned (corrupt) tail.  The quarantine pin of a *cycle* depends
 * on chain shape, so poisoned-object values are not compared — only
 * that both runs detect, quarantine, and keep running identically for
 * every healthy object.
 */
FaultyOutcome
runFaultySequence(const MachineConfig &cfg, std::uint64_t seed)
{
    FaultyOutcome out;
    out.machine = std::make_unique<Machine>(cfg);
    Machine &m = *out.machine;
    Rng rng(seed);

    constexpr unsigned chains = 6;
    Addr bump = reloc_base;
    for (unsigned i = 0; i < chains; ++i) {
        for (unsigned w = 0; w < obj_words; ++w)
            m.access(Access::store(objAddr(i) + w * wordBytes, 8, seed + i * 7 + w));
        const unsigned relocs = 2 + unsigned(rng.below(2));
        for (unsigned r = 0; r < relocs; ++r) {
            relocate(m, objAddr(i), bump, obj_words);
            bump += obj_words * wordBytes + 0x40;
        }
    }

    // Poison deterministically: chains 0 and 1 become cycles (the tail
    // re-forwarded at the head), chain 2 gets a corrupt tail.
    for (unsigned i = 0; i < 2; ++i) {
        const Addr head = objAddr(i);
        const Addr tail = chaseChain(m, head);
        m.access(Access::unforwardedWrite(tail, head, true));
    }
    {
        const Addr tail = chaseChain(m, objAddr(2));
        m.access(Access::unforwardedWrite(tail, 0x6661, true)); // misaligned payload
    }

    // Reference everything, twice (the second pass rides the pins).
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < chains; ++i) {
            for (unsigned w = 0; w < obj_words; ++w) {
                const AccessResult r =
                    m.access(Access::load(objAddr(i) + w * wordBytes, 8));
                if (i >= 3) {
                    out.clean_values.push_back(r.value);
                    out.clean_values.push_back(r.final_addr);
                }
            }
        }
    }

    const ForwardingStats &fs = m.forwarding().stats();
    out.cycles_detected = fs.cycles_detected;
    out.cycles_quarantined = fs.cycles_quarantined;
    out.corrupt_forwards = fs.corrupt_forwards;
    return out;
}

class FaultyOpsDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(FaultyOpsDifferential, QuarantineBehaviorMatches)
{
    setVerbose(false);
    const std::uint64_t seed = testSeed(0xbad0000u + GetParam());
    const MachineConfig base =
        MachineConfig{}.cyclePolicy(CyclePolicy::quarantine);
    const MachineConfig accel =
        MachineConfig{}.cyclePolicy(CyclePolicy::quarantine).ftc().collapse();

    const FaultyOutcome a = runFaultySequence(base, seed);
    const FaultyOutcome b = runFaultySequence(accel, seed);

    EXPECT_EQ(a.clean_values, b.clean_values);
    EXPECT_GT(a.cycles_detected, 0u);
    EXPECT_EQ(a.cycles_detected, b.cycles_detected);
    EXPECT_EQ(a.cycles_quarantined, b.cycles_quarantined);
    EXPECT_GT(a.corrupt_forwards, 0u);
    EXPECT_EQ(a.corrupt_forwards, b.corrupt_forwards);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultyOpsDifferential,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------
// One walk: timed, fast-forward and peek agree on every chain shape.
// ---------------------------------------------------------------------

constexpr Addr chain_base = 0x10000000;
constexpr Addr chain_stride = 0x40;
constexpr Word chain_value = 0x1234;
constexpr unsigned chain_hop_limit = 2;

enum class Shape
{
    acyclic, ///< the last word holds data
    cyclic,  ///< the last word forwards back into the chain
    corrupt  ///< the last word forwards to a misaligned payload
};

Addr
chainWord(unsigned i)
{
    return chain_base + Addr(i) * chain_stride;
}

/** Words 0..hops-1 forward to their successor; word `hops` ends it. */
void
buildChain(TaggedMemory &mem, unsigned hops, Shape shape)
{
    for (unsigned i = 0; i < hops; ++i)
        mem.unforwardedWrite(chainWord(i), chainWord(i + 1), true);
    switch (shape) {
      case Shape::acyclic:
        // The loads read the word's upper half.
        mem.unforwardedWrite(chainWord(hops), chain_value << 32, false);
        break;
      case Shape::cyclic:
        mem.unforwardedWrite(chainWord(hops), chainWord(hops / 2), true);
        break;
      case Shape::corrupt:
        mem.unforwardedWrite(chainWord(hops), chain_base + 3, true);
        break;
    }
}

/** What one reference observably did. */
struct Observed
{
    std::string error; ///< "", "cycle" or "integrity"
    std::uint64_t value = 0;
    Addr final_addr = 0;
    unsigned hops = 0;

    bool operator==(const Observed &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Observed &o)
{
    return os << "{error=" << o.error << " value=" << std::hex << o.value
              << " final=" << o.final_addr << std::dec
              << " hops=" << o.hops << "}";
}

template <class F>
Observed
observe(F &&f)
{
    try {
        return f();
    } catch (const ForwardingCycleError &) {
        return {"cycle"};
    } catch (const ForwardingIntegrityError &) {
        return {"integrity"};
    }
}

/** Two loads through the chain head, each followed by a peek. */
struct ChainRun
{
    std::vector<Observed> loads;
    std::vector<Observed> peeks; ///< error and value only
    std::vector<TrapRecord> traps;
    std::vector<unsigned> trap_hops; ///< first load's traps only
    std::unique_ptr<Machine> machine;
};

ChainRun
runChain(const MachineConfig &cfg, unsigned hops, Shape shape)
{
    ChainRun run;
    run.machine = std::make_unique<Machine>(cfg);
    Machine &m = *run.machine;
    buildChain(m.mem(), hops, shape);
    bool first = true;
    m.forwarding().traps().install([&](const TrapInfo &t) {
        run.traps.push_back({t.site, t.initial_addr, t.final_addr});
        if (first)
            run.trap_hops.push_back(t.hops);
        return TrapAction::resume;
    });

    // The second load rides whatever the first left behind: an FTC
    // entry, a collapsed head or a quarantine pin.  Only the first
    // load's hop count is shape-independent.
    const Addr addr = chainWord(0) + 4;
    for (unsigned pass = 0; pass < 2; ++pass) {
        first = pass == 0;
        const Observed load = observe([&] {
            const AccessResult r =
                m.access(Access::load(addr, 4, 0, SiteId(pass + 1)));
            return Observed{"", r.value, r.final_addr, first ? r.hops : 0};
        });
        run.loads.push_back(load);
        run.peeks.push_back(
            observe([&] { return Observed{"", m.peek(addr, 4)}; }));
    }
    return run;
}

/** Require @p ff and the peeks to match the timed run @p timed. */
void
expectSameWalk(const ChainRun &timed, const ChainRun &ff)
{
    EXPECT_EQ(timed.loads, ff.loads);
    EXPECT_EQ(timed.traps, ff.traps);
    EXPECT_EQ(timed.trap_hops, ff.trap_hops);
    for (const ChainRun *run : {&timed, &ff}) {
        for (std::size_t i = 0; i < run->loads.size(); ++i) {
            EXPECT_EQ(run->peeks[i].error, run->loads[i].error)
                << "peek after load " << i;
            EXPECT_EQ(run->peeks[i].value, run->loads[i].value)
                << "peek after load " << i;
        }
    }
    expectCanonicalHeapsEqual(timed.machine->mem(), ff.machine->mem());
}

TEST(ChainWalkDivergence, ExceptionRetryExhaustionReturnsRealValue)
{
    // Exception mode, hop limit 2, one handler retry, quarantine policy,
    // a 20-hop acyclic chain: the handler runs out of retries at hop 6.
    MachineConfig cfg = MachineConfig{}
                            .forwardingMode(MachineConfig::Mode::exception)
                            .hopLimit(chain_hop_limit)
                            .cyclePolicy(CyclePolicy::quarantine);
    cfg.forwarding.max_handler_retries = 1;
    MachineConfig ff_cfg = cfg;
    ff_cfg.fastForward();

    const ChainRun timed = runChain(cfg, 20, Shape::acyclic);
    const ChainRun ff = runChain(ff_cfg, 20, Shape::acyclic);

    const Observed want{"", chain_value, chainWord(20) + 4, 20};
    EXPECT_EQ(timed.loads.front(), want);
    EXPECT_EQ(ff.loads.front(), want);
    EXPECT_EQ(timed.peeks.front().value, chain_value);
    EXPECT_EQ(timed.trap_hops, std::vector<unsigned>{20});
    expectSameWalk(timed, ff);

    // No forwarding word was returned as data, and nothing was pinned.
    const ForwardingStats &fs = timed.machine->forwarding().stats();
    EXPECT_EQ(fs.cycles_quarantined, 0u);
    // Two retries per load: after hop 3, and after hop 6, where the
    // handler gives up.
    EXPECT_EQ(fs.handler_retries, 4u);
    EXPECT_EQ(timed.machine->forwarding().quarantinePin(chainWord(0)), 0u);
}

class ChainShapeSweep
    : public ::testing::TestWithParam<
          std::tuple<MachineConfig::Mode, CyclePolicy, bool>>
{
};

TEST_P(ChainShapeSweep, TimedFastForwardAndPeekAgree)
{
    setVerbose(false);
    const auto &[mode, policy, accelerated] = GetParam();
    constexpr unsigned l = chain_hop_limit;
    for (const unsigned hops : {1u, l, l + 1, 3 * l + 2, 20u}) {
        for (const unsigned retries : {0u, 1u, 8u}) {
            for (const Shape shape :
                 {Shape::acyclic, Shape::cyclic, Shape::corrupt}) {
                SCOPED_TRACE(::testing::Message()
                             << "hops=" << hops << " retries=" << retries
                             << " shape=" << int(shape));
                MachineConfig cfg = MachineConfig{}
                                        .forwardingMode(mode)
                                        .hopLimit(l)
                                        .cyclePolicy(policy);
                cfg.forwarding.max_handler_retries = retries;
                if (accelerated)
                    cfg.ftc().collapse();
                MachineConfig ff_cfg = cfg;
                ff_cfg.fastForward();

                const ChainRun timed = runChain(cfg, hops, shape);
                const ChainRun ff = runChain(ff_cfg, hops, shape);
                expectSameWalk(timed, ff);
                if (shape == Shape::acyclic) {
                    EXPECT_EQ(timed.loads.front().value, chain_value);
                    EXPECT_EQ(timed.loads.back().value, chain_value);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesPoliciesAccelerations, ChainShapeSweep,
    ::testing::Combine(
        ::testing::Values(MachineConfig::Mode::hardware,
                          MachineConfig::Mode::exception,
                          MachineConfig::Mode::perfect),
        ::testing::Values(CyclePolicy::abort, CyclePolicy::trap,
                          CyclePolicy::quarantine),
        ::testing::Bool()),
    [](const auto &info) {
        const MachineConfig::Mode mode = std::get<0>(info.param);
        const char *name = mode == MachineConfig::Mode::hardware
                               ? "hw"
                               : (mode == MachineConfig::Mode::exception
                                      ? "exc"
                                      : "perfect");
        return std::string(name) + "_"
               + cyclePolicyName(std::get<1>(info.param))
               + (std::get<2>(info.param) ? "_accel" : "_plain");
    });

// ---------------------------------------------------------------------
// The software walk: chaseChain, relocate and free agree with peek, and
// cost what a hand-rolled Read_FBit loop costs.
// ---------------------------------------------------------------------

/**
 * The software walk hand-rolled as its own Read_FBit loop, with the
 * accurate check past 64 hops: the timing oracle chaseChain() must
 * match hop for hop.
 */
Addr
oracleChase(Machine &machine, Addr addr)
{
    Addr word = wordAlign(addr);
    const unsigned offset = wordOffset(addr);
    unsigned guard = 0;
    ScopedUnforwardedAnnotation chase_ok(machine.analysisGate());
    while ((machine.access(Access::readFBit(word)).value != 0)) {
        word = wordAlign(machine.access(Access::unforwardedRead(word)).value);
        if (++guard > 64) {
            const CycleCheckResult chk =
                accurateCycleCheck(machine.mem(), addr);
            if (chk.is_cycle)
                throw ForwardingCycleError(wordAlign(addr), chk.length);
            guard = 0;
        }
    }
    return word + offset;
}

/**
 * The timed part of a chain-aware free() hand-rolled as its own
 * Read_FBit loop (the releases are untimed and left out), then the
 * allocator's per-call charge of 40 ALU ops: the timing oracle
 * SimAllocator::free() must match.
 */
void
oracleFree(Machine &machine, Addr addr)
{
    Addr cur = wordAlign(addr);
    unsigned guard = 0;
    ScopedUnforwardedAnnotation walk_ok(machine.analysisGate());
    while ((machine.access(Access::readFBit(cur)).value != 0)) {
        cur = wordAlign(machine.access(Access::unforwardedRead(cur)).value);
        memfwd_assert(++guard < 1u << 20, "free(): runaway chain");
    }
    machine.access(Access::compute(40));
}

/** One relocate() word step, around the oracle chase of its source. */
void
oracleRelocate(Machine &machine, Addr src, Addr tgt)
{
    const Addr tail = oracleChase(machine, src);
    const std::uint64_t value =
        machine.access(Access::unforwardedRead(tail)).value;
    machine.access(Access::store(tgt, wordBytes, value));
    machine.access(Access::unforwardedWrite(tail, tgt, true));
}

/** Every word with a nonzero payload or a set forwarding bit. */
std::map<Addr, std::pair<Word, bool>>
rawImage(const TaggedMemory &mem)
{
    std::map<Addr, std::pair<Word, bool>> image;
    for (const Addr base : mem.mappedPageBases()) {
        for (unsigned w = 0; w < TaggedMemory::pageWords; ++w) {
            const Addr a = base + Addr(w) * wordBytes;
            if (mem.rawReadWord(a) != 0 || mem.fbit(a))
                image.emplace(a, std::make_pair(mem.rawReadWord(a),
                                                mem.fbit(a)));
        }
    }
    return image;
}

/**
 * buildChain()'s chain over live allocations: chain word i is the
 * block allocated i-th, and `target`, allocated after the chain, is a
 * spare block to relocate into.
 */
struct SoftwareWalkRig
{
    Machine m;
    SimAllocator alloc;
    unsigned hops;
    Addr target = 0;

    SoftwareWalkRig(const MachineConfig &cfg, unsigned hops, Shape shape)
        : m(cfg), alloc(m, chain_base, 0x100000), hops(hops)
    {
        for (unsigned i = 0; i <= hops; ++i)
            EXPECT_EQ(alloc.alloc(chain_stride), chainWord(i));
        target = alloc.alloc(chain_stride);
        buildChain(m.mem(), hops, shape);
    }

    Addr head() const { return chainWord(0); }
    Addr tail() const { return chainWord(hops); }
};

/** The exception class @p f throws, "" if none. */
template <class F>
std::string
errorOf(F &&f)
{
    return observe([&] {
               f();
               return Observed{};
           })
        .error;
}

/** cycles() and refsExecuted() spent. */
using Cost = std::pair<Cycles, std::uint64_t>;

/** The Cost of @p f on @p m. */
template <class F>
Cost
costOf(Machine &m, F &&f)
{
    const Cycles c0 = m.cycles();
    const std::uint64_t r0 = m.refsExecuted();
    f();
    return {m.cycles() - c0, m.refsExecuted() - r0};
}

class SoftwareWalkSweep
    : public ::testing::TestWithParam<std::tuple<MachineConfig::Mode, bool>>
{
};

TEST_P(SoftwareWalkSweep, ChaseRelocateAndFreeAgreeWithPeek)
{
    setVerbose(false);
    const auto &[mode, accelerated] = GetParam();
    MachineConfig cfg = MachineConfig{}
                            .forwardingMode(mode)
                            .cyclePolicy(CyclePolicy::abort);
    if (accelerated)
        cfg.ftc().collapse();
    for (const unsigned hops : {1u, 2u, 63u, 64u, 65u, 66u, 129u, 200u}) {
        for (const Shape shape :
             {Shape::acyclic, Shape::cyclic, Shape::corrupt}) {
            SCOPED_TRACE(::testing::Message()
                         << "hops=" << hops << " shape=" << int(shape));
            const Observed peek = [&] {
                SoftwareWalkRig rig(cfg, hops, shape);
                return observe([&] {
                    return Observed{"", rig.m.peek(rig.head() + 4, 4)};
                });
            }();
            const bool ends = shape == Shape::acyclic;
            EXPECT_EQ(peek.error, ends ? "" : (shape == Shape::cyclic
                                                   ? "cycle"
                                                   : "integrity"));

            // chaseChain: peek's tail, at the oracle loop's cost.
            {
                SoftwareWalkRig rig(cfg, hops, shape);
                Addr tail = 0;
                Cost cost;
                EXPECT_EQ(errorOf([&] {
                              cost = costOf(rig.m, [&] {
                                  tail = chaseChain(rig.m, rig.head() + 4);
                              });
                          }),
                          peek.error);
                if (ends) {
                    EXPECT_EQ(tail, rig.tail() + 4);
                    EXPECT_EQ(rig.m.mem().readBytes(tail, 4), peek.value);
                    SoftwareWalkRig ref(cfg, hops, shape);
                    Addr oracle_tail = 0;
                    EXPECT_EQ(costOf(ref.m,
                                     [&] {
                                         oracle_tail = oracleChase(
                                             ref.m, ref.head() + 4);
                                     }),
                              cost);
                    EXPECT_EQ(oracle_tail, tail);
                }
            }

            // relocate: appends at peek's tail, or throws peek's error
            // with the heap bit-identical.
            {
                SoftwareWalkRig rig(cfg, hops, shape);
                const auto before = rawImage(rig.m.mem());
                Cost cost;
                EXPECT_EQ(errorOf([&] {
                              cost = costOf(rig.m, [&] {
                                  relocate(rig.m, rig.head(), rig.target, 1);
                              });
                          }),
                          peek.error);
                if (ends) {
                    EXPECT_TRUE(rig.m.mem().fbit(rig.tail()));
                    EXPECT_EQ(rig.m.mem().rawReadWord(rig.tail()),
                              rig.target);
                    EXPECT_EQ(rig.m.peek(rig.head() + 4, 4), peek.value);
                    SoftwareWalkRig ref(cfg, hops, shape);
                    EXPECT_EQ(costOf(ref.m,
                                     [&] {
                                         oracleRelocate(ref.m, ref.head(),
                                                        ref.target);
                                     }),
                              cost);
                } else {
                    EXPECT_EQ(rawImage(rig.m.mem()), before);
                }
            }

            // free: releases the whole chain, or throws peek's error
            // having released nothing.
            {
                SoftwareWalkRig rig(cfg, hops, shape);
                const Addr live = rig.alloc.bytesLive();
                Cost cost;
                EXPECT_EQ(errorOf([&] {
                              cost = costOf(rig.m, [&] {
                                  rig.alloc.free(rig.head());
                              });
                          }),
                          peek.error);
                unsigned allocated = 0;
                for (unsigned i = 0; i <= hops; ++i)
                    allocated += rig.alloc.isAllocated(chainWord(i)) ? 1 : 0;
                if (ends) {
                    EXPECT_EQ(allocated, 0u);
                    EXPECT_EQ(rig.alloc.bytesLive(), chain_stride);
                    SoftwareWalkRig ref(cfg, hops, shape);
                    EXPECT_EQ(costOf(ref.m,
                                     [&] { oracleFree(ref.m, ref.head()); }),
                              cost);
                } else {
                    EXPECT_EQ(allocated, hops + 1);
                    EXPECT_EQ(rig.alloc.bytesLive(), live);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAccelerations, SoftwareWalkSweep,
    ::testing::Combine(
        ::testing::Values(MachineConfig::Mode::hardware,
                          MachineConfig::Mode::exception,
                          MachineConfig::Mode::perfect),
        ::testing::Bool()),
    [](const auto &info) {
        const MachineConfig::Mode mode = std::get<0>(info.param);
        const char *name = mode == MachineConfig::Mode::hardware
                               ? "hw"
                               : (mode == MachineConfig::Mode::exception
                                      ? "exc"
                                      : "perfect");
        return std::string(name)
               + (std::get<1>(info.param) ? "_accel" : "_plain");
    });

} // namespace
} // namespace memfwd
