/** @file Unit tests for the quarantining allocator + metadata plane. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/gate.hh"
#include "core/traps.hh"
#include "mem/metadata_plane.hh"
#include "mem/tagged_memory.hh"
#include "obs/trace.hh"
#include "runtime/machine.hh"
#include "runtime/quarantine_allocator.hh"
#include "runtime/ref_stream.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{
namespace
{

constexpr unsigned obj_words = 4;
constexpr Addr obj_bytes = obj_words * wordBytes;

struct Rig
{
    Machine machine;
    SimAllocator alloc;
    QuarantineAllocator qa;

    explicit Rig(const QuarantineConfig &arena = {},
                 const MachineConfig &cfg = MachineConfig{}.metadataPlane())
        : machine(cfg), alloc(machine, /*seed=*/7), qa(machine, alloc, arena)
    {
    }
};

QuarantineConfig
arenaOf(Addr capacity, QuarantinePolicy policy = QuarantinePolicy::watermark)
{
    QuarantineConfig arena;
    arena.capacity_bytes = capacity;
    arena.policy = policy;
    return arena;
}

/** Allocate an object and fill each word with base + word index. */
Addr
fillObject(Rig &r, std::uint64_t base)
{
    const Addr a = r.qa.alloc(obj_bytes);
    for (unsigned w = 0; w < obj_words; ++w)
        r.machine.poke(a + w * wordBytes, wordBytes, base + w);
    return a;
}

TEST(QuarantineAllocator, FreeRelocatesIntoQuarantine)
{
    Rig r;
    const Addr a = fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);
    const std::uint32_t b_id = r.qa.objectId(b);
    ASSERT_NE(b_id, 0u);
    EXPECT_NE(r.qa.objectId(a), b_id);

    r.qa.free(b);

    EXPECT_TRUE(r.qa.isQuarantined(b));
    EXPECT_EQ(r.qa.objectId(b), 0u); // no longer a live object
    EXPECT_EQ(r.qa.quarantinedFrees(), 1u);
    EXPECT_EQ(r.qa.liveBytes(), obj_bytes);
    EXPECT_EQ(r.qa.entries(), 1u);

    const Addr slot = r.qa.quarantineSlot(b);
    ASSERT_NE(slot, 0u);
    const MetadataPlane *plane = r.machine.mem().metadataPlane();
    ASSERT_NE(plane, nullptr);
    for (unsigned w = 0; w < obj_words; ++w) {
        // Freed storage forwards; the quarantine copy is tagged with
        // the dead object's id.
        EXPECT_TRUE(r.machine.mem().fbit(b + w * wordBytes));
        const MetadataPlane::Meta m = plane->get(slot + w * wordBytes);
        EXPECT_TRUE(MetadataPlane::isQuarantined(m));
        EXPECT_EQ(MetadataPlane::objectId(m), b_id);
        EXPECT_EQ(MetadataPlane::boundsClass(m),
                  MetadataPlane::boundsClassFor(obj_bytes));
    }
}

TEST(QuarantineAllocator, UafClassifiedByMatchingProvenance)
{
    Rig r;
    fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);
    const std::uint32_t b_id = r.qa.objectId(b);
    r.qa.free(b);

    std::vector<TrapInfo> traps;
    r.machine.forwarding().traps().install([&](const TrapInfo &info) {
        traps.push_back(info);
        return TrapAction::resume;
    });

    const AccessResult res = r.machine.access(
        Access::load(b + wordBytes, wordBytes).objectId(b_id));

    // Detection is non-destructive: forwarding still resolves the
    // dangling reference to the moved value.
    EXPECT_EQ(res.value, 0x201u);
    EXPECT_TRUE(res.trapped);
    EXPECT_EQ(r.machine.forwarding().stats().temporal_uaf, 1u);
    EXPECT_EQ(r.machine.forwarding().stats().temporal_oob, 0u);

    // Both the forwarding trap and the classified violation fire.
    ASSERT_FALSE(traps.empty());
    const TrapInfo &violation = traps.back();
    EXPECT_EQ(violation.kind, TrapKind::TemporalViolation);
    EXPECT_EQ(violation.initial_addr, b + wordBytes);
    EXPECT_EQ(violation.final_addr,
              r.qa.quarantineSlot(b) + wordBytes);
}

TEST(QuarantineAllocator, OobClassifiedOnForeignOrUnknownProvenance)
{
    Rig r;
    const Addr a = fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);
    ASSERT_EQ(a + obj_bytes, b) << "sequential placement must adjoin";
    const std::uint32_t a_id = r.qa.objectId(a);
    r.qa.free(b);

    // Overrun from A lands in B's freed slot: foreign id -> OOB.
    r.machine.access(
        Access::load(a + obj_bytes, wordBytes).objectId(a_id));
    EXPECT_EQ(r.machine.forwarding().stats().temporal_oob, 1u);

    // Unknown provenance (id 0) is also OOB, never UAF.
    r.machine.access(Access::load(b, wordBytes));
    EXPECT_EQ(r.machine.forwarding().stats().temporal_oob, 2u);
    EXPECT_EQ(r.machine.forwarding().stats().temporal_uaf, 0u);

    // In-bounds accesses to the live neighbour stay silent.
    r.machine.access(Access::load(a, wordBytes).objectId(a_id));
    EXPECT_EQ(r.machine.forwarding().stats().temporal_oob, 2u);
}

TEST(QuarantineAllocator, OrdinaryRelocationTrapsStayForwardingKind)
{
    Rig r;
    const Addr a = fillObject(r, 0x100);
    const Addr tgt = r.alloc.alloc(obj_bytes);

    std::vector<TrapKind> kinds;
    r.machine.forwarding().traps().install([&](const TrapInfo &info) {
        kinds.push_back(info.kind);
        return TrapAction::resume;
    });

    relocate(r.machine, a, tgt, obj_words);
    r.machine.access(Access::load(a, wordBytes));
    ASSERT_FALSE(kinds.empty());
    for (const TrapKind k : kinds)
        EXPECT_EQ(k, TrapKind::Forwarding);
    EXPECT_EQ(r.machine.forwarding().stats().temporal_uaf, 0u);
    EXPECT_EQ(r.machine.forwarding().stats().temporal_oob, 0u);
}

TEST(QuarantineAllocator, FtcInvalidatedPreciselyOnQuarantine)
{
    Rig r({}, MachineConfig{}.metadataPlane().ftcGeometry(64, 4));
    fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);
    const std::uint32_t b_id = r.qa.objectId(b);

    // Relocate B while live, then warm the FTC on its chain.
    const Addr mid = r.alloc.alloc(obj_bytes);
    relocate(r.machine, b, mid, obj_words);
    r.machine.access(Access::load(b, wordBytes));
    r.machine.access(Access::load(b, wordBytes));
    ASSERT_EQ(r.machine.forwarding().ftcPeek(b), mid);

    // Quarantining appends to the chain tail; the FTC entry for the
    // chain must be invalidated precisely, so the very next dangling
    // access walks to the quarantine slot and is classified.
    r.qa.free(b);
    const AccessResult res =
        r.machine.access(Access::load(b, wordBytes).objectId(b_id));
    EXPECT_EQ(res.value, 0x200u);
    EXPECT_EQ(r.machine.forwarding().stats().temporal_uaf, 1u);
    EXPECT_EQ(r.machine.forwarding().ftcPeek(b),
              r.qa.quarantineSlot(b));
}

TEST(QuarantineAllocator, WatermarkReclaimsAheadOfNeed)
{
    // Capacity of four objects, watermark 0.5: the arena steady-states
    // at two quarantined objects, reclaiming oldest-first.
    QuarantineConfig arena = arenaOf(4 * obj_bytes);
    arena.watermark = 0.5;
    Rig r(arena);

    std::vector<Addr> objs;
    for (int i = 0; i < 6; ++i)
        objs.push_back(fillObject(r, 0x100 * (i + 1)));
    for (const Addr o : objs)
        r.qa.free(o);

    EXPECT_EQ(r.qa.quarantinedFrees(), 6u);
    EXPECT_EQ(r.qa.degradedFrees(), 0u);
    EXPECT_GE(r.qa.reclaims(), 4u);
    EXPECT_LE(r.qa.liveBytes(), 2 * obj_bytes);
    EXPECT_LE(r.qa.entries(), 2u);

    // Oldest entries were reclaimed: storage really freed, metadata
    // cleared, so a stale access no longer reports a violation
    // (coverage ends when the quarantine recycles — by design).
    EXPECT_FALSE(r.qa.isQuarantined(objs[0]));
    EXPECT_FALSE(r.alloc.isAllocated(objs[0]));
    // Newest entries are still covered.
    EXPECT_TRUE(r.qa.isQuarantined(objs.back()));
}

TEST(QuarantineAllocator, OnFullPolicyRetriesWithBackoffThenReclaims)
{
    Rig r(arenaOf(4 * obj_bytes, QuarantinePolicy::on_full));

    std::vector<Addr> objs;
    for (int i = 0; i < 5; ++i)
        objs.push_back(fillObject(r, 0x100 * (i + 1)));

    for (int i = 0; i < 4; ++i)
        r.qa.free(objs[i]);
    // on_full never reclaims ahead of need.
    EXPECT_EQ(r.qa.reclaims(), 0u);
    EXPECT_EQ(r.qa.liveBytes(), 4 * obj_bytes);

    // The fifth free finds the arena full: backoff is charged as
    // compute cycles, one entry is reclaimed, and the free succeeds.
    const Cycles before = r.machine.cycles();
    r.qa.free(objs[4]);
    EXPECT_GT(r.machine.cycles(), before);
    EXPECT_GE(r.qa.retries(), 1u);
    EXPECT_GE(r.qa.reclaims(), 1u);
    EXPECT_EQ(r.qa.quarantinedFrees(), 5u);
    EXPECT_EQ(r.qa.degradedFrees(), 0u);
    EXPECT_TRUE(r.qa.isQuarantined(objs[4]));
}

TEST(QuarantineAllocator, ExhaustionDegradesGracefullyNeverAborts)
{
    // Capacity smaller than a single object: every free must degrade
    // to a plain free — counted, functional, no throw.
    Rig r(arenaOf(obj_bytes / 2));
    const Addr a = fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);

    ASSERT_NO_THROW(r.qa.free(b));
    EXPECT_EQ(r.qa.degradedFrees(), 1u);
    EXPECT_EQ(r.qa.quarantinedFrees(), 0u);
    EXPECT_GE(r.qa.retries(), 1u);
    EXPECT_FALSE(r.qa.isQuarantined(b));
    EXPECT_FALSE(r.alloc.isAllocated(b));

    // The machine is fully functional afterwards.
    ASSERT_NO_THROW(r.qa.free(a));
    EXPECT_EQ(r.qa.degradedFrees(), 2u);
    const Addr c = fillObject(r, 0x300);
    EXPECT_EQ(r.machine.peek(c, wordBytes), 0x300u);
}

TEST(QuarantineAllocator, DoubleFreeCountedAndIgnored)
{
    Rig r;
    const Addr b = fillObject(r, 0x200);
    r.qa.free(b);
    ASSERT_NO_THROW(r.qa.free(b));
    EXPECT_EQ(r.qa.doubleFrees(), 1u);
    EXPECT_EQ(r.qa.quarantinedFrees(), 1u);
    EXPECT_TRUE(r.qa.isQuarantined(b));
}

TEST(QuarantineAllocator, ReclaimAllReleasesEverything)
{
    Rig r;
    std::vector<Addr> objs;
    for (int i = 0; i < 4; ++i)
        objs.push_back(fillObject(r, 0x100 * (i + 1)));
    for (const Addr o : objs)
        r.qa.free(o);
    ASSERT_EQ(r.qa.entries(), 4u);

    r.qa.reclaimAll();
    EXPECT_EQ(r.qa.entries(), 0u);
    EXPECT_EQ(r.qa.liveBytes(), 0u);
    EXPECT_EQ(r.qa.reclaims(), 4u);
    EXPECT_EQ(r.machine.mem().metadataPlane()->taggedWords(), 0u);
    for (const Addr o : objs)
        EXPECT_FALSE(r.alloc.isAllocated(o));
}

TEST(QuarantineAllocator, DisabledConfigPassesStraightThrough)
{
    Rig r({}, MachineConfig{}); // no metadata plane
    const Addr b = fillObject(r, 0x200);
    r.qa.free(b);
    EXPECT_FALSE(r.alloc.isAllocated(b));
    EXPECT_EQ(r.qa.quarantinedFrees(), 0u);
    EXPECT_EQ(r.qa.degradedFrees(), 0u);
    EXPECT_EQ(r.qa.entries(), 0u);
}

TEST(QuarantineAllocator, MetricsExported)
{
    Rig r;
    fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);
    const std::uint32_t b_id = r.qa.objectId(b);
    r.qa.free(b);
    r.machine.access(Access::load(b, wordBytes).objectId(b_id)); // uaf
    r.machine.access(Access::load(b, wordBytes));                // oob

    const obs::MetricsNode m = r.machine.metrics();
    EXPECT_EQ(m.counterAt("quarantine.violations_uaf"), 1u);
    EXPECT_EQ(m.counterAt("quarantine.violations_oob"), 1u);
    EXPECT_EQ(m.counterAt("quarantine.live_bytes"), obj_bytes);
    EXPECT_EQ(m.counterAt("quarantine.quarantined_frees"), 1u);
    EXPECT_EQ(m.counterAt("quarantine.reclaims"), 0u);
    EXPECT_EQ(m.counterAt("quarantine.degraded_frees"), 0u);
}

TEST(QuarantineAllocator, TemporalViolationTraceEventEmitted)
{
    Rig r;
    const Addr a = fillObject(r, 0x100);
    const Addr b = fillObject(r, 0x200);
    const std::uint32_t a_id = r.qa.objectId(a);
    const std::uint32_t b_id = r.qa.objectId(b);
    r.qa.free(b);

    obs::RingBufferSink sink;
    r.machine.tracer().addSink(&sink);
    r.machine.access(Access::load(b, wordBytes).objectId(b_id));
    r.machine.access(
        Access::load(a + obj_bytes, wordBytes).objectId(a_id));
    r.machine.tracer().removeSink(&sink);

    std::vector<obs::TraceEvent> violations;
    for (const obs::TraceEvent &e : sink.events()) {
        if (e.kind == obs::EventKind::temporal_violation)
            violations.push_back(e);
    }
    ASSERT_EQ(violations.size(), 2u);
    EXPECT_EQ(violations[0].addr, b);
    EXPECT_EQ(violations[0].addr2, r.qa.quarantineSlot(b));
    EXPECT_EQ(violations[0].arg, 1u); // uaf
    EXPECT_EQ(violations[1].arg, 0u); // oob
}

TEST(QuarantineAllocator, AnalysisGateAcceptsQuarantineMicroPlans)
{
    Rig r;
    AnalysisGate gate(AnalyzeMode::enforce);
    r.machine.setAnalysisGate(&gate);
    const Addr b = fillObject(r, 0x200);
    ASSERT_NO_THROW(r.qa.free(b));
    EXPECT_TRUE(r.qa.isQuarantined(b));
    EXPECT_GE(gate.stats().plans_submitted, 1u);
    r.machine.setAnalysisGate(nullptr);
}

/** Replays a recorded access list through Machine::run(RefStream&). */
class ReplayStream : public RefStream
{
  public:
    explicit ReplayStream(const std::vector<Access> &accs) : accs_(accs) {}

    bool
    fill(AccessBatch &batch) override
    {
        const std::size_t before = batch.size();
        while (next_ < accs_.size() && !batch.full())
            batch.push(accs_[next_++]);
        return batch.size() != before;
    }

  private:
    const std::vector<Access> &accs_;
    std::size_t next_ = 0;
};

/**
 * PR6-style batch invariance, now with the metadata plane and a
 * populated quarantine: the same probe sequence must produce identical
 * cycles and violation counts per-call and at every batch capacity.
 */
TEST(QuarantineAllocator, BatchInvarianceWithPlaneAndQuarantine)
{
    constexpr int n_pairs = 8;

    struct Outcome
    {
        Cycles cycles;
        std::uint64_t uaf, oob;
        bool operator==(const Outcome &) const = default;
    };

    auto runScenario = [&](std::size_t batch_cap) -> Outcome {
        Rig r;
        std::vector<Access> probes;
        std::vector<std::pair<Addr, Addr>> pairs;
        for (int i = 0; i < n_pairs; ++i) {
            const Addr a = fillObject(r, 0x100 * (i + 1));
            const Addr b = fillObject(r, 0x1000 * (i + 1));
            pairs.emplace_back(a, b);
        }
        for (auto &[a, b] : pairs) {
            const std::uint32_t a_id = r.qa.objectId(a);
            const std::uint32_t b_id = r.qa.objectId(b);
            r.qa.free(b);
            probes.push_back(
                Access::load(b, wordBytes).objectId(b_id)); // uaf
            probes.push_back(Access::load(a + obj_bytes, wordBytes)
                                 .objectId(a_id)); // oob
            probes.push_back(
                Access::load(a, wordBytes).objectId(a_id)); // legal
        }

        if (batch_cap == 0) {
            for (const Access &acc : probes) {
                Access copy = acc;
                r.machine.access(copy);
            }
        } else {
            ReplayStream stream(probes);
            AccessBatch batch(batch_cap);
            while (true) {
                batch.clear();
                if (!stream.fill(batch))
                    break;
                r.machine.run(batch);
            }
        }
        const auto &fs = r.machine.forwarding().stats();
        return {r.machine.cycles(), fs.temporal_uaf, fs.temporal_oob};
    };

    const Outcome per_call = runScenario(0);
    EXPECT_EQ(per_call.uaf, n_pairs);
    EXPECT_EQ(per_call.oob, n_pairs);
    for (const std::size_t cap : {std::size_t(1), std::size_t(3),
                                  std::size_t(7), std::size_t(256)}) {
        const Outcome batched = runScenario(cap);
        EXPECT_EQ(batched, per_call) << "capacity " << cap;
    }
}

} // namespace
} // namespace memfwd
