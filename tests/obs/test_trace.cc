/**
 * @file
 * Event tracing: ring-buffer bounds, the chrome-trace exporter, and the
 * events the Machine emits (references, walks, traps, FTC hits, ...).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/cycle_check.hh"
#include "core/fault_injector.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd::obs
{
namespace
{

std::vector<TraceEvent>
eventsOfKind(const RingBufferSink &ring, EventKind kind)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : ring.events())
        if (e.kind == kind)
            out.push_back(e);
    return out;
}

TEST(RingBufferSink, KeepsNewestAndCountsDropped)
{
    RingBufferSink ring(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.emit({EventKind::reference, AccessType::load, Cycles(i),
                   i, 0, 0, 8});

    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.total(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);

    const auto events = ring.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].ts, Cycles(6 + i)) << "oldest-first order";

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
}

TEST(Tracer, InactiveWithoutSinksAndMultiSinkFanout)
{
    Tracer tracer;
    EXPECT_FALSE(tracer.active());

    RingBufferSink a(8), b(8);
    tracer.addSink(&a);
    tracer.addSink(&b);
    EXPECT_TRUE(tracer.active());
    tracer.emit({EventKind::trap, AccessType::load, 5, 1, 2, 3, 8});
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(b.total(), 1u);

    tracer.removeSink(&a);
    tracer.emit({EventKind::trap, AccessType::load, 6, 1, 2, 3, 8});
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(b.total(), 2u);

    tracer.removeSink(&b);
    EXPECT_FALSE(tracer.active());
}

TEST(Exporters, ChromeTraceIsValidAndMonotonic)
{
    // Deliberately out-of-order input: the exporter must sort.
    std::vector<TraceEvent> events = {
        {EventKind::reference, AccessType::load, 30, 0x1, 0x1, 0, 8},
        {EventKind::chain_walk, AccessType::load, 10, 0x2, 0x3, 1, 8},
        {EventKind::relocation, AccessType::store, 20, 0x4, 0x5, 8, 0},
    };
    const Json doc = chromeTrace(events);
    const Json *trace_events = doc.find("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_TRUE(trace_events->isArray());

    Cycles last_ts = 0;
    unsigned timed = 0;
    for (const Json &e : trace_events->items()) {
        if (!e.has("ts"))
            continue; // metadata records carry no timestamp
        const Cycles ts = e.find("ts")->asU64();
        EXPECT_GE(ts, last_ts) << "timestamps must be monotonic";
        last_ts = ts;
        ++timed;
    }
    EXPECT_EQ(timed, events.size());
}

TEST(MachineTracing, EmitsReferenceWalkAndRelocationEvents)
{
    Machine m;
    RingBufferSink ring;
    m.tracer().addSink(&ring);

    m.access(Access::store(0x1000, 8, 77));
    relocate(m, 0x1000, 0x5000, 1);
    const AccessResult r = m.access(Access::load(0x1000, 8));
    EXPECT_EQ(r.value, 77u);
    EXPECT_EQ(r.hops, 1u);

    const auto relocations = eventsOfKind(ring, EventKind::relocation);
    ASSERT_EQ(relocations.size(), 1u);
    EXPECT_EQ(relocations[0].addr, 0x1000u);
    EXPECT_EQ(relocations[0].addr2, 0x5000u);
    EXPECT_EQ(relocations[0].arg, 1u); // words moved

    const auto walks = eventsOfKind(ring, EventKind::chain_walk);
    ASSERT_EQ(walks.size(), 1u);
    EXPECT_EQ(walks[0].access, AccessType::load);
    EXPECT_EQ(walks[0].addr, 0x1000u);
    EXPECT_EQ(walks[0].addr2, 0x5000u);
    EXPECT_EQ(walks[0].arg, 1u); // hops

    const auto refs = eventsOfKind(ring, EventKind::reference);
    EXPECT_GE(refs.size(), 2u); // the store and the load at least

    m.tracer().removeSink(&ring);
    const std::uint64_t total = ring.total();
    m.access(Access::load(0x1000, 8));
    EXPECT_EQ(ring.total(), total) << "no events after removal";
}

TEST(MachineTracing, EmitsRollbackOnFailedRelocation)
{
    Machine m;
    RingBufferSink ring;
    m.tracer().addSink(&ring);

    m.access(Access::store(0x1000, 8, 1));
    m.access(Access::store(0x1008, 8, 2));
    FaultInjector faults;
    faults.armSpec("allocfail@relocate:nth=2");
    m.setFaultInjector(&faults);
    EXPECT_THROW(relocate(m, 0x1000, 0x9000, 2), AllocFailure);

    const auto rollbacks = eventsOfKind(ring, EventKind::rollback);
    ASSERT_EQ(rollbacks.size(), 1u);
    EXPECT_EQ(rollbacks[0].addr, 0x1000u);
    EXPECT_EQ(rollbacks[0].addr2, 0x9000u);
    EXPECT_GT(rollbacks[0].arg, 0u); // journal entries undone
    EXPECT_TRUE(eventsOfKind(ring, EventKind::relocation).empty());
}

TEST(MachineTracing, EmitsTrapEvents)
{
    Machine m;
    RingBufferSink ring;
    m.tracer().addSink(&ring);

    m.access(Access::store(0x1000, 8, 9));
    relocate(m, 0x1000, 0x6000, 1);
    m.forwarding().traps().install(
        [](const TrapInfo &) { return TrapAction::resume; });
    m.access(Access::load(0x1000, 8));

    const auto traps = eventsOfKind(ring, EventKind::trap);
    ASSERT_EQ(traps.size(), 1u);
    EXPECT_EQ(traps[0].addr, 0x1000u);
    EXPECT_EQ(traps[0].addr2, 0x6000u);
    EXPECT_EQ(traps[0].arg, 1u); // hops at delivery
}

using HookRecord = std::tuple<Addr, unsigned, AccessType>;

/** A filtering sink recording every demand reference's final address. */
class ReferenceRecorder : public TraceSink
{
  public:
    explicit ReferenceRecorder(std::vector<HookRecord> &out) : out_(out) {}

    void
    emit(const TraceEvent &e) override
    {
        if (e.kind == EventKind::reference)
            out_.push_back({e.addr2, e.size, e.access});
    }

  private:
    std::vector<HookRecord> &out_;
};

TEST(ReferenceSink, ObservesFinalAddresses)
{
    // A filtering TraceSink sees every demand reference with its
    // post-chain final address — the supported replacement for the
    // removed setTraceHook callback.
    std::vector<HookRecord> seen;
    Machine m;
    ReferenceRecorder rec(seen);
    m.tracer().addSink(&rec);

    for (unsigned i = 0; i < 4; ++i)
        m.access(Access::store(0x1000 + i * 8, 8, i));
    relocate(m, 0x1000, 0x7000, 4);
    const std::size_t before_loads = seen.size();
    for (unsigned i = 0; i < 4; ++i)
        m.access(Access::load(0x1000 + i * 8, 4));
    m.tracer().removeSink(&rec);

    ASSERT_EQ(seen.size(), before_loads + 4);
    for (unsigned i = 0; i < 4; ++i) {
        const auto &[final_addr, size, access] = seen[before_loads + i];
        EXPECT_EQ(final_addr, 0x7000u + i * 8) << "post-chain address";
        EXPECT_EQ(size, 4u);
        EXPECT_EQ(access, AccessType::load);
    }

    const std::size_t total = seen.size();
    m.access(Access::load(0x1000, 8));
    EXPECT_EQ(seen.size(), total) << "no events after sink removal";
    EXPECT_FALSE(m.tracer().active());
}

TEST(MachineTracing, EmitsFtcEventsOnHits)
{
    Machine m(MachineConfig{}.ftc());
    RingBufferSink ring;
    m.tracer().addSink(&ring);

    m.access(Access::store(0x1000, 8, 5));
    relocate(m, 0x1000, 0x5000, 1);
    m.access(Access::load(0x1000, 8)); // walk + FTC fill
    m.access(Access::load(0x1000, 8)); // FTC hit

    const auto hits = eventsOfKind(ring, EventKind::ftc);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].addr, 0x1000u);
    EXPECT_EQ(hits[0].addr2, 0x5000u);
    EXPECT_EQ(hits[0].arg, 1u); // chain length at fill time

    // The hit is not a walk: exactly one chain_walk event was emitted.
    EXPECT_EQ(eventsOfKind(ring, EventKind::chain_walk).size(), 1u);
}

} // namespace
} // namespace memfwd::obs
