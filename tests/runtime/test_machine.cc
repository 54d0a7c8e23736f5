/** @file Unit tests for the Machine facade. */

#include <gtest/gtest.h>

#include "core/cycle_check.hh"
#include "runtime/machine.hh"

namespace memfwd
{
namespace
{

TEST(Machine, LoadStoreRoundTrip)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 0x1122334455667788ull));
    const AccessResult r = m.access(Access::load(0x1000, 8));
    EXPECT_EQ(r.value, 0x1122334455667788ull);
    EXPECT_EQ(r.hops, 0u);
    EXPECT_EQ(r.final_addr, 0x1000u);
}

TEST(Machine, SubwordAccess)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 0));
    m.access(Access::store(0x1002, 2, 0xbeef));
    EXPECT_EQ(m.access(Access::load(0x1002, 2)).value, 0xbeefu);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 0xbeef0000ull);
}

TEST(Machine, TimeAdvancesWithWork)
{
    Machine m;
    const Cycles before = m.cycles();
    m.access(Access::compute(1000));
    EXPECT_GE(m.cycles(), before + 240);
}

TEST(Machine, LoadThroughForwardingChain)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 777));
    m.forwarding().forwardWord(0x1000, 0x2000);
    const AccessResult r = m.access(Access::load(0x1000, 8));
    EXPECT_EQ(r.value, 777u);
    EXPECT_EQ(r.hops, 1u);
    EXPECT_EQ(r.final_addr, 0x2000u);
    EXPECT_EQ(m.loadsForwarded(), 1u);
}

TEST(Machine, StoreThroughForwardingChain)
{
    Machine m;
    m.forwarding().forwardWord(0x1000, 0x2000);
    const AccessResult s = m.access(Access::store(0x1000, 8, 42));
    EXPECT_EQ(s.hops, 1u);
    EXPECT_EQ(s.final_addr, 0x2000u);
    // The value landed at the new location; the old word still holds
    // the forwarding address.
    EXPECT_EQ(m.mem().rawReadWord(0x2000), 42u);
    EXPECT_EQ(m.mem().rawReadWord(0x1000), 0x2000u);
    EXPECT_EQ(m.storesForwarded(), 1u);
}

TEST(Machine, IsaExtensionsBypassForwarding)
{
    // The Figure 1(b)/Figure 3 contract: a normal read of a forwarded
    // word returns the data at the final address; Unforwarded_Read
    // returns the forwarding address itself.
    Machine m;
    m.access(Access::store(0x0808, 8, 0));
    m.forwarding().forwardWord(0x0808, 0x5808);
    EXPECT_EQ(m.access(Access::load(0x0808, 8)).value, 0u);
    EXPECT_EQ(m.access(Access::unforwardedRead(0x0808)).value, 0x5808u);
    EXPECT_TRUE((m.access(Access::readFBit(0x0808)).value != 0));
    EXPECT_FALSE((m.access(Access::readFBit(0x5808)).value != 0));
}

TEST(Machine, UnforwardedWriteSetsWordAndBit)
{
    Machine m;
    m.access(Access::unforwardedWrite(0x3000, 0x4000, true));
    EXPECT_TRUE((m.access(Access::readFBit(0x3000)).value != 0));
    EXPECT_EQ(m.access(Access::unforwardedRead(0x3000)).value, 0x4000u);
    // And a normal load now follows it.
    m.access(Access::store(0x4000, 8, 99));
    EXPECT_EQ(m.access(Access::load(0x3000, 8)).value, 99u);
}

TEST(Machine, PeekPokeFollowForwardingWithoutTiming)
{
    Machine m;
    m.forwarding().forwardWord(0x1000, 0x2000);
    const Cycles before = m.cycles();
    const std::uint64_t loads_before = m.loads();
    m.poke(0x1000, 8, 1234);
    EXPECT_EQ(m.peek(0x1000, 8), 1234u);
    EXPECT_EQ(m.cycles(), before);
    EXPECT_EQ(m.loads(), loads_before);
    EXPECT_EQ(m.mem().rawReadWord(0x2000), 1234u);
}

TEST(Machine, PeekOnCycleThrowsCycleError)
{
    Machine m(MachineConfig{}.hopLimit(4));
    m.mem().unforwardedWrite(0x1000, 0x2000, true);
    m.mem().unforwardedWrite(0x2000, 0x3000, true);
    m.mem().unforwardedWrite(0x3000, 0x2000, true);
    EXPECT_THROW(m.peek(0x1000, 8), ForwardingCycleError);
    EXPECT_THROW(m.poke(0x1004, 4, 1), ForwardingCycleError);
    EXPECT_THROW(m.access(Access::load(0x1000, 8)), ForwardingCycleError);

    // A corrupt forwarding word is an integrity error, as in access().
    m.mem().unforwardedWrite(0x3000, 0x4003, true);
    EXPECT_THROW(m.peek(0x1000, 8), ForwardingIntegrityError);
    EXPECT_THROW(m.poke(0x1000, 8, 1), ForwardingIntegrityError);
}

TEST(Machine, PeekFollowsQuarantinePin)
{
    Machine m(MachineConfig{}.hopLimit(4).cyclePolicy(
        CyclePolicy::quarantine));
    m.mem().unforwardedWrite(0x1000, 0x2000, true);
    m.mem().unforwardedWrite(0x2000, 0x3000, true);
    m.mem().unforwardedWrite(0x3000, 0x2000, true);
    // Before the timed walk pins the chain, peek has no policy to apply.
    EXPECT_THROW(m.peek(0x1000, 8), ForwardingCycleError);

    const AccessResult r = m.access(Access::load(0x1000, 8));
    const Addr pin = m.forwarding().quarantinePin(0x1000);
    ASSERT_NE(pin, 0u);
    EXPECT_EQ(r.final_addr, pin);
    EXPECT_EQ(m.peek(0x1000, 8), r.value);
    EXPECT_EQ(m.peek(0x1004, 4), m.access(Access::load(0x1004, 4)).value);
}

TEST(Machine, PrefetchWarmsCache)
{
    Machine m;
    m.access(Access::prefetch(0x8000, 2));
    EXPECT_TRUE(m.hierarchy().l1d().contains(0x8000));
}

TEST(Machine, ForwardedLoadSlowerThanDirect)
{
    Machine a, b;
    a.access(Access::store(0x1000, 8, 1));
    b.access(Access::store(0x1000, 8, 1));
    b.forwarding().forwardWord(0x1000, 0x2000);
    // Warm both, then measure a dependent chain of loads.
    for (int i = 0; i < 4; ++i) {
        a.access(Access::load(0x1000, 8));
        b.access(Access::load(0x1000, 8));
    }
    Cycles ra = 0, rb = 0;
    for (int i = 0; i < 50; ++i) {
        ra = a.access(Access::load(0x1000, 8, ra)).ready;
        rb = b.access(Access::load(0x1000, 8, rb)).ready;
    }
    EXPECT_GT(b.cycles(), a.cycles());
}

TEST(Machine, FlattenedMetricsExportCounters)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 5));
    m.access(Access::load(0x1000, 8));
    const obs::MetricsNode metrics = m.metrics();
    EXPECT_EQ(metrics.counterAt("refs.loads"), 1u);
    EXPECT_EQ(metrics.counterAt("refs.stores"), 1u);
    EXPECT_GT(metrics.counterAt("cycles"), 0u);
    EXPECT_NO_THROW(metrics.counterAt("slots.busy"));
    EXPECT_NO_THROW(metrics.counterAt("traffic.l2_mem_bytes"));
}

TEST(Machine, DependentAccessesRespectAddrReady)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 0x2000));
    m.access(Access::store(0x2000, 8, 7));
    const AccessResult p = m.access(Access::load(0x1000, 8));
    const AccessResult v = m.access(Access::load(static_cast<Addr>(p.value), 8, p.ready));
    EXPECT_EQ(v.value, 7u);
    EXPECT_GT(v.ready, p.ready);
}

} // namespace
} // namespace memfwd
