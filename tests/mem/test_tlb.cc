/** @file Unit tests for the machine's TLB reach model. */

#include <gtest/gtest.h>

#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{
namespace
{

TlbConfig
smallTlb(unsigned entries = 4)
{
    TlbConfig cfg;
    cfg.enabled = true;
    cfg.entries = entries;
    cfg.page_bytes = 4096;
    cfg.miss_penalty = 30;
    return cfg;
}

TEST(Tlb, FirstTouchWalks)
{
    MachineConfig with, without;
    with.tlb = smallTlb();
    Machine a(with), b(without);
    // The first touch of a page pays the walk; a second touch of the
    // same page does not add another.
    const Cycles a1 = a.access(Access::load(0x1000, 8)).ready;
    const Cycles b1 = b.access(Access::load(0x1000, 8)).ready;
    EXPECT_EQ(a1 - b1, 30u);
    const Cycles a2 = a.access(Access::load(0x1008, 8, a1)).ready;
    const Cycles b2 = b.access(Access::load(0x1008, 8, b1)).ready;
    EXPECT_EQ(a2 - b2, 30u);
    EXPECT_EQ(a.tlb().faults(), 1u);
    EXPECT_EQ(a.tlb().accesses(), 2u);
}

TEST(Tlb, LruEviction)
{
    MachineConfig mc;
    mc.tlb = smallTlb(2);
    Machine m(mc);
    auto walks = [&m](Addr page) {
        const std::uint64_t before = m.tlb().faults();
        m.access(Access::load(0x100000 + page * 4096, 8));
        return m.tlb().faults() - before;
    };
    walks(0);
    walks(1);
    walks(0); // page 0 MRU
    walks(2); // evicts page 1
    EXPECT_EQ(walks(0), 0u);
    EXPECT_EQ(walks(1), 1u); // was evicted
}

TEST(Tlb, MissRate)
{
    MachineConfig mc;
    mc.tlb = smallTlb();
    Machine m(mc);
    for (Addr a = 0x1000; a < 0x1020; a += 8)
        m.access(Access::load(a, 8));
    const obs::MetricsNode metrics = m.metrics();
    EXPECT_EQ(metrics.counterAt("tlb.hits"), 3u);
    EXPECT_EQ(metrics.counterAt("tlb.misses"), 1u);
    EXPECT_DOUBLE_EQ(metrics.gaugeAt("tlb.miss_rate"), 0.25);
}

TEST(TlbDeathTest, BadConfig)
{
    MachineConfig mc;
    mc.tlb.entries = 0;
    EXPECT_DEATH(Machine m(mc), "resident set must be nonempty");
    mc = MachineConfig();
    mc.tlb.page_bytes = 1000;
    EXPECT_DEATH(Machine m(mc), "power of two");
}

TEST(TlbMachine, DisabledByDefaultAndFree)
{
    Machine m;
    m.access(Access::load(0x1000, 8));
    EXPECT_EQ(m.tlb().accesses(), 0u);
}

TEST(TlbMachine, EnabledTlbChargesWalks)
{
    MachineConfig with, without;
    with.tlb = smallTlb(8);
    Machine a(with), b(without);

    // Touch 64 distinct pages, dependent chain: TLB walks serialize.
    Cycles da = 0, db = 0;
    for (unsigned p = 0; p < 64; ++p) {
        const Addr addr = 0x100000 + Addr(p) * 4096;
        da = a.access(Access::load(addr, 8, da)).ready;
        db = b.access(Access::load(addr, 8, db)).ready;
    }
    EXPECT_GT(a.cycles(), b.cycles());
    EXPECT_EQ(a.tlb().faults(), 64u);
}

TEST(TlbMachine, LinearizedDataNeedsFewerTranslations)
{
    // The page-footprint effect: scattered nodes thrash a small TLB,
    // packed nodes do not.
    MachineConfig mc;
    mc.tlb = smallTlb(8);

    auto touch = [](Machine &m, const std::vector<Addr> &addrs) {
        Cycles dep = 0;
        for (int pass = 0; pass < 3; ++pass)
            for (Addr a : addrs)
                dep = m.access(Access::load(a, 8, dep)).ready;
        return m.tlb().faults();
    };

    Machine scattered(mc), packed(mc);
    std::vector<Addr> far, near;
    for (unsigned i = 0; i < 64; ++i) {
        far.push_back(0x100000 + Addr(i) * 8192); // one node per page
        near.push_back(0x100000 + Addr(i) * 16);  // packed
    }
    const std::uint64_t misses_far = touch(scattered, far);
    const std::uint64_t misses_near = touch(packed, near);
    EXPECT_GT(misses_far, 100u); // thrash: re-missed every pass
    EXPECT_LE(misses_near, 2u);
}

} // namespace
} // namespace memfwd
