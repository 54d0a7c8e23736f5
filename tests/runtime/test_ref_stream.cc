/**
 * @file
 * Reference replay (runtime/ref_stream.hh) and fast-forward tests.
 *
 * A fixed program of mixed references over forwarded words and user
 * traps must give the same loaded values, final addresses, trap
 * sequence and heap state timed and fast-forwarded; AccessBatch and
 * RefStream replay references through Machine::access() in order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "core/traps.hh"
#include "runtime/machine.hh"
#include "runtime/ref_stream.hh"
#include "runtime/relocation.hh"

namespace memfwd
{
namespace
{

constexpr Addr obj_base = 0x100000;
constexpr unsigned obj_count = 24;
constexpr unsigned obj_words = 4;
constexpr Addr reloc_base = 0x800000;

Addr
objAddr(unsigned i)
{
    return obj_base + Addr(i) * 0x100;
}

/** Everything fast-forward may not change, plus cycles. */
struct Outcome
{
    std::uint64_t cycles = 0;
    std::uint64_t refs = 0;
    std::uint64_t loads_forwarded = 0;
    std::uint64_t stores_forwarded = 0;
    /** (site, initial, final) per delivered trap, in order. */
    std::vector<std::uint64_t> traps;
    /** Loaded values, final addresses, fbits — the architectural log. */
    std::vector<std::uint64_t> log;
    std::uint64_t heap_sum = 0;
};

/**
 * A fixed mixed program: build objects, relocate a third of them
 * (creating chains), then hammer loads/stores/raw ops over the mix so
 * references resolve chains and deliver user traps.
 */
Outcome
runProgram(Machine &m)
{
    Outcome out;
    m.forwarding().traps().install([&](const TrapInfo &t) {
        out.traps.push_back(t.site);
        out.traps.push_back(t.initial_addr);
        out.traps.push_back(t.final_addr);
        return TrapAction::resume;
    });

    for (unsigned i = 0; i < obj_count; ++i)
        for (unsigned w = 0; w < obj_words; ++w)
            m.access(Access::store(objAddr(i) + w * wordBytes, wordBytes,
                                   i * 977 + w));

    // Relocate every third object; the forwarding words these leave
    // behind are what later references must chase.
    Addr bump = reloc_base;
    for (unsigned i = 0; i < obj_count; i += 3) {
        relocate(m, objAddr(i), bump, obj_words);
        bump += obj_words * wordBytes + 0x40;
    }

    Rng rng(testSeed(0x5eed));
    for (unsigned op = 0; op < 250; ++op) {
        const unsigned obj = unsigned(rng.below(obj_count));
        const Addr addr =
            objAddr(obj) + rng.below(obj_words) * wordBytes;
        const std::uint64_t pick = rng.below(100);
        if (pick < 40) {
            const AccessResult r =
                m.access(Access::load(addr, wordBytes, 0, SiteId(op)));
            out.log.push_back(r.value);
            out.log.push_back(r.final_addr);
        } else if (pick < 70) {
            m.access(Access::store(addr, wordBytes, rng.next(), 0,
                                   SiteId(op)));
        } else if (pick < 80) {
            out.log.push_back(m.access(Access::readFBit(addr)).value);
        } else if (pick < 88) {
            out.log.push_back(m.access(Access::unforwardedRead(addr)).value);
        } else if (pick < 94) {
            m.access(Access::compute(rng.below(4) + 1));
        } else {
            m.access(Access::prefetch(addr, unsigned(rng.below(2)) + 1));
        }
    }

    for (unsigned i = 0; i < obj_count; ++i)
        for (unsigned w = 0; w < obj_words; ++w)
            out.heap_sum += m.peek(objAddr(i) + w * wordBytes, wordBytes);

    out.cycles = m.cycles();
    out.refs = m.refsExecuted();
    out.loads_forwarded = m.loadsForwarded();
    out.stores_forwarded = m.storesForwarded();
    return out;
}

Outcome
runPerCall(const MachineConfig &cfg)
{
    Machine m(cfg);
    return runProgram(m);
}

class BatchInvariance
    : public ::testing::TestWithParam<MachineConfig::Mode>
{
};

TEST_P(BatchInvariance, FastForwardKeepsArchitecturalLog)
{
    // Functional fast-forward drops timing but nothing else: the same
    // program yields the identical value/address/trap log and heap.
    const MachineConfig timed_cfg =
        MachineConfig{}.forwardingMode(GetParam());
    const MachineConfig ff_cfg =
        MachineConfig{}.forwardingMode(GetParam()).fastForward();

    const Outcome timed = runPerCall(timed_cfg);
    const Outcome ff = runPerCall(ff_cfg);

    // The program must actually exercise forwarding.
    EXPECT_GT(timed.loads_forwarded + timed.stores_forwarded, 0u);
    EXPECT_EQ(timed.log, ff.log);
    EXPECT_EQ(timed.traps, ff.traps);
    EXPECT_EQ(timed.heap_sum, ff.heap_sum);
    EXPECT_EQ(timed.refs, ff.refs);
    EXPECT_LT(ff.cycles, timed.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BatchInvariance,
    ::testing::Values(MachineConfig::Mode::hardware,
                      MachineConfig::Mode::exception),
    [](const ::testing::TestParamInfo<MachineConfig::Mode> &info) {
        return info.param == MachineConfig::Mode::exception ? "exception"
                                                            : "hardware";
    });

// ---------------------------------------------------------------------
// AccessBatch mechanics
// ---------------------------------------------------------------------

TEST(AccessBatch, ClearKeepsCapacity)
{
    AccessBatch batch(2);
    EXPECT_TRUE(batch.empty());
    batch.push(Access::compute(1));
    batch.push(Access::compute(1));
    EXPECT_TRUE(batch.full());
    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.capacity(), 2u);
}

TEST(RefStreamApi, DefaultCapacityIsPositive)
{
    EXPECT_GE(default_batch_capacity, 1u);
    EXPECT_EQ(AccessBatch().capacity(), default_batch_capacity);
}

// ---------------------------------------------------------------------
// RefStream draining
// ---------------------------------------------------------------------

/** Replays a fixed reference vector, honoring batch capacity. */
class VectorStream : public RefStream
{
  public:
    explicit VectorStream(std::vector<Access> refs)
        : refs_(std::move(refs))
    {
    }

    bool
    fill(AccessBatch &batch) override
    {
        ++fills_;
        bool appended = false;
        while (next_ < refs_.size() && !batch.full()) {
            batch.push(refs_[next_++]);
            appended = true;
        }
        return appended;
    }

    unsigned fills() const { return fills_; }

  private:
    std::vector<Access> refs_;
    std::size_t next_ = 0;
    unsigned fills_ = 0;
};

TEST(RefStreamApi, MachineDrainsStreamToExhaustion)
{
    // 600 refs: several times the default batch capacity, so the
    // clear/fill/run loop must cycle more than once.
    std::vector<Access> refs;
    for (unsigned i = 0; i < 300; ++i)
        refs.push_back(Access::store(0x10000 + i * wordBytes, wordBytes,
                                     i + 1));
    for (unsigned i = 0; i < 300; ++i)
        refs.push_back(Access::load(0x10000 + i * wordBytes, wordBytes));

    Machine m;
    VectorStream stream(refs);
    m.run(stream);

    EXPECT_EQ(m.refsExecuted(), 600u);
    EXPECT_GE(stream.fills(), 2u);
    for (unsigned i = 0; i < 300; ++i)
        ASSERT_EQ(m.peek(0x10000 + i * wordBytes, wordBytes), i + 1);
}

} // namespace
} // namespace memfwd
