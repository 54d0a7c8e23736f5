/** @file Unit tests for Relocate() (Figure 4(a)). */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "core/cycle_check.hh"
#include "core/fault_injector.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{
namespace
{

/** Sparse heap image: every word with a nonzero payload or a set fbit.
 *  Rollback may leave freshly materialized all-zero pages behind, so
 *  bit-identity is judged on content, not on the page set. */
std::map<Addr, std::pair<Word, bool>>
heapImage(const TaggedMemory &mem)
{
    std::map<Addr, std::pair<Word, bool>> image;
    for (Addr base : mem.mappedPageBases()) {
        for (Addr a = base; a < base + TaggedMemory::pageBytes;
             a += wordBytes) {
            const Word payload = mem.rawReadWord(a);
            const bool fbit = mem.fbit(a);
            if (payload != 0 || fbit)
                image.emplace(a, std::make_pair(payload, fbit));
        }
    }
    return image;
}

TEST(Relocate, SingleWordObject)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 4711));
    relocate(m, 0x1000, 0x9000, 1);
    EXPECT_EQ(m.mem().rawReadWord(0x9000), 4711u);
    EXPECT_TRUE(m.mem().fbit(0x1000));
    EXPECT_EQ(m.mem().rawReadWord(0x1000), 0x9000u);
    // A stale read still sees the data.
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 4711u);
}

TEST(Relocate, MultiWordObjectForwardsEachWord)
{
    Machine m;
    for (unsigned w = 0; w < 4; ++w)
        m.access(Access::store(0x1000 + w * 8, 8, 100 + w));
    relocate(m, 0x1000, 0x9000, 4);
    for (unsigned w = 0; w < 4; ++w) {
        EXPECT_EQ(m.mem().rawReadWord(0x9000 + w * 8), 100 + w);
        EXPECT_TRUE(m.mem().fbit(0x1000 + w * 8));
        EXPECT_EQ(m.mem().rawReadWord(0x1000 + w * 8), 0x9000u + w * 8);
        EXPECT_EQ(m.access(Access::load(0x1000 + w * 8, 8)).value, 100 + w);
    }
}

TEST(Relocate, AppendsToExistingChain)
{
    // Figure 4(a): Relocate loops until a clear forwarding bit so the
    // target is appended at the END of the chain.
    Machine m;
    m.access(Access::store(0x1000, 8, 55));
    relocate(m, 0x1000, 0x2000, 1);
    relocate(m, 0x1000, 0x3000, 1); // relocate again via the OLD address
    // Chain: 0x1000 -> 0x2000 -> 0x3000.
    EXPECT_EQ(m.mem().rawReadWord(0x1000), 0x2000u);
    EXPECT_EQ(m.mem().rawReadWord(0x2000), 0x3000u);
    EXPECT_TRUE(m.mem().fbit(0x2000));
    EXPECT_EQ(m.mem().rawReadWord(0x3000), 55u);
    EXPECT_FALSE(m.mem().fbit(0x3000));
    const AccessResult r = m.access(Access::load(0x1000, 8));
    EXPECT_EQ(r.value, 55u);
    EXPECT_EQ(r.hops, 2u);
}

TEST(Relocate, SecondRelocationViaCurrentAddress)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 66));
    relocate(m, 0x1000, 0x2000, 1);
    // The program relocates from the CURRENT location this time.
    relocate(m, 0x2000, 0x3000, 1);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 66u);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).hops, 2u);
    EXPECT_EQ(m.access(Access::load(0x2000, 8)).hops, 1u);
    EXPECT_EQ(m.access(Access::load(0x3000, 8)).hops, 0u);
}

TEST(Relocate, SubwordsTravelWithTheirWord)
{
    Machine m;
    m.access(Access::store(0x1000, 2, 0x1111));
    m.access(Access::store(0x1002, 2, 0x2222));
    m.access(Access::store(0x1004, 4, 0x33334444));
    relocate(m, 0x1000, 0x9000, 1);
    EXPECT_EQ(m.access(Access::load(0x1000, 2)).value, 0x1111u);
    EXPECT_EQ(m.access(Access::load(0x1002, 2)).value, 0x2222u);
    EXPECT_EQ(m.access(Access::load(0x1004, 4)).value, 0x33334444u);
    // And stale subword stores land in the new home.
    m.access(Access::store(0x1002, 2, 0xabcd));
    EXPECT_EQ(m.mem().readBytes(0x9002, 2), 0xabcdu);
}

TEST(Relocate, ChargesTimedWork)
{
    Machine m;
    const Cycles before = m.cycles();
    const std::uint64_t instr = m.cpu().instructions();
    relocate(m, 0x1000, 0x9000, 8);
    EXPECT_GT(m.cycles(), before);
    // Per word: Read_FBit + Unforwarded_Read + store + Unforwarded_Write.
    EXPECT_EQ(m.cpu().instructions() - instr, 8u * 4);
}

TEST(ChaseChain, FollowsToFinalAddress)
{
    Machine m;
    m.forwarding().forwardWord(0x1000, 0x2000);
    m.forwarding().forwardWord(0x2000, 0x3000);
    EXPECT_EQ(chaseChain(m, 0x1000), 0x3000u);
    EXPECT_EQ(chaseChain(m, 0x1006), 0x3006u); // offset preserved
    EXPECT_EQ(chaseChain(m, 0x4000), 0x4000u); // no chain
}

TEST(ChaseChain, ThrowsOnCycleInsteadOfWedging)
{
    Machine m;
    m.mem().unforwardedWrite(0x1000, 0x2000, true);
    m.mem().unforwardedWrite(0x2000, 0x1000, true);
    try {
        chaseChain(m, 0x1000);
        FAIL() << "cycle not detected";
    } catch (const ForwardingCycleError &e) {
        EXPECT_EQ(e.start(), 0x1000u);
        EXPECT_EQ(e.length(), 2u);
    }
}

TEST(ChaseChain, CorruptPayloadThrowsLikePeek)
{
    // A misaligned payload can only be corruption: the timed software
    // walk refuses it exactly as peek()'s untimed walk does, rather than
    // rounding it down to a plausible word.
    Machine m;
    m.mem().unforwardedWrite(0x1000, 0x2003, true);
    EXPECT_THROW(m.peek(0x1000, 8), ForwardingIntegrityError);
    try {
        chaseChain(m, 0x1000);
        FAIL() << "corrupt payload followed";
    } catch (const ForwardingIntegrityError &e) {
        EXPECT_EQ(e.word(), 0x1000u);
        EXPECT_EQ(e.payload(), 0x2003u);
    }
}

TEST(Relocate, MidRelocationFailureRollsBackBitIdentically)
{
    Machine m;
    for (unsigned w = 0; w < 6; ++w)
        m.access(Access::store(0x1000 + w * 8, 8, 0x500 + w));
    const auto before = heapImage(m.mem());

    // The injector fails the 4th per-word step: three words have
    // already been forwarded when the failure hits.
    FaultInjector faults;
    faults.armSpec("allocfail@relocate:nth=4");
    m.setFaultInjector(&faults);
    EXPECT_THROW(relocate(m, 0x1000, 0x9000, 6), AllocFailure);
    EXPECT_EQ(faults.fired(), 1u);

    // Every payload and forwarding bit is exactly as before the call.
    EXPECT_EQ(heapImage(m.mem()), before);
    for (unsigned w = 0; w < 6; ++w) {
        EXPECT_FALSE(m.mem().fbit(0x1000 + w * 8));
        EXPECT_EQ(m.access(Access::load(0x1000 + w * 8, 8)).value, 0x500 + w);
    }

    // The fault is spent; the same relocation now goes through whole.
    relocate(m, 0x1000, 0x9000, 6);
    for (unsigned w = 0; w < 6; ++w)
        EXPECT_EQ(m.access(Access::load(0x1000 + w * 8, 8)).value, 0x500 + w);
}

TEST(Relocate, RollbackRestoresExistingChains)
{
    // Words that already forward must roll back to their OLD chain
    // shape, not to unforwarded.
    Machine m;
    m.access(Access::store(0x1000, 8, 11));
    m.access(Access::store(0x1008, 8, 22));
    relocate(m, 0x1000, 0x5000, 2); // pre-existing 1-hop chains
    const auto before = heapImage(m.mem());

    FaultInjector faults;
    faults.armSpec("allocfail@relocate:nth=2");
    m.setFaultInjector(&faults);
    EXPECT_THROW(relocate(m, 0x1000, 0x9000, 2), AllocFailure);

    EXPECT_EQ(heapImage(m.mem()), before);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 11u);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).hops, 1u); // chain length unchanged
    EXPECT_EQ(m.access(Access::load(0x1008, 8)).value, 22u);
}

TEST(Relocate, CyclicSourceChainRollsBack)
{
    // Word 2's chain is a cycle: the relocation must detect it, throw,
    // and undo the two words it already forwarded.
    Machine m;
    m.access(Access::store(0x1000, 8, 1));
    m.access(Access::store(0x1008, 8, 2));
    m.mem().unforwardedWrite(0x1010, 0x7000, true);
    m.mem().unforwardedWrite(0x7000, 0x1010, true);
    const auto before = heapImage(m.mem());

    EXPECT_THROW(relocate(m, 0x1000, 0x9000, 3), ForwardingCycleError);
    EXPECT_EQ(heapImage(m.mem()), before);
}

TEST(Relocate, CorruptSourceChainRollsBack)
{
    // Word 1 forwards to a misaligned payload: the source chase throws
    // before anything is written at the word it would round to
    // (0x9000), and word 0, already forwarded, is undone.
    Machine m;
    m.access(Access::store(0x1000, 8, 1));
    m.mem().unforwardedWrite(0x1008, 0x9001, true);
    const auto before = heapImage(m.mem());

    EXPECT_THROW(relocate(m, 0x1000, 0x5000, 2), ForwardingIntegrityError);
    EXPECT_EQ(heapImage(m.mem()), before);
    EXPECT_FALSE(m.mem().fbit(0x9000));
}

TEST(Relocate, CyclicTargetChainRollsBack)
{
    // The copy lands where the target word's own chain ends; a cyclic
    // target chain has no end, so the relocation throws and undoes the
    // two words it already forwarded.
    Machine m;
    m.access(Access::store(0x1000, 8, 1));
    m.access(Access::store(0x1008, 8, 2));
    m.access(Access::store(0x1010, 8, 3));
    m.mem().unforwardedWrite(0x9010, 0x7000, true);
    m.mem().unforwardedWrite(0x7000, 0x9010, true);
    const auto before = heapImage(m.mem());

    EXPECT_THROW(relocate(m, 0x1000, 0x9000, 3), ForwardingCycleError);
    EXPECT_EQ(heapImage(m.mem()), before);
}

TEST(RelocateDeathTest, MisalignedEndpoints)
{
    Machine m;
    EXPECT_DEATH(relocate(m, 0x1001, 0x2000, 1), "word-aligned");
    EXPECT_DEATH(relocate(m, 0x1000, 0x2002, 1), "word-aligned");
}

} // namespace
} // namespace memfwd
