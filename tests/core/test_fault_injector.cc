/** @file Unit tests for the deterministic fault injector. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/fault_injector.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{
namespace
{

/** Build 0x1000 -> 0x2000 -> ... -> terminal, `hops` links long. */
void
buildChain(TaggedMemory &mem, unsigned hops, Word terminal_payload = 42)
{
    for (unsigned i = 0; i < hops; ++i) {
        mem.unforwardedWrite(0x1000 + Addr(i) * 0x1000,
                             0x1000 + Addr(i + 1) * 0x1000, true);
    }
    mem.rawWriteWord(0x1000 + Addr(hops) * 0x1000, terminal_payload);
}

TEST(FaultSpecParse, FullGrammar)
{
    const auto specs = FaultInjector::parse(
        "cycle@resolve:nth=100;allocfail@alloc:nth=5,count=2;"
        "truncate@relocate:hop=3");
    ASSERT_EQ(specs.size(), 3u);

    EXPECT_EQ(specs[0].kind, FaultKind::cycle);
    EXPECT_EQ(specs[0].site, FaultSite::resolve);
    EXPECT_EQ(specs[0].nth, 100u);
    EXPECT_EQ(specs[0].count, 1u);

    EXPECT_EQ(specs[1].kind, FaultKind::alloc_fail);
    EXPECT_EQ(specs[1].site, FaultSite::alloc);
    EXPECT_EQ(specs[1].nth, 5u);
    EXPECT_EQ(specs[1].count, 2u);

    EXPECT_EQ(specs[2].kind, FaultKind::truncate);
    EXPECT_EQ(specs[2].site, FaultSite::relocate);
    EXPECT_EQ(specs[2].hop, 3u);
}

TEST(FaultSpecParse, Defaults)
{
    const auto specs = FaultInjector::parse("bitflip@resolve");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].nth, 1u);
    EXPECT_EQ(specs[0].count, 1u);
    EXPECT_EQ(specs[0].hop, 0u);
}

TEST(FaultSpecParse, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultInjector::parse("bitflip"), std::invalid_argument);
    EXPECT_THROW(FaultInjector::parse("gamma@resolve"),
                 std::invalid_argument);
    EXPECT_THROW(FaultInjector::parse("bitflip@nowhere"),
                 std::invalid_argument);
    EXPECT_THROW(FaultInjector::parse("bitflip@resolve:nth"),
                 std::invalid_argument);
    EXPECT_THROW(FaultInjector::parse("bitflip@resolve:nth=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultInjector::parse("bitflip@resolve:bogus=1"),
                 std::invalid_argument);
}

TEST(FaultInjector, ChainKindsRejectedAtAllocSite)
{
    FaultInjector inj;
    EXPECT_THROW(inj.armSpec("cycle@alloc"), std::invalid_argument);
    EXPECT_NO_THROW(inj.armSpec("allocfail@alloc"));
    EXPECT_NO_THROW(inj.armSpec("allocfail@relocate"));
}

TEST(FaultInjector, NthCountsEligibleEvents)
{
    FaultInjector inj;
    inj.armSpec("allocfail@alloc:nth=3");
    EXPECT_FALSE(inj.shouldFail(FaultSite::alloc));
    EXPECT_FALSE(inj.shouldFail(FaultSite::alloc));
    EXPECT_TRUE(inj.shouldFail(FaultSite::alloc));
    // count=1 (default): exhausted after one firing.
    EXPECT_FALSE(inj.shouldFail(FaultSite::alloc));
    EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultInjector, CountZeroFiresForever)
{
    FaultInjector inj;
    inj.armSpec("allocfail@alloc:count=0");
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(inj.shouldFail(FaultSite::alloc));
    EXPECT_EQ(inj.fired(), 5u);
}

TEST(FaultInjector, SitesAreIndependent)
{
    FaultInjector inj;
    inj.armSpec("allocfail@relocate");
    EXPECT_TRUE(inj.armedAt(FaultSite::relocate));
    EXPECT_FALSE(inj.armedAt(FaultSite::alloc));
    EXPECT_FALSE(inj.shouldFail(FaultSite::alloc));
    EXPECT_TRUE(inj.shouldFail(FaultSite::relocate));
    // Exhausted faults no longer count as armed.
    EXPECT_FALSE(inj.armedAt(FaultSite::relocate));
}

TEST(FaultInjector, BitFlipForgesTerminalWord)
{
    TaggedMemory mem;
    buildChain(mem, 2, /*terminal_payload=*/0x77);
    FaultInjector inj;
    const Addr victim = inj.injectBitFlip(mem, 0x1000);
    EXPECT_EQ(victim, 0x3000u);
    EXPECT_TRUE(mem.fbit(0x3000));
    EXPECT_EQ(mem.rawReadWord(0x3000), 0x77u); // payload untouched
}

TEST(FaultInjector, TruncationCutsRequestedHop)
{
    TaggedMemory mem;
    buildChain(mem, 3);
    FaultInjector inj;
    const Addr victim = inj.injectTruncation(mem, 0x1000, /*hop=*/2);
    EXPECT_EQ(victim, 0x2000u);
    EXPECT_FALSE(mem.fbit(0x2000));
    EXPECT_EQ(mem.rawReadWord(0x2000), 0x3000u); // payload survives
    // The chain now ends early.
    EXPECT_TRUE(mem.fbit(0x1000));
    EXPECT_FALSE(mem.fbit(0x2000));
}

TEST(FaultInjector, CycleRedirectsLastForwardingWord)
{
    TaggedMemory mem;
    buildChain(mem, 3);
    FaultInjector inj;
    const Addr victim = inj.injectCycle(mem, 0x1000);
    EXPECT_EQ(victim, 0x3000u);
    EXPECT_TRUE(mem.fbit(0x3000));
    EXPECT_EQ(mem.rawReadWord(0x3000), 0x1000u);
}

TEST(FaultInjector, CycleOnUnforwardedWordSelfLoops)
{
    TaggedMemory mem;
    mem.rawWriteWord(0x1000, 99);
    FaultInjector inj;
    const Addr victim = inj.injectCycle(mem, 0x1000);
    EXPECT_EQ(victim, 0x1000u);
    EXPECT_TRUE(mem.fbit(0x1000));
    EXPECT_EQ(mem.rawReadWord(0x1000), 0x1000u);
}

/**
 * 0x1000 -> 0x2000 -> misaligned 0x3003: a chain already corrupt at
 * 0x2000.  Rounding that payload to a word would walk on into the
 * chain 0x3000 -> 0x4000 -> data, which is not part of this one.
 */
void
buildCorruptChain(TaggedMemory &mem)
{
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x3003, true);
    mem.unforwardedWrite(0x3000, 0x4000, true);
    mem.rawWriteWord(0x4000, 42);
}

TEST(FaultInjector, BitFlipStopsAtCorruptWord)
{
    TaggedMemory mem;
    buildCorruptChain(mem);
    FaultInjector inj;
    // The corrupt word ends the chain, so it is the one flipped.
    EXPECT_EQ(inj.injectBitFlip(mem, 0x1000), 0x2000u);
    EXPECT_FALSE(mem.fbit(0x2000));
    EXPECT_FALSE(mem.fbit(0x4000));
}

TEST(FaultInjector, TruncationStopsAtCorruptWord)
{
    TaggedMemory mem;
    buildCorruptChain(mem);
    FaultInjector inj;
    // Only 0x1000 forwards before the corrupt word; hop 3 is past the
    // chain's end, so the one candidate is drawn.
    EXPECT_EQ(inj.injectTruncation(mem, 0x1000, /*hop=*/3), 0x1000u);
    EXPECT_FALSE(mem.fbit(0x1000));
    EXPECT_TRUE(mem.fbit(0x3000));
}

TEST(FaultInjector, CycleStopsAtCorruptWord)
{
    TaggedMemory mem;
    buildCorruptChain(mem);
    FaultInjector inj;
    // The last forwarding word before the corrupt one loops back.
    EXPECT_EQ(inj.injectCycle(mem, 0x1000), 0x1000u);
    EXPECT_EQ(mem.rawReadWord(0x1000), 0x1000u);
    EXPECT_EQ(mem.rawReadWord(0x3000), 0x4000u);
}

TEST(FaultInjector, BitFlipOnLongCycleHitsLastLoopWord)
{
    // A loop longer than the hop limit: the members run to the word
    // before the first repeat, however long the loop is.
    TaggedMemory mem;
    const unsigned n = 40;
    for (unsigned i = 0; i < n; ++i)
        mem.unforwardedWrite(0x1000 + Addr(i) * 0x1000,
                             0x1000 + Addr((i + 1) % n) * 0x1000, true);
    FaultInjector inj;
    const Addr last = 0x1000 + Addr(n - 1) * 0x1000;
    EXPECT_EQ(inj.injectBitFlip(mem, 0x1000), last);
    EXPECT_FALSE(mem.fbit(last));
}

TEST(FaultInjector, RepairRestoresExactPreFaultState)
{
    TaggedMemory mem;
    buildChain(mem, 3, /*terminal_payload=*/0xabcd);
    FaultInjector inj;
    inj.injectBitFlip(mem, 0x1000);
    inj.injectTruncation(mem, 0x1000, 1);
    inj.injectCycle(mem, 0x1000);
    EXPECT_EQ(inj.fired(), 3u);
    ASSERT_EQ(inj.log().size(), 3u);

    inj.repair(mem);
    EXPECT_TRUE(inj.log().empty());
    EXPECT_EQ(inj.fired(), 3u); // lifetime counter survives repair
    for (unsigned i = 0; i < 3; ++i) {
        const Addr a = 0x1000 + Addr(i) * 0x1000;
        EXPECT_TRUE(mem.fbit(a)) << std::hex << a;
        EXPECT_EQ(mem.rawReadWord(a), a + 0x1000);
    }
    EXPECT_FALSE(mem.fbit(0x4000));
    EXPECT_EQ(mem.rawReadWord(0x4000), 0xabcdu);
}

TEST(FaultInjector, DeterministicAcrossRuns)
{
    // Same seed, same chain, random hop selection: identical victims.
    std::vector<Addr> first, second;
    for (int run = 0; run < 2; ++run) {
        TaggedMemory mem;
        buildChain(mem, 8);
        FaultInjector inj(/*seed=*/1234);
        auto &out = run == 0 ? first : second;
        for (int i = 0; i < 4; ++i) {
            out.push_back(inj.injectTruncation(mem, 0x1000, /*hop=*/0));
            inj.repair(mem);
        }
    }
    EXPECT_EQ(first, second);
}

TEST(FaultInjector, CorruptChainAppliesArmedFaultAtSite)
{
    TaggedMemory mem;
    buildChain(mem, 2);
    FaultInjector inj;
    inj.armSpec("cycle@resolve:nth=2");
    inj.corruptChain(mem, 0x1000, FaultSite::resolve); // event 1: no fire
    EXPECT_EQ(inj.fired(), 0u);
    inj.corruptChain(mem, 0x1000, FaultSite::relocate); // wrong site
    EXPECT_EQ(inj.fired(), 0u);
    inj.corruptChain(mem, 0x1000, FaultSite::resolve); // event 2: fires
    EXPECT_EQ(inj.fired(), 1u);
    EXPECT_EQ(inj.log().back().kind, FaultKind::cycle);
    EXPECT_EQ(inj.log().back().site, FaultSite::resolve);
    EXPECT_EQ(mem.rawReadWord(0x2000), 0x1000u);
}

TEST(FaultSpecParse, MarkerKindsAndFreeSite)
{
    const auto specs =
        FaultInjector::parse("uaf@free:nth=3,count=0;oob@alloc:nth=5");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].kind, FaultKind::use_after_free);
    EXPECT_EQ(specs[0].site, FaultSite::free);
    EXPECT_EQ(specs[0].nth, 3u);
    EXPECT_EQ(specs[0].count, 0u);
    EXPECT_EQ(specs[1].kind, FaultKind::oob);
    EXPECT_EQ(specs[1].site, FaultSite::alloc);
}

TEST(FaultSpecParse, EmptySegmentsAreSkipped)
{
    EXPECT_TRUE(FaultInjector::parse("").empty());
    EXPECT_TRUE(FaultInjector::parse(";;").empty());
    const auto specs = FaultInjector::parse(";bitflip@resolve;");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].kind, FaultKind::bit_flip);
}

TEST(FaultSpecParse, ErrorMessagesNameTheOffendingToken)
{
    const auto message = [](const std::string &spec) {
        try {
            FaultInjector::parse(spec);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(message("bitflip@nowhere").find("unknown fault site "
                                             "'nowhere'"),
              std::string::npos);
    EXPECT_NE(message("gamma@resolve").find("unknown fault kind 'gamma'"),
              std::string::npos);
    EXPECT_NE(message("bitflip").find("missing '@site'"),
              std::string::npos);
    EXPECT_NE(message("bitflip@resolve:nth=0").find("nth must be >= 1"),
              std::string::npos);
    EXPECT_NE(message("bitflip@resolve:nth").find("not key=value"),
              std::string::npos);
}

TEST(FaultSpecParse, ParamAccumulationAcrossKeys)
{
    // All three params on one spec, in any order, values in hex or dec.
    const auto specs =
        FaultInjector::parse("truncate@relocate:count=4,hop=0x2,nth=7");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].nth, 7u);
    EXPECT_EQ(specs[0].count, 4u);
    EXPECT_EQ(specs[0].hop, 2u);
}

TEST(FaultInjector, ChainKindsRejectedAtFreeSite)
{
    FaultInjector inj;
    try {
        inj.armSpec("cycle@free");
        FAIL() << "cycle@free must be rejected";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "chain faults cannot be armed at the free site"),
                  std::string::npos);
    }
    // Marker kinds are selection events, valid anywhere.
    EXPECT_NO_THROW(inj.armSpec("uaf@free"));
    EXPECT_NO_THROW(inj.armSpec("oob@alloc"));
}

TEST(FaultInjector, TriggersHonoursNthAndCount)
{
    FaultInjector inj;
    inj.armSpec("uaf@free:nth=2,count=2");
    EXPECT_FALSE(inj.triggers(FaultSite::free, FaultKind::use_after_free));
    EXPECT_TRUE(inj.triggers(FaultSite::free, FaultKind::use_after_free));
    EXPECT_TRUE(inj.triggers(FaultSite::free, FaultKind::use_after_free));
    EXPECT_FALSE(inj.triggers(FaultSite::free, FaultKind::use_after_free));
    EXPECT_EQ(inj.fired(), 2u);
    EXPECT_EQ(inj.log().back().kind, FaultKind::use_after_free);
    EXPECT_EQ(inj.log().back().site, FaultSite::free);
}

TEST(FaultInjector, TriggersZeroCountSelectsEveryEvent)
{
    FaultInjector inj;
    inj.armSpec("oob@alloc:count=0");
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(inj.triggers(FaultSite::alloc, FaultKind::oob));
    // Wrong site or wrong kind never matches.
    EXPECT_FALSE(inj.triggers(FaultSite::free, FaultKind::oob));
    EXPECT_FALSE(
        inj.triggers(FaultSite::alloc, FaultKind::use_after_free));
}

TEST(FaultInjector, MarkersNeverCorruptMemory)
{
    TaggedMemory mem;
    buildChain(mem, 3);
    FaultInjector inj;
    inj.armSpec("uaf@free:count=0;oob@alloc:count=0");
    // corruptChain must ignore marker kinds entirely: no firings, no
    // heap mutation.
    inj.corruptChain(mem, 0x1000, FaultSite::resolve);
    EXPECT_EQ(inj.fired(), 0u);
    EXPECT_EQ(mem.rawReadWord(0x1000), 0x2000u);
    EXPECT_TRUE(mem.fbit(0x1000));
    // repair() after marker firings is a no-op, not a crash.
    EXPECT_TRUE(inj.triggers(FaultSite::alloc, FaultKind::oob));
    inj.repair(mem);
    EXPECT_EQ(mem.rawReadWord(0x3000), 0x4000u);
}

} // namespace
} // namespace memfwd
