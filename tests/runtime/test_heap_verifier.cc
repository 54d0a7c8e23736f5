/** @file Unit tests for the offline heap-integrity auditor. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/fault_injector.hh"
#include "runtime/compacting_heap.hh"
#include "runtime/heap_verifier.hh"
#include "runtime/quarantine_allocator.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/driver.hh"

namespace memfwd
{
namespace
{

TEST(HeapVerifier, EmptyHeapIsClean)
{
    TaggedMemory mem;
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.pages_scanned, 0u);
    EXPECT_EQ(r.fbits_set, 0u);
    EXPECT_TRUE(r.chains.empty());
}

TEST(HeapVerifier, CountsChainsFromHeads)
{
    Machine m;
    // Two chains: 0x1000 -> 0x2000 -> 0x3000, and 0x8000 -> 0x9000.
    m.access(Access::store(0x1000, 8, 1));
    m.access(Access::store(0x8000, 8, 2));
    relocate(m, 0x1000, 0x2000, 1);
    relocate(m, 0x1000, 0x3000, 1);
    relocate(m, 0x8000, 0x9000, 1);

    const AuditReport r = HeapVerifier(m.mem()).audit();
    EXPECT_TRUE(r.clean());
    ASSERT_EQ(r.chains.size(), 2u);
    EXPECT_EQ(r.fbits_set, 3u);
    EXPECT_EQ(r.max_chain_length, 2u);
    EXPECT_EQ(r.total_hops, 3u);
    // Heads are reported sorted; mid-chain words are not heads.
    EXPECT_EQ(r.chains[0].head, 0x1000u);
    EXPECT_EQ(r.chains[0].length, 2u);
    EXPECT_EQ(r.chains[0].final_addr, 0x3000u);
    EXPECT_EQ(r.chains[1].head, 0x8000u);
    EXPECT_EQ(r.chains[1].length, 1u);
}

TEST(HeapVerifier, DetectsCyclicChain)
{
    TaggedMemory mem;
    // Head 0x1000 leads into the loop 0x2000 <-> 0x3000.
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.unforwardedWrite(0x2000, 0x3000, true);
    mem.unforwardedWrite(0x3000, 0x2000, true);
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.cyclic_chains.size(), 1u);
    EXPECT_EQ(r.cyclic_chains[0], 0x1000u);
}

TEST(HeapVerifier, DetectsOrphanCycle)
{
    TaggedMemory mem;
    // A pure loop no head reaches: every member is pointed at.
    mem.unforwardedWrite(0x5000, 0x6000, true);
    mem.unforwardedWrite(0x6000, 0x5000, true);
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_FALSE(r.clean());
    EXPECT_TRUE(r.chains.empty()); // no heads at all
    EXPECT_EQ(r.orphan_cycle_words.size(), 2u);
}

TEST(HeapVerifier, DetectsSelfLoop)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x4000, 0x4000, true);
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_FALSE(r.clean());
    // A self-loop is its own target, so it is an orphan cycle.
    ASSERT_EQ(r.orphan_cycle_words.size(), 1u);
    EXPECT_EQ(r.orphan_cycle_words[0], 0x4000u);
}

TEST(HeapVerifier, DetectsDanglingTarget)
{
    TaggedMemory mem;
    // Target page never materialized: legitimate relocation writes the
    // target first, so this can only be corruption.
    mem.unforwardedWrite(0x1000, 0xdead0000, true);
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.dangling_targets.size(), 1u);
    EXPECT_EQ(r.dangling_targets[0], 0x1000u);
}

TEST(HeapVerifier, DetectsDanglingTargetNextToWrittenGranule)
{
    TaggedMemory mem;
    // The target's neighbouring 256-byte granule is written, its own
    // never is; both share one 4 KiB page, so only granule-grained
    // mapping tells them apart.
    mem.rawWriteWord(0x2000, 7);
    mem.unforwardedWrite(0x1000, 0x2100, true);
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.dangling_targets.size(), 1u);
    EXPECT_EQ(r.dangling_targets[0], 0x1000u);
}

TEST(HeapVerifier, DetectsMisalignedAndNullTargets)
{
    TaggedMemory mem;
    mem.rawWriteWord(0x2000, 0); // materialize the page
    mem.unforwardedWrite(0x1000, 0x2003, true); // misaligned
    mem.unforwardedWrite(0x1008, 0, true);      // null
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.misaligned_targets.size(), 1u);
    EXPECT_EQ(r.misaligned_targets[0], 0x1000u);
    ASSERT_EQ(r.null_targets.size(), 1u);
    EXPECT_EQ(r.null_targets[0], 0x1008u);
}

TEST(HeapVerifier, DetectsEveryInjectedCorruption)
{
    // 100% detection: each injector primitive leaves a heap the audit
    // flags (except truncation, which by design leaves a *valid*
    // shorter chain — verified via the before/after report diff).
    for (const FaultKind kind :
         {FaultKind::bit_flip, FaultKind::truncate, FaultKind::cycle}) {
        Machine m;
        m.access(Access::store(0x1000, 8, 0x1233)); // odd payload: misaligned as pointer
        relocate(m, 0x1000, 0x2000, 1);
        relocate(m, 0x1000, 0x3000, 1);
        const AuditReport before = HeapVerifier(m.mem()).audit();
        ASSERT_TRUE(before.clean());

        FaultInjector inj;
        switch (kind) {
          case FaultKind::bit_flip:
            inj.injectBitFlip(m.mem(), 0x1000);
            break;
          case FaultKind::truncate:
            inj.injectTruncation(m.mem(), 0x1000, /*hop=*/1);
            break;
          case FaultKind::cycle:
            inj.injectCycle(m.mem(), 0x1000);
            break;
          case FaultKind::alloc_fail:
            break;
        }

        const AuditReport after = HeapVerifier(m.mem()).audit();
        if (kind == FaultKind::truncate) {
            // Structurally valid but different: the chain got shorter.
            EXPECT_TRUE(after.clean());
            EXPECT_LT(after.total_hops, before.total_hops);
        } else {
            EXPECT_FALSE(after.clean())
                << "undetected " << faultKindName(kind);
        }

        // And repair() must return the audit to exactly clean.
        inj.repair(m.mem());
        const AuditReport repaired = HeapVerifier(m.mem()).audit();
        EXPECT_TRUE(repaired.clean());
        EXPECT_EQ(repaired.total_hops, before.total_hops);
    }
}

TEST(HeapVerifier, CleanAfterHealthWorkload)
{
    // The acceptance bar: a real optimized workload (relocations, live
    // chains) must audit clean when no faults are injected.
    RunConfig cfg;
    cfg.workload = "health";
    cfg.params.scale = 0.2; // smallest scale whose churn triggers
                            // re-linearization (real relocations)
    cfg.variant.layout_opt = true;

    Machine machine(cfg.machine);
    auto w = makeWorkload(cfg.workload, cfg.params);
    w->run(machine, cfg.variant);

    const AuditReport r = HeapVerifier(machine.mem()).audit();
    EXPECT_TRUE(r.clean()) << "violations: " << r.inconsistencies();
    EXPECT_GT(r.fbits_set, 0u); // the optimization really relocated
    EXPECT_GT(r.chains.size(), 0u);
}

TEST(HeapVerifier, CleanAfterCompactingHeapCollections)
{
    Machine machine;
    SimAllocator alloc(machine);
    CompactingHeap heap(machine, alloc, 1 << 16);

    // A small linked structure, collected twice (space flips back).
    std::vector<Addr> objs;
    for (int i = 0; i < 16; ++i)
        objs.push_back(heap.alloc(2, /*pointer_mask=*/i > 0 ? 1 : 0));
    for (int i = 1; i < 16; ++i)
        machine.poke(CompactingHeap::field(objs[i], 0), 8, objs[i - 1]);
    const Addr root_slot = alloc.alloc(8);
    machine.poke(root_slot, 8, objs.back());

    heap.collect({root_slot});
    heap.collect({root_slot});
    EXPECT_EQ(heap.stats().collections, 2u);

    const AuditReport r = HeapVerifier(machine.mem()).audit();
    EXPECT_TRUE(r.clean()) << "violations: " << r.inconsistencies();
}

TEST(AuditReport, StatsAndDump)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.rawWriteWord(0x2000, 7);
    mem.unforwardedWrite(0x3000, 0x3000, true); // self-loop

    const AuditReport r = HeapVerifier(mem).audit();
    const obs::MetricsNode audit = r.metrics();
    EXPECT_EQ(audit.counterAt("chains"), 1u);
    EXPECT_EQ(audit.counterAt("orphan_cycle_words"), 1u);
    EXPECT_EQ(audit.counterAt("inconsistencies"), 1u);

    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("orphan"), std::string::npos);
}

TEST(HeapVerifier, QuarantinedChainsAreExpectedStateNotCorruption)
{
    MachineConfig cfg;
    cfg.metadataPlane();
    Machine machine(cfg);
    SimAllocator alloc(machine, /*seed=*/7);
    QuarantineAllocator qa(machine, alloc);

    constexpr unsigned obj_words = 4;
    const Addr live = alloc.alloc(obj_words * wordBytes);
    machine.poke(live, 8, 42);
    const Addr dead = qa.alloc(obj_words * wordBytes);
    for (unsigned w = 0; w < obj_words; ++w)
        machine.poke(dead + w * wordBytes, 8, 0x100 + w);
    qa.free(dead);
    ASSERT_TRUE(qa.isQuarantined(dead));

    const AuditReport r = HeapVerifier(machine.mem()).audit();
    // A quarantined chain per freed word, flagged as such, counted as
    // expected state — never as leak or corruption.
    EXPECT_TRUE(r.clean()) << "violations: " << r.inconsistencies();
    EXPECT_EQ(r.quarantined_chains.size(), obj_words);
    unsigned flagged = 0;
    for (const AuditChain &c : r.chains) {
        if (c.quarantined) {
            ++flagged;
            EXPECT_GE(c.head, dead);
            EXPECT_LT(c.head, dead + obj_words * wordBytes);
        }
    }
    EXPECT_EQ(flagged, obj_words);

    const obs::MetricsNode audit = r.metrics();
    EXPECT_EQ(audit.counterAt("quarantined_chains"), obj_words);
    EXPECT_EQ(audit.counterAt("inconsistencies"), 0u);

    std::ostringstream os;
    r.dump(os);
    EXPECT_NE(os.str().find("quarantined"), std::string::npos);

    // Reclaiming drains the classification with the metadata.
    qa.reclaimAll();
    const AuditReport after = HeapVerifier(machine.mem()).audit();
    EXPECT_TRUE(after.quarantined_chains.empty());
    EXPECT_TRUE(after.clean());
}

TEST(HeapVerifier, PlaneOffChainsNeverClassifiedQuarantined)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x1000, 0x2000, true);
    mem.rawWriteWord(0x2000, 7);
    const AuditReport r = HeapVerifier(mem).audit();
    EXPECT_TRUE(r.quarantined_chains.empty());
    ASSERT_EQ(r.chains.size(), 1u);
    EXPECT_FALSE(r.chains[0].quarantined);
}

} // namespace
} // namespace memfwd
