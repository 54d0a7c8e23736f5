/**
 * @file
 * LayoutBackend conformance suite: one battery of behavioural tests
 * run against all three backends, plus per-backend contract tests and
 * a cross-backend differential on the kv_server workload.
 *
 * The shared battery pins down the part of the contract every backend
 * must honour identically: allocate/write/resolve/read-back data
 * fidelity, free + re-allocate, objectBytes, and stats bookkeeping.
 * Where the backends legitimately diverge (who may relocate, what a
 * stale pointer means, what resolve costs) the per-backend tests pin
 * each side of the divergence explicitly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cycle_check.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload.hh"
#include "workloads/workload_util.hh"

namespace memfwd
{
namespace
{

constexpr unsigned obj_words = 6;
constexpr Addr obj_bytes = obj_words * wordBytes;

struct Rig
{
    Machine machine;
    SimAllocator alloc;
    std::unique_ptr<LayoutBackend> backend;

    explicit Rig(BackendKind kind)
        : machine(configFor(kind)), alloc(machine, /*seed=*/7),
          backend(makeLayoutBackend(machine, alloc))
    {
    }

    static MachineConfig
    configFor(BackendKind kind)
    {
        MachineConfig cfg;
        cfg.backend(kind);
        return cfg;
    }
};

/** Fill the object behind @p ref with a ref-independent pattern. */
void
fillObject(Machine &m, const LayoutBackend &b, BackendRef ref,
           std::uint64_t salt)
{
    const Addr a = b.peekAddr(ref);
    for (unsigned w = 0; w < obj_words; ++w)
        m.access(Access::store(a + w * wordBytes, wordBytes, mix64(salt, w)));
}

void
fillObject(Rig &r, BackendRef ref, std::uint64_t salt)
{
    fillObject(r.machine, *r.backend, ref, salt);
}

/** Fold the object's words (read through resolve()) into a checksum. */
std::uint64_t
readChecksum(Rig &r, BackendRef ref)
{
    const ResolvedRef res = r.backend->resolve(ref);
    std::uint64_t sum = 0;
    for (unsigned w = 0; w < obj_words; ++w) {
        const AccessResult v = r.machine.access(
            Access::load(res.addr + w * wordBytes, wordBytes, res.ready));
        sum = mix64(sum, v.value);
    }
    return sum;
}

class BackendConformance : public ::testing::TestWithParam<BackendKind>
{
};

// ----- shared battery: identical behaviour required ---------------------

TEST_P(BackendConformance, AllocateResolveReadBack)
{
    Rig r(GetParam());
    const BackendRef ref = r.backend->allocate(obj_bytes);
    fillObject(r, ref, 0xAB);
    const ResolvedRef res = r.backend->resolve(ref);
    EXPECT_EQ(res.addr, r.backend->peekAddr(ref));
    for (unsigned w = 0; w < obj_words; ++w) {
        const AccessResult v = r.machine.access(
            Access::load(res.addr + w * wordBytes, wordBytes, res.ready));
        EXPECT_EQ(v.value, mix64(0xAB, w));
    }
    EXPECT_EQ(r.backend->objectBytes(ref), obj_bytes);
    EXPECT_EQ(r.backend->stats().allocs, 1u);
}

TEST_P(BackendConformance, ChecksumIdenticalAcrossBackends)
{
    // The same alloc/write/read script must produce the same data (and
    // hence checksum) on every backend — only timing may differ.
    Rig r(GetParam());
    std::uint64_t sum = 0;
    std::vector<BackendRef> refs;
    for (unsigned i = 0; i < 8; ++i) {
        const BackendRef ref =
            r.backend->allocate(obj_bytes, Placement::scattered);
        fillObject(r, ref, 0x100 + i);
        refs.push_back(ref);
    }
    for (const BackendRef ref : refs)
        sum = mix64(sum, readChecksum(r, ref));
    // Golden value computed host-side from the same pure functions.
    std::uint64_t expect = 0;
    for (unsigned i = 0; i < 8; ++i) {
        std::uint64_t obj = 0;
        for (unsigned w = 0; w < obj_words; ++w)
            obj = mix64(obj, mix64(0x100 + i, w));
        expect = mix64(expect, obj);
    }
    EXPECT_EQ(sum, expect);
}

TEST_P(BackendConformance, FreeThenReallocate)
{
    Rig r(GetParam());
    const BackendRef a = r.backend->allocate(obj_bytes);
    fillObject(r, a, 1);
    r.backend->free(a);
    EXPECT_EQ(r.backend->stats().frees, 1u);
    EXPECT_EQ(r.backend->objectBytes(a), 0u);
    // The heap (and, under handles, the slot pool) must be reusable.
    const BackendRef b = r.backend->allocate(obj_bytes);
    fillObject(r, b, 2);
    EXPECT_EQ(readChecksum(r, b), [] {
        std::uint64_t obj = 0;
        for (unsigned w = 0; w < obj_words; ++w)
            obj = mix64(obj, mix64(2, w));
        return obj;
    }());
    r.backend->free(b);
}

TEST_P(BackendConformance, ResolveCountsAndPeekIsUntimed)
{
    Rig r(GetParam());
    const BackendRef ref = r.backend->allocate(obj_bytes);
    (void)r.backend->resolve(ref);
    (void)r.backend->resolve(ref);
    EXPECT_EQ(r.backend->stats().resolves, 2u);
    const std::uint64_t refs = r.machine.refsExecuted();
    (void)r.backend->peekAddr(ref);
    EXPECT_EQ(r.machine.refsExecuted(), refs)
        << "peekAddr must not touch the timed machine";
}

TEST_P(BackendConformance, CompactObjectPreservesDataWhenSupported)
{
    Rig r(GetParam());
    // Age the heap a little so first_fit has a hole to move into.
    const BackendRef hole = r.backend->allocate(obj_bytes);
    const BackendRef ref =
        r.backend->allocate(obj_bytes, Placement::scattered);
    fillObject(r, ref, 0xC0);
    const std::uint64_t before = readChecksum(r, ref);
    r.backend->free(hole);

    const bool moved = r.backend->compactObject(ref);
    EXPECT_EQ(moved, r.backend->canRelocate());
    if (moved) {
        EXPECT_EQ(r.backend->stats().compactions, 1u);
        EXPECT_EQ(r.backend->stats().relocations, 1u);
    } else {
        EXPECT_GE(r.backend->stats().refusals, 1u);
    }
    // The SAME ref must keep working and see the same data either way.
    EXPECT_EQ(readChecksum(r, ref), before);
    EXPECT_EQ(r.backend->objectBytes(ref), obj_bytes);
}

TEST_P(BackendConformance, MachineKeepsBackendCounters)
{
    MachineConfig cfg;
    cfg.backend(GetParam());
    Machine machine(cfg);
    SimAllocator alloc(machine, 7);
    EXPECT_EQ(machine.metrics().findChild("backend"), nullptr);

    // The counters are machine state: they outlive the backend.
    {
        const auto backend = makeLayoutBackend(machine, alloc);
        (void)backend->allocate(obj_bytes);
    }
    obs::MetricsNode m = machine.metrics();
    EXPECT_EQ(m.counterAt("backend.allocs"), 1u);
    EXPECT_EQ(m.gaugeAt("backend.kind"), double(GetParam()));

    // A second backend on the same machine adds to the same counters.
    {
        const auto backend = makeLayoutBackend(machine, alloc);
        (void)backend->allocate(obj_bytes);
    }
    EXPECT_EQ(machine.metrics().counterAt("backend.allocs"), 2u);

    // So does one built directly rather than by the factory, and its
    // kind becomes the one reported.
    {
        const std::unique_ptr<LayoutBackend> fwd =
            std::make_unique<ForwardingBackend>(machine, alloc);
        (void)fwd->allocate(obj_bytes);
    }
    m = machine.metrics();
    EXPECT_EQ(m.counterAt("backend.allocs"), 3u);
    EXPECT_EQ(m.gaugeAt("backend.kind"), double(BackendKind::forwarding));
}

/** Every word and forwarding bit of [base, base + bytes). */
std::vector<std::pair<std::uint64_t, bool>>
memoryImage(const Machine &m, Addr base, Addr bytes)
{
    std::vector<std::pair<std::uint64_t, bool>> image;
    for (Addr a = base; a < base + bytes; a += wordBytes)
        image.emplace_back(m.mem().rawReadWord(a), m.mem().fbit(a));
    return image;
}

TEST_P(BackendConformance, FullHeapIsAnAnswerNotAChange)
{
    // On a full heap tryAllocate() answers std::nullopt and allocate()
    // throws; neither touches the heap, the handle table, the timed
    // machine or the backend counters.
    MachineConfig cfg;
    cfg.backend(GetParam());
    Machine machine(cfg);
    const Addr span = 4096;
    SimAllocator alloc(machine, machine.config().heap_base, span,
                       testSeed(7));
    const auto backend = makeLayoutBackend(machine, alloc);
    std::vector<BackendRef> refs;
    while (const auto ref = backend->tryAllocate(obj_bytes))
        refs.push_back(*ref);
    ASSERT_EQ(refs.size(), span / obj_bytes);
    for (std::size_t i = 0; i < refs.size(); ++i)
        fillObject(machine, *backend, refs[i], i);

    const HandleTableConfig table;
    const auto heap = memoryImage(machine, alloc.base(), span);
    const auto slots = memoryImage(machine, table.table_base,
                                   refs.size() * wordBytes + wordBytes);
    const auto counters = machine.metrics().findChild("backend")->counters();
    const std::uint64_t timed_refs = machine.refsExecuted();
    const Addr live = alloc.bytesLive();
    const std::uint64_t calls = alloc.allocCalls();

    for (const Placement p : {Placement::sequential, Placement::scattered,
                              Placement::first_fit}) {
        EXPECT_EQ(backend->tryAllocate(obj_bytes, p), std::nullopt);
        EXPECT_THROW(backend->allocate(obj_bytes, p), AllocFailure);
    }
    EXPECT_EQ(memoryImage(machine, alloc.base(), span), heap);
    EXPECT_EQ(memoryImage(machine, table.table_base,
                          refs.size() * wordBytes + wordBytes),
              slots);
    EXPECT_EQ(machine.metrics().findChild("backend")->counters(), counters);
    EXPECT_EQ(machine.refsExecuted(), timed_refs);
    EXPECT_EQ(alloc.bytesLive(), live);
    EXPECT_EQ(alloc.allocCalls(), calls);

    // Room again after a free: the failed calls left nothing behind.
    backend->free(refs.back());
    EXPECT_TRUE(backend->tryAllocate(obj_bytes, Placement::first_fit));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values(BackendKind::forwarding,
                                           BackendKind::handles,
                                           BackendKind::none),
                         [](const auto &info) {
                             return std::string(
                                 backendKindName(info.param));
                         });

// ----- per-backend contract: where they legitimately diverge ------------

TEST(ForwardingBackendContract, RawRelocateLeavesChainStalePointersSafe)
{
    Rig r(BackendKind::forwarding);
    EXPECT_TRUE(r.backend->stalePointersSafe());
    const BackendRef ref = r.backend->allocate(obj_bytes);
    fillObject(r, ref, 9);
    const Addr old_addr = r.backend->peekAddr(ref);

    const Addr tgt = r.alloc.alloc(obj_bytes);
    ASSERT_TRUE(r.backend->relocate(old_addr, tgt, obj_words));
    EXPECT_EQ(r.backend->stats().relocations, 1u);
    EXPECT_EQ(r.backend->stats().relocated_words, obj_words);

    // The stale (old) address still reads the data — via the chain.
    const AccessResult v = r.machine.access(Access::load(old_addr, wordBytes));
    EXPECT_EQ(v.value, mix64(9, 0));
    EXPECT_GE(v.hops, 1u);
    // resolve() stays the identity: refs ARE addresses under forwarding.
    EXPECT_EQ(r.backend->resolve(ref).addr, ref);
    EXPECT_EQ(r.backend->stats().handle_derefs, 0u);
}

TEST(ForwardingBackendContract, CompactionPaysHopsNotDerefs)
{
    Rig r(BackendKind::forwarding);
    const BackendRef hole = r.backend->allocate(obj_bytes);
    const BackendRef ref =
        r.backend->allocate(obj_bytes, Placement::scattered);
    fillObject(r, ref, 3);
    r.backend->free(hole);
    ASSERT_TRUE(r.backend->compactObject(ref));
    // Reads through the (now stale) ref pay forwarding hops.
    const ResolvedRef res = r.backend->resolve(ref);
    const AccessResult v =
        r.machine.access(Access::load(res.addr, wordBytes, res.ready));
    EXPECT_EQ(v.value, mix64(3, 0));
    EXPECT_GE(v.hops, 1u);
    EXPECT_EQ(r.backend->stats().handle_derefs, 0u);
}

TEST(ForwardingBackendContract, CyclicRelocatePropagatesAfterRollback)
{
    // The transactional relocate()'s failure mode must survive the
    // interface: a cyclic source chain throws through the backend and
    // the attempt is not counted as a relocation.
    Rig r(BackendKind::forwarding);
    r.machine.access(Access::store(0x1000, 8, 1));
    r.machine.access(Access::store(0x1008, 8, 2));
    r.machine.mem().unforwardedWrite(0x1010, 0x7000, true);
    r.machine.mem().unforwardedWrite(0x7000, 0x1010, true);

    EXPECT_THROW(r.backend->relocate(0x1000, 0x9000, 3),
                 ForwardingCycleError);
    EXPECT_EQ(r.backend->stats().relocations, 0u);
    EXPECT_EQ(r.backend->stats().relocated_words, 0u);
    // Rolled back: the first word is unforwarded again.
    EXPECT_FALSE(r.machine.mem().fbit(0x1000));
    EXPECT_EQ(r.machine.access(Access::load(0x1000, 8)).value, 1u);
}

TEST(HandleBackendContract, RefusesRawRelocateResolvesThroughTable)
{
    Rig r(BackendKind::handles);
    EXPECT_FALSE(r.backend->stalePointersSafe());
    const BackendRef ref = r.backend->allocate(obj_bytes);
    const Addr obj = r.backend->peekAddr(ref);
    EXPECT_NE(ref, obj) << "a handle ref is the slot, not the object";

    // Raw-range relocation is exactly what the table cannot mediate.
    const Addr tgt = r.alloc.alloc(obj_bytes);
    EXPECT_FALSE(r.backend->relocate(obj, tgt, obj_words));
    EXPECT_EQ(r.backend->stats().refusals, 1u);
    EXPECT_EQ(r.backend->stats().relocations, 0u);

    // Every resolve is a timed dependent load of the slot.
    const std::uint64_t derefs = r.backend->stats().handle_derefs;
    const ResolvedRef res = r.backend->resolve(ref);
    EXPECT_EQ(res.addr, obj);
    EXPECT_EQ(r.backend->stats().handle_derefs, derefs + 1);
}

TEST(HandleBackendContract, CompactionMovesObjectAndRetargetsSlot)
{
    Rig r(BackendKind::handles);
    auto *hb = static_cast<HandleBackend *>(r.backend.get());
    const BackendRef hole = r.backend->allocate(obj_bytes);
    const BackendRef ref =
        r.backend->allocate(obj_bytes, Placement::scattered);
    fillObject(r, ref, 0xF00D);
    const std::uint64_t before = readChecksum(r, ref);
    const Addr old_obj = r.backend->peekAddr(ref);
    r.backend->free(hole);
    EXPECT_EQ(hb->liveHandles(), 1u);

    ASSERT_TRUE(r.backend->compactObject(ref));
    const Addr new_obj = r.backend->peekAddr(ref);
    EXPECT_NE(new_obj, old_obj);
    // Same ref (slot), new address, same data, and no forwarding state:
    // the old copy was freed outright, not chained.
    EXPECT_EQ(readChecksum(r, ref), before);
    EXPECT_FALSE(r.machine.mem().fbit(old_obj));
    EXPECT_EQ(r.machine.forwarding().stats().hops, 0u);
}

TEST(HandleBackend, FullTableLeavesHeapUnchanged)
{
    // A full handle table refuses before the object is placed, so the
    // failed allocation leaks nothing (AllocFailure: heap unchanged).
    MachineConfig cfg;
    cfg.backend(BackendKind::handles);
    Machine machine(cfg);
    SimAllocator alloc(machine, 7);
    HandleTableConfig table;
    table.capacity = 1;
    HandleBackend backend(machine, alloc, table);
    (void)backend.allocate(64);
    EXPECT_THROW(backend.allocate(64), AllocFailure);
    EXPECT_EQ(alloc.bytesLive(), 64u);
    EXPECT_EQ(alloc.allocCalls(), 1u);
    EXPECT_EQ(backend.stats().allocs, 1u);
    EXPECT_EQ(backend.liveHandles(), 1u);
}

TEST(NullBackendContract, RefusesEverythingButStaysFunctional)
{
    Rig r(BackendKind::none);
    EXPECT_FALSE(r.backend->canRelocate());
    EXPECT_TRUE(r.backend->stalePointersSafe()); // nothing ever moves
    const BackendRef ref = r.backend->allocate(obj_bytes);
    fillObject(r, ref, 5);
    const Addr before = r.backend->peekAddr(ref);

    const Addr tgt = r.alloc.alloc(obj_bytes);
    EXPECT_FALSE(r.backend->relocate(ref, tgt, obj_words));
    EXPECT_FALSE(r.backend->compactObject(ref));
    EXPECT_EQ(r.backend->stats().refusals, 2u);
    EXPECT_EQ(r.backend->peekAddr(ref), before) << "heap must be untouched";
    const AccessResult v = r.machine.access(Access::load(before, wordBytes));
    EXPECT_EQ(v.value, mix64(5, 0));
    EXPECT_EQ(v.hops, 0u);
}

// ----- workload gating --------------------------------------------------

TEST(BackendSupport, RawPointerWorkloadsRejectHandles)
{
    // The paper's eight traffic in raw pointers: forwarding/none only.
    for (const std::string &name : workloadNames()) {
        const auto w = makeWorkload(name);
        EXPECT_TRUE(w->supportsBackend(BackendKind::forwarding)) << name;
        EXPECT_TRUE(w->supportsBackend(BackendKind::none)) << name;
        EXPECT_FALSE(w->supportsBackend(BackendKind::handles)) << name;
    }
    // kv_server is fully mediated and runs everywhere.
    const auto kv = makeWorkload("kv_server");
    EXPECT_TRUE(kv->supportsBackend(BackendKind::handles));
    EXPECT_EQ(extendedWorkloadNames().size(), workloadNames().size() + 1);
}

// ----- differential: kv_server answers identically on all three --------

TEST(BackendDifferential, KvServerChecksumInvariantAcrossBackends)
{
    WorkloadParams params;
    params.scale = 0.05;

    std::uint64_t first_sum = 0;
    bool have_first = false;
    for (const BackendKind kind :
         {BackendKind::forwarding, BackendKind::handles, BackendKind::none}) {
        MachineConfig cfg;
        cfg.backend(kind);
        Machine machine(cfg);
        const auto w = makeWorkload("kv_server", params);
        WorkloadVariant variant;
        variant.layout_opt = true;
        w->run(machine, variant);
        if (!have_first) {
            first_sum = w->checksum();
            have_first = true;
        } else {
            EXPECT_EQ(w->checksum(), first_sum)
                << "backend " << backendKindName(kind)
                << " diverged functionally";
        }
        // Sanity: the run actually exercised the backend.
        const obs::MetricsNode m = machine.metrics();
        EXPECT_GT(m.counterAt("backend.allocs"), 0u);
        if (kind == BackendKind::none) {
            EXPECT_EQ(m.counterAt("backend.relocations"), 0u);
        }
    }
}

} // namespace
} // namespace memfwd
