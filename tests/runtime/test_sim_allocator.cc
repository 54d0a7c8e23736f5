/** @file Unit tests for the simulated-heap allocator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/cycle_check.hh"
#include "core/fault_injector.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{
namespace
{

Addr
alignUp(Addr a, Addr align)
{
    return (a + align - 1) & ~(align - 1);
}

/**
 * Reference model: an ordered start -> end block map with one plain
 * loop per placement (a first-fit walk over the blocks, a sequential
 * bump that skips colliding blocks, scattered draws with the same Rng
 * stream).  Scattered candidates align the address, not the offset,
 * and requests of at least the whole arena make no draws.  A failed
 * allocation is std::nullopt.
 */
class ReferenceAllocator
{
  public:
    ReferenceAllocator(Addr base, Addr span, std::uint64_t seed)
        : base_(base), span_(span), rng_(seed)
    {
    }

    std::optional<Addr>
    alloc(Addr bytes, Placement placement, Addr align)
    {
        bytes = roundUpToWord(bytes);
        const std::optional<Addr> addr = place(bytes, placement, align);
        if (addr)
            blocks_.emplace(*addr, *addr + bytes);
        return addr;
    }

    /** Free @p addr and the relocated copies its chain reaches. */
    void
    free(Addr addr, const std::vector<Addr> &chain)
    {
        for (const Addr c : chain)
            blocks_.erase(c);
        blocks_.erase(addr);
    }

    Addr
    size(Addr addr) const
    {
        const auto it = blocks_.find(addr);
        return it == blocks_.end() ? 0 : it->second - it->first;
    }

    Addr
    bytesLive() const
    {
        Addr n = 0;
        for (const auto &[start, end] : blocks_)
            n += end - start;
        return n;
    }

    Addr
    highestLiveEnd() const
    {
        return blocks_.empty() ? base_ : blocks_.rbegin()->second;
    }

    const std::map<Addr, Addr> &blocks() const { return blocks_; }

  private:
    bool
    rangeFree(Addr start, Addr bytes) const
    {
        if (start < base_ || start + bytes > base_ + span_)
            return false;
        auto it = blocks_.lower_bound(start);
        if (it != blocks_.end() && it->first < start + bytes)
            return false;
        return it == blocks_.begin() || std::prev(it)->second <= start;
    }

    std::optional<Addr>
    place(Addr bytes, Placement placement, Addr align)
    {
        const Addr limit = base_ + span_;
        if (placement == Placement::scattered && bytes < span_) {
            for (int attempt = 0; attempt < 64; ++attempt) {
                Addr c = alignUp(
                    base_ + (rng_.below(span_ - bytes) & ~(align - 1)),
                    align);
                if (c + bytes > limit)
                    c = (limit - bytes) & ~(align - 1);
                if (rangeFree(c, bytes))
                    return c;
            }
        }
        if (placement == Placement::first_fit) {
            Addr c = alignUp(base_, align);
            for (const auto &[start, end] : blocks_) {
                if (c + bytes <= start)
                    break;
                if (end > c)
                    c = alignUp(end, align);
            }
            if (c + bytes > limit)
                return std::nullopt;
            bump_ = std::max(bump_, c + bytes - base_);
            return c;
        }
        Addr c = base_ + bump_;
        for (;;) {
            c = alignUp(c, align);
            if (c + bytes > limit)
                return std::nullopt;
            if (rangeFree(c, bytes))
                break;
            auto it = blocks_.upper_bound(c);
            if (it != blocks_.begin())
                --it;
            c = std::max(c + align, it->second);
        }
        bump_ = c + bytes - base_;
        return c;
    }

    Addr base_;
    Addr span_;
    Rng rng_;
    std::map<Addr, Addr> blocks_;
    Addr bump_ = 0;
};

struct OracleArena
{
    const char *name;
    Addr base_offset; ///< from the machine's heap base
    Addr span;
    Addr small_max;   ///< most requests are 1..small_max bytes
    Addr big_max;     ///< one in sixteen is 1..big_max bytes
    int ops;
    bool fills; ///< the sequence must hit AllocFailure
};

/**
 * Drive the allocator and the reference model through one random
 * sequence of allocations (every placement, align 8..256), frees and
 * relocations, and compare them after every operation.
 */
void
runOracle(const OracleArena &arena, std::uint64_t seed)
{
    SCOPED_TRACE(arena.name);
    SCOPED_TRACE(seed);
    Machine m;
    const Addr base = m.config().heap_base + arena.base_offset;
    SimAllocator real(m, base, arena.span, seed);
    ReferenceAllocator model(base, arena.span, seed);
    Rng pick(seed ^ 0x5a17ULL);
    std::vector<Addr> heads;                     // freeable blocks
    std::map<Addr, std::vector<Addr>> relocated; // head -> chain blocks
    unsigned failures = 0;

    auto allocBoth = [&](Addr bytes, Placement placement,
                         Addr align) -> std::optional<Addr> {
        std::optional<Addr> got;
        try {
            got = real.alloc(bytes, placement, align);
        } catch (const AllocFailure &) {
            ++failures;
        }
        const std::optional<Addr> want = model.alloc(bytes, placement, align);
        EXPECT_EQ(got, want) << "bytes " << bytes << " placement "
                             << static_cast<int>(placement) << " align "
                             << align;
        return got;
    };
    auto randomPlacement = [&] {
        return static_cast<Placement>(pick.below(3));
    };

    for (int op = 0; op < arena.ops && !::testing::Test::HasFailure();
         ++op) {
        const std::uint64_t kind = pick.below(10);
        if (kind < 6 || heads.empty()) {
            Addr bytes = 1 + pick.below(arena.small_max);
            if (pick.below(16) == 0)
                bytes = 1 + pick.below(arena.big_max);
            const Addr align = Addr(wordBytes) << pick.below(6);
            if (const auto a = allocBoth(bytes, randomPlacement(), align))
                heads.push_back(*a);
        } else if (kind < 9) {
            const std::size_t i = pick.below(heads.size());
            const Addr head = heads[i];
            heads.erase(heads.begin() + static_cast<std::ptrdiff_t>(i));
            real.free(head);
            model.free(head, relocated[head]);
            relocated.erase(head);
        } else {
            // Move a small head into a fresh block: later frees of the
            // head must reclaim the copy through its forwarding chain.
            const Addr head = heads[pick.below(heads.size())];
            const Addr bytes = model.size(head);
            if (bytes > 512)
                continue;
            if (const auto tgt = allocBoth(bytes, randomPlacement(), 8)) {
                relocate(m, head, *tgt,
                         static_cast<unsigned>(bytes / wordBytes));
                relocated[head].push_back(*tgt);
            }
        }

        ASSERT_EQ(real.bytesLive(), model.bytesLive()) << "op " << op;
        ASSERT_EQ(real.highestLiveEnd(), model.highestLiveEnd())
            << "op " << op;
        for (const auto &[start, end] : model.blocks()) {
            for (const Addr a : {start, start + wordBytes, end}) {
                ASSERT_EQ(real.allocationSize(a), model.size(a))
                    << "op " << op << " addr " << a;
                ASSERT_EQ(real.isAllocated(a), model.size(a) != 0);
            }
        }
    }
    if (arena.fills) {
        EXPECT_GT(failures, 0u) << "the sequence never filled the arena";
    }
}

constexpr OracleArena oracle_arenas[] = {
    // Small arena, base off line alignment, filled past exhaustion.
    {"small_unaligned_base", 8, 64 << 10, 160, 3 * 4096, 2500, true},
    {"small_page_base", 0, 48 << 10, 96, 2 * 4096, 2500, true},
    // Sparse 4 GiB span: scattered blocks land on fresh pages and some
    // blocks cover hundreds of pages.
    {"sparse_4gib", 0, Addr(1) << 32, 4096, 4 << 20, 600, false},
};

TEST(SimAllocatorOracle, MatchesMapBasedReferenceModel)
{
    const bool was_verbose = verbose();
    setVerbose(false); // scattered fallbacks warn on every full arena
    for (const OracleArena &arena : oracle_arenas) {
        for (const std::uint64_t seed : {1ull, 2ull, 0x5eedull}) {
            runOracle(arena, testSeed(seed));
            if (HasFailure())
                break;
        }
    }
    setVerbose(was_verbose);
}

TEST(SimAllocatorOracle, StraddlingRequestsMatchTheModel)
{
    // A range inside one 64-word bitmap word is one mask test; a range
    // across a bitmap word or a 4 KiB page takes the scan.  Fill a
    // 4-page arena with one-word blocks, open a hole of 1..4 words
    // below and 0..2 words above every 64-word boundary (every eighth
    // is a page boundary), and place 1..10-word requests with every
    // placement, freeing each again, so every answer turns on ranges
    // that reach a boundary: free up to it, or blocked just past it.
    const bool was_verbose = verbose();
    setVerbose(false); // scattered fallbacks warn on a full arena
    constexpr Addr boundary = 64 * wordBytes;
    constexpr Addr page = 4096;
    for (const Addr base_offset : {Addr(0), Addr(wordBytes)}) {
        SCOPED_TRACE(base_offset);
        Machine m;
        const Addr base = m.config().heap_base + base_offset;
        const Addr span = 4 * page;
        const std::uint64_t seed = testSeed(0x57add1e);
        SimAllocator real(m, base, span, seed);
        ReferenceAllocator model(base, span, seed);
        for (Addr a = base; a < base + span; a += wordBytes) {
            ASSERT_EQ(real.alloc(wordBytes), a);
            ASSERT_EQ(model.alloc(wordBytes, Placement::sequential,
                                  wordBytes),
                      a);
        }
        unsigned hole = 0;
        for (Addr b = alignUp(base + 4 * wordBytes, boundary);
             b + 2 * wordBytes <= base + span; b += boundary, ++hole) {
            const Addr below = (1 + hole % 4) * wordBytes;
            const Addr above = hole % 3 * wordBytes;
            for (Addr w = b - below; w < b + above; w += wordBytes) {
                real.free(w);
                model.free(w, {});
            }
        }

        Rng pick(seed ^ 0x5a17ULL);
        unsigned across_words = 0, across_pages = 0;
        for (int op = 0; op < 600; ++op) {
            const Addr bytes = (1 + pick.below(10)) * wordBytes;
            const auto placement = static_cast<Placement>(pick.below(3));
            const std::optional<Addr> got = real.tryAlloc(bytes, placement);
            ASSERT_EQ(got, model.alloc(bytes, placement, wordBytes))
                << "op " << op << " bytes " << bytes << " placement "
                << static_cast<int>(placement);
            if (!got)
                continue;
            across_words += *got / boundary != (*got + bytes - 1) / boundary;
            across_pages += *got / page != (*got + bytes - 1) / page;
            real.free(*got);
            model.free(*got, {});
        }
        EXPECT_EQ(real.bytesLive(), model.bytesLive());
        EXPECT_GT(across_words, 0u);
        EXPECT_GT(across_pages, 0u);
    }
    setVerbose(was_verbose);
}

TEST(SimAllocator, ScatteredPlacementAlignsTheAddress)
{
    // The arena base is a word, not a line, off alignment: aligning
    // only the random offset would leave every block 8 mod 64.
    Machine m;
    SimAllocator alloc(m, m.config().heap_base + 8, 1 << 20);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(alloc.alloc(64, Placement::scattered, 64) % 64, 0u);
}

TEST(SimAllocator, WholeArenaScatteredRequestTakesTheLowestFit)
{
    Machine m;
    const Addr span = 64 << 10;
    SimAllocator alloc(m, m.config().heap_base, span);
    EXPECT_EQ(alloc.alloc(span, Placement::scattered), alloc.base());
    EXPECT_EQ(alloc.allocationSize(alloc.base()), span);
}

TEST(SimAllocator, OversizedScatteredRequestFailsWithoutDrawing)
{
    Machine m;
    const Addr span = 64 << 10;
    SimAllocator a(m, m.config().heap_base, span, 9);
    SimAllocator b(m, m.config().heap_base + span, span, 9);
    EXPECT_THROW(a.alloc(span + wordBytes, Placement::scattered),
                 AllocFailure);
    EXPECT_EQ(a.bytesLive(), 0u);
    // The failed request drew nothing, so both streams stay in step.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a.alloc(64, Placement::scattered) - a.base(),
                  b.alloc(64, Placement::scattered) - b.base());
    }
}

TEST(SimAllocator, TryAllocMatchesAlloc)
{
    // The try form is the throwing form minus the throw.  One random op
    // stream (every placement, align 8..256, an arena filled past
    // exhaustion, armed alloc-site faults) runs through alloc + catch
    // on one allocator and tryAlloc on a twin; every outcome and all
    // the bookkeeping must agree after every op, and the placements
    // after the last op pin the Rng streams.
    const bool was_verbose = verbose();
    setVerbose(false); // scattered fallbacks warn on every full arena
    for (const std::uint64_t base_seed : {3ull, 0x7a11ull}) {
        const std::uint64_t seed = testSeed(base_seed);
        SCOPED_TRACE(seed);
        Machine m_throw;
        Machine m_try;
        FaultInjector f_throw;
        FaultInjector f_try;
        for (FaultInjector *f : {&f_throw, &f_try})
            f->armSpec("allocfail@alloc:nth=5,count=3;"
                       "allocfail@alloc:nth=400,count=4");
        m_throw.setFaultInjector(&f_throw);
        m_try.setFaultInjector(&f_try);
        const Addr span = 32 << 10;
        SimAllocator thrower(m_throw, m_throw.config().heap_base, span, seed);
        SimAllocator trier(m_try, m_try.config().heap_base, span, seed);
        Rng pick(seed ^ 0x7a11ULL);
        std::vector<Addr> live;
        unsigned injected = 0;
        unsigned full = 0;

        for (int op = 0; op < 1500 && !HasFailure(); ++op) {
            if (pick.below(10) < 7 || live.empty()) {
                Addr bytes = 1 + pick.below(160);
                if (pick.below(16) == 0)
                    bytes = 1 + pick.below(3 * 4096);
                const auto placement = static_cast<Placement>(pick.below(3));
                const Addr align = Addr(wordBytes) << pick.below(6);
                std::optional<Addr> want;
                try {
                    want = thrower.alloc(bytes, placement, align);
                } catch (const AllocFailure &e) {
                    const bool by_fault =
                        std::string(e.what()).find("injected") !=
                        std::string::npos;
                    ++(by_fault ? injected : full);
                }
                const std::optional<Addr> got =
                    trier.tryAlloc(bytes, placement, align);
                ASSERT_EQ(got, want) << "op " << op << " bytes " << bytes;
                if (got)
                    live.push_back(*got);
            } else {
                const std::size_t i = pick.below(live.size());
                thrower.free(live[i]);
                trier.free(live[i]);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            }
            ASSERT_EQ(trier.bytesLive(), thrower.bytesLive()) << "op " << op;
            ASSERT_EQ(trier.highestLiveEnd(), thrower.highestLiveEnd())
                << "op " << op;
            ASSERT_EQ(trier.allocCalls(), thrower.allocCalls())
                << "op " << op;
        }
        EXPECT_EQ(injected, 3u + 4u) << "each armed fault fires count times";
        EXPECT_GT(full, 0u) << "the stream never filled the arena";
        for (const Addr a : live) {
            thrower.free(a);
            trier.free(a);
        }
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(trier.tryAlloc(64, Placement::scattered),
                      thrower.alloc(64, Placement::scattered));
        }
    }
    setVerbose(was_verbose);
}

TEST(SimAllocator, AllocationsAreWordAlignedAndDisjoint)
{
    Machine m;
    SimAllocator alloc(m);
    std::set<std::pair<Addr, Addr>> ranges;
    for (int i = 0; i < 200; ++i) {
        const Addr bytes = 8 + (i % 5) * 8;
        const Addr a = alloc.alloc(bytes, i % 2 ? Placement::scattered
                                                : Placement::sequential);
        EXPECT_TRUE(isWordAligned(a));
        for (const auto &[s, e] : ranges)
            EXPECT_TRUE(a + bytes <= s || a >= e);
        ranges.emplace(a, a + bytes);
    }
}

TEST(SimAllocator, OddSizesRoundUpToWords)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(13);
    EXPECT_EQ(alloc.allocationSize(a), 16u);
}

TEST(SimAllocator, FreshMemoryHasClearForwardingBits)
{
    // Section 3.3: the OS must hand out memory with clear forwarding
    // bits.  Dirty arena space *before* it is allocated and confirm
    // the allocation sweep cleans it.
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(64, Placement::sequential);
    m.access(Access::unforwardedWrite(a + 64, 0xdead, true));
    const Addr b = alloc.alloc(64, Placement::sequential);
    EXPECT_EQ(b, a + 64);
    EXPECT_FALSE((m.access(Access::readFBit(b)).value != 0));
    EXPECT_EQ(m.access(Access::unforwardedRead(b)).value, 0u);
}

TEST(SimAllocator, ScatteredPlacementSpreadsBlocks)
{
    Machine m;
    SimAllocator alloc(m);
    // Scattered blocks should not be contiguous in general.
    std::vector<Addr> addrs;
    for (int i = 0; i < 50; ++i)
        addrs.push_back(alloc.alloc(32, Placement::scattered));
    unsigned adjacent = 0;
    for (std::size_t i = 1; i < addrs.size(); ++i) {
        if (addrs[i] == addrs[i - 1] + 32 ||
            addrs[i - 1] == addrs[i] + 32) {
            ++adjacent;
        }
    }
    EXPECT_LT(adjacent, 3u);
}

TEST(SimAllocator, SequentialPlacementPacksTightly)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(32, Placement::sequential);
    const Addr b = alloc.alloc(32, Placement::sequential);
    EXPECT_EQ(b, a + 32);
}

TEST(SimAllocator, CustomAlignment)
{
    Machine m;
    SimAllocator alloc(m);
    alloc.alloc(8);
    const Addr a = alloc.alloc(64, Placement::sequential, 256);
    EXPECT_EQ(a % 256, 0u);
}

TEST(SimAllocator, StatsTrackLifecycle)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(100); // rounds to 104
    EXPECT_EQ(alloc.bytesLive(), 104u);
    EXPECT_EQ(alloc.bytesTotal(), 104u);
    alloc.free(a);
    EXPECT_EQ(alloc.bytesLive(), 0u);
    EXPECT_EQ(alloc.bytesPeak(), 104u);
    EXPECT_EQ(alloc.allocCalls(), 1u);
    EXPECT_EQ(alloc.freeCalls(), 1u);
}

TEST(SimAllocator, DeterministicAcrossRunsWithSameSeed)
{
    Machine m1, m2;
    SimAllocator a1(m1, 77), a2(m2, 77);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a1.alloc(24, Placement::scattered),
                  a2.alloc(24, Placement::scattered));
    }
}

TEST(SimAllocator, ChainAwareFreeReclaimsRelocatedCopies)
{
    // Section 3.3: freeing an object whose words forward must free the
    // relocated copies too.
    Machine m;
    SimAllocator alloc(m);
    const Addr obj = alloc.alloc(32);
    const Addr copy = alloc.alloc(32);
    relocate(m, obj, copy, 4);
    EXPECT_TRUE(alloc.isAllocated(copy));
    alloc.free(obj);
    EXPECT_FALSE(alloc.isAllocated(obj));
    EXPECT_FALSE(alloc.isAllocated(copy));
    EXPECT_EQ(alloc.bytesLive(), 0u);
}

TEST(SimAllocator, ChainAwareFreeSkipsUnknownTargets)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr obj = alloc.alloc(16);
    // Forward into pool-like space the allocator does not track.
    m.access(Access::unforwardedWrite(obj, 0x7f0000000ull, true));
    alloc.free(obj); // must not crash
    EXPECT_FALSE(alloc.isAllocated(obj));
}

TEST(SimAllocator, FreeThroughCorruptChainReleasesNothing)
{
    // A forged forwarding word whose misaligned payload lands inside
    // another live block: the walk refuses the payload, as peek() does,
    // instead of rounding it to that block and freeing it.
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(16);
    const Addr b = alloc.alloc(16);
    m.mem().unforwardedWrite(a, b + 3, true);
    EXPECT_THROW(alloc.free(a), ForwardingIntegrityError);
    EXPECT_TRUE(alloc.isAllocated(a));
    EXPECT_TRUE(alloc.isAllocated(b));
    EXPECT_EQ(alloc.bytesLive(), 32u);
    EXPECT_EQ(alloc.freeCalls(), 0u);
}

TEST(SimAllocator, FreeOfCyclicChainThrowsAndReleasesNothing)
{
    // Two blocks forwarding to each other: the accurate check proves the
    // cycle and free() throws, rather than spinning until an abort.
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(16);
    const Addr b = alloc.alloc(16);
    m.mem().unforwardedWrite(a, b, true);
    m.mem().unforwardedWrite(b, a, true);
    EXPECT_THROW(alloc.free(a), ForwardingCycleError);
    EXPECT_TRUE(alloc.isAllocated(a));
    EXPECT_TRUE(alloc.isAllocated(b));
    EXPECT_EQ(alloc.bytesLive(), 32u);
}

TEST(SimAllocatorDeathTest, DoubleFreePanics)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(16);
    alloc.free(a);
    EXPECT_DEATH(alloc.free(a), "unallocated");
}

TEST(SimAllocatorDeathTest, ZeroBytesPanics)
{
    Machine m;
    SimAllocator alloc(m);
    EXPECT_DEATH(alloc.alloc(0), "zero-byte");
}

TEST(RelocationPool, BumpAllocatesContiguously)
{
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 4096);
    const Addr a = pool.take(24);
    const Addr b = pool.take(24);
    EXPECT_EQ(b, a + 24);
    EXPECT_EQ(pool.used(), 48u);
    EXPECT_EQ(pool.remaining(), 4096u - 48);
}

TEST(RelocationPool, AlignedTake)
{
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 4096);
    pool.take(8);
    const Addr a = pool.take(64, 128);
    EXPECT_EQ(a % 128, 0u);
}

TEST(RelocationPoolDeathTest, ExhaustionPanics)
{
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 64);
    pool.take(64);
    EXPECT_DEATH(pool.take(8), "exhausted");
}

} // namespace
} // namespace memfwd
