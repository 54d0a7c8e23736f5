/** @file Unit tests for the tagged-memory substrate. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{
namespace
{

TEST(TaggedMemory, FreshMemoryReadsZeroWithClearBits)
{
    TaggedMemory mem;
    EXPECT_EQ(mem.rawReadWord(0), 0u);
    EXPECT_EQ(mem.rawReadWord(0x123456780), 0u);
    EXPECT_FALSE(mem.fbit(0));
    EXPECT_FALSE(mem.fbit(0xffffffff0ull));
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(TaggedMemory, WriteReadRoundTrip)
{
    TaggedMemory mem;
    mem.rawWriteWord(0x1000, 0xdeadbeefcafef00dull);
    EXPECT_EQ(mem.rawReadWord(0x1000), 0xdeadbeefcafef00dull);
    EXPECT_EQ(mem.rawReadWord(0x1008), 0u);
}

TEST(TaggedMemory, UnalignedAccessesHitContainingWord)
{
    TaggedMemory mem;
    mem.rawWriteWord(0x1000, 42);
    // Any address within the word reads the same payload.
    for (unsigned off = 0; off < 8; ++off)
        EXPECT_EQ(mem.rawReadWord(0x1000 + off), 42u);
}

TEST(TaggedMemory, ForwardingBitPerWord)
{
    TaggedMemory mem;
    mem.setFBit(0x2000, true);
    EXPECT_TRUE(mem.fbit(0x2000));
    EXPECT_TRUE(mem.fbit(0x2007)); // same word
    EXPECT_FALSE(mem.fbit(0x2008));
    mem.setFBit(0x2000, false);
    EXPECT_FALSE(mem.fbit(0x2000));
}

TEST(TaggedMemory, UnforwardedWriteAtomicPair)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x3000, 0x5800, true);
    EXPECT_EQ(mem.rawReadWord(0x3000), 0x5800u);
    EXPECT_TRUE(mem.fbit(0x3000));
    mem.unforwardedWrite(0x3000, 7, false);
    EXPECT_EQ(mem.rawReadWord(0x3000), 7u);
    EXPECT_FALSE(mem.fbit(0x3000));
}

TEST(TaggedMemory, SubwordReadsAndWrites)
{
    TaggedMemory mem;
    mem.rawWriteWord(0x4000, 0x1122334455667788ull);
    EXPECT_EQ(mem.readBytes(0x4000, 1), 0x88u);
    EXPECT_EQ(mem.readBytes(0x4001, 1), 0x77u);
    EXPECT_EQ(mem.readBytes(0x4000, 2), 0x7788u);
    EXPECT_EQ(mem.readBytes(0x4002, 2), 0x5566u);
    EXPECT_EQ(mem.readBytes(0x4000, 4), 0x55667788u);
    EXPECT_EQ(mem.readBytes(0x4004, 4), 0x11223344u);
    EXPECT_EQ(mem.readBytes(0x4000, 8), 0x1122334455667788ull);

    mem.writeBytes(0x4001, 1, 0xaa);
    EXPECT_EQ(mem.rawReadWord(0x4000), 0x112233445566aa88ull);
    mem.writeBytes(0x4004, 4, 0xddccbbaa);
    EXPECT_EQ(mem.rawReadWord(0x4000), 0xddccbbaa5566aa88ull);
}

TEST(TaggedMemory, SubwordWriteDoesNotTouchNeighbours)
{
    TaggedMemory mem;
    mem.rawWriteWord(0x5000, ~0ull);
    mem.writeBytes(0x5002, 2, 0);
    EXPECT_EQ(mem.rawReadWord(0x5000), 0xffffffff0000ffffull);
}

TEST(TaggedMemoryDeathTest, CrossWordAccessRejected)
{
    TaggedMemory mem;
    EXPECT_DEATH(mem.readBytes(0x1006, 4), "crosses word boundary");
    EXPECT_DEATH(mem.writeBytes(0x1007, 2, 0), "crosses word boundary");
}

TEST(TaggedMemoryDeathTest, BadSizeRejected)
{
    TaggedMemory mem;
    EXPECT_DEATH(mem.readBytes(0x1000, 3), "bad access size");
    EXPECT_DEATH(mem.readBytes(0x1000, 16), "bad access size");
}

TEST(TaggedMemory, InitializeRegionClearsTouchedPages)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x6000, 99, true);
    mem.unforwardedWrite(0x6100, 98, true);
    mem.initializeRegion(0x6000, 0x200);
    EXPECT_EQ(mem.rawReadWord(0x6000), 0u);
    EXPECT_FALSE(mem.fbit(0x6000));
    EXPECT_FALSE(mem.fbit(0x6100));
}

TEST(TaggedMemory, InitializeRegionLazyOnColdPages)
{
    TaggedMemory mem;
    // A huge init over untouched space must not materialize pages.
    mem.initializeRegion(0x100000000ull, Addr(1) << 30);
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(TaggedMemory, InitializeRegionPartialPage)
{
    TaggedMemory mem;
    mem.unforwardedWrite(0x7000, 1, true);
    mem.unforwardedWrite(0x7008, 2, true);
    mem.initializeRegion(0x7008, 8); // only the second word
    EXPECT_EQ(mem.rawReadWord(0x7000), 1u);
    EXPECT_TRUE(mem.fbit(0x7000));
    EXPECT_EQ(mem.rawReadWord(0x7008), 0u);
    EXPECT_FALSE(mem.fbit(0x7008));
}

TEST(TaggedMemory, SparsePagesAccounting)
{
    TaggedMemory mem;
    mem.rawWriteWord(0, 1);
    mem.rawWriteWord(TaggedMemory::pageBytes, 1);
    mem.rawWriteWord(100 * TaggedMemory::pageBytes, 1);
    EXPECT_EQ(mem.pagesAllocated(), 3u);
    EXPECT_EQ(mem.bytesAllocated(), 3u * TaggedMemory::pageBytes);
}

TEST(TaggedMemory, ScatteredWordsCostOneGranuleEach)
{
    // One word touched in each of n MiB-apart places materializes n
    // granules of at most 256 bytes, not n host pages.
    EXPECT_LE(TaggedMemory::pageBytes, 256u);
    TaggedMemory mem;
    constexpr unsigned n = 1000;
    for (unsigned i = 0; i < n; ++i)
        mem.rawWriteWord((Addr(i) << 20) + 0x88, i + 1);
    EXPECT_EQ(mem.pagesAllocated(), n);
    EXPECT_EQ(mem.bytesAllocated(), Addr(n) * TaggedMemory::pageBytes);
    for (unsigned i = 0; i < n; ++i)
        ASSERT_EQ(mem.rawReadWord((Addr(i) << 20) + 0x88), i + 1);
}

/** Records every forwarding-state notification. */
struct RecordingListener : FwdStateListener
{
    std::vector<std::pair<Addr, bool>> events;
    void
    fwdStateChanged(Addr word, bool was_fbit) override
    {
        events.emplace_back(word, was_fbit);
    }
};

TEST(TaggedMemory, InitializeRegionNotifiesOncePerSetBitAscending)
{
    // The sweep must make exactly the calls a per-word
    // unforwardedWrite(w, 0, false) loop makes: (word, true) for each
    // set forwarding bit, ascending, and nothing for untagged words,
    // on both the probing path (short range) and the materialized-key
    // path (range wider than the index).
    for (const Addr span : {Addr(0x3000), Addr(1) << 34}) {
        TaggedMemory mem;
        RecordingListener listener;
        const Addr base = 0x40000;
        const std::vector<Addr> tagged = {base + 0x8, base + 0xf8,
                                          base + 0x100, base + 0x1000,
                                          base + 0x2ff8};
        for (const Addr w : tagged)
            mem.unforwardedWrite(w, w + 0x100000, true);
        mem.rawWriteWord(base + 0x10, 5); // untagged: no call
        mem.unforwardedWrite(base + span, 1, true); // past the range
        mem.setFwdStateListener(&listener);

        mem.initializeRegion(base, span);

        std::vector<std::pair<Addr, bool>> want;
        for (const Addr w : tagged)
            want.emplace_back(w, true);
        EXPECT_EQ(listener.events, want) << "span " << span;
        EXPECT_EQ(mem.fbitCount(), 1u);
        EXPECT_EQ(mem.rawReadWord(base + 0x10), 0u);
        EXPECT_EQ(mem.rawReadWord(base + span), 1u);
    }
}

/**
 * Reference model: a std::map from word address to (value, fbit) plus
 * the set of materialized granules, with the listener calls each
 * operation must make.
 */
class TaggedMemoryOracle
{
  public:
    explicit TaggedMemoryOracle(std::uint64_t seed) : rng_(seed)
    {
        mem_.setFwdStateListener(&listener_);
        // Anchors spread sparsely over a 2^40 span; addresses cluster
        // around their granule and 64 KiB (one slab of granules)
        // boundaries.
        anchors_.push_back(0);
        for (int i = 0; i < 6; ++i)
            anchors_.push_back(rng_.below(Addr(1) << 24) << 16);
    }

    void
    run(unsigned ops)
    {
        for (unsigned op = 0; op < ops; ++op) {
            step();
            check(op);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

  private:
    struct Cell
    {
        Word value = 0;
        bool fbit = false;
    };

    static constexpr Addr granule = TaggedMemory::pageBytes;
    static constexpr Addr slab = 256 * granule;

    Addr
    pickWord()
    {
        const Addr anchor = anchors_[rng_.below(anchors_.size())];
        Addr a = 0;
        switch (rng_.below(3)) {
          case 0: // near a granule boundary
            a = rng_.below(3 * slab / granule) * granule +
                (rng_.below(5) - 2) * wordBytes;
            break;
          case 1: // near a slab boundary
            a = rng_.below(4) * slab + (rng_.below(9) - 4) * wordBytes;
            break;
          default:
            a = rng_.below(3 * slab / wordBytes) * wordBytes;
            break;
        }
        return anchor + a + slab; // the offsets above can dip below 0
    }

    Cell &
    touch(Addr word)
    {
        mapped_.insert(word - word % granule);
        return model_[word];
    }

    Cell
    cell(Addr word) const
    {
        const auto it = model_.find(word);
        return it == model_.end() ? Cell{} : it->second;
    }

    void
    write(Addr word, Word value)
    {
        Cell &c = touch(word);
        if (c.fbit && c.value != value)
            want_.emplace_back(word, true);
        c.value = value;
    }

    void
    step()
    {
        const Addr w = pickWord();
        switch (rng_.below(6)) {
          case 0: {
            const Word v = rng_.chance(0.3) ? 0 : rng_.next();
            mem_.rawWriteWord(w, v);
            write(w, v);
            break;
          }
          case 1: {
            const bool b = rng_.chance(0.6);
            mem_.setFBit(w, b);
            Cell &c = touch(w);
            if (c.fbit != b)
                want_.emplace_back(w, c.fbit);
            c.fbit = b;
            break;
          }
          case 2: {
            const Word v = rng_.chance(0.3) ? cell(w).value : rng_.next();
            const bool b = rng_.chance(0.6);
            mem_.unforwardedWrite(w, v, b);
            Cell &c = touch(w);
            if ((c.fbit || b) && (c.fbit != b || c.value != v))
                want_.emplace_back(w, c.fbit);
            c = Cell{v, b};
            break;
          }
          case 3: {
            const unsigned size = 1u << rng_.below(4);
            const unsigned off =
                static_cast<unsigned>(rng_.below(wordBytes - size + 1));
            const std::uint64_t v = rng_.next();
            mem_.writeBytes(w + off, size, v);
            const std::uint64_t field =
                size == 8 ? ~0ull : (std::uint64_t(1) << (size * 8)) - 1;
            const Word old = cell(w).value;
            write(w, (old & ~(field << off * 8)) |
                         ((v & field) << off * 8));
            break;
          }
          case 4: {
            const unsigned size = 1u << rng_.below(4);
            const unsigned off =
                static_cast<unsigned>(rng_.below(wordBytes - size + 1));
            const std::uint64_t field =
                size == 8 ? ~0ull : (std::uint64_t(1) << (size * 8)) - 1;
            ASSERT_EQ(mem_.readBytes(w + off, size),
                      cell(w).value >> off * 8 & field)
                << "readBytes " << w + off << " size " << size;
            break;
          }
          default:
            initialize(w);
            break;
        }
    }

    void
    initialize(Addr start)
    {
        Addr words = 0;
        switch (rng_.below(8)) {
          case 0: // wider than the index: the materialized-key path
            words = rng_.chance(0.5) ? Addr(1) << 37 : 4 * slab / wordBytes;
            break;
          case 1:
          case 2: // spans slab boundaries
            words = rng_.below(2 * slab / wordBytes) + 1;
            break;
          default: // a few granules, starting and ending mid-granule
            words = rng_.below(3 * granule / wordBytes) + 1;
            break;
        }
        const Addr end = start + words * wordBytes;
        mem_.initializeRegion(start, end - start);
        for (auto it = model_.lower_bound(start);
             it != model_.end() && it->first < end; ++it) {
            if (it->second.fbit)
                want_.emplace_back(it->first, true);
            it->second = Cell{};
        }
    }

    void
    check(unsigned op)
    {
        ASSERT_EQ(listener_.events, want_) << "listener log, op " << op;
        listener_.events.clear();
        want_.clear();

        std::uint64_t fbits = 0;
        std::vector<std::pair<Addr, Word>> forwarded;
        for (const auto &[word, c] : model_) {
            ASSERT_EQ(mem_.rawReadWord(word), c.value)
                << "word " << word << ", op " << op;
            ASSERT_EQ(mem_.fbit(word + 7), c.fbit)
                << "word " << word << ", op " << op;
            if (c.fbit) {
                ++fbits;
                forwarded.emplace_back(word, c.value);
            }
        }
        for (int i = 0; i < 8; ++i) {
            const Addr w = pickWord();
            ASSERT_EQ(mem_.rawReadWord(w), cell(w).value) << "op " << op;
            ASSERT_EQ(mem_.fbit(w), cell(w).fbit) << "op " << op;
            ASSERT_EQ(mem_.isMapped(w), mapped_.count(w - w % granule) != 0)
                << "op " << op;
        }
        ASSERT_EQ(mem_.fbitCount(), fbits) << "op " << op;

        std::vector<std::pair<Addr, Word>> swept;
        mem_.forEachForwardedWord(
            [&](Addr w, Word v) { swept.emplace_back(w, v); });
        ASSERT_EQ(swept, forwarded) << "forwarded-word sweep, op " << op;

        ASSERT_EQ(mem_.mappedPageBases(),
                  std::vector<Addr>(mapped_.begin(), mapped_.end()))
            << "op " << op;
        ASSERT_EQ(mem_.pagesAllocated(), mapped_.size()) << "op " << op;
    }

    Rng rng_;
    TaggedMemory mem_;
    RecordingListener listener_;
    std::vector<Addr> anchors_;
    std::map<Addr, Cell> model_;
    std::set<Addr> mapped_;
    std::vector<std::pair<Addr, bool>> want_;
};

TEST(TaggedMemoryOracle, MatchesMapBasedReferenceModel)
{
    for (const std::uint64_t seed : {1ull, 2ull, 0x7a66ull}) {
        TaggedMemoryOracle(testSeed(seed)).run(3000);
        if (HasFailure())
            break;
    }
}

// Space overhead sanity: the forwarding bits cost 1 bit per 64-bit
// word, the paper's 1.5% figure.
TEST(TaggedMemory, TagOverheadMatchesPaper)
{
    const double overhead = 1.0 / 64.0;
    EXPECT_NEAR(overhead, 0.015, 0.002);
}

} // namespace
} // namespace memfwd
