/**
 * @file
 * Refinement oracle for the cache and TLB models.
 *
 * Namespace `parent` holds a verbatim copy of an earlier `Cache`,
 * `MshrFile` and `Tlb` (metrics omitted), the model the current code
 * must reproduce exactly.  The cache oracle builds two stacks, each L1
 * over L2 over a real MainMemory, one from the copies and one from the
 * current classes, drives both with the same random calls (loads,
 * stores and prefetches into L1, writebacks into L2, now and then a
 * flush() or clearStats() of one level, at times that mostly rise but
 * sometimes step back) and after every call compares the result, every
 * CacheStats field of both levels, the memory's counters, and
 * contains() for every line touched so far.  Geometries are small
 * enough that sets thrash.  The MSHR oracle drives the two MSHR files
 * directly, with lines chosen to share signature bits.  The TLB oracle
 * compares the copied `Tlb` with the machine's model, a PageCache plus
 * a fixed walk penalty.  A change that keeps them passing keeps every
 * simulated cycle of the hierarchy; a change meant to alter the model
 * updates the copy along with it.  Seeds go through testSeed().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <list>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mem/main_memory.hh"
#include "mem/page_cache.hh"
#include "runtime/machine.hh"

namespace memfwd
{
namespace parent
{

/** A fixed-size file of outstanding-miss registers. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries);

    /**
     * If a fill for @p line_addr is outstanding at @p now, return its
     * completion cycle (the caller combines with it); otherwise 0.
     *
     * Called on every cache access (the partial-miss check), so the
     * common nothing-in-flight case must not scan the file: if no entry
     * is pending and the latest completion ever recorded is already in
     * the past, no fill can be outstanding at @p now.
     */
    Cycles
    outstandingFill(Addr line_addr, Cycles now) const
    {
        if (pending_count_ == 0 && max_fill_done_ <= now)
            return 0;
        return outstandingFillSlow(line_addr, now);
    }

    /**
     * Allocate an entry for a new fill of @p line_addr.  If the file is
     * full at @p now, the allocation is delayed until the earliest
     * in-flight fill completes.  Returns the cycle at which the miss
     * may actually start being serviced (>= now).
     */
    Cycles allocate(Addr line_addr, Cycles now);

    /** Record the completion time of the fill started by allocate(). */
    void complete(Addr line_addr, Cycles fill_done);

    unsigned entries() const { return entries_; }

    /** Number of entries busy at @p now. */
    unsigned busyAt(Cycles now) const;

    /** Peak simultaneous occupancy observed. */
    unsigned peakOccupancy() const { return peak_; }

    /** Times an allocation had to wait for a free entry. */
    std::uint64_t allocationStalls() const { return alloc_stalls_; }

  private:
    struct Entry
    {
        Addr line_addr = 0;
        Cycles fill_done = 0; ///< 0 means free
        bool pending = false; ///< allocated but completion not yet known
    };

    void expire(Cycles now);
    Cycles outstandingFillSlow(Addr line_addr, Cycles now) const;

    unsigned entries_;
    std::vector<Entry> slots_;
    unsigned peak_ = 0;
    std::uint64_t alloc_stalls_ = 0;
    /** Entries allocated whose completion is not yet recorded. */
    unsigned pending_count_ = 0;
    /** Monotone upper bound on every entry's fill_done. */
    Cycles max_fill_done_ = 0;
};

MshrFile::MshrFile(unsigned entries)
    : entries_(entries), slots_(entries)
{
    memfwd_assert(entries > 0, "MSHR file needs at least one entry");
}

void
MshrFile::expire(Cycles now)
{
    for (auto &e : slots_) {
        if (!e.pending && e.fill_done != 0 && e.fill_done <= now)
            e.fill_done = 0;
    }
}

Cycles
MshrFile::outstandingFillSlow(Addr line_addr, Cycles now) const
{
    for (const auto &e : slots_) {
        const bool busy = e.pending || e.fill_done > now;
        if (busy && e.line_addr == line_addr)
            return e.pending ? now : e.fill_done;
    }
    return 0;
}

Cycles
MshrFile::allocate(Addr line_addr, Cycles now)
{
    expire(now);
    // Find a free slot; if none, wait until the earliest fill retires.
    Entry *victim = nullptr;
    Cycles earliest = std::numeric_limits<Cycles>::max();
    unsigned busy = 0;
    for (auto &e : slots_) {
        const bool is_busy = e.pending || e.fill_done > now;
        if (!is_busy && !victim) {
            victim = &e;
        }
        if (is_busy) {
            ++busy;
            if (!e.pending)
                earliest = std::min(earliest, e.fill_done);
        }
    }

    Cycles start = now;
    if (!victim) {
        // All entries busy.  If every busy entry is still pending (its
        // completion time unknown), we cannot model the wait precisely;
        // that cannot happen because allocate/complete are paired
        // immediately by the cache.
        memfwd_assert(earliest != std::numeric_limits<Cycles>::max(),
                      "MSHR file wedged: all entries pending");
        ++alloc_stalls_;
        start = earliest;
        expire(start);
        for (auto &e : slots_) {
            if (!e.pending && e.fill_done == 0) {
                victim = &e;
                break;
            }
        }
        memfwd_assert(victim, "MSHR expiry failed to free a slot");
        busy = entries_ - 1;
    }

    peak_ = std::max(peak_, busy + 1);
    victim->line_addr = line_addr;
    victim->pending = true;
    victim->fill_done = 0;
    ++pending_count_;
    return start;
}

void
MshrFile::complete(Addr line_addr, Cycles fill_done)
{
    for (auto &e : slots_) {
        if (e.pending && e.line_addr == line_addr) {
            e.pending = false;
            e.fill_done = fill_done;
            --pending_count_;
            max_fill_done_ = std::max(max_fill_done_, fill_done);
            return;
        }
    }
    memfwd_panic("MSHR complete() without matching allocate(): line %#llx",
                 static_cast<unsigned long long>(line_addr));
}

unsigned
MshrFile::busyAt(Cycles now) const
{
    unsigned busy = 0;
    for (const auto &e : slots_) {
        if (e.pending || e.fill_done > now)
            ++busy;
    }
    return busy;
}

/** A single set-associative, write-back, write-allocate cache level. */
class Cache : public MemLevel
{
  public:
    Cache(const CacheConfig &cfg, MemLevel &below);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    Result access(Addr addr, AccessType type, Cycles now) override;
    void writeback(Addr line_addr, Cycles now) override;

    /** True if the line containing @p addr is currently resident. */
    bool contains(Addr addr) const;

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }
    const MshrFile &mshrs() const { return mshrs_; }

    /** Zero the statistics (contents and LRU state are preserved). */
    void clearStats() { stats_ = CacheStats(); }

    /** Invalidate every line (used between benchmark configurations). */
    void flush();

    Addr lineAlign(Addr a) const { return a & ~Addr(cfg_.line_bytes - 1); }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;  ///< filled by prefetch, not yet used
        std::uint64_t lru = 0;    ///< last-touch stamp
        std::uint64_t filled = 0; ///< fill-order stamp (FIFO policy)
    };

    unsigned setIndex(Addr line_addr) const;
    Line *findLineSlow(Addr line_addr);

    /**
     * Tag lookup with a one-entry MRU hint.  Tags store the full line
     * address, so a tag match on the hinted line is sufficient — the
     * hint self-invalidates when the line it points at is re-filled
     * with a different tag or invalidated by flush().
     */
    Line *
    findLine(Addr line_addr)
    {
        if (mru_hint_ && mru_hint_->valid && mru_hint_->tag == line_addr)
            return mru_hint_;
        return findLineSlow(line_addr);
    }
    const Line *findLine(Addr line_addr) const;
    Line &chooseVictim(unsigned set);
    void recordAccess(Line &line);

    CacheConfig cfg_;
    MemLevel &below_;
    MshrFile mshrs_;
    CacheStats stats_;
    std::vector<Line> lines_; ///< sets_ x assoc, row-major
    unsigned line_shift_ = 0; ///< log2(line_bytes)
    unsigned set_mask_ = 0;   ///< numSets() - 1
    Line *mru_hint_ = nullptr; ///< last line hit or installed
    std::uint64_t lru_clock_ = 0;
    std::uint64_t victim_seed_ = 0x2545f4914f6cdd1dULL;
};

Cache::Cache(const CacheConfig &cfg, MemLevel &below)
    : cfg_(cfg), below_(below), mshrs_(cfg.mshrs)
{
    memfwd_assert(cfg_.validGeometry(),
                  "%s: bad geometry (%u B, %u-way, %u B lines): line and "
                  "set count must each be a power of two, line >= %u B",
                  cfg_.name.c_str(), cfg_.size_bytes, cfg_.assoc,
                  cfg_.line_bytes, wordBytes);
    lines_.resize(static_cast<std::size_t>(cfg_.numSets()) * cfg_.assoc);
    line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
    set_mask_ = cfg_.numSets() - 1;
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>(line_addr >> line_shift_) & set_mask_;
}

Cache::Line *
Cache::findLineSlow(Addr line_addr)
{
    const unsigned set = setIndex(line_addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.assoc];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (base[w].valid && base[w].tag == line_addr) {
            mru_hint_ = &base[w];
            return &base[w];
        }
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

Cache::Line &
Cache::chooseVictim(unsigned set)
{
    Line *base = &lines_[static_cast<std::size_t>(set) * cfg_.assoc];
    // Invalid ways first, regardless of policy.
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!base[w].valid)
            return base[w];
    }
    switch (cfg_.replacement) {
      case ReplacementPolicy::random: {
        // Deterministic xorshift over the victim stream.
        victim_seed_ ^= victim_seed_ << 13;
        victim_seed_ ^= victim_seed_ >> 7;
        victim_seed_ ^= victim_seed_ << 17;
        return base[victim_seed_ % cfg_.assoc];
      }
      case ReplacementPolicy::fifo: {
        Line *victim = base;
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (base[w].filled < victim->filled)
                victim = &base[w];
        }
        return *victim;
      }
      case ReplacementPolicy::lru:
      default: {
        Line *victim = base;
        for (unsigned w = 1; w < cfg_.assoc; ++w) {
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        return *victim;
      }
    }
}

void
Cache::recordAccess(Line &line)
{
    line.lru = ++lru_clock_;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAlign(addr)) != nullptr;
}

void
Cache::flush()
{
    for (auto &l : lines_)
        l = Line();
}

MemLevel::Result
Cache::access(Addr addr, AccessType type, Cycles now)
{
    const Addr line_addr = lineAlign(addr);

    if (Line *line = findLine(line_addr)) {
        recordAccess(*line);
        if (type == AccessType::store)
            line->dirty = true;
        if (line->prefetched && type != AccessType::prefetch) {
            line->prefetched = false;
            ++stats_.useful_prefetches;
        }

        // The line is installed eagerly at miss time, so a "hit" may be
        // to a line whose fill is still in flight: that is the paper's
        // *partial miss* — it combines with the outstanding miss and
        // waits only the remaining latency.
        if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
            switch (type) {
              case AccessType::load:
                ++stats_.load_partial_misses;
                break;
              case AccessType::store:
                ++stats_.store_partial_misses;
                break;
              case AccessType::prefetch:
                ++stats_.prefetch_hits;
                break;
            }
            const Cycles ready = std::max(fill, now + cfg_.hit_latency);
            return {ready, MissKind::partial, 0};
        }

        switch (type) {
          case AccessType::load:
            ++stats_.load_hits;
            break;
          case AccessType::store:
            ++stats_.store_hits;
            break;
          case AccessType::prefetch:
            ++stats_.prefetch_hits;
            break;
        }
        return {now + cfg_.hit_latency, MissKind::hit, 0};
    }

    // Miss.  First see whether a fill for this line is already in
    // flight — if so, combine with it (a "partial miss").
    if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
        switch (type) {
          case AccessType::load:
            ++stats_.load_partial_misses;
            break;
          case AccessType::store:
            ++stats_.store_partial_misses;
            break;
          case AccessType::prefetch:
            ++stats_.prefetch_hits; // combined; no new traffic
            break;
        }
        // The line will be resident when the fill completes; a store
        // combining with the fill dirties it then.
        const Cycles ready = std::max(fill, now + cfg_.hit_latency);
        if (type == AccessType::store) {
            if (Line *line = findLine(line_addr))
                line->dirty = true;
        }
        return {ready, MissKind::partial, 1};
    }

    // Full miss: allocate an MSHR (possibly waiting for a free one) and
    // fetch the line from below.
    const Cycles start = mshrs_.allocate(line_addr, now);
    const Result below = below_.access(line_addr, type,
                                       start + cfg_.hit_latency);
    mshrs_.complete(line_addr, below.ready);

    switch (type) {
      case AccessType::load:
        ++stats_.load_full_misses;
        break;
      case AccessType::store:
        ++stats_.store_full_misses;
        break;
      case AccessType::prefetch:
        ++stats_.prefetch_misses;
        break;
    }
    stats_.bytes_in += cfg_.line_bytes;

    // Install the line now (simulation state is eager; timing is carried
    // by the returned ready cycle and the MSHR entry).
    const unsigned set = setIndex(line_addr);
    Line &victim = chooseVictim(set);
    if (victim.valid && victim.dirty) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(victim.tag, below.ready);
    }
    victim.valid = true;
    victim.tag = line_addr;
    victim.dirty = (type == AccessType::store);
    victim.prefetched = (type == AccessType::prefetch);
    recordAccess(victim);
    victim.filled = victim.lru;
    mru_hint_ = &victim;

    return {below.ready, MissKind::full, below.depth + 1};
}

void
Cache::writeback(Addr line_addr, Cycles now)
{
    // A dirty line arrives from the level above.  If we hold the line,
    // just mark it dirty; otherwise allocate it without fetching from
    // below (the incoming data is the whole line).
    if (Line *line = findLine(line_addr)) {
        line->dirty = true;
        recordAccess(*line);
        return;
    }
    const unsigned set = setIndex(line_addr);
    Line &victim = chooseVictim(set);
    if (victim.valid && victim.dirty) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(victim.tag, now);
    }
    victim.valid = true;
    victim.tag = line_addr;
    victim.dirty = true;
    victim.prefetched = false;
    recordAccess(victim);
    victim.filled = victim.lru;
    mru_hint_ = &victim;
}

/** Fully-associative LRU translation cache. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg);

    /**
     * Translate the page of @p addr at @p now.  Returns the cycle the
     * translation is available (now on a hit, now + miss_penalty on a
     * walk).
     */
    Cycles access(Addr addr, Cycles now);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? double(misses_) / double(total) : 0.0;
    }

    const TlbConfig &config() const { return cfg_; }

    void
    clearStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

    /** Drop every cached translation (e.g. a context switch). */
    void flush();

  private:
    TlbConfig cfg_;
    std::list<Addr> lru_; ///< front = most recent
    std::unordered_map<Addr, std::list<Addr>::iterator> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

Tlb::Tlb(const TlbConfig &cfg) : cfg_(cfg)
{
    memfwd_assert(cfg_.entries > 0, "TLB needs at least one entry");
    memfwd_assert(cfg_.page_bytes > 0 &&
                      (cfg_.page_bytes & (cfg_.page_bytes - 1)) == 0,
                  "TLB page size must be a power of two");
}

Cycles
Tlb::access(Addr addr, Cycles now)
{
    const Addr page = addr / cfg_.page_bytes;
    auto it = entries_.find(page);
    if (it != entries_.end()) {
        ++hits_;
        lru_.erase(it->second);
        lru_.push_front(page);
        it->second = lru_.begin();
        return now;
    }
    ++misses_;
    if (entries_.size() >= cfg_.entries) {
        entries_.erase(lru_.back());
        lru_.pop_back();
    }
    lru_.push_front(page);
    entries_.emplace(page, lru_.begin());
    return now + cfg_.miss_penalty;
}

void
Tlb::flush()
{
    lru_.clear();
    entries_.clear();
}

} // namespace parent

namespace
{

/** L1 over L2 over a real MainMemory, built from cache class C. */
template <class C>
struct Stack
{
    Stack(const CacheConfig &l1_cfg, const CacheConfig &l2_cfg,
          const MainMemoryConfig &mem_cfg)
        : mem(mem_cfg), mem_level(mem, l2_cfg.line_bytes),
          l2(l2_cfg, mem_level), l1(l1_cfg, l2)
    {}

    MainMemory mem;
    MemoryLevel mem_level;
    C l2;
    C l1;
};

::testing::AssertionResult
sameStats(const char *level, const CacheStats &want, const CacheStats &got)
{
#define MEMFWD_SAME(field)                                                  \
    if (want.field != got.field)                                            \
        return ::testing::AssertionFailure()                                \
               << level << "." #field ": parent " << want.field             \
               << ", now " << got.field;
    MEMFWD_SAME(load_hits)
    MEMFWD_SAME(load_partial_misses)
    MEMFWD_SAME(load_full_misses)
    MEMFWD_SAME(store_hits)
    MEMFWD_SAME(store_partial_misses)
    MEMFWD_SAME(store_full_misses)
    MEMFWD_SAME(prefetch_hits)
    MEMFWD_SAME(prefetch_misses)
    MEMFWD_SAME(writebacks)
    MEMFWD_SAME(bytes_in)
    MEMFWD_SAME(bytes_out)
    MEMFWD_SAME(useful_prefetches)
#undef MEMFWD_SAME
    return ::testing::AssertionSuccess();
}

/** Every observable of the two stacks, after one call. */
::testing::AssertionResult
sameState(const Stack<parent::Cache> &want, const Stack<Cache> &got,
          const std::vector<Addr> &touched)
{
    if (auto r = sameStats("l1", want.l1.stats(), got.l1.stats()); !r)
        return r;
    if (auto r = sameStats("l2", want.l2.stats(), got.l2.stats()); !r)
        return r;
    if (want.mem.accesses() != got.mem.accesses() ||
        want.mem.bytesTransferred() != got.mem.bytesTransferred())
        return ::testing::AssertionFailure()
               << "memory: parent " << want.mem.accesses() << " accesses / "
               << want.mem.bytesTransferred() << " B, now "
               << got.mem.accesses() << " / " << got.mem.bytesTransferred();
    for (Addr line : touched) {
        if (want.l1.contains(line) != got.l1.contains(line) ||
            want.l2.contains(line) != got.l2.contains(line))
            return ::testing::AssertionFailure()
                   << "residency of line " << std::hex << line
                   << " differs (l1 " << want.l1.contains(line) << "/"
                   << got.l1.contains(line) << ", l2 "
                   << want.l2.contains(line) << "/" << got.l2.contains(line)
                   << ")";
    }
    return ::testing::AssertionSuccess();
}

CacheConfig
randomLevel(Rng &rng, const char *name, unsigned line_bytes,
            ReplacementPolicy policy, unsigned max_sets)
{
    // Power-of-two and other associativities: the set block of the
    // current model is sized by assoc, not by a power of two.
    static constexpr unsigned ways[] = {1, 2, 3, 4, 5, 6, 8, 16, 32};
    CacheConfig c;
    c.name = name;
    c.line_bytes = line_bytes;
    c.assoc = ways[rng.below(std::size(ways))];
    const unsigned sets = 1u << rng.below(max_sets);
    c.size_bytes = sets * c.assoc * line_bytes;
    c.mshrs = 1 + static_cast<unsigned>(rng.below(64)); // 1..64
    c.replacement = policy;
    return c;
}

/** How often the streams reached the paths worth comparing. */
struct Coverage
{
    std::uint64_t partial_resident = 0; ///< combined, line still held
    std::uint64_t partial_evicted = 0;  ///< combined, line evicted again
    std::uint64_t full = 0;
    std::uint64_t victim_writebacks = 0;
    std::uint64_t flushes = 0;
};

void
runCacheTrial(ReplacementPolicy policy, std::uint64_t seed, Coverage &cov)
{
    Rng rng(seed);
    const unsigned line = 32u << rng.below(4); // 32..256 B
    CacheConfig l1 = randomLevel(rng, "l1d", line, policy, 3);
    l1.hit_latency = 1 + rng.below(3);
    CacheConfig l2 = randomLevel(rng, "l2", line, policy, 4);
    l2.hit_latency = 4 + rng.below(9);
    MainMemoryConfig mem;
    mem.latency = 20 + rng.below(80);
    mem.bytesPerCycle = 4u << rng.below(3);

    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": " << line << " B lines, l1 "
                 << l1.size_bytes << " B " << l1.assoc << "-way "
                 << l1.mshrs << " mshrs, l2 " << l2.size_bytes << " B "
                 << l2.assoc << "-way " << l2.mshrs << " mshrs");

    Stack<parent::Cache> want(l1, l2, mem);
    Stack<Cache> got(l1, l2, mem);

    // Three times L2's lines, so both levels evict; a hot subset gives
    // the hits and partial misses something to find.
    const unsigned pool = 3 * l2.size_bytes / line;
    const unsigned hot = std::max(1u, pool / 8);
    const Addr base = 0x10000;
    std::vector<Addr> touched;
    std::vector<bool> seen(pool, false);
    Cycles now = 0;
    // flush() drops a level's in-flight fills, which the parent copy
    // keeps.  After a flush the stream jumps past every fill issued so
    // far and never steps back before that point, where the parent's
    // stale entries could still be seen.
    Cycles last_ready = 0;
    Cycles floor = 0;
    for (unsigned step = 0; step < 1500; ++step) {
        // Mostly rising, sometimes stepping back.
        if (rng.chance(0.1))
            now -= std::min<Cycles>(now - floor, rng.below(200));
        else
            now += rng.below(12);

        if (rng.chance(0.004)) {
            const bool l1 = rng.chance(0.5);
            (l1 ? want.l1 : want.l2).flush();
            (l1 ? got.l1 : got.l2).flush();
            now = floor = std::max(now, last_ready);
            ++cov.flushes;
        }
        if (rng.chance(0.004)) {
            const bool l1 = rng.chance(0.5);
            (l1 ? want.l1 : want.l2).clearStats();
            (l1 ? got.l1 : got.l2).clearStats();
        }

        const unsigned idx = static_cast<unsigned>(
            rng.chance(0.5) ? rng.below(hot) : rng.below(pool));
        const Addr line_addr = base + Addr(idx) * line;
        if (!seen[idx]) {
            seen[idx] = true;
            touched.push_back(line_addr);
        }

        const unsigned op = static_cast<unsigned>(rng.below(10));
        if (op == 9) {
            want.l2.writeback(line_addr, now);
            got.l2.writeback(line_addr, now);
        } else {
            const AccessType type = op < 5   ? AccessType::load
                                    : op < 8 ? AccessType::store
                                             : AccessType::prefetch;
            const Addr addr = line_addr + rng.below(line / wordBytes) *
                                              wordBytes;
            const MemLevel::Result w = want.l1.access(addr, type, now);
            const MemLevel::Result g = got.l1.access(addr, type, now);
            ASSERT_EQ(w.ready, g.ready) << "step " << step;
            ASSERT_EQ(w.kind, g.kind) << "step " << step;
            ASSERT_EQ(w.depth, g.depth) << "step " << step;
            last_ready = std::max(last_ready, g.ready);
            if (g.kind == MissKind::partial)
                ++(g.depth ? cov.partial_evicted : cov.partial_resident);
            else if (g.kind == MissKind::full)
                ++cov.full;
        }
        ASSERT_TRUE(sameState(want, got, touched)) << "step " << step;
    }
    cov.victim_writebacks += got.l1.stats().writebacks +
                             got.l2.stats().writebacks;
}

class CacheOracle : public ::testing::TestWithParam<ReplacementPolicy>
{};

TEST_P(CacheOracle, MatchesParentModel)
{
    const std::uint64_t policy_salt =
        static_cast<std::uint64_t>(GetParam()) << 16;
    Coverage cov;
    for (unsigned trial = 0; trial < 100; ++trial) {
        runCacheTrial(GetParam(),
                      testSeed(0xcac4e0000000ULL + policy_salt + trial),
                      cov);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(cov.partial_resident, 0u);
    EXPECT_GT(cov.partial_evicted, 0u);
    EXPECT_GT(cov.full, 0u);
    EXPECT_GT(cov.victim_writebacks, 0u);
    EXPECT_GT(cov.flushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CacheOracle,
    ::testing::Values(ReplacementPolicy::lru, ReplacementPolicy::fifo,
                      ReplacementPolicy::random),
    [](const ::testing::TestParamInfo<ReplacementPolicy> &info) {
        switch (info.param) {
          case ReplacementPolicy::lru:
            return "lru";
          case ReplacementPolicy::fifo:
            return "fifo";
          case ReplacementPolicy::random:
            return "random";
        }
        return "unknown";
    });

TEST(MshrOracle, MatchesParentFile)
{
    // Four groups of three lines, each group sharing one signature bit,
    // so a lookup often finds its bit set by another line's fill.
    std::vector<Addr> shared;
    std::vector<std::vector<Addr>> groups(4);
    for (Addr line = 0x40000; shared.size() < 12; line += 64) {
        for (auto &group : groups) {
            if (group.size() < 3 &&
                (group.empty() || MshrFile::signatureBit(line) ==
                                      MshrFile::signatureBit(group[0]))) {
                group.push_back(line);
                shared.push_back(line);
                break;
            }
        }
    }

    std::uint64_t collisions = 0; // absent lines whose bit was set
    std::uint64_t stalls = 0;     // allocations that waited
    for (unsigned trial = 0; trial < 200; ++trial) {
        Rng rng(testSeed(0x35b0000ULL + trial));
        const unsigned entries = 1 + static_cast<unsigned>(rng.below(64));
        std::vector<Addr> lines = shared;
        for (unsigned i = 0; i < entries; ++i)
            lines.push_back(0x80000 + rng.below(1u << 16) * 64);
        SCOPED_TRACE(::testing::Message() << "trial " << trial << ": "
                                          << entries << " entries");

        parent::MshrFile want(entries);
        MshrFile got(entries);
        Cycles now = 0;
        for (unsigned step = 0; step < 2000; ++step) {
            if (rng.chance(0.1))
                now -= std::min<Cycles>(now, rng.below(200));
            else
                now += rng.below(8);
            const Addr line = lines[rng.below(lines.size())];
            const Cycles fill = want.outstandingFill(line, now);
            ASSERT_EQ(fill, got.outstandingFill(line, now)) << "step " << step;
            if (fill == 0) {
                for (Addr other : lines) {
                    if (other != line &&
                        MshrFile::signatureBit(other) ==
                            MshrFile::signatureBit(line) &&
                        want.outstandingFill(other, now) != 0) {
                        ++collisions;
                        break;
                    }
                }
            }
            // The cache's protocol: a line with a fill in flight
            // combines with it rather than allocating.
            if (fill == 0 && rng.chance(0.5)) {
                if (rng.chance(0.01)) {
                    // A flushed cache level has no fills in flight: a
                    // fresh parent file stands for it.
                    want = parent::MshrFile(entries);
                    got.clear();
                }
                const Cycles start = want.allocate(line, now);
                ASSERT_EQ(start, got.allocate(line, now)) << "step " << step;
                stalls += start > now;
                const Cycles done = start + 1 + rng.below(300);
                want.complete(line, done);
                got.complete(done);
            }
        }
    }
    EXPECT_GT(collisions, 0u);
    EXPECT_GT(stalls, 0u);
}

TEST(TlbOracle, PageCacheWithPenaltyMatchesParentTlb)
{
    for (unsigned trial = 0; trial < 40; ++trial) {
        Rng rng(testSeed(0x71b0000ULL + trial));
        TlbConfig cfg;
        cfg.enabled = true;
        cfg.entries = 1 + static_cast<unsigned>(rng.below(16));
        cfg.page_bytes = 512u << rng.below(4);
        cfg.miss_penalty = 1 + rng.below(50);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ": " << cfg.entries
                     << " entries, " << cfg.page_bytes << " B pages");

        parent::Tlb want(cfg);
        PageCache got(cfg.page_bytes, cfg.entries, cfg.miss_penalty);
        const unsigned pages = 2 * cfg.entries + 1;
        Cycles now = 0;
        for (unsigned step = 0; step < 2000; ++step) {
            now += rng.below(5);
            const Addr addr =
                rng.below(pages) * cfg.page_bytes + rng.below(cfg.page_bytes);
            const Cycles ready =
                got.access(addr) ? now + cfg.miss_penalty : now;
            ASSERT_EQ(want.access(addr, now), ready) << "step " << step;
            ASSERT_EQ(want.misses(), got.faults()) << "step " << step;
            ASSERT_EQ(want.hits(), got.accesses() - got.faults())
                << "step " << step;
        }
    }
}

} // namespace
} // namespace memfwd
