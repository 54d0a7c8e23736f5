#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace memfwd
{

Cache::Cache(const CacheConfig &cfg, MainMemory &mem, Cache *next)
    : cfg_(cfg), mem_(mem), next_(next), mshrs_(cfg.mshrs)
{
    memfwd_assert(cfg_.validGeometry(),
                  "%s: bad geometry (%u B, %u-way, %u B lines): line and "
                  "set count must each be a power of two, line >= %u B",
                  cfg_.name.c_str(), cfg_.size_bytes, cfg_.assoc,
                  cfg_.line_bytes, wordBytes);
    const std::size_t sets = cfg_.numSets();
    host_lines_per_set_ =
        (2 * cfg_.assoc + words_per_host_line - 1) / words_per_host_line;
    blocks_.resize(sets * host_lines_per_set_);
    flags_.resize(sets * cfg_.assoc);
    line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
    set_mask_ = cfg_.numSets() - 1;
    flush();
    mru_ = way(0, 0);
}

unsigned
Cache::setIndex(Addr line_addr) const
{
    return static_cast<unsigned>(line_addr >> line_shift_) & set_mask_;
}

Cache::Way
Cache::find(Addr line_addr)
{
    if (*mru_.tag == line_addr)
        return mru_;
    const unsigned set = setIndex(line_addr);
    const Addr *t = tags(set);
    // No early exit: which way holds the line is a coin flip, the
    // number of ways is not.
    unsigned hit = cfg_.assoc;
    for (unsigned w = cfg_.assoc; w-- > 0;)
        hit = t[w] == line_addr ? w : hit;
    if (hit == cfg_.assoc)
        return {};
    mru_ = way(set, hit);
    return mru_;
}

unsigned
Cache::chooseVictim(unsigned set)
{
    // The first invalid way, regardless of policy; else LRU and FIFO
    // both evict the oldest stamp (they differ in what writes one:
    // touch() and install()).
    const Addr *t = tags(set);
    const std::uint64_t *stamp = t + cfg_.assoc;
    unsigned oldest = 0;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (t[w] == invalid_tag)
            return w;
        if (stamp[w] < stamp[oldest])
            oldest = w;
    }
    if (cfg_.replacement == ReplacementPolicy::random) {
        // Deterministic xorshift over the victim stream.
        victim_seed_ ^= victim_seed_ << 13;
        victim_seed_ ^= victim_seed_ >> 7;
        victim_seed_ ^= victim_seed_ << 17;
        return static_cast<unsigned>(victim_seed_ % cfg_.assoc);
    }
    return oldest;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line_addr = lineAlign(addr);
    const Addr *t = tags(setIndex(line_addr));
    return std::find(t, t + cfg_.assoc, line_addr) != t + cfg_.assoc;
}

void
Cache::flush()
{
    for (unsigned set = 0; set < cfg_.numSets(); ++set)
        std::fill_n(tags(set), cfg_.assoc, invalid_tag);
    std::fill(flags_.begin(), flags_.end(), std::uint8_t(0));
    mshrs_.clear();
}

void
Cache::count(AccessType type, MissKind kind)
{
    // A prefetch that finds its line, resident or in flight, adds no
    // traffic and counts as a hit.
    static constexpr std::uint64_t CacheStats::*counters[3][3] = {
        {&CacheStats::load_hits, &CacheStats::load_partial_misses,
         &CacheStats::load_full_misses},
        {&CacheStats::store_hits, &CacheStats::store_partial_misses,
         &CacheStats::store_full_misses},
        {&CacheStats::prefetch_hits, &CacheStats::prefetch_hits,
         &CacheStats::prefetch_misses},
    };
    ++(stats_.*counters[static_cast<unsigned>(type)]
                       [static_cast<unsigned>(kind)]);
}

void
Cache::install(Addr line_addr, std::uint8_t line_flags, Cycles victim_time)
{
    const unsigned set = setIndex(line_addr);
    const Way w = way(set, chooseVictim(set));
    if (*w.tag != invalid_tag && (*w.flags & dirty_bit)) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        if (next_)
            next_->writeback(*w.tag, victim_time);
        else
            mem_.access(victim_time, cfg_.line_bytes);
    }
    *w.tag = line_addr;
    *w.flags = line_flags;
    if (cfg_.replacement != ReplacementPolicy::random)
        w.tag[cfg_.assoc] = ++clock_;
    mru_ = w;
}

HierarchyResult
Cache::access(Addr addr, AccessType type, Cycles now)
{
    const Addr line_addr = lineAlign(addr);

    const Way w = find(line_addr);
    if (w.tag) {
        touch(w);
        if (type == AccessType::store)
            *w.flags |= dirty_bit;
        if ((*w.flags & prefetched_bit) && type != AccessType::prefetch) {
            *w.flags &= ~prefetched_bit;
            ++stats_.useful_prefetches;
        }
    }

    // Lines are installed eagerly at miss time, so a fill may still be
    // in flight for a resident line, or for one evicted again since:
    // either way the access is the paper's *partial miss* — it combines
    // with the outstanding fill and waits only the remaining latency.
    if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
        count(type, MissKind::partial);
        return {std::max(fill, now + cfg_.hit_latency), MissKind::partial,
                w.tag ? 0u : 1u};
    }
    if (w.tag) {
        count(type, MissKind::hit);
        return {now + cfg_.hit_latency, MissKind::hit, 0};
    }

    // Full miss: allocate an MSHR (possibly waiting for a free one) and
    // fetch the line from below.  The line is installed now (simulation
    // state is eager; timing is carried by the returned ready cycle and
    // the MSHR entry), and a dirty victim leaves when the fill arrives.
    const Cycles start = mshrs_.allocate(line_addr, now);
    const Cycles request = start + cfg_.hit_latency;
    const HierarchyResult below =
        next_ ? next_->access(line_addr, type, request)
              : HierarchyResult{mem_.access(request, cfg_.line_bytes),
                                MissKind::full, 0};
    mshrs_.complete(below.ready);
    count(type, MissKind::full);
    stats_.bytes_in += cfg_.line_bytes;
    install(line_addr,
            type == AccessType::store      ? dirty_bit
            : type == AccessType::prefetch ? prefetched_bit
                                           : 0,
            below.ready);
    return {below.ready, MissKind::full, below.depth + 1};
}

void
Cache::writeback(Addr line_addr, Cycles now)
{
    // A dirty line arrives from the level above.  If we hold the line,
    // just mark it dirty; otherwise allocate it without fetching from
    // below (the incoming data is the whole line).
    if (const Way w = find(line_addr); w.tag) {
        *w.flags |= dirty_bit;
        touch(w);
        return;
    }
    install(line_addr, dirty_bit, now);
}

void
Cache::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("load_hits", stats_.load_hits);
    into.counter("load_partial_misses", stats_.load_partial_misses);
    into.counter("load_full_misses", stats_.load_full_misses);
    into.counter("store_hits", stats_.store_hits);
    into.counter("store_partial_misses", stats_.store_partial_misses);
    into.counter("store_full_misses", stats_.store_full_misses);
    into.counter("prefetch_hits", stats_.prefetch_hits);
    into.counter("prefetch_misses", stats_.prefetch_misses);
    into.counter("writebacks", stats_.writebacks);
    into.counter("bytes_in", stats_.bytes_in);
    into.counter("bytes_out", stats_.bytes_out);
    into.counter("useful_prefetches", stats_.useful_prefetches);
    const std::uint64_t demand = stats_.demandAccesses();
    if (demand) {
        into.gauge("miss_rate",
                   double(stats_.loadMisses() + stats_.storeMisses()) /
                       double(demand));
    }
}

} // namespace memfwd
