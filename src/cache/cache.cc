#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "mem/main_memory.hh"

namespace memfwd
{

// ---------------------------------------------------------------------
// MemoryLevel
// ---------------------------------------------------------------------

MemLevel::Result
MemoryLevel::access(Addr addr, AccessType type, Cycles now)
{
    (void)addr;
    (void)type;
    const Cycles ready = mem_.access(now, line_bytes_);
    return {ready, MissKind::full, 0};
}

void
MemoryLevel::writeback(Addr line_addr, Cycles now)
{
    (void)line_addr;
    mem_.access(now, line_bytes_);
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

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
Cache::install(Addr line_addr, bool dirty, bool prefetched,
               Cycles victim_time)
{
    Line &victim = chooseVictim(setIndex(line_addr));
    if (victim.valid && victim.dirty) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(victim.tag, victim_time);
    }
    victim.valid = true;
    victim.tag = line_addr;
    victim.dirty = dirty;
    victim.prefetched = prefetched;
    recordAccess(victim);
    victim.filled = victim.lru;
    mru_hint_ = &victim;
}

MemLevel::Result
Cache::access(Addr addr, AccessType type, Cycles now)
{
    const Addr line_addr = lineAlign(addr);

    Line *line = findLine(line_addr);
    if (line) {
        recordAccess(*line);
        if (type == AccessType::store)
            line->dirty = true;
        if (line->prefetched && type != AccessType::prefetch) {
            line->prefetched = false;
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
                line ? 0u : 1u};
    }
    if (line) {
        count(type, MissKind::hit);
        return {now + cfg_.hit_latency, MissKind::hit, 0};
    }

    // Full miss: allocate an MSHR (possibly waiting for a free one) and
    // fetch the line from below.  The line is installed now (simulation
    // state is eager; timing is carried by the returned ready cycle and
    // the MSHR entry), and a dirty victim leaves when the fill arrives.
    const Cycles start = mshrs_.allocate(line_addr, now);
    const Result below = below_.access(line_addr, type,
                                       start + cfg_.hit_latency);
    mshrs_.complete(below.ready);
    count(type, MissKind::full);
    stats_.bytes_in += cfg_.line_bytes;
    install(line_addr, type == AccessType::store,
            type == AccessType::prefetch, below.ready);
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
    install(line_addr, true, false, now);
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
